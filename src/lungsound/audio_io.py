"""WAV decoding and resampling.

Hand-rolled RIFF/WAVE reader so decoding stays bit-auditable: little-endian
containers with integer PCM (8/16/24/32 bit, format code 1) or 32-bit IEEE
float (format code 3) payloads. Anything compressed is rejected up front.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import EmptyAudio, MalformedHeader, UnsupportedEncoding

_FMT_PCM = 1
_FMT_FLOAT = 3


@dataclass
class AudioClip:
    """Mono waveform in [-1, 1] plus its sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int


def _chunks(data: bytes):
    """Yield (chunk id, payload) pairs from a RIFF body, honouring pad bytes."""
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise MalformedHeader(f"chunk {cid!r} claims {size} bytes, file truncated")
        yield cid, body
        pos += 8 + size + (size & 1)


def _decode_samples(payload: bytes, fmt: int, bits: int) -> np.ndarray:
    """Samples of a data chunk as float64; a partial trailing sample is dropped."""
    payload = payload[:len(payload) - len(payload) % max(bits // 8, 1)]
    if fmt == _FMT_PCM:
        if bits == 8:
            # 8-bit WAV is unsigned with a 128 midpoint
            return (np.frombuffer(payload, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
        if bits == 16:
            return np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
        if bits == 24:
            raw = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int64)
            vals = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
            vals -= (vals & 0x800000) << 1  # sign extension
            return vals.astype(np.float64) / float(2 ** 23)
        if bits == 32:
            return np.frombuffer(payload, dtype="<i4").astype(np.float64) / float(2 ** 31)
        raise UnsupportedEncoding(f"{bits}-bit PCM is not supported")
    if fmt == _FMT_FLOAT:
        if bits != 32:
            raise UnsupportedEncoding(f"{bits}-bit float WAV is not supported")
        # float files may carry samples slightly outside [-1, 1]
        return np.clip(np.frombuffer(payload, dtype="<f4").astype(np.float64), -1.0, 1.0)
    raise UnsupportedEncoding(f"WAV format code {fmt} (compressed?) is not supported")


def load_wav(path) -> AudioClip:
    """Decode a WAV file to a normalized mono AudioClip.

    Multi-channel input is averaged to mono; integer samples are scaled to
    [-1, 1] by the type's maximum magnitude.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedHeader(f"{path}: not a RIFF/WAVE file")

    fmt_body = None
    data_body = None
    for cid, body in _chunks(data):
        if cid == b"fmt " and fmt_body is None:
            fmt_body = body
        elif cid == b"data" and data_body is None:
            data_body = body
    if fmt_body is None or len(fmt_body) < 16:
        raise MalformedHeader(f"{path}: missing or short fmt chunk")
    if data_body is None:
        raise MalformedHeader(f"{path}: missing data chunk")

    fmt, n_channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt_body, 0)
    if n_channels < 1:
        raise MalformedHeader(f"{path}: channel count {n_channels}")
    if sample_rate <= 0:
        raise MalformedHeader(f"{path}: sample rate {sample_rate}")
    if len(data_body) == 0:
        raise EmptyAudio(f"{path}: zero data frames")

    flat = _decode_samples(data_body, fmt, bits)
    n_frames = len(flat) // n_channels
    if n_frames == 0:
        raise EmptyAudio(f"{path}: zero data frames")
    samples = flat[:n_frames * n_channels].reshape(n_frames, n_channels).mean(axis=1)
    return AudioClip(samples=samples, sample_rate=int(sample_rate))


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Linear-interpolation resampling; duration preserved within one sample."""
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if target_rate == clip.sample_rate:
        return clip
    n_in = len(clip.samples)
    n_out = max(1, int(round(n_in * target_rate / clip.sample_rate)))
    t_in = np.arange(n_in, dtype=np.float64) / clip.sample_rate
    t_out = np.arange(n_out, dtype=np.float64) / target_rate
    return AudioClip(samples=np.interp(t_out, t_in, clip.samples), sample_rate=int(target_rate))
