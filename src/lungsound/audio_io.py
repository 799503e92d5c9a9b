"""WAV decoding and resampling.

Hand-rolled RIFF/WAVE reader so decoding stays bit-auditable: little-endian
containers with integer PCM (8/16/24/32 bit, format code 1) or 32-bit IEEE
float (format code 3) payloads. Anything compressed is rejected up front.
"""

from __future__ import annotations

import math
import os
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


def _chunks(fh, file_size: int):
    """Yield (chunk id, payload offset, payload size) for each chunk of a RIFF
    body, reading only the 8-byte headers; pad bytes are honoured and a chunk
    that runs past the end of the file raises MalformedHeader."""
    pos = 12
    while pos + 8 <= file_size:
        fh.seek(pos)
        cid, size = struct.unpack("<4sI", fh.read(8))
        if pos + 8 + size > file_size:
            raise MalformedHeader(f"chunk {cid!r} claims {size} bytes, file truncated")
        yield cid, pos + 8, size
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
            # each 3-byte sample fills the top of an int32; the shift sign-extends it
            wide = np.zeros((len(payload) // 3, 4), dtype=np.uint8)
            wide[:, 1:] = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
            return (wide.view("<i4")[:, 0] >> 8).astype(np.float64) / float(2 ** 23)
        if bits == 32:
            return np.frombuffer(payload, dtype="<i4").astype(np.float64) / float(2 ** 31)
        raise UnsupportedEncoding(f"{bits}-bit PCM is not supported")
    if fmt == _FMT_FLOAT:
        if bits != 32:
            raise UnsupportedEncoding(f"{bits}-bit float WAV is not supported")
        # float files may carry samples slightly outside [-1, 1]
        return np.clip(np.frombuffer(payload, dtype="<f4").astype(np.float64), -1.0, 1.0)
    raise UnsupportedEncoding(f"WAV format code {fmt} (compressed?) is not supported")


def load_wav(path, seconds: float | None = None) -> AudioClip:
    """Decode a WAV file to a normalized mono AudioClip.

    Multi-channel input is averaged to mono; integer samples are scaled to
    [-1, 1] by the type's maximum magnitude. With `seconds` given, only the
    first ceil(seconds * rate) + 2 frames are read and decoded: enough for a
    linear resampler to produce every output sample before `seconds`
    unchanged. Every chunk header is still checked against the file size, so
    a damaged file is refused whatever the window.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise MalformedHeader(f"{path}: not a RIFF/WAVE file")

        fmt_chunk = data_chunk = None  # (offset, size) of the first of each
        for cid, offset, size in _chunks(fh, file_size):
            if cid == b"fmt " and fmt_chunk is None:
                fmt_chunk = offset, size
            elif cid == b"data" and data_chunk is None:
                data_chunk = offset, size
        if fmt_chunk is None or fmt_chunk[1] < 16:
            raise MalformedHeader(f"{path}: missing or short fmt chunk")
        if data_chunk is None:
            raise MalformedHeader(f"{path}: missing data chunk")

        fh.seek(fmt_chunk[0])
        fmt, n_channels, sample_rate, _, _, bits = struct.unpack("<HHIIHH", fh.read(16))
        if n_channels < 1:
            raise MalformedHeader(f"{path}: channel count {n_channels}")
        if sample_rate <= 0:
            raise MalformedHeader(f"{path}: sample rate {sample_rate}")
        offset, n_bytes = data_chunk
        if n_bytes == 0:
            raise EmptyAudio(f"{path}: zero data frames")
        if seconds is not None:
            n_keep = math.ceil(seconds * sample_rate) + 2
            n_bytes = min(n_bytes, n_keep * n_channels * max(bits // 8, 1))
        fh.seek(offset)
        payload = fh.read(n_bytes)

    flat = _decode_samples(payload, fmt, bits)
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
