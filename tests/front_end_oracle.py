"""A whole-file front end, kept as an oracle for the windowed one.

`load_wav` reads the whole file into memory, walks its chunks in that buffer
and decodes every frame of the data chunk (24-bit samples through an int64
expansion); `frame_and_window` gathers the frames by fancy indexing into a
copy. `mfcc_grid` runs them with the package's resampler and spectral chain
over the whole recording, so a cache assembled from its grids must equal the
one dataset.build_feature_cache writes, byte for byte.
"""

import struct

import numpy as np

from lungsound import audio_io, features
from lungsound.errors import MalformedHeader


def _chunks(data: bytes):
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise MalformedHeader(f"chunk {cid!r} claims {size} bytes, file truncated")
        yield cid, body
        pos += 8 + size + (size & 1)


def _decode(payload: bytes, fmt: int, bits: int) -> np.ndarray:
    """The supported encodings only: PCM 8/16/24/32 and float32."""
    payload = payload[:len(payload) - len(payload) % (bits // 8)]
    if fmt == 3:
        return np.clip(np.frombuffer(payload, dtype="<f4").astype(np.float64), -1.0, 1.0)
    if bits == 8:
        return (np.frombuffer(payload, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    if bits == 24:
        raw = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int64)
        vals = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        vals -= (vals & 0x800000) << 1  # sign extension
        return vals.astype(np.float64) / float(2 ** 23)
    return np.frombuffer(payload, dtype=f"<i{bits // 8}").astype(np.float64) / float(2 ** (bits - 1))


def load_wav(path) -> audio_io.AudioClip:
    """Every frame of a well-formed WAV file, averaged to mono."""
    with open(path, "rb") as fh:
        data = fh.read()
    chunks = {}
    for cid, body in _chunks(data):
        chunks.setdefault(cid, body)
    fmt, n_channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", chunks[b"fmt "], 0)
    flat = _decode(chunks[b"data"], fmt, bits)
    n_frames = len(flat) // n_channels
    return audio_io.AudioClip(flat[:n_frames * n_channels].reshape(n_frames, n_channels)
                              .mean(axis=1), int(rate))


def frame_and_window(x: np.ndarray, cfg: features.MfccConfig) -> np.ndarray:
    pad = cfg.frame_length // 2
    padded = np.pad(x, pad, mode="reflect")
    starts = np.arange(1 + x.size // cfg.hop_length) * cfg.hop_length
    frames = padded[starts[:, None] + np.arange(cfg.frame_length)[None, :]]
    return frames * features.hamming_window(cfg.frame_length)


def mfcc_grid(path, cfg: features.MfccConfig) -> np.ndarray:
    """The cached float32 grid of one recording, from its whole decoded signal."""
    clip = audio_io.resample(load_wav(path), cfg.sample_rate)
    n_target = int(round(cfg.clip_seconds * clip.sample_rate))
    x = clip.samples[:n_target]
    x = np.pad(x, (0, n_target - x.size))
    frames = frame_and_window(features.pre_emphasize(x, cfg.pre_emphasis), cfg)
    spec = np.fft.rfft(frames, n=cfg.n_fft, axis=1)
    fb, dct = features.mfcc_matrices(cfg)
    log_energy = np.log(np.maximum((spec.real ** 2 + spec.imag ** 2) @ fb.T, cfg.log_floor))
    return features.pad_or_truncate(dct @ log_energy.T, cfg.target_frames).astype("<f4")
