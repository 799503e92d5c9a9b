"""MFCC front end.

Chain: pre-emphasis -> framed Hamming analysis -> power spectrum -> triangular
mel filterbank -> log energies -> orthonormal DCT-II, producing a fixed
(40, 862) coefficient grid per clip. All front-end knobs live in MfccConfig;
the defaults reproduce that shape for 20 s of audio at 22050 Hz.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioClip
from .errors import DegenerateFilter, SignalTooShort

# OpenBLAS hands a product of at most this many multiply-adds (M·N·K) to its
# small-matrix kernels, which round a row by the product's row count; past it
# a row's bits do not depend on how many rows share the product
SMALL_GEMM_MADDS = 10 ** 6


@dataclass(frozen=True)
class MfccConfig:
    sample_rate: int = 22050
    pre_emphasis: float = 0.97
    frame_length: int = 2048
    hop_length: int = 512
    n_fft: int = 2048
    n_mel_filters: int = 128
    n_coefficients: int = 40
    fmin: float = 0.0
    fmax: float | None = None  # None means sample_rate / 2
    target_frames: int = 862
    clip_seconds: float = 20.0
    log_floor: float = 1e-10

    def __post_init__(self):
        if not 0.0 <= self.pre_emphasis < 1.0:
            raise ValueError(f"pre_emphasis must be in [0, 1), got {self.pre_emphasis}")
        if not 2 <= self.hop_length <= self.frame_length <= self.n_fft:
            raise ValueError("need 2 <= hop_length <= frame_length <= n_fft")
        if self.n_coefficients > self.n_mel_filters:
            raise ValueError("n_coefficients must not exceed n_mel_filters")
        if not 0.0 <= self.fmin < self.effective_fmax <= self.sample_rate / 2:
            raise ValueError("need 0 <= fmin < fmax <= sample_rate/2")
        if self.target_frames < 1 or self.clip_seconds <= 0 or self.log_floor <= 0:
            raise ValueError("target_frames, clip_seconds, log_floor must be positive")

    @property
    def effective_fmax(self) -> float:
        return self.sample_rate / 2 if self.fmax is None else self.fmax

    def hash_bytes(self) -> bytes:
        """32-byte digest of the config; used to pair caches with runs."""
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).digest()


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def pre_emphasize(samples, coeff: float) -> np.ndarray:
    """y[0] = x[0]; y[n] = x[n] - coeff * x[n-1]."""
    if not 0.0 <= coeff < 1.0:
        raise ValueError(f"coeff must be in [0, 1), got {coeff}")
    x = np.asarray(samples, dtype=np.float64)
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - coeff * x[:-1]
    return y


def hamming_window(n: int) -> np.ndarray:
    k = np.arange(n, dtype=np.float64)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))


def frame_and_window(samples, cfg: MfccConfig) -> np.ndarray:
    """Center-padded (reflection) Hamming frames, one row per frame.

    Frame count is 1 + len(samples) // hop_length; frames start every
    hop_length samples in the padded signal.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise SignalTooShort(f"need at least 2 samples to reflect, got {x.size}")
    # frame_length - pad after the signal, so an odd frame length still has
    # len(samples) + 1 window positions
    pad = cfg.frame_length // 2
    padded = np.pad(x, (pad, cfg.frame_length - pad), mode="reflect")
    frames = sliding_window_view(padded, cfg.frame_length)[::cfg.hop_length]
    return frames * hamming_window(cfg.frame_length)  # the only copy of the frames


def mel_filterbank(cfg: MfccConfig) -> np.ndarray:
    """Triangular filters, shape (n_mel_filters, n_fft//2 + 1).

    Corner frequencies are equally spaced on the mel scale between fmin and
    fmax, mapped back to Hz and snapped to the nearest FFT bin center; each
    filter peaks at weight 1.
    """
    points_mel = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.effective_fmax),
                             cfg.n_mel_filters + 2)
    bins = np.rint(mel_to_hz(points_mel) * cfg.n_fft / cfg.sample_rate).astype(int)
    fb = np.zeros((cfg.n_mel_filters, cfg.n_fft // 2 + 1))
    for m in range(cfg.n_mel_filters):
        b0, b1, b2 = bins[m], bins[m + 1], bins[m + 2]
        if b0 == b2:
            raise DegenerateFilter(f"mel filter {m} collapses onto bin {b0}")
        for k in range(b0 + 1, b1):
            fb[m, k] = (k - b0) / (b1 - b0)
        fb[m, b1] = 1.0
        for k in range(b1 + 1, b2):
            fb[m, k] = (b2 - k) / (b2 - b1)
    return fb


def dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    """First n_out rows of the orthonormal DCT-II matrix of size n_in."""
    n = np.arange(n_in, dtype=np.float64)
    k = np.arange(n_out, dtype=np.float64)[:, None]
    d = np.sqrt(2.0 / n_in) * np.cos(np.pi * (2.0 * n + 1.0) * k / (2.0 * n_in))
    d[0] = np.sqrt(1.0 / n_in)
    return d


@functools.lru_cache(maxsize=8)
def mfcc_matrices(cfg: MfccConfig):
    """(mel filterbank, DCT matrix) for cfg, built once per config.

    The arrays are shared by every caller, so they are returned read-only.
    """
    fb = mel_filterbank(cfg)
    dct = dct_matrix(cfg.n_coefficients, cfg.n_mel_filters)
    fb.setflags(write=False)
    dct.setflags(write=False)
    return fb, dct


def pad_or_truncate(mat: np.ndarray, target: int) -> np.ndarray:
    """Pad the frame axis with zero columns or keep the first `target` ones."""
    if mat.shape[1] >= target:
        return mat[:, :target]
    return np.pad(mat, ((0, 0), (0, target - mat.shape[1])))


def extract_mfcc(clip: AudioClip, cfg: MfccConfig) -> np.ndarray:
    """Run the full chain on one clip at cfg.sample_rate; returns a
    (n_coefficients, target_frames) grid.

    The waveform is zero-padded or truncated to clip_seconds before framing so
    short recordings map to constant silence columns rather than artificial
    discontinuities. Frames that read only that padding are not transformed:
    their mel energies are exact zeros. The mel product runs over the live
    frames only, plus zero rows while it has at most SMALL_GEMM_MADDS
    multiply-adds, so each row rounds as it would in the whole grid; the log
    and the DCT run over every frame, since a DCT over fewer columns rounds
    differently.
    """
    if clip.sample_rate != cfg.sample_rate:
        raise ValueError(f"clip is at {clip.sample_rate} Hz but the front end "
                         f"runs at {cfg.sample_rate} Hz; resample it first")
    x = np.asarray(clip.samples, dtype=np.float64)
    n_target = int(round(cfg.clip_seconds * cfg.sample_rate))
    n = min(x.size, n_target)
    n_frames = 1 + n_target // cfg.hop_length
    half = cfg.frame_length // 2
    tail = cfg.frame_length - half
    if n >= n_target - 1 - tail:
        # the reflected right edge can read signal: every frame is live
        live, m = n_frames, n_target
    else:
        # the pre-emphasized signal is zero after index n, and frame f starts
        # at f * hop - half; the first m samples hold every live frame whole
        # and the left reflection
        live = (half + n) // cfg.hop_length + 1
        m = min(max((live - 1) * cfg.hop_length + tail, half + 1), n_target)
    x = np.pad(x[:n], (0, m - n))

    frames = frame_and_window(pre_emphasize(x, cfg.pre_emphasis), cfg)[:live]
    spec = np.fft.rfft(frames, n=cfg.n_fft, axis=1)
    fb, dct = mfcc_matrices(cfg)
    rows = min(max(live, SMALL_GEMM_MADDS // fb.size + 1), n_frames)
    power = np.zeros((rows, fb.shape[1]))
    np.add(spec.real ** 2, spec.imag ** 2, out=power[:live])
    mel_energy = np.zeros((n_frames, cfg.n_mel_filters))
    mel_energy[:rows] = power @ fb.T
    log_energy = np.log(np.maximum(mel_energy, cfg.log_floor))
    coeffs = dct @ log_energy.T
    return pad_or_truncate(coeffs, cfg.target_frames)
