"""Independent reference MFCC pipeline used as a test oracle.

Everything here is written directly from the definitions: direct-summation
O(N^2) DFT via explicit cosine/sine matrices (no FFT), a loop-built mirror
pad, filterbank and DCT. It shares only the parameter block with the
production code, never its functions.

`power_spectrum` is the one-frame FFT form of the spectrum that
features.extract_mfcc computes for all frames in one batched rfft; the
package does not call it, and tests check it against the direct DFT.
"""

import numpy as np


def _mirror_pad(x: np.ndarray, pad: int) -> np.ndarray:
    """Reflection padding (edge sample not repeated), by explicit indexing."""
    n = len(x)
    idx = np.arange(-pad, n + pad)
    period = 2 * n - 2
    idx = np.mod(idx, period)
    idx = np.where(idx >= n, period - idx, idx)
    return x[idx]


def _dft_power_matrix(n_fft: int):
    """Real/imag direct-summation DFT matrices for bins 0 .. n_fft/2."""
    k = np.arange(n_fft // 2 + 1)[:, None]
    n = np.arange(n_fft)[None, :]
    angle = -2.0 * np.pi * k * n / n_fft
    return np.cos(angle), np.sin(angle)


def naive_power_spectrum(frame: np.ndarray, n_fft: int) -> np.ndarray:
    """|DFT|^2 by direct summation of the definition."""
    x = np.zeros(n_fft)
    x[:len(frame)] = frame
    cos_m, sin_m = _dft_power_matrix(n_fft)
    return (cos_m @ x) ** 2 + (sin_m @ x) ** 2


def power_spectrum(frame, n_fft: int) -> np.ndarray:
    """|DFT|^2 of a frame zero-padded to n_fft, bins 0 .. n_fft/2, by FFT."""
    f = np.asarray(frame, dtype=np.float64)
    if f.ndim != 1 or f.size > n_fft:
        raise ValueError(f"frame of length {f.shape} does not fit n_fft={n_fft}")
    spec = np.fft.rfft(f, n=n_fft)
    return spec.real ** 2 + spec.imag ** 2


def _mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def _mel_inv(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


def _filterbank(n_filters, n_fft, sample_rate, fmin, fmax):
    points = _mel_inv(np.linspace(_mel(fmin), _mel(fmax), n_filters + 2))
    bins = [int(round(p * n_fft / sample_rate)) for p in points]
    fb = np.zeros((n_filters, n_fft // 2 + 1))
    for m in range(n_filters):
        b0, b1, b2 = bins[m], bins[m + 1], bins[m + 2]
        for k in range(b0, b2 + 1):
            if k == b1:
                fb[m, k] = 1.0
            elif b0 < k < b1:
                fb[m, k] = (k - b0) / (b1 - b0)
            elif b1 < k < b2:
                fb[m, k] = (b2 - k) / (b2 - b1)
    return fb


def _dct_ii(n_out, n_in):
    d = np.zeros((n_out, n_in))
    for k in range(n_out):
        scale = np.sqrt(1.0 / n_in) if k == 0 else np.sqrt(2.0 / n_in)
        for n in range(n_in):
            d[k, n] = scale * np.cos(np.pi * (2 * n + 1) * k / (2 * n_in))
    return d


def reference_mfcc(samples, sample_rate, cfg) -> np.ndarray:
    """Full chain with the naive DFT; cfg is the shared parameter block."""
    x = np.asarray(samples, dtype=float)
    n_target = int(round(cfg.clip_seconds * sample_rate))
    if len(x) >= n_target:
        x = x[:n_target]
    else:
        x = np.concatenate([x, np.zeros(n_target - len(x))])

    y = np.concatenate([[x[0]], x[1:] - cfg.pre_emphasis * x[:-1]])

    pad = cfg.frame_length // 2
    padded = _mirror_pad(y, pad)
    n_frames = 1 + len(y) // cfg.hop_length
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(cfg.frame_length)
                                  / (cfg.frame_length - 1))
    cos_m, sin_m = _dft_power_matrix(cfg.n_fft)
    fmax = sample_rate / 2 if cfg.fmax is None else cfg.fmax
    fb = _filterbank(cfg.n_mel_filters, cfg.n_fft, sample_rate, cfg.fmin, fmax)
    dct = _dct_ii(cfg.n_coefficients, cfg.n_mel_filters)

    frames = np.zeros((n_frames, cfg.n_fft))
    for i in range(n_frames):
        seg = padded[i * cfg.hop_length:i * cfg.hop_length + cfg.frame_length] * window
        frames[i, :cfg.frame_length] = seg
    power = (frames @ cos_m.T) ** 2 + (frames @ sin_m.T) ** 2
    mel_energy = power @ fb.T
    logs = np.log(np.maximum(mel_energy, cfg.log_floor))
    coeffs = dct @ logs.T

    if coeffs.shape[1] >= cfg.target_frames:
        return coeffs[:, :cfg.target_frames]
    out = np.zeros((cfg.n_coefficients, cfg.target_frames))
    out[:, :coeffs.shape[1]] = coeffs
    return out
