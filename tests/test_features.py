import numpy as np
import pytest

from lungsound import features
from lungsound.audio_io import AudioClip
from lungsound.errors import DegenerateFilter, SignalTooShort
from lungsound.features import (MfccConfig, dct_matrix, extract_mfcc, frame_and_window,
                                hz_to_mel, mel_filterbank, pad_or_truncate, pre_emphasize)
from reference_mfcc import naive_power_spectrum, power_spectrum, reference_mfcc

# fast config for oracle comparisons on 1 s clips
FAST = MfccConfig(clip_seconds=1.0, target_frames=44)


def test_pre_emphasis_zero_signal():
    assert np.array_equal(pre_emphasize(np.zeros(100), 0.97), np.zeros(100))


def test_pre_emphasis_constant():
    out = pre_emphasize(np.full(5, 2.0), 0.97)
    assert np.allclose(out, [2.0, 0.06, 0.06, 0.06, 0.06])


def test_pre_emphasis_identity_at_zero_coeff(rng):
    x = rng.normal(size=64)
    assert np.array_equal(pre_emphasize(x, 0.0), x)


def test_pre_emphasis_bad_coeff():
    with pytest.raises(ValueError):
        pre_emphasize(np.zeros(4), 1.0)


def test_frame_count_20s_clip():
    cfg = MfccConfig()
    frames = frame_and_window(np.random.default_rng(0).normal(size=441000), cfg)
    assert frames.shape == (862, 2048)


@pytest.mark.parametrize("frame_length", [2047, 2048])
def test_frame_count_when_hop_divides_length(frame_length):
    cfg = MfccConfig(frame_length=frame_length)
    assert frame_and_window(np.ones(2 * cfg.hop_length), cfg).shape == (3, frame_length)


def test_frames_of_ones_equal_window():
    cfg = MfccConfig()
    n = cfg.hop_length * 4
    frames = frame_and_window(np.ones(n), cfg)
    window = features.hamming_window(cfg.frame_length)
    # interior frames see all-ones input, so each equals the window itself
    assert np.allclose(frames[2], window)


def test_hamming_endpoints():
    for n in (16, 400, 2048):
        w = features.hamming_window(n)
        assert abs(w[0] - 0.08) < 1e-12
        assert abs(w[-1] - 0.08) < 1e-12


def test_signal_too_short():
    with pytest.raises(SignalTooShort):
        frame_and_window(np.ones(1), MfccConfig())


def test_power_spectrum_zero_frame():
    assert np.array_equal(power_spectrum(np.zeros(256), 256), np.zeros(129))


def test_power_spectrum_exact_bin_cosine():
    n_fft, k0 = 256, 19
    x = np.cos(2 * np.pi * k0 * np.arange(n_fft) / n_fft)
    spec = power_spectrum(x, n_fft)
    assert abs(spec[k0] - (n_fft / 2) ** 2) < 1e-6
    others = np.delete(spec, k0)
    assert others.max() < 1e-12


def test_power_spectrum_matches_naive_dft(rng):
    for n in (64, 200, 256):
        frame = rng.normal(size=n)
        fast = power_spectrum(frame, 256)
        naive = naive_power_spectrum(frame, 256)
        denom = max(1.0, naive.max())
        assert np.max(np.abs(fast - naive)) / denom < 1e-6


def test_parseval(rng):
    n_fft = 512
    for _ in range(10):
        x = rng.normal(size=n_fft)
        spec = power_spectrum(x, n_fft)
        lhs = np.sum(x ** 2)
        rhs = (spec[0] + 2 * spec[1:-1].sum() + spec[-1]) / n_fft
        assert abs(lhs - rhs) / abs(lhs) < 1e-6


def test_mel_formula_values():
    assert hz_to_mel(0.0) == 0.0
    assert abs(hz_to_mel(700.0) - 781.1728) < 1e-3  # 2595 * log10(2)


def test_filterbank_rows(rng):
    cfg = MfccConfig()
    fb = mel_filterbank(cfg)
    assert fb.shape == (128, 1025)
    assert (fb >= 0).all()
    assert np.allclose(fb.max(axis=1), 1.0)
    for m in (0, 40, 127):
        row = fb[m]
        support = np.flatnonzero(row)
        # unimodal: rises to the peak then falls, zero outside the triangle
        peak = row.argmax()
        assert (np.diff(row[support[0]:peak + 1]) >= 0).all()
        assert (np.diff(row[peak:support[-1] + 1]) <= 0).all()


def test_degenerate_filter_reported():
    cfg = MfccConfig(n_mel_filters=600, n_coefficients=40, n_fft=512, frame_length=512,
                     hop_length=128)
    with pytest.raises(DegenerateFilter):
        mel_filterbank(cfg)


def test_dct_orthonormal():
    d = dct_matrix(40, 128)
    assert np.max(np.abs(d @ d.T - np.eye(40))) < 1e-10


def test_pad_or_truncate():
    mat = np.arange(40 * 900, dtype=float).reshape(40, 900)
    assert np.array_equal(pad_or_truncate(mat, 900), mat)
    assert np.array_equal(pad_or_truncate(mat, 862), mat[:, :862])
    padded = pad_or_truncate(mat[:, :100], 862)
    assert padded.shape == (40, 862)
    assert np.array_equal(padded[:, 100:], np.zeros((40, 762)))


def test_extract_shape_and_finite(rng):
    clip = AudioClip(rng.uniform(-0.5, 0.5, 441000), 22050)
    out = extract_mfcc(clip, MfccConfig())
    assert out.shape == (40, 862)
    assert np.isfinite(out).all()


def test_extract_short_clip_pads_to_shape(rng):
    clip = AudioClip(rng.uniform(-0.5, 0.5, 22050), 22050)
    out = extract_mfcc(clip, MfccConfig())
    assert out.shape == (40, 862)


def test_silence_gives_constant_columns():
    out = extract_mfcc(AudioClip(np.zeros(22050), 22050), FAST)
    assert np.allclose(out.var(axis=1), 0.0)


def test_oracle_equivalence_sinusoid():
    t = np.arange(22050) / 22050
    clip = AudioClip(0.5 * np.sin(2 * np.pi * 440 * t), 22050)
    fast = extract_mfcc(clip, FAST)
    ref = reference_mfcc(clip.samples, clip.sample_rate, FAST)
    assert np.max(np.abs(fast - ref)) < 1e-5


def test_oracle_equivalence_production_config(rng):
    clip = AudioClip(rng.uniform(-0.8, 0.8, 3 * 22050), 22050)
    cfg = MfccConfig()
    fast = extract_mfcc(clip, cfg)
    ref = reference_mfcc(clip.samples, clip.sample_rate, cfg)
    assert fast.shape == ref.shape == (40, 862)
    assert np.max(np.abs(fast - ref)) < 1e-5


def test_amplitude_monotonicity(rng):
    samples = rng.uniform(-0.4, 0.4, 22050)
    base = extract_mfcc(AudioClip(samples, 22050), FAST)
    loud = extract_mfcc(AudioClip(2.0 * samples, 22050), FAST)
    assert (loud[0] > base[0]).all()
    assert np.allclose(loud[1:], base[1:], atol=1e-6)  # higher rows capture shape, not gain


def _whole_window_chain(samples, cfg):
    """The chain written out over every frame of the zero-padded window, with
    matrices built afresh."""
    n_target = int(round(cfg.clip_seconds * cfg.sample_rate))
    x = np.pad(samples[:n_target], (0, max(0, n_target - len(samples))))
    frames = frame_and_window(pre_emphasize(x, cfg.pre_emphasis), cfg)
    spec = np.fft.rfft(frames, n=cfg.n_fft, axis=1)
    mel = (spec.real ** 2 + spec.imag ** 2) @ mel_filterbank(cfg).T
    coeffs = dct_matrix(cfg.n_coefficients, cfg.n_mel_filters) \
        @ np.log(np.maximum(mel, cfg.log_floor)).T
    return pad_or_truncate(coeffs, cfg.target_frames)


def test_mfcc_matrices_built_once_and_read_only(monkeypatch, rng):
    cfg = MfccConfig(clip_seconds=1.0, target_frames=44, pre_emphasis=0.95)  # not yet cached
    built = []
    monkeypatch.setattr(features, "mel_filterbank",
                        lambda c: built.append(c) or mel_filterbank(c))
    clips = [AudioClip(rng.uniform(-0.5, 0.5, 22050), 22050) for _ in range(3)]
    outs = [extract_mfcc(clip, cfg) for clip in clips]
    assert built == [cfg]
    for clip, out in zip(clips, outs):
        assert np.array_equal(out, _whole_window_chain(clip.samples, cfg))
    for arr in features.mfcc_matrices(cfg):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


@pytest.mark.parametrize("frame_length, hop_length", [(2047, 512), (1500, 490), (2048, 2048)],
                         ids=["odd-frame", "hop-not-dividing-frame", "hop-equal-to-frame"])
def test_short_clip_equals_whole_window_chain(rng, frame_length, hop_length):
    """Clips shorter than the window are framed only as far as their signal
    reaches; the grid still equals the chain over every frame, bit for bit.

    The lengths sit on both sides of the one where the reflected right edge
    reads signal (490 divides the 2 s window, so its last frame reaches the
    reflection's far end), around the left reflection's reach, and where the
    last live frame ends one sample short of the samples framed."""
    cfg = MfccConfig(clip_seconds=2.0, target_frames=92, frame_length=frame_length,
                     hop_length=hop_length)
    half = frame_length // 2
    edge = 44100 - 1 - (frame_length - half)
    for n in (2, 300, half - 2, half - 1, half, half + 1, hop_length + 1,
              6 * hop_length - 1 - half, 22050, edge - 1, edge, edge + 1, 44100, 50000):
        samples = rng.uniform(-0.5, 0.5, n)
        assert np.array_equal(extract_mfcc(AudioClip(samples, 22050), cfg),
                              _whole_window_chain(samples, cfg)), n


@pytest.mark.parametrize("live, n", [(3, 2), (7, 2100), (8, 2600), (9, 3100), (89, 44100)])
def test_live_frame_mel_product_matches_whole_grid_at_production_config(rng, live, n):
    """The mel product runs over the live frames only, but over at least the
    rows that lift it past SMALL_GEMM_MADDS (8 at this geometry), so the grid
    equals the chain over every frame byte for byte on both sides of that
    floor. Two samples already reach three frames, the fewest a clip can
    have here; 44100 samples is a 2 s recording."""
    cfg = MfccConfig()
    fb, _ = features.mfcc_matrices(cfg)
    assert features.SMALL_GEMM_MADDS // fb.size + 1 == 8
    samples = rng.uniform(-0.5, 0.5, n)
    padded = np.pad(samples, (0, 441000 - n))
    frames = frame_and_window(pre_emphasize(padded, cfg.pre_emphasis), cfg)
    assert np.count_nonzero(frames.any(axis=1)) == live
    assert extract_mfcc(AudioClip(samples, 22050), cfg).tobytes() \
        == _whole_window_chain(samples, cfg).tobytes()


def test_extract_refuses_clip_at_another_rate():
    with pytest.raises(ValueError, match="44100 Hz.*22050 Hz"):
        extract_mfcc(AudioClip(np.zeros(44100), 44100), FAST)


def test_config_validation():
    with pytest.raises(ValueError):
        MfccConfig(pre_emphasis=1.5)
    with pytest.raises(ValueError):
        MfccConfig(hop_length=4096)
    with pytest.raises(ValueError):
        MfccConfig(n_coefficients=200)
    with pytest.raises(ValueError):
        MfccConfig(fmin=12000.0)


def test_config_hash_changes_with_fields():
    assert MfccConfig().hash_bytes() != MfccConfig(hop_length=256).hash_bytes()
    assert len(MfccConfig().hash_bytes()) == 32
