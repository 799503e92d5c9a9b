import numpy as np
import pytest

from lungsound import nn, ssl
from lungsound.errors import DegenerateInput
from lungsound.rng import substream

import nn_oracle as oracle

TINY = nn.CnnSpec(input_shape=(8, 16), channels=(2, 3))
CFG = ssl.SslConfig()
LR = 1e-3


def entropy(p):
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def tiny_params(seed=0, dtype=np.float64):
    return nn.init_params(substream(seed, "init"), TINY, dtype=dtype)


def random_soft_labels(rng, n):
    p = rng.random((n, 6)) + 1e-3
    return p / p.sum(axis=1, keepdims=True)


def batches(rng, n_lab, n_unlab):
    """A labeled batch with one-hot targets and an unlabeled batch of TINY inputs."""
    xs = rng.normal(size=(n_lab, 8, 16)).astype(np.float32)
    ys = np.eye(6, dtype=np.float32)[rng.integers(0, 6, n_lab)]
    return xs, ys, rng.normal(size=(n_unlab, 8, 16)).astype(np.float32)


def assert_step_is_supervised(terms_of, xs, ys, dropout):
    """A step on the terms `terms_of(params)` builds moves the parameters
    exactly as a plain cross-entropy step on (xs, ys) does."""
    p1, p2 = tiny_params(dtype=np.float32), tiny_params(dtype=np.float32)
    nn.weighted_gradient_step(p1, nn.AdamState.for_params(p1), terms_of(p1), substream(*dropout),
                              LR)
    nn.weighted_gradient_step(p2, nn.AdamState.for_params(p2),
                              [(1.0, xs, ys, "cross_entropy")], substream(*dropout), LR)
    assert all(np.array_equal(a, b) for a, b in zip(p1.arrays(), p2.arrays()))


# -- augmentation ----------------------------------------------------------

def test_augment_degenerate_is_identity(rng):
    x = rng.normal(size=(40, 100)).astype(np.float32)
    out = ssl.augment(x, substream(0, "augment"), noise_scale=0.0, max_mask_frames=0)
    assert out is x


def test_augment_preserves_shape_and_differs(rng):
    x = rng.normal(size=(40, 862)).astype(np.float32)
    a = ssl.augment(x, substream(0, "augment", 0), CFG.augment_noise_scale,
                    CFG.augment_max_mask_frames)
    b = ssl.augment(x, substream(0, "augment", 1), CFG.augment_noise_scale,
                    CFG.augment_max_mask_frames)
    assert a.shape == x.shape == b.shape
    assert a.dtype == x.dtype
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, x)


def test_augment_mask_width_bounded(rng):
    x = rng.normal(size=(40, 50)).astype(np.float32)
    out = ssl.augment(x, substream(1, "augment"), noise_scale=0.0, max_mask_frames=40)
    masked_cols = np.flatnonzero(np.all(out == out[0, :], axis=0) & np.isclose(out[0, :], x.mean()))
    assert 1 <= len(masked_cols) <= 40


# -- sharpening ------------------------------------------------------------

def test_sharpen_identity_at_one(rng):
    p = random_soft_labels(rng, 1)[0]
    assert np.array_equal(ssl.sharpen(p, 1.0), p)


def test_sharpen_one_hot_fixed_point():
    p = np.eye(6)[3]
    for t in (0.25, 0.5, 2.0):
        assert np.allclose(ssl.sharpen(p, t), p)


def test_sharpen_known_value():
    p = np.array([0.6, 0.4, 0.0, 0.0, 0.0, 0.0])
    out = ssl.sharpen(p, 0.5)
    # squares renormalized: 0.36 / 0.52 and 0.16 / 0.52
    assert np.allclose(out[:2], [0.36 / 0.52, 0.16 / 0.52])
    assert np.allclose(out[2:], 0.0)
    assert abs(out[0] - 0.6923) < 1e-4


def test_sharpen_entropy_direction(rng):
    for p in random_soft_labels(rng, 50):
        h = entropy(p)
        assert entropy(ssl.sharpen(p, 0.5)) < h
        assert entropy(ssl.sharpen(p, 2.0)) > h
    uniform = np.full(6, 1 / 6)
    assert abs(entropy(ssl.sharpen(uniform, 0.5)) - entropy(uniform)) < 1e-12


def test_sharpen_rejects_degenerate():
    with pytest.raises(DegenerateInput):
        ssl.sharpen(np.zeros(6), 0.5)
    with pytest.raises(ValueError):
        ssl.sharpen(np.full(6, 1 / 6), 0.0)


# -- label guessing ----------------------------------------------------------

def test_guess_label_degenerates_to_forward(rng):
    params = tiny_params()
    u = rng.normal(size=(3, 8, 16)).astype(np.float32)
    guess = ssl.guess_labels(params, u, k=1, temperature=1.0)
    direct, _ = nn.forward_batch(params, u)
    assert np.allclose(guess, direct, atol=1e-12)


def test_guess_label_is_soft_label_and_sharper(rng):
    params = tiny_params()
    u = rng.normal(size=(8, 16)).astype(np.float32)
    arng = substream(1, "augment")
    copies = np.stack([ssl.augment(u, arng, CFG.augment_noise_scale,
                                   CFG.augment_max_mask_frames) for _ in range(2)])
    mean_pred, _ = nn.forward_batch(params, copies)
    mean_pred = mean_pred.mean(axis=0)
    guess = ssl.guess_labels(params, copies, k=2, temperature=0.5)
    assert guess.shape == (1, 6)
    assert oracle.is_soft_label(guess[0])
    assert entropy(guess[0]) <= entropy(mean_pred) + 1e-12


# -- mixup -------------------------------------------------------------------

def test_mixup_forced_endpoints(rng):
    x1, x2 = rng.normal(size=(2, 4, 5))
    y1, y2 = random_soft_labels(rng, 2)
    mx, my = ssl.mixup(x1, y1, x2, y2, substream(0, "mixup"), fixed_lambda=1.0)
    assert np.array_equal(mx, x1) and np.array_equal(my, y1)
    mx, my = ssl.mixup(x1, y1, x2, y2, substream(0, "mixup"), fixed_lambda=0.5)
    assert np.allclose(mx, (x1 + x2) / 2)
    assert np.allclose(my, (y1 + y2) / 2)


def test_mixup_lambda_distribution(rng):
    x1 = np.zeros((1, 1))
    x2 = np.ones((1, 1))
    y1, y2 = random_soft_labels(rng, 2)
    mrng = substream(5, "mixup")
    for _ in range(10000):
        mx, my = ssl.mixup(x1, y1, x2, y2, mrng)
        lam = 1.0 - float(mx[0, 0])  # weight on the first argument
        assert 0.5 <= lam <= 1.0
        assert oracle.is_soft_label(my)


# -- mixmatch ----------------------------------------------------------------

def test_mixmatch_counts_and_targets(rng):
    params = tiny_params(dtype=np.float32)
    cfg = ssl.SslConfig()
    bl, bu = 5, 5
    xs, ys, us = batches(rng, bl, bu)
    (x_in, x_tgt), (u_in, u_tgt) = ssl.mixmatch(xs, ys, us, params, cfg,
                                                substream(0, "augment"), substream(0, "mixup"))
    assert x_in.shape == (bl, 8, 16) and x_tgt.shape == (bl, 6)
    assert u_in.shape == (cfg.n_augmentations * bu, 8, 16)
    assert u_tgt.shape == (cfg.n_augmentations * bu, 6)
    for target in list(x_tgt) + list(u_tgt):
        assert oracle.is_soft_label(target)


def test_mixmatch_degenerates_to_labeled_batch(rng):
    params = tiny_params(dtype=np.float32)
    cfg = oracle.neutralized()
    xs = rng.normal(size=(4, 8, 16)).astype(np.float32)
    ys = np.eye(6, dtype=np.float32)[[0, 2, 4, 5]]
    us = rng.normal(size=(4, 8, 16)).astype(np.float32)
    (x_in, x_tgt), _ = ssl.mixmatch(xs, ys, us, params, cfg,
                                    substream(0, "augment"), substream(0, "mixup"))
    for i in range(4):
        assert np.array_equal(x_in[i], xs[i])
        assert np.array_equal(x_tgt[i], ys[i].astype(np.float64))


def test_mixmatch_loss_components(rng):
    params = tiny_params(dtype=np.float32)
    cfg = ssl.SslConfig()
    xs = rng.normal(size=(4, 8, 16)).astype(np.float32)
    ys = np.eye(6, dtype=np.float32)[[1, 2, 3, 4]]
    us = rng.normal(size=(4, 8, 16)).astype(np.float32)
    x_batch, u_batch = ssl.mixmatch(xs, ys, us, params, cfg,
                                    substream(1, "augment"), substream(1, "mixup"))
    empty = (u_batch[0][:0], u_batch[1][:0])
    total_no_u, sup, unsup = oracle.mixmatch_loss(params, x_batch, empty, 1.0)
    assert unsup == 0.0 and total_no_u == sup
    total_zero_w, sup2, _ = oracle.mixmatch_loss(params, x_batch, u_batch, 0.0)
    assert total_zero_w == sup2 == sup
    total, _, unsup = oracle.mixmatch_loss(params, x_batch, u_batch, 0.7)
    assert total == pytest.approx(sup + 0.7 * unsup)
    assert unsup > 0


# -- co-refinement -----------------------------------------------------------

def test_co_refinement_zero_weight_is_supervised(rng):
    xs, ys, us = batches(rng, 6, 6)
    assert_step_is_supervised(lambda p: ssl.co_refinement_step(p, xs, ys, us, 0.0), xs, ys,
                              (0, "dropout", 0, 1, 0))


def test_co_refinement_losses_finite(rng):
    params = tiny_params(dtype=np.float32)
    state = nn.AdamState.for_params(params)
    xs, ys, us = batches(rng, 6, 6)
    terms = ssl.co_refinement_step(params, xs, ys, us, 0.5)
    lab, unlab = nn.weighted_gradient_step(params, state, terms,
                                           substream(1, "dropout", 0, 1, 0), LR)
    assert np.isfinite(lab) and np.isfinite(unlab)
    assert lab >= 0 and unlab >= 0


def test_self_distillation_gradient_matches_finite_difference(rng):
    # gradient of CE(model, stop-grad(soft predictions)) with the targets held
    # fixed. They come from other parameters: at the model's own predictions
    # the gradient is zero by construction and the check would compare zeros.
    params = tiny_params(seed=3)
    eps = 1e-5
    for _ in range(64):  # a probe point with every stage live and clear of kinks
        xs = rng.normal(0.0, 0.5, size=(2, 8, 16))
        if oracle.clear_probe(params, xs, eps):
            break
    else:
        pytest.fail("no live, kink-free probe point")
    targets, _ = nn.forward_batch(tiny_params(seed=4), xs, training=False, keep_trace=False)
    max_rel, _, grads = oracle.finite_difference_error(params, xs, targets, "cross_entropy",
                                                       eps, floor=1e-4)
    assert all(float(np.abs(g).max()) > 0.1 for g in grads.conv_kernels)  # every stage learns
    assert max_rel < 1e-4


# -- co-refurbishing ---------------------------------------------------------

def test_refurbish_targets_known_value():
    y = np.eye(6)[2]
    uniform = np.full(6, 1 / 6)
    out = ssl.refurbish_targets(y, uniform, 0.7)
    assert np.allclose(out, [0.05, 0.05, 0.75, 0.05, 0.05, 0.05])


def test_refurbish_targets_are_soft_labels(rng):
    for _ in range(20):
        y = np.eye(6)[rng.integers(0, 6)]
        p = random_soft_labels(rng, 1)[0]
        w = float(rng.random())
        assert oracle.is_soft_label(ssl.refurbish_targets(y, p, w))


def test_co_refurbishing_neutral_is_supervised(rng):
    xs, ys, us = batches(rng, 6, 6)
    assert_step_is_supervised(
        lambda p: ssl.co_refurbishing_step(p, xs, ys, us, weight=1.0, fraction=1.0,
                                           rng=substream(0, "refurbish", 0, 0)),
        xs, ys, (0, "dropout", 0, 2, 0))


def test_co_refurbishing_blends_subset(rng):
    params = tiny_params(dtype=np.float32)
    state = nn.AdamState.for_params(params)
    xs, ys, us = batches(rng, 8, 4)
    terms = ssl.co_refurbishing_step(params, xs, ys, us, weight=0.7, fraction=0.3,
                                     rng=substream(4, "refurbish", 0, 0))
    lab, unlab = nn.weighted_gradient_step(params, state, terms,
                                           substream(4, "dropout", 0, 2, 0), LR)
    assert np.isfinite(lab) and np.isfinite(unlab) and unlab > 0


def test_ssl_config_validation():
    with pytest.raises(ValueError):
        ssl.SslConfig(temperature=0.0)
    with pytest.raises(ValueError):
        ssl.SslConfig(refurbish_weight=1.5)
    neutral = oracle.neutralized()
    assert neutral.unlabeled_loss_weight == 0.0
    assert neutral.fixed_lambda == 1.0
