import numpy as np
import pytest

from lungsound import nn, ssl
from lungsound.errors import DegenerateInput
from lungsound.rng import substream

import nn_oracle as oracle

TINY = nn.CnnSpec(channels=(2, 3))  # on 8x16 inputs
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
                              LR, nn.Workspace(len(xs)))
    nn.weighted_gradient_step(p2, nn.AdamState.for_params(p2),
                              [(1.0, xs, ys, "cross_entropy")], substream(*dropout), LR,
                              nn.Workspace(len(xs)))
    assert all(np.array_equal(a, b) for a, b in zip(p1.arrays(), p2.arrays()))


# -- augmentation ----------------------------------------------------------

def test_augment_degenerate_is_identity(rng, monkeypatch):
    monkeypatch.setattr(ssl, "AUGMENT_NOISE_SCALE", 0.0)
    monkeypatch.setattr(ssl, "AUGMENT_MAX_MASK_FRAMES", 0)
    x = rng.normal(size=(40, 100)).astype(np.float32)
    out = ssl.augment(x, substream(0, "augment"))
    assert out is x


def test_augment_preserves_shape_and_differs(rng):
    x = rng.normal(size=(40, 862)).astype(np.float32)
    a = ssl.augment(x, substream(0, "augment", 0))
    b = ssl.augment(x, substream(0, "augment", 1))
    assert a.shape == x.shape == b.shape
    assert a.dtype == x.dtype
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, x)


def test_augment_mask_width_bounded(rng, monkeypatch):
    monkeypatch.setattr(ssl, "AUGMENT_NOISE_SCALE", 0.0)
    monkeypatch.setattr(ssl, "AUGMENT_MAX_MASK_FRAMES", 40)
    x = rng.normal(size=(40, 50)).astype(np.float32)
    out = ssl.augment(x, substream(1, "augment"))
    masked_cols = np.flatnonzero(np.all(out == out[0, :], axis=0) & np.isclose(out[0, :], x.mean()))
    assert 1 <= len(masked_cols) <= 40


# -- sharpening ------------------------------------------------------------

def sharpened_at(monkeypatch, p, temperature):
    monkeypatch.setattr(ssl, "TEMPERATURE", temperature)
    return ssl.sharpen(p)


def test_sharpen_identity_at_one(rng, monkeypatch):
    monkeypatch.setattr(ssl, "TEMPERATURE", 1.0)
    p = random_soft_labels(rng, 1)[0]
    assert np.array_equal(ssl.sharpen(p), p)


def test_sharpen_one_hot_fixed_point(monkeypatch):
    p = np.eye(6)[3]
    for t in (0.25, 0.5, 2.0):
        assert np.allclose(sharpened_at(monkeypatch, p, t), p)


def test_sharpen_known_value(monkeypatch):
    monkeypatch.setattr(ssl, "TEMPERATURE", 0.5)
    p = np.array([0.6, 0.4, 0.0, 0.0, 0.0, 0.0])
    out = ssl.sharpen(p)
    # squares renormalized: 0.36 / 0.52 and 0.16 / 0.52
    assert np.allclose(out[:2], [0.36 / 0.52, 0.16 / 0.52])
    assert np.allclose(out[2:], 0.0)
    assert abs(out[0] - 0.6923) < 1e-4


def test_sharpen_entropy_direction(rng, monkeypatch):
    for p in random_soft_labels(rng, 50):
        h = entropy(p)
        assert entropy(sharpened_at(monkeypatch, p, 0.5)) < h
        assert entropy(sharpened_at(monkeypatch, p, 2.0)) > h
    uniform = np.full(6, 1 / 6)
    assert abs(entropy(sharpened_at(monkeypatch, uniform, 0.5)) - entropy(uniform)) < 1e-12


def test_sharpen_rejects_degenerate():
    with pytest.raises(DegenerateInput):
        ssl.sharpen(np.zeros(6))


# -- label guessing ----------------------------------------------------------

def test_guess_label_degenerates_to_forward(rng, monkeypatch):
    monkeypatch.setattr(ssl, "N_AUGMENTATIONS", 1)
    monkeypatch.setattr(ssl, "TEMPERATURE", 1.0)
    params = tiny_params()
    u = rng.normal(size=(3, 8, 16)).astype(np.float32)
    guess = ssl.guess_labels(params, u, nn.Workspace(len(u)))
    direct, _ = nn.forward_batch(params, u)
    assert np.allclose(guess, direct, atol=1e-12)


def test_guess_label_is_soft_label_and_sharper(rng, monkeypatch):
    monkeypatch.setattr(ssl, "N_AUGMENTATIONS", 2)
    monkeypatch.setattr(ssl, "TEMPERATURE", 0.5)
    params = tiny_params()
    u = rng.normal(size=(8, 16)).astype(np.float32)
    arng = substream(1, "augment")
    copies = np.stack([ssl.augment(u, arng) for _ in range(2)])
    mean_pred, _ = nn.forward_batch(params, copies)
    mean_pred = mean_pred.mean(axis=0)
    guess = ssl.guess_labels(params, copies, nn.Workspace(len(copies)))
    assert guess.shape == (1, 6)
    assert oracle.is_soft_label(guess[0])
    assert entropy(guess[0]) <= entropy(mean_pred) + 1e-12


# -- mixup -------------------------------------------------------------------

def test_mixup_forced_endpoints(rng):
    x1, x2 = rng.normal(size=(2, 4, 5))
    y1, y2 = random_soft_labels(rng, 2)
    mx, my = ssl.mixup(x1, y1, x2, y2, oracle.FixedBeta(1.0))
    assert np.array_equal(mx, x1) and np.array_equal(my, y1)
    mx, my = ssl.mixup(x1, y1, x2, y2, oracle.FixedBeta(0.5))
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
    bl, bu = 5, 5
    xs, ys, us = batches(rng, bl, bu)
    terms = ssl.mixmatch(params, xs, ys, us, 0.7, substream(0, "augment"),
                         substream(0, "mixup"), nn.Workspace(ssl.N_AUGMENTATIONS * bu))
    assert [(w, kind) for w, _, _, kind in terms] == [(1.0, "cross_entropy"),
                                                      (0.7, "squared_error")]
    (_, x_in, x_tgt, _), (_, u_in, u_tgt, _) = terms
    assert x_in.shape == (bl, 8, 16) and x_tgt.shape == (bl, 6)
    assert u_in.shape == (ssl.N_AUGMENTATIONS * bu, 8, 16)
    assert u_tgt.shape == (ssl.N_AUGMENTATIONS * bu, 6)
    for target in list(x_tgt) + list(u_tgt):
        assert oracle.is_soft_label(target)


def test_mixmatch_degenerates_to_labeled_batch(rng, neutralize):
    params = tiny_params(dtype=np.float32)
    xs = rng.normal(size=(4, 8, 16)).astype(np.float32)
    ys = np.eye(6, dtype=np.float32)[[0, 2, 4, 5]]
    us = rng.normal(size=(4, 8, 16)).astype(np.float32)
    (_, x_in, x_tgt, _), _ = ssl.mixmatch(params, xs, ys, us, 0.0, substream(0, "augment"),
                                          substream(0, "mixup"), nn.Workspace(len(us)))
    for i in range(4):
        assert np.array_equal(x_in[i], xs[i])
        assert np.array_equal(x_tgt[i], ys[i].astype(np.float64))


def test_mixmatch_loss_components(rng):
    params = tiny_params(dtype=np.float32)
    xs = rng.normal(size=(4, 8, 16)).astype(np.float32)
    ys = np.eye(6, dtype=np.float32)[[1, 2, 3, 4]]
    us = rng.normal(size=(4, 8, 16)).astype(np.float32)
    x_batch, u_batch = [(x_in, targets) for _, x_in, targets, _ in ssl.mixmatch(
        params, xs, ys, us, 1.0, substream(1, "augment"), substream(1, "mixup"),
        nn.Workspace(ssl.N_AUGMENTATIONS * len(us)))]
    empty = (u_batch[0][:0], u_batch[1][:0])
    total_no_u, sup, unsup = oracle.mixmatch_loss(params, x_batch, empty, 1.0)
    assert unsup == 0.0 and total_no_u == sup
    total_zero_w, sup2, _ = oracle.mixmatch_loss(params, x_batch, u_batch, 0.0)
    assert total_zero_w == sup2 == sup
    total, _, unsup = oracle.mixmatch_loss(params, x_batch, u_batch, 0.7)
    assert total == pytest.approx(sup + 0.7 * unsup)
    assert unsup > 0


# -- co-refinement -----------------------------------------------------------

def test_co_refinement_zero_weight_is_supervised(rng, monkeypatch):
    monkeypatch.setattr(ssl, "REFINEMENT_WEIGHT", 0.0)
    xs, ys, us = batches(rng, 6, 6)
    assert_step_is_supervised(
        lambda p: ssl.co_refinement_step(p, xs, ys, us, nn.Workspace(len(us))), xs, ys,
        (0, "dropout", 0, 1, 0))


def test_co_refinement_losses_finite(rng, monkeypatch):
    monkeypatch.setattr(ssl, "REFINEMENT_WEIGHT", 0.5)
    params = tiny_params(dtype=np.float32)
    state = nn.AdamState.for_params(params)
    xs, ys, us = batches(rng, 6, 6)
    terms = ssl.co_refinement_step(params, xs, ys, us, nn.Workspace(len(us)))
    lab, unlab = nn.weighted_gradient_step(params, state, terms,
                                           substream(1, "dropout", 0, 1, 0), LR,
                                           nn.Workspace(len(xs)))
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

def test_refurbish_targets_known_value(monkeypatch):
    monkeypatch.setattr(ssl, "REFURBISH_WEIGHT", 0.7)
    y = np.eye(6)[2]
    uniform = np.full(6, 1 / 6)
    out = ssl.refurbish_targets(y, uniform)
    assert np.allclose(out, [0.05, 0.05, 0.75, 0.05, 0.05, 0.05])


def test_refurbish_targets_are_soft_labels(rng, monkeypatch):
    for _ in range(20):
        y = np.eye(6)[rng.integers(0, 6)]
        p = random_soft_labels(rng, 1)[0]
        monkeypatch.setattr(ssl, "REFURBISH_WEIGHT", float(rng.random()))
        assert oracle.is_soft_label(ssl.refurbish_targets(y, p))


def test_co_refurbishing_neutral_is_supervised(rng, monkeypatch):
    monkeypatch.setattr(ssl, "REFURBISH_WEIGHT", 1.0)
    monkeypatch.setattr(ssl, "REFURBISH_FRACTION", 1.0)
    xs, ys, us = batches(rng, 6, 6)
    assert_step_is_supervised(
        lambda p: ssl.co_refurbishing_step(p, xs, ys, us, substream(0, "refurbish", 0, 0),
                                           nn.Workspace(len(xs))),
        xs, ys, (0, "dropout", 0, 2, 0))


def test_co_refurbishing_blends_subset(rng, monkeypatch):
    monkeypatch.setattr(ssl, "REFURBISH_WEIGHT", 0.7)
    monkeypatch.setattr(ssl, "REFURBISH_FRACTION", 0.3)
    params = tiny_params(dtype=np.float32)
    state = nn.AdamState.for_params(params)
    xs, ys, us = batches(rng, 8, 4)
    terms = ssl.co_refurbishing_step(params, xs, ys, us, substream(4, "refurbish", 0, 0),
                                     nn.Workspace(len(xs)))
    lab, unlab = nn.weighted_gradient_step(params, state, terms,
                                           substream(4, "dropout", 0, 2, 0), LR,
                                           nn.Workspace(len(xs)))
    assert np.isfinite(lab) and np.isfinite(unlab) and unlab > 0

