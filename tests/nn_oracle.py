"""Unfused reference layers for the CNN in lungsound.nn.

The network evaluates conv -> ReLU -> max pool as one polyphase stage
(nn._conv_forward / nn._conv_backward). These are the separate layers that
stage must agree with: a loop-style convolution, the im2col convolution the
unfused network ran, a loop-style max pool, ReLU and their backward passes.
It also holds helpers only tests call: the activation shapes and parameter
count a CnnSpec implies, the loss without gradients and the inference-mode
loss of mixmatch's two mixed batches, the dropout factor of one full-shape
draw, dropout drawn per example from uint16 calls, the soft-label predicate,
the `neutralize` fixture under which the SSL passes degenerate to
supervision, and the finite-difference gradient check with its kink-margin
probe.
"""

import numpy as np
import pytest

from lungsound import nn, ssl
from lungsound.errors import ShapeMismatch


def layer_shapes(spec, input_shape):
    """Activation shapes of a CnnSpec on (height, width) inputs, from input
    through pooling stages to the head."""
    h, w = input_shape
    shapes = [(h, w, 1)]
    for c_out in spec.channels:
        if h < 2 or w < 2:
            raise ShapeMismatch(f"activation {h}x{w} too small for a 2x2 stage")
        h, w = h - 1, w - 1          # valid 2x2 convolution
        shapes.append((h, w, c_out))
        h, w = h // 2, w // 2        # 2x2 pool, stride 2
        shapes.append((h, w, c_out))
    shapes.append((spec.channels[-1],))
    shapes.append((nn.N_CLASSES,))
    return shapes


def param_count(spec):
    """Trainable parameters of a CnnSpec: 2x2 kernels and biases, then the head."""
    count = 0
    c_in = 1
    for c_out in spec.channels:
        count += 2 * 2 * c_in * c_out + c_out
        c_in = c_out
    return count + spec.channels[-1] * nn.N_CLASSES + nn.N_CLASSES


def conv2d_loop(x, kernel, bias):
    """Quadruple-loop reference convolution of one (H, W, C) map."""
    h, w, c_in = x.shape
    kh, kw, _, c_out = kernel.shape
    out = np.zeros((h - kh + 1, w - kw + 1, c_out))
    for i in range(h - kh + 1):
        for j in range(w - kw + 1):
            for o in range(c_out):
                acc = bias[o]
                for di in range(kh):
                    for dj in range(kw):
                        for c in range(c_in):
                            acc += x[i + di, j + dj, c] * kernel[di, dj, c, o]
                out[i, j, o] = acc
    return out


def im2col(x):
    """(B, H, W, C) -> (B * (H-1) * (W-1), 4C) patch matrix for 2x2 kernels."""
    b, h, w, c = x.shape
    s0, s1, s2, s3 = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, shape=(b, h - 1, w - 1, 2, 2, c), strides=(s0, s1, s2, s1, s2, s3),
        writeable=False)
    return win.reshape(b * (h - 1) * (w - 1), 4 * c)


def conv2d(x, kernel, bias):
    """Valid stride-1 2x2 cross-correlation of a (B, H, W, C) batch as one
    im2col GEMM plus bias.

    This is the unfused convolution, rounded exactly as the fused stage rounds
    each conv output.
    """
    b, h, w, c_in = x.shape
    kh, kw, kc, c_out = kernel.shape
    if (kh, kw) != (2, 2) or kc != c_in or h < 2 or w < 2:
        raise ShapeMismatch(f"conv2d: input {x.shape[1:]} vs kernel {kernel.shape}")
    out = im2col(x) @ kernel.reshape(4 * c_in, c_out) + bias
    return out.reshape(b, h - 1, w - 1, c_out)


def conv2d_backward(dz, x, kernel):
    """Gradients of conv2d for a (B, H, W, C) batch, one kernel tap at a time.

    Returns (dx, dkernel, dbias).
    """
    b, h, w, c_in = x.shape
    dx = np.zeros_like(x, dtype=dz.dtype)
    dk = np.zeros(kernel.shape, dtype=dz.dtype)
    for ki in range(2):
        for kj in range(2):
            patch = x[:, ki:ki + h - 1, kj:kj + w - 1, :]
            dk[ki, kj] = np.einsum("bhwc,bhwo->co", patch, dz)
            dx[:, ki:ki + h - 1, kj:kj + w - 1, :] += dz @ kernel[ki, kj].T
    return dx, dk, dz.sum(axis=(0, 1, 2))


def maxpool2d(x):
    """2x2 window, stride 2, trailing odd rows/columns dropped, window by window.

    Returns (pooled, idx) of a (B, H, W, C) batch, where idx holds the
    within-window argmax slot (row-major, first occurrence on ties).
    """
    b, h, w, c = x.shape
    if h < 2 or w < 2:
        raise ShapeMismatch(f"maxpool2d: input {x.shape[1:]} smaller than window")
    hp, wp = h // 2, w // 2
    out = np.empty((b, hp, wp, c), dtype=x.dtype)
    idx = np.empty((b, hp, wp, c), dtype=np.int8)
    for i in range(hp):
        for j in range(wp):
            win = x[:, 2 * i:2 * i + 2, 2 * j:2 * j + 2, :].reshape(b, 4, c)
            out[:, i, j] = win.max(axis=1)
            idx[:, i, j] = win.argmax(axis=1)  # argmax takes the first maximum
    return out, idx


def relu(x):
    return np.maximum(x, 0)


def relu_backward(dy, x):
    return dy * (x > 0)


def stage_forward(x, kernel, bias):
    """conv + bias -> ReLU -> max pool; returns (pooled, idx, pre-activation)."""
    z = conv2d(x, kernel, bias)
    pooled, idx = maxpool2d(relu(z))
    return pooled, idx, z


def stage_backward(dy, x, kernel, z, idx):
    """Backward of stage_forward from dL/d(pooled); returns (dx, dkernel, dbias)."""
    dr = nn.maxpool2d_backward(dy, idx, z.shape)
    return conv2d_backward(relu_backward(dr, z), x, kernel)


def dropout_mask(rng, shape, dtype=np.float32):
    """The factor nn.dropout applies, from one full-shape uint16 draw: 0
    where the draw is below round(DROPOUT_RATE * 2**16), else the inverse
    of the realised keep probability."""
    threshold = round(nn.DROPOUT_RATE * 65536)
    keep = rng.integers(0, 65536, size=shape, dtype=np.uint16) >= threshold
    return keep.astype(dtype) * (dtype(65536) / dtype(65536 - threshold))


def dropout_by_example(x, rng):
    """Inverted dropout of x in place, drawn the way nn.dropout drew it before
    it took raw words: one uint16 `integers` call per example, or per two when
    an example holds an odd number of entries, so every call but the last
    draws an even count; each block is multiplied by its keep mask, then by
    the survivor scale. Returns x."""
    step = 2 if x[:1].size % 2 else 1
    threshold, scale = nn._drop_threshold(), nn._keep_scale(x.dtype)
    for start in range(0, len(x), step):
        xb = x[start:start + step]
        np.multiply(xb, rng.integers(0, 65536, size=xb.shape, dtype=np.uint16) >= threshold,
                    out=xb)
        xb *= scale
    return x


def forward_probs(params, xs):
    """Inference probabilities of the whole network built from the unfused stages."""
    a = np.asarray(xs, dtype=params.dtype)[..., None]
    for kernel, bias in zip(params.conv_kernels, params.conv_biases):
        a, _, _ = stage_forward(a, kernel, bias)
    return nn.softmax(nn.dense(nn.global_avg_pool(a), params.dense_w, params.dense_b))


def loss_value(probs, targets, loss_kind):
    """Mean batch loss without gradients."""
    return nn._loss_and_dp(probs, np.asarray(targets, dtype=probs.dtype), loss_kind)[0]


class FixedBeta:
    """Stand-in generator for ssl.mixup whose every Beta draw is `lam`."""

    def __init__(self, lam):
        self.lam = lam

    def beta(self, a, b):
        return self.lam


NEUTRAL_CONSTANTS = {"TEMPERATURE": 1.0, "N_AUGMENTATIONS": 1, "AUGMENT_NOISE_SCALE": 0.0,
                     "AUGMENT_MAX_MASK_FRAMES": 0, "REFINEMENT_WEIGHT": 0.0,
                     "REFURBISH_WEIGHT": 1.0, "REFURBISH_FRACTION": 1.0}


@pytest.fixture
def neutralize(monkeypatch):
    """Set the ssl constants so that each strategy degenerates to plain
    supervision once the unlabeled loss weight is 0: no sharpening, one
    identity augmentation, no co-refinement or refurbished targets, and a
    mixup whose generator draws lambda = 1, so every pair mixes to its first
    item."""
    for name, value in NEUTRAL_CONSTANTS.items():
        monkeypatch.setattr(ssl, name, value)
    mixup = ssl.mixup
    monkeypatch.setattr(ssl, "mixup",
                        lambda x1, y1, x2, y2, rng: mixup(x1, y1, x2, y2, FixedBeta(1.0)))


def is_soft_label(p, tol=1e-6):
    p = np.asarray(p)
    return bool(p.shape == (nn.N_CLASSES,) and (p >= -tol).all()
                and (p <= 1 + tol).all() and abs(float(p.sum()) - 1.0) <= tol)


def mixmatch_loss(params, x_batch, u_batch, unlabeled_weight):
    """(total, supervised CE, unlabeled MSE) of mixmatch's (inputs, targets)
    batches under inference-mode predictions."""
    probs_x, _ = nn.forward_batch(params, x_batch[0], keep_trace=False)
    sup = loss_value(probs_x, x_batch[1], "cross_entropy")
    unsup = 0.0
    if len(u_batch[0]) and unlabeled_weight > 0:
        probs_u, _ = nn.forward_batch(params, u_batch[0], keep_trace=False)
        unsup = loss_value(probs_u, u_batch[1], "squared_error")
    return sup + unlabeled_weight * unsup, sup, unsup


def kink_margin(params, xs):
    """Distance of a forward pass from ReLU/maxpool non-smoothness.

    Finite differences are only meaningful where the loss is smooth within
    the probe radius: no pre-activation may sit at the ReLU kink and no pool
    window may have a near-tied positive maximum (all-zero windows are safe
    because their entries carry zero gradient on both probe sides).
    """
    margin = np.inf
    a = np.asarray(xs, dtype=np.float64)[..., None]
    for kernel, bias in zip(params.conv_kernels, params.conv_biases):
        b, h, w, c_in = a.shape
        z = (im2col(a) @ kernel.reshape(4 * c_in, -1) + bias).reshape(b, h - 1, w - 1, -1)
        margin = min(margin, float(np.abs(z).min()))
        r = np.maximum(z, 0)
        _, h, w, _ = r.shape
        hp, wp = h // 2, w // 2
        stack = np.stack([r[:, di:2 * hp:2, dj:2 * wp:2, :] for di, dj in nn._POOL_OFFSETS])
        top2 = np.sort(stack, axis=0)[-2:]
        gaps = top2[1] - top2[0]
        positive = top2[1] > 0
        if positive.any():
            margin = min(margin, float(gaps[positive].min()))
        a = nn._maxpool_core(r)
    return margin


def clear_probe(params, xs, eps):
    """True when a forward at xs passes gradient through every stage and
    clears the ReLU and pooling kinks by more than 8 * eps."""
    # a stage with no positive output passes no gradient down: every conv
    # gradient would be zero on both sides and a check would compare zeros
    _, trace = nn.forward_batch(params, xs, keep_trace=True)
    return all((a > 0).any() for a in trace.pool_out) and kink_margin(params, xs) > 8 * eps


def finite_difference_error(params, xs, targets, loss_kind, eps, floor=1e-6):
    """Backprop gradients at (params, xs, targets) against central differences
    of step eps. Returns (max_rel_err, n_params, grads), with rel err over
    max(|a|, |b|, floor)."""
    def loss_at():
        probs, trace = nn.forward_batch(params, xs, training=False, keep_trace=True)
        return loss_value(probs, targets, loss_kind), trace

    _, grads = nn.loss_and_backward(loss_at()[1], targets, loss_kind)
    max_rel = 0.0
    n_checked = 0
    for p_arr, g_arr in zip(params.arrays(), grads.arrays()):
        flat_p = p_arr.reshape(-1)
        flat_g = g_arr.reshape(-1)
        for j in range(flat_p.size):
            orig = flat_p[j]
            flat_p[j] = orig + eps
            up = loss_at()[0]
            flat_p[j] = orig - eps
            down = loss_at()[0]
            flat_p[j] = orig
            fd = (up - down) / (2.0 * eps)
            rel = abs(flat_g[j] - fd) / max(abs(flat_g[j]), abs(fd), floor)
            max_rel = max(max_rel, rel)
            n_checked += 1
    return max_rel, n_checked, grads


def gradient_check(spec, input_shape, seed=0, eps=1e-3, loss_kind="cross_entropy", batch=2):
    """Compare backprop gradients against central finite differences on
    (height, width) inputs.

    Runs in double precision with dropout off. The probe point (init + input
    draw) is re-sampled deterministically until the forward pass clears the
    ReLU and pooling kinks by a wide margin, otherwise the +/- eps probes
    would straddle a non-differentiable point and measure nothing useful.
    Returns (max_rel_err, n_params) with rel err over max(|a|, |b|, 1e-6).
    """
    for attempt in range(256):
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        params = nn.init_params(rng, spec, dtype=np.float64)
        xs = rng.normal(0.0, 0.5, size=(batch,) + tuple(input_shape))
        targets = rng.random((batch, nn.N_CLASSES)) + 0.1
        targets /= targets.sum(axis=1, keepdims=True)
        if clear_probe(params, xs, eps):
            break
    else:
        raise RuntimeError("could not find a live, kink-free probe point")
    return finite_difference_error(params, xs, targets, loss_kind, eps)[:2]
