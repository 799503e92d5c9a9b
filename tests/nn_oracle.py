"""Unfused reference layers for the CNN in lungsound.nn.

The network evaluates conv -> ReLU -> max pool as one polyphase stage
(nn._conv_forward / nn._conv_backward). These are the separate layers that
stage must agree with: a loop-style convolution, the im2col convolution the
unfused network ran, a loop-style max pool, ReLU and their backward passes.
It also holds helpers only tests call: a single-input `forward` and the
inference-mode loss of mixmatch's two mixed batches.
"""

import numpy as np

from lungsound import nn
from lungsound.errors import ShapeMismatch


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


def conv2d(x, kernel, bias):
    """Valid stride-1 2x2 cross-correlation as one im2col GEMM plus bias.

    This is the unfused convolution, rounded exactly as the fused stage rounds
    each conv output. Accepts a single (H, W, C) map or a (B, H, W, C) batch.
    """
    single = x.ndim == 3
    if single:
        x = x[None]
    b, h, w, c_in = x.shape
    kh, kw, kc, c_out = kernel.shape
    if (kh, kw) != (2, 2) or kc != c_in or h < 2 or w < 2:
        raise ShapeMismatch(f"conv2d: input {x.shape[1:]} vs kernel {kernel.shape}")
    out = nn._im2col(x) @ kernel.reshape(4 * c_in, c_out) + bias
    out = out.reshape(b, h - 1, w - 1, c_out)
    return out[0] if single else out


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

    Returns (pooled, idx) where idx holds the within-window argmax slot
    (row-major, first occurrence on ties). Accepts (H, W, C) or (B, H, W, C).
    """
    single = x.ndim == 3
    if single:
        x = x[None]
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
    if single:
        return out[0], idx[0]
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


def forward_probs(params, xs):
    """Inference probabilities of the whole network built from the unfused stages."""
    a = np.asarray(xs, dtype=params.dtype)[..., None]
    for kernel, bias in zip(params.conv_kernels, params.conv_biases):
        a, _, _ = stage_forward(a, kernel, bias)
    return nn.softmax(nn.dense(nn.global_avg_pool(a), params.dense_w, params.dense_b))


def forward(params, x, training=False, rng=None, dropout_rate=0.2):
    """Single-input forward; returns (probability vector, trace)."""
    probs, trace = nn.forward_batch(params, np.asarray(x)[None], training=training,
                                    rng=rng, dropout_rate=dropout_rate, keep_trace=True)
    return probs[0], trace


def mixmatch_loss(params, x_batch, u_batch, unlabeled_weight):
    """(total, supervised CE, unlabeled MSE) of mixmatch's (inputs, targets)
    batches under inference-mode predictions."""
    probs_x, _ = nn.forward_batch(params, x_batch[0], keep_trace=False)
    sup = nn.loss_value(probs_x, x_batch[1], "cross_entropy")
    unsup = 0.0
    if len(u_batch[0]) and unlabeled_weight > 0:
        probs_u, _ = nn.forward_batch(params, u_batch[0], keep_trace=False)
        unsup = nn.loss_value(probs_u, u_batch[1], "squared_error")
    return sup + unlabeled_weight * unsup, sup, unsup
