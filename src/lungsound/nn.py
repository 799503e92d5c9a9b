"""Dense-tensor CNN with hand-written backpropagation.

Layout is channels-last (batch, height, width, channels). The classifier is a
stack of valid 2x2 convolutions, each followed by ReLU, 2x2/stride-2 max
pooling and (in training) inverted dropout, ending in global average pooling,
a dense head and softmax. The architecture is parameterized by CnnSpec so the
same code runs both the production geometry and shrunken clones for
finite-difference gradient checks.

Each conv -> ReLU -> pool stage is evaluated by pool phase (polyphase): the
conv is computed separately at the four slots (di, dj) of the 2x2 pool
windows, from stride-2 patches at offset (di, dj), in one GEMM. Max pooling is
then an elementwise max of four dense maps, and the odd trailing conv row and
column that pooling drops are never computed. Bias and ReLU are applied once,
to the pooled map. Rounding is monotone, so this equals conv + bias -> ReLU ->
pool bit for bit. The one difference is the tie rule: the first-occurrence
argmax that routes the gradient is taken before the bias is added, so it can
differ from the unfused order only where adding the bias rounds two unequal
values to a tie. The backward keeps the phase structure: the conv gradient of
phase p is the pooled gradient masked by (argmax == p), and the kernel
gradient is one GEMM over all phases.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedHeader, NonFiniteLoss, ShapeMismatch, StaleTrace

N_CLASSES = 6

PROB_FLOOR = 1e-12  # clamp inside the cross-entropy log


@dataclass(frozen=True)
class CnnSpec:
    """Architecture description; defaults give the production network."""

    input_shape: tuple = (40, 862)
    channels: tuple = (16, 32, 64, 128)
    n_classes: int = N_CLASSES

    def layer_shapes(self):
        """Activation shapes from input through pooling stages to the head."""
        h, w = self.input_shape
        shapes = [(h, w, 1)]
        c_in = 1
        for c_out in self.channels:
            if h < 2 or w < 2:
                raise ShapeMismatch(f"activation {h}x{w} too small for a 2x2 stage")
            h, w = h - 1, w - 1          # valid 2x2 convolution
            shapes.append((h, w, c_out))
            h, w = h // 2, w // 2        # 2x2 pool, stride 2
            shapes.append((h, w, c_out))
            c_in = c_out
        shapes.append((self.channels[-1],))
        shapes.append((self.n_classes,))
        return shapes

    def param_count(self) -> int:
        count = 0
        c_in = 1
        for c_out in self.channels:
            count += 2 * 2 * c_in * c_out + c_out
            c_in = c_out
        return count + self.channels[-1] * self.n_classes + self.n_classes


@dataclass
class ModelParams:
    conv_kernels: list      # kernel i: (2, 2, c_in, c_out)
    conv_biases: list       # bias i: (c_out,)
    dense_w: np.ndarray     # (c_last, n_classes)
    dense_b: np.ndarray     # (n_classes,)

    def named(self):
        for i, (k, b) in enumerate(zip(self.conv_kernels, self.conv_biases)):
            yield f"conv{i}.kernel", k
            yield f"conv{i}.bias", b
        yield "dense.weight", self.dense_w
        yield "dense.bias", self.dense_b

    def arrays(self):
        return [a for _, a in self.named()]

    def count(self) -> int:
        return sum(a.size for a in self.arrays())

    @property
    def dtype(self):
        return self.dense_w.dtype

    def copy(self) -> "ModelParams":
        return ModelParams([k.copy() for k in self.conv_kernels],
                           [b.copy() for b in self.conv_biases],
                           self.dense_w.copy(), self.dense_b.copy())

    def astype(self, dtype) -> "ModelParams":
        return ModelParams([k.astype(dtype) for k in self.conv_kernels],
                           [b.astype(dtype) for b in self.conv_biases],
                           self.dense_w.astype(dtype), self.dense_b.astype(dtype))

    def zeros_like(self) -> "ModelParams":
        return ModelParams([np.zeros_like(k) for k in self.conv_kernels],
                           [np.zeros_like(b) for b in self.conv_biases],
                           np.zeros_like(self.dense_w), np.zeros_like(self.dense_b))

    def add_scaled(self, other: "ModelParams", scale: float) -> None:
        """In place: self += scale * other, array by array."""
        for a, b in zip(self.arrays(), other.arrays()):
            a += scale * b

    def all_finite(self) -> bool:
        return all(np.isfinite(a).all() for a in self.arrays())


def init_params(rng: np.random.Generator, spec: CnnSpec = CnnSpec(),
                dtype=np.float32) -> ModelParams:
    """He-uniform kernels (bound sqrt(6 / fan_in)), zero biases."""
    kernels, biases = [], []
    c_in = 1
    for c_out in spec.channels:
        bound = np.sqrt(6.0 / (2 * 2 * c_in))
        kernels.append(rng.uniform(-bound, bound, size=(2, 2, c_in, c_out)).astype(dtype))
        biases.append(np.zeros(c_out, dtype=dtype))
        c_in = c_out
    bound = np.sqrt(6.0 / spec.channels[-1])
    dense_w = rng.uniform(-bound, bound, size=(spec.channels[-1], spec.n_classes)).astype(dtype)
    dense_b = np.zeros(spec.n_classes, dtype=dtype)
    return ModelParams(kernels, biases, dense_w, dense_b)


# -- layer primitives ----------------------------------------------------

_POOL_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _im2col(x: np.ndarray) -> np.ndarray:
    """(B, H, W, C) -> (B * (H-1) * (W-1), 4C) patch matrix for 2x2 kernels."""
    b, h, w, c = x.shape
    s0, s1, s2, s3 = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, shape=(b, h - 1, w - 1, 2, 2, c), strides=(s0, s1, s2, s1, s2, s3),
        writeable=False)
    return win.reshape(b * (h - 1) * (w - 1), 4 * c)


def _phase_im2col(x: np.ndarray) -> np.ndarray:
    """(B, H, W, C) -> (4 * B * Hp * Wp, 4C) 2x2 patches grouped by pool phase.

    Row block phase = 2*di + dj holds, for i < Hp = (H-1)//2 and
    j < Wp = (W-1)//2, the patch whose conv output sits at (2i + di, 2j + dj):
    slot (di, dj) of pool window (i, j). The odd trailing conv row and column
    that pooling drops get no patch.
    """
    b, h, w, c = x.shape
    hp, wp = (h - 1) // 2, (w - 1) // 2
    s0, s1, s2, s3 = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, shape=(2, 2, b, hp, wp, 2, 2, c),
        strides=(s1, s2, s0, 2 * s1, 2 * s2, s1, s2, s3), writeable=False)
    if c == 1:
        # reshape would copy one element per inner loop here; copying tap by
        # tap runs the inner loop along a whole row of windows (~4x faster)
        cols = np.empty(win.shape, dtype=x.dtype)
        for ki, kj in _POOL_OFFSETS:
            cols[..., ki, kj, :] = win[..., ki, kj, :]
        win = cols
    return win.reshape(4 * b * hp * wp, 4 * c)


def _conv_forward(x, kernel, bias, keep_trace):
    """Fused valid 2x2 conv -> ReLU -> 2x2/stride-2 max pool of a (B, H, W, C) batch.

    One GEMM evaluates the conv at the four pool phases, and pooling is the
    elementwise max of the four phase maps. Bias and ReLU are applied once, on
    the pooled map; rounding is monotone, so max(fl(a+b), fl(c+b)) ==
    fl(max(a, c) + b) and the result equals conv+bias -> ReLU -> pool exactly.
    Returns (pooled, idx, cols). idx is the within-window argmax slot (row-major,
    first occurrence on ties, taken before the bias is added) and cols the phase
    patch matrix; both are None unless keep_trace.
    """
    b, h, w, c_in = x.shape
    c_out = kernel.shape[3]
    if kernel.shape[:3] != (2, 2, c_in) or h < 3 or w < 3:
        raise ShapeMismatch(f"conv stage: input {x.shape} vs kernel {kernel.shape}")
    hp, wp = (h - 1) // 2, (w - 1) // 2
    cols = _phase_im2col(x)
    z = (cols @ kernel.reshape(4 * c_in, c_out)).reshape(4, b, hp, wp, c_out)
    top = np.maximum(z[0], z[1])
    bottom = np.maximum(z[2], z[3])
    out = np.maximum(top, bottom)
    out += bias
    np.maximum(out, 0, out=out)
    if not keep_trace:
        return out, None, None
    # branch-free select of the slot; np.where is several times slower on
    # masks as irregular as these
    lower = (bottom > top).view(np.int8)
    left = (z[1] > z[0]).view(np.int8)
    right = (z[3] > z[2]).view(np.int8)
    idx = left + lower * (right + 2 - left)
    return out, idx, cols


def _conv_backward(dy, cols, kernel, x_shape, need_dx, idx):
    """Backward of the fused stage; returns (dx, dkernel, dbias).

    dy is the gradient at the pooled map with the ReLU mask already applied;
    cols and idx come from _conv_forward. Each pooled gradient flows to the
    conv output its window selected, so the phase-stacked conv gradient is
    dy * (idx == phase).
    """
    b, _, _, c_in = x_shape
    c_out = kernel.shape[3]
    hp, wp = dy.shape[1:3]
    dz = np.empty((4,) + dy.shape, dtype=dy.dtype)
    for phase in range(4):
        np.multiply(dy, idx == phase, out=dz[phase])
    dz = dz.reshape(-1, c_out)
    db = dy.reshape(-1, c_out).sum(axis=0)
    dk = (cols.T @ dz).reshape(2, 2, c_in, c_out)
    if not need_dx:
        return None, dk, db
    dcols = (dz @ kernel.reshape(4 * c_in, c_out).T).reshape(4, b, hp, wp, 2, 2, c_in)
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for phase, (di, dj) in enumerate(_POOL_OFFSETS):
        for ki, kj in _POOL_OFFSETS:
            r, c = di + ki, dj + kj
            dx[:, r:r + 2 * hp:2, c:c + 2 * wp:2, :] += dcols[phase, :, :, :, ki, kj, :]
    return dx, dk, db


def _maxpool_core(x: np.ndarray) -> np.ndarray:
    """Unfused 2x2/stride-2 max pool; trailing odd rows/columns are dropped.

    The network pools inside _conv_forward; this serves _kink_margin.
    """
    b, h, w, c = x.shape
    if h < 2 or w < 2:
        raise ShapeMismatch(f"maxpool2d: input {x.shape[1:]} smaller than window")
    hp, wp = h // 2, w // 2
    top = np.maximum(x[:, 0:2 * hp:2, 0:2 * wp:2, :], x[:, 0:2 * hp:2, 1:2 * wp:2, :])
    bottom = np.maximum(x[:, 1:2 * hp:2, 0:2 * wp:2, :], x[:, 1:2 * hp:2, 1:2 * wp:2, :])
    return np.maximum(top, bottom)


def maxpool2d_backward(dy: np.ndarray, idx: np.ndarray, x_shape) -> np.ndarray:
    """Unfused max-pool backward: route dy to each window's argmax slot.

    The training path does this inside _conv_backward; this is the reference
    the fused stage is tested against.
    """
    single = dy.ndim == 3
    if single:
        dy, idx = dy[None], idx[None]
        x_shape = (1,) + tuple(x_shape)
    b, h, w, c = x_shape
    hp, wp = h // 2, w // 2
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for slot, (di, dj) in enumerate(_POOL_OFFSETS):
        dx[:, di:2 * hp:2, dj:2 * wp:2, :] += dy * (idx == slot)
    return dx[0] if single else dx


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    axes = (1, 2) if x.ndim == 4 else (0, 1)
    return x.mean(axis=axes)


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.shape[-1] != w.shape[0]:
        raise ShapeMismatch(f"dense: input {x.shape} vs weight {w.shape}")
    return x @ w + b


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; the head is tiny so it always runs in float64."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(p, dp):
    return p * (dp - (dp * p).sum(axis=-1, keepdims=True))


def dropout(x: np.ndarray, rate: float, rng: np.random.Generator, training: bool):
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate).

    Inference mode is the identity and returns no mask. The returned mask is
    the multiplicative factor array: 0 where dropped, 1/(1-rate) where kept.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training:
        return x, None
    if rate == 0.0:
        return x, np.ones(x.shape, dtype=x.dtype)
    mask = (rng.random(x.shape) >= rate).astype(x.dtype)
    mask /= (1.0 - rate)
    return x * mask, mask


# -- full network --------------------------------------------------------

@dataclass
class ForwardTrace:
    """Intermediate activations retained for the backward pass."""

    params: ModelParams
    training: bool
    dropout_rate: float
    x: np.ndarray                       # (B, H, W, 1)
    conv_cols: list = field(default_factory=list)
    conv_in_shapes: list = field(default_factory=list)
    pool_out: list = field(default_factory=list)     # pooled maps, pre-dropout
    pool_idx: list = field(default_factory=list)
    drop_masks: list = field(default_factory=list)   # only when training
    dense_in: np.ndarray = None         # (B, C_last)
    gap_shape: tuple = None
    logits: np.ndarray = None
    probs: np.ndarray = None


def forward_batch(params: ModelParams, xs: np.ndarray, training: bool = False,
                  rng: np.random.Generator | None = None, dropout_rate: float = 0.2,
                  keep_trace: bool | None = None):
    """Forward pass over a (B, H, W) batch; returns (probs, trace).

    When training, `rng` supplies the dropout draws. Set keep_trace=False for
    pure inference to skip caching the backward-pass intermediates.
    """
    if training and dropout_rate > 0 and rng is None:
        raise ValueError("training forward with dropout needs an rng")
    if keep_trace is None:
        keep_trace = training
    a = np.ascontiguousarray(xs, dtype=params.dtype)[..., None]
    trace = ForwardTrace(params=params, training=training, dropout_rate=dropout_rate, x=a)
    for kernel, bias in zip(params.conv_kernels, params.conv_biases):
        trace.conv_in_shapes.append(a.shape)
        a, idx, cols = _conv_forward(a, kernel, bias, keep_trace)
        if keep_trace:
            trace.conv_cols.append(cols)
            trace.pool_out.append(a)
            trace.pool_idx.append(idx)
        if training:
            a, mask = dropout(a, dropout_rate, rng, training=True)
            if keep_trace:
                trace.drop_masks.append(mask)
    trace.gap_shape = a.shape
    gap = global_avg_pool(a)
    logits = dense(gap, params.dense_w, params.dense_b)
    probs = softmax(logits)
    if keep_trace:
        trace.dense_in = gap
        trace.logits = logits
        trace.probs = probs
    return probs, trace


def _loss_and_dp(probs, targets, loss_kind):
    """Mean loss over the batch and dL/dprobs."""
    n = probs.shape[0]
    if loss_kind == "cross_entropy":
        clamped = np.maximum(probs, PROB_FLOOR)
        loss = -(targets * np.log(clamped)).sum() / n
        dp = np.where(probs > PROB_FLOOR, -targets / clamped, 0.0) / n
    elif loss_kind == "squared_error":
        diff = probs - targets
        loss = (diff ** 2).sum() / n
        dp = 2.0 * diff / n
    else:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    return float(loss), dp.astype(probs.dtype)


def loss_value(probs: np.ndarray, targets: np.ndarray, loss_kind: str) -> float:
    """Mean batch loss without gradients."""
    return _loss_and_dp(probs, np.asarray(targets, dtype=probs.dtype), loss_kind)[0]


def backward_from_dp(trace: ForwardTrace, dp: np.ndarray) -> ModelParams:
    """Backpropagate dL/dprobs through a kept trace; returns gradients."""
    params = trace.params
    dlogits = _softmax_backward(trace.probs, dp).astype(params.dtype)
    grads = params.zeros_like()
    grads.dense_w[:] = trace.dense_in.T @ dlogits
    grads.dense_b[:] = dlogits.sum(axis=0)
    da = dlogits @ params.dense_w.T

    b, hg, wg, cg = trace.gap_shape
    da = np.broadcast_to(da[:, None, None, :] / (hg * wg),
                         trace.gap_shape).astype(params.dtype)

    for i in reversed(range(len(params.conv_kernels))):
        if trace.training and trace.dropout_rate > 0:
            da = da * trace.drop_masks[i]
        # relu mask in the pooled domain: the selected pre-activation is
        # positive exactly when the pooled value is
        da = da * (trace.pool_out[i] > 0)
        da, dk, db = _conv_backward(da, trace.conv_cols[i], params.conv_kernels[i],
                                    trace.conv_in_shapes[i], i > 0, trace.pool_idx[i])
        grads.conv_kernels[i][:] = dk
        grads.conv_biases[i][:] = db
    return grads


def loss_and_backward(params: ModelParams, trace: ForwardTrace, target: np.ndarray,
                      loss_kind: str = "cross_entropy"):
    """Loss plus gradients for a trace produced by forward() / forward_batch().

    Raises StaleTrace when the trace was built from different parameters.
    """
    if trace.params is not params:
        raise StaleTrace("trace was produced by a different parameter set")
    if trace.probs is None:
        raise StaleTrace("trace was not kept (forward ran with keep_trace=False)")
    targets = np.asarray(target, dtype=trace.probs.dtype)
    if targets.ndim == 1:
        targets = targets[None]
    if targets.shape != trace.probs.shape:
        raise ShapeMismatch(f"targets {targets.shape} vs probs {trace.probs.shape}")
    loss, dp = _loss_and_dp(trace.probs, targets, loss_kind)
    return loss, backward_from_dp(trace, dp)


# -- optimizer -----------------------------------------------------------

@dataclass
class AdamState:
    step: int
    m: ModelParams
    v: ModelParams

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(step=0, m=params.zeros_like(), v=params.zeros_like())


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """One Adam update with bias correction; params and state update in place."""
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(params.arrays(), grads.arrays(),
                          state.m.arrays(), state.v.arrays()):
        if p.shape != g.shape:
            raise ShapeMismatch(f"adam: param {p.shape} vs grad {g.shape}")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return params, state


def weighted_gradient_step(params: ModelParams, opt_state: AdamState, terms,
                           lr: float = 1e-3):
    """One Adam step on a weighted sum of loss terms.

    Each term is (weight, xs, targets, loss_kind, rng); zero-weight or empty
    terms are skipped outright so they cost nothing and leave the arithmetic
    of the remaining terms untouched. Returns (params, opt_state, losses) with
    one loss per term (0.0 for skipped ones).
    """
    total_grads = None
    losses = []
    for weight, xs, targets, loss_kind, rng in terms:
        if weight == 0.0 or len(xs) == 0:
            losses.append(0.0)
            continue
        _, trace = forward_batch(params, xs, training=True, rng=rng)
        loss, grads = loss_and_backward(params, trace, targets, loss_kind)
        del trace  # free this term's activations before the next term's forward
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"{loss_kind} loss is {loss}")
        losses.append(loss)
        if total_grads is None:
            if weight != 1.0:
                for a in grads.arrays():
                    a *= weight
            total_grads = grads
        else:
            total_grads.add_scaled(grads, weight)
    if total_grads is not None:
        if not total_grads.all_finite():
            raise NonFiniteLoss("non-finite gradient")
        adam_step(params, total_grads, opt_state, lr=lr)
    return params, opt_state, losses


# -- gradient checking ---------------------------------------------------

def _kink_margin(params: ModelParams, xs: np.ndarray) -> float:
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
        z = (_im2col(a) @ kernel.reshape(4 * c_in, -1) + bias).reshape(b, h - 1, w - 1, -1)
        margin = min(margin, float(np.abs(z).min()))
        r = np.maximum(z, 0)
        _, h, w, _ = r.shape
        hp, wp = h // 2, w // 2
        stack = np.stack([r[:, di:2 * hp:2, dj:2 * wp:2, :] for di, dj in _POOL_OFFSETS])
        top2 = np.sort(stack, axis=0)[-2:]
        gaps = top2[1] - top2[0]
        positive = top2[1] > 0
        if positive.any():
            margin = min(margin, float(gaps[positive].min()))
        a = _maxpool_core(r)
    return margin


def gradient_check(spec: CnnSpec, seed: int = 0, eps: float = 1e-3,
                   loss_kind: str = "cross_entropy", batch: int = 2):
    """Compare backprop gradients against central finite differences.

    Runs in double precision with dropout off. The probe point (init + input
    draw) is re-sampled deterministically until the forward pass clears the
    ReLU and pooling kinks by a wide margin, otherwise the +/- eps probes
    would straddle a non-differentiable point and measure nothing useful.
    Returns (max_rel_err, n_params) with rel err over max(|a|, |b|, 1e-6).
    """
    for attempt in range(256):
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        params = init_params(rng, spec, dtype=np.float64)
        xs = rng.normal(0.0, 0.5, size=(batch,) + spec.input_shape)
        targets = rng.random((batch, spec.n_classes)) + 0.1
        targets /= targets.sum(axis=1, keepdims=True)
        # a stage with no positive output passes no gradient down: every conv
        # gradient would be zero on both sides and the check would compare zeros
        _, trace = forward_batch(params, xs, training=False, keep_trace=True)
        live = all((a > 0).any() for a in trace.pool_out)
        if live and _kink_margin(params, xs) > 8 * eps:
            break
    else:
        raise RuntimeError("could not find a live, kink-free probe point")

    def loss_at():
        probs, trace = forward_batch(params, xs, training=False, keep_trace=True)
        return _loss_and_dp(probs, targets, loss_kind)[0], trace

    _, trace = loss_at()
    _, grads = loss_and_backward(params, trace, targets, loss_kind)

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
            rel = abs(flat_g[j] - fd) / max(abs(flat_g[j]), abs(fd), 1e-6)
            max_rel = max(max_rel, rel)
            n_checked += 1
    return max_rel, n_checked


# -- checkpoints ---------------------------------------------------------

_CKPT_MAGIC = b"LSNN"
_CKPT_VERSION = 1
_DTYPE_F32 = 1


def save_checkpoint(path, params: ModelParams, metadata: dict) -> None:
    """Binary checkpoint: magic, version, named f32 tensors, JSON metadata.

    Tensors are stored single precision; a zero name-length terminates the
    record stream and the remaining bytes are the UTF-8 metadata blob.
    """
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<H", _CKPT_VERSION))
        for name, arr in params.named():
            raw = name.encode()
            a32 = np.ascontiguousarray(arr, dtype="<f4")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<BB", _DTYPE_F32, a32.ndim))
            fh.write(struct.pack(f"<{a32.ndim}I", *a32.shape))
            fh.write(a32.tobytes())
        fh.write(struct.pack("<H", 0))
        fh.write(json.dumps(metadata).encode())


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (ModelParams, metadata dict).

    A truncated or damaged file raises MalformedHeader.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _CKPT_MAGIC:
        raise MalformedHeader(f"{path}: not a checkpoint file")
    try:
        (version,) = struct.unpack_from("<H", data, 4)
        if version != _CKPT_VERSION:
            raise MalformedHeader(f"{path}: unsupported checkpoint version {version}")
        pos = 6
        tensors = {}
        while True:
            (name_len,) = struct.unpack_from("<H", data, pos)
            pos += 2
            if name_len == 0:
                break
            name = data[pos:pos + name_len].decode()
            pos += name_len
            dtype_code, rank = struct.unpack_from("<BB", data, pos)
            pos += 2
            if dtype_code != _DTYPE_F32:
                raise MalformedHeader(f"{path}: unknown dtype code {dtype_code}")
            dims = struct.unpack_from(f"<{rank}I", data, pos)
            pos += 4 * rank
            n_bytes = 4 * int(np.prod(dims, dtype=np.int64)) if rank else 4
            tensors[name] = np.frombuffer(data[pos:pos + n_bytes], dtype="<f4").reshape(dims)
            pos += n_bytes
        metadata = json.loads(data[pos:].decode()) if pos < len(data) else {}

        n_conv = sum(1 for name in tensors if name.endswith(".kernel"))
        params = ModelParams(
            conv_kernels=[tensors[f"conv{i}.kernel"].copy() for i in range(n_conv)],
            conv_biases=[tensors[f"conv{i}.bias"].copy() for i in range(n_conv)],
            dense_w=tensors["dense.weight"].copy(),
            dense_b=tensors["dense.bias"].copy(),
        )
    except (struct.error, ValueError, KeyError) as exc:
        # short reads; bad UTF-8, bad JSON or short tensors; missing tensors
        raise MalformedHeader(f"{path}: damaged checkpoint ({type(exc).__name__}: {exc})") \
            from None
    return params, metadata
