"""Dense-tensor CNN with hand-written backpropagation.

Layout is channels-last (batch, height, width, channels). The classifier is a
stack of valid 2x2 convolutions, each followed by ReLU, 2x2/stride-2 max
pooling and (in training) inverted dropout, ending in global average pooling,
a dense head of N_CLASSES outputs and softmax. CnnSpec gives the stage
widths, and the input height and width come from the batch, so the same code
runs both the production network and shrunken clones for finite-difference
gradient checks. The dropout rate and Adam's betas and epsilon are module
constants; only the learning rate is passed in.

Each conv -> ReLU -> pool stage is evaluated by pool phase (polyphase): the
conv is computed separately at the four slots (di, dj) of the 2x2 pool
windows, from stride-2 patches at offset (di, dj), by GEMM. Max pooling is
then an elementwise max of four dense maps, and the odd trailing conv row and
column that pooling drops are never computed. Bias and ReLU are applied once,
to the pooled map. Rounding is monotone, so this equals conv + bias -> ReLU ->
pool bit for bit. The one difference is the tie rule: the first-occurrence
argmax that routes the gradient is taken before the bias is added, so it can
differ from the unfused order only where adding the bias rounds two unequal
values to a tie.

A stage forward and its backward run one example per block. A block's
patches have one layout, (1, 4, Hp, Wp, 2, 2, C_in): the example's 2x2
patches grouped by pool phase (im2col by phase). The products are per
example: the conv, one GEMM per phase into a (4, Hp * Wp, C_out) phase map;
dx, one GEMM per kernel row into the two halves of the spent patches, each
added into dx (col2im) a whole row of windows at a time; and the kernel
gradient over the four phases, into a (B, 4 * C_in, C_out) partial that the
caller sums in example order. The patches, phase map and input mask are
per-worker scratch that stays in cache. No patch matrix is kept: the
backward rebuilds each example's patches from the stage input the trace
holds (the network input, or the previous pooled map after dropout), then
writes dx over that example. Every conv GEMM's row count is set by the stage
geometry alone, so on any BLAS an example's bits depend neither on the other
examples in its batch nor on the worker that ran it. What the examples of a
batch share keeps that: the caller sums the kernel-gradient partials in
example order, and each example's dropout draws sit at a fixed place in one
stream (below).

The dense head is a per-row product summed in input order, not a GEMM, so a
row's probabilities do not depend on how many rows share its forward: a
recording scores the same alone or in any batch.

Every forward and backward runs in a Workspace. A training run
(training._train) passes one to all its forwards and backwards, and
training.predict_batch one to all its chunks; forward_batch builds one for
its batch when given none. It holds one flat buffer per role, sized on first
use for its `rows` (its largest batch), so later forwards reuse pages
instead of taking freshly zeroed ones. Only each stage's pooled map and
argmax slots and the kernel-gradient partials are sized for the whole batch;
the other roles hold one example per worker.
A forward overwrites the previous trace's buffers and a backward its maps
(not the network input, which may be the caller's array), so
loss_and_backward(trace, target, loss_kind), which differentiates with
respect to the parameters the trace holds, refuses (StaleTrace) a trace
whose workspace has run a forward since, or whose backward has run.

The examples of a stage forward and of its backward run with one worker per
usable CPU (usable_cpus: the process's CPU affinity set), at most one per
example. The caller's thread is worker 0; each worker takes the next
unclaimed example and writes only that example's slices of the outputs and
its own slice of the scratch. A batch of one, or a process with one usable
CPU, runs inline. The
first call that needs more workers builds the workspace's pool of
usable_cpus() - 1 threads, whose threads end when the workspace is
collected; a forked child builds its own, as the parent's threads did not
come along. No result bit depends on the worker count: an example's arithmetic
is the same on any worker, and the work whose order matters stays on the
caller's thread (db, the sum of the kernel-gradient partials, the head,
softmax and Adam); db runs there while the pool works.
Every worker calls the BLAS, so BLAS threads times workers can oversubscribe
the CPUs: pin OPENBLAS_NUM_THREADS=1, as replay needs anyway. Workers call
numpy, _phase_patches and the dropout draw only, never a function the
benchmark's tracer wraps by name, because its span stack is not thread-safe.

Dropout draws one uint16 per entry and keeps the entries whose draw is at
least round(DROPOUT_RATE * 2**16) = 13107, so the realised rate is
13107/65536; survivors are scaled by s = 65536/52429, the inverse of the
realised keep probability. A training forward takes the draws that uint16
`integers` calls of whole examples, in example order, would take from the
caller's generator, a PCG64 (ValueError otherwise). Each block draws its own
example's values after the ReLU, on its worker, from a PCG64 of the
workspace advanced to their place (O(log n) steps). Draw n of the stream is
uint16 n % 4 of raw word n // 4, low half first: numpy splits a word into
two 32-bit halves, and a half into two uint16. A generator that holds a
buffered half starts one word back, at n = 2. Each stage starts at the next
even n, as a call that draws an odd count drops its last half word. The
forward then leaves the caller's generator where such calls would. The
pooled map is scaled in place and no mask is kept, so in training
pool_out > 0 exactly where an entry was kept and is positive (a positive
float times s > 1 stays positive). The backward masks a map's gradient d by
that, then multiplies by s. Against the dropout factor
(0 or s) followed by the ReLU mask r (0 or 1), that is (d*1)*s vs (d*s)*1
where kept and positive, (d*0)*s vs (d*s)*0 where kept at zero, (d*0)*s vs
(d*0)*r where dropped: the same float each time, a zero carrying d's sign.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedHeader, NonFiniteLoss, ShapeMismatch, StaleTrace

N_CLASSES = 6
DROPOUT_RATE = 0.2  # of every conv stage's pooled map, in training forwards
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decays, denominator floor

PROB_FLOOR = 1e-12  # clamp inside the cross-entropy log


@dataclass(frozen=True)
class CnnSpec:
    """Conv stage output widths; the defaults give the production network."""

    channels: tuple = (16, 32, 64, 128)


@dataclass
class ModelParams:
    conv_kernels: list      # kernel i: (2, 2, c_in, c_out)
    conv_biases: list       # bias i: (c_out,)
    dense_w: np.ndarray     # (c_last, N_CLASSES)
    dense_b: np.ndarray     # (N_CLASSES,)

    def named(self):
        for i, (k, b) in enumerate(zip(self.conv_kernels, self.conv_biases)):
            yield f"conv{i}.kernel", k
            yield f"conv{i}.bias", b
        yield "dense.weight", self.dense_w
        yield "dense.bias", self.dense_b

    def arrays(self):
        return [a for _, a in self.named()]

    @property
    def dtype(self):
        return self.dense_w.dtype

    def copy(self) -> "ModelParams":
        return ModelParams([k.copy() for k in self.conv_kernels],
                           [b.copy() for b in self.conv_biases],
                           self.dense_w.copy(), self.dense_b.copy())

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
    dense_w = rng.uniform(-bound, bound, size=(spec.channels[-1], N_CLASSES)).astype(dtype)
    dense_b = np.zeros(N_CLASSES, dtype=dtype)
    return ModelParams(kernels, biases, dense_w, dense_b)


# -- layer primitives ----------------------------------------------------

_POOL_OFFSETS = ((0, 0), (0, 1), (1, 0), (1, 1))
_PHASE_IDS = np.arange(4, dtype=np.int8).reshape(4, 1, 1)  # slot ids, on a phase axis

def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, or every CPU where the
    platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(ws, n: int, workers: int, work, first=None):
    """Call work(w, i) once for every example i < n, where w < workers names
    the worker that runs it and so its scratch slice; returns first().

    Each worker takes the next unclaimed example until none is left. The
    caller's thread is worker 0 and ws's pool runs the rest; the caller calls
    `first` (when given) before it takes an example, so that work overlaps
    the pool's. One worker runs inline and never touches the pool. Returns
    once every example is done.
    """
    pending, lock = iter(range(n)), threading.Lock()

    def drain(w):
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            work(w, i)

    futures = []
    if workers > 1:
        if ws.pool is None or ws.pool_pid != os.getpid():  # unbuilt, or a forked copy
            ws.pool = ThreadPoolExecutor(usable_cpus() - 1, thread_name_prefix="lungsound-nn")
            ws.pool_pid = os.getpid()
        futures = [ws.pool.submit(drain, w) for w in range(1, workers)]
    try:
        result = first() if first is not None else None
        drain(0)
    finally:
        wait(futures)  # no worker outlives the call whose buffers it writes
    for f in futures:
        f.result()
    return result


@dataclass(eq=False)
class Workspace:
    """The execution context of forwards and backwards: `rows` is the largest
    batch it is sized for, `buffers` maps a role (pooled{k}, idx{k}, dkernel;
    one example per worker, patches, scratch, live) to its flat buffer (see
    _empty), `forwards` counts forwards, `pool` is the block pool (see
    _run_blocks), built in process `pool_pid`, and `generators` holds each
    worker's PCG64 for its dropout draws (see _DropStream)."""

    rows: int
    forwards: int = 0
    buffers: dict = field(default_factory=dict)
    pool: ThreadPoolExecutor | None = field(default=None, init=False, repr=False)
    pool_pid: int = field(default=0, init=False, repr=False)
    generators: list = field(default_factory=list, init=False, repr=False)


def _empty(ws, role, shape, dtype, per_worker=False):
    """A view of shape and dtype on role's buffer in the workspace ws.

    shape is (examples, ...) for a whole batch, or, per_worker, (workers,
    ...): one example per worker, as _run_blocks hands them out. A buffer is
    sized for as many examples as that request spans at ws.rows (for
    min(usable_cpus(), ws.rows) workers), or for as many as it spans now when
    more; an old one is freed first.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if role not in ws.buffers or ws.buffers[role].size < nbytes:
        ws.buffers.pop(role, None)
        n, cap = shape[0], min(usable_cpus(), ws.rows) if per_worker else ws.rows
        ws.buffers[role] = np.empty(nbytes // max(1, n) * max(n, cap), np.uint8)
    return ws.buffers[role][:nbytes].view(dtype).reshape(shape)


def _phase_patches(x: np.ndarray, out: np.ndarray) -> None:
    """Write the 2x2 patches of a (B, H, W, C) batch, grouped by example and
    pool phase, into the contiguous (B, 4, Hp, Wp, 2, 2, C) array out.

    out[b, 2*di + dj, i, j] is, for i < Hp = (H-1)//2 and j < Wp = (W-1)//2,
    example b's patch whose conv output sits at (2i + di, 2j + dj): slot
    (di, dj) of pool window (i, j). The odd trailing conv row and column that
    pooling drops get no patch.
    """
    b, h, w, c = x.shape
    hp, wp = (h - 1) // 2, (w - 1) // 2
    # phase axes first: out[di, dj] is every example's phase (di, dj)
    out = out.reshape(b, 2, 2, hp, wp, 2, 2, c, copy=False).transpose(1, 2, 0, 3, 4, 5, 6, 7)
    # pairs[r][q][b, i, u, j, v] is x[b, r + 2i + u, q + 2j + v]. Not as_strided: its
    # interned keys regrew the ~1 MB intern table on any worker, so the heap varied by run
    pairs = [[x[:, r:r + 2 * hp, q:q + 2 * wp].reshape(b, hp, 2, wp, 2, c, copy=False)
              for q in range(2)] for r in range(2)]
    if c == 1:
        # a whole-patch copy would move one element per inner loop here;
        # copying tap by tap runs it along a row of windows (~4x faster)
        for ki, kj in _POOL_OFFSETS:
            out[..., ki, kj, :] = pairs[ki][kj].transpose(2, 4, 0, 1, 3, 5)
    else:
        for di, dj in _POOL_OFFSETS:
            out[di, dj] = pairs[di][dj].transpose(0, 1, 3, 2, 4, 5)


def _conv_forward(x, kernel, bias, keep_trace, ws, stage, drops=None):
    """Fused valid 2x2 conv -> ReLU -> 2x2/stride-2 max pool of a (B, H, W, C) batch.

    The conv is evaluated at the four pool phases, and pooling is the
    elementwise max of the four phase maps. Bias and ReLU are applied once, on
    the pooled map; rounding is monotone, so max(fl(a+b), fl(c+b)) ==
    fl(max(a, c) + b) and the result equals conv+bias -> ReLU -> pool exactly.
    The batch runs one example per block on ws's block pool, each example's
    phase patches in its worker's scratch and each phase in one GEMM, and the
    arrays come from ws (see the module docstring). With `drops`, the
    _DropStream of a training forward, each block then applies dropout to its
    example with the draws at that example's place in the stream. Returns
    (pooled, idx); idx is the within-window argmax slot (row-major, first
    occurrence on ties, taken before the bias is added), None unless
    keep_trace.
    """
    b, h, w, c_in = x.shape
    c_out = kernel.shape[3]
    if kernel.shape[:3] != (2, 2, c_in) or h < 3 or w < 3:
        raise ShapeMismatch(f"conv stage: input {x.shape} vs kernel {kernel.shape}")
    hp, wp = (h - 1) // 2, (w - 1) // 2
    dtype = np.result_type(x.dtype, kernel.dtype)
    k2 = kernel.reshape(4 * c_in, c_out)
    workers = min(usable_cpus(), b)
    out = _empty(ws, f"pooled{stage}", (b, hp, wp, c_out), dtype)
    z = _empty(ws, "scratch", (workers, 4, hp, wp, c_out), dtype, per_worker=True)
    patches = _empty(ws, "patches", (workers, 4, hp, wp, 2, 2, c_in), x.dtype, per_worker=True)
    bias_row = np.tile(bias, wp)  # one pooled row: long inner loops for the add
    idx = _empty(ws, f"idx{stage}", out.shape, np.int8) if keep_trace else None
    if drops is not None:
        first = drops.stage(out.size)
        ws.generators += [np.random.PCG64(0) for _ in range(workers - len(ws.generators))]

    def block(w, i):
        zb = z[w]
        _phase_patches(x[i:i + 1], patches[w:w + 1])
        # one GEMM per phase: at stage 0 one over all four is ~2x slower
        np.matmul(patches[w].reshape(4, -1, 4 * c_in), k2, out=zb.reshape(4, -1, c_out))
        if keep_trace:
            # the argmax column of each window row: [0] the top, [1] the bottom
            col = (zb[1::2] > zb[0::2]).view(np.int8)
        # the window rows' maxima overwrite phases 0 and 2: no float temporaries
        top, bottom = np.maximum(zb[0::2], zb[1::2], out=zb[0::2])
        o = out[i]
        np.maximum(top, bottom, out=o)
        o.reshape(hp, wp * c_out, copy=False)[...] += bias_row
        np.maximum(o, 0, out=o)
        if drops is not None:
            drops.apply(ws.generators[w], o, first + i * o.size)
        if keep_trace:
            # branch-free select of the slot; np.where is several times slower
            # on masks as irregular as these
            lower = (bottom > top).view(np.int8)
            idx[i] = col[0] + lower * (col[1] + 2 - col[0])

    _run_blocks(ws, b, workers, block)
    return out, idx


def _conv_backward(dy, x, kernel, x_shape, need_dx, idx, ws, scale):
    """Backward of the fused stage; returns (dx, dkernel, dbias).

    dy is the masked gradient at the pooled map (see backward_from_dp), x the
    stage's input, x_shape its shape (the benchmark's tracer reads it by
    position) and idx from _conv_forward. Each example, a block on ws's
    pool, rebuilds its patches from x and masks its phase gradients dy *
    (idx == p), all four phases in one broadcast, into its worker's scratch,
    so its kernel gradient is one GEMM, into a partial the caller sums in
    example order (db runs there meanwhile). dx is one GEMM per kernel row,
    written over a half of the spent patches and added into that example of
    x phase by phase, a row of windows at a time (a phase's 2x2 taps cover
    disjoint pixels), then masked by x > 0 and multiplied by scale, as dy was.
    """
    b, _, _, c_in = x_shape
    c_out = kernel.shape[3]
    hp, wp = dy.shape[1:3]
    workers = min(usable_cpus(), b)
    patches = _empty(ws, "patches", (workers, 4, hp, wp, 2, 2, c_in), x.dtype, per_worker=True)
    dz = _empty(ws, "scratch", (workers, 4, hp * wp, c_out), dy.dtype, per_worker=True)
    partials = _empty(ws, "dkernel", (b, 4 * c_in, c_out), dy.dtype)
    if need_dx:
        dx = x
        live = _empty(ws, "live", (workers, *x_shape[1:]), bool, per_worker=True)
        k_rows = kernel.reshape(2, 2 * c_in, c_out).transpose(0, 2, 1)  # one per kernel row

    def block(w, i):
        pc, dzb = patches[w], dz[w]
        _phase_patches(x[i:i + 1], patches[w:w + 1])
        np.multiply(dy[i].reshape(1, hp * wp, c_out),
                    idx[i].reshape(1, hp * wp, c_out) == _PHASE_IDS, out=dzb)
        np.matmul(pc.reshape(1, 4 * hp * wp, 4 * c_in).transpose(0, 2, 1),
                  dzb.reshape(1, 4 * hp * wp, c_out), out=partials[i:i + 1])
        if not need_dx:
            return
        keep = np.greater(x[i], 0, out=live[w])
        # g[ki, phase, m] holds taps (kj, c) of kernel row ki for a row of windows
        g = np.matmul(dzb.reshape(1, -1, c_out), k_rows, out=pc.reshape(2, -1, 2 * c_in))
        g = g.reshape(2, 4, hp, wp * 2 * c_in)
        dx[i] = 0
        for phase, (di, dj) in enumerate(_POOL_OFFSETS):
            for ki in range(2):
                # dx rows 2m + di + ki and columns (2j + dj + kj, c) of all windows (m, j)
                r = di + ki
                d = dx[i, r:r + 2 * hp:2, dj:dj + 2 * wp].reshape(hp, wp * 2 * c_in, copy=False)
                d += g[ki, phase]
        np.multiply(dx[i], keep, out=dx[i])
        dx[i] *= scale

    # einsum sums each channel in row order, as sum(axis=0) does, ~4x faster
    db = _run_blocks(ws, b, workers, block, lambda: np.einsum("ij->j", dy.reshape(-1, c_out)))
    dkernel = partials.sum(axis=0).reshape(2, 2, c_in, c_out)
    return (dx if need_dx else None), dkernel, db


def _maxpool_core(x: np.ndarray) -> np.ndarray:
    """Unfused 2x2/stride-2 max pool; trailing odd rows/columns are dropped.

    The network pools inside _conv_forward; this serves the tests' oracle.
    Held in src/ because perfbench/tracing.py wraps it by name (ROADMAP item 5).
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
    Held in src/ because perfbench/tracing.py wraps it by name (ROADMAP item 5).
    """
    b, h, w, c = x_shape
    hp, wp = h // 2, w // 2
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for slot, (di, dj) in enumerate(_POOL_OFFSETS):
        dx[:, di:2 * hp:2, dj:2 * wp:2, :] += dy * (idx == slot)
    return dx


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(1, 2))


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b for (B, C) rows, as a per-row product summed in input order.

    A GEMM rounds a row by the row count; this gives a row the same bits
    whatever rows share the call.
    """
    if x.shape[-1] != w.shape[0]:
        raise ShapeMismatch(f"dense: input {x.shape} vs weight {w.shape}")
    return (x[..., :, None] * w).sum(axis=-2) + b


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; the head is tiny so it always runs in float64."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(p, dp):
    return p * (dp - (dp * p).sum(axis=-1, keepdims=True))


def _drop_threshold() -> int:
    """Dropout drops an entry whose uint16 draw is below this:
    round(DROPOUT_RATE * 2**16), so the realised rate is threshold / 65536."""
    return round(DROPOUT_RATE * 65536)


def _keep_scale(dtype):
    """The survivor scale of inverted dropout, 65536 / (65536 - threshold),
    the inverse of the realised keep probability, in dtype."""
    return dtype.type(65536) / dtype.type(65536 - _drop_threshold())


class _DropStream:
    """The dropout draws of one forward (or one dropout call), by position in
    the uint16 stream of a PCG64 generator; see the module docstring.

    `base` is the generator's state with no buffered half, rewound one word
    when it held one (`head`, the high half of that word); positions count
    uint16 values from base's first word, and `end` is where the next stage's
    draws start.
    """

    def __init__(self, rng: np.random.Generator):
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise ValueError(f"dropout needs a PCG64 generator, got "
                             f"{type(rng.bit_generator).__name__}")
        self.rng = rng
        state = rng.bit_generator.state
        self.head = state["uinteger"] if state["has_uint32"] else None
        gen = np.random.PCG64(0)
        gen.state = {**state, "has_uint32": 0}
        if self.head is not None:
            gen.advance(-1)
        self.base = gen.state
        self.end = 0 if self.head is None else 2

    def stage(self, count: int) -> int:
        """The position of the first of count draws; the next stage starts at
        the next even position, as a call that draws an odd count drops its
        last half word."""
        start = self.end
        self.end += count + count % 2
        return start

    def apply(self, gen, x: np.ndarray, first: int) -> None:
        """Inverted dropout of x in place, with the draws at positions first,
        first + 1, ..., taken by the PCG64 gen (whose state this overwrites)."""
        w0 = first // 4
        gen.state = self.base
        gen.advance(w0)
        raw = gen.random_raw(-(-(first + x.size) // 4) - w0)
        if w0 == 0 and self.head is not None:
            raw[0] = self.head << 32  # the buffered half, whatever drew since
        draws = raw.astype("<u8", copy=False).view("<u2")[first - 4 * w0:][:x.size]
        np.multiply(x, draws.reshape(x.shape) >= _drop_threshold(), out=x)
        x *= _keep_scale(x.dtype)

    def finish(self) -> None:
        """Leave the generator as drawing the stream in uint16 calls would:
        past the last 32-bit half used, the last word's high half buffered
        when that half is unused."""
        halves = self.end // 2
        if halves == 0:
            return
        bg, words = self.rng.bit_generator, (halves + 1) // 2
        bg.state = self.base
        bg.advance(words - 1)
        last = int(bg.random_raw())
        if words == 1 and self.head is not None:
            last = self.head << 32
        bg.state = {**bg.state, "has_uint32": halves % 2, "uinteger": last >> 32}


def dropout(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverted dropout in place: zero each entry of x whose uint16 draw is
    below _drop_threshold(), scale survivors by _keep_scale; returns x.

    The draws are one full-shape uint16 draw from rng, a PCG64 generator
    (ValueError otherwise), taken as raw words; x is multiplied by its keep
    mask (draws >= threshold) and then by the scale, and rng ends where that
    draw leaves it.
    """
    stream = _DropStream(rng)
    stream.apply(rng.bit_generator, x, stream.stage(x.size))
    stream.finish()
    return x


# -- full network --------------------------------------------------------

@dataclass
class ForwardTrace:
    """Intermediate activations retained for the backward pass, which reads
    each stage's input off x and pool_out."""

    params: ModelParams
    training: bool                      # dropout at DROPOUT_RATE ran after each stage
    x: np.ndarray                       # (B, H, W, 1)
    workspace: Workspace                # the stage arrays below are views of its buffers
    stamp: int                          # workspace.forwards once this forward began
    # conv_cols and drop_masks are always empty (the backward rebuilds patches,
    # dropout keeps no mask); perfbench/tracing.py reads them (ROADMAP item 5)
    conv_cols: list = field(default_factory=list)
    pool_out: list = field(default_factory=list)     # pooled maps, after dropout in training
    pool_idx: list = field(default_factory=list)
    drop_masks: list = field(default_factory=list)
    dense_in: np.ndarray = None         # (B, C_last)
    logits: np.ndarray = None
    probs: np.ndarray = None
    spent: bool = False                 # a backward overwrote the maps with gradients


def forward_batch(params: ModelParams, xs: np.ndarray, training: bool = False,
                  rng: np.random.Generator | None = None,
                  keep_trace: bool | None = None, ws: Workspace | None = None):
    """Forward pass over a (B, H, W) batch; returns (probs, trace).

    When training, each stage's pooled map gets dropout at DROPOUT_RATE, whose
    draws `rng`, a PCG64 generator, supplies (see the module docstring).
    keep_trace (default: training) keeps the backward-pass intermediates. The
    stage arrays, and so the trace, live in the buffers of `ws`, or of a
    workspace built for this batch when none is given. No caller in src/
    passes keep_trace; perfbench/workloads.py does, and perfbench/tracing.py
    sizes the trace it leaves (ROADMAP item 5).
    """
    if training and rng is None:
        raise ValueError("training forward with dropout needs an rng")
    if keep_trace is None:
        keep_trace = training
    drops = _DropStream(rng) if training else None
    a = np.ascontiguousarray(xs, dtype=params.dtype)[..., None]
    if ws is None:
        ws = Workspace(len(a))
    ws.forwards += 1
    trace = ForwardTrace(params=params, training=training, x=a, workspace=ws,
                         stamp=ws.forwards)
    for k, (kernel, bias) in enumerate(zip(params.conv_kernels, params.conv_biases)):
        a, idx = _conv_forward(a, kernel, bias, keep_trace, ws, k, drops)
        if keep_trace:
            trace.pool_out.append(a)
            trace.pool_idx.append(idx)
    if training:
        drops.finish()
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


def backward_from_dp(trace: ForwardTrace, dp: np.ndarray) -> ModelParams:
    """Backpropagate dL/dprobs through a kept trace; returns gradients. Each
    pooled map is overwritten by its gradient, masked by map > 0 and scaled
    by the survivor scale in training, which spends the trace."""
    params = trace.params
    trace.spent = True
    dlogits = _softmax_backward(trace.probs, dp).astype(params.dtype)
    grads = params.zeros_like()
    grads.dense_w[:] = trace.dense_in.T @ dlogits
    grads.dense_b[:] = dlogits.sum(axis=0)
    da = dlogits @ params.dense_w.T
    dy = trace.pool_out[-1]
    np.multiply(da[:, None, None, :] / (dy.shape[1] * dy.shape[2]), dy > 0, out=dy)
    scale = _keep_scale(params.dtype) if trace.training else params.dtype.type(1)
    dy *= scale
    for i in reversed(range(len(params.conv_kernels))):
        x_in = trace.pool_out[i - 1] if i else trace.x
        dy, dk, db = _conv_backward(dy, x_in, params.conv_kernels[i], x_in.shape, i > 0,
                                    trace.pool_idx[i], trace.workspace, scale)
        grads.conv_kernels[i][:] = dk
        grads.conv_biases[i][:] = db
    return grads


def loss_and_backward(trace: ForwardTrace, target: np.ndarray, loss_kind: str):
    """Loss plus gradients, with respect to the parameters the trace holds,
    for a trace produced by forward_batch().

    Raises StaleTrace when the trace was not kept, was reused by a later
    forward through its workspace, or was spent by a backward.
    """
    if trace.probs is None:
        raise StaleTrace("trace was not kept (forward ran with keep_trace=False)")
    if trace.stamp != trace.workspace.forwards:
        raise StaleTrace("a later forward reused this trace's workspace buffers")
    if trace.spent:
        raise StaleTrace("this trace's backward already ran: its maps hold gradients")
    targets = np.asarray(target, dtype=trace.probs.dtype)
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


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState, lr: float):
    """One Adam update with bias correction (ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
    at learning rate lr; params and state update in place."""
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    # a step that overflows float32 is refused by weighted_gradient_step's
    # finiteness check, so numpy need not warn about it too
    with np.errstate(over="ignore", invalid="ignore"):
        for p, g, m, v in zip(params.arrays(), grads.arrays(),
                              state.m.arrays(), state.v.arrays()):
            if p.shape != g.shape:
                raise ShapeMismatch(f"adam: param {p.shape} vs grad {g.shape}")
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return params, state


def weighted_gradient_step(params: ModelParams, opt_state: AdamState, terms,
                           rng: np.random.Generator, lr: float, ws: Workspace) -> list:
    """One Adam step on a weighted sum of loss terms; params and opt_state
    update in place.

    Each term is (weight, xs, targets, loss_kind); zero-weight or empty
    terms are skipped outright so they cost nothing and leave the arithmetic
    of the remaining terms untouched. The terms' training forwards draw their
    dropout masks from `rng` in term order, and their forwards and backwards
    run in `ws`. Returns one loss per term (0.0 for skipped ones). Raises
    NonFiniteLoss on a non-finite loss or gradient, or when the update leaves
    a parameter non-finite, so such parameters never outlive the step.
    """
    total_grads = None
    losses = []
    for weight, xs, targets, loss_kind in terms:
        if weight == 0.0 or len(xs) == 0:
            losses.append(0.0)
            continue
        _, trace = forward_batch(params, xs, training=True, rng=rng, ws=ws)
        loss, grads = loss_and_backward(trace, targets, loss_kind)
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
        adam_step(params, total_grads, opt_state, lr)
        if not params.all_finite():
            raise NonFiniteLoss("non-finite parameters after the Adam step")
    return losses


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
        if not isinstance(metadata, dict):
            raise MalformedHeader(f"{path}: checkpoint metadata is not a JSON object")

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
