import multiprocessing
import sys

import numpy as np
import pytest

from lungsound import nn
from lungsound.errors import MalformedHeader, NonFiniteLoss, ShapeMismatch, StaleTrace
from lungsound.rng import substream

import nn_oracle as oracle

SMALL = nn.CnnSpec(channels=(2, 3))


def test_conv2d_full_overlap_sums_input():
    x = np.arange(4, dtype=float).reshape(1, 2, 2, 1)
    out = oracle.conv2d(x, np.ones((2, 2, 1, 1)), np.zeros(1))
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 6.0


def test_conv2d_identity_kernel_crops(rng):
    x = rng.normal(size=(1, 5, 7, 1))
    k = np.zeros((2, 2, 1, 1))
    k[0, 0, 0, 0] = 1.0
    out = oracle.conv2d(x, k, np.zeros(1))
    assert np.allclose(out[0, :, :, 0], x[0, :4, :6, 0])


def test_conv2d_matches_loop_oracle(rng):
    x = rng.normal(size=(4, 4, 3))
    k = rng.normal(size=(2, 2, 3, 5))
    b = rng.normal(size=5)
    assert np.allclose(oracle.conv2d(x[None], k, b)[0], oracle.conv2d_loop(x, k, b),
                       rtol=1e-12, atol=1e-12)


def test_conv2d_shape_errors(rng):
    with pytest.raises(ShapeMismatch):
        oracle.conv2d(rng.normal(size=(1, 4, 4, 2)), rng.normal(size=(2, 2, 3, 5)), np.zeros(5))
    with pytest.raises(ShapeMismatch):
        oracle.conv2d(rng.normal(size=(1, 1, 4, 3)), rng.normal(size=(2, 2, 3, 5)), np.zeros(5))


def test_maxpool_basics():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
    out, idx = oracle.maxpool2d(x)
    assert out[0, 0, 0, 0] == 4.0
    assert idx[0, 0, 0, 0] == 3


def test_maxpool_drops_odd_trailing(rng):
    x = rng.normal(size=(1, 5, 7, 2))
    out, _ = oracle.maxpool2d(x)
    assert out.shape == (1, 2, 3, 2)


def test_maxpool_tie_routes_first_occurrence():
    x = np.full((1, 2, 2, 1), 5.0)
    out, idx = oracle.maxpool2d(x)
    assert idx[0, 0, 0, 0] == 0
    dy = np.array([[[[2.0]]]])
    dx = nn.maxpool2d_backward(dy, idx, x.shape)
    assert dx[0, 0, 0, 0] == 2.0
    assert dx.sum() == 2.0


def test_maxpool_backward_matches_manual(rng):
    x = rng.normal(size=(1, 4, 6, 3))
    out, idx = oracle.maxpool2d(x)
    dy = rng.normal(size=out.shape)
    dx = nn.maxpool2d_backward(dy, idx, x.shape)
    # each window's gradient lands on its argmax
    for i in range(2):
        for j in range(3):
            for c in range(3):
                win = x[0, 2 * i:2 * i + 2, 2 * j:2 * j + 2, c]
                got = dx[0, 2 * i:2 * i + 2, 2 * j:2 * j + 2, c]
                assert got.sum() == pytest.approx(dy[0, i, j, c])
                assert got.reshape(-1)[win.reshape(-1).argmax()] == pytest.approx(dy[0, i, j, c])


def test_relu_and_backward():
    x = np.array([-2.0, -0.0, 0.0, 3.0])
    assert np.array_equal(oracle.relu(x), [0.0, 0.0, 0.0, 3.0])
    dy = np.ones(4)
    assert np.array_equal(oracle.relu_backward(dy, x), [0.0, 0.0, 0.0, 1.0])


# conv output 7x7, 8x8 and 7x10: odd and even heights and widths
STAGE_SHAPES = [(3, 8, 8, 1), (2, 9, 9, 4), (2, 8, 11, 3)]


def _stage_case(rng, shape, c_out=5):
    x = rng.normal(size=shape).astype(np.float32)
    k = rng.normal(size=(2, 2, shape[3], c_out)).astype(np.float32)
    b = rng.normal(0.0, 0.5, size=c_out).astype(np.float32)
    return x, k, b


@pytest.mark.parametrize("shape", STAGE_SHAPES)
def test_fused_stage_forward_bit_identical(rng, shape):
    x, k, b = _stage_case(rng, shape)
    pooled, idx = nn._conv_forward(x, k, b, True, nn.Workspace(len(x)), 0)
    want, want_idx, z = oracle.stage_forward(x, k, b)
    assert pooled.dtype == np.float32
    assert np.array_equal(pooled, want)
    positive = want > 0
    assert 0 < positive.mean() < 1
    assert np.array_equal(idx[positive], want_idx[positive])
    assert np.array_equal(nn._conv_forward(x, k, b, False, nn.Workspace(len(x)), 0)[0], want)
    # the unfused pool that oracle.kink_margin uses agrees with the oracle as well
    assert np.array_equal(nn._maxpool_core(oracle.relu(z)), want)


@pytest.mark.parametrize("shape", STAGE_SHAPES)
def test_fused_stage_backward_matches_oracle(rng, shape):
    x, k, b = _stage_case(rng, shape)
    x, k, b = x.astype(np.float64), k.astype(np.float64), b.astype(np.float64)
    ws = nn.Workspace(len(x))
    pooled, idx = nn._conv_forward(x, k, b, True, ws, 0)
    _, want_idx, z = oracle.stage_forward(x, k, b)
    dy = rng.normal(size=pooled.shape)
    scale = nn._keep_scale(x.dtype)
    # dx is written over (a copy of) x, masked by x > 0 and scaled
    dx, dk, db = nn._conv_backward(dy * (pooled > 0), x.copy(), k, x.shape, True, idx, ws, scale)
    want_dx, want_dk, want_db = oracle.stage_backward(dy, x, k, z, want_idx)
    assert np.allclose(dx, want_dx * (x > 0) * scale, rtol=1e-12, atol=1e-12)
    assert np.allclose(dk, want_dk, rtol=1e-12, atol=1e-12)
    assert np.allclose(db, want_db, rtol=1e-12, atol=1e-12)
    no_dx, dk2, db2 = nn._conv_backward(dy * (pooled > 0), x, k, x.shape, False, idx, ws, scale)
    assert no_dx is None
    assert np.array_equal(dk2, dk) and np.array_equal(db2, db)


@pytest.mark.parametrize("shape", STAGE_SHAPES)
def test_phase_patches_match_im2col(rng, shape):
    # a slice of a wider map: the input need not be contiguous
    b, h, w, c = shape
    x = rng.normal(size=(b, h, w + 3, c)).astype(np.float32)[:, :, 1:-2]
    hp, wp = (h - 1) // 2, (w - 1) // 2
    got = np.full((b, 4, hp, wp, 2, 2, c), np.nan, np.float32)
    nn._phase_patches(x, got)
    cols = oracle.im2col(x).reshape(b, h - 1, w - 1, 2, 2, c)
    for p, (di, dj) in enumerate(nn._POOL_OFFSETS):
        want = cols[:, di:di + 2 * hp:2, dj:dj + 2 * wp:2]
        assert np.array_equal(got[:, p], want), p


def test_fused_stage_too_small_raises(rng):
    k = rng.normal(size=(2, 2, 1, 3)).astype(np.float32)
    b = np.zeros(3, dtype=np.float32)
    for shape in [(1, 2, 5, 1), (1, 5, 2, 1)]:
        with pytest.raises(ShapeMismatch):
            nn._conv_forward(np.zeros(shape, np.float32), k, b, True, nn.Workspace(1), 0)
    with pytest.raises(ShapeMismatch):
        nn._conv_forward(np.zeros((1, 5, 5, 2), np.float32), k, b, True, nn.Workspace(1), 0)
    # the second stage sees a 2x7 map: the conv would leave a single row
    params = nn.init_params(substream(0, "init"), SMALL)
    with pytest.raises(ShapeMismatch):
        nn.forward_batch(params, np.zeros((1, 5, 16), np.float32))


def test_inference_bit_identical_to_unfused_network(rng):
    params = nn.init_params(substream(6, "init"))
    for bias in params.conv_biases:
        bias[:] = rng.normal(0.0, 0.05, size=bias.shape)
    xs = rng.normal(size=(2, 40, 862)).astype(np.float32)
    probs, _ = nn.forward_batch(params, xs, training=False)
    assert np.array_equal(probs, oracle.forward_probs(params, xs))


def _same_bytes(got, want):
    return all(g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
               for g, w in zip(got, want, strict=True))


def _matmul_rounding_by_row_count(monkeypatch):
    """Make np.matmul scale each product by a factor that depends on how many
    rows the call computes: a BLAS whose rounding of a row depends on the
    row count, as the kernels of some builds do."""
    matmul = np.matmul

    def rounding(a, b, out=None):
        got = matmul(a, b, out=out)
        got *= 1 + 2.0 ** -20 * (a.size // a.shape[-1] % 7)
        return got

    monkeypatch.setattr(np, "matmul", rounding)


# batches of one, three, four and eleven examples on two workers
@pytest.mark.parametrize("batch", [1, 3, 4, 11])
def test_blocked_stage_is_bit_identical(monkeypatch, rng, batch):
    # a stage over the batch gives each example the bits it gets alone, even
    # on a BLAS that rounds by row count: every product is one example's
    x = rng.normal(size=(batch, 9, 12, 2)).astype(np.float32)  # 4x5 pool windows
    k = rng.normal(size=(2, 2, 2, 8)).astype(np.float32)
    b = rng.normal(0.0, 0.5, size=8).astype(np.float32)
    dy = rng.normal(size=(batch, 4, 5, 8)).astype(np.float32)
    _matmul_rounding_by_row_count(monkeypatch)
    monkeypatch.setattr(nn, "usable_cpus", lambda: 2)

    def run(s):
        ws = nn.Workspace(len(x[s]))
        pooled, idx = nn._conv_forward(x[s], k, b, True, ws, 0)
        inferred = nn._conv_forward(x[s], k, b, False, nn.Workspace(len(x[s])), 0)[0]
        masked = dy[s] * (pooled > 0)
        dx, dk, db = nn._conv_backward(masked, x[s].copy(), k, x[s].shape, True, idx, ws,
                                       nn._keep_scale(x.dtype))
        return pooled.copy(), idx, inferred, dx, dk, db, masked

    pooled, idx, inferred, dx, dk, db, masked = run(slice(None))
    alone = [run(slice(i, i + 1)) for i in range(batch)]
    for got, want in zip((pooled, idx, inferred, dx), zip(*alone)):
        assert _same_bytes([got], [np.concatenate(want)])
    # the caller sums the examples' kernel-gradient partials in example order,
    # and db over the whole batch
    partials = np.stack([one[4] for one in alone]).reshape(batch, -1)
    assert _same_bytes([dk], [partials.sum(axis=0).reshape(dk.shape)])
    assert _same_bytes([db], [masked.reshape(-1, 8).sum(axis=0)])
    # dropout over the batch is each example's draw in turn, and one full-shape draw
    dropped = nn.dropout(pooled.copy(), substream(1, "dropout"))
    draws = substream(1, "dropout")
    assert _same_bytes([dropped], [np.concatenate([nn.dropout(p.copy(), draws)
                                                   for p in np.split(pooled, batch)])])
    full = oracle.dropout_mask(substream(1, "dropout"), pooled.shape)
    assert _same_bytes([dropped], [pooled * full])


# entries per example: odd (15, 1, 27) and even (10)
@pytest.mark.parametrize("shape", [(7, 3, 5), (6, 1), (5, 3, 3, 3), (9, 2, 5)])
def test_blocked_dropout_is_one_full_draw(rng, shape):
    # one or, for an odd entry count, two examples per draw: every draw but
    # the last takes an even number of uint16 values, so none drops half a word
    x = rng.normal(size=shape).astype(np.float32)
    full = substream(5, "dropout")
    want = x * oracle.dropout_mask(full, shape)
    draws = substream(5, "dropout")
    got = nn.dropout(x.copy(), draws)
    assert got.tobytes() == want.tobytes()
    assert draws.bit_generator.state == full.bit_generator.state  # the stream continues alike


def _start(rng, kind):
    """Leave rng at a word boundary ("word"), holding the unused high half of
    its last word ("half"), or holding a half buffered before a later 64-bit
    draw ("stale"); returns rng."""
    if kind != "word":
        rng.integers(0, 65536, size=1, dtype=np.uint16)  # one 32-bit half: the other is kept
    if kind == "stale":
        rng.random()  # a 64-bit draw leaves the buffered half in place
    return rng


# stage maps of 231 and 75 entries per example, five examples: odd counts
# everywhere, so calls that draw whole examples drop half words at odd places
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("start", ["word", "half", "stale"])
def test_training_forward_draws_the_per_example_stream(monkeypatch, rng, workers, start):
    monkeypatch.setattr(nn, "usable_cpus", lambda: workers)
    params = nn.init_params(substream(2, "init"), nn.CnnSpec(channels=(3, 5)))
    for bias in params.conv_biases:
        bias[:] = 10.0  # every pooled entry positive, so the map shows the whole mask
    xs = rng.normal(size=(5, 15, 23)).astype(np.float32)
    got = _start(substream(3, "dropout"), start)
    _, trace = nn.forward_batch(params, xs, training=True, rng=got)
    want = _start(substream(3, "dropout"), start)
    a, ws = xs[..., None], nn.Workspace(len(xs))
    for k, (kernel, bias) in enumerate(zip(params.conv_kernels, params.conv_biases)):
        a = oracle.dropout_by_example(nn._conv_forward(a, kernel, bias, False, ws, k)[0].copy(),
                                      want)
        assert (a == 0).any() and (a > 0).any()
        assert trace.pool_out[k].tobytes() == a.tobytes(), k
    assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("start", ["word", "half", "stale"])
@pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 5, 9])
def test_dropout_is_one_uint16_draw_from_any_start(rng, start, size):
    x = rng.uniform(1.0, 2.0, size=size).astype(np.float32)
    want = _start(substream(8, "dropout"), start)
    factor = oracle.dropout_mask(want, x.shape)
    got = _start(substream(8, "dropout"), start)
    assert nn.dropout(x.copy(), got).tobytes() == (x * factor).tobytes()
    assert got.bit_generator.state == want.bit_generator.state


def test_dropout_refuses_a_generator_that_is_not_pcg64(rng):
    mt = np.random.Generator(np.random.MT19937(0))
    params = nn.init_params(substream(2, "init"), SMALL)
    with pytest.raises(ValueError, match="PCG64"):
        nn.forward_batch(params, rng.normal(size=(2, 12, 20)), training=True, rng=mt)
    with pytest.raises(ValueError, match="PCG64"):
        nn.dropout(np.ones(4, np.float32), mt)


def test_bias_gradient_sums_rows_in_order_at_production_stage0(rng):
    # 16 rows of the 40x862 grid: 130,720 rows of 16 channels, one of them all -0.0
    x = rng.normal(size=(16, 40, 862, 1)).astype(np.float32)
    k = nn.init_params(substream(2, "init")).conv_kernels[0]
    ws = nn.Workspace(len(x))
    _, idx = nn._conv_forward(x, k, np.zeros(16, np.float32), True, ws, 0)
    dy = rng.normal(size=(16, 19, 430, 16)).astype(np.float32)
    dy[..., 3] = -0.0
    _, _, db = nn._conv_backward(dy, x, k, x.shape, False, idx, ws, np.float32(1))
    assert db.tobytes() == dy.reshape(-1, 16).sum(axis=0).tobytes()


def test_batch_scores_each_row_as_alone_on_a_rounding_blas(monkeypatch, rng):
    spec = nn.CnnSpec(channels=(3, 5))
    params = nn.init_params(substream(2, "init"), spec)
    for bias in params.conv_biases:
        bias[:] = rng.normal(0.0, 0.05, size=bias.shape)
    xs = rng.normal(size=(7, 12, 20)).astype(np.float32)
    _matmul_rounding_by_row_count(monkeypatch)
    probs, _ = nn.forward_batch(params, xs)
    alone = np.concatenate([nn.forward_batch(params, xs[i:i + 1])[0] for i in range(len(xs))])
    assert probs.tobytes() == alone.tobytes()


def test_every_stage_runs_on_two_workers_at_16_rows(monkeypatch):
    monkeypatch.setattr(nn, "usable_cpus", lambda: 2)
    run_blocks, workers = nn._run_blocks, []

    def counting(ws, n, w, work, first=None):
        workers.append(w)
        return run_blocks(ws, n, w, work, first)

    monkeypatch.setattr(nn, "_run_blocks", counting)
    params = nn.init_params(substream(2, "init"))
    data = np.random.default_rng(5)
    xs = data.normal(size=(16, 40, 862)).astype(np.float32)
    ys = np.eye(6, dtype=np.float32)[data.integers(0, 6, 16)]
    nn.weighted_gradient_step(params, nn.AdamState.for_params(params),
                              [(1.0, xs, ys, "cross_entropy")], substream(3, "dropout"),
                              1e-3, nn.Workspace(16))
    assert workers == [2] * 8  # four stage forwards, then four stage backwards


def _steps_on_workers(monkeypatch, workers):
    """A 16-row and a 48-row training step (forward, backward, Adam) and a
    32-row inference forward through one workspace, and the inference forward
    again in a workspace of its own, run by `workers` workers; returns the
    bytes of every probability, gradient and updated parameter, and the
    shared workspace."""
    monkeypatch.setattr(nn, "usable_cpus", lambda: workers)
    params = nn.init_params(substream(2, "init"))
    state = nn.AdamState.for_params(params)
    ws = nn.Workspace(48)
    data = np.random.default_rng(11)
    out = []
    for i, rows in enumerate((16, 48)):
        xs = data.normal(size=(rows, 40, 862)).astype(np.float32)
        ys = np.eye(6, dtype=np.float32)[data.integers(0, 6, rows)]
        probs, trace = nn.forward_batch(params, xs, training=True,
                                        rng=substream(3, "dropout", i), ws=ws)
        _, grads = nn.loss_and_backward(trace, ys, "cross_entropy")
        nn.adam_step(params, grads, state, 1e-3)
        out += [probs, *grads.arrays(), *params.arrays()]
    xs = data.normal(size=(32, 40, 862)).astype(np.float32)
    for w in (ws, None):
        out.append(nn.forward_batch(params, xs, keep_trace=False, ws=w)[0])
    return [a.tobytes() for a in out], ws


def test_worker_count_changes_no_bit(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("one worker must run inline")

    with monkeypatch.context() as m:
        m.setattr(nn, "ThreadPoolExecutor", no_pool)
        want, ws = _steps_on_workers(m, 1)
        assert ws.pool is None
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
    try:
        for workers in (2, 4):  # 4: more workers than this machine may have CPUs
            with monkeypatch.context() as m:
                got, ws = _steps_on_workers(m, workers)
                assert got == want, workers
                assert ws.pool is not None and ws.pool._max_workers == workers - 1
    finally:
        sys.setswitchinterval(interval)


def test_workers_build_patches_without_as_strided(monkeypatch):
    # as_strided reads __array_interface__, whose key strings are interned and
    # dropped on every call, so the interpreter regrew its ~1 MB intern table
    # on whichever thread came next; on the caller's thread that landed in
    # the main heap and moved the process's peak memory from run to run
    def no_as_strided(*args, **kwargs):
        raise AssertionError("as_strided in a forward or backward")

    monkeypatch.setattr(np.lib.stride_tricks, "as_strided", no_as_strided)
    _steps_on_workers(monkeypatch, 2)


def test_forked_child_builds_its_own_pool(monkeypatch):
    monkeypatch.setattr(nn, "usable_cpus", lambda: 2)
    params = nn.init_params(substream(2, "init"))
    xs = np.random.default_rng(12).normal(size=(4, 40, 862)).astype(np.float32)
    ws = nn.Workspace(len(xs))
    want, _ = nn.forward_batch(params, xs, keep_trace=False, ws=ws)  # two workers
    assert ws.pool is not None
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def child():
        # the child's copy of ws holds a pool whose threads stayed in the parent
        sender.send_bytes(b"".join(nn.forward_batch(params, xs, keep_trace=False, ws=w)[0]
                                   .tobytes() for w in (ws, None)))

    proc = ctx.Process(target=child)
    proc.start()
    try:
        assert receiver.poll(60), "the forked child's forward did not finish"
        assert receiver.recv_bytes() == 2 * want.tobytes()
    finally:
        proc.join(10)
        if proc.is_alive():
            proc.kill()
            proc.join()
    assert proc.exitcode == 0


def test_row_scored_alone_equals_row_in_batch(rng):
    params = nn.init_params(substream(6, "init"))
    for bias in params.conv_biases:
        bias[:] = rng.normal(0.0, 0.05, size=bias.shape)
    xs = rng.normal(size=(32, 40, 862)).astype(np.float32)
    probs, trace = nn.forward_batch(params, xs, training=False, keep_trace=True)
    for i in range(len(xs)):
        alone, one = nn.forward_batch(params, xs[i:i + 1], training=False, keep_trace=True)
        # every conv stage gives a row alone the bytes it gets in the batch,
        # and so does the head, a per-row product rather than a GEMM
        assert one.dense_in.tobytes() == trace.dense_in[i:i + 1].tobytes(), i
        assert one.logits.tobytes() == trace.logits[i:i + 1].tobytes(), i
        assert alone.tobytes() == probs[i:i + 1].tobytes(), i


def test_global_avg_pool_constant():
    x = np.full((2, 3, 5, 4), 2.5)
    assert np.array_equal(nn.global_avg_pool(x), np.full((2, 4), 2.5))


def test_softmax_uniform():
    assert np.allclose(nn.softmax(np.zeros(6)), 1 / 6)


def test_softmax_stability():
    p = nn.softmax(np.array([1000.0, 1000.0, 0.0, 0.0, 0.0, 0.0]))
    assert np.isfinite(p).all()
    assert abs(p.sum() - 1.0) < 1e-9


def test_dropout_zero_fraction():
    x = np.ones(100000, dtype=np.float32)
    out = nn.dropout(x, substream(9, "dropout"))
    assert out is x  # in place
    frac = float((out == 0).mean())
    assert 0.19 <= frac <= 0.21
    survivors = out[out != 0]
    # the realised rate is 13107/65536, and survivors scale by its inverse keep rate
    assert nn._drop_threshold() == 13107
    assert np.all(survivors == np.float32(65536) / np.float32(65536 - 13107))


def test_backward_mask_order_is_bit_identical(rng):
    # the backward masks by (map after dropout > 0), then scales by s; the
    # unfused order is the dropout factor (0 or s), then (map before dropout > 0)
    pool = np.maximum(rng.normal(size=(6, 50)), 0).astype(np.float32)
    pool[:, ::7] = 0.0
    da = rng.normal(size=pool.shape).astype(np.float32)
    da[:, ::5] = -0.0
    da[:, 1::5] = 0.0
    mask = oracle.dropout_mask(substream(2, "dropout"), pool.shape)
    want = (da * mask) * (pool > 0)
    after = nn.dropout(pool.copy(), substream(2, "dropout"))
    assert after.tobytes() == (pool * mask).tobytes()
    got = (da * (after > 0)) * mask.max()  # the survivor scale
    assert got.tobytes() == want.tobytes()  # signed zeros included
    assert np.signbit(want[want == 0]).any() and not np.signbit(want[want == 0]).all()


def test_dropout_gradients_match_unfused_reference(rng):
    spec = nn.CnnSpec(channels=(3, 5))
    params = nn.init_params(substream(2, "init"), spec, dtype=np.float64)
    for bias in params.conv_biases:
        bias[:] = rng.normal(0.0, 0.05, size=bias.shape)
    xs = rng.normal(size=(3, 12, 20))
    ys = np.eye(6)[[0, 3, 5]]
    _, trace = nn.forward_batch(params, xs, training=True, rng=substream(3, "dropout"))
    _, grads = nn.loss_and_backward(trace, ys, "cross_entropy")
    # unfused stages, a full-shape mask per stage from the same stream, and a
    # backward that applies the mask before the ReLU
    draws = substream(3, "dropout")
    a, kept = xs[..., None], []
    for kernel, bias in zip(params.conv_kernels, params.conv_biases):
        pooled, idx, z = oracle.stage_forward(a, kernel, bias)
        mask = oracle.dropout_mask(draws, pooled.shape, np.float64)
        kept.append((a, z, idx, mask))
        a = pooled * mask
    probs = nn.softmax(nn.dense(nn.global_avg_pool(a), params.dense_w, params.dense_b))
    d_gap = (probs - ys) / len(ys) @ params.dense_w.T
    da = np.broadcast_to(d_gap[:, None, None, :] / (a.shape[1] * a.shape[2]), a.shape)
    for i in reversed(range(len(kept))):
        x_in, z, idx, mask = kept[i]
        da, dk, db = oracle.stage_backward(da * mask, x_in, params.conv_kernels[i], z, idx)
        assert np.allclose(grads.conv_kernels[i], dk, rtol=1e-9, atol=1e-12), i
        assert np.allclose(grads.conv_biases[i], db, rtol=1e-9, atol=1e-12), i
    assert all(np.abs(g).max() > 0 for g in grads.conv_kernels)


def _step_schedule(monkeypatch, ws, schedule):
    """Run ("step", rows) training steps (forward, backward, Adam) and
    ("infer", rows) inference forwards; returns the bytes of every result
    array and, with a workspace, its buffer identities after each operation."""
    # three stages, two of which write dx over their input
    spec = nn.CnnSpec(channels=(3, 4, 5))
    params = nn.init_params(substream(2, "init"), spec)
    state = nn.AdamState.for_params(params)
    data = np.random.default_rng(7)
    results, identities = [], []
    for i, (kind, rows) in enumerate(schedule):
        xs = data.normal(size=(rows, 24, 40)).astype(np.float32)
        if kind == "infer":
            probs, _ = nn.forward_batch(params, xs, keep_trace=False, ws=ws)
            results.append(probs.tobytes())
        else:
            ys = np.eye(6, dtype=np.float32)[data.integers(0, 6, rows)]
            probs, trace = nn.forward_batch(params, xs, training=True,
                                            rng=substream(3, "dropout", i), ws=ws)
            _, grads = nn.loss_and_backward(trace, ys, "cross_entropy")
            nn.adam_step(params, grads, state, 1e-3)
            results.append([a.tobytes() for a in [probs, *grads.arrays(), *params.arrays()]])
        if ws is not None:
            identities.append({role: id(buf) for role, buf in ws.buffers.items()})
    return results, identities


def test_workspace_steps_are_bit_identical(monkeypatch):
    schedule = [("step", 16), ("step", 8), ("step", 32), ("step", 16)]
    want, _ = _step_schedule(monkeypatch, None, schedule)
    ws = nn.Workspace(32)
    got, identities = _step_schedule(monkeypatch, ws, schedule)
    assert got == want
    # the first step, below capacity, sized every buffer for 32 rows
    assert all(ids == identities[0] for ids in identities)
    assert set(ws.buffers) == {*(f"{role}{k}" for role in ("pooled", "idx") for k in range(3)),
                               "dkernel", "patches", "scratch", "live"}
    assert ws.forwards == len(schedule)


def test_workspace_inference_between_steps(monkeypatch):
    schedule = [("step", 16), ("infer", 32), ("infer", 5), ("step", 8)]
    want, _ = _step_schedule(monkeypatch, None, schedule)
    got, identities = _step_schedule(monkeypatch, nn.Workspace(32), schedule)
    assert got == want
    assert all(ids == identities[0] for ids in identities)


def test_workspace_grows_past_capacity(monkeypatch):
    schedule = [("step", 4), ("step", 9), ("step", 4)]
    want, _ = _step_schedule(monkeypatch, None, schedule)
    got, identities = _step_schedule(monkeypatch, nn.Workspace(4), schedule)
    assert got == want
    assert identities[1]["pooled0"] != identities[0]["pooled0"]
    assert identities[2] == identities[1]


def test_training_workspace_stays_under_per_row_bound(monkeypatch):
    # a 32-row production-geometry step, its blocks shared by two workers
    monkeypatch.setattr(nn, "usable_cpus", lambda: 2)
    rows, workers, spec = 32, 2, nn.CnnSpec()
    params = nn.init_params(substream(2, "init"), spec)
    data = np.random.default_rng(5)
    xs = data.normal(size=(rows, 40, 862)).astype(np.float32)
    ys = np.eye(6, dtype=np.float32)[data.integers(0, 6, rows)]
    ws = nn.Workspace(rows)
    nn.weighted_gradient_step(params, nn.AdamState.for_params(params),
                              [(1.0, xs, ys, "cross_entropy")], substream(3, "dropout"),
                              1e-3, ws)
    shapes = oracle.layer_shapes(spec, (40, 862))
    pooled = [np.prod(s) for s in shapes[2:-2:2]]
    inputs = [np.prod(shapes[0])] + pooled[:-1]
    c_in = (1,) + spec.channels[:-1]
    phase_rows = [4 * p * 4 for p in pooled]  # phase conv output or its gradient, float32
    patch_rows = [4 * p // c * 4 * ci * 4 for p, c, ci in zip(pooled, spec.channels, c_in)]
    # what every row needs: its pooled maps (float32) and argmax slots (int8)
    # and its kernel-gradient partial; dx is written over the pooled maps
    per_row = 5 * sum(pooled) + max(4 * ci * c * 4 for ci, c in zip(c_in, spec.channels))
    # each worker's one-example blocks of patches (a patch row is at most two
    # phase rows, and holds the dx products too), phase output, and input mask
    # (bool, at most one phase row)
    block = max(phase_rows)
    assert all(p <= 2 * f for p, f in zip(patch_rows, phase_rows))
    assert all(i <= f for i, f in zip(inputs[1:], phase_rows[1:]))
    total = sum(buf.nbytes for buf in ws.buffers.values())
    assert total <= rows * per_row + workers * 4 * block
    # no patch matrix or phase-stacked conv gradient for the whole batch
    assert max(buf.nbytes for buf in ws.buffers.values()) < rows * min(max(patch_rows),
                                                                        max(phase_rows))


def test_forward_zero_params_uniform():
    params = nn.init_params(substream(0, "init")).zeros_like()
    probs, _ = nn.forward_batch(params, np.zeros((1, 40, 862)))
    assert np.allclose(probs, 1 / 6)


def test_forward_probability_contract(rng):
    params = nn.init_params(substream(1, "init"))
    probs, _ = nn.forward_batch(params, rng.normal(size=(3, 40, 862)).astype(np.float32))
    assert (probs >= 0).all()
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


def test_forward_shape_chain(rng):
    spec = nn.CnnSpec()
    params = nn.init_params(substream(2, "init"), spec)
    _, trace = nn.forward_batch(params, rng.normal(size=(1, 40, 862)).astype(np.float32),
                                training=False, keep_trace=True)
    shapes = oracle.layer_shapes(spec, (40, 862))
    pool_shapes = shapes[2::2][:4]
    assert [t.shape[1:] for t in trace.pool_out] == pool_shapes
    assert trace.dense_in.shape == (1, 128)
    assert trace.logits.shape == (1, 6)


def test_parameter_count():
    spec = nn.CnnSpec()
    assert oracle.param_count(spec) == 44086
    assert sum(a.size for a in nn.init_params(substream(0, "init"), spec).arrays()) == 44086


def test_loss_values():
    onehot = np.eye(6)[2]
    assert oracle.loss_value(onehot[None], onehot[None], "cross_entropy") == 0.0
    assert oracle.loss_value(onehot[None], onehot[None], "squared_error") == 0.0
    uniform = np.full((1, 6), 1 / 6)
    assert abs(oracle.loss_value(uniform, onehot[None], "cross_entropy") - np.log(6)) < 1e-12
    with pytest.raises(ValueError):
        oracle.loss_value(uniform, onehot[None], "huber")


def test_stale_trace_detected(rng):
    params = nn.init_params(substream(4, "init"), SMALL)
    x = rng.normal(size=(1, 8, 16)).astype(np.float32)
    target = np.full((1, 6), 1 / 6)
    _, trace = nn.forward_batch(params, x, training=False, keep_trace=False)
    with pytest.raises(StaleTrace):
        nn.loss_and_backward(trace, target, "cross_entropy")


def test_targets_must_match_probs_shape(rng):
    params = nn.init_params(substream(4, "init"), SMALL)
    x = rng.normal(size=(1, 8, 16)).astype(np.float32)
    _, trace = nn.forward_batch(params, x, keep_trace=True)
    for target in (np.full(6, 1 / 6), np.full((2, 6), 1 / 6)):  # a lone row is not promoted
        with pytest.raises(ShapeMismatch):
            nn.loss_and_backward(trace, target, "cross_entropy")


def test_trace_reused_by_later_forward_is_stale(rng):
    params = nn.init_params(substream(4, "init"), SMALL)
    ws = nn.Workspace(2)
    x = rng.normal(size=(2, 8, 16)).astype(np.float32)
    target = np.full((2, 6), 1 / 6)
    _, first = nn.forward_batch(params, x, training=True, rng=substream(4, "dropout"), ws=ws)
    _, second = nn.forward_batch(params, x[::-1], training=True, rng=substream(5, "dropout"),
                                 ws=ws)
    with pytest.raises(StaleTrace):
        nn.loss_and_backward(first, target, "cross_entropy")
    nn.loss_and_backward(second, target, "cross_entropy")  # the latest trace is intact
    nn.forward_batch(params, x, keep_trace=False, ws=ws)  # an inference forward reuses too
    with pytest.raises(StaleTrace):
        nn.loss_and_backward(second, target, "cross_entropy")


def test_spent_trace_is_stale(rng):
    params = nn.init_params(substream(4, "init"), SMALL)
    x = rng.normal(size=(2, 8, 16)).astype(np.float32)
    target = np.full((2, 6), 1 / 6)
    _, trace = nn.forward_batch(params, x, training=True, rng=substream(4, "dropout"))
    nn.loss_and_backward(trace, target, "cross_entropy")
    # the backward wrote gradients over the trace's maps
    with pytest.raises(StaleTrace, match="backward already ran"):
        nn.loss_and_backward(trace, target, "cross_entropy")


def test_gradient_check_cross_entropy():
    max_rel, n = oracle.gradient_check(SMALL, (8, 16), seed=0, batch=1)
    assert n == oracle.param_count(SMALL)
    assert max_rel < 1e-4


def test_gradient_check_squared_error():
    max_rel, _ = oracle.gradient_check(SMALL, (8, 16), seed=0, batch=1,
                                       loss_kind="squared_error")
    assert max_rel < 1e-4


def test_adam_zero_gradient_is_identity():
    params = nn.init_params(substream(5, "init"), SMALL)
    before = params.copy()
    state = nn.AdamState.for_params(params)
    nn.adam_step(params, params.zeros_like(), state, 1e-3)
    assert all(np.array_equal(a, b) for a, b in zip(params.arrays(), before.arrays()))


def test_adam_first_step_magnitude():
    params = nn.init_params(substream(5, "init"), SMALL, dtype=np.float64)
    grads = params.zeros_like()
    for g in grads.arrays():
        g[:] = 3.7  # arbitrary constant gradient
    before = params.copy()
    nn.adam_step(params, grads, nn.AdamState.for_params(params), lr=1e-3)
    for p, q in zip(params.arrays(), before.arrays()):
        assert np.allclose(np.abs(p - q), 1e-3, rtol=1e-4)


def test_adam_converges_on_quadratic():
    # every coordinate runs the same scalar recurrence from w0 = 1
    params = nn.init_params(substream(5, "init"), SMALL, dtype=np.float64)
    for a in params.arrays():
        a[:] = 1.0
    state = nn.AdamState.for_params(params)
    for _ in range(200):
        grads = params.copy()
        for g in grads.arrays():
            g *= 2.0  # gradient of the squared norm
        nn.adam_step(params, grads, state, lr=2e-2)
    assert max(np.abs(a).max() for a in params.arrays()) < 1e-2


def test_adam_shape_mismatch():
    params = nn.init_params(substream(5, "init"), SMALL)
    grads = nn.init_params(substream(5, "init"), nn.CnnSpec(channels=(3, 5)))
    with pytest.raises(ShapeMismatch):
        nn.adam_step(params, grads, nn.AdamState.for_params(params), 1e-3)


def test_init_determinism_and_bounds():
    a = nn.init_params(substream(7, "init"))
    b = nn.init_params(substream(7, "init"))
    assert all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))
    bound = np.sqrt(6.0 / 4.0)
    assert np.abs(a.conv_kernels[0]).max() <= bound
    assert np.abs(a.conv_kernels[0]).max() > 0.8 * bound  # draws actually span the range
    for bias in a.conv_biases:
        assert np.array_equal(bias, np.zeros_like(bias))
    assert np.array_equal(a.dense_b, np.zeros(6))


def test_checkpoint_round_trip(tmp_path):
    params = nn.init_params(substream(8, "init"), SMALL)
    meta = {"seed": 8, "config_hash": "ab" * 32, "epoch": 3}
    path = tmp_path / "model.lsnn"
    nn.save_checkpoint(path, params, meta)
    loaded, meta2 = nn.load_checkpoint(path)
    assert meta2 == meta
    for a, b in zip(params.arrays(), loaded.arrays()):
        assert np.array_equal(a, b)
        assert b.dtype == np.float32


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.lsnn"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(MalformedHeader):
        nn.load_checkpoint(path)


def test_checkpoint_truncated_anywhere_is_malformed(tmp_path):
    params = nn.init_params(substream(8, "init"), SMALL)
    path = tmp_path / "model.lsnn"
    nn.save_checkpoint(path, params, {"seed": 8})
    data = path.read_bytes()
    terminator = data.rindex(b"\x00\x00{")  # zero name length, then the metadata JSON
    cut = tmp_path / "cut.lsnn"
    for offset in range(terminator + 2):
        cut.write_bytes(data[:offset])
        with pytest.raises(MalformedHeader):
            nn.load_checkpoint(cut)
    for damaged in (data[:-1],                                   # metadata JSON cut short
                    data[:terminator + 2] + b"\xff{}",           # metadata not UTF-8
                    data[:terminator + 2] + b"[1, 2]",           # metadata not an object
                    data.replace(b"dense.bias", b"dense.bxas")):  # a tensor missing
        cut.write_bytes(damaged)
        with pytest.raises(MalformedHeader):
            nn.load_checkpoint(cut)


def test_training_step_determinism(rng):
    xs = rng.normal(size=(12, 8, 16)).astype(np.float32)
    ys = np.eye(6, dtype=np.float32)[rng.integers(0, 6, 12)]

    def run():
        params = nn.init_params(substream(3, "init"), SMALL)
        state = nn.AdamState.for_params(params)
        ws = nn.Workspace(len(xs))
        for step in range(10):
            drng = substream(3, "dropout", 0, 0, step)
            nn.weighted_gradient_step(params, state, [(1.0, xs, ys, "cross_entropy")], drng,
                                      1e-3, ws)
        return params

    a, b = run(), run()
    assert all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))


def test_non_finite_loss_raises(rng):
    params = nn.init_params(substream(3, "init"), SMALL)
    xs = rng.normal(size=(2, 8, 16)).astype(np.float32)
    xs[0, 0, 0] = np.nan
    ys = np.eye(6, dtype=np.float32)[[0, 1]]
    with pytest.raises(NonFiniteLoss):
        nn.weighted_gradient_step(params, nn.AdamState.for_params(params),
                                  [(1.0, xs, ys, "cross_entropy")],
                                  substream(3, "dropout", 0, 0, 0), 1e-3, nn.Workspace(2))


def test_step_to_non_finite_parameters_raises(rng):
    # a finite loss and gradient, but a learning rate that overflows float32
    params = nn.init_params(substream(3, "init"), SMALL)
    xs = rng.normal(size=(2, 8, 16)).astype(np.float32)
    ys = np.eye(6, dtype=np.float32)[[0, 1]]
    with pytest.raises(NonFiniteLoss, match="parameters"):
        nn.weighted_gradient_step(params, nn.AdamState.for_params(params),
                                  [(1.0, xs, ys, "cross_entropy")],
                                  substream(3, "dropout", 0, 0, 0), 1e39, nn.Workspace(2))
