"""The benchmark's tracer wraps nn, ssl and training functions and reads trace
fields and call arguments by name and position.

Renaming one of them would otherwise only show up in a traced benchmark run.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lungsound import dataset, nn, ssl, training
from lungsound.rng import substream

import nn_oracle as oracle

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_one_training_step(rng):
    tracing = _load_tracing()
    spec = nn.CnnSpec(channels=(2, 3))
    params = nn.init_params(substream(0, "init"), spec)
    xs = rng.normal(size=(4, 8, 16)).astype(np.float32)
    ys = np.eye(6, dtype=np.float32)[[0, 1, 2, 3]]
    originals = {name: getattr(nn, name) for name in ("_conv_forward", "_conv_backward")}
    tracer = tracing.Tracer()
    tracing.install(tracer, spec.channels)
    try:
        nn.weighted_gradient_step(params, nn.AdamState.for_params(params),
                                  [(1.0, xs, ys, "cross_entropy")],
                                  substream(0, "dropout", 0, 0, 0), 1e-3, nn.Workspace(len(xs)))
        nn.forward_batch(params, xs)
    finally:
        tracer.uninstall()
    # the blocks run inside the hooked calls: one span per stage per pass;
    # dropout is drawn inside the conv forward's blocks, so no dropout span
    names = Counter(s[tracing.NAME] for s in tracer.spans)
    for k in range(len(spec.channels)):
        assert names[f"nn.conv_forward.stage{k}"] == 2  # training and inference forward
        assert names[f"nn.dropout.stage{k}"] == 0
        assert names[f"nn.conv_backward.stage{k}"] == 1
    assert all(getattr(nn, name) is fn for name, fn in originals.items())
    m = tracing.layer_metrics(tracer.spans, 1, 1, spec.channels)
    for k in range(len(spec.channels)):
        assert m[f"nn.conv_forward.stage{k}.s"] > 0
        assert m[f"nn.conv_backward.stage{k}.s"] > 0
        assert m[f"nn.dropout.stage{k}.s"] == 0
    assert m["nn.weighted_gradient_step.calls"] == 1
    assert m["nn.trace_mb"] > 0
    # the FLOP counts read the stage input and kernel off _conv_forward's
    # arguments 0 and 1 and _conv_backward's 3 (x_shape), 2 (kernel) and 4
    # (need_dx): two forwards per stage, and a backward that skips dx at stage 0
    shapes = oracle.layer_shapes(spec, xs.shape[1:])
    flops = 0.0
    for k, c_out in enumerate(spec.channels):
        (_, _, c_in), (conv_h, conv_w, _) = shapes[2 * k], shapes[2 * k + 1]
        one = 2.0 * len(xs) * conv_h * conv_w * 4 * c_in * c_out
        flops += one * (2 + (2 if k else 1))
    assert m["nn.conv.gflop"] * 1e9 == pytest.approx(flops, rel=1e-12)


def test_tracer_hooks_training_passes(rng):
    tracing = _load_tracing()
    n = 18  # three recordings per class: one test, one labeled, one unlabeled
    cache = dataset.FeatureCache(
        ids=np.arange(n), classes=np.arange(n) % 6, config_hash=b"\x00" * 32,
        matrices=rng.normal(size=(n, 40, 862)).astype(np.float32))
    split = dataset.make_splits({i: i % 6 for i in range(n)}, seed=0, unlabeled_fraction=0.5)
    cfg = training.TrainConfig(epochs=1, refit_epochs=1, batch_size=8, mode="semi",
                               validation_fraction=0.0)
    originals = [(m, name, getattr(m, name)) for m, name in
                 [(training, "run_supervised_epoch"), (training, "run_mixmatch_epoch"),
                  (training, "_run_co_pass"), (ssl, "mixmatch"),
                  (ssl, "co_refinement_step"), (ssl, "co_refurbishing_step")]]
    tracer = tracing.Tracer()
    tracing.install(tracer, nn.CnnSpec().channels)
    try:
        training.train_semi(cfg, cache, split)
    finally:
        tracer.uninstall()
    assert all(getattr(m, name) is fn for m, name, fn in originals)
    names = Counter(s[tracing.NAME] for s in tracer.spans)
    m = tracing.layer_metrics(tracer.spans, 1, 1, nn.CnnSpec().channels)
    for p in ("supervised", "mixmatch", "co_refinement", "co_refurbishing"):
        assert m[f"training.pass.{p}.s"] > 0, p
    assert m["ssl.target_forward.examples"] > 0
    # dropout runs inside each training forward's conv stages, in no span of its own
    forwards = names["nn.forward_batch.train"]
    assert forwards > 0
    for k in range(len(nn.CnnSpec().channels)):
        assert names[f"nn.conv_forward.stage{k}"] >= forwards, k
        assert names[f"nn.dropout.stage{k}"] == 0, k
    assert m["nn.trace_mb"] > 0
    # the training path still reads the cache through the traced gather and _prepare
    assert m["dataset.FeatureCache.gather.calls"] > 0
    assert m["training.prepare.s"] > 0
