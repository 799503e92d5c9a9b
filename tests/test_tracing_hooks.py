"""The benchmark's tracer wraps nn functions and trace fields by name.

Renaming one of them would otherwise only show up in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from lungsound import nn
from lungsound.rng import substream

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_one_training_step(rng):
    tracing = _load_tracing()
    spec = nn.CnnSpec(input_shape=(8, 16), channels=(2, 3))
    params = nn.init_params(substream(0, "init"), spec)
    xs = rng.normal(size=(4, 8, 16)).astype(np.float32)
    ys = np.eye(6, dtype=np.float32)[[0, 1, 2, 3]]
    originals = {name: getattr(nn, name) for name in ("_conv_forward", "_conv_backward")}
    tracer = tracing.Tracer()
    tracing.install(tracer, spec.channels)
    try:
        nn.weighted_gradient_step(params, nn.AdamState.for_params(params),
                                  [(1.0, xs, ys, "cross_entropy",
                                    substream(0, "dropout", 0, 0, 0))])
    finally:
        tracer.uninstall()
    assert all(getattr(nn, name) is fn for name, fn in originals.items())
    m = tracing.layer_metrics(tracer.spans, 1, 1, spec.channels)
    for k in range(len(spec.channels)):
        assert m[f"nn.conv_forward.stage{k}.s"] > 0
        assert m[f"nn.conv_backward.stage{k}.s"] > 0
        assert m[f"nn.dropout.stage{k}.s"] > 0
    assert m["nn.weighted_gradient_step.calls"] == 1
    assert m["nn.trace_mb"] > 0
