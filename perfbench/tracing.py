"""Spans around the calls into each lungsound module, recorded from outside.

The tracer replaces module attributes with timing wrappers, so it sees every
call the package makes through its module namespaces (the package calls its
own helpers by global name, which resolves through the same attributes).
Spans stay in memory as tuples and are written out once, at the end.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

# span tuple fields
SID, PARENT, NAME, T0, T1, RUN, SIZE = range(7)
FIELDS = ["id", "parent", "name", "start", "end", "run_id", "size"]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.run_id = None
        self._restore = []

    def wrap(self, owner, attr, name, size=None):
        """Time owner.attr as span `name` (a string, or a function of the call's
        args and kwargs). `size(args, kwargs, result)` attaches a number or a
        dict of numbers to the span; it runs after the span has closed."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_cm = isinstance(raw, classmethod)
        orig = raw.__func__ if is_cm else raw
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, label, t0, t1, self.run_id, None)
            if size is not None:
                spans[sid] = spans[sid][:SIZE] + (size(args, kwargs, result),)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
        self._restore.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def install(tracer: Tracer, channels):
    """Wrap the calls into audio_io, features, dataset, nn, ssl, training and
    evaluation. `channels` are the conv stages' output widths, which name a
    stage from the shapes its functions receive."""
    from lungsound import audio_io, dataset, evaluation, features, nn, ssl, training

    stage = {c: k for k, c in enumerate(channels)}
    w = tracer.wrap

    w(audio_io, "load_wav", "audio_io.load_wav",
      lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")))
    w(audio_io, "resample", "audio_io.resample", lambda a, k, r: len(r.samples))
    for fn in ("extract_mfcc", "mel_filterbank", "dct_matrix"):
        w(features, fn, f"features.{fn}")

    w(dataset, "build_feature_cache", "dataset.build_feature_cache")
    w(dataset.FeatureCache, "load", "dataset.FeatureCache.load",  # a[0] is the class
      lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path")))
    w(dataset.FeatureCache, "gather", "dataset.FeatureCache.gather")

    def forward_size(a, k, r):
        xs = _arg(a, k, 1, "xs")
        trace = r[1]
        kept = 0
        if trace.probs is not None:
            arrays = [trace.x, trace.dense_in, trace.logits, trace.probs, *trace.conv_cols,
                      *trace.pool_out, *trace.pool_idx, *trace.drop_masks]
            kept = sum(x.nbytes for x in arrays if x is not None)
        return {"examples": len(xs), "trace_bytes": kept}

    w(nn, "forward_batch",
      lambda a, k: "nn.forward_batch." + ("train" if _arg(a, k, 2, "training", False)
                                          else "infer"), forward_size)

    def conv_fwd_flops(a, k, r):
        b, h, wd, c_in = _arg(a, k, 0, "x").shape
        return 2.0 * b * (h - 1) * (wd - 1) * 4 * c_in * _arg(a, k, 1, "kernel").shape[3]

    def conv_bwd_flops(a, k, r):
        b, h, wd, c_in = _arg(a, k, 3, "x_shape")
        one = 2.0 * b * (h - 1) * (wd - 1) * 4 * c_in * _arg(a, k, 2, "kernel").shape[3]
        return one * (2 if _arg(a, k, 4, "need_dx", True) else 1)

    w(nn, "_conv_forward",
      lambda a, k: f"nn.conv_forward.stage{stage[_arg(a, k, 1, 'kernel').shape[3]]}",
      conv_fwd_flops)
    w(nn, "_maxpool_core",
      lambda a, k: f"nn.pool_forward.stage{stage[_arg(a, k, 0, 'x').shape[3]]}")
    w(nn, "dropout", lambda a, k: f"nn.dropout.stage{stage[_arg(a, k, 0, 'x').shape[-1]]}")
    w(nn, "maxpool2d_backward",
      lambda a, k: f"nn.pool_backward.stage{stage[_arg(a, k, 2, 'x_shape')[3]]}")
    w(nn, "_conv_backward",
      lambda a, k: f"nn.conv_backward.stage{stage[_arg(a, k, 2, 'kernel').shape[3]]}",
      conv_bwd_flops)
    for fn in ("backward_from_dp", "adam_step", "weighted_gradient_step"):
        w(nn, fn, f"nn.{fn}")

    for fn in ("mixmatch", "augment", "mixup", "co_refinement_step", "co_refurbishing_step"):
        w(ssl, fn, f"ssl.{fn}")

    labeled = lambda a, k, r: len(a[2])  # noqa: E731  xs / xs_lab is the third argument
    w(training, "run_supervised_epoch", "training.pass.supervised", labeled)
    w(training, "run_mixmatch_epoch", "training.pass.mixmatch", labeled)
    w(training, "_run_co_pass",
      lambda a, k: "training.pass." + ("co_refinement"
                                       if _arg(a, k, 7, "pass_id") == training.PASS_CO_REFINEMENT
                                       else "co_refurbishing"), labeled)
    w(training, "_accuracy", "training.validation")
    w(training, "_prepare", "training.prepare")
    w(training, "train_baseline", "training.train_baseline")
    w(training, "train_semi", "training.train_semi")
    w(training, "evaluate_split", "training.evaluate_split",
      lambda a, k, r: len(r[0]))
    w(evaluation, "confusion", "evaluation.confusion")
    w(evaluation, "report", "evaluation.report")


def summarise(spans):
    """Per span name: calls, self seconds, inclusive seconds and summed sizes."""
    child = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[T1] - s[T0]
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "size": defaultdict(float)})
    for s in spans:
        row = out[s[NAME]]
        dur = s[T1] - s[T0]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child[s[SID]]
        size = s[SIZE]
        if isinstance(size, dict):
            for key, v in size.items():
                row["size"][key] += v
        elif size is not None:
            row["size"]["n"] += size
    return out


def target_forward_examples(spans) -> int:
    """Examples through inference forwards made inside an ssl call."""
    total = 0
    for s in spans:
        if s[NAME] != "nn.forward_batch.infer":
            continue
        p = s[PARENT]
        while p >= 0 and not spans[p][NAME].startswith(("ssl.", "training.")):
            p = spans[p][PARENT]
        if p >= 0 and spans[p][NAME].startswith("ssl."):
            total += s[SIZE]["examples"]
    return total


def layer_metrics(spans, rounds: int, window_samples: int, channels) -> dict:
    """The per-layer metrics, per round of the workload (ratios and rates as is)."""
    agg = summarise(spans)

    def get(name, field="self_s"):
        row = agg.get(name)
        return 0.0 if row is None else row[field]

    def size(name, key="n"):
        row = agg.get(name)
        return 0.0 if row is None else row["size"].get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    resampled = [s[SIZE] for s in spans if s[NAME] == "audio_io.resample"]
    m = {
        "audio_io.load_wav.s": get("audio_io.load_wav"),
        "audio_io.load_wav.calls": get("audio_io.load_wav", "calls"),
        "audio_io.load_wav.mb": size("audio_io.load_wav") / 1e6,
        "audio_io.resample.s": get("audio_io.resample"),
        "audio_io.resample.samples_out": float(sum(resampled)),
    }
    for fn in ("extract_mfcc", "mel_filterbank", "dct_matrix"):
        m[f"features.{fn}.s"] = get(f"features.{fn}")
        m[f"features.{fn}.calls"] = get(f"features.{fn}", "calls")
    loads = get("dataset.FeatureCache.load", "calls")
    m.update({
        "dataset.build_feature_cache.s": get("dataset.build_feature_cache"),
        "dataset.FeatureCache.load.s": get("dataset.FeatureCache.load"),
        "dataset.FeatureCache.gather.s": get("dataset.FeatureCache.gather"),
        "dataset.FeatureCache.gather.calls": get("dataset.FeatureCache.gather", "calls"),
    })
    for mode in ("train", "infer"):
        name = f"nn.forward_batch.{mode}"
        m[f"{name}.s"] = get(name)
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.examples"] = size(name, "examples")
    m["nn.backward_from_dp.s"] = get("nn.backward_from_dp")
    m["nn.adam_step.s"] = get("nn.adam_step")
    steps = get("nn.weighted_gradient_step", "calls")
    m["nn.weighted_gradient_step.calls"] = steps
    conv_s = conv_flops = 0.0
    for k in range(len(channels)):
        for part in ("conv_forward", "pool_forward", "dropout", "pool_backward",
                     "conv_backward"):
            m[f"nn.{part}.stage{k}.s"] = get(f"nn.{part}.stage{k}")
        for part in ("conv_forward", "conv_backward"):
            conv_s += get(f"nn.{part}.stage{k}")
            conv_flops += size(f"nn.{part}.stage{k}")
    m["nn.conv.gflop"] = conv_flops / 1e9
    m["nn.conv.gflops_per_s"] = ratio(conv_flops / 1e9, conv_s)
    m["nn.trace_mb"] = ratio(size("nn.forward_batch.train", "trace_bytes") / 1e6, steps)
    for fn in ("mixmatch", "augment", "mixup"):
        m[f"ssl.{fn}.s"] = get(f"ssl.{fn}")
        m[f"ssl.{fn}.calls"] = get(f"ssl.{fn}", "calls")
    m["ssl.co_refinement_step.s"] = get("ssl.co_refinement_step")
    m["ssl.co_refurbishing_step.s"] = get("ssl.co_refurbishing_step")
    target = float(target_forward_examples(spans))
    m["ssl.target_forward.examples"] = target
    passes = ("supervised", "mixmatch", "co_refinement", "co_refurbishing")
    for p in passes:
        m[f"training.pass.{p}.s"] = get(f"training.pass.{p}")
        m[f"training.pass.{p}.total_s"] = get(f"training.pass.{p}", "total_s")
    m["training.validation.s"] = get("training.validation")
    m["training.validation.total_s"] = get("training.validation", "total_s")
    m["training.prepare.s"] = get("training.prepare")
    m["training.steps"] = steps  # every gradient step here is taken by a training pass
    m["evaluation.s"] = get("evaluation.confusion") + get("evaluation.report")

    per_round = {k: v / rounds for k, v in m.items()}
    per_round.update({
        "audio_io.useful_sample_ratio": ratio(
            sum(min(n, window_samples) for n in resampled), sum(resampled)),
        "dataset.cache_mb": ratio(size("dataset.FeatureCache.load") / 1e6, loads),
        "nn.conv.gflops_per_s": m["nn.conv.gflops_per_s"],
        "nn.trace_mb": m["nn.trace_mb"],
        "ssl.target_forward_ratio": ratio(target, m["nn.forward_batch.train.examples"]),
        "sup_rate": ratio(size("training.pass.supervised"),
                          get("training.pass.supervised", "total_s")),
        "ssl_rate": ratio(sum(size(f"training.pass.{p}") for p in passes[1:]),
                          sum(get(f"training.pass.{p}", "total_s") for p in passes[1:])),
        "infer_rate": ratio(size("training.evaluate_split"),
                            get("training.evaluate_split", "total_s")),
    })
    return per_round
