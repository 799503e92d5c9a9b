"""Benchmark for lungsound: one workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload ingest|supervised|semi --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
with times scaled to a nominal machine pace (see Pace); with --trace 1 it
reports the per-layer metrics from spans recorded around the calls into each
module. The BLAS thread count is pinned here, before numpy is first
imported, because it changes both speed and the trained parameters.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
WORK_DIR = ROOT / ".perfbench"
# Pace.sample() on the machine the benchmark was built on (2-vCPU Xeon, quiet spell)
PACE_NOMINAL_S = 0.03


class Pace:
    """Times a fixed numpy kernel that shares no code with the package.

    Co-tenant load on a shared machine slows memory-heavy numpy work by 10-50%
    for minutes at a time. The kernel (FFT, float32 GEMM, strided 2x2 max, ReLU
    mask, ~32 MB) slows with it, so sampling it before and after each round
    gives the factor that scales the round to the machine's nominal speed.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.frames = rng.normal(size=(300, 2048))
        self.cols = rng.normal(size=(40000, 64)).astype(np.float32)
        self.kernel = rng.normal(size=(64, 32)).astype(np.float32)
        self.maps = rng.normal(size=(8, 38, 860, 16)).astype(np.float32)

    def sample(self) -> float:
        """Median of five timings of two kernel calls, in seconds."""
        import numpy as np
        times = []
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(2):
                np.fft.rfft(self.frames, axis=1)
                self.cols @ self.kernel
                m = self.maps
                np.maximum(np.maximum(m[:, ::2, ::2], m[:, ::2, 1::2]),
                           np.maximum(m[:, 1::2, ::2], m[:, 1::2, 1::2]))
                m * (m > 0)
            times.append(perf_counter() - t0)
        return sorted(times)[2]


def _environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": BLAS_THREADS, "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def _rounds(work, seconds: float, pace: Pace, tracer=None, label="r") -> list:
    """Whole rounds until `seconds` have passed; at least one. Each round gets
    `scale`, the nominal pace over the mean of the paces sampled just before
    and just after it. Only the last round keeps its outputs, so memory does
    not grow with the round count."""
    rounds = []
    before = pace.sample()
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.run_id = f"{work.name}-{work.seed}-{label}{len(rounds)}"
        if rounds:
            del rounds[-1]["out"]
        r = work.round()
        after = pace.sample()
        r["scale"] = 2 * PACE_NOMINAL_S / (before + after)
        before = after
        rounds.append(r)
    return rounds


def _setups(work, ws: Path, pace: Pace) -> list:
    """Set up SETUP_REPEATS times from scratch, each scaled like a round; the
    last set-up's files stay."""
    setups = []
    before = pace.sample()
    for _ in range(SETUP_REPEATS):
        if ws.exists():
            shutil.rmtree(ws)
        t0 = perf_counter()
        info = work.setup(ws)
        setup_s = perf_counter() - t0
        after = pace.sample()
        setups.append(dict(info, setup_s=setup_s, scale=2 * PACE_NOMINAL_S / (before + after)))
        before = after
    return setups


def run(name: str, seed: int, seconds: float, trace: bool, spec: dict):
    """(contract result, report, span summary or None, traced round count)."""
    import numpy as np

    import tracing
    import workloads

    work = workloads.make(name, seed)
    pace = Pace()
    ws = WORK_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    try:
        setups = _setups(work, ws, pace)
        if not trace:
            rounds = _rounds(work, seconds, pace)
            traced = []
        else:
            rounds = _rounds(work, seconds / 2, pace)
            tracer = tracing.Tracer()
            tracing.install(tracer, _channels())
            try:
                traced = _rounds(work, seconds / 2, pace, tracer, "t")
            finally:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = work.check(rounds + traced)  # outputs of the last round
    finally:
        shutil.rmtree(ws, ignore_errors=True)

    all_rounds = rounds + traced
    result = {"correct": not failures,
              "attempted": sum(r["attempted"] for r in all_rounds),
              "failed": sum(r["failed"] for r in all_rounds)}
    run_s = float(np.median([r["round_s"] * r["scale"] for r in rounds]))
    if trace:
        traced_s = float(np.median([r["round_s"] * r["scale"] for r in traced]))
        values = tracing.layer_metrics(tracer.spans, len(traced), workloads.WINDOW_SAMPLES,
                                       _channels())
        values["trace.overhead_s"] = traced_s - run_s
        values["trace.overhead_share"] = (traced_s - run_s) / run_s
        keys = spec["per_layer"]
        dump = WORK_DIR / "traces" / f"{name}-seed{seed}.json"
        tracer.dump(dump)
    else:
        values = {"setup_s": float(np.median([s["setup_s"] * s["scale"] for s in setups])),
                  "run_s": run_s,
                  "peak_rss_mb": peak_rss_mb}
        values.update(work.metrics(setups, rounds))
        keys = spec["end_to_end"]
        dump = None
    result["metrics"] = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                         for m in keys}
    report = {"workload": name, "seed": seed, "trace": int(trace),
              "environment": _environment(),
              "setups": setups,
              "rounds": [{k: v for k, v in r.items() if k != "out"} for r in rounds],
              "traced_rounds": [{k: v for k, v in r.items() if k != "out"} for r in traced],
              "param_sha256": sorted({r["param_sha256"] for r in all_rounds
                                      if "param_sha256" in r}),
              "span_dump": str(dump.relative_to(ROOT)) if dump else None,
              "check_failures": failures}
    return result, report, (tracing.summarise(tracer.spans) if trace else None), len(traced)


def _channels():
    from lungsound import nn
    return nn.CnnSpec().channels


def _print_summary(summary, rounds: int) -> None:
    print(f"{'span':<34}{'calls':>9}{'self s':>11}{'total s':>11}   (per round)")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<34}{row['calls'] / rounds:>9.1f}{row['self_s'] / rounds:>11.4f}"
              f"{row['total_s'] / rounds:>11.4f}")


def self_check(spec: dict) -> int:
    """Every workload's checks at toy size, a traced toy round whose untouched
    layers must read zero, and checks fed known-bad outputs that must fail."""
    import numpy as np

    import oracle
    import tracing
    import workloads
    from lungsound import audio_io

    ok = True

    def verdict(label, failures, want_fail=False):
        nonlocal ok
        passed = bool(failures) == want_fail
        ok &= passed
        detail = "; ".join(failures)[:160]
        print(f"{'PASS' if passed else 'FAIL'}  {label}" + (f"  [{detail}]" if detail else ""))

    # layers a workload must not touch, and a metric that shows it ran
    untouched = {"ingest": ("nn.", "ssl."), "supervised": ("ssl.",), "semi": ()}
    busy = {"ingest": "features.extract_mfcc.calls", "supervised": "sup_rate",
            "semi": "ssl.target_forward_ratio"}
    for name in workloads.WORKLOADS:
        work = workloads.make(name, seed=0, toy=True)
        ws = WORK_DIR / f"self-check-{name}-pid{os.getpid()}"
        try:
            work.setup(ws)
            t0 = perf_counter()
            rounds = [work.round()]
            tracer = tracing.Tracer()
            tracing.install(tracer, _channels())
            try:
                rounds.append(work.round())
            finally:
                tracer.uninstall()
            verdict(f"{name}: checks on a plain and a traced toy round "
                    f"({perf_counter() - t0:.1f}s)", work.check(rounds))
            layers = tracing.layer_metrics(tracer.spans, 1, workloads.WINDOW_SAMPLES,
                                           _channels())
            missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers
                       and not m["name"].startswith("trace.")]
            stray = [k for k, v in layers.items() if k.startswith(untouched[name]) and v]
            verdict(f"{name}: traced metrics complete, untouched layers zero, "
                    f"{busy[name]} nonzero",
                    missing + stray + ([] if layers[busy[name]] > 0 else [busy[name]]))
            if name == "ingest":
                parsed = oracle.parse_cache(work.cache_path)
                rate, enc, _, _ = work.files[0]
                off = audio_io.load_wav(work.entries[0][2]).samples.copy()
                off[len(off) // 2] += 2 * oracle.STEP[enc]
                verdict("ingest: decoded samples two steps off are caught",
                        oracle.check_decoded("f", off, rate, work.signal(0)[1], rate, enc),
                        True)
                grid = parsed[2][0].astype(np.float64)
                bumped = grid.copy()
                bumped[5, 100] += 1e-3 * float(np.abs(grid).max())
                verdict("ingest: an MFCC grid bumped by 1e-3 of scale is caught",
                        oracle.check_mfcc("f", bumped, grid), True)
                cache = rounds[-1]["out"]["cache"]
                mats = cache.matrices.copy()
                mats[0, 0, 0] += 1.0
                verdict("ingest: a cache matrix differing from the file is caught",
                        oracle.check_cache(cache.ids, cache.classes, mats, parsed), True)
            else:
                out = rounds[-1]["out"]
                y, p = np.asarray(out["y"]), np.asarray(out["p"]).copy()
                p[0] = (p[0] + 1) % 6
                verdict(f"{name}: a report disagreeing with the labels is caught",
                        oracle.check_report(y, p, out["cm"], out["report"].accuracy,
                                            out["report"].support, 6), True)
                bad = [dict(r) for r in rounds]
                bad[0]["param_sha256"] = "0" * 64
                verdict(f"{name}: differing replay hashes are caught",
                        [f for f in work.check(bad) if f.startswith("replay")], True)
                sched = ([{"passes": ["co_refinement", "mixmatch", "co_refurbishing"]}]
                         + out["manifest"].schedule[1:])
                verdict(f"{name}: a reordered schedule is caught",
                        oracle.check_schedule(sched, work.ssl_epochs, work.sup_epochs), True)
        finally:
            shutil.rmtree(ws, ignore_errors=True)
    print("self-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lungsound").is_dir():
        print(f"lungsound sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.self_check:
        return self_check(spec)
    if args.workload is None:
        ap.error("--workload is required")

    result, report, summary, n_traced = run(args.workload, args.seed, args.seconds,
                                            bool(args.trace), spec)
    if summary is not None:
        _print_summary(summary, n_traced)
    for name, m in result["metrics"].items():
        print(f"{name:<40}{m['value']:>16.6g} {m['unit']}")
    for msg in report["check_failures"]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
