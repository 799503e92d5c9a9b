"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/prove.py [--workloads ingest supervised semi] [--seeds 0 1 ... 9]
                               [--out FILE] [--against FILE]

For each workload and end-to-end metric it prints the median of the runs and
the spread: the distance between the first and third quartile as a share of
the median, next to the metric's bound. With --against it also compares the
medians, failed shares and parameter hashes with an earlier summary file.
Runs go one after another, never in parallel.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2][len("report "):])
    return json.loads(lines[-1]), report


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    ap.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "prove.json")
    ap.add_argument("--against", type=Path)
    args = ap.parse_args()

    summary = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, report = run_once(spec, workload, seed)
            runs.append({"seed": seed, "result": result, "hashes": report["param_sha256"],
                         "report": report})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
            ok &= result["correct"]
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            metrics[m["name"]] = {"median": med, "spread": spread, "values": values}
            flag = "" if spread < m["bound"] / 3 else (
                "  above a third of the bound" if spread <= m["bound"] else "  ABOVE BOUND")
            if m["name"] != "setup_s" and spread > m["bound"]:
                ok = False
            print(f"  {m['name']:<18} median {med:>12.5g} {m['unit']:<13} "
                  f"spread {spread:7.4f}  bound {m['bound']}{flag}")
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        summary[workload] = {"metrics": metrics, "failed_shares": sorted(shares),
                             "hashes": {str(r["seed"]): r["hashes"] for r in runs},
                             "reports": [r["report"] for r in runs]}
        print(f"  failed shares {sorted(shares)}", flush=True)

    if args.against:
        before = json.loads(args.against.read_text())
        bounds = {m["name"]: m for m in spec["end_to_end"]}
        for workload, now in summary.items():
            then = before.get(workload)
            if then is None:
                continue
            for name, m in now["metrics"].items():
                a, b = then["metrics"][name]["median"], m["median"]
                worse = (b - a) / a if bounds[name]["better"] == "lower" else (a - b) / a
                verdict = "ok" if worse <= bounds[name]["bound"] else "WORSE THAN BOUND"
                ok &= verdict == "ok"
                print(f"{workload:<11} {name:<18} {a:>12.5g} -> {b:>12.5g} "
                      f"({worse:+.3f} worse)  {verdict}")
            same = {s: h for s, h in now["hashes"].items() if s in then["hashes"]}
            diff = [s for s, h in same.items() if h != then["hashes"][s]]
            ok &= not diff and now["failed_shares"] == then["failed_shares"]
            print(f"{workload:<11} parameter hashes identical on {len(same) - len(diff)}"
                  f"/{len(same)} seeds; failed shares {then['failed_shares']} -> "
                  f"{now['failed_shares']}")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1))
    print("prove:", "PASS" if ok else "FAIL", f"(summary in {args.out})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
