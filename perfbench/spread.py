"""Run the benchmark over several seeds and report how much each end-to-end
metric spreads, optionally writing the baseline file.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 [--baseline perfbench/baseline.json]

Every workload of BENCHMARK.json runs for its `run_seconds`, one run at a
time, round-robin over the workloads, so slow and fast periods of the
machine fall on every workload alike. For each workload and metric it
prints the median, the quartiles (`statistics.quantiles(n=4)`) and the
spread, (q3 - q1) / median, next to the metric's bound in BENCHMARK.json,
and the median of the runs' median probe burst times during the CLI calls
and between them (see run.Probe). With --baseline it also makes one traced run per
workload and writes the medians, quartiles, every run's corrected and
uncorrected samples with their speed factors, the per-layer metrics and
the environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if not last["correct"]:
        print(f"{workload} seed {seed}: {last['failed']} of {last['attempted']} calls failed",
              file=sys.stderr)
    return last, json.loads((HERE / "_work" / workload / "result.json").read_text())


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in names}
    runs = {w: [] for w in names}
    for seed in args.seeds:
        for w in names:
            start = time.perf_counter()
            last, full = bench(w, seed, seconds, 0)
            runs[w].append({
                "seed": seed,
                "attempted": last["attempted"],
                "failed": last["failed"],
                "samples": full["samples"],
                "uncorrected_samples": full["uncorrected_samples"],
                "speed_factors": full["speed_factors"],
                "burst_ms": full["burst_ms"],
            })
            for m in bounds:
                values[w][m].append(last["metrics"][m]["value"])
            took = time.perf_counter() - start
            print(w, seed, f"run {took:.1f} s", {m: round(v[-1], 4) for m, v in values[w].items()},
                  flush=True)

    stats = {w: {m: summary(v) for m, v in values[w].items()} for w in names}
    for w in names:
        for m, s in stats[w].items():
            flag = "ok" if s["spread"] < bounds[m] / 3 else ("within bound" if s["spread"] <= bounds[m] else "TOO WIDE")
            print(f"{w:24s} {m:12s} median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} "
                  f"spread {s['spread']:.3f} bound {bounds[m]} {flag}")
        during, between = (
            statistics.median(r["burst_ms"]["cli"][part] for r in runs[w])
            for part in ("during", "between")
        )
        print(f"{w:24s} probe burst during CLI calls {during:.4f} ms, between them "
              f"{between:.4f} ms, ratio {during / between:.3f}")

    if args.baseline:
        doc = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
        for w in names:
            last, full = bench(w, args.seeds[0], seconds, 1)
            doc["environment"] = full["environment"]
            doc["workloads"][w] = {
                "end_to_end": stats[w],
                "error_rate": sum(r["failed"] for r in runs[w]) / sum(r["attempted"] for r in runs[w]),
                "runs": runs[w],
                "per_layer": {k: v["value"] for k, v in last["metrics"].items()},
                "per_layer_seed": args.seeds[0],
            }
        args.baseline.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
