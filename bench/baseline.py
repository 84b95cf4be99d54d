"""Run the benchmark over several seeds and summarize the spread of each metric.

Usage, from the root of a checkout:

    python3 bench/baseline.py --seeds 1-10 --trace-seeds 1-2 --out bench/BENCH_0.json

Every run is its own ``bench/run.py`` process, one after another.  For each
workload and end-to-end metric the summary gives the ten values, their
median, quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median.  Seeds named by ``--trace-seeds`` are also run traced;
the summary then gives the median of each per-layer metric and the tracing
overhead, traced wall_s minus untraced wall_s on the same seed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json") as f:
        detail = json.load(f)
    detail["process_s"] = elapsed
    detail["correct"] = last["correct"]
    return detail


def _summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace-seeds", default="")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--out", default=None, help="write the summary JSON here")
    args = p.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seconds": seconds, "workloads": {}}
    for name in names:
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(_run(name, seed, seconds, 0))
            e = runs[-1]["end_to_end"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g} {v['unit']}" for k, v in e.items()) +
                f"  ({runs[-1]['process_s']:.1f} s)", flush=True)
        metrics = {}
        for metric in runs[0]["end_to_end"]:
            s = _summary([r["end_to_end"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["end_to_end"][metric]["unit"]
            s["n_per_run"] = [r["end_to_end"][metric]["n"] for r in runs]
            if metric in bounds:
                s["bound"] = bounds[metric]
            metrics[metric] = s
        entry = {
            "seeds": [r["seed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "process_s": _summary([r["process_s"] for r in runs]),
            "end_to_end": metrics,
        }
        traced = [_run(name, seed, seconds, 1) for seed in _seeds(args.trace_seeds)]
        if traced:
            by_seed = {r["seed"]: r for r in runs}
            entry["per_layer"] = {}
            for metric, m in traced[0]["per_layer"].items():
                values = [r["per_layer"][metric]["value"] for r in traced]
                entry["per_layer"][metric] = {
                    "median": None if None in values else statistics.median(values),
                    "unit": m["unit"]}
            entry["tracing_overhead_wall_s"] = [
                {"seed": r["seed"],
                 "traced": r["end_to_end"]["wall_s"]["value"],
                 "untraced": by_seed[r["seed"]]["end_to_end"]["wall_s"]["value"],
                 "overhead": r["end_to_end"]["wall_s"]["value"]
                 - by_seed[r["seed"]]["end_to_end"]["wall_s"]["value"]}
                for r in traced if r["seed"] in by_seed
            ]
        summary["workloads"][name] = entry
        for metric, s in metrics.items():
            flag = ""
            if s.get("bound") is not None and s["spread"] is not None:
                flag = "  OK" if s["spread"] <= s["bound"] / 3 else "  WIDE"
            print(f"  {metric:22s} median {s['median']:.6g} {s['unit']:6s} "
                  f"spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)}"
                  f"{flag}", flush=True)
    summary["environment"] = runs[0]["environment"]
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
