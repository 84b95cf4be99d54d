"""Run one rsgame benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk-2x2x2 --seed 1 --seconds 30 --trace 0

Workloads: desk-2x2x2, session-50x4x4, certify-300x20x20 (see
bench/workloads.py).  The program is imported from the checkout's ``src``
directory.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps rsgame's public functions in spans
(bench/tracing.py) and reports the per-layer metrics instead.  The report
lists every metric by name and unit, then the run's environment; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics that BENCHMARK.json names for the mode.  Full
results go to ``bench/out/``, spans of a traced run included.  End-to-end
times are calibrated to a fixed host speed (see bench/workloads.py);
``raw_wall_s`` is the uncalibrated item time.

BLAS may use at most as many threads as the process may run on CPUs.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads() -> None:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "rsgame" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} has no src/rsgame package or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, str(src))
    import rsgame

    if Path(rsgame.__file__).resolve().parent != (src / "rsgame").resolve():
        print(f"error: imported rsgame from {rsgame.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)

    out_dir = BENCH / "out"
    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    workdir.mkdir(parents=True)
    try:
        result = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run = result["run"]
    mode = "per_layer" if args.trace else "end_to_end"
    metrics = result[mode]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result["tracer"].write_spans(out_dir / f"{stem}.spans.jsonl")

    print(f"# {args.workload}  seed {args.seed}  {run.passes} passes, {len(run.items)} items, "
          f"{run.attempted} calls, {run.failed} failed  ({mode.replace('_', '-')} run)")
    for name, m in metrics.items():
        detail = f"  n={m['n']}" if m.get("n") else ""
        if m.get("tail"):
            detail += f"  p{m['tail'][0]}={_fmt(m['tail'][1])}"
        print(f"{name:40s} {_fmt(m['value']):>14s} {m['unit']}{detail}")
    env = environment()
    print("environment: " + json.dumps(env))
    for line in run.wrong:
        print(f"incorrect output: {line}", file=sys.stderr)
    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "items": run.items, "raw_items": run.raw_items,
                   "samples": run.samples,
                   "attempted": run.attempted, "failed": run.failed, "wrong": run.wrong,
                   "end_to_end": result["end_to_end"], "per_layer": result["per_layer"],
                   "environment": env}, f, indent=1)

    wanted = [m["name"] for m in spec[mode]]
    missing = [n for n in wanted if metrics.get(n, {}).get("value") is None]
    if missing:
        print(f"error: run produced no value for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
