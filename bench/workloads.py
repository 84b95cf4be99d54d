"""The three benchmark workloads, one per rung of the size ladder.

Each workload is a closed loop: one caller, one call at a time.  ``setup``
generates every input from the run seed (and writes instance files for the
CLI workloads); the timed loop then runs one *item* after another, in whole
passes over the inputs.  Each call is timed on its own.  Outputs are
checked after each call, outside the timed span; a failed check counts the
call as failed, and a check that shows a wrong answer also marks the run
incorrect.

desk-2x2x2 runs a fixed part of the acceptance criterion 5 corpus, relabelled
at random by the seed: brute-force cost varies several-fold between random
2x2x2 instances (with the number of survivors), far more than any bound on a
run-to-run spread, while a relabelling of states and actions changes every
input table and leaves the work unchanged.  The other workloads draw fresh
random instances from the seed.

An item is the workload's unit of work as a user sees it: the whole corpus
for desk-2x2x2 (the acceptance batch), one instance's CLI session for
session-50x4x4, one strategy pair's certificate for certify-300x20x20.
wall_s is the median time of one item, the sum of its timed calls: a
median, because a session whose dynamics end unconverged takes ten times as
long as the others.

Every time in the end-to-end metrics is *calibrated* to a fixed host speed.
On a shared host the same call runs up to 1.7 times slower for tens of
seconds at a time while the process keeps its CPU (CPU time tracks wall
time), which no median inside one run can remove.  So a fixed probe is
timed just before and just after every timed call, and the call's wall
time is divided by the mean of the two probe times, each taken relative to
the probe's reference time: the time the call would take on a host where
the probe takes its reference time.  The probe does not touch rsgame, so a
change to the program moves calibrated times as much as raw ones.  Each
workload uses the probe that slows as its own work does: a pure-Python
loop for the call-overhead rungs, a sweep over a 64 MB array for the
memory-bound certify-300x20x20 (whose time does not track the interpreter
probe).  The raw median item time is reported too, as ``raw_wall_s``.

CLI calls go through ``rsgame.cli.main(argv)`` in-process and their exit
codes are checked; the module attribute is looked up at every call, so a
:class:`tracing.Tracer` installed around the loop sees them.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import resource
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import rsgame
import rsgame.cli
import rsgame.nash
import rsgame.spectral

import tracing

#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 5
#: iterations of the interpreter probe, about 20 ms of interpreter work
INTERPRETER_PROBE_LOOPS = 400_000
INTERPRETER_PROBE_REF_S = 0.02
#: the memory probe sums an array of this size this many times
MEMORY_PROBE_BYTES, MEMORY_PROBE_SWEEPS = 64 << 20, 8
MEMORY_PROBE_REF_S = 0.07
NASH_EPS = 1e-6
BRUTE_GRID, BRUTE_EPS = 0.05, 0.05
MC_HORIZON, MC_PATHS = 100, 20_000
MC_SE_LIMIT = 4.0
CERTIFY_HORIZON = 60
CERTIFY_GAP_FLOOR = -1e-9
CERTIFY_ORACLE_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: tuple[str, ...]
    bypasses: tuple[str, ...]
    setup: Callable[[int, Path], list]
    run_item: Callable[["Run", object], None]
    probe: Callable[[], float]


def interpreter_probe() -> float:
    """Time of a fixed pure-Python loop over its reference time."""
    t0 = time.perf_counter()
    x = 0
    for i in range(INTERPRETER_PROBE_LOOPS):
        x += i * i
    return (time.perf_counter() - t0) / INTERPRETER_PROBE_REF_S


@functools.cache
def _memory_probe_array() -> np.ndarray:
    return np.ones(MEMORY_PROBE_BYTES // 8)


def memory_probe() -> float:
    """Time of fixed sweeps over a 64 MB array over its reference time."""
    array = _memory_probe_array()
    t0 = time.perf_counter()
    for _ in range(MEMORY_PROBE_SWEEPS):
        array.sum()
    return (time.perf_counter() - t0) / MEMORY_PROBE_REF_S


def calibrated(fn, probe: Callable[[], float]) -> tuple[object, float, float]:
    """Call ``fn``; return its result, calibrated time and raw wall time."""
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    dt = time.perf_counter() - t0
    return result, dt * 2 / (before + probe()), dt


class Run:
    """Samples, failures and totals collected by one run.

    ``samples`` and ``items`` hold calibrated times, ``raw_items`` the wall
    times of the same items.
    """

    def __init__(self, workdir: Path, probe: Callable[[], float]):
        self.workdir = workdir
        self.probe = probe
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.items: list[float] = []
        self.raw_items: list[float] = []
        self.passes = 0
        self.totals: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self._item_time = 0.0
        self._item_raw = 0.0

    def timed(self, kind: str, fn):
        result, seconds, raw = calibrated(fn, self.probe)
        self.samples[kind].append(seconds)
        self._item_time += seconds
        self._item_raw += raw
        return result

    def cli(self, kind: str, argv: list[str], instance_path: Path) -> tuple[int, dict | None]:
        """One in-process CLI call; returns (exit code, parsed report or None)."""
        out = self.workdir / f"{kind}.report.json"
        out.unlink(missing_ok=True)
        code = self.timed(kind, lambda: rsgame.cli.main(argv + ["-o", str(out)]))
        if not out.exists():
            return code, None
        self.totals["io_bytes"] += instance_path.stat().st_size + out.stat().st_size
        with open(out) as f:
            return code, json.load(f)

    def check(self, kind: str, ok: bool, detail: str, wrong: bool = True) -> None:
        """Count one operation; a failure with ``wrong`` is an incorrect output."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if wrong:
                self.wrong.append(f"{kind}: {detail}")

    def end_item(self) -> None:
        self.items.append(self._item_time)
        self.raw_items.append(self._item_raw)
        self._item_time = self._item_raw = 0.0


def _instance_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _write_instances(instances, workdir: Path) -> list[Path]:
    paths = []
    for k, instance in enumerate(instances):
        path = workdir / f"instance-{k}.json"
        with open(path, "w") as f:
            f.write(json.dumps(rsgame.instance_to_dict(instance)))
        paths.append(path)
    return paths


# --- shared CLI steps -------------------------------------------------------

def _validate(run: Run, path: Path, min_prob: float) -> None:
    code, report = run.cli(
        "validate", ["validate", "--instance", str(path), "--min-prob", repr(min_prob)], path)
    statuses = {k: c["status"] for k, c in (report or {}).get("checks", {}).items()}
    ok = code == 0 and bool(statuses) and all(s == "PASS" for s in statuses.values())
    run.check("validate", ok, f"{path.name}: exit {code}, checks {statuses}")


def _nash(run: Run, path: Path) -> dict | None:
    code, report = run.cli(
        "nash", ["nash", "--instance", str(path), "--eps", repr(NASH_EPS)], path)
    if report is None:
        run.check("nash", False, f"{path.name}: exit {code}, no report")
        return None
    ok = code == 0 and report["verified"] is True and report["max_gap"] <= NASH_EPS
    # dynamics may legitimately end unconverged (cycling): that fails the call
    # but is a correct output when the report says so and exits 1
    honest = (code == 1 and report["converged"] is False
              and report["verified"] is False and report["max_gap"] > NASH_EPS)
    run.check("nash", ok, f"{path.name}: exit {code}, converged {report['converged']}, "
              f"verified {report['verified']}, max_gap {report['max_gap']}",
              wrong=not honest)
    return report


# --- desk-2x2x2 -------------------------------------------------------------

#: g2 plus these seeds of random_instance: the start of the acceptance
#: criterion 5 corpus, as much as one run of about 20 s takes
DESK_CORPUS_SEEDS = range(8)
DESK_MIN_PROB = 0.02


def _relabel(instance, rng: np.random.Generator):
    """The same game with states and both players' actions permuted at random.

    Every value, iteration count and survivor count is invariant under the
    relabelling in exact arithmetic, so the seed changes every input table
    without changing how much work an instance takes.  Rounding can still
    tip a borderline case, such as dynamics that end just above their target.
    """
    arat = instance.arat
    s = rng.permutation(instance.n_states)
    a = rng.permutation(instance.n_actions_a)
    b = rng.permutation(instance.n_actions_b)
    return rsgame.assemble_from_arat(
        rsgame.AratStructure(
            p1=arat.p1[s][:, a][:, :, s], p2=arat.p2[s][:, b][:, :, s],
            c11=arat.c11[s][:, a], c21=arat.c21[s][:, a],
            c12=arat.c12[s][:, b], c22=arat.c22[s][:, b],
        ),
        theta=instance.theta,
        anchor_state=int(np.flatnonzero(s == instance.anchor_state)[0]),
    )


def _desk_setup(seed: int, workdir: Path) -> list[list[Path]]:
    rng = np.random.default_rng(seed)
    corpus = [rsgame.g2_instance()] + [
        rsgame.random_instance(k, dims=(2, 2, 2), min_prob=DESK_MIN_PROB, arat_flag=True)
        for k in DESK_CORPUS_SEEDS
    ]
    return [_write_instances([_relabel(instance, rng) for instance in corpus], workdir)]


def _desk_item(run: Run, paths: list[Path]) -> None:
    for path in paths:
        _validate(run, path, DESK_MIN_PROB)
        _nash(run, path)
        _brute(run, path)


def _brute(run: Run, path: Path) -> None:
    code, report = run.cli("brute", [
        "brute", "--instance", str(path),
        "--grid", repr(BRUTE_GRID), "--eps", repr(BRUTE_EPS)], path)
    if report is None:
        run.check("brute", False, f"{path.name}: exit {code}, no report")
        return
    run.totals["searched_pairs"] += report["searched_pairs"]
    gaps = [max(c["eps1"], c["eps2"]) for c in report["certificates"]]
    ok = (code == 0 and report["survivors"] >= 1
          and report["existence"].startswith("existence guaranteed")
          and all(g <= BRUTE_EPS for g in gaps))
    run.check("brute", ok, f"{path.name}: exit {code}, survivors {report['survivors']}, "
              f"{report['existence']!r}, worst listed gap {max(gaps, default=None)}")


# --- session-50x4x4 ---------------------------------------------------------

SESSION_INSTANCES = 12
SESSION_MIN_PROB = 0.002


def _session_setup(seed: int, workdir: Path) -> list[tuple[Path, int]]:
    seeds = _instance_seeds(seed, 2 * SESSION_INSTANCES)
    instances = [
        rsgame.random_instance(s, dims=(50, 4, 4), min_prob=SESSION_MIN_PROB, arat_flag=True)
        for s in seeds[:SESSION_INSTANCES]
    ]
    return list(zip(_write_instances(instances, workdir), seeds[SESSION_INSTANCES:]))


def _session_item(run: Run, item: tuple[Path, int]) -> None:
    path, mc_seed = item
    _validate(run, path, SESSION_MIN_PROB)
    report = _nash(run, path)
    if report is None:
        return
    # eval the pair nash returned (its best pair when it did not converge)
    strategies = []
    for key, player in (("phi", 1), ("psi", 2)):
        spath = run.workdir / f"{key}.json"
        with open(spath, "w") as f:
            json.dump({"player": player, "rows": report[key]["rows"]}, f)
        strategies.append(str(spath))
    code, report = run.cli("eval", [
        "eval", "--instance", str(path), "--phi", strategies[0], "--psi", strategies[1],
        "--horizon", str(MC_HORIZON), "--mc", "--paths", str(MC_PATHS),
        "--seed", str(mc_seed)], path)
    run.totals["mc_path_steps"] += 2 * MC_HORIZON * MC_PATHS
    if report is None:
        run.check("eval", False, f"{path.name}: exit {code}, no report")
        return
    z = [
        abs(report["mc"][f"player{i}"]["value"] - report["finite_horizon"][f"growth{i}"])
        / report["mc"][f"player{i}"]["std_error"]
        for i in (1, 2)
    ]
    ok = code == 0 and all(v <= MC_SE_LIMIT for v in z)
    run.check("eval", ok, f"{path.name}: exit {code}, |MC - exact| / SE = {z}")


# --- certify-300x20x20 ------------------------------------------------------

CERTIFY_PAIRS = 7
CERTIFY_MIN_PROB = 5e-4


def _certify_setup(seed: int, workdir: Path) -> list:
    instance_seed, pair_seed = _instance_seeds(seed, 2)
    instance = rsgame.random_instance(
        instance_seed, dims=(300, 20, 20), min_prob=CERTIFY_MIN_PROB, arat_flag=True)
    rng = np.random.default_rng(pair_seed)
    shape_a = (instance.n_states, instance.n_actions_a)
    shape_b = (instance.n_states, instance.n_actions_b)
    return [
        (instance,
         rsgame.StationaryStrategy(1, rng.dirichlet(np.ones(shape_a[1]), size=shape_a[0])),
         rsgame.StationaryStrategy(2, rng.dirichlet(np.ones(shape_b[1]), size=shape_b[0])))
        for _ in range(CERTIFY_PAIRS)
    ]


def _certify_item(run: Run, item) -> None:
    instance, phi, psi = item
    cert = run.timed("certify", lambda: rsgame.nash.epsilon_gap(instance, phi, psi))
    run.check("certify", min(cert.eps1, cert.eps2) >= CERTIFY_GAP_FLOOR,
              f"eps1 {cert.eps1}, eps2 {cert.eps2}")
    growth = run.timed("growth", lambda: rsgame.spectral.finite_horizon_growth(
        instance, 1, phi, psi, instance.anchor_state, CERTIFY_HORIZON))
    run.check("growth", abs(growth - cert.J1) <= CERTIFY_ORACLE_TOL,
              f"finite_horizon_growth {growth} vs J1 {cert.J1}")


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "desk-2x2x2",
            "g2 + 8 criterion-5 instances relabelled by seed; per-call overhead, CLI "
            "brute force ~93% of time, survivors vary 100-fold. Loads "
            "cli,game_model,transforms,bellman,spectral,nash; bypasses sim.",
            ("cli", "game_model", "transforms", "bellman", "spectral", "nash"),
            ("sim",),
            _desk_setup, _desk_item, interpreter_probe,
        ),
        Workload(
            "session-50x4x4",
            "CLI session with no dominant layer: sim ~50%, nash/bellman ~27%, validate "
            "~19%, JSON I/O visible. Loads cli,game_model,transforms,bellman,spectral,"
            "nash,sim; bypasses none.",
            ("cli", "game_model", "transforms", "bellman", "spectral", "nash", "sim"),
            (),
            _session_setup, _session_item, interpreter_probe,
        ),
        Workload(
            "certify-300x20x20",
            "Memory-bound 288 MB tensors. Library calls: CLI digest took 54 s/4.4 GB, "
            "validate needs >8 GB. Loads transforms,bellman,spectral,nash; bypasses cli,"
            "game_model,sim.",
            ("transforms", "bellman", "spectral", "nash"),
            ("cli", "game_model", "sim"),
            _certify_setup, _certify_item, memory_probe,
        ),
    )
}


# --- metrics ----------------------------------------------------------------

def _tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, when above p50."""
    n = len(values)
    if n <= 20:
        return None
    i = n - 11
    return math.floor(100 * (i + 1) / n), sorted(values)[i]


def _stat(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "tail": _tail(values)}


def _rate(total: float, seconds: list[float], unit: str) -> dict:
    return {"value": total / sum(seconds), "unit": unit, "n": len(seconds), "tail": None}


def end_to_end_metrics(run: Run, setup_times: list[float]) -> dict:
    s = run.samples
    m = {
        "setup_s": _stat(setup_times, "s"),
        "wall_s": _stat(run.items, "s"),
        "raw_wall_s": _stat(run.raw_items, "s"),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB", "n": 1, "tail": None},
        "fail_rate": {"value": run.failed / run.attempted, "unit": "ratio",
                      "n": run.attempted, "tail": None},
    }
    if s["nash"]:
        m["nash_s"] = _stat(s["nash"], "s")
    if s["validate"]:
        m["validate_s"] = _stat(s["validate"], "s")
    if s["brute"]:
        m["brute_pairs_per_s"] = _rate(run.totals["searched_pairs"], s["brute"], "1/s")
    if s["eval"]:
        m["mc_path_steps_per_s"] = _rate(run.totals["mc_path_steps"], s["eval"], "1/s")
    if s["certify"]:
        m["certify_s"] = _stat(s["certify"], "s")
    return m


def layer_metrics(tracer: tracing.Tracer, run: Run) -> dict:
    """Every per-layer metric; a ratio whose base is zero is None."""
    busy, self_time, calls = tracer.busy_and_self()
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else None

    m = {"bench.items": (len(run.items), "count"), "bench.passes": (run.passes, "count")}
    for name in ("cli.main", "game_model.validate", "transforms.log_twisted_tensor",
                 "bellman.solve_optimality", "spectral.ergodic_cost", "sim.mc_cost_estimate"):
        m[f"{name}.calls"] = (calls[name], "count")
    for name in ("cli.main", "game_model.validate", "transforms.log_twisted_tensor",
                 "bellman.solve_optimality", "bellman.action_values", "bellman.apply_T",
                 "spectral.ergodic_cost", "spectral.twisted_matrix", "spectral.perron_value",
                 "spectral.finite_horizon_growth", "nash.best_response_dynamics",
                 "nash.epsilon_gap", "nash.verify_certificate", "nash.brute_force_nash",
                 "sim.mc_cost_estimate"):
        m[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    for name, key in (("cli.main", "cli.self_s"),
                      ("bellman.solve_optimality", "bellman.solve_optimality.self_s"),
                      ("nash.best_response_dynamics", "nash.best_response_dynamics.self_s"),
                      ("nash.brute_force_nash", "nash.brute_force_nash.self_s")):
        m[key] = (self_time.get(name, 0.0), "s")
    m["game_model.io.busy_s"] = (sum(busy.get(n, 0.0) for n in tracing.IO_SPANS), "s")
    m["game_model.io.bytes"] = (run.totals["io_bytes"], "bytes")
    m["transforms.log_twisted_tensor.bytes"] = (
        c["transforms.log_twisted_tensor.bytes"], "bytes-computed")
    m["spectral.twisted_matrix.bytes"] = (c["spectral.twisted_matrix.bytes"], "bytes-computed")
    m["bellman.rvi_iterations"] = (c["bellman.rvi_iterations"], "count")
    m["bellman.iterations_per_solve"] = (
        ratio(c["bellman.rvi_iterations"], calls["bellman.solve_optimality"]), "count")
    m["nash.rounds"] = (c["nash.rounds"], "count")
    m["nash.converged_ratio"] = (
        ratio(c["nash.converged"], calls["nash.best_response_dynamics"]), "ratio")
    m["nash.brute.pairs"] = (c["nash.brute.pairs"], "count")
    m["nash.brute.survivors"] = (c["nash.brute.survivors"], "count")
    m["nash.brute.survivor_ratio"] = (
        ratio(c["nash.brute.survivors"], c["nash.brute.pairs"]), "ratio")
    m["sim.path_steps"] = (c["sim.path_steps"], "count")
    m["sim.draw_bytes"] = (c["sim.draw_bytes"], "bytes-computed")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# --- one run ----------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 max_items: int | None = None) -> dict:
    """Set up, run the timed loop, and return every metric of the run.

    The loop makes as many whole passes over the generated inputs as fit in
    ``seconds``, and at least one, so every input is measured equally often;
    ``max_items`` stops it early, after that many items.
    """
    workload = WORKLOADS[name]
    setup_times, inputs = [], None
    workload.probe()  # warm-up: the memory probe allocates its array here
    for _ in range(SETUP_REPEATS):
        inputs = None  # release the previous copy before building the next
        inputs, setup_s, _ = calibrated(lambda: workload.setup(seed, workdir),
                                        workload.probe)
        setup_times.append(setup_s)

    run = Run(workdir, workload.probe)
    tracer = tracing.Tracer(run_id=f"{name}-seed{seed}-pid{os.getpid()}")
    end = time.perf_counter() + seconds
    with tracer if trace else contextlib.nullcontext():
        while True:
            pass_start = time.perf_counter()
            for item in inputs:
                workload.run_item(run, item)
                run.end_item()
                if len(run.items) == max_items:
                    break
            run.passes += 1
            now = time.perf_counter()
            if len(run.items) == max_items or now + (now - pass_start) > end:
                break
    return {
        "run": run,
        "tracer": tracer if trace else None,
        "end_to_end": end_to_end_metrics(run, setup_times),
        "per_layer": layer_metrics(tracer, run) if trace else None,
    }
