"""Span tracing of rsgame's public functions, applied from outside the package.

rsgame's modules import each other's functions by name, so a call made inside
``rsgame.nash`` goes through the ``rsgame.nash`` module attribute, not through
the defining module.  :class:`Tracer` therefore replaces each function at the
binding its caller actually uses (``BINDINGS``) and restores the originals on
exit.  A span records its name, start, end, parent span and run id; spans stay
in memory until :meth:`Tracer.write_spans`.  Span names are
``<defining module>.<function>``, which are the layer names of the metrics.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

#: module whose attribute is replaced -> function names replaced there
BINDINGS = {
    "rsgame.cli": (
        "main", "validate", "solve_optimality", "best_response_dynamics",
        "verify_certificate", "brute_force_nash", "mc_cost_estimate",
        "ergodic_cost", "finite_horizon_growth", "instance_from_dict",
        "instance_digest", "dumps_decimal",
    ),
    "rsgame.nash": (
        "solve_optimality", "action_values", "apply_T", "ergodic_cost",
        "epsilon_gap", "validate", "log_twisted_tensor",
    ),
    "rsgame.bellman": ("log_twisted_tensor",),
    # finite_horizon_growth: the binding the benchmark's own certify calls use
    "rsgame.spectral": ("twisted_matrix", "perron_value", "finite_horizon_growth"),
}

#: span names whose busy time is reported together as game_model.io
IO_SPANS = ("game_model.instance_from_dict", "game_model.instance_digest",
            "game_model.dumps_decimal")


def _tensor_bytes(instance) -> int:
    """X*A*B*X*8: one float64 tensor over (state, action, action, next state)."""
    x, a, b = instance.n_states, instance.n_actions_a, instance.n_actions_b
    return x * a * b * x * 8


def _count_solve(counts, bound, result):
    counts["bellman.rvi_iterations"] += int(result.iterations)


def _count_dynamics(counts, bound, result):
    counts["nash.rounds"] += int(result.rounds)
    counts["nash.converged"] += int(bool(result.converged))


def _count_brute(counts, bound, result):
    counts["nash.brute.pairs"] += int(result.searched_pairs)
    counts["nash.brute.survivors"] += len(result)


def _count_mc(counts, bound, result):
    n, paths = int(bound["n"]), int(bound["n_paths"])
    counts["sim.path_steps"] += n * paths
    counts["sim.draw_bytes"] += n * 3 * paths * 8


def _count_log_twisted(counts, bound, result):
    counts["transforms.log_twisted_tensor.bytes"] += _tensor_bytes(bound["instance"])


def _count_twisted_matrix(counts, bound, result):
    counts["spectral.twisted_matrix.bytes"] += _tensor_bytes(bound["instance"])


#: span name -> hook(counts, bound arguments, result) run after each call
COUNTERS = {
    "bellman.solve_optimality": _count_solve,
    "nash.best_response_dynamics": _count_dynamics,
    "nash.brute_force_nash": _count_brute,
    "sim.mc_cost_estimate": _count_mc,
    "transforms.log_twisted_tensor": _count_log_twisted,
    "spectral.twisted_matrix": _count_twisted_matrix,
}


class Tracer:
    """Context manager that traces every function in ``BINDINGS``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        hook = COUNTERS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, names in BINDINGS.items():
            module = importlib.import_module(module_name)
            for attr in names:
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def busy_and_self(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Summed span time, self time and call count per span name.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        busy, self_time, calls = defaultdict(float), defaultdict(float), Counter()
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            self_time[name] += (end - start) - child_time[index]
        return dict(busy), dict(self_time), calls

    def write_spans(self, path) -> None:
        """Write one JSON object per span: name, start, end, parent, run id."""
        with open(path, "w") as f:
            for index, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id,
                }) + "\n")
