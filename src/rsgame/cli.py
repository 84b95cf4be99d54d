"""Batch command-line interface.

Subcommands: ``validate`` (assumption diagnostics), ``solve`` (one player's
optimality equation against a fixed opponent file), ``eval`` (spectral,
finite-horizon, and Monte Carlo values of a strategy pair), ``nash``
(best-response search with certification), ``brute`` (grid enumeration),
and ``gen`` (instance generation).  Strategy arguments accept either a file
path or the literal ``uniform``.

Every report embeds the tool version, the instance digest, the fully
resolved flag set, and the wall-clock time; reruns with identical inputs and
seeds produce identical reports up to the wall-clock field.  All numbers are
serialized as decimals with 17 significant digits, enough to round-trip IEEE
doubles exactly.

Exit codes: 0 success / all checks PASS; 1 assumption failure or
non-convergence; 2 usage error; 3 unreadable or unparseable input, or an
unwritable output file.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from typing import Any

from . import __version__
from .bellman import DEFAULT_MAX_ITER, TOL, solve_optimality
from .game_model import (
    DEFAULT_MIN_PROB,
    AssumptionError,
    GameInstance,
    StationaryStrategy,
    _scalar,
    assemble_from_arat,
    check_strategy,
    dumps_decimal,
    g2_instance,
    instance_digest,
    instance_from_dict,
    instance_to_dict,
    random_instance,
    strategy_from_dict,
    uniform_strategy,
    validate,
)
from .nash import (
    DEFAULT_EPS_TARGET,
    DEFAULT_MAX_ROUNDS,
    best_response_dynamics,
    brute_force_nash,
    certificate_to_dict,
    verify_certificate,
)
from .sim import mc_cost_estimate
from .spectral import ergodic_cost, finite_horizon_growth


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rsgame",
        description="Solvers for two-player stochastic games under the "
        "risk-sensitive ergodic cost criterion.",
    )
    p.add_argument("--version", action="version", version=f"rsgame {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, instance=True):
        if instance:
            sp.add_argument("--instance", required=True, help="instance JSON file")
            sp.add_argument(
                "--theta", type=float, default=None,
                help="override the instance's risk-sensitivity parameter",
            )
        sp.add_argument("-o", "--output", default=None, help="write the report here")

    sp = sub.add_parser("validate", help="check the standing model assumptions")
    common(sp)
    sp.add_argument("--min-prob", type=float, default=DEFAULT_MIN_PROB,
                    help="uniform transition-probability floor")

    sp = sub.add_parser("solve", help="solve one player's optimality equation")
    common(sp)
    sp.add_argument("--player", type=int, required=True, choices=(1, 2))
    sp.add_argument("--opponent", required=True,
                    help="opponent strategy file, or 'uniform'")
    sp.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)

    sp = sub.add_parser("eval", help="evaluate a fixed strategy pair")
    common(sp)
    sp.add_argument("--phi", required=True, help="player-1 strategy file or 'uniform'")
    sp.add_argument("--psi", required=True, help="player-2 strategy file or 'uniform'")
    sp.add_argument("--horizon", type=int, default=None,
                    help="also report the exact n-step growth at this horizon")
    sp.add_argument("--mc", action="store_true",
                    help="also report Monte Carlo estimates (needs --horizon)")
    sp.add_argument("--paths", type=int, default=10_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--x", type=int, default=None,
                    help="start state for horizon/MC sections (default: anchor)")

    sp = sub.add_parser(
        "nash", help="search for an equilibrium by pure best responses, then damped dynamics")
    common(sp)
    sp.add_argument("--eps", type=float, default=DEFAULT_EPS_TARGET,
                    help="certification target for max(eps1, eps2)")
    sp.add_argument("--rounds", type=int, default=DEFAULT_MAX_ROUNDS)
    sp.add_argument("--phi0", default=None, help="initial player-1 strategy file")
    sp.add_argument("--psi0", default=None, help="initial player-2 strategy file")

    sp = sub.add_parser("brute", help="enumerate a strategy grid and certify pairs")
    common(sp)
    sp.add_argument("--grid", type=float, default=0.05, help="simplex grid step")
    sp.add_argument("--eps", type=float, default=0.05, help="survivor gap threshold")
    sp.add_argument("--top", type=int, default=100,
                    help="number of certificates included in the report")

    sp = sub.add_parser("gen", help="write an instance file")
    common(sp, instance=False)
    sp.add_argument("--fixture", choices=("g2",), default=None,
                    help="emit a bundled fixture instead of a random instance")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--states", type=int, default=3)
    sp.add_argument("--actions-a", type=int, default=2)
    sp.add_argument("--actions-b", type=int, default=2)
    sp.add_argument("--min-prob", type=float, default=0.02)
    sp.add_argument("--arat", action="store_true",
                    help="generate through a random additive decomposition")
    sp.add_argument("--c-bar", type=float, default=1.0)
    sp.add_argument("--theta", type=float, default=1.0)
    return p


class _InputError(Exception):
    """An input document could not be read, parsed or fitted to the instance."""


def _read(path: str, parse):
    """``parse`` applied to the JSON document at ``path``; failures are input errors.

    Every message names the file, so a bad --phi is told apart from a bad
    --psi or --instance; an OSError's message carries the path already.  A
    TypeError means a field, or the document itself, has the wrong JSON kind.
    """
    try:
        with open(path) as f:
            return parse(json.load(f))
    except OSError as e:
        raise _InputError(str(e)) from e
    except json.JSONDecodeError as e:
        raise _InputError(
            f"{path}: invalid document: {e.msg} at line {e.lineno} column {e.colno}"
        ) from e
    except (ValueError, TypeError) as e:
        raise _InputError(f"{path}: {e}") from e


def _load_instance(args) -> GameInstance:
    """The --instance document's instance, with --theta in place of its theta when given.

    An instance assembled from its decomposition is assembled again with
    the new theta, so its table stays unbuilt; ``replace`` would read, and
    so build, it.  An instance holding a given table is copied by
    ``replace`` and shares its tables.
    """
    instance = _read(args.instance, instance_from_dict)
    if args.theta is None:
        return instance
    if instance._assembled:
        return assemble_from_arat(instance.arat, args.theta, instance.anchor_state)
    return replace(instance, theta=args.theta)


def _strategy(spec: str | None, instance: GameInstance, player: int) -> StationaryStrategy:
    """A strategy file, or the uniform strategy for ``uniform`` or no file."""
    if spec is None or spec == "uniform":
        return uniform_strategy(instance, player)

    def parse(doc):
        strategy = strategy_from_dict(doc)
        check_strategy(instance, strategy, player)
        return strategy

    return _read(spec, parse)


# Handlers: (args, instance) -> (exit code, payload).  Library functions are
# looked up as module attributes at call time, so tracing can patch them.

def _validate(args, instance) -> tuple[int, dict]:
    diag = validate(instance, min_prob=args.min_prob)
    payload = {"passed": diag.passed, **asdict(diag)}
    for c in diag.failures():
        print(c.message, file=sys.stderr)
    return (0 if diag.passed else 1), payload


def _solve(args, instance) -> tuple[int, dict]:
    opponent = _strategy(args.opponent, instance, 3 - args.player)
    result = solve_optimality(instance, args.player, opponent, max_iter=args.max_iter)
    if not result.converged:
        print(
            f"solve did not reach tol {TOL:g} in {args.max_iter} iterations "
            f"(residual {result.residual:g})",
            file=sys.stderr,
        )
    # the ties come from the solve's final sweep; its kernel stays out
    payload = {
        "rho": result.rho, "v": result.v, "selector": result.selector,
        "residual": result.residual, "iterations": result.iterations,
        "converged": result.converged, "tied_actions": result.tied_actions(),
    }
    return (0 if result.converged else 1), payload


def _eval(args, instance) -> tuple[int, dict]:
    Phi = _strategy(args.phi, instance, 1)
    Psi = _strategy(args.psi, instance, 2)
    if args.mc and args.horizon is None:
        raise ValueError("--mc requires --horizon")
    # checked even when no section reads them: the report records every flag
    x = instance.anchor_state if args.x is None else args.x
    x = _scalar("x", x, 0, instance.n_states, integer=True)
    _scalar("n_paths", args.paths, 1, integer=True)
    _scalar("seed", args.seed, 0, integer=True)
    payload: dict[str, Any] = {
        f"J{i}": ergodic_cost(instance, i, Phi, Psi) for i in (1, 2)
    }
    if args.horizon is not None:
        payload["finite_horizon"] = {"n": args.horizon, "x": x, **{
            f"growth{i}": finite_horizon_growth(instance, i, Phi, Psi, x, args.horizon)
            for i in (1, 2)
        }}
    if args.mc:
        estimates = mc_cost_estimate(
            instance, Phi, Psi, x, args.horizon, args.paths, args.seed
        )
        payload["mc"] = {f"player{i}": asdict(e) for i, e in enumerate(estimates, 1)}
    return 0, payload


def _nash(args, instance) -> tuple[int, dict]:
    init = (_strategy(args.phi0, instance, 1), _strategy(args.psi0, instance, 2))
    cert = best_response_dynamics(
        instance, init_pair=init, max_rounds=args.rounds, eps_target=args.eps
    )
    verified = verify_certificate(instance, cert, args.eps)
    if not cert.converged:
        print(
            f"dynamics did not certify eps <= {args.eps:g} within {args.rounds} "
            f"rounds (best max gap {cert.max_gap:g})",
            file=sys.stderr,
        )
    payload = {**certificate_to_dict(cert), "max_gap": cert.max_gap, "verified": verified,
               "stage": cert.stage}
    return (0 if cert.converged and verified else 1), payload


def _brute(args, instance) -> tuple[int, dict]:
    top = _scalar("--top", args.top, 0, integer=True)
    result = brute_force_nash(instance, grid_step=args.grid, eps=args.eps)
    return 0, {
        "grid_step": result.grid_step,
        "eps": result.eps,
        "searched_pairs": result.searched_pairs,
        "survivors": len(result),
        "existence": result.label,
        "certificates": [certificate_to_dict(c) for c in result[:top]],
    }


def _gen(args, instance) -> tuple[int, dict]:
    """The payload is the generated instance document itself."""
    if args.fixture == "g2":
        generated = g2_instance()
    else:
        generated = random_instance(
            seed=args.seed,
            dims=(args.states, args.actions_a, args.actions_b),
            min_prob=args.min_prob,
            arat_flag=args.arat,
            c_bar=args.c_bar,
            theta=args.theta,
        )
    return 0, instance_to_dict(generated)


_HANDLERS = {
    "validate": _validate, "solve": _solve, "eval": _eval,
    "nash": _nash, "brute": _brute, "gen": _gen,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    t0 = time.perf_counter()
    try:
        instance = None if args.command == "gen" else _load_instance(args)
        code, report = _HANDLERS[args.command](args, instance)
        if instance is not None:
            report = {
                "command": args.command,
                "version": __version__,
                "instance_digest": instance_digest(instance),
                "flags": {k: v for k, v in vars(args).items() if k != "command"},
                "wall_clock_s": time.perf_counter() - t0,
                **report,
            }
        text = dumps_decimal(report) + "\n"
        if args.output:
            with open(args.output, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
    except (_InputError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, AssumptionError):  # a ValueError subclass
            return 1
        # any other ValueError is a usage error; bad input or output is 3
        return 2 if isinstance(e, ValueError) else 3
    return code


if __name__ == "__main__":
    sys.exit(main())
