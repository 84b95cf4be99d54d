"""Batch command-line interface.

Subcommands: ``validate`` (assumption diagnostics), ``solve`` (one player's
optimality equation against a fixed opponent file), ``eval`` (spectral,
finite-horizon, and Monte Carlo values of a strategy pair), ``nash``
(best-response dynamics with certification), ``brute`` (grid enumeration),
and ``gen`` (instance generation).  Strategy arguments accept either a file
path or the literal ``uniform``.

Every report embeds the tool version, the instance digest, the fully
resolved flag set, and the wall-clock time; reruns with identical inputs and
seeds produce identical reports up to the wall-clock field.  All numbers are
serialized as decimals with 17 significant digits, enough to round-trip IEEE
doubles exactly.

Exit codes: 0 success / all checks PASS; 1 assumption failure or
non-convergence; 2 usage error; 3 unreadable or unparseable input.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Any

from . import __version__
from .bellman import DEFAULT_MAX_ITER, DEFAULT_TOL, apply_T, solve_optimality
from .game_model import (
    DEFAULT_MIN_PROB,
    AssumptionError,
    GameInstance,
    StationaryStrategy,
    check_strategy,
    dumps_decimal,
    g2_instance,
    instance_digest,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    random_instance,
    strategy_from_dict,
    uniform_strategy,
    validate,
)
from .nash import (
    DEFAULT_BETA,
    DEFAULT_EPS_TARGET,
    DEFAULT_MAX_ROUNDS,
    DEFAULT_TAU_SCHEDULE,
    best_response_dynamics,
    brute_force_nash,
    certificate_to_dict,
    verify_certificate,
)
from .sim import mc_cost_estimate
from .spectral import ergodic_cost, finite_horizon_growth


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: the command plus every flag as parsed."""

    command: str
    instance_path: str | None
    output_path: str | None
    flags: dict[str, Any]


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
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
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

    sp = sub.add_parser("nash", help="search for an equilibrium by damped dynamics")
    common(sp)
    sp.add_argument("--eps", type=float, default=DEFAULT_EPS_TARGET,
                    help="certification target for max(eps1, eps2)")
    sp.add_argument("--beta", type=float, default=DEFAULT_BETA)
    sp.add_argument("--tau0", type=float, default=DEFAULT_TAU_SCHEDULE[0])
    sp.add_argument("--tau-min", type=float, default=DEFAULT_TAU_SCHEDULE[1])
    sp.add_argument("--tau-decay", type=float, default=DEFAULT_TAU_SCHEDULE[2])
    sp.add_argument("--no-smoothing", action="store_true",
                    help="play exact pure responses instead of logit smoothing")
    sp.add_argument("--rounds", type=int, default=DEFAULT_MAX_ROUNDS)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--phi0", default=None, help="initial player-1 strategy file")
    sp.add_argument("--psi0", default=None, help="initial player-2 strategy file")

    sp = sub.add_parser("brute", help="enumerate a strategy grid and certify pairs")
    common(sp)
    sp.add_argument("--grid", type=float, default=0.05, help="simplex grid step")
    sp.add_argument("--eps", type=float, default=0.05, help="survivor gap threshold")
    sp.add_argument("--top", type=int, default=100,
                    help="number of certificates included in the report")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)

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


def _load_json(path: str):
    with open(path) as f:
        return json.load(f)


def _load_instance(args) -> GameInstance:
    instance = instance_from_dict(_load_json(args.instance))
    if getattr(args, "theta", None) is not None:
        instance = GameInstance(
            instance.transition, instance.cost1, instance.cost2,
            args.theta, instance.anchor_state, instance.arat,
        )
    return instance


def _resolve_strategy(spec: str, instance: GameInstance, player: int) -> StationaryStrategy:
    if spec == "uniform":
        return uniform_strategy(instance, player)
    strategy = strategy_from_dict(_load_json(spec))
    try:
        check_strategy(instance, strategy, player)
    except ValueError as e:
        raise ValueError(f"{spec}: {e}") from e
    return strategy


def _solve_payload(result) -> dict:
    return {
        "rho": result.rho,
        "v": result.v.tolist(),
        "selector": result.selector.tolist(),
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
    }


def _estimate_payload(est) -> dict:
    return {
        "value": est.value, "std_error": est.std_error,
        "n_paths": est.n_paths, "horizon": est.horizon, "seed": est.seed,
    }


def _execute(config: RunConfig, instance, extra) -> tuple[int, dict]:
    """Run one command; returns (exit_code, report payload)."""
    args = config.flags
    cmd = config.command

    if cmd == "validate":
        diag = validate(instance, min_prob=args["min_prob"])
        payload = {
            "passed": diag.passed,
            "delta": diag.delta,
            "kappa": diag.kappa,
            "c_bar": diag.c_bar,
            "span_bound": diag.span_bound,
            "min_prob": diag.min_prob,
            "checks": {
                key: {
                    "description": c.description,
                    "status": c.status,
                    "message": c.message,
                    "violations": [list(v) for v in c.violations],
                }
                for key, c in diag.checks.items()
            },
        }
        for c in diag.failures():
            print(c.message, file=sys.stderr)
        return (0 if diag.passed else 1), payload

    if cmd == "solve":
        opponent = extra["opponent"]
        result = solve_optimality(
            instance, args["player"], opponent,
            tol=args["tol"], max_iter=args["max_iter"],
        )
        _, tied = apply_T(instance, args["player"], opponent, result.v)
        payload = _solve_payload(result)
        payload["tied_actions"] = [t.tolist() for t in tied]
        if not result.converged:
            print(
                f"solve did not reach tol {args['tol']:g} in "
                f"{args['max_iter']} iterations (residual {result.residual:g})",
                file=sys.stderr,
            )
        return (0 if result.converged else 1), payload

    if cmd == "eval":
        Phi, Psi = extra["phi"], extra["psi"]
        payload: dict[str, Any] = {
            "J1": ergodic_cost(instance, 1, Phi, Psi),
            "J2": ergodic_cost(instance, 2, Phi, Psi),
        }
        x = args["x"] if args["x"] is not None else instance.anchor_state
        if args["horizon"] is not None:
            payload["finite_horizon"] = {
                "n": args["horizon"],
                "x": x,
                "growth1": finite_horizon_growth(instance, 1, Phi, Psi, x, args["horizon"]),
                "growth2": finite_horizon_growth(instance, 2, Phi, Psi, x, args["horizon"]),
            }
        if args["mc"]:
            if args["horizon"] is None:
                raise ValueError("--mc requires --horizon")
            payload["mc"] = {
                f"player{i}": _estimate_payload(
                    mc_cost_estimate(
                        instance, i, Phi, Psi, x,
                        args["horizon"], args["paths"], args["seed"],
                    )
                )
                for i in (1, 2)
            }
        return 0, payload

    if cmd == "nash":
        schedule = None if args["no_smoothing"] else (
            args["tau0"], args["tau_min"], args["tau_decay"]
        )
        init = None
        if extra.get("phi0") is not None or extra.get("psi0") is not None:
            init = (
                extra.get("phi0") or uniform_strategy(instance, 1),
                extra.get("psi0") or uniform_strategy(instance, 2),
            )
        cert = best_response_dynamics(
            instance, init_pair=init, beta=args["beta"], tau_schedule=schedule,
            max_rounds=args["rounds"], eps_target=args["eps"], tol=args["tol"],
        )
        verified = verify_certificate(instance, cert, args["eps"])
        payload = certificate_to_dict(cert)
        payload["max_gap"] = cert.max_gap
        payload["verified"] = verified
        ok = cert.converged and verified
        if not cert.converged:
            print(
                f"dynamics did not certify eps <= {args['eps']:g} within "
                f"{args['rounds']} rounds (best max gap {cert.max_gap:g})",
                file=sys.stderr,
            )
        return (0 if ok else 1), payload

    if cmd == "brute":
        result = brute_force_nash(
            instance, grid_step=args["grid"], eps=args["eps"], tol=args["tol"]
        )
        payload = {
            "grid_step": result.grid_step,
            "eps": result.eps,
            "searched_pairs": result.searched_pairs,
            "survivors": len(result),
            "existence": result.label,
            "certificates": [
                certificate_to_dict(c) for c in result[: max(0, args["top"])]
            ],
        }
        return 0, payload

    raise ValueError(f"unknown command {cmd!r}")


def _run_gen(config: RunConfig) -> int:
    args = config.flags
    if args["fixture"] == "g2":
        instance = g2_instance()
    else:
        instance = random_instance(
            seed=args["seed"],
            dims=(args["states"], args["actions_a"], args["actions_b"]),
            min_prob=args["min_prob"],
            arat_flag=args["arat"],
            c_bar=args["c_bar"],
            theta=args["theta"],
        )
    text = dumps_decimal(instance_to_dict(instance)) + "\n"
    if config.output_path:
        with open(config.output_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    flags = {k: v for k, v in vars(args).items() if k != "command"}
    config = RunConfig(
        command=args.command,
        instance_path=getattr(args, "instance", None),
        output_path=args.output,
        flags=flags,
    )
    t0 = time.perf_counter()

    if config.command == "gen":
        try:
            return _run_gen(config)
        except (OSError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 3 if isinstance(e, OSError) else 2

    # input phase: unreadable or unparseable documents exit 3
    try:
        instance = _load_instance(args)
        extra: dict[str, Any] = {}
        if config.command == "solve":
            extra["opponent"] = _resolve_strategy(
                args.opponent, instance, 2 if args.player == 1 else 1
            )
        elif config.command == "eval":
            extra["phi"] = _resolve_strategy(args.phi, instance, 1)
            extra["psi"] = _resolve_strategy(args.psi, instance, 2)
        elif config.command == "nash":
            if args.phi0 is not None:
                extra["phi0"] = _resolve_strategy(args.phi0, instance, 1)
            if args.psi0 is not None:
                extra["psi0"] = _resolve_strategy(args.psi0, instance, 2)
    except json.JSONDecodeError as e:
        print(
            f"error: invalid document: {e.msg} at line {e.lineno} column {e.colno}",
            file=sys.stderr,
        )
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3

    try:
        code, payload = _execute(config, instance, extra)
    except AssumptionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    report = {
        "command": config.command,
        "version": __version__,
        "instance_digest": instance_digest(instance),
        "flags": config.flags,
        "wall_clock_s": time.perf_counter() - t0,
    }
    report.update(payload)
    text = dumps_decimal(report) + "\n"
    try:
        if config.output_path:
            with open(config.output_path, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
