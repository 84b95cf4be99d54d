"""Hash the output of a fixed corpus, one line per entry, and a total.

Two trees print the same lines exactly when they give the same bits on the
corpus, so "this change leaves every number as it was" is one command run
on each tree and compared with ``--against``.  The corpus:

- every CLI report of the CI determinism instances (at one BLAS thread
  count, which is CI's subject), and of the desk-2x2x2 and session-50x4x4
  benchmark documents of bench seeds 1-3, each call made as the benchmark
  makes it.  The documents are generated in a temporary directory.  A
  report is hashed with its exit code, without ``wall_clock_s`` and with
  its file paths relative to that directory;
- the digest of every instance document above;
- epsilon_gap on certify-300x20x20 seed 1's seven pairs;
- measured_contraction of both players on g2 and on random 3x2x2 and
  6x3x2 instances, with and without a decomposition;
- ln Q (log_twisted_tensor) of both players on the split and table routes.

Floats are hashed by their exact bits (``float.hex`` or raw bytes).  An
entry's hash is the first 16 hex digits of the sha256 of its text; the
total hashes every entry line.  Bits may differ between CPUs, so compare
two trees on one host.

Usage, from the root of a checkout (its ``src`` and ``bench`` are used):

    python3 tools/report_hashes.py [--against FILE] [--texts DIR]

``--against FILE`` reads an earlier output and lists the entries whose
hash differs, or that only one side has, and exits 1 if there are any.
``--texts DIR`` also writes each entry's hashed text to DIR.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import rsgame  # noqa: E402
from rsgame import cli, game_model  # noqa: E402

import workloads  # noqa: E402

BENCH_SEEDS = (1, 2, 3)
#: the CI determinism instances: name -> gen flags
CI_INSTANCES = {
    "det": "--states 40 --actions-a 5 --actions-b 5 --seed 3 --min-prob 0.002 --arat",
    "det-table-instance": "--states 40 --actions-a 5 --actions-b 5 --seed 3 --min-prob 0.002",
    "det-cycle": "--states 50 --actions-a 4 --actions-b 4 --seed 3014952562 --min-prob 0.002 "
                 "--arat",
    "det-brute": "--states 2 --actions-a 2 --actions-b 2 --seed 3 --arat",
    "det-brute3": "--states 3 --actions-a 2 --actions-b 2 --seed 3 --arat",
}
#: the CI determinism step's calls: instance name -> argv after --instance
CI_CALLS = {
    "det": ["nash", "validate", "solve --player 1 --opponent uniform",
            "solve --player 2 --opponent uniform",
            "eval --phi uniform --psi uniform --horizon 50"],
    "det-full": ["nash", "validate"],
    "det-table": ["solve --player 1 --opponent uniform", "solve --player 2 --opponent uniform",
                  "eval --phi uniform --psi uniform --horizon 50"],
    "det-table-instance": ["nash"],
    "det-cycle": ["nash"],
    "det-brute": ["brute --grid 0.05 --eps 0.05 --top 20"],
    "det-brute3": ["brute --grid 0.25 --eps 0.1 --top 20"],
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in values)


class Corpus:
    """Entries in the order they are made: name -> hashed text."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.texts: dict[str, str] = {}

    def add(self, name: str, text: str) -> None:
        if name in self.texts:
            raise ValueError(f"duplicate entry {name!r}")
        self.texts[name] = text

    def cli(self, name: str, argv: list[str]) -> dict | None:
        """Run one CLI call, add its report as an entry and return the report."""
        out = self.workdir / "report.json"
        out.unlink(missing_ok=True)
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["-o", str(out)])
        report = json.loads(out.read_text()) if out.exists() else None
        if report is not None:
            report.pop("wall_clock_s", None)
            flags = report.get("flags", {})
            flags.pop("output", None)
            for key, value in flags.items():
                if isinstance(value, str) and value.startswith(str(self.workdir)):
                    flags[key] = str(Path(value).relative_to(self.workdir))
        self.add(f"cli {name}", json.dumps({"exit": code, "report": report}, sort_keys=True))
        return report

    def instance(self, name: str, path: Path) -> None:
        with open(path) as f:
            instance = game_model.instance_from_dict(json.load(f))
        self.add(f"digest {name}", game_model.instance_digest(instance))


def _ci_documents(workdir: Path) -> dict[str, Path]:
    """Generate the CI determinism instances; name -> document path."""
    paths = {}
    for name, flags in CI_INSTANCES.items():
        paths[name] = workdir / f"{name}.json"
        if cli.main(["gen", *flags.split(), "-o", str(paths[name])]) != 0:
            raise RuntimeError(f"gen {flags} failed")
    # the decomposition's tables written out, with (full) and without (table)
    # the decomposition itself
    doc = json.loads(paths["det"].read_text())
    instance = game_model.instance_from_dict(doc)
    arat = doc.pop("arat")
    doc.update((key, getattr(instance, key).tolist())
               for key in ("transition", "cost1", "cost2"))
    for name, extra in (("det-table", {}), ("det-full", {"arat": arat})):
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps({**doc, **extra}))
    return paths


def _ci_entries(corpus: Corpus) -> None:
    paths = _ci_documents(corpus.workdir)
    for name, calls in CI_CALLS.items():
        corpus.instance(name, paths[name])
        for call in calls:
            argv = call.split()
            corpus.cli(f"{name} {call}", [argv[0], "--instance", str(paths[name]), *argv[1:]])


def _bench_entries(corpus: Corpus) -> None:
    """The benchmark's CLI calls on the desk and session documents of BENCH_SEEDS."""
    for seed in BENCH_SEEDS:
        desk = corpus.workdir / f"desk-{seed}"
        desk.mkdir()
        for path in workloads._desk_setup(seed, desk)[0]:
            name = f"desk-{seed}/{path.stem}"
            corpus.instance(name, path)
            doc = ["--instance", str(path)]
            corpus.cli(f"{name} validate",
                       ["validate", *doc, "--min-prob", repr(workloads.DESK_MIN_PROB)])
            corpus.cli(f"{name} nash", ["nash", *doc, "--eps", repr(workloads.NASH_EPS)])
            corpus.cli(f"{name} brute", ["brute", *doc, "--grid", repr(workloads.BRUTE_GRID),
                                         "--eps", repr(workloads.BRUTE_EPS)])
        session = corpus.workdir / f"session-{seed}"
        session.mkdir()
        for path, mc_seed in workloads._session_setup(seed, session):
            name = f"session-{seed}/{path.stem}"
            corpus.instance(name, path)
            doc = ["--instance", str(path)]
            corpus.cli(f"{name} validate",
                       ["validate", *doc, "--min-prob", repr(workloads.SESSION_MIN_PROB)])
            report = corpus.cli(f"{name} nash",
                                ["nash", *doc, "--eps", repr(workloads.NASH_EPS)])
            if report is None:
                continue
            strategies = []
            for key, player in (("phi", 1), ("psi", 2)):
                spath = session / f"{path.stem}-{key}.json"
                spath.write_text(json.dumps({"player": player, "rows": report[key]["rows"]}))
                strategies.append(str(spath))
            corpus.cli(f"{name} eval", [
                "eval", *doc, "--phi", strategies[0], "--psi", strategies[1],
                "--horizon", str(workloads.MC_HORIZON), "--mc",
                "--paths", str(workloads.MC_PATHS), "--seed", str(mc_seed)])


def _library_entries(corpus: Corpus) -> None:
    for k, (instance, phi, psi) in enumerate(workloads._certify_setup(1, corpus.workdir)):
        cert = rsgame.epsilon_gap(instance, phi, psi)
        corpus.add(f"epsilon_gap certify-1 pair {k}", _hex(
            [cert.J1, cert.J2, cert.rho1_star, cert.rho2_star, cert.eps1, cert.eps2]))

    games = {"g2": rsgame.g2_instance()}
    for dims in ((3, 2, 2), (6, 3, 2)):
        for arat in (False, True):
            for seed in range(6):
                name = f"{'x'.join(map(str, dims))} {'arat' if arat else 'table'} seed {seed}"
                games[name] = rsgame.random_instance(
                    seed, dims=dims, min_prob=0.02, arat_flag=arat)
    for name, instance in games.items():
        phi, psi = _random_pair(instance, np.random.default_rng(7))
        corpus.add(f"measured_contraction {name}", _hex(
            [rsgame.measured_contraction(instance, 1, psi),
             rsgame.measured_contraction(instance, 2, phi)]))

    for seed in range(5):
        split = rsgame.random_instance(seed, dims=(6, 3, 2), min_prob=0.02, arat_flag=True)
        table = rsgame.GameInstance(split.transition, split.cost1, split.cost2,
                                    split.theta, split.anchor_state)
        phi, psi = _random_pair(split, np.random.default_rng(seed))
        for route, instance in (("split", split), ("table", table)):
            for player in (1, 2):
                ln_q = rsgame.log_twisted_tensor(instance, player, phi.rows, psi.rows)
                corpus.add(f"ln_q {route} 6x3x2 seed {seed} player {player}",
                           hashlib.sha256(np.ascontiguousarray(ln_q).tobytes()).hexdigest())


def _random_pair(instance, rng: np.random.Generator):
    return tuple(
        rsgame.StationaryStrategy(player, rng.dirichlet(np.ones(n), size=instance.n_states))
        for player, n in ((1, instance.n_actions_a), (2, instance.n_actions_b))
    )


def build(workdir: Path) -> dict[str, str]:
    """Every entry of the corpus: name -> hashed text."""
    corpus = Corpus(workdir)
    _ci_entries(corpus)
    _bench_entries(corpus)
    _library_entries(corpus)
    return corpus.texts


def _read_lines(path: str) -> dict[str, str]:
    """An earlier output's entry hashes, total line left out."""
    hashes = {}
    with open(path) as f:
        for line in f:
            digest, _, name = line.rstrip("\n").partition("  ")
            if not name.startswith("total "):
                hashes[name] = digest
    return hashes


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--against", help="an earlier output to compare with")
    p.add_argument("--texts", help="directory to write each entry's hashed text to")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        texts = build(Path(tmp))
    hashes = {name: _digest(text) for name, text in texts.items()}
    lines = [f"{digest}  {name}" for name, digest in hashes.items()]
    print("\n".join(lines))
    print(f"{_digest(''.join(line + chr(10) for line in lines))}  total ({len(lines)} entries)")
    if args.texts:
        out = Path(args.texts)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (out / (name.replace("/", "_").replace(" ", "_") + ".txt")).write_text(text)
    if args.against:
        earlier = _read_lines(args.against)
        differ = [name for name in {**earlier, **hashes}
                  if earlier.get(name) != hashes.get(name)]
        for name in differ:
            print(f"differs: {name} ({earlier.get(name, 'absent')} -> "
                  f"{hashes.get(name, 'absent')})", file=sys.stderr)
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
