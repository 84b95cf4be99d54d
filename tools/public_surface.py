"""Print the package's public surface: names, keyword defaults and CLI flags.

Each name in ``rsgame.__all__`` is listed, a function with the
parameters of its signature that have defaults (its keywords; classes are
listed by name alone), then each subcommand of
``rsgame.cli.build_parser()`` with its flags, ``-h`` left out.  A flag is
one option, however many spellings it has (``-o, --output`` is one).  The
last line gives the totals, so option counts can be compared before and
after a change.

Usage: python3 tools/public_surface.py
"""
from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import rsgame  # noqa: E402
from rsgame import cli  # noqa: E402


def keywords(obj) -> list[str]:
    """The parameters of a function's signature that have a default, in order."""
    if not inspect.isfunction(obj):
        return []
    return [f"{p.name}={p.default!r}" for p in inspect.signature(obj).parameters.values()
            if p.default is not inspect.Parameter.empty]


def subcommand_flags(parser: argparse.ArgumentParser) -> dict[str, list[str]]:
    """Subcommand name -> its flags, each as its spellings joined by '/'."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: ["/".join(a.option_strings) for a in sp._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)]
        for name, sp in sub.choices.items()
    }


def main() -> int:
    n_keywords = 0
    for name in rsgame.__all__:
        found = keywords(getattr(rsgame, name))
        n_keywords += len(found)
        print(f"{name}({', '.join(found)})" if found else name)
    n_flags = 0
    for name, flags in subcommand_flags(cli.build_parser()).items():
        n_flags += len(flags)
        print(f"rsgame {name}: {' '.join(flags)}")
    print(f"total: {len(rsgame.__all__)} names, {n_keywords} keywords, {n_flags} flags")
    return 0


if __name__ == "__main__":
    sys.exit(main())
