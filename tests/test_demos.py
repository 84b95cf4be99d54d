"""The narrative demos, the README's library tour and its command lines run clean."""
import re
import runpy
import shlex
from pathlib import Path

import pytest

from rsgame.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "name",
    [
        "01_model_and_assumptions",
        "02_operator_and_best_response",
        "03_equilibrium_search",
        "04_growth_and_simulation",
    ],
)
def test_demo_runs_clean(name, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_readme_library_tour_runs_clean():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert tour, "README has no Library tour code block"
    exec(compile(tour.group(1), "README.md (Library tour)", "exec"), {})


def readme_commands() -> list[list[str]]:
    """Each ``rsgame ...`` line of the README's Command line block, as an argv."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", readme, re.M | re.S)
    assert block, "README has no Command line sh block"
    text = block.group(1).replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in text.splitlines() if line.strip()]


def test_readme_command_lines_exit_0(capsys, monkeypatch, tmp_path):
    """In order, in one directory: the first line writes the file the others read."""
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 6
    for argv in commands:
        assert argv[0] == "rsgame", argv
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()
