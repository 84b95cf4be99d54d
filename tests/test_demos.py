"""The narrative demos and the README's library tour run without a RuntimeWarning."""
import re
import runpy
from pathlib import Path

import pytest

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
