"""Each narrative demo runs to completion without a RuntimeWarning."""
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


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
