"""tools/report_hashes.py: entry lines, the total, --against and --texts, on a stub corpus."""
import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_hashes.py"

#: two entries in place of the corpus, whose build takes seconds
CORPUS = {"cli det nash": '{"exit": 0}', "digest det": "0123abcd"}


@pytest.fixture
def tool(monkeypatch):
    """The tool, loaded as a module with its build patched to CORPUS.

    Loading it puts the checkout's src and bench first on sys.path; the
    path is restored after the test.
    """
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("report_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "build", lambda workdir: dict(CORPUS))
    return module


def run(tool, argv, capsys):
    code = tool.main(argv)
    out, err = capsys.readouterr()
    return code, out.splitlines(), err


def test_prints_one_line_per_entry_and_a_total(tool, capsys):
    code, lines, err = run(tool, [], capsys)
    assert (code, err) == (0, "")
    entries = [f"{tool._digest(text)}  {name}" for name, text in CORPUS.items()]
    total = tool._digest("".join(line + "\n" for line in entries))
    assert lines == [*entries, f"{total}  total (2 entries)"]


def test_against_an_identical_output_exits_0(tool, tmp_path, capsys):
    earlier = tmp_path / "earlier.txt"
    _, lines, _ = run(tool, [], capsys)
    earlier.write_text("\n".join(lines) + "\n")
    code, again, err = run(tool, ["--against", str(earlier)], capsys)
    assert (code, again, err) == (0, lines, "")


def test_against_names_a_changed_and_a_missing_entry(tool, tmp_path, capsys):
    _, lines, _ = run(tool, [], capsys)
    nash, digest, total = lines
    earlier = tmp_path / "earlier.txt"
    # the nash entry's hash changed, and the digest entry is missing here
    earlier.write_text(f"{'0' * 16}  cli det nash\n{total}\n")
    code, _, err = run(tool, ["--against", str(earlier)], capsys)
    assert code == 1
    new_nash, new_digest = nash.split("  ")[0], digest.split("  ")[0]
    assert err.splitlines() == [
        f"differs: cli det nash ({'0' * 16} -> {new_nash})",
        f"differs: digest det (absent -> {new_digest})",
    ]


def test_texts_writes_one_file_per_entry(tool, tmp_path, capsys):
    out = tmp_path / "texts"
    code, _, _ = run(tool, ["--texts", str(out)], capsys)
    assert code == 0
    assert {p.name: p.read_text() for p in out.iterdir()} == {
        "cli_det_nash.txt": CORPUS["cli det nash"],
        "digest_det.txt": CORPUS["digest det"],
    }
