import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import rsgame as rs
from rsgame.cli import build_parser, main

from helpers import full_document, read_instance, write_document

# the bundled fixture's binary instance digest (helpers.reference_digest);
# pins both the fixture and the digest layout
G2_DIGEST = "7a40098a5ad56c6d2012fcaae975dbcfa3275b5be3b8a47e827b82d1e0bed74c"


@pytest.fixture()
def g2_path(tmp_path, g2):
    path = tmp_path / "g2.json"
    write_document(path, rs.instance_to_dict(g2))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestGen:
    def test_fixture_roundtrips_bit_exact(self, tmp_path, capsys, g2):
        out = tmp_path / "fixture.json"
        code = main(["gen", "--fixture", "g2", "-o", str(out)])
        assert code == 0
        loaded = read_instance(out)
        assert_array_equal(loaded.transition, g2.transition)
        assert_array_equal(loaded.cost1, g2.cost1)
        assert rs.instance_digest(loaded) == G2_DIGEST

    def test_random_instance_to_stdout_validates(self, capsys):
        code = main(["gen", "--seed", "3", "--states", "4"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        inst = rs.instance_from_dict(doc)
        assert inst.n_states == 4
        assert rs.validate(inst, min_prob=0.02).passed

    def test_arat_flag_embeds_decomposition(self, capsys):
        code = main(["gen", "--seed", "1", "--states", "2", "--arat"])
        assert code == 0
        inst = rs.instance_from_dict(json.loads(capsys.readouterr().out))
        assert inst.arat is not None
        diag = rs.validate(inst, min_prob=1e-6)
        assert diag.checks["4.1"].status == "PASS"

    def test_unwritable_path_exits_3(self, capsys):
        code = main(["gen", "--fixture", "g2", "-o", "/nonexistent/dir/x.json"])
        assert code == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--states", "0"), ("--states", "-1"), ("--actions-a", "0"), ("--actions-b", "0")],
    )
    def test_empty_or_negative_dimension_is_usage_error(self, capsys, flag, value):
        code, report, err = run(["gen", flag, value], capsys)
        assert code == 2
        assert report is None
        assert err == f"error: {flag[2:].replace('-', '_')} must be >= 1, got {value}\n"

    @pytest.mark.parametrize("arat", [[], ["--arat"]], ids=["table", "arat"])
    def test_negative_seed_is_usage_error(self, capsys, arat):
        code, report, err = run(["gen", "--seed", "-1", *arat], capsys)
        assert (code, report, err) == (2, None, "error: seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("value, shown", [("nan", "nan"), ("-0.1", "-0.1"), ("0", "0.0")])
    def test_nonpositive_min_prob_is_usage_error(self, capsys, value, shown):
        code, report, err = run(["gen", "--min-prob", value], capsys)
        assert code == 2
        assert report is None
        assert err == f"error: min_prob must be finite and > 0, got {shown}\n"


class TestInstanceDocuments:
    """An instance assembled from its decomposition is written as the decomposition alone.

    Which keys ``gen`` writes for each kind of instance is pinned by
    :func:`test_report_shape`.
    """

    @pytest.mark.parametrize("dims", [None, (50, 4, 4)], ids=["g2", "50x4x4"])
    def test_a_decomposition_only_document_reloads_unbuilt(
        self, g2, tmp_path, builds, decisions, dims
    ):
        inst = g2 if dims is None else rs.random_instance(
            7, dims=dims, min_prob=0.002, arat_flag=True)
        document = rs.instance_to_dict(inst)
        path = write_document(tmp_path / "slim.json", document)
        loaded = read_instance(path)
        assert rs.instance_digest(loaded) == rs.instance_digest(inst)
        assert rs.instance_to_dict(loaded) == document
        assert loaded._exact_arat is loaded.arat
        assert "transition" not in vars(loaded)
        assert builds == [] and decisions == []

    def test_commands_on_a_decomposition_only_document_build_no_table(
        self, tmp_path, capsys, builds, decisions
    ):
        inst = rs.random_instance(3, dims=(3, 2, 2), min_prob=0.02, arat_flag=True)
        slim = write_document(tmp_path / "slim.json", rs.instance_to_dict(inst))
        for argv in (
            ["nash"],
            ["eval", "--phi", "uniform", "--psi", "uniform", "--horizon", "20"],
            ["solve", "--player", "1", "--opponent", "uniform"],
            ["brute", "--grid", "0.5"],
        ):
            code, report, err = run([argv[0], "--instance", slim, *argv[1:]], capsys)
            assert code == 0, (argv, err)
            assert report["instance_digest"] == rs.instance_digest(inst)
            assert builds == [] and decisions == [], argv

    def test_theta_assembles_the_instance_again(self, tmp_path, capsys, builds, decisions):
        inst = rs.random_instance(2, dims=(30, 4, 4), min_prob=1e-3, arat_flag=True)
        slim = write_document(tmp_path / "slim.json", rs.instance_to_dict(inst))
        code, report, err = run(["nash", "--instance", slim, "--theta", "2"], capsys)
        assert (code, err) == (0, "")
        hot = rs.assemble_from_arat(inst.arat, theta=2.0)
        assert report["instance_digest"] == rs.instance_digest(hot)
        assert builds == [] and decisions == []

    @pytest.mark.parametrize("dims", [None, (50, 4, 4)], ids=["g2", "50x4x4"])
    def test_both_forms_give_the_same_reports(self, g2, tmp_path, capsys, dims):
        inst = g2 if dims is None else rs.random_instance(
            11, dims=dims, min_prob=0.002, arat_flag=True)
        document = rs.instance_to_dict(inst)
        # the slim form also as compact JSON with its keys in reverse order
        compact = tmp_path / "compact.json"
        compact.write_text(json.dumps(dict(reversed(list(document.items()))),
                                      separators=(",", ":")))
        paths = (write_document(tmp_path / "slim.json", document),
                 write_document(tmp_path / "full.json", full_document(inst)), str(compact))
        assert "transition" not in json.loads(Path(paths[0]).read_text())
        for argv in (
            ["validate"], ["validate", "--theta", "3"],
            ["solve", "--player", "2", "--opponent", "uniform"],
            ["eval", "--phi", "uniform", "--psi", "uniform", "--horizon", "10",
             "--mc", "--paths", "200", "--seed", "5"],
            ["nash"], ["nash", "--theta", "2"], ["nash", "--theta", "-1"],
            ["brute", "--grid", "0.5", "--eps", "0.3", "--top", "3"],
        ):
            outputs = []
            for path in paths:
                code, report, err = run([argv[0], "--instance", path, *argv[1:]], capsys)
                if report is not None:
                    report.pop("wall_clock_s")
                    report["flags"].pop("instance")
                outputs.append((code, json.dumps(report), err))
            assert outputs[0] == outputs[1] == outputs[2], argv
        # brute covers g2's grid and refuses the 50x4x4 one, in every form
        assert outputs[0][0] == (0 if dims is None else 2)

    @pytest.mark.parametrize("dims", [None, (50, 4, 4)], ids=["g2", "50x4x4"])
    def test_the_table_route_gives_the_same_values(self, g2, tmp_path, capsys, dims):
        """Without its decomposition an instance's tables take the table route,
        whose sweeps and mixes agree with the split route's to 1e-12."""
        inst = g2 if dims is None else rs.random_instance(
            11, dims=dims, min_prob=0.002, arat_flag=True)
        table = full_document(inst)
        del table["arat"]
        paths = (write_document(tmp_path / "slim.json", rs.instance_to_dict(inst)),
                 write_document(tmp_path / "table.json", table))
        assert read_instance(paths[1])._exact_arat is None
        for player in ("1", "2"):
            split, held = (run(["solve", "--instance", path, "--player", player,
                                "--opponent", "uniform"], capsys)[1] for path in paths)
            assert abs(split["rho"] - held["rho"]) <= 1e-12
            assert_allclose(split["v"], held["v"], rtol=0, atol=1e-12)
            assert split["tied_actions"] == held["tied_actions"]
        split, held = (run(["eval", "--instance", path, "--phi", "uniform", "--psi", "uniform",
                            "--horizon", "50"], capsys)[1] for path in paths)
        for key in ("J1", "J2"):
            assert abs(split[key] - held[key]) <= 1e-12, key
        for key in ("growth1", "growth2"):
            assert abs(split["finite_horizon"][key] - held["finite_horizon"][key]) <= 1e-12, key

    def test_partial_documents_name_the_first_missing_table(self, g2):
        document = rs.instance_to_dict(g2)
        full = full_document(g2)
        partial = [
            ({"theta": 1.0}, "transition"),
            ({**document, "cost1": full["cost1"]}, "transition"),
            ({**document, "transition": full["transition"]}, "cost1"),
            ({**document, "transition": full["transition"], "cost1": full["cost1"]}, "cost2"),
            ({**document, "arat": None}, "transition"),
            ({k: v for k, v in document.items() if k != "theta"}, "theta"),
        ]
        for doc, missing in partial:
            with pytest.raises(ValueError) as raised:
                rs.instance_from_dict(doc)
            assert str(raised.value) == f"instance document missing field {missing!r}"


class TestValidateCommand:
    def test_fixture_passes(self, g2_path, capsys):
        code, report, err = run(["validate", "--instance", g2_path], capsys)
        assert code == 0
        assert err == ""
        assert report["command"] == "validate"
        assert report["version"] == rs.__version__
        assert report["instance_digest"] == G2_DIGEST
        assert report["passed"] is True
        assert report["delta"] == pytest.approx(0.4, abs=1e-14)
        assert report["kappa"] == pytest.approx(1.5, abs=1e-14)
        assert isinstance(report["wall_clock_s"], float)
        # every check is present with a status
        assert set(report["checks"]) == {"1", "2(i)", "2(ii)", "3.1", "3.2", "4.1", "4.2"}
        assert all(c["status"] == "PASS" for c in report["checks"].values())

    @pytest.mark.parametrize("module", ["rsgame", "rsgame.cli"])
    def test_module_entry_point(self, g2_path, module):
        src = str(Path(rs.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", module, "validate", "--instance", g2_path],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["command"] == "validate"
        assert report["passed"] is True

    def test_failing_instance_exits_1_and_names_assumptions(self, tmp_path, capsys):
        t = np.zeros((2, 1, 1, 2))
        t[0, 0, 0, 0] = 1.0
        t[1, 0, 0, 1] = 1.0
        inst = rs.GameInstance(t, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
        path = tmp_path / "bad.json"
        write_document(path, rs.instance_to_dict(inst))
        code, report, err = run(["validate", "--instance", str(path)], capsys)
        assert code == 1
        assert report["passed"] is False
        assert "Assumption 2(i):" in err
        assert "Assumption 2(ii):" in err
        assert "Assumption 3.2:" in err
        # infinities stringify rather than breaking the JSON report
        assert report["kappa"] == "inf"
        assert report["span_bound"] == "inf"

    def test_min_prob_flag_is_honored_and_recorded(self, g2_path, capsys):
        code, report, err = run(
            ["validate", "--instance", g2_path, "--min-prob", "0.21"], capsys
        )
        assert code == 1
        assert report["checks"]["2(ii)"]["status"] == "FAIL"
        assert report["flags"]["min_prob"] == 0.21
        code, _, _ = run(
            ["validate", "--instance", g2_path, "--min-prob", "0"], capsys
        )
        assert code == 2  # nonpositive floor is a usage error

    def test_nan_min_prob_is_usage_error(self, g2_path, capsys):
        code, report, err = run(
            ["validate", "--instance", g2_path, "--min-prob", "nan"], capsys
        )
        assert code == 2
        assert report is None
        assert err == "error: min_prob must be finite and > 0, got nan\n"


class TestSolveCommand:
    def test_uniform_opponent_literal(self, g2_path, capsys):
        code, report, err = run(
            ["solve", "--instance", g2_path, "--player", "2",
             "--opponent", "uniform"],
            capsys,
        )
        assert code == 0
        assert report["rho"] == pytest.approx(0.26999347135527801, abs=1e-12)
        assert_allclose(report["v"], [0.0, 0.090907309999831043], atol=1e-12)
        assert report["selector"] == [1, 1]
        assert report["tied_actions"] == [[1], [1]]
        assert report["converged"] is True
        assert report["residual"] < 1e-12

    @pytest.mark.parametrize("player", [1, 2])
    def test_ties_come_from_the_final_sweep(self, g2_path, capsys, g2, player):
        code, report, err = run(
            ["solve", "--instance", g2_path, "--player", str(player),
             "--opponent", "uniform"],
            capsys,
        )
        assert code == 0
        opponent = rs.uniform_strategy(g2, 3 - player)
        res = rs.solve_optimality(g2, player, opponent)
        _, tied = rs.apply_T(g2, player, opponent, res.v)
        assert report["tied_actions"] == [list(t) for t in tied]
        # the solve's action values and kernel stay out of the report
        assert list(report) == [
            "command", "version", "instance_digest", "flags", "wall_clock_s",
            "rho", "v", "selector", "residual", "iterations", "converged",
            "tied_actions",
        ]

    def test_opponent_strategy_file(self, g2_path, tmp_path, capsys, g2):
        psi = rs.pure_strategy(g2, 2, [1, 1])
        psi_path = tmp_path / "psi.json"
        write_document(psi_path, rs.strategy_to_dict(psi))
        code, report, err = run(
            ["solve", "--instance", g2_path, "--player", "1",
             "--opponent", str(psi_path)],
            capsys,
        )
        assert code == 0
        # player 1's reply to the equilibrium strategy attains its J1
        assert report["rho"] == pytest.approx(0.49771664669626348, abs=1e-10)

    def test_iteration_cap_exits_1(self, g2_path, capsys):
        code, report, err = run(
            ["solve", "--instance", g2_path, "--player", "2",
             "--opponent", "uniform", "--max-iter", "2"],
            capsys,
        )
        assert code == 1
        assert report["converged"] is False
        assert "did not reach" in err

    def test_wrong_player_strategy_file_exits_3(self, g2_path, tmp_path, capsys, g2):
        phi = rs.uniform_strategy(g2, 1)
        path = tmp_path / "phi.json"
        write_document(path, rs.strategy_to_dict(phi))
        # solving for player 1 needs a player-2 opponent file
        code, report, err = run(
            ["solve", "--instance", g2_path, "--player", "1",
             "--opponent", str(path)],
            capsys,
        )
        assert code == 3
        assert "player" in err


class TestEvalCommand:
    def test_uniform_pair_values(self, g2_path, capsys):
        code, report, err = run(
            ["eval", "--instance", g2_path, "--phi", "uniform", "--psi", "uniform"],
            capsys,
        )
        assert code == 0
        assert report["J1"] == pytest.approx(0.57822022429909892, abs=1e-13)
        assert report["J2"] == pytest.approx(0.56219208143496413, abs=1e-13)
        assert "finite_horizon" not in report
        assert "mc" not in report

    def test_horizon_and_mc_sections(self, g2_path, capsys):
        code, report, err = run(
            ["eval", "--instance", g2_path, "--phi", "uniform", "--psi", "uniform",
             "--horizon", "50", "--mc", "--paths", "2000", "--seed", "7"],
            capsys,
        )
        assert code == 0
        fh = report["finite_horizon"]
        assert fh["n"] == 50
        assert fh["x"] == 0
        mc = report["mc"]["player2"]
        assert mc["n_paths"] == 2000
        assert abs(mc["value"] - fh["growth2"]) <= 4.0 * mc["std_error"]

    def test_mc_without_horizon_is_usage_error(self, g2_path, capsys):
        code, report, err = run(
            ["eval", "--instance", g2_path, "--phi", "uniform", "--psi", "uniform",
             "--mc"],
            capsys,
        )
        assert code == 2
        assert "--horizon" in err

    @pytest.mark.parametrize("x", [-1, 2])
    def test_out_of_range_start_state_is_usage_error(self, g2_path, capsys, x):
        code, report, err = run(
            ["eval", "--instance", g2_path, "--phi", "uniform", "--psi", "uniform",
             "--horizon", "3", "--x", str(x)],
            capsys,
        )
        assert code == 2
        assert report is None
        assert err == f"error: x must be in [0, 2), got {x}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--x", "99"], "x must be in [0, 2), got 99"),
        (["--x", "-1"], "x must be in [0, 2), got -1"),
        (["--paths", "0"], "n_paths must be >= 1, got 0"),
        (["--paths", "-3", "--horizon", "3"], "n_paths must be >= 1, got -3"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--seed", "-1", "--horizon", "3", "--mc", "--paths", "10"],
         "seed must be >= 0, got -1"),
    ], ids=["x-99", "x-neg", "paths-0", "paths-neg-with-horizon", "seed-neg", "seed-neg-with-mc"])
    def test_start_state_and_paths_are_checked_when_unread(self, g2_path, capsys, flags,
                                                            message):
        """No section reads --x without --horizon, nor --paths and --seed without
        --mc; the report would still record them, so they are checked up front."""
        code, report, err = run(
            ["eval", "--instance", g2_path, "--phi", "uniform", "--psi", "uniform", *flags],
            capsys,
        )
        assert (code, report, err) == (2, None, f"error: {message}\n")

    def test_theta_override_changes_values_and_digest(self, g2_path, capsys):
        _, base, _ = run(
            ["eval", "--instance", g2_path, "--phi", "uniform", "--psi", "uniform"],
            capsys,
        )
        code, hot, err = run(
            ["eval", "--instance", g2_path, "--theta", "2.0",
             "--phi", "uniform", "--psi", "uniform"],
            capsys,
        )
        assert code == 0
        assert hot["J2"] > base["J2"]
        # the digest identifies the instance actually evaluated
        assert hot["instance_digest"] != base["instance_digest"]
        assert hot["flags"]["theta"] == 2.0

    def test_rejected_theta_is_usage_error(self, g2_path, capsys):
        code, report, err = run(
            ["eval", "--instance", g2_path, "--theta", "-1",
             "--phi", "uniform", "--psi", "uniform"],
            capsys,
        )
        assert code == 2
        assert report is None
        assert err == "error: theta must be finite and > 0, got -1.0\n"


class TestNashCommand:
    def test_dynamics_certify_fixture(self, g2_path, capsys):
        code, report, err = run(["nash", "--instance", g2_path], capsys)
        assert code == 0
        assert report["converged"] is True
        assert report["verified"] is True
        assert report["stage"] == "pure"
        assert report["max_gap"] <= 1e-6
        assert report["rounds"] <= 30
        phi_rows = np.array(report["phi"]["rows"])
        assert np.all(phi_rows[:, 0] >= 0.999)

    def test_round_cap_exits_1(self, g2_path, capsys):
        code, report, err = run(
            ["nash", "--instance", g2_path, "--eps", "1e-18", "--rounds", "5"],
            capsys,
        )
        assert code == 1
        assert report["converged"] is False
        assert "did not certify" in err

    def test_warm_start_files(self, g2_path, tmp_path, capsys, g2):
        phi = rs.pure_strategy(g2, 1, [0, 0])
        psi = rs.pure_strategy(g2, 2, [1, 1])
        phi_path, psi_path = tmp_path / "phi.json", tmp_path / "psi.json"
        write_document(phi_path, rs.strategy_to_dict(phi))
        write_document(psi_path, rs.strategy_to_dict(psi))
        code, report, err = run(
            ["nash", "--instance", g2_path,
             "--phi0", str(phi_path), "--psi0", str(psi_path)],
            capsys,
        )
        assert code == 0
        assert report["rounds"] == 0  # already an equilibrium at entry


class TestBruteCommand:
    def test_coarse_grid_report(self, g2_path, capsys):
        code, report, err = run(
            ["brute", "--instance", g2_path, "--grid", "0.5", "--eps", "0.3",
             "--top", "2"],
            capsys,
        )
        assert code == 0
        assert report["searched_pairs"] == 81
        assert report["survivors"] == 43
        assert len(report["certificates"]) == 2
        assert report["existence"].startswith("existence guaranteed")
        best = report["certificates"][0]
        assert best["eps1"] <= 1e-12
        assert best["eps2"] <= 1e-12

    def test_negative_top_is_usage_error(self, g2_path, capsys):
        code, report, err = run(
            ["brute", "--instance", g2_path, "--grid", "0.5", "--top", "-1"], capsys
        )
        assert code == 2
        assert report is None
        assert err == "error: --top must be >= 0, got -1\n"

    def test_oversized_grid_is_usage_error(self, g2_path, capsys):
        code, report, err = run(
            ["brute", "--instance", g2_path, "--grid", "0.01"], capsys
        )
        assert code == 2
        assert "grid" in err

    @pytest.mark.parametrize("step, shown", [("0", "0.0"), ("nan", "nan")])
    def test_zero_or_nan_grid_is_usage_error(self, g2_path, capsys, step, shown):
        code, report, err = run(["brute", "--instance", g2_path, "--grid", step], capsys)
        assert code == 2
        assert report is None
        assert err == f"error: grid_step must be in (0, 1], got {shown}\n"


class TestErrorPaths:
    def test_missing_instance_file(self, capsys):
        code, report, err = run(
            ["validate", "--instance", "/no/such/file.json"], capsys
        )
        assert code == 3
        assert "error" in err

    def test_unparseable_document_reports_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{bad json")
        code, report, err = run(["validate", "--instance", str(path)], capsys)
        assert code == 3
        assert "line 1" in err and "column" in err

    def test_semantically_invalid_document(self, g2, g2_path, tmp_path, capsys):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"theta": 1.0}))
        code, report, err = run(["validate", "--instance", str(path)], capsys)
        assert code == 3
        assert "transition" in err
        # scalar fields are taken as written: never truncated, parsed or read as a number
        fields = [
            ("anchor_state", 0.9, "anchor_state must be an integer, got 0.9"),
            ("anchor_state", 2.5, "anchor_state must be an integer, got 2.5"),
            ("anchor_state", True, "anchor_state must be an integer, got True"),
            ("theta", True, "theta must be a real number, got True"),
            ("theta", "1.5", "theta must be a real number, got '1.5'"),
            ("states", 3.7, "states must be an integer, got 3.7"),
        ]
        for key, value, message in fields:
            doc = rs.instance_to_dict(g2)
            doc[key] = value
            write_document(path, doc)
            assert run(["validate", "--instance", str(path)], capsys) == (
                3, None, f"error: {path}: {message}\n"), (key, value)
        phi = tmp_path / "phi.json"
        for value in (1.7, True, "1"):
            write_document(phi, {"player": value, "rows": [[1, 0], [1, 0]]})
            argv = ["eval", "--instance", g2_path, "--phi", str(phi), "--psi", "uniform"]
            assert run(argv, capsys) == (
                3, None, f"error: {phi}: player must be an integer, got {value!r}\n"), value

    # (--instance document, --phi document, stderr after "error: <path>: ")
    BAD_DOCUMENTS = {
        "json": (
            b'{"theta": 1.0,\n"transition" []}', b'{"player": 1,\n"rows" []}',
            "invalid document: Expecting ':' delimiter at line 2 column",
        ),
        "utf8": (b"\xff", b"\xff", "'utf-8' codec can't decode byte 0xff"),
        "missing": (
            b'{"theta": 1.0}', b'{"rows": [[1, 0], [1, 0]]}', "document missing field",
        ),
        "fit": (None, b'{"player": 1, "rows": [[0.5, 0.6], [1, 0]]}', "sums to"),
        "sum": (
            b'{"theta": 1.0, "anchor_state": 0, "states": 1, "actions_a": 1,'
            b' "actions_b": 1, "transition": [[[[1.1]]]], "cost1": [[[0]]],'
            b' "cost2": [[[0]]]}',
            b'{"player": 1, "rows": [[0.5, 0.6], [1, 0]]}',
            "sums to 1.1, off by more than 1e-09",
        ),
        "kind": (b"[1, 2]", b'{"player": null, "rows": [[1, 0], [1, 0]]}', ""),
        "scalar": (b"5", b"5", ""),
    }

    @pytest.mark.parametrize("flag", ["--instance", "--phi"])
    @pytest.mark.parametrize("kind", list(BAD_DOCUMENTS))
    def test_input_errors_name_the_file(self, g2, g2_path, tmp_path, capsys, kind, flag):
        instance_doc, phi_doc, message = self.BAD_DOCUMENTS[kind]
        path = tmp_path / "bad.json"
        if flag == "--phi":
            path.write_bytes(phi_doc)
            argv = ["eval", "--instance", g2_path, "--phi", str(path), "--psi", "uniform"]
        else:
            if instance_doc is None:  # declared dimensions that the tables do not have
                doc = rs.instance_to_dict(g2)
                doc["states"] = 3
                write_document(path, doc)
                message = "declared states = 3 but tables have 2"
            else:
                path.write_bytes(instance_doc)
            argv = ["eval", "--instance", str(path), "--phi", "uniform", "--psi", "uniform"]
        code, report, err = run(argv, capsys)
        assert code == 3
        assert report is None
        assert err.startswith(f"error: {path}: ")
        assert message in err
        assert "np.float64" not in err

    @pytest.mark.parametrize("table", ["p1", "c11"])
    def test_nan_in_the_decomposition_is_an_input_error(self, g2, tmp_path, capsys, table):
        doc = rs.instance_to_dict(g2)
        entry = doc["arat"][table][1]
        if table == "p1":
            entry = entry[0]  # p1[1][0] is a row of next-state masses
        entry[0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # the JSON literal NaN
        for argv in (["validate"], ["brute", "--grid", "0.5"]):
            code, report, err = run([argv[0], "--instance", str(path), *argv[1:]], capsys)
            assert (code, report, err) == (
                3, None, f"error: {path}: {table} entries must be finite and >= 0\n"), argv

    def test_usage_errors_exit_2(self, g2_path, capsys):
        assert main(["frobnicate"]) == 2
        assert main(["solve", "--instance", g2_path]) == 2  # missing --opponent
        assert main(
            ["solve", "--instance", g2_path, "--player", "3", "--opponent", "uniform"]
        ) == 2
        capsys.readouterr()
        solve = ["solve", "--instance", g2_path, "--player", "1", "--opponent", "uniform"]
        brute = ["brute", "--instance", g2_path, "--grid", "0.5"]
        nash = ["nash", "--instance", g2_path]
        validate = ["validate", "--instance", g2_path]
        thresholds = [
            (["gen"], "--c-bar", "c_bar must be finite and >= 0"),
            (brute, "--eps", "eps must be finite and >= 0"),
            (nash, "--eps", "eps_target must be finite and > 0"),
            (validate, "--min-prob", "min_prob must be finite and > 0"),
        ]
        for argv, flag, message in thresholds:
            for value, shown in (("nan", "nan"), ("inf", "inf"), ("-1", "-1.0")):
                code, report, err = run([*argv, flag, value], capsys)
                assert (code, report, err) == (2, None, f"error: {message}, got {shown}\n"), (
                    argv[0], flag, value)
        others = [
            (nash, "--rounds", "-1", "max_rounds must be >= 0"),
            (solve, "--max-iter", "0", "max_iter must be >= 1"),
            (solve, "--max-iter", "-5", "max_iter must be >= 1"),
        ]
        for argv, flag, value, message in others:
            code, report, err = run([*argv, flag, value], capsys)
            assert (code, report, err) == (2, None, f"error: {message}, got {value}\n"), (
                argv[0], flag, value)
        # the stopping tolerance, the damping and the temperature schedule are
        # constants: argparse refuses their old flags
        removed = [(solve, "--tol", "1e-12"), (brute, "--tol", "1e-12"),
                   (nash, "--tol", "1e-12"), (nash, "--beta", "0.5"), (nash, "--tau0", "0.1"),
                   (nash, "--tau-min", "1e-4"), (nash, "--tau-decay", "0.85"),
                   (nash, "--no-smoothing")]
        for argv, *flag in removed:
            code, report, err = run([*argv, *flag], capsys)
            assert (code, report) == (2, None), flag
            assert f"unrecognized arguments: {' '.join(flag)}" in err, flag

    def test_unwritable_report_path(self, g2_path, capsys):
        code = main(
            ["validate", "--instance", g2_path, "-o", "/nonexistent/dir/report.json"]
        )
        assert code == 3
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert rs.__version__ in capsys.readouterr().out


class TestReportDeterminism:
    def test_identical_runs_differ_only_in_wall_clock(self, g2_path, tmp_path):
        out = tmp_path / "report.json"
        argv = ["nash", "--instance", g2_path, "-o", str(out)]
        assert main(argv) == 0
        first = json.loads(out.read_text())
        assert main(argv) == 0
        second = json.loads(out.read_text())
        first.pop("wall_clock_s")
        second.pop("wall_clock_s")
        assert first == second

    def test_seeded_mc_reports_are_reproducible(self, g2_path, tmp_path):
        out = tmp_path / "report.json"
        argv = [
            "eval", "--instance", g2_path, "--phi", "uniform", "--psi", "uniform",
            "--horizon", "20", "--mc", "--paths", "500", "--seed", "42",
            "-o", str(out),
        ]
        assert main(argv) == 0
        first = json.loads(out.read_text())
        assert main(argv) == 0
        second = json.loads(out.read_text())
        assert first["mc"] == second["mc"]

    def test_flags_record_the_full_invocation(self, g2_path, capsys):
        code, report, err = run(
            ["solve", "--instance", g2_path, "--player", "2",
             "--opponent", "uniform"],
            capsys,
        )
        assert code == 0
        flags = report["flags"]
        assert flags["instance"] == g2_path
        assert flags["player"] == 2
        assert flags["opponent"] == "uniform"
        assert flags["max_iter"] == 100000
        assert "command" not in flags

    def test_the_one_parser_gives_each_call_its_own_flags(self, g2_path, tmp_path):
        # main parses with one parser per process; two calls with different
        # flags write reports whose flags differ exactly where the flags do
        assert build_parser() is build_parser()
        outs = [tmp_path / "first.json", tmp_path / "second.json"]
        assert main(["eval", "--instance", g2_path, "--phi", "uniform", "--psi", "uniform",
                     "--horizon", "5", "--mc", "--paths", "40", "--seed", "3",
                     "-o", str(outs[0])]) == 0
        assert main(["eval", "--instance", g2_path, "--phi", "uniform", "--psi", "uniform",
                     "--theta", "0.5", "-o", str(outs[1])]) == 0
        first, second = (json.loads(out.read_text())["flags"] for out in outs)
        changed = {k for k in first.keys() | second.keys() if first.get(k) != second.get(k)}
        assert changed == {"horizon", "mc", "paths", "seed", "theta", "output"}
        assert (first["horizon"], first["mc"], first["paths"], first["seed"]) == (5, True, 40, 3)
        assert (second["horizon"], second["mc"], second["paths"], second["seed"]) == (
            None, False, 10_000, 0)
        assert (first["theta"], second["theta"]) == (None, 0.5)

    def test_reports_roundtrip_seventeen_digit_floats(self, g2_path, capsys):
        code, report, err = run(
            ["eval", "--instance", g2_path, "--phi", "uniform", "--psi", "uniform"],
            capsys,
        )
        # the serialized decimal parses back to the library's float, bit for bit
        inst = read_instance(g2_path)
        phi = rs.uniform_strategy(inst, 1)
        psi = rs.uniform_strategy(inst, 2)
        assert report["J1"] == rs.ergodic_cost(inst, 1, phi, psi)
        assert report["J2"] == rs.ergodic_cost(inst, 2, phi, psi)


def key_paths(doc, prefix=""):
    """Every key of a JSON document as a dotted path, depth first in document order."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield prefix + key
            yield from key_paths(value, f"{prefix}{key}.")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from key_paths(value, f"{prefix}{i}.")


ENVELOPE = "command version instance_digest flags flags.instance flags.theta flags.output"
CHECK_KEYS = ("1", "2(i)", "2(ii)", "3.1", "3.2", "4.1", "4.2")
CHECK_FIELDS = ("description", "status", "message", "violations")
VALIDATE_PATHS = (
    f"{ENVELOPE} flags.min_prob wall_clock_s passed delta kappa c_bar span_bound "
    "min_prob checks " + " ".join(
        f"checks.{k} " + " ".join(f"checks.{k}.{f}" for f in CHECK_FIELDS)
        for k in CHECK_KEYS
    )
)
CERTIFICATE_KEYS = (
    "phi phi.player phi.rows psi psi.player psi.rows J1 J2 rho1_star rho2_star "
    "eps1 eps2 rounds converged"
)

# argv ("G2" and "BAD" stand for instance files), exit code, stderr, key paths
#: the key paths of an instance document, decomposition only and full
DECOMPOSITION_ONLY = ("theta anchor_state states actions_a actions_b "
                      "arat arat.p1 arat.p2 arat.c11 arat.c21 arat.c12 arat.c22")
FULL = "theta anchor_state states actions_a actions_b transition cost1 cost2"

SHAPES = {
    "gen": (["gen", "--seed", "1", "--states", "2", "--arat"], 0, "", DECOMPOSITION_ONLY),
    "gen-g2": (["gen", "--fixture", "g2"], 0, "", DECOMPOSITION_ONLY),
    "gen-full": (["gen", "--seed", "1", "--states", "2"], 0, "", FULL),
    "validate-pass": (["validate", "--instance", "G2"], 0, "", VALIDATE_PATHS),
    "validate-fail": (
        ["validate", "--instance", "BAD"], 1,
        "Assumption 2(i): delta = 1 >= 1\n"
        "Assumption 2(ii): 2 transition entries below min_prob = 1e-06\n"
        "Assumption 3.2: kappa infinite (zero transition entries)\n",
        VALIDATE_PATHS,
    ),
    "solve": (
        ["solve", "--instance", "G2", "--player", "2", "--opponent", "uniform"], 0, "",
        f"{ENVELOPE} flags.player flags.opponent flags.max_iter wall_clock_s "
        "rho v selector residual iterations converged tied_actions",
    ),
    "eval": (
        ["eval", "--instance", "G2", "--phi", "uniform", "--psi", "uniform",
         "--horizon", "5", "--mc", "--paths", "100"], 0, "",
        f"{ENVELOPE} flags.phi flags.psi flags.horizon flags.mc flags.paths flags.seed "
        "flags.x wall_clock_s J1 J2 finite_horizon finite_horizon.n finite_horizon.x "
        "finite_horizon.growth1 finite_horizon.growth2 mc " + " ".join(
            f"mc.player{i} " + " ".join(
                f"mc.player{i}.{k}" for k in ("value", "std_error", "n_paths", "horizon", "seed")
            )
            for i in (1, 2)
        ),
    ),
    "nash": (
        ["nash", "--instance", "G2"], 0, "",
        f"{ENVELOPE} flags.eps flags.rounds flags.phi0 flags.psi0 wall_clock_s "
        f"{CERTIFICATE_KEYS} max_gap verified stage",
    ),
    "brute": (
        ["brute", "--instance", "G2", "--grid", "0.5", "--eps", "0.3", "--top", "2"], 0, "",
        f"{ENVELOPE} flags.grid flags.eps flags.top wall_clock_s grid_step eps "
        "searched_pairs survivors existence certificates " + " ".join(
            f"certificates.{i}.{k}" for i in (0, 1) for k in CERTIFICATE_KEYS.split()
        ),
    ),
}


@pytest.mark.parametrize("name", SHAPES)
def test_report_shape(name, g2_path, tmp_path, capsys):
    """Exit code, stderr and the ordered key paths of each subcommand's report."""
    argv, want_code, want_err, want_paths = SHAPES[name]
    t = np.zeros((2, 1, 1, 2))
    t[0, 0, 0, 0] = 1.0
    t[1, 0, 0, 1] = 1.0
    bad_path = tmp_path / "bad.json"
    bad = rs.GameInstance(t, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))
    write_document(bad_path, rs.instance_to_dict(bad))
    files = {"G2": g2_path, "BAD": str(bad_path)}
    code, report, err = run([files.get(a, a) for a in argv], capsys)
    assert code == want_code
    assert err == want_err
    assert list(key_paths(report)) == want_paths.split()
