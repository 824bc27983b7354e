"""Exit codes, output layout and config round trips for the CLI."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import greedycert
from greedycert import basis_pursuit
from greedycert.basis_pursuit import brc_bp_check, nsp_check
from greedycert.cli import _build_parser, main
from greedycert.dictionaries import gaussian
from greedycert.experiments import KINDS, ExperimentConfig


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCert:
    def test_two_pair_partial_factor(self, capsys):
        code, obj = run_json(capsys, [
            "cert", "--dict", "example1", "--theta1", "0.2618", "--theta2",
            "0.7854", "--qstar", "0,1", "--q", "0", "--alg", "omp"])
        assert code == 0
        assert list(obj) == ["config", "report"]
        assert obj["report"]["aggregate"] == pytest.approx(1.3660, abs=1e-3)
        assert obj["config"]["mode"] == "subset"

    def test_cardinality_mode(self, capsys):
        code, obj = run_json(capsys, [
            "cert", "--dict", "gaussian", "--m", "20", "--n", "40",
            "--qstar", "0,1,2", "--card", "1", "--alg", "ols", "--seed", "5"])
        assert code == 0
        assert obj["config"]["card"] == 1
        assert isinstance(obj["report"]["verdict"], bool)

    def test_brc_mode(self, capsys):
        code, obj = run_json(capsys, [
            "cert", "--dict", "example1", "--theta1", str(math.pi / 12),
            "--theta2", str(math.pi / 4), "--qstar", "0,1", "--brc"])
        assert code == 0
        assert obj["report"]["verdict"] is True
        assert obj["report"]["aggregate"] == pytest.approx(1.3660254, abs=1e-6)

    def test_brc_rejects_ols(self, capsys):
        assert main(["cert", "--dict", "example1", "--qstar", "0,1",
                     "--brc", "--alg", "ols"]) == 2
        assert "ols" in capsys.readouterr().err

    def test_missing_support_rejected(self, capsys):
        assert main(["cert", "--dict", "example1"]) == 2

    def test_unknown_flag_rejected(self, capsys):
        assert main(["cert", "--dict", "example1", "--qstar", "0", "--bogus"]) == 2

    @pytest.mark.parametrize("flag,value", [
        ("--theta1", "nan"), ("--theta2", "inf"),
        ("--t-max", "inf"), ("--t-max", "nan"), ("--sigma", "inf"), ("--sigma", "nan"),
    ])
    def test_non_finite_dictionary_rejected(self, capsys, flag, value):
        # the generator parameters are checked before any draw or
        # trigonometry, so the message names the angle and numpy warns
        # about nothing
        family = {
            "--theta1": ["example1"],
            "--theta2": ["example1"],
            "--t-max": ["hybrid", "--m", "5", "--n", "8"],
            "--sigma": ["convolutive", "--n", "20"],
        }[flag]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["cert", "--dict", *family, flag, value, "--qstar", "0,1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "finite" in err
        if flag.startswith("--theta"):
            assert f"{flag[2:]} must be finite" in err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_repeated_selection_rejected(self, capsys):
        assert main(["cert", "--dict", "gaussian", "--m", "20", "--n", "40", "--seed", "3",
                     "--qstar", "1,5,9", "--q", "5,5"]) == 2
        assert "duplicate indices in the partial selection" in capsys.readouterr().err

    def test_overflowing_dictionary_rejected(self, capsys):
        assert main(["cert", "--dict", "hybrid", "--m", "5", "--n", "8", "--t-max", "1e200",
                     "--qstar", "0,1"]) == 2
        assert "overflows" in capsys.readouterr().err

    def test_q_and_card_exclusive(self, capsys):
        assert main(["cert", "--dict", "example1", "--qstar", "0,1",
                     "--q", "0", "--card", "1"]) == 2
        assert main(["cert", "--dict", "example1", "--qstar", "0,1",
                     "--q", "", "--card", "1"]) == 2

    @pytest.mark.parametrize("argv, flag", [
        (["cert", "--dict", "example1", "--qstar", "0,a"], "--qstar"),
        (["phase-curve", "--q-values", "0,a"], "--q-values"),
    ])
    def test_non_integer_list_rejected(self, capsys, argv, flag):
        # argparse splits every comma list of integers, before any work
        assert main(argv) == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err


class TestGreedy:
    def test_trace_fields(self, capsys):
        code, obj = run_json(capsys, [
            "greedy", "--alg", "ols", "--dict", "gaussian", "--m", "50",
            "--n", "100", "--k", "5", "--seed", "7"])
        assert code == 0
        assert obj["status"] == "success"
        assert sorted(r["selected"] for r in obj["iterations"]) == sorted(obj["support"])
        assert len(obj["amplitudes"]) == 5

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["greedy", "--dict", "gaussian", "--m", "30", "--n", "40",
                     "--k", "3", "--output", str(path)]) == 0
        obj = json.loads(path.read_text())
        assert list(obj)[0] == "config"
        assert "status" in obj

    def test_negative_iteration_count_rejected(self, capsys):
        assert main(["greedy", "--dict", "gaussian", "--m", "30", "--n", "40",
                     "--k", "3", "--max-iters", "-2"]) == 2
        assert "max_iters" in capsys.readouterr().err


class TestConstruct:
    def test_failure_not_applicable_when_condition_holds(self, capsys):
        # wide first pair: the full-support condition holds, 0.8165 < 1
        code, obj = run_json(capsys, [
            "construct", "--dict", "example1", "--theta1", str(math.pi / 3),
            "--theta2", str(math.pi / 4), "--qstar", "0,1"])
        assert code == 0
        assert obj["applicable"] is False and obj["input"] is None

    def test_failure_verified_when_condition_fails(self, capsys):
        code, obj = run_json(capsys, [
            "construct", "--dict", "example1", "--theta1", str(math.pi / 12),
            "--theta2", str(math.pi / 4), "--qstar", "0,1"])
        assert code == 0
        assert obj["applicable"] is True
        assert obj["status"] in ("wrong_atom", "tie_failure")
        assert obj["failure_iteration"] == 0

    def test_reach_selects_order(self, capsys):
        code, obj = run_json(capsys, [
            "construct", "--goal", "reach", "--dict", "gaussian", "--m", "20",
            "--n", "40", "--order", "3,7,11", "--seed", "2"])
        assert code == 0
        assert obj["selections"] == [3, 7, 11]

    def test_reach_requires_order(self, capsys):
        assert main(["construct", "--goal", "reach", "--dict", "gaussian",
                     "--m", "20", "--n", "40"]) == 2

    @pytest.mark.parametrize("order", ["0,99", "0,-1"])
    def test_reach_order_out_of_range(self, capsys, order):
        assert main(["construct", "--goal", "reach", "--order", order,
                     "--dict", "gaussian", "--m", "20", "--n", "40"]) == 2
        assert "outside 0..39" in capsys.readouterr().err


class TestBpAndSpark:
    def test_bp_check_reports(self, capsys):
        code, obj = run_json(capsys, [
            "bp-check", "--dict", "gaussian", "--m", "3", "--n", "5",
            "--qstar", "0,1", "--seed", "3"])
        assert code == 0
        assert set(obj) == {"config", "nsp", "brc_bp"}
        assert len(obj["brc_bp"]["patterns"]) == 4

    @pytest.mark.parametrize("m, n, qstar", [(2, 8, "0"), (6, 10, "0,1,2")])
    def test_bp_check_beyond_former_dimension_cap(self, capsys, m, n, qstar):
        code, obj = run_json(capsys, ["bp-check", "--dict", "gaussian", "--m", str(m),
                                      "--n", str(n), "--qstar", qstar])
        assert code == 0
        assert obj["nsp"]["indeterminate"] is False
        assert all(p["feasible"] is not None for p in obj["brc_bp"]["patterns"])

    @pytest.mark.parametrize("m, qstar", [(5, "0,1"), (5, "0,1,2,3,4"), (3, "0,1,2,3")])
    def test_bp_check_output_is_strict_json(self, capsys, m, qstar):
        # square dictionary (trivial null space, also with every atom on
        # the support) and a support larger than m (unbounded patterns):
        # no NaN or Infinity tokens
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        code = main(["bp-check", "--dict", "gaussian", "--m", str(m), "--n", "5",
                     "--qstar", qstar])
        obj = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert code == 0
        sups = [p["supremum"] for p in obj["brc_bp"]["patterns"]]
        if m == 5:
            assert obj["nsp"]["supremum"] is None and sups == [0.0] * 2 ** len(qstar.split(","))
        else:
            assert obj["nsp"]["supremum"] is None and None in sups

    def test_bp_check_every_atom_over_budget(self, capsys):
        # 2^29 sign patterns on a support naming all 30 atoms
        assert main(["bp-check", "--dict", "gaussian", "--m", "20", "--n", "30",
                     "--qstar", ",".join(map(str, range(30)))]) == 2
        assert "work budget" in capsys.readouterr().err

    @pytest.mark.parametrize("m, n, qstar", [(8, 6, "0,1"), (4, 8, "0,1"), (3, 7, "0,1,2")])
    def test_bp_check_solves_one_table(self, capsys, monkeypatch, m, n, qstar):
        # both reports of one call equal the two public checks, while
        # the sign-pattern table (null space and LP) is built once
        calls = []
        real = basis_pursuit._sign_patterns

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(basis_pursuit, "_sign_patterns", counted)
        code, obj = run_json(capsys, ["bp-check", "--m", str(m), "--n", str(n),
                                      "--qstar", qstar, "--seed", "3"])
        assert code == 0 and len(calls) == 1
        d = gaussian(m, n, 3)
        support = tuple(int(i) for i in qstar.split(","))
        assert obj["nsp"] == json.loads(json.dumps(nsp_check(d, support).to_json()))
        assert obj["brc_bp"] == json.loads(json.dumps(brc_bp_check(d, support).to_json()))

    def test_bp_check_duplicate_support_rejected(self, capsys):
        assert main(["bp-check", "--m", "3", "--n", "5", "--qstar", "0,0,1"]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_spark_two_pairs(self, capsys):
        code, obj = run_json(capsys, ["spark", "--dict", "example1",
                                      "--theta1", "0.5", "--theta2", "0.7"])
        assert code == 0
        assert obj["spark"] == 4

    def test_spark_null_when_independent(self, capsys):
        # a single-spike pulse gives an identity dictionary
        code, obj = run_json(capsys, ["spark", "--dict", "convolutive",
                                      "--n", "5", "--sigma", "0.01"])
        assert code == 0
        assert obj["spark"] is None


SINGLE_SHOT = {
    "cert": ["--m", "12", "--n", "20", "--qstar", "0,1,2", "--q", "1"],
    "greedy": ["--m", "12", "--n", "20", "--k", "3"],
    "construct": ["--m", "12", "--n", "20", "--qstar", "0,1,2"],
    "bp-check": ["--m", "6", "--n", "9", "--qstar", "0,1"],
    "spark": ["--m", "3", "--n", "6"],
}


@pytest.mark.parametrize("subcommand", SINGLE_SHOT)
def test_single_shot_shares_seed_and_output(tmp_path, capsys, subcommand):
    # the shared parent declares --seed and --output once for all five
    [sub] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for flag in ("--seed", "--output"):
        [action] = {a for name in SINGLE_SHOT for a in sub.choices[name]._actions
                    if flag in a.option_strings}
        assert action in sub.choices[subcommand]._actions
    argv = [subcommand, "--dict", "gaussian", "--seed", "3"] + SINGLE_SHOT[subcommand]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["config"]["seed"] == 3
    path = tmp_path / "out.json"
    assert main(argv + ["--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == printed.encode()


class TestExperiments:
    def test_default_outputs(self, tmp_path, capsys):
        code = main(["scatter", "--m", "50", "--n", "6", "--k", "5",
                     "--trials", "5", "--seed", "4", "--outdir", str(tmp_path)])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2
        csv_path = tmp_path / "scatter-seed4.csv"
        json_path = tmp_path / "scatter-seed4.json"
        assert csv_path.exists() and json_path.exists()
        first = csv_path.read_text().splitlines()[0]
        assert json.loads(first[2:])["kind"] == "scatter"
        assert list(json.loads(json_path.read_text()))[0] == "config"

    def test_phase_curve_columns(self, tmp_path, capsys):
        out = tmp_path / "pc.csv"
        assert main(["phase-curve", "--m", "20", "--n", "40", "--k", "4",
                     "--trials", "5", "--seed", "1", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "q,rate_omp,rate_ols"
        assert len(lines) == 2 + 4

    def test_config_round_trip_bytes(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        assert main(["phase-curve", "--m", "20", "--n", "40", "--k", "4",
                     "--trials", "6", "--seed", "9", "--output", str(first)]) == 0
        again = tmp_path / "b.csv"
        assert main(["phase-curve", "--config", str(first),
                     "--output", str(again)]) == 0
        assert first.read_bytes() == again.read_bytes()

    def test_config_round_trip_from_json(self, tmp_path, capsys):
        # the CSV writes brc-sigma's boolean verdict column as 0/1
        for suffix in (".json", ".csv"):
            first = tmp_path / f"a{suffix}"
            assert main(["brc-sigma", "--n", "40", "--sigmas", "1.0,2.0",
                         "--output", str(first)]) == 0
            again = tmp_path / f"b{suffix}"
            assert main(["brc-sigma", "--config", str(first),
                         "--output", str(again)]) == 0
            assert first.read_bytes() == again.read_bytes()

    def test_config_conflicts_with_flags(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        assert main(["scatter", "--m", "50", "--n", "6", "--k", "5",
                     "--trials", "3", "--output", str(first)]) == 0
        assert main(["scatter", "--config", str(first), "--trials", "5"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_config_kind_mismatch(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        assert main(["scatter", "--m", "50", "--n", "6", "--k", "5",
                     "--trials", "3", "--output", str(first)]) == 0
        assert main(["phase-curve", "--config", str(first)]) == 2

    def test_worker_count_invisible(self, tmp_path, capsys):
        one = tmp_path / "w1.csv"
        many = tmp_path / "w3.csv"
        base = ["phase-curve", "--m", "20", "--n", "40", "--k", "4",
                "--trials", "6", "--seed", "2"]
        assert main(base + ["--workers", "1", "--output", str(one)]) == 0
        assert main(base + ["--workers", "3", "--output", str(many)]) == 0
        assert one.read_bytes() == many.read_bytes()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, count):
        out = tmp_path / "w.csv"
        assert main(["phase-curve", "--m", "20", "--n", "40", "--k", "4", "--trials", "2",
                     "--workers", count, "--output", str(out)]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_first_placement_rejected(self, tmp_path, capsys):
        # "contiguous" is the one name for the leading-atoms support
        assert main(["scatter", "--m", "20", "--n", "40", "--k", "3", "--trials", "2",
                     "--placement", "first", "--outdir", str(tmp_path)]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_dims_rejected(self, capsys):
        assert main(["phase-curve", "--k", "4", "--trials", "2"]) == 2

    def test_algorithms_flag(self, tmp_path, capsys):
        both, ols = tmp_path / "both.csv", tmp_path / "ols.csv"
        base = ["phase-curve", "--m", "20", "--n", "40", "--k", "4", "--trials", "5"]
        assert main(base + ["--output", str(both)]) == 0
        assert main(base + ["--algorithms", "ols", "--output", str(ols)]) == 0
        lines = ols.read_text().splitlines()
        assert json.loads(lines[0][2:])["algorithms"] == ["ols"]
        assert lines[1] == "q,rate_ols"
        # the rule's column does not depend on the rules run beside it
        assert [row.split(",")[-1] for row in lines[2:]] == \
            [row.split(",")[-1] for row in both.read_text().splitlines()[2:]]

    @pytest.mark.parametrize("argv, message", [
        (["cert", "--dict", "gaussian", "--n", "10", "--qstar", "0"],
         "gaussian needs --m and --n positive"),
        (["cert", "--dict", "convolutive", "--qstar", "0"], "convolutive needs --n positive"),
        (["phase-curve", {"dictionary": "example1"}], "unknown dictionary kind: 'example1'"),
        (["brc-sigma", "--n", "2", "--sigmas", "1"],
         "support size 2 must satisfy 1 <= k < n = 2"),
        (["brc-sigma", "--n", "10", "--sigmas", "1", "--deltas", "0"],
         "spacing 0 is below 1"),
        (["phase-curve", "--m", "20", "--n", "40", "--k", "4", "--trials", "1",
          "--placement", "spaced", "--deltas", "20"], "spacing 20 puts atom 60 outside n = 40"),
        (["phase-curve", {"placement": "first"}], "unknown placement policy: 'first'"),
        (["brc-sigma", "--dict", "gaussian", "--m", "10", "--n", "20", "--sigmas", "1,2"],
         "brc-sigma expects a convolutive dictionary"),
        (["phase-curve", {"m": "10"}], "config field 'm' must be int, got '10'"),
        (["phase-curve", {"trials": 2.5}], "config field 'trials' must be int, got 2.5"),
        (["phase-curve", {"q_values": "01"}],
         "config field 'q_values' must be a list of int, got '01'"),
        (["spark", "--dict", "gaussian", "--m", "4", "--n", "8", "--max-size", "-3"],
         "max_size must be at least 0, got -3"),
    ], ids=["gaussian-sizes", "convolutive-size", "dictionary-kind", "support-size",
            "spacing-below-one", "spacing-past-n", "placement", "sigma-dictionary",
            "config-m-type", "config-trials-type", "config-q-values-type",
            "spark-negative-max-size"])
    def test_refusals(self, tmp_path, capsys, argv, message):
        # a dict stands for a config file: the names it sets cannot be
        # given as flags, whose choices would refuse them first
        if isinstance(argv[1], dict):
            config = ExperimentConfig(kind=argv[0], m=20, n=40, k=4).as_dict()
            path = tmp_path / "config.json"
            path.write_text(json.dumps({**config, **argv[1]}))
            argv = [argv[0], "--config", str(path)]
        assert main(argv + ["--output", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_setting_has_one_flag(self, kind):
        # every config field but the kind is set by exactly one flag of
        # the experiment group, which stores into that field
        fields = sorted(f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "kind")
        [sub] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        [group] = [g for g in sub.choices[kind]._action_groups if g.title == "experiment"]
        assert sorted(a.dest for a in group._group_actions) == fields
        assert all(len(a.option_strings) == 1 for a in group._group_actions)

    def test_io_failure_exit(self, capsys):
        assert main(["scatter", "--m", "50", "--n", "6", "--k", "5",
                     "--trials", "3", "--output", "/nonexistent/x.csv"]) == 3


class TestHelpAndEntry:
    def test_help_exits_zero(self, capsys):
        assert main(["cert", "--help"]) == 0
        text = capsys.readouterr().out
        assert "--qstar" in text and "--theta1" in text and "radians" in text

    def test_subcommand_required(self, capsys):
        assert main([]) == 2

    def test_module_entry_point(self):
        # the subprocess imports this checkout's package, not an installed one
        src = str(Path(greedycert.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "greedycert.cli", "spark", "--dict",
             "example1"], env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["spark"] == 4
