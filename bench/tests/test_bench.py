"""Tests of the benchmark itself: the checkers reject corrupted outputs,
every workload runs end to end at a tiny size, and BENCHMARK.json names
what the code reports."""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from conftest import BENCH, ROOT

SEED = 3


def one_round(api, name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(api, SEED, tiny=True)
    out = wl.round(api, inputs, workloads.Recorder())
    return wl, inputs, out


def problems(api, wl, inputs, out):
    return wl.check(api, inputs, out, {})


@pytest.mark.parametrize("name", run.NAMES)
def test_checker_accepts_program_output(api, name):
    wl, inputs, out = one_round(api, name)
    assert problems(api, wl, inputs, out) == []


def _with_rate(result, row, col, delta):
    """The result with one rate moved by one trial's verdict."""
    rows = [list(r) for r in result.rows]
    rate = rows[row][col]
    rows[row][col] = rate + delta if rate + delta <= 1.0 else rate - delta
    return dataclasses.replace(result, rows=tuple(tuple(r) for r in rows))


def test_phase_curve_rejects_flipped_verdict(api):
    wl, inputs, out = one_round(api, "phase-curve")
    cfg = inputs[0]
    flipped = [_with_rate(out[0], cfg.k // 2, 1, 1.0 / cfg.trials), *out[1:]]
    assert problems(api, wl, inputs, flipped)


def test_sweep_pool_rejects_flipped_verdict(api):
    wl, inputs, out = one_round(api, "sweep-pool")
    flipped = [_with_rate(out[0], 0, 2, 1.0 / inputs[0].trials), out[1]]
    found = problems(api, wl, inputs, flipped)
    assert any("workers=1" in p for p in found)
    assert any("oracle" in p for p in found)


def _replace_first(got, key, fn):
    item = got[key][0]
    got[key][0] = item[:-1] + (fn(item[-1]),)


def test_single_support_rejects_flipped_verdict(api):
    wl, inputs, out = one_round(api, "single-support")
    _replace_first(out["cases"][0], "subset", lambda r: dataclasses.replace(r, verdict=not r.verdict))
    assert any("verdict flipped" in p for p in problems(api, wl, inputs, out))


def test_single_support_rejects_perturbed_factor(api):
    wl, inputs, out = one_round(api, "single-support")

    def perturb(rep):
        (j, v), *rest = rep.per_atom
        return dataclasses.replace(rep, per_atom=((j, v + 1e-6), *rest))

    _replace_first(out["cases"][0], "card", perturb)
    assert any("closed form" in p for p in problems(api, wl, inputs, out))


def test_single_support_rejects_perturbed_chain(api):
    wl, inputs, out = one_round(api, "single-support")
    _replace_first(out["cases"][1], "chain", lambda vals: [vals[0] + 1e-6] + vals[1:])
    assert any("recursion_chain" in p for p in problems(api, wl, inputs, out))


def test_single_support_rejects_swapped_selection(api):
    wl, inputs, out = one_round(api, "single-support")
    got = out["cases"][0]["greedy"]
    pos = next(i for i, g in enumerate(got) if len(g[-1].records) >= 2)

    def swap(trace):
        first, second, *rest = trace.records
        return dataclasses.replace(trace, records=(second, first, *rest))

    got[pos] = got[pos][:-1] + (swap(got[pos][-1]),)
    assert any("selection 0" in p for p in problems(api, wl, inputs, out))


def test_single_support_rejects_input_that_does_not_fail(api):
    wl, inputs, out = one_round(api, "single-support")
    failures = [(ci, i) for ci, got in enumerate(out["cases"]) for i in range(len(got["failure"]))]
    assert failures, "tiny inputs should contain a failing certificate"
    ci, i = failures[0]
    q, alg, y = out["cases"][ci]["failure"][i]
    support = inputs.cases[ci].qstar
    out["cases"][ci]["failure"][i] = (q, alg, inputs.cases[ci].d.matrix[:, support[0]].copy())
    assert any("does not fail" in p for p in problems(api, wl, inputs, out))


def test_l1_search_rejects_flipped_pattern(api):
    wl, inputs, out = one_round(api, "l1-search")
    nsp, brc = out[0]
    (eps, sup, feasible, x), *rest = brc.patterns
    flipped = dataclasses.replace(brc, patterns=((eps, sup, not feasible, x), *rest))
    out[0] = (nsp, flipped)
    assert problems(api, wl, inputs, out)


def test_l1_search_rejects_perturbed_supremum(api):
    wl, inputs, out = one_round(api, "l1-search")
    nsp, brc = out[0]
    out[0] = (dataclasses.replace(nsp, supremum=nsp.supremum + 1e-3), brc)
    assert any("largest pattern value" in p for p in problems(api, wl, inputs, out))


def test_oracle_closed_form_matches_enumeration(api):
    from itertools import combinations

    import oracle

    d = api.hybrid(12, 30, 5.0, 4)
    qstar = (1, 5, 9, 14)
    for card in range(len(qstar)):
        per_atom, agg = oracle.omp_cardinality(d.matrix, qstar, card)
        brute = np.max([oracle.factors(d.matrix, qstar, q, "omp")
                        for q in combinations(qstar, card)], axis=0)
        assert np.allclose(per_atom, brute, atol=1e-12)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", run.NAMES)
def test_workload_runs_end_to_end(name):
    done = _bench("--workload", name, "--seed", str(SEED), "--seconds", "0.2",
                  "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if name == "l1-search":
        # one of the four tiny cases has a 4-dimensional null space
        assert 4 * result["failed"] == result["attempted"]
    else:
        assert result["failed"] == 0


def test_traced_run_reports_every_layer():
    done = _bench("--workload", "sweep-pool", "--seed", str(SEED), "--seconds", "0.2",
                  "--trace", "1", "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert list(metrics) == list(spans.PER_LAYER)
    assert metrics["experiments.pool.efficiency"]["value"] > 0
    assert metrics["certificates.subsets"]["value"] > 0


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_UNITS


def test_refuses_to_run_without_the_package():
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        done = _bench("--workload", "l1-search", "--seed", "1", "--seconds", "1", cwd=tmp)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
