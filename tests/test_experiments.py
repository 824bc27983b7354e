"""Monte Carlo harness vs the certificate API and format contracts."""

import concurrent.futures
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from greedycert import dictionaries, experiments as ex
from greedycert.certificates import brc_omp, erc_oxx_subset
from greedycert.dictionaries import convolutive, gaussian, hybrid
from greedycert.greedy import select_ols, select_omp
from greedycert.linalg import extend_state, residual, state_for


class TestConfig:
    def test_round_trip(self):
        cfg = ex.ExperimentConfig(kind="phase-curve", m=20, n=40, k=4,
                                  trials=7, base_seed=3, q_values=[0, 2])
        assert cfg.q_values == (0, 2)
        assert ex.ExperimentConfig.from_dict(cfg.as_dict()) == cfg

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ex.ExperimentConfig(kind="warp")

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            ex.ExperimentConfig(kind="scatter", trials=0)

    def test_rejects_bad_algorithms(self):
        with pytest.raises(ValueError):
            ex.ExperimentConfig(kind="scatter", algorithms=("omp", "omp"))
        with pytest.raises(ValueError):
            ex.ExperimentConfig(kind="scatter", algorithms=("mp",))

    def test_rejects_unknown_field(self):
        with pytest.raises(ValueError):
            ex.ExperimentConfig.from_dict({"kind": "scatter", "oops": 1})


class TestFactorCurves:
    def test_matches_certificate_api(self):
        # single-table path vs the per-subset public evaluator
        rng = np.random.default_rng(17)
        worst = 0.0
        for trial in range(12):
            d = gaussian(12, 20, trial)
            qstar = tuple(sorted(rng.choice(20, 5, replace=False).tolist()))
            order = tuple(int(i) for i in rng.permutation(qstar))
            curves = ex._factor_curves(d, qstar, order, range(5), ("omp", "ols"))
            for q in range(5):
                for alg in ("omp", "ols"):
                    ref = erc_oxx_subset(d, qstar, order[:q], alg).aggregate
                    worst = max(worst, abs(ref - curves[alg][0][q]))
        assert worst < 1e-8

    def test_rejects_non_permutation_order(self):
        with pytest.raises(ValueError):
            ex._factor_curves(gaussian(10, 15, 0), (0, 1, 2), (0, 1, 3), (0,), ("omp",))

    def test_rejects_q_at_support_size(self):
        with pytest.raises(ValueError):
            ex._factor_curves(gaussian(10, 15, 0), (0, 1), (0, 1), (2,), ("omp",))


class TestScatter:
    def test_requires_single_wrong_atom(self):
        with pytest.raises(ValueError):
            ex.scatter_experiment(ex.ExperimentConfig(kind="scatter", m=20, n=12, k=10))

    def test_partial_value_never_exceeds_full(self):
        cfg = ex.ExperimentConfig(kind="scatter", m=100, n=11, k=10, trials=60)
        res = ex.scatter_experiment(cfg)
        assert res.columns == ("trial", "f_erc", "f_omp", "f_ols")
        for _, f_erc, f_omp, f_ols in res.rows:
            assert f_omp <= f_erc + 1e-12
            if f_erc < 1.0:
                assert f_ols <= f_erc + 1e-12

    def test_reproducible(self):
        cfg = ex.ExperimentConfig(kind="scatter", m=50, n=6, k=5, trials=10, base_seed=4)
        assert ex.scatter_experiment(cfg).rows == ex.scatter_experiment(cfg).rows


class TestPhaseCurve:
    def test_identity_like_dictionary_rate_one(self):
        # sigma small enough that the pulse is a single spike
        cfg = ex.ExperimentConfig(kind="phase-curve", dictionary="convolutive",
                                  sigma=0.01, n=30, k=4, trials=10,
                                  placement="contiguous")
        res = ex.phase_curve(cfg)
        for row in res.rows:
            assert row[1] == 1.0 and row[2] == 1.0

    def test_ols_certain_at_last_step(self):
        cfg = ex.ExperimentConfig(kind="phase-curve", m=30, n=60, k=6, trials=30,
                                  base_seed=11)
        res = ex.phase_curve(cfg)
        assert res.columns == ("q", "rate_omp", "rate_ols")
        assert res.column("rate_ols")[-1] == 1.0
        for rate in res.column("rate_omp") + res.column("rate_ols"):
            assert 0.0 <= rate <= 1.0

    def test_omp_verdicts_monotone_per_trial(self):
        # a satisfied condition cannot lapse as the partial support grows
        cfg = ex.ExperimentConfig(kind="phase-curve", m=25, n=50, k=6, trials=15,
                                  base_seed=7, algorithms=("omp",))
        for t in range(cfg.trials):
            verdicts = ex._phase_trial((cfg, t))[0]
            assert sorted(verdicts) == list(verdicts)

    def test_true_verdict_implies_greedy_completion(self):
        # replay trials: whenever the certificate holds at (Q, q), any
        # input on the support must finish on true atoms from state Q
        cfg = ex.ExperimentConfig(kind="phase-curve", m=25, n=50, k=5, trials=10,
                                  base_seed=21)
        rng = np.random.default_rng(0)
        checked = 0
        for t in range(cfg.trials):
            d, qstar, order = ex.phase_trial_state(cfg, t)
            curves = ex._factor_curves(d, qstar, order, range(5), ("omp", "ols"))
            for alg, select in (("omp", select_omp), ("ols", select_ols)):
                hits = [q for q in range(1, 5) if curves[alg][1][q]]
                if not hits:
                    continue
                checked += 1
                q = hits[0]
                y = d.matrix[:, qstar] @ rng.uniform(0.5, 2.0, 5)
                state = state_for(d, order[:q])
                taken = set(order[:q])
                while len(taken) < 5:
                    sel = select(state, residual(state, y))
                    assert sel.selected in qstar
                    state = extend_state(state, sel.selected)
                    taken.add(sel.selected)
        assert checked >= 10


class TestPhaseDiagram:
    def test_grid_shape_and_bounds(self):
        cfg = ex.ExperimentConfig(kind="phase-diagram", m=30, n_grid=(40, 80),
                                  k_grid=(2, 6), trials=8, base_seed=5)
        res = ex.phase_diagram(cfg)
        assert res.columns == ("n", "k", "ratio_omp", "ratio_ols")
        assert [row[:2] for row in res.rows] == [(40, 2), (40, 6), (80, 2), (80, 6)]
        for row in res.rows:
            assert 0.0 <= row[2] <= 1.0 and 0.0 <= row[3] <= 1.0

    def test_identity_like_ratio_zero(self):
        cfg = ex.ExperimentConfig(kind="phase-diagram", dictionary="convolutive",
                                  sigma=0.01, n_grid=(30,), k_grid=(3,), trials=5)
        res = ex.phase_diagram(cfg)
        assert res.rows[0][2:] == (0.0, 0.0)

    def test_rejects_oversized_support(self):
        cfg = ex.ExperimentConfig(kind="phase-diagram", m=10, n_grid=(40,),
                                  k_grid=(10,), trials=2)
        with pytest.raises(ValueError):
            ex.phase_diagram(cfg)


class TestFVsQ:
    def test_matches_subset_certificates(self):
        cfg = ex.ExperimentConfig(kind="f-vs-q", dictionary="convolutive", n=60,
                                  k=4, sigma=3.0, placement="contiguous")
        res = ex.f_vs_q_curve(cfg)
        d = convolutive(60, 3.0)
        for q, f_omp_val, f_ols_val in res.rows:
            assert f_omp_val == pytest.approx(
                erc_oxx_subset(d, (0, 1, 2, 3), tuple(range(q)), "omp").aggregate, abs=1e-9)
            assert f_ols_val == pytest.approx(
                erc_oxx_subset(d, (0, 1, 2, 3), tuple(range(q)), "ols").aggregate, abs=1e-9)

    def test_rejects_random_placement(self):
        cfg = ex.ExperimentConfig(kind="f-vs-q", dictionary="convolutive", n=60,
                                  k=4, sigma=3.0, placement="random")
        with pytest.raises(ValueError):
            ex.f_vs_q_curve(cfg)

    def test_rejects_first_placement(self):
        # "contiguous" is the one name for the leading-atoms support
        cfg = ex.ExperimentConfig(kind="f-vs-q", dictionary="convolutive", n=60,
                                  k=4, sigma=3.0, placement="first")
        with pytest.raises(ValueError):
            ex.f_vs_q_curve(cfg)


class TestBrcMap:
    def test_square_cells_never_certified(self):
        cfg = ex.ExperimentConfig(kind="brc-map", m_grid=(20,), n_grid=(22,),
                                  k=2, trials=30, base_seed=3)
        assert ex.brc_map(cfg).rows[0][2] == 0.0

    def test_coherent_overcomplete_cells_certified(self):
        cfg = ex.ExperimentConfig(kind="brc-map", dictionary="hybrid", t_max=10.0,
                                  m_grid=(10,), n_grid=(30,), k=2, trials=30,
                                  base_seed=3)
        assert ex.brc_map(cfg).rows[0][2] > 0.2

    def test_requires_pair_support(self):
        cfg = ex.ExperimentConfig(kind="brc-map", m_grid=(10,), n_grid=(30,), k=3)
        with pytest.raises(ValueError):
            ex.brc_map(cfg)

    def test_chunked_cells_match_one_certificate_per_trial(self, monkeypatch):
        # three 8 x 20 trials per stack: cells split into 4 and 5 chunks
        monkeypatch.setattr(ex, "_STACK_BYTES", 3 * 8 * 8 * 20)
        cfg = ex.ExperimentConfig(kind="brc-map", dictionary="hybrid", t_max=10.0,
                                  m_grid=(8, 12), n_grid=(20,), k=2, trials=10,
                                  base_seed=5)
        rows = ex.brc_map(cfg).rows
        for ci, m in enumerate(cfg.m_grid):
            seeds = range(5 + 10 * ci, 15 + 10 * ci)
            hits = sum(brc_omp(hybrid(m, 20, 10.0, s), (0, 1), fast=True).verdict
                       for s in seeds)
            assert rows[ci] == (m, 20, hits / 10)
        assert 0 < sum(row[2] for row in rows) < 2

    @pytest.fixture
    def stacks(self, monkeypatch):
        # the shape of every stack brc-map hands to the kernel
        shapes = []
        kernel = ex.factor_chain

        def recorded(stack, order, probes):
            shapes.append(stack.shape)
            return kernel(stack, order, probes)

        monkeypatch.setattr(ex, "factor_chain", recorded)
        return shapes

    def test_stacks_stay_within_the_byte_budget(self, stacks):
        cfg = ex.ExperimentConfig(kind="brc-map", m_grid=(40,), n_grid=(120,), k=2,
                                  trials=250, base_seed=1)
        ex.brc_map(cfg)
        assert stacks == [(109, 40, 120), (109, 40, 120), (32, 40, 120)]
        assert 109 * 40 * 120 * 8 <= ex._STACK_BYTES

    def test_convolutive_chunks_are_sized_from_the_dictionary(self, stacks, monkeypatch):
        # three pulse dictionaries of 40 + 12 - 1 rows at sigma 2 fill the
        # budget; sized for m x n = 3 x 40 atoms, one stack would take all 7
        monkeypatch.setattr(ex, "_STACK_BYTES", 3 * 8 * 51 * 40)
        cfg = ex.ExperimentConfig(kind="brc-map", dictionary="convolutive", sigma=2.0,
                                  m_grid=(3,), n_grid=(40,), k=2, trials=7)
        rows = ex.brc_map(cfg).rows
        assert stacks == [(3, 51, 40), (3, 51, 40), (1, 51, 40)]
        want = brc_omp(convolutive(40, 2.0), (0, 1), fast=True).verdict
        assert rows == ((3, 40, float(want)),)

    @pytest.mark.parametrize("family", [dict(dictionary="gaussian"),
                                        dict(dictionary="hybrid", t_max=10.0)],
                             ids=["gaussian", "hybrid"])
    def test_each_seed_is_drawn_once(self, family, monkeypatch):
        # the chunks are sized without a throwaway dictionary: every
        # trial seed is drawn once, in seed order, cell after cell
        drawn = []
        draw = dictionaries._draw

        def recorded(out, seed, t_max=None):
            drawn.append(seed)
            return draw(out, seed, t_max)

        monkeypatch.setattr(dictionaries, "_draw", recorded)
        monkeypatch.setattr(ex, "_STACK_BYTES", 3 * 8 * 8 * 20)
        cfg = ex.ExperimentConfig(kind="brc-map", m_grid=(8, 12), n_grid=(20, 30), k=2,
                                  trials=10, base_seed=5, **family)
        ex.brc_map(cfg)
        assert drawn == list(range(5, 45))

    def test_seedless_family_is_built_once_per_task(self, stacks, monkeypatch):
        built = []
        build = dictionaries.convolutive

        def recorded(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(dictionaries, "convolutive", recorded)
        monkeypatch.setattr(ex, "_STACK_BYTES", 3 * 8 * 51 * 40)
        cfg = ex.ExperimentConfig(kind="brc-map", dictionary="convolutive", sigma=2.0,
                                  m_grid=(3,), n_grid=(40,), k=2, trials=7)
        ex.brc_map(cfg)
        assert built == [(40, 2.0, 1)] * len(stacks) and len(stacks) == 3


class TestBrcSigma:
    def test_threshold_at_narrow_widths(self):
        cfg = ex.ExperimentConfig(kind="brc-sigma", dictionary="convolutive", n=60,
                                  k=2, sigmas=(1.0, 1.4, 1.5, 2.0, 3.0))
        res = ex.brc_sigma_sweep(cfg)
        assert res.column("verdict") == [False, False, True, True, True]
        assert ex.sigma_threshold(res) == 1.5
        agg = res.column("aggregate")
        assert agg == sorted(agg)

    def test_agrees_with_checked_certificate(self):
        res = ex.brc_sigma_sweep(ex.ExperimentConfig(
            kind="brc-sigma", dictionary="convolutive", n=60, k=2, sigmas=(2.0,)))
        report = brc_omp(convolutive(60, 2.0), (0, 1))
        assert res.rows[0][2] == pytest.approx(report.aggregate, abs=1e-12)
        assert res.rows[0][3] == report.verdict

    def test_frontier_widens_with_sigma(self):
        cfg = ex.ExperimentConfig(kind="brc-sigma", dictionary="convolutive", n=80,
                                  k=2, sigmas=(2.0, 5.0, 10.0),
                                  deltas=(1, 2, 3, 4, 5, 6, 7, 8))
        frontier = ex.delta_frontier(ex.brc_sigma_sweep(cfg))
        assert frontier == [(2.0, 1), (5.0, 3), (10.0, 6)]


class TestOutputFormats:
    def make_result(self):
        cfg = ex.ExperimentConfig(kind="scatter", m=50, n=6, k=5, trials=5, base_seed=8)
        return cfg, ex.scatter_experiment(cfg)

    def test_csv_layout(self):
        cfg, res = self.make_result()
        lines = res.to_csv().split("\n")
        assert json.loads(lines[0][2:]) == cfg.as_dict()
        assert lines[1] == "trial,f_erc,f_omp,f_ols"
        assert len(lines) == 2 + 5 + 1 and lines[-1] == ""
        # floats survive the 17-digit round trip
        cells = lines[2].split(",")
        assert float(cells[1]) == res.rows[0][1]

    def test_json_layout(self):
        cfg, res = self.make_result()
        obj = json.loads(res.to_json())
        assert list(obj)[0] == "config"
        assert obj["config"] == cfg.as_dict()
        assert obj["columns"] == list(res.columns)
        assert obj["rows"][0][0] == 0

    def test_save_and_reload_config(self, tmp_path):
        cfg, res = self.make_result()
        for fmt in ("csv", "json"):
            path = tmp_path / ex.default_filename(cfg, fmt)
            res.save(path)
            assert ex.load_config(path) == cfg
        assert ex.default_filename(cfg, "csv") == "scatter-seed8.csv"

    def test_save_rejects_unknown_suffix(self, tmp_path):
        _, res = self.make_result()
        with pytest.raises(ValueError):
            res.save(tmp_path / "out.txt")

    def test_wall_clock_not_serialized(self):
        _, res = self.make_result()
        assert res.wall_clock > 0.0
        assert "wall" not in res.to_csv() and "wall" not in res.to_json()


class TestWorkerCount:
    def test_clamped_to_cpus_and_tasks(self, monkeypatch):
        monkeypatch.setattr(ex.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert ex._worker_count(64, 1000) == 3
        assert ex._worker_count(64, 2) == 2
        assert ex._worker_count(2, 1000) == 2
        assert ex._worker_count(0, 1000) == 1
        assert ex._worker_count(8, 0) == 1

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(ex.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(ex.os, "cpu_count", lambda: 5)
        assert ex._worker_count(64, 1000) == 5
        monkeypatch.setattr(ex.os, "cpu_count", lambda: None)
        assert ex._worker_count(64, 1000) == 1


class TestDeterminism:
    def test_worker_count_invisible_in_output(self):
        cfg = ex.ExperimentConfig(kind="phase-curve", m=25, n=60, k=5, trials=12,
                                  base_seed=9)
        one = ex.run_experiment(cfg, workers=1)
        many = ex.run_experiment(cfg, workers=3)
        assert one.to_csv() == many.to_csv()
        assert one.to_json() == many.to_json()

    def test_grid_experiment_worker_invariance(self):
        cfg = ex.ExperimentConfig(kind="brc-map", m_grid=(8, 12), n_grid=(30,),
                                  k=2, trials=10, base_seed=2)
        assert ex.run_experiment(cfg, workers=1).rows == ex.run_experiment(cfg, workers=4).rows


def _pid_task(task):
    return task, os.getpid()


def _failing_task(task):
    if task == 3:
        raise KeyError(task)
    return task


_NUMPY_BLAS_GETTER = "scipy_openblas_get_num_threads64_"


def _numpy_openblas_libs():
    """The OpenBLAS libraries the numpy wheel bundles."""
    return sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"))


def _blas_threads_task(task):
    """Thread count of numpy's bundled OpenBLAS, by library, where its
    getter exists: the only BLAS that the pool's tasks call."""
    counts = {}
    for lib in _numpy_openblas_libs():
        getter = getattr(ctypes.CDLL(str(lib)), _NUMPY_BLAS_GETTER, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            counts[lib.name] = getter()
    return os.getpid(), counts


# Runs the pool initializer in a fresh interpreter and prints how many
# OpenBLAS libraries numpy bundles, whether the first one has the setter
# the initializer calls, and the thread count its getter then reports.
_BLAS_INITIALIZER_PROBE = """
import ctypes, json
from pathlib import Path
import numpy as np
from greedycert.experiments import _one_blas_thread

libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"))
_one_blas_thread()
setter = threads = None
if libs:
    lib = ctypes.CDLL(str(libs[0]))
    setter = hasattr(lib, "scipy_openblas_set_num_threads64_")
    getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if getter is not None:
        getter.argtypes, getter.restype = [], ctypes.c_int
        threads = getter()
print(json.dumps([len(libs), setter, threads]))
"""


def test_pool_initializer_sets_one_blas_thread():
    # the initializer runs only inside pool workers, so it is called here
    # in a subprocess whose OpenBLAS starts at its default thread count
    src = str(Path(ex.__file__).resolve().parent.parent)
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", _BLAS_INITIALIZER_PROBE], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    libs, setter, threads = json.loads(proc.stdout)
    if not libs:
        pytest.skip("numpy bundles no OpenBLAS")
    assert setter, "numpy's OpenBLAS has no thread-count setter the initializer knows"
    assert threads == 1


class TestAdaptivePool:
    """The pool path, forced by a zero break-even, or forbidden for jobs
    far below the real one."""

    @pytest.fixture
    def forced(self, monkeypatch):
        # four usable CPUs and no break-even: the tail of any job with two
        # or more tasks left goes to the pool after the first task
        monkeypatch.setattr(ex.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        monkeypatch.setattr(ex, "_POOL_BREAK_EVEN_S", 0.0)
        started = []
        real = concurrent.futures.ProcessPoolExecutor

        def counted(*args, **kwargs):
            started.append(kwargs["max_workers"])
            return real(*args, **kwargs)

        # the pool class is imported where the first pool starts
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
        return started

    def test_tail_runs_in_pool_after_first_task(self, forced):
        out = ex._map_ordered(_pid_task, list(range(10)), workers=2)
        assert [t for t, _ in out] == list(range(10))
        assert out[0][1] == os.getpid()
        assert all(pid != os.getpid() for _, pid in out[1:])
        assert forced == [2]

    @pytest.mark.parametrize("cfg", [
        ex.ExperimentConfig(kind="phase-curve", m=25, n=60, k=5, trials=9, base_seed=4),
        ex.ExperimentConfig(kind="brc-map", m_grid=(4, 12), n_grid=(12, 40), k=2,
                            trials=3, base_seed=6),
        ex.ExperimentConfig(kind="phase-diagram", m=20, n_grid=(30, 40), k_grid=(2, 4),
                            trials=2, base_seed=8),
    ], ids=lambda cfg: cfg.kind)
    def test_forced_pool_bytes_match_one_worker(self, forced, cfg):
        pooled = ex.run_experiment(cfg, workers=3)
        assert forced == [3]
        single = ex.run_experiment(cfg, workers=1)
        assert forced == [3]
        assert pooled.to_csv() == single.to_csv()
        assert pooled.to_json() == single.to_json()

    def test_chunked_brc_map_matches_one_worker(self, forced, monkeypatch):
        # trials above the chunk size: each cell runs as several tasks
        monkeypatch.setattr(ex, "_STACK_BYTES", 3 * 8 * 8 * 20)
        cfg = ex.ExperimentConfig(kind="brc-map", dictionary="hybrid", t_max=10.0,
                                  m_grid=(8, 12), n_grid=(20,), k=2, trials=10,
                                  base_seed=7)
        pooled = ex.run_experiment(cfg, workers=3)
        assert forced == [3]
        single = ex.run_experiment(cfg, workers=1)
        assert pooled.to_csv() == single.to_csv()
        assert pooled.to_json() == single.to_json()

    @pytest.fixture
    def forbidden(self, monkeypatch):
        # four usable CPUs, the real break-even, and no pool allowed
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(ex.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

    def test_short_job_starts_no_pool(self, forbidden):
        cfg = ex.ExperimentConfig(kind="brc-map", m_grid=(8,), n_grid=(20,), k=2,
                                  trials=4, base_seed=1)
        assert len(ex.run_experiment(cfg, workers=4).rows) == 1

    def test_slow_first_task_starts_no_pool(self, forbidden, monkeypatch):
        # right after a fork the parent's first task runs about 6x slower
        # (copy-on-write faults); alone it must not make a short job (60
        # tasks, 16 ms in all on this clock) look long
        clock = [0.0]
        monkeypatch.setattr(ex, "perf_counter", lambda: clock[0])

        def task(i):
            clock[0] += 1.6e-3 if i == 0 else 0.25e-3
            return i

        assert ex._map_ordered(task, list(range(60)), workers=4) == list(range(60))

    def test_task_error_type_kept_in_pool(self, forced):
        with pytest.raises(KeyError):
            ex._map_ordered(_failing_task, list(range(8)), workers=2)
        assert forced == [2]

    def test_task_error_type_kept_in_process(self, forbidden):
        with pytest.raises(KeyError):
            ex._map_ordered(_failing_task, list(range(8)), workers=4)

    def test_workers_run_one_blas_thread(self, forced):
        if not _numpy_openblas_libs():
            pytest.skip("numpy bundles no OpenBLAS")
        parent = _blas_threads_task(None)[1]
        # without numpy's getter both sides would be empty and agree
        assert parent, "numpy's OpenBLAS has no getter the test knows"
        out = ex._map_ordered(_blas_threads_task, list(range(6)), workers=2)
        assert forced == [2]
        for pid, counts in out[1:]:
            assert pid != os.getpid()
            assert counts.keys() == parent.keys()
            assert all(v == 1 for v in counts.values())
