"""Projection-state machinery against explicit-projector oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import orth, qr
from test_dictionaries import SHAPES

from greedycert import basis_pursuit, certificates, experiments, greedy, linalg
from greedycert.dictionaries import example1, gaussian, hybrid
from greedycert.experiments import ExperimentConfig, run_experiment
from greedycert.exceptions import (
    DegenerateAtomError,
    NotNormalizedError,
    RankDeficientError,
    TooLargeError,
)
from greedycert.tolerances import TAU_ZERO


def explicit_projector(a_q):
    # P onto the orthogonal complement of span(a_q), via pinv
    m = a_q.shape[0]
    return np.eye(m) - a_q @ np.linalg.pinv(a_q)


def random_state(rng, m, n, depth):
    d = gaussian(m, n, int(rng.integers(2**31)))
    state = linalg.init_state(d)
    order = rng.permutation(n)[:depth]
    for i in order:
        state = linalg.extend_state(state, int(i))
    return d.matrix, state, [int(i) for i in order]


def near_span_case(m, n, t_max, k, seed):
    """A hybrid dictionary with its first k atoms as the support, and as
    probes its other atoms, two atoms 1e-3 off the support span, two
    inside it and two gaussian ones.  Returns the matrix, the order, the
    probes and the positions of the inside probes among them."""
    rng = np.random.default_rng(seed)
    a = hybrid(m, n, t_max, seed).matrix
    order = list(range(k))
    basis, _ = np.linalg.qr(a[:, order])
    inside = basis @ rng.standard_normal((k, 4))
    inside /= np.linalg.norm(inside, axis=0)
    away = rng.standard_normal((m, 2))
    for _ in range(2):
        away -= basis @ (basis.T @ away)
    away /= np.linalg.norm(away, axis=0)
    near = np.sqrt(1.0 - 1e-6) * inside[:, :2] + 1e-3 * away
    plain = gaussian(m, 2, seed).matrix
    full = np.column_stack([a, near, inside[:, 2:], plain])
    probes = list(range(k, n + 6))
    return full, order, probes, [n - k + 2, n - k + 3]


def two_pass_norms(a, order, probes):
    """Row q: the probes projected twice off the first q columns of the
    support's Q factor, then measured."""
    q_factor = qr(a[:, order], mode="economic")[0]
    rows = []
    for q in range(len(order) + 1):
        b = q_factor[:, :q]
        x = a[:, probes]
        x = x - b @ (b.T @ x)
        x = x - b @ (b.T @ x)
        rows.append(np.linalg.norm(x, axis=0))
    return np.array(rows)


def row_loop_tail_sums(x):
    """The tail sums as summed before the terms went into the result:
    zeros, then one row added at a time from the bottom up."""
    k = x.shape[-2]
    tails = np.zeros(x.shape[:-2] + (k + 1, x.shape[-1]))
    for q in range(k - 1, -1, -1):
        np.add(tails[..., q + 1, :], x[..., q, :], out=tails[..., q, :])
    return tails


def traced_peak(fn, *args):
    """Largest traced allocation of ``fn(*args)``, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def eta_chi_steps(a, order):
    """Norm-reduction and alignment of every atom at each extension of
    the chain ``order``, read off consecutive projection states."""
    state = linalg.init_state(a)
    for i in order:
        new = linalg.extend_state(state, i)
        with np.errstate(invalid="ignore", divide="ignore"):
            yield new.norms / state.norms, (new.basis[:, -1] @ a) / state.norms
        state = new


class TestFactorChain:
    def test_matches_pinv_and_projector_oracles(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            m = int(rng.integers(5, 20))
            n = int(rng.integers(m + 1, 2 * m))
            k = int(rng.integers(1, m))
            a = gaussian(m, n, int(rng.integers(2**31))).matrix
            perm = [int(i) for i in rng.permutation(n)]
            order, probes = perm[:k], perm[k:]
            coef, probe_norms, support_norms, r = linalg.factor_chain(a, order, probes)
            assert coef.shape == (k, n - k)
            assert probe_norms.shape == (k + 1, n - k)
            assert support_norms.shape == (k + 1, k)
            assert r.shape == (k, k) and np.all(np.tril(r, -1) == 0.0)
            want = np.linalg.pinv(a[:, order]) @ a[:, probes]
            assert np.abs(coef - want).max() < 1e-9
            for q in range(k + 1):
                p = explicit_projector(a[:, order[:q]]) if q else np.eye(m)
                assert np.abs(probe_norms[q] - np.linalg.norm(p @ a[:, probes], axis=0)).max() < 1e-9
                assert np.abs(support_norms[q] - np.linalg.norm(p @ a[:, order], axis=0)).max() < 1e-9
                # the support atoms still to come, projected off the
                # first q, have the Gram matrix R22.T R22 of R's tail block
                rest = p @ a[:, order[q:]]
                assert np.abs(rest.T @ rest - r[q:, q:].T @ r[q:, q:]).max(initial=0.0) < 1e-9

    def test_small_norms_keep_relative_accuracy(self):
        # atoms nearly parallel to the all-ones vector: every projected
        # norm past the first step is about 1e-3, where 1 - cumsum(G**2)
        # loses digits (relative error near 3e-10 here)
        rng = np.random.default_rng(18)
        m, n, k = 30, 60, 6
        a = hybrid(m, n, 1000.0, 3).matrix
        order = [int(i) for i in rng.permutation(n)[:k]]
        probes = [j for j in range(n) if j not in order]
        _, probe_norms, _, _ = linalg.factor_chain(a, order, probes)
        for q in range(1, k + 1):
            basis, _ = np.linalg.qr(a[:, order[:q]])
            x = a[:, probes]
            x = x - basis @ (basis.T @ x)
            x = x - basis @ (basis.T @ x)
            want = np.linalg.norm(x, axis=0)
            assert np.abs(probe_norms[q] / want - 1.0).max() < 1e-12

    def test_both_norm_branches_in_one_call(self):
        # off span(A_order) the plain probes keep about 0.9 of their
        # norm (downdated), the near ones 1e-3 and the hybrid atoms less
        # than 0.1 (recomputed)
        a, order, probes, inside = near_span_case(30, 60, 1000.0, 6, 4)
        _, probe_norms, _, _ = linalg.factor_chain(a, order, probes)
        want = two_pass_norms(a, order, probes)
        off_sq = want[-1] ** 2
        assert np.any(off_sq < linalg.RECOMPUTE_FRACTION)
        assert np.any(off_sq > linalg.RECOMPUTE_FRACTION)
        big = want >= 1e-3
        assert np.abs(probe_norms[big] / want[big] - 1.0).max() <= 1e-12
        assert probe_norms[-1, inside].max() < TAU_ZERO

    @settings(max_examples=100)
    @given(
        st.integers(6, 30),
        st.integers(0, 30),
        st.floats(0.0, 1000.0),
        st.data(),
    )
    def test_norm_branches_match_two_pass_projection(self, m, extra, t_max, data):
        k = data.draw(st.integers(1, m - 2))
        seed = data.draw(st.integers(0, 2**31 - 1))
        a, order, probes, inside = near_span_case(m, k + extra + 1, t_max, k, seed)
        _, probe_norms, _, _ = linalg.factor_chain(a, order, probes)
        want = two_pass_norms(a, order, probes)
        big = want >= 1e-3
        assert np.abs(probe_norms[big] / want[big] - 1.0).max() <= 1e-12
        assert probe_norms[-1, inside].max() < TAU_ZERO

    def test_blocked_recomputation_keeps_relative_accuracy(self):
        # the safeguard flags 191 of the 194 probes: they are recomputed
        # in three blocks
        a, order, probes, inside = near_span_case(30, 190, 1000.0, 2, 6)
        _, probe_norms, _, _ = linalg.factor_chain(a, order, probes)
        want = two_pass_norms(a, order, probes)
        assert np.count_nonzero(want[-1] ** 2 < linalg.RECOMPUTE_FRACTION) > 2 * 64
        big = want >= 1e-3
        assert np.abs(probe_norms[big] / want[big] - 1.0).max() <= 1e-12
        assert probe_norms[-1, inside].max() < TAU_ZERO

    @pytest.mark.parametrize("t_max", [100.0, 1000.0])
    def test_norm_safeguard_allocates_less_than_a_dictionary(self, t_max):
        # the safeguard flags 518 and 559 of the 560 probes here; gathered
        # all at once, the recomputation peaked at 2.4-2.5 dictionaries
        d = hybrid(200, 600, t_max, 0)
        order = [int(i) for i in np.random.default_rng(0).permutation(600)[:40]]
        probes = [j for j in range(600) if j not in order]
        assert traced_peak(linalg.factor_chain, d, order, probes) < d.matrix.nbytes

    def test_kernel_allocates_less_than_half_a_dictionary(self):
        # the parent gathered the 596 probes, 0.99 of one m x n array
        m, n = 200, 600
        d = gaussian(m, n, 5)
        tracemalloc.start()
        try:
            linalg.factor_chain(d, range(4), range(4, n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * m * n

    @settings(max_examples=200)
    @given(st.lists(st.integers(1, 4), max_size=2), st.integers(0, 9), st.integers(0, 12),
           st.booleans(), st.data())
    def test_tail_sums_match_the_row_loop(self, stack, k, p, fortran, data):
        # matrices and stacks of them, C or F ordered like the kernel's
        # G and C tables; the floats include signed zeros and subnormals
        shape = tuple(stack) + (k, p)
        x = data.draw(arrays(np.float64, shape, elements=st.floats(-1e150, 1e150)))
        if fortran:
            x = np.asfortranarray(x)
        got = linalg._tail_sums(x)
        assert got.shape == shape[:-2] + (k + 1, p)
        assert got.tobytes() == row_loop_tail_sums(np.square(x)).tobytes()

    @settings(max_examples=100)
    @given(st.integers(6, 30), st.integers(0, 30), st.data())
    def test_stack_matches_one_call_per_trial(self, m, extra, data):
        # some trials carry probes 1e-3 off the support span and inside
        # it, so the norm safeguard recomputes columns of those trials
        # only; the others are hybrid atoms with gaussian ones appended
        k = data.draw(st.integers(1, m - 2))
        n = k + extra + 1
        trials = []
        for _ in range(data.draw(st.integers(1, 5))):
            t_max = data.draw(st.sampled_from([0.0, 1.0, 10.0, 1000.0]))
            seed = data.draw(st.integers(0, 2**31 - 1))
            if data.draw(st.booleans()):
                trials.append(near_span_case(m, n, t_max, k, seed)[0])
            else:
                trials.append(np.column_stack([hybrid(m, n, t_max, seed).matrix,
                                               gaussian(m, 6, seed).matrix]))
        stack = np.stack(trials)
        order, probes = list(range(k)), list(range(k, n + 6))
        stacked = linalg.factor_chain(stack, order, probes)
        for t, a in enumerate(stack):
            for got, want in zip(stacked, linalg.factor_chain(a, order, probes)):
                assert got.shape[1:] == want.shape
                assert np.all(np.abs(got[t] - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("t_max", [0.0, 1000.0], ids=["gaussian", "hybrid-1000"])
    @pytest.mark.parametrize("m,n,k", [(m, n, k) for m, n in SHAPES for k in (1, 2, 4, 40)
                                       if k <= min(m, n)])
    def test_one_matrix_keeps_the_bits_of_a_one_trial_stack(self, m, n, k, t_max):
        # one LAPACK route serves matrices and stacks; at t_max = 1000 the
        # norm safeguard recomputes nearly every probe
        a = hybrid(m, n, t_max, 3).matrix
        order = [int(i) for i in np.random.default_rng(k).permutation(n)[:k]]
        probes = [j for j in range(n) if j not in order]
        for got, want in zip(linalg.factor_chain(a, order, probes),
                             linalg.factor_chain(a[None], order, probes)):
            assert got.shape == want.shape[1:] and got.tobytes() == want[0].tobytes()

    def test_stacked_kernel_allocates_less_than_half_its_stack(self):
        stack = np.stack([gaussian(100, 300, seed).matrix for seed in range(10)])
        tracemalloc.start()
        try:
            linalg.factor_chain(stack, range(4), range(4, 300))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * stack.nbytes

    def test_rank_deficient_support_raises(self):
        v = np.sqrt(0.5)
        a = np.array([[1.0, 0.0, v, 0.0], [0.0, 1.0, v, 0.0], [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(RankDeficientError):
            linalg.factor_chain(a, [0, 1, 2], [3])
        with pytest.raises(RankDeficientError):
            linalg.factor_chain(np.eye(2), [0, 1, 0], [])

    @pytest.mark.parametrize("index", [-1, 8])
    def test_extend_out_of_range_raises(self, index):
        state = linalg.init_state(gaussian(6, 8, 1))
        with pytest.raises(IndexError, match=f"atom index {index} out of range"):
            linalg.extend_state(state, index)

    def test_not_normalized_raises(self):
        a = np.eye(4) * np.array([1.0, 1.0, 2.0, 1.0])
        with pytest.raises(NotNormalizedError):
            linalg.factor_chain(a, [2], [0, 1])
        with pytest.raises(NotNormalizedError):
            linalg.factor_chain(a, [0, 1], [2, 3])

    def test_empty_order_gives_atom_norms(self):
        d = gaussian(6, 9, 2)
        coef, probe_norms, support_norms, r = linalg.factor_chain(d, [], range(9))
        assert coef.shape == (0, 9) and support_norms.shape == (1, 0) and r.shape == (0, 0)
        assert np.allclose(probe_norms, 1.0, atol=1e-12)

    def test_no_probes(self):
        d = gaussian(6, 9, 2)
        coef, probe_norms, support_norms, _ = linalg.factor_chain(d, [4, 1], [])
        assert coef.shape == (2, 0) and probe_norms.shape == (3, 0)
        assert np.allclose(support_norms[0], 1.0, atol=1e-12)
        assert np.all(support_norms[2] == 0.0)


def triangular_cases():
    """``(r, g)`` pairs of the kernel: R of a support of k atoms and G of
    the other atoms, on gaussian and hybrid (t_max 1000) dictionaries."""
    for t_max in (0.0, 1000.0):
        a = hybrid(200, 600, t_max, 4).matrix
        for k in (1, 2, 4, 9, 17, 40):
            order = np.random.default_rng(k).permutation(600)[:k]
            q, r = np.linalg.qr(a[:, order])
            yield r, q.T @ a


class TestTriangularSolve:
    """Every upper-triangular solve goes through ``linalg._solve_upper``:
    one sweep in numpy's own OpenBLAS, with the bits of
    ``np.linalg.solve``, whose LU factors a triangular R as L = I, U = R
    and then makes the same calls."""

    @pytest.fixture
    def blas_calls(self, monkeypatch):
        """Names of the BLAS solves made while the test runs."""
        if linalg._triangular_blas() is None:
            pytest.skip("numpy bundles no OpenBLAS with CBLAS triangular solves")
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)
            return call

        trsm, trsv = linalg._triangular_blas()
        blas = counted("trsm", trsm), counted("trsv", trsv)
        monkeypatch.setattr(linalg, "_triangular_blas", lambda: blas)
        return calls

    @pytest.mark.parametrize("t_max", [0.0, 1000.0], ids=["gaussian", "hybrid-1000"])
    @pytest.mark.parametrize("m,n,k", [(m, n, k) for m, n in SHAPES for k in (1, 2, 4, 40)
                                       if k <= min(m, n)])
    def test_kernel_keeps_its_bits_without_the_library(self, monkeypatch, blas_calls,
                                                       m, n, k, t_max):
        a = hybrid(m, n, t_max, 3).matrix
        order = [int(i) for i in np.random.default_rng(k).permutation(n)[:k]]
        probes = [j for j in range(n) if j not in order]
        stack = np.stack([a, hybrid(m, n, t_max, 4).matrix])
        with_blas = linalg.factor_chain(a, order, probes), linalg.factor_chain(stack, order, probes)
        assert blas_calls == ([] if not probes else ["trsv"] if len(probes) == 1 else ["trsm"])
        monkeypatch.setattr(linalg, "_triangular_blas", lambda: None)
        without = linalg.factor_chain(a, order, probes), linalg.factor_chain(stack, order, probes)
        for got, want in zip(with_blas, without):
            for x, y in zip(got, want):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()

    def test_tables_and_vectors_match_numpy_solve(self, blas_calls):
        for r, g in triangular_cases():
            for b in (g[:, 0].copy(), g[:, :1], g[:, :2], g):
                b = np.asfortranarray(b)
                want = np.linalg.solve(r, b)
                assert linalg._solve_upper(r, b) is b and b.tobytes() == want.tobytes()
        assert blas_calls == ["trsv", "trsv", "trsm", "trsm"] * 12

    def test_stacks_and_strided_tables_take_numpy_solve(self, blas_calls):
        r, g = list(triangular_cases())[-1]
        c_ordered = np.ascontiguousarray(g[:, :5])
        want = np.linalg.solve(r, c_ordered)
        assert linalg._solve_upper(r, c_ordered).tobytes() == want.tobytes()
        stack_r, stack_g = np.stack([r, r]), np.stack([g[:, :5], g[:, 5:10]])
        want = np.linalg.solve(stack_r, stack_g)
        assert linalg._solve_upper(stack_r, stack_g).tobytes() == want.tobytes()
        assert blas_calls == []

    def test_unfit_operands_are_refused(self, blas_calls):
        # no pointer reaches BLAS for a read-only table or a factor of
        # another size
        b = np.ones((3, 2), order="F")
        b.setflags(write=False)
        with pytest.raises(ValueError, match="read-only"):
            linalg._solve_upper(np.eye(3), b)
        with pytest.raises(ValueError, match="expected a 4 x 4 triangular factor"):
            linalg._solve_upper(np.eye(3), np.ones(4))
        assert blas_calls == []

    def test_missing_symbols_fall_back(self, monkeypatch):
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        assert linalg._triangular_blas.__wrapped__() is None
        monkeypatch.setattr(linalg, "_openblas", lambda: object())
        assert linalg._triangular_blas.__wrapped__() is None

    def test_empty_tables_keep_their_shapes_and_print_nothing(self, capfd):
        # BLAS refuses a leading dimension below 1, and OpenBLAS reports
        # that on stderr ("parameter ... had an illegal value")
        d = gaussian(6, 9, 2)
        coef, _, _, r = linalg.factor_chain(d, [], range(9))
        assert coef.shape == (0, 9) and r.shape == (0, 0)
        coef, _, _, r = linalg.factor_chain(d, [4, 1], [])
        assert coef.shape == (2, 0) and r.shape == (2, 2)
        report = certificates.erc_oxx_subset(d, (), (), "omp")
        assert report.aggregate == 0.0 and [j for j, _ in report.per_atom] == list(range(9))
        for k, p in ((0, 0), (0, 3), (3, 0)):
            b = np.empty((k, p), order="F")
            assert linalg._solve_upper(np.eye(k), b) is b and b.shape == (k, p)
        assert linalg._solve_upper(np.empty((0, 0)), np.empty(0)).shape == (0,)
        assert capfd.readouterr() == ("", "")


class TestTrialMemory:
    """A 200 x 600 phase-curve trial holds well under two dictionaries of
    memory.  Past about two, the allocator gives the trial's pages back
    to the system when it ends, and the next trial faults them in again."""

    M, N = 200, 600
    DICTIONARY = 8 * M * N

    def test_gaussian_generation(self):
        assert traced_peak(gaussian, self.M, self.N, 5) <= 1.1 * self.DICTIONARY

    def test_hybrid_generation(self):
        assert traced_peak(hybrid, self.M, self.N, 10.0, 5) <= 1.1 * self.DICTIONARY

    @pytest.mark.parametrize("dictionary", ["gaussian", "hybrid"])
    def test_phase_curve_trial(self, dictionary):
        config = ExperimentConfig(kind="phase-curve", dictionary=dictionary, t_max=10.0,
                                  m=self.M, n=self.N, k=40, trials=1, base_seed=11)
        run_experiment(config)  # lazy imports and first-call set-up
        assert traced_peak(run_experiment, config) <= 1.75 * self.DICTIONARY


# every public call that takes a matrix, on a 6 x 12 dictionary with
# support (0, 1, 2): column 11 lies outside every support, order and
# probe set the call lets its caller choose
MATRIX_CALLS = {
    "f_omp": lambda a: certificates.f_omp(a, (0, 1, 2), (0,), 3),
    "f_ols": lambda a: certificates.f_ols(a, (0, 1, 2), (0,), 3),
    "erc_oxx_subset": lambda a: certificates.erc_oxx_subset(a, (0, 1, 2), (0,), "ols"),
    "erc_oxx_cardinality": lambda a: certificates.erc_oxx_cardinality(a, (0, 1, 2), 1, "omp"),
    "brc_omp": lambda a: certificates.brc_omp(a, (0, 1, 2)),
    "recursion_chain": lambda a: certificates.recursion_chain(a, (0, 1, 2), 3, (0,), "ols"),
    "run_greedy": lambda a: greedy.run_greedy("omp", a, a[:, 0] - a[:, 1], 2),
    "construct_reaching_input": lambda a: greedy.construct_reaching_input(a, (0, 1), "ols"),
    "build_failure_input": lambda a: greedy.build_failure_input(a, (0, 1, 2), (0,), "omp"),
    "nsp_check": lambda a: basis_pursuit.nsp_check(a, (0, 1)),
    "brc_bp_check": lambda a: basis_pursuit.brc_bp_check(a, (0, 1)),
    "_l1_reports": lambda a: basis_pursuit._l1_reports(a, (0, 1)),
    "l1_recovers": lambda a: basis_pursuit.l1_recovers(a, np.eye(12)[0] - np.eye(12)[1]),
    "_factor_curves": lambda a: experiments._factor_curves(a, (0, 1, 2), (2, 0, 1), (0, 1),
                                                           ("omp", "ols")),
    "compute_spark": lambda a: linalg.compute_spark(a, 2),
    "init_state": lambda a: linalg.init_state(a),
    "state_for": lambda a: linalg.state_for(a, (0, 1)),
    "factor_chain": lambda a: linalg.factor_chain(a, (0, 1, 2), (3, 4)),
}
# the calls that reach neither kernel and scan their matrix themselves
SCANNING_CALLS = ("nsp_check", "brc_bp_check", "_l1_reports", "l1_recovers", "compute_spark")


class TestFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("call", MATRIX_CALLS)
    def test_non_finite_rejected(self, call, bad):
        a = np.array(gaussian(6, 12, 3).matrix)
        a[4, 11] = bad
        with pytest.raises(ValueError, match="finite"):
            MATRIX_CALLS[call](a)

    def test_entry_point_scans_its_matrix_once(self, monkeypatch):
        # the kernels read finiteness off the column squares they form
        # for the unit-norm check, so no full-matrix scan runs
        a = np.array(gaussian(20, 40, 3).matrix)
        scans = []
        isfinite = np.isfinite

        def recording(x, *args, **kwargs):
            scans.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", recording)
        # the kernel and the projection state of the SVD route both take
        # the matrix
        certificates.erc_oxx_subset(a, (1, 5, 9), (5,), "ols")
        # and so does each greedy rerun that verifies the failure input
        greedy.build_failure_input(a, (1, 5, 9), (), "omp")
        b = np.array(gaussian(6, 12, 3).matrix)
        for name, call in MATRIX_CALLS.items():
            if name not in SCANNING_CALLS:
                call(b)
        assert scans and a.shape not in scans and b.shape not in scans

    def test_scan_repeats_on_the_next_call(self):
        a = np.array(gaussian(20, 40, 3).matrix)
        certificates.erc_oxx_subset(a, (1, 5, 9), (5,), "ols")
        a[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            certificates.erc_oxx_subset(a, (1, 5, 9), (5,), "ols")

    def test_construction_blames_the_matrix(self):
        # the reaching input is built from atom 0, so a non-finite atom 0
        # reaches run_greedy inside y too; the matrix is checked first
        a = np.array(gaussian(6, 12, 3).matrix)
        a[2, 0] = np.nan
        with pytest.raises(ValueError, match="atom 0 has non-finite entries"):
            greedy.construct_reaching_input(a, (0, 1), "ols")


class TestRealInput:
    # a float cast keeps the real part alone: at 1j * A the calls read
    # the zero matrix, or refused it as not normalized
    @pytest.mark.parametrize("call", MATRIX_CALLS)
    def test_complex_matrix_rejected(self, call):
        with pytest.raises(ValueError, match="matrix must be real"):
            MATRIX_CALLS[call](1j * gaussian(6, 12, 3).matrix)

    def test_complex_vector_not_projected(self):
        state = linalg.init_state(gaussian(6, 12, 3))
        with pytest.raises(ValueError, match="y must be real"):
            linalg.residual(state, 1j * np.ones(6))


class TestProjectionState:
    # init_state reads its matrix unscanned, compute_spark scans it for
    # finite entries first; both refuse anything but a matrix
    @pytest.mark.parametrize("call", [
        linalg.init_state,
        lambda a: linalg.compute_spark(a, 2),
    ], ids=["init_state", "compute_spark"])
    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4)], ids=["1-D", "3-D"])
    def test_non_matrix_rejected(self, shape, call):
        with pytest.raises(ValueError, match="expected a 2-D array of column atoms"):
            call(np.ones(shape))

    def test_empty_state_keeps_atoms(self):
        d = gaussian(10, 6, 0)
        state = linalg.init_state(d)
        assert state.active == ()
        assert np.array_equal(linalg.residual(state, d.matrix), d.matrix)
        assert np.allclose(state.norms, 1.0, atol=1e-12)

    def test_state_shares_the_frozen_dictionary(self):
        m, n = 200, 600
        d = gaussian(m, n, 5)
        tracemalloc.start()
        try:
            state = linalg.init_state(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * n
        assert np.shares_memory(state.atoms, d.matrix)
        # so is a bare read-only array that owns its data
        frozen = np.eye(4)
        frozen.setflags(write=False)
        assert linalg.init_state(frozen).atoms is frozen

    def test_writable_input_and_views_are_copied(self):
        d = gaussian(8, 12, 5)
        a = d.matrix.copy()
        state = linalg.init_state(a)
        assert a.flags.writeable and not state.atoms.flags.writeable
        a[:, 0] = 0.0
        assert np.array_equal(state.atoms, d.matrix)
        view = linalg.init_state(d.matrix[:, :]).atoms
        assert not np.shares_memory(view, d.matrix) and not view.flags.writeable

    def test_matches_explicit_projector(self):
        # projected atoms vs P_perp a_i on fresh random instances
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(4, 16))
            n = int(rng.integers(2, 2 * m))
            depth = int(rng.integers(1, min(m, n)))
            a, state, order = random_state(rng, m, n, depth)
            p = explicit_projector(a[:, order])
            assert np.abs(linalg.residual(state, a) - p @ a).max() < 1e-9

    def test_active_atoms_exactly_zero(self):
        rng = np.random.default_rng(12)
        a, state, order = random_state(rng, 10, 15, 4)
        for i in order:
            assert state.norms[i] == 0.0
            assert np.abs(linalg.residual(state, a[:, i])).max() < 1e-15

    def test_projection_nonexpansive(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            d = gaussian(12, 20, int(rng.integers(2**31)))
            state = linalg.init_state(d)
            for i in rng.permutation(20)[:8]:
                old = state.norms.copy()
                state = linalg.extend_state(state, int(i))
                keep = state.norms > 0
                assert np.all(state.norms[keep] <= old[keep] + 1e-9)

    def test_eta_chi_pythagoras(self):
        # per extension, the norm-reduction eta = |P' a_i| / |P a_i| and
        # the alignment chi = u.T a_i / |P a_i| with the new direction u
        rng = np.random.default_rng(14)
        for _ in range(30):
            a, state, order = random_state(rng, 12, 20, 8)
            for p, (eta, chi) in enumerate(eta_chi_steps(a, order)):
                ok = np.ones(a.shape[1], dtype=bool)
                ok[order[: p + 1]] = False
                assert np.abs(eta[ok] ** 2 + chi[ok] ** 2 - 1.0).max() < 1e-9

    def test_eta_in_unit_interval(self):
        rng = np.random.default_rng(15)
        a, state, order = random_state(rng, 20, 30, 10)
        for p, (eta, _) in enumerate(eta_chi_steps(a, order)):
            ok = np.ones(a.shape[1], dtype=bool)
            ok[order[: p + 1]] = False
            assert np.all(eta[ok] > 0.0)
            assert np.all(eta[ok] <= 1.0 + 1e-12)

    def test_basis_stays_orthonormal_on_long_chain(self):
        d = gaussian(60, 80, 3)
        state = linalg.init_state(d)
        for i in range(40):
            state = linalg.extend_state(state, i)
        g = state.basis.T @ state.basis
        assert np.abs(g - np.eye(40)).max() < 1e-9

    def test_residual_matches_projector_and_is_idempotent(self):
        rng = np.random.default_rng(16)
        a, state, order = random_state(rng, 15, 25, 6)
        y = rng.standard_normal(15)
        r = linalg.residual(state, y)
        assert np.allclose(r, explicit_projector(a[:, order]) @ y, atol=1e-9)
        r2 = linalg.residual(state, r)
        assert np.linalg.norm(r2 - r) <= 1e-12 * np.linalg.norm(y)

    def test_extend_degenerate_raises(self):
        # third atom is a combination of the first two
        a = np.array([[1.0, 0.0, np.sqrt(0.5)], [0.0, 1.0, np.sqrt(0.5)], [0.0, 0.0, 0.0]])
        state = linalg.init_state(a)
        state = linalg.extend_state(state, 0)
        state = linalg.extend_state(state, 1)
        with pytest.raises(DegenerateAtomError):
            linalg.extend_state(state, 2)

    def test_extend_active_raises(self):
        state = linalg.init_state(gaussian(6, 8, 1))
        state = linalg.extend_state(state, 2)
        with pytest.raises(DegenerateAtomError):
            linalg.extend_state(state, 2)

    def test_not_normalized_raises(self):
        a = np.eye(4)
        a = a * 2.0
        with pytest.raises(NotNormalizedError):
            linalg.init_state(a)


@st.composite
def chains(draw):
    """A gaussian or hybrid dictionary and a selection chain of depth
    min(m, n) - 1 on it; the test checks every depth on the way."""
    m = draw(st.integers(4, 30))
    n = draw(st.integers(2, 2 * m))
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        d = gaussian(m, n, seed)
    else:
        d = hybrid(m, n, draw(st.floats(0.0, 1000.0)), seed)
    order = draw(st.permutations(range(n)))[: min(m, n) - 1]
    return d.matrix, [int(i) for i in order]


class TestDowndatedState:
    """The basis-plus-downdated-norms state against an explicit
    projector at every depth of the chain."""

    @settings(max_examples=150)
    @given(chains())
    def test_matches_explicit_projector_along_chain(self, case):
        a, order = case
        state = linalg.init_state(a)
        for p, i in enumerate(order):
            state = linalg.extend_state(state, i)
            u = orth(a[:, order[: p + 1]])
            want = a - u @ (u.T @ a)
            want[:, order[: p + 1]] = 0.0
            exact = np.linalg.norm(want, axis=0)
            big = exact > 1e-6
            assert np.all(np.abs(state.norms - exact)[big] <= 1e-9 * exact[big])
            assert np.all(state.norms[~big] <= 1e-6 + 1e-9)
            assert np.abs(linalg.residual(state, a) - want).max() <= 1e-9

    def test_extension_allocates_less_than_one_projected_matrix(self):
        m, n = 200, 600
        state = linalg.state_for(gaussian(m, n, 5), range(10))
        tracemalloc.start()
        try:
            linalg.extend_state(state, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * n


class TestTwoPairGeometry:
    """Closed-form projected atoms of the two-pair dictionary.

    After activating the first atom the projections are
    p2 = sin(2 t1) (sin t1, cos t1, 0),
    p3 = (sin t1 cos t1 cos t2, cos^2 t1 cos t2,  sin t2),
    p4 = (sin t1 cos t1 cos t2, cos^2 t1 cos t2, -sin t2).
    """

    @pytest.mark.parametrize("t1,t2", [(np.pi / 6, np.pi / 4), (0.3, 0.9), (np.pi / 12, np.pi / 4)])
    def test_projected_second_atom(self, t1, t2):
        state = linalg.extend_state(linalg.init_state(example1(t1, t2)), 0)
        want = np.sin(2 * t1) * np.array([np.sin(t1), np.cos(t1), 0.0])
        assert np.abs(linalg.residual(state, state.atoms[:, 1]) - want).max() < 1e-12
        assert abs(state.norms[1] - abs(np.sin(2 * t1))) < 1e-12

    def test_second_atom_norm_is_one_at_quarter_pi(self):
        state = linalg.extend_state(linalg.init_state(example1(np.pi / 4, np.pi / 4)), 0)
        assert abs(state.norms[1] - 1.0) < 1e-12

    @pytest.mark.parametrize("t1,t2", [(np.pi / 6, np.pi / 4), (0.3, 0.9)])
    def test_projected_cross_pair_atoms(self, t1, t2):
        state = linalg.extend_state(linalg.init_state(example1(t1, t2)), 0)
        s1, c1 = np.sin(t1), np.cos(t1)
        s2, c2 = np.sin(t2), np.cos(t2)
        want3 = np.array([s1 * c1 * c2, c1 * c1 * c2, s2])
        want4 = np.array([s1 * c1 * c2, c1 * c1 * c2, -s2])
        assert np.abs(linalg.residual(state, state.atoms[:, 2]) - want3).max() < 1e-12
        assert np.abs(linalg.residual(state, state.atoms[:, 3]) - want4).max() < 1e-12


class TestSpark:
    def test_duplicated_atom(self):
        a = np.hstack([np.eye(3), np.eye(3)])
        assert linalg.compute_spark(a, 6) == 2

    def test_two_pair_dictionary(self):
        # every 3-subset is independent for generic angles, all four
        # atoms in R^3 are dependent
        assert linalg.compute_spark(example1(np.pi / 5, np.pi / 7), 4) == 4

    def test_orthonormal_reports_none(self):
        assert linalg.compute_spark(np.eye(5), 5) is None

    def test_zero_column_alone(self):
        # a zero column is a dependent subset of size 1
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert linalg.compute_spark(a, 3) == 1
        assert linalg.compute_spark(a, 1) == 1

    def test_dependent_triple(self):
        v = np.sqrt(0.5)
        a = np.array([[1.0, 0.0, v], [0.0, 1.0, v], [0.0, 0.0, 0.0]])
        assert linalg.compute_spark(a, 3) == 3

    def test_budget_guard(self):
        with pytest.raises(TooLargeError):
            linalg.compute_spark(gaussian(40, 60, 0), 30)

    def test_search_stops_at_m_plus_one(self):
        # sizes past m + 1 are dependent by dimension, so a request for
        # 30 costs only the subsets of sizes 1 to 3
        assert linalg.compute_spark(gaussian(3, 60, 0), 30) == 4
        assert linalg.compute_spark(np.ones((2, 60)), 30) == 2
