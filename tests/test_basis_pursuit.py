"""Null-space conditions and ``l1_recovers`` vs sampled-null-vector,
closed-form, basic-solution and l1-LP oracles."""

import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from l1_oracle import InfeasibleError, l1_min, recovers
from scipy.linalg import null_space

from greedycert import basis_pursuit as bp
from greedycert.cli import main
from greedycert.dictionaries import gaussian
from greedycert.exceptions import FormMismatchError, GreedycertError, TooLargeError
from greedycert.tolerances import TAU_STRICT


def sphere_directions(d, count, seed):
    if d == 2:
        ang = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    w = np.random.default_rng(seed).standard_normal((count, d))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def patterns(a, support):
    return bp._sign_patterns(a, support, null_space(a),
                             bp._every_pattern(len(support), a.shape[1]))


def split(a, support):
    basis = null_space(a)
    off = [j for j in range(a.shape[1]) if j not in support]
    return basis[list(support)], basis[off]


class TestPatternValues:
    @pytest.mark.parametrize("d", [2, 3])
    def test_never_beaten_by_sampled_null_vectors(self, d):
        # every null vector x = N w gives the lower bound
        # eps^T x_Q / |x_off|_1 <= v(eps); a dense sample comes close
        for seed in range(6):
            n = 6 + seed % 4
            a = gaussian(n - d, n, 60 + seed).matrix
            support = (0, 3) if seed % 2 else (1, 2, 5)
            on, off = split(a, support)
            w = sphere_directions(d, 200_000, seed)
            lo = np.linalg.svd(off, compute_uv=False)[-1]
            for eps, value, _, _ in patterns(a, support):
                c = on.T @ np.array(eps, dtype=float)
                sampled = ((w @ c) / np.abs(w @ off.T).sum(axis=1)).max()
                assert sampled <= value + 1e-12 * max(1.0, value)
                # ratio slope on the unit sphere, over the grid spacing
                lip = (np.linalg.norm(c) + value * np.linalg.norm(off, axis=1).sum()) / lo
                spacing = 1e-4 if d == 2 else 3e-2
                assert value - sampled < spacing * lip

    def test_witness_attains_value(self):
        for seed in range(20):
            a = gaussian(5, 8, seed).matrix
            support = (seed % 8, (seed + 3) % 8)
            off = [j for j in range(8) if j not in support]
            for eps, value, _, x in patterns(a, support):
                assert np.abs(a @ x).max() < 1e-12
                assert np.abs(x[off]).sum() == pytest.approx(1.0, abs=1e-12)
                assert np.dot(eps, x[list(support)]) == pytest.approx(value, abs=1e-12)

    def test_one_dimensional_closed_form(self):
        # a single null direction h: v(eps) = |eps^T h_Q| / |h_off|_1
        for seed in range(10):
            a = gaussian(6, 7, seed).matrix
            support = (1, 4, 6)
            on, off = split(a, support)
            for eps, value, _, _ in patterns(a, support):
                closed = abs(np.dot(eps, on[:, 0])) / np.abs(off[:, 0]).sum()
                assert value == pytest.approx(closed, rel=1e-12)

    def test_unbounded_when_support_not_injective(self):
        # four atoms in R^3: a null vector lives on the support alone
        a = gaussian(3, 5, 13).matrix
        support = (0, 1, 2, 3)
        for eps, value, feasible, x in patterns(a, support):
            assert value == np.inf and feasible is True
            assert abs(x[4]) < 1e-12 and np.dot(eps, x[:4]) > 0.1
            assert np.abs(a @ x).max() < 1e-12

    def test_lp_value_checked_at_witness(self, monkeypatch):
        # a solver answer off the constraint |x_off|_1 = 1 by 1% moves the
        # LP value but not the witness ratio: the two routes disagree
        solve = bp._solve_lp

        def scaled(*args):
            return 1.01 * solve(*args)

        monkeypatch.setattr(bp, "_solve_lp", scaled)
        with pytest.raises(FormMismatchError):
            bp.brc_bp_check(gaussian(3, 5, 13), (0, 3))

    def test_tied_pattern_left_open(self):
        # a duplicated atom on the support: e0 - e1 is a null vector on
        # the support; eps = (1, 1) gains nothing along it (a tie, so no
        # input with that sign is the unique minimizer), eps = (1, -1)
        # gains without bound
        a = np.array([[1.0, 1.0, 0.0, np.sqrt(0.5)], [0.0, 0.0, 1.0, np.sqrt(0.5)]])
        by_eps = {eps: (value, feasible) for eps, value, feasible, _ in patterns(a, (0, 1))}
        assert by_eps[(1, -1)] == (np.inf, True)
        value, feasible = by_eps[(1, 1)]
        assert value < 1.0 and feasible is None
        # A_S is not injective, so that input is lost, exactly
        assert bp.l1_recovers(a, np.array([2.0, 1.0, 0.0, 0.0])) is False
        report = bp.nsp_check(a, (0, 1))
        assert not report.verdict and not report.indeterminate


class TestNsp:
    def test_vacuous_for_injective_dictionary(self):
        report = bp.nsp_check(np.eye(4), (0, 1))
        assert report.verdict
        assert report.supremum is None

    def test_paired_identity_boundary(self):
        # x = e1 - e4 carries equal mass on and off the support: the
        # strict inequality fails exactly at the boundary
        a = np.hstack([np.eye(3), np.eye(3)])
        report = bp.nsp_check(a, (0,))
        assert not report.verdict
        assert report.indeterminate
        assert abs(report.supremum - 1.0) <= TAU_STRICT

    def test_holds_for_single_atom_generic(self):
        report = bp.nsp_check(gaussian(4, 5, 3), (2,))
        assert report.verdict
        assert report.supremum < 1.0 - 1e-6
        assert not report.indeterminate

    def test_witness_lies_in_null_space(self):
        d = gaussian(3, 5, 7)
        report = bp.nsp_check(d, (0, 1))
        assert np.abs(d.matrix @ report.witness).max() < 1e-10

    @pytest.mark.parametrize("m, n, support", [(2, 8, (0,)), (6, 10, (0, 1, 2))])
    def test_decided_at_null_dimension_four_and_up(self, m, n, support):
        d = gaussian(m, n, 0)
        nsp = bp.nsp_check(d, support)
        brc = bp.brc_bp_check(d, support)
        assert not nsp.indeterminate
        assert all(f is not None for _, _, f, _ in brc.patterns)
        round_trip(d, support, nsp, brc, np.random.default_rng(54), draws=3)

    def test_supremum_is_largest_pattern_value(self):
        for seed in range(10):
            d = gaussian(4, 7, seed)
            nsp = bp.nsp_check(d, (1, 5, 6))
            brc = bp.brc_bp_check(d, (1, 5, 6))
            assert nsp.supremum == max(sup for _, sup, _, _ in brc.patterns)

    @pytest.mark.parametrize("n, k", [(24, 20), (30, 30)])
    def test_work_budget_before_allocation(self, monkeypatch, n, k):
        # 2^19 patterns of a 4-dimensional null space, and 2^29 patterns
        # of a support naming every atom (no off-support atom, so no LP
        # nonzeros): both far over budget, refused before the pattern
        # table or the LP exists
        def no_lp(*args):
            raise AssertionError("LP built over budget")

        monkeypatch.setattr(bp, "_solve_lp", no_lp)
        d = gaussian(20, n, 0)
        # the patched solver is the one a check in budget reaches
        with pytest.raises(AssertionError, match="LP built"):
            bp.nsp_check(gaussian(4, 6, 0), (0, 1))
        for check in (bp.nsp_check, bp.brc_bp_check):
            tracemalloc.start()
            try:
                with pytest.raises(TooLargeError, match="work budget"):
                    check(d, tuple(range(k)))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 200_000

    @pytest.mark.parametrize("support", [(0, 5), (-1,)])
    def test_support_index_range(self, support):
        for check in (bp.nsp_check, bp.brc_bp_check):
            with pytest.raises(ValueError, match="outside"):
                check(gaussian(3, 5, 0), support)

    @pytest.mark.parametrize("support", [(0.5, 2), (1, 2.0), ("1", "2"), (True, 2)])
    def test_support_indices_are_integers(self, support):
        for check in (bp.nsp_check, bp.brc_bp_check):
            with pytest.raises(ValueError, match="must be an integer"):
                check(gaussian(4, 8, 1), support)

    def test_duplicate_support_rejected(self):
        # the same validator as the greedy certificates: a repeated
        # index is an error, not silently merged
        for check in (bp.nsp_check, bp.brc_bp_check):
            with pytest.raises(ValueError, match="duplicate"):
                check(gaussian(3, 5, 0), (0, 0, 1))


def round_trip(d, support, nsp, brc, rng, draws):
    """Each decided pattern against the basic-solution oracle: feasible
    means every input with that sign is lost, infeasible that every one
    is recovered; the null-space verdict means all are.  ``l1_recovers``
    agrees with the oracle wherever it decides."""
    n = d.matrix.shape[1]
    for eps, _, feasible, _ in brc.patterns:
        for _ in range(draws):
            x = np.zeros(n)
            x[list(support)] = np.array(eps) * rng.uniform(0.2, 5.0, len(support))
            recovered = recovers(d, x)
            if feasible is not None:
                assert recovered is not feasible, (eps, feasible)
            if nsp.verdict:
                assert recovered
            decided = bp.l1_recovers(d, x)
            assert decided is None or decided == recovered, (eps, decided, recovered)


def coherent_pair_dictionary():
    """Two nearly parallel atoms plus their normalized sum/difference
    directions: no sign pattern on the pair survives l1 minimization."""
    t = 0.1
    a1 = np.array([np.cos(t), np.sin(t), 0.0])
    a2 = np.array([np.cos(t), -np.sin(t), 0.0])
    mid = (a1 + a2) / np.linalg.norm(a1 + a2)
    dif = (a1 - a2) / np.linalg.norm(a1 - a2)
    other = np.array([0.0, 0.0, 1.0])
    return np.column_stack([a1, a2, mid, dif, other])


class TestBrcBp:
    def test_single_unit_atom_never_certified(self):
        # |x_i| <= off-support mass holds for every null vector of a
        # unit-norm dictionary, so the failure certificate cannot hold
        report = bp.brc_bp_check(gaussian(3, 5, 11), (2,))
        assert report.verdict is False

    def test_coherent_pair_certified(self):
        d = coherent_pair_dictionary()
        report = bp.brc_bp_check(d, (0, 1))
        assert report.verdict is True
        assert len(report.patterns) == 4
        for eps, sup, feas, x in report.patterns:
            assert feas is True
            assert sup > 1.0 + TAU_STRICT
            assert np.abs(d @ x).max() < 1e-10

    def test_round_trip_with_l1_oracle(self):
        # certificate true -> every sign pattern fails the l1 oracle
        d = coherent_pair_dictionary()
        rng = np.random.default_rng(52)
        for eps in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
            for _ in range(5):
                x = np.zeros(5)
                x[[0, 1]] = np.array(eps) * rng.uniform(0.5, 2.0, 2)
                assert not recovers(d, x)

    def test_mirrored_patterns_share_suprema(self):
        report = bp.brc_bp_check(gaussian(3, 5, 13), (0, 3))
        by_eps = {eps: sup for eps, sup, _, _ in report.patterns}
        for eps, sup in by_eps.items():
            assert by_eps[tuple(-e for e in eps)] == sup


class TestL1Min:
    """The basic-solution oracle itself."""

    def test_tied_pair(self):
        a = np.hstack([np.eye(3), np.eye(3)])
        sols = l1_min(a, np.eye(3)[:, 0])
        assert len(sols) == 2
        for x in sols:
            assert np.abs(x).sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(a @ x, np.eye(3)[:, 0], atol=1e-12)

    def test_unique_orthonormal(self):
        sols = l1_min(np.eye(4), np.array([0.0, 2.0, 0.0, 0.0]))
        assert len(sols) == 1
        assert np.allclose(sols[0], [0.0, 2.0, 0.0, 0.0], atol=1e-12)

    def test_zero_input(self):
        sols = l1_min(gaussian(3, 5, 1), np.zeros(3))
        assert len(sols) == 1
        assert np.all(sols[0] == 0.0)

    def test_infeasible(self):
        a = np.eye(3)[:, :1]
        with pytest.raises(InfeasibleError):
            l1_min(a, np.array([0.0, 1.0, 0.0]))

    def test_column_budget(self):
        with pytest.raises(TooLargeError):
            l1_min(gaussian(3, 13, 0), np.zeros(3))

    def test_recovers_helpers(self):
        assert recovers(np.eye(3), np.array([0.0, 1.5, 0.0]))
        assert bp.l1_recovers(np.eye(3), np.array([0.0, 1.5, 0.0])) is True
        a = np.hstack([np.eye(3), np.eye(3)])
        assert not recovers(a, np.array([1.0, 0, 0, 0, 0, 0]))

    def test_nsp_implies_recovery_of_all_draws(self):
        # strict null-space verdict -> every vector on the support is
        # the unique minimizer, signs and amplitudes notwithstanding
        rng = np.random.default_rng(53)
        checked = 0
        for seed in range(40):
            d = gaussian(3, 5, seed)
            qstar = (0, 4)
            report = bp.nsp_check(d, qstar)
            if not report.verdict:
                continue
            checked += 1
            for _ in range(5):
                x = np.zeros(5)
                x[list(qstar)] = rng.uniform(0.3, 2.0, 2) * rng.choice([-1, 1], 2)
                assert recovers(d, x)
        assert checked >= 3


class TestL1Recovers:
    def test_exact_tie_left_open(self):
        # e0 ties e3 in l1 norm: v = 1 exactly, so no call either way
        a = np.hstack([np.eye(3), np.eye(3)])
        assert bp.l1_recovers(a, np.eye(6)[0]) is None

    def test_support_naming_every_atom(self):
        # no off-support atom: recovered exactly when A is injective
        assert bp.l1_recovers(np.eye(4), np.array([1.0, 2.0, -3.0, 4.0])) is True
        a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert bp.l1_recovers(a, np.array([1.0, 2.0, 3.0])) is False

    def test_zero_vector_recovered(self):
        assert bp.l1_recovers(gaussian(3, 5, 1), np.zeros(5)) is True

    @pytest.mark.parametrize("xstar", [np.zeros((5, 1)), np.zeros(4), np.zeros(6),
                                       [1.0, np.nan, 0.0, 0.0, 0.0],
                                       [np.inf, 0.0, 0.0, 0.0, 0.0],
                                       # its real part alone read as the zero vector
                                       [1j, 0.0, 0.0, 0.0, 0.0]])
    def test_input_validated(self, xstar):
        with pytest.raises(ValueError, match="xstar"):
            bp.l1_recovers(gaussian(3, 5, 0), xstar)

    def test_decided_beyond_enumeration(self):
        # n = 20 is past the basic-solution oracle: a recovery is checked
        # against an l1 solve by LP, a loss against the pattern's null
        # witness w, along which x* - t w has smaller l1 norm
        from scipy.optimize import linprog

        d = gaussian(8, 20, 5)
        a = d.matrix
        basis = null_space(a)
        rng = np.random.default_rng(55)
        outcomes = []
        for _ in range(30):
            support = tuple(sorted(rng.choice(20, int(rng.integers(1, 4)), replace=False)))
            x = np.zeros(20)
            x[list(support)] = rng.choice([-1.0, 1.0], len(support)) * rng.uniform(0.5, 2.0,
                                                                                   len(support))
            got = bp.l1_recovers(d, x)
            outcomes.append(got)
            if got:
                res = linprog(np.ones(40), A_eq=np.hstack([a, -a]), b_eq=a @ x,
                              bounds=(0.0, None), method="highs")
                assert np.abs(res.x[:20] - res.x[20:] - x).max() < 1e-7
            else:
                eps = np.sign(x[list(support)])
                [(_, value, lost, w)] = bp._sign_patterns(a, support, basis, eps[None])
                assert got is False and lost is True and value > 1.0
                assert np.abs(a @ w).max() < 1e-10
                t = 1e-3 * np.abs(x[list(support)]).min() / np.abs(w).max()
                assert np.abs(x - t * w).sum() < np.abs(x).sum()
        assert outcomes.count(True) >= 5 and outcomes.count(False) >= 5


@settings(max_examples=80)
@given(m=st.integers(1, 6), null_dim=st.integers(1, 4), seed=st.integers(0, 10**6),
       data=st.data())
def test_lp_and_l1_min_agree(m, null_dim, seed, data):
    # the certificates and l1_recovers against the basic-solution oracle
    n = m + null_dim
    k = data.draw(st.integers(1, min(3, n - 1)))
    support = tuple(data.draw(st.permutations(range(n)))[:k])
    d = gaussian(m, n, seed)
    nsp = bp.nsp_check(d, support)
    brc = bp.brc_bp_check(d, support)
    round_trip(d, support, nsp, brc, np.random.default_rng(seed), draws=2)


def dense_block_csc(b_off, count):
    """The CSC arrays of ``count`` copies of the LP block down the
    diagonal, read off the dense block with ``np.block`` and
    ``np.nonzero``, with none of ``_block_csc``'s index arithmetic."""
    p, r = b_off.shape
    block = np.block([[b_off, -np.eye(p)], [-b_off, -np.eye(p)],
                      [np.zeros((1, r)), np.ones((1, p))]])
    (h, w), (cols, rows) = block.shape, np.nonzero(block.T)
    nnz, shift = rows.size, np.arange(count)[:, None]
    starts = np.searchsorted(cols, np.arange(w))
    return (np.tile(block[rows, cols], count), (rows + h * shift).ravel(),
            np.append((starts + nnz * shift).ravel(), nnz * count))


@st.composite
def planted_blocks(draw):
    """A p x r block B_off with +0.0 and -0.0 planted among its entries,
    and a count of live patterns."""
    p, r = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b_off = rng.standard_normal((p, r))
    kind = rng.choice(3, size=(p, r), p=draw(st.sampled_from([(1, 0, 0), (0.6, 0.2, 0.2),
                                                             (0, 0.5, 0.5)])))
    b_off[kind == 1], b_off[kind == 2] = 0.0, -0.0
    return b_off, draw(st.integers(1, 8))


@settings(max_examples=200)
@given(case=planted_blocks())
def test_block_csc_matches_dense_construction(case):
    # signed zeros are dropped exactly as np.nonzero drops them
    b_off, count = case
    got, want = bp._block_csc(b_off, count), dense_block_csc(b_off, count)
    assert got[1].dtype == got[2].dtype == np.int32
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].astype(np.int32).tobytes()
    assert got[2].tobytes() == want[2].astype(np.int32).tobytes()


class TestOneSolverCall:
    """Each check solves its sign patterns in one call of ``_solve_lp``,
    which makes one HiGHS object through scipy's binding and reaches
    neither ``scipy.optimize.milp`` nor ``linprog``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import scipy.optimize

        core = pytest.importorskip("scipy.optimize._highspy._core")
        solve, highs, calls = bp._solve_lp, core._Highs, []

        def counted(*args):
            calls.append("lp")
            return solve(*args)

        def counted_highs():
            calls.append("highs")
            return highs()

        def front_end(*args, **kwargs):
            raise AssertionError("a scipy.optimize front end reached")

        monkeypatch.setattr(bp, "_solve_lp", counted)
        monkeypatch.setattr(core, "_Highs", counted_highs)
        monkeypatch.setattr(scipy.optimize, "milp", front_end)
        monkeypatch.setattr(scipy.optimize, "linprog", front_end)
        return calls

    @pytest.mark.parametrize("check", [bp.nsp_check, bp.brc_bp_check, bp._l1_reports])
    def test_one_call_per_check(self, calls, check):
        check(gaussian(4, 7, 2), (0, 3, 5))
        assert calls == ["lp", "highs"]

    def test_one_call_for_l1_recovers(self, calls):
        x = np.zeros(7)
        x[[1, 4]] = (2.0, -0.5)
        assert bp.l1_recovers(gaussian(4, 7, 2), x) is not None
        assert calls == ["lp", "highs"]

    def test_no_call_for_trivial_null_space(self, calls):
        for check in (bp.nsp_check, bp.brc_bp_check, bp._l1_reports):
            check(np.eye(4), (0, 1))
        assert bp.l1_recovers(np.eye(4), np.array([1.0, 0.0, -2.0, 0.0])) is True
        assert not calls


def count_milp(monkeypatch):
    """The list that counts the calls of ``scipy.optimize.milp``."""
    import scipy.optimize

    solve, calls = scipy.optimize.milp, []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", counted)
    return calls


def hide_binding(monkeypatch):
    """Hide scipy's HiGHS binding, so ``_solve_lp`` takes its ``milp``
    route; returns the list that counts the ``milp`` calls."""
    calls = count_milp(monkeypatch)
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    return calls


# the l1-search shapes of the benchmark, and the bp-check inputs whose
# JSON has been compared byte for byte against earlier versions
L1_SEARCH_SHAPES = ((7, 8, 2), (3, 4, 3), (8, 10, 3), (4, 6, 3), (5, 8, 3), (6, 9, 2), (6, 9, 3))
BP_CHECK_INPUTS = (["--m", "8", "--n", "6", "--qstar", "0,1"],
                   ["--m", "4", "--n", "8", "--qstar", "0,1"],
                   ["--m", "6", "--n", "10", "--qstar", "0,2,5", "--seed", "3"],
                   ["--dict", "hybrid", "--m", "5", "--n", "9", "--qstar", "1,3", "--seed", "2"],
                   ["--m", "3", "--n", "7", "--qstar", "0,1,2", "--seed", "1"],
                   ["--dict", "example1", "--qstar", "0,1"])


def route_outputs(capfd):
    """The JSON reports and ``l1_recovers`` answers of the l1-search
    shapes (seeds 1-10), an unbounded pattern, a tied pattern and a
    trivial null space, then the output of ``bp-check`` on each input
    of ``BP_CHECK_INPUTS``; nothing else may be printed."""
    tied = np.array([[1.0, 1.0, 0.0, np.sqrt(0.5)], [0.0, 0.0, 1.0, np.sqrt(0.5)]])
    cases = [(gaussian(3, 5, 13), (0, 1, 2, 3)), (tied, (0, 1)), (gaussian(8, 6, 0), (0, 1))]
    for seed in range(1, 11):
        rng = np.random.default_rng((seed, 3))
        cases += [(gaussian(m, n, 1000 * seed + ci),
                   tuple(sorted(rng.choice(n, size=k, replace=False).tolist())))
                  for ci, (m, n, k) in enumerate(L1_SEARCH_SHAPES)]
    rng = np.random.default_rng(56)
    outputs = []
    for d, support in cases:
        a = getattr(d, "matrix", d)
        x = np.zeros(a.shape[1])
        x[list(support)] = rng.choice([-1.0, 1.0], len(support)) * rng.uniform(0.5, 1.5,
                                                                               len(support))
        outputs.append(json.dumps([bp.nsp_check(d, support).to_json(),
                                   bp.brc_bp_check(d, support).to_json(),
                                   bp.l1_recovers(d, x)]))
    assert capfd.readouterr() == ("", "")
    for argv in BP_CHECK_INPUTS:
        code = main(["bp-check", *argv])
        out, err = capfd.readouterr()
        assert code == 0 and err == "" and set(json.loads(out)) == {"config", "nsp", "brc_bp"}
        outputs.append(out)
    return outputs


class TestLpRoutes:
    """``_solve_lp`` through scipy's HiGHS binding and, where the binding
    is missing, through ``scipy.optimize.milp``: the same answers, bit
    for bit, and the same refusal of a non-optimal LP."""

    def test_routes_give_the_same_bytes(self, monkeypatch, capfd):
        pytest.importorskip("scipy.optimize._highspy._core")
        binding = route_outputs(capfd)
        with monkeypatch.context() as patched:
            calls = hide_binding(patched)
            fallback = route_outputs(capfd)
        assert calls
        assert fallback == binding

    def test_without_array_overload_milp_answers(self, monkeypatch):
        # a binding whose passModel takes a HighsLp object only
        core = pytest.importorskip("scipy.optimize._highspy._core")

        class LpOnly(core._Highs):
            def passModel(self, *args):
                if len(args) != 1:
                    raise TypeError("passModel(): incompatible function arguments")
                return super().passModel(*args)

        cases = [(gaussian(m, n, 1000 + ci), tuple(range(k)))
                 for ci, (m, n, k) in enumerate(L1_SEARCH_SHAPES)]
        want = [json.dumps([r.to_json() for r in bp._l1_reports(d, s)]) for d, s in cases]
        calls = count_milp(monkeypatch)
        monkeypatch.setattr(core, "_Highs", LpOnly)
        got = [json.dumps([r.to_json() for r in bp._l1_reports(d, s)]) for d, s in cases]
        assert len(calls) == len(cases)
        assert got == want

    def test_binding_prints_nothing(self, capfd):
        # HiGHS writes to the process's own stdout, past sys.stdout: capfd
        # sees it with the output on, and nothing with output_flag off
        core = pytest.importorskip("scipy.optimize._highspy._core")
        loud = core._Highs()
        loud.passModel(1, 1, 1, core.MatrixFormat.kColwise, core.ObjSense.kMinimize, 0.0,
                       np.ones(1), np.zeros(1), np.ones(1), np.full(1, -np.inf), np.ones(1),
                       np.array([0, 1], dtype=np.int32), np.zeros(1, dtype=np.int32),
                       np.ones(1), np.zeros(1, dtype=np.int32))
        loud.run()
        assert "HiGHS" in capfd.readouterr().out
        bp._l1_reports(gaussian(7, 8, 2), (0, 3))
        with pytest.raises(GreedycertError, match="Unbounded"):
            bp._solve_lp(np.ones(1), np.ones(1), np.zeros(1, dtype=np.int32),
                         np.array([0, 1], dtype=np.int32), np.zeros(1), np.full(1, -np.inf))
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("route", ["binding", "milp"])
    def test_non_optimal_lp_raises(self, monkeypatch, route):
        # min x subject to x <= 0, x free: HiGHS finds it unbounded
        calls = hide_binding(monkeypatch) if route == "milp" else []
        with pytest.raises(GreedycertError, match="Unbounded"):
            bp._solve_lp(np.ones(1), np.ones(1), np.zeros(1, dtype=np.int32),
                         np.array([0, 1], dtype=np.int32), np.zeros(1), np.full(1, -np.inf))
        assert len(calls) == (route == "milp")


# the l1-search shapes of the benchmark, one null-space dimension 4 case
# among them, and rank-deficient matrices: the numpy null space keeps
# the bits of scipy.linalg.null_space
NULL_SPACE_SHAPES = [(7, 8), (3, 4), (8, 10), (4, 6), (5, 8), (6, 9), (6, 10)]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("m,n", NULL_SPACE_SHAPES)
def test_null_space_keeps_scipy_bits(m, n, seed):
    a = gaussian(m, n, seed).matrix
    got, want = bp._null_space(a), null_space(a)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("a", [
    np.vstack([gaussian(6, 10, 0).matrix[:4], gaussian(6, 10, 0).matrix[:2]]),
    np.vstack([gaussian(6, 10, 0).matrix[:4], gaussian(6, 10, 0).matrix[:2]]).T,
    np.zeros((3, 5)),
], ids=["repeated-rows", "repeated-columns", "zero"])
def test_rank_deficient_null_space_keeps_scipy_bits(a):
    got, want = bp._null_space(a), null_space(a)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert got.shape[1] == a.shape[1] - np.linalg.matrix_rank(a)
