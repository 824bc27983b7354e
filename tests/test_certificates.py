"""Certificate evaluations against pinv oracles and closed forms.

The two-pair dictionary gives hand-computable references: with support
{0, 1} and probe atom 2 or 3,

    factor at q=0:      cos(t2) / sin(t1)
    OMP factor at {0}:  cos(t2) / (2 sin(t1))
    OLS factor at {0}:  cos(t1) cos(t2) / sqrt(cos^2 t1 cos^2 t2 + sin^2 t2)
"""

import tracemalloc

import cardinality_oracle
import numpy as np
import projected_oracle
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from greedycert import certificates as cert
from greedycert import linalg
from greedycert.dictionaries import convolutive, example1, gaussian, hybrid
from greedycert.exceptions import (
    FormMismatchError,
    NotNormalizedError,
    RankDeficientError,
    TooLargeError,
)
from greedycert.greedy import build_failure_input, construct_reaching_input, run_greedy
from greedycert.linalg import factor_chain, residual, state_for
from greedycert.tolerances import TAU_STRICT, TAU_ZERO

EPS = np.finfo(np.float64).eps


def oracle_f_omp(a, qstar, q, j):
    c = np.linalg.pinv(a[:, list(qstar)]) @ a[:, j]
    rows = [p for p, i in enumerate(qstar) if i not in q]
    return np.abs(c[rows]).sum()


def oracle_f_ols(a, qstar, q, j):
    m = a.shape[0]
    p = np.eye(m)
    if q:
        aq = a[:, list(q)]
        p = p - aq @ np.linalg.pinv(aq)
    nj = np.linalg.norm(p @ a[:, j])
    if nj <= 1e-10:
        return 0.0
    c = np.linalg.pinv(a[:, list(qstar)]) @ a[:, j]
    return sum(
        np.linalg.norm(p @ a[:, i]) / nj * abs(c[pos])
        for pos, i in enumerate(qstar)
        if i not in q
    )


def lstsq(a, b):
    return np.linalg.lstsq(a, b, rcond=None)[0]


def rand_instance(rng):
    m = int(rng.integers(8, 20))
    n = int(rng.integers(m, 2 * m))
    k = int(rng.integers(2, 7))
    a = gaussian(m, n, int(rng.integers(2**31))).matrix
    perm = rng.permutation(n)
    qstar = tuple(int(i) for i in perm[:k])
    q = tuple(qstar[: int(rng.integers(0, k))])
    j = int(perm[k])
    return a, qstar, q, j


class TestErcFactor:
    """Tropp's ERC factor is the OMP factor at the empty selection."""

    def test_two_pair_closed_form(self):
        d = example1(np.pi / 3, np.pi / 4)
        want = np.cos(np.pi / 4) / np.sin(np.pi / 3)  # 0.8164965809...
        assert abs(cert.f_omp(d, (0, 1), (), 2) - want) < 1e-12
        assert abs(cert.f_omp(d, (0, 1), (), 3) - want) < 1e-12

    def test_matches_pinv_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            a, qstar, _, j = rand_instance(rng)
            assert abs(cert.f_omp(a, qstar, (), j) - oracle_f_omp(a, qstar, (), j)) < 1e-9

    def test_rejects_probe_inside_support(self):
        with pytest.raises(ValueError):
            cert.f_omp(gaussian(5, 8, 0), (0, 1), (), 1)

    @pytest.mark.parametrize("j", [-1, 8])
    def test_rejects_probe_outside_range(self, j):
        # -1 is not read as the last atom
        d = gaussian(5, 8, 0)
        for call in (lambda: cert.f_omp(d, (0, 1), (), j), lambda: cert.f_ols(d, (0, 1), (), j),
                     lambda: cert.recursion_chain(d, (0, 1), j, (0,), "omp")):
            with pytest.raises(ValueError, match="outside"):
                call()

    @pytest.mark.parametrize("q", [(5, 5), (1, 1, 5)], ids=["5,5", "1,1,5"])
    @pytest.mark.parametrize("entry", ["f_omp", "f_ols", "erc_oxx_subset", "recursion_chain"])
    def test_rejects_repeated_selection(self, entry, q):
        # the caller's repeated index, not a dependent dictionary atom
        d = gaussian(20, 40, 3)
        call = {"f_omp": lambda: cert.f_omp(d, (1, 5, 9), q, 0),
                "f_ols": lambda: cert.f_ols(d, (1, 5, 9), q, 0),
                "erc_oxx_subset": lambda: cert.erc_oxx_subset(d, (1, 5, 9), q, "omp"),
                "recursion_chain": lambda: cert.recursion_chain(d, (1, 5, 9), 0, q, "omp")}[entry]
        with pytest.raises(ValueError, match="duplicate indices in the partial selection"):
            call()


# every index the certificates and constructions take, given as a float,
# a bool or a string: int() would truncate, count or parse it
NON_INTEGER_INDICES = {
    "subset-support": lambda d: cert.erc_oxx_subset(d, (0.5, 2.9), (), "omp"),
    "subset-selection": lambda d: cert.erc_oxx_subset(d, (0, 2), (0.0,), "omp"),
    "brc-float": lambda d: cert.brc_omp(d, (1.7, 2)),
    "brc-string": lambda d: cert.brc_omp(d, ("1", "2")),
    "brc-bool": lambda d: cert.brc_omp(d, (True, 2)),
    "brc-numpy-float": lambda d: cert.brc_omp(d, np.array([1.0, 2.0])),
    "f_omp-probe": lambda d: cert.f_omp(d, (0, 1), (), 3.9),
    "f_ols-probe": lambda d: cert.f_ols(d, (0, 1), (), np.float64(3.0)),
    "chain-probe": lambda d: cert.recursion_chain(d, (0, 1), 5.5, (0,), "omp"),
    "cardinality": lambda d: cert.erc_oxx_cardinality(d, (0, 1, 2), 1.9, "omp"),
    "cardinality-bool": lambda d: cert.erc_oxx_cardinality(d, (0, 1, 2), True, "omp"),
    "construct-order": lambda d: construct_reaching_input(d, (1.5, 3), "ols"),
    "failure-input": lambda d: build_failure_input(d, (0, 1, 2), (0.2,), "omp"),
}


class TestIntegerIndices:
    @pytest.mark.parametrize("entry", NON_INTEGER_INDICES)
    def test_non_integer_refused_by_name(self, entry):
        with pytest.raises(ValueError, match="must be an integer, got"):
            NON_INTEGER_INDICES[entry](gaussian(20, 40, 1))

    def test_python_and_numpy_integers_agree(self):
        d = gaussian(20, 40, 1)
        for qstar, card, j in [((1, 2), 1, 3), ((np.int64(1), np.int32(2)), np.int64(1), np.intp(3)),
                               (np.array([1, 2]), np.uint8(1), np.int16(3))]:
            assert cert.brc_omp(d, qstar).per_atom == cert.brc_omp(d, (1, 2)).per_atom
            assert (cert.erc_oxx_cardinality(d, qstar, card, "ols").aggregate
                    == cert.erc_oxx_cardinality(d, (1, 2), 1, "ols").aggregate)
            assert cert.f_omp(d, qstar, (), j) == cert.f_omp(d, (1, 2), (), 3)


class TestFactorClosedForms:
    @pytest.mark.parametrize(
        "t1,want",
        [(np.pi / 6, 0.7071067811865475), (np.pi / 12, 1.3660254037844386)],
    )
    def test_omp_after_first_atom(self, t1, want):
        d = example1(t1, np.pi / 4)
        for j in (2, 3):
            assert abs(cert.f_omp(d, (0, 1), (0,), j) - want) < 1e-9
            assert abs(cert.f_omp(d, (0, 1), (1,), j) - want) < 1e-9

    def test_ols_after_first_atom(self):
        t = np.pi / 4
        d = example1(t, t)
        want = 0.5773502691896258
        assert abs(cert.f_ols(d, (0, 1), (0,), 2) - want) < 1e-9

    def test_empty_selection_reduces_to_erc(self):
        rng = np.random.default_rng(22)
        a, qstar, _, j = rand_instance(rng)
        e = cert.f_omp(a, qstar, (), j)
        assert abs(e - oracle_f_omp(a, qstar, (), j)) < 1e-9
        assert abs(cert.f_ols(a, qstar, (), j) - e) < 1e-12

    def test_degenerate_probe_scores_zero(self):
        # probe atom equal to a selected atom projects to nothing
        a = np.column_stack([np.eye(3), [1.0, 0.0, 0.0]])
        assert cert.f_ols(a, (0, 1), (0,), 3) == 0.0


class TestFactorOracles:
    def test_both_routes_match_pinv(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            a, qstar, q, j = rand_instance(rng)
            assert abs(cert.f_omp(a, qstar, q, j) - oracle_f_omp(a, qstar, q, j)) < 1e-9
            assert abs(cert.f_ols(a, qstar, q, j) - oracle_f_ols(a, qstar, q, j)) < 1e-9


@st.composite
def kernel_cases(draw):
    """A dictionary, support, partial selection and probe set."""
    family = draw(st.sampled_from(["gaussian", "hybrid", "convolutive"]))
    if family == "convolutive":
        sigma = draw(st.floats(0.5, 10.0))
        d = convolutive(draw(st.integers(8, 60)), sigma)
    else:
        m = draw(st.integers(6, 30))
        n = draw(st.integers(m + 1, 2 * m))
        seed = draw(st.integers(0, 2**31 - 1))
        if family == "gaussian":
            d = gaussian(m, n, seed)
        else:
            d = hybrid(m, n, draw(st.floats(0.0, 1000.0)), seed)
    m, n = d.matrix.shape
    k = draw(st.integers(1, min(6, m - 1, n - 1)))
    perm = draw(st.permutations(range(n)))
    qstar = tuple(perm[:k])
    q = qstar[: draw(st.integers(0, k - 1))]
    js = list(perm[k:])
    return d.matrix, qstar, q, js


class TestKernelAgainstProjectedRoute:
    """The factor kernel (one QR of the support) against the projected
    route (ProjectionState plus a QR of the projected system)."""

    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(kernel_cases(), st.sampled_from(["omp", "ols"]))
    def test_values_and_verdicts_agree(self, case, algorithm):
        a, qstar, q, js = case
        order = list(q) + [i for i in qstar if i not in q]
        chain = cert.factor_chain(a, order, js)
        kernel = cert._chain_factors(chain, [len(q)], algorithm)[0]
        projected = projected_oracle.projected_factors(a, qstar, q, js, algorithm)
        gap = np.abs(kernel - projected) / np.maximum(1.0, np.abs(projected))
        assert gap.max() <= 1e-9
        decided = np.abs(projected - 1.0) > 1e-6
        assert np.array_equal((kernel < 1.0)[decided], (projected < 1.0)[decided])


def dense_chain_factors(chain, depths, algorithm):
    """The factors as they were computed before the rules read ``|C|`` in
    place and consecutive depths as slices: the bit-for-bit oracle of
    ``_chain_factors``.  Both rules weigh the rows of ``|C|``: OMP by 1
    on the rows still to be selected, OLS by the support norms."""
    coef, probe_norms, support_norms, _ = chain
    c = np.abs(coef)
    depths = list(depths)
    den = probe_norms[depths]
    alive = den > TAU_ZERO
    if algorithm == "omp":
        weights = (np.arange(len(c)) >= np.array(depths)[:, None]).astype(np.float64)
        vals = weights @ c
    else:
        vals = (support_norms[depths] @ c) / np.where(alive, den, 1.0)
    return np.where(alive, vals, 0.0)


@st.composite
def chain_factor_cases(draw):
    """A growth order, probes and depths.  Some probes lie inside the
    span of a prefix of the order, so they are dead from that depth on;
    one may repeat a support atom.  Depths are consecutive or not."""
    m = draw(st.integers(3, 25))
    k = draw(st.integers(1, m - 1))
    n = k + draw(st.integers(0, 20))
    seed = draw(st.integers(0, 2**31 - 1))
    a = hybrid(m, n, draw(st.sampled_from([0.0, 1.0, 10.0, 1000.0])), seed).matrix
    order = [int(i) for i in draw(st.permutations(range(n)))[:k]]
    rng = np.random.default_rng(seed)
    extra = []
    for s in draw(st.lists(st.integers(1, k), max_size=4)):
        x = a[:, order[:s]] @ rng.standard_normal(s)
        extra.append(x / np.linalg.norm(x))
    if draw(st.booleans()):
        extra.append(a[:, order[draw(st.integers(0, k - 1))]])
    full = np.column_stack([a] + extra) if extra else a
    probes = [j for j in range(full.shape[1]) if j not in order]
    if draw(st.booleans()):
        lo = draw(st.integers(0, k))
        depths = range(lo, draw(st.integers(lo + 1, k + 1)))
    else:
        depths = draw(st.lists(st.integers(0, k), min_size=1, max_size=k + 2))
    return full, order, probes, depths


class TestChainFactors:
    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(chain_factor_cases(), st.sampled_from(["omp", "ols"]))
    def test_matches_the_dense_formulas(self, case, algorithm):
        a, order, probes, depths = case
        chain = factor_chain(a, order, probes)
        signed = chain[0].copy()
        want = dense_chain_factors(chain, depths, algorithm)
        got = cert._chain_factors(chain, depths, algorithm)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert chain[0].tobytes() == np.abs(signed).tobytes()  # |C| stays in the chain


def explicit_projection(a, qstar, q, js, algorithm):
    """The projected route with the wrong atoms projected as well: least
    squares of ``P a_j`` (over ``|P a_j|`` for OLS) on the projected
    (normalized for OLS) remaining true atoms.  Also returns the
    projected wrong-atom norms and the smallest singular value of the
    system."""
    state = state_for(a, q)
    remaining = [i for i in qstar if i not in q]
    lhs = residual(state, a[:, remaining])
    rhs = residual(state, a[:, js])
    jn = state.norms[js]
    alive = jn > TAU_ZERO
    if algorithm == "ols":
        lhs = lhs / state.norms[remaining]
        rhs = rhs / np.where(alive, jn, 1.0)
    vals = np.abs(lstsq(lhs, rhs)).sum(axis=0)
    return np.where(alive, vals, 0.0), jn, np.linalg.svd(lhs, compute_uv=False)[-1]


def tilted_atom(a, q, scale, rng):
    """``a`` plus one unit atom at projected norm ``scale`` off span(A_q)."""
    state = state_for(a, q)
    inside = a[:, list(q)] @ rng.standard_normal(len(q))
    outside = residual(state, rng.standard_normal(a.shape[0]))
    y = inside / np.linalg.norm(inside) + scale * outside / np.linalg.norm(outside)
    return np.column_stack([a, y / np.linalg.norm(y)])


@st.composite
def near_span_cases(draw):
    """A kernel case; when ``q`` is not empty, three more wrong atoms are
    tilted out of ``span(A_q)`` to projected norms of 0.5, 1.5 and 4
    times ``TAU_ZERO``."""
    a, qstar, q, js = draw(kernel_cases())
    if not q:
        return a, qstar, q, js
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = a.shape[1]
    for scale in (0.5, 1.5, 4.0):
        a = tilted_atom(a, q, scale * TAU_ZERO, rng)
    return a, qstar, q, js + [n, n + 1, n + 2]


class TestProjectedRouteIdentity:
    """The route reads the wrong atoms unprojected, through ``Qp.T A``;
    projecting them first must give the same factors."""

    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(near_span_cases(), st.sampled_from(["omp", "ols"]))
    def test_matches_explicit_projection(self, case, algorithm):
        a, qstar, q, js = case
        got = projected_oracle.projected_factors(a, qstar, q, js, algorithm)
        want, jn, smin = explicit_projection(a, qstar, q, js, algorithm)
        tol = 1e-9 * np.maximum(1.0, np.abs(want))
        if algorithm == "ols":
            # an OLS factor is divided by |P a_j|, so the rounding of
            # order eps that either route leaves in the projected wrong
            # atom grows as 1 / |P a_j| near the selected span
            alive = jn > TAU_ZERO
            tol += np.where(alive, 16 * EPS / (smin * np.where(alive, jn, 1.0)), 0.0)
        assert np.all(np.abs(got - want) <= tol)
        assert np.all(got[jn <= TAU_ZERO] == 0.0)


class TestCheckedModeCatchesFaultyKernel:
    """A kernel off by 1e-6, ten times ``TAU_FORM``, must not pass the
    cross-check of checked mode."""

    d = hybrid(30, 60, 10.0, 41)
    qstar = (2, 9, 17, 33)

    @pytest.mark.parametrize("algorithm", ["omp", "ols"])
    @pytest.mark.parametrize("q", [(), (9, 33)])
    def test_perturbed_coefficient_table(self, monkeypatch, algorithm, q):
        kernel = cert.factor_chain

        def faulty(*args):
            coef, probe_norms, support_norms, r = kernel(*args)
            return coef + 1e-6, probe_norms, support_norms, r

        monkeypatch.setattr(cert, "factor_chain", faulty)
        with pytest.raises(FormMismatchError):
            cert.erc_oxx_subset(self.d, self.qstar, q, algorithm)

    def test_perturbed_least_squares_in_brc_omp(self, monkeypatch):
        # the factor kernel holds brc_omp's least-squares solve; the
        # fault sits on the smallest entry, below every row maximum, so
        # only an entrywise comparison of the two tables can see it
        kernel = cert.factor_chain
        clean = cert.brc_omp(self.d, self.qstar, fast=True)

        def faulty(*args):
            coef, probe_norms, support_norms, r = kernel(*args)
            coef.flat[np.argmin(np.abs(coef))] += 1e-6
            return coef, probe_norms, support_norms, r

        monkeypatch.setattr(cert, "factor_chain", faulty)
        assert cert.brc_omp(self.d, self.qstar, fast=True) == clean
        with pytest.raises(FormMismatchError):
            cert.brc_omp(self.d, self.qstar)

    def test_perturbed_svd_route_in_brc_omp(self, monkeypatch):
        # the same table checks erc_oxx_subset under both rules
        table = cert._pinv_table
        monkeypatch.setattr(cert, "_pinv_table", lambda *args: table(*args) + 1e-6)
        with pytest.raises(FormMismatchError):
            cert.brc_omp(self.d, self.qstar)
        for algorithm in ("omp", "ols"):
            with pytest.raises(FormMismatchError):
                cert.erc_oxx_subset(self.d, self.qstar, (9,), algorithm)

    def test_scaled_triangular_factor(self, monkeypatch):
        # every QR of the package returns R off by a relative 1e-5, patched
        # in each module that holds the routine: the OMP factors move with
        # 1 / R and must be refused, while the scale cancels in the OLS
        # norm ratios, which must pass unchanged
        qs = [(), (9,), (9, 33)]
        clean = {q: cert.erc_oxx_subset(self.d, self.qstar, q, "ols").per_atom for q in qs}
        qr = linalg._qr

        def scaled(*args):
            q, r = qr(*args)
            return q, r * (1 + 1e-5)

        for module in (linalg, cert):
            if hasattr(module, "_qr"):
                monkeypatch.setattr(module, "_qr", scaled)
        for q in qs:
            with pytest.raises(FormMismatchError):
                cert.erc_oxx_subset(self.d, self.qstar, q, "omp")
            with pytest.raises(FormMismatchError):
                cert.f_omp(self.d, self.qstar, q, 0)
            got = cert.erc_oxx_subset(self.d, self.qstar, q, "ols").per_atom
            assert [j for j, _ in got] == [j for j, _ in clean[q]]
            assert max(abs(f - g) for (_, f), (_, g) in zip(got, clean[q])) <= 1e-12


class TestCrossCheckNearSpan:
    """Both routes carry rounding of order eps / |P_q a_j| in an OLS
    factor; a correct kernel must pass the cross-check however close the
    wrong atom comes to the selected span."""

    @pytest.mark.parametrize("scale", [1.5e-10, 1e-9])
    def test_tilted_wrong_atom_passes(self, scale):
        for t in range(50):
            a = tilted_atom(gaussian(30, 60, t).matrix, (0, 1), scale,
                            np.random.default_rng(t))
            report = cert.erc_oxx_subset(a, (0, 1, 2, 3), (0, 1), "ols")
            assert dict(report.per_atom)[60] > 0.0

    def test_bound_away_from_span(self):
        # at |P_q a_j| >= 1e-6 the rounding term adds under 5% to TAU_FORM
        assert cert.FORM_ROUNDING * EPS / 1e-6 <= 0.05 * cert.TAU_FORM

    def test_omp_bound_is_tau_form(self, monkeypatch):
        # an OMP factor off by 1.5 TAU_FORM at a tilted atom is rejected
        a = tilted_atom(gaussian(30, 60, 0).matrix, (0, 1), 1.5e-10,
                        np.random.default_rng(0))
        kernel = cert.factor_chain

        def faulty(*args):
            coef, probe_norms, support_norms, r = kernel(*args)
            coef = coef.copy()
            coef[-1, -1] += np.copysign(1.5 * cert.TAU_FORM, coef[-1, -1])
            return coef, probe_norms, support_norms, r

        monkeypatch.setattr(cert, "factor_chain", faulty)
        with pytest.raises(FormMismatchError):
            cert.erc_oxx_subset(a, (0, 1, 2, 3), (0, 1), "omp")


class TestCheckedModeMemory:
    """Checked mode forms no projected m x n matrix: its peak allocation
    stays within two copies of the dictionary."""

    @pytest.mark.parametrize("call", ["erc_oxx_subset", "brc_omp"])
    def test_peak_below_two_matrices(self, call):
        m, n = 200, 600
        d = hybrid(m, n, 10.0, 7)
        qstar = (5, 80, 310, 555)
        tracemalloc.start()
        try:
            if call == "erc_oxx_subset":
                cert.erc_oxx_subset(d, qstar, (80, 555), "ols")
            else:
                cert.brc_omp(d, qstar)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * m * n * 8


class TestRestrictionIdentities:
    """Projected-system coefficients are restrictions of the full ones."""

    def test_omp_coefficient_restriction(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            a, qstar, q, j = rand_instance(rng)
            state = state_for(a, q)
            remaining = [i for i in qstar if i not in q]
            full = lstsq(a[:, list(qstar)], a[:, j])
            sub = lstsq(residual(state, a[:, remaining]), residual(state, a[:, j]))
            rows = [list(qstar).index(i) for i in remaining]
            assert np.abs(sub - full[rows]).max() < 1e-9

    def test_ols_weighted_restriction(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            a, qstar, q, j = rand_instance(rng)
            state = state_for(a, q)
            if state.norms[j] <= 1e-10:
                continue
            remaining = [i for i in qstar if i not in q]
            bt = residual(state, a[:, remaining]) / state.norms[remaining]
            bj = residual(state, a[:, j]) / state.norms[j]
            beta = lstsq(bt, bj)
            full = lstsq(a[:, list(qstar)], a[:, j])
            rows = [list(qstar).index(i) for i in remaining]
            lhs = state.norms[j] * beta
            rhs = state.norms[remaining] * full[rows]
            assert np.abs(lhs - rhs).max() < 1e-9


class TestErcOxxSubset:
    def test_two_pair_failure_regime(self):
        report = cert.erc_oxx_subset(example1(np.pi / 12, np.pi / 4), (0, 1), (0,), "omp")
        assert report.aggregate == pytest.approx(1.3660254037844386, abs=1e-9)
        assert not report.verdict
        assert report.margin == pytest.approx(0.3660254037844386, abs=1e-9)
        assert dict(report.per_atom)[2] == pytest.approx(report.aggregate, abs=1e-12)

    def test_two_pair_success_regime(self):
        report = cert.erc_oxx_subset(example1(np.pi / 3, np.pi / 4), (0, 1), (0,), "omp")
        assert report.verdict
        assert report.aggregate < 1.0

    def test_empty_selection_matches_erc_per_atom(self):
        rng = np.random.default_rng(27)
        a, qstar, _, _ = rand_instance(rng)
        report = cert.erc_oxx_subset(a, qstar, (), "omp")
        for j, f in report.per_atom:
            assert abs(f - cert.f_omp(a, qstar, (), j)) < 1e-12

    def test_per_atom_pairs_python_numbers(self):
        # the wrong atoms travel as an intp array; reports still pair
        # Python ints with Python floats
        d = hybrid(12, 30, 10.0, 4)
        js = cert._wrong_atoms(30, (3, 7, 20))
        assert js.dtype == np.intp and js.tolist() == [j for j in range(30) if j not in (3, 7, 20)]
        reports = [cert.erc_oxx_subset(d, (3, 7, 20), (7,), "omp"),
                   cert.erc_oxx_cardinality(d, (3, 7, 20), 1, "ols")]
        for report in reports:
            assert [j for j, _ in report.per_atom] == js.tolist()
            assert all(type(j) is int and type(f) is float for j, f in report.per_atom)

    def test_json_round_trip_fields(self):
        report = cert.erc_oxx_subset(example1(0.5, 0.9), (0, 1), (), "ols")
        blob = report.to_json()
        assert blob["kind"] == "erc-oxx-subset"
        assert blob["algorithm"] == "ols"
        assert isinstance(blob["verdict"], bool)
        assert len(blob["per_atom"]) == 2


class TestErcOxxCardinality:
    def test_zero_cardinality_identifies_with_erc(self):
        rng = np.random.default_rng(28)
        a, qstar, _, _ = rand_instance(rng)
        by_subset = cert.erc_oxx_subset(a, qstar, (), "omp")
        by_card = cert.erc_oxx_cardinality(a, qstar, 0, "omp")
        assert by_card.aggregate == pytest.approx(by_subset.aggregate, abs=1e-12)
        assert by_card.verdict == by_subset.verdict

    def test_two_pair_worst_single_selection(self):
        report = cert.erc_oxx_cardinality(example1(np.pi / 12, np.pi / 4), (0, 1), 1, "omp")
        assert report.aggregate == pytest.approx(1.3660254037844386, abs=1e-9)
        assert not report.verdict
        assert report.details["cardinality"] == 1

    def test_ols_always_succeeds_at_last_step(self):
        # with a full-rank augmented support the OLS certificate at
        # cardinality k-1 holds with strictly positive margin
        rng = np.random.default_rng(29)
        for _ in range(30):
            a, qstar, _, _ = rand_instance(rng)
            report = cert.erc_oxx_cardinality(a, qstar, len(qstar) - 1, "ols")
            assert report.verdict
            assert report.margin > 0.0

    def test_budget_guard(self):
        a = gaussian(40, 80, 0)
        with pytest.raises(TooLargeError):
            cert.erc_oxx_cardinality(a, tuple(range(40)), 20, "omp")

    @pytest.mark.parametrize("algorithm", ["omp", "ols"])
    @pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0, 5.0])
    def test_mirror_pair_names_its_first_atom(self, sigma, algorithm):
        # the pulse dictionary's Gram matrix is Toeplitz, so the two atoms
        # of an interior pair mirror each other about their midpoint and
        # both size-1 subsets tie in exact arithmetic; rounding must not
        # decide between them
        d = convolutive(200, sigma)
        for i, delta in [(90, 1), (95, 3), (100, 6), (97, 10)]:
            for qstar in [(i, i + delta), (i + delta, i)]:
                report = cert.erc_oxx_cardinality(d, qstar, 1, algorithm)
                assert report.details["worst_subset"] == [qstar[0]]


@st.composite
def cardinality_cases(draw):
    """A gaussian or hybrid dictionary, a support of at most 8 atoms and
    a cardinality; when it is positive, possibly three more wrong atoms
    tilted out of ``span(A_S)`` of one selection S to projected norms of
    0.5, 1.5 and 4 times ``TAU_ZERO``."""
    m = draw(st.integers(6, 30))
    n = draw(st.integers(m + 1, 2 * m))
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        a = gaussian(m, n, seed).matrix
    else:
        a = hybrid(m, n, draw(st.floats(0.0, 1000.0)), seed).matrix
    k = draw(st.integers(1, min(8, m - 1)))
    perm = draw(st.permutations(range(n)))
    qstar = tuple(perm[:k])
    card = draw(st.integers(0, k - 1))
    if card and draw(st.booleans()):
        selection = draw(st.permutations(qstar))[:card]
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        for scale in (0.5, 1.5, 4.0):
            a = tilted_atom(a, selection, scale * TAU_ZERO, rng)
    return a, qstar, card


class TestCardinalityAgainstSubsetRoute:
    """Every subset read off one factorization of the support against one
    kernel call per subset (``tests/cardinality_oracle.py``)."""

    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(cardinality_cases(), st.sampled_from(["omp", "ols"]))
    def test_report_agrees(self, case, algorithm):
        a, qstar, card = case
        try:
            js, per_atom, agg, worst_subset, tops, den = cardinality_oracle.cardinality(
                a, qstar, card, algorithm)
        except RankDeficientError:
            with pytest.raises(RankDeficientError):
                cert.erc_oxx_cardinality(a, qstar, card, algorithm)
            return
        report = cert.erc_oxx_cardinality(a, qstar, card, algorithm)
        # both routes carry the rounding of a coefficient table, of order
        # eps kappa(A_Qstar) per unit of factor; an OLS factor is divided
        # by |P_S a_j|, which turns that rounding into order
        # eps kappa / |P_S a_j| near span(A_S)
        kappa = np.linalg.cond(a[:, list(qstar)])
        tol = 1e-12 * np.maximum(1.0, per_atom) + 4 * len(qstar) * EPS * kappa * per_atom
        if algorithm == "ols":
            tol += np.where(den > 0.0, 16 * EPS * kappa / np.where(den > 0.0, den, 1.0), 0.0)
        assert [j for j, _ in report.per_atom] == js
        assert np.all(np.abs(np.array([v for _, v in report.per_atom]) - per_atom) <= tol)
        slack = float(tol.max())
        assert abs(report.aggregate - agg) <= slack
        if abs(agg - 1.0) > slack:
            assert report.verdict == (agg < 1.0)
        # the first subset within TAU_STRICT of the aggregate, up to the
        # rounding that separates the two routes' values
        chosen = tuple(report.details["worst_subset"])
        subsets = list(tops)  # in combinations order
        assert tops[chosen] >= agg - TAU_STRICT - 2 * slack
        earlier = subsets[: subsets.index(chosen)]
        assert all(tops[s] < agg - TAU_STRICT + 2 * slack for s in earlier)

    @pytest.mark.parametrize("algorithm", ["omp", "ols"])
    def test_dependent_support_raises(self, algorithm):
        a = gaussian(10, 20, 0).matrix.copy()
        a[:, 5] = a[:, 2]
        for card in (0, 1, 2):
            for call in (cardinality_oracle.cardinality, cert.erc_oxx_cardinality):
                with pytest.raises(RankDeficientError):
                    call(a, (2, 5, 7), card, algorithm)

    @pytest.mark.parametrize("atom", [7, 12])
    def test_non_unit_atom_raises(self, atom):
        # a support atom and a wrong atom
        a = gaussian(10, 20, 0).matrix.copy()
        a[:, atom] *= 1.1
        for call in (cardinality_oracle.cardinality, cert.erc_oxx_cardinality):
            with pytest.raises(NotNormalizedError):
                call(a, (2, 5, 7), 1, "ols")

    @pytest.mark.parametrize("algorithm", ["omp", "ols"])
    def test_peak_below_two_matrices(self, algorithm):
        # 1820 subsets of 16 atoms; the batched subset arrays stay in
        # chunks well below the dictionary's size
        m, n = 200, 600
        d = hybrid(m, n, 10.0, 7)
        qstar = tuple(range(3, 83, 5))
        tracemalloc.start()
        try:
            cert.erc_oxx_cardinality(d, qstar, 4, algorithm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * m * n * 8


class TestBrcOmp:
    def test_two_pair_closed_forms(self):
        low = cert.brc_omp(example1(np.pi / 6, np.pi / 4), (0, 1))
        assert low.aggregate == pytest.approx(0.7071067811865475, abs=1e-9)
        assert not low.verdict
        high = cert.brc_omp(example1(np.pi / 12, np.pi / 4), (0, 1))
        assert high.aggregate == pytest.approx(1.3660254037844386, abs=1e-9)
        assert high.verdict

    def test_fast_and_checked_agree(self):
        rng = np.random.default_rng(30)
        a, qstar, _, _ = rand_instance(rng)
        checked = cert.brc_omp(a, qstar)
        fast = cert.brc_omp(a, qstar, fast=True)
        assert checked.aggregate == fast.aggregate
        assert checked.per_atom == fast.per_atom

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("spacing", [1, 2, 3, 4, 5])
    def test_convolutive_supports_pass_the_check(self, spacing, size):
        # coherent pulses up to sigma = 8 (condition numbers up to about
        # 340): the QR and SVD routes stay within TAU_FORM
        for sigma in np.linspace(0.5, 8.0, 16):
            d = convolutive(60, float(sigma))
            qstar = tuple(20 + spacing * i for i in range(size))
            assert cert.brc_omp(d, qstar) == cert.brc_omp(d, qstar, fast=True)

    def test_report_structure(self):
        report = cert.brc_omp(example1(0.4, 0.8), (0, 1))
        assert report.kind == "brc-omp"
        assert len(report.per_atom) == 2
        assert report.details["easiest_last_atom"] in (0, 1)

    def test_rows_match_normal_equations(self):
        # row i of C = pinv(A_Qstar) A_off, solved independently, gives
        # the worst wrong factor when atom i is left last
        rng = np.random.default_rng(34)
        for _ in range(20):
            a, qstar, _, _ = rand_instance(rng)
            off = [j for j in range(a.shape[1]) if j not in qstar]
            support = a[:, list(qstar)]
            c = np.linalg.solve(support.T @ support, support.T @ a[:, off])
            report = cert.brc_omp(a, qstar, fast=True)
            assert np.allclose([f for _, f in report.per_atom], np.abs(c).max(axis=1),
                               atol=1e-9)

    def test_every_wrong_atom_solved_at_once(self):
        # one solve covers all n - k wrong atoms: each wrong column of C
        # is checked against its own single-column normal equations
        a = gaussian(12, 19, 8).matrix
        qstar = (0, 3, 7, 11)
        off = [j for j in range(19) if j not in qstar]
        support = a[:, list(qstar)]
        columns = [np.linalg.solve(support.T @ support, support.T @ a[:, j]) for j in off]
        report = cert.brc_omp(a, qstar, fast=True)
        assert len(report.per_atom) == 4
        assert np.allclose([f for _, f in report.per_atom],
                           np.abs(np.column_stack(columns)).max(axis=1), atol=1e-9)

    def test_square_support_exact(self):
        # k = m: every wrong atom lies in span(A_Qstar) and C solves
        # A_Qstar C = A_off exactly
        a = gaussian(4, 6, 2).matrix
        qstar = (0, 1, 2, 3)
        c = np.linalg.solve(a[:, list(qstar)], a[:, [4, 5]])
        assert np.allclose(a[:, list(qstar)] @ c, a[:, [4, 5]], atol=1e-12)
        report = cert.brc_omp(a, qstar, fast=True)
        assert np.allclose([f for _, f in report.per_atom], np.abs(c).max(axis=1),
                           atol=1e-9)

    def test_dependent_support_raises(self):
        v = np.sqrt(0.5)
        a = np.array([[1.0, 0.0, v, 0.0], [0.0, 1.0, v, 0.0], [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(RankDeficientError):
            cert.brc_omp(a, (0, 1, 2))

    def test_support_larger_than_dimension_raises(self):
        with pytest.raises(RankDeficientError):
            cert.brc_omp(gaussian(3, 6, 0), (0, 1, 2, 3))

    @pytest.mark.parametrize("atom", [1, 5])
    def test_non_unit_atom_rejected(self, atom):
        # a scaled support or wrong atom is refused, as by the other
        # certificates, instead of deciding on the scaled matrix
        a = np.array(gaussian(6, 10, 0).matrix)
        a[:, atom] *= 3.0
        with pytest.raises(NotNormalizedError, match=f"atom {atom} "):
            cert.brc_omp(a, (0, 1))

    @pytest.mark.parametrize("sigma", [1.0, 1.5, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("spacing", [1, 2, 3])
    def test_tied_rows_name_the_lower_atom(self, sigma, spacing):
        # the Gram matrix of the pulses is Toeplitz, so on an interior
        # pair the two rows are mirror images and tie in exact arithmetic
        d = convolutive(200, sigma)
        for first in (40, 68, 99, 147):
            pair = (first, first + spacing)
            for qstar in (pair, pair[::-1]):
                report = cert.brc_omp(d, qstar)
                assert report.details["easiest_last_atom"] == first


@st.composite
def brc_stacks(draw):
    """Gaussian or hybrid dictionaries of one shape, stacked, and a
    support."""
    m = draw(st.integers(3, 30))
    n = draw(st.integers(m + 1, 3 * m))
    t_max = draw(st.sampled_from([0.0, 1.0, 10.0, 100.0]))
    seeds = draw(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=6))
    if t_max:
        stack = np.stack([hybrid(m, n, t_max, seed).matrix for seed in seeds])
    else:
        stack = np.stack([gaussian(m, n, seed).matrix for seed in seeds])
    k = draw(st.integers(1, min(m, 5)))
    return stack, tuple(draw(st.permutations(range(n)))[:k])


class TestBrcTable:
    """The factor kernel on a stack, read by the BRC rule, against one
    ``brc_omp`` call per trial and an independent least-squares solve."""

    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    @given(brc_stacks())
    def test_matches_one_call_per_trial(self, case):
        stack, qstar = case
        off = [j for j in range(stack.shape[2]) if j not in qstar]
        table = factor_chain(stack, qstar, off)[0]
        assert table.shape == (len(stack), len(qstar), len(off))
        rows, _, verdicts = cert._brc_rule(table)
        for t, a in enumerate(stack):
            report = cert.brc_omp(a, qstar, fast=True)
            alone = np.array([v for _, v in report.per_atom])
            assert np.all(np.abs(rows[t] - alone) <= 1e-14 * np.maximum(1.0, alone))
            if abs(report.aggregate - 1.0) > 1e-9:
                assert verdicts[t] == report.verdict
            want = lstsq(a[:, list(qstar)], a[:, off])
            assert np.allclose(table[t], want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("fault, error, message", [
        ("dependent", RankDeficientError, "atom 1 of trial 2 "),
        ("scaled", NotNormalizedError, "atom 7 of trial 2 "),
    ])
    def test_one_faulty_trial_raises_as_alone(self, fault, error, message):
        stack = np.stack([gaussian(6, 10, seed).matrix for seed in range(4)])
        a = np.array(stack[2])
        if fault == "dependent":
            a[:, 1] = a[:, 0]
        else:
            a[:, 7] *= 3.0
        with pytest.raises(error):
            cert.brc_omp(a, (0, 1), fast=True)
        stack[2] = a
        with pytest.raises(error, match=message):
            factor_chain(stack, (0, 1), range(2, 10))

    def test_non_finite_trial_raises(self):
        stack = np.stack([gaussian(6, 10, seed).matrix for seed in range(3)])
        stack[1, 4, 3] = np.nan
        with pytest.raises(ValueError):
            cert.brc_omp(stack[1], (0, 1), fast=True)
        with pytest.raises(ValueError, match="atom 3 of trial 1 "):
            factor_chain(stack, (0, 1), range(2, 10))


class TestMonotonicity:
    def test_omp_factor_never_increases(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a, qstar, _, j = rand_instance(rng)
            order = list(qstar)[: len(qstar) - 1]
            prev = cert.f_omp(a, qstar, (), j)
            for p in range(1, len(order) + 1):
                cur = cert.f_omp(a, qstar, tuple(order[:p]), j)
                assert cur <= prev + 1e-10
                prev = cur

    def test_ols_factor_never_increases_below_one(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            a, qstar, _, j = rand_instance(rng)
            order = list(qstar)[: len(qstar) - 1]
            prev = cert.f_ols(a, qstar, (), j)
            for p in range(1, len(order) + 1):
                cur = cert.f_ols(a, qstar, tuple(order[:p]), j)
                if prev < 1.0:
                    assert cur <= prev + 1e-10
                prev = cur


@st.composite
def chain_cases(draw):
    """A gaussian or hybrid dictionary, a support, a wrong atom and an
    activation order over a strict subset of the support."""
    m = draw(st.integers(6, 30))
    n = draw(st.integers(m + 1, 2 * m))
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        d = gaussian(m, n, seed)
    else:
        d = hybrid(m, n, draw(st.floats(0.0, 1000.0)), seed)
    k = draw(st.integers(1, min(7, m - 1)))
    perm = draw(st.permutations(range(n)))
    qstar = tuple(perm[:k])
    order = tuple(draw(st.permutations(qstar)))[: draw(st.integers(0, k - 1))]
    return d.matrix, qstar, perm[k], order


class TestRecursion:
    @settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])
    @given(chain_cases(), st.sampled_from(["omp", "ols"]))
    def test_matches_projected_route_at_every_depth(self, case, algorithm):
        a, qstar, j, order = case
        values = cert.recursion_chain(a, qstar, j, order, algorithm)
        assert len(values) == len(order) + 1
        for p, got in enumerate(values):
            want = projected_oracle.projected_factors(a, qstar, order[:p], [j], algorithm)[0]
            assert abs(got - want) / max(1.0, abs(want)) <= 1e-9, f"depth {p}"

    def test_two_pair_omp_chain(self):
        d = example1(np.pi / 6, np.pi / 4)
        values = cert.recursion_chain(d, (0, 1), 2, (0,), "omp")
        assert values[0] == pytest.approx(np.cos(np.pi / 4) / np.sin(np.pi / 6), abs=1e-12)
        assert values[1] == pytest.approx(values[0] / 2.0, abs=1e-12)

    @pytest.mark.parametrize("algorithm", ["omp", "ols"])
    def test_random_chains_validate(self, algorithm):
        # recursion_chain raises FormMismatchError if recursion and
        # direct evaluation drift apart beyond 1e-8
        rng = np.random.default_rng(33)
        for _ in range(25):
            a, qstar, _, j = rand_instance(rng)
            order = list(qstar)[: len(qstar) - 1]
            values = cert.recursion_chain(a, qstar, j, tuple(order), algorithm)
            assert len(values) == len(order) + 1

    @pytest.mark.parametrize("algorithm, step", [("omp", "_f_omp_update"),
                                                 ("ols", "_f_ols_recursive")])
    def test_drifting_recursion_is_caught(self, monkeypatch, algorithm, step):
        # a recursion step off by 1e-6, a hundred times TAU_RECURSION, must
        # not pass the comparison with the direct values
        exact = getattr(cert, step)
        monkeypatch.setattr(cert, step, lambda *args: exact(*args) + 1e-6)
        with pytest.raises(FormMismatchError, match="recursion and direct factors differ"):
            cert.recursion_chain(gaussian(20, 30, 5), (0, 1, 2), 7, (0, 1), algorithm)

    def test_omp_update_is_coefficient_drop(self):
        assert cert._f_omp_update(2.5, -0.75) == pytest.approx(1.75)

    def test_probe_swallowed_by_a_deeper_span(self):
        # the probe lies in span(a_0, a_1) but not in span(a_0): from depth
        # 2 on it scores 0, and the OLS value at depth 1 is the direct one
        a = gaussian(20, 30, 5).matrix
        probe = a[:, 0] + 0.8 * a[:, 1]
        a = np.column_stack([a, probe / np.linalg.norm(probe)])
        qstar, order = (0, 1, 2), (0, 1)
        values = cert.recursion_chain(a, qstar, 30, order, "ols")
        assert values[-1] == 0.0 and values[1] > 0.0
        for p, got in enumerate(values):
            want = projected_oracle.projected_factors(a, qstar, order[:p], [30], "ols")[0]
            assert abs(got - want) <= 1e-9, f"depth {p}"


class TestUnknownAlgorithm:
    d = gaussian(20, 30, 5)

    @pytest.mark.parametrize("call", [
        lambda d, alg: cert.erc_oxx_subset(d, (0, 1, 2), (0,), alg),
        lambda d, alg: cert.erc_oxx_cardinality(d, (0, 1, 2), 1, alg),
        lambda d, alg: cert.recursion_chain(d, (0, 1, 2), 7, (0,), alg),
        lambda d, alg: build_failure_input(d, (0, 1, 2), (0,), alg),
    ], ids=["erc_oxx_subset", "erc_oxx_cardinality", "recursion_chain",
            "build_failure_input"])
    def test_rejected(self, call):
        with pytest.raises(ValueError, match="unknown algorithm 'mp'"):
            call(self.d, "mp")


def on_support(a, qstar, seed):
    """An input on the support with random signs and amplitudes in
    [0.5, 1.5]."""
    rng = np.random.default_rng(seed)
    k = len(qstar)
    return a[:, list(qstar)] @ (rng.choice([-1.0, 1.0], k) * rng.uniform(0.5, 1.5, k))


def decided(report):
    """Aggregates within 1e-6 of the decision line are left out: there
    rounding, not the certificate, decides the greedy run."""
    return abs(report.aggregate - 1.0) > 1e-6


@st.composite
def coherent_cases(draw):
    """Few rows and many nearly collinear atoms (hybrid), where most
    supports are unreachable for OMP."""
    m = draw(st.integers(3, 7))
    n = draw(st.integers(6 * m, 10 * m))
    d = hybrid(m, n, draw(st.floats(5.0, 50.0)), draw(st.integers(0, 2**31 - 1)))
    perm = draw(st.permutations(range(n)))
    return d.matrix, tuple(perm[: draw(st.integers(2, 3))])


@st.composite
def incoherent_cases(draw):
    """Gaussian dictionaries with supports small against the row count,
    where most supports are certified."""
    m = draw(st.integers(12, 40))
    n = draw(st.integers(m + 1, 2 * m))
    d = gaussian(m, n, draw(st.integers(0, 2**31 - 1)))
    perm = draw(st.permutations(range(n)))
    return d.matrix, tuple(perm[: draw(st.integers(1, 4))])


class TestImplications:
    """Each certificate's claim against greedy runs and against the
    other certificates, on adversarially drawn cases."""

    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    @given(coherent_cases(), st.integers(0, 2**31 - 1))
    def test_brc_omp_means_omp_fails(self, case, seed):
        a, qstar = case
        report = cert.brc_omp(a, qstar)
        if report.verdict and decided(report):
            trace = run_greedy("omp", a, on_support(a, qstar, seed), len(qstar), oracle=qstar)
            assert trace.status != "success"
            assert set(trace.selections()) != set(qstar)

    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    @given(incoherent_cases(), st.integers(0, 2**31 - 1))
    def test_certified_at_card_zero_means_both_recover(self, case, seed):
        a, qstar = case
        report = cert.erc_oxx_cardinality(a, qstar, 0, "omp")
        if report.verdict and decided(report):
            y = on_support(a, qstar, seed)
            for algorithm in ("omp", "ols"):
                trace = run_greedy(algorithm, a, y, len(qstar), oracle=qstar)
                assert trace.status == "success", algorithm
                assert sorted(trace.selections()) == sorted(qstar)

    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(coherent_cases(), incoherent_cases()))
    def test_ols_certified_at_last_step(self, case):
        # with one true atom left its projection correlates with the
        # residual at least as well as any wrong atom's normalized one
        a, qstar = case
        report = cert.erc_oxx_cardinality(a, qstar, len(qstar) - 1, "ols")
        assert report.aggregate <= 1.0 + 1e-9
        if decided(report):
            assert report.verdict

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(chain_cases())
    def test_omp_factor_never_grows_along_a_chain(self, case):
        a, qstar, j, order = case
        values = [cert.f_omp(a, qstar, order[:p], j) for p in range(len(order) + 1)]
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev + 1e-9 * max(1.0, prev)
