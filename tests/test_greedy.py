"""Selection rules against brute-force oracles; run loop; constructions."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import orth

from greedycert import greedy
from greedycert.certificates import erc_oxx_subset
from greedycert.dictionaries import example1, gaussian, hybrid
from greedycert.exceptions import ConstructionFailedError, DegenerateAtomError
from greedycert.linalg import extend_state, factor_chain, init_state, residual, state_for
from greedycert.tolerances import TAU_SUCCESS_REL, TAU_ZERO


def explicit_projector(a_q):
    m = a_q.shape[0]
    return np.eye(m) - a_q @ np.linalg.pinv(a_q)


class TestSelectOmp:
    def test_matches_projector_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            m, n = int(rng.integers(6, 15)), int(rng.integers(8, 25))
            a = gaussian(m, n, int(rng.integers(2**31))).matrix
            active = [int(i) for i in rng.permutation(n)[: int(rng.integers(0, min(m - 1, 5)))]]
            state = state_for(a, active)
            r = residual(state, rng.standard_normal(m))
            sel = greedy.select_omp(state, r)
            p = explicit_projector(a[:, active]) if active else np.eye(m)
            scores = np.abs((p @ a).T @ r)
            scores[active] = -np.inf
            if not sel.tie:
                assert sel.selected == int(np.argmax(scores))

    def test_two_pair_cone_never_picks_second_atom(self):
        # with the first atom active and theta1 small, every direction
        # in its orthogonal plane correlates better with a wrong atom
        d = example1(np.pi / 12, np.pi / 4)
        state = state_for(d, [0])
        t1 = np.pi / 12
        u1 = np.array([np.sin(t1), np.cos(t1), 0.0])  # spans the plane with e3
        u2 = np.array([0.0, 0.0, 1.0])
        rng = np.random.default_rng(42)
        for phi in rng.uniform(0.0, 2 * np.pi, 300):
            r = np.cos(phi) * u1 + np.sin(phi) * u2
            sel = greedy.select_omp(state, r)
            assert sel.selected in (2, 3)

    @pytest.mark.parametrize("alg", ["omp", "ols"])
    def test_zero_residual_selects_nothing(self, alg):
        # a zero residual is orthogonal to every atom; a tiny one still
        # selects, since the stopping rule is relative to |r|
        state = state_for(gaussian(5, 8, 0), [])
        select = greedy._SELECT[alg]
        assert select(state, np.zeros(5)) is None
        r = 1e-13 * state.atoms[:, 3]
        rec = select(state, r)
        assert rec.selected == 3 and not rec.tie
        assert rec.residual_norm == np.linalg.norm(r)


class TestSelectOls:
    def test_matches_residual_minimization_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            m, n = int(rng.integers(6, 15)), int(rng.integers(8, 25))
            a = gaussian(m, n, int(rng.integers(2**31))).matrix
            active = [int(i) for i in rng.permutation(n)[: int(rng.integers(0, min(m - 2, 4)))]]
            state = state_for(a, active)
            y = rng.standard_normal(m)
            r = residual(state, y)
            sel = greedy.select_ols(state, r)
            norms = []
            for i in range(n):
                if i in active:
                    norms.append(np.inf)
                    continue
                cols = active + [i]
                c, *_ = np.linalg.lstsq(a[:, cols], y, rcond=None)
                norms.append(np.linalg.norm(y - a[:, cols] @ c))
            if not sel.tie:
                assert sel.selected == int(np.argmin(norms))

    def test_always_finishes_with_last_true_atom(self):
        # one missing atom: the OLS step picks it, whatever the input
        # coefficients (full-rank support)
        rng = np.random.default_rng(44)
        for _ in range(20):
            a = gaussian(12, 20, int(rng.integers(2**31))).matrix
            qstar = [int(i) for i in rng.permutation(20)[:5]]
            t = rng.uniform(0.5, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
            y = a[:, qstar] @ t
            state = state_for(a, qstar[:-1])
            sel = greedy.select_ols(state, residual(state, y))
            assert sel.selected == qstar[-1]


class TestRunGreedy:
    def test_unknown_algorithm_named(self):
        with pytest.raises(ValueError, match="'mp'"):
            greedy.run_greedy("mp", np.eye(3), np.ones(3), 1)

    def test_negative_iteration_count_rejected(self):
        with pytest.raises(ValueError, match="max_iters"):
            greedy.run_greedy("omp", np.eye(3), np.ones(3), -2)

    @pytest.mark.parametrize("max_iters", [2.5, 2.0, True, "2", None])
    def test_non_integer_iteration_count_rejected(self, max_iters):
        # 2.5 would reach range(), True would run one step
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            greedy.run_greedy("omp", gaussian(4, 8, 1), np.ones(4), max_iters)

    @pytest.mark.parametrize("oracle,message", [
        ([0, 99], "outside"), ([-1], "outside"), ([2, 2], "duplicate"),
        ([0.0, 1.0], "must be an integer"), ([False], "must be an integer"),
    ], ids=["beyond-n", "negative", "repeated", "floats", "bool"])
    def test_oracle_validated(self, oracle, message):
        # an oracle atom outside 0..n-1 used to end the run as wrong_atom
        with pytest.raises(ValueError, match=message):
            greedy.run_greedy("omp", gaussian(4, 8, 1), np.ones(4), 2, oracle=oracle)

    def test_numpy_integers_accepted(self):
        d, y = gaussian(4, 8, 1), gaussian(4, 8, 1).matrix[:, [2, 5]] @ (1.0, -0.7)
        want = greedy.run_greedy("omp", d, y, 2, oracle=(2, 5))
        got = greedy.run_greedy("omp", d, y, np.int64(2), oracle=np.array([2, 5]))
        assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("alg", ["omp", "ols"])
    @pytest.mark.parametrize(
        "y",
        [
            np.where(np.arange(6) == 2, np.inf, 1.0),
            np.where(np.arange(6) == 2, np.nan, 1.0),
            np.ones(5),
            np.ones(7),
            np.ones((6, 1)),
        ],
        ids=["inf", "nan", "short", "long", "column"],
    )
    def test_bad_input_vector_rejected(self, y, alg):
        # an inf entry used to read as success, a nan one as exhausted
        with pytest.raises(ValueError, match="finite vector of length 6"):
            greedy.run_greedy(alg, gaussian(6, 10, 0), y, 3)

    @pytest.mark.parametrize("alg", ["omp", "ols"])
    def test_complex_input_vector_rejected(self, alg):
        # its real part alone used to run: 1j * a_0 read as the zero
        # input, a success with nothing selected
        d = gaussian(6, 10, 1)
        with pytest.raises(ValueError, match="y must be real"):
            greedy.run_greedy(alg, d, 1j * d.matrix[:, 0], 2)

    def test_orthonormal_success(self):
        a = np.eye(6)
        y = a[:, [1, 3]] @ np.array([2.0, -1.0])
        for alg in ("omp", "ols"):
            trace = greedy.run_greedy(alg, a, y, 2, oracle=(1, 3))
            assert trace.status == "success"
            assert sorted(trace.selections()) == [1, 3]

    def test_certified_instances_recover(self):
        # l1 exactness certificate true => both algorithms succeed in
        # k steps, for any sign/amplitude pattern
        rng = np.random.default_rng(45)
        done = 0
        seed = 0
        while done < 20:
            seed += 1
            d = gaussian(50, 100, seed)
            qstar = tuple(range(5))
            report = erc_oxx_subset(d, qstar, (), "omp")
            if not report.verdict or report.margin <= 1e-6:
                continue
            t = rng.uniform(-1.0, 1.0, 5)
            t[t == 0.0] = 0.5
            y = d.matrix[:, qstar] @ t
            for alg in ("omp", "ols"):
                trace = greedy.run_greedy(alg, d, y, 5, oracle=qstar)
                assert trace.status == "success"
                assert trace.final_residual <= TAU_SUCCESS_REL * np.linalg.norm(y)
            done += 1

    def test_two_pair_failure_within_two_iterations(self):
        d = example1(np.pi / 12, np.pi / 4)
        y = d.matrix[:, [0, 1]] @ np.ones(2)
        trace = greedy.run_greedy("omp", d, y, 2, oracle=(0, 1))
        # equal pull toward both true atoms: benign tie, lowest index wins
        assert trace.records[0].tie
        assert trace.records[0].tied == (0, 1)
        assert trace.records[0].selected == 0
        assert trace.status == "wrong_atom"
        assert trace.failure_iteration == 1
        assert trace.wrong_index in (2, 3)

    def test_true_wrong_tie_is_failure(self):
        a = np.column_stack([np.eye(2), [-1.0, 0.0]])
        trace = greedy.run_greedy("omp", a, np.array([1.0, 0.0]), 2, oracle=(0, 1))
        assert trace.status == "tie_failure"
        assert trace.failure_iteration == 0
        assert trace.wrong_index == 2

    def test_exhausted_when_budget_too_small(self):
        rng = np.random.default_rng(46)
        a = gaussian(10, 20, 3)
        y = rng.standard_normal(10)
        trace = greedy.run_greedy("ols", a, y, 2)
        assert trace.status == "exhausted"
        assert trace.final_residual > 0

    @pytest.mark.parametrize("alg", ["omp", "ols"])
    def test_exhausted_when_residual_orthogonal_to_every_atom(self, alg):
        # y has a component outside the span of the two atoms: once that
        # component is all that is left, no atom scores and the run stops
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        trace = greedy.run_greedy(alg, a, np.array([0.0, 0.0, 1.0]), 3)
        assert trace.status == "exhausted"
        assert trace.records == ()
        assert trace.failure_iteration is None
        assert trace.final_residual == pytest.approx(1.0)
        trace = greedy.run_greedy(alg, a, np.array([1.0, 0.5, 1.0]), 3, oracle=(0, 1))
        assert trace.status == "exhausted"
        assert trace.selections() == [0, 1]
        assert not any(rec.tie for rec in trace.records)
        assert trace.final_residual == pytest.approx(1.0)

    def test_record_is_the_selection_step(self):
        # run_greedy stores the record a selection step returns, as it is
        d = gaussian(8, 12, 2)
        y = d.matrix[:, [1, 2]] @ np.array([1.0, 0.5])
        trace = greedy.run_greedy("omp", d, y, 1)
        state = init_state(d)
        rec = greedy.select_omp(state, residual(state, y))
        got = trace.records[0]
        assert (got.selected, got.tie, got.tied, got.residual_norm) == (
            rec.selected, rec.tie, rec.tied, rec.residual_norm)
        assert np.array_equal(got.scores, rec.scores, equal_nan=True)
        assert not got.scores.flags.writeable

    @pytest.mark.parametrize("alg", ["omp", "ols"])
    def test_scale_free(self, alg):
        # selections depend on the direction of y only: power-of-two
        # scales are exact, so every step, tie and status is the same
        cases = [(gaussian(40, 90, seed), seed) for seed in range(3)]
        cases += [(hybrid(40, 90, 10.0, seed), seed) for seed in range(3)]
        for d, seed in cases:
            rng = np.random.default_rng(seed)
            support = [int(i) for i in rng.permutation(90)[:6]]
            y = d.matrix[:, support] @ rng.uniform(0.5, 1.5, 6)
            want = greedy.run_greedy(alg, d, y, 6, oracle=support)
            for scale in (2.0**-60, 2.0**-40, 2.0**30):
                got = greedy.run_greedy(alg, d, scale * y, 6, oracle=support)
                assert got.selections() == want.selections()
                assert [(r.tie, r.tied) for r in got.records] == [
                    (r.tie, r.tied) for r in want.records]
                assert (got.status, got.failure_iteration, got.wrong_index) == (
                    want.status, want.failure_iteration, want.wrong_index)

    def test_rank_abort_when_extension_degenerates(self, monkeypatch):
        # a selected atom inside the active span stops the run after its
        # record; no selection rule picks one on its own, so the second
        # extension is made to refuse
        def second_refused(state, index):
            if state.active:
                raise DegenerateAtomError("inside the active span")
            return extend_state(state, index)

        monkeypatch.setattr(greedy, "extend_state", second_refused)
        d = gaussian(20, 40, 1)
        y = d.matrix[:, [3, 7, 11]] @ np.array([1.0, -0.8, 0.6])
        trace = greedy.run_greedy("ols", d, y, 3, oracle=(3, 7, 11))
        assert trace.status == "rank_abort"
        assert trace.failure_iteration == 1
        assert trace.wrong_index is None
        assert len(trace.records) == 2

    def test_zero_input_is_immediate_success(self):
        trace = greedy.run_greedy("omp", gaussian(5, 8, 0), np.zeros(5), 3)
        assert trace.status == "success"
        assert trace.records == ()

    def test_trace_json_layout(self):
        d = gaussian(8, 12, 2)
        y = d.matrix[:, [1, 2]] @ np.array([1.0, 0.5])
        blob = greedy.run_greedy("ols", d, y, 2, oracle=(1, 2)).to_json()
        assert blob["algorithm"] == "ols"
        assert blob["status"] == "success"
        assert len(blob["iterations"]) == 2
        first = blob["iterations"][0]
        assert set(first) == {"selected", "tie", "tied", "residual_norm", "scores"}
        assert len(first["scores"]) == 12


def reference_greedy(alg, a, y, max_iters):
    """OMP/OLS through an explicit projector, rebuilt at every step:
    (selections, status)."""
    def projector(cols):
        u = orth(a[:, cols]) if cols else np.zeros((a.shape[0], 0))
        return np.eye(a.shape[0]) - u @ u.T

    selected = []
    ynorm = np.linalg.norm(y)
    for _ in range(max_iters):
        p = projector(selected)
        r = p @ y
        if np.linalg.norm(r) <= TAU_SUCCESS_REL * ynorm:
            return selected, "success"
        pa = p @ a
        scores = np.abs(pa.T @ r)
        if alg == "ols":
            norms = np.linalg.norm(pa, axis=0)
            scores = np.where(norms > TAU_ZERO, scores / np.maximum(norms, TAU_ZERO), 0.0)
        scores[selected] = -np.inf
        if scores.max() <= TAU_ZERO * np.linalg.norm(r):
            return selected, "exhausted"
        selected.append(int(np.argmax(scores)))
    final = np.linalg.norm(projector(selected) @ y)
    return selected, "success" if final <= TAU_SUCCESS_REL * ynorm else "exhausted"


@st.composite
def greedy_cases(draw):
    """A dictionary (possibly with fewer atoms than rows), an input that
    is sparse on it or a generic vector, and an iteration budget."""
    m = draw(st.integers(4, 24))
    n = draw(st.integers(2, 2 * m))
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        d = gaussian(m, n, seed)
    else:
        d = hybrid(m, n, draw(st.floats(0.0, 100.0)), seed)
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        k = draw(st.integers(1, max(1, min(n, m) // 2)))
        support = rng.permutation(n)[:k]
        y = d.matrix[:, support] @ (rng.uniform(0.5, 1.5, k) * rng.choice([-1.0, 1.0], k))
    else:
        y = rng.standard_normal(m)
    return d.matrix, y, draw(st.integers(1, n + 1))


class TestAgainstReferenceGreedy:
    """Selections scored through A.T r and the downdated norms against a
    greedy that forms the projected dictionary at every step."""

    @settings(max_examples=120)
    @given(greedy_cases(), st.sampled_from(["omp", "ols"]))
    def test_selections_and_status_match(self, case, alg):
        a, y, budget = case
        trace = greedy.run_greedy(alg, a, y, budget)
        want, status = reference_greedy(alg, a, y, budget)
        for p, (got, ref) in enumerate(zip(trace.selections(), want)):
            if trace.records[p].tie:
                return
            assert got == ref, f"step {p}"
        assert trace.selections() == want
        assert trace.status == status


class TestReachingInput:
    def test_ols_reaches_random_targets(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            a = gaussian(15, 30, int(rng.integers(2**31))).matrix
            order = [int(i) for i in rng.permutation(30)[:4]]
            y = greedy.construct_reaching_input(a, order, "ols")
            trace = greedy.run_greedy("ols", a, y, 4)
            assert trace.selections() == order
            assert not any(rec.tie for rec in trace.records)

    def test_orthonormal_any_order(self):
        y = greedy.construct_reaching_input(np.eye(5), [3, 0, 4], "ols")
        assert greedy.run_greedy("ols", np.eye(5), y, 3).selections() == [3, 0, 4]

    def test_duplicate_atom_fails(self):
        a = np.column_stack([np.eye(3)[:, 0], np.eye(3)[:, 0], np.eye(3)[:, 1]])
        with pytest.raises(ConstructionFailedError):
            greedy.construct_reaching_input(a, [0, 2], "ols")

    @pytest.mark.parametrize("order", [[0, 5], [0, -1]])
    def test_index_range(self, order):
        with pytest.raises(ValueError, match="outside"):
            greedy.construct_reaching_input(np.eye(5), order, "ols")

    @pytest.mark.parametrize("order", [[], [2, 2]], ids=["empty", "repeated"])
    def test_order_distinct_and_non_empty(self, order):
        with pytest.raises(ValueError, match="non-empty sequence of distinct"):
            greedy.construct_reaching_input(np.eye(5), order, "ols")


@pytest.mark.parametrize("construct", [
    lambda a: greedy.construct_reaching_input(a, [5, 0, 9], "ols"),
    lambda a: greedy.build_failure_input(a, range(12), (0, 1, 2), "ols"),
], ids=["reaching", "failure"])
def test_constructions_freeze_the_dictionary_once(construct, monkeypatch):
    # a writable caller array is checked, copied and frozen once, in one
    # projection state; every verifying rerun starts from that state
    # instead of checking the matrix again
    d = gaussian(30, 60, 3)
    want = construct(d)
    checked, reruns = [], []
    real_run = greedy._run

    def recording(atoms):
        checked.append(atoms)
        return init_state(atoms)

    def rerun(algorithm, state, *args, **kwargs):
        reruns.append(state)
        return real_run(algorithm, state, *args, **kwargs)

    monkeypatch.setattr(greedy, "init_state", recording)
    monkeypatch.setattr(greedy, "_run", rerun)
    writable = np.array(d.matrix)
    got = construct(writable)
    assert len(checked) == 1 and checked[0] is writable
    assert len(reruns) >= 3
    assert all(state is reruns[0] for state in reruns)
    assert not reruns[0].active
    frozen = reruns[0].atoms
    assert not frozen.flags.writeable and frozen.flags.owndata
    assert np.array_equal(got, want)


class TestFailureInput:
    def test_gram_solve_is_backward_stable(self):
        # the failure direction w solves R22.T R22 w = v, with R22 the
        # remaining atoms' block of the triangular factor, on hybrid
        # supports of condition number up to about 1e4: its residual is
        # within 1e-12 of |R22|^2 |w| + |v|.  Relative to |v| alone it
        # grows with the condition number squared, on either route.
        # The two one-sweep solves keep the bits of two np.linalg.solve
        # calls, so failure inputs keep theirs; a transposed sweep of R22
        # in place of the reversed R22.T rounds differently.
        def numpy_formula(r, v):
            z = np.linalg.solve(r.T[::-1, ::-1], v[::-1])[::-1]
            return np.linalg.solve(r, z)

        rng = np.random.default_rng(0)
        worst_condition = 0.0
        for t_max in (0.0, 10.0, 100.0, 1000.0, 3000.0):
            for seed in range(4):
                r = factor_chain(hybrid(30, 60, t_max, seed), range(8), [])[3]
                for t in (0, 2, 5):
                    r22 = r[t:, t:]
                    worst_condition = max(worst_condition, np.linalg.cond(r22))
                    v = rng.choice([-1.0, 1.0], size=8 - t) * rng.uniform(0.1, 1.0, size=8 - t)
                    w = greedy._gram_solve(r22, v)
                    assert w.tobytes() == numpy_formula(r22, v).tobytes()
                    scale = np.linalg.norm(r22, 2) ** 2 * np.linalg.norm(w) + np.linalg.norm(v)
                    assert np.linalg.norm(r22.T @ (r22 @ w) - v) <= 1e-12 * scale
        assert 5e3 < worst_condition < 2e4

    def test_first_selection_failure_both_algorithms(self):
        # certificate false at the start: a one-step counterexample
        # exists and verifies for both algorithms
        d = gaussian(100, 11, 1)
        qstar = tuple(range(10))
        for alg in ("omp", "ols"):
            y = greedy.build_failure_input(d, qstar, (), alg)
            assert y is not None
            trace = greedy.run_greedy(alg, d, y, 1, oracle=qstar)
            assert trace.status in ("wrong_atom", "tie_failure")
            assert trace.failure_iteration == 0

    def test_none_when_certificate_holds(self):
        d = example1(np.pi / 3, np.pi / 4)
        assert greedy.build_failure_input(d, (0, 1), (), "omp") is None
        # OLS after the first atom stays safe in this geometry
        d = example1(np.pi / 12, np.pi / 4)
        assert greedy.build_failure_input(d, (0, 1), (0,), "ols") is None

    def test_none_when_no_wrong_atom(self):
        # a support of every atom leaves nothing to pick wrongly, and the
        # certificate holds with aggregate 0
        d = gaussian(8, 4, 0)
        for alg in ("omp", "ols"):
            assert erc_oxx_subset(d, range(4), (), alg).verdict
            assert greedy.build_failure_input(d, range(4), (), alg) is None

    @pytest.mark.parametrize("qstar,q", [((-1, 0), ()), ((0, 0, 1), ()), ((0, 20), ()),
                                         ((0, 1), (2,)), ((0, 1), (0, 1))])
    def test_support_and_selection_validated(self, qstar, q):
        # a negative index would alias the last atom, which would then
        # count as both a true and a wrong atom
        with pytest.raises(ValueError):
            greedy.build_failure_input(gaussian(10, 20, 0), qstar, q, "omp")

    @pytest.mark.parametrize("q", [(5, 5), (1, 1, 5)], ids=["5,5", "1,1,5"])
    def test_repeated_selection_rejected(self, q):
        with pytest.raises(ValueError, match="duplicate indices in the partial selection"):
            greedy.build_failure_input(gaussian(20, 40, 3), (1, 5, 9), q, "omp")

    @pytest.mark.parametrize("d,qstar,q,message", [
        (gaussian(100, 11, 1), tuple(range(10)), (), "did not verify"),
        (hybrid(20, 60, 5.0, 0), tuple(range(6)), (0,), "no step size yields"),
    ], ids=["first-step", "after-prefix"])
    def test_unverified_failure_input_raises(self, d, qstar, q, message, monkeypatch):
        # every verifying rerun (the ones given the support oracle) is
        # made to report success: the construction must give up, not
        # return an unverified input
        run = greedy._run

        def never_failing(algorithm, state, y, max_iters, oracle=None):
            trace = run(algorithm, state, y, max_iters, oracle)
            if oracle is None:
                return trace
            return dataclasses.replace(trace, status="success", failure_iteration=None)

        monkeypatch.setattr(greedy, "_run", never_failing)
        with pytest.raises(ConstructionFailedError, match=message):
            greedy.build_failure_input(d, qstar, q, "ols")

    def test_two_pair_second_step_omp(self):
        d = example1(np.pi / 12, np.pi / 4)
        y = greedy.build_failure_input(d, (0, 1), (0,), "omp")
        assert y is not None
        trace = greedy.run_greedy("omp", d, y, 2, oracle=(0, 1))
        assert trace.selections()[0] == 0
        assert trace.status in ("wrong_atom", "tie_failure")
        assert trace.failure_iteration == 1

    def test_ols_partial_failure(self):
        d = hybrid(20, 60, 5.0, 0)
        qstar = tuple(range(6))
        y = greedy.build_failure_input(d, qstar, (0,), "ols")
        assert y is not None
        trace = greedy.run_greedy("ols", d, y, 2, oracle=qstar)
        assert trace.selections()[0] == 0
        assert trace.status in ("wrong_atom", "tie_failure")
        assert trace.failure_iteration == 1

    @pytest.mark.parametrize("alg,d,qstar,q", [
        ("omp", gaussian(100, 11, 1), tuple(range(10)), ()),
        ("ols", gaussian(100, 11, 1), tuple(range(10)), ()),
        ("omp", example1(np.pi / 12, np.pi / 4), (0, 1), (0,)),
        ("ols", hybrid(20, 60, 5.0, 0), tuple(range(6)), (0,)),
        ("ols", hybrid(20, 60, 5.0, 0), tuple(range(6)), (3, 1)),
    ])
    def test_direction_solves_projected_system(self, alg, d, qstar, q):
        # the added direction against the projected system at q, formed
        # with an explicit projector: coefficients of the worst wrong
        # atom on the (normalized, for OLS) projected remaining atoms,
        # and w solving (lhs.T P A_R) w = sign of those coefficients
        a = d.matrix
        remaining = [i for i in qstar if i not in q]
        wrongs = [j for j in range(a.shape[1]) if j not in qstar]
        p = explicit_projector(a[:, list(q)]) if q else np.eye(a.shape[0])
        pt, pj = p @ a[:, remaining], p @ a[:, wrongs]
        lhs, rhs = pt, pj
        if alg == "ols":
            lhs = pt / np.linalg.norm(pt, axis=0)
            rhs = pj / np.linalg.norm(pj, axis=0)
        coef = np.linalg.pinv(lhs) @ rhs
        best = int(np.argmax(np.abs(coef).sum(axis=0)))
        w = np.linalg.solve(lhs.T @ pt, np.sign(coef[:, best]))
        want = a[:, remaining] @ w
        z = greedy.construct_reaching_input(a, q, alg) if q else np.zeros(a.shape[0])
        y = greedy.build_failure_input(a, qstar, q, alg)
        got = y - z
        # y = z + eps * direction for some step eps in (0, 1]
        eps = np.linalg.norm(got) / np.linalg.norm(want)
        assert 0.0 < eps <= 1.0 + 1e-12
        assert np.abs(got / eps - want).max() <= 1e-9 * np.abs(want).max()


@st.composite
def failure_cases(draw):
    """A gaussian or hybrid dictionary, a support and a partial
    selection inside it, in selection order."""
    m = draw(st.integers(6, 20))
    n = draw(st.integers(m + 1, 3 * m))
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        d = gaussian(m, n, seed)
    else:
        d = hybrid(m, n, draw(st.floats(0.0, 100.0)), seed)
    k = draw(st.integers(1, min(6, m - 1)))
    qstar = tuple(draw(st.permutations(range(n)))[:k])
    q = tuple(draw(st.permutations(qstar)))[: draw(st.integers(0, k - 1))]
    return d.matrix, qstar, q


class TestFailedCertificateImpliesFailureInput:
    """A failed exactness certificate at q yields an on-support input
    that a separate greedy run steers through q and then fails; a
    holding one yields none."""

    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    @given(failure_cases(), st.sampled_from(["omp", "ols"]))
    def test_none_exactly_when_certified(self, case, alg):
        a, qstar, q = case
        holds = erc_oxx_subset(a, qstar, q, alg).verdict
        try:
            y = greedy.build_failure_input(a, qstar, q, alg)
        except ConstructionFailedError:
            # OMP cannot always be steered through a prescribed
            # selection; only that documented case may give up
            assert alg == "omp" and q
            with pytest.raises(ConstructionFailedError):
                greedy.construct_reaching_input(a, q, alg)
            assume(False)
        assert (y is None) == holds
        if y is None:
            return
        coef = np.linalg.lstsq(a[:, list(qstar)], y, rcond=None)[0]
        assert np.linalg.norm(a[:, list(qstar)] @ coef - y) <= 1e-9 * np.linalg.norm(y)
        trace = greedy.run_greedy(alg, a, y, len(q) + 1, oracle=qstar)
        assert trace.selections()[: len(q)] == list(q)
        assert trace.status in ("wrong_atom", "tie_failure")
        assert trace.failure_iteration == len(q)

