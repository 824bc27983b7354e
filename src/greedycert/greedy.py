"""Greedy selection runs and constructive inputs.

Both algorithms pick the atom whose projected version correlates most
with the current residual; OMP uses the raw projected atoms, OLS their
normalized versions (equivalently, OLS minimizes the next residual
norm).  The residual ``r`` is already orthogonal to the active span, so
``(P A).T r = A.T r``: OMP scores ``|A.T r|`` and OLS divides the same
correlations by the projected norms ``|P a_j|`` that the
:class:`linalg.ProjectionState` keeps, and no projected matrix is
formed.  A selection step returns the :class:`IterationRecord` the run
stores, or None when ``r`` is orthogonal to every inactive atom (no
score above ``TAU_ZERO * |r|``, ``r = 0`` included), and the run stops
as ``exhausted``.  Every stopping rule is relative to ``|y|`` or
``|r|``, so a run does not depend on the scale of ``y``.  A selection
is "tied" when the runner-up score is within a relative ``TAU_TIE`` of
the leader; against a known support, a tie that mixes true and wrong
atoms counts as a failure (the adversarial tie convention), while ties
among true atoms are broken by lowest index and only flagged.

The constructive half builds inputs that provably steer a run: a vector
reaching a prescribed selection sequence (always possible for OLS, by
small-perturbation stacking), and a vector that reaches a partial
selection and then forces a wrong atom (possible exactly when the
corresponding exactness certificate fails).  The failure direction is
read off one call of the factor kernel :func:`linalg.factor_chain`, the
call the certificate itself makes.  Both inputs are verified by
re-running the algorithm before being returned; every rerun of one
construction starts from the one projection state it checked, so the
dictionary is scanned once per call.
"""

from dataclasses import dataclass

import numpy as np

from .certificates import (_chain_factors, _check_algorithm, _check_support, _erc_rule, _index,
                           _wrong_atoms)
from .exceptions import ConstructionFailedError, DegenerateAtomError
from .linalg import _real, _solve_upper, extend_state, factor_chain, init_state, residual
from .tolerances import TAU_SUCCESS_REL, TAU_TIE, TAU_ZERO

__all__ = [
    "IterationRecord",
    "GreedyTrace",
    "select_omp",
    "select_ols",
    "run_greedy",
    "construct_reaching_input",
    "build_failure_input",
]

MIN_STEP = 1e-14  # smallest perturbation size tried by the constructions


@dataclass(frozen=True)
class IterationRecord:
    """One selection: chosen index, full score vector (NaN at active
    positions), tie flag, the tied index set and the norm of the
    residual it was made on."""

    selected: int
    scores: np.ndarray
    tie: bool
    tied: tuple
    residual_norm: float


def _pick(state, r, scores):
    """The record of the top-scoring inactive atom, or None when no
    inactive score exceeds ``TAU_ZERO * |r|``.  ``scores`` is a fresh
    array, which the record keeps, frozen."""
    rnorm = float(np.linalg.norm(r))
    scores[list(state.active)] = np.nan
    live = scores[~np.isnan(scores)]
    if not live.size or live.max() <= TAU_ZERO * rnorm:
        return None
    with np.errstate(invalid="ignore"):
        tied = np.flatnonzero(scores >= live.max() * (1.0 - TAU_TIE))
    scores.setflags(write=False)
    return IterationRecord(
        selected=int(tied[0]), scores=scores, tie=len(tied) > 1,
        tied=tuple(int(t) for t in tied), residual_norm=rnorm,
    )


def select_omp(state, r):
    """Pick the inactive atom maximizing |<r, projected atom>|.

    ``r`` must be orthogonal to the active span (a :func:`residual`), so
    the scores are ``|A.T r|``.  Returns the step's :class:`IterationRecord`,
    or None when ``r`` is orthogonal to every inactive atom (``r = 0`` too).
    """
    return _pick(state, r, np.abs(state.atoms.T @ r))


def select_ols(state, r):
    """Pick the inactive atom maximizing |<r, normalized projected atom>|.

    Equivalent to minimizing the residual norm after the candidate
    extension.  ``r`` must be orthogonal to the active span, so the
    scores are ``|A.T r| / |P a_j|``; atoms inside the active span score
    zero.  Returns the step's :class:`IterationRecord`, or None when ``r``
    is orthogonal to every inactive atom (``r = 0`` too).
    """
    corr = np.abs(state.atoms.T @ r)
    alive = state.norms > TAU_ZERO
    return _pick(state, r, np.divide(corr, state.norms, out=np.zeros(state.n), where=alive))


_SELECT = {"omp": select_omp, "ols": select_ols}


@dataclass(frozen=True)
class GreedyTrace:
    """Record of one greedy run.

    ``status`` is one of ``success`` (residual exhausted, and only true
    atoms selected when a support oracle was given), ``wrong_atom``,
    ``tie_failure`` (true/wrong tie), ``rank_abort`` (selected atom
    degenerate), or ``exhausted``: either the iteration budget was hit
    with residual left, or a selection step returned None (the residual
    is orthogonal to every inactive atom), which records nothing.
    """

    algorithm: str
    records: tuple
    status: str
    failure_iteration: int | None
    wrong_index: int | None
    final_residual: float

    def selections(self):
        return [rec.selected for rec in self.records]

    def to_json(self):
        return {
            "algorithm": self.algorithm,
            "status": self.status,
            "failure_iteration": self.failure_iteration,
            "wrong_index": self.wrong_index,
            "final_residual": float(self.final_residual),
            "iterations": [
                {
                    "selected": rec.selected,
                    "tie": rec.tie,
                    "tied": list(rec.tied),
                    "residual_norm": float(rec.residual_norm),
                    "scores": [
                        None if np.isnan(s) else float(s) for s in rec.scores
                    ],
                }
                for rec in self.records
            ],
        }


def run_greedy(algorithm, atoms, y, max_iters, oracle=None):
    """Run OMP or OLS for up to ``max_iters`` selections.

    With ``oracle`` (the true support) the run stops at the first wrong
    or adversarially tied selection.  Stops early once the residual norm
    drops below ``TAU_SUCCESS_REL * |y|``.  ``y`` must be a real, finite
    vector of length m, ``max_iters`` an integer >= 0 and ``oracle``
    distinct integers in 0..n-1 (``ValueError`` otherwise).
    """
    _check_algorithm(algorithm)
    max_iters = _index(max_iters, "max_iters")
    if max_iters < 0:
        raise ValueError(f"max_iters must be non-negative, got {max_iters}")
    state = init_state(atoms)  # matrix checked before the oracle and y
    if oracle is not None:
        oracle, _ = _check_support(state.n, oracle)
    return _run(algorithm, state, y, max_iters, oracle)


def _run(algorithm, state, y, max_iters, oracle=None):
    """:func:`run_greedy` from ``state``, a checked state with nothing
    selected: the constructions' verifying reruns all start from the one
    state they checked, so the dictionary is scanned once per call."""
    select = _SELECT[algorithm]
    m = state.atoms.shape[0]
    y = _real(y, "y")
    if y.shape != (m,) or not np.isfinite(y).all():
        raise ValueError(f"y must be a finite vector of length {m}")
    truth = frozenset(oracle) if oracle is not None else None  # checked by the callers
    ynorm = np.linalg.norm(y)
    records = []
    status, fail_it, wrong = None, None, None

    for it in range(max_iters):
        r = residual(state, y)
        if np.linalg.norm(r) <= TAU_SUCCESS_REL * ynorm:
            status = "success"
            break
        sel = select(state, r)
        if sel is None:
            status = "exhausted"
            break
        records.append(sel)
        if truth is not None:
            tied_wrong = [t for t in sel.tied if t not in truth]
            if sel.tie and tied_wrong and len(tied_wrong) < len(sel.tied):
                status, fail_it, wrong = "tie_failure", it, min(tied_wrong)
                break
            if sel.selected not in truth:
                status, fail_it, wrong = "wrong_atom", it, sel.selected
                break
        try:
            state = extend_state(state, sel.selected)
        except DegenerateAtomError:
            status, fail_it = "rank_abort", it
            break

    final = float(np.linalg.norm(residual(state, y)))
    if status is None:
        status = "success" if final <= TAU_SUCCESS_REL * ynorm else "exhausted"
    return GreedyTrace(
        algorithm=algorithm,
        records=tuple(records),
        status=status,
        failure_iteration=fail_it,
        wrong_index=wrong,
        final_residual=final,
    )


def _step_search(base, direction, verified):
    """``base + eps * direction`` at the first step size eps = 1, 1/2,
    ... down to ``MIN_STEP`` that ``verified`` accepts, or None."""
    eps = 1.0
    while eps >= MIN_STEP:
        y = base + eps * direction
        if verified(y):
            return y
        eps /= 2.0
    return None


def _reaches_prefix(algorithm, start, y, prefix):
    """True when the run from ``start`` selects exactly ``prefix``,
    strictly (no tie)."""
    trace = _run(algorithm, start, y, len(prefix))
    return trace.selections() == prefix and not any(rec.tie for rec in trace.records)


def construct_reaching_input(atoms, order, algorithm):
    """A vector making the algorithm select ``order``, in order.

    Stacks ``y_p = y_{p-1} + eps_p a_{q_p}`` with each step size halved
    from 1 until the partial run re-verifies with strict unique maxima.
    For OLS a feasible step always exists (the residual after p correct
    selections is parallel to the projected next atom); for OMP the
    construction is attempted on the same schedule and fails honestly.
    Raises :class:`ConstructionFailedError` when no step size down to
    1e-14 verifies.
    """
    return _reaching_input(init_state(atoms), order, algorithm)


def _reaching_input(start, order, algorithm):
    """:func:`construct_reaching_input`, verified by reruns from ``start``."""
    a = start.atoms
    order = [_index(i, "order index") for i in order]
    if len(set(order)) != len(order) or not order:
        raise ValueError("order must be a non-empty sequence of distinct indices")
    if not all(0 <= i < a.shape[1] for i in order):
        raise ValueError(f"order {order} outside 0..{a.shape[1] - 1}")
    _check_algorithm(algorithm)
    y = a[:, order[0]].copy()
    if not _reaches_prefix(algorithm, start, y, order[:1]):
        raise ConstructionFailedError(
            f"atom {order[0]} is not a strict first selection of its own direction"
        )
    for p in range(1, len(order)):
        prefix = order[: p + 1]
        y = _step_search(y, a[:, order[p]],
                         lambda cand: _reaches_prefix(algorithm, start, cand, prefix))
        if y is None:
            raise ConstructionFailedError(f"no step size reaches {prefix} with {algorithm}")
    return y


def _gram_solve(r, v):
    """``w`` with ``r.T r w = v``, for an upper-triangular ``r``, by two
    upper-triangular solves (:func:`linalg._solve_upper`).  ``r.T`` is
    lower triangular: with its rows and columns reversed it is upper
    triangular.  Solving that form, not ``r.T`` itself, keeps the bits
    of the failure inputs, which a transposed sweep would round
    differently."""
    z = _solve_upper(r.T[::-1, ::-1], v[::-1].copy())
    return _solve_upper(r, z[::-1].copy())


def build_failure_input(atoms, qstar, q, algorithm):
    """A vector on support ``qstar`` that reaches ``q`` and then fails.

    Returns None when the exactness certificate at ``q`` holds (no such
    input exists for this construction).  Otherwise the returned vector
    steers the run through ``q`` (in order) and makes the next selection
    wrong or adversarially tied; this is verified by re-running before
    returning.
    """
    start = init_state(atoms)  # checked once: every rerun starts from it
    a = start.atoms
    _check_algorithm(algorithm)
    qstar, q = _check_support(a.shape[1], qstar, q)
    if len(q) >= len(qstar):
        raise ValueError("q must be a strict subset of the support")
    qstar, q = list(qstar), list(q)

    # growth order q + (qstar \ q): rows t: of the coefficient table are
    # the remaining true atoms, and those atoms projected off span(A_q)
    # are Q[:, t:] R22, so their Gram matrix is R22.T R22
    t = len(q)
    remaining = [i for i in qstar if i not in q]
    chain = factor_chain(a, q + remaining, _wrong_atoms(a.shape[1], qstar))
    coef, _, support_norms, r = chain
    signs = np.sign(coef[t:])  # read first: _chain_factors leaves |C| in coef
    factors = _chain_factors(chain, [t], algorithm)[0]
    if _erc_rule(factors)[1]:
        return None
    v = signs[:, int(np.argmax(factors))]
    v[v == 0.0] = 1.0
    if algorithm == "ols":
        # OLS correlates with the normalized projected atoms: the system
        # is diag(1 / |P_q a_i|) R22.T R22 w = v
        v = v * support_norms[t, t:]
    yhat = a[:, remaining] @ _gram_solve(r[t:, t:], v)

    def verified(y):
        trace = _run(algorithm, start, y, len(q) + 1, oracle=qstar)
        return (
            trace.selections()[: len(q)] == q
            and trace.status in ("wrong_atom", "tie_failure")
            and trace.failure_iteration == len(q)
        )

    if not q:
        if not verified(yhat):
            raise ConstructionFailedError("failure input did not verify")
        return yhat

    y = _step_search(_reaching_input(start, q, algorithm), yhat, verified)
    if y is None:
        raise ConstructionFailedError(
            f"no step size yields a verified failure after {q} with {algorithm}"
        )
    return y
