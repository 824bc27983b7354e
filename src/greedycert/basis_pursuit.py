"""Null-space recovery conditions and l1 recovery of a given vector.

The l1 recovery question for a support Q* is decided per sign pattern
eps on Q* by the linear program (Fuchs 2004; Gribonval & Nielsen 2003)

    v(eps) = max eps^T x_Q*  subject to  A x = 0,  |x_off|_1 <= 1.

* v(eps) < 1 for every eps is the null-space property: every vector
  supported on Q* is the unique l1 minimizer of its own measurements.
* v(eps) > 1 for every eps is its failure counterpart: no vector
  supported on Q* is recovered, whatever the signs and amplitudes.

The 2^(k-1) patterns with a leading +1 (negating eps negates the
witness) are the blocks of one block-diagonal HiGHS program over the
null space: one solver call per check, for any null-space dimension.
Values within ``TAU_STRICT`` of 1 are flagged as boundary cases.  The
null-space basis comes from one numpy SVD of A (:func:`_null_space`).
The solver is HiGHS, handed the LP by :func:`_solve_lp` through scipy's
own binding (``scipy.optimize.milp`` where that private module is
missing), one solver object per check.  It is imported with the first
check, so the package loads scipy only there.

Whether one vector x* is the unique l1 minimizer of its own measurements
depends on its support S and signs alone (Fuchs 2004; Zhang, Yin & Cheng
2015): it is when A_S is injective and v(sign x*_S) < 1.
``l1_recovers`` reads that one pattern's block of the same program.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .certificates import _check_support
from .exceptions import FormMismatchError, GreedycertError, TooLargeError
from .linalg import _finite_matrix, _real
from .tolerances import TAU_FORM, TAU_NUM, TAU_RANK, TAU_STRICT

__all__ = [
    "NspReport",
    "BrcBpReport",
    "nsp_check",
    "brc_bp_check",
    "l1_recovers",
]

# work budget of one check, in array entries per sign pattern: its row of
# the pattern table (k), its witness (n) and its LP block's nonzeros
MAX_PATTERN_WORK = 2 * 10**6


def _null_space(a):
    """Orthonormal null-space basis of ``a``, one column per direction:
    the right singular vectors past the numerical rank, which counts the
    singular values above ``max(s) * max(m, n) * eps`` (the rule of
    ``scipy.linalg.null_space``)."""
    _, s, vt = np.linalg.svd(a)
    tol = s.max(initial=0.0) * max(a.shape) * np.finfo(np.float64).eps
    return vt[np.count_nonzero(s > tol):].T


def _finite_or_none(value):
    return None if value is None or not np.isfinite(value) else float(value)


def _within_budget(count, per_pattern):
    if count * per_pattern > MAX_PATTERN_WORK:
        raise TooLargeError(f"{count} sign patterns exceed the work budget of {MAX_PATTERN_WORK}")


def _every_pattern(k, n):
    """The 2^(k-1) sign patterns on a k-atom support with eps_0 = +1
    (negating eps negates the witness), refused before the table exists
    when its rows and witnesses alone exceed the work budget."""
    count = 2 ** max(k - 1, 0)
    _within_budget(count, k + n)
    return np.array([(1.0,) + tail for tail in product((-1.0, 1.0), repeat=k - 1)]
                    if k else [()]).reshape(count, k)


def _null_split(basis, off):
    """``(B, Z)``: the null directions that move x_off and those on the
    support alone."""
    _, s, vt = np.linalg.svd(basis[off], full_matrices=True)
    r = int((s > TAU_RANK).sum())
    return basis @ vt[:r].T, basis @ vt[r:].T


def _solve_lp(cost, data, indices, indptr, b_ub, lower):
    """The optimal x of ``min cost^T x  s.t.  A x <= b_ub, x >= lower``,
    with A given by its CSC arrays, solved by HiGHS.

    The model goes straight to scipy's binding of HiGHS: one solver
    object for this call, with its log off and every other option at
    HiGHS's default, which is what ``scipy.optimize.milp`` hands it for
    a pure LP, without milp's input checks, option manager and dual
    bookkeeping.  The binding is private to scipy, so a scipy without it
    gets the same LP through ``milp``.  Anything but an optimal solve
    raises :class:`GreedycertError` naming HiGHS's model status.
    """
    try:
        from scipy.optimize._highspy._core import (HighsLp, HighsModelStatus, HighsStatus,
                                                   MatrixFormat, _Highs)
    except ImportError:
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import csc_array

        a_ub = csc_array((data, indices, indptr), shape=(b_ub.size, cost.size))
        res = milp(cost, constraints=LinearConstraint(a_ub, -np.inf, b_ub),
                   bounds=Bounds(lower, np.inf))
        if res.status != 0:
            raise GreedycertError(f"sign-pattern LP not solved: {res.message}")
        return res.x

    lp = HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = cost.size
    lp.num_row_ = lp.a_matrix_.num_row_ = b_ub.size
    lp.a_matrix_.format_ = MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = indptr, indices, data
    lp.col_cost_ = cost
    lp.col_lower_, lp.col_upper_ = lower, np.full(cost.size, np.inf)
    lp.row_lower_, lp.row_upper_ = np.full(b_ub.size, -np.inf), b_ub
    highs = _Highs()
    highs.setOptionValue("log_to_console", False)
    if (highs.passModel(lp) == HighsStatus.kError or highs.run() == HighsStatus.kError
            or highs.getModelStatus() != HighsModelStatus.kOptimal):
        status = highs.modelStatusToString(highs.getModelStatus())
        raise GreedycertError(f"sign-pattern LP not solved: model status is {status}")
    return np.array(highs.getSolution().col_value)


def _sign_patterns(a, support, basis, eps):
    """``(eps, v(eps), decision, witness)`` for each row of the pattern
    table ``eps``.

    The null space splits into directions moving x_off (B, the row
    space of N_off) and directions on Q* alone (Z).  A pattern gaining
    along Z is unbounded (v = inf, witnessed there); one not gaining
    along a nonempty Z ties 0 against 0, so it is never decided below 1.
    The others solve the bounded LP over B, whose value is 0 at the
    zero witness when B is empty.  The decision is True when
    the LP value and the ratio ``eps^T x_Q / |x_off|_1`` recomputed at
    the witness both exceed ``1 + TAU_STRICT`` and ``|A x| <= TAU_NUM``,
    False when both are below ``1 - TAU_STRICT``, None otherwise.
    """
    n, k = a.shape[1], len(support)
    off = [j for j in range(n) if j not in support]
    p = len(off)
    moving, on_support = _null_split(basis, off)
    r = moving.shape[1]
    count = len(eps)
    _within_budget(count, k + n + 2 * p * r + 3 * p)

    gain = eps @ on_support[list(support)]
    gain_norm = np.linalg.norm(gain, axis=1)
    unbounded = gain_norm > TAU_RANK
    values = np.where(unbounded, np.inf, 0.0)
    witnesses = np.zeros((count, n))
    witnesses[unbounded] = gain[unbounded] @ on_support.T / gain_norm[unbounded, None]
    live = np.flatnonzero(~unbounded)
    if live.size and r:
        # block variables (u, t): x = B u, -t <= x_off <= t, sum t <= 1,
        # repeated down the diagonal once per pattern
        b_off = moving[off]
        block = np.block([[b_off, -np.eye(p)], [-b_off, -np.eye(p)],
                          [np.zeros((1, r)), np.ones((1, p))]])
        # the block's nonzeros column by column, rows ascending, repeated
        # down the diagonal: the CSC arrays themselves, with no COO step
        (h, w), (cols, rows) = block.shape, np.nonzero(block.T)
        nnz, shift = rows.size, np.arange(live.size)[:, None]
        starts = np.searchsorted(cols, np.arange(w))
        objective = eps[live] @ moving[list(support)]
        cost = np.hstack([-objective, np.zeros((live.size, p))])
        lower = np.hstack([np.full(r, -np.inf), np.zeros(p)])
        sol = _solve_lp(cost.ravel(), np.tile(block[rows, cols], live.size),
                        (rows + h * shift).ravel(),
                        np.append((starts + nnz * shift).ravel(), nnz * live.size),
                        np.tile(np.eye(h)[-1], live.size),
                        np.tile(lower, live.size)).reshape(live.size, w)[:, :r]
        values[live] = np.einsum("ij,ij->i", objective, sol)
        witnesses[live] = sol @ moving.T

    gained = np.einsum("ij,ij->i", eps, witnesses[:, list(support)])
    mass = np.abs(witnesses[:, off]).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(mass > 0, gained / mass, np.where(gained > 0, np.inf, 0.0))
    finite = np.isfinite(values)
    gap = np.abs(values[finite] - ratio[finite])
    if np.any(gap > TAU_FORM * np.maximum(1.0, np.abs(values[finite]))):
        raise FormMismatchError(f"LP value and witness ratio differ by {gap.max():.3e}")
    residual = np.linalg.norm(witnesses @ a.T, axis=1)
    tied = on_support.shape[1] > 0

    patterns = []
    for i in range(count):
        if min(values[i], ratio[i]) > 1.0 + TAU_STRICT and residual[i] <= TAU_NUM:
            decision = True
        elif max(values[i], ratio[i]) < 1.0 - TAU_STRICT and not tied:
            decision = False
        else:
            decision = None
        patterns.append((tuple(int(e) for e in eps[i]), float(values[i]), decision,
                         witnesses[i]))
    return patterns


@dataclass(frozen=True)
class NspReport:
    """``supremum`` is the largest v(eps) (None for a trivial null
    space) and ``witness`` its null vector.  ``verdict`` is True only
    when every pattern is decided below 1; ``indeterminate`` when none
    is decided above 1 and a boundary pattern prevents the verdict."""

    verdict: bool
    supremum: float | None
    witness: np.ndarray | None
    indeterminate: bool

    def to_json(self):
        return {
            "verdict": bool(self.verdict),
            "supremum": _finite_or_none(self.supremum),
            "witness": None if self.witness is None else [float(v) for v in self.witness],
            "indeterminate": bool(self.indeterminate),
        }


def _nsp_report(dim, patterns):
    if dim == 0:
        return NspReport(verdict=True, supremum=None, witness=None, indeterminate=False)
    decisions = [f for _, _, f, _ in patterns]
    _, sup, _, witness = max(patterns, key=lambda pattern: pattern[1])
    verdict = all(f is False for f in decisions)
    return NspReport(verdict=verdict, supremum=sup, witness=witness,
                     indeterminate=not verdict and not any(f is True for f in decisions))


def nsp_check(a, qstar):
    """Does every nonzero null vector carry less l1 mass on the support?
    Holds when v(eps) < 1 for every sign pattern eps on it."""
    a = _finite_matrix(a)
    support, _ = _check_support(a.shape[1], qstar)
    basis = _null_space(a)
    if not basis.shape[1]:  # a trivial null space needs no pattern table
        return _nsp_report(0, ())
    patterns = _sign_patterns(a, support, basis, _every_pattern(len(support), a.shape[1]))
    return _nsp_report(basis.shape[1], patterns)


@dataclass(frozen=True)
class BrcBpReport:
    """``verdict`` True: every sign pattern on the support admits a null
    vector beating the off-support mass (no input on the support is
    recovered).  False: some pattern admits none.  None: a boundary
    pattern prevented a call either way.

    ``patterns`` maps each sign pattern (over the support, in the given
    order) to v(eps) (``inf`` when unbounded, null in JSON), its
    feasibility and its witness null vector."""

    verdict: bool | None
    support: tuple
    patterns: tuple

    def to_json(self):
        return {
            "verdict": self.verdict,
            "support": [int(i) for i in self.support],
            "patterns": [
                {
                    "epsilon": [int(e) for e in eps],
                    "supremum": _finite_or_none(sup),
                    "feasible": feas,
                    "witness": [float(v) for v in wit],
                }
                for eps, sup, feas, wit in self.patterns
            ],
        }


def _brc_report(support, solved):
    patterns = []
    for eps, sup, feas, x in solved:
        patterns.append((eps, sup, feas, x))
        if support:
            patterns.append((tuple(-e for e in eps), sup, feas, -x))

    decisions = [f for _, _, f, _ in patterns]
    verdict = (False if any(f is False for f in decisions)
               else True if all(f is True for f in decisions) else None)
    return BrcBpReport(verdict=verdict, support=support, patterns=tuple(patterns))


def _l1_reports(a, qstar):
    """``(nsp_check(a, qstar), brc_bp_check(a, qstar))`` from one
    pattern table: one null space and one LP for both reports."""
    a = _finite_matrix(a)
    support, _ = _check_support(a.shape[1], qstar)
    basis = _null_space(a)
    patterns = _sign_patterns(a, support, basis, _every_pattern(len(support), a.shape[1]))
    return _nsp_report(basis.shape[1], patterns), _brc_report(support, patterns)


def brc_bp_check(a, qstar):
    """Is l1 recovery wrong for every input carried by the support?

    Asks, for each sign pattern eps on the support, whether v(eps) > 1:
    some null vector x has ``sum_i eps_i x_i > sum_offsupport |x_j|``.
    Each solved pattern is listed next to its mirror (negated witness).
    """
    return _l1_reports(a, qstar)[1]


def l1_recovers(a, xstar):
    """Is ``xstar`` the unique l1 minimizer of its own measurements?

    Decided on its support S (its exact nonzeros) and signs alone, at
    any n within ``MAX_PATTERN_WORK``: True when v(sign xstar_S) is
    decided below 1; False when it is decided above 1, or when a null
    vector z lives on S alone (A_S not injective: xstar + t z is another
    minimizer for small t); None when v lies within ``TAU_STRICT`` of 1.
    """
    a = _finite_matrix(a)
    n = a.shape[1]
    xstar = _real(xstar, "xstar")
    if xstar.shape != (n,) or not np.isfinite(xstar).all():
        raise ValueError(f"xstar must be a finite vector of length {n}")
    basis = _null_space(a)
    if _null_split(basis, xstar == 0)[1].shape[1]:
        return False
    support = tuple(np.flatnonzero(xstar).tolist())
    [(_, _, lost, _)] = _sign_patterns(a, support, basis, np.sign(xstar[xstar != 0])[None])
    return None if lost is None else not lost
