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
The program's CSC arrays are assembled in place from the block of the
null basis off the support (:func:`_block_csc`), and :func:`_solve_lp`
hands them as plain arrays to HiGHS through scipy's own binding
(``scipy.optimize.milp`` where that private module or its array entry
is missing), one solver object per check.  It is imported with the
first check, so the package loads scipy only there.  The patterns are
decided together, on arrays.

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
    with A given by its CSC arrays (int32 ``indices`` and ``indptr``),
    solved by HiGHS.

    The arrays go straight to the array form of ``passModel`` in scipy's
    binding of HiGHS: one solver object for this call, with every option
    at HiGHS's default as ``scipy.optimize.milp`` hands it a pure LP,
    but ``output_flag`` off, so no log text is formatted (milp turns
    only the console off), and without milp's input checks, option
    manager, ``HighsLp`` object and dual bookkeeping.  The binding is
    private to scipy, so a scipy without it, or without that overload,
    gets the same LP through ``milp``.  Anything but an optimal solve
    raises :class:`GreedycertError` naming HiGHS's model status.
    """
    n = cost.size
    try:
        from scipy.optimize._highspy._core import (HighsModelStatus, HighsStatus, MatrixFormat,
                                                   ObjSense, _Highs)
    except ImportError:  # a scipy without the binding
        highs = None
    else:
        highs = _Highs()
        highs.setOptionValue("output_flag", False)
        try:
            passed = highs.passModel(n, b_ub.size, data.size, MatrixFormat.kColwise,
                                     ObjSense.kMinimize, 0.0, cost, lower, np.full(n, np.inf),
                                     np.full(b_ub.size, -np.inf), b_ub, indptr, indices, data,
                                     np.zeros(n, dtype=np.int32))  # every column continuous
        except TypeError:  # a binding whose passModel takes a HighsLp object only
            highs = None
    if highs is None:
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import csc_array

        a_ub = csc_array((data, indices, indptr), shape=(b_ub.size, n))
        res = milp(cost, constraints=LinearConstraint(a_ub, -np.inf, b_ub),
                   bounds=Bounds(lower, np.inf))
        if res.status != 0:
            raise GreedycertError(f"sign-pattern LP not solved: {res.message}")
        return res.x

    if (passed == HighsStatus.kError or highs.run() == HighsStatus.kError
            or highs.getModelStatus() != HighsModelStatus.kOptimal):
        status = highs.modelStatusToString(highs.getModelStatus())
        raise GreedycertError(f"sign-pattern LP not solved: model status is {status}")
    return np.array(highs.getSolution().col_value)


def _block_csc(b_off, count):
    """``(data, indices, indptr)``: the CSC arrays of ``count`` copies of
    the LP block ``[[B, -I], [-B, -I], [0, 1^T]]`` (B = ``b_off``, p x r)
    down the diagonal, indices and starts as int32.

    Column j < r of the block holds the nonzeros of column j of
    ``[B; -B]``, rows ascending (a signed zero is no entry); column r + i
    holds -1, -1, +1 in rows i, p + i and 2p.  Copy c shifts the rows by
    c (2p + 1) and the column starts by c times the block's nonzeros.
    """
    p, r = b_off.shape
    halves = np.concatenate((b_off.T, -b_off.T), axis=1)  # row j: column j of [B; -B]
    held, rows = np.nonzero(halves)
    u = rows.size
    nnz = u + 3 * p

    data = np.empty((count, nnz))
    data[:, :u] = halves[held, rows]
    data[:, u:] = -1.0
    data[:, u + 2::3] = 1.0
    indices = np.empty((count, nnz), dtype=np.int32)
    indices[:, :u] = rows
    indices[:, u::3] = np.arange(p)
    indices[:, u + 1::3] = np.arange(p, 2 * p)
    indices[:, u + 2::3] = 2 * p
    indices += np.arange(0, count * (2 * p + 1), 2 * p + 1, dtype=np.int32)[:, None]
    sizes = np.full((count, r + p), 3, dtype=np.int32)  # entries per column
    sizes[:, :r] = np.bincount(held, minlength=r)
    indptr = np.zeros(count * (r + p) + 1, dtype=np.int32)
    sizes.cumsum(out=indptr[1:])
    return data.ravel(), indices.ravel(), indptr


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
    on = np.array(support, dtype=np.intp)  # an index array and a mask: no list to convert per use
    off = np.ones(n, dtype=bool)
    off[on] = False
    p = n - k
    moving, on_support = _null_split(basis, off)
    r = moving.shape[1]
    count = len(eps)
    _within_budget(count, k + n + 2 * p * r + 3 * p)

    gain = eps @ on_support[on]
    gain_norm = np.linalg.norm(gain, axis=1)
    unbounded = gain_norm > TAU_RANK
    values = np.where(unbounded, np.inf, 0.0)
    witnesses = np.zeros((count, n))
    if unbounded.any():
        witnesses[unbounded] = gain[unbounded] @ on_support.T / gain_norm[unbounded, None]
    live = np.flatnonzero(~unbounded)
    if live.size and r:
        # block variables (u, t): x = B u, -t <= x_off <= t, sum t <= 1,
        # repeated down the diagonal once per pattern
        objective = eps[live] @ moving[on]
        cost, lower = np.zeros((live.size, r + p)), np.zeros((live.size, r + p))
        np.negative(objective, out=cost[:, :r])
        lower[:, :r] = -np.inf
        b_ub = np.zeros((live.size, 2 * p + 1))
        b_ub[:, -1] = 1.0
        sol = _solve_lp(cost.ravel(), *_block_csc(moving[off], live.size), b_ub.ravel(),
                        lower.ravel()).reshape(live.size, r + p)[:, :r]
        values[live] = np.einsum("ij,ij->i", objective, sol)
        witnesses[live] = sol @ moving.T

    gained = np.einsum("ij,ij->i", eps, witnesses[:, on])
    mass = np.abs(witnesses[:, off]).sum(axis=1)
    ratio = np.where(gained > 0, np.inf, 0.0)  # the ratio where no mass is off the support
    np.divide(gained, mass, out=ratio, where=mass > 0)
    finite = np.isfinite(values)
    gap = np.abs(values[finite] - ratio[finite])
    if np.any(gap > TAU_FORM * np.maximum(1.0, np.abs(values[finite]))):
        raise FormMismatchError(f"LP value and witness ratio differ by {gap.max():.3e}")
    tied = on_support.shape[1] > 0
    above = ((values > 1.0 + TAU_STRICT) & (ratio > 1.0 + TAU_STRICT)
             & (np.linalg.norm(witnesses @ a.T, axis=1) <= TAU_NUM))
    below = (values < 1.0 - TAU_STRICT) & (ratio < 1.0 - TAU_STRICT) & (not tied)
    decisions = [(None, False, True)[c] for c in (2 * above + below).tolist()]
    return list(zip(map(tuple, eps.astype(int).tolist()), values.tolist(), decisions, witnesses))


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
