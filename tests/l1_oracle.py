"""Brute-force l1 minimization for small dictionaries: the independent
oracle the l1 certificates and ``l1_recovers`` are checked against.

The enumeration of basic solutions is exponential in n and limited to
``n <= 12`` columns; it shares no code with the sign-pattern LP.
"""

from itertools import combinations

import numpy as np

from greedycert.exceptions import TooLargeError
from greedycert.linalg import _as_matrix
from greedycert.tolerances import TAU_RANK, TAU_ZERO

MAX_L1_COLUMNS = 12


class InfeasibleError(Exception):
    """No basic solution reproduces the input."""


def l1_min(a, y):
    """All basic minimizers of ``|x|_1`` subject to ``a @ x = y``.

    Enumerates full-rank column subsets of size rank(a); the optimum of
    the underlying linear program is attained on such basic solutions,
    and distinct optimal solutions always include distinct basic ones,
    so a single returned vector certifies uniqueness.  Limited to
    ``n <= 12`` columns.  Raises :class:`InfeasibleError` when no subset
    reproduces ``y``.
    """
    a = _as_matrix(a)
    y = np.asarray(y, dtype=np.float64)
    m, n = a.shape
    if n > MAX_L1_COLUMNS:
        raise TooLargeError(f"{n} columns exceed the basic-solution budget")
    if np.linalg.norm(y) <= TAU_ZERO:
        return [np.zeros(n)]
    r = int(np.linalg.matrix_rank(a))
    if r == 0:
        raise InfeasibleError("zero matrix cannot reproduce a nonzero input")

    tol = 1e-9 * max(1.0, float(np.linalg.norm(y)))
    candidates = []
    for subset in combinations(range(n), r):
        sub = a[:, subset]
        sv = np.linalg.svd(sub, compute_uv=False)
        if sv[-1] <= TAU_RANK:
            continue
        x_s, *_ = np.linalg.lstsq(sub, y, rcond=None)
        if np.linalg.norm(sub @ x_s - y) > tol:
            continue
        x = np.zeros(n)
        x[list(subset)] = x_s
        candidates.append((float(np.abs(x).sum()), x))
    if not candidates:
        raise InfeasibleError("no basic solution reproduces the input")
    best = min(l1 for l1, _ in candidates)
    solutions = []
    for l1, x in candidates:
        if l1 - best <= 1e-9 * max(1.0, best):
            if not any(np.allclose(x, s, atol=1e-9) for s in solutions):
                solutions.append(x)
    return solutions


def recovers(a, xstar):
    """True when ``xstar`` is the unique l1 minimizer of its own
    measurements."""
    xstar = np.asarray(xstar, dtype=np.float64)
    sols = l1_min(a, _as_matrix(a) @ xstar)
    if len(sols) != 1:
        return False
    scale = max(1.0, float(np.abs(xstar).max()))
    return bool(np.abs(sols[0] - xstar).max() <= 1e-8 * scale)
