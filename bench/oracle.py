"""Reference computations that share no numerics with ``greedycert``.

Everything here is written from the definitions, on top of
``numpy.linalg.lstsq``, ``numpy.linalg.qr`` and ``scipy.optimize.linprog``
(HiGHS), so that a fault in the package's own kernels (Gram-Schmidt QR,
incremental projections, sign-cone enumeration) cannot hide itself by
also appearing in the reference.
"""

from itertools import combinations

import numpy as np
from scipy.optimize import linprog

# A reference greedy step whose runner-up is within this relative gap of
# the leader is treated as undecided: rounding differences between two
# correct implementations may pick either atom.
REF_TIE = 1e-7

# Smaller projected norms count as zero, as in the package's tolerances.
ZERO_NORM = 1e-10


def coefficient_table(a, qstar, js):
    """``pinv(A_Q*) A_J`` by least squares; rows follow ``qstar``."""
    return np.linalg.lstsq(a[:, list(qstar)], a[:, list(js)], rcond=None)[0]


def projected_norms(a, selected, cols):
    """Norms of the columns ``cols`` projected off ``span(A_selected)``."""
    x = a[:, list(cols)]
    if not selected:
        return np.linalg.norm(x, axis=0)
    q, _ = np.linalg.qr(a[:, list(selected)])
    return np.linalg.norm(x - q @ (q.T @ x), axis=0)


def chain_projected_norms(a, order, cols):
    """Row ``p`` holds the norms of ``cols`` projected off the first
    ``p`` atoms of ``order``, for ``p = 0 .. len(order)``."""
    x = a[:, list(cols)]
    q, _ = np.linalg.qr(a[:, list(order)])
    coef2 = (q.T @ x) ** 2
    sq = (x**2).sum(axis=0)
    out = np.empty((len(order) + 1, x.shape[1]))
    out[0] = sq
    out[1:] = sq - np.cumsum(coef2, axis=0)
    return np.sqrt(np.clip(out, 0.0, None))


def wrong_atoms(n, qstar):
    member = set(qstar)
    return [j for j in range(n) if j not in member]


def factors(a, qstar, q, algorithm, js=None):
    """Definitional OMP/OLS factors of the wrong atoms ``js`` at ``q``."""
    js = wrong_atoms(a.shape[1], qstar) if js is None else list(js)
    c = np.abs(coefficient_table(a, qstar, js))
    rows = [p for p, i in enumerate(qstar) if i not in set(q)]
    if algorithm == "omp":
        return c[rows].sum(axis=0)
    remaining = [qstar[p] for p in rows]
    tn = projected_norms(a, q, remaining)
    jn = projected_norms(a, q, js)
    alive = jn > ZERO_NORM
    num = (tn[:, None] * c[rows]).sum(axis=0)
    return np.where(alive, num / np.where(alive, jn, 1.0), 0.0)


def chain_factors(a, qstar, order, algorithm):
    """Worst wrong factor after each prefix ``order[:p]`` of a growth
    order of the whole support, ``p = 0 .. len(qstar) - 1``, from one
    coefficient table and one QR."""
    js = wrong_atoms(a.shape[1], qstar)
    c = np.abs(coefficient_table(a, qstar, js))
    row_of = {atom: p for p, atom in enumerate(qstar)}
    c = c[[row_of[i] for i in order]]  # rows in growth order
    k = len(qstar)
    if algorithm == "omp":
        tails = np.cumsum(c[::-1], axis=0)[::-1]  # tails[p] = rows p..k-1
        return tails[:k].max(axis=1)
    norms = chain_projected_norms(a, order, list(order) + js)
    out = np.empty(k)
    for p in range(k):
        tn = norms[p, p:k]
        jn = norms[p, k:]
        alive = jn > ZERO_NORM
        num = (tn[:, None] * c[p:]).sum(axis=0)
        out[p] = np.where(alive, num / np.where(alive, jn, 1.0), 0.0).max()
    return out


def omp_cardinality(a, qstar, card):
    """Closed form of the OMP cardinality certificate.

    The worst selection of ``card`` true atoms removes the ``card``
    smallest rows of each wrong atom's coefficient column, so its factor
    is the sum of the ``k - card`` largest ``|C_ij|``.  Returns the
    per-atom values and their maximum.
    """
    js = wrong_atoms(a.shape[1], qstar)
    c = np.abs(coefficient_table(a, qstar, js))
    top = np.sort(c, axis=0)[::-1][: len(qstar) - card]
    per_atom = top.sum(axis=0)
    return per_atom, float(per_atom.max())


def ols_cardinality(a, qstar, card):
    """OLS cardinality certificate by enumerating every selection."""
    worst = None
    for q in combinations(qstar, card):
        vals = factors(a, qstar, q, "ols")
        worst = vals if worst is None else np.maximum(worst, vals)
    return worst, float(worst.max())


def leave_one_out(a, qstar):
    """OMP badness aggregate: ``min_i max_j |C_ij|`` over the support."""
    js = wrong_atoms(a.shape[1], qstar)
    rowmax = np.abs(coefficient_table(a, qstar, js)).max(axis=1)
    return rowmax, float(rowmax.min())


def greedy(algorithm, a, y, max_iters, stop_rel=1e-8):
    """Plain OMP/OLS.

    Returns ``(selections, near_ties)`` where ``near_ties[p]`` tells
    whether step ``p`` had a runner-up within ``REF_TIE`` of the leader.
    OMP scores ``|<a_j, r>|``; OLS divides by the projected atom norm.
    """
    n = a.shape[1]
    ynorm = np.linalg.norm(y)
    selected, near = [], []
    r = y
    for _ in range(max_iters):
        if np.linalg.norm(r) <= stop_rel * ynorm:
            break
        scores = np.abs(a.T @ r)
        if algorithm == "ols":
            pn = projected_norms(a, selected, range(n))
            alive = pn > ZERO_NORM
            scores = np.where(alive, scores / np.where(alive, pn, 1.0), 0.0)
        scores[selected] = -np.inf
        order = np.argsort(scores)[::-1]
        best, second = scores[order[0]], scores[order[1]]
        selected.append(int(order[0]))
        near.append(bool(second >= best * (1.0 - REF_TIE)))
        coef = np.linalg.lstsq(a[:, selected], y, rcond=None)[0]
        r = y - a[:, selected] @ coef
    return selected, near


def first_wrong_step(selected, support):
    """Index of the first selection outside ``support``, else None."""
    member = set(support)
    for p, s in enumerate(selected):
        if s not in member:
            return p
    return None


def pattern_value(a, support, eps):
    """``max eps^T h_Q  s.t.  A h = 0, |h_off|_1 <= 1`` by LP.

    Returns ``inf`` when the LP is unbounded (``A_Q`` not injective).
    A sign pattern lets some null vector beat the off-support mass
    exactly when this value exceeds 1.
    """
    m, n = a.shape
    support = list(support)
    off = wrong_atoms(n, support)
    p = len(off)
    # variables: h (n, free) then t (p, >= 0) bounding |h_off|
    cost = np.zeros(n + p)
    cost[support] = -np.asarray(eps, dtype=float)
    a_eq = np.hstack([a, np.zeros((m, p))])
    a_ub = np.zeros((2 * p + 1, n + p))
    for r, j in enumerate(off):
        a_ub[2 * r, j], a_ub[2 * r, n + r] = 1.0, -1.0
        a_ub[2 * r + 1, j], a_ub[2 * r + 1, n + r] = -1.0, -1.0
    a_ub[-1, n:] = 1.0
    b_ub = np.zeros(2 * p + 1)
    b_ub[-1] = 1.0
    bounds = [(None, None)] * n + [(0.0, None)] * p
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.zeros(m),
                  bounds=bounds, method="highs")
    if res.status == 3:
        return np.inf
    if res.status != 0:
        raise RuntimeError(f"pattern LP failed: {res.message}")
    return float(-res.fun)


def l1_solution(a, y):
    """A minimizer of ``|x|_1`` subject to ``a x = y`` by LP (HiGHS)."""
    m, n = a.shape
    res = linprog(np.ones(2 * n), A_eq=np.hstack([a, -a]), b_eq=y,
                  bounds=[(0.0, None)] * (2 * n), method="highs")
    if res.status != 0:
        raise RuntimeError(f"l1 LP failed: {res.message}")
    return res.x[:n] - res.x[n:]
