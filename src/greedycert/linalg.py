"""Least squares, the factor kernel and incremental projections.

Conventions used throughout the package:

* matrices are 2-D ``numpy.float64`` arrays (C order), columns are atoms;
* an "active set" Q is an ordered tuple of distinct column indices;
* the projected atom of ``a_i`` w.r.t. Q is ``P a_i`` where ``P`` projects
  onto the orthogonal complement of ``span(A_Q)``; active atoms project
  to exactly zero.

:func:`factor_chain` is the value route of the certificate factors: one
LAPACK QR of the support in growth order gives the coefficient table of
the probe atoms and every projected norm along the chain, without ever
forming a projected matrix.

A :class:`ProjectionState` caches the projected atoms and their norms and
is extended one atom at a time.  It drives the greedy runs and is the
independent cross-check of the factor kernel in checked mode.  Each
extension also records, for every still-inactive atom, the
norm-reduction factor ``eta`` and the alignment ``chi`` of its
normalized projected atom with the newly added basis direction;
``eta**2 + chi**2 == 1`` up to rounding.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.linalg.blas import dgemm

from .exceptions import (
    DegenerateAtomError,
    NotNormalizedError,
    RankDeficientError,
    TooLargeError,
)
from .tolerances import TAU_NUM, TAU_RANK, TAU_ZERO

__all__ = [
    "ExtensionRecord",
    "ProjectionState",
    "least_squares",
    "factor_chain",
    "init_state",
    "state_for",
    "extend_state",
    "projected_atom",
    "normalized_projected_atom",
    "residual",
    "compute_spark",
]


def _as_matrix(a):
    """Accept a plain array or anything with a ``matrix`` attribute."""
    a = getattr(a, "matrix", a)
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array of column atoms")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _qr(a):
    """Economic LAPACK QR of a full-column-rank ``a``.

    Raises :class:`RankDeficientError` when some column lies within
    ``TAU_RANK`` of the span of its predecessors, i.e. ``|R_jj| <=
    TAU_RANK``.
    """
    m, k = a.shape
    if k > m:
        raise RankDeficientError(f"{k} columns in dimension {m} are dependent")
    q, r = qr(a, mode="economic", check_finite=False)
    low = np.flatnonzero(np.abs(np.diag(r)) <= TAU_RANK)
    if low.size:
        j = int(low[0])
        raise RankDeficientError(
            f"column {j} is dependent on its predecessors (norm {abs(r[j, j]):.3e})"
        )
    return q, r


def least_squares(a, b):
    """Minimum-residual solution of ``a @ x = b`` for full-rank ``a``.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    """
    q, r = _qr(_as_matrix(a))
    return solve_triangular(r, q.T @ np.asarray(b, dtype=np.float64))


def _check_unit(norms, atoms):
    bad = np.flatnonzero(np.abs(norms - 1.0) > TAU_NUM)
    if bad.size:
        i = int(bad[0])
        raise NotNormalizedError(f"atom {atoms[i]} has norm {norms[i]:.12g}, expected 1")


def _tail_sums(x):
    """Row ``q`` of the result is ``x[q:].sum(axis=0)``, for ``q = 0 ..
    len(x)``; the last row is the empty sum."""
    tails = np.cumsum(x[::-1], axis=0)[::-1]
    return np.concatenate([tails, np.zeros((1,) + x.shape[1:])])


def factor_chain(atoms, order, probes):
    """Coefficient table and projected norms along a growth order.

    One economic QR ``A_order = Q R``, one product ``G = Q.T A_probes``
    and one triangular solve give, with ``k = len(order)`` and ``p =
    len(probes)``:

    * ``coef`` (k x p): ``pinv(A_order) A_probes``, rows in growth order;
    * ``probe_norms`` ((k+1) x p): row ``q`` holds ``|P_q a_j|``, the
      probe norms projected off ``span(A_order[:q])``, for ``q = 0 .. k``;
    * ``support_norms`` ((k+1) x k): entry ``[q, i]`` holds
      ``|P_q a_order[i]|``, which is 0 for ``q > i``.

    Every squared norm is a sum of non-negative terms:
    ``|P_q a_j|^2 = sum_{l>=q} G[l, j]^2 + |a_j - Q G_j|^2`` and
    ``|P_q a_order[i]|^2 = sum_{q<=l<=i} R[l, i]^2``, so small norms keep
    their relative accuracy (``1 - cumsum(G**2)`` would not).

    Atoms must have unit norm within ``TAU_NUM``
    (:class:`NotNormalizedError`).  :class:`RankDeficientError` is raised
    when some ``|R_ii| <= TAU_RANK``; otherwise every support atom keeps
    a projected norm ``|P_q a_order[i]| >= |R_ii| > TAU_RANK > TAU_ZERO``
    at every depth ``q <= i`` where it is still unselected.
    """
    a = _as_matrix(atoms)
    order = [int(i) for i in order]
    probes = [int(j) for j in probes]
    _check_unit(np.linalg.norm(a[:, order], axis=0), order)
    q, r = _qr(a[:, order])
    x = a[:, probes]
    g = q.T @ x
    coef = solve_triangular(r, g, check_finite=False)
    # x - Q G, the probes' part outside span(A_order); the update runs
    # in place on the gathered copy, which numpy lays out in Fortran order
    if x.size:  # BLAS rejects an empty output
        x = dgemm(-1.0, q, g, beta=1.0, c=x, overwrite_c=True)
    probe_norms = np.sqrt(_tail_sums(g * g) + np.einsum("ij,ij->j", x, x))
    _check_unit(probe_norms[0], probes)
    support_norms = np.sqrt(_tail_sums(r * r))  # R is upper triangular
    return coef, probe_norms, support_norms


@dataclass(frozen=True)
class ExtensionRecord:
    """Per-step extension data.

    ``eta[i]`` and ``chi[i]`` hold the norm-reduction and alignment
    coefficients of atom ``i`` for this extension; entries are NaN for
    active atoms and for atoms already (numerically) inside the span.
    """

    index: int
    eta: np.ndarray
    chi: np.ndarray


@dataclass(frozen=True)
class ProjectionState:
    """Atoms projected on the orthogonal complement of the active span."""

    atoms: np.ndarray
    active: tuple
    basis: np.ndarray
    projected: np.ndarray
    norms: np.ndarray
    extensions: tuple

    @property
    def m(self):
        return self.atoms.shape[0]

    @property
    def n(self):
        return self.atoms.shape[1]


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


def init_state(atoms, check_normalization=True):
    """Start a projection state with an empty active set.

    Column norms must be 1 within ``TAU_NUM`` unless
    ``check_normalization`` is off (selection by projected residual
    correlations assumes unit atoms; norm-free callers may opt out).
    """
    a = _as_matrix(atoms).copy()
    norms = np.linalg.norm(a, axis=0)
    if check_normalization and np.any(np.abs(norms - 1.0) > TAU_NUM):
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise NotNormalizedError(
            f"atom {worst} has norm {norms[worst]:.12g}, expected 1"
        )
    projected = a.copy()
    basis = np.empty((a.shape[0], 0))
    _freeze(a, projected, basis, norms)
    return ProjectionState(
        atoms=a,
        active=(),
        basis=basis,
        projected=projected,
        norms=norms,
        extensions=(),
    )


def state_for(atoms, active, check_normalization=True):
    """Projection state with the given atoms already selected, in order."""
    state = init_state(atoms, check_normalization=check_normalization)
    for i in active:
        state = extend_state(state, i)
    return state


def extend_state(state, index):
    """Add atom ``index`` to the active set, returning a new state.

    Records the ``eta``/``chi`` coefficients of every remaining atom and
    sets the projected atom of every active index to exactly zero.
    Raises :class:`DegenerateAtomError` if the atom already lies in the
    active span.
    """
    index = int(index)
    if index < 0 or index >= state.n:
        raise IndexError(f"atom index {index} out of range")
    if index in state.active:
        raise DegenerateAtomError(f"atom {index} is already active")
    old_norm = state.norms[index]
    if old_norm <= TAU_ZERO:
        raise DegenerateAtomError(
            f"atom {index} lies in the active span (projected norm {old_norm:.3e})"
        )

    u = state.projected[:, index] / old_norm
    # the cached column is orthogonal to the basis up to drift; one
    # cleanup pass keeps the basis orthonormal over long chains
    if state.basis.shape[1]:
        u = u - state.basis @ (state.basis.T @ u)
        d = np.linalg.norm(u)
        if d <= TAU_ZERO:
            raise DegenerateAtomError(f"atom {index} lies in the active span")
        u = u / d

    coef = u @ state.projected
    with np.errstate(invalid="ignore", divide="ignore"):
        chi = coef / state.norms
    projected = state.projected - np.outer(u, coef)
    projected -= np.outer(u, u @ projected)  # second pass, removes rounding

    new_norms = np.linalg.norm(projected, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        eta = new_norms / state.norms

    dead = state.norms <= TAU_ZERO
    eta[dead] = np.nan
    chi[dead] = np.nan
    for i in state.active + (index,):
        projected[:, i] = 0.0
        new_norms[i] = 0.0
        eta[i] = np.nan
        chi[i] = np.nan

    basis = np.column_stack([state.basis, u])
    record = ExtensionRecord(index=index, eta=eta, chi=chi)
    _freeze(basis, projected, new_norms, eta, chi)
    return ProjectionState(
        atoms=state.atoms,
        active=state.active + (index,),
        basis=basis,
        projected=projected,
        norms=new_norms,
        extensions=state.extensions + (record,),
    )


def projected_atom(state, i):
    """Projection of atom ``i`` on the complement of the active span."""
    return state.projected[:, i]


def normalized_projected_atom(state, i):
    """Unit-norm projected atom, or the zero vector if it degenerates."""
    nrm = state.norms[i]
    if nrm <= TAU_ZERO:
        return np.zeros(state.m)
    return state.projected[:, i] / nrm


def residual(state, y):
    """Project ``y`` on the orthogonal complement of the active span."""
    y = np.asarray(y, dtype=np.float64)
    r = y - state.basis @ (state.basis.T @ y)
    r = r - state.basis @ (state.basis.T @ r)
    return r


def compute_spark(a, max_size):
    """Smallest number of dependent columns, searched up to ``max_size``.

    Returns the spark if some dependent subset of size <= ``max_size``
    exists, else ``None`` (meaning spark > ``max_size``).  The subset
    enumeration budget is 10**7; larger requests raise
    :class:`TooLargeError`.
    """
    a = _as_matrix(a)
    n = a.shape[1]
    max_size = min(int(max_size), n)
    total = sum(comb(n, s) for s in range(2, max_size + 1))
    if total > 10**7:
        raise TooLargeError(f"{total} subsets exceed the 1e7 enumeration budget")
    m = a.shape[0]
    for size in range(2, max_size + 1):
        if size > m:
            return size  # more columns than rows is always dependent
        for subset in combinations(range(n), size):
            sv = np.linalg.svd(a[:, subset], compute_uv=False)
            if sv[-1] <= TAU_RANK:
                return size
    return None
