"""The factor kernel and incremental projections.

Conventions used throughout the package:

* matrices are 2-D ``numpy.float64`` arrays (C order), columns are atoms;
  complex input is refused rather than cast to its real part (:func:`_real`);
* the kernels check their matrix for finite entries where they form
  the column squares of the unit-norm check (:func:`_unit_squares`); a
  public call that reaches no kernel scans its matrix itself;
* an "active set" Q is an ordered tuple of distinct column indices;
* the projected atom of ``a_i`` w.r.t. Q is ``P a_i`` where ``P`` projects
  onto the orthogonal complement of ``span(A_Q)``; active atoms have
  projected norm exactly zero.

:func:`factor_chain` is the factor kernel: one LAPACK QR of the support
in growth order, one product ``Q.T A`` and one solve with the triangular
factor give the coefficient table of the probe atoms, every projected
norm along the chain and the triangular factor itself, reading the
dictionary in place and without ever forming a projected matrix; it
also takes a ``(T, m, n)`` stack of dictionaries, through the same
calls.  The certificate values, the BRC-OMP tables of one support or a
brc-map cell, the failure inputs and the recursion chains all read it.
It holds little scratch besides its outputs: at 200 x 600 with k = 40 a
call peaks near 0.54 of the dictionary's size on gaussian dictionaries
and near 0.64 on hybrid ones, where the norm safeguard recomputes some
probes (nearly all at t_max >= 100), in blocks of 64 columns.  So a
phase-curve trial stays well below two dictionaries and reuses the
pages the previous trial freed instead of faulting them in again.

Every factorization and SVD of the package runs in numpy's bundled
LAPACK (``numpy.linalg``), and every upper-triangular solve in one
sweep of the OpenBLAS bundled with it (:func:`_solve_upper`, which opens
the library through ctypes at its first call and takes
``np.linalg.solve`` where there is none), so ``import greedycert``
loads no part of scipy; only the l1 checks load it, for their LP
solver.

A :class:`ProjectionState` holds a frozen dictionary, an orthonormal
basis ``U`` of the active span and the projected-atom norms ``|P a_i|``,
and is extended one atom at a time; every state extended from one
:func:`init_state` shares its dictionary, which is the caller's own
array when that is read-only and owns its data.  An extension costs one
product ``u.T A`` with the new basis direction ``u``: since ``u`` is
orthogonal to ``U``, ``u.T a_i = u.T P a_i``, so the squared norms are
downdated as ``|P a_i|^2 - (u.T a_i)^2``.  A downdated square that falls
below ``RECOMPUTE_FRACTION`` of the column's last exactly computed
square is recomputed from ``a_i - U(U.T a_i)``, the norm-downdate
safeguard of LAPACK's column-pivoted QR (xGEQP3/xLAQPS); the kernel
applies the same rule to the probes' part off the support span.  No
m x n array is formed on the way; :func:`residual` projects just the
columns a caller asks for.  The states, like the kernel, take unit atoms
only; they drive the greedy runs and give the projected norms of the
OLS factors in the SVD route that checks the certificates.
"""

import ctypes
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

from .exceptions import (
    DegenerateAtomError,
    NotNormalizedError,
    RankDeficientError,
    TooLargeError,
)
from .tolerances import TAU_NUM, TAU_RANK, TAU_ZERO

__all__ = [
    "ProjectionState",
    "factor_chain",
    "init_state",
    "state_for",
    "extend_state",
    "residual",
    "compute_spark",
]

# A downdated squared projected norm below this fraction of the column's
# last exactly computed squared norm is recomputed from the basis.
RECOMPUTE_FRACTION = 1e-2

# The kernel recomputes flagged probes this many columns at a time, so
# its scratch stays two m x (at most 65) arrays however many probes are
# flagged (on hybrid dictionaries with t_max >= 100, nearly all).
_RECOMPUTE_BLOCK = 64

# CBLAS enumerators (cblas.h) of the triangular solves
_COL_MAJOR, _NO_TRANS, _UPPER, _NON_UNIT, _LEFT = 102, 111, 121, 131, 141


def _real(x, name):
    """``x`` as a float64 array; a complex one raises ``ValueError``
    naming it, where a cast would drop its imaginary part."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got {x.dtype}")
    return np.asarray(x, dtype=np.float64)


def _as_matrix(a):
    """Accept a plain array or anything with a ``matrix`` attribute."""
    a = _real(getattr(a, "matrix", a), "matrix")
    if a.ndim != 2:
        raise ValueError("expected a 2-D array of column atoms")
    return a


def _finite_matrix(a):
    """:func:`_as_matrix`, scanned for finite entries: for calls that reach no kernel."""
    a = _as_matrix(a)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _located(index, atoms):
    """``"atom 7"`` for an index ``(7,)`` and ``"atom 7 of trial 2"`` for
    an index ``(2, 7)`` into a stack; ``atoms`` labels the columns, and
    without labels the column is named by its position."""
    *trial, i = (int(x) for x in index)
    name = f"column {i}" if atoms is None else f"atom {atoms[i]}"
    return name + (f" of trial {trial[0]}" if trial else "")


def _qr(a, atoms=None):
    """Economic LAPACK QR of a full-column-rank ``a``, or of every matrix
    of a ``(T, m, k)`` stack, checked by :func:`_check_rank`."""
    m, k = a.shape[-2:]
    if k > m:
        raise RankDeficientError(f"{k} columns in dimension {m} are dependent")
    q, r = np.linalg.qr(a)
    _check_rank(r, atoms)
    return q, r


def _check_rank(r, atoms):
    """Raise :class:`RankDeficientError` when some ``|R_jj| <= TAU_RANK``
    in the triangular factor ``r`` or a stack of them; the message names
    the column (``atoms`` labels it) and, in a stack, the trial."""
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    low = diag <= TAU_RANK
    if low.any():
        i = tuple(np.argwhere(low)[0])
        raise RankDeficientError(
            f"{_located(i, atoms)} is dependent on its predecessors (norm {diag[i]:.3e})"
        )


def _check_unit(norms, atoms):
    """Norms of the atoms labelled ``atoms``, or a ``(T, n)`` stack of
    them, must be 1 within ``TAU_NUM``."""
    bad = np.abs(norms - 1.0) > TAU_NUM
    if bad.any():
        i = tuple(np.argwhere(bad)[0])
        raise NotNormalizedError(f"{_located(i, atoms)} has norm {norms[i]:.12g}, expected 1")


def _unit_squares(a):
    """Column squares of ``a`` or of a ``(T, m, n)`` stack, whose entries
    must be finite (``ValueError``) and columns unit within ``TAU_NUM``;
    messages name the atom and, in a stack, the trial."""
    sq = np.einsum("...ij,...ij->...j", a, a)
    # a non-finite entry makes its column's square non-finite, so the
    # entries need a scan only when some square is
    if not np.isfinite(sq).all():
        bad = np.argwhere(~np.isfinite(a).all(axis=-2))
        if bad.size:
            raise ValueError(f"{_located(bad[0], range(a.shape[-1]))} has non-finite entries")
    _check_unit(np.sqrt(sq), range(a.shape[-1]))
    return sq


@cache
def _openblas():
    """numpy's bundled OpenBLAS, opened through ctypes, or None where the
    numpy build bundles none (one linked against a system BLAS).  The
    library is the one numpy has loaded, so its solves round as numpy's
    and its thread count is numpy's."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


@cache
def _triangular_blas():
    """``cblas_dtrsm`` and ``cblas_dtrsv`` of :func:`_openblas` (64-bit
    integers), typed for ctypes, or None when either is missing."""
    lib = _openblas()
    trsm = getattr(lib, "scipy_cblas_dtrsm64_", None)
    trsv = getattr(lib, "scipy_cblas_dtrsv64_", None)
    if trsm is None or trsv is None:
        return None
    enum, size, ptr = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p
    trsm.argtypes = [enum] * 5 + [size, size, ctypes.c_double, ptr, size, ptr, size]
    trsv.argtypes = [enum] * 4 + [size, ptr, size, ptr, size]
    trsm.restype = trsv.restype = None
    return trsm, trsv


def _solve_upper(r, b):
    """``b`` overwritten with ``r^-1 b`` and returned, for a non-singular
    upper-triangular ``r``.

    A writable float64 vector or Fortran-ordered matrix ``b`` is solved
    in place by one sweep of ``r`` in numpy's own OpenBLAS: ``dtrsv`` for
    one column, ``dtrsm`` for more, on a Fortran copy of ``r``.  Those
    are the calls LAPACK's ``getrs`` makes in ``np.linalg.solve`` after
    its sweep of the exact factor L = I, on the same operands, so the
    result has its bits.  Any other ``b`` (a stack among them), or a
    numpy without that library, takes ``np.linalg.solve`` itself.
    """
    if b.size == 0:
        return b  # BLAS refuses a leading dimension below 1
    blas = _triangular_blas()
    if (blas is None or b.ndim > 2 or b.dtype != np.float64
            or not (b.flags.f_contiguous and b.flags.writeable)):
        b[...] = np.linalg.solve(r, b)
        return b
    trsm, trsv = blas
    k = b.shape[0]
    rf = np.asfortranarray(r, dtype=np.float64)  # held until the call returns
    if rf.shape != (k, k):
        raise ValueError(f"expected a {k} x {k} triangular factor, got shape {rf.shape}")
    if b.ndim == 1 or b.shape[1] == 1:
        trsv(_COL_MAJOR, _UPPER, _NO_TRANS, _NON_UNIT, k, rf.ctypes.data, k, b.ctypes.data, 1)
    else:
        trsm(_COL_MAJOR, _LEFT, _UPPER, _NO_TRANS, _NON_UNIT, k, b.shape[1], 1.0,
             rf.ctypes.data, k, b.ctypes.data, k)
    return b


def _tail_sums(x):
    """Row ``q`` of the result is ``(x[..., q:, :]**2).sum(axis=-2)``, for
    ``q = 0 .. x.shape[-2]``; the last row is the empty sum.  The squares
    are written straight into the result, which is then summed in place
    from the bottom row up in ``np.cumsum``'s order: by one ``cumsum``
    over the reversed rows when they are at least as many as the columns
    (R's k x k support norms), else one row at a time, since ``cumsum``
    runs its slow inner loop along the summed axis."""
    k, p = x.shape[-2:]
    tails = np.empty(x.shape[:-2] + (k + 1, p))
    np.square(x, out=tails[..., :k, :])
    tails[..., k, :] = 0.0
    if k >= p:
        terms = tails[..., :k, :][..., ::-1, :]
        np.cumsum(terms, axis=-2, out=terms)
    else:
        for q in range(k - 2, -1, -1):
            np.add(tails[..., q, :], tails[..., q + 1, :], out=tails[..., q, :])
    return tails


def factor_chain(atoms, order, probes):
    """Coefficient table, projected norms and R along a growth order.

    One economic QR ``A_order = Q R``, one product ``Q.T A`` over the
    whole dictionary, read at the probes as ``G``, and one triangular
    solve give, with ``k = len(order)`` and ``p = len(probes)``:

    * ``coef`` (k x p): ``pinv(A_order) A_probes``, rows in growth order;
    * ``probe_norms`` ((k+1) x p): row ``q`` holds ``|P_q a_j|``, the
      probe norms projected off ``span(A_order[:q])``, for ``q = 0 .. k``;
    * ``support_norms`` ((k+1) x k): entry ``[q, i]`` holds
      ``|P_q a_order[i]|``, which is 0 for ``q > i``;
    * ``r`` (k x k): the triangular factor, so that ``G = r @ coef`` and
      ``A_order[:, q:]`` projected off ``span(A_order[:q])`` is
      ``Q[:, q:] @ r[q:, q:]``.

    ``atoms`` may also be a ``(T, m, n)`` stack of dictionaries: one
    stacked QR, product and solve serve every trial, each output gains a
    leading T axis, and trial t's outputs depend on ``atoms[t]`` alone.

    Every squared norm is a sum of non-negative terms:
    ``|P_q a_j|^2 = sum_{l>=q} G[l, j]^2 + |P_k a_j|^2`` and
    ``|P_q a_order[i]|^2 = sum_{q<=l<=i} R[l, i]^2``, so the tail sums
    keep their relative accuracy (``1 - cumsum(G**2)`` would not).  The
    probes' part off ``span(A_order)`` is downdated as ``|P_k a_j|^2 =
    |a_j|^2 - sum_l G[l, j]^2`` from one column-norm pass, with the
    safeguard of :func:`extend_state`: a square below
    ``RECOMPUTE_FRACTION * |a_j|^2`` is recomputed as ``|a_j - Q G_j|^2``
    for those columns of that trial only, so small norms keep their
    relative accuracy too.  The dictionary is read in place: the probes
    are never gathered into a copy, and no m x n array is formed.  The
    scratch is ``Q``, the k x n product ``Q.T A`` and two m x (at most
    65) arrays, as the recomputed columns go in blocks of 64: the
    squares of ``G`` go straight into the buffer that becomes
    ``probe_norms``, and the solve (:func:`_solve_upper`) writes
    ``coef`` over ``G`` in one sweep of a Fortran copy of ``R``, its
    only scratch; a stack is solved by ``np.linalg.solve``.

    Each check is made per trial, and its message names the atom and, in
    a stack, the trial: entries must be finite (``ValueError``), every
    atom must have unit norm within ``TAU_NUM`` (:class:`NotNormalizedError`),
    and :class:`RankDeficientError` is raised when ``k > m`` or some
    ``|R_ii| <= TAU_RANK``; otherwise every support atom keeps a
    projected norm ``|P_q a_order[i]| >= |R_ii| > TAU_RANK > TAU_ZERO``
    at every depth ``q <= i`` where it is still unselected.
    """
    a = _real(getattr(atoms, "matrix", atoms), "matrix")
    if a.ndim not in (2, 3):
        raise ValueError("expected a matrix or a stack of matrices of column atoms")
    order = np.asarray(order, dtype=np.intp)
    probes = np.asarray(probes, dtype=np.intp)
    sq = _unit_squares(a)[..., probes]
    q, r = _qr(a[..., order], order)
    g = (q.swapaxes(-1, -2) @ a)[..., probes]
    tails = _tail_sums(g)
    off = sq - tails[..., 0, :]
    flagged = off < RECOMPUTE_FRACTION * sq
    trials = np.argwhere(flagged.any(axis=-1)) if flagged.any() else ()
    for t in map(tuple, trials):  # t == () for one matrix
        flat = np.flatnonzero(flagged[t])
        # a lone last column joins the block before it: numpy would
        # multiply it as a vector (gemv), which rounds differently
        starts = list(range(0, max(flat.size - 1, 1), _RECOMPUTE_BLOCK)) + [flat.size]
        for lo, hi in zip(starts, starts[1:]):
            cols = flat[lo:hi]
            x = np.take(a[t], probes[cols], axis=1)  # C order like q @ g: -= needs no buffer
            x -= q[t] @ g[t][:, cols]
            off[t][cols] = np.einsum("ij,ij->j", x, x)
    tails += off[..., None, :]
    probe_norms = np.sqrt(tails, out=tails)
    support_norms = np.sqrt(_tail_sums(r))  # R is upper triangular
    # the table takes G's place and (Fortran) order, by which the
    # products that read it round
    return _solve_upper(r, g), probe_norms, support_norms, r


@dataclass(frozen=True)
class ProjectionState:
    """Orthonormal basis of the active span and the projected-atom norms.

    ``basis`` (m x t) spans ``A_active``; ``norms[i]`` is ``|P a_i|``,
    exactly 0 for active atoms.  ``exact_sq[i]`` is the squared norm of
    column ``i`` at its last exact computation, against which the
    downdate safeguard of :func:`extend_state` compares.
    """

    atoms: np.ndarray
    active: tuple
    basis: np.ndarray
    norms: np.ndarray
    exact_sq: np.ndarray

    @property
    def n(self):
        return self.atoms.shape[1]


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


def _project(basis, x):
    """``x`` projected off ``span(basis)``; the second pass removes the
    rounding left by the first.  A vector is left as it is; the columns
    of a C-ordered matrix are projected in place."""
    if x.ndim == 1:
        x = x - basis @ (basis.T @ x)
        return x - basis @ (basis.T @ x)
    xt = x.T  # Fortran ordered: the columns of x are its rows
    for _ in range(2):
        xt -= (xt @ basis) @ basis.T
    return x


def init_state(atoms):
    """Start a projection state with an empty active set.

    Entries must be real and finite and column norms 1 within ``TAU_NUM``
    (selection by projected residual correlations assumes unit atoms).  The state and every
    state extended from it share one frozen dictionary: a read-only
    array that owns its data, such as every :class:`Dictionary` matrix,
    is kept as it is; a writable array or a view is copied and the copy
    frozen, so that later writes by the caller do not reach the state.
    """
    a = _as_matrix(atoms)
    exact_sq = _unit_squares(a)
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy()
    norms = np.sqrt(exact_sq)
    basis = np.empty((a.shape[0], 0))
    _freeze(a, basis, norms, exact_sq)
    return ProjectionState(
        atoms=a,
        active=(),
        basis=basis,
        norms=norms,
        exact_sq=exact_sq,
    )


def state_for(atoms, active):
    """Projection state with the given atoms already selected, in order."""
    state = init_state(atoms)
    for i in active:
        state = extend_state(state, i)
    return state


def extend_state(state, index):
    """Add atom ``index`` to the active set, returning a new state.

    The new basis direction comes from the atom projected twice off the
    basis; one product ``u.T A`` gives the downdated norms.  Active atoms
    get norm exactly 0.  Raises :class:`DegenerateAtomError` if the atom
    already lies in the active span.
    """
    index = int(index)
    if index < 0 or index >= state.n:
        raise IndexError(f"atom index {index} out of range")
    if index in state.active:
        raise DegenerateAtomError(f"atom {index} is already active")
    old = state.norms
    if old[index] <= TAU_ZERO:
        raise DegenerateAtomError(
            f"atom {index} lies in the active span (projected norm {old[index]:.3e})"
        )

    u = _project(state.basis, state.atoms[:, index])
    d = np.linalg.norm(u)
    if d <= TAU_ZERO:
        raise DegenerateAtomError(f"atom {index} lies in the active span")
    u = u / d
    basis = np.column_stack([state.basis, u])
    active = state.active + (index,)
    idx = list(active)

    coef = u @ state.atoms  # equals u.T P A, as u is orthogonal to the basis
    sq = old * old - coef * coef
    exact_sq = state.exact_sq.copy()
    sq[idx] = exact_sq[idx] = 0.0
    # squares that fell too far below their last exact value, every
    # negative one included, are recomputed
    cols = np.flatnonzero(sq < RECOMPUTE_FRACTION * exact_sq)
    if cols.size:
        p = _project(basis, np.take(state.atoms, cols, axis=1))  # a C-ordered copy
        sq[cols] = exact_sq[cols] = np.einsum("ij,ij->j", p, p)
    new_norms = np.sqrt(sq)
    _freeze(basis, new_norms, exact_sq)
    return ProjectionState(
        atoms=state.atoms,
        active=active,
        basis=basis,
        norms=new_norms,
        exact_sq=exact_sq,
    )


def residual(state, y):
    """Project ``y`` (a vector, or columns side by side) on the
    orthogonal complement of the active span."""
    y = _real(y, "y")
    return _project(state.basis, y if y.ndim == 1 else np.array(y, order="C"))


def compute_spark(a, max_size):
    """Smallest number of dependent columns, searched up to ``max_size``.

    Returns the spark if some dependent subset of size <= ``max_size``
    exists (a zero column alone is one: spark 1), else ``None`` (meaning
    spark > ``max_size``).  Any m + 1 columns in R^m are dependent, so
    sizes past min(n, m + 1) are never searched.  The budget is 10**7
    singular-value decompositions, one per subset of size
    1..min(max_size, m), counted before the search; larger requests
    raise :class:`TooLargeError`, and a negative ``max_size`` raises
    ``ValueError``.
    """
    a = _finite_matrix(a)
    m, n = a.shape
    if int(max_size) < 0:
        raise ValueError(f"max_size must be at least 0, got {int(max_size)}")
    max_size = min(int(max_size), n, m + 1)
    total = sum(comb(n, s) for s in range(1, min(max_size, m) + 1))
    if total > 10**7:
        raise TooLargeError(f"{total} subsets exceed the 1e7 enumeration budget")
    for size in range(1, max_size + 1):
        if size > m:
            return size  # more columns than rows is always dependent
        for subset in combinations(range(n), size):
            sv = np.linalg.svd(a[:, subset], compute_uv=False)
            if sv[-1] <= TAU_RANK:
                return size
    return None
