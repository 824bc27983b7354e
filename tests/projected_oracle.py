"""Test-only reference for the certificate factors: the projected route.

Both factors admit an evaluation through the projected system at the
partial selection q: the remaining true atoms projected off
``span(A_q)`` (normalized for OLS) and factored by a QR of their own,
never of ``A_Qstar``.  The package reads the factor kernel instead and
cross-checks it against one SVD of the support; this route stays here
as the oracle of the kernel, of the one-step recursion and of itself
against an explicit projection of the wrong atoms.
"""

import numpy as np
from scipy.linalg import solve_triangular

from greedycert.linalg import _qr, residual, state_for
from greedycert.tolerances import TAU_ZERO


def projected_factors(a, qstar, q, js, algorithm):
    """Factors of the atoms ``js`` through the projected system at ``q``,
    built on a :class:`ProjectionState` and a QR of the projected
    remaining true atoms.

    With ``Qp R`` the QR of the projected (OMP) or normalized-projected
    (OLS) remaining true atoms, ``Qp`` lies in the complement of
    ``span(A_q)``, so ``Qp.T P a_j = Qp.T a_j``: the wrong atoms enter
    unprojected, through one k x n product ``Qp.T A``.  ``Qp`` is
    projected off the span once more, so that the rounding of the QR
    does not carry the selected part of ``a_j`` into the coefficients.
    For OLS the l1 sum is divided by ``|P a_j|``, which normalizes the
    wrong atom; a wrong atom with ``|P a_j| <= TAU_ZERO`` scores 0.
    """
    state = state_for(a, q)
    remaining = [i for i in qstar if i not in q]
    lhs = residual(state, a[:, remaining])
    if algorithm == "ols":
        lhs = lhs / state.norms[remaining]
    qp, r = _qr(lhs)
    qp = residual(state, qp)
    coef = solve_triangular(r, (qp.T @ a)[:, js], check_finite=False)
    proj = np.abs(coef).sum(axis=0)
    jn = state.norms[js]
    alive = jn > TAU_ZERO
    if algorithm == "ols":
        proj /= np.where(alive, jn, 1.0)
    proj[~alive] = 0.0
    return proj
