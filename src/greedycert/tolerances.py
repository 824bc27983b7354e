"""Numeric thresholds shared across the package.

All comparisons against "zero", "rank deficient", "tied" and so on go
through these constants so that every module draws the same lines.
"""

# Agreement tolerance for exact identities on the inputs: unit column
# norms, and A x = 0 for an l1 null-space witness.
TAU_NUM = 1e-9

# recursion_chain's one-step recursion must reproduce the factors read
# directly off the same QR to this, otherwise a FormMismatchError is raised.
TAU_RECURSION = 1e-8

# A column of an orthogonalized system whose remaining norm falls below
# this is treated as linearly dependent on the previous ones.
TAU_RANK = 1e-8

# Norms of unit-scale vectors below this count as exactly zero (projected
# atom inside the current span, null-space component absent).  A greedy
# residual is never compared with it alone: selection stops when no
# inactive score exceeds TAU_ZERO * |r|, a bound relative to the residual.
TAU_ZERO = 1e-10

# Two selection scores within this relative distance of the leader are
# reported as tied.
TAU_TIE = 1e-9

# A greedy run stops successfully once the residual norm drops below
# TAU_SUCCESS_REL * ||y||.
TAU_SUCCESS_REL = 1e-8

# Checked certificates must agree with their SVD route (pseudo-inverse
# table of the support) to this, otherwise a FormMismatchError is raised.
TAU_FORM = 1e-7

# OLS factors (divided by |P a_j|) may disagree by TAU_FORM plus
# FORM_ROUNDING * EPS / |P a_j|; measured gaps reach 2.9 EPS / |P a_j|.
FORM_ROUNDING = 16
EPS = 2.0**-52  # float64 machine epsilon

# Strictness margin for the sign-pattern values v(eps) of the l1
# certificates, whose decision line is 1.  Values inside
# [1 - TAU_STRICT, 1 + TAU_STRICT] are flagged as boundary cases.
TAU_STRICT = 1e-10
