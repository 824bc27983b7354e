"""Exact-recovery and bad-recovery certificates for OMP and OLS.

The central quantity is the interference factor of a wrong atom ``a_j``
against the not-yet-selected part Q* \\ Q of a true support Q*, given a
partial selection Q inside Q*.  Under OMP it is Tropp's ERC factor, the
l1 mass of those rows of ``C = pinv(A_Qstar) a_j``; under OLS the same
rows are weighted by the projected-norm ratios ``|P_q a_i| / |P_q a_j|``
(0 when ``P_q a_j`` vanishes).

The values come from the factor kernel :func:`linalg.factor_chain`: one
QR of the support with Q first gives C, every projected norm and the
triangular factor.  Its two readers, :func:`_chain_factors` (the depths
of one growth order) and :func:`_subset_factors` (each subset selected
first, re-ordered by a k x k QR of the triangular factor: O(k^2 p) per
subset for p wrong atoms), compute both rules alike: one contraction
``weights . |C|``, with weights 1 on the rows still to be selected (OMP)
or their projected norms (OLS), then :func:`_per_probe`, which divides
by ``|P_q a_j|`` (OLS only) and zeroes probes with ``|P_q a_j| <=
TAU_ZERO``.  The leave-one-out rows of :func:`brc_omp` are the rows of
one table ``pinv(A_Qstar) A_off`` from the same kernel, which also takes
the stacked dictionaries of a brc-map cell.

Every decision at 1 is made by one of two rules, which the experiments
and :func:`greedy.build_failure_input` read too: :func:`_erc_rule` (the
largest factor, 0 with no probe, holds below 1) and :func:`_brc_rule`
(the smallest leave-one-out row maximum holds at 1 or above);
:func:`_report` builds a report from a rule's aggregate and verdict.  An
exactness certificate that holds means the next selection is a true
atom for every reachable Q of its cardinality; the badness certificate
means the full support is unreachable for any input supported on it.

Checked mode compares the kernel with one second route that shares no
factorization with it: ``pinv(A_Qstar) A_js`` from one m x k SVD and one
k x n product (:func:`_pinv_table`), read with its own arithmetic by
:func:`_cross_check` (OLS weights from a :class:`linalg.ProjectionState`
for Q), so that a fault in the rules' shared step cannot pass it.
:func:`f_omp`, :func:`f_ols`, :func:`erc_oxx_subset` and, unless
``fast``, :func:`brc_omp` raise :class:`FormMismatchError` when the
routes disagree; :func:`erc_oxx_cardinality` reads the kernel alone, as
the route would multiply an enumeration of up to 1e6 subsets.
"""

from dataclasses import dataclass, field
from itertools import combinations, islice
from math import comb

import numpy as np

from .exceptions import FormMismatchError, TooLargeError
from .linalg import _as_matrix, _check_rank, factor_chain, state_for
from .tolerances import EPS, FORM_ROUNDING, TAU_FORM, TAU_RECURSION, TAU_STRICT, TAU_ZERO

__all__ = [
    "CertificateReport",
    "f_omp",
    "f_ols",
    "erc_oxx_subset",
    "erc_oxx_cardinality",
    "brc_omp",
    "recursion_chain",
]


# erc_oxx_cardinality evaluates its subsets in chunks whose batched
# (k - card) x p arrays hold about this many entries (256 KiB of float64).
_CHUNK_ENTRIES = 2**15

_ALGORITHMS = ("omp", "ols")


def _check_algorithm(algorithm):
    if algorithm not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")


def _check_support(n, qstar, q=(), j=None):
    qstar = tuple(int(i) for i in qstar)
    q = tuple(int(i) for i in q)
    if len(set(qstar)) != len(qstar):
        raise ValueError("duplicate indices in the support")
    if len(set(q)) != len(q):
        raise ValueError("duplicate indices in the partial selection")
    if not all(0 <= i < n for i in qstar):
        raise ValueError(f"support {qstar} outside 0..{n - 1}")
    if not set(q) <= set(qstar):
        raise ValueError("partial selection must lie inside the support")
    if qstar and len(q) >= len(qstar):
        raise ValueError("partial selection must be a strict subset")
    if j is not None and not 0 <= int(j) < n:
        raise ValueError(f"probe atom {int(j)} outside 0..{n - 1}")
    if j is not None and int(j) in set(qstar):
        raise ValueError("the probe atom must lie outside the support")
    return qstar, q


def _wrong_atoms(n, qstar):
    """The atoms outside the support, in index order, as an ``intp``
    array, which the factor kernel takes as it is."""
    outside = np.ones(n, dtype=bool)
    outside[list(qstar)] = False
    return np.flatnonzero(outside)


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a certificate evaluation.

    ``per_atom`` pairs an atom index with its factor: the probed wrong
    atoms for exactness certificates, the dropped true atom (paired with
    its worst wrong factor) for the badness certificate.  ``verdict`` is
    True when the certificate holds; ``margin`` is the distance of the
    aggregate from the decision line at 1.
    """

    kind: str
    algorithm: str
    per_atom: tuple
    aggregate: float
    verdict: bool
    margin: float
    details: dict = field(default_factory=dict)

    def to_json(self):
        out = {
            "kind": self.kind,
            "algorithm": self.algorithm,
            "per_atom": [[int(j), float(f)] for j, f in self.per_atom],
            "aggregate": float(self.aggregate),
            "verdict": bool(self.verdict),
            "margin": float(self.margin),
        }
        if self.details:
            out["details"] = dict(self.details)
        return out


def _rows(depths):
    """``depths`` as a slice when they are consecutive, so that the rows
    they pick are read as a view, not copied; otherwise as a list."""
    depths = list(depths)
    if depths and depths == list(range(depths[0], depths[0] + len(depths))):
        return slice(depths[0], depths[0] + len(depths))
    return depths


def _per_probe(vals, den, algorithm):
    """Both rules' step after their contraction ``vals``, in place: divide by
    ``den = |P_q a_j|`` (OLS only), zero the probes with ``den <= TAU_ZERO``."""
    dead = den <= TAU_ZERO
    if algorithm == "ols":
        np.divide(vals, den, out=vals, where=~dead)
    np.copyto(vals, 0.0, where=dead)
    return vals


def _chain_factors(chain, depths, algorithm):
    """Factors of the probes after each prefix ``order[:q]``, q in ``depths``.

    ``chain`` is the result of :func:`linalg.factor_chain` on the whole
    support in growth order.  Returns an array of shape ``(len(depths),
    len(probes))``: the product ``weights @ |C|`` with one row of weights
    per depth q, 1 on the rows ``l >= q`` still to be selected (OMP) or
    the support norms at q (OLS), then :func:`_per_probe`.

    The coefficient table of ``chain`` is replaced by its absolute
    values, in place (a caller that needs the signs of ``C`` reads them
    first), and consecutive depths are read as slices.
    """
    coef, probe_norms, support_norms, _ = chain
    c = np.abs(coef, out=coef)
    rows = _rows(depths)
    if algorithm == "omp":
        weights = (np.arange(len(c)) >= np.arange(len(c) + 1)[rows][:, None]) * 1.0
    else:
        # support_norms[q, l] vanishes for l < q, so the product only
        # weighs the rows still to be selected
        weights = support_norms[rows]
    return _per_probe(weights @ c, probe_norms[rows], algorithm)


def _subset_factors(chain, subsets, algorithm):
    """Factors of the probes after each subset of the support was
    selected first, from the kernel's chain in support order.

    ``subsets`` (b x card) holds positions into the support, one subset
    S per row; its growth order is S followed by the rest of the
    support in support order.  With ``A_Qstar = Q R``, the k x k QR
    ``R[:, order] = Q' R'`` gives ``A_order = (Q Q') R'``: ``R'`` is that
    order's triangular factor, the coefficient rows are permuted, and
    ``Q'.T G = R' coef[order]``.  At depth ``card`` only the rows of
    the rest enter, and the projected norms are the kernel's
    non-negative sums: column sums of ``R'[card:, card:]**2`` for the
    support atoms, and of ``(R'[card:, card:] coef[rest])**2`` plus the
    probes' squared part off ``span(A_Qstar)`` for the probes.  The
    factors are the rules of :func:`_chain_factors` at that depth, whose
    OMP weights are all 1 on the rest.  Returns a b x p array; the cost
    is O(k^2 p) per subset instead of a QR of the m x k support.
    """
    coef, probe_norms, _, r = chain
    b, card = subsets.shape
    k = r.shape[0]
    outside = np.ones((b, k), dtype=bool)
    outside[np.arange(b)[:, None], subsets] = False
    rest = np.nonzero(outside)[1].reshape(b, k - card)
    order = np.concatenate([subsets, rest], axis=1)
    rp = np.linalg.qr(r[:, order].transpose(1, 0, 2), mode="r")
    _check_rank(rp, None)
    tail = rp[:, card:, card:]
    c = coef[rest]
    g = tail @ c
    den = np.sqrt(np.einsum("bij,bij->bj", g, g) + probe_norms[-1] ** 2)
    np.abs(c, out=c)
    if algorithm == "omp":
        weights = np.ones((b, k - card))
    else:
        weights = np.sqrt(np.einsum("bij,bij->bj", tail, tail))
    return _per_probe(np.einsum("bi,bij->bj", weights, c), den, algorithm)


def _pinv_table(a, qstar, js):
    """``pinv(A_Qstar) A_js`` from one SVD ``A_Qstar = U S V.T``, as
    ``V S^-1 (U.T A)[:, js]`` with one k x n product, rows in support
    order: the cross-check route of checked mode, sharing no
    factorization with the kernel's QR."""
    u, s, vt = np.linalg.svd(a[:, qstar], full_matrices=False)
    return (vt.T / s) @ (u.T @ a)[:, js]


def _cross_check(a, qstar, q, js, algorithm, vals, probe_norms):
    """Raise :class:`FormMismatchError` unless the SVD route gives the
    kernel values ``vals`` of the atoms ``js`` at ``q``, within
    ``TAU_FORM`` each: the l1 mass of the rows ``Qstar \\ q`` of
    :func:`_pinv_table` (OMP), or those rows weighted by ``|P_q a_i| /
    |P_q a_j|`` from :func:`linalg.state_for` (OLS; 0 when ``|P_q a_j|
    <= TAU_ZERO``).  An OLS factor is divided by ``|P_q a_j|``
    (``probe_norms``), so its bound adds the rounding both routes carry
    near the selected span, ``FORM_ROUNDING * eps / |P_q a_j|``.
    """
    rows = [p for p, i in enumerate(qstar) if i not in q]
    table = np.abs(_pinv_table(a, qstar, js)[rows])
    bound = TAU_FORM
    if algorithm == "omp":
        want = table.sum(axis=0)
    else:
        norms = state_for(a, q).norms
        jn = norms[js]
        dead = jn <= TAU_ZERO
        want = norms[[qstar[p] for p in rows]] @ table / np.where(dead, 1.0, jn)
        want[dead] = 0.0
        bound = bound + FORM_ROUNDING * EPS / np.maximum(probe_norms, TAU_ZERO)
    excess = np.abs(vals - want) - bound
    if len(js) and excess.max() > 0:
        raise FormMismatchError(
            f"factor routes at q={tuple(q)} disagree by {excess.max():.3e} beyond their bound"
        )


def _factors(a, qstar, q, js, algorithm):
    """Factors of the atoms ``js`` given partial selection ``q``.

    Returns the kernel values, read at depth ``|q|`` of the growth order
    ``q + (qstar \\ q)``, once the SVD route has reproduced them
    (:func:`_cross_check`).
    """
    _check_algorithm(algorithm)
    order = list(q) + [i for i in qstar if i not in q]
    chain = factor_chain(a, order, js)
    vals = _chain_factors(chain, [len(q)], algorithm)[0]
    _cross_check(a, qstar, q, js, algorithm, vals, chain[1][len(q)])
    return vals


def _erc_rule(vals):
    """The largest factor along the last axis of ``vals`` (0 with no
    probe: factors are >= 0) and whether it is below 1, the ERC-OXX
    decision, for one selection or for each row of a table of them."""
    aggregate = vals.max(axis=-1, initial=0.0)
    return aggregate, aggregate < 1.0


def _brc_rule(coef):
    """Row maxima of ``|C|``, their minimum (the aggregate) and whether it
    is at least 1, for a table ``C = pinv(A_Qstar) A_off`` or a stack of
    them: row i holds the worst wrong factor when ``qstar[i]`` is left last."""
    rows = np.abs(coef).max(axis=-1)
    aggregate = rows.min(axis=-1)
    return rows, aggregate, aggregate >= 1.0


def _report(kind, algorithm, per_atom, aggregate, verdict, details):
    """The report of a rule's ``aggregate`` and ``verdict``, with the
    aggregate's distance from 1 as its margin."""
    aggregate = float(aggregate)
    return CertificateReport(kind=kind, algorithm=algorithm, per_atom=per_atom,
                             aggregate=aggregate, verdict=bool(verdict),
                             margin=abs(aggregate - 1.0), details=details)


def f_omp(a, qstar, q, j):
    """OMP interference factor of atom ``j`` for partial selection ``q``;
    at ``q = ()`` it is Tropp's ERC factor (l1 norm of the support
    coefficients of ``a_j``)."""
    a = _as_matrix(a)
    qstar, q = _check_support(a.shape[1], qstar, q, j)
    return float(_factors(a, qstar, q, [int(j)], "omp")[0])


def f_ols(a, qstar, q, j):
    """OLS interference factor of atom ``j`` for partial selection ``q``."""
    a = _as_matrix(a)
    qstar, q = _check_support(a.shape[1], qstar, q, j)
    return float(_factors(a, qstar, q, [int(j)], "ols")[0])


def erc_oxx_subset(a, qstar, q, algorithm):
    """Exactness certificate at one explicit partial selection."""
    a = _as_matrix(a)
    qstar, q = _check_support(a.shape[1], qstar, q)
    js = _wrong_atoms(a.shape[1], qstar)
    vals = _factors(a, qstar, q, js, algorithm)
    return _report("erc-oxx-subset", algorithm, tuple(zip(js.tolist(), vals.tolist())),
                   *_erc_rule(vals), {"q": list(q)})


def erc_oxx_cardinality(a, qstar, card, algorithm):
    """Exactness certificate over every partial selection of one size.

    True means: whatever ``card`` true atoms were selected first, the
    next selection is again a true atom.  ``card = 0`` coincides with
    the plain l1 certificate.  ``worst_subset`` is the first subset, in
    :func:`itertools.combinations` order, whose largest factor lies within
    ``TAU_STRICT`` of the aggregate, so that rounding does not pick it
    between subsets that tie.

    One kernel call (:func:`linalg.factor_chain`) in support order gives
    the coefficient table; each subset costs a k x k QR and a
    ``(k - card)**2 p`` product for p wrong atoms
    (:func:`_subset_factors`), evaluated in chunks of subsets whose
    batched arrays stay near ``_CHUNK_ENTRIES`` entries.  The
    enumeration is budgeted at 10**6 subsets.  The values come from the
    kernel alone, without the cross-check.  The closed form for OMP
    (per probe, the sum of its ``k - card`` largest ``|C_ij|``) is not
    used: one path for both rules keeps ``worst_subset`` and the zero
    factor of a probe inside ``span(A_S)`` exact.
    """
    a = _as_matrix(a)
    qstar, _ = _check_support(a.shape[1], qstar)
    card = int(card)
    k = len(qstar)
    if not 0 <= card < k:
        raise ValueError("cardinality must satisfy 0 <= card < |support|")
    if comb(k, card) > 10**6:
        raise TooLargeError(f"{comb(k, card)} subsets exceed the 1e6 budget")
    _check_algorithm(algorithm)
    js = _wrong_atoms(a.shape[1], qstar)
    chain = factor_chain(a, qstar, js)
    worst = np.full(len(js), -np.inf)
    top = -np.inf
    # (largest factor, subset) of each subset above all earlier ones and
    # within TAU_STRICT of the largest factor so far; the answer is among them
    records = []
    subsets = combinations(range(k), card)
    size = max(1, _CHUNK_ENTRIES // ((k - card) * max(1, len(js))))
    while chunk := list(islice(subsets, size)):
        positions = np.array(chunk, dtype=np.intp).reshape(len(chunk), card)
        vals = _subset_factors(chain, positions, algorithm)
        np.maximum(worst, vals.max(axis=0), out=worst)
        tops = _erc_rule(vals)[0]
        highs = np.maximum.accumulate(np.concatenate([[top], tops]))
        records += [(tops[i], chunk[i]) for i in np.flatnonzero(tops > highs[:-1])]
        top = float(highs[-1])
        records = [rec for rec in records if rec[0] >= top - TAU_STRICT]
    worst_subset = [qstar[i] for i in records[0][1]]
    # the largest entry of `worst` is the largest factor of every subset
    return _report("erc-oxx-cardinality", algorithm, tuple(zip(js.tolist(), worst.tolist())),
                   *_erc_rule(worst), {"cardinality": card, "worst_subset": worst_subset})


def brc_omp(a, qstar, fast=False):
    """OMP badness certificate for a full support.

    Aggregate is the minimum over all leave-one-out selections of the
    worst wrong factor; at least 1 means OMP cannot select all support
    atoms in k steps for any input carried by the support, whatever the
    coefficients.  The factor of wrong atom j when only support atom i
    is left is ``|C_ij|``, with ``C = pinv(A_Qstar) A_off`` from one
    kernel call (:func:`linalg.factor_chain`), read by :func:`_brc_rule`.
    Atoms must have unit norm within ``TAU_NUM``
    (:class:`NotNormalizedError`), as in every other certificate.
    ``easiest_last_atom`` is the lowest atom index among the rows within
    ``TAU_STRICT`` of the smallest, so that rounding does not pick it
    between rows that tie.  Unless ``fast``, every ``|C_ij|`` must
    match the SVD route of checked mode (:func:`_pinv_table`) within
    ``TAU_FORM`` (:class:`FormMismatchError` otherwise); the check adds
    one m x k SVD and one k x n product.
    """
    a = _as_matrix(a)
    qstar, _ = _check_support(a.shape[1], qstar)
    if len(qstar) < 1:
        raise ValueError("support must not be empty")
    js = _wrong_atoms(a.shape[1], qstar)
    if not js.size:
        raise ValueError("no wrong atom to probe")
    coef = factor_chain(a, qstar, js)[0]
    rowmax, aggregate, verdict = _brc_rule(coef)

    if not fast:
        gap = np.abs(np.abs(coef) - np.abs(_pinv_table(a, qstar, js))).max()
        if gap > TAU_FORM:
            raise FormMismatchError(
                f"leave-one-out rows of the QR and SVD routes disagree by {gap:.3e}"
            )

    easiest = min(i for i, v in zip(qstar, rowmax) if v - aggregate <= TAU_STRICT)
    return _report("brc-omp", "omp", tuple(zip(qstar, rowmax.tolist())), aggregate, verdict,
                   {"easiest_last_atom": easiest})


def _f_omp_update(factor, coef_ell):
    """OMP factor after activating one more true atom.

    ``coef_ell`` is the entry of ``pinv(A_Qstar) a_j`` at the atom being
    activated; the factor simply loses that l1 contribution.
    """
    return float(factor) - abs(float(coef_ell))


def _f_ols_recursive(beta, eta_j, chi_j, etas, chis):
    """OLS factor one level up the chain, from deeper-level data.

    ``beta`` holds the coefficients of the wrong atom against the
    normalized projected remaining true atoms *after* the extension;
    ``eta``/``chi`` are the extension coefficients of the wrong atom
    (scalars) and of the remaining true atoms (vectors).
    """
    beta = np.asarray(beta, dtype=np.float64)
    etas = np.asarray(etas, dtype=np.float64)
    chis = np.asarray(chis, dtype=np.float64)
    cross = float(np.sum(beta * chis / etas))
    mass = float(np.sum(np.abs(beta) / etas))
    return abs(float(chi_j) - float(eta_j) * cross) + float(eta_j) * mass


def recursion_chain(a, qstar, j, order, algorithm):
    """Factors of atom ``j`` along a nested selection chain.

    ``order`` lists the true atoms in activation order; the returned
    list holds the factor at depth 0..len(order).  One kernel call in
    the growth order ``order + (qstar \\ order)`` gives the direct value
    at every depth, and each returned value is rebuilt from the same
    call by the one-step recursion: the OMP factor loses the coefficient
    of the atom activated at that step (:func:`_f_omp_update`), the OLS
    factor at depth p follows from depth p+1 and the norm-reduction and
    alignment pairs of that step (:func:`_f_ols_recursive`).  Recursion
    and direct values must agree within ``TAU_RECURSION``
    (:class:`FormMismatchError` otherwise).  Both come from the same QR,
    so this check guards the recursion algebra only, not the kernel; the
    independent comparison with the projected route of
    ``tests/projected_oracle.py`` is the test suite's ``TestRecursion``.
    """
    a = _as_matrix(a)
    qstar, order = _check_support(a.shape[1], qstar, order, j)
    j = int(j)
    _check_algorithm(algorithm)
    depth = len(order)
    chain = factor_chain(a, order + tuple(i for i in qstar if i not in order), [j])
    coef, probe_norms, support_norms, r = chain
    c = coef[:, 0].copy()  # read first: _chain_factors leaves |C| in coef
    direct = [float(v) for v in _chain_factors(chain, range(depth + 1), algorithm)[:, 0]]

    if algorithm == "omp":
        values = [direct[0]]
        for p in range(depth):
            values.append(_f_omp_update(values[-1], c[p]))
    else:
        # at depth p, with s = sign(R[p, p]) the orientation of the new
        # basis direction and G = R C the probe in the QR basis:
        # eta_j = jn[p+1] / jn[p], chi_j = s G[p] / jn[p] for the wrong
        # atom, eta_i = tn[p+1, i] / tn[p, i], chi_i = s R[p, i] / tn[p, i]
        # for each true atom i still unselected at p+1, and beta_i =
        # tn[p+1, i] C[i] / jn[p+1] its coefficient on the normalized
        # projected system at p+1
        jn, tn = probe_norms[:, 0], support_norms
        g = r @ c
        values = [0.0] * (depth + 1)
        values[-1] = direct[-1]
        for p in range(depth - 1, -1, -1):
            if jn[p + 1] <= TAU_ZERO:
                # wrong atom swallowed by the deeper span: factor at
                # this depth must come from the direct route
                values[p] = direct[p]
                continue
            s = np.sign(r[p, p])
            rest = slice(p + 1, None)
            beta = tn[p + 1, rest] * c[rest] / jn[p + 1]
            values[p] = _f_ols_recursive(
                beta,
                jn[p + 1] / jn[p],
                s * g[p] / jn[p],
                tn[p + 1, rest] / tn[p, rest],
                s * r[p, rest] / tn[p, rest],
            )

    gap = max(abs(v - d) for v, d in zip(values, direct))
    if gap > TAU_RECURSION:
        raise FormMismatchError(f"recursion and direct factors differ by {gap:.3e}")
    return values
