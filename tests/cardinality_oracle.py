"""Test-only reference for :func:`greedycert.erc_oxx_cardinality`.

The per-subset route: one factor-kernel call (:func:`linalg.factor_chain`)
per selection S, in the growth order S followed by the rest of the
support, read at depth |S|.  The package reads every subset off one
factorization of the support instead; this enumeration stays here as its
oracle.
"""

from itertools import combinations

import numpy as np

from greedycert import certificates as cert
from greedycert.linalg import _as_matrix, factor_chain


def cardinality(a, qstar, card, algorithm):
    """Every subset's factors, the per-atom worst and the first worst subset.

    Returns ``(js, per_atom, aggregate, worst_subset, tops, den)``: the
    wrong atoms, their worst factor over the subsets, the largest factor,
    the first subset in :func:`itertools.combinations` order that attains
    it, ``{subset: its largest factor}``, and per wrong atom the smallest
    nonzero projected norm ``|P_S a_j|`` over the subsets (0 when it is
    never above ``TAU_ZERO``).
    """
    a = _as_matrix(a)
    qstar = tuple(int(i) for i in qstar)
    js = cert._wrong_atoms(a.shape[1], qstar)
    per_atom = np.full(len(js), -np.inf)
    den = np.full(len(js), np.inf)
    tops = {}
    for q in combinations(qstar, card):
        order = list(q) + [i for i in qstar if i not in q]
        chain = factor_chain(a, order, js)
        vals = cert._chain_factors(chain, [card], algorithm)[0]
        np.maximum(per_atom, vals, out=per_atom)
        norms = chain[1][card]
        den = np.minimum(den, np.where(norms > cert.TAU_ZERO, norms, np.inf))
        tops[q] = float(vals.max()) if len(js) else 0.0
    worst_subset = max(tops, key=tops.get)  # the first maximal subset
    den[np.isinf(den)] = 0.0
    return js.tolist(), per_atom, tops[worst_subset], worst_subset, tops, den
