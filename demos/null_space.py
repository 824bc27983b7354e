"""Convex relaxation on tiny dictionaries: the null-space certificates
against l1 recovery of individual draws.

Whether one vector is the unique l1 minimizer of its measurements
depends only on its support and signs, so ``l1_recovers`` settles each
draw with one sign pattern of the same program: True, False, or None
when the pattern sits on the boundary.
"""

import numpy as np

from greedycert import brc_bp_check, gaussian, l1_recovers, nsp_check

# two generic flat dictionaries, one where the strict null-space
# inequality holds on a two-atom support and one where it does not:
# a True verdict promises every input on the support, a False verdict
# only predicts that some inputs get lost
support = (0, 1)
for seed in (1, 7):
    d = gaussian(3, 5, seed)
    nsp = nsp_check(d, support)
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(20):
        x = np.zeros(5)
        x[list(support)] = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.5, 2.0, 2)
        hits += l1_recovers(d, x) is True  # a boundary draw (None) is not a recovery
    print(f"seed {seed}: verdict={nsp.verdict!s:5} "
          f"(largest v(eps) {nsp.supremum:.4f})  recovered {hits}/20 draws")
print()

# duplicated atoms sit exactly on the boundary: equal mass moves on and
# off the support along the null space, so the verdict is indeterminate
paired = np.hstack([np.eye(3), np.eye(3)])
nsp = nsp_check(paired, (0,))
print(f"paired identity: verdict={nsp.verdict} "
      f"indeterminate={nsp.indeterminate} v = {nsp.supremum:.12f}")
spike = np.eye(6)[0]
print(f"l1_recovers(paired, first spike) is None: {l1_recovers(paired, spike) is None} "
      f"(a tie, as expected)")
print()

# near-parallel atoms plus their sum and difference directions: every
# sign pattern on the pair is beaten (v(eps) > 1: some null vector gains
# more on the pair than it spends off it), so failure is sign-universal
t = 0.1
a1 = np.array([np.cos(t), np.sin(t), 0.0])
a2 = np.array([np.cos(t), -np.sin(t), 0.0])
mid = (a1 + a2) / np.linalg.norm(a1 + a2)
dif = (a1 - a2) / np.linalg.norm(a1 - a2)
coherent = np.column_stack([a1, a2, mid, dif, [0.0, 0.0, 1.0]])
report = brc_bp_check(coherent, (0, 1))
print(f"coherent pair: failure certificate = {report.verdict}")
for eps, supremum, feasible, _ in report.patterns:
    print(f"  pattern {eps}: v(eps) = {supremum:.4f}")
