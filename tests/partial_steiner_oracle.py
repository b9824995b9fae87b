"""The per-subset partial-system check, kept as an independent reference.

`steiner.is_partial_steiner` first compares the number of distinct
ell-sets with the number the distinct edges would have if none
repeated, and scans subset by subset only when some ell-set repeats.
This module keeps the check that always scans, so equal results (the
same least witness, or None) show that the shortcut never hides a
collision and never changes which witness is reported.
"""

import itertools
from typing import Optional

from treeramsey.steiner import SteinerWitness


def is_partial_steiner(edges, k: int, ell: int) -> Optional[SteinerWitness]:
    """Least pair of edges sharing an ell-subset, or None when the
    edges, each of k vertices, form a partial (k, ell)-system."""
    edges = sorted(edges)
    if not 0 <= ell < k or any(len(e) != k for e in edges):
        raise ValueError(f"expected 0 <= ell < k and edges of k = {k} vertices")
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    collisions = []
    for e in edges:
        for shared in itertools.combinations(e, ell):
            if shared in seen and seen[shared] != e:
                collisions.append(SteinerWitness(seen[shared], e, shared))
            else:
                seen[shared] = e
    if not collisions:
        return None
    return min(collisions, key=lambda w: (w.shared, w.first, w.second))
