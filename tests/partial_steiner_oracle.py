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


def is_partial_steiner(edges, ell: int) -> Optional[SteinerWitness]:
    """Least pair of edges sharing an ell-subset, or None when the
    edges (a system's `edges`) form a partial (k, ell)-system."""
    edges = sorted(edges)
    if edges and ell >= len(edges[0]):
        raise ValueError(f"ell must be below the uniformity, got {ell}")
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
