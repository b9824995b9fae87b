"""The position-scanning ordered embedding, kept as an independent reference.

`find_ordered_copy` draws the candidates for each target vertex from
the host's incidence lists.  This module keeps the search
that scans every host position for each target vertex and filters only
by degree and by the edges closed so far.  It shares no candidate
generation with the package's search, so equal results (the least
image tuple, or None) check that the package never drops a position
that could succeed.
"""

from typing import Optional

from treeramsey.families import OrderedHypergraph


def find_ordered_copy_by_scan(
    host: OrderedHypergraph, target: OrderedHypergraph
) -> Optional[tuple[int, ...]]:
    """Least order-preserving embedding of target into host, or None.

    Candidates are filtered by degree and checked edge-by-edge as soon
    as an edge's last vertex is placed; scanning host positions in
    increasing order makes the returned image tuple lexicographically
    least.
    """
    if not target.edges:
        raise ValueError("target must have at least one edge")
    host_edges = host.edge_set
    host_deg = [0] * (host.v + 1)
    for e in host.edges:
        for p in e:
            host_deg[p] += 1
    target_deg = [0] * (target.v + 1)
    edges_by_max: dict[int, list[tuple[int, ...]]] = {}
    for e in target.edges:
        for p in e:
            target_deg[p] += 1
        edges_by_max.setdefault(max(e), []).append(e)

    image = [0] * (target.v + 1)

    def place(i):
        if i > target.v:
            return tuple(image[1:])
        lo = image[i - 1] + 1 if i > 1 else 1
        for cand in range(lo, host.v - (target.v - i) + 1):
            if host_deg[cand] < target_deg[i]:
                continue
            image[i] = cand
            if all(
                tuple(sorted(image[p] for p in e)) in host_edges
                for e in edges_by_max.get(i, ())
            ):
                result = place(i + 1)
                if result is not None:
                    return result
        return None

    return place(1)
