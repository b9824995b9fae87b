"""The per-edge gluing, kept as an independent reference.

`steiner.assemble_h` builds each copy's image and its record
(line, *source edge) from the source edges' vertex columns, sorts them
together by image and keeps the records as int tuples; the `provenance`
mapping is derived from them only when read.  This module keeps the
assembly that maps each edge through a position getter, line by line,
and keys the provenance by image in a dict, with the document that
assembly wrote (edges and records as lists).  Equal edges, provenance
and file bytes show that the column form places, orders and merges
every copy the same way.
"""

import itertools
import operator
import random

from treeramsey.steiner import SYSTEM_SCHEMA, _shuffled


def assemble_by_edge(system, plane, seed: int):
    """(edges, provenance) of the glued system: the sorted edges, and
    each edge's copies as (line, source edge) pairs in line order."""
    if plane.order < system.vertex_count:
        raise ValueError("plane too small")
    edges = system.edges
    getters = [
        operator.itemgetter(*(v - 1 for v in e)) if len(e) > 1
        else operator.itemgetter(slice(e[0] - 1, e[0]))
        for e in edges
    ]
    images = []
    sources = []
    for line_id, line in enumerate(plane.lines):
        rng = random.Random(f"assemble:{seed}:{line_id}")
        placed = _shuffled(list(line), rng)  # positions 0..p-1 host vertices 1..p
        images += [tuple(sorted(image_of(placed))) for image_of in getters]
        sources += zip(itertools.repeat(line_id), edges)
    merged = {}
    for image, source in zip(images, sources):
        merged.setdefault(image, []).append(source)
    provenance = {e: tuple(copies) for e, copies in merged.items()}
    return tuple(sorted(provenance)), provenance


def glued_doc_by_edge(v: int, k: int, edges, provenance) -> dict:
    """The glued system's document with every edge and record a list."""
    return {
        "schema": SYSTEM_SCHEMA,
        "v": v,
        "k": k,
        "edges": [list(e) for e in edges],
        "provenance": [
            [[line, *src] for line, src in provenance[e]] for e in edges
        ],
    }
