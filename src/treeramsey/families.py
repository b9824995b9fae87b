"""Ordered hypergraph families built from an anchored index set.

A family spec fixes a uniformity k, a ground count n and a (k-1)-subset
I of [n] containing 1.  Members have distinguished vertices x_0 (or x_I)
< x_1 < ... < x_n plus one connector vertex x_J per (k-1)-subset J of
{2..n}, each placed in the closed interval [x_0, x_1]; the edge through
J is {x_J} union {x_j : j in J}, and the special edge goes through I
with x_I = x_0.  Flavors:

  F     connectors may coincide with each other and with x_0/x_1
  G     connectors all distinct and strictly between x_I and x_1
  revF / revG   the same graphs under the reversed vertex order

Members are represented as ordered hypergraphs whose vertices are their
positions 1..v under the total order, with role labels attached.  The
rule above is `member_edges` and `placed_as_member`; every check reads it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .reporting import check_schema, int_rows, write_records

FLAVOR_F = "F"
FLAVOR_REVF = "revF"
FLAVOR_G = "G"
FLAVOR_REVG = "revG"

FLAVORS = (FLAVOR_F, FLAVOR_REVF, FLAVOR_G, FLAVOR_REVG)
_ANCHORED_FLAVORS = (FLAVOR_F, FLAVOR_REVF)

HYPERGRAPH_SCHEMA = "treeramsey/hypergraph/1"


def is_separated(I: Sequence[int], n: int, k: int) -> bool:
    """Whether I = {1, 2, a_3, ...} has all gaps at least n/(2k).

    Gaps are taken between consecutive elements from the second onward,
    with a virtual final element n.  Comparisons are exact (2*k*gap
    versus n), no rounding.
    """
    a = tuple(I)
    if len(a) != k - 1 or any(x >= y for x, y in zip(a, a[1:])):
        return False
    if a[0] != 1 or a[1] != 2:
        return False
    extended = a + (n,)
    return all(
        2 * k * (extended[i + 1] - extended[i]) >= n for i in range(1, k - 1)
    )


def canonical_separated(n: int, k: int) -> tuple[int, ...]:
    """Deterministic separated set {1, 2, 2+g, 2+2g, ...} with g = ceil(n/2k).

    The arithmetic progression uses the minimum legal gap, so it fails
    exactly when no separated set exists; the error names the least
    feasible n.
    """
    if k < 3:
        raise ValueError("uniformity must be >= 3")

    def attempt(m: int) -> Optional[tuple[int, ...]]:
        g = -(-m // (2 * k))
        candidate = (1, 2) + tuple(2 + i * g for i in range(1, k - 2))
        if candidate[-1] <= m and is_separated(candidate, m, k):
            return candidate
        return None

    result = attempt(n)
    if result is not None:
        return result
    m = n + 1
    while attempt(m) is None:
        m += 1
    raise ValueError(
        f"no (n,k)-separated set exists for n={n}, k={k}; minimal feasible n is {m}"
    )


@functools.lru_cache(maxsize=64)
def connector_sets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The (k-1)-subsets of {2..n}, in colex order.  Each (n, k) is
    enumerated once and the result is shared by every caller, so it is
    a tuple."""
    return tuple(
        rest + (last,)
        for last in range(k, n + 1)
        for rest in itertools.combinations(range(2, last), k - 2)
    )


@dataclass(frozen=True)
class FamilySpec:
    k: int
    n: int
    I: tuple[int, ...]
    flavor: str

    def __post_init__(self):
        if self.k < 3:
            raise ValueError("uniformity must be >= 3")
        if self.n < self.k:
            raise ValueError(f"need n >= k, got n={self.n}, k={self.k}")
        I = tuple(self.I)
        object.__setattr__(self, "I", I)
        if len(I) != self.k - 1 or any(a >= b for a, b in zip(I, I[1:])):
            raise ValueError(f"I must be a sorted (k-1)-subset, got {I}")
        if 1 not in I or I[-1] > self.n:
            raise ValueError(f"I must contain 1 and lie in [n], got {I}")
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.flavor in _ANCHORED_FLAVORS and not is_separated(I, self.n, self.k):
            raise ValueError(
                f"I={I} is not (n={self.n}, k={self.k})-separated, required for "
                f"flavor {self.flavor}"
            )

    @property
    def reversed_order(self) -> bool:
        return self.flavor in (FLAVOR_REVF, FLAVOR_REVG)

    @property
    def connectors(self) -> tuple[tuple[int, ...], ...]:
        return connector_sets(self.n, self.k)

    def with_flavor(self, flavor: str) -> "FamilySpec":
        return FamilySpec(self.k, self.n, self.I, flavor)


def role_distinguished(i: int) -> str:
    return f"x{i}"


def role_connector(J: Sequence[int]) -> str:
    return "xJ:" + ",".join(map(str, J))


ROLE_SPECIAL = "xI"


def _increasing(edges, v: int) -> bool:
    """Whether every edge, all of one size, rises strictly within [1, v]:
    each column of the edges below the next, the first >= 1, the last <= v."""
    columns = list(zip(*edges))
    return not columns or (
        min(columns[0]) >= 1
        and max(columns[-1]) <= v
        and all(map(all, map(map, itertools.repeat(operator.lt), columns, columns[1:])))
    )


def edge_tuples(rows, k: int, v: int) -> tuple[tuple[int, ...], ...]:
    """The rows as sorted int tuples, in row order; a tuple of sorted
    tuples is returned as is.  This is the rule for every edge list: each
    row is a list or tuple of k >= 1 distinct ints (by exact type, so no
    bool) in [1, v], in any order, and no two rows hold the same set.
    Otherwise a ValueError names, as given, the first bad row, or else
    the first repeat.  All rows are checked at once at C speed, by their
    columns as given and, only if that fails, sorted; the rows are walked
    one by one only to name an error."""
    types = set(map(type, rows))
    edges = None
    if (k > 0 or not rows) and (
        types <= {tuple, list}
        and set(map(len, rows)) <= {k}
        and set(map(type, itertools.chain.from_iterable(rows))) <= {int}
    ):
        if _increasing(rows, v):
            edges = rows if type(rows) is tuple and types <= {tuple} else tuple(map(tuple, rows))
        elif _increasing(sorted_rows := tuple(map(tuple, map(sorted, rows))), v):
            edges = sorted_rows
    if edges is None:
        bad = next(e for e in rows if not (
            type(e) in (tuple, list) and len(e) == k > 0 and len(set(e)) == k
            and all(type(x) is int and 1 <= x <= v for x in e)
        ))
        raise ValueError(f"edge {bad!r} is not {k} distinct vertices in [1, {v}]")
    if len(set(edges)) < len(edges):
        seen = set()
        e = next(e for e, key in zip(rows, edges) if key in seen or seen.add(key))
        raise ValueError(f"edge {e!r} repeats an earlier edge")
    return edges


@dataclass(frozen=True)
class OrderedHypergraph:
    """k-uniform edges over vertices 1..v; the order is the position order.

    The edges may be given as any rows `edge_tuples` accepts, each in any
    order; they are stored as the sorted tuples it returns."""

    v: int
    edges: tuple[tuple[int, ...], ...]
    labels: Optional[dict[str, int]] = None

    def __post_init__(self):
        if self.v < 1:
            raise ValueError("need at least one vertex")
        edges = self.edges
        checked = edge_tuples(edges, len(edges[0]) if edges else 1, self.v)
        if checked is not edges:
            object.__setattr__(self, "edges", checked)  # sorted tuples, as the field says
        if self.labels is not None:
            for role, pos in self.labels.items():
                if not 1 <= pos <= self.v:
                    raise ValueError(f"label {role!r} points at bad position {pos}")

    @property
    def uniformity(self) -> int:
        return len(self.edges[0]) if self.edges else 0

    # The cached views below are built on first use and kept in the
    # instance dict; they are not fields, so equality and `to_json` do
    # not see them.

    @functools.cached_property
    def edge_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.edges)

    @functools.cached_property
    def incidence(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Entry p holds the edges through vertex p; entry 0 is empty."""
        through: list[list[tuple[int, ...]]] = [[] for _ in range(self.v + 1)]
        for e in self.edges:
            for p in e:
                through[p].append(e)
        return tuple(map(tuple, through))

    def to_json(self) -> dict:
        out = {
            "schema": HYPERGRAPH_SCHEMA,
            "v": self.v,
            "edges": [list(e) for e in self.edges],
        }
        if self.labels is not None:
            out["labels"] = dict(sorted(self.labels.items()))
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "OrderedHypergraph":
        """Read a document with an integer v, edges, a list of non-empty
        integer lists, and optional labels, an object of integer positions.
        The constructor checks the edges as the file writes them, so an
        error names the edge as written; each is stored sorted."""
        doc = check_schema(obj, HYPERGRAPH_SCHEMA, {"v": int, "edges": list}, {"labels": dict})
        edges, labels = doc["edges"], doc.get("labels")
        lengths = int_rows(edges)
        if lengths is None or 0 in lengths:
            raise ValueError("hypergraph edges must be non-empty integer lists")
        if labels is not None and int_rows([list(labels.values())]) is None:
            raise ValueError("hypergraph labels must be integer positions")
        return cls(doc["v"], edges, dict(labels) if labels is not None else None)


def relabel(v: int, edges, image: Sequence[int], labels) -> OrderedHypergraph:
    """The hypergraph on 1..v in which vertex p of `edges` and of
    `labels` (role -> vertex, or None) becomes image[p]; edges re-sorted."""
    edges = sorted(tuple(sorted(map(image.__getitem__, e))) for e in edges)
    if labels is not None:
        labels = {role: image[p] for role, p in labels.items()}
    return OrderedHypergraph(v, tuple(edges), labels)


def reverse(H: OrderedHypergraph) -> OrderedHypergraph:
    """The same hypergraph under the reversed vertex order."""
    return relabel(H.v, H.edges, range(H.v + 1, 0, -1), H.labels)


def canonical_member(spec: FamilySpec) -> OrderedHypergraph:
    """The member with all connectors distinct, in colex order of J.

    Layout: anchor first, then one connector vertex per J strictly
    between the anchor and x_1, then x_1 < ... < x_n; that is, the
    blueprint with one interior class per connector, in colex order.
    """
    classes = tuple((J,) for J in spec.connectors)
    return realize_blueprint(MemberBlueprint(spec, classes, tuple(range(len(classes)))))


def member_edges(chain: Sequence[int], I: Sequence[int], assignment) -> list[tuple[int, ...]]:
    """The edges of a member with chain x_0, ..., x_n and connectors
    `assignment`, (J, x_J) pairs: first the special edge, the pair
    (I, x_0), then for each pair in order {x_J} | {x_j : j in J}, each
    edge sorted."""
    return [tuple(sorted({v}.union(map(chain.__getitem__, J))))
            for J, v in ((I, chain[0]), *assignment)]


def placed_as_member(spec: FamilySpec, chain: Sequence[int], positions: list[int]) -> bool:
    """Whether a chain x_0, ..., x_n and connector `positions` sit as in
    a member of the spec's flavor: n + 1 chain vertices rising strictly,
    or falling strictly for revF and revG; for F flavors each connector
    between x_0 and x_1, ends included, and for G flavors the connectors
    distinct and strictly between."""
    step = operator.gt if spec.reversed_order else operator.lt
    if len(chain) != spec.n + 1 or not all(map(step, chain, chain[1:])):
        return False
    lo, hi = sorted(chain[:2])
    if spec.flavor in _ANCHORED_FLAVORS:
        return all(lo <= p <= hi for p in positions)
    return len(set(positions)) == len(positions) and all(lo < p < hi for p in positions)


def is_member(H: OrderedHypergraph, spec: FamilySpec) -> bool:
    """Whether the labeled ordered hypergraph realizes some member of the family.

    The labels give the chain (the anchor, labelled x0 or xI or both,
    then x1 .. xn) and the connectors xJ; they must sit as
    `placed_as_member` asks, cover every vertex, and give exactly the
    edges `member_edges` lists.  An x0 and an xI label must agree.
    """
    if H.labels is None:
        raise ValueError("member check requires role labels")
    labels = H.labels
    anchors = {labels[role] for role in (role_distinguished(0), ROLE_SPECIAL) if role in labels}
    if not anchors:
        own = role_distinguished(0) if spec.flavor in _ANCHORED_FLAVORS else ROLE_SPECIAL
        raise ValueError(f"missing label {own!r}")
    needed = [role_distinguished(i) for i in range(1, spec.n + 1)]
    needed += [role_connector(J) for J in spec.connectors]
    for role in needed:
        if role not in labels:
            raise ValueError(f"missing label {role!r}")
    if len(anchors) > 1:
        return False  # x0 and xI both name the anchor
    placed = [*anchors] + [labels[role] for role in needed]
    chain, positions = placed[: spec.n + 1], placed[spec.n + 1 :]
    assignment = zip(spec.connectors, positions)
    return (
        placed_as_member(spec, chain, positions)
        and set(placed) == set(range(1, H.v + 1))
        and H.edge_set == frozenset(member_edges(chain, spec.I, assignment))
    )


# Placement of a connector class: collapse onto the anchor, collapse onto
# x_1, or a dedicated vertex in one of the ordered interior slots.
PLACE_ANCHOR = "anchor"
PLACE_X1 = "x1"


@dataclass(frozen=True)
class MemberBlueprint:
    """The data distinguishing one F-flavor member from another.

    classes partitions the connector index sets; each class is placed
    either on the anchor, on x_1, or at an interior slot (an integer;
    slots are ordered left to right between the anchor and x_1).  Since
    everything collapsed onto the same special vertex is one class, at
    most one class sits on the anchor and one on x_1; this makes the
    blueprint-to-member map injective.
    """

    spec: FamilySpec
    classes: tuple[tuple[tuple[int, ...], ...], ...]
    placements: tuple[object, ...]

    def __post_init__(self):
        flat = [J for cls in self.classes for J in cls]
        connectors = self.spec.connectors
        if len(flat) != len(connectors) or set(flat) != set(connectors):
            raise ValueError("classes must partition the connector sets")
        if len(self.placements) != len(self.classes):
            raise ValueError("one placement per class")
        for special in (PLACE_ANCHOR, PLACE_X1):
            if sum(1 for p in self.placements if p == special) > 1:
                raise ValueError(f"at most one class may collapse onto {special}")
        slots = [p for p in self.placements if isinstance(p, int)]
        if sorted(slots) != list(range(len(slots))):
            raise ValueError("interior slots must be 0..b-1, each used once")


def realize_blueprint(bp: MemberBlueprint) -> OrderedHypergraph:
    """Build the ordered hypergraph a blueprint describes, labels included.

    The anchor carries the xI role, and for F flavors also x0.  A
    reversed flavor (revF, revG) places each vertex at v + 1 - p for its
    forward position p, so the member is built once, equal to `reverse`
    of the forward member.
    """
    spec = bp.spec
    interior = sum(1 for p in bp.placements if isinstance(p, int))
    v = spec.n + interior + 1

    def at(p: int) -> int:
        """The vertex at forward position p: the anchor is 1, the interior
        slots follow, then x_1 .. x_n."""
        return v + 1 - p if spec.reversed_order else p

    anchor = at(1)
    x1 = at(interior + 2)
    chain = (anchor, *map(at, range(interior + 2, v + 1)))

    labels = {ROLE_SPECIAL: anchor}
    if spec.flavor in _ANCHORED_FLAVORS:
        labels[role_distinguished(0)] = anchor
    for i in range(1, spec.n + 1):
        labels[role_distinguished(i)] = chain[i]
    assignment = []
    for cls, place in zip(bp.classes, bp.placements):
        if place == PLACE_ANCHOR:
            pos = anchor
        elif place == PLACE_X1:
            pos = x1
        else:
            pos = at(2 + place)
        for J in cls:
            labels[role_connector(J)] = pos
            assignment.append((J, pos))
    return OrderedHypergraph(v, tuple(sorted(member_edges(chain, spec.I, assignment))), labels)


def _set_partitions(items: list) -> Iterator[list[list]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def enumerate_blueprints(spec: FamilySpec) -> Iterator[MemberBlueprint]:
    """All canonical blueprints: one per distinct member of the family.

    Chooses the (possibly empty) groups collapsed onto the anchor and
    onto x_1, partitions the rest, and linearly orders those classes in
    the interior.  Feasible for small n only; bijectivity with distinct
    members is cross-checked against a direct enumeration in tests.
    """
    connectors = spec.connectors
    q = len(connectors)
    for anchor_mask in range(1 << q):
        anchor_class = tuple(
            J for i, J in enumerate(connectors) if anchor_mask >> i & 1
        )
        rest_after_anchor = [
            J for i, J in enumerate(connectors) if not anchor_mask >> i & 1
        ]
        r = len(rest_after_anchor)
        for x1_mask in range(1 << r):
            x1_class = tuple(
                J for i, J in enumerate(rest_after_anchor) if x1_mask >> i & 1
            )
            interior_pool = [
                J for i, J in enumerate(rest_after_anchor) if not x1_mask >> i & 1
            ]
            for partition in _set_partitions(interior_pool):
                interior_classes = tuple(tuple(sorted(cls)) for cls in partition)
                for order in itertools.permutations(range(len(interior_classes))):
                    classes: list[tuple[tuple[int, ...], ...]] = []
                    placements: list[object] = []
                    if anchor_class:
                        classes.append(anchor_class)
                        placements.append(PLACE_ANCHOR)
                    if x1_class:
                        classes.append(x1_class)
                        placements.append(PLACE_X1)
                    classes.extend(interior_classes)
                    placements.extend(order)
                    yield MemberBlueprint(spec, tuple(classes), tuple(placements))


def read_hypergraph(path) -> OrderedHypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return OrderedHypergraph.from_json(json.load(fh))


def write_hypergraph(H: OrderedHypergraph, path) -> None:
    write_records(path, H.to_json())


def member_vertex_count(spec: FamilySpec) -> int:
    """Closed form n + C(n-1, k-1) + 1 for all-distinct members."""
    return spec.n + math.comb(spec.n - 1, spec.k - 1) + 1


def member_edge_count(spec: FamilySpec) -> int:
    """Closed form C(n-1, k-1) + 1."""
    return math.comb(spec.n - 1, spec.k - 1) + 1
