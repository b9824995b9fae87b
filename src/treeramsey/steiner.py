"""Partial Steiner systems: blow-ups, projective planes, and their gluing.

The blow-up takes the family's shape and replaces every distinguished
vertex by a class of m interchangeable vertices and every connector
vertex class V_J by one vertex per transversal of the classes indexed
by J, so each transversal extends to exactly one edge.  Copies of that
system are then placed on the lines of a projective plane of prime
order via independently seeded random injections; since two lines share
at most one point, the union stays a partial (k, k-1)-system.

The plane layer costs O(N*p) steps for N = p**2+p+1 points: each line
is solved for directly in canonical coordinates, and a plane is
validated by point incidence (every point on p+1 lines that together
reach every point), which forces exact pair cover and, by counting,
that every two lines meet exactly once; the union of the lines through
a point is an OR of N-bit line masks, so validation is O(N*p) ORs.
Plane and system files are checked on read.  The glued system keeps
the copies of each edge as int tuples aligned with its edges, each its
line's index followed by the source edge, and writes them as they are
as its provenance; the provenance mapping is built only when read.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import random
import time
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

from .families import (
    FLAVOR_G,
    FLAVOR_REVG,
    FamilySpec,
    OrderedHypergraph,
    canonical_member,
    connector_sets,
    edge_tuples,
    relabel,
)
from .reporting import check_schema, int_rows
from .search import find_ordered_copy

SYSTEM_SCHEMA = "treeramsey/system/1"
PLANE_SCHEMA = "treeramsey/plane/1"
MC_SCHEMA = "treeramsey/mc-report/1"


def _shuffled(items: list, rng: random.Random) -> list:
    # Explicit Fisher-Yates so the draw sequence is pinned by this code,
    # not by the stdlib's shuffle implementation.  Each j in [0, i] is
    # drawn as randrange(i + 1) draws it: getrandbits of i+1's bit
    # length until the draw is at most i.
    out = list(items)
    getrandbits = rng.getrandbits
    for i in range(len(out) - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        out[i], out[j] = out[j], out[i]
    return out


@dataclass(frozen=True)
class BlowupSystem:
    """The partitioned (k, k-1)-system with unique transversal extension.

    Vertices 1..vertex_count: first the classes V_1..V_n of size m, then
    one block of size m**(k-1) per connector set (colex order, I last),
    indexed by transversals in lexicographic order of class positions.
    """

    n: int
    k: int
    I: tuple[int, ...]
    m: int

    def __post_init__(self):
        # the family's shape rules (k, n, I); flavor G asks no separation
        object.__setattr__(self, "I", FamilySpec(self.k, self.n, self.I, FLAVOR_G).I)
        if self.m < 1:
            raise ValueError("class size m must be >= 1")

    @functools.cached_property
    def omega(self) -> tuple[tuple[int, ...], ...]:
        return connector_sets(self.n, self.k) + (self.I,)

    @functools.cached_property
    def _block_index(self) -> dict[tuple[int, ...], int]:
        return {J: idx for idx, J in enumerate(self.omega)}

    @property
    def block_size(self) -> int:
        return self.m ** (self.k - 1)

    @property
    def vertex_count(self) -> int:
        return self.m * self.n + self.edge_count

    @property
    def edge_count(self) -> int:
        # len(omega) by formula: sizing a blow-up never enumerates it
        return self.block_size * (math.comb(self.n - 1, self.k - 1) + 1)

    def class_range(self, i: int) -> range:
        """Vertices of the distinguished class V_i."""
        if not 1 <= i <= self.n:
            raise ValueError(f"no class V_{i}")
        start = (i - 1) * self.m + 1
        return range(start, start + self.m)

    def block_range(self, J: Sequence[int]) -> range:
        """Vertices of the connector class V_J."""
        J = tuple(J)
        if J not in self._block_index:
            raise ValueError(f"{J} is not an edge index set of this system")
        start = self.m * self.n + self._block_index[J] * self.block_size + 1
        return range(start, start + self.block_size)

    def extend_transversal(self, J: Sequence[int], z: Sequence[int]) -> int:
        """The unique vertex of V_J extending transversal z to an edge."""
        J = tuple(J)
        block = self.block_range(J)
        if len(z) != len(J):
            raise ValueError(f"transversal of {J} needs {len(J)} vertices")
        rank = 0
        for j, v in zip(J, z):
            r = self.class_range(j)
            if v not in r:
                raise ValueError(f"vertex {v} is not in class V_{j}")
            rank = rank * self.m + (v - r.start)
        return block.start + rank

    def iter_edges(self) -> Iterator[tuple[int, ...]]:
        """Each transversal z of the classes in J, in product order,
        extended by the vertex of V_J at z's rank in that order (the one
        `extend_transversal` gives), which lies above every class vertex."""
        for J in self.omega:
            blocks = zip(self.block_range(J), itertools.product(*map(self.class_range, J)))
            yield from (z + (v,) for v, z in blocks)

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.iter_edges())

    def to_json(self) -> dict:
        return {
            "schema": SYSTEM_SCHEMA,
            "v": self.vertex_count,
            "k": self.k,
            "params": {"n": self.n, "k": self.k, "I": list(self.I), "m": self.m},
            "edges": [list(e) for e in self.iter_edges()],
        }


def build_blowup(
    n: int, k: int, I: Sequence[int], m: Optional[int] = None
) -> BlowupSystem:
    """Blow-up with class size m; m defaults to n**(k+3)."""
    if m is None:
        m = n ** (k + 3)
    return BlowupSystem(n, k, tuple(I), m)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def next_prime_at_least(n: int) -> int:
    """Smallest prime >= n; always within [n, 2n] (checked)."""
    if n < 2:
        raise ValueError("need n >= 2")
    p = n
    while not _is_prime(p):
        p += 1
    assert p <= 2 * n, f"prime gap violation: {p} > 2*{n}"
    return p


@dataclass(frozen=True)
class ProjectivePlane:
    """Plane of prime order p: p**2+p+1 points, lines of p+1 points each."""

    order: int
    lines: tuple[tuple[int, ...], ...]

    @property
    def num_points(self) -> int:
        return self.order**2 + self.order + 1

    def to_json(self) -> dict:
        return {
            "schema": PLANE_SCHEMA,
            "order": self.order,
            "points": self.num_points,
            "lines": [list(line) for line in self.lines],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ProjectivePlane":
        """Read a plane document; raise unless it is a valid plane."""
        doc = check_schema(obj, PLANE_SCHEMA, {"order": int, "points": int, "lines": list})
        lines = doc["lines"]
        if int_rows(lines) is None:
            raise ValueError("plane lines must be integer lists")
        plane = cls(doc["order"], tuple(map(tuple, lines)))
        if doc["points"] != plane.num_points:
            raise ValueError("point count inconsistent with order")
        validate_projective_plane(plane)
        return plane


def build_projective_plane(p: int) -> ProjectivePlane:
    """The plane over the p-element field, prime p only.

    Points are the 1-dimensional subspaces of a 3-dimensional vector
    space, numbered 1.. p**2+p+1 by canonical representative (first
    nonzero coordinate 1): (1, y, z) is 1 + p*y + z, (0, 1, z) is
    p**2 + 1 + z and (0, 0, 1) is p**2 + p + 1.  The line orthogonal to
    a representative (a, b, c) is solved for directly, O(p) per line.
    """
    if not _is_prime(p):
        raise ValueError(
            f"unsupported order {p}: only prime orders are constructed"
        )
    reps = [(1, y, z) for y in range(p) for z in range(p)]
    reps += [(0, 1, z) for z in range(p)] + [(0, 0, 1)]
    lines = []
    for a, b, c in reps:
        if c:  # z = -(a + b*y)/c for each y, and (0, 1, -b/c)
            s = -pow(c, p - 2, p)
            line = [1 + p * y + (a + b * y) * s % p for y in range(p)]
            line.append(p * p + 1 + b * s % p)
        elif b:  # y = -a/b for each z, and (0, 0, 1)
            y = -a * pow(b, p - 2, p) % p
            line = [1 + p * y + z for z in range(p)] + [p * p + p + 1]
        else:  # (1, 0, 0): the points with first coordinate 0
            line = [p * p + 1 + z for z in range(p + 1)]
        lines.append(tuple(sorted(line)))
    return ProjectivePlane(p, tuple(sorted(lines)))


def validate_projective_plane(plane: ProjectivePlane) -> None:
    """Raise unless the lines form a projective plane of the plane's order.

    Requires, with N = p**2+p+1: N lines of p+1 points strictly rising
    in [1, N]; every point x on p+1 lines whose (p+1)**2 points
    together take all N values.  x fills p+1 of those entries, so the
    other p(p+1) = N-1 are the other points once each: exact pair cover.
    Hence two lines meet at most once, and every line meets a line L:
    the p lines besides L through each of L's p+1 points are distinct
    (two of them sharing two points is ruled out), so they are
    p(p+1) = N-1 lines, every line but L.  Each line is held as an
    N-bit mask of its points, so the union through a point is the OR of
    p+1 masks, compared with the mask of all N points.  Work: O(N*p)
    ORs of N-bit integers.
    """
    p, N = plane.order, plane.num_points
    if p < 2:
        raise ValueError(f"order {p} is below 2")
    if len(plane.lines) != N:
        raise ValueError(f"{len(plane.lines)} lines, expected {N}")
    through: list[list[int]] = [[] for _ in range(N + 1)]
    for line in plane.lines:
        if len(line) != p + 1 or line[0] < 1 or line[-1] > N or not all(
            map(operator.lt, line, line[1:])
        ):
            raise ValueError(f"line {line} is not {p + 1} increasing points in [1, {N}]")
        mask = sum(1 << x for x in line)  # distinct points: the sum is the OR
        for x in line:
            through[x].append(mask)
    full = (1 << (N + 1)) - 2
    for x in range(1, N + 1):
        if len(through[x]) != p + 1 or functools.reduce(operator.or_, through[x]) != full:
            raise ValueError(f"the lines through point {x} do not cover each point once")


class SteinerWitness(NamedTuple):
    first: tuple[int, ...]
    second: tuple[int, ...]
    shared: tuple[int, ...]


def _ell_sets_distinct(edges: Sequence, ell: int) -> bool:
    """Whether no ell-subset (as combinations() yields it) repeats among
    the edges, decided without building a tuple when ell >= 1 and the
    edges are int tuples of one length k; False for any other input.

    Column j holds each edge's j-th vertex.  The subset at positions
    j_1 < ... < j_ell is keyed by the int x_{j_1} * B**(ell-1) + ... +
    x_{j_ell}, B the largest vertex + 1.  Equal subsets get equal keys,
    so len(edges) * comb(k, ell) distinct keys mean distinct subsets
    (for vertices in [0, B) the converse holds too)."""
    lengths = int_rows(edges, tuple)
    if ell < 1 or lengths is None or len(lengths) != 1:
        return False
    k = lengths.pop()
    columns = [list(map(operator.itemgetter(j), edges)) for j in range(k)]
    base = itertools.repeat(max(map(max, columns)) + 1)
    keys: set[int] = set()
    for first, *rest in itertools.combinations(range(k), ell):
        key = columns[first]
        for j in rest:
            key = map(operator.add, map(operator.mul, key, base), columns[j])
        keys.update(key)
    return len(keys) == len(edges) * math.comb(k, ell)


def is_partial_steiner(edges, k: int, ell: int) -> Optional[SteinerWitness]:
    """Least pair of edges sharing an ell-subset, or None when the
    edges (a system's `edges`, so k is the system's `k`) form a partial
    (k, ell)-system.  An ell outside [0, k), or an edge of another size
    than k, is refused, also when there are no edges.

    Copies of one edge do not collide.  When no ell-set repeats, which
    `_ell_sets_distinct` shows by one set-size comparison, the answer is
    None; only otherwise (also for copies) are the edges sorted and
    scanned subset by subset for the least witness."""
    if not 0 <= ell < k:
        raise ValueError(f"ell must be >= 0 and below the uniformity k = {k}, got {ell}")
    sizes = set(map(len, edges)) - {k}
    if sizes:
        raise ValueError(f"every edge must have k = {k} vertices, got one of {min(sizes)}")
    if _ell_sets_distinct(edges, ell):
        return None
    edges = sorted(edges)
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


@dataclass(frozen=True)
class SteinerSystem:
    """A system by its edge list: the glued system, whose `records[i]`
    holds the copies of `edges[i]`, each as (line, s_1, ..., s_k): the
    index of the line it was placed on, then the source edge's vertices;
    or a system file without params (no records)."""

    v: int
    k: int
    edges: tuple[tuple[int, ...], ...]
    records: tuple[tuple[tuple[int, ...], ...], ...] = ()

    @property
    def vertex_count(self) -> int:
        return self.v

    @functools.cached_property
    def provenance(self) -> dict[tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]]:
        """Each edge's copies as (line, source edge) pairs, in line order."""
        return {
            e: tuple((r[0], r[1:]) for r in copies)
            for e, copies in zip(self.edges, self.records)
        }

    def to_json(self) -> dict:
        """System document, its `provenance` the records; rows stay tuples."""
        return {
            "schema": SYSTEM_SCHEMA,
            "v": self.v,
            "k": self.k,
            "edges": list(self.edges),
            "provenance": list(self.records),
        }


def assemble_h(system, plane: ProjectivePlane, seed: int) -> SteinerSystem:
    """Union of one randomly placed copy of the padded system per line.

    The system is padded with isolated vertices up to p, then each line
    receives it through a seeded random injection of [p] into the
    line's p+1 points (per-line sub-seeds are derived by counter, so
    line iteration order does not matter).  Images and records are built
    from the source edges' vertex columns and sorted together by image.
    For k >= 2, duplicate edges across lines cannot arise (two lines
    share one point); images that do coincide, as at k = 1, are merged,
    their copies kept in line order.
    """
    p = plane.order
    v_sys = system.vertex_count
    if p < v_sys:
        raise ValueError(
            f"plane of order {p} is too small for a system on {v_sys} vertices"
        )
    columns = [list(map(operator.itemgetter(j), system.edges)) for j in range(system.k)]
    images: list[tuple[int, ...]] = []
    records: list[tuple[int, ...]] = []
    for line_id, line in enumerate(plane.lines):
        rng = random.Random(f"assemble:{seed}:{line_id}")
        # shuffled positions 0..p-1 host vertices 1..p
        host = [0, *_shuffled(line, rng)].__getitem__
        images += map(tuple, map(sorted, zip(*[map(host, c) for c in columns])))
        records += zip(itertools.repeat(line_id), *columns)
    order = sorted(range(len(images)), key=images.__getitem__)  # stable: line order
    edges = tuple(map(images.__getitem__, order))
    copies = map(records.__getitem__, order)
    if any(map(operator.eq, edges, edges[1:])):  # some images coincide: merge
        merged: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for e, record in zip(edges, copies):
            merged.setdefault(e, []).append(record)
        edges, copies = tuple(merged), map(tuple, merged.values())
    else:
        copies = zip(copies)
    return SteinerSystem(plane.num_points, system.k, edges, tuple(copies))


@dataclass(frozen=True)
class MonteCarloReport:
    spec: FamilySpec
    trials: int
    seed: int
    found: dict[str, int]
    failures: tuple[dict, ...]
    trial_ms: tuple[tuple[float, float], ...]  # (setup, search) per trial

    def found_fraction(self, flavor: str) -> float:
        return self.found[flavor] / self.trials

    def to_json(self) -> dict:
        """The report document; `trial_ms` is timing, which belongs in
        the run manifest, so it is left out."""
        return {
            "schema": MC_SCHEMA,
            "spec": {
                "k": self.spec.k,
                "n": self.spec.n,
                "I": list(self.spec.I),
            },
            "trials": self.trials,
            "seed": self.seed,
            "found_fraction": {
                flavor: self.found[flavor] / self.trials for flavor in sorted(self.found)
            },
            "failures": [dict(f) for f in self.failures],
        }


def ordering_as_hypergraph(system, ordering: Sequence[int]) -> OrderedHypergraph:
    """Relabel a system's vertices by their positions in the ordering."""
    v = system.vertex_count
    if sorted(ordering) != list(range(1, v + 1)):
        raise ValueError("ordering must be a permutation of the vertices")
    position = [0] * (v + 1)
    for idx, orig in enumerate(ordering, 1):
        position[orig] = idx
    return relabel(v, system.edges, position, None)


def _run_ordering_trial(args):
    """One trial: (system, targets, seed, t) -> (t, hits, ordering,
    (setup_ms, search_ms)), the set-up being the relabelling."""
    system, targets, seed, t = args
    rng = random.Random(f"ordering:{seed}:{t}")
    ordering = _shuffled(list(range(1, system.vertex_count + 1)), rng)
    start = time.monotonic()
    host = ordering_as_hypergraph(system, ordering)
    relabelled = time.monotonic()
    hits = {
        flavor: find_ordered_copy(host, target) is not None
        for flavor, target in targets.items()
    }
    end = time.monotonic()
    return t, hits, ordering, ((relabelled - start) * 1000.0, (end - relabelled) * 1000.0)


# A worker process's system and targets, handed over once by the pool's
# initializer, so that each task carries only its (seed, t).
_worker_inputs: tuple = ()


def _init_worker(system, targets) -> None:
    global _worker_inputs
    _worker_inputs = (system, targets)


def _run_worker_trial(seed_t):
    return _run_ordering_trial(_worker_inputs + seed_t)


def sample_ordering_and_search(
    system, spec: FamilySpec, trials: int, seed: int, workers: int = 1
) -> MonteCarloReport:
    """Random vertex orderings searched for canonical family copies.

    Each trial draws a seeded uniform ordering, then looks for the
    canonical member of the G flavor and of the revG flavor as ordered
    subgraphs.  Failing orderings are kept verbatim for replay.  Trial
    seeds are derived by counter, so the report does not depend on the
    worker count.  At most `trials` worker processes are started, and
    each receives the system and targets once, when it starts.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if spec.flavor not in (FLAVOR_G, FLAVOR_REVG):
        raise ValueError(f"ordering experiment needs flavor G or revG, got {spec.flavor}")
    if spec.k != system.k:
        raise ValueError(
            f"spec mismatch: uniformity {spec.k} vs system uniformity {system.k}"
        )
    if isinstance(system, BlowupSystem) and spec.n > system.n:
        raise ValueError(
            f"spec mismatch: n={spec.n} exceeds the system's class count {system.n}"
        )
    targets = {
        FLAVOR_G: canonical_member(spec.with_flavor(FLAVOR_G)),
        FLAVOR_REVG: canonical_member(spec.with_flavor(FLAVOR_REVG)),
    }
    workers = min(workers, trials)
    if workers == 1:
        results = [_run_ordering_trial((system, targets, seed, t)) for t in range(trials)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(system, targets)
        ) as pool:
            results = list(pool.map(_run_worker_trial, [(seed, t) for t in range(trials)]))

    found = {FLAVOR_G: 0, FLAVOR_REVG: 0}
    failures = []
    trial_ms = []
    for t, hits, ordering, ms in results:
        for flavor in (FLAVOR_G, FLAVOR_REVG):
            if hits[flavor]:
                found[flavor] += 1
            elif not any(f["flavor"] == flavor for f in failures):
                # only the first failing ordering per flavor is kept for replay
                failures.append({"trial": t, "flavor": flavor, "ordering": ordering})
        trial_ms.append(ms)
    return MonteCarloReport(spec, trials, seed, found, tuple(failures), tuple(trial_ms))


def read_system(path) -> BlowupSystem | SteinerSystem:
    """Load a system file: positive integers v and k, edges, a list
    that `families.edge_tuples` accepts (k distinct integers in [1, v]
    each, in any order, no two the same set; an error names the edge as
    the file writes it), optional provenance, a list (not read), and
    optional params, an object with integers n, k, m and a list of
    integers I.  With params the file must hold exactly that blow-up,
    which is returned; sizes are compared before edges, so params cannot
    force a large blow-up to be built.  Otherwise it is a SteinerSystem
    of the edges, each sorted, in sorted order."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = check_schema(
            json.load(fh), SYSTEM_SCHEMA, {"v": int, "k": int, "edges": list},
            {"provenance": list, "params": dict},
        )
    v, k = doc["v"], doc["k"]
    if v < 1 or k < 1:
        raise ValueError(f"system v and k must be positive integers, got v = {v}, k = {k}")
    edges = sorted(edge_tuples(doc["edges"], k, v))
    params = doc.get("params")
    if params is None:
        return SteinerSystem(v, k, tuple(edges))
    if int_rows([[params.get("n"), params.get("k"), params.get("m")], params.get("I")]) is None:
        raise ValueError(
            f"system params must hold integers n, k, m and a list of integers I, "
            f"got {params!r}"
        )
    try:
        system = BlowupSystem(params["n"], params["k"], tuple(params["I"]), params["m"])
    except ValueError as exc:
        raise ValueError(f"system params name no blow-up: {exc}") from None
    if (system.k, system.vertex_count, system.edge_count) != (k, v, len(edges)) or (
        sorted(system.edges) != edges
    ):
        raise ValueError(f"system params {params!r} do not describe the file's system")
    return system
