"""Backtracking search for monochromatic ordered family copies.

The searched object is determined by a distinguished chain of leaves
x_0 < x_1 < ... < x_n plus, for every connector set J, at least one
leaf in [x_0, x_1] whose edge through J has the target color.  Once the
chain and the color are fixed the connector choices are independent
(distinct J never constrain each other), so the search enumerates
chains with incremental pruning and reduces each J to a nonemptiness
question, memoized on (x_0, x_1, the evaluator's memo_key of (x_1,
leaves)): the level profile for tree colorings, the exact leaves for
edge-membership tests and for any evaluator that declares no key.

There is one engine, and it enumerates increasing chains.  A reversed
(revF) copy of a coloring is an F copy of the coloring with the leaf
order reversed, so revF questions run the same engine on
`ReflectedColoring` and reflect the witness back.

Witness tie-breaking is lexicographic in (color, chain, connector
assignment in colex-J order); reversed-flavor witnesses compare through
the reflected coordinates.  Parallel runs partition the chains by their
first element, enumerate each part fully and reduce by the same key, so
the reported witness does not depend on the worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from .families import (
    FLAVOR_F,
    FLAVOR_REVF,
    FamilySpec,
    OrderedHypergraph,
    connector_sets,
)

CLEAN = "clean"
WITNESS = "witness"
INDETERMINATE = "indeterminate"

AVOIDANCE_SCHEMA = "treeramsey/avoidance-report/1"


@dataclass
class SearchCounters:
    nodes: int = 0
    prunes: int = 0
    chi_evals: int = 0
    admissible_computed: int = 0
    memo_hits: int = 0

    def merged(self, other: "SearchCounters") -> "SearchCounters":
        return SearchCounters(
            self.nodes + other.nodes,
            self.prunes + other.prunes,
            self.chi_evals + other.chi_evals,
            self.admissible_computed + other.admissible_computed,
            self.memo_hits + other.memo_hits,
        )

    def to_json(self) -> dict:
        return {
            "nodes": self.nodes,
            "prunes": self.prunes,
            "chi_evals": self.chi_evals,
            "admissible_computed": self.admissible_computed,
            "memo_hits": self.memo_hits,
        }


@dataclass(frozen=True)
class SearchBudget:
    """Limits beyond which a search gives up with an indeterminate outcome."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class MonoCopyWitness:
    """A monochromatic copy: chain in role order plus per-J connector leaves.

    For flavor F the chain increases; for revF it decreases (role order
    is kept, so entry 0 is always the anchor x_0 = x_I).
    """

    flavor: str
    color: int
    distinguished: tuple[int, ...]
    assignment: tuple[tuple[tuple[int, ...], int], ...]

    def sort_key(self, ground_size: int):
        if self.flavor == FLAVOR_F:
            chain = self.distinguished
            values = tuple(v for _, v in self.assignment)
        else:
            chain = tuple(ground_size + 1 - x for x in self.distinguished)
            values = tuple(ground_size + 1 - v for _, v in self.assignment)
        return (self.color, chain, values)

    def edges(self, I: Sequence[int]) -> list[tuple[int, ...]]:
        chain = self.distinguished
        out = [tuple(sorted({chain[0]} | {chain[i] for i in I}))]
        for J, v in self.assignment:
            out.append(tuple(sorted({v} | {chain[j] for j in J})))
        return out

    def to_json(self) -> dict:
        return {
            "flavor": self.flavor,
            "color": self.color,
            "distinguished": list(self.distinguished),
            "assignment": {
                ",".join(map(str, J)): v for J, v in self.assignment
            },
        }


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    witness: Optional[MonoCopyWitness]
    counters: SearchCounters


def _exact_leaves(leaves: tuple[int, ...]) -> tuple[int, ...]:
    return leaves


class ReflectedColoring:
    """View of a coloring with the leaf order reversed."""

    def __init__(self, inner):
        self.inner = inner
        # Both memo keys in use survive reflection: it keeps the XOR of
        # (a-1, b-1), hence the level profile, and is a bijection on leaves.
        self.memo_key = getattr(inner, "memo_key", _exact_leaves)
        self.uniformity = inner.uniformity
        self.ground_size = inner.ground_size

    def _eval(self, elems: tuple[int, ...]) -> int:
        m = self.ground_size + 1
        return self.inner._eval(tuple(m - x for x in reversed(elems)))


class MembershipColoring:
    """Edge-set indicator posing as a 2-coloring: 0 on edges, 1 elsewhere.

    Lets the monochromatic-copy engine double as an ordered-containment
    test: a color-0 copy is exactly an ordered subgraph embedding.
    Membership depends on the exact leaves, so they are the memo key.
    """

    memo_key = staticmethod(_exact_leaves)

    def __init__(self, host: OrderedHypergraph):
        self.uniformity = host.uniformity
        self.ground_size = host.v
        self.edge_set = host.edge_set

    def _eval(self, elems: tuple[int, ...]) -> int:
        return 0 if elems in self.edge_set else 1


def _search_chains_ascending(evaluator, spec_fields, color, x0_values, budget):
    """Depth-first enumeration of increasing chains with per-J pruning.

    Returns (status, witness) and mutates the counters it creates; the
    first complete chain found is the lexicographically least one
    because candidates are scanned in increasing order at every depth.
    """
    k, n, I = spec_fields
    M = evaluator.ground_size
    eval_edge = evaluator._eval
    key_of = getattr(evaluator, "memo_key", _exact_leaves)
    all_connectors = connector_sets(n, k)
    connectors_by_max: dict[int, list[tuple[int, ...]]] = {}
    for J in all_connectors:
        connectors_by_max.setdefault(max(J), []).append(J)
    special_at = I[-1]

    counters = SearchCounters()
    memo: dict = {}
    deadline = None
    if budget is not None and budget.max_seconds is not None:
        deadline = time.monotonic() + budget.max_seconds
    max_nodes = budget.max_nodes if budget is not None else None

    def tick():
        counters.nodes += 1
        if max_nodes is not None and counters.nodes > max_nodes:
            raise BudgetExceeded
        if deadline is not None and counters.nodes % 1024 == 0:
            if time.monotonic() > deadline:
                raise BudgetExceeded

    def admissible_min(x0, x1, leaves):
        key = (x0, x1, key_of((x1,) + leaves))
        if key in memo:
            counters.memo_hits += 1
            return memo[key]
        counters.admissible_computed += 1
        best = None
        for v in range(x0, x1 + 1):
            counters.chi_evals += 1
            if eval_edge((v,) + leaves) == color:
                best = v
                break
        memo[key] = best
        return best

    chain: list[int] = [0] * (n + 1)

    def extend(depth):
        if depth == n + 1:
            assignment = tuple(
                (J, admissible_min(chain[0], chain[1], tuple(chain[j] for j in J)))
                for J in all_connectors
            )
            return MonoCopyWitness(FLAVOR_F, color, tuple(chain), assignment)
        lo = chain[depth - 1] + 1 if depth > 0 else 1
        for x in range(lo, M - (n - depth) + 1):
            tick()
            chain[depth] = x
            if depth == special_at:
                counters.chi_evals += 1
                special = tuple(sorted({chain[0]} | {chain[i] for i in I}))
                if eval_edge(special) != color:
                    counters.prunes += 1
                    continue
            if depth >= 2:
                ok = True
                for J in connectors_by_max.get(depth, ()):
                    if (
                        admissible_min(
                            chain[0], chain[1], tuple(chain[j] for j in J)
                        )
                        is None
                    ):
                        ok = False
                        break
                if not ok:
                    counters.prunes += 1
                    continue
            found = extend(depth + 1)
            if found is not None:
                return found
        return None

    try:
        for x0 in x0_values:
            if x0 > M - n:
                continue
            tick()
            chain[0] = x0
            found = extend(1)
            if found is not None:
                return SearchOutcome(WITNESS, found, counters)
    except BudgetExceeded:
        return SearchOutcome(INDETERMINATE, None, counters)
    return SearchOutcome(CLEAN, None, counters)


def _worker(args):
    return _search_chains_ascending(*args)


def _run_partitioned(evaluator, spec_fields, color, budget, workers):
    M = evaluator.ground_size
    n = spec_fields[1]
    x0_all = list(range(1, M - n + 1))
    if workers <= 1:
        return _search_chains_ascending(evaluator, spec_fields, color, x0_all, budget)

    chunks = [x0_all[i::workers] for i in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(
            pool.map(
                _worker,
                [
                    (evaluator, spec_fields, color, chunk, budget)
                    for chunk in chunks
                    if chunk
                ],
            )
        )
    counters = SearchCounters()
    for r in results:
        counters = counters.merged(r.counters)
    if any(r.status == INDETERMINATE for r in results):
        return SearchOutcome(INDETERMINATE, None, counters)
    witnesses = [r.witness for r in results if r.witness is not None]
    if witnesses:
        best = min(witnesses, key=lambda w: w.sort_key(M))
        return SearchOutcome(WITNESS, best, counters)
    return SearchOutcome(CLEAN, None, counters)


def _reflect_witness(w: MonoCopyWitness, ground_size: int) -> MonoCopyWitness:
    m = ground_size + 1
    return MonoCopyWitness(
        FLAVOR_REVF,
        w.color,
        tuple(m - x for x in w.distinguished),
        tuple((J, m - v) for J, v in w.assignment),
    )


def find_mono_f_copy(
    chi,
    spec: FamilySpec,
    colors,
    budget: Optional[SearchBudget] = None,
    workers: int = 1,
) -> SearchOutcome:
    """Exhaustive search for a monochromatic family copy in the coloring.

    Clean means no copy exists in any of the queried colors; a witness
    is the least one under (color, chain, connector assignment).  With
    a budget, a search that neither completes nor finds a copy reports
    indeterminate.  A revF copy of chi is an F copy of the reflected
    coloring, so reversed flavors run the same engine on
    `ReflectedColoring(chi)` and reflect the witness back.
    """
    if spec.k != chi.uniformity:
        raise ValueError(
            f"spec uniformity {spec.k} != coloring uniformity {chi.uniformity}"
        )
    if spec.n + 1 > chi.ground_size:
        raise ValueError(
            f"ground of size {chi.ground_size} cannot host a chain of "
            f"{spec.n + 1} leaves"
        )
    if spec.flavor not in (FLAVOR_F, FLAVOR_REVF):
        raise ValueError(f"mono-copy search needs flavor F or revF, got {spec.flavor}")
    spec_fields = (spec.k, spec.n, spec.I)
    reversed_flavor = spec.flavor == FLAVOR_REVF
    evaluator = ReflectedColoring(chi) if reversed_flavor else chi

    counters = SearchCounters()
    for color in sorted(set(colors)):
        outcome = _run_partitioned(evaluator, spec_fields, color, budget, workers)
        counters = counters.merged(outcome.counters)
        if outcome.status != CLEAN:
            witness = outcome.witness
            if reversed_flavor and witness is not None:
                witness = _reflect_witness(witness, chi.ground_size)
            return SearchOutcome(outcome.status, witness, counters)
    return SearchOutcome(CLEAN, None, counters)


def validate_witness(chi, spec: FamilySpec, witness: MonoCopyWitness) -> bool:
    """Re-check a witness from scratch against the coloring it claims.

    The flavor must be the spec's; the chain must hold n+1 leaves of
    [1, ground_size] in role order (rising for F, falling for revF); the
    connector sets must be the spec's, each with a leaf between x_0 and
    x_1; and every edge, rebuilt from the witness, must have the witness
    color.  Edges are evaluated with `_eval`, the query every searchable
    coloring answers (tree colorings, their reflections, membership
    tests and proxies of them); the checks before it make each edge a
    sorted set of distinct leaves in range, as `_eval` requires.
    """
    chain = witness.distinguished
    pairs = zip(chain, chain[1:])
    if witness.flavor != spec.flavor or len(chain) != spec.n + 1:
        return False
    if witness.flavor == FLAVOR_F:
        if any(a >= b for a, b in pairs):
            return False
        lo, hi = chain[0], chain[1]
    else:
        if any(a <= b for a, b in pairs):
            return False
        lo, hi = chain[1], chain[0]
    if min(chain) < 1 or max(chain) > chi.ground_size:
        return False
    if {J for J, _ in witness.assignment} != set(map(tuple, spec.connectors)):
        return False
    if any(not lo <= v <= hi for _, v in witness.assignment):
        return False
    return all(
        len(edge) == chi.uniformity and chi._eval(edge) == witness.color
        for edge in witness.edges(spec.I)
    )


@dataclass(frozen=True)
class SlotResult:
    flavor: str
    color: int
    status: str
    witness: Optional[MonoCopyWitness]
    counters: SearchCounters

    def to_json(self) -> dict:
        out = {
            "flavor": self.flavor,
            "color": self.color,
            "status": self.status,
            "counters": self.counters.to_json(),
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


@dataclass(frozen=True)
class AvoidanceReport:
    spec: FamilySpec
    ground_size: int
    slots: tuple[SlotResult, ...]
    elapsed_ms: float

    @property
    def status(self) -> str:
        if any(s.status == WITNESS for s in self.slots):
            return WITNESS
        if any(s.status == INDETERMINATE for s in self.slots):
            return INDETERMINATE
        return CLEAN

    def to_json(self, include_timing: bool = True) -> dict:
        total = SearchCounters()
        for s in self.slots:
            total = total.merged(s.counters)
        out = {
            "schema": AVOIDANCE_SCHEMA,
            "spec": {
                "k": self.spec.k,
                "n": self.spec.n,
                "I": list(self.spec.I),
            },
            "ground_size": self.ground_size,
            "slots": [s.to_json() for s in self.slots],
            "counters": total.to_json(),
            "status": self.status,
        }
        if include_timing:
            out["elapsed_ms"] = self.elapsed_ms
        return out


def verify_stepup_avoidance(
    chi,
    spec: FamilySpec,
    budget: Optional[SearchBudget] = None,
    workers: int = 1,
) -> AvoidanceReport:
    """The four acceptance slots: F in colors 0,1 and revF in colors 2,3.

    Each slot is one search; revF slots run on the reflected coloring
    (see `find_mono_f_copy`).  Every witness is re-checked with
    `validate_witness` before it is reported, and a witness that fails
    the check raises, since it means the engine is wrong.
    """
    start = time.monotonic()
    slots = []
    for flavor, colors in ((FLAVOR_F, (0, 1)), (FLAVOR_REVF, (2, 3))):
        slot_spec = spec.with_flavor(flavor)
        for color in colors:
            outcome = find_mono_f_copy(chi, slot_spec, {color}, budget, workers)
            if outcome.witness is not None and not validate_witness(
                chi, slot_spec, outcome.witness
            ):
                raise AssertionError(
                    f"slot ({flavor}, {color}) witness fails its re-check: "
                    f"{outcome.witness}"
                )
            slots.append(
                SlotResult(flavor, color, outcome.status, outcome.witness, outcome.counters)
            )
    elapsed_ms = (time.monotonic() - start) * 1000.0
    return AvoidanceReport(
        spec.with_flavor(FLAVOR_F), chi.ground_size, tuple(slots), elapsed_ms
    )


def find_ordered_copy(
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


def contains_family_member(host: OrderedHypergraph, spec: FamilySpec) -> bool:
    """Whether an ordered host contains *some* member of an F-type family.

    Runs the monochromatic-copy engine over the edge-membership
    indicator coloring, so collapses and connector coincidences are
    covered without enumerating members.
    """
    if spec.flavor not in (FLAVOR_F, FLAVOR_REVF):
        raise ValueError("containment search supports flavors F and revF")
    if host.uniformity != spec.k or host.v < spec.n + 1:
        return False
    outcome = find_mono_f_copy(MembershipColoring(host), spec, {0})
    if outcome.status != WITNESS:
        return False
    missing = set(outcome.witness.edges(spec.I)) - host.edge_set
    if missing:
        raise AssertionError(f"containment witness uses non-edges {sorted(missing)}")
    return True
