"""Backtracking search for monochromatic ordered family copies.

The searched object is determined by a distinguished chain of leaves
x_0 < x_1 < ... < x_n plus, for every connector set J, at least one
leaf in [x_0, x_1] whose edge through J has the target color.  Once the
chain and the color are fixed the connector choices are independent
(distinct J never constrain each other), so a search enumerates chains
with incremental pruning and reduces each J to a nonemptiness question.

There are two engines, and the type of the coloring picks one:

* Level space, for a `SteppedColoring`.  Its color is a function of the
  edge's level profile, which decides comb versus split and the split
  type (`trees.profile_shape`) and gives the projection, so the engine
  asks the coloring's profile table directly.  Every profile the search
  asks about is a function of the chain's level word l_1 ... l_n,
  l_i = bl((x_{i-1}-1) ^ (x_i-1)) with bl the bit length: the level of
  chain leaves x_i < x_j is max(l_{i+1..j}).  A word is realizable
  exactly when every two equal letters have a larger letter between
  them.  A connector v in [x_0, x_1] enters only through its offset
  t = bl((v-1) ^ (x_1-1)), which is 0 (v = x_1), l_1 (v = x_0), or any
  b < l_1 whose bit b-1 is set in x_1-1; that bit is forced to 0
  exactly when b is a strict left-to-right record of l_2 ... l_n.  The
  engine searches words, never leaves, and never asks the leaf query
  `_eval` (see `_search_levels`).
* Leaf space, for every other evaluator (edge-membership tests, base
  tables and proxies of a coloring).  It enumerates increasing chains
  of leaves, memoizing each J's answer on (x_0, x_1, leaves), which
  fixes the edge of every candidate connector.  The evaluator's type
  picks the candidates: a coloring table or proxy scans every
  position, and an edge-membership test draws chain leaves and
  connectors from its host's incidence lists, so containment on an
  explicit host is not a scan (see `_search_chains_ascending`).

A reversed (revF) copy of a coloring is an F copy of the coloring with
the leaf order reversed, so revF questions run the same engines and
reflect the witness back.  Reflection (x -> 2**N + 1 - x) keeps every
XOR (a-1) ^ (b-1) and reverses the leaf order, so in level space it
reverses the profile: a revF search colors `profile[::-1]`.  Leaf space
runs on `ReflectedColoring`, which mirrors each query; for a membership
test it also reads the host's own incidence lists through the
reflection x -> v + 1 - x (`_MirroredIncidence`), so no reversed host
is built.

Witness tie-breaking is lexicographic in (color, chain, connector
assignment in colex-J order); reversed-flavor witnesses compare through
the reflected coordinates.  Both engines return the same least witness.
"""

from __future__ import annotations

import operator
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .colorings import SteppedColoring
from .families import (
    FLAVOR_F,
    FLAVOR_REVF,
    FamilySpec,
    OrderedHypergraph,
    connector_sets,
    member_edges,
    placed_as_member,
)

CLEAN = "clean"
WITNESS = "witness"
INDETERMINATE = "indeterminate"

AVOIDANCE_SCHEMA = "treeramsey/avoidance-report/1"


@dataclass
class SearchCounters:
    """Work done by one search.

    Leaf space: `nodes` counts chain leaves tried, `prunes` leaves
    rejected by a color check, `chi_evals` edge colors evaluated,
    `admissible_computed` connector answers computed and `memo_hits`
    connector answers read from the memo.  On a host's incidence lists
    (a `MembershipColoring` in color 0, or a `ReflectedColoring` of one,
    which reads them through the reflection) `nodes` counts only the
    candidates drawn from those lists, and `chi_evals` only the
    special-edge membership tests, since connector answers are read off
    the lists without asking `_eval`.  Level space: `nodes` counts
    realizable letters tried over all oracle calls of the search,
    `prunes` letters rejected by a color check, `chi_evals` level
    profiles colored through the coloring's table, `memo_hits` profile
    colors read from the search's profile cache, and
    `admissible_computed` the entries of the offset rows computed (each
    the mask of a connector edge's offsets in [0, l_1] that have the
    color; see `_search_levels`).  A row entry colors every offset up
    to l_1, not only those still possible, so `chi_evals` can exceed
    the count of a search that colors only the possible ones.
    """

    nodes: int = 0
    prunes: int = 0
    chi_evals: int = 0
    admissible_computed: int = 0
    memo_hits: int = 0

    # vars() holds exactly the fields, in order; astuple and asdict
    # would deep-copy them, at 20 to 40 times the cost.

    def merged(self, other: "SearchCounters") -> "SearchCounters":
        return SearchCounters(*map(operator.add, vars(self).values(), vars(other).values()))

    def to_json(self) -> dict:
        return dict(vars(self))


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

    def edges(self, I: Sequence[int]) -> list[tuple[int, ...]]:
        return member_edges(self.distinguished, I, self.assignment)

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


class ReflectedColoring:
    """View of a leaf-space evaluator with the leaf order reversed."""

    def __init__(self, inner):
        self.inner = inner
        self.uniformity = inner.uniformity
        self.ground_size = inner.ground_size

    def _eval(self, elems: tuple[int, ...]) -> int:
        reflect = (self.ground_size + 1).__sub__  # x -> ground_size + 1 - x
        return self.inner._eval(tuple(map(reflect, reversed(elems))))


class MembershipColoring:
    """Edge-set indicator posing as a 2-coloring: 0 on edges, 1 elsewhere.

    Lets the monochromatic-copy engine double as an ordered-containment
    test: a color-0 copy is exactly an ordered subgraph embedding.  The
    leaf engine reads color-0 candidates from `host.incidence`, and for a
    `ReflectedColoring` of the test from those lists reflected
    (`_MirroredIncidence`).
    """

    def __init__(self, host: OrderedHypergraph):
        self.host = host
        self.uniformity = host.uniformity
        self.ground_size = host.v
        self.edge_set = host.edge_set

    def _eval(self, elems: tuple[int, ...]) -> int:
        return 0 if elems in self.edge_set else 1


class _Filled(dict):
    """A dict whose missing entry `key` is `fill(key)`, computed on first
    read and kept."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _MirroredIncidence(_Filled):
    """A host's incidence lists read through the reflection x -> v + 1 - x:
    entry p holds the host's edges through v + 1 - p, each reflected and
    sorted: the reversed host's edges through p, though maybe listed in
    another order (the leaf engine reads an entry as a set).  An entry
    is built on first use and kept for one search, so only the vertices
    the search touches are mirrored."""

    def __init__(self, host: OrderedHypergraph):
        m, through = host.v + 1, host.incidence
        super().__init__(lambda p: [tuple(map(m.__sub__, reversed(e))) for e in through[m - p]])


def _ticker(counters: SearchCounters, budget: Optional[SearchBudget]):
    """A node counter that raises BudgetExceeded past the budget; the
    clock is read on the first node and then every 1024th."""
    deadline = None
    if budget is not None and budget.max_seconds is not None:
        deadline = time.monotonic() + budget.max_seconds
    max_nodes = budget.max_nodes if budget is not None else None

    def tick():
        counters.nodes += 1
        if max_nodes is not None and counters.nodes > max_nodes:
            raise BudgetExceeded
        polled = counters.nodes == 1 or counters.nodes % 1024 == 0
        if deadline is not None and polled and time.monotonic() >= deadline:
            raise BudgetExceeded

    return tick


@lru_cache(maxsize=64)
def _connectors_by_max(n: int, k: int) -> Mapping[int, tuple[tuple[int, ...], ...]]:
    """`connector_sets(n, k)` grouped by their largest element, each group
    in colex order.  Each (n, k) is grouped once and the result is shared
    by every search, as `families.connector_sets` is, so it is a
    read-only mapping of tuples."""
    by_max: dict[int, list[tuple[int, ...]]] = {}
    for J in connector_sets(n, k):
        by_max.setdefault(max(J), []).append(J)
    return MappingProxyType({d: tuple(group) for d, group in by_max.items()})


def _search_chains_ascending(evaluator, spec_fields, color, budget):
    """Depth-first enumeration of increasing chains with per-J pruning.

    Returns a SearchOutcome with the counters it creates.  The type of
    the evaluator picks where the candidates come from.  A coloring
    table or a proxy of one scans every position in range at every
    depth and every v in [x_0, x_1] for a connector.  A
    `MembershipColoring` asked for color 0, the host's edges, draws them
    from the host's incidence lists instead, and a `ReflectedColoring` of
    one from those lists read through the reflection
    (`_MirroredIncidence`), the reversed host's lists without building it:

    * x_0 is the first vertex of some host edge, as of the special edge:
      a vertex that begins an edge of its own incidence list, tested
      lazily in increasing order.
    * x_i for i = I[m] follows the special edge's placed vertices
      (x_0, x_{I[0]}, ..., x_{I[m-1]}) in a host edge that begins with
      them; for i = I[-1] it is that edge's last vertex.
    * x_d for any other d that is max(J) of some connector sets J is,
      for each of them, the last vertex of a host edge (v, x_{J[:-1]}, x_d)
      with v in [x_0, x_1].
    * Any other depth scans its range.
    * A connector's least v is the least first vertex in [x_0, x_1] of
      the host edges through x_{J[0]} that end in its leaves; the host
      need not be a partial system.

    Why the witness is unchanged: each rule drops only positions that no
    copy extending the placed prefix can use, so the candidates at each
    depth include every position a scan would accept, and they are tried
    in increasing order.  The first complete chain found is therefore
    the lexicographically least one, the one the scan returns (the
    argument of `find_ordered_copy`), and both sources give each
    connector its least leaf.  The special edge and the connector
    interval are the member rule of `families.member_edges` and
    `families.placed_as_member`, inlined on this hot path.
    """
    k, n, I = spec_fields
    M = evaluator.ground_size
    eval_edge = evaluator._eval
    all_connectors = connector_sets(n, k)
    connectors_by_max = _connectors_by_max(n, k)
    special_at = I[-1]

    counters = SearchCounters()
    tick = _ticker(counters, budget)
    memo: dict = {}
    chain: list[int] = [0] * (n + 1)

    membership = evaluator.inner if isinstance(evaluator, ReflectedColoring) else evaluator
    if isinstance(membership, MembershipColoring) and color == 0:
        host = membership.host
        incidence = host.incidence if membership is evaluator else _MirroredIncidence(host)
        # x_{I[m]} -> chain positions of the special edge's first m + 1 vertices
        special_prefix = {i: (0,) + I[:m] for m, i in enumerate(I)}

        def least_leaf(x0, x1, leaves):
            return min(
                (e[0] for e in incidence[leaves[0]] if e[1:] == leaves and x0 <= e[0] <= x1),
                default=None,
            )

        def candidates(depth, lo, hi):
            if depth in special_prefix:
                key = tuple(chain[p] for p in special_prefix[depth])
                m = len(key)
                found = {e[m] for e in incidence[key[-1]] if e[:m] == key}
            elif depth in connectors_by_max:
                x0, x1 = chain[0], chain[1]
                found = None
                for J in connectors_by_max[depth]:
                    mid = tuple(chain[j] for j in J[:-1])
                    ends = {
                        e[-1] for e in incidence[mid[0]] if e[1:-1] == mid and x0 <= e[0] <= x1
                    }
                    found = ends if found is None else found & ends
            elif depth:
                return range(lo, hi + 1)
            else:  # x_0 begins some edge through it, drawn lazily in order
                return (x for x in range(lo, hi + 1) if any(e[0] == x for e in incidence[x]))
            return [x for x in sorted(found) if lo <= x <= hi]

    else:

        def least_leaf(x0, x1, leaves):
            for v in range(x0, x1 + 1):
                counters.chi_evals += 1
                if eval_edge((v,) + leaves) == color:
                    return v
            return None

        def candidates(depth, lo, hi):
            return range(lo, hi + 1)

    def admissible_min(x0, x1, leaves):
        key = (x0, x1, leaves)
        if key in memo:
            counters.memo_hits += 1
            return memo[key]
        counters.admissible_computed += 1
        memo[key] = best = least_leaf(x0, x1, leaves)
        return best

    def extend(depth):
        if depth == n + 1:
            assignment = tuple(
                (J, admissible_min(chain[0], chain[1], tuple(chain[j] for j in J)))
                for J in all_connectors
            )
            return MonoCopyWitness(FLAVOR_F, color, tuple(chain), assignment)
        lo = chain[depth - 1] + 1 if depth > 0 else 1
        for x in candidates(depth, lo, M - (n - depth)):
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
        found = extend(0)
    except BudgetExceeded:
        return SearchOutcome(INDETERMINATE, None, counters)
    finally:
        del extend  # it calls itself through this cell: free the search's state now
    return SearchOutcome(CLEAN if found is None else WITNESS, found, counters)


def _search_levels(N, profile_color, spec_fields, color, budget):
    """Exact search over level words for a stepped coloring of depth N.

    `profile_color` maps an edge's level profile to its color: a
    `SteppedColoring`'s `_color_of_profile` (the shape by
    `trees.profile_shape` and the projection, both off the word), or
    for revF that method on the reversed profile, since reflection keeps
    every XOR (a-1) ^ (b-1) and reverses their order.

    A chain is described by x_0, the bits of x_1 - 1 below l_1, and
    its word (module docstring).  The least witness, if any, starts at
    x_0 = 1: the all-zero x_0 - 1 permits every word, and the connector
    offsets depend on x_1 alone.  An oracle `complete` decides by
    depth-first search over l_2 ... l_n whether a copy exists once l_1
    is chosen and some bits of x_1 - 1 are fixed to 0; a free bit is 1
    unless its letter is a record, the most permissive choice.  The least feasible
    l_1 comes first, then x_1's low bits from high to low, each kept 0
    while the oracle still finds a copy.  For d >= 2 the least x_d with
    letter b is x_{d-1} with its bits below b cleared and bit b-1 set,
    which is also the most permissive choice, so the oracle's first word
    in increasing letter order gives the least chain.  Each connector
    takes its largest admissible offset t, hence its least leaf
    v = ((x_1 - 1) >> t << t) + 1.  Edge colors come from
    `profile_color`, cached per profile for the search; no leaf is
    built to ask them: the member rule (`families.member_edges`,
    `families.placed_as_member`) is read in level form, each edge by its
    profile and each connector of [x_0, x_1] by its offset.

    Connector masks.  `extend` keeps, for each connector J with
    max(J) < d, the mask of J's offsets that have the color and are
    still in `opts`; a letter is pruned when one of them empties.  Why
    (head, done, l_1, last) is a sufficient key for J's offsets: the
    J-edge with offset t, {v} | {x_j : j in J}, has the profile
    (max(t, head), *done, last).  Here head = max(l_2 .. l_{J[0]}) is
    the level of x_1 and x_{J[0]}; for t > 0, x_1 - 1 has bit t-1 set
    and bit head-1 clear, so the level of v and x_{J[0]} is max(t, head)
    when t != head, and t = head is never in `opts`, since the largest
    of l_2 .. l_{J[0]} is a record.  `done` holds the maxima of the
    segments (J[i], J[i+1]] before the last, and `last` that of
    (J[-2], d], which is max(run, l_d) with run the maximum of
    l_{J[-2]+1} .. l_{d-1}.  The color is a function of the profile, so
    the set of t in [0, l_1] whose J-edge has the color depends on the
    key alone, and since `opts` lies in [0, l_1], that set ANDed with
    `opts` is J's mask.  The search keeps the set in
    `rows[head, *done, l_1][last]`, filled on first read: `extend` finds
    each J's row and run once per call, and a letter c then costs
    max(run, c), a lookup and an AND.  Why the masks of earlier
    connectors need a check only when c is a record (c > top):
    otherwise `opts` is unchanged, and every mask passed down meets
    `opts`, since a letter recurses only once its own masks and all
    earlier ones meet its `opts`.  So the letters pruned are exactly
    those a check of every mask at every letter prunes, in the same
    order, and `nodes` and `prunes` are theirs.
    """
    k, n, I = spec_fields
    connectors_by_max = _connectors_by_max(n, k)
    cuts = (0,) + I
    special_at = I[-1]

    counters = SearchCounters()
    tick = _ticker(counters, budget)
    colors: dict[tuple[int, ...], int] = {}
    word = [0] * (n + 1)  # word[d] is l_d; word[0] is unused

    def edge_color(profile):
        c = colors.get(profile)
        if c is None:
            counters.chi_evals += 1
            c = colors[profile] = profile_color(profile)
        else:
            counters.memo_hits += 1
        return c

    def offsets(key, last):
        """Bit mask of the offsets t in [0, l_1] whose edge has the color,
        for key = (head, *done, l_1): the edge's profile is
        (max(t, head), *done, last), so every t <= head shares one."""
        counters.admissible_computed += 1
        head, l1 = key[0], key[-1]
        rest = key[1:-1] + (last,)
        mask = (2 << min(head, l1)) - 1 if edge_color((head,) + rest) == color else 0
        for t in range(head + 1, l1 + 1):
            if edge_color((t,) + rest) == color:
                mask |= 1 << t
        return mask

    # (head, *done, l_1) -> last -> offsets(key, last), filled on first read
    rows = _Filled(lambda key: _Filled(partial(offsets, key)))
    # J -> the word's slices whose maxima key J's row (head, then J's
    # closed segments), and J's last segment without max(J)
    spans = {
        J: ((slice(2, J[0] + 1), *(slice(a + 1, b + 1) for a, b in zip(J, J[1:-1]))),
            slice(J[-2] + 1, J[-1]))
        for J in connector_sets(n, k)
    }

    def connector_row(J):
        """J's row of offset masks, and `run`, the maximum of J's last
        segment before max(J): the segment's maximum is max(run, l_{max(J)})."""
        keyed, before = spans[J]
        row = rows[(*map(max, map(word.__getitem__, keyed)), word[1])]
        return row, max(word[before], default=0)

    def extend(d, y, top, opts, masks):
        """Try l_d with x_{d-1} - 1 = y; records of l_2 .. l_{d-1} reach
        `top` and `opts` holds the connector offsets still possible."""
        if d == special_at:
            # l_d enters only the last segment of the special edge's profile
            head = tuple(max(word[a + 1 : b + 1]) for a, b in zip(cuts, cuts[1:-1]))
            low = max(word[cuts[-2] + 1 : d], default=0)
        at_d = [connector_row(J) for J in connectors_by_max.get(d, ())]
        for c in range(1, N + 1):
            if y >> (c - 1) & 1:
                continue  # unrealizable: x_d would not exceed x_{d-1}
            tick()
            word[d] = c
            if d == special_at and edge_color(head + (max(low, c),)) != color:
                counters.prunes += 1
                continue
            new_opts = opts
            if c > top:  # a record: offset c is closed, which may empty an earlier mask
                new_opts = opts & ~(1 << c)
                if not all(m & new_opts for m in masks):
                    counters.prunes += 1
                    continue
            new_masks = masks
            for row, run in at_d:
                m = row[run if run > c else c] & new_opts
                if not m:
                    counters.prunes += 1
                    break
                new_masks += (m,)
            else:
                if d == n or extend(
                    d + 1, y >> c << c | 1 << (c - 1), max(top, c), new_opts, new_masks
                ):
                    return True
        return False

    def complete(first_letters, zeros):
        """Whether a copy exists with l_1 among `first_letters` and bit
        b-1 of x_1 - 1 fixed to 0 for every b in the mask `zeros`; leaves
        the least word found in `word`.  The other bits stay free: a bit
        forced to 1 only forbids a record that would close its offset,
        and no copy has such a record once keeping the bit 0 has failed."""
        for l1 in first_letters:
            tick()
            word[1] = l1
            opts = 1 | 1 << l1 | ((1 << l1) - 2) & ~zeros
            if extend(2, 1 << (l1 - 1), 0, opts, ()):
                return True
        return False

    try:
        if not complete(range(1, N + 1), 0):
            return SearchOutcome(CLEAN, None, counters)
        l1, zeros, ones = word[1], 0, 0
        best = word[2:]
        for b in range(l1 - 1, 0, -1):
            if complete((l1,), zeros | 1 << b):
                zeros |= 1 << b
                best = word[2:]
            else:
                # No copy keeps the bit 0, so the last word found needs
                # it set and is still the least one.
                ones |= 1 << b
    except BudgetExceeded:
        return SearchOutcome(INDETERMINATE, None, counters)
    finally:
        del extend  # it calls itself through this cell: free the search's state now

    word[2:] = best
    ys = [0, 1 << (l1 - 1) | ones >> 1]  # the chain's x_d - 1
    for c in best:
        ys.append(ys[-1] >> c << c | 1 << (c - 1))
    final = 1 | 1 << l1 | ones
    assignment = []
    for J in connector_sets(n, k):
        row, run = connector_row(J)
        t = (row[max(run, word[J[-1]])] & final).bit_length() - 1  # largest admissible offset
        assignment.append((J, (ys[1] >> t << t) + 1))
    witness = MonoCopyWitness(
        FLAVOR_F, color, tuple(y + 1 for y in ys), tuple(assignment)
    )
    return SearchOutcome(WITNESS, witness, counters)


def _reflect_witness(w: MonoCopyWitness, ground_size: int, color: int) -> MonoCopyWitness:
    """The revF witness in this color whose leaves are w's reflected."""
    m = ground_size + 1
    return MonoCopyWitness(
        FLAVOR_REVF,
        color,
        tuple(m - x for x in w.distinguished),
        tuple((J, m - v) for J, v in w.assignment),
    )


def find_mono_f_copy(
    chi,
    spec: FamilySpec,
    colors,
    budget: Optional[SearchBudget] = None,
) -> SearchOutcome:
    """Exhaustive search for a monochromatic family copy in the coloring.

    Clean means no copy exists in any of the queried colors; a witness
    is the least one under (color, chain, connector assignment).  With
    a budget, a search that neither completes nor finds a copy reports
    indeterminate.  A revF copy of chi is an F copy of the reflected
    coloring, so reversed flavors search that and reflect the witness
    back.  A `SteppedColoring` is searched in level space
    (`_search_levels`) through its profile table, since its color is a
    function of the edge's level profile; reflection reverses that
    profile, so a revF slot colors `profile[::-1]`.  Any other evaluator
    is searched in leaf space (`_search_chains_ascending`), reflected
    by `ReflectedColoring` for revF; for a `MembershipColoring` that
    engine reads the host's own incidence lists through the reflection
    x -> v + 1 - x, so no reversed host is built.  The
    two engines give the same status and witness, and their counters
    count different things (see `SearchCounters`).  This function
    searches every revF question itself, for any evaluator; only the
    four-slot runner `verify_stepup_avoidance` repeats a mirrored F
    slot in place of a revF search.
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
    if isinstance(chi, SteppedColoring):
        if reversed_flavor:
            def profile_color(profile):
                return chi._color_of_profile(profile[::-1])
        else:
            profile_color = chi._color_of_profile
        engine = partial(_search_levels, chi.depth, profile_color)
    else:
        evaluator = ReflectedColoring(chi) if reversed_flavor else chi
        engine = partial(_search_chains_ascending, evaluator)

    counters = SearchCounters()
    for color in sorted(set(colors)):
        outcome = engine(spec_fields, color, budget)
        counters = counters.merged(outcome.counters)
        if outcome.status != CLEAN:
            witness = outcome.witness
            if reversed_flavor and witness is not None:
                witness = _reflect_witness(witness, chi.ground_size, witness.color)
            return SearchOutcome(outcome.status, witness, counters)
    return SearchOutcome(CLEAN, None, counters)


def validate_witness(chi, spec: FamilySpec, witness: MonoCopyWitness) -> bool:
    """Re-check a witness from scratch against the coloring it claims.

    The flavor must be the spec's, the chain and connectors must sit as
    in a member (`families.placed_as_member`) with the chain in
    [1, ground_size], the connector sets must be the spec's, and every
    edge of the copy (`families.member_edges`) must have the witness
    color.  Edges are evaluated with `_eval`, the query every searchable
    coloring answers (tree colorings, their reflections, membership
    tests and proxies of them); the checks before it make each edge a
    sorted set of distinct leaves in range, as `_eval` requires.
    """
    chain = witness.distinguished
    if witness.flavor != spec.flavor or not placed_as_member(
        spec, chain, [v for _, v in witness.assignment]
    ):
        return False
    if min(chain) < 1 or max(chain) > chi.ground_size:
        return False
    if {J for J, _ in witness.assignment} != set(map(tuple, spec.connectors)):
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

    def to_json(self) -> dict:
        """The report document; `elapsed_ms` is timing, which belongs
        in the run manifest, so it is left out."""
        total = reduce(SearchCounters.merged, (s.counters for s in self.slots), SearchCounters())
        return {
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


def verify_stepup_avoidance(
    chi,
    spec: FamilySpec,
    budget: Optional[SearchBudget] = None,
) -> AvoidanceReport:
    """The four acceptance slots: F in colors 0,1 and revF in colors 2,3.

    Each slot is one search (`find_mono_f_copy`), except that for a
    `SteppedColoring` the revF slot of a mirrored pair repeats its F
    twin (`SteppedColoring.mirror_colors`): revF/2 that of F/1, and at
    k = 3 revF/3 that of F/0.  It takes the twin's status and counters,
    and its witness reflected back (`_reflect_witness`) in the slot's
    color.  Why that is the search's
    own answer: a revF slot in color c runs `_search_levels` on the
    predicate color(p[::-1]) == c of a level profile p, and the F slot
    in color c' on color(p) == c'.  By `trees.profile_shape`, reversing
    a profile swaps the left and right combs and maps a split's left
    count l to k - l (its largest entry is attained once), and
    `trees.profile_projection` keeps the set of levels.  So by
    `_color_of_profile` a comb colored c reverses to one colored 3 - c,
    a (k-1, 1) split (1) to a (1, k-1) split (2) and back, and a
    balanced split stays 0.  Hence color(p[::-1]) == 2 exactly when
    color(p) == 1; at k = 3 every profile is a comb, so also
    color(p[::-1]) == 3 exactly when color(p) == 0.  At k >= 4 a
    balanced split is 0 both ways, so revF/3 is searched itself.  The
    engine reads its predicate only through `edge_color(...) == color`,
    so equal predicates make the same run, letter for letter (the same
    profiles asked in the same order, hence the same counters and the
    same stop under a node budget), and the same least witness in F
    coordinates, which `find_mono_f_copy` would reflect just so.  Under
    a time budget the repeated slot takes its twin's outcome and spends
    no time of its own.

    Every witness, a repeated one too, is re-checked with
    `validate_witness` before it is reported, and a witness that fails
    the check raises, since it means the engine is wrong.
    """
    start = time.monotonic()
    mirror = chi.mirror_colors if isinstance(chi, SteppedColoring) else {}
    searched = {}
    slots = []
    for flavor, colors in ((FLAVOR_F, (0, 1)), (FLAVOR_REVF, (2, 3))):
        slot_spec = spec.with_flavor(flavor)
        for color in colors:
            if flavor == FLAVOR_REVF and color in mirror:
                twin = searched[mirror[color]]
                witness = twin.witness and _reflect_witness(twin.witness, chi.ground_size, color)
                outcome = SearchOutcome(twin.status, witness, SearchCounters(**vars(twin.counters)))
            else:
                outcome = searched[color] = find_mono_f_copy(chi, slot_spec, {color}, budget)
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


def _connected_order(through, i: int) -> list[int]:
    """The target vertices from i on, in the order `find_ordered_copy`
    places them once 1 .. i-1 are placed: i, then each time the
    least-index vertex sharing an edge (`through`, the target's
    incidence lists) with a placed one, or the least-index vertex when
    none does."""
    order, rest = [i], list(range(i + 1, len(through)))
    while rest:
        v = next((j for j in rest if any(q < i or q in order for e in through[j] for q in e)),
                 rest[0])
        rest.remove(v)
        order.append(v)
    return order


@lru_cache(maxsize=64)
def _placement_plans(tv: int, target_edges: tuple[tuple[int, ...], ...]) -> tuple:
    """The plans of `find_ordered_copy` for the target with tv vertices
    and these edges (its labels play no part): for i = 1, 2, ... up to
    the first i whose connected order is the index order, the steps that
    place i, then the rest in connected order, with 1 .. i-1 placed, and
    whether that is the index order.  A step is (vertex, nearest placed
    vertex below, nearest above, its edge patterns, its degree); an edge
    pattern is (id, the vertex's position in the edge, getters of the
    placed vertices' positions and of their images), one per (vertex,
    edge, its placed vertices).  Each target value is planned once and
    the result, all tuples, is shared by every call, as
    `families.connector_sets` is."""
    through = OrderedHypergraph(tv, target_edges).incidence
    patterns: dict = {}
    plans = []
    for i in range(1, tv + 1):
        order = _connected_order(through, i)
        placed = set(range(1, i))
        steps = []
        for v in order:
            edges = []
            for e in through[v]:
                known = tuple(q for q in e if q in placed)
                if known:
                    edges.append(patterns.setdefault((v, e, known), (
                        len(patterns), e.index(v),
                        operator.itemgetter(*map(e.index, known)), operator.itemgetter(*known),
                    )))
            below = max((p for p in placed if p < v), default=0)
            above = min((p for p in placed if p > v), default=tv + 1)
            steps.append((v, below, above, tuple(edges), len(through[v])))
            placed.add(v)
        in_order = order == list(range(i, tv + 1))
        plans.append((tuple(steps), in_order))
        if in_order:
            break
    return tuple(plans)


def find_ordered_copy(
    host: OrderedHypergraph, target: OrderedHypergraph
) -> Optional[tuple[int, ...]]:
    """Least order-preserving embedding of target into host, or None.

    One depth-first search decides whether an embedding extends fixed
    images of target vertices 1 .. i-1.  It places i first, then the
    rest in connected order (`_connected_order`), trying candidates in
    increasing order, drawn from the host's incidence lists
    (`OrderedHypergraph.incidence`, cached on the host):

    * An image lies above the image of the nearest placed vertex below
      it in index order and below that of the nearest placed vertex
      above it, leaving room for the vertices between.
    * For each target edge e through the vertex that holds placed
      vertices, the image sits at the vertex's position in e in a host
      edge that holds the placed images of e at theirs, read from the
      incidence list of one of them.  With every other vertex of e
      placed, these are the completions of their images, in any
      position of e; a partial (k, k-1)-system has at most one.
    * A vertex with no placed neighbour takes any position in range.
    * A candidate needs at least the target vertex's degree.

    Each rule drops only positions that no embedding of the placed
    images uses: images increase with the vertex, so the image of an
    edge is a host edge with each image at its vertex's position.  An
    edge is checked by the edge rule of its last vertex placed (at
    k = 1, by the degree rule, host and target sharing the uniformity).

    The least image comes from fixing vertices 1, 2, ... in turn, as
    `_search_levels` fixes the bits of x_1.  With 1 .. i-1 fixed at their
    least images, the search tries each image of i, in increasing order
    and below its image in the last embedding found (which extends the
    fixed images), in full: the first embedding found gives i its least
    image, and if none is found the last embedding's is the least.
    Once the connected order from i is the index order, one search
    capped by the last embedding's image of i ends the work: in index
    order the first embedding found is the lexicographically least, the
    one a scan of every host position returns.  A target whose every
    vertex after the first shares an edge with an earlier one, such as
    a canonical revG member, therefore runs one search in index order.

    The placement plans depend on the target's vertex count and edges
    alone, so they are built once per target value and shared by every
    call (`_placement_plans`); the images and candidate pools are the
    call's own.
    """
    if not target.edges:
        raise ValueError("target must have at least one edge")
    if host.uniformity != target.uniformity:
        return None
    incidence, hv, tv = host.incidence, host.v, target.v
    image = [0] * (tv + 2)  # image[0] and image[tv + 1] stand for the host's ends
    image[tv + 1] = hv + 1
    # Sorted candidates of an edge pattern by the placed images, kept for the call.
    pools: dict = {}

    def matches(pattern):
        """Sorted host vertices at position `at` of the host edges that
        hold the placed images of the pattern's edge at their positions."""
        pid, at, known_positions, known_images = pattern
        key = (pid, known_images(image))
        if key not in pools:
            placed = key[1]  # an int for one placed vertex, else a tuple
            anchor = placed if type(placed) is int else placed[0]
            pools[key] = sorted(
                {h[at] for h in incidence[anchor] if known_positions(h) == placed}
            )
        return pools[key]

    def candidates(step, top):
        v, below, above, edges, need = step
        lo = image[below] + v - below
        hi = min(image[above] - (above - v), top)
        if edges:
            pool = matches(edges[0])
            if len(edges) > 1:
                pool = sorted(set(pool).intersection(*map(matches, edges[1:])))
            pool = pool[bisect_left(pool, lo) : bisect_right(pool, hi)]
        else:
            pool = range(lo, hi + 1)
        return (x for x in pool if len(incidence[x]) >= need)

    def embed(steps, top):
        """Whether the steps complete an embedding, the first image at
        most `top`; the embedding found is left in `image`."""
        # A loop, not a recursive closure, so no reference cycle keeps
        # the host's views alive after the call; pending[s] holds the
        # candidates of step s not yet tried.
        pending = [candidates(steps[0], top)] * len(steps)
        s = 0
        while s >= 0:
            c = next(pending[s], None)
            if c is None:
                s -= 1
                continue
            image[steps[s][0]] = c
            if s == len(steps) - 1:
                return True
            s += 1
            pending[s] = candidates(steps[s], hv)
        return False

    best = None
    for i, (steps, in_order) in enumerate(_placement_plans(tv, target.edges), 1):
        if embed(steps, hv if best is None else best[i] if in_order else best[i] - 1):
            best = image[:]
        elif best is None:
            return None
        if in_order:
            return tuple(best[1:-1])
        image[i] = best[i]


def contains_family_member(host: OrderedHypergraph, spec: FamilySpec) -> bool:
    """Whether an ordered host contains *some* member of an F-type family.

    Runs the monochromatic-copy engine over the edge-membership
    indicator coloring, so collapses and connector coincidences are
    covered without enumerating members.  The leaf engine draws chain
    leaves and connectors from the host's incidence lists, not from
    every position, and returns the same least witness as that scan
    (`_search_chains_ascending` says why); revF reads the same host
    through the reflection x -> v + 1 - x, runs F there and reflects the
    witness back.  The witness is re-checked with
    `validate_witness` before the answer is given.
    """
    if spec.flavor not in (FLAVOR_F, FLAVOR_REVF):
        raise ValueError("containment search supports flavors F and revF")
    if host.uniformity != spec.k or host.v < spec.n + 1:
        return False
    membership = MembershipColoring(host)
    outcome = find_mono_f_copy(membership, spec, {0})
    if outcome.status != WITNESS:
        return False
    if not validate_witness(membership, spec, outcome.witness):
        raise AssertionError(f"containment witness fails its re-check: {outcome.witness}")
    return True
