"""Independent computations the benchmark checks the program against.

Nothing here imports treeramsey.  Every function is written from the
definitions in the package's docstrings (tree levels, comb and split
rules, family members, the blow-up's vertex layout), using plain
enumeration without the program's memo, so a fault in the program
cannot hide behind the same fault here.
"""

from __future__ import annotations

import itertools


class Incorrect(Exception):
    """A program output that contradicts an independent computation."""


# --- colorings on binary-tree leaves -------------------------------------


def parse_coloring_text(text: str) -> tuple[int, int, dict[tuple[int, ...], int]]:
    """(uniformity, ground size, subset -> color) from the coloring text format."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    header = lines[0]
    if header[0] != "coloring":
        raise Incorrect(f"coloring file header {header!r}")
    r, n = int(header[1]), int(header[2])
    table = {}
    for parts in lines[1:]:
        subset = tuple(sorted(int(p) for p in parts[:r]))
        table[subset] = int(parts[r])
    if set(table) != set(itertools.combinations(range(1, n + 1), r)):
        raise Incorrect("coloring file does not list every subset exactly once")
    return r, n, table


def ancestor_level(a: int, b: int, depth: int) -> int:
    """Level of the common ancestor of leaves a != b, found by walking up.

    Leaves sit at level depth+1 and the root at level 1; each step up
    halves the 0-based index within a level.
    """
    x, y, level = a - 1, b - 1, depth + 1
    while x != y:
        x, y, level = x // 2, y // 2, level - 1
    return level


def ancestor_at(x: int, depth: int, level: int) -> int:
    """0-based index, within its level, of leaf x's ancestor at that level."""
    node = x - 1
    for _ in range(depth + 1 - level):
        node //= 2
    return node


class SteppedReference:
    """Colors of k-subsets of [2**depth] by the stepping-up rules.

    `inner` is either a dict of base colors keyed by sorted subsets or
    another SteppedReference one uniformity lower.  Combs (consecutive
    ancestor levels strictly monotone) take the inner color of their
    level set; for k = 3 a falling comb keeps it and a rising comb takes
    3 minus it, for k >= 4 the two swap.  Other sets split below the
    ancestor of their extremes: both parts of size >= 2 give 0, a single
    right leaf gives 1, a single left leaf gives 2.
    """

    def __init__(self, inner, inner_ground: int):
        self.inner = inner
        self.depth = inner_ground

    @property
    def ground_size(self) -> int:
        return 1 << self.depth

    def _inner_color(self, subset: tuple[int, ...]) -> int:
        if isinstance(self.inner, dict):
            return self.inner[subset]
        return self.inner.color(subset)

    def color(self, X) -> int:
        X = tuple(sorted(X))
        k = len(X)
        levels = [ancestor_level(a, b, self.depth) for a, b in zip(X, X[1:])]
        falling = all(a > b for a, b in zip(levels, levels[1:]))
        rising = all(a < b for a, b in zip(levels, levels[1:]))
        if falling or rising:
            c = self._inner_color(tuple(sorted(levels)))
            keep = falling if k == 3 else rising
            return c if keep else 3 - c
        # The least leaf hangs below the left child of the extremes' ancestor.
        below_top = ancestor_level(X[0], X[-1], self.depth) + 1
        left_child = ancestor_at(X[0], self.depth, below_top)
        left = sum(ancestor_at(x, self.depth, below_top) == left_child for x in X)
        right = k - left
        if left >= 2 and right >= 2:
            return 0
        return 1 if right == 1 else 2


def has_mono_clique(table: dict[tuple[int, ...], int], n: int, r: int, t: int) -> bool:
    """Brute force: some t-set all of whose r-subsets share one color."""
    for clique in itertools.combinations(range(1, n + 1), t):
        if len({table[s] for s in itertools.combinations(clique, r)}) == 1:
            return True
    return False


def is_five_cycle(edges: set[tuple[int, int]]) -> bool:
    """Whether a graph on [5] is a single 5-cycle (2-regular and connected)."""
    if len(edges) != 5:
        return False
    adj = {v: set() for v in range(1, 6)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    if any(len(nb) != 2 for nb in adj.values()):
        return False
    seen, stack = {1}, [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == 5


# --- ordered families -----------------------------------------------------


def connector_sets(n: int, k: int) -> list[tuple[int, ...]]:
    """(k-1)-subsets of {2..n}, ordered by largest element, then the rest."""
    return sorted(
        itertools.combinations(range(2, n + 1), k - 1),
        key=lambda J: tuple(reversed(J)),
    )


def canonical_g_edges(k: int, n: int, I: tuple[int, ...]) -> tuple[int, set]:
    """(v, edges) of the all-distinct G member: anchor 1, then one
    connector per J in colex order, then x_1 < ... < x_n."""
    Js = connector_sets(n, k)
    q = len(Js)
    x = {i: q + 1 + i for i in range(1, n + 1)}
    edges = {tuple(sorted([1] + [x[i] for i in I]))}
    for idx, J in enumerate(Js):
        edges.add(tuple(sorted([2 + idx] + [x[j] for j in J])))
    return n + q + 1, edges


def reversed_edges(edges, v: int) -> set:
    return {tuple(sorted(v + 1 - p for p in e)) for e in edges}


def least_embedding(host_edges: set, host_v: int, target_edges: set, target_v: int):
    """Lexicographically least order-preserving embedding, or None.

    Plain backtracking over increasing images; an edge is tested once
    its largest vertex is placed.
    """
    by_max: dict[int, list] = {}
    for e in target_edges:
        by_max.setdefault(max(e), []).append(e)
    image = [0] * (target_v + 1)

    def place(i):
        if i > target_v:
            return tuple(image[1:])
        for cand in range(image[i - 1] + 1, host_v - (target_v - i) + 1):
            image[i] = cand
            if all(tuple(image[p] for p in e) in host_edges for e in by_max.get(i, ())):
                found = place(i + 1)
                if found is not None:
                    return found
        return None

    return place(1)


def contains_f_member(host_edges: set, v: int, k: int, n: int, I: tuple[int, ...]) -> bool:
    """Whether the host contains a member of flavor F, without memo.

    Members: a chain x_0 < ... < x_n with {x_0} + {x_i : i in I} an
    edge and, for every connector set J, some u in [x_0, x_1] with
    {u} + {x_j : j in J} an edge.  Each test is made afresh.
    """
    by_last: dict[int, list] = {}
    for J in connector_sets(n, k):
        by_last.setdefault(J[-1], []).append(J)
    chain = [0] * (n + 1)

    def served(J):
        rest = [chain[j] for j in J]
        return any(
            tuple(sorted([u] + rest)) in host_edges
            for u in range(chain[0], chain[1] + 1)
        )

    def extend(d):
        if d > n:
            return True
        lo = chain[d - 1] + 1 if d else 1
        for x in range(lo, v - (n - d) + 1):
            chain[d] = x
            if d == I[-1] and tuple(sorted({chain[0]} | {chain[i] for i in I})) not in host_edges:
                continue
            if not all(served(J) for J in by_last.get(d, ())):
                continue
            if extend(d + 1):
                return True
        return False

    return extend(0)


# --- Steiner constructions -----------------------------------------------


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def blowup_counts(n: int, k: int, m: int) -> tuple[int, int]:
    """(vertices, edges) of the blow-up: m**(k-1) edges per edge index set."""
    blocks = len(connector_sets(n, k)) + 1
    return m * n + m ** (k - 1) * blocks, m ** (k - 1) * blocks


def blowup_edges(n: int, k: int, I: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """Edges of the blow-up in its documented vertex layout.

    Classes V_1..V_n of m vertices come first, then one block of
    m**(k-1) vertices per edge index set (connector sets in colex
    order, I last); the transversal with class positions (r_1, ..) is
    extended by the block vertex of lexicographic rank (r_1, ..).
    """
    edges = []
    start = m * n + 1
    for J in connector_sets(n, k) + [tuple(I)]:
        for rank, z in enumerate(itertools.product(range(m), repeat=len(J))):
            members = [(j - 1) * m + 1 + r for j, r in zip(J, z)]
            edges.append(tuple(sorted(members + [start + rank])))
        start += m ** (k - 1)
    return edges


def check_plane(lines: list[list[int]], p: int) -> None:
    """Every pair of the p**2+p+1 points lies on exactly one line."""
    v = p * p + p + 1
    if len(lines) != v:
        raise Incorrect(f"plane has {len(lines)} lines, expected {v}")
    cover = bytearray(v * v)
    for line in lines:
        if len(line) != p + 1 or len(set(line)) != p + 1:
            raise Incorrect(f"plane line of {len(line)} points, expected {p + 1}")
        if min(line) < 1 or max(line) > v:
            raise Incorrect("plane line outside the point range")
        for a, b in itertools.combinations(sorted(line), 2):
            idx = (a - 1) * v + (b - 1)
            if cover[idx]:
                raise Incorrect(f"points {a},{b} lie on two lines")
            cover[idx] = 1
    covered = sum(cover)
    if covered != v * (v - 1) // 2:
        raise Incorrect(f"{v * (v - 1) // 2 - covered} point pairs lie on no line")


def repeated_subset(edges, ell: int):
    """An ell-subset lying in two distinct edges, or None."""
    owner: dict[tuple[int, ...], tuple[int, ...]] = {}
    for e in edges:
        for s in itertools.combinations(e, ell):
            if owner.setdefault(s, e) != e:
                return s
    return None
