"""Colorings of k-subsets: materialized base tables and stepped-up towers.

A base coloring assigns a color to every r-subset of [n], materialized
as a flat table keyed by colex rank.  A stepped coloring lifts a
coloring of (k-1)-subsets of [N] to a 4-coloring of k-subsets of the
2**N leaves of the depth-N tree: combs are colored through the
projection, non-combs (k >= 4 only) by their split type, both read off
the level profile by `trees`.  The base table is materialized up front;
a stepped coloring fills a table keyed by that profile as queries
arrive, so it never holds more than depth**(k-1) entries.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

from .trees import ShapeKind, TreeParams, level_profile, profile_projection, profile_shape

BINARY = "binary"
Z4 = "z4"

_PALETTES = {BINARY: frozenset({0, 1}), Z4: frozenset({0, 1, 2, 3})}


def colex_rank(subset: Sequence[int]) -> int:
    """Rank of a sorted subset of positive integers in colex order."""
    return sum(math.comb(a - 1, i + 1) for i, a in enumerate(subset))


def subsets_colex(n: int, r: int):
    """All r-subsets of [n] in colex order."""
    if r == 0:
        yield ()
        return
    for last in range(r, n + 1):
        for rest in subsets_colex(last - 1, r - 1):
            yield rest + (last,)


def _query(subset: Sequence[int], k: int, ground: int) -> tuple[int, ...]:
    """A `color_of` argument as the sorted tuple `_eval` takes; raise
    unless it is k distinct elements of [1, ground]."""
    s = tuple(sorted(subset))
    if len(s) != k:
        raise ValueError(f"expected a {k}-subset, got {len(s)} elements")
    if len(set(s)) != k:
        raise ValueError(f"{s} has repeated elements")
    if s[0] < 1 or s[-1] > ground:
        raise ValueError(f"{s} is not a subset of [1, {ground}]")
    return s


@dataclass(frozen=True)
class BaseColoring:
    """Total coloring of the r-subsets of [n], one table entry per subset."""

    uniformity: int
    ground_size: int
    palette: str
    table: tuple[int, ...]

    def __post_init__(self):
        if self.palette not in _PALETTES:
            raise ValueError(f"unknown palette {self.palette!r}")
        expected = math.comb(self.ground_size, self.uniformity)
        if len(self.table) != expected:
            raise ValueError(
                f"table has {len(self.table)} entries, expected "
                f"C({self.ground_size},{self.uniformity}) = {expected}"
            )
        allowed = _PALETTES[self.palette]
        for c in self.table:
            if c not in allowed:
                raise ValueError(f"color {c} outside palette {self.palette}")

    def color_of(self, subset: Sequence[int]) -> int:
        return self._eval(_query(subset, self.uniformity, self.ground_size))

    def _eval(self, elems: tuple[int, ...]) -> int:
        # Callers guarantee a sorted, in-range, duplicate-free tuple.
        return self.table[colex_rank(elems)]

    @classmethod
    def from_function(cls, uniformity, ground_size, palette, fn) -> "BaseColoring":
        table = tuple(fn(s) for s in subsets_colex(ground_size, uniformity))
        return cls(uniformity, ground_size, palette, table)


@dataclass(frozen=True)
class SteppedColoring:
    """4-coloring of k-subsets of [2**N] lifted from a coloring of [N]^(k-1).

    For k = 3 the inner palette must be binary: a left comb takes the
    inner color of its projection, a right comb takes 3 minus it.  For
    k >= 4 the comb rules swap (left comb -> 3 - inner, right comb ->
    inner) and splits take fixed colors 0 (balanced), 1 ((k-1,1)) and
    2 ((1,k-1)).
    """

    inner: Union[BaseColoring, "SteppedColoring"]
    # Colors by level profile (see trees.level_profile).  Comb versus split,
    # the split type and the projection are all functions of the level
    # word, so it determines the color.
    # Filled lazily by _color_of_profile; left out of equality, hashing
    # and repr so a warmed coloring is indistinguishable from a fresh one.
    _table: dict[tuple[int, ...], int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.uniformity == 3 and self.inner.palette != BINARY:
            raise ValueError("uniformity-3 stepping requires a binary inner coloring")

    @property
    def uniformity(self) -> int:
        return self.inner.uniformity + 1

    @functools.cached_property
    def depth(self) -> int:
        # Read once per coloring, not down the inner ground_size chain on
        # every cold profile; a cached value sits in the instance dict,
        # which equality, hashing and repr do not read, like `_table`.
        return self.inner.ground_size

    @property
    def ground_size(self) -> int:
        return 1 << self.inner.ground_size

    @property
    def palette(self) -> str:
        return Z4

    @property
    def params(self) -> TreeParams:
        return TreeParams(self.depth)

    def color_of(self, X) -> int:
        """Color of a k-set of leaves: a LeafSet or any iterable of them."""
        return self._eval(_query(X, self.uniformity, self.ground_size))

    def _eval(self, elems: tuple[int, ...]) -> int:
        # Hot path: callers guarantee a sorted, in-range, duplicate-free
        # tuple of the right arity.
        return self._color_of_profile(level_profile(elems))

    def _color_of_profile(self, profile: tuple[int, ...]) -> int:
        """Color of every leaf set with this level profile, read from the
        table or computed once by the stepping-up rules and stored."""
        color = self._table.get(profile)
        if color is not None:
            return color
        kind, left = profile_shape(profile)
        k = len(profile) + 1
        if kind is ShapeKind.SPLIT:
            # a (k-1, 1) split is 1, (1, k-1) is 2, a balanced one 0
            color = 1 if left == k - 1 else 2 if left == 1 else 0
        else:
            c = self.inner._eval(profile_projection(profile, self.depth))
            # k = 3 gives a left comb c; k >= 4 swaps
            color = c if (kind is ShapeKind.LEFT_COMB) == (k == 3) else 3 - c
        self._table[profile] = color
        return color

    @property
    def mirror_colors(self) -> dict[int, int]:
        """revF color c -> F color c' such that, by the rules of
        `_color_of_profile`, color(p[::-1]) == c exactly when
        color(p) == c' for every level profile p (the proof is in
        `search.verify_stepup_avoidance`).  At k >= 4 a balanced split is
        0 both ways, so 3 has no twin there."""
        return {2: 1, 3: 0} if self.uniformity == 3 else {2: 1}


def reflect_set(X: Sequence[int], params: TreeParams) -> tuple[int, ...]:
    return tuple(sorted(params.num_leaves + 1 - x for x in X))


@dataclass(frozen=True)
class ColoringTower:
    """Iterated stepping-up from a base table to a target uniformity."""

    base: BaseColoring
    levels: tuple[SteppedColoring, ...]

    @property
    def top(self) -> SteppedColoring:
        return self.levels[-1]


def build_tower(base: BaseColoring, target_k: int) -> ColoringTower:
    """Stack stepped colorings of uniformity base.uniformity+1 .. target_k.

    Refuses a level whose leaves cannot be written as JSON integers:
    2**N has floor(N log10 2) + 1 decimal digits, and Python refuses to
    convert an integer longer than sys.get_int_max_str_digits() (0 means
    no limit).  The message names the lowest such level.
    """
    if base.uniformity < 2:
        raise ValueError("base uniformity must be >= 2")
    if target_k <= base.uniformity:
        raise ValueError(
            f"target uniformity {target_k} must exceed base uniformity {base.uniformity}"
        )
    limit = sys.get_int_max_str_digits()
    levels = []
    current: Union[BaseColoring, SteppedColoring] = base
    for k in range(base.uniformity + 1, target_k + 1):
        depth = current.ground_size
        # floor(depth log10 2) + 1 > limit exactly when depth >= limit
        # log2 10; an int compares with a float exactly, however large.
        if limit and depth >= limit * math.log2(10):
            raise ValueError(
                f"ground size 2**{depth} at uniformity {k} has more than "
                f"{limit} decimal digits, Python's limit for integer strings "
                f"(sys.get_int_max_str_digits; -X int_max_str_digits=0 lifts it)"
            )
        current = SteppedColoring(current)
        levels.append(current)
    return ColoringTower(base, tuple(levels))


class CliqueWitness(NamedTuple):
    vertices: tuple[int, ...]
    color: int


def verify_no_mono_clique(c: BaseColoring, t: int) -> Optional[CliqueWitness]:
    """Exhaustive check for a monochromatic complete t-subset.

    Returns None when clean, else the lexicographically least witness.
    """
    import itertools

    if not c.uniformity <= t <= c.ground_size:
        raise ValueError(
            f"clique size {t} must lie in [{c.uniformity}, {c.ground_size}]"
        )
    for clique in itertools.combinations(range(1, c.ground_size + 1), t):
        colors = {c.color_of(s) for s in itertools.combinations(clique, c.uniformity)}
        if len(colors) == 1:
            return CliqueWitness(clique, colors.pop())
    return None


def search_base_coloring(
    n: int, t: int, seed: int, budget: int
) -> Optional[BaseColoring]:
    """Seeded random search for a 2-coloring of [n]^(2) with no mono K_t.

    Each restart draws a fair coloring and verifies it exhaustively;
    returns None after budget failed attempts.  Deterministic in
    (n, t, seed, budget).
    """
    if not n >= t >= 3:
        raise ValueError(f"need n >= t >= 3, got n={n}, t={t}")
    rng = random.Random(f"base-coloring:{n}:{t}:{seed}")
    num_edges = math.comb(n, 2)
    for _ in range(budget):
        table = tuple(rng.randrange(2) for _ in range(num_edges))
        candidate = BaseColoring(2, n, BINARY, table)
        if verify_no_mono_clique(candidate, t) is None:
            return candidate
    return None


def export_coloring(c: BaseColoring) -> str:
    """Canonical text form: header line, then one colex-ordered line per subset."""
    lines = [f"coloring {c.uniformity} {c.ground_size} {c.palette}"]
    for i, subset in enumerate(subsets_colex(c.ground_size, c.uniformity)):
        lines.append(" ".join(map(str, subset)) + f" {c.table[i]}")
    return "\n".join(lines) + "\n"


def import_coloring(text: Union[str, bytes]) -> BaseColoring:
    """Parse and validate the text form; inverse of export_coloring."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty coloring file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "coloring":
        raise ValueError(f"malformed header: {lines[0]!r}")
    try:
        r, n = int(header[1]), int(header[2])
    except ValueError:
        raise ValueError(f"malformed header: {lines[0]!r}") from None
    if not 1 <= r <= n:
        raise ValueError(f"header needs 1 <= r <= N, got r={r}, N={n}")
    palette = header[3]
    if palette not in _PALETTES:
        raise ValueError(f"unknown palette {palette!r}")
    expected = math.comb(n, r)
    if len(lines) - 1 != expected:
        raise ValueError(f"expected {expected} subset lines, found {len(lines) - 1}")
    table: list[Optional[int]] = [None] * expected
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != r + 1:
            raise ValueError(f"arity mismatch on line {ln!r}: expected {r} vertices")
        vertices = tuple(sorted(int(p) for p in parts[:r]))
        color = int(parts[r])
        if len(set(vertices)) != r or vertices[0] < 1 or vertices[-1] > n:
            raise ValueError(f"bad subset on line {ln!r}")
        if color not in _PALETTES[palette]:
            raise ValueError(f"color {color} outside palette {palette}")
        rank = colex_rank(vertices)
        if table[rank] is not None:
            raise ValueError(f"duplicate subset on line {ln!r}")
        table[rank] = color
    return BaseColoring(r, n, palette, tuple(table))  # type: ignore[arg-type]


def read_coloring(path) -> BaseColoring:
    with open(path, "r", encoding="utf-8") as fh:
        return import_coloring(fh.read())


def write_coloring(c: BaseColoring, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_coloring(c))
