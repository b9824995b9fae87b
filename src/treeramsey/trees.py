"""Leaf arithmetic on the complete binary tree of uniform depth.

The tree of depth N has 2**N leaves numbered 1..2**N in left-to-right
order and N+1 levels, with the root at level 1 and the leaves at level
N+1.  Everything here is a pure function of leaf indices: the level of
the common ancestor of two leaves, the parts of a set on either side
of its ancestor, and the shape (comb or split) of a set of leaves.

Leaf x is identified with the N-bit integer x-1, so the ancestor level
of x and y is N minus the position of the highest bit where they
differ.  Tests validate this against an explicit parent-array tree.
The level word (`level_profile`) and the shape and projection read off
it (`profile_shape`, `profile_projection`) live here alone; `colorings`
reads all three.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class ShapeKind(enum.Enum):
    LEFT_COMB = "left_comb"
    RIGHT_COMB = "right_comb"
    SPLIT = "split"


@dataclass(frozen=True)
class TreeParams:
    """Depth of the tree; leaves are 1..2**depth."""

    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"tree depth must be >= 1, got {self.depth}")

    @property
    def num_leaves(self) -> int:
        return 1 << self.depth

    def check_leaf(self, x: int) -> None:
        if not 1 <= x <= self.num_leaves:
            raise ValueError(
                f"leaf {x} out of range [1, {self.num_leaves}] for depth {self.depth}"
            )


@dataclass(frozen=True)
class LeafSet:
    """A set of leaves, stored strictly increasing."""

    elements: tuple[int, ...]
    params: TreeParams

    def __post_init__(self):
        for x in self.elements:
            self.params.check_leaf(x)
        if any(a >= b for a, b in zip(self.elements, self.elements[1:])):
            raise ValueError("leaf set must be strictly increasing")

    @classmethod
    def of(cls, elements: Iterable[int], params: TreeParams) -> "LeafSet":
        return cls(tuple(sorted(set(elements))), params)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)


@dataclass(frozen=True)
class Shape:
    """Classification of a leaf set: comb, or (left_count, right_count)-split."""

    kind: ShapeKind
    left_count: int
    right_count: int

    @property
    def balanced(self) -> bool:
        return self.kind is ShapeKind.SPLIT and self.left_count >= 2 and self.right_count >= 2


def ancestor_level(x: int, y: int, params: TreeParams) -> int:
    """Level of the greatest common ancestor of leaves x and y.

    Equals params.depth exactly for siblings and 1 exactly when x and y
    lie in different halves of the leaf range.
    """
    if x == y:
        raise ValueError("delta undefined on equal leaves")
    params.check_leaf(x)
    params.check_leaf(y)
    return params.depth - ((x - 1) ^ (y - 1)).bit_length() + 1


def level_profile(elems: Sequence[int]) -> tuple[int, ...]:
    """Bit lengths of (a-1) ^ (b-1) over consecutive leaves.

    Each entry is depth + 1 minus that pair's ancestor level, so the
    profile is the level word of the leaf set.  Reflecting every leaf
    (x -> 2**N + 1 - x) complements a-1 and b-1 in N bits and leaves
    their XOR unchanged; it also reverses the leaf order, so the
    reflected set's profile is this one reversed.
    """
    return tuple([((a - 1) ^ (b - 1)).bit_length() for a, b in zip(elems, elems[1:])])


def profile_shape(profile: Sequence[int]) -> tuple[ShapeKind, int]:
    """Shape of a leaf set with this level profile, and its left count.

    A strictly rising profile (falling levels) is a left comb and a
    strictly falling one a right comb; any other is a split.  The left
    part, the leaves below the left child of the ancestor of min X and
    max X, ends at the profile's largest entry b (of a pair, only this
    count means anything).  b is attained once: it is the bit length of
    (min X - 1) ^ (max X - 1), so every leaf agrees with min X above
    bit b - 1 and sorted order puts the leaves with that bit clear
    first; one consecutive pair differs at bit b - 1, the rest below.

    So the left count is read first, as i + 1 with i the first index of
    the maximum, and each comb is tested for only where it can be; this
    gives the definition's answer for every non-empty profile p of
    length m, repeated entries included.  A strictly rising p has its
    maximum at its last entry and nowhere before, so i + 1 = m: it
    reaches the rising test, which holds, and is a left comb with left
    count m.  A strictly falling p with m >= 2 does not rise strictly
    and has its maximum at p[0] alone, so i + 1 = 1 != m: it reaches
    the falling test, which holds, and is a right comb with left count
    1.  At m = 1, p does both, i + 1 = 1 = m, and the rising test runs,
    as the definition tests rising first: a left comb.  Any other p
    fails whichever test it reaches and is a split with left count
    i + 1.  The tests run at C speed and stop at the first pair out of
    order.  An empty profile has no maximum and raises ValueError.
    """
    left = profile.index(max(profile)) + 1
    if left == len(profile):
        if all(map(operator.lt, profile, profile[1:])):
            return ShapeKind.LEFT_COMB, left
    elif left == 1 and all(map(operator.gt, profile, profile[1:])):
        return ShapeKind.RIGHT_COMB, 1
    return ShapeKind.SPLIT, left


def split_parts(X: LeafSet) -> tuple[LeafSet, LeafSet]:
    """Partition X by descendant side below the ancestor of min(X), max(X)."""
    if len(X) < 2:
        raise ValueError("u_X undefined")
    _, left = profile_shape(level_profile(X.elements))
    return LeafSet(X.elements[:left], X.params), LeafSet(X.elements[left:], X.params)


def consecutive_levels(X: LeafSet) -> tuple[int, ...]:
    """Ancestor levels of consecutive pairs of X, in order."""
    if len(X) < 2:
        raise ValueError("consecutive levels undefined below 2 leaves")
    return tuple([X.params.depth + 1 - p for p in level_profile(X.elements)])


def classify(X: LeafSet) -> Shape:
    """Comb/split shape of a leaf set of size >= 3, by `profile_shape`."""
    if len(X) < 3:
        raise ValueError("shape undefined below 3 leaves")
    kind, left = profile_shape(level_profile(X.elements))
    return Shape(kind, left, len(X) - left)


def projection(X: LeafSet) -> tuple[int, ...]:
    """Deduplicated ascending set of consecutive ancestor levels of X.

    Has at most len(X)-1 values; exactly len(X)-1 when X is a comb.
    """
    if len(X) < 2:
        raise ValueError("projection undefined below 2 leaves")
    return profile_projection(level_profile(X.elements), X.params.depth)


def profile_projection(profile: Sequence[int], depth: int) -> tuple[int, ...]:
    """Projection of a leaf set with this level profile in the tree of
    this depth: its distinct ancestor levels depth + 1 - p, ascending."""
    return tuple(sorted({depth + 1 - p for p in profile}))
