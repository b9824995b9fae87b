"""Leaf arithmetic on the complete binary tree of uniform depth.

The tree of depth N has 2**N leaves numbered 1..2**N in left-to-right
order and N+1 levels, with the root at level 1 and the leaves at level
N+1.  Everything here is a pure function of leaf indices: the level of
the common ancestor of two leaves, the parts of a set on either side
of its ancestor, and the shape (comb or split) of a set of leaves.

Leaf x is identified with the N-bit integer x-1, so the ancestor level
of x and y is N minus the position of the highest bit where they
differ.  Tests validate this against an explicit parent-array tree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator


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

    @property
    def head_split(self) -> bool:
        return self.kind is ShapeKind.SPLIT and self.right_count == 1


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


def split_parts(X: LeafSet) -> tuple[LeafSet, LeafSet]:
    """Partition X by descendant side below the ancestor of min(X), max(X)."""
    if len(X) < 2:
        raise ValueError("u_X undefined")
    elems = X.elements
    level = ancestor_level(elems[0], elems[-1], X.params)
    bit = X.params.depth - level
    left = tuple(x for x in elems if not ((x - 1) >> bit) & 1)
    right = tuple(x for x in elems if ((x - 1) >> bit) & 1)
    return LeafSet(left, X.params), LeafSet(right, X.params)


def consecutive_levels(X: LeafSet) -> tuple[int, ...]:
    """Ancestor levels of consecutive pairs of X, in order."""
    if len(X) < 2:
        raise ValueError("consecutive levels undefined below 2 leaves")
    elems = X.elements
    return tuple(
        ancestor_level(a, b, X.params) for a, b in zip(elems, elems[1:])
    )


def classify(X: LeafSet) -> Shape:
    """Comb/split shape of a leaf set of size >= 3.

    Left comb: consecutive ancestor levels strictly decrease; right
    comb: strictly increase; otherwise an (l, r)-split per split_parts.
    """
    if len(X) < 3:
        raise ValueError("shape undefined below 3 leaves")
    levels = consecutive_levels(X)
    if all(a > b for a, b in zip(levels, levels[1:])):
        return Shape(ShapeKind.LEFT_COMB, len(X) - 1, 1)
    if all(a < b for a, b in zip(levels, levels[1:])):
        return Shape(ShapeKind.RIGHT_COMB, 1, len(X) - 1)
    left, right = split_parts(X)
    return Shape(ShapeKind.SPLIT, len(left), len(right))


def projection(X: LeafSet) -> tuple[int, ...]:
    """Deduplicated ascending set of consecutive ancestor levels of X.

    Has at most len(X)-1 values; exactly len(X)-1 when X is a comb.
    """
    if len(X) < 2:
        raise ValueError("projection undefined below 2 leaves")
    return tuple(sorted(set(consecutive_levels(X))))
