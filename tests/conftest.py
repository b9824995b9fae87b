"""Shared fixtures: an explicit-tree oracle, stock colorings, comb makers.

The oracle materializes the complete binary tree as a parent array and
answers ancestor queries by walking paths, sharing no arithmetic with
the bitwise implementation under test.
"""

import contextlib
import itertools
import random
import sys

import pytest

from treeramsey import BINARY, BaseColoring


class ExplicitTree:
    """Parent-array tree of depth N; leaves are 1..2**N at level N+1."""

    def __init__(self, N):
        self.N = N
        self.parent = {}
        for level in range(2, N + 2):
            for idx in range(1 << (level - 1)):
                self.parent[(level, idx)] = (level - 1, idx // 2)

    def leaf_node(self, x):
        return (self.N + 1, x - 1)

    def path_to_root(self, node):
        path = [node]
        while path[-1] in self.parent:
            path.append(self.parent[path[-1]])
        return path

    def gca(self, x, y):
        on_x_path = set(self.path_to_root(self.leaf_node(x)))
        node = self.leaf_node(y)
        while node not in on_x_path:
            node = self.parent[node]
        return node

    def delta(self, x, y):
        return self.gca(x, y)[0]

    def side(self, x, y):
        """'left' or 'right': which child of gca(x, y) leads to x."""
        u = self.gca(x, y)
        path = self.path_to_root(self.leaf_node(x))
        below = path[path.index(u) - 1]
        return "left" if below[1] % 2 == 0 else "right"


@pytest.fixture(scope="session")
def oracle_trees():
    return {N: ExplicitTree(N) for N in range(1, 7)}


@contextlib.contextmanager
def int_max_str_digits(limit):
    """Python's limit on integer string digits, set for the block."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def c4_coloring():
    """4-cycle edges color 0, both diagonals color 1 (triangle-free both ways)."""
    cycle = {(1, 2), (2, 3), (3, 4), (1, 4)}
    return BaseColoring.from_function(
        2, 4, BINARY, lambda s: 0 if tuple(sorted(s)) in cycle else 1
    )


def pentagon_coloring():
    """5-cycle edges color 0, complement (also a 5-cycle) color 1."""
    return BaseColoring.from_function(
        2, 5, BINARY, lambda s: 0 if (max(s) - min(s)) in (1, 4) else 1
    )


def pentagon_labellings():
    """The 12 labelled 5-cycles on [5]: cycle pairs color 0, the rest 1."""
    cycles = set()
    for perm in itertools.permutations(range(1, 6)):
        cycles.add(
            frozenset(tuple(sorted((perm[i], perm[(i + 1) % 5]))) for i in range(5))
        )
    return [
        BaseColoring.from_function(
            2, 5, BINARY, lambda s, c=cycle: 0 if tuple(sorted(s)) in c else 1
        )
        for cycle in sorted(cycles, key=sorted)
    ]


def realizable(word) -> bool:
    """Whether every two equal letters of the word have a larger letter
    between them, which makes it the level profile of some leaf set."""
    return all(
        max(word[i + 1 : j], default=0) > word[i]
        for i, j in itertools.combinations(range(len(word)), 2)
        if word[i] == word[j]
    )


def realizable_profiles(depth, length):
    """Every realizable word of the given length over 1..depth."""
    words = itertools.product(range(1, depth + 1), repeat=length)
    return [w for w in words if realizable(w)]


def all_zero_coloring(n):
    import math

    return BaseColoring(2, n, BINARY, tuple([0] * math.comb(n, 2)))


@pytest.fixture(scope="session")
def c4_base():
    return c4_coloring()


@pytest.fixture(scope="session")
def pentagon_base():
    return pentagon_coloring()


def random_left_comb(rng: random.Random, N: int, t: int) -> list[int]:
    """A size-t left comb in [2**N], built from chosen falling levels.

    Leaf bits: the first t-1 leaves sit on the left side of every split
    level; each later leaf branches right at its own level with free
    bits below.
    """
    assert 3 <= t <= N + 1
    levels = sorted(rng.sample(range(1, N + 1), t - 1), reverse=True)
    bits = [rng.randrange(2) for _ in range(N)]
    for d in levels:
        bits[d - 1] = 0
    leaves = [int("".join(map(str, bits)), 2) + 1]
    for d in levels:
        suffix = [rng.randrange(2) for _ in range(N - d)]
        new_bits = bits[: d - 1] + [1] + suffix
        leaves.append(int("".join(map(str, new_bits)), 2) + 1)
    return leaves


def random_right_comb(rng: random.Random, N: int, t: int) -> list[int]:
    reflected = random_left_comb(rng, N, t)
    m = (1 << N) + 1
    return sorted(m - x for x in reflected)
