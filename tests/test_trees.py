"""Tree geometry against the explicit-tree oracle and stated invariants."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeramsey import (
    LeafSet,
    ShapeKind,
    TreeParams,
    ancestor_level,
    classify,
    consecutive_levels,
    projection,
    split_parts,
)
from treeramsey.trees import level_profile, profile_shape

from conftest import random_left_comb, random_right_comb, realizable_profiles


def leafset(elements, depth):
    return LeafSet.of(elements, TreeParams(depth))


def _gca_node(x: int, y: int, params: TreeParams) -> tuple[int, int]:
    """The ancestor of leaves x and y as (level, index within level)."""
    level = ancestor_level(x, y, params)
    return level, (x - 1) >> (params.depth - level + 1)


class TestAncestorLevel:
    def test_figure_depth_two(self):
        # leaves 1 and 2 meet one level below the root
        p = TreeParams(2)
        assert ancestor_level(1, 2, p) == 2

    def test_opposite_halves_meet_at_root(self):
        p = TreeParams(2)
        assert ancestor_level(1, 3, p) == 1

    def test_siblings_depth_three(self):
        assert ancestor_level(3, 4, TreeParams(3)) == 3

    def test_matches_oracle_exhaustively(self, oracle_trees):
        for N in range(1, 5):
            p = TreeParams(N)
            tree = oracle_trees[N]
            for x, y in itertools.combinations(range(1, 2**N + 1), 2):
                assert ancestor_level(x, y, p) == tree.delta(x, y)

    def test_symmetric(self):
        p = TreeParams(4)
        for x, y in itertools.combinations(range(1, 17), 2):
            assert ancestor_level(x, y, p) == ancestor_level(y, x, p)

    def test_equal_leaves_rejected(self):
        with pytest.raises(ValueError, match="delta undefined on equal leaves"):
            ancestor_level(3, 3, TreeParams(3))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ancestor_level(1, 9, TreeParams(3))


class TestDescendantSide:
    """Of two leaves, split_parts puts the left descendant of their
    common ancestor in the left part."""

    def test_smaller_leaf_goes_left(self):
        assert split_parts(leafset((2, 1), 2))[0].elements == (1,)

    def test_larger_leaf_goes_right(self):
        assert split_parts(leafset((5, 2), 3))[1].elements == (5,)

    def test_matches_oracle(self, oracle_trees):
        for N in (2, 3, 4):
            tree = oracle_trees[N]
            for x, y in itertools.permutations(range(1, 2**N + 1), 2):
                left, right = split_parts(leafset((x, y), N))
                side = "left" if left.elements == (x,) else "right"
                assert right.elements == ((y,) if side == "left" else (x,))
                assert side == tree.side(x, y)


class TestSplitParts:
    @pytest.mark.parametrize(
        "elements,depth,left,right",
        [
            ((1, 2, 3, 4), 2, (1, 2), (3, 4)),
            ((1, 2), 2, (1,), (2,)),
            ((2, 7, 8), 3, (2,), (7, 8)),
        ],
    )
    def test_examples(self, elements, depth, left, right):
        L, R = split_parts(leafset(elements, depth))
        assert L.elements == left and R.elements == right

    def test_singleton_rejected(self):
        with pytest.raises(ValueError, match="u_X undefined"):
            split_parts(leafset([3], 3))

    def test_parts_ordered_and_partition(self):
        rng = random.Random(7)
        for _ in range(300):
            N = rng.randrange(2, 9)
            size = rng.randrange(2, min(2**N, 8) + 1)
            X = leafset(rng.sample(range(1, 2**N + 1), size), N)
            L, R = split_parts(X)
            assert L.elements and R.elements
            assert max(L.elements) < min(R.elements)
            assert L.elements + R.elements == X.elements


class TestSplitSidesMatchOracle:
    """On every set of 3 to 6 leaves at depths 2-4, the left part is the
    leaves below the left child of the ancestor of min X and max X in
    the parent-array tree, and it ends at the profile's largest entry."""

    def test_exhaustive(self, oracle_trees):
        for N in (2, 3, 4):
            tree, p = oracle_trees[N], TreeParams(N)
            leaves = range(1, 2**N + 1)
            pairs = list(itertools.permutations(leaves, 2))
            delta = {(x, y): tree.delta(x, y) for x, y in pairs}
            side = {(x, y): tree.side(x, y) for x, y in pairs}
            for size in range(3, min(6, 2**N) + 1):
                for X in itertools.combinations(leaves, size):
                    top, last = delta[X[0], X[-1]], X[-1]
                    left = tuple(
                        x for x in X[:-1]
                        if delta[x, last] == top and side[x, last] == "left"
                    )
                    profile = tuple(N + 1 - delta[a, b] for a, b in zip(X, X[1:]))
                    assert level_profile(X) == profile
                    assert profile.count(max(profile)) == 1
                    S = LeafSet(X, p)
                    L, R = split_parts(S)
                    assert (L.elements, R.elements) == (left, X[len(left):])
                    assert classify(S).left_count == len(left)


class TestProfileShapeMirror:
    """Reversing a profile, as reflecting the leaves does, swaps the two
    combs and maps a split with left count l to one with k - l."""

    def test_realizable_words_are_the_profiles(self):
        for size in (3, 4):
            sets = itertools.combinations(range(1, 17), size)
            assert {level_profile(X) for X in sets} == set(realizable_profiles(4, size - 1))

    def test_reversal(self):
        swap = {
            ShapeKind.LEFT_COMB: ShapeKind.RIGHT_COMB,
            ShapeKind.RIGHT_COMB: ShapeKind.LEFT_COMB,
            ShapeKind.SPLIT: ShapeKind.SPLIT,
        }
        seen = set()
        for depth, length in ((8, 2), (8, 3), (8, 4), (6, 5)):
            k = length + 1
            for p in realizable_profiles(depth, length):
                kind, left = profile_shape(p)
                assert profile_shape(p[::-1]) == (swap[kind], k - left)
                seen.add((k, kind, left))
        # every split type occurs, (k-1, 1) and (1, k-1) included
        assert {(5, ShapeKind.SPLIT, l) for l in range(1, 5)} <= seen


def shape_by_definition(p):
    """The shape rule as defined: a strictly rising profile is a left
    comb (tested first, so a single entry is one), a strictly falling one
    a right comb, and any other a split whose left part ends at the first
    largest entry."""
    pairs = list(zip(p, p[1:]))
    if all(a < b for a, b in pairs):
        return ShapeKind.LEFT_COMB, len(p)
    if all(a > b for a, b in pairs):
        return ShapeKind.RIGHT_COMB, 1
    return ShapeKind.SPLIT, p.index(max(p)) + 1


class TestProfileShapeDefinition:
    """`profile_shape` reads the left count off the maximum and tests for
    a comb only where one can be; it must agree with the definition."""

    def test_every_small_word(self):
        words = [p for m in range(1, 5) for p in itertools.product(range(1, 7), repeat=m)]
        assert len(words) == 1554  # repeated entries included
        kinds = set()
        for p in words:
            expected = shape_by_definition(p)
            assert profile_shape(p) == profile_shape(list(p)) == expected, p
            kinds.add(expected[0])
        assert kinds == set(ShapeKind)

    def test_realizable_profiles(self):
        for depth, length in ((8, 2), (8, 3), (8, 4), (6, 5)):
            for p in realizable_profiles(depth, length):
                assert profile_shape(p) == shape_by_definition(p), p

    def test_empty_profile_is_refused(self):
        # no caller passes one: every leaf set with a shape has 2 leaves or more
        with pytest.raises(ValueError):
            profile_shape(())


class TestClassify:
    @pytest.mark.parametrize(
        "elements,depth,kind",
        [
            ((1, 2, 3), 2, ShapeKind.LEFT_COMB),
            ((1, 3, 4), 2, ShapeKind.RIGHT_COMB),
        ],
    )
    def test_comb_examples(self, elements, depth, kind):
        assert classify(leafset(elements, depth)).kind is kind

    def test_split_example(self):
        shape = classify(leafset((1, 3, 4, 8), 3))
        assert shape.kind is ShapeKind.SPLIT
        assert (shape.left_count, shape.right_count) == (3, 1)
        assert shape.right_count == 1 and not shape.balanced

    def test_pairs_have_no_shape(self):
        with pytest.raises(ValueError, match="shape undefined below 3 leaves"):
            classify(leafset((1, 2), 2))

    def test_triple_trichotomy_exhaustive_small(self):
        for N in (2, 3, 4):
            p = TreeParams(N)
            for triple in itertools.combinations(range(1, 2**N + 1), 3):
                kind = classify(LeafSet.of(triple, p)).kind
                assert kind in (ShapeKind.LEFT_COMB, ShapeKind.RIGHT_COMB)

    @settings(max_examples=300)
    @given(st.data())
    def test_triple_trichotomy_random(self, data):
        N = data.draw(st.integers(2, 16))
        triple = data.draw(
            st.sets(st.integers(1, 2**N), min_size=3, max_size=3)
        )
        kind = classify(leafset(triple, N)).kind
        assert kind in (ShapeKind.LEFT_COMB, ShapeKind.RIGHT_COMB)

    @settings(max_examples=300)
    @given(st.data())
    def test_consecutive_levels_never_equal(self, data):
        N = data.draw(st.integers(2, 16))
        triple = sorted(
            data.draw(st.sets(st.integers(1, 2**N), min_size=3, max_size=3))
        )
        p = TreeParams(N)
        assert ancestor_level(triple[0], triple[1], p) != ancestor_level(
            triple[1], triple[2], p
        )


class TestMinLevelIdentities:
    @settings(max_examples=400)
    @given(st.data())
    def test_both_forms(self, data):
        N = data.draw(st.integers(2, 16))
        size = data.draw(st.integers(2, min(2**N, 8)))
        X = sorted(data.draw(st.sets(st.integers(1, 2**N), min_size=size, max_size=size)))
        p = TreeParams(N)
        first, last = X[0], X[-1]
        # literal form: second argument pinned to the maximum element
        to_last = [ancestor_level(X[i - 1], last, p) for i in range(1, len(X))]
        assert ancestor_level(first, last, p) == min(to_last)
        # consecutive-pairs form, as used when chaining triples
        consecutive = [ancestor_level(a, b, p) for a, b in zip(X, X[1:])]
        assert ancestor_level(first, last, p) == min(consecutive)


class TestProjection:
    @pytest.mark.parametrize(
        "elements,depth,expected",
        [
            ((1, 2, 3), 2, (1, 2)),
            ((5, 6, 7, 8), 3, (2, 3)),
            ((1, 16), 4, (1,)),
            ((1, 4), 2, (1,)),
        ],
    )
    def test_examples(self, elements, depth, expected):
        assert projection(leafset(elements, depth)) == expected

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            projection(leafset((5,), 3))

    def test_comb_projection_has_full_size(self):
        rng = random.Random(11)
        for _ in range(200):
            N = rng.randrange(3, 13)
            t = rng.randrange(3, min(N + 1, 7) + 1)
            comb = random_left_comb(rng, N, t)
            assert len(projection(leafset(comb, N))) == t - 1


class TestCombHeredity:
    def _check_heredity(self, rng, make_comb, kind):
        N = rng.randrange(4, 17)
        t = rng.randrange(4, min(N + 1, 9) + 1)
        comb = make_comb(rng, N, t)
        p = TreeParams(N)
        X = LeafSet.of(comb, p)
        assert classify(X).kind is kind
        levels = consecutive_levels(X)
        idx = sorted(rng.sample(range(t), rng.randrange(3, t + 1)))
        sub = LeafSet.of([comb[i] for i in idx], p)
        assert classify(sub).kind is kind
        if kind is ShapeKind.LEFT_COMB:
            expected = {levels[i - 1] for i in idx[1:]}
        else:
            expected = {levels[i] for i in idx[:-1]}
        assert set(projection(sub)) == expected

    def test_left(self):
        rng = random.Random(23)
        for _ in range(400):
            self._check_heredity(rng, random_left_comb, ShapeKind.LEFT_COMB)

    def test_right(self):
        rng = random.Random(29)
        for _ in range(400):
            self._check_heredity(rng, random_right_comb, ShapeKind.RIGHT_COMB)

    def test_left_comb_anchor(self):
        # inside a left comb, the ancestor of (x_{j-1}, x_j) already joins
        # every earlier element to x_j; dually on the right
        rng = random.Random(31)
        p_cache = {}
        for _ in range(200):
            N = rng.randrange(4, 13)
            t = rng.randrange(3, min(N + 1, 7) + 1)
            p = p_cache.setdefault(N, TreeParams(N))
            comb = random_left_comb(rng, N, t)
            for j in range(1, t):
                anchor = _gca_node(comb[j - 1], comb[j], p)
                for i in range(j):
                    assert _gca_node(comb[i], comb[j], p) == anchor
            rcomb = random_right_comb(rng, N, t)
            for i in range(t - 1):
                anchor = _gca_node(rcomb[i], rcomb[i + 1], p)
                for j in range(i + 1, t):
                    assert _gca_node(rcomb[i], rcomb[j], p) == anchor


class TestLeafSetValidation:
    def test_duplicates_collapse(self):
        assert leafset((3, 3, 5), 3).elements == (3, 5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            leafset((0, 1), 3)
        with pytest.raises(ValueError):
            leafset((1, 9), 3)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            TreeParams(0)
