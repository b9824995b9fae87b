"""Stepping-up rules, towers, base search, reflection, and file IO."""

import itertools
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeramsey import (
    BINARY,
    Z4,
    BaseColoring,
    CliqueWitness,
    LeafSet,
    ShapeKind,
    SteppedColoring,
    TreeParams,
    ancestor_level,
    build_tower,
    classify,
    export_coloring,
    import_coloring,
    reflect_set,
    search_base_coloring,
    verify_no_mono_clique,
)
from treeramsey.colorings import colex_rank, subsets_colex
from treeramsey.search import ReflectedColoring

from conftest import (
    all_zero_coloring,
    c4_coloring,
    int_max_str_digits,
    pentagon_coloring,
    random_left_comb,
    random_right_comb,
    realizable,
    realizable_profiles,
)


def projection_of(elements, depth: int) -> tuple[int, ...]:
    """The projection (distinct consecutive ancestor levels, ascending)
    of a sorted leaf sequence at the given depth."""
    seen = set()
    for a, b in zip(elements, elements[1:]):
        seen.add(depth - ((a - 1) ^ (b - 1)).bit_length() + 1)
    return tuple(sorted(seen))


def single_pair_base(color_of_12: int) -> BaseColoring:
    """Binary base on [4]^(2) with {1,2} pinned; other pairs colored 1."""
    return BaseColoring.from_function(
        2, 4, BINARY, lambda s: color_of_12 if tuple(sorted(s)) == (1, 2) else 1
    )


class TestColexTable:
    def test_rank_matches_enumeration_order(self):
        for n, r in ((4, 2), (6, 3), (7, 2)):
            for i, subset in enumerate(subsets_colex(n, r)):
                assert colex_rank(subset) == i

    def test_color_lookup(self):
        base = c4_coloring()
        assert base.color_of((1, 2)) == 0
        assert base.color_of((2, 4)) == 1
        assert base.color_of([4, 1]) == 0

    def test_table_length_enforced(self):
        with pytest.raises(ValueError, match="expected"):
            BaseColoring(2, 4, BINARY, (0, 1, 0))

    def test_palette_enforced(self):
        with pytest.raises(ValueError, match="palette"):
            BaseColoring(2, 3, BINARY, (0, 2, 0))


class TestSteppedRuleUniformityThree:
    def test_left_comb_takes_inner_color(self):
        chi = SteppedColoring(single_pair_base(0))
        # ground [16]: {1,2,3} is a left comb with levels (4,3), projection {3,4}
        assert chi.color_of((1, 2, 3)) == 1
        # {1,5,9} is a left comb with levels (2,1), projection {1,2}
        assert chi.color_of((1, 5, 9)) == 0

    def test_figure_examples_depth_two(self):
        base = single_pair_base(0)
        # ground [4]: {1,2,3} is a left comb with projection {1,2}
        chi = SteppedColoring(BaseColoring(2, 2, BINARY, (base.color_of((1, 2)),)))
        assert chi.ground_size == 4
        assert chi.color_of((1, 2, 3)) == 0
        assert chi.color_of((1, 3, 4)) == 3  # right comb: 3 - c({1,2})

    def test_binary_inner_required(self):
        z4_base = BaseColoring(2, 4, Z4, tuple([2] * 6))
        with pytest.raises(ValueError, match="binary inner"):
            SteppedColoring(z4_base)

    def test_arity_enforced(self):
        chi = SteppedColoring(c4_coloring())
        with pytest.raises(ValueError, match="3-subset"):
            chi.color_of((1, 2, 3, 4))
        with pytest.raises(ValueError, match="repeated"):
            chi.color_of((1, 2, 2))

    def test_pure_function(self):
        chi = SteppedColoring(c4_coloring())
        for X in itertools.combinations(range(1, 17), 3):
            assert chi.color_of(X) == chi.color_of(X)


class TestSteppedRuleUniformityFourPlus:
    def test_balanced_split_is_color_zero(self):
        inner = BaseColoring(3, 2, Z4, ())  # never consulted on splits
        chi = SteppedColoring(inner)
        assert chi.uniformity == 4 and chi.ground_size == 4
        assert chi.color_of((1, 2, 3, 4)) == 0

    def test_all_five_branches(self):
        base = c4_coloring()
        chi3 = SteppedColoring(base)          # on [16]^(3)
        chi4 = SteppedColoring(chi3)          # on [65536]^(4)
        # left comb levels (16, 15, 14): {1, 2, 3, 5}
        left = (1, 2, 3, 5)
        proj = (14, 15, 16)
        assert chi4.color_of(left) == 3 - chi3.color_of(proj)
        m = 65537
        right = tuple(sorted(m - x for x in left))
        assert chi4.color_of(right) == chi3.color_of(proj)
        assert chi4.color_of((1, 2, 40000, 50000)) == 0  # balanced
        # levels (15, 16, 1): non-monotone, lone vertex on the right
        assert chi4.color_of((2, 3, 4, 50000)) == 1
        assert chi4.color_of(tuple(sorted(m - x for x in (2, 3, 4, 50000)))) == 2


def reference_color(chi: SteppedColoring, X: tuple[int, ...]) -> int:
    """The stepping rule evaluated from scratch on every call.

    Levels come from trees.ancestor_level and the split type from
    trees.classify; no table of chi or of its inner levels is read.
    """
    inner = chi.inner
    levels = [ancestor_level(a, b, chi.params) for a, b in zip(X, X[1:])]
    proj = tuple(sorted(levels))
    shape = classify(LeafSet(X, chi.params))
    if shape.kind is ShapeKind.SPLIT:
        assert chi.uniformity >= 4
        if shape.balanced:
            return 0
        return 1 if shape.right_count == 1 else 2
    if isinstance(inner, BaseColoring):
        c = inner.color_of(proj)
    else:
        c = reference_color(inner, proj)
    left = shape.kind is ShapeKind.LEFT_COMB
    if chi.uniformity == 3:
        return c if left else 3 - c
    return 3 - c if left else c


@st.composite
def towers_and_queries(draw):
    """A stepped coloring with query sets, combs among them.

    Random binary bases on 2..5 points stepped to k = 3 (up to 32
    leaves) or on 2..4 points stepped to k = 4 (up to 65,536 leaves),
    and the 2-point base stepped to k = 5 on 65,536 leaves.
    """
    k, n_max = draw(st.sampled_from([(3, 5), (4, 4), (5, 2)]))
    n = draw(st.integers(2, n_max))
    pairs = n * (n - 1) // 2
    table = tuple(draw(st.lists(st.integers(0, 1), min_size=pairs, max_size=pairs)))
    chi = build_tower(BaseColoring(2, n, BINARY, table), k).top
    M, N = chi.ground_size, chi.depth
    queries = draw(
        st.lists(
            st.sets(st.integers(1, M), min_size=k, max_size=k).map(
                lambda s: tuple(sorted(s))
            ),
            min_size=1,
            max_size=30,
        )
    )
    if k <= N + 1:
        rng = draw(st.randoms(use_true_random=False))
        for _ in range(10):
            queries.append(tuple(random_left_comb(rng, N, k)))
            queries.append(tuple(random_right_comb(rng, N, k)))
    return chi, queries


class TestProfileTable:
    @settings(max_examples=60, deadline=None)
    @given(towers_and_queries())
    def test_matches_uncached_rule(self, case):
        chi, queries = case
        assert not chi._table
        expected = [reference_color(chi, X) for X in queries]
        # first pass fills the table, second pass reads it back
        for _ in range(2):
            assert [chi.color_of(X) for X in queries] == expected
            assert [chi._eval(X) for X in queries] == expected
        assert 0 < len(chi._table) <= chi.depth ** (chi.uniformity - 1)
        mirrored = ReflectedColoring(chi)
        p = chi.params
        for X in queries:
            assert mirrored._eval(X) == reference_color(chi, reflect_set(X, p))

    def test_table_is_invisible(self):
        base = BaseColoring.from_function(
            2, 3, BINARY, lambda s: 0 if tuple(sorted(s)) == (1, 3) else 1
        )
        fresh = build_tower(base, 4)
        warmed = build_tower(base, 4)
        rng = random.Random(11)
        for _ in range(500):
            warmed.top.color_of(rng.sample(range(1, 257), 4))
        # the cached depth, like the table, must not tell the two apart
        assert [level.depth for level in warmed.levels] == [3, 8]
        assert warmed.top._table and not fresh.top._table
        assert "depth" in vars(warmed.top) and "depth" not in vars(fresh.top)
        thawed = pickle.loads(pickle.dumps(warmed))
        assert thawed.top._table == warmed.top._table
        assert vars(thawed.top)["depth"] == 8
        for tower in (warmed, thawed):
            assert tower == fresh and tower.top == fresh.top
            assert hash(tower.top) == hash(fresh.top)
            assert repr(tower.top) == repr(fresh.top)
            assert repr(tower) == repr(fresh)


class TestReflection:
    def test_examples(self):
        assert reflect_set((1,), TreeParams(2)) == (4,)
        assert reflect_set((5, 1), TreeParams(3)) == (4, 8)

    @settings(max_examples=200)
    @given(st.data())
    def test_involution(self, data):
        N = data.draw(st.integers(1, 20))
        X = data.draw(st.sets(st.integers(1, 2**N), min_size=1, max_size=4))
        p = TreeParams(N)
        assert reflect_set(reflect_set(X, p), p) == tuple(sorted(X))

    @settings(max_examples=200)
    @given(st.data())
    def test_projection_preserved(self, data):
        N = data.draw(st.integers(2, 12))
        size = data.draw(st.integers(2, min(2**N, 6)))
        X = sorted(data.draw(st.sets(st.integers(1, 2**N), min_size=size, max_size=size)))
        p = TreeParams(N)
        assert projection_of(X, N) == projection_of(reflect_set(X, p), N)

    def test_duality_uniformity_three_exhaustive(self):
        chi = SteppedColoring(c4_coloring())
        p = chi.params
        for X in itertools.combinations(range(1, 17), 3):
            assert chi.color_of(reflect_set(X, p)) == 3 - chi.color_of(X)

    def test_restricted_duality_uniformity_four(self):
        from treeramsey import LeafSet, ShapeKind, classify

        base3 = BaseColoring.from_function(
            2, 3, BINARY, lambda s: 0 if tuple(sorted(s)) == (1, 2) else 1
        )
        chi4 = build_tower(base3, 4).top
        p = chi4.params
        rng = random.Random(5)
        comb_zeros = balanced_zeros = 0
        for _ in range(2000):
            X = tuple(sorted(rng.sample(range(1, 257), 4)))
            c = chi4.color_of(X)
            reflected = reflect_set(X, p)
            c_ref = chi4.color_of(reflected)
            if c in (1, 2, 3):
                assert c_ref == 3 - c
                continue
            assert c_ref in (0, 3)
            # color 0 splits are balanced and stay balanced with color 0;
            # color 0 combs flip handedness and land on color 3
            kind = classify(LeafSet.of(X, p)).kind
            kind_ref = classify(LeafSet.of(reflected, p)).kind
            if kind is ShapeKind.SPLIT:
                assert kind_ref is ShapeKind.SPLIT and c_ref == 0
                balanced_zeros += 1
            else:
                assert kind_ref is not ShapeKind.SPLIT and c_ref == 3
                comb_zeros += 1
        assert comb_zeros and balanced_zeros  # both zero branches exercised


class TestProfileMirror:
    """Reversing a realizable profile maps its color c to 3 - c, except
    on a balanced split, 0 both ways: reflection swaps left and right
    combs with the same projection, and (k-1, 1) with (1, k-1) splits.
    A split is balanced exactly when its largest entry is not at an end.
    Each pair of `mirror_colors` is such a match of colors."""

    @staticmethod
    def _check(chi, profiles):
        balanced = 0
        for p in profiles:
            c, c_rev = chi._color_of_profile(p), chi._color_of_profile(p[::-1])
            for c_revf, c_f in chi.mirror_colors.items():
                assert (c_rev == c_revf) == (c == c_f), p
            if 0 < p.index(max(p)) < len(p) - 1:
                assert c == c_rev == 0, p
                balanced += 1
            else:
                assert c_rev == 3 - c, p
        return balanced

    @pytest.mark.parametrize(
        "base,k,count",
        [
            (c4_coloring, 3, 12),
            (c4_coloring, 4, 3480),
            (pentagon_coloring, 3, 20),
            (pentagon_coloring, 4, 30256),
        ],
    )
    def test_every_profile(self, base, k, count):
        chi = build_tower(base(), k).top
        profiles = realizable_profiles(chi.depth, k - 1)
        assert len(profiles) == count
        assert (self._check(chi, profiles) > 0) == (k >= 4)

    def test_k5_seeded(self):
        base3 = BaseColoring.from_function(
            2, 3, BINARY, lambda s: 0 if tuple(sorted(s)) == (1, 2) else 1
        )
        chi5 = build_tower(base3, 5).top
        assert chi5.depth == 256
        rng = random.Random(21)
        profiles = []
        while len(profiles) < 10_000:
            alphabet = rng.sample(range(1, 257), rng.randint(3, 4))
            word = tuple(rng.choice(alphabet) for _ in range(4))
            if realizable(word):
                profiles.append(word)
        balanced = self._check(chi5, profiles)
        combs = sum(
            all(a < b for a, b in zip(p, p[1:])) or all(a > b for a, b in zip(p, p[1:]))
            for p in profiles
        )
        assert balanced and combs


class TestTower:
    def test_ground_sizes(self):
        base = c4_coloring()
        tower = build_tower(base, 3)
        assert tower.top.ground_size == 16
        tower4 = build_tower(base, 4)
        assert [lvl.ground_size for lvl in tower4.levels] == [16, 65536]

    def test_digit_limit_refusal_names_level(self):
        # 2**65536 has 19,729 decimal digits, too many for a JSON integer
        # under Python's default limit on integer strings.
        with int_max_str_digits(sys.int_info.default_max_str_digits):
            with pytest.raises(ValueError, match=r"2\*\*65536 at uniformity 5"):
                build_tower(c4_coloring(), 5)

    def test_refusal_never_converts_the_depth(self):
        # The uniformity-5 level over 10 points has depth 2**1024, past
        # the float range, and is refused all the same.
        with int_max_str_digits(sys.int_info.default_max_str_digits):
            assert build_tower(all_zero_coloring(10), 4).top.depth == 1024
            with pytest.raises(ValueError, match="uniformity 5"):
                build_tower(all_zero_coloring(10), 5)

    def test_no_digit_limit_builds_any_tower(self):
        with int_max_str_digits(0):
            top = build_tower(c4_coloring(), 5).top
        assert top.depth == 1 << 16
        assert top.ground_size.bit_length() == (1 << 16) + 1

    def test_small_base_tower(self):
        base = BaseColoring.from_function(2, 3, BINARY, lambda s: 0)
        assert build_tower(base, 4).top.ground_size == 256

    def test_target_must_exceed_base(self):
        with pytest.raises(ValueError, match="exceed"):
            build_tower(c4_coloring(), 2)

    def test_palette_switches_after_first_step(self):
        tower = build_tower(c4_coloring(), 4)
        assert tower.base.palette == BINARY
        assert all(lvl.palette == Z4 for lvl in tower.levels)


class TestCliqueVerification:
    def test_all_zero_has_least_triangle(self):
        assert verify_no_mono_clique(all_zero_coloring(5), 3) == CliqueWitness(
            (1, 2, 3), 0
        )

    def test_c4_is_triangle_free(self):
        assert verify_no_mono_clique(c4_coloring(), 3) is None

    def test_every_edge_is_a_mono_pair(self):
        base = c4_coloring()
        assert verify_no_mono_clique(base, 2) == CliqueWitness((1, 2), 0)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            verify_no_mono_clique(c4_coloring(), 5)


class TestBaseSearch:
    def test_finds_triangle_free_on_four(self):
        found = search_base_coloring(4, 3, seed=0, budget=2000)
        assert found is not None
        assert verify_no_mono_clique(found, 3) is None

    def test_finds_triangle_free_on_five(self):
        found = search_base_coloring(5, 3, seed=0, budget=5000)
        assert found is not None
        assert verify_no_mono_clique(found, 3) is None

    def test_deterministic(self):
        a = search_base_coloring(5, 3, seed=42, budget=5000)
        b = search_base_coloring(5, 3, seed=42, budget=5000)
        assert a == b

    def test_six_vertices_unreachable(self):
        # every 2-coloring of the complete graph on 6 has a mono triangle
        for seed in (0, 1, 2):
            assert search_base_coloring(6, 3, seed=seed, budget=200) is None

    def test_preconditions(self):
        with pytest.raises(ValueError):
            search_base_coloring(3, 4, 0, 10)


class TestColoringIO:
    def test_round_trip_identity(self):
        base = c4_coloring()
        text = export_coloring(base)
        assert export_coloring(import_coloring(text)) == text
        assert import_coloring(text) == base

    def test_round_trip_bytes(self):
        base = all_zero_coloring(4)
        assert import_coloring(export_coloring(base).encode()) == base

    def test_unsorted_lines_canonicalize(self):
        text = "coloring 2 3 binary\n2 1 0\n3 1 1\n3 2 0\n"
        base = import_coloring(text)
        assert base.color_of((1, 2)) == 0 and base.color_of((1, 3)) == 1

    def test_palette_error(self):
        good = export_coloring(
            BaseColoring(2, 3, Z4, (0, 1, 2))
        )
        with pytest.raises(ValueError, match="palette"):
            import_coloring(good.replace("1 3 1", "1 3 4"))

    def test_header_errors(self):
        with pytest.raises(ValueError, match="header"):
            import_coloring("colouring 2 3 binary\n")
        with pytest.raises(ValueError, match="arity"):
            import_coloring("coloring 2 3 binary\n1 2 3 0\n1 3 0\n2 3 0\n")
        with pytest.raises(ValueError, match="subset lines"):
            import_coloring("coloring 2 3 binary\n1 2 0\n")

    def test_reimported_coloring_verifies(self):
        base = import_coloring(export_coloring(c4_coloring()))
        assert verify_no_mono_clique(base, 3) is None
