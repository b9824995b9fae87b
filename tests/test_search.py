"""Search engine against a joint brute-force oracle and its invariants."""

import gc
import itertools
import json
import math
import random
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treeramsey import (
    BINARY,
    BaseColoring,
    FamilySpec,
    LeafSet,
    MonoCopyWitness,
    OrderedHypergraph,
    SearchBudget,
    ShapeKind,
    SteppedColoring,
    TreeParams,
    assemble_h,
    build_blowup,
    build_projective_plane,
    build_tower,
    canonical_member,
    canonical_separated,
    classify,
    contains_family_member,
    find_mono_f_copy,
    find_ordered_copy,
    ordering_as_hypergraph,
    projection,
    reverse,
    validate_witness,
    verify_stepup_avoidance,
)
import treeramsey.search as search_module
from treeramsey.families import (
    FLAVOR_F,
    FLAVOR_G,
    FLAVOR_REVF,
    FLAVOR_REVG,
    connector_sets,
    is_separated,
)
from treeramsey.search import (
    CLEAN,
    INDETERMINATE,
    WITNESS,
    MembershipColoring,
    ReflectedColoring,
)

from conftest import all_zero_coloring, c4_coloring, pentagon_labellings
from descending_oracle import find_rev_copy_descending
from ordered_copy_oracle import find_ordered_copy_by_scan


def joint_oracle(chi, spec, colors):
    """Reference search: enumerate chains and all connector assignments
    jointly, no independence shortcut, no pruning, no memoization."""
    M = chi.ground_size
    for color in sorted(colors):
        for chain in itertools.combinations(range(1, M + 1), spec.n + 1):
            special = tuple(sorted({chain[0]} | {chain[i] for i in spec.I}))
            if chi.color_of(special) != color:
                continue
            candidate_lists = []
            for J in spec.connectors:
                others = tuple(chain[j] for j in J)
                candidate_lists.append(
                    [
                        v
                        for v in range(chain[0], chain[1] + 1)
                        if chi.color_of((v,) + others) == color
                    ]
                )
            for assignment in itertools.product(*candidate_lists):
                edges = [special] + [
                    tuple(sorted({v} | {chain[j] for j in J}))
                    for J, v in zip(spec.connectors, assignment)
                ]
                if all(chi.color_of(e) == color for e in edges):
                    witness = MonoCopyWitness(
                        FLAVOR_F,
                        color,
                        chain,
                        tuple(zip(map(tuple, spec.connectors), assignment)),
                    )
                    return WITNESS, witness
    return CLEAN, None


class LeafProxy:
    """A coloring seen only through its leaf query `_eval`.  It is not a
    `SteppedColoring`, so `find_mono_f_copy` searches it in leaf space."""

    def __init__(self, chi):
        self.uniformity = chi.uniformity
        self.ground_size = chi.ground_size
        self._eval = chi._eval


def leaf_engine(chi, spec, colors, budget=None):
    """`find_mono_f_copy` run in leaf space, whatever the coloring's type."""
    return find_mono_f_copy(LeafProxy(chi), spec, colors, budget)


def recheck_edge_color(base, edge, depth):
    """Fresh uniformity-3 rule evaluation through the public tree API."""
    ls = LeafSet.of(edge, TreeParams(depth))
    kind = classify(ls).kind
    proj = projection(ls)
    if kind is ShapeKind.LEFT_COMB:
        return base.color_of(proj)
    assert kind is ShapeKind.RIGHT_COMB
    return 3 - base.color_of(proj)


def _random_8_leaf_grid():
    rng = random.Random(7)
    spec = FamilySpec(3, 3, (1, 2), FLAVOR_REVF)
    for _ in range(6):
        table = tuple(rng.randrange(2) for _ in range(3))
        yield SteppedColoring(BaseColoring(2, 3, BINARY, table)), spec


# Grids on which the reflected revF search must match the descending
# oracle: name -> generator of (coloring, revF spec).
REV_GRIDS = {
    "c4-16": lambda: [
        (build_tower(c4_coloring(), 3).top, FamilySpec(3, 4, (1, 2), FLAVOR_REVF))
    ],
    "pentagons-32": lambda: [
        (build_tower(base, 3).top, FamilySpec(3, 5, (1, 2), FLAVOR_REVF))
        for base in pentagon_labellings()
    ],
    "k4-010-256": lambda: [
        (
            build_tower(BaseColoring(2, 3, BINARY, (0, 1, 0)), 4).top,
            FamilySpec(4, 4, (1, 2, 3), FLAVOR_REVF),
        )
    ],
    "random-8": _random_8_leaf_grid,
}


class TestMonoCopySearch:
    def test_c4_base_clean(self, c4_base):
        chi = build_tower(c4_base, 3).top
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_F)
        outcome = find_mono_f_copy(chi, spec, {0, 1})
        assert outcome.status == CLEAN

    def test_all_zero_witness_frozen(self):
        chi = build_tower(all_zero_coloring(4), 3).top
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_F)
        outcome = find_mono_f_copy(chi, spec, {0})
        assert outcome.status == WITNESS
        # oracle-computed least witness; every edge is a falling-level comb
        assert outcome.witness.distinguished == (1, 2, 3, 5, 9)
        assert outcome.witness == joint_oracle(chi, spec, {0})[1]
        assert validate_witness(chi, spec, outcome.witness)
        for edge in outcome.witness.edges(spec.I):
            assert recheck_edge_color(all_zero_coloring(4), edge, 4) == 0

    def test_ground_too_small(self):
        tiny = SteppedColoring(BaseColoring(2, 2, BINARY, (0,)))
        with pytest.raises(ValueError, match="cannot host"):
            find_mono_f_copy(tiny, FamilySpec(3, 4, (1, 2), FLAVOR_F), {0})

    def test_arity_mismatch(self, c4_base):
        chi = build_tower(c4_base, 3).top
        with pytest.raises(ValueError, match="uniformity"):
            find_mono_f_copy(chi, FamilySpec(4, 5, (1, 2, 4), FLAVOR_F), {0})

    def test_matches_joint_oracle_on_random_bases(self):
        rng = random.Random(2024)
        spec = FamilySpec(3, 3, (1, 2), FLAVOR_F)
        for _ in range(8):
            table = tuple(rng.randrange(2) for _ in range(3))
            chi = SteppedColoring(BaseColoring(2, 3, BINARY, table))
            for colors in ({0}, {1}, {0, 1}):
                outcome = find_mono_f_copy(chi, spec, colors)
                status, witness = joint_oracle(chi, spec, colors)
                assert (outcome.status, outcome.witness) == (status, witness)

    def test_reflect_and_direct_agree(self):
        for chi, spec in REV_GRIDS["random-8"]():
            for color in (2, 3):
                a = find_mono_f_copy(chi, spec, {color})
                b = find_rev_copy_descending(chi, spec, {color})
                assert (a.status, a.witness) == (b.status, b.witness)

    def test_rev_witness_validates(self):
        chi = build_tower(all_zero_coloring(4), 3).top
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_REVF)
        outcome = find_mono_f_copy(chi, spec, {3})
        assert outcome.status == WITNESS
        assert outcome.witness.flavor == FLAVOR_REVF
        assert validate_witness(chi, spec, outcome.witness)
        # role order: anchor first, so the chain strictly falls
        chain = outcome.witness.distinguished
        assert all(a > b for a, b in zip(chain, chain[1:]))

    def test_budget_yields_indeterminate(self, c4_base):
        chi = build_tower(c4_base, 3).top
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_F)
        outcome = find_mono_f_copy(chi, spec, {0}, budget=SearchBudget(max_nodes=5))
        assert outcome.status == INDETERMINATE
        assert outcome.witness is None

    def test_warmed_table_does_not_change_answers(self, c4_base):
        # A coloring whose profile table an earlier search has filled
        # answers exactly as a fresh one, in both engines.
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_F)
        rev = spec.with_flavor(FLAVOR_REVF)
        for base in (all_zero_coloring(4), c4_base):
            fresh = {
                (s.flavor, color): find_mono_f_copy(build_tower(base, 3).top, s, {color})
                for s, color in ((spec, 0), (spec, 1), (rev, 2), (rev, 3))
            }
            warmed = build_tower(base, 3).top
            leaf_engine(warmed, spec, {0, 1})
            assert warmed._table
            for (flavor, color), want in fresh.items():
                s = spec.with_flavor(flavor)
                got = find_mono_f_copy(warmed, s, {color})
                assert (got.status, got.witness) == (want.status, want.witness)
                leaf = leaf_engine(warmed, s, {color})
                assert (leaf.status, leaf.witness) == (want.status, want.witness)
        chi0 = build_tower(all_zero_coloring(4), 3).top
        assert (
            find_mono_f_copy(chi0, rev, {3}).witness
            == find_rev_copy_descending(chi0, rev, {3}).witness
        )


class TestReflectedMatchesDescendingOracle:
    """revF answers through the reflected coloring against the direct
    descending engine, which survives only as this test's oracle.

    Colors 2 and 3 are asked one per query, or both in one query, which
    must report the lesser color that has a copy."""

    @pytest.mark.parametrize("colors_per_query", [1, 2])
    @pytest.mark.parametrize("grid", sorted(REV_GRIDS))
    def test_same_status_and_witness(self, grid, colors_per_query):
        queries = [{2}, {3}] if colors_per_query == 1 else [{2, 3}]
        statuses = set()
        for chi, spec in REV_GRIDS[grid]():
            for colors in queries:
                got = find_mono_f_copy(chi, spec, colors)
                want = find_rev_copy_descending(chi, spec, colors)
                assert (got.status, got.witness) == (want.status, want.witness)
                # the leaf engine and the descending oracle enumerate
                # mirror-image chains, so they do the same work
                leaf = leaf_engine(chi, spec, colors)
                assert (leaf.status, leaf.witness) == (want.status, want.witness)
                assert leaf.counters == want.counters
                statuses.add(got.status)
        assert statuses <= {CLEAN, WITNESS}
        if grid == "k4-010-256":
            assert statuses == {WITNESS}


def family_specs(k, n):
    """Every F spec of uniformity k on n+1 chain leaves."""
    specs = []
    for rest in itertools.combinations(range(3, n + 1), k - 3):
        try:
            specs.append(FamilySpec(k, n, (1, 2) + rest, FLAVOR_F))
        except ValueError:  # I not separated
            pass
    return specs


def random_base(rng, points):
    table = tuple(rng.randrange(2) for _ in range(math.comb(points, 2)))
    return BaseColoring(2, points, BINARY, table)


def level_grid():
    """(coloring, F spec) pairs: C4 and the 12 pentagons at k=3, `0 1 0`
    at k=4, and seeded random 3- and 4-point bases at k=3 and 4."""
    yield build_tower(c4_coloring(), 3).top, FamilySpec(3, 4, (1, 2), FLAVOR_F)
    for base in pentagon_labellings():
        yield build_tower(base, 3).top, FamilySpec(3, 5, (1, 2), FLAVOR_F)
    yield (
        build_tower(BaseColoring(2, 3, BINARY, (0, 1, 0)), 4).top,
        FamilySpec(4, 4, (1, 2, 3), FLAVOR_F),
    )
    rng = random.Random(11)
    for _ in range(48):
        points, k = rng.choice((3, 4)), rng.choice((3, 4))
        n = rng.choice(range(k, 6))
        yield build_tower(random_base(rng, points), k).top, rng.choice(family_specs(k, n))


SLOTS = ((FLAVOR_F, 0), (FLAVOR_F, 1), (FLAVOR_REVF, 2), (FLAVOR_REVF, 3))


class TestLevelSpaceMatchesLeafEngine:
    """Stepped colorings are searched over level words; the leaf engine,
    run under a node budget, is the oracle on every slot it decides."""

    ORACLE_BUDGET = SearchBudget(max_nodes=20_000)

    def test_grid(self):
        decided = 0
        for chi, spec in level_grid():
            for flavor, color in SLOTS:
                slot_spec = spec.with_flavor(flavor)
                want = leaf_engine(chi, slot_spec, {color}, self.ORACLE_BUDGET)
                if want.status == INDETERMINATE:
                    continue
                got = find_mono_f_copy(chi, slot_spec, {color})
                assert (got.status, got.witness) == (want.status, want.witness)
                decided += 1
        assert decided >= 150

    def test_every_four_point_base_in_every_color(self):
        # Off-slot colors (F in 2 or 3, revF in 0 or 1) are where the
        # offsets below l_1 and the records that close them decide.
        for table in itertools.product((0, 1), repeat=6):
            chi = build_tower(BaseColoring(2, 4, BINARY, table), 3).top
            for n in (3, 4):
                for flavor in (FLAVOR_F, FLAVOR_REVF):
                    spec = FamilySpec(3, n, (1, 2), flavor)
                    for color in range(4):
                        got = find_mono_f_copy(chi, spec, {color})
                        want = leaf_engine(chi, spec, {color})
                        assert (got.status, got.witness) == (want.status, want.witness)

    def test_proxy_of_a_tower_matches_the_tower(self):
        # The shape of a timing wrapper: not a SteppedColoring, so it is
        # searched in leaf space, and must answer as the tower does.
        chi = build_tower(c4_coloring(), 3).top
        witnesses = 0
        for n in (3, 4):
            for flavor in (FLAVOR_F, FLAVOR_REVF):
                spec = FamilySpec(3, n, (1, 2), flavor)
                for color in range(4):
                    got = find_mono_f_copy(LeafProxy(chi), spec, {color})
                    want = find_mono_f_copy(chi, spec, {color})
                    assert (got.status, got.witness) == (want.status, want.witness)
                    assert got.counters != want.counters  # two engines ran
                    witnesses += got.witness is not None
        assert witnesses

    @pytest.mark.parametrize("k", [3, 4])
    def test_level_space_asks_no_leaf_question(self, k, monkeypatch):
        # The searched coloring is asked only through its profile table;
        # inner levels may still color their projections through _eval.
        # The oracle runs on a tower of its own, so its queries are not
        # counted; at k=4 it decides F/0 (after 65,538 leaves) and revF/3
        # within its budget.
        chi = build_tower(c4_coloring(), k).top
        oracle = build_tower(c4_coloring(), k).top
        leaf_queries = 0
        eval_leaves = SteppedColoring._eval

        def spy(self, elems):
            nonlocal leaf_queries
            leaf_queries += self is chi
            return eval_leaves(self, elems)

        monkeypatch.setattr(SteppedColoring, "_eval", spy)
        spec = FamilySpec(k, 4, tuple(range(1, k)), FLAVOR_F)
        decided = 0
        for flavor in (FLAVOR_F, FLAVOR_REVF):
            for color in range(4):
                s = spec.with_flavor(flavor)
                got = find_mono_f_copy(chi, s, {color})
                assert got.status != INDETERMINATE
                want = leaf_engine(oracle, s, {color}, SearchBudget(100_000))
                if want.status != INDETERMINATE:
                    assert (got.status, got.witness) == (want.status, want.witness)
                    decided += 1
        assert leaf_queries == 0
        assert decided >= (8 if k == 3 else 2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from((3, 4)),
        st.sampled_from((3, 4)),
        st.sampled_from((FLAVOR_F, FLAVOR_REVF)),
        st.integers(min_value=0, max_value=3),
        st.data(),
    )
    def test_random_bases(self, seed, points, k, flavor, color, data):
        rng = random.Random(seed)
        chi = build_tower(random_base(rng, points), k).top
        n = data.draw(st.sampled_from(range(k, 6)))
        spec = data.draw(st.sampled_from(family_specs(k, n))).with_flavor(flavor)
        want = leaf_engine(chi, spec, {color}, SearchBudget(max_nodes=5_000))
        assume(want.status != INDETERMINATE)
        got = find_mono_f_copy(chi, spec, {color})
        assert (got.status, got.witness) == (want.status, want.witness)


class TestAvoidanceReport:
    def test_slot_counters_are_their_own_search(self):
        # Each slot reads as its own search, status and witness too,
        # though revF/2 repeats F/1 and at k = 3 revF/3 repeats F/0.  At
        # k = 4 the `0 1 0` base has F/0 at 11 letters and revF/3 at 8,
        # so repeating revF/3 there fails here.
        c4_tower = (build_tower(c4_coloring(), 4).top, FamilySpec(4, 6, (1, 2, 3), FLAVOR_F))
        grid = itertools.chain(level_grid(), [c4_tower])
        pinned = (
            build_tower(BaseColoring(2, 3, BINARY, (0, 1, 0)), 4).top,
            FamilySpec(4, 4, (1, 2, 3), FLAVOR_F),
        )
        # Level space: letters tried over all oracle calls of each slot,
        # and those rejected, per slot of the C4 k = 4 n = 6 tower; they
        # are what `--max-nodes` counts.
        c4_letters = [(270, 246), (28_890, 26_910), (28_890, 26_910), (13_224, 12_280)]
        repeated = witnesses = 0
        for chi, spec in grid:
            report = verify_stepup_avoidance(chi, spec)
            for slot in report.slots:
                own = find_mono_f_copy(chi, spec.with_flavor(slot.flavor), {slot.color})
                assert (slot.status, slot.witness, slot.counters) == (
                    own.status, own.witness, own.counters
                )
                if slot.flavor == FLAVOR_REVF and (slot.color == 2 or spec.k == 3):
                    repeated += 1
                    witnesses += slot.witness is not None
            if (chi, spec) == pinned:
                assert report.to_json()["counters"]["nodes"] == 433
            if (chi, spec) == c4_tower:
                assert [(s.counters.nodes, s.counters.prunes) for s in report.slots] == c4_letters
        assert repeated > 60 and witnesses

    def test_witness_failing_recheck_raises(self, monkeypatch):
        chi = build_tower(all_zero_coloring(4), 3).top
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_F)
        real = search_module.find_mono_f_copy

        def wrong_color(chi, spec, colors, budget=None):
            outcome = real(chi, spec, colors, budget)
            w = outcome.witness
            if w is None:
                return outcome
            bad = MonoCopyWitness(w.flavor, (w.color + 1) % 4, w.distinguished, w.assignment)
            return search_module.SearchOutcome(outcome.status, bad, outcome.counters)

        monkeypatch.setattr(search_module, "find_mono_f_copy", wrong_color)
        with pytest.raises(AssertionError, match="re-check"):
            verify_stepup_avoidance(chi, spec)

    def test_c4_all_slots_clean(self, c4_base):
        chi = build_tower(c4_base, 3).top
        report = verify_stepup_avoidance(chi, FamilySpec(3, 4, (1, 2), FLAVOR_F))
        assert report.status == CLEAN
        assert [(s.flavor, s.color) for s in report.slots] == [
            ("F", 0), ("F", 1), ("revF", 2), ("revF", 3),
        ]

    def test_all_zero_witness_slots(self):
        chi = build_tower(all_zero_coloring(4), 3).top
        report = verify_stepup_avoidance(chi, FamilySpec(3, 4, (1, 2), FLAVOR_F))
        by_slot = {(s.flavor, s.color): s.status for s in report.slots}
        assert by_slot[("F", 0)] == WITNESS
        assert by_slot[("F", 1)] == CLEAN   # nothing is colored 1 here
        assert by_slot[("revF", 3)] == WITNESS
        assert by_slot[("revF", 2)] == CLEAN

    def test_report_json_shape(self, c4_base):
        chi = build_tower(c4_base, 3).top
        report = verify_stepup_avoidance(chi, FamilySpec(3, 4, (1, 2), FLAVOR_F))
        doc = report.to_json()
        assert "elapsed_ms" not in doc
        assert doc["status"] == CLEAN
        assert len(doc["slots"]) == 4

    @pytest.mark.parametrize("k, stepped, searched", [
        (3, True, SLOTS[:2]), (4, True, SLOTS[:2] + SLOTS[3:]), (5, True, SLOTS[:2] + SLOTS[3:]),
        (3, False, SLOTS), (4, False, SLOTS),
    ], ids=["k3", "k4", "k5", "k3-leaf", "k4-leaf"])
    def test_searches_per_report(self, k, stepped, searched, monkeypatch):
        calls = []
        real = search_module.find_mono_f_copy

        def spy(chi, spec, colors, budget=None):
            calls.append((spec.flavor, *colors))
            return real(chi, spec, colors, budget)

        monkeypatch.setattr(search_module, "find_mono_f_copy", spy)
        chi = build_tower(BaseColoring(2, 3, BINARY, (0, 1, 0)), k).top
        spec = FamilySpec(k, k, tuple(range(1, k)), FLAVOR_F)
        budget = SearchBudget(max_nodes=2_000)
        report = verify_stepup_avoidance(chi if stepped else LeafProxy(chi), spec, budget)
        assert calls == list(searched)
        assert [(s.flavor, s.color) for s in report.slots] == list(SLOTS)

    def test_node_budget_report_is_each_slot_searched_alone(self, tmp_path):
        # 100 letters stop F/1 (and so revF/2) of the `0 1 0` k = 4 tower
        # early; the report is the one four budgeted searches write.
        from treeramsey import write_coloring
        from treeramsey.cli import main

        base = BaseColoring(2, 3, BINARY, (0, 1, 0))
        write_coloring(base, tmp_path / "b.coloring")
        assert main(["stepup", "verify", "--base", str(tmp_path / "b.coloring"), "--k", "4",
                     "--n", "4", "--I", "1,2,3", "--max-nodes", "100",
                     "--out", str(tmp_path / "run")]) == 1
        doc = json.loads((tmp_path / "run" / "report.json").read_text())
        chi = build_tower(base, 4).top
        spec = FamilySpec(4, 4, (1, 2, 3), FLAVOR_F)
        budget = SearchBudget(max_nodes=100)
        for got, (flavor, color) in zip(doc["slots"], SLOTS):
            own = find_mono_f_copy(chi, spec.with_flavor(flavor), {color}, budget)
            assert got == search_module.SlotResult(
                flavor, color, own.status, own.witness, own.counters
            ).to_json()
        assert [s["status"] for s in doc["slots"]] == [
            WITNESS, INDETERMINATE, INDETERMINATE, WITNESS
        ]

    def test_search_time_goes_to_the_manifest(self, c4_base, tmp_path, capsys):
        from treeramsey import write_coloring
        from treeramsey.cli import main

        write_coloring(c4_base, tmp_path / "c4.coloring")
        out = tmp_path / "run"
        assert main(["stepup", "verify", "--base", str(tmp_path / "c4.coloring"),
                     "--n", "4", "--I", "1,2", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["metrics"]) == {"search_ms"}
        assert 0 <= manifest["metrics"]["search_ms"] <= manifest["elapsed_ms"]
        assert "elapsed_ms" not in json.loads((out / "report.json").read_text())


class TestOrderedCopy:
    def test_single_edge_target(self):
        host = OrderedHypergraph(6, ((2, 3, 5), (1, 4, 6)))
        target = OrderedHypergraph(3, ((1, 2, 3),))
        assert find_ordered_copy(host, target) == (1, 4, 6)

    def test_identity_embedding(self):
        member = canonical_member(FamilySpec(3, 3, (1, 2), FLAVOR_G))
        host = OrderedHypergraph(member.v, member.edges)
        assert find_ordered_copy(host, member) == tuple(range(1, member.v + 1))

    def test_blowup_under_connector_first_order(self):
        # place the connector blocks (special block first) before the
        # distinguished classes: the canonical copy must then embed
        system = build_blowup(3, 3, (1, 2), m=2)
        ordering = (
            list(system.block_range((1, 2)))
            + list(system.block_range((2, 3)))
            + [v for i in (1, 2, 3) for v in system.class_range(i)]
        )
        host = ordering_as_hypergraph(system, ordering)
        target = canonical_member(FamilySpec(3, 3, (1, 2), FLAVOR_G))
        assert find_ordered_copy(host, target) is not None

    def test_blowup_frontier_completes(self):
        # The (4,3,(1,2)) blow-up at m = 4: 80 vertices, 64 edges.  G's
        # x_0 and connectors share no edge with each other, so placing
        # in index order scanned every position for all four (seconds
        # per ordering); the connected order places each through an edge.
        system = build_blowup(4, 3, (1, 2), m=4)
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_G)
        targets = [canonical_member(spec.with_flavor(fl)) for fl in (FLAVOR_G, FLAVOR_REVG)]
        found = 0
        for seed in range(5):
            host = seeded_ordering(system, seed)
            for target in targets:
                image = find_ordered_copy(host, target)
                if image is None:
                    continue
                found += 1
                assert len(image) == target.v
                assert all(a < b for a, b in zip(image, image[1:]))
                assert 1 <= image[0] and image[-1] <= host.v
                for e in target.edges:
                    assert tuple(image[p - 1] for p in e) in host.edge_set
        assert found

    def test_clean_when_absent(self):
        host = OrderedHypergraph(5, ((1, 2, 3),))
        target = OrderedHypergraph(4, ((1, 2, 3), (2, 3, 4)))
        assert find_ordered_copy(host, target) is None

    def test_target_needs_edges(self):
        with pytest.raises(ValueError, match="at least one edge"):
            find_ordered_copy(OrderedHypergraph(3, ((1, 2, 3),)), OrderedHypergraph(3, ()))


def _random_edges(rng, vertices, k, density):
    return tuple(e for e in itertools.combinations(vertices, k) if rng.random() < density)


def _is_partial(H, k):
    """Whether every (k-1)-set lies in at most one edge, counted directly."""
    seen = set()
    for e in H.edges:
        for key in itertools.combinations(e, k - 1):
            if key in seen:
                return False
            seen.add(key)
    return True


def random_embedding_case(rng):
    """A small host and target at k = 3 or 4.  Dense hosts and targets
    are not partial systems; a target may leave vertices isolated, and
    with `first` > 1 its first vertices lie in no edge."""
    k = rng.choice((3, 4))
    v = rng.randint(k, 11)
    host = OrderedHypergraph(
        v, _random_edges(rng, range(1, v + 1), k, rng.choice((0.1, 0.3, 0.6)))
    )
    tv = rng.randint(k, 7)
    first = rng.choice((1, 1, 2, 3)) if tv - k >= 2 else 1
    vertices = range(first, tv + 1)
    edges = _random_edges(rng, vertices, k, rng.choice((0.2, 0.5)))
    if not edges:
        edges = (tuple(sorted(rng.sample(vertices, k))),)
    return host, OrderedHypergraph(tv, edges)


def seeded_ordering(system, seed):
    rng = random.Random(f"ordered-copy-oracle:{seed}")
    ordering = list(range(1, system.vertex_count + 1))
    rng.shuffle(ordering)
    return ordering_as_hypergraph(system, ordering)


class TestOrderedCopyMatchesOracle:
    """`find_ordered_copy` returns exactly what scanning every host
    position returns: the least image tuple, or None."""

    def test_seeded_small_hosts(self):
        kinds = set()
        rng = random.Random(20261018)
        for _ in range(400):
            host, target = random_embedding_case(rng)
            expected = find_ordered_copy_by_scan(host, target)
            assert find_ordered_copy(host, target) == expected, (host, target)
            k = len(target.edges[0])
            covered = {p for e in target.edges for p in e}
            kinds.add("found" if expected is not None else "none")
            kinds.add(f"k={k}")
            if not _is_partial(host, k):
                kinds.add("non-partial host")
            if not _is_partial(target, k):
                kinds.add("non-partial target")
            if len(covered) < target.v:
                kinds.add("isolated target vertex")
            if 1 not in covered:
                kinds.add("first target vertex in no edge")
        assert kinds == {
            "found", "none", "k=3", "k=4", "non-partial host", "non-partial target",
            "isolated target vertex", "first target vertex in no edge",
        }

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_random_small_hosts(self, seed):
        host, target = random_embedding_case(random.Random(seed))
        assert find_ordered_copy(host, target) == find_ordered_copy_by_scan(host, target)

    def test_blowup_orderings(self):
        # Each target is reused across the hosts, and the G member also
        # comes with other labels, which play no part in its placement.
        system = build_blowup(3, 3, (1, 2), m=3)
        spec = FamilySpec(3, 3, (1, 2), FLAVOR_G)
        targets = [canonical_member(spec.with_flavor(fl)) for fl in (FLAVOR_G, FLAVOR_REVG)]
        targets.append(OrderedHypergraph(targets[0].v, targets[0].edges, {"x0": targets[0].v}))
        outcomes = set()
        for seed in range(60):
            host = seeded_ordering(system, seed)
            for target in targets:
                expected = find_ordered_copy_by_scan(host, target)
                assert find_ordered_copy(host, target) == expected, (seed, target)
                outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_blowup_orderings_at_n_above_k(self):
        # (k, n) = (3, 4): G's first four vertices share no edge, so its
        # placement order is not the index order; revG's is.
        system = build_blowup(4, 3, (1, 2), m=2)
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_G)
        targets = [canonical_member(spec.with_flavor(fl)) for fl in (FLAVOR_G, FLAVOR_REVG)]
        for seed in range(10):
            host = seeded_ordering(system, seed)
            for target in targets:
                assert find_ordered_copy(host, target) == find_ordered_copy_by_scan(host, target)

    def test_both_placement_paths(self, monkeypatch):
        # A target whose connected order is the index order from vertex 1
        # runs one search in index order; any other fixes vertices one by
        # one.  Canonical members of random specs in random hosts take both.
        orders = []
        connected_order = search_module._connected_order

        def spy(through, i):
            orders.append(connected_order(through, i))
            return orders[-1]

        monkeypatch.setattr(search_module, "_connected_order", spy)
        monkeypatch.setattr(search_module, "_placement_plans",
                            search_module._placement_plans.__wrapped__)  # no plan is cached
        kinds = set()
        rng = random.Random(20261019)
        for _ in range(200):
            k = rng.choice((3, 4))
            n = rng.randint(k, k + 1)
            I = (1, 2) + tuple(sorted(rng.sample(range(3, n + 1), k - 3)))
            if not is_separated(I, n, k):
                continue
            target = canonical_member(FamilySpec(k, n, I, rng.choice((FLAVOR_G, FLAVOR_REVG))))
            v = rng.randint(target.v, target.v + 5)
            edges = _random_edges(rng, range(1, v + 1), k, rng.choice((0.2, 0.5)))
            host = OrderedHypergraph(v, edges or ((tuple(range(1, k + 1))),))
            orders.clear()
            image = find_ordered_copy(host, target)
            assert image == find_ordered_copy_by_scan(host, target), (host, target)
            if orders:  # no search runs when the host is too small
                in_order = len(orders) == 1 and orders[0] == list(range(1, target.v + 1))
                kinds.add(("index order" if in_order else "fix-and-test", image is not None))
        assert kinds == {(path, found) for path in ("index order", "fix-and-test")
                         for found in (False, True)}

    def test_glued_system_ordering(self):
        # 871 vertices and 15,678 edges; the scan takes about a second.
        glued = assemble_h(build_blowup(3, 3, (1, 2), m=3), build_projective_plane(29), seed=0)
        host = seeded_ordering(glued, 0)
        spec = FamilySpec(3, 3, (1, 2), FLAVOR_G)
        for flavor in (FLAVOR_G, FLAVOR_REVG):
            target = canonical_member(spec.with_flavor(flavor))
            expected = find_ordered_copy_by_scan(host, target)
            assert expected is not None
            assert find_ordered_copy(host, target) == expected

    @pytest.mark.parametrize("host,target,image", [
        # (2, 3) is placed first and completed only by 1, below its images
        (OrderedHypergraph(6, ((1, 2, 3), (3, 4, 5), (4, 5, 6))),
         OrderedHypergraph(4, ((1, 2, 3), (2, 3, 4))),
         (3, 4, 5, 6)),
        # (1, 2) has two completions, and only the second leads to a copy
        (OrderedHypergraph(7, ((1, 2, 3), (1, 2, 4), (4, 5, 6))),
         OrderedHypergraph(5, ((1, 2, 3), (3, 4, 5))),
         (1, 2, 4, 5, 6)),
        # both completions of (1, 2) lead to a copy; edges listed unsorted
        (OrderedHypergraph(7, ((1, 2, 4), (4, 5, 6), (1, 2, 3), (3, 4, 5))),
         OrderedHypergraph(5, ((1, 2, 3), (3, 4, 5))),
         (1, 2, 3, 4, 5)),
        # 1-uniform: an edge's other vertices are none, so any host edge completes
        (OrderedHypergraph(5, ((5,), (2,), (4,))), OrderedHypergraph(2, ((1,), (2,))), (2, 4)),
        # placed 1, 3, 5, 2, 4, the first embedding is (1, 2, 3, 5, 6); it
        # gives 1 and 2 their least images, but not 3 .. 5 the least rest
        (OrderedHypergraph(9, ((1, 3, 6), (1, 3, 9), (2, 4, 9), (2, 5, 6))),
         OrderedHypergraph(5, ((1, 3, 5), (2, 4, 5))),
         (1, 2, 3, 4, 9)),
    ], ids=["completion-below-key", "two-completions", "two-completions-unsorted",
            "one-uniform", "first-embedding-not-least"])
    def test_explicit_hosts(self, host, target, image):
        assert find_ordered_copy_by_scan(host, target) == image
        assert find_ordered_copy(host, target) == image


def contains_by_enumeration(host, spec):
    """Memo-free containment: every chain, every connector set, scanned
    directly against the host's edges."""
    edges = host.edge_set
    for increasing in itertools.combinations(range(1, host.v + 1), spec.n + 1):
        chain = increasing if spec.flavor == FLAVOR_F else increasing[::-1]
        lo, hi = sorted(chain[:2])
        if tuple(sorted({chain[0]} | {chain[i] for i in spec.I})) not in edges:
            continue
        if all(
            any(
                tuple(sorted({v} | {chain[j] for j in J})) in edges
                for v in range(lo, hi + 1)
            )
            for J in spec.connectors
        ):
            return True
    return False


@st.composite
def small_hosts(draw):
    v = draw(st.integers(min_value=4, max_value=12))
    triples = list(itertools.combinations(range(1, v + 1), 3))
    density = draw(st.sampled_from((0.1, 0.25, 0.5)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    edges = tuple(e for e in triples if rng.random() < density)
    return OrderedHypergraph(v, edges)


@st.composite
def k4_hosts_and_specs(draw):
    """A k = 4 host with at least one edge and an F spec whose I is any
    separated set; at I = (1, 2, 4) and (1, 2, 5), x_3 is neither in I
    nor the largest leaf of a connector set, so its depth is scanned."""
    n = draw(st.integers(min_value=4, max_value=6))
    separated = [I for I in ((1, 2, 3), (1, 2, 4), (1, 2, 5)) if is_separated(I, n, 4)]
    I = draw(st.sampled_from(separated))
    v = draw(st.integers(min_value=n + 1, max_value=9))
    quads = list(itertools.combinations(range(1, v + 1), 4))
    density = draw(st.sampled_from((0.25, 0.5, 0.8)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    edges = tuple(e for e in quads if rng.random() < density) or quads[:1]
    return OrderedHypergraph(v, edges), FamilySpec(4, n, I, FLAVOR_F)


def assert_same_as_full_scan(host, spec):
    """The incidence-driven search returns the full scan's outcome; the
    scan runs on a proxy of the membership test, which is not a
    `MembershipColoring`, and visits every node the host search visits."""
    membership = MembershipColoring(host)
    got = find_mono_f_copy(membership, spec, {0})
    scan = find_mono_f_copy(LeafProxy(membership), spec, {0})
    assert (got.status, got.witness) == (scan.status, scan.witness)
    assert got.counters.nodes <= scan.counters.nodes
    return got, scan


class TestContainment:
    def test_three_edge_host_holds_no_four_edge_member(self):
        # The edge (2, 4, 5) and the non-edge (2, 4, 6) share a level
        # profile, so a memo keyed on it finds a 4-edge member here.
        host = OrderedHypergraph(6, ((1, 2, 4), (1, 5, 6), (2, 4, 5)))
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_F)
        assert not contains_family_member(host, spec)
        assert not contains_by_enumeration(host, spec)

    def test_non_stepped_evaluator_is_searched_in_leaf_space(self, monkeypatch):
        host = OrderedHypergraph(6, ((1, 2, 4), (1, 5, 6), (2, 4, 5)))
        membership = MembershipColoring(host)

        class Proxy:
            uniformity, ground_size = membership.uniformity, membership.ground_size
            _eval = staticmethod(membership._eval)

        def refuse(*args):
            raise AssertionError("level space searched a non-stepped evaluator")

        monkeypatch.setattr(search_module, "_search_levels", refuse)
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_F)
        assert find_mono_f_copy(Proxy(), spec, {0}).status == CLEAN

    @settings(max_examples=150, deadline=None)
    @given(small_hosts(), st.sampled_from((3, 4, 5)))
    def test_matches_memo_free_enumeration(self, host, n):
        for flavor in (FLAVOR_F, FLAVOR_REVF):
            spec = FamilySpec(3, n, (1, 2), flavor)
            expected = host.v >= n + 1 and contains_by_enumeration(host, spec)
            assert contains_family_member(host, spec) == expected

    @settings(max_examples=80, deadline=None)
    @given(k4_hosts_and_specs())
    def test_k4_hosts_match_enumeration_and_full_scan(self, case):
        host, spec = case
        for flavor in (FLAVOR_F, FLAVOR_REVF):
            flavored = spec.with_flavor(flavor)
            expected = contains_by_enumeration(host, flavored)
            assert contains_family_member(host, flavored) == expected
            assert_same_as_full_scan(host, flavored)

    @settings(max_examples=80, deadline=None)
    @given(small_hosts(), st.sampled_from((3, 4, 5)))
    def test_unseparated_index_set_scans_a_depth(self, host, n):
        # I = (1, 3) is no F spec's, but the leaf engine takes any I:
        # x_2 is neither in I nor a connector set's largest leaf.
        assume(host.edges and host.v >= n + 1)
        fields = (3, n, (1, 3))
        spec = SimpleNamespace(n=n, I=(1, 3), flavor=FLAVOR_F, connectors=connector_sets(n, 3))
        membership = MembershipColoring(host)
        for color in (0, 1):
            engine = partial(search_module._search_chains_ascending, spec_fields=fields,
                             color=color, budget=None)
            got, scan = engine(membership), engine(LeafProxy(membership))
            assert (got.status, got.witness) == (scan.status, scan.witness)
            if color == 0:
                assert (got.status == WITNESS) == contains_by_enumeration(host, spec)

    def test_blowup_orderings_match_full_scan(self, plane29):
        # The blow-up's orderings, and one of the blow-up glued into the
        # plane of order 29 (871 vertices): x_0 is drawn lazily there.
        system = build_blowup(3, 3, (1, 2), m=3)
        spec = FamilySpec(3, 3, (1, 2), FLAVOR_F)
        glued = seeded_ordering(assemble_h(system, plane29, seed=99), 0)
        statuses, nodes = set(), [0, 0]
        for host in itertools.chain(map(partial(seeded_ordering, system), range(60)), [glued]):
            for flavor in (FLAVOR_F, FLAVOR_REVF):
                got, scan = assert_same_as_full_scan(host, spec.with_flavor(flavor))
                statuses.add(got.status)
                nodes[0] += got.counters.nodes
                nodes[1] += scan.counters.nodes
        assert statuses == {CLEAN, WITNESS}
        assert 10 * nodes[0] < nodes[1]

    def test_member_contains_itself(self):
        spec = FamilySpec(3, 3, (1, 2), FLAVOR_F)
        member = canonical_member(spec)
        host = OrderedHypergraph(member.v, member.edges)
        assert contains_family_member(host, spec)

    def test_complete_host_contains_reversed(self):
        spec = FamilySpec(3, 3, (1, 2), FLAVOR_REVF)
        edges = tuple(itertools.combinations(range(1, 7), 3))
        assert contains_family_member(OrderedHypergraph(6, edges), spec)

    def test_small_host_clean(self):
        spec = FamilySpec(3, 3, (1, 2), FLAVOR_F)
        assert not contains_family_member(OrderedHypergraph(3, ((1, 2, 3),)), spec)

    def test_witness_outside_the_interval_raises(self, monkeypatch):
        # Every edge of this witness is a host edge, but the connector of
        # J = (3, 4) sits at 7, outside [x0, x1] = [1, 3]: no F member.
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_F)
        witness = MonoCopyWitness(
            FLAVOR_F, 0, (1, 3, 4, 5, 6), (((2, 3), 2), ((2, 4), 2), ((3, 4), 7))
        )
        host = OrderedHypergraph(7, tuple(sorted(witness.edges(spec.I))))
        assert set(witness.edges(spec.I)) <= host.edge_set
        outcome = search_module.SearchOutcome(WITNESS, witness, search_module.SearchCounters())
        monkeypatch.setattr(search_module, "find_mono_f_copy", lambda *args: outcome)
        with pytest.raises(AssertionError, match="re-check"):
            contains_family_member(host, spec)


@pytest.fixture(scope="module")
def plane29():
    return build_projective_plane(29)


def reversed_host_reference(host, spec):
    """revF containment answered on a reversed copy of the host: F on
    `reverse(host)`, with the witness reflected back to the host."""
    outcome = find_mono_f_copy(MembershipColoring(reverse(host)), spec.with_flavor(FLAVOR_F), {0})
    witness = outcome.witness
    if witness is not None:
        m = host.v + 1
        witness = MonoCopyWitness(
            FLAVOR_REVF, witness.color, tuple(m - x for x in witness.distinguished),
            tuple((J, m - v) for J, v in witness.assignment),
        )
    return outcome.status, witness, outcome.counters


class TestReversedFlavorOnTheHost:
    """revF containment reads the host's own incidence lists through the
    reflection x -> v + 1 - x; it gives the status, witness and counters
    of F on the reversed host."""

    @staticmethod
    def statuses(system, n, k, seeds):
        spec = FamilySpec(k, n, canonical_separated(n, k), FLAVOR_REVF)
        seen = []
        for seed in seeds:
            host = seeded_ordering(system, seed)
            got = find_mono_f_copy(MembershipColoring(host), spec, {0})
            assert (got.status, got.witness, got.counters) == reversed_host_reference(host, spec)
            assert contains_family_member(host, spec) == (got.status == WITNESS)
            seen.append(got.status)
        return seen

    def test_blowup_orderings(self):
        seen = []
        for n, k, m in [(3, 3, 1), (3, 3, 2), (3, 3, 3), (4, 3, 2), (4, 3, 3), (4, 4, 2),
                        (5, 3, 2)]:
            system = build_blowup(n, k, tuple(range(1, k)), m)
            seen += self.statuses(system, n, k, range(15))
        assert {CLEAN, WITNESS} <= set(seen)

    @pytest.mark.parametrize("n,k,m", [(3, 3, 3), (4, 3, 2), (4, 4, 2)])
    def test_glued_system_orderings(self, plane29, n, k, m):
        glued = assemble_h(build_blowup(n, k, tuple(range(1, k)), m), plane29, seed=99)
        assert self.statuses(glued, n, k, range(3)) == [WITNESS] * 3


class TestWitnessValidation:
    def test_tampered_witness_rejected(self):
        chi = build_tower(all_zero_coloring(4), 3).top
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_F)
        w = find_mono_f_copy(chi, spec, {0}).witness
        wrong_color = MonoCopyWitness(w.flavor, 1, w.distinguished, w.assignment)
        assert not validate_witness(chi, spec, wrong_color)
        out_of_interval = MonoCopyWitness(
            w.flavor, w.color, w.distinguished,
            tuple((J, w.distinguished[-1]) for J, _ in w.assignment),
        )
        assert not validate_witness(chi, spec, out_of_interval)
        assert not validate_witness(chi, spec.with_flavor(FLAVOR_REVF), w)
        shifted = MonoCopyWitness(
            w.flavor, w.color, tuple(x + chi.ground_size for x in w.distinguished),
            tuple((J, v + chi.ground_size) for J, v in w.assignment),
        )
        assert not validate_witness(chi, spec, shifted)

    def test_accepts_search_evaluators(self):
        # The re-check runs on any coloring the engine searches, not
        # only on tree colorings.
        chi = build_tower(all_zero_coloring(4), 3).top
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_F)
        w = find_mono_f_copy(ReflectedColoring(chi), spec, {3}).witness
        assert validate_witness(ReflectedColoring(chi), spec, w)
        assert not validate_witness(chi, spec, w)
        host = OrderedHypergraph(6, tuple(itertools.combinations(range(1, 7), 3)))
        small = FamilySpec(3, 3, (1, 2), FLAVOR_F)
        w = find_mono_f_copy(MembershipColoring(host), small, {0}).witness
        assert validate_witness(MembershipColoring(host), small, w)
        sparse = OrderedHypergraph(6, w.edges(small.I)[1:])
        assert not validate_witness(MembershipColoring(sparse), small, w)

    def test_base_coloring_is_searchable(self):
        base = BaseColoring(3, 6, BINARY, (0,) * math.comb(6, 3))
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_F)
        outcome = find_mono_f_copy(base, spec, {0})
        assert outcome.status == WITNESS
        assert validate_witness(base, spec, outcome.witness)
        assert find_mono_f_copy(base, spec, {1}).status == CLEAN


class TestSearchStateIsFreed:
    """A search leaves no reference cycle behind, so its state (the
    profile-color cache, masks, memo and ticker) is freed on return even
    while the cyclic collector is paused, as the CLI runs every command."""

    @staticmethod
    def cyclic_garbage(run):
        run()  # first calls may fill module-level caches
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            run()
            return gc.collect()
        finally:
            if was_enabled:
                gc.enable()

    def test_level_space_search(self):
        chi = build_tower(c4_coloring(), 4).top
        spec = FamilySpec(4, 5, (1, 2, 3), FLAVOR_F)

        def run():
            for flavor in (FLAVOR_F, FLAVOR_REVF):
                find_mono_f_copy(chi, spec.with_flavor(flavor), {0, 1})
            find_mono_f_copy(chi, spec, {0, 1}, SearchBudget(max_nodes=5))

        assert self.cyclic_garbage(run) == 0

    def test_containment_search(self):
        host = seeded_ordering(build_blowup(3, 3, (1, 2), m=3), 0)
        spec = FamilySpec(3, 3, (1, 2), FLAVOR_F)

        def run():
            for flavor in (FLAVOR_F, FLAVOR_REVF):
                contains_family_member(host, spec.with_flavor(flavor))
            membership = MembershipColoring(host)
            find_mono_f_copy(membership, spec, {0, 1}, SearchBudget(max_nodes=2))

        assert self.cyclic_garbage(run) == 0
