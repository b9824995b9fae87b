"""Separated sets, member generation/recognition, blueprints, IO."""

import dataclasses
import itertools
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeramsey import (
    FLAVOR_F,
    FLAVOR_G,
    FLAVOR_REVF,
    FLAVOR_REVG,
    FamilySpec,
    MemberBlueprint,
    MonoCopyWitness,
    OrderedHypergraph,
    canonical_member,
    canonical_separated,
    contains_family_member,
    enumerate_blueprints,
    is_member,
    is_separated,
    member_edge_count,
    member_vertex_count,
    realize_blueprint,
    reverse,
    validate_witness,
)
from treeramsey.families import (
    PLACE_ANCHOR,
    PLACE_X1,
    ROLE_SPECIAL,
    connector_sets,
    edge_tuples,
    member_edges,
    placed_as_member,
    role_connector,
    role_distinguished,
)
from treeramsey.search import MembershipColoring
from treeramsey.steiner import is_partial_steiner


class TestSeparated:
    def test_uniformity_three_unique(self):
        for n in (3, 10, 100):
            assert is_separated((1, 2), n, 3)
            assert not is_separated((1, 3), n, 3)

    def test_examples(self):
        assert is_separated((1, 2, 8), 24, 4)
        assert not is_separated((1, 3, 9), 24, 4)

    def test_matches_exhaustive_definition(self):
        # brute force straight from the gap condition
        for n in range(4, 16):
            for k in (4, 5):
                if k - 1 > n:
                    continue
                for I in itertools.combinations(range(1, n + 1), k - 1):
                    ext = I + (n,)
                    expected = (
                        I[0] == 1
                        and I[1] == 2
                        and all(
                            2 * k * (ext[i + 1] - ext[i]) >= n
                            for i in range(1, k - 1)
                        )
                    )
                    assert is_separated(I, n, k) == expected

    def test_canonical_examples(self):
        assert canonical_separated(24, 4) == (1, 2, 5)
        assert canonical_separated(100, 3) == (1, 2)

    def test_canonical_always_separated(self):
        for k in (3, 4, 5):
            for n in range(k, 40):
                try:
                    I = canonical_separated(n, k)
                except ValueError:
                    continue
                assert is_separated(I, n, k)
                assert I[-1] <= n

    def test_canonical_minimal_gap_set(self):
        # the progression gap is the least integer allowed, so existence of
        # any separated set implies the formula works; cross-check brutally
        for k in (4, 5):
            for n in range(k, 20):
                exists = any(
                    is_separated(I, n, k)
                    for I in itertools.combinations(range(1, n + 1), k - 1)
                )
                try:
                    canonical_separated(n, k)
                    assert exists
                except ValueError:
                    assert not exists

    def test_infeasible_names_minimal(self):
        with pytest.raises(ValueError, match="minimal feasible n is 5"):
            canonical_separated(4, 5)


def spec334(flavor=FLAVOR_F):
    return FamilySpec(3, 3, (1, 2), flavor)


class TestFamilySpec:
    def test_anchored_flavors_require_separated(self):
        with pytest.raises(ValueError, match="separated"):
            FamilySpec(3, 4, (1, 3), FLAVOR_F)
        with pytest.raises(ValueError, match="separated"):
            # gap 3 - 2 = 1 below 16/8 = 2
            FamilySpec(4, 16, (1, 2, 3), FLAVOR_REVF)
        FamilySpec(4, 8, (1, 2, 4), FLAVOR_F)

    def test_g_flavor_only_needs_one(self):
        FamilySpec(4, 5, (1, 2, 4), FLAVOR_G)
        with pytest.raises(ValueError, match="contain 1"):
            FamilySpec(4, 5, (2, 3, 4), FLAVOR_G)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="sorted"):
            FamilySpec(3, 4, (2, 1), FLAVOR_G)
        with pytest.raises(ValueError, match="n >= k"):
            FamilySpec(4, 3, (1, 2, 3), FLAVOR_G)

    def test_fstar_is_not_a_flavor(self):
        # F* is containing an F member and a revF member, not a family
        with pytest.raises(ValueError, match="unknown flavor 'Fstar'"):
            FamilySpec(3, 4, (1, 2), "Fstar")


class TestCanonicalMember:
    def test_counts_example_g(self):
        member = canonical_member(FamilySpec(3, 4, (1, 2), FLAVOR_G))
        assert member.v == 8 and len(member.edges) == 4

    def test_counts_example_f(self):
        member = canonical_member(FamilySpec(3, 4, (1, 2), FLAVOR_F))
        assert member.v == 8 and len(member.edges) == 4

    def test_counts_example_k4(self):
        member = canonical_member(FamilySpec(4, 5, (1, 2, 4), FLAVOR_G))
        omega_size = len(connector_sets(5, 4)) + 1
        assert len(member.edges) == omega_size == 5

    def test_closed_forms(self):
        for k in (3, 4, 5):
            for n in range(k, 9):
                spec = FamilySpec(k, n, tuple(range(1, k)), FLAVOR_G)
                member = canonical_member(spec)
                assert member.v == member_vertex_count(spec)
                assert len(member.edges) == member_edge_count(spec)

    def test_generator_output_validates(self):
        for flavor in (FLAVOR_F, FLAVOR_REVF, FLAVOR_G, FLAVOR_REVG):
            spec = FamilySpec(3, 4, (1, 2), flavor)
            assert is_member(canonical_member(spec), spec)

    def test_members_are_partial_systems(self):
        for k in (3, 4):
            for n in range(k, 7):
                for flavor in (FLAVOR_F, FLAVOR_G):
                    spec = FamilySpec(k, n, tuple(range(1, k)), flavor)
                    member = canonical_member(spec)
                    assert is_partial_steiner(member.edges, k, k - 1) is None

    def test_g_contained_in_f(self):
        # a G member is an F member once the anchor also carries the x0 role
        g_member = canonical_member(FamilySpec(3, 4, (1, 2), FLAVOR_G))
        labels = dict(g_member.labels)
        labels[role_distinguished(0)] = labels[ROLE_SPECIAL]
        as_f = OrderedHypergraph(g_member.v, g_member.edges, labels)
        assert is_member(as_f, FamilySpec(3, 4, (1, 2), FLAVOR_F))


class TestIsMember:
    def test_edge_deletion_detected(self):
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_F)
        member = canonical_member(spec)
        trimmed = OrderedHypergraph(member.v, member.edges[1:], member.labels)
        assert not is_member(trimmed, spec)

    def test_all_connectors_collapsed_on_anchor(self):
        spec = spec334()
        bp = MemberBlueprint(spec, (tuple(spec.connectors),), (PLACE_ANCHOR,))
        collapsed = realize_blueprint(bp)
        assert collapsed.v == spec.n + 1
        assert is_member(collapsed, spec)

    def test_collapse_on_x1(self):
        spec = spec334()
        bp = MemberBlueprint(spec, (tuple(spec.connectors),), (PLACE_X1,))
        assert is_member(realize_blueprint(bp), spec)

    def test_g_rejects_collapses(self):
        spec = spec334(FLAVOR_G)
        f_spec = spec334(FLAVOR_F)
        bp = MemberBlueprint(f_spec, (tuple(f_spec.connectors),), (PLACE_ANCHOR,))
        collapsed = realize_blueprint(bp)
        assert not is_member(collapsed, spec)

    def test_missing_labels_raise(self):
        spec = spec334()
        member = canonical_member(spec)
        with pytest.raises(ValueError, match="requires role labels"):
            is_member(OrderedHypergraph(member.v, member.edges), spec)
        broken = dict(member.labels)
        del broken[role_connector((2, 3))]
        with pytest.raises(ValueError, match="missing label"):
            is_member(OrderedHypergraph(member.v, member.edges, broken), spec)

    def test_reverse_of_canonical_is_rev_member(self):
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_F)
        member = canonical_member(spec)
        assert is_member(reverse(member), spec.with_flavor(FLAVOR_REVF))


def single_label_tamperings(H):
    """H, then H with one label moved to each other position of 1..v."""
    yield H
    for role, at in sorted(H.labels.items()):
        for p in range(1, H.v + 1):
            if p != at:
                yield dataclasses.replace(H, labels={**H.labels, role: p})


class TestMemberRule:
    """`is_member` and `validate_witness` both read the member rule,
    `member_edges` and `placed_as_member`."""

    SHAPES = [(3, 3, (1, 2)), (3, 4, (1, 2))]

    @pytest.mark.parametrize("flavor,reversed_flavor", [(FLAVOR_F, FLAVOR_REVF),
                                                        (FLAVOR_G, FLAVOR_REVG)])
    @pytest.mark.parametrize("k,n,I", SHAPES)
    def test_reversed_flavor_is_the_flavor_on_the_reversed_host(
        self, k, n, I, flavor, reversed_flavor
    ):
        spec = FamilySpec(k, n, I, flavor)
        reversed_spec = spec.with_flavor(reversed_flavor)
        hits = 0
        for bp in enumerate_blueprints(spec):
            M = realize_blueprint(bp)
            for H in itertools.chain(*map(single_label_tamperings, (M, reverse(M)))):
                answer = is_member(H, reversed_spec)
                assert answer == is_member(reverse(H), spec), (bp, H.labels)
                hits += answer
        assert hits  # the reversed members themselves

    @pytest.mark.parametrize("k,n,I", SHAPES + [(4, 4, (1, 2, 3))])
    def test_witness_recheck_agrees_with_the_rule(self, k, n, I):
        spec = FamilySpec(k, n, I, FLAVOR_F)
        roles = [role_distinguished(i) for i in range(n + 1)]
        outcomes = set()
        for bp in enumerate_blueprints(spec):
            M = realize_blueprint(bp)
            for flavor, host in ((FLAVOR_F, M), (FLAVOR_REVF, reverse(M))):
                slot = spec.with_flavor(flavor)
                for H in single_label_tamperings(host):
                    chain = [H.labels[r] for r in roles]
                    assignment = tuple((J, H.labels[role_connector(J)]) for J in spec.connectors)
                    w = MonoCopyWitness(flavor, 0, tuple(chain), assignment)
                    expected = placed_as_member(
                        slot, chain, [v for _, v in assignment]
                    ) and set(member_edges(chain, I, assignment)) <= host.edge_set
                    assert validate_witness(MembershipColoring(host), slot, w) == expected
                    outcomes.add(expected)
        assert outcomes == {True, False}


class TestReverse:
    @pytest.mark.parametrize("flavor,reversed_flavor", [(FLAVOR_F, FLAVOR_REVF),
                                                        (FLAVOR_G, FLAVOR_REVG)])
    @pytest.mark.parametrize("k,n,I", [(3, 3, (1, 2)), (3, 4, (1, 2)), (4, 4, (1, 2, 3))])
    def test_reversed_members_are_reverse_of_forward(self, k, n, I, flavor, reversed_flavor):
        # a reversed flavor's member is built in place, at v + 1 - p
        spec = FamilySpec(k, n, I, reversed_flavor)
        forward = spec.with_flavor(flavor)
        pairs = [(canonical_member(spec), canonical_member(forward))]
        for bp in enumerate_blueprints(spec):
            pairs.append((realize_blueprint(bp),
                          realize_blueprint(dataclasses.replace(bp, spec=forward))))
        assert len(pairs) > 2
        for member, twin in pairs:
            expected = reverse(twin)
            assert (member.edges, member.labels) == (expected.edges, expected.labels)

    def test_symmetric_single_edge(self):
        H = OrderedHypergraph(3, ((1, 2, 3),))
        assert reverse(H).edges == ((1, 2, 3),)

    @settings(max_examples=150)
    @given(st.data())
    def test_involution(self, data):
        v = data.draw(st.integers(3, 9))
        k = data.draw(st.integers(2, min(v, 4)))
        pool = list(itertools.combinations(range(1, v + 1), k))
        edges = tuple(
            sorted(
                data.draw(
                    st.sets(st.sampled_from(pool), min_size=1, max_size=min(len(pool), 6))
                )
            )
        )
        H = OrderedHypergraph(v, edges)
        assert reverse(reverse(H)) == H


def brute_force_members(spec: FamilySpec) -> set:
    """Independent member enumeration: try every map from connector sets
    to {anchor, x1, slot_1..slot_q} and dedupe the resulting edge sets."""
    connectors = spec.connectors
    q = len(connectors)
    seen = set()
    for assignment in itertools.product(range(q + 2), repeat=q):
        slots = sorted(set(a for a in assignment if a >= 2))
        interior = len(slots)
        anchor = 1
        x1 = anchor + interior + 1
        pos_of = {i: x1 + (i - 1) for i in range(1, spec.n + 1)}
        slot_pos = {s: anchor + 1 + slots.index(s) for s in slots}
        edges = {tuple(sorted({anchor} | {pos_of[i] for i in spec.I}))}
        for J, a in zip(connectors, assignment):
            if a == 0:
                p = anchor
            elif a == 1:
                p = x1
            else:
                p = slot_pos[a]
            edges.add(tuple(sorted({p} | {pos_of[j] for j in J})))
        seen.add((anchor + interior + spec.n, tuple(sorted(edges))))
    return seen


class TestBlueprints:
    @pytest.mark.parametrize("n,expected", [(3, 3), (4, 51)])
    def test_enumeration_matches_brute_force(self, n, expected):
        spec = FamilySpec(3, n, (1, 2), FLAVOR_F)
        blueprints = list(enumerate_blueprints(spec))
        realized = {
            (m.v, m.edges) for m in map(realize_blueprint, blueprints)
        }
        assert len(realized) == len(blueprints)  # blueprint <-> member bijection
        assert realized == brute_force_members(spec)
        assert len(realized) == expected

    def test_realizations_validate(self):
        spec = spec334()
        for bp in enumerate_blueprints(spec):
            assert is_member(realize_blueprint(bp), spec)

    def test_partition_enforced(self):
        spec = spec334()
        with pytest.raises(ValueError, match="partition"):
            MemberBlueprint(spec, (((2, 3),), ((2, 3),)), (PLACE_ANCHOR, PLACE_X1))


    def test_partition_rejects_repeats_at_full_length(self):
        spec = spec334()
        with pytest.raises(ValueError, match="partition"):
            MemberBlueprint(spec, (((2, 3), (2, 3), (2, 4)),), (PLACE_ANCHOR,))

    def test_partition_in_any_order(self):
        spec = spec334()
        shuffled = tuple(reversed(spec.connectors))
        bp = MemberBlueprint(spec, (shuffled,), (PLACE_ANCHOR,))
        assert is_member(realize_blueprint(bp), spec)


class TestConnectorSets:
    def test_colex_order(self):
        assert connector_sets(5, 4) == ((2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5))

    def test_enumerated_once_and_immutable(self):
        first = connector_sets(6, 4)
        assert isinstance(first, tuple)
        assert connector_sets(6, 4) is first
        assert FamilySpec(4, 6, (1, 2, 3), FLAVOR_G).connectors is first


class TestCachedViews:
    """The cached views of a hypergraph, checked against direct counts."""

    def test_views_leave_fields_equality_and_json_alone(self):
        member = canonical_member(FamilySpec(3, 4, (1, 2), FLAVOR_G))
        fresh = OrderedHypergraph(member.v, member.edges, dict(member.labels))
        assert member.edge_set is member.edge_set == frozenset(member.edges)
        assert member.incidence
        assert [f.name for f in dataclasses.fields(member)] == ["v", "edges", "labels"]
        assert member == fresh
        assert member.to_json() == fresh.to_json()

    def test_views_of_a_non_partial_hypergraph(self):
        edges = ((2, 4, 5), (1, 2, 3), (1, 2, 5), (1, 2, 4), (3, 4, 5))
        H = OrderedHypergraph(5, edges)
        assert H.incidence == tuple(
            tuple(e for e in edges if p in e) for p in range(6)
        )


class TestFstar:
    """F*: an F member and a revF member both as ordered subgraphs."""

    @staticmethod
    def contains_both(host, spec):
        return all(
            contains_family_member(host, spec.with_flavor(flavor))
            for flavor in (FLAVOR_F, FLAVOR_REVF)
        )

    def test_complete_graph_contains_both(self):
        spec = spec334(FLAVOR_F)
        v = 6
        edges = tuple(itertools.combinations(range(1, v + 1), 3))
        host = OrderedHypergraph(v, edges)
        assert self.contains_both(host, spec)

    def test_too_small_host(self):
        spec = spec334(FLAVOR_F)
        host = OrderedHypergraph(3, ((1, 2, 3),))
        assert not self.contains_both(host, spec)


class TestHypergraphIO:
    def test_round_trip(self):
        member = canonical_member(FamilySpec(3, 4, (1, 2), FLAVOR_G))
        again = OrderedHypergraph.from_json(
            json.loads(json.dumps(member.to_json()))
        )
        assert again == member

    def test_unknown_field_rejected(self):
        obj = canonical_member(spec334()).to_json()
        obj["extra"] = 1
        with pytest.raises(ValueError, match="unknown fields"):
            OrderedHypergraph.from_json(obj)

    def test_edge_validation(self):
        with pytest.raises(ValueError, match=re.escape("edge (1, 2, 3) repeats an earlier edge")):
            OrderedHypergraph(4, ((1, 2, 3), (1, 2, 3)))
        with pytest.raises(ValueError, match=re.escape("edge (1, 2, 4) is not 3 distinct vertices in [1, 3]")):
            OrderedHypergraph(3, ((1, 2, 4),))
        # a row in any order is stored sorted
        assert OrderedHypergraph(4, ((3, 2, 4),)).edges == ((2, 3, 4),)

    def test_edge_list_forms_make_one_hypergraph(self):
        # the edges are stored as the tuple `edge_tuples` returns, so a
        # list of edges compares and hashes as the same tuple does
        as_tuple = OrderedHypergraph(6, ((1, 2, 3), (2, 4, 6)))
        for edges in ([(1, 2, 3), (2, 4, 6)], as_tuple.edges):
            H = OrderedHypergraph(6, edges)
            assert H == as_tuple and hash(H) == hash(as_tuple)
            assert type(H.edges) is tuple
        for rows in ([(3, 2, 4)], [[2, 3, 4]], [[4, 2, 3]]):
            H = OrderedHypergraph(4, rows)
            assert H == OrderedHypergraph(4, ((2, 3, 4),)) and H.edges == ((2, 3, 4),)

    @pytest.mark.parametrize("vertex", [True, 1.0], ids=["true", "float"])
    def test_vertices_are_ints_by_exact_type(self, vertex):
        # such an edge compares equal to (1, 2, 3), but would be written as
        # [true, 2, 3] or [1.0, 2, 3], which the reader refuses
        with pytest.raises(ValueError, match="is not 3 distinct vertices"):
            OrderedHypergraph(3, ((vertex, 2, 3),))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bulk_edge_check_matches_edge_by_edge(self, data):
        v = data.draw(st.integers(1, 20))
        k = data.draw(st.integers(1, min(v, 4)))
        size = min(data.draw(st.sampled_from([0, 2, 15, 16, 24])), math.comb(v, k))
        edges = data.draw(st.lists(
            st.lists(st.integers(1, v), min_size=k, max_size=k, unique=True)
            .map(lambda e: tuple(sorted(e))), min_size=size, max_size=size, unique=True,
        ))
        vertex = st.integers(-1, v + 1)
        bad = data.draw(
            st.none()
            | st.lists(vertex, min_size=k, max_size=k).map(tuple)
            | st.lists(vertex, min_size=k, max_size=k).map(sorted).map(tuple)
            | st.lists(vertex | st.booleans() | st.just(1.0), max_size=5).map(tuple)
            | st.lists(st.integers(1, v), min_size=k, max_size=k)
            | st.sampled_from(edges or [None])
        )
        if bad is not None:
            edges.insert(data.draw(st.integers(0, len(edges))), bad)
        assert _result(_stored_edges, v, tuple(edges)) == _result(_edge_by_edge, v, edges)

    @pytest.mark.parametrize("at", [0, 10, 20])
    @pytest.mark.parametrize("bad", [
        None, (0, 1, 2), (20, 21, 23), (3, 2, 4), (2, 2, 3), (1, 2, 3), [4, 5, 6],
        (True, 2, 3), (1.0, 2, 3), (1, 2), (),
    ], ids=repr)
    def test_bulk_edge_check_on_a_large_host(self, bad, at):
        edges = [(i, i + 1, i + 2) for i in range(1, 21)]
        if bad is not None:
            edges.insert(at, bad)
        assert _result(_stored_edges, 22, tuple(edges)) == _result(_edge_by_edge, 22, edges)

    @pytest.mark.parametrize("bad", [(1, 2), ()], ids=repr)
    @pytest.mark.parametrize("size", [2, 20])
    @pytest.mark.parametrize("at", [0, 1, -1])
    def test_edges_of_mixed_size_are_refused(self, bad, size, at):
        # the first edge fixes k; the first edge of another size, or the
        # empty first edge, is named
        edges = [(i, i + 1, i + 2) for i in range(1, size + 1)]
        edges.insert(at % (size + 1), bad)
        k = len(edges[0])
        named = next(e for e in edges if not 0 < len(e) == k)
        message = f"edge {named} is not {k} distinct vertices in [1, {size + 2}]"
        with pytest.raises(ValueError, match=re.escape(message)):
            OrderedHypergraph(size + 2, tuple(edges))

    def test_mixed_host_is_refused_not_misread(self):
        # read by its first edge alone, this host would be 2-uniform and
        # contain no F member, though it holds the canonical one
        member = canonical_member(FamilySpec(3, 3, (1, 2), FLAVOR_F))
        assert (1, 2) not in member.edges
        message = f"edge {member.edges[0]} is not 2 distinct vertices in [1, {member.v}]"
        with pytest.raises(ValueError, match=re.escape(message)):
            OrderedHypergraph(member.v, ((1, 2),) + member.edges)


class TestEdgeTuples:
    """`edge_tuples`, the one edge-list rule, against a row-by-row oracle."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_row_by_row(self, data):
        v = data.draw(st.integers(1, 12))
        k = data.draw(st.integers(1, min(v, 4)))
        size = min(data.draw(st.sampled_from([0, 2, 15, 16, 24])), math.comb(v, k))
        sets = data.draw(st.lists(
            st.frozensets(st.integers(1, v), min_size=k, max_size=k),
            min_size=size, max_size=size, unique=True,
        ))
        kind = data.draw(st.sampled_from([list, tuple]))
        rows = [kind(data.draw(st.permutations(sorted(e)))) for e in sets]
        # a bad row: mostly a good row with one vertex replaced, which may
        # repeat another, else a row of any size, a repeat or no list at all
        vertex = st.integers(1, v) | st.sampled_from([0, v + 1, True, False, 1.0, "1"])
        near = st.tuples(
            st.lists(st.integers(1, v), min_size=k, max_size=k, unique=True),
            st.integers(0, k - 1), vertex,
        ).map(lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:])
        bad_rows = {
            "near": near,
            "any": st.lists(vertex, max_size=5),
            "repeat": st.sampled_from(tuple(rows) or (None,)).map(lambda e: e and e[::-1]),
            "no list": st.integers(0, 3) | st.text(max_size=3) | st.dictionaries(st.text(), st.just(1)),
        }
        for _ in range(data.draw(st.integers(0, 2))):
            form = data.draw(st.sampled_from(["near", "near", "near", "any", "repeat", "no list"]))
            bad = data.draw(bad_rows[form])
            if type(bad) is list:
                bad = data.draw(st.sampled_from([list, tuple]))(bad)
            if bad is not None:
                rows.insert(data.draw(st.integers(0, len(rows))), bad)
        rows = data.draw(st.sampled_from([list, tuple]))(rows)
        assert _result(edge_tuples, rows, k, v) == _result(_rows_one_by_one, rows, k, v)

    def test_sorted_tuples_are_returned_as_is(self):
        rows = tuple((i, i + 1, i + 2) for i in range(1, 25))
        assert edge_tuples(rows, 3, 26) is rows
        assert edge_tuples(list(rows), 3, 26) == rows
        assert edge_tuples([[3, 1, 2], (6, 5, 4)], 3, 6) == ((1, 2, 3), (4, 5, 6))

    def test_uniformity_below_one_refuses_every_row(self):
        assert edge_tuples([], 0, 3) == ()
        with pytest.raises(ValueError, match=re.escape("edge [] is not 0 distinct vertices in [1, 3]")):
            edge_tuples([[]], 0, 3)


def _rows_one_by_one(rows, k, v):
    """The edge-list rule, one row at a time: the rows as sorted tuples
    when each is a list or tuple of k >= 1 distinct ints by exact type in
    [1, v] and no two hold the same set; else the error names the first
    bad row, or failing that the first repeat."""
    def good(e):
        return (type(e) in (list, tuple) and k >= 1 and len(e) == k and len(set(e)) == k
                and all(type(x) is int and 1 <= x <= v for x in e))

    for e in rows:
        if not good(e):
            raise ValueError(f"edge {e!r} is not {k} distinct vertices in [1, {v}]")
    seen = set()
    for e in rows:
        if frozenset(e) in seen:
            raise ValueError(f"edge {e!r} repeats an earlier edge")
        seen.add(frozenset(e))
    return tuple(tuple(sorted(e)) for e in rows)


def _edge_by_edge(v, edges):
    """OrderedHypergraph's edge check one edge at a time: k is the first
    edge's size, the edges must pass the edge-list rule, and each row, in
    any order, is stored as a sorted tuple."""
    return _rows_one_by_one(edges, len(edges[0]) if edges else 1, v)


def _stored_edges(v, edges):
    return OrderedHypergraph(v, edges).edges


def _result(check, *args):
    try:
        return check(*args)
    except Exception as exc:
        return type(exc), str(exc)
