"""Blow-ups, planes, gluing, Steiner validation, and the ordering experiment."""

import itertools
import json
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeramsey import (
    FamilySpec,
    SteinerWitness,
    assemble_h,
    build_blowup,
    build_projective_plane,
    is_partial_steiner,
    next_prime_at_least,
    ordering_as_hypergraph,
    sample_ordering_and_search,
    validate_projective_plane,
)
from treeramsey.families import FLAVOR_G, edge_tuples
from treeramsey.reporting import dump_records
from treeramsey import steiner
from treeramsey.steiner import (
    SYSTEM_SCHEMA,
    ProjectivePlane,
    SteinerSystem,
    _shuffled,
    read_system,
)

from assembly_oracle import assemble_by_edge, glued_doc_by_edge
from partial_steiner_oracle import is_partial_steiner as partial_steiner_oracle

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def scan_plane(p):
    """Reference construction: test every point against every line's
    normal vector, O(N**2) dot products."""
    reps = (
        [(1, y, z) for y in range(p) for z in range(p)]
        + [(0, 1, z) for z in range(p)]
        + [(0, 0, 1)]
    )
    point_id = {rep: i + 1 for i, rep in enumerate(reps)}
    lines = []
    for a, b, c in reps:
        lines.append(
            tuple(
                sorted(
                    point_id[rep]
                    for rep in reps
                    if (a * rep[0] + b * rep[1] + c * rep[2]) % p == 0
                )
            )
        )
    return ProjectivePlane(p, tuple(sorted(lines)))


def satisfies_axioms(plane):
    """Brute-force oracle: the counts, every point pair on exactly one
    line, and every two lines meeting in exactly one point."""
    p, N = plane.order, plane.num_points
    if len(plane.lines) != N:
        return False
    for line in plane.lines:
        if len(line) != p + 1 or list(line) != sorted(set(line)):
            return False
        if line[0] < 1 or line[-1] > N:
            return False
    pair_lines = {}
    for line in plane.lines:
        for pair in itertools.combinations(line, 2):
            pair_lines[pair] = pair_lines.get(pair, 0) + 1
    if len(pair_lines) != math.comb(N, 2) or any(c != 1 for c in pair_lines.values()):
        return False
    return all(
        len(set(l1) & set(l2)) == 1
        for l1, l2 in itertools.combinations(plane.lines, 2)
    )


def with_lines(plane, replace):
    """A copy of the plane with some lines replaced, by index."""
    lines = list(plane.lines)
    for idx, line in replace.items():
        lines[idx] = tuple(line)
    return ProjectivePlane(plane.order, tuple(lines))


def toy_blowup():
    return build_blowup(3, 3, (1, 2), m=2)


class TestBlowup:
    def test_toy_counts(self):
        system = toy_blowup()
        assert system.vertex_count == 14
        assert system.edge_count == 8
        assert len(list(system.iter_edges())) == 8

    def test_cached_edges_keep_json_and_pickle(self):
        system = toy_blowup()
        fresh_json = json.dumps(toy_blowup().to_json())
        edges = system.edges
        assert system.edges is edges == tuple(system.iter_edges())
        assert json.dumps(system.to_json()) == fresh_json
        copy = pickle.loads(pickle.dumps(system))
        assert copy == system and copy.edges == edges
        spec = FamilySpec(3, 3, (1, 2), FLAVOR_G)
        par = sample_ordering_and_search(system, spec, 6, seed=5, workers=2)
        seq = sample_ordering_and_search(toy_blowup(), spec, 6, seed=5, workers=1)
        assert par.to_json() == seq.to_json()

    def test_default_class_size(self):
        assert build_blowup(3, 3, (1, 2)).m == 3**6

    def test_count_formulas(self):
        for k in (3, 4):
            for n in range(k, 6):
                for m in (1, 2, 3):
                    system = build_blowup(n, k, tuple(range(1, k)), m)
                    q = math.comb(n - 1, k - 1)
                    assert system.vertex_count == m * n + m ** (k - 1) * (q + 1)
                    edges = list(system.iter_edges())
                    assert len(edges) == m ** (k - 1) * (q + 1)
                    assert len(set(edges)) == len(edges)

    def test_unique_extension(self):
        system = toy_blowup()
        for J in system.omega:
            images = []
            for z in itertools.product(*(system.class_range(j) for j in J)):
                v = system.extend_transversal(J, z)
                assert v in system.block_range(J)
                assert tuple(sorted(z + (v,))) in set(system.iter_edges())
                images.append(v)
            # injective and covering: a bijection onto the block
            assert sorted(images) == list(system.block_range(J))

    def test_extension_changes_with_coordinates(self):
        system = toy_blowup()
        a = system.extend_transversal((2, 3), (3, 5))
        b = system.extend_transversal((2, 3), (4, 5))
        assert a != b

    def test_wrong_class_rejected(self):
        system = toy_blowup()
        with pytest.raises(ValueError, match="not in class"):
            system.extend_transversal((2, 3), (1, 5))
        with pytest.raises(ValueError, match="not an edge index set"):
            system.extend_transversal((1, 3), (1, 5))

    def test_index_set_checked_before_transversal_length(self):
        system = toy_blowup()
        with pytest.raises(ValueError, match=r"^\(1, 3\) is not an edge index set"):
            system.extend_transversal([1, 3], (1,))
        with pytest.raises(ValueError, match=r"^transversal of \(2, 3\) needs 2 vertices"):
            system.extend_transversal([2, 3], (3,))

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="n >= k"):
            build_blowup(2, 3, (1, 2), 1)
        with pytest.raises(ValueError, match="contain 1"):
            build_blowup(3, 3, (2, 3), 1)

    @pytest.mark.parametrize("n,k,I", [
        (2, 3, (1, 2)),  # n < k
        (3, 2, (1,)),  # k < 3
        (4, 3, (1, 2, 3)),  # not k-1 elements
        (4, 3, (2, 1)),  # not sorted
        (4, 3, (2, 3)),  # no 1
        (4, 3, (1, 5)),  # beyond n
    ])
    def test_shape_refused_as_family_spec_refuses_it(self, n, k, I):
        with pytest.raises(ValueError) as spec_error:
            FamilySpec(k, n, I, FLAVOR_G)
        with pytest.raises(ValueError) as blowup_error:
            steiner.BlowupSystem(n, k, I, 1)
        assert str(blowup_error.value) == str(spec_error.value)


class TestPrimes:
    @pytest.mark.parametrize("n,p", [(22, 23), (7, 7), (2, 2), (14, 17), (20, 23)])
    def test_next_prime(self, n, p):
        assert next_prime_at_least(n) == p

    def test_lower_bound(self):
        with pytest.raises(ValueError):
            next_prime_at_least(1)


class TestPlane:
    def test_fano(self):
        plane = build_projective_plane(2)
        assert plane.num_points == 7
        assert len(plane.lines) == 7
        assert all(len(line) == 3 for line in plane.lines)
        validate_projective_plane(plane)

    def test_order_three(self):
        plane = build_projective_plane(3)
        assert plane.num_points == 13
        assert all(len(line) == 4 for line in plane.lines)
        validate_projective_plane(plane)

    @pytest.mark.parametrize("p", [5, 7])
    def test_axioms(self, p):
        validate_projective_plane(build_projective_plane(p))

    @pytest.mark.parametrize("bad", [4, 6, 8, 9, 1])
    def test_non_primes_rejected(self, bad):
        with pytest.raises(ValueError, match="unsupported order|prime"):
            build_projective_plane(bad)

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_matches_scan_construction(self, p):
        assert build_projective_plane(p) == scan_plane(p)

    def test_oracle_accepts_built_planes(self):
        for p in (2, 3, 5):
            assert satisfies_axioms(build_projective_plane(p))


class TestPlaneRejections:
    """Negative controls: each broken plane of order 5 must be refused."""

    plane = build_projective_plane(5)

    def reject(self, plane, match):
        assert not satisfies_axioms(plane)
        with pytest.raises(ValueError, match=match):
            validate_projective_plane(plane)

    def test_swapped_point(self):
        a, b = self.plane.lines[0], self.plane.lines[7]
        x, y = next(x for x in a if x not in b), next(y for y in b if y not in a)
        swapped = with_lines(self.plane, {
            0: sorted(set(a) - {x} | {y}),
            7: sorted(set(b) - {y} | {x}),
        })
        self.reject(swapped, "do not cover each point once")

    def test_duplicated_line(self):
        self.reject(with_lines(self.plane, {1: self.plane.lines[0]}), "do not cover")

    def test_repeated_point(self):
        line = self.plane.lines[3]
        repeated = (line[0],) + line[:-1]
        self.reject(with_lines(self.plane, {3: repeated}), "increasing points")

    def test_unsorted_line(self):
        line = self.plane.lines[3]
        self.reject(with_lines(self.plane, {3: line[::-1]}), "increasing points")

    def test_point_out_of_range(self):
        line = self.plane.lines[-1]
        self.reject(
            with_lines(self.plane, {len(self.plane.lines) - 1: line[:-1] + (32,)}),
            r"6 increasing points in \[1, 31\]",
        )

    def test_wrong_line_count(self):
        short = ProjectivePlane(5, self.plane.lines[:-1])
        self.reject(short, "30 lines, expected 31")

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from((2, 3, 5)),
        st.integers(min_value=0),
        st.integers(min_value=0),
        st.integers(min_value=0),
    )
    def test_agrees_with_axiom_oracle_on_mutations(self, p, line_seed, pos_seed, value_seed):
        plane = build_projective_plane(p)
        N = plane.num_points
        idx = line_seed % N
        line = list(plane.lines[idx])
        line[pos_seed % (p + 1)] = 1 + value_seed % (N + 1)  # may leave [1, N]
        mutated = with_lines(plane, {idx: sorted(line)})
        try:
            validate_projective_plane(mutated)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == satisfies_axioms(mutated)


class TestPartialSteiner:
    def test_complete_quadruple_witness(self):
        edges = list(itertools.combinations((1, 2, 3, 4), 3))
        assert is_partial_steiner(edges, 3, 2) == SteinerWitness(
            (1, 2, 3), (1, 2, 4), (1, 2)
        )

    def test_toy_blowup_clean(self):
        assert is_partial_steiner(toy_blowup().edges, 3, 2) is None

    def test_single_edge_clean(self):
        assert is_partial_steiner([(1, 2, 3)], 3, 2) is None

    def test_ell_bound(self):
        with pytest.raises(ValueError, match="below the uniformity k = 3, got 3"):
            is_partial_steiner([(1, 2, 3)], 3, 3)

    @pytest.mark.parametrize("ell", [3, 5])
    def test_ell_bound_without_edges(self, ell):
        # the uniformity comes from the caller, so no edge is needed to refuse
        with pytest.raises(ValueError, match=f"below the uniformity k = 3, got {ell}"):
            is_partial_steiner([], 3, ell)
        assert is_partial_steiner([], 3, 2) is None

    def test_edge_of_another_size_refused(self):
        with pytest.raises(ValueError, match="k = 3 vertices, got one of 2"):
            is_partial_steiner([(1, 2, 3), (1, 2)], 3, 1)
        with pytest.raises(ValueError, match="k = 4 vertices, got one of 3"):
            is_partial_steiner([(1, 2, 3)], 4, 2)

    def test_negative_ell_refused(self):
        with pytest.raises(ValueError, match="ell must be >= 0"):
            is_partial_steiner([(1, 2, 3)], 3, -1)
        with pytest.raises(ValueError, match="ell must be >= 0"):
            is_partial_steiner([], 3, -1)
        # ell = 0: every edge holds the empty set, so two distinct edges collide
        assert is_partial_steiner([(1, 2, 3)], 3, 0) is None
        assert is_partial_steiner([(1, 2, 3), (1, 2, 4)], 3, 0) == ((1, 2, 3), (1, 2, 4), ())

    def test_relabeling_invariance(self):
        system = toy_blowup()
        rng = random.Random(3)
        ordering = _shuffled(list(range(1, system.vertex_count + 1)), rng)
        shuffled = ordering_as_hypergraph(system, ordering)
        assert is_partial_steiner(shuffled.edges, 3, 2) is None

    def test_copies_of_an_edge_do_not_collide(self):
        edges = [(1, 2, 3), (4, 5, 6), (1, 2, 3), (1, 2, 3)]
        assert is_partial_steiner(edges, 3, 2) is None
        assert partial_steiner_oracle(edges, 3, 2) is None

    def test_least_of_several_collisions(self):
        edges = [(3, 4, 5), (2, 4, 5), (1, 2, 6), (1, 2, 7), (1, 3, 4), (1, 2, 6)]
        assert is_partial_steiner(edges, 3, 2) == partial_steiner_oracle(edges, 3, 2) == (
            SteinerWitness((1, 2, 6), (1, 2, 7), (1, 2))
        )

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_oracle_seeded(self, seed):
        rng = random.Random(f"partial-steiner:{seed}")
        k = rng.choice((3, 4))
        low = rng.choice((1, 0, -3))  # vertices below 1 may give keys that collide
        v = rng.randint(k, 9)
        edges = [tuple(sorted(rng.sample(range(low, v + 1), k)))
                 for _ in range(rng.randint(0, 8))]
        edges += rng.choices(edges, k=rng.randint(0, 3)) if edges else []
        for ell in range(k):
            assert is_partial_steiner(edges, k, ell) == partial_steiner_oracle(edges, k, ell)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from((3, 4)).flatmap(lambda k: st.tuples(
        st.just(k),
        st.lists(st.lists(st.integers(-2, 8), min_size=k, max_size=k, unique=True)
                 .map(lambda e: tuple(sorted(e))), max_size=10),
        st.integers(0, k - 1),
    )))
    def test_matches_oracle(self, case):
        k, edges, ell = case
        edges = edges + edges[::3]  # copies of edges, which are no collision
        assert is_partial_steiner(edges, k, ell) == partial_steiner_oracle(edges, k, ell)

    @pytest.mark.parametrize("edges,ell", [
        ([(1, 2, 3), (1, 2), (2, 3, 4)], 1),  # edges of two lengths: both refuse
        ([(1, 2, 3), (1, 2, 4)], 1),
        ([(True, 2, 3), (1, 2, 4)], 1),  # True == 1 as a vertex, as in the oracle
        ([[1, 2, 3], [4, 5, 6], [1, 2, 3]], 2),  # list edges, one copied
        ([("a", "b", "c"), ("a", "b", "d")], 2),
        ([(1, 2, 3), (4, 5, 6)], 0),
    ])
    def test_other_inputs_match_oracle(self, edges, ell):
        def answer(check):
            try:
                return check(edges, 3, ell)
            except ValueError:
                return ValueError

        assert answer(is_partial_steiner) == answer(partial_steiner_oracle)


class TestAssembly:
    def test_toy_gluing(self):
        system = toy_blowup()
        p = next_prime_at_least(system.vertex_count)
        assert p == 17
        plane = build_projective_plane(p)
        glued = assemble_h(system, plane, seed=0)
        assert glued.v == p * p + p + 1 == 307
        # two lines share one point, so no cross-line edge collisions
        assert len(glued.edges) == len(plane.lines) * system.edge_count
        assert is_partial_steiner(glued.edges, 3, 2) is None

    def test_seed_changes_layout_not_validity(self):
        system = toy_blowup()
        plane = build_projective_plane(17)
        a = assemble_h(system, plane, seed=1)
        b = assemble_h(system, plane, seed=2)
        assert a.edges != b.edges
        assert assemble_h(system, plane, seed=1).edges == a.edges
        assert is_partial_steiner(b.edges, 3, 2) is None

    def test_provenance_tracks_lines(self):
        system = toy_blowup()
        plane = build_projective_plane(17)
        glued = assemble_h(system, plane, seed=0)
        lines_seen = set()
        for edge, sources in glued.provenance.items():
            for line_id, source in sources:
                lines_seen.add(line_id)
                assert tuple(sorted(source)) in set(system.iter_edges())
                assert set(edge) <= set(plane.lines[line_id])
        assert lines_seen == set(range(len(plane.lines)))

    def test_written_provenance_decodes_to_the_glued_provenance(self, tmp_path, capsys):
        from treeramsey.cli import main

        r, plane, h = (str(tmp_path / name) for name in ("r.json", "plane.json", "h.json"))
        assert main(["steiner", "blowup", "--n", "3", "--k", "3", "--I", "1,2",
                     "--m", "2", "--out-file", r]) == 0
        assert main(["steiner", "plane", "--order", "17", "--out-file", plane]) == 0
        assert main(["steiner", "assemble", "--system", r, "--plane", plane,
                     "--seed", "5", "--out-file", h]) == 0
        glued = assemble_h(toy_blowup(), build_projective_plane(17), seed=5)
        with open(h, encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        assert len(doc["provenance"]) == len(doc["edges"])
        decoded = {
            tuple(e): tuple((c[0], tuple(c[1:])) for c in copies)
            for e, copies in zip(doc["edges"], doc["provenance"])
        }
        assert decoded == glued.provenance
        # a line per edge and per provenance record; the other nine are
        # the braces, k, schema, v and each list's opening and closing
        assert len(text.splitlines()) == 2 * len(glued.edges) + 9

    def test_plane_too_small(self):
        system = toy_blowup()
        with pytest.raises(ValueError, match="too small"):
            assemble_h(system, build_projective_plane(13), seed=0)


class TestAssemblyMatchesOracle:
    """assemble_h against the per-edge assembly it replaced: the same
    edges, provenance and file bytes."""

    @staticmethod
    def copies_per_edge(system, plane, seed):
        glued = assemble_h(system, plane, seed)
        edges, provenance = assemble_by_edge(system, plane, seed)
        assert glued.edges == edges
        assert glued.provenance == provenance
        assert dump_records(glued.to_json()) == dump_records(
            glued_doc_by_edge(glued.v, glued.k, edges, provenance)
        )
        return set(map(len, provenance.values()))

    @pytest.mark.parametrize("order", [2, 3, 5, 7])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_seeded_systems(self, k, order):
        # random edge sets on up to p vertices, unsorted; below k
        # vertices (k = 4 at orders 2 and 3) the system has no edges
        rng = random.Random(f"assembly-oracle:{k}:{order}")
        plane = build_projective_plane(order)
        copies = set()
        for seed in range(5):
            v = rng.randint(min(k, order), order)
            subsets = list(itertools.combinations(range(1, v + 1), k))
            edges = rng.sample(subsets, rng.randint(min(1, len(subsets)), len(subsets)))
            copies |= self.copies_per_edge(SteinerSystem(v, k, tuple(edges)), plane, seed)
        # at k = 1 the images of several lines meet, and their copies are merged
        assert max(copies) > 1 if k == 1 else copies == ({1} if k <= order else set())

    @pytest.mark.parametrize("system,order", [
        (build_blowup(3, 3, (1, 2), m=1), 5),
        (build_blowup(4, 4, (1, 2, 3), m=1), 7),
        (build_blowup(4, 3, (1, 2), m=1), 11),
        (toy_blowup(), 17),
    ], ids=["n3k3m1", "n4k4m1", "n4k3m1", "n3k3m2"])
    def test_blowups(self, system, order):
        for seed in (0, 1, 99):
            assert self.copies_per_edge(system, build_projective_plane(order), seed) == {1}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_systems(self, data):
        order = data.draw(st.sampled_from([2, 3, 5, 7]))
        k = data.draw(st.integers(1, min(4, order)))
        v = data.draw(st.integers(k, order))
        edge = st.sets(st.integers(1, v), min_size=k, max_size=k)
        edges = data.draw(st.lists(edge.map(sorted).map(tuple), unique=True, max_size=12))
        seed = data.draw(st.integers(0, 2**32))
        plane = build_projective_plane(order)
        self.copies_per_edge(SteinerSystem(v, k, tuple(edges)), plane, seed)


class TestReadSystem:
    @staticmethod
    def write(path, obj):
        from treeramsey.reporting import dump_json

        path.write_text(dump_json(obj))
        return path

    def test_blowup_file_reads_as_its_blowup(self, tmp_path):
        system = toy_blowup()
        path = self.write(tmp_path / "r.json", system.to_json())
        assert read_system(path) == system

    def test_blowup_edges_are_generated_once(self, tmp_path, monkeypatch):
        path = self.write(tmp_path / "r.json", toy_blowup().to_json())
        calls = []
        iter_edges = steiner.BlowupSystem.iter_edges

        def counted(system):
            calls.append(system)
            return iter_edges(system)

        monkeypatch.setattr(steiner.BlowupSystem, "iter_edges", counted)
        edges = read_system(path).edges
        assert len(calls) == 1
        assert edges == tuple(iter_edges(toy_blowup()))

    def test_file_without_params_reads_as_steiner_system(self, tmp_path):
        glued = assemble_h(toy_blowup(), build_projective_plane(17), seed=3)
        path = self.write(tmp_path / "h.json", glued.to_json())
        again = read_system(path)
        assert isinstance(again, SteinerSystem)
        assert (again.vertex_count, again.k, again.edges) == (307, 3, glued.edges)

    @pytest.mark.parametrize("k", [0, -1])
    def test_uniformity_below_one_is_refused(self, tmp_path, k):
        path = self.write(tmp_path / "k.json",
                          {"schema": SYSTEM_SCHEMA, "v": 3, "k": k, "edges": []})
        with pytest.raises(ValueError, match=f"k = {k}"):
            read_system(path)

    def test_one_uniform_file_reads(self, tmp_path):
        path = self.write(tmp_path / "k1.json",
                          {"schema": SYSTEM_SCHEMA, "v": 2, "k": 1, "edges": [[2], [1]]})
        assert read_system(path) == SteinerSystem(2, 1, ((1,), (2,)))

    def test_sizes_compared_before_the_blowup_is_built(self, tmp_path, monkeypatch):
        # n = 10**6 names a blow-up with about 5 * 10**11 connector sets;
        # the file is refused from the counts, without enumerating them
        def no_enumeration(n, k):
            raise AssertionError("connector sets enumerated")

        monkeypatch.setattr(steiner, "connector_sets", no_enumeration)
        path = self.write(
            tmp_path / "huge.json",
            {"schema": SYSTEM_SCHEMA, "v": 3, "k": 3, "edges": [[1, 2, 3]],
             "params": {"n": 10**6, "k": 3, "I": [1, 2], "m": 1}},
        )
        with pytest.raises(ValueError, match="params"):
            read_system(path)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bulk_edge_check_matches_edge_by_edge(self, data):
        k = data.draw(st.integers(0, 4))
        v = data.draw(st.integers(max(k, 1), 7))
        edges = data.draw(st.lists(
            st.lists(st.integers(1, v), min_size=k, max_size=k, unique=True), max_size=6,
        ))
        vertex = st.integers(-1, v + 1) | st.booleans() | st.just(1.0) | st.just("1")
        bad = data.draw(st.none() | st.integers(0, 3) | st.lists(vertex, max_size=5))
        if bad is not None:
            edges.insert(data.draw(st.integers(0, len(edges))), bad)

        def good(e):
            return (type(e) is list and k >= 1 and len(e) == k and len(set(e)) == k
                    and all(type(x) is int and 1 <= x <= v for x in e))

        rows = tuple(tuple(sorted(e)) for e in edges) if all(map(good, edges)) else None
        expected = rows if rows is not None and len(set(rows)) == len(rows) else None
        try:
            assert edge_tuples(edges, k, v) == expected
        except ValueError:
            assert expected is None


class TestOrderingExperiment:
    def test_rejects_zero_trials(self):
        spec = FamilySpec(3, 3, (1, 2), FLAVOR_G)
        with pytest.raises(ValueError, match="at least one trial"):
            sample_ordering_and_search(toy_blowup(), spec, 0, 0)

    def test_spec_mismatch(self):
        spec = FamilySpec(3, 4, (1, 2), FLAVOR_G)
        with pytest.raises(ValueError, match="class count"):
            sample_ordering_and_search(toy_blowup(), spec, 1, 0)
        spec4 = FamilySpec(4, 4, (1, 2, 3), FLAVOR_G)
        with pytest.raises(ValueError, match="uniformity"):
            sample_ordering_and_search(toy_blowup(), spec4, 1, 0)

    def test_flavor_checked(self):
        with pytest.raises(ValueError, match="flavor G or revG"):
            sample_ordering_and_search(
                toy_blowup(), FamilySpec(3, 3, (1, 2), "F"), 1, 0
            )

    def test_toy_run_reproducible(self):
        spec = FamilySpec(3, 3, (1, 2), FLAVOR_G)
        a = sample_ordering_and_search(toy_blowup(), spec, 12, seed=5)
        b = sample_ordering_and_search(toy_blowup(), spec, 12, seed=5)
        assert a.found == b.found
        assert a.failures == b.failures
        for flavor in ("G", "revG"):
            assert 0.0 <= a.found_fraction(flavor) <= 1.0

    def test_worker_count_does_not_change_report(self):
        spec = FamilySpec(3, 3, (1, 2), FLAVOR_G)
        seq = sample_ordering_and_search(toy_blowup(), spec, 12, seed=5, workers=1)
        par = sample_ordering_and_search(toy_blowup(), spec, 12, seed=5, workers=3)
        assert seq.found == par.found
        assert seq.failures == par.failures

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers):
        spec = FamilySpec(3, 3, (1, 2), FLAVOR_G)
        with pytest.raises(ValueError, match="at least one worker"):
            sample_ordering_and_search(toy_blowup(), spec, 2, 0, workers=workers)

    @pytest.mark.parametrize(
        "workers, trials, pool", [(100_000, 3, 3), (2, 5, 2), (3, 3, 3), (5, 1, None)]
    )
    def test_pool_never_exceeds_trials(self, monkeypatch, workers, trials, pool):
        # The pool is replaced by an in-process stand-in that records its
        # size, so no large worker count ever starts a process.
        import concurrent.futures

        asked = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        spec = FamilySpec(3, 3, (1, 2), FLAVOR_G)
        report = sample_ordering_and_search(toy_blowup(), spec, trials, 5, workers=workers)
        assert asked == ([] if pool is None else [pool])
        sequential = sample_ordering_and_search(toy_blowup(), spec, trials, 5)
        assert (report.found, report.failures) == (sequential.found, sequential.failures)

    def test_failures_replay(self):
        from treeramsey import canonical_member, find_ordered_copy

        spec = FamilySpec(3, 3, (1, 2), FLAVOR_G)
        report = sample_ordering_and_search(toy_blowup(), spec, 30, seed=5)
        for failure in report.failures:
            host = ordering_as_hypergraph(toy_blowup(), failure["ordering"])
            target = canonical_member(spec.with_flavor(failure["flavor"]))
            assert find_ordered_copy(host, target) is None
