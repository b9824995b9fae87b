"""Exit-code contract, stderr JSON errors, and manifest reproducibility."""

import contextlib
import gc
import hashlib
import io
import json
import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treeramsey import cli, export_coloring, write_coloring
from treeramsey.cli import main

from conftest import (
    all_zero_coloring,
    c4_coloring,
    int_max_str_digits,
    pentagon_coloring,
)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.coloring"
    write_coloring(c4_coloring(), path)
    return str(path)


@pytest.fixture
def tower_file(tmp_path, c4_file):
    from treeramsey.reporting import dump_json

    path = tmp_path / "tower.json"
    path.write_text(dump_json({"schema": "treeramsey/tower/1", "base": c4_file, "target_k": 3}))
    return str(path)


@pytest.fixture
def allzero_file(tmp_path):
    path = tmp_path / "allzero.coloring"
    write_coloring(all_zero_coloring(5), path)
    return str(path)


def run(argv):
    return main(argv)



class TestCollectorPause:
    """`main` pauses the cyclic collector while a command's handler runs
    and gives the caller its collector state back on every exit path."""

    @pytest.fixture(autouse=True)
    def collector_state(self):
        was_enabled = gc.isenabled()
        gc.enable()
        yield
        (gc.enable if was_enabled else gc.disable)()

    @staticmethod
    def steiner_check(tmp_path, edges):
        from treeramsey.reporting import dump_json
        from treeramsey.steiner import SYSTEM_SCHEMA

        path = tmp_path / "system.json"
        path.write_text(dump_json({"schema": SYSTEM_SCHEMA, "v": 4, "k": 3, "edges": edges}))
        return ["steiner", "check", "--file", str(path), "--ell", "2"]

    def test_handler_runs_paused(self, tmp_path, monkeypatch, capsys):
        from treeramsey import steiner

        seen = []
        assemble = steiner.assemble_h

        def spy(*args):
            seen.append(gc.isenabled())
            return assemble(*args)

        monkeypatch.setattr(steiner, "assemble_h", spy)
        system, plane = str(tmp_path / "r.json"), str(tmp_path / "p.json")
        assert run(["steiner", "blowup", "--n", "3", "--k", "3", "--I", "1,2",
                    "--m", "1", "--out-file", system]) == 0
        assert run(["steiner", "plane", "--order", "7", "--out-file", plane]) == 0
        assert run(["steiner", "assemble", "--system", system, "--plane", plane,
                    "--out-file", str(tmp_path / "h.json")]) == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("expected", [0, 1, 2, 3])
    def test_enabled_again_after_each_exit_code(self, tmp_path, c4_file, capsys, expected):
        argv = {
            0: lambda: ["tree", "classify", "--depth", "3", "--leaves", "1,2,3"],
            1: lambda: self.steiner_check(tmp_path, [[1, 2, 3], [1, 2, 4]]),  # a witness
            2: lambda: self.steiner_check(tmp_path, [[1, 2, 9]]),  # vertex out of range
            3: lambda: ["stepup", "verify", "--base", c4_file, "--k", "3", "--n", "4",
                        "--I", "1,2", "--max-nodes", "5"],
        }[expected]()
        assert run(argv) == expected
        assert gc.isenabled()

    def test_enabled_again_after_an_escaping_exception(self, tmp_path, monkeypatch, capsys):
        from treeramsey import steiner

        def fail(path):
            raise RuntimeError("not an input error")

        monkeypatch.setattr(steiner, "read_system", fail)
        with pytest.raises(RuntimeError, match="not an input error"):
            run(self.steiner_check(tmp_path, [[1, 2, 3]]))
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self, capsys):
        gc.disable()
        assert run(["tree", "classify", "--depth", "3", "--leaves", "1,2,3"]) == 0
        assert not gc.isenabled()

class TestExitCodes:
    def test_clean_run_is_zero(self, c4_file, tmp_path, capsys):
        code = run(
            ["stepup", "verify", "--base", c4_file, "--k", "3", "--n", "4",
             "--I", "1,2", "--out", str(tmp_path / "run")]
        )
        assert code == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["status"] == "clean"

    def test_witness_is_one(self, allzero_file, capsys):
        code = run(["color", "verify-clique", "--file", allzero_file, "--t", "3"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["witness"]["clique"] == [1, 2, 3]

    def test_usage_error_is_two_with_json_stderr(self, tmp_path, capsys):
        member = ["--k", "3", "--n", "4", "--I", "1,2", "--flavor", "Fstar"]
        for argv in (
            ["stepup", "verify", "--n", "4"],  # missing --I
            # Fstar is a containment predicate, not a member flavor
            ["family", "gen", *member, "--out-file", str(tmp_path / "m.json")],
            ["family", "check", "--file", str(tmp_path / "m.json"), *member],
        ):
            code = run(argv)
            assert code == 2
            doc = json.loads(capsys.readouterr().err)
            assert doc["error"]
            if "Fstar" in argv:
                assert "'F', 'revF', 'G', 'revG'" in doc["error"]

    def test_input_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.coloring"
        bad.write_text("nonsense\n")
        code = run(["color", "verify-clique", "--file", str(bad), "--t", "3"])
        assert code == 2
        assert "error" in json.loads(capsys.readouterr().err)

    def test_budget_is_three(self, c4_file, capsys):
        code = run(
            ["stepup", "verify", "--base", c4_file, "--k", "3", "--n", "4",
             "--I", "1,2", "--max-nodes", "5"]
        )
        assert code == 3

    def test_zero_node_budget_is_three(self, tmp_path, capsys):
        # a zero budget still bounds the search; unbounded, this base
        # yields a witness and exits 1
        path = tmp_path / "z.coloring"
        write_coloring(all_zero_coloring(4), path)
        out = tmp_path / "run"
        code = run(
            ["stepup", "verify", "--base", str(path), "--k", "3", "--n", "4",
             "--I", "1,2", "--max-nodes", "0", "--out", str(out)]
        )
        assert code == 3
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "indeterminate"

    def test_zero_seconds_budget_is_three(self, c4_file, tmp_path, capsys):
        # unbounded, each slot is clean after a few dozen letters, so
        # only a clock read on the first node can stop the search
        out = tmp_path / "run"
        code = run(
            ["stepup", "verify", "--base", c4_file, "--k", "3", "--n", "4",
             "--I", "1,2", "--max-seconds", "0", "--out", str(out)]
        )
        assert code == 3
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "indeterminate"

    @pytest.mark.parametrize("option,value", [
        ("--max-seconds", "nan"), ("--max-seconds", "inf"), ("--max-seconds", "-1"),
        ("--max-nodes", "-5"),
    ])
    def test_bad_budget_is_refused(self, c4_file, tmp_path, capsys, option, value):
        out = tmp_path / "run"
        code = run(
            ["stepup", "verify", "--base", c4_file, "--k", "3", "--n", "4",
             "--I", "1,2", option, value, "--out", str(out)]
        )
        assert code == 2
        assert option in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()

    def test_negative_build_base_budget_is_refused(self, tmp_path, capsys):
        out_file = tmp_path / "none.coloring"
        argv = ["color", "build-base", "--ground", "5", "--clique", "3", "--out-file", str(out_file)]
        assert run(argv + ["--budget", "-3"]) == 2
        assert "--budget" in json.loads(capsys.readouterr().err)["error"]
        # a zero budget runs no attempt: not found
        assert run(argv + ["--budget", "0"]) == 1
        assert not out_file.exists()

    def test_repeated_leaves_are_refused(self, capsys):
        assert run(["tree", "classify", "--depth", "3", "--leaves", "1,1,2,3"]) == 2
        assert "--leaves" in json.loads(capsys.readouterr().err)["error"]
        # distinct leaves in any order stay legal
        assert run(["tree", "classify", "--depth", "3", "--leaves", "3,1,2"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["leaves"] == [1, 2, 3]

    def test_negative_ell_is_refused(self, tmp_path, capsys):
        system = tmp_path / "r.json"
        assert run(["steiner", "blowup", "--n", "3", "--k", "3", "--I", "1,2",
                    "--m", "1", "--out-file", str(system)]) == 0
        capsys.readouterr()
        assert run(["steiner", "check", "--file", str(system), "--ell", "-1"]) == 2
        assert "ell" in json.loads(capsys.readouterr().err)["error"]

    def test_mono_witness_run(self, tmp_path, capsys):
        path = tmp_path / "z.coloring"
        write_coloring(all_zero_coloring(4), path)
        out = tmp_path / "run"
        code = run(
            ["stepup", "verify", "--base", str(path), "--k", "3", "--n", "4",
             "--I", "1,2", "--out", str(out)]
        )
        assert code == 1
        witness = json.loads((out / "witnesses" / "slot_F_0.json").read_text())
        assert witness["distinguished"] == [1, 2, 3, 5, 9]


class TestFrontier:
    def test_c4_k4_tower_completes(self, c4_file, tmp_path, capsys):
        # 2**16 leaves, no budget: every slot is decided in level space
        # and each witness passes the re-check before it is reported.
        out = tmp_path / "run"
        code = run(
            ["stepup", "verify", "--base", c4_file, "--k", "4", "--n", "4",
             "--I", "1,2,3", "--out", str(out)]
        )
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["ground_size"] == 1 << 16
        chains = {
            (s["flavor"], s["color"]): tuple(s["witness"]["distinguished"])
            for s in report["slots"]
            if s["status"] == "witness"
        }
        assert chains == {
            ("F", 0): (1, 2, 3, 5, 6),
            ("F", 1): (1, 3, 4, 5, 257),
            ("revF", 2): (65536, 65534, 65533, 65532, 65280),
            ("revF", 3): (65536, 65535, 65534, 65532, 65520),
        }

    def test_pentagon_k4_tower_completes(self, tmp_path, capsys):
        # 2**32 leaves, none of them held: every slot ends in a witness
        # after a few dozen letters.
        base = tmp_path / "pentagon.coloring"
        write_coloring(pentagon_coloring(), base)
        out = tmp_path / "run"
        code = run(
            ["stepup", "verify", "--base", str(base), "--k", "4", "--n", "4",
             "--I", "1,2,3", "--out", str(out)]
        )
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["ground_size"] == 1 << 32
        assert [s["status"] for s in report["slots"]] == ["witness"] * 4
        assert len(list((out / "witnesses").iterdir())) == 4

    def test_c4_k5_tower_completes(self, c4_file, tmp_path, capsys):
        # 2**65536 leaves, whose decimals need the digit limit lifted.
        # The two slow slots reject almost every letter of [1..65536] at
        # one position, one profile color each.
        out = tmp_path / "run"
        with int_max_str_digits(0):
            code = run(
                ["stepup", "verify", "--base", c4_file, "--k", "5", "--n", "5",
                 "--I", "1,2,3,4", "--out", str(out)]
            )
            report = json.loads((out / "report.json").read_text())
        assert code == 1
        assert [s["status"] for s in report["slots"]] == ["witness"] * 4
        assert len(list((out / "witnesses").iterdir())) == 4
        counters = [s["counters"] for s in report["slots"]]
        assert [c["nodes"] for c in counters] == [65_540, 7, 7, 65_558]
        assert [c["chi_evals"] for c in counters] == [65_536, 4, 4, 65_554]

    def test_mc_run_on_k4_glued_completes(self, tmp_path, capsys):
        # The glued (4,4,2) system at p = 29: 871 vertices, 13,936 edges.
        # Embedding the G members by scanning every host position does
        # not finish a trial in minutes; drawing each edge's last vertex
        # from the host's incidence lists, a trial takes well under a
        # second.
        from treeramsey import FamilySpec, canonical_member, find_ordered_copy
        from treeramsey.steiner import _run_ordering_trial, ordering_as_hypergraph, read_system

        system, plane, glued = (tmp_path / f for f in ("r.json", "plane.json", "h.json"))
        assert run(["steiner", "blowup", "--n", "4", "--k", "4", "--I", "1,2,3",
                    "--m", "2", "--out-file", str(system)]) == 0
        assert run(["steiner", "plane", "--order", "29", "--out-file", str(plane)]) == 0
        assert run(["steiner", "assemble", "--system", str(system), "--plane", str(plane),
                    "--out-file", str(glued)]) == 0
        out = tmp_path / "mc"
        code = run(["mc", "run", "--system", str(glued), "--k", "4", "--n", "4",
                    "--I", "1,2,3", "--trials", "2", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["found_fraction"] == {"G": 1.0, "revG": 1.0}
        assert report["failures"] == []

        host_system = read_system(glued)
        spec = FamilySpec(4, 4, (1, 2, 3), "G")
        targets = {fl: canonical_member(spec.with_flavor(fl)) for fl in ("G", "revG")}
        for t in range(2):
            _, hits, ordering, _ = _run_ordering_trial((host_system, targets, 0, t))
            assert hits == {"G": True, "revG": True}
            host = ordering_as_hypergraph(host_system, ordering)
            edges = host.edge_set
            for target in targets.values():
                image = find_ordered_copy(host, target)
                assert len(image) == target.v
                assert all(a < b for a, b in zip(image, image[1:]))
                assert 1 <= image[0] and image[-1] <= host.v
                for e in target.edges:
                    assert tuple(sorted(image[p - 1] for p in e)) in edges

    def test_tower_past_python_ints_exits_two(self, c4_file, capsys):
        # With no digit limit the k=6 tower over C4 is built, but its
        # 2**(2**65536) leaves cannot be held as Python integers.
        with int_max_str_digits(0):
            code = run(
                ["stepup", "verify", "--base", c4_file, "--k", "6", "--n", "6",
                 "--I", "1,2,3,4,5"]
            )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]

    def test_cap_flag_is_gone(self, c4_file, capsys):
        code = run(
            ["stepup", "verify", "--base", c4_file, "--k", "3", "--n", "4",
             "--I", "1,2", "--cap", "1048576"]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]

    def test_workers_flag_is_gone(self, c4_file, capsys):
        code = run(
            ["stepup", "verify", "--base", c4_file, "--k", "3", "--n", "4",
             "--I", "1,2", "--workers", "2"]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]


class TestCommands:
    def test_bound_tower_value(self, capsys):
        assert run(["bound", "tower", "--i", "2", "--x", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["value"] == "16"

    def test_bound_tower_symbolic(self, capsys):
        assert run(["bound", "tower", "--i", "5", "--x", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["value"] == "t_5(2)"

    def test_bound_tower_past_the_digit_limit(self, capsys):
        # t_4(2) = 2**65536 has 19,729 decimal digits: symbolic at the
        # default limit of 4,300, exact once the limit is lifted.
        assert run(["bound", "tower", "--i", "4", "--x", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["value"] == "t_4(2)"
        with int_max_str_digits(0):
            assert run(["bound", "tower", "--i", "4", "--x", "2"]) == 0
            value = json.loads(capsys.readouterr().out)["report"]["value"]
            assert value == str(1 << 65536)

    def test_tree_classify(self, capsys):
        assert run(["tree", "classify", "--depth", "3", "--leaves", "1,3,4,8"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["shape"] == "split"
        assert (report["left_count"], report["right_count"]) == (3, 1)

    def test_build_base_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "found.coloring"
        assert run(
            ["color", "build-base", "--ground", "5", "--clique", "3",
             "--seed", "7", "--budget", "5000", "--out-file", str(out_file)]
        ) == 0
        capsys.readouterr()
        assert run(["color", "verify-clique", "--file", str(out_file), "--t", "3"]) == 0

    def test_build_base_not_found(self, tmp_path, capsys):
        assert run(
            ["color", "build-base", "--ground", "6", "--clique", "3",
             "--seed", "0", "--budget", "50",
             "--out-file", str(tmp_path / "none.coloring")]
        ) == 1

    def test_color_export_canonicalizes(self, tmp_path, capsys):
        scrambled = tmp_path / "scrambled.coloring"
        scrambled.write_text("coloring 2 3 binary\n3 2 0\n2 1 1\n3 1 0\n")
        out = tmp_path / "canonical.coloring"
        assert run(["color", "export", "--file", str(scrambled), "--out-file", str(out)]) == 0
        assert out.read_text() == "coloring 2 3 binary\n1 2 1\n1 3 0\n2 3 0\n"

    def test_family_gen_and_check(self, tmp_path, capsys):
        member = tmp_path / "member.json"
        common = ["--k", "3", "--n", "4", "--I", "1,2", "--flavor", "G"]
        assert run(["family", "gen", *common, "--out-file", str(member)]) == 0
        capsys.readouterr()
        assert run(["family", "check", "--file", str(member), *common]) == 0
        assert run(
            ["family", "check", "--file", str(member), "--k", "3", "--n", "4",
             "--I", "1,2", "--flavor", "revG"]
        ) == 1

    # every G member is an F member, its anchor labelled xI alone
    @pytest.mark.parametrize("made,checked", [("G", "F"), ("revG", "revF")])
    def test_g_member_checked_under_f(self, tmp_path, capsys, made, checked):
        member = tmp_path / "member.json"
        shape = ["--k", "3", "--n", "4", "--I", "1,2"]
        assert run(["family", "gen", *shape, "--flavor", made, "--out-file", str(member)]) == 0
        capsys.readouterr()
        assert run(["family", "check", "--file", str(member), *shape, "--flavor", checked]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["member"] is True

    @pytest.mark.parametrize("flavor", ["F", "G"])
    def test_x0_and_xi_on_different_vertices(self, tmp_path, capsys, flavor):
        from treeramsey import FamilySpec, canonical_member

        obj = canonical_member(FamilySpec(3, 4, (1, 2), "F")).to_json()
        assert obj["labels"]["x0"] == obj["labels"]["xI"] == 1
        obj["labels"]["xI"] = 2
        path = tmp_path / "member.json"
        path.write_text(json.dumps(obj))
        assert run(["family", "check", "--file", str(path), "--k", "3", "--n", "4",
                    "--I", "1,2", "--flavor", flavor]) == 1
        assert json.loads(capsys.readouterr().out)["report"]["member"] is False

    def test_steiner_pipeline(self, tmp_path, capsys):
        system = tmp_path / "r.json"
        plane = tmp_path / "plane.json"
        glued = tmp_path / "h.json"
        assert run(
            ["steiner", "blowup", "--n", "3", "--k", "3", "--I", "1,2",
             "--m", "2", "--out-file", str(system)]
        ) == 0
        assert run(["steiner", "plane", "--order", "17", "--out-file", str(plane)]) == 0
        assert run(
            ["steiner", "assemble", "--system", str(system), "--plane", str(plane),
             "--seed", "4", "--out-file", str(glued)]
        ) == 0
        capsys.readouterr()
        assert run(["steiner", "check", "--file", str(glued), "--ell", "2"]) == 0

    def test_data_files_go_through_dump_records(self, tmp_path, capsys, monkeypatch):
        from treeramsey import reporting

        written = []
        dump_records = reporting.dump_records

        def counted(doc):
            written.append(doc["schema"])
            return dump_records(doc)

        monkeypatch.setattr(reporting, "dump_records", counted)
        system, plane = str(tmp_path / "r.json"), str(tmp_path / "plane.json")
        for argv in (
            ["steiner", "blowup", "--n", "3", "--k", "3", "--I", "1,2", "--m", "1",
             "--out-file", system],
            ["steiner", "plane", "--order", "7", "--out-file", plane],
            ["steiner", "assemble", "--system", system, "--plane", plane,
             "--out-file", str(tmp_path / "h.json")],
            ["family", "gen", "--k", "3", "--n", "4", "--I", "1,2", "--flavor", "G",
             "--out-file", str(tmp_path / "m.json")],
        ):
            assert run(argv) == 0
        assert written == ["treeramsey/system/1", "treeramsey/plane/1",
                           "treeramsey/system/1", "treeramsey/hypergraph/1"]

    def test_steiner_check_witness(self, tmp_path, capsys):
        import itertools
        from treeramsey.reporting import dump_json
        from treeramsey.steiner import SYSTEM_SCHEMA

        bad = tmp_path / "k4.json"
        edges = [list(e) for e in itertools.combinations((1, 2, 3, 4), 3)]
        bad.write_text(dump_json({"schema": SYSTEM_SCHEMA, "v": 4, "k": 3, "edges": edges}))
        assert run(["steiner", "check", "--file", str(bad), "--ell", "2"]) == 1

    def test_mc_run(self, tmp_path, capsys):
        system = tmp_path / "r.json"
        run(["steiner", "blowup", "--n", "3", "--k", "3", "--I", "1,2",
             "--m", "2", "--out-file", str(system)])
        capsys.readouterr()
        out = tmp_path / "mc"
        code = run(
            ["mc", "run", "--system", str(system), "--k", "3", "--n", "3",
             "--I", "1,2", "--trials", "10", "--seed", "3", "--workers", "2",
             "--out", str(out)]
        )
        report = json.loads((out / "report.json").read_text())
        assert set(report["found_fraction"]) == {"G", "revG"}
        assert code in (0, 1)
        assert (code == 0) == (not report["failures"])
        assert "trial_ms" not in report
        metrics = json.loads((out / "manifest.json").read_text())["metrics"]
        # the whole trial, its set-up (the relabelling) and its search
        assert set(metrics) == {"trial_ms", "trial_setup_ms", "trial_search_ms"}
        for part in metrics.values():
            assert 0 <= part["p50"] <= part["p95"] <= part["max"]
        assert metrics["trial_ms"]["max"] <= (
            metrics["trial_setup_ms"]["max"] + metrics["trial_search_ms"]["max"]
        )

    def test_mc_run_flavors_write_the_same_report(self, tmp_path, capsys):
        system = tmp_path / "r.json"
        run(["steiner", "blowup", "--n", "3", "--k", "3", "--I", "1,2",
             "--m", "2", "--out-file", str(system)])
        reports = {}
        for flavor in ("G", "revG"):
            out = tmp_path / flavor
            run(["mc", "run", "--system", str(system), "--k", "3", "--n", "3", "--I", "1,2",
                 "--flavor", flavor, "--trials", "6", "--seed", "5", "--out", str(out)])
            reports[flavor] = (out / "report.json").read_bytes()
        assert reports["G"] == reports["revG"]
        assert run(["mc", "run", "--help"]) == 0
        assert "both write the same report" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_mc_run_without_workers_exits_two(self, tmp_path, capsys, workers):
        system = tmp_path / "r.json"
        run(["steiner", "blowup", "--n", "3", "--k", "3", "--I", "1,2",
             "--m", "2", "--out-file", str(system)])
        capsys.readouterr()
        out = tmp_path / "mc"
        code = run(["mc", "run", "--system", str(system), "--k", "3", "--n", "3",
                    "--I", "1,2", "--trials", "2", "--workers", workers, "--out", str(out)])
        assert code == 2
        assert "worker" in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()

    def test_old_layout_glued_file(self, tmp_path, capsys):
        # indent-2 files with per-edge {edge, copies} provenance, as
        # written before provenance became int records, read the same
        from treeramsey import assemble_h, build_blowup, build_projective_plane
        from treeramsey.reporting import dump_json, dump_records

        glued = assemble_h(build_blowup(3, 3, (1, 2), m=1), build_projective_plane(5), 2)
        old = glued.to_json()
        old["provenance"] = [
            {"edge": list(e),
             "copies": [{"line": line, "source": list(src)} for line, src in copies]}
            for e, copies in sorted(glued.provenance.items())
        ]
        reports = []
        for name, text in (("old", dump_json(old)), ("new", dump_records(glued.to_json()))):
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            assert run(["steiner", "check", "--file", str(path), "--ell", "2",
                        "--out", str(tmp_path / name / "check")]) == 0
            code = run(["mc", "run", "--system", str(path), "--k", "3", "--n", "3",
                        "--I", "1,2", "--trials", "3", "--seed", "1",
                        "--out", str(tmp_path / name / "mc")])
            assert code in (0, 1)
            reports.append([(tmp_path / name / cmd / "report.json").read_bytes()
                            for cmd in ("check", "mc")])
        assert reports[0] == reports[1]

    def test_tower_descriptor(self, tmp_path, capsys, c4_file):
        from treeramsey.reporting import dump_json

        descriptor = tmp_path / "tower.json"
        descriptor.write_text(
            dump_json(
                {"schema": "treeramsey/tower/1", "base": c4_file, "target_k": 3}
            )
        )
        assert run(
            ["stepup", "verify", "--tower", str(descriptor), "--n", "4", "--I", "1,2"]
        ) == 0

    @pytest.mark.parametrize(
        "extra", [["--base", "c4"], ["--base", "nonexistent", "--k", "5"]],
        ids=["c4-base", "missing-base-and-k"],
    )
    def test_tower_with_base_exits_two(self, tower_file, c4_file, capsys, extra):
        extra = [c4_file if arg == "c4" else arg for arg in extra]
        code = run(["stepup", "verify", "--tower", tower_file, "--n", "4", "--I", "1,2", *extra])
        assert code == 2
        assert "--base" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("k", ["3", "4"])
    def test_tower_with_k_exits_two(self, tower_file, capsys, k):
        # even a --k equal to the descriptor's target_k is refused
        code = run(["stepup", "verify", "--tower", tower_file, "--n", "4", "--I", "1,2",
                    "--k", k])
        assert code == 2
        assert "--k" in json.loads(capsys.readouterr().err)["error"]

    def test_tower_descriptor_inline_base(self, tmp_path, capsys):
        from treeramsey.reporting import dump_json

        inline = export_coloring(c4_coloring())
        descriptor = tmp_path / "tower.json"
        descriptor.write_text(
            dump_json({"schema": "treeramsey/tower/1", "base": inline, "target_k": 3})
        )
        assert run(
            ["stepup", "verify", "--tower", str(descriptor), "--n", "4", "--I", "1,2"]
        ) == 0

    @pytest.mark.parametrize(
        "field,value",
        [("target_k", "x"), ("target_k", 3.5), ("target_k", None), ("target_k", [4]),
         # cap is no longer a descriptor field: any value is refused as unknown
         ("cap", "big"), ("cap", 0), ("base", 5)],
        ids=["string-target", "float-target", "null-target", "list-target",
             "string-cap", "zero-cap", "number-base"],
    )
    def test_bad_tower_descriptor(self, tmp_path, capsys, c4_file, field, value):
        from treeramsey.reporting import dump_json

        obj = {"schema": "treeramsey/tower/1", "base": c4_file, "target_k": 3}
        obj[field] = value
        descriptor = tmp_path / "tower.json"
        descriptor.write_text(dump_json(obj))
        code = run(
            ["stepup", "verify", "--tower", str(descriptor), "--n", "4", "--I", "1,2"]
        )
        assert code == 2
        assert field in json.loads(capsys.readouterr().err)["error"]

    def test_color_import_summary(self, c4_file, capsys):
        assert run(["color", "import", "--file", c4_file]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert (report["uniformity"], report["ground"], report["palette"]) == (2, 4, "binary")

    def test_blowup_size_guard(self, tmp_path, capsys):
        # default class size 3**6 would materialize over a million edges
        code = run(
            ["steiner", "blowup", "--n", "3", "--k", "3", "--I", "1,2",
             "--out-file", str(tmp_path / "big.json")]
        )
        assert code == 2
        assert "max-edges" in json.loads(capsys.readouterr().err)["error"]

    def test_tree_classify_comb(self, capsys):
        assert run(["tree", "classify", "--depth", "4", "--leaves", "1,2,4,8"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["shape"] == "left_comb"
        assert report["projection"] == [2, 3, 4]


class TestMalformedSteinerFiles:
    """Broken plane and system files exit 2 with a JSON error."""

    @staticmethod
    def write(path, obj):
        from treeramsey.reporting import dump_json

        path.write_text(dump_json(obj))
        return str(path)

    def assemble(self, tmp_path, plane_obj):
        from treeramsey.steiner import SYSTEM_SCHEMA

        system = self.write(
            tmp_path / "s.json",
            {"schema": SYSTEM_SCHEMA, "v": 3, "k": 3, "edges": [[1, 2, 3]]},
        )
        plane = self.write(tmp_path / "plane.json", plane_obj)
        return run(
            ["steiner", "assemble", "--system", system, "--plane", plane,
             "--out-file", str(tmp_path / "h.json")]
        )

    def test_plane_with_swapped_point(self, tmp_path, capsys):
        from treeramsey import build_projective_plane

        obj = build_projective_plane(5).to_json()
        a, b = obj["lines"][0], obj["lines"][7]
        x = next(x for x in a if x not in b)
        y = next(y for y in b if y not in a)
        obj["lines"][0] = sorted(set(a) - {x} | {y})
        obj["lines"][7] = sorted(set(b) - {y} | {x})
        assert self.assemble(tmp_path, obj) == 2
        assert "cover" in json.loads(capsys.readouterr().err)["error"]

    def test_plane_lines_not_a_list(self, tmp_path, capsys):
        from treeramsey import build_projective_plane

        obj = build_projective_plane(5).to_json()
        obj["lines"] = 5
        assert self.assemble(tmp_path, obj) == 2
        assert "lines" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize(
        "field,value",
        [("v", "x"), ("edges", [[1, 2, 9]]), ("edges", 5)],
        ids=["string-v", "edge-out-of-range", "edges-not-a-list"],
    )
    def test_bad_system_file(self, tmp_path, capsys, field, value):
        from treeramsey.steiner import SYSTEM_SCHEMA

        obj = {"schema": SYSTEM_SCHEMA, "v": 3, "k": 3, "edges": [[1, 2, 3]]}
        obj[field] = value
        path = self.write(tmp_path / "bad.json", obj)
        assert run(["steiner", "check", "--file", path, "--ell", "2"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]


    @pytest.mark.parametrize("ell", ["3", "5"])
    def test_ell_at_or_above_k_of_an_edgeless_file(self, tmp_path, capsys, ell):
        from treeramsey.steiner import SYSTEM_SCHEMA

        path = self.write(tmp_path / "empty.json",
                          {"schema": SYSTEM_SCHEMA, "v": 3, "k": 3, "edges": []})
        assert run(["steiner", "check", "--file", path, "--ell", "2"]) == 0
        capsys.readouterr()
        assert run(["steiner", "check", "--file", path, "--ell", ell]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert f"ell must be >= 0 and below the uniformity k = 3, got {ell}" == error

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_refused(self, tmp_path, capsys, k):
        from treeramsey.steiner import SYSTEM_SCHEMA

        path = self.write(tmp_path / "k.json",
                          {"schema": SYSTEM_SCHEMA, "v": 3, "k": k, "edges": []})
        assert run(["steiner", "check", "--file", path, "--ell", "0"]) == 2
        assert "k" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize(
        "params",
        [{"n": "x", "k": 3, "I": [1, 2], "m": 1}, 5, {"n": 3, "k": 3, "I": "12", "m": 1}],
        ids=["string-n", "params-not-an-object", "string-I"],
    )
    def test_bad_params_in_mc_run(self, tmp_path, capsys, params):
        from treeramsey.steiner import SYSTEM_SCHEMA

        obj = {"schema": SYSTEM_SCHEMA, "v": 3, "k": 3, "edges": [[1, 2, 3]],
               "params": params}
        path = self.write(tmp_path / "bad.json", obj)
        code = run(["mc", "run", "--system", path, "--k", "3", "--n", "3",
                    "--I", "1,2", "--trials", "1", "--out", str(tmp_path / "mc")])
        assert code == 2
        assert "params" in json.loads(capsys.readouterr().err)["error"]


    # records hold ints by exact type: a true or a float equal to a valid
    # int is refused like any other bad value
    @pytest.mark.parametrize("exact", [lambda x: True, float], ids=["true", "float"])
    @pytest.mark.parametrize("field", ["n", "k", "m", "I"])
    def test_params_hold_exact_ints(self, tmp_path, capsys, field, exact):
        from treeramsey import build_blowup

        doc = build_blowup(3, 3, (1, 2), m=1).to_json()
        params = doc["params"]
        params[field] = [exact(1), 2] if field == "I" else exact(params[field])
        path = self.write(tmp_path / "s.json", doc)
        assert run(["steiner", "check", "--file", path, "--ell", "2"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error.startswith("system params must hold integers n, k, m")

    @pytest.mark.parametrize("exact", [True, 1.0], ids=["true", "float"])
    def test_plane_lines_hold_exact_ints(self, tmp_path, capsys, exact):
        from treeramsey import build_projective_plane

        obj = build_projective_plane(5).to_json()
        assert obj["lines"][0][0] == 1
        obj["lines"][0][0] = exact
        assert self.assemble(tmp_path, obj) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "plane lines must be integer lists"

    @pytest.mark.parametrize("command", ["check", "assemble", "mc"])
    @pytest.mark.parametrize(
        "doc",
        [
            # params name the blow-up on 5 vertices with 2 edges
            {"v": 3, "k": 3, "edges": [[1, 2, 3]],
             "params": {"n": 3, "k": 3, "I": [1, 2], "m": 1}},
            # right sizes, but (1, 2, 3) is no edge of that blow-up
            {"v": 5, "k": 3, "edges": [[1, 2, 3], [1, 2, 5]],
             "params": {"n": 3, "k": 3, "I": [1, 2], "m": 1}},
            # n < k: the params name no blow-up at all
            {"v": 3, "k": 3, "edges": [[1, 2, 3]],
             "params": {"n": 2, "k": 3, "I": [1, 2], "m": 1}},
        ],
        ids=["other-sizes", "other-edges", "no-blowup"],
    )
    def test_params_contradicting_the_file(self, tmp_path, capsys, command, doc):
        from treeramsey import build_projective_plane
        from treeramsey.steiner import SYSTEM_SCHEMA

        path = self.write(tmp_path / "s.json", {"schema": SYSTEM_SCHEMA, **doc})
        plane = self.write(tmp_path / "plane.json", build_projective_plane(5).to_json())
        argv = {
            "check": ["steiner", "check", "--file", path, "--ell", "2"],
            "assemble": ["steiner", "assemble", "--system", path, "--plane", plane,
                         "--out-file", str(tmp_path / "h.json")],
            "mc": ["mc", "run", "--system", path, "--k", "3", "--n", "3",
                   "--I", "1,2", "--trials", "2", "--out", str(tmp_path / "mc")],
        }[command]
        assert run(argv) == 2
        assert "params" in json.loads(capsys.readouterr().err)["error"]

    # the file's third edge repeats its first; relabelling the file by an
    # ordering would name the repeat in other vertices
    @pytest.mark.parametrize("command", ["check", "assemble", "mc"])
    def test_repeated_edge_is_named_as_the_file_writes_it(self, tmp_path, capsys, command):
        from treeramsey import build_projective_plane
        from treeramsey.steiner import SYSTEM_SCHEMA

        path = self.write(tmp_path / "s.json", {"schema": SYSTEM_SCHEMA, "v": 6, "k": 3,
                                                "edges": [[1, 2, 3], [4, 5, 6], [3, 1, 2]]})
        plane = self.write(tmp_path / "plane.json", build_projective_plane(7).to_json())
        argv = {
            "check": ["steiner", "check", "--file", path, "--ell", "2"],
            "assemble": ["steiner", "assemble", "--system", path, "--plane", plane,
                         "--out-file", str(tmp_path / "h.json")],
            "mc": ["mc", "run", "--system", path, "--k", "3", "--n", "3",
                   "--I", "1,2", "--trials", "2", "--out", str(tmp_path / "mc")],
        }[command]
        assert run(argv) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == "edge [3, 1, 2] repeats an earlier edge"

    @pytest.fixture(scope="class")
    def glued_doc(self):
        from treeramsey import assemble_h, build_blowup, build_projective_plane

        return assemble_h(build_blowup(3, 3, (1, 2), 3), build_projective_plane(29), 99).to_json()

    # the glued (3,3,3) system at p = 29 ends in the edge [861, 868, 870]
    @pytest.mark.parametrize("bad,message", [
        ([861, True, 870], "edge [861, True, 870]"),
        ([861, 868.0, 870], "edge [861, 868.0, 870]"),
        ([0, 868, 870], "edge [0, 868, 870]"),
        ([861, 868, 872], "edge [861, 868, 872]"),
        ([861, 868, 868], "edge [861, 868, 868]"),
        ([861, 868], "edge [861, 868]"),
        ([861, "1", 870], "edge [861, '1', 870]"),
        (5, "edge 5"),
    ], ids=["true", "float", "zero", "v-plus-one", "repeated", "too-short", "string",
            "not-a-list"])
    def test_bad_last_edge_of_a_large_file(self, tmp_path, capsys, glued_doc, bad, message):
        from treeramsey.reporting import dump_records

        assert glued_doc["edges"][-1] == (861, 868, 870)
        path = tmp_path / "h.json"
        path.write_text(dump_records(dict(glued_doc, edges=glued_doc["edges"][:-1] + [bad])))
        assert run(["steiner", "check", "--file", str(path), "--ell", "2"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == message + " is not 3 distinct vertices in [1, 871]"


class TestMalformedHypergraphFile:
    @pytest.mark.parametrize(
        "field,value",
        [("v", "x"), ("edges", 5), ("edges", [[1, 2, "a"]]), ("edges", [[]]),
         ("labels", 5)],
        ids=["string-v", "number-edges", "string-vertex", "empty-edge", "number-labels"],
    )
    def test_family_check_exits_two(self, tmp_path, capsys, field, value):
        from treeramsey import FamilySpec, canonical_member

        obj = canonical_member(FamilySpec(3, 4, (1, 2), "G")).to_json()
        obj[field] = value
        assert self.family_check(tmp_path, obj) == 2
        assert field in json.loads(capsys.readouterr().err)["error"]

    @staticmethod
    def family_check(tmp_path, obj):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(obj))
        return run(["family", "check", "--file", str(path), "--k", "3", "--n", "4",
                    "--I", "1,2", "--flavor", "G"])

    @pytest.mark.parametrize("exact", [True, 1.0], ids=["true", "float"])
    @pytest.mark.parametrize("field,message", [
        ("edges", "hypergraph edges must be non-empty integer lists"),
        ("labels", "hypergraph labels must be integer positions"),
    ], ids=["edge", "label"])
    def test_records_hold_exact_ints(self, tmp_path, capsys, field, message, exact):
        from treeramsey import FamilySpec, canonical_member

        obj = canonical_member(FamilySpec(3, 4, (1, 2), "G")).to_json()
        assert obj["edges"][0][0] == obj["labels"]["xI"] == 1
        if field == "edges":
            obj["edges"][0][0] = exact
        else:
            obj["labels"]["xI"] = exact
        assert self.family_check(tmp_path, obj) == 2
        assert json.loads(capsys.readouterr().err)["error"] == message

    def test_edges_of_mixed_size(self, tmp_path, capsys):
        from treeramsey import FamilySpec, canonical_member

        obj = canonical_member(FamilySpec(3, 4, (1, 2), "G")).to_json()
        obj["edges"].insert(0, [1, 2])
        assert self.family_check(tmp_path, obj) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == "edge [1, 5, 6] is not 2 distinct vertices in [1, 8]"

    # the member's edges are [1, 5, 6], [2, 6, 7], [3, 6, 8], [4, 7, 8]
    @pytest.mark.parametrize("at,row,message", [
        (1, [3, 1, 1], "edge [3, 1, 1] is not 3 distinct vertices in [1, 8]"),
        (4, [2, 3, 9], "edge [2, 3, 9] is not 3 distinct vertices in [1, 8]"),
        (3, [7, 6, 2], "edge [7, 6, 2] repeats an earlier edge"),
    ], ids=["repeated-vertex", "out-of-range", "repeat"])
    def test_bad_edge_is_named_as_the_file_writes_it(self, tmp_path, capsys, at, row, message):
        from treeramsey import FamilySpec, canonical_member

        obj = canonical_member(FamilySpec(3, 4, (1, 2), "G")).to_json()
        obj["edges"].insert(at, row)
        assert self.family_check(tmp_path, obj) == 2
        assert json.loads(capsys.readouterr().err)["error"] == message

    def test_edges_in_any_order_are_read(self, tmp_path, capsys):
        from treeramsey import FamilySpec, canonical_member

        obj = canonical_member(FamilySpec(3, 4, (1, 2), "G")).to_json()
        obj["edges"] = [e[::-1] for e in obj["edges"]]
        assert self.family_check(tmp_path, obj) == 0


_JSON_VALUES = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.integers(-3, 10**6) | st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=6),
    "array": st.lists(st.integers(-2, 9) | st.text(max_size=2), max_size=4),
    "object": st.dictionaries(st.text(max_size=3), st.integers(-2, 9), max_size=3),
}


def _json_type(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


@pytest.fixture(scope="module")
def reader_cases(tmp_path_factory):
    """Valid documents per reader: (doc, optional fields, argv for a path)."""
    from treeramsey import (
        FamilySpec, assemble_h, build_blowup, build_projective_plane, canonical_member,
    )
    from treeramsey.reporting import dump_json

    d = tmp_path_factory.mktemp("readers")
    blowup = build_blowup(3, 3, (1, 2), m=1)
    plane = build_projective_plane(5)
    system_path = d / "system.json"
    system_path.write_text(dump_json(blowup.to_json()))
    c4_path = d / "c4.coloring"
    write_coloring(c4_coloring(), c4_path)
    target = str(d / "doc.json")

    def check(path):
        return ["steiner", "check", "--file", path, "--ell", "2"]

    return target, {
        "blowup": (blowup.to_json(), {"params"}, check),
        "glued": (assemble_h(blowup, plane, 0).to_json(), {"provenance"}, check),
        "hypergraph": (
            canonical_member(FamilySpec(3, 4, (1, 2), "G")).to_json(),
            {"labels"},
            lambda path: ["family", "check", "--file", path, "--k", "3", "--n", "4",
                          "--I", "1,2", "--flavor", "G"],
        ),
        "plane": (
            plane.to_json(),
            set(),
            lambda path: ["steiner", "assemble", "--system", str(system_path),
                          "--plane", path, "--out-file", str(d / "h.json")],
        ),
        "tower": (
            {"schema": "treeramsey/tower/1", "base": str(c4_path), "target_k": 3},
            set(),
            lambda path: ["stepup", "verify", "--tower", path, "--n", "4", "--I", "1,2"],
        ),
    }


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestReaderFuzz:
    """One top-level field of a valid document is dropped or given a
    value of another JSON type; the reader must refuse it with exit 2.

    Optional fields are never dropped, and never set to null, which
    reads as absent: `test_null_optional_field_reads_as_absent`."""

    def test_valid_documents_run(self, reader_cases):
        target, cases = reader_cases
        for doc, _, argv in cases.values():
            with open(target, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            assert _run_quietly(argv(target))[0] == 0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_field_exits_two(self, reader_cases, data):
        target, cases = reader_cases
        doc, optional, argv = cases[data.draw(st.sampled_from(sorted(cases)))]
        field = data.draw(st.sampled_from(sorted(doc)))
        kinds = set(_JSON_VALUES) - {_json_type(doc[field])}
        if field in optional:
            kinds.discard("null")
        else:
            kinds.add("drop")
        kind = data.draw(st.sampled_from(sorted(kinds)))
        mutated = dict(doc)
        if kind == "drop":
            del mutated[field]
        else:
            mutated[field] = data.draw(_JSON_VALUES[kind])
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(mutated, fh)
        code, err = _run_quietly(argv(target))
        assert code == 2, (field, kind, mutated.get(field))
        assert json.loads(err)["error"]

    def test_deeply_nested_field_exits_two(self, reader_cases):
        # json.load gives up on the nesting with RecursionError
        target, cases = reader_cases
        deep = "[" * 100_000 + "]" * 100_000
        for name, (doc, _, argv) in cases.items():
            field = next(f for f in sorted(doc) if f != "schema")
            text = json.dumps({**doc, field: "DEEP"}).replace('"DEEP"', deep)
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text)
            code, err = _run_quietly(argv(target))
            assert code == 2, (name, field)
            assert json.loads(err)["error"]

    def test_null_optional_field_reads_as_absent(self, reader_cases):
        target, cases = reader_cases
        for name, (doc, optional, argv) in cases.items():
            for field in optional:
                results = []
                for value in ("drop", None):
                    mutated = {f: v for f, v in doc.items() if f != field}
                    if value is None:
                        mutated[field] = None
                    with open(target, "w", encoding="utf-8") as fh:
                        json.dump(mutated, fh)
                    results.append(_run_quietly(argv(target)))
                assert results[1] == results[0], (name, field)
                if field != "labels":  # family check needs labels, so both exit 2
                    assert results[1][0] == 0, (name, field)


class TestColoringReaderFuzz:
    """One header field or one row of a valid coloring file is changed;
    the reader must refuse it with exit 2 and a JSON error, never a
    traceback or exit 1."""

    ROWS = export_coloring(c4_coloring()).splitlines()  # header + 6 rows of [4]^(2)

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("coloring") / "c.coloring"

    @staticmethod
    def verify(text, path, command="verify-clique"):
        path.write_text(text)
        argv = ["color", command, "--file", str(path)]
        return _run_quietly(argv + (["--t", "3"] if command == "verify-clique" else []))

    def test_valid_file_runs(self, path):
        assert self.verify("\n".join(self.ROWS) + "\n", path)[0] == 0

    @pytest.mark.parametrize(
        "text",
        ["coloring 0 3 binary\n0\n", "coloring 3 2 binary\n", "coloring -1 3 binary\n"],
        ids=["r-zero", "r-above-n", "r-negative"],
    )
    def test_uniformity_out_of_range(self, path, text):
        code, err = self.verify(text, path)
        assert code == 2
        assert "1 <= r <= N" in json.loads(err)["error"]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_file_exits_two(self, path, data):
        lines = [ln.split() for ln in self.ROWS]
        kind = data.draw(st.sampled_from(["header", "arity", "vertex", "color", "duplicate"]))
        row = data.draw(st.integers(1, len(lines) - 1))
        if kind == "header":
            pos = data.draw(st.integers(0, 3))
            token = data.draw(
                st.integers(-3, 10).map(str)
                | st.sampled_from(["x", "2.0", "binary", "coloring", "z4", ""])
            )
            # z4 holds the binary colors, so it is the one valid palette change
            assume(token != lines[0][pos] and not (pos == 3 and token == "z4"))
            lines[0][pos] = token
        elif kind == "arity":
            if data.draw(st.booleans()):
                del lines[row][0]
            else:
                lines[row].insert(0, str(data.draw(st.integers(1, 4))))
        elif kind == "vertex":
            pos = data.draw(st.integers(0, 1))
            value = data.draw(st.integers(-2, 7).map(str))
            assume(value != lines[row][pos])
            lines[row][pos] = value
        elif kind == "color":
            lines[row][2] = data.draw(
                st.integers(-3, 9).filter(lambda c: c not in (0, 1)).map(str)
                | st.just("x")
            )
        else:
            other = data.draw(st.integers(1, len(lines) - 1))
            assume(other != row)
            lines[row] = list(lines[other])
        text = "\n".join(" ".join(ln) for ln in lines) + "\n"
        command = data.draw(st.sampled_from(["verify-clique", "import"]))
        code, err = self.verify(text, path, command)
        assert code == 2, (kind, text)
        assert json.loads(err)["error"]


def _outputs(out_dir):
    """Every file a run wrote into out_dir but its manifest, as bytes."""
    files = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            files[os.path.relpath(path, out_dir)] = open(path, "rb").read()
    del files["manifest.json"]
    return files


def _replay_argv(manifest):
    """The command line a manifest echoes: its command, then every
    non-null param and seed as an option."""
    argv = manifest["command"].split()
    for name, value in sorted({**manifest["params"], **manifest["seeds"]}.items()):
        if value is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv += [f"--{name.replace('_', '-')}", text]
    return argv


class TestManifestReplay:
    """Re-running the command line a manifest echoes reproduces the
    run's report.json and witness files byte for byte, and its exit code."""

    @pytest.mark.parametrize(
        "case",
        ["stepup-nodes", "stepup-tower", "stepup-witness", "steiner-chain", "mc-run",
         "family-gen", "bound-tower"],
    )
    def test_replay_reproduces_report(self, case, c4_file, allzero_file, tower_file,
                                      tmp_path, capsys):
        system, plane, glued = (str(tmp_path / f) for f in ("r.json", "p.json", "h.json"))
        blowup = ["steiner", "blowup", "--n", "3", "--k", "3", "--I", "1,2", "--m", "2",
                  "--out-file", system]
        verify = ["stepup", "verify", "--n", "4", "--I", "1,2"]
        runs = {
            # unbudgeted, the C4 k=3 run is clean and exits 0
            "stepup-nodes": [verify + ["--base", c4_file, "--max-nodes", "5"]],
            "stepup-tower": [verify + ["--tower", tower_file]],
            "stepup-witness": [verify + ["--base", allzero_file, "--k", "3"]],
            "steiner-chain": [
                blowup,
                ["steiner", "plane", "--order", "17", "--out-file", plane],
                ["steiner", "assemble", "--system", system, "--plane", plane, "--seed", "4",
                 "--out-file", glued],
                ["steiner", "check", "--file", glued, "--ell", "2"],
            ],
            "mc-run": [blowup, ["mc", "run", "--system", system, "--k", "3", "--n", "3",
                                "--I", "1,2", "--trials", "4", "--seed", "3"]],
            "family-gen": [["family", "gen", "--k", "4", "--n", "5", "--I", "1,2,4",
                            "--flavor", "revG", "--out-file", str(tmp_path / "m.json")]],
            "bound-tower": [["bound", "tower", "--i", "2", "--x", "3"]],
        }[case]
        for step, argv in enumerate(runs):
            first, again = tmp_path / f"{step}-first", tmp_path / f"{step}-again"
            code = run(argv + ["--out", str(first)])
            manifest = json.loads((first / "manifest.json").read_text())
            assert run(_replay_argv(manifest) + ["--out", str(again)]) == code
            assert _outputs(again) == _outputs(first)
        assert code == {"stepup-nodes": 3, "stepup-witness": 1, "mc-run": 1}.get(case, 0)


class TestReproducibility:
    def test_report_bytes_identical(self, c4_file, tmp_path):
        args = ["stepup", "verify", "--base", c4_file, "--k", "3", "--n", "4", "--I", "1,2"]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b

    def test_mc_report_bytes_identical(self, tmp_path, capsys):
        system = tmp_path / "r.json"
        run(["steiner", "blowup", "--n", "3", "--k", "3", "--I", "1,2",
             "--m", "2", "--out-file", str(system)])
        capsys.readouterr()
        args = ["mc", "run", "--system", str(system), "--k", "3", "--n", "3",
                "--I", "1,2", "--trials", "5", "--seed", "9"]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    # sha256 of system.json, plane.json, glued.json and the check report of
    # `steiner blowup -> plane --order 29 -> assemble --seed 99 -> check`
    PINNED_CHAIN = {
        (3, 3, 3): ("9fe9be2361fffaed85eafe6026cd121827216bb6dc609518e10ef95a9beaa30c",
                    "f5f3be6e7b859ff10f87cd303336a93963a9f2fc8a1f5864e2b17d50b7a78059",
                    "f6b7591f5112f234d530e7c2f9b98f24ce99440606451cf52461cdad45a643b3",
                    "983ad63987c10162dbeaf793650fdf738de1d083ecb81a17ec9a20a57fb070d0"),
        (4, 3, 2): ("93067064fe021dbc9609043ef118dde2a353ff4c728e6d350d3645243b9ca1c3",
                    "f5f3be6e7b859ff10f87cd303336a93963a9f2fc8a1f5864e2b17d50b7a78059",
                    "7794eae4dc62fc7087445258bbff1948de0c83ad31a771a4552476d9215338a1",
                    "983ad63987c10162dbeaf793650fdf738de1d083ecb81a17ec9a20a57fb070d0"),
        (4, 4, 2): ("9dd7b673a004216e4f547389a76d32049aaaa283728624d76487d354936075f2",
                    "f5f3be6e7b859ff10f87cd303336a93963a9f2fc8a1f5864e2b17d50b7a78059",
                    "0ac391560327735f92a6656f3ccef8158dc2b0e80593b8b135b3f1cb0dd294cc",
                    "1d11dae16c6d479cbb2c056fd5390c9c8ae86ca7ca6fdb569af81dcfc83b0980"),
    }

    # sha256 of the `mc run --trials 3 --seed 11` report on that glued.json
    PINNED_MC = {
        (3, 3, 3): "50c2bbbb3ebcdc6a75662c98e9abd307b8e762b89886ae869a33defe8908c860",
        (4, 3, 2): "8e2e5684a3d38ff3d66f1c850a0c20dfca749a805569c4cfd20f95a235e31ddd",
        (4, 4, 2): "e111b6c05c5c04e3c36effdb9c61e2935ce4f07941e166966b3b3c5845f3eb2a",
    }

    @pytest.mark.parametrize("n,k,m", sorted(PINNED_CHAIN))
    def test_steiner_chain_bytes_pinned(self, tmp_path, capsys, n, k, m):
        files = [tmp_path / name for name in
                 ("system.json", "plane.json", "glued.json", "check/report.json")]
        system, plane, glued, _ = map(str, files)
        I = ",".join(map(str, range(1, k)))
        assert run(["steiner", "blowup", "--n", str(n), "--k", str(k), "--I", I,
                    "--m", str(m), "--out-file", system]) == 0
        assert run(["steiner", "plane", "--order", "29", "--out-file", plane]) == 0
        assert run(["steiner", "assemble", "--system", system, "--plane", plane,
                    "--seed", "99", "--out-file", glued]) == 0
        assert run(["steiner", "check", "--file", glued, "--ell", str(k - 1),
                    "--out", str(tmp_path / "check")]) == 0
        digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in files)
        assert digests == self.PINNED_CHAIN[n, k, m]
        if (n, k, m) in self.PINNED_MC:
            # mc run reads the glued file through the same reader
            assert run(["mc", "run", "--system", glued, "--k", str(k), "--n", str(n),
                        "--I", I, "--trials", "3", "--seed", "11",
                        "--out", str(tmp_path / "mc")]) in (0, 1)
            report = (tmp_path / "mc" / "report.json").read_bytes()
            assert hashlib.sha256(report).hexdigest() == self.PINNED_MC[n, k, m]

    @pytest.mark.parametrize("k,v,edges,order,digest,copies", [
        # at k = 1 the images of many lines meet: one edge per point,
        # each with several provenance copies
        (1, 3, [[1], [2], [3]], 3,
         "0cd132fa7d7ef765886fbc2dd661ef870d75c82d90f2e857e700451730e495d4", 4),
        (2, 4, [[1, 2], [2, 3], [3, 4], [1, 4]], 5,
         "f8e491bfefe26565a1f535487f5151ebb837af2f725ed90fc65443258b60a822", 1),
    ], ids=["k1", "k2"])
    def test_assembly_at_low_uniformity(self, tmp_path, capsys, k, v, edges, order,
                                        digest, copies):
        from treeramsey import assemble_h, build_projective_plane
        from treeramsey.steiner import SYSTEM_SCHEMA, read_system

        system, plane, glued = (str(tmp_path / name)
                                for name in ("s.json", "plane.json", "h.json"))
        with open(system, "w", encoding="utf-8") as fh:
            json.dump({"schema": SYSTEM_SCHEMA, "v": v, "k": k, "edges": edges}, fh)
        assert run(["steiner", "plane", "--order", str(order), "--out-file", plane]) == 0
        assert run(["steiner", "assemble", "--system", system, "--plane", plane,
                    "--seed", "5", "--out-file", glued]) == 0
        with open(glued, "rb") as fh:
            text = fh.read()
        assert hashlib.sha256(text).hexdigest() == digest
        expected = assemble_h(read_system(system), build_projective_plane(order), 5)
        doc = json.loads(text)
        decoded = {
            tuple(e): tuple((c[0], tuple(c[1:])) for c in sources)
            for e, sources in zip(doc["edges"], doc["provenance"])
        }
        assert decoded == expected.provenance
        assert max(map(len, expected.provenance.values())) == copies


def _held(parser):
    """The (group, command) pairs a parser from build_parser holds."""
    (groups,) = parser._subparsers._group_actions
    return {
        (group, command)
        for group, inner in groups.choices.items()
        for command in inner._subparsers._group_actions[0].choices
    }


def _captured(argv, capsys):
    """main(argv)'s exit code, stdout and stderr."""
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _full_argv(group, command):
    """argv giving every option of the command a value its type takes."""
    argv = [group, command, "--out", "d"]
    for name, kwargs in cli.COMMANDS[group, command][1].items():
        convert = kwargs.get("type")
        if "choices" in kwargs:
            value = kwargs["choices"][-1]
        elif convert is cli._int_list:
            value = "1,2"
        elif convert is not None:
            value = "2"
        else:
            value = f"{name}.json"
        argv += [f"--{name.replace('_', '-')}", value]
    return argv


class TestCommandTable:
    """main builds the parser of the command argv[:2] names, and the full
    parser otherwise; the two read every argv of that command alike."""

    @staticmethod
    def full_parser(monkeypatch):
        """Make main build the full parser whatever argv names."""
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda named=(): build())

    @pytest.fixture
    def built(self, monkeypatch):
        """The parsers main builds, in order."""
        parsers, build = [], cli.build_parser

        def spy(named=()):
            parsers.append(build(named))
            return parsers[-1]

        monkeypatch.setattr(cli, "build_parser", spy)
        return parsers

    def test_one_walk_builds_either_parser(self):
        assert _held(cli.build_parser()) == set(cli.COMMANDS)
        for key in cli.COMMANDS:
            assert _held(cli.build_parser(key)) == {key}

    @pytest.mark.parametrize("key", list(cli.COMMANDS), ids=" ".join)
    def test_help_and_usage_errors_match_the_full_parser(self, key, capsys, monkeypatch,
                                                          built):
        argvs = [[*key, "-h"], [*key], [*key, "--no-such-option"], [*key, "--out"],
                 _full_argv(*key) + ["extra"]]
        one = [_captured(argv, capsys) for argv in argvs]
        assert [_held(parser) for parser in built] == [{key}] * len(argvs)
        self.full_parser(monkeypatch)
        assert [_captured(argv, capsys) for argv in argvs] == one
        assert one[0][0] == 0 and "usage: treeramsey " + " ".join(key) in one[0][1]
        for code, out, err in one[1:]:
            assert code == 2 and not out and json.loads(err)["usage"]

    @pytest.mark.parametrize("key", list(cli.COMMANDS), ids=" ".join)
    def test_namespace_matches_the_full_parser(self, key):
        argv = _full_argv(*key)
        one = vars(cli.build_parser(key).parse_args(argv))
        assert one == vars(cli.build_parser().parse_args(argv))
        # every option is parsed, so the manifest's params echo them all
        params = {name for name in one if name not in cli._NOT_PARAMS}
        assert params == set(cli.COMMANDS[key][1]) - {"seed"}

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["stepup", "-h"], ["stepup", "frob"], ["frob", "verify"],
        ["stepup", "--out", "x", "verify"],
    ], ids=repr)
    def test_other_argvs_take_the_full_parser(self, argv, capsys, monkeypatch, built):
        seen = _captured(argv, capsys)
        assert [_held(parser) for parser in built] == [set(cli.COMMANDS)]
        self.full_parser(monkeypatch)
        assert _captured(argv, capsys) == seen
        assert seen[0] == (0 if "-h" in argv else 2)

    def test_console_script_reads_sys_argv(self, capsys, monkeypatch, built):
        argv = ["bound", "tower", "--i", "2", "--x", "3"]
        expected = _captured(argv, capsys)
        monkeypatch.setattr("sys.argv", ["treeramsey", *argv])
        code, out, err = _captured(None, capsys)
        assert [_held(parser) for parser in built] == [{("bound", "tower")}] * 2
        assert code == expected[0] == 0 and not err
        assert json.loads(out)["report"] == json.loads(expected[1])["report"]
