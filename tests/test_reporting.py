"""Tower values, manifests, and schema checking."""

import enum
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeramsey import RunManifest, tower
from treeramsey.reporting import check_schema, dump_json, dump_records, emit_run, int_rows


class TestTower:
    @pytest.mark.parametrize(
        "i,x,expected",
        [(0, 7, 7), (1, 3, 8), (2, 2, 16), (3, 2, 65536), (0, 1, 1)],
    )
    def test_exact_values(self, i, x, expected):
        assert tower(i, x) == expected

    def test_large_exact_value(self):
        # 2**65536 still fits comfortably in the bit limit
        value = tower(4, 2)
        assert isinstance(value, int) and value.bit_length() == 65537

    def test_symbolic_when_huge(self):
        assert tower(5, 2) == "t_5(2)"
        assert tower(2, 100) == "t_2(100)"
        assert tower(1, 10**7) == "t_1(10000000)"

    def test_preconditions(self):
        with pytest.raises(ValueError):
            tower(-1, 3)
        with pytest.raises(ValueError):
            tower(2, 0)


class TestSchema:
    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            check_schema({"schema": "x/1", "a": 1, "zzz": 2}, "x/1", {"a": int})

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="expected schema"):
            check_schema({"schema": "y/1"}, "x/1", {})


class TestEmission:
    def test_out_dir_layout(self, tmp_path):
        manifest = RunManifest("demo", {"a": 1}, seeds={"seed": 3})
        emit_run(manifest, {"schema": "x/1", "ok": True}, str(tmp_path),
                 witnesses={"w1": {"v": 1}})
        assert sorted(os.listdir(tmp_path)) == ["manifest.json", "report.json", "witnesses"]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report == {"schema": "x/1", "ok": True}
        mani = json.loads((tmp_path / "manifest.json").read_text())
        assert mani["command"] == "demo"
        assert mani["outputs"]["w1"] == os.path.join("witnesses", "w1.json")

    def test_stdout_document(self, capsys):
        emit_run(RunManifest("demo", {}), {"schema": "x/1"}, None)
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"manifest", "report"}

    def test_dump_is_canonical(self):
        assert dump_json({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'


_SCALARS = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4) | st.sampled_from(["], [", "]], [[", "],\n["])
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
_DOCS = st.dictionaries(
    st.text(max_size=5),
    _VALUES | st.lists(_VALUES, max_size=6)
    | st.lists(st.lists(st.integers(0, 9), max_size=3), max_size=6),
    max_size=5,
)


def records_oracle(doc: dict) -> str:
    """dump_records written out item by item with json.dumps."""
    fields = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, list) and value:
            items = ",\n".join(json.dumps(x, sort_keys=True) for x in value)
            fields.append(f"{json.dumps(key)}: [\n{items}\n]")
        else:
            fields.append(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


class _Level(enum.IntEnum):
    ONE = 1


class TestRecords:
    @settings(max_examples=400, deadline=None)
    @given(_DOCS)
    # on the edge of the repr path: int lists but for one bool, float,
    # IntEnum or empty record, a list mixing ints and int lists, and
    # provenance-shaped lists of int lists, one holding a bool
    @example({"edges": [[1, 2], [3, True]]})
    @example({"edges": [[1, 2], [1.0, 3]]})
    @example({"edges": [[1, _Level.ONE], [2, 3]]})
    @example({"edges": [[], [1, 2]]})
    @example({"a": [1, [2, 3], 4, [5]]})
    @example({"provenance": [[[0, 1, 2, 3]], [[1, 4, 5, 6], [2, 7, 8, 9]]]})
    @example({"provenance": [[[0, 1, 2, 3]], [[1, 4, True, 6]]]})
    @example({"a": [["], ["], [1]], "b": [[[1], [2]], [[3]]], "c": [[], [[]]]})
    @example({"a": [[[1, 2]], [[3], [4]]], "b": [1, [2], "], ["]})
    def test_round_trip_one_item_per_line(self, doc):
        text = dump_records(doc)
        assert json.loads(text) == doc
        assert text == records_oracle(doc)
        lines = text.split("\n")
        for key, value in doc.items():
            if isinstance(value, list) and value:
                start = lines.index(json.dumps(key) + ": [") + 1
                block = lines[start:start + len(value) + 1]
                assert [json.loads(ln.rstrip(",")) for ln in block[:-1]] == value
                assert block[-1] in ("]", "],")

    def test_layout(self):
        doc = {"schema": "x/1", "edges": [[1, 2], [3, 4]], "v": 4, "empty": []}
        assert dump_records(doc) == (
            '{\n"edges": [\n[1, 2],\n[3, 4]\n],\n"empty": [],\n'
            '"schema": "x/1",\n"v": 4\n}\n'
        )


def int_rows_oracle(rows, kind):
    """int_rows row by row: the row lengths, or None at the first row
    that is not a `kind` of exact ints."""
    lengths = set()
    for row in rows:
        if type(row) is not kind or not all(type(x) is int for x in row):
            return None
        lengths.add(len(row))
    return lengths


_ROW_ITEMS = (
    st.integers(-2, 9) | st.booleans() | st.just(1.0) | st.just(_Level.ONE)
    | st.text(max_size=2) | st.lists(st.integers(0, 3), max_size=2)
)
_ROWS = st.lists(
    st.lists(st.integers(-2, 9), max_size=4)
    | st.lists(st.integers(-2, 9), max_size=4).map(tuple)
    | st.lists(_ROW_ITEMS, max_size=3)
    | st.lists(_ROW_ITEMS, max_size=3).map(tuple)
    | st.integers() | st.none() | st.text(max_size=2),
    max_size=5,
)


class TestIntRows:
    @settings(max_examples=500, deadline=None)
    @given(_ROWS, st.sampled_from([list, tuple]))
    @example([[1, 2], [3, True]], list)
    @example([[1, 2], (3, 4)], list)
    @example([[], [1]], list)
    @example([(1, _Level.ONE)], tuple)
    @example([[1], 5], list)
    def test_matches_row_by_row(self, rows, kind):
        assert int_rows(rows, kind) == int_rows_oracle(rows, kind)
