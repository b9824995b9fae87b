"""Run manifests, deterministic JSON emission, and the tower function."""

from __future__ import annotations

import itertools
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

MANIFEST_SCHEMA = "treeramsey/manifest/1"
TOWER_SCHEMA = "treeramsey/tower/1"

ARTIFACT_VERSION = "0.1.0"

_TOWER_BIT_LIMIT = 10**6


def tower(i: int, x: int) -> Union[int, str]:
    """Iterated exponential: height-0 is x, each level is 2**previous.

    Exact when the value fits in 10**6 bits, otherwise the symbolic
    string "t_i(x)".
    """
    if i < 0:
        raise ValueError("height must be >= 0")
    if x < 1:
        raise ValueError("argument must be >= 1")
    value = x
    for _ in range(i):
        if value >= _TOWER_BIT_LIMIT:
            return f"t_{i}({x})"
        value = 1 << value
    if value.bit_length() > _TOWER_BIT_LIMIT:
        return f"t_{i}({x})"
    return value


def dump_json(obj: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_RECORD = json.JSONEncoder(sort_keys=True)


def _rows_of_ints(rows, kind=list) -> bool:
    """Whether every row is a `kind` whose items are ints by exact type
    (so no bool, IntEnum or float), checked over all rows at once at C
    speed: one pass over the rows and one over their items."""
    return set(map(type, rows)) <= {kind} and set(
        map(type, itertools.chain.from_iterable(rows))
    ) <= {int}


def int_rows(rows, kind=list) -> Optional[set[int]]:
    """The set of row lengths when every row is a `kind` whose items are
    ints by exact type, else None.  This is the rule for a data file's
    records: list rows, which repr writes as the JSON encoder would."""
    return set(map(len, rows)) if _rows_of_ints(rows, kind) else None


def _written(items: list) -> Iterable[str]:
    """Each item of a non-empty list as the encoder writes it: int list
    rows, or lists of them (provenance), by repr; int tuple rows of one
    length, or tuples of one such row (provenance with one copy), by one
    %d template.  The first item picks the shape, and each nesting level
    is checked once by exact type; other lists go through the encoder."""
    first, rows = items[0], items
    kind = type(first)
    nested = kind in (list, tuple) and first and type(first[0]) is kind
    if nested:
        if set(map(type, items)) != {kind} or kind is tuple and set(map(len, items)) != {1}:
            return map(_RECORD.encode, items)
        rows = list(itertools.chain.from_iterable(items))
    if kind is list and _rows_of_ints(rows):
        return map(repr, items)
    lengths = int_rows(rows, tuple) if kind is tuple else None
    if lengths is None or len(lengths) != 1:
        return map(_RECORD.encode, items)
    fmt = ("[[%s]]" if nested else "[%s]") % ", ".join(["%d"] * lengths.pop())
    return map(fmt.__mod__, rows)


def dump_records(obj: dict) -> str:
    """Data-file serialization: one top-level key per line, sorted, and
    each item of a top-level list on a line of its own, as compact JSON
    with sorted keys.  Parses to obj, as dump_json does, tuples read as
    lists.  Int rows, lists or tuples (edges, plane lines), and
    provenance records of them are written at C speed by `_written`;
    every other list goes through the encoder item by item, with the
    same bytes."""
    fields = []
    for key in sorted(obj):
        value = obj[key]
        head = json.dumps(key) + ": "
        if isinstance(value, list) and value:
            fields.append(head + "[\n" + ",\n".join(_written(value)) + "\n]")
        else:
            fields.append(head + _RECORD.encode(value))
    return "{\n" + ",\n".join(fields) + "\n}\n"


def write_records(path, doc: dict) -> None:
    """Write a data file (system, plane, glued system or hypergraph)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_records(doc))


_JSON_TYPES = {
    int: "an integer", float: "a number", str: "a string", bool: "a boolean",
    list: "a list", dict: "an object", type(None): "null",
}


def check_schema(
    obj, schema: str, required: dict[str, type], optional: dict[str, type] = {}
) -> dict:
    """Check a document's schema id and the JSON type of each top-level
    field; return the document without its null optional fields.

    `required` and `optional` map field names to int, str, list or dict,
    compared with `type(x) is`, so true is not an integer.  An optional
    field set to null reads as absent.  Errors name the field.
    """
    if type(obj) is not dict:
        raise ValueError("expected a JSON object")
    if obj.get("schema") != schema:
        raise ValueError(f"expected schema {schema}, got {obj.get('schema')!r}")
    unknown = obj.keys() - required.keys() - optional.keys() - {"schema"}
    if unknown:
        raise ValueError(f"unknown fields for {schema}: {sorted(unknown)}")
    doc = {name: value for name, value in obj.items() if value is not None or name in required}
    for name, kind in (*required.items(), *optional.items()):
        if name not in doc:
            if name in required:
                raise ValueError(f"{schema} field {name!r} is missing")
        elif type(doc[name]) is not kind:
            raise ValueError(
                f"{schema} field {name!r} must be {_JSON_TYPES[kind]}, "
                f"got {_JSON_TYPES[type(doc[name])]}"
            )
    return doc


@dataclass
class RunManifest:
    """Echo of one command invocation; timing lives here, not in reports.

    `metrics` holds a command's own timings, such as the search time of
    `stepup verify` or the trial-time quantiles of `mc run`.
    """

    command: str
    params: dict
    seeds: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    elapsed_ms: Optional[float] = None
    metrics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "artifact_version": ARTIFACT_VERSION,
            "command": self.command,
            "params": self.params,
            "seeds": self.seeds,
            "outputs": self.outputs,
            "elapsed_ms": self.elapsed_ms,
            "metrics": self.metrics,
        }


def emit_run(
    manifest: RunManifest,
    report: dict,
    out_dir: Optional[str],
    witnesses: Optional[dict[str, dict]] = None,
) -> None:
    """Write manifest.json/report.json (+ witnesses/) or one stdout document.

    report bytes depend only on the computation's inputs; rerunning the
    manifest's command reproduces them exactly.
    """
    if out_dir is None:
        sys.stdout.write(dump_json({"manifest": manifest.to_json(), "report": report}))
        return
    os.makedirs(out_dir, exist_ok=True)
    manifest.outputs.setdefault("report", "report.json")
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(dump_json(report))
    if witnesses:
        os.makedirs(os.path.join(out_dir, "witnesses"), exist_ok=True)
        for name, payload in sorted(witnesses.items()):
            rel = os.path.join("witnesses", f"{name}.json")
            manifest.outputs[name] = rel
            with open(os.path.join(out_dir, rel), "w", encoding="utf-8") as fh:
                fh.write(dump_json(payload))
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(dump_json(manifest.to_json()))
