"""Layer spans recorded from outside the program.

The traced run replaces module attributes of treeramsey (the functions
the CLI and the public API call across module boundaries) with timing
wrappers, and hands the search a timing proxy of the top coloring.
Nothing inside src/ changes; the attributes are restored afterwards.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

perf = time.perf_counter


class TimedColoring:
    """A stepped coloring whose per-query calls are counted and timed."""

    def __init__(self, inner, tracer: "Tracer"):
        self.inner = inner
        self.tracer = tracer
        self.uniformity = inner.uniformity
        self.ground_size = inner.ground_size

    def _eval(self, elems):
        t0 = perf()
        color = self.inner._eval(elems)
        self.tracer.query_s += perf() - t0
        self.tracer.queries += 1
        return color


def _search_attrs(args, kwargs, result) -> dict:
    spec, colors = args[1], args[2]
    c = result.counters
    return {
        "flavor": spec.flavor,
        "colors": sorted(colors),
        "rev_method": args[5] if len(args) > 5 else kwargs.get("rev_method", "reflect"),
        "nodes": c.nodes,
        "chi_evals": c.chi_evals,
        "memo_hits": c.memo_hits,
        "admissible_computed": c.admissible_computed,
    }


class Tracer:
    """Spans [name, parent, op, start, end, attrs] plus coloring query totals."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.queries = 0
        self.query_s = 0.0
        self.origin = perf()

    def call(self, name, fn, args, kwargs, attrs=None):
        idx = len(self.spans)
        span = [name, self.stack[-1] if self.stack else None, self.op, 0.0, 0.0, None]
        self.spans.append(span)
        self.stack.append(idx)
        span[3] = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = perf()
            self.stack.pop()
        if attrs is not None:
            span[5] = attrs(args, kwargs, result)
        return result

    def wrapper(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return traced

    @contextlib.contextmanager
    def installed(self, m):
        """Wrap the layer boundaries of the program modules in `m`."""
        def size(args, kwargs, result):
            return {"bytes": len(result.encode())}

        plain = [
            (m.cli, "main", "cli.main", None),
            (m.cli, "read_coloring", "colorings.read_coloring", None),
            (m.cli, "dump_json", "reporting.dump_json", size),
            (m.reporting, "dump_json", "reporting.dump_json", size),
            (m.reporting, "emit_run", "reporting.emit_run", None),
            (m.search, "verify_stepup_avoidance", "search.verify_stepup_avoidance", None),
            (m.search, "find_mono_f_copy", "search.find_mono_f_copy", _search_attrs),
            (m.search, "find_ordered_copy", "search.find_ordered_copy", None),
            (m.search, "contains_family_member", "search.contains_family_member", None),
            (m.families, "canonical_member", "families.canonical_member", None),
        ]
        for fn in ("build_blowup", "build_projective_plane", "validate_projective_plane",
                   "assemble_h", "is_partial_steiner", "read_system", "ordering_as_hypergraph"):
            plain.append((m.steiner, fn, f"steiner.{fn}", None))
        for cls in ("BlowupSystem", "SteinerSystem", "ProjectivePlane"):
            plain.append((getattr(m.steiner, cls), "to_json", f"steiner.{cls}.to_json", None))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in plain]
        plane_cls = m.steiner.ProjectivePlane
        from_json = plane_cls.__dict__["from_json"]
        build_tower = m.cli.build_tower
        colorings = m.colorings

        def traced_build_tower(*args, **kwargs):
            tower = self.call("colorings.build_tower", build_tower, args, kwargs)
            top = TimedColoring(tower.top, self)
            return colorings.ColoringTower(tower.base, tower.levels[:-1] + (top,))

        try:
            for owner, attr, name, attrs in plain:
                setattr(owner, attr, self.wrapper(name, getattr(owner, attr), attrs))
            plane_cls.from_json = classmethod(
                self.wrapper("steiner.ProjectivePlane.from_json", from_json.__func__)
            )
            m.cli.build_tower = traced_build_tower
            yield self
        finally:
            for owner, attr, value in saved:
                setattr(owner, attr, value)
            plane_cls.from_json = from_json
            m.cli.build_tower = build_tower

    # --- per-layer metrics -------------------------------------------------

    def metrics(self, op_times: list[float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the spans and the operations' raw times."""
        ops = len(op_times)
        op_total = sum(op_times)
        spans = self.spans

        def dur(s):
            return s[4] - s[3]

        def total(*names):
            return sum(dur(s) for s in spans if s[0] in names)

        searches = [s for s in spans if s[0] == "search.find_mono_f_copy"]
        slot_s = {}
        for s in searches:
            parent = s[1]
            if parent is not None and spans[parent][0] == "search.verify_stepup_avoidance":
                key = s[5]["flavor"] + "".join(map(str, s[5]["colors"]))
                slot_s[key] = slot_s.get(key, 0.0) + dur(s)
        rev_direct = sum(dur(s) for s in searches if s[5]["rev_method"] == "direct"
                         and s[5]["flavor"] == "revF")
        rev_slots = slot_s.get("revF2", 0.0) + slot_s.get("revF3", 0.0)
        nodes = sum(s[5]["nodes"] for s in searches)
        search_s = sum(dur(s) for s in searches)
        hits = sum(s[5]["memo_hits"] for s in searches)
        lookups = hits + sum(s[5]["admissible_computed"] for s in searches)
        children = [0.0] * len(spans)
        for s in spans:
            if s[1] is not None:
                children[s[1]] += dur(s)
        cli_self = sum(dur(s) - children[idx] for idx, s in enumerate(spans) if s[0] == "cli.main")
        plane_validate = total("steiner.validate_projective_plane")

        def ratio(a, b):
            return a / b if b else 0.0

        per_op = functools.partial(ratio, b=ops)
        out = {
            "colorings.queries_per_op": (per_op(self.queries), "count"),
            "colorings.query_us": (ratio(self.query_s, self.queries) * 1e6, "us"),
            "colorings.query_share": (ratio(self.query_s, op_total), "ratio"),
            "colorings.tower_build_ms": (
                ratio(total("colorings.build_tower"),
                      sum(s[0] == "colorings.build_tower" for s in spans)) * 1e3, "ms"),
            "search.slot_s.F0": (per_op(slot_s.get("F0", 0.0)), "s"),
            "search.slot_s.F1": (per_op(slot_s.get("F1", 0.0)), "s"),
            "search.slot_s.revF2": (per_op(slot_s.get("revF2", 0.0)), "s"),
            "search.slot_s.revF3": (per_op(slot_s.get("revF3", 0.0)), "s"),
            "search.rev_direct_s": (per_op(rev_direct), "s"),
            "search.rev_direct_share": (ratio(rev_direct, rev_slots), "ratio"),
            "search.nodes_per_op": (per_op(nodes), "count"),
            "search.nodes_per_s": (ratio(nodes, search_s), "1/s"),
            "search.chi_evals_per_node": (
                ratio(sum(s[5]["chi_evals"] for s in searches), nodes), "ratio"),
            "search.memo_hit_rate": (ratio(hits, lookups), "ratio"),
            "search.ordered_copy_ms": (per_op(total("search.find_ordered_copy")) * 1e3, "ms"),
            "search.contains_ms": (per_op(total("search.contains_family_member")) * 1e3, "ms"),
            "steiner.blowup_ms": (
                per_op(total("steiner.build_blowup", "steiner.BlowupSystem.to_json")) * 1e3, "ms"),
            "steiner.plane_build_s": (per_op(
                total("steiner.build_projective_plane", "steiner.ProjectivePlane.to_json")), "s"),
            "steiner.plane_validate_s": (per_op(plane_validate), "s"),
            "steiner.plane_validate_share": (ratio(plane_validate, op_total), "ratio"),
            "steiner.assemble_s": (
                per_op(total("steiner.assemble_h", "steiner.SteinerSystem.to_json")), "s"),
            "steiner.partial_check_s": (per_op(total("steiner.is_partial_steiner")), "s"),
            "steiner.relabel_ms": (per_op(total("steiner.ordering_as_hypergraph")) * 1e3, "ms"),
            "families.canonical_member_ms": (
                per_op(total("families.canonical_member")) * 1e3, "ms"),
            "reporting.dump_s": (per_op(total("reporting.dump_json")), "s"),
            "reporting.bytes_out": (
                per_op(sum(s[5]["bytes"] for s in spans if s[0] == "reporting.dump_json")), "B"),
            "cli.self_s": (per_op(cli_self), "s"),
        }
        return out

    def write(self, path: str, header: dict) -> None:
        """Spans, relative to the tracer's start, plus per-name totals."""
        names: dict[str, dict] = {}
        for idx, s in enumerate(self.spans):
            entry = names.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            d = s[4] - s[3]
            entry["calls"] += 1
            entry["total_s"] += d
            entry["self_s"] += d
            if s[1] is not None:
                names[self.spans[s[1]][0]]["self_s"] -= d
        doc = dict(header)
        doc["coloring_queries"] = {"calls": self.queries, "total_s": self.query_s}
        doc["totals"] = names
        doc["spans"] = [
            [s[0], s[1], s[2], s[3] - self.origin, s[4] - self.origin, s[5]] for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
