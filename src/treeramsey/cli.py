"""Command-line surface tying the modules into reproducible runs.

Exit codes: 0 clean/OK, 1 witness or failure found, 2 usage or input
error, 3 search gave up on a budget.  Usage and input errors go to
stderr as JSON.  Every run emits exactly one manifest: into
--out/manifest.json when an output directory is given, otherwise
embedded in the stdout document next to the report.  report.json bytes
depend only on the inputs, so re-running a manifest's command
reproduces them exactly; wall-clock timing lives in the manifest.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time

from . import families, reporting, search, steiner
from .colorings import (
    build_tower,
    export_coloring,
    import_coloring,
    read_coloring,
    search_base_coloring,
    verify_no_mono_clique,
    write_coloring,
)
from .families import FamilySpec, canonical_member, is_member
from .reporting import RunManifest, check_schema, dump_json, tower
from .trees import LeafSet, TreeParams, classify, projection

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(dump_json({"error": message, "usage": self.format_usage()}))
        raise SystemExit(EXIT_USAGE)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _budget(convert):
    """An argparse type: `convert`, then refuse NaN, infinities and negatives."""

    def parse(text: str):
        value = convert(text)
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"expected a finite value >= 0, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # for argparse's "invalid int value"
    return parse


# Parsed attributes that are not options of the run itself.
_NOT_PARAMS = {"group", "command", "handler", "out", "seed", "_start"}


def _emit(args, report: dict, witnesses=None, metrics=None):
    """Emit the report with a manifest echoed from the parsed command
    line: every option under `params` (unset ones null) but --out and
    --seed, which goes under `seeds` where the subcommand has it."""
    options = vars(args)
    manifest = RunManifest(
        command=f"{args.group} {args.command}",
        params={name: value for name, value in options.items() if name not in _NOT_PARAMS},
        seeds={"seed": args.seed} if "seed" in options else {},
        metrics=metrics or {},
    )
    manifest.elapsed_ms = (time.monotonic() - args._start) * 1000.0
    reporting.emit_run(manifest, report, args.out, witnesses)


def _cmd_tree_classify(args) -> int:
    if len(set(args.leaves)) != len(args.leaves):
        raise ValueError(f"--leaves repeats a leaf: {list(args.leaves)}")
    X = LeafSet.of(args.leaves, TreeParams(args.depth))
    shape = classify(X)
    report = {
        "schema": "treeramsey/shape/1",
        "depth": args.depth,
        "leaves": list(X.elements),
        "shape": shape.kind.value,
        "left_count": shape.left_count,
        "right_count": shape.right_count,
        "balanced": shape.balanced,
        "projection": list(projection(X)),
    }
    _emit(args, report)
    return EXIT_OK


def _cmd_color_build_base(args) -> int:
    found = search_base_coloring(args.ground, args.clique, args.seed, args.budget)
    report = {
        "schema": "treeramsey/build-base/1",
        "ground": args.ground,
        "clique": args.clique,
        "found": found is not None,
    }
    if found is not None:
        write_coloring(found, args.out_file)
        report["path"] = args.out_file
    _emit(args, report)
    return EXIT_OK if found is not None else EXIT_FOUND


def _cmd_color_verify_clique(args) -> int:
    coloring = read_coloring(args.file)
    witness = verify_no_mono_clique(coloring, args.t)
    report = {
        "schema": "treeramsey/verify-clique/1",
        "t": args.t,
        "status": "ok" if witness is None else "witness",
    }
    if witness is not None:
        report["witness"] = {"clique": list(witness.vertices), "color": witness.color}
    _emit(args, report)
    return EXIT_OK if witness is None else EXIT_FOUND


def _cmd_color_export(args) -> int:
    coloring = read_coloring(args.file)
    text = export_coloring(coloring)
    with open(args.out_file, "w", encoding="utf-8") as fh:
        fh.write(text)
    report = {
        "schema": "treeramsey/color-export/1",
        "path": args.out_file,
        "bytes": len(text.encode()),
    }
    _emit(args, report)
    return EXIT_OK


def _cmd_color_import(args) -> int:
    coloring = read_coloring(args.file)
    report = {
        "schema": "treeramsey/color-import/1",
        "uniformity": coloring.uniformity,
        "ground": coloring.ground_size,
        "palette": coloring.palette,
    }
    _emit(args, report)
    return EXIT_OK


def _load_tower_descriptor(path):
    """A tower descriptor's base coloring, a path or coloring text, and
    its target_k."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = check_schema(json.load(fh), reporting.TOWER_SCHEMA, {"base": str, "target_k": int})
    base = doc["base"]
    if base.lstrip().startswith("coloring "):
        coloring = import_coloring(base)
    else:
        coloring = read_coloring(base)
    return coloring, doc["target_k"]


def _cmd_stepup_verify(args) -> int:
    if args.tower:
        if args.base is not None or args.k is not None:
            raise ValueError("--tower names the base and k; give neither --base nor --k with it")
        base, target_k = _load_tower_descriptor(args.tower)
    else:
        if not args.base:
            raise ValueError("provide --base or --tower")
        base = read_coloring(args.base)
        target_k = 3 if args.k is None else args.k
    chi = build_tower(base, target_k).top
    spec = FamilySpec(target_k, args.n, args.I, families.FLAVOR_F)
    budget = None
    if args.max_nodes is not None or args.max_seconds is not None:
        budget = search.SearchBudget(args.max_nodes, args.max_seconds)
    report_obj = search.verify_stepup_avoidance(chi, spec, budget)
    report = report_obj.to_json()
    witnesses = {
        f"slot_{slot.flavor}_{slot.color}": slot.witness.to_json()
        for slot in report_obj.slots
        if slot.witness is not None
    }
    _emit(args, report, witnesses, metrics={"search_ms": report_obj.elapsed_ms})
    if report_obj.status == search.WITNESS:
        return EXIT_FOUND
    if report_obj.status == search.INDETERMINATE:
        return EXIT_INDETERMINATE
    return EXIT_OK


def _cmd_family_gen(args) -> int:
    spec = FamilySpec(args.k, args.n, args.I, args.flavor)
    member = canonical_member(spec)
    families.write_hypergraph(member, args.out_file)
    report = {
        "schema": "treeramsey/family-gen/1",
        "flavor": args.flavor,
        "v": member.v,
        "e": len(member.edges),
        "path": args.out_file,
    }
    _emit(args, report)
    return EXIT_OK


def _cmd_family_check(args) -> int:
    spec = FamilySpec(args.k, args.n, args.I, args.flavor)
    member = families.read_hypergraph(args.file)
    ok = is_member(member, spec)
    report = {
        "schema": "treeramsey/family-check/1",
        "flavor": args.flavor,
        "member": ok,
    }
    _emit(args, report)
    return EXIT_OK if ok else EXIT_FOUND


def _cmd_steiner_blowup(args) -> int:
    system = steiner.build_blowup(args.n, args.k, args.I, args.m)
    if system.edge_count > args.max_edges:
        raise ValueError(
            f"system has {system.edge_count} edges, above --max-edges "
            f"{args.max_edges}; raise the limit to materialize it"
        )
    reporting.write_records(args.out_file, system.to_json())
    report = {
        "schema": "treeramsey/steiner-blowup/1",
        "v": system.vertex_count,
        "e": system.edge_count,
        "m": system.m,
        "path": args.out_file,
    }
    _emit(args, report)
    return EXIT_OK


def _cmd_steiner_plane(args) -> int:
    plane = steiner.build_projective_plane(args.order)
    steiner.validate_projective_plane(plane)
    reporting.write_records(args.out_file, plane.to_json())
    report = {
        "schema": "treeramsey/steiner-plane/1",
        "order": plane.order,
        "points": plane.num_points,
        "lines": len(plane.lines),
        "path": args.out_file,
    }
    _emit(args, report)
    return EXIT_OK


def _cmd_steiner_assemble(args) -> int:
    system = steiner.read_system(args.system)
    with open(args.plane, "r", encoding="utf-8") as fh:
        plane = steiner.ProjectivePlane.from_json(json.load(fh))
    glued = steiner.assemble_h(system, plane, args.seed)
    reporting.write_records(args.out_file, glued.to_json())
    report = {
        "schema": "treeramsey/steiner-assemble/1",
        "v": glued.v,
        "e": len(glued.edges),
        "path": args.out_file,
    }
    _emit(args, report)
    return EXIT_OK


def _cmd_steiner_check(args) -> int:
    system = steiner.read_system(args.file)
    witness = steiner.is_partial_steiner(system.edges, system.k, args.ell)
    report = {
        "schema": "treeramsey/steiner-check/1",
        "ell": args.ell,
        "status": "ok" if witness is None else "witness",
    }
    if witness is not None:
        report["witness"] = {
            "first": list(witness.first),
            "second": list(witness.second),
            "shared": list(witness.shared),
        }
    _emit(args, report)
    return EXIT_OK if witness is None else EXIT_FOUND


def _cmd_mc_run(args) -> int:
    system = steiner.read_system(args.system)
    spec = FamilySpec(args.k, args.n, args.I, args.flavor)
    report_obj = steiner.sample_ordering_and_search(
        system, spec, args.trials, args.seed, args.workers
    )
    setup_ms, search_ms = zip(*report_obj.trial_ms)
    parts = {
        "trial_ms": map(sum, report_obj.trial_ms),
        "trial_setup_ms": setup_ms,
        "trial_search_ms": search_ms,
    }
    _emit(args, report_obj.to_json(),
          metrics={name: _quantiles(sorted(ms)) for name, ms in parts.items()})
    return EXIT_OK if not report_obj.failures else EXIT_FOUND


def _quantiles(ordered: list[float]) -> dict:
    """p50, p95 (by nearest rank) and max of a sorted, non-empty list."""
    return {
        "p50": ordered[math.ceil(0.50 * len(ordered)) - 1],
        "p95": ordered[math.ceil(0.95 * len(ordered)) - 1],
        "max": ordered[-1],
    }


def _cmd_bound_tower(args) -> int:
    value = tower(args.i, args.x)
    try:
        value = str(value)
    except ValueError:  # more decimal digits than sys.get_int_max_str_digits()
        value = f"t_{args.i}({args.x})"
    report = {"schema": "treeramsey/tower-value/1", "i": args.i, "x": args.x, "value": value}
    _emit(args, report)
    return EXIT_OK


_INT = dict(type=int, required=True)
_INTS = dict(type=_int_list, required=True)
_PATH = dict(required=True)
_FLAVOR = dict(default=families.FLAVOR_F, choices=families.FLAVORS)

# (group, command) -> (handler, options): each option's argparse keywords
# by name; every command also takes --out.  build_parser walks it in order.
COMMANDS = {
    ("tree", "classify"): (_cmd_tree_classify, dict(depth=_INT, leaves=_INTS)),
    ("color", "build-base"): (_cmd_color_build_base, dict(
        ground=_INT,
        clique=_INT,
        seed=dict(type=int, default=0),
        budget=dict(type=_budget(int), default=1000),
        out_file=_PATH,
    )),
    ("color", "verify-clique"): (_cmd_color_verify_clique, dict(file=_PATH, t=_INT)),
    ("color", "export"): (_cmd_color_export, dict(file=_PATH, out_file=_PATH)),
    ("color", "import"): (_cmd_color_import, dict(file=_PATH)),
    ("stepup", "verify"): (_cmd_stepup_verify, dict(
        base=dict(default=None),
        tower=dict(default=None, help="tower descriptor JSON"),
        k=dict(type=int, default=None, help="target uniformity with --base (default 3)"),
        n=_INT,
        I=_INTS,
        max_nodes=dict(type=_budget(int), default=None),
        max_seconds=dict(type=_budget(float), default=None),
    )),
    ("family", "gen"): (_cmd_family_gen, dict(
        k=_INT, n=_INT, I=_INTS, flavor=_FLAVOR, out_file=_PATH,
    )),
    ("family", "check"): (_cmd_family_check, dict(
        file=_PATH, k=_INT, n=_INT, I=_INTS, flavor=_FLAVOR,
    )),
    ("steiner", "blowup"): (_cmd_steiner_blowup, dict(
        n=_INT,
        k=_INT,
        I=_INTS,
        m=dict(type=int, default=None),
        max_edges=dict(type=int, default=10**6),
        out_file=_PATH,
    )),
    ("steiner", "plane"): (_cmd_steiner_plane, dict(order=_INT, out_file=_PATH)),
    ("steiner", "assemble"): (_cmd_steiner_assemble, dict(
        system=_PATH, plane=_PATH, seed=dict(type=int, default=0), out_file=_PATH,
    )),
    ("steiner", "check"): (_cmd_steiner_check, dict(file=_PATH, ell=_INT)),
    ("mc", "run"): (_cmd_mc_run, dict(
        system=_PATH,
        k=_INT,
        n=_INT,
        I=_INTS,
        flavor=dict(
            default=families.FLAVOR_G,
            choices=[families.FLAVOR_G, families.FLAVOR_REVG],
            help="G or revG; both write the same report, since every trial embeds "
            "both canonical members",
        ),
        trials=_INT,
        seed=dict(type=int, default=0),
        workers=dict(type=int, default=1),
    )),
    ("bound", "tower"): (_cmd_bound_tower, dict(i=_INT, x=_INT)),
}


def build_parser(named=()) -> _Parser:
    """The parser of the command that `named`, a (group, command) pair
    such as argv[:2], names, or of every command when it names none.
    One walk over COMMANDS builds either."""
    only = tuple(named) if tuple(named) in COMMANDS else None

    def slot(dest, names):
        # A one-command parser still names every choice, as argparse
        # would, so that its help and usage errors read as the full one's.
        metavar = "{" + ",".join(dict.fromkeys(names)) + "}" if only else None
        return dict(dest=dest, required=True, metavar=metavar)

    parser = _Parser(prog="treeramsey")
    top = parser.add_subparsers(**slot("group", (g for g, _ in COMMANDS)))
    groups = {}
    for (group, command), (handler, options) in COMMANDS.items():
        if only not in (None, (group, command)):
            continue
        if group not in groups:
            commands = slot("command", (c for g, c in COMMANDS if g == group))
            groups[group] = top.add_parser(group).add_subparsers(**commands)
        p = groups[group].add_parser(command)
        for arg, kwargs in options.items():
            p.add_argument(f"--{arg.replace('_', '-')}", **kwargs)
        p.add_argument("--out", help="output directory for manifest.json and report.json")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[:2]).parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    args._start = time.monotonic()
    # The cyclic collector is paused while the command runs: its large
    # structures (edge lists, data-file records, search state) hold no
    # reference cycles, so collections would only scan them.  Whatever
    # cycles it leaves are collected once the caller's state is back.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except (ValueError, OverflowError, OSError, KeyError, RecursionError) as exc:
        sys.stderr.write(dump_json({"error": str(exc)}))
        return EXIT_USAGE
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
