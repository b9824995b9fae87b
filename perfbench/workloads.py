"""The four benchmark workloads: their input pools, operations and checks.

Each workload owns a fixed pool of inputs.  A run visits the whole pool
in one seeded order per round, so every run has the same mix of
operations.  `setup` hands the program its inputs, `op` is the timed
call into the program, `collect` gathers what the call wrote, and
`verify` checks it against `reference` (never against stored output):
it returns "ok", returns "failed" for the known memo fault in the
ordering workload, and raises Incorrect for anything else.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil

import reference as ref
from reference import Incorrect


def _rmtree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.m = None

    def pool_size(self) -> int:
        raise NotImplementedError

    def order(self) -> list[int]:
        """The seeded visiting order of the pool, the same in every round."""
        order = list(range(self.pool_size()))
        random.Random(f"perfbench:{self.name}:{self.seed}").shuffle(order)
        return order

    def setup(self, m) -> None:
        self.m = m

    def precheck(self) -> None:
        """Independent checks of the inputs themselves."""

    def before(self, i: int) -> None:
        """Untimed: clear what an earlier round wrote for input i."""

    def op(self, i: int):
        raise NotImplementedError

    def collect(self, i: int, raw):
        return raw

    def verify(self, i: int, out) -> str:
        raise NotImplementedError


# --- stepping-up avoidance -----------------------------------------------


def _pentagon_labellings() -> list[dict[tuple[int, int], int]]:
    """The 12 distinct labellings of the 5-cycle: cycle pairs 0, others 1."""
    seen = {}
    for perm in itertools.permutations(range(1, 6)):
        cycle = {tuple(sorted((perm[i], perm[(i + 1) % 5]))) for i in range(5)}
        table = {s: 0 if s in cycle else 1 for s in itertools.combinations(range(1, 6), 2)}
        seen[tuple(sorted(table.items()))] = table
    return [seen[key] for key in sorted(seen)]


class _Stepup(Workload):
    """`stepup verify` through treeramsey.cli.main, one base file per input."""

    k = 0
    n = 0
    I: tuple[int, ...] = ()

    def bases(self) -> list[dict[tuple[int, ...], int]]:
        raise NotImplementedError

    def pool_size(self) -> int:
        return len(self.bases())

    def base_path(self, i: int) -> str:
        return os.path.join(self.workdir, f"base-{i}.coloring")

    def out_dir(self, i: int) -> str:
        return os.path.join(self.workdir, f"run-{i}")

    def setup(self, m) -> None:
        super().setup(m)
        colorings = m.colorings
        for i, table in enumerate(self.bases()):
            r = len(next(iter(table)))
            ground = max(max(s) for s in table)
            base = colorings.BaseColoring.from_function(
                r, ground, colorings.BINARY, lambda s, t=table: t[tuple(sorted(s))]
            )
            colorings.write_coloring(base, self.base_path(i))

    def before(self, i: int) -> None:
        _rmtree(self.out_dir(i))

    def op(self, i: int):
        return self.m.cli.main([
            "stepup", "verify", "--base", self.base_path(i),
            "--k", str(self.k), "--n", str(self.n),
            "--I", ",".join(map(str, self.I)), "--out", self.out_dir(i),
        ])

    def collect(self, i: int, raw):
        path = os.path.join(self.out_dir(i), "report.json")
        return {"exit": raw, "report": _load(path) if os.path.exists(path) else None}

    def slots(self, out, expected_exit: int, expected_status: str) -> dict:
        if out["exit"] != expected_exit:
            raise Incorrect(f"exit code {out['exit']}, expected {expected_exit}")
        report = out["report"]
        if report is None:
            raise Incorrect("no report.json written")
        if report["spec"] != {"k": self.k, "n": self.n, "I": list(self.I)}:
            raise Incorrect(f"report spec {report['spec']}")
        if report["status"] != expected_status:
            raise Incorrect(f"run status {report['status']}, expected {expected_status}")
        slots = {(s["flavor"], s["color"]): s for s in report["slots"]}
        if sorted(slots) != [("F", 0), ("F", 1), ("revF", 2), ("revF", 3)]:
            raise Incorrect(f"slots {sorted(slots)}")
        for key, slot in slots.items():
            if slot["status"] != expected_status:
                raise Incorrect(f"slot {key} is {slot['status']}, expected {expected_status}")
            witness = slot.get("witness")
            if (witness is None) != (expected_status != "witness"):
                raise Incorrect(f"slot {key} status and witness disagree")
        return slots


def core(witness):
    """A witness's leaves: its chain and its connector assignment."""
    if witness is None:
        return None
    return {"distinguished": witness["distinguished"], "assignment": witness["assignment"]}


def mirror(witness, ground: int):
    """A witness's leaves under the reflection x -> ground + 1 - x."""
    if witness is None:
        return None
    return {
        "distinguished": [ground + 1 - x for x in witness["distinguished"]],
        "assignment": {J: ground + 1 - v for J, v in witness["assignment"].items()},
    }


class StepupK3(_Stepup):
    """Criterion 5's run: every relabelled pentagon base steps up cleanly."""

    name = "stepup-k3"
    k, n, I = 3, 5, (1, 2)

    def bases(self):
        return _pentagon_labellings()

    def precheck(self) -> None:
        for i in range(self.pool_size()):
            with open(self.base_path(i), "r", encoding="utf-8") as fh:
                r, n, table = ref.parse_coloring_text(fh.read())
            if (r, n) != (2, 5) or not ref.is_five_cycle({s for s, c in table.items() if c == 0}):
                raise Incorrect(f"base {i} is not a labelled pentagon")
            if ref.has_mono_clique(table, 5, 2, 3):
                raise Incorrect(f"base {i} has a monochromatic triangle")

    def verify(self, i: int, out) -> str:
        # Both colour classes of every base are triangle-free, which is all
        # the stepping-up lemma asks of the base: each slot must be clean.
        slots = self.slots(out, expected_exit=0, expected_status="clean")
        ground = out["report"]["ground_size"]
        if ground != 32:
            raise Incorrect(f"ground size {ground}, expected 32")
        for c in (0, 1):
            f, rev = slots[("F", c)], slots[("revF", 3 - c)]
            mirrored = mirror(f.get("witness"), ground) == core(rev.get("witness"))
            if f["status"] != rev["status"] or not mirrored:
                raise Incorrect(f"slots (F,{c}) and (revF,{3 - c}) break reflection duality")
        return "ok"


K4_BASE = {(1, 2): 0, (1, 3): 1, (2, 3): 0}


class StepupK4(_Stepup):
    """The k=4 tower over the 3-point base `0 1 0`: every slot ends in a witness."""

    name = "stepup-k4"
    k, n, I = 4, 4, (1, 2, 3)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        inner = ref.SteppedReference(K4_BASE, 3)
        self.chi = ref.SteppedReference(inner, inner.ground_size)

    def bases(self):
        return [K4_BASE]

    def precheck(self) -> None:
        with open(self.base_path(0), "r", encoding="utf-8") as fh:
            if ref.parse_coloring_text(fh.read()) != (2, 3, K4_BASE):
                raise Incorrect("base file does not hold the table 0 1 0")

    def check_witness(self, flavor: str, color: int, witness) -> None:
        chi, ground = self.chi, self.chi.ground_size
        if (witness["flavor"], witness["color"]) != (flavor, color):
            raise Incorrect(f"witness labelled {witness['flavor']}/{witness['color']}")
        chain = witness["distinguished"]
        if len(chain) != self.n + 1 or not all(1 <= x <= ground for x in chain):
            raise Incorrect(f"chain {chain} has the wrong length or leaves")
        step = 1 if flavor == "F" else -1
        if any((b - a) * step <= 0 for a, b in zip(chain, chain[1:])):
            raise Incorrect(f"chain {chain} is not strictly monotone")
        lo, hi = sorted(chain[:2])
        Js = ref.connector_sets(self.n, self.k)
        if set(witness["assignment"]) != {",".join(map(str, J)) for J in Js}:
            raise Incorrect(f"connector sets {sorted(witness['assignment'])}")
        special = sorted({chain[0]} | {chain[i] for i in self.I})
        if len(special) != self.k or chi.color(special) != color:
            raise Incorrect(f"special edge {special} is not color {color}")
        for J in Js:
            v = witness["assignment"][",".join(map(str, J))]
            if not lo <= v <= hi:
                raise Incorrect(f"connector {v} for {J} outside [{lo}, {hi}]")
            rest = [chain[j] for j in J]
            if chi.color([v] + rest) != color:
                raise Incorrect(f"edge {sorted([v] + rest)} is not color {color}")
            # Witnesses take the least admissible connector (the greatest
            # for revF, whose order is reversed); any other is a moved one.
            closer = range(lo, v) if flavor == "F" else range(v + 1, hi + 1)
            if any(chi.color([u] + rest) == color for u in closer):
                raise Incorrect(f"connector {v} for {J} is not the extreme admissible leaf")

    def verify(self, i: int, out) -> str:
        slots = self.slots(out, expected_exit=1, expected_status="witness")
        if out["report"]["ground_size"] != self.chi.ground_size:
            raise Incorrect(f"ground size {out['report']['ground_size']}")
        for (flavor, color), slot in slots.items():
            self.check_witness(flavor, color, slot["witness"])
        f1, rev2 = slots[("F", 1)]["witness"], slots[("revF", 2)]["witness"]
        if mirror(f1, self.chi.ground_size) != core(rev2):
            raise Incorrect("witnesses of F1 and revF2 do not mirror each other")
        return "ok"


# --- Steiner assembly ----------------------------------------------------


STEINER_TRIPLES = ((3, 3, 3), (4, 3, 2), (4, 4, 2))


class Steiner(Workload):
    """The CLI chain blowup -> plane -> assemble -> check, one triple per input."""

    name = "steiner"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = random.Random(f"perfbench:steiner-assembly:{seed}")
        self.assembly_seeds = [rng.randrange(1 << 30) for _ in STEINER_TRIPLES]

    def pool_size(self) -> int:
        return len(STEINER_TRIPLES)

    def files(self, i: int) -> dict[str, str]:
        d = os.path.join(self.workdir, f"op-{i}")
        return {
            "dir": d,
            "system": os.path.join(d, "system.json"),
            "plane": os.path.join(d, "plane.json"),
            "glued": os.path.join(d, "glued.json"),
            "check": os.path.join(d, "check"),
        }

    def before(self, i: int) -> None:
        d = self.files(i)["dir"]
        _rmtree(d)
        os.makedirs(d)

    def op(self, i: int):
        n, k, m = STEINER_TRIPLES[i]
        f = self.files(i)
        v, _ = ref.blowup_counts(n, k, m)
        main = self.m.cli.main
        commands = [
            ["steiner", "blowup", "--n", str(n), "--k", str(k),
             "--I", ",".join(map(str, range(1, k))), "--m", str(m),
             "--out-file", f["system"], "--out", os.path.join(f["dir"], "o1")],
            ["steiner", "plane", "--order", str(ref.next_prime(v)),
             "--out-file", f["plane"], "--out", os.path.join(f["dir"], "o2")],
            ["steiner", "assemble", "--system", f["system"], "--plane", f["plane"],
             "--seed", str(self.assembly_seeds[i]), "--out-file", f["glued"],
             "--out", os.path.join(f["dir"], "o3")],
            ["steiner", "check", "--file", f["glued"], "--ell", str(k - 1),
             "--out", f["check"]],
        ]
        exits = []
        for argv in commands:
            exits.append(main(argv))
            if exits[-1] != 0:
                break
        return exits

    def collect(self, i: int, raw):
        if raw != [0, 0, 0, 0]:
            return {"exits": raw}
        f = self.files(i)
        return {
            "exits": raw,
            "system": _load(f["system"]),
            "plane": _load(f["plane"]),
            "glued": _load(f["glued"]),
            "check": _load(os.path.join(f["check"], "report.json")),
        }

    def verify(self, i: int, out) -> str:
        if out["exits"] != [0, 0, 0, 0]:
            raise Incorrect(f"exit codes {out['exits']}")
        n, k, m = STEINER_TRIPLES[i]
        I = tuple(range(1, k))
        v_b, e_b = ref.blowup_counts(n, k, m)
        system = out["system"]
        if system["v"] != v_b or sorted(map(tuple, system["edges"])) != sorted(
            ref.blowup_edges(n, k, I, m)
        ):
            raise Incorrect(f"blow-up ({n},{k},{m}) differs from its definition")
        p = ref.next_prime(v_b)
        plane = out["plane"]
        points = p * p + p + 1
        if plane["order"] != p or plane["points"] != points:
            raise Incorrect(f"plane of order {plane['order']}, expected {p}")
        ref.check_plane(plane["lines"], p)
        glued = out["glued"]
        edges = [tuple(e) for e in glued["edges"]]
        if glued["v"] != points or glued["k"] != k:
            raise Incorrect(f"glued system on {glued['v']} vertices, expected {points}")
        if len(edges) != points * e_b or len(set(edges)) != len(edges):
            raise Incorrect(f"glued system has {len(edges)} edges, expected {points * e_b}")
        if any(len(set(e)) != k or min(e) < 1 or max(e) > points for e in edges):
            raise Incorrect("glued edge of the wrong size or out of range")
        shared = ref.repeated_subset(edges, k - 1)
        if shared is not None:
            raise Incorrect(f"{k - 1}-set {shared} lies in two glued edges")
        if out["check"]["status"] != "ok":
            raise Incorrect(f"steiner check reported {out['check']['status']}")
        return "ok"


# --- ordered containment on random orderings ------------------------------


ORDERING_BLOWUP = (3, 3, (1, 2), 3)
ORDERING_POOL = 60


class Ordering(Workload):
    """One fixed vertex ordering of the (3,3,3) blow-up per input.

    The pool does not depend on --seed: it holds the operations that
    the admissible-set memo answers wrongly, and those must be the same
    share of every run.  The seed picks the visiting order.
    """

    name = "ordering"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        n, k, I, m = ORDERING_BLOWUP
        v, _ = ref.blowup_counts(n, k, m)
        rng = random.Random("perfbench:ordering-pool")
        self.orderings = []
        for _ in range(ORDERING_POOL):
            ordering = list(range(1, v + 1))
            rng.shuffle(ordering)
            self.orderings.append(ordering)
        self.v = v
        self.expected = {}

    def pool_size(self) -> int:
        return ORDERING_POOL

    def setup(self, m) -> None:
        super().setup(m)
        n, k, I, mm = ORDERING_BLOWUP
        self.system = m.steiner.build_blowup(n, k, I, mm)
        spec = m.families.FamilySpec
        self.specs = {fl: spec(k, n, I, fl) for fl in ("F", "revF", "G", "revG")}

    def op(self, i: int):
        m = self.m
        host = m.steiner.ordering_as_hypergraph(self.system, self.orderings[i])
        copies = {
            fl: m.search.find_ordered_copy(host, m.families.canonical_member(self.specs[fl]))
            for fl in ("G", "revG")
        }
        contains = {
            fl: m.search.contains_family_member(host, self.specs[fl]) for fl in ("F", "revF")
        }
        return host, copies, contains

    def reference(self, i: int) -> dict:
        if i not in self.expected:
            n, k, I, m = ORDERING_BLOWUP
            position = {x: idx + 1 for idx, x in enumerate(self.orderings[i])}
            host = {
                tuple(sorted(position[x] for x in e)) for e in ref.blowup_edges(n, k, I, m)
            }
            rev_host = ref.reversed_edges(host, self.v)
            gv, g = ref.canonical_g_edges(k, n, I)
            expected = {
                "host": host,
                "G": ref.least_embedding(host, self.v, g, gv),
                "revG": ref.least_embedding(host, self.v, ref.reversed_edges(g, gv), gv),
                "F": ref.contains_f_member(host, self.v, k, n, I),
                "revF": ref.contains_f_member(rev_host, self.v, k, n, I),
            }
            # Every G member is an F member, in either order.
            if (expected["G"] and not expected["F"]) or (expected["revG"] and not expected["revF"]):
                raise Incorrect(f"reference for host {i}: a G copy without an F member")
            self.expected[i] = expected
        return self.expected[i]

    def verify(self, i: int, out) -> str:
        host, copies, contains = out
        expected = self.reference(i)
        if host.v != self.v or set(host.edges) != expected["host"]:
            raise Incorrect(f"host {i} is not the blow-up relabelled by its ordering")
        for fl in ("G", "revG"):
            if copies[fl] != expected[fl]:
                raise Incorrect(f"host {i}: least {fl} copy {copies[fl]}, expected {expected[fl]}")
        if any(contains[fl] != expected[fl] for fl in ("F", "revF")):
            return "failed"
        return "ok"


WORKLOADS = {w.name: w for w in (StepupK3, StepupK4, Steiner, Ordering)}
