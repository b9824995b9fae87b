"""The descending chain engine, kept as an independent reference.

`find_mono_f_copy` answers reversed-flavor (revF) questions by running
its one ascending engine on the reflected coloring and reflecting the
witness back.  This module keeps the engine that answers them directly
on the unreflected coloring: chains decrease from the anchor x_0, the
connector interval is [x_1, x_0], and every connector set J takes the
largest admissible leaf.  It shares no enumeration code with the
package's engine, so agreement of the two, status and witness, checks
the reflection argument.
"""

import time

from treeramsey.families import FLAVOR_REVF, FamilySpec
from treeramsey.search import (
    CLEAN,
    INDETERMINATE,
    WITNESS,
    BudgetExceeded,
    MonoCopyWitness,
    SearchCounters,
    SearchOutcome,
)


def _search_chains_descending(evaluator, spec_fields, color, x0_values, budget):
    """Independent reversed-order implementation: chains decrease, the
    connector interval is [x_1, x_0], and per-J picks take the maximum
    admissible leaf so witnesses match the reflected search exactly."""
    k, n, I = spec_fields
    M = evaluator.ground_size
    eval_edge = evaluator._eval
    import itertools

    connectors_by_max: dict[int, list[tuple[int, ...]]] = {}
    all_connectors = []
    for last in range(k, n + 1):
        for rest in itertools.combinations(range(2, last), k - 2):
            J = rest + (last,)
            all_connectors.append(J)
            connectors_by_max.setdefault(last, []).append(J)
    special_at = I[-1]

    counters = SearchCounters()
    memo: dict = {}
    deadline = None
    if budget is not None and budget.max_seconds is not None:
        deadline = time.monotonic() + budget.max_seconds
    max_nodes = budget.max_nodes if budget is not None else None

    def tick():
        counters.nodes += 1
        if max_nodes is not None and counters.nodes > max_nodes:
            raise BudgetExceeded
        if deadline is not None and counters.nodes % 1024 == 0:
            if time.monotonic() > deadline:
                raise BudgetExceeded

    def admissible_max(x0, x1, leaves):
        # leaves holds (x_{j_1}, x_{j_2}, ...) in role order, values falling.
        key = (x0, x1, leaves)
        if key in memo:
            counters.memo_hits += 1
            return memo[key]
        counters.admissible_computed += 1
        best = None
        for v in range(x0, x1 - 1, -1):
            counters.chi_evals += 1
            edge = tuple(reversed(leaves)) + (v,)
            if eval_edge(edge) == color:
                best = v
                break
        memo[key] = best
        return best

    chain: list[int] = [0] * (n + 1)

    def extend(depth):
        if depth == n + 1:
            assignment = tuple(
                (J, admissible_max(chain[0], chain[1], tuple(chain[j] for j in J)))
                for J in all_connectors
            )
            return MonoCopyWitness(FLAVOR_REVF, color, tuple(chain), assignment)
        hi = chain[depth - 1] - 1 if depth > 0 else M
        for x in range(hi, n - depth, -1):
            tick()
            chain[depth] = x
            if depth == special_at:
                counters.chi_evals += 1
                special = tuple(sorted({chain[0]} | {chain[i] for i in I}))
                if eval_edge(special) != color:
                    counters.prunes += 1
                    continue
            if depth >= 2:
                ok = True
                for J in connectors_by_max.get(depth, ()):
                    if (
                        admissible_max(
                            chain[0], chain[1], tuple(chain[j] for j in J)
                        )
                        is None
                    ):
                        ok = False
                        break
                if not ok:
                    counters.prunes += 1
                    continue
            found = extend(depth + 1)
            if found is not None:
                return found
        return None

    try:
        for x0 in x0_values:
            if x0 < n + 1:
                continue
            tick()
            chain[0] = x0
            found = extend(1)
            if found is not None:
                return SearchOutcome(WITNESS, found, counters)
    except BudgetExceeded:
        return SearchOutcome(INDETERMINATE, None, counters)
    return SearchOutcome(CLEAN, None, counters)


def find_rev_copy_descending(chi, spec: FamilySpec, colors) -> SearchOutcome:
    """Least revF copy in the queried colors, searched on chi directly.

    Colors are tried in increasing order and the first one that is not
    clean decides, as in `find_mono_f_copy`; counters are summed.
    """
    assert spec.flavor == FLAVOR_REVF
    spec_fields = (spec.k, spec.n, spec.I)
    x0_values = range(chi.ground_size, spec.n, -1)
    counters = SearchCounters()
    for color in sorted(set(colors)):
        outcome = _search_chains_descending(chi, spec_fields, color, x0_values, None)
        counters = counters.merged(outcome.counters)
        if outcome.status != CLEAN:
            return SearchOutcome(outcome.status, outcome.witness, counters)
    return SearchOutcome(CLEAN, None, counters)
