"""Maximum independent set over collision graphs.

The paper resolves overlapping embeddings by computing a maximum
independent set of the collision graph, using Kumlander's maximum-clique
algorithm on the complement graph — a backtracking search guided and
bounded by a heuristic vertex coloring [30].  We implement the same
scheme directly: an exact branch-and-bound on the complement with a
greedy-coloring upper bound, run per connected component, plus a greedy
fallback (and ablation mode) for components above a size threshold.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.mining.collision import connected_components
from repro.resilience import governor as _governor
from repro.resilience.faultinject import fault
from repro.telemetry import GLOBAL as _TELEMETRY
from repro.telemetry import events as _events

#: Components larger than this fall back to the greedy heuristic; the
#: exact search is exponential in the worst case.
EXACT_LIMIT = 60


class _BudgetExhausted(Exception):
    """Internal: stops the exact search at the expansion budget."""


def greedy_mis(adjacency: Sequence[Sequence[int]]) -> List[int]:
    """Greedy independent set: repeatedly take a minimum-degree vertex.

    Fast and typically near-optimal on the sparse collision graphs PA
    produces; used as the initial lower bound of the exact search and as
    the ablation heuristic.
    """
    n = len(adjacency)
    alive = [True] * n
    degree = [len(adjacency[v]) for v in range(n)]
    chosen: List[int] = []
    remaining = n
    while remaining:
        best = min((v for v in range(n) if alive[v]), key=lambda v: degree[v])
        chosen.append(best)
        removed = [best] + [u for u in adjacency[best] if alive[u]]
        for u in removed:
            if alive[u]:
                alive[u] = False
                remaining -= 1
                for w in adjacency[u]:
                    if alive[w]:
                        degree[w] -= 1
    return sorted(chosen)


#: Branch-and-bound expansion budget; components that exceed it fall
#: back to the best solution found so far (>= the greedy seed).
EXPAND_BUDGET = 200_000


def _exact_component(vertices: List[int],
                     adjacency: Sequence[Sequence[int]],
                     info: Optional[Dict[str, Any]] = None) -> List[int]:
    """Exact MIS of one component via max clique of the complement.

    Branch and bound in the style of Kumlander [30]: vertices of the
    candidate set are greedily colored; the color count bounds the
    achievable clique size, and candidates are expanded in reverse color
    order so the bound tightens quickly.  An expansion budget keeps
    adversarial components from stalling the optimizer; on exhaustion
    the incumbent (at least the greedy seed) is returned.
    """
    n = len(vertices)
    position = {v: k for k, v in enumerate(vertices)}
    full = (1 << n) - 1
    # Complement adjacency as bitmasks (clique in complement == MIS).
    comp: List[int] = []
    for v in vertices:
        collide = 0
        for u in adjacency[v]:
            if u in position:
                collide |= 1 << position[u]
        comp.append(full & ~collide & ~(1 << position[v]))

    best: List[int] = []
    budget = [EXPAND_BUDGET]
    governor = _governor.current()

    def color_sort(candidates: int) -> Tuple[List[int], List[int]]:
        """Greedy coloring; returns vertices ordered by color + bounds."""
        order: List[int] = []
        bounds: List[int] = []
        uncolored = candidates
        color = 0
        while uncolored:
            color += 1
            available = uncolored
            while available:
                v = (available & -available).bit_length() - 1
                order.append(v)
                bounds.append(color)
                available &= ~comp[v] & ~(1 << v)
                uncolored &= ~(1 << v)
        return order, bounds

    def expand(clique: List[int], candidates: int) -> None:
        nonlocal best
        budget[0] -= 1
        if budget[0] < 0:
            raise _BudgetExhausted
        # The governor is polled coarsely: an interrupt or spent time
        # budget downgrades the solve to its incumbent (>= the greedy
        # seed) instead of finishing an unbounded exact search.
        if budget[0] % 4096 == 0 and governor.should_stop():
            raise _BudgetExhausted
        if not candidates:
            if len(clique) > len(best):
                best = clique[:]
            return
        order, bounds = color_sort(candidates)
        for idx in range(len(order) - 1, -1, -1):
            if len(clique) + bounds[idx] <= len(best):
                return
            v = order[idx]
            clique.append(v)
            expand(clique, candidates & comp[v])
            clique.pop()
            candidates &= ~(1 << v)

    seed = greedy_mis([[position[u] for u in adjacency[vertices[k]]
                        if u in position] for k in range(n)])
    best = list(seed)
    try:
        expand([], full)
    except _BudgetExhausted:
        _TELEMETRY.count("mis.budget_exhausted")
        # always-on governor tally: PAResult surfaces it so a degraded
        # (budget-limited) solve is distinguishable from a complete one
        governor.count("mis.budget_exhausted")
        if info is not None:
            info["budget_exhausted"] = info.get("budget_exhausted", 0) + 1
    return [vertices[k] for k in best]


def max_independent_set(
    adjacency: Sequence[Sequence[int]],
    exact_limit: int = EXACT_LIMIT,
    stats: Optional[Dict[str, Any]] = None,
) -> List[int]:
    """A maximum independent set of the whole collision graph.

    Solved exactly per connected component (components up to
    *exact_limit* vertices; larger ones greedily) and combined — an
    independent set never spans a collision edge, so components are
    independent subproblems.  Pass ``exact_limit=0`` for the pure greedy
    ablation mode.

    *stats*, when given, is filled with the solve's decision census
    (vertices, component counts by strategy, budget exhaustions, chosen
    size) — the provenance the decision ledger attaches to candidates.
    """
    fault("mis.solve")
    result: List[int] = []
    telemetry_on = _TELEMETRY.enabled
    ledger_on = _events.wants("mis")
    info: Optional[Dict[str, Any]] = (
        {
            "vertices": len(adjacency),
            "components": 0,
            "singleton": 0,
            "exact": 0,
            "greedy": 0,
            "budget_exhausted": 0,
            "largest_component": 0,
        }
        if (stats is not None or ledger_on)
        else None
    )
    if telemetry_on:
        # pre-register the decision counters so exports always carry
        # them, even on runs where one branch is never taken
        _TELEMETRY.count("mis.exact_components", 0)
        _TELEMETRY.count("mis.greedy_components", 0)
        _TELEMETRY.count("mis.singleton_components", 0)
    for component in connected_components(list(map(list, adjacency))):
        if telemetry_on:
            _TELEMETRY.observe("mis.component_size", len(component))
        if info is not None:
            info["components"] += 1
            info["largest_component"] = max(
                info["largest_component"], len(component)
            )
        if len(component) == 1:
            if telemetry_on:
                _TELEMETRY.count("mis.singleton_components")
            if info is not None:
                info["singleton"] += 1
            result.extend(component)
        elif len(component) <= exact_limit:
            if telemetry_on:
                _TELEMETRY.count("mis.exact_components")
            if info is not None:
                info["exact"] += 1
            result.extend(_exact_component(component, adjacency, info))
        else:
            if telemetry_on:
                _TELEMETRY.count("mis.greedy_components")
            if info is not None:
                info["greedy"] += 1
            sub_index = {v: k for k, v in enumerate(component)}
            sub_adj = [
                [sub_index[u] for u in adjacency[v] if u in sub_index]
                for v in component
            ]
            result.extend(component[k] for k in greedy_mis(sub_adj))
    if info is not None:
        info["chosen"] = len(result)
        info["mode"] = _solve_mode(info)
        if stats is not None:
            stats.update(info)
        if ledger_on:
            _events.emit("mis", **info)
    return sorted(result)


def _solve_mode(info: Dict[str, Any]) -> str:
    """Classify one solve: did the exact search or the fallback decide?"""
    if info["greedy"] and info["exact"]:
        return "mixed"
    if info["greedy"]:
        return "greedy"
    if info["exact"]:
        return "exact"
    return "trivial"
