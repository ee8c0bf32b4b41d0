"""A generic worklist solver for dataflow analyses over the module CFG.

An analysis describes a direction, a join, a per-block transfer function
and the boundary facts; the solver iterates transfers to a fixpoint.
All the concrete passes in :mod:`repro.verify.passes` — and through
them, the legality analysis in :mod:`repro.pa.liveness` — share this
single solver, so there is exactly one fixpoint loop in the system to
get right.  It touches only blocks whose inputs changed.

The worklist is ordered by reverse post-order (:func:`visit_order`):
a block is visited once the blocks feeding it along forward edges have
been, so the code after a loop is stepped when the loop has settled,
not on every trip around it.  The order changes the cost, never the
result: every bundled analysis joins by a least upper bound over a
finite-height lattice (absint's values are flat constants) and transfers
monotonically, so the least fixpoint is unique and any fair visit
order reaches it.

Facts must be immutable values with ``==`` (frozensets, tuples, small
dataclasses).  Termination is the analysis author's obligation: joins
must be monotone over a finite lattice, as all bundled passes are — but
because a non-monotone transfer would otherwise spin silently,
:func:`solve` enforces a generous convergence bound
(:data:`MAX_VISITS_PER_BLOCK` visits per block on average) and raises
:class:`ConvergenceError` past it, converting an infinite loop into a
diagnosable failure.
"""

from __future__ import annotations

from heapq import heappop, heappush
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Generic, Hashable, List, Set,
                    TypeVar)

from repro.binary.program import BasicBlock
from repro.telemetry import GLOBAL as _TELEMETRY

from repro.verify.cfg import BlockKey, ModuleCFG

Fact = TypeVar("Fact")
Value = TypeVar("Value")

FORWARD = "forward"
BACKWARD = "backward"

#: Default convergence bound: a well-formed analysis visits each block
#: O(lattice height) times; every bundled pass stays far below this.
MAX_VISITS_PER_BLOCK = 1000


class ConvergenceError(RuntimeError):
    """The worklist exceeded its iteration bound (non-monotone
    transfer/join, or a lattice with an unbounded ascending chain)."""


class Analysis(Generic[Fact]):
    """Base class describing one dataflow problem.

    Subclasses set :attr:`direction` and implement the four hooks.  The
    solver calls ``transfer(key, block, fact)`` with the block's *input*
    fact (the in-fact for forward problems, the out-fact for backward
    ones) and expects the corresponding output fact.
    """

    direction: str = FORWARD

    def boundary(self, cfg: ModuleCFG, key: BlockKey) -> Fact:
        """Fact injected at boundary nodes (entries / CFG exits)."""
        raise NotImplementedError

    def initial(self, cfg: ModuleCFG, key: BlockKey) -> Fact:
        """Optimistic starting fact for every block (lattice bottom)."""
        raise NotImplementedError

    def join(self, a: Fact, b: Fact) -> Fact:
        raise NotImplementedError

    def transfer(self, key: BlockKey, block: BasicBlock, fact: Fact) -> Fact:
        raise NotImplementedError


@dataclass
class DataflowResult(Generic[Fact]):
    """Fixpoint facts of one analysis run.

    ``in_facts[key]`` holds the fact at block entry, ``out_facts[key]``
    at block exit, regardless of the analysis direction.
    """

    in_facts: Dict[BlockKey, Any] = field(default_factory=dict)
    out_facts: Dict[BlockKey, Any] = field(default_factory=dict)
    iterations: int = 0


class ComponentMemo:
    """One analysis's per-component results, reused across its calls.

    A component's fixpoint depends only on what its key captures (its
    content, plus whatever the analysis feeds in from outside).  The
    memo keeps only the entries its latest call used, so memory stays
    at about one module's facts.
    """

    def __init__(self) -> None:
        self._previous: Dict[Hashable, Any] = {}
        self._current: Dict[Hashable, Any] = {}
        #: results actually computed (memo misses), over all calls
        self.solves = 0

    def begin(self) -> None:
        """Start a call; the last call's entries stay reusable."""
        self._previous, self._current = self._current, {}

    def get(self, key: Hashable, compute: Callable[..., Value],
            *args: Any) -> Value:
        """The result under *key*; ``compute(*args)`` runs on a miss."""
        value: Value
        try:
            value = self._current[key]
        except KeyError:
            try:
                value = self._previous[key]
            except KeyError:
                value = compute(*args)
                self.solves += 1
            self._current[key] = value
        return value


class AnalysisMemo:
    """The component memos of one PA run, one per split analysis.

    Create one per ``run_pa``/``run_sfx`` call and pass it to every
    round's analyses: nothing about a module outlives it.
    """

    def __init__(self) -> None:
        #: :func:`repro.verify.absint.audit_module`'s component solves
        self.absint = ComponentMemo()
        #: :func:`repro.pa.liveness.lr_live_out_blocks`'s lr-live sets
        self.liveness = ComponentMemo()


def solve(cfg: ModuleCFG, analysis: Analysis,
          max_visits_per_block: int = MAX_VISITS_PER_BLOCK
          ) -> DataflowResult:
    """Run *analysis* over *cfg* to its least fixpoint.

    The worklist pops the queued block that comes first in
    :func:`visit_order`, so a block normally waits until its forward
    (non-back-edge) sources are done.  A popped block whose joined
    input equals its stored input is not transferred again: its stored
    output is already the transfer of that input.  Every pop counts as
    one visit (``DataflowResult.iterations``).

    Raises :class:`ConvergenceError` when the total number of block
    visits exceeds ``max_visits_per_block * len(cfg.keys)``.
    """
    forward = analysis.direction == FORWARD
    edges_in = cfg.pred if forward else cfg.succ
    edges_out = cfg.succ if forward else cfg.pred

    # boundary nodes: where facts enter the CFG for this direction
    boundary_keys = set(cfg.entries if forward else cfg.exits())

    inputs: Dict[BlockKey, Any] = {}
    outputs: Dict[BlockKey, Any] = {}
    for key in cfg.keys:
        inputs[key] = analysis.initial(cfg, key)
        if key in boundary_keys:
            inputs[key] = analysis.join(
                inputs[key], analysis.boundary(cfg, key)
            )
        outputs[key] = analysis.transfer(key, cfg.blocks[key], inputs[key])

    order = visit_order(cfg, forward)
    rank = {key: index for index, key in enumerate(order)}
    worklist = list(range(len(order)))  # ascending, so already a heap
    queued = [True] * len(order)
    iterations = 0
    bound = max_visits_per_block * max(1, len(cfg.keys))
    while worklist:
        index = heappop(worklist)
        queued[index] = False
        key = order[index]
        iterations += 1
        if iterations > bound:
            raise ConvergenceError(
                f"dataflow solve exceeded {bound} block visits over "
                f"{len(cfg.keys)} blocks ({type(analysis).__name__}); "
                "the transfer or join is not monotone, or the lattice "
                "has an unbounded chain"
            )
        fact = analysis.initial(cfg, key)
        if key in boundary_keys:
            fact = analysis.join(fact, analysis.boundary(cfg, key))
        for source in edges_in[key]:
            fact = analysis.join(fact, outputs[source])
        if fact == inputs[key]:
            continue
        inputs[key] = fact
        new_out = analysis.transfer(key, cfg.blocks[key], fact)
        if new_out != outputs[key]:
            outputs[key] = new_out
            for dependent in edges_out[key]:
                position = rank[dependent]
                if not queued[position]:
                    queued[position] = True
                    heappush(worklist, position)

    if _TELEMETRY.enabled:
        _TELEMETRY.count("verify.solver.runs")
        _TELEMETRY.count("verify.solver.iterations", iterations)

    if forward:
        return DataflowResult(in_facts=inputs, out_facts=outputs,
                              iterations=iterations)
    return DataflowResult(in_facts=outputs, out_facts=inputs,
                          iterations=iterations)


def visit_order(cfg: ModuleCFG, forward: bool = True) -> List[BlockKey]:
    """*cfg*'s keys in reverse post-order for one direction.

    The depth-first search starts at ``cfg.entries`` along ``succ``
    (forward) or at ``cfg.exits()`` along ``pred`` (backward), roots
    and edges in their stored order; keys it never reaches follow in
    module order.  The search only ever follows edges, so the order
    restricted to one weakly-connected component is that component's
    own order: solving the components one by one visits each of them
    exactly as the whole-module solve does.
    """
    edges = cfg.succ if forward else cfg.pred
    seen: Set[BlockKey] = set()
    postorder: List[BlockKey] = []
    for root in (cfg.entries if forward else cfg.exits()):
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(edges[root]))]
        while stack:
            key, pending = stack[-1]
            for nxt in pending:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(edges[nxt])))
                    break
            else:
                stack.pop()
                postorder.append(key)
    postorder.reverse()
    postorder.extend(key for key in cfg.keys if key not in seen)
    return postorder
