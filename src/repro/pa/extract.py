"""The two extraction mechanisms (paper §2.1 step 8, Figs. 3-5).

Both mechanisms must *re-linearize* code: graph mining matches fragments
whose instructions are interleaved with unrelated code in any order, so
after contracting an occurrence the remaining block is re-emitted as a
topological order of its dependence graph (original program order breaks
ties, keeping diffs minimal).

Call outlining inserts a ``bl`` whose only *extra* architectural effect
over the fragment body is clobbering the link register, so every block
instruction that reads ``lr`` is constrained to execute before the call
site; if that constraint cannot be met the occurrence is infeasible.

Cross-jumping keeps one occurrence as the shared tail (split into its
own labelled block) and replaces every other occurrence by a single
unconditional branch; it is applicable only to fragments that end their
block (checked by :mod:`repro.pa.legality`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.isa.instructions import Instruction
from repro.isa.operands import LabelRef, Reg, RegList
from repro.isa.registers import LR, PC

from repro.binary.program import BasicBlock, Function, Module
from repro.dfg.graph import DFG
from repro.dfg.linearize import (
    LinearizeError,
    block_constraint_edges,
    topological_order,
)
from repro.mining.embeddings import Embedding
from repro.telemetry import GLOBAL as _TELEMETRY
from repro.telemetry.events import emit


class ExtractionError(RuntimeError):
    """Raised when an extraction that passed legality cannot be realized."""


# ----------------------------------------------------------------------
# order consistency across occurrences
# ----------------------------------------------------------------------
def order_consistent_subset(
    dfgs: Sequence[DFG], embeddings: Sequence[Embedding]
) -> Tuple[List[Embedding], Set[Tuple[int, int]]]:
    """Greedy largest prefix of occurrences with a common body order.

    Every occurrence induces ordering constraints between the fragment
    roles (from its block's full dependence graph).  The outlined body
    executes in ONE fixed order, which must satisfy the union of all
    chosen occurrences' constraints; occurrences whose constraints would
    make the union cyclic are dropped.
    """
    union: Set[Tuple[int, int]] = set()
    kept: List[Embedding] = []
    for emb in embeddings:
        dfg = dfgs[emb.graph]
        role_of = {node: role for role, node in enumerate(emb.nodes)}
        extra = {
            (role_of[s], role_of[d])
            for (s, d, __) in dfg.induced_dep_edges(emb.nodes)
        }
        candidate = union | extra
        if _acyclic(candidate, len(emb.nodes)):
            union = candidate
            kept.append(emb)
    return kept, union


def _acyclic(edges: Set[Tuple[int, int]], n: int) -> bool:
    indeg = [0] * n
    succ: List[List[int]] = [[] for __ in range(n)]
    for s, d in edges:
        succ[s].append(d)
        indeg[d] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == n


def body_order(
    insns: Sequence[Instruction], union_edges: Set[Tuple[int, int]]
) -> List[Instruction]:
    """Topological order of the fragment roles under the union edges."""
    n = len(insns)
    try:
        order = topological_order(n, union_edges, priority=list(range(n)))
    except LinearizeError as exc:
        raise ExtractionError(str(exc)) from exc
    return [insns[role] for role in order]


def call_body(ordered: Sequence[Instruction]) -> List[Instruction]:
    """The outlined procedure's body for an already-ordered fragment.

    A fragment containing a ``bl`` gets the ``push {lr}`` / ``pop {pc}``
    bracket (legality guarantees nothing inside touches ``sp``, so the
    one-word shift is invisible); otherwise a bare ``mov pc, lr`` return
    suffices.  This is the exact shape ``verify.validate.outlined_body``
    inverts when the translation validator inlines calls back.
    """
    contains_call = any(i.is_call for i in ordered)
    body: List[Instruction] = []
    if contains_call:
        body.append(Instruction("push", (RegList((LR,)),)))
    body.extend(ordered)
    if contains_call:
        body.append(Instruction("pop", (RegList((PC,)),)))
    else:
        body.append(Instruction("mov", (Reg(PC), Reg(LR))))
    return body


def call_site_feasible(dfg: DFG, nodes: Iterable[int]) -> bool:
    """Can a ``bl`` replace this occurrence without breaking ``lr``?

    The inserted call clobbers ``lr``, so every external ``lr`` reader
    must be orderable before the call site.  Cheap sufficient test
    first: dependence edges only run forward, so readers positioned
    before every fragment node can always be ordered before the call.
    The full contracted-acyclicity check runs only for the rare rest.
    """
    node_set = set(nodes)
    readers = _lr_reader_positions(dfg)
    if not readers:
        return True
    lowest = min(node_set)
    if all(pos < lowest for pos in readers):
        return True
    try:
        _linearized_blocks(dfg, [node_set], [None])
    except ExtractionError:
        return False
    return True


def _lr_reader_positions(dfg: DFG):
    """Cached positions of lr-reading instructions in the block."""
    cached = getattr(dfg, "_lr_readers_cache", None)
    if cached is None:
        cached = tuple(
            i for i, insn in enumerate(dfg.insns)
            if LR in insn.regs_read()
        )
        dfg._lr_readers_cache = cached
    return cached


def _linearized_blocks(
    dfg: DFG,
    fragment_sets: List[Set[int]],
    call_insns: List[Optional[Instruction]],
) -> List[object]:
    """Contract each fragment set to a supernode and re-linearize.

    Returns the new instruction stream where each supernode appears as
    its (possibly None) call instruction.  Raises
    :class:`ExtractionError` when the constraints are cyclic.
    """
    n = dfg.num_nodes
    super_of: Dict[int, int] = {}
    for k, nodes in enumerate(fragment_sets):
        for node in nodes:
            if node in super_of:
                raise ExtractionError("overlapping occurrences in one block")
            super_of[node] = k

    # contracted node ids: supernode k -> n + k ; plain node -> itself
    def cid(node: int) -> int:
        return n + super_of[node] if node in super_of else node

    edges: Set[Tuple[int, int]] = set()
    for s, d in block_constraint_edges(dfg):
        cs, cd_ = cid(s), cid(d)
        if cs != cd_:
            edges.add((cs, cd_))
    # lr protection: external lr readers must precede every call site
    for node, insn in enumerate(dfg.insns):
        if node in super_of:
            continue
        if LR in insn.regs_read():
            for k in range(len(fragment_sets)):
                edges.add((cid(node), n + k))

    total = n + len(fragment_sets)
    priority = list(range(n)) + [min(nodes) for nodes in fragment_sets]
    try:
        order = topological_order(total, edges, priority)
    except LinearizeError as exc:
        raise ExtractionError(str(exc)) from exc
    stream: List[object] = []
    for v in order:
        if v >= n:
            stream.append(("call", v - n))
        elif v not in super_of:
            stream.append(dfg.insns[v])
    result: List[object] = []
    for item in stream:
        if isinstance(item, tuple):
            call = call_insns[item[1]]
            if call is not None:
                result.append(call)
            else:
                result.append(("site", item[1]))
        else:
            result.append(item)
    return result


# ----------------------------------------------------------------------
# call outlining
# ----------------------------------------------------------------------
def extract_call(
    module: Module,
    dfgs: Sequence[DFG],
    insns: Sequence[Instruction],
    embeddings: Sequence[Embedding],
    union_edges: Set[Tuple[int, int]],
    name: Optional[str] = None,
) -> str:
    """Outline the fragment into a new procedure; rewrite call sites.

    Returns the new procedure's name.
    """
    if name is None:
        name = module.fresh_label("pa")
    if _TELEMETRY.enabled:
        _TELEMETRY.count("extract.calls")
        _TELEMETRY.count("extract.call_sites", len(embeddings))
    ordered = body_order(insns, union_edges)
    body = call_body(ordered)
    new_func = Function(name=name, blocks=[BasicBlock(instructions=body)])

    call_insn = Instruction("bl", (LabelRef(name),))
    by_block: Dict[Tuple[str, int], List[Embedding]] = {}
    for emb in embeddings:
        by_block.setdefault(dfgs[emb.graph].origin, []).append(emb)

    for (func_name, block_index), embs in by_block.items():
        func = module.function(func_name)
        dfg = _dfg_at(dfgs, embs[0].graph)
        fragment_sets = [set(e.nodes) for e in embs]
        stream = _linearized_blocks(
            dfg, fragment_sets, [call_insn] * len(embs)
        )
        func.blocks[block_index].instructions = list(stream)

    module.functions.append(new_func)
    emit("rewrite", method="call", symbol=name,
         occurrences=len(embeddings), body_size=len(body))
    return name


# ----------------------------------------------------------------------
# cross jumping (tail merge)
# ----------------------------------------------------------------------
def extract_crossjump(
    module: Module,
    dfgs: Sequence[DFG],
    insns: Sequence[Instruction],
    embeddings: Sequence[Embedding],
    union_edges: Set[Tuple[int, int]],
    label: Optional[str] = None,
) -> str:
    """Merge the occurrences into one shared tail; returns its label."""
    if label is None:
        label = module.fresh_label("tail")
    if not embeddings:
        raise ExtractionError("cross jump needs at least one occurrence")
    if _TELEMETRY.enabled:
        _TELEMETRY.count("extract.crossjumps")
        _TELEMETRY.count("extract.crossjump_sites", len(embeddings))
    # The control transfer must close the shared tail even when nothing
    # data-depends on it (an unconditional ``b`` reads no registers).
    term_roles = [
        r for r, insn in enumerate(insns)
        if insn.is_terminator or (insn.is_branch and not insn.is_call)
    ]
    if len(term_roles) != 1:
        raise ExtractionError("cross jump fragment needs exactly one exit")
    union_edges = set(union_edges) | {
        (r, term_roles[0]) for r in range(len(insns)) if r != term_roles[0]
    }
    tail_body = body_order(insns, union_edges)
    survivor, rest = embeddings[0], list(embeddings[1:])

    # group per function so splits can be applied high-index-first
    per_function: Dict[str, List[Tuple[int, Embedding, bool]]] = {}
    sdfg = dfgs[survivor.graph]
    per_function.setdefault(sdfg.origin[0], []).append(
        (sdfg.origin[1], survivor, True)
    )
    for emb in rest:
        dfg = dfgs[emb.graph]
        per_function.setdefault(dfg.origin[0], []).append(
            (dfg.origin[1], emb, False)
        )

    branch = Instruction("b", (LabelRef(label),))
    for func_name, entries in per_function.items():
        func = module.function(func_name)
        for block_index, emb, is_survivor in sorted(entries, reverse=True):
            dfg = dfgs[emb.graph]
            nodes = set(emb.nodes)
            head = [
                item
                for item in _linearized_blocks(dfg, [nodes], [None])
                if not isinstance(item, tuple)
            ]
            old = func.blocks[block_index]
            if is_survivor:
                head_block = BasicBlock(labels=old.labels, instructions=head)
                tail_block = BasicBlock(
                    labels=[label], instructions=list(tail_body)
                )
                func.blocks[block_index:block_index + 1] = [
                    head_block, tail_block,
                ]
            else:
                old.instructions = head + [branch]
    emit("rewrite", method="crossjump", symbol=label,
         occurrences=len(embeddings), body_size=len(tail_body))
    return label


def _dfg_at(dfgs: Sequence[DFG], index: int) -> DFG:
    return dfgs[index]
