"""Extraction legality: the paper's "plausibility checks" (§3.5).

A mined fragment must survive checks on two levels before it can be
outlined:

**Fragment level** (depends only on the instruction texts):

* call/return outlining requires that no instruction transfers control
  (branches, returns, pc writes) and that none touches the link register
  — ``bl`` inside the fragment is allowed because the outlined procedure
  is then bracketed with ``push {lr}`` / ``pop {pc}``, but in that case
  nothing in the fragment may move ``sp`` (the bracket uses the stack),
* cross-jump (tail merge) requires the fragment to *end the block* with
  an unconditional branch or return; if the ending is a link-register
  return (``bx lr`` / ``mov pc, lr``), nothing inside may write ``lr``.

**Embedding level** (depends on where the fragment sits):

* call outlining requires convexity — contracting the occurrence into a
  single call must not create a cyclic dependency (paper Fig. 9),
* cross-jump requires the occurrence to be *successor-closed*: nothing
  outside may depend on it, so the rest of the block can run first and
  then jump into the shared tail; the occurrence must also contain the
  block's control transfer.

**Lattice level**: the miner folds the fragment-level rules along its
search lattice (:class:`LatticeLegality`) and cuts every subtree in which no
fragment can pass both levels, so such fragments never reach the funnel.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.isa.instructions import Instruction
from repro.isa.operands import LabelRef
from repro.isa.registers import LR, PC, SP

from repro.dfg.graph import DFG
from repro.mining.embeddings import Embedding
from repro.mining.gspan import Fragment
from repro.mining.pruning import is_convex, popcount, successor_closures
from repro.telemetry.events import emit
from repro.verify.absint import module_summaries
from repro.verify.cfg import ModuleCFG
from repro.verify.dataflow import AnalysisMemo


class ExtractionMethod(enum.Enum):
    CALL = "call"
    CROSSJUMP = "crossjump"


def _writes_sp(insn: Instruction) -> bool:
    return SP in insn.regs_written()


def _uses_sp(insn: Instruction) -> bool:
    return SP in insn.regs_read() or SP in insn.regs_written()


def _touches_lr(insn: Instruction) -> bool:
    """Reads or writes lr explicitly (the implicit bl write is handled
    by the push/pop bracket)."""
    if insn.mnemonic == "bl":
        return False
    return LR in insn.regs_read() or LR in insn.regs_written()


def _reads_pc(insn: Instruction) -> bool:
    return PC in insn.regs_read()


def _call_target(insn: Instruction) -> Optional[str]:
    if insn.is_call and insn.operands and isinstance(insn.operands[0], LabelRef):
        return insn.operands[0].name
    return None


def sp_fragile_functions(module,
                         memo: Optional[AnalysisMemo] = None,
                         cfg: Optional[ModuleCFG] = None,
                         ) -> FrozenSet[str]:
    """Names of functions whose correctness depends on the caller's ``sp``.

    The ``bl`` exemption in :func:`_classify_call` models callees as
    seeing a balanced stack: they neither net-move ``sp`` nor address
    the caller's frame through it.  Ordinary functions satisfy this
    (their prologue/epilogue frames are self-relative and cancel), but
    a *frameless* outlined procedure's body is an arbitrary mined
    fragment: it may read ``sp`` without ever allocating (its slots are
    the caller's frame at the entry-``sp`` position) or carry a
    net-nonzero ``sp`` adjustment.  Either way it is only sound when
    called with ``sp`` exactly where the original inline code saw it,
    so a later extraction round must never wrap one of its call sites
    in a ``push {lr}`` / ``pop {pc}`` bracket.

    The verdict comes from the abstract interpreter
    (:func:`repro.verify.absint.module_summaries`), not the earlier
    pattern heuristics: a function is fragile when its *proven* facts
    say so — its stack height cannot be tracked to a known value
    everywhere (``height_known`` false), its returns leave a non-zero
    (or unknown) net stack delta, or it provably reads or writes memory
    at depths at or above its entry ``sp`` (its caller's frame),
    directly or transitively through a fragile callee.  Each fragile
    function's evidence is recorded in the decision ledger as a
    ``legality.sp_fragile`` record.

    A PA run passes one *memo* to every round's call, so each round
    re-solves only the CFG components its rewrites changed; *cfg*, when
    given, is *module*'s CFG.
    """
    summaries = module_summaries(module, cfg, memo)
    fragile = {
        name for name, summary in summaries.items() if summary.fragile
    }
    for name in sorted(fragile):
        summary = summaries[name]
        emit(
            "legality.sp_fragile",
            function=name,
            net_delta=summary.net_delta,
            height_known=summary.height_known,
            caller_reads=list(summary.caller_reads),
            caller_writes=list(summary.caller_writes),
            has_negative_height=summary.has_negative_height,
        )
    return frozenset(fragile)


# Per-instruction legality flags.  Every fragment-level rule reads the
# instruction texts as a set, so a fragment's verdict is the fold of its
# instructions' flags (:func:`fold_flags`) — one definition shared by
# :func:`classify_fragment` and the lattice prune
# (:class:`LatticeLegality`).
_DEAD = 1         # no fragment holding this instruction is extractable
_TERM = 2         # the block's control transfer (cross-jump exit)
_LR_RETURN = 4    # an exit that returns through lr (bx lr / mov pc, lr)
_CALL = 8         # a bl
_SP = 16          # a non-call instruction that reads or writes sp
_FRAGILE = 32     # a bl to an sp-fragile callee


def instruction_flags(
    insn: Instruction, fragile_callees: FrozenSet[str] = frozenset()
) -> int:
    """The legality flags of one instruction."""
    if insn.is_terminator or (insn.is_branch and not insn.is_call):
        # Blocks only ever hold control transfers in their final slot,
        # so a fragment's one terminator anchors the tail of every
        # occurrence: a cross-jump exit.
        flags = _TERM
        if insn.is_conditional or not (
            insn.is_return or insn.mnemonic == "b"
        ):
            flags |= _DEAD
        if insn.is_return and insn.mnemonic != "pop":
            flags |= _LR_RETURN
        return flags
    if _touches_lr(insn) or _reads_pc(insn) or insn.writes_pc:
        return _DEAD
    if insn.is_call:
        # A call fragment is bracketed with push {lr} / pop {pc}.  The
        # bracket's one-word sp shift is visible to any callee that
        # addresses the caller's frame — a frameless outlined
        # procedure's sp-relative slots would land on the bracket-saved
        # lr.  Found by the fuzzed corpus: a round-1 frameless pa body
        # (`str r0, [sp]` … `mov pc, lr`) was later swallowed by a
        # bracketed round-2 extraction, so its store clobbered the
        # saved return address.
        if _call_target(insn) in fragile_callees:
            return _CALL | _FRAGILE
        return _CALL
    if _uses_sp(insn):
        # The bracket also shifts sp for the whole body, so *any* sp
        # use inside — including sp-relative loads and stores — would
        # address the wrong slot.  (bl itself is exempt: its
        # conservative "reads sp" models the callee, which sees a
        # balanced stack.)
        return _SP
    return 0


def fold_flags(state: int, flags: int) -> int:
    """The verdict state of a fragment grown by one instruction.

    The state only gains bits, and ``_DEAD`` is never lost, so every
    verdict below is antimonotone along lattice edges.
    """
    merged = state | flags
    if state & flags & _TERM:
        merged |= _DEAD  # two control transfers
    elif merged & _LR_RETURN and merged & _CALL:
        merged |= _DEAD  # the bl clobbers the lr the exit returns to
    return merged


def _call_blocked(state: int) -> bool:
    """A bl sits with an sp use or calls an sp-fragile callee."""
    return bool(state & _FRAGILE or (state & _CALL and state & _SP))


def method_of(state: int) -> Optional[ExtractionMethod]:
    """The extraction mechanism of a folded fragment state."""
    if state & _DEAD:
        return None
    if state & _TERM:
        return ExtractionMethod.CROSSJUMP
    if _call_blocked(state):
        return None
    return ExtractionMethod.CALL


def classify_fragment(
    insns: Sequence[Instruction],
    fragile_callees: FrozenSet[str] = frozenset(),
) -> Optional[ExtractionMethod]:
    """Decide the extraction mechanism from the instruction texts alone.

    Returns None when the fragment can never be outlined.
    *fragile_callees* names functions that address their caller's frame
    (see :func:`sp_fragile_functions`); a fragment calling one of them
    cannot be call-outlined, since the bracket would shift ``sp`` under
    the fragile callee.  *insns* are in DFS-role order, not program
    order; positions carry no meaning here.
    """
    if not insns:
        return None
    state = 0
    for insn in insns:
        state = fold_flags(state, instruction_flags(insn, fragile_callees))
        if state & _DEAD:
            return None
    return method_of(state)


# ----------------------------------------------------------------------
# embedding level
# ----------------------------------------------------------------------
def embedding_legal(
    dfg: DFG, nodes: Iterable[int], method: ExtractionMethod
) -> bool:
    """Check the placement conditions of one occurrence."""
    node_set = set(nodes)
    if method is ExtractionMethod.CALL:
        if not is_convex(dfg, node_set):
            return False
        # The occurrence must not contain the block's final control
        # transfer (that case is cross-jump territory).  classify_fragment
        # already guarantees this — a fragment containing any transfer is
        # routed to cross-jump — but a bl replacing the block terminator
        # would be a miscompile, so the guarantee is re-checked here
        # rather than trusted across module boundaries.
        for node in node_set:
            insn = dfg.insns[node]
            if insn.is_terminator or (insn.is_branch and not insn.is_call):
                return False
        return True
    # cross-jump: must contain the last instruction and be successor-closed
    if dfg.num_nodes - 1 not in node_set:
        return False
    for src, dst, __ in dfg.dep_edges:
        if src in node_set and dst not in node_set:
            return False
    return True


def legal_embeddings(
    dfgs: Sequence[DFG], fragment: Fragment,
    fragile_callees: FrozenSet[str] = frozenset(),
) -> tuple:
    """Filter a fragment's embeddings by legality.

    Returns ``(method, embeddings)``; method is None when the fragment
    is categorically unextractable.
    """
    sample = fragment.embeddings[0] if fragment.embeddings else None
    if sample is None:
        return None, []
    insns = _fragment_insns(dfgs, fragment, sample)
    method = classify_fragment(insns, fragile_callees)
    if method is None:
        emit(
            "legality",
            labels=list(fragment.node_labels),
            size=fragment.num_nodes,
            method=None,
            embeddings=len(fragment.embeddings),
            kept=0,
        )
        return None, []
    kept = [
        emb
        for emb in fragment.embeddings
        if embedding_legal(dfgs[emb.graph], emb.nodes, method)
    ]
    emit(
        "legality",
        labels=list(fragment.node_labels),
        size=fragment.num_nodes,
        method=method.value,
        embeddings=len(fragment.embeddings),
        kept=len(kept),
    )
    return method, kept


def _fragment_insns(
    dfgs: Sequence[DFG], fragment: Fragment, emb: Embedding
) -> List[Instruction]:
    """The fragment's instructions, in DFS-role order, from one witness."""
    dfg = dfgs[emb.graph]
    return [dfg.insns[node] for node in emb.nodes]


# ----------------------------------------------------------------------
# lattice level
# ----------------------------------------------------------------------
class LatticeLegality:
    """The legality prune: cut every lattice subtree in which no
    fragment can have two node-disjoint, legally extractable occurrences.

    The funnel installs one per shard mine as ``miner.prune_illegal``
    (on either miner, when ``pa_pruning`` is on), with the round's
    sp-fragile callees.  The miner binds it to each mining
    database (:meth:`bind`) and folds a verdict state along the lattice:
    a child's state is its parent's plus the new node's flags
    (:meth:`BoundLegality.child`).  Every verdict is antimonotone and
    every descendant occurrence extends one of a node's embeddings, so
    a cut subtree holds nothing the funnel could score.
    """

    def __init__(self, fragile_callees: FrozenSet[str] = frozenset()):
        self.fragile_callees = fragile_callees
        #: label text -> flags, shared by every pass of the round
        self._flags: Dict[str, int] = {}

    def bind(self, db, max_nodes: int) -> "BoundLegality":
        """The prune over one mining database, for fragments of at most
        *max_nodes* nodes.  Labels are full instruction texts, so one
        flag per label is exact."""
        known = self._flags
        flags = [-1] * len(db.node_labels)
        for graph, dfg in zip(db.graphs, db.dfgs):
            for label, insn in zip(graph.nodes, dfg.insns):
                if flags[label] < 0:
                    text = db.node_labels[label]
                    flag = known.get(text)
                    if flag is None:
                        flag = known[text] = instruction_flags(
                            insn, self.fragile_callees
                        )
                    flags[label] = flag
        return BoundLegality(db, flags, max_nodes)


class BoundLegality:
    """:class:`LatticeLegality` bound to one mining database."""

    def __init__(self, db, flags: List[int], max_nodes: int):
        self.dfgs: Sequence[DFG] = db.dfgs
        self.flags = flags
        self.max_nodes = max_nodes
        # A cross-jump occurrence holds its block's exit, which must be
        # an unconditional b or a return — and not an lr-based return
        # when the fragment holds a bl.
        ends = [
            flags[graph.nodes[-1]] if graph.nodes else _DEAD
            for graph in db.graphs
        ]
        self._exits = [
            bool(end & _TERM) and not end & _DEAD for end in ends
        ]
        self._exits_with_call = [
            usable and not end & _LR_RETURN
            for usable, end in zip(self._exits, ends)
        ]
        self._closures: List[Optional[List[int]]] = [None] * len(ends)

    def child(self, state: Optional[int], tup) -> Optional[int]:
        """The state of the code grown by *tup*, or None when the child
        is dead.  *state* is the parent's, or None for a seed edge."""
        if tup[0] > tup[1]:
            return state  # a backward edge adds no node
        flags = self.flags
        if state is None:
            state = flags[tup[2]]
        state = fold_flags(state, flags[tup[5]])
        return None if state & _DEAD else state

    def cut(self, state: int, unique: Sequence[Embedding]) -> bool:
        """True when the node with verdict *state* and deduplicated
        embeddings *unique* roots a subtree with nothing extractable.

        A node that may still be call-outlined is kept.  Any other node
        only leads to cross-jumps, and an occurrence ``S'`` extending an
        embedding ``S`` is only a legal cross-jump when it is
        successor-closed and holds its block's usable exit:
        ``S' ⊇ S ∪ succ*(S) ∪ {last}``, within ``max_nodes``.  Two
        cross-jump occurrences in one block share its exit, so the
        disjoint pair the funnel needs must come from live embeddings
        in two different blocks.
        """
        if not (state & _TERM or _call_blocked(state)):
            return False
        exits = self._exits_with_call if state & _CALL else self._exits
        cap = self.max_nodes
        closures = self._closures
        live_graph = -1
        for emb in unique:
            gid = emb.graph
            if gid == live_graph or not exits[gid]:
                continue
            masks = closures[gid]
            if masks is None:
                masks = closures[gid] = successor_closures(
                    self.dfgs[gid], cap
                )
            mask = 1 << (len(masks) - 1)
            for node in emb.nodes:
                closure = masks[node]
                if not closure:
                    break
                mask |= closure
            else:
                if popcount(mask) <= cap:
                    if live_graph >= 0:
                        return False
                    live_graph = gid
        return True
