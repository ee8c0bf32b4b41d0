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
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Iterable, List, Optional, Sequence

from repro.isa.instructions import Instruction
from repro.isa.operands import LabelRef
from repro.isa.registers import LR, PC, SP

from repro.dfg.graph import DFG
from repro.mining.embeddings import Embedding
from repro.mining.gspan import Fragment
from repro.mining.pruning import is_convex
from repro.report.ledger import GLOBAL as _LEDGER
from repro.verify.absint import AuditMemo, module_summaries


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
                         memo: Optional[AuditMemo] = None
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
    re-solves only the CFG components its rewrites changed.
    """
    summaries = module_summaries(module, memo=memo)
    fragile = {
        name for name, summary in summaries.items() if summary.fragile
    }
    if _LEDGER.enabled:
        for name in sorted(fragile):
            summary = summaries[name]
            _LEDGER.emit(
                "legality.sp_fragile",
                function=name,
                net_delta=summary.net_delta,
                height_known=summary.height_known,
                caller_reads=list(summary.caller_reads),
                caller_writes=list(summary.caller_writes),
                has_negative_height=summary.has_negative_height,
            )
    return frozenset(fragile)


def classify_fragment(
    insns: Sequence[Instruction],
    fragile_callees: FrozenSet[str] = frozenset(),
) -> Optional[ExtractionMethod]:
    """Decide the extraction mechanism from the instruction texts alone.

    Returns None when the fragment can never be outlined.
    *fragile_callees* names functions that address their caller's frame
    (see :func:`sp_fragile_functions`); a fragment calling one of them
    cannot be call-outlined, since the bracket would shift ``sp`` under
    the fragile callee.
    """
    if not insns:
        return None
    terminators = [i for i in insns if i.is_terminator or
                   (i.is_branch and not i.is_call)]
    if terminators:
        return _classify_crossjump(insns, terminators)
    return _classify_call(insns, fragile_callees)


def _classify_call(
    insns: Sequence[Instruction],
    fragile_callees: FrozenSet[str] = frozenset(),
) -> Optional[ExtractionMethod]:
    contains_call = any(i.is_call for i in insns)
    for insn in insns:
        if _touches_lr(insn) or _reads_pc(insn) or insn.writes_pc:
            return None
        if contains_call and not insn.is_call and _uses_sp(insn):
            # The push {lr} / pop {pc} bracket shifts sp by one word
            # for the whole body, so *any* sp use inside — including
            # sp-relative loads and stores — would address the wrong
            # slot.  (bl itself is exempt: its conservative "reads sp"
            # models the callee, which sees a balanced stack.)
            return None
        if contains_call and _call_target(insn) in fragile_callees:
            # The bracket's one-word sp shift is also visible to any
            # *callee* that addresses the caller's frame — a frameless
            # outlined procedure's sp-relative slots would land on the
            # bracket-saved lr.  Found by the fuzzed corpus: a round-1
            # frameless pa body (`str r0, [sp]` … `mov pc, lr`) was
            # later swallowed by a bracketed round-2 extraction, so its
            # store clobbered the saved return address.
            return None
    return ExtractionMethod.CALL


def _classify_crossjump(
    insns: Sequence[Instruction], terminators: List[Instruction]
) -> Optional[ExtractionMethod]:
    # Note: *insns* are in DFS-role order, not program order; positions
    # carry no meaning here.  Blocks only ever hold control transfers in
    # their final slot, so the unique terminator necessarily anchors the
    # tail of every occurrence.
    if len(terminators) != 1:
        return None
    exit_insn = terminators[0]
    if exit_insn.is_conditional:
        return None
    if not (exit_insn.is_return or exit_insn.mnemonic == "b"):
        return None
    lr_based_return = exit_insn.is_return and exit_insn.mnemonic != "pop"
    for insn in insns:
        if insn is exit_insn:
            continue
        if insn.is_terminator or (insn.is_branch and not insn.is_call):
            return None
        if _reads_pc(insn) or insn.writes_pc:
            return None
        if _touches_lr(insn):
            return None
        if lr_based_return and insn.is_call:
            return None
    return ExtractionMethod.CROSSJUMP


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
        if _LEDGER.enabled:
            _LEDGER.emit(
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
    if _LEDGER.enabled:
        _LEDGER.emit(
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
