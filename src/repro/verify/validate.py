"""Per-round translation validation of the abstraction rewrites.

After every extraction round the driver (under ``--verify``) calls
:func:`verify_round` with the module as it was *before* the round and
the round's extraction records.  The validator

1. re-lints the whole module (structural invariants must survive every
   round, not just the final one), and
2. proves each rewritten basic block equivalent to its original by
   symbolic evaluation (:mod:`repro.verify.symeval`): this round's
   outlined calls are inlined back into the rewritten block, this
   round's cross-jump tails are followed through their ``b``, and the
   resulting terms for every register, the flags, memory, and the
   control-flow exit must be structurally identical.

The transformation and this checker deliberately share no code with the
extraction path: extraction reasons forward from dependence graphs,
validation re-derives block semantics from the instruction stream alone,
so each catches the other's bugs.

Inlining note: an outlined procedure that contains a call is bracketed
``push {lr}`` … ``pop {pc}``.  The bracket shifts ``sp`` by one word for
the body, which legality makes unobservable by rejecting any fragment
that uses ``sp`` under a bracket (``bl`` excepted — the mini-C ABI
passes arguments in registers, never on the stack, so a callee never
reads the caller's frame).  :func:`outlined_body` therefore strips the
bracket and re-checks that guarantee defensively; a violation is a
verification failure, not a silent pass.

``lr`` is special-cased once: an inserted ``bl`` clobbers ``lr``, which
is only legal when ``lr`` is dead out of the rewritten block.  The
driver passes the pre-round ``lr`` liveness so the validator can excuse
*exactly* that clobber — a call-rewritten block where ``lr`` was live
out still fails, which is precisely the historical rijndael miscompile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.binary.program import Function, Module
from repro.isa.instructions import Instruction
from repro.isa.registers import LR, PC, SP, reg_name
from repro.resilience.faultinject import fault
from repro.telemetry import GLOBAL as _TELEMETRY
from repro.telemetry.events import emit

from repro.verify.absint import audit_module
from repro.verify.cfg import build_module_cfg
from repro.verify.dataflow import AnalysisMemo
from repro.verify.lint import LintReport, lint_module
from repro.verify.symeval import BlockEvaluator, SymEvalError, SymState

#: One function's blocks in a snapshot: (labels, instructions) pairs.
SnapshotBlocks = List[Tuple[Tuple[str, ...], Tuple[Instruction, ...]]]
#: A whole-module snapshot, function order preserved.
ModuleSnapshot = List[Tuple[str, SnapshotBlocks]]


class VerificationError(RuntimeError):
    """Base class of all translation-validation failures."""


class StructureError(VerificationError):
    """The rewritten module's shape cannot be aligned with its original."""


@dataclass(frozen=True)
class Counterexample:
    """A rewritten block whose symbolic value differs from its original."""

    function: str
    old_block: int
    new_block: int
    resource: str             #: "r4", "flags", "mem" or "exit"
    old_term: str
    new_term: str
    old_instructions: Tuple[str, ...]
    new_instructions: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "function": self.function,
            "old_block": self.old_block,
            "new_block": self.new_block,
            "resource": self.resource,
            "old_term": self.old_term,
            "new_term": self.new_term,
            "old_instructions": list(self.old_instructions),
            "new_instructions": list(self.new_instructions),
        }


class TranslationValidationError(VerificationError):
    """Raised when a round's rewrite could not be proven equivalent."""

    def __init__(self, message: str,
                 counterexample: Optional[Counterexample] = None,
                 lint_report: Optional[LintReport] = None) -> None:
        super().__init__(message)
        self.counterexample = counterexample
        self.lint_report = lint_report


@dataclass
class RoundVerification:
    """Statistics of one successful :func:`verify_round`."""

    round: int
    blocks_total: int = 0
    blocks_checked: int = 0
    blocks_identical: int = 0
    lint_findings: int = 0
    lr_exemptions: int = 0
    new_symbols: List[str] = field(default_factory=list)


def snapshot_module(module: Module) -> ModuleSnapshot:
    """An immutable copy of every function's blocks (labels + insns)."""
    return [
        (
            func.name,
            [
                (tuple(block.labels), tuple(block.instructions))
                for block in func.blocks
            ],
        )
        for func in module.functions
    ]


def outlined_body(func: Function) -> List[Instruction]:
    """The outlined procedure's body with bracket/return stripped.

    Re-checks the legality guarantees the stripping relies on; any
    violation raises :class:`StructureError`.
    """
    if len(func.blocks) != 1:
        raise StructureError(
            f"outlined procedure {func.name} has {len(func.blocks)} blocks"
        )
    insns = list(func.blocks[0].instructions)
    if not insns:
        raise StructureError(f"outlined procedure {func.name} is empty")
    first, final = insns[0], insns[-1]
    bracketed = (
        first.mnemonic == "push"
        and tuple(first.operands[0].regs) == (LR,)
        and final.mnemonic == "pop"
        and tuple(final.operands[0].regs) == (PC,)
    )
    if bracketed:
        body = insns[1:-1]
    elif final.is_return and final.mnemonic == "mov":
        body = insns[:-1]
    else:
        raise StructureError(
            f"outlined procedure {func.name} has no recognized "
            f"prologue/epilogue"
        )
    for insn in body:
        if insn.is_terminator or (insn.is_branch and not insn.is_call):
            raise StructureError(
                f"control transfer inside outlined body {func.name}: {insn}"
            )
        if bracketed and not insn.is_call and (
            SP in insn.regs_read() or SP in insn.regs_written()
        ):
            # Stripping the bracket is only faithful when the body never
            # observes the shifted sp; legality promises this.
            raise StructureError(
                f"sp use under the lr bracket in {func.name}: {insn}"
            )
    return body


def _find_tails(module: Module, tail_labels: Set[str]
                ) -> Dict[str, List[Instruction]]:
    tails: Dict[str, List[Instruction]] = {}
    for func in module.functions:
        for block in func.blocks:
            for label in block.labels:
                if label in tail_labels:
                    tails[label] = list(block.instructions)
    missing = tail_labels - set(tails)
    if missing:
        raise StructureError(
            f"cross-jump tail labels not found: {sorted(missing)}"
        )
    return tails


def _align_function(
    name: str,
    old_blocks: SnapshotBlocks,
    func: Function,
    tail_labels: Set[str],
) -> List[Tuple[int, int, Tuple[Instruction, ...], Tuple[Instruction, ...]]]:
    """Pair old block indices with new ones; survivors get head+tail.

    Returns ``(old_index, new_index, old_insns, new_insns)`` tuples.
    A cross-jump inserts exactly one new tail block per function per
    round (the batch conflict rules guarantee it), so the only legal
    shapes are "same length" and "one longer with a this-round tail".
    """
    new_blocks = func.blocks
    tails_here = [
        bi for bi, block in enumerate(new_blocks)
        if set(block.labels) & tail_labels
    ]
    pairs = []
    if len(new_blocks) == len(old_blocks) and not tails_here:
        mapping = [(k, k, False) for k in range(len(old_blocks))]
    elif len(new_blocks) == len(old_blocks) + 1 and len(tails_here) == 1:
        t = tails_here[0]
        if t == 0:
            raise StructureError(
                f"{name}: cross-jump tail has no survivor head before it"
            )
        mapping = (
            [(k, k, False) for k in range(t - 1)]
            + [(t - 1, t - 1, True)]
            + [(k, k + 1, False) for k in range(t, len(old_blocks))]
        )
    else:
        raise StructureError(
            f"{name}: {len(old_blocks)} blocks became {len(new_blocks)} "
            f"(tails here: {tails_here})"
        )
    for old_index, new_index, is_survivor in mapping:
        old_labels, old_insns = old_blocks[old_index]
        new_block = new_blocks[new_index]
        if tuple(new_block.labels) != old_labels:
            raise StructureError(
                f"{name} block {old_index}: labels changed from "
                f"{list(old_labels)} to {list(new_block.labels)}"
            )
        new_insns = tuple(new_block.instructions)
        if is_survivor:
            new_insns += tuple(new_blocks[new_index + 1].instructions)
        pairs.append((old_index, new_index, old_insns, new_insns))
    return pairs


def _terms_equal(a: object, b: object, memo: Set[Tuple[int, int]]) -> bool:
    """Structural term equality that respects subterm sharing.

    Terms are nested tuples that share subterms as a DAG (one evaluator
    reuses the object for every later read of a value), but ``a`` and
    ``b`` come from *independent* evaluators, so plain ``==`` unfolds
    both DAGs into trees — exponential on long dependency chains (a
    rijndael block stalls a single C-level tuple compare for minutes).
    Memoising visited ``(id, id)`` pairs keeps the walk linear in the
    number of distinct pairs.  Iterative, so term depth (~ block
    length plus inlined call bodies) cannot overflow the stack.
    """
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is tuple and type(y) is tuple:
            if len(x) != len(y):
                return False
            key = (id(x), id(y))
            if key in memo:
                continue
            memo.add(key)
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


def _render_term(term: object, max_nodes: int = 200) -> str:
    """``repr``-like rendering truncated to *max_nodes* tuple nodes.

    Counterexample records must stay bounded even when the disagreeing
    terms are huge (see :func:`_terms_equal` on why they can be)."""
    budget = [max_nodes]

    def walk(t: object) -> str:
        if type(t) is not tuple:
            return repr(t)
        if budget[0] <= 0:
            return "..."
        budget[0] -= 1
        return "(" + ", ".join(walk(part) for part in t) + ")"

    return walk(term)


def _compare(old: SymState, new: SymState,
             exempt_lr: bool) -> Optional[Tuple[str, object, object]]:
    """First mismatching resource between two symbolic states, if any."""
    memo: Set[Tuple[int, int]] = set()
    for r in range(16):
        if r == PC:
            continue
        if not _terms_equal(old.regs[r], new.regs[r], memo):
            if r == LR and exempt_lr:
                continue
            return reg_name(r), old.regs[r], new.regs[r]
    if not _terms_equal(old.flags, new.flags, memo):
        return "flags", old.flags, new.flags
    if not _terms_equal(old.mem, new.mem, memo):
        return "mem", old.mem, new.mem
    if not _terms_equal(old.exit, new.exit, memo):
        return "exit", old.exit, new.exit
    return None


def verify_round(
    module: Module,
    snapshot: ModuleSnapshot,
    records: Sequence[object],
    pre_lr_live: Set[Tuple[str, int]],
    round_index: int = 0,
    memo: Optional[AnalysisMemo] = None,
) -> RoundVerification:
    """Prove one round's rewrites equivalent; raise on any failure.

    *snapshot* is the module as :func:`snapshot_module` saw it before
    the round, *records* the round's :class:`ExtractionRecord` list and
    *pre_lr_live* the pre-round block set where ``lr`` is live out
    (see the module docstring for why the validator needs it).  Pass
    the run's *memo* so the lint's audit reuses the component solves
    the next round's legality gate then finds again.
    """
    fault("verify.round")
    with _TELEMETRY.span("pa.verify", round=round_index):
        return _verify_round(
            module, snapshot, records, pre_lr_live, round_index, memo
        )


def _verify_round(
    module: Module,
    snapshot: ModuleSnapshot,
    records: Sequence[object],
    pre_lr_live: Set[Tuple[str, int]],
    round_index: int,
    memo: Optional[AnalysisMemo],
) -> RoundVerification:
    call_symbols = {
        r.new_symbol for r in records if r.method == "call"
    }
    tail_labels = {
        r.new_symbol for r in records if r.method == "crossjump"
    }
    stats = RoundVerification(
        round=round_index,
        new_symbols=sorted(call_symbols | tail_labels),
    )

    cfg = build_module_cfg(module)
    report = lint_module(module, cfg, audit_module(module, cfg, memo))
    stats.lint_findings = len(report.findings)
    if not report.ok:
        emit(
            "verify.lint",
            round=round_index,
            ok=False,
            errors=[f.to_dict() for f in report.errors],
        )
        raise TranslationValidationError(
            f"round {round_index}: module fails lint with "
            f"{len(report.errors)} error(s): "
            + "; ".join(
                f"[{f.rule}] {f.location}: {f.message}"
                for f in report.errors[:5]
            ),
            lint_report=report,
        )

    inline_calls = {
        symbol: outlined_body(module.function(symbol))
        for symbol in call_symbols
    }
    tails = _find_tails(module, tail_labels)

    new_functions = {func.name: func for func in module.functions}
    snapshot_names = {name for name, __ in snapshot}
    appeared = set(new_functions) - snapshot_names
    if appeared - call_symbols:
        raise StructureError(
            f"unexpected new functions: {sorted(appeared - call_symbols)}"
        )
    missing = snapshot_names - set(new_functions)
    if missing:
        raise StructureError(f"functions disappeared: {sorted(missing)}")

    # Chaos hook: when armed, forge an equivalence failure for the first
    # genuinely rewritten block — exercising the driver's rollback +
    # blocklist + retry path against a real candidate's origin.
    forced = fault("verify.counterexample") is not None

    for name, old_blocks in snapshot:
        func = new_functions[name]
        for old_index, new_index, old_insns, new_insns in _align_function(
            name, old_blocks, func, tail_labels
        ):
            stats.blocks_total += 1
            if old_insns == new_insns:
                stats.blocks_identical += 1
                continue
            if forced:
                counterexample = Counterexample(
                    function=name,
                    old_block=old_index,
                    new_block=new_index,
                    resource="injected",
                    old_term="<injected>",
                    new_term="<injected>",
                    old_instructions=tuple(str(i) for i in old_insns),
                    new_instructions=tuple(str(i) for i in new_insns),
                )
                emit(
                    "verify.counterexample",
                    round=round_index,
                    injected=True,
                    **counterexample.to_dict(),
                )
                raise TranslationValidationError(
                    f"round {round_index}: injected counterexample for "
                    f"{name} block {old_index}",
                    counterexample=counterexample,
                )
            stats.blocks_checked += 1
            exempt_lr = (
                any(
                    insn.is_call and insn.label_target in call_symbols
                    for insn in new_insns
                )
                and (name, old_index) not in pre_lr_live
            )
            if exempt_lr:
                stats.lr_exemptions += 1
            try:
                old_state = BlockEvaluator().evaluate(old_insns)
                new_state = BlockEvaluator(
                    inline_calls=inline_calls, tails=tails
                ).evaluate(new_insns)
            except SymEvalError as exc:
                raise TranslationValidationError(
                    f"round {round_index}: cannot evaluate "
                    f"{name} block {old_index}: {exc}"
                ) from exc
            mismatch = _compare(old_state, new_state, exempt_lr)
            if _TELEMETRY.enabled:
                _TELEMETRY.count("verify.equivalence.checks")
            if mismatch is None:
                continue
            resource, old_term, new_term = mismatch
            counterexample = Counterexample(
                function=name,
                old_block=old_index,
                new_block=new_index,
                resource=resource,
                old_term=_render_term(old_term),
                new_term=_render_term(new_term),
                old_instructions=tuple(str(i) for i in old_insns),
                new_instructions=tuple(str(i) for i in new_insns),
            )
            emit(
                "verify.counterexample",
                round=round_index,
                **counterexample.to_dict(),
            )
            raise TranslationValidationError(
                f"round {round_index}: {name} block {old_index} is not "
                f"equivalent to its rewrite (resource {resource}: "
                f"{counterexample.old_term} != {counterexample.new_term})",
                counterexample=counterexample,
            )

    if _TELEMETRY.enabled:
        _TELEMETRY.count("verify.rounds")
        _TELEMETRY.count("verify.blocks.checked", stats.blocks_checked)
        _TELEMETRY.count(
            "verify.blocks.identical", stats.blocks_identical
        )
    emit(
        "verify.round",
        round=round_index,
        ok=True,
        blocks_total=stats.blocks_total,
        blocks_checked=stats.blocks_checked,
        blocks_identical=stats.blocks_identical,
        lint_findings=stats.lint_findings,
        lr_exemptions=stats.lr_exemptions,
        new_symbols=stats.new_symbols,
    )
    return stats
