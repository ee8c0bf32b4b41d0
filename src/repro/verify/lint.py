"""The module linter: structural and semantic invariant checks.

``repro lint`` (and the ``--verify`` translation validator, which
re-lints after every extraction round) checks a :class:`Module` against
the invariants the whole pipeline silently relies on.  Rule catalogue:

==========================  ========  =====================================
rule                        severity  meaning
==========================  ========  =====================================
``undefined-label``         error     a branch or ``ldr =`` target no label
                                      defines
``duplicate-label``         error     one name defined at two addresses
``mid-block-transfer``      error     a control transfer before the final
                                      slot of its block
``function-fallthrough``    error     a function's last block can fall
                                      through (into the next function or
                                      its own literal pool)
``pool-range``              error     a literal-pool reference beyond the
                                      ±4 KiB pc-relative range
``stack-imbalance``         error     a function's returns are reached at
                                      different stack heights (absint)
``stack-nonzero-return``    warning   a function consistently returns at a
                                      non-zero height (legitimate only for
                                      an outlined helper whose call sites
                                      all compensate; absint)
``stack-negative``          warning   an instruction raises ``sp`` above
                                      the function-entry value (pop
                                      without push — legitimate only for
                                      an outlined helper reading its
                                      caller's frame; absint)
``stack-unknown``           info      the first instruction of a function
                                      that loses track of ``sp`` (absint)
``undefined-flag-read``     error     a conditional (or carry-consuming)
                                      instruction whose flags may be
                                      undefined or call-clobbered on some
                                      path
``undefined-register-read`` warning   a read of a register holding callee
                                      garbage after a call
``unreachable-block``       warning   a block no function entry reaches
``empty-block``             info      a block with no instructions
``unbalanced-stack``        error     paths merge at provably different
                                      stack heights, or a conditional
                                      instruction moves ``sp`` (absint)
``clobbered-saved-lr``      error     a store provably overwrites a saved
                                      return address on the stack (absint)
``uninit-read``             warning   a stack slot is read before any
                                      write reaches it (absint)
``caller-frame-escape``     warning   the function provably touches stack
                                      memory its caller owns (absint —
                                      what makes a helper sp-fragile)
``unbounded-stack-growth``  warning   a loop whose net sp delta is
                                      non-zero (absint)
``dead-store``              info      an unconditional register write no
                                      path ever reads
==========================  ========  =====================================

The nine ``absint``-backed rules come from the abstract interpreter of
:mod:`repro.verify.absint` — proven facts, not pattern heuristics.  It
is the only stack analysis: the four ``stack-*`` rules read the same
:class:`~repro.verify.absint.AuditResult` as the other five.

Severities: an *error* means layout, execution, or a later abstraction
round can go wrong; a *warning* is suspicious but can be benign dead
code; *info* is diagnostic only.  :meth:`LintReport.to_dict` is the JSON
shape (schema ``repro.verify.lint/2``) consumed by CI.  Schema ``/2``
extends ``/1`` additively: same top-level keys, new rule names.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.binary.pools import plan_pool, pseudo_literal
from repro.binary.program import Module
from repro.dfg.builder import FLAGS
from repro.isa.instructions import Instruction
from repro.isa.registers import reg_name
from repro.telemetry import GLOBAL as _TELEMETRY

from repro.verify.absint import (
    CALLER_READ,
    CALLER_WRITE,
    GROWTH_CYCLE,
    HEIGHT_LOST,
    HEIGHT_MISMATCH,
    NEGATIVE_HEIGHT,
    NONZERO_RETURN,
    RETADDR_CLOBBER,
    RETURN_MISMATCH,
    UNINIT_READ,
    AuditResult,
    audit_module,
)
from repro.verify.cfg import ModuleCFG, build_module_cfg
from repro.verify.passes import (
    flag_def_use,
    insn_accesses,
    liveness,
    maybe_undef,
    step_undef,
)

#: Version tag of the lint JSON schema.
LINT_SCHEMA = "repro.verify.lint/2"

#: The pc-relative reach of a literal load (matches the layout check).
POOL_RANGE = 4096


class Severity(enum.IntEnum):
    """Ordered severity levels (higher is worse)."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a module location."""

    rule: str
    severity: Severity
    message: str
    function: str
    block: Optional[int] = None
    insn: Optional[int] = None
    text: Optional[str] = None

    @property
    def location(self) -> str:
        parts = [self.function]
        if self.block is not None:
            parts.append(f"block {self.block}")
        if self.insn is not None:
            parts.append(f"insn {self.insn}")
        return ", ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "function": self.function,
            "block": self.block,
            "insn": self.insn,
            "text": self.text,
        }


@dataclass
class LintReport:
    """All findings of one lint run."""

    findings: List[Finding] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity finding exists."""
        return not self.errors

    def counts(self) -> Dict[str, int]:
        counts = {str(level): 0 for level in Severity}
        for finding in self.findings:
            counts[str(finding.severity)] += 1
        return counts

    def by_rule(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for finding in self.findings:
            tally[finding.rule] = tally.get(finding.rule, 0) + 1
        return tally

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": LINT_SCHEMA,
            "ok": self.ok,
            "counts": self.counts(),
            "rules": self.by_rule(),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable listing, worst findings first."""
        if not self.findings:
            return "clean: no findings"
        lines = []
        ordered = sorted(
            self.findings,
            key=lambda f: (-int(f.severity), f.function, f.block or 0,
                           f.insn or 0),
        )
        for finding in ordered:
            lines.append(
                f"{finding.severity}: [{finding.rule}] {finding.location}: "
                f"{finding.message}"
            )
        counts = self.counts()
        lines.append(
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info"
        )
        return "\n".join(lines)


def _is_exit_swi(insn: Instruction) -> bool:
    """True for the unconditional ``swi #0`` program-exit idiom."""
    return (
        insn.mnemonic == "swi"
        and not insn.is_conditional
        and insn.operands[0].value == 0
    )


def _is_control_transfer(insn: Instruction) -> bool:
    return insn.is_terminator or (insn.is_branch and not insn.is_call)


# ----------------------------------------------------------------------
# the linter
# ----------------------------------------------------------------------
def lint_module(module: Module,
                cfg: Optional[ModuleCFG] = None,
                audit: Optional[AuditResult] = None) -> LintReport:
    """Run every lint rule over *module*; returns the full report.

    Pass a precomputed *audit* (from :func:`audit_module`) to share the
    abstract-interpretation fixpoint with a caller that already ran it.
    """
    with _TELEMETRY.span("verify.lint"):
        cfg = cfg or build_module_cfg(module)
        report = LintReport()
        _check_labels(module, report)
        _check_block_shape(module, cfg, report)
        _check_pool_range(module, report)
        _check_undefined_reads(module, cfg, report)
        _check_reachability(module, cfg, report)
        _check_absint(module, cfg, report, audit)
        _check_dead_stores(module, cfg, report)
    if _TELEMETRY.enabled:
        _TELEMETRY.count("verify.lint.runs")
        _TELEMETRY.count("verify.lint.blocks", len(cfg.keys))
        _TELEMETRY.count("verify.lint.findings", len(report.findings))
    return report


def _check_labels(module: Module, report: LintReport) -> None:
    """undefined-label and duplicate-label."""
    defined: Dict[str, str] = {}  # label -> "func/block" description
    for func in module.functions:
        for place, name in [(f"function {func.name}", func.name)] + [
            (f"{func.name} block {bi}", label)
            for bi, block in enumerate(func.blocks)
            for label in block.labels
            if label != func.name
        ]:
            if name in defined:
                report.findings.append(Finding(
                    rule="duplicate-label", severity=Severity.ERROR,
                    message=f"label {name!r} already defined at "
                            f"{defined[name]}",
                    function=func.name,
                ))
            else:
                defined[name] = place

    all_labels = module.defined_labels()
    for func in module.functions:
        for bi, block in enumerate(func.blocks):
            for ii, insn in enumerate(block.instructions):
                target = insn.label_target
                if target is not None and target not in all_labels:
                    report.findings.append(Finding(
                        rule="undefined-label", severity=Severity.ERROR,
                        message=f"branch target {target!r} is not defined",
                        function=func.name, block=bi, insn=ii,
                        text=str(insn),
                    ))
                literal = pseudo_literal(insn)
                if literal is not None:
                    name = literal.name
                    numeric = name.isdigit() or (
                        name.startswith("-") and name[1:].isdigit()
                    )
                    if not numeric and name not in all_labels:
                        report.findings.append(Finding(
                            rule="undefined-label", severity=Severity.ERROR,
                            message=f"literal reference ={name} is not "
                                    f"defined",
                            function=func.name, block=bi, insn=ii,
                            text=str(insn),
                        ))


def _check_block_shape(module: Module, cfg: ModuleCFG,
                       report: LintReport) -> None:
    """mid-block-transfer, function-fallthrough and empty-block."""
    for func in module.functions:
        for bi, block in enumerate(func.blocks):
            if not block.instructions:
                report.findings.append(Finding(
                    rule="empty-block", severity=Severity.INFO,
                    message="block holds no instructions",
                    function=func.name, block=bi,
                ))
                continue
            for ii, insn in enumerate(block.instructions[:-1]):
                if _is_control_transfer(insn):
                    report.findings.append(Finding(
                        rule="mid-block-transfer", severity=Severity.ERROR,
                        message="control transfer before the final slot",
                        function=func.name, block=bi, insn=ii,
                        text=str(insn),
                    ))
        if func.blocks:
            last = func.blocks[-1]
            if last.falls_through and not (
                last.instructions and _is_exit_swi(last.instructions[-1])
            ):
                report.findings.append(Finding(
                    rule="function-fallthrough", severity=Severity.ERROR,
                    message="the function's last block can fall through "
                            "past the function boundary",
                    function=func.name, block=len(func.blocks) - 1,
                ))


def _check_pool_range(module: Module, report: LintReport) -> None:
    """pool-range: replicate the layout address assignment exactly."""
    addr = 0
    for func in module.functions:
        pending: List[Tuple[int, int, object, int]] = []  # bi, ii, lit, at
        for bi, block in enumerate(func.blocks):
            for ii, insn in enumerate(block.instructions):
                literal = pseudo_literal(insn)
                if literal is not None:
                    pending.append((bi, ii, literal, addr))
                addr += 4
        pool = plan_pool(func.iter_instructions())
        slot_addr = {
            literal: addr + 4 * slot
            for slot, literal in enumerate(pool.literals)
        }
        addr += 4 * len(pool)
        for bi, ii, literal, at in pending:
            offset = slot_addr[literal] - (at + 8)
            if not -POOL_RANGE < offset < POOL_RANGE:
                report.findings.append(Finding(
                    rule="pool-range", severity=Severity.ERROR,
                    message=f"literal ={literal} is {offset} bytes from "
                            f"its pool slot (pc-relative reach is "
                            f"±{POOL_RANGE - 1})",
                    function=func.name, block=bi, insn=ii,
                ))


def _check_undefined_reads(module: Module, cfg: ModuleCFG,
                           report: LintReport) -> None:
    """undefined-flag-read and undefined-register-read."""
    chains = flag_def_use(module, cfg)
    for (func_name, bi, ii), defs in sorted(chains.items()):
        bad = sorted(d for d in defs if d[0] in ("undef", "clobber"))
        if bad:
            insn = cfg.blocks[(func_name, bi)].instructions[ii]
            sources = ", ".join(
                f"undefined at entry of {d[1]}" if d[0] == "undef"
                else "clobbered by call to unknown callee at "
                     f"{d[1]} block {d[2]} insn {d[3]}"
                for d in bad
            )
            report.findings.append(Finding(
                rule="undefined-flag-read", severity=Severity.ERROR,
                message=f"flags may be unset on some path ({sources})",
                function=func_name, block=bi, insn=ii, text=str(insn),
            ))

    undef = maybe_undef(module, cfg)
    for key in cfg.keys:
        state = set(undef.in_facts[key])
        for ii, insn in enumerate(cfg.blocks[key].instructions):
            if insn.mnemonic not in ("bl", "swi"):
                # bl/swi read sets model the calling convention, not
                # real operand reads — checking them would flag every
                # call to a function taking fewer than four arguments.
                reads, __ = insn_accesses(insn)
                bad_regs = sorted(
                    r for r in reads if r != FLAGS and r in state
                )
                if bad_regs:
                    names = ", ".join(reg_name(r) for r in bad_regs)
                    report.findings.append(Finding(
                        rule="undefined-register-read",
                        severity=Severity.WARNING,
                        message=f"reads {names} which may hold callee "
                                f"garbage after a call",
                        function=key[0], block=key[1], insn=ii,
                        text=str(insn),
                    ))
            step_undef(state, insn)


def _check_reachability(module: Module, cfg: ModuleCFG,
                        report: LintReport) -> None:
    """unreachable-block — one finding per dead *region*, not per block.

    Dead library helpers the linker kept are common (a whole never-called
    function body is one connected unreachable region); reporting every
    block of it separately would drown real findings.
    """
    reached = cfg.reachable()
    dead = [key for key in cfg.keys if key not in reached]
    dead_set = set(dead)
    visited: Set[Tuple[str, int]] = set()
    for key in dead:
        if key in visited:
            continue
        if any(p in dead_set and p not in visited for p in cfg.pred[key]):
            continue  # not a region head; will be swept from its head
        region = [key]
        visited.add(key)
        stack = [key]
        while stack:
            for nxt in cfg.succ[stack.pop()]:
                if nxt in dead_set and nxt not in visited:
                    visited.add(nxt)
                    region.append(nxt)
                    stack.append(nxt)
        labels = cfg.blocks[key].labels
        name = f" ({labels[0]})" if labels else ""
        report.findings.append(Finding(
            rule="unreachable-block", severity=Severity.WARNING,
            message=f"no function entry reaches this block{name}; "
                    f"{len(region)} block(s) dead from here",
            function=key[0], block=key[1],
        ))
    # safety net: dead cycles with no head still get reported
    for key in dead:
        if key not in visited:
            visited.add(key)
            report.findings.append(Finding(
                rule="unreachable-block", severity=Severity.WARNING,
                message="no function entry reaches this block",
                function=key[0], block=key[1],
            ))


#: Event kind -> (lint rule, severity) for the absint-backed rules.
_ABSINT_RULES = {
    RETURN_MISMATCH: ("stack-imbalance", Severity.ERROR),
    NONZERO_RETURN: ("stack-nonzero-return", Severity.WARNING),
    NEGATIVE_HEIGHT: ("stack-negative", Severity.WARNING),
    HEIGHT_LOST: ("stack-unknown", Severity.INFO),
    RETADDR_CLOBBER: ("clobbered-saved-lr", Severity.ERROR),
    HEIGHT_MISMATCH: ("unbalanced-stack", Severity.ERROR),
    UNINIT_READ: ("uninit-read", Severity.WARNING),
    CALLER_READ: ("caller-frame-escape", Severity.WARNING),
    CALLER_WRITE: ("caller-frame-escape", Severity.WARNING),
    GROWTH_CYCLE: ("unbounded-stack-growth", Severity.WARNING),
}


def _check_absint(module: Module, cfg: ModuleCFG, report: LintReport,
                  audit: Optional[AuditResult]) -> None:
    """The nine absint-backed rules: each event maps to one finding."""
    audit = audit or audit_module(module, cfg)
    for event in audit.events:
        rule, severity = _ABSINT_RULES[event.kind]
        text = None
        if event.insn is not None:
            key = (event.function, event.block)
            text = str(cfg.blocks[key].instructions[event.insn])
        report.findings.append(Finding(
            rule=rule, severity=severity, message=event.detail,
            function=event.function, block=event.block,
            insn=event.insn, text=text,
        ))


#: Mnemonics safe to flag as dead stores: pure register computations
#: with no memory, flag, control or convention side effects.
_PURE_WRITERS = frozenset(
    {"and", "eor", "sub", "rsb", "add", "adc", "sbc", "rsc", "orr",
     "bic", "mov", "mvn", "mul", "mla"}
)


def _check_dead_stores(module: Module, cfg: ModuleCFG,
                       report: LintReport) -> None:
    """dead-store: an unconditional register write no path reads."""
    result = liveness(module, cfg)
    for key in cfg.keys:
        live = set(result.out_facts[key])
        block = cfg.blocks[key]
        dead: List[Tuple[int, Instruction, int]] = []
        for ii in range(len(block.instructions) - 1, -1, -1):
            insn = block.instructions[ii]
            reads, writes = insn_accesses(insn)
            if (
                insn.mnemonic in _PURE_WRITERS
                and not insn.is_conditional
                and not insn.set_flags
                and len(writes) == 1
            ):
                rd = next(iter(writes))
                if isinstance(rd, int) and rd < 13 and rd not in live:
                    dead.append((ii, insn, rd))
            if not insn.is_conditional:
                live -= writes
            live |= reads
        for ii, insn, rd in reversed(dead):
            report.findings.append(Finding(
                rule="dead-store", severity=Severity.INFO,
                message=f"writes {reg_name(rd)} but no path reads it "
                        f"afterwards",
                function=key[0], block=key[1], insn=ii, text=str(insn),
            ))
