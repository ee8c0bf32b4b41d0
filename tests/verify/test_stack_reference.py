"""Lint's stack rules against the depth-set pass they replaced.

Lint v1 answered "where is sp?" with its own forward analysis: a set of
possible byte depths per block (``StackDepthAnalysis``), iterated
per-function net effects (``function_summaries``) and a rule pass over
them (``_check_stack``).  Now the four ``stack-*`` rules are events of
the abstract interpreter, the one stack analysis left.  The reference
below is that pass and its rule pass, verbatim; lint must report the
same ``(rule, function, block, insn)`` stack findings on the bundled
programs (original, after SFX, after Edgar) and on generated ones.

The only differences are intended, and :func:`pinned` applies the one
that shows on code without a conditional ``sp`` move: ``stack-negative``
fires at the instruction that raises ``sp``, not at each later one.
The shape table in ``test_lint.py`` pins the others (a conditional
``sp`` move and a merge at two heights are ``unbalanced-stack``; a
conditional return is no longer a false ``stack-imbalance``).  The
random functions below also skip dead code that loses ``sp``, which
the old pass let leak into live code.
"""

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.binary.program import BasicBlock, Module
from repro.isa.instructions import Instruction
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import SP
from repro.minicc.driver import compile_to_module
from repro.pa.driver import PAConfig, run_pa
from repro.pa.sfx import run_sfx
from repro.telemetry import GLOBAL as _TELEMETRY
from repro.variance.genprog import generate_source, sized_config
from repro.verify.absint import GROWTH_CYCLE, HEIGHT_MISMATCH, audit_module
from repro.verify.cfg import BlockKey, ModuleCFG, build_module_cfg
from repro.verify.dataflow import FORWARD, Analysis, DataflowResult, solve
from repro.verify.lint import Finding, LintReport, Severity, lint_module
from repro.workloads import PROGRAMS, compile_workload

from tests.conftest import module_from_source


# ----------------------------------------------------------------------
# the reference: verify/passes.py's depth-set pass and lint's
# _check_stack, verbatim
# ----------------------------------------------------------------------
#: ``TOP`` means sp escaped affine tracking (e.g. ``mov sp, r0``).
TOP = None

#: A stack-depth fact: the set of possible byte depths, or :data:`TOP`.
DepthSet = Optional[FrozenSet[int]]

#: Beyond this many distinct depths the fact widens to TOP — both a
#: termination guarantee (an unbalanced loop otherwise grows the set
#: forever) and a report-noise cap.
MAX_DEPTHS = 16


def sp_delta(insn: Instruction,
             summaries: Optional[Dict[str, Optional[int]]] = None
             ) -> Optional[int]:
    """Bytes of stack the instruction *grows* (sp decrement positive).

    Returns 0 for instructions that leave ``sp`` alone and ``None`` when
    the effect cannot be tracked affinely.  *summaries* supplies the net
    stack effect of called functions (see :func:`function_summaries`);
    without it calls are assumed balanced — true for convention-
    respecting code, but an outlined helper may legitimately carry an
    unmatched ``push`` or ``pop`` that its call sites compensate.
    """
    if insn.mnemonic == "push":
        return 4 * len(insn.operands[0].regs)
    if insn.mnemonic == "pop":
        regs = insn.operands[0].regs
        if SP in regs:
            return None  # pop into sp: value comes from memory
        return -4 * len(regs)
    if insn.is_call:
        if summaries is None:
            return 0
        return summaries.get(insn.label_target, 0)
    writes_sp = SP in insn.regs_written()
    if not writes_sp:
        return 0
    if (
        insn.mnemonic in ("add", "sub")
        and insn.operands[0] == Reg(SP)
        and insn.operands[1] == Reg(SP)
        and isinstance(insn.operands[2], Imm)
    ):
        value = insn.operands[2].value
        return value if insn.mnemonic == "sub" else -value
    if insn.mnemonic in ("ldr", "ldrb", "str", "strb"):
        mem = insn.operands[1]
        if isinstance(mem, Mem) and mem.writeback and mem.base == SP \
                and mem.index is None:
            return -mem.offset  # writeback adds the offset to sp
    return None


class StackDepthAnalysis(Analysis):
    """Forward per-function stack depth in bytes since function entry.

    Facts are frozensets of possible depths, or :data:`TOP`.  Function
    entries start at depth 0; cross-function edges (shared cross-jump
    tails) simply propagate the feeders' depths, which agree in any
    balanced program.
    """

    direction = FORWARD

    def __init__(self,
                 summaries: Optional[Dict[str, Optional[int]]] = None
                 ) -> None:
        self.summaries = summaries

    def boundary(self, cfg: ModuleCFG, key: BlockKey) -> DepthSet:
        return frozenset({0})

    def initial(self, cfg: ModuleCFG, key: BlockKey) -> DepthSet:
        return frozenset()

    def join(self, a: DepthSet, b: DepthSet) -> DepthSet:
        if a is TOP or b is TOP:
            return TOP
        merged = a | b
        return TOP if len(merged) > MAX_DEPTHS else merged

    def transfer(self, key: BlockKey, block: BasicBlock,
                 depths: DepthSet) -> DepthSet:
        for insn in block.instructions:
            depths = step_depth(depths, insn, self.summaries)
        return depths


def step_depth(depths: DepthSet, insn: Instruction,
               summaries: Optional[Dict[str, Optional[int]]] = None
               ) -> DepthSet:
    """Advance a depth set across one instruction (TOP-propagating)."""
    if depths is TOP:
        return TOP
    delta = sp_delta(insn, summaries)
    if delta is None:
        return TOP
    if delta == 0:
        return depths
    moved = frozenset(d + delta for d in depths)
    if insn.is_conditional:
        moved = moved | depths
    return TOP if len(moved) > MAX_DEPTHS else moved


def return_depth(cfg: ModuleCFG, result: DataflowResult, key: BlockKey,
                 index: int,
                 summaries: Optional[Dict[str, Optional[int]]] = None
                 ) -> DepthSet:
    """Depth set at the moment a return at (*key*, *index*) transfers.

    For ``pop {…, pc}`` the pop has restored ``sp`` by the time control
    leaves; for lr-based returns ``sp`` is unchanged.
    """
    depths = result.in_facts[key]
    block = cfg.blocks[key]
    for ii in range(index):
        depths = step_depth(depths, block.instructions[ii], summaries)
    insn = block.instructions[index]
    if insn.mnemonic == "pop":
        depths = step_depth(depths, insn, summaries)
    return depths


def function_summaries(
    module: Module, cfg: Optional[ModuleCFG] = None, max_iterations: int = 4
) -> Dict[str, Optional[int]]:
    """Net stack effect of every function (bytes grown at return).

    Convention-respecting functions summarize to 0; an outlined helper
    with an unmatched ``push`` summarizes to its residue.  ``TOP`` when
    the function's returns disagree or escape tracking.  Summaries are
    iterated to a fixpoint so helpers-calling-helpers resolve.
    """
    cfg = cfg or build_module_cfg(module)
    reach_cache: Dict[str, set] = {}
    summaries: Dict[str, Optional[int]] = {}
    for __ in range(max_iterations):
        result = solve(cfg, StackDepthAnalysis(summaries))
        updated: Dict[str, Optional[int]] = {}
        for func in module.functions:
            if not func.blocks:
                updated[func.name] = 0
                continue
            if func.name not in reach_cache:
                reach_cache[func.name] = cfg.reachable([(func.name, 0)])
            depths_seen = set()
            top = False
            for key in reach_cache[func.name]:
                block = cfg.blocks[key]
                for ii, insn in enumerate(block.instructions):
                    if insn.is_return:
                        at = return_depth(cfg, result, key, ii, summaries)
                        if at is TOP:
                            top = True
                        else:
                            depths_seen |= at
            if top or len(depths_seen) > 1:
                updated[func.name] = TOP
            elif depths_seen:
                updated[func.name] = depths_seen.pop()
            else:
                updated[func.name] = 0  # never returns (exits via swi)
        if updated == summaries:
            break
        summaries = updated
    return summaries


def stack_depths(
    module: Module,
    cfg: Optional[ModuleCFG] = None,
    summaries: Optional[Dict[str, Optional[int]]] = None,
) -> DataflowResult:
    cfg = cfg or build_module_cfg(module)
    with _TELEMETRY.span("verify.pass", analysis="stack_depth"):
        return solve(cfg, StackDepthAnalysis(summaries))


def _check_stack(module: Module, cfg: ModuleCFG,
                 report: LintReport) -> None:
    """stack-imbalance, stack-nonzero-return, stack-negative, stack-unknown.

    Runs the interprocedural variant of the depth pass: each call applies
    its callee's net stack effect, so callers of deliberately imbalanced
    outlined helpers still check out.  Per function, *inconsistent*
    return depths are an error; a consistent non-zero depth is only a
    warning because an outlined helper may carry an unmatched push or pop
    that every call site compensates.
    """
    summaries = function_summaries(module, cfg)
    result = stack_depths(module, cfg, summaries)
    unknown_reported: Set[str] = set()
    return_sites: Dict[str, List[Tuple[int, int, Instruction, frozenset]]]
    return_sites = {}
    for key in cfg.keys:
        func_name, bi = key
        depths = result.in_facts[key]
        if depths == frozenset():
            continue  # unreachable; reported separately
        for ii, insn in enumerate(cfg.blocks[key].instructions):
            after = step_depth(depths, insn, summaries)
            if after is TOP and depths is not TOP:
                if func_name not in unknown_reported:
                    unknown_reported.add(func_name)
                    report.findings.append(Finding(
                        rule="stack-unknown", severity=Severity.INFO,
                        message="sp escapes affine tracking here; stack "
                                "checks are suppressed downstream",
                        function=func_name, block=bi, insn=ii,
                        text=str(insn),
                    ))
            if after is not TOP and any(d < 0 for d in after):
                report.findings.append(Finding(
                    rule="stack-negative", severity=Severity.WARNING,
                    message="sp can rise above its function-entry value "
                            f"(depths {sorted(after)})",
                    function=func_name, block=bi, insn=ii,
                    text=str(insn),
                ))
            if insn.is_return:
                # For pop {…, pc} the pop has restored sp by the time
                # control leaves; for lr-based returns sp is unchanged.
                at_return = after if insn.mnemonic == "pop" else depths
                if at_return is not TOP:
                    return_sites.setdefault(func_name, []).append(
                        (bi, ii, insn, at_return)
                    )
            depths = after

    for func_name, sites in return_sites.items():
        union = frozenset().union(*(at for __, __, __, at in sites))
        if len(union) > 1:
            bi, ii, insn, __ = sites[0]
            report.findings.append(Finding(
                rule="stack-imbalance", severity=Severity.ERROR,
                message="returns of this function are reached at "
                        f"inconsistent stack depths {sorted(union)}",
                function=func_name, block=bi, insn=ii, text=str(insn),
            ))
        elif union and next(iter(union)) != 0:
            bi, ii, insn, __ = sites[0]
            depth = next(iter(union))
            report.findings.append(Finding(
                rule="stack-nonzero-return", severity=Severity.WARNING,
                message=f"function consistently returns at depth {depth}; "
                        "legitimate only if every call site compensates",
                function=func_name, block=bi, insn=ii, text=str(insn),
            ))


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
STACK_RULES = frozenset({"stack-imbalance", "stack-nonzero-return",
                         "stack-negative", "stack-unknown"})

Site = Tuple[str, str, Optional[int], Optional[int]]


def _sites(findings: List[Finding]) -> List[Site]:
    return sorted((f.rule, f.function, f.block, f.insn) for f in findings
                  if f.rule in STACK_RULES)


def reference_findings(module: Module) -> List[Site]:
    """The stack findings of the depth-set pass."""
    report = LintReport()
    _check_stack(module, build_module_cfg(module), report)
    return _sites(report.findings)


def stack_findings(module: Module) -> List[Site]:
    """The stack findings lint reports now."""
    return _sites(lint_module(module).findings)


def pinned(module: Module, sites: List[Site]) -> List[Site]:
    """*sites* with ``stack-negative`` kept only where ``sp`` rises."""
    cfg = build_module_cfg(module)
    summaries = function_summaries(module, cfg)
    kept = []
    for site in sites:
        rule, function, block, insn = site
        if rule == "stack-negative":
            delta = sp_delta(cfg.blocks[(function, block)].instructions[insn],
                             summaries)
            if delta is None or delta >= 0:
                continue
        kept.append(site)
    return kept


def assert_same_findings(module: Module) -> List[Site]:
    want = pinned(module, reference_findings(module))
    got = stack_findings(module)
    assert got == want
    return got


@pytest.mark.parametrize("name", PROGRAMS)
def test_programs_original_and_after_sfx(name):
    module = compile_workload(name)
    assert assert_same_findings(module) == []
    assert_same_findings(run_sfx(module).module)


@pytest.mark.parametrize("name", ["crc", "dijkstra", "search"])
def test_programs_after_edgar(name):
    result = run_pa(compile_workload(name), PAConfig(miner="edgar"))
    assert result.records
    assert_same_findings(result.module)


@pytest.mark.slow
@pytest.mark.parametrize("name", PROGRAMS)
def test_every_program_after_edgar(name):
    config = PAConfig(miner="edgar")
    if name in ("sha", "rijndael", "bitcnts"):
        config = PAConfig(miner="edgar", max_nodes=5)
    assert_same_findings(run_pa(compile_workload(name), config).module)


def test_generated_programs_original_and_after_sfx():
    seen: List[Site] = []
    for seed in range(1, 21):
        module = compile_to_module(generate_source(sized_config(seed, 200)))
        seen += assert_same_findings(module)
        seen += assert_same_findings(run_sfx(module).module)
    # one generated helper keeps an unmatched ``sub sp`` after SFX
    assert {rule for rule, *__ in seen} == {"stack-nonzero-return"}


# ----------------------------------------------------------------------
# random small functions
# ----------------------------------------------------------------------
#: Straight-line statements; ``{call}`` becomes a ``bl`` to a later
#: function, ``{label}`` a label of the same function.
STATEMENTS = [
    "push {r4, lr}", "push {r4}", "push {r4, r5, r6}", "pop {r4}",
    "pop {r4, r5}", "sub sp, sp, #8", "add sp, sp, #4", "sub sp, sp, #4",
    "add sp, sp, #12", "mov r0, #1", "add r1, r1, #1", "{call}",
    "cmp r0, #0\n    beq {label}", "cmp r1, #3\n    bne {label}",
    "mov sp, r0",
]

#: How a segment ends: fall through, branch, or return.
ENDINGS = ["", "", "b {label}", "pop {r4, pc}", "pop {pc}", "bx lr",
           "mov pc, lr"]

RETURNS = ENDINGS[3:]


@st.composite
def small_programs(draw) -> str:
    """``_start`` plus up to three functions of up to four labelled
    segments; a function only calls later ones, so the call graph is
    acyclic and both analyses' summaries converge."""
    count = draw(st.integers(1, 3))
    lines = ["_start:"]
    lines += [f"    bl f{i}" for i in range(count)]
    lines += ["    mov r0, #0", "    swi #0"]
    for index in range(count):
        segments = draw(st.integers(1, 4))

        def label() -> str:
            target = draw(st.integers(0, segments - 1))
            return f"f{index}_{target}" if target else f"f{index}"

        for segment in range(segments):
            lines.append(f"f{index}_{segment}:" if segment else f"f{index}:")
            for text in draw(st.lists(st.sampled_from(STATEMENTS),
                                      max_size=6)):
                if text == "{call}":
                    if index + 1 == count:
                        continue
                    text = f"bl f{draw(st.integers(index + 1, count - 1))}"
                if "{label}" in text:
                    text = text.replace("{label}", label())
                lines.append("    " + text)
            last = segment + 1 == segments
            ending = draw(st.sampled_from(RETURNS if last else ENDINGS))
            if "{label}" in ending:
                ending = ending.replace("{label}", label())
            if ending:
                lines.append("    " + ending)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_programs())
def test_random_small_functions(source):
    module = module_from_source(source)
    cfg = build_module_cfg(module)
    summaries = function_summaries(module, cfg)
    reached = cfg.reachable()
    if any(sp_delta(insn, summaries) is None
           for key in cfg.keys if key not in reached
           for insn in cfg.blocks[key].instructions):
        # the depth-set pass steps a dead block's empty set through
        # ``mov sp, r0`` to TOP and joins that into live code; absint
        # keeps dead blocks at bottom
        return
    kinds = {event.kind for event in audit_module(module).events}
    if kinds & {HEIGHT_MISMATCH, GROWTH_CYCLE}:
        return  # the depth-set pass has no name for these
    assert_same_findings(module)
