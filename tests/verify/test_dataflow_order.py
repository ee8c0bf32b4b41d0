"""The reverse-post-order solver reaches the FIFO solver's fixpoints.

:func:`reference_solve` below is the solver :func:`solve` replaced: a
FIFO worklist seeded in module order (reversed for backward problems)
that transfers every block it pops.  Every bundled analysis joins by a
least upper bound over a finite-height lattice and transfers
monotonically, so both solvers must stop at the same least fixpoint;
only the number of visits may differ.  A transfer that is not monotone
would make the two disagree, and these checks would catch it.
"""

from collections import deque

import pytest

from repro.minicc.driver import compile_to_module
from repro.pa.driver import PAConfig, run_pa
from repro.pa.sfx import run_sfx
from repro.variance.genprog import generate_source, sized_config
from repro.verify.absint import AbsIntAnalysis, audit_module
from repro.verify.cfg import build_module_cfg
from repro.verify.dataflow import (
    FORWARD,
    MAX_VISITS_PER_BLOCK,
    ConvergenceError,
    DataflowResult,
    solve,
    visit_order,
)
from repro.verify.passes import LivenessAnalysis
from repro.workloads import PROGRAMS, compile_workload

from tests.conftest import module_from_source


def reference_solve(cfg, analysis,
                    max_visits_per_block=MAX_VISITS_PER_BLOCK):
    """The FIFO worklist solver."""
    forward = analysis.direction == FORWARD
    edges_in = cfg.pred if forward else cfg.succ
    edges_out = cfg.succ if forward else cfg.pred
    boundary_keys = set(cfg.entries if forward else cfg.exits())

    inputs = {}
    outputs = {}
    for key in cfg.keys:
        inputs[key] = analysis.initial(cfg, key)
        if key in boundary_keys:
            inputs[key] = analysis.join(
                inputs[key], analysis.boundary(cfg, key)
            )
        outputs[key] = analysis.transfer(key, cfg.blocks[key], inputs[key])

    worklist = deque(cfg.keys if forward else reversed(cfg.keys))
    queued = set(worklist)
    iterations = 0
    bound = max_visits_per_block * max(1, len(cfg.keys))
    while worklist:
        key = worklist.popleft()
        queued.discard(key)
        iterations += 1
        if iterations > bound:
            raise ConvergenceError(f"reference exceeded {bound} visits")
        fact = analysis.initial(cfg, key)
        if key in boundary_keys:
            fact = analysis.join(fact, analysis.boundary(cfg, key))
        for source in edges_in[key]:
            fact = analysis.join(fact, outputs[source])
        inputs[key] = fact
        new_out = analysis.transfer(key, cfg.blocks[key], fact)
        if new_out != outputs[key]:
            outputs[key] = new_out
            for dependent in edges_out[key]:
                if dependent not in queued:
                    queued.add(dependent)
                    worklist.append(dependent)

    if forward:
        return DataflowResult(in_facts=inputs, out_facts=outputs,
                              iterations=iterations)
    return DataflowResult(in_facts=outputs, out_facts=inputs,
                          iterations=iterations)


def compare_components(module):
    """Solve every component both ways under both analyses.

    Returns the mismatching ``(analysis, first key)`` pairs and the
    total visits of each solver.
    """
    summaries = audit_module(module).summaries
    mismatches = []
    visits = {"solve": 0, "reference": 0}
    for component in build_module_cfg(module).components():
        for analysis in (AbsIntAnalysis(summaries), LivenessAnalysis()):
            got = solve(component.cfg, analysis)
            want = reference_solve(component.cfg, analysis)
            if (got.in_facts != want.in_facts
                    or got.out_facts != want.out_facts):
                mismatches.append((type(analysis).__name__,
                                   component.cfg.keys[0]))
            visits["solve"] += got.iterations
            visits["reference"] += want.iterations
    return mismatches, visits


@pytest.mark.parametrize("name", PROGRAMS)
def test_every_component_matches_the_fifo_fixpoint(name):
    """Pristine, after SFX, and after Edgar at ``max_nodes`` 5."""
    states = {
        "pristine": compile_workload(name),
        "sfx": run_sfx(compile_workload(name)).module,
        "edgar": run_pa(compile_workload(name),
                        PAConfig(miner="edgar", max_nodes=5)).module,
    }
    for state, program in states.items():
        mismatches, visits = compare_components(program)
        assert mismatches == [], state
        assert visits["solve"] <= visits["reference"], state


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 11))
def test_generated_programs_match_the_fifo_fixpoint(seed):
    """Fuzzed programs of about 300 instructions, before and after SFX."""
    module = compile_to_module(generate_source(sized_config(seed, 300)))
    assert compare_components(module)[0] == []
    assert compare_components(run_sfx(module).module)[0] == []


NESTED_LOOPS = """
_start:
    mov r0, #0
    mov r1, #4
outer:
    mov r2, #4
inner:
    add r0, r0, r2
    sub r2, r2, #1
    cmp r2, #0
    bne inner
    sub r1, r1, #1
    cmp r1, #0
    bne outer
after:
    add r3, r0, #1
    mov r0, r3
    swi #0
"""


class CountingAbsInt(AbsIntAnalysis):
    """Abstract interpretation that counts transfers per block."""

    def __init__(self):
        super().__init__({})
        self.transfers = {}

    def transfer(self, key, block, state):
        self.transfers[key] = self.transfers.get(key, 0) + 1
        return super().transfer(key, block, state)


def test_block_after_a_nested_loop_is_transferred_less():
    """FIFO steps the code after a loop on every trip around it; the
    reverse post-order reaches it once the loop has settled."""
    cfg = build_module_cfg(module_from_source(NESTED_LOOPS))
    after = next(key for key in cfg.keys
                 if "after" in cfg.blocks[key].labels)
    fast, slow = CountingAbsInt(), CountingAbsInt()
    got = solve(cfg, fast)
    want = reference_solve(cfg, slow)
    assert got.in_facts == want.in_facts
    assert got.out_facts == want.out_facts
    assert fast.transfers[after] < slow.transfers[after]
    assert sum(fast.transfers.values()) < sum(slow.transfers.values())


def test_visit_order_is_reverse_post_order():
    cfg = build_module_cfg(module_from_source(NESTED_LOOPS))
    labels = [cfg.blocks[key].labels[:1] for key in visit_order(cfg)]
    assert labels == [[], ["outer"], ["inner"], [], ["after"]]
    backward = [cfg.blocks[key].labels[:1]
                for key in visit_order(cfg, forward=False)]
    assert backward[0] == ["after"]
    assert set(visit_order(cfg, forward=False)) == set(cfg.keys)
