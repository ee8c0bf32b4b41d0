"""Module-wide link-register liveness.

Call outlining inserts a ``bl``, which clobbers ``lr``.  Readers of
``lr`` *inside* the rewritten block are ordered before the call site by
the extraction machinery — but ``lr`` can also be live *across* blocks:
leaf-style functions keep their return address in ``lr`` until a final
``mov pc, lr``, and cross-jumping can move that reader into a shared
tail in a different function.  A per-block check is therefore unsound
(this exact scenario produced a miscompile on rijndael: outlining two
instructions from an earlier-outlined procedure whose ``mov pc, lr``
had been tail-merged away).

The analysis is the full per-register liveness pass of
:mod:`repro.verify.passes` over the module-wide CFG
(:func:`repro.verify.cfg.build_module_cfg`, where branch labels resolve
across function boundaries), projected onto ``lr``.  Liveness is
backward and ``bl`` is not a CFG edge, so it is solved per
weakly-connected component (:meth:`~repro.verify.cfg.ModuleCFG.components`,
the split absint uses too).  A PA round rewrites only a few functions,
so the run's :class:`~repro.verify.dataflow.AnalysisMemo` keeps each
component's ``lr``-live-out set, keyed on the component's content, and
a round re-solves only the components its rewrites changed.  The
legality gate and the translation validator consume this analysis from
opposite sides: one to block unsound rewrites, the other to prove the
applied ones sound.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

from repro.binary.program import Module
from repro.isa.registers import LR
from repro.telemetry import GLOBAL as _TELEMETRY
from repro.verify.cfg import BlockKey, ModuleCFG, build_module_cfg
from repro.verify.dataflow import AnalysisMemo, solve
from repro.verify.passes import LivenessAnalysis


def lr_live_out_blocks(module: Module,
                       memo: Optional[AnalysisMemo] = None,
                       cfg: Optional[ModuleCFG] = None) -> Set[BlockKey]:
    """Blocks whose ``lr`` value is consumed on some path after them.

    *memo* is the run's memo; *cfg*, when given, is *module*'s CFG.
    """
    cfg = cfg or build_module_cfg(module)
    table = (memo or AnalysisMemo()).liveness
    table.begin()
    solves_before = table.solves
    live: Set[BlockKey] = set()
    components = cfg.components()
    with _TELEMETRY.span("verify.pass", analysis="liveness"):
        for component in components:
            live |= table.get(component.content, _lr_live, component.cfg)
    if _TELEMETRY.enabled:
        _TELEMETRY.count("verify.liveness.components", len(components))
        _TELEMETRY.count("verify.liveness.solves",
                         table.solves - solves_before)
    return live


def _lr_live(cfg: ModuleCFG) -> FrozenSet[BlockKey]:
    result = solve(cfg, LivenessAnalysis())
    return frozenset(
        key for key, live in result.out_facts.items() if LR in live
    )
