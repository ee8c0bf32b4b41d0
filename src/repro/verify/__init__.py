"""Static verification: dataflow analyses, the module linter, and the
per-round translation validator.

This package is the independent checker of the abstraction pipeline
(ISSUE: the transformation and its verifier are separate code paths so
one catches the other's bugs).  Layering:

* :mod:`repro.verify.cfg` — module-wide CFG over basic blocks,
* :mod:`repro.verify.dataflow` — the generic worklist solver,
* :mod:`repro.verify.passes` — liveness, maybe-undefined, flag def-use
  and stack-depth analyses built on the solver,
* :mod:`repro.verify.domains` — abstract value/stack/frame lattices,
* :mod:`repro.verify.absint` — the interprocedural abstract interpreter
  (``repro audit``, the sp-fragility facts, the lint v2 rules),
* :mod:`repro.verify.lint` — the invariant linter (``repro lint``),
* :mod:`repro.verify.symeval` — symbolic per-block evaluation,
* :mod:`repro.verify.validate` — the per-round translation validator
  behind ``repro pa --verify``.
"""

from repro.verify.absint import (
    AbsEvent,
    AuditMemo,
    AuditResult,
    FuncSummary,
    audit_module,
    module_summaries,
)
from repro.verify.cfg import BlockKey, ModuleCFG, build_module_cfg
from repro.verify.dataflow import (
    Analysis,
    BACKWARD,
    ConvergenceError,
    DataflowResult,
    FORWARD,
    solve,
)
from repro.verify.lint import Finding, LintReport, Severity, lint_module
from repro.verify.passes import (
    flag_def_use,
    flag_effect_summaries,
    function_summaries,
    live_out_blocks,
    liveness,
    maybe_undef,
    stack_depths,
)
from repro.verify.symeval import BlockEvaluator, SymEvalError, SymState
from repro.verify.validate import (
    Counterexample,
    RoundVerification,
    StructureError,
    TranslationValidationError,
    VerificationError,
    outlined_body,
    snapshot_module,
    verify_round,
)

__all__ = [
    "AbsEvent",
    "Analysis",
    "AuditMemo",
    "AuditResult",
    "BACKWARD",
    "BlockEvaluator",
    "BlockKey",
    "ConvergenceError",
    "Counterexample",
    "FuncSummary",
    "audit_module",
    "module_summaries",
    "DataflowResult",
    "FORWARD",
    "Finding",
    "LintReport",
    "ModuleCFG",
    "RoundVerification",
    "Severity",
    "StructureError",
    "SymEvalError",
    "SymState",
    "TranslationValidationError",
    "VerificationError",
    "build_module_cfg",
    "flag_def_use",
    "flag_effect_summaries",
    "function_summaries",
    "lint_module",
    "live_out_blocks",
    "liveness",
    "maybe_undef",
    "outlined_body",
    "snapshot_module",
    "solve",
    "stack_depths",
    "verify_round",
]
