"""The differential compilation-variance harness.

For one mini-C source and a variant grid (:mod:`repro.variance.grid`),
the harness answers three questions the paper's robustness claim turns
on:

1. **Does abstraction stay correct under every build?**  Each variant
   is compiled, abstracted, and both the original and the abstracted
   image are executed end to end in the simulator; the *oracle* diffs
   the observable behaviour (output bytes, exit code) **and** the final
   data-section machine state word by word.  Any disagreement is a
   miscompilation PA introduced on that variant.
2. **How much do the savings degrade?**  Per-variant saved-instruction
   counts, plus the max-to-min degradation ratio: a graph-based miner
   should keep finding the redundancy a scheduler or layout shuffle
   tried to hide.
3. **Do the variants find the *same* code?**  Every extracted fragment
   is fingerprinted by its canonical instruction labels
   (:func:`repro.pa.canonical.canonical_label` — registers and
   immediates abstracted away), and variant pairs are compared by
   Jaccard overlap of their fingerprint sets.

The report is versioned (``repro.variance/1``) and each variant leaves
a ``variance.variant`` decision-ledger record when the ledger is
enabled, so CI artifacts carry full provenance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.binary.image import Image
from repro.binary.layout import layout
from repro.isa.assembler import parse_instruction
from repro.minicc.driver import compile_to_module
from repro.pa.canonical import canonical_label
from repro.pa.driver import PAConfig, run_pa
from repro.pa.sfx import SFXConfig, run_sfx
from repro.sim.machine import Machine, RunResult
from repro.sim.sanitize import Sanitizer, counterexample_kinds
from repro.telemetry.events import emit

from repro.variance.grid import Variant, variant_grid

#: Version tag of the JSON report payload.
VARIANCE_SCHEMA = "repro.variance/1"


@dataclass(frozen=True)
class VarianceConfig:
    """Configuration of one variance sweep."""

    engine: str = "edgar"
    n_variants: int = 4
    grid_seed: int = 0
    max_nodes: int = 8
    time_budget: float = 60.0
    verify: bool = False
    max_steps: int = 50_000_000
    #: Run every oracle simulation under the stack sanitizer
    #: (:mod:`repro.sim.sanitize`); finding kinds the abstracted build
    #: trips that its own original build does not fail the oracle.
    sanitize: bool = False


@dataclass
class OracleVerdict:
    """Original vs. abstracted image, same variant, full-state diff."""

    ok: bool
    detail: str = ""


@dataclass
class VariantOutcome:
    """Everything measured about one grid cell."""

    variant: Variant
    instructions_before: int
    instructions_after: int
    rounds: int
    degraded: bool
    oracle: OracleVerdict
    fingerprints: frozenset = frozenset()
    #: (output bytes, exit code) of the original build — the
    #: cross-variant behaviour check compares these.
    behaviour: Tuple[bytes, int] = (b"", 0)

    @property
    def saved(self) -> int:
        return self.instructions_before - self.instructions_after


def _run_state(
    image: Image, max_steps: int, sanitize: bool = False
) -> Tuple[RunResult, List[int], Optional[Sanitizer]]:
    """Execute *image* and capture the final data-section words."""
    sanitizer = Sanitizer() if sanitize else None
    machine = Machine(image, max_steps=max_steps, sanitizer=sanitizer)
    result = machine.run()
    words = [
        machine.memory.load_word(image.data_base + 4 * i)
        for i in range(len(image.data))
    ]
    return result, words, sanitizer


def fragment_fingerprints(records: Sequence[Any]) -> frozenset:
    """Canonical fingerprints of all extracted fragments.

    Each fragment's instruction strings are re-parsed and relabelled
    canonically (registers -> ``R``, immediates -> ``I``, labels ->
    ``L``), so two variants that extracted the same computation under
    different register assignments or label names produce the same
    fingerprint — the overlap metric measures *what* was mined, not how
    it was spelled.
    """
    digests = set()
    for record in records:
        labels = tuple(
            canonical_label(parse_instruction(text))
            for text in record.instructions
        )
        blob = "\n".join(labels).encode()
        digests.add(hashlib.sha256(blob).hexdigest()[:16])
    return frozenset(digests)


def _jaccard(a: frozenset, b: frozenset) -> float:
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def _run_variant(source: str, variant: Variant,
                 config: VarianceConfig) -> VariantOutcome:
    """Compile one variant, abstract it, and run the oracle."""
    module = compile_to_module(source, config=variant.config)
    original = layout(module)
    ref, ref_state, ref_san = _run_state(
        original, config.max_steps, sanitize=config.sanitize
    )

    if config.engine == "sfx":
        result = run_sfx(module, SFXConfig(max_len=config.max_nodes))
    else:
        result = run_pa(module, PAConfig(
            miner=config.engine,
            max_nodes=config.max_nodes,
            time_budget=config.time_budget,
            verify=config.verify,
        ))

    abstracted = layout(module)
    got, got_state, got_san = _run_state(
        abstracted, config.max_steps, sanitize=config.sanitize
    )
    sanitizer_kinds: List[str] = []
    if config.sanitize:
        sanitizer_kinds = sorted(
            counterexample_kinds(ref_san, got_san)
        )
    if (got.output, got.exit_code) != (ref.output, ref.exit_code):
        oracle = OracleVerdict(
            ok=False,
            detail=f"behaviour diverged: exit {ref.exit_code} -> "
                   f"{got.exit_code}, output {len(ref.output)} -> "
                   f"{len(got.output)} bytes",
        )
    elif got_state != ref_state:
        bad = next(
            i for i, (x, y) in enumerate(zip(ref_state, got_state))
            if x != y
        )
        oracle = OracleVerdict(
            ok=False,
            detail=f"final data state diverged at word {bad} "
                   f"({ref_state[bad]:#x} -> {got_state[bad]:#x})",
        )
    elif sanitizer_kinds:
        oracle = OracleVerdict(
            ok=False,
            detail="sanitizer counterexample: the abstracted build "
                   f"trips {', '.join(sanitizer_kinds)} that the "
                   "original does not",
        )
    else:
        oracle = OracleVerdict(ok=True)

    return VariantOutcome(
        variant=variant,
        instructions_before=result.instructions_before,
        instructions_after=result.instructions_after,
        rounds=result.rounds,
        degraded=bool(getattr(result, "degraded", False)),
        oracle=oracle,
        fingerprints=fragment_fingerprints(result.records),
        behaviour=(ref.output, ref.exit_code),
    )


def run_variance(source: str, config: VarianceConfig,
                 source_name: str = "<source>",
                 grid: Optional[List[Variant]] = None) -> Dict[str, Any]:
    """Run the full sweep; returns the ``repro.variance/1`` report."""
    grid = grid if grid is not None else variant_grid(
        config.n_variants, seed=config.grid_seed
    )
    outcomes: List[VariantOutcome] = []
    for variant in grid:
        with telemetry.span("variance.variant", variant=variant.name):
            outcome = _run_variant(source, variant, config)
        outcomes.append(outcome)
        emit(
            "variance.variant",
            source=source_name,
            variant=variant.name,
            config=variant.config.to_dict(),
            saved=outcome.saved,
            oracle_ok=outcome.oracle.ok,
            fragments=len(outcome.fingerprints),
        )

    pairs = []
    for i in range(len(outcomes)):
        for j in range(i + 1, len(outcomes)):
            a, b = outcomes[i], outcomes[j]
            pairs.append({
                "a": a.variant.name,
                "b": b.variant.name,
                "jaccard": round(_jaccard(a.fingerprints,
                                          b.fingerprints), 4),
                "shared": len(a.fingerprints & b.fingerprints),
                "union": len(a.fingerprints | b.fingerprints),
            })
    jaccards = [p["jaccard"] for p in pairs]

    savings = [o.saved for o in outcomes]
    max_saved = max(savings) if savings else 0
    min_saved = min(savings) if savings else 0
    degradation = (
        (max_saved - min_saved) / max_saved if max_saved > 0 else 0.0
    )

    behaviours = {o.behaviour for o in outcomes}
    report = {
        "schema": VARIANCE_SCHEMA,
        "source": source_name,
        "engine": config.engine,
        "n_variants": len(outcomes),
        "grid_seed": config.grid_seed,
        "verify": config.verify,
        "sanitize": config.sanitize,
        "variants": [
            {
                "name": o.variant.name,
                "config": o.variant.config.to_dict(),
                "instructions_before": o.instructions_before,
                "instructions_after": o.instructions_after,
                "saved": o.saved,
                "savings_ratio": round(
                    o.saved / o.instructions_before, 4
                ) if o.instructions_before else 0.0,
                "rounds": o.rounds,
                "degraded": o.degraded,
                "fragments": len(o.fingerprints),
                "oracle_ok": o.oracle.ok,
                "oracle_detail": o.oracle.detail,
            }
            for o in outcomes
        ],
        "overlap": {
            "pairs": pairs,
            "mean_jaccard": round(
                sum(jaccards) / len(jaccards), 4
            ) if jaccards else 1.0,
            "min_jaccard": min(jaccards) if jaccards else 1.0,
        },
        "savings": {
            "max": max_saved,
            "min": min_saved,
            "mean": round(sum(savings) / len(savings), 2)
            if savings else 0.0,
            "degradation": round(degradation, 4),
        },
        "oracle_ok": all(o.oracle.ok for o in outcomes),
        # All variants of the same source must behave identically
        # *before* abstraction; a difference here is a codegen-knob
        # bug, not a PA bug.
        "cross_variant_behaviour_ok": len(behaviours) == 1,
    }
    emit(
        "variance.summary",
        source=source_name,
        oracle_ok=report["oracle_ok"],
        mean_jaccard=report["overlap"]["mean_jaccard"],
        degradation=report["savings"]["degradation"],
    )
    return report
