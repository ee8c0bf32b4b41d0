"""Crash-safe checkpoint/resume for the abstraction loop.

After every completed round the driver can serialize the whole resumable
run state to one JSON document (schema ``repro.resilience.ckpt/1``) via
the atomic writer, so a crash or kill at any instant leaves either the
previous round's checkpoint or the new one — never a torn file.

The state is deliberately *replay-free*: the module travels as rendered
assembly (the render -> reparse round trip is exact, asserted by the
resume-determinism tests), and besides the module the driver keeps no
cross-round state but the verify blocklist and the result counters.
Nothing in the pipeline uses randomness, so a resumed run re-mines from
the checkpoint round and produces a **bit-identical** final binary to
the uninterrupted run (the differential guarantee
``tests/resilience/test_resume_determinism.py`` enforces on all eight
workloads).

Checkpoint document fields (``repro.resilience.ckpt/1``; consumers must
reject unknown schemas and may ignore unknown fields):

=================== =================================================
schema              ``repro.resilience.ckpt/1``
round               next round index to run
asm                 the module as rendered assembly
entry               module entry symbol
fresh               the module's fresh-label counter position
pa_exempt           names of PA-exempt functions (validation only;
                    the reparse re-derives them)
config              the PAConfig the run was started with
blocklist           canonical fingerprints blocklisted by the
                    verify-failure recovery
records             extraction records of completed rounds
instructions_before / rounds / lattice_nodes / deadline_hits /
mis_budget_exhausted / verify_retries
                    PAResult continuity counters
cache_hits / cache_misses / lattice_nodes_reused
                    scale-engine continuity counters (additive minor;
                    default zero when absent)
=================== =================================================

Older documents may carry fields since removed — ``carryover``
(warm-start candidates of the former serial engine) and the worker
pool's ``shards_retried`` / ``shards_quarantined`` — and keys since
removed from ``config`` (``flow_pass``, ``workers``, ``shard_retries``,
``shard_timeout``, ``strict_shards``).  Both are ignored on load like
any other unknown field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.binary.blocks import module_from_asm
from repro.binary.program import BasicBlock, Function, Module
from repro.isa.assembler import parse_program
from repro.resilience.atomicio import atomic_write_text
from repro.resilience.errors import CheckpointError
from repro.resilience.faultinject import fault

#: Version tag of the checkpoint JSON schema.
CKPT_SCHEMA = "repro.resilience.ckpt/1"


# ----------------------------------------------------------------------
# in-memory round rollback
# ----------------------------------------------------------------------
#: (fresh counter, [(name, pa_exempt, ((labels), (insns)) per block)])
ModuleState = Tuple[int, List[Tuple[str, bool, tuple]]]


def capture_state(module: Module) -> ModuleState:
    """A cheap immutable snapshot for atomic round rollback.

    Instruction objects are shared by reference — the pipeline never
    mutates an Instruction in place (the translation validator's
    snapshots already rely on this), extraction only rebuilds the lists
    around them.
    """
    return (
        module._fresh,
        [
            (
                func.name,
                func.pa_exempt,
                tuple(
                    (tuple(block.labels), tuple(block.instructions))
                    for block in func.blocks
                ),
            )
            for func in module.functions
        ],
    )


def restore_state(module: Module, state: ModuleState) -> None:
    """Roll *module* back to *state* (drops this round's new symbols)."""
    fresh, functions = state
    module._fresh = fresh
    module.functions = [
        Function(
            name=name,
            pa_exempt=exempt,
            blocks=[
                BasicBlock(list(labels), list(insns))
                for labels, insns in blocks
            ],
        )
        for name, exempt, blocks in functions
    ]


# ----------------------------------------------------------------------
# the checkpoint document
# ----------------------------------------------------------------------
@dataclass
class Checkpoint:
    """One parsed ``repro.resilience.ckpt/1`` document."""

    round: int
    asm: str
    entry: str
    fresh: int
    config: Dict[str, Any]
    blocklist: List[str] = field(default_factory=list)
    records: List[Dict[str, Any]] = field(default_factory=list)
    pa_exempt: List[str] = field(default_factory=list)
    instructions_before: int = 0
    rounds: int = 0
    lattice_nodes: int = 0
    deadline_hits: int = 0
    mis_budget_exhausted: int = 0
    verify_retries: int = 0
    #: Scale-engine continuity counters (additive minor: absent in
    #: pre-scale checkpoints, defaulted to zero on load; older loaders
    #: drop them as unknown fields).  The fragment cache itself is NOT
    #: checkpointed — it is content-addressed, so a resumed run simply
    #: re-fills it and still reproduces the uninterrupted run's module
    #: bit-identically.
    cache_hits: int = 0
    cache_misses: int = 0
    lattice_nodes_reused: int = 0

    def to_doc(self) -> Dict[str, Any]:
        return {"schema": CKPT_SCHEMA, **self.__dict__}


def module_from_checkpoint(checkpoint: Checkpoint) -> Module:
    """Reparse the checkpointed module, restoring resume-relevant state."""
    try:
        module = module_from_asm(
            parse_program(checkpoint.asm), entry=checkpoint.entry
        )
    except Exception as exc:
        raise CheckpointError(
            f"checkpointed module does not parse: {exc}"
        ) from exc
    module._fresh = checkpoint.fresh
    exempt_now = {f.name for f in module.functions if f.pa_exempt}
    if set(checkpoint.pa_exempt) != exempt_now:
        raise CheckpointError(
            f"pa_exempt mismatch after reparse: checkpoint says "
            f"{sorted(checkpoint.pa_exempt)}, reparse derived "
            f"{sorted(exempt_now)}"
        )
    return module


def write_checkpoint(path: str, checkpoint: Checkpoint) -> None:
    """Serialize atomically; an armed ``checkpoint.write:corrupt`` fault
    garbles the payload (the *write* stays atomic — corruption testing
    targets the loader's validation, not the renamer)."""
    text = json.dumps(checkpoint.to_doc(), sort_keys=True)
    if fault("checkpoint.write") == "corrupt":
        text = text[: len(text) // 2] + "\x00garbled"
    atomic_write_text(path, text)


def load_checkpoint(path: str) -> Checkpoint:
    """Load and validate a checkpoint; every failure is typed."""
    fault("checkpoint.load")
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {exc}"
        ) from exc
    if not isinstance(doc, dict) or doc.get("schema") != CKPT_SCHEMA:
        raise CheckpointError(
            f"{path}: unsupported checkpoint schema "
            f"{doc.get('schema') if isinstance(doc, dict) else type(doc)}"
            f" (expected {CKPT_SCHEMA})"
        )
    doc = dict(doc)
    doc.pop("schema")
    known = {f for f in Checkpoint.__dataclass_fields__}
    extra = set(doc) - known
    for name in extra:           # additive fields from newer minors
        doc.pop(name)
    missing = {"round", "asm", "entry", "fresh", "config"} - set(doc)
    if missing:
        raise CheckpointError(
            f"{path}: checkpoint is missing fields {sorted(missing)}"
        )
    try:
        return Checkpoint(**doc)
    except TypeError as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") \
            from exc
