"""The iterative procedural-abstraction loop (paper §2.1 step 8).

Each round rebuilds the DFG database, mines it, scores every frequent
fragment (legality -> maximum independent set of non-overlapping
occurrences -> order-consistency), extracts the single candidate with
the highest code-size benefit, and restarts — "after extraction, phase
(6) is repeated as long as code fragments are found that reduce the
overall number of instructions in the program".

The mining step of a round is :func:`repro.scale.pool.run_sharded_round`:
it mines the independent clusters of the database, reusing unchanged
ones from the run's fragment cache (see :mod:`repro.scale`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.binary.program import Module
from repro.dfg.builder import build_dfgs
from repro.dfg.graph import DFG, MINED_KINDS
from repro.report.dot import collision_to_dot, dfg_to_dot, fragment_to_dot
from repro.report.ledger import LEDGER_SCHEMA
from repro.resilience import checkpoint as _ckpt
from repro.resilience.faultinject import fault
from repro.resilience.governor import RunGovernor, activate
from repro.telemetry import GLOBAL as _TELEMETRY
from repro.telemetry import events as _events
from repro.telemetry.events import emit

from repro.pa.extract import extract_call, extract_crossjump
from repro.pa.fragments import Candidate
from repro.pa.legality import ExtractionMethod
from repro.pa.liveness import lr_live_out_blocks
from repro.verify.dataflow import AnalysisMemo
from repro.verify.validate import (
    TranslationValidationError,
    snapshot_module,
    verify_round,
)


@dataclass
class PAConfig:
    """Tuning knobs of the abstraction engine."""

    miner: str = "edgar"              #: "edgar" or "dgspan"
    min_support: int = 2
    min_nodes: int = 2
    max_nodes: int = 8
    max_rounds: int = 10_000
    mis_exact_limit: int = 60         #: 0 = greedy MIS (ablation)
    #: PA-specific pruning: every miner stops growing lattice subtrees
    #: that hold nothing legally extractable, and Edgar also drops
    #: never-convex and cyclic embeddings.
    pa_pruning: bool = True
    #: Edge kinds of the mined graph.  The default is the full
    #: dependence graph (the graph the Fig. 9 legality check needs).
    #: The miners match connected subgraphs that need not be induced,
    #: so a fragment of any subset of these kinds — the pure data-flow
    #: projection that matches reordered duplicates included — is
    #: already a fragment of this graph, with the same embeddings.
    mined_kinds: FrozenSet[str] = MINED_KINDS
    #: Apply every non-conflicting candidate found in a round (ordered by
    #: benefit) instead of only the single best.  Results match the
    #: paper's one-per-round greedy almost exactly (conflicting
    #: candidates wait for the next round) at a fraction of the mining
    #: cost; set False for the strict paper loop.
    batch: bool = True
    max_embeddings: int = 4_000
    #: Wall-clock budget for the whole run (seconds); None = unbounded.
    #: When the budget runs out mid-mine the search unwinds cleanly and
    #: the candidates found so far are still applied — the optimizer
    #: degrades gracefully instead of running for the paper's "night or
    #: weekend" (§1) on pathological inputs like rijndael (§4.2).
    time_budget: Optional[float] = 600.0
    #: Translation-validate every round: re-lint the module and prove
    #: each rewritten block symbolically equivalent to its original
    #: (:mod:`repro.verify.validate`).  A counterexample no longer
    #: aborts immediately: the round is rolled back, the offending
    #: candidate blocklisted by canonical fingerprint and the round
    #: re-mined, up to ``verify_max_retries`` times — then the run
    #: degrades to the historical abort
    #: (:class:`~repro.verify.validate.TranslationValidationError`,
    #: counterexample in the decision ledger, CLI exit 2).
    verify: bool = False
    #: Bounded verify-failure recovery attempts per round.
    verify_max_retries: int = 3
    #: Crash-safe checkpoint file, rewritten atomically after every
    #: completed round (schema ``repro.resilience.ckpt/1``); resuming
    #: from it reproduces the uninterrupted run bit-identically.
    checkpoint_path: Optional[str] = None


@dataclass
class ExtractionRecord:
    """One extraction step, for reporting (Fig. 12, EXPERIMENTS.md)."""

    round: int
    method: str                       #: "call" or "crossjump"
    size: int
    occurrences: int
    benefit: int
    new_symbol: str
    instructions: Tuple[str, ...]


@dataclass
class PAResult:
    """Outcome of one full abstraction run."""

    module: Module
    instructions_before: int
    instructions_after: int
    records: List[ExtractionRecord] = field(default_factory=list)
    rounds: int = 0
    lattice_nodes: int = 0
    elapsed_seconds: float = 0.0
    #: True when the run wound down early but cleanly (deadline,
    #: interrupt, verify retries); the module is still the valid
    #: best-so-far result.  ``degraded_reasons`` lists the causes.
    degraded: bool = False
    degraded_reasons: List[str] = field(default_factory=list)
    #: Mining passes that hit the wall-clock deadline (anytime unwind).
    deadline_hits: int = 0
    #: Exact-MIS solves that fell back to their incumbent on budget.
    mis_budget_exhausted: int = 0
    #: Verify-failure recovery steps taken (rollback + blocklist).
    verify_retries: int = 0
    #: Rounds rolled back atomically (interrupt / injected crash).
    rolled_back_rounds: int = 0
    #: Round index this run resumed from, if it was resumed.
    resumed_from_round: Optional[int] = None
    shards: int = 0                   #: largest per-round shard count
    #: shards left unmined by a governor stop mid-round
    shards_lost: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: lattice nodes served from the fragment cache instead of re-mined
    lattice_nodes_reused: int = 0

    @property
    def saved(self) -> int:
        """Saved instructions — the paper's headline metric (Table 1)."""
        return self.instructions_before - self.instructions_after

    @property
    def call_extractions(self) -> int:
        return sum(1 for r in self.records if r.method == "call")

    @property
    def crossjump_extractions(self) -> int:
        return sum(1 for r in self.records if r.method == "crossjump")


def collect_candidates(module: Module,
                       config: PAConfig) -> List[Candidate]:
    """Mine one round of *module*; return extractable candidates, best
    first (the mining step of :func:`run_pa`, outside a run)."""
    from repro.scale.cache import FragmentCache
    from repro.scale.pool import run_sharded_round

    candidates, __ = run_sharded_round(module, config, RunGovernor(),
                                       FragmentCache())
    return candidates


def best_candidate(module: Module,
                   config: PAConfig) -> Optional[Candidate]:
    """Mine one round and return the highest-benefit extractable candidate."""
    candidates = collect_candidates(module, config)
    return candidates[0] if candidates else None


def apply_candidate(module: Module, config: PAConfig,
                    candidate: Candidate,
                    round: int = 0) -> ExtractionRecord:
    """Extract one *candidate* from *module*; returns the step record.

    *round* stamps the returned record (``run_pa`` passes the loop
    index; direct callers get a well-formed record instead of the old
    ``-1`` placeholder).
    """
    records, __, ___ = apply_batch(module, config, [candidate])
    if not records:
        raise RuntimeError("candidate could not be applied")
    records[0].round = round
    return records[0]


def apply_batch(module: Module, config: PAConfig,
                candidates: List[Candidate],
                applied: Optional[List[Candidate]] = None,
                dfgs: Optional[List[DFG]] = None):
    """Apply candidates best-first, skipping conflicting ones.

    A candidate conflicts when any of its occurrence blocks was already
    rewritten this round (or, for cross-jumps — which renumber blocks —
    when its function was touched at all).  Skipped candidates are
    simply rediscovered by the next mining round.

    Returns ``(records, touched_blocks, touched_functions)``; when the
    caller passes an *applied* list, the candidates actually extracted
    are appended to it in application order (the verify-failure
    recovery uses this to map a counterexample back to its candidate).
    *dfgs* is the DFG database the candidates were mined from (a run
    passes its round's); without it, the database is built afresh.
    """
    if dfgs is None:
        dfgs = build_dfgs(module, min_nodes=0,
                          mined_kinds=config.mined_kinds)
    touched_blocks = set()
    touched_functions = set()
    records: List[ExtractionRecord] = []
    for candidate in candidates:
        origins = set(candidate.origins) or {
            dfgs[e.graph].origin for e in candidate.embeddings
        }
        if any(
            origin in touched_blocks or origin[0] in touched_functions
            for origin in origins
        ):
            _TELEMETRY.count("pa.candidates.skipped_conflict")
            continue
        fault("extract.candidate")
        before = module.num_instructions
        if candidate.method is ExtractionMethod.CALL:
            symbol = extract_call(
                module, dfgs, candidate.insns, candidate.embeddings,
                candidate.union_edges,
            )
            touched_blocks |= origins
            method = "call"
        else:
            symbol = extract_crossjump(
                module, dfgs, candidate.insns, candidate.embeddings,
                candidate.union_edges,
            )
            touched_functions |= {origin[0] for origin in origins}
            method = "crossjump"
        saved = before - module.num_instructions
        if saved != candidate.benefit:
            raise AssertionError(
                f"benefit model mismatch: predicted {candidate.benefit}, "
                f"actual {saved}"
            )
        if _events.wants("extraction"):
            _emit_extraction(candidate, dfgs, method, symbol)
        records.append(
            ExtractionRecord(
                round=-1,
                method=method,
                size=candidate.size,
                occurrences=candidate.occurrences,
                benefit=candidate.benefit,
                new_symbol=symbol,
                instructions=tuple(str(i) for i in candidate.insns),
            )
        )
        if applied is not None:
            applied.append(candidate)
    return records, touched_blocks, touched_functions


def _emit_extraction(candidate: Candidate, dfgs, method: str,
                     symbol: str) -> None:
    """One ``extraction`` event, with inline DOT artifacts when a sink
    keeps them (the stats sink drops them)."""
    prov = candidate.provenance or {}
    fragment = candidate.fragment
    dots: Dict[str, Optional[str]] = {}
    if _events.keeps("extraction", "fragment_dot"):
        witness = candidate.embeddings[0]
        host = dfgs[witness.graph]
        adjacency = prov.get("collision_adjacency")
        dots["fragment_dot"] = fragment_to_dot(
            fragment.node_labels, fragment.edges,
            title=f"{symbol}: fragment",
        )
        dots["host_dot"] = dfg_to_dot(
            host, highlight=witness.nodes,
            title=f"{symbol}: host block "
                  f"{host.origin[0]}#{host.origin[1]}",
        )
        dots["collision_dot"] = None if adjacency is None else (
            collision_to_dot(adjacency, prov.get("chosen_indices"),
                             title=f"{symbol}: collision graph"))
    emit(
        "extraction",
        method=method,
        size=candidate.size,
        occurrences=candidate.occurrences,
        benefit=candidate.benefit,
        bytes_saved=candidate.benefit * 4,
        new_symbol=symbol,
        instructions=[str(i) for i in candidate.insns],
        origins=[list(o) for o in candidate.origins],
        embedding_count=prov.get("embeddings", len(fragment.embeddings)),
        legal=prov.get("legal"),
        mis_size=prov.get("mis_size", candidate.occurrences),
        collision_nodes=prov.get("collision_nodes"),
        collision_edges=prov.get("collision_edges"),
        mis_mode=prov.get("mis_mode"),
        order_kept=prov.get("order_kept", candidate.occurrences),
        **dots,
    )


def run_pa(module: Module, config: Optional[PAConfig] = None,
           resume: Optional[_ckpt.Checkpoint] = None) -> PAResult:
    """Run graph-based procedural abstraction to a fixpoint on *module*.

    The module is transformed in place and also returned inside the
    result for convenience.

    Passing a loaded :class:`~repro.resilience.checkpoint.Checkpoint`
    as *resume* (with *module* revived via
    :func:`~repro.resilience.checkpoint.module_from_checkpoint`)
    continues the run from the round after the checkpointed one; the
    pipeline is deterministic, so the resumed run produces the same
    final module, bit for bit, as the uninterrupted one.
    """
    config = config or PAConfig()
    governor = RunGovernor(time_budget=config.time_budget)
    begin_config = {key: getattr(config, key) for key in (
        "miner", "min_support", "min_nodes", "max_nodes",
        "mis_exact_limit", "pa_pruning", "batch", "time_budget",
    )}
    extra = {} if resume is None else {"resumed_from": resume.round}
    emit(
        "run.begin",
        schema=LEDGER_SCHEMA,
        engine=config.miner,
        instructions=module.num_instructions,
        config=begin_config,
        **extra,
    )
    with activate(governor), governor.signals():
        with _TELEMETRY.span("pa.run", miner=config.miner):
            result = _run_pa(module, config, governor, resume)
    result.mis_budget_exhausted += governor.counters.get(
        "mis.budget_exhausted", 0
    )
    if result.deadline_hits:
        # A truncated mining pass may have missed candidates even when
        # the loop itself reached a (premature) fixpoint.
        governor.note("time_budget")
    result.degraded_reasons = list(governor.reasons)
    result.degraded = governor.degraded
    if _TELEMETRY.enabled:
        _TELEMETRY.count("pa.runs")
        _TELEMETRY.count("pa.instructions.saved", result.saved)
        _TELEMETRY.count("pa.lattice_nodes", result.lattice_nodes)
        for name, value in sorted(governor.counters.items()):
            _TELEMETRY.count(f"pa.governor.{name}", value)
    if result.degraded:
        emit(
            "run.degraded",
            reasons=result.degraded_reasons,
            rounds=result.rounds,
            instructions=result.instructions_after,
            deadline_hits=result.deadline_hits,
            mis_budget_exhausted=result.mis_budget_exhausted,
            verify_retries=result.verify_retries,
            rolled_back_rounds=result.rolled_back_rounds,
        )
    emit(
        "run.end",
        rounds=result.rounds,
        instructions=result.instructions_after,
        saved=result.saved,
        bytes_saved=result.saved * 4,
        call_extractions=result.call_extractions,
        crossjump_extractions=result.crossjump_extractions,
        elapsed_seconds=round(result.elapsed_seconds, 6),
        degraded=result.degraded,
    )
    return result


def _run_pa(module: Module, config: PAConfig, governor: RunGovernor,
            resume: Optional[_ckpt.Checkpoint] = None) -> PAResult:
    started = time.perf_counter()
    result = PAResult(
        module=module,
        instructions_before=module.num_instructions,
        instructions_after=module.num_instructions,
    )
    blocklist: Set[str] = set()
    memo = AnalysisMemo()
    # one cache per run: it carries shard results across rounds, and
    # its hits and misses are the measured reuse — see repro.scale.pool
    # for invariants
    from repro.scale.cache import FragmentCache

    cache = FragmentCache()
    start_round = 0
    if resume is not None:
        start_round = resume.round + 1
        result.resumed_from_round = resume.round
        result.instructions_before = resume.instructions_before
        result.rounds = resume.rounds
        result.lattice_nodes = resume.lattice_nodes
        result.deadline_hits = resume.deadline_hits
        result.mis_budget_exhausted = resume.mis_budget_exhausted
        result.verify_retries = resume.verify_retries
        result.cache_hits = resume.cache_hits
        result.cache_misses = resume.cache_misses
        result.lattice_nodes_reused = resume.lattice_nodes_reused
        result.records = [
            ExtractionRecord(
                round=r["round"],
                method=r["method"],
                size=r["size"],
                occurrences=r["occurrences"],
                benefit=r["benefit"],
                new_symbol=r["new_symbol"],
                instructions=tuple(r["instructions"]),
            )
            for r in resume.records
        ]
        blocklist = set(resume.blocklist)
    for round_index in range(start_round, config.max_rounds):
        if governor.should_stop():
            governor.note(
                "interrupted" if governor.interrupted else "time_budget"
            )
            break
        state = _ckpt.capture_state(module)
        try:
            outcome = _run_round(
                module, config, governor, result, round_index,
                blocklist, state, memo, cache,
            )
        except KeyboardInterrupt:
            # Anytime semantics: the interrupted round is rolled back
            # atomically and the best-so-far module returned cleanly.
            _ckpt.restore_state(module, state)
            result.rolled_back_rounds += 1
            governor.interrupt()
            governor.note("interrupted")
            governor.count("rounds.rolled_back")
            break
        except BaseException:
            # Injected faults, validation aborts, internal errors: leave
            # a consistent module behind (never half-rewritten), then
            # let the CLI boundary type the diagnostic.
            _ckpt.restore_state(module, state)
            result.rolled_back_rounds += 1
            raise
        if outcome is None:
            break
        result.records.extend(outcome)
        result.rounds = round_index + 1
        if config.checkpoint_path:
            _write_run_checkpoint(
                config.checkpoint_path, module, config, governor,
                result, round_index, blocklist,
            )
    result.instructions_after = module.num_instructions
    result.elapsed_seconds = time.perf_counter() - started
    return result


def _run_round(module: Module, config: PAConfig, governor: RunGovernor,
               result: PAResult, round_index: int, blocklist: Set[str],
               state: _ckpt.ModuleState, memo: AnalysisMemo, cache):
    """One mining + apply round, with verify-failure recovery.

    Returns ``None`` at fixpoint, else the round's extraction records.
    On a translation-validation
    failure the round is rolled back atomically, the offending
    candidates blocklisted by canonical fingerprint, and the round
    re-mined — up to ``config.verify_max_retries`` times, after which
    the error propagates (the historical exit-2 abort).
    """
    attempt = 0
    while True:
        applied: List[Candidate] = []
        try:
            return _round_once(
                module, config, governor, result, round_index,
                blocklist, applied, memo, cache,
            )
        except TranslationValidationError as error:
            _ckpt.restore_state(module, state)
            if attempt >= config.verify_max_retries:
                raise
            attempt += 1
            offenders = _verify_offenders(error, applied)
            fingerprints = sorted(c.fingerprint() for c in offenders)
            blocklist.update(fingerprints)
            result.verify_retries += 1
            result.rolled_back_rounds += 1
            governor.note("verify_retries")
            governor.count("verify.retries")
            _TELEMETRY.count("pa.verify.retries")
            emit(
                "verify.retry",
                round=round_index,
                attempt=attempt,
                blocklisted=fingerprints,
                error=str(error),
            )


def _verify_offenders(error: TranslationValidationError,
                      applied: List[Candidate]) -> List[Candidate]:
    """The applied candidates a counterexample implicates.

    The counterexample names a ``(function, pre-round block)`` pair —
    exactly the coordinate space of candidate origins, because the
    round was applied against the snapshot the counterexample indexes.
    When the mapping comes up empty (lint failures carry no
    counterexample) every applied candidate is blocklisted:
    over-approximate, but it keeps the retry loop terminating.
    """
    counterexample = getattr(error, "counterexample", None)
    if counterexample is not None:
        key = (counterexample.function, counterexample.old_block)
        offenders = [c for c in applied if key in c.origins]
        if offenders:
            return offenders
    return list(applied)


def _round_once(module: Module, config: PAConfig, governor: RunGovernor,
                result: PAResult, round_index: int, blocklist: Set[str],
                applied: List[Candidate], memo: AnalysisMemo, cache):
    from repro.scale.pool import run_sharded_round

    with _TELEMETRY.span("pa.round", round=round_index), \
            _events.context(round=round_index):
        emit("round.begin", instructions=module.num_instructions)
        with _TELEMETRY.span("pa.collect", round=round_index):
            candidates, scale_stats = run_sharded_round(
                module, config, governor, cache, memo,
                sorted(blocklist),
            )
        result.lattice_nodes += scale_stats.lattice_nodes_mined
        result.lattice_nodes_reused += scale_stats.lattice_nodes_reused
        result.shards = max(result.shards, scale_stats.shards)
        result.shards_lost += scale_stats.shards_lost
        result.cache_hits += scale_stats.cache_hits
        result.cache_misses += scale_stats.cache_misses
        if scale_stats.shards_lost:
            # A governor stop left shards unmined: whatever this round
            # selects is best-so-far, never silently complete.
            governor.note(
                "interrupted" if governor.interrupted else "time_budget"
            )
        if scale_stats.deadline_hits:
            result.deadline_hits += scale_stats.deadline_hits
            governor.count("mine.deadline_hits", scale_stats.deadline_hits)
        records: List[ExtractionRecord] = []
        before_apply = module.num_instructions
        if candidates:
            if not config.batch:
                candidates = candidates[:1]
            if config.verify:
                # Captured before the rewrite: the validator compares
                # against this state, and the pre-round lr liveness is
                # what makes the inserted bl's lr clobber excusable.
                snapshot = snapshot_module(module)
                pre_lr_live = lr_live_out_blocks(module, memo)
            fault("extract.apply")
            with _TELEMETRY.span("pa.apply", round=round_index):
                records, __, ___ = apply_batch(
                    module, config, candidates, applied=applied,
                    dfgs=scale_stats.dfgs,
                )
            if config.verify and records:
                verify_round(
                    module, snapshot, records, pre_lr_live,
                    round_index=round_index, memo=memo,
                )
        emit(
            "round.end",
            instructions=module.num_instructions,
            applied=len(records),
            saved=before_apply - module.num_instructions,
            lattice_nodes=scale_stats.lattice_nodes_mined,
            candidates=len(candidates),
        )
        if not records:
            return None
        for record in records:
            record.round = round_index
        if _TELEMETRY.enabled:
            _TELEMETRY.count("pa.rounds")
            _TELEMETRY.count("pa.candidates.applied", len(records))
            for record in records:
                _TELEMETRY.observe(
                    "pa.extraction.benefit", record.benefit
                )
    return records


# ----------------------------------------------------------------------
# checkpoint plumbing
# ----------------------------------------------------------------------
def config_to_dict(config: PAConfig) -> Dict[str, Any]:
    """A JSON-serializable snapshot of *config* (checkpoint payload)."""
    data = dict(config.__dict__)
    data["mined_kinds"] = sorted(config.mined_kinds)
    return data


def config_from_dict(data: Dict[str, Any]) -> PAConfig:
    """Revive a :func:`config_to_dict` snapshot; unknown keys (from
    newer schema minors, or fields since removed) are dropped."""
    known = set(PAConfig.__dataclass_fields__)
    fields = {k: v for k, v in data.items() if k in known}
    if "mined_kinds" in fields:
        fields["mined_kinds"] = frozenset(fields["mined_kinds"])
    return PAConfig(**fields)


def _record_to_dict(record: ExtractionRecord) -> Dict[str, Any]:
    return {
        "round": record.round,
        "method": record.method,
        "size": record.size,
        "occurrences": record.occurrences,
        "benefit": record.benefit,
        "new_symbol": record.new_symbol,
        "instructions": list(record.instructions),
    }


def _write_run_checkpoint(path: str, module: Module, config: PAConfig,
                          governor: RunGovernor, result: PAResult,
                          round_index: int,
                          blocklist: Set[str]) -> None:
    """Serialize the resumable state after a committed round."""
    checkpoint = _ckpt.Checkpoint(
        round=round_index,
        asm=module.render(),
        entry=module.entry,
        fresh=module._fresh,
        config=config_to_dict(config),
        blocklist=sorted(blocklist),
        records=[_record_to_dict(r) for r in result.records],
        pa_exempt=sorted(
            f.name for f in module.functions if f.pa_exempt
        ),
        instructions_before=result.instructions_before,
        rounds=result.rounds,
        lattice_nodes=result.lattice_nodes,
        deadline_hits=result.deadline_hits,
        mis_budget_exhausted=(
            result.mis_budget_exhausted
            + governor.counters.get("mis.budget_exhausted", 0)
        ),
        verify_retries=result.verify_retries,
        cache_hits=result.cache_hits,
        cache_misses=result.cache_misses,
        lattice_nodes_reused=result.lattice_nodes_reused,
    )
    _ckpt.write_checkpoint(path, checkpoint)
    emit("checkpoint", round=round_index, path=path)
