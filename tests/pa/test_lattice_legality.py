"""The legality prune against reference miners without it.

The funnel installs :class:`LatticeLegality` on either miner while
``pa_pruning`` is on: it folds a verdict state along the lattice, drops
dead children before their canonical check, and cuts cross-jump-only
nodes whose embeddings cannot reach two node-disjoint legal
occurrences.  The prune is exact, so a reference Edgar or DgSpan that
ignores the installed prune must score the same candidates in every
round and shard and produce the same module.

Every node's verdict is also checked against a reference recomputed
from the instruction texts: ``classify_fragment`` and its older,
per-mechanism form (kept below), plus the cross-jump rules —
a descendant occurrence must hold its block's exit and every dependence
successor, within ``max_nodes``.
"""

from typing import FrozenSet, List, Optional, Sequence

import pytest

from repro.dfg.builder import build_dfgs
from repro.isa.assembler import parse_instruction
from repro.isa.instructions import Instruction
from repro.mining.edgar import Edgar
from repro.mining.gspan import DgSpan
from repro.pa import legality
from repro.pa.driver import PAConfig, run_pa
from repro.pa.legality import (
    ExtractionMethod,
    _call_target,
    _reads_pc,
    _touches_lr,
    _uses_sp,
    classify_fragment,
    method_of,
    sp_fragile_functions,
)
from repro.pa.liveness import lr_live_out_blocks
from repro.scale import pool
from repro.scale import shard as shard_mod
from repro.scale.cluster import Shard
from repro.scale.shard import build_payload, mine_shard
from repro.workloads import compile_workload

CALL = ExtractionMethod.CALL
CROSSJUMP = ExtractionMethod.CROSSJUMP
POP_PC = parse_instruction("pop {pc}")


def _transfers(insn: Instruction) -> bool:
    return insn.is_terminator or (insn.is_branch and not insn.is_call)


def reference_classify(insns: Sequence[Instruction],
                       fragile: FrozenSet[str] = frozenset(),
                       ) -> Optional[ExtractionMethod]:
    """``classify_fragment`` as it was: one rule set per mechanism."""
    if not insns:
        return None
    terminators = [i for i in insns if _transfers(i)]
    if terminators:
        if len(terminators) != 1:
            return None
        exit_insn = terminators[0]
        if exit_insn.is_conditional:
            return None
        if not (exit_insn.is_return or exit_insn.mnemonic == "b"):
            return None
        lr_based_return = (
            exit_insn.is_return and exit_insn.mnemonic != "pop"
        )
        for insn in insns:
            if insn is exit_insn:
                continue
            if _transfers(insn) or _reads_pc(insn) or insn.writes_pc:
                return None
            if _touches_lr(insn):
                return None
            if lr_based_return and insn.is_call:
                return None
        return CROSSJUMP
    contains_call = any(i.is_call for i in insns)
    for insn in insns:
        if _touches_lr(insn) or _reads_pc(insn) or insn.writes_pc:
            return None
        if contains_call and not insn.is_call and _uses_sp(insn):
            return None
        if contains_call and _call_target(insn) in fragile:
            return None
    return CALL


def reference_verdict(insns: List[Instruction],
                      fragile: FrozenSet[str]) -> str:
    """"dead", "call" (may still be call-outlined) or "crossjump"."""
    method = reference_classify(insns, fragile)
    assert classify_fragment(insns, fragile) is method
    if method is CALL:
        return "call"
    if method is CROSSJUMP:
        return "crossjump"
    if any(_transfers(i) for i in insns):
        return "dead"
    # no control transfer yet: a descendant may still gain an exit
    if reference_classify(insns + [POP_PC], fragile) is CROSSJUMP:
        return "crossjump"
    return "dead"


def reference_live(dfg, nodes, insns, fragile, max_nodes) -> bool:
    """Can the occurrence *nodes* grow into a legal cross-jump of at
    most *max_nodes* nodes?"""
    last = dfg.num_nodes - 1
    closed = set(nodes) | {last}
    stack = list(closed)
    while stack:
        node = stack.pop()
        for src, dst, __ in dfg.dep_edges:
            if src == node and dst not in closed:
                closed.add(dst)
                stack.append(dst)
    if len(closed) > max_nodes:
        return False
    body = insns if last in nodes else insns + [dfg.insns[last]]
    return reference_classify(body, fragile) is CROSSJUMP


def reference_cut(db, unique, fragile, max_nodes) -> bool:
    """Does the node root a subtree with nothing extractable?"""
    witness = unique[0]
    dfg = db.dfgs[witness.graph]
    insns = [dfg.insns[n] for n in witness.nodes]
    verdict = reference_verdict(insns, fragile)
    if verdict != "crossjump":
        return verdict == "dead"
    live_graphs = {
        emb.graph for emb in unique
        if reference_live(db.dfgs[emb.graph], emb.nodes, insns, fragile,
                          max_nodes)
    }
    return len(live_graphs) < 2


def hook_cut(bound, code, unique) -> bool:
    """The installed prune's decision on one node: a dead fold drops it
    as a child, otherwise :meth:`BoundLegality.cut` decides."""
    state = None
    for tup in code:
        state = bound.child(state, tup)
        if state is None:
            return True
    return bound.cut(state, unique)


class _EveryNode:
    """A miner that builds every reported fragment before its sink
    sees it, so ``_fragment`` runs once per visited node, also for the
    ones the funnel's floor turns down unbuilt."""

    @property
    def on_fragment(self):
        return self._sink

    @on_fragment.setter
    def on_fragment(self, sink):
        def built(size, bound, embeddings, build):
            fragment = build()
            sink(size, bound, embeddings, lambda: fragment)
        self._sink = None if sink is None else built


class _Reference(_EveryNode):
    """A miner that ignores an installed legality prune and records
    every visited node with the prune the funnel installed."""

    def __init__(self, *args, **kwargs):
        self.installed = None
        self.nodes = []
        super().__init__(*args, **kwargs)

    @property
    def prune_illegal(self):
        return None

    @prune_illegal.setter
    def prune_illegal(self, value):
        if value is not None:  # keep the last prune past its removal
            self.installed = value

    def _fragment(self, db, code, unique):
        self.nodes.append((self.installed, db, code, unique, self.max_nodes))
        return super()._fragment(db, code, unique)


class ReferenceEdgar(_Reference, Edgar):
    pass


class ReferenceDgSpan(_Reference, DgSpan):
    pass


class _Recording(_EveryNode):
    """A miner that records the code and folded state of every node."""

    def __init__(self, *args, **kwargs):
        self.states = []
        self._state = None
        super().__init__(*args, **kwargs)

    def _search(self, db, code, embeddings, results, state=None):
        self._state = state
        super()._search(db, code, embeddings, results, state)

    def _fragment(self, db, code, unique):
        # called once per visited node, before any child's _search
        self.states.append((db, code, unique[0], self._state,
                            self.prune_illegal.fragile_callees))
        return super()._fragment(db, code, unique)


class RecordingEdgar(_Recording, Edgar):
    pass


class RecordingDgSpan(_Recording, DgSpan):
    pass


#: miner name -> (recording class, reference class)
MINERS = {
    "edgar": (RecordingEdgar, ReferenceEdgar),
    "dgspan": (RecordingDgSpan, ReferenceDgSpan),
}


def _miner_factory(cls, made):
    def make(config):
        options = {}
        if issubclass(cls, Edgar):
            options = {"pa_pruning": config.pa_pruning,
                       "mis_exact_limit": config.mis_exact_limit}
        miner = cls(
            min_support=config.min_support,
            min_nodes=config.min_nodes,
            max_nodes=config.max_nodes,
            max_embeddings=config.max_embeddings,
            **options,
        )
        made.append(miner)
        return miner
    return make


def _run(workload, config, miner_cls, monkeypatch):
    """One PA run with *miner_cls*; returns the module text, the run
    result, each round's candidates and the miners used."""
    made: list = []
    rounds: list = []
    real_round = pool.run_sharded_round

    def mine_round(*args, **kwargs):
        candidates, stats = real_round(*args, **kwargs)
        rounds.append([
            (c.fingerprint(), c.benefit, c.embeddings) for c in candidates
        ])
        return candidates, stats

    with monkeypatch.context() as patch:
        patch.setattr(shard_mod, "_make_miner",
                      _miner_factory(miner_cls, made))
        patch.setattr(pool, "run_sharded_round", mine_round)
        module = compile_workload(workload)
        result = run_pa(module, config)
    return module.render(), result, rounds, made


def _check_against_reference(workload, max_nodes, miner, monkeypatch):
    config = PAConfig(miner=miner, max_nodes=max_nodes)
    recording_cls, reference_cls = MINERS[miner]
    text, result, rounds, fast = _run(
        workload, config, recording_cls, monkeypatch
    )
    ref_text, reference, ref_rounds, slow = _run(
        workload, config, reference_cls, monkeypatch
    )
    # identical output: candidates in every round, records, module
    assert result.saved > 0
    assert text == ref_text
    assert rounds == ref_rounds
    assert result.records == reference.records
    assert result.lattice_nodes < reference.lattice_nodes
    assert sum(m.pruned_illegal for m in fast) > 0

    # every node the fast miner visits carries the reference verdict
    states = [s for miner in fast for s in miner.states]
    assert len(states) == result.lattice_nodes
    for db, code, witness, state, fragile in states:
        dfg = db.dfgs[witness.graph]
        insns = [dfg.insns[n] for n in witness.nodes]
        verdict = "call" if method_of(state) is CALL else "crossjump"
        assert verdict == reference_verdict(insns, fragile), code

    # every node the reference visits: the prune's decision matches the
    # reference rules, and the fast miner visits exactly the kept ones
    bound = {}
    kept = []
    cuts = {True: 0, False: 0}
    for installed, db, code, unique, cap in (
        node for miner in slow for node in miner.nodes
    ):
        key = (id(installed), id(db))
        if key not in bound:
            # holding db and the prune keeps their ids unique
            bound[key] = (installed.bind(db, cap), db, installed)
        cut = hook_cut(bound[key][0], code, unique)
        fragile = installed.fragile_callees
        assert cut == reference_cut(db, unique, fragile, cap), code
        cuts[cut] += 1
        if not cut:
            kept.append(code)
    assert cuts[True] > 0 and cuts[False] > 0
    assert kept == [code for __, code, *___ in states]


@pytest.mark.parametrize("workload, max_nodes, miner", [
    pytest.param("crc", 8, "edgar", id="crc-8"),
    pytest.param("search", 8, "edgar", id="search-8"),
    pytest.param("sha", 5, "edgar", id="sha-5"),
    pytest.param("sha", 8, "edgar", id="sha-8", marks=pytest.mark.slow),
    pytest.param("crc", 8, "dgspan", id="crc-8-dgspan"),
    pytest.param("search", 8, "dgspan", id="search-8-dgspan"),
    pytest.param("sha", 5, "dgspan", id="sha-5-dgspan",
                 marks=pytest.mark.slow),
])
def test_run_pa_matches_reference(workload, max_nodes, miner, monkeypatch):
    _check_against_reference(workload, max_nodes, miner, monkeypatch)


def test_mine_shard_matches_reference(monkeypatch):
    module = compile_workload("sha")
    config = PAConfig(max_nodes=5)
    dfgs = build_dfgs(module, min_nodes=0, mined_kinds=config.mined_kinds)
    payload = build_payload(
        Shard(index=0, graph_ids=tuple(range(len(dfgs)))), dfgs,
        lr_live_out_blocks(module), sp_fragile_functions(module), config,
    )
    made: list = []
    fast = mine_shard(payload, dfgs)
    with monkeypatch.context() as patch:
        patch.setattr(shard_mod, "_make_miner",
                      _miner_factory(ReferenceEdgar, made))
        reference = mine_shard(payload, dfgs)
    assert made and made[0].installed is not None
    assert fast.candidates
    assert fast.candidates == reference.candidates
    assert fast.lattice_nodes < reference.lattice_nodes
    assert fast.tallies["scored"] == reference.tallies["scored"]


def test_prune_rides_on_pa_pruning(monkeypatch):
    """For either miner, no prune is installed with ``pa_pruning`` off
    and the lattice is the reference's; with it on, one is installed."""
    for miner, cls in (("edgar", Edgar), ("dgspan", DgSpan)):
        reference_cls = MINERS[miner][1]
        runs = []
        for pa_pruning, factory_cls in ((False, cls),
                                        (False, reference_cls),
                                        (True, reference_cls)):
            made: list = []
            with monkeypatch.context() as patch:
                patch.setattr(shard_mod, "_make_miner",
                              _miner_factory(factory_cls, made))
                result = run_pa(compile_workload("crc"),
                                PAConfig(miner=miner,
                                         pa_pruning=pa_pruning))
            runs.append((result.lattice_nodes, made))
        (nodes, made), (ref_nodes, ref_made), (__, on_made) = runs
        assert nodes == ref_nodes, miner
        assert all(m.pruned_illegal == 0 for m in made)
        assert all(m.installed is None for m in ref_made)
        assert all(m.installed is not None for m in on_made)


class TestFold:
    """Hand-built fragments: the fold's clauses one at a time."""

    @pytest.mark.parametrize("texts, fragile, verdict", [
        (("mov r0, #1", "bl f"), (), "call"),
        (("str r0, [sp]", "bl f"), (), "crossjump"),
        (("mov r0, #1", "bl f"), ("f",), "crossjump"),
        (("mov r0, #1", "bl f", "pop {r4, pc}"), ("f",), "crossjump"),
        (("mov r0, #1", "bl f", "bx lr"), (), "dead"),
        (("bl f", "mov pc, lr"), (), "dead"),
        (("mov r0, #1", "bx lr"), (), "crossjump"),
        (("mov r0, lr",), (), "dead"),
        (("mov r0, #1", "beq x"), (), "dead"),
        (("b x", "pop {pc}"), (), "dead"),
        (("add r0, pc, #4",), (), "dead"),
    ])
    def test_verdicts(self, texts, fragile, verdict):
        insns = [parse_instruction(t) for t in texts]
        assert reference_verdict(insns, frozenset(fragile)) == verdict
        state = 0
        for insn in insns:
            state = legality.fold_flags(
                state, legality.instruction_flags(insn, frozenset(fragile))
            )
        if verdict == "dead":
            assert method_of(state) is None
            assert state & legality._DEAD
        elif verdict == "call":
            assert method_of(state) is CALL
        else:
            assert not state & legality._DEAD
            assert method_of(state) is not CALL
