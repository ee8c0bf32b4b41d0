"""Incremental re-mining: invalidate only what an extraction touched.

An extraction rewrites a handful of blocks; every other block — and
therefore every shard not containing one of the rewritten blocks —
mines to exactly the same result next round.  The invalidation rule
falls out of content addressing:

    a shard is re-mined if and only if its payload digest changed,
    i.e. iff it contains a rewritten block, gained/lost a member
    through re-clustering, or a narrowed legality fact (a block's
    lr-liveness, a fragile callee the shard calls) changed.

Position is deliberately *not* part of shard identity: a cross-jump
splits a block and renumbers every later block of the module
enumeration, but an untouched shard's content digest is unchanged, so
its lattice is still reused verbatim.

The planner itself is bookkeeping, not policy — the cache would serve
clean shards anyway.  Its value is *observability*: the per-round
clean/dirty split is emitted to the ledger and telemetry, and the
``lattice_nodes_reused`` figure it enables is the headline incremental
metric in benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set


@dataclass
class DeltaPlan:
    """One round's predicted shard split (indices into the shard list)."""

    clean: List[int] = field(default_factory=list)
    dirty: List[int] = field(default_factory=list)
    #: True on the planner's first round (no previous digests — every
    #: shard is "dirty" to the planner even when a persistent cache
    #: will serve it warm).
    initial: bool = False

    @property
    def reuse_fraction(self) -> float:
        total = len(self.clean) + len(self.dirty)
        return len(self.clean) / total if total else 0.0


class DeltaPlanner:
    """Tracks shard digests across rounds of one run."""

    def __init__(self) -> None:
        self._previous: Set[str] = set()
        self._rounds = 0

    def plan(self, digests: Sequence[str]) -> DeltaPlan:
        """Classify this round's shards against the previous round's.

        Also commits *digests* as the new baseline — call once per
        round, before mining.
        """
        plan = DeltaPlan(initial=self._rounds == 0)
        for index, digest in enumerate(digests):
            if digest in self._previous:
                plan.clean.append(index)
            else:
                plan.dirty.append(index)
        self._previous = set(digests)
        self._rounds += 1
        return plan
