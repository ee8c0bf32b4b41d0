"""Opt-in stress grid: per-round verification across engine configs.

Run with ``pytest tests/integration/test_stress_grid.py -m stress``
(an hour of compute).  Every extraction round of every configuration is
followed by a full behavioural check against the workload's reference —
the harness that historically surfaced the lr-liveness and sp-bracket
miscompiles.
"""

import pytest

from repro.dfg.graph import FLOW_KINDS, MINED_KINDS
from repro.pa.driver import PAConfig, apply_candidate, best_candidate
from repro.workloads import PROGRAMS, compile_workload, verify_workload


CONFIGS = [
    PAConfig(miner="edgar", time_budget=60),
    PAConfig(miner="edgar", mined_kinds=FLOW_KINDS, time_budget=60),
    PAConfig(miner="dgspan", time_budget=60),
    PAConfig(miner="edgar", max_nodes=5, time_budget=60),
    PAConfig(miner="edgar", mis_exact_limit=0, time_budget=60),
    PAConfig(miner="edgar", pa_pruning=False, time_budget=60),
]

_FAST_PROGRAMS = ("crc", "dijkstra", "search", "qsort")


@pytest.mark.stress
@pytest.mark.parametrize("name", _FAST_PROGRAMS)
@pytest.mark.parametrize("config_index", range(len(CONFIGS)))
def test_stress_round_by_round(name, config_index):
    config = CONFIGS[config_index]
    module = compile_workload(name)
    for round_index in range(100):
        candidate = best_candidate(module, config)
        if candidate is None:
            break
        record = apply_candidate(module, config, candidate)
        try:
            verify_workload(name, module)
        except AssertionError as exc:
            raise AssertionError(
                f"{name} cfg#{config_index} round {round_index} "
                f"({record.method} size={record.size} "
                f"x{record.occurrences}): {exc}"
            ) from exc
