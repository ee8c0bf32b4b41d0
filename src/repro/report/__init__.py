"""Decision provenance: the explain/report layer over the PA pipeline.

Where :mod:`repro.telemetry` answers *how long* each phase took, this
package answers *why the optimizer did what it did*: which fragments
were mined, why a candidate won or lost the cost/benefit race, how many
embeddings died to MIS overlap resolution versus the PA-specific
cyclic-dependency pruning (paper §3.5, Fig. 9).

Three layers, consumed by ``repro pa --report`` / ``repro explain``:

:mod:`repro.report.ledger`
    The decision ledger — the sink of the one event model
    (:mod:`repro.telemetry.events`) that keeps typed provenance records
    (schema ``repro.report.ledger/2``) from the driver, the miners, the
    MIS solver, the legality checker and the extractor.  Off by
    default, inert when disabled (same guard contract as the telemetry
    registry).

:mod:`repro.report.dot`
    Graphviz DOT (and JSON) renderings of basic-block DFGs, winning
    fragments with their embeddings highlighted, and collision graphs.

:mod:`repro.report.html` / :mod:`repro.report.explain`
    A self-contained HTML run report (no external assets) and the
    terminal one-round story printer.
"""

from repro.report.ledger import (
    GLOBAL,
    LEDGER_SCHEMA,
    Ledger,
    disable,
    enable,
    get,
    is_enabled,
    read_jsonl,
    reset,
)
from repro.report.dot import (
    collision_to_dot,
    dfg_to_dot,
    dfg_to_json,
    fragment_to_dot,
)
from repro.report.html import build_report, write_report

__all__ = [
    "GLOBAL",
    "LEDGER_SCHEMA",
    "Ledger",
    "get",
    "enable",
    "disable",
    "reset",
    "is_enabled",
    "read_jsonl",
    "dfg_to_dot",
    "dfg_to_json",
    "fragment_to_dot",
    "collision_to_dot",
    "build_report",
    "write_report",
]
