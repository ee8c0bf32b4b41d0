"""Every entry point the performance benchmark traces still exists.

``perfbench/tracer.py`` reports a layer whose entry point it cannot
resolve as ``null`` with a warning rather than failing, so a refactor
that renames or moves one (say ``verify.absint.module_summaries``)
would silently blank its layer.  This test turns that into a failure.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")
sys.path.insert(0, PERFBENCH)

import bench  # noqa: E402
from tracer import missing_entries  # noqa: E402


def test_every_traced_entry_point_resolves():
    missing = {layer.name: missing_entries(layer) for layer in bench.LAYERS}
    assert {name: m for name, m in missing.items() if m} == {}
