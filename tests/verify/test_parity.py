"""Determinism parity: the verifier's findings are a function of the
module, never of the execution config that produced it.

The abstraction result is bit-identical for every cache state (the
scale engine's contract), so the lint report and the audit payload
over the abstracted module must serialize to the *same bytes* after a
cold and a warm fragment cache."""

import json

from repro.pa.driver import PAConfig, run_pa
from repro.scale.cache import FragmentCache
from repro.verify.absint import audit_module
from repro.verify.lint import lint_module

from tests.conftest import SHARED_FRAGMENT_PROGRAM, module_from_source


def _verifier_bytes(module) -> bytes:
    lint_payload = lint_module(module).to_dict()
    audit_payload = audit_module(module).to_payload(source="parity")
    return json.dumps([lint_payload, audit_payload],
                      sort_keys=True).encode()


def _abstract():
    module = module_from_source(SHARED_FRAGMENT_PROGRAM)
    result = run_pa(module, PAConfig(time_budget=30.0))
    return _verifier_bytes(module), result


def test_findings_identical_cold_vs_warm_cache(monkeypatch):
    # run_pa builds its cache through the repro.scale.cache module, so
    # both runs below share this one (cold, then warm)
    shared = FragmentCache()
    with monkeypatch.context() as patch:
        patch.setattr("repro.scale.cache.FragmentCache", lambda: shared)
        cold, cold_result = _abstract()
        warm, warm_result = _abstract()
    assert cold_result.cache_misses > 0
    assert warm_result.cache_misses == 0
    assert cold == warm
    assert cold == _abstract()[0]  # and cache-independent
