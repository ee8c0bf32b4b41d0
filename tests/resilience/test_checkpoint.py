"""Checkpoint serialization: atomicity, validation, round rollback."""

import json

import pytest

from repro.pa.driver import (
    PAConfig,
    config_from_dict,
    config_to_dict,
    run_pa,
)
from repro.resilience.checkpoint import (
    CKPT_SCHEMA,
    Checkpoint,
    capture_state,
    load_checkpoint,
    module_from_checkpoint,
    restore_state,
    write_checkpoint,
)
from repro.resilience.errors import CheckpointError
from repro.resilience.faultinject import arm
from tests.conftest import SHARED_FRAGMENT_PROGRAM, module_from_source
from tests.report.conftest import GOLDEN_PROGRAM


@pytest.fixture
def module():
    return module_from_source(SHARED_FRAGMENT_PROGRAM)


def _checkpoint_for(module, round_index=0):
    return Checkpoint(
        round=round_index,
        asm=module.render(),
        entry=module.entry,
        fresh=module._fresh,
        config=config_to_dict(PAConfig()),
        pa_exempt=sorted(
            f.name for f in module.functions if f.pa_exempt
        ),
        instructions_before=module.num_instructions,
    )


# ----------------------------------------------------------------------
# in-memory rollback
# ----------------------------------------------------------------------
def test_capture_restore_roundtrip(module):
    state = capture_state(module)
    reference = module.render()
    # mutate: drop an instruction and bump the label counter
    module.fresh_label("pa")
    del module.functions[1].blocks[0].instructions[-1]
    assert module.render() != reference
    restore_state(module, state)
    assert module.render() == reference
    # the fresh counter rolled back too: the next label is the same one
    before = capture_state(module)
    assert module.fresh_label("pa") == "pa_0"
    restore_state(module, before)


def test_restore_is_idempotent(module):
    state = capture_state(module)
    reference = module.render()
    restore_state(module, state)
    restore_state(module, state)
    assert module.render() == reference


# ----------------------------------------------------------------------
# on-disk round trip
# ----------------------------------------------------------------------
def test_write_load_roundtrip(tmp_path, module):
    path = str(tmp_path / "ck.json")
    write_checkpoint(path, _checkpoint_for(module, round_index=3))
    loaded = load_checkpoint(path)
    assert loaded.round == 3
    assert loaded.asm == module.render()
    assert loaded.fresh == module._fresh
    revived = module_from_checkpoint(loaded)
    assert revived.render() == module.render()
    assert revived._fresh == module._fresh


def test_config_roundtrip():
    config = PAConfig(miner="dgspan", max_nodes=5, verify=True,
                      time_budget=None)
    revived = config_from_dict(config_to_dict(config))
    assert revived == config


def test_config_from_dict_drops_unknown_keys():
    data = config_to_dict(PAConfig())
    data["from_the_future"] = 42
    assert config_from_dict(data) == PAConfig()


def test_missing_file_is_typed(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint"):
        load_checkpoint(str(tmp_path / "nope.json"))


def test_garbage_file_is_typed(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text("not json {{{")
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(str(path))


def test_wrong_schema_rejected(tmp_path, module):
    path = tmp_path / "ck.json"
    doc = _checkpoint_for(module).to_doc()
    doc["schema"] = "repro.resilience.ckpt/99"
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="unsupported"):
        load_checkpoint(str(path))


def test_missing_fields_rejected(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text(json.dumps({"schema": CKPT_SCHEMA, "round": 1}))
    with pytest.raises(CheckpointError, match="missing fields"):
        load_checkpoint(str(path))


def test_unknown_additive_fields_ignored(tmp_path, module):
    path = tmp_path / "ck.json"
    doc = _checkpoint_for(module).to_doc()
    doc["added_in_a_newer_minor"] = {"x": 1}
    path.write_text(json.dumps(doc))
    assert load_checkpoint(str(path)).round == 0


def test_legacy_carryover_field_is_ignored(tmp_path):
    """Checkpoints of the former serial engine carry warm-start
    candidates under ``carryover``.  They still load, the field is
    dropped like any unknown one, and the resumed run matches the
    uninterrupted one."""
    reference = module_from_source(SHARED_FRAGMENT_PROGRAM)
    run_pa(reference, PAConfig())

    path = tmp_path / "ck.json"
    partial = module_from_source(SHARED_FRAGMENT_PROGRAM)
    run_pa(partial, PAConfig(max_rounds=1, checkpoint_path=str(path)))
    doc = json.loads(path.read_text())
    assert "carryover" not in doc
    doc["carryover"] = [{
        "method": "call", "benefit": 3,
        "embeddings": [[0, [1, 2]], [1, [1, 2]]],
        "union_edges": [[0, 1]], "origins": [["_start", 0]],
        "fragment": {"labels": ["mov r1, #3", "add r2, r1, #5"],
                     "edges": [[0, 1, "d"]], "support": 2},
    }]
    path.write_text(json.dumps(doc))

    checkpoint = load_checkpoint(str(path))
    assert not hasattr(checkpoint, "carryover")
    resumed = module_from_checkpoint(checkpoint)
    config = config_from_dict(checkpoint.config)
    config.max_rounds = PAConfig().max_rounds
    config.checkpoint_path = None
    run_pa(resumed, config, resume=checkpoint)
    assert resumed.render() == reference.render()


def test_legacy_flow_pass_field_is_ignored(tmp_path):
    """Checkpoints written while the engine had a second, data-flow
    projection pass carry ``flow_pass`` in their config.  The key is
    dropped on load, and the resumed run matches the uninterrupted one."""
    reference = module_from_source(GOLDEN_PROGRAM)
    assert run_pa(reference, PAConfig(batch=False)).rounds == 2

    path = tmp_path / "ck.json"
    partial = module_from_source(GOLDEN_PROGRAM)
    run_pa(partial, PAConfig(batch=False, max_rounds=1,
                             checkpoint_path=str(path)))
    doc = json.loads(path.read_text())
    assert "flow_pass" not in doc["config"]
    doc["config"]["flow_pass"] = True
    path.write_text(json.dumps(doc))

    checkpoint = load_checkpoint(str(path))
    config = config_from_dict(checkpoint.config)
    assert not hasattr(config, "flow_pass")
    config.max_rounds = PAConfig().max_rounds
    config.checkpoint_path = None
    resumed = module_from_checkpoint(checkpoint)
    run_pa(resumed, config, resume=checkpoint)
    assert resumed.render() == reference.render()


def test_corrupt_fault_garbles_payload(tmp_path, module):
    path = str(tmp_path / "ck.json")
    arm("checkpoint.write:corrupt")
    write_checkpoint(path, _checkpoint_for(module))
    # the write itself stayed atomic — the file exists, but its payload
    # is garbage the loader must reject with a typed error
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(path)


def test_load_fault_point(tmp_path, module):
    path = str(tmp_path / "ck.json")
    write_checkpoint(path, _checkpoint_for(module))
    from repro.resilience.errors import FaultInjected

    arm("checkpoint.load")
    with pytest.raises(FaultInjected):
        load_checkpoint(path)
