"""The three sinks of the one event model agree.

One ``repro pa crc`` run with the ledger, the events stream and the
stats JSON all on: every fact two sinks share carries equal fields in
both (after dropping what a sink stamps itself), and every round —
the last one, which applies nothing, too — has exactly one round end
in each sink that takes round ends.
"""

import json

from repro.cli import main
from repro.pa import driver
from repro.report.ledger import read_jsonl

#: fields a sink stamps on its own records
STAMPS = {"type", "kind", "name", "ts", "pid"}


def _run(tmp_path):
    paths = {name: tmp_path / f"crc.{name}"
             for name in ("ledger", "events", "stats")}
    code = main(["pa", "crc",
                 "--ledger-out", str(paths["ledger"]),
                 "--events-out", str(paths["events"]),
                 "--stats-out", str(paths["stats"])])
    assert code == 0
    ledger = read_jsonl(str(paths["ledger"]))
    events = read_jsonl(str(paths["events"]))
    stats = json.loads(paths["stats"].read_text())["events"]
    return ledger, events, stats


def _of(records, kind):
    return [r for r in records
            if kind in (r.get("type"), r.get("kind"), r.get("name"))]


def _agree(left, right):
    """Pairwise: the fields both records carry are equal."""
    assert len(left) == len(right)
    for a, b in zip(left, right):
        shared = (set(a) & set(b)) - STAMPS
        assert shared
        assert {k: a[k] for k in shared} == {k: b[k] for k in shared}


def test_sinks_agree(tmp_path, capsys):
    ledger, events, stats = _run(tmp_path)
    capsys.readouterr()

    ends = {name: _of(sink, "round.end") for name, sink in
            (("ledger", ledger), ("events", events), ("stats", stats))}
    rounds = [r["round"] for r in ends["ledger"]]
    assert rounds == list(range(len(rounds)))   # one end per round
    assert ends["ledger"][-1]["applied"] == 0   # the empty last round
    for name in ("events", "stats"):
        assert [r["round"] for r in ends[name]] == rounds
        _agree(ends["ledger"], ends[name])
    assert all({"round", "applied", "saved", "instructions"}
               <= set(r) for r in ends["stats"])

    _agree(_of(ledger, "round.begin"), _of(events, "round.begin"))
    _agree(_of(ledger, "run.end"), _of(events, "run.end"))
    _agree(_of(ledger, "extraction"), _of(stats, "extraction"))
    assert _of(stats, "extraction")
    # the DOT renderings stay in the ledger; the stats drop them
    assert all({"fragment_dot", "host_dot", "collision_dot"} <= set(r)
               for r in _of(ledger, "extraction"))
    assert not [key for r in _of(stats, "extraction") for key in r
                if key.endswith("_dot")]

    # shard events carry the round context in every sink
    streamed = {(e["round"], e["shard"]): e
                for e in _of(events, "shard.done")}
    recorded = _of(stats, "shard.done")
    assert recorded and len(streamed) == len(recorded)
    _agree([streamed[(r["round"], r["shard"])] for r in recorded],
           recorded)


DOT_RENDERERS = ("fragment_to_dot", "dfg_to_dot", "collision_to_dot")


def test_dot_renderings_are_built_only_for_the_ledger(tmp_path, capsys,
                                                      monkeypatch):
    """The stats sink drops an extraction's DOT renderings, so a run
    with only ``--stats-out`` never renders them; a ledger run still
    records all three keys."""
    rendered = []
    for name in DOT_RENDERERS:
        def counting(*args, _name=name, _real=getattr(driver, name),
                     **kwargs):
            rendered.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(driver, name, counting)

    stats = tmp_path / "stats.json"
    assert main(["pa", "crc", "--stats-out", str(stats)]) == 0
    assert _of(json.loads(stats.read_text())["events"], "extraction")
    assert rendered == []

    ledger_path = tmp_path / "ledger.jsonl"
    assert main(["pa", "crc", "--ledger-out", str(ledger_path)]) == 0
    capsys.readouterr()
    extractions = _of(read_jsonl(str(ledger_path)), "extraction")
    assert extractions
    assert all({f"{kind}_dot" for kind in ("fragment", "host", "collision")}
               <= set(record) for record in extractions)
    assert {"fragment_to_dot", "dfg_to_dot"} <= set(rendered)
