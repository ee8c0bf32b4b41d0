"""``repro explain <round>``: one round's full story, in the terminal.

Renders the decision ledger of a single abstraction round as prose-ish
text: what was mined, how many embeddings the PA pruning killed, how the
candidate funnel narrowed, and — for every applied extraction — the
winning fragment's body, its embedding count, the MIS size, and the
mechanism chosen.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence


def _of_round(records: Sequence[Dict[str, Any]], rtype: str,
              round_number: int) -> List[Dict[str, Any]]:
    return [
        r for r in records
        if r["type"] == rtype and r.get("round") == round_number
    ]


def explain_round(records: Sequence[Dict[str, Any]],
                  round_number: int) -> str:
    """The full story of one round, as plain text."""
    rounds = sorted({
        r["round"] for r in records
        if r.get("round") is not None and r["type"] == "round.begin"
    })
    if round_number not in rounds:
        known = ", ".join(map(str, rounds)) or "none"
        return (f"round {round_number} not present in this run "
                f"(recorded rounds: {known})")

    begin = _of_round(records, "round.begin", round_number)[0]
    ends = _of_round(records, "round.end", round_number)
    end = ends[0] if ends else {}
    passes = _of_round(records, "mine.pass", round_number)
    prunes = _of_round(records, "prune", round_number)
    skips = _of_round(records, "mine.skips", round_number)
    candidates = _of_round(records, "candidate", round_number)
    extractions = _of_round(records, "extraction", round_number)

    lines: List[str] = []
    before = begin.get("instructions", "?")
    after = end.get("instructions", "?")
    saved = end.get("saved", sum(e["benefit"] for e in extractions))
    lines.append(
        f"Round {round_number}: {before} -> {after} instructions "
        f"(saved {saved})"
    )

    if passes:
        lines.append("  mining:")
        for rec in passes:
            label = rec.get("mine_pass", "?")
            lines.append(
                f"    {label:<8s} {rec.get('engine', '?'):<7s} "
                f"{rec.get('graphs', '?')} graphs, "
                f"{rec.get('seeds', '?')} seeds, "
                f"{rec.get('lattice_nodes', '?')} lattice nodes"
                + (", deadline hit" if rec.get("deadline_hit") else "")
            )
    for rec in prunes:
        lines.append(
            "  PA pruning: "
            f"{rec.get('never_convex', 0)} never-convex embeddings, "
            f"{rec.get('cyclic', 0)} cyclic-dependency (Fig. 9) "
            "embeddings dropped, "
            f"{rec.get('illegal', 0)} lattice branches cut as never "
            "legally extractable"
        )
    for rec in skips:
        lines.append(
            f"  candidate funnel: {rec.get('considered', '?')} "
            "considered -> "
            f"{rec.get('floor', 0)} below the benefit floor, "
            f"{rec.get('illegal', 0)} illegal, "
            f"{rec.get('lr_infeasible', 0)} lr-infeasible, "
            f"{rec.get('order_inconsistent', 0)} order-inconsistent, "
            f"{rec.get('unprofitable', 0)} unprofitable, "
            f"{rec.get('scored', 0)} scored"
        )

    losers = [c for c in candidates if c.get("verdict") != "scored"]
    if losers:
        lines.append(f"  lost the race ({len(losers)} recorded):")
        for rec in losers[:5]:
            lines.append(
                f"    {rec.get('verdict', '?')}: size "
                f"{rec.get('size', '?')} x{rec.get('mis_size', '?')} "
                f"({', '.join(rec.get('labels', ())[:4])}"
                f"{', ...' if len(rec.get('labels', ())) > 4 else ''})"
            )
        if len(losers) > 5:
            lines.append(f"    ... and {len(losers) - 5} more")

    if not extractions:
        lines.append("  no extraction applied this round")
    for index, rec in enumerate(extractions):
        tag = "winner" if index == 0 else "also applied"
        lines.append(
            f"  {tag}: {rec.get('new_symbol', '?')} "
            f"[{rec.get('method', '?')}] — "
            f"{rec.get('size', '?')} instructions "
            f"x{rec.get('occurrences', '?')} occurrences, "
            f"benefit {rec.get('benefit', '?')} instructions "
            f"({rec.get('bytes_saved', '?')} bytes)"
        )
        funnel = (
            f"    embeddings {rec.get('embedding_count', '?')}"
            f" -> legal {rec.get('legal', '?')}"
            f" -> MIS size {rec.get('mis_size', '?')}"
        )
        if rec.get("collision_nodes") is not None:
            funnel += (
                f" (collision graph: {rec['collision_nodes']} nodes / "
                f"{rec.get('collision_edges', '?')} edges, "
                f"{rec.get('mis_mode', '?')} MIS)"
            )
        if rec.get("order_kept") is not None:
            funnel += f" -> order-consistent {rec['order_kept']}"
        lines.append(funnel)
        for insn in rec.get("instructions", ()):
            lines.append(f"      {insn}")
    return "\n".join(lines)


def explain_run(records: Sequence[Dict[str, Any]]) -> str:
    """A one-line-per-round digest of the whole run."""
    lines = []
    for record in records:
        if record["type"] == "round.end":
            lines.append(
                f"round {record.get('round', '?'):>3}: "
                f"applied {record.get('applied', '?')}, "
                f"saved {record.get('saved', '?')} "
                f"-> {record.get('instructions', '?')} instructions"
            )
    return "\n".join(lines) or "(no rounds recorded)"
