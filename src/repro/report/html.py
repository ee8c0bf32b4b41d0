"""The self-contained HTML run report (``repro pa --report out.html``).

One file, no external assets: inline CSS, a hand-rolled inline SVG for
the savings-by-round chart, and the winning fragments' Graphviz DOT
sources inlined in ``<details>`` blocks (paste into ``dot -Tsvg`` or any
online renderer to draw them).  Everything is derived from the decision
ledger plus — when available — the telemetry stats dump and phase tree.
"""

from __future__ import annotations

import html as _html
from typing import Any, Dict, List, Optional, Sequence

from repro.resilience.atomicio import atomic_write_text

_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
       max-width: 70rem; padding: 0 1rem; color: #1a1a1a; }
h1, h2, h3 { line-height: 1.2; }
table { border-collapse: collapse; margin: 0.75rem 0; }
th, td { border: 1px solid #ccc; padding: 0.25rem 0.6rem;
         text-align: right; }
th { background: #f0f0f0; }
td.l, th.l { text-align: left; }
tr.total td { font-weight: bold; background: #fafad9; }
pre { background: #f6f6f6; border: 1px solid #ddd; padding: 0.6rem;
      overflow-x: auto; font-size: 12px; }
details { margin: 0.5rem 0; }
summary { cursor: pointer; font-weight: 600; }
.muted { color: #666; }
.badge { display: inline-block; padding: 0 0.45rem; border-radius: 3px;
         font-size: 12px; color: #fff; }
.badge.call { background: #1f6f43; }
.badge.crossjump { background: #285a8f; }
"""


def _esc(value: Any) -> str:
    return _html.escape(str(value))


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return _esc(value)


def _savings_chart(per_round: List[int]) -> str:
    """Inline SVG bar chart: instructions saved per round."""
    if not per_round:
        return '<p class="muted">no rounds recorded</p>'
    width, height, pad = 640, 180, 28
    peak = max(max(per_round), 1)
    bar_w = max(6, min(60, (width - 2 * pad) // len(per_round) - 8))
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'width="{width}" height="{height}" '
        'aria-label="instructions saved per round">'
    ]
    parts.append(
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="#999"/>'
    )
    for index, saved in enumerate(per_round):
        bar_h = int((height - 2 * pad) * saved / peak)
        x = pad + index * (bar_w + 8) + 4
        y = height - pad - bar_h
        parts.append(
            f'<rect x="{x}" y="{y}" width="{bar_w}" height="{bar_h}" '
            'fill="#1f6f43"/>'
        )
        parts.append(
            f'<text x="{x + bar_w // 2}" y="{height - pad + 14}" '
            'font-size="11" text-anchor="middle">'
            f"r{index}</text>"
        )
        parts.append(
            f'<text x="{x + bar_w // 2}" y="{max(12, y - 4)}" '
            'font-size="11" text-anchor="middle">'
            f"{saved}</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _by_round(records: Sequence[Dict[str, Any]], rtype: str
              ) -> Dict[int, List[Dict[str, Any]]]:
    grouped: Dict[int, List[Dict[str, Any]]] = {}
    for record in records:
        if record["type"] == rtype and record.get("round") is not None:
            grouped.setdefault(record["round"], []).append(record)
    return grouped


def build_report(
    records: Sequence[Dict[str, Any]],
    stats: Optional[Dict[str, Any]] = None,
    tree: Optional[str] = None,
    title: str = "PA run report",
) -> str:
    """Render the ledger (+ optional stats/tree) as one HTML document."""
    begin = next((r for r in records if r["type"] == "run.begin"), {})
    end = next((r for r in records if r["type"] == "run.end"), {})
    extractions = _by_round(records, "extraction")
    round_ends = _by_round(records, "round.end")
    round_begins = _by_round(records, "round.begin")
    skips = _by_round(records, "mine.skips")
    prunes = _by_round(records, "prune")
    rounds = sorted(
        set(round_begins) | set(round_ends) | set(extractions)
    )
    per_round_saved = [
        sum(e["benefit"] for e in extractions.get(r, ())) for r in rounds
    ]
    total_saved = sum(per_round_saved)

    out: List[str] = []
    out.append("<!DOCTYPE html><html><head><meta charset='utf-8'>")
    out.append(f"<title>{_esc(title)}</title>")
    out.append(f"<style>{_CSS}</style></head><body>")
    out.append(f"<h1>{_esc(title)}</h1>")

    # ---- run header -------------------------------------------------
    out.append("<h2>Run</h2><table>")
    header_fields = [
        ("schema", begin.get("schema", "")),
        ("source", begin.get("source", "")),
        ("engine", begin.get("engine", begin.get("miner", ""))),
        ("instructions before", begin.get("instructions", "")),
        ("instructions after", end.get("instructions", "")),
        ("rounds", end.get("rounds", len(rounds))),
        ("instructions saved", end.get("saved", total_saved)),
        ("bytes saved", end.get("bytes_saved", 4 * total_saved)),
    ]
    for key, value in header_fields:
        if value != "":
            out.append(
                f"<tr><th class='l'>{_esc(key)}</th>"
                f"<td>{_fmt(value)}</td></tr>"
            )
    if begin.get("config"):
        out.append(
            "<tr><th class='l'>config</th><td class='l'>"
            + ", ".join(
                f"{_esc(k)}={_esc(v)}"
                for k, v in sorted(begin["config"].items())
            )
            + "</td></tr>"
        )
    out.append("</table>")

    # ---- savings chart ----------------------------------------------
    out.append("<h2>Savings by round</h2>")
    out.append(_savings_chart(per_round_saved))

    # ---- per-round table --------------------------------------------
    out.append("<h2>Rounds</h2>")
    out.append(
        "<table><tr><th>round</th><th>instructions</th>"
        "<th>candidates scored</th><th>applied</th>"
        "<th>calls</th><th>crossjumps</th><th>saved</th>"
        "<th>cyclic prunes</th><th>illegal prunes</th></tr>"
    )
    for index, round_number in enumerate(rounds):
        begin_rec = (round_begins.get(round_number) or [{}])[0]
        skip_rec = (skips.get(round_number) or [{}])[0]
        prune_rec = (prunes.get(round_number) or [{}])[0]
        rows = extractions.get(round_number, [])
        calls = sum(1 for e in rows if e["method"] == "call")
        xjumps = sum(1 for e in rows if e["method"] == "crossjump")
        out.append(
            f"<tr><td>{round_number}</td>"
            f"<td>{_fmt(begin_rec.get('instructions', ''))}</td>"
            f"<td>{_fmt(skip_rec.get('scored', ''))}</td>"
            f"<td>{len(rows)}</td><td>{calls}</td><td>{xjumps}</td>"
            f"<td>{per_round_saved[index]}</td>"
            f"<td>{_fmt(prune_rec.get('cyclic', ''))}</td>"
            f"<td>{_fmt(prune_rec.get('illegal', ''))}</td></tr>"
        )
    out.append(
        "<tr class='total'><td class='l' colspan='6'>total saved</td>"
        f"<td>{total_saved}</td><td></td><td></td></tr>"
    )
    out.append("</table>")

    # ---- extractions ------------------------------------------------
    out.append("<h2>Extractions</h2>")
    for round_number in rounds:
        rows = extractions.get(round_number, [])
        if not rows:
            continue
        out.append(f"<h3>Round {round_number}</h3>")
        out.append(
            "<table><tr><th>symbol</th><th>mechanism</th><th>size</th>"
            "<th>occurrences</th><th>embeddings</th><th>MIS</th>"
            "<th>benefit</th><th>bytes</th></tr>"
        )
        for row in rows:
            out.append(
                f"<tr><td class='l'>{_esc(row.get('new_symbol', '?'))}"
                "</td><td class='l'><span class='badge "
                f"{_esc(row['method'])}'>{_esc(row['method'])}</span>"
                f"</td><td>{row.get('size', '')}</td>"
                f"<td>{row.get('occurrences', '')}</td>"
                f"<td>{_fmt(row.get('embedding_count', ''))}</td>"
                f"<td>{_fmt(row.get('mis_size', ''))}</td>"
                f"<td>{row.get('benefit', '')}</td>"
                f"<td>{_fmt(row.get('bytes_saved', ''))}</td></tr>"
            )
        out.append("</table>")
        for row in rows:
            out.append("<details><summary>"
                       f"{_esc(row.get('new_symbol', '?'))} body and "
                       "graphs</summary>")
            insns = row.get("instructions") or ()
            if insns:
                out.append(
                    "<pre>" + "\n".join(_esc(i) for i in insns) + "</pre>"
                )
            for key, label in (
                ("fragment_dot", "fragment DOT"),
                ("host_dot", "host block DFG DOT (embedding "
                             "highlighted)"),
                ("collision_dot", "collision graph DOT (MIS "
                                  "highlighted)"),
            ):
                if row.get(key):
                    out.append(
                        f"<details><summary>{label}</summary>"
                        f"<pre>{_esc(row[key])}</pre></details>"
                    )
            out.append("</details>")

    # ---- candidate funnel -------------------------------------------
    if skips:
        out.append("<h2>Candidate funnel</h2>")
        out.append(
            "<table><tr><th>round</th><th>considered</th>"
            "<th>benefit floor</th><th>illegal</th>"
            "<th>lr infeasible</th><th>order</th>"
            "<th>unprofitable</th><th>scored</th></tr>"
        )
        for round_number in sorted(skips):
            rec = skips[round_number][0]
            out.append(
                f"<tr><td>{round_number}</td>"
                f"<td>{_fmt(rec.get('considered', ''))}</td>"
                f"<td>{_fmt(rec.get('floor', ''))}</td>"
                f"<td>{_fmt(rec.get('illegal', ''))}</td>"
                f"<td>{_fmt(rec.get('lr_infeasible', ''))}</td>"
                f"<td>{_fmt(rec.get('order_inconsistent', ''))}</td>"
                f"<td>{_fmt(rec.get('unprofitable', ''))}</td>"
                f"<td>{_fmt(rec.get('scored', ''))}</td></tr>"
            )
        out.append("</table>")

    # ---- telemetry --------------------------------------------------
    if tree:
        out.append("<h2>Phase tree</h2>")
        out.append(f"<pre>{_esc(tree)}</pre>")
    if stats:
        counters = stats.get("counters") or {}
        if counters:
            out.append("<h2>Counters</h2><table>")
            out.append("<tr><th class='l'>counter</th><th>value</th></tr>")
            for name, value in sorted(counters.items()):
                out.append(
                    f"<tr><td class='l'>{_esc(name)}</td>"
                    f"<td>{_fmt(value)}</td></tr>"
                )
            out.append("</table>")
        histograms = stats.get("histograms") or {}
        if histograms:
            out.append("<h2>Histograms</h2><table>")
            out.append(
                "<tr><th class='l'>histogram</th><th>count</th>"
                "<th>mean</th><th>p50</th><th>p90</th><th>p99</th>"
                "<th>max</th></tr>"
            )
            for name, value in sorted(histograms.items()):
                out.append(
                    f"<tr><td class='l'>{_esc(name)}</td>"
                    f"<td>{_fmt(value.get('count', ''))}</td>"
                    f"<td>{_fmt(value.get('mean', ''))}</td>"
                    f"<td>{_fmt(value.get('p50', ''))}</td>"
                    f"<td>{_fmt(value.get('p90', ''))}</td>"
                    f"<td>{_fmt(value.get('p99', ''))}</td>"
                    f"<td>{_fmt(value.get('max', ''))}</td></tr>"
                )
            out.append("</table>")

    dropped = end.get("dropped") or {}
    if dropped:
        out.append(
            "<p class='muted'>ledger truncation: "
            + ", ".join(
                f"{_esc(k)} dropped {_esc(v)} records"
                for k, v in sorted(dropped.items())
            )
            + "</p>"
        )
    out.append("</body></html>")
    return "\n".join(out)


def write_report(
    path: str,
    records: Sequence[Dict[str, Any]],
    stats: Optional[Dict[str, Any]] = None,
    tree: Optional[str] = None,
    title: str = "PA run report",
) -> None:
    atomic_write_text(path, build_report(records, stats, tree, title))
