"""The self-contained HTML run report, from synthetic ledger records."""

from repro.report.html import build_report, write_report

RECORDS = [
    {"type": "run.begin", "schema": "repro.report.ledger/2",
     "engine": "edgar", "source": "golden", "instructions": 42,
     "config": {"batch": False, "max_nodes": 8}},
    {"type": "round.begin", "round": 0, "instructions": 42},
    {"type": "mine.skips", "round": 0, "considered": 100, "floor": 10,
     "illegal": 80, "lr_infeasible": 2, "order_inconsistent": 1,
     "unprofitable": 3, "scored": 4},
    {"type": "prune", "round": 0, "never_convex": 50, "cyclic": 5,
     "illegal": 77},
    {"type": "extraction", "round": 0, "method": "crossjump",
     "new_symbol": "tail_0", "size": 5, "occurrences": 2, "benefit": 4,
     "bytes_saved": 16, "embedding_count": 2, "mis_size": 2,
     "instructions": ["add r0, r4, #10", "pop {r4, r5, r6, pc}"],
     "fragment_dot": "digraph f { }", "host_dot": "digraph h { }",
     "collision_dot": "graph c { }"},
    {"type": "round.end", "round": 0, "instructions": 38, "applied": 1,
     "saved": 4},
    {"type": "round.begin", "round": 1, "instructions": 38},
    {"type": "extraction", "round": 1, "method": "call",
     "new_symbol": "pa_1", "size": 6, "occurrences": 2, "benefit": 3,
     "bytes_saved": 12, "embedding_count": 2, "mis_size": 2,
     "instructions": ["mov r1, #3"]},
    {"type": "round.end", "round": 1, "instructions": 35, "applied": 1,
     "saved": 3},
    {"type": "run.end", "rounds": 2, "instructions": 35, "saved": 7,
     "bytes_saved": 28, "elapsed_seconds": 1.5,
     "dropped": {"legality": 12}},
]


class TestBuildReport:
    def test_self_contained_document(self):
        html = build_report(RECORDS)
        assert html.startswith("<!DOCTYPE html>")
        assert html.rstrip().endswith("</html>")
        # no external assets: no http(s) URLs, scripts or link tags
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html and "<link" not in html
        assert "<style>" in html

    def test_run_header_and_totals(self):
        html = build_report(RECORDS, title="golden report")
        assert "golden report" in html
        assert "repro.report.ledger/2" in html
        assert ">42<" in html and ">35<" in html
        assert "total saved</td>" in html
        assert "<td>7</td>" in html
        assert "batch=False" in html

    def test_savings_chart_is_inline_svg(self):
        html = build_report(RECORDS)
        assert "<svg" in html
        # one bar per round
        assert html.count("<rect") == 2
        assert ">r0<" in html and ">r1<" in html

    def test_extraction_rows_and_dot_sources(self):
        html = build_report(RECORDS)
        assert "tail_0" in html and "pa_1" in html
        assert "badge crossjump" in html and "badge call" in html
        assert "digraph f { }" in html
        assert "graph c { }" in html
        assert "pop {r4, r5, r6, pc}" in html

    def test_candidate_funnel_table(self):
        html = build_report(RECORDS)
        assert "Candidate funnel" in html
        assert "<td>100</td>" in html and "<td>80</td>" in html

    def test_prune_columns(self):
        html = build_report(RECORDS)
        assert "<th>cyclic prunes</th><th>illegal prunes</th>" in html
        assert "<td>5</td><td>77</td></tr>" in html

    def test_dropped_census_reported(self):
        html = build_report(RECORDS)
        assert "legality dropped 12 records" in html

    def test_telemetry_sections_optional(self):
        bare = build_report(RECORDS)
        assert "Phase tree" not in bare
        rich = build_report(
            RECORDS,
            stats={
                "counters": {"pa.runs": 1},
                "histograms": {"pa.extraction.benefit": {
                    "count": 2, "mean": 3.5, "p50": 3.0, "p90": 4.0,
                    "p99": 4.0, "max": 4.0,
                }},
            },
            tree="pa.run\n  pa.round",
        )
        assert "Phase tree" in rich
        assert "pa.runs" in rich
        assert "pa.extraction.benefit" in rich
        assert "3.500" in rich

    def test_markup_escaped(self):
        records = [dict(RECORDS[0], source="<b>evil</b>")]
        html = build_report(records)
        assert "<b>evil</b>" not in html
        assert "&lt;b&gt;evil&lt;/b&gt;" in html

    def test_empty_ledger_still_renders(self):
        html = build_report([])
        assert "no rounds recorded" in html

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.html"
        write_report(str(path), RECORDS)
        assert path.read_text() == build_report(RECORDS)
