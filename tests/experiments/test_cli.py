"""Tests for the ``python -m repro`` command line."""

import csv
import io
import json

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.scale == 0.05
        assert args.seed == 2016
        assert args.table is None
        assert args.figure is None

    def test_repeatable_table_and_figure(self):
        args = build_parser().parse_args(
            ["--table", "2", "--table", "4", "--figure", "1"])
        assert args.table == [2, 4]
        assert args.figure == [1]

    def test_rejects_unknown_table(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--table", "9"])


class TestMain:
    def test_prints_requested_artifacts(self, capsys, tmp_path):
        code = main(["--scale", "0.01", "--seed", "5",
                     "--table", "3", "--figure", "1",
                     "--dump-dataset", str(tmp_path / "ds.jsonl"),
                     "--json", str(tmp_path / "audit.json"),
                     "--csv", str(tmp_path / "audit.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Figure 1" in out

        dataset_lines = (tmp_path / "ds.jsonl").read_text().splitlines()
        assert dataset_lines
        json.loads(dataset_lines[0])

        audit = json.loads((tmp_path / "audit.json").read_text())
        assert len(audit["campaigns"]) == 8

        rows = list(csv.reader(io.StringIO(
            (tmp_path / "audit.csv").read_text())))
        assert len(rows) == 9   # header + 8 campaigns

    def test_default_output_is_full_audit(self, capsys):
        code = main(["--scale", "0.01", "--seed", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Brand safety" in out
        assert "Frequency capping" in out

    def test_trace_export_flags(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "trace.jsonl"
        code = main(["--scale", "0.01", "--seed", "5", "--table", "3",
                     "--trace-json", str(trace_path),
                     "--trace-jsonl", str(jsonl_path)])
        assert code == 0
        err = capsys.readouterr().err
        assert "traces" in err

        text = trace_path.read_text()
        assert "Infinity" not in text
        assert "NaN" not in text
        document = json.loads(text)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert any(event["ph"] == "X" and event["name"] == "collector.ingest"
                   for event in events)

        from repro.obs.traceio import loads_trace_jsonl
        traces = loads_trace_jsonl(jsonl_path.read_text())
        assert traces
        assert all(trace.trace_id for trace in traces)

    def test_explain_renders_receipt(self, capsys):
        code = main(["explain", "17", "--scale", "0.01", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Impression receipt" in out
        assert "record #17" in out
        assert "collector.ingest" in out
        assert "audit.classify" in out
        assert "Audit verdicts" in out

    def test_explain_unknown_record_fails_cleanly(self, capsys):
        code = main(["explain", "999999", "--scale", "0.01", "--seed", "5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "999999" in err

    def test_metrics_flags(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        code = main(["--scale", "0.01", "--seed", "6", "--table", "3",
                     "--metrics", "--metrics-json", str(metrics_path)])
        assert code == 0
        err = capsys.readouterr().err
        assert "Sim-domain metrics" in err

        text = metrics_path.read_text()
        assert "Infinity" not in text
        assert "NaN" not in text
        parsed = json.loads(text)
        assert parsed["sim"]["counters"]["adserver.pageviews"] > 0
        assert "collector.connection_seconds" in parsed["sim"]["histograms"]


class TestTelemetryFlags:
    def test_events_jsonl_writes_valid_ndjson(self, capsys, tmp_path):
        from repro.obs.events import validate_events_jsonl

        events_path = tmp_path / "events.jsonl"
        code = main(["--scale", "0.01", "--seed", "5", "--table", "3",
                     "--events-jsonl", str(events_path)])
        assert code == 0
        err = capsys.readouterr().err
        assert "events (NDJSON)" in err
        text = events_path.read_text()
        validate_events_jsonl(text)   # raises on any malformed line
        assert '"name": "shard.planned"' in text
        assert '"name": "coverage.reconciled"' in text
        assert '"name": "runner.heartbeat"' in text

    def test_progress_renders_on_stderr(self, capsys):
        code = main(["--scale", "0.01", "--seed", "5", "--table", "3",
                     "--progress"])
        assert code == 0
        err = capsys.readouterr().err
        assert "shards" in err
        # Captured stderr is not a TTY, so the renderer appends plain
        # lines; the final one shows the full bar.
        assert "[####################]" in err

    def test_telemetry_off_keeps_flags_optional(self):
        args = build_parser().parse_args([])
        assert args.events_jsonl is None
        assert args.progress is False


class TestReportCommand:
    def test_report_writes_markdown_and_events(self, capsys, tmp_path):
        from repro.obs.events import validate_events_jsonl

        report_path = tmp_path / "report.md"
        events_path = tmp_path / "events.jsonl"
        code = main(["report", "--scale", "0.01", "--seed", "5",
                     "--faults", "flaky",
                     "--out", str(report_path),
                     "--events-jsonl", str(events_path)])
        assert code == 0
        text = report_path.read_text()
        assert text.startswith("# Repro run report")
        assert "## Coverage reconciliation" in text
        assert "## Event journal" in text
        assert "## Audit report" in text
        assert "| audit |" in text   # the audit stage joins the memory table
        validate_events_jsonl(events_path.read_text())

    def test_report_to_stdout(self, capsys):
        code = main(["report", "--scale", "0.01", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# Repro run report" in out

    def test_report_rejects_bad_faults(self, capsys):
        code = main(["report", "--scale", "0.01", "--faults", "no-such"])
        assert code == 2
        assert "--faults" in capsys.readouterr().err


class TestDroppedTraceMessage:
    def test_names_capacity_and_drop_count(self):
        from repro.__main__ import _dropped_trace_message
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import DEFAULT_HEAD_TRACES, DEFAULT_TAIL_TRACES

        registry = MetricsRegistry()
        registry.counter("trace.dropped").inc(37)
        message = _dropped_trace_message(123, registry.snapshot())
        capacity = DEFAULT_HEAD_TRACES + DEFAULT_TAIL_TRACES
        assert f"trace dropped (recorder capacity {capacity}" in message
        assert "37 dropped" in message
        assert "record #123" in message

