"""Command-line entry point: ``python -m repro``.

Runs the paper's 8-campaign experiment at a chosen world scale and prints
the requested artifacts — the full audit report by default, or any subset
of the paper's tables and figures.

Examples::

    python -m repro                         # full audit, 5 % world
    python -m repro --scale 0.12 --table 2 --table 4
    python -m repro --figure 1 --figure 3 --seed 7
    python -m repro --dump-dataset impressions.jsonl
    python -m repro --trace-json trace.json # open in Perfetto
    python -m repro --faults flaky --coverage-json coverage.json
    python -m repro explain 17              # one impression's receipt
    python -m repro --events-jsonl events.jsonl --progress
    python -m repro report --out report.md  # markdown run report
"""

from __future__ import annotations

import argparse
import sys

from repro.audit import full_audit
from repro.experiments import figures, tables
from repro.experiments.parallel import ParallelExperimentRunner
from repro.experiments.config import paper_experiment
from repro.faults.plan import FaultPlan, PRESET_NAMES

_TABLES = {
    1: tables.render_table1,
    2: tables.render_table2,
    3: tables.render_table3,
    4: tables.render_table4,
}

_FIGURES = {
    1: lambda result: figures.figure1(result).render(),
    2: lambda result: figures.figure2(result).render(),
    3: lambda result: figures.figure3(result).render(),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the HotNets'16 ad-campaign auditing study "
                    "(simulated) and print its tables/figures.")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="world scale, 1.0 = paper scale (default 0.05)")
    parser.add_argument("--seed", type=int, default=2016,
                        help="master seed (default 2016)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the simulation (default 1; "
                             "results are identical for any value)")
    parser.add_argument("--table", type=int, action="append", choices=[1, 2, 3, 4],
                        default=None, metavar="N",
                        help="print Table N (repeatable)")
    parser.add_argument("--figure", type=int, action="append", choices=[1, 2, 3],
                        default=None, metavar="N",
                        help="print Figure N (repeatable)")
    parser.add_argument("--dump-dataset", metavar="PATH", default=None,
                        help="write the collected impression dataset "
                             "(anonymised) as JSONL")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the full audit as JSON")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="write the per-campaign audit summary as CSV")
    parser.add_argument("--metrics", action="store_true",
                        help="print the run's metrics tables to stderr")
    parser.add_argument("--metrics-json", metavar="PATH", default=None,
                        help="write the run's metrics snapshot as strict JSON")
    parser.add_argument("--trace-json", metavar="PATH", default=None,
                        help="write the impression traces as Chrome "
                             "trace_event JSON (open in Perfetto or "
                             "chrome://tracing)")
    parser.add_argument("--trace-jsonl", metavar="PATH", default=None,
                        help="write the impression traces as JSONL, one "
                             "trace per line")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="deterministic fault plan: a preset "
                             f"({', '.join(PRESET_NAMES)}), inline JSON, or "
                             "a JSON file path (default none; 'none' is "
                             "byte-identical to omitting the flag)")
    parser.add_argument("--coverage-json", metavar="PATH", default=None,
                        help="write the measurement-coverage ledger "
                             "(delivered/observed/deduped/quarantined/lost "
                             "per publisher and campaign) as strict JSON")
    add_telemetry_arguments(parser)
    return parser


def add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """The run-telemetry flags shared by the run and report commands."""
    parser.add_argument("--events-jsonl", metavar="PATH", default=None,
                        help="write the run's structured event journal as "
                             "NDJSON (sim events are byte-identical for "
                             "any --jobs value; wall heartbeats are not)")
    parser.add_argument("--progress", action="store_true",
                        help="render live progress (shards done, workers "
                             "busy, RSS, ETA) on stderr while the "
                             "simulation runs")


#: Heartbeat cadence driving --progress / the wall event channel.
_HEARTBEAT_SECONDS = 0.5


def _telemetry_for(args):
    """(events log, progress renderer, heartbeat interval) for a run.

    All three are ``None``-ish when neither telemetry flag is set, so the
    plain path constructs the runner exactly as before.
    """
    from repro.obs.events import EventLog
    from repro.obs.progress import ProgressRenderer

    if not (args.events_jsonl or args.progress):
        return None, None, None
    events = EventLog()
    renderer = None
    if args.progress:
        renderer = ProgressRenderer()
        events.subscribe(renderer.handle)
    return events, renderer, _HEARTBEAT_SECONDS


def _write_events(events, path: str) -> None:
    from pathlib import Path

    from repro.obs.events import dumps_events_jsonl

    Path(path).write_text(dumps_events_jsonl(events.events()),
                          encoding="utf-8")
    print(f"wrote {len(events.events())} events (NDJSON) to {path}",
          file=sys.stderr)


def build_explain_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro explain",
        description="Reconstruct one impression's span tree and audit "
                    "verdicts from the experiment's flight recorder.")
    parser.add_argument("record_id", type=int,
                        help="collector record id (1-based; the record_id "
                             "column of --dump-dataset output)")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="world scale, 1.0 = paper scale (default 0.05)")
    parser.add_argument("--seed", type=int, default=2016,
                        help="master seed (default 2016)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the simulation")
    return parser


def _dropped_trace_message(record_id: int, metrics) -> str:
    """Why a known record has no trace: retention, with real numbers.

    The merged recorder is unbounded, so a missing trace means a *shard*
    recorder dropped it at its head/tail retention bound — the shard
    capacity and the run-wide drop counter tell the operator exactly what
    happened and how to size the recorder instead of a generic miss.
    """
    from repro.obs.trace import DEFAULT_HEAD_TRACES, DEFAULT_TAIL_TRACES

    capacity = DEFAULT_HEAD_TRACES + DEFAULT_TAIL_TRACES
    dropped = int(metrics.counter_value("trace.dropped"))
    return (f"record #{record_id}: trace dropped (recorder capacity "
            f"{capacity}, {dropped} dropped); raise the recorder "
            f"capacity or pick a record inside the head/tail window")


def run_explain(argv: list[str]) -> int:
    """The ``explain`` subcommand: one impression's auditor receipt."""
    from repro.obs.traceio import AuditVerdict, render_explain

    args = build_explain_parser().parse_args(argv)
    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    print(f"Reconstructing record #{args.record_id} (seed={args.seed}, "
          f"scale={args.scale}) ...", file=sys.stderr)
    result = ParallelExperimentRunner(
        paper_experiment(seed=args.seed, scale=args.scale),
        jobs=args.jobs).run()

    record = result.dataset.store.by_id(args.record_id)
    if record is None:
        print(f"record #{args.record_id} is not in the collected dataset "
              f"(it holds {len(result.dataset.store)} records at this "
              f"seed/scale)", file=sys.stderr)
        return 1
    trace = result.recorder.find_by_record(args.record_id)
    if trace is None:
        print(_dropped_trace_message(args.record_id, result.metrics),
              file=sys.stderr)
        return 1

    campaign = result.dataset.campaigns.get(record.campaign_id)
    verdicts = [
        AuditVerdict(
            audit="viewability",
            verdict="viewable (upper bound)" if record.viewable_upper_bound
            else "below 1 s exposure",
            detail=f"server-measured exposure {record.exposure_seconds:.2f}s"
                   + (", connection truncated" if record.truncated else "")),
        AuditVerdict(
            audit="fraud",
            verdict="data-center traffic" if record.is_datacenter
            else "no fraud indicator",
            detail=f"resolver stage {record.dc_stage or 'none'}, "
                   f"provider {record.provider or 'unknown'}"),
    ]
    impressions_seen = result.dataset.store.select(
        record.campaign_id, "user_key").count((record.user_key,))
    cap = campaign.frequency_cap if campaign is not None else None
    if cap is None:
        verdicts.append(AuditVerdict(
            audit="frequency",
            verdict="uncapped",
            detail=f"user logged {impressions_seen} impression(s); no cap "
                   f"configured — the vendor applies none by default"))
    else:
        verdicts.append(AuditVerdict(
            audit="frequency",
            verdict="cap exceeded" if impressions_seen > cap
            else "within cap",
            detail=f"user logged {impressions_seen} impression(s) vs "
                   f"cap {cap}"))

    header = [
        f"  creative {record.creative_id} · {record.url}",
        f"  user key {record.user_key.replace(chr(31), ' / ')}",
    ]
    print(render_explain(trace, verdicts, header_lines=header,
                         audit_at=record.timestamp
                         + record.exposure_seconds))
    return 0


def build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Run the experiment and write a self-contained "
                    "markdown run report (statistics, coverage, timings, "
                    "memory watermarks, event-journal summary, audit).")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="world scale, 1.0 = paper scale (default 0.05)")
    parser.add_argument("--seed", type=int, default=2016,
                        help="master seed (default 2016)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the simulation")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="deterministic fault plan: a preset "
                             f"({', '.join(PRESET_NAMES)}), inline JSON, "
                             "or a JSON file path (default none)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the report to PATH instead of stdout")
    add_telemetry_arguments(parser)
    return parser


def run_report(argv: list[str]) -> int:
    """The ``report`` subcommand: one markdown document per run."""
    from repro.experiments.report import render_run_report
    from repro.obs.memwatch import MemoryWatch

    args = build_report_parser().parse_args(argv)
    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    try:
        plan = FaultPlan.resolve(args.faults)
    except (ValueError, OSError) as error:
        print(f"--faults: {error}", file=sys.stderr)
        return 2
    print(f"Reporting on the 8-campaign study (seed={args.seed}, "
          f"scale={args.scale}, jobs={args.jobs}) ...", file=sys.stderr)
    events, renderer, heartbeat = _telemetry_for(args)
    result = ParallelExperimentRunner(
        paper_experiment(seed=args.seed, scale=args.scale, faults=plan),
        jobs=args.jobs, events=events, heartbeat_interval=heartbeat).run()
    if renderer is not None:
        renderer.close()

    # The audit runs outside the runner's stages; sample it here so the
    # report's memory table covers the full command, not just the run.
    audit_watch = MemoryWatch()
    with audit_watch.stage("audit"):
        audit = full_audit(result.dataset).render()
    extra_memory = {name: {
        "spans": stats.spans,
        "rss_peak_bytes": stats.rss_peak_bytes,
        "rss_delta_bytes": stats.rss_delta_bytes,
        "tracemalloc_peak_bytes": stats.tracemalloc_peak_bytes,
    } for name, stats in audit_watch.stages().items()}
    document = render_run_report(result, audit=audit,
                                 extra_memory=extra_memory)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(document, encoding="utf-8")
        print(f"wrote run report to {args.out}", file=sys.stderr)
    else:
        print(document, end="")
    if args.events_jsonl:
        _write_events(result.events, args.events_jsonl)
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explain":
        return run_explain(argv[1:])
    if argv and argv[0] == "report":
        return run_report(argv[1:])
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    try:
        plan = FaultPlan.resolve(args.faults)
    except (ValueError, OSError) as error:
        print(f"--faults: {error}", file=sys.stderr)
        return 2
    print(f"Running the 8-campaign study (seed={args.seed}, "
          f"scale={args.scale}, jobs={args.jobs}) ...", file=sys.stderr)
    events, renderer, heartbeat = _telemetry_for(args)
    result = ParallelExperimentRunner(
        paper_experiment(seed=args.seed, scale=args.scale, faults=plan),
        jobs=args.jobs, events=events, heartbeat_interval=heartbeat).run()
    if renderer is not None:
        renderer.close()
    print(f"pageviews={result.stats['pageviews']} "
          f"delivered={result.stats['delivered']} "
          f"logged={result.stats['logged']}", file=sys.stderr)

    # One audit report serves the printed audit and the JSON/CSV exports;
    # the tables and figures read the same memoised axis results.
    report = full_audit(result.dataset) \
        if not (args.table or args.figure) or args.json or args.csv else None
    sections: list[str] = []
    for number in args.table or ():
        sections.append(_TABLES[number](result))
    for number in args.figure or ():
        sections.append(_FIGURES[number](result))
    if not sections:
        sections.append(report.render())
    if plan.active:
        # The coverage ledger explains, delivery by delivery, what the
        # fault plan cost the measurement; it never prints for the
        # inactive plan so fault-free stdout stays byte-identical.
        from repro.audit.coverage import render_coverage

        sections.append(render_coverage(result.coverage))
    print("\n\n".join(sections))

    if args.dump_dataset:
        count = result.dataset.store.dump_jsonl(args.dump_dataset)
        print(f"wrote {count} impression records to {args.dump_dataset}",
              file=sys.stderr)
    if args.coverage_json:
        from pathlib import Path

        from repro.audit.coverage import coverage_to_json

        Path(args.coverage_json).write_text(
            coverage_to_json(result.coverage), encoding="utf-8")
        print(f"wrote coverage JSON to {args.coverage_json}",
              file=sys.stderr)
    if args.json or args.csv:
        from pathlib import Path

        from repro.audit.export import report_to_csv, report_to_json

        if args.json:
            Path(args.json).write_text(report_to_json(report),
                                       encoding="utf-8")
            print(f"wrote audit JSON to {args.json}", file=sys.stderr)
        if args.csv:
            Path(args.csv).write_text(report_to_csv(report),
                                      encoding="utf-8")
            print(f"wrote audit CSV to {args.csv}", file=sys.stderr)
    if args.metrics:
        from repro.obs.render import render_metrics

        print(render_metrics(result.metrics), file=sys.stderr)
    if args.metrics_json:
        from pathlib import Path

        Path(args.metrics_json).write_text(result.metrics.to_json() + "\n",
                                           encoding="utf-8")
        print(f"wrote metrics JSON to {args.metrics_json}", file=sys.stderr)
    if args.trace_json:
        from pathlib import Path

        from repro.obs.traceio import dumps_chrome_trace

        Path(args.trace_json).write_text(
            dumps_chrome_trace(result.recorder.traces()) + "\n",
            encoding="utf-8")
        print(f"wrote {len(result.recorder)} traces (Chrome trace_event) "
              f"to {args.trace_json}", file=sys.stderr)
    if args.trace_jsonl:
        from pathlib import Path

        from repro.obs.traceio import dumps_trace_jsonl

        Path(args.trace_jsonl).write_text(
            dumps_trace_jsonl(result.recorder.traces()), encoding="utf-8")
        print(f"wrote {len(result.recorder)} traces (JSONL) "
              f"to {args.trace_jsonl}", file=sys.stderr)
    if args.events_jsonl:
        _write_events(result.events, args.events_jsonl)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
