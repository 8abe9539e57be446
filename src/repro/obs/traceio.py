"""Trace export and rendering: Chrome ``trace_event`` JSON, JSONL, text.

Three consumers of the merged traces (:class:`~repro.obs.trace.TraceArchive`)
live here:

* :func:`dumps_chrome_trace` — the Chrome ``trace_event`` array format
  (``{"traceEvents": [...]}``) that ``chrome://tracing`` and Perfetto
  load directly; each trace becomes one named thread so the span tree
  reads as a per-impression swimlane.
* :func:`dumps_trace_jsonl` / :func:`loads_trace_jsonl` — one trace per
  line, lossless round-trip of :class:`~repro.obs.trace.TraceRecord`.
* :func:`render_trace_tree` / :func:`render_explain` — the aligned text
  report behind ``python -m repro explain``: one impression's span tree
  plus the audit verdicts, the independent auditor's receipt.

All exports are strict JSON (``allow_nan=False``) and canonically
ordered, so byte-comparison between serial and sharded runs is a valid
equivalence test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from repro.obs.trace import SpanRecord, TraceError, TraceRecord
from repro.util.tables import render_table

#: Microseconds per simulated second — trace_event timestamps are in µs.
_US = 1_000_000


def _category(name: str) -> str:
    """Event category = the span name's subsystem prefix."""
    return name.split(".", 1)[0]


def chrome_trace_events(traces: Iterable[TraceRecord]) -> list[dict]:
    """Flatten traces into Chrome ``trace_event`` dicts.

    Every trace maps to one tid under pid 1 (tids follow the canonical
    trace order), announced by a ``thread_name`` metadata event; every
    span becomes a complete ("ph": "X") event with microsecond sim-time
    stamps.  The output order is deterministic: traces in the given
    order, spans in document order.
    """
    events: list[dict] = []
    for tid, trace in enumerate(traces, start=1):
        label = f"impression {trace.impression_id}"
        if trace.record_id is not None:
            label += f" / record {trace.record_id}"
        events.append({
            "ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
            "args": {"name": f"{label} [{trace.trace_id}]"},
        })
        for span in trace.spans:
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": _category(span.name),
                "pid": 1,
                "tid": tid,
                "ts": round(span.start * _US),
                "dur": round(span.duration * _US),
                "args": dict(span.attrs) | {
                    "trace_id": trace.trace_id,
                    "span_id": span.span_id,
                    "shard": trace.shard_scope,
                },
            })
    return events


def dumps_chrome_trace(traces: Iterable[TraceRecord]) -> str:
    """Strict-JSON Chrome trace document for chrome://tracing / Perfetto."""
    document = {
        "displayTimeUnit": "ms",
        "traceEvents": chrome_trace_events(traces),
    }
    return json.dumps(document, sort_keys=True, allow_nan=False,
                      separators=(",", ":"))


# -- JSONL round-trip ------------------------------------------------- #

def _trace_to_dict(trace: TraceRecord) -> dict:
    return {
        "trace_id": trace.trace_id,
        "shard_scope": trace.shard_scope,
        "impression_id": trace.impression_id,
        "campaign_id": trace.campaign_id,
        "record_id": trace.record_id,
        "spans": [
            {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "attrs": [list(pair) for pair in span.attrs],
            }
            for span in trace.spans
        ],
    }


def _trace_from_dict(payload: dict) -> TraceRecord:
    return TraceRecord(
        trace_id=payload["trace_id"],
        shard_scope=payload["shard_scope"],
        impression_id=payload["impression_id"],
        campaign_id=payload["campaign_id"],
        record_id=payload["record_id"],
        spans=tuple(
            SpanRecord(
                span_id=span["span_id"],
                parent_id=span["parent_id"],
                name=span["name"],
                start=span["start"],
                end=span["end"],
                attrs=tuple((key, value) for key, value in span["attrs"]),
            )
            for span in payload["spans"]
        ),
    )


def dumps_trace_jsonl(traces: Iterable[TraceRecord]) -> str:
    """One strict-JSON trace per line, in the given (canonical) order."""
    lines = [json.dumps(_trace_to_dict(trace), sort_keys=True,
                        allow_nan=False, separators=(",", ":"))
             for trace in traces]
    return "\n".join(lines) + ("\n" if lines else "")


def loads_trace_jsonl(text: str) -> tuple[TraceRecord, ...]:
    """Inverse of :func:`dumps_trace_jsonl`; errors name the 1-based line."""
    traces = []
    for number, line in enumerate(text.splitlines(), start=1):
        try:
            if line.strip():
                traces.append(_trace_from_dict(json.loads(line)))
        except TraceError as error:
            raise TraceError(f"trace JSONL line {number}: {error}") from error
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"trace JSONL line {number}: "
                             f"{type(error).__name__}: {error}") from error
    return tuple(traces)


# -- text rendering ---------------------------------------------------- #

def _format_offset(seconds: float) -> str:
    if abs(seconds) < 1e-9:
        return "+0"
    return f"+{seconds:.3f}s"


def _format_duration(seconds: float) -> str:
    if seconds <= 0:
        return "·"
    if seconds < 1.0:
        return f"{seconds * 1000:.1f}ms"
    return f"{seconds:.3f}s"


def render_trace_tree(trace: TraceRecord) -> str:
    """The span tree as aligned text, offsets relative to the root start.

    Guide rails follow the parent/child structure; attributes render as
    ``key=value`` pairs so one impression's whole story fits one screen.
    """
    origin = trace.root.start
    rows: list[tuple[str, str, str, str]] = []

    def walk(span: SpanRecord, prefix: str, is_last: bool,
             is_root: bool) -> None:
        if is_root:
            label = span.name
            child_prefix = ""
        else:
            branch = "`-- " if is_last else "|-- "
            label = prefix + branch + span.name
            child_prefix = prefix + ("    " if is_last else "|   ")
        attrs = " ".join(f"{key}={value}" for key, value in span.attrs)
        rows.append((label, _format_offset(span.start - origin),
                     _format_duration(span.duration), attrs))
        children = trace.children_of(span.span_id)
        for index, child in enumerate(children):
            walk(child, child_prefix, index == len(children) - 1, False)

    walk(trace.root, "", True, True)
    return render_table(["Span", "Start", "Duration", "Attributes"], rows,
                        right_align=(1, 2))


@dataclass(frozen=True)
class AuditVerdict:
    """One audit's answer for one impression, with its evidence."""

    audit: str
    verdict: str
    detail: str


def with_audit_spans(trace: TraceRecord, verdicts: Sequence[AuditVerdict],
                     at: float) -> TraceRecord:
    """Append ``audit.classify`` spans for post-hoc audit verdicts.

    The audits are pure functions of the sealed dataset, so their spans
    are synthesised at explain time (still deterministic) rather than
    recorded during the run.
    """
    spans = list(trace.spans)
    next_id = max((span.span_id for span in spans), default=-1) + 1
    parent = trace.root.span_id if spans else None
    for verdict in verdicts:
        spans.append(SpanRecord(
            span_id=next_id, parent_id=parent, name="audit.classify",
            start=at, end=at,
            attrs=(("audit", verdict.audit), ("verdict", verdict.verdict))))
        next_id += 1
    return replace(trace, spans=tuple(spans))


def render_explain(trace: TraceRecord,
                   verdicts: Sequence[AuditVerdict] = (),
                   header_lines: Sequence[str] = (),
                   audit_at: Optional[float] = None) -> str:
    """The auditor's receipt: header, span tree, verdict table.

    When *verdicts* are given they are folded into the tree as
    ``audit.classify`` spans (at *audit_at*, default the trace's last
    span end) and tabulated below it.
    """
    shown = trace
    if verdicts:
        when = audit_at if audit_at is not None \
            else max(span.end for span in trace.spans)
        shown = with_audit_spans(trace, verdicts, at=when)

    lines = [
        f"Impression receipt — trace {trace.trace_id}",
        f"  impression #{trace.impression_id}"
        + (f" · record #{trace.record_id}" if trace.record_id is not None
           else " · no collector record"),
        f"  campaign {trace.campaign_id} · shard {trace.shard_scope}",
    ]
    lines.extend(header_lines)
    lines.append("")
    lines.append(render_trace_tree(shown))
    if verdicts:
        lines.append("")
        lines.append(render_table(
            ["Audit", "Verdict", "Evidence"],
            [(verdict.audit, verdict.verdict, verdict.detail)
             for verdict in verdicts],
            title="Audit verdicts"))
    return "\n".join(lines)
