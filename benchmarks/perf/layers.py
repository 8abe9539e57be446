"""Outside-in per-layer tracing for the perf benchmark.

The benchmark's traced runs wrap the public functions at each layer
boundary of ``src/repro`` from here, without editing the program:
:func:`install` patches every boundary in :data:`BOUNDARIES` with a
timing wrapper and returns an :class:`Installation` whose
:meth:`~Installation.uninstall` puts every original object back.

Each wrapper pushes a frame on the :class:`Recorder`'s stack of open
wrappers.  On exit it charges its duration to its name's total time and
to the enclosing frame's child time; its self time is its duration minus
the time its own children covered.  A call that re-enters the name that
is already innermost (``Tracer.event`` calling ``Tracer.span``, an audit
method calling a sibling) is not traced again, so ``calls`` counts
entries into a layer, not internal hops.

Boundaries called millions of times keep only aggregates (calls, total,
self).  Coarse boundaries (shards, merge, enrichment, audits, store load
and seal, pool waits) also keep full spans, which :func:`chrome_trace`
writes out at the end.

A boundary that no longer exists in ``src`` is skipped and named in
:attr:`Installation.missing`; the metrics that depend only on it read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

#: Stat slots: [calls, total seconds, self seconds].
CALLS, TOTAL, SELF = 0, 1, 2


class Recorder:
    """Stack of open wrappers, per-name aggregates, coarse spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Open frames, innermost last: [name, child seconds, span index].
        self.stack: list[list] = []
        self.stats: dict[str, list[float]] = {}
        self.counters: Counter[str] = Counter()
        #: Coarse spans: [name, start, end, parent span index, op id].
        self.spans: list[list] = []
        self.op = 0

    def stat(self, name: str) -> list[float]:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def open_span(self, name: str, start: float) -> int:
        parent = next((frame[2] for frame in reversed(self.stack)
                       if frame[2] is not None), None)
        self.spans.append([name, start, start, parent, self.op])
        return len(self.spans) - 1

    def root(self, func: Callable, *args, **kwargs):
        """Run one op under the ``op`` root span; returns its result."""
        self.op += 1
        return _timed(self, "op", func, coarse=True)(*args, **kwargs)


def _timed(recorder: Recorder, name: str, func: Callable,
           count: Optional[tuple[str, Callable]] = None,
           coarse: bool = False) -> Callable:
    """Wrap *func* as spans of *name*: aggregates, plus full spans if
    *coarse*, plus ``count(args, result)`` added to a named counter."""
    stack, stat, clock = recorder.stack, recorder.stat(name), recorder.clock
    spans, counters = recorder.spans, recorder.counters

    def wrapper(*args, **kwargs):
        if stack and stack[-1][0] is name:
            return func(*args, **kwargs)
        start = clock()
        frame = [name, 0.0, recorder.open_span(name, start) if coarse
                 else None]
        stack.append(frame)
        try:
            result = func(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stack.pop()
            stat[CALLS] += 1
            stat[TOTAL] += elapsed
            stat[SELF] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
            if coarse:
                spans[frame[2]][2] = start + elapsed
        if count:
            counters[count[0]] += count[1](args, result)
        return result

    return functools.update_wrapper(wrapper, func)


#: Never yielded: ``iter(step, _END)`` ends when *step* raises
#: StopIteration, like the iterator it steps.
_END = object()


def _iterating(recorder: Recorder, name: str, func: Callable) -> Callable:
    """Wrap a function returning an iterator; time each of its steps."""
    timed = _timed(recorder, name, func)

    def wrapper(*args, **kwargs):
        steps = iter(timed(*args, **kwargs)).__next__
        return iter(_timed(recorder, name, steps), _END)

    return functools.update_wrapper(wrapper, func)


# ---------------------------------------------------------------------- #
# the boundary table
# ---------------------------------------------------------------------- #


def _not_none(args, result) -> int:
    return result is not None


def _first_arg_len(args, result) -> int:
    return len(args[0])


def _one(args, result) -> int:
    return 1


#: The class ``ImpressionStore()`` actually instantiates (its ``__new__``
#: picks a backing); store boundaries are wrapped there, so overrides on
#: the concrete class are the ones traced.
STORE_CLASS = "<store>"


@dataclass(frozen=True)
class Boundary:
    """One wrapped attribute: ``module[:qualname].attr`` under *name*."""

    name: str
    module: str
    owner: str          # class qualname, "" for a module global, or STORE_CLASS
    attrs: tuple[str, ...]
    kind: str = "fine"  # fine | coarse | iter
    count: Optional[tuple[str, Callable]] = None

    def label(self, attr: str) -> str:
        owner = f"{self.owner}." if self.owner else ""
        return f"{self.module}:{owner}{attr}"


_TRACER_METHODS = ("span", "event", "begin", "end", "abandon")
_AUDIT_AXES = (
    ("brand_safety", "repro.audit.brand_safety", "BrandSafetyAudit"),
    ("context", "repro.audit.context", "ContextAudit"),
    ("popularity", "repro.audit.popularity", "PopularityAudit"),
    ("viewability", "repro.audit.viewability", "ViewabilityAudit"),
    ("fraud", "repro.audit.fraud", "FraudAudit"),
    ("frequency", "repro.audit.frequency", "FrequencyAudit"),
    ("reconcile", "repro.audit.reconcile", "ReconciliationAudit"),
    ("conversion", "repro.audit.conversion", "ConversionAudit"),
)
AUDIT_AXES = tuple(axis for axis, _, _ in _AUDIT_AXES)

BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("web.browse", "repro.web.browsing", "BrowsingSimulator",
             ("stream",), kind="iter"),
    Boundary("adnetwork.serve", "repro.adnetwork.server", "AdServer",
             ("serve",), count=("adnetwork.filled", _not_none)),
    Boundary("adnetwork.decide", "repro.adnetwork.matching", "MatchEngine",
             ("decide",)),
    Boundary("adnetwork.may_bid", "repro.adnetwork.pacing", "BudgetPacer",
             ("may_bid",)),
    Boundary("adnetwork.auction", "repro.adnetwork.auction", "Auction",
             ("run",)),
    Boundary("geo.country_of", "repro.geo.ipdb", "GeoIpDatabase",
             ("country_of",)),
    Boundary("obs.tracer", "repro.obs.trace", "Tracer", ("start",),
             count=("obs.starts", _one)),
    Boundary("obs.tracer", "repro.obs.trace", "Tracer", ("commit",),
             count=("obs.commits", _one)),
    Boundary("obs.tracer", "repro.obs.trace", "Tracer", _TRACER_METHODS),
    Boundary("beacon.observe", "repro.beacon.script", "BeaconScript",
             ("observe",)),
    Boundary("beacon.deliver", "repro.beacon.client", "BeaconClient",
             ("deliver",)),
    Boundary("net.connect", "repro.net.transport", "SimulatedNetwork",
             ("connect",), count=("net.connected", _not_none)),
    Boundary("faults.fires", "repro.faults.inject", "FaultInjector",
             ("fires",)),
    Boundary("collector.process", "repro.collector.server",
             "CollectorServer", ("process",)),
    Boundary("collector.finalize", "repro.collector.server",
             "CollectorServer", ("finalize",),
             count=("collector.committed", _not_none)),
    Boundary("collector.insert", "repro.collector.store", STORE_CLASS,
             ("insert",)),
    Boundary("collector.absorb", "repro.collector.store", STORE_CLASS,
             ("absorb_columns",)),
    Boundary("collector.select", "repro.collector.store", STORE_CLASS,
             ("select",)),
    Boundary("collector.seal", "repro.collector.store", STORE_CLASS,
             ("seal",), kind="coarse"),
    Boundary("collector.load", "repro.collector.store", "ImpressionStore",
             ("load_jsonl",), kind="coarse"),
    Boundary("collector.enrich", "repro.collector.enrich", "Enricher",
             ("enrich_store",), kind="coarse"),
    Boundary("experiments.world", "repro.experiments.parallel", "",
             ("build_world",), kind="coarse"),
    Boundary("experiments.shard", "repro.experiments.parallel", "",
             ("run_shard",), kind="coarse"),
    Boundary("experiments.pool_wait", "repro.experiments.parallel", "",
             ("wait",), kind="coarse"),
    Boundary("experiments.unpack", "repro.experiments.parallel", "",
             ("unpack_shard_output",),
             count=("experiments.wire_bytes", _first_arg_len)),
    Boundary("experiments.fold", "repro.experiments.runner", "ShardMerger",
             ("fold",), kind="coarse"),
    Boundary("experiments.finalize", "repro.experiments.runner",
             "ShardMerger", ("result",), kind="coarse"),
    Boundary("audit.full_audit", "repro.audit", "", ("full_audit",),
             kind="coarse"),
    Boundary("audit.full_audit", "repro.audit.report", "", ("full_audit",),
             kind="coarse"),
    *(Boundary(f"audit.{axis}", module, cls, ("*",), kind="coarse")
      for axis, module, cls in _AUDIT_AXES),
    Boundary("audit.render", "repro.audit.report", "FullAuditReport",
             ("render",)),
    Boundary("audit.render", "repro.experiments.tables", "",
             ("render_table1", "render_table2", "render_table3",
              "render_table4", "render_conversion_funnel")),
    Boundary("audit.render", "repro.experiments.figures", "",
             ("figure1", "figure2", "figure3")),
    Boundary("audit.render", "repro.experiments.figures", "Figure1",
             ("render",)),
    Boundary("audit.render", "repro.experiments.figures", "Figure2",
             ("render",)),
    Boundary("audit.render", "repro.experiments.figures", "Figure3",
             ("render",)),
    Boundary("audit.render", "repro.audit.coverage", "",
             ("render_coverage",)),
    Boundary("audit.export", "repro.audit.export", "",
             ("report_to_json", "report_to_csv")),
    Boundary("audit.export", "repro.collector.store", STORE_CLASS,
             ("dump_jsonl",)),
)

_MISSING = object()


def _wrap(boundary: Boundary, recorder: Recorder, func: Callable) -> Callable:
    if boundary.kind == "iter":
        return _iterating(recorder, boundary.name, func)
    return _timed(recorder, boundary.name, func, boundary.count,
                  coarse=boundary.kind == "coarse")


def _resolve_owner(boundary: Boundary):
    module = importlib.import_module(boundary.module)
    if boundary.owner == STORE_CLASS:
        return type(module.ImpressionStore())
    owner = module
    for part in filter(None, boundary.owner.split(".")):
        owner = getattr(owner, part)
    return owner


def _public_methods(cls) -> list[str]:
    """``__init__`` plus every public plain function defined on *cls*."""
    return [name for name, value in vars(cls).items()
            if inspect.isfunction(value)
            and (name == "__init__" or not name.startswith("_"))]


class Installation:
    """The patches one :func:`install` applied, and how to undo them."""

    def __init__(self) -> None:
        #: (owner, attr, original entry in owner.__dict__ or _MISSING).
        self.patches: list[tuple[object, str, object]] = []
        #: Boundaries absent from ``src``, as ``module:qualname`` labels.
        self.missing: list[str] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self.patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def install(recorder: Recorder,
            boundaries: tuple[Boundary, ...] = BOUNDARIES) -> Installation:
    """Wrap every boundary; forked children get the originals back.

    The pool workers of a ``--jobs`` run are forked from the traced
    process; they run the code ``paper_serial`` already traces, so the
    benchmark traces the parent side only and un-patches in the child.
    """
    installation = Installation()
    for boundary in boundaries:
        recorder.stat(boundary.name)
        try:
            owner = _resolve_owner(boundary)
        except (ImportError, AttributeError):
            installation.missing.append(boundary.label("*"))
            continue
        attrs = _public_methods(owner) if boundary.attrs == ("*",) \
            else boundary.attrs
        for attr in attrs:
            static = inspect.getattr_static(owner, attr, _MISSING)
            if static is _MISSING:
                installation.missing.append(boundary.label(attr))
                continue
            if isinstance(static, (classmethod, staticmethod)):
                wrapped = type(static)(
                    _wrap(boundary, recorder, static.__func__))
            else:
                wrapped = _wrap(boundary, recorder, getattr(owner, attr))
            installation.patch(owner, attr, wrapped)
    if hasattr(os, "register_at_fork"):
        os.register_at_fork(after_in_child=installation.uninstall)
    return installation


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #

#: (metric, unit) for every per-layer metric, in report order.  Names
#: ending in ``.calls`` / ``.self_s`` / ``.total_s`` read the aggregate of
#: the boundary name before the suffix; the rest are derived below.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("web.browse.calls", "count"),
    ("web.browse.self_s", "s"),
    ("adnetwork.serve.calls", "count"),
    ("adnetwork.serve.self_s", "s"),
    ("adnetwork.serve.total_s", "s"),
    ("adnetwork.decide.self_s", "s"),
    ("adnetwork.may_bid.self_s", "s"),
    ("adnetwork.auction.self_s", "s"),
    ("adnetwork.fill_ratio", "ratio"),
    ("geo.country_of.calls", "count"),
    ("geo.country_of.self_s", "s"),
    ("obs.tracer.calls", "count"),
    ("obs.tracer.self_s", "s"),
    ("obs.trace_keep_ratio", "ratio"),
    ("beacon.observe.self_s", "s"),
    ("beacon.deliver.calls", "count"),
    ("beacon.deliver.self_s", "s"),
    ("beacon.deliver.total_s", "s"),
    ("net.connect.calls", "count"),
    ("net.connect.self_s", "s"),
    ("net.connect_ok_ratio", "ratio"),
    ("net.attempts_per_delivery", "ratio"),
    ("faults.fires.calls", "count"),
    ("faults.fires.self_s", "s"),
    ("collector.process.calls", "count"),
    ("collector.process.self_s", "s"),
    ("collector.finalize.calls", "count"),
    ("collector.finalize.self_s", "s"),
    ("collector.commit_ratio", "ratio"),
    ("collector.insert.calls", "count"),
    ("collector.insert.self_s", "s"),
    ("collector.enrich.self_s", "s"),
    ("collector.absorb.self_s", "s"),
    ("collector.load.self_s", "s"),
    ("collector.seal.self_s", "s"),
    ("collector.select.calls", "count"),
    ("collector.select.self_s", "s"),
    ("collector.store_bytes_per_record", "bytes/record"),
    ("audit.full_audit.total_s", "s"),
    *((f"audit.{axis}.self_s", "s") for axis in AUDIT_AXES),
    ("audit.render.self_s", "s"),
    ("audit.export.self_s", "s"),
    ("experiments.shard.calls", "count"),
    ("experiments.shard_p50_s", "s"),
    ("experiments.shard_max_s", "s"),
    ("experiments.fold.self_s", "s"),
    ("experiments.finalize.total_s", "s"),
    ("experiments.unpack.calls", "count"),
    ("experiments.unpack.self_s", "s"),
    ("experiments.wire_bytes", "bytes"),
    ("experiments.pool_wait_s", "s"),
    ("experiments.worker_peak_rss_mib", "MiB"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("host.calib_s", "s"),
)

_SUFFIXES = {".calls": CALLS, ".total_s": TOTAL, ".self_s": SELF}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-op layer metrics measured by *recorder* (means over its ops).

    Covers every :data:`LAYER_METRICS` entry the recorder can answer; the
    op process adds the memory probes and the harness adds overhead and
    host-speed figures.
    """
    ops = max(1, recorder.op)
    stats, counters = recorder.stats, recorder.counters
    values: dict[str, float] = {}
    for metric, _ in LAYER_METRICS:
        for suffix, slot in _SUFFIXES.items():
            if metric.endswith(suffix):
                stat = stats.get(metric[:-len(suffix)], (0, 0.0, 0.0))
                values[metric] = stat[slot] / ops
    calls = {name: stat[CALLS] for name, stat in stats.items()}
    values["adnetwork.fill_ratio"] = _ratio(
        counters.get("adnetwork.filled", 0), calls.get("adnetwork.serve", 0))
    values["obs.trace_keep_ratio"] = _ratio(
        counters.get("obs.commits", 0), counters.get("obs.starts", 0))
    values["net.connect_ok_ratio"] = _ratio(
        counters.get("net.connected", 0), calls.get("net.connect", 0))
    values["net.attempts_per_delivery"] = _ratio(
        calls.get("net.connect", 0), calls.get("beacon.deliver", 0))
    values["collector.commit_ratio"] = _ratio(
        counters.get("collector.committed", 0),
        calls.get("collector.finalize", 0))
    shards = [end - start for name, start, end, _, _ in recorder.spans
              if name == "experiments.shard"]
    values["experiments.shard_p50_s"] = \
        statistics.median(shards) if shards else 0.0
    values["experiments.shard_max_s"] = max(shards, default=0.0)
    values["experiments.wire_bytes"] = \
        counters.get("experiments.wire_bytes", 0) / ops
    values["experiments.pool_wait_s"] = \
        stats.get("experiments.pool_wait", (0, 0.0, 0.0))[TOTAL] / ops
    root = stats.get("op", (0, 0.0, 0.0))
    values["trace.unattributed_frac"] = _ratio(root[SELF], root[TOTAL])
    return values


def chrome_trace(recorder: Recorder) -> dict:
    """The coarse spans as a Chrome ``trace_event`` document."""
    events = []
    for index, (name, start, end, parent, op) in enumerate(recorder.spans):
        events.append({
            "name": name, "ph": "X", "pid": 1, "tid": op,
            "ts": round(start * 1e6, 3), "dur": round((end - start) * 1e6, 3),
            "args": {"span": index, "parent": parent, "op": op},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
