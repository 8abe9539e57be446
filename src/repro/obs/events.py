"""Structured run-telemetry events: the pipeline's append-only journal.

Metrics (:mod:`repro.obs.metrics`) answer "how much", traces
(:mod:`repro.obs.trace`) answer "what happened to one impression" — this
module answers "what happened to the *run*": shards planned, started,
recovered and merged, faults injected, beacon retries, quarantined
frames, the coverage ledger reconciling.  Every event is a small frozen
value object, and the log exports as strict-JSON NDJSON (one event per
line, ``--events-jsonl``) so a third party can replay the run's history
without our code.

The log carries two channels, split by the same domain rule the metrics
layer uses:

* **sim** events are facts about the simulated world, stamped with sim
  instants and emitted by deterministic code paths only.  They are a
  pure function of (config, seed): the merged sim channel is
  byte-identical between the serial runner and ``--jobs N`` because
  per-shard events are absorbed in canonical plan order, exactly like
  metrics snapshots and flight-recorder traces.
* **wall** events are facts about the host — the runner's heartbeats
  (worker utilization, queue depth, merge-buffer depth, RSS, ETA).  They
  are explicitly excluded from the equivalence contract and carry
  wall-clock offsets in ``at``.

Each channel numbers its events with its own ``seq`` counter, so a burst
of wall heartbeats can never perturb the sim channel's numbering.

No dependencies beyond the standard library and the domain constants of
:mod:`repro.obs.metrics` — every other ``repro`` package may import this
one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

from repro.obs.metrics import SIM, WALL

#: Event document schema; every NDJSON line carries it so a single line
#: is self-describing and line-wise validatable.
EVENTS_SCHEMA = "repro-events/1"

_DOMAINS = (SIM, WALL)

#: Per-shard retention bound: a shard keeps this many events before the
#: log starts dropping (and counting) the excess.  Sized far above what
#: a shard emits in practice; the bound exists so a pathological fault
#: plan cannot make event volume scale with pageviews.
DEFAULT_SHARD_EVENT_CAPACITY = 4096


class EventSchemaError(ValueError):
    """An event (or its serialised form) violates the schema."""


def _freeze_attrs(attrs: dict) -> tuple:
    """Validate and freeze attrs; only JSON scalars may ride an event."""
    frozen = []
    for key, value in attrs.items():
        if not isinstance(value, (str, int, float, bool)):
            raise EventSchemaError(
                f"event attr {key!r} must be a JSON scalar "
                f"(str/int/float/bool), got {type(value).__name__}")
        frozen.append((key, value))
    return tuple(frozen)


def _finite(value):
    """JSON-safe number: None for inf/-inf/nan, the value otherwise."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@dataclass(frozen=True)
class Event:
    """One run-telemetry event.

    ``at`` is a sim-clock instant for sim-domain events and a wall-clock
    offset (seconds since the run started) for wall-domain ones.  ``seq``
    numbers events *within their domain*, in emission order.
    """

    seq: int
    domain: str
    name: str
    at: float
    scope: str = ""
    attrs: tuple[tuple[str, object], ...] = ()

    def attr(self, key: str, default=None):
        for attr_key, value in self.attrs:
            if attr_key == key:
                return value
        return default

    def to_dict(self) -> dict:
        """Strict-JSON-safe dictionary (non-finite floats become None)."""
        return {
            "schema": EVENTS_SCHEMA,
            "seq": self.seq,
            "domain": self.domain,
            "name": self.name,
            "at": _finite(self.at),
            "scope": self.scope,
            "attrs": {key: _finite(value) for key, value in self.attrs},
        }


class EventLog:
    """An append-only, bounded, mergeable event journal.

    One per shard (bounded at :data:`DEFAULT_SHARD_EVENT_CAPACITY`) and
    one unbounded instance per run; the run log :meth:`absorb`\\ s each
    shard's events in canonical plan order, renumbering ``seq`` per
    domain so the merged sim channel is contiguous — and byte-identical
    however the shards were scheduled.

    Listeners registered with :meth:`subscribe` see every emission (even
    ones the capacity bound drops), which is how the live progress
    renderer rides the wall channel without the runner knowing about it.
    """

    def __init__(self, scope: str = "",
                 capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be non-negative or None")
        self.scope = scope
        self.capacity = capacity
        self.dropped = 0
        self._events: list[Event] = []
        self._seq = {SIM: 0, WALL: 0}
        self._listeners: list[Callable[[Event], None]] = []

    def __len__(self) -> int:
        return len(self._events)

    def subscribe(self, listener: Callable[[Event], None]) -> None:
        """Register a callable invoked with every emitted event."""
        self._listeners.append(listener)

    # -- emission ------------------------------------------------------- #

    def emit(self, name: str, at: float, domain: str = SIM,
             scope: Optional[str] = None, **attrs) -> Event:
        """Append one event; returns it (even if the bound dropped it)."""
        if domain not in _DOMAINS:
            raise EventSchemaError(f"domain must be one of {_DOMAINS}: "
                                   f"{domain!r}")
        if not name:
            raise EventSchemaError("event name must be non-empty")
        event = Event(seq=self._seq[domain], domain=domain, name=name,
                      at=float(at),
                      scope=self.scope if scope is None else scope,
                      attrs=_freeze_attrs(attrs))
        self._seq[domain] += 1
        self._append(event)
        return event

    def _append(self, event: Event) -> None:
        if self.capacity is not None and len(self._events) >= self.capacity:
            self.dropped += 1
        else:
            self._events.append(event)
        for listener in self._listeners:
            listener(event)

    def absorb(self, events: Iterable[Event], dropped: int = 0) -> None:
        """Fold another log's events in, renumbering ``seq`` per domain.

        Callers MUST absorb shard logs in canonical plan order — the same
        rule the metrics and trace merges follow — which is what makes
        the merged sim channel independent of scheduling.
        """
        for event in events:
            renumbered = replace(event, seq=self._seq[event.domain])
            self._seq[event.domain] += 1
            self._append(renumbered)
        self.dropped += dropped

    # -- access --------------------------------------------------------- #

    def events(self) -> tuple[Event, ...]:
        return tuple(self._events)

    def sim_events(self) -> tuple[Event, ...]:
        """The deterministic channel: identical serial vs parallel."""
        return tuple(e for e in self._events if e.domain == SIM)

    def wall_events(self) -> tuple[Event, ...]:
        """The host channel (heartbeats): excluded from equivalence."""
        return tuple(e for e in self._events if e.domain == WALL)


class _NullEventLog(EventLog):
    """Shared no-op log: components default to it when handed no log."""

    def emit(self, name: str, at: float, domain: str = SIM,
             scope: Optional[str] = None, **attrs) -> Event:
        # Validate nothing, store nothing, notify nobody: the null log
        # keeps un-instrumented call sites at zero cost.
        return None  # type: ignore[return-value]

    def absorb(self, events: Iterable[Event], dropped: int = 0) -> None:
        pass

    def subscribe(self, listener: Callable[[Event], None]) -> None:
        raise EventSchemaError("cannot subscribe to the null event log")


#: The shared no-op log (analogous to ``NULL_TRACER``/``NULL_INJECTOR``).
NULL_EVENTS = _NullEventLog()


# ---------------------------------------------------------------------- #
# export / validation
# ---------------------------------------------------------------------- #


def dumps_events_jsonl(events: Iterable[Event]) -> str:
    """NDJSON export: one strict-JSON object per line, sorted keys."""
    lines = [json.dumps(event.to_dict(), sort_keys=True, allow_nan=False)
             for event in events]
    return "".join(line + "\n" for line in lines)


def validate_event_dict(obj) -> list[str]:
    """Structural validation of one decoded event line; returns problems."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"event must be an object, got {type(obj).__name__}"]
    if obj.get("schema") != EVENTS_SCHEMA:
        problems.append(f"schema must be {EVENTS_SCHEMA!r}: "
                        f"{obj.get('schema')!r}")
    seq = obj.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        problems.append(f"seq must be a non-negative integer: {seq!r}")
    if obj.get("domain") not in _DOMAINS:
        problems.append(f"domain must be one of {_DOMAINS}: "
                        f"{obj.get('domain')!r}")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        problems.append(f"name must be a non-empty string: {name!r}")
    at = obj.get("at")
    if at is not None and (isinstance(at, bool)
                           or not isinstance(at, (int, float))):
        problems.append(f"at must be a number or null: {at!r}")
    if not isinstance(obj.get("scope"), str):
        problems.append(f"scope must be a string: {obj.get('scope')!r}")
    attrs = obj.get("attrs")
    if not isinstance(attrs, dict):
        problems.append(f"attrs must be an object: {attrs!r}")
    else:
        for key, value in attrs.items():
            if value is not None and not isinstance(value,
                                                    (str, int, float, bool)):
                problems.append(f"attrs[{key!r}] must be a JSON scalar "
                                f"or null: {value!r}")
    return problems


def validate_events_jsonl(text: str) -> int:
    """Validate a full NDJSON export line by line; returns the line count.

    Raises :class:`EventSchemaError` naming the first offending line —
    strict by design, like the coverage validator: a telemetry
    export that fails validation should fail its writer, not degrade.
    """
    count = 0
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            raise EventSchemaError(f"line {line_number}: blank line in "
                                   f"events NDJSON")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as error:
            raise EventSchemaError(
                f"line {line_number}: not valid JSON: {error}") from error
        problems = validate_event_dict(obj)
        if problems:
            raise EventSchemaError(f"line {line_number}: "
                                   + "; ".join(problems))
        count += 1
    return count
