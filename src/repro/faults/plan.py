"""Deterministic fault plans.

A :class:`FaultPlan` is the *declarative* half of the fault-injection
subsystem: a frozen, hashable description of which faults can fire at
which pipeline stage, with what probability, plus the beacon's retry
policy and the (test-only) shard-crash schedule.  Because the plan is
part of :class:`~repro.experiments.config.ExperimentConfig`, it is part
of the experiment's *identity*: results are a pure function of
(seed, scale, shard_slices, faults), and the same plan reproduces the
exact same fault sequence serial or parallel.

The *imperative* half — drawing the dice and mutating bytes — lives in
:mod:`repro.faults.inject`.

Stage/kind vocabulary (see :data:`FAULT_KINDS`)::

    connect/refused        SYN answered with RST; the attempt fails now
    connect/timeout        SYN never answered; fails after ``param`` s
    stream/disconnect      established connection dies mid-stream
    frame/truncate         a client frame loses its tail bytes in flight
    frame/bit_flip         one bit of a client frame flips in flight
    delivery/duplicate     the client re-sends a delivered report in full
    collector/backpressure accept is delayed by ``param`` seconds

Plans come from three places, all through :meth:`FaultPlan.resolve`:
the built-in presets (``none``/``flaky``/``hostile``), an inline JSON
object, or a JSON file path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

#: The closed vocabulary of injectable faults: (stage, kind) -> meaning
#: of ``param`` (empty string when the fault takes no parameter).
FAULT_KINDS: dict[tuple[str, str], str] = {
    ("connect", "refused"): "",
    ("connect", "timeout"): "seconds charged before the attempt fails",
    ("stream", "disconnect"): "",
    ("frame", "truncate"): "",
    ("frame", "bit_flip"): "",
    ("delivery", "duplicate"): "",
    ("collector", "backpressure"): "seconds the accept is delayed by",
}

PRESET_NAMES = ("none", "flaky", "hostile")


class ShardCrashError(RuntimeError):
    """Injected whole-shard failure (``crash_shards`` in a fault plan).

    The parallel runner's recovery path is exercised with this: a shard
    whose scope is listed crashes on its first ``crash_attempts``
    executions and succeeds afterwards (or never, when the retry budget
    is smaller).
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault: where, what, how often, and its parameter."""

    stage: str
    kind: str
    probability: float
    param: float = 0.0

    def __post_init__(self) -> None:
        if (self.stage, self.kind) not in FAULT_KINDS:
            known = ", ".join(f"{s}/{k}" for s, k in sorted(FAULT_KINDS))
            raise ValueError(
                f"unknown fault {self.stage}/{self.kind}; known: {known}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("fault probability must be within [0, 1]")
        if self.param < 0.0:
            raise ValueError("fault param must be non-negative")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for the beacon client.

    Delay before retry *k* (1-based count of failures so far) is

        ``min(max_delay, base_delay * multiplier ** (k - 1)) + jitter_draw``

    where ``jitter_draw`` is ``jitter * U[0, 1)`` from the shard's fault
    RNG stream — sim-clock seconds, fully deterministic at a fixed seed.
    ``max_attempts=1`` means no retries (the legacy behaviour).
    """

    max_attempts: int = 1
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0.0 or self.max_delay < 0.0 or self.jitter < 0.0:
            raise ValueError("retry delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")

    def backoff(self, failures: int) -> float:
        """Deterministic part of the delay after *failures* failures."""
        if failures < 1:
            raise ValueError("failures must be at least 1")
        return min(self.max_delay,
                   self.base_delay * self.multiplier ** (failures - 1))


@dataclass(frozen=True)
class FaultPlan:
    """A complete, hashable fault schedule for one experiment.

    The default instance is the ``none`` plan: no specs, single-attempt
    retry policy, no crash schedule — and the subsystem guarantees that
    a run under the ``none`` plan is byte-identical to a run built
    before the subsystem existed (no extra RNG draws, no extra metrics,
    no wire-format changes).
    """

    name: str = "none"
    specs: tuple[FaultSpec, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Shard scopes (``period/country/slice``) that crash when executed;
    #: a recovery-path test hook, not a network fault.
    crash_scopes: tuple[str, ...] = ()
    #: How many executions of each listed scope fail before succeeding.
    crash_attempts: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("fault plan needs a name")
        if self.crash_attempts < 1:
            raise ValueError("crash_attempts must be at least 1")
        seen: set[tuple[str, str]] = set()
        for spec in self.specs:
            key = (spec.stage, spec.kind)
            if key in seen:
                raise ValueError(
                    f"duplicate fault spec {spec.stage}/{spec.kind}")
            seen.add(key)

    # -- activity ------------------------------------------------------- #

    @property
    def injects(self) -> bool:
        """Can any network/collector fault actually fire?"""
        return any(spec.probability > 0.0 for spec in self.specs)

    @property
    def retries_enabled(self) -> bool:
        return self.retry.max_attempts > 1

    @property
    def active(self) -> bool:
        """Does this plan change run behaviour at all?

        Crash scopes deliberately do **not** activate the plan: a crashed
        shard's *re-execution* must be byte-identical to an uncrashed one,
        so the in-shard pipeline may not know crashes are scheduled.
        """
        return self.injects or self.retries_enabled

    def should_crash(self, scope: str, attempt: int) -> bool:
        """Is execution *attempt* (0-based) of *scope* scheduled to crash?"""
        return scope in self.crash_scopes and attempt < self.crash_attempts

    # -- construction / serialisation ----------------------------------- #

    @classmethod
    def preset(cls, name: str) -> "FaultPlan":
        """One of the built-in plans: ``none``, ``flaky``, ``hostile``."""
        if name == "none":
            return cls()
        if name == "flaky":
            return cls(
                name="flaky",
                specs=(
                    FaultSpec("connect", "refused", 0.05),
                    FaultSpec("connect", "timeout", 0.02, param=0.75),
                    FaultSpec("stream", "disconnect", 0.02),
                    FaultSpec("frame", "truncate", 0.01),
                    FaultSpec("frame", "bit_flip", 0.01),
                    FaultSpec("delivery", "duplicate", 0.02),
                    FaultSpec("collector", "backpressure", 0.02, param=0.25),
                ),
                retry=RetryPolicy(max_attempts=3),
            )
        if name == "hostile":
            return cls(
                name="hostile",
                specs=(
                    FaultSpec("connect", "refused", 0.15),
                    FaultSpec("connect", "timeout", 0.08, param=1.5),
                    FaultSpec("stream", "disconnect", 0.08),
                    FaultSpec("frame", "truncate", 0.05),
                    FaultSpec("frame", "bit_flip", 0.05),
                    FaultSpec("delivery", "duplicate", 0.08),
                    FaultSpec("collector", "backpressure", 0.10, param=1.0),
                ),
                retry=RetryPolicy(max_attempts=4),
            )
        raise ValueError(
            f"unknown fault preset {name!r}; presets: "
            + ", ".join(PRESET_NAMES))

    @classmethod
    def resolve(cls, text: "str | None") -> "FaultPlan":
        """Map a ``--faults`` argument to a plan.

        ``None`` and preset names resolve directly; a string starting
        with ``{`` is parsed as an inline JSON plan; anything else is
        treated as the path of a JSON plan file.
        """
        if text is None:
            return cls()
        text = text.strip()
        if text in PRESET_NAMES:
            return cls.preset(text)
        if text.startswith("{"):
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ValueError(f"bad inline fault plan JSON: {exc}") from exc
            return cls.from_dict(data)
        path = Path(text)
        if path.is_file():
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: bad fault plan JSON: {exc}") from exc
            return cls.from_dict(data, name_default=path.stem)
        raise ValueError(
            f"--faults must be a preset ({', '.join(PRESET_NAMES)}), an "
            f"inline JSON object, or a JSON file path; got {text!r}")

    @classmethod
    def from_dict(cls, data: dict,
                  name_default: str = "custom") -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError("fault plan must be a JSON object")
        known = {"name", "faults", "retry", "crash_shards"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault plan keys: {sorted(unknown)}")
        specs = []
        for index, raw in enumerate(data.get("faults", ())):
            if not isinstance(raw, dict):
                raise ValueError(f"faults[{index}] must be an object")
            try:
                specs.append(FaultSpec(
                    stage=raw["stage"], kind=raw["kind"],
                    probability=float(raw["probability"]),
                    param=float(raw.get("param", 0.0))))
            except KeyError as exc:
                raise ValueError(
                    f"faults[{index}] missing field {exc}") from exc
        retry_data = data.get("retry", {})
        if not isinstance(retry_data, dict):
            raise ValueError("retry must be an object")
        retry = RetryPolicy(
            max_attempts=int(retry_data.get("max_attempts", 1)),
            base_delay=float(retry_data.get("base_delay", 0.5)),
            multiplier=float(retry_data.get("multiplier", 2.0)),
            max_delay=float(retry_data.get("max_delay", 30.0)),
            jitter=float(retry_data.get("jitter", 0.25)))
        crash = data.get("crash_shards", {})
        if not isinstance(crash, dict):
            raise ValueError("crash_shards must be an object")
        return cls(
            name=str(data.get("name", name_default)),
            specs=tuple(specs),
            retry=retry,
            crash_scopes=tuple(crash.get("scopes", ())),
            crash_attempts=int(crash.get("attempts", 1)))

    def to_dict(self) -> dict:
        data: dict = {
            "name": self.name,
            "faults": [
                {"stage": spec.stage, "kind": spec.kind,
                 "probability": spec.probability, "param": spec.param}
                for spec in self.specs],
            "retry": {
                "max_attempts": self.retry.max_attempts,
                "base_delay": self.retry.base_delay,
                "multiplier": self.retry.multiplier,
                "max_delay": self.retry.max_delay,
                "jitter": self.retry.jitter},
        }
        if self.crash_scopes:
            data["crash_shards"] = {"scopes": list(self.crash_scopes),
                                    "attempts": self.crash_attempts}
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
