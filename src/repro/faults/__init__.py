"""Deterministic fault injection and the machinery that survives it.

``plan``        — frozen :class:`FaultPlan` (what can fail, how often,
                  retry policy, presets ``none``/``flaky``/``hostile``)
``inject``      — :class:`FaultInjector` drawing from a shard-scoped RNG
                  stream
``quarantine``  — bounded :class:`QuarantineLog` for malformed frames

The invariant the whole package is built around: under the ``none``
plan nothing here draws randomness, registers metrics, or changes a
byte on the wire — fault-free runs are byte-identical to a build
without the package.
"""

from repro.faults.inject import NULL_INJECTOR, FaultInjector
from repro.faults.plan import (
    FAULT_KINDS,
    PRESET_NAMES,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    ShardCrashError,
)
from repro.faults.quarantine import QuarantineEntry, QuarantineLog

__all__ = [
    "FAULT_KINDS",
    "PRESET_NAMES",
    "NULL_INJECTOR",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "QuarantineEntry",
    "QuarantineLog",
    "RetryPolicy",
    "ShardCrashError",
]
