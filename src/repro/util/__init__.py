"""Shared utilities: seeded RNG streams, simulated clock, hashing, statistics.

These are deliberately dependency-free so every other subpackage can build
on them without import cycles.
"""

from repro.util.rng import RngFactory, zipf_weights
from repro.util.simclock import SimClock
from repro.util.hashing import anonymize_ip, stable_hash
from repro.util.stats import (
    median,
    percentile,
    log_buckets,
    bucket_index,
    Fraction2,
)

__all__ = [
    "RngFactory",
    "zipf_weights",
    "SimClock",
    "anonymize_ip",
    "stable_hash",
    "median",
    "percentile",
    "log_buckets",
    "bucket_index",
    "Fraction2",
]
