"""Simulated wall clock.

The whole pipeline — browsing sessions, ad deliveries, beacon connections,
collector timestamps — shares one logical clock measured in UNIX seconds.
The collector stamps impressions with *its* local time at connection
establishment, exactly as the paper's Node.js server does, so the clock also
models a (small, configurable) skew between client and server.
"""

from __future__ import annotations

import datetime as _dt


class SimClock:
    """A monotonically advancing simulated UNIX clock.

    >>> clock = SimClock.at_utc(2016, 3, 29)
    >>> start = clock.now()
    >>> clock.advance(60.0)
    >>> clock.now() - start
    60.0
    """

    def __init__(self, start_unix: float = 0.0, server_skew: float = 0.0) -> None:
        if start_unix < 0:
            raise ValueError("start_unix must be non-negative")
        self._now = float(start_unix)
        self.server_skew = float(server_skew)

    @classmethod
    def at_utc(cls, year: int, month: int, day: int,
               hour: int = 0, minute: int = 0, second: int = 0,
               server_skew: float = 0.0) -> "SimClock":
        """Build a clock starting at the given UTC calendar instant."""
        moment = _dt.datetime(year, month, day, hour, minute, second,
                              tzinfo=_dt.timezone.utc)
        return cls(moment.timestamp(), server_skew=server_skew)

    def now(self) -> float:
        """Current simulated UNIX time (client perspective)."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward; returns the new time."""
        if seconds < 0:
            raise ValueError("cannot move the clock backwards")
        self._now += seconds
        return self._now

    def advance_to(self, unix_time: float) -> float:
        """Jump forward to *unix_time* (no-op if already past it)."""
        if unix_time > self._now:
            self._now = unix_time
        return self._now
