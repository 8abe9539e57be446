"""Tests for repro.util.simclock."""

import pytest

from repro.util.simclock import SimClock


class TestSimClock:
    def test_starts_at_given_time(self):
        assert SimClock(100.0).now() == 100.0

    def test_advance_moves_forward(self):
        clock = SimClock(10.0)
        clock.advance(5.0)
        assert clock.now() == 15.0

    def test_advance_returns_new_time(self):
        assert SimClock(0.0).advance(3.0) == 3.0

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock(0.0).advance(-1.0)

    def test_advance_to_jumps_forward(self):
        clock = SimClock(0.0)
        clock.advance_to(50.0)
        assert clock.now() == 50.0

    def test_advance_to_is_noop_when_behind(self):
        clock = SimClock(100.0)
        clock.advance_to(10.0)
        assert clock.now() == 100.0

    def test_at_utc_matches_known_epoch(self):
        clock = SimClock.at_utc(1970, 1, 1)
        assert clock.now() == 0.0

    def test_at_utc_2016_campaign_start(self):
        clock = SimClock.at_utc(2016, 3, 29)
        assert clock.now() == 1459209600.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)
