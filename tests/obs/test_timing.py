"""Tests for repro.obs.timing — clock-explicit spans and domains."""

from repro.obs.metrics import WALL, MetricsRegistry
from repro.obs.render import render_metrics
from repro.obs.timing import Timer, wall_timer
from repro.util.simclock import SimClock


class TestTimer:
    def test_span_observes_elapsed_clock_time(self):
        registry = MetricsRegistry()
        clock = SimClock(1000.0)
        timer = Timer(registry.histogram("span.seconds", (1.0, 10.0)),
                      clock=clock.now)
        with timer.measure():
            clock.advance(5.0)
        snapshot = registry.snapshot().histogram_named("span.seconds")
        assert snapshot.total == 1
        assert snapshot.sum == 5.0
        assert snapshot.counts == (0, 1)

    def test_wall_timer_registers_in_wall_domain(self):
        registry = MetricsRegistry()
        timer = wall_timer(registry, "b.seconds")
        with timer.measure():
            pass
        histogram = registry.snapshot().histogram_named("b.seconds")
        assert histogram.domain == WALL
        assert histogram.total == 1
        assert histogram.sum >= 0.0

    def test_observe_records_external_duration(self):
        registry = MetricsRegistry()
        timer = Timer(registry.histogram("c.seconds", (1.0,)),
                      clock=lambda: 0.0)
        timer.observe(0.25)
        assert registry.snapshot().histogram_named("c.seconds").sum == 0.25

    def test_sim_timings_are_deterministic(self):
        def run():
            registry = MetricsRegistry()
            clock = SimClock(0.0)
            timer = Timer(registry.histogram("d.seconds", (1.0, 10.0)),
                          clock=clock.now)
            for step in (0.2, 1.5, 40.0):
                with timer.measure():
                    clock.advance(step)
            return registry.snapshot().sim_only()

        assert run() == run()


class TestRender:
    def test_render_mentions_each_domain_and_metric(self):
        registry = MetricsRegistry()
        registry.counter("frames").inc(3)
        wall_timer(registry, "decode.seconds").observe(0.001)
        text = render_metrics(registry.snapshot())
        assert "Sim-domain metrics" in text
        assert "Wall-clock metrics" in text
        assert "frames" in text and "decode.seconds" in text

    def test_render_empty_snapshot(self):
        assert render_metrics(MetricsRegistry().snapshot()) \
            == "(no metrics recorded)"
