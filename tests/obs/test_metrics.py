"""Tests for repro.obs.metrics — registry, snapshot, canonical merge."""

import json
import pickle

import pytest

from repro.obs.metrics import (
    SIM,
    WALL,
    MetricsError,
    MetricsRegistry,
    MetricsSnapshot,
    merge_snapshots,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("pipeline.frames")
        counter.inc()
        counter.inc(4)
        assert registry.snapshot().counter_value("pipeline.frames") == 5

    def test_counter_accepts_float_amounts(self):
        registry = MetricsRegistry()
        spend = registry.counter("billing.spend_eur")
        spend.inc(0.25)
        spend.inc(0.5)
        assert registry.snapshot().counter_value("billing.spend_eur") \
            == pytest.approx(0.75)

    def test_counter_rejects_decrease(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_holds_last_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("store.sealed")
        gauge.set(1)
        gauge.set(0)
        assert registry.snapshot().gauge_value("store.sealed") == 0

    def test_histogram_buckets_and_overflow(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", edges=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            histogram.observe(value)
        snap = registry.snapshot().histogram_named("h")
        assert snap.counts == (2, 1)
        assert snap.overflow == 1
        assert snap.total == 4
        assert snap.sum == pytest.approx(106.5)

    def test_histogram_rejects_unsorted_edges(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().histogram("h", edges=(10.0, 1.0))

    def test_histogram_rejects_empty_edges(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().histogram("h", edges=())


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_domain_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", domain=SIM)
        with pytest.raises(MetricsError):
            registry.counter("x", domain=WALL)

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError):
            registry.gauge("x")

    def test_invalid_names_and_domains_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.counter("")
        with pytest.raises(MetricsError):
            registry.counter("has space")
        with pytest.raises(MetricsError):
            registry.counter("x", domain="cpu")

    @pytest.mark.parametrize("kind", ["counter", "gauge", "histogram"])
    @pytest.mark.parametrize("name", ["", "tab\tname", "new\nline", " lead"])
    def test_bad_name_rejected_on_first_registration(self, kind, name):
        # Lookups of existing instruments skip the name check, so the
        # first registration is where a bad name must still fail.
        registry = MetricsRegistry()
        register = getattr(registry, kind)
        args = ((1.0,),) if kind == "histogram" else ()
        with pytest.raises(MetricsError):
            register(name, *args)
        registry.counter("ok")
        with pytest.raises(MetricsError):
            register(name, *args)

    def test_lookup_still_checks_domain(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError, match="domain must be one of"):
            registry.counter("x", domain="cpu")


class TestSnapshot:
    def make_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("b.sim").inc(2)
        registry.counter("a.wall", domain=WALL).inc(7)
        registry.gauge("g").set(3.5)
        registry.histogram("h", edges=(1.0,), domain=WALL).observe(0.5)
        return registry.snapshot()

    def test_snapshot_is_name_sorted(self):
        snapshot = self.make_snapshot()
        names = [name for name, _, _ in snapshot.counters]
        assert names == sorted(names)

    def test_restrict_by_domain(self):
        snapshot = self.make_snapshot()
        sim = snapshot.sim_only()
        assert sim.counter_value("b.sim") == 2
        assert sim.counter_value("a.wall") == 0
        assert sim.histogram_named("h") is None

    def test_snapshot_pickles(self):
        snapshot = self.make_snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_to_json_is_strict(self):
        registry = MetricsRegistry()
        registry.gauge("bad").set(float("inf"))
        text = registry.snapshot().to_json()
        assert "Infinity" not in text and "NaN" not in text
        data = json.loads(text)
        assert data["sim"]["gauges"]["bad"] is None

    def test_to_dict_groups_by_domain(self):
        data = self.make_snapshot().to_dict()
        assert data["sim"]["counters"]["b.sim"] == 2
        assert data["wall"]["counters"]["a.wall"] == 7
        assert data["wall"]["histograms"]["h"]["counts"] == [1]


class TestMerge:
    def shard_snapshot(self, factor):
        registry = MetricsRegistry()
        registry.counter("frames").inc(10 * factor)
        registry.counter("spend", domain=SIM).inc(0.125 * factor)
        registry.gauge("peak").set(factor)
        histogram = registry.histogram("exposure", edges=(1.0, 10.0))
        histogram.observe(0.5 * factor)
        histogram.observe(20.0)
        return registry.snapshot()

    def test_merge_sums_counters_and_histograms(self):
        merged = merge_snapshots([self.shard_snapshot(1),
                                  self.shard_snapshot(2)])
        assert merged.counter_value("frames") == 30
        assert merged.counter_value("spend") == pytest.approx(0.375)
        assert merged.gauge_value("peak") == 2
        histogram = merged.histogram_named("exposure")
        assert histogram.total == 4
        assert histogram.overflow == 2

    def test_merge_of_empty_is_empty(self):
        assert merge_snapshots([]) == MetricsSnapshot()

    def test_merge_is_order_insensitive_for_integer_metrics(self):
        first = merge_snapshots([self.shard_snapshot(1),
                                 self.shard_snapshot(3)])
        second = merge_snapshots([self.shard_snapshot(3),
                                  self.shard_snapshot(1)])
        assert first.counter_value("frames") == second.counter_value("frames")
        assert first.histogram_named("exposure") \
            == second.histogram_named("exposure")

    def test_mismatched_histogram_edges_raise(self):
        a = MetricsRegistry()
        a.histogram("h", edges=(1.0,))
        b = MetricsRegistry()
        b.histogram("h", edges=(2.0,))
        with pytest.raises(MetricsError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_absorb_recreates_instruments(self):
        source = MetricsRegistry()
        source.counter("x").inc(3)
        target = MetricsRegistry()
        target.absorb(source.snapshot())
        target.absorb(source.snapshot())
        assert target.snapshot().counter_value("x") == 6
