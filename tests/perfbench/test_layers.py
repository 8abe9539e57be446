"""Tests for the perf benchmark's outside-in layer tracing (layers.py)."""

import sys
import types

import pytest

import layers
from layers import BOUNDARIES, Boundary, Recorder, install, layer_metrics

_ABSENT = object()


class FakeClock:
    """A clock that only moves when the synthetic code says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def synthetic(monkeypatch):
    """A throwaway module whose functions spend known fake-clock time."""
    clock = FakeClock()
    module = types.ModuleType("perfbench_synthetic")

    class Engine:
        def outer(self):
            clock.advance(1.0)
            self.inner()
            self.inner()
            clock.advance(2.0)
            return "done"

        def inner(self):
            clock.advance(3.0)
            module.helper()

        def sibling(self):
            clock.advance(1.0)
            self.inner()

    def helper():
        clock.advance(0.5)
        return 7

    module.Engine = Engine
    module.helper = helper
    monkeypatch.setitem(sys.modules, module.__name__, module)
    boundaries = (
        Boundary("outer", module.__name__, "Engine", ("outer",),
                 kind="coarse"),
        Boundary("inner", module.__name__, "Engine", ("inner", "sibling")),
        Boundary("helper", module.__name__, "", ("helper",),
                 count=("helper.results", lambda args, result: result)),
    )
    return module, clock, boundaries


class TestSelfTime:
    def test_nested_wrappers_split_total_into_self_time(self, synthetic):
        module, clock, boundaries = synthetic
        recorder = Recorder(clock=clock)
        installation = install(recorder, boundaries)
        try:
            assert recorder.root(module.Engine().outer) == "done"
        finally:
            installation.uninstall()
        stats = recorder.stats
        assert stats["helper"] == [2, 1.0, 1.0]
        assert stats["inner"] == [2, 7.0, 6.0]
        assert stats["outer"] == [1, 10.0, 3.0]
        assert stats["op"] == [1, 10.0, 0.0]
        assert recorder.counters["helper.results"] == 14
        assert layer_metrics(recorder)["trace.unattributed_frac"] == 0.0

    def test_reentering_the_innermost_layer_is_one_call(self, synthetic):
        module, clock, boundaries = synthetic
        recorder = Recorder(clock=clock)
        installation = install(recorder, boundaries)
        try:
            recorder.root(module.Engine().sibling)
        finally:
            installation.uninstall()
        assert recorder.stats["inner"] == [1, 4.5, 4.0]
        assert recorder.stats["helper"] == [1, 0.5, 0.5]

    def test_coarse_spans_link_to_their_parent(self, synthetic):
        module, clock, boundaries = synthetic
        recorder = Recorder(clock=clock)
        installation = install(recorder, boundaries)
        try:
            recorder.root(module.Engine().outer)
        finally:
            installation.uninstall()
        assert recorder.spans == [["op", 0.0, 10.0, None, 1],
                                  ["outer", 0.0, 10.0, 0, 1]]
        events = layers.chrome_trace(recorder)["traceEvents"]
        assert [(event["name"], event["dur"]) for event in events] == [
            ("op", 10e6), ("outer", 10e6)]

    def test_exceptions_still_close_the_span(self, synthetic):
        module, clock, boundaries = synthetic

        def broken(self):
            clock.advance(2.0)
            raise ValueError("boom")

        module.Engine.outer = broken
        recorder = Recorder(clock=clock)
        installation = install(recorder, boundaries)
        try:
            with pytest.raises(ValueError):
                recorder.root(module.Engine().outer)
        finally:
            installation.uninstall()
        assert recorder.stack == []
        assert recorder.stats["outer"] == [1, 2.0, 2.0]


def _snapshot():
    """Every boundary attribute's raw class/module entry, by identity."""
    entries = {}
    for boundary in BOUNDARIES:
        owner = layers._resolve_owner(boundary)
        attrs = layers._public_methods(owner) if boundary.attrs == ("*",) \
            else boundary.attrs
        for attr in attrs:
            entries[(owner, attr)] = vars(owner).get(attr, _ABSENT)
    return entries


class TestInstallOnSrc:
    def test_every_boundary_exists_and_is_restored(self):
        before = _snapshot()
        installation = install(Recorder())
        try:
            assert installation.missing == []
            patched = {(owner, attr) for owner, attr, _ in
                       installation.patches}
            assert patched == set(before)
            assert all(vars(owner).get(attr, _ABSENT) is not entry
                       for (owner, attr), entry in before.items())
        finally:
            installation.uninstall()
        after = _snapshot()
        assert all(after[key] is before[key] for key in before)
        installation.uninstall()    # idempotent
        assert _snapshot() == after

    def test_missing_boundary_reads_zero_with_a_note(self, monkeypatch):
        import repro.experiments.parallel as parallel

        monkeypatch.delattr(parallel, "unpack_shard_output")
        recorder = Recorder()
        installation = install(recorder)
        installation.uninstall()
        assert installation.missing == [
            "repro.experiments.parallel:unpack_shard_output"]
        values = layer_metrics(recorder)
        assert values["experiments.unpack.calls"] == 0
        assert values["experiments.unpack.self_s"] == 0
        assert values["experiments.wire_bytes"] == 0

    def test_missing_module_reads_zero_with_a_note(self):
        recorder = Recorder()
        installation = install(recorder, (
            Boundary("gone.call", "repro.no_such_module", "", ("call",)),))
        assert installation.missing == ["repro.no_such_module:*"]
        assert recorder.stats["gone.call"] == [0, 0.0, 0.0]

    def test_traced_store_class_keeps_classmethods(self, tmp_path):
        from repro.collector.store import ImpressionStore

        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        recorder = Recorder()
        installation = install(recorder)
        try:
            store = recorder.root(ImpressionStore.load_jsonl, path)
            store.seal()
        finally:
            installation.uninstall()
        assert len(store) == 0
        assert recorder.stats["collector.load"][0] == 1
        assert recorder.stats["collector.seal"][0] == 1
