"""Tests for repro.faults.inject — the seeded fault dice."""

import random

import pytest

from repro.faults.inject import NULL_INJECTOR, FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.metrics import MetricsRegistry


def make_plan(*specs, name="test"):
    return FaultPlan(name=name, specs=specs)


class TestDeterminism:
    def test_same_seed_same_fire_sequence(self):
        plan = FaultPlan.preset("flaky")
        rolls = []
        for _ in range(2):
            injector = FaultInjector(plan, random.Random(1234))
            rolls.append([injector.fires("connect", "refused")
                          for _ in range(200)])
        assert rolls[0] == rolls[1]
        assert any(rolls[0])  # the flaky preset does fire at p=0.05

    def test_same_seed_same_mangle_sequence(self):
        plan = FaultPlan.preset("hostile")
        payload = bytes(range(64))
        outputs = []
        for _ in range(2):
            injector = FaultInjector(plan, random.Random(99))
            outputs.append([injector.mangle(payload) for _ in range(300)])
        assert outputs[0] == outputs[1]
        kinds = {kind for _, kind in outputs[0]}
        assert kinds == {"", "truncate", "bit_flip"}

    def test_unconfigured_fault_never_draws(self):
        # Enabling fault A must not perturb fault B's dice: a roll for a
        # (stage, kind) with zero probability consumes no randomness.
        plan = make_plan(FaultSpec("connect", "refused", 0.5))
        injector = FaultInjector(plan, random.Random(7))
        before = injector.rng.getstate()
        assert not injector.fires("stream", "disconnect")
        assert not injector.fires("collector", "backpressure")
        assert injector.rng.getstate() == before

    def test_inactive_injector_is_a_noop(self):
        assert not NULL_INJECTOR.active
        assert not NULL_INJECTOR.fires("connect", "refused")
        assert NULL_INJECTOR.jitter(1.0) == 0.0
        data, kind = NULL_INJECTOR.mangle(b"\x81\x05hello")
        assert (data, kind) == (b"\x81\x05hello", "")

    def test_injecting_plan_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            FaultInjector(make_plan(FaultSpec("connect", "refused", 0.5)))


class TestMangle:
    def test_truncate_shortens_but_keeps_prefix(self):
        plan = make_plan(FaultSpec("frame", "truncate", 1.0))
        injector = FaultInjector(plan, random.Random(3))
        payload = bytes(range(32))
        data, kind = injector.mangle(payload)
        assert kind == "truncate"
        assert 1 <= len(data) < len(payload)
        assert payload.startswith(data)

    def test_bit_flip_changes_exactly_one_bit(self):
        plan = make_plan(FaultSpec("frame", "bit_flip", 1.0))
        injector = FaultInjector(plan, random.Random(3))
        payload = bytes(range(32))
        data, kind = injector.mangle(payload)
        assert kind == "bit_flip"
        assert len(data) == len(payload)
        diff = [a ^ b for a, b in zip(data, payload) if a != b]
        assert len(diff) == 1 and bin(diff[0]).count("1") == 1

    def test_single_byte_survives_truncation(self):
        plan = make_plan(FaultSpec("frame", "truncate", 1.0))
        injector = FaultInjector(plan, random.Random(3))
        assert injector.mangle(b"\x00")[0] == b"\x00"


class TestAccounting:
    def test_counters_created_lazily_on_first_fire(self):
        metrics = MetricsRegistry()
        plan = make_plan(FaultSpec("connect", "refused", 1.0),
                         FaultSpec("stream", "disconnect", 0.0))
        injector = FaultInjector(plan, random.Random(5), metrics=metrics)
        assert not any(name.startswith("fault.")
                       for name, _, _ in metrics.snapshot().counters)
        assert injector.fires("connect", "refused")
        counters = {name: value
                    for name, _, value in metrics.snapshot().counters}
        assert counters["fault.connect.refused"] == 1
        assert "fault.stream.disconnect" not in counters

    def test_jitter_bounded_and_deterministic(self):
        plan = make_plan(FaultSpec("connect", "refused", 0.1))
        a = FaultInjector(plan, random.Random(11))
        b = FaultInjector(plan, random.Random(11))
        draws = [a.jitter(0.25) for _ in range(50)]
        assert draws == [b.jitter(0.25) for _ in range(50)]
        assert all(0.0 <= draw < 0.25 for draw in draws)
        assert a.jitter(0.0) == 0.0


class TestStageLookup:
    def test_lookups_scope_to_one_stage(self):
        plan = make_plan(FaultSpec("connect", "refused", 1.0),
                         FaultSpec("connect", "timeout", 0.0, param=2.5))
        injector = FaultInjector(plan, random.Random(5))
        assert injector.fires("connect", "refused")
        assert injector.param("connect", "timeout") == 2.5
        assert injector.param("stream", "timeout", default=9.0) == 9.0
        assert not injector.fires("stream", "refused")
