"""Tests for repro.faults.plan — declarative fault schedules."""

import pytest

from repro.faults.plan import (
    FAULT_KINDS,
    PRESET_NAMES,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)


def spec_table(plan):
    """The plan's specs keyed by (stage, kind)."""
    return {(spec.stage, spec.kind): spec for spec in plan.specs}


class TestFaultSpec:
    def test_rejects_unknown_stage_kind(self):
        with pytest.raises(ValueError, match="unknown fault"):
            FaultSpec("connect", "teleport", 0.1)
        with pytest.raises(ValueError, match="unknown fault"):
            FaultSpec("dns", "refused", 0.1)

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("connect", "refused", 1.5)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("connect", "refused", -0.1)

    def test_rejects_negative_param(self):
        with pytest.raises(ValueError, match="param"):
            FaultSpec("connect", "timeout", 0.1, param=-1.0)

    def test_every_vocabulary_entry_constructs(self):
        for stage, kind in FAULT_KINDS:
            FaultSpec(stage, kind, 0.5)


class TestRetryPolicy:
    def test_backoff_is_bounded_exponential(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.5, multiplier=2.0,
                             max_delay=3.0, jitter=0.0)
        assert policy.backoff(1) == 0.5
        assert policy.backoff(2) == 1.0
        assert policy.backoff(3) == 2.0
        assert policy.backoff(4) == 3.0  # capped at max_delay
        assert policy.backoff(10) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="failures"):
            RetryPolicy().backoff(0)


class TestFaultPlan:
    def test_default_plan_is_inactive(self):
        plan = FaultPlan()
        assert plan.name == "none"
        assert not plan.injects
        assert not plan.retries_enabled
        assert not plan.active

    def test_crash_scopes_do_not_activate(self):
        # A re-executed shard must be byte-identical to an uncrashed one,
        # so a crash-only plan may not flip any in-shard behaviour.
        plan = FaultPlan(name="crashy", crash_scopes=("march/ES/0",))
        assert not plan.active
        assert plan.should_crash("march/ES/0", 0)
        assert not plan.should_crash("march/ES/0", 1)
        assert not plan.should_crash("march/ES/1", 0)

    def test_rejects_duplicate_specs(self):
        with pytest.raises(ValueError, match="duplicate fault spec"):
            FaultPlan(name="x", specs=(
                FaultSpec("connect", "refused", 0.1),
                FaultSpec("connect", "refused", 0.2)))

    def test_probability_and_param_lookup(self):
        specs = spec_table(FaultPlan.preset("flaky"))
        assert specs["connect", "refused"].probability == 0.05
        assert ("connect", "never-configured") not in specs
        assert specs["connect", "timeout"].param == 0.75
        assert specs["frame", "truncate"].param == 0.0

    def test_plan_is_hashable(self):
        # ExperimentConfig is a dict key (world caches, lru_cache), so
        # the plan must hash like any other config field.
        assert hash(FaultPlan.preset("flaky")) == hash(FaultPlan.preset("flaky"))
        assert FaultPlan.preset("flaky") != FaultPlan.preset("hostile")


class TestPresetsAndResolve:
    def test_presets_all_resolve(self):
        for name in PRESET_NAMES:
            plan = FaultPlan.resolve(name)
            assert plan.name == name

    def test_none_and_missing_are_equal(self):
        assert FaultPlan.resolve(None) == FaultPlan.resolve("none") \
            == FaultPlan()

    def test_flaky_and_hostile_are_active(self):
        assert FaultPlan.preset("flaky").active
        assert FaultPlan.preset("hostile").active
        refused = [spec_table(FaultPlan.preset(name))["connect", "refused"]
                   for name in ("hostile", "flaky")]
        assert refused[0].probability > refused[1].probability

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            FaultPlan.preset("chaotic")
        with pytest.raises(ValueError, match="--faults"):
            FaultPlan.resolve("/no/such/plan.json")

    def test_inline_json_round_trip(self):
        plan = FaultPlan.resolve(
            '{"name": "custom", "faults": [{"stage": "connect", '
            '"kind": "refused", "probability": 0.5}], '
            '"retry": {"max_attempts": 2}}')
        assert plan.name == "custom"
        assert spec_table(plan)["connect", "refused"].probability == 0.5
        assert plan.retry.max_attempts == 2
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_file_plan(self, tmp_path):
        path = tmp_path / "myplan.json"
        path.write_text(FaultPlan.preset("flaky").to_json(),
                        encoding="utf-8")
        assert FaultPlan.resolve(str(path)) == FaultPlan.preset("flaky")

    def test_crash_shards_round_trip(self):
        plan = FaultPlan(name="crashy", crash_scopes=("a/b/0", "a/b/1"),
                         crash_attempts=3)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_bad_documents_rejected(self):
        with pytest.raises(ValueError, match="bad inline fault plan"):
            FaultPlan.resolve("{not json")
        with pytest.raises(ValueError, match="unknown fault plan keys"):
            FaultPlan.from_dict({"surprise": 1})
        with pytest.raises(ValueError, match="missing field"):
            FaultPlan.from_dict({"faults": [{"stage": "connect"}]})
