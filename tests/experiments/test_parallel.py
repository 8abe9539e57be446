"""Tests for the sharded parallel runner and the dataset lifecycle.

The determinism contract under test: at the same seed the parallel
runner's merged result is byte-for-byte identical to the serial runner's
— same impression store serialisation, same rendered tables and figures —
for any worker count.
"""

import dataclasses

import pytest

from repro.collector.store import StoreSealedError
from repro.experiments import figures, tables
from repro.experiments.config import ExperimentConfig, paper_experiment
from repro.experiments.parallel import ParallelExperimentRunner
from repro.experiments.runner import (
    ExperimentRunner,
    plan_shards,
    run_paper_experiment,
)
from tests.collector.test_store import make_record


class TestShardPlan:
    def test_plan_covers_every_period_country_slice(self, small_config):
        shards = plan_shards(small_config)
        combos = {(shard.period_name, shard.country, shard.slice_index)
                  for shard in shards}
        assert len(combos) == len(shards)
        expected = 0
        for period in small_config.periods:
            countries = set(period.countries) \
                | {country for country, _ in period.fleets}
            expected += len(countries) * small_config.shard_slices
        assert len(shards) == expected

    def test_plan_is_independent_of_worker_count(self, small_config):
        # The plan is a function of the config alone; nothing about jobs
        # enters it, so output cannot depend on parallelism.
        assert plan_shards(small_config) == plan_shards(small_config)

    def test_slice_indices_are_complete(self, small_config):
        shards = plan_shards(small_config)
        for period in small_config.periods:
            for country in period.countries:
                indices = sorted(shard.slice_index for shard in shards
                                 if shard.period_name == period.name
                                 and shard.country == country)
                assert indices == list(range(small_config.shard_slices))

    def test_shard_slices_is_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(seed=1, scale=0.01, shard_slices=0)


class TestParallelEquivalence:
    @pytest.fixture(scope="class")
    def parallel_result(self, small_config):
        return ParallelExperimentRunner(small_config, jobs=2).run()

    def test_stores_byte_identical(self, small_result, parallel_result):
        assert parallel_result.dataset.store.dumps_jsonl() \
            == small_result.dataset.store.dumps_jsonl()

    def test_tables_byte_identical(self, small_result, parallel_result):
        for render in (tables.render_table1, tables.render_table2,
                       tables.render_table3, tables.render_table4):
            assert render(parallel_result) == render(small_result)

    def test_figures_byte_identical(self, small_result, parallel_result):
        for figure in (figures.figure1, figures.figure2, figures.figure3):
            assert figure(parallel_result).render() \
                == figure(small_result).render()

    def test_stats_and_reports_identical(self, small_result, parallel_result):
        assert parallel_result.stats == small_result.stats
        assert parallel_result.dataset.vendor_reports \
            == small_result.dataset.vendor_reports
        assert parallel_result.conversions == small_result.conversions

    def test_trace_exports_byte_identical(self, small_result,
                                          parallel_result):
        # The tracing contract: the merged flight recorder folds shard
        # traces in canonical plan order, so both export formats must come
        # out byte-for-byte identical regardless of worker count.
        from repro.obs.traceio import dumps_chrome_trace, dumps_trace_jsonl

        serial_traces = small_result.recorder.traces()
        parallel_traces = parallel_result.recorder.traces()
        assert len(serial_traces) > 0
        assert dumps_chrome_trace(parallel_traces) \
            == dumps_chrome_trace(serial_traces)
        assert dumps_trace_jsonl(parallel_traces) \
            == dumps_trace_jsonl(serial_traces)

    def test_every_store_record_has_a_trace(self, small_result):
        recorder = small_result.recorder
        for record in small_result.dataset.store:
            trace = recorder.find_by_record(record.record_id)
            assert trace is not None
            names = {span.name for span in trace.spans}
            assert {"impression", "auction.decide", "creative.serve",
                    "beacon.render", "transport.connect", "collector.ingest",
                    "enrich.geo"} <= names

    def test_sim_metrics_identical_field_for_field(self, small_result,
                                                   parallel_result):
        # The metrics contract: every sim-domain counter, gauge and
        # histogram of the merged snapshot is a pure function of
        # (config, seed) — the worker count must not leak into any of it.
        serial = small_result.metrics.sim_only()
        parallel = parallel_result.metrics.sim_only()
        assert serial.counters == parallel.counters
        assert serial.gauges == parallel.gauges
        assert serial.histograms == parallel.histograms
        assert serial == parallel
        assert serial.to_json() == parallel.to_json()

    def test_sim_metrics_are_populated_and_consistent(self, small_result):
        snapshot = small_result.metrics
        assert snapshot.counter_value("shard.pageviews") \
            == small_result.stats["pageviews"]
        assert snapshot.counter_value("adserver.deliveries") \
            == small_result.stats["delivered"]
        assert snapshot.counter_value("collector.records_committed") \
            == small_result.collector.records_committed
        assert snapshot.counter_value("auction.our_wins") \
            == small_result.stats["delivered"]

    def test_metrics_json_is_strict(self, small_result):
        import json

        text = small_result.metrics.to_json()
        assert "Infinity" not in text
        assert "NaN" not in text
        parsed = json.loads(text)
        assert set(parsed) == {"sim", "wall"}

    def test_sim_events_byte_identical(self, small_result, parallel_result):
        # The event-journal contract: the sim channel is merged in
        # canonical plan order like metrics and traces, so its NDJSON
        # export is byte-identical whatever the worker count.
        from repro.obs.events import dumps_events_jsonl

        serial = dumps_events_jsonl(small_result.events.sim_events())
        parallel = dumps_events_jsonl(parallel_result.events.sim_events())
        assert len(small_result.events.sim_events()) > 0
        assert parallel == serial

    def test_event_journal_covers_the_whole_plan(self, small_result,
                                                 small_config):
        shard_count = len(plan_shards(small_config))
        names = [event.name for event in small_result.events.sim_events()]
        assert names.count("shard.planned") == shard_count
        assert names.count("shard.started") == shard_count
        assert names.count("shard.merged") == shard_count
        assert names.count("coverage.reconciled") == 1
        # Telemetry was off, so no heartbeats rode the wall channel.
        assert small_result.events.wall_events() == ()

    def test_jobs_must_be_positive(self, small_config):
        with pytest.raises(ValueError):
            ParallelExperimentRunner(small_config, jobs=0)


class TestJobsSweepEquivalence:
    """The ``--jobs`` sweep contract at scale 0.02.

    ``shard_slices=5`` gives 25 shards — divisible by neither 2 nor 4 —
    so every worker count leaves a ragged final wave and completion
    order differs run to run; the exports must not care.
    """

    @pytest.fixture(scope="class")
    def sweep_config(self):
        config = dataclasses.replace(
            paper_experiment(seed=2016, scale=0.02),
            shard_slices=5)
        shard_count = len(plan_shards(config))
        assert shard_count % 2 != 0 and shard_count % 4 != 0
        return config

    @pytest.fixture(scope="class")
    def sweep_results(self, sweep_config):
        return {jobs: ParallelExperimentRunner(sweep_config, jobs=jobs).run()
                for jobs in (1, 2, 4)}

    def test_stores_byte_identical(self, sweep_results):
        serial = sweep_results[1].dataset.store.dumps_jsonl()
        for jobs in (2, 4):
            assert sweep_results[jobs].dataset.store.dumps_jsonl() == serial

    def test_metrics_byte_identical(self, sweep_results):
        serial = sweep_results[1].metrics.sim_only().to_json()
        for jobs in (2, 4):
            assert sweep_results[jobs].metrics.sim_only().to_json() == serial

    def test_trace_exports_byte_identical(self, sweep_results):
        from repro.obs.traceio import dumps_chrome_trace, dumps_trace_jsonl

        serial = sweep_results[1].recorder.traces()
        assert len(serial) > 0
        for jobs in (2, 4):
            traces = sweep_results[jobs].recorder.traces()
            assert dumps_chrome_trace(traces) == dumps_chrome_trace(serial)
            assert dumps_trace_jsonl(traces) == dumps_trace_jsonl(serial)

    def test_coverage_exports_byte_identical(self, sweep_results):
        from repro.audit.coverage import coverage_to_json

        serial = coverage_to_json(sweep_results[1].coverage)
        for jobs in (2, 4):
            assert coverage_to_json(sweep_results[jobs].coverage) == serial

    def test_stats_and_reports_identical(self, sweep_results):
        for jobs in (2, 4):
            assert sweep_results[jobs].stats == sweep_results[1].stats
            assert sweep_results[jobs].dataset.vendor_reports \
                == sweep_results[1].dataset.vendor_reports

    def test_sim_events_byte_identical(self, sweep_results):
        from repro.obs.events import dumps_events_jsonl, validate_events_jsonl

        serial = dumps_events_jsonl(sweep_results[1].events.sim_events())
        assert validate_events_jsonl(serial) \
            == len(sweep_results[1].events.sim_events())
        for jobs in (2, 4):
            assert dumps_events_jsonl(
                sweep_results[jobs].events.sim_events()) == serial


class TestRunTelemetry:
    """Opt-in heartbeats: the wall channel rides along without touching
    the sim channel or any deterministic export."""

    @pytest.fixture(scope="class")
    def telemetry_config(self):
        return paper_experiment(seed=2016, scale=0.01)

    def test_serial_path_emits_heartbeats(self, telemetry_config):
        from repro.obs.events import EventLog

        events = EventLog()
        result = ParallelExperimentRunner(
            telemetry_config, jobs=1, events=events,
            heartbeat_interval=0.0).run()
        beats = result.events.wall_events()
        shard_count = len(plan_shards(telemetry_config))
        assert len(beats) == shard_count + 1  # one per shard + final
        final = beats[-1]
        assert final.name == "runner.heartbeat"
        assert final.attr("shards_done") == shard_count
        assert final.attr("shards_total") == shard_count
        assert final.attr("eta_seconds") == 0.0

    def test_pooled_path_emits_heartbeats(self, telemetry_config):
        from repro.obs.events import EventLog

        events = EventLog()
        result = ParallelExperimentRunner(
            telemetry_config, jobs=2, events=events,
            heartbeat_interval=0.0).run()
        beats = result.events.wall_events()
        assert beats
        final = beats[-1]
        assert final.attr("shards_done") == len(plan_shards(telemetry_config))
        assert final.attr("eta_seconds") == 0.0

    def test_heartbeats_leave_sim_channel_untouched(self, telemetry_config):
        from repro.obs.events import EventLog, dumps_events_jsonl

        plain = ParallelExperimentRunner(telemetry_config, jobs=1).run()
        with_telemetry = ParallelExperimentRunner(
            telemetry_config, jobs=1, events=EventLog(),
            heartbeat_interval=0.0).run()
        assert dumps_events_jsonl(with_telemetry.events.sim_events()) \
            == dumps_events_jsonl(plain.events.sim_events())
        assert with_telemetry.dataset.store.dumps_jsonl() \
            == plain.dataset.store.dumps_jsonl()
        assert with_telemetry.metrics.sim_only().to_json() \
            == plain.metrics.sim_only().to_json()


class TestParallelMemo:
    def test_jobs_is_not_part_of_the_memo_key(self):
        # Regression: the memo used to key on (seed, scale, jobs), so
        # jobs=1 and jobs=2 stored duplicate byte-identical results and
        # missed each other's cache.  The result is a pure function of
        # (seed, scale); jobs only changes how fast it arrives.
        from repro.experiments.parallel import run_paper_experiment_parallel

        run_paper_experiment_parallel.cache_clear()
        try:
            first = run_paper_experiment_parallel(seed=99, scale=0.01,
                                                  jobs=1)
            second = run_paper_experiment_parallel(seed=99, scale=0.01,
                                                   jobs=2)
            assert second is first
        finally:
            run_paper_experiment_parallel.cache_clear()


class TestBrokenPoolAttemptThreading:
    def test_fallback_resumes_at_recorded_attempt(self, monkeypatch):
        # Regression: the BrokenProcessPool fallback used to restart
        # unsettled shards at attempt 0, discarding the attempts a
        # crashed-then-resubmitted shard had already accrued — re-running
        # fault-plan crashes it had already paid for.
        from concurrent.futures.process import BrokenProcessPool

        from repro.experiments import parallel as parallel_module
        from repro.faults.plan import FaultPlan

        plain = paper_experiment(seed=2016, scale=0.01)
        scope = plan_shards(plain)[0].scope
        config = dataclasses.replace(
            plain, faults=FaultPlan(name="crashy", crash_scopes=(scope,),
                                    crash_attempts=3))

        real_run_shard = parallel_module.run_shard
        attempts_seen = []

        def counting_run_shard(cfg, shard, world, attempt=0):
            if shard.scope == scope:
                attempts_seen.append(attempt)
            return real_run_shard(cfg, shard, world, attempt=attempt)

        class FakeFuture:
            def __init__(self, fn, args):
                try:
                    self._value, self._error = fn(*args), None
                except Exception as error:
                    self._value, self._error = None, error

            def result(self):
                if self._error is not None:
                    raise self._error
                return self._value

        class FakePool:
            """Runs attempt-0 submissions inline; a resubmission (any
            attempt > 0) kills the pool, stranding the crashed shard."""

            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, cfg, shard, attempt):
                if attempt > 0:
                    raise BrokenProcessPool("simulated worker death")
                return FakeFuture(fn, (cfg, shard, attempt))

        monkeypatch.setattr(parallel_module, "run_shard", counting_run_shard)
        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(
            parallel_module, "wait",
            lambda pending, return_when=None: (set(pending), set()))

        result = ParallelExperimentRunner(config, jobs=2,
                                          shard_retries=3).run()

        # Attempt 0 crashed in the pool; the attempt-1 resubmission broke
        # the pool; the inline fallback resumed at the recorded attempt 1
        # and ran 1 (crash), 2 (crash), 3 (success) — never a second 0.
        assert attempts_seen == [0, 1, 2, 3]
        assert result.coverage.lost_shards == ()

        baseline = ParallelExperimentRunner(config, jobs=1,
                                            shard_retries=3).run()
        assert result.dataset.store.dumps_jsonl() \
            == baseline.dataset.store.dumps_jsonl()
        assert result.stats == baseline.stats


class TestDeterminism:
    def test_same_seed_runs_produce_identical_stores(self):
        # Guards the explicit-rng contract end to end: any component
        # falling back to the global ``random`` module would re-roll the
        # wire-level masking and diverge between these two runs.
        config = paper_experiment(seed=31, scale=0.01)
        first = ExperimentRunner(config).run()
        second = ExperimentRunner(config).run()
        assert first.dataset.store.dumps_jsonl() \
            == second.dataset.store.dumps_jsonl()
        assert first.stats == second.stats


class TestDatasetLifecycle:
    def test_memoised_result_cannot_be_contaminated(self):
        # Regression: run_paper_experiment memoises the result object, and
        # its store used to be mutable — one caller's insert corrupted
        # every later caller's (supposedly identical) dataset.
        first = run_paper_experiment(seed=77, scale=0.01)
        size = len(first.dataset.store)
        with pytest.raises(StoreSealedError):
            first.dataset.store.insert(make_record(
                record_id=first.dataset.store.next_record_id(),
                ip="", ip_token="f" * 16))
        second = run_paper_experiment(seed=77, scale=0.01)
        assert second is first
        assert len(second.dataset.store) == size

    def test_session_fixture_store_is_sealed(self, small_result):
        assert small_result.dataset.store.sealed
