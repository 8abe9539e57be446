"""The experiment runner: one shard loop, in-process or across a pool.

Runs the shard plan of :mod:`repro.experiments.runner`.  ``jobs=1`` runs
every shard in-process, in plan order, with no pool; higher values first
farm the shards out to worker processes.  Both go through the same
method, and whatever the pool leaves unsettled — everything in a serial
run, the rest after a broken pool — runs in one inline loop.  The
contract is strict determinism: at the same seed the merged result is
byte-for-byte identical whatever ``jobs`` is, because

* the shard plan is a pure function of the config (``shard_slices`` is a
  config field, never derived from the worker count),
* every shard draws only from RNG streams scoped to itself, and
* the merge consumes shard outputs in canonical plan order regardless of
  completion order.

The same contract covers observability: each ``ShardOutput`` carries the
shard's metrics snapshot *and* its flight-recorder trace set, and the
merge folds both in canonical order (trace segments are absorbed with
the cumulative id offsets the store merge uses) — so
``--trace-json`` exports are byte-identical for any ``jobs`` value.

It also covers failure recovery: a shard that crashes (an injected
:class:`~repro.faults.plan.ShardCrashError`, or a worker process dying)
is re-executed up to ``shard_retries`` extra times — the attempt counter
feeds only the fault plan's crash decision, never an RNG stream, so a
recovered shard is byte-identical to one that never crashed.  A shard
that exhausts its retries is marked *lost* and the run degrades
gracefully: the merge proceeds without it and the coverage report names
the lost scope.  When a broken pool leaves shards to the inline loop,
each resumes from the attempt it had already accrued — never from zero —
so the fault plan's per-attempt crash decisions stay consistent with the
pooled history.

Three things keep the pooled hot path cheap:

* **Warm workers.** The pool uses the explicit ``fork`` start method
  where the platform offers one, and the parent builds the world *before*
  creating the pool so children inherit the per-process cache
  copy-on-write.  On spawn-only platforms a pool initializer builds the
  world once per worker at startup instead of lazily on first task.
* **Bytes on the wire.** Workers return :func:`pack_shard_output`
  blobs, a plain pickle of the ``ShardOutput``, so the pool moves one
  ``bytes`` object per shard and the parent decodes it only at fold
  time.  A shard ships only what the merge reads (its deliveries stay
  behind, counted by the coverage ledger), and its traces travel as the
  one compressed segment its flight recorder sealed them into.
* **Merge-as-you-go.** Completed shards fold into a
  :class:`~repro.experiments.runner.ShardMerger` as soon as the canonical
  plan order allows, overlapping merge work with still-running shards
  instead of paying a post-hoc barrier.  Out-of-order completions wait in
  a buffer as pickled bytes and are only unpickled at fold time.

Shards are submitted largest-first so the long poles start early (the
classic LPT heuristic) — a scheduling detail that cannot affect the
output.
"""

from __future__ import annotations

import pickle
from concurrent import futures  # loads no pool until a pooled run
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    ExperimentResult,
    HeartbeatEmitter,
    ShardMerger,
    ShardOutput,
    ShardSpec,
    World,
    build_world,
    plan_shards,
    run_shard,
)
from repro.faults.plan import ShardCrashError
from repro.obs.events import EventLog
from repro.obs.memwatch import MemoryWatch

#: Re-execution attempts granted to a crashing shard before the runner
#: degrades gracefully and marks it lost (inline and pooled alike).
DEFAULT_SHARD_RETRIES = 2

#: Per-process world cache holding the last config's world.
#: ExperimentConfig is a frozen dataclass of hashable parts, so the config
#: itself is the key; a worker that serves several shards of one
#: experiment builds the world exactly once, and a process that runs many
#: configs keeps only one world alive.
_WORLD_CACHE: dict[ExperimentConfig, World] = {}

#: Buffer marker for a shard that exhausted its retries.
_LOST = object()


def _world_for(config: ExperimentConfig) -> World:
    world = _WORLD_CACHE.get(config)
    if world is None:
        _WORLD_CACHE.clear()
        world = _WORLD_CACHE[config] = build_world(config)
    return world


def _pool_context():
    """The explicit ``fork`` context where the platform provides one.

    Forked workers inherit the parent's already-populated
    ``_WORLD_CACHE`` copy-on-write, so they start warm for free.  On
    spawn-only platforms the default context is used and
    :func:`_warm_worker` does the warm-up once per worker instead.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _warm_worker(config: ExperimentConfig) -> None:
    """Pool initializer: build the world once, at worker startup.

    Under fork this finds the inherited cache entry and is a no-op; under
    spawn it moves the world build out of the first task's latency.
    """
    _world_for(config)


def pack_shard_output(output: ShardOutput) -> bytes:
    """Pickle one shard output for the trip to the parent process."""
    return pickle.dumps(output, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_shard_output(blob: bytes) -> ShardOutput:
    """Unpickle a :func:`pack_shard_output` blob.

    The traces arrive as one sealed segment and stay so in the merged
    trace archive until read.
    """
    return pickle.loads(blob)


def _run_shard_job(config: ExperimentConfig, shard: ShardSpec,
                   attempt: int = 0) -> bytes:
    """Worker entry point: simulate one shard and return it pickled."""
    return pack_shard_output(
        run_shard(config, shard, _world_for(config), attempt=attempt))


def _run_recovering(config: ExperimentConfig, shard: ShardSpec,
                    world: World, retries: int,
                    first_attempt: int = 0) -> ShardOutput | None:
    """Run one shard in-process with crash recovery; None when lost.

    ``first_attempt`` resumes a shard that already burned attempts in a
    broken pool without resetting the fault plan's attempt counter.
    """
    for attempt in range(first_attempt, retries + 1):
        try:
            return run_shard(config, shard, world, attempt=attempt)
        except ShardCrashError:
            continue
    return None


class ParallelExperimentRunner:
    """Executes one :class:`ExperimentConfig`; deterministic in its seed.

    ``jobs=1`` (the default) runs every shard in-process with no
    executor involved.  Higher values bound the worker-process count
    (capped at the shard count).  ``shard_retries`` bounds the
    crash-recovery re-executions granted to each shard before it is
    marked lost.  ``events`` (optional) collects the run's telemetry
    journal; when ``heartbeat_interval`` is also set (seconds),
    wall-domain ``runner.heartbeat`` events ride along — both default
    off, so plain runs pay nothing.
    """

    def __init__(self, config: ExperimentConfig, jobs: int = 1,
                 shard_retries: int = DEFAULT_SHARD_RETRIES,
                 events: EventLog | None = None,
                 heartbeat_interval: float | None = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if shard_retries < 0:
            raise ValueError("shard_retries must be non-negative")
        self.config = config
        self.jobs = jobs
        self.shard_retries = shard_retries
        self.events = events
        self.heartbeat_interval = heartbeat_interval

    def run(self) -> ExperimentResult:
        config = self.config
        shards = plan_shards(config)
        events = self.events if self.events is not None else EventLog()
        memwatch = MemoryWatch()
        # The sim channel opens with the full plan in canonical order: an
        # auditor reading the NDJSON export sees what was *scheduled*
        # before what *happened*.
        for shard in shards:
            events.emit("shard.planned", at=shard.start_unix,
                        scope=shard.scope, period=shard.period_name,
                        country=shard.country, slice=shard.slice_index,
                        weight=shard.weight)
        heartbeat = HeartbeatEmitter(self.events, self.heartbeat_interval,
                                     shards, jobs=self.jobs)
        # Built before the pool exists: forked workers inherit it.
        with memwatch.stage("world_build"):
            world = _world_for(config)
        merger = ShardMerger(config, world, events=events, memwatch=memwatch)
        self._run_shards(shards, world, merger, heartbeat)
        return merger.result()

    def _run_shards(self, shards: list[ShardSpec], world: World,
                    merger: ShardMerger,
                    heartbeat: HeartbeatEmitter) -> None:
        """Run every shard, folding each as soon as plan order allows.

        With more than one worker the shards first fan out to a warm
        process pool; settled shards are buffered as pickled bytes and
        folded into ``merger`` the moment canonical plan order allows —
        the merge overlaps with still-running shards instead of waiting
        for all of them.  Crashed shards are resubmitted with an
        incremented attempt.  Whatever the pool did not settle (every
        shard of a serial run, the rest after a broken pool) then runs
        inline in plan order, each from its recorded attempt, and is
        folded before the next starts, so an inline run buffers no shard
        outputs.
        """
        config = self.config
        workers = min(self.jobs, len(shards))
        # index -> pickled bytes | ShardOutput (inline) | _LOST
        ready: dict[int, object] = {}
        attempts = [0] * len(shards)
        settled = [False] * len(shards)
        settled_count = 0
        settled_weight = 0.0
        next_fold = 0

        def settle(index: int, item: object) -> None:
            nonlocal settled_count, settled_weight
            ready[index] = item
            settled[index] = True
            settled_count += 1
            settled_weight += shards[index].weight

        def fold_ready() -> None:
            nonlocal next_fold
            while next_fold < len(shards) and next_fold in ready:
                item = ready.pop(next_fold)
                if item is _LOST:
                    merger.fold_lost(shards[next_fold].scope,
                                     at=shards[next_fold].end_unix)
                elif isinstance(item, bytes):
                    merger.fold(unpack_shard_output(item))
                else:
                    merger.fold(item)
                next_fold += 1

        if workers > 1:
            submit_order = sorted(range(len(shards)),
                                  key=lambda i: (-shards[i].weight, i))
            timeout = heartbeat.interval if heartbeat.enabled else None
            try:
                with futures.ProcessPoolExecutor(
                        max_workers=workers,
                        mp_context=_pool_context(),
                        initializer=_warm_worker,
                        initargs=(config,)) as pool:
                    pending = {
                        pool.submit(_run_shard_job, config, shards[index],
                                    0): (index, 0)
                        for index in submit_order}
                    while pending:
                        done, _ = wait(pending, timeout=timeout,
                                       return_when=FIRST_COMPLETED)
                        running = min(len(pending), workers)
                        heartbeat.pulse(settled_count, settled_weight,
                                        running=running,
                                        queued=len(pending) - running,
                                        merge_buffer=len(ready))
                        for future in done:
                            index, attempt = pending.pop(future)
                            try:
                                settle(index, future.result())
                            except ShardCrashError:
                                if attempt < self.shard_retries:
                                    attempts[index] = attempt + 1
                                    retry = pool.submit(
                                        _run_shard_job, config,
                                        shards[index], attempt + 1)
                                    pending[retry] = (index, attempt + 1)
                                else:
                                    settle(index, _LOST)
                        fold_ready()
            except BrokenExecutor:
                # The pool died under us (a worker was killed hard).  The
                # inline loop finishes the unsettled shards — slower,
                # never wrong.
                pass
        for index, shard in enumerate(shards):
            if settled[index]:
                continue
            heartbeat.pulse(settled_count, settled_weight, running=1,
                            queued=len(shards) - settled_count - 1,
                            merge_buffer=len(ready))
            output = _run_recovering(config, shard, world,
                                     self.shard_retries,
                                     first_attempt=attempts[index])
            settle(index, _LOST if output is None else output)
            fold_ready()
        heartbeat.pulse(settled_count, settled_weight, force=True)


#: The runner's public name; ``jobs=1`` takes the inline loop with no pool.
ExperimentRunner = ParallelExperimentRunner
