"""End-to-end experiment execution.

Builds the world, runs every flight period through the full pipeline —
browsing → ad server → beacon script → WebSocket client → collector —
then applies the vendor's post-hoc fraud refunds, produces the vendor
reports, enriches + anonymises the collected dataset and assembles the
:class:`~repro.audit.dataset.AuditDataset` the audits consume.

Execution is structured as a *shard pipeline*: the experiment is split
into independent shards — one per (flight period, country, population
slice) — each simulated with its own scoped RNG streams, ad server and
collector, and the per-shard outputs are merged deterministically into
one :class:`ExperimentResult`.  This module holds the shard plan, the
shard simulation and the merge; the runner
(:mod:`repro.experiments.parallel`) executes the plan in-process or
across worker processes.  Every shard runs the same code and the merge
folds in canonical plan order, so outputs are byte-for-byte equal at the
same seed for any worker count — the determinism contract the
equivalence tests enforce.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.adnetwork.conversions import ConversionEvent, ConversionSimulator
from repro.adnetwork.inventory import ExternalDemand
from repro.adnetwork.matching import MatchEngine
from repro.adnetwork.reporting import (
    ReportAggregate,
    VendorReport,
    VendorReporter,
    merge_aggregates,
)
from repro.adnetwork.server import AdServer, NetworkPolicy
from repro.audit.coverage import CoverageCounts, ExperimentCoverage
from repro.audit.dataset import AuditDataset
from repro.beacon.client import BeaconClient
from repro.beacon.script import BeaconScript
from repro.collector.enrich import Enricher
from repro.collector.server import CollectorServer
from repro.collector.store import ImpressionStore
from repro.experiments.config import ExperimentConfig, PeriodPlan
from repro.faults.inject import FaultInjector
from repro.faults.plan import ShardCrashError
from repro.faults.quarantine import QuarantineEntry
from repro.geo.denylist import DenyList
from repro.geo.ipdb import GeoIpDatabase
from repro.geo.providers import ProviderRegistry
from repro.geo.resolver import DataCenterResolver
from repro.net.transport import SimulatedNetwork
from repro.obs.events import (
    DEFAULT_SHARD_EVENT_CAPACITY,
    Event,
    EventLog,
)
from repro.obs.memwatch import MemoryWatch, current_rss_bytes
from repro.obs.metrics import (
    WALL,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.timing import wall_timer
from repro.obs.trace import FlightRecorder, TraceArchive, Tracer
from repro.taxonomy.lexicon import Lexicon, build_default_lexicon
from repro.util.rng import RngFactory
from repro.util.simclock import SimClock
from repro.web.bots import BotFleet
from repro.web.browsing import BrowsingSimulator
from repro.web.population import PublisherUniverse, UniverseConfig
from repro.web.users import PopulationConfig, UserPopulation

_SECONDS_PER_DAY = 86_400.0


@dataclass
class ExperimentResult:
    """Everything a table/figure generator or test may want to inspect."""

    config: ExperimentConfig
    dataset: AuditDataset
    universe: PublisherUniverse
    registry: ProviderRegistry
    stats: dict[str, int] = field(default_factory=dict)
    #: First-party conversion log (the paper's future-work analysis),
    #: anonymised with the same salt as the impression dataset.
    conversions: list[ConversionEvent] = field(default_factory=list)
    #: Canonical merge of the per-shard metrics snapshots.  The sim-domain
    #: portion is a pure function of (config, seed) — identical between
    #: serial and parallel runs; the wall-domain portion carries
    #: host timings and is excluded from the determinism contract.
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    #: Canonical merge of the per-shard flight recorders: one trace per
    #: retained impression, with impression/record ids rewritten to the
    #: merged numbering and ``enrich.geo`` joined from the store.
    #: ``python -m repro explain`` and the ``--trace-json`` export read
    #: from here.
    recorder: TraceArchive = field(default_factory=TraceArchive)
    #: Measurement-loss ledger: every ground-truth delivery classified as
    #: observed / quarantined / lost, reconciling exactly (see
    #: :mod:`repro.audit.coverage`).  Tracked unconditionally; the
    #: quarantine forensics and lost-shard list are only populated under
    #: an active fault plan.
    coverage: ExperimentCoverage = field(default_factory=ExperimentCoverage)
    #: The run's structured event log (see :mod:`repro.obs.events`): the
    #: sim channel is merged in canonical plan order and byte-identical
    #: between serial and parallel runs; the wall channel carries the
    #: runner's heartbeats and is excluded from that contract.
    events: EventLog = field(default_factory=EventLog)

    def delivered(self, campaign_id: str) -> int:
        """Ground-truth impressions the network delivered for a campaign."""
        cell = self.coverage.counts.by_campaign().get(campaign_id)
        return cell.delivered if cell is not None else 0

    def logged(self, campaign_id: str) -> int:
        """Impressions our methodology managed to log for a campaign."""
        return self.dataset.record_count(campaign_id)


# ---------------------------------------------------------------------- #
# the shared world
# ---------------------------------------------------------------------- #


@dataclass
class World:
    """The config-deterministic environment every shard simulates in.

    Publishers, providers, the human population and the IP intelligence
    stack are functions of (seed, scale, sizing knobs) alone, so one
    world instance is shared by every shard — in a pooled run it
    is built once per worker process (and inherited copy-on-write on
    platforms that fork).
    """

    lexicon: Lexicon
    universe: PublisherUniverse
    registry: ProviderRegistry
    population: UserPopulation
    ipdb: GeoIpDatabase
    resolver: DataCenterResolver

    @property
    def tree(self):
        return self.lexicon.tree


def build_world(config: ExperimentConfig) -> World:
    """Build the shared world for *config* (deterministic in its seed)."""
    rngs = RngFactory(config.seed)
    lexicon = build_default_lexicon()
    universe = PublisherUniverse(
        rngs.stream("publishers"),
        UniverseConfig(
            publisher_count=config.scaled_publisher_count,
            script_blocking_fraction=config.script_blocking_fraction),
        lexicon=lexicon)
    registry = ProviderRegistry(rngs.stream("providers"))
    population = UserPopulation(
        rngs.stream("users"), registry, lexicon.tree,
        config=PopulationConfig(
            users_per_country=config.scaled_users_per_country))
    ipdb = GeoIpDatabase(registry)
    denylist = DenyList.from_registry(registry)
    resolver = DataCenterResolver(ipdb, denylist)
    return World(lexicon=lexicon, universe=universe, registry=registry,
                 population=population, ipdb=ipdb, resolver=resolver)


# ---------------------------------------------------------------------- #
# shard planning
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ShardSpec:
    """One independent unit of simulation work.

    A shard covers one flight period, one country, and one of the
    config's ``shard_slices`` population slices (humans and bots are
    partitioned by their position in the deterministic population order,
    position ``i`` landing in slice ``i % slice_count``).  The shard plan
    is a pure function of the config — never of the worker count — so
    results cannot depend on how the shards are scheduled.
    """

    period_name: str
    country: str
    slice_index: int
    slice_count: int
    start_unix: float
    end_unix: float
    #: Rough simulated-pageview cost estimate; scheduling hint only.
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.slice_index < self.slice_count:
            raise ValueError("slice_index must be within [0, slice_count)")
        if self.end_unix <= self.start_unix:
            raise ValueError("shard window must have positive duration")

    @property
    def scope(self) -> str:
        """The RNG-stream scope suffix identifying this shard."""
        return f"{self.period_name}/{self.country}/{self.slice_index}"


def _period_countries(period: PeriodPlan) -> list[str]:
    """Active countries of a period, deduplicated in declaration order.

    Fleet-only countries (a bot operator active where no humans are
    declared) are appended so their traffic is never dropped.
    """
    countries = list(dict.fromkeys(period.countries))
    for country, _ in period.fleets:
        if country not in countries:
            countries.append(country)
    return countries


def _shard_weight(config: ExperimentConfig, period: PeriodPlan,
                  country: str) -> float:
    """Expected pageviews of one (period, country) before slicing."""
    days = (period.end_unix - period.start_unix) / _SECONDS_PER_DAY
    human_views = config.scaled_users_per_country * 18.0
    bot_views = 0.0
    for fleet_country, bot_config in period.fleets:
        if fleet_country != country:
            continue
        bots = bot_config.bots_per_fleet * bot_config.fleet_count
        bot_views += bots * (bot_config.daily_pageviews_min
                             + bot_config.daily_pageviews_max) / 2.0
    return days * (human_views + bot_views)


def plan_shards(config: ExperimentConfig) -> list[ShardSpec]:
    """The canonical shard plan: every merge consumes shards in this order."""
    shards: list[ShardSpec] = []
    for period in sorted(config.periods, key=lambda p: (p.start_unix, p.name)):
        for country in _period_countries(period):
            weight = _shard_weight(config, period, country)
            for slice_index in range(config.shard_slices):
                shards.append(ShardSpec(
                    period_name=period.name,
                    country=country,
                    slice_index=slice_index,
                    slice_count=config.shard_slices,
                    start_unix=period.start_unix,
                    end_unix=period.end_unix,
                    weight=weight / config.shard_slices,
                ))
    return shards


def _period_by_name(config: ExperimentConfig, name: str) -> PeriodPlan:
    for period in config.periods:
        if period.name == name:
            return period
    raise KeyError(f"unknown period: {name!r}")


def _budget_divisor(config: ExperimentConfig, spec) -> int:
    """How many shards a campaign's daily budget is split across.

    Pacing is budget-proportional, so giving each shard ``budget / N``
    preserves a campaign's total delivery when its traffic is spread over
    N concurrent shards: the slice count times the largest number of
    targeted countries simultaneously active in any overlapping period.
    """
    concurrent = 1
    for period in config.periods:
        if period.end_unix <= spec.start_unix \
                or period.start_unix >= spec.end_unix:
            continue
        targeted = sum(1 for country in _period_countries(period)
                       if spec.targets_country(country))
        concurrent = max(concurrent, targeted)
    return concurrent * config.shard_slices


# ---------------------------------------------------------------------- #
# shard execution
# ---------------------------------------------------------------------- #


@dataclass
class ShardOutput:
    """Everything a shard contributes to the merged experiment.

    Every field pickles, so a pooled worker ships the whole output as one
    pickle (:func:`repro.experiments.parallel.pack_shard_output`).  The
    impression store travels as its raw-column payload
    (:meth:`ImpressionStore.export_columns`), which the merge folds into
    the merged store without re-parsing; vendor-report state travels as
    per-campaign aggregates, deliveries as coverage-ledger counts.
    """

    shard: ShardSpec
    store_columns: tuple
    conversions: list[ConversionEvent]
    #: Campaign id → (charged, refunded) EUR: the pacer's spend total and
    #: the billing ledger's refund total, for every campaign.
    billing: dict[str, tuple[float, float]]
    report_aggregates: dict[str, ReportAggregate]
    #: The shard flight recorder's retained traces as one segment
    #: (:meth:`FlightRecorder.seal`), with shard-local ids.
    traces: tuple
    #: Immutable snapshot of the shard's private metrics registry, the
    #: only carrier of its counts; the merge absorbs these in canonical
    #: plan order, like the report aggregates, so serial and parallel runs
    #: agree field-for-field on every sim-domain metric.
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    #: Per-(publisher, campaign) delivery/loss accounting for this shard.
    coverage: CoverageCounts = field(default_factory=CoverageCounts)
    #: Quarantined-frame forensics from the shard collector (bounded).
    quarantine: tuple[QuarantineEntry, ...] = ()
    quarantine_dropped: int = 0
    #: The shard's sim-domain event journal (bounded per shard), in
    #: emission order with shard-local sequence numbers; the merge
    #: absorbs these in canonical plan order and renumbers.
    events: tuple[Event, ...] = ()
    events_dropped: int = 0


def run_shard(config: ExperimentConfig, shard: ShardSpec,
              world: World, attempt: int = 0) -> ShardOutput:
    """Simulate one shard end to end.

    Every stochastic component draws from streams scoped to the shard
    (``{kind}/{period}/{country}/{slice}``), so a shard's output depends
    only on (config, shard) — never on which other shards ran, in what
    order, or in which process.  The one deliberately *unscoped* stream
    is the bot-fleet builder: every slice of a (period, country) rebuilds
    the identical fleet roster from ``bots/{period}/{country}`` and then
    keeps only its own slice of the bots, mirroring how humans are
    partitioned out of the shared population.

    *attempt* is the crash-recovery re-execution counter.  It feeds only
    the fault plan's injected-crash decision — never any RNG stream — so
    a successful re-execution is byte-identical to a first-try success.
    """
    if config.faults.should_crash(shard.scope, attempt):
        raise ShardCrashError(
            f"injected crash in shard {shard.scope} (attempt {attempt})")
    rngs = RngFactory(config.seed)
    scope = shard.scope
    period = _period_by_name(config, shard.period_name)
    metrics = MetricsRegistry()
    shard_timer = wall_timer(metrics, "shard.wall_seconds")

    recorder = FlightRecorder()
    tracer = Tracer(recorder, seed=config.seed, scope=scope)
    # The shard's sim-domain event journal.  Emission is unconditional —
    # it draws no RNG and touches no metric, so collecting it cannot
    # perturb any simulated byte; exports only happen on request.
    events = EventLog(scope=scope, capacity=DEFAULT_SHARD_EVENT_CAPACITY)
    memwatch = MemoryWatch(registry=metrics)
    events.emit("shard.started", at=shard.start_unix, attempt=attempt)
    if attempt > 0:
        # A successful re-execution after injected crashes: emitted here,
        # inside the attempt that succeeded, so the event stream is a
        # function of the fault plan alone — identical serial or pooled.
        events.emit("shard.recovered", at=shard.start_unix,
                    attempts_burned=attempt)

    campaigns = [replace(plan.spec,
                         daily_budget_eur=plan.spec.daily_budget_eur
                         / _budget_divisor(config, plan.spec))
                 for plan in config.campaigns]
    server = AdServer(campaigns, MatchEngine(world.lexicon),
                      ExternalDemand(), world.ipdb, policy=NetworkPolicy(),
                      metrics=metrics, tracer=tracer)

    # The injector (and its dedicated RNG stream) exists only under an
    # active plan: fault-free runs draw from exactly the historical
    # streams and register exactly the historical metrics.
    injector = None
    if config.faults.active:
        injector = FaultInjector(config.faults,
                                 rngs.stream(f"faults/{scope}"),
                                 metrics=metrics, tracer=tracer,
                                 events=events)

    clock = SimClock(shard.start_unix)
    network = SimulatedNetwork(clock, rngs.stream(f"network/{scope}"),
                               tracer=tracer, injector=injector)
    store = ImpressionStore(metrics=metrics, tracer=tracer)
    collector = CollectorServer(store, metrics=metrics, tracer=tracer,
                                injector=injector, events=events)
    collector.attach(network)
    beacon_client = BeaconClient(network, collector, clock,
                                 rngs.stream(f"beacon-net/{scope}"),
                                 tracer=tracer, injector=injector,
                                 events=events)
    script = BeaconScript()
    browsing = BrowsingSimulator(world.universe, world.tree)

    serve_rng = rngs.stream(f"serving/{scope}")
    script_rng = rngs.stream(f"script/{scope}")
    conversion_sim = ConversionSimulator()
    conversion_rng = rngs.stream(f"conversions/{scope}")

    fleet_bots = []
    for fleet_country, bot_config in period.fleets:
        if fleet_country != shard.country:
            continue
        fleet = BotFleet(rngs.stream(f"bots/{shard.period_name}/{shard.country}"),
                         world.registry, countries=(shard.country,),
                         config=bot_config)
        fleet_bots.extend(fleet.bots)
    bots = [bot for index, bot in enumerate(fleet_bots)
            if index % shard.slice_count == shard.slice_index]
    humans = [device for index, device
              in enumerate(world.population.in_country(shard.country))
              if index % shard.slice_count == shard.slice_index]

    conversions: list[ConversionEvent] = []
    coverage = CoverageCounts()
    stream = browsing.stream(humans, bots, shard.start_unix, shard.end_unix,
                             rngs.stream(f"browse/{scope}"))
    with shard_timer.measure(), memwatch.stage("simulate"):
        for pageview in stream:
            tracer.start("impression", at=pageview.timestamp,
                         publisher=pageview.publisher.domain,
                         country=pageview.country, bot=pageview.is_bot)
            impression = server.serve(pageview, serve_rng)
            if impression is None:
                tracer.abandon()
                continue
            domain = pageview.publisher.domain
            campaign_id = impression.campaign.campaign_id
            coverage.record_delivered(domain, campaign_id)
            observation = script.observe(impression, script_rng)
            if observation is None:
                # Delivered but never reported: the publisher or browser
                # blocked the beacon script.  The trace still commits —
                # these are exactly the impressions the audit dataset is
                # missing, so their provenance matters most.
                coverage.record_lost(domain, campaign_id, "script_blocked")
                tracer.event("beacon.blocked", at=pageview.timestamp)
                tracer.commit()
                continue
            delivery = beacon_client.deliver(impression, observation)
            coverage.record_delivery(domain, campaign_id, delivery)
            tracer.commit()
            conversion = conversion_sim.simulate(
                impression, observation.clicks, conversion_rng)
            if conversion is not None:
                conversions.append(conversion)

    # Post-flight: the counts kept by components without a registry
    # (trace.dropped: committed traces evicted by the head/tail retention
    # bound; beacon.blocked_*: delivered impressions whose publisher or
    # browser blocked the beacon), the vendor's silent fraud clawback on
    # this shard's deliveries, then the mergeable report projections.
    for name, value in (
            ("trace.committed", recorder.committed),
            ("trace.dropped", recorder.dropped),
            ("beacon.blocked_publisher", script.blocked_by_publisher),
            ("beacon.blocked_browser", script.blocked_by_browser),
            ("net.connect_failures", network.failed_connects),
            ("conversions.clicks", conversion_sim.clicks_seen),
            ("conversions.converted", conversion_sim.conversions)):
        metrics.counter(name).inc(value)

    server.billing.apply_fraud_refunds(server.impressions,
                                       rngs.stream(f"refunds/{scope}"))
    refunded = server.billing.refunded
    reporter = VendorReporter()
    aggregates = {
        plan.spec.campaign_id: reporter.aggregate(
            plan.spec.campaign_id,
            server.impressions_for(plan.spec.campaign_id))
        for plan in config.campaigns
    }
    return ShardOutput(
        shard=shard,
        store_columns=store.export_columns(),
        conversions=conversions,
        billing={campaign_id: (charged, refunded.get(campaign_id, 0.0))
                 for campaign_id, charged
                 in server.pacer.total_spend.items()},
        report_aggregates=aggregates,
        metrics=metrics.snapshot(),
        traces=recorder.seal(),
        coverage=coverage,
        quarantine=collector.quarantine.entries(),
        quarantine_dropped=collector.quarantine.dropped,
        events=events.events(),
        events_dropped=events.dropped,
    )


# ---------------------------------------------------------------------- #
# run telemetry
# ---------------------------------------------------------------------- #


class HeartbeatEmitter:
    """Emits wall-domain ``runner.heartbeat`` events on a min interval.

    Inert unless both an event log and an interval are configured, so a
    default run pays nothing — no clock reads, no RSS sampling.  The
    ETA is weight-based: elapsed wall time scaled by the remaining
    fraction of the plan's total shard weight.
    """

    def __init__(self, events: EventLog | None, interval: float | None,
                 shards: list[ShardSpec], jobs: int = 1) -> None:
        self.events = events
        self.interval = interval
        self.jobs = max(1, jobs)
        self.total = len(shards)
        self.total_weight = sum(shard.weight for shard in shards)
        self._started = time.perf_counter()
        self._last = float("-inf")

    @property
    def enabled(self) -> bool:
        return self.events is not None and self.interval is not None

    def pulse(self, done: int, done_weight: float, running: int = 0,
              queued: int = 0, merge_buffer: int = 0,
              force: bool = False) -> None:
        if not self.enabled:
            return
        now = time.perf_counter()
        if not force and now - self._last < self.interval:
            return
        self._last = now
        elapsed = now - self._started
        attrs = {
            "shards_done": done,
            "shards_total": self.total,
            "running": running,
            "queued": queued,
            "merge_buffer": merge_buffer,
            "rss_bytes": current_rss_bytes(),
            "elapsed_seconds": elapsed,
            "utilization": running / self.jobs,
        }
        if done >= self.total:
            attrs["eta_seconds"] = 0.0
        elif done_weight > 0 and self.total_weight > done_weight:
            attrs["eta_seconds"] = (elapsed / done_weight
                                    * (self.total_weight - done_weight))
        self.events.emit("runner.heartbeat", at=elapsed, domain=WALL,
                         **attrs)


# ---------------------------------------------------------------------- #
# deterministic merge
# ---------------------------------------------------------------------- #


#: Each ``ExperimentResult.stats`` entry read from the merged sim counters,
#: in stats order; ``delivered`` (the coverage ledger), ``logged`` (the
#: merged store) and ``lost_shards`` are filled in around them.
_STAT_COUNTERS = {
    "pageviews": "adserver.pageviews",
    "prefiltered": "adserver.prefiltered",
    "script_blocked_publisher": "beacon.blocked_publisher",
    "script_blocked_browser": "beacon.blocked_browser",
    "connect_failures": "net.connect_failures",
    "clicks": "conversions.clicks",
    "conversions": "conversions.converted",
}


class ShardMerger:
    """Incremental canonical-order fold of shard outputs into one result.

    The runner merges through this class.  :meth:`fold` absorbs one
    output (which can then be garbage-collected, so no run holds every
    :class:`ShardOutput` alive at once) and :meth:`result` finalises.
    Every order-sensitive reduction — record re-identification, the trace
    segments' id offsets, float sums of charges/refunds, conversion
    concatenation — happens inside :meth:`fold`, so outputs MUST be folded
    in the order :func:`plan_shards` produced; that order is what makes
    serial and pooled runs byte-identical.

    :meth:`fold_lost` records a shard that exhausted crash recovery at
    its canonical position; its contributions are simply absent and the
    scope is surfaced in the coverage report so the degradation is
    visible, never silent.
    """

    def __init__(self, config: ExperimentConfig, world: World,
                 events: EventLog | None = None,
                 memwatch: MemoryWatch | None = None) -> None:
        self.config = config
        self.world = world
        # The merge-side event log absorbs each shard's journal in fold
        # order (renumbering seq), then appends the merge's own events —
        # same canonical-order contract as metrics and traces.
        self._events = events if events is not None else EventLog()
        self._memwatch = memwatch if memwatch is not None else MemoryWatch()
        self._by_id = {plan.spec.campaign_id: plan.spec
                       for plan in config.campaigns}
        # Merged charged/refunded EUR per campaign.  Each sum starts from
        # int 0 and adds only the shards that charged (or refunded), so a
        # campaign no shard refunded reports 0, as the exports print it.
        self._charged: dict[str, float] = {}
        self._refunded: dict[str, float] = {}
        self._store = ImpressionStore()
        self._recorder = TraceArchive()
        self._impression_offset = 0
        self._record_offset = 0
        # One registry absorbing every snapshot in fold order reproduces
        # merge_snapshots() field for field.
        self._metrics = MetricsRegistry()
        self._aggregates: dict[str, ReportAggregate] = {}
        self._raw_conversions: list[ConversionEvent] = []
        self._coverage_counts = CoverageCounts()
        self._quarantine: list[QuarantineEntry] = []
        self._quarantine_dropped = 0
        self._lost: list[str] = []
        self._finalized = False

    def fold(self, output: ShardOutput) -> None:
        """Absorb one shard output (must arrive in canonical plan order)."""
        if self._finalized:
            raise RuntimeError("cannot fold into a finalized merge")
        delivered = sum(cell.delivered
                        for cell in output.coverage.cells.values())
        records = int(output.metrics.counter_value(
            "collector.records_committed"))
        with self._memwatch.stage("merge"):
            self._fold(output, delivered, records)
        self._events.absorb(output.events, dropped=output.events_dropped)
        self._events.emit("shard.merged", at=output.shard.end_unix,
                          scope=output.shard.scope,
                          pageviews=int(output.metrics.counter_value(
                              "adserver.pageviews")),
                          delivered=delivered,
                          records=records)

    def _fold(self, output: ShardOutput, delivered: int,
              records: int) -> None:
        for campaign_id, (charged, refunded) in output.billing.items():
            if charged > 0:
                self._charged[campaign_id] = \
                    self._charged.get(campaign_id, 0) + charged
            if refunded > 0:
                self._refunded[campaign_id] = \
                    self._refunded.get(campaign_id, 0) + refunded
        for campaign_id, aggregate in output.report_aggregates.items():
            seen = self._aggregates.get(campaign_id)
            self._aggregates[campaign_id] = aggregate if seen is None \
                else merge_aggregates([seen, aggregate], campaign_id)
        self._store.absorb_columns(output.store_columns)
        # Kept whole; reads shift its ids by the deliveries and records of
        # the shards before it, so merged traces carry the auditor's ids.
        self._recorder.absorb(output.traces, self._impression_offset,
                              self._record_offset)
        self._impression_offset += delivered
        self._record_offset += records
        self._metrics.absorb(output.metrics)
        self._raw_conversions.extend(output.conversions)
        # Coverage folds in canonical order too; quarantine entries get
        # their shard scope stamped in so forensics survive the merge.
        self._coverage_counts.absorb(output.coverage)
        self._quarantine.extend(replace(entry, shard=output.shard.scope)
                                for entry in output.quarantine)
        self._quarantine_dropped += output.quarantine_dropped

    def fold_lost(self, scope: str, at: float = 0.0) -> None:
        """Record a shard lost to crash recovery, at its canonical slot."""
        if self._finalized:
            raise RuntimeError("cannot fold into a finalized merge")
        self._lost.append(scope)
        self._events.emit("shard.lost", at=at, scope=scope)

    def result(self) -> ExperimentResult:
        """Finalise: enrich, seal, and assemble the experiment result."""
        self._finalized = True
        config, world = self.config, self.world
        store = self._store

        reporter = VendorReporter()
        vendor_reports: dict[str, VendorReport] = {}
        for campaign_id in self._by_id:
            vendor_reports[campaign_id] = reporter.build(
                self._aggregates[campaign_id],
                charged_eur=self._charged.get(campaign_id, 0),
                refunded_eur=self._refunded.get(campaign_id, 0))

        enricher = Enricher(world.ipdb, world.resolver,
                            world.universe.ranking)
        with self._memwatch.stage("enrich"):
            enricher.enrich_store(store)
        conversions = [event.anonymized(enricher.salt)
                       for event in self._raw_conversions]
        # Sealed: every consumer of a shared result sees the same dataset.
        store.seal()
        self._recorder.join_store(store)

        lost = tuple(self._lost)
        coverage = ExperimentCoverage(counts=self._coverage_counts,
                                      quarantine=tuple(self._quarantine),
                                      quarantine_dropped=self._quarantine_dropped,
                                      lost_shards=lost)
        totals = self._coverage_counts.totals()
        reconciled_at = max((period.end_unix for period in config.periods),
                            default=0.0)
        self._events.emit("coverage.reconciled", at=reconciled_at,
                          delivered=totals.delivered,
                          observed=totals.observed,
                          unique=totals.unique,
                          duplicates=totals.duplicates,
                          quarantined=totals.quarantined,
                          lost=totals.lost,
                          reconciles=totals.reconciles,
                          lost_shards=len(lost))
        # Watermarks ride wall-domain gauges so the metrics absorb/merge
        # machinery (gauges max-merge) gives watermark semantics for free.
        self._memwatch.record_to(self._metrics)
        # The merge-phase store above runs on a *private* registry whose
        # bookkeeping is an artefact of merging, not of simulation — only
        # the shard snapshots, folded in canonical plan order, make up
        # these metrics.
        metrics = self._metrics.snapshot()
        counts = {stat: int(metrics.counter_value(name))
                  for stat, name in _STAT_COUNTERS.items()}
        dataset = AuditDataset(
            store=store,
            campaigns=dict(self._by_id),
            vendor_reports=vendor_reports,
            directory={publisher.domain: publisher
                       for publisher in world.universe.publishers},
            lexicon=world.lexicon,
            ranking=world.universe.ranking,
        )
        return ExperimentResult(
            config=config,
            dataset=dataset,
            universe=world.universe,
            registry=world.registry,
            conversions=conversions,
            metrics=metrics,
            recorder=self._recorder,
            coverage=coverage,
            events=self._events,
            stats={
                "pageviews": counts.pop("pageviews"),
                "delivered": totals.delivered,
                "logged": len(store),
                **counts,
                # Present only when fault handling is in play so
                # fault-free stats stay byte-identical to the historical
                # output.
                **({"lost_shards": len(lost)}
                   if (config.faults.active or lost) else {}),
            },
        )
