"""The perf benchmark's workloads and the process that runs their ops.

``run.py`` starts one process per timed operation ("op") so that every
op pays its own interpreter start, imports and set-up, and so that peak
RSS and CPU time belong to that op alone::

    PYTHONPATH=src python3 benchmarks/perf/ops.py '<json spec>'

The process prints one JSON line: set-up time, per-op wall and CPU
times, work counts, SHA-256 digests of every output, and, for a traced
process, the per-layer metrics of :mod:`layers`.  It reaches the program
only through its public pipeline API.  Nothing from ``repro`` is
imported at module level: those imports are part of the measured set-up.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import resource
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

#: Default experiment seed (the paper's year, as in ``python -m repro``).
DEFAULT_SEED = 2016


@dataclass(frozen=True)
class Workload:
    """One benchmark input: an experiment and what one op does with it."""

    name: str
    scale: float
    jobs: int
    faults: str
    #: Simulating workloads run the whole pipeline per op; the replay
    #: workload audits a dataset a ``paper_serial`` op dumped.
    simulates: bool


#: Why each workload exists is in README.md and BENCHMARK.json.  All use
#: one scale so that their outputs can be compared byte for byte.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("paper_serial", 0.01, 1, "none", True),
    Workload("paper_jobs2", 0.01, 2, "none", True),
    Workload("paper_hostile", 0.01, 1, "hostile", True),
    Workload("audit_replay", 0.01, 1, "none", False),
)}

#: Outputs an audit pass renders (the replay workload produces these
#: only; simulating ops add the dataset dump).
AUDIT_OUTPUTS = ("audit_text", "tables", "funnel", "figures",
                 "audit_json", "audit_csv")

DATASET_FILE = "dataset.jsonl"
SIDE_FILE = "side.pickle"


def _rusage_cpu() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib(who=resource.RUSAGE_SELF) -> float:
    # ru_maxrss is KiB on Linux and bytes on macOS.
    scale = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(who).ru_maxrss * scale / (1 << 20)


def _sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Pipeline:
    """The program's public API, imported inside the measured set-up.

    Every call goes through a module attribute at call time, so the
    wrappers :mod:`layers` installs for a traced op are the ones called.
    """

    def __init__(self) -> None:
        import repro.audit
        import repro.audit.coverage
        import repro.audit.export
        import repro.collector.store
        import repro.experiments.config
        import repro.experiments.figures
        import repro.experiments.parallel
        import repro.experiments.runner
        import repro.experiments.tables
        import repro.faults.plan

        self.audit = repro.audit
        self.coverage = repro.audit.coverage
        self.export = repro.audit.export
        self.store = repro.collector.store
        self.config = repro.experiments.config
        self.figures = repro.experiments.figures
        self.parallel = repro.experiments.parallel
        self.runner = repro.experiments.runner
        self.tables = repro.experiments.tables
        self.faults = repro.faults.plan

    def experiment(self, workload: Workload, seed: int, scale: float):
        return self.config.paper_experiment(
            seed=seed, scale=scale,
            faults=self.faults.FaultPlan.resolve(workload.faults))

    def render_all(self, result, with_coverage: bool = False) -> dict:
        """Audit and render everything the CLI prints or writes."""
        report = self.audit.full_audit(result.dataset)
        tables, figures = self.tables, self.figures
        outputs = {
            "audit_text": report.render(),
            "tables": "\n\n".join(render(result) for render in (
                tables.render_table1, tables.render_table2,
                tables.render_table3, tables.render_table4)),
            "funnel": tables.render_conversion_funnel(result),
            "figures": "\n\n".join((
                figures.figure1(result).render(),
                figures.figure2(result).render(),
                figures.figure3(result).render())),
            "audit_json": self.export.report_to_json(report),
            "audit_csv": self.export.report_to_csv(report),
        }
        if with_coverage:
            outputs["coverage"] = self.coverage.render_coverage(
                result.coverage)
        return outputs


def _write_outputs(outdir: Path, outputs: dict) -> None:
    for name, text in outputs.items():
        (outdir / f"{name}.txt").write_text(text, encoding="utf-8")


def simulate_op(api: Pipeline, workload: Workload, config, outdir: Path):
    """One simulating op: the whole ``python -m repro`` job."""
    result = api.parallel.ParallelExperimentRunner(
        config, jobs=workload.jobs).run()
    outputs = api.render_all(result, with_coverage=config.faults.active)
    stats = result.stats
    outputs["stats"] = (f"pageviews={stats['pageviews']} "
                        f"delivered={stats['delivered']} "
                        f"logged={stats['logged']}")
    _write_outputs(outdir, outputs)
    result.dataset.store.dump_jsonl(outdir / DATASET_FILE)
    return result, outputs


def replay_op(api: Pipeline, world, side: dict, dataset: Path):
    """One auditor pass over a dumped dataset: load, seal, audit, render."""
    store = api.store.ImpressionStore.load_jsonl(dataset)
    store.seal()
    audit_dataset = api.audit.AuditDataset(
        store=store,
        campaigns=side["campaigns"],
        vendor_reports=side["vendor_reports"],
        directory={publisher.domain: publisher
                   for publisher in world.universe.publishers},
        lexicon=world.lexicon,
        ranking=world.universe.ranking)
    replayed = SimpleNamespace(dataset=audit_dataset,
                               conversions=side["conversions"])
    return api.render_all(replayed)


def _store_bytes_per_record(api: Pipeline, dataset: Path) -> float:
    """Python heap held by one loaded and sealed store, per record."""
    tracemalloc.start()
    try:
        store = api.store.ImpressionStore.load_jsonl(dataset).seal()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held / max(1, len(store))


def run_process(spec: dict) -> dict:
    """Set up, run the ops *spec* asks for, and report on them."""
    workload = WORKLOADS[spec["workload"]]
    api = Pipeline()
    config = api.experiment(workload, spec["seed"], spec["scale"])
    outdir = Path(spec["outdir"])
    side = world = None
    if not workload.simulates:
        dataset = Path(spec["dataset"])
        world = api.runner.build_world(config)
        with open(dataset.parent / SIDE_FILE, "rb") as handle:
            side = pickle.load(handle)
    base_rss = _peak_rss_mib()
    if not workload.simulates:
        replay_op(api, world, side, dataset)            # untimed warm-up
    setup_s = time.monotonic() - spec["spawned_at"]

    recorder = installation = None
    if spec["trace"]:
        import layers   # only traced processes pay for its imports

        recorder = layers.Recorder()
        installation = layers.install(recorder)

    walls, cpus = [], []
    deadline = time.monotonic() + spec.get("pass_seconds", 0.0)
    while True:
        cpu0, start = _rusage_cpu(), time.monotonic()
        if workload.simulates:
            op = (lambda: simulate_op(api, workload, config, outdir))
            result, outputs = recorder.root(op) if recorder else op()
        else:
            op = (lambda: replay_op(api, world, side, dataset))
            outputs = recorder.root(op) if recorder else op()
        end = time.monotonic()
        walls.append(end - start)
        cpus.append(_rusage_cpu() - cpu0)
        if workload.simulates or (len(walls) >= spec.get("min_passes", 1)
                                  and end >= deadline):
            break

    digests = {name: _sha256(text) for name, text in outputs.items()}
    report = {"setup_s": setup_s, "walls": walls, "cpus": cpus,
              "base_rss_mib": base_rss, "peak_rss_mib": _peak_rss_mib()}
    if workload.simulates:
        digests["jsonl"] = _file_sha256(outdir / DATASET_FILE)
        stats = result.stats
        counts = {"pageviews": stats["pageviews"],
                  "impressions": stats["delivered"],
                  "records": stats["logged"]}
        report["reconciles"] = result.coverage.counts.reconciles
        if spec.get("keep_dataset"):
            side_inputs = {"campaigns": dict(result.dataset.campaigns),
                           "vendor_reports": dict(
                               result.dataset.vendor_reports),
                           "conversions": list(result.conversions),
                           **counts}
            with open(outdir / SIDE_FILE, "wb") as handle:
                pickle.dump(side_inputs, handle, pickle.HIGHEST_PROTOCOL)
    else:
        counts = {name: side[name]
                  for name in ("pageviews", "impressions", "records")}
    report["counts"] = counts
    report["digests"] = digests

    if installation is not None:
        installation.uninstall()
        layer_values = layers.layer_metrics(recorder)
        layer_values["experiments.worker_peak_rss_mib"] = (
            _peak_rss_mib(resource.RUSAGE_CHILDREN) if workload.jobs > 1
            else 0.0)
        layer_values["collector.store_bytes_per_record"] = \
            _store_bytes_per_record(
                api, outdir / DATASET_FILE if workload.simulates
                else dataset)
        report["layers"] = layer_values
        report["missing"] = installation.missing
        report["chrome_trace"] = layers.chrome_trace(recorder)
    return report


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        report = run_process(spec)
    except ImportError:
        # The program itself is missing or broken: a harness error, not a
        # failed op.  No JSON on stdout makes the harness stop.
        traceback.print_exc()
        return 3
    except Exception:  # noqa: BLE001 - an op that raises is a failed op
        report = {"error": traceback.format_exc()}
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
