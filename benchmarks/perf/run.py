"""Perf benchmark of the audit pipeline: end-to-end and per-layer metrics.

Run from the repository root::

    python3 benchmarks/perf/run.py                           # all workloads
    python3 benchmarks/perf/run.py --workload paper_serial --seed 7
    python3 benchmarks/perf/run.py --trace 1 --out result.json
    python3 benchmarks/perf/run.py --smoke                   # ~10 s check

Load model: a closed loop with one client.  Every op runs in a fresh
process (``ops.py``), one at a time, with at most two worker processes
(``paper_jobs2``).  Workloads run in rounds, one op of each per round,
so a change in host speed hits all of them alike, until each has been
measured for ``--seconds``.  With ``--trace 1`` half of that time runs
untraced ops and half runs ops with the :mod:`layers` wrappers
installed, and the per-layer metrics are reported instead.

Every op's outputs are checked: against the SHA-256 digests pinned in
``digests.json``, against the op's own earlier repeats, and across
workloads (``paper_jobs2`` must equal ``paper_serial``; ``audit_replay``
must audit to the same bytes).  A failed check fails that op only.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
only for harness errors (the program cannot be imported, an op process
dies or hangs); then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS  # noqa: E402
from ops import (  # noqa: E402
    AUDIT_OUTPUTS, DATASET_FILE, DEFAULT_SEED, WORKLOADS, Workload)

ROOT = HERE.parents[1]
DIGESTS = HERE / "digests.json"

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("units_per_s", "units/s"),
    ("cpu_us_per_unit", "us/unit"),
    ("peak_rss_2k_mib", "MiB"),
)

#: Units of work a delivered impression adds to its pageview's one.
#: Seeds differ two-fold in pageviews and in impressions per pageview,
#: and an impression (beacon, collector, trace commit) costs many
#: pageviews that end without one; this weight, fitted over seeds 1-20,
#: makes units/s a property of the code rather than of the seed.
IMPRESSION_UNITS = 20
#: ``peak_rss_2k_mib`` projects each op's memory to this many impressions.
REFERENCE_IMPRESSIONS = 2_000

DEFAULT_SECONDS = 20.0
#: Each ``audit_replay`` process audits for this share of ``--seconds``.
REPLAY_PROCESS_SHARE = 1 / 3
#: A replay process always audits twice, so it can check its own repeat.
MIN_REPLAY_PASSES = 2
#: Largest probe time over smallest for the host to count as stable.
STABLE_PROBE_RATIO = 1.15
#: :func:`host_probe` on the reference VM in a fast phase.  Times are
#: scaled to a host this fast: the VMs this runs on slow down up to 2.7x
#: for minutes at a time, and a workload's fastest probe tracks that
#: phase (see README, *Host noise*).
REFERENCE_PROBE_S = 0.035
OP_TIMEOUT_S = 150.0


class HarnessError(RuntimeError):
    """The benchmark itself cannot go on; no result is printed."""


def host_probe() -> float:
    """A fixed pure-Python kernel: best of three, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(1_000_000):
            total += value
        best = min(best, time.perf_counter() - start)
    return best


def load_pins(seed: int) -> dict[str, dict[str, str]]:
    """Pinned output digests for this interpreter's minor version and seed."""
    if not DIGESTS.exists():
        return {}
    pins = json.loads(DIGESTS.read_text(encoding="utf-8"))
    minor = f"{sys.version_info.major}.{sys.version_info.minor}"
    return pins.get(minor, {}).get(str(seed), {})


def write_pins(seed: int, digests: dict[str, dict[str, str]]) -> None:
    pins = json.loads(DIGESTS.read_text(encoding="utf-8")) \
        if DIGESTS.exists() else {}
    minor = f"{sys.version_info.major}.{sys.version_info.minor}"
    pins.setdefault(minor, {}).setdefault(str(seed), {}).update(digests)
    DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")


@dataclass
class WorkloadState:
    """Everything one invocation learned about one workload."""

    workload: Workload
    reports: list[dict] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    probes: list[float] = field(default_factory=list)
    digests: dict | None = None

    @property
    def failed(self) -> int:
        return len(self.failures)


class Harness:
    """Runs op processes, checks their outputs, aggregates metrics."""

    def __init__(self, seed: int, seconds: float, pins: dict,
                 workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.pins = pins
        self.workdir = workdir
        self.serial_digests: dict | None = None
        self.dataset: Path | None = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))

    # -- one op process -------------------------------------------------- #

    def spawn(self, workload: Workload, *, trace: bool = False,
              keep_dataset: bool = False) -> dict:
        outdir = Path(tempfile.mkdtemp(prefix="op-", dir=self.workdir))
        spec = {"workload": workload.name, "seed": self.seed,
                "scale": workload.scale, "trace": trace,
                "outdir": str(outdir), "keep_dataset": keep_dataset,
                "dataset": str(self.dataset / DATASET_FILE)
                if self.dataset else None}
        if not workload.simulates:
            spec["pass_seconds"] = self.seconds * REPLAY_PROCESS_SHARE
            spec["min_passes"] = MIN_REPLAY_PASSES
        spec["spawned_at"] = time.monotonic()
        try:
            process = subprocess.run(
                [sys.executable, str(HERE / "ops.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired as error:
            raise HarnessError(f"{workload.name} op exceeded "
                               f"{OP_TIMEOUT_S:.0f} s") from error
        lines = process.stdout.strip().splitlines()
        if process.returncode != 0 or not lines:
            raise HarnessError(f"{workload.name} op process exited "
                               f"{process.returncode}:\n"
                               f"{process.stderr[-2000:]}")
        report = json.loads(lines[-1])
        if keep_dataset and "error" not in report:
            self.dataset = outdir
        else:
            shutil.rmtree(outdir, ignore_errors=True)
        return report

    def problems(self, state: WorkloadState, report: dict) -> list[str]:
        """Every way *report*'s outputs are wrong; empty when correct."""
        if "error" in report:
            return ["raised " + report["error"].strip().splitlines()[-1]]
        name = state.workload.name
        digests = report["digests"]
        found = [f"{output} differs from its pinned digest"
                 for output, expected in self.pins.get(name, {}).items()
                 if digests.get(output) != expected]
        if state.digests is None:
            state.digests = digests
        elif digests != state.digests:
            found.append("outputs differ from an earlier repeat")
        if name == "paper_serial" and self.serial_digests is None:
            self.serial_digests = digests
        reference = self.serial_digests or {}
        if name == "paper_jobs2" and digests != reference:
            found.append("outputs differ from paper_serial")
        if not state.workload.simulates and any(
                digests[output] != reference.get(output)
                for output in AUDIT_OUTPUTS):
            found.append("audit outputs differ from paper_serial")
        if report.get("reconciles") is False:
            found.append("coverage ledger does not reconcile")
        return found

    def run_op(self, state: WorkloadState, *, trace: bool = False) -> float:
        """Run and check one op of *state*; returns the seconds it took."""
        workload = state.workload
        if not workload.simulates and self.dataset is None:
            self.serial_reference()
            if self.dataset is None:
                raise HarnessError("no paper_serial dataset to replay")
        state.probes.append(host_probe())
        state.attempted += 1
        start = time.perf_counter()
        keep = workload.name == "paper_serial" and self.dataset is None
        report = self.spawn(workload, trace=trace, keep_dataset=keep)
        elapsed = time.perf_counter() - start
        found = self.problems(state, report)
        if found:
            state.failures.append("; ".join(found))
            print(f"  FAILED {workload.name}: {'; '.join(found)}",
                  file=sys.stderr)
        if "error" not in report:
            (state.traced if trace else state.reports).append(report)
        return elapsed

    # -- the measurement plan -------------------------------------------- #

    def serial_reference(self) -> None:
        """An untimed ``paper_serial`` op for the outputs other workloads
        check against: the jobs2 equality and the replay input."""
        state = WorkloadState(WORKLOADS["paper_serial"])
        self.run_op(state)
        if state.failures:
            print(f"  reference paper_serial op: {state.failures[0]}",
                  file=sys.stderr)

    def rounds(self, states: list[WorkloadState], budget: float,
               trace: bool = False) -> None:
        """Round-robin ops until every workload has run for *budget* s."""
        spent = {id(state): 0.0 for state in states}
        ops = {id(state): 0 for state in states}
        round_number = 0
        while True:
            pending = [state for state in states
                       if ops[id(state)] == 0 or spent[id(state)] < budget]
            if not pending:
                return
            round_number += 1
            for state in pending:
                spent[id(state)] += self.run_op(state, trace=trace)
                ops[id(state)] += 1
            print(f"  round {round_number}{' (traced)' if trace else ''}: "
                  + ", ".join(f"{state.workload.name} "
                              f"{spent[id(state)]:.1f}s"
                              for state in pending), file=sys.stderr)


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #


def _op_walls(reports: list[dict]) -> list[float]:
    return [wall for report in reports for wall in report["walls"]]


def fastest_tenth(values) -> float:
    """The sample a tenth of the way up from the fastest (the fastest of
    fewer than ten): host noise only ever adds time."""
    values = sorted(values)
    return values[len(values) // 10]


def work_units(workload: Workload, counts: dict) -> float:
    """The work of one op: audited records when replaying, else
    pageviews weighted by :data:`IMPRESSION_UNITS`."""
    if not workload.simulates:
        return counts["records"]
    return counts["pageviews"] + IMPRESSION_UNITS * counts["impressions"]


def host_slowdown(state: WorkloadState) -> float:
    """How much slower than the reference host this workload's host ran."""
    return fastest_tenth(state.probes) / REFERENCE_PROBE_S


def end_to_end(state: WorkloadState) -> dict[str, float]:
    reports = state.reports
    counts = reports[0]["counts"]
    units = work_units(state.workload, counts)
    impressions = counts["impressions"] if state.workload.simulates \
        else counts["records"]
    slowdown = host_slowdown(state)
    wall = fastest_tenth(_op_walls(reports)) / slowdown
    cpu = fastest_tenth(cpu for report in reports
                        for cpu in report["cpus"]) / slowdown
    return {
        "setup_s": fastest_tenth(r["setup_s"] for r in reports) / slowdown,
        "units_per_s": units / wall,
        "cpu_us_per_unit": cpu / units * 1e6,
        "peak_rss_2k_mib": statistics.median(
            r["base_rss_mib"] + (r["peak_rss_mib"] - r["base_rss_mib"])
            * REFERENCE_IMPRESSIONS / impressions for r in reports),
    }


def per_layer(state: WorkloadState) -> dict[str, float]:
    traced = state.traced
    values = {metric: statistics.fmean(report["layers"][metric]
                                       for report in traced)
              for metric in traced[0]["layers"]}
    values["trace.overhead_frac"] = (
        fastest_tenth(_op_walls(traced))
        / fastest_tenth(_op_walls(state.reports)) - 1.0)
    values["host.calib_s"] = fastest_tenth(state.probes)
    return values


def samples(state: WorkloadState) -> dict:
    walls = sorted(_op_walls(state.reports))
    tail_index = len(walls) - 11    # at least ten samples beyond it
    return {
        "n": len(walls),
        "wall_s_median": statistics.median(walls),
        "wall_s_tail": walls[tail_index] if tail_index >= 0 else None,
        "wall_s_tail_percentile": round(100 * (tail_index + 1) / len(walls))
        if tail_index >= 0 else None,
        "wall_s": walls,
        "setup_s": [report["setup_s"] for report in state.reports],
        "counts": state.reports[0]["counts"],
    }


def _units(table: tuple[tuple[str, str], ...], values: dict) -> dict:
    return {name: {"value": values[name], "unit": unit}
            for name, unit in table}


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/perf/run.py",
        description="Benchmark the audit pipeline end to end and per layer.")
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS],
                        help="one workload, or all of them in rounds")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"experiment seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per workload (default "
                             f"{DEFAULT_SECONDS:.0f})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced ops")
    parser.add_argument("--smoke", action="store_true",
                        help="one round of ops, no time budget")
    parser.add_argument("--out", metavar="PATH",
                        help="write the full result document as JSON")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's output digests in "
                             "digests.json instead of checking them")
    return parser


def run(args: argparse.Namespace) -> dict:
    """Measure; returns the full result document."""
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seconds = 0.0 if args.smoke else args.seconds
    pins = {} if args.pin else load_pins(args.seed)
    perfdir = ROOT / ".perfbench"
    perfdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=perfdir))
    harness = Harness(args.seed, seconds, pins, workdir)
    states = [WorkloadState(WORKLOADS[name]) for name in names]
    try:
        if "paper_jobs2" in names and "paper_serial" not in names:
            harness.serial_reference()
        if args.trace:
            harness.rounds(states, seconds / 2)
            harness.rounds(states, seconds / 2, trace=True)
        else:
            harness.rounds(states, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    probes = [probe for state in states for probe in state.probes]
    document = {
        "schema": "perfbench/1",
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "host_stable": max(probes) <= STABLE_PROBE_RATIO * min(probes),
        "host_probe_s": [min(probes), max(probes)],
        "workloads": {},
    }
    for state in states:
        if not state.reports:
            raise HarnessError(f"no {state.workload.name} op completed: "
                               + "; ".join(state.failures))
        entry = {
            "attempted": state.attempted,
            "failed": state.failed,
            "failures": state.failures,
            "scale": state.workload.scale,
            "metrics": _units(END_TO_END, end_to_end(state)),
            "samples": samples(state),
            "host_slowdown": host_slowdown(state),
            "digests": state.digests,
        }
        if args.trace:
            if not state.traced:
                raise HarnessError(
                    f"no traced {state.workload.name} op completed")
            entry["layers"] = _units(LAYER_METRICS, per_layer(state))
            entry["missing"] = state.traced[0]["missing"]
            trace_path = perfdir / (f"trace-{state.workload.name}-"
                                    f"seed{args.seed}.json")
            trace_path.write_text(json.dumps(state.traced[0]["chrome_trace"]),
                                  encoding="utf-8")
            entry["chrome_trace"] = str(trace_path.relative_to(ROOT))
        document["workloads"][state.workload.name] = entry
    if args.pin:
        write_pins(args.seed, {name: entry["digests"] for name, entry
                               in document["workloads"].items()})
    return document


def render(document: dict) -> str:
    """The human-readable report: header, one row per workload."""
    low, high = document["host_probe_s"]
    lines = [f"perfbench seed={document['seed']} "
             f"seconds={document['seconds']:g} trace={document['trace']} "
             f"python={document['python']} nproc={document['nproc']} "
             f"host_stable={str(document['host_stable']).lower()} "
             f"(probe {low:.4f}-{high:.4f} s)"]
    header = ["workload", "ops", "failed", "n"] + [
        f"{name} [{unit}]" for name, unit in END_TO_END]
    rows = [header]
    for name, entry in document["workloads"].items():
        rows.append([name, str(entry["attempted"]), str(entry["failed"]),
                     str(entry["samples"]["n"])] + [
            f"{entry['metrics'][metric]['value']:.4g}"
            for metric, _ in END_TO_END])
    widths = [max(len(row[column]) for row in rows)
              for column in range(len(header))]
    lines += ["  ".join(cell.rjust(width) if index else cell.ljust(width)
                        for index, (cell, width) in
                        enumerate(zip(row, widths))) for row in rows]
    for name, entry in document["workloads"].items():
        for failure in entry["failures"]:
            lines.append(f"FAILED {name}: {failure}")
        if "layers" in entry:
            lines.append(f"-- per-layer, {name} (means per op; Chrome "
                         f"trace in {entry['chrome_trace']})")
            lines += [f"  {metric:<36} {value['value']:>14.6g} "
                      f"{value['unit']}"
                      for metric, value in entry["layers"].items()]
            for label in entry["missing"]:
                lines.append(f"  note: boundary absent from src: {label}")
    return "\n".join(lines)


def result_line(document: dict) -> dict:
    """The one-line result: end-to-end or per-layer metrics.

    With one workload the metric names are bare; with several each is
    prefixed by its workload.
    """
    workloads = document["workloads"]
    key = "layers" if document["trace"] else "metrics"
    metrics = {}
    for name, entry in workloads.items():
        prefix = "" if len(workloads) == 1 else f"{name}."
        for metric, value in entry[key].items():
            metrics[prefix + metric] = value
    attempted = sum(entry["attempted"] for entry in workloads.values())
    failed = sum(entry["failed"] for entry in workloads.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _terminate(signum, frame) -> None:
    # Unwinding through subprocess.run kills and reaps the running op.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        document = run(args)
    except HarnessError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=2) + "\n",
                                  encoding="utf-8")
    print(render(document))
    print(json.dumps(result_line(document)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
