"""Compare perf benchmark results of two commits, metric by metric.

    python3 benchmarks/perf/compare.py A1.json A2.json -- B1.json B2.json

Each file is a ``run.py --out`` document; the files before ``--`` are
invocations of the parent (A), the ones after are invocations of the
change (B).  For every workload both sides measured and every end-to-end
metric in ``BENCHMARK.json``, the report gives each side's median over
its invocations, the change, the metric's bound and a verdict:

* ``regression``: B's median is worse than A's by more than the bound;
* ``unresolved``: a side's interquartile range across its invocations
  is wider than the bound, so the two medians cannot be told apart
  (unless every B run is better than every A run);
* ``win``: B is better by more than the bound, or, with at least three
  runs a side, every B run beats every A run by more than A's spread;
* ``same``: anything else.

A rise in the share of failed ops is reported as a failure.  The exit
code is 1 on any regression or failure rise, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_RUNS_FOR_ORDERING = 3


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    a_median: float
    b_median: float
    change: float       # (B - A) / A
    bound: float
    verdict: str


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    a_median, b_median = statistics.median(a), statistics.median(b)
    worse = sign * (b_median - a_median) / abs(a_median)
    b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    if spread(a) > bound or spread(b) > bound:
        return "win" if b_beats_all and len(a) >= MIN_RUNS_FOR_ORDERING \
            and len(b) >= MIN_RUNS_FOR_ORDERING else "unresolved"
    if worse > bound:
        return "regression"
    if -worse > bound or (
            b_beats_all and -worse > spread(a)
            and min(len(a), len(b)) >= MIN_RUNS_FOR_ORDERING):
        return "win"
    return "same"


def failed_share(documents: list[dict], workload: str) -> float:
    entries = [doc["workloads"][workload] for doc in documents]
    attempted = sum(entry["attempted"] for entry in entries)
    return sum(entry["failed"] for entry in entries) / max(1, attempted)


def compare(a_docs: list[dict], b_docs: list[dict],
            benchmark: dict) -> tuple[list[Row], list[str]]:
    """Rows for every shared workload and end-to-end metric; failures."""
    rows, failures = [], []
    workloads = [name for name in a_docs[0]["workloads"]
                 if all(name in doc["workloads"] for doc in a_docs + b_docs)]
    for workload in workloads:
        a_failed = failed_share(a_docs, workload)
        b_failed = failed_share(b_docs, workload)
        if b_failed > a_failed:
            failures.append(f"{workload}: failed ops rose from "
                            f"{a_failed:.1%} to {b_failed:.1%}")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [doc["workloads"][workload]["metrics"][name]["value"]
                 for doc in a_docs]
            b = [doc["workloads"][workload]["metrics"][name]["value"]
                 for doc in b_docs]
            a_median, b_median = statistics.median(a), statistics.median(b)
            rows.append(Row(workload, name, metric["unit"], a_median,
                            b_median, (b_median - a_median) / abs(a_median),
                            metric["bound"],
                            verdict(a, b, metric["better"], metric["bound"])))
    return rows, failures


def render(rows: list[Row], failures: list[str]) -> str:
    lines = [f"{'workload':<14} {'metric':<16} {'A median':>12} "
             f"{'B median':>12} {'change':>8} {'bound':>6}  verdict"]
    for row in rows:
        lines.append(f"{row.workload:<14} {row.metric:<16} "
                     f"{row.a_median:>12.5g} {row.b_median:>12.5g} "
                     f"{row.change:>+8.2%} {row.bound:>6.0%}  {row.verdict}")
    lines += [f"FAILURE {failure}" for failure in failures]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("need at least one result file on each side of --",
              file=sys.stderr)
        return 2

    def load(path: str) -> dict:
        return json.loads(Path(path).read_text(encoding="utf-8"))

    benchmark = load(BENCHMARK)
    rows, failures = compare([load(p) for p in a_paths],
                             [load(p) for p in b_paths], benchmark)
    print(render(rows, failures))
    return 1 if failures or any(row.verdict == "regression"
                                for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
