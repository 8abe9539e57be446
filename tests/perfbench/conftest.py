"""Make the perf benchmark's modules (benchmarks/perf) importable."""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"
if str(PERF) not in sys.path:
    sys.path.insert(0, str(PERF))
