"""Locations inside the checkout the benchmark runs from.

The benchmark measures the dolrm sources next to it (``<checkout>/src``),
never an installed copy, and keeps every file it writes inside the checkout.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_spans"
BENCH = Path(__file__).resolve().parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
REFERENCES = BENCH / "references"

# One thread: the benchmark is a single-caller closed loop, and numpy's
# linear algebra (the slope fit) must not fan out over the cores.
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def use_checkout_sources() -> None:
    """Put ``<checkout>/src`` first on the import path, or exit if it is missing."""
    if not (SRC / "dolrm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dolrm sources at {SRC}")
    for key, value in SINGLE_THREAD_ENV.items():
        os.environ.setdefault(key, value)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
