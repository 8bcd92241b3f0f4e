"""Test set-up: import the benchmark's modules and gkernel from this checkout.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
