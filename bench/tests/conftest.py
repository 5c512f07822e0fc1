"""Import paths for the benchmark's own tests: the checkout's ``src/`` and
the benchmark directory. Run from the repository root with

    python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
