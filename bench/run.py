"""Benchmark entry point: python3 bench/run.py --workload NAME [--seed N]
[--seconds S] [--trace 0|1].

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; without it the benchmark exits non-zero and
prints no result.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "annealbench" / "__init__.py").is_file():
        sys.exit(f"bench: no annealbench sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import annealbench

    if Path(annealbench.__file__).resolve().parent != SRC / "annealbench":
        sys.exit(f"bench: imported annealbench from {annealbench.__file__}, not {SRC}")
    import measure

    sys.exit(measure.main())
