"""Entry point of the solver benchmark; see bench/README.md.

Run from the repository root:

    python3 bench/run.py --workload pairs200 --seed 2 --seconds 25 --trace 0

BLAS is pinned to one thread before numpy is imported, and the solver is
imported from this checkout's ``src`` directory, never from an installed
copy.  Exit codes: 0 with a result line, 2 when the solver source is
missing or the arguments are bad, 3 when a determinism gate fails.
"""

import os
import sys
from pathlib import Path

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    for var in THREAD_PINS:
        os.environ[var] = "1"
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "irjbd" / "__init__.py").is_file():
        print(f"bench: solver source not found at {src / 'irjbd'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))

    import harness

    sys.exit(harness.main(sys.argv[1:]))
