"""Contract entry point: one pass of one workload, one JSON result line.

    python3 benchmarks/amberbench/run.py --workload W --seed N \
        --seconds S --trace 0|1

Builds nothing; puts the checkout's ``src`` on the import path itself so
the command names no file outside the benchmark's directory.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    # Replace the script directory: the benchmark is imported as the
    # package benchmarks.amberbench, never as loose top-level modules.
    sys.path[0:1] = [str(root), str(root / "src")]
    from benchmarks.amberbench.cli import contract_main

    sys.exit(contract_main(sys.argv[1:]))
