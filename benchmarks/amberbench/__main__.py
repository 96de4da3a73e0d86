import sys

from benchmarks.amberbench.cli import main

if __name__ == "__main__":
    sys.exit(main())
