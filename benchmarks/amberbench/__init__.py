"""AmberBench: the repo's end-to-end and per-layer benchmark.

Four workloads — two on the simulator, two on the live runtime — each
measured untraced (end-to-end metrics) and traced (per-layer metrics),
with every output checked against an oracle.  Everything is measured
from outside the program, through its public functions; see README.md
for the glossary and the layer -> end-to-end prediction table.

Entry points:

* ``python3 benchmarks/amberbench/run.py --workload W --seed N
  --seconds S --trace 0|1`` — one pass of one workload, one JSON result
  line (the contract ``BENCHMARK.json`` describes).
* ``PYTHONPATH=src python -m benchmarks.amberbench run|repeat|selftest``
  — the whole suite, its repeatability check, and the oracle self-test.
"""
