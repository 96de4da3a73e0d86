"""Benchmark harness: one driver per table, figure, and ablation.

Each driver module regenerates one artifact of the paper's evaluation and
is runnable standalone::

    python -m repro.bench.table1      # Table 1: primitive latencies
    python -m repro.bench.figure1     # Figure 1: SOR program structure
    python -m repro.bench.figure2     # Figure 2: SOR speedup by config
    python -m repro.bench.figure3     # Figure 3: speedup vs problem size
    python -m repro.bench.ablations   # Section 4 claims (Amber vs Ivy...)

The paper-shape pytest files in ``benchmarks/`` call the same drivers and
assert the *shape* of each result against the paper (who wins, by what
rough factor, where crossovers fall); absolute 1989 latencies are matched
by cost-model calibration, not by accident.
"""

from repro.bench.paper_data import PAPER_FIGURE2_SPEEDUPS, PAPER_TABLE1_MS

__all__ = ["PAPER_FIGURE2_SPEEDUPS", "PAPER_TABLE1_MS"]
