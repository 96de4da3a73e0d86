# Convenience targets for the Amber reproduction.

.PHONY: install test bench perf artifacts examples lint analyze \
	amber-check check chaos flow clean

install:
	pip install -e . || python setup.py develop

# The tier-1 suite.
test:
	PYTHONPATH=src python -m pytest -x -q

# Every Amber program shipped in the tree: the bundled apps and
# examples, the paper-figure drivers.
lint:
	PYTHONPATH=src python -m repro lint src/repro/apps examples \
		src/repro/bench

analyze:
	PYTHONPATH=src python -m repro analyze --fast

amber-check:
	PYTHONPATH=src python -m repro check --fast

# AmberFlow: static object-flow analysis (AMB2xx, and AmberElide's
# AMB3xx) + placement-hint cross-validation against simulator runs
# (docs/ANALYSIS.md).
flow:
	PYTHONPATH=src python -m repro flow --fast \
		--expect benchmarks/baseline/FLOW_expected.json

# AmberChaos: seeded live-runtime chaos scenario suite (docs/CHAOS.md).
chaos:
	for seed in 0 1 2; do \
		PYTHONPATH=src python -m repro chaos --fast --seed $$seed || exit 1; \
	done

# The full static + dynamic + model-checking gauntlet.
check: lint flow analyze amber-check

# The paper-shape suite (simulated results asserted against the paper's
# shape; nothing here is timed) plus AmberBench's smoke test.
bench:
	PYTHONPATH=src python -m pytest benchmarks/ -q

# Where a simulated run's host time goes (docs/PERF.md).  Whether a
# change is faster is AmberBench's question:
#   PYTHONPATH=src python -m benchmarks.amberbench repeat --help
perf:
	PYTHONPATH=src python -m repro run sor --fast --hotloop

artifacts:
	PYTHONPATH=src python -m repro all

examples:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/sor_speedup.py
	PYTHONPATH=src python examples/distributed_philosophers.py
	PYTHONPATH=src python examples/custom_scheduler.py
	PYTHONPATH=src python examples/mobile_directory.py
	PYTHONPATH=src python examples/parallel_queens.py
	PYTHONPATH=src python examples/replicated_matmul.py

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
