"""Ablation A9: Li & Hudak's manager algorithms under the SOR workload.

The paper's Ivy discussion (section 4) implicitly assumes *some* ownership
protocol; Li & Hudak describe three.  This ablation compares them on the
same SOR run and confirms the textbook ordering: the dynamic distributed
manager (probOwner chasing — structurally Amber's forwarding addresses)
beats the fixed striped managers, which beat the single centralized
manager, because each step removes manager hops or manager hotspots.
"""

import pytest

from repro.apps.sor import SorProblem
from repro.apps.sor.ivy_sor import run_ivy_sor

PROBLEM = SorProblem(rows=61, cols=421, iterations=5)
MODES = ("centralized", "fixed", "dynamic")


@pytest.fixture(scope="module")
def results():
    return {mode: run_ivy_sor(PROBLEM, nodes=4, cpus_per_node=4,
                              manager_mode=mode)
            for mode in MODES}


def test_regenerates(results):
    assert set(results) == set(MODES)


def test_all_modes_complete_the_same_computation(results):
    iterations = {mode: r.iterations_run for mode, r in results.items()}
    assert set(iterations.values()) == {PROBLEM.iterations}


def test_dynamic_beats_fixed_beats_centralized(results):
    assert results["dynamic"].elapsed_us <= results["fixed"].elapsed_us
    assert results["fixed"].elapsed_us \
        <= results["centralized"].elapsed_us * 1.05


def test_dynamic_sends_fewest_messages(results):
    assert results["dynamic"].network_messages \
        < results["fixed"].network_messages


def test_prob_owner_chases_are_bounded(results):
    """Path compression keeps chases short: forwards stay well below one
    per fault even in steady state."""
    dynamic = results["dynamic"]
    assert dynamic.stats.owner_forwards < dynamic.stats.total_faults
