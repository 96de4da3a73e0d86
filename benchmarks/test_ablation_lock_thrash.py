"""Ablation A2: a shared lock contended from four nodes (section 4.1).

The paper: "References to a shared lock variable can cause a data-shipping
system to thrash by repeatedly shuttling the page containing the lock
variable between the nodes which are referencing it.  Recent versions of
Ivy have handled this problem by deviating from the data-shipping model
and accessing shared lock variables with remote procedure calls."

Measured claims: the DSM test-and-set lock ping-pongs its page (the
hottest page moves on the order of once per critical section) and puts
far more traffic on the wire than the Amber lock object; the RPC escape
hatch fixes the thrash at the price of leaving the data-shipping model —
and still doesn't beat the Amber object.
"""

import pytest

from repro.bench.ablations import lock_thrash

ROUNDS = 25
NODES = 4


@pytest.fixture(scope="module")
def rows():
    return lock_thrash(nodes=NODES, rounds=ROUNDS)


def by_system(rows):
    return {row.system: row for row in rows}


def test_regenerates(rows):
    assert len(rows) == 3


def test_tas_page_thrashes(rows):
    table = by_system(rows)
    tas = table["DSM test-and-set page"]
    total_sections = NODES * ROUNDS
    # The lock page shuttles at least once per critical section on
    # average — the definition of thrash.
    assert tas.hottest_page_transfers >= total_sections

    # The Amber lock never moves anything.
    amber = table["Amber lock object"]
    assert amber.hottest_page_transfers == 0


def test_tas_floods_network_relative_to_amber(rows):
    table = by_system(rows)
    tas = table["DSM test-and-set page"]
    amber = table["Amber lock object"]
    assert tas.network_messages > 2 * amber.network_messages


def test_rpc_escape_hatch_cures_thrash(rows):
    table = by_system(rows)
    rpc = table["DSM lock via RPC (recent Ivy)"]
    tas = table["DSM test-and-set page"]
    # RPC mode stops the lock page from shuttling...
    assert rpc.hottest_page_transfers < tas.hottest_page_transfers / 1.5
    # ...and burns much less CPU than spinning.
    assert rpc.cpu_busy_us < tas.cpu_busy_us


def test_amber_lock_is_predictable_round_trips(rows):
    """Amber's per-critical-section cost is a fixed number of thread
    round trips — close to the Table 1 remote invoke/return pair."""
    table = by_system(rows)
    amber = table["Amber lock object"]
    # acquire + release ~= 2 remote invocations ~= 16.6 ms worst case;
    # contention parks waiters at the lock, so the average is below that.
    assert amber.us_per_critical_section < 17_000
