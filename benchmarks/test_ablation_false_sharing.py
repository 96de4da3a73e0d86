"""Ablation A3: false sharing (section 4.2).

"If data items are smaller than a page, a page-based coherency scheme
incurs unnecessary communication overhead when logically unrelated data
items that happen to reside in the same page are referenced repeatedly by
multiple nodes."  Object-granularity coherence cannot exhibit this: the
coherence unit is the problem-defined object.
"""

import pytest

from repro.bench.ablations import false_sharing

NODES = 4
ROUNDS = 50


@pytest.fixture(scope="module")
def rows():
    return false_sharing(nodes=NODES, rounds=ROUNDS)


def by_layout(rows):
    return {row.layout: row for row in rows}


def test_regenerates(rows):
    assert len(rows) == 3


def test_packed_counters_ping_pong(rows):
    table = by_layout(rows)
    packed = table["DSM: counters packed in one page"]
    aligned = table["DSM: counters page-aligned"]
    # Packing unrelated counters into one page amplifies traffic by well
    # over an order of magnitude.
    assert packed.network_messages > 10 * max(1, aligned.network_messages)
    assert packed.page_transfers > 10 * max(1, aligned.page_transfers)


def test_aligned_counters_quiet_after_first_touch(rows):
    table = by_layout(rows)
    aligned = table["DSM: counters page-aligned"]
    # First-touch faults only: bounded by one transaction per node.
    assert aligned.page_transfers <= NODES


def test_amber_objects_never_communicate(rows):
    """Per-node objects updated by local threads generate no steady-state
    traffic at all (the few messages are thread-startup migrations)."""
    table = by_layout(rows)
    amber = table["Amber: one object per node"]
    assert amber.page_transfers == 0
    assert amber.messages_per_update < 0.1


def test_object_coherence_beats_page_coherence_here(rows):
    table = by_layout(rows)
    packed = table["DSM: counters packed in one page"]
    amber = table["Amber: one object per node"]
    assert packed.messages_per_update > 20 * amber.messages_per_update
