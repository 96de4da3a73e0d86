"""Ablation A6: immutable replication (section 2.3).

"Amber also supports replication of readonly objects to reduce
unnecessary communication overhead."  A remote reader of a mutable table
migrates for every lookup; marking the table immutable replaces the whole
stream with a single replica fetch.
"""

import pytest

from repro.bench.ablations import immutable_replication

READS = 40


@pytest.fixture(scope="module")
def rows():
    return immutable_replication(reads=READS)


def test_regenerates(rows):
    assert len(rows) == 2


def test_mutable_pays_per_read(rows):
    mutable = rows[0]
    # Every lookup is a migration round trip: 2 one-way transfers each,
    # plus the initial hop of the reader thread.
    assert mutable.thread_migrations >= 2 * READS


def test_immutable_pays_once(rows):
    immutable = rows[1]
    # One replica fetch; the reader thread itself migrates only to reach
    # its own object.
    assert immutable.thread_migrations <= 4
    assert immutable.network_messages <= 6


def test_replication_is_order_of_magnitude_faster(rows):
    mutable, immutable = rows
    assert mutable.elapsed_us > 10 * immutable.elapsed_us
