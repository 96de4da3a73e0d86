"""Ablation A5: forwarding-chain chase and path caching (section 3.3).

"It is costly to locate an object by following a forwarding chain, but
this happens rarely because the object's last known location is cached on
all nodes along the chain so that the object can be located quickly on
subsequent references."
"""

import pytest

from repro.bench.ablations import forwarding_chase

MAX_HOPS = 6


@pytest.fixture(scope="module")
def rows():
    return forwarding_chase(max_hops=MAX_HOPS)


def test_regenerates(rows):
    assert len(rows) == MAX_HOPS


def test_first_invoke_grows_with_chain_length(rows):
    firsts = [row.first_invoke_us for row in rows]
    assert firsts == sorted(firsts)
    assert firsts[-1] > firsts[0] * 1.5


def test_growth_is_roughly_linear_per_hop(rows):
    increments = [b.first_invoke_us - a.first_invoke_us
                  for a, b in zip(rows, rows[1:])]
    # Every extra hop costs one forward + one extra wire traversal.
    assert max(increments) == pytest.approx(min(increments), rel=0.05)


def test_second_invoke_is_flat_after_caching(rows):
    seconds = [row.second_invoke_us for row in rows]
    assert max(seconds) == pytest.approx(min(seconds), rel=0.01)
    # And equals the one-hop remote invoke cost: the cache made every
    # chain length look like Table 1's remote invoke.
    assert seconds[0] == pytest.approx(8_320, rel=0.01)


def test_chase_never_worse_than_chain_plus_constant(rows):
    for row in rows:
        assert row.first_invoke_us < 8_320 + row.chain_hops * 2_000
