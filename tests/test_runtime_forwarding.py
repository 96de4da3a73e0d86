"""Live-runtime tests for forwarding chains, path caching, and the
address-space coordinator."""

import pytest

from repro.core.address_space import DEFAULT_REGION_BYTES
from repro.runtime import AmberObject, Cluster, current_node
from tests.live_helpers import move_behind_the_drivers_back


class Token(AmberObject):
    def __init__(self, tag=0):
        self.tag = tag

    def ping(self):
        return (self.tag, current_node())


class Prober(AmberObject):
    def probe(self, target):
        return target.ping()


@pytest.fixture(scope="module")
def cluster():
    with Cluster(nodes=4) as c:
        yield c


def _moved_twice_behind_the_drivers_back(cluster, tag):
    """A token at node 3 that node 0 still looks for at its home, node 1:
    moved 1 -> 2 -> 3 by third parties (a move hints its mover)."""
    token = cluster.create(Token, tag, node=1)
    token.ping()                        # node 0 learns nothing new
    move_behind_the_drivers_back(cluster, token, 2)
    move_behind_the_drivers_back(cluster, token, 3)
    return token


def _forwards(cluster):
    return [cluster.node_stats(node)["forwards"] for node in (1, 2)]


class TestForwardingChains:
    def test_chain_walk_after_multiple_moves(self, cluster):
        token = _moved_twice_behind_the_drivers_back(cluster, 1)
        before = _forwards(cluster)
        # Node 0 believes node 1; 1 forwards to 2; 2 forwards to 3.
        assert token.ping() == (1, 3)
        assert _forwards(cluster) == [before[0] + 1, before[1] + 1]

    def test_location_hints_shorten_later_requests(self, cluster):
        token = _moved_twice_behind_the_drivers_back(cluster, 2)
        hints = cluster.node_stats(0)["hints"]
        before = _forwards(cluster)
        token.ping()                    # chases the chain, leaves hints
        # The first ping cost the chain, one hop at each of 1 and 2.
        assert _forwards(cluster) == [before[0] + 1, before[1] + 1]
        token.ping()                    # direct now
        assert _forwards(cluster) == [before[0] + 1, before[1] + 1]
        assert cluster.node_stats(0)["hints"] == hints + 1

    def test_uninitialized_descriptor_routes_via_home(self, cluster):
        # Created on node 2 (its home), moved away; node 3 has never
        # heard of it and must route via home.
        token = cluster.create(Token, 3, node=2)
        cluster.move(token, 0)
        prober = cluster.create(Prober, node=3)
        assert prober.probe(token) == (3, 0)


class TestAddressSpace:
    def test_vaddrs_unique_across_nodes(self, cluster):
        handles = [cluster.create(Token, i, node=i % 4)
                   for i in range(40)]
        vaddrs = [handle.vaddr for handle in handles]
        assert len(set(vaddrs)) == len(vaddrs)

    def test_region_exhaustion_grants_more(self):
        """A tiny region forces the heap to go back to the coordinator
        for more address space (the paper's extension mechanism)."""
        with Cluster(nodes=2, region_bytes=1024) as small:
            handles = [small.create(Token, i, node=1)
                       for i in range(40)]   # 40 * 64B > 1024B
            values = [handle.ping() for handle in handles]
            assert values == [(i, 1) for i in range(40)]
