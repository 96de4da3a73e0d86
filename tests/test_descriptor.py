"""Tests for object descriptors (paper section 3.2).

A descriptor is one int: ``table.where[address]`` is the node where the
object is, as far as the table's node knows; the node's own id means
resident, any other id a forwarding address, no entry the zero-filled
page.  The state machine at the end holds the table equal to a model of
the two-field record (state, forwarding address) it replaces.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.descriptor import DescriptorTable
from repro.errors import DescriptorError, ObjectNotFoundError


class TestDescriptorTable:
    def test_missing_entry_means_uninitialized(self):
        """A missing entry is the zero-filled page of section 3.2: the
        object is remote, location unknown."""
        table = DescriptorTable(0)
        assert 0x1000 not in table.where
        assert not table.is_resident(0x1000)

    def test_set_resident(self):
        table = DescriptorTable(0)
        table.set_resident(0x1000)
        assert table.is_resident(0x1000)
        assert table.where[0x1000] == 0

    def test_forwarding_address(self):
        table = DescriptorTable(0)
        table.set_resident(0x1000)
        table.set_forwarding(0x1000, 3)
        assert not table.is_resident(0x1000)
        assert table.where[0x1000] == 3

    def test_forwarding_to_self_rejected(self):
        table = DescriptorTable(2)
        with pytest.raises(DescriptorError):
            table.set_forwarding(0x1000, 2)

    def test_hint_never_downgrades_resident(self):
        """Path-compression hints are advisory; they must not clobber a
        resident descriptor (the object really is here)."""
        table = DescriptorTable(0)
        table.set_resident(0x1000)
        table.update_hint(0x1000, 5)
        assert table.is_resident(0x1000)

    def test_hint_updates_stale_forwarding(self):
        table = DescriptorTable(0)
        table.set_forwarding(0x1000, 1)
        table.update_hint(0x1000, 4)
        assert table.where[0x1000] == 4

    def test_hint_to_self_ignored(self):
        table = DescriptorTable(2)
        table.set_forwarding(0x1000, 1)
        table.update_hint(0x1000, 2)
        assert table.where[0x1000] == 1

    def test_hint_installs_on_uninitialized(self):
        table = DescriptorTable(0)
        table.update_hint(0x1000, 4)
        assert table.where[0x1000] == 4

    def test_clear_returns_to_uninitialized(self):
        table = DescriptorTable(0)
        table.set_resident(0x1000)
        table.clear(0x1000)
        assert 0x1000 not in table.where
        # Clearing twice is harmless (page already zero-filled).
        table.clear(0x1000)

    def test_len_and_contains(self):
        table = DescriptorTable(0)
        table.set_resident(0x1000)
        table.set_forwarding(0x2000, 1)
        assert len(table.where) == 2
        assert 0x1000 in table.where
        assert 0x3000 not in table.where


# ---------------------------------------------------------------------------
# The one-int table against the record semantics it replaces
# ---------------------------------------------------------------------------

NODE = 1
NODES = st.integers(min_value=0, max_value=3)
ADDRESS_LIST = (0x1000, 0x1001, 0x1002, 0x1003, 0x2000)
ADDRESSES = st.sampled_from(ADDRESS_LIST)


def home_of(address):
    return address % 4


class RecordModel:
    """One ``(resident, forward_to)`` record per address, as the
    descriptor dataclass kept it; a missing record is uninitialized."""

    def __init__(self, node):
        self.node = node
        self.records = {}

    def set_resident(self, address):
        self.records[address] = (True, None)

    def set_forwarding(self, address, forward_to):
        if forward_to == self.node:
            raise DescriptorError(address)
        self.records[address] = (False, forward_to)

    def update_hint(self, address, forward_to):
        record = self.records.get(address)
        if record is not None and record[0]:
            return
        if forward_to == self.node:
            return
        self.records[address] = (False, forward_to)

    def clear(self, address):
        self.records.pop(address, None)

    def is_resident(self, address):
        record = self.records.get(address)
        return record is not None and record[0]

    def next_hop(self, address, home_of):
        record = self.records.get(address)
        if record is not None:
            return self.node if record[0] else record[1]
        home = home_of(address)
        if home == self.node:
            raise ObjectNotFoundError(address)
        return home


def _outcome(call):
    try:
        return call()
    except (DescriptorError, ObjectNotFoundError) as error:
        return type(error)


class TableAgainstRecords(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = DescriptorTable(NODE)
        self.model = RecordModel(NODE)

    def _both(self, name, *args):
        got = _outcome(lambda: getattr(self.table, name)(*args))
        want = _outcome(lambda: getattr(self.model, name)(*args))
        assert got == want, (name, args)

    @rule(address=ADDRESSES)
    def set_resident(self, address):
        self._both("set_resident", address)

    @rule(address=ADDRESSES, node=NODES)
    def set_forwarding(self, address, node):
        self._both("set_forwarding", address, node)

    @rule(address=ADDRESSES, node=NODES)
    def update_hint(self, address, node):
        self._both("update_hint", address, node)

    @rule(address=ADDRESSES)
    def clear(self, address):
        self._both("clear", address)

    @rule(address=ADDRESSES)
    def next_hop(self, address):
        self._both("next_hop", address, home_of)

    @invariant()
    def every_address_reads_the_same(self):
        for address in ADDRESS_LIST:
            assert self.table.is_resident(address) \
                == self.model.is_resident(address)
            record = self.model.records.get(address)
            # The one word: this node when resident, else the hint.
            word = None if record is None \
                else NODE if record[0] else record[1]
            assert self.table.where.get(address) == word


TableAgainstRecords.TestCase.settings = settings(
    derandomize=True, max_examples=60, stateful_step_count=30,
    deadline=None)
TestTableAgainstRecords = TableAgainstRecords.TestCase
