"""Page tables and ownership records for the DSM baseline.

Coherence unit: the fixed-size page (1 KiB by default, from the cost
model).  Each page has a *manager* chosen statically by page number (Li &
Hudak's fixed distributed manager); the manager serializes ownership
transactions for its pages and tracks the owner and the copyset.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Set


class PageAccess(enum.Enum):
    NONE = 0
    READ = 1
    WRITE = 2


class PageTable:
    """One node's view of its page access rights."""

    def __init__(self, node: int):
        self.node = node
        self._access: Dict[int, PageAccess] = {}

    def access(self, page: int) -> PageAccess:
        return self._access.get(page, PageAccess.NONE)

    def set_access(self, page: int, access: PageAccess) -> None:
        if access is PageAccess.NONE:
            self._access.pop(page, None)
        else:
            self._access[page] = access

    def pages_held(self) -> int:
        return len(self._access)


@dataclass
class OwnershipRecord:
    """Manager-side state for one page."""

    owner: int
    copyset: Set[int] = field(default_factory=set)
    #: A fault transaction is in flight; later requests queue here.
    busy: bool = False
    queue: Deque = field(default_factory=deque)


class ManagerTable:
    """Ownership records for the pages a node manages."""

    def __init__(self, node: int, initial_owner: int = 0):
        self.node = node
        self._records: Dict[int, OwnershipRecord] = {}
        self._initial_owner = initial_owner

    def record(self, page: int) -> OwnershipRecord:
        if page not in self._records:
            # Untouched pages start owned (zero-filled) by the configured
            # initial owner with an empty copyset.
            self._records[page] = OwnershipRecord(
                owner=self._initial_owner,
                copyset={self._initial_owner})
        return self._records[page]


def pages_of_range(addr: int, nbytes: int, page_bytes: int) -> range:
    if nbytes <= 0:
        nbytes = 1
    first = addr // page_bytes
    last = (addr + nbytes - 1) // page_bytes
    return range(first, last + 1)
