"""The four workloads.  Imported lazily by name so a workload process
loads only its own side of the program (simulator or live runtime)."""

from __future__ import annotations

import importlib
from typing import Type

from benchmarks.amberbench.workloads.base import Workload

_CLASSES = {
    "sim_sor": "SimSor",
    "sim_mobility": "SimMobility",
    "live_fanout": "LiveFanout",
    "live_mobility": "LiveMobility",
}


def load(name: str) -> Type[Workload]:
    module = importlib.import_module(f"{__name__}.{name}")
    return getattr(module, _CLASSES[name])
