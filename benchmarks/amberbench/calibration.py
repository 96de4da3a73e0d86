"""How fast is this host right now?

A shared VM is not one machine.  On the 2-vCPU box this was written on,
the same code ran at rates that differed by 20 % between two sets of runs
minutes apart, and by up to 2x inside some minutes: dips of under two
seconds and slow phases of tens of seconds, far beyond any bound.  So
rounds are short (~0.3 s), host speed is sampled between every two of
them by timing one fixed slice of work, end-to-end times are multiplied
by it and rates divided by it, and a pass reports its median round: the
numbers read as if taken on one reference host.

What the slice does was chosen by measurement (4 minutes of each workload
with candidate slices interleaved, spread of the medians of consecutive
35-round blocks, raw against corrected):

    slice                live_mobility  live_fanout  sim_sor  sim_mobility
    none (raw)               0.512         0.136      0.049      0.092
    integer loop             0.142         0.066      0.023      0.023
    object churn             0.095         0.055      0.025      0.060
    pipe write+read          0.047         0.032      0.023      0.018
    all three (used)         0.046         0.034      0.016      0.020

An integer loop alone under-corrects: a slow phase costs allocation- and
syscall-heavy code about twice what it costs register arithmetic.
Sampling matters as much as the slice: taken only every 2 s, the same
correction barely helps.

The live workloads keep both vCPUs busy, and two busy vCPUs do not run at
the speed of one: for them a helper process runs the same slice at the
same moment (``parallel=True``).  The helper is this file run as a
script; it imports nothing of the program.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter
from typing import IO, Optional

#: Time the mixed slice takes on the reference host all end-to-end times
#: are expressed on (about what an idle 2.1 GHz Xeon vCPU needs, so the
#: corrected numbers stay close to the raw ones there).  It only fixes
#: the scale.
REFERENCE_SLICE_S = 0.014


def ops_per_s(slices: int = 31) -> float:
    """The fixed integer loop ``repro perf`` calibrates with; reported as
    ``host.calibration_ops_per_s`` (median of ``slices`` 7 ms slices)."""
    rates = []
    for _ in range(slices):
        t0 = perf_counter()
        _integer_part(100_000)
        rates.append(100_000 / (perf_counter() - t0))
    rates.sort()
    return rates[len(rates) // 2]


def _integer_part(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += (i * 3) // 7
    return acc


def _churn_part(n: int) -> int:
    table: dict = {}
    kept = []
    for i in range(n):
        table[i & 2047] = (i, str(i), [i, i + 1])
        if not i & 7:
            kept.append(table.get((i * 7) & 2047))
    return sum(entry[0] for entry in table.values()) + len(kept)


def _syscall_part(n: int, read_fd: int, write_fd: int) -> None:
    for _ in range(n):
        os.write(write_fd, b"x")
        os.read(read_fd, 1)


class _Slice:
    """The fixed slice of work: about 10 ms of integer arithmetic, 10 ms
    of allocation and dict/list churn, 2 ms of pipe syscalls."""

    def __init__(self) -> None:
        self._read_fd, self._write_fd = os.pipe()

    def speed(self) -> float:
        t0 = perf_counter()
        _integer_part(100_000)
        _churn_part(12_000)
        _syscall_part(2_500, self._read_fd, self._write_fd)
        return REFERENCE_SLICE_S / (perf_counter() - t0)

    def close(self) -> None:
        os.close(self._read_fd)
        os.close(self._write_fd)


class HostSpeed:
    """Samples host speed as a multiple of the reference host's."""

    def __init__(self, parallel: bool):
        self._slice = _Slice()
        self._helper: Optional[subprocess.Popen] = None
        if parallel:
            self._helper = subprocess.Popen(
                [sys.executable, __file__],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            self._ask: IO[bytes] = self._helper.stdin   # type: ignore
            self._answer: IO[bytes] = self._helper.stdout  # type: ignore

    def sample(self) -> float:
        if self._helper is None:
            return self._slice.speed()
        self._ask.write(b"go\n")
        self._ask.flush()
        own = self._slice.speed()
        other = float(self._answer.readline())
        return (own + other) / 2.0

    def close(self) -> None:
        self._slice.close()
        helper, self._helper = self._helper, None
        if helper is not None:
            self._ask.close()       # end of input ends its loop
            helper.wait(timeout=10)
            self._answer.close()


if __name__ == "__main__":
    _slice = _Slice()
    for _line in sys.stdin.buffer:
        sys.stdout.write(f"{_slice.speed()!r}\n")
        sys.stdout.flush()
