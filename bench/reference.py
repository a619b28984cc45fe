"""Host-speed probe: a fixed reference kernel timed beside the measured work.

The hosts this benchmark runs on share their CPUs.  Measured on the sizing
host (bench/README.md, "Host noise"), the same ``optimize()`` call takes
0.66x to 2x its median from one second to the next, and the level a
20-second run settles at moves by +-10 % from run to run — more than the
bound of any time metric.  Most of that is the host, not the program: a
fixed pure-Python kernel run beside the measured work slows down with it.

So every timed operation is bracketed by runs of :func:`kernel`, and a time
is reported as *seconds on a host where the kernel takes* :data:`NOMINAL_S`:
the measured seconds divided by :meth:`HostProbe.factor` over the
operation's interval.  The raw seconds and the factor are kept in the result
record beside the scaled values.  The kernel is part of the benchmark, so a
change to ``src/`` cannot move it.

The kernel has to load the host the way the measured work does.  A cold
``optimize()`` is one thread, and the kernel runs in that thread.  The
planning server keeps both CPUs busy, and what one busy CPU suffers says
little about two (correlation 0.5 against 0.9, same section of the README):
there the kernel runs in two helper processes at once.
"""

from __future__ import annotations

import os
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from time import perf_counter
from typing import List, Tuple

#: Seconds one :func:`kernel` call takes on the sizing host at its median
#: speed; times are reported as if the kernel took exactly this long.
NOMINAL_S = 0.0120
#: Kernel runs this many seconds before and after an interval count
#: towards the interval's factor: long enough to average the kernel's own
#: jitter, short against the tens of seconds over which the host drifts.
WINDOW_S = 1.0
#: Kernel time spent per second of measured work.
SHARE = 0.2

_ITERATIONS = 8000
_CHECKSUM = 16968000.0
_SAMPLE = struct.Struct("dd")


@dataclass(frozen=True)
class _Config:
    reducers: int
    sort_mb: float
    flags: Tuple[str, ...]


def kernel() -> float:
    """About 12 ms of what the optimizer does all day: frozen-dataclass
    ``replace``, tuple keys, dict memo lookups, float arithmetic."""
    memo = {}
    config = _Config(1, 100.0, ("combiner", "compress", "spill"))
    total = 0.0
    for index in range(_ITERATIONS):
        candidate = replace(config, reducers=index & 255, sort_mb=config.sort_mb + 1.0)
        key = (candidate.reducers, candidate.flags, index & 63)
        value = memo.get(key)
        if value is None:
            value = memo[key] = sum(len(flag) * candidate.sort_mb for flag in candidate.flags)
        total += value
    return total


def _timed_kernels(seconds: float) -> List[Tuple[float, float]]:
    """Run the kernel back to back for ``seconds``, at least once:
    ``(midpoint, seconds)`` of each call on the ``perf_counter`` clock."""
    samples = []
    deadline = perf_counter() + seconds
    while True:
        started = perf_counter()
        checksum = kernel()
        ended = perf_counter()
        if checksum != _CHECKSUM:
            raise RuntimeError(f"reference kernel computed {checksum!r}, not {_CHECKSUM!r}")
        samples.append(((started + ended) / 2, ended - started))
        if ended >= deadline:
            return samples


def _helper_main(commands: int, results: int) -> None:
    """A helper process: run the kernel for as long as each command says."""
    try:
        while True:
            command = os.read(commands, 8)
            seconds = struct.unpack("d", command)[0] if len(command) == 8 else -1.0
            if seconds < 0:
                return  # told to stop, or the probe is gone
            samples = _timed_kernels(seconds)
            payload = b"".join(_SAMPLE.pack(*sample) for sample in samples)
            os.write(results, struct.pack("I", len(samples)) + payload)
    finally:
        os._exit(0)


class HostProbe:
    """Kernel timings taken during one run, and the speed factors they give.

    With ``helpers``, the kernel runs in that many forked processes at once
    (fork them before the process starts any thread) and :meth:`close` must
    be called; without, it runs in the calling thread.
    """

    def __init__(self, helpers: int = 0) -> None:
        #: ``(midpoint, seconds)`` of each kernel call, ``perf_counter`` clock.
        self.samples: List[Tuple[float, float]] = []
        self._sorted = True
        self.processes = max(helpers, 1)
        self._helpers: List[Tuple[int, int, int]] = []  # (pid, command fd, result fd)
        for _ in range(helpers):
            command_read, command_write = os.pipe()
            result_read, result_write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(command_write)
                os.close(result_read)
                for _other, other_write, other_read in self._helpers:
                    os.close(other_write)
                    os.close(other_read)
                _helper_main(command_read, result_write)
            os.close(command_read)
            os.close(result_write)
            self._helpers.append((pid, command_write, result_read))

    def close(self) -> None:
        """Stop the helper processes and wait until each has ended."""
        for pid, command_write, result_read in self._helpers:
            # Said, not implied by closing: a pool worker forked meanwhile
            # may still hold a copy of the pipe's write end.
            os.write(command_write, struct.pack("d", -1.0))
            os.close(command_write)
            os.close(result_read)
            os.waitpid(pid, 0)
        self._helpers = []

    def sample_for(self, seconds: float) -> None:
        """Run the kernel back to back for ``seconds``; at least once."""
        if not self._helpers:
            self.samples.extend(_timed_kernels(seconds))
            return
        for _pid, command_write, _result_read in self._helpers:
            os.write(command_write, struct.pack("d", seconds))
        for _pid, _command_write, result_read in self._helpers:
            (count,) = struct.unpack("I", _read_exactly(result_read, 4))
            payload = _read_exactly(result_read, count * _SAMPLE.size)
            self.samples.extend(_SAMPLE.iter_unpack(payload))
        self._sorted = False

    def sample_after(self, work_seconds: float) -> None:
        """The kernel's share after ``work_seconds`` of measured work."""
        self.sample_for(work_seconds * SHARE)

    def factor(self, start: float, end: float) -> float:
        """Host slowness over ``[start, end]``: 1.0 is the nominal host, 1.2
        a host on which everything takes 20 % longer."""
        if not self._sorted:
            self.samples.sort()
            self._sorted = True
        low = bisect_left(self.samples, (start - WINDOW_S,))
        high = bisect_right(self.samples, (end + WINDOW_S,))
        if low == high:
            raise RuntimeError("no reference kernel ran near the measured interval")
        window = self.samples[low:high]
        return sum(seconds for _time, seconds in window) / len(window) / NOMINAL_S

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` in nominal-host seconds."""
        return (end - start) / self.factor(start, end)

    def summary(self) -> dict:
        ordered = sorted(seconds for _time, seconds in self.samples)
        return {
            "kernel_calls": len(ordered),
            "kernel_processes": self.processes,
            "kernel_median_s": ordered[len(ordered) // 2],
            "kernel_min_s": ordered[0],
            "kernel_max_s": ordered[-1],
            "nominal_s": NOMINAL_S,
            "window_s": WINDOW_S,
            "factor_whole_run": sum(ordered) / len(ordered) / NOMINAL_S,
        }


def _read_exactly(descriptor: int, size: int) -> bytes:
    chunks = []
    while size:
        chunk = os.read(descriptor, size)
        if not chunk:
            raise RuntimeError("a reference-kernel helper process ended early")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)
