"""The box-speed probe that brackets every timed trial.

The benchmark's box is a shared 2-vCPU VM.  For minutes at a time, about
once an hour, it runs everything 15-40 % slower: ``cpu_ms_per_cmd`` rises
with wall time (the processor slows, nothing is stolen), a ten-run sweep
that meets such a stretch spreads 30-40 %, and no estimator inside a run
can absorb a stretch longer than the run (README.md has the numbers).
A fixed piece of interpreter work timed next to the trial does see it: over
365 recorded ``pipeline_star`` trials the probe below, run before and after
each, turned a -35 % stretch into -7 %.

So the time-derived end-to-end metrics are reported in *reference seconds*:
the measured value divided by the trial's ``slowness``, the mean of the two
probes around it over :data:`REFERENCE_S`.  On the quiet box slowness is 1
and a reference second is a second.  The probe is part of the benchmark,
not of the program, so a change to the program moves the metrics and never
the probe.
"""

from __future__ import annotations

import os
import struct
import time

#: kernel iterations per probe process.
ROUNDS = 1_000_000
#: probe processes run at once.  Two, the box's cores: the program keeps
#: both busy, and a single process does not feel a stretch that halves what
#: two can get.
PROCESSES = 2
#: what one probe takes on the quiet box (median of the quiet stretches of
#: the recordings): the speed that reference seconds refer to.
REFERENCE_S = 0.55

_PACK = struct.Struct("<IHHq")


def _kernel(rounds: int) -> int:
    """Interpreter work of the program's kind: tuples, dict look-ups and
    stores, struct packing, small-integer arithmetic."""
    table: dict[tuple[int, int], tuple[int, int, int, int]] = {}
    buf = bytearray(_PACK.size)
    total = 0
    for i in range(rounds):
        key = (i & 7, i & 1023)
        _PACK.pack_into(buf, 0, i & 0xFFFF, i & 7, i & 63, i)
        a, b, c, d = _PACK.unpack_from(buf, 0)
        seen = table.get(key)
        table[key] = (a, b, c, d) if seen is None else (seen[0] + 1, b, c, d)
        total += len(table) + b
    return total


def probe() -> float:
    """Seconds :data:`PROCESSES` forked processes, started together, each
    take for the kernel (their mean).  Every child is reaped before return."""
    children = []
    for _ in range(PROCESSES):
        reader, writer = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(reader)
                started = time.perf_counter()
                _kernel(ROUNDS)
                os.write(writer, repr(time.perf_counter() - started).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(writer)
        children.append((pid, reader))
    seconds = []
    for pid, reader in children:
        with os.fdopen(reader, "rb") as pipe:
            seconds.append(float(pipe.read()))
        os.waitpid(pid, 0)
    return sum(seconds) / len(seconds)


def slowness(before: float, after: float) -> float:
    """How many times slower than the reference the box ran between two
    probes (1.0 on the quiet box)."""
    return (before + after) / 2 / REFERENCE_S
