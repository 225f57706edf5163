"""Host speed: a fixed unit of Python work, timed next to every operation.

The shared 2-core x86_64 host the bounds were set on changes speed by up
to 2x from one second to the next, with CPU time equal to wall time, so
a run's raw timings move with the host's speed over that run. The
benchmark therefore times ``REPEATS`` runs of ``work()`` right before
and right after each operation and reports the operation's time scaled
to a host on which they take ``NOMINAL_S`` (see :func:`normalised`).
``work()``
belongs to the benchmark and never calls ``bintruth``, so a change to
the program moves the scaled time as much as the raw one, while a change
in host speed moves both the operation and ``work()``.

``work()`` mixes the kinds of work the program does: bytecode-heavy
loops over dicts and ints, small-object churn with string formatting and
sorting, ``struct`` unpacking from a byte buffer, and a JSON round trip.
"""
from __future__ import annotations

import json
import os
import random
import struct
import time

# One timing runs work() this many times: long enough that a single
# preemption does not double it.
REPEATS = 3
# About what REPEATS runs of work() take on the host above in its fast
# phases.
NOMINAL_S = 0.021
CHECKSUM = None  # filled on first call; every later call must match

_rng = random.Random(20221027)
_BYTES = _rng.randbytes(1 << 14)
_DOC = [
    {"start": f"0x{i * 64:x}", "end": f"0x{i * 64 + 40:x}", "names": [f"f{i}", f"g{i}"],
     "flags": {"noreturn": i % 3 == 0}}
    for i in range(300)
]
_RECORD = struct.Struct("<IHBB")


def work() -> int:
    total = 0
    table: dict[int, int] = {}
    for i in range(12000):
        total += i * i % 7
        table[i & 1023] = total
    rows = [{"start": i * 37 % 5003, "name": f"fn_{i}", "size": i & 255} for i in range(1200)]
    rows.sort(key=lambda r: (r["start"], r["name"]))
    total += sum(int(f"0x{r['start']:x}", 16) for r in rows)
    for off in range(0, len(_BYTES) - 8, 8):
        a, b, c, _d = _RECORD.unpack_from(_BYTES, off)
        total ^= a + b * c
    doc = json.loads(json.dumps(_DOC, sort_keys=True))
    total += sum(int(fn["start"], 16) for fn in doc)
    return total


def seconds() -> float:
    """Wall time of ``REPEATS`` runs of ``work()``; raises if its result
    ever changes."""
    global CHECKSUM
    start = time.perf_counter()
    totals = {work() for _ in range(REPEATS)}
    elapsed = time.perf_counter() - start
    if CHECKSUM is None:
        CHECKSUM = min(totals)
    if totals != {CHECKSUM}:
        raise RuntimeError("the reference work gave a different result")
    return elapsed


def seconds_two_cores() -> float:
    """Mean of :func:`seconds` run at once in this process and in a
    forked child, so on both cores of a 2-core host: for operations whose
    pool workers run on whichever core is free."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            os.write(write_end, struct.pack("<d", seconds()))
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        mine = seconds()
        with os.fdopen(read_end, "rb") as pipe:
            data = pipe.read()
    finally:
        os.waitpid(pid, 0)
    if len(data) != 8:
        raise RuntimeError("the reference child gave no time")
    return (mine + struct.unpack("<d", data)[0]) / 2


def normalised(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` scaled by the reference's time around it."""
    return elapsed * NOMINAL_S * 2 / (before + after)
