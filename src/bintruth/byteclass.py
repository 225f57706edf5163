"""Byte-level classification of mapped sections.

Every mapped byte (allocated, outside ``.tbss``) lands in exactly one run:
``code`` and ``padding`` inside resolved function boundaries are certain;
bytes between functions are only ever labeled heuristically, and honestly
stay ``gap_unknown`` when they do not parse as padding.

Padding is decided in place over the file's bytes, never on copies, by
one primitive for any alphabet: :func:`padding_suffix_finder` gives the
lowest start from which a range tiles with padding units. A body's
trailing padding starts there, and a gap is padding when that start is
the gap's own.
"""
from __future__ import annotations

import bisect
import functools
import re
from collections.abc import Callable

from .model import BinaryImage, record

CLASSES = ("code", "padding", "data", "gap_unknown")
CONFIDENCES = ("certain", "heuristic")


class OverlapError(ValueError):
    """Function spans overlap or are not in start order."""


@record
class ByteRun:
    start: int
    length: int
    klass: str
    confidence: str

    def __post_init__(self) -> None:
        if self.klass not in CLASSES:
            raise ValueError(f"unknown byte class {self.klass!r}")
        if self.confidence not in CONFIDENCES:
            raise ValueError(f"unknown confidence {self.confidence!r}")
        if self.length <= 0:
            raise ValueError("runs cover at least one byte")

    @property
    def end(self) -> int:
        return self.start + self.length


@record
class ByteClassMap:
    runs: tuple[ByteRun, ...]


# Units one regular-expression call parses at most. CPython's engine keeps
# about 115 bytes of state per repeat of a group (3.11), so an unbounded
# repeat over a 1 MB run of 00 bytes would hold some 115 MB; chunks bound
# that.
_CHUNK_UNITS = 4096


@functools.lru_cache(maxsize=64)
def padding_suffix_finder(alphabet: tuple[bytes, ...]) -> Callable[[bytes, int, int], int]:
    """``find(buf, lo, hi)``: the lowest ``i`` in ``[lo, hi]`` such that
    ``buf[i:hi]`` tiles completely with padding units.

    The units are indexed once, here; ``find`` reads ``buf`` in place and
    takes any alphabet. Empty units tile nothing and are dropped; a
    repeated unit counts once. Three steps, each exact:

    - A tiling suffix holds only bytes that occur in some unit, so the
      answer is at least the start of the run of such bytes that ends at
      ``hi``: the floor. The run is found by stripping windows of
      doubling width off the end, so a long run is still read in linear
      time and no byte before it is copied. A range that does not end in
      a unit byte returns ``hi`` at once.
    - When the run tiles whole, the floor is the answer. One compiled
      ``(?:u1|u2|...){0,N}`` takes up to ``N`` units per call, greedily,
      and the run tiles when the calls reach ``hi``: a parse that gets
      there is a tiling, whatever the alphabet. Only a parse that stops
      short proves nothing when a unit is a prefix of another, so that
      case, and any run that does not tile, goes on to the third step.
    - A dynamic program scans back from ``hi``: ``buf[i:hi]`` tiles when
      some unit that starts with ``buf[i]`` starts at ``i`` and what
      follows it tiles. Whether it tiles depends only on the next ``L``
      positions (``L`` the longest unit), so once ``L`` positions in a
      row fail, no earlier one can succeed and the scan stops there.

    Both the match and the scan are linear in the trailing unit bytes, not
    in ``hi - lo``.
    """
    units = sorted({unit for unit in alphabet if unit})
    unit_bytes = bytes(set(b"".join(units)))
    longest = max(map(len, units), default=0)
    grouped: dict[int, list[bytes]] = {}
    for unit in units:
        grouped.setdefault(unit[0], []).append(unit)
    by_first = {first: tuple(group) for first, group in grouped.items()}
    alternatives = b"|".join(map(re.escape, units))
    chunk = re.compile(b"(?:%s){0,%d}" % (alternatives, _CHUNK_UNITS)).match

    def find(buf: bytes, lo: int, hi: int) -> int:
        width = 32
        while True:
            left = max(lo, hi - width)
            floor = left + len(buf[left:hi].rstrip(unit_bytes))
            if floor > left or left == lo:
                break
            width *= 2
        if floor == hi:
            return hi
        pos, end = floor, chunk(buf, floor, hi).end()
        # A call that stops short of hi after some progress may have
        # stopped at its unit limit, not at a byte no unit starts with.
        while end != hi and end != pos:
            pos, end = end, chunk(buf, end, hi).end()
        if end == hi:
            return floor
        # ok[i - floor]: buf[i:hi] tiles. Nothing below the floor is ever set.
        ok = bytearray(hi - floor + 1)
        ok[hi - floor] = 1
        lowest = hi
        for i in range(hi - 1, floor - 1, -1):
            if lowest > i + longest:
                break
            for unit in by_first.get(buf[i], ()):
                j = i + len(unit)
                if j <= hi and ok[j - floor] and buf.startswith(unit, i):
                    ok[i - floor] = 1
                    lowest = i
                    break
        return lowest

    return find


def classify_bytes(
    image: BinaryImage,
    spans: list[tuple[int, int, int]],
    alphabet: tuple[bytes, ...],
) -> ByteClassMap:
    """Tile the mapped sections given (start, trimmed end, raw end) spans.

    ``spans`` must be in start order, as :func:`normalize.build_ground_truth`
    passes them; a span that starts before the previous one's raw end,
    whether it overlaps it or comes out of order, raises
    :class:`OverlapError`, since either is an upstream bug. One pass walks
    the mapped sections in address order and appends runs already merged.
    Spans landing outside executable sections are ignored here; the
    pipeline reports those separately. A gap between spans is padding when
    the alphabet's :func:`padding_suffix_finder` finds that all of it
    tiles, over the file's bytes in place; a gap with no bytes in the file
    (NOBITS) stays ``gap_unknown``.
    """
    for (a_start, _a_t, a_raw), (b_start, _b_t, _b_raw) in zip(spans, spans[1:]):
        if b_start < a_raw:
            raise OverlapError(
                f"span at {b_start:#x} starts before the span at {a_start:#x} ends"
            )

    # Runs stay plain [start, end, class, confidence] lists while they
    # grow; each becomes a ByteRun once, at the end.
    runs: list[list] = []
    last: list = [None, None, None, None]

    def add(start: int, end: int, klass: str, confidence: str) -> None:
        nonlocal last
        if end <= start:
            return
        if last[1] == start and last[2] == klass and last[3] == confidence:
            last[1] = end
        else:
            last = [start, end, klass, confidence]
            runs.append(last)

    find = padding_suffix_finder(alphabet)
    data = image.raw
    i = 0
    for sec in image.mapped_sections:
        if not sec.executable:
            add(sec.vaddr, sec.end, "data", "certain")
            continue
        i = bisect.bisect_left(spans, (sec.vaddr,), lo=i)
        j = bisect.bisect_left(spans, (sec.end,), lo=i)
        cursor = sec.vaddr
        # What turns an address of the section into a file offset; None: NOBITS.
        delta = None if sec.file_offset is None else sec.file_offset - sec.vaddr
        # An empty span at the section end closes the trailing gap.
        for start, trimmed, raw in (*spans[i:j], (sec.end, sec.end, sec.end)):
            if start > cursor:
                gap = None if delta is None else delta + cursor
                padding = gap is not None and find(data, gap, delta + start) == gap
                klass = "padding" if padding else "gap_unknown"
                add(cursor, start, klass, "heuristic")
            add(start, trimmed, "code", "certain")
            add(trimmed, raw, "padding", "certain")
            cursor = max(cursor, raw)
        i = j
    return ByteClassMap(runs=tuple([ByteRun(a, b - a, k, c) for a, b, k, c in runs]))
