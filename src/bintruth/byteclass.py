"""Byte-level classification of mapped sections.

Every mapped byte (allocated, outside ``.tbss``) lands in exactly one run:
``code`` and ``padding`` inside resolved function boundaries are certain;
bytes between functions are only ever labeled heuristically, and honestly
stay ``gap_unknown`` when they do not parse as padding.

Padding is decided in place over the file's bytes, never on copies. A gap
is padding when :func:`padding_matcher`, one compiled regular expression
per alphabet, matches all of it; that needs a prefix-free alphabet, in
which a range parses in at most one way, so the match is exact and
linear. A body's trailing padding is the lowest tiling start that
:func:`padding_suffix_finder`'s dynamic program finds, for any alphabet.
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
# repeat over a 1 MB gap of 00 bytes would hold some 115 MB; chunks bound
# that.
_CHUNK_UNITS = 4096


@functools.lru_cache(maxsize=64)
def padding_matcher(alphabet: tuple[bytes, ...]) -> Callable[..., bool]:
    """``tiles(buf, pos=0, endpos=len(buf))``: whether ``buf[pos:endpos]``
    is a concatenation of padding units, read in place.

    Empty units tile nothing and are dropped; a repeated unit counts once.
    The alphabet must be prefix-free: a unit that is a prefix of another
    raises :class:`ValueError`, naming both. In a prefix-free alphabet at
    most one unit matches at any position, so a range parses in at most
    one way, and a greedy left-to-right match finds that parse without
    ever backtracking: one compiled ``(?:u1|u2|...){0,N}`` takes up to
    ``N`` units per call, and the range tiles when the calls reach its
    end. That is exact and linear in the range, and needs neither a
    possessive quantifier nor an atomic group (Python 3.11 and later).
    """
    units = sorted({unit for unit in alphabet if unit})
    # Sorted, a unit's longer extensions follow it directly.
    for shorter, longer in zip(units, units[1:]):
        if longer.startswith(shorter):
            raise ValueError(
                f"padding unit {shorter.hex()} is a prefix of {longer.hex()}; "
                "the alphabet must be prefix-free"
            )
    alternatives = b"|".join(map(re.escape, units))
    chunk = re.compile(b"(?:%s){0,%d}" % (alternatives, _CHUNK_UNITS) if units else b"").match

    def tiles(buf: bytes, pos: int = 0, endpos: int | None = None) -> bool:
        if endpos is None:
            endpos = len(buf)
        end = chunk(buf, pos, endpos).end()
        # A call that stops short of the end after some progress may have
        # stopped at its unit limit, not at a byte no unit starts with.
        while end != endpos and end != pos:
            pos, end = end, chunk(buf, end, endpos).end()
        return end == endpos

    return tiles


@functools.lru_cache(maxsize=64)
def padding_suffix_finder(alphabet: tuple[bytes, ...]) -> Callable[[bytes, int, int], int]:
    """``find(buf, lo, hi)``: the lowest ``i`` in ``[lo, hi]`` such that
    ``buf[i:hi]`` tiles completely with padding units.

    The units are indexed once, here; ``find`` reads ``buf`` in place. A
    dynamic program scans back from ``hi``: ``buf[i:hi]`` tiles when some
    unit starts at ``i`` and what follows it tiles. Two facts bound the
    work. Each skips only tries that cannot succeed, so the answer is the
    one a scan trying every unit at every position gives:

    - A tiling suffix holds only bytes that occur in some unit, so the
      answer is at least the start of the run of such bytes that ends at
      ``hi``. The scan stops at that floor, and a range that does not end
      in a unit byte returns at once. The run is found by stripping
      windows of doubling width off the end, so a long run is still read
      in linear time and no byte before it is copied.
    - Only the units that start with ``buf[i]`` can start a tiling at
      ``i``, so only they are tried there.

    Whether ``buf[i:hi]`` tiles depends only on the next ``L`` positions
    (``L`` the longest unit), so once ``L`` positions in a row fail, no
    earlier one can succeed and the scan stops there too. The cost is
    linear in the trailing unit bytes, not in ``hi - lo``. Unlike
    :func:`padding_matcher`, this takes any alphabet, prefix-free or not.
    """
    units = [unit for unit in alphabet if unit]
    unit_bytes = bytes(set(b"".join(units)))
    longest = max(map(len, units), default=0)
    grouped: dict[int, list[bytes]] = {}
    for unit in units:
        grouped.setdefault(unit[0], []).append(unit)
    by_first = {first: tuple(group) for first, group in grouped.items()}

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


def padding_suffix_start(blob: bytes, alphabet: tuple[bytes, ...]) -> int:
    """Lowest ``i`` such that ``blob[i:]`` tiles completely with padding
    units: :func:`padding_suffix_finder` over all of ``blob``."""
    return padding_suffix_finder(alphabet)(blob, 0, len(blob))


def parses_as_padding(blob: bytes, alphabet: tuple[bytes, ...]) -> bool:
    """True when ``blob`` tiles completely with padding units: the
    :func:`padding_matcher` of the (prefix-free) alphabet over all of it."""
    return padding_matcher(alphabet)(blob)


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
    pipeline reports those separately. Each gap between spans is decided
    by the alphabet's :func:`padding_matcher` over the file's bytes in
    place; a gap with no bytes in the file (NOBITS) stays ``gap_unknown``.
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

    tiles = padding_matcher(alphabet)
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
                padding = delta is not None and tiles(data, delta + cursor, delta + start)
                klass = "padding" if padding else "gap_unknown"
                add(cursor, start, klass, "heuristic")
            add(start, trimmed, "code", "certain")
            add(trimmed, raw, "padding", "certain")
            cursor = max(cursor, raw)
        i = j
    return ByteClassMap(runs=tuple([ByteRun(a, b - a, k, c) for a, b, k, c in runs]))
