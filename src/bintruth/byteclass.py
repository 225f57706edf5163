"""Byte-level classification of mapped sections.

Every mapped byte (allocated, outside ``.tbss``) lands in exactly one run:
``code`` and ``padding`` inside resolved function boundaries are certain;
bytes between functions are only ever labeled heuristically, and honestly
stay ``gap_unknown`` when they do not parse as padding.
"""
from __future__ import annotations

import bisect
import functools
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


@functools.lru_cache(maxsize=64)
def _tiling_index(
    alphabet: tuple[bytes, ...],
) -> tuple[bytes, dict[int, tuple[bytes, ...]], int]:
    """(every byte of a unit, units by first byte, longest unit length).

    Empty units are dropped: they tile nothing.
    """
    units = [unit for unit in alphabet if unit]
    by_first: dict[int, list[bytes]] = {}
    for unit in units:
        by_first.setdefault(unit[0], []).append(unit)
    return (
        bytes(set(b"".join(units))),
        {first: tuple(group) for first, group in by_first.items()},
        max(map(len, units), default=0),
    )


def padding_suffix_start(blob: bytes, alphabet: tuple[bytes, ...]) -> int:
    """Lowest ``i`` such that ``blob[i:]`` tiles completely with padding units.

    A dynamic program scans back from the end: ``blob[i:]`` tiles when
    some unit starts at ``i`` and what follows it tiles. Two facts bound
    the work. Each skips only tries that cannot succeed, so the answer is
    the one a scan trying every unit at every position gives:

    - A tiling suffix holds only bytes that occur in some unit, so the
      answer is at least the length of ``blob`` with its trailing unit
      bytes stripped. The scan stops at that floor, and a blob that does
      not end in a unit byte returns at once.
    - Only the units that start with ``blob[i]`` can start a tiling at
      ``i``, so only they are tried there.

    Whether ``blob[i:]`` tiles depends only on the next ``L`` positions
    (``L`` the longest unit), so once ``L`` positions in a row fail, no
    earlier one can succeed and the scan stops there too. The cost is
    linear in the trailing unit bytes, not in ``len(blob)``.
    """
    n = len(blob)
    unit_bytes, by_first, longest = _tiling_index(alphabet)
    floor = len(blob.rstrip(unit_bytes))
    if floor == n:
        return n
    ok = bytearray(n + 1)
    ok[n] = 1
    lowest = n
    for i in range(n - 1, floor - 1, -1):
        if lowest > i + longest:
            break
        for unit in by_first.get(blob[i], ()):
            j = i + len(unit)
            if j <= n and ok[j] and blob.startswith(unit, i):
                ok[i] = 1
                lowest = i
                break
    return lowest


def parses_as_padding(blob: bytes, alphabet: tuple[bytes, ...]) -> bool:
    """True when ``blob`` tiles completely with padding units."""
    return padding_suffix_start(blob, alphabet) == 0


def _append(
    runs: list[ByteRun], start: int, end: int, klass: str, confidence: str
) -> None:
    """Add ``[start, end)`` to ``runs``, extending the last run if it continues it."""
    if end <= start:
        return
    if runs:
        last = runs[-1]
        if last.end == start and last.klass == klass and last.confidence == confidence:
            runs[-1] = ByteRun(last.start, end - last.start, klass, confidence)
            return
    runs.append(ByteRun(start, end - start, klass, confidence))


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
    pipeline reports those separately.
    """
    for (a_start, _a_t, a_raw), (b_start, _b_t, _b_raw) in zip(spans, spans[1:]):
        if b_start < a_raw:
            raise OverlapError(
                f"span at {b_start:#x} starts before the span at {a_start:#x} ends"
            )

    runs: list[ByteRun] = []
    i = 0
    for sec in image.mapped_sections:
        if not sec.executable:
            _append(runs, sec.vaddr, sec.end, "data", "certain")
            continue
        i = bisect.bisect_left(spans, (sec.vaddr,), lo=i)
        j = bisect.bisect_left(spans, (sec.end,), lo=i)
        cursor = sec.vaddr
        # An empty span at the section end closes the trailing gap.
        for start, trimmed, raw in (*spans[i:j], (sec.end, sec.end, sec.end)):
            if start > cursor:
                blob = image.section_bytes(sec, cursor, start)
                padding = blob is not None and parses_as_padding(blob, alphabet)
                klass = "padding" if padding else "gap_unknown"
                _append(runs, cursor, start, klass, "heuristic")
            _append(runs, start, trimmed, "code", "certain")
            _append(runs, trimmed, raw, "padding", "certain")
            cursor = max(cursor, raw)
        i = j
    return ByteClassMap(runs=tuple(runs))
