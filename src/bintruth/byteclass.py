"""Byte-level classification of mapped sections.

Every mapped byte (allocated, outside ``.tbss``) lands in exactly one run:
``code`` and ``padding`` inside resolved function boundaries are certain;
bytes between functions are only ever labeled heuristically, and honestly
stay ``gap_unknown`` when they do not parse as padding.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from .model import BinaryImage

CLASSES = ("code", "padding", "data", "gap_unknown")
CONFIDENCES = ("certain", "heuristic")


class OverlapError(ValueError):
    """Two function spans claim the same byte."""


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def _gap_runs(
    image: BinaryImage,
    sec,
    start: int,
    end: int,
    alphabet: tuple[bytes, ...],
) -> list[ByteRun]:
    if end <= start:
        return []
    blob = image.section_bytes(sec, start, end)
    padding = blob is not None and parses_as_padding(blob, alphabet)
    klass = "padding" if padding else "gap_unknown"
    return [ByteRun(start, end - start, klass, "heuristic")]


def classify_bytes(
    image: BinaryImage,
    spans: list[tuple[int, int, int]],
    alphabet: tuple[bytes, ...],
) -> ByteClassMap:
    """Tile the mapped sections given (start, trimmed end, raw end) spans.

    Spans landing outside executable sections are ignored here; the
    pipeline reports those separately. Overlapping spans raise
    :class:`OverlapError` since they indicate an upstream bug.
    """
    ordered = sorted(spans)
    for (a_start, _a_t, a_raw), (b_start, _b_t, _b_raw) in zip(ordered, ordered[1:]):
        if b_start < a_raw:
            raise OverlapError(
                f"spans at {a_start:#x} and {b_start:#x} overlap"
            )

    runs: list[ByteRun] = []
    for sec in image.sections:
        if not sec.mapped:
            continue
        if not sec.executable:
            runs.append(ByteRun(sec.vaddr, sec.size, "data", "certain"))
            continue
        cursor = sec.vaddr
        for start, trimmed, raw in ordered:
            if start < sec.vaddr or start >= sec.end:
                continue
            runs.extend(_gap_runs(image, sec, cursor, start, alphabet))
            if trimmed > start:
                runs.append(ByteRun(start, trimmed - start, "code", "certain"))
            if raw > trimmed:
                runs.append(ByteRun(trimmed, raw - trimmed, "padding", "certain"))
            cursor = max(cursor, raw)
        runs.extend(_gap_runs(image, sec, cursor, sec.end, alphabet))

    runs.sort(key=lambda r: r.start)
    merged: list[ByteRun] = []
    for run in runs:
        if (
            merged
            and merged[-1].end == run.start
            and merged[-1].klass == run.klass
            and merged[-1].confidence == run.confidence
        ):
            merged[-1] = ByteRun(
                merged[-1].start,
                merged[-1].length + run.length,
                run.klass,
                run.confidence,
            )
        else:
            merged.append(run)
    return ByteClassMap(runs=tuple(merged))
