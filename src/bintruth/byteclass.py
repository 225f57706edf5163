"""Byte-level classification of mapped sections.

Every mapped byte (allocated, outside ``.tbss``) lands in exactly one run:
``code`` and ``padding`` inside resolved function boundaries are certain;
bytes between functions are only ever labeled heuristically, and honestly
stay ``gap_unknown`` when they do not parse as padding.
"""
from __future__ import annotations

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


def padding_suffix_start(blob: bytes, alphabet: tuple[bytes, ...]) -> int:
    """Lowest ``i`` such that ``blob[i:]`` tiles completely with padding units.

    Scans back from the end. Whether ``blob[i:]`` tiles depends only on
    the next ``L`` positions (``L`` the longest unit), so once ``L``
    positions in a row fail, no earlier one can succeed and the scan stops.
    """
    n = len(blob)
    if not alphabet:
        return n
    longest = max(len(unit) for unit in alphabet)
    ok = bytearray(n + 1)
    ok[n] = 1
    lowest = n
    for i in range(n - 1, -1, -1):
        if lowest > i + longest:
            break
        for unit in alphabet:
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
