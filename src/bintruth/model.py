"""Core domain types shared by every stage of the harness.

All types are immutable value objects: construct once, share freely across
threads, compare structurally.  Addresses are virtual addresses throughout;
file offsets appear only on :class:`SectionRecord`.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

SEVERITIES = ("info", "warning", "error")

# Closed, documented set of diagnostic codes.  Every normalization decision
# that alters or discards data is explained by exactly one diagnostic, so a
# reader can reconstruct how the ground truth was derived.
GT_MISSING_SIZE = "GT_MISSING_SIZE"
GT_ALIAS_MERGED = "GT_ALIAS_MERGED"
GT_MULTI_ENTRY_MERGED = "GT_MULTI_ENTRY_MERGED"
GT_PADDING_TRIMMED = "GT_PADDING_TRIMMED"
GT_SIZE_OVERLAP = "GT_SIZE_OVERLAP"
GT_INCOMPLETE_EXCLUDED = "GT_INCOMPLETE_EXCLUDED"
GT_NO_DEBUG_INFO = "GT_NO_DEBUG_INFO"
GT_DISCONTIGUOUS_RANGE = "GT_DISCONTIGUOUS_RANGE"
GT_SYMBOL_OUTSIDE_SECTIONS = "GT_SYMBOL_OUTSIDE_SECTIONS"
GT_FUNCTION_NOT_EXECUTABLE = "GT_FUNCTION_NOT_EXECUTABLE"
GT_BAD_STRING_OFFSET = "GT_BAD_STRING_OFFSET"
GT_START_MISMATCH = "GT_START_MISMATCH"
GT_SUBPROGRAM_NO_ADDRESS = "GT_SUBPROGRAM_NO_ADDRESS"
GT_DEBUG_OUTSIDE_EXEC = "GT_DEBUG_OUTSIDE_EXEC"
GT_MALFORMED_DEBUG_DATA = "GT_MALFORMED_DEBUG_DATA"

DIAGNOSTIC_CODES = frozenset({
    GT_MISSING_SIZE,
    GT_ALIAS_MERGED,
    GT_MULTI_ENTRY_MERGED,
    GT_PADDING_TRIMMED,
    GT_SIZE_OVERLAP,
    GT_INCOMPLETE_EXCLUDED,
    GT_NO_DEBUG_INFO,
    GT_DISCONTIGUOUS_RANGE,
    GT_SYMBOL_OUTSIDE_SECTIONS,
    GT_FUNCTION_NOT_EXECUTABLE,
    GT_BAD_STRING_OFFSET,
    GT_START_MISMATCH,
    GT_SUBPROGRAM_NO_ADDRESS,
    GT_DEBUG_OUTSIDE_EXEC,
    GT_MALFORMED_DEBUG_DATA,
})


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One auditable extraction or normalization event.

    ``span`` is an optional ``(virtual address, length)`` pair locating the
    bytes the event is about.
    """

    severity: str
    code: str
    message: str
    span: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")


@dataclass(frozen=True, slots=True)
class SectionRecord:
    """One section of the binary.

    ``file_offset`` is ``None`` for sections without file-backed content
    (NOBITS, e.g. ``.bss``). ``tls`` marks thread-local sections.
    """

    name: str
    vaddr: int
    size: int
    executable: bool
    allocated: bool
    file_offset: int | None
    tls: bool = False

    @property
    def mapped(self) -> bool:
        """Whether the section takes non-empty address space in the image.

        A NOBITS TLS section (``.tbss``) does not: it only sizes each
        thread's block, and its address may overlap the next section.
        """
        return (
            self.allocated
            and self.size > 0
            and not (self.tls and self.file_offset is None)
        )

    @property
    def end(self) -> int:
        return self.vaddr + self.size


SYMBOL_KINDS = ("function", "object", "other")
SYMBOL_BINDINGS = ("local", "global", "weak")


@dataclass(frozen=True, slots=True)
class SymbolRecord:
    """One symbol-table row.  ``size == 0`` means unknown, never empty."""

    name: str
    value: int
    size: int
    kind: str
    binding: str

    def __post_init__(self) -> None:
        if self.kind not in SYMBOL_KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.binding not in SYMBOL_BINDINGS:
            raise ValueError(f"unknown symbol binding {self.binding!r}")


# e_machine values with first-class names; everything else is "other" and
# keeps its raw code so corpus statistics can still count it.
MACHINE_NAMES = {3: "x86", 62: "x86_64"}


def machine_label(machine: str, machine_code: int) -> str:
    """Human/JSON form of the machine field, e.g. ``x86`` or ``other(40)``."""
    if machine == "other":
        return f"other({machine_code})"
    return machine


@dataclass(frozen=True, slots=True)
class BinaryImage:
    """A parsed binary: sections, symbols, and the raw bytes behind them.

    ``sections`` mirrors the section header table in order (index 0 is the
    null section).
    """

    source_path: str
    content_digest: bytes
    word_size: int
    endianness: str
    machine: str
    machine_code: int
    sections: tuple[SectionRecord, ...]
    symbols: tuple[SymbolRecord, ...]
    raw: bytes = field(repr=False)
    parse_diagnostics: tuple[Diagnostic, ...] = ()

    def section_bytes(self, sec: SectionRecord, start: int, end: int) -> bytes | None:
        """The file bytes of ``[start, end)``, a range inside ``sec``.

        ``None`` when the section has no bytes in the file (NOBITS).
        """
        if sec.file_offset is None:
            return None
        base = sec.file_offset - sec.vaddr
        return self.raw[base + start : base + end]


def digest_binary(data: bytes) -> bytes:
    """Deterministic 32-byte content digest (SHA-256) of a binary."""
    return hashlib.sha256(data).digest()
