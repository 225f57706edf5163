"""Normalization pipeline: raw symbols plus debug records to ground truth.

Stage order is fixed: alias dedup, fall-through entry merging, boundary
resolution, debug matching, padding trim (floored by the matched debug
extents), specialization clustering, noreturn and compiler-inserted
annotation, call-edge liveness, byte classification, completeness check.
Every stage communicates problems through diagnostics; nothing raises
past :func:`build_ground_truth`.

Start order is decided once, by :func:`elf.function_symbols`, which also
pairs each symbol with its section. Every stage takes its functions in
that order and keeps it; none sorts again, and
:func:`byteclass.classify_bytes` refuses spans out of order.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from functools import cache
from importlib import resources

from . import byteclass, dwarf, elf
from .byteclass import ByteClassMap
from .model import (
    GT_ALIAS_MERGED,
    GT_INCOMPLETE_EXCLUDED,
    GT_MALFORMED_DEBUG_DATA,
    GT_MULTI_ENTRY_MERGED,
    GT_PADDING_TRIMMED,
    GT_SIZE_OVERLAP,
    GT_START_MISMATCH,
    BinaryImage,
    Diagnostic,
    SectionRecord,
    SymbolRecord,
    record,
)

FUNCTION_FLAGS = frozenset(
    {
        "multi_entry",
        "merged_alias",
        "compiler_inserted",
        "noreturn",
        "uncalled",
        "specialized",
    }
)

PROVENANCE_KINDS = frozenset({"symtab", "dwarf"})

_BINDING_RANK = {"global": 2, "weak": 1, "local": 0}


def parse_name_list(text: str) -> tuple[str, ...]:
    """One name per line; '#' starts a comment."""
    names = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            names.append(line)
    return tuple(names)


def _load_name_list(filename: str) -> tuple[str, ...]:
    text = (
        resources.files("bintruth").joinpath("data").joinpath(filename).read_text()
    )
    return parse_name_list(text)


@cache
def default_noreturn_seeds() -> tuple[str, ...]:
    return _load_name_list("noreturn.txt")


@cache
def default_scaffold_names() -> tuple[str, ...]:
    return _load_name_list("scaffold.txt")


@cache
def padding_alphabet(machine: str) -> tuple[bytes, ...]:
    """Padding units for the machine; empty means no trimming happens."""
    if machine not in ("x86", "x86_64"):
        return ()
    return tuple(bytes.fromhex(unit) for unit in _load_name_list("padding-x86.txt"))


class CallEdgeError(ValueError):
    """A call-edge line is not two non-negative addresses."""


def parse_call_edges(text: str) -> tuple[tuple[int, int], ...]:
    """Caller/callee address pairs, one per line, '#' starts a comment."""
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CallEdgeError(f"line {lineno}: expected two addresses")
        try:
            caller, callee = (int(part, 0) for part in parts)
        except ValueError:
            message = f"line {lineno}: {line!r} is not two addresses"
            raise CallEdgeError(message) from None
        if caller < 0 or callee < 0:
            raise CallEdgeError(f"line {lineno}: addresses cannot be negative")
        edges.append((caller, callee))
    return tuple(edges)


@record
class RunConfig:
    """Knobs that change what the pipeline produces."""

    merge_multi_entry: bool = True
    start_mismatch_tolerance: int = 0
    noreturn_seeds: tuple[str, ...] | None = None  # None loads the defaults
    call_edges: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        tolerance = self.start_mismatch_tolerance
        if type(tolerance) is not int or tolerance < 0:
            raise ValueError(
                "start_mismatch_tolerance must be a non-negative int, "
                f"not {tolerance!r}"
            )
        for edge in self.call_edges or ():
            try:
                caller, callee = edge
            except (TypeError, ValueError):
                caller = callee = None
            if not all(type(a) is int and a >= 0 for a in (caller, callee)):
                raise CallEdgeError(
                    f"call edge {edge!r} is not two non-negative int addresses"
                )

    def seeds(self) -> tuple[str, ...]:
        if self.noreturn_seeds is None:
            return default_noreturn_seeds()
        return self.noreturn_seeds


@record
class GroundTruthFunction:
    """One normalized function.

    ``entry_points`` is a strictly increasing tuple; its first entry is
    the start.
    """

    canonical_name: str
    entry_points: tuple[int, ...]
    end_exclusive_raw: int
    end_exclusive_trimmed: int
    aliases: tuple[str, ...] = ()
    specialization_group: str | None = None
    flags: frozenset[str] = frozenset()
    provenance: frozenset[str] = frozenset({"symtab"})
    source: tuple[str, int] | None = None

    def __post_init__(self) -> None:
        entries = self.entry_points
        if type(entries) is not tuple:
            raise ValueError(
                f"entry points must be a tuple, not a {type(entries).__name__}"
            )
        if not entries:
            raise ValueError("a function needs at least one entry point")
        # Allocates only for a function with several entries.
        if len(entries) > 1 and any(a >= b for a, b in zip(entries, entries[1:])):
            raise ValueError("entry points must be sorted, without repeats")
        if not self.flags <= FUNCTION_FLAGS:
            raise ValueError(f"unknown flags {sorted(self.flags - FUNCTION_FLAGS)}")
        if not self.provenance <= PROVENANCE_KINDS:
            raise ValueError("unknown provenance kind")

    @property
    def start(self) -> int:
        return self.entry_points[0]


@record
class BinarySummary:
    source_path: str
    content_digest: bytes
    word_size: int
    machine_code: int


def is_complete(diagnostics: Iterable[Diagnostic]) -> bool:
    """Complete means no error-severity GT_INCOMPLETE_EXCLUDED diagnostic."""
    return not any(
        d.severity == "error" and d.code == GT_INCOMPLETE_EXCLUDED for d in diagnostics
    )


@record
class GroundTruthDocument:
    """``complete`` is derived from the diagnostics by :func:`is_complete`."""

    binary: BinarySummary
    functions: tuple[GroundTruthFunction, ...]
    byte_classes: ByteClassMap
    diagnostics: tuple[Diagnostic, ...]
    complete: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "complete", is_complete(self.diagnostics))


@dataclass(slots=True)
class _Working:
    canonical: str
    entries: list[int]
    size: int
    section: SectionRecord
    aliases: list[str] = field(default_factory=list)
    flags: set[str] = field(default_factory=set)
    provenance: set[str] = field(default_factory=lambda: {"symtab"})
    group: str | None = None
    source: tuple[str, int] | None = None
    noreturn: bool = False
    end_raw: int = 0
    end_trimmed: int = 0
    # End of the debug record that starts at this function's start; 0: none
    debug_end: int = 0
    # (name, start, size) of the last merged entry, for cascade merging
    tail: tuple[str, int, int] = ("", 0, 0)

    @property
    def start(self) -> int:
        return self.entries[0]


def dedupe_aliases(
    symbols: list[tuple[SymbolRecord, SectionRecord]],
) -> tuple[list[_Working], list[Diagnostic]]:
    """Collapse same-address symbols into one record with aliases.

    ``symbols`` are the (symbol, section) pairs of
    :func:`elf.function_symbols`, in its start order; only neighbours are
    compared, and the result keeps that order.
    """
    works: list[_Working] = []
    diagnostics: list[Diagnostic] = []
    i, count = 0, len(symbols)
    while i < count:
        sym, section = symbols[i]
        value = sym.value
        first, i = i, i + 1
        while i < count and symbols[i][0].value == value:
            i += 1
        if i == first + 1:  # most starts hold one symbol: nothing to rank
            works.append(
                _Working(sym.name, [value], sym.size, section, tail=(sym.name, value, sym.size))
            )
            continue
        members = sorted(
            (member for member, _section in symbols[first:i]),
            key=lambda s: (-_BINDING_RANK.get(s.binding, 0), s.name),
        )
        canonical = members[0]
        size = canonical.size
        if size == 0:
            size = max(m.size for m in members)
        aliases = sorted(m.name for m in members[1:])
        work = _Working(
            canonical=canonical.name,
            entries=[value],
            size=size,
            section=section,
            aliases=aliases,
            flags={"merged_alias"},
            tail=(canonical.name, value, size),
        )
        diagnostics.append(
            Diagnostic(
                "info",
                GT_ALIAS_MERGED,
                f"{len(aliases)} alias(es) of {canonical.name!r} at "
                f"{value:#x} merged: {', '.join(aliases)}",
                span=(value, size),
            )
        )
        works.append(work)
    return works, diagnostics


def merge_fallthrough_entries(
    works: list[_Working],
) -> tuple[list[_Working], list[Diagnostic]]:
    """Fold ``name.`` continuation symbols into their parent function.

    ``works`` must be in start order, which the result keeps. A
    continuation must sit exactly at the parent's declared end within the
    same section; chains of continuations cascade left to right.
    """
    merged: list[_Working] = []
    diagnostics: list[Diagnostic] = []
    for work in works:
        if merged:
            head = merged[-1]
            tail_name, tail_start, tail_size = head.tail
            if (
                work.canonical == tail_name + "."
                and tail_size > 0
                and work.start == tail_start + tail_size
                and work.section is head.section
            ):
                head.entries.extend(work.entries)
                head.aliases.extend([work.canonical] + work.aliases)
                if work.size > 0:
                    head.size = (work.start + work.size) - head.start
                else:
                    head.size = 0
                head.flags.add("multi_entry")
                head.flags |= work.flags
                head.tail = (work.canonical, work.start, work.size)
                diagnostics.append(
                    Diagnostic(
                        "info",
                        GT_MULTI_ENTRY_MERGED,
                        f"{work.canonical!r} at {work.start:#x} is a "
                        f"fall-through continuation of {head.canonical!r}",
                        span=(head.start, max(head.size, 0)),
                    )
                )
                continue
        merged.append(work)
    return merged, diagnostics


def resolve_boundaries(works: list[_Working]) -> list[Diagnostic]:
    """Fix each function's raw exclusive end.

    ``works`` must be in start order. Declared sizes are clamped by the
    next function start and by the containing section; missing sizes
    borrow the next boundary outright.
    """
    diagnostics: list[Diagnostic] = []
    for i, work in enumerate(works):
        # Allocated sections never overlap, so a section's functions sit
        # next to each other in start order.
        nxt = works[i + 1] if i + 1 < len(works) else None
        same = nxt is not None and nxt.section is work.section
        limit = nxt.start if same else work.section.end
        if work.size > 0:
            declared = work.start + work.size
            end = min(declared, limit)
            if end < declared:
                diagnostics.append(
                    Diagnostic(
                        "warning",
                        GT_SIZE_OVERLAP,
                        f"{work.canonical!r} declares bytes up to "
                        f"{declared:#x} but the region ends at {end:#x}; clamped",
                        span=(work.start, end - work.start),
                    )
                )
        else:
            end = limit
        work.end_raw = max(end, work.start + 1)
        work.end_trimmed = work.end_raw
    return diagnostics


def trim_padding(
    works: list[_Working],
    image: BinaryImage,
    alphabet: tuple[bytes, ...],
) -> list[Diagnostic]:
    """Shave trailing padding units off each raw boundary.

    The trimmed end never cuts an entry point, always keeps at least one
    byte, and never cuts below the end of a debug record that starts at
    the function's start (``debug_end``, set by
    :func:`match_debug_records`): the compiler's own extent outranks the
    padding alphabet. Functions whose bytes are not in the file (nobits
    regions) make the ground truth incomplete rather than guessing.
    """
    diagnostics: list[Diagnostic] = []
    if not alphabet:
        return diagnostics
    for work in works:
        start, end_raw = work.start, work.end_raw
        region = image.section_bytes(work.section, start, end_raw)
        if region is None:
            diagnostics.append(
                Diagnostic(
                    "error",
                    GT_INCOMPLETE_EXCLUDED,
                    f"bytes of {work.canonical!r} at {start:#x} are not "
                    "in the file; padding cannot be inspected",
                    span=(start, end_raw - start),
                )
            )
            continue
        # Entries strictly increase: the last one bounds the trim.
        floor = work.entries[-1] - start + 1
        debug_floor = min(work.debug_end, end_raw) - start
        if debug_floor >= end_raw - start:
            continue
        lowest = byteclass.padding_suffix_start(region, alphabet)
        trimmed = start + max(lowest, floor, debug_floor)
        if trimmed < end_raw:
            work.end_trimmed = trimmed
            message = f"{end_raw - trimmed} padding byte(s) trimmed off {work.canonical!r}"
            if debug_floor > max(lowest, floor):
                message += ", down to the end of its DWARF record"
            diagnostics.append(
                Diagnostic(
                    "info",
                    GT_PADDING_TRIMMED,
                    message,
                    span=(trimmed, end_raw - trimmed),
                )
            )
    return diagnostics


def cluster_specializations(works: list[_Working]) -> None:
    """Group ``base..N`` clones with each other and with their base."""
    bases: set[str] = set()
    for work in works:
        base, sep, suffix = work.canonical.rpartition("..")
        if sep and suffix.isdigit():
            work.group = base
            work.flags.add("specialized")
            bases.add(base)
    for work in works:
        if work.canonical in bases:
            work.group = work.canonical


def match_debug_records(
    works: list[_Working],
    records: list[dwarf.DebugFunctionRecord],
    tolerance: int,
) -> list[Diagnostic]:
    """Attach out-of-line debug records to their symbol-table functions.

    A record that starts exactly at a function's start also raises its
    ``debug_end``, the floor of :func:`trim_padding`, to the record's end.
    """
    diagnostics: list[Diagnostic] = []
    by_entry: dict[int, _Working] = {}
    for work in works:
        for entry in work.entries:
            by_entry[entry] = work
    names: dict[str, _Working] = {}
    for work in works:
        names[work.canonical] = work
        for alias in work.aliases:
            names.setdefault(alias, work)

    for record in records:
        target = by_entry.get(record.low_pc)
        if target is None and tolerance > 0:
            for delta in range(1, tolerance + 1):
                target = by_entry.get(record.low_pc - delta) or by_entry.get(
                    record.low_pc + delta
                )
                if target is not None:
                    break
        if target is not None:
            target.provenance.add("dwarf")
            target.noreturn = target.noreturn or record.noreturn
            if target.source is None and record.decl_file:
                target.source = (record.decl_file, record.decl_line)
            # A match at a secondary entry or through the tolerance starts
            # elsewhere, and gives no floor.
            if record.low_pc == target.start and record.end_exclusive is not None:
                target.debug_end = max(target.debug_end, record.end_exclusive)
            continue
        named = names.get(record.name)
        if named is not None:
            detail = (
                f"debug info puts {record.name!r} at {record.low_pc:#x}, "
                f"symbols at {named.start:#x}"
            )
        else:
            detail = (
                f"debug info describes {record.name or '<anonymous>'!r} at "
                f"{record.low_pc:#x} but no symbol is there"
            )
        diagnostics.append(
            Diagnostic("error", GT_START_MISMATCH, detail, span=(record.low_pc, 0))
        )
        diagnostics.append(
            Diagnostic(
                "error",
                GT_INCOMPLETE_EXCLUDED,
                f"cannot reconcile debug info for "
                f"{record.name or '<anonymous>'!r}; truth is incomplete",
                span=(record.low_pc, 0),
            )
        )
    return diagnostics


def annotate_noreturn(works: list[_Working], seeds: tuple[str, ...]) -> None:
    seed_set = set(seeds)
    for work in works:
        if work.noreturn or work.canonical in seed_set or seed_set & set(work.aliases):
            work.flags.add("noreturn")


def tag_compiler_inserted(
    works: list[_Working], scaffold: tuple[str, ...], debug_unreadable: bool
) -> None:
    """Flag functions no source line accounts for.

    Anything the debug info never mentioned counts, as does anything with
    a runtime-scaffold name; in a binary with no debug info at all that
    flags every function, which is exactly what the flag claims. When
    some debug info is unreadable (``debug_unreadable``), a function
    without a debug record may be one the unread part describes, so only
    scaffold names are flagged.
    """
    scaffold_set = set(scaffold)
    for work in works:
        unmentioned = not debug_unreadable and "dwarf" not in work.provenance
        if unmentioned or work.canonical in scaffold_set:
            work.flags.add("compiler_inserted")


def mark_uncalled(works: list[_Working], edges: tuple[tuple[int, int], ...]) -> None:
    targets = {callee for _caller, callee in edges}
    for work in works:
        if not targets & set(work.entries):
            work.flags.add("uncalled")


def _freeze(works: list[_Working]) -> tuple[GroundTruthFunction, ...]:
    """Immutable functions, in the start order ``works`` already has."""
    out = []
    for work in works:
        out.append(
            GroundTruthFunction(
                canonical_name=work.canonical,
                entry_points=tuple(work.entries),
                end_exclusive_raw=work.end_raw,
                end_exclusive_trimmed=work.end_trimmed,
                aliases=tuple(sorted(work.aliases)) if work.aliases else (),
                specialization_group=work.group,
                flags=frozenset(work.flags),
                provenance=frozenset(work.provenance),
                source=work.source,
            )
        )
    return tuple(out)


def build_ground_truth(
    image: BinaryImage, config: RunConfig | None = None
) -> GroundTruthDocument:
    """Run the whole pipeline, debug info reader included, over one binary.

    A GT_MALFORMED_DEBUG_DATA from the reader makes the truth incomplete:
    the functions the unread units describe go unmatched, and none is
    flagged compiler_inserted for lacking a debug record.
    """
    config = config or RunConfig()
    debug_records, debug_diagnostics = dwarf.extract_debug_functions(image)
    diagnostics: list[Diagnostic] = []
    debug_unreadable = False
    for diag in debug_diagnostics:
        diagnostics.append(diag)
        if diag.code == GT_MALFORMED_DEBUG_DATA:
            debug_unreadable = True
            diagnostics.append(
                Diagnostic(
                    "error",
                    GT_INCOMPLETE_EXCLUDED,
                    "debug info is partly unreadable; truth is incomplete",
                )
            )
    diagnostics.extend(image.parse_diagnostics)

    symbols, diags = elf.function_symbols(image)
    diagnostics.extend(diags)

    works, diags = dedupe_aliases(symbols)
    diagnostics.extend(diags)

    if config.merge_multi_entry:
        works, diags = merge_fallthrough_entries(works)
        diagnostics.extend(diags)

    diagnostics.extend(resolve_boundaries(works))

    # Matching runs before the trim, which a matched record's extent
    # floors; its diagnostics still follow the trim's.
    matched = match_debug_records(works, debug_records, config.start_mismatch_tolerance)
    alphabet = padding_alphabet(image.machine)
    diagnostics.extend(trim_padding(works, image, alphabet))

    cluster_specializations(works)
    diagnostics.extend(matched)
    annotate_noreturn(works, config.seeds())
    tag_compiler_inserted(works, default_scaffold_names(), debug_unreadable)
    if config.call_edges is not None:
        mark_uncalled(works, config.call_edges)

    exec_bytes = sum(
        s.size for s in image.sections if s.allocated and s.executable
    )
    if not works and exec_bytes > 0:
        diagnostics.append(
            Diagnostic(
                "error",
                GT_INCOMPLETE_EXCLUDED,
                f"{exec_bytes} executable byte(s) but no function symbols; "
                "the binary looks stripped",
            )
        )

    spans = [
        (w.start, w.end_trimmed, w.end_raw)
        for w in works
        if w.section.executable
    ]
    byte_map = byteclass.classify_bytes(image, spans, alphabet)

    return GroundTruthDocument(
        binary=BinarySummary(
            source_path=image.source_path,
            content_digest=image.content_digest,
            word_size=image.word_size,
            machine_code=image.machine_code,
        ),
        functions=_freeze(works),
        byte_classes=byte_map,
        diagnostics=tuple(diagnostics),
    )
