"""Normalization pipeline: raw symbols plus debug records to ground truth.

:func:`read_evidence` runs every reader once; :func:`build_ground_truth`
decides one truth from that :class:`Evidence`, as often as asked. Stage
order is fixed: alias dedup, fall-through entry merging, boundary
resolution, padding trim, specialization clustering, debug matching,
noreturn and compiler-inserted annotation, call-edge liveness, byte
classification, completeness check. Every stage reports problems through
diagnostics, appended as it runs; nothing raises past either function.
Stages read what the debug records say of a function by its start, from
:func:`facts_by_start`.

Start order is decided once, by :func:`elf.function_symbols`, which also
pairs each symbol with its section. Every stage takes its functions in
that order and keeps it; none sorts again, and
:func:`byteclass.classify_bytes` refuses spans out of order.
"""
from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cache
from importlib import resources

from . import byteclass, dwarf, elf
from .byteclass import ByteClassMap
from .model import (
    GT_ALIAS_MERGED,
    GT_DISCONTIGUOUS_RANGE,
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
        "cold_part",
    }
)

PROVENANCE_KINDS = ("symtab", "dwarf")  # in the order the schema lists them
_PROVENANCE_SET = frozenset(PROVENANCE_KINDS)

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
    data = resources.files("bintruth").joinpath("data")
    return parse_name_list(data.joinpath(filename).read_text(encoding="utf-8"))


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
        if not self.provenance <= _PROVENANCE_SET:
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
    dwarf: bool = False  # a debug record describes it: provenance symtab and dwarf
    group: str | None = None
    source: tuple[str, int] | None = None
    end_raw: int = 0
    end_trimmed: int = 0

    @property
    def start(self) -> int:
        return self.entries[0]


def dedupe_aliases(
    symbols: Sequence[tuple[SymbolRecord, SectionRecord]],
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
            works.append(_Working(sym.name, [value], sym.size, section))
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
    continuation must sit exactly at the declared end of the work before
    it, in the same section, so chains of continuations cascade.
    """
    merged = works[:1]
    diagnostics: list[Diagnostic] = []
    for prev, work in zip(works, works[1:]):
        if not (
            work.canonical == prev.canonical + "."
            and prev.size > 0
            and work.start == prev.start + prev.size
            and work.section is prev.section
        ):
            merged.append(work)
            continue
        head = merged[-1]
        head.entries.extend(work.entries)
        head.aliases.extend([work.canonical] + work.aliases)
        if work.size > 0:
            head.size = (work.start + work.size) - head.start
        else:
            head.size = 0
        head.flags.add("multi_entry")
        head.flags |= work.flags
        diagnostics.append(
            Diagnostic(
                "info",
                GT_MULTI_ENTRY_MERGED,
                f"{work.canonical!r} at {work.start:#x} is a "
                f"fall-through continuation of {head.canonical!r}",
                span=(head.start, max(head.size, 0)),
            )
        )
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


def facts_by_start(
    records: Sequence[dwarf.DebugFunctionRecord], fdes: Sequence[tuple[int, int]]
) -> tuple[dict[int, tuple[int, str]], dict[int, str]]:
    """Start -> (the trim's floor, its source); start -> the first
    non-empty name of a record that lists a range there (a gcc clone's
    base, also at its ``.cold`` part).

    The floor is the largest end that a record, or one of a record's other
    ranges, gives at the start; where none does, the largest end of an FDE
    (``fdes``, sorted ``(pc_begin, pc_end)`` pairs) that starts there.
    """
    ends: dict[int, int] = {}
    names: dict[int, str] = {}
    for record in records:
        if record.end_exclusive is not None:
            low = record.low_pc
            ends[low] = max(ends.get(low, 0), record.end_exclusive)
        if record.name:
            names.setdefault(record.low_pc, record.name)
        for start, end in record.other_ranges:
            ends[start] = max(ends.get(start, 0), end)
            if record.name:
                names.setdefault(start, record.name)
    floors = {begin: (end, "FDE") for begin, end in fdes}
    floors.update((start, (end, "DWARF record")) for start, end in ends.items())
    return floors, names


def trim_padding(
    works: list[_Working],
    image: BinaryImage,
    alphabet: tuple[bytes, ...],
    ends: dict[int, tuple[int, str]],
) -> list[Diagnostic]:
    """Shave trailing padding units off each raw boundary.

    The trimmed end never cuts an entry point, always keeps at least one
    byte, and never cuts below ``ends[start]``, the end that a DWARF
    record or else an FDE gives at the function's start, whose source the
    diagnostic names: the compiler's own extent outranks the padding
    alphabet. Without either, the alphabet alone decides, and the
    diagnostic calls the trim a heuristic. Functions whose bytes are not
    in the file (nobits regions) make the ground truth incomplete rather
    than guessing. The lowest tiling start comes from
    :func:`byteclass.padding_suffix_finder`, exact for any alphabet, over
    the file's bytes in place: no body is copied.
    """
    diagnostics: list[Diagnostic] = []
    if not alphabet:
        return diagnostics
    suffix_start = byteclass.padding_suffix_finder(alphabet)
    data = image.raw
    for work in works:
        start, end_raw = work.start, work.end_raw
        sec = work.section
        if sec.file_offset is None:
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
        stated_end, source = ends.get(start, (0, ""))
        stated = min(stated_end, end_raw) - start
        if stated >= end_raw - start:
            continue
        offset = sec.file_offset - sec.vaddr + start
        lowest = suffix_start(data, offset, offset + end_raw - start) - offset
        trimmed = start + max(lowest, floor, stated)
        if trimmed < end_raw:
            work.end_trimmed = trimmed
            message = f"{end_raw - trimmed} padding byte(s) trimmed off {work.canonical!r}"
            if not source:
                message += "; a heuristic: no DWARF record or FDE gives its end"
            elif stated >= max(lowest, floor):
                message += f", down to the end of its {source}"
            else:
                message += f", not below the end of its {source}"
            diagnostics.append(
                Diagnostic(
                    "info",
                    GT_PADDING_TRIMMED,
                    message,
                    span=(trimmed, end_raw - trimmed),
                )
            )
    return diagnostics


# What gcc appends to a clone's name: one or more of .constprop.N, .isra.N
# and .part.N, with .lto_priv.N anywhere among them, and .cold once, last.
_GCC_CLONE_SUFFIX = re.compile(
    r"(?:\.lto_priv\.\d+)*(?:\.(?:constprop|isra|part)\.\d+(?:\.lto_priv\.\d+)*)+(?:\.cold)?"
)


def cluster_specializations(works: list[_Working], names: dict[int, str]) -> None:
    """Group clones with each other and with their base, if it is present.

    A clone is named ``base..N``, or is a gcc clone: a function whose
    start a debug record names ``base`` (``names``, see
    :func:`facts_by_start`), where its canonical name or one of its
    aliases is ``base`` and a gcc clone suffix. So identical clones that
    the linker folded group under the record's base whichever of them is
    canonical. A ``.lto_priv.N`` suffix alone is a rename, not a clone.
    """
    bases: set[str] = set()
    for work in works:
        base, sep, suffix = work.canonical.rpartition("..")
        if not (sep and suffix.isdigit()):
            base = names.get(work.start)
            if not base:
                continue
            for name in (work.canonical, *work.aliases):
                if name.startswith(base) and _GCC_CLONE_SUFFIX.fullmatch(name, len(base)):
                    break
            else:
                continue
        work.group = base
        work.flags.add("specialized")
        bases.add(base)
    for work in works:
        if work.canonical in bases:
            work.group = work.canonical


def match_debug_records(
    works: list[_Working],
    records: Sequence[dwarf.DebugFunctionRecord],
    tolerance: int,
) -> list[Diagnostic]:
    """Attach out-of-line debug records to their symbol-table functions.

    A matched function gets ``dwarf`` provenance, the record's source and
    its ``noreturn`` flag. The function at each of a record's other ranges
    (the ``.cold`` part of a split function) is a ``cold_part`` of it: it
    gets ``dwarf`` provenance and the record's source, not the record's
    noreturn flag. A record that matches no function is a start mismatch.
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
        if record.other_ranges:
            diagnostics += _link_parts(record, by_entry)
        target = by_entry.get(record.low_pc)
        if target is None and tolerance > 0:
            for delta in range(1, tolerance + 1):
                target = by_entry.get(record.low_pc - delta) or by_entry.get(
                    record.low_pc + delta
                )
                if target is not None:
                    break
        if target is not None:
            target.dwarf = True
            if record.noreturn:
                target.flags.add("noreturn")
            if target.source is None and record.decl_file:
                target.source = (record.decl_file, record.decl_line)
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


def _link_parts(
    record: dwarf.DebugFunctionRecord, by_entry: dict[int, _Working]
) -> list[Diagnostic]:
    """Mark the function at each of ``record``'s other ranges a cold part
    of it; one GT_DISCONTIGUOUS_RANGE warning if some range starts at no
    function entry. A record without an extent has no range at its entry,
    of which the reader has already warned."""
    unlinked = 0
    for start, _end in record.other_ranges:
        part = by_entry.get(start)
        if part is None:
            unlinked += 1
            continue
        part.flags.add("cold_part")
        part.dwarf = True
        if part.source is None and record.decl_file:
            part.source = (record.decl_file, record.decl_line)
    if not unlinked or record.end_exclusive is None:
        return []
    ranges = ((record.low_pc, record.end_exclusive), *record.other_ranges)
    low = min(start for start, _end in ranges)
    high = max(end for _start, end in ranges)
    return [
        Diagnostic(
            "warning",
            GT_DISCONTIGUOUS_RANGE,
            f"debug info splits {record.name or '<anonymous>'!r} at {record.low_pc:#x} "
            f"into {len(ranges)} ranges, and no function starts at {unlinked} of them",
            span=(low, high - low),
        )
    ]


def annotate_noreturn(works: list[_Working], seeds: tuple[str, ...]) -> None:
    seed_set = set(seeds)
    for work in works:
        if work.canonical in seed_set or seed_set & set(work.aliases):
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
        unmentioned = not debug_unreadable and not work.dwarf
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
                provenance=frozenset({"symtab", "dwarf"} if work.dwarf else {"symtab"}),
                source=work.source,
            )
        )
    return tuple(out)


@record
class Evidence:
    """What a binary's readers say, read once; any number of truths can be
    decided from it.

    ``symbols`` are the (symbol, section) pairs of
    :func:`elf.function_symbols`, in its start order, and ``fdes`` the
    sorted pc ranges of :func:`dwarf.eh_frame_ranges`. ``diagnostics`` are
    every reader's, in reading order: DWARF, ``.eh_frame``, the image's
    parse, then function symbols.
    """

    image: BinaryImage
    symbols: tuple[tuple[SymbolRecord, SectionRecord], ...]
    debug_records: tuple[dwarf.DebugFunctionRecord, ...]
    fdes: tuple[tuple[int, int], ...]
    diagnostics: tuple[Diagnostic, ...]


def read_evidence(image: BinaryImage) -> Evidence:
    """Run every reader over ``image`` once, each through its module attribute."""
    records, debug_diags = dwarf.extract_debug_functions(image)
    fdes, fde_diags = dwarf.eh_frame_ranges(image)
    symbols, symbol_diags = elf.function_symbols(image)
    diagnostics = (*debug_diags, *fde_diags, *image.parse_diagnostics, *symbol_diags)
    return Evidence(image, tuple(symbols), tuple(records), tuple(fdes), diagnostics)


def build_ground_truth(
    evidence: Evidence, config: RunConfig | None = None
) -> GroundTruthDocument:
    """Decide one truth from ``evidence``: the stages run, no reader does.

    A GT_MALFORMED_DEBUG_DATA from the DWARF reader makes the truth
    incomplete: an error GT_INCOMPLETE_EXCLUDED follows it, the functions
    the unread units describe go unmatched, and none is flagged
    compiler_inserted for lacking a debug record.
    """
    config = config or RunConfig()
    image = evidence.image
    diagnostics: list[Diagnostic] = []
    debug_unreadable = False
    for diag in evidence.diagnostics:
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

    works, diags = dedupe_aliases(evidence.symbols)
    diagnostics.extend(diags)

    if config.merge_multi_entry:
        works, diags = merge_fallthrough_entries(works)
        diagnostics.extend(diags)

    diagnostics.extend(resolve_boundaries(works))
    ends, names = facts_by_start(evidence.debug_records, evidence.fdes)
    alphabet = padding_alphabet(image.machine)
    diagnostics.extend(trim_padding(works, image, alphabet, ends))
    cluster_specializations(works, names)
    tolerance = config.start_mismatch_tolerance
    diagnostics.extend(match_debug_records(works, evidence.debug_records, tolerance))
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
