"""Synthetic ELF+DWARF fixture builder.

Every test binary in this project is forged from an explicit
:class:`BinarySpec`, so the expected ground truth is known by construction
rather than reverse-engineered. The emitter writes real ELF32/ELF64 images
(header, sections, symbol tables, string tables) and real DWARF v2-v5
units, which the readers must then round-trip.

Named presets reproduce the small pathological layouts the harness is
judged against; :func:`generate_corpus` derives randomized fixtures with
per-function quirks plus the ground truth each one must normalize to.

The forge keeps its own ELF and DWARF constants and encoders rather than
sharing the reader's, so a reader bug cannot cancel out in a round trip.
"""
from __future__ import annotations

import random
import struct
from collections import Counter
from dataclasses import dataclass, field

from .model import record

DW_TAG_compile_unit = 0x11
DW_TAG_subprogram = 0x2E
DW_TAG_inlined_subroutine = 0x1D
DW_TAG_formal_parameter = 0x05

DW_AT_location = 0x02
DW_AT_name = 0x03
DW_AT_stmt_list = 0x10
DW_AT_low_pc = 0x11
DW_AT_high_pc = 0x12
DW_AT_inline = 0x20
DW_AT_abstract_origin = 0x31
DW_AT_decl_file = 0x3A
DW_AT_decl_line = 0x3B
DW_AT_declaration = 0x3C
DW_AT_specification = 0x47
DW_AT_ranges = 0x55
DW_AT_rnglists_base = 0x74
DW_AT_noreturn = 0x87

DW_LNCT_path = 0x1
DW_LNCT_directory_index = 0x2
DW_LNCT_MD5 = 0x5

# The forms the writer emits and their DW_FORM codes.
_FORM_CODES = {
    "addr": 0x01,
    "data1": 0x0B,
    "data2": 0x05,
    "data4": 0x06,
    "data8": 0x07,
    "udata": 0x0F,
    "string": 0x08,
    "flag_present": 0x19,
    "exprloc": 0x18,
    "ref4": 0x13,
    "ref_addr": 0x10,
    "sec_offset": 0x17,
    "line_strp": 0x1F,
    "rnglistx": 0x23,
}

# Fixed-width forms and their struct codes; "addr" follows the unit's
# address size.
_FIXED_FORMS = {
    "data1": "B",
    "data2": "H",
    "data4": "I",
    "data8": "Q",
    "ref4": "I",
    "ref_addr": "I",
    "sec_offset": "I",
}

_CONSTANT_HIGHPC = ("data1", "data2", "data4", "data8", "udata")
_HIGHPC_FORMS = ("addr", "none") + _CONSTANT_HIGHPC

# How a subprogram names itself: directly, or through a reference to a
# separate DIE carrying the name and this marker attribute.
_NAME_VIA = {
    "direct": None,
    "specification": (DW_AT_specification, (DW_AT_declaration, "flag_present", True)),
    "abstract_origin": (DW_AT_abstract_origin, (DW_AT_inline, "udata", 1)),
}


class InvalidSpecError(ValueError):
    """The spec asks for an image that cannot be laid out."""


@record
class TwinSpec:
    """Secondary entry point named ``<name>.`` inside the same body."""

    offset: int
    size: int | None = None


@record
class DwarfFuncSpec:
    """How one compile unit describes a function.

    ``highpc_form`` selects the attribute encoding ("addr" emits the end
    address, the data/udata forms emit an offset, "none" omits the
    attribute); ``ranges`` replaces high-pc with a range list.
    ``low_pc`` overrides the function's address, as a linker does when it
    discards the function's code: GNU ld writes 0, LLD all-ones.
    ``name`` overrides the name the DIE gives, as a gcc clone
    (``f.constprop.0``) names its base ``f`` through its abstract origin.
    ``decl_file`` is the file index written. ``origin_unit`` puts the
    abstract origin of an ``abstract_origin`` DIE in that other unit,
    linked by ``ref_addr``; the origin then carries the declaration
    coordinates, as gcc writes an inline function defined in a header.
    """

    unit: int = 0
    highpc_form: str = "addr"
    noreturn: bool = False
    decl_line: int = 1
    params: tuple[tuple[str, bool], ...] = ()
    ranges: tuple[tuple[int, int], ...] | None = None
    name_via: str = "direct"  # or "specification" / "abstract_origin"
    low_pc: int | None = None
    name: str | None = None  # None names the function's symbol
    decl_file: int = 1
    origin_unit: int | None = None


@record
class LineTableSpec:
    """The file name table of one unit's ``.debug_line`` header, written
    as given: ``directories`` and ``files`` ((path, directory index), ...)
    in header order. Before DWARF 5 they are the include directories and
    file names, each 1-based; in DWARF 5 entry 0 of each is the unit's
    own. ``path_form`` is "string" or, in DWARF 5, "line_strp"; ``md5``
    gives each DWARF 5 file entry an MD5 (data16) too. The line program
    is one end of sequence.
    """

    files: tuple[tuple[str, int], ...]
    directories: tuple[str, ...] = ()
    path_form: str = "string"
    md5: bool = False


@record
class FunctionSpec:
    name: str
    offset: int
    body: bytes
    section: str = ".text"
    binding: str = "local"
    symbol_size: int | None = None  # None means len(body)
    omit_size: bool = False
    emit_symbol: bool = True
    pad_after: bytes = b""
    icc_size_includes_padding: bool = False
    trailing_dot_twin: TwinSpec | None = None
    aliases: tuple[tuple[str, str], ...] = ()
    dwarf: tuple[DwarfFuncSpec, ...] = ()


@record
class SectionSpec:
    name: str
    vaddr: int
    kind: str = "progbits"  # or "nobits"
    content: bytes = b""
    size: int | None = None
    executable: bool = False
    writable: bool = False
    allocated: bool = True
    tls: bool = False  # a "nobits" TLS section (.tbss) takes no address space


@record
class ExtraSymbolSpec:
    name: str
    section: str
    offset: int
    size: int = 0
    kind: str = "object"
    binding: str = "global"


@record
class InlineSiteSpec:
    """An inlined copy of ``origin`` emitted inside ``host``'s DIE.

    ``ranges`` replaces the ``low``/``high`` pair with a range list: in
    ``.debug_ranges`` before DWARF 5, and named by a ``rnglistx`` index
    in DWARF 5.
    """

    host: str
    origin: str
    low: int
    high: int
    unit: int = 0
    ranges: tuple[tuple[int, int], ...] | None = None


@record
class BinarySpec:
    sections: tuple[SectionSpec, ...]
    functions: tuple[FunctionSpec, ...] = ()
    extra_symbols: tuple[ExtraSymbolSpec, ...] = ()
    inline_sites: tuple[InlineSiteSpec, ...] = ()
    word_size: int = 32
    endianness: str = "little"
    machine_code: int | None = None  # None picks x86 / x86_64 by word size
    emit_symtab: bool = True
    dwarf_versions: tuple[int, ...] = (4,)
    cu_names: tuple[str, ...] = ()
    line_tables: tuple[LineTableSpec | None, ...] = ()  # by unit; None: none
    # An .eh_frame with one FDE per function, over its body: None writes
    # none; otherwise one of EH_FRAME_ENCODINGS.
    eh_frame: str | None = None


# The .eh_frame encodings the forge writes: gcc's "zR" CIE with pcrel|sdata4
# pointers, and a "zPLR" CIE with absptr pointers and personality and LSDA
# pointers of 0.
EH_FRAME_ENCODINGS = ("pcrel-sdata4", "absptr")


def uleb_encode(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise ValueError("uleb encodes non-negative values only")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


class _StrTab:
    """Classic ELF string table: NUL-led, deduplicating."""

    def __init__(self) -> None:
        self.blob = bytearray(b"\x00")
        self.offsets: dict[str, int] = {"": 0}

    def add(self, name: str) -> int:
        if name not in self.offsets:
            self.offsets[name] = len(self.blob)
            self.blob += name.encode() + b"\x00"
        return self.offsets[name]


@dataclass(slots=True)
class _WDie:
    tag: int
    attrs: list[tuple[int, str, object]]
    children: list["_WDie"] = field(default_factory=list)


def _serialize_unit(
    root: _WDie, version: int, addr_size: int, end: str, abbrev_offset: int
) -> tuple[bytes, bytes, dict[int, int], list[tuple[int, _WDie]]]:
    """(.debug_info unit bytes, .debug_abbrev table bytes, each DIE's offset
    in the unit by ``id``, the ``ref_addr`` values to patch) for one unit.

    Abbrev codes are given out in the order the DIE walk first meets each
    shape (tag, children, attribute forms). A ``ref_addr`` is written as 0
    and listed, with its offset in the unit and its target DIE, since its
    value is an offset in all of .debug_info.
    """
    fixed = {form: end + code for form, code in _FIXED_FORMS.items()}
    fixed["addr"] = end + ("I" if addr_size == 4 else "Q")
    if version == 5:
        head = struct.pack(end + "HBBI", version, 0x01, addr_size, abbrev_offset)
    else:
        head = struct.pack(end + "HIB", version, abbrev_offset, addr_size)
    body = bytearray(head)
    codes: dict[tuple, int] = {}
    offsets: dict[int, int] = {}
    fixups: list[tuple[int, _WDie]] = []
    refs: list[tuple[int, _WDie]] = []

    def walk(die: _WDie) -> None:
        offsets[id(die)] = len(body)
        key = (die.tag, bool(die.children), tuple((a, f) for a, f, _ in die.attrs))
        body.extend(uleb_encode(codes.setdefault(key, len(codes) + 1)))
        for _attr, form, value in die.attrs:
            if form in ("ref4", "ref_addr"):
                # value is the target _WDie
                (fixups if form == "ref4" else refs).append((len(body), value))
                value = 0
            if form in fixed:
                body.extend(struct.pack(fixed[form], value))
            elif form in ("udata", "rnglistx"):
                body.extend(uleb_encode(value))
            elif form == "string":
                body.extend(value.encode() + b"\x00")
            elif form == "exprloc":
                body.extend(uleb_encode(len(value)) + value)
            # flag_present takes no bytes.
        if die.children:
            for child in die.children:
                walk(child)
            body.append(0)

    walk(root)
    del walk  # its cell held it: no cycle left for the collector
    for pos, target in fixups:
        # ref4 holds a unit-relative offset; the 4-byte length prefix
        # is part of the unit, hence the +4.
        struct.pack_into(end + "I", body, pos, offsets[id(target)] + 4)

    abbrev = bytearray()
    for (tag, has_children, pairs), code in codes.items():
        abbrev += uleb_encode(code) + uleb_encode(tag) + bytes([has_children])
        for attr, form in pairs:
            abbrev += uleb_encode(attr) + uleb_encode(_FORM_CODES[form])
        abbrev += b"\x00\x00"
    abbrev += b"\x00"
    # Offsets in the unit count its 4-byte length prefix.
    where = {key: offset + 4 for key, offset in offsets.items()}
    refs = [(pos + 4, target) for pos, target in refs]
    return struct.pack(end + "I", len(body)) + bytes(body), bytes(abbrev), where, refs


def _line_table(
    table: LineTableSpec, version: int, addr_size: int, end: str, line_str: bytearray
) -> bytes:
    """One unit's ``.debug_line`` contribution: a header whose file name
    table is ``table``, in ``version``'s layout, then a line program of
    one end of sequence. A "line_strp" path goes into ``line_str``."""

    def path(text: str) -> bytes:
        if table.path_form == "string":
            return text.encode() + b"\x00"
        offset = len(line_str)
        line_str.extend(text.encode() + b"\x00")
        return struct.pack(end + "I", offset)

    if version >= 5:
        form = uleb_encode(_FORM_CODES[table.path_form])
        formats = [uleb_encode(DW_LNCT_path) + form, bytes([DW_LNCT_directory_index, 0x0F])]
        if table.md5:
            formats.append(bytes([DW_LNCT_MD5, 0x1E]))
        tables = b"\x01" + uleb_encode(DW_LNCT_path) + form
        tables += uleb_encode(len(table.directories))
        tables += b"".join(path(d) for d in table.directories)
        tables += bytes([len(formats)]) + b"".join(formats) + uleb_encode(len(table.files))
        for name, index in table.files:
            tables += path(name) + uleb_encode(index) + (bytes(16) if table.md5 else b"")
        head = struct.pack(end + "HBB", version, addr_size, 0)
    else:
        tables = b"".join(d.encode() + b"\x00" for d in table.directories) + b"\x00"
        for name, index in table.files:  # then a modification time and a length
            tables += path(name) + uleb_encode(index) + b"\x00\x00"
        tables += b"\x00"
        head = struct.pack(end + "H", version)
    # Minimum instruction length, maximum operations per instruction (from
    # DWARF 4), default is_stmt, line base, line range, opcode base and the
    # standard opcodes' operand counts.
    params = bytes([1, 1] if version >= 4 else [1]) + bytes([1, 0xFB, 14, 13])
    params += bytes([0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0, 1])
    body = head + struct.pack(end + "I", len(params) + len(tables)) + params + tables
    body += b"\x00\x01\x01"  # DW_LNE_end_sequence
    return struct.pack(end + "I", len(body)) + body


def _symbol_size(fn: FunctionSpec) -> int:
    if fn.omit_size:
        return 0
    if fn.symbol_size is not None:
        return fn.symbol_size
    if fn.icc_size_includes_padding:
        return len(fn.body) + len(fn.pad_after)
    return len(fn.body)


def _first_overlap(spans: list[tuple[int, int, str]]) -> tuple[str, str] | None:
    spans.sort()
    for (_lo, a_hi, a_name), (b_lo, _hi, b_name) in zip(spans, spans[1:]):
        if b_lo < a_hi:
            return a_name, b_name
    return None


def _validate(spec: BinarySpec) -> dict[str, int]:
    """Refuse a spec that cannot be laid out; return each section's size."""
    if spec.word_size not in (32, 64):
        raise InvalidSpecError(f"word size {spec.word_size}")
    sections = {s.name: s for s in spec.sections}
    if len(sections) != len(spec.sections):
        raise InvalidSpecError("duplicate section names")
    # A section without an explicit size ends where its content or its
    # last function does.
    sizes = {s.name: len(s.content) for s in spec.sections}
    for fn in spec.functions:
        if fn.section in sizes:
            span_end = fn.offset + len(fn.body) + len(fn.pad_after)
            sizes[fn.section] = max(sizes[fn.section], span_end)
    spans = []
    for sec in spec.sections:
        if sec.kind not in ("progbits", "nobits"):
            raise InvalidSpecError(f"section kind {sec.kind!r}")
        if sec.kind == "nobits" and sec.content:
            raise InvalidSpecError(f"nobits section {sec.name!r} carries content")
        if sec.size is not None:
            sizes[sec.name] = sec.size
        size = sizes[sec.name]
        if sec.allocated and size > 0 and not (sec.tls and sec.kind == "nobits"):
            spans.append((sec.vaddr, sec.vaddr + size, sec.name))
    overlap = _first_overlap(spans)
    if overlap:
        raise InvalidSpecError("sections {!r} and {!r} overlap".format(*overlap))

    by_section: dict[str, list[tuple[int, int, str]]] = {}
    described: set[tuple[str, int]] = set()  # (function, unit) with a DIE
    # The sections emit writes itself: a user section of the same name
    # would get a second header over the generated bytes.
    generated = {".shstrtab"}
    if spec.emit_symtab:
        generated |= {".symtab", ".strtab"}
    for fn in spec.functions:
        sec = sections.get(fn.section)
        if sec is None:
            raise InvalidSpecError(f"{fn.name!r} placed in unknown section")
        if sec.kind == "nobits":
            raise InvalidSpecError(
                f"{fn.name!r} placed in nobits section {sec.name!r}, "
                "which has no bytes for its body"
            )
        if not fn.body:
            raise InvalidSpecError(f"{fn.name!r} has an empty body")
        span_end = fn.offset + len(fn.body) + len(fn.pad_after)
        by_section.setdefault(fn.section, []).append((fn.offset, span_end, fn.name))
        twin = fn.trailing_dot_twin
        if twin is not None and not 0 < twin.offset < len(fn.body):
            raise InvalidSpecError(f"{fn.name!r} twin entry outside the body")
        for d in fn.dwarf:
            if d.unit >= len(spec.dwarf_versions):
                raise InvalidSpecError(f"{fn.name!r} references missing unit {d.unit}")
            version = spec.dwarf_versions[d.unit]
            if not 2 <= version <= 5:
                raise InvalidSpecError(f"cannot emit DWARF version {version}")
            if d.highpc_form in _CONSTANT_HIGHPC and version < 4:
                raise InvalidSpecError(
                    f"constant-class high pc needs version 4+, unit has {version}"
                )
            if d.highpc_form not in _HIGHPC_FORMS:
                raise InvalidSpecError(f"high pc form {d.highpc_form!r}")
            if d.name_via not in _NAME_VIA:
                raise InvalidSpecError(f"name_via {d.name_via!r}")
            if d.low_pc is not None:
                high = d.low_pc + (len(fn.body) if d.highpc_form == "addr" else 0)
                if d.low_pc < 0 or high >> spec.word_size:
                    raise InvalidSpecError(f"{fn.name!r} low pc {d.low_pc:#x}")
            if not 0 <= d.decl_file <= 0xFF:
                raise InvalidSpecError(f"{fn.name!r} decl file {d.decl_file}")
            if d.origin_unit is not None and not (
                d.name_via == "abstract_origin"
                and d.origin_unit != d.unit
                and 0 <= d.origin_unit < len(spec.dwarf_versions)
                and 2 <= spec.dwarf_versions[d.origin_unit] <= 5
                and version >= 3
            ):
                raise InvalidSpecError(
                    f"{fn.name!r} origin unit {d.origin_unit} must be another "
                    "unit, linked by an abstract origin from DWARF 3 or later"
                )
            described.add((fn.name, d.unit))
            generated |= {".debug_info", ".debug_abbrev"}
            if d.ranges is not None:
                generated.add(".debug_rnglists" if version >= 5 else ".debug_ranges")
    for sec_name, fn_spans in by_section.items():
        overlap = _first_overlap(fn_spans)
        if overlap:
            raise InvalidSpecError(
                "functions {!r} and {!r} overlap in {}".format(*overlap, sec_name)
            )
    for site in spec.inline_sites:
        if not {(site.host, site.unit), (site.origin, site.unit)} <= described:
            raise InvalidSpecError(
                f"inline site {site.origin!r} in {site.host!r} has no DIEs"
            )
        for low, high in ((site.low, site.high), *(site.ranges or ())):
            if min(low, high) < 0 or max(low, high) >> spec.word_size:
                raise InvalidSpecError(
                    f"inline site {site.origin!r} in {site.host!r} at "
                    f"{low:#x}-{high:#x} does not fit {spec.word_size} bits"
                )
        if site.ranges is not None:
            v5 = spec.dwarf_versions[site.unit] >= 5
            generated.add(".debug_rnglists" if v5 else ".debug_ranges")
    if len(spec.line_tables) > len(spec.dwarf_versions):
        raise InvalidSpecError("more line tables than units")
    for version, table in zip(spec.dwarf_versions, spec.line_tables):
        if table is None:
            continue
        if table.path_form not in ("string", "line_strp"):
            raise InvalidSpecError(f"path form {table.path_form!r}")
        if version < 5 and (table.path_form != "string" or table.md5):
            raise InvalidSpecError(f"a DWARF {version} line table has string paths only")
        if min((index for _path, index in table.files), default=0) < 0:
            raise InvalidSpecError("negative directory index")
        generated.add(".debug_line")
        if table.path_form == "line_strp":
            generated.add(".debug_line_str")
    if spec.eh_frame is not None:
        if spec.eh_frame not in EH_FRAME_ENCODINGS:
            raise InvalidSpecError(f"eh_frame encoding {spec.eh_frame!r}")
        generated.add(".eh_frame")
    clash = sorted(generated.intersection(sections))
    if clash:
        raise InvalidSpecError(f"section {clash[0]!r} is one the forge writes itself")
    if spec.emit_symtab:
        for extra in spec.extra_symbols:
            if extra.section not in sections:
                raise InvalidSpecError(f"symbol {extra.name!r} in unknown section")
    return sizes


def _build_dwarf(spec: BinarySpec, vaddr_of) -> dict[str, bytes]:
    """Assemble the .debug_* section contents, keyed by section name."""
    members: dict[int, list[tuple[FunctionSpec, DwarfFuncSpec]]] = {}
    for fn in spec.functions:
        for d in fn.dwarf:
            members.setdefault(d.unit, []).append((fn, d))
    if not members:
        return {}
    e = "<" if spec.endianness == "little" else ">"
    addr_size = spec.word_size // 8
    word = struct.Struct(e + ("I" if addr_size == 4 else "Q"))
    pair = struct.Struct(e + ("II" if addr_size == 4 else "QQ"))
    top = (1 << spec.word_size) - 1

    info = bytearray()
    abbrev = bytearray()
    ranges = bytearray()
    rnglists = bytearray()
    line = bytearray()
    line_str = bytearray()

    def range_list(version: int, pairs: tuple[tuple[int, int], ...]) -> tuple:
        """The DW_AT_ranges attribute of a new .debug_ranges list."""
        form = "sec_offset" if version >= 4 else "data4"
        attr = (DW_AT_ranges, form, len(ranges))
        # Base selector pinning the base to zero keeps the pairs absolute.
        ranges.extend(pair.pack(top, 0))
        for lo, hi in pairs:
            ranges.extend(pair.pack(lo, hi))
        ranges.extend(pair.pack(0, 0))
        return attr

    # A unit is written when it describes a function or holds the abstract
    # origin another unit links to.
    origins = {d.origin_unit for group in members.values() for _fn, d in group}
    roots: dict[int, _WDie] = {}
    for u in sorted(set(members) | origins - {None}):
        cu_name = spec.cu_names[u] if u < len(spec.cu_names) else f"src{u}.c"
        root = roots[u] = _WDie(DW_TAG_compile_unit, [(DW_AT_name, "string", cu_name)])
        if u in members:
            low = min(vaddr_of(fn) for fn, _ in members[u])
            root.attrs.append((DW_AT_low_pc, "addr", low))
        table = spec.line_tables[u] if u < len(spec.line_tables) else None
        if table is not None:
            version = spec.dwarf_versions[u]
            form = "sec_offset" if version >= 4 else "data4"
            root.attrs.append((DW_AT_stmt_list, form, len(line)))
            line += _line_table(table, version, addr_size, e, line_str)

    for u in sorted(members):
        version = spec.dwarf_versions[u]
        root = roots[u]
        subprogram_of: dict[str, _WDie] = {}
        shared = None  # where the unit's subprogram range lists' header starts
        for fn, d in members[u]:
            low = vaddr_of(fn) if d.low_pc is None else d.low_pc
            via = _NAME_VIA[d.name_via]
            name = fn.name if d.name is None else d.name
            coords = [
                (DW_AT_decl_file, "data1", d.decl_file),
                (DW_AT_decl_line, "udata", d.decl_line),
            ]
            if via is None:
                attrs = [(DW_AT_name, "string", name)]
            else:
                ref_attr, marker = via
                named = _WDie(DW_TAG_subprogram, [(DW_AT_name, "string", name)])
                named.attrs.append(marker)
                if d.origin_unit is None:
                    root.children.append(named)
                    attrs = [(ref_attr, "ref4", named)]
                else:
                    named.attrs += coords
                    coords = []
                    roots[d.origin_unit].children.append(named)
                    attrs = [(ref_attr, "ref_addr", named)]

            if d.ranges is not None and version >= 5:
                if shared is None:  # unit_length is patched once the lists are in
                    shared = len(rnglists)
                    rnglists += struct.pack(e + "IHBBI", 0, 5, addr_size, 0, 0)
                attrs.append((DW_AT_ranges, "sec_offset", len(rnglists)))
                for lo, hi in d.ranges:
                    rnglists += b"\x06" + pair.pack(lo, hi)  # DW_RLE_start_end
                rnglists += b"\x00"
            elif d.ranges is not None:
                attrs.append(range_list(version, d.ranges))
            else:
                attrs.append((DW_AT_low_pc, "addr", low))
                if d.highpc_form == "addr":
                    attrs.append((DW_AT_high_pc, "addr", low + len(fn.body)))
                elif d.highpc_form != "none":
                    attrs.append((DW_AT_high_pc, d.highpc_form, len(fn.body)))
            if d.noreturn:
                attrs.append((DW_AT_noreturn, "flag_present", True))
            attrs += coords

            die = _WDie(DW_TAG_subprogram, attrs)
            for pname, has_loc in d.params:
                p_attrs: list[tuple[int, str, object]] = [(DW_AT_name, "string", pname)]
                if has_loc:
                    # DW_OP_reg1; any one-byte expression will do.
                    p_attrs.append((DW_AT_location, "exprloc", b"\x51"))
                die.children.append(_WDie(DW_TAG_formal_parameter, p_attrs))
            subprogram_of[fn.name] = die
            root.children.append(die)
        if shared is not None:
            struct.pack_into(e + "I", rnglists, shared, len(rnglists) - shared - 4)

        sites = [site for site in spec.inline_sites if site.unit == u]
        # DWARF 5 copies name their lists by index into an offset table of
        # the unit's own .debug_rnglists contribution.
        listed = sum(1 for site in sites if site.ranges is not None)
        offsets, lists = bytearray(), bytearray()
        for site in sites:
            if site.ranges is None:
                extent = [(DW_AT_low_pc, "addr", site.low), (DW_AT_high_pc, "addr", site.high)]
            elif version >= 5:
                extent = [(DW_AT_ranges, "rnglistx", len(offsets) // 4)]
                offsets += struct.pack(e + "I", 4 * listed + len(lists))
                base = min((min(p) for p in site.ranges), default=0)
                lists += b"\x05" + word.pack(base)  # DW_RLE_base_address
                for lo, hi in site.ranges:  # DW_RLE_offset_pair
                    lists += b"\x04" + uleb_encode(lo - base) + uleb_encode(hi - base)
                lists += b"\x00"
            else:
                extent = [range_list(version, site.ranges)]
            origin = (DW_AT_abstract_origin, "ref4", subprogram_of[site.origin])
            subprogram_of[site.host].children.append(
                _WDie(DW_TAG_inlined_subroutine, [origin, *extent])
            )
        if offsets:
            # The offset table follows the contribution's 12-byte header.
            root.attrs.append((DW_AT_rnglists_base, "sec_offset", len(rnglists) + 12))
            body = struct.pack(e + "HBBI", 5, addr_size, 0, listed) + offsets + lists
            rnglists += struct.pack(e + "I", len(body)) + body


    # Units are written once all are built: a unit may gain an abstract
    # origin from a later one.
    where: dict[int, int] = {}  # DIE id -> offset in .debug_info
    refs: list[tuple[int, _WDie]] = []
    for u, root in roots.items():
        unit, table, offsets, unit_refs = _serialize_unit(
            root, spec.dwarf_versions[u], addr_size, e, len(abbrev)
        )
        where.update((key, len(info) + offset) for key, offset in offsets.items())
        refs += [(len(info) + pos, target) for pos, target in unit_refs]
        info += unit
        abbrev += table
    for pos, target in refs:
        struct.pack_into(e + "I", info, pos, where[id(target)])

    out = {".debug_info": bytes(info), ".debug_abbrev": bytes(abbrev)}
    if ranges:
        out[".debug_ranges"] = bytes(ranges)
    if rnglists:
        out[".debug_rnglists"] = bytes(rnglists)
    if line:
        out[".debug_line"] = bytes(line)
    if line_str:
        out[".debug_line_str"] = bytes(line_str)
    return out


def _eh_frame(spec: BinarySpec, vaddr: int, extents: list[tuple[int, int]]) -> bytes:
    """An .eh_frame at ``vaddr``: one CIE, one FDE per (start, size) in
    ``extents`` with no CFA instruction past the CIE's, and a zero
    terminator."""
    e = "<" if spec.endianness == "little" else ">"
    word = spec.word_size // 8
    addr = "Q" if word == 8 else "I"
    # x86-64: data alignment -8, return address r16, CFA = rsp + 8, r16 at
    # CFA - 8; i386: -4, r8, CFA = esp + 4, r8 at CFA - 4.
    tail = b"\x78\x10" if word == 8 else b"\x7c\x08"
    initial = b"\x0c\x07\x08\x90\x01" if word == 8 else b"\x0c\x04\x04\x88\x01"
    if spec.eh_frame == "pcrel-sdata4":
        augmentation, data = b"zR", b"\x1b"
    else:  # absptr: P and L say absptr and the personality pointer is 0
        augmentation, data = b"zPLR", b"\x00" + bytes(word) + b"\x00\x00"
    out = bytearray()

    def entry(body: bytes) -> None:
        body += bytes(-(len(body) + 4) % word)  # DW_CFA_nop up to a word
        out.extend(struct.pack(e + "I", len(body)) + body)

    entry(
        struct.pack(e + "I", 0) + b"\x01" + augmentation + b"\x00\x01" + tail
        + uleb_encode(len(data)) + data + initial
    )
    for start, size in extents:
        pointer_pos = len(out) + 4  # the CIE pointer, back to offset 0
        if spec.eh_frame == "pcrel-sdata4":
            pc = struct.pack(e + "iI", start - (vaddr + pointer_pos + 4), size) + b"\x00"
        else:  # the LSDA pointer, 0, is the FDE's augmentation data
            pc = struct.pack(e + addr * 2, start, size) + uleb_encode(word) + bytes(word)
        entry(struct.pack(e + "I", pointer_pos) + pc)
    return bytes(out + bytes(4))


_BIND_CODES = {"local": 0, "global": 1, "weak": 2}
_KIND_CODES = {"other": 0, "object": 1, "function": 2}


def emit(spec: BinarySpec) -> bytes:
    """Render the spec to ELF bytes."""
    sizes = _validate(spec)
    is64 = spec.word_size == 64
    little = spec.endianness == "little"
    e = "<" if little else ">"
    by_name = {s.name: s for s in spec.sections}

    def vaddr_of(fn: FunctionSpec) -> int:
        return by_name[fn.section].vaddr + fn.offset

    # Section contents; functions overlay their home section.
    contents: dict[str, bytes | bytearray] = {}
    for sec in spec.sections:
        if sec.kind != "nobits":
            contents[sec.name] = bytearray(sizes[sec.name])
            contents[sec.name][: len(sec.content)] = sec.content
    for fn in spec.functions:
        blob = fn.body + fn.pad_after
        contents[fn.section][fn.offset : fn.offset + len(blob)] = blob

    debug = _build_dwarf(spec, vaddr_of)

    # Section list: null, user sections, .eh_frame, symbol tables, debug,
    # .shstrtab.
    order = [s.name for s in spec.sections]
    user_index = {name: i + 1 for i, name in enumerate(order)}
    eh_vaddr = 0
    if spec.eh_frame is not None:
        # After every allocated section, at an 8-byte boundary.
        ends = [s.vaddr + sizes[s.name] for s in spec.sections if s.allocated]
        eh_vaddr = -(-max(ends, default=0) // 8) * 8
        extents = [(vaddr_of(fn), len(fn.body)) for fn in spec.functions]
        contents[".eh_frame"] = _eh_frame(spec, eh_vaddr, extents)
        order.append(".eh_frame")
    if spec.emit_symtab:
        # Rows of (name, value, size, kind, binding, section).
        rows = []
        for fn in spec.functions:
            if not fn.emit_symbol:
                continue
            low, size, home = vaddr_of(fn), _symbol_size(fn), fn.section
            rows.append((fn.name, low, size, "function", fn.binding, home))
            twin = fn.trailing_dot_twin
            if twin is not None:
                t_size = twin.size
                if t_size is None:
                    t_size = len(fn.body) - twin.offset
                twin_row = (low + twin.offset, t_size, "function", fn.binding, home)
                rows.append((fn.name + ".", *twin_row))
            for alias, binding in fn.aliases:
                rows.append((alias, low, size, "function", binding, home))
        for x in spec.extra_symbols:
            value = by_name[x.section].vaddr + x.offset
            rows.append((x.name, value, x.size, x.kind, x.binding, x.section))
        rows.sort(key=lambda row: row[4] != "local")  # locals first, stably
        strtab = _StrTab()
        sym = struct.Struct(e + ("IBBHQQ" if is64 else "IIIBBH"))
        symtab = bytearray(sym.size)  # null symbol
        for name, value, size, kind, binding, sec_name in rows:
            st_info = (_BIND_CODES[binding] << 4) | _KIND_CODES[kind]
            st_name, shndx = strtab.add(name), user_index[sec_name]
            if is64:
                symtab += sym.pack(st_name, st_info, 0, shndx, value, size)
            else:
                symtab += sym.pack(st_name, value, size, st_info, 0, shndx)
        local_count = 1 + sum(1 for row in rows if row[4] == "local")
        contents[".symtab"] = symtab
        contents[".strtab"] = strtab.blob
        order += [".symtab", ".strtab"]
    order += sorted(debug)
    order.append(".shstrtab")
    section_index = {name: i + 1 for i, name in enumerate(order)}
    contents.update(debug)
    shstrtab = _StrTab()
    name_offsets = {name: shstrtab.add(name) for name in order}
    contents[".shstrtab"] = shstrtab.blob

    ehdr_size = 64 if is64 else 52
    blob = bytearray(ehdr_size)
    offsets: dict[str, int] = {}
    for name in order:
        sec = by_name.get(name)
        if sec is not None and sec.kind == "nobits":
            offsets[name] = len(blob)
            continue
        blob += bytes(-len(blob) % 16)
        offsets[name] = len(blob)
        blob += contents[name]
    blob += bytes(-len(blob) % 8)
    e_shoff = len(blob)

    # One row per section header after the null one: (type, flags, addr,
    # size, link, info, addralign, entsize).
    sh = struct.Struct(e + ("IIQQQQIIQQ" if is64 else "IIIIIIIIII"))
    headers = bytearray(sh.size)  # null section header
    for name in order:
        sec = by_name.get(name)
        if sec is not None:
            flags = (
                (0x2 if sec.allocated else 0)
                | (0x1 if sec.writable else 0)
                | (0x4 if sec.executable else 0)
                | (0x400 if sec.tls else 0)
            )
            sh_type = 8 if sec.kind == "nobits" else 1
            row = (sh_type, flags, sec.vaddr, sizes[name], 0, 0, 16, 0)
        elif name == ".eh_frame":
            row = (1, 0x2, eh_vaddr, len(contents[name]), 0, 0, 8, 0)
        elif name == ".symtab":
            link = section_index[".strtab"]
            align, entsize = (8, 24) if is64 else (4, 16)
            row = (2, 0, 0, len(contents[name]), link, local_count, align, entsize)
        else:  # plain string/debug sections
            sh_type = 3 if name in (".strtab", ".shstrtab") else 1
            row = (sh_type, 0, 0, len(contents[name]), 0, 0, 1, 0)
        sh_type, flags, addr, *tail = row
        headers += sh.pack(
            name_offsets[name], sh_type, flags, addr, offsets[name], *tail
        )
    blob += headers

    exec_sections = [s for s in spec.sections if s.executable]
    e_entry = exec_sections[0].vaddr if exec_sections else 0
    machine = spec.machine_code
    if machine is None:
        machine = 62 if is64 else 3
    ident = b"\x7fELF" + bytes([2 if is64 else 1, 1 if little else 2, 1]) + bytes(9)
    ehdr = struct.pack(
        e + ("HHIQQQIHHHHHH" if is64 else "HHIIIIIHHHHHH"),
        *(2, machine, 1),  # e_type ET_EXEC, e_machine, e_version
        *(e_entry, 0, e_shoff),  # e_entry, e_phoff, e_shoff
        *(0, ehdr_size, 0, 0),  # e_flags, e_ehsize, e_phentsize, e_phnum
        *(sh.size, len(order) + 1, section_index[".shstrtab"]),  # e_sh*
    )
    blob[:ehdr_size] = ident + ehdr
    return bytes(blob)
# x86 bytes that are neither return instructions nor padding-alphabet
# prefixes, safe as function-body filler.
_FILLER = bytes([0x89, 0x41, 0x53, 0x31, 0x50, 0x58, 0x8B, 0x01, 0x48, 0x83])


def _body(rng: random.Random, length: int) -> bytes:
    if length < 1:
        raise InvalidSpecError("body length must be positive")
    return bytes(rng.choice(_FILLER) for _ in range(length - 1)) + b"\xc3"


def _fixed_body(length: int) -> bytes:
    return bytes(_FILLER[i % len(_FILLER)] for i in range(length - 1)) + b"\xc3"


def _preset_listing1() -> BinarySpec:
    text = SectionSpec(".text", 0x080B4000, executable=True)
    body = _fixed_body(16)
    fn = FunctionSpec(
        name="fix_syms",
        offset=0x1C0,
        body=body,
        symbol_size=8,
        trailing_dot_twin=TwinSpec(offset=8, size=8),
        dwarf=(DwarfFuncSpec(),),
    )
    return BinarySpec(sections=(text,), functions=(fn,), word_size=32)


_LISTING2_ROWS = (
    ("operand..0", 0x08055750, 0xC30),
    ("integer_constant..1", 0x08056380, 0x1A0),
    ("integer_constant..4", 0x08056520, 0x320),
    ("integer_constant..3", 0x08056840, 0x320),
    ("integer_constant..2", 0x08056B60, 0x540),
    ("integer_constant..0", 0x080570A0, 0x330),
    ("expr..1", 0x080573D0, 0xC80),
    ("operand", 0x08058FA0, 0xCD0),
    ("expr..0", 0x0805A7D0, 0xCB0),
)


def _preset_listing2() -> BinarySpec:
    base = 0x08055000
    functions = []
    for i, (name, addr, size) in enumerate(_LISTING2_ROWS):
        functions.append(
            FunctionSpec(
                name=name,
                offset=addr - base,
                body=_fixed_body(size),
                dwarf=(DwarfFuncSpec(decl_line=10 + i),),
            )
        )
    end = max(addr + size for _, addr, size in _LISTING2_ROWS)
    text = SectionSpec(".text", base, size=end - base, executable=True)
    return BinarySpec(sections=(text,), functions=tuple(functions), word_size=32)


def _preset_padding_icc_vs_gcc() -> BinarySpec:
    text = SectionSpec(".text", 0x401000, executable=True)
    body = _fixed_body(13)
    pad = b"\x90\x90\x90"
    icc = FunctionSpec(
        name="icc_style",
        offset=0,
        body=body,
        pad_after=pad,
        icc_size_includes_padding=True,
        dwarf=(DwarfFuncSpec(),),
    )
    gcc = FunctionSpec(
        name="gcc_style",
        offset=16,
        body=body,
        pad_after=pad,
        dwarf=(DwarfFuncSpec(),),
    )
    return BinarySpec(sections=(text,), functions=(icc, gcc), word_size=64)


def _preset_call_at_end() -> BinarySpec:
    """Bodies whose last instruction is a rel32 ``call`` or ``jmp`` with a
    displacement whose high bytes are ``00``, as gcc ends a function that
    calls a noreturn one. Each is forged with and without a DWARF extent,
    and each is followed by three nop bytes outside its symbol size."""
    text = SectionSpec(".text", 0x401000, executable=True)
    tails = {
        "ends_in_call": b"\xe8\x20\x01\x00\x00",  # call, rel32 0x120
        "ends_in_jmp": b"\xe9\x78\x56\x34\x00",  # jmp, rel32 0x345678
    }
    functions = []
    for debug in (True, False):
        for name, tail in tails.items():
            functions.append(
                FunctionSpec(
                    name=name if debug else f"{name}_symtab_only",
                    offset=16 * len(functions),
                    body=_FILLER[:8] + tail,
                    pad_after=b"\x90" * 3,
                    dwarf=(DwarfFuncSpec(),) if debug else (),
                )
            )
    return BinarySpec(sections=(text,), functions=tuple(functions), word_size=64)


def _preset_highpc_twins() -> BinarySpec:
    text = SectionSpec(".text", 0x401000, executable=True)
    fn = FunctionSpec(
        name="twin_view",
        offset=0,
        body=_fixed_body(24),
        dwarf=(
            DwarfFuncSpec(unit=0, highpc_form="addr"),
            DwarfFuncSpec(unit=1, highpc_form="data4"),
        ),
    )
    return BinarySpec(
        sections=(text,),
        functions=(fn,),
        word_size=64,
        dwarf_versions=(4, 4),
        cu_names=("twin_view.c", "twin_view.c"),
    )


_SCAFFOLD_NAMES = (
    "_start",
    "_init",
    "_fini",
    "__libc_csu_init",
    "__libc_csu_fini",
    "register_tm_clones",
    "deregister_tm_clones",
    "frame_dummy",
    "__do_global_dtors_aux",
)


def _preset_scaffold() -> BinarySpec:
    text = SectionSpec(".text", 0x401000, executable=True)
    functions = tuple(
        FunctionSpec(name=name, offset=i * 16, body=_fixed_body(16))
        for i, name in enumerate(_SCAFFOLD_NAMES)
    )
    return BinarySpec(sections=(text,), functions=functions, word_size=64)


def _preset_stripped() -> BinarySpec:
    text = SectionSpec(".text", 0x401000, content=_fixed_body(64), executable=True)
    return BinarySpec(sections=(text,), emit_symtab=False, word_size=64)


PRESETS = {
    "listing1": _preset_listing1,
    "listing2": _preset_listing2,
    "padding-icc-vs-gcc": _preset_padding_icc_vs_gcc,
    "call-at-end": _preset_call_at_end,
    "highpc-twins": _preset_highpc_twins,
    "scaffold": _preset_scaffold,
    "stripped": _preset_stripped,
}


def preset(name: str) -> BinarySpec:
    """The spec of the preset ``name``; KeyError if there is none."""
    return PRESETS[name]()


@record
class ExpectedFunction:
    """Ground truth a fixture's function must normalize to."""

    canonical: str
    start: int
    entries: tuple[int, ...]
    end_raw: int
    end_trimmed: int
    flags: frozenset[str]
    aliases: tuple[str, ...] = ()
    group: str | None = None
    provenance: frozenset[str] = frozenset({"symtab"})
    source: tuple[str, int] | None = None


@record
class CorpusFixture:
    name: str
    data: bytes
    functions: tuple[ExpectedFunction, ...]
    diagnostic_codes: tuple[tuple[str, int], ...]  # (code, count), sorted
    complete: bool


_QUIRK_WEIGHTS = {
    "plain": 5,
    "trailing_dot_twin": 1,
    "specialization_clone": 1,
    "alias": 1,
    "icc_size_includes_padding": 1,
    "omit_size": 1,
    "dwarf_highpc_constant": 1,
    "dwarf_highpc_address": 1,
    "dwarf_noreturn": 1,
    "no_dwarf": 1,
}

_PAD_UNITS = (
    b"\x90",
    b"\xcc",
    b"\x66\x90",
    b"\x0f\x1f\x00",
    b"\x0f\x1f\x40\x00",
    b"\x0f\x1f\x44\x00\x00",
    b"\x66\x0f\x1f\x44\x00\x00",
)

_JUNK = bytes([0x05, 0x27, 0xAB, 0xEA])


def _pad_fill(rng: random.Random, length: int) -> bytes:
    out = bytearray()
    while len(out) < length:
        unit = rng.choice([u for u in _PAD_UNITS if len(u) <= length - len(out)])
        out += unit
    return bytes(out)


def _junk_fill(rng: random.Random, length: int) -> bytes:
    return bytes(rng.choice(_JUNK) for _ in range(length))


def _expectation(
    fn: FunctionSpec, base: int, cu_name: str, group: str | None, diag: Counter
) -> ExpectedFunction:
    """What ``fn``, placed ``base`` into ``.text``, must normalize to.

    Counts the diagnostics its quirk raises into ``diag``.
    """
    start = base + fn.offset
    body_end = start + len(fn.body)
    entries = (start,)
    aliases = tuple(alias for alias, _binding in fn.aliases)
    flags = set()
    if fn.trailing_dot_twin:
        flags.add("multi_entry")
        entries = (start, start + fn.trailing_dot_twin.offset)
        aliases = (fn.name + ".",) + aliases
        diag["GT_MULTI_ENTRY_MERGED"] += 1
    if fn.aliases:
        flags.add("merged_alias")
        diag["GT_ALIAS_MERGED"] += 1
    end_raw = body_end
    if fn.icc_size_includes_padding or fn.omit_size:
        end_raw += len(fn.pad_after)
    if fn.omit_size:
        diag["GT_MISSING_SIZE"] += 1
    if end_raw > body_end:
        diag["GT_PADDING_TRIMMED"] += 1
    if any(d.noreturn for d in fn.dwarf):
        flags.add("noreturn")
    if ".." in fn.name:
        flags.add("specialized")
    if not fn.dwarf:
        flags.add("compiler_inserted")
    return ExpectedFunction(
        canonical=fn.name,
        start=start,
        entries=entries,
        end_raw=end_raw,
        end_trimmed=body_end,
        flags=frozenset(flags),
        aliases=aliases,
        group=group,
        provenance=frozenset({"symtab", "dwarf"} if fn.dwarf else {"symtab"}),
        source=(cu_name, fn.dwarf[0].decl_line) if fn.dwarf else None,
    )


def generate_corpus(seed: int, count: int) -> list[CorpusFixture]:
    """``count`` randomized fixtures with by-construction ground truth.

    Each function carries exactly one quirk, drawn by the weights in
    ``_QUIRK_WEIGHTS``, which exercise every quirk. The returned expectation
    is what the normalization pipeline must produce under default settings.
    """
    names, weights = list(_QUIRK_WEIGHTS), list(_QUIRK_WEIGHTS.values())
    rng = random.Random(seed)
    fixtures: list[CorpusFixture] = []

    for index in range(count):
        word_size = rng.choice((32, 64))
        text_base = 0x08048000 if word_size == 32 else 0x400000
        cu_name = "prog.c"
        n_funcs = rng.randint(3, 8)
        quirks = rng.choices(names, weights=weights, k=n_funcs)
        if quirks[-1] == "omit_size":  # a sizeless tail would bind to section end
            quirks[-1] = "plain"

        functions: list[FunctionSpec] = []
        expected: list[ExpectedFunction] = []
        diag: Counter[str] = Counter()
        offset = 0
        for serial, quirk in enumerate(quirks):
            name = f"fn_{index}_{serial}"
            body = _body(rng, rng.randint(8, 40))
            gap_style = rng.choice(("none", "pad", "junk"))
            if quirk == "omit_size" and gap_style == "junk":
                gap_style = "pad"
            gap = b""
            if gap_style != "none":
                fill = _pad_fill if gap_style == "pad" else _junk_fill
                gap = fill(rng, rng.randint(1, 12))

            dwarf = DwarfFuncSpec(decl_line=serial + 1)
            extra: dict = {}
            if quirk == "trailing_dot_twin":
                split = rng.randint(2, len(body) - 2)
                extra = {"symbol_size": split, "trailing_dot_twin": TwinSpec(split)}
            elif quirk == "alias":
                extra = {"binding": "global", "aliases": ((name + "_alias", "weak"),)}
            elif quirk == "icc_size_includes_padding":
                if gap_style != "pad":
                    gap = _pad_fill(rng, rng.randint(1, 12))
                extra = {"icc_size_includes_padding": True}
            elif quirk == "omit_size":
                extra = {"omit_size": True}
            elif quirk == "dwarf_highpc_constant":
                form = rng.choice(("data2", "data4", "udata"))
                dwarf = DwarfFuncSpec(highpc_form=form, decl_line=serial + 1)
            elif quirk == "dwarf_noreturn":
                dwarf = DwarfFuncSpec(noreturn=True, decl_line=serial + 1)
            # "dwarf_highpc_address" is the default high-pc form.
            fn = FunctionSpec(
                name,
                offset,
                body,
                pad_after=gap,
                dwarf=() if quirk == "no_dwarf" else (dwarf,),
                **extra,
            )
            clone = quirk == "specialization_clone"
            group = name if clone else None
            functions.append(fn)
            expected.append(_expectation(fn, text_base, cu_name, group, diag))
            offset += len(body) + len(gap)

            if clone:
                clone_body = _body(rng, rng.randint(8, 24))
                fn = FunctionSpec(
                    f"{name}..0",
                    offset,
                    clone_body,
                    dwarf=(DwarfFuncSpec(decl_line=serial + 1),),
                )
                functions.append(fn)
                expected.append(_expectation(fn, text_base, cu_name, group, diag))
                offset += len(clone_body)
        if not any(fn.dwarf for fn in functions):
            diag["GT_NO_DEBUG_INFO"] += 1

        text = SectionSpec(".text", text_base, executable=True)
        rodata = SectionSpec(
            ".rodata", text_base + 0x10000, content=b"corpus\x00" * 4
        )
        data = SectionSpec(
            ".data", text_base + 0x20000, content=b"\x01\x02\x03\x04", writable=True
        )
        bss = SectionSpec(
            ".bss", text_base + 0x30000, kind="nobits", size=32, writable=True
        )
        extras = (ExtraSymbolSpec("global_counter", ".data", 0, size=4),)

        shuffled = list(functions)
        rng.shuffle(shuffled)
        spec = BinarySpec(
            sections=(text, rodata, data, bss),
            functions=tuple(shuffled),
            extra_symbols=extras,
            word_size=word_size,
            cu_names=(cu_name,),
        )
        expected.sort(key=lambda f: f.start)
        fixtures.append(
            CorpusFixture(
                name=f"fixture_{seed}_{index}",
                data=emit(spec),
                functions=tuple(expected),
                diagnostic_codes=tuple(sorted(diag.items())),
                complete=True,
            )
        )
    return fixtures
