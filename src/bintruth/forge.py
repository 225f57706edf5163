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
    "sec_offset": 0x17,
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
    """

    unit: int = 0
    highpc_form: str = "addr"
    noreturn: bool = False
    decl_line: int = 1
    params: tuple[tuple[str, bool], ...] = ()
    ranges: tuple[tuple[int, int], ...] | None = None
    name_via: str = "direct"  # or "specification" / "abstract_origin"
    low_pc: int | None = None


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
) -> tuple[bytes, bytes]:
    """(.debug_info unit bytes, .debug_abbrev table bytes) for one unit.

    Abbrev codes are given out in the order the DIE walk first meets each
    shape (tag, children, attribute forms).
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

    def walk(die: _WDie) -> None:
        offsets[id(die)] = len(body)
        key = (die.tag, bool(die.children), tuple((a, f) for a, f, _ in die.attrs))
        body.extend(uleb_encode(codes.setdefault(key, len(codes) + 1)))
        for _attr, form, value in die.attrs:
            if form == "ref4":
                fixups.append((len(body), value))  # value is the target _WDie
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
    return struct.pack(end + "I", len(body)) + bytes(body), bytes(abbrev)


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

    for u in sorted(members):
        version = spec.dwarf_versions[u]
        cu_name = spec.cu_names[u] if u < len(spec.cu_names) else f"src{u}.c"
        root = _WDie(
            DW_TAG_compile_unit,
            [
                (DW_AT_name, "string", cu_name),
                (DW_AT_low_pc, "addr", min(vaddr_of(fn) for fn, _ in members[u])),
            ],
        )
        subprogram_of: dict[str, _WDie] = {}
        shared = None  # where the unit's subprogram range lists' header starts
        for fn, d in members[u]:
            low = vaddr_of(fn) if d.low_pc is None else d.low_pc
            via = _NAME_VIA[d.name_via]
            if via is None:
                attrs = [(DW_AT_name, "string", fn.name)]
            else:
                ref_attr, marker = via
                named = _WDie(DW_TAG_subprogram, [(DW_AT_name, "string", fn.name)])
                named.attrs.append(marker)
                root.children.append(named)
                attrs = [(ref_attr, "ref4", named)]

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
            attrs.append((DW_AT_decl_file, "data1", 1))
            attrs.append((DW_AT_decl_line, "udata", d.decl_line))

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

        unit, table = _serialize_unit(root, version, addr_size, e, len(abbrev))
        info += unit
        abbrev += table

    out = {".debug_info": bytes(info), ".debug_abbrev": bytes(abbrev)}
    if ranges:
        out[".debug_ranges"] = bytes(ranges)
    if rnglists:
        out[".debug_rnglists"] = bytes(rnglists)
    return out


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

    # Section list: null, user sections, symbol tables, debug, .shstrtab.
    order = [s.name for s in spec.sections]
    user_index = {name: i + 1 for i, name in enumerate(order)}
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
