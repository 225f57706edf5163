"""Synthetic ELF+DWARF fixture builder.

Every test binary in this project is forged from an explicit
:class:`BinarySpec`, so the expected ground truth is known by construction
rather than reverse-engineered. The emitter writes real ELF32/ELF64 images
(header, sections, symbol tables, string tables) and real DWARF v2-v5
units, which the readers must then round-trip.

Named presets reproduce the small pathological layouts the harness is
judged against; :func:`generate_corpus` derives randomized fixtures with
per-function quirks plus the ground truth each one must normalize to.
"""
from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field

from .dwarf import uleb_encode

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
DW_AT_noreturn = 0x87

_FORM_CODES = {
    "addr": 0x01,
    "data1": 0x0B,
    "data2": 0x05,
    "data4": 0x06,
    "data8": 0x07,
    "udata": 0x0F,
    "string": 0x08,
    "flag": 0x0C,
    "flag_present": 0x19,
    "exprloc": 0x18,
    "block1": 0x0A,
    "ref4": 0x13,
    "sec_offset": 0x17,
}

_CONSTANT_HIGHPC = ("data1", "data2", "data4", "data8", "udata")


class InvalidSpecError(ValueError):
    """The spec asks for an image that cannot be laid out."""


class UnknownPresetError(KeyError):
    """No preset registered under that name."""


@dataclass(frozen=True, slots=True)
class TwinSpec:
    """Secondary entry point named ``<name>.`` inside the same body."""

    offset: int
    size: int | None = None


@dataclass(frozen=True, slots=True)
class DwarfFuncSpec:
    """How one compile unit describes a function.

    ``highpc_form`` selects the attribute encoding ("addr" emits the end
    address, the data/udata forms emit an offset, "none" omits the
    attribute); ``ranges`` replaces high-pc with a range list.
    """

    unit: int = 0
    highpc_form: str = "addr"
    noreturn: bool = False
    decl_line: int = 1
    params: tuple[tuple[str, bool], ...] = ()
    ranges: tuple[tuple[int, int], ...] | None = None
    name_via: str = "direct"  # or "specification" / "abstract_origin"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class ExtraSymbolSpec:
    name: str
    section: str
    offset: int
    size: int = 0
    kind: str = "object"
    binding: str = "global"


@dataclass(frozen=True, slots=True)
class InlineSiteSpec:
    """An inlined copy of ``origin`` emitted inside ``host``'s DIE."""

    host: str
    origin: str
    low: int
    high: int
    unit: int = 0


@dataclass(frozen=True, slots=True)
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

    @property
    def quirks(self) -> frozenset[str]:
        """Names of the irregularities this spec exercises."""
        out = set()
        for fn in self.functions:
            if fn.trailing_dot_twin:
                out.add("trailing_dot_twin")
            if fn.aliases:
                out.add("alias")
            if fn.icc_size_includes_padding:
                out.add("icc_size_includes_padding")
            if fn.omit_size:
                out.add("omit_size")
            if ".." in fn.name:
                out.add("specialization_clone")
            for d in fn.dwarf:
                if d.highpc_form in _CONSTANT_HIGHPC:
                    out.add("dwarf_highpc_constant")
                if d.noreturn:
                    out.add("dwarf_noreturn")
                if d.ranges:
                    out.add("dwarf_ranges")
            if not fn.dwarf:
                out.add("no_dwarf")
        if not self.emit_symtab:
            out.add("stripped")
        return frozenset(out)


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


class DwarfUnitWriter:
    """Serializes one compile unit into .debug_info + .debug_abbrev bytes."""

    def __init__(self, version: int, addr_size: int, little_endian: bool):
        if version < 2 or version > 5:
            raise InvalidSpecError(f"cannot emit DWARF version {version}")
        self.version = version
        self.addr_size = addr_size
        self.end = "<" if little_endian else ">"
        self.root: _WDie | None = None

    def _abbrevs(self, die: _WDie, table: dict, order: list) -> None:
        key = (die.tag, bool(die.children), tuple((a, f) for a, f, _ in die.attrs))
        if key not in table:
            table[key] = len(table) + 1
            order.append(key)
        for child in die.children:
            self._abbrevs(child, table, order)

    def _encode_value(self, form: str, value, out: bytearray, fixups, offsets) -> None:
        e = self.end
        if form == "addr":
            out += struct.pack(e + ("I" if self.addr_size == 4 else "Q"), value)
        elif form == "data1":
            out += struct.pack("B", value)
        elif form == "data2":
            out += struct.pack(e + "H", value)
        elif form == "data4":
            out += struct.pack(e + "I", value)
        elif form == "data8":
            out += struct.pack(e + "Q", value)
        elif form == "udata":
            out += uleb_encode(value)
        elif form == "string":
            out += str(value).encode() + b"\x00"
        elif form == "flag":
            out += struct.pack("B", 1 if value else 0)
        elif form == "flag_present":
            pass
        elif form in ("exprloc",):
            out += uleb_encode(len(value)) + bytes(value)
        elif form == "block1":
            out += struct.pack("B", len(value)) + bytes(value)
        elif form == "ref4":
            fixups.append((len(out), value))  # value is the target _WDie
            out += b"\x00\x00\x00\x00"
        elif form == "sec_offset":
            out += struct.pack(e + "I", value)
        else:
            raise InvalidSpecError(f"cannot emit form {form!r}")

    def _encode_die(self, die: _WDie, codes: dict, out: bytearray, fixups, offsets):
        offsets[id(die)] = len(out)
        key = (die.tag, bool(die.children), tuple((a, f) for a, f, _ in die.attrs))
        out += uleb_encode(codes[key])
        for _attr, form, value in die.attrs:
            self._encode_value(form, value, out, fixups, offsets)
        if die.children:
            for child in die.children:
                self._encode_die(child, codes, out, fixups, offsets)
            out += b"\x00"

    def serialize(self, abbrev_offset: int) -> tuple[bytes, bytes]:
        """(.debug_info unit bytes, .debug_abbrev table bytes)."""
        if self.root is None:
            raise InvalidSpecError("unit has no root DIE")
        codes: dict = {}
        order: list = []
        self._abbrevs(self.root, codes, order)

        abbrev = bytearray()
        for key in order:
            tag, has_children, pairs = key
            abbrev += uleb_encode(codes[key])
            abbrev += uleb_encode(tag)
            abbrev += struct.pack("B", 1 if has_children else 0)
            for attr, form in pairs:
                abbrev += uleb_encode(attr) + uleb_encode(_FORM_CODES[form])
            abbrev += b"\x00\x00"
        abbrev += b"\x00"

        body = bytearray()
        fixups: list[tuple[int, _WDie]] = []
        offsets: dict[int, int] = {}
        if self.version == 5:
            header_tail = struct.pack(
                self.end + "HBBI", self.version, 0x01, self.addr_size, abbrev_offset
            )
        else:
            header_tail = struct.pack(
                self.end + "HIB", self.version, abbrev_offset, self.addr_size
            )
        body += header_tail
        self._encode_die(self.root, codes, body, fixups, offsets)
        for pos, target in fixups:
            # ref4 holds a unit-relative offset; the 4-byte length prefix
            # is part of the unit, hence the +4.
            struct.pack_into(self.end + "I", body, pos, offsets[id(target)] + 4)
        unit = struct.pack(self.end + "I", len(body)) + bytes(body)
        return unit, bytes(abbrev)


def _machine_for(spec: BinarySpec) -> int:
    if spec.machine_code is not None:
        return spec.machine_code
    return 62 if spec.word_size == 64 else 3


def _function_span(fn: FunctionSpec) -> tuple[int, int]:
    return fn.offset, fn.offset + len(fn.body) + len(fn.pad_after)


def _symbol_size(fn: FunctionSpec) -> int:
    if fn.omit_size:
        return 0
    if fn.symbol_size is not None:
        return fn.symbol_size
    if fn.icc_size_includes_padding:
        return len(fn.body) + len(fn.pad_after)
    return len(fn.body)


def _validate(spec: BinarySpec) -> None:
    names = [s.name for s in spec.sections]
    if len(set(names)) != len(names):
        raise InvalidSpecError("duplicate section names")
    spans = []
    for sec in spec.sections:
        if sec.kind not in ("progbits", "nobits"):
            raise InvalidSpecError(f"section kind {sec.kind!r}")
        if sec.kind == "nobits" and sec.content:
            raise InvalidSpecError(f"nobits section {sec.name!r} carries content")
        size = _section_size(spec, sec)
        if sec.allocated and size > 0 and not (sec.tls and sec.kind == "nobits"):
            spans.append((sec.vaddr, sec.vaddr + size, sec.name))
    spans.sort()
    for (a_lo, a_hi, a_n), (b_lo, _h, b_n) in zip(spans, spans[1:]):
        if b_lo < a_hi:
            raise InvalidSpecError(f"sections {a_n!r} and {b_n!r} overlap")

    by_section: dict[str, list[tuple[int, int, str]]] = {}
    for fn in spec.functions:
        if fn.section not in names:
            raise InvalidSpecError(f"{fn.name!r} placed in unknown section")
        if not fn.body:
            raise InvalidSpecError(f"{fn.name!r} has an empty body")
        lo, hi = _function_span(fn)
        by_section.setdefault(fn.section, []).append((lo, hi, fn.name))
        twin = fn.trailing_dot_twin
        if twin is not None and not 0 < twin.offset < len(fn.body):
            raise InvalidSpecError(f"{fn.name!r} twin entry outside the body")
        for d in fn.dwarf:
            if d.unit >= len(spec.dwarf_versions):
                raise InvalidSpecError(f"{fn.name!r} references missing unit {d.unit}")
            version = spec.dwarf_versions[d.unit]
            if d.highpc_form in _CONSTANT_HIGHPC and version < 4:
                raise InvalidSpecError(
                    f"constant-class high pc needs version 4+, unit has {version}"
                )
            if d.highpc_form != "none" and d.highpc_form not in _FORM_CODES:
                raise InvalidSpecError(f"high pc form {d.highpc_form!r}")
    for sec_name, spans2 in by_section.items():
        spans2.sort()
        for (a_lo, a_hi, a_n), (b_lo, _h, b_n) in zip(spans2, spans2[1:]):
            if b_lo < a_hi:
                raise InvalidSpecError(
                    f"functions {a_n!r} and {b_n!r} overlap in {sec_name}"
                )


def _section_size(spec: BinarySpec, sec: SectionSpec) -> int:
    if sec.size is not None:
        return sec.size
    size = len(sec.content)
    for fn in spec.functions:
        if fn.section == sec.name:
            size = max(size, _function_span(fn)[1])
    return size


def _build_dwarf(spec: BinarySpec, vaddr_of) -> dict[str, bytes]:
    """Assemble the .debug_* section contents, keyed by section name."""
    used_units = sorted(
        {d.unit for fn in spec.functions for d in fn.dwarf}
        | {site.unit for site in spec.inline_sites}
    )
    if not used_units:
        return {}
    little = spec.endianness == "little"
    addr_size = spec.word_size // 8
    top = (1 << spec.word_size) - 1

    info = bytearray()
    abbrev = bytearray()
    ranges = bytearray()
    rnglists = bytearray()
    rng_header_done = False

    for u in used_units:
        version = spec.dwarf_versions[u]
        writer = DwarfUnitWriter(version, addr_size, little)
        cu_name = spec.cu_names[u] if u < len(spec.cu_names) else f"src{u}.c"
        members = [
            (fn, d) for fn in spec.functions for d in fn.dwarf if d.unit == u
        ]
        lows = [vaddr_of(fn) for fn, _ in members]
        root = _WDie(
            DW_TAG_compile_unit,
            [
                (DW_AT_name, "string", cu_name),
                (DW_AT_low_pc, "addr", min(lows) if lows else 0),
            ],
        )
        writer.root = root
        subprogram_of: dict[str, _WDie] = {}
        for fn, d in members:
            low = vaddr_of(fn)
            attrs: list[tuple[int, str, object]] = []
            support: list[_WDie] = []
            if d.name_via == "direct":
                attrs.append((DW_AT_name, "string", fn.name))
            elif d.name_via == "specification":
                decl = _WDie(
                    DW_TAG_subprogram,
                    [
                        (DW_AT_name, "string", fn.name),
                        (DW_AT_declaration, "flag_present", True),
                    ],
                )
                support.append(decl)
                attrs.append((DW_AT_specification, "ref4", decl))
            elif d.name_via == "abstract_origin":
                abstract = _WDie(
                    DW_TAG_subprogram,
                    [
                        (DW_AT_name, "string", fn.name),
                        (DW_AT_inline, "udata", 1),
                    ],
                )
                support.append(abstract)
                attrs.append((DW_AT_abstract_origin, "ref4", abstract))
            else:
                raise InvalidSpecError(f"name_via {d.name_via!r}")

            if d.ranges is not None:
                if version >= 5:
                    if not rng_header_done:
                        rnglists += struct.pack(
                            ("<" if little else ">") + "IHBBI", 0, 5, addr_size, 0, 0
                        )
                        rng_header_done = True
                    off = len(rnglists)
                    pack_addr = ("<" if little else ">") + (
                        "I" if addr_size == 4 else "Q"
                    )
                    for lo, hi in d.ranges:
                        rnglists += b"\x06"  # start_end
                        rnglists += struct.pack(pack_addr, lo) + struct.pack(
                            pack_addr, hi
                        )
                    rnglists += b"\x00"
                    attrs.append((DW_AT_ranges, "sec_offset", off))
                else:
                    off = len(ranges)
                    pack_addr = ("<" if little else ">") + (
                        "I" if addr_size == 4 else "Q"
                    )
                    # Base selector pinning the base to zero keeps the
                    # pairs absolute.
                    ranges += struct.pack(pack_addr, top) + struct.pack(pack_addr, 0)
                    for lo, hi in d.ranges:
                        ranges += struct.pack(pack_addr, lo) + struct.pack(
                            pack_addr, hi
                        )
                    ranges += struct.pack(pack_addr, 0) * 2
                    form = "sec_offset" if version >= 4 else "data4"
                    attrs.append((DW_AT_ranges, form, off))
            else:
                attrs.append((DW_AT_low_pc, "addr", low))
                if d.highpc_form == "addr":
                    attrs.append((DW_AT_high_pc, "addr", low + len(fn.body)))
                elif d.highpc_form in _CONSTANT_HIGHPC:
                    attrs.append((DW_AT_high_pc, d.highpc_form, len(fn.body)))
                elif d.highpc_form != "none":
                    raise InvalidSpecError(f"high pc form {d.highpc_form!r}")
            if d.noreturn:
                attrs.append((DW_AT_noreturn, "flag_present", True))
            attrs.append((DW_AT_decl_file, "data1", 1))
            attrs.append((DW_AT_decl_line, "udata", d.decl_line))

            die = _WDie(DW_TAG_subprogram, attrs)
            for pname, has_loc in d.params:
                p_attrs: list[tuple[int, str, object]] = [
                    (DW_AT_name, "string", pname)
                ]
                if has_loc:
                    # DW_OP_reg1; any one-byte expression will do.
                    p_attrs.append((DW_AT_location, "exprloc", b"\x51"))
                die.children.append(_WDie(DW_TAG_formal_parameter, p_attrs))
            subprogram_of[fn.name] = die
            root.children.extend(support)
            root.children.append(die)

        for site in spec.inline_sites:
            if site.unit != u:
                continue
            host = subprogram_of.get(site.host)
            origin = subprogram_of.get(site.origin)
            if host is None or origin is None:
                raise InvalidSpecError(
                    f"inline site {site.origin!r} in {site.host!r} has no DIEs"
                )
            host.children.append(
                _WDie(
                    DW_TAG_inlined_subroutine,
                    [
                        (DW_AT_abstract_origin, "ref4", origin),
                        (DW_AT_low_pc, "addr", site.low),
                        (DW_AT_high_pc, "addr", site.high),
                    ],
                )
            )

        unit_bytes, abbrev_bytes = writer.serialize(len(abbrev))
        info += unit_bytes
        abbrev += abbrev_bytes

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
    _validate(spec)
    is64 = spec.word_size == 64
    if spec.word_size not in (32, 64):
        raise InvalidSpecError(f"word size {spec.word_size}")
    little = spec.endianness == "little"
    e = "<" if little else ">"

    section_vaddr = {s.name: s.vaddr for s in spec.sections}

    def vaddr_of(fn: FunctionSpec) -> int:
        return section_vaddr[fn.section] + fn.offset

    # Section contents; functions overlay their home section.
    contents: dict[str, bytes] = {}
    for sec in spec.sections:
        if sec.kind == "nobits":
            continue
        size = _section_size(spec, sec)
        buf = bytearray(size)
        buf[: len(sec.content)] = sec.content
        for fn in spec.functions:
            if fn.section != sec.name:
                continue
            blob = fn.body + fn.pad_after
            buf[fn.offset : fn.offset + len(blob)] = blob
        contents[sec.name] = bytes(buf)

    debug = _build_dwarf(spec, vaddr_of)

    # Section list: null, user sections, .shstrtab, symbol tables, debug.
    order: list[str] = [s.name for s in spec.sections]
    section_index = {name: i + 1 for i, name in enumerate(order)}

    # Symbol table: null entry, locals first, then global/weak.
    sym_entries: list[tuple[str, int, int, int, int, int]] = []
    if spec.emit_symtab:
        raw_syms: list[tuple[str, int, int, str, str, int]] = []
        for fn in spec.functions:
            if not fn.emit_symbol:
                continue
            shndx = section_index[fn.section]
            raw_syms.append(
                (fn.name, vaddr_of(fn), _symbol_size(fn), "function", fn.binding, shndx)
            )
            twin = fn.trailing_dot_twin
            if twin is not None:
                t_size = twin.size
                if t_size is None:
                    t_size = len(fn.body) - twin.offset
                raw_syms.append(
                    (
                        fn.name + ".",
                        vaddr_of(fn) + twin.offset,
                        t_size,
                        "function",
                        fn.binding,
                        shndx,
                    )
                )
            for alias, binding in fn.aliases:
                raw_syms.append(
                    (alias, vaddr_of(fn), _symbol_size(fn), "function", binding, shndx)
                )
        for extra in spec.extra_symbols:
            if extra.section not in section_index:
                raise InvalidSpecError(f"symbol {extra.name!r} in unknown section")
            raw_syms.append(
                (
                    extra.name,
                    section_vaddr[extra.section] + extra.offset,
                    extra.size,
                    extra.kind,
                    extra.binding,
                    section_index[extra.section],
                )
            )
        locals_first = [s for s in raw_syms if s[4] == "local"] + [
            s for s in raw_syms if s[4] != "local"
        ]
        strtab = _StrTab()
        for name, value, size, kind, binding, shndx in locals_first:
            info = (_BIND_CODES[binding] << 4) | _KIND_CODES[kind]
            sym_entries.append((strtab.add(name), value, size, info, 0, shndx))
        local_count = 1 + sum(1 for s in locals_first if s[4] == "local")
        order += [".symtab", ".strtab"]
    order += sorted(debug)
    order.append(".shstrtab")
    section_index = {name: i + 1 for i, name in enumerate(order)}

    if spec.emit_symtab:
        sym_fmt = e + ("IBBHQQ" if is64 else "IIIBBH")
        symtab_blob = bytearray(struct.calcsize(sym_fmt))  # null symbol
        for st_name, value, size, info, other, shndx in sym_entries:
            if is64:
                symtab_blob += struct.pack(
                    sym_fmt, st_name, info, other, shndx, value, size
                )
            else:
                symtab_blob += struct.pack(
                    sym_fmt, st_name, value, size, info, other, shndx
                )
        contents[".symtab"] = bytes(symtab_blob)
        contents[".strtab"] = bytes(strtab.blob)
    contents.update(debug)

    shstrtab = _StrTab()
    name_offsets = {name: shstrtab.add(name) for name in order}
    contents[".shstrtab"] = bytes(shstrtab.blob)

    ehdr_size = 64 if is64 else 52
    blob = bytearray(ehdr_size)
    offsets: dict[str, int] = {}
    spec_by_name = {s.name: s for s in spec.sections}
    for name in order:
        sec = spec_by_name.get(name)
        if sec is not None and sec.kind == "nobits":
            offsets[name] = len(blob)
            continue
        while len(blob) % 16:
            blob += b"\x00"
        offsets[name] = len(blob)
        blob += contents[name]
    while len(blob) % 8:
        blob += b"\x00"
    e_shoff = len(blob)

    sh_fmt = e + ("IIQQQQIIQQ" if is64 else "IIIIIIIIII")
    entsize = struct.calcsize(sh_fmt)
    sym_entsize = 24 if is64 else 16
    headers = [struct.pack(sh_fmt, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)]
    for name in order:
        sec = spec_by_name.get(name)
        if sec is not None:
            sh_type = 8 if sec.kind == "nobits" else 1
            flags = (
                (0x2 if sec.allocated else 0)
                | (0x1 if sec.writable else 0)
                | (0x4 if sec.executable else 0)
                | (0x400 if sec.tls else 0)
            )
            size = _section_size(spec, sec)
            headers.append(
                struct.pack(
                    sh_fmt,
                    name_offsets[name],
                    sh_type,
                    flags,
                    sec.vaddr,
                    offsets[name],
                    size,
                    0,
                    0,
                    16,
                    0,
                )
            )
        elif name == ".symtab":
            headers.append(
                struct.pack(
                    sh_fmt,
                    name_offsets[name],
                    2,
                    0,
                    0,
                    offsets[name],
                    len(contents[name]),
                    section_index[".strtab"],
                    local_count,
                    8 if is64 else 4,
                    sym_entsize,
                )
            )
        else:  # plain string/debug sections
            sh_type = 3 if name in (".strtab", ".shstrtab") else 1
            headers.append(
                struct.pack(
                    sh_fmt,
                    name_offsets[name],
                    sh_type,
                    0,
                    0,
                    offsets[name],
                    len(contents[name]),
                    0,
                    0,
                    1,
                    0,
                )
            )
    blob += b"".join(headers)

    exec_sections = [s for s in spec.sections if s.executable]
    e_entry = exec_sections[0].vaddr if exec_sections else 0
    ident = bytearray(16)
    ident[:4] = b"\x7fELF"
    ident[4] = 2 if is64 else 1
    ident[5] = 1 if little else 2
    ident[6] = 1
    ehdr_fmt = e + ("HHIQQQIHHHHHH" if is64 else "HHIIIIIHHHHHH")
    struct.pack_into(
        ehdr_fmt,
        blob,
        16,
        2,  # ET_EXEC
        _machine_for(spec),
        1,
        e_entry,
        0,
        e_shoff,
        0,
        ehdr_size,
        0,
        0,
        entsize,
        len(headers),
        section_index[".shstrtab"],
    )
    blob[:16] = ident
    return bytes(blob)


# x86 bytes that are neither return instructions nor padding-alphabet
# prefixes, safe as function-body filler.
_FILLER = bytes([0x89, 0x41, 0x53, 0x31, 0x50, 0x58, 0x8B, 0x01, 0x48, 0x83])


def _body(rng: random.Random, length: int) -> bytes:
    if length < 1:
        raise InvalidSpecError("body length must be positive")
    return bytes(rng.choice(_FILLER) for _ in range(length - 1)) + b"\xc3"


def _fixed_body(length: int) -> bytes:
    out = bytearray()
    while len(out) < length - 1:
        out.append(_FILLER[len(out) % len(_FILLER)])
    return bytes(out[: length - 1]) + b"\xc3"


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
    "highpc-twins": _preset_highpc_twins,
    "scaffold": _preset_scaffold,
    "stripped": _preset_stripped,
}


def preset(name: str) -> BinarySpec:
    try:
        return PRESETS[name]()
    except KeyError:
        raise UnknownPresetError(name) from None


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class CorpusFixture:
    name: str
    data: bytes
    spec: BinarySpec
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


def generate_corpus(
    seed: int, count: int, quirk_mix: dict[str, int] | None = None
) -> list[CorpusFixture]:
    """``count`` randomized fixtures with by-construction ground truth.

    Each function carries exactly one quirk drawn from ``quirk_mix``
    (weights; defaults exercise every quirk). The returned expectation is
    what the normalization pipeline must produce under default settings.
    """
    weights = dict(_QUIRK_WEIGHTS)
    if quirk_mix:
        unknown = set(quirk_mix) - set(weights)
        if unknown:
            raise InvalidSpecError(f"unknown quirks {sorted(unknown)}")
        weights.update(quirk_mix)
    names = list(weights)
    rng = random.Random(seed)
    fixtures: list[CorpusFixture] = []

    for index in range(count):
        word_size = rng.choice((32, 64))
        text_base = 0x08048000 if word_size == 32 else 0x400000
        cu_name = "prog.c"
        n_funcs = rng.randint(3, 8)
        quirks = rng.choices(names, weights=[weights[n] for n in names], k=n_funcs)
        if quirks[-1] == "omit_size":  # a sizeless tail would bind to section end
            quirks[-1] = "plain"

        functions: list[FunctionSpec] = []
        plans: list[dict] = []
        offset = 0
        serial = 0
        for quirk in quirks:
            body = _body(rng, rng.randint(8, 40))
            name = f"fn_{index}_{serial}"
            serial += 1
            gap_style = rng.choice(("none", "pad", "junk"))
            if quirk == "omit_size" and gap_style == "junk":
                gap_style = "pad"
            gap_len = 0 if gap_style == "none" else rng.randint(1, 12)
            gap = b""
            if gap_style == "pad":
                gap = _pad_fill(rng, gap_len)
            elif gap_style == "junk":
                gap = _junk_fill(rng, gap_len)

            dwarf: tuple[DwarfFuncSpec, ...] = (DwarfFuncSpec(decl_line=serial),)
            plan = {
                "quirk": quirk,
                "name": name,
                "offset": offset,
                "body": body,
                "gap": gap,
            }
            if quirk == "plain":
                fn = FunctionSpec(name, offset, body, pad_after=gap, dwarf=dwarf)
            elif quirk == "trailing_dot_twin":
                split = rng.randint(2, len(body) - 2)
                fn = FunctionSpec(
                    name,
                    offset,
                    body,
                    symbol_size=split,
                    trailing_dot_twin=TwinSpec(offset=split),
                    pad_after=gap,
                    dwarf=dwarf,
                )
            elif quirk == "alias":
                fn = FunctionSpec(
                    name,
                    offset,
                    body,
                    binding="global",
                    aliases=((name + "_alias", "weak"),),
                    pad_after=gap,
                    dwarf=dwarf,
                )
            elif quirk == "icc_size_includes_padding":
                if not gap or gap_style != "pad":
                    gap = _pad_fill(rng, rng.randint(1, 12))
                    plan["gap"] = gap
                fn = FunctionSpec(
                    name,
                    offset,
                    body,
                    pad_after=gap,
                    icc_size_includes_padding=True,
                    dwarf=dwarf,
                )
            elif quirk == "omit_size":
                fn = FunctionSpec(
                    name, offset, body, omit_size=True, pad_after=gap, dwarf=dwarf
                )
            elif quirk == "dwarf_highpc_constant":
                form = rng.choice(("data2", "data4", "udata"))
                fn = FunctionSpec(
                    name,
                    offset,
                    body,
                    pad_after=gap,
                    dwarf=(DwarfFuncSpec(highpc_form=form, decl_line=serial),),
                )
            elif quirk == "dwarf_highpc_address":
                fn = FunctionSpec(
                    name,
                    offset,
                    body,
                    pad_after=gap,
                    dwarf=(DwarfFuncSpec(highpc_form="addr", decl_line=serial),),
                )
            elif quirk == "dwarf_noreturn":
                fn = FunctionSpec(
                    name,
                    offset,
                    body,
                    pad_after=gap,
                    dwarf=(DwarfFuncSpec(noreturn=True, decl_line=serial),),
                )
            elif quirk == "no_dwarf":
                fn = FunctionSpec(name, offset, body, pad_after=gap, dwarf=())
            elif quirk == "specialization_clone":
                fn = FunctionSpec(name, offset, body, pad_after=gap, dwarf=dwarf)
            else:
                raise InvalidSpecError(quirk)
            functions.append(fn)
            plans.append(plan)
            offset += len(body) + len(gap)

            if quirk == "specialization_clone":
                clone_body = _body(rng, rng.randint(8, 24))
                clone = FunctionSpec(
                    f"{name}..0",
                    offset,
                    clone_body,
                    dwarf=(DwarfFuncSpec(decl_line=serial),),
                )
                functions.append(clone)
                plans.append(
                    {
                        "quirk": "clone_member",
                        "name": f"{name}..0",
                        "offset": offset,
                        "body": clone_body,
                        "gap": b"",
                    }
                )
                offset += len(clone_body)

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
        has_dwarf = any(fn.dwarf for fn in spec.functions)

        expected: list[ExpectedFunction] = []
        diag: dict[str, int] = {}

        def bump(code: str, n: int = 1) -> None:
            diag[code] = diag.get(code, 0) + n

        if not has_dwarf:
            bump("GT_NO_DEBUG_INFO")
        for plan in plans:
            quirk = plan["quirk"]
            name = plan["name"]
            start = text_base + plan["offset"]
            body_end = start + len(plan["body"])
            gap = plan["gap"]
            flags: set[str] = set()
            provenance = {"symtab"}
            entries = (start,)
            aliases: tuple[str, ...] = ()
            group = None
            end_raw = body_end
            end_trimmed = body_end
            source: tuple[str, int] | None = None
            fn_spec = next(f for f in functions if f.name == name)
            if fn_spec.dwarf:
                provenance.add("dwarf")
                source = (cu_name, fn_spec.dwarf[0].decl_line)
            elif has_dwarf:
                flags.add("compiler_inserted")

            if quirk == "trailing_dot_twin":
                flags.add("multi_entry")
                split = fn_spec.symbol_size
                entries = (start, start + split)
                aliases = (name + ".",)
                bump("GT_MULTI_ENTRY_MERGED")
            elif quirk == "alias":
                flags.add("merged_alias")
                aliases = (name + "_alias",)
                bump("GT_ALIAS_MERGED")
            elif quirk == "icc_size_includes_padding":
                end_raw = body_end + len(gap)
                bump("GT_PADDING_TRIMMED")
            elif quirk == "omit_size":
                end_raw = body_end + len(gap)
                bump("GT_MISSING_SIZE")
                if gap:
                    bump("GT_PADDING_TRIMMED")
            elif quirk == "dwarf_noreturn":
                flags.add("noreturn")
            elif quirk in ("specialization_clone", "clone_member"):
                base = name.rsplit("..", 1)[0]
                group = base
                if quirk == "clone_member":
                    flags.add("specialized")
            if not has_dwarf:
                flags.add("compiler_inserted")
            expected.append(
                ExpectedFunction(
                    canonical=name,
                    start=start,
                    entries=entries,
                    end_raw=end_raw,
                    end_trimmed=end_trimmed,
                    flags=frozenset(flags),
                    aliases=aliases,
                    group=group,
                    provenance=frozenset(provenance),
                    source=source,
                )
            )

        expected.sort(key=lambda f: f.start)
        fixtures.append(
            CorpusFixture(
                name=f"fixture_{seed}_{index}",
                data=emit(spec),
                spec=spec,
                functions=tuple(expected),
                diagnostic_codes=tuple(sorted(diag.items())),
                complete=True,
            )
        )
    return fixtures
