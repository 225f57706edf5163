"""DWARF v2-v5 reader for the attributes that matter to function ground truth.

Walks compile units in .debug_info, resolving only what the pipeline
consumes: subprogram names (through specification/abstract_origin chains),
entry addresses, high-pc in both its address and constant flavors,
discontiguous ranges, declaration coordinates and noreturn flags. Every
attribute is decoded by its form so the walk can step over it; no other
attribute is read. Inlined copies yield diagnostics but never records.

Malformed debug data never propagates as an exception: the reader returns
whatever parsed cleanly plus an error diagnostic.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

from . import elf
from .model import (
    GT_DEBUG_OUTSIDE_EXEC,
    GT_DISCONTIGUOUS_RANGE,
    GT_MALFORMED_DEBUG_DATA,
    GT_NO_DEBUG_INFO,
    GT_SUBPROGRAM_NO_ADDRESS,
    BinaryImage,
    Diagnostic,
)

DW_TAG_compile_unit = 0x11
DW_TAG_subprogram = 0x2E
DW_TAG_inlined_subroutine = 0x1D

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
DW_AT_str_offsets_base = 0x72
DW_AT_addr_base = 0x73
DW_AT_rnglists_base = 0x74
DW_AT_noreturn = 0x87

DW_UT_compile = 0x01

# Forms whose value is already the end address, vs. an offset from low_pc.
ADDRESS_FORMS = frozenset({0x01, 0x1B, 0x29, 0x2A, 0x2B, 0x2C})
CONSTANT_FORMS = frozenset({0x05, 0x06, 0x07, 0x0B, 0x0D, 0x0F, 0x21})

# DW_RLE_* entry kinds in .debug_rnglists.
RLE_END_OF_LIST = 0x00
RLE_BASE_ADDRESSX = 0x01
RLE_STARTX_ENDX = 0x02
RLE_STARTX_LENGTH = 0x03
RLE_OFFSET_PAIR = 0x04
RLE_BASE_ADDRESS = 0x05
RLE_START_END = 0x06
RLE_START_LENGTH = 0x07


class MalformedDebugDataError(ValueError):
    """Debug info that cannot be decoded (bad form, truncated unit, ...)."""


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


def sleb_encode(value: int) -> bytes:
    """Signed LEB128."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        sign = byte & 0x40
        if (value == 0 and not sign) or (value == -1 and sign):
            out.append(byte)
            return bytes(out)
        out.append(byte | 0x80)


def uleb_decode(blob: bytes, pos: int) -> tuple[int, int]:
    """Decode unsigned LEB128 at ``pos``; returns (value, next position)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(blob):
            raise MalformedDebugDataError("uleb128 runs past end of data")
        byte = blob[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def sleb_decode(blob: bytes, pos: int) -> tuple[int, int]:
    """Decode signed LEB128 at ``pos``; returns (value, next position)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(blob):
            raise MalformedDebugDataError("sleb128 runs past end of data")
        byte = blob[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            if byte & 0x40:
                result -= 1 << shift
            return result, pos


@dataclass(frozen=True, slots=True)
class DebugFunctionRecord:
    """A function as debug info describes it.

    ``end_exclusive`` is None when the producer recorded no extent.
    """

    name: str
    low_pc: int
    end_exclusive: int | None
    decl_file: str
    decl_line: int
    noreturn: bool


def resolve_high_pc(
    low_pc: int, form_class: str, value: int, address_bits: int = 64
) -> int:
    """Exclusive end address from a high-pc attribute.

    Address-class forms already hold the end; constant-class forms hold an
    offset from ``low_pc``. Raises OverflowError when the sum leaves the
    address space.
    """
    if form_class == "address":
        return value
    if form_class != "constant":
        raise ValueError(f"unknown high-pc form class {form_class!r}")
    end = low_pc + value
    if end > 1 << address_bits:
        raise OverflowError(
            f"high pc {end:#x} exceeds {address_bits}-bit address space"
        )
    return end


class _Cursor:
    """Sequential reader over one section blob."""

    __slots__ = ("blob", "pos", "end_char")

    def __init__(self, blob: bytes, pos: int, little_endian: bool):
        self.blob = blob
        self.pos = pos
        self.end_char = "<" if little_endian else ">"

    def _fixed(self, fmt: str, width: int) -> int:
        if self.pos + width > len(self.blob):
            raise MalformedDebugDataError("fixed-width read past end of unit")
        value = struct.unpack_from(self.end_char + fmt, self.blob, self.pos)[0]
        self.pos += width
        return value

    def u8(self) -> int:
        return self._fixed("B", 1)

    def u16(self) -> int:
        return self._fixed("H", 2)

    def u32(self) -> int:
        return self._fixed("I", 4)

    def u64(self) -> int:
        return self._fixed("Q", 8)

    def uleb(self) -> int:
        value, self.pos = uleb_decode(self.blob, self.pos)
        return value

    def sleb(self) -> int:
        value, self.pos = sleb_decode(self.blob, self.pos)
        return value

    def raw(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise MalformedDebugDataError("block read past end of unit")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def cstr(self) -> str:
        end = self.blob.find(b"\x00", self.pos)
        if end < 0:
            raise MalformedDebugDataError("unterminated string")
        out = self.blob[self.pos : end].decode("utf-8", errors="replace")
        self.pos = end + 1
        return out

    def address(self, addr_size: int) -> int:
        if addr_size == 4:
            return self.u32()
        if addr_size == 8:
            return self.u64()
        raise MalformedDebugDataError(f"address size {addr_size}")


def _str_at(blob: bytes, off: int, what: str) -> str:
    if off >= len(blob):
        raise MalformedDebugDataError(f"{what} offset {off:#x} out of range")
    end = blob.find(b"\x00", off)
    if end < 0:
        end = len(blob)
    return blob[off:end].decode("utf-8", errors="replace")


@dataclass(slots=True)
class _Die:
    tag: int
    # attr -> (form, decoded value); references decode to ("cu_ref", off)
    # or ("sec_ref", off) markers, string/address indices to ("strx", n)
    # and ("addrx", n) until unit bases are known.
    attrs: dict[int, tuple[int, object]]


@dataclass(slots=True)
class _Aux:
    """Companion section blobs one .debug_info blob resolves against."""

    abbrev: bytes
    debug_str: bytes
    line_str: bytes
    str_offsets: bytes
    addr: bytes
    ranges: bytes
    rnglists: bytes


@dataclass(slots=True)
class _Unit:
    version: int
    addr_size: int
    cu_start: int
    dies: dict[int, _Die]
    root: int
    little_endian: bool
    aux: _Aux
    addr_base: int = 8
    str_base: int = 8
    rnglists_base: int = 12


def _parse_abbrev_table(blob: bytes, offset: int) -> dict[int, tuple[int, list]]:
    """abbrev code -> (tag, [(attr, form, implicit), ...])."""
    if offset >= len(blob):
        raise MalformedDebugDataError(f"abbrev offset {offset:#x} out of range")
    table: dict[int, tuple[int, list]] = {}
    pos = offset
    while True:
        code, pos = uleb_decode(blob, pos)
        if code == 0:
            return table
        tag, pos = uleb_decode(blob, pos)
        if pos >= len(blob):
            raise MalformedDebugDataError("abbrev entry truncated")
        pos += 1  # the has-child flag: DIEs are read flat, not as a tree
        pairs: list[tuple[int, int, int | None]] = []
        while True:
            attr, pos = uleb_decode(blob, pos)
            form, pos = uleb_decode(blob, pos)
            if attr == 0 and form == 0:
                break
            implicit = None
            if form == 0x21:  # implicit_const carries its value in the abbrev
                implicit, pos = sleb_decode(blob, pos)
            pairs.append((attr, form, implicit))
        table[code] = (tag, pairs)


def _read_form(
    cur: _Cursor, form: int, unit: _Unit, implicit: int | None
) -> tuple[int, object]:
    """Decode one attribute value; returns (effective form, value)."""
    aux = unit.aux
    if form == 0x16:  # indirect: real form precedes the value
        real = cur.uleb()
        return _read_form(cur, real, unit, implicit)
    if form == 0x01:
        return form, cur.address(unit.addr_size)
    if form == 0x03:
        return form, cur.raw(cur.u16())
    if form == 0x04:
        return form, cur.raw(cur.u32())
    if form == 0x05:
        return form, cur.u16()
    if form == 0x06:
        return form, cur.u32()
    if form == 0x07:
        return form, cur.u64()
    if form == 0x08:
        return form, cur.cstr()
    if form == 0x09:
        return form, cur.raw(cur.uleb())
    if form == 0x0A:
        return form, cur.raw(cur.u8())
    if form == 0x0B:
        return form, cur.u8()
    if form == 0x0C:
        return form, bool(cur.u8())
    if form == 0x0D:
        return form, cur.sleb()
    if form == 0x0E:
        return form, _str_at(aux.debug_str, cur.u32(), ".debug_str")
    if form == 0x0F:
        return form, cur.uleb()
    if form == 0x10:
        # DWARF2 made ref_addr address-sized; later versions offset-sized.
        off = cur.address(unit.addr_size) if unit.version == 2 else cur.u32()
        return form, ("sec_ref", off)
    if form == 0x11:
        return form, ("cu_ref", cur.u8())
    if form == 0x12:
        return form, ("cu_ref", cur.u16())
    if form == 0x13:
        return form, ("cu_ref", cur.u32())
    if form == 0x14:
        return form, ("cu_ref", cur.u64())
    if form == 0x15:
        return form, ("cu_ref", cur.uleb())
    if form == 0x17:
        return form, cur.u32()
    if form == 0x18:
        return form, cur.raw(cur.uleb())
    if form == 0x19:
        return form, True
    if form == 0x1A:
        return form, ("strx", cur.uleb())
    if form == 0x1B:
        return form, ("addrx", cur.uleb())
    if form == 0x1C:
        return form, cur.u32()
    if form == 0x1D:
        return form, ("strx", cur.u32())
    if form == 0x1E:
        return form, cur.raw(16)
    if form == 0x1F:
        return form, _str_at(aux.line_str, cur.u32(), ".debug_line_str")
    if form == 0x20:
        return form, cur.u64()
    if form == 0x21:
        return form, implicit if implicit is not None else 0
    if form == 0x22:
        return form, cur.uleb()
    if form == 0x23:
        return form, cur.uleb()
    if form == 0x24:
        return form, cur.u64()
    if form == 0x25:
        return form, ("strx", cur.u8())
    if form == 0x26:
        return form, ("strx", cur.u16())
    if form == 0x27:
        return form, ("strx", int.from_bytes(cur.raw(3), "little"))
    if form == 0x28:
        return form, ("strx", cur.u32())
    if form == 0x29:
        return form, ("addrx", cur.u8())
    if form == 0x2A:
        return form, ("addrx", cur.u16())
    if form == 0x2B:
        return form, ("addrx", int.from_bytes(cur.raw(3), "little"))
    if form == 0x2C:
        return form, ("addrx", cur.u32())
    raise MalformedDebugDataError(f"unknown form {form:#x}")


def _indexed_addr(unit: _Unit, index: int) -> int:
    blob = unit.aux.addr
    off = unit.addr_base + index * unit.addr_size
    if off + unit.addr_size > len(blob):
        raise MalformedDebugDataError(f".debug_addr index {index} out of range")
    return int.from_bytes(
        blob[off : off + unit.addr_size],
        "little" if unit.little_endian else "big",
    )


def _indexed_str(unit: _Unit, index: int) -> str:
    blob = unit.aux.str_offsets
    off = unit.str_base + index * 4
    if off + 4 > len(blob):
        raise MalformedDebugDataError(f".debug_str_offsets index {index} out of range")
    str_off = int.from_bytes(
        blob[off : off + 4], "little" if unit.little_endian else "big"
    )
    return _str_at(unit.aux.debug_str, str_off, ".debug_str")


def _materialize_indices(unit: _Unit) -> None:
    """Replace strx/addrx markers once the unit's base offsets are known."""
    root_attrs = unit.dies[unit.root].attrs
    if DW_AT_addr_base in root_attrs:
        unit.addr_base = root_attrs[DW_AT_addr_base][1]  # type: ignore[assignment]
    if DW_AT_str_offsets_base in root_attrs:
        unit.str_base = root_attrs[DW_AT_str_offsets_base][1]  # type: ignore[assignment]
    if DW_AT_rnglists_base in root_attrs:
        unit.rnglists_base = root_attrs[DW_AT_rnglists_base][1]  # type: ignore[assignment]
    for die in unit.dies.values():
        for attr, (form, value) in list(die.attrs.items()):
            if isinstance(value, tuple) and len(value) == 2:
                kind, idx = value
                if kind == "strx":
                    die.attrs[attr] = (form, _indexed_str(unit, idx))
                elif kind == "addrx":
                    die.attrs[attr] = (form, _indexed_addr(unit, idx))


def _parse_unit(blob: bytes, pos: int, little_endian: bool, aux: _Aux) -> tuple[_Unit, int]:
    """Parse one compile unit starting at ``pos``; returns (unit, next pos)."""
    cur = _Cursor(blob, pos, little_endian)
    length = cur.u32()
    if length >= 0xFFFFFFF0:
        raise MalformedDebugDataError("64-bit DWARF units are not supported")
    unit_end = cur.pos + length
    if unit_end > len(blob):
        raise MalformedDebugDataError("unit length extends past .debug_info")
    version = cur.u16()
    if version < 2 or version > 5:
        raise MalformedDebugDataError(f"DWARF version {version}")
    if version == 5:
        unit_type = cur.u8()
        if unit_type != DW_UT_compile:
            raise MalformedDebugDataError(f"unit type {unit_type:#x}")
        addr_size = cur.u8()
        abbrev_off = cur.u32()
    else:
        abbrev_off = cur.u32()
        addr_size = cur.u8()
    if addr_size not in (4, 8):
        raise MalformedDebugDataError(f"address size {addr_size}")

    abbrevs = _parse_abbrev_table(aux.abbrev, abbrev_off)
    unit = _Unit(
        version=version,
        addr_size=addr_size,
        cu_start=pos,
        dies={},
        root=-1,
        little_endian=little_endian,
        aux=aux,
    )

    while cur.pos < unit_end:
        die_off = cur.pos
        code = cur.uleb()
        if code == 0:  # end of a sibling chain
            continue
        if code not in abbrevs:
            raise MalformedDebugDataError(f"abbrev code {code} not in table")
        tag, pairs = abbrevs[code]
        attrs: dict[int, tuple[int, object]] = {}
        for attr, form, implicit in pairs:
            eff_form, value = _read_form(cur, form, unit, implicit)
            if attr:
                attrs[attr] = (eff_form, value)
        unit.dies[die_off] = _Die(tag=tag, attrs=attrs)
        if unit.root < 0:
            unit.root = die_off
    if unit.root < 0:
        raise MalformedDebugDataError("compile unit has no DIEs")
    _materialize_indices(unit)
    return unit, unit_end


def _deref(unit: _Unit, marker: object) -> _Die | None:
    if not (isinstance(marker, tuple) and len(marker) == 2):
        return None
    kind, off = marker
    if kind == "cu_ref":
        return unit.dies.get(unit.cu_start + off)
    if kind == "sec_ref":
        # Same-section reference; units parsed from one blob share offsets.
        return unit.dies.get(off)
    return None


def _inherited(unit: _Unit, die: _Die, attr: int) -> tuple[int, object] | None:
    """Attribute lookup following specification/abstract_origin chains."""
    seen: set[int] = set()
    current: _Die | None = die
    while current is not None:
        if attr in current.attrs:
            return current.attrs[attr]
        nxt: _Die | None = None
        for link in (DW_AT_specification, DW_AT_abstract_origin):
            if link in current.attrs:
                nxt = _deref(unit, current.attrs[link][1])
                break
        if nxt is None or id(nxt) in seen:
            return None
        seen.add(id(nxt))
        current = nxt
    return None


def _ranges_v4(unit: _Unit, offset: int, base: int) -> list[tuple[int, int]]:
    blob = unit.aux.ranges
    cur = _Cursor(blob, offset, unit.little_endian)
    top = (1 << (unit.addr_size * 8)) - 1
    pairs: list[tuple[int, int]] = []
    while True:
        start = cur.address(unit.addr_size)
        end = cur.address(unit.addr_size)
        if start == top:
            base = end
            continue
        if start == 0 and end == 0:
            return pairs
        pairs.append((base + start, base + end))


def _ranges_v5(unit: _Unit, offset: int, base: int) -> list[tuple[int, int]]:
    blob = unit.aux.rnglists
    cur = _Cursor(blob, offset, unit.little_endian)
    pairs: list[tuple[int, int]] = []
    while True:
        kind = cur.u8()
        if kind == RLE_END_OF_LIST:
            return pairs
        if kind == RLE_BASE_ADDRESSX:
            base = _indexed_addr(unit, cur.uleb())
        elif kind == RLE_STARTX_ENDX:
            s = _indexed_addr(unit, cur.uleb())
            e = _indexed_addr(unit, cur.uleb())
            pairs.append((s, e))
        elif kind == RLE_STARTX_LENGTH:
            s = _indexed_addr(unit, cur.uleb())
            pairs.append((s, s + cur.uleb()))
        elif kind == RLE_OFFSET_PAIR:
            s = cur.uleb()
            e = cur.uleb()
            pairs.append((base + s, base + e))
        elif kind == RLE_BASE_ADDRESS:
            base = cur.address(unit.addr_size)
        elif kind == RLE_START_END:
            s = cur.address(unit.addr_size)
            pairs.append((s, cur.address(unit.addr_size)))
        elif kind == RLE_START_LENGTH:
            s = cur.address(unit.addr_size)
            pairs.append((s, s + cur.uleb()))
        else:
            raise MalformedDebugDataError(f"range list entry kind {kind:#x}")


def _resolve_ranges(unit: _Unit, die: _Die, cu_base: int) -> list[tuple[int, int]]:
    form, value = die.attrs[DW_AT_ranges]
    if unit.version >= 5:
        if form == 0x23:  # rnglistx: indirect through the offset table
            blob = unit.aux.rnglists
            off = unit.rnglists_base + value * 4
            if off + 4 > len(blob):
                raise MalformedDebugDataError("rnglistx index out of range")
            rel = int.from_bytes(
                blob[off : off + 4], "little" if unit.little_endian else "big"
            )
            return _ranges_v5(unit, unit.rnglists_base + rel, cu_base)
        return _ranges_v5(unit, value, cu_base)
    return _ranges_v4(unit, value, cu_base)


def _section_blobs(image: BinaryImage, name: str) -> list[bytes]:
    out = []
    for sec in image.sections:
        if sec.name == name and sec.file_offset is not None:
            out.append(image.raw[sec.file_offset : sec.file_offset + sec.size])
    return out


def _nth(blobs: list[bytes], i: int) -> bytes:
    if not blobs:
        return b""
    return blobs[min(i, len(blobs) - 1)]


def _unit_records(
    unit: _Unit, image: BinaryImage, diagnostics: list[Diagnostic]
) -> list[DebugFunctionRecord]:
    root = unit.dies[unit.root]
    cu_name = ""
    if DW_AT_name in root.attrs:
        cu_name = str(root.attrs[DW_AT_name][1])
    cu_base = 0
    if DW_AT_low_pc in root.attrs:
        low = root.attrs[DW_AT_low_pc][1]
        if isinstance(low, int):
            cu_base = low

    def attr_value(die: _Die, attr: int):
        got = _inherited(unit, die, attr)
        return None if got is None else got[1]

    def resolved_name(die: _Die) -> str:
        value = attr_value(die, DW_AT_name)
        return str(value) if isinstance(value, str) else ""

    def decl_coords(die: _Die) -> tuple[str, int]:
        file_idx = attr_value(die, DW_AT_decl_file)
        line = attr_value(die, DW_AT_decl_line)
        # sdata and implicit_const can be negative, flag forms decode to bool.
        decl_line = line if type(line) is int and line >= 0 else 0
        if not isinstance(file_idx, int):
            return "", decl_line
        # Indexes 0 and 1 name the primary source file in every version
        # this reader accepts; other entries would need the line program.
        if file_idx in (0, 1):
            return cu_name, decl_line
        return f"file#{file_idx}", decl_line

    def extent(die: _Die, name: str) -> tuple[int, int | None] | None:
        """(low_pc, end_exclusive) or None when the DIE has no addresses.

        A low/high pair wins; otherwise a non-empty range list gives its
        hull; otherwise a bare low_pc gives an open extent.
        """
        low = die.attrs.get(DW_AT_low_pc, (0, None))[1]
        if not isinstance(low, int):
            low = None
        high_raw = die.attrs.get(DW_AT_high_pc)
        if low is not None and high_raw is not None:
            form, value = high_raw
            if not isinstance(value, int):
                raise MalformedDebugDataError("non-integer high pc")
            if form in ADDRESS_FORMS:
                klass = "address"
            elif form in CONSTANT_FORMS:
                klass = "constant"
            else:
                raise MalformedDebugDataError(f"high pc form {form:#x}")
            try:
                end = resolve_high_pc(low, klass, value, unit.addr_size * 8)
            except OverflowError as exc:
                raise MalformedDebugDataError(str(exc)) from None
            return low, end
        if DW_AT_ranges in die.attrs:
            pairs = _resolve_ranges(unit, die, cu_base)
            if any(hi < lo for lo, hi in pairs):
                raise MalformedDebugDataError(
                    f"range list of {name or '<anonymous>'} ends before it starts"
                )
            if pairs:
                lo = min(p[0] for p in pairs)
                hi = max(p[1] for p in pairs)
                diagnostics.append(
                    Diagnostic(
                        "warning",
                        GT_DISCONTIGUOUS_RANGE,
                        f"{name or '<anonymous>'} at {lo:#x} spans "
                        f"{len(pairs)} ranges; using the hull",
                        span=(lo, hi - lo),
                    )
                )
                return lo, hi
        return None if low is None else (low, None)

    records: list[DebugFunctionRecord] = []
    for die in unit.dies.values():
        if die.tag not in (DW_TAG_subprogram, DW_TAG_inlined_subroutine):
            continue
        inlined = die.tag == DW_TAG_inlined_subroutine
        name = resolved_name(die)
        span = extent(die, name)
        if span is None:
            if inlined:
                continue
            # Declarations and abstract instances legitimately lack
            # addresses; only concrete definitions are worth a note.
            if die.attrs.get(DW_AT_declaration, (0, False))[1]:
                continue
            if DW_AT_inline in die.attrs:
                continue
            diagnostics.append(
                Diagnostic(
                    "info",
                    GT_SUBPROGRAM_NO_ADDRESS,
                    f"subprogram {name or '<anonymous>'} carries no address; skipped",
                )
            )
            continue
        low, end = span
        sec = elf.section_of(image, low)
        if sec is None or not sec.executable:
            diagnostics.append(
                Diagnostic(
                    "warning",
                    GT_DEBUG_OUTSIDE_EXEC,
                    f"debug info places {name or '<anonymous>'} at {low:#x}, "
                    "outside every executable section",
                    span=(low, 0),
                )
            )
        if inlined:
            continue  # an inlined copy is never a function start of its own
        noreturn_val = attr_value(die, DW_AT_noreturn)
        decl_file, decl_line = decl_coords(die)
        records.append(
            DebugFunctionRecord(
                name=name,
                low_pc=low,
                end_exclusive=end,
                decl_file=decl_file,
                decl_line=decl_line,
                noreturn=bool(noreturn_val),
            )
        )
    return records


def extract_debug_functions(
    image: BinaryImage,
) -> tuple[list[DebugFunctionRecord], list[Diagnostic]]:
    """All function records debug info yields for ``image``.

    Absent debug info is an expected state (stripped binary) and reports
    GT_NO_DEBUG_INFO; malformed data reports GT_MALFORMED_DEBUG_DATA and
    returns whatever units parsed before the damage.
    """
    info_blobs = _section_blobs(image, ".debug_info")
    diagnostics: list[Diagnostic] = []
    if not info_blobs:
        diagnostics.append(
            Diagnostic(
                "warning",
                GT_NO_DEBUG_INFO,
                "no .debug_info section; ground truth rests on symbols alone",
            )
        )
        return [], diagnostics

    abbrev_blobs = _section_blobs(image, ".debug_abbrev")
    str_blobs = _section_blobs(image, ".debug_str")
    line_str_blobs = _section_blobs(image, ".debug_line_str")
    str_off_blobs = _section_blobs(image, ".debug_str_offsets")
    addr_blobs = _section_blobs(image, ".debug_addr")
    ranges_blobs = _section_blobs(image, ".debug_ranges")
    rnglists_blobs = _section_blobs(image, ".debug_rnglists")

    little = image.endianness == "little"
    records: list[DebugFunctionRecord] = []
    for i, blob in enumerate(info_blobs):
        aux = _Aux(
            abbrev=_nth(abbrev_blobs, i),
            debug_str=_nth(str_blobs, i),
            line_str=_nth(line_str_blobs, i),
            str_offsets=_nth(str_off_blobs, i),
            addr=_nth(addr_blobs, i),
            ranges=_nth(ranges_blobs, i),
            rnglists=_nth(rnglists_blobs, i),
        )
        pos = 0
        data_end = len(blob.rstrip(b"\0"))  # zero padding may follow the last unit
        try:
            while pos < data_end:
                unit, pos = _parse_unit(blob, pos, little, aux)
                records.extend(_unit_records(unit, image, diagnostics))
        except MalformedDebugDataError as exc:
            diagnostics.append(
                Diagnostic(
                    "error",
                    GT_MALFORMED_DEBUG_DATA,
                    f"debug info unreadable past offset {pos:#x}: {exc}",
                )
            )
    return records, diagnostics
