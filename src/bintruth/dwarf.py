"""DWARF v2-v5 reader for the attributes that matter to function ground truth.

Walks compile units in .debug_info, resolving only what the pipeline
consumes: subprogram names (through specification/abstract_origin chains),
entry addresses, high-pc in both its address and constant flavors,
discontiguous ranges, declaration coordinates and noreturn flags. Inlined
copies yield diagnostics but never records.

One compiler, ``_compile_plan``, turns each abbrev into a plan from one
form catalog, which gives each form's width. A plan that decodes reads
only the kinds in ``_READ_ATTRS``, the 14 ``DW_AT_*`` constants below: a
run of fixed-width forms is one cached ``struct.Struct`` whose unread
members are pad bytes, a variable-width form nothing reads is stepped
over at its skip width, and flag_present and implicit_const read as
constants. Only the first DIE of a unit and the DIEs tagged compile_unit,
subprogram or inlined_subroutine are decoded; every other DIE is stepped
over by a plan that reads nothing, which is a plain int when its forms
are all fixed. The walk records where each skipped DIE starts, and a
specification or abstract_origin link that lands on one decodes it then
by its decode plan.

Plans check no bounds as they go. A DIE whose planned read fails, or ends
past the section, is read again by the full decoder (``_read_attrs``),
which raises what it hit: a read past the section end, an unterminated
string or a runaway LEB128. That decoder also reads the DIEs whose abbrev
has a form with no width in the catalog (indirect, or an unknown form,
which it refuses).

Decoding keeps each attribute's raw value; ``_value`` gives it its meaning
when the pipeline reads it, resolving string offsets and string and
address indexes against their sections then. So what an attribute points
at is checked only if it is read: a .debug_str offset out of range in a
variable's name or a function's linkage name leaves the unit readable.

Malformed debug data never propagates as an exception. Damage found while
resolving a unit's records drops that unit's records and diagnostics and
reports an error naming where the unit starts; the reader then goes on
with the next unit. Damage that stops the walk of a unit stops the reader
there, with the same error.
"""
from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

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

# The attributes a decoded DIE keeps: every one the pipeline looks up.
_READ_ATTRS = frozenset(
    {
        DW_AT_name, DW_AT_low_pc, DW_AT_high_pc, DW_AT_inline,
        DW_AT_abstract_origin, DW_AT_decl_file, DW_AT_decl_line,
        DW_AT_declaration, DW_AT_specification, DW_AT_ranges,
        DW_AT_str_offsets_base, DW_AT_addr_base, DW_AT_rnglists_base,
        DW_AT_noreturn,
    }
)

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


_UINT_READERS = {
    little: {
        width: struct.Struct(("<" if little else ">") + code)
        for width, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
    }
    for little in (True, False)
}


class _Cursor:
    """Sequential reader over one section blob."""

    __slots__ = ("blob", "pos", "readers")

    def __init__(self, blob: bytes, pos: int, little_endian: bool):
        self.blob = blob
        self.pos = pos
        self.readers = _UINT_READERS[little_endian]

    def uint(self, width: int) -> int:
        """Unsigned integer of 1, 2, 4 or 8 bytes."""
        if self.pos + width > len(self.blob):
            raise MalformedDebugDataError("fixed-width read past end of unit")
        value = self.readers[width].unpack_from(self.blob, self.pos)[0]
        self.pos += width
        return value

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
        out, self.pos = _cstr_at(self.blob, self.pos)
        return out


def _cstr_at(blob: bytes, pos: int) -> tuple[str, int]:
    """The NUL-terminated string at ``pos`` and the position after it."""
    end = blob.find(b"\x00", pos)
    if end < 0:
        raise MalformedDebugDataError("unterminated string")
    return blob[pos:end].decode("utf-8", errors="replace"), end + 1


def _str_at(blob: bytes, off: int, what: str) -> str:
    text = elf._cstr(blob, off)
    if text is None:
        raise MalformedDebugDataError(f"{what} offset {off:#x} out of range")
    return text


# The form catalog: the width of each form's value in .debug_info. A width
# >= 0 is a fixed byte count; the negative kinds are read to learn theirs.
# Indirect (0x16) is missing because only decoding its real form sizes it.
_LEB = -1  # one LEB128 number
_CSTR = -2  # a NUL-terminated string
_BLOCK1, _BLOCK2, _BLOCK4, _BLOCK_LEB = -3, -4, -5, -6  # a length, then bytes
_BLOCK_LENGTHS = {_BLOCK1: 1, _BLOCK2: 2, _BLOCK4: 4}


@functools.cache
def _form_widths(version: int, addr_size: int) -> dict[int, int]:
    """form -> width in a unit of this version and address size."""
    return {
        0x01: addr_size,  # addr
        0x03: _BLOCK2,
        0x04: _BLOCK4,
        0x05: 2,  # data2
        0x06: 4,  # data4
        0x07: 8,  # data8
        0x08: _CSTR,  # string
        0x09: _BLOCK_LEB,
        0x0A: _BLOCK1,
        0x0B: 1,  # data1
        0x0C: 1,  # flag
        0x0D: _LEB,  # sdata
        0x0E: 4,  # strp
        0x0F: _LEB,  # udata
        # DWARF 2 made ref_addr address-sized; later versions offset-sized.
        0x10: addr_size if version == 2 else 4,
        0x11: 1,  # ref1
        0x12: 2,  # ref2
        0x13: 4,  # ref4
        0x14: 8,  # ref8
        0x15: _LEB,  # ref_udata
        0x17: 4,  # sec_offset
        0x18: _BLOCK_LEB,  # exprloc
        0x19: 0,  # flag_present
        0x1A: _LEB,  # strx
        0x1B: _LEB,  # addrx
        0x1C: 4,  # ref_sup4
        0x1D: 4,  # strp_sup
        0x1E: 16,  # data16
        0x1F: 4,  # line_strp
        0x20: 8,  # ref_sig8
        0x21: 0,  # implicit_const: the value sits in the abbrev
        0x22: _LEB,  # loclistx
        0x23: _LEB,  # rnglistx
        0x24: 8,  # ref_sup8
        0x25: 1,  # strx1
        0x26: 2,  # strx2
        0x27: 3,  # strx3
        0x28: 4,  # strx4
        0x29: 1,  # addrx1
        0x2A: 2,  # addrx2
        0x2B: 3,  # addrx3
        0x2C: 4,  # addrx4
    }


_STRX_FORMS = frozenset({0x1A, 0x25, 0x26, 0x27, 0x28})
_ADDRX_FORMS = ADDRESS_FORMS - {0x01}
# ref1, ref2, ref4, ref8 and ref_udata: offsets from the unit's start.
_UNIT_REF_FORMS = frozenset({0x11, 0x12, 0x13, 0x14, 0x15})

# The tags whose DIEs the walk decodes; any other DIE is stepped over and
# decoded only when a specification or abstract_origin link lands on it.
_DECODED_TAGS = frozenset(
    {DW_TAG_compile_unit, DW_TAG_subprogram, DW_TAG_inlined_subroutine}
)


@dataclass(slots=True)
class _Die:
    tag: int
    attrs: dict[int, tuple[int, object]]  # attr -> (form, raw value)


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


# A plan is None when a form has no width in the catalog: the full
# decoder reads such DIEs. A skip plan is a tuple of steps, or an int when
# every form is fixed. A decode plan is (constants, steps): ``constants``
# holds (attr, (form, raw value)) for the read flag_present and
# implicit_const attributes. A step is a width to step over (a skip width
# kind when negative), a fixed run (struct.Struct, attrs, forms) whose
# unread members are pad bytes, or a variable-width read (reader, attr,
# form), ``reader(blob, pos)`` giving (raw value, next position).
_Plan = int | tuple | None
# abbrev code -> (tag, ((attr, form, implicit), ...), plan, decode plan?)
_Abbrevs = dict[int, tuple[int, tuple, _Plan, bool]]


@dataclass(slots=True)
class _Unit:
    version: int
    addr_size: int
    cu_start: int
    little_endian: bool
    aux: _Aux
    info: bytes
    abbrevs: _Abbrevs
    widths: dict[int, int]
    dies: dict[int, _Die] = field(default_factory=dict)  # decoded, by offset
    skipped: set[int] = field(default_factory=set)  # offsets of the others
    root: int = -1
    addr_base: int = 8
    str_base: int = 8
    rnglists_base: int = 12


_Struct = struct.Struct
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q", 16: "16s"}


def _reader(width: int, form: int, little_endian: bool):
    """(blob, pos) -> (raw value, next position) for a read form of ``width``
    that no struct format holds: LEB128, strings, blocks, 3-byte indexes."""
    if width == _LEB:
        return sleb_decode if form == 0x0D else uleb_decode
    if width == _CSTR:
        return _cstr_at
    if width == 3:  # strx3 and addrx3
        order = "little" if little_endian else "big"
        return lambda blob, pos: (int.from_bytes(blob[pos : pos + 3], order), pos + 3)

    def block(blob: bytes, pos: int) -> tuple[bytes, int]:
        if width == _BLOCK_LEB:
            length, pos = uleb_decode(blob, pos)
        else:
            size = _BLOCK_LENGTHS[width]
            length = _UINT_READERS[little_endian][size].unpack_from(blob, pos)[0]
            pos += size
        return blob[pos : pos + length], pos + length

    return block


def _fixed_step(run: list, little_endian: bool) -> list:
    """The step for a run of fixed-width attributes, given as (width, attr
    or None when unread, form): one struct whose unread members are pad
    bytes, or the run's width when it reads nothing."""
    read = [(attr, form) for _width, attr, form in run if attr is not None]
    if not read:
        total = sum(width for width, _attr, _form in run)
        return [total] if total else []
    fmt, pad = "<" if little_endian else ">", 0
    for width, attr, _form in run:
        if attr is None:
            pad += width
            continue
        fmt += (f"{pad}x" if pad else "") + _STRUCT_CODES[width]
        pad = 0
    attrs, forms = zip(*read)
    return [(_Struct(fmt + (f"{pad}x" if pad else "")), attrs, forms)]


@functools.lru_cache(maxsize=4096)
def _compile_plan(
    pairs: tuple, version: int, addr_size: int, little_endian: bool, decode: bool
) -> _Plan:
    """The plan for DIEs of an abbrev whose attributes are ``pairs``.

    A decode plan reads the attributes in _READ_ATTRS; one listed twice is
    read at its last place, whose value the full decoder keeps. A skip plan
    (``decode`` false) reads nothing.
    """
    widths = _form_widths(version, addr_size)
    last = {attr: i for i, (attr, _form, _implicit) in enumerate(pairs)}
    constants: list = []
    steps: list = []
    run: list = []  # the fixed-width attributes since the last variable one
    for i, (attr, form, implicit) in enumerate(pairs):
        width = widths.get(form)
        if width is None:
            return None
        read = decode and attr in _READ_ATTRS and last[attr] == i
        if width == 0:  # flag_present and implicit_const
            if read:
                constants.append((attr, (form, implicit if form == 0x21 else b"")))
        elif width > 0 and not (read and width == 3):
            run.append((width, attr if read else None, form))
        else:
            steps += _fixed_step(run, little_endian)
            run = []
            steps.append((_reader(width, form, little_endian), attr, form) if read else width)
    steps += _fixed_step(run, little_endian)
    if decode:
        return tuple(constants), tuple(steps)
    if all(step.__class__ is int and step >= 0 for step in steps):
        return sum(steps)
    return tuple(steps)


def _parse_abbrev_table(
    blob: bytes, offset: int, version: int, addr_size: int, little_endian: bool
) -> _Abbrevs:
    """abbrev code -> (tag, ((attr, form, implicit), ...), plan, decode).

    The plan decodes (``decode``) for the tags the walk decodes and skips
    for the others.
    """
    if offset >= len(blob):
        raise MalformedDebugDataError(f"abbrev offset {offset:#x} out of range")
    table: _Abbrevs = {}
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
        frozen = tuple(pairs)
        decode = tag in _DECODED_TAGS
        plan = _compile_plan(frozen, version, addr_size, little_endian, decode)
        table[code] = (tag, frozen, plan, decode)


def _read_form(
    cur: _Cursor, form: int, unit: _Unit, implicit: int | None
) -> tuple[int, object]:
    """Decode one attribute's raw value; returns (effective form, value)."""
    while form == 0x16:  # indirect: the real form precedes the value
        form = cur.uleb()
    width = unit.widths.get(form)
    if width is None:
        raise MalformedDebugDataError(f"unknown form {form:#x}")
    value: object
    if width == _LEB:
        value = cur.sleb() if form == 0x0D else cur.uleb()
    elif width == _CSTR:
        value = cur.cstr()
    elif width == _BLOCK_LEB:
        value = cur.raw(cur.uleb())
    elif width < 0:
        value = cur.raw(cur.uint(_BLOCK_LENGTHS[width]))
    elif width in (1, 2, 4, 8):
        value = cur.uint(width)
    elif width == 3:  # strx3 and addrx3
        value = int.from_bytes(cur.raw(3), "little" if unit.little_endian else "big")
    elif form == 0x21:
        value = implicit if implicit is not None else 0
    else:  # data16 and flag_present
        value = cur.raw(width)
    return form, value


def _read_attrs(cur: _Cursor, pairs: tuple, unit: _Unit) -> dict[int, tuple]:
    attrs: dict[int, tuple[int, object]] = {}
    for attr, form, implicit in pairs:
        eff_form, value = _read_form(cur, form, unit, implicit)
        if attr:
            attrs[attr] = (eff_form, value)
    return attrs


# What a planned read may raise where it runs past the data; the full
# decoder then reads the DIE again to raise its own message.
_PLAN_ERRORS = (IndexError, ValueError, OverflowError, struct.error)


def _run(blob: bytes, pos: int, steps: tuple, attrs: dict | None, readers: dict) -> int:
    """The position after ``steps`` followed from ``pos``; reads store
    (form, raw value) by attribute in ``attrs``.

    Does no bounds checks: the result may lie past the end of ``blob``, and
    a read past it raises one of _PLAN_ERRORS.
    """
    for step in steps:
        if step.__class__ is int:
            if step >= 0:
                pos += step
            elif step == _BLOCK_LEB:  # exprloc, the most frequent
                length = blob[pos]
                if length < 0x80:
                    pos += length + 1
                else:
                    length, pos = uleb_decode(blob, pos)
                    pos += length
            elif step == _LEB:
                while blob[pos] & 0x80:
                    pos += 1
                pos += 1
            elif step == _CSTR:
                pos = blob.index(0, pos) + 1
            else:
                size = _BLOCK_LENGTHS[step]
                pos += size + readers[size].unpack_from(blob, pos)[0]
            continue
        reader, attr, form = step
        if reader.__class__ is _Struct:  # a fixed run: attr and form are tuples
            attrs.update(zip(attr, zip(form, reader.unpack_from(blob, pos))))  # type: ignore
            pos += reader.size
        else:
            value, pos = reader(blob, pos)
            attrs[attr] = (form, value)  # type: ignore
    return pos


def _decode(unit: _Unit, pos: int, pairs: tuple, plan: _Plan) -> tuple[dict, int]:
    """The attributes of the DIE whose values start at ``pos``, read by its
    decode ``plan``, and the position after them, which may lie past the
    data (the walk checks that).

    Without a plan, or when the planned read fails, the full decoder reads
    the DIE, and raises what it hit.
    """
    if plan is not None:
        constants, steps = plan  # type: ignore
        attrs = dict(constants)
        try:
            return attrs, _run(unit.info, pos, steps, attrs, _UINT_READERS[unit.little_endian])
        except _PLAN_ERRORS:
            pass
    cur = _Cursor(unit.info, pos, unit.little_endian)
    return _read_attrs(cur, pairs, unit), cur.pos


def _table_entry(
    unit: _Unit, blob: bytes, base: int, index: int, width: int, message: str
) -> int:
    """Entry ``index`` of the ``width``-byte table at ``base`` in ``blob``;
    past the end, raises ``message`` formatted with the index."""
    off = base + index * width
    if off + width > len(blob):
        raise MalformedDebugDataError(message.format(index))
    return _UINT_READERS[unit.little_endian][width].unpack_from(blob, off)[0]


def _indexed_addr(unit: _Unit, index: int) -> int:
    return _table_entry(
        unit, unit.aux.addr, unit.addr_base, index, unit.addr_size,
        ".debug_addr index {} out of range",
    )


def _value(unit: _Unit, form: int, raw: object) -> object:
    """What an attribute that ``form`` encodes as ``raw`` means.

    String offsets and string and address indexes resolve against the
    unit's sections and bases, and raise MalformedDebugDataError when they
    land outside them; flags become bools; any other value is ``raw``.
    """
    if form == 0x0E:  # strp
        return _str_at(unit.aux.debug_str, raw, ".debug_str")  # type: ignore
    if form == 0x1F:  # line_strp
        return _str_at(unit.aux.line_str, raw, ".debug_line_str")  # type: ignore
    if form in _STRX_FORMS:
        str_off = _table_entry(
            unit, unit.aux.str_offsets, unit.str_base, raw, 4,  # type: ignore
            ".debug_str_offsets index {} out of range",
        )
        return _str_at(unit.aux.debug_str, str_off, ".debug_str")
    if form in _ADDRX_FORMS:
        return _indexed_addr(unit, raw)  # type: ignore
    if form == 0x0C:  # flag
        return bool(raw)
    if form == 0x19:  # flag_present
        return True
    return raw


def _offset_value(value: object, what: str) -> int:
    """A section offset from an attribute whose form may not hold one
    (or whose sdata value is negative, which would index from the end)."""
    if not isinstance(value, int) or value < 0:
        raise MalformedDebugDataError(f"{what} is not an offset")
    return value


def _read_bases(unit: _Unit) -> None:
    """Read the unit's base offsets from its root DIE."""
    attrs = unit.dies[unit.root].attrs
    if DW_AT_addr_base in attrs:
        unit.addr_base = _offset_value(_value(unit, *attrs[DW_AT_addr_base]), "addr_base")
    if DW_AT_str_offsets_base in attrs:
        unit.str_base = _offset_value(
            _value(unit, *attrs[DW_AT_str_offsets_base]), "str_offsets_base"
        )
    if DW_AT_rnglists_base in attrs:
        unit.rnglists_base = _offset_value(
            _value(unit, *attrs[DW_AT_rnglists_base]), "rnglists_base"
        )


def _parse_unit(blob: bytes, pos: int, little_endian: bool, aux: _Aux) -> tuple[_Unit, int]:
    """Parse one compile unit starting at ``pos``; returns (unit, next pos).

    Decodes the first DIE and every DIE of a tag in _DECODED_TAGS; steps
    over the others by their skip plans and records where they start.
    """
    cur = _Cursor(blob, pos, little_endian)
    length = cur.uint(4)
    if length >= 0xFFFFFFF0:
        raise MalformedDebugDataError("64-bit DWARF units are not supported")
    unit_end = cur.pos + length
    if unit_end > len(blob):
        raise MalformedDebugDataError("unit length extends past .debug_info")
    version = cur.uint(2)
    if version < 2 or version > 5:
        raise MalformedDebugDataError(f"DWARF version {version}")
    if version == 5:
        unit_type = cur.uint(1)
        if unit_type != DW_UT_compile:
            raise MalformedDebugDataError(f"unit type {unit_type:#x}")
        addr_size = cur.uint(1)
        abbrev_off = cur.uint(4)
    else:
        abbrev_off = cur.uint(4)
        addr_size = cur.uint(1)
    if addr_size not in (4, 8):
        raise MalformedDebugDataError(f"address size {addr_size}")

    abbrevs = _parse_abbrev_table(aux.abbrev, abbrev_off, version, addr_size, little_endian)
    widths = _form_widths(version, addr_size)
    unit = _Unit(version, addr_size, pos, little_endian, aux, blob, abbrevs, widths)
    dies, readers = unit.dies, cur.readers
    mark_skipped = unit.skipped.add
    blob_end = len(blob)
    root = -1
    pos = cur.pos
    while pos < unit_end:
        die_off = pos
        code = blob[pos]
        if code < 0x80:
            pos += 1
        else:
            code, pos = uleb_decode(blob, pos)
        if code == 0:  # end of a sibling chain
            continue
        entry = abbrevs.get(code)
        if entry is None:
            raise MalformedDebugDataError(f"abbrev code {code} not in table")
        tag, pairs, plan, decode = entry
        if root < 0:  # the unit's first DIE is decoded whatever its tag
            root = die_off
            plan = _compile_plan(pairs, version, addr_size, little_endian, True)
            decode = True
        if plan.__class__ is int:
            pos += plan  # type: ignore
            mark_skipped(die_off)
        elif decode or plan is None:
            attrs, pos = _decode(unit, pos, pairs, plan)
            dies[die_off] = _Die(tag, attrs)
        else:
            try:
                pos = _run(blob, pos, plan, None, readers)  # type: ignore
            except _PLAN_ERRORS:
                pos = blob_end + 1
            mark_skipped(die_off)
    if pos > blob_end:
        # Only the last DIE can have run past the data, and the full decoder
        # reads the same widths, so it raises what the plan hit.
        _decode(unit, uleb_decode(blob, die_off)[1], pairs, None)
    if root < 0:
        raise MalformedDebugDataError("compile unit has no DIEs")
    unit.root = root
    return unit, unit_end


def _die_at(unit: _Unit, off: int) -> _Die | None:
    """The DIE that starts at ``off``, decoded now if the walk skipped it."""
    die = unit.dies.get(off)
    # The walk stepped over a skipped DIE inside the data, and its read
    # plan steps over the same widths, so the read cannot run past it.
    if die is None and off in unit.skipped:
        code, pos = uleb_decode(unit.info, off)
        tag, pairs, _plan, _decoded = unit.abbrevs[code]
        plan = _compile_plan(pairs, unit.version, unit.addr_size, unit.little_endian, True)
        die = unit.dies[off] = _Die(tag, _decode(unit, pos, pairs, plan)[0])
    return die


def _deref(unit: _Unit, form: int, raw: object) -> _Die | None:
    """The DIE a reference attribute names, or None for any other form."""
    if form in _UNIT_REF_FORMS:
        return _die_at(unit, unit.cu_start + raw)  # type: ignore
    if form == 0x10:  # ref_addr: units parsed from one blob share offsets
        return _die_at(unit, raw)  # type: ignore
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
                nxt = _deref(unit, *current.attrs[link])
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
        start = cur.uint(unit.addr_size)
        end = cur.uint(unit.addr_size)
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
        kind = cur.uint(1)
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
            base = cur.uint(unit.addr_size)
        elif kind == RLE_START_END:
            s = cur.uint(unit.addr_size)
            pairs.append((s, cur.uint(unit.addr_size)))
        elif kind == RLE_START_LENGTH:
            s = cur.uint(unit.addr_size)
            pairs.append((s, s + cur.uleb()))
        else:
            raise MalformedDebugDataError(f"range list entry kind {kind:#x}")


def _resolve_ranges(unit: _Unit, die: _Die, cu_base: int) -> list[tuple[int, int]]:
    form, raw = die.attrs[DW_AT_ranges]
    value = _offset_value(_value(unit, form, raw), "ranges")
    if unit.version >= 5:
        if form == 0x23:  # rnglistx: indirect through the offset table
            rel = _table_entry(
                unit, unit.aux.rnglists, unit.rnglists_base, value, 4,
                "rnglistx index out of range",
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
    def read(got: tuple[int, object] | None) -> object:
        """The meaning of a looked-up (form, raw value), or None if absent."""
        return None if got is None else _value(unit, *got)

    _read_bases(unit)
    root = unit.dies[unit.root]
    cu_name = read(root.attrs.get(DW_AT_name))
    cu_name = "" if cu_name is None else str(cu_name)
    cu_base = read(root.attrs.get(DW_AT_low_pc))
    if not isinstance(cu_base, int):
        cu_base = 0

    def resolved_name(die: _Die) -> str:
        value = read(_inherited(unit, die, DW_AT_name))
        return value if isinstance(value, str) else ""

    def shown(die: _Die, name: str | None) -> str:
        """How a diagnostic names ``die``; a None name is resolved only here."""
        if name is None:
            name = resolved_name(die)
        return name or "<anonymous>"

    def decl_coords(die: _Die) -> tuple[str, int]:
        file_idx = read(_inherited(unit, die, DW_AT_decl_file))
        line = read(_inherited(unit, die, DW_AT_decl_line))
        # sdata and implicit_const can be negative, flag forms decode to bool.
        decl_line = line if type(line) is int and line >= 0 else 0
        if not isinstance(file_idx, int):
            return "", decl_line
        # Indexes 0 and 1 name the primary source file in every version
        # this reader accepts; other entries would need the line program.
        if file_idx in (0, 1):
            return cu_name, decl_line
        return f"file#{file_idx}", decl_line

    def extent(die: _Die, name: str | None) -> tuple[int, int | None] | None:
        """(low_pc, end_exclusive) or None when the DIE has no addresses.

        A low/high pair wins; otherwise a non-empty range list gives its
        hull; otherwise a bare low_pc gives an open extent.
        """
        low = read(die.attrs.get(DW_AT_low_pc))
        if not isinstance(low, int):
            low = None
        high = die.attrs.get(DW_AT_high_pc)
        if low is not None and high is not None:
            form, end = high[0], read(high)
            if not isinstance(end, int):
                raise MalformedDebugDataError("non-integer high pc")
            if form in CONSTANT_FORMS:  # an offset from low_pc
                end += low
                bits = unit.addr_size * 8
                if end > 1 << bits:
                    raise MalformedDebugDataError(
                        f"high pc {end:#x} exceeds {bits}-bit address space"
                    )
            elif form not in ADDRESS_FORMS:
                raise MalformedDebugDataError(f"high pc form {form:#x}")
            return low, end
        if DW_AT_ranges in die.attrs:
            pairs = _resolve_ranges(unit, die, cu_base)
            if any(hi < lo for lo, hi in pairs):
                raise MalformedDebugDataError(
                    f"range list of {shown(die, name)} ends before it starts"
                )
            if pairs:
                lo = min(p[0] for p in pairs)
                hi = max(p[1] for p in pairs)
                diagnostics.append(
                    Diagnostic(
                        "warning",
                        GT_DISCONTIGUOUS_RANGE,
                        f"{shown(die, name)} at {lo:#x} spans "
                        f"{len(pairs)} ranges; using the hull",
                        span=(lo, hi - lo),
                    )
                )
                return lo, hi
        return None if low is None else (low, None)

    records: list[DebugFunctionRecord] = []
    # Following a link may decode a skipped DIE into unit.dies.
    for die in list(unit.dies.values()):
        if die.tag not in (DW_TAG_subprogram, DW_TAG_inlined_subroutine):
            continue
        inlined = die.tag == DW_TAG_inlined_subroutine
        # An inlined copy yields no record, so its name is resolved only
        # if a diagnostic prints it.
        name = None if inlined else resolved_name(die)
        span = extent(die, name)
        if span is None:
            if inlined:
                continue
            # Declarations and abstract instances legitimately lack
            # addresses; only concrete definitions are worth a note.
            if read(die.attrs.get(DW_AT_declaration)):
                continue
            if DW_AT_inline in die.attrs:
                continue
            diagnostics.append(
                Diagnostic(
                    "info",
                    GT_SUBPROGRAM_NO_ADDRESS,
                    f"subprogram {shown(die, name)} carries no address; skipped",
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
                    f"debug info places {shown(die, name)} at {low:#x}, "
                    "outside every executable section",
                    span=(low, 0),
                )
            )
        if inlined:
            continue  # an inlined copy is never a function start of its own
        noreturn = read(_inherited(unit, die, DW_AT_noreturn))
        decl_file, decl_line = decl_coords(die)
        records.append(
            DebugFunctionRecord(
                name=name,
                low_pc=low,
                end_exclusive=end,
                decl_file=decl_file,
                decl_line=decl_line,
                noreturn=bool(noreturn),
            )
        )
    return records


def extract_debug_functions(
    image: BinaryImage,
) -> tuple[list[DebugFunctionRecord], list[Diagnostic]]:
    """All function records debug info yields for ``image``.

    Absent debug info is an expected state (stripped binary) and reports
    GT_NO_DEBUG_INFO. Malformed data reports GT_MALFORMED_DEBUG_DATA with
    the start of the damaged unit, whose records and diagnostics are
    dropped; reading goes on with the next unit unless the damage hides
    where that starts.
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
        while pos < data_end:
            try:
                unit, end = _parse_unit(blob, pos, little, aux)
            except MalformedDebugDataError as exc:
                diagnostics.append(_unreadable(pos, exc))
                break  # where the next unit starts is unknown
            unit_diagnostics: list[Diagnostic] = []
            try:
                records.extend(_unit_records(unit, image, unit_diagnostics))
                diagnostics.extend(unit_diagnostics)
            except MalformedDebugDataError as exc:
                diagnostics.append(_unreadable(pos, exc))
            pos = end
    return records, diagnostics


def _unreadable(unit_start: int, exc: MalformedDebugDataError) -> Diagnostic:
    return Diagnostic(
        "error",
        GT_MALFORMED_DEBUG_DATA,
        f"debug info unreadable from the unit at offset {unit_start:#x}: {exc}",
    )
