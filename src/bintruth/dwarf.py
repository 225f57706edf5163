"""DWARF v2-v5 reader for the attributes that matter to function ground truth.

Walks compile units in .debug_info, resolving only what the pipeline
consumes: subprogram names (through specification/abstract_origin chains),
entry addresses, high-pc in both its address and constant flavors,
discontiguous ranges, declaration coordinates and noreturn flags. A
subprogram with a range list takes as its extent the range that holds its
entry (DW_AT_entry_pc, else low_pc, else the first range; DWARF 5 §2.18),
and its record keeps the other ranges: gcc lists a split function's hot
range first and its ``.cold`` part, often lower, after it. Inlined copies
yield diagnostics, with the hull of a range list, but never records; the
concrete subprograms of a unit that carry no address are counted in one
diagnostic per unit. A high pc or entry pc is an address, or an unsigned
offset (DWARF 5 §2.17.2, §2.18) that stays in the address space (``_pc``);
a high pc below its low pc is malformed.

Only DWARF 5 compile units (and every unit of an earlier version) yield
records; partial, type, skeleton and split units are stepped over by their
length. A ``DW_FORM_ref_addr`` link may land in another compile or partial
unit of the same blob: that unit is found by bisecting the unit spans,
parsed when a link first needs it, and its attributes are read against its
own bases and string tables. A unit must begin with its unit entry, a
compile or partial unit (DWARF 5 §3.1, §7.5).

One table, ``_READS``, names the tags whose DIEs are decoded and the
``DW_AT_*`` kinds below that each keeps, ``DW_AT_entry_pc`` only for a
subprogram. Any other DIE is stepped over and nothing of it is kept: a
specification or abstract_origin link that lands on it names nothing.
DWARF 5 points the one at the declaring subprogram (§2.13.2), the other at
the abstract subprogram (§3.3.8).

One compiler, ``_compile_plan``, turns each abbrev into a plan from one
form catalog, which gives each form's width. A plan is one straight-line
Python function, generated for the abbrev and compiled with ``exec``. A
decode reader ``(blob, pos) -> (attrs, pos)`` reads what its tag keeps:
the read members of a run of fixed-width forms are one ``struct`` read
whose unread members are pad bytes, a variable-width form nothing reads
is stepped over in place, and flag_present and implicit_const read as
constants. A skip reader ``(blob, pos) -> pos`` reads nothing, and is a
plain int when the abbrev's forms are all fixed. The source of a reader
holds int literals and names only: structs, decoders and implicit_const
values are bound in the namespace it is compiled in, never written into
its text.

Readers check no bounds as they go. A DIE whose read fails, or ends past
the section, is read again by the full decoder (``_read_attrs``), which
keeps the same kinds and raises what it hit: a read past the section
end, an unterminated string or a runaway LEB128. That decoder also reads
the DIEs whose abbrev has a form with no width in the catalog (indirect,
or an unknown form, which it refuses) or more attributes than a reader
may hold, so that a hostile .debug_abbrev cannot make a compile run long.

Inlined copies of one function share its abstract origin (DWARF 5
§3.3.8), and a diagnostic names each copy. A name reached through an
abstract origin is resolved once per target per .debug_info blob, for
every DIE that has neither a name nor a specification of its own. A
record's name, declaration coordinates and noreturn flag come from one
walk along its specification and abstract_origin links; a link whose
unit does not parse raises where the walk meets it.

Decoding keeps each attribute's raw value; ``_value`` gives it its meaning
when the pipeline reads it, resolving string offsets and string and
address indexes against their sections then. So what an attribute points
at is checked only if it is read: a .debug_str offset out of range in a
variable's name or a function's linkage name leaves the unit readable.

Malformed debug data never propagates as an exception. Damage in a unit
drops that unit's records and diagnostics and reports an error naming
where the unit starts; the reader then goes on with the next unit, which
starts where the unit's length says. Only a damaged unit length stops the
reader, with the same error.

:func:`eh_frame_ranges` reads the pc range of each ``.eh_frame`` FDE with
the same cursor and LEB128 decoders, and no CFA instruction.
"""
from __future__ import annotations

import bisect
import functools
import struct
from collections.abc import Callable
from dataclasses import dataclass, field

from . import elf
from .model import (
    GT_BAD_EH_FRAME,
    GT_BAD_LINE_TABLE,
    GT_DEBUG_OUTSIDE_EXEC,
    GT_DISCONTIGUOUS_RANGE,
    GT_LINKER_DISCARDED,
    GT_MALFORMED_DEBUG_DATA,
    GT_NO_DEBUG_INFO,
    GT_SUBPROGRAM_NO_ADDRESS,
    BinaryImage,
    Diagnostic,
    record,
)

DW_TAG_compile_unit = 0x11
DW_TAG_partial_unit = 0x3C
DW_TAG_subprogram = 0x2E
DW_TAG_inlined_subroutine = 0x1D

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
DW_AT_entry_pc = 0x52
DW_AT_ranges = 0x55
DW_AT_str_offsets_base = 0x72
DW_AT_addr_base = 0x73
DW_AT_rnglists_base = 0x74
DW_AT_noreturn = 0x87

# The DIEs the walk decodes: tag -> the attributes a DIE of that tag keeps,
# each one the pipeline looks up. Any other DIE is stepped over.
_LOOKED_UP = frozenset(
    {
        DW_AT_name, DW_AT_low_pc, DW_AT_high_pc, DW_AT_inline,
        DW_AT_abstract_origin, DW_AT_decl_file, DW_AT_decl_line,
        DW_AT_declaration, DW_AT_specification, DW_AT_ranges,
        DW_AT_str_offsets_base, DW_AT_addr_base, DW_AT_rnglists_base,
        DW_AT_noreturn, DW_AT_stmt_list,
    }
)
_READS: dict[int, frozenset[int]] = {
    DW_TAG_compile_unit: _LOOKED_UP,
    DW_TAG_partial_unit: _LOOKED_UP,
    # Its entry address picks the entry's range out of a range list.
    DW_TAG_subprogram: _LOOKED_UP | {DW_AT_entry_pc},
    DW_TAG_inlined_subroutine: _LOOKED_UP,
}

DW_UT_compile = 0x01
DW_UT_partial = 0x03
# DWARF 5 unit types: compile, type, partial, skeleton, split compile and
# split type. Only compile units yield records; a ref_addr link may also
# land in a partial unit. The others are stepped over by their length.
_UNIT_TYPES = range(0x01, 0x07)
_LINKED_UNITS = (DW_UT_compile, DW_UT_partial)

# The content types of a DWARF 5 line header entry that name a file.
DW_LNCT_path = 0x1
DW_LNCT_directory_index = 0x2

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
# The entries whose first operand is an address, not a ULEB128 number.
_RLE_ADDRESS_FIRST = frozenset({RLE_BASE_ADDRESS, RLE_START_END, RLE_START_LENGTH})


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


@record
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
    # A range-list subprogram's ranges other than the one at its entry
    # (``low_pc``), which gives its extent: the parts of a split function.
    other_ranges: tuple[tuple[int, int], ...] = ()


_UINT_READERS = {
    little: {
        width: struct.Struct(("<" if little else ">") + code)
        for width, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
    }
    for little in (True, False)
}
# (little endian?, address size) -> unpack_from of two addresses.
_PAIR_READERS = {
    (little, width): struct.Struct(("<" if little else ">") + code * 2).unpack_from
    for little in (True, False)
    for width, code in ((4, "I"), (8, "Q"))
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
# The forms whose raw value _value resolves: strp, line_strp, the string
# and address indexes, flag and flag_present. Any other form means its
# raw value.
_RESOLVED_FORMS = _STRX_FORMS | _ADDRX_FORMS | {0x0E, 0x1F, 0x0C, 0x19}
# ref1, ref2, ref4, ref8 and ref_udata: offsets from the unit's start.
_UNIT_REF_FORMS = frozenset({0x11, 0x12, 0x13, 0x14, 0x15})


@dataclass(slots=True)
class _Die:
    tag: int
    attrs: dict[int, tuple[int, object]]  # attr -> (form, raw value)


@dataclass(slots=True)
class _Aux:
    """Companion section blobs one .debug_info blob resolves against, the
    blob's unit spans, the units of the blob that ref_addr links have
    reached, the names resolved through abstract origins, and each unit's
    source file names."""

    abbrev: bytes
    debug_str: bytes
    line_str: bytes
    str_offsets: bytes
    addr: bytes
    ranges: bytes
    rnglists: bytes
    line: bytes
    units: list[tuple[int, int]] = field(default_factory=list)  # (start, end)
    linked: dict[int, _Unit] = field(default_factory=dict)  # by unit start
    # The .debug_info offset of an abstract origin -> how a diagnostic names
    # a DIE that links to it and has neither a name nor a specification.
    names: dict[int, str] = field(default_factory=dict)
    # A unit's start -> _file_names of the unit.
    files: dict[int, tuple[tuple[str, ...] | None, str | None]] = field(default_factory=dict)


# The _Aux field that holds each companion section.
_COMPANIONS = {
    "abbrev": ".debug_abbrev",
    "debug_str": ".debug_str",
    "line_str": ".debug_line_str",
    "str_offsets": ".debug_str_offsets",
    "addr": ".debug_addr",
    "ranges": ".debug_ranges",
    "rnglists": ".debug_rnglists",
    "line": ".debug_line",
}


# A plan is None when a form has no width in the catalog, or when the abbrev
# lists more than _MAX_PLAN_ATTRS attributes: the full decoder reads such
# DIEs. A skip plan is the DIEs' width when every form is fixed, else a
# generated reader ``(blob, pos) -> next position``. A decode plan is a
# generated reader ``(blob, pos) -> (attrs, next position)``, ``attrs``
# holding (form, raw value) by attribute for the kinds its tag keeps.
_Plan = int | Callable | None
# abbrev code -> (tag, ((attr, form, implicit), ...), plan, kept attributes)
_Abbrevs = dict[int, tuple[int, tuple, _Plan, frozenset[int]]]


@dataclass(slots=True)
class _Unit:
    version: int
    addr_size: int
    cu_start: int
    unit_end: int
    little_endian: bool
    aux: _Aux
    info: bytes
    dies: dict[int, _Die] = field(default_factory=dict)  # decoded, by offset
    root: int = -1
    addr_base: int = 8
    str_base: int = 8
    rnglists_base: int = 12


_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q", 16: "16s"}
# An abbrev of more attributes gets no plan, which bounds the source of a
# generated reader and the time to compile it.
_MAX_PLAN_ATTRS = 64


@functools.lru_cache(maxsize=4096)
def _compile_plan(
    pairs: tuple, version: int, addr_size: int, little_endian: bool, reads: frozenset[int]
) -> _Plan:
    """The plan for DIEs of an abbrev whose attributes are ``pairs``.

    With ``reads`` empty, a skip plan, which reads nothing; else a decode
    plan, which reads the attributes in ``reads``: one listed twice is read
    at its last place, whose value the full decoder keeps.
    """
    if len(pairs) > _MAX_PLAN_ATTRS:
        return None
    widths = _form_widths(version, addr_size)
    last = {attr: i for i, (attr, _form, _implicit) in enumerate(pairs)}
    source = _ReaderSource(little_endian)
    for i, (attr, form, implicit) in enumerate(pairs):
        width = widths.get(form)
        if width is None:
            return None
        read = attr in reads and last[attr] == i
        if width == 0:  # flag_present and implicit_const
            if read:
                value = (form, implicit if form == 0x21 else b"")
                source.items.append(f"{attr}: {source.bind(value)}")
        elif width > 0:
            source.fixed_form(width, attr, form, read)
        else:
            source.variable_form(width, attr, form, read)
    if not reads and not source.lines:
        return source.offset
    return source.function(bool(reads))


class _ReaderSource:
    """The lines of one generated reader and the names they read.

    In the source, ``pos`` is where the last variable-width value ended,
    and ``offset`` counts the fixed bytes since, from which fixed values are
    read; it is added to ``pos`` only before the next variable-width value.
    The fixed values read since then wait in ``run`` as (offset, width,
    name), to be read by one struct whose unread members are pad bytes.
    The source holds no value from the abbrev but int literals: structs,
    decoders and constant values are names bound in its namespace.
    """

    def __init__(self, little_endian: bool):
        self.order = "<" if little_endian else ">"
        self.lines: list[str] = []
        self.items: list[str] = []  # "attr: value" of the decoded attributes
        self.namespace: dict[str, object] = {
            "uleb": uleb_decode,
            "sleb": sleb_decode,
            "cstr": _cstr_at,
            "order": "little" if little_endian else "big",
        }
        self.offset = 0
        self.run: list[tuple[int, int, str]] = []

    def bind(self, value: object) -> str:
        name = f"c{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def new_value(self, attr: int, form: int) -> str:
        """The name of a new local that holds ``attr``'s raw value of ``form``."""
        name = f"v{len(self.items)}"
        self.items.append(f"{attr}: ({form}, {name})")
        return name

    def at(self, offset: int) -> str:
        return f"pos + {offset}" if offset else "pos"

    def fixed_form(self, width: int, attr: int, form: int, read: bool) -> None:
        if read and width == 3:  # strx3 and addrx3 have no struct code
            name, at = self.new_value(attr, form), self.offset
            self.lines.append(
                f"{name} = int.from_bytes(blob[{self.at(at)}:{self.at(at + 3)}], order)"
            )
        elif read:
            self.run.append((self.offset, width, self.new_value(attr, form)))
        self.offset += width

    def flush(self) -> None:
        """Read the run of fixed values."""
        if not self.run:
            return
        fmt, end = self.order, self.run[0][0]
        for offset, width, _name in self.run:
            fmt += (f"{offset - end}x" if offset > end else "") + _STRUCT_CODES[width]
            end = offset + width
        names = "".join(f"{name}, " for _offset, _width, name in self.run)
        unpack = self.bind(struct.Struct(fmt).unpack_from)
        self.lines.append(f"{names}= {unpack}(blob, {self.at(self.run[0][0])})")
        self.run = []

    def variable_form(self, width: int, attr: int, form: int, read: bool) -> None:
        self.flush()
        if self.offset:
            self.lines.append(f"pos += {self.offset}")
        self.offset = 0
        name = self.new_value(attr, form) if read else "n"
        if width == _LEB and read:
            self.lines.append(f"{name}, pos = {'sleb' if form == 0x0D else 'uleb'}(blob, pos)")
        elif width == _LEB:
            self.lines += ["while blob[pos] & 0x80:", "    pos += 1"]
            self.offset = 1
        elif width == _CSTR:
            self.lines.append(
                f"{name}, pos = cstr(blob, pos)" if read else "pos = blob.index(0, pos) + 1"
            )
        elif width == _BLOCK_LEB and not read:  # exprloc, the most frequent
            self.lines += [
                "n = blob[pos]",
                "if n < 0x80:",
                "    pos += n + 1",
                "else:",
                "    n, pos = uleb(blob, pos)",
                "    pos += n",
            ]
        else:  # a length, then that many bytes
            if width == _BLOCK_LEB:
                self.lines.append("n, pos = uleb(blob, pos)")
            else:
                size = self.offset = _BLOCK_LENGTHS[width]
                unpack = self.bind(struct.Struct(self.order + _STRUCT_CODES[size]).unpack_from)
                self.lines.append(f"n = {unpack}(blob, pos)[0]")
            start = self.at(self.offset)
            if read:
                self.lines.append(f"{name} = blob[{start}:{start} + n]")
            self.lines.append(f"pos = {start} + n")
            self.offset = 0

    def function(self, decode: bool):
        """The reader the lines make, compiled."""
        self.flush()
        end = self.at(self.offset)
        result = f"{{{', '.join(self.items)}}}, {end}" if decode else end
        body = [*self.lines, f"return {result}"]
        text = "def reader(blob, pos):\n" + "\n".join(f"    {line}" for line in body)
        exec(compile(text, "<dwarf reader>", "exec"), self.namespace)
        # Popped, so that the namespace, the reader's globals, does not hold
        # the reader: a plan the cache evicts is then freed by its count.
        return self.namespace.pop("reader")


def _parse_abbrev_table(
    blob: bytes, offset: int, version: int, addr_size: int, little_endian: bool
) -> _Abbrevs:
    """abbrev code -> (tag, ((attr, form, implicit), ...), plan, reads).

    ``reads`` is what ``_READS`` says a DIE of the tag keeps, empty for a
    tag the walk steps over; the plan reads that.
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
        reads = _READS.get(tag, frozenset())
        plan = _compile_plan(frozen, version, addr_size, little_endian, reads)
        table[code] = (tag, frozen, plan, reads)


def _read_form(
    cur: _Cursor, form: int, unit: _Unit, implicit: int | None
) -> tuple[int, object]:
    """Decode one attribute's raw value; returns (effective form, value)."""
    while form == 0x16:  # indirect: the real form precedes the value
        form = cur.uleb()
    width = _form_widths(unit.version, unit.addr_size).get(form)
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


def _read_attrs(
    cur: _Cursor, pairs: tuple, unit: _Unit, reads: frozenset[int]
) -> dict[int, tuple]:
    """Decode every attribute of a DIE, keeping those in ``reads``."""
    attrs: dict[int, tuple[int, object]] = {}
    for attr, form, implicit in pairs:
        eff_form, value = _read_form(cur, form, unit, implicit)
        if attr in reads:
            attrs[attr] = (eff_form, value)
    return attrs


# What a generated reader may raise where it runs past the data; the full
# decoder then reads the DIE again to raise its own message.
_PLAN_ERRORS = (IndexError, ValueError, OverflowError, struct.error)


def _decode(
    unit: _Unit, pos: int, pairs: tuple, plan: _Plan, reads: frozenset[int]
) -> tuple[dict, int]:
    """The attributes in ``reads`` of the DIE whose values start at
    ``pos``, read by its decode ``plan``, and the position after them,
    which may lie past the data (the walk checks that).

    Without a plan, or when the planned read fails, the full decoder reads
    the DIE, and raises what it hit.
    """
    if plan is not None:
        try:
            return plan(unit.info, pos)  # type: ignore
        except _PLAN_ERRORS:
            pass
    cur = _Cursor(unit.info, pos, unit.little_endian)
    return _read_attrs(cur, pairs, unit, reads), cur.pos


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
    if form not in _RESOLVED_FORMS:
        return raw
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
    return True  # flag_present


def _offset_value(unit: _Unit, form: int, raw: object, what: str) -> int:
    """The section offset an attribute gives, whose form may not hold one
    (or whose sdata value is negative, which would index from the end)."""
    value = _value(unit, form, raw)
    if not isinstance(value, int) or value < 0:
        raise MalformedDebugDataError(f"{what} is not an offset")
    return value


def _read_bases(unit: _Unit) -> None:
    """Read the unit's base offsets from its root DIE."""
    attrs = unit.dies[unit.root].attrs
    if DW_AT_addr_base in attrs:
        unit.addr_base = _offset_value(unit, *attrs[DW_AT_addr_base], "addr_base")
    if DW_AT_str_offsets_base in attrs:
        unit.str_base = _offset_value(unit, *attrs[DW_AT_str_offsets_base], "str_offsets_base")
    if DW_AT_rnglists_base in attrs:
        unit.rnglists_base = _offset_value(unit, *attrs[DW_AT_rnglists_base], "rnglists_base")


def _unit_spans(
    blob: bytes, little_endian: bool
) -> tuple[list[tuple[int, int]], tuple[int, MalformedDebugDataError] | None]:
    """Each unit's (start, end) in ``blob``, up to the first damaged unit
    length, and that damage as (where, error), or None.

    Without a unit's length no later unit can be found. Zero padding may
    follow the last unit.
    """
    spans: list[tuple[int, int]] = []
    pos, data_end = 0, len(blob.rstrip(b"\0"))
    while pos < data_end:
        try:
            length = _Cursor(blob, pos, little_endian).uint(4)
            if length >= 0xFFFFFFF0:
                raise MalformedDebugDataError("64-bit DWARF units are not supported")
            if pos + 4 + length > len(blob):
                raise MalformedDebugDataError("unit length extends past .debug_info")
        except MalformedDebugDataError as exc:
            return spans, (pos, exc)
        spans.append((pos, pos + 4 + length))
        pos += 4 + length
    return spans, None


def _parse_unit(
    blob: bytes,
    pos: int,
    unit_end: int,
    little_endian: bool,
    aux: _Aux,
    unit_types: tuple[int, ...] = (DW_UT_compile,),
) -> _Unit | None:
    """Parse the unit that starts at ``pos`` and ends at ``unit_end``, and
    read its bases from its unit entry.

    A DWARF 5 unit of a type not in ``unit_types`` is stepped over: the
    unit is None. A unit begins with its unit entry (DWARF 5 §3.1, §7.5),
    a compile or partial unit; a first DIE of any other tag is malformed.
    Decodes every DIE of a tag in ``_READS``; steps over the others by
    their skip plans, or by the full decoder when they have none, and
    keeps nothing of them.
    """
    cur = _Cursor(blob, pos + 4, little_endian)
    version = cur.uint(2)
    if version < 2 or version > 5:
        raise MalformedDebugDataError(f"DWARF version {version}")
    if version == 5:
        unit_type = cur.uint(1)
        if unit_type not in _UNIT_TYPES:
            raise MalformedDebugDataError(f"unit type {unit_type:#x}")
        if unit_type not in unit_types:
            return None
        addr_size = cur.uint(1)
        abbrev_off = cur.uint(4)
    else:
        abbrev_off = cur.uint(4)
        addr_size = cur.uint(1)
    if addr_size not in (4, 8):
        raise MalformedDebugDataError(f"address size {addr_size}")
    linked = aux.linked.get(pos)
    if linked is not None:  # parsed already for a link into it
        return linked

    abbrevs = _parse_abbrev_table(aux.abbrev, abbrev_off, version, addr_size, little_endian)
    unit = _Unit(version, addr_size, pos, unit_end, little_endian, aux, blob)
    dies = unit.dies
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
        tag, pairs, plan, reads = entry
        if root < 0:
            if tag != DW_TAG_compile_unit and tag != DW_TAG_partial_unit:
                raise MalformedDebugDataError(f"first entry of tag {tag:#x}, not a unit entry")
            root = die_off
        if plan.__class__ is int:
            pos += plan  # type: ignore
        elif reads:
            attrs, pos = _decode(unit, pos, pairs, plan, reads)
            dies[die_off] = _Die(tag, attrs)
        elif plan is None:
            pos = _decode(unit, pos, pairs, None, reads)[1]
        else:
            try:
                pos = plan(blob, pos)  # type: ignore
            except _PLAN_ERRORS:
                pos = blob_end + 1
    if pos > blob_end:
        # Only the last DIE can have run past the data, and the full decoder
        # reads the same widths, so it raises what the plan hit.
        _decode(unit, uleb_decode(blob, die_off)[1], pairs, None, reads)
    if root < 0:
        raise MalformedDebugDataError("compile unit has no DIEs")
    unit.root = root
    _read_bases(unit)
    return unit


def _linked_unit(unit: _Unit, off: int) -> _Unit | None:
    """The compile or partial unit of ``unit``'s blob that holds the
    .debug_info offset ``off``, or None when that unit is of another type.

    Another unit is found by bisecting the blob's unit spans, which start
    at 0 and end at the first unit whose length is damaged; it is parsed
    on first use and kept for the rest of the blob. A unit that does not
    parse raises here.
    """
    if unit.cu_start <= off < unit.unit_end:
        return unit
    aux = unit.aux
    start, end = aux.units[bisect.bisect_right(aux.units, off, key=lambda span: span[0]) - 1]
    other = aux.linked.get(start)
    if other is None:
        other = _parse_unit(unit.info, start, end, unit.little_endian, aux, _LINKED_UNITS)
        if other is None:
            return None
        aux.linked[start] = other
    return other


def _link_offset(unit: _Unit, form: int, raw: object) -> int | None:
    """The .debug_info offset a reference attribute names: a ref_addr's
    value, or a unit-relative reference's inside its unit; None for a
    reference past its unit's end, or any other form."""
    if form == 0x10:  # ref_addr: an offset in the whole .debug_info blob
        return raw  # type: ignore
    if form in _UNIT_REF_FORMS and raw < unit.unit_end - unit.cu_start:  # type: ignore
        return unit.cu_start + raw  # type: ignore
    return None


def _deref(unit: _Unit, form: int, raw: object) -> tuple[_Unit, _Die] | None:
    """The unit and decoded DIE a reference attribute names; None where
    ``_link_offset`` names no offset or no decoded DIE starts. A linked
    unit that does not parse raises."""
    off = _link_offset(unit, form, raw)
    linked = None if off is None else _linked_unit(unit, off)
    die = None if linked is None else linked.dies.get(off)  # type: ignore
    return None if die is None else (linked, die)  # type: ignore


def _inherited(
    unit: _Unit, die: _Die, attrs: tuple[int, ...]
) -> list[tuple[_Unit, int, object] | None]:
    """Attribute lookup following specification/abstract_origin chains, in
    one walk for all of ``attrs``: for each, (the unit that holds it, form,
    raw value) from the first DIE along the chain that has it, or None.

    The walk stops once each attribute is found, at the end of the chain,
    or where it comes back to a DIE it visited. A link whose unit does not
    parse raises where the walk meets it.
    """
    found: list[tuple[_Unit, int, object] | None] = [None] * len(attrs)
    missing = len(attrs)
    seen: set[int] = set()
    while True:
        here = die.attrs
        for i, attr in enumerate(attrs):
            got = here.get(attr)
            if got is not None and found[i] is None:
                found[i] = (unit, got[0], got[1])
                missing -= 1
        if not missing:
            return found
        link = here.get(DW_AT_specification) or here.get(DW_AT_abstract_origin)
        nxt = None if link is None else _deref(unit, *link)
        if nxt is None or id(nxt[1]) in seen:
            return found
        unit, die = nxt
        seen.add(id(die))


_NAME = (DW_AT_name,)
# What a record inherits, in the order it reads them.
_RECORD_ATTRS = (DW_AT_noreturn, DW_AT_decl_file, DW_AT_decl_line, DW_AT_name)


def _shown(unit: _Unit, die: _Die) -> str:
    """How a diagnostic names ``die``: its name, looked up along its links,
    or "<anonymous>".

    A DIE with neither a name nor a specification takes its name along the
    chain from its abstract origin, as every such DIE linked to that origin
    does (DWARF 5 §3.3.8). So that name is resolved once per origin and
    kept by the offset ``_link_offset`` gives the origin; a name that does
    not resolve raises each time. A link that names no offset is not kept.
    """
    attrs = die.attrs
    key = None
    origin = attrs.get(DW_AT_abstract_origin)
    if origin is not None and DW_AT_name not in attrs and DW_AT_specification not in attrs:
        key = _link_offset(unit, *origin)
    names = unit.aux.names
    shown = None if key is None else names.get(key)
    if shown is None:
        got = _inherited(unit, die, _NAME)[0]
        value = got and _value(*got)
        shown = value if isinstance(value, str) and value else "<anonymous>"
        if key is not None:
            names[key] = shown
    return shown


def _unit_name(unit: _Unit) -> str:
    """The DW_AT_name of the unit's root DIE, or ""."""
    got = unit.dies[unit.root].attrs.get(DW_AT_name)
    name = None if got is None else _value(unit, *got)
    return "" if name is None else str(name)


def _file_names(unit: _Unit) -> tuple[tuple[str, ...] | None, str | None]:
    """The names that ``unit``'s line table gives each decl_file index,
    and the problem that kept it from being read; (None, None) when the
    unit names no table, or the image has no .debug_line for it to name.
    Read once per unit, however often the unit is parsed.
    """
    files = unit.aux.files.get(unit.cu_start)
    if files is None:
        got = unit.dies[unit.root].attrs.get(DW_AT_stmt_list)
        files = (None, None)
        if got is not None and unit.aux.line:
            try:
                offset = _offset_value(unit, *got, "stmt_list")
                files = (_read_file_names(unit, offset), None)
            except MalformedDebugDataError as exc:
                files = (None, f"it is unreadable: {exc}")
        unit.aux.files[unit.cu_start] = files
    return files


def _read_file_names(unit: _Unit, offset: int) -> tuple[str, ...]:
    """The file names of the line header at ``offset`` of .debug_line, by
    decl_file index: in DWARF 5 index N names entry N; before it entry
    N - 1, and 0 names no file (""). Reads the header's tables only, never
    the line program. A file's path stands alone when it is absolute or its
    directory index is 0 (the unit's directory); otherwise its directory
    leads it.
    """
    blob = unit.aux.line
    cur = _Cursor(blob, offset, unit.little_endian)
    length = cur.uint(4)
    if length >= 0xFFFFFFF0:
        raise MalformedDebugDataError("64-bit line tables are not supported")
    if cur.pos + length > len(blob):
        raise MalformedDebugDataError("line table extends past .debug_line")
    version = cur.uint(2)
    if not 2 <= version <= 5:
        raise MalformedDebugDataError(f"line table version {version}")
    if version == 5:
        cur.pos += 2  # address and segment selector sizes
    header_length = cur.uint(4)
    header_end = cur.pos + header_length
    # Minimum instruction length, maximum operations per instruction (from
    # DWARF 4), default is_stmt, line base and line range.
    cur.pos += 5 if version >= 4 else 4
    opcode_base = cur.uint(1)
    cur.pos += max(opcode_base - 1, 0)  # the standard opcodes' operand counts
    if version == 5:
        directories = [path for path, _index in _line_entries(unit, cur, header_end)]
        files = _line_entries(unit, cur, header_end)
        first = 0
    else:
        directories = [""]  # the unit's directory
        while name := cur.cstr():
            directories.append(name)
        files = [("", 0)]  # index 0 names no file
        while path := cur.cstr():
            files.append((path, cur.uleb()))
            cur.uleb()  # modification time
            cur.uleb()  # length
        first = 1
    if cur.pos > header_end:
        raise MalformedDebugDataError("file names run past the line header")
    names = [path for path, _index in files[:first]]
    for path, index in files[first:]:
        if path.startswith("/") or index == 0:
            names.append(path)
        elif index < len(directories):
            names.append(f"{directories[index]}/{path}")
        else:
            raise MalformedDebugDataError(f"directory index {index} out of range")
    return tuple(names)


def _line_entries(unit: _Unit, cur: _Cursor, header_end: int) -> list[tuple[str, int]]:
    """The (path, directory index) of each entry of a DWARF 5 line header's
    directory or file name table, read through the checked form decoder;
    content types other than the path and the directory index are read and
    dropped."""
    formats = [(cur.uleb(), cur.uleb()) for _ in range(cur.uint(1))]
    count = cur.uleb()
    if count > header_end - cur.pos:  # every entry takes a byte
        raise MalformedDebugDataError(f"{count} line header entries")
    entries = []
    for _ in range(count):
        path, index = "", 0
        for kind, form in formats:
            value = _value(unit, *_read_form(cur, form, unit, None))
            if kind == DW_LNCT_path:
                path = value
            elif kind == DW_LNCT_directory_index:
                index = value
        if not isinstance(path, str) or type(index) is not int:
            raise MalformedDebugDataError("line header entry of the wrong form")
        entries.append((path, index))
    return entries


def _source_file(owner: _Unit, index: int) -> tuple[str | None, str | None]:
    """The name ``owner``'s line table gives source file ``index``, or
    None, and why a table could not give it, or None."""
    names, problem = _file_names(owner)
    if names is None:
        return None, problem
    if 0 <= index < len(names):
        return names[index], None
    return None, f"index {index} is past its end"


# A range list read to its end: its (start, end) pairs in list order.
_Ranges = list[tuple[int, int]]


def _ranges_v4(unit: _Unit, offset: int, base: int) -> _Ranges:
    blob = unit.aux.ranges
    read_pair = _PAIR_READERS[unit.little_endian, unit.addr_size]
    size = 2 * unit.addr_size
    last = len(blob) - size  # the last position a pair can start at
    top = (1 << (unit.addr_size * 8)) - 1
    pairs: _Ranges = []
    pos = offset
    while True:
        if pos > last:
            raise MalformedDebugDataError("fixed-width read past end of unit")
        start, end = read_pair(blob, pos)
        pos += size
        if start == top:
            base = end
            continue
        if start == 0 and end == 0:
            return pairs
        pairs.append((start + base, end + base))


def _ranges_v5(unit: _Unit, offset: int, base: int) -> _Ranges:
    """Reads each entry's first operand, then, unless the entry sets the
    base, its second; an index operand is looked up as soon as it is read."""
    blob = unit.aux.rnglists
    n = len(blob)
    size = unit.addr_size
    word = _UINT_READERS[unit.little_endian][size].unpack_from
    pairs: _Ranges = []
    pos = offset
    while True:
        if pos >= n:
            raise MalformedDebugDataError("fixed-width read past end of unit")
        kind = blob[pos]
        pos += 1
        if kind == RLE_END_OF_LIST:
            return pairs
        if kind in _RLE_ADDRESS_FIRST:
            if pos + size > n:
                raise MalformedDebugDataError("fixed-width read past end of unit")
            first = word(blob, pos)[0]
            pos += size
        elif kind <= RLE_OFFSET_PAIR:  # a ULEB128 offset or address index
            if pos < n and blob[pos] < 0x80:
                first = blob[pos]
                pos += 1
            else:
                first, pos = uleb_decode(blob, pos)
            if kind != RLE_OFFSET_PAIR:
                first = _indexed_addr(unit, first)
        else:
            raise MalformedDebugDataError(f"range list entry kind {kind:#x}")
        if kind == RLE_BASE_ADDRESS or kind == RLE_BASE_ADDRESSX:
            base = first
            continue
        if kind == RLE_START_END:
            if pos + size > n:
                raise MalformedDebugDataError("fixed-width read past end of unit")
            second = word(blob, pos)[0]
            pos += size
        else:  # a ULEB128 offset, length or address index
            if pos < n and blob[pos] < 0x80:
                second = blob[pos]
                pos += 1
            else:
                second, pos = uleb_decode(blob, pos)
            if kind == RLE_STARTX_ENDX:
                second = _indexed_addr(unit, second)
        if kind == RLE_OFFSET_PAIR:
            pairs.append((base + first, base + second))
        elif kind == RLE_START_END or kind == RLE_STARTX_ENDX:
            pairs.append((first, second))
        else:  # a start and a length
            pairs.append((first, first + second))


def _resolve_ranges(unit: _Unit, form: int, raw: object, cu_base: int) -> _Ranges:
    value = _offset_value(unit, form, raw, "ranges")
    if unit.version >= 5:
        if form == 0x23:  # rnglistx: indirect through the offset table
            rel = _table_entry(
                unit, unit.aux.rnglists, unit.rnglists_base, value, 4,
                "rnglistx index out of range",
            )
            return _ranges_v5(unit, unit.rnglists_base + rel, cu_base)
        return _ranges_v5(unit, value, cu_base)
    return _ranges_v4(unit, value, cu_base)


def _pc(unit: _Unit, got: tuple[int, object], base: int, what: str) -> int:
    """The address a high pc or entry pc ``got`` gives: an address form's
    value, or ``base`` plus a constant's unsigned offset (DWARF 5 §2.17.2,
    §2.18), which must not leave the unit's address space. An offset from
    the all-ones tombstone of a discarded function stays there."""
    form, raw = got
    value = _value(unit, form, raw)
    if not isinstance(value, int):
        raise MalformedDebugDataError(f"non-integer {what}")
    if form in CONSTANT_FORMS:
        bits = unit.addr_size * 8
        if value < 0:
            raise MalformedDebugDataError(f"negative {what} offset {value}")
        if base == (1 << bits) - 1:
            return base
        value += base
        if value > 1 << bits:
            raise MalformedDebugDataError(f"{what} {value:#x} exceeds {bits}-bit address space")
    elif form not in ADDRESS_FORMS:
        raise MalformedDebugDataError(f"{what} form {form:#x}")
    return value


def _entry_range(
    unit: _Unit, attrs: dict, low: int | None, pairs: _Ranges
) -> tuple[int, int | None, tuple[tuple[int, int], ...]]:
    """A range-list subprogram's entry, the end of the range that holds
    it, and its other ranges in list order.

    The entry is DW_AT_entry_pc, else low_pc, else the first range's start
    (DWARF 5 §2.18); a constant entry_pc is an offset from low_pc, else
    from the first range's start. An entry that no range holds has an open
    extent (end None), and every range is another range.
    """
    base = pairs[0][0] if low is None else low
    got = attrs.get(DW_AT_entry_pc)
    entry = base if got is None else _pc(unit, got, base, "entry pc")
    for i, (start, end) in enumerate(pairs):
        if start <= entry < end:
            return entry, end, tuple(pairs[:i] + pairs[i + 1 :])
    return entry, None, tuple(pairs)


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
    cu_name = _unit_name(unit)
    got = unit.dies[unit.root].attrs.get(DW_AT_low_pc)
    cu_base = None if got is None else _value(unit, *got)
    if not isinstance(cu_base, int):
        cu_base = 0
    # The address a linker writes for a function it discarded: 0 (GNU ld,
    # gold) or all-ones (LLD 11 and later).
    tombstone = (1 << unit.addr_size * 8) - 1
    records: list[DebugFunctionRecord] = []
    no_address = discarded = 0
    # The first source file the line tables could not name, and where.
    unnamed: tuple[_Unit, str] | None = None
    for die in unit.dies.values():
        tag = die.tag
        if tag != DW_TAG_subprogram and tag != DW_TAG_inlined_subroutine:
            continue
        inlined = tag == DW_TAG_inlined_subroutine
        attrs = die.attrs
        # The extent: a low/high pair wins; otherwise a non-empty range list
        # gives it (the hull of an inlined copy, the entry's range of a
        # subprogram); otherwise a bare low_pc gives an open extent.
        # ``ranges`` is 0 unless the extent comes from a range list, whose
        # hull is ``lo``..``hi``; ``other`` holds a subprogram's other ranges.
        got = attrs.get(DW_AT_low_pc)
        low = None if got is None else _value(unit, *got)
        if not isinstance(low, int):
            low = None
        high = attrs.get(DW_AT_high_pc)
        ranges = 0
        other = ()
        if low is not None and high is not None:
            end = _pc(unit, high, low, "high pc")
            if end < low:
                raise MalformedDebugDataError(f"high pc {end:#x} is below low pc {low:#x}")
        else:
            end = None
            got = attrs.get(DW_AT_ranges)
            if got is not None:
                pairs = _resolve_ranges(unit, *got, cu_base)
                if pairs:
                    lo, hi = pairs[0]
                    for start, stop in pairs:
                        if stop < start:
                            raise MalformedDebugDataError(
                                f"range list of {_shown(unit, die)} ends before it starts"
                            )
                        if start < lo:
                            lo = start
                        if stop > hi:
                            hi = stop
                    ranges = len(pairs)
                    if inlined:
                        low, end = lo, hi
                    else:
                        low, end, other = _entry_range(unit, attrs, low, pairs)
            if low is None:
                # Declarations and abstract instances legitimately lack
                # addresses; only concrete definitions are counted.
                declared = attrs.get(DW_AT_declaration)
                if not (
                    inlined
                    or (declared is not None and _value(unit, *declared))
                    or DW_AT_inline in attrs
                ):
                    no_address += 1
                continue
        sec = elf.section_of(image, low)
        outside = sec is None or not sec.executable
        if outside and low in (0, tombstone):
            discarded += 1
            continue
        # A name is resolved only for a record or a diagnostic that prints it.
        # A subprogram whose entry a range holds is warned of by matching,
        # and only if another of its ranges starts at no function.
        if ranges and (inlined or end is None):
            extent = "using the hull" if inlined else "no range holds its entry"
            diagnostics.append(
                Diagnostic(
                    "warning",
                    GT_DISCONTIGUOUS_RANGE,
                    f"{_shown(unit, die)} at {low:#x} spans {ranges} ranges; {extent}",
                    span=(lo, hi - lo),
                )
            )
        if outside:
            diagnostics.append(
                Diagnostic(
                    "warning",
                    GT_DEBUG_OUTSIDE_EXEC,
                    f"debug info places {_shown(unit, die)} at {low:#x}, "
                    "outside every executable section",
                    span=(low, 0),
                )
            )
        if inlined:
            continue  # an inlined copy is never a function start of its own
        # Each found lookup is read against the unit that holds it, in this
        # order, which decides the fault a damaged unit names: noreturn,
        # decl_file, decl_line, the file, the name.
        got_noreturn, got_file, got_line, got_name = _inherited(unit, die, _RECORD_ATTRS)
        noreturn = got_noreturn and _value(*got_noreturn)
        file_idx = got_file and _value(*got_file)
        line = got_line and _value(*got_line)
        # sdata and implicit_const can be negative, flag forms decode to bool.
        decl_line = line if type(line) is int and line >= 0 else 0
        if not isinstance(file_idx, int):
            decl_file = ""
        else:
            # The index names a file of the unit that holds it.
            owner = got_file[0]  # type: ignore
            decl_file, problem = _source_file(owner, file_idx)
            if problem is not None and unnamed is None:
                unnamed = (owner, problem)
            if decl_file is None:
                # Without a line table, 0 and 1 name the unit and any other
                # index is file#N.
                if file_idx not in (0, 1):
                    decl_file = f"file#{file_idx}"
                else:
                    decl_file = cu_name if owner is unit else _unit_name(owner)
        name = got_name and _value(*got_name)
        records.append(
            DebugFunctionRecord(
                name=name if isinstance(name, str) else "",
                low_pc=low,
                end_exclusive=end,
                decl_file=decl_file,
                decl_line=decl_line,
                noreturn=bool(noreturn),
                other_ranges=other,
            )
        )
    if no_address:
        diagnostics.append(
            Diagnostic(
                "info",
                GT_SUBPROGRAM_NO_ADDRESS,
                f"{no_address} concrete subprogram(s) of {cu_name or '<anonymous>'} "
                f"(the unit at offset {unit.cu_start:#x}) carry no address; skipped",
            )
        )
    if unnamed is not None:
        owner, problem = unnamed
        diagnostics.append(
            Diagnostic(
                "warning",
                GT_BAD_LINE_TABLE,
                f"the line table of the unit at offset {owner.cu_start:#x} names no "
                f"source file for {cu_name or '<anonymous>'} (the unit at offset "
                f"{unit.cu_start:#x}): {problem}; the unit's name or file#N stands in",
            )
        )
    if discarded:
        diagnostics.append(
            Diagnostic(
                "info",
                GT_LINKER_DISCARDED,
                f"{discarded} subprogram(s) or inlined copies of "
                f"{cu_name or '<anonymous>'} (the unit at offset {unit.cu_start:#x}) "
                "sit at 0 or all-ones outside every executable section, where a "
                "linker puts code it discarded; skipped",
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
    dropped. Reading goes on with the next unit, whether the damage was in
    the unit's header, its walk or its records; only a damaged unit length
    ends the reading of its blob.
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

    companions = {key: _section_blobs(image, name) for key, name in _COMPANIONS.items()}
    little = image.endianness == "little"
    records: list[DebugFunctionRecord] = []
    for i, blob in enumerate(info_blobs):
        spans, damage = _unit_spans(blob, little)
        blobs = {key: _nth(companion, i) for key, companion in companions.items()}
        aux = _Aux(**blobs, units=spans)
        for start, end in spans:
            unit_diagnostics: list[Diagnostic] = []
            try:
                unit = _parse_unit(blob, start, end, little, aux)
                if unit is not None:  # a unit of another type yields no records
                    records.extend(_unit_records(unit, image, unit_diagnostics))
                    diagnostics.extend(unit_diagnostics)
            except MalformedDebugDataError as exc:
                diagnostics.append(_unreadable(start, exc))
        if damage is not None:
            diagnostics.append(_unreadable(*damage))
        # Each linked unit holds this aux: drop them, so the blob's units
        # are freed by their counts, not left for the cyclic collector.
        aux.linked.clear()
    return records, diagnostics


def _unreadable(unit_start: int, exc: MalformedDebugDataError) -> Diagnostic:
    return Diagnostic(
        "error",
        GT_MALFORMED_DEBUG_DATA,
        f"debug info unreadable from the unit at offset {unit_start:#x}: {exc}",
    )


# DW_EH_PE_* pointer encodings (LSB Core, "DWARF Exception Header
# Encoding"): the low nibble gives the value's format, the high bits what
# it is relative to.
DW_EH_PE_indirect = 0x80
DW_EH_PE_pcrel = 0x10
DW_EH_PE_datarel = 0x30
# format -> (width in bytes, signed); width 0 is a LEB128 number and None
# the address size.
_EH_FORMATS = {
    0x00: (None, False),  # absptr
    0x01: (0, False),  # uleb128
    0x02: (2, False),
    0x03: (4, False),
    0x04: (8, False),
    0x09: (0, True),  # sleb128
    0x0A: (2, True),
    0x0B: (4, True),
    0x0C: (8, True),
}


def _eh_form(encoding: int) -> tuple[int | None, bool]:
    """The (width, signed) of a pointer in ``encoding``, if it is one this
    reader applies."""
    form = _EH_FORMATS.get(encoding & 0x0F)
    if form is None or encoding & 0xF0 not in (0, DW_EH_PE_pcrel, DW_EH_PE_datarel):
        raise MalformedDebugDataError(f"pointer encoding {encoding:#x}")
    return form


def _eh_value(cur: _Cursor, encoding: int, addr_size: int) -> int:
    """The value of a pointer in ``encoding``'s format, not yet applied."""
    width, signed = _eh_form(encoding)
    if width == 0:
        return cur.sleb() if signed else cur.uleb()
    width = width or addr_size
    value = cur.uint(width)
    if signed and value >> (8 * width - 1):
        value -= 1 << (8 * width)
    return value


def _cie_encoding(cur: _Cursor, end: int, addr_size: int) -> int:
    """The FDE pointer encoding of the CIE whose version byte is at the
    cursor: what its ``R`` augmentation gives, else absptr."""
    version = cur.uint(1)
    if version not in (1, 3):
        raise MalformedDebugDataError(f"CIE version {version}")
    augmentation = cur.cstr()
    cur.uleb()  # code alignment factor
    cur.sleb()  # data alignment factor
    if version == 1:
        cur.uint(1)  # return address register
    else:
        cur.uleb()
    encoding = 0
    if augmentation and augmentation[0] != "z":
        raise MalformedDebugDataError(f"CIE augmentation {augmentation!r}")
    if augmentation:
        data_end = cur.uleb() + cur.pos
        for letter in augmentation[1:]:
            if letter == "R":
                encoding = cur.uint(1)
                _eh_form(encoding)
            elif letter == "L":
                cur.uint(1)  # the FDEs' LSDA pointer encoding
            elif letter == "P":
                _eh_value(cur, cur.uint(1) & ~DW_EH_PE_indirect, addr_size)
            elif letter != "S":  # S, a signal frame, has no data
                raise MalformedDebugDataError(f"CIE augmentation {augmentation!r}")
        if cur.pos > data_end:
            raise MalformedDebugDataError("CIE augmentation data overruns its length")
    if cur.pos > end:
        raise MalformedDebugDataError("CIE runs past its length")
    return encoding


def _fde_ranges(
    blob: bytes, vaddr: int, little: bool, addr_size: int, data_base: int | None
) -> list[tuple[int, int]]:
    """The (pc_begin, pc_end) of each FDE in one .eh_frame section."""
    cur = _Cursor(blob, 0, little)
    mask = (1 << (8 * addr_size)) - 1
    cies: dict[int, int] = {}  # CIE entry offset -> its FDE pointer encoding
    ranges = []
    start = 0
    try:
        while cur.pos < len(blob):
            start = cur.pos
            length = cur.uint(4)
            if length == 0:  # the terminator (LSB Core)
                break
            if length == 0xFFFFFFFF:
                length = cur.uint(8)
            end = cur.pos + length
            if end > len(blob):
                raise MalformedDebugDataError("runs past the section")
            id_pos = cur.pos
            cie_pointer = cur.uint(4)  # 4 bytes even after a 64-bit length (LSB Core)
            if cie_pointer == 0:
                cies[start] = _cie_encoding(cur, end, addr_size)
                cur.pos = end
                continue
            encoding = cies.get(id_pos - cie_pointer)
            if encoding is None:
                raise MalformedDebugDataError("FDE names no CIE")
            field_pos = cur.pos
            begin = _eh_value(cur, encoding, addr_size)
            size = _eh_value(cur, encoding & 0x0F, addr_size)
            if cur.pos > end:
                raise MalformedDebugDataError("FDE runs past its length")
            if encoding & 0x70 == DW_EH_PE_pcrel:
                begin += vaddr + field_pos
            elif encoding & 0x70 == DW_EH_PE_datarel:
                if data_base is None:
                    raise MalformedDebugDataError("a datarel pointer, but no .eh_frame_hdr")
                begin += data_base
            begin &= mask
            if size < 0 or begin + size > mask + 1:
                raise MalformedDebugDataError("FDE leaves the address space")
            ranges.append((begin, begin + size))
            cur.pos = end
    except MalformedDebugDataError as exc:
        raise MalformedDebugDataError(f"entry at {start:#x}: {exc}") from None
    return ranges


def eh_frame_ranges(image: BinaryImage) -> tuple[list[tuple[int, int]], list[Diagnostic]]:
    """The sorted ``(pc_begin, pc_end)`` of each FDE in ``.eh_frame``.

    Walks the CIEs and FDEs (LSB Core; DWARF 5 §6.4.1 for the shared
    layout): a CIE's ``z``, ``R``, ``P``, ``L`` and ``S`` augmentations,
    absptr, udata and sdata pointers, plain or relative to the pointer
    (pcrel) or to ``.eh_frame_hdr`` (datarel), and 64-bit lengths. It
    reads no CFA instruction and no ``.eh_frame_hdr`` content. A zero
    length ends the section. Damage gives one GT_BAD_EH_FRAME warning and
    no range at all: no FDE of a damaged section floors a trim.
    """
    little = image.endianness == "little"
    addr_size = image.word_size // 8
    data_base = None
    for sec in image.sections:
        if sec.name == ".eh_frame_hdr":
            data_base = sec.vaddr
    ranges: list[tuple[int, int]] = []
    for sec in image.sections:
        if sec.name != ".eh_frame" or sec.file_offset is None:
            continue
        blob = image.raw[sec.file_offset : sec.file_offset + sec.size]
        try:
            ranges += _fde_ranges(blob, sec.vaddr, little, addr_size, data_base)
        except MalformedDebugDataError as exc:
            message = f".eh_frame at {sec.vaddr:#x} is unreadable: {exc}; no FDE is used"
            return [], [Diagnostic("warning", GT_BAD_EH_FRAME, message)]
    ranges.sort()
    return ranges, []
