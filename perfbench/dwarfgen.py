"""Dense DWARF debug info for the forged benchmark binaries.

The fixture forge in ``bintruth`` writes one subprogram DIE per function,
which makes the DWARF walk almost free. Real compilers emit far more:
types, parameters, lexical blocks full of variables, inlined copies and
call sites. This module writes that kind of debug info so that the walk
costs what it costs on real binaries (about 200 attributes per function
here; ``python3.13`` carries about 580).

Two producer styles alternate between compile units:

* DWARF 4, GCC style: ``strp`` names, ``addr`` low pcs, ``data8`` high
  pcs and ``.debug_ranges`` lists.
* DWARF 5, Clang style: ``strx`` names through ``.debug_str_offsets``,
  ``addrx`` addresses through ``.debug_addr``, ``data4`` high pcs and
  ``rnglistx`` lists through ``.debug_rnglists``.

Every DIE and attribute written is counted, so the benchmark can report
``dwarf.dies`` and ``dwarf.attributes`` by construction. The output is a
dict of section name to bytes, handed to the forge as non-allocated
sections. Only x86_64 little-endian units are written.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

# Tags.
T_COMPILE_UNIT = 0x11
T_BASE_TYPE = 0x24
T_POINTER_TYPE = 0x0F
T_CONST_TYPE = 0x26
T_TYPEDEF = 0x16
T_STRUCTURE_TYPE = 0x13
T_MEMBER = 0x0D
T_SUBPROGRAM = 0x2E
T_FORMAL_PARAMETER = 0x05
T_VARIABLE = 0x34
T_LEXICAL_BLOCK = 0x0B
T_INLINED_SUBROUTINE = 0x1D
T_CALL_SITE = 0x48
T_CALL_SITE_PARAMETER = 0x49
T_GNU_CALL_SITE = 0x4109
T_GNU_CALL_SITE_PARAMETER = 0x410A

# Attributes.
A_SIBLING = 0x01
A_LOCATION = 0x02
A_NAME = 0x03
A_BYTE_SIZE = 0x0B
A_STMT_LIST = 0x10
A_LOW_PC = 0x11
A_HIGH_PC = 0x12
A_LANGUAGE = 0x13
A_COMP_DIR = 0x1B
A_INLINE = 0x20
A_PRODUCER = 0x25
A_PROTOTYPED = 0x27
A_ABSTRACT_ORIGIN = 0x31
A_DATA_MEMBER_LOCATION = 0x38
A_DECL_COLUMN = 0x39
A_DECL_FILE = 0x3A
A_DECL_LINE = 0x3B
A_DECLARATION = 0x3C
A_ENCODING = 0x3E
A_EXTERNAL = 0x3F
A_FRAME_BASE = 0x40
A_TYPE = 0x49
A_ENTRY_PC = 0x52
A_RANGES = 0x55
A_CALL_COLUMN = 0x57
A_CALL_FILE = 0x58
A_CALL_LINE = 0x59
A_STR_OFFSETS_BASE = 0x72
A_ADDR_BASE = 0x73
A_RNGLISTS_BASE = 0x74
A_CALL_ALL_CALLS = 0x7A
A_CALL_RETURN_PC = 0x7D
A_CALL_VALUE = 0x7E
A_CALL_ORIGIN = 0x7F
A_NORETURN = 0x87
A_GNU_CALL_SITE_VALUE = 0x2111
A_GNU_ALL_CALL_SITES = 0x2117
A_GNU_ENTRY_VIEW = 0x2138

# Forms.
F_ADDR = 0x01
F_DATA2 = 0x05
F_DATA4 = 0x06
F_DATA8 = 0x07
F_DATA1 = 0x0B
F_STRP = 0x0E
F_REF4 = 0x13
F_SEC_OFFSET = 0x17
F_EXPRLOC = 0x18
F_FLAG_PRESENT = 0x19
F_ADDRX = 0x1B
F_RNGLISTX = 0x23
F_STRX1 = 0x25
F_STRX2 = 0x26

# Names a compile unit reuses for types, parameters and locals.
VOCABULARY = (
    "int", "unsigned int", "long int", "long unsigned int", "char",
    "unsigned char", "short int", "_Bool", "double", "float",
    "long long int", "size_t", "ssize_t", "uint8_t", "uint32_t",
    "uint64_t", "off_t", "FILE", "node", "buffer", "entry", "state",
    "ctx", "len", "buf", "i", "j", "n", "p", "q", "key", "value",
    "flags", "count", "result", "err", "tmp", "index", "size", "data",
    "next", "prev", "head", "tail", "left", "right", "offset", "limit",
    "cursor", "mask",
)

BASE_TYPES = (
    ("int", 5, 4), ("unsigned int", 8, 4), ("long int", 5, 8),
    ("long unsigned int", 7, 8), ("char", 6, 1), ("unsigned char", 8, 1),
    ("short int", 5, 2), ("_Bool", 2, 1), ("double", 4, 8), ("float", 4, 4),
    ("long long int", 5, 8), ("uint8_t", 8, 1),
)
TYPEDEFS = ("size_t", "ssize_t", "uint32_t", "uint64_t", "off_t")
STRUCTS = ("FILE", "node", "buffer", "entry", "state", "ctx")
STRUCT_MEMBERS = 8
PARAMS_PER_FUNCTION = 4
LOCALS_PER_FUNCTION = 2
BLOCKS_PER_FUNCTION = 2
VARIABLES_PER_BLOCK = 7
CALL_SITES_PER_FUNCTION = 4
# Inline sites per function: two with high-pc extents, one with a range
# list. The last byte each one touches is offset 13, so bodies need 16.
INLINE_HIGH_PC = ((1, 5), (11, 14))
INLINE_RANGES = ((5, 7), (9, 11))
MIN_BODY = 16

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_LOC_FBREG = b"\x91\x6c"  # DW_OP_fbreg -20
_LOC_REG5 = b"\x55"  # DW_OP_reg5
_CALL_VALUE = b"\x30"  # DW_OP_lit0


def uleb(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


@dataclass(frozen=True, slots=True)
class DebugFunction:
    """One concrete out-of-line function as its compile unit describes it."""

    name: str
    low: int
    size: int
    decl_line: int
    noreturn: bool = False


@dataclass(frozen=True, slots=True)
class DebugCounts:
    """What the writer emitted, counted while writing."""

    dies: int
    attributes: int
    units: int
    inline_range_sites: int
    info_bytes: int


def _kinds(version: int) -> dict[str, tuple[int, bool, tuple[tuple[int, int], ...]]]:
    """DIE shapes: kind -> (tag, has_children, ((attr, form), ...))."""
    v5 = version >= 5
    name = F_STRX1 if v5 else F_STRP
    big_name = F_STRX2 if v5 else F_STRP
    addr = F_ADDRX if v5 else F_ADDR
    high = F_DATA4 if v5 else F_DATA8
    decl = ((A_DECL_FILE, F_DATA1), (A_DECL_LINE, F_DATA2), (A_DECL_COLUMN, F_DATA1))
    sib = ((A_SIBLING, F_REF4),)
    if v5:
        cu = (
            (A_PRODUCER, F_STRX1), (A_LANGUAGE, F_DATA2), (A_NAME, F_STRX2),
            (A_STR_OFFSETS_BASE, F_SEC_OFFSET), (A_STMT_LIST, F_SEC_OFFSET),
            (A_COMP_DIR, F_STRX1), (A_LOW_PC, F_ADDRX), (A_HIGH_PC, F_DATA4),
            (A_ADDR_BASE, F_SEC_OFFSET), (A_RNGLISTS_BASE, F_SEC_OFFSET),
        )
        all_calls = A_CALL_ALL_CALLS
        view: tuple[tuple[int, int], ...] = ()
        call_site = (T_CALL_SITE, ((A_CALL_RETURN_PC, F_ADDRX), (A_CALL_ORIGIN, F_REF4)))
        call_param = (T_CALL_SITE_PARAMETER, A_CALL_VALUE)
        ranges = F_RNGLISTX
    else:
        cu = (
            (A_PRODUCER, F_STRP), (A_LANGUAGE, F_DATA1), (A_NAME, F_STRP),
            (A_COMP_DIR, F_STRP), (A_LOW_PC, F_ADDR), (A_HIGH_PC, F_DATA8),
            (A_STMT_LIST, F_SEC_OFFSET),
        )
        all_calls = A_GNU_ALL_CALL_SITES
        view = ((A_GNU_ENTRY_VIEW, F_DATA1),)
        call_site = (T_GNU_CALL_SITE, ((A_LOW_PC, F_ADDR), (A_ABSTRACT_ORIGIN, F_REF4)))
        call_param = (T_GNU_CALL_SITE_PARAMETER, A_GNU_CALL_SITE_VALUE)
        ranges = F_SEC_OFFSET
    subprogram = (
        (A_EXTERNAL, F_FLAG_PRESENT), (A_NAME, big_name), *decl,
        (A_PROTOTYPED, F_FLAG_PRESENT), (A_TYPE, F_REF4), (A_LOW_PC, addr),
        (A_HIGH_PC, high), (A_FRAME_BASE, F_EXPRLOC), (all_calls, F_FLAG_PRESENT),
    )
    call_tail = ((A_CALL_FILE, F_DATA1), (A_CALL_LINE, F_DATA2), (A_CALL_COLUMN, F_DATA1))
    return {
        "cu": (T_COMPILE_UNIT, True, cu),
        "base": (T_BASE_TYPE, False, ((A_NAME, name), (A_ENCODING, F_DATA1), (A_BYTE_SIZE, F_DATA1))),
        "pointer": (T_POINTER_TYPE, False, ((A_BYTE_SIZE, F_DATA1), (A_TYPE, F_REF4))),
        "const": (T_CONST_TYPE, False, ((A_TYPE, F_REF4),)),
        "typedef": (T_TYPEDEF, False, ((A_NAME, name), *decl[:2], (A_TYPE, F_REF4))),
        "struct": (T_STRUCTURE_TYPE, True, ((A_NAME, name), (A_BYTE_SIZE, F_DATA1), *decl, *sib)),
        "member": (T_MEMBER, False, ((A_NAME, name), *decl, (A_TYPE, F_REF4), (A_DATA_MEMBER_LOCATION, F_DATA1))),
        "declaration": (
            T_SUBPROGRAM,
            True,
            ((A_EXTERNAL, F_FLAG_PRESENT), (A_NAME, big_name), *decl,
             (A_PROTOTYPED, F_FLAG_PRESENT), (A_TYPE, F_REF4),
             (A_DECLARATION, F_FLAG_PRESENT), *sib),
        ),
        "declaration_param": (T_FORMAL_PARAMETER, False, ((A_TYPE, F_REF4),)),
        "abstract": (
            T_SUBPROGRAM,
            True,
            ((A_NAME, big_name), *decl, (A_PROTOTYPED, F_FLAG_PRESENT),
             (A_TYPE, F_REF4), (A_INLINE, F_DATA1), *sib),
        ),
        "abstract_param": (T_FORMAL_PARAMETER, False, ((A_NAME, name), *decl[:2], (A_TYPE, F_REF4))),
        "subprogram": (T_SUBPROGRAM, True, (*subprogram, *sib)),
        "subprogram_noreturn": (T_SUBPROGRAM, True, (*subprogram, (A_NORETURN, F_FLAG_PRESENT), *sib)),
        "param": (T_FORMAL_PARAMETER, False, ((A_NAME, name), *decl, (A_TYPE, F_REF4), (A_LOCATION, F_EXPRLOC))),
        "variable": (T_VARIABLE, False, ((A_NAME, name), *decl, (A_TYPE, F_REF4), (A_LOCATION, F_EXPRLOC))),
        "block": (T_LEXICAL_BLOCK, True, ((A_LOW_PC, addr), (A_HIGH_PC, high), *sib)),
        "inlined": (
            T_INLINED_SUBROUTINE,
            True,
            ((A_ABSTRACT_ORIGIN, F_REF4), (A_ENTRY_PC, addr), *view,
             (A_LOW_PC, addr), (A_HIGH_PC, high), *call_tail, *sib),
        ),
        "inlined_ranges": (
            T_INLINED_SUBROUTINE,
            True,
            ((A_ABSTRACT_ORIGIN, F_REF4), (A_ENTRY_PC, addr), *view,
             (A_RANGES, ranges), *call_tail, *sib),
        ),
        "inlined_param": (T_FORMAL_PARAMETER, False, ((A_ABSTRACT_ORIGIN, F_REF4), (A_LOCATION, F_EXPRLOC))),
        "call_site": (call_site[0], True, (*call_site[1], *sib)),
        "call_param": (call_param[0], False, ((A_LOCATION, F_EXPRLOC), (call_param[1], F_EXPRLOC))),
    }



class _StrTab:
    """``.debug_str``: NUL-terminated, deduplicated."""

    def __init__(self) -> None:
        self.blob = bytearray()
        self.offsets: dict[str, int] = {}

    def add(self, text: str) -> int:
        off = self.offsets.get(text)
        if off is None:
            off = self.offsets[text] = len(self.blob)
            self.blob += text.encode() + b"\x00"
        return off


class DebugInfoWriter:
    """Accumulates compile units; :meth:`sections` returns the bytes."""

    def __init__(self) -> None:
        self.info = bytearray()
        self.abbrev = bytearray()
        self.strings = _StrTab()
        self.str_offsets = bytearray()
        self.addr = bytearray()
        self.ranges = bytearray()
        self.rnglists = bytearray()
        self.dies = 0
        self.attributes = 0
        self.units = 0
        self.inline_range_sites = 0

    def counts(self) -> DebugCounts:
        return DebugCounts(
            self.dies, self.attributes, self.units, self.inline_range_sites, len(self.info)
        )

    def sections(self) -> dict[str, bytes]:
        out = {
            ".debug_info": self.info,
            ".debug_abbrev": self.abbrev,
            ".debug_str": self.strings.blob,
            ".debug_str_offsets": self.str_offsets,
            ".debug_addr": self.addr,
            ".debug_ranges": self.ranges,
            ".debug_rnglists": self.rnglists,
        }
        return {name: bytes(blob) for name, blob in out.items() if blob}

    def add_unit(self, version: int, cu_name: str, functions: list[DebugFunction]) -> None:
        _UnitWriter(self, version, cu_name, functions).write()
        self.units += 1


class _UnitWriter:
    def __init__(self, owner: DebugInfoWriter, version: int, cu_name: str, functions):
        if version not in (4, 5):
            raise ValueError(f"DWARF version {version} is not written here")
        if not functions:
            raise ValueError("a compile unit needs at least one function")
        self.owner = owner
        self.v5 = version == 5
        self.version = version
        self.cu_name = cu_name
        self.functions = functions
        self.kinds = _kinds(version)
        self.codes = {kind: i + 1 for i, kind in enumerate(self.kinds)}
        self.body = bytearray()
        # Unit header after the length field: 7 bytes in v4, 8 in v5.
        self.header_len = 8 if self.v5 else 7
        self.sibling_fixups: list[int] = []
        # DWARF 5 per-unit indirection tables.
        self.str_index: dict[str, int] = {}
        self.addr_index: list[int] = []
        self.rng_lists: list[bytes] = []
        self.cu_low = min(f.low for f in functions)
        self.cu_high = max(f.low + f.size for f in functions)

    # -- value encoders -------------------------------------------------
    def string(self, text: str) -> int:
        if not self.v5:
            return self.owner.strings.add(text)
        index = self.str_index.get(text)
        if index is None:
            index = self.str_index[text] = len(self.str_index)
        return index

    def address(self, value: int) -> int:
        if not self.v5:
            return value
        self.addr_index.append(value)
        return len(self.addr_index) - 1

    def range_list(self, pairs: list[tuple[int, int]]) -> int:
        self.owner.inline_range_sites += 1
        if self.v5:
            base = self.address(self.cu_low)
            entry = bytearray(b"\x01" + uleb(base))
            for lo, hi in pairs:
                entry += b"\x04" + uleb(lo - self.cu_low) + uleb(hi - self.cu_low)
            entry += b"\x00"
            self.rng_lists.append(bytes(entry))
            return len(self.rng_lists) - 1
        ranges = self.owner.ranges
        off = len(ranges)
        for lo, hi in pairs:
            ranges += _U64.pack(lo - self.cu_low) + _U64.pack(hi - self.cu_low)
        ranges += bytes(16)
        return off

    def offset(self) -> int:
        """Unit-relative offset of the next byte (the length field counts)."""
        return 4 + self.header_len + len(self.body)

    def die(self, kind: str, *values) -> int:
        """Append one DIE; returns its unit-relative offset.

        A kind ending in a sibling attribute takes no value for it: the
        reference is patched by :meth:`close` once the subtree is written.
        """
        at = self.offset()
        tag, children, pairs = self.kinds[kind]
        body = self.body
        body += uleb(self.codes[kind])
        owner = self.owner
        owner.dies += 1
        owner.attributes += len(pairs)
        it = iter(values)
        for attr, form in pairs:
            if attr == A_SIBLING:
                self.sibling_fixups.append(len(body))
                body += b"\x00\x00\x00\x00"
                continue
            if form == F_FLAG_PRESENT:
                continue
            value = next(it)
            if form == F_REF4 or form == F_SEC_OFFSET or form == F_DATA4 or form == F_STRP:
                body += _U32.pack(value)
            elif form == F_DATA1 or form == F_STRX1:
                body += _U8.pack(value)
            elif form == F_DATA2 or form == F_STRX2:
                body += _U16.pack(value)
            elif form == F_ADDR or form == F_DATA8:
                body += _U64.pack(value)
            elif form == F_EXPRLOC:
                body += uleb(len(value)) + value
            elif form == F_ADDRX or form == F_RNGLISTX:
                body += uleb(value)
            else:
                raise ValueError(f"form {form:#x} is not written here")
        if next(it, None) is not None:
            raise ValueError(f"too many values for a {kind} DIE")
        return at

    def close(self) -> None:
        """End the innermost open DIE's children and patch its sibling."""
        self.body += b"\x00"
        pos = self.sibling_fixups.pop()
        _U32.pack_into(self.body, pos, self.offset())

    # -- the unit -------------------------------------------------------
    def write(self) -> None:
        owner = self.owner
        # Registered first so that every strx1 index stays below 256.
        self.vocab = [self.string(word) for word in VOCABULARY]
        producer = self.string("clang version 17.0.6" if self.v5 else "GNU C17 13.2.0 -O2 -g")
        comp_dir = self.string("/build/src")
        name = self.string(self.cu_name)

        str_base = len(owner.str_offsets) + 8
        addr_base = len(owner.addr) + 8
        rng_base = len(owner.rnglists) + 12
        if self.v5:
            self.die(
                "cu", producer, 0x1D, name, str_base, 0, comp_dir,
                self.address(self.cu_low), self.cu_high - self.cu_low,
                addr_base, rng_base,
            )
        else:
            self.die("cu", producer, 0x0C, name, comp_dir, self.cu_low,
                     self.cu_high - self.cu_low, 0)
        types = self._types()
        abstracts = self._abstracts(types)
        self._declarations(types)
        for i, fn in enumerate(self.functions):
            self._function(i, fn, types, abstracts)
        self.body += b"\x00"  # end of the unit's children
        self._flush()

    def _types(self) -> list[int]:
        types = [self.die("base", self.string(n), enc, size) for n, enc, size in BASE_TYPES]
        types += [self.die("pointer", 8, t) for t in types[:12]]
        types += [self.die("const", t) for t in types[:4]]
        for i, name in enumerate(TYPEDEFS):
            types.append(self.die("typedef", self.string(name), 1, 10 + i, types[i % 4]))
        for i, name in enumerate(STRUCTS):
            types.append(self.die("struct", self.string(name), 8 * STRUCT_MEMBERS, 1, 30 + i, 8))
            for m in range(STRUCT_MEMBERS):
                self.die(
                    "member", self.vocab[20 + m], 1, 31 + i, 5 + m,
                    types[(i + m) % len(types)], 8 * m,
                )
            self.close()
        return types

    def _abstracts(self, types: list[int]) -> list[tuple[int, list[int]]]:
        out = []
        for i in range(max(8, len(self.functions) // 5)):
            at = self.die("abstract", self.string(f"{self.cu_name[:-2]}_inline_{i}"),
                          1, 200 + i, 1, types[i % len(types)], 3)
            params = [
                self.die("abstract_param", self.vocab[24 + p], 1, 200 + i,
                         types[p % len(types)])
                for p in range(2)
            ]
            self.close()
            out.append((at, params))
        return out

    def _declarations(self, types: list[int]) -> None:
        for i in range(len(self.functions) // 3):
            self.die("declaration", self.string(f"extern_{self.cu_name[:-2]}_{i}"),
                     2, 40 + i, 1, types[i % len(types)])
            for p in range(2):
                self.die("declaration_param", types[(i + p) % len(types)])
            self.close()

    def _function(self, i: int, fn: DebugFunction, types, abstracts) -> None:
        if fn.size < MIN_BODY:
            raise ValueError(f"{fn.name}: bodies under {MIN_BODY} bytes cannot host the inline sites")
        lo = fn.low
        kind = "subprogram_noreturn" if fn.noreturn else "subprogram"
        ntypes = len(types)
        self.die(kind, self.string(fn.name), 1, fn.decl_line, 1, types[i % ntypes],
                 self.address(lo), fn.size, b"\x9c")
        for p in range(PARAMS_PER_FUNCTION):
            self.die("param", self.vocab[25 + p], 1, fn.decl_line, 10 + p, types[(i + p) % ntypes], _LOC_REG5)
        for v in range(LOCALS_PER_FUNCTION):
            self.die("variable", self.vocab[36 + v], 1, fn.decl_line + 1, 3, types[(i + v) % ntypes], _LOC_FBREG)
        for b in range(BLOCKS_PER_FUNCTION):
            b_lo = lo + 1 + b
            b_hi = lo + fn.size - 1 - b
            self.die("block", self.address(b_lo), b_hi - b_lo)
            for v in range(VARIABLES_PER_BLOCK):
                self.die("variable", self.vocab[26 + v], 1, fn.decl_line + 2 + v, 5,
                         types[(i + v + b) % ntypes], _LOC_FBREG)
            self.close()
        view = () if self.v5 else (0,)
        for s, (s_lo, s_hi) in enumerate(INLINE_HIGH_PC):
            origin, origin_params = abstracts[(i + s) % len(abstracts)]
            self.die("inlined", origin, self.address(lo + s_lo), *view,
                     self.address(lo + s_lo), s_hi - s_lo, 1, fn.decl_line + 3, 7)
            for p in origin_params:
                self.die("inlined_param", p, _LOC_REG5)
            self.close()
        origin, origin_params = abstracts[(i + 2) % len(abstracts)]
        pairs = [(lo + a, lo + b) for a, b in INLINE_RANGES]
        self.die("inlined_ranges", origin, self.address(pairs[0][0]), *view,
                 self.range_list(pairs), 1, fn.decl_line + 4, 9)
        for p in origin_params:
            self.die("inlined_param", p, _LOC_REG5)
        self.close()
        for c in range(CALL_SITES_PER_FUNCTION):
            target, _params = abstracts[(i + c) % len(abstracts)]
            self.die("call_site", self.address(lo + 2 + c), target)
            for _ in range(2):
                self.die("call_param", _LOC_REG5, _CALL_VALUE)
            self.close()
        self.close()

    def _flush(self) -> None:
        owner = self.owner
        abbrev_offset = len(owner.abbrev)
        for kind, code in self.codes.items():
            tag, children, pairs = self.kinds[kind]
            owner.abbrev += uleb(code) + uleb(tag) + (b"\x01" if children else b"\x00")
            for attr, form in pairs:
                owner.abbrev += uleb(attr) + uleb(form)
            owner.abbrev += b"\x00\x00"
        owner.abbrev += b"\x00"

        if self.v5:
            header = _U16.pack(5) + b"\x01\x08" + _U32.pack(abbrev_offset)
        else:
            header = _U16.pack(4) + _U32.pack(abbrev_offset) + b"\x08"
        unit = header + self.body
        owner.info += _U32.pack(len(unit)) + unit
        if not self.v5:
            return

        owner.str_offsets += _U32.pack(4 + 4 * len(self.str_index)) + _U16.pack(5) + b"\x00\x00"
        for text in self.str_index:  # insertion order is index order
            owner.str_offsets += _U32.pack(owner.strings.add(text))
        owner.addr += _U32.pack(4 + 8 * len(self.addr_index)) + _U16.pack(5) + b"\x08\x00"
        for value in self.addr_index:
            owner.addr += _U64.pack(value)
        table = bytearray()
        lists = bytearray()
        for entry in self.rng_lists:
            table += _U32.pack(4 * len(self.rng_lists) + len(lists))
            lists += entry
        payload = _U16.pack(5) + b"\x08\x00" + _U32.pack(len(self.rng_lists)) + table + lists
        owner.rnglists += _U32.pack(len(payload)) + payload
