import dataclasses
import functools
import json
import struct
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator

from oracles import sleb_encode
from bintruth import dwarf, elf, forge, normalize
from bintruth.dwarf import (
    DebugFunctionRecord,
    extract_debug_functions,
    sleb_decode,
    uleb_decode,
)
from bintruth.forge import (
    BinarySpec,
    DwarfFuncSpec,
    FunctionSpec,
    SectionSpec,
    emit,
    uleb_encode,
)
from bintruth.interchange import GROUND_TRUTH_SCHEMA, document_to_json
from bintruth.model import (
    GT_DEBUG_OUTSIDE_EXEC,
    GT_DISCONTIGUOUS_RANGE,
    GT_INCOMPLETE_EXCLUDED,
    GT_MALFORMED_DEBUG_DATA,
    GT_NO_DEBUG_INFO,
    GT_SUBPROGRAM_NO_ADDRESS,
    BinaryImage,
    Diagnostic,
    SectionRecord,
    digest_binary,
)

# --- LEB128 ---------------------------------------------------------------


@pytest.mark.parametrize(
    ("value", "encoded"),
    [
        (0, b"\x00"),
        (127, b"\x7f"),
        (128, b"\x80\x01"),
        (624485, b"\xe5\x8e\x26"),
    ],
)
def test_uleb_known_vectors(value, encoded):
    assert uleb_encode(value) == encoded
    assert uleb_decode(encoded, 0) == (value, len(encoded))


@pytest.mark.parametrize(
    ("value", "encoded"),
    [
        (0, b"\x00"),
        (2, b"\x02"),
        (-2, b"\x7e"),
        (63, b"\x3f"),
        (-64, b"\x40"),
        (64, b"\xc0\x00"),
        (-65, b"\xbf\x7f"),
        (-123456, b"\xc0\xbb\x78"),
    ],
)
def test_sleb_known_vectors(value, encoded):
    assert sleb_encode(value) == encoded
    assert sleb_decode(encoded, 0) == (value, len(encoded))


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_uleb_round_trip(value):
    blob = uleb_encode(value)
    assert uleb_decode(blob + b"\xaa", 0) == (value, len(blob))


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_sleb_round_trip(value):
    blob = sleb_encode(value)
    assert sleb_decode(blob + b"\xaa", 0) == (value, len(blob))


def test_uleb_decode_rejects_truncation():
    with pytest.raises(dwarf.MalformedDebugDataError):
        uleb_decode(b"\x80", 0)


# --- high-pc resolution ----------------------------------------------------


def _forge_high_pc(form, low_pc, high_pc, word_size=32):
    """Extract a one-function binary whose low/high pc pair is overwritten."""
    spec = _single_fn_spec(DwarfFuncSpec(highpc_form=form), 4, word_size=word_size)
    raw = bytearray(emit(spec))
    info = next(s for s in elf.parse_image(bytes(raw)).sections if s.name == ".debug_info")
    blob = raw[info.file_offset : info.file_offset + info.size]
    addr = "I" if word_size == 32 else "Q"
    high = addr if form == "addr" else "I"
    layout = f"<{addr}{high}"  # low_pc addr, then high_pc
    forged_high = 0x401010 if form == "addr" else 16
    pair = struct.pack(layout, 0x401000, forged_high)
    assert blob.count(pair) == 1
    at = info.file_offset + blob.index(pair)
    struct.pack_into(layout, raw, at, low_pc, high_pc)
    return extract_debug_functions(elf.parse_image(bytes(raw)))


@pytest.mark.parametrize(
    ("form", "high_pc", "end"),
    [
        ("addr", 0x401040, 0x401040),
        ("data4", 0x40, 0x401040),
        ("data4", (1 << 32) - 0x401000, 1 << 32),
    ],
    ids=["address-verbatim", "constant-offset", "ends-at-ceiling"],
)
def test_high_pc_in_the_binary_resolves(form, high_pc, end):
    """An address-class high pc is the end; a constant one is an offset from
    low_pc, and may end exactly at the top of the address space."""
    records, diags = _forge_high_pc(form, 0x401000, high_pc)
    assert diags == []
    assert [(r.low_pc, r.end_exclusive) for r in records] == [(0x401000, end)]


def test_high_pc_past_the_ceiling_overflows():
    """One byte past the address ceiling is malformed debug data."""
    cases = [
        (32, 0x401000, (1 << 32) - 0x401000 + 1, "high pc 0x100000001 exceeds 32-bit"),
        (64, (1 << 64) - 8, 9, "high pc 0x10000000000000001 exceeds 64-bit"),
    ]
    for word_size, low_pc, high_pc, message in cases:
        records, diags = _forge_high_pc("data4", low_pc, high_pc, word_size)
        assert records == []
        (error,) = diags
        assert error.code == GT_MALFORMED_DEBUG_DATA
        assert message in error.message


def test_high_pc_overflow_in_the_binary_is_malformed_debug_data():
    records, diags = _forge_high_pc("data4", 0x401000, 0xFFFFFFF0)
    assert records == []
    (error,) = diags
    assert error.code == GT_MALFORMED_DEBUG_DATA
    assert error.severity == "error"
    assert "32-bit address space" in error.message


# --- encodings that must agree ---------------------------------------------


def test_address_and_constant_high_pc_yield_identical_records(preset_images):
    records, diags = extract_debug_functions(preset_images["highpc-twins"])
    assert len(records) == 2
    assert len(set(records)) == 1
    rec = records[0]
    assert rec.name == "twin_view"
    assert rec.low_pc == 0x401000
    assert rec.end_exclusive == 0x401000 + 24
    assert not diags


def _single_fn_spec(dwarf_spec: DwarfFuncSpec, version: int, word_size=64):
    text = SectionSpec(".text", 0x401000, executable=True)
    fn = FunctionSpec("solo", 0, forge._fixed_body(16), dwarf=(dwarf_spec,))
    return BinarySpec(
        sections=(text,),
        functions=(fn,),
        word_size=word_size,
        dwarf_versions=(version,),
        cu_names=("solo.c",),
    )


@pytest.mark.parametrize("version", [2, 3, 4, 5])
def test_all_supported_versions_parse(version):
    spec = _single_fn_spec(DwarfFuncSpec(decl_line=7), version)
    image = elf.parse_image(emit(spec))
    records, diags = extract_debug_functions(image)
    assert [d for d in diags if d.severity == "error"] == []
    (rec,) = records
    assert rec.name == "solo"
    assert rec.low_pc == 0x401000
    assert rec.end_exclusive == 0x401010
    assert rec.decl_file == "solo.c"
    assert rec.decl_line == 7


@pytest.mark.parametrize("version", [2, 3])
def test_constant_high_pc_needs_version_four(version):
    spec = _single_fn_spec(DwarfFuncSpec(highpc_form="data4"), version)
    with pytest.raises(forge.InvalidSpecError, match="version 4"):
        emit(spec)


@pytest.mark.parametrize("version", [3, 4, 5])
def test_range_lists_collapse_to_their_hull(version):
    ranges = ((0x401000, 0x401008), (0x40100C, 0x401010))
    spec = _single_fn_spec(DwarfFuncSpec(ranges=ranges), version)
    image = elf.parse_image(emit(spec))
    records, diags = extract_debug_functions(image)
    (rec,) = records
    assert rec.low_pc == 0x401000
    assert rec.end_exclusive == 0x401010
    hull = [d for d in diags if d.code == GT_DISCONTIGUOUS_RANGE]
    assert len(hull) == 1
    assert hull[0].severity == "warning"
    assert hull[0].span == (0x401000, 0x10)


def _assert_document_validates(image: BinaryImage) -> None:
    doc = normalize.build_ground_truth(image)
    payload = json.loads(document_to_json(doc))
    Draft202012Validator(GROUND_TRUTH_SCHEMA).validate(payload)


@pytest.mark.parametrize("version", [3, 4, 5])
def test_inverted_range_pair_is_malformed_debug_data(version):
    spec = _single_fn_spec(DwarfFuncSpec(ranges=((0x401008, 0x401000),)), version)
    image = elf.parse_image(emit(spec))
    records, diags = extract_debug_functions(image)
    assert records == []
    (error,) = diags  # no hull warning with a negative length
    assert error.code == GT_MALFORMED_DEBUG_DATA
    assert error.severity == "error"
    assert "ends before it starts" in error.message
    _assert_document_validates(image)


def test_unreadable_debug_info_makes_truth_incomplete():
    spec = _single_fn_spec(DwarfFuncSpec(ranges=((0x401008, 0x401000),)), 4)
    image = elf.parse_image(emit(spec))
    doc = normalize.build_ground_truth(image)
    assert not doc.complete
    assert [(d.severity, d.code) for d in doc.diagnostics[:2]] == [
        ("error", GT_MALFORMED_DEBUG_DATA),
        ("error", GT_INCOMPLETE_EXCLUDED),
    ]
    # The unreadable unit describes solo, so nothing shows it compiler-inserted.
    (solo,) = doc.functions
    assert "compiler_inserted" not in solo.flags


def _decl_line_image(form: int) -> BinaryImage:
    """A one-function image whose decl_line byte 0x7b is read as ``form``."""
    raw = bytearray(emit(_single_fn_spec(DwarfFuncSpec(decl_line=0x7B), 4)))
    abbrev = next(
        s for s in elf.parse_image(bytes(raw)).sections if s.name == ".debug_abbrev"
    )
    blob = raw[abbrev.file_offset : abbrev.file_offset + abbrev.size]
    pair = bytes([0x3B, 0x0F])  # DW_AT_decl_line, DW_FORM_udata
    assert blob.count(pair) == 1
    raw[abbrev.file_offset + blob.index(pair) + 1] = form
    return elf.parse_image(bytes(raw))


# sdata reads 0x7b as -5; flag reads it as True.
@pytest.mark.parametrize("form", [0x0D, 0x0C], ids=["sdata", "flag"])
def test_decl_line_that_is_negative_or_boolean_reads_as_zero(form):
    image = _decl_line_image(form)
    (rec,), _diags = extract_debug_functions(image)
    assert type(rec.decl_line) is int
    assert rec.decl_line == 0
    _assert_document_validates(image)


@pytest.mark.parametrize("via", ["specification", "abstract_origin"])
def test_name_resolves_through_reference_chains(via):
    spec = _single_fn_spec(DwarfFuncSpec(name_via=via), 4)
    image = elf.parse_image(emit(spec))
    records, diags = extract_debug_functions(image)
    # The declaration or abstract-instance DIE itself yields no record.
    assert len(records) == 1
    assert records[0].name == "solo"
    assert not any(d.code == GT_SUBPROGRAM_NO_ADDRESS for d in diags)


def test_parameter_children_do_not_change_the_record():
    params = (("argc", True), ("argv", True), ("unused", False))
    plain = elf.parse_image(emit(_single_fn_spec(DwarfFuncSpec(), 4)))
    with_params = elf.parse_image(emit(_single_fn_spec(DwarfFuncSpec(params=params), 4)))
    assert len(with_params.raw) > len(plain.raw)  # the parameter DIEs are there
    records, diags = extract_debug_functions(with_params)
    assert [r.name for r in records] == ["solo"]
    assert (records, diags) == extract_debug_functions(plain)


def test_noreturn_attribute_is_read():
    spec = _single_fn_spec(DwarfFuncSpec(noreturn=True), 4)
    image = elf.parse_image(emit(spec))
    records, _diags = extract_debug_functions(image)
    assert records[0].noreturn


def _inline_site_image(low: int, high: int) -> BinaryImage:
    text = SectionSpec(".text", 0x401000, executable=True)
    host = FunctionSpec("host", 0, forge._fixed_body(32), dwarf=(DwarfFuncSpec(),))
    tiny = FunctionSpec("tiny", 32, forge._fixed_body(8), dwarf=(DwarfFuncSpec(),))
    spec = BinarySpec(
        sections=(text,),
        functions=(host, tiny),
        inline_sites=(forge.InlineSiteSpec(host="host", origin="tiny", low=low, high=high),),
    )
    return elf.parse_image(emit(spec))


def test_inlined_copies_yield_no_record():
    records, diags = extract_debug_functions(_inline_site_image(0x401008, 0x401010))
    assert sorted((r.name, r.low_pc) for r in records) == [
        ("host", 0x401000),
        ("tiny", 0x401020),
    ]
    assert diags == []


def test_inlined_copies_outside_code_still_warn():
    records, diags = extract_debug_functions(_inline_site_image(0x900000, 0x900008))
    assert {r.name for r in records} == {"host", "tiny"}
    (warning,) = diags
    assert warning.code == GT_DEBUG_OUTSIDE_EXEC
    assert "tiny" in warning.message  # named through the origin link


def test_missing_debug_info_is_one_warning(preset_images):
    records, diags = extract_debug_functions(preset_images["scaffold"])
    assert records == []
    assert [d.code for d in diags] == [GT_NO_DEBUG_INFO]
    assert diags[0].severity == "warning"


def test_debug_record_outside_executable_sections_is_flagged():
    spec = _single_fn_spec(DwarfFuncSpec(), 4)
    data = emit(spec)
    image = elf.parse_image(data)
    # Re-point .text at a non-executable copy of itself.
    patched = tuple(
        SectionRecord(s.name, s.vaddr, s.size, False, s.allocated, s.file_offset)
        if s.name == ".text"
        else s
        for s in image.sections
    )
    import dataclasses

    moved = dataclasses.replace(image, sections=patched)
    records, diags = extract_debug_functions(moved)
    assert len(records) == 1  # still recorded, the flag is advisory
    assert any(d.code == GT_DEBUG_OUTSIDE_EXEC for d in diags)


# --- damage and duplication -------------------------------------------------


def _two_unit_image() -> BinaryImage:
    text = SectionSpec(".text", 0x401000, executable=True)
    first = FunctionSpec("first", 0, forge._fixed_body(16), dwarf=(DwarfFuncSpec(unit=0),))
    second = FunctionSpec(
        "second", 16, forge._fixed_body(16), dwarf=(DwarfFuncSpec(unit=1),)
    )
    spec = BinarySpec(
        sections=(text,),
        functions=(first, second),
        dwarf_versions=(4, 4),
        cu_names=("a.c", "b.c"),
    )
    return elf.parse_image(emit(spec))


def test_damage_in_a_later_unit_keeps_earlier_records():
    image = _two_unit_image()
    info = next(s for s in image.sections if s.name == ".debug_info")
    raw = bytearray(image.raw)
    first_len = struct.unpack_from("<I", raw, info.file_offset)[0]
    second_at = info.file_offset + 4 + first_len
    struct.pack_into("<H", raw, second_at + 4, 0xFF)  # absurd version
    damaged = elf.parse_image(bytes(raw))
    records, diags = extract_debug_functions(damaged)
    assert [r.name for r in records] == ["first"]
    errors = [d for d in diags if d.code == GT_MALFORMED_DEBUG_DATA]
    assert len(errors) == 1
    assert errors[0].severity == "error"


def _synthetic_image(
    sections_and_blobs: list[tuple[str, bytes]], endianness: str = "little"
) -> BinaryImage:
    """An image whose raw bytes are exactly the given named blobs."""
    text_size = 0x40
    raw = bytearray(b"\x90" * text_size)
    sections = [
        SectionRecord("", 0, 0, False, False, None),
        SectionRecord(".text", 0x401000, text_size, True, True, 0),
    ]
    for name, blob in sections_and_blobs:
        sections.append(
            SectionRecord(name, 0, len(blob), False, False, len(raw))
        )
        raw += blob
    return BinaryImage(
        source_path="synthetic",
        content_digest=digest_binary(bytes(raw)),
        word_size=64,
        endianness=endianness,
        machine="x86_64",
        machine_code=62,
        sections=tuple(sections),
        symbols=(),
        raw=bytes(raw),
    )


def _solo_debug_blobs() -> tuple[bytes, bytes]:
    spec = _single_fn_spec(DwarfFuncSpec(), 4)
    image = elf.parse_image(emit(spec))
    info = next(s for s in image.sections if s.name == ".debug_info")
    abbrev = next(s for s in image.sections if s.name == ".debug_abbrev")
    return (
        image.raw[info.file_offset : info.file_offset + info.size],
        image.raw[abbrev.file_offset : abbrev.file_offset + abbrev.size],
    )


def test_zero_padding_after_the_last_unit_is_tolerated():
    info, abbrev = _solo_debug_blobs()
    image = _synthetic_image(
        [(".debug_info", info + b"\x00" * 7), (".debug_abbrev", abbrev)]
    )
    records, diags = extract_debug_functions(image)
    assert [r.name for r in records] == ["solo"]
    assert [d for d in diags if d.severity == "error"] == []


def test_duplicated_debug_sections_pair_by_position():
    """Two .debug_info sections each read against their own .debug_abbrev."""
    info, abbrev = _solo_debug_blobs()
    once = _synthetic_image([(".debug_info", info), (".debug_abbrev", abbrev)])
    twice = _synthetic_image(
        [
            (".debug_info", info),
            (".debug_abbrev", abbrev),
            (".debug_info", info),
            (".debug_abbrev", abbrev),
        ]
    )
    records_once, _ = extract_debug_functions(once)
    records_twice, _ = extract_debug_functions(twice)
    assert len(records_twice) == 2 * len(records_once)
    assert set(records_twice) == set(records_once)


def test_records_hash_by_content():
    a = DebugFunctionRecord("f", 0x10, 0x20, "a.c", 3, False)
    b = DebugFunctionRecord("f", 0x10, 0x20, "a.c", 3, False)
    assert a == b
    assert len({a, b}) == 1


# --- hand-assembled units: skipped DIEs and lazy decoding --------------------

TAG_CU, TAG_SUBPROGRAM, TAG_VARIABLE, AT_SIBLING = 0x11, 0x2E, 0x34, 0x01
TAG_INLINED_SUBROUTINE = 0x1D
AT_LOCATION, AT_NAME, AT_LOW_PC, AT_HIGH_PC = 0x02, 0x03, 0x11, 0x12
AT_CONST_VALUE, AT_ABSTRACT_ORIGIN, AT_DECL_FILE, AT_DECL_LINE = 0x1C, 0x31, 0x3A, 0x3B
AT_SPECIFICATION, AT_TYPE, AT_RANGES, AT_STR_OFFSETS_BASE = 0x47, 0x49, 0x55, 0x72
FORM_ADDR, FORM_DATA2, FORM_DATA4, FORM_STRING, FORM_DATA1 = 0x01, 0x05, 0x06, 0x08, 0x0B
FORM_STRP, FORM_UDATA, FORM_REF4, FORM_INDIRECT = 0x0E, 0x0F, 0x13, 0x16
FORM_SEC_OFFSET, FORM_EXPRLOC, FORM_STRX1 = 0x17, 0x18, 0x25
AT_ADDR_BASE, FORM_SDATA, FORM_STRX3, FORM_ADDRX3 = 0x73, 0x0D, 0x27, 0x2B
FORM_RNGLISTX, AT_LINKAGE_NAME, FORM_STRP_SUP, FORM_BLOCK2 = 0x23, 0x6E, 0x1D, 0x03
FORM_REF_ADDR = 0x10

# Codes 1-3 are decoded tags, 4-8 are variables the walk steps over.
ABBREVS = {
    1: (TAG_CU, [(AT_NAME, FORM_STRING), (AT_STR_OFFSETS_BASE, FORM_SEC_OFFSET)]),
    2: (
        TAG_SUBPROGRAM,
        [(AT_SPECIFICATION, FORM_REF4), (AT_LOW_PC, FORM_ADDR), (AT_HIGH_PC, FORM_DATA4)],
    ),
    3: (
        TAG_SUBPROGRAM,
        [(AT_ABSTRACT_ORIGIN, FORM_REF4), (AT_LOW_PC, FORM_ADDR), (AT_HIGH_PC, FORM_DATA4)],
    ),
    4: (  # skip plan: 5 fixed bytes, LEB, 6 fixed bytes, LEB-length block
        TAG_VARIABLE,
        [
            (AT_NAME, FORM_STRP),
            (AT_DECL_FILE, FORM_DATA1),
            (AT_DECL_LINE, FORM_UDATA),
            (AT_TYPE, FORM_REF4),
            (AT_CONST_VALUE, FORM_DATA2),
            (AT_LOCATION, FORM_EXPRLOC),
        ],
    ),
    5: (TAG_VARIABLE, [(AT_NAME, FORM_STRX1)]),
    6: (TAG_VARIABLE, [(AT_NAME, FORM_STRING)]),
    7: (TAG_VARIABLE, [(AT_NAME, FORM_INDIRECT)]),
    8: (TAG_VARIABLE, [(AT_SPECIFICATION, FORM_REF4)]),
    9: (TAG_VARIABLE, [(AT_NAME, 0x7F)]),  # no such form
    # Offsets in forms that cannot hold one.
    10: (TAG_SUBPROGRAM, [(AT_NAME, FORM_STRING), (AT_RANGES, FORM_STRING)]),
    11: (TAG_CU, [(AT_STR_OFFSETS_BASE, FORM_STRING)]),
    # Three-byte indexes, and the unit bases they index from.
    12: (TAG_CU, [(AT_STR_OFFSETS_BASE, FORM_SEC_OFFSET), (AT_ADDR_BASE, FORM_SEC_OFFSET)]),
    13: (
        TAG_SUBPROGRAM,
        [(AT_NAME, FORM_STRX3), (AT_LOW_PC, FORM_ADDR), (AT_HIGH_PC, FORM_DATA4)],
    ),
    14: (
        TAG_SUBPROGRAM,
        [(AT_NAME, FORM_STRING), (AT_LOW_PC, FORM_ADDRX3), (AT_HIGH_PC, FORM_DATA4)],
    ),
    # Offsets that sdata makes negative.
    15: (TAG_CU, [(AT_STR_OFFSETS_BASE, FORM_SDATA)]),
    16: (TAG_SUBPROGRAM, [(AT_NAME, FORM_STRING), (AT_RANGES, FORM_SDATA)]),
    # A range list named by its index in the unit's offset table.
    17: (TAG_SUBPROGRAM, [(AT_NAME, FORM_STRING), (AT_RANGES, FORM_RNGLISTX)]),
    # Subprograms with a .debug_str offset in an unread and in a read attribute.
    18: (
        TAG_SUBPROGRAM,
        [
            (AT_NAME, FORM_STRING),
            (AT_LINKAGE_NAME, FORM_STRP),
            (AT_LOW_PC, FORM_ADDR),
            (AT_HIGH_PC, FORM_DATA4),
        ],
    ),
    19: (TAG_SUBPROGRAM, [(AT_NAME, FORM_STRP), (AT_LOW_PC, FORM_ADDR), (AT_HIGH_PC, FORM_DATA4)]),
    # A name in a supplementary file's string table.
    20: (TAG_SUBPROGRAM, [(AT_NAME, FORM_STRP_SUP), (AT_LOW_PC, FORM_ADDR), (AT_HIGH_PC, FORM_DATA4)]),
    # Its decode plan: a struct of decl_file, 4 pad bytes and low_pc; a read LEB;
    # a struct of high_pc; a skipped exprloc; 4 bytes stepped over.
    21: (
        TAG_SUBPROGRAM,
        [
            (AT_DECL_FILE, FORM_DATA1),
            (AT_TYPE, FORM_REF4),
            (AT_LOW_PC, FORM_ADDR),
            (AT_DECL_LINE, FORM_UDATA),
            (AT_HIGH_PC, FORM_DATA4),
            (AT_LOCATION, FORM_EXPRLOC),
            (AT_SIBLING, FORM_REF4),
        ],
    ),
    22: (TAG_VARIABLE, [(AT_LOCATION, FORM_EXPRLOC), (AT_CONST_VALUE, FORM_BLOCK2)]),
    # The same attribute twice: the last one counts.
    23: (
        TAG_SUBPROGRAM,
        [
            (AT_NAME, FORM_STRING),
            (AT_LOW_PC, FORM_ADDR),
            (AT_HIGH_PC, FORM_DATA4),
            (AT_NAME, FORM_STRING),
        ],
    ),
    # An inlined copy named straight from .debug_str.
    24: (
        TAG_INLINED_SUBROUTINE,
        [(AT_NAME, FORM_STRP), (AT_LOW_PC, FORM_ADDR), (AT_HIGH_PC, FORM_DATA4)],
    ),
    # A range list named by its .debug_rnglists offset.
    25: (TAG_SUBPROGRAM, [(AT_NAME, FORM_STRING), (AT_RANGES, FORM_SEC_OFFSET)]),
    # A specification link by offset in the whole .debug_info.
    26: (
        TAG_SUBPROGRAM,
        [(AT_SPECIFICATION, FORM_REF_ADDR), (AT_LOW_PC, FORM_ADDR), (AT_HIGH_PC, FORM_DATA4)],
    ),
}
DEBUG_STR = b"\x00target\x00"  # "target" at offset 1
# A DWARF 5 offsets table: 8-byte header, then entry 0 -> "target".
STR_OFFSETS = struct.pack("<IHHI", 8, 5, 0, 1)


def _abbrev_blob() -> bytes:
    out = b""
    for code, (tag, pairs) in ABBREVS.items():
        out += uleb_encode(code) + uleb_encode(tag) + b"\x00"
        for attr, form in pairs:
            out += uleb_encode(attr) + uleb_encode(form)
        out += b"\x00\x00"
    return out + b"\x00"


def _ref(value: int) -> bytes:
    return struct.pack("<I", value)


def _die(code: int, *values: bytes) -> bytes:
    return uleb_encode(code) + b"".join(values)


def _subprogram(code: int, target: int) -> bytes:
    """A subprogram at 0x401000 of 16 bytes linked to the DIE at ``target``."""
    return _die(code, _ref(target), struct.pack("<QI", 0x401000, 16))


CU_DIE = _die(1, b"t.c\x00", _ref(8))
_VARIABLE_TAIL = b"\x01" + uleb_encode(300) + _ref(0) + b"\x07\x00" + b"\x02\x91\x6c"
NAMED = {  # a skipped DIE named "target" in each of four ways
    "strp": _die(4, _ref(1), _VARIABLE_TAIL),
    "strx1": _die(5, b"\x00"),
    "string": _die(6, b"target\x00"),
    "indirect": _die(7, uleb_encode(FORM_STRING), b"target\x00"),
}
BAD_STRP = _die(4, _ref(0x9999), _VARIABLE_TAIL)


def _offset(dies: list[bytes], index: int, version: int = 4) -> int:
    """Offset of ``dies[index]``: unit length, then a 7-byte (v4) or 8-byte header."""
    return 4 + (7 if version == 4 else 8) + sum(len(d) for d in dies[:index])


def _unit(dies: list[bytes], version: int = 4, terminate: bool = True) -> bytes:
    if version == 4:
        header = struct.pack("<HIB", 4, 0, 8)
    else:
        header = struct.pack("<HBBI", 5, 1, 8, 0)
    body = header + b"".join(dies) + (b"\x00" if terminate else b"")
    return struct.pack("<I", len(body)) + body


def _unit_image(dies: list[bytes], version: int = 4, terminate: bool = True) -> BinaryImage:
    return _info_image(_unit(dies, version, terminate))


def _info_image(info: bytes) -> BinaryImage:
    return _synthetic_image(
        [
            (".debug_info", info),
            (".debug_abbrev", _abbrev_blob()),
            (".debug_str", DEBUG_STR),
            (".debug_str_offsets", STR_OFFSETS),
        ]
    )


def _only_error(diags: list[Diagnostic]) -> str:
    (error,) = diags
    assert error.code == GT_MALFORMED_DEBUG_DATA
    assert error.severity == "error"
    return error.message


@pytest.mark.parametrize("form", sorted(NAMED))
def test_specification_into_a_skipped_die_takes_its_name(form):
    version = 5 if form == "strx1" else 4
    dies = [CU_DIE, NAMED[form]]
    dies.append(_subprogram(2, _offset(dies, 1, version)))
    records, diags = extract_debug_functions(_unit_image(dies, version))
    assert diags == []
    (rec,) = records
    assert (rec.name, rec.low_pc, rec.end_exclusive) == ("target", 0x401000, 0x401010)
    # The other attributes are inherited as well.
    assert (rec.decl_file, rec.decl_line) == (("t.c", 300) if form == "strp" else ("", 0))


def test_abstract_origin_chain_through_skipped_dies_resolves():
    dies = [CU_DIE, NAMED["strp"]]
    dies.append(_die(8, _ref(_offset(dies, 1))))  # skipped, specification -> named
    dies.append(_subprogram(3, _offset(dies, 2)))  # abstract_origin -> the link
    records, diags = extract_debug_functions(_unit_image(dies))
    assert diags == []
    assert [r.name for r in records] == ["target"]


@pytest.mark.parametrize("delta", [1, 5, 0x900])
def test_reference_where_no_die_starts_names_nothing(delta):
    dies = [CU_DIE, NAMED["string"]]
    dies.append(_subprogram(2, _offset(dies, 1) + delta))  # mid-DIE or past the unit
    records, diags = extract_debug_functions(_unit_image(dies))
    assert diags == []
    assert [(r.name, r.low_pc) for r in records] == [("", 0x401000)]


def test_damage_in_an_unread_skipped_die_keeps_the_unit():
    # A string offset is followed only when its attribute is read, and
    # nothing reads the skipped variable's name: the unit's record survives.
    dies = [CU_DIE, BAD_STRP, NAMED["string"]]
    dies.append(_subprogram(2, _offset(dies, 2)))
    records, diags = extract_debug_functions(_unit_image(dies))
    assert diags == []
    assert [r.name for r in records] == ["target"]


_IN_TEXT = struct.pack("<QI", 0x401000, 16)  # low_pc, then a 16-byte high_pc


def test_damage_in_an_unread_attribute_keeps_the_record():
    dies = [CU_DIE, _die(18, b"f\x00", _ref(0x9999), _IN_TEXT)]  # the linkage name
    records, diags = extract_debug_functions(_unit_image(dies))
    assert diags == []
    assert [(r.name, r.low_pc) for r in records] == [("f", 0x401000)]


def test_damage_in_a_read_attribute_is_malformed():
    records, diags = extract_debug_functions(
        _unit_image([CU_DIE, _die(19, _ref(0x9999), _IN_TEXT)])
    )
    assert records == []
    assert _only_error(diags) == (
        "debug info unreadable from the unit at offset 0x0: "
        ".debug_str offset 0x9999 out of range"
    )


@pytest.mark.parametrize("low", [0x401004, 0x900000], ids=["in_text", "outside"])
def test_an_inlined_copy_is_named_only_when_a_diagnostic_prints_it(low):
    """Inside code an inlined copy yields nothing, so its bad name is never read."""
    inlined = _die(24, _ref(0x9999), struct.pack("<QI", low, 4))
    dies = [CU_DIE, _die(19, _ref(1), _IN_TEXT), inlined]
    records, diags = extract_debug_functions(_unit_image(dies))
    if low == 0x401004:
        assert diags == []
        assert [(r.name, r.low_pc) for r in records] == [("target", 0x401000)]
    else:  # GT_DEBUG_OUTSIDE_EXEC would print the name
        assert records == []
        assert _only_error(diags).endswith(".debug_str offset 0x9999 out of range")


def test_a_supplementary_string_names_nothing():
    """strp_sup points into a supplementary file, not at a string index."""
    dies = [CU_DIE, _die(20, _ref(0), _IN_TEXT)]
    records, diags = extract_debug_functions(_unit_image(dies, version=5))
    assert diags == []
    assert [(r.name, r.low_pc) for r in records] == [("", 0x401000)]


def test_a_damaged_unit_is_named_and_leaves_no_diagnostics():
    first = _unit([CU_DIE, _die(18, b"first\x00", _ref(1), _IN_TEXT)])
    # A subprogram outside executable code warns, then a bad name fails the unit.
    far = _die(18, b"far\x00", _ref(1), struct.pack("<QI", 0x900000, 16))
    second = _unit([CU_DIE, far, _die(19, _ref(0x9999), _IN_TEXT)])
    records, diags = extract_debug_functions(_info_image(first + second + first))
    # The walk found where the damaged unit ends, so the third is read too.
    assert [r.name for r in records] == ["first", "first"]
    assert _only_error(diags).startswith(
        f"debug info unreadable from the unit at offset {len(first):#x}: "
    )


def test_a_ref_addr_link_in_a_later_unit_takes_its_name():
    """ref_addr offsets count from the start of .debug_info, not of the unit."""
    first = _unit([CU_DIE])
    dies = [CU_DIE, NAMED["string"]]
    dies.append(_subprogram(26, len(first) + _offset(dies, 1)))
    records, diags = extract_debug_functions(_info_image(first + _unit(dies)))
    assert diags == []
    assert [(r.name, r.low_pc) for r in records] == [("target", 0x401000)]


def test_damage_in_a_referenced_skipped_die_is_malformed():
    dies = [CU_DIE, BAD_STRP]
    dies.append(_subprogram(2, _offset(dies, 1)))
    records, diags = extract_debug_functions(_unit_image(dies))
    assert records == []
    assert ".debug_str offset 0x9999 out of range" in _only_error(diags)


# NAMED["strp"] is code(1) strp(4) data1(1) udata 300 (2) ref4(4) data2(2)
# exprloc length(1) data(2); the cuts land in every step of its skip plan.
_CUTS = [(1, "fixed-width read"), (5, "fixed-width read"), (6, "uleb128")]
_CUTS += [(7, "uleb128"), (8, "fixed-width read"), (13, "fixed-width read")]
_CUTS += [(14, "uleb128"), (15, "block read"), (16, "block read")]


@pytest.mark.parametrize(("kept", "message"), _CUTS)
def test_skipped_die_cut_at_the_section_end_is_malformed(kept, message):
    dies = [CU_DIE, NAMED["strp"][:kept]]
    records, diags = extract_debug_functions(_unit_image(dies, terminate=False))
    assert records == []
    assert message in _only_error(diags)


# A decoded DIE of code 21: code(1) data1(1) ref4(4) addr(8) udata 300 (2)
# data4(4) exprloc length(1) data(2) ref4(4); the cuts land in every step
# of its decode plan.
DECODED = _die(21, b"\x01", _ref(0), struct.pack("<Q", 0x401000), uleb_encode(300))
DECODED += struct.pack("<I", 16) + b"\x02\x91\x6c" + _ref(0)
_DECODED_CUTS = [(1, "fixed-width read"), (2, "fixed-width read")]  # the first struct
_DECODED_CUTS += [(9, "fixed-width read"), (14, "uleb128"), (15, "uleb128")]
_DECODED_CUTS += [(16, "fixed-width read"), (18, "fixed-width read")]
_DECODED_CUTS += [(20, "uleb128"), (21, "block read"), (22, "block read")]
_DECODED_CUTS += [(23, "fixed-width read"), (26, "fixed-width read")]


def test_decoded_die_reads_whole():
    records, diags = extract_debug_functions(_unit_image([CU_DIE, DECODED]))
    assert diags == []
    assert [(r.low_pc, r.end_exclusive, r.decl_file, r.decl_line) for r in records] == [
        (0x401000, 0x401010, "t.c", 300)
    ]


@pytest.mark.parametrize(("kept", "message"), _DECODED_CUTS)
def test_decoded_die_cut_at_the_section_end_is_malformed(kept, message):
    dies = [CU_DIE, DECODED[:kept]]
    records, diags = extract_debug_functions(_unit_image(dies, terminate=False))
    assert records == []
    assert message in _only_error(diags)


@pytest.mark.parametrize(
    "die",
    [
        _die(22, uleb_encode(2**64), b"\x00\x00"),
        DECODED[:20] + uleb_encode(2**64) + _ref(0),
    ],
    ids=["skipped", "decoded"],
)
def test_a_block_longer_than_any_section_is_malformed(die):
    records, diags = extract_debug_functions(_unit_image([CU_DIE, die]))
    assert records == []
    assert "block read past end of unit" in _only_error(diags)


def test_an_attribute_given_twice_reads_its_last_value():
    dies = [CU_DIE, _die(23, b"first\x00", _IN_TEXT, b"last\x00")]
    image = _unit_image(dies)
    with mock.patch.object(dwarf, "_compile_plan", lambda *args: None):
        full = extract_debug_functions(image)
    assert extract_debug_functions(image) == full
    assert [r.name for r in full[0]] == ["last"]


def test_skipped_string_cut_at_the_section_end_is_malformed():
    dies = [CU_DIE, NAMED["string"][:4]]
    _records, diags = extract_debug_functions(_unit_image(dies, terminate=False))
    assert "unterminated string" in _only_error(diags)


@pytest.mark.parametrize(
    ("die", "message"),
    [(_die(9, b"x"), "unknown form 0x7f"), (_die(42), "abbrev code 42 not in table")],
)
def test_unreadable_skipped_die_is_malformed(die, message):
    records, diags = extract_debug_functions(_unit_image([CU_DIE, die]))
    assert records == []
    assert message in _only_error(diags)


@pytest.mark.parametrize(
    "dies",
    [[CU_DIE, _die(10, b"f\x00", b"0x40\x00")], [_die(11, b"8\x00"), NAMED["strx1"]]],
    ids=["ranges", "str_offsets_base"],
)
def test_offset_in_a_string_form_is_malformed(dies):
    records, diags = extract_debug_functions(_unit_image(dies, 5))
    assert records == []
    assert "is not an offset" in _only_error(diags)


@pytest.mark.parametrize(
    ("dies", "what"),
    [
        ([CU_DIE, _die(16, b"f\x00", sleb_encode(-100))], "ranges"),
        (
            [
                _die(15, sleb_encode(-4)),
                _die(13, b"\x00\x00\x00", struct.pack("<QI", 0x401000, 16)),
            ],
            "str_offsets_base",
        ),
    ],
    ids=["ranges", "str_offsets_base"],
)
def test_negative_offset_is_malformed(dies, what):
    records, diags = extract_debug_functions(_unit_image(dies, 5))
    assert records == []
    assert f"{what} is not an offset" in _only_error(diags)


def _indexed_unit_image(
    subprogram: bytes, order: str = "little", rnglists: bytes = b""
) -> BinaryImage:
    """A DWARF 5 unit whose string and address tables hold entries 0 and 1
    (address 0 is 0x401020, address 1 is 0x401000)."""
    e = "<" if order == "little" else ">"
    cu = _die(12, struct.pack(e + "II", 8, 8))  # str_offsets_base, addr_base
    body = struct.pack(e + "HBBI", 5, 1, 8, 0) + cu + subprogram + b"\x00"
    return _synthetic_image(
        [
            (".debug_info", struct.pack(e + "I", len(body)) + body),
            (".debug_abbrev", _abbrev_blob()),
            (".debug_str", b"\x00nope\x00func\x00"),
            # Each table: an 8-byte header, then entries 0 and 1.
            (".debug_str_offsets", struct.pack(e + "IHHII", 12, 5, 0, 1, 6)),
            (".debug_addr", struct.pack(e + "IHBBQQ", 20, 5, 8, 0, 0x401020, 0x401000)),
            (".debug_rnglists", rnglists),
        ],
        endianness=order,
    )


@pytest.mark.parametrize(
    ("subprogram", "message"),
    [
        (
            _die(13, b"\x02\x00\x00", struct.pack("<QI", 0x401000, 16)),
            ".debug_str_offsets index 2 out of range",
        ),
        (
            _die(14, b"f\x00", b"\x02\x00\x00", struct.pack("<I", 16)),
            ".debug_addr index 2 out of range",
        ),
        (_die(17, b"f\x00", b"\x00"), "rnglistx index out of range"),
    ],
    ids=["strx", "addrx", "rnglistx"],
)
def test_index_past_its_table_is_malformed(subprogram, message):
    records, diags = extract_debug_functions(_indexed_unit_image(subprogram))
    assert records == []
    assert _only_error(diags).endswith(f": {message}")


@pytest.mark.parametrize("order", ["little", "big"])
@pytest.mark.parametrize("form", ["strx3", "addrx3"])
def test_three_byte_indexes_read_in_the_units_byte_order(form, order):
    e = "<" if order == "little" else ">"
    index_1 = (1).to_bytes(3, order)
    if form == "strx3":
        subprogram = _die(13, index_1, struct.pack(e + "QI", 0x401000, 16))
    else:
        subprogram = _die(14, b"func\x00", index_1, struct.pack(e + "I", 16))
    records, diags = extract_debug_functions(_indexed_unit_image(subprogram, order))
    assert diags == []
    assert [(r.name, r.low_pc, r.end_exclusive) for r in records] == [
        ("func", 0x401000, 0x401010)
    ]


# DWARF 5 range-list entries (§2.17.3) and the (low, high) pairs they give;
# the unit has no low_pc, so its base address starts at 0.
_RLE_LISTS = {
    "base_addressx": (
        b"\x01\x00" + b"\x04\x00\x08" + b"\x01\x01" + b"\x04\x00\x04",
        [(0x401020, 0x401028), (0x401000, 0x401004)],
    ),
    "startx_endx": (b"\x02\x01\x00", [(0x401000, 0x401020)]),
    "startx_length": (b"\x03\x00\x10", [(0x401020, 0x401030)]),
    "offset_pair": (
        b"\x04" + uleb_encode(0x401004) + uleb_encode(0x401008),
        [(0x401004, 0x401008)],
    ),
    "base_address": (
        b"\x05" + struct.pack("<Q", 0x401010) + b"\x04\x00\x04" + b"\x04\x08\x0c",
        [(0x401010, 0x401014), (0x401018, 0x40101C)],
    ),
    "start_length": (b"\x07" + struct.pack("<Q", 0x401008) + b"\x08", [(0x401008, 0x401010)]),
    "unknown_kind": (b"\x08", None),
}


@pytest.mark.parametrize("form", ["sec_offset", "rnglistx"])
@pytest.mark.parametrize("kind", sorted(_RLE_LISTS))
def test_range_list_entries_decode(kind, form):
    entries, pairs = _RLE_LISTS[kind]
    # A 12-byte header, an offset table of one entry, then the list at 16.
    body = struct.pack("<HBBII", 5, 8, 0, 1, 4) + entries + b"\x00"
    rnglists = struct.pack("<I", len(body)) + body
    if form == "sec_offset":
        subprogram = _die(25, b"f\x00", _ref(16))
    else:  # index 0 of the table at the default rnglists_base, 12
        subprogram = _die(17, b"f\x00", b"\x00")
    image = _indexed_unit_image(subprogram, rnglists=rnglists)
    records, diags = extract_debug_functions(image)
    if pairs is None:
        assert records == []
        assert _only_error(diags).endswith(": range list entry kind 0x8")
        return
    low, high = min(lo for lo, _ in pairs), max(hi for _, hi in pairs)
    assert [(r.name, r.low_pc, r.end_exclusive) for r in records] == [("f", low, high)]
    (diag,) = diags
    assert diag.code == GT_DISCONTIGUOUS_RANGE
    assert f"spans {len(pairs)} ranges" in diag.message
    assert diag.span == (low, high - low)


@functools.cache
def _fuzz_base(version: int) -> tuple[BinaryImage, dict[str, tuple[int, int]]]:
    """A forged image whose DWARF has skipped DIEs, links, ranges and an inline site."""
    text = SectionSpec(".text", 0x401000, executable=True)
    functions = (
        FunctionSpec(
            "host",
            0,
            forge._fixed_body(32),
            dwarf=(DwarfFuncSpec(noreturn=True, params=(("argc", True), ("argv", False))),),
        ),
        FunctionSpec(
            "tiny",
            32,
            forge._fixed_body(16),
            dwarf=(DwarfFuncSpec(name_via="specification", decl_line=300),),
        ),
        FunctionSpec(
            "split",
            48,
            forge._fixed_body(16),
            dwarf=(
                DwarfFuncSpec(
                    name_via="abstract_origin",
                    ranges=((0x401030, 0x401038), (0x40103C, 0x401040)),
                ),
            ),
        ),
    )
    spec = BinarySpec(
        sections=(text,),
        functions=functions,
        inline_sites=(forge.InlineSiteSpec("host", "tiny", 0x401008, 0x401010),),
        word_size=64,
        dwarf_versions=(version,),
        cu_names=("fuzz.c",),
    )
    image = elf.parse_image(emit(spec))
    spans = {s.name: (s.file_offset, s.size) for s in image.sections}
    return image, spans


@pytest.mark.parametrize("version", [4, 5])
def test_fuzz_base_images_read_cleanly(version):
    image, _spans = _fuzz_base(version)
    records, diags = extract_debug_functions(image)
    assert sorted(r.name for r in records) == ["host", "split", "tiny"]
    assert [d.code for d in diags] == [GT_DISCONTIGUOUS_RANGE]


_FLIPS = dict(
    version=st.sampled_from([4, 5]),
    section=st.sampled_from([".debug_info", ".debug_abbrev"]),
    flips=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)),
        min_size=1,
        max_size=4,
    ),
)


def _flipped(version: int, section: str, flips) -> BinaryImage:
    image, spans = _fuzz_base(version)
    offset, size = spans[section]
    raw = bytearray(image.raw)
    for at, mask in flips:
        raw[offset + at % size] ^= mask
    return dataclasses.replace(image, raw=bytes(raw))


@settings(max_examples=400)
@given(**_FLIPS)
def test_flipped_debug_bytes_yield_only_records_and_diagnostics(version, section, flips):
    records, diags = extract_debug_functions(_flipped(version, section, flips))
    assert all(isinstance(r, DebugFunctionRecord) for r in records)
    assert all(isinstance(d, Diagnostic) for d in diags)


@settings(max_examples=400)
@given(**_FLIPS)
def test_plans_read_what_the_full_decoder_reads(version, section, flips):
    """With no plan, every DIE goes through the full decoder; the records
    and diagnostics, error messages included, must not change."""
    image = _flipped(version, section, flips)
    planned = extract_debug_functions(image)
    with mock.patch.object(dwarf, "_compile_plan", lambda *args: None):
        full = extract_debug_functions(image)
    assert planned == full


def test_the_read_set_is_every_attribute_the_reader_names():
    """A lookup of an attribute left out of the read set would find it
    missing from every planned DIE."""
    named = {value for name, value in vars(dwarf).items() if name.startswith("DW_AT_")}
    assert len(named) == 14
    assert dwarf._READ_ATTRS == named
