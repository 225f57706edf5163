import dataclasses
import functools
import json
import struct
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator

import corpuscheck
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
    GT_BAD_LINE_TABLE,
    GT_DEBUG_OUTSIDE_EXEC,
    GT_DISCONTIGUOUS_RANGE,
    GT_INCOMPLETE_EXCLUDED,
    GT_LINKER_DISCARDED,
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
def test_a_range_list_record_takes_the_range_at_its_entry(version):
    """Without entry_pc or low_pc the first range is the entry's; the
    record keeps the others. The reader does not warn; matching does,
    over the hull, because the other range starts at no function."""
    ranges = ((0x401000, 0x401008), (0x40100C, 0x401010))
    spec = _single_fn_spec(DwarfFuncSpec(ranges=ranges), version)
    evidence = normalize.read_evidence(elf.parse_image(emit(spec)))
    (rec,) = evidence.debug_records
    assert rec.low_pc == 0x401000
    assert rec.end_exclusive == 0x401008
    assert rec.other_ranges == ((0x40100C, 0x401010),)
    assert evidence.diagnostics == ()
    doc = normalize.build_ground_truth(evidence)
    (warning,) = [d for d in doc.diagnostics if d.code == GT_DISCONTIGUOUS_RANGE]
    assert warning.severity == "warning"
    assert warning.span == (0x401000, 0x10)
    assert warning.message == (
        "debug info splits 'solo' at 0x401000 into 2 ranges, and no function starts at 1 of them"
    )


@pytest.mark.parametrize("version", [3, 4, 5])
def test_a_cold_range_below_the_entry_is_another_range(version):
    """gcc lists a split function's hot range first and its cold part,
    which lies below, second: the entry is the hot range, not the hull low."""
    ranges = ((0x401008, 0x401010), (0x401000, 0x401004))
    spec = _single_fn_spec(DwarfFuncSpec(ranges=ranges), version)
    records, diags = extract_debug_functions(elf.parse_image(emit(spec)))
    assert [(r.low_pc, r.end_exclusive, r.other_ranges) for r in records] == [
        (0x401008, 0x401010, ((0x401000, 0x401004),))
    ]
    assert diags == []


def _assert_document_validates(evidence: normalize.Evidence) -> None:
    doc = normalize.build_ground_truth(evidence)
    payload = json.loads(document_to_json(doc))
    Draft202012Validator(GROUND_TRUTH_SCHEMA).validate(payload)


@pytest.mark.parametrize("version", [3, 4, 5])
def test_inverted_range_pair_is_malformed_debug_data(version):
    spec = _single_fn_spec(DwarfFuncSpec(ranges=((0x401008, 0x401000),)), version)
    evidence = normalize.read_evidence(elf.parse_image(emit(spec)))
    assert evidence.debug_records == ()
    (error,) = evidence.diagnostics  # no hull warning with a negative length
    assert error.code == GT_MALFORMED_DEBUG_DATA
    assert error.severity == "error"
    assert "ends before it starts" in error.message
    _assert_document_validates(evidence)


def test_unreadable_debug_info_makes_truth_incomplete():
    spec = _single_fn_spec(DwarfFuncSpec(ranges=((0x401008, 0x401000),)), 4)
    image = elf.parse_image(emit(spec))
    doc = normalize.build_ground_truth(normalize.read_evidence(image))
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
    evidence = normalize.read_evidence(_decl_line_image(form))
    (rec,) = evidence.debug_records
    assert type(rec.decl_line) is int
    assert rec.decl_line == 0
    _assert_document_validates(evidence)


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


@pytest.mark.parametrize("version", [3, 4, 5])
def test_an_inlined_copy_with_a_range_list_warns_with_its_hull(version):
    text = SectionSpec(".text", 0x401000, executable=True)
    host = FunctionSpec("host", 0, forge._fixed_body(32), dwarf=(DwarfFuncSpec(),))
    tiny = FunctionSpec("tiny", 32, forge._fixed_body(8), dwarf=(DwarfFuncSpec(),))
    site = forge.InlineSiteSpec(
        "host", "tiny", 0, 0, ranges=((0x401010, 0x401018), (0x401004, 0x401008))
    )
    spec = BinarySpec(
        sections=(text,), functions=(host, tiny), inline_sites=(site,), dwarf_versions=(version,)
    )
    records, diags = extract_debug_functions(elf.parse_image(emit(spec)))
    assert sorted(r.name for r in records) == ["host", "tiny"]
    assert [(d.code, d.message, d.span) for d in diags] == [
        (GT_DISCONTIGUOUS_RANGE, "tiny at 0x401004 spans 2 ranges; using the hull", (0x401004, 20))
    ]


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


# --- linker tombstones -------------------------------------------------------


def _tombstone_image(
    low_pc: int, word_size: int = 64, inline_low: int | None = None, **dwarf
) -> BinaryImage:
    """``kept`` has code and a symbol. A linker discarded ``dead`` and
    ``unused``: their subprograms sit at ``low_pc`` and, when ``inline_low``
    is given, the copy of ``unused`` inlined into ``dead`` at that address."""
    gone = DwarfFuncSpec(low_pc=low_pc, **dwarf)
    spec = BinarySpec(
        sections=(SectionSpec(".text", 0x401000, executable=True),),
        functions=(
            FunctionSpec("kept", 0, forge._fixed_body(16), dwarf=(DwarfFuncSpec(),)),
            FunctionSpec(
                "dead", 16, forge._fixed_body(16), emit_symbol=False, dwarf=(gone,)
            ),
            FunctionSpec(
                "unused", 32, forge._fixed_body(8), emit_symbol=False, dwarf=(gone,)
            ),
        ),
        inline_sites=()
        if inline_low is None
        else (forge.InlineSiteSpec("dead", "unused", inline_low, inline_low + 8),),
        word_size=word_size,
        cu_names=("b.c",),
    )
    return elf.parse_image(emit(spec))


@pytest.mark.parametrize(
    ("image", "count"),
    [
        (lambda: _tombstone_image(0, inline_low=0), 3),  # GNU ld and gold
        (lambda: _tombstone_image(2**64 - 1, highpc_form="data4"), 2),  # LLD
        (lambda: _tombstone_image(2**32 - 1, 32, highpc_form="data4"), 2),
    ],
    ids=["zero", "all-ones-64", "all-ones-32"],
)
def test_linker_discarded_functions_are_counted_not_recorded(image, count):
    evidence = normalize.read_evidence(image())
    assert [(r.name, r.low_pc) for r in evidence.debug_records] == [("kept", 0x401000)]
    assert [(d.severity, d.code, d.message) for d in evidence.diagnostics] == [
        (
            "info",
            GT_LINKER_DISCARDED,
            f"{count} subprogram(s) or inlined copies of b.c (the unit at offset "
            "0x0) sit at 0 or all-ones outside every executable section, where a "
            "linker puts code it discarded; skipped",
        )
    ]
    doc = normalize.build_ground_truth(evidence)
    assert doc.complete
    assert [f.canonical_name for f in doc.functions] == ["kept"]


def test_address_zero_inside_code_is_a_function():
    spec = BinarySpec(
        sections=(SectionSpec(".text", 0, executable=True),),
        functions=(
            FunctionSpec("at_zero", 0, forge._fixed_body(16), dwarf=(DwarfFuncSpec(),)),
        ),
    )
    records, diags = extract_debug_functions(elf.parse_image(emit(spec)))
    assert [(r.name, r.low_pc) for r in records] == [("at_zero", 0)]
    assert diags == []


@pytest.mark.parametrize("low_pc", [-1, 2**32 - 8], ids=["negative", "end-past-top"])
def test_forge_refuses_a_low_pc_the_address_size_cannot_hold(low_pc):
    with pytest.raises(forge.InvalidSpecError, match="low pc"):
        _tombstone_image(low_pc, 32)


# --- source files from the line table -----------------------------------------

# The decl_file of the subprograms of conftest's line-table spec, which
# name indexes 0, 1, 2, ... in turn. Before DWARF 5, index N names file
# N - 1 and 0 names none.
_LINE_NAMES = {
    4: ["", "lines.c", "/usr/include/stdlib.h", "/lib/abs.h", "file#4"],
    5: [
        "lines.c", "lines.h", "lines.c", "/usr/include/stdlib.h", "/lib/abs.h",
        "file#5", "file#6",
    ],
}


def _decl_files(image: BinaryImage) -> tuple[dict[str, str], normalize.Evidence]:
    """Each record's decl_file by name, and the evidence read for them."""
    evidence = normalize.read_evidence(image)
    return {r.name: r.decl_file for r in evidence.debug_records}, evidence


@pytest.mark.parametrize("version", [2, 3, 4, 5])
def test_decl_file_names_the_line_table_entry(line_table_bytes, version):
    """An index past the table falls back to file#N, with one warning for
    the unit however many records it names."""
    names, evidence = _decl_files(elf.parse_image(line_table_bytes[version]))
    want = _LINE_NAMES[5 if version == 5 else 4]
    assert names == {f"f{i}": name for i, name in enumerate(want)}
    assert [(d.severity, d.code) for d in evidence.diagnostics] == [
        ("warning", GT_BAD_LINE_TABLE)
    ]
    first_past = 4 if version < 5 else 5
    assert f"index {first_past} is past its end" in evidence.diagnostics[0].message


def test_decl_file_is_read_against_the_unit_that_holds_it(cross_unit_lines_bytes):
    """An abstract origin in another unit, of another DWARF version, holds
    the index: the index names an entry of that unit's table."""
    names, evidence = _decl_files(elf.parse_image(cross_unit_lines_bytes))
    assert names == {"fa": "a.cc", "sq": "/src/include/util.h", "main": "b.cc", "twice": "h.h"}
    assert evidence.diagnostics == ()


def test_each_unit_reads_its_line_table_once(cross_unit_lines_bytes):
    """Each unit's records read both tables, and a unit a link reaches is
    parsed again; each header is still read once."""
    image = elf.parse_image(cross_unit_lines_bytes)
    with mock.patch.object(dwarf, "_read_file_names", wraps=dwarf._read_file_names) as read:
        extract_debug_functions(image)
    assert sorted(call.args[1] for call in read.call_args_list) == [0, 0x30]


def _edited_line_table(data: bytes, edit) -> BinaryImage:
    """``data``'s image with its .debug_line bytes replaced by ``edit`` of
    them, of the same length."""
    image = elf.parse_image(data)
    sec = next(s for s in image.sections if s.name == ".debug_line")
    start, end = sec.file_offset, sec.file_offset + sec.size
    blob = edit(image.raw[start:end])
    assert len(blob) == sec.size and blob != image.raw[start:end]
    return dataclasses.replace(image, raw=image.raw[:start] + blob + image.raw[end:])


# The DWARF 5 file name formats: a line_strp path and a udata directory index.
_V5_FILE_FORMATS = b"\x02\x01\x1f\x02\x0f"

# case -> (DWARF version, edit of .debug_line, the problem it names)
_LINE_DAMAGE = {
    "past-the-section": (
        4,
        lambda b: struct.pack("<I", len(b)) + b[4:],
        "line table extends past .debug_line",
    ),
    "version": (
        4,
        lambda b: b[:4] + struct.pack("<H", 6) + b[6:],
        "line table version 6",
    ),
    "header-length": (
        4,
        lambda b: b[:6] + struct.pack("<I", 20) + b[10:],
        "file names run past the line header",
    ),
    "directory-index": (
        4,
        lambda b: b.replace(b"stdlib.h\x00\x01", b"stdlib.h\x00\x09"),
        "directory index 9 out of range",
    ),
    "unknown-form": (
        5,
        lambda b: b.replace(_V5_FILE_FORMATS, b"\x02\x01\x1f\x02\x7f"),
        "unknown form 0x7f",
    ),
    "wrong-form": (  # the path's form becomes udata: a number, not a string
        5,
        lambda b: b.replace(_V5_FILE_FORMATS, b"\x02\x01\x0f\x02\x0f"),
        "line header entry of the wrong form",
    ),
}


@pytest.mark.parametrize("case", sorted(_LINE_DAMAGE))
def test_a_damaged_line_table_falls_back_with_one_warning(line_table_bytes, case):
    """Damage leaves every record, names source files as without a table
    and keeps the truth complete."""
    version, edit, problem = _LINE_DAMAGE[case]
    image = _edited_line_table(line_table_bytes[version], edit)
    names, evidence = _decl_files(image)
    fallback = ["lines.c", "lines.c"] + [f"file#{i}" for i in range(2, len(names))]
    assert names == {f"f{i}": name for i, name in enumerate(fallback)}
    assert [(d.severity, d.code) for d in evidence.diagnostics] == [
        ("warning", GT_BAD_LINE_TABLE)
    ]
    assert f"unreadable: {problem}" in evidence.diagnostics[0].message
    assert normalize.build_ground_truth(evidence).complete


def test_without_a_line_section_files_are_named_as_without_a_table(line_table_bytes):
    """Units may point at a .debug_line the image does not have (a
    generator that writes DW_AT_stmt_list alone, or a tool that dropped the
    section): that is no table, not a damaged one."""
    image = elf.parse_image(line_table_bytes[5])
    image = dataclasses.replace(
        image, sections=tuple(s for s in image.sections if s.name != ".debug_line")
    )
    names, evidence = _decl_files(image)
    assert names == {f"f{i}": "lines.c" if i < 2 else f"file#{i}" for i in range(len(names))}
    assert evidence.diagnostics == ()


def test_forge_refuses_line_tables_it_cannot_write():
    text = SectionSpec(".text", 0x401000, executable=True)
    fn = FunctionSpec("f", 0, forge._fixed_body(16), dwarf=(DwarfFuncSpec(),))
    table = forge.LineTableSpec((("f.c", 0),), path_form="line_strp")
    with pytest.raises(forge.InvalidSpecError, match="string paths only"):
        emit(BinarySpec(sections=(text,), functions=(fn,), line_tables=(table,)))
    with pytest.raises(forge.InvalidSpecError, match="more line tables than units"):
        emit(BinarySpec(sections=(text,), functions=(fn,), line_tables=(None, None)))
    own_unit = DwarfFuncSpec(name_via="abstract_origin", origin_unit=0)
    far = FunctionSpec("f", 0, forge._fixed_body(16), dwarf=(own_unit,))
    with pytest.raises(forge.InvalidSpecError, match="origin unit 0"):
        emit(BinarySpec(sections=(text,), functions=(far,)))


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


# --- hand-assembled units: skipped DIEs and links ----------------------------

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
FORM_REF_ADDR, FORM_FLAG_PRESENT, AT_INLINE, AT_NORETURN = 0x10, 0x19, 0x20, 0x87
AT_DECLARATION, FORM_LINE_STRP, AT_ENTRY_PC = 0x3C, 0x1F, 0x52
TAG_PARTIAL_UNIT = 0x3C
SUBPROGRAM_READS = dwarf._READS[TAG_SUBPROGRAM]

# Codes 4-7, 9 and 22 are variables the walk steps over; the others are decoded tags.
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
    # An abstract instance that takes its name from its declaration.
    8: (TAG_SUBPROGRAM, [(AT_SPECIFICATION, FORM_REF4), (AT_INLINE, FORM_DATA1)]),
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
    # A concrete instance linked to its abstract origin by ref_addr.
    27: (
        TAG_SUBPROGRAM,
        [(AT_ABSTRACT_ORIGIN, FORM_REF_ADDR), (AT_LOW_PC, FORM_ADDR), (AT_HIGH_PC, FORM_DATA4)],
    ),
    # An abstract instance named by string index, with coordinates and noreturn.
    28: (
        TAG_SUBPROGRAM,
        [
            (AT_NAME, FORM_STRX1),
            (AT_DECL_FILE, FORM_DATA1),
            (AT_DECL_LINE, FORM_UDATA),
            (AT_NORETURN, FORM_FLAG_PRESENT),
            (AT_INLINE, FORM_DATA1),
        ],
    ),
    # A unit named by string index through its own offsets table.
    29: (TAG_CU, [(AT_NAME, FORM_STRX1), (AT_STR_OFFSETS_BASE, FORM_SEC_OFFSET)]),
    # A concrete subprogram without an address.
    30: (TAG_SUBPROGRAM, [(AT_NAME, FORM_STRING)]),
    # A DWARF 5 unit named in .debug_line_str, as gcc 12 writes it.
    31: (TAG_CU, [(AT_NAME, FORM_LINE_STRP)]),
}
# 32-35: declaring subprograms named as the variables 4-7 are; the flag
# takes no bytes, so a declaration's bytes are its variable's.
for _code in (4, 5, 6, 7):
    ABBREVS[_code + 28] = (
        TAG_SUBPROGRAM, [*ABBREVS[_code][1], (AT_DECLARATION, FORM_FLAG_PRESENT)]
    )
# 36-38: inlined copies linked to their abstract origin by ref_addr, by
# ref4, and by ref4 beside a specification; 39: an abstract instance
# linked to another; 40: a unit with a base address.
ABBREVS[36] = (
    TAG_INLINED_SUBROUTINE,
    [(AT_ABSTRACT_ORIGIN, FORM_REF_ADDR), (AT_LOW_PC, FORM_ADDR), (AT_HIGH_PC, FORM_DATA4)],
)
ABBREVS[37] = (
    TAG_INLINED_SUBROUTINE,
    [(AT_ABSTRACT_ORIGIN, FORM_REF4), (AT_LOW_PC, FORM_ADDR), (AT_HIGH_PC, FORM_DATA4)],
)
ABBREVS[38] = (
    TAG_INLINED_SUBROUTINE,
    [
        (AT_SPECIFICATION, FORM_REF4),
        (AT_ABSTRACT_ORIGIN, FORM_REF4),
        (AT_LOW_PC, FORM_ADDR),
        (AT_HIGH_PC, FORM_DATA4),
    ],
)
ABBREVS[39] = (TAG_SUBPROGRAM, [(AT_ABSTRACT_ORIGIN, FORM_REF4), (AT_INLINE, FORM_DATA1)])
ABBREVS[40] = (TAG_CU, [(AT_NAME, FORM_STRING), (AT_LOW_PC, FORM_ADDR)])
# 41: a noreturn subprogram with a decl_file string and no name, specified
# by ref_addr.
ABBREVS[41] = (
    TAG_SUBPROGRAM,
    [
        (AT_NORETURN, FORM_FLAG_PRESENT),
        (AT_DECL_FILE, FORM_STRP),
        (AT_SPECIFICATION, FORM_REF_ADDR),
        (AT_LOW_PC, FORM_ADDR),
        (AT_HIGH_PC, FORM_DATA4),
    ],
)
# 51-55: range-list subprograms with an entry_pc address, an entry_pc
# offset, an entry_pc offset and a low_pc, a low_pc alone, and an entry_pc
# in a string form.
ABBREVS[51] = (
    TAG_SUBPROGRAM, [(AT_NAME, FORM_STRING), (AT_ENTRY_PC, FORM_ADDR), (AT_RANGES, FORM_SEC_OFFSET)]
)
ABBREVS[52] = (
    TAG_SUBPROGRAM, [(AT_NAME, FORM_STRING), (AT_ENTRY_PC, FORM_DATA1), (AT_RANGES, FORM_SEC_OFFSET)]
)
ABBREVS[53] = (
    TAG_SUBPROGRAM,
    [
        (AT_NAME, FORM_STRING),
        (AT_ENTRY_PC, FORM_DATA1),
        (AT_LOW_PC, FORM_ADDR),
        (AT_RANGES, FORM_SEC_OFFSET),
    ],
)
ABBREVS[54] = (
    TAG_SUBPROGRAM, [(AT_NAME, FORM_STRING), (AT_LOW_PC, FORM_ADDR), (AT_RANGES, FORM_SEC_OFFSET)]
)
ABBREVS[55] = (
    TAG_SUBPROGRAM, [(AT_NAME, FORM_STRING), (AT_ENTRY_PC, FORM_STRING), (AT_RANGES, FORM_SEC_OFFSET)]
)
# 56: a partial unit entry named as unit 29 is.
ABBREVS[56] = (TAG_PARTIAL_UNIT, ABBREVS[29][1])
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
DECLARED = {  # a declaring subprogram named "target" in each of four ways
    "strp": _die(32, _ref(1), _VARIABLE_TAIL),
    "strx1": _die(33, b"\x00"),
    "string": _die(34, b"target\x00"),
    "indirect": _die(35, uleb_encode(FORM_STRING), b"target\x00"),
}
BAD_DECLARED = _die(32, _ref(0x9999), _VARIABLE_TAIL)


def _offset(dies: list[bytes], index: int, version: int = 4) -> int:
    """Offset of ``dies[index]``: unit length, then a 7-byte (v4) or 8-byte header."""
    return 4 + (7 if version == 4 else 8) + sum(len(d) for d in dies[:index])


def _unit(
    dies: list[bytes], version: int = 4, terminate: bool = True, unit_type: int = 1
) -> bytes:
    if version == 4:
        header = struct.pack("<HIB", 4, 0, 8)
    else:
        header = struct.pack("<HBBI", 5, unit_type, 8, 0)
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


@pytest.mark.parametrize("form", sorted(DECLARED))
def test_specification_into_a_declaration_takes_its_name(form):
    version = 5 if form == "strx1" else 4
    dies = [CU_DIE, DECLARED[form]]
    dies.append(_subprogram(2, _offset(dies, 1, version)))
    records, diags = extract_debug_functions(_unit_image(dies, version))
    assert diags == []
    (rec,) = records
    assert (rec.name, rec.low_pc, rec.end_exclusive) == ("target", 0x401000, 0x401010)
    # The other attributes are inherited as well.
    assert (rec.decl_file, rec.decl_line) == (("t.c", 300) if form == "strp" else ("", 0))


def test_abstract_origin_chain_through_a_declaration_resolves():
    dies = [CU_DIE, DECLARED["strp"]]
    dies.append(_die(8, _ref(_offset(dies, 1)), b"\x01"))  # specification -> named
    dies.append(_subprogram(3, _offset(dies, 2)))  # abstract_origin -> the link
    records, diags = extract_debug_functions(_unit_image(dies))
    assert diags == []
    assert [r.name for r in records] == ["target"]


@pytest.mark.parametrize("form", sorted(NAMED))
def test_a_link_into_an_entry_the_walk_steps_over_names_nothing(form):
    """A variable is not what a specification names: it is stepped over,
    not kept, and the subprogram gets no name from it."""
    version = 5 if form == "strx1" else 4
    dies = [CU_DIE, NAMED[form]]
    dies.append(_subprogram(2, _offset(dies, 1, version)))
    records, diags = extract_debug_functions(_unit_image(dies, version))
    assert diags == []
    assert [(r.name, r.low_pc, r.decl_file) for r in records] == [("", 0x401000, "")]


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
    dies = [CU_DIE, BAD_STRP, DECLARED["string"]]
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
    dies = [CU_DIE, DECLARED["string"]]
    dies.append(_subprogram(26, len(first) + _offset(dies, 1)))
    records, diags = extract_debug_functions(_info_image(first + _unit(dies)))
    assert diags == []
    assert [(r.name, r.low_pc) for r in records] == [("target", 0x401000)]


# Two string offsets tables: the first unit's at the default base 8, with
# both entries "decoy", and the DWARF 5 unit's at 24: "target", then "b.c".
_LINKED_STR = b"\x00target\x00decoy\x00b.c\x00"
_LINKED_STR_OFFSETS = struct.pack("<IHHII", 12, 5, 0, 8, 8) + struct.pack(
    "<IHHII", 12, 5, 0, 1, 14
)
_ABSTRACT = _die(28, b"\x00", b"\x01", uleb_encode(300), b"\x01")  # inline: declared
_TARGET_UNIT = [_die(29, b"\x01", _ref(24)), _ABSTRACT]
_PARTIAL_DIES = [CU_DIE, _die(18, b"partial\x00", _ref(1), _IN_TEXT)]


def _linked_info_image(info: bytes) -> BinaryImage:
    return _synthetic_image(
        [
            (".debug_info", info),
            (".debug_abbrev", _abbrev_blob()),
            (".debug_str", _LINKED_STR),
            (".debug_str_offsets", _LINKED_STR_OFFSETS),
        ]
    )


def _linked_image(between: bytes, target: int | None = None) -> BinaryImage:
    """A DWARF 4 unit whose subprogram reaches, by a ref_addr abstract
    origin, the abstract subprogram of a DWARF 5 unit after ``between``
    (or the .debug_info offset ``target``)."""
    if target is None:
        target = len(_unit([CU_DIE, _die(27, _ref(0), _IN_TEXT)])) + len(between)
        target += _offset(_TARGET_UNIT, 1, version=5)
    first = _unit([CU_DIE, _die(27, _ref(target), _IN_TEXT)])
    return _linked_info_image(first + between + _unit(_TARGET_UNIT, version=5))


@pytest.mark.parametrize("unit_type", [2, 3, 4, 5, 6])
def test_a_ref_addr_link_reads_the_target_against_its_own_unit(unit_type):
    """Name, coordinates and noreturn come from the other unit, read against
    its str_offsets_base; a unit of another type between them is stepped
    over, and a partial unit yields no record."""
    between = _unit(_PARTIAL_DIES, version=5, unit_type=unit_type)
    records, diags = extract_debug_functions(_linked_image(between))
    assert diags == []
    (rec,) = records
    assert rec == DebugFunctionRecord("target", 0x401000, 0x401010, "b.c", 300, True)


def _partial_link_image() -> BinaryImage:
    """A DWARF 4 unit whose subprogram reaches, by a ref_addr abstract
    origin, a subprogram of a partial unit after it."""
    between = _unit(_PARTIAL_DIES, version=5, unit_type=3)
    first_size = len(_unit([CU_DIE, _die(27, _ref(0), _IN_TEXT)]))
    return _linked_image(between, first_size + _offset(_PARTIAL_DIES, 1, version=5))


def test_a_ref_addr_link_into_a_partial_unit_takes_its_name():
    records, diags = extract_debug_functions(_partial_link_image())
    assert diags == []
    assert [(r.name, r.decl_file) for r in records] == [("partial", "")]


def test_a_partial_unit_entry_is_read_by_its_own_abbrevs_reader():
    """A link reaches a subprogram of a unit that begins with a partial
    unit entry. That entry is decoded by the plan its abbrev compiled, like
    every decoded DIE, and the unit's bases come from it: the target's
    name, and its file, which is the unit's name, resolve through the
    unit's str_offsets_base."""
    target_unit = [_die(56, b"\x01", _ref(24)), _ABSTRACT]
    first_size = len(_unit([CU_DIE, _die(27, _ref(0), _IN_TEXT)]))
    target = first_size + _offset(target_unit, 1, version=5)
    first = _unit([CU_DIE, _die(27, _ref(target), _IN_TEXT)])
    image = _linked_info_image(first + _unit(target_unit, version=5, unit_type=3))
    with mock.patch.object(dwarf, "_compile_plan", wraps=dwarf._compile_plan) as compile_plan:
        records, diags = extract_debug_functions(image)
    assert diags == []
    assert records == [DebugFunctionRecord("target", 0x401000, 0x401010, "b.c", 300, True)]
    # One plan for each abbrev of the two units' tables, and no other.
    assert compile_plan.call_count == 2 * len(ABBREVS)


@pytest.mark.parametrize(
    ("first", "tag"), [(_die(30, b"f\x00"), 0x2E), (NAMED["string"], 0x34)],
    ids=["decoded-tag", "skipped-tag"],
)
def test_a_unit_that_begins_with_another_entry_is_malformed(first, tag):
    """A unit begins with its unit entry (DWARF 5 §3.1, §7.5)."""
    records, diags = extract_debug_functions(_unit_image([first, CU_DIE]))
    assert records == []
    assert _only_error(diags) == (
        "debug info unreadable from the unit at offset 0x0: "
        f"first entry of tag {tag:#x}, not a unit entry"
    )


def test_a_link_into_a_partial_unit_leaves_no_cyclic_garbage(tmp_path):
    """A linked unit holds its blob's aux, and the aux the linked units
    while the blob is read; extract frees them all by their counts."""
    image = _partial_link_image()
    sections = [SectionSpec(".text", 0x401000, content=b"\x90" * 0x40, executable=True)]
    for s in image.sections[2:]:  # the debug sections, after the null one and .text
        blob = image.raw[s.file_offset : s.file_offset + s.size]
        sections.append(SectionSpec(s.name, 0, content=blob, allocated=False))
    body = FunctionSpec("partial", 0, b"\x90" * 15 + b"\xc3")
    binary, truth = tmp_path / "linked.bin", tmp_path / "linked.json"
    binary.write_bytes(emit(BinarySpec(tuple(sections), (body,), word_size=64)))
    assert corpuscheck.cyclic_garbage(["extract", str(binary), "-o", str(truth)]) == 0
    (fn,) = json.loads(truth.read_text())["functions"]
    assert (fn["name"], fn["provenance"]) == ("partial", ["dwarf", "symtab"])


def test_a_reader_dropped_from_the_plan_cache_is_freed_by_its_count(collector):
    """A reader's globals do not hold the reader, so an evicted plan is no
    cycle for the collector to find."""
    dwarf._compile_plan.cache_clear()
    plan = dwarf._compile_plan(((AT_NAME, FORM_STRING, None),), 4, 8, True, SUBPROGRAM_READS)
    reader = weakref.ref(plan)
    del plan
    collector(False)
    assert reader() is not None
    dwarf._compile_plan.cache_clear()
    assert reader() is None


@pytest.mark.parametrize("target", [5, 0x900, 2**32 - 1], ids=["mid-die", "past", "top"])
def test_a_ref_addr_link_outside_every_die_names_nothing(target):
    records, diags = extract_debug_functions(_linked_image(b"", target))
    assert diags == []
    assert [(r.name, r.decl_file, r.noreturn) for r in records] == [("", "", False)]


def test_a_ref_addr_link_past_a_damaged_unit_length_names_nothing():
    """The unit starts are known only up to a damaged length; the walk
    still reports the damage where it reaches it."""
    damaged = struct.pack("<I", 0x7FFFFFFF) + b"\x05\x00\x03"
    records, diags = extract_debug_functions(_linked_image(damaged))
    assert [r.name for r in records] == [""]
    assert _only_error(diags).endswith("unit length extends past .debug_info")


# --- inlined copies named through their abstract origin ------------------
# Each copy sits outside every section, so a diagnostic prints its name.

_OUTSIDE = struct.pack("<QI", 0x900000, 4)  # low_pc, then a 4-byte high_pc


def _placed(names: list[str]) -> list[tuple[str, str]]:
    message = "debug info places {} at 0x900000, outside every executable section"
    return [(GT_DEBUG_OUTSIDE_EXEC, message.format(name)) for name in names]


def test_copies_of_one_origin_in_three_units_take_its_name():
    """Copies in three units reach one abstract origin, by ref_addr from
    two units and by ref4 from its own. Each is named from the origin, read
    against the origin's unit, whose string offsets differ from the others'.
    A ref4 link of the first unit to the same offset lands outside its own
    unit, and names nothing."""
    copy_size = len(_die(36, _ref(0), _OUTSIDE))
    first_size = len(_unit([CU_DIE])) + 3 * copy_size
    origin = _offset(_TARGET_UNIT, 1, version=5)
    copy = _die(36, _ref(first_size + origin), _OUTSIDE)
    first = _unit([CU_DIE, copy, copy, _die(37, _ref(first_size + origin), _OUTSIDE)])
    second = _unit([*_TARGET_UNIT, _die(37, _ref(origin), _OUTSIDE)], version=5)
    third = _unit([CU_DIE, copy])
    records, diags = extract_debug_functions(_linked_info_image(first + second + third))
    assert records == []
    names = ["target", "target", "<anonymous>", "target", "target"]
    assert [(d.code, d.message) for d in diags] == _placed(names)


def test_a_copy_with_a_specification_is_named_through_it():
    """A specification is followed before an abstract origin: a copy that
    has both does not take the name its origin gives the other copies."""
    dies = [CU_DIE, _die(34, b"other\x00"), DECLARED["string"]]
    origin, declared = _offset(dies, 1), _offset(dies, 2)
    dies += [
        _die(37, _ref(origin), _OUTSIDE),
        _die(38, _ref(declared), _ref(origin), _OUTSIDE),
        _die(37, _ref(origin), _OUTSIDE),
    ]
    records, diags = extract_debug_functions(_unit_image(dies))
    assert records == []
    assert [(d.code, d.message) for d in diags] == _placed(["other", "target", "other"])


def test_an_origin_chain_that_loops_names_nothing():
    """Two abstract instances name each other, and a copy names itself."""
    link_size = len(_die(39, _ref(0), b"\x01"))
    first = _offset([CU_DIE], 1)
    dies = [CU_DIE, _die(39, _ref(first + link_size), b"\x01"), _die(39, _ref(first), b"\x01")]
    own = _offset(dies, 3) + 2 * len(_die(37, _ref(0), _OUTSIDE))
    dies += [
        _die(37, _ref(first), _OUTSIDE),
        _die(37, _ref(first + link_size), _OUTSIDE),
        _die(37, _ref(own), _OUTSIDE),
        _die(37, _ref(first), _OUTSIDE),
    ]
    records, diags = extract_debug_functions(_unit_image(dies))
    assert records == []
    assert [(d.code, d.message) for d in diags] == _placed(["<anonymous>"] * 4)


def test_a_link_into_a_unit_that_does_not_parse_drops_the_linking_unit():
    first = _unit([CU_DIE, _die(27, _ref(0), _IN_TEXT)])
    bad = _unit([CU_DIE, _die(42)])
    first = _unit([CU_DIE, _die(27, _ref(len(first) + _offset([CU_DIE], 1)), _IN_TEXT)])
    records, diags = extract_debug_functions(_info_image(first + bad))
    assert records == []
    assert [(d.code, d.message) for d in diags] == [
        (
            GT_MALFORMED_DEBUG_DATA,
            f"debug info unreadable from the unit at offset {start:#x}: "
            "abbrev code 42 not in table",
        )
        for start in (0, len(first))
    ]


def test_a_broken_link_is_named_before_an_attribute_found_ahead_of_it():
    """The walk raises at the link into a unit that does not parse, before
    any lookup it found is read: the decl_file string offset out of range
    is never reached."""
    first = _unit([CU_DIE, _die(41, _ref(0x9999), _ref(0), _IN_TEXT)])
    bad = _unit([CU_DIE, _die(42)])
    link = _ref(len(first) + _offset([CU_DIE], 1))
    first = _unit([CU_DIE, _die(41, _ref(0x9999), link, _IN_TEXT)])
    records, diags = extract_debug_functions(_info_image(first + bad))
    assert records == []
    assert [(d.code, d.message) for d in diags] == [
        (
            GT_MALFORMED_DEBUG_DATA,
            f"debug info unreadable from the unit at offset {start:#x}: "
            "abbrev code 42 not in table",
        )
        for start in (0, len(first))
    ]


def test_an_origin_with_a_bad_name_drops_each_unit_that_prints_it():
    """A failed name is not kept: a later unit whose copy links to the same
    origin fails the same way."""
    origin = _offset([CU_DIE], 1)
    first = _unit([CU_DIE, BAD_DECLARED, _die(37, _ref(origin), _OUTSIDE)])
    second = _unit([CU_DIE, _die(36, _ref(origin), _OUTSIDE)])
    records, diags = extract_debug_functions(_info_image(first + second))
    assert records == []
    assert [(d.code, d.message) for d in diags] == [
        (
            GT_MALFORMED_DEBUG_DATA,
            f"debug info unreadable from the unit at offset {start:#x}: "
            ".debug_str offset 0x9999 out of range",
        )
        for start in (0, len(first))
    ]


def _headed_unit(header: bytes, dies: list[bytes]) -> bytes:
    body = header + b"".join(dies) + b"\x00"
    return struct.pack("<I", len(body)) + body


@pytest.mark.parametrize(
    ("unit", "message"),
    [
        (_unit(_PARTIAL_DIES, version=5, unit_type=0x80), "unit type 0x80"),
        (_headed_unit(struct.pack("<HIB", 6, 0, 8), [CU_DIE]), "DWARF version 6"),
        (_headed_unit(struct.pack("<HIB", 4, 0, 3), [CU_DIE]), "address size 3"),
        (
            _headed_unit(struct.pack("<HIB", 4, 0x9999, 8), [CU_DIE]),
            "abbrev offset 0x9999 out of range",
        ),
        (_unit([CU_DIE, _die(42)]), "abbrev code 42 not in table"),
    ],
    ids=["unit_type", "version", "address_size", "abbrev_offset", "abbrev_code"],
)
def test_a_unit_that_does_not_parse_is_stepped_over_by_its_length(unit, message):
    """Its length is known, so the units after it are still read."""
    first = _unit([CU_DIE, _die(18, b"first\x00", _ref(1), _IN_TEXT)])
    records, diags = extract_debug_functions(_info_image(first + unit + first))
    assert [r.name for r in records] == ["first", "first"]
    assert _only_error(diags) == (
        f"debug info unreadable from the unit at offset {len(first):#x}: {message}"
    )


def test_subprograms_without_an_address_are_counted_once_per_unit():
    unit = _unit([CU_DIE, _die(30, b"f\x00"), _die(30, b"g\x00"), _ABSTRACT])
    later = _unit([CU_DIE, _die(30, b"h\x00")])
    records, diags = extract_debug_functions(_info_image(unit + later))
    assert records == []
    assert [(d.severity, d.code, d.message) for d in diags] == [
        (
            "info",
            GT_SUBPROGRAM_NO_ADDRESS,
            "2 concrete subprogram(s) of t.c (the unit at offset 0x0) "
            "carry no address; skipped",
        ),
        (
            "info",
            GT_SUBPROGRAM_NO_ADDRESS,
            f"1 concrete subprogram(s) of t.c (the unit at offset {len(unit):#x}) "
            "carry no address; skipped",
        ),
    ]


def test_damage_in_a_referenced_declaration_is_malformed():
    dies = [CU_DIE, BAD_DECLARED]
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


def test_a_dwarf5_unit_named_in_line_str_names_its_source_file():
    """decl_file 1 names the unit's primary file, which gcc 12 names by a
    .debug_line_str offset in every DWARF 5 unit."""
    info = _unit([_die(31, _ref(6)), DECODED], version=5)
    image = _synthetic_image(
        [
            (".debug_info", info),
            (".debug_abbrev", _abbrev_blob()),
            (".debug_line_str", b"\x00/tmp\x00b.c\x00"),
        ]
    )
    records, diags = extract_debug_functions(image)
    assert diags == []
    assert [(r.low_pc, r.decl_file, r.decl_line) for r in records] == [
        (0x401000, "b.c", 300)
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


# --- generated readers against the full decoder ----------------------------

AT_DATA_LOCATION, FORM_BLOCK4, FORM_BLOCK, FORM_BLOCK1 = 0x50, 0x04, 0x09, 0x0A
FORM_DATA16, FORM_IMPLICIT_CONST, FORM_ADDRX = 0x1E, 0x21, 0x1B
_LONG_EXPR = uleb_encode(200) + bytes(range(200))  # a length of two LEB bytes


def _pairs(*pairs) -> tuple:
    """(attr, form, implicit) triples; a pair of two has no implicit value."""
    return tuple((*p, None) if len(p) == 2 else p for p in pairs)


_REF_ADDR_PAIRS = _pairs(
    (AT_TYPE, FORM_REF_ADDR), (AT_SPECIFICATION, FORM_REF_ADDR), (AT_LOW_PC, FORM_ADDR)
)
# (version, address size, byte order, attributes, their bytes in .debug_info)
_AGREEMENT = {
    "big_endian_three_byte_indexes": (
        5, 8, "big",
        _pairs(
            (AT_NAME, FORM_STRX3), (AT_TYPE, FORM_REF4), (AT_LOW_PC, FORM_ADDRX3),
            (AT_HIGH_PC, FORM_DATA4), (AT_CONST_VALUE, FORM_STRX3),
        ),
        b"\x01\x02\x03" + b"\xaa" * 4 + b"\x00\x01\x02" + b"\x00\x00\x00\x10" + b"\x07" * 3,
    ),
    "dwarf2_ref_addr_32": (
        2, 4, "little",
        _REF_ADDR_PAIRS,
        _ref(5) + _ref(0x40) + _ref(0x401000),
    ),
    "dwarf2_ref_addr_64": (
        2, 8, "little",
        _REF_ADDR_PAIRS,
        struct.pack("<QQQ", 5, 0x40, 0x401000),
    ),
    "dwarf4_ref_addr": (
        4, 8, "little",
        _REF_ADDR_PAIRS,
        _ref(5) + _ref(0x40) + struct.pack("<Q", 0x401000),
    ),
    "blocks": (
        4, 8, "little",
        _pairs(
            (AT_NAME, FORM_BLOCK1), (AT_LOCATION, FORM_BLOCK1), (AT_DECL_FILE, FORM_BLOCK2),
            (AT_CONST_VALUE, FORM_BLOCK2), (AT_RANGES, FORM_BLOCK4),
            (AT_DATA_LOCATION, FORM_BLOCK4), (AT_LOW_PC, FORM_BLOCK),
            (AT_TYPE, FORM_BLOCK), (AT_HIGH_PC, FORM_EXPRLOC), (AT_SIBLING, FORM_EXPRLOC),
        ),
        b"\x02ab" + b"\x01c" + b"\x03\x00def" + b"\x00\x00" + b"\x01\x00\x00\x00g"
        + b"\x02\x00\x00\x00hi" + _LONG_EXPR + b"\x00" + _LONG_EXPR + _LONG_EXPR,
    ),
    "implicit_const": (
        5, 8, "little",
        _pairs(
            (AT_DECL_LINE, FORM_IMPLICIT_CONST, 300), (AT_TYPE, FORM_IMPLICIT_CONST, 9),
            (AT_NAME, FORM_STRING), (AT_DECL_FILE, FORM_IMPLICIT_CONST, -7),
            (AT_DECLARATION, FORM_FLAG_PRESENT),
        ),
        b"f\x00",
    ),
    "listed_twice": (
        5, 8, "little",
        _pairs(
            (AT_NAME, FORM_STRING), (AT_LOW_PC, FORM_ADDR), (AT_DECL_LINE, FORM_DATA2),
            (AT_NAME, FORM_STRX1), (AT_DECL_LINE, FORM_UDATA), (AT_LOW_PC, FORM_ADDRX),
        ),
        b"first\x00" + struct.pack("<QH", 0x401000, 7) + b"\x01" + uleb_encode(300) + b"\x02",
    ),
    "variable_widths": (
        4, 8, "little",
        _pairs(
            (AT_TYPE, FORM_UDATA), (AT_NAME, FORM_STRING), (AT_LOCATION, FORM_STRING),
            (AT_DECL_LINE, FORM_SDATA), (AT_CONST_VALUE, FORM_SDATA), (AT_DECL_FILE, FORM_UDATA),
            (AT_SIBLING, FORM_DATA16), (AT_HIGH_PC, FORM_DATA16), (AT_RANGES, FORM_UDATA),
        ),
        uleb_encode(2**70) + b"g\x00" + b"loc\x00" + sleb_encode(-300) + sleb_encode(5)
        + uleb_encode(624485) + bytes(range(16)) + bytes(range(16, 32)) + b"\x05",
    ),
}


@pytest.mark.parametrize("case", sorted(_AGREEMENT))
def test_generated_readers_read_what_the_full_decoder_reads(case):
    version, addr_size, order, pairs, values = _AGREEMENT[case]
    blob = values + b"\xee" * 4  # the next DIE's bytes must not be read
    little = order == "little"
    unit = dwarf._Unit(version, addr_size, 0, len(blob), little, dwarf._Aux(*[b""] * 8), blob)
    for reads in {*dwarf._READS.values(), frozenset(attr for attr, _form, _implicit in pairs)}:
        cur = dwarf._Cursor(blob, 0, little)
        full = dwarf._read_attrs(cur, pairs, unit, reads)
        assert cur.pos == len(values)
        decode = dwarf._compile_plan(pairs, version, addr_size, little, reads)
        assert callable(decode)
        assert decode(blob, 0) == (full, len(values))
    skip = dwarf._compile_plan(pairs, version, addr_size, little, frozenset())
    assert (skip if isinstance(skip, int) else skip(blob, 0)) == len(values)
    assert dwarf._read_attrs(dwarf._Cursor(blob, 0, little), pairs, unit, frozenset()) == {}


def _code_constants(code):
    for const in code.co_consts:
        if isinstance(const, tuple):
            yield from const
        elif hasattr(const, "co_consts"):
            yield from _code_constants(const)
        else:
            yield const


def _readers():
    """Every generated reader of the hand-assembled and forged abbrev tables."""
    tables = [(_abbrev_blob(), v, 8, little) for v in (2, 4, 5) for little in (True, False)]
    for version in (4, 5):
        image, spans = _fuzz_base(version)
        offset, size = spans[".debug_abbrev"]
        tables.append((image.raw[offset : offset + size], version, 8, True))
    for blob, version, addr_size, little in tables:
        for _tag, pairs, _plan, _reads in dwarf._parse_abbrev_table(
            blob, 0, version, addr_size, little
        ).values():
            for reads in (SUBPROGRAM_READS, frozenset()):
                reader = dwarf._compile_plan(pairs, version, addr_size, little, reads)
                if callable(reader):
                    yield reader
    for version, addr_size, order, pairs, _values in _AGREEMENT.values():
        yield dwarf._compile_plan(pairs, version, addr_size, order == "little", SUBPROGRAM_READS)


def test_reader_source_holds_only_int_literals_and_bound_names():
    readers = list(_readers())
    assert len(readers) > 40
    for reader in readers:
        code = reader.__code__
        assert all(c is None or type(c) is int for c in _code_constants(code))
        assert set(code.co_names) - {"int", "from_bytes", "index"} <= set(reader.__globals__)


def test_an_implicit_const_value_is_bound_not_rendered():
    pairs = _AGREEMENT["implicit_const"][3]
    reader = dwarf._compile_plan(pairs, 5, 8, True, SUBPROGRAM_READS)
    assert not {300, -7, 9} & set(_code_constants(reader.__code__))
    assert (FORM_IMPLICIT_CONST, -7) in reader.__globals__.values()
    huge = _pairs((AT_DECL_LINE, FORM_IMPLICIT_CONST, 10**5000))  # has no decimal text
    assert dwarf._compile_plan(huge, 5, 8, True, SUBPROGRAM_READS)(b"", 0) == (
        {AT_DECL_LINE: (FORM_IMPLICIT_CONST, 10**5000)},
        0,
    )


@pytest.mark.parametrize("tag", [TAG_VARIABLE, TAG_SUBPROGRAM], ids=["skipped", "subprogram"])
def test_an_abbrev_past_the_size_bound_gets_no_reader(tag):
    """100,000 udata attributes: the full decoder reads the DIE, and the
    records are those it gives without any plan."""
    count = 100_000
    abbrev = uleb_encode(1) + uleb_encode(TAG_CU) + b"\x00" + bytes([AT_NAME, FORM_STRING])
    abbrev += b"\x00\x00" + uleb_encode(2) + uleb_encode(tag) + b"\x00"
    abbrev += bytes([AT_NAME, FORM_STRING, AT_LOW_PC, FORM_ADDR, AT_HIGH_PC, FORM_DATA4])
    abbrev += bytes([AT_CONST_VALUE, FORM_UDATA]) * count + b"\x00\x00\x00"
    big = _die(2, b"big\x00", _IN_TEXT, uleb_encode(300) * count)
    dies = [_die(1, b"t.c\x00"), big, _die(2, b"small\x00", _IN_TEXT, b"\x01" * count)]
    info = _unit(dies)
    image = _synthetic_image([(".debug_info", info), (".debug_abbrev", abbrev)])
    (_tag, pairs, plan, _reads), = [
        entry for code, entry in dwarf._parse_abbrev_table(abbrev, 0, 4, 8, True).items()
        if code == 2
    ]
    assert len(pairs) == count + 3
    assert plan is None
    assert dwarf._compile_plan(pairs, 4, 8, True, SUBPROGRAM_READS) is None
    with mock.patch.object(dwarf, "_compile_plan", lambda *args: None):
        full = extract_debug_functions(image)
    assert extract_debug_functions(image) == full
    expected = ["big", "small"] if tag == TAG_SUBPROGRAM else []
    assert [r.name for r in full[0]] == expected


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
    "one_byte_offsets": (
        b"\x05" + struct.pack("<Q", 0x400FC0) + b"\x04\x40\x7f",
        [(0x401000, 0x40103F)],
    ),
    # Lists that do not read: the message each gives.
    "unknown_kind": (b"\x08", "range list entry kind 0x8"),
    "backwards": (b"\x04\x08\x04", "range list of f ends before it starts"),
    "offset_pair_cut": (b"\x04\x80", "uleb128 runs past end of data"),
    "start_end_cut": (b"\x06" + struct.pack("<Q", 0x401000) + bytes(6), "fixed-width read"),
    "unterminated": (b"\x05" + bytes(7), "fixed-width read"),  # the base takes the end
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
    if isinstance(pairs, str):
        assert records == []
        assert f": {pairs}" in _only_error(diags)
        return
    # The first range is the entry's, which holds it: no warning.
    assert [(r.name, r.low_pc, r.end_exclusive, r.other_ranges) for r in records] == [
        ("f", *pairs[0], tuple(pairs[1:]))
    ]
    assert diags == []


# DWARF 4 .debug_ranges lists at offset 0 and the (low, high) pairs they
# give; the unit's base address is 0x401000.
_V4_LISTS = {
    "unit_base": (
        struct.pack("<4Q", 4, 8, 0x10, 0x20) + bytes(16),
        [(0x401004, 0x401008), (0x401010, 0x401020)],
    ),
    "base_selector": (
        struct.pack("<6Q", 2**64 - 1, 0x401030, 0, 4, 8, 12) + bytes(16),
        [(0x401030, 0x401034), (0x401038, 0x40103C)],
    ),
    "empty": (bytes(16), []),
    # Lists that do not read: the message each gives.
    "backwards": (struct.pack("<2Q", 8, 4) + bytes(16), "range list of f ends before it starts"),
    "unterminated": (struct.pack("<2Q", 4, 8), "fixed-width read past end of unit"),
    "cut_pair": (struct.pack("<2Q", 4, 8) + bytes(12), "fixed-width read past end of unit"),
}


@pytest.mark.parametrize("case", sorted(_V4_LISTS))
def test_debug_ranges_lists_decode(case):
    blob, pairs = _V4_LISTS[case]
    cu = _die(40, b"r.c\x00", struct.pack("<Q", 0x401000))
    info = _unit([cu, _die(25, b"f\x00", _ref(0))])
    image = _synthetic_image(
        [(".debug_info", info), (".debug_abbrev", _abbrev_blob()), (".debug_ranges", blob)]
    )
    records, diags = extract_debug_functions(image)
    if isinstance(pairs, str):
        assert records == []
        assert _only_error(diags).endswith(f": {pairs}")
    elif not pairs:  # no range: no address
        assert records == []
        assert [d.code for d in diags] == [GT_SUBPROGRAM_NO_ADDRESS]
    else:  # the first range is the entry's, which holds it: no warning
        assert [(r.name, r.low_pc, r.end_exclusive, r.other_ranges) for r in records] == [
            ("f", *pairs[0], tuple(pairs[1:]))
        ]
        assert diags == []


# A .debug_ranges list at offset 0 of two ranges, the cold one second and
# below: (0x401020, 0x401030) and (0x401000, 0x401010).
_SPLIT_LIST = struct.pack("<4Q", 0x20, 0x30, 0, 0x10) + bytes(16)


@pytest.mark.parametrize(
    ("subprogram", "entry", "end", "others"),
    [
        (_die(25, b"f\x00", _ref(0)), 0x401020, 0x401030, [(0x401000, 0x401010)]),
        (  # entry_pc as an address
            _die(51, b"f\x00", struct.pack("<Q", 0x401004), _ref(0)),
            0x401004, 0x401010, [(0x401020, 0x401030)],
        ),
        (  # entry_pc as an offset from the first range's start
            _die(52, b"f\x00", b"\x04", _ref(0)),
            0x401024, 0x401030, [(0x401000, 0x401010)],
        ),
        (  # entry_pc as an offset from low_pc
            _die(53, b"f\x00", b"\x04", struct.pack("<Q", 0x401000), _ref(0)),
            0x401004, 0x401010, [(0x401020, 0x401030)],
        ),
        (  # low_pc without entry_pc
            _die(54, b"f\x00", struct.pack("<Q", 0x401000), _ref(0)),
            0x401000, 0x401010, [(0x401020, 0x401030)],
        ),
        (  # an entry no range holds: an open extent
            _die(51, b"f\x00", struct.pack("<Q", 0x401018), _ref(0)),
            0x401018, None, [(0x401020, 0x401030), (0x401000, 0x401010)],
        ),
    ],
    ids=["first-range", "entry-pc-addr", "entry-pc-offset", "entry-pc-low-pc", "low-pc", "outside"],
)
def test_a_subprograms_entry_picks_its_range(subprogram, entry, end, others):
    cu = _die(40, b"r.c\x00", struct.pack("<Q", 0x401000))
    image = _synthetic_image(
        [
            (".debug_info", _unit([cu, subprogram])),
            (".debug_abbrev", _abbrev_blob()),
            (".debug_ranges", _SPLIT_LIST),
        ]
    )
    records, diags = extract_debug_functions(image)
    assert [(r.low_pc, r.end_exclusive, r.other_ranges) for r in records] == [
        (entry, end, tuple(others))
    ]
    # Only an entry that no range holds warns, over the hull.
    message = f"f at {entry:#x} spans 2 ranges; no range holds its entry"
    assert [(d.code, d.message, d.span) for d in diags] == [
        (GT_DISCONTIGUOUS_RANGE, message, (0x401000, 0x30))
    ][: end is None]


def test_an_entry_pc_of_another_form_is_malformed():
    cu = _die(40, b"r.c\x00", struct.pack("<Q", 0x401000))
    image = _synthetic_image(
        [
            (".debug_info", _unit([cu, _die(55, b"f\x00", b"x\x00", _ref(0))])),
            (".debug_abbrev", _abbrev_blob()),
            (".debug_ranges", _SPLIT_LIST),
        ]
    )
    records, diags = extract_debug_functions(image)
    assert records == []
    assert _only_error(diags).endswith(": non-integer entry pc")


def _pc_image(attr: int, form: int, value: bytes, low_pc: int = 0x401000) -> BinaryImage:
    """A 64-bit unit whose subprogram has a low_pc, the range list
    _SPLIT_LIST and ``attr`` (high pc or entry pc) of ``form``; a high pc
    gives the extent, an entry pc picks a range."""
    abbrev = uleb_encode(1) + uleb_encode(TAG_CU) + b"\x00\x00\x00"
    abbrev += uleb_encode(2) + uleb_encode(TAG_SUBPROGRAM) + b"\x00"
    abbrev += bytes([AT_LOW_PC, FORM_ADDR, AT_RANGES, FORM_SEC_OFFSET, attr, form])
    abbrev += b"\x00\x00\x00"
    subprogram = _die(2, struct.pack("<Q", low_pc), _ref(0), value)
    return _synthetic_image(
        [
            (".debug_info", _unit([_die(1), subprogram])),
            (".debug_abbrev", abbrev),
            (".debug_ranges", _SPLIT_LIST),
        ]
    )


@pytest.mark.parametrize(
    ("attr", "what"), [(AT_HIGH_PC, "high pc"), (AT_ENTRY_PC, "entry pc")], ids=["high", "entry"]
)
@pytest.mark.parametrize(
    ("form", "value", "message"),
    [
        (FORM_STRING, b"x\x00", "non-integer {}"),
        (FORM_REF4, _ref(4), "{} form 0x13"),
        (0x07, struct.pack("<Q", 2**64 - 0x401000 + 1), "{} 0x10000000000000001 exceeds 64-bit address space"),
        (FORM_SDATA, sleb_encode(-4), "negative {} offset -4"),
    ],
    ids=["non-integer", "form", "past-the-address-space", "negative"],
)
def test_one_rule_reads_both_pc_attributes(attr, what, form, value, message):
    """A constant is an unsigned offset (DWARF 5 §2.17.2, §2.18) whose
    address must fit the address space; any other form than an address or
    a constant is malformed."""
    records, diags = extract_debug_functions(_pc_image(attr, form, value))
    assert records == []
    assert _only_error(diags).endswith(": " + message.format(what))


@pytest.mark.parametrize("attr", [AT_HIGH_PC, AT_ENTRY_PC], ids=["high", "entry"])
def test_a_pc_offset_past_the_address_space_of_a_tombstone_is_discarded(attr):
    """LLD writes all-ones where a discarded function's low_pc was: an
    offset from it stays there, and the function is skipped as discarded."""
    image = _pc_image(attr, 0x07, struct.pack("<Q", 16), low_pc=2**64 - 1)
    records, diags = extract_debug_functions(image)
    assert records == []
    assert [d.code for d in diags] == [GT_LINKER_DISCARDED]


def test_a_high_pc_below_its_low_pc_is_malformed():
    """As a range that ends before it starts is; an entry pc below its
    base is an address no range may hold, not an end."""
    records, diags = extract_debug_functions(
        _pc_image(AT_HIGH_PC, FORM_ADDR, struct.pack("<Q", 0x400FF0))
    )
    assert records == []
    assert _only_error(diags).endswith(": high pc 0x400ff0 is below low pc 0x401000")


def test_only_a_subprogram_decodes_its_entry_pc():
    """An inlined copy's entry_pc is stepped over: its extent is the hull."""
    pairs = ((AT_ENTRY_PC, FORM_ADDR, None), (AT_LOW_PC, FORM_ADDR, None))
    blob = struct.pack("<QQ", 0x401004, 0x401000)
    subprogram = dwarf._compile_plan(pairs, 4, 8, True, SUBPROGRAM_READS)
    assert subprogram(blob, 0) == ({AT_ENTRY_PC: (FORM_ADDR, 0x401004), AT_LOW_PC: (FORM_ADDR, 0x401000)}, 16)
    inlined = dwarf._compile_plan(pairs, 4, 8, True, dwarf._READS[TAG_INLINED_SUBROUTINE])
    assert inlined(blob, 0) == ({AT_LOW_PC: (FORM_ADDR, 0x401000)}, 16)


@functools.cache
def _fuzz_base(version: int) -> tuple[BinaryImage, dict[str, tuple[int, int]]]:
    """A forged image whose DWARF has skipped DIEs, links, ranges, two
    inline sites, one of them with a range list, and a line table (in
    DWARF 5 with line_strp paths and MD5s). In DWARF 5 a hand-assembled
    unit follows, which reads a name through .debug_str_offsets and an
    address through .debug_addr."""
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
        inline_sites=(
            forge.InlineSiteSpec("host", "tiny", 0x401008, 0x401010),
            forge.InlineSiteSpec(
                "host", "split", 0, 0, ranges=((0x401010, 0x401014), (0x401018, 0x40101C))
            ),
        ),
        word_size=64,
        dwarf_versions=(version,),
        cu_names=("fuzz.c",),
        line_tables=(
            forge.LineTableSpec(
                files=(("fuzz.c", 0), ("fuzz.h", 1)),
                directories=("/src", "/inc")[version < 5 :],
                path_form="line_strp" if version == 5 else "string",
                md5=version == 5,
            ),
        ),
    )
    image = elf.parse_image(emit(spec))
    if version == 5:
        image = _with_indexed_unit(image)
    spans = {s.name: (s.file_offset, s.size) for s in image.sections}
    return image, spans


def _with_indexed_unit(image: BinaryImage) -> BinaryImage:
    """``image``'s debug sections, with a DWARF 5 unit after its own whose
    subprograms are named "indexed" by strx3 and placed at 0x401030 by
    addrx3, each through entry 0 of its table."""
    blobs = {
        s.name: image.raw[s.file_offset : s.file_offset + s.size]
        for s in image.sections
        if s.name.startswith(".debug_")
    }
    abbrev = blobs[".debug_abbrev"]
    dies = [
        _die(12, struct.pack("<II", 8, 8)),  # str_offsets_base, addr_base
        _die(13, bytes(3), struct.pack("<QI", 0x401000, 16)),
        _die(14, b"addressed\x00", bytes(3), struct.pack("<I", 16)),
    ]
    blobs[".debug_info"] += _headed_unit(struct.pack("<HBBI", 5, 1, 8, len(abbrev)), dies)
    blobs[".debug_abbrev"] = abbrev + _abbrev_blob()
    blobs[".debug_str"] = b"\x00indexed\x00"
    blobs[".debug_str_offsets"] = struct.pack("<IHHI", 8, 5, 0, 1)
    blobs[".debug_addr"] = struct.pack("<IHBBQ", 12, 5, 8, 0, 0x401030)
    return _synthetic_image(list(blobs.items()))


@pytest.mark.parametrize("version", [4, 5])
def test_fuzz_base_images_read_cleanly(version):
    image, _spans = _fuzz_base(version)
    records, diags = extract_debug_functions(image)
    names = ["host", "split", "tiny"] + (["addressed", "indexed"] if version == 5 else [])
    assert sorted(r.name for r in records) == sorted(names)
    # The copy of split inlined into host; split's entry is in its first range.
    assert [d.code for d in diags] == [GT_DISCONTIGUOUS_RANGE]


# The sections a flip lands in, by DWARF version; each base image has them.
_FLIP_SECTIONS = {
    4: [".debug_info", ".debug_abbrev", ".debug_ranges", ".debug_line"],
    5: [
        ".debug_info",
        ".debug_abbrev",
        ".debug_rnglists",
        ".debug_addr",
        ".debug_str_offsets",
        ".debug_line",
        ".debug_line_str",
    ],
}
_FLIPS = dict(
    target=st.sampled_from(
        [(version, section) for version, names in _FLIP_SECTIONS.items() for section in names]
    ),
    flips=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)),
        min_size=1,
        max_size=4,
    ),
)


def _flipped(target: tuple[int, str], flips) -> BinaryImage:
    version, section = target
    image, spans = _fuzz_base(version)
    offset, size = spans[section]
    raw = bytearray(image.raw)
    for at, mask in flips:
        raw[offset + at % size] ^= mask
    return dataclasses.replace(image, raw=bytes(raw))


@settings(max_examples=400)
@given(**_FLIPS)
def test_flipped_debug_bytes_yield_only_records_and_diagnostics(target, flips):
    records, diags = extract_debug_functions(_flipped(target, flips))
    assert all(isinstance(r, DebugFunctionRecord) for r in records)
    assert all(isinstance(d, Diagnostic) for d in diags)


@settings(max_examples=200)
@given(
    target=st.sampled_from([(4, ".debug_line"), (5, ".debug_line"), (5, ".debug_line_str")]),
    flips=_FLIPS["flips"],
)
def test_flipped_line_table_bytes_change_only_source_files(target, flips):
    """Damage to the line table or its strings keeps every record but its
    source file, and adds at most one warning per unit."""
    base_records, base_diags = extract_debug_functions(_fuzz_base(target[0])[0])
    records, diags = extract_debug_functions(_flipped(target, flips))
    assert [dataclasses.replace(r, decl_file="") for r in records] == [
        dataclasses.replace(r, decl_file="") for r in base_records
    ]
    extra = [d for d in diags if d not in base_diags]
    assert [(d.severity, d.code) for d in extra] in ([], [("warning", GT_BAD_LINE_TABLE)])


@settings(max_examples=400)
@given(**_FLIPS)
def test_plans_read_what_the_full_decoder_reads(target, flips):
    """With no plan, every DIE goes through the full decoder; the records
    and diagnostics, error messages included, must not change."""
    image = _flipped(target, flips)
    planned = extract_debug_functions(image)
    with mock.patch.object(dwarf, "_compile_plan", lambda *args: None):
        full = extract_debug_functions(image)
    assert planned == full


def test_the_read_set_is_every_attribute_the_reader_names():
    """A lookup of an attribute left out of the read sets would find it
    missing from every planned DIE; only a subprogram keeps its entry pc."""
    named = {value for name, value in vars(dwarf).items() if name.startswith("DW_AT_")}
    assert len(named) == 16
    assert set().union(*dwarf._READS.values()) == named
    assert [tag for tag, reads in dwarf._READS.items() if AT_ENTRY_PC in reads] == [
        TAG_SUBPROGRAM
    ]
