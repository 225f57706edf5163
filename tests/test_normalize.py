import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import corpuscheck
import oracles
from bintruth import byteclass, elf, forge, normalize
from bintruth.dwarf import DebugFunctionRecord
from bintruth.forge import (
    BinarySpec,
    DwarfFuncSpec,
    FunctionSpec,
    SectionSpec,
    TwinSpec,
    emit,
)
from bintruth.model import (
    DIAGNOSTIC_CODES,
    GT_ALIAS_MERGED,
    GT_INCOMPLETE_EXCLUDED,
    GT_MULTI_ENTRY_MERGED,
    GT_PADDING_TRIMMED,
    GT_SIZE_OVERLAP,
    GT_START_MISMATCH,
    SEVERITIES,
    Diagnostic,
    SectionRecord,
    SymbolRecord,
)
from bintruth.normalize import (
    BinarySummary,
    GroundTruthDocument,
    GroundTruthFunction,
    RunConfig,
    annotate_noreturn,
    build_ground_truth,
    cluster_specializations,
    dedupe_aliases,
    mark_uncalled,
    match_debug_records,
    merge_fallthrough_entries,
    parse_call_edges,
    parse_name_list,
    resolve_boundaries,
    trim_padding,
)

TEXT = SectionRecord(".text", 0x401000, 0x1000, True, True, 0)


def _image_with(symbols, sections=(TEXT,), raw=None):
    if raw is None:
        raw = b"\x90" * 0x2000
    from bintruth.model import BinaryImage, digest_binary

    return BinaryImage(
        source_path="mem",
        content_digest=digest_binary(raw),
        word_size=64,
        endianness="little",
        machine_code=62,
        sections=tuple(sections),
        symbols=tuple(symbols),
        raw=raw,
    )


def _func(name, value, size, binding="local"):
    return SymbolRecord(name, value, size, binding)


# --- name lists and call edges ----------------------------------------------


def test_parse_name_list_strips_comments_and_blanks():
    text = "# leading comment\nabort\n\nexit # trailing\n  _exit  \n"
    assert parse_name_list(text) == ("abort", "exit", "_exit")


def test_parse_call_edges_accepts_hex_and_decimal():
    text = "0x401000 0x401010\n# comment\n16 32\n"
    assert parse_call_edges(text) == ((0x401000, 0x401010), (16, 32))


def test_parse_call_edges_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 1"):
        parse_call_edges("0x10\n")
    for text, message in (
        ("0x10 0x20\n-5 16\n", "line 2: addresses cannot be negative"),
        ("main 0x10\n", "line 1: 'main 0x10' is not two addresses"),
    ):
        with pytest.raises(normalize.CallEdgeError, match=message):
            parse_call_edges(text)


@pytest.mark.parametrize(
    ("fields", "error"),
    [
        ({"start_mismatch_tolerance": -1}, ValueError),
        ({"start_mismatch_tolerance": True}, ValueError),
        ({"start_mismatch_tolerance": 1.0}, ValueError),
        ({"call_edges": ((-5, 16),)}, normalize.CallEdgeError),
        ({"call_edges": ((16, True),)}, normalize.CallEdgeError),
        ({"call_edges": (("0x10", 16),)}, normalize.CallEdgeError),
        ({"call_edges": ((1, 2, 3),)}, normalize.CallEdgeError),
        ({"call_edges": (16,)}, normalize.CallEdgeError),
    ],
    ids=[
        "negative-tolerance",
        "bool-tolerance",
        "float-tolerance",
        "negative-address",
        "bool-address",
        "str-address",
        "three-addresses",
        "bare-address",
    ],
)
def test_run_config_refuses_what_a_document_cannot_hold(fields, error):
    # Refused where the config is built, so no document ever carries it.
    with pytest.raises(error):
        RunConfig(**fields)


def test_run_config_accepts_valid_fields():
    config = RunConfig(start_mismatch_tolerance=3, call_edges=((0, 0x401000),))
    assert config.call_edges == ((0, 0x401000),)
    assert RunConfig(call_edges=()).call_edges == ()


def test_data_files_are_read_once():
    assert normalize.default_noreturn_seeds() is normalize.default_noreturn_seeds()
    assert normalize.default_scaffold_names() is normalize.default_scaffold_names()
    assert normalize.padding_alphabet("x86") is normalize.padding_alphabet("x86")


def test_default_lists_are_nonempty():
    assert "abort" in normalize.default_noreturn_seeds()
    assert "_start" in normalize.default_scaffold_names()
    assert normalize.padding_alphabet("x86")
    assert normalize.padding_alphabet("x86") == normalize.padding_alphabet("x86_64")
    assert normalize.padding_alphabet("other") == ()


# --- the document's derived completeness --------------------------------------


def _document(diagnostics):
    binary = BinarySummary("mem", bytes(32), 64, 62)
    return GroundTruthDocument(binary, (), byteclass.ByteClassMap(()), diagnostics)


@given(
    st.lists(
        st.tuples(st.sampled_from(SEVERITIES), st.sampled_from(sorted(DIAGNOSTIC_CODES))),
        max_size=4,
    )
)
def test_a_document_is_incomplete_exactly_when_an_error_excludes(pairs):
    doc = _document(tuple(Diagnostic(sev, code, "m") for sev, code in pairs))
    assert doc.complete == (("error", GT_INCOMPLETE_EXCLUDED) not in pairs)


def test_completeness_cannot_be_set_apart_from_the_diagnostics():
    doc = _document(())
    for complete in (True, False):
        # ValueError before Python 3.13, TypeError since.
        with pytest.raises((TypeError, ValueError), match="init=False"):
            dataclasses.replace(doc, complete=complete)
    with pytest.raises(TypeError):
        GroundTruthDocument(doc.binary, (), doc.byte_classes, (), complete=False)


# --- alias dedup -------------------------------------------------------------


def _dedupe(syms, sections=(TEXT,)):
    """dedupe_aliases over ``syms`` as function_symbols hands them on:
    sorted, each paired with its section."""
    image = _image_with(syms, sections)
    ordered = sorted(syms, key=lambda s: (s.value, s.name, s.binding, s.size))
    return dedupe_aliases([(s, elf.section_of(image, s.value)) for s in ordered])


def test_dedupe_prefers_global_over_weak_over_local():
    syms = [
        _func("impl", 0x401000, 16, "local"),
        _func("api", 0x401000, 16, "global"),
        _func("api_weak", 0x401000, 16, "weak"),
    ]
    works, diags = _dedupe(syms)
    (work,) = works
    assert work.canonical == "api"
    assert work.aliases == ["api_weak", "impl"]
    assert work.flags == {"merged_alias"}
    (diag,) = diags
    assert diag.code == GT_ALIAS_MERGED
    assert diag.severity == "info"


def test_dedupe_ties_break_by_name():
    syms = [_func("zeta", 0x401000, 8, "global"), _func("alpha", 0x401000, 8, "global")]
    works, _ = _dedupe(syms)
    assert works[0].canonical == "alpha"


def test_dedupe_borrows_size_when_canonical_has_none():
    syms = [
        _func("api", 0x401000, 0, "global"),
        _func("impl", 0x401000, 24, "local"),
    ]
    works, _ = _dedupe(syms)
    assert works[0].size == 24


def test_dedupe_without_duplicates_is_quiet():
    syms = [_func("a", 0x401000, 8), _func("b", 0x401010, 8)]
    works, diags = _dedupe(syms)
    assert [w.start for w in works] == [0x401000, 0x401010]
    assert diags == []
    assert all(not w.flags for w in works)


def test_dedupe_keeps_a_lone_sizeless_symbol_at_size_zero():
    works, diags = _dedupe([_func("f", 0x401000, 0)])
    (work,) = works
    assert (work.size, work.aliases, work.flags) == (0, [], set())
    assert work.tail == ("f", 0x401000, 0)
    assert diags == []


# --- fall-through merging -----------------------------------------------------


def _works(*triples):
    syms = [_func(n, v, s) for n, v, s in triples]
    works, _ = _dedupe(syms)
    return works


def test_merge_folds_dot_continuations():
    works = _works(("f", 0x401000, 8), ("f.", 0x401008, 8))
    merged, diags = merge_fallthrough_entries(works)
    (work,) = merged
    assert work.entries == [0x401000, 0x401008]
    assert work.aliases == ["f."]
    assert "multi_entry" in work.flags
    assert work.size == 16
    assert [d.code for d in diags] == [GT_MULTI_ENTRY_MERGED]


def test_merge_cascades_through_chains():
    works = _works(("f", 0x401000, 8), ("f.", 0x401008, 8), ("f..", 0x401010, 8))
    merged, diags = merge_fallthrough_entries(works)
    (work,) = merged
    assert work.entries == [0x401000, 0x401008, 0x401010]
    assert work.size == 24
    assert len(diags) == 2


def test_merge_requires_exact_adjacency():
    works = _works(("f", 0x401000, 8), ("f.", 0x40100C, 8))
    merged, _ = merge_fallthrough_entries(works)
    assert len(merged) == 2


def test_merge_requires_a_known_parent_size():
    works = _works(("f", 0x401000, 0), ("f.", 0x401008, 8))
    merged, _ = merge_fallthrough_entries(works)
    assert len(merged) == 2


def test_merge_requires_the_dot_name():
    works = _works(("f", 0x401000, 8), ("g", 0x401008, 8))
    merged, _ = merge_fallthrough_entries(works)
    assert len(merged) == 2


def test_merge_does_not_cross_sections():
    text2 = SectionRecord(".text2", 0x402000, 0x1000, True, True, 0x1000)
    syms = [_func("f", 0x401FF8, 8), _func("f.", 0x402000, 8)]
    works, _ = _dedupe(syms, (TEXT, text2))
    merged, _ = merge_fallthrough_entries(works)
    assert len(merged) == 2


def test_merge_with_sizeless_continuation_defers_the_boundary():
    works = _works(("f", 0x401000, 8), ("f.", 0x401008, 0))
    merged, _ = merge_fallthrough_entries(works)
    (work,) = merged
    assert work.size == 0  # resolved later against the next boundary
    assert work.entries == [0x401000, 0x401008]


# --- boundary resolution ------------------------------------------------------


def test_boundaries_clamp_overlapping_declared_sizes():
    works = _works(("a", 0x401000, 0x20), ("b", 0x401010, 8))
    diags = resolve_boundaries(works)
    by_name = {w.canonical: w for w in works}
    assert by_name["a"].end_raw == 0x401010
    assert by_name["b"].end_raw == 0x401018
    assert [d.code for d in diags] == [GT_SIZE_OVERLAP]
    assert diags[0].severity == "warning"


def test_boundaries_fill_missing_sizes_from_the_next_start():
    works = _works(("a", 0x401000, 0), ("b", 0x401030, 8))
    resolve_boundaries(works)
    assert works[0].end_raw == 0x401030


def test_boundaries_for_the_last_function_use_the_section_end():
    works = _works(("only", 0x401FF0, 0),)
    resolve_boundaries(works)
    assert works[0].end_raw == TEXT.end


def test_boundaries_ignore_other_sections_for_next_start():
    text2 = SectionRecord(".text2", 0x402000, 0x100, True, True, 0x1000)
    syms = [_func("a", 0x401000, 0), _func("b", 0x402010, 8)]
    works, _ = _dedupe(syms, (TEXT, text2))
    resolve_boundaries(works)
    assert works[0].end_raw == TEXT.end  # not clamped by .text2's b


# --- padding trim -------------------------------------------------------------


def _trimmable_image(body: bytes):
    raw = body + b"\x90" * (0x1000 - len(body)) + b"\x90" * 0x1000
    return _image_with([], raw=raw)


def test_trim_removes_padding_suffixes():
    image, doc = corpuscheck.build_document(
        emit(forge.preset("padding-icc-vs-gcc"))
    )
    icc, gcc = doc.functions
    assert icc.canonical_name == "icc_style"
    assert icc.end_exclusive_raw - icc.start == 16
    assert icc.end_exclusive_trimmed - icc.start == 13
    assert gcc.end_exclusive_raw - gcc.start == 13
    assert gcc.end_exclusive_trimmed - gcc.start == 13
    trims = [d for d in doc.diagnostics if d.code == GT_PADDING_TRIMMED]
    assert len(trims) == 1
    assert trims[0].span == (icc.end_exclusive_trimmed, 3)


def test_trim_never_cuts_an_entry_point():
    body = bytes([0x89] * 6) + b"\xc3" + b"\x90" * 9
    spec = BinarySpec(
        sections=(SectionSpec(".text", 0x401000, executable=True),),
        functions=(
            FunctionSpec(
                "multi",
                0,
                body,
                symbol_size=12,
                trailing_dot_twin=TwinSpec(offset=12, size=4),
            ),
        ),
    )
    _image, doc = corpuscheck.build_document(emit(spec))
    (fn,) = doc.functions
    assert fn.entry_points == (0x401000, 0x40100C)
    # Padding starts at offset 7 but the second entry pins the trim.
    assert fn.end_exclusive_trimmed == 0x40100D
    assert fn.end_exclusive_raw == 0x401010


def test_trim_keeps_at_least_one_byte():
    spec = BinarySpec(
        sections=(SectionSpec(".text", 0x401000, executable=True),),
        functions=(FunctionSpec("all_pad", 0, b"\x90" * 8),),
    )
    _image, doc = corpuscheck.build_document(emit(spec))
    (fn,) = doc.functions
    assert fn.end_exclusive_trimmed == fn.start + 1


def test_trim_skips_machines_without_an_alphabet():
    spec = BinarySpec(
        sections=(SectionSpec(".text", 0x401000, executable=True),),
        functions=(FunctionSpec("f", 0, b"\x31\xc0\xc3" + b"\x90" * 5),),
        machine_code=40,
    )
    _image, doc = corpuscheck.build_document(emit(spec))
    (fn,) = doc.functions
    assert fn.end_exclusive_trimmed == fn.end_exclusive_raw


_LONGEST_UNIT = max(len(unit) for unit in normalize.padding_alphabet("x86_64"))
# Runs of bytes that no padding unit starts with, longer than any unit, so
# a backward scan has to give up before reaching the front of the blob.
_JUNK_RUNS = st.lists(
    st.sampled_from(b"\x31\x55\xc3\xe8"),
    min_size=_LONGEST_UNIT + 1,
    max_size=2 * _LONGEST_UNIT + 2,
).map(bytes)


@settings(max_examples=150, deadline=None)
@given(
    parts=st.lists(
        st.one_of(
            st.sampled_from(normalize.padding_alphabet("x86_64")),
            _JUNK_RUNS,
            st.binary(min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=6,
    ),
    entry_pick=st.integers(min_value=0),
)
def test_padding_suffix_and_trim_agree_with_the_oracle(parts, entry_pick):
    alphabet = normalize.padding_alphabet("x86_64")
    blob = b"".join(parts)
    start = byteclass.padding_suffix_start(blob, alphabet)
    assert (start == 0) == oracles.tiles_as_padding(blob, alphabet)
    assert oracles.tiles_as_padding(blob[start:], alphabet)
    assert min(max(start, 1), len(blob)) == oracles.suffix_trim(blob, alphabet, (0,))

    second = entry_pick % len(blob)
    syms = [_func("f", TEXT.vaddr, len(blob))]
    image = _trimmable_image(blob)
    works, _ = _dedupe(syms)
    works[0].entries = sorted({TEXT.vaddr, TEXT.vaddr + second})
    resolve_boundaries(works)
    trim_padding(works, image, alphabet)
    kept = oracles.suffix_trim(blob, alphabet, (0, second))
    assert works[0].end_trimmed == TEXT.vaddr + kept


def test_trim_on_fileless_bytes_marks_the_truth_incomplete():
    bss = SectionRecord(".bss", 0x402000, 0x100, True, True, None)
    syms = [_func("ghost", 0x402000, 16)]
    image = _image_with(syms, (TEXT, bss))
    works, _ = _dedupe(syms, (TEXT, bss))
    resolve_boundaries(works)
    diags = trim_padding(works, image, normalize.padding_alphabet("x86_64"))
    assert [d.code for d in diags] == [GT_INCOMPLETE_EXCLUDED]
    assert diags[0].severity == "error"


def test_a_debug_extent_keeps_a_last_call_whole(preset_docs):
    """A body that ends in a call or jmp whose displacement ends in 00 keeps
    it when its DWARF record starts at its start; without a record the
    alphabet alone decides and cuts the 00 bytes."""
    doc = preset_docs["call-at-end"]
    cut = {f.canonical_name: f.end_exclusive_raw - f.end_exclusive_trimmed for f in doc.functions}
    assert cut == {
        "ends_in_call": 0,
        "ends_in_jmp": 0,
        "ends_in_call_symtab_only": 2,
        "ends_in_jmp_symtab_only": 1,
    }
    assert [d.message for d in doc.diagnostics if d.code == GT_PADDING_TRIMMED] == [
        "2 padding byte(s) trimmed off 'ends_in_call_symtab_only'",
        "1 padding byte(s) trimmed off 'ends_in_jmp_symtab_only'",
    ]


@pytest.mark.parametrize(
    ("debug_end", "kept", "suffix"),
    [
        (None, 3, ""),
        (2, 3, ""),  # below the padding: the alphabet bounds the trim
        (3, 3, ""),
        (5, 5, ", down to the end of its DWARF record"),
        (8, 8, None),  # at end_raw: nothing is trimmed
        (20, 8, None),  # past end_raw
    ],
)
def test_a_debug_extent_floors_the_trim(debug_end, kept, suffix):
    body = b"\x31\xc0\xc3" + b"\x90" * 5
    works = _works(("f", TEXT.vaddr, len(body)))
    resolve_boundaries(works)
    works[0].debug_end = TEXT.vaddr + debug_end if debug_end is not None else 0
    diags = trim_padding(works, _trimmable_image(body), normalize.padding_alphabet("x86_64"))
    assert works[0].end_trimmed == TEXT.vaddr + kept
    if suffix is None:
        assert diags == []
    else:
        (diag,) = diags
        assert diag.message == f"{8 - kept} padding byte(s) trimmed off 'f'{suffix}"
        assert diag.span == (TEXT.vaddr + kept, 8 - kept)


# --- specialization clusters --------------------------------------------------


def test_clusters_group_numbered_clones_with_their_base():
    works = _works(
        ("fold", 0x401000, 8),
        ("fold..0", 0x401010, 8),
        ("fold..1", 0x401020, 8),
        ("other..x", 0x401030, 8),
        ("plain", 0x401040, 8),
    )
    cluster_specializations(works)
    by_name = {w.canonical: w for w in works}
    assert by_name["fold"].group == "fold"
    assert by_name["fold..0"].group == "fold"
    assert by_name["fold..1"].group == "fold"
    assert by_name["other..x"].group is None  # suffix is not a number
    assert by_name["plain"].group is None
    assert "specialized" in by_name["fold..0"].flags
    assert "specialized" not in by_name["fold"].flags


def test_clusters_without_a_base_still_group(preset_docs):
    doc = preset_docs["listing2"]
    groups = {}
    for fn in doc.functions:
        groups.setdefault(fn.specialization_group, []).append(fn.canonical_name)
    assert sorted(groups["integer_constant"]) == [
        f"integer_constant..{i}" for i in range(5)
    ]
    assert sorted(groups["operand"]) == ["operand", "operand..0"]
    assert sorted(groups["expr"]) == ["expr..0", "expr..1"]


# --- debug record matching ----------------------------------------------------


def _record(name, low, **kw):
    base = dict(
        name=name,
        low_pc=low,
        end_exclusive=None,
        decl_file="src.c",
        decl_line=3,
        noreturn=False,
    )
    base.update(kw)
    return DebugFunctionRecord(**base)


def test_matching_attaches_provenance_and_source():
    works = _works(("f", 0x401000, 8))
    diags = match_debug_records(works, [_record("f", 0x401000, noreturn=True)], 0)
    assert diags == []
    assert works[0].provenance == {"symtab", "dwarf"}
    assert works[0].noreturn
    assert works[0].source == ("src.c", 3)


def test_matching_accepts_secondary_entries():
    works = _works(("f", 0x401000, 8), ("f.", 0x401008, 8))
    merged, _ = merge_fallthrough_entries(works)
    diags = match_debug_records(merged, [_record("f", 0x401008)], 0)
    assert diags == []
    assert merged[0].provenance == {"symtab", "dwarf"}


def test_matching_tolerance_bridges_small_offsets():
    works = _works(("f", 0x401000, 8))
    strict = match_debug_records(works, [_record("f", 0x401002)], 0)
    assert {d.code for d in strict} == {GT_START_MISMATCH, GT_INCOMPLETE_EXCLUDED}
    works = _works(("f", 0x401000, 8))
    relaxed = match_debug_records(works, [_record("f", 0x401002)], 2)
    assert relaxed == []
    assert works[0].provenance == {"symtab", "dwarf"}


def test_only_a_record_at_the_start_floors_the_trim():
    """A record at the start gives the largest of its ends; one at a
    secondary entry, one without an extent and one matched only through
    the tolerance give none."""
    works = _works(("f", 0x401000, 8), ("f.", 0x401008, 8), ("g", 0x401020, 8))
    works, _ = merge_fallthrough_entries(works)
    records = [
        _record("f", 0x401000, end_exclusive=0x40100C),
        _record("f", 0x401000, end_exclusive=0x40100E),
        _record("f", 0x401000),
        _record("f", 0x401008, end_exclusive=0x401010),
        _record("g", 0x401021, end_exclusive=0x401028),
    ]
    assert match_debug_records(works, records, 1) == []
    assert [w.debug_end for w in works] == [0x40100E, 0]
    assert all("dwarf" in w.provenance for w in works)


def test_unmatched_record_marks_the_truth_incomplete():
    spec = BinarySpec(
        sections=(SectionSpec(".text", 0x401000, executable=True),),
        functions=(
            FunctionSpec("visible", 0, forge._fixed_body(16), dwarf=(DwarfFuncSpec(),)),
            FunctionSpec(
                "shadow",
                16,
                forge._fixed_body(16),
                emit_symbol=False,
                dwarf=(DwarfFuncSpec(),),
            ),
        ),
    )
    _image, doc = corpuscheck.build_document(emit(spec))
    assert not doc.complete
    assert [f.canonical_name for f in doc.functions] == ["visible"]
    codes = {d.code for d in doc.diagnostics if d.severity == "error"}
    assert GT_START_MISMATCH in codes
    assert GT_INCOMPLETE_EXCLUDED in codes


# --- annotations --------------------------------------------------------------


def test_noreturn_seeds_match_canonical_names_and_aliases():
    works = _works(("die_hard", 0x401000, 8), ("carries_on", 0x401010, 8))
    annotate_noreturn(works, ("die_hard",))
    assert "noreturn" in works[0].flags
    assert "noreturn" not in works[1].flags

    syms = [
        _func("impl", 0x401000, 8, "local"),
        _func("abort_alias", 0x401000, 8, "global"),
    ]
    aliased, _ = _dedupe(syms)
    annotate_noreturn(aliased, ("impl",))
    assert "noreturn" in aliased[0].flags


def test_scaffold_names_are_compiler_inserted_even_with_debug_info():
    spec = BinarySpec(
        sections=(SectionSpec(".text", 0x401000, executable=True),),
        functions=(
            FunctionSpec("_start", 0, forge._fixed_body(16), dwarf=(DwarfFuncSpec(),)),
            FunctionSpec("main", 16, forge._fixed_body(16), dwarf=(DwarfFuncSpec(),)),
            FunctionSpec("helper", 32, forge._fixed_body(16)),
        ),
    )
    _image, doc = corpuscheck.build_document(emit(spec))
    flags = {f.canonical_name: f.flags for f in doc.functions}
    assert "compiler_inserted" in flags["_start"]  # scaffold name
    assert "compiler_inserted" in flags["helper"]  # no debug info mentions it
    assert "compiler_inserted" not in flags["main"]


def test_unreadable_debug_info_flags_only_scaffold_names():
    inverted = DwarfFuncSpec(ranges=((0x401018, 0x401010),))  # fails the only unit
    spec = BinarySpec(
        sections=(SectionSpec(".text", 0x401000, executable=True),),
        functions=(
            FunctionSpec("_start", 0, forge._fixed_body(16), dwarf=(DwarfFuncSpec(),)),
            FunctionSpec("main", 16, forge._fixed_body(16), dwarf=(inverted,)),
            FunctionSpec("helper", 32, forge._fixed_body(16)),
        ),
    )
    _image, doc = corpuscheck.build_document(emit(spec))
    assert not doc.complete
    flags = {f.canonical_name: f.flags for f in doc.functions}
    assert "compiler_inserted" in flags["_start"]
    assert "compiler_inserted" not in flags["main"]
    assert "compiler_inserted" not in flags["helper"]


def test_binary_without_debug_info_flags_everything(preset_docs):
    doc = preset_docs["scaffold"]
    assert len(doc.functions) == 9
    assert all("compiler_inserted" in f.flags for f in doc.functions)


def test_uncalled_marking_respects_any_entry():
    works = _works(("f", 0x401000, 8), ("f.", 0x401008, 8), ("g", 0x401010, 8))
    merged, _ = merge_fallthrough_entries(works)
    mark_uncalled(merged, ((0x400000, 0x401008),))
    by_name = {w.canonical: w for w in merged}
    assert "uncalled" not in by_name["f"].flags  # secondary entry is a target
    assert "uncalled" in by_name["g"].flags


# --- whole pipeline -----------------------------------------------------------


def test_multi_entry_preset_merges_by_default(preset_docs):
    doc = preset_docs["listing1"]
    (fn,) = doc.functions
    assert fn.canonical_name == "fix_syms"
    assert fn.entry_points == (0x080B41C0, 0x080B41C8)
    assert fn.aliases == ("fix_syms.",)
    assert "multi_entry" in fn.flags
    assert any(d.code == GT_MULTI_ENTRY_MERGED for d in doc.diagnostics)


def test_multi_entry_merge_can_be_disabled(preset_bytes):
    _image, doc = corpuscheck.build_document(
        preset_bytes["listing1"], RunConfig(merge_multi_entry=False)
    )
    names = [f.canonical_name for f in doc.functions]
    assert names == ["fix_syms", "fix_syms."]
    assert all("multi_entry" not in f.flags for f in doc.functions)


def test_stripped_binary_is_incomplete(preset_docs):
    doc = preset_docs["stripped"]
    assert doc.functions == ()
    assert not doc.complete
    assert any(
        d.code == GT_INCOMPLETE_EXCLUDED and d.severity == "error"
        for d in doc.diagnostics
    )
    assert doc.byte_classes.runs  # bytes still classified


def test_corpus_matches_its_by_construction_truth(small_corpus):
    problems = []
    for fixture in small_corpus:
        _image, doc = corpuscheck.build_document(fixture.data)
        for line in corpuscheck.expectation_mismatches(fixture, doc):
            problems.append(f"{fixture.name}: {line}")
    assert problems == []


def test_corpus_satisfies_document_invariants(small_corpus):
    problems = []
    for fixture in small_corpus:
        image, doc = corpuscheck.build_document(fixture.data)
        for line in corpuscheck.invariant_failures(image, doc):
            problems.append(f"{fixture.name}: {line}")
    assert problems == []


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_normalization_ignores_symbol_table_order(seed):
    fixture = forge.generate_corpus(seed=seed, count=1)[0]
    assert corpuscheck.order_independence_failures(fixture.data, seed ^ 1) == []


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_normalization_is_deterministic(seed):
    fixture = forge.generate_corpus(seed=seed, count=1)[0]
    _image_a, doc_a = corpuscheck.build_document(fixture.data)
    _image_b, doc_b = corpuscheck.build_document(fixture.data)
    assert doc_a == doc_b


def test_ground_truth_function_validates_itself():
    with pytest.raises(ValueError, match="entry point"):
        GroundTruthFunction("f", (), 1, 1)
    with pytest.raises(ValueError, match="sorted"):
        GroundTruthFunction("f", (2, 1), 3, 3)
    with pytest.raises(ValueError, match="flags"):
        GroundTruthFunction("f", (1,), 3, 3, flags=frozenset({"bogus"}))
    with pytest.raises(ValueError, match="provenance"):
        GroundTruthFunction("f", (1,), 3, 3, provenance=frozenset({"psychic"}))


def test_entry_points_are_a_strictly_increasing_tuple():
    assert GroundTruthFunction("f", (0x10, 0x18), 0x20, 0x20).start == 0x10
    with pytest.raises(ValueError, match="without repeats"):
        GroundTruthFunction("f", (0x10, 0x10), 0x20, 0x20)
    with pytest.raises(ValueError, match="without repeats"):
        GroundTruthFunction("f", (0x10, 0x18, 0x18), 0x20, 0x20)
    with pytest.raises(ValueError, match="must be a tuple, not a list"):
        GroundTruthFunction("f", [0x10], 0x20, 0x20)
