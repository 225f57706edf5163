import hashlib
import struct

import pytest

from bintruth import forge
from bintruth.elf import parse_image
from bintruth.forge import (
    BinarySpec,
    DwarfFuncSpec,
    ExtraSymbolSpec,
    FunctionSpec,
    InlineSiteSpec,
    InvalidSpecError,
    SectionSpec,
    TwinSpec,
    emit,
    generate_corpus,
    preset,
)

TEXT = SectionSpec(".text", 0x401000, executable=True)


def one_function(**kwargs):
    fn = FunctionSpec("f", 0, b"\x89\xc8\xc3", **kwargs)
    return BinarySpec(sections=(TEXT,), functions=(fn,), word_size=64)


def _user_section(name):
    return SectionSpec(name, 0, content=b"user bytes\x00", allocated=False)


def _ranged(version):
    ranges = ((0x401000, 0x401001),)
    fn = FunctionSpec("f", 0, b"\xc3", dwarf=(DwarfFuncSpec(ranges=ranges),))
    return {"functions": (fn,), "dwarf_versions": (version,)}


def _ranged_site(version):
    """A spec whose only range list is an inlined copy's."""
    functions = tuple(
        FunctionSpec(name, offset, b"\xc3", dwarf=(DwarfFuncSpec(),))
        for name, offset in (("f", 0), ("g", 1))
    )
    site = InlineSiteSpec("f", "g", 0, 0, ranges=((0x401000, 0x401001),))
    return {"functions": functions, "inline_sites": (site,), "dwarf_versions": (version,)}


_DESCRIBED = {"functions": (FunctionSpec("f", 0, b"\xc3", dwarf=(DwarfFuncSpec(),)),)}


def _clash(name, **fields):
    """A spec giving a section named like one emit writes itself."""
    spec = BinarySpec(sections=(TEXT, _user_section(name)), **fields)
    return spec, f"'{name}' is one the forge writes"


# --- spec validation ----------------------------------------------------------


@pytest.mark.parametrize(
    ("spec", "message"),
    [
        (
            BinarySpec(sections=(TEXT, TEXT)),
            "duplicate section",
        ),
        (
            BinarySpec(sections=(SectionSpec(".text", 0x401000, kind="mystery"),)),
            "section kind",
        ),
        (
            BinarySpec(
                sections=(SectionSpec(".bss", 0x401000, kind="nobits", content=b"x"),)
            ),
            "carries content",
        ),
        (
            BinarySpec(
                sections=(
                    SectionSpec(".a", 0x401000, content=b"\x00" * 32),
                    SectionSpec(".b", 0x401010, content=b"\x00" * 32),
                )
            ),
            "overlap",
        ),
        (
            BinarySpec(
                sections=(TEXT,),
                functions=(FunctionSpec("f", 0, b"\xc3", section=".data"),),
            ),
            "unknown section",
        ),
        (
            BinarySpec(sections=(TEXT,), functions=(FunctionSpec("f", 0, b""),)),
            "empty body",
        ),
        (
            BinarySpec(
                sections=(TEXT,),
                functions=(
                    FunctionSpec("f", 0, b"\x90" * 8),
                    FunctionSpec("g", 4, b"\x90" * 8),
                ),
            ),
            "overlap",
        ),
        (
            BinarySpec(
                sections=(TEXT,),
                functions=(
                    FunctionSpec(
                        "f", 0, b"\x90" * 8, trailing_dot_twin=TwinSpec(offset=0)
                    ),
                ),
            ),
            "twin entry",
        ),
        (
            BinarySpec(
                sections=(TEXT,),
                functions=(
                    FunctionSpec(
                        "f", 0, b"\x90" * 8, trailing_dot_twin=TwinSpec(offset=8)
                    ),
                ),
            ),
            "twin entry",
        ),
        (
            BinarySpec(
                sections=(TEXT,),
                functions=(
                    FunctionSpec("f", 0, b"\xc3", dwarf=(DwarfFuncSpec(unit=1),)),
                ),
            ),
            "missing unit",
        ),
        (
            BinarySpec(
                sections=(TEXT,),
                functions=(
                    FunctionSpec(
                        "f", 0, b"\xc3", dwarf=(DwarfFuncSpec(highpc_form="data4"),)
                    ),
                ),
                dwarf_versions=(2,),
            ),
            "version 4",
        ),
        (
            BinarySpec(
                sections=(TEXT,),
                functions=(
                    FunctionSpec(
                        "f", 0, b"\xc3", dwarf=(DwarfFuncSpec(highpc_form="data4"),)
                    ),
                ),
                dwarf_versions=(3,),
            ),
            "version 4",
        ),
        (
            BinarySpec(
                sections=(TEXT,),
                functions=(
                    FunctionSpec(
                        "f", 0, b"\xc3", dwarf=(DwarfFuncSpec(highpc_form="sdata"),)
                    ),
                ),
            ),
            "high pc form",
        ),
        (
            BinarySpec(
                sections=(TEXT,),
                extra_symbols=(ExtraSymbolSpec("blob", ".data", 0),),
            ),
            "unknown section",
        ),
        (
            BinarySpec(
                sections=(TEXT, SectionSpec(".bss", 0x402000, kind="nobits", size=32)),
                functions=(
                    FunctionSpec("ghost", 0, b"\x55\x48\x89\xe5\xc3", section=".bss"),
                ),
            ),
            "nobits section",
        ),
        (
            BinarySpec(
                sections=(TEXT,),
                functions=(FunctionSpec("f", 0, b"\xc3", dwarf=(DwarfFuncSpec(),)),),
                dwarf_versions=(6,),
            ),
            "DWARF version 6",
        ),
        (
            BinarySpec(
                sections=(TEXT,),
                functions=(
                    FunctionSpec(
                        "f", 0, b"\xc3", dwarf=(DwarfFuncSpec(name_via="linkage"),)
                    ),
                ),
            ),
            "name_via",
        ),
        (
            BinarySpec(
                sections=(TEXT,),
                functions=(FunctionSpec("f", 0, b"\xc3", dwarf=(DwarfFuncSpec(),)),),
                inline_sites=(InlineSiteSpec("f", "g", 0x401000, 0x401001),),
            ),
            "has no DIEs",
        ),
        _clash(".shstrtab"),
        _clash(".shstrtab", emit_symtab=False),
        _clash(".symtab"),
        _clash(".strtab"),
        _clash(".debug_info", **_DESCRIBED),
        _clash(".debug_abbrev", **_DESCRIBED),
        _clash(".debug_ranges", **_ranged(4)),
        _clash(".debug_rnglists", **_ranged(5)),
        (
            BinarySpec(
                sections=(TEXT,),
                functions=(
                    FunctionSpec("f", 0, b"\xc3", dwarf=(DwarfFuncSpec(),)),
                    FunctionSpec("g", 1, b"\xc3", dwarf=(DwarfFuncSpec(),)),
                ),
                inline_sites=(InlineSiteSpec("f", "g", 2**32 - 1, 2**32 + 7),),
            ),
            "inline site 'g' in 'f' at 0xffffffff-0x100000007 does not fit 32 bits",
        ),
        (
            BinarySpec(
                sections=(TEXT,),
                functions=(
                    FunctionSpec("f", 0, b"\xc3", dwarf=(DwarfFuncSpec(),)),
                    FunctionSpec("g", 1, b"\xc3", dwarf=(DwarfFuncSpec(),)),
                ),
                inline_sites=(
                    InlineSiteSpec(
                        "f", "g", 0, 0, ranges=((0x401000, 0x401001), (0x401002, 2**32))
                    ),
                ),
            ),
            "inline site 'g' in 'f' at 0x401002-0x100000000 does not fit 32 bits",
        ),
        _clash(".debug_ranges", **_ranged_site(4)),
        _clash(".debug_rnglists", **_ranged_site(5)),
    ],
)
def test_bad_specs_are_rejected(spec, message):
    with pytest.raises(InvalidSpecError, match=message):
        emit(spec)


@pytest.mark.parametrize(
    ("name", "spec_fields"),
    [
        (".symtab", {"emit_symtab": False}),
        (".strtab", {"emit_symtab": False}),
        (".debug_info", {}),
        (".debug_ranges", _ranged(5)),
        (".debug_rnglists", _ranged(4)),
    ],
    ids=[
        "symtab-no-symtab", "strtab-no-symtab", "debug_info-no-dwarf",
        "debug_ranges-v5", "debug_rnglists-v4",
    ],
)
def test_user_sections_may_take_names_the_forge_leaves_free(name, spec_fields):
    spec = BinarySpec(sections=(TEXT, _user_section(name)), **spec_fields)
    image = parse_image(emit(spec))
    [section] = [sec for sec in image.sections if sec.name == name]
    start = section.file_offset
    assert image.raw[start : start + section.size] == b"user bytes\x00"


def test_word_size_must_be_32_or_64():
    spec = BinarySpec(sections=(TEXT,), word_size=16)
    with pytest.raises(InvalidSpecError, match="word size"):
        emit(spec)


def test_unknown_preset_name():
    with pytest.raises(KeyError):
        preset("no-such-fixture")


# --- determinism --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(forge.PRESETS))
def test_presets_emit_deterministically(name):
    assert emit(preset(name)) == emit(preset(name))


def test_corpus_generation_is_deterministic():
    first = generate_corpus(seed=5, count=5)
    second = generate_corpus(seed=5, count=5)
    assert [f.data for f in first] == [f.data for f in second]
    assert [f.functions for f in first] == [f.functions for f in second]
    assert [f.diagnostic_codes for f in first] == [f.diagnostic_codes for f in second]
    # A different seed must actually change something.
    assert [f.data for f in generate_corpus(seed=6, count=5)] != [
        f.data for f in first
    ]


# Pinned so fixture bytes cannot drift silently; expectations elsewhere in the
# suite were frozen against exactly these images.
_PINNED = {
    "call-at-end": "e5812ea50817af593110e08a935803e5cfe4cf7e8138269f090c0e9fbbce0377",
    "highpc-twins": "325656f1a844a63c86c7d638dc12d2ceabc49469eb72205c3889b0e8fc60ef2f",
    "listing1": "28b69eff2c0817073d74ab5ee194083830c9bf632f90eb8d37ff40e47ecd7ca1",
    "listing2": "18f225d0257bb8d7689e115f35ee88a6a27bb5c5b909dc2ee873669171642e6a",
    "padding-icc-vs-gcc": "57fa239dbb735a200d98d2ebaab48e3ae4e340bdb89c34d6fdf4b5e5968ce388",
    "scaffold": "e49fe6d19e408399f2baebd9e2422891e7907efc581ef07d6409e3f9e19ede4b",
    "stripped": "e241c4fab540296d5aa56a2e467f0f192079908702e7892167d514543aa7fa10",
}


def test_every_preset_is_pinned():
    assert set(_PINNED) == set(forge.PRESETS)


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_preset_bytes_match_pinned_digest(name, preset_bytes):
    assert hashlib.sha256(preset_bytes[name]).hexdigest() == _PINNED[name]


# --- preset semantics ---------------------------------------------------------

_FUNC_COUNTS = {
    "call-at-end": 4,
    "listing1": 1,
    "listing2": 9,
    "padding-icc-vs-gcc": 2,
    "highpc-twins": 1,
    "scaffold": 9,
    "stripped": 0,
}


@pytest.mark.parametrize("name", sorted(_FUNC_COUNTS))
def test_presets_normalize_end_to_end(name, preset_docs):
    doc = preset_docs[name]
    assert len(doc.functions) == _FUNC_COUNTS[name]
    assert doc.complete == (name != "stripped")


def test_emitted_image_round_trips_through_the_parser():
    spec = one_function(binding="global")
    image = parse_image(emit(spec), source_path="mem")
    assert image.word_size == 64
    assert image.machine == "x86_64"
    names = [s.name for s in image.symbols]
    assert names == ["f"]
    assert image.symbols[0].value == 0x401000
    assert image.symbols[0].size == 3
    assert image.symbols[0].binding == "global"


# --- corpus shape -------------------------------------------------------------


def test_corpus_count_and_naming():
    fixtures = generate_corpus(seed=3, count=4)
    assert len(fixtures) == 4
    assert len({f.name for f in fixtures}) == 4
    for fixture in fixtures:
        assert fixture.complete is True
        assert fixture.data[:4] == b"\x7fELF"
        starts = [fn.start for fn in fixture.functions]
        assert starts == sorted(starts)
        codes = [code for code, _count in fixture.diagnostic_codes]
        assert codes == sorted(codes)
        assert all(count > 0 for _code, count in fixture.diagnostic_codes)


# --- DWARF 5 range-list contributions -----------------------------------------


@pytest.mark.parametrize(("word_size", "endianness"), [(64, "little"), (32, "big")])
def test_rnglists_contributions_each_give_their_length(word_size, endianness):
    """Each unit's subprogram lists share one contribution header, whose
    unit_length reaches the next contribution, so the section walks
    from header to header to its end; an inlined copy's offset table is a
    contribution between them."""
    base = 0x401000

    def ranged(name, offset, unit):
        lists = ((base + offset, base + offset + 4), (base + offset + 8, base + offset + 12))
        return FunctionSpec(
            name, offset, forge._fixed_body(16), dwarf=(DwarfFuncSpec(ranges=lists, unit=unit),)
        )

    tiny = FunctionSpec("tiny", 48, forge._fixed_body(8), dwarf=(DwarfFuncSpec(),))
    spec = BinarySpec(
        sections=(TEXT,),
        functions=(ranged("a", 0, 0), ranged("b", 16, 0), ranged("c", 32, 1), tiny),
        inline_sites=(InlineSiteSpec("a", "tiny", 0, 0, ranges=((base + 4, base + 8),)),),
        word_size=word_size,
        endianness=endianness,
        dwarf_versions=(5, 5),
    )
    image = parse_image(emit(spec))
    (sec,) = [s for s in image.sections if s.name == ".debug_rnglists"]
    blob = image.raw[sec.file_offset : sec.file_offset + sec.size]
    order = "<" if endianness == "little" else ">"
    pos, headers = 0, []
    while pos < len(blob):
        length, version, addr_size = struct.unpack_from(order + "IHB", blob, pos)
        assert (version, addr_size) == (5, word_size // 8)
        headers.append(pos)
        pos += 4 + length
    assert pos == len(blob)
    assert len(headers) == 3  # unit 0's subprograms, its inlined copy, unit 1's subprograms
