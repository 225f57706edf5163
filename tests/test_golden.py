"""Byte-identity guard: the extract pipeline's JSON must not drift.

Each case runs parse, DWARF, normalize and ``document_to_json`` over a
forged binary with a fixed source path, and compares the SHA-256 of the
text against a digest recorded before a refactor. A change that alters
any document on purpose must say why and update the digest here.
"""
from __future__ import annotations

import hashlib

import pytest

import corpuscheck
from bintruth import forge, interchange
from bintruth.forge import BinarySpec, DwarfFuncSpec, FunctionSpec, SectionSpec

SOURCE_PATH = "golden/input.elf"


def _document_digest(data: bytes) -> str:
    _image, doc = corpuscheck.build_document(data, source_path=SOURCE_PATH)
    return hashlib.sha256(interchange.document_to_json(doc).encode()).hexdigest()


def _inline_site_spec() -> BinarySpec:
    text = SectionSpec(".text", 0x401000, executable=True)
    host = FunctionSpec("host", 0, forge._fixed_body(32), dwarf=(DwarfFuncSpec(),))
    tiny = FunctionSpec("tiny", 32, forge._fixed_body(8), dwarf=(DwarfFuncSpec(),))
    return BinarySpec(
        sections=(text,),
        functions=(host, tiny),
        inline_sites=(
            forge.InlineSiteSpec(host="host", origin="tiny", low=0x401008, high=0x401010),
        ),
    )


def _solo_spec(dwarf_spec: DwarfFuncSpec, version: int) -> BinarySpec:
    text = SectionSpec(".text", 0x401000, executable=True)
    fn = FunctionSpec("solo", 0, forge._fixed_body(16), dwarf=(dwarf_spec,))
    return BinarySpec(
        sections=(text,),
        functions=(fn,),
        word_size=64,
        dwarf_versions=(version,),
        cu_names=("solo.c",),
    )


def _inline_ranges_spec(version: int) -> BinarySpec:
    """Three inlined copies of one origin, which is named through its
    abstract origin: two take range lists, one inside code and one
    outside it, and one takes a low/high pair outside code, so that a
    diagnostic names each copy."""
    text = SectionSpec(".text", 0x401000, executable=True)
    host = FunctionSpec("host", 0, forge._fixed_body(48), dwarf=(DwarfFuncSpec(),))
    tiny = FunctionSpec(
        "tiny", 48, forge._fixed_body(8), dwarf=(DwarfFuncSpec(name_via="abstract_origin"),)
    )
    return BinarySpec(
        sections=(text,),
        functions=(host, tiny),
        inline_sites=(
            forge.InlineSiteSpec(
                "host", "tiny", 0, 0, ranges=((0x401004, 0x401008), (0x40100C, 0x401010))
            ),
            forge.InlineSiteSpec(
                "host", "tiny", 0, 0, ranges=((0x900000, 0x900004), (0x900110, 0x900118))
            ),
            forge.InlineSiteSpec("host", "tiny", 0x900200, 0x900208),
        ),
        word_size=64,
        dwarf_versions=(version,),
        cu_names=("inline.c",),
    )


_RANGES = ((0x401000, 0x401008), (0x40100C, 0x401010))
_PARAMS = (("argc", True), ("argv", True), ("unused", False))

GOLDEN_PRESETS = {
    "call-at-end": "1a7554b8069478f4d6c23b48a5a94471f7824c7f249bfc1c656a6a5a3e220dc4",
    "highpc-twins": "95c13636868ed6c7b864d96dbfe3348d4ae0113b1dd6631071fc7ddc0aa1ff8a",
    "listing1": "53af77db7b9391f956be1ffa1cff02426357e79f4c81dec8ce145673ae23acc4",
    "listing2": "2fb2dd51ec3055d05f2ead1efa72eaf4e453d0a60de0694d4b7d02518cfc6ec3",
    "padding-icc-vs-gcc": "88002987fb903565e67760f51a71cd1b6ca14e1f5426c6d3586cbee793828eed",
    "scaffold": "d9074cc4b889f313df3a817ebc121533c8ddd7c1831d88f9029a69931e7e60e3",
    "stripped": "906f688a0485ae7cb7fdac721710e5ec8298dcbe6b522d1d5a1cb008ac2a794d",
}
GOLDEN_SPECS = {
    "inline-site": "cf92e70183322f99f8d29ba9eb9253514b8f9090413864ea61221a76ddd92f05",
    "inline-ranges-v4": "d7cf4dfcde633c01db1f3da9c289eeb87c631d18cc0576de94cb115677c2f4bd",
    "inline-ranges-v5": "6bc294dab55cbc8eb8a0f367f473dd5e6ce10e4b0294b860b2c1790f2f17c858",
    "params-v4": "ea7e3a2c07394f669dbe07fef88f5f668364d92d7318a224c3d834657e71f873",
    "ranges-v4": "446cbe8a9407f7ddf14870e2fe3ba9aa41c297ed2aa268a0716372050ed63b0c",
    "ranges-v5": "5692874f57691d8d9e9a9f1f0109c0ef27a6ef7bae8a0a4ec31dc79cf8e5172f",
}
GOLDEN_CORPUS = {
    "fixture_7_0": "ce147137e48a7f704c9d2688e1be49629e35a6fe81ff96f4d71ea4edadc1883c",
    "fixture_7_1": "48d96a9fed8296d0c2b9b4d454de00e1f116e3fa88d61f39ab1ea44da27f2bb4",
    "fixture_7_2": "9375d23a200a0a138eea8c0236008e2c632ab8918bcebc9d07ec83b98191a29d",
    "fixture_7_3": "443e8f5c287da0a64bb4737cf1edf2aa0e944926b9e707e428f3770fac4c1ecb",
    "fixture_7_4": "e365d73f83bf65285b43609a6ad53eb40699cf59c530b649cc9ebfada3563a80",
    "fixture_7_5": "a38af4fff3028f82522cc56edc1beca9edbb2394c70f016e5e0c41fb39ee5bbf",
}


@pytest.mark.parametrize("name", sorted(forge.PRESETS))
def test_preset_documents_are_byte_identical(name):
    assert _document_digest(forge.emit(forge.preset(name))) == GOLDEN_PRESETS[name]


_SPECS = {
    "inline-site": _inline_site_spec,
    "inline-ranges-v4": lambda: _inline_ranges_spec(4),
    "inline-ranges-v5": lambda: _inline_ranges_spec(5),
    "params-v4": lambda: _solo_spec(DwarfFuncSpec(params=_PARAMS), 4),
    "ranges-v4": lambda: _solo_spec(DwarfFuncSpec(ranges=_RANGES), 4),
    "ranges-v5": lambda: _solo_spec(DwarfFuncSpec(ranges=_RANGES), 5),
}


@pytest.mark.parametrize("name", sorted(_SPECS))
def test_debug_info_documents_are_byte_identical(name):
    assert _document_digest(forge.emit(_SPECS[name]())) == GOLDEN_SPECS[name]


def test_the_cold_split_document_is_byte_identical(cold_split_bytes):
    digest = "5600275d03764b4119caf1983a736afc99aaab63786ed489ade82533792d9ba8"
    assert _document_digest(cold_split_bytes) == digest


def test_the_unnamed_cold_range_document_is_byte_identical(unnamed_cold_bytes):
    digest = "d56e083c4ead5d0b530f8f7cc85881a6728bee99cb3a92e7ab0bd941f304061d"
    assert _document_digest(unnamed_cold_bytes) == digest


def test_the_gcc_clone_document_is_byte_identical(gcc_clone_bytes):
    digest = "7acf1790dc44a2a7fa961d6c3fd08454dd10ebaa75452e053624b37bc10d1cb1"
    assert _document_digest(gcc_clone_bytes) == digest


def test_the_gcc_cold_clone_document_is_byte_identical(gcc_cold_clone_bytes):
    digest = "f95d6d7ab43ba39c0722d6c30b89d28dcc8eb1923d89fd1ed8572850f69a3d04"
    assert _document_digest(gcc_cold_clone_bytes) == digest


def test_the_folded_clone_document_is_byte_identical(folded_clone_bytes):
    digest = "893d46811f71defbcb2f0e9efe325269e08a4b6efd8b0219936e68aaabe02a21"
    assert _document_digest(folded_clone_bytes) == digest


def test_the_gas_nops_document_is_byte_identical(gas_nops_bytes):
    digest = "031f673c9d0b33238c5c06ea5914c438514a00c5b8fc3e2c2c298b530f26d916"
    assert _document_digest(gas_nops_bytes) == digest


def test_generated_corpus_documents_are_byte_identical():
    fixtures = forge.generate_corpus(seed=7, count=6)
    got = {fx.name: _document_digest(fx.data) for fx in fixtures}
    assert got == GOLDEN_CORPUS


@pytest.mark.parametrize(
    ("version", "digest"),
    [
        (4, "a25fc3ff904748b010346b594b23e180def8055e3e2acc3b94972a6e1fc65ea2"),
        (5, "9cb85a789720a2dbfc4a6027f4951b6b839b0fc93a1b7794d8205fd66389eaa5"),
    ],
)
def test_the_line_table_documents_are_byte_identical(line_table_bytes, version, digest):
    assert _document_digest(line_table_bytes[version]) == digest


def test_the_cross_unit_line_table_document_is_byte_identical(cross_unit_lines_bytes):
    digest = "7a4d1f6a82ae6c7fdbdd9238e40be338de46b243e00e726e264e271e137239d7"
    assert _document_digest(cross_unit_lines_bytes) == digest
