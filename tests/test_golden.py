"""Byte-identity guard: the extract pipeline's JSON must not drift.

Each case runs parse, DWARF, normalize and ``document_to_json`` over a
forged binary with a fixed source path, and compares the SHA-256 of the
text against a digest recorded before a refactor. A change that alters
any document on purpose must say why and update the digest here.
"""
from __future__ import annotations

import hashlib

import pytest

from bintruth import elf, forge, interchange, normalize
from bintruth.forge import BinarySpec, DwarfFuncSpec, FunctionSpec, SectionSpec

SOURCE_PATH = "golden/input.elf"


def _document_digest(data: bytes) -> str:
    image = elf.parse_image(data, source_path=SOURCE_PATH)
    doc = normalize.build_ground_truth(image)
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
    "call-at-end": "d04ee3377c1c6196ad9b90e61fa306ce812aa2a331eaff0a3e80f91c8eb1a9fe",
    "highpc-twins": "95c13636868ed6c7b864d96dbfe3348d4ae0113b1dd6631071fc7ddc0aa1ff8a",
    "listing1": "53af77db7b9391f956be1ffa1cff02426357e79f4c81dec8ce145673ae23acc4",
    "listing2": "2fb2dd51ec3055d05f2ead1efa72eaf4e453d0a60de0694d4b7d02518cfc6ec3",
    "padding-icc-vs-gcc": "4b7d1b9b9b51d033ef18adef4416835fd1e9a5410fd1a6961b81c1ef162a91a7",
    "scaffold": "d9074cc4b889f313df3a817ebc121533c8ddd7c1831d88f9029a69931e7e60e3",
    "stripped": "906f688a0485ae7cb7fdac721710e5ec8298dcbe6b522d1d5a1cb008ac2a794d",
}
GOLDEN_SPECS = {
    "inline-site": "cf92e70183322f99f8d29ba9eb9253514b8f9090413864ea61221a76ddd92f05",
    "inline-ranges-v4": "d7cf4dfcde633c01db1f3da9c289eeb87c631d18cc0576de94cb115677c2f4bd",
    "inline-ranges-v5": "6bc294dab55cbc8eb8a0f367f473dd5e6ce10e4b0294b860b2c1790f2f17c858",
    "params-v4": "ea7e3a2c07394f669dbe07fef88f5f668364d92d7318a224c3d834657e71f873",
    "ranges-v4": "103f7c14717caaa716859825e16eef327c23c9b5aa5a357e83007ebb3c50a311",
    "ranges-v5": "10065d7f0819421a1c77135ec447b18507c3196a0a50f9ee7b0f7310c3de361e",
}
GOLDEN_CORPUS = {
    "fixture_7_0": "ce147137e48a7f704c9d2688e1be49629e35a6fe81ff96f4d71ea4edadc1883c",
    "fixture_7_1": "98b76b99781736e9d1f7fd146b4db4f4eb083cc3313f5b2a92da617c16272b9a",
    "fixture_7_2": "9375d23a200a0a138eea8c0236008e2c632ab8918bcebc9d07ec83b98191a29d",
    "fixture_7_3": "afa180b62bb2ee6195f170d693022e5a1bdc5ad0b6dac4c8d91929309243de8a",
    "fixture_7_4": "6830173d7b143791a7dae06cf0870f03b38241609778e9dc61ce0b330f13379f",
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


def test_generated_corpus_documents_are_byte_identical():
    fixtures = forge.generate_corpus(seed=7, count=6)
    got = {fx.name: _document_digest(fx.data) for fx in fixtures}
    assert got == GOLDEN_CORPUS
