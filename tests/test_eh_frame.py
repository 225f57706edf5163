"""The .eh_frame reader, the forge's .eh_frame, and the trim floor FDEs give."""
import dataclasses
import functools
import struct

import pytest
from hypothesis import given, settings, strategies as st

import corpuscheck
from oracles import sleb_encode
from bintruth import dwarf, elf, forge, normalize
from bintruth.forge import BinarySpec, FunctionSpec, SectionSpec, emit, uleb_encode
from bintruth.model import (
    GT_BAD_EH_FRAME,
    GT_INCOMPLETE_EXCLUDED,
    GT_MALFORMED_DEBUG_DATA,
    GT_NO_DEBUG_INFO,
    GT_PADDING_TRIMMED,
    BinaryImage,
)

EH_VADDR = 0x402000
HDR_VADDR = 0x403000
F, SIZE = 0x401000, 0x20


def _image(eh_frame: bytes, hdr: bool = False) -> BinaryImage:
    """A 64-bit image with one function at F and ``eh_frame`` at EH_VADDR."""
    sections = [
        SectionSpec(".text", 0x401000, executable=True),
        SectionSpec(".eh_frame", EH_VADDR, content=eh_frame),
    ]
    if hdr:
        sections.append(SectionSpec(".eh_frame_hdr", HDR_VADDR, content=bytes(8)))
    spec = BinarySpec(
        sections=tuple(sections),
        functions=(FunctionSpec("f", 0, forge._fixed_body(SIZE)),),
        word_size=64,
    )
    return elf.parse_image(emit(spec))


def _entry(body: bytes, wide: bool) -> bytes:
    if wide:
        return struct.pack("<IQ", 0xFFFFFFFF, len(body)) + body
    return struct.pack("<I", len(body)) + body


def _section(
    augmentation: bytes,
    data: bytes,
    pc_of,
    *,
    version: int = 1,
    wide: bool = False,
    fde_data: bytes = b"",
) -> bytes:
    """One CIE and one FDE, whose pc fields ``pc_of(their address)`` gives,
    then a zero terminator. The CIE ID and CIE pointer take 4 bytes even
    after a 64-bit length (LSB Core)."""
    cie = struct.pack("<I", 0) + bytes([version]) + augmentation + b"\x00"
    cie += b"\x01\x78\x10"  # code alignment 1, data alignment -8, return address r16
    if augmentation[:1] == b"z":
        cie += uleb_encode(len(data)) + data
    out = _entry(cie, wide)
    pointer_pos = len(out) + (12 if wide else 4)
    field = EH_VADDR + pointer_pos + 4
    fde = struct.pack("<I", pointer_pos) + pc_of(field)
    if augmentation[:1] == b"z":
        fde += uleb_encode(len(fde_data)) + fde_data
    return out + _entry(fde, wide) + bytes(4)


def _pcrel4(at: int) -> bytes:
    return struct.pack("<iI", F - at, SIZE)


_READ = {
    "zR-pcrel-sdata4": dict(augmentation=b"zR", data=b"\x1b", pc_of=_pcrel4),
    "no-augmentation-absptr": dict(
        augmentation=b"", data=b"", pc_of=lambda at: struct.pack("<QQ", F, SIZE)
    ),
    "udata4": dict(augmentation=b"zR", data=b"\x03", pc_of=lambda at: struct.pack("<II", F, SIZE)),
    "udata8": dict(augmentation=b"zR", data=b"\x04", pc_of=lambda at: struct.pack("<QQ", F, SIZE)),
    "sdata8": dict(augmentation=b"zR", data=b"\x0c", pc_of=lambda at: struct.pack("<qq", F, SIZE)),
    "uleb128": dict(
        augmentation=b"zR", data=b"\x01", pc_of=lambda at: uleb_encode(F) + uleb_encode(SIZE)
    ),
    "pcrel-sleb128": dict(
        augmentation=b"zR", data=b"\x19", pc_of=lambda at: sleb_encode(F - at) + sleb_encode(SIZE)
    ),
    "pcrel-sdata2": dict(
        augmentation=b"zR", data=b"\x1a", pc_of=lambda at: struct.pack("<hH", F - at, SIZE)
    ),
    "datarel-sdata4": dict(
        augmentation=b"zR", data=b"\x3b", pc_of=lambda at: struct.pack("<iI", F - HDR_VADDR, SIZE)
    ),
    # Personality (indirect|pcrel|sdata4), LSDA and FDE encodings, and a
    # signal frame; each FDE carries its LSDA pointer.
    "zPLRS": dict(
        augmentation=b"zPLRS",
        data=b"\x9b" + bytes(4) + b"\x1b\x1b",
        pc_of=_pcrel4,
        fde_data=bytes(4),
    ),
    "version-3": dict(augmentation=b"zR", data=b"\x1b", pc_of=_pcrel4, version=3),
    "64-bit-lengths": dict(augmentation=b"zR", data=b"\x1b", pc_of=_pcrel4, wide=True),
}


@pytest.mark.parametrize("case", sorted(_READ))
def test_an_fde_gives_its_pc_range(case):
    blob = _section(**_READ[case])
    image = _image(blob, hdr=case.startswith("datarel"))
    assert dwarf.eh_frame_ranges(image) == ([(F, F + SIZE)], [])


@pytest.mark.parametrize("tail", [b"", bytes(0x3000), b"\xff" * 16], ids=["end", "zeros", "junk"])
def test_a_zero_length_ends_the_section(tail):
    """Nothing after a zero length is read; an all-zero section, as a
    linker may reserve, holds no FDE and gives no diagnostic."""
    assert dwarf.eh_frame_ranges(_image(bytes(0x3000))) == ([], [])
    blob = _section(**_READ["zR-pcrel-sdata4"]) + tail
    assert dwarf.eh_frame_ranges(_image(blob)) == ([(F, F + SIZE)], [])


def _cie_only(version: int = 1, augmentation: bytes = b"zR", data: bytes = b"\x1b") -> bytes:
    body = struct.pack("<I", 0) + bytes([version]) + augmentation + b"\x00\x01\x78\x10"
    return _entry(body + uleb_encode(len(data)) + data, False)


_DAMAGE = {
    "length-past-section": (b"\x40\x00\x00\x00" + bytes(8), "entry at 0x0: runs past the section"),
    "cie-version": (_cie_only(version=2), "entry at 0x0: CIE version 2"),
    "unknown-augmentation": (_cie_only(augmentation=b"zX"), "entry at 0x0: CIE augmentation 'zX'"),
    "augmentation-without-z": (
        _cie_only(augmentation=b"eh"),
        "entry at 0x0: CIE augmentation 'eh'",
    ),
    "aligned-encoding": (_cie_only(data=b"\x50"), "entry at 0x0: pointer encoding 0x50"),
    "indirect-fde-pointer": (_cie_only(data=b"\x9b"), "entry at 0x0: pointer encoding 0x9b"),
    "augmentation-overrun": (
        _cie_only(augmentation=b"zRL") + bytes(8),
        "entry at 0x0: CIE augmentation data overruns its length",
    ),
    # The same CIE after a good one, with no bytes after it: the cursor
    # reads past the section, and the message still names the entry.
    "augmentation-overrun-unpadded": (
        _cie_only() + _cie_only(augmentation=b"zRL"),
        f"entry at {len(_cie_only()):#x}: fixed-width read past end of unit",
    ),
    "fde-without-cie": (struct.pack("<III", 12, 4, 0) + bytes(4), "entry at 0x0: FDE names no CIE"),
    # pc_begin, but no pc_range, inside the FDE's length.
    "fde-too-short": (
        _cie_only() + struct.pack("<II", 8, len(_cie_only()) + 4) + bytes(12),
        f"entry at {len(_cie_only()):#x}: FDE runs past its length",
    ),
    "datarel-without-hdr": (
        _section(**_READ["datarel-sdata4"]),
        "entry at 0x11: a datarel pointer, but no .eh_frame_hdr",
    ),
    "past-the-address-space": (
        _section(b"zR", b"\x04", lambda at: struct.pack("<QQ", 2**64 - 16, SIZE)),
        "entry at 0x11: FDE leaves the address space",
    ),
    # A code alignment factor whose LEB128 runs to the end of the section.
    "runaway-leb": (
        _entry(bytes(4) + b"\x01zR\x00" + b"\x80" * 4, False),
        "entry at 0x0: uleb128 runs past end of data",
    ),
}


@pytest.mark.parametrize("case", sorted(_DAMAGE))
def test_damage_gives_one_warning_and_no_floor(case):
    blob, message = _DAMAGE[case]
    evidence = normalize.read_evidence(_image(blob))
    assert evidence.fdes == ()
    no_dwarf, diag = evidence.diagnostics  # the image has no DWARF
    assert no_dwarf.code == GT_NO_DEBUG_INFO
    assert (diag.severity, diag.code) == ("warning", GT_BAD_EH_FRAME)
    assert message in diag.message
    doc = normalize.build_ground_truth(evidence)
    assert doc.complete
    codes = [d.code for d in doc.diagnostics]
    assert codes.count(GT_BAD_EH_FRAME) == 1 and GT_MALFORMED_DEBUG_DATA not in codes


@pytest.mark.parametrize("encoding", forge.EH_FRAME_ENCODINGS)
@pytest.mark.parametrize(("word_size", "endianness"), [(64, "little"), (32, "little"), (64, "big")])
def test_forged_fdes_round_trip(encoding, word_size, endianness):
    spec = dataclasses.replace(
        forge.preset("call-at-end"), eh_frame=encoding, word_size=word_size, endianness=endianness
    )
    image = elf.parse_image(emit(spec))
    starts = [(0x401000 + fn.offset, len(fn.body)) for fn in spec.functions]
    want = sorted((start, start + size) for start, size in starts)
    assert dwarf.eh_frame_ranges(image) == (want, [])


def test_the_forge_writes_eh_frame_only_when_asked():
    """Off by default, a spec may bring its own .eh_frame; asking for one
    claims the name, and an unknown encoding is refused."""
    spec = forge.preset("call-at-end")
    assert spec.eh_frame is None
    assert ".eh_frame" not in {s.name for s in elf.parse_image(emit(spec)).sections}
    own = dataclasses.replace(
        spec, sections=spec.sections + (SectionSpec(".eh_frame", EH_VADDR, content=bytes(16)),)
    )
    assert dwarf.eh_frame_ranges(elf.parse_image(emit(own))) == ([], [])
    with pytest.raises(forge.InvalidSpecError, match="'.eh_frame' is one the forge writes"):
        emit(dataclasses.replace(own, eh_frame="absptr"))
    with pytest.raises(forge.InvalidSpecError, match="eh_frame encoding 'udata2'"):
        emit(dataclasses.replace(spec, eh_frame="udata2"))


# --- the trim floor -----------------------------------------------------------


def test_an_fde_keeps_a_last_call_whole():
    """With an FDE over each body, the call-at-end functions without DWARF
    keep their last call too: an FDE that ends at the raw end gives no trim."""
    spec = dataclasses.replace(forge.preset("call-at-end"), eh_frame="pcrel-sdata4")
    _image, doc = corpuscheck.build_document(emit(spec))
    assert all(f.end_exclusive_trimmed == f.end_exclusive_raw for f in doc.functions)
    assert not [d for d in doc.diagnostics if d.code == GT_PADDING_TRIMMED]


def test_an_fde_floors_the_trim_where_no_record_does():
    """A symbol whose size takes in its padding is trimmed down to its FDE's
    end, and the diagnostic names the FDE; with a DWARF record the record
    names the floor."""
    text = SectionSpec(".text", 0x401000, executable=True)
    body = forge._FILLER[:8] + b"\xe8\x20\x01\x00\x00"
    functions = tuple(
        FunctionSpec(
            name,
            16 * i,
            body,
            pad_after=b"\x90" * 3,
            icc_size_includes_padding=True,
            dwarf=dwarf_spec,
        )
        for i, (name, dwarf_spec) in enumerate(
            [("described", (forge.DwarfFuncSpec(),)), ("framed", ())]
        )
    )
    spec = BinarySpec(sections=(text,), functions=functions, word_size=64, eh_frame="absptr")
    _image, doc = corpuscheck.build_document(emit(spec))
    assert [f.end_exclusive_raw - f.end_exclusive_trimmed for f in doc.functions] == [3, 3]
    assert [d.message for d in doc.diagnostics if d.code == GT_PADDING_TRIMMED] == [
        "3 padding byte(s) trimmed off 'described', down to the end of its DWARF record",
        "3 padding byte(s) trimmed off 'framed', down to the end of its FDE",
    ]


def test_a_record_end_outranks_an_fde_end():
    """A record's end wins at its start, whatever the FDE says; elsewhere
    the largest FDE end at a start floors the trim."""
    records = [dwarf.DebugFunctionRecord("f", 0x1000, 0x1010, "f.c", 1, False)]
    fdes = [(0x1000, 0x1020), (0x2000, 0x2008), (0x2000, 0x2010)]
    floors, names = normalize.facts_by_start(records, fdes)
    assert floors == {0x1000: (0x1010, "DWARF record"), 0x2000: (0x2010, "FDE")}
    assert names == {0x1000: "f"}


# --- fuzzing --------------------------------------------------------------------


@functools.cache
def _fuzz_base(encoding: str) -> tuple[BinaryImage, int, int]:
    """A forged image with an .eh_frame, and where that section lies."""
    spec = dataclasses.replace(forge.preset("call-at-end"), eh_frame=encoding)
    image = elf.parse_image(emit(spec))
    (sec,) = [s for s in image.sections if s.name == ".eh_frame"]
    return image, sec.file_offset, sec.size


@settings(max_examples=300)
@given(
    encoding=st.sampled_from(forge.EH_FRAME_ENCODINGS),
    flips=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)),
        min_size=1,
        max_size=4,
    ),
)
def test_flipped_eh_frame_bytes_yield_only_fdes_and_one_warning(encoding, flips):
    image, offset, size = _fuzz_base(encoding)
    raw = bytearray(image.raw)
    for at, mask in flips:
        raw[offset + at % size] ^= mask
    evidence = normalize.read_evidence(dataclasses.replace(image, raw=bytes(raw)))
    ranges, diags = evidence.fdes, evidence.diagnostics  # the DWARF is intact
    assert list(ranges) == sorted(ranges)
    assert all(0 <= begin <= end <= 2**64 for begin, end in ranges)
    assert [(d.severity, d.code) for d in diags] in ([], [("warning", GT_BAD_EH_FRAME)])
    assert not (ranges and diags)
    doc = normalize.build_ground_truth(evidence)
    assert doc.complete
    assert GT_INCOMPLETE_EXCLUDED not in {d.code for d in doc.diagnostics}
