import hashlib

import pytest

from bintruth.elf import section_of
from bintruth.model import (
    DIAGNOSTIC_CODES,
    GT_MISSING_SIZE,
    BinaryImage,
    Diagnostic,
    SectionRecord,
    SymbolRecord,
    digest_binary,
    machine_label,
)


def test_diagnostic_codes_are_a_closed_set():
    assert len(DIAGNOSTIC_CODES) == 15
    assert all(code.startswith("GT_") for code in DIAGNOSTIC_CODES)


def test_diagnostic_rejects_unknown_severity():
    with pytest.raises(ValueError, match="severity"):
        Diagnostic("fatal", GT_MISSING_SIZE, "boom")


def test_diagnostic_rejects_unknown_code():
    with pytest.raises(ValueError, match="diagnostic code"):
        Diagnostic("info", "GT_NOT_A_CODE", "boom")


def test_diagnostic_span_is_optional():
    d = Diagnostic("warning", GT_MISSING_SIZE, "no size")
    assert d.span is None
    d2 = Diagnostic("warning", GT_MISSING_SIZE, "no size", span=(0x100, 4))
    assert d2.span == (0x100, 4)


def test_section_contains_and_end():
    sec = SectionRecord(".text", 0x1000, 0x20, True, True, 64)
    img = _image((sec,), bytes(128))
    assert section_of(img, 0x1000) is sec
    assert section_of(img, 0x101F) is sec
    assert section_of(img, 0x1020) is None
    assert section_of(img, 0xFFF) is None
    assert sec.end == 0x1020


def test_symbol_record_validates_binding():
    with pytest.raises(ValueError, match="binding"):
        SymbolRecord("f", 0, 1, "extern")


@pytest.mark.parametrize(
    ("machine", "code", "label"),
    [("x86", 3, "x86"), ("x86_64", 62, "x86_64"), ("other", 40, "other(40)")],
)
def test_machine_label(machine, code, label):
    """The label and the image's machine name both derive from the code."""
    assert machine_label(code) == label
    assert _image((), b"", code).machine == machine


def _image(sections, raw, machine_code=62):
    return BinaryImage(
        source_path="mem",
        content_digest=digest_binary(raw),
        word_size=64,
        endianness="little",
        machine_code=machine_code,
        sections=sections,
        symbols=(),
        raw=raw,
    )


def test_section_bytes_slice_the_file_or_are_none():
    raw = bytes(range(64))
    text = SectionRecord(".text", 0x1000, 16, True, True, file_offset=8)
    bss = SectionRecord(".bss", 0x2000, 32, False, True, file_offset=None)
    img = _image((text, bss), raw)
    assert img.section_bytes(text, 0x1000, 0x1004) == bytes([8, 9, 10, 11])
    assert img.section_bytes(text, 0x100C, 0x1010) == bytes([20, 21, 22, 23])
    assert img.section_bytes(bss, 0x2000, 0x2004) is None


def test_digest_binary_is_sha256():
    data = b"some binary"
    assert digest_binary(data) == hashlib.sha256(data).digest()
    assert len(digest_binary(b"")) == 32
