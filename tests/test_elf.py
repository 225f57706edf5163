import dataclasses
import functools
import struct

import pytest
from hypothesis import given, settings, strategies as st

from bintruth import elf, forge, interchange, normalize
from bintruth.forge import (
    BinarySpec,
    ExtraSymbolSpec,
    FunctionSpec,
    SectionSpec,
    emit,
)
from bintruth.model import (
    GT_BAD_STRING_OFFSET,
    GT_FUNCTION_NOT_EXECUTABLE,
    GT_MISSING_SIZE,
    GT_SYMBOL_OUTSIDE_SECTIONS,
)


def _two_section_spec(word_size=64):
    text = SectionSpec(".text", 0x401000, executable=True)
    data = SectionSpec(".data", 0x402000, content=b"\xaa" * 8, writable=True)
    fn = FunctionSpec("main", 0, forge._fixed_body(16))
    return BinarySpec(sections=(text, data), functions=(fn,), word_size=word_size)


# --- input taxonomy -------------------------------------------------------


def test_empty_input_is_bad_magic():
    with pytest.raises(elf.BadMagicError):
        elf.parse_image(b"")


def test_garbage_is_bad_magic():
    with pytest.raises(elf.BadMagicError):
        elf.parse_image(b"\x00" * 64)


def test_pe_input_is_called_out():
    with pytest.raises(elf.UnsupportedFormatError, match="PE"):
        elf.parse_image(b"MZ" + b"\x00" * 62)


@pytest.mark.parametrize("magic", elf.MACHO_MAGICS)
def test_macho_input_is_called_out(magic):
    with pytest.raises(elf.UnsupportedFormatError, match="Mach-O"):
        elf.parse_image(magic + b"\x00" * 60)


def test_magic_alone_is_truncated():
    with pytest.raises(elf.TruncatedError):
        elf.parse_image(b"\x7fELF")


def test_ident_without_header_is_truncated():
    ident = b"\x7fELF" + bytes([2, 1, 1]) + b"\x00" * 9
    with pytest.raises(elf.TruncatedError):
        elf.parse_image(ident + b"\x00" * 4)


def test_unknown_class_is_rejected():
    data = bytearray(emit(_two_section_spec()))
    data[elf.EI_CLASS] = 3
    with pytest.raises(elf.UnsupportedClassError):
        elf.parse_image(bytes(data))


def test_unknown_byte_order_is_rejected():
    data = bytearray(emit(_two_section_spec()))
    data[elf.EI_DATA] = 3
    with pytest.raises(elf.MalformedElfError):
        elf.parse_image(bytes(data))


def _shoff_and_entsize(data: bytes) -> tuple[int, int]:
    e_shoff = struct.unpack_from("<Q", data, 16 + 24)[0]
    e_shentsize = struct.unpack_from("<H", data, 16 + 42)[0]
    return e_shoff, e_shentsize


def _section_header_index(data: bytes, name: str) -> int:
    image = elf.parse_image(data)
    return next(i for i, s in enumerate(image.sections) if s.name == name)


def test_overlapping_allocated_sections_are_malformed():
    data = bytearray(emit(_two_section_spec()))
    shoff, entsize = _shoff_and_entsize(data)
    idx = _section_header_index(bytes(data), ".data")
    # sh_addr sits after sh_name:I sh_type:I sh_flags:Q in a 64-bit header.
    struct.pack_into("<Q", data, shoff + idx * entsize + 16, 0x401004)
    with pytest.raises(elf.MalformedElfError, match="overlap"):
        elf.parse_image(bytes(data))


def test_relocatable_object_at_address_zero_is_unsupported():
    # As in a .o file, every allocated section sits at address 0.
    data = bytearray(emit(_two_section_spec()))
    shoff, entsize = _shoff_and_entsize(data)
    for name in (".text", ".data"):
        idx = _section_header_index(bytes(data), name)
        struct.pack_into("<Q", data, shoff + idx * entsize + 16, 0)
    assert struct.unpack_from("<H", data, 16)[0] == 2  # e_type: ET_EXEC
    with pytest.raises(elf.MalformedElfError, match="overlap"):
        elf.parse_image(bytes(data))
    struct.pack_into("<H", data, 16, elf.ET_REL)
    with pytest.raises(elf.UnsupportedFormatError, match="relocatable object"):
        elf.parse_image(bytes(data))


def test_allocated_content_past_eof_is_truncated():
    data = bytearray(emit(_two_section_spec()))
    shoff, entsize = _shoff_and_entsize(data)
    idx = _section_header_index(bytes(data), ".text")
    struct.pack_into("<Q", data, shoff + idx * entsize + 32, 1 << 20)
    with pytest.raises(elf.TruncatedError, match="content"):
        elf.parse_image(bytes(data))


def test_wrong_section_entry_size_is_malformed():
    data = bytearray(emit(_two_section_spec()))
    struct.pack_into("<H", data, 16 + 42, 48)
    with pytest.raises(elf.MalformedElfError, match="entry size"):
        elf.parse_image(bytes(data))


def test_section_table_past_eof_is_truncated():
    data = bytearray(emit(_two_section_spec()))
    struct.pack_into("<Q", data, 16 + 24, len(data) - 8)
    with pytest.raises(elf.TruncatedError, match="section header table"):
        elf.parse_image(bytes(data))


# --- faithful mirroring ---------------------------------------------------


def test_sections_mirror_the_header_table(preset_images):
    image = preset_images["scaffold"]
    assert image.sections[0].name == ""
    assert image.sections[0].size == 0
    names = [s.name for s in image.sections]
    assert names.index(".text") == 1
    text = image.sections[1]
    assert text.executable and text.allocated
    assert text.vaddr == 0x401000
    assert image.word_size == 64
    assert image.machine == "x86_64"
    assert image.machine_code == 62
    assert image.endianness == "little"


def test_elf32_round_trip(preset_images):
    image = preset_images["listing1"]
    assert image.word_size == 32
    assert image.machine == "x86"
    assert image.machine_code == 3
    syms = {s.name: s for s in image.symbols}
    assert syms["fix_syms"].value == 0x080B41C0
    assert syms["fix_syms"].size == 8
    assert syms["fix_syms."].value == 0x080B41C8


def test_nobits_section_has_no_file_offset(small_corpus):
    image = elf.parse_image(small_corpus[0].data)
    bss = next(s for s in image.sections if s.name == ".bss")
    assert bss.file_offset is None
    assert bss.allocated and not bss.executable


def test_big_endian_round_trip():
    spec = BinarySpec(
        sections=(SectionSpec(".text", 0x1000, executable=True),),
        functions=(FunctionSpec("f", 0, forge._fixed_body(8)),),
        word_size=32,
        endianness="big",
    )
    image = elf.parse_image(emit(spec))
    assert image.endianness == "big"
    sym = next(s for s in image.symbols if s.name == "f")
    assert sym.value == 0x1000
    assert sym.size == 8


def test_unlisted_machine_keeps_its_code():
    spec = BinarySpec(
        sections=(SectionSpec(".text", 0x1000, executable=True),),
        functions=(FunctionSpec("f", 0, forge._fixed_body(8)),),
        machine_code=40,
    )
    image = elf.parse_image(emit(spec))
    assert image.machine == "other"
    assert image.machine_code == 40


def test_digest_matches_input_bytes(preset_bytes, preset_images):
    import hashlib

    for name, data in preset_bytes.items():
        assert preset_images[name].content_digest == hashlib.sha256(data).digest()


# --- degraded parses ------------------------------------------------------


def _first_symbol_entry_offset(data: bytes) -> int:
    image = elf.parse_image(data)
    symtab = next(s for s in image.sections if s.name == ".symtab")
    return symtab.file_offset + 24  # skip the null entry (64-bit rows)


def test_bad_symbol_name_offset_degrades_gracefully():
    data = bytearray(emit(_two_section_spec()))
    struct.pack_into("<I", data, _first_symbol_entry_offset(bytes(data)), 0xFFFF)
    image = elf.parse_image(bytes(data))
    assert any(s.name == "<bad-strtab:65535>" for s in image.symbols)
    diags = [d for d in image.parse_diagnostics if d.code == GT_BAD_STRING_OFFSET]
    assert len(diags) == 1
    assert diags[0].severity == "error"


def test_bad_section_name_offset_degrades_gracefully():
    data = bytearray(emit(_two_section_spec()))
    shoff, entsize = _shoff_and_entsize(data)
    idx = _section_header_index(bytes(data), ".data")
    struct.pack_into("<I", data, shoff + idx * entsize, 0xFFFFF)
    image = elf.parse_image(bytes(data))
    assert any(s.name.startswith("<bad-strtab:") for s in image.sections)
    assert any(d.code == GT_BAD_STRING_OFFSET for d in image.parse_diagnostics)


def test_dynsym_rows_fill_in_behind_symtab():
    """A dynamic symbol table alone still yields symbols."""
    base = emit(_two_section_spec())
    data = bytearray(base)
    shoff, entsize = _shoff_and_entsize(data)
    idx = _section_header_index(base, ".symtab")
    struct.pack_into("<I", data, shoff + idx * entsize + 4, elf.SHT_DYNSYM)
    image = elf.parse_image(bytes(data))
    assert any(s.name == "main" for s in image.symbols)


def test_dynsym_duplicates_of_symtab_rows_are_dropped():
    """The same (name, value) seen in .symtab is not taken again."""
    base = emit(_two_section_spec())
    plain = elf.parse_image(base)
    data = bytearray(base)
    shoff, entsize = _shoff_and_entsize(data)
    strtab_idx = _section_header_index(base, ".strtab")
    symtab_idx = _section_header_index(base, ".symtab")
    header = list(
        struct.unpack_from("<IIQQQQIIQQ", data, shoff + symtab_idx * entsize)
    )
    # Repoint the .shstrtab header slot at a copy of .symtab typed SHT_DYNSYM;
    # its name offset then lands mid-string, which is harmless here.
    spare_idx = _section_header_index(base, ".shstrtab")
    header[1] = elf.SHT_DYNSYM
    struct.pack_into(
        "<IIQQQQIIQQ", data, shoff + spare_idx * entsize, *header
    )
    assert strtab_idx  # keep the link valid for both tables
    image = elf.parse_image(bytes(data))
    assert len(image.symbols) == len(plain.symbols)


def test_unknown_binding_ranks_as_local():
    data = bytearray(emit(_two_section_spec()))
    off = _first_symbol_entry_offset(bytes(data))
    data[off + 4] = (10 << 4) | elf.STT_FUNC
    image = elf.parse_image(bytes(data))
    assert image.symbols[0].binding == "local"


@pytest.mark.parametrize("rows", [0, 1], ids=["no-rows", "null-row-only"])
def test_a_symbol_table_without_symbol_rows_gives_no_symbols(rows):
    base = emit(_two_section_spec())
    data = bytearray(base)
    shoff, entsize = _shoff_and_entsize(data)
    idx = _section_header_index(base, ".symtab")
    # sh_size is the sixth field of a 64-bit section header, at byte 32.
    struct.pack_into("<Q", data, shoff + idx * entsize + 32, rows * 24)
    image = elf.parse_image(bytes(data))
    assert image.symbols == ()
    assert image.parse_diagnostics == ()


def test_32_and_64_bit_symbol_tables_decode_the_same_functions():
    """The two word sizes order a symbol row's fields differently."""
    text = SectionSpec(".text", 0x401000, executable=True)
    data = SectionSpec(".data", 0x402000, content=b"\xaa" * 16, writable=True)
    functions = (
        FunctionSpec("main", 0, forge._fixed_body(16), binding="global"),
        FunctionSpec("weak_one", 16, forge._fixed_body(8), binding="weak"),
        FunctionSpec("local_one", 32, forge._fixed_body(24), symbol_size=0),
    )
    extras = (
        ExtraSymbolSpec("table", ".data", offset=0, size=8, kind="object"),
        ExtraSymbolSpec("marker", ".text", offset=4, kind="other"),
        ExtraSymbolSpec("in_data", ".data", offset=8, size=4, kind="function"),
    )
    decoded = []
    for word_size in (32, 64):
        spec = BinarySpec(
            sections=(text, data),
            functions=functions,
            extra_symbols=extras,
            word_size=word_size,
        )
        decoded.append(elf.parse_image(emit(spec)).symbols)
    assert decoded[0] == decoded[1]
    assert sorted((s.name, s.value, s.size, s.binding) for s in decoded[0]) == [
        ("in_data", 0x402008, 4, "global"),
        ("local_one", 0x401020, 0, "local"),
        ("main", 0x401000, 16, "global"),
        ("weak_one", 0x401010, 8, "weak"),
    ]


# --- function_symbols filtering -------------------------------------------


def _filter_spec():
    text = SectionSpec(".text", 0x401000, executable=True)
    data = SectionSpec(".data", 0x402000, content=b"\xaa" * 16, writable=True)
    fn = FunctionSpec("real", 0, forge._fixed_body(16))
    extras = (
        ExtraSymbolSpec("orphan", ".text", offset=0x9000, size=4, kind="function"),
        ExtraSymbolSpec("in_data", ".data", offset=0, size=4, kind="function"),
        ExtraSymbolSpec("sizeless", ".text", offset=8, size=0, kind="function"),
        ExtraSymbolSpec("not_code", ".data", offset=4, size=4, kind="object"),
    )
    return BinarySpec(
        sections=(text, data), functions=(fn,), extra_symbols=extras
    )


def test_function_symbols_filters_and_reports():
    image = elf.parse_image(emit(_filter_spec()))
    kept, diags = elf.function_symbols(image)
    names = [s.name for s, _section in kept]
    assert "orphan" not in names  # outside every allocated section
    assert "in_data" in names  # kept, but flagged
    assert "sizeless" in names
    assert "not_code" not in names  # objects are not functions
    by_code = {}
    for d in diags:
        by_code.setdefault(d.code, []).append(d)
    assert len(by_code[GT_SYMBOL_OUTSIDE_SECTIONS]) == 1
    assert by_code[GT_SYMBOL_OUTSIDE_SECTIONS][0].severity == "info"
    assert len(by_code[GT_FUNCTION_NOT_EXECUTABLE]) == 1
    assert by_code[GT_FUNCTION_NOT_EXECUTABLE][0].severity == "warning"
    assert len(by_code[GT_MISSING_SIZE]) == 1


def _symbol_rows(data: bytes):
    """(file offset, name) of each .symtab row of a forged ELF32 image."""
    image = elf.parse_image(data)
    symtab = next(s for s in image.sections if s.name == ".symtab")
    strtab = next(s for s in image.sections if s.name == ".strtab")
    for row in range(symtab.file_offset, symtab.file_offset + symtab.size, 16):
        st_name = struct.unpack_from("<I", data, row)[0]
        yield row, data[strtab.file_offset + st_name :].split(b"\0", 1)[0]


def _kinds_spec():
    text = SectionSpec(".text", 0x401000, executable=True)
    data = SectionSpec(".data", 0x402000, content=b"\xaa" * 16, writable=True)
    extras = (
        ExtraSymbolSpec("table", ".data", offset=0, size=8, kind="object"),
        ExtraSymbolSpec("marker", ".text", offset=4, kind="other"),
        ExtraSymbolSpec("helper", ".text", offset=8, size=8, kind="function"),
    )
    fn = FunctionSpec("main", 0, forge._fixed_body(16))
    return BinarySpec(sections=(text, data), functions=(fn,), extra_symbols=extras)


def test_only_defined_function_symbols_are_built():
    image = elf.parse_image(emit(_kinds_spec()))
    assert sorted((s.name, s.value, s.size) for s in image.symbols) == [
        ("helper", 0x401008, 8),
        ("main", 0x401000, 16),
    ]


def test_a_bad_object_symbol_name_is_still_reported():
    """Every row's name is read, not only the rows kept."""
    base = emit(_kinds_spec())
    data = bytearray(base)
    (row,) = [row for row, name in _symbol_rows(base) if name == b"table"]
    struct.pack_into("<I", data, row, 0xFFFF)  # st_name
    image = elf.parse_image(bytes(data))
    assert sorted(s.name for s in image.symbols) == ["helper", "main"]
    diags = [d for d in image.parse_diagnostics if d.code == GT_BAD_STRING_OFFSET]
    assert [(d.severity, d.message) for d in diags] == [
        ("error", "symbol name offset 65535 outside string table")
    ]


def test_undefined_function_symbols_are_one_count():
    """Imports name no byte of the image: they leave no symbol and one
    diagnostic that counts the function ones."""
    extras = (
        ExtraSymbolSpec("puts", ".text", offset=0, kind="function"),
        ExtraSymbolSpec("free", ".text", offset=0, kind="function"),
        ExtraSymbolSpec("environ", ".data", offset=0, kind="object"),
    )
    base = emit(dataclasses.replace(_filter_spec(), extra_symbols=extras))
    data = bytearray(base)
    for row, name in _symbol_rows(base):
        if name in (b"puts", b"free", b"environ"):
            struct.pack_into("<H", data, row + 14, elf.SHN_UNDEF)  # st_shndx
    image = elf.parse_image(bytes(data))
    assert [s.name for s in image.symbols] == ["real"]
    counts = [d for d in image.parse_diagnostics if d.code == GT_SYMBOL_OUTSIDE_SECTIONS]
    assert len(counts) == 1
    assert counts[0].severity == "info"
    assert counts[0].message.startswith("2 undefined function symbols")
    assert counts[0].span is None


def test_function_symbols_sorted_by_value_then_name():
    image = elf.parse_image(emit(_filter_spec()))
    kept, _diags = elf.function_symbols(image)
    symbols = [s for s, _section in kept]
    # The table lists in_data before sizeless; start order is fixed here
    # and the later stages never sort again.
    assert [s.name for s in symbols] == ["real", "sizeless", "in_data"]
    assert symbols == sorted(
        symbols, key=lambda s: (s.value, s.name, s.binding, s.size)
    )
    assert all(section is elf.section_of(image, s.value) for s, section in kept)


def test_section_of_picks_the_allocated_owner(preset_images):
    image = preset_images["scaffold"]
    sec = elf.section_of(image, 0x401000)
    assert sec is not None and sec.name == ".text"
    assert elf.section_of(image, 0x1) is None


# --- thread-local sections --------------------------------------------------


def _tls_spec(tbss_tls=True):
    """A linker-style TLS layout: .tbss shares its address with .init_array."""
    text = SectionSpec(".text", 0x401000, executable=True)
    tdata = SectionSpec(".tdata", 0x403000, content=b"\x01" * 8, writable=True, tls=True)
    tbss = SectionSpec(
        ".tbss", 0x403008, kind="nobits", size=0x20, writable=True, tls=tbss_tls
    )
    init_array = SectionSpec(".init_array", 0x403008, content=b"\x00" * 8, writable=True)
    fn = FunctionSpec("main", 0, forge._fixed_body(16))
    return BinarySpec(
        sections=(text, tdata, tbss, init_array), functions=(fn,), word_size=64
    )


def test_tbss_takes_no_address_space(build_doc):
    data = emit(_tls_spec())
    image = elf.parse_image(data)
    by_name = {s.name: s for s in image.sections}
    tbss, tdata = by_name[".tbss"], by_name[".tdata"]
    assert tbss.tls and tbss.allocated and tbss.file_offset is None
    assert not tbss.mapped
    assert tdata.tls and tdata.mapped  # .tdata holds the initial image
    assert elf.section_of(image, 0x403008).name == ".init_array"
    doc = build_doc(data)
    assert doc.complete
    data_runs = [
        (r.start, r.length) for r in doc.byte_classes.runs if r.klass == "data"
    ]
    assert data_runs == [(0x403000, 16)]  # .tdata and .init_array, merged


def test_tbss_overlap_needs_the_tls_flag():
    with pytest.raises(forge.InvalidSpecError, match="overlap"):
        emit(_tls_spec(tbss_tls=False))
    data = bytearray(emit(_tls_spec()))
    shoff, entsize = _shoff_and_entsize(data)
    idx = _section_header_index(bytes(data), ".tbss")
    # sh_flags:Q follows sh_name:I sh_type:I in a 64-bit header.
    flags_at = shoff + idx * entsize + 8
    flags = struct.unpack_from("<Q", data, flags_at)[0]
    assert flags & elf.SHF_TLS
    struct.pack_into("<Q", data, flags_at, flags & ~elf.SHF_TLS)
    with pytest.raises(elf.MalformedElfError, match="overlap"):
        elf.parse_image(bytes(data))


def _linear_section_of(image, addr):
    """The reference lookup: the first mapped section, in header order,
    that holds ``addr``."""
    for sec in image.sections:
        if sec.mapped and sec.vaddr <= addr < sec.end:
            return sec
    return None


@functools.cache
def _lookup_images() -> tuple:
    """The fuzzing images and the TLS layout, whose .tbss shares its
    addresses with .init_array."""
    return tuple(elf.parse_image(data) for data in (*_fuzz_images(), emit(_tls_spec())))


def test_section_of_agrees_with_a_linear_scan_at_every_edge():
    images = _lookup_images()
    assert any(not s.mapped and s.tls for image in images for s in image.sections)
    for image in images:
        for sec in image.sections:
            for addr in (sec.vaddr - 1, sec.vaddr, sec.end - 1, sec.end):
                assert elf.section_of(image, addr) is _linear_section_of(image, addr)


@settings(max_examples=300)
@given(st.data())
def test_section_of_agrees_with_a_linear_scan_anywhere(data):
    image = data.draw(st.sampled_from(_lookup_images()))
    near = data.draw(st.sampled_from(image.sections))
    addr = data.draw(
        st.one_of(
            st.integers(min_value=near.vaddr - 0x40, max_value=near.end + 0x40),
            st.integers(min_value=0, max_value=2 * near.end + 0x100),
        )
    )
    assert elf.section_of(image, addr) is _linear_section_of(image, addr)


# --- layout-aware fuzzing ---------------------------------------------------


@functools.cache
def _fuzz_images() -> tuple[bytes, ...]:
    presets = [emit(forge.preset(name)) for name in sorted(forge.PRESETS)]
    corpus = [f.data for f in forge.generate_corpus(seed=11, count=4)]
    return (*presets, *corpus)


def _field_tables(data: bytes) -> list[list[list[tuple[int, str]]]]:
    """Fields to mutate, located by reading the headers directly.

    Returns groups of tables of fields, each field a (file offset, struct
    code) pair: the ELF header; the section headers, grouped by sh_type
    so that the one symbol-table header is drawn as often as all PROGBITS
    headers together; and the symbol-table rows. The forge writes no
    program headers, so there are none to mutate.
    """
    is64 = data[elf.EI_CLASS] == elf.ELFCLASS64
    end = "<" if data[elf.EI_DATA] == elf.ELFDATA2LSB else ">"
    ehdr = "HHIQQQIHHHHHH" if is64 else "HHIIIIIHHHHHH"
    shdr = "IIQQQQIIQQ" if is64 else "IIIIIIIIII"
    sym = "IBBHQQ" if is64 else "IIIBBH"

    def fields(fmt: str, base: int) -> list[tuple[int, str]]:
        out = []
        for code in fmt:
            out.append((base, code))
            base += struct.calcsize(end + code)
        return out

    values = struct.unpack_from(end + ehdr, data, 16)
    e_shoff, e_shentsize, e_shnum = values[5], values[10], values[11]
    by_type: dict[int, list] = {}
    rows = []
    for i in range(e_shnum):
        at = e_shoff + i * e_shentsize
        _n, sh_type, _f, _a, sh_off, sh_size, *_rest = struct.unpack_from(
            end + shdr, data, at
        )
        by_type.setdefault(sh_type, []).append(fields(shdr, at))
        if sh_type == elf.SHT_SYMTAB:
            entsize = struct.calcsize(end + sym)
            for n in range(sh_size // entsize):
                rows.append(fields(sym, sh_off + n * entsize))
    return [[fields(ehdr, 16)], *by_type.values(), rows]


@st.composite
def _elf_mutants(draw) -> bytes:
    data = bytearray(draw(st.sampled_from(_fuzz_images())))
    groups = [group for group in _field_tables(bytes(data)) if group]
    end = "<" if data[elf.EI_DATA] == elf.ELFDATA2LSB else ">"
    for _ in range(draw(st.integers(1, 3))):
        table = draw(st.sampled_from(draw(st.sampled_from(groups))))
        offset, code = draw(st.sampled_from(table))
        bits = 8 * struct.calcsize(code)
        (old,) = struct.unpack_from(end + code, data, offset)
        shn_loreserve = 0xFF00  # the first reserved section index
        boundary = [0, 1, (1 << bits) - 1, shn_loreserve, old - 1, old + 1]
        value = draw(st.sampled_from(boundary))
        struct.pack_into(end + code, data, offset, value % (1 << bits))
    return bytes(data)


@settings(max_examples=400)
@given(_elf_mutants())
def test_mutated_headers_fail_typed_or_load(data):
    """Boundary values in any header or symbol field end in a typed
    ElfFormatError or in a document that survives dump and load."""
    try:
        image = elf.parse_image(data)
    except elf.ElfFormatError:
        return
    doc = normalize.build_ground_truth(image)
    assert interchange.document_from_json(interchange.document_to_json(doc)) == doc
