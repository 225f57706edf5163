"""ELF32/ELF64 reader: headers, section table, symbol tables, string tables.

Byte-exact parsing per the ELF specification for both word sizes and both
byte orders, with graceful degradation: a bad string offset names the symbol
``<bad-strtab:OFFSET>`` and records an error diagnostic instead of aborting
the parse.

References:
  - Tool Interface Standard (TIS) ELF Specification v1.2
  - elf(5)
"""
from __future__ import annotations

import bisect
import struct

from .model import (
    GT_BAD_STRING_OFFSET,
    GT_FUNCTION_NOT_EXECUTABLE,
    GT_MISSING_SIZE,
    GT_SYMBOL_OUTSIDE_SECTIONS,
    BinaryImage,
    Diagnostic,
    SectionRecord,
    SymbolRecord,
    digest_binary,
)

ELF_MAGIC = b"\x7fELF"
PE_MAGIC = b"MZ"
MACHO_MAGICS = (
    b"\xfe\xed\xfa\xce",
    b"\xce\xfa\xed\xfe",
    b"\xfe\xed\xfa\xcf",
    b"\xcf\xfa\xed\xfe",
    b"\xca\xfe\xba\xbe",
    b"\xbe\xba\xfe\xca",
)

EI_CLASS = 4
EI_DATA = 5
ELFCLASS32 = 1
ELFCLASS64 = 2
ELFDATA2LSB = 1
ELFDATA2MSB = 2

ET_REL = 1

SHT_NOBITS = 8
SHT_SYMTAB = 2
SHT_DYNSYM = 11

SHF_ALLOC = 0x2
SHF_EXECINSTR = 0x4
SHF_TLS = 0x400

STT_FUNC = 2
STB_LOCAL = 0
STB_GLOBAL = 1
STB_WEAK = 2

SHN_UNDEF = 0


class ElfFormatError(ValueError):
    """Base class for all ELF parse failures."""


class BadMagicError(ElfFormatError):
    """First four bytes are not 0x7F 'E' 'L' 'F'."""


class TruncatedError(ElfFormatError):
    """A header or table extends past the end of the input."""


class UnsupportedClassError(ElfFormatError):
    """EI_CLASS is neither ELFCLASS32 nor ELFCLASS64."""


class UnsupportedFormatError(ElfFormatError):
    """Recognizably PE or Mach-O input, or an ELF relocatable object whose
    sections overlap; only linked ELF images are supported."""


class MalformedElfError(ElfFormatError):
    """Structurally inconsistent ELF (bad entry sizes, overlapping sections)."""


# Local and any OS/processor-specific binding rank lowest: "local".
_BINDING_NAMES = {STB_GLOBAL: "global", STB_WEAK: "weak"}


def _cstr(blob: bytes, off: int) -> str | None:
    """NUL-terminated string at ``off``, or None when out of range."""
    if off < 0 or off >= len(blob):
        return None
    end = blob.find(b"\x00", off)
    if end < 0:
        end = len(blob)
    return blob[off:end].decode("utf-8", errors="replace")


def parse_image(data: bytes, source_path: str = "") -> BinaryImage:
    """Parse ELF bytes into a :class:`BinaryImage`.

    Raises a typed :class:`ElfFormatError` subclass on malformed input;
    recoverable problems (bad string offsets) degrade into parse
    diagnostics on the returned image.
    """
    if data[:2] == PE_MAGIC:
        raise UnsupportedFormatError("PE input; only ELF is supported")
    if data[:4] in MACHO_MAGICS:
        raise UnsupportedFormatError("Mach-O input; only ELF is supported")
    if data[:4] != ELF_MAGIC:
        raise BadMagicError("missing ELF magic")
    if len(data) < 16:
        raise TruncatedError("ELF identification truncated")

    ei_class = data[EI_CLASS]
    ei_data = data[EI_DATA]
    if ei_class not in (ELFCLASS32, ELFCLASS64):
        raise UnsupportedClassError(f"EI_CLASS={ei_class}")
    if ei_data not in (ELFDATA2LSB, ELFDATA2MSB):
        raise MalformedElfError(f"EI_DATA={ei_data}")

    is64 = ei_class == ELFCLASS64
    end = "<" if ei_data == ELFDATA2LSB else ">"
    endianness = "little" if ei_data == ELFDATA2LSB else "big"

    # e_type:H e_machine:H e_version:I e_entry e_phoff e_shoff e_flags:I
    # e_ehsize:H e_phentsize:H e_phnum:H e_shentsize:H e_shnum:H e_shstrndx:H
    hdr_fmt = end + ("HHIQQQIHHHHHH" if is64 else "HHIIIIIHHHHHH")
    hdr_size = struct.calcsize(hdr_fmt)
    if len(data) < 16 + hdr_size:
        raise TruncatedError("ELF header truncated")
    (
        e_type,
        e_machine,
        _e_version,
        _e_entry,
        _e_phoff,
        e_shoff,
        _e_flags,
        _e_ehsize,
        _e_phentsize,
        _e_phnum,
        e_shentsize,
        e_shnum,
        e_shstrndx,
    ) = struct.unpack_from(hdr_fmt, data, 16)

    diagnostics: list[Diagnostic] = []

    # Section header table.
    sh_fmt = end + ("IIQQQQIIQQ" if is64 else "IIIIIIIIII")
    want_entsize = struct.calcsize(sh_fmt)
    raw_sections: list[tuple] = []
    if e_shnum > 0:
        if e_shentsize != want_entsize:
            raise MalformedElfError(
                f"section header entry size {e_shentsize}, expected {want_entsize}"
            )
        table_end = e_shoff + e_shnum * e_shentsize
        if e_shoff <= 0 or table_end > len(data):
            raise TruncatedError("section header table extends past input")
        for i in range(e_shnum):
            raw_sections.append(
                struct.unpack_from(sh_fmt, data, e_shoff + i * e_shentsize)
            )

    # Section names via the section-header string table.
    shstr = b""
    if raw_sections and e_shstrndx != SHN_UNDEF:
        if e_shstrndx >= len(raw_sections):
            raise MalformedElfError(f"e_shstrndx={e_shstrndx} out of range")
        _, _, _, _, off, size, _, _, _, _ = raw_sections[e_shstrndx]
        if off + size > len(data):
            raise TruncatedError("section name table extends past input")
        shstr = data[off : off + size]

    sections: list[SectionRecord] = []
    for sh in raw_sections:
        (sh_name, sh_type, sh_flags, sh_addr, sh_off, sh_size, _l, _i, _a, _e) = sh
        name = _cstr(shstr, sh_name)
        if name is None:
            name = f"<bad-strtab:{sh_name}>"
            diagnostics.append(
                Diagnostic(
                    "error",
                    GT_BAD_STRING_OFFSET,
                    f"section name offset {sh_name} outside string table",
                )
            )
        file_backed = sh_type != SHT_NOBITS
        allocated = bool(sh_flags & SHF_ALLOC)
        if file_backed and allocated and sh_off + sh_size > len(data):
            raise TruncatedError(f"section {name!r} content extends past input")
        sections.append(
            SectionRecord(
                name=name,
                vaddr=sh_addr,
                size=sh_size,
                executable=bool(sh_flags & SHF_EXECINSTR),
                allocated=allocated,
                file_offset=sh_off if file_backed else None,
                tls=bool(sh_flags & SHF_TLS),
            )
        )

    # Mapped sections must not overlap in virtual address space.
    spans = sorted((s.vaddr, s.end, s.name) for s in sections if s.mapped)
    for (a_lo, a_hi, a_name), (b_lo, _b_hi, b_name) in zip(spans, spans[1:]):
        if b_lo < a_hi:
            if e_type == ET_REL:
                raise UnsupportedFormatError(
                    f"relocatable object: sections {a_name!r} and {b_name!r} "
                    "have no link-time addresses; only linked ELF is supported"
                )
            raise MalformedElfError(
                f"allocated sections {a_name!r} and {b_name!r} overlap"
            )

    # Symbol tables: .symtab first, then .dynsym function rows not already
    # present as function rows under the same (name, value); .symtab sizes
    # are the more reliable ones. Every row's name offset is checked, but a
    # name is decoded only for a function row, and only defined function
    # symbols are kept. Undefined ones (imports) name no byte of this image:
    # they are counted in one diagnostic.
    sym_fmt = end + ("IBBHQQ" if is64 else "IIIBBH")
    sym_entsize = struct.calcsize(sym_fmt)
    symbols: list[SymbolRecord] = []
    seen: set[tuple[str, int]] = set()
    imports = 0
    for table_type in (SHT_SYMTAB, SHT_DYNSYM):
        for sh in raw_sections:
            (sh_name, sh_type, _f, _addr, sh_off, sh_size, sh_link, _i, _a, sh_ent) = sh
            if sh_type != table_type:
                continue
            if sh_ent != sym_entsize:
                raise MalformedElfError(
                    f"symbol entry size {sh_ent}, expected {sym_entsize}"
                )
            if sh_size % sym_entsize != 0 or sh_off + sh_size > len(data):
                raise TruncatedError("symbol table extends past input")
            strtab = b""
            if sh_link < len(raw_sections):
                (_n, _t, _f2, _a2, st_off, st_size, _l2, _i2, _al2, _e2) = raw_sections[
                    sh_link
                ]
                if st_off + st_size > len(data):
                    raise TruncatedError("symbol string table extends past input")
                strtab = data[st_off : st_off + st_size]
            # Row 0 is the reserved null symbol; an empty table has no rows.
            rows = struct.iter_unpack(
                sym_fmt, memoryview(data)[sh_off + sym_entsize : sh_off + sh_size]
            )
            if not is64:
                rows = ((nm, info, other, ndx, val, sz) for nm, val, sz, info, other, ndx in rows)
            for st_name, st_info, _st_other, st_shndx, st_value, st_size in rows:
                bad_name = st_name >= len(strtab)
                if bad_name:
                    diagnostics.append(
                        Diagnostic(
                            "error",
                            GT_BAD_STRING_OFFSET,
                            f"symbol name offset {st_name} outside string table",
                            span=(st_value, 0),
                        )
                    )
                if st_info & 0xF != STT_FUNC:
                    continue
                name = f"<bad-strtab:{st_name}>" if bad_name else _cstr(strtab, st_name)
                if table_type == SHT_DYNSYM and (name, st_value) in seen:
                    continue
                seen.add((name, st_value))
                if st_shndx == SHN_UNDEF:
                    imports += 1
                    continue
                symbols.append(
                    SymbolRecord(
                        name, st_value, st_size, _BINDING_NAMES.get(st_info >> 4, "local")
                    )
                )
    if imports:
        diagnostics.append(
            Diagnostic(
                "info",
                GT_SYMBOL_OUTSIDE_SECTIONS,
                f"{imports} undefined function symbols (imports) are outside "
                "every allocated section; skipped",
            )
        )

    return BinaryImage(
        source_path=source_path,
        content_digest=digest_binary(data),
        word_size=64 if is64 else 32,
        endianness=endianness,
        machine_code=e_machine,
        sections=tuple(sections),
        symbols=tuple(symbols),
        raw=data,
        parse_diagnostics=tuple(diagnostics),
    )


def section_of(image: BinaryImage, addr: int) -> SectionRecord | None:
    """The unique mapped section containing ``addr``, or ``None``.

    A bisect over the image's mapped sections in address order; they are
    disjoint, since :func:`parse_image` refuses mapped sections that
    overlap, so only the last one starting at or before ``addr`` can hold it.
    """
    i = bisect.bisect_right(image.mapped_starts, addr) - 1
    if i >= 0:
        sec = image.mapped_sections[i]
        if addr < sec.end:
            return sec
    return None


def function_symbols(
    image: BinaryImage,
) -> tuple[list[tuple[SymbolRecord, SectionRecord]], list[Diagnostic]]:
    """Function symbols residing in allocated sections, each with its section.

    This is where start order is decided, once: the pairs come sorted by
    ``(value, name, binding, size)``, and every later stage keeps that
    order instead of sorting again.

    Skipped symbols (absolute symbols and others outside every allocated
    section) and zero-size symbols are reported through diagnostics so
    that no symbol is dropped silently; :func:`parse_image` has already
    dropped undefined imports and counted them in one diagnostic.
    """
    kept: list[tuple[SymbolRecord, SectionRecord]] = []
    diagnostics: list[Diagnostic] = []
    ordered = sorted(
        image.symbols, key=lambda s: (s.value, s.name, s.binding, s.size)
    )
    for sym in ordered:
        sec = section_of(image, sym.value)
        if sec is None:
            diagnostics.append(
                Diagnostic(
                    "info",
                    GT_SYMBOL_OUTSIDE_SECTIONS,
                    f"function symbol {sym.name!r} at {sym.value:#x} is outside "
                    "every allocated section; skipped",
                    span=(sym.value, 0),
                )
            )
            continue
        if not sec.executable:
            diagnostics.append(
                Diagnostic(
                    "warning",
                    GT_FUNCTION_NOT_EXECUTABLE,
                    f"function symbol {sym.name!r} at {sym.value:#x} resides in "
                    f"non-executable section {sec.name!r}",
                    span=(sym.value, sym.size),
                )
            )
        if sym.size == 0:
            diagnostics.append(
                Diagnostic(
                    "warning",
                    GT_MISSING_SIZE,
                    f"function symbol {sym.name!r} at {sym.value:#x} has no size; "
                    "boundary defers to the next symbol",
                    span=(sym.value, 0),
                )
            )
        kept.append((sym, sec))
    return kept, diagnostics
