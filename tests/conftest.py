"""Shared fixtures, the Hypothesis profile and the acceptance-result banner.

Preset binaries and their ground-truth documents are built once per
session; criterion outcomes from test_acceptance.py are collected and
printed as one line each at the end of the run.
"""
from __future__ import annotations

import gc
from pathlib import Path

import pytest
from hypothesis import settings

import corpuscheck
from bintruth import elf, forge, normalize

# Every run draws the same examples, and none of them has a deadline.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

_CRITERIA: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): acceptance criterion metadata"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None or report.when != "call":
        return
    num, title = marker.args
    _CRITERIA[num] = (title, "PASS" if report.passed else "FAIL")


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_CRITERIA):
        title, verdict = _CRITERIA[num]
        terminalreporter.write_line(f"criterion {num:2d} [{verdict}] {title}")


@pytest.fixture
def collector():
    """Sets the cyclic collector on or off for a test, and puts it back as
    it was whatever the test leaves."""
    enabled = gc.isenabled()
    yield lambda on: gc.enable() if on else gc.disable()
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(scope="session")
def preset_bytes():
    return {name: forge.emit(forge.preset(name)) for name in forge.PRESETS}


@pytest.fixture(scope="session")
def preset_images(preset_bytes):
    return {name: elf.parse_image(data) for name, data in preset_bytes.items()}


@pytest.fixture(scope="session")
def preset_docs(preset_bytes):
    return {
        name: corpuscheck.build_document(data)[1] for name, data in preset_bytes.items()
    }


def _cold_split_spec() -> forge.BinarySpec:
    """Two functions split as gcc splits a function with a cold path: the
    part ``NAME.cold`` lies below ``NAME``, whose DWARF subprogram lists
    ``NAME``'s range first and the cold part's second, with no high pc.
    ``main`` is described in a DWARF 4 unit (``.debug_ranges``) and the
    noreturn ``die`` in a DWARF 5 unit (``.debug_rnglists``). Every part
    ends in a rel32 ``call`` whose displacement ends in ``00`` and is
    followed by three nop bytes outside its symbol size."""
    text = forge.SectionSpec(".text", 0x401000, executable=True)
    body = forge._FILLER[:8] + b"\xe8\x20\x01\x00\x00"  # call, rel32 0x120
    functions = []
    for unit, name in enumerate(("main", "die")):
        cold = 32 * unit
        hot = cold + 16
        ranges = tuple(
            (text.vaddr + offset, text.vaddr + offset + len(body)) for offset in (hot, cold)
        )
        functions.append(forge.FunctionSpec(f"{name}.cold", cold, body, pad_after=b"\x90" * 3))
        functions.append(
            forge.FunctionSpec(
                name,
                hot,
                body,
                binding="global",
                pad_after=b"\x90" * 3,
                dwarf=(forge.DwarfFuncSpec(unit=unit, ranges=ranges, noreturn=name == "die"),),
            )
        )
    return forge.BinarySpec(
        sections=(text,),
        functions=tuple(functions),
        word_size=64,
        dwarf_versions=(4, 5),
        cu_names=("split.c", "die.c"),
    )


@pytest.fixture(scope="session")
def cold_split_bytes():
    """The bytes of :func:`_cold_split_spec`."""
    return forge.emit(_cold_split_spec())


def _unnamed_cold_spec() -> forge.BinarySpec:
    """``main`` split in three: its DWARF 4 subprogram lists its own range
    first, then a cold range whose bytes no symbol names, then
    ``main.cold``. Each part is a 13-byte body ending in a call."""
    text = forge.SectionSpec(".text", 0x401000, executable=True)
    body = forge._FILLER[:8] + b"\xe8\x20\x01\x00\x00"  # call, rel32 0x120
    ranges = tuple((text.vaddr + at, text.vaddr + at + len(body)) for at in (32, 0, 16))
    return forge.BinarySpec(
        sections=(text,),
        functions=(
            forge.FunctionSpec("main.cold.unnamed", 0, body, emit_symbol=False),
            forge.FunctionSpec("main.cold", 16, body),
            forge.FunctionSpec(
                "main", 32, body, binding="global", dwarf=(forge.DwarfFuncSpec(ranges=ranges),)
            ),
        ),
        word_size=64,
        cu_names=("split.c",),
    )


@pytest.fixture(scope="session")
def unnamed_cold_bytes():
    """The bytes of :func:`_unnamed_cold_spec`."""
    return forge.emit(_unnamed_cold_spec())


def _gcc_clone_spec() -> forge.BinarySpec:
    """Functions named as gcc names its clones, each described by a DWARF
    concrete instance whose abstract origin names its base: ``fail`` and
    its clone ``fail.constprop.0``; ``scale.isra.0.lto_priv.0``, a clone
    whose base was inlined everywhere and has no symbol; and
    ``helper.lto_priv.0``, only renamed by LTO. ``fold..0`` is a clone
    named the other way, with no debug record."""
    text = forge.SectionSpec(".text", 0x401000, executable=True)

    def fn(name: str, offset: int, *dwarf: forge.DwarfFuncSpec) -> forge.FunctionSpec:
        return forge.FunctionSpec(name, offset, forge._fixed_body(16), dwarf=dwarf)

    def clone_of(base: str) -> forge.DwarfFuncSpec:
        return forge.DwarfFuncSpec(name_via="abstract_origin", name=base)

    return forge.BinarySpec(
        sections=(text,),
        functions=(
            fn("fail", 0, forge.DwarfFuncSpec()),
            fn("fail.constprop.0", 16, clone_of("fail")),
            fn("scale.isra.0.lto_priv.0", 32, clone_of("scale")),
            fn("helper.lto_priv.0", 48, clone_of("helper")),
            fn("fold..0", 64),
        ),
        word_size=64,
        dwarf_versions=(5,),
        cu_names=("clones.c",),
    )


@pytest.fixture(scope="session")
def gcc_clone_bytes():
    """The bytes of :func:`_gcc_clone_spec`."""
    return forge.emit(_gcc_clone_spec())


def _gcc_cold_clone_spec() -> forge.BinarySpec:
    """A gcc clone split as gcc splits a function with a cold path:
    ``f.constprop.0``'s concrete instance names its base ``f`` through its
    abstract origin, and its range list holds its own range first, then
    that of its part ``f.constprop.0.cold``, which lies below it."""
    text = forge.SectionSpec(".text", 0x401000, executable=True)
    body = forge._fixed_body(16)
    ranges = ((text.vaddr + 16, text.vaddr + 32), (text.vaddr, text.vaddr + 16))
    clone = forge.DwarfFuncSpec(ranges=ranges, name_via="abstract_origin", name="f")
    return forge.BinarySpec(
        sections=(text,),
        functions=(
            forge.FunctionSpec("f.constprop.0.cold", 0, body),
            forge.FunctionSpec("f.constprop.0", 16, body, dwarf=(clone,)),
        ),
        word_size=64,
        dwarf_versions=(5,),
        cu_names=("clones.c",),
    )


@pytest.fixture(scope="session")
def gcc_cold_clone_bytes():
    """The bytes of :func:`_gcc_cold_clone_spec`."""
    return forge.emit(_gcc_cold_clone_spec())


def _folded_clone_spec() -> forge.BinarySpec:
    """Identical gcc clones that the linker folded into one body, as in
    ``python3.13``: ``a.part.0`` is canonical by its name, and its alias
    ``b.part.0`` is the clone whose concrete instance, at their start,
    names its base ``b``, which has a symbol of its own."""
    text = forge.SectionSpec(".text", 0x401000, executable=True)
    body = forge._fixed_body(16)
    clone = forge.DwarfFuncSpec(name_via="abstract_origin", name="b")
    return forge.BinarySpec(
        sections=(text,),
        functions=(
            forge.FunctionSpec("b", 0, body, dwarf=(forge.DwarfFuncSpec(),)),
            forge.FunctionSpec(
                "a.part.0", 16, body, aliases=(("b.part.0", "local"),), dwarf=(clone,)
            ),
        ),
        word_size=64,
        dwarf_versions=(5,),
        cu_names=("folded.c",),
    )


@pytest.fixture(scope="session")
def folded_clone_bytes():
    """The bytes of :func:`_folded_clone_spec`."""
    return forge.emit(_folded_clone_spec())


def _line_table_spec(version: int) -> forge.BinarySpec:
    """One unit whose subprograms name their source files by decl_file
    index through its line table: before DWARF 5 the 1-based file names of
    ``lines.c`` (in the unit's directory), ``stdlib.h`` (in include
    directory 1) and an absolute path, index 0 naming no file; in DWARF 5,
    with line_strp paths, gcc 12's order: entry 0 is ``lines.c``, a header
    ``lines.h`` comes next, at index 1, and ``lines.c`` again at 2. The
    last two functions name indexes past the table."""
    text = forge.SectionSpec(".text", 0x401000, executable=True)
    if version == 5:
        table = forge.LineTableSpec(
            files=(
                ("lines.c", 0), ("lines.h", 0), ("lines.c", 0),
                ("stdlib.h", 1), ("/lib/abs.h", 1),
            ),
            directories=("/src", "/usr/include"),
            path_form="line_strp",
        )
    else:
        table = forge.LineTableSpec(
            files=(("lines.c", 0), ("stdlib.h", 1), ("/lib/abs.h", 1)),
            directories=("/usr/include",),
        )
    functions = tuple(
        forge.FunctionSpec(
            f"f{index}", 16 * index, forge._fixed_body(16),
            dwarf=(forge.DwarfFuncSpec(decl_file=index, decl_line=10 + index),),
        )
        for index in range(len(table.files) + 2)
    )
    return forge.BinarySpec(
        sections=(text,),
        functions=functions,
        word_size=64,
        dwarf_versions=(version,),
        cu_names=("lines.c",),
        line_tables=(table,),
    )


@pytest.fixture(scope="session")
def line_table_bytes():
    """The bytes of :func:`_line_table_spec`, by DWARF version."""
    return {version: forge.emit(_line_table_spec(version)) for version in (2, 3, 4, 5)}


def _cross_unit_lines_spec() -> forge.BinarySpec:
    """Two units, each with a line table, whose abstract origins lie in the
    other unit, as gcc writes header-defined inline functions: ``fa`` in
    ``a.cc`` (DWARF 4) is declared in its file 1; ``sq`` is defined in
    ``a.cc`` but its origin, in ``b.cc`` (DWARF 5), holds index 1 of
    ``b.cc``'s table; ``main`` in ``b.cc`` names its file 2; ``twice`` is
    defined in ``b.cc`` with its origin in ``a.cc``, at index 2 of
    ``a.cc``'s table."""
    text = forge.SectionSpec(".text", 0x401000, executable=True)

    def fn(name: str, offset: int, dwarf: forge.DwarfFuncSpec) -> forge.FunctionSpec:
        return forge.FunctionSpec(name, offset, forge._fixed_body(16), dwarf=(dwarf,))

    return forge.BinarySpec(
        sections=(text,),
        functions=(
            fn("fa", 0, forge.DwarfFuncSpec(decl_file=1, decl_line=2)),
            fn("sq", 16, forge.DwarfFuncSpec(
                name_via="abstract_origin", origin_unit=1, decl_file=1, decl_line=3
            )),
            fn("main", 32, forge.DwarfFuncSpec(unit=1, decl_file=2, decl_line=4)),
            fn("twice", 48, forge.DwarfFuncSpec(
                unit=1, name_via="abstract_origin", origin_unit=0, decl_file=2, decl_line=5
            )),
        ),
        word_size=64,
        dwarf_versions=(4, 5),
        cu_names=("a.cc", "b.cc"),
        line_tables=(
            forge.LineTableSpec(files=(("a.cc", 0), ("h.h", 0))),
            forge.LineTableSpec(
                files=(("b.cc", 0), ("util.h", 1), ("b.cc", 0)),
                directories=("/src", "/src/include"),
                md5=True,
            ),
        ),
    )


@pytest.fixture(scope="session")
def cross_unit_lines_bytes():
    """The bytes of :func:`_cross_unit_lines_spec`."""
    return forge.emit(_cross_unit_lines_spec())


@pytest.fixture(scope="session")
def gas_nop_fills() -> tuple[bytes, ...]:
    """GNU as's x86-64 fill for ``.nops N``, at index ``N - 1`` for N = 1..64."""
    text = (Path(__file__).parent / "data" / "gas-nops-x86_64.txt").read_text()
    return tuple(bytes.fromhex(fill) for fill in normalize.parse_name_list(text))


def _gas_nops_spec(fills: tuple[bytes, ...]) -> forge.BinarySpec:
    """gas's padding style: for each fill, a function followed by it outside
    its symbol (a gap) and one whose symbol size counts it, as icc sizes a
    function (a trim). No DWARF or FDE floors the trims."""
    text = forge.SectionSpec(".text", 0x401000, executable=True)
    body = forge._fixed_body(16)
    functions, offset = [], 0
    for fill in fills:
        for style, icc in (("gap", False), ("trim", True)):
            functions.append(
                forge.FunctionSpec(
                    f"{style}_{len(fill)}",
                    offset,
                    body,
                    pad_after=fill,
                    icc_size_includes_padding=icc,
                )
            )
            offset += len(body) + len(fill)
    return forge.BinarySpec(sections=(text,), functions=tuple(functions), word_size=64)


@pytest.fixture(scope="session")
def gas_nops_bytes(gas_nop_fills):
    """The bytes of :func:`_gas_nops_spec` over every fill."""
    return forge.emit(_gas_nops_spec(gas_nop_fills))


@pytest.fixture(scope="session")
def small_corpus():
    """25 randomized fixtures shared by the unit tests."""
    return forge.generate_corpus(seed=1, count=25)
