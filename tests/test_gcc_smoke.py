"""The checkers of ``scripts/gcc_smoke.py``, fed forged documents.

The script builds C programs with gcc and stays out of this suite; its
checkers are plain functions of a document dict, so they run here
without a compiler. Each expectation must fire when it is violated.
"""
from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "gcc_smoke.py"
_SPEC = importlib.util.spec_from_file_location("gcc_smoke", _PATH)
smoke = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(smoke)


def _fn(
    name: str, provenance: list[str], file: str | None = "smoke.c", flags: tuple = ()
) -> dict:
    return {"name": name, "provenance": provenance, "source": {"file": file}, "flags": list(flags)}


def _smoke_doc(file: str = "smoke.c") -> dict:
    """The first program as gcc 12 builds it: ``main``'s record starts at
    ``main``, and ``main.cold`` is a cold part of it."""
    return {
        "functions": [
            _fn("fail", ["dwarf", "symtab"], file),
            _fn("sum_squares", ["dwarf", "symtab"], file),
            _fn("main", ["dwarf", "symtab"], file),
            _fn("main.cold", ["dwarf", "symtab"], file, ["cold_part"]),
            _fn("_start", ["symtab"], None, ["compiler_inserted"]),
        ]
    }


def _two_files_doc(gc: bool) -> dict:
    """The two-file program: ``main`` keeps its last call whole."""
    diagnostics = []
    if gc:
        diagnostics.append(
            {"code": "GT_LINKER_DISCARDED", "message": "3 subprogram(s) or inlined copies"}
        )
    return {
        "complete": True,
        "functions": [
            {"name": "main", "flags": [], "end_raw": "0x1094", "end_trimmed": "0x1094"},
            {"name": "die", "flags": ["noreturn"], "end_raw": "0x10a0", "end_trimmed": "0x10a0"},
        ],
        "diagnostics": diagnostics,
    }


def _named(doc: dict, name: str) -> dict:
    return next(fn for fn in doc["functions"] if fn["name"] == name)


@pytest.mark.parametrize("build", ["default", "dwarf4"])
def test_a_smoke_build_as_gcc_makes_it_passes(build):
    assert smoke.check_smoke(build, 0, _smoke_doc()) == []


def test_the_lto_build_passes_naming_smoke_c():
    assert smoke.check_smoke("lto", 0, _smoke_doc()) == []


@pytest.mark.parametrize("build", ["noreturn", "noreturn-g0", "gc-sections", "gc-sections-gold"])
def test_a_two_file_build_as_gcc_makes_it_passes(build):
    assert smoke.check_two_files(build, 0, _two_files_doc(build.startswith("gc"))) == []


def _lto_doc(base_too: bool, group: str | None = "fail") -> dict:
    """The ``-flto`` build as gcc 12 makes it: ``fail`` is only present as
    its clone ``fail.constprop.0``, in ``fail``'s group."""
    doc = _smoke_doc()
    clone = {**_named(doc, "fail"), "name": "fail.constprop.0", "group": group}
    if base_too:
        _named(doc, "fail")["group"] = "fail"
        doc["functions"].append(clone)
    else:
        doc["functions"] = [clone if fn["name"] == "fail" else fn for fn in doc["functions"]]
    return doc


@pytest.mark.parametrize("base_too", [False, True])
def test_a_clone_in_its_base_group_passes(base_too):
    assert smoke.check_smoke("lto", 0, _lto_doc(base_too)) == []


def test_a_clone_out_of_its_base_group_is_a_problem():
    assert smoke.check_smoke("lto", 0, _lto_doc(False, None)) == [
        "fail.constprop.0: group None, not 'fail'"
    ]
    doc = _lto_doc(True)
    _named(doc, "fail")["group"] = None
    assert smoke.check_smoke("lto", 0, doc) == ["fail: group None, not 'fail'"]


def test_a_group_on_a_function_without_clones_is_a_problem():
    doc = _smoke_doc()
    _named(doc, "main")["group"] = "main"
    assert smoke.check_smoke("default", 0, doc) == ["main: group 'main', not None"]


def test_a_hot_part_without_dwarf_is_a_problem():
    """As the reader had it when a record's extent was the hull of its
    ranges: the record went to ``main.cold``, below ``main``."""
    doc = _smoke_doc()
    _named(doc, "main")["provenance"] = ["symtab"]
    _named(doc, "main")["source"] = None
    _named(doc, "main.cold")["flags"] = []
    assert smoke.check_smoke("default", 0, doc) == [
        "main: provenance ['symtab']",
        "main: source.file None",
        "main.cold: flags []",
    ]


def test_a_cold_part_flag_off_a_cold_part_is_a_problem():
    doc = _smoke_doc()
    _named(doc, "main")["flags"] = ["cold_part"]
    assert smoke.check_smoke("dwarf4", 0, doc) == ["main: flags ['cold_part']"]


def test_a_trim_into_mains_last_call_is_a_problem():
    doc = _two_files_doc(gc=False)
    _named(doc, "main")["end_trimmed"] = "0x1091"
    assert smoke.check_two_files("noreturn", 0, doc) == [
        "main: the trim cuts its last call at 0x1091"
    ]


def test_the_g0_build_keeps_mains_last_call_by_its_fde():
    """Without DWARF, die need not be noreturn, but a trim into main's last
    call is still a problem: main's FDE must keep it whole."""
    doc = _two_files_doc(gc=False)
    _named(doc, "die")["flags"] = ["compiler_inserted"]
    assert smoke.check_two_files("noreturn-g0", 0, doc) == []
    _named(doc, "main")["end_trimmed"] = "0x1091"
    assert smoke.check_two_files("noreturn-g0", 0, doc) == [
        "main: the trim cuts its last call at 0x1091"
    ]


def test_an_lto_build_with_file_indexes_is_a_problem():
    """As the reader had it before it read line tables: the LTO unit's
    indexes came out as file#N."""
    assert smoke.check_smoke("lto", 0, _smoke_doc("file#7")) == [
        f"{name}: source.file 'file#7'"
        for name in ("fail", "main", "main.cold", "sum_squares")
    ]


def test_an_lto_file_that_is_not_an_index_is_a_problem():
    assert smoke.check_smoke("lto", 0, _smoke_doc("a.c")) == [
        f"{name}: source.file 'a.c'"
        for name in ("fail", "main", "main.cold", "sum_squares")
    ]


def test_a_wrong_source_file_is_a_problem():
    doc = _smoke_doc()
    _named(doc, "fail")["source"] = {"file": "file#3"}
    assert smoke.check_smoke("default", 0, doc) == ["fail: source.file 'file#3'"]


def test_a_function_without_dwarf_is_a_problem():
    doc = _smoke_doc()
    _named(doc, "sum_squares")["provenance"] = ["symtab"]
    assert smoke.check_smoke("dwarf4", 0, doc) == ["sum_squares: provenance ['symtab']"]


def test_a_missing_function_and_a_failed_extract_are_problems():
    doc = _smoke_doc()
    doc["functions"] = [fn for fn in doc["functions"] if fn["name"] != "fail"]
    assert smoke.check_smoke("default", 0, doc) == ["fail: no function"]
    assert smoke.check_smoke("default", 2, _smoke_doc()) == ["extract exited 2"]


def test_a_die_without_noreturn_is_a_problem():
    doc = _two_files_doc(gc=False)
    _named(doc, "die")["flags"] = []
    assert smoke.check_two_files("noreturn", 0, doc) == ["die: flags [], not noreturn"]


def test_an_incomplete_document_is_a_problem():
    doc = _two_files_doc(gc=True)
    doc["complete"] = False
    (problem,) = smoke.check_two_files("gc-sections", 0, doc)
    assert problem.startswith("exit 0, complete False, linker-discarded counts [3] (want [3])")


@pytest.mark.parametrize(
    ("build", "counts"),
    [("gc-sections", []), ("gc-sections-gold", ["2"]), ("noreturn", ["3"])],
    ids=["none", "two", "without-gc"],
)
def test_a_wrong_linker_discarded_count_is_a_problem(build, counts):
    doc = _two_files_doc(gc=False)
    doc["diagnostics"] += [
        {"code": "GT_LINKER_DISCARDED", "message": f"{n} subprogram(s)"} for n in counts
    ]
    want = [3] if build.startswith("gc") else []
    (problem,) = smoke.check_two_files(build, 0, doc)
    assert problem.startswith(
        f"exit 0, complete True, linker-discarded counts {[int(n) for n in counts]} "
        f"(want {want})"
    )


def test_a_two_file_build_without_a_document_is_a_problem():
    assert smoke.check_two_files("noreturn", 1, {}) == ["extract exited 1 without a document"]


def _cxx_doc() -> dict:
    """The C++ program as g++ 12 builds it."""
    functions = [
        {"name": name, "provenance": ["dwarf", "symtab"], "source": {"file": file}}
        for name, file in smoke.CXX_FILES.items()
    ]
    functions.append({"name": "_start", "provenance": ["symtab"], "source": None})
    return {"complete": True, "functions": functions, "diagnostics": []}


@pytest.mark.parametrize("build", ["cxx", "cxx-dwarf4"])
def test_a_cxx_build_as_gcc_makes_it_passes(build):
    assert smoke.check_cxx(build, 0, _cxx_doc()) == []


def test_cxx_files_as_the_reader_had_them_without_line_tables_are_problems():
    """The DWARF 5 build before line tables were read: each index 1 named
    the unit's own file and each index 2 came out as file#2."""
    doc = _cxx_doc()
    read = ["a.cc", "a.cc", "b.cc", "file#2", "file#2"]
    for fn, file in zip(doc["functions"], read):
        fn["source"] = {"file": file}
    assert smoke.check_cxx("cxx", 0, doc) == [
        "_Z2sqi: source.file 'a.cc', not 'h.h'",
        "_Z5twiceIiET_S0_: source.file 'a.cc', not 'h.h'",
        "_Z5twiceIdET_S0_: source.file 'b.cc', not 'h.h'",
        "_Z2fai: source.file 'file#2', not 'a.cc'",
        "main: source.file 'file#2', not 'b.cc'",
    ]


def test_a_missing_doubled_or_symbol_only_cxx_function_is_a_problem():
    doc = _cxx_doc()
    doc["functions"] = [fn for fn in doc["functions"] if fn["name"] != "_Z2fai"]
    doc["functions"].append(dict(_named(doc, "_Z2sqi")))
    _named(doc, "main")["provenance"] = ["symtab"]
    assert smoke.check_cxx("cxx", 0, doc) == [
        "_Z2sqi: 2 functions",
        "_Z2fai: 0 functions",
        "main: provenance ['symtab']",
    ]


def test_a_start_mismatch_or_an_incomplete_cxx_document_is_a_problem():
    doc = _cxx_doc()
    doc["complete"] = False
    doc["diagnostics"].append({"code": "GT_START_MISMATCH", "message": "m"})
    assert smoke.check_cxx("cxx-dwarf4", 0, doc) == [
        "exit 0, complete False",
        "1 GT_START_MISMATCH",
    ]
    assert smoke.check_cxx("cxx", 1, {}) == ["extract exited 1 without a document"]


def _clone_cold_doc() -> dict:
    """The clone-cold build as gcc 12 makes it: scale's clone and its
    ``.cold`` part are both in ``scale``'s group."""
    functions = [
        {"name": "warn", "provenance": ["dwarf", "symtab"], "flags": [], "group": None},
        {
            "name": "scale.constprop.0.cold",
            "provenance": ["dwarf", "symtab"],
            "flags": ["cold_part", "specialized"],
            "group": "scale",
        },
        {"name": "main", "provenance": ["dwarf", "symtab"], "flags": [], "group": None},
        {
            "name": "scale.constprop.0",
            "provenance": ["dwarf", "symtab"],
            "flags": ["specialized"],
            "group": "scale",
        },
    ]
    return {"complete": True, "functions": functions}


def test_the_clone_cold_build_as_gcc_makes_it_passes(capsys):
    assert smoke.check_clone_cold("clone-cold", 0, _clone_cold_doc()) == []
    assert capsys.readouterr().out == (
        "clone-cold: exit 0, scale.constprop.0.cold group scale cold_part+specialized, "
        "scale.constprop.0 group scale specialized\n"
    )


def test_a_cold_part_out_of_its_clones_group_is_a_problem():
    """As the name map had it when it held a record's name only at its entry."""
    doc = _clone_cold_doc()
    cold = _named(doc, "scale.constprop.0.cold")
    cold["group"], cold["flags"] = None, ["cold_part"]
    assert smoke.check_clone_cold("clone-cold", 0, doc) == [
        "scale.constprop.0.cold: group None, not 'scale'"
    ]


def test_a_wrong_clone_cold_flag_provenance_or_document_is_a_problem():
    doc = _clone_cold_doc()
    doc["complete"] = False
    _named(doc, "scale.constprop.0")["flags"].append("cold_part")
    _named(doc, "scale.constprop.0.cold")["provenance"] = ["symtab"]
    assert smoke.check_clone_cold("clone-cold", 0, doc) == [
        "exit 0, complete False",
        "scale.constprop.0: flags ['specialized', 'cold_part']",
        "scale.constprop.0.cold: provenance ['symtab']",
    ]
    doc = _clone_cold_doc()
    doc["functions"] = [fn for fn in doc["functions"] if not fn["name"].endswith(".cold")]
    assert smoke.check_clone_cold("clone-cold", 0, doc) == ["scale.constprop.0.cold: no function"]
    assert smoke.check_clone_cold("clone-cold", 1, {}) == ["extract exited 1 without a document"]


def test_gas_nops_fills_pass_and_a_new_filler_is_a_problem(gas_nop_fills, capsys):
    assert smoke.check_nops(list(gas_nop_fills)) == []
    assert capsys.readouterr().out == "nops: 64 of 64 .nops fills parse as padding\n"
    fills = list(gas_nop_fills)
    fills[2] = bytes.fromhex("8d7600")  # lea 0x0(%esi),%esi: as --32's 3-byte fill
    fills[63] = fills[63][:-1]
    assert smoke.check_nops(fills) == [
        ".nops 3: 8d7600 is not padding",
        f".nops 64: {fills[63].hex()} is not padding",
    ]
    assert capsys.readouterr().out == "nops: 62 of 64 .nops fills parse as padding\n"


def test_an_extraction_without_cycles_passes_and_any_cyclic_garbage_is_a_problem(
    tmp_path, preset_bytes, capsys
):
    binary = tmp_path / "listing1.bin"
    binary.write_bytes(preset_bytes["listing1"])
    counts = smoke.cyclic_garbage(binary)
    assert counts == Counter()
    assert smoke.check_garbage("lto", counts) == []
    assert capsys.readouterr().out == "lto: cyclic garbage after extract: none\n"
    counts = Counter({"_Unit": 1, "_Die": 10, "_Aux": 1})
    shown = "1 _Aux, 10 _Die, 1 _Unit"
    assert smoke.check_garbage("lto", counts) == [f"cyclic garbage: {shown}"]
    assert capsys.readouterr().out == f"lto: cyclic garbage after extract: {shown}\n"
    # Not only a DWARF unit: a reader that holds itself is a problem too.
    counts = Counter({"function": 1, "dict": 1})
    assert smoke.check_garbage("lto", counts) == ["cyclic garbage: 1 dict, 1 function"]
    capsys.readouterr()
