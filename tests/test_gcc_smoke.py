"""The checkers of ``scripts/gcc_smoke.py``, fed forged documents.

The script builds C programs with gcc and stays out of this suite; its
checkers are plain functions of a document dict, so they run here
without a compiler. Each pin must fire once its defect is gone, and each
expectation when it is violated.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "gcc_smoke.py"
_SPEC = importlib.util.spec_from_file_location("gcc_smoke", _PATH)
smoke = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(smoke)


def _fn(name: str, provenance: list[str], file: str | None = "smoke.c") -> dict:
    return {"name": name, "provenance": provenance, "source": {"file": file}}


def _smoke_doc(file: str = "smoke.c") -> dict:
    """The first program as gcc 12 builds it: ``main``'s hot part is only a
    symbol, and its record went to ``main.cold``."""
    return {
        "functions": [
            _fn("fail", ["dwarf", "symtab"], file),
            _fn("sum_squares", ["dwarf", "symtab"], file),
            _fn("main", ["symtab"], None),
            _fn("main.cold", ["dwarf", "symtab"], file),
            _fn("_start", ["symtab"], None),
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


def test_the_lto_build_passes_with_file_indexes():
    assert smoke.check_smoke("lto", 0, _smoke_doc("file#7")) == []


@pytest.mark.parametrize("build", ["noreturn", "gc-sections", "gc-sections-gold"])
def test_a_two_file_build_as_gcc_makes_it_passes(build):
    assert smoke.check_two_files(build, 0, _two_files_doc(build.startswith("gc"))) == []


def test_the_cold_pin_fires_when_the_hot_part_has_dwarf():
    doc = _smoke_doc()
    _named(doc, "main")["provenance"] = ["dwarf", "symtab"]
    _named(doc, "main")["source"] = {"file": "smoke.c"}
    assert smoke.check_smoke("default", 0, doc) == [
        "main: the hot part of a split function has dwarf provenance; drop its pin"
    ]


def test_a_trim_into_mains_last_call_is_a_problem():
    doc = _two_files_doc(gc=False)
    _named(doc, "main")["end_trimmed"] = "0x1091"
    assert smoke.check_two_files("noreturn", 0, doc) == [
        "main: the trim cuts its last call at 0x1091"
    ]


def test_the_lto_pin_fires_when_the_build_reads_its_file():
    problems = smoke.check_smoke("lto", 0, _smoke_doc())
    assert problems == [
        f"{name}: the lto build reads smoke.c; drop its pin"
        for name in ("fail", "main.cold", "sum_squares")
    ]


def test_an_lto_file_that_is_not_an_index_is_a_problem():
    assert smoke.check_smoke("lto", 0, _smoke_doc("a.c")) == [
        f"{name}: source.file 'a.c', not file#N" for name in ("fail", "main.cold", "sum_squares")
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
