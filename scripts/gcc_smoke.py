#!/usr/bin/env python3
"""Extract ground truth from binaries that gcc builds from small C programs.

The first program has a ``static inline`` helper, which gcc inlines at
-O2, and a ``__attribute__((cold))`` function. It is compiled at
``-O2 -g`` three times: with the compiler's default DWARF version, with
``-gdwarf-4`` and with ``-flto``. ``bintruth extract`` must exit 0 on
each binary, and every function of the program that the document holds
(a ``.cold`` part or a ``.constprop.0`` clone included, matched by its
name before the first ``.``) must have ``dwarf`` provenance. gcc moves
the cold call out of ``main`` into ``main.cold``, which lies below
``main``; ``main``'s subprogram lists ``main``'s range first, and the
reader takes that range, its entry's, as the record's extent. So the
record goes to ``main``, and ``main.cold``, at another of its ranges, is
a cold part of it: a function must carry the ``cold_part`` flag exactly
when its name ends in ``.cold``. Each function must give ``smoke.c`` as
its ``source.file``, which the ``-flto`` build's LTO unit names only
through its line table. A gcc clone
(a ``.constprop.N``, ``.isra.N`` or ``.part.N`` name, as gcc 12 makes
``fail.constprop.0`` in the ``-flto`` build) must be in the
specialization group of its base name, and so must the base function if
the document holds it; every other function must be in no group.

The second program has two files. ``a.c``'s ``main`` ends in a call to
``die``, which ``b.c`` defines as ``noreturn``; nothing calls ``b.c``'s
``unused_fn`` or ``dead_b``. It is compiled at ``-O2 -g``, and again with
``-ffunction-sections -Wl,--gc-sections`` under GNU ld and under gold
(skipped with a note when gcc cannot link with gold). In each build
``die`` must be flagged ``noreturn`` and extract must exit 0 with a
complete document. With ``--gc-sections`` the linker drops ``unused_fn``
and ``dead_b`` but keeps their DWARF at ``low_pc`` 0, with the copy of
``unused_fn`` inlined into ``dead_b``: the document must count those
three in one ``GT_LINKER_DISCARDED`` diagnostic and give none of them a
diagnostic of its own. ``main``'s last instruction is the call, whose
displacement ends in ``00`` bytes. Its DWARF record starts at its start
and ends at its raw end, so the padding trim must keep the call whole:
``end_trimmed`` must equal ``end_raw``. The ``noreturn-g0`` build
compiles the program at ``-O2 -g -g0``, with no DWARF: ``main``'s
``.eh_frame`` FDE, which ends at its raw end, must keep the call whole,
and nothing says that ``die`` does not return.

The third program is C++ in two translation units. ``h.h`` defines the
inline function ``sq`` and the function template ``twice``, both
``noinline``; ``a.cc`` defines ``fa`` and calls ``sq`` and ``twice<int>``,
and ``b.cc`` defines ``main`` and calls ``sq`` and ``twice<double>``. So
each unit has its own COMDAT copy of ``sq``. In DWARF 5, gcc 12 lists
``h.h`` in each unit's line table at index 1, ahead of the unit's own
file at 2; in DWARF 4 it names ``h.h`` by index 2. It is
compiled with g++ at ``-O2 -g`` and again with ``-gdwarf-4`` (skipped
with a note when ``g++`` is not on PATH). Extract must exit 0 with a
complete document and no ``GT_START_MISMATCH``; ``_Z2sqi``,
``_Z5twiceIiET_S0_``, ``_Z5twiceIdET_S0_``, ``_Z2fai`` and ``main`` must
each be one function with ``dwarf`` provenance, whose ``source.file`` is
``h.h`` for the first three, ``a.cc`` for ``fa`` and ``b.cc`` for
``main``.

The fourth program has a ``cold`` function ``warn`` that returns, and a
``static`` ``noinline`` ``scale(x, k)`` that calls it when ``x < 0``;
``main`` calls ``scale(n, 3)`` twice. At ``-O2 -g`` (the ``clone-cold``
build) gcc 12 specializes ``scale`` for ``k = 3`` as
``scale.constprop.0`` and moves the call to ``warn`` into
``scale.constprop.0.cold``. The clone's record names ``scale`` and lists
the ``.cold`` part's range after its own, so both functions must be in
group ``scale`` with ``dwarf`` provenance, only the ``.cold`` one a
``cold_part``, in a complete document. One line shows the two.

The ``lto`` build is extracted once more in this process, with the
cyclic collector disabled and ``gc.DEBUG_SAVEALL`` set, so that every
object the extraction leaves for the collector alone is kept. gcc's
LTO output links across units, and the DWARF reader keeps each linked
unit while it reads the blob. One line counts those objects by type,
and any of them is a problem: ``bintruth extract`` runs with the
collector paused, so nothing it builds may need the collector.

Last, ``as --64`` assembles ``.nops 1`` to ``.nops 64`` in one unit, and
each fill, cut from the object's ``.text`` in order, must parse as
padding with bintruth's x86-64 alphabet. So a later GNU as that fills
with a new nop is caught here, not labelled ``gap_unknown``. One line
gives the count.

No defect is pinned. Every program is compiled in its own directory from
relative file names, so a unit's name is its file's. Needs ``gcc`` on
PATH, ``g++`` for the C++ builds and ``as`` for the fills.

Usage:
    python3 scripts/gcc_smoke.py
"""
from __future__ import annotations

import gc
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from bintruth import byteclass, elf, interchange, normalize  # noqa: E402

SMOKE = {
    "smoke.c": r"""
#include <stdio.h>
#include <stdlib.h>

static inline int square(int x) { return x * x; }

__attribute__((cold, noinline)) void fail(const char *what)
{
    fprintf(stderr, "failed: %s\n", what);
    exit(2);
}

__attribute__((noinline)) int sum_squares(int n)
{
    int total = 0;
    for (int i = 0; i < n; i++)
        total += square(i);
    return total;
}

int main(int argc, char **argv)
{
    if (argc > 2)
        fail("too many arguments");
    printf("%d\n", sum_squares(argc > 1 ? atoi(argv[1]) : 10));
    return 0;
}
"""
}
# The functions that keep code of their own; square is inlined into sum_squares.
NOT_INLINED = {"fail", "sum_squares", "main"}
DEFINED = NOT_INLINED | {"square"}
# What gcc appends to a clone's name, after the base name.
CLONE_SUFFIX = re.compile(r"(?:\.(?:constprop|isra|part)\.\d+(?:\.lto_priv\.\d+|\.cold)?)+")

TWO_FILES = {
    "a.c": r"""
__attribute__((noreturn)) void die(int code);

int main(int argc, char **argv)
{
    (void)argv;
    die(argc);
}
""",
    "b.c": r"""
#include <stdlib.h>

__attribute__((noreturn)) void die(int code)
{
    exit(code);
}

int unused_fn(int x)
{
    return x * 3 + 1;
}

int dead_b(int x)
{
    return unused_fn(x) - 7;
}
""",
}
CXX = {
    "h.h": r"""
__attribute__((noinline)) inline int sq(int x) { return x * x; }

template <typename T> __attribute__((noinline)) T twice(T x) { return x + x; }
""",
    "a.cc": r"""
#include "h.h"

int fa(int x) { return sq(x) + twice<int>(x); }
""",
    "b.cc": r"""
#include "h.h"

int fa(int x);

int main(int argc, char **) { return fa(argc) + sq(argc) + (int)twice<double>(argc); }
""",
}
# Each function of the C++ program, by its symbol, and the file it is in.
CXX_FILES = {
    "_Z2sqi": "h.h",
    "_Z5twiceIiET_S0_": "h.h",
    "_Z5twiceIdET_S0_": "h.h",
    "_Z2fai": "a.cc",
    "main": "b.cc",
}

CLONE_COLD = {
    "clone.c": r"""
#include <stdio.h>
#include <stdlib.h>

__attribute__((cold)) void warn(const char *what, int x)
{
    fprintf(stderr, "%s: %d\n", what, x);
}

static __attribute__((noinline)) int scale(int x, int k)
{
    if (x < 0)
        warn("negative", x);
    return x * k;
}

int main(int argc, char **argv)
{
    int n = argc > 1 ? atoi(argv[1]) : -1;
    return scale(n, 3) + scale(n, 3);
}
"""
}
# scale's clone for k = 3, and the part of it that gcc splits off.
SCALE_PARTS = ("scale.constprop.0", "scale.constprop.0.cold")

# dead_b, unused_fn, and the copy of unused_fn inlined into dead_b.
DISCARDED_DIES = 3
GC = ["-ffunction-sections", "-Wl,--gc-sections"]
GOLD = "-fuse-ld=gold"

# The .nops lengths whose fills must be padding.
NOPS = range(1, 65)

# build -> (sources, extra gcc flags)
BUILDS = {
    "default": (SMOKE, []),
    "dwarf4": (SMOKE, ["-gdwarf-4"]),
    "lto": (SMOKE, ["-flto"]),
    "noreturn": (TWO_FILES, []),
    "noreturn-g0": (TWO_FILES, ["-g0"]),
    "gc-sections": (TWO_FILES, GC),
    "gc-sections-gold": (TWO_FILES, [*GC, GOLD]),
    "cxx": (CXX, []),
    "cxx-dwarf4": (CXX, ["-gdwarf-4"]),
    "clone-cold": (CLONE_COLD, []),
}


def extract(work: Path, build: str) -> tuple[int, dict] | None:
    """Build ``build`` and extract it: the exit code and the document, or
    None when its compiler is not on PATH or gcc cannot link a gold
    build."""
    sources, flags = BUILDS[build]
    compiler = "g++" if sources is CXX else "gcc"
    if shutil.which(compiler) is None:
        print(f"{build}: skipped, no {compiler} on PATH")
        return None
    for name, text in sources.items():
        (work / name).write_text(text)
    binary, truth = work / f"{build}.bin", work / f"{build}.json"
    units = [name for name in sources if not name.endswith(".h")]
    done = subprocess.run(
        [compiler, "-O2", "-g", *flags, "-o", binary.name, *units],
        cwd=work,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0 and GOLD in flags:
        print(f"{build}: skipped, gcc cannot link with gold: {done.stderr.strip()}")
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        done.check_returncode()
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-m", "bintruth.cli", "extract", str(binary), "-o", str(truth)],
        env=env,
        capture_output=True,
        text=True,
    )
    doc = json.loads(truth.read_text()) if truth.exists() else {}
    if not doc:
        print(f"{build}: extract exited {done.returncode}: {done.stderr.strip()}")
    return done.returncode, doc


def check_smoke(build: str, code: int, doc: dict) -> list[str]:
    """The problems of one build of the first program."""
    if code != 0:
        return [f"extract exited {code}"]
    ours = {f["name"]: f for f in doc["functions"] if f["name"].split(".")[0] in DEFINED}
    found = {name.split(".")[0] for name in ours}
    problems = [f"{name}: no function" for name in sorted(NOT_INLINED - found)]
    bases = {name: name.split(".")[0] for name in ours}
    clones = {name: base for name, base in bases.items() if CLONE_SUFFIX.fullmatch(name, len(base))}
    for name, fn in sorted(ours.items()):
        group = clones.get(name, name if name in clones.values() else None)
        if fn.get("group") != group:
            problems.append(f"{name}: group {fn.get('group')!r}, not {group!r}")
        if "dwarf" not in fn["provenance"]:
            problems.append(f"{name}: provenance {fn['provenance']}")
        if name.endswith(".cold") != ("cold_part" in fn["flags"]):
            problems.append(f"{name}: flags {fn['flags']}")
        file = (fn["source"] or {}).get("file")
        if file != "smoke.c":
            problems.append(f"{name}: source.file {file!r}")
    shown = ", ".join(
        f"{name} {'+'.join(fn['provenance'])} {(fn['source'] or {}).get('file')}"
        + "".join(f" {flag}" for flag in fn["flags"] if flag == "cold_part")
        + (f" group {fn['group']}" if fn.get("group") else "")
        for name, fn in sorted(ours.items())
    )
    print(f"{build}: {shown}")
    return problems


def check_two_files(build: str, code: int, doc: dict) -> list[str]:
    """The problems of one build of the two-file program."""
    if not doc:
        return [f"extract exited {code} without a document"]
    gc = build.startswith("gc-sections")
    fns = {f["name"]: f for f in doc["functions"]}
    problems = [f"{name}: no function" for name in ("main", "die") if name not in fns]
    if problems:
        return problems
    # Without DWARF nothing says that die does not return.
    if build != "noreturn-g0" and "noreturn" not in fns["die"]["flags"]:
        problems.append(f"die: flags {fns['die']['flags']}, not noreturn")
    main = fns["main"]
    raw, trimmed = int(main["end_raw"], 16), int(main["end_trimmed"], 16)
    if trimmed != raw:
        problems.append(f"main: the trim cuts its last call at {trimmed:#x}")
    codes = Counter(d["code"] for d in doc["diagnostics"])
    # The count leads the message.
    discarded = [
        int(d["message"].split()[0])
        for d in doc["diagnostics"]
        if d["code"] == "GT_LINKER_DISCARDED"
    ]
    want = [DISCARDED_DIES] if gc else []
    if (code, doc["complete"], discarded) != (0, True, want):
        problems.append(
            f"exit {code}, complete {doc['complete']}, linker-discarded "
            f"counts {discarded} (want {want}), diagnostics {dict(codes)}"
        )
    for kind in ("GT_DEBUG_OUTSIDE_EXEC", "GT_START_MISMATCH"):
        if codes[kind]:
            problems.append(f"{codes[kind]} {kind}")
    print(
        f"{build}: exit {code}, main end_raw {raw:#x} end_trimmed {trimmed:#x}, "
        f"die {'+'.join(fns['die']['flags'])}, linker-discarded {discarded}"
    )
    return problems


def check_cxx(build: str, code: int, doc: dict) -> list[str]:
    """The problems of one build of the C++ program."""
    if not doc:
        return [f"extract exited {code} without a document"]
    problems = []
    if (code, doc["complete"]) != (0, True):
        problems.append(f"exit {code}, complete {doc['complete']}")
    count = Counter(fn["name"] for fn in doc["functions"])
    fns = {fn["name"]: fn for fn in doc["functions"] if fn["name"] in CXX_FILES}
    for name, want in CXX_FILES.items():
        if count[name] != 1:
            problems.append(f"{name}: {count[name]} functions")
            continue
        fn = fns[name]
        if "dwarf" not in fn["provenance"]:
            problems.append(f"{name}: provenance {fn['provenance']}")
        file = (fn["source"] or {}).get("file")
        if file != want:
            problems.append(f"{name}: source.file {file!r}, not {want!r}")
    mismatches = sum(d["code"] == "GT_START_MISMATCH" for d in doc["diagnostics"])
    if mismatches:
        problems.append(f"{mismatches} GT_START_MISMATCH")
    shown = ", ".join(
        f"{name} {'+'.join(fn['provenance'])} {(fn['source'] or {}).get('file')}"
        for name, fn in fns.items()
    )
    print(f"{build}: exit {code}, {shown}")
    return problems


def check_clone_cold(build: str, code: int, doc: dict) -> list[str]:
    """The problems of the clone-cold build."""
    if not doc:
        return [f"extract exited {code} without a document"]
    problems = []
    if (code, doc["complete"]) != (0, True):
        problems.append(f"exit {code}, complete {doc['complete']}")
    fns = {fn["name"]: fn for fn in doc["functions"] if fn["name"] in SCALE_PARTS}
    for name in SCALE_PARTS:
        fn = fns.get(name)
        if fn is None:
            problems.append(f"{name}: no function")
            continue
        if fn.get("group") != "scale":
            problems.append(f"{name}: group {fn.get('group')!r}, not 'scale'")
        if "dwarf" not in fn["provenance"]:
            problems.append(f"{name}: provenance {fn['provenance']}")
        if name.endswith(".cold") != ("cold_part" in fn["flags"]):
            problems.append(f"{name}: flags {fn['flags']}")
    shown = ", ".join(
        f"{name} group {fn.get('group')} {'+'.join(fn['flags'])}" for name, fn in fns.items()
    )
    print(f"{build}: exit {code}, {shown}")
    return problems


def cyclic_garbage(binary: Path) -> Counter:
    """The objects, counted by type name, that extracting ``binary`` as
    ``bintruth extract`` does leaves for the cyclic collector alone."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # the collector keeps what it would free
    try:
        image = elf.parse_image(binary.read_bytes(), str(binary))
        doc = normalize.build_ground_truth(normalize.read_evidence(image))
        interchange.document_to_json(doc)
        del image, doc
        gc.collect()
        return Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def check_garbage(build: str, counts: Counter) -> list[str]:
    """A problem when the extraction left anything in a cycle."""
    shown = ", ".join(f"{n} {name}" for name, n in sorted(counts.items())) or "none"
    print(f"{build}: cyclic garbage after extract: {shown}")
    return [f"cyclic garbage: {shown}"] if counts else []


def assemble_nops(work: Path) -> list[bytes] | None:
    """GNU as's fill for ``.nops N``, N = 1..64, at index ``N - 1``; None
    when ``as`` is not on PATH."""
    if shutil.which("as") is None:
        print("nops: skipped, no as on PATH")
        return None
    (work / "nops.s").write_text("".join(f".nops {n}\n" for n in NOPS))
    subprocess.run(["as", "--64", "-o", "nops.o", "nops.s"], cwd=work, check=True)
    image = elf.parse_image((work / "nops.o").read_bytes())
    text = next(s for s in image.sections if s.name == ".text")
    blob = image.raw[text.file_offset : text.file_offset + text.size]
    starts = [n * (n - 1) // 2 for n in NOPS]  # each .nops N writes N bytes
    return [blob[start : start + n] for start, n in zip(starts, NOPS)]


def check_nops(fills: list[bytes]) -> list[str]:
    """The fills that are not the length asked for or do not parse as padding."""
    find = byteclass.padding_suffix_finder(normalize.padding_alphabet("x86_64"))
    bad = [
        (n, fill) for n, fill in zip(NOPS, fills) if len(fill) != n or find(fill, 0, n)
    ]
    print(f"nops: {len(fills) - len(bad)} of {len(NOPS)} .nops fills parse as padding")
    return [f".nops {n}: {fill.hex()} is not padding" for n, fill in bad]


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for build, (sources, _flags) in BUILDS.items():
            work = Path(tmp) / build
            work.mkdir()
            extracted = extract(work, build)
            if extracted is None:
                continue
            if sources is SMOKE:
                check = check_smoke
            elif sources is CLONE_COLD:
                check = check_clone_cold
            else:
                check = check_cxx if sources is CXX else check_two_files
            problems += [f"{build}: {p}" for p in check(build, *extracted)]
            if build == "lto":
                counts = cyclic_garbage(work / f"{build}.bin")
                problems += [f"{build}: {p}" for p in check_garbage(build, counts)]
        fills = assemble_nops(Path(tmp))
        if fills is not None:
            problems += check_nops(fills)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
