#!/usr/bin/env python3
"""Extract ground truth from binaries that gcc builds from small C programs.

The first program has a ``static inline`` helper, which gcc inlines at
-O2, and a ``__attribute__((cold))`` function. It is compiled at
``-O2 -g`` three times: with the compiler's default DWARF version, with
``-gdwarf-4`` and with ``-flto``. ``bintruth extract`` must exit 0 on
each binary, and every function of the program that the document holds
(a ``.cold`` part or a ``.constprop.0`` clone included, matched by its
name before the first ``.``) must have ``dwarf`` provenance, but one: gcc
moves the cold call out of ``main`` into ``main.cold``, which lies below
``main``, and the reader takes the lowest address of a subprogram's
ranges as its start. So the record goes to ``main.cold`` and ``main`` has
only ``symtab`` provenance. Each function with ``dwarf`` provenance must
give ``smoke.c`` as its ``source.file``, but in the ``-flto`` build: its
LTO unit names some other file, and the reader writes a ``decl_file``
index other than 0 or 1 as ``file#N``, which such a build reads in every
function.

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
``end_trimmed`` must equal ``end_raw``.

Each known defect is pinned: the script fails when it is fixed, so that
the fix removes the pin. Every program is compiled in its own directory
from relative file names, so a unit's name is its file's. Needs ``gcc``
on PATH and nothing else.

Usage:
    python3 scripts/gcc_smoke.py
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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
# dead_b, unused_fn, and the copy of unused_fn inlined into dead_b.
DISCARDED_DIES = 3
GC = ["-ffunction-sections", "-Wl,--gc-sections"]
GOLD = "-fuse-ld=gold"

# build -> (sources, extra gcc flags)
BUILDS = {
    "default": (SMOKE, []),
    "dwarf4": (SMOKE, ["-gdwarf-4"]),
    "lto": (SMOKE, ["-flto"]),
    "noreturn": (TWO_FILES, []),
    "gc-sections": (TWO_FILES, GC),
    "gc-sections-gold": (TWO_FILES, [*GC, GOLD]),
}


def extract(work: Path, build: str) -> tuple[int, dict] | None:
    """Build ``build`` and extract it: the exit code and the document, or
    None when gcc cannot link a gold build."""
    sources, flags = BUILDS[build]
    for name, text in sources.items():
        (work / name).write_text(text)
    binary, truth = work / f"{build}.bin", work / f"{build}.json"
    done = subprocess.run(
        ["gcc", "-O2", "-g", *flags, "-o", binary.name, *sources],
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
    for name, fn in sorted(ours.items()):
        split = f"{name}.cold" in ours  # the hot part of a split function
        if split == ("dwarf" in fn["provenance"]):
            problems.append(
                f"{name}: the hot part of a split function has dwarf provenance; drop its pin"
                if split
                else f"{name}: provenance {fn['provenance']}"
            )
        if split:
            continue  # the pinned hot part has no record, so no source
        file = (fn["source"] or {}).get("file")
        if build != "lto" and file != "smoke.c":
            problems.append(f"{name}: source.file {file!r}")
        elif build == "lto" and file == "smoke.c":
            problems.append(f"{name}: the lto build reads smoke.c; drop its pin")
        elif build == "lto" and not re.fullmatch(r"file#\d+", file or ""):
            problems.append(f"{name}: source.file {file!r}, not file#N")
    shown = ", ".join(
        f"{name} {'+'.join(fn['provenance'])} {(fn['source'] or {}).get('file')}"
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
    if "noreturn" not in fns["die"]["flags"]:
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


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for build, (sources, _flags) in BUILDS.items():
            work = Path(tmp) / build
            work.mkdir()
            extracted = extract(work, build)
            if extracted is None:
                continue
            check = check_smoke if sources is SMOKE else check_two_files
            problems += [f"{build}: {p}" for p in check(build, *extracted)]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
