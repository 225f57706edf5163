#!/usr/bin/env python3
"""Extract ground truth from binaries that gcc builds from a small C program.

The program has a ``static inline`` helper, which gcc inlines at -O2, and
a ``__attribute__((cold))`` function. It is compiled at ``-O2 -g`` twice,
once with the compiler's default DWARF version and once with
``-gdwarf-4``. ``bintruth extract`` must exit 0 on each binary, and every
function of the program that the document holds (a ``.cold`` part
included) must have ``dwarf`` provenance, but one: gcc moves the cold
call out of ``main`` into ``main.cold``, which lies below ``main``, and
the reader takes the lowest address of a subprogram's ranges as its
start. So the record goes to ``main.cold`` and ``main`` has only
``symtab`` provenance. That known defect is pinned: the script fails
when the hot part of a split function gains ``dwarf`` provenance, so that
the fix removes the pin. Needs ``gcc`` on PATH and nothing else.

Usage:
    python3 scripts/gcc_smoke.py
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = r"""
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
# The functions that keep code of their own; square is inlined into sum_squares.
NOT_INLINED = {"fail", "sum_squares", "main"}
DEFINED = NOT_INLINED | {"square"}
BUILDS = {"default": [], "dwarf4": ["-gdwarf-4"]}


def check(work: Path, build: str) -> list[str]:
    """The problems of one build's extracted document."""
    source, binary, truth = work / "smoke.c", work / f"{build}.bin", work / f"{build}.json"
    source.write_text(PROGRAM)
    subprocess.run(
        ["gcc", "-O2", "-g", *BUILDS[build], "-o", str(binary), str(source)], check=True
    )
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-m", "bintruth.cli", "extract", str(binary), "-o", str(truth)],
        env=env,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        return [f"extract exited {done.returncode}: {done.stderr.strip()}"]
    functions = json.loads(truth.read_text())["functions"]
    ours = {f["name"]: f for f in functions if f["name"].split(".")[0] in DEFINED}
    problems = [f"{name}: no function" for name in sorted(NOT_INLINED - set(ours))]
    for name, fn in sorted(ours.items()):
        split = f"{name}.cold" in ours  # the hot part of a split function
        if split == ("dwarf" in fn["provenance"]):
            problems.append(
                f"{name}: the hot part of a split function has dwarf provenance; drop its pin"
                if split
                else f"{name}: provenance {fn['provenance']}"
            )
    shown = ", ".join(f"{name} {'+'.join(fn['provenance'])}" for name, fn in sorted(ours.items()))
    print(f"{build}: {shown}")
    return problems


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for build in BUILDS:
            problems += [f"{build}: {p}" for p in check(Path(tmp), build)]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
