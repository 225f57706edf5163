#!/usr/bin/env python3
"""Compare match policies across simulated function-recovery tools.

Generates a randomized fixture corpus, derives ground truth through the
full pipeline, then scores five synthetic tools whose error modes are
known by construction. The interesting column is ``legacy_lenient``: a
tool that claims size 4 for everything ties the oracle there, which is
the whole argument for scoring boundaries exactly.

Usage:
    python3 scripts/policy_study.py --seed 7 --count 40
"""
from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bintruth import elf, forge, normalize, scoring  # noqa: E402

POLICIES = {
    "strict_trimmed": scoring.MatchPolicy(
        start_rule="primary_entry_only", boundary_rule="strict_trimmed"
    ),
    "strict_raw": scoring.MatchPolicy(boundary_rule="strict_raw"),
    "padding_tolerant": scoring.MatchPolicy(),
    "legacy_lenient": scoring.MatchPolicy(boundary_rule="legacy_lenient"),
}


def oracle(doc, rng):
    return [(f.start, f.end_exclusive_trimmed - f.start) for f in doc.functions]


def pad_keeper(doc, rng):
    """Reports symbol-table sizes verbatim, trailing padding included."""
    return [(f.start, f.end_exclusive_raw - f.start) for f in doc.functions]


def stub_claimer(doc, rng):
    """Finds every start but claims a fixed tiny size for all of them."""
    return [(f.start, 4) for f in doc.functions]


def skipper(doc, rng):
    """Drops every fourth function, exact sizes otherwise."""
    return [
        (f.start, f.end_exclusive_trimmed - f.start)
        for i, f in enumerate(doc.functions)
        if i % 4 != 3
    ]


def inventor(doc, rng):
    """Exact on real functions plus one spurious start per binary."""
    preds = oracle(doc, rng)
    taken = {e for f in doc.functions for e in f.entry_points}
    fake = max(taken) + rng.randint(64, 256)
    return preds + [(fake, 16)]


TOOLS = {
    "oracle": oracle,
    "pad_keeper": pad_keeper,
    "stub_claimer": stub_claimer,
    "skipper": skipper,
    "inventor": inventor,
}


def build_truths(seed: int, count: int):
    docs = []
    for fixture in forge.generate_corpus(seed, count):
        image = elf.parse_image(fixture.data, source_path=fixture.name)
        doc = normalize.build_ground_truth(image)
        assert doc.complete, fixture.name
        docs.append(doc)
    return docs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=40)
    args = parser.parse_args(argv)

    docs = build_truths(args.seed, args.count)
    rng = random.Random(args.seed ^ 0xBEEF)

    cell = "{:>18}"
    print(f"corpus: {len(docs)} binaries, seed {args.seed}")
    print()
    header = "{:<14}".format("tool") + "".join(cell.format(p) for p in POLICIES)
    print(header)
    print("-" * len(header))
    for tool_name, predict in TOOLS.items():
        row = "{:<14}".format(tool_name)
        for policy in POLICIES.values():
            results = []
            for doc in docs:
                report = scoring.ToolReport(
                    tool_name=tool_name,
                    tool_version="sim",
                    binary_digest=doc.binary.content_digest,
                    predicted_functions=tuple(predict(doc, rng)),
                )
                results.append(scoring.score_functions(doc, report, policy))
            summary = scoring.corpus_aggregate(results)
            row += cell.format(
                f"{float(summary.micro_f1):.4f} ({float(summary.fraction_perfect):.0%})"
            )
        print(row)
    print()
    print("cells: micro F1 (share of binaries scored perfectly)")
    print(
        "note how stub_claimer ties the oracle under legacy_lenient while\n"
        "every boundary-checking policy separates them"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
