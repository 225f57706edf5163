"""Checks of ``bintruth`` outputs against the truth the generators built.

Each check parses the output with :mod:`json` alone and compares it with
the by-construction expectation; it returns a list of problems, empty
when the output is right. ``bintruth``'s own loaders and scorer are not
used, so a bug there cannot hide a bug in what they produced.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction

from workloads import ExpectedCorpus, ExpectedScore, ForgedBinary

MAX_PROBLEMS = 5


def _hex(value: int) -> str:
    return f"0x{value:x}"


def check_document(text: str, binary: ForgedBinary) -> list[str]:
    """Problems with one ``extract`` output for ``binary``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"{binary.stem}: document is not JSON: {exc}"]
    problems = []
    if doc.get("complete") is not True:
        problems.append("document is not complete")
    if doc.get("binary", {}).get("digest_hex") != hashlib.sha256(binary.data).hexdigest():
        problems.append("binary digest differs")
    got = doc.get("functions", [])
    if len(got) != len(binary.functions):
        problems.append(f"{len(got)} functions, expected {len(binary.functions)}")
    for fn, want in zip(got, binary.functions):
        expected = {
            "name": want.name,
            "start": _hex(want.start),
            "entries": [_hex(e) for e in want.entries],
            "end_raw": _hex(want.end_raw),
            "end_trimmed": _hex(want.end_trimmed),
            "aliases": list(want.aliases),
            "flags": sorted(want.flags),
            "group": want.group,
            "provenance": sorted(want.provenance),
            "source": None if want.source is None
            else {"file": want.source[0], "line": want.source[1]},
        }
        for key, value in expected.items():
            if fn.get(key) != value:
                problems.append(f"{want.name}: {key} is {fn.get(key)!r}, expected {value!r}")
        if len(problems) >= MAX_PROBLEMS:
            break
    codes = Counter(d["code"] for d in doc.get("diagnostics", []))
    if codes != binary.diagnostics:
        problems.append(f"diagnostic codes {dict(codes)}, expected {dict(binary.diagnostics)}")
    classes: Counter = Counter()
    for run in doc.get("byte_classes", []):
        classes[run["class"], run["confidence"]] += run["length"]
    if classes["code", "certain"] != binary.code_bytes:
        problems.append(f"{classes['code', 'certain']} code bytes, expected {binary.code_bytes}")
    if classes["padding", "certain"] != binary.padding_bytes:
        problems.append(
            f"{classes['padding', 'certain']} trimmed padding bytes, expected {binary.padding_bytes}"
        )
    if sum(classes.values()) != binary.mapped_bytes:
        problems.append(f"{sum(classes.values())} classified bytes, expected {binary.mapped_bytes}")
    return [f"{binary.stem}: {p}" for p in problems[:MAX_PROBLEMS]]


def _exact(node: dict) -> Fraction:
    return Fraction(node["exact"])


def check_score(text: str, stem: str, want: ExpectedScore) -> list[str]:
    """Problems with one ``score --format json`` output."""
    try:
        out = json.loads(text)
        counts = out["counts"]
        metrics = {k: _exact(v) for k, v in out["metrics"].items()}
        kinds = Counter(m["kind"] for m in out["mismatches"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return [f"{stem}: score output unreadable: {exc!r}"]
    got = (
        counts["true_positives"], counts["false_positives"], counts["false_negatives"],
        metrics["precision"], metrics["recall"], metrics["f1"],
        kinds["spurious_start"], kinds["missed_start"], kinds["wrong_boundary"],
    )
    expected = (
        want.true_positives, want.false_positives, want.false_negatives,
        want.precision, want.recall, want.f1,
        want.spurious, want.missed, want.wrong_boundary,
    )
    if got != expected:
        return [f"{stem}: score (tp, fp, fn, p, r, f1, spurious, missed, wrong) = {got}, expected {expected}"]
    return []


def check_corpus(text: str, want: ExpectedCorpus, threshold: str) -> list[str]:
    """Problems with one ``corpus --threshold T`` JSON output."""
    expected = want.summary(Fraction(threshold))
    try:
        out = json.loads(text)
        below = out["below"]
        got = {
            "n": out["n"],
            **{f"{view}.{m}": _exact(out[view][m]) for view in ("micro", "macro")
               for m in ("precision", "recall", "f1")},
            "fraction_perfect": _exact(out["fraction_perfect"]),
            "below": _exact(below[0]["fraction"]) if len(below) == 1
            and below[0]["threshold"] == threshold else None,
        }
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"corpus output unreadable: {exc!r}"]
    return [
        f"corpus {key} is {got[key]}, expected {value}"
        for key, value in expected.items()
        if got[key] != value
    ]
