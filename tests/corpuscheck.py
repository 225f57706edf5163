"""Document-level invariant and expectation checks shared across tests.

Each checker returns a list of human-readable failure strings so callers
can aggregate across a whole corpus before failing.
"""
from __future__ import annotations

import dataclasses
import random
from collections import Counter

from bintruth import elf, normalize
from oracles import NoBytesError, bytes_at, tiles_as_padding


def build_document(data: bytes, config=None):
    image = elf.parse_image(data)
    doc = normalize.build_ground_truth(image, config)
    return image, doc


def invariant_failures(image, doc) -> list[str]:
    """Structural properties every normalized document must satisfy."""
    out = []
    funcs = doc.functions
    if list(funcs) != sorted(funcs, key=lambda f: f.start):
        out.append("functions not sorted by start")
    for fn in funcs:
        if not fn.start < fn.end_exclusive_trimmed <= fn.end_exclusive_raw:
            out.append(f"{fn.canonical_name}: bad boundary ordering")
        if max(fn.entry_points) >= fn.end_exclusive_trimmed:
            out.append(f"{fn.canonical_name}: entry point trimmed away")
    for a, b in zip(funcs, funcs[1:]):
        sec_a = elf.section_of(image, a.start)
        sec_b = elf.section_of(image, b.start)
        if sec_a is sec_b and a.end_exclusive_raw > b.start:
            out.append(f"{a.canonical_name} overlaps {b.canonical_name}")

    runs = doc.byte_classes.runs
    for r_a, r_b in zip(runs, runs[1:]):
        if r_a.end > r_b.start:
            out.append(f"byte runs at {r_a.start:#x} and {r_b.start:#x} overlap")
    allocated = sum(s.size for s in image.sections if s.allocated and s.size > 0)
    covered = sum(r.length for r in runs)
    if covered != allocated:
        out.append(f"byte map covers {covered} of {allocated} allocated bytes")

    alphabet = normalize.padding_alphabet(image.machine)
    for fn in funcs:
        if fn.end_exclusive_trimmed == fn.end_exclusive_raw:
            continue
        try:
            tail = bytes_at(
                image,
                fn.end_exclusive_trimmed,
                fn.end_exclusive_raw - fn.end_exclusive_trimmed,
            )
        except NoBytesError:  # nobits tails already carry a diagnostic
            continue
        if not tiles_as_padding(tail, alphabet):
            out.append(f"{fn.canonical_name}: trimmed tail is not padding")
    return out


def expectation_mismatches(fixture, doc) -> list[str]:
    """Compare a document against the fixture's by-construction truth."""
    out = []
    if doc.complete != fixture.complete:
        out.append(f"complete={doc.complete}, expected {fixture.complete}")
    if len(doc.functions) != len(fixture.functions):
        out.append(
            f"{len(doc.functions)} functions, expected {len(fixture.functions)}"
        )
        return out
    for got, want in zip(doc.functions, fixture.functions):
        where = want.canonical
        if got.canonical_name != want.canonical:
            out.append(f"{where}: canonical {got.canonical_name!r}")
        if got.entry_points != want.entries:
            out.append(f"{where}: entries {got.entry_points}")
        if got.end_exclusive_raw != want.end_raw:
            out.append(f"{where}: raw end {got.end_exclusive_raw:#x}")
        if got.end_exclusive_trimmed != want.end_trimmed:
            out.append(f"{where}: trimmed end {got.end_exclusive_trimmed:#x}")
        if got.flags != want.flags:
            out.append(f"{where}: flags {sorted(got.flags)}")
        if got.aliases != want.aliases:
            out.append(f"{where}: aliases {got.aliases}")
        if got.specialization_group != want.group:
            out.append(f"{where}: group {got.specialization_group}")
        if got.provenance != want.provenance:
            out.append(f"{where}: provenance {sorted(got.provenance)}")
        if got.source != want.source:
            out.append(f"{where}: source {got.source}")
    got_codes = Counter(d.code for d in doc.diagnostics)
    want_codes = dict(fixture.diagnostic_codes)
    if got_codes != want_codes:
        out.append(f"diagnostics {dict(got_codes)}, expected {want_codes}")
    return out


def order_independence_failures(data: bytes, shuffle_seed: int) -> list[str]:
    """Normalizing with shuffled symbol order must not change the result."""
    image, doc = build_document(data)
    shuffled = list(image.symbols)
    random.Random(shuffle_seed).shuffle(shuffled)
    reordered = dataclasses.replace(image, symbols=tuple(shuffled))
    redone = normalize.build_ground_truth(reordered)
    if redone != doc:
        return ["document changed under symbol reordering"]
    return []
