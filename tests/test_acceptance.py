"""Acceptance gate: the eleven checks the package must pass end to end.

Each test carries a ``criterion`` marker; the terminal summary prints one
pass/fail line per criterion. Timed criteria measure only their core work
with ``time.perf_counter`` and assert the agreed budget.
"""
import random
import time
from fractions import Fraction

import pytest

import corpuscheck
import oracles
from bintruth import dwarf, elf, forge, interchange, normalize, scoring
from bintruth.byteclass import ByteClassMap
from bintruth.cli import main
from bintruth.normalize import (
    BinarySummary,
    GroundTruthDocument,
    GroundTruthFunction,
    RunConfig,
)
from bintruth.scoring import MatchPolicy, ToolReport, score_functions

DIGEST = b"\x11" * 32


def _truth(functions):
    return GroundTruthDocument(
        binary=BinarySummary("mem", DIGEST, 64, 62),
        functions=tuple(functions),
        byte_classes=ByteClassMap(()),
        diagnostics=(),
    )


def _fn(name, start, trimmed_len, raw_len=None):
    raw_len = trimmed_len if raw_len is None else raw_len
    return GroundTruthFunction(
        canonical_name=name,
        entry_points=(start,),
        end_exclusive_raw=start + raw_len,
        end_exclusive_trimmed=start + trimmed_len,
    )


def _report(predictions, digest=DIGEST):
    return ToolReport("tool", "1", digest, tuple(predictions))


@pytest.mark.criterion(1, "multi-entry merge on the two-entry fixture")
def test_multi_entry_symbols_merge_into_one_function():
    started = time.perf_counter()
    data = forge.emit(forge.preset("listing1"))
    _image, merged = corpuscheck.build_document(data, source_path="mem")
    _image, split = corpuscheck.build_document(
        data, RunConfig(merge_multi_entry=False), "mem"
    )
    elapsed = time.perf_counter() - started

    base = 0x080B41C0
    assert len(merged.functions) == 1
    fn = merged.functions[0]
    assert fn.canonical_name == "fix_syms"
    assert set(fn.entry_points) == {base, base + 8}
    assert "multi_entry" in fn.flags
    assert any(d.code == "GT_MULTI_ENTRY_MERGED" for d in merged.diagnostics)

    assert [f.canonical_name for f in split.functions] == ["fix_syms", "fix_syms."]
    assert elapsed < 1.0


@pytest.mark.criterion(2, "specialization grouping on the clone fixture")
def test_specialization_clones_group_by_base_name():
    _image, doc = corpuscheck.build_document(
        forge.emit(forge.preset("listing2")), source_path="mem"
    )
    rows = {
        "operand..0": (0x08055750, 0xC30),
        "integer_constant..1": (0x08056380, 0x1A0),
        "integer_constant..4": (0x08056520, 0x320),
        "integer_constant..3": (0x08056840, 0x320),
        "integer_constant..2": (0x08056B60, 0x540),
        "integer_constant..0": (0x080570A0, 0x330),
        "expr..1": (0x080573D0, 0xC80),
        "operand": (0x08058FA0, 0xCD0),
        "expr..0": (0x0805A7D0, 0xCB0),
    }
    found = {
        fn.canonical_name: (fn.start, fn.end_exclusive_raw - fn.start)
        for fn in doc.functions
    }
    assert found == rows

    groups = {}
    for fn in doc.functions:
        groups.setdefault(fn.specialization_group, []).append(fn.start)
    sizes = {name: len(members) for name, members in groups.items()}
    assert sizes == {"integer_constant": 5, "operand": 2, "expr": 2}
    for members in groups.values():
        assert members == sorted(members)
    starts = [fn.start for fn in doc.functions]
    assert starts == sorted(starts)


@pytest.mark.criterion(3, "padding reconciliation across compiler styles")
def test_padding_styles_trim_to_the_same_end():
    _image, doc = corpuscheck.build_document(
        forge.emit(forge.preset("padding-icc-vs-gcc")), source_path="mem"
    )
    by_name = {fn.canonical_name: fn for fn in doc.functions}
    icc = by_name["icc_style"]
    gcc = by_name["gcc_style"]
    assert icc.end_exclusive_trimmed - icc.start == 13
    assert gcc.end_exclusive_trimmed - gcc.start == 13
    assert icc.end_exclusive_raw - icc.start == 16
    assert gcc.end_exclusive_raw - gcc.start == 13

    trims = [d for d in doc.diagnostics if d.code == "GT_PADDING_TRIMMED"]
    assert len(trims) == 1
    assert trims[0].span == (icc.end_exclusive_trimmed, 3)


@pytest.mark.criterion(4, "high-pc encoding twins normalize identically")
def test_highpc_encodings_produce_identical_records():
    image = elf.parse_image(
        forge.emit(forge.preset("highpc-twins")), source_path="mem"
    )
    records, _diags = dwarf.extract_debug_functions(image)
    assert len(records) == 2
    assert records[0] == records[1]


@pytest.mark.criterion(5, "undersized predictions score by policy")
def test_undersized_prediction_passes_only_the_legacy_rule():
    truth = _truth([_fn("f", 0x1000, 13, 16)])
    report = _report([(0x1000, 4)])

    lenient = score_functions(
        truth, report, MatchPolicy(boundary_rule="legacy_lenient")
    )
    assert lenient.true_positives == 1
    assert lenient.false_positives == 0
    assert lenient.false_negatives == 0
    assert "LEGACY_LENIENT_POLICY" in lenient.warnings

    for rule in ("strict_trimmed", "padding_tolerant", "strict_raw"):
        result = score_functions(truth, report, MatchPolicy(boundary_rule=rule))
        assert result.true_positives == 0, rule
        assert result.false_positives == 1, rule
        assert result.false_negatives == 1, rule


@pytest.mark.criterion(6, "scorer agrees with a brute-force matcher")
def test_scorer_matches_the_oracle_on_random_pairs():
    rng = random.Random(20260822)
    started = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(0, 10)
        fns = []
        cursor = 0x1000
        for i in range(n):
            trimmed = rng.randint(4, 24)
            raw = trimmed + rng.choice((0, 0, rng.randint(1, 8)))
            fns.append(_fn(f"f{i}", cursor, trimmed, raw))
            cursor += raw + rng.randint(0, 16)
        preds = []
        for fn in fns:
            if rng.random() < 0.8:
                preds.append(
                    (
                        fn.start,
                        rng.choice(
                            [
                                fn.end_exclusive_trimmed - fn.start,
                                fn.end_exclusive_raw - fn.start,
                                rng.randint(1, 40),
                            ]
                        ),
                    )
                )
        for _ in range(rng.randint(0, 2)):
            preds.append((rng.randint(0x8000, 0x9000), rng.randint(1, 40)))
        boundary_rule = rng.choice(scoring.BOUNDARY_RULES)
        result = score_functions(
            _truth(fns), _report(preds), MatchPolicy(boundary_rule=boundary_rule)
        )
        got = (
            result.true_positives,
            result.false_positives,
            result.false_negatives,
        )
        assert got == oracles.match_counts(fns, preds, "any_entry", boundary_rule)
        tp, fp, fn_count = got
        p_float, r_float, f1_float = oracles.float_metrics(tp, fp, fn_count)
        assert abs(float(result.precision) - p_float) < 1e-12
        assert abs(float(result.recall) - r_float) < 1e-12
        assert abs(float(result.f1) - f1_float) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0


@pytest.mark.criterion(7, "boundary policies form a lattice")
def test_boundary_rules_order_by_leniency():
    rng = random.Random(7)
    policies = {
        rule: MatchPolicy(boundary_rule=rule)
        for rule in ("legacy_lenient", "padding_tolerant", "strict_trimmed")
    }
    started = time.perf_counter()
    for _ in range(10_000):
        trimmed = rng.randint(1, 32)
        raw = trimmed + rng.randint(0, 16)
        size = rng.randint(0, raw + 8)
        truth = _truth([_fn("f", 0x1000, trimmed, raw)])
        report = _report([(0x1000, size)])
        tp = {
            rule: score_functions(truth, report, policy).true_positives
            for rule, policy in policies.items()
        }
        assert tp["legacy_lenient"] >= tp["padding_tolerant"] >= tp["strict_trimmed"]
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0


@pytest.mark.criterion(8, "normalizer invariants over a 100-binary corpus")
def test_generated_corpus_satisfies_every_invariant():
    started = time.perf_counter()
    fixtures = forge.generate_corpus(seed=42, count=100)
    assert len(fixtures) == 100
    for index, fixture in enumerate(fixtures):
        image, doc = corpuscheck.build_document(fixture.data)
        assert corpuscheck.invariant_failures(image, doc) == [], fixture.name
        assert corpuscheck.expectation_mismatches(fixture, doc) == [], fixture.name
        assert (
            corpuscheck.order_independence_failures(fixture.data, shuffle_seed=index)
            == []
        ), fixture.name
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0


@pytest.mark.criterion(9, "byte classification tiles and matches per-byte")
def test_byte_classes_tile_and_match_the_per_byte_oracle():
    started = time.perf_counter()
    fixtures = forge.generate_corpus(seed=42, count=100)
    for fixture in fixtures:
        image, doc = corpuscheck.build_document(fixture.data)
        allocated = sum(
            s.size for s in image.sections if s.allocated and s.size > 0
        )
        assert sum(r.length for r in doc.byte_classes.runs) == allocated
        spans = [
            (f.start, f.end_exclusive_trimmed, f.end_exclusive_raw)
            for f in doc.functions
        ]
        alphabet = normalize.padding_alphabet(image.machine)
        want = oracles.classify_per_byte(image, spans, alphabet)
        got = {}
        for run in doc.byte_classes.runs:
            for addr in range(run.start, run.end):
                got[addr] = (run.klass, run.confidence)
        assert got == want, fixture.name
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0


@pytest.mark.criterion(10, "incomplete binaries are excluded and refused")
def test_stripped_binaries_are_refused_end_to_end(tmp_path, capsys):
    binary = tmp_path / "stripped.bin"
    binary.write_bytes(forge.emit(forge.preset("stripped")))
    truth_path = tmp_path / "stripped.truth.json"
    assert main(["extract", str(binary), "-o", str(truth_path)]) == 3
    doc = interchange.document_from_json(truth_path.read_text())
    assert doc.complete is False

    report = ToolReport("tool", "1", doc.binary.content_digest, ())
    report_path = tmp_path / "stripped.report.json"
    report_path.write_text(interchange.report_to_json(report))
    assert main(["score", str(truth_path), str(report_path)]) == 3
    capsys.readouterr()


@pytest.mark.criterion(11, "corpus statistics use exact arithmetic")
def test_fifty_fixture_corpus_statistics_are_exact():
    started = time.perf_counter()
    results = []
    for i in range(40):
        truth = _truth([_fn("f", 0x1000, 8)])
        results.append(score_functions(truth, _report([(0x1000, 8)])))
    for i in range(5):
        fns = [_fn(f"f{k}", 0x1000 + 0x100 * k, 8) for k in range(12)]
        preds = [(fn.start, 8) for fn in fns] + [(0x9999, 8)]
        results.append(score_functions(_truth(fns), _report(preds)))
    for i in range(5):
        fns = [_fn(f"f{k}", 0x1000 + 0x100 * k, 8) for k in range(10)]
        preds = [(fn.start, 8) for fn in fns[:9]]
        results.append(score_functions(_truth(fns), _report(preds)))

    borderline = results[40:45]
    assert all(r.f1 == Fraction(24, 25) for r in borderline)
    assert all(r.f1 == Fraction("0.96") for r in borderline)
    assert results[45].f1 == Fraction(18, 19)

    summary = scoring.corpus_aggregate(results, thresholds=(0.96,))
    elapsed = time.perf_counter() - started

    assert summary.n == 50
    assert summary.fraction_perfect == Fraction(4, 5)
    assert float(summary.fraction_perfect) == 0.80
    ((label, share),) = summary.below
    assert label == "0.96"
    # The five 24/25 results sit exactly on the threshold, not below it.
    assert share == Fraction(1, 10)
    assert elapsed < 10.0
