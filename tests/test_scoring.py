import random
from fractions import Fraction

import pytest

import oracles
from bintruth.byteclass import ByteClassMap
from bintruth.model import GT_INCOMPLETE_EXCLUDED, Diagnostic
from bintruth.normalize import BinarySummary, GroundTruthDocument, GroundTruthFunction
from bintruth.scoring import (
    BOUNDARY_RULES,
    POLICY_PRESETS,
    CorpusSummary,
    DigestMismatchError,
    EmptyCorpusError,
    IncompleteTruthRejectedError,
    MatchPolicy,
    MissingSizesError,
    ScoreResult,
    ToolReport,
    _ratio,
    canonical_threshold,
    corpus_aggregate,
    f1_score,
    score_functions,
)

DIGEST = b"\x11" * 32


_INCOMPLETE = Diagnostic("error", GT_INCOMPLETE_EXCLUDED, "some bytes went unread")


def make_truth(functions, complete=True, digest=DIGEST):
    return GroundTruthDocument(
        binary=BinarySummary("mem", digest, 64, 62),
        functions=tuple(functions),
        byte_classes=ByteClassMap(()),
        diagnostics=() if complete else (_INCOMPLETE,),
    )


def make_fn(name, start, trimmed_len, raw_len=None, extra_entries=()):
    raw_len = trimmed_len if raw_len is None else raw_len
    entries = tuple(sorted((start,) + tuple(extra_entries)))
    return GroundTruthFunction(
        canonical_name=name,
        entry_points=entries,
        end_exclusive_raw=start + raw_len,
        end_exclusive_trimmed=start + trimmed_len,
    )


def make_report(predictions, digest=DIGEST):
    return ToolReport(
        tool_name="t",
        tool_version="1",
        binary_digest=digest,
        predicted_functions=tuple(predictions),
    )


def test_policy_validates_rule_names():
    with pytest.raises(ValueError, match="start rule"):
        MatchPolicy(start_rule="sloppy")
    with pytest.raises(ValueError, match="boundary rule"):
        MatchPolicy(boundary_rule="vibes")
    assert set(POLICY_PRESETS) == {"default", "strict", "legacy-lenient"}
    assert "strict_raw" in BOUNDARY_RULES


@pytest.mark.parametrize(
    ("rule", "good_sizes"),
    [
        ("strict_trimmed", {13}),
        ("strict_raw", {16}),
        ("padding_tolerant", {13, 14, 15, 16}),
        ("legacy_lenient", {4, 13, 14, 15, 16}),
        ("ignore", {4, 13, 14, 15, 16, 17}),
    ],
)
def test_boundary_rule_matrix(rule, good_sizes):
    truth = make_truth([make_fn("f", 0x1000, 13, 16)])
    policy = MatchPolicy(boundary_rule=rule)
    for size in (4, 13, 14, 15, 16, 17):
        result = score_functions(truth, make_report([(0x1000, size)]), policy)
        expected_tp = 1 if size in good_sizes else 0
        assert result.true_positives == expected_tp, (rule, size)


def test_wrong_boundary_counts_against_both_sides():
    truth = make_truth([make_fn("f", 0x1000, 13, 16)])
    result = score_functions(truth, make_report([(0x1000, 4)]))
    assert (result.true_positives, result.false_positives, result.false_negatives) == (
        0,
        1,
        1,
    )
    assert result.precision == 0
    assert result.recall == 0
    assert result.f1 == 0
    kinds = [m.kind for m in result.mismatches]
    assert kinds == ["wrong_boundary"]


def test_any_entry_accepts_secondary_entry_points():
    truth = make_truth([make_fn("f", 0x1000, 16, extra_entries=(0x1008,))])
    report = make_report([(0x1008, 16)])
    relaxed = score_functions(truth, report, MatchPolicy(boundary_rule="ignore"))
    assert relaxed.true_positives == 1
    strict = score_functions(
        truth,
        report,
        MatchPolicy(start_rule="primary_entry_only", boundary_rule="ignore"),
    )
    assert strict.true_positives == 0
    assert strict.false_positives == 1
    assert strict.false_negatives == 1
    kinds = {m.kind for m in strict.mismatches}
    assert kinds == {"spurious_start", "missed_start"}


def test_boundary_lengths_measure_from_the_primary_entry():
    truth = make_truth([make_fn("f", 0x1000, 16, extra_entries=(0x1008,))])
    hit = score_functions(truth, make_report([(0x1008, 16)]))
    assert hit.true_positives == 1
    miss = score_functions(truth, make_report([(0x1008, 8)]))
    assert miss.true_positives == 0


def test_each_function_matches_at_most_once():
    truth = make_truth([make_fn("f", 0x1000, 8)])
    result = score_functions(truth, make_report([(0x1000, 8), (0x1000, 8)]))
    assert result.true_positives == 1
    assert result.false_positives == 1
    assert result.mismatches[0].kind == "spurious_start"
    # At one start the smaller size is scored first, whatever the report order.
    result = score_functions(truth, make_report([(0x1000, 9), (0x1000, 8)]))
    assert result.true_positives == 1
    assert [m.kind for m in result.mismatches] == ["spurious_start"]


def test_missed_functions_are_reported():
    truth = make_truth([make_fn("f", 0x1000, 8), make_fn("g", 0x2000, 8)])
    result = score_functions(truth, make_report([(0x1000, 8)]))
    assert result.false_negatives == 1
    missed = [m for m in result.mismatches if m.kind == "missed_start"]
    assert len(missed) == 1
    assert missed[0].address == 0x2000


def test_digest_mismatch_refuses_to_score():
    truth = make_truth([make_fn("f", 0x1000, 8)])
    with pytest.raises(DigestMismatchError):
        score_functions(truth, make_report([(0x1000, 8)], digest=b"\x22" * 32))


def test_incomplete_truth_is_rejected_by_default():
    truth = make_truth([make_fn("f", 0x1000, 8)], complete=False)
    with pytest.raises(IncompleteTruthRejectedError):
        score_functions(truth, make_report([(0x1000, 8)]))
    accepted = score_functions(
        truth,
        make_report([(0x1000, 8)]),
        MatchPolicy(reject_incomplete_truth=False),
    )
    assert "INCOMPLETE_TRUTH_ACCEPTED" in accepted.warnings


def test_legacy_policy_carries_a_warning_banner():
    truth = make_truth([make_fn("f", 0x1000, 8)])
    result = score_functions(
        truth, make_report([(0x1000, 8)]), MatchPolicy(boundary_rule="legacy_lenient")
    )
    assert "LEGACY_LENIENT_POLICY" in result.warnings


def test_boundary_rules_need_sizes_but_ignore_does_not():
    truth = make_truth([make_fn("f", 0x1000, 8)])
    with pytest.raises(MissingSizesError):
        score_functions(truth, make_report([(0x1000, None)]))
    result = score_functions(
        truth, make_report([(0x1000, None)]), MatchPolicy(boundary_rule="ignore")
    )
    assert result.true_positives == 1


def test_empty_against_empty_is_flagged_not_crowned():
    result = score_functions(make_truth([]), make_report([]))
    assert result.precision == result.recall == result.f1 == Fraction(1)
    assert "EMPTY_COMPARISON" in result.warnings


def test_metrics_are_exact_fractions():
    fns = [make_fn(f"f{i}", 0x1000 + 0x100 * i, 8) for i in range(9)]
    truth = make_truth(fns)
    preds = [(f.start, 8) for f in fns[:8]] + [(0x9999, 8)]
    result = score_functions(truth, make_report(preds))
    assert result.precision == Fraction(8, 9)
    assert result.recall == Fraction(8, 9)
    assert result.f1 == Fraction(8, 9)
    assert isinstance(result.f1, Fraction)


def test_f1_is_the_harmonic_mean():
    assert f1_score(Fraction(1), Fraction(1, 2)) == Fraction(2, 3)
    assert f1_score(Fraction(0), Fraction(0)) == Fraction(0)


def test_the_096_threshold_is_decimal_not_binary():
    label, value = canonical_threshold(0.96)
    assert label == "0.96"
    assert value == Fraction(24, 25)
    assert canonical_threshold("0.96")[1] == Fraction(24, 25)
    assert canonical_threshold(Fraction(24, 25))[1] == Fraction(24, 25)


def test_f1_of_twelve_thirteenths_precision_sits_exactly_on_096():
    fns = [make_fn(f"f{i}", 0x1000 + 0x100 * i, 8) for i in range(12)]
    truth = make_truth(fns)
    preds = [(f.start, 8) for f in fns] + [(0x9999, 8)]
    result = score_functions(truth, make_report(preds))
    assert result.f1 == Fraction(24, 25)
    # Exactly at the threshold is not below it.
    assert not result.f1 < canonical_threshold(0.96)[1]
    # The float route lands near 0.96 but not reliably on it.
    _p, _r, f1_float = oracles.float_metrics(12, 1, 0)
    assert abs(f1_float - 0.96) < 1e-12


def test_counts_agree_with_the_brute_force_matcher():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(0, 6)
        fns = []
        cursor = 0x1000
        for i in range(n):
            trimmed = rng.randint(4, 24)
            raw = trimmed + rng.choice((0, 0, rng.randint(1, 8)))
            extra = (
                (cursor + rng.randint(1, trimmed - 1),)
                if trimmed > 2 and rng.random() < 0.3
                else ()
            )
            fns.append(make_fn(f"f{i}", cursor, trimmed, raw, extra))
            cursor += raw + rng.randint(0, 16)
        truth = make_truth(fns)
        preds = []
        for fn in fns:
            if rng.random() < 0.8:
                entry = rng.choice(fn.entry_points)
                size = rng.choice(
                    [
                        fn.end_exclusive_trimmed - fn.start,
                        fn.end_exclusive_raw - fn.start,
                        rng.randint(1, 40),
                    ]
                )
                preds.append((entry, size))
        for _ in range(rng.randint(0, 2)):
            preds.append((rng.randint(0x8000, 0x9000), rng.randint(1, 40)))
        start_rule = rng.choice(("any_entry", "primary_entry_only"))
        boundary_rule = rng.choice(BOUNDARY_RULES)
        if boundary_rule == "ignore" and preds and rng.random() < 0.5:
            # One start named twice, once without a size and once with one.
            preds.append((rng.choice(preds)[0], None))
        policy = MatchPolicy(start_rule=start_rule, boundary_rule=boundary_rule)
        result = score_functions(truth, make_report(preds), policy)
        want = oracles.match_counts(fns, preds, start_rule, boundary_rule)
        got = (
            result.true_positives,
            result.false_positives,
            result.false_negatives,
        )
        assert got == want, (start_rule, boundary_rule, preds)


@pytest.mark.parametrize(
    ("tp", "fp", "fn"), [(0, 0, 0), (3, 0, 0), (0, 2, 0), (0, 0, 2), (3, 1, 2)]
)
def test_score_metrics_derive_from_the_counts(tp, fp, fn):
    result = ScoreResult(tp, fp, fn)
    assert result.precision == _ratio(tp, tp + fp)
    assert result.recall == _ratio(tp, tp + fn)
    assert result.f1 == f1_score(result.precision, result.recall)
    with pytest.raises(TypeError):
        ScoreResult(tp, fp, fn, precision=Fraction(0))


# --- corpus aggregation -------------------------------------------------------


def test_micro_pools_counts_and_macro_averages_ratios():
    results = [ScoreResult(1, 0, 0), ScoreResult(1, 1, 1)]
    summary = corpus_aggregate(results)
    assert summary.n == 2
    assert summary.micro_precision == Fraction(2, 3)
    assert summary.micro_recall == Fraction(2, 3)
    assert summary.macro_precision == Fraction(3, 4)
    assert summary.fraction_perfect == Fraction(1, 2)


def test_thresholds_use_exact_comparison():
    results = [ScoreResult(12, 1, 0), ScoreResult(9, 0, 1), ScoreResult(1, 0, 0)]
    assert results[0].f1 == Fraction(24, 25)
    assert results[1].f1 == Fraction(18, 19)
    summary = corpus_aggregate(results, thresholds=(0.96,))
    ((label, share),) = summary.below
    assert label == "0.96"
    # Only 18/19 is strictly below; 24/25 equals the threshold.
    assert share == Fraction(1, 3)


def test_aggregating_nothing_is_an_error():
    with pytest.raises(EmptyCorpusError):
        corpus_aggregate([])
    assert isinstance(
        corpus_aggregate([ScoreResult(1, 0, 0)]), CorpusSummary
    )
