"""Exact comparison of tool output against normalized ground truth.

All metrics are :class:`fractions.Fraction`, never floats, so equality
against thresholds like 0.96 means what it says. Matching is by exact
address; there is no fuzzy credit. Policies only widen or narrow what
counts as a correct boundary.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .byteclass import ByteClassMap
from .normalize import GroundTruthDocument

START_RULES = ("any_entry", "primary_entry_only")
BOUNDARY_RULES = (
    "strict_trimmed",
    "strict_raw",
    "padding_tolerant",
    "legacy_lenient",
    "ignore",
)
MISMATCH_KINDS = ("spurious_start", "missed_start", "wrong_boundary")


class DigestMismatchError(ValueError):
    """The report was produced from different bytes than the truth."""


class IncompleteTruthRejectedError(ValueError):
    """Scoring against incomplete truth is refused by the active policy."""


class MissingSizesError(ValueError):
    """Boundary checking needs sizes the report does not carry."""


class DomainMismatchError(ValueError):
    """Byte-class maps cover different address sets."""


class EmptyCorpusError(ValueError):
    """Nothing to aggregate."""


@dataclass(frozen=True, slots=True)
class MatchPolicy:
    start_rule: str = "any_entry"
    boundary_rule: str = "padding_tolerant"
    reject_incomplete_truth: bool = True

    def __post_init__(self) -> None:
        if self.start_rule not in START_RULES:
            raise ValueError(f"unknown start rule {self.start_rule!r}")
        if self.boundary_rule not in BOUNDARY_RULES:
            raise ValueError(f"unknown boundary rule {self.boundary_rule!r}")


POLICY_PRESETS = {
    "default": MatchPolicy(),
    "strict": MatchPolicy(
        start_rule="primary_entry_only", boundary_rule="strict_trimmed"
    ),
    "legacy-lenient": MatchPolicy(
        start_rule="any_entry", boundary_rule="legacy_lenient"
    ),
}


@dataclass(frozen=True, slots=True)
class ToolReport:
    """What a function-recovery tool claims about one binary."""

    tool_name: str
    tool_version: str
    binary_digest: bytes
    predicted_functions: tuple[tuple[int, int | None], ...]


@dataclass(frozen=True, slots=True)
class Mismatch:
    kind: str
    address: int
    detail: str

    def __post_init__(self) -> None:
        if self.kind not in MISMATCH_KINDS:
            raise ValueError(f"unknown mismatch kind {self.kind!r}")


@dataclass(frozen=True, slots=True)
class ScoreResult:
    true_positives: int
    false_positives: int
    false_negatives: int
    precision: Fraction
    recall: Fraction
    f1: Fraction
    mismatches: tuple[Mismatch, ...] = ()
    policy: MatchPolicy | None = None
    warnings: tuple[str, ...] = ()


def _ratio(num: int, den: int) -> Fraction:
    # A tool that claims nothing has made no false claims.
    return Fraction(1) if den == 0 else Fraction(num, den)


def f1_score(precision: Fraction, recall: Fraction) -> Fraction:
    total = precision + recall
    if total == 0:
        return Fraction(0)
    return 2 * precision * recall / total


def _finish(
    tp: int,
    fp: int,
    fn: int,
    mismatches: list[Mismatch],
    policy: MatchPolicy | None,
    warnings: list[str],
) -> ScoreResult:
    if tp == 0 and fp == 0 and fn == 0:
        warnings.append("EMPTY_COMPARISON")
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    return ScoreResult(
        tp,
        fp,
        fn,
        precision,
        recall,
        f1_score(precision, recall),
        tuple(mismatches),
        policy,
        tuple(warnings),
    )


def score_functions(
    truth: GroundTruthDocument,
    report: ToolReport,
    policy: MatchPolicy | None = None,
) -> ScoreResult:
    """Score predicted function starts (and sizes) against the truth."""
    policy = policy or MatchPolicy()
    if report.binary_digest != truth.binary.content_digest:
        raise DigestMismatchError(
            "report digest does not match the scored binary"
        )
    warnings: list[str] = []
    if not truth.complete:
        if policy.reject_incomplete_truth:
            raise IncompleteTruthRejectedError(
                "ground truth is incomplete; refusing to score against it"
            )
        warnings.append("INCOMPLETE_TRUTH_ACCEPTED")
    if policy.boundary_rule == "legacy_lenient":
        warnings.append("LEGACY_LENIENT_POLICY")
    if policy.boundary_rule != "ignore":
        if any(size is None for _start, size in report.predicted_functions):
            raise MissingSizesError(
                f"boundary rule {policy.boundary_rule!r} needs predicted sizes"
            )

    entry_map: dict[int, int] = {}  # address -> index into truth.functions
    for idx, fn in enumerate(truth.functions):
        entries = (
            fn.entry_points
            if policy.start_rule == "any_entry"
            else fn.entry_points[:1]
        )
        for entry in entries:
            entry_map[entry] = idx

    consumed = [False] * len(truth.functions)
    tp = fp = 0
    mismatches: list[Mismatch] = []
    # By start, then size; a missing size sorts first, never compared with a number.
    for start, size in sorted(
        report.predicted_functions, key=lambda p: (p[0], p[1] is not None, p[1] or 0)
    ):
        idx = entry_map.get(start)
        if idx is None or consumed[idx]:
            fp += 1
            mismatches.append(
                Mismatch(
                    "spurious_start",
                    start,
                    f"no unmatched function has an entry at {start:#x}",
                )
            )
            continue
        consumed[idx] = True
        if policy.boundary_rule == "ignore":
            tp += 1
            continue
        fn = truth.functions[idx]
        trimmed_len = fn.end_exclusive_trimmed - fn.start
        raw_len = fn.end_exclusive_raw - fn.start
        assert size is not None  # checked up front
        if policy.boundary_rule == "strict_trimmed":
            good = size == trimmed_len
            wanted = str(trimmed_len)
        elif policy.boundary_rule == "strict_raw":
            good = size == raw_len
            wanted = str(raw_len)
        elif policy.boundary_rule == "padding_tolerant":
            good = trimmed_len <= size <= raw_len
            wanted = f"[{trimmed_len}, {raw_len}]"
        else:  # legacy_lenient
            good = size <= raw_len
            wanted = f"<= {raw_len}"
        if good:
            tp += 1
        else:
            fp += 1
            mismatches.append(
                Mismatch(
                    "wrong_boundary",
                    start,
                    f"predicted size {size}, acceptable {wanted} "
                    f"under {policy.boundary_rule}",
                )
            )
    fn_count = 0
    for idx, fn in enumerate(truth.functions):
        if not consumed[idx]:
            fn_count += 1
            mismatches.append(
                Mismatch(
                    "missed_start",
                    fn.start,
                    f"{fn.canonical_name!r} at {fn.start:#x} was never claimed",
                )
            )
    # A wrong boundary both spends the prediction and leaves the function
    # effectively unrecovered.
    fn_count += sum(1 for m in mismatches if m.kind == "wrong_boundary")
    return _finish(tp, fp, fn_count, mismatches, policy, warnings)


def _runs_to_intervals(byte_map: ByteClassMap) -> list[tuple[int, int, str]]:
    return [(r.start, r.end, r.klass) for r in byte_map.runs]


def _coverage(intervals: list[tuple[int, int, str]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for lo, hi, _cls in sorted(intervals):
        if merged and merged[-1][1] == lo:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def score_byte_classes(
    truth_map: ByteClassMap, predicted_map: ByteClassMap
) -> dict[str, ScoreResult]:
    """Per-class byte-level scores; gap_unknown truth bytes are not scored."""
    truth_iv = _runs_to_intervals(truth_map)
    pred_iv = _runs_to_intervals(predicted_map)
    if _coverage(truth_iv) != _coverage(pred_iv):
        raise DomainMismatchError(
            "byte-class maps cover different address ranges"
        )

    matrix: dict[tuple[str, str], int] = {}
    ti = pi = 0
    while ti < len(truth_iv) and pi < len(pred_iv):
        t_lo, t_hi, t_cls = truth_iv[ti]
        p_lo, p_hi, p_cls = pred_iv[pi]
        lo = max(t_lo, p_lo)
        hi = min(t_hi, p_hi)
        if hi > lo:
            key = (t_cls, p_cls)
            matrix[key] = matrix.get(key, 0) + (hi - lo)
        if t_hi <= p_hi:
            ti += 1
        if p_hi <= t_hi:
            pi += 1

    out: dict[str, ScoreResult] = {}
    for klass in ("code", "padding", "data"):
        tp = matrix.get((klass, klass), 0)
        fp = sum(
            n
            for (t_cls, p_cls), n in matrix.items()
            if p_cls == klass and t_cls not in (klass, "gap_unknown")
        )
        fn = sum(
            n
            for (t_cls, p_cls), n in matrix.items()
            if t_cls == klass and p_cls != klass
        )
        out[klass] = _finish(tp, fp, fn, [], None, [])
    return out


@dataclass(frozen=True, slots=True)
class CorpusSummary:
    n: int
    micro_precision: Fraction
    micro_recall: Fraction
    micro_f1: Fraction
    macro_precision: Fraction
    macro_recall: Fraction
    macro_f1: Fraction
    fraction_perfect: Fraction
    # (threshold label, share of binaries with f1 below the threshold)
    below: tuple[tuple[str, Fraction], ...]


def canonical_threshold(threshold: float | str | Fraction) -> tuple[str, Fraction]:
    """Normalize a threshold to (label, exact value).

    Going through ``str`` keeps 0.96 meaning the decimal 96/100 rather
    than the binary float nearest it.
    """
    if isinstance(threshold, Fraction):
        return str(threshold), threshold
    label = str(threshold)
    return label, Fraction(label)


def corpus_aggregate(
    results: list[ScoreResult],
    thresholds: tuple[float | str | Fraction, ...] = (),
) -> CorpusSummary:
    """Pool per-binary scores into micro / macro / distribution views."""
    if not results:
        raise EmptyCorpusError("no results to aggregate")
    n = len(results)
    tp = sum(r.true_positives for r in results)
    fp = sum(r.false_positives for r in results)
    fn = sum(r.false_negatives for r in results)
    micro_p = _ratio(tp, tp + fp)
    micro_r = _ratio(tp, tp + fn)
    macro_p = sum(r.precision for r in results) / n
    macro_r = sum(r.recall for r in results) / n
    macro_f1 = sum(r.f1 for r in results) / n
    perfect = Fraction(sum(1 for r in results if r.f1 == 1), n)
    below = []
    for raw in thresholds:
        label, value = canonical_threshold(raw)
        share = Fraction(sum(1 for r in results if r.f1 < value), n)
        below.append((label, share))
    return CorpusSummary(
        n=n,
        micro_precision=micro_p,
        micro_recall=micro_r,
        micro_f1=f1_score(micro_p, micro_r),
        macro_precision=macro_p,
        macro_recall=macro_r,
        macro_f1=macro_f1,
        fraction_perfect=perfect,
        below=tuple(below),
    )
