#!/usr/bin/env python3
"""bintruth benchmark: forged workloads driven through the CLI in-process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload extract-debug-heavy --seed 1 \\
        --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout and nothing else;
without it the run exits with an error and prints no result.

A run forges its workload from ``--seed`` (see ``workloads.py``) and sets
it up (forge, write the binaries, extract each truth file with ``bintruth
extract``, write one simulated tool report per binary), then repeats
rounds of operations through ``bintruth.cli.main`` for ``--seconds``,
setting up again between equal stretches and at the end, for
``SETUP_REPEATS`` set-ups in all:

* ``extract bin/S.bin -o out/S.truth.json``
* ``score corpus/S.truth.json corpus/S.report.json``
* ``corpus corpus --jobs 1 --threshold 0.96``
* ``corpus corpus --jobs 2 --threshold 0.96``

Where a workload has several binaries, rounds rotate through them. Every
output is checked against the truth the generator built (``oracle.py``)
and its SHA-256 must equal that of every earlier output for the same
input. An operation fails if it raises, exits non-zero or produces
output that fails either check.

``--trace 0`` reports the end-to-end metrics: each operation's median
time over its samples, and ``setup_s`` as the median of the set-ups,
all normalised for host speed. The shared 2-core x86_64 host the bounds
were set on changes speed by up to 2x from one second to the next, so
each operation and each part of a set-up is timed between two runs of a
fixed reference (``reference.py``) and scaled to a host on which the
reference takes ``reference.NOMINAL_S``. Over ten 30 s runs per
workload on that host, run-to-run spreads (interquartile range over
median) of the operations' medians were 0.04-0.17 raw and 0.02-0.07
normalised. The detail line keeps each operation's normalised median,
tail, sample count and samples, and its raw median and samples.

``--trace 1`` sets up once, then alternates traced and untraced runs of
the workload's primary operation (``extract`` for the extract workloads,
``corpus --jobs 1`` for ``score-corpus``; spans in pool workers would
not be collected) and reports per-layer metrics. Each ``_s`` metric is
the median over traced operations of that layer's self time in one
operation; counts are per operation too. ``cli.self_s`` is the time not
covered by any layer span (argument parsing, file I/O) and
``trace.overhead_s`` the median traced operation minus the median
untraced one.

The last line of standard output is the JSON result; the line before it
holds details: sample counts and tails, by-construction sizes and the
SHA-256 of every output.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_ROUNDS = 2
THRESHOLD = "0.96"
END_TO_END = ("extract_s", "score_s", "corpus_s", "corpus_jobs2_s")
# One round of timed operations. ``corpus --jobs 2`` runs twice: its pool
# worker runs on whichever core is free, whose speed the reference run in
# this process tracks less well, so it needs more samples for the same
# spread.
ROUND = END_TO_END + ("corpus_jobs2_s",)
# Its pool worker is timed against the reference on both cores.
REFERENCE = {"corpus_jobs2_s": reference.seconds_two_cores}


def import_program() -> None:
    """Import ``bintruth`` from this checkout's ``src/``, or exit."""
    if not (SRC / "bintruth" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bintruth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bintruth

    if Path(bintruth.__file__).resolve().parent != (SRC / "bintruth").resolve():
        raise SystemExit(f"perfbench: imported bintruth from {bintruth.__file__}, not {SRC}")


@dataclass(slots=True)
class Op:
    key: str  # outputs with the same key must be byte-identical
    argv: list[str]
    output: Path | None  # None: the output is what the command prints
    check: Callable[[str], list[str]]  # output text -> problems


class Runner:
    def __init__(self, cli) -> None:
        self.cli = cli
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, op: Op) -> float:
        """Run one operation; returns its wall time."""
        if op.output is not None and op.output.exists():
            op.output.unlink()
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # every operation starts from the same heap
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an operation that raises is a failure
                where = traceback.extract_tb(exc.__traceback__)[-1]
                code = f"{type(exc).__name__}: {exc} at {where.filename}:{where.lineno}"
        elapsed = time.perf_counter() - start
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit {code!r}: {err.getvalue().strip()[:200]}")
        else:
            text = op.output.read_text() if op.output else out.getvalue()
            problems += op.check(text)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests.setdefault(op.key, digest) != digest:
                problems.append("output differs from an earlier run of the same operation")
        if problems:
            self.failed += 1
            self.problems += [f"{' '.join(op.argv)}: {p}" for p in problems]
        return elapsed


def timed(fn: Callable[[], float], ref=reference.seconds) -> tuple[float, float, float, float]:
    """Run ``fn``, which returns the seconds it measured, between two
    timings of ``ref``; returns (seconds, normalised seconds, reference
    seconds before, reference seconds after)."""
    before = ref()
    elapsed = fn()
    after = ref()
    return elapsed, reference.normalised(elapsed, before, after), before, after


def setup(name: str, seed: int, runner: Runner):
    """Forge the workload and write its inputs; returns (workload,
    seconds, normalised seconds)."""
    import oracle
    import workloads

    for sub in ("bin", "corpus", "out"):
        shutil.rmtree(sub, ignore_errors=True)
        os.mkdir(sub)
    work = None

    def forge() -> float:
        nonlocal work
        start = time.perf_counter()
        work = workloads.WORKLOADS[name](seed)
        for b in work.binaries:
            Path(f"bin/{b.stem}.bin").write_bytes(b.data)
            Path(f"corpus/{b.stem}.report.json").write_text(b.report_text)
        return time.perf_counter() - start

    elapsed, norm, *_ = timed(forge)
    for b in work.binaries:
        # Only the extraction counts, not the oracle's check of its output.
        op = Op(f"extract:{b.stem}",
                ["extract", f"bin/{b.stem}.bin", "-o", f"corpus/{b.stem}.truth.json"],
                Path(f"corpus/{b.stem}.truth.json"),
                lambda text, b=b: oracle.check_document(text, b))
        raw, scaled, *_ = timed(lambda op=op: runner.run(op))
        elapsed += raw
        norm += scaled
    return work, elapsed, norm


def oracle_sensitivity(work) -> None:
    """The document check must reject a truth with one end_trimmed moved."""
    import oracle

    b = work.binaries[0]
    doc = json.loads(Path(f"corpus/{b.stem}.truth.json").read_text())
    fn = doc["functions"][len(doc["functions"]) // 2]
    fn["end_trimmed"] = f"0x{int(fn['end_trimmed'], 16) - 1:x}"
    if not oracle.check_document(json.dumps(doc), b):
        raise RuntimeError("the oracle accepted a document with a shifted end_trimmed")


def operations(work) -> dict[str, list[Op]]:
    import oracle

    expected = work.corpus()
    corpus_check = lambda text: oracle.check_corpus(text, expected, THRESHOLD)  # noqa: E731
    ops: dict[str, list[Op]] = {m: [] for m in END_TO_END}
    for b in work.binaries:
        ops["extract_s"].append(
            Op(f"extract:{b.stem}",
               ["extract", f"bin/{b.stem}.bin", "-o", f"out/{b.stem}.truth.json"],
               Path(f"out/{b.stem}.truth.json"),
               lambda text, b=b: oracle.check_document(text, b))
        )
        ops["score_s"].append(
            Op(f"score:{b.stem}",
               ["score", f"corpus/{b.stem}.truth.json", f"corpus/{b.stem}.report.json"], None,
               lambda text, b=b: oracle.check_score(text, b.stem, b.score))
        )
    for metric, jobs in (("corpus_s", "1"), ("corpus_jobs2_s", "2")):
        # Both job counts must print the same bytes: one digest key.
        ops[metric].append(
            Op("corpus", ["corpus", "corpus", "--jobs", jobs, "--threshold", THRESHOLD],
               None, corpus_check)
        )
    return ops


def tail(samples: list[float], raw: list[float] | None = None) -> dict:
    """n, median, max, the highest of p90/p50 with ten samples beyond it, and
    the samples in order; with ``raw``, the unnormalised median and samples."""
    out = {"n": len(samples), "median": statistics.median(samples), "max": max(samples),
           "samples": [round(x, 4) for x in samples]}
    if raw is not None:
        out["raw_median"] = statistics.median(raw)
        out["raw_samples"] = [round(x, 4) for x in raw]
    for pct in (90, 50):
        if len(samples) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(samples, n=100)[pct - 1]
            break
    return out


def timed_rounds(ops, metrics, seconds: float, runner: Runner, sequence: list):
    """Rounds of one operation per metric, until ``seconds`` pass.

    Returns metric -> [(seconds, normalised seconds)], and appends
    (metric, seconds, reference before, reference after) for each
    operation to ``sequence``, in run order.

    The deadline is checked before each operation once ``MIN_ROUNDS``
    rounds are done, so sample counts of metrics that occur once in
    ``metrics`` differ by at most one.
    """
    samples: dict[str, list[tuple]] = {m: [] for m in metrics}
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        for metric in metrics:
            if r >= MIN_ROUNDS and time.perf_counter() >= deadline:
                return samples
            op = ops[metric][r % len(ops[metric])]
            elapsed, norm, before, after = timed(
                lambda: runner.run(op), REFERENCE.get(metric, reference.seconds))
            samples[metric].append((elapsed, norm))
            sequence.append((metric, round(elapsed, 5), round(before, 6), round(after, 6)))
        r += 1


def traced_rounds(ops, seconds: float, runner: Runner, recorder):
    """Alternate traced and untraced runs of the same operation.

    Returns (traced seconds, untraced seconds, inputs of the traced runs).
    """
    traced, plain, inputs = [], [], []
    deadline = time.perf_counter() + seconds
    r = 0
    while r < 2 * MIN_ROUNDS or time.perf_counter() < deadline:
        op = ops[(r // 2) % len(ops)]
        if r % 2 == 0:
            with recorder.installed(trace=r, root="cli"):
                traced.append(runner.run(op))
            inputs.append(op.key)
        else:
            plain.append(runner.run(op))
        r += 1
    return traced, plain, inputs


NORMALIZE_STAGES = (
    "dedupe_aliases", "merge_fallthrough_entries", "resolve_boundaries", "trim_padding",
    "cluster_specializations", "match_debug_records", "annotate_noreturn",
    "tag_compiler_inserted",
)


def layers() -> list[tuple]:
    """(owner, attribute, span name, count) for every traced public function."""
    import jsonschema
    from bintruth import byteclass, dwarf, elf, interchange, normalize, scoring

    def image_counts(img, _args):
        return {
            "elf.sections": len(img.sections),
            "elf.symbols": len(img.symbols),
            "dwarf.debug_info_bytes": sum(s.size for s in img.sections if s.name == ".debug_info"),
        }

    def doc_counts(doc, _args):
        fns = doc.functions
        return {
            "normalize.functions": len(fns),
            "normalize.diagnostics": len(doc.diagnostics),
            "normalize.trim_padding_bytes": sum(f.end_exclusive_raw - f.start for f in fns),
            "normalize.trimmed": sum(1 for f in fns if f.end_exclusive_trimmed < f.end_exclusive_raw),
            "dwarf.functions": sum(1 for f in fns if "dwarf" in f.provenance),
        }

    def score_counts(result, _args):
        return {
            "scoring.predictions": result.true_positives + result.false_positives,
            "scoring.mismatches": len(result.mismatches),
            "scoring.true_positives": result.true_positives,
        }

    def text_in(_result, args):
        return {"interchange.json_bytes": len(args[0])}

    def text_out(result, _args):
        return {"interchange.json_bytes": len(result)}

    return [
        (elf, "parse_image", "elf.parse_image", image_counts),
        (elf, "function_symbols", "elf.function_symbols", None),
        (dwarf, "extract_debug_functions", "dwarf.extract_debug_functions",
         lambda r, _a: {"dwarf.records": len(r[0])}),
        (normalize, "build_ground_truth", "normalize.build_ground_truth", doc_counts),
        *[(normalize, stage, f"normalize.{stage}", None) for stage in NORMALIZE_STAGES],
        (byteclass, "classify_bytes", "byteclass.classify_bytes",
         lambda r, _a: {"byteclass.runs": len(r.runs)}),
        (interchange, "document_to_json", "interchange.document_to_json", text_out),
        (interchange, "document_from_json", "interchange.document_from_json", text_in),
        (interchange, "report_from_json", "interchange.report_from_json", text_in),
        (interchange, "corpus_to_json", "interchange.corpus_to_json", text_out),
        # interchange validates through this module attribute.
        (jsonschema, "validate", "interchange.schema_validate", None),
        (scoring, "score_functions", "scoring.score_functions", score_counts),
        (scoring, "corpus_aggregate", "scoring.corpus_aggregate", None),
    ]


COUNTS = (
    "elf.sections", "elf.symbols", "dwarf.debug_info_bytes", "dwarf.records",
    "normalize.functions", "normalize.diagnostics", "normalize.trim_padding_bytes",
    "byteclass.runs", "interchange.json_bytes", "scoring.predictions", "scoring.mismatches",
)


def layer_metrics(recorder, traced, plain, inputs, work, runner) -> dict[str, tuple[float, str]]:
    per_trace = recorder.per_trace()
    ops = [per_trace[t] for t in sorted(per_trace)]

    def median(values):
        return statistics.median(list(values))

    def ratio(num, den):
        return median(t[num] / t[den] if t[den] else 0.0 for t in ops)

    out = {}
    for _owner, _attr, name, _count in recorder.layers:
        out[f"{name}_s"] = (median(t[name] for t in ops), "s")
    out["cli.self_s"] = (median(t["cli"] for t in ops), "s")
    for name in COUNTS:
        out[name] = (median(t[name] for t in ops), "B" if name.endswith("_bytes") else "count")
    # DIEs and attributes are known by construction, for the binary each
    # traced operation extracted (none for a corpus call).
    sizes = {f"extract:{b.stem}": b.sizes for b in work.binaries}
    dies = [sizes[key]["dies"] if key in sizes else 0 for key in inputs]
    attributes = [sizes[key]["attributes"] if key in sizes else 0 for key in inputs]
    out["dwarf.dies"] = (median(dies), "count")
    out["dwarf.attributes"] = (median(attributes), "count")
    out["dwarf.useful_die_ratio"] = (
        median(t["dwarf.functions"] / d if d else 0.0 for t, d in zip(ops, dies)), "ratio")
    out["normalize.trimmed_ratio"] = (ratio("normalize.trimmed", "normalize.functions"), "ratio")
    out["scoring.true_positive_ratio"] = (
        ratio("scoring.true_positives", "scoring.predictions"), "ratio")
    out["trace.overhead_s"] = (median(traced) - median(plain), "s")
    out["error_rate"] = (runner.failed / runner.attempted, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bintruth benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from bintruth import cli

    import workloads
    from spans import SpanRecorder

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    runner = Runner(cli)
    here = os.getcwd()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        os.chdir(workdir)
        work, *first = setup(args.workload, args.seed, runner)
        setup_times = [tuple(first)]  # (seconds, normalised seconds)
        raw: dict[str, list[float]] = {}
        sequence: list[tuple] = []
        oracle_sensitivity(work)
        ops = operations(work)
        # The benchmark's own objects (forged specs, expected truth) would
        # otherwise be traversed by every full collection during the
        # timed operations, which a fresh CLI process never does.
        gc.collect()
        gc.freeze()
        if args.trace:
            recorder = SpanRecorder(layers())
            primary = f"{work.primary}_s"
            traced, plain, inputs = traced_rounds(ops[primary], args.seconds, runner, recorder)
            samples = {f"{primary} traced": traced, primary: plain}
            metrics = layer_metrics(recorder, traced, plain, inputs, work, runner)
        else:
            # The other set-ups are spread over the run, between stretches
            # of rounds, so that their median does not hang on how fast
            # the host ran in the first seconds. A set-up rewrites the
            # same inputs, so the operations are unaffected.
            samples = {m: [] for m in END_TO_END}
            raw = {m: [] for m in END_TO_END}
            stretch = args.seconds / (SETUP_REPEATS - 1)
            for _ in range(SETUP_REPEATS - 1):
                for metric, values in timed_rounds(ops, ROUND, stretch, runner, sequence).items():
                    raw[metric] += [x for x, _ in values]
                    samples[metric] += [n for _, n in values]
                setup_times.append(tuple(setup(args.workload, args.seed, runner)[1:]))
            metrics = {m: (statistics.median(v), "s") for m, v in samples.items()}
            metrics["setup_s"] = (statistics.median(n for _, n in setup_times), "s")
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["peak_rss_mb"] = (peak, "MB")
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sizes": work.sizes,
        "setup_s": [n for _, n in setup_times],
        "setup_raw_s": [x for x, _ in setup_times],
        "sequence": sequence,
        "timings": {m: tail(v, raw.get(m)) for m, v in samples.items()},
        "outputs": runner.digests,
        "outputs_sha256": hashlib.sha256(
            json.dumps(runner.digests, sort_keys=True).encode()).hexdigest(),
        "problems": runner.problems[:20],
    }
    for metric, (value, unit) in metrics.items():
        print(f"{metric:40} {value:14.6f} {unit}")
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
