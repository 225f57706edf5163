"""Command-line front end.

Subcommands: ``extract`` builds ground-truth documents from binaries,
``score`` compares one tool report against one document, ``diff``
compares two documents, ``corpus`` aggregates scores over a directory,
and ``fixtures`` materializes the bundled test binaries.

One table, ``_COMMANDS``, gives each command its help, its argument setup
and its handler. An invocation whose first argument names a command
registers that command's parser only; any other (no argument, ``-h``,
``--version``, an unknown command) registers all five, so each help,
usage and error text is the same either way. ``forge`` is imported only
where ``fixtures`` is registered or run, ``multiprocessing`` only when
``corpus`` starts a child, and ``traceback`` only when a child fails:
``extract``, ``score``, ``diff`` and ``corpus --jobs 1`` import none of
them.

The cyclic garbage collector is paused while a command runs and restored
as it was found on every exit: nothing a command builds holds a reference
cycle, so the collector would only rescan the acyclic objects that
``extract`` and a truth load allocate in bulk.

Exit codes: 0 success, 1 usage error (including a bad option value), 2
unreadable or invalid input (parse, schema, digest), 3 incomplete ground
truth, 4 documents differ (``diff`` only). Any other exception is a bug
and propagates.
"""
from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

from . import __version__, elf, interchange, normalize, scoring

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INCOMPLETE = 3
EXIT_DIFFERENT = 4

# Only failures caused by what the user handed in; anything else is a bug
# and surfaces as a traceback instead of "invalid input".
_INPUT_ERRORS = (
    OSError,
    UnicodeDecodeError,
    elf.ElfFormatError,
    interchange.SchemaError,
    normalize.CallEdgeError,
    scoring.DigestMismatchError,
    scoring.MissingSizesError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _threshold(text: str) -> str:
    try:
        scoring.canonical_threshold(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a number like 0.96 or 24/25"
        ) from None
    return text


def _extract_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("binaries", nargs="+", metavar="BINARY")
    p.add_argument("-o", "--out", metavar="PATH", help="output file or directory")
    p.add_argument(
        "--no-merge-multi-entry",
        action="store_true",
        help="keep fall-through continuation symbols as separate functions",
    )
    p.add_argument(
        "--noreturn-seeds",
        metavar="PATH",
        help="replace the built-in noreturn name list",
    )
    p.add_argument(
        "--call-edges",
        metavar="PATH",
        help="caller/callee address pairs enabling the uncalled flag",
    )
    p.add_argument(
        "--start-mismatch-tolerance",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="bytes of slack when matching debug info to symbols",
    )


def _score_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("truth", metavar="TRUTH.json")
    p.add_argument("report", metavar="REPORT.json")
    _add_policy_args(p)
    p.add_argument("--format", choices=("json", "table"), default="json")


def _diff_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("left", metavar="A.json")
    p.add_argument("right", metavar="B.json")
    p.add_argument("--format", choices=("json", "table"), default="table")


def _corpus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "directory",
        metavar="DIR",
        help="holds <stem>.truth.json / <stem>.report.json pairs",
    )
    _add_policy_args(p)
    p.add_argument(
        "--threshold",
        type=_threshold,
        action="append",
        default=[],
        metavar="F",
        help="report the share of binaries with f1 below F (repeatable)",
    )
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="score pairs in at most N processes, this one included, never more "
        "than there are pairs; each gets a contiguous share of near-equal count",
    )
    p.add_argument("--format", choices=("json", "table"), default="json")


def _fixtures_args(p: argparse.ArgumentParser) -> None:
    from . import forge

    p.add_argument("-o", "--out", required=True, metavar="DIR")
    p.add_argument(
        "--preset",
        action="append",
        default=[],
        choices=sorted(forge.PRESETS),
        metavar="NAME",
        help=f"one of: {', '.join(sorted(forge.PRESETS))} (repeatable)",
    )
    p.add_argument("--seed", type=int, metavar="N", help="randomized corpus seed")
    p.add_argument("--count", type=_positive_int, default=10, metavar="K")


def _add_policy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--policy",
        choices=sorted(scoring.POLICY_PRESETS),
        default="default",
    )
    p.add_argument("--start-rule", choices=scoring.START_RULES)
    p.add_argument("--boundary-rule", choices=scoring.BOUNDARY_RULES)
    p.add_argument(
        "--accept-incomplete",
        action="store_true",
        help="score against incomplete truth instead of refusing",
    )


def _policy_from(args: argparse.Namespace) -> scoring.MatchPolicy:
    policy = scoring.POLICY_PRESETS[args.policy]
    if args.start_rule:
        policy = replace(policy, start_rule=args.start_rule)
    if args.boundary_rule:
        policy = replace(policy, boundary_rule=args.boundary_rule)
    if args.accept_incomplete:
        policy = replace(policy, reject_incomplete_truth=False)
    return policy


def _config_from(args: argparse.Namespace) -> normalize.RunConfig:
    seeds = None
    if args.noreturn_seeds:
        text = Path(args.noreturn_seeds).read_text(encoding="utf-8")
        seeds = normalize.parse_name_list(text)
    edges = None
    if args.call_edges:
        text = Path(args.call_edges).read_text(encoding="utf-8")
        edges = normalize.parse_call_edges(text)
    return normalize.RunConfig(
        merge_multi_entry=not args.no_merge_multi_entry,
        start_mismatch_tolerance=args.start_mismatch_tolerance,
        noreturn_seeds=seeds,
        call_edges=edges,
    )


def _cmd_extract(args: argparse.Namespace) -> int:
    config = _config_from(args)
    out = Path(args.out) if args.out else None
    if len(args.binaries) > 1 and (out is None or not out.is_dir()):
        print(
            "extract: multiple binaries need --out pointing at a directory",
            file=sys.stderr,
        )
        return EXIT_USAGE
    stems = Counter(Path(b).stem for b in args.binaries)
    shared = [f"{stem}.truth.json" for stem, n in sorted(stems.items()) if n > 1]
    if shared:
        print(f"extract: binaries share the output {', '.join(shared)}", file=sys.stderr)
        return EXIT_USAGE
    any_incomplete = False
    for path_str in args.binaries:
        path = Path(path_str)
        image = elf.parse_image(path.read_bytes(), source_path=str(path))
        doc = normalize.build_ground_truth(normalize.read_evidence(image), config)
        text = interchange.document_to_json(doc, config)
        if out is None:
            sys.stdout.write(text)
        elif out.is_dir():
            (out / f"{path.stem}.truth.json").write_text(text, encoding="utf-8")
        else:
            out.write_text(text, encoding="utf-8")
        if not doc.complete:
            any_incomplete = True
            print(f"{path}: ground truth is incomplete", file=sys.stderr)
    return EXIT_INCOMPLETE if any_incomplete else EXIT_OK


def _score_table(result: scoring.ScoreResult) -> str:
    lines = [
        f"true positives   {result.true_positives}",
        f"false positives  {result.false_positives}",
        f"false negatives  {result.false_negatives}",
        f"precision        {result.precision} ({float(result.precision):.4f})",
        f"recall           {result.recall} ({float(result.recall):.4f})",
        f"f1               {result.f1} ({float(result.f1):.4f})",
    ]
    for warning in result.warnings:
        lines.append(f"warning          {warning}")
    for m in result.mismatches:
        lines.append(f"{m.kind:16} {m.address:#x}  {m.detail}")
    return "\n".join(lines) + "\n"


def _load(loader, path: str):
    """``loader`` applied to the text of ``path``; a file it refuses is named."""
    try:
        return loader(Path(path).read_text(encoding="utf-8"))
    except (interchange.SchemaError, UnicodeDecodeError) as exc:
        raise interchange.SchemaError(f"{path}: {exc}") from None


def _score_pair(
    truth_path: str, report_path: str, policy: scoring.MatchPolicy
) -> scoring.ScoreResult:
    truth = _load(interchange.document_from_json, truth_path)
    report = _load(interchange.report_from_json, report_path)
    try:
        return scoring.score_functions(truth, report, policy)
    except scoring.IncompleteTruthRejectedError as exc:
        raise scoring.IncompleteTruthRejectedError(f"{truth_path}: {exc}") from None


def _cmd_score(args: argparse.Namespace) -> int:
    result = _score_pair(args.truth, args.report, _policy_from(args))
    if args.format == "json":
        sys.stdout.write(interchange.score_to_json(result))
    else:
        sys.stdout.write(_score_table(result))
    return EXIT_OK


# The fields diff compares, as (JSON key, GroundTruthFunction attribute), in
# the order of the document schema's function properties; "start" keys the match.
_FUNCTION_FIELDS = (
    ("name", "canonical_name"),
    ("entries", "entry_points"),
    ("end_raw", "end_exclusive_raw"),
    ("end_trimmed", "end_exclusive_trimmed"),
    ("aliases", "aliases"),
    ("group", "specialization_group"),
    ("flags", "flags"),
    ("provenance", "provenance"),
    ("source", "source"),
)


def _diff_documents(left, right) -> dict:
    changes: dict = {
        "binary": [],
        "functions": {"added": [], "removed": [], "changed": []},
        "byte_classes_changed": left.byte_classes != right.byte_classes,
        "diagnostics_changed": Counter(
            (d.severity, d.code) for d in left.diagnostics
        )
        != Counter((d.severity, d.code) for d in right.diagnostics),
        "complete": None,
    }
    if left.binary.content_digest != right.binary.content_digest:
        changes["binary"].append("digest")
    if left.binary.word_size != right.binary.word_size:
        changes["binary"].append("word_size")
    # The code decides the label: a name from MACHINE_NAMES or other(code).
    if left.binary.machine_code != right.binary.machine_code:
        changes["binary"].append("machine")
    if left.complete != right.complete:
        changes["complete"] = [left.complete, right.complete]

    lefts = {fn.start: fn for fn in left.functions}
    rights = {fn.start: fn for fn in right.functions}
    for start in sorted(rights.keys() - lefts.keys()):
        changes["functions"]["added"].append(
            {"start": interchange._hex(start), "name": rights[start].canonical_name}
        )
    for start in sorted(lefts.keys() - rights.keys()):
        changes["functions"]["removed"].append(
            {"start": interchange._hex(start), "name": lefts[start].canonical_name}
        )
    for start in sorted(lefts.keys() & rights.keys()):
        a, b = lefts[start], rights[start]
        fields = [
            key for key, attr in _FUNCTION_FIELDS if getattr(a, attr) != getattr(b, attr)
        ]
        if fields:
            changes["functions"]["changed"].append(
                {"start": interchange._hex(start), "fields": fields}
            )
    identical = (
        not changes["binary"]
        and not any(changes["functions"].values())
        and not changes["byte_classes_changed"]
        and not changes["diagnostics_changed"]
        and changes["complete"] is None
    )
    changes["identical"] = identical
    return changes


def _cmd_diff(args: argparse.Namespace) -> int:
    left = _load(interchange.document_from_json, args.left)
    right = _load(interchange.document_from_json, args.right)
    changes = _diff_documents(left, right)
    if args.format == "json":
        sys.stdout.write(interchange.dump_json(changes))
    else:
        if changes["identical"]:
            print("documents are identical")
        else:
            for field_name in changes["binary"]:
                print(f"binary.{field_name} differs")
            for fn in changes["functions"]["added"]:
                print(f"only in {args.right}: {fn['name']} at {fn['start']}")
            for fn in changes["functions"]["removed"]:
                print(f"only in {args.left}: {fn['name']} at {fn['start']}")
            for fn in changes["functions"]["changed"]:
                print(f"changed at {fn['start']}: {', '.join(fn['fields'])}")
            if changes["byte_classes_changed"]:
                print("byte classifications differ")
            if changes["diagnostics_changed"]:
                print("diagnostics differ")
            if changes["complete"] is not None:
                print(f"completeness differs: {changes['complete']}")
    return EXIT_OK if changes["identical"] else EXIT_DIFFERENT


def _corpus_table(summary: scoring.CorpusSummary) -> str:
    lines = [
        f"binaries        {summary.n}",
        f"micro P/R/F1    {summary.micro_precision} / {summary.micro_recall} / "
        f"{summary.micro_f1}",
        f"macro P/R/F1    {summary.macro_precision} / {summary.macro_recall} / "
        f"{summary.macro_f1}",
        f"perfect         {summary.fraction_perfect} "
        f"({float(summary.fraction_perfect):.4f})",
    ]
    for label, share in summary.below:
        lines.append(f"f1 < {label:10} {share} ({float(share):.4f})")
    return "\n".join(lines) + "\n"


class _ChildTraceback(Exception):
    """The traceback, as text, of an exception raised in a child process.

    A pickled exception loses its traceback, so the child sends it as text
    and the parent raises the exception from this one.
    """

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _send_share(sender, share, policy) -> None:
    """A child's whole task: score the (truth, report) pairs of ``share`` and
    send, as one message, their scores or the first failure and its traceback."""
    try:
        message = ([_score_pair(t, r, policy) for t, r in share], None, None)
    except Exception as exc:
        import traceback

        message = (None, exc, traceback.format_exc())
    sender.send(message)


def _receive(receiver, child):
    """What ``child`` sent, or None if it exited without sending; then join it."""
    with receiver:
        try:
            message = receiver.recv()
        except EOFError:
            message = None
    child.join()
    return message


def _score_pairs(pairs, policy, jobs: int) -> list[scoring.ScoreResult]:
    """The scores of ``pairs`` in input order, from ``min(jobs, len(pairs))``
    processes, this one included.

    The pairs are cut into that many contiguous shares of near-equal count.
    This process scores the first and each other share goes to one child,
    which sends everything back as one message. Shares are checked in order,
    so the failure raised is the first in input order.
    """
    count = min(jobs, len(pairs))
    if count > 1:  # only starting a child needs it
        import multiprocessing
    shares = [
        pairs[k * len(pairs) // count : (k + 1) * len(pairs) // count]
        for k in range(count)
    ]
    children = []
    try:
        for share in shares[1:]:
            receiver, sender = multiprocessing.Pipe(duplex=False)
            with sender:  # the child's copy is then the pipe's only writer
                child = multiprocessing.Process(
                    target=_send_share, args=(sender, share, policy)
                )
                child.start()
            children.append((receiver, child))
        results = [_score_pair(t, r, policy) for t, r in shares[0]]
    finally:
        # Read each message before joining its child: a child blocked writing
        # more than the pipe holds would never exit.
        messages = [_receive(receiver, child) for receiver, child in children]
    for share, (_receiver, child), message in zip(shares[1:], children, messages):
        if message is None:
            raise RuntimeError(
                f"corpus: the process scoring {share[0][0]} and the rest of its "
                f"share exited with code {child.exitcode} without sending results "
                f"under the {multiprocessing.get_start_method()!r} start method "
                "(with 'spawn', a child re-imports the main script); --jobs 1 "
                "starts no child"
            )
        scored, failure, trace = message
        if failure is not None:
            raise failure from _ChildTraceback(trace)
        results.extend(scored)
    return results


def _cmd_corpus(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"corpus: {directory}: not a directory", file=sys.stderr)
        return EXIT_INPUT
    pairs = []
    for truth_path in sorted(directory.glob("*.truth.json")):
        stem = truth_path.name[: -len(".truth.json")]
        report_path = directory / f"{stem}.report.json"
        if not report_path.exists():
            print(f"corpus: no report for {truth_path.name}", file=sys.stderr)
            return EXIT_INPUT
        pairs.append((str(truth_path), str(report_path)))
    if not pairs:
        print(f"corpus: {directory}: no <stem>.truth.json files", file=sys.stderr)
        return EXIT_INPUT
    results = _score_pairs(pairs, _policy_from(args), args.jobs)
    summary = scoring.corpus_aggregate(results, tuple(args.threshold))
    if args.format == "json":
        sys.stdout.write(interchange.corpus_to_json(summary))
    else:
        sys.stdout.write(_corpus_table(summary))
    return EXIT_OK


def _cmd_fixtures(args: argparse.Namespace) -> int:
    from . import forge

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = args.preset or (sorted(forge.PRESETS) if args.seed is None else [])
    for name in names:
        data = forge.emit(forge.preset(name))
        (out / f"{name}.bin").write_bytes(data)
        print(f"wrote {name}.bin ({len(data)} bytes)")
    if args.seed is not None:
        for fixture in forge.generate_corpus(args.seed, args.count):
            (out / f"{fixture.name}.bin").write_bytes(fixture.data)
            print(f"wrote {fixture.name}.bin ({len(fixture.data)} bytes)")
    return EXIT_OK


class _Command(NamedTuple):
    help: str
    setup: Callable[[argparse.ArgumentParser], None]  # adds the arguments
    run: Callable[[argparse.Namespace], int]


_COMMANDS = {
    "extract": _Command("derive ground truth from binaries", _extract_args, _cmd_extract),
    "score": _Command("score a tool report against ground truth", _score_args, _cmd_score),
    "diff": _Command("compare two ground-truth documents", _diff_args, _cmd_diff),
    "corpus": _Command("aggregate scores over a directory", _corpus_args, _cmd_corpus),
    "fixtures": _Command("write bundled test binaries", _fixtures_args, _cmd_fixtures),
}


def _build_parser(command: str | None = None) -> _Parser:
    """The parser of every command, or of ``command`` alone.

    A parser of one command prints the same usage as the full one: the
    only text of the top-level parser that a known command can reach is
    its usage line, on an unrecognized argument.
    """
    parser = _Parser(
        prog="bintruth",
        description="Function ground truth for binary analysis tools.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # None lets argparse list the registered choices, here all five.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        entry = _COMMANDS[name]
        entry.setup(sub.add_parser(name, help=entry.help))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A leading command name is the command: the top-level options take no
    # value that could claim it.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command].run(args)
    except _INPUT_ERRORS as exc:
        print(f"bintruth {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except scoring.IncompleteTruthRejectedError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
