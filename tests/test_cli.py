import dataclasses
import gc
import json
import multiprocessing
import os
import pickle
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import bintruth
import corpuscheck
import oracles
from bintruth import byteclass, cli, elf, forge, interchange, scoring
from bintruth.cli import main
from bintruth.normalize import GroundTruthFunction
from bintruth.scoring import ToolReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_binary(tmp_path, name):
    path = tmp_path / f"{name}.bin"
    path.write_bytes(forge.emit(forge.preset(name)))
    return path


def write_truth(tmp_path, doc, stem):
    path = tmp_path / f"{stem}.truth.json"
    path.write_text(interchange.document_to_json(doc))
    return path


def write_report(tmp_path, doc, stem, predictions=None):
    if predictions is None:
        predictions = tuple(
            (fn.start, fn.end_exclusive_trimmed - fn.start) for fn in doc.functions
        )
    report = ToolReport("finder", "1.0", doc.binary.content_digest, tuple(predictions))
    path = tmp_path / f"{stem}.report.json"
    path.write_text(interchange.report_to_json(report))
    return path


# --- top level ------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_bad_choice_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["score", "a.json", "b.json", "--policy", "vibes"])
    assert exc.value.code == 1


@pytest.mark.parametrize("threshold", ["abc", "1/0"])
def test_bad_threshold_is_a_usage_error(tmp_path, capsys, threshold):
    with pytest.raises(SystemExit) as exc:
        main(["corpus", str(tmp_path), "--threshold", threshold])
    assert exc.value.code == 1
    assert "--threshold" in capsys.readouterr().err


def test_internal_failures_are_not_reported_as_invalid_input(tmp_path, monkeypatch):
    def overlapping(*_args):
        raise byteclass.OverlapError("two spans claim one byte")

    monkeypatch.setattr(byteclass, "classify_bytes", overlapping)
    with pytest.raises(byteclass.OverlapError):
        main(["extract", str(write_binary(tmp_path, "listing1"))])


# --- the cyclic collector -------------------------------------------------


def _outcome(argv):
    """What ``main(argv)`` returns, or the SystemExit it raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return f"SystemExit({exc.code})"


def _extract(tmp, preset):
    return ["extract", str(write_binary(tmp, preset)), "-o", str(tmp / "t")]


# (argv of a temporary directory, what main returns or raises)
_EXIT_PATHS = {
    "exit 0": (lambda tmp: _extract(tmp, "listing1"), 0),
    "exit 2 (refused input)": (lambda tmp: ["diff", str(tmp / "a"), str(tmp / "b")], 2),
    "exit 3 (incomplete truth)": (lambda tmp: _extract(tmp, "stripped"), 3),
    "--help": (lambda tmp: ["--help"], "SystemExit(0)"),
    "bad arguments": (lambda tmp: ["score", "a", "b", "--policy", "vibes"], "SystemExit(1)"),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("path", list(_EXIT_PATHS))
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, collector, path, enabled):
    argv, expected = _EXIT_PATHS[path]
    collector(enabled)
    assert _outcome(argv(tmp_path)) == expected
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_command_runs_with_the_collector_paused_even_when_it_raises(
    monkeypatch, collector, enabled
):
    seen = []

    def failing(_args):
        seen.append(gc.isenabled())
        raise RuntimeError("a bug")

    monkeypatch.setitem(cli._COMMANDS, "diff", cli._COMMANDS["diff"]._replace(run=failing))
    collector(enabled)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["diff", "a.json", "b.json"])
    assert seen == [False]
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("name", sorted(forge.PRESETS))
def test_no_command_leaves_cyclic_garbage(tmp_path, capsys, preset_docs, name):
    """The collector is paused while a command runs, so nothing a command
    builds may need it: every object is freed by its reference count."""
    truth = tmp_path / f"{name}.truth.json"
    binary = write_binary(tmp_path, name)
    assert corpuscheck.cyclic_garbage(["extract", str(binary), "-o", str(truth)]) == 0
    doc = interchange.document_from_json(truth.read_text())
    report = write_report(tmp_path, doc, name, [
        (fn.start, fn.end_exclusive_trimmed - fn.start) for fn in doc.functions[::2]
    ])
    (tmp_path / "other").mkdir()  # out of the corpus, which has its pair only
    other = write_truth(tmp_path / "other", preset_docs["listing1"], "other")
    for argv in (
        ["score", str(truth), str(report), "--accept-incomplete"],
        ["diff", str(truth), str(other)],
    ):
        assert corpuscheck.cyclic_garbage(argv) == 0, argv[0]
    capsys.readouterr()
    corpus = ["corpus", str(tmp_path), "--jobs", "1", "--accept-incomplete"]
    assert corpuscheck.cyclic_garbage(corpus) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 1


def test_fixtures_leaves_no_cyclic_garbage(tmp_path, capsys):
    for argv in (["--seed", "3", "--count", "3"], []):
        assert corpuscheck.cyclic_garbage(["fixtures", "-o", str(tmp_path), *argv]) == 0
    assert len(list(tmp_path.glob("*.bin"))) == 3 + len(forge.PRESETS)


# Runs the CLI in a fresh interpreter in which importing jsonschema fails.
_WITHOUT_JSONSCHEMA = """
import sys
sys.modules["jsonschema"] = None
from pathlib import Path
from bintruth import cli, interchange
from bintruth.scoring import ToolReport

out = Path(sys.argv[1])
codes = [cli.main(["fixtures", "-o", str(out), "--preset", "listing2"])]
truth = out / "listing2.truth.json"
codes.append(cli.main(["extract", str(out / "listing2.bin"), "-o", str(truth)]))
doc = interchange.document_from_json(truth.read_text())
preds = tuple((f.start, f.end_exclusive_trimmed - f.start) for f in doc.functions)
report = out / "listing2.report.json"
report.write_text(
    interchange.report_to_json(ToolReport("t", "1", doc.binary.content_digest, preds))
)
codes.append(cli.main(["score", str(truth), str(report)]))
codes.append(cli.main(["corpus", str(out)]))
sys.exit(max(codes))
"""


def test_cli_runs_without_jsonschema(tmp_path):
    src = str(Path(bintruth.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_JSONSCHEMA, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"fraction_perfect"' in proc.stdout


def test_every_command_reads_and_writes_utf8_whatever_the_locale(
    tmp_path, preset_docs
):
    """Text files are UTF-8 (RFC 8259 section 8.1), not the locale's encoding:
    under an ASCII locale, with a warning for every use of the default
    encoding made an error, each command exits as it would, and a UTF-8
    name reads back whole."""
    src = str(Path(bintruth.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": src,
        "LC_ALL": "C",
        "PYTHONUTF8": "0",
        "PYTHONCOERCECLOCALE": "0",
    }
    binary = write_binary(tmp_path, "listing2")
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("abort\nsortie_\u00e9\n", encoding="utf-8")
    directory = _corpus_dir(tmp_path, preset_docs)
    truth, report = tmp_path / "l2.json", directory / "listing2.report.json"
    for argv in (
        ["extract", binary, "-o", truth, "--noreturn-seeds", seeds],
        ["score", truth, report],
        ["diff", truth, truth],
        ["corpus", directory, "--jobs", "2"],
        ["fixtures", "-o", tmp_path / "fx", "--preset", "listing2"],
    ):
        proc = subprocess.run(
            [
                sys.executable, "-X", "warn_default_encoding",
                "-W", "error::EncodingWarning", "-m", "bintruth.cli", *map(str, argv),
            ],
            capture_output=True,
            encoding="utf-8",
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, (argv[0], proc.stderr)
    config = json.loads(truth.read_text(encoding="utf-8"))["meta"]["config"]
    assert config["noreturn_seeds"] == ["abort", "sortie_\u00e9"]


# --- one command's parser -------------------------------------------------------

# Positional arguments that satisfy each command's parser.
_POSITIONALS = {
    "extract": ["a.bin"],
    "score": ["t.json", "r.json"],
    "diff": ["a.json", "b.json"],
    "corpus": ["dir"],
    "fixtures": ["-o", "dir"],
}
# An option value each command's parser refuses: a bad choice, or for
# extract, which has no choice, a bad number.
_BAD_VALUES = {
    "extract": ["--start-mismatch-tolerance", "-1"],
    "score": ["--policy", "vibes"],
    "diff": ["--format", "xml"],
    "corpus": ["--policy", "vibes"],
    "fixtures": ["--preset", "vibes"],
}
_PARSER_CASES = [
    *[[command, "--help"] for command in cli._COMMANDS],
    *[[command, *_POSITIONALS[command], "--bogus"] for command in cli._COMMANDS],
    *[[command] for command in cli._COMMANDS],
    *[[command, *_POSITIONALS[command], *_BAD_VALUES[command]] for command in cli._COMMANDS],
    [],
    ["--help"],
    ["bogus"],
    ["--version"],
]


def _exit_and_text(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, *capsys.readouterr()


@pytest.mark.parametrize("argv", _PARSER_CASES, ids=" ".join)
def test_each_invocation_prints_what_the_full_parser_prints(capsys, argv):
    """A command's own parser gives the help, usage and error text and the
    exit code of the parser of all five: the top-level usage an
    unrecognized argument prints still names every command."""
    full = _exit_and_text(capsys, cli._build_parser().parse_args, argv)
    assert _exit_and_text(capsys, main, argv) == full
    assert full[0] == (0 if "--help" in argv or "--version" in argv else 1)
    if "--bogus" in argv or not argv or argv == ["bogus"]:
        assert "{extract,score,diff,corpus,fixtures}" in full[2]


def test_a_command_registers_only_its_own_parser():
    (sub,) = [a for a in cli._build_parser("score")._actions if a.dest == "command"]
    assert list(sub.choices) == ["score"]
    (sub,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    assert list(sub.choices) == list(cli._COMMANDS)


# Runs one command in a fresh interpreter, then names the deferred modules it imported.
_IMPORTS = """
import sys
from bintruth import cli

code = cli.main(sys.argv[1:])
deferred = ("bintruth.forge", "multiprocessing")
print("imported:", *[name for name in deferred if name in sys.modules])
sys.exit(code)
"""


def _fresh_run(*argv):
    """(exit code, stdout lines, the deferred modules imported) of one
    command run in a fresh interpreter."""
    src = str(Path(bintruth.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS, *map(str, argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    lines = proc.stdout.splitlines()
    assert lines[-1].startswith("imported:"), proc.stderr
    return proc.returncode, lines[:-1], lines[-1].split()[1:]


def test_a_cold_process_imports_only_what_its_command_runs(tmp_path, preset_docs):
    binary = write_binary(tmp_path, "listing2")
    directory = _corpus_dir(tmp_path, preset_docs, ("listing1", "listing2", "scaffold"))
    truth, report = directory / "listing2.truth.json", directory / "listing2.report.json"
    for argv in (
        ["extract", binary],
        ["score", truth, report],
        ["diff", truth, truth],
        ["corpus", directory, "--jobs", "1"],
    ):
        code, _out, imported = _fresh_run(*argv)
        assert (code, imported) == (0, []), argv
    _code, serial, _imported = _fresh_run("corpus", directory)
    code, parallel, imported = _fresh_run("corpus", directory, "--jobs", "2")
    assert (code, parallel, imported) == (0, serial, ["multiprocessing"])
    size = len(forge.emit(forge.preset("listing1")))
    code, out, imported = _fresh_run("fixtures", "-o", tmp_path / "fx", "--preset", "listing1")
    assert (code, out, imported) == (0, [f"wrote listing1.bin ({size} bytes)"], ["bintruth.forge"])


# --- extract ----------------------------------------------------------------


def test_extract_writes_to_stdout(tmp_path, capsys):
    binary = write_binary(tmp_path, "listing1")
    code, out, _err = run(capsys, "extract", str(binary))
    assert code == 0
    doc = interchange.document_from_json(out)
    assert doc.complete is True
    assert [fn.canonical_name for fn in doc.functions] == ["fix_syms"]
    assert doc.functions[0].entry_points == (0x080B41C0, 0x080B41C8)


def test_extract_writes_to_a_file(tmp_path, capsys):
    binary = write_binary(tmp_path, "listing1")
    out_path = tmp_path / "truth.json"
    code, out, _err = run(capsys, "extract", str(binary), "-o", str(out_path))
    assert code == 0
    assert out == ""
    assert interchange.document_from_json(out_path.read_text()).complete


def test_extract_no_merge_keeps_the_continuation(tmp_path, capsys):
    binary = write_binary(tmp_path, "listing1")
    code, out, _err = run(capsys, "extract", "--no-merge-multi-entry", str(binary))
    assert code == 0
    doc = interchange.document_from_json(out)
    assert [fn.canonical_name for fn in doc.functions] == ["fix_syms", "fix_syms."]


def test_extract_reads_call_edges_and_noreturn_seeds(tmp_path, capsys):
    binary = write_binary(tmp_path, "listing2")
    edges = tmp_path / "edges.txt"
    edges.write_text("0x08055000 0x08058fa0\n")
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("operand\n")
    code, out, _err = run(
        capsys, "extract", str(binary),
        "--call-edges", str(edges), "--noreturn-seeds", str(seeds),
    )
    assert code == 0
    payload = json.loads(out)
    flags = {fn["name"]: fn["flags"] for fn in payload["functions"]}
    # The one called function is the seed; every other one is uncalled.
    assert flags.pop("operand") == ["noreturn"]
    assert len(flags) == 8
    assert all("uncalled" in f and "noreturn" not in f for f in flags.values())
    assert payload["meta"]["config"]["call_edges"] == [["0x8055000", "0x8058fa0"]]
    assert payload["meta"]["config"]["noreturn_seeds"] == ["operand"]


def test_extract_many_binaries_into_a_directory(tmp_path, capsys):
    first = write_binary(tmp_path, "listing1")
    second = write_binary(tmp_path, "listing2")
    out_dir = tmp_path / "truths"
    out_dir.mkdir()
    code, _out, _err = run(
        capsys, "extract", str(first), str(second), "-o", str(out_dir)
    )
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "listing1.truth.json",
        "listing2.truth.json",
    ]


def test_extract_many_binaries_need_a_directory(tmp_path, capsys):
    first = write_binary(tmp_path, "listing1")
    second = write_binary(tmp_path, "listing2")
    code, _out, err = run(capsys, "extract", str(first), str(second))
    assert code == 1
    assert "directory" in err


def test_extract_refuses_binaries_that_share_an_output_name(tmp_path, capsys):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
    first = write_binary(tmp_path / "a", "listing1")
    second = tmp_path / "b" / "listing1.bin"
    second.write_bytes(forge.emit(forge.preset("listing2")))
    out_dir = tmp_path / "truths"
    out_dir.mkdir()
    code, _out, err = run(
        capsys, "extract", str(first), str(second), "-o", str(out_dir)
    )
    assert code == 1
    assert "listing1.truth.json" in err
    assert list(out_dir.iterdir()) == []


def test_extract_incomplete_binary_exits_3_but_still_writes(tmp_path, capsys):
    binary = write_binary(tmp_path, "stripped")
    out_path = tmp_path / "truth.json"
    code, _out, err = run(capsys, "extract", str(binary), "-o", str(out_path))
    assert code == 3
    assert "incomplete" in err
    doc = interchange.document_from_json(out_path.read_text())
    assert doc.complete is False
    assert doc.functions == ()


def test_extract_missing_file_is_an_input_error(tmp_path, capsys):
    code, _out, err = run(capsys, "extract", str(tmp_path / "nope.bin"))
    assert code == 2
    assert "extract" in err


def test_extract_garbage_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "garbage.bin"
    path.write_bytes(b"not an object file, not even close")
    code, _out, _err = run(capsys, "extract", str(path))
    assert code == 2


def test_extract_relocatable_object_is_an_input_error(tmp_path, capsys):
    spec = forge.BinarySpec(
        sections=(
            forge.SectionSpec(".text", 0x401000, executable=True),
            forge.SectionSpec(".data", 0x402000, content=b"\xaa" * 8, writable=True),
        ),
        functions=(forge.FunctionSpec("main", 0, b"\x89\xc8\xc3"),),
        word_size=64,
    )
    data = bytearray(forge.emit(spec))
    (shoff,) = struct.unpack_from("<Q", data, 40)
    (entsize,) = struct.unpack_from("<H", data, 58)
    for i, section in enumerate(elf.parse_image(bytes(data)).sections):
        if section.allocated:  # sh_addr := 0, as in a .o file
            struct.pack_into("<Q", data, shoff + i * entsize + 16, 0)
    struct.pack_into("<H", data, 16, elf.ET_REL)
    path = tmp_path / "main.o"
    path.write_bytes(bytes(data))
    code, out, err = run(capsys, "extract", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("bintruth extract: relocatable object: ")


def test_extract_negative_tolerance_is_a_usage_error(tmp_path, capsys):
    binary = write_binary(tmp_path, "listing1")
    with pytest.raises(SystemExit) as exc:
        main(["extract", str(binary), "--start-mismatch-tolerance", "-1"])
    assert exc.value.code == 1
    assert "non-negative" in capsys.readouterr().err


def test_extract_negative_call_edge_is_an_input_error(tmp_path, capsys):
    binary = write_binary(tmp_path, "listing1")
    edges = tmp_path / "edges.txt"
    edges.write_text("-5 16\n")
    code, out, err = run(capsys, "extract", str(binary), "--call-edges", str(edges))
    assert code == 2
    assert out == ""
    assert "line 1: addresses cannot be negative" in err


# --- score -------------------------------------------------------------------


def test_score_perfect_report_json(tmp_path, capsys, preset_docs):
    doc = preset_docs["listing2"]
    truth = write_truth(tmp_path, doc, "l2")
    report = write_report(tmp_path, doc, "l2")
    code, out, _err = run(capsys, "score", str(truth), str(report))
    assert code == 0
    payload = json.loads(out)
    assert payload["metrics"]["f1"]["exact"] == "1"
    assert payload["counts"]["true_positives"] == 9


def test_score_table_format(tmp_path, capsys, preset_docs):
    doc = preset_docs["listing1"]
    truth = write_truth(tmp_path, doc, "l1")
    report = write_report(tmp_path, doc, "l1")
    code, out, _err = run(
        capsys, "score", str(truth), str(report), "--format", "table"
    )
    assert code == 0
    assert "true positives   1" in out
    assert "f1               1 (1.0000)" in out


def test_score_policy_changes_the_verdict(tmp_path, capsys, preset_docs):
    doc = preset_docs["padding-icc-vs-gcc"]
    truth = write_truth(tmp_path, doc, "pad")
    raw_sizes = tuple(
        (fn.start, fn.end_exclusive_raw - fn.start) for fn in doc.functions
    )
    report = write_report(tmp_path, doc, "pad", raw_sizes)
    code, out, _err = run(capsys, "score", str(truth), str(report))
    assert code == 0
    assert json.loads(out)["counts"]["true_positives"] == 2
    code, out, _err = run(
        capsys, "score", str(truth), str(report), "--policy", "strict"
    )
    assert code == 0
    payload = json.loads(out)
    # One function has trailing padding inside its raw span; under the strict
    # preset its raw-size prediction no longer matches.
    assert payload["counts"]["true_positives"] == 1
    assert payload["counts"]["false_positives"] == 1


def test_score_boundary_rule_override(tmp_path, capsys, preset_docs):
    doc = preset_docs["listing1"]
    truth = write_truth(tmp_path, doc, "l1")
    report = write_report(tmp_path, doc, "l1", ((doc.functions[0].start, 4),))
    code, out, _err = run(
        capsys,
        "score",
        str(truth),
        str(report),
        "--boundary-rule",
        "legacy_lenient",
        "--format",
        "table",
    )
    assert code == 0
    assert "true positives   1" in out
    assert "LEGACY_LENIENT_POLICY" in out


def test_score_refuses_incomplete_truth(tmp_path, capsys, preset_docs):
    doc = preset_docs["stripped"]
    truth = write_truth(tmp_path, doc, "s")
    report = write_report(tmp_path, doc, "s", ())
    code, _out, err = run(capsys, "score", str(truth), str(report))
    assert code == 3
    assert err == f"score: {truth}: ground truth is incomplete; refusing to score against it\n"
    code, out, _err = run(
        capsys, "score", str(truth), str(report), "--accept-incomplete"
    )
    assert code == 0
    assert "INCOMPLETE_TRUTH_ACCEPTED" in json.loads(out)["warnings"]


def test_score_ignores_a_missing_size_beside_a_known_one(tmp_path, capsys, preset_docs):
    doc = preset_docs["listing2"]
    truth = write_truth(tmp_path, doc, "l2")
    first = doc.functions[0]
    exact = tuple(
        (fn.start, fn.end_exclusive_trimmed - fn.start) for fn in doc.functions
    )
    report = write_report(tmp_path, doc, "l2", exact + ((first.start, None),))
    code, out, _err = run(
        capsys, "score", str(truth), str(report), "--boundary-rule", "ignore"
    )
    assert code == 0
    counts = json.loads(out)["counts"]
    assert counts["true_positives"] == len(doc.functions)
    assert counts["false_positives"] == 1
    assert counts["false_negatives"] == 0


def test_score_digest_mismatch_is_an_input_error(tmp_path, capsys, preset_docs):
    truth = write_truth(tmp_path, preset_docs["listing1"], "l1")
    other = preset_docs["listing2"]
    report = write_report(tmp_path, other, "l1", ())
    code, _out, err = run(capsys, "score", str(truth), str(report))
    assert code == 2
    assert "digest" in err.lower()


def test_score_non_utf8_truth_is_an_input_error(tmp_path, capsys, preset_docs):
    truth = tmp_path / "listing1.truth.json"
    truth.write_bytes(b"\xff\xfe{}")
    report = write_report(tmp_path, preset_docs["listing1"], "listing1")
    code, _out, err = run(capsys, "score", str(truth), str(report))
    assert code == 2
    assert "utf-8" in err


def _damage_first_start(path):
    """Upper-case functions[0].start of the file; return the schema message."""
    payload = json.loads(path.read_text())
    start = payload["functions"][0]["start"].upper()
    payload["functions"][0]["start"] = start
    path.write_text(json.dumps(payload))
    return f"$.functions[0].start: {start!r} does not match '^0x[0-9a-f]+$'"


@pytest.mark.parametrize("damaged", ["truth", "report"])
def test_score_names_the_file_it_cannot_load(tmp_path, capsys, preset_docs, damaged):
    doc = preset_docs["listing1"]
    paths = {
        "truth": write_truth(tmp_path, doc, "l1"),
        "report": write_report(tmp_path, doc, "l1"),
    }
    message = _damage_first_start(paths[damaged])
    code, out, err = run(capsys, "score", str(paths["truth"]), str(paths["report"]))
    assert code == 2
    assert out == ""
    assert err == f"bintruth score: {paths[damaged]}: {message}\n"


@pytest.mark.parametrize("command", ["score", "corpus"])
def test_a_report_may_not_carry_byte_classes(tmp_path, capsys, preset_docs, command):
    doc = preset_docs["listing1"]
    truth = write_truth(tmp_path, doc, "l1")
    report = write_report(tmp_path, doc, "l1")
    payload = json.loads(report.read_text())
    byte_run = {"start": "0x1000", "length": 16, "class": "code", "confidence": "certain"}
    payload["byte_classes"] = [byte_run]
    report.write_text(json.dumps(payload))
    argv = [str(tmp_path)] if command == "corpus" else [str(truth), str(report)]
    code, out, err = run(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert err == f"bintruth {command}: {report}: $: unexpected key 'byte_classes'\n"


def test_score_names_a_report_that_is_not_utf8(tmp_path, capsys, preset_docs):
    truth = write_truth(tmp_path, preset_docs["listing1"], "l1")
    report = tmp_path / "l1.report.json"
    report.write_bytes(b"\xff\xfe{}")
    code, _out, err = run(capsys, "score", str(truth), str(report))
    assert code == 2
    assert err.startswith(f"bintruth score: {report}: 'utf-8' codec can't decode")


@pytest.mark.parametrize(
    ("command", "huge_side"), [("score", 0), ("score", 1), ("diff", 1)]
)
def test_a_json_integer_too_long_to_convert_exits_2(
    tmp_path, capsys, preset_docs, command, huge_side
):
    doc = preset_docs["listing1"]
    paths = [write_truth(tmp_path, doc, "l1"), write_report(tmp_path, doc, "l1")]
    if command == "diff":
        paths[1] = write_truth(tmp_path, doc, "other")
    huge = paths[huge_side]
    huge.write_text('{"schema_version": ' + "1" * 5_000 + "}")
    code, out, err = run(capsys, command, *map(str, paths))
    assert code == 2
    assert out == ""
    assert err.startswith(f"bintruth {command}: {huge}: not valid JSON: ")


# --- diff ----------------------------------------------------------------------


def test_diff_names_the_file_it_cannot_load(tmp_path, capsys, preset_docs):
    doc = preset_docs["listing1"]
    left = write_truth(tmp_path, doc, "a")
    right = write_truth(tmp_path, doc, "b")
    message = _damage_first_start(right)
    code, out, err = run(capsys, "diff", str(left), str(right))
    assert code == 2
    assert out == ""
    assert err == f"bintruth diff: {right}: {message}\n"


def test_diff_identical_documents(tmp_path, capsys, preset_docs):
    doc = preset_docs["listing1"]
    left = write_truth(tmp_path, doc, "a")
    right = write_truth(tmp_path, doc, "b")
    code, out, _err = run(capsys, "diff", str(left), str(right))
    assert code == 0
    assert "identical" in out


def test_diff_reports_what_changed(tmp_path, capsys, preset_bytes):
    from bintruth.normalize import RunConfig

    _image, merged = corpuscheck.build_document(preset_bytes["listing1"])
    _image, split = corpuscheck.build_document(
        preset_bytes["listing1"], RunConfig(merge_multi_entry=False)
    )
    left = write_truth(tmp_path, merged, "a")
    right = write_truth(tmp_path, split, "b")
    code, out, _err = run(capsys, "diff", str(left), str(right))
    assert code == 4
    assert "fix_syms." in out
    code, out, _err = run(
        capsys, "diff", str(left), str(right), "--format", "json"
    )
    assert code == 4
    payload = json.loads(out)
    assert payload["identical"] is False
    assert payload["functions"]["added"][0]["name"] == "fix_syms."
    assert payload["functions"]["changed"][0]["fields"] == [
        "entries",
        "end_raw",
        "end_trimmed",
        "aliases",
        "flags",
    ]


def test_diff_compares_every_function_field_in_schema_order():
    keys = [key for key, _attr in cli._FUNCTION_FIELDS]
    assert keys == [k for k in interchange._FUNCTION["properties"] if k != "start"]
    attrs = {attr for _key, attr in cli._FUNCTION_FIELDS}
    assert attrs == {f.name for f in dataclasses.fields(GroundTruthFunction)}


def test_diff_names_a_machine_change(tmp_path, capsys):
    def doc_for(machine_code):
        spec = forge.BinarySpec(
            sections=(forge.SectionSpec(".text", 0x401000, executable=True),),
            functions=(forge.FunctionSpec("f", 0, b"\x89\xc8\xc3"),),
            machine_code=machine_code,
        )
        return corpuscheck.build_document(forge.emit(spec))[1]

    left = write_truth(tmp_path, doc_for(40), "a")
    right = write_truth(tmp_path, doc_for(183), "b")
    code, out, _err = run(capsys, "diff", str(left), str(right))
    assert code == 4
    assert out == "binary.digest differs\nbinary.machine differs\n"


# --- corpus ---------------------------------------------------------------------


def _corpus_dir(tmp_path, preset_docs, stems=("listing1", "listing2")):
    directory = tmp_path / "corpus"
    directory.mkdir()
    for stem in stems:
        doc = preset_docs[stem]
        write_truth(directory, doc, stem)
        write_report(directory, doc, stem)
    return directory


def test_corpus_aggregates_pairs(tmp_path, capsys, preset_docs):
    directory = _corpus_dir(tmp_path, preset_docs)
    code, out, _err = run(capsys, "corpus", str(directory))
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["fraction_perfect"]["exact"] == "1"


def test_corpus_threshold_and_table(tmp_path, capsys, preset_docs):
    directory = _corpus_dir(tmp_path, preset_docs)
    code, out, _err = run(
        capsys,
        "corpus",
        str(directory),
        "--threshold",
        "0.96",
        "--format",
        "table",
    )
    assert code == 0
    assert "binaries        2" in out
    assert "f1 < 0.96" in out


def test_corpus_parallel_matches_serial(tmp_path, capsys, preset_docs):
    directory = _corpus_dir(tmp_path, preset_docs)
    _code, serial, _err = run(capsys, "corpus", str(directory))
    code, parallel, _err = run(capsys, "corpus", str(directory), "--jobs", "2")
    assert code == 0
    assert parallel == serial


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["corpus", str(tmp_path), "--jobs", jobs])
    assert exc.value.code == 1
    assert "--jobs" in capsys.readouterr().err


# A complete preset for each of seven pairs; every message fits a pipe's buffer.
_SEVEN = ("listing1", "listing2", "scaffold", "padding-icc-vs-gcc", "highpc-twins") * 2


class _InlineProcess:
    """Stands in for ``multiprocessing.Process``, which the CLI looks up each
    time ``corpus`` starts a child: records each start and runs the target
    there, so no process starts but each message still crosses a real pipe."""

    started: list = []
    exitcode = 0

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        self.started.append(self.args)
        self.target(*self.args)

    def join(self):
        pass


@pytest.fixture
def inline_process(monkeypatch):
    monkeypatch.setattr(_InlineProcess, "started", [])
    monkeypatch.setattr(multiprocessing, "Process", _InlineProcess)
    return _InlineProcess


@pytest.fixture
def fork_start():
    """Start children by fork, so what a test patches in this process holds in them."""
    method = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("fork", force=True)
    yield
    multiprocessing.set_start_method(method, force=True)


@pytest.mark.parametrize(
    ("pairs", "jobs", "shares"),
    [(7, "1", [7]), (1, "8", [1]), (2, "8", [1, 1]), (7, "3", [2, 2, 3])],
    ids=["7-pairs-jobs1", "1-pair-jobs8", "2-pairs-jobs8", "7-pairs-jobs3"],
)
def test_corpus_splits_the_pairs_into_shares(
    tmp_path, capsys, preset_docs, monkeypatch, inline_process, pairs, jobs, shares
):
    directory = tmp_path / "corpus"
    directory.mkdir()
    for i, name in enumerate(_SEVEN[:pairs]):
        write_truth(directory, preset_docs[name], f"{i}-{name}")
        write_report(directory, preset_docs[name], f"{i}-{name}")
    _code, serial, _err = run(capsys, "corpus", str(directory))
    scored = []
    score_pair = cli._score_pair

    def recording_score_pair(truth, report, policy):
        scored.append((truth, report))
        return score_pair(truth, report, policy)

    monkeypatch.setattr(cli, "_score_pair", recording_score_pair)
    code, out, _err = run(capsys, "corpus", str(directory), "--jobs", jobs)
    assert code == 0
    assert out == serial
    # Each child scores its share as it starts (inline here), and this
    # process scores the first share last.
    children = [share for _sender, share, _policy in inline_process.started]
    own = scored[sum(map(len, children)) :]
    assert [len(share) for share in [own, *children]] == shares
    truths = sorted(str(t) for t in directory.glob("*.truth.json"))
    assert [truth for share in [own, *children] for truth, _report in share] == truths


def _damage_keeping_size(path):
    """Upper-case the first hex digit prefix in the file, keeping its size."""
    path.write_text(path.read_text().replace('"0x', '"0X', 1))


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
def test_corpus_names_the_first_failure_in_any_share(tmp_path, capsys, preset_docs, jobs):
    stems = ("listing1", "listing2", "padding-icc-vs-gcc", "scaffold")
    directory = _corpus_dir(tmp_path, preset_docs, stems)
    truths = sorted(directory.glob("*.truth.json"))
    # Shares: one at --jobs 1; [0, 1] [2, 3] at 2, so pair 1 fails in this
    # process while pair 3 fails in a child; [0] [1] [2, 3] at 3, so each
    # fails in its own child.
    for truth in (truths[1], truths[3]):
        _damage_keeping_size(truth)
    code, out, err = run(capsys, "corpus", str(directory), "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err.startswith(f"bintruth corpus: {truths[1]}: ")
    assert multiprocessing.active_children() == []


def _divide_by_zero(truth, report, policy):
    return 1 // 0


def test_a_bug_in_a_child_keeps_the_child_traceback(
    tmp_path, preset_docs, monkeypatch, inline_process
):
    directory = _corpus_dir(tmp_path, preset_docs, ("listing1", "listing2"))
    score_pair = cli._score_pair

    def fail_in_the_second_share(truth, report, policy):
        if truth.endswith("listing2.truth.json"):
            return _divide_by_zero(truth, report, policy)
        return score_pair(truth, report, policy)

    monkeypatch.setattr(cli, "_score_pair", fail_in_the_second_share)
    with pytest.raises(ZeroDivisionError) as caught:
        main(["corpus", str(directory), "--jobs", "2"])
    assert len(inline_process.started) == 1
    cause = caught.value.__cause__
    assert isinstance(cause, cli._ChildTraceback)
    assert 'in _divide_by_zero\n    return 1 // 0\n' in str(cause)


def test_corpus_reads_a_large_message_after_failing_in_its_own_share(
    tmp_path, preset_docs
):
    directory = tmp_path / "corpus"
    directory.mkdir()
    # This process's pair, the first: damaged.
    damaged = write_truth(directory, preset_docs["scaffold"], "a")
    write_report(directory, preset_docs["scaffold"], "a")
    _damage_keeping_size(damaged)
    # The child's pair: 3,000 spurious predictions, each with a mismatch.
    doc = preset_docs["listing1"]
    spurious = tuple((0x900000 + 16 * i, 16) for i in range(3000))
    truth = write_truth(directory, doc, "b")
    write_report(directory, doc, "b", spurious)
    result = cli._score_pair(str(truth), str(directory / "b.report.json"), scoring.MatchPolicy())
    assert len(pickle.dumps(([result], None, None))) > 1 << 16
    src = str(Path(bintruth.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "bintruth.cli", "corpus", str(directory), "--jobs", "2"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"bintruth corpus: {damaged}: ")


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
def test_corpus_names_the_incomplete_truth_file(tmp_path, capsys, preset_docs, jobs):
    # The incomplete truth is the second pair, so a child's share at --jobs 2 or 3.
    directory = _corpus_dir(tmp_path, preset_docs, ("listing1", "stripped"))
    truth = directory / "stripped.truth.json"
    code, out, err = run(capsys, "corpus", str(directory), "--jobs", jobs)
    assert code == 3
    assert out == ""
    assert err == f"corpus: {truth}: ground truth is incomplete; refusing to score against it\n"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
def test_corpus_names_the_file_it_cannot_load(tmp_path, capsys, preset_docs, jobs):
    directory = _corpus_dir(tmp_path, preset_docs, ("listing1", "listing2", "scaffold"))
    truth = directory / "listing2.truth.json"
    message = _damage_first_start(truth)
    code, out, err = run(capsys, "corpus", str(directory), "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err == f"bintruth corpus: {truth}: {message}\n"


def _exit_without_sending(_sender, _share, _policy):
    os._exit(7)


def test_a_child_that_sends_nothing_is_a_bug_not_invalid_input(
    tmp_path, preset_docs, monkeypatch, fork_start
):
    directory = _corpus_dir(tmp_path, preset_docs, ("listing1", "listing2", "scaffold"))
    monkeypatch.setattr(cli, "_send_share", _exit_without_sending)
    # This process scores listing1; the child's share starts with listing2.
    first = directory / "listing2.truth.json"
    message = f"scoring {re.escape(str(first))} .* code 7 .* 'fork' start method .* --jobs 1 "
    with pytest.raises(RuntimeError, match=message):
        main(["corpus", str(directory), "--jobs", "2"])
    assert multiprocessing.active_children() == []


def test_corpus_under_spawn_matches_serial(tmp_path, capsys, preset_docs):
    directory = _corpus_dir(tmp_path, preset_docs, ("listing1", "listing2", "scaffold"))
    _code, serial, _err = run(capsys, "corpus", str(directory))
    method = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        code, parallel, _err = run(capsys, "corpus", str(directory), "--jobs", "3")
    finally:
        multiprocessing.set_start_method(method, force=True)
    assert code == 0
    assert parallel == serial


@pytest.mark.parametrize("what", ["missing", "file", "empty"])
def test_corpus_names_a_directory_without_pairs(tmp_path, capsys, what):
    directory = tmp_path / "corpus"
    if what == "file":
        directory.write_text("{}")
    elif what == "empty":
        directory.mkdir()
        (directory / "a.report.json").write_text("{}")
    code, out, err = run(capsys, "corpus", str(directory), "--jobs", "2")
    assert code == 2
    assert out == ""
    assert err.startswith(f"corpus: {directory}: ")


def test_corpus_missing_report_is_an_input_error(tmp_path, capsys, preset_docs):
    directory = _corpus_dir(tmp_path, preset_docs)
    (directory / "listing2.report.json").unlink()
    code, _out, err = run(capsys, "corpus", str(directory))
    assert code == 2
    assert "no report" in err


# --- fixtures --------------------------------------------------------------------


def test_fixtures_writes_all_presets(tmp_path, capsys):
    out_dir = tmp_path / "fixtures"
    code, out, _err = run(capsys, "fixtures", "-o", str(out_dir))
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == sorted(f"{n}.bin" for n in forge.PRESETS)
    assert "wrote listing1.bin" in out


def test_fixtures_single_preset(tmp_path, capsys):
    out_dir = tmp_path / "one"
    code, _out, _err = run(
        capsys, "fixtures", "-o", str(out_dir), "--preset", "scaffold"
    )
    assert code == 0
    assert [p.name for p in out_dir.iterdir()] == ["scaffold.bin"]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_fixtures_count_below_one_is_a_usage_error(tmp_path, capsys, count):
    out_dir = tmp_path / "corpus"
    with pytest.raises(SystemExit) as exc:
        main(["fixtures", "-o", str(out_dir), "--seed", "3", "--count", count])
    assert exc.value.code == 1
    assert "--count" in capsys.readouterr().err
    assert not out_dir.exists()


def test_fixtures_randomized_corpus(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, _out, _err = run(
        capsys, "fixtures", "-o", str(out_dir), "--seed", "3", "--count", "4"
    )
    assert code == 0
    written = list(out_dir.iterdir())
    assert len(written) == 4
    for path in written:
        assert path.read_bytes()[:4] == b"\x7fELF"


def test_fixtures_unknown_preset_is_an_input_error(tmp_path, capsys):
    """A preset name is an option value: argparse refuses it as a usage
    error, before the output directory is made."""
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["fixtures", "-o", str(out_dir), "--preset", "mystery"])
    assert exc.value.code == 1
    assert "argument --preset: invalid choice: 'mystery'" in capsys.readouterr().err
    assert not out_dir.exists()


# --- the text form of every writer ---------------------------------------------


def test_every_json_writer_prints_the_published_text(
    tmp_path, capsys, preset_bytes, preset_docs
):
    from bintruth.normalize import RunConfig

    outputs = {}
    fixtures = forge.generate_corpus(seed=3, count=4)
    binaries = [tmp_path / f"{fixture.name}.bin" for fixture in fixtures]
    for path, fixture in zip(binaries, fixtures):
        path.write_bytes(fixture.data)
    _code, outputs["extract"], _err = run(capsys, "extract", str(binaries[0]))
    (tmp_path / "truth").mkdir()
    run(capsys, "extract", *map(str, binaries), "-o", str(tmp_path / "truth"))
    for truth in sorted((tmp_path / "truth").iterdir()):
        outputs[f"extract -o {truth.name}"] = truth.read_text()

    # A wrong boundary gives non-trivial ratios and a mismatch list.
    doc = preset_docs["listing2"]
    preds = [(fn.start, fn.end_exclusive_trimmed - fn.start) for fn in doc.functions]
    preds[0] = (preds[0][0], preds[0][1] + 1)
    directory = _corpus_dir(tmp_path, preset_docs)
    write_report(directory, doc, "listing2", preds)
    truth = directory / "listing2.truth.json"
    report = directory / "listing2.report.json"
    _code, outputs["score"], _err = run(
        capsys, "score", str(truth), str(report), "--format", "json"
    )
    _code, outputs["corpus"], _err = run(
        capsys, "corpus", str(directory), "--threshold", "0.96"
    )

    merged = write_truth(tmp_path, preset_docs["listing1"], "a")
    _image, split_doc = corpuscheck.build_document(
        preset_bytes["listing1"], RunConfig(merge_multi_entry=False)
    )
    split = write_truth(tmp_path, split_doc, "b")
    _code, outputs["diff"], _err = run(
        capsys, "diff", str(merged), str(split), "--format", "json"
    )

    assert len(outputs) == 4 + len(fixtures)
    for writer, text in outputs.items():
        assert text == oracles.reference_dump(json.loads(text)), writer
