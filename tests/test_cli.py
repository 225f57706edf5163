import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import bintruth
import oracles
from bintruth import byteclass, cli, elf, forge, interchange
from bintruth.cli import main
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


def test_score_names_a_report_that_is_not_utf8(tmp_path, capsys, preset_docs):
    truth = write_truth(tmp_path, preset_docs["listing1"], "l1")
    report = tmp_path / "l1.report.json"
    report.write_bytes(b"\xff\xfe{}")
    code, _out, err = run(capsys, "score", str(truth), str(report))
    assert code == 2
    assert err.startswith(f"bintruth score: {report}: 'utf-8' codec can't decode")


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


def test_diff_reports_what_changed(tmp_path, capsys, preset_bytes, build_doc):
    from bintruth.normalize import RunConfig

    merged = build_doc(preset_bytes["listing1"])
    split = build_doc(preset_bytes["listing1"], RunConfig(merge_multi_entry=False))
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


def test_diff_names_a_machine_change(tmp_path, capsys, build_doc):
    def doc_for(machine_code):
        spec = forge.BinarySpec(
            sections=(forge.SectionSpec(".text", 0x401000, executable=True),),
            functions=(forge.FunctionSpec("f", 0, b"\x89\xc8\xc3"),),
            machine_code=machine_code,
        )
        return build_doc(forge.emit(spec))

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


@pytest.mark.parametrize(
    ("stems", "started"), [(("listing1",), []), (("listing1", "listing2"), [2])]
)
def test_corpus_starts_no_more_workers_than_pairs(
    tmp_path, capsys, preset_docs, monkeypatch, stems, started
):
    pools = []

    class InlinePool:  # records the pool size, starts no process
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *_exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    directory = _corpus_dir(tmp_path, preset_docs, stems)
    code, out, _err = run(capsys, "corpus", str(directory), "--jobs", "8")
    assert code == 0
    assert json.loads(out)["n"] == len(stems)
    assert pools == started


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_corpus_names_the_incomplete_truth_file(tmp_path, capsys, preset_docs, jobs):
    directory = _corpus_dir(tmp_path, preset_docs, ("listing1", "stripped"))
    code, out, err = run(capsys, "corpus", str(directory), "--jobs", jobs)
    assert code == 3
    assert out == ""
    truth = directory / "stripped.truth.json"
    assert err == f"corpus: {truth}: ground truth is incomplete; refusing to score against it\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_corpus_names_the_file_it_cannot_load(tmp_path, capsys, preset_docs, jobs):
    directory = _corpus_dir(tmp_path, preset_docs, ("listing1", "listing2", "scaffold"))
    truth = directory / "listing2.truth.json"
    message = _damage_first_start(truth)
    code, out, err = run(capsys, "corpus", str(directory), "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err == f"bintruth corpus: {truth}: {message}\n"


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
    code, _out, err = run(
        capsys, "fixtures", "-o", str(tmp_path), "--preset", "mystery"
    )
    assert code == 2
    assert "mystery" in err


# --- the text form of every writer ---------------------------------------------


def test_every_json_writer_prints_the_published_text(
    tmp_path, capsys, preset_bytes, preset_docs, build_doc
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

    merged = write_truth(tmp_path, build_doc(preset_bytes["listing1"]), "a")
    split = write_truth(
        tmp_path,
        build_doc(preset_bytes["listing1"], RunConfig(merge_multi_entry=False)),
        "b",
    )
    _code, outputs["diff"], _err = run(
        capsys, "diff", str(merged), str(split), "--format", "json"
    )

    assert len(outputs) == 4 + len(fixtures)
    for writer, text in outputs.items():
        assert text == oracles.reference_dump(json.loads(text)), writer
