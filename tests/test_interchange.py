import gc
import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpuscheck
import oracles
from bintruth import forge, interchange
from bintruth.byteclass import CLASSES, CONFIDENCES, ByteClassMap, ByteRun
from bintruth.interchange import (
    GENERATOR,
    SCHEMA_VERSION,
    SchemaError,
    _REFUSED,
    _check,
    _explain,
    _generate,
    corpus_to_json,
    document_from_json,
    document_to_json,
    dump_json,
    report_from_json,
    report_to_json,
    score_to_json,
)
from bintruth.model import DIAGNOSTIC_CODES, MACHINE_NAMES, SEVERITIES, Diagnostic
from bintruth.normalize import (
    FUNCTION_FLAGS,
    PROVENANCE_KINDS,
    BinarySummary,
    GroundTruthDocument,
    GroundTruthFunction,
    RunConfig,
)
from bintruth.scoring import (
    MatchPolicy,
    Mismatch,
    ScoreResult,
    ToolReport,
    corpus_aggregate,
    score_functions,
)

DIGEST = b"\x11" * 32


# --- ground-truth documents ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(forge.PRESETS))
def test_documents_round_trip(name, preset_docs):
    doc = preset_docs[name]
    assert document_from_json(document_to_json(doc)) == doc


def test_document_dump_is_deterministic(preset_docs):
    doc = preset_docs["listing2"]
    first = document_to_json(doc)
    assert first == document_to_json(doc)
    assert first.endswith("\n")
    payload = json.loads(first)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert list(payload) == sorted(payload)


def test_addresses_are_lowercase_hex(preset_docs):
    payload = json.loads(document_to_json(preset_docs["listing1"]))
    fn = payload["functions"][0]
    assert fn["entries"][0] == "0x80b41c0"
    assert fn["start"] == "0x80b41c0"
    assert re.fullmatch(r"0x[0-9a-f]+", fn["end_raw"])


def test_config_is_recorded_in_meta(preset_docs):
    config = RunConfig(merge_multi_entry=False, start_mismatch_tolerance=2)
    payload = json.loads(document_to_json(preset_docs["listing1"], config))
    recorded = payload["meta"]["config"]
    assert recorded["merge_multi_entry"] is False
    assert recorded["start_mismatch_tolerance"] == 2
    assert "abort" in recorded["noreturn_seeds"]
    assert recorded["call_edges"] is None


def test_unusual_machine_codes_survive_the_trip():
    spec = forge.BinarySpec(
        sections=(forge.SectionSpec(".text", 0x401000, executable=True),),
        functions=(forge.FunctionSpec("f", 0, b"\x89\xc8\xc3"),),
        word_size=64,
        machine_code=40,
    )
    _image, doc = corpuscheck.build_document(forge.emit(spec))
    payload = json.loads(document_to_json(doc))
    assert payload["binary"]["machine"] == "other(40)"
    assert document_from_json(document_to_json(doc)) == doc


def test_incomplete_documents_keep_their_flag(preset_docs):
    text = document_to_json(preset_docs["stripped"])
    assert document_from_json(text).complete is False


# --- schema enforcement -------------------------------------------------------


def _mutate(doc_text, edit):
    payload = json.loads(doc_text)
    edit(payload)
    return json.dumps(payload)


def test_schema_rejects_damage(preset_docs):
    text = document_to_json(preset_docs["listing1"])

    def missing(p):
        del p["functions"]

    def extra(p):
        p["puffin"] = 1

    def bad_hex(p):
        p["functions"][0]["entries"][0] = "0X80B41C0"

    def bad_digest(p):
        p["binary"]["digest_hex"] = "nope"

    def bad_version(p):
        p["schema_version"] = 2

    def start_drift(p):
        p["functions"][0]["start"] = "0x999"

    def three_address_edge(p):
        p["meta"]["config"]["call_edges"] = [["0x1", "0x2", "0x3"]]

    def bool_version(p):
        p["schema_version"] = True  # True == 1 in Python, not in JSON

    def bool_length(p):
        p["byte_classes"][0]["length"] = True

    def trimmed_past_raw(p):  # would let a perfect report score below 1
        p["functions"][0]["end_trimmed"] = "0x80b41d1"

    def entry_past_trimmed(p):
        p["functions"][0]["end_trimmed"] = "0x80b41c8"

    def unknown_flag(p):
        p["functions"][0]["flags"] = ["puffin"]

    def unsorted_entries(p):
        fn = p["functions"][0]
        fn["entries"].reverse()
        fn["start"] = fn["entries"][0]

    def unknown_code(p):
        p["diagnostics"][0]["code"] = "GT_PUFFIN"

    # A pattern's $ matches at the very end only, not before a final newline.
    def newline_after_address(p):
        p["functions"][0]["end_raw"] += "\n"

    def newline_after_digest(p):
        p["binary"]["digest_hex"] += "\n"

    def newline_after_code(p):
        p["diagnostics"][0]["code"] += "\n"

    def bad_machine_code(p):
        p["binary"]["machine"] = "other(x)"

    def overlapping_runs(p):
        p["byte_classes"][1]["start"] = "0x80b41bf"

    def unsorted_runs(p):
        p["byte_classes"].reverse()

    def incomplete_without_error(p):
        p["complete"] = False

    def complete_with_exclusion(p):
        p["diagnostics"].append(
            {
                "severity": "error",
                "code": "GT_INCOMPLETE_EXCLUDED",
                "message": "excluded",
                "span": None,
            }
        )

    for edit in (
        missing,
        extra,
        bad_hex,
        bad_digest,
        bad_version,
        start_drift,
        three_address_edge,
        bool_version,
        bool_length,
        trimmed_past_raw,
        entry_past_trimmed,
        unknown_flag,
        unsorted_entries,
        unknown_code,
        newline_after_address,
        newline_after_digest,
        newline_after_code,
        bad_machine_code,
        overlapping_runs,
        unsorted_runs,
        incomplete_without_error,
        complete_with_exclusion,
    ):
        with pytest.raises(SchemaError):
            document_from_json(_mutate(text, edit))


# A fault of each kind that only the checks past the schema find, in the
# order they find them: the machine label, the functions, the diagnostics,
# the byte runs, then the completeness flag. (label, edit, message start)
_SEMANTIC_FAULTS = [
    ("machine", lambda p: p["binary"].update(machine="other(x)"), "unrecognized machine label"),
    ("function", lambda p: p["functions"][-1].update(start="0x999"), "function 'fix_syms': "),
    ("diagnostic", lambda p: p["diagnostics"][-1].update(code="GT_PUFFIN"), "unknown diagnostic"),
    ("byte run", lambda p: p["byte_classes"][-1].update(start="0x0"), "byte run at 0x0 "),
    ("complete", lambda p: p.update(complete=False), "complete must be true"),
]
# Faults the schema finds, from the first key of the document to its last.
_SCHEMA_FAULTS = [
    ("word size", lambda p: p["binary"].update(word_size=True), "$.binary.word_size: "),
    ("last run", lambda p: p["byte_classes"][-1].update(confidence="sure"), "$.byte_classes[1]."),
    ("entry", lambda p: p["functions"][-1]["entries"].append("0X1"), "$.functions[0].entries[2]: "),
    ("version", lambda p: p.update(schema_version=2), "$.schema_version: "),
]


def _refusal(text, *faults) -> str:
    """The message that refuses ``text`` with each fault's edit made."""
    payload = json.loads(text)
    for _label, edit, _message in faults:
        edit(payload)
    with pytest.raises(SchemaError) as exc:
        document_from_json(json.dumps(payload))
    return str(exc.value)


@pytest.mark.parametrize("schema_fault", _SCHEMA_FAULTS, ids=lambda f: f[0])
@pytest.mark.parametrize("semantic_fault", _SEMANTIC_FAULTS, ids=lambda f: f[0])
def test_a_schema_fault_is_named_before_any_semantic_fault(
    preset_docs, schema_fault, semantic_fault
):
    text = document_to_json(preset_docs["listing1"])
    assert _refusal(text, semantic_fault).startswith(semantic_fault[2])
    assert _refusal(text, schema_fault, semantic_fault).startswith(schema_fault[2])


@pytest.mark.parametrize(
    ("first", "second"),
    [(a, b) for i, a in enumerate(_SEMANTIC_FAULTS) for b in _SEMANTIC_FAULTS[i + 1 :]],
    ids=lambda f: f[0],
)
def test_semantic_faults_are_named_in_the_order_they_are_checked(preset_docs, first, second):
    text = document_to_json(preset_docs["listing1"])
    assert _refusal(text, second).startswith(second[2])  # each fault alone is found
    assert _refusal(text, first, second).startswith(first[2])


@pytest.mark.parametrize(
    ("path", "value", "message"),
    [
        (
            ("functions", 0, "entries", 1),
            "0X80B41C8",
            "$.functions[0].entries[1]: '0X80B41C8' does not match '^0x[0-9a-f]+$'",
        ),
        (("binary", "digest_hex"), None, "$.binary: missing 'digest_hex'"),
        (("puffin",), 1, "$: unexpected key 'puffin'"),
        (
            ("byte_classes", 0, "length"),
            True,
            "$.byte_classes[0].length: expected integer, got boolean",
        ),
        (
            ("diagnostics", 0, "span", "start"),
            5,
            "$.diagnostics[0].span.start: expected string, got integer",
        ),
        (
            ("diagnostics", 0, "span"),
            5,
            "$.diagnostics[0].span: expected object or null, got integer",
        ),
        (("functions", 0, "source", "line"), -1, "$.functions[0].source.line: -1 is below 0"),
    ],
)
def test_schema_errors_name_the_json_path(preset_docs, path, value, message):
    def edit(payload):
        *parents, last = path
        for step in parents:
            payload = payload[step]
        if value is None:
            del payload[last]
        else:
            payload[last] = value

    text = _mutate(document_to_json(preset_docs["listing1"]), edit)
    with pytest.raises(SchemaError) as exc:
        document_from_json(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    ("pattern", "value", "message"),
    [
        ("^0x[0-9a-f]+$", "0x10", None),
        ("^0x[0-9a-f]+$", "0x10\n", "$: '0x10\\n' does not match '^0x[0-9a-f]+$'"),
        ("^GT_[A-Z_]+$", "GT_X\n", "$: 'GT_X\\n' does not match '^GT_[A-Z_]+$'"),
        ("^[0-9]+$", "13\n", "$: '13\\n' does not match '^[0-9]+$'"),
        # An escaped $ and a $ in a class are literal dollars, not anchors.
        ("^a\\$$", "a$", None),
        ("^a\\$$", "a$\n", "$: 'a$\\n' does not match '^a\\\\$$'"),
        ("^[$]+$", "$$", None),
        ("^[$]+$", "$$\n", "$: '$$\\n' does not match '^[$]+$'"),
    ],
)
def test_pattern_dollar_matches_only_at_the_end(pattern, value, message):
    schema = {"type": "string", "pattern": pattern}
    if message is None:
        _check(value, schema, "$")
    else:
        with pytest.raises(SchemaError) as exc:
            _check(value, schema, "$")
        assert str(exc.value) == message


def test_addresses_with_leading_zeros_load_as_their_value(preset_docs):
    """The address pattern admits leading zeros, and an address loads as
    the integer its digits spell, wherever it is in the file."""
    text = document_to_json(preset_docs["listing2"])
    padded = re.sub(r'"0x([0-9a-f]+)"', r'"0x00\1"', text)
    assert padded.count('"0x00') >= 10
    assert document_from_json(padded) == document_from_json(text)
    report = report_to_json(ToolReport("t", "1", DIGEST, ((0x10, 4), (0x20, None))))
    padded = report.replace('"0x10"', '"0x0010"').replace('"0x20"', '"0x000020"')
    assert report_from_json(padded) == report_from_json(report)


@pytest.mark.parametrize(
    "spelling",
    ["0x0", "0x00", "0x" + "f" * 5000, "0x000" + "1" * 4997],
    ids=["zero", "zeros", "long", "long-padded"],
)
def test_an_address_loads_as_int_of_its_digits(preset_docs, spelling):
    """Zero, with or without leading zeros, and addresses longer than
    ``int``'s limit on decimal digits, from which base 16 is exempt, load
    as ``int(s, 16)`` in a truth and in a report."""
    value = int(spelling, 16)

    def edit(payload):
        payload["diagnostics"].append(
            {
                "severity": "warning",
                "code": "GT_DISCONTIGUOUS_RANGE",
                "message": "",
                "span": {"start": spelling, "length": 1},
            }
        )

    doc = document_from_json(_mutate(document_to_json(preset_docs["listing2"]), edit))
    assert doc.diagnostics[-1].span == (value, 1)
    report = report_to_json(ToolReport("t", "1", DIGEST, ((0x10, 4),)))
    loaded = report_from_json(report.replace('"0x10"', f'"{spelling}"'))
    assert loaded.predicted_functions == ((value, 4),)


@pytest.mark.parametrize(
    "spelling",
    [
        "0X10", "0x_10", " 0x10", "0x10 ", "+0x10", "0x", "0xAB", "0x10\n",
        "0x\uff11\uff10",  # fullwidth digits
        "-0x10",  # how hex spells -16, which the pattern refuses
    ],
)
def test_an_address_is_refused_by_its_pattern_before_it_is_parsed(
    preset_docs, spelling
):
    """``int(s, 16)`` parses all of these but ``0x``; each is refused at its
    JSON path by the address pattern, in a truth and in a report."""
    if spelling != "0x":
        assert abs(int(spelling, 16)) in (0x10, 0xAB)

    def edit(payload):
        payload["functions"][0]["end_raw"] = spelling

    text = _mutate(document_to_json(preset_docs["listing1"]), edit)
    with pytest.raises(SchemaError) as exc:
        document_from_json(text)
    assert str(exc.value) == (
        f"$.functions[0].end_raw: {spelling!r} does not match '^0x[0-9a-f]+$'"
    )
    report = json.loads(report_to_json(ToolReport("t", "1", DIGEST, ((0x10, 4),))))
    report["functions"][0]["start"] = spelling
    with pytest.raises(SchemaError) as exc:
        report_from_json(json.dumps(report))
    assert str(exc.value) == (
        f"$.functions[0].start: {spelling!r} does not match '^0x[0-9a-f]+$'"
    )


def test_item_counts_are_checked_before_items(preset_docs):
    def edit(payload):
        payload["meta"]["config"]["call_edges"] = [["0X1", "0x2", "0x3"]]

    text = _mutate(document_to_json(preset_docs["listing1"]), edit)
    with pytest.raises(SchemaError) as exc:
        document_from_json(text)
    assert str(exc.value) == "$.meta.config.call_edges[0]: allows at most 2 items"


def test_a_refusal_is_explained_only_along_the_failing_path(preset_docs, monkeypatch):
    """Naming the failure interprets only the nodes on the path to it,
    however many accepted functions come before it."""
    explain, calls = interchange._explain, []

    def counted(value, schema):
        calls.append(schema)
        return explain(value, schema)

    monkeypatch.setattr(interchange, "_explain", counted)
    payload = json.loads(document_to_json(preset_docs["listing2"]))
    fn = payload["functions"][0]
    for n in (1, 40, 400):
        payload["functions"] = [dict(fn) for _ in range(n)]
        payload["functions"][-1]["end_raw"] = fn["end_raw"].replace("0x", "0X")
        calls.clear()
        with pytest.raises(SchemaError) as exc:
            document_from_json(json.dumps(payload))
        assert str(exc.value).startswith(f"$.functions[{n - 1}].end_raw: ")
        assert len(calls) == 4  # the document, its functions, one, its end_raw


def test_open_object_schemas_are_refused():
    """Every published schema is closed; neither the acceptor nor the
    interpreter knows another kind. The acceptor decides an object by its
    size and a read of each listed key, which is exact only for a closed
    one: were it open, ``{"a": 1, "b": 2}`` would fail its size test."""
    for opened in ({}, {"additionalProperties": True}):
        schema = {"type": "object", "properties": {"a": {"type": "integer"}}, **opened}
        with pytest.raises(ValueError, match="additionalProperties") as exc:
            _check({"a": 1}, schema, "$")
        assert not isinstance(exc.value, SchemaError)  # a bug, not bad input
        with pytest.raises(ValueError, match="additionalProperties"):
            _explain({"a": 1}, schema)
        with pytest.raises(ValueError, match="additionalProperties"):
            _generate(schema)


@pytest.mark.parametrize("value", [32.0, True, "32", None, [32]])
def test_an_enum_compares_types_as_well_as_values(value):
    """An enum's values are all of one type, and a value of another type
    fails however it compares: 32.0 == 32 and True == 1 in Python."""
    schema = {"enum": [1, 32, 64]}
    _check(32, schema, "$")
    with pytest.raises(SchemaError, match=r"is not one of \[1, 32, 64\]"):
        _check(value, schema, "$")
    assert _generate(schema)(value) is _REFUSED


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "format": "date"},  # would go unenforced
        {"type": "string", "enum": ["a"]},
        {"enum": [1, "1"]},  # no published enum mixes the types of its values
        {"enum": []},
        {"enum": [[1]]},
        {"minimum": 0},
        {"type": "integer", "minimum": 0, "pattern": "^1$"},
        {"type": "integer", "pattern": "^1$"},  # no declared type reads it
        {"type": "array", "items": {"type": "string"}, "format": "date"},
        {"type": "object", "additionalProperties": False, "format": "date"},
        {"type": "strnig"},  # no JSON type
        {  # every published object schema requires all of its properties
            "type": "object",
            "properties": {"a": {"type": "integer"}},
            "required": [],
            "additionalProperties": False,
        },
        {  # else the acceptor's size test would take {"a": 1, "c": 2}
            "type": "object",
            "properties": {"a": {"type": "integer"}, "b": {"type": "integer"}},
            "required": ["a"],
            "additionalProperties": False,
        },
    ],
)
def test_unpublished_schema_shapes_are_refused(schema):
    """The acceptor is generated for, and the interpreter reads, only the
    node shapes the published schemas use."""
    with pytest.raises(ValueError, match="no checker") as exc:
        _check("1", schema, "$")
    assert not isinstance(exc.value, SchemaError)  # a bug, not bad input
    with pytest.raises(ValueError, match="no checker"):
        _explain("1", schema)
    with pytest.raises(ValueError, match="no checker"):
        _generate(schema)


def test_non_json_input_is_a_schema_error():
    for text in ("{broken", "[" * 100_000):
        with pytest.raises(SchemaError, match="not valid JSON"):
            document_from_json(text)


@pytest.mark.parametrize("loader", [document_from_json, report_from_json])
def test_an_integer_too_long_to_convert_is_a_schema_error(loader):
    """json.loads refuses an integer literal of more than 4,300 digits with
    a plain ValueError, not a JSONDecodeError."""
    with pytest.raises(SchemaError, match="^not valid JSON: "):
        loader('{"schema_version": ' + "1" * 5_000 + "}")


@pytest.mark.parametrize("complete", [True, False])
def test_the_complete_flag_must_match_the_diagnostics(preset_docs, complete):
    """The loaded document derives complete from its diagnostics; a file
    whose own flag says otherwise is refused."""
    text = document_to_json(preset_docs["listing1"])

    def flip(p):
        if complete:  # complete stays true beside an exclusion
            p["diagnostics"].append(
                {
                    "severity": "error",
                    "code": "GT_INCOMPLETE_EXCLUDED",
                    "message": "excluded",
                    "span": None,
                }
            )
        else:
            p["complete"] = False

    with pytest.raises(SchemaError) as exc:
        document_from_json(_mutate(text, flip))
    assert str(exc.value) == (
        "complete must be true exactly when no error-severity "
        "GT_INCOMPLETE_EXCLUDED diagnostic is present"
    )


def test_overlapping_functions_are_refused(preset_docs):
    """Two functions over the same bytes would let an exact report score
    below 1: one of them is never claimed."""
    text = document_to_json(preset_docs["listing2"])
    first = json.loads(text)["functions"][0]["name"]

    def ghost(payload):
        twin = dict(payload["functions"][0], name="ghost")
        payload["functions"].insert(1, twin)

    def ghost_then_repeat(payload):
        """A model fault in the last function comes after the overlap."""
        ghost(payload)
        last = payload["functions"][-1]
        last["entries"] = [last["start"], last["start"]]

    for edit in (ghost, ghost_then_repeat):
        with pytest.raises(SchemaError) as exc:
            document_from_json(_mutate(text, edit))
        assert str(exc.value) == (
            f"function 'ghost' starts before the end_raw of function {first!r}"
        )


def test_a_repeated_entry_is_refused(preset_docs):
    """build_ground_truth never repeats an entry; a file that does is bad input."""
    text = document_to_json(preset_docs["listing2"])

    def repeat(payload):
        fn = payload["functions"][0]
        fn["entries"] = [fn["start"], fn["start"]]

    with pytest.raises(SchemaError) as exc:
        document_from_json(_mutate(text, repeat))
    assert str(exc.value) == "entry points must be sorted, without repeats"


def test_unrecognized_machine_label_is_rejected(preset_docs):
    """Only what machine_label writes loads: a name, or other(N) for a
    16-bit N in canonical ASCII decimal that has no name."""
    text = document_to_json(preset_docs["listing1"])
    for label in (
        "z80",
        "other(+5)",
        "other( 5)",
        "other(5_0)",
        "other(05)",
        "other(\u0663)",  # ARABIC-INDIC DIGIT THREE
        "other(4\u0660)",  # 4, then ARABIC-INDIC DIGIT ZERO
        "other(-1)",
        "other(65536)",
        "other(3)",
        "other(62)",
    ):

        def weird(p):
            p["binary"]["machine"] = label

        with pytest.raises(SchemaError, match="machine label"):
            document_from_json(_mutate(text, weird))
    for label in ("other(0)", "other(40)", "other(65535)"):

        def named(p):
            p["binary"]["machine"] = label

        loaded = _mutate(text, named)
        assert document_to_json(document_from_json(loaded)) == oracles.reference_dump(
            json.loads(loaded)
        )


# --- tool reports -------------------------------------------------------------


def test_reports_round_trip():
    report = ToolReport("finder", "2.1", DIGEST, ((0x1000, 16), (0x2000, None)))
    text = report_to_json(report)
    assert report_from_json(text) == report


def test_reports_without_byte_classes_round_trip():
    report = ToolReport("finder", "2.1", DIGEST, ((0x1000, 16),))
    text = report_to_json(report)
    payload = json.loads(text)
    assert "byte_classes" not in payload
    assert report_from_json(text) == report


_EDGE_ADDRESSES = [0, 2**32, 2**64 - 1]


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=0), max_size=4))
@example(_EDGE_ADDRESSES)
def test_reports_are_the_reference_dump_of_their_payload(starts):
    report = ToolReport("finder", "2.1", DIGEST, tuple((s, None) for s in starts))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "finder", "version": "2.1"},
        "binary_digest_hex": DIGEST.hex(),
        "functions": [{"start": f"0x{s:x}", "size": None} for s in starts],
    }
    assert report_to_json(report) == oracles.reference_dump(payload)


def test_report_schema_rejects_extra_keys():
    report = ToolReport("finder", "2.1", DIGEST, ())
    text = report_to_json(report)
    run = {"start": "0x1000", "length": 16, "class": "code", "confidence": "certain"}
    # Byte classes are descriptive only: a report may not carry them.
    for key, value in (("confidence", 0.9), ("byte_classes", [run])):
        payload = json.loads(text)
        payload[key] = value
        with pytest.raises(SchemaError, match=rf"^\$: unexpected key '{key}'$"):
            report_from_json(json.dumps(payload))


# --- scores and corpus summaries ----------------------------------------------


def _scored(preset_docs):
    doc = preset_docs["listing2"]
    preds = [(fn.start, fn.end_exclusive_trimmed - fn.start) for fn in doc.functions]
    preds[0] = (preds[0][0], preds[0][1] + 1)  # one wrong boundary
    report = ToolReport("finder", "2.1", doc.binary.content_digest, tuple(preds))
    return score_functions(doc, report, MatchPolicy())


def test_score_serialization_keeps_exact_ratios(preset_docs):
    result = _scored(preset_docs)
    payload = json.loads(score_to_json(result))
    assert payload["counts"] == {
        "true_positives": 8,
        "false_positives": 1,
        "false_negatives": 1,
    }
    assert payload["metrics"]["precision"] == {"exact": "8/9", "approx": 8 / 9}
    assert payload["metrics"]["f1"]["exact"] == "8/9"
    assert payload["policy"]["boundary_rule"] == "padding_tolerant"
    assert payload["mismatches"][0]["kind"] == "wrong_boundary"


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=0), max_size=4))
@example(_EDGE_ADDRESSES)
def test_scores_are_the_reference_dump_of_their_payload(addresses):
    mismatches = tuple(Mismatch("missed_start", a, "d") for a in addresses)
    result = ScoreResult(1, 0, len(addresses), mismatches)
    exact = {"exact": "1", "approx": 1.0}
    recall = Fraction(1, 1 + len(addresses))
    f1 = 2 * recall / (1 + recall)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "policy": None,
        "counts": {
            "true_positives": 1,
            "false_positives": 0,
            "false_negatives": len(addresses),
        },
        "metrics": {
            "precision": exact,
            "recall": {"exact": str(recall), "approx": float(recall)},
            "f1": {"exact": str(f1), "approx": float(f1)},
        },
        "mismatches": [
            {"kind": "missed_start", "address": f"0x{a:x}", "detail": "d"}
            for a in addresses
        ],
        "warnings": [],
    }
    assert score_to_json(result) == oracles.reference_dump(payload)


def test_perfect_metrics_serialize_as_plain_integers(preset_docs):
    doc = preset_docs["listing1"]
    preds = [(fn.start, fn.end_exclusive_trimmed - fn.start) for fn in doc.functions]
    report = ToolReport("finder", "2.1", doc.binary.content_digest, tuple(preds))
    payload = json.loads(score_to_json(score_functions(doc, report)))
    assert payload["metrics"]["f1"] == {"exact": "1", "approx": 1.0}


def test_corpus_summary_serialization(preset_docs):
    results = [_scored(preset_docs)] * 3 + []
    doc = preset_docs["listing1"]
    perfect = score_functions(
        doc,
        ToolReport(
            "finder",
            "2.1",
            doc.binary.content_digest,
            tuple(
                (fn.start, fn.end_exclusive_trimmed - fn.start)
                for fn in doc.functions
            ),
        ),
    )
    summary = corpus_aggregate(results + [perfect], thresholds=(0.96,))
    payload = json.loads(corpus_to_json(summary))
    assert payload["n"] == 4
    assert payload["fraction_perfect"] == {"exact": "1/4", "approx": 0.25}
    assert payload["below"] == [
        {"threshold": "0.96", "fraction": {"exact": "3/4", "approx": 0.75}}
    ]
    assert payload["micro"]["precision"]["exact"] == "25/28"


# --- the text form -------------------------------------------------------------

# Control characters, non-ASCII, astral and lone surrogates, and the
# characters JSON escapes; Hypothesis adds every other code point.
_TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["", "\x00\x1f\x7f", '"\\/', "\u00e9\u2028", "\U0001f600", "\ud800", "\udfff\ud800"]
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(2**64) - 1, 2**200, True, 1, False, 0])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1.0, 1e-7, 1e308])
    | _TEXT
)
_PAYLOADS = st.recursive(
    _SCALARS | st.just({}) | st.just([]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=25,
)


@settings(max_examples=200)
@given(_PAYLOADS)
@example({"a": [True, 1, False, 0, None], "b": {"c": {}, "d": [[], {}]}})
@example([[[{}]], {"\ud800": {"": []}}])
def test_dump_is_the_standard_encoders_text(payload):
    assert dump_json(payload) == oracles.reference_dump(payload)


@pytest.mark.parametrize(
    "value",
    [
        float("nan"),
        float("inf"),
        float("-inf"),
        (1, 2),
        {1},
        b"bytes",
        Fraction(1, 3),
        {1: "int key"},
        {"a": 1, 2: "mixed keys"},
    ],
    ids=[
        "nan", "inf", "-inf", "tuple", "set", "bytes", "fraction",
        "int-key", "mixed-keys",
    ],
)
def test_dump_refuses_what_is_not_json(value):
    with pytest.raises((ValueError, TypeError)):
        dump_json(value)
    with pytest.raises((ValueError, TypeError)):
        dump_json({"nested": [{"deeper": value}]})


def test_dump_leaves_no_cyclic_garbage(collector):
    """A command runs with the collector paused, so its dumps must be freed
    by their reference counts. ``json.dumps`` with an ``indent`` runs the
    pure-Python encoder, which leaves cycles on Python 3.10 to 3.12."""
    payload = {"a": [{"b": 1, "c": [1.5, None, {"d": "e"}]}, []], "f": {}}
    collector(False)
    gc.collect()
    text = dump_json(payload)
    assert gc.collect() == 0
    assert text == oracles.reference_dump(payload)


# --- the document writer ---------------------------------------------------------

_ADDRESSES = st.integers(0, 2**64)


@st.composite
def _functions(draw) -> tuple[GroundTruthFunction, ...]:
    """Functions in start order, each starting at or after the last end_raw."""
    functions, at = [], 0
    for _ in range(draw(st.integers(0, 4))):
        start = at + draw(st.integers(0, 2**40))
        # Strictly increasing entries, then end_trimmed past the last one.
        steps = draw(st.lists(st.integers(1, 64), min_size=1, max_size=3))
        entries = tuple(start + sum(steps[:i]) for i in range(len(steps)))
        end_trimmed = entries[-1] + steps[-1]
        end_raw = end_trimmed + draw(st.integers(0, 16))
        source = draw(st.none() | st.tuples(_TEXT, st.integers(0, 2**32)))
        functions.append(
            GroundTruthFunction(
                draw(_TEXT),
                entries,
                end_raw,
                end_trimmed,
                tuple(draw(st.lists(_TEXT, max_size=3))),
                draw(st.none() | _TEXT),
                frozenset(draw(st.sets(st.sampled_from(sorted(FUNCTION_FLAGS))))),
                frozenset(draw(st.sets(st.sampled_from(sorted(PROVENANCE_KINDS))))),
                source,
            )
        )
        at = end_raw
    return tuple(functions)


@st.composite
def _byte_runs(draw) -> ByteClassMap:
    runs, at = [], 0
    for _ in range(draw(st.integers(0, 4))):
        start = at + draw(st.integers(0, 2**20))
        length = draw(st.integers(1, 2**20))
        runs.append(
            ByteRun(
                start,
                length,
                draw(st.sampled_from(CLASSES)),
                draw(st.sampled_from(CONFIDENCES)),
            )
        )
        at = start + length
    return ByteClassMap(tuple(runs))


_DIAGNOSTICS = st.lists(
    st.builds(
        Diagnostic,
        st.sampled_from(SEVERITIES),
        st.sampled_from(sorted(DIAGNOSTIC_CODES)),
        _TEXT,
        st.none() | st.tuples(_ADDRESSES, st.integers(0, 2**32)),
    ),
    max_size=4,
)
_MACHINES = st.sampled_from(sorted(MACHINE_NAMES)) | st.integers(0, 2**16 - 1)


@st.composite
def _documents(draw) -> GroundTruthDocument:
    return GroundTruthDocument(
        BinarySummary(
            draw(_TEXT),
            draw(st.binary(min_size=32, max_size=32)),
            draw(st.sampled_from([32, 64])),
            draw(_MACHINES),
        ),
        draw(_functions()),
        draw(_byte_runs()),
        tuple(draw(_DIAGNOSTICS)),
    )


_CONFIGS = st.builds(
    RunConfig,
    st.booleans(),
    st.integers(0, 2**20),
    st.none() | st.lists(_TEXT, max_size=3).map(tuple),
    st.none()
    | st.lists(st.tuples(_ADDRESSES, _ADDRESSES), max_size=3).map(tuple),
)


@settings(max_examples=150)
@given(_documents(), _CONFIGS)
def test_documents_are_the_reference_dump_of_their_payload(doc, config):
    text = document_to_json(doc, config)
    payload = oracles.reference_payload(doc, config, GENERATOR)
    assert text == oracles.reference_dump(payload)
    assert document_from_json(text) == doc


@pytest.mark.parametrize("name", sorted(forge.PRESETS))
def test_preset_documents_are_the_reference_dump(name, preset_docs):
    config = RunConfig(call_edges=((0x401000, 0x401010),))
    doc = preset_docs[name]
    text = document_to_json(doc, config)
    payload = oracles.reference_payload(doc, config, GENERATOR)
    assert text == oracles.reference_dump(payload)
