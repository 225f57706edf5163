import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bintruth import forge
from bintruth.interchange import (
    SCHEMA_VERSION,
    SchemaError,
    _check,
    corpus_to_json,
    document_from_json,
    document_to_json,
    dump_json,
    report_from_json,
    report_to_json,
    score_to_json,
)
from bintruth.normalize import RunConfig
from bintruth.scoring import (
    MatchPolicy,
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


def test_unusual_machine_codes_survive_the_trip(build_doc):
    spec = forge.BinarySpec(
        sections=(forge.SectionSpec(".text", 0x401000, executable=True),),
        functions=(forge.FunctionSpec("f", 0, b"\x89\xc8\xc3"),),
        word_size=64,
        machine_code=40,
    )
    doc = build_doc(forge.emit(spec))
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


def test_item_counts_are_checked_before_items(preset_docs):
    def edit(payload):
        payload["meta"]["config"]["call_edges"] = [["0X1", "0x2", "0x3"]]

    text = _mutate(document_to_json(preset_docs["listing1"]), edit)
    with pytest.raises(SchemaError) as exc:
        document_from_json(text)
    assert str(exc.value) == "$.meta.config.call_edges[0]: allows at most 2 items"


def test_open_object_schemas_are_refused():
    """Every published schema is closed; the checker compiles no other kind."""
    schema = {"type": "object", "properties": {"a": {"type": "integer"}}}
    with pytest.raises(ValueError, match="additionalProperties") as exc:
        _check({"a": 1}, schema, "$")
    assert not isinstance(exc.value, SchemaError)  # a bug, not bad input


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "format": "date"},  # would go unenforced
        {"type": "string", "enum": ["a"]},
        {"minimum": 0},
        {"type": "integer", "minimum": 0, "pattern": "^1$"},
        {"type": "integer", "pattern": "^1$"},  # no declared type reads it
        {"type": "array", "items": {"type": "string"}, "format": "date"},
        {"type": "object", "additionalProperties": False, "format": "date"},
        {"type": "strnig"},  # no JSON type
    ],
)
def test_unpublished_schema_shapes_are_refused(schema):
    """The checker compiles only the node shapes the published schemas use."""
    with pytest.raises(ValueError, match="no checker") as exc:
        _check("1", schema, "$")
    assert not isinstance(exc.value, SchemaError)  # a bug, not bad input


def test_non_json_input_is_a_schema_error():
    for text in ("{broken", "[" * 100_000):
        with pytest.raises(SchemaError, match="not valid JSON"):
            document_from_json(text)


def test_overlapping_functions_are_refused(preset_docs):
    """Two functions over the same bytes would let an exact report score
    below 1: one of them is never claimed."""
    text = document_to_json(preset_docs["listing2"])
    first = json.loads(text)["functions"][0]["name"]

    def ghost(payload):
        twin = dict(payload["functions"][0], name="ghost")
        payload["functions"].insert(1, twin)

    with pytest.raises(SchemaError) as exc:
        document_from_json(_mutate(text, ghost))
    assert str(exc.value) == (
        f"function 'ghost' starts before the end_raw of function {first!r}"
    )


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
    # A report's byte classes are checked against the schema, not scored.
    payload = json.loads(text)
    run = {"start": "0x1000", "length": 16, "class": "code", "confidence": "certain"}
    payload["byte_classes"] = [run]
    assert report_from_json(json.dumps(payload)) == report
    run["class"] = "puffin"
    with pytest.raises(SchemaError, match=r"\$\.byte_classes\[0\]\.class"):
        report_from_json(json.dumps(payload))


def test_reports_without_byte_classes_round_trip():
    report = ToolReport("finder", "2.1", DIGEST, ((0x1000, 16),))
    text = report_to_json(report)
    payload = json.loads(text)
    assert "byte_classes" not in payload
    assert report_from_json(text) == report
    # An explicit null is accepted on the way in.
    payload["byte_classes"] = None
    assert report_from_json(json.dumps(payload)) == report


def test_report_schema_rejects_extra_keys():
    report = ToolReport("finder", "2.1", DIGEST, ())
    payload = json.loads(report_to_json(report))
    payload["confidence"] = 0.9
    with pytest.raises(SchemaError):
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
