"""The interchange schemas as a contract, checked with the reference validator.

The program checks loaded files with its own small checker and does not
re-check what it dumps. These tests hold both halves to the published
schemas with ``jsonschema`` (a test-only dependency): what the program
emits validates, the checker handles every keyword the schemas use, and
on mutated files the checker agrees with ``jsonschema`` while the
loaders raise nothing but ``SchemaError``. On the same mutants the
compiled checker gives the message of the schema interpreter in
``oracles.schema_failure``, word for word.
"""
from __future__ import annotations

import copy
import json
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator

import oracles
from bintruth import elf, forge, interchange, normalize
from bintruth.interchange import (
    CORPUS_SCHEMA,
    GROUND_TRUTH_SCHEMA,
    SCORE_SCHEMA,
    TOOL_REPORT_SCHEMA,
    SchemaError,
    _check,
    _checker,
    corpus_to_json,
    document_from_json,
    document_to_json,
    report_from_json,
    report_to_json,
    score_to_json,
)
from bintruth.scoring import (
    POLICY_PRESETS,
    MatchPolicy,
    ToolReport,
    corpus_aggregate,
    score_byte_classes,
    score_functions,
)

SCHEMAS = {
    "document": GROUND_TRUTH_SCHEMA,
    "report": TOOL_REPORT_SCHEMA,
    "score": SCORE_SCHEMA,
    "corpus": CORPUS_SCHEMA,
}
LOADERS = {"document": document_from_json, "report": report_from_json}
VALIDATORS = {kind: Draft202012Validator(schema) for kind, schema in SCHEMAS.items()}


def _build(data: bytes):
    image = elf.parse_image(data)
    return normalize.build_ground_truth(image)


def _report_for(doc, stub: bool = False) -> ToolReport:
    preds = [(fn.start, fn.end_exclusive_trimmed - fn.start) for fn in doc.functions]
    if stub and preds:
        preds[0] = (preds[0][0], 1)
    return ToolReport("finder", "1.0", doc.binary.content_digest, tuple(preds))


@cache
def emitted() -> tuple[tuple[str, str, str], ...]:
    """(kind, label, text) for every payload kind the program writes or reads."""
    out = []
    docs = {name: _build(forge.emit(forge.preset(name))) for name in forge.PRESETS}
    for name, doc in docs.items():
        out.append(("document", name, document_to_json(doc)))
    for fixture in forge.generate_corpus(seed=7, count=6):
        out.append(("document", fixture.name, document_to_json(_build(fixture.data))))
    config = normalize.RunConfig(
        merge_multi_entry=False,
        start_mismatch_tolerance=3,
        noreturn_seeds=("die",),
        call_edges=((0x401000, 0x401010),),
    )
    out.append(("document", "configured", document_to_json(docs["listing1"], config)))

    listing2 = docs["listing2"]
    reports = {
        "plain": _report_for(listing2),
        "stub": _report_for(listing2, stub=True),
        "sizeless": ToolReport("finder", "2", b"\x11" * 32, ((0x1000, None),)),
    }
    for label, report in reports.items():
        out.append(("report", label, report_to_json(report)))
    # No writer emits a report's byte classes, but the schema admits them.
    classified = json.loads(report_to_json(reports["sizeless"]))
    run = {"start": "0x1000", "length": 16, "class": "code", "confidence": "certain"}
    classified["byte_classes"] = [run]
    out.append(("report", "byte_classes", json.dumps(classified)))

    stripped = docs["stripped"]
    results = [
        score_functions(listing2, reports["plain"]),
        score_functions(listing2, reports["stub"], POLICY_PRESETS["legacy-lenient"]),
        score_functions(
            stripped, _report_for(stripped), MatchPolicy(reject_incomplete_truth=False)
        ),
        score_byte_classes(listing2.byte_classes, listing2.byte_classes)["code"],
    ]
    for i, result in enumerate(results):
        out.append(("score", f"score{i}", score_to_json(result)))
    summary = corpus_aggregate(results, thresholds=(0.96, "1/3", 1))
    out.append(("corpus", "summary", corpus_to_json(summary)))
    return tuple(out)


# --- (a) what the program emits satisfies the published schemas -------------


def test_emitted_payloads_validate():
    kinds = set()
    for kind, label, text in emitted():
        errors = [e.message for e in VALIDATORS[kind].iter_errors(json.loads(text))]
        assert errors == [], f"{kind} {label}"
        kinds.add(kind)
    assert kinds == set(SCHEMAS)


# --- (c) the checker covers the schemas -------------------------------------


def _subschemas(schema: dict):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_checker_handles_every_schema_keyword(kind):
    Draft202012Validator.check_schema(SCHEMAS[kind])
    # Compiling refuses every node shape outside the published ones.
    _checker(SCHEMAS[kind])
    for sub in _subschemas(SCHEMAS[kind]):
        # The checker knows only the closed form of additionalProperties.
        assert sub.get("additionalProperties", False) is False


# --- (b) mutants: the checker agrees with jsonschema --------------------------


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nodes(value, (*path, i))


# A replacement of another JSON type for each type.
_RETYPED = {dict: [], list: {}, str: 0, int: "0", float: "0", bool: 0, type(None): 0}


def _edits(path, node) -> list[str]:
    edits = ["retype"]
    if path:
        edits.append("drop")
    if isinstance(node, (dict, list)):
        edits.append("add")
    if isinstance(node, str):
        edits.append("off_enum")
        if node.startswith("0x"):
            edits.append("upper")
    if type(node) in (int, float):
        edits.append("negate")
    if type(node) is int:
        edits += ["boolean", "off_enum"]
    return edits


def _apply(payload, path, edit):
    """Return ``payload`` with ``edit`` made to the node at ``path``."""
    parent, key, node = None, None, payload
    for step in path:
        parent, key, node = node, step, node[step]
    if edit == "drop":
        del parent[key]
        return payload
    if edit == "add":
        if isinstance(node, dict):
            node["puffin"] = 1
        else:
            node.append(copy.deepcopy(node[-1]) if node else 0)
        return payload
    if edit == "retype":
        new = _RETYPED[type(node)]
    elif edit == "upper":
        new = node.upper()
    elif edit == "off_enum":
        new = "puffin" if isinstance(node, str) else 48
    elif edit == "negate":
        new = -1 - node
    else:  # "boolean"
        new = True
    if parent is None:
        return new
    parent[key] = new
    return payload


@st.composite
def mutants(draw):
    kind, label, text = draw(st.sampled_from(emitted()))
    payload = json.loads(text)
    choices = [
        (path, edit) for path, node in _nodes(payload) for edit in _edits(path, node)
    ]
    path, edit = draw(st.sampled_from(choices))
    return kind, label, path, edit, _apply(payload, path, edit)


@settings(max_examples=400, deadline=None)
@given(mutants())
def test_checker_agrees_with_jsonschema_on_mutants(mutant):
    kind, _label, _path, _edit, payload = mutant
    valid = VALIDATORS[kind].is_valid(payload)
    try:
        _check(payload, SCHEMAS[kind], "$")
    except SchemaError:
        assert not valid
    else:
        assert valid
    if kind not in LOADERS:
        return
    try:
        LOADERS[kind](json.dumps(payload))
    except SchemaError:
        return  # a shape or semantic check; nothing else may escape
    assert valid, "the loader accepted what jsonschema rejects"


def test_booleans_are_not_numbers():
    for schema, value in (
        ({"const": 1}, True),
        ({"type": "integer"}, False),
        ({"type": "number"}, True),
        ({"enum": [32, 64]}, True),
    ):
        assert not Draft202012Validator(schema).is_valid(value)
        with pytest.raises(SchemaError):
            _check(value, schema, "$")


@st.composite
def compound_mutants(draw):
    """A mutant with up to two more edits on the nodes along its edit's path,
    so that one node can fail two checks and their order shows."""
    kind, _label, path, _edit, payload = draw(mutants())
    for _ in range(draw(st.integers(0, 2))):
        choices = [
            (at, edit)
            for at, node in _nodes(payload)
            if at == path[: len(at)]
            for edit in _edits(at, node)
        ]
        at, edit = draw(st.sampled_from(choices))
        payload = _apply(payload, at, edit)
    return kind, payload


@settings(max_examples=400, deadline=None)
@given(compound_mutants())
def test_checker_messages_match_the_reference(mutant):
    kind, payload = mutant
    expected = oracles.schema_failure(payload, SCHEMAS[kind], "$")
    try:
        _check(payload, SCHEMAS[kind], "$")
    except SchemaError as exc:
        assert str(exc) == expected
    else:
        assert expected is None


def test_schemas_compile_once(monkeypatch):
    texts = {kind: text for kind, _label, text in emitted() if kind in LOADERS}
    for kind, loader in LOADERS.items():
        loader(texts[kind])

    def compile_again(schema):
        raise AssertionError("a schema was compiled twice")

    monkeypatch.setattr(interchange, "_compile", compile_again)
    for kind, loader in LOADERS.items():
        loader(texts[kind])
