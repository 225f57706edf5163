"""The interchange schemas as a contract, checked with the reference validator.

The program checks loaded files with its own small checker and does not
re-check what it dumps. These tests hold both halves to the published
schemas with ``jsonschema`` (a test-only dependency): what the program
emits validates, the checker handles every keyword the schemas use, and
on mutated files the checker agrees with ``jsonschema`` while the
loaders raise nothing but ``SchemaError``. On the same mutants the
checker gives the message of the schema interpreter in
``oracles.schema_failure``, word for word, and the generated acceptor
passes exactly what ``_explain`` finds nothing wrong with, loaded as
``oracles.loaded`` loads it.
"""
from __future__ import annotations

import copy
import json
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator

import corpuscheck
import oracles
from bintruth import cli, forge, interchange, normalize
from bintruth.interchange import (
    CORPUS_SCHEMA,
    GROUND_TRUTH_SCHEMA,
    SCORE_SCHEMA,
    TOOL_REPORT_SCHEMA,
    SchemaError,
    _REFUSED,
    _acceptor,
    _check,
    _explain,
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
    ScoreResult,
    ToolReport,
    corpus_aggregate,
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


def _report_for(doc, stub: bool = False) -> ToolReport:
    preds = [(fn.start, fn.end_exclusive_trimmed - fn.start) for fn in doc.functions]
    if stub and preds:
        preds[0] = (preds[0][0], 1)
    return ToolReport("finder", "1.0", doc.binary.content_digest, tuple(preds))


@cache
def emitted() -> tuple[tuple[str, str, str], ...]:
    """(kind, label, text) for every payload kind the program writes or reads."""
    out = []
    docs = {
        name: corpuscheck.build_document(forge.emit(forge.preset(name)))[1]
        for name in forge.PRESETS
    }
    for name, doc in docs.items():
        out.append(("document", name, document_to_json(doc)))
    for fixture in forge.generate_corpus(seed=7, count=6):
        _image, doc = corpuscheck.build_document(fixture.data)
        out.append(("document", fixture.name, document_to_json(doc)))
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

    stripped = docs["stripped"]
    results = [
        score_functions(listing2, reports["plain"]),
        score_functions(listing2, reports["stub"], POLICY_PRESETS["legacy-lenient"]),
        score_functions(
            stripped, _report_for(stripped), MatchPolicy(reject_incomplete_truth=False)
        ),
        ScoreResult(5, 1, 2),  # no policy: written as "policy": null
        score_functions(listing2, reports["stub"]),  # a wrong_boundary mismatch
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
    # Generating refuses every node shape outside the published ones.
    _acceptor(SCHEMAS[kind])
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
            edits += ["upper", "sign"]
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
    elif edit == "sign":  # hex(-n) for an address hex(n) wrote
        new = "-" + node
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


def test_acceptors_are_generated_once(monkeypatch):
    texts = {kind: text for kind, _label, text in emitted() if kind in LOADERS}
    for kind, loader in LOADERS.items():
        loader(texts[kind])
        with pytest.raises(SchemaError):  # a rejection builds child acceptors
            loader(texts[kind].replace('"schema_version": 1', '"schema_version": 2'))

    def generate_again(schema):
        raise AssertionError("an acceptor was generated twice")

    monkeypatch.setattr(interchange, "_generate", generate_again)
    for kind, loader in LOADERS.items():
        loader(texts[kind])
        with pytest.raises(SchemaError):
            loader(texts[kind].replace('"schema_version": 1', '"schema_version": 2'))


# --- (d) the generated acceptor decides what the checker passes --------------


def _checker_passes(payload, schema: dict) -> bool:
    return _explain(payload, schema) is None


@settings(max_examples=400, deadline=None)
@given(st.one_of(mutants().map(lambda m: (m[0], m[4])), compound_mutants()))
def test_acceptor_agrees_with_the_checker(mutant):
    """The acceptor refuses exactly what the checker names a fault in, and
    returns anything else as the reference loads it."""
    kind, payload = mutant
    accepted = _acceptor(SCHEMAS[kind])(payload)
    if _checker_passes(payload, SCHEMAS[kind]):
        # repr tells True from 1 and 1.0 from 1, which == does not.
        assert repr(accepted) == repr(oracles.loaded(payload, SCHEMAS[kind]))
    else:
        assert accepted is _REFUSED


def test_acceptor_passes_every_emitted_payload():
    kinds = set()
    for kind, label, text in emitted():
        payload = json.loads(text)
        accepted = _acceptor(SCHEMAS[kind])(payload)
        assert accepted == oracles.loaded(payload, SCHEMAS[kind]), f"{kind} {label}"
        kinds.add(kind)
    assert kinds == set(SCHEMAS)


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_acceptor_source_holds_no_schema_text(kind):
    """Every constant an acceptor tests against is bound in its namespace;
    its code holds no string or number from the schema."""
    acceptor = _acceptor(SCHEMAS[kind])
    names = acceptor.__code__.co_names
    assert set(acceptor.__code__.co_consts) <= {None, True, False}
    # The only builtins it names are type and len, and the only attribute
    # an array's append: no .keys() call.
    assert set(names) - {"type", "len", "append"} <= set(acceptor.__globals__)
    # A missing key ends the reads in KeyError, and an address int cannot
    # parse in ValueError, each caught by a bound constant.
    bound = [acceptor.__globals__.get(name) for name in names]
    for error in (KeyError, ValueError):
        assert error.__name__ not in names
        assert error in bound


def _object_paths(schema: dict, path=()):
    """The path of every object node of ``schema``, ``None`` for an array's
    items."""
    if "properties" in schema:
        yield path
        for key, sub in schema["properties"].items():
            yield from _object_paths(sub, (*path, key))
    if "items" in schema:
        yield from _object_paths(schema["items"], (*path, None))


def _object_instances(value, path=(), pattern=()):
    """(pattern, path) of every object in ``value``, as :func:`_object_paths`
    writes the pattern."""
    if isinstance(value, dict):
        yield pattern, path
        for key, item in value.items():
            yield from _object_instances(item, (*path, key), (*pattern, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _object_instances(item, (*path, i), (*pattern, None))


def _json_path(path) -> str:
    return "$" + "".join(f"[{s}]" if type(s) is int else f".{s}" for s in path)


def _closed_object_faults(node: dict):
    """(faulty copy, message) for ``node`` with each key dropped, with one
    unlisted key added, and with each key renamed, which keeps its size."""
    for key in node:
        dropped = {k: v for k, v in node.items() if k != key}
        yield dropped, f": missing {key!r}"
        renamed = {k + "_" if k == key else k: v for k, v in node.items()}
        assert len(renamed) == len(node)
        yield renamed, f": missing {key!r}"  # missing comes before unexpected
    yield {**node, "puffin": 1}, ": unexpected key 'puffin'"


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_every_closed_object_refuses_a_dropped_an_extra_and_a_renamed_key(kind):
    """The acceptor decides an object by its size and by reading each listed
    key, so a renamed key (same size) is refused by its missing read. Each
    fault is named at the object's JSON path, as the reference interpreter
    names it."""
    schema = SCHEMAS[kind]
    first = {}
    for _kind, _label, text in (e for e in emitted() if e[0] == kind):
        payload = json.loads(text)
        for pattern, path in _object_instances(payload):
            first.setdefault(pattern, (payload, path))
    patterns = list(_object_paths(schema))
    assert set(patterns) <= set(first), "an object node has no emitted instance"
    for pattern in patterns:
        payload, path = first[pattern]
        node = payload
        for step in path:
            node = node[step]
        for fault, message in _closed_object_faults(node):
            mutant = copy.deepcopy(payload)
            parent = mutant
            for step in path[:-1]:
                parent = parent[step]
            if path:
                parent[path[-1]] = fault
            else:
                mutant = fault
            assert _acceptor(schema)(mutant) is _REFUSED, (pattern, fault)
            with pytest.raises(SchemaError) as exc:
                _check(mutant, schema, "$")
            assert str(exc.value) == _json_path(path) + message
            assert str(exc.value) == oracles.schema_failure(mutant, schema, "$")


def test_a_disagreement_is_a_bug_not_bad_input(monkeypatch, tmp_path):
    _image, doc = corpuscheck.build_document(forge.emit(forge.preset("listing2")))
    truth, report = tmp_path / "t.json", tmp_path / "r.json"
    truth.write_text(document_to_json(doc))
    report.write_text(report_to_json(_report_for(doc)))
    monkeypatch.setattr(
        interchange, "_acceptor", lambda schema: lambda value: _REFUSED
    )
    with pytest.raises(RuntimeError, match="disagree") as exc:
        _check(json.loads(truth.read_text()), GROUND_TRUTH_SCHEMA, "$")
    assert not isinstance(exc.value, SchemaError)
    # The CLI maps only bad input to exit 2; a bug propagates.
    with pytest.raises(RuntimeError, match="disagree"):
        cli.main(["score", str(truth), str(report)])


def _shuffled(node, rng):
    """``node`` with the keys of every object in a random order."""
    if isinstance(node, dict):
        keys = list(node)
        rng.shuffle(keys)
        return {key: _shuffled(node[key], rng) for key in keys}
    if isinstance(node, list):
        return [_shuffled(item, rng) for item in node]
    return node


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_key_order_does_not_change_a_loaded_document(rng):
    for kind, label, text in emitted():
        if kind not in LOADERS:
            continue
        shuffled = json.dumps(_shuffled(json.loads(text), rng))
        assert LOADERS[kind](shuffled) == LOADERS[kind](text), label


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_the_first_failing_key_in_the_file_is_reported(rng):
    """With two bad values in one object, the message names the one that
    comes first in the file, as the schema interpreter does."""
    text = next(t for kind, _l, t in emitted() if kind == "document")
    payload = json.loads(text)
    payload["functions"][0]["start"] = "0X1"
    payload["functions"][0]["end_raw"] = -1
    payload = _shuffled(payload, rng)
    first = next(k for k in payload["functions"][0] if k in ("start", "end_raw"))
    with pytest.raises(SchemaError) as exc:
        document_from_json(json.dumps(payload))
    assert str(exc.value) == oracles.schema_failure(payload, GROUND_TRUTH_SCHEMA)
    assert str(exc.value).startswith(f"$.functions[0].{first}: ")
