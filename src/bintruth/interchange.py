"""Deterministic JSON interchange for documents, reports, and scores.

The same input always serializes to byte-identical output: keys are
sorted, indentation is fixed, addresses are lowercase ``0x`` hex,
lengths and counts are decimal, and nothing carries a timestamp. Every
payload is written by :func:`dump_json`, whose text is byte for byte the
standard ``json`` encoder's with ``sort_keys=True, indent=2`` plus a
newline; NaN and infinity, which that encoder would write as non-JSON
tokens, are refused.

The four ``*_SCHEMA`` dicts are the published contract. Every load is
checked against its schema by :func:`_check`, which compiles each schema
once per process into a tree of checkers (a pattern's ``$`` matches only
at the end of the string, as in ECMA-262). It compiles only the node
shapes those schemas use and refuses any other shape with ``ValueError``,
as a bug in the schema, not as bad input. A loaded ground-truth
document must also satisfy the invariants :func:`build_ground_truth`
guarantees, so malformed files fail loudly at the boundary instead of
deep inside scoring. Dumps are not re-checked: the program builds them
from objects whose inputs were checked where they entered, and the test
suite holds emitted output to the schemas.
"""
from __future__ import annotations

import json
import math
import re
from collections.abc import Callable
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from . import __version__
from .byteclass import ByteClassMap, ByteRun
from .model import MACHINE_NAMES, Diagnostic, machine_label
from .normalize import (
    BinarySummary,
    GroundTruthDocument,
    GroundTruthFunction,
    RunConfig,
    is_complete,
)
from .scoring import CorpusSummary, ScoreResult, ToolReport

SCHEMA_VERSION = 1

GENERATOR = f"bintruth {__version__}"


class SchemaError(ValueError):
    """Input does not satisfy the interchange schema."""


_HEX = {"type": "string", "pattern": "^0x[0-9a-f]+$"}
_SPAN = {
    "type": ["object", "null"],
    "properties": {"start": _HEX, "length": {"type": "integer", "minimum": 0}},
    "required": ["start", "length"],
    "additionalProperties": False,
}
_DIAGNOSTIC = {
    "type": "object",
    "properties": {
        "severity": {"enum": ["info", "warning", "error"]},
        "code": {"type": "string", "pattern": "^GT_[A-Z_]+$"},
        "message": {"type": "string"},
        "span": _SPAN,
    },
    "required": ["severity", "code", "message", "span"],
    "additionalProperties": False,
}
_BYTE_RUN = {
    "type": "object",
    "properties": {
        "start": _HEX,
        "length": {"type": "integer", "minimum": 1},
        "class": {"enum": ["code", "padding", "data", "gap_unknown"]},
        "confidence": {"enum": ["certain", "heuristic"]},
    },
    "required": ["start", "length", "class", "confidence"],
    "additionalProperties": False,
}
_FUNCTION = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "entries": {"type": "array", "items": _HEX, "minItems": 1},
        "start": _HEX,
        "end_raw": _HEX,
        "end_trimmed": _HEX,
        "aliases": {"type": "array", "items": {"type": "string"}},
        "group": {"type": ["string", "null"]},
        "flags": {"type": "array", "items": {"type": "string"}},
        "provenance": {"type": "array", "items": {"enum": ["symtab", "dwarf"]}},
        "source": {
            "type": ["object", "null"],
            "properties": {
                "file": {"type": "string"},
                "line": {"type": "integer", "minimum": 0},
            },
            "required": ["file", "line"],
            "additionalProperties": False,
        },
    },
    "required": [
        "name",
        "entries",
        "start",
        "end_raw",
        "end_trimmed",
        "aliases",
        "group",
        "flags",
        "provenance",
        "source",
    ],
    "additionalProperties": False,
}

GROUND_TRUTH_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "meta": {
            "type": "object",
            "properties": {
                "generator": {"type": "string"},
                "config": {
                    "type": "object",
                    "properties": {
                        "merge_multi_entry": {"type": "boolean"},
                        "start_mismatch_tolerance": {
                            "type": "integer",
                            "minimum": 0,
                        },
                        "noreturn_seeds": {
                            "type": "array",
                            "items": {"type": "string"},
                        },
                        "call_edges": {
                            "type": ["array", "null"],
                            "items": {
                                "type": "array",
                                "items": _HEX,
                                "minItems": 2,
                                "maxItems": 2,
                            },
                        },
                    },
                    "required": [
                        "merge_multi_entry",
                        "start_mismatch_tolerance",
                        "noreturn_seeds",
                        "call_edges",
                    ],
                    "additionalProperties": False,
                },
            },
            "required": ["generator", "config"],
            "additionalProperties": False,
        },
        "binary": {
            "type": "object",
            "properties": {
                "path": {"type": "string"},
                "digest_hex": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
                "word_size": {"enum": [32, 64]},
                "machine": {"type": "string"},
            },
            "required": ["path", "digest_hex", "word_size", "machine"],
            "additionalProperties": False,
        },
        "functions": {"type": "array", "items": _FUNCTION},
        "byte_classes": {"type": "array", "items": _BYTE_RUN},
        "diagnostics": {"type": "array", "items": _DIAGNOSTIC},
        "complete": {"type": "boolean"},
    },
    "required": [
        "schema_version",
        "meta",
        "binary",
        "functions",
        "byte_classes",
        "diagnostics",
        "complete",
    ],
    "additionalProperties": False,
}

TOOL_REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "tool": {
            "type": "object",
            "properties": {
                "name": {"type": "string"},
                "version": {"type": "string"},
            },
            "required": ["name", "version"],
            "additionalProperties": False,
        },
        "binary_digest_hex": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
        "functions": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "start": _HEX,
                    "size": {"type": ["integer", "null"], "minimum": 0},
                },
                "required": ["start", "size"],
                "additionalProperties": False,
            },
        },
        "byte_classes": {
            "type": ["array", "null"],
            "items": _BYTE_RUN,
        },
    },
    "required": ["schema_version", "tool", "binary_digest_hex", "functions"],
    "additionalProperties": False,
}

_METRIC = {
    "type": "object",
    "properties": {
        "exact": {"type": "string", "pattern": "^[0-9]+(/[0-9]+)?$"},
        "approx": {"type": "number"},
    },
    "required": ["exact", "approx"],
    "additionalProperties": False,
}
_METRICS = {
    "type": "object",
    "properties": {"precision": _METRIC, "recall": _METRIC, "f1": _METRIC},
    "required": ["precision", "recall", "f1"],
    "additionalProperties": False,
}

SCORE_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "policy": {
            "type": ["object", "null"],
            "properties": {
                "start_rule": {"type": "string"},
                "boundary_rule": {"type": "string"},
                "reject_incomplete_truth": {"type": "boolean"},
            },
            "required": ["start_rule", "boundary_rule", "reject_incomplete_truth"],
            "additionalProperties": False,
        },
        "counts": {
            "type": "object",
            "properties": {
                "true_positives": {"type": "integer", "minimum": 0},
                "false_positives": {"type": "integer", "minimum": 0},
                "false_negatives": {"type": "integer", "minimum": 0},
            },
            "required": ["true_positives", "false_positives", "false_negatives"],
            "additionalProperties": False,
        },
        "metrics": _METRICS,
        "mismatches": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "kind": {
                        "enum": ["spurious_start", "missed_start", "wrong_boundary"]
                    },
                    "address": _HEX,
                    "detail": {"type": "string"},
                },
                "required": ["kind", "address", "detail"],
                "additionalProperties": False,
            },
        },
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
    "required": [
        "schema_version",
        "policy",
        "counts",
        "metrics",
        "mismatches",
        "warnings",
    ],
    "additionalProperties": False,
}

CORPUS_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "n": {"type": "integer", "minimum": 1},
        "micro": _METRICS,
        "macro": _METRICS,
        "fraction_perfect": _METRIC,
        "below": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "threshold": {"type": "string"},
                    "fraction": _METRIC,
                },
                "required": ["threshold", "fraction"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["schema_version", "n", "micro", "macro", "fraction_perfect", "below"],
    "additionalProperties": False,
}


def _hex(value: int) -> str:
    return f"0x{value:x}"


_ARRAY_KEYWORDS = frozenset({"items", "minItems", "maxItems"})
_OBJECT_KEYWORDS = frozenset({"properties", "required", "additionalProperties"})

# The exact Python types json.loads gives each JSON type: a bool is no number.
_JSON_TYPES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "integer": (int,),
    "number": (int, float),
    "boolean": (bool,),
    "null": (type(None),),
}
# The JSON type a message names for each of those Python types.
_KINDS = {
    dict: "object",
    list: "array",
    str: "string",
    int: "integer",
    float: "number",
    bool: "boolean",
    type(None): "null",
}

_Checker = Callable[[object], None]


class _Mismatch(Exception):
    """A schema failure on its way up to _check, gathering its JSON path."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message
        self.path: list[str] = []  # innermost step first


def _check(value: object, schema: dict, where: str) -> None:
    """Raise SchemaError unless ``value`` satisfies ``schema``.

    ``value`` is what ``json.loads`` returns. Each schema is compiled once
    into a tree of checkers, one closure per node that makes only the
    checks the node declares. Only the node shapes the published schemas
    use compile (see :func:`_compile`), and on them the checker matches
    JSON Schema; any other shape, an object schema that allows other keys
    among them, raises ``ValueError``, not ``SchemaError``, as a bug in
    the schema rather than bad input. Three rules are stricter than
    jsonschema's: a float never counts as an integer; ``enum``/``const``
    compare types as well as values (``32.0`` is not ``32``); and a
    pattern's ``$`` matches only at the end of the string, as in ECMA-262
    (``"0x10\\n"`` is no address). The message starts with the failing
    node's JSON path below ``where``.
    """
    try:
        _checker(schema)(value)
    except _Mismatch as exc:
        path = where + "".join(reversed(exc.path))
        raise SchemaError(f"{path}: {exc.message}") from None


# Checkers by schema identity. Each entry holds its schema, so no id is
# reused while it is cached, and the published schemas compile once.
_COMPILED: dict[int, tuple[dict, _Checker]] = {}


def _checker(schema: dict) -> _Checker:
    entry = _COMPILED.get(id(schema))
    if entry is None:
        entry = _COMPILED[id(schema)] = (schema, _compile(schema))
    return entry[1]


def _compile(schema: dict) -> _Checker:
    """The one checker for the shape of ``schema``'s keys.

    The published schemas use seven node shapes: ``const``, ``enum``, a
    bare ``type``, and a ``type`` with either a pattern (string), a minimum
    (number), array keywords or object keywords. The last four checkers
    fold the type check in; an array's checks item counts before items, an
    object's required keys before each key in the value's own order. Any
    other shape, a ``type`` JSON has not, or a keyword that no declared
    type reads, raises ``ValueError``: it is a bug in the schema, not bad
    input.
    """
    keys = schema.keys()
    if keys == {"const"}:
        return _const_checker(schema["const"])
    if keys == {"enum"}:
        return _enum_checker(schema["enum"])
    if "type" in keys:
        kinds = schema["type"]
        if isinstance(kinds, str):
            kinds = [kinds]
        if any(kind not in _JSON_TYPES for kind in kinds):
            raise ValueError(
                f"no checker for a schema node of type {schema['type']!r}"
            )
        types = frozenset(t for kind in kinds for t in _JSON_TYPES[kind])
        expected = " or ".join(kinds)
        rest = keys - {"type"}
        if not rest:
            return _type_checker(types, expected)
        if rest == {"pattern"} and str in types:
            return _string_checker(schema, types, expected)
        if rest == {"minimum"} and types & {int, float}:
            return _number_checker(schema, types, expected)
        if rest <= _ARRAY_KEYWORDS and list in types:
            return _array_checker(schema, types, expected)
        if rest <= _OBJECT_KEYWORDS and dict in types:
            return _object_checker(schema, types, expected)
    raise ValueError(f"no checker for a schema node with keys {sorted(keys)}")


def _wrong_type(expected: str, value: object) -> _Mismatch:
    kind = _KINDS.get(type(value), type(value).__name__)
    return _Mismatch(f"expected {expected}, got {kind}")


def _type_checker(types: frozenset, expected: str) -> _Checker:
    def check(value: object) -> None:
        if type(value) not in types:
            raise _wrong_type(expected, value)

    return check


def _const_checker(const: object) -> _Checker:
    kind = type(const)

    def check(value: object) -> None:
        if type(value) is not kind or value != const:
            raise _Mismatch(f"expected {const!r}, got {value!r}")

    return check


def _enum_checker(options: list) -> _Checker:
    members = frozenset((type(option), option) for option in options)

    def check(value: object) -> None:
        try:
            if (type(value), value) in members:
                return
        except TypeError:  # an array or object, which no enum of scalars holds
            pass
        raise _Mismatch(f"{value!r} is not one of {options!r}")

    return check


def _ecma_regex(pattern: str) -> re.Pattern:
    """``pattern`` compiled so that ``$`` matches only at the end of the
    string, as in ECMA-262; Python's ``$`` also matches before a final
    newline, and ``\\Z`` is ECMA's ``$``."""
    out, escaped, in_class = [], False, False
    for char in pattern:
        if escaped:
            escaped = False
        elif char == "\\":
            escaped = True
        elif in_class:
            in_class = char != "]"
        elif char == "[":
            in_class = True
        elif char == "$":
            char = r"\Z"
        out.append(char)
    return re.compile("".join(out))


def _string_checker(schema: dict, types: frozenset, expected: str) -> _Checker:
    pattern = schema["pattern"]
    search = _ecma_regex(pattern).search

    def check(value: object) -> None:
        if type(value) is str:
            if search(value) is None:
                raise _Mismatch(f"{value!r} does not match {pattern!r}")
        elif type(value) not in types:
            raise _wrong_type(expected, value)

    return check


def _number_checker(schema: dict, types: frozenset, expected: str) -> _Checker:
    minimum = schema["minimum"]
    numbers = types & {int, float}

    def check(value: object) -> None:
        if type(value) in numbers:
            if value < minimum:
                raise _Mismatch(f"{value!r} is below {minimum}")
        elif type(value) not in types:
            raise _wrong_type(expected, value)

    return check


def _array_checker(schema: dict, types: frozenset, expected: str) -> _Checker:
    least = schema.get("minItems", 0)
    most = schema.get("maxItems")
    items = _checker(schema["items"]) if "items" in schema else None

    def check(value: object) -> None:
        if type(value) is list:
            if len(value) < least:
                raise _Mismatch(f"needs at least {least} items")
            if most is not None and len(value) > most:
                raise _Mismatch(f"allows at most {most} items")
            if items is not None:
                try:
                    for i, item in enumerate(value):
                        items(item)
                except _Mismatch as exc:
                    exc.path.append(f"[{i}]")
                    raise
        elif type(value) not in types:
            raise _wrong_type(expected, value)

    return check


def _object_checker(schema: dict, types: frozenset, expected: str) -> _Checker:
    if schema.get("additionalProperties") is not False:
        raise ValueError("an object schema must set additionalProperties to false")
    properties = {
        key: _checker(sub) for key, sub in schema.get("properties", {}).items()
    }
    required = tuple(schema.get("required", ()))
    needed = frozenset(required)

    def check(value: object) -> None:
        if type(value) is dict:
            if not value.keys() >= needed:
                missing = next(key for key in required if key not in value)
                raise _Mismatch(f"missing {missing!r}")
            try:
                for key, item in value.items():
                    properties[key](item)
            except KeyError:  # a key the schema does not name
                raise _Mismatch(f"unexpected key {key!r}") from None
            except _Mismatch as exc:
                exc.path.append(f".{key}")
                raise
        elif type(value) not in types:
            raise _wrong_type(expected, value)

    return check


def dump_json(payload: dict) -> str:
    """The one deterministic text form of every JSON payload bintruth writes.

    Byte for byte what the standard ``json`` encoder writes with
    ``sort_keys=True, indent=2``, plus a newline, but without the
    pure-Python encoder that any ``indent`` selects there. Only the exact
    types ``json.loads`` gives back are written: a ``dict`` with ``str``
    keys, ``list``, ``str``, ``int``, finite ``float``, ``True``, ``False``
    and ``None``. NaN and infinity raise ``ValueError``; any other type,
    a subclass of one of these among them, and a key that is not a
    ``str`` raise ``TypeError``.
    """
    return _encode(payload, "\n") + "\n"


def _encode(value, newline: str) -> str:
    """``value`` as indented JSON; ``newline`` starts each of its lines."""
    kind = type(value)  # exact types: True is no int, and no subclass slips by
    if kind is str:
        return _string(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        # _string refuses a key that is not a str, as sorted refuses mixed keys.
        members = [
            _string(key) + ": " + _encode(value[key], inner) for key in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(members) + newline + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is float:
        if not math.isfinite(value):
            raise ValueError(f"out of range float {value!r} is not JSON")
        return float.__repr__(value)
    raise TypeError(f"object of type {kind.__name__} is not JSON serializable")


def _load(text: str, schema: dict) -> dict:
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise SchemaError(f"not valid JSON: {exc}") from exc
    _check(payload, schema, "$")
    return payload


def _config_payload(config: RunConfig) -> dict:
    edges = None
    if config.call_edges is not None:
        edges = [[_hex(a), _hex(b)] for a, b in config.call_edges]
    return {
        "merge_multi_entry": config.merge_multi_entry,
        "start_mismatch_tolerance": config.start_mismatch_tolerance,
        "noreturn_seeds": list(config.seeds()),
        "call_edges": edges,
    }


def _metric_payload(value: Fraction) -> dict:
    return {"exact": str(value), "approx": float(value)}


def _metrics_payload(precision: Fraction, recall: Fraction, f1: Fraction) -> dict:
    return {
        "precision": _metric_payload(precision),
        "recall": _metric_payload(recall),
        "f1": _metric_payload(f1),
    }


def _runs_payload(byte_map: ByteClassMap) -> list[dict]:
    return [
        {
            "start": _hex(run.start),
            "length": run.length,
            "class": run.klass,
            "confidence": run.confidence,
        }
        for run in byte_map.runs
    ]


def _byte_map(runs: list[dict]) -> ByteClassMap:
    return ByteClassMap(
        runs=tuple(
            ByteRun(int(r["start"], 16), r["length"], r["class"], r["confidence"])
            for r in runs
        )
    )


def function_payload(fn: GroundTruthFunction) -> dict:
    """The JSON object of one ground-truth function, keys in document order."""
    return {
        "name": fn.canonical_name,
        "entries": [_hex(e) for e in fn.entry_points],
        "start": _hex(fn.start),
        "end_raw": _hex(fn.end_exclusive_raw),
        "end_trimmed": _hex(fn.end_exclusive_trimmed),
        "aliases": list(fn.aliases),
        "group": fn.specialization_group,
        "flags": sorted(fn.flags),
        "provenance": sorted(fn.provenance),
        "source": None
        if fn.source is None
        else {"file": fn.source[0], "line": fn.source[1]},
    }


def document_to_json(doc: GroundTruthDocument, config: RunConfig | None = None) -> str:
    config = config or RunConfig()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "meta": {"generator": GENERATOR, "config": _config_payload(config)},
        "binary": {
            "path": doc.binary.source_path,
            "digest_hex": doc.binary.content_digest.hex(),
            "word_size": doc.binary.word_size,
            "machine": machine_label(doc.binary.machine, doc.binary.machine_code),
        },
        "functions": [function_payload(fn) for fn in doc.functions],
        "byte_classes": _runs_payload(doc.byte_classes),
        "diagnostics": [
            {
                "severity": d.severity,
                "code": d.code,
                "message": d.message,
                "span": None
                if d.span is None
                else {"start": _hex(d.span[0]), "length": d.span[1]},
            }
            for d in doc.diagnostics
        ],
        "complete": doc.complete,
    }
    return dump_json(payload)


_MACHINE_CODES = {name: code for code, name in MACHINE_NAMES.items()}
# Canonical ASCII decimal of at most five digits; e_machine is 16 bits.
_OTHER_MACHINE = re.compile(r"other\((0|[1-9][0-9]{0,4})\)")


def _machine_from_label(label: str) -> tuple[str, int]:
    """The (machine, code) pair whose :func:`machine_label` is ``label``."""
    if label in _MACHINE_CODES:
        return label, _MACHINE_CODES[label]
    match = _OTHER_MACHINE.fullmatch(label)
    if match:
        code = int(match[1])
        if code < 1 << 16 and code not in MACHINE_NAMES:
            return "other", code
    raise SchemaError(f"unrecognized machine label {label!r}")


def document_from_json(text: str) -> GroundTruthDocument:
    payload = _load(text, GROUND_TRUTH_SCHEMA)
    try:
        doc = _document(payload)
    except SchemaError:
        raise
    except ValueError as exc:  # a model invariant the schema cannot state
        raise SchemaError(str(exc)) from exc
    _check_document(doc)
    return doc


def _document(payload: dict) -> GroundTruthDocument:
    machine, machine_code = _machine_from_label(payload["binary"]["machine"])
    functions = []
    for fn in payload["functions"]:
        entries = tuple(int(e, 16) for e in fn["entries"])
        if int(fn["start"], 16) != entries[0]:
            raise SchemaError(
                f"function {fn['name']!r}: start disagrees with entries[0]"
            )
        functions.append(
            GroundTruthFunction(
                canonical_name=fn["name"],
                entry_points=entries,
                end_exclusive_raw=int(fn["end_raw"], 16),
                end_exclusive_trimmed=int(fn["end_trimmed"], 16),
                aliases=tuple(fn["aliases"]),
                specialization_group=fn["group"],
                flags=frozenset(fn["flags"]),
                provenance=frozenset(fn["provenance"]),
                source=None
                if fn["source"] is None
                else (fn["source"]["file"], fn["source"]["line"]),
            )
        )
    diagnostics = tuple(
        Diagnostic(
            d["severity"],
            d["code"],
            d["message"],
            span=None
            if d["span"] is None
            else (int(d["span"]["start"], 16), d["span"]["length"]),
        )
        for d in payload["diagnostics"]
    )
    return GroundTruthDocument(
        binary=BinarySummary(
            source_path=payload["binary"]["path"],
            content_digest=bytes.fromhex(payload["binary"]["digest_hex"]),
            word_size=payload["binary"]["word_size"],
            machine=machine,
            machine_code=machine_code,
        ),
        functions=tuple(functions),
        byte_classes=_byte_map(payload["byte_classes"]),
        diagnostics=diagnostics,
        complete=payload["complete"],
    )


def _check_document(doc: GroundTruthDocument) -> None:
    """The invariants :func:`build_ground_truth` guarantees."""
    for fn in doc.functions:
        if not fn.entry_points[-1] < fn.end_exclusive_trimmed <= fn.end_exclusive_raw:
            raise SchemaError(
                f"function {fn.canonical_name!r}: needs every entry < "
                "end_trimmed <= end_raw"
            )
    for before, fn in zip(doc.functions, doc.functions[1:]):
        if fn.start < before.end_exclusive_raw:
            raise SchemaError(
                f"function {fn.canonical_name!r} starts before the end_raw "
                f"of function {before.canonical_name!r}"
            )
    end = 0
    for run in doc.byte_classes.runs:
        if run.start < end:
            raise SchemaError(
                f"byte run at {run.start:#x} overlaps or precedes the run before it"
            )
        end = run.end
    if doc.complete != is_complete(doc.diagnostics):
        raise SchemaError(
            "complete must be true exactly when no error-severity "
            "GT_INCOMPLETE_EXCLUDED diagnostic is present"
        )


def report_to_json(report: ToolReport) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": report.tool_name, "version": report.tool_version},
        "binary_digest_hex": report.binary_digest.hex(),
        "functions": [
            {"start": _hex(start), "size": size}
            for start, size in report.predicted_functions
        ],
    }
    return dump_json(payload)


def report_from_json(text: str) -> ToolReport:
    payload = _load(text, TOOL_REPORT_SCHEMA)
    return ToolReport(
        tool_name=payload["tool"]["name"],
        tool_version=payload["tool"]["version"],
        binary_digest=bytes.fromhex(payload["binary_digest_hex"]),
        predicted_functions=tuple(
            (int(f["start"], 16), f["size"]) for f in payload["functions"]
        ),
    )


def score_to_json(result: ScoreResult) -> str:
    policy = None
    if result.policy is not None:
        policy = {
            "start_rule": result.policy.start_rule,
            "boundary_rule": result.policy.boundary_rule,
            "reject_incomplete_truth": result.policy.reject_incomplete_truth,
        }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "policy": policy,
        "counts": {
            "true_positives": result.true_positives,
            "false_positives": result.false_positives,
            "false_negatives": result.false_negatives,
        },
        "metrics": _metrics_payload(result.precision, result.recall, result.f1),
        "mismatches": [
            {"kind": m.kind, "address": _hex(m.address), "detail": m.detail}
            for m in result.mismatches
        ],
        "warnings": list(result.warnings),
    }
    return dump_json(payload)


def corpus_to_json(summary: CorpusSummary) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n": summary.n,
        "micro": _metrics_payload(
            summary.micro_precision, summary.micro_recall, summary.micro_f1
        ),
        "macro": _metrics_payload(
            summary.macro_precision, summary.macro_recall, summary.macro_f1
        ),
        "fraction_perfect": _metric_payload(summary.fraction_perfect),
        "below": [
            {"threshold": label, "fraction": _metric_payload(share)}
            for label, share in summary.below
        ],
    }
    return dump_json(payload)
