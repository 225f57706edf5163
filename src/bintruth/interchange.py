"""Deterministic JSON interchange for documents, reports, and scores.

The same input always serializes to byte-identical output: keys are
sorted, indentation is fixed, addresses are lowercase ``0x`` hex as
:func:`hex` spells them, lengths and counts are decimal, and nothing
carries a timestamp. Every text is byte for byte the standard ``json``
encoder's with ``sort_keys=True, indent=2`` plus a newline. Reports,
scores and corpus summaries are written by :func:`dump_json`, which
refuses NaN and infinity, the non-JSON tokens that encoder would write.
A ground-truth document is written by :func:`document_to_json` straight
from the model, one template per record kind (function, byte run,
diagnostic), with the same bytes.

The four ``*_SCHEMA`` dicts are the published contract. Every load is
checked against its schema by :func:`_check`. On first use in a process,
a schema becomes the source of one Python function, its acceptor, that
alone decides, and returns a value that passes as tuples and integers
that the loaders build the model from, reading no JSON key. It decides
an object by its size and a read of each key it lists, which is exact
because every published object is closed and requires all of them. It
parses an address with ``int(s, 16)`` and passes it when :func:`hex`
spells the value back as ``s``; only another spelling, such as one with
leading zeros, is tested with the address pattern. Only after a refusal
does a short interpreter, :func:`_explain`, name the first failure by
its JSON path (a pattern's ``$`` matches only at the end of the string,
as in ECMA-262); it descends only into the child that the child's own
acceptor refuses. Both know only the node shapes those schemas use; any
other shape raises ``ValueError``, as a bug in the schema, not as bad
input. A loaded ground-truth document must also satisfy the invariants
:func:`build_ground_truth` guarantees, so malformed files fail loudly at
the boundary instead of deep inside scoring. They are checked in the
pass that builds the document, each function and byte run as it is
built, so the first fault of a list is the one named. Dumps are not
re-checked: the program builds them from objects whose inputs were
checked where they entered, and the test suite holds emitted output to
the schemas.
"""
from __future__ import annotations

import functools
import json
import math
import re
from collections.abc import Callable
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from . import __version__
from .byteclass import CLASSES, CONFIDENCES, ByteClassMap, ByteRun
from .model import MACHINE_NAMES, SEVERITIES, Diagnostic, machine_label
from .normalize import (
    PROVENANCE_KINDS,
    BinarySummary,
    GroundTruthDocument,
    GroundTruthFunction,
    RunConfig,
)
from .scoring import MISMATCH_KINDS, CorpusSummary, ScoreResult, ToolReport

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
        "severity": {"enum": list(SEVERITIES)},
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
        "class": {"enum": list(CLASSES)},
        "confidence": {"enum": list(CONFIDENCES)},
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
        "provenance": {"type": "array", "items": {"enum": list(PROVENANCE_KINDS)}},
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
                    "kind": {"enum": list(MISMATCH_KINDS)},
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


# Every address is written as hex spells it, lowercase 0x hex with no
# leading zeros: for an int >= 0 the text of f"0x{value:x}", in one C call.
_hex = hex


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

# The value types of a published enum: one, so that an exact type test and
# a set of values decide it.
_ENUM_TYPES = (frozenset({str}), frozenset({int}))

_Acceptor = Callable[[object], object]

# What an acceptor returns for a value that fails its schema.
_REFUSED = object()


def _check(value: object, schema: dict, where: str) -> object:
    """``value`` as loaded if it satisfies ``schema``; else raise SchemaError.

    ``value`` is what ``json.loads`` returns. The schema's generated
    acceptor decides and loads (see :func:`_generate`); only after it
    refuses does :func:`_explain` name the first failure, and it alone
    writes schema messages. Only the node shapes the published schemas
    use are built (see :func:`_shape`), and on them the check matches
    JSON Schema; any other shape, an object schema that allows other keys
    or leaves a key optional among them, raises ``ValueError``, not
    ``SchemaError``, as a bug in the schema rather than bad input. Three
    rules are stricter than jsonschema's: a float never counts as an
    integer; ``enum``/``const`` compare types as
    well as values (``32.0`` is not ``32``); and a pattern's ``$`` matches
    only at the end of the string, as in ECMA-262 (``"0x10\\n"`` is no
    address). The message starts with the failing node's JSON path below
    ``where``; the failure reported is the first in the value's own key
    order. When the acceptor refuses what :func:`_explain` finds nothing
    wrong with, the two disagree: that raises ``RuntimeError``, a bug,
    never ``SchemaError``.
    """
    loaded = _acceptor(schema)(value)
    if loaded is not _REFUSED:
        return loaded
    failure = _explain(value, schema)
    if failure is None:
        raise RuntimeError(f"{where}: the schema acceptor and checker disagree")
    raise SchemaError(where + failure)


# Acceptors by schema identity. Each entry holds its schema, so no id is
# reused while it is cached, and the published schemas are built once.
_ACCEPTORS: dict[int, tuple[dict, _Acceptor]] = {}


def _acceptor(schema: dict) -> _Acceptor:
    entry = _ACCEPTORS.get(id(schema))
    if entry is None:
        entry = _ACCEPTORS[id(schema)] = (schema, _generate(schema))
    return entry[1]


def _shape(schema: dict) -> tuple[str, frozenset, str]:
    """The node shape of ``schema``, the Python types its ``type`` admits,
    and their names as a message gives them.

    The published schemas use seven shapes: ``const``, ``enum`` (of
    strings or of integers, never mixed: its type is that of its values),
    a bare ``type``, and a ``type`` with either a pattern (``string``), a
    minimum (``number``), array keywords (``array``) or object keywords
    (``object``), the last always closed by ``additionalProperties:
    false`` and requiring every property it lists. Any other shape, a
    ``type`` JSON has not, or a keyword that no declared type reads, raises
    ``ValueError``: it is a bug in the schema, not bad input.
    """
    keys = schema.keys()
    if keys == {"const"}:
        return "const", frozenset(), ""
    if keys == {"enum"}:
        types = frozenset(type(option) for option in schema["enum"])
        if types not in _ENUM_TYPES:
            raise ValueError(
                f"no checker for an enum of values {schema['enum']!r}: all "
                "must be strings or all integers"
            )
        return "enum", types, ""
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
            return "type", types, expected
        if rest == {"pattern"} and str in types:
            return "string", types, expected
        if rest == {"minimum"} and types & {int, float}:
            return "number", types, expected
        if rest <= _ARRAY_KEYWORDS and list in types:
            return "array", types, expected
        if rest <= _OBJECT_KEYWORDS and dict in types:
            if schema.get("additionalProperties") is not False:
                raise ValueError(
                    "an object schema must set additionalProperties to false"
                )
            if set(schema.get("required", ())) != schema.get("properties", {}).keys():
                raise ValueError(
                    "no checker for an object schema with an optional property"
                )
            return "object", types, expected
    raise ValueError(f"no checker for a schema node with keys {sorted(keys)}")


def _explain(value: object, schema: dict) -> str | None:
    """The first failure of ``value`` against ``schema`` as ``"<path below
    this node>: <message>"``, or None when there is none.

    The message is written only at the failing node. An array's item
    counts come before its items, an object's required keys before each
    key in the value's own order. Only the first child that its own
    acceptor refuses is explained, so a refusal walks the value's
    accepted parts no more than the acceptors do.
    """
    shape, types, expected = _shape(schema)
    kind = type(value)
    if shape == "const":
        const = schema["const"]
        if kind is not type(const) or value != const:
            return f": expected {const!r}, got {value!r}"
        return None
    if shape == "enum":
        options = schema["enum"]
        if kind not in types or value not in options:
            return f": {value!r} is not one of {options!r}"
        return None
    if shape == "string" and kind is str:
        if _ecma_regex(schema["pattern"]).search(value) is None:
            return f": {value!r} does not match {schema['pattern']!r}"
    elif shape == "number" and kind in types & {int, float}:
        if value < schema["minimum"]:
            return f": {value!r} is below {schema['minimum']}"
    elif shape == "array" and kind is list:
        if len(value) < schema.get("minItems", 0):
            return f": needs at least {schema['minItems']} items"
        if len(value) > schema.get("maxItems", len(value)):
            return f": allows at most {schema['maxItems']} items"
        if "items" in schema:
            sub = schema["items"]
            accept = _acceptor(sub)
            for i, item in enumerate(value):
                if accept(item) is _REFUSED:
                    failure = _explain(item, sub)
                    return None if failure is None else f"[{i}]{failure}"
    elif shape == "object" and kind is dict:
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                return f": missing {key!r}"
        for key, item in value.items():
            sub = properties.get(key)
            if sub is None:
                return f": unexpected key {key!r}"
            if _acceptor(sub)(item) is _REFUSED:
                failure = _explain(item, sub)
                return None if failure is None else f".{key}{failure}"
    elif kind not in types:
        return f": expected {expected}, got {_KINDS.get(kind, kind.__name__)}"
    return None


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


def _generate(schema: dict) -> _Acceptor:
    """One Python function that returns a value that satisfies ``schema``
    as loaded, else ``_REFUSED``: each object the tuple of its properties
    in the schema's order, each array the tuple of its items, and each
    ``_HEX`` address its ``int(s, 16)``. That value ``n`` stands without
    the pattern when ``n >= 0`` and ``hex(n) == s``, since the pattern
    passes ``hex(n)`` for every ``n >= 0``. Any other spelling goes to the
    pattern: ``int`` also takes ``0X10``, ``0x_10``, ``+0x10``, ``-0x10``
    and spaces, which it refuses, and leading zeros, which it passes.

    Its source is straight-line code for each node: the type test, the
    node's own tests, a loop over an array's items, and for an object a
    test of its size followed by a read of each property and that
    property's code. The size test is exact because :func:`_shape` admits
    only closed objects that require every property they list, and a dict
    from ``json.loads`` has unique keys: one of that size from which every
    listed key reads holds exactly those keys. A missing key raises
    ``KeyError``, and a string ``int`` cannot parse (``0x``) ``ValueError``,
    which the one ``try`` around the body turns into ``_REFUSED``; the
    pattern refuses every such string too. Per value it calls only C code
    (``int`` and ``hex`` on an address, a pattern's regex on any other
    patterned string or an address ``hex`` does not spell back, ``tuple``,
    ``append``) and keeps no JSON path; ``_REFUSED`` says only that
    :func:`_explain` will name a failure. The source holds nothing but
    names: every schema constant it tests against, and ``int``, ``hex``,
    ``0``, ``tuple``, ``KeyError``, ``ValueError`` and ``_REFUSED``, is
    bound in the namespace it is compiled in, so no schema or input text
    reaches it, and ``append`` is the one attribute it reads. Nodes are
    classified by :func:`_shape`, as :func:`_explain` classifies them, so
    both refuse the same unpublished shapes.
    """
    source = _AcceptorSource()
    source.emit(schema, "v0", 2)
    missing, malformed = source.constant(KeyError), source.constant(ValueError)
    text = "\n".join(
        [
            "def accept(v0):",
            "    try:",
            *source.lines,
            f"    except ({missing}, {malformed}):",
            f"        return {source.refused}",
            "    return v0",
        ]
    )
    namespace = dict(source.constants)
    exec(compile(text, "<schema acceptor>", "exec"), namespace)
    return namespace["accept"]


class _AcceptorSource:
    """The lines of a generated acceptor and the constants they read."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.constants: dict[str, object] = {}
        self.names = 0
        self.refused = self.constant(_REFUSED)

    def constant(self, value: object) -> str:
        name = f"c{len(self.constants)}"
        self.constants[name] = value
        return name

    def local(self) -> str:
        self.names += 1
        return f"v{self.names}"

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def refuse_if(self, depth: int, test: str) -> None:
        self.line(depth, f"if {test}: return {self.refused}")

    def is_type(self, x: str, types: frozenset) -> str:
        if len(types) == 1:
            return f"type({x}) is {self.constant(next(iter(types)))}"
        return f"type({x}) in {self.constant(types)}"

    def not_type(self, x: str, types: frozenset) -> str:
        if len(types) == 1:
            return f"type({x}) is not {self.constant(next(iter(types)))}"
        return f"type({x}) not in {self.constant(types)}"

    def emit(self, schema: dict, x: str, depth: int) -> None:
        """The lines that refuse ``x`` unless it satisfies ``schema``, then load it."""
        shape, types, _expected = _shape(schema)
        if shape == "const":
            const = schema["const"]
            kind, value = self.constant(type(const)), self.constant(const)
            test = f"type({x}) is not {kind} or {x} != {value}"
        elif shape == "enum":
            members = self.constant(frozenset(schema["enum"]))
            test = f"{self.not_type(x, types)} or {x} not in {members}"
        elif shape == "type":
            test = self.not_type(x, types)
        else:
            self._typed(shape, schema, types, x, depth)
            return
        self.refuse_if(depth, test)

    def _typed(
        self, shape: str, schema: dict, types: frozenset, x: str, depth: int
    ) -> None:
        """A node whose own tests apply to one of its types: they run under
        a test for that type, and any other type must be one ``types`` has."""
        own = {
            "string": frozenset({str}),
            "number": types & {int, float},
            "array": frozenset({list}),
            "object": frozenset({dict}),
        }[shape]
        outer, self.lines = self.lines, []
        inner = depth if own == types else depth + 1
        if shape == "string":
            search = self.constant(_ecma_regex(schema["pattern"]).search)
            if schema == _HEX:
                # The pattern passes hex(n) for every n >= 0: it decides
                # only a spelling that hex does not give back.
                n = self.local()
                parse, base = self.constant(int), self.constant(16)
                spell, zero = self.constant(hex), self.constant(0)
                self.line(inner, f"{n} = {parse}({x}, {base})")
                self.line(inner, f"if {n} < {zero} or {spell}({n}) != {x}:")
                self.refuse_if(inner + 1, f"{search}({x}) is None")
                self.line(inner, f"{x} = {n}")
            else:
                self.refuse_if(inner, f"{search}({x}) is None")
        elif shape == "number":
            minimum = self.constant(schema["minimum"])
            self.refuse_if(inner, f"{x} < {minimum}")
        elif shape == "array":
            self._array(schema, x, inner)
        else:
            self._object(schema, x, inner)
        body, self.lines = self.lines, outer
        if own == types:
            self.refuse_if(depth, self.not_type(x, types))
            self.lines += body
        else:
            self.line(depth, f"if {self.is_type(x, own)}:")
            self.lines += body
            self.line(depth, f"elif {self.not_type(x, types)}: return {self.refused}")

    def _array(self, schema: dict, x: str, depth: int) -> None:
        if "minItems" in schema:
            least = self.constant(schema["minItems"])
            self.refuse_if(depth, f"len({x}) < {least}")
        if "maxItems" in schema:
            most = self.constant(schema["maxItems"])
            self.refuse_if(depth, f"len({x}) > {most}")
        items = x
        if "items" in schema:
            items, item = self.local(), self.local()
            self.line(depth, f"{items} = []")
            self.line(depth, f"for {item} in {x}:")
            self.emit(schema["items"], item, depth + 1)
            self.line(depth + 1, f"{items}.append({item})")
        self.line(depth, f"{x} = {self.constant(tuple)}({items})")

    def _object(self, schema: dict, x: str, depth: int) -> None:
        properties = schema.get("properties", {})
        size = self.constant(len(properties))
        self.refuse_if(depth, f"len({x}) != {size}")
        values = ""  # each item ends in a comma, so one item still makes a tuple
        for key, sub in properties.items():
            item, name = self.local(), self.constant(key)
            self.line(depth, f"{item} = {x}[{name}]")
            self.emit(sub, item, depth)
            values += f"{item}, "
        self.line(depth, f"{x} = ({values})")


def dump_json(payload: dict) -> str:
    """The deterministic text form of every JSON payload bintruth writes
    but a ground-truth document, which its own templates write with the
    same bytes (:func:`document_to_json`).

    Byte for byte what the standard ``json`` encoder writes with
    ``sort_keys=True, indent=2``, plus a newline. It is not that encoder
    because any ``indent`` selects its pure-Python form, which on Python
    3.10 to 3.12 leaves reference cycles that no command, run with the
    cyclic collector paused, would free. Only the exact
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
        return _items([_encode(item, newline + "  ") for item in value], newline)
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


def _load(text: str, schema: dict) -> tuple:
    # A JSONDecodeError is a ValueError, and so is the refusal of an integer
    # literal too long to convert; a RecursionError is nesting too deep.
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return _check(payload, schema, "$")


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


# A document is written by one template per record kind instead of a
# payload for dump_json: its record shapes are fixed, so each template
# spells out dump_json's text (keys sorted, records two levels deep,
# addresses by _hex, strings by _string, integers by int.__repr__).
_FIELD = "\n      "  # where a record's fields start


def _items(items: list[str], newline: str) -> str:
    """The JSON array whose item texts are ``items``, indented one level
    below ``newline``."""
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]"


@functools.lru_cache(maxsize=64)
def _string_set(values: frozenset[str]) -> str:
    """A function's flags or provenance, sorted, as its JSON array."""
    return _items([_string(v) for v in sorted(values)], _FIELD)


def _function_text(fn: GroundTruthFunction) -> str:
    source = fn.source
    if source is not None:
        source = (
            f'{{\n        "file": {_string(source[0])},'
            f'\n        "line": {int.__repr__(source[1])}\n      }}'
        )
    group = fn.specialization_group
    aliases = [_string(a) for a in fn.aliases]
    entries = [f'"{_hex(e)}"' for e in fn.entry_points]
    return (
        f'{{\n      "aliases": {_items(aliases, _FIELD)},'
        f'\n      "end_raw": "{_hex(fn.end_exclusive_raw)}",'
        f'\n      "end_trimmed": "{_hex(fn.end_exclusive_trimmed)}",'
        f'\n      "entries": {_items(entries, _FIELD)},'
        f'\n      "flags": {_string_set(fn.flags)},'
        f'\n      "group": {"null" if group is None else _string(group)},'
        f'\n      "name": {_string(fn.canonical_name)},'
        f'\n      "provenance": {_string_set(fn.provenance)},'
        f'\n      "source": {"null" if source is None else source},'
        f'\n      "start": "{_hex(fn.entry_points[0])}"\n    }}'
    )


def _run_text(r: ByteRun) -> str:
    return (
        f'{{\n      "class": {_string(r.klass)},'
        f'\n      "confidence": {_string(r.confidence)},'
        f'\n      "length": {int.__repr__(r.length)},'
        f'\n      "start": "{_hex(r.start)}"\n    }}'
    )


def _diagnostic_text(d: Diagnostic) -> str:
    span = d.span
    if span is not None:
        span = (
            f'{{\n        "length": {int.__repr__(span[1])},'
            f'\n        "start": "{_hex(span[0])}"\n      }}'
        )
    return (
        f'{{\n      "code": {_string(d.code)},'
        f'\n      "message": {_string(d.message)},'
        f'\n      "severity": {_string(d.severity)},'
        f'\n      "span": {"null" if span is None else span}\n    }}'
    )


def document_to_json(doc: GroundTruthDocument, config: RunConfig | None = None) -> str:
    """The document's text: byte for byte ``dump_json`` of its payload,
    written by the record templates above."""
    config = config or RunConfig()
    binary = {
        "path": doc.binary.source_path,
        "digest_hex": doc.binary.content_digest.hex(),
        "word_size": doc.binary.word_size,
        "machine": machine_label(doc.binary.machine_code),
    }
    meta = {"generator": GENERATOR, "config": _config_payload(config)}
    return "".join([
        '{\n  "binary": ', _encode(binary, "\n  "),
        ',\n  "byte_classes": ',
        _items([_run_text(r) for r in doc.byte_classes.runs], "\n  "),
        ',\n  "complete": ', _encode(doc.complete, ""),
        ',\n  "diagnostics": ',
        _items([_diagnostic_text(d) for d in doc.diagnostics], "\n  "),
        ',\n  "functions": ',
        _items([_function_text(fn) for fn in doc.functions], "\n  "),
        ',\n  "meta": ', _encode(meta, "\n  "),
        f',\n  "schema_version": {SCHEMA_VERSION}\n}}\n',
    ])


_MACHINE_CODES = {name: code for code, name in MACHINE_NAMES.items()}
# Canonical ASCII decimal of at most five digits; e_machine is 16 bits.
_OTHER_MACHINE = re.compile(r"other\((0|[1-9][0-9]{0,4})\)")


def _machine_from_label(label: str) -> int:
    """The e_machine code whose :func:`machine_label` is ``label``."""
    if label in _MACHINE_CODES:
        return _MACHINE_CODES[label]
    match = _OTHER_MACHINE.fullmatch(label)
    if match:
        code = int(match[1])
        if code < 1 << 16 and code not in MACHINE_NAMES:
            return code
    raise SchemaError(f"unrecognized machine label {label!r}")


def document_from_json(text: str) -> GroundTruthDocument:
    loaded = _load(text, GROUND_TRUTH_SCHEMA)
    try:
        return _document(loaded)
    except SchemaError:
        raise
    except ValueError as exc:  # a model invariant the schema cannot state
        raise SchemaError(str(exc)) from exc


def _document(loaded: tuple) -> GroundTruthDocument:
    """The document a ground truth loads as (see :func:`_generate`),
    checked as it is built against the invariants :func:`build_ground_truth`
    guarantees, so the first fault of each list is the one named."""
    _version, _meta, binary, functions, runs, diagnostics, complete = loaded
    path, digest_hex, word_size, machine = binary
    machine_code = _machine_from_label(machine)
    built = []
    # One frozenset per distinct flags or provenance tuple.
    sets: dict[tuple[str, ...], frozenset[str]] = {}
    end, before = 0, ""  # the end_raw and name of the function before
    for (
        name, entries, start, raw, trimmed, aliases, group, flags, provenance, source
    ) in functions:
        if start != entries[0]:
            raise SchemaError(f"function {name!r}: start disagrees with entries[0]")
        flag_set = sets.get(flags)
        if flag_set is None:
            flag_set = sets[flags] = frozenset(flags)
        provenance_set = sets.get(provenance)
        if provenance_set is None:
            provenance_set = sets[provenance] = frozenset(provenance)
        built.append(
            GroundTruthFunction(
                name,
                entries,
                raw,
                trimmed,
                aliases,
                group,
                flag_set,
                provenance_set,
                source,
            )
        )
        if not entries[-1] < trimmed <= raw:
            raise SchemaError(
                f"function {name!r}: needs every entry < end_trimmed <= end_raw"
            )
        if entries[0] < end:
            raise SchemaError(
                f"function {name!r} starts before the end_raw "
                f"of function {before!r}"
            )
        end, before = raw, name
    diagnostics = tuple([
        Diagnostic(severity, code, message, span)
        for severity, code, message, span in diagnostics
    ])
    byte_runs, end = [], 0
    for start, length, klass, confidence in runs:
        if start < end:
            raise SchemaError(
                f"byte run at {start:#x} overlaps or precedes the run before it"
            )
        end = start + length
        byte_runs.append(ByteRun(start, length, klass, confidence))
    doc = GroundTruthDocument(
        BinarySummary(path, bytes.fromhex(digest_hex), word_size, machine_code),
        tuple(built),
        ByteClassMap(tuple(byte_runs)),
        diagnostics,
    )
    if complete != doc.complete:  # doc.complete is derived
        raise SchemaError(
            "complete must be true exactly when no error-severity "
            "GT_INCOMPLETE_EXCLUDED diagnostic is present"
        )
    return doc


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
    _version, (name, version), digest_hex, functions = _load(text, TOOL_REPORT_SCHEMA)
    return ToolReport(name, version, bytes.fromhex(digest_hex), functions)


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
