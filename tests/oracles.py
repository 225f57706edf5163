"""Brute-force reference implementations the tests compare against.

Everything here trades speed for obviousness: a search over every
tiling instead of DP, per-byte loops instead of interval walks, nested
scans instead of maps.
None of it imports the modules under test beyond plain data types.
"""
from __future__ import annotations

import json
import re


def tiles_as_padding(blob: bytes, alphabet: tuple[bytes, ...]) -> bool:
    """True when blob splits completely into alphabet units.

    Searches every position a run of units can reach from the start, with
    an explicit stack so that long blobs do not exhaust Python's; an empty
    unit reaches no new position and is skipped.
    """
    todo, seen = [0], {0}
    while todo:
        pos = todo.pop()
        if pos == len(blob):
            return True
        for unit in alphabet:
            nxt = pos + len(unit)
            if nxt not in seen and blob.startswith(unit, pos):
                seen.add(nxt)
                todo.append(nxt)
    return False


class NoBytesError(LookupError):
    """A virtual-address range has no file-backed content."""


def bytes_at(image, addr: int, length: int) -> bytes:
    """Raw bytes of ``[addr, addr + length)``, found by scanning every section.

    Succeeds iff the range lies inside one mapped, file-backed section;
    raises :class:`NoBytesError` otherwise.
    """
    if length < 0:
        raise NoBytesError(f"negative length {length}")
    for sec in image.sections:
        if sec.vaddr <= addr and addr + length <= sec.end and sec.mapped:
            if sec.file_offset is None:
                raise NoBytesError(f"section {sec.name!r} has no file-backed content")
            off = sec.file_offset + (addr - sec.vaddr)
            return image.raw[off : off + length]
    raise NoBytesError(f"range [{addr:#x}, {addr + length:#x}) not mapped")


def coverage_stats(byte_map) -> dict[str, float]:
    """Fraction of mapped bytes per class; zeros for an empty map."""
    classes = ("code", "padding", "data", "gap_unknown")
    totals = dict.fromkeys(classes, 0)
    for run in byte_map.runs:
        totals[run.klass] += run.length
    grand = sum(totals.values())
    if grand == 0:
        return dict.fromkeys(classes, 0.0)
    return {klass: totals[klass] / grand for klass in classes}


def sleb_encode(value: int) -> bytes:
    """Signed LEB128."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        sign = byte & 0x40
        if (value == 0 and not sign) or (value == -1 and sign):
            out.append(byte)
            return bytes(out)
        out.append(byte | 0x80)


def suffix_trim(
    region: bytes, alphabet: tuple[bytes, ...], entry_offsets: tuple[int, ...]
) -> int:
    """Smallest kept length after shaving a pure-padding suffix.

    Decides every cut point explicitly, from the end back, trying every
    unit at each: ``region[k:]`` tiles when some unit starts at ``k`` and
    what follows it tiles. That is linear in the region, so a megabyte
    body is checked too. The cut never removes an entry point and never
    empties the region.
    """
    n = len(region)
    tiles = [False] * n + [True]
    for k in range(n - 1, -1, -1):
        for unit in alphabet:
            if unit and region.startswith(unit, k) and tiles[k + len(unit)]:
                tiles[k] = True
                break
    lowest = tiles.index(True)
    floor = max(max(off for off in entry_offsets) + 1, 1)
    return min(max(lowest, floor), n)


def match_counts(
    truth_functions,
    predictions: list[tuple[int, int | None]],
    start_rule: str,
    boundary_rule: str,
) -> tuple[int, int, int]:
    """(tp, fp, fn) by exhaustive scanning, mirroring the match contract."""
    consumed = [False] * len(truth_functions)
    tp = fp = 0
    boundary_misses = 0
    # By start, then size, a missing size first; None never meets an int.
    ordered = sorted(predictions, key=lambda p: (p[0], p[1] is not None, p[1] or 0))
    for start, size in ordered:
        hit = None
        for i, fn in enumerate(truth_functions):
            if consumed[i]:
                continue
            entries = (
                fn.entry_points
                if start_rule == "any_entry"
                else fn.entry_points[:1]
            )
            if start in entries:
                hit = i
                break
        if hit is None:
            fp += 1
            continue
        consumed[hit] = True
        fn = truth_functions[hit]
        if boundary_rule == "ignore":
            tp += 1
            continue
        trimmed = fn.end_exclusive_trimmed - fn.entry_points[0]
        raw = fn.end_exclusive_raw - fn.entry_points[0]
        if boundary_rule == "strict_trimmed":
            good = size == trimmed
        elif boundary_rule == "strict_raw":
            good = size == raw
        elif boundary_rule == "padding_tolerant":
            good = trimmed <= size <= raw
        elif boundary_rule == "legacy_lenient":
            good = size <= raw
        else:
            raise ValueError(boundary_rule)
        if good:
            tp += 1
        else:
            fp += 1
            boundary_misses += 1
    fn_count = sum(1 for c in consumed if not c) + boundary_misses
    return tp, fp, fn_count


def classify_per_byte(
    image, spans: list[tuple[int, int, int]], alphabet: tuple[bytes, ...]
) -> dict[int, tuple[str, str]]:
    """Address -> (class, confidence) for every allocated byte."""
    out: dict[int, tuple[str, str]] = {}
    for sec in image.sections:
        if not sec.allocated or sec.size == 0:
            continue
        if not sec.executable:
            for addr in range(sec.vaddr, sec.end):
                out[addr] = ("data", "certain")
            continue
        inside = sorted(s for s in spans if sec.vaddr <= s[0] < sec.end)
        for start, trimmed, raw in inside:
            for addr in range(start, trimmed):
                out[addr] = ("code", "certain")
            for addr in range(trimmed, raw):
                out[addr] = ("padding", "certain")
        # Whatever remains is gap; label each maximal extent as a whole.
        gaps: list[list[int]] = []
        for addr in range(sec.vaddr, sec.end):
            if addr in out:
                continue
            if gaps and gaps[-1][-1] == addr - 1:
                gaps[-1].append(addr)
            else:
                gaps.append([addr])
        for gap in gaps:
            if sec.file_offset is None:
                klass = "gap_unknown"
            else:
                lo = sec.file_offset + (gap[0] - sec.vaddr)
                blob = image.raw[lo : lo + len(gap)]
                klass = (
                    "padding" if tiles_as_padding(blob, alphabet) else "gap_unknown"
                )
            for addr in gap:
                out[addr] = (klass, "heuristic")
    return out


def float_metrics(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall, F1 in plain floats, empty comparison included."""
    if tp == fp == fn == 0:
        return 1.0, 1.0, 1.0
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    if precision + recall == 0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


# --- interchange schemas --------------------------------------------------------

_JSON_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _is(value: object, kind: str) -> bool:
    if isinstance(value, bool):  # JSON true is no number, though True == 1
        return kind == "boolean"
    return isinstance(value, _JSON_TYPES[kind])


def _kind(value: object) -> str:
    return next(kind for kind in _JSON_TYPES if _is(value, kind))


def _same(value: object, expected: object) -> bool:
    return type(value) is type(expected) and value == expected


def _search(pattern: str, value: str) -> bool:
    # Every ``$`` in the published patterns is an anchor. ECMA-262 anchors it
    # at the end of the string only; Python's ``$`` also before a final
    # newline, and ``\Z`` is ECMA's ``$``.
    return re.search(pattern.replace("$", r"\Z"), value) is not None


def schema_failure(value: object, schema: dict, where: str = "$") -> str | None:
    """The first failure of ``value`` against ``schema`` as ``path: message``,
    or None when it passes, by re-reading the schema dict at every node."""
    path: list[str] = []

    def walk(value: object, schema: dict) -> str | None:
        kinds = schema.get("type")
        if kinds is not None:
            if isinstance(kinds, str):
                kinds = (kinds,)
            if not any(_is(value, kind) for kind in kinds):
                return f"expected {' or '.join(kinds)}, got {_kind(value)}"
        if "const" in schema and not _same(value, schema["const"]):
            return f"expected {schema['const']!r}, got {value!r}"
        if "enum" in schema and not any(_same(value, o) for o in schema["enum"]):
            return f"{value!r} is not one of {schema['enum']!r}"
        if isinstance(value, str):
            if "pattern" in schema and not _search(schema["pattern"], value):
                return f"{value!r} does not match {schema['pattern']!r}"
        elif _is(value, "number"):
            if "minimum" in schema and value < schema["minimum"]:
                return f"{value!r} is below {schema['minimum']}"
        elif isinstance(value, list):
            if len(value) < schema.get("minItems", 0):
                return f"needs at least {schema['minItems']} items"
            if len(value) > schema.get("maxItems", len(value)):
                return f"allows at most {schema['maxItems']} items"
            if "items" in schema:
                for i, item in enumerate(value):
                    failure = walk(item, schema["items"])
                    if failure is not None:
                        path.append(f"[{i}]")
                        return failure
        elif isinstance(value, dict):
            properties = schema.get("properties", {})
            for key in schema.get("required", ()):
                if key not in value:
                    return f"missing {key!r}"
            for key, item in value.items():
                if key in properties:
                    failure = walk(item, properties[key])
                    if failure is not None:
                        path.append(f".{key}")
                        return failure
                elif schema.get("additionalProperties") is False:
                    return f"unexpected key {key!r}"
        return None

    failure = walk(value, schema)
    if failure is None:
        return None
    return where + "".join(reversed(path)) + ": " + failure


_ADDRESS = {"type": "string", "pattern": "^0x[0-9a-f]+$"}


def loaded(value: object, schema: dict) -> object:
    """What loading gives for ``value``, which satisfies ``schema``: each
    object the tuple of its properties in the schema's order, each array
    the tuple of its items, and each address string its integer."""
    if isinstance(value, dict):
        return tuple(
            loaded(value[key], sub) for key, sub in schema["properties"].items()
        )
    if isinstance(value, list):
        return tuple(loaded(item, schema["items"]) for item in value)
    if schema == _ADDRESS:
        return int(value[2:], 16)
    return value


def reference_dump(payload: object) -> str:
    """The published text form of a JSON payload, by the standard encoder."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def reference_payload(doc, config, generator: str) -> dict:
    """The JSON payload of a ground-truth document and the config that
    made it, built field by field from the model objects."""

    def hexa(value: int) -> str:
        return f"0x{value:x}"

    binary = doc.binary
    code = binary.machine_code
    machine = {3: "x86", 62: "x86_64"}.get(code, f"other({code})")
    edges = config.call_edges
    return {
        "schema_version": 1,
        "meta": {
            "generator": generator,
            "config": {
                "merge_multi_entry": config.merge_multi_entry,
                "start_mismatch_tolerance": config.start_mismatch_tolerance,
                "noreturn_seeds": list(config.seeds()),
                "call_edges": None
                if edges is None
                else [[hexa(a), hexa(b)] for a, b in edges],
            },
        },
        "binary": {
            "path": binary.source_path,
            "digest_hex": binary.content_digest.hex(),
            "word_size": binary.word_size,
            "machine": machine,
        },
        "functions": [
            {
                "name": fn.canonical_name,
                "entries": [hexa(e) for e in fn.entry_points],
                "start": hexa(fn.start),
                "end_raw": hexa(fn.end_exclusive_raw),
                "end_trimmed": hexa(fn.end_exclusive_trimmed),
                "aliases": list(fn.aliases),
                "group": fn.specialization_group,
                "flags": sorted(fn.flags),
                "provenance": sorted(fn.provenance),
                "source": None
                if fn.source is None
                else {"file": fn.source[0], "line": fn.source[1]},
            }
            for fn in doc.functions
        ],
        "byte_classes": [
            {
                "start": hexa(run.start),
                "length": run.length,
                "class": run.klass,
                "confidence": run.confidence,
            }
            for run in doc.byte_classes.runs
        ],
        "diagnostics": [
            {
                "severity": d.severity,
                "code": d.code,
                "message": d.message,
                "span": None
                if d.span is None
                else {"start": hexa(d.span[0]), "length": d.span[1]},
            }
            for d in doc.diagnostics
        ],
        "complete": doc.complete,
    }
