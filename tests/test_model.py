import dataclasses
import hashlib
import importlib
import inspect
import pickle
import pkgutil

import pytest

import bintruth
from bintruth import elf, forge, normalize, scoring
from bintruth.elf import section_of
from bintruth.model import (
    DIAGNOSTIC_CODES,
    GT_MISSING_SIZE,
    BinaryImage,
    Diagnostic,
    SectionRecord,
    SymbolRecord,
    digest_binary,
    machine_label,
    record,
)


def test_diagnostic_codes_are_a_closed_set():
    assert len(DIAGNOSTIC_CODES) == 18
    assert all(code.startswith("GT_") for code in DIAGNOSTIC_CODES)


def test_diagnostic_rejects_unknown_severity():
    with pytest.raises(ValueError, match="severity"):
        Diagnostic("fatal", GT_MISSING_SIZE, "boom")


def test_diagnostic_rejects_unknown_code():
    with pytest.raises(ValueError, match="diagnostic code"):
        Diagnostic("info", "GT_NOT_A_CODE", "boom")


def test_diagnostic_span_is_optional():
    d = Diagnostic("warning", GT_MISSING_SIZE, "no size")
    assert d.span is None
    d2 = Diagnostic("warning", GT_MISSING_SIZE, "no size", span=(0x100, 4))
    assert d2.span == (0x100, 4)


def test_section_contains_and_end():
    sec = SectionRecord(".text", 0x1000, 0x20, True, True, 64)
    img = _image((sec,), bytes(128))
    assert section_of(img, 0x1000) is sec
    assert section_of(img, 0x101F) is sec
    assert section_of(img, 0x1020) is None
    assert section_of(img, 0xFFF) is None
    assert sec.end == 0x1020


def test_symbol_record_validates_binding():
    with pytest.raises(ValueError, match="binding"):
        SymbolRecord("f", 0, 1, "extern")


@pytest.mark.parametrize(
    ("machine", "code", "label"),
    [("x86", 3, "x86"), ("x86_64", 62, "x86_64"), ("other", 40, "other(40)")],
)
def test_machine_label(machine, code, label):
    """The label and the image's machine name both derive from the code."""
    assert machine_label(code) == label
    assert _image((), b"", code).machine == machine


def _image(sections, raw, machine_code=62):
    return BinaryImage(
        source_path="mem",
        content_digest=digest_binary(raw),
        word_size=64,
        endianness="little",
        machine_code=machine_code,
        sections=sections,
        symbols=(),
        raw=raw,
    )


def test_digest_binary_is_sha256():
    data = b"some binary"
    assert digest_binary(data) == hashlib.sha256(data).digest()
    assert len(digest_binary(b"")) == 32


# --- records --------------------------------------------------------------------


def _record_classes() -> list[type]:
    """Every frozen dataclass a module of the package defines."""
    found = []
    for info in pkgutil.iter_modules(bintruth.__path__):
        module = importlib.import_module(f"bintruth.{info.name}")
        for value in vars(module).values():
            params = getattr(value, "__dataclass_params__", None)
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and params is not None
                and params.frozen
            ):
                found.append(value)
    return sorted(found, key=lambda cls: cls.__qualname__)


RECORD_CLASSES = _record_classes()


@pytest.fixture(scope="module")
def record_instances() -> dict[type, object]:
    """The first instance of each record class reached from one pass of the
    pipeline: forge, parse, DWARF walk, build, score and aggregate."""
    body = forge._fixed_body(16)
    spec = forge.BinarySpec(
        sections=(
            forge.SectionSpec(".text", 0x401000, executable=True),
            forge.SectionSpec(".data", 0x402000, content=bytes(8), writable=True),
        ),
        functions=(
            forge.FunctionSpec(
                "host",
                0,
                body,
                trailing_dot_twin=forge.TwinSpec(8),
                dwarf=(forge.DwarfFuncSpec(),),
            ),
            forge.FunctionSpec("leaf", 16, body, dwarf=(forge.DwarfFuncSpec(),)),
        ),
        extra_symbols=(forge.ExtraSymbolSpec("table", ".data", 0, 8),),
        inline_sites=(forge.InlineSiteSpec("host", "leaf", 0x401000, 0x401004),),
        line_tables=(forge.LineTableSpec((("leaf.c", 0),)),),
    )
    evidence = normalize.read_evidence(elf.parse_image(forge.emit(spec)))
    doc = normalize.build_ground_truth(evidence)
    start = doc.functions[0].start
    report = scoring.ToolReport(
        "t", "1", doc.binary.content_digest, ((start, 16), (start + 1, 4))
    )
    result = scoring.score_functions(doc, report)
    roots = [
        spec,
        evidence,
        doc,
        report,
        result,
        scoring.corpus_aggregate([result]),
        normalize.RunConfig(),
        forge.generate_corpus(3, 1),
    ]
    found: dict[type, object] = {}
    while roots:
        value = roots.pop()
        if dataclasses.is_dataclass(value):
            found.setdefault(type(value), value)
            roots += [getattr(value, f.name) for f in dataclasses.fields(value)]
        elif isinstance(value, (tuple, list, frozenset)):
            roots += value
    return found


def test_every_record_class_has_an_instance(record_instances):
    assert set(record_instances) == set(RECORD_CLASSES)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__qualname__)
def test_record_classes_keep_dataclass_behaviour(cls, record_instances):
    assert cls.__init__.__code__.co_filename == f"<record {cls.__name__}>"
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    init_fields = [f for f in dataclasses.fields(cls) if f.init]
    empty = {dataclasses.MISSING: inspect.Parameter.empty}
    assert [(p.name, p.default) for p in params] == [
        (f.name, empty.get(f.default, f.default)) for f in init_fields
    ]
    value = record_instances[cls]
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, name)
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value
    assert hash(copy) == hash(value)
    assert dataclasses.replace(value) == value
    for f in dataclasses.fields(cls):
        if not f.init:
            # ValueError before Python 3.13, TypeError since.
            with pytest.raises((TypeError, ValueError), match="init=False"):
                dataclasses.replace(value, **{f.name: getattr(value, f.name)})


def test_replace_reruns_post_init(record_instances):
    fn = record_instances[normalize.GroundTruthFunction]
    with pytest.raises(ValueError, match="sorted"):
        dataclasses.replace(fn, entry_points=(fn.start + 2, fn.start))
    result = record_instances[scoring.ScoreResult]
    emptied = dataclasses.replace(result, true_positives=0)
    assert (emptied.precision, emptied.recall, emptied.f1) == (0, 0, 0)


def test_record_refuses_fields_it_does_not_build():
    with pytest.raises(TypeError, match="'names'"):

        @record
        class Factory:
            names: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="'cached'"):

        @record
        class Derived:
            size: int
            cached: int = dataclasses.field(init=False, default=0)
