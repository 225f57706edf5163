import random

import pytest
from hypothesis import given, settings, strategies as st

import corpuscheck
import oracles
from bintruth import elf, normalize
from bintruth.byteclass import (
    ByteClassMap,
    ByteRun,
    OverlapError,
    classify_bytes,
    padding_suffix_finder,
)
from bintruth.model import BinaryImage, SectionRecord, SymbolRecord, digest_binary

ALPHABET = normalize.padding_alphabet("x86_64")


def _suffix_start(blob: bytes, alphabet: tuple[bytes, ...] = ALPHABET) -> int:
    """The lowest ``i`` from which ``blob[i:]`` tiles: the finder over all
    of ``blob``. All of it tiles when that is 0."""
    return padding_suffix_finder(alphabet)(blob, 0, len(blob))


def test_byte_run_validates_fields():
    with pytest.raises(ValueError, match="byte class"):
        ByteRun(0, 1, "text", "certain")
    with pytest.raises(ValueError, match="confidence"):
        ByteRun(0, 1, "code", "sure")
    with pytest.raises(ValueError, match="one byte"):
        ByteRun(0, 0, "code", "certain")
    assert ByteRun(0x10, 4, "code", "certain").end == 0x14


def test_coverage_stats_sum_to_one():
    runs = (
        ByteRun(0, 60, "code", "certain"),
        ByteRun(60, 20, "padding", "certain"),
        ByteRun(80, 20, "data", "certain"),
    )
    stats = oracles.coverage_stats(ByteClassMap(runs))
    assert stats["code"] == 0.6
    assert stats["padding"] == 0.2
    assert stats["data"] == 0.2
    assert stats["gap_unknown"] == 0.0


def test_coverage_stats_of_an_empty_map_are_zero():
    stats = oracles.coverage_stats(ByteClassMap(()))
    assert set(stats.values()) == {0.0}


@pytest.mark.parametrize(
    ("blob", "expected"),
    [
        (b"", True),
        (b"\x90", True),
        (b"\x90\x90\x90", True),
        (b"\x66\x90", True),
        (b"\x0f\x1f\x40\x00", True),
        (b"\x66\x0f\x1f\x44\x00\x00\x90", True),
        (b"\xc3", False),
        (b"\x90\xc3", False),
        (b"\x0f\x1f", False),  # a unit prefix is not a unit
        (b"\x00", True),
        (b"\x00\x00", True),
    ],
)
def test_padding_parse_known_cases(blob, expected):
    assert (_suffix_start(blob) == 0) is expected
    assert oracles.tiles_as_padding(blob, ALPHABET) is expected


@pytest.mark.parametrize(
    ("blob", "start"),
    [
        (b"\x1f\x00", 1),  # 1f occurs only inside units
        (b"\x0f\x1f", 2),  # unit bytes that do not tile
        (b"\xc3" + b"\x00" * 4096, 1),
        (b"\xc3\x31\xc0\xe8", 4),  # no byte occurs in any unit
    ],
)
def test_padding_suffix_known_cases(blob, start):
    assert _suffix_start(blob) == start


def test_every_gas_nops_fill_is_padding(gas_nop_fills):
    """Each fill GNU as writes for ``.nops 1`` to ``.nops 64`` tiles whole,
    its 10-byte ``nopw %cs:0x0(%rax,%rax,1)`` included."""
    assert [len(fill) for fill in gas_nop_fills] == list(range(1, 65))
    assert [n for n, fill in enumerate(gas_nop_fills, 1) if _suffix_start(fill)] == []
    assert all(oracles.tiles_as_padding(fill, ALPHABET) for fill in gas_nop_fills)


def test_gas_fills_are_padding_between_and_inside_functions(gas_nops_bytes):
    """Every gap of gas fill is padding, and every fill a symbol counts is
    trimmed off whole: the trim is the alphabet's alone, with no floor."""
    image, doc = corpuscheck.build_document(gas_nops_bytes)
    assert "gap_unknown" not in {r.klass for r in doc.byte_classes.runs}
    for fn in doc.functions:
        style, length = fn.canonical_name.split("_")
        assert fn.end_exclusive_trimmed - fn.start == 16
        assert fn.end_exclusive_raw - fn.start == 16 + int(length) * (style == "trim")
    assert corpuscheck.invariant_failures(image, doc) == []


def test_padding_parse_with_no_alphabet_never_matches():
    assert _suffix_start(b"\x90", ()) == 1
    assert _suffix_start(b"", ()) == 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(list(ALPHABET)),
            st.binary(min_size=1, max_size=3),
        ),
        max_size=6,
    )
)
def test_padding_parse_agrees_with_the_recursive_oracle(parts):
    blob = b"".join(parts)
    assert (_suffix_start(blob) == 0) == oracles.tiles_as_padding(blob, ALPHABET)


# Alphabets in which a unit is a prefix of another, so that a range may
# parse in more than one way and a greedy parse may stop short of a tiling.
_OVERLAPPING_ALPHABETS = [
    (b"\x00", b"\x00\x00"),
    (b"\x0f\x1f\x00", b"\x90", b"\x0f\x1f"),
    (*ALPHABET, b"\x66"),
]
_GAPS = [
    b"\x00" * 5,
    b"\x0f\x1f\x0f\x1f\x00",
    b"\x0f\x1f\x00\x0f\x1f",
    b"\x90\x0f\x1f\x1f",
    b"\x66\x66\x90",
    b"\x66\x0f\x1f\x44\x00\x00\x66",
    b"\x66\x0f\x1f\x44\x00",
    b"\x0f\x1f\x00\x00\x90",
    b"\xea\xea\x00",
]


@pytest.mark.parametrize("alphabet", _OVERLAPPING_ALPHABETS, ids=["00-0000", "0f1f-0f1f00", "66"])
def test_alphabets_with_overlapping_units_decide_gaps_and_trims_exactly(alphabet):
    """Every gap of a forged image is padding exactly when the recursive
    oracle tiles it, and each body keeps what the oracle's trim keeps,
    whether or not a greedy left-to-right parse of it finds a tiling."""
    from bintruth.forge import BinarySpec, FunctionSpec, SectionSpec, emit

    code = b"\x31\xc0\xc3"
    functions, offset = [], 0
    for k, gap in enumerate(_GAPS):
        functions.append(FunctionSpec(f"f{k}", offset, code, pad_after=gap))
        offset += len(code) + len(gap)
    functions.append(FunctionSpec("last", offset, code))
    spec = BinarySpec(
        sections=(SectionSpec(".text", 0x401000, executable=True),),
        functions=tuple(functions),
    )
    image = elf.parse_image(emit(spec))
    spans = [
        (0x401000 + f.offset, 0x401000 + f.offset + 3, 0x401000 + f.offset + 3)
        for f in functions
    ]
    runs = classify_bytes(image, spans, alphabet).runs
    gaps = {r.start: r.klass for r in runs if r.confidence == "heuristic"}
    assert [gaps[end] for _start, _trimmed, end in spans[:-1]] == [
        "padding" if oracles.tiles_as_padding(gap, alphabet) else "gap_unknown"
        for gap in _GAPS
    ]
    assert _classes_by_byte(ByteClassMap(runs)) == oracles.classify_per_byte(
        image, spans, alphabet
    )

    # Each gap as a body's trailing bytes: the trim keeps what the oracle keeps.
    syms = [
        SymbolRecord(f"f{k}", 0x401000 + f.offset, len(code) + len(f.pad_after), "global")
        for k, f in enumerate(functions[:-1])
    ]
    works, _ = normalize.dedupe_aliases([(s, elf.section_of(image, s.value)) for s in syms])
    normalize.resolve_boundaries(works)
    normalize.trim_padding(works, image, alphabet, {})
    assert [w.end_trimmed - w.start for w in works] == [
        oracles.suffix_trim(code + gap, alphabet, (0,)) for gap in _GAPS
    ]


def test_empty_and_repeated_units_change_no_match():
    alphabet = (b"", b"\x90", b"\x90", b"\x0f\x1f\x00")
    assert _suffix_start(b"\x90\x0f\x1f\x00", alphabet) == 0
    assert _suffix_start(b"\x0f\x1f", alphabet) == 2


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(ALPHABET), st.binary(min_size=1, max_size=3)),
        max_size=8,
    ),
    st.lists(st.sampled_from(b"\x00\x0f\x1f\x66\x90\xc3"), max_size=12).map(bytes),
    st.lists(st.sampled_from(b"\x00\x0f\x1f\x66\x90\xc3"), max_size=12).map(bytes),
)
def test_the_matcher_agrees_with_the_dp_and_the_oracle_in_place(parts, before, after):
    """The blob sits inside a larger buffer: ``lo`` and ``hi`` alone
    delimit it, and the bytes around it change nothing, whether the
    matcher or the dynamic program gives the answer."""
    blob = b"".join(parts)
    buf = before + blob + after
    lo, hi = len(before), len(before) + len(blob)
    start = _suffix_start(blob)
    assert padding_suffix_finder(ALPHABET)(buf, lo, hi) == lo + start
    assert (start == 0) == oracles.tiles_as_padding(blob, ALPHABET)


def test_the_matcher_reads_ranges_longer_than_one_call_parses():
    """A range of many more units than one regular-expression call takes."""
    units = b"\x0f\x1f\x00" * 20_000
    find = padding_suffix_finder(ALPHABET)
    assert find(b"\xc3" + units + b"\xc3", 1, 1 + len(units)) == 1
    assert find(b"\xc3" + units + b"\x0f\x1f", 1, 3 + len(units)) == 3 + len(units)
    assert find(units + b"\xc3" + units, 0, 2 * len(units) + 1) == len(units) + 1


def _one_section_image(raw: bytes, machine_code: int = 62) -> BinaryImage:
    """``raw`` as the bytes of one executable section at 0x401000."""
    sec = SectionRecord(".text", 0x401000, len(raw), True, True, 0)
    return BinaryImage(
        source_path="mem",
        content_digest=digest_binary(raw),
        word_size=64,
        endianness="little",
        machine_code=machine_code,
        sections=(sec,),
        symbols=(),
        raw=raw,
    )


@pytest.mark.parametrize(("tail", "klass"), [(b"", "padding"), (b"\x0f\x1f", "gap_unknown")])
def test_a_megabyte_gap_of_nops_classifies_in_place(tail, klass):
    """1 MB of ``0f 1f 00`` units between two functions is padding; the
    same units followed by ``0f 1f``, a unit's prefix, are not."""
    gap = b"\x0f\x1f\x00" * 349_526 + tail
    assert len(gap) >= 1 << 20
    code = b"\x31\xc0\xc3"
    image = _one_section_image(code + gap + code)
    end = 0x401000 + len(code) + len(gap)
    spans = [(0x401000, 0x401003, 0x401003), (end, end + 3, end + 3)]
    runs = classify_bytes(image, spans, ALPHABET).runs
    assert [(r.start, r.length, r.klass) for r in runs] == [
        (0x401000, 3, "code"),
        (0x401003, len(gap), klass),
        (end, 3, "code"),
    ]
    assert (_suffix_start(gap) == 0) == (klass == "padding")


def test_without_an_alphabet_every_gap_is_unknown():
    """An ARM binary (machine code 40) has no padding alphabet: a gap of
    x86 nops is as unknown as any other."""
    from bintruth.forge import BinarySpec, FunctionSpec, SectionSpec, emit

    spec = BinarySpec(
        sections=(SectionSpec(".text", 0x401000, executable=True),),
        functions=(
            FunctionSpec("a", 0, b"\x31\xc0\xc3", pad_after=b"\x90" * 5),
            FunctionSpec("b", 8, b"\x31\xc0\xc3", pad_after=b"\x00" * 5),
            FunctionSpec("c", 16, b"\x31\xc0\xc3"),
        ),
        machine_code=40,
    )
    image, doc = corpuscheck.build_document(emit(spec))
    assert normalize.padding_alphabet(image.machine) == ()
    gaps = [r for r in doc.byte_classes.runs if r.confidence == "heuristic"]
    assert [(r.start, r.length) for r in gaps] == [(0x401003, 5), (0x40100B, 5)]
    assert {r.klass for r in gaps} == {"gap_unknown"}
    find = padding_suffix_finder(())
    assert find(b"", 0, 0) == 0 and find(b"\x90", 0, 1) == 1


# A small pool, so that units share first bytes and some bytes occur
# only after a unit's first byte; c3 occurs in no unit.
_POOL = b"\x00\x0f\x1f\x90"
_UNIT = st.lists(st.sampled_from(_POOL), min_size=1, max_size=4).map(bytes)


@st.composite
def _alphabet_and_blob(draw):
    """An alphabet, and a blob that ends either in a run of unit bytes
    that tiles whole after a ``c3`` (``whole``: the matcher's answer) or
    in arbitrary pool bytes (mostly the dynamic program's)."""
    units = tuple(draw(st.lists(_UNIT, max_size=5)))
    part = st.one_of(
        st.lists(st.sampled_from(_POOL + b"\xc3"), min_size=1, max_size=3).map(bytes),
        *([st.sampled_from(units)] if units else []),
    )
    blob = b"".join(draw(st.lists(part, max_size=8)))
    whole = bool(units) and draw(st.booleans())
    if whole:
        blob += b"\xc3" + b"".join(draw(st.lists(st.sampled_from(units), min_size=1)))
    return units, blob, whole


@settings(max_examples=300, deadline=None)
@given(_alphabet_and_blob(), st.integers(min_value=0))
def test_padding_suffix_agrees_with_the_oracle_on_random_alphabets(drawn, at):
    units, blob, whole = drawn
    # An empty unit tiles nothing: anywhere in the alphabet, it changes nothing.
    cut = at % (len(units) + 1)
    alphabet = units[:cut] + (b"",) + units[cut:]
    start = _suffix_start(blob, alphabet)
    assert start == _suffix_start(blob, units)
    if whole:
        assert start == blob.rindex(b"\xc3") + 1
    assert (start == 0) == oracles.tiles_as_padding(blob, alphabet)
    assert oracles.tiles_as_padding(blob[start:], alphabet)
    assert min(max(start, 1), len(blob)) == oracles.suffix_trim(blob, alphabet, (0,))


def _large_body() -> tuple[bytes, int]:
    """A 6 KB body as large bodies come: code, a ret, then mixed filler."""
    rng = random.Random(4096)
    code = rng.randbytes(5000) + b"\xc3"  # c3 occurs in no unit
    filler = b"".join(rng.choice(ALPHABET) for _ in range(200))
    return code + filler, len(code)


@pytest.mark.parametrize(
    ("blob", "start"),
    [(b"\xc3" + b"\x00" * 4096, 1), _large_body()],
    ids=["zeros", "mixed"],
)
def test_padding_suffix_agrees_with_the_oracle_on_large_bodies(blob, start):
    assert len(blob) >= 4096
    assert _suffix_start(blob) == start
    assert not oracles.tiles_as_padding(blob, ALPHABET)
    assert oracles.tiles_as_padding(blob[start:], ALPHABET)
    assert oracles.suffix_trim(blob, ALPHABET, (0,)) == start


def test_overlapping_spans_are_an_upstream_bug(preset_images):
    image = preset_images["scaffold"]
    spans = [(0x401000, 0x401010, 0x401010), (0x401008, 0x401018, 0x401018)]
    with pytest.raises(OverlapError):
        classify_bytes(image, spans, ALPHABET)


def test_spans_out_of_start_order_are_an_upstream_bug(preset_images):
    image = preset_images["scaffold"]
    spans = [(0x401010, 0x401018, 0x401018), (0x401000, 0x401008, 0x401008)]
    with pytest.raises(OverlapError, match="0x401000.*0x401010"):
        classify_bytes(image, spans, ALPHABET)


def _classes_by_byte(byte_map):
    out = {}
    for run in byte_map.runs:
        for addr in range(run.start, run.end):
            out[addr] = (run.klass, run.confidence)
    return out


def test_classification_matches_the_per_byte_oracle(small_corpus):
    for fixture in small_corpus[:8]:
        image, doc = corpuscheck.build_document(fixture.data)
        spans = [
            (f.start, f.end_exclusive_trimmed, f.end_exclusive_raw)
            for f in doc.functions
        ]
        alphabet = normalize.padding_alphabet(image.machine)
        want = oracles.classify_per_byte(image, spans, alphabet)
        got = _classes_by_byte(doc.byte_classes)
        assert got == want, fixture.name


def test_classification_tiles_every_allocated_byte(preset_docs, preset_images):
    for name, doc in preset_docs.items():
        image = preset_images[name]
        allocated = sum(s.size for s in image.sections if s.allocated and s.size > 0)
        covered = sum(r.length for r in doc.byte_classes.runs)
        assert covered == allocated, name
        runs = doc.byte_classes.runs
        assert all(a.end <= b.start for a, b in zip(runs, runs[1:])), name


def test_data_sections_classify_whole(small_corpus):
    image, doc = corpuscheck.build_document(small_corpus[0].data)
    rodata = next(s for s in image.sections if s.name == ".rodata")
    run = next(r for r in doc.byte_classes.runs if r.start == rodata.vaddr)
    assert run.klass == "data"
    assert run.confidence == "certain"
    assert run.length >= rodata.size  # may merge with an adjacent data run


def test_nobits_data_sections_are_data(small_corpus):
    image, doc = corpuscheck.build_document(small_corpus[0].data)
    bss = next(s for s in image.sections if s.name == ".bss")
    runs = [r for r in doc.byte_classes.runs if bss.vaddr <= r.start < bss.end]
    assert runs
    assert all(r.klass == "data" and r.confidence == "certain" for r in runs)


def test_fileless_executable_gaps_stay_unknown():
    from bintruth.model import BinaryImage, SectionRecord, digest_binary

    sec = SectionRecord(".textbss", 0x500000, 0x40, True, True, None)
    image = BinaryImage(
        source_path="mem",
        content_digest=digest_binary(b""),
        word_size=64,
        endianness="little",
        machine_code=62,
        sections=(sec,),
        symbols=(),
        raw=b"",
    )
    byte_map = classify_bytes(image, [(0x500010, 0x500018, 0x500018)], ALPHABET)
    kinds = [(r.start, r.klass, r.confidence) for r in byte_map.runs]
    assert kinds == [
        (0x500000, "gap_unknown", "heuristic"),
        (0x500010, "code", "certain"),
        (0x500018, "gap_unknown", "heuristic"),
    ]


def test_gap_classification_is_honest():
    """Inter-function gaps are padding only when they parse as padding."""
    from bintruth.forge import BinarySpec, FunctionSpec, SectionSpec, emit

    text = SectionSpec(".text", 0x401000, executable=True)
    spec = BinarySpec(
        sections=(text,),
        functions=(
            FunctionSpec("a", 0, b"\x31\xc0\xc3", pad_after=b"\x90" * 5),
            FunctionSpec("b", 8, b"\x31\xc0\xc3", pad_after=b"\xea" * 5),
            FunctionSpec("c", 16, b"\x31\xc0\xc3"),
        ),
    )
    image = elf.parse_image(emit(spec))
    _image, doc = corpuscheck.build_document(emit(spec))
    by_start = {r.start: r for r in doc.byte_classes.runs}
    nop_gap = by_start[0x401003]
    junk_gap = by_start[0x40100B]
    assert (nop_gap.klass, nop_gap.confidence) == ("padding", "heuristic")
    assert (junk_gap.klass, junk_gap.confidence) == ("gap_unknown", "heuristic")
    assert oracles.bytes_at(image, 0x40100B, 5) == b"\xea" * 5


def test_adjacent_runs_of_one_kind_merge():
    runs = ByteClassMap(
        (
            ByteRun(0, 4, "code", "certain"),
            ByteRun(4, 4, "code", "certain"),
        )
    )
    # classify_bytes merges; constructing directly does not.
    assert len(runs.runs) == 2


def test_a_merged_run_is_built_once(monkeypatch):
    """Four functions that abut, each without padding: one code run that
    grows three times is built as one ByteRun, which the per-byte oracle
    agrees with."""
    from bintruth.model import BinaryImage, SectionRecord, digest_binary

    raw = bytes(range(0x40))
    sec = SectionRecord(".text", 0x401000, 0x40, True, True, 0)
    image = BinaryImage(
        source_path="mem",
        content_digest=digest_binary(raw),
        word_size=64,
        endianness="little",
        machine_code=62,
        sections=(sec,),
        symbols=(),
        raw=raw,
    )
    spans = [(0x401000 + k, 0x401010 + k, 0x401010 + k) for k in range(0, 0x40, 0x10)]
    built = []
    checks = ByteRun.__post_init__
    monkeypatch.setattr(ByteRun, "__post_init__", lambda run: built.append(checks(run)))
    byte_map = classify_bytes(image, spans, ALPHABET)
    assert byte_map.runs == (ByteRun(0x401000, 0x40, "code", "certain"),)
    assert len(built) == 2  # the run, and the one this test compared it with
    assert _classes_by_byte(byte_map) == oracles.classify_per_byte(image, spans, ALPHABET)
