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
    padding_suffix_start,
    parses_as_padding,
)

ALPHABET = normalize.padding_alphabet("x86_64")


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
    assert parses_as_padding(blob, ALPHABET) is expected
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
    assert padding_suffix_start(blob, ALPHABET) == start


def test_padding_parse_with_no_alphabet_never_matches():
    assert not parses_as_padding(b"\x90", ())
    assert parses_as_padding(b"", ())


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
    assert parses_as_padding(blob, ALPHABET) == oracles.tiles_as_padding(
        blob, ALPHABET
    )


# A small pool, so that units share first bytes and some bytes occur
# only after a unit's first byte; c3 occurs in no unit.
_POOL = b"\x00\x0f\x1f\x90"
_UNIT = st.lists(st.sampled_from(_POOL), min_size=1, max_size=4).map(bytes)


@st.composite
def _alphabet_and_blob(draw):
    units = tuple(draw(st.lists(_UNIT, max_size=5)))
    part = st.one_of(
        st.lists(st.sampled_from(_POOL + b"\xc3"), min_size=1, max_size=3).map(bytes),
        *([st.sampled_from(units)] if units else []),
    )
    return units, b"".join(draw(st.lists(part, max_size=8)))


@settings(max_examples=300, deadline=None)
@given(_alphabet_and_blob(), st.integers(min_value=0))
def test_padding_suffix_agrees_with_the_oracle_on_random_alphabets(drawn, at):
    units, blob = drawn
    # An empty unit tiles nothing: anywhere in the alphabet, it changes nothing.
    cut = at % (len(units) + 1)
    alphabet = units[:cut] + (b"",) + units[cut:]
    start = padding_suffix_start(blob, alphabet)
    assert start == padding_suffix_start(blob, units)
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
    assert padding_suffix_start(blob, ALPHABET) == start
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
