"""Forged benchmark inputs with their expected outputs, built from a seed.

Each workload is a set of x86_64 ELF binaries plus one simulated tool
report per binary. The generators decide every symbol, byte and debug
record, so they also know what ``bintruth extract`` must produce (the
expected truth) and what ``score`` and ``corpus`` must report (counts and
exact F1 values). Nothing here calls the code under test except
``bintruth.forge.emit``, which only serializes the spec into ELF bytes.

Sizes are fixed per workload and independent of the seed: the seed
picks names, body bytes, body sizes within a stratified distribution,
padding styles and which functions carry which quirk, never how many.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from bintruth import forge

import dwarfgen

TEXT_ALIGN = 16
# Standard x86 nop encodings, longest first (GCC pads with these).
NOPS = (
    bytes.fromhex("660f1f840000000000"),
    bytes.fromhex("0f1f840000000000"),
    bytes.fromhex("0f1f8000000000"),
    bytes.fromhex("660f1f440000"),
    bytes.fromhex("0f1f440000"),
    bytes.fromhex("0f1f4000"),
    bytes.fromhex("0f1f00"),
    bytes.fromhex("6690"),
    bytes.fromhex("90"),
)
# Bytes that are not padding and not valid padding prefixes, such as a
# jump table or literal pool left between functions.
JUNK = bytes([0x05, 0x27, 0xAB, 0xEA, 0x3F])
# Typical x86_64 instruction bytes. The body always ends in ``ret``
# (0xc3), which no padding unit contains, so no suffix of a body ever
# parses as padding, whatever bytes come before it.
CODE_BYTES = bytes(
    [0x48, 0x89, 0x8B, 0x83, 0xE8, 0x41, 0x53, 0x31, 0x50, 0x58, 0x00, 0x0F,
     0x66, 0x90, 0x24, 0x45, 0x85, 0xC7, 0x74, 0x75, 0xEB, 0x39, 0xFF, 0x01]
)
_TO_CODE = bytes(CODE_BYTES[i % len(CODE_BYTES)] for i in range(256))

# Names from the program's default scaffold and noreturn lists; the
# expected flags below depend on these two facts only.
SCAFFOLD_TEXT = (
    "_start", "deregister_tm_clones", "register_tm_clones",
    "__do_global_dtors_aux", "frame_dummy",
)
NORETURN_NAMES = ("abort", "exit")

PREFIXES = ("ngx", "sql", "zlib", "ssl", "http", "json", "xml", "py", "lua", "vm")
VERBS = ("parse", "emit", "scan", "alloc", "free", "hash", "lookup", "insert",
         "flush", "read", "write", "encode", "decode", "init", "visit")
NOUNS = ("node", "table", "buffer", "frame", "token", "entry", "header",
         "chunk", "state", "object", "stream", "block", "cache", "list")

# (name, size, flags) of the allocated sections around .text, in address
# order, as a typical dynamically linked executable has them. Flags: x
# executable, w writable, b nobits.
SECTIONS_BEFORE = (
    (".interp", 0x1C, ""), (".note.gnu.property", 0x30, ""),
    (".note.gnu.build-id", 0x24, ""), (".note.ABI-tag", 0x20, ""),
    (".gnu.hash", 0x40, ""), (".dynsym", 0x600, ""), (".dynstr", 0x400, ""),
    (".gnu.version", 0x80, ""), (".gnu.version_r", 0x60, ""),
    (".rela.dyn", 0x300, ""), (".rela.plt", 0x400, ""),
    (".init", None, "x"), (".plt", 0x410, "x"), (".plt.got", 0x10, "x"),
    (".plt.sec", 0x400, "x"),
)
SECTIONS_AFTER = (
    (".fini", None, "x"), (".rodata", 0x4000, ""), (".eh_frame_hdr", 0x800, ""),
    (".eh_frame", 0x3000, ""), (".init_array", 0x8, "w"), (".fini_array", 0x8, "w"),
    (".data.rel.ro", 0x200, "w"), (".dynamic", 0x200, "w"), (".got", 0x100, "w"),
    (".got.plt", 0x218, "w"), (".data", 0x400, "w"), (".bss", 0x800, "wb"),
)
BASE_VADDR = 0x400318


@dataclass(frozen=True, slots=True)
class ExpectedFunction:
    """One function of the expected ground-truth document."""

    name: str
    start: int
    entries: tuple[int, ...]
    end_raw: int
    end_trimmed: int
    aliases: tuple[str, ...]
    flags: frozenset[str]
    group: str | None
    provenance: frozenset[str]
    source: tuple[str, int] | None


@dataclass(frozen=True, slots=True)
class ExpectedScore:
    """What ``score`` must report for one report under the default policy."""

    true_positives: int
    false_positives: int
    false_negatives: int
    spurious: int
    missed: int
    wrong_boundary: int

    @property
    def precision(self) -> Fraction:
        den = self.true_positives + self.false_positives
        return Fraction(1) if den == 0 else Fraction(self.true_positives, den)

    @property
    def recall(self) -> Fraction:
        den = self.true_positives + self.false_negatives
        return Fraction(1) if den == 0 else Fraction(self.true_positives, den)

    @property
    def f1(self) -> Fraction:
        p, r = self.precision, self.recall
        return Fraction(0) if p + r == 0 else 2 * p * r / (p + r)


@dataclass(slots=True)
class ForgedBinary:
    stem: str
    data: bytes
    functions: tuple[ExpectedFunction, ...]
    diagnostics: Counter
    code_bytes: int
    padding_bytes: int
    mapped_bytes: int
    sizes: dict
    report_text: str = ""
    score: ExpectedScore | None = None


@dataclass(slots=True)
class Workload:
    name: str
    binaries: list[ForgedBinary]
    sizes: dict = field(default_factory=dict)
    # The operation whose layers the traced run times: "extract" or "corpus".
    primary: str = "extract"

    def corpus(self) -> "ExpectedCorpus":
        return ExpectedCorpus([b.score for b in self.binaries])


@dataclass(frozen=True, slots=True)
class ExpectedCorpus:
    scores: list[ExpectedScore]

    def summary(self, threshold: Fraction) -> dict[str, Fraction | int]:
        n = len(self.scores)
        pooled = ExpectedScore(
            sum(s.true_positives for s in self.scores),
            sum(s.false_positives for s in self.scores),
            sum(s.false_negatives for s in self.scores),
            0, 0, 0,
        )
        return {
            "n": n,
            "micro.precision": pooled.precision,
            "micro.recall": pooled.recall,
            "micro.f1": pooled.f1,
            "macro.precision": sum(s.precision for s in self.scores) / n,
            "macro.recall": sum(s.recall for s in self.scores) / n,
            "macro.f1": sum(s.f1 for s in self.scores) / n,
            "fraction_perfect": Fraction(sum(1 for s in self.scores if s.f1 == 1), n),
            "below": Fraction(sum(1 for s in self.scores if s.f1 < threshold), n),
        }


@dataclass(slots=True)
class _Plan:
    name: str
    section: str
    offset: int
    body: bytes
    gap: bytes
    quirk: str
    binding: str
    noreturn: bool = False
    dwarf: bool = False
    split: int = 0
    group: str | None = None


def _body(rng: random.Random, length: int) -> bytes:
    return rng.randbytes(length - 1).translate(_TO_CODE) + b"\xc3"


def _nop_fill(length: int) -> bytes:
    out = bytearray()
    while len(out) < length:
        out += next(u for u in NOPS if len(u) <= length - len(out))
    return bytes(out)


def _padding(rng: random.Random, length: int) -> bytes:
    style = rng.random()
    if style < 0.7:
        return _nop_fill(length)
    if style < 0.85:
        return b"\xcc" * length
    return b"\x90" * length


def stratified_sizes(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """Log-uniform sizes, one per stratum, shuffled.

    Stratifying keeps the total nearly the same for every seed, so run
    times do not depend on which seed the benchmark was given.
    """
    span = math.log(high) - math.log(low)
    sizes = [
        int(round(math.exp(math.log(low) + span * (i + rng.random()) / count)))
        for i in range(count)
    ]
    rng.shuffle(sizes)
    return [min(max(s, low), high) for s in sizes]


def _quirks(rng: random.Random, count: int) -> list[str]:
    mix = {
        "alias": count // 16,
        "twin": count // 16,
        "icc": count // 16,
        "zero_size": count // 25,
        "clone": 2 * (count // 60),
    }
    quirks = [q for q, n in mix.items() for _ in range(n)]
    quirks += ["plain"] * (count - len(quirks))
    rng.shuffle(quirks)
    return quirks


def _names(rng: random.Random, count: int) -> list[str]:
    return [
        f"{rng.choice(PREFIXES)}_{rng.choice(VERBS)}_{rng.choice(NOUNS)}_{i}"
        for i in range(count)
    ]


def _plan_text(rng: random.Random, body_sizes: list[int], noreturn_every: int) -> list[_Plan]:
    """Functions of .text in address order: crt scaffold, then user code."""
    plans: list[_Plan] = []
    for name in SCAFFOLD_TEXT:
        plans.append(_Plan(name, ".text", 0, _body(rng, 32), b"", "scaffold", "local"))
    quirks = _quirks(rng, len(body_sizes))
    names = _names(rng, len(body_sizes))
    for i, name in enumerate(NORETURN_NAMES):
        names[i] = name
    groups: dict[int, str] = {}
    clones = [i for i, q in enumerate(quirks) if q == "clone"]
    for base, clone in zip(clones[0::2], clones[1::2]):
        names[clone] = f"{names[base]}..0"
        groups[base] = groups[clone] = names[base]
    for i, (size, quirk) in enumerate(zip(body_sizes, quirks)):
        binding = "global" if quirk == "alias" or rng.random() < 0.7 else "local"
        plan = _Plan(names[i], ".text", 0, _body(rng, size), b"", quirk, binding)
        plan.group = groups.get(i)
        if quirk == "twin":
            plan.split = rng.randint(8, size - 4)
        if noreturn_every and i % noreturn_every == noreturn_every - 1:
            plan.noreturn = True
        plans.append(plan)
    offset = 0
    for plan in plans:
        plan.offset = offset
        end = offset + len(plan.body)
        gap_len = -end % TEXT_ALIGN
        if plan.quirk == "icc" and gap_len == 0:
            gap_len = TEXT_ALIGN
        if gap_len and plan.quirk == "plain" and rng.random() < 0.1:
            plan.gap = bytes(rng.choice(JUNK) for _ in range(gap_len))
        elif gap_len:
            plan.gap = _padding(rng, gap_len)
        offset = end + gap_len
    return plans


def _layout(text_size: int, init_size: int, fini_size: int) -> dict[str, tuple[int, int, str]]:
    """name -> (vaddr, size, flags) for every allocated section."""
    out = {}
    vaddr = BASE_VADDR
    for name, size, flags in SECTIONS_BEFORE + ((".text", text_size, "x"),) + SECTIONS_AFTER:
        if name == ".init":
            size = init_size
        elif name == ".fini":
            size = fini_size
        if name in (".init", ".rodata", ".init_array"):
            vaddr = (vaddr + 0xFFF) & ~0xFFF  # new segment
        vaddr = (vaddr + 15) & ~15
        out[name] = (vaddr, size, flags)
        vaddr += size
    return out


def forge_binary(
    rng: random.Random,
    stem: str,
    body_sizes: list[int],
    units: int = 0,
) -> ForgedBinary:
    """One executable; ``units`` > 0 adds dense DWARF in that many CUs."""
    with_debug = units > 0
    text = _plan_text(rng, body_sizes, noreturn_every=50 if with_debug else 0)
    init = _Plan("_init", ".init", 0, _body(rng, 27), b"", "scaffold", "global")
    fini = _Plan("_fini", ".fini", 0, _body(rng, 13), b"", "scaffold", "global")
    text_size = text[-1].offset + len(text[-1].body) + len(text[-1].gap)
    layout = _layout(text_size, len(init.body), len(fini.body))

    def vaddr(plan: _Plan) -> int:
        return layout[plan.section][0] + plan.offset

    debug_sections: dict[str, bytes] = {}
    cu_of: dict[str, tuple[str, int]] = {}
    counts = dwarfgen.DebugCounts(0, 0, 0, 0, 0)
    if with_debug:
        user = [p for p in text if p.quirk != "scaffold"]
        writer = dwarfgen.DebugInfoWriter()
        per_unit = math.ceil(len(user) / units)
        for u in range(units):
            members = user[u * per_unit : (u + 1) * per_unit]
            cu_name = f"{rng.choice(PREFIXES)}_{u}.c"
            functions = []
            for plan in members:
                line = rng.randint(10, 60000)
                cu_of[plan.name] = (cu_name, line)
                plan.dwarf = True
                functions.append(
                    dwarfgen.DebugFunction(plan.name, vaddr(plan), len(plan.body), line, plan.noreturn)
                )
            writer.add_unit(4 if u % 2 == 0 else 5, cu_name, functions)
        debug_sections = writer.sections()
        counts = writer.counts()

    sections = []
    for name, (addr, size, flags) in layout.items():
        if name in (".init", ".text", ".fini"):
            sections.append(forge.SectionSpec(name, addr, executable=True))
        elif "b" in flags:
            sections.append(forge.SectionSpec(name, addr, kind="nobits", size=size, writable=True))
        else:
            content = bytes([0xFF, 0x25, 0x00, 0x00]) * (size // 4) if "x" in flags else b""
            sections.append(
                forge.SectionSpec(name, addr, content=content, size=size, executable="x" in flags,
                                  writable="w" in flags)
            )
    sections.append(forge.SectionSpec(".comment", 0, content=b"GCC: (GNU) 13.2.0\x00", allocated=False))
    for name, blob in debug_sections.items():
        sections.append(forge.SectionSpec(name, 0, content=blob, allocated=False))

    specs = []
    for plan in [init, *text, fini]:
        kwargs = {}
        if plan.quirk == "twin":
            kwargs = dict(symbol_size=plan.split, trailing_dot_twin=forge.TwinSpec(plan.split))
        elif plan.quirk == "alias":
            kwargs = dict(aliases=((f"__{plan.name}", "weak"),))
        elif plan.quirk == "icc":
            kwargs = dict(icc_size_includes_padding=True)
        elif plan.quirk == "zero_size":
            kwargs = dict(omit_size=True)
        specs.append(
            forge.FunctionSpec(plan.name, plan.offset, plan.body, section=plan.section,
                               binding=plan.binding, pad_after=plan.gap, **kwargs)
        )
    objects = [
        forge.ExtraSymbolSpec(f"{rng.choice(NOUNS)}_obj_{i}", sec, (i * 24) % (layout[sec][1] - 8), 8)
        for i, sec in enumerate([".data", ".bss", ".rodata", ".data.rel.ro"] * (len(body_sizes) // 16))
    ]
    spec = forge.BinarySpec(
        sections=tuple(sections), functions=tuple(specs), extra_symbols=tuple(objects), word_size=64,
    )
    data = forge.emit(spec)

    expected, diags = _expected(text, [init, fini], layout, cu_of)
    diags["GT_DISCONTIGUOUS_RANGE"] = counts.inline_range_sites
    if not with_debug:
        diags["GT_NO_DEBUG_INFO"] = 1
    diags = +diags  # drop zero counts
    code = sum(f.end_trimmed - f.start for f in expected)
    padding = sum(f.end_raw - f.end_trimmed for f in expected)
    mapped = sum(size for _a, size, _f in layout.values() if size)
    symbols = len(specs) + len(objects) + sum(1 for s in specs if s.aliases or s.trailing_dot_twin)
    sizes = {
        "functions": len(expected),
        "symbols": symbols,
        "sections": len(sections) + 4,  # null, .symtab, .strtab, .shstrtab
        "text_bytes": text_size,
        "file_bytes": len(data),
        "compile_units": counts.units,
        "dies": counts.dies,
        "attributes": counts.attributes,
        "debug_info_bytes": counts.info_bytes,
    }
    return ForgedBinary(stem, data, tuple(expected), diags, code, padding, mapped, sizes)


def _expected(text, others, layout, cu_of):
    """Expected functions and diagnostic counts, derived from the plans."""
    diags: Counter = Counter()
    out = []
    for plans in (text, *[[p] for p in others]):
        sec_vaddr, sec_size, _flags = layout[plans[0].section]
        for i, plan in enumerate(plans):
            start = sec_vaddr + plan.offset
            body_end = start + len(plan.body)
            next_start = (
                sec_vaddr + plans[i + 1].offset if i + 1 < len(plans) else sec_vaddr + sec_size
            )
            entries: tuple[int, ...] = (start,)
            aliases: tuple[str, ...] = ()
            flags: set[str] = set()
            end_raw = body_end
            if plan.quirk == "twin":
                entries = (start, start + plan.split)
                aliases = (plan.name + ".",)
                flags.add("multi_entry")
                diags["GT_MULTI_ENTRY_MERGED"] += 1
            elif plan.quirk == "alias":
                aliases = (f"__{plan.name}",)
                flags.add("merged_alias")
                diags["GT_ALIAS_MERGED"] += 1
            elif plan.quirk == "icc":
                end_raw = body_end + len(plan.gap)
            elif plan.quirk == "zero_size":
                end_raw = next_start
                diags["GT_MISSING_SIZE"] += 1
            # The gaps after icc and zero-size bodies are pure padding.
            end_trimmed = body_end
            if end_trimmed < end_raw:
                diags["GT_PADDING_TRIMMED"] += 1
            if plan.group is not None and plan.name != plan.group:
                flags.add("specialized")
            if plan.noreturn or plan.name in NORETURN_NAMES:
                flags.add("noreturn")
            if not plan.dwarf or plan.name in SCAFFOLD_TEXT + ("_init", "_fini"):
                flags.add("compiler_inserted")
            out.append(
                ExpectedFunction(
                    name=plan.name,
                    start=start,
                    entries=entries,
                    end_raw=end_raw,
                    end_trimmed=end_trimmed,
                    aliases=aliases,
                    flags=frozenset(flags),
                    group=plan.group,
                    provenance=frozenset({"symtab", "dwarf"} if plan.dwarf else {"symtab"}),
                    source=cu_of.get(plan.name),
                )
            )
    out.sort(key=lambda f: f.start)
    return out, diags


def simulated_report(
    rng: random.Random,
    binary: ForgedBinary,
    tool: str,
    dropped: int = 0,
    invented: int = 0,
    stubbed: int = 0,
) -> None:
    """Attach a tool report with known error counts to ``binary``.

    ``dropped`` functions go unreported (missed starts), ``invented``
    starts one byte into real functions are added (spurious starts), and
    ``stubbed`` functions are claimed at 4 bytes, shorter than any body
    (wrong boundaries). Every other function is reported from one of its
    entries with a size inside [trimmed, raw], which the default policy
    accepts.
    """
    functions = binary.functions
    chosen = rng.sample(range(len(functions)), dropped + stubbed)
    drop = set(chosen[:dropped])
    stub = set(chosen[dropped:])
    predictions = []
    for i, fn in enumerate(functions):
        if i in drop:
            continue
        start = fn.start
        if len(fn.entries) > 1 and rng.random() < 0.5:
            start = fn.entries[1]
        if i in stub:
            size = 4
        else:
            size = rng.randint(fn.end_trimmed - fn.start, fn.end_raw - fn.start)
        predictions.append((start, size))
    for i in rng.sample(range(len(functions)), invented):
        predictions.append((functions[i].start + 1, 16))
    rng.shuffle(predictions)
    payload = {
        "schema_version": 1,
        "tool": {"name": tool, "version": "sim"},
        "binary_digest_hex": hashlib.sha256(binary.data).hexdigest(),
        "functions": [{"start": f"0x{s:x}", "size": n} for s, n in predictions],
    }
    binary.report_text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    n = len(functions)
    binary.score = ExpectedScore(
        true_positives=n - dropped - stubbed,
        false_positives=invented + stubbed,
        false_negatives=dropped + stubbed,
        spurious=invented,
        missed=dropped,
        wrong_boundary=stubbed,
    )


# -- the three workloads ---------------------------------------------------

DEBUG_HEAVY_FUNCTIONS = 800
DEBUG_HEAVY_UNITS = 8
LARGE_BODIES_FUNCTIONS = 400
CORPUS_PAIRS = 16
CORPUS_FUNCTIONS = 120


def _user_count(total: int) -> int:
    """User functions that, with the crt scaffold, make ``total`` functions."""
    return total - len(SCAFFOLD_TEXT) - 2


def extract_debug_heavy(seed: int) -> Workload:
    rng = random.Random(seed)
    n = _user_count(DEBUG_HEAVY_FUNCTIONS)
    sizes = stratified_sizes(rng, n, 16, 128)
    binary = forge_binary(rng, "debug_heavy", sizes, units=DEBUG_HEAVY_UNITS)
    simulated_report(rng, binary, "sim-mixed", dropped=n // 50, invented=n // 100, stubbed=n // 40)
    return Workload("extract-debug-heavy", [binary], dict(binary.sizes))


def extract_large_bodies(seed: int) -> Workload:
    rng = random.Random(seed)
    n = _user_count(LARGE_BODIES_FUNCTIONS)
    sizes = stratified_sizes(rng, n, 64, 8192)
    binary = forge_binary(rng, "large_bodies", sizes)
    simulated_report(rng, binary, "sim-mixed", dropped=n // 50, invented=n // 100, stubbed=n // 40)
    return Workload("extract-large-bodies", [binary], dict(binary.sizes))


# Simulated tools of the corpus: (name, dropped, invented, stubbed) as
# shares of the function count. The second lands on F1 = 24/25 exactly
# (CORPUS_FUNCTIONS is a multiple of 12), the 0.96 threshold the corpus
# call asks about, so an inexact comparison would misfile it.
CORPUS_TOOLS = (
    ("exact-a", 0, 0, 0),
    ("inventor-at-threshold", 0, Fraction(1, 12), 0),
    ("skipper", Fraction(1, 4), 0, 0),
    ("stub-claimer", 0, 0, Fraction(1, 5)),
    ("inventor", 0, Fraction(1, 50), 0),
    ("mixed-light", Fraction(1, 100), Fraction(1, 150), Fraction(1, 75)),
    ("mixed-heavy", Fraction(1, 25), Fraction(3, 100), Fraction(3, 50)),
    ("exact-b", 0, 0, 0),
)


def score_corpus(seed: int) -> Workload:
    rng = random.Random(seed)
    n_user = _user_count(CORPUS_FUNCTIONS)
    binaries = []
    for k in range(CORPUS_PAIRS):
        sizes = stratified_sizes(rng, n_user, 16, 128)
        binary = forge_binary(rng, f"corpus_{k:02d}", sizes)
        tool, dropped, invented, stubbed = CORPUS_TOOLS[k % len(CORPUS_TOOLS)]
        n = len(binary.functions)
        simulated_report(
            rng, binary, tool,
            dropped=int(dropped * n), invented=int(invented * n), stubbed=int(stubbed * n),
        )
        binaries.append(binary)
    sizes = {
        "pairs": len(binaries),
        "functions": sum(b.sizes["functions"] for b in binaries),
        "symbols": sum(b.sizes["symbols"] for b in binaries),
        "file_bytes": sum(b.sizes["file_bytes"] for b in binaries),
    }
    return Workload("score-corpus", binaries, sizes, primary="corpus")


WORKLOADS = {
    "extract-debug-heavy": extract_debug_heavy,
    "extract-large-bodies": extract_large_bodies,
    "score-corpus": score_corpus,
}
