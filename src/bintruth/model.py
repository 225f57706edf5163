"""Core domain types shared by every stage of the harness.

All types are immutable value objects: construct once, share freely across
threads, compare structurally.  Addresses are virtual addresses throughout;
file offsets appear only on :class:`SectionRecord`.

Every record class is made by :func:`record`, a frozen, slotted dataclass
with a cheaper ``__init__``: loading a truth document builds one record
per function, byte run and diagnostic, and storing the fields through
``object.__setattr__`` was most of what each record cost.
"""
from __future__ import annotations

import hashlib
from dataclasses import MISSING, dataclass, field, fields

SEVERITIES = ("info", "warning", "error")

# Closed, documented set of diagnostic codes.  Every normalization decision
# that alters or discards data is explained by exactly one diagnostic, so a
# reader can reconstruct how the ground truth was derived.
GT_MISSING_SIZE = "GT_MISSING_SIZE"
GT_ALIAS_MERGED = "GT_ALIAS_MERGED"
GT_MULTI_ENTRY_MERGED = "GT_MULTI_ENTRY_MERGED"
GT_PADDING_TRIMMED = "GT_PADDING_TRIMMED"
GT_SIZE_OVERLAP = "GT_SIZE_OVERLAP"
GT_INCOMPLETE_EXCLUDED = "GT_INCOMPLETE_EXCLUDED"
GT_NO_DEBUG_INFO = "GT_NO_DEBUG_INFO"
GT_DISCONTIGUOUS_RANGE = "GT_DISCONTIGUOUS_RANGE"
GT_SYMBOL_OUTSIDE_SECTIONS = "GT_SYMBOL_OUTSIDE_SECTIONS"
GT_FUNCTION_NOT_EXECUTABLE = "GT_FUNCTION_NOT_EXECUTABLE"
GT_BAD_STRING_OFFSET = "GT_BAD_STRING_OFFSET"
GT_START_MISMATCH = "GT_START_MISMATCH"
GT_SUBPROGRAM_NO_ADDRESS = "GT_SUBPROGRAM_NO_ADDRESS"
GT_DEBUG_OUTSIDE_EXEC = "GT_DEBUG_OUTSIDE_EXEC"
GT_MALFORMED_DEBUG_DATA = "GT_MALFORMED_DEBUG_DATA"
GT_LINKER_DISCARDED = "GT_LINKER_DISCARDED"
GT_BAD_LINE_TABLE = "GT_BAD_LINE_TABLE"
GT_BAD_EH_FRAME = "GT_BAD_EH_FRAME"

DIAGNOSTIC_CODES = frozenset(code for name, code in globals().items() if name.startswith("GT_"))


def record(cls: type) -> type:
    """``dataclass(frozen=True, slots=True)`` with a cheaper ``__init__``.

    The generated ``__init__`` has the dataclass one's signature and
    defaults, but stores each field through its slot descriptor, not
    ``object.__setattr__``, then calls ``__post_init__`` if there is one.
    Its source holds only names: descriptors and defaults are bound in the
    namespace it is compiled in. A ``default_factory``, an ``init=False``
    default or a keyword-only field raises ``TypeError``.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    namespace, params, body = {}, ["self"], []
    for f in fields(cls):
        if f.default_factory is not MISSING or f.kw_only or (
            not f.init and f.default is not MISSING
        ):
            raise TypeError(f"record {cls.__name__} cannot build field {f.name!r}")
        if f.init:  # __post_init__ sets the others
            namespace[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
            namespace[f"_default_{f.name}"] = f.default
            required = f.default is MISSING
            params.append(f.name if required else f"{f.name}=_default_{f.name}")
            body.append(f"_set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    text = f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body or ["pass"])
    exec(compile(text, f"<record {cls.__name__}>", "exec"), namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


@record
class Diagnostic:
    """One auditable extraction or normalization event.

    ``span`` is an optional ``(virtual address, length)`` pair locating the
    bytes the event is about.
    """

    severity: str
    code: str
    message: str
    span: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")


@record
class SectionRecord:
    """One section of the binary.

    ``file_offset`` is ``None`` for sections without file-backed content
    (NOBITS, e.g. ``.bss``). ``tls`` marks thread-local sections.
    """

    name: str
    vaddr: int
    size: int
    executable: bool
    allocated: bool
    file_offset: int | None
    tls: bool = False

    @property
    def mapped(self) -> bool:
        """Whether the section takes non-empty address space in the image.

        A NOBITS TLS section (``.tbss``) does not: it only sizes each
        thread's block, and its address may overlap the next section.
        """
        return (
            self.allocated
            and self.size > 0
            and not (self.tls and self.file_offset is None)
        )

    @property
    def end(self) -> int:
        return self.vaddr + self.size


SYMBOL_BINDINGS = ("local", "global", "weak")


@record
class SymbolRecord:
    """One defined function symbol.  ``size == 0`` means unknown, never empty."""

    name: str
    value: int
    size: int
    binding: str

    def __post_init__(self) -> None:
        if self.binding not in SYMBOL_BINDINGS:
            raise ValueError(f"unknown symbol binding {self.binding!r}")


# e_machine values with first-class names; everything else is "other" and
# keeps its raw code so corpus statistics can still count it.
MACHINE_NAMES = {3: "x86", 62: "x86_64"}


def machine_label(code: int) -> str:
    """Human/JSON form of an e_machine code, e.g. ``x86`` or ``other(40)``."""
    return MACHINE_NAMES.get(code, f"other({code})")


@record
class BinaryImage:
    """A parsed binary: sections, symbols, and the raw bytes behind them.

    ``sections`` mirrors the section header table in order (index 0 is the
    null section). ``mapped_sections`` holds the mapped ones in address
    order and ``mapped_starts`` their addresses, sorted once per image for
    :func:`elf.section_of` and the byte map. ``symbols`` holds the defined
    function symbols only.
    """

    source_path: str
    content_digest: bytes
    word_size: int
    endianness: str
    machine_code: int
    sections: tuple[SectionRecord, ...]
    symbols: tuple[SymbolRecord, ...]
    raw: bytes = field(repr=False)
    parse_diagnostics: tuple[Diagnostic, ...] = ()
    mapped_sections: tuple[SectionRecord, ...] = field(
        init=False, repr=False, compare=False
    )
    mapped_starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mapped = sorted((s for s in self.sections if s.mapped), key=lambda s: s.vaddr)
        object.__setattr__(self, "mapped_sections", tuple(mapped))
        object.__setattr__(self, "mapped_starts", tuple([s.vaddr for s in mapped]))

    @property
    def machine(self) -> str:
        """``x86``, ``x86_64`` or ``other``, named from ``machine_code``."""
        return MACHINE_NAMES.get(self.machine_code, "other")


def digest_binary(data: bytes) -> bytes:
    """Deterministic 32-byte content digest (SHA-256) of a binary."""
    return hashlib.sha256(data).digest()
