"""Source locations, diagnostics, and error types shared by all stages.

Every parse or validation problem is reported as a :class:`Diagnostic` so a
single run can surface all of them at once instead of stopping at the first.
Only conditions that make it impossible to continue (no module header, an
unterminated annotation region) stop a stage at once. Whatever stops a run
raises one type, :class:`GenerationError`, carrying its diagnostics.

A span and a diagnostic are named tuples of their fields, as the parser's
records are: immutable, cheap to build, and compared by value. A record keeps
the source offset of its item, not a span. A stage makes each diagnostic with
that offset for its span, and locates its diagnostics before it returns
(`parser.ParsedModule.locate`), so every diagnostic a stage returns or raises
carries a `SourceSpan` or None.
"""
from __future__ import annotations

from collections import namedtuple


class SourceSpan(namedtuple("SourceSpan", "file line column")):
    """A 1-based position in an input file."""

    __slots__ = ()

    def __new__(cls, file: str, line: int, column: int) -> SourceSpan:
        if line < 1 or column < 1:
            raise ValueError(f"span must be 1-based, got {line}:{column}")
        return tuple.__new__(cls, (file, line, column))

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class Diagnostic(namedtuple("Diagnostic", "severity code message span snippet", defaults=(None, ""))):
    """One reportable problem, keyed by a stable machine-readable code.

    severity is "error" or "warning"; span may be None and snippet empty.
    Inside the stage that reports it, until that stage locates it, span is
    a source offset.
    """

    __slots__ = ()

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def render(self, color: bool = False) -> str:
        loc = f"{self.span}: " if self.span else ""
        sev = self.severity
        if color:
            tint = "\x1b[31m" if self.is_error else "\x1b[33m"
            sev = f"{tint}{self.severity}\x1b[0m"
        text = f"{loc}{sev}[{self.code}]: {self.message}"
        if self.snippet:
            text += f"\n    {self.snippet.strip()}"
        return text


def error(code: str, message: str, span: SourceSpan | int | None = None, snippet: str = "") -> Diagnostic:
    return Diagnostic("error", code, message, span, snippet)


def warning(code: str, message: str, span: SourceSpan | int | None = None, snippet: str = "") -> Diagnostic:
    return Diagnostic("warning", code, message, span, snippet)


def errors_in(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diagnostics if d.is_error]


class AutoFtError(Exception):
    """Base class for all errors raised by this package."""


class GenerationError(AutoFtError):
    """Parsing or validation failed, no testbench was produced; carries the diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__(f"{len(errors_in(diagnostics))} validation error(s)")


class UnknownSignalError(AutoFtError):
    """A property references a signal the trace does not define."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"trace has no column for signal '{name}'")


class SymbolicWidthError(AutoFtError):
    """A symbolic id's width is not a literal range, so its values cannot be enumerated."""


class SpaceTooLargeError(AutoFtError):
    """Requested trace enumeration exceeds the configured bound."""


class UnsupportedToolError(AutoFtError):
    """Requested an output flavor for a tool this generator does not know."""
