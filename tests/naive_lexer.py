"""Independent per-character reference for the parser's lexer.

This is the parser's earlier algorithm, kept as the test oracle for the
one-pass `parser._lex`: a search loop that finds each string, line comment or
block opener and closes a block comment by hand, a mask that rebuilds the
text one character at a time, line starts found by visiting every character,
and the annotation-region extraction built on those three. It shares no
lexing code with the package.
"""
from __future__ import annotations

import re

from autoft.diagnostics import GenerationError, SourceSpan, error

MARKER = "AUTOSVA"

_COMMENT_OR_STRING_RE = re.compile(
    r'"(?:[^"\\\n]|\\.)*"'  # string literal, so // inside strings is ignored
    r"|//[^\n]*"  # line comment
    r"|/\*"  # block comment opener, closed by hand below
)


def scan_comments(source: str) -> list[tuple[int, int, str]]:
    """All comments as (start, end, kind), kind 'line', 'block' or 'open_block'."""
    comments = []
    pos = 0
    while True:
        m = _COMMENT_OR_STRING_RE.search(source, pos)
        if not m:
            break
        text = m.group(0)
        if text.startswith('"'):
            pos = m.end()
            continue
        if text.startswith("//"):
            comments.append((m.start(), m.end(), "line"))
            pos = m.end()
            continue
        close = source.find("*/", m.end())
        if close == -1:
            comments.append((m.start(), len(source), "open_block"))
            pos = len(source)
        else:
            comments.append((m.start(), close + 2, "block"))
            pos = close + 2
    return comments


def mask(source: str, spans) -> str:
    """Blank out the given spans, preserving newlines."""
    chars = list(source)
    for start, end, *_ in spans:
        for i in range(start, min(end, len(chars))):
            if chars[i] != "\n":
                chars[i] = " "
    return "".join(chars)


def line_starts(source: str) -> list[int]:
    starts = [0]
    for i, ch in enumerate(source):
        if ch == "\n":
            starts.append(i + 1)
    return starts


def _span(starts: list[int], path: str, offset: int) -> SourceSpan:
    line = max(k for k, s in enumerate(starts) if s <= offset)
    return SourceSpan(path, line + 1, offset - starts[line] + 1)


def _marker_payload(body: str) -> str | None:
    stripped = body.lstrip()
    if not stripped.startswith(MARKER):
        return None
    rest = stripped[len(MARKER) :]
    if rest and (rest[0].isalnum() or rest[0] in "_$"):
        return None
    return rest


def extract_annotation_regions(source: str, path: str = "<string>") -> list[tuple[str, SourceSpan]]:
    """Payload text and span of every marked comment; GenerationError on an open marked block."""
    starts = line_starts(source)
    regions = []
    for start, end, kind in scan_comments(source):
        if kind == "line":
            body = source[start + 2 : end]
            payload = _marker_payload(body)
            if payload is None:
                continue
            pad = len(body) - len(payload.lstrip())
            regions.append((payload.strip(), _span(starts, path, start + 2 + pad)))
            continue
        body = source[start + 2 : end - 2 if kind == "block" else end]
        lines = body.split("\n")
        payload = _marker_payload(lines[0])
        if payload is None:
            continue
        if kind == "open_block":
            snippet = source[start : start + 40].split("\n")[0]
            raise GenerationError([error("unterminated-block-comment", "annotation region is never closed with */",
                                         _span(starts, path, start), snippet)])
        if payload.strip():
            text = "\n".join([payload] + lines[1:])
            offset = start + 2 + len(lines[0]) - len(payload)
        elif len(lines) > 1:
            text = "\n".join(lines[1:])
            offset = start + 2 + len(lines[0]) + 1
        else:
            continue
        regions.append((text, _span(starts, path, offset)))
    return regions
