"""Parse annotated SystemVerilog module headers.

The input is the interface-declaration section of an RTL file: the text from
the `module` keyword through the `);` that closes the port list. From it we
extract global parameters, port declarations, and transaction annotations.

Annotations are ordinary Verilog comments marked with the AUTOSVA token:
either a `// AUTOSVA <payload>` line, or a `/*AUTOSVA ... */` block whose
first line starts with the marker (every line of such a block is payload).
A payload line is one of:

    tname: p -in> q             request/response relation, incoming
    tname: p -out> q            relation, outgoing
    [expr:0] field = expr       bind a transaction attribute to an expression
    input SIG                   declare a new checker input for an attribute
    output SIG                  declare a new checker output for an attribute

where `field` is `<interface>_<suffix>` and the suffix is one of the legal
attribute suffixes below. Splitting a field name takes the longest matching
legal suffix, so `x_transid_unique` is (`x`, `transid_unique`), never
(`x_transid`, `unique`). `SIG` is a header port declaration without its
direction, `[wire|logic|reg|var] [signed|unsigned] [ranges] field` or
`type field`, and a trailing `;` is dropped. A declared signal is a port of
the property module: it is parsed into the same `InterfaceSignal` record,
and repeating the name of a port or of another declared signal is an error.
Brackets `()[]{}` outside string literals must balance on an attribute line.
A `=` or `;` inside a range, a `;` in a right-hand side other than the
trailing one, a `=` in a right-hand side that is not part of a comparison
(`==`, `===`, `!=`, `!==`, `<=`, `>=`), and a comment token (`//`, `/*`, `*/`)
are errors at that token. A transaction name is declared once: a later
relation that reuses it is an error and is dropped.

Each payload line that parses becomes an `Annotation` whose payload is a
`RelationDecl`, an `ExplicitAttrib` or an `InterfaceSignal`; the payload's
type is the annotation's kind. A field name is kept as written: the parser
only checks its suffix, and `transactions` splits it where it binds it.
`split_field` splits without a regex: at the last `_`, or before
`transid_unique`, the one suffix that holds a `_`.

The supported Verilog subset is ANSI-style headers: `input`/`output`
directions, optional wire/logic/reg keyword, one declarator per list item,
packed ranges. Ports with a user-defined (struct) type are kept opaque:
emitted with their type as written, with an unknown width; their fields are
reachable only through explicit `= expr` attribute bindings.

One regex pass over strings and comments yields the comment list, which the
annotations are read from, and a masked copy in which those comments (not
strings) are blanked to spaces. Newlines stay, also inside block comments,
so offsets in the masked text are those of the source. The copy starts at
the line of the first `module` outside every comment, since no header starts
before it: the text before that line, a wide header's whole annotation
block, is one run of spaces ended by a newline, not a blanked copy of each
comment. The pass stops at the last AUTOSVA marker, since no marked comment
starts after it, and the header is read from that masked copy, continued
with the source up to the first comment, directive or string literal after
the stop, with backtick directive lines blanked to spaces as well. That read
is the whole file's unless the header runs past that opener (or the read
fails); then the whole source is lexed and the header read again. So a body
past the header and the last marker is neither lexed nor copied unless such
an opener sits in the header. The header is the first `module` keyword that
starts a word. One tokenizer, which skips string literals, reads both the
header and the annotations: it closes and splits the header lists, splits a
parameter item at its lone `=` (an item whose first `=` outside brackets is
part of a comparison is skipped with a warning), and finds the tokens an
attribute line may not hold. Three common shapes skip it and read alike in
one regex match: a plain port item (a one-bit port, or one `[...:0]` range),
whose matches one `finditer` steps through up to the first item that is not
plain; and, in the one pattern every payload line is tried against first, a
well-formed relation and an assignment to a field with a legal suffix whose
range and right-hand side hold no bracket, quote, `=`, `/`, `*` or newline,
and no `;` but a trailing one.

Every position is a source offset. A port, a declared signal, an assignment
and an annotation keep the offset of their item; none of them holds a
`SourceSpan`, since only a diagnostic reads one. A diagnostic is made with
the offset for its span, and the stage that reports it locates it before it
returns (`ParsedModule.locate`), so a header with no diagnostic locates
nothing. The offsets of a stage's diagnostics are located in one ascending
batch by calls into C alone (`_spans`, the one rule): the newlines between
consecutive offsets advance the line, and the last newline before an offset
is where its column is counted from. Such a span is valid as made, and skips
the check of `SourceSpan.__new__`. A message that names where a first
declaration is (`duplicate-transaction-name`, `duplicate-binding`) locates
the offsets of those first declarations in one batch as well.

Every record this module returns (`Parameter`, `InterfaceSignal`,
`RelationDecl`, `ExplicitAttrib`, `Annotation`, `ParsedModule`) is a named
tuple of its fields, like the spans and diagnostics of `autoft.diagnostics`
and the nodes of `autoft.sva`: immutable and cheap to build. Like any tuple
it compares by value, not by type. The parsed module also holds the source
and its path, which locate an offset.
"""
from __future__ import annotations

import functools
import re
from bisect import bisect
from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate, repeat
from operator import itemgetter, sub

from .diagnostics import Diagnostic, GenerationError, SourceSpan, error, warning

ANNOTATION_MARKER = "AUTOSVA"

# Legal attribute suffixes. No `_<suffix>` ends another, so at most one ends a field name.
SUFFIXES = ("transid_unique", "transid", "active", "stable", "data", "val", "ack")

_IDENT = r"[A-Za-z_][A-Za-z0-9_$]*"
IDENT_RE = re.compile(_IDENT)
_LITERAL_WIDTH_RE = re.compile(r"^\[\s*(\d+)\s*:\s*0\s*\]$")


class Parameter(namedtuple("Parameter", "name value_expr")):
    __slots__ = ()


class InterfaceSignal(namedtuple("InterfaceSignal", "direction name width_expr offset opaque_type", defaults=(None,))):
    """A header port, or a signal an `input`/`output` annotation declares.

    direction is "input" or "output"; width_expr the packed range verbatim,
    such as "[WIDTH-1:0]", or "" for 1 bit; opaque_type a user-defined type
    name, whose width is unknown, or None.
    """

    __slots__ = ()

    @property
    def width_bits(self) -> int | None:
        """Bit count when the range is a literal `[N:0]`, else None."""
        if self.opaque_type is not None:
            return None
        return literal_width_bits(self.width_expr)


class RelationDecl(namedtuple("RelationDecl", "tname p q direction")):
    """`tname: p -in> q`; direction is "incoming" or "outgoing"."""

    __slots__ = ()


class ExplicitAttrib(namedtuple("ExplicitAttrib", "name width_expr expr offset")):
    """A `[width] field = expr` binding.

    name is the field as written, `<interface>_<suffix>`; width_expr is ""
    when no range is given, and the width is then unknown.
    """

    __slots__ = ()

    @property
    def width_bits(self) -> int | None:
        """Bit count when the range is a literal `[N:0]`; None when it is not, or not given."""
        return literal_width_bits(self.width_expr) if self.width_expr else None


class Annotation(namedtuple("Annotation", "raw_text offset payload")):
    """One payload line; the payload's type says which kind of annotation it is.

    The payload is a `RelationDecl`, an `ExplicitAttrib` or an `InterfaceSignal`.
    """

    __slots__ = ()


class ParsedModule(namedtuple("ParsedModule", "module_name parameters signals annotations imports diagnostics "
                                               "source path")):
    """One module's header and annotations, and the source they were read from at `path`.

    signals are the header's ports in source order, matched or not.
    """

    __slots__ = ()

    def spans(self, offsets: list[int]) -> list[SourceSpan]:
        """The span of each of the ascending `offsets` into the source, located in one batch (`_spans`)."""
        return _spans(self.source, self.path, offsets)

    def locate(self, diags: list[Diagnostic]) -> None:
        """Give each of `diags` whose span is still a source offset the span of that offset, in place."""
        at = sorted((d.span, i) for i, d in enumerate(diags) if type(d.span) is int)
        for (_, i), span in zip(at, self.spans([offset for offset, _ in at])):
            diags[i] = diags[i]._replace(span=span)

    def declared_signals(self) -> list[InterfaceSignal]:
        return [a.payload for a in self.annotations if isinstance(a.payload, InterfaceSignal)]

    def port_names(self) -> set[str]:
        """The property module's ports: the header's and the declared signals."""
        return {s.name for s in self.signals} | {s.name for s in self.declared_signals()}


@functools.cache
def literal_width_bits(width_expr: str) -> int | None:
    """`[N:0]` with integer N gives N+1 bits; empty means 1; else unknown."""
    if not width_expr:
        return 1
    m = _LITERAL_WIDTH_RE.match(width_expr)
    if m:
        return int(m.group(1)) + 1
    return None


def split_field(name: str) -> tuple[str, str] | None:
    """`(prefix, suffix)` of `<prefix>_<suffix>`, by the longest legal suffix; None if there is none."""
    prefix, _, suffix = name.rpartition("_")
    if suffix == "unique" and prefix.endswith("_transid"):  # the one suffix that holds a `_`
        prefix, suffix = prefix[:-8], "transid_unique"
    # An identifier: ASCII, no leading digit or `$`, which a digit stands in for.
    if suffix in SUFFIXES and prefix.isascii() and prefix.replace("$", "0").isidentifier():
        return prefix, suffix
    return None


def _spans(source: str, path: str, offsets: list[int]) -> list[SourceSpan]:
    """The 1-based span of each of the ascending `offsets` into `source`.

    The text between consecutive offsets is read once, and by calls into C
    alone: its newlines advance the line, and the last of them is where the
    column is counted from. A span made so is valid, and skips the check of
    `SourceSpan.__new__`.
    """
    starts = [0, *offsets]
    lines = accumulate(map(source.count, repeat("\n"), starts, offsets), initial=1)
    next(lines)  # the line of offset 0
    newlines = accumulate(map(source.rfind, repeat("\n"), starts, offsets), max)  # -1 before the first
    return list(map(tuple.__new__, repeat(SourceSpan), zip(repeat(path), lines, map(sub, offsets, newlines))))


def _span(source: str, path: str, offset: int) -> SourceSpan:
    return _spans(source, path, [offset])[0]


# A string literal, matched only to be skipped; unrolled, so that each run of
# plain characters is one step of the regex engine.
_STRING = r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"'

# Leftmost match wins, so a comment opener in a string or a quote in a comment
# is never seen. Every alternative begins with `"` or `/`, which lets the regex
# engine skip ahead to the next candidate. The block comment is unrolled too.
_LEX_RE = re.compile(
    _STRING
    + r"|/(?:(?P<line>/[^\n]*)|(?P<block>\*[^*]*\*+(?:[^/*][^*]*\*+)*/)"
    r"|(?P<open_block>\*[\s\S]*))"  # never closed, runs to end of input
)


def _lex(source: str, stop: int | None = None) -> tuple[list[tuple[int, int, str]], str]:
    """Comments that start before `stop` as (start, end, kind), and the text the header is read from.

    `stop` ends a line, or defaults to the end of the source: no string or
    line comment runs past it, and the text past it is searched only for the
    end of a block comment that does. kind is 'line', 'block', or
    'open_block' for a block comment that never closes; the caller decides
    whether that is fatal. The text is the source with those comments
    blanked, from the line of the first `module` outside them on, since no
    header starts before it; the text before that line is blanked whole,
    its last character a newline. It runs to `stop`, to the end of the last
    comment lexed or to that line, whichever is latest; the source past it
    is not copied. A blanked comment keeps its newlines, so offsets into the
    text are offsets into `source`.
    """
    stop = len(source) if stop is None else stop
    comments = [(m.start(), m.end(), m.lastgroup) for m in _LEX_RE.finditer(source, 0, stop + 1) if m.lastgroup]
    if comments and comments[-1][1] > stop:  # a block comment, which may close past the bound
        m = _LEX_RE.match(source, comments[-1][0])
        comments[-1] = (m.start(), m.end(), m.lastgroup)
    at = source.find("module")  # wholly inside a comment or wholly outside: it holds no comment token
    while at != -1 and (i := bisect(comments, (at,))) and comments[i - 1][1] > at:
        at = source.find("module", comments[i - 1][1])
    done = source.rfind("\n", 0, max(at, 0)) + 1
    parts = [" " * (done - 1), "\n"] if done else []
    for start, end, kind in comments[bisect(comments, done, key=itemgetter(1)):]:  # from the first to end past it
        text = source[max(start, done) : end]
        blank = " " * len(text) if kind == "line" else "\n".join([" " * len(line) for line in text.split("\n")])
        parts += source[done:start], blank
        done = end
    parts.append(source[done:stop])
    return comments, "".join(parts)


def _marker_stop(source: str) -> int:
    """The end of the last AUTOSVA marker's line: no marked comment starts after it."""
    end = source.find("\n", source.rfind(ANNOTATION_MARKER) + 1)
    return len(source) if end == -1 else end


def _marker_payload(body: str) -> str | None:
    """Return the text after the AUTOSVA marker, or None if not marked."""
    stripped = body.lstrip()
    if not stripped.startswith(ANNOTATION_MARKER):
        return None
    rest = stripped[len(ANNOTATION_MARKER) :]
    if rest and (rest[0].isalnum() or rest[0] in "_$"):
        return None  # an identifier that merely starts with the marker
    return rest


def extract_annotation_regions(source: str, path: str = "<string>") -> list[tuple[str, SourceSpan]]:
    """Collect annotation payload text from marked comments.

    Returns one (text, span) pair per marked comment: the payload of a marked
    line comment, or every line of a marked block comment. The span points at
    the first payload character. Ordinary comments contribute nothing.

    Raises GenerationError (code `unterminated-block-comment`) when a marked
    block comment never closes; an unmarked one is silently treated as
    running to the end of input, matching compiler behavior.
    """
    comments, _ = _lex(source, _marker_stop(source))
    regions = _regions(source, comments, path)
    return list(zip([text for text, _ in regions], _spans(source, path, [offset for _, offset in regions])))


def _regions(source: str, comments: list[tuple[int, int, str]], path: str) -> list[tuple[str, int]]:
    """`extract_annotation_regions` over comments that `_lex` already found, with source offsets."""
    regions: list[tuple[str, int]] = []
    for start, end, kind in comments:
        if kind == "line":
            body = source[start + 2 : end]
            payload = _marker_payload(body)
            if payload is None:
                continue
            pad = len(body) - len(payload.lstrip())
            regions.append((payload.strip(), start + 2 + pad))
        else:
            body = source[start + 2 : end - 2 if kind == "block" else end]
            first_line, newline, tail = body.partition("\n")
            payload = _marker_payload(first_line)
            if payload is None:
                continue
            if kind == "open_block":
                raise GenerationError(
                    [
                        error(
                            "unterminated-block-comment",
                            "annotation region is never closed with */",
                            _span(source, path, start),
                            source[start : start + 40].split("\n")[0],
                        )
                    ]
                )
            if payload.strip():
                # Payload begins on the marker line itself.
                text = payload + newline + tail
                offset = start + 2 + (len(first_line) - len(payload))
            elif newline:
                text = tail
                offset = start + 2 + len(first_line) + 1
            else:
                continue  # marker with no payload at all
            regions.append((text, offset))
    return regions


def _region_lines(regions: list[tuple[str, int]]) -> tuple[list[str], list[int]]:
    """The payload lines of regions that each start at their source offset, and the offset of each.

    A leading `*` decoration (common in block comments) is stripped.
    """
    lines, offsets = [], []
    for text, offset in regions:
        for line in text.split("\n"):
            payload = line.lstrip()
            if payload.startswith("*"):
                payload = payload[1:].lstrip()
            if payload:
                lines.append(payload.rstrip())
                offsets.append(offset + len(line) - len(payload))
            offset += len(line) + 1
    return lines, offsets


_ARROW_RE = re.compile(r"(-in>|-out>)")
_RELATION_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_$]*)\s*:\s*(.*?)\s*$")
# What a plain range or right-hand side does not hold: the first character of
# every `_TOKEN_RE` token but a comma, and a newline, which
# `_ATTRIB_ASSIGN_RE`'s right-hand side never holds.
_PLAIN = r'()\[\]{}"=;/*\n'
# A payload line that reads alike in one match, without a token: an
# assignment to a field with a legal suffix whose range and right-hand side
# are plain, or a relation that `parse_relation` accepts (`_RELATION_RE`'s
# right-hand side holds no newline, so no whitespace around the arrow does).
# The right-hand side runs from its first to its last non-space character, as
# `_ATTRIB_ASSIGN_RE`'s does.
_PLAIN_LINE_RE = re.compile(
    rf"\s*(?:(?:(?P<width>\[[^{_PLAIN}]+\])\s*)?(?P<name>{_IDENT}_(?:{'|'.join(SUFFIXES)}))\s*="
    rf"\s*(?P<expr>[^\s{_PLAIN}](?:[^{_PLAIN}]*[^\s{_PLAIN}])?)\s*;?"
    rf"|(?P<tname>{_IDENT})\s*:\s*(?P<p>{_IDENT})[^\S\n]*-(?P<arrow>in|out)>[^\S\n]*(?P<q>{_IDENT}))\s*"
)


def parse_relation(line: str, offset: int, diags: list[Diagnostic]) -> RelationDecl | None:
    """Parse `tname: p -in> q` or `tname: p -out> q`, found at `offset`, or record a diagnostic and return None.

    The code is `bad-arrow` when the token between the two interface names is
    not one of the two arrows, and `bad-relation` when the line cannot be
    shaped into name, interface, arrow, interface at all.
    """
    m = _PLAIN_LINE_RE.fullmatch(line)
    if m and m["tname"]:
        return RelationDecl(m["tname"], m["p"], m["q"], "incoming" if m["arrow"] == "in" else "outgoing")
    m = _RELATION_RE.match(line)
    rhs = m.group(2) if m else ""
    arrows = _ARROW_RE.findall(rhs)
    if not m:
        code, message = "bad-relation", "relation must start with 'name:'"
    elif len(arrows) == 1:
        p, q = (side.strip() for side in _ARROW_RE.split(rhs)[::2])
        code, message = "bad-relation", f"interface names must be identifiers: '{p}', '{q}'"
    elif len(parts := rhs.split()) == 3:
        code, message = "bad-arrow", f"expected '-in>' or '-out>' between interfaces, got '{parts[1]}'"
    else:
        code, message = "bad-relation", "expected 'tname: p -in> q' or 'tname: p -out> q'"
    diags.append(error(code, message, offset, line))
    return None


_ATTRIB_ASSIGN_RE = re.compile(
    r"^\s*(?:(?P<width>\[[^\]]+\])\s*)?(?P<name>[A-Za-z_][A-Za-z0-9_$]*)\s*=(?!=)\s*(?P<expr>.+?)\s*;?\s*$"
)
_DECL_RE = re.compile(r"(?:input|output)\s")


def _read_annotations(source: str, path: str, regions: list[tuple[str, int]], diags: list[Diagnostic]) -> list[Annotation]:
    """The annotations of the payload lines of `_regions`, in order; errors go to `diags`, with source offsets.

    A plain line is read by its one match. A relation whose transaction name
    an earlier one declared is dropped, with an error after every line's.
    """
    annotations, tnames, dups = [], {}, []
    for line, offset in zip(*_region_lines(regions)):
        m = _PLAIN_LINE_RE.fullmatch(line)
        if m is None:
            ann = _parse_annotation_line(line, offset, diags)
            if ann is None:
                continue
        else:
            width, name, expr, tname, p, arrow, q = m.groups()
            payload = (tuple.__new__(ExplicitAttrib, (name, width or "", expr, offset)) if name
                       else tuple.__new__(RelationDecl, (tname, p, q, "incoming" if arrow == "in" else "outgoing")))
            ann = tuple.__new__(Annotation, (line, offset, payload))
        rel = ann.payload  # the first declaration of a transaction name names the transaction
        if type(rel) is RelationDecl and (first := tnames.setdefault(rel.tname, offset)) != offset:
            dups.append((first, rel.tname, offset, line))
            continue
        annotations.append(ann)
    firsts = sorted({first for first, *_ in dups})  # located in one batch, as the message names each
    at = dict(zip(firsts, _spans(source, path, firsts)))
    diags += [error("duplicate-transaction-name", f"transaction '{tname}' already declared at {at[first]}", offset,
                    line) for first, tname, offset, line in dups]
    return annotations


def _parse_annotation_line(line: str, offset: int, diags: list[Diagnostic]) -> Annotation | None:
    """Parse one payload line, found at `offset`, into an Annotation, or record a diagnostic."""
    if _RELATION_RE.match(line):
        rel = parse_relation(line, offset, diags)
        return None if rel is None else Annotation(line, offset, rel)

    m = _ATTRIB_ASSIGN_RE.match(line)
    bad = _bad_token(line, m)
    if bad is not None:
        at, tok = bad
        if tok in "()[]{}":
            diags.append(error("unbalanced-brackets", f"'{tok}' does not balance", offset + at, line))
        else:
            diags.append(error("bad-annotation", f"stray '{tok}'", offset + at, line))
        return None
    if m:
        name = m["name"]
    elif _DECL_RE.match(line):
        sig = _parse_port_item(line.removesuffix(";"), offset, diags)
        if sig is None:
            return None
        name = sig.name
    else:
        diags.append(error("bad-annotation", "not a relation or attribute definition", offset, line))
        return None
    if split_field(name) is None:
        diags.append(error("bad-field-suffix", f"'{name}' does not end in a legal attribute suffix", offset, line))
        return None
    return Annotation(line, offset, ExplicitAttrib(name, m["width"] or "", m["expr"], offset) if m else sig)


# A string literal, matched whole so that the brackets and separators it holds
# are skipped; the comparisons, so that a `=` token is a lone `=`; the comment
# tokens; and each bracket and separator. Every alternative begins with a
# literal character, which lets the regex engine skip ahead to candidates.
_TOKEN_RE = re.compile("|".join([_STRING, "===?", "!==?", "<=", ">=", "//", r"/\*", r"\*/", *map(re.escape, "=()[]{},;")]))
_OPENERS = "([{"
_CLOSERS = {")": "(", "]": "[", "}": "{"}
_COMMENT_TOKENS = ("//", "/*", "*/")


def _tokens(text: str, start: int = 0) -> Iterator[tuple[int, str, int]]:
    """(offset, token, depth) for each token of `text` from `start` on, string literals left out.

    `depth` counts the brackets of any kind opened and not closed between
    `start` and the token, so a bracket and its match have the same depth.
    """
    depth = 0
    for m in _TOKEN_RE.finditer(text, start):
        tok = m.group()
        if tok in _CLOSERS:
            depth -= 1
        if tok[0] != '"':
            yield m.start(), tok, depth
        if tok in _OPENERS:
            depth += 1


def _bad_token(line: str, assign: re.Match | None) -> tuple[int, str] | None:
    """Offset and text of the first token an attribute line may not hold, or None.

    In reading order: a bracket that closes no opener of its kind does not
    balance; a comment token is stray anywhere; before the right-hand side a
    `;` or a token holding `=` inside a range is stray; and in an assignment's
    right-hand side, which `_ATTRIB_ASSIGN_RE` has cut the one trailing `;`
    off, every `;` and every lone `=` is. Failing all of these, the first
    opener left open does not balance.
    """
    rhs_start, rhs_end = assign.span("expr") if assign else (len(line), len(line))
    opened: list[int] = []
    for off, tok, _ in _tokens(line):
        if tok in _OPENERS:
            opened.append(off)
        elif tok in _CLOSERS:
            if not opened or line[opened.pop()] != _CLOSERS[tok]:
                return off, tok
        elif tok in _COMMENT_TOKENS:
            return off, tok
        elif rhs_start <= off < rhs_end:
            if tok in (";", "="):
                return off, tok
        elif (tok == ";" or "=" in tok) and any(line[o] == "[" for o in opened):
            return off, tok
    return (opened[0], line[opened[0]]) if opened else None


def _header_list(text: str, open_pos: int) -> tuple[list[tuple[str, int]], int] | None:
    """Items of the header list opened at `open_pos`, each with its offset, and the index past its `)`.

    The list closes at the `)` that balances its `(`, counting parentheses
    alone; it splits at each comma outside every kind of bracket. None when
    the list never closes.
    """
    items = []
    start = open_pos + 1
    parens = 0
    for off, tok, depth in _tokens(text, start):
        if tok == "," and not depth:
            items.append((text[start:off], start))
            start = off + 1
        elif tok == "(":
            parens += 1
        elif tok == ")":
            if not parens:
                items.append((text[start:off], start))
                return items, off + 1
            parens -= 1
    return None


def _parse_parameter_item(item: str, offset: int, diags: list[Diagnostic]) -> Parameter | None:
    text = item.strip()
    if not text or text.startswith("localparam"):
        return None  # a localparam is not part of the public interface
    eq = _split_eq(text)
    if eq is None:
        diags.append(warning("parameter-skipped", f"cannot read parameter item '{text}'", offset, text))
        return None
    lhs, value = eq
    idents = IDENT_RE.findall(lhs)
    idents = [i for i in idents if i not in ("parameter", "int", "integer", "unsigned", "signed", "logic", "bit", "type")]
    if not idents:
        diags.append(warning("parameter-skipped", f"cannot find parameter name in '{text}'", offset, text))
        return None
    return Parameter(idents[-1], value.strip())


def _split_eq(text: str) -> tuple[str, str] | None:
    """`lhs = rhs` when the first token outside brackets that holds `=` is a lone `=`; else None.

    So a comparison (`==`, `!=`, `<=`, `>=`) there makes no assignment.
    """
    for off, tok, depth in _tokens(text):
        if "=" in tok and not depth:
            return (text[:off], text[off + 1 :]) if tok == "=" else None
    return None


# A stripped port declaration, in one of two forms: net type, sign and ranges,
# each optional, then the name; or a user type name, led by none of those
# keywords, then the name, when the width is unknown.
_PORT_RE = re.compile(
    rf"(input|output)\s+(?:(?:(?:wire|logic|reg|var)\s+)?(?:(?:signed|unsigned)\s+)?((?:\[[^\]]+\]\s*)*)({_IDENT})"
    rf"|(?!(?:wire|logic|reg|var|signed|unsigned)\s)({_IDENT})\s+({_IDENT}))"
)
# A port list item that `_parse_port_item` reads without a warning, with the
# `,` or `)` after it: a one-bit port, or one range that ends at `:0` and holds
# no bracket, separator, quote or newline. That range is its only bracket pair
# and it holds no string, so `_header_list` ends or splits the list there too.
# Else the empty match, so that each match of a `finditer` starts where the
# last one ended.
_PLAIN_PORT_RE = re.compile(
    r"(?:\s*(input|output)\s+(?:(?:wire|logic|reg|var)\s+)?(?:(?:signed|unsigned)\s+)?"
    rf'(?:(\[[^\[\](){{}}",\n]*:0\])\s*)?({_IDENT})\s*([,)]))?'
)
_RANGE_RE = re.compile(r"\[[^\]]+\]")
_CANONICAL_RANGE_RE = re.compile(r"^\[.*:0\]$")


def _parse_port_item(item: str, offset: int, diags: list[Diagnostic]) -> InterfaceSignal | None:
    text = item.strip()
    if not text:
        return None
    m = _PORT_RE.fullmatch(text)
    if m and m[4]:
        direction, type_name, name = m.group(1, 4, 5)
        diags.append(
            warning("opaque-port-type", f"port '{name}' has user type '{type_name}', width unknown", offset, text)
        )
        return InterfaceSignal(direction, name, "", offset, opaque_type=type_name)
    if m:
        direction, ranges, name = m.group(1, 2, 3)
        range_list = _RANGE_RE.findall(ranges)
        width = "".join(range_list).replace(" ", "")
        if len(range_list) > 1:
            diags.append(
                warning("non-canonical-range", f"multi-dimensional range on '{name}' kept verbatim", offset, text)
            )
        elif width and not _CANONICAL_RANGE_RE.match(width):
            diags.append(
                warning("non-canonical-range", f"range '{width}' on '{name}' does not end at :0", offset, text)
            )
        return InterfaceSignal(direction, name, width, offset)
    if text.startswith("inout"):
        diags.append(error("malformed-port-decl", "inout ports are not supported", offset, text))
        return None
    diags.append(error("malformed-port-decl", f"cannot classify port declaration '{text}'", offset, text))
    return None


_DIRECTIVE_RE = re.compile(r"^[ \t]*`[^\n]*$", re.MULTILINE)
# No leading `\b`, which would keep the regex engine from skipping ahead to the
# literal `module`; a hit that follows a word character is stepped past instead.
_MODULE_RE = re.compile(rf"module\s+({_IDENT})")
_WORD_RE = re.compile(r"\w")
_IMPORT_RE = re.compile(r"\s*import\s+[^;]+;")
_PARAMS_OPEN_RE = re.compile(r"\s*#\s*\(")
_PORTS_OPEN_RE = re.compile(r"\s*\(")
_SEMI_RE = re.compile(r"\s*;")


def _read_header(source: str, masked: str, stop: int, path: str) -> tuple[ParsedModule, int]:
    """The header read from `masked`, which `_lex` blanked before `stop`, and the offset past the header.

    `masked` may end before the source does. `stop` ends a line, and
    directive lines before it are blanked to spaces. The module has no
    annotations yet. The offset is the source's length when neither a port
    list nor `;` follows the module name.
    """
    directives = list(_DIRECTIVE_RE.finditer(masked, 0, stop)) if masked.find("`", 0, stop) != -1 else []
    if directives:
        masked = _DIRECTIVE_RE.sub(lambda d: " " * len(d[0]), masked[:stop]) + masked[stop:]
    diags: list[Diagnostic] = []

    header = _MODULE_RE.search(masked)
    while header and header.start() and _WORD_RE.match(masked, header.start() - 1):  # as `\bmodule` would skip it
        header = _MODULE_RE.search(masked, header.start() + 1)
    if not header:
        raise GenerationError([error("no-module-header", "no 'module <name>' found in input", _span(source, path, 0))])
    pos = header.end()

    imports: list[str] = []
    while m := _IMPORT_RE.match(masked, pos):
        imports.append(masked[pos : m.end()].strip())
        pos = m.end()

    parameters: list[Parameter] = []
    m = _PARAMS_OPEN_RE.match(masked, pos)
    if m:
        listed = _header_list(masked, m.end() - 1)
        if listed is None:
            raise GenerationError([error("no-module-header", "unclosed parameter list", _span(source, path, m.end() - 1))])
        items, pos = listed
        for item, offset in items:
            param = _parse_parameter_item(item, offset, diags)
            if param:
                parameters.append(param)

    signals: list[InterfaceSignal] = []
    m = _PORTS_OPEN_RE.match(masked, pos)
    if m:
        pos = m.end()
        for plain in _PLAIN_PORT_RE.finditer(masked, pos):  # one match per plain item, then an empty one
            if not (sep := plain[4]):
                break
            direction, width, name, _ = plain.groups()
            signals.append(tuple.__new__(InterfaceSignal, (direction, name, width.replace(" ", "") if width else "",
                                                           plain.start(1), None)))
            pos = plain.end()
            if sep == ")":
                break
        if not sep:  # the rest of the list, from the first item that is not plain
            listed = _header_list(masked, pos - 1)
            if listed is None:
                raise GenerationError([error("no-module-header", "unclosed port list", _span(source, path, m.end() - 1))])
            items, pos = listed
            for item, off in items:
                sig = _parse_port_item(item, off + len(item) - len(item.lstrip()), diags)
                if sig:
                    signals.append(sig)
    elif m := _SEMI_RE.match(masked, pos):
        pos = m.end()
    else:
        diags.append(error("malformed-port-decl", "expected '(' or ';' after module name", pos))

    # Warn first about directives in the header: module keyword to port list or `;`.
    diags[:0] = [warning("preprocessor-ignored", "preprocessor directive ignored in header", d.start(),
                         source[d.start() : d.end()])
                 for d in directives if header.start() <= d.start() < pos]
    # `m` is None when neither a port list nor `;` follows: the header has no end.
    module = ParsedModule(header.group(1), parameters, signals, [], imports, diags, source, path)
    return module, pos if m else len(source)


def _opener(source: str, start: int) -> int:
    """The offset of the first comment, directive or string opener from `start` on, or the source's length.

    Each search stops where an earlier one found an opener.
    """
    cut = source.find("/", start)
    while cut != -1 and source[cut + 1 : cut + 2] not in ("/", "*"):  # a `/` that opens no comment
        cut = source.find("/", cut + 1)
    cut = len(source) if cut == -1 else cut
    for opener in ('"', "`"):
        at = source.find(opener, start, cut)
        cut = cut if at == -1 else at
    return cut


def parse_module(source: str, path: str = "<string>") -> ParsedModule:
    """Parse one annotated module header out of `source`.

    Problems that allow parsing to continue (a malformed port line, a bad
    annotation) are collected into the returned module's diagnostics. The only
    fatal cases, which raise GenerationError, are a missing module header or an
    unclosed header list (`no-module-header`) and an unterminated annotation
    region. Every diagnostic returned or raised is located.
    """
    # Lex through the line of the last marker first, and read the header from
    # that text as far as the first comment, directive or string opener after
    # it (a string may hold a comment opener). The read is the whole file's if
    # the header ends by that opener; if it runs past it (to the source's end
    # when the read fails), lex the whole source and read again.
    stop = _marker_stop(source)
    for stop, cut in ((stop, _opener(source, stop)), (len(source), len(source))):
        comments, masked = _lex(source, stop)
        masked += source[len(masked) : cut]
        try:
            (module, end), failure = _read_header(source, masked, stop, path), None
        except GenerationError as exc:
            end, failure = len(source), exc
        if end <= cut:
            break
    regions = _regions(source, comments, path)  # an open marked block is fatal first
    if failure:
        raise failure
    diags = module.diagnostics

    annotations = _read_annotations(source, path, regions, diags)

    signals = module.signals + [a.payload for a in annotations if type(a.payload) is InterfaceSignal]
    seen_ports: set[str] = set()
    for sig in signals if len({sig.name for sig in signals}) < len(signals) else ():
        if sig.name in seen_ports:
            diags.append(error("malformed-port-decl", f"port '{sig.name}' declared twice", sig.offset))
        seen_ports.add(sig.name)
    module = module._replace(annotations=annotations)
    module.locate(diags)
    return module
