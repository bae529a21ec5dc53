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
splits it only to check its suffix, and `transactions` splits it where it
binds it.

The supported Verilog subset is ANSI-style headers: `input`/`output`
directions, optional wire/logic/reg keyword, one declarator per list item,
packed ranges. Ports with a user-defined (struct) type are kept opaque:
emitted with their type as written, with an unknown width; their fields are
reachable only through explicit `= expr` attribute bindings.

One regex pass over strings and comments yields the comment list, which the
annotations are read from, and a masked copy in which those comments (not
strings) are blanked to spaces. Newlines stay, also inside block comments,
so offsets and spans in the masked text are those of the source. The pass
stops at the last AUTOSVA marker, since no marked comment starts after it,
and the header is read from that masked copy, continued with the source up
to the first comment, directive or string literal after the stop, with
backtick directive lines blanked to spaces as well. That read is the whole
file's unless the header runs past that opener (or the read fails); then the
whole source is lexed and the header read again. So a body past the header
and the last marker is neither lexed nor copied unless such an opener sits
in the header. The header is the first `module` keyword
that starts a word. One tokenizer, which skips string
literals, reads both the header and the annotations: it closes and splits the
header lists, splits a parameter item at its lone `=` (an item whose first `=`
outside brackets is part of a comparison is skipped with a warning), and finds
the tokens an attribute line may not hold. Three common shapes skip it and
read alike in one regex match: a plain port item (a one-bit port, or one
`[...:0]` range), a well-formed relation, and an attribute line whose range
and right-hand side hold no bracket, quote, `=`, `;`, `/` or `*`. Every
position reported is a source offset turned into a line and column by one
line map, which finds line starts no further than twice the furthest offset
it is asked for.

Every record this module returns (`Parameter`, `InterfaceSignal`,
`RelationDecl`, `ExplicitAttrib`, `Annotation`) is a named tuple of its
fields, like the spans and diagnostics of `autoft.diagnostics` and the nodes
of `autoft.sva`: immutable and cheap to build. Like any tuple it compares by
value, not by type.
"""
from __future__ import annotations

import bisect
import functools
import re
from collections import namedtuple
from collections.abc import Iterator

from .diagnostics import Diagnostic, GenerationError, SourceSpan, error, warning

ANNOTATION_MARKER = "AUTOSVA"

# Legal attribute suffixes. No `_<suffix>` ends another, so at most one ends a field name.
SUFFIXES = ("transid_unique", "transid", "active", "stable", "data", "val", "ack")

_IDENT = r"[A-Za-z_][A-Za-z0-9_$]*"
IDENT_RE = re.compile(_IDENT)
_LITERAL_WIDTH_RE = re.compile(r"^\[\s*(\d+)\s*:\s*0\s*\]$")


class Parameter(namedtuple("Parameter", "name value_expr")):
    __slots__ = ()


class InterfaceSignal(namedtuple("InterfaceSignal", "direction name width_expr span opaque_type", defaults=(None,))):
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


class ExplicitAttrib(namedtuple("ExplicitAttrib", "name width_expr expr span")):
    """A `[width] field = expr` binding.

    name is the field as written, `<interface>_<suffix>`; width_expr is ""
    when no range is given, and the width is then unknown.
    """

    __slots__ = ()

    @property
    def width_bits(self) -> int | None:
        """Bit count when the range is a literal `[N:0]`; None when it is not, or not given."""
        return literal_width_bits(self.width_expr) if self.width_expr else None


class Annotation(namedtuple("Annotation", "raw_text span payload")):
    """One payload line; the payload's type says which kind of annotation it is.

    The payload is a `RelationDecl`, an `ExplicitAttrib` or an `InterfaceSignal`.
    """

    __slots__ = ()


class ParsedModule(namedtuple("ParsedModule", "module_name parameters signals annotations imports diagnostics")):
    """One module's header and annotations; signals are the header's ports in source order, matched or not."""

    __slots__ = ()

    def relations(self) -> list[RelationDecl]:
        return [a.payload for a in self.annotations if isinstance(a.payload, RelationDecl)]

    def explicit_attribs(self) -> list[Annotation]:
        return [a for a in self.annotations if isinstance(a.payload, ExplicitAttrib)]

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


# The one `_<suffix>` that ends a name, if any, is where the lazy prefix stops.
_FIELD_RE = re.compile(rf"([A-Za-z_][A-Za-z0-9_$]*?)_({'|'.join(SUFFIXES)})")


def split_field(name: str) -> tuple[str, str] | None:
    """`(prefix, suffix)` of `<prefix>_<suffix>`, by the longest legal suffix; None if there is none."""
    m = _FIELD_RE.fullmatch(name)
    return m.groups() if m else None


_NEWLINE_RE = re.compile("\n")


class _LineMap:
    """Offset to 1-based (line, column) translation for one source text.

    Line starts are found no further than twice the furthest offset asked
    for; `starts` finds and returns them all.
    """

    def __init__(self, source: str, path: str):
        self.path = path
        self._source = source
        self._starts = [0]
        self._scanned = 0  # every newline before this offset is in `_starts`

    @property
    def starts(self) -> list[int]:
        self.span(len(self._source))
        return self._starts

    def span(self, offset: int) -> SourceSpan:
        if offset > self._scanned:
            # At least double the scanned text, so that spans asked for in source order scan it once.
            end = max(offset, 2 * self._scanned)
            self._starts += [m.end() for m in _NEWLINE_RE.finditer(self._source, self._scanned, end)]
            self._scanned = end
        line = bisect.bisect_right(self._starts, offset)
        column = offset - self._starts[line - 1] + 1
        return SourceSpan(self.path, line, column)


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
    """Comments that start before `stop` as (start, end, kind), and the source through them blanked.

    `stop` defaults to the end of the source. The masked text runs to `stop`
    or to the end of the last comment lexed, whichever is later; the source
    past it is not copied. kind is 'line', 'block', or 'open_block' for a
    block comment that never closes; the caller decides whether that is
    fatal. A blanked comment keeps its newlines, so offsets into the masked
    text are offsets into `source`.
    """
    stop = len(source) if stop is None else stop
    comments: list[tuple[int, int, str]] = []
    parts, done = [], 0
    for m in _LEX_RE.finditer(source):
        start, kind = m.start(), m.lastgroup
        if start >= stop:
            break
        if kind is None:
            continue
        end = m.end()
        comments.append((start, end, kind))
        text = " " * (end - start) if kind == "line" else "\n".join([" " * len(line) for line in m[0].split("\n")])
        parts += source[done:start], text
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
    lmap = _LineMap(source, path)
    return [(text, lmap.span(offset)) for text, offset in _regions(source, comments, lmap)]


def _regions(source: str, comments: list[tuple[int, int, str]], lmap: _LineMap) -> list[tuple[str, int]]:
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
                            lmap.span(start),
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


def _region_lines(text: str, offset: int) -> list[tuple[str, int]]:
    """Per-line payloads of a region that starts at source `offset`, each with its own offset.

    A leading `*` decoration (common in block comments) is stripped.
    """
    out = []
    for line in text.split("\n"):
        payload = line.lstrip()
        if payload.startswith("*"):
            payload = payload[1:].lstrip()
        if payload:
            out.append((payload.rstrip(), offset + len(line) - len(payload)))
        offset += len(line) + 1
    return out


_ARROW_RE = re.compile(r"(-in>|-out>)")
_RELATION_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_$]*)\s*:\s*(.*?)\s*$")
# A relation that `parse_relation` accepts, read in one match: `_RELATION_RE`'s
# right-hand side holds no newline, so no whitespace around the arrow does.
_WELL_FORMED_RELATION_RE = re.compile(rf"\s*({_IDENT})\s*:\s*({_IDENT})[^\S\n]*-(in|out)>[^\S\n]*({_IDENT})\s*")


def parse_relation(line: str, span: SourceSpan, diags: list[Diagnostic]) -> RelationDecl | None:
    """Parse `tname: p -in> q` or `tname: p -out> q`, or record a diagnostic and return None.

    The code is `bad-arrow` when the token between the two interface names is
    not one of the two arrows, and `bad-relation` when the line cannot be
    shaped into name, interface, arrow, interface at all.
    """
    m = _WELL_FORMED_RELATION_RE.fullmatch(line)
    if m:
        tname, p, arrow, q = m.groups()
        return RelationDecl(tname, p, q, "incoming" if arrow == "in" else "outgoing")
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
    diags.append(error(code, message, span, line))
    return None


_ATTRIB_ASSIGN_RE = re.compile(
    r"^\s*(?:(?P<width>\[[^\]]+\])\s*)?(?P<name>[A-Za-z_][A-Za-z0-9_$]*)\s*=(?!=)\s*(?P<expr>.+?)\s*;?\s*$"
)
_DECL_RE = re.compile(r"(?:input|output)\s")


def _parse_annotation_line(line: str, offset: int, lmap: _LineMap, diags: list[Diagnostic]) -> Annotation | None:
    """Parse one payload line, found at source `offset`, into an Annotation, or record a diagnostic."""
    span = lmap.span(offset)
    if _RELATION_RE.match(line):
        rel = parse_relation(line, span, diags)
        return None if rel is None else Annotation(line, span, rel)

    m = _ATTRIB_ASSIGN_RE.match(line)
    bad = _bad_token(line, m)
    if bad is not None:
        at, tok = bad
        if tok in "()[]{}":
            diags.append(error("unbalanced-brackets", f"'{tok}' does not balance", lmap.span(offset + at), line))
        else:
            diags.append(error("bad-annotation", f"stray '{tok}'", lmap.span(offset + at), line))
        return None
    if m:
        name = m["name"]
    elif _DECL_RE.match(line):
        sig = _parse_port_item(line.removesuffix(";"), span, diags)
        if sig is None:
            return None
        name = sig.name
    else:
        diags.append(error("bad-annotation", "not a relation or attribute definition", span, line))
        return None
    if split_field(name) is None:
        diags.append(error("bad-field-suffix", f"'{name}' does not end in a legal attribute suffix", span, line))
        return None
    return Annotation(line, span, ExplicitAttrib(name, m["width"] or "", m["expr"], span) if m else sig)


# A string literal, matched whole so that the brackets and separators it holds
# are skipped; the comparisons, so that a `=` token is a lone `=`; the comment
# tokens; and each bracket and separator. Every alternative begins with a
# literal character, which lets the regex engine skip ahead to candidates.
_TOKEN_RE = re.compile("|".join([_STRING, "===?", "!==?", "<=", ">=", "//", r"/\*", r"\*/", *map(re.escape, "=()[]{},;")]))
# Text in which `_TOKEN_RE` finds commas at most.
_UNTOKENED_RE = re.compile(r'[^()\[\]{}"=;/*]*')
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
    if assign and _UNTOKENED_RE.fullmatch(line, assign.start("expr")) and (
        not assign["width"] or _UNTOKENED_RE.fullmatch(line, assign.start("width") + 1, assign.end("width") - 1)
    ):
        return None  # no token but the range's brackets, the `=` and commas
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


def _parse_parameter_item(item: str, span: SourceSpan, diags: list[Diagnostic]) -> Parameter | None:
    text = item.strip()
    if not text or text.startswith("localparam"):
        return None  # a localparam is not part of the public interface
    eq = _split_eq(text)
    if eq is None:
        diags.append(warning("parameter-skipped", f"cannot read parameter item '{text}'", span, text))
        return None
    lhs, value = eq
    idents = IDENT_RE.findall(lhs)
    idents = [i for i in idents if i not in ("parameter", "int", "integer", "unsigned", "signed", "logic", "bit", "type")]
    if not idents:
        diags.append(warning("parameter-skipped", f"cannot find parameter name in '{text}'", span, text))
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


_PORT_RE = re.compile(
    r"^\s*(input|output)\s+"
    r"(?:(wire|logic|reg|var)\s+)?"
    r"(?:(signed|unsigned)\s+)?"
    r"((?:\[[^\]]+\]\s*)*)"
    r"([A-Za-z_][A-Za-z0-9_$]*)\s*$"
)
_OPAQUE_PORT_RE = re.compile(
    r"^\s*(input|output)\s+(?!(?:wire|logic|reg|var|signed|unsigned)\s)"
    r"([A-Za-z_][A-Za-z0-9_$]*)\s+([A-Za-z_][A-Za-z0-9_$]*)\s*$"
)
# A port list item that `_parse_port_item` reads without a warning, with the
# `,` or `)` after it: a one-bit port, or one range that ends at `:0` and holds
# no bracket, separator, quote or newline. That range is its only bracket pair
# and it holds no string, so `_header_list` ends or splits the list there too.
_PLAIN_PORT_RE = re.compile(
    r"\s*(input|output)\s+(?:(?:wire|logic|reg|var)\s+)?(?:(?:signed|unsigned)\s+)?"
    rf'(?:(\[[^\[\](){{}}",\n]*:0\])\s*)?({_IDENT})\s*([,)])'
)
_RANGE_RE = re.compile(r"\[[^\]]+\]")
_CANONICAL_RANGE_RE = re.compile(r"^\[.*:0\]$")


def _parse_port_item(
    item: str, span: SourceSpan, diags: list[Diagnostic]
) -> InterfaceSignal | None:
    text = item.strip()
    if not text:
        return None
    m = _PORT_RE.match(text)
    if m:
        direction, _net, _sign, ranges, name = m.groups()
        range_list = _RANGE_RE.findall(ranges or "")
        width = "".join(range_list).replace(" ", "")
        if len(range_list) > 1:
            diags.append(
                warning("non-canonical-range", f"multi-dimensional range on '{name}' kept verbatim", span, text)
            )
        elif width and not _CANONICAL_RANGE_RE.match(width):
            diags.append(
                warning("non-canonical-range", f"range '{width}' on '{name}' does not end at :0", span, text)
            )
        return InterfaceSignal(direction, name, width, span)
    m = _OPAQUE_PORT_RE.match(text)
    if m:
        direction, type_name, name = m.groups()
        diags.append(
            warning("opaque-port-type", f"port '{name}' has user type '{type_name}', width unknown", span, text)
        )
        return InterfaceSignal(direction, name, "", span, opaque_type=type_name)
    if text.startswith("inout"):
        diags.append(error("malformed-port-decl", "inout ports are not supported", span, text))
        return None
    diags.append(error("malformed-port-decl", f"cannot classify port declaration '{text}'", span, text))
    return None


_DIRECTIVE_RE = re.compile(r"^[ \t]*`[^\n]*$", re.MULTILINE)
_OPENER_RE = re.compile(r'//|/\*|`|"')  # a comment, a directive or a string literal
# No leading `\b`, which would keep the regex engine from skipping ahead to the
# literal `module`; a hit that follows a word character is stepped past instead.
_MODULE_RE = re.compile(rf"module\s+({_IDENT})")
_WORD_RE = re.compile(r"\w")
_IMPORT_RE = re.compile(r"\s*import\s+[^;]+;")
_PARAMS_OPEN_RE = re.compile(r"\s*#\s*\(")
_PORTS_OPEN_RE = re.compile(r"\s*\(")
_SEMI_RE = re.compile(r"\s*;")


def _read_header(source: str, masked: str, stop: int, lmap: _LineMap) -> tuple[ParsedModule, int]:
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
        raise GenerationError([error("no-module-header", "no 'module <name>' found in input", lmap.span(0))])
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
            raise GenerationError([error("no-module-header", "unclosed parameter list", lmap.span(m.end() - 1))])
        items, pos = listed
        for item, off in items:
            param = _parse_parameter_item(item, lmap.span(off), diags)
            if param:
                parameters.append(param)

    signals: list[InterfaceSignal] = []
    m = _PORTS_OPEN_RE.match(masked, pos)
    if m:
        pos = m.end()
        while plain := _PLAIN_PORT_RE.match(masked, pos):  # one match per plain item
            direction, width, name, sep = plain.groups()
            width = width.replace(" ", "") if width else ""
            signals.append(InterfaceSignal(direction, name, width, lmap.span(plain.start(1))))
            pos = plain.end()
            if sep == ")":
                break
        else:  # the rest of the list, from the first item that is not plain
            listed = _header_list(masked, pos - 1)
            if listed is None:
                raise GenerationError([error("no-module-header", "unclosed port list", lmap.span(m.end() - 1))])
            items, pos = listed
            for item, off in items:
                pad = len(item) - len(item.lstrip())
                sig = _parse_port_item(item, lmap.span(off + pad), diags)
                if sig:
                    signals.append(sig)
    elif m := _SEMI_RE.match(masked, pos):
        pos = m.end()
    else:
        diags.append(
            error("malformed-port-decl", "expected '(' or ';' after module name", lmap.span(pos))
        )

    # Warn first about directives in the header: module keyword to port list or `;`.
    diags[:0] = [
        warning("preprocessor-ignored", "preprocessor directive ignored in header", lmap.span(d.start()),
                source[d.start() : d.end()])
        for d in directives
        if header.start() <= d.start() < pos
    ]
    # `m` is None when neither a port list nor `;` follows: the header has no end.
    return ParsedModule(header.group(1), parameters, signals, [], imports, diags), pos if m else len(source)


def parse_module(source: str, path: str = "<string>") -> ParsedModule:
    """Parse one annotated module header out of `source`.

    Problems that allow parsing to continue (a malformed port line, a bad
    annotation) are collected into the returned module's diagnostics. The only
    fatal cases, which raise GenerationError, are a missing module header or an
    unclosed header list (`no-module-header`) and an unterminated annotation
    region.
    """
    lmap = _LineMap(source, path)
    # Lex through the line of the last marker first, and read the header from
    # that text as far as the first comment, directive or string opener after
    # it (a string may hold a comment opener). The read is the whole file's if
    # the header ends by that opener; if it runs past it (to the source's end
    # when the read fails), lex the whole source and read again.
    stop = _marker_stop(source)
    opener = _OPENER_RE.search(source, stop)
    for stop, cut in ((stop, opener.start() if opener else len(source)), (len(source), len(source))):
        comments, masked = _lex(source, stop)
        masked += source[len(masked) : cut]
        try:
            (module, end), failure = _read_header(source, masked, stop, lmap), None
        except GenerationError as exc:
            end, failure = len(source), exc
        if end <= cut:
            break
    regions = _regions(source, comments, lmap)  # an open marked block is fatal first
    if failure:
        raise failure
    diags = module.diagnostics

    annotations: list[Annotation] = []
    for text, offset in regions:
        for line, line_offset in _region_lines(text, offset):
            ann = _parse_annotation_line(line, line_offset, lmap, diags)
            if ann:
                annotations.append(ann)

    seen_tnames: dict[str, SourceSpan] = {}
    for ann in [a for a in annotations if isinstance(a.payload, RelationDecl)]:
        rel = ann.payload
        if rel.tname in seen_tnames:
            diags.append(
                error(
                    "duplicate-transaction-name",
                    f"transaction '{rel.tname}' already declared at {seen_tnames[rel.tname]}",
                    ann.span,
                    ann.raw_text,
                )
            )
            annotations.remove(ann)  # the first declaration names the transaction
        else:
            seen_tnames[rel.tname] = ann.span

    seen_ports: set[str] = set()
    for sig in module.signals + [a.payload for a in annotations if isinstance(a.payload, InterfaceSignal)]:
        if sig.name in seen_ports:
            diags.append(error("malformed-port-decl", f"port '{sig.name}' declared twice", sig.span))
        seen_ports.add(sig.name)

    return module._replace(annotations=annotations)
