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
Brackets `()[]{}` outside string literals must balance on an attribute line,
and a `=` or `;` inside a range, or a `;` in a right-hand side other than the
trailing one, is an error at that token.

The supported Verilog subset is ANSI-style headers: `input`/`output`
directions, optional wire/logic/reg keyword, one declarator per list item,
packed ranges. Ports with a user-defined (struct) type are kept opaque:
emitted with their type as written, with an unknown width; their fields are
reachable only through explicit `= expr` attribute bindings.

Each source is lexed once: one regex pass over strings and comments yields
the comment list, which the annotations are read from, and a masked copy in
which every comment (not string) is blanked to spaces. Newlines stay, also
inside block comments, so offsets and spans in the masked text are those of
the source. The header is read from the masked copy, with backtick directive
lines blanked as well.
"""
from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, ParseError, SourceSpan, error, warning

ANNOTATION_MARKER = "AUTOSVA"

# Legal attribute suffixes, longest first so that longest-match wins.
SUFFIXES = ("transid_unique", "transid", "active", "stable", "data", "val", "ack")

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
_IDENT_FULL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")
_LITERAL_WIDTH_RE = re.compile(r"^\[\s*(\d+)\s*:\s*0\s*\]$")


def is_identifier(text: str) -> bool:
    return bool(_IDENT_FULL_RE.match(text))


@dataclass(frozen=True, slots=True)
class Parameter:
    name: str
    value_expr: str


@dataclass(frozen=True, slots=True)
class InterfaceSignal:
    """A header port, or a signal an `input`/`output` annotation declares."""

    direction: str  # "input" or "output"
    name: str
    width_expr: str  # verbatim packed range such as "[WIDTH-1:0]", "" for 1-bit
    span: SourceSpan
    opaque_type: str | None = None  # user-defined type name, width unknown

    @property
    def width_bits(self) -> int | None:
        """Bit count when the range is a literal `[N:0]`, else None."""
        if self.opaque_type is not None:
            return None
        return literal_width_bits(self.width_expr)


@dataclass(frozen=True, slots=True)
class FieldName:
    prefix: str
    suffix: str

    def __str__(self) -> str:
        return f"{self.prefix}_{self.suffix}"


@dataclass(frozen=True, slots=True)
class RelationDecl:
    tname: str
    p: str
    q: str
    direction: str  # "incoming" or "outgoing"


@dataclass(frozen=True, slots=True)
class ExplicitAttrib:
    """A `[width] field = expr` binding."""

    field_name: FieldName
    width_expr: str  # "" when not given: width unknown
    expr: str
    span: SourceSpan

    @property
    def name(self) -> str:
        return str(self.field_name)

    @property
    def width_bits(self) -> int | None:
        """Bit count when the range is a literal `[N:0]`; None when it is not, or not given."""
        return literal_width_bits(self.width_expr) if self.width_expr else None


@dataclass(frozen=True, slots=True)
class Annotation:
    kind: str  # "relation", "explicit_attrib" (an assign) or "signal" (a declaration)
    raw_text: str
    span: SourceSpan
    payload: RelationDecl | ExplicitAttrib | InterfaceSignal


@dataclass
class ParsedModule:
    module_name: str
    parameters: list[Parameter]
    signals: list[InterfaceSignal]  # the header's ports in source order, matched or not
    annotations: list[Annotation]
    imports: list[str] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def relations(self) -> list[RelationDecl]:
        return [a.payload for a in self.annotations if a.kind == "relation"]

    def explicit_attribs(self) -> list[Annotation]:
        return [a for a in self.annotations if a.kind == "explicit_attrib"]

    def declared_signals(self) -> list[InterfaceSignal]:
        return [a.payload for a in self.annotations if a.kind == "signal"]

    def port_names(self) -> set[str]:
        """The property module's ports: the header's and the declared signals."""
        return {s.name for s in self.signals} | {s.name for s in self.declared_signals()}


def literal_width_bits(width_expr: str) -> int | None:
    """`[N:0]` with integer N gives N+1 bits; empty means 1; else unknown."""
    if not width_expr:
        return 1
    m = _LITERAL_WIDTH_RE.match(width_expr)
    if m:
        return int(m.group(1)) + 1
    return None


def split_field(name: str) -> FieldName | None:
    """Split `<prefix>_<suffix>` using the longest legal suffix, if any."""
    for suffix in SUFFIXES:
        tail = "_" + suffix
        if name.endswith(tail) and len(name) > len(tail):
            prefix = name[: -len(tail)]
            if is_identifier(prefix):
                return FieldName(prefix, suffix)
    return None


class _LineMap:
    """Offset to 1-based (line, column) translation for one source text."""

    def __init__(self, source: str, path: str):
        self.path = path
        self.starts = [0]
        i = source.find("\n")
        while i != -1:
            self.starts.append(i + 1)
            i = source.find("\n", i + 1)

    def span(self, offset: int) -> SourceSpan:
        line = bisect.bisect_right(self.starts, offset)
        column = offset - self.starts[line - 1] + 1
        return SourceSpan(self.path, line, column)


_STRING = r'"(?:[^"\\\n]|\\.)*"'  # a string literal, matched only to be skipped

# Leftmost match wins, so a comment opener in a string or a quote in a comment
# is never seen. Every alternative begins with `"` or `/`, which lets the regex
# engine skip ahead to the next candidate.
_LEX_RE = re.compile(
    _STRING
    + r"|/(?:(?P<line>/[^\n]*)|(?P<block>\*[\s\S]*?\*/)"
    r"|(?P<open_block>\*[\s\S]*))"  # never closed, runs to end of input
)


def _lex(source: str) -> tuple[list[tuple[int, int, str]], str]:
    """Comments as (start, end, kind), and the source with them blanked.

    kind is 'line', 'block', or 'open_block' for a block comment that never
    closes; the caller decides whether that is fatal. A blanked comment keeps
    its newlines, so offsets into the masked text are offsets into `source`.
    """
    comments: list[tuple[int, int, str]] = []

    def blank(m: re.Match) -> str:
        kind = m.lastgroup
        if kind is None:
            return m.group()
        start, end = m.span()
        comments.append((start, end, kind))
        if kind == "line":
            return " " * (end - start)
        return "\n".join(" " * len(line) for line in m.group().split("\n"))

    return comments, _LEX_RE.sub(blank, source)


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

    Raises ParseError (code `unterminated-block-comment`) when a marked block
    comment never closes; an unmarked one is silently treated as running to
    the end of input, matching compiler behavior.
    """
    comments, _ = _lex(source)
    return _regions(source, comments, _LineMap(source, path))


def _regions(source: str, comments: list[tuple[int, int, str]], lmap: _LineMap) -> list[tuple[str, SourceSpan]]:
    """`extract_annotation_regions` over comments that `_lex` already found."""
    regions: list[tuple[str, SourceSpan]] = []
    for start, end, kind in comments:
        if kind == "line":
            body = source[start + 2 : end]
            payload = _marker_payload(body)
            if payload is None:
                continue
            pad = len(body) - len(payload.lstrip())
            regions.append((payload.strip(), lmap.span(start + 2 + pad)))
        else:
            body = source[start + 2 : end - 2 if kind == "block" else end]
            first_line, newline, tail = body.partition("\n")
            payload = _marker_payload(first_line)
            if payload is None:
                continue
            if kind == "open_block":
                raise ParseError(
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
            regions.append((text, lmap.span(offset)))
    return regions


def _region_lines(text: str, span: SourceSpan) -> list[tuple[str, SourceSpan]]:
    """Per-line payloads of a region with their own spans.

    The span argument locates the first character of `text`. A leading `*`
    decoration (common in block comments) is stripped.
    """
    out = []
    for i, line in enumerate(text.split("\n")):
        stripped = line.strip()
        if stripped.startswith("*"):
            stripped = stripped[1:].strip()
        if not stripped:
            continue
        out.append((stripped, SourceSpan(span.file, span.line + i, span.column if i == 0 else 1)))
    return out


_ARROW_RE = re.compile(r"(-in>|-out>)")
_RELATION_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_$]*)\s*:\s*(.*?)\s*$")


def parse_relation(line: str, span: SourceSpan) -> RelationDecl:
    """Parse `tname: p -in> q` or `tname: p -out> q`.

    Raises ParseError with code `bad-arrow` when the token between the two
    interface names is not one of the two arrows, and `bad-relation` when the
    line cannot be shaped into name, interface, arrow, interface at all.
    """
    m = _RELATION_RE.match(line)
    if not m:
        raise ParseError([error("bad-relation", "relation must start with 'name:'", span, line)])
    tname, rhs = m.group(1), m.group(2)
    arrows = _ARROW_RE.findall(rhs)
    if len(arrows) == 1:
        left, _, right = _ARROW_RE.split(rhs)
        p, q = left.strip(), right.strip()
        if is_identifier(p) and is_identifier(q):
            direction = "incoming" if arrows[0] == "-in>" else "outgoing"
            return RelationDecl(tname, p, q, direction)
        raise ParseError(
            [error("bad-relation", f"interface names must be identifiers: '{p}', '{q}'", span, line)]
        )
    parts = rhs.split()
    if len(parts) == 3:
        raise ParseError(
            [error("bad-arrow", f"expected '-in>' or '-out>' between interfaces, got '{parts[1]}'", span, line)]
        )
    raise ParseError([error("bad-relation", "expected 'tname: p -in> q' or 'tname: p -out> q'", span, line)])


_ATTRIB_ASSIGN_RE = re.compile(
    r"^\s*(?:(?P<width>\[[^\]]+\])\s*)?(?P<name>[A-Za-z_][A-Za-z0-9_$]*)\s*=\s*(?P<expr>.+?)\s*;?\s*$"
)
_DECL_RE = re.compile(r"(?:input|output)\s")


def _parse_annotation_line(line: str, span: SourceSpan, diags: list[Diagnostic]) -> Annotation | None:
    """Parse one payload line into an Annotation, or record a diagnostic."""
    if _RELATION_RE.match(line):
        try:
            rel = parse_relation(line, span)
        except ParseError as exc:
            diags.extend(exc.diagnostics)
            return None
        return Annotation("relation", line, span, rel)

    bad = _unbalanced(line)
    if bad is not None:
        at = SourceSpan(span.file, span.line, span.column + bad)
        diags.append(error("unbalanced-brackets", f"'{line[bad]}' does not balance", at, line))
        return None
    m = _ATTRIB_ASSIGN_RE.match(line)
    decl = m is None and _DECL_RE.match(line)
    bad = _stray(line, m) if m or decl else None
    if bad is not None:
        at = SourceSpan(span.file, span.line, span.column + bad)
        diags.append(error("bad-annotation", f"stray '{line[bad]}'", at, line))
        return None
    if m:
        name = m["name"]
    elif decl:
        sig = _parse_port_item(line.removesuffix(";"), span, diags)
        if sig is None:
            return None
        name = sig.name
    else:
        diags.append(error("bad-annotation", "not a relation or attribute definition", span, line))
        return None
    fname = split_field(name)
    if fname is None:
        diags.append(error("bad-field-suffix", f"'{name}' does not end in a legal attribute suffix", span, line))
        return None
    if m:
        return Annotation("explicit_attrib", line, span, ExplicitAttrib(fname, m["width"] or "", m["expr"], span))
    return Annotation("signal", line, span, sig)


def _scanner(chars: str) -> re.Pattern:
    """A string literal, to be skipped, or one of `chars`.

    The masked text keeps strings, so a bracket or separator inside one must
    not count. One literal per alternative lets the engine skip to candidates.
    """
    return re.compile("|".join([_STRING, *map(re.escape, chars)]))


_PAREN_RE = _scanner("()")
_BRACKETS_RE = _scanner("()[]{}")
_OPENER = {")": "(", "]": "[", "}": "{"}
_BRACKET_COMMA_RE = _scanner("()[]{},")
_BRACKET_EQ_RE = _scanner("()[]{}=")
_STRAY_RE = _scanner("[]=;")


def _unbalanced(text: str) -> int | None:
    """Offset of the first bracket that does not balance, or None."""
    opened: list[int] = []
    for m in _BRACKETS_RE.finditer(text):
        ch = m.group()
        if ch in _OPENER:
            if not opened or text[opened.pop()] != _OPENER[ch]:
                return m.start()
        elif ch[0] != '"':
            opened.append(m.start())
    return opened[0] if opened else None


def _stray(line: str, assign: re.Match | None) -> int | None:
    """Offset of the first `=` or `;` outside strings that an attribute line may not hold, or None.

    Inside a range both are stray. In an assignment's right-hand side every
    `;` is, since `_ATTRIB_ASSIGN_RE` has cut the one trailing `;` off.
    """
    depth = 0
    for m in _STRAY_RE.finditer(line, 0, assign.start("name") if assign else len(line.removesuffix(";"))):
        ch = m.group()
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch in ("=", ";") and depth:
            return m.start()
    if assign:
        for m in _STRAY_RE.finditer(line, *assign.span("expr")):
            if m.group() == ";":
                return m.start()
    return None


def _match_paren(text: str, open_pos: int) -> int:
    """Index just past the `)` matching the `(` at open_pos, or -1."""
    depth = 0
    for m in _PAREN_RE.finditer(text, open_pos):
        ch = m.group()
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return m.end()
    return -1


def _split_top_level(text: str, start: int, end: int, tokens: re.Pattern = _BRACKET_COMMA_RE) -> list[tuple[str, int]]:
    """Split text[start:end] at separators not nested in (), [], or {}, with offsets in `text`.

    `tokens` matches the brackets and the separator, a comma by default.
    """
    items = []
    depth = 0
    for m in tokens.finditer(text, start, end):
        ch = m.group()
        if ch[0] == '"':
            continue
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif depth == 0:
            items.append((text[start : m.start()], start))
            start = m.end()
    items.append((text[start:end], start))
    return items


def _parse_parameter_item(item: str, span: SourceSpan, diags: list[Diagnostic]) -> Parameter | None:
    if not item.strip():
        return None
    text = item.strip()
    if text.startswith("localparam"):
        return None  # not part of the public interface
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
    """`lhs = rhs` at the first top-level `=`; None without one, or at `==`."""
    items = _split_top_level(text, 0, len(text), _BRACKET_EQ_RE)
    if len(items) == 1 or text.startswith("=", items[1][1]):
        return None
    return items[0][0], text[items[1][1] :]


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


_DIRECTIVE_RE = re.compile(r"^([ \t]*)`[^\n]*$", re.MULTILINE)
_MODULE_RE = re.compile(r"\bmodule\s+([A-Za-z_][A-Za-z0-9_$]*)")
_IMPORT_RE = re.compile(r"\s*import\s+[^;]+;")
_PARAMS_OPEN_RE = re.compile(r"\s*#\s*\(")
_PORTS_OPEN_RE = re.compile(r"\s*\(")
_SEMI_RE = re.compile(r"\s*;")


def parse_module(source: str, path: str = "<string>") -> ParsedModule:
    """Parse one annotated module header out of `source`.

    Problems that allow parsing to continue (a malformed port line, a bad
    annotation) are collected into the returned module's diagnostics. The only
    fatal cases are a missing module header (`no-module-header`) and an
    unterminated annotation region.
    """
    lmap = _LineMap(source, path)
    comments, masked = _lex(source)
    regions = _regions(source, comments, lmap)
    diags: list[Diagnostic] = []

    # Backtick directive lines would confuse port parsing: blank them all.
    directives = list(_DIRECTIVE_RE.finditer(masked)) if "`" in masked else []
    if directives:
        masked = _DIRECTIVE_RE.sub(r"\1", masked)

    header = _MODULE_RE.search(masked)
    if not header:
        raise ParseError([error("no-module-header", "no 'module <name>' found in input", SourceSpan(path, 1, 1))])
    module_name = header.group(1)
    pos = header.end()

    imports: list[str] = []
    while m := _IMPORT_RE.match(masked, pos):
        imports.append(masked[pos : m.end()].strip())
        pos = m.end()

    parameters: list[Parameter] = []
    m = _PARAMS_OPEN_RE.match(masked, pos)
    if m:
        open_pos = m.end() - 1
        close = _match_paren(masked, open_pos)
        if close == -1:
            raise ParseError([error("no-module-header", "unclosed parameter list", lmap.span(open_pos))])
        for item, off in _split_top_level(masked, open_pos + 1, close - 1):
            param = _parse_parameter_item(item, lmap.span(off), diags)
            if param:
                parameters.append(param)
        pos = close

    signals: list[InterfaceSignal] = []
    m = _PORTS_OPEN_RE.match(masked, pos)
    if m:
        open_pos = m.end() - 1
        close = _match_paren(masked, open_pos)
        if close == -1:
            raise ParseError([error("no-module-header", "unclosed port list", lmap.span(open_pos))])
        for item, off in _split_top_level(masked, open_pos + 1, close - 1):
            pad = len(item) - len(item.lstrip())
            sig = _parse_port_item(item, lmap.span(off + pad), diags)
            if sig:
                signals.append(sig)
        pos = close
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

    annotations: list[Annotation] = []
    for text, span in regions:
        for line, line_span in _region_lines(text, span):
            ann = _parse_annotation_line(line, line_span, diags)
            if ann:
                annotations.append(ann)

    seen_tnames: dict[str, SourceSpan] = {}
    for ann in annotations:
        if ann.kind != "relation":
            continue
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
        else:
            seen_tnames[rel.tname] = ann.span

    seen_ports: set[str] = set()
    for sig in signals + [a.payload for a in annotations if a.kind == "signal"]:
        if sig.name in seen_ports:
            diags.append(error("malformed-port-decl", f"port '{sig.name}' declared twice", sig.span))
        seen_ports.add(sig.name)

    return ParsedModule(
        module_name=module_name,
        parameters=parameters,
        signals=signals,
        annotations=annotations,
        imports=imports,
        diagnostics=diags,
    )
