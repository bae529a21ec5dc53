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
    input [expr:0] field        declare a new checker input for an attribute
    output [expr:0] field       declare a new checker output for an attribute

where `field` is `<interface>_<suffix>` and the suffix is one of the legal
attribute suffixes below. Splitting a field name takes the longest matching
legal suffix, so `x_transid_unique` is (`x`, `transid_unique`), never
(`x_transid`, `unique`).

The supported Verilog subset is ANSI-style headers: `input`/`output`
directions, optional wire/logic/reg keyword, one declarator per list item,
packed ranges. Ports with a user-defined (struct) type are kept as opaque
1-bit-unknown signals; their fields are reachable only through explicit
`= expr` attribute bindings.
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
_NET_KEYWORDS = {"wire", "logic", "reg", "var"}
_SIGN_KEYWORDS = {"signed", "unsigned"}


def is_identifier(text: str) -> bool:
    return bool(_IDENT_FULL_RE.match(text))


@dataclass(frozen=True)
class Parameter:
    name: str
    value_expr: str


@dataclass(frozen=True)
class InterfaceSignal:
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


@dataclass(frozen=True)
class FieldName:
    prefix: str
    suffix: str

    def __str__(self) -> str:
        return f"{self.prefix}_{self.suffix}"


@dataclass(frozen=True)
class RelationDecl:
    tname: str
    p: str
    q: str
    direction: str  # "incoming" or "outgoing"


@dataclass(frozen=True)
class ExplicitAttrib:
    field_name: FieldName
    decl: str  # "assign", "input_decl", or "output_decl"
    width_expr: str  # "" when not given
    expr: str = ""  # right-hand side, assign form only


@dataclass(frozen=True)
class Annotation:
    kind: str  # "relation" or "explicit_attrib"
    raw_text: str
    span: SourceSpan
    payload: RelationDecl | ExplicitAttrib


@dataclass
class ParsedModule:
    module_name: str
    parameters: list[Parameter]
    signals: list[InterfaceSignal]  # source order, all ports, matched or not
    annotations: list[Annotation]
    imports: list[str] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def relations(self) -> list[RelationDecl]:
        return [a.payload for a in self.annotations if a.kind == "relation"]

    def explicit_attribs(self) -> list[Annotation]:
        return [a for a in self.annotations if a.kind == "explicit_attrib"]

    def port_names(self) -> set[str]:
        return {s.name for s in self.signals}


def literal_width_bits(width_expr: str) -> int | None:
    """`[N:0]` with integer N gives N+1 bits; empty means 1; else unknown."""
    if not width_expr:
        return 1
    m = re.match(r"^\[\s*(\d+)\s*:\s*0\s*\]$", width_expr)
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


def classify_field(signal_name: str, known_prefixes: set[str]) -> FieldName | None:
    """Classify a port as an implicit attribute of a declared interface.

    Returns the (prefix, suffix) split only when the prefix names one of the
    interfaces that appear in a relation; everything else is not an attribute.
    """
    for suffix in SUFFIXES:
        tail = "_" + suffix
        if signal_name.endswith(tail):
            prefix = signal_name[: -len(tail)]
            if prefix in known_prefixes:
                return FieldName(prefix, suffix)
    return None


class _LineMap:
    """Offset to 1-based (line, column) translation for one source text."""

    def __init__(self, source: str, path: str):
        self.path = path
        self.starts = [0]
        for i, ch in enumerate(source):
            if ch == "\n":
                self.starts.append(i + 1)

    def span(self, offset: int) -> SourceSpan:
        line = bisect.bisect_right(self.starts, offset)
        column = offset - self.starts[line - 1] + 1
        return SourceSpan(self.path, line, column)


_COMMENT_OR_STRING_RE = re.compile(
    r'"(?:[^"\\\n]|\\.)*"'  # string literal, so // inside strings is ignored
    r"|//[^\n]*"  # line comment
    r"|/\*"  # block comment opener, closed by hand below
)


def _scan_comments(source: str) -> list[tuple[int, int, str]]:
    """Find all comments as (start, end, kind) with kind 'line' or 'block'.

    Block comments without a terminator run to end of input and are tagged
    'open_block' so the caller can decide whether that is fatal.
    """
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


def _mask(source: str, spans: list[tuple[int, int]]) -> str:
    """Blank out the given spans, preserving newlines so offsets keep meaning."""
    chars = list(source)
    for start, end in spans:
        for i in range(start, min(end, len(chars))):
            if chars[i] != "\n":
                chars[i] = " "
    return "".join(chars)


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
    lmap = _LineMap(source, path)
    regions: list[tuple[str, SourceSpan]] = []
    for start, end, kind in _scan_comments(source):
        if kind == "line":
            body = source[start + 2 : end]
            payload = _marker_payload(body)
            if payload is None:
                continue
            pad = len(body) - len(payload)
            regions.append((payload.strip(), lmap.span(start + 2 + pad)))
        else:
            body_end = end - 2 if kind == "block" else end
            body = source[start + 2 : body_end]
            first_line = body.split("\n", 1)[0]
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
            rest = body.split("\n", 1)
            if payload.strip():
                # Payload begins on the marker line itself.
                text = payload + ("\n" + rest[1] if len(rest) > 1 else "")
                offset = start + 2 + (len(first_line) - len(payload))
            elif len(rest) > 1:
                text = rest[1]
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


def parse_relation(line: str, span: SourceSpan) -> RelationDecl:
    """Parse `tname: p -in> q` or `tname: p -out> q`.

    Raises ParseError with code `bad-arrow` when the token between the two
    interface names is not one of the two arrows, and `bad-relation` when the
    line cannot be shaped into name, interface, arrow, interface at all.
    """
    m = re.match(r"^\s*([A-Za-z_][A-Za-z0-9_$]*)\s*:\s*(.*?)\s*$", line)
    if not m:
        raise ParseError([error("bad-relation", "relation must start with 'name:'", span, line)])
    tname, rhs = m.group(1), m.group(2)
    arrows = _ARROW_RE.findall(rhs)
    if len(arrows) == 1:
        left, _, right = _ARROW_RE.split(rhs)[0], arrows[0], _ARROW_RE.split(rhs)[2]
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
    r"^\s*(?:(\[[^\]]+\])\s*)?([A-Za-z_][A-Za-z0-9_$]*)\s*=\s*(.+?)\s*;?\s*$"
)
_ATTRIB_DECL_RE = re.compile(
    r"^\s*(input|output)\s+(?:(\[[^\]]+\])\s*|([A-Za-z_][A-Za-z0-9_$]*)\s+)?([A-Za-z_][A-Za-z0-9_$]*)\s*;?\s*$"
)


def _parse_annotation_line(line: str, span: SourceSpan, diags: list[Diagnostic]) -> Annotation | None:
    """Parse one payload line into an Annotation, or record a diagnostic."""
    head = re.match(r"^\s*([A-Za-z_][A-Za-z0-9_$]*)\s*:", line)
    if head:
        try:
            rel = parse_relation(line, span)
        except ParseError as exc:
            diags.extend(exc.diagnostics)
            return None
        return Annotation("relation", line, span, rel)

    m = _ATTRIB_DECL_RE.match(line)
    if m:
        direction, width, type_name, name = m.group(1), m.group(2) or "", m.group(3), m.group(4)
        fname = split_field(name)
        if fname is None:
            diags.append(
                error("bad-field-suffix", f"'{name}' does not end in a legal attribute suffix", span, line)
            )
            return None
        if type_name:
            diags.append(
                warning("opaque-attrib-type", f"type '{type_name}' on '{name}' is kept opaque (width unknown)", span, line)
            )
        decl = "input_decl" if direction == "input" else "output_decl"
        return Annotation("explicit_attrib", line, span, ExplicitAttrib(fname, decl, width))

    m = _ATTRIB_ASSIGN_RE.match(line)
    if m:
        width, name, expr = m.group(1) or "", m.group(2), m.group(3)
        fname = split_field(name)
        if fname is None:
            diags.append(
                error("bad-field-suffix", f"'{name}' does not end in a legal attribute suffix", span, line)
            )
            return None
        return Annotation("explicit_attrib", line, span, ExplicitAttrib(fname, "assign", width, expr))

    diags.append(error("bad-annotation", "not a relation or attribute definition", span, line))
    return None


def _match_paren(text: str, open_pos: int) -> int:
    """Index just past the `)` matching the `(` at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def _split_top_level(text: str) -> list[tuple[str, int]]:
    """Split on commas not nested in (), [], or {}; keeps item offsets."""
    items = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append((text[start:i], start))
            start = i + 1
    items.append((text[start:], start))
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
    depth = 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "=" and depth == 0:
            if i + 1 < len(text) and text[i + 1] == "=":
                return None
            return text[:i], text[i + 1 :]
    return None


_PORT_RE = re.compile(
    r"^\s*(input|output)\s+"
    r"(?:(wire|logic|reg|var)\s+)?"
    r"(?:(signed|unsigned)\s+)?"
    r"((?:\[[^\]]+\]\s*)*)"
    r"([A-Za-z_][A-Za-z0-9_$]*)\s*$"
)
_OPAQUE_PORT_RE = re.compile(
    r"^\s*(input|output)\s+([A-Za-z_][A-Za-z0-9_$]*)\s+([A-Za-z_][A-Za-z0-9_$]*)\s*$"
)


def _parse_port_item(
    item: str, span: SourceSpan, diags: list[Diagnostic]
) -> InterfaceSignal | None:
    text = item.strip()
    if not text:
        return None
    m = _PORT_RE.match(text)
    if m:
        direction, _net, _sign, ranges, name = m.groups()
        range_list = re.findall(r"\[[^\]]+\]", ranges or "")
        width = range_list[0].replace(" ", "") if range_list else ""
        if len(range_list) > 1:
            diags.append(
                warning("non-canonical-range", f"multi-dimensional range on '{name}' kept verbatim", span, text)
            )
        elif width and not re.match(r"^\[.*:0\]$", width):
            diags.append(
                warning("non-canonical-range", f"range '{width}' on '{name}' does not end at :0", span, text)
            )
        return InterfaceSignal(direction, name, width, span)
    m = _OPAQUE_PORT_RE.match(text)
    if m and m.group(2) not in _NET_KEYWORDS and m.group(2) not in _SIGN_KEYWORDS:
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


def parse_module(source: str, path: str = "<string>") -> ParsedModule:
    """Parse one annotated module header out of `source`.

    Problems that allow parsing to continue (a malformed port line, a bad
    annotation) are collected into the returned module's diagnostics. The only
    fatal cases are a missing module header (`no-module-header`) and an
    unterminated annotation region.
    """
    lmap = _LineMap(source, path)
    diags: list[Diagnostic] = []

    regions = extract_annotation_regions(source, path)

    comments = _scan_comments(source)
    masked = _mask(source, [(s, e) for s, e, _ in comments])

    # Backtick directives inside the header confuse port parsing; drop them.
    for m in re.finditer(r"^[ \t]*`[^\n]*$", masked, re.MULTILINE):
        diags.append(
            warning("preprocessor-ignored", "preprocessor directive ignored in header", lmap.span(m.start()),
                    source[m.start():m.end()])
        )
    masked = re.sub(r"^([ \t]*)`[^\n]*$", r"\1", masked, flags=re.MULTILINE)

    header = re.search(r"\bmodule\s+([A-Za-z_][A-Za-z0-9_$]*)", masked)
    if not header:
        raise ParseError([error("no-module-header", "no 'module <name>' found in input", SourceSpan(path, 1, 1))])
    module_name = header.group(1)
    pos = header.end()

    imports: list[str] = []
    while True:
        m = re.match(r"\s*import\s+[^;]+;", masked[pos:])
        if not m:
            break
        imports.append(masked[pos : pos + m.end()].strip())
        pos += m.end()

    parameters: list[Parameter] = []
    m = re.match(r"\s*#\s*\(", masked[pos:])
    if m:
        open_pos = pos + m.end() - 1
        close = _match_paren(masked, open_pos)
        if close == -1:
            raise ParseError([error("no-module-header", "unclosed parameter list", lmap.span(open_pos))])
        body = masked[open_pos + 1 : close - 1]
        for item, off in _split_top_level(body):
            param = _parse_parameter_item(item, lmap.span(open_pos + 1 + off), diags)
            if param:
                parameters.append(param)
        pos = close

    signals: list[InterfaceSignal] = []
    m = re.match(r"\s*\(", masked[pos:])
    if m:
        open_pos = pos + m.end() - 1
        close = _match_paren(masked, open_pos)
        if close == -1:
            raise ParseError([error("no-module-header", "unclosed port list", lmap.span(open_pos))])
        body = masked[open_pos + 1 : close - 1]
        for item, off in _split_top_level(body):
            pad = len(item) - len(item.lstrip())
            sig = _parse_port_item(item, lmap.span(open_pos + 1 + off + pad), diags)
            if sig:
                signals.append(sig)
    elif not re.match(r"\s*;", masked[pos:]):
        diags.append(
            error("malformed-port-decl", "expected '(' or ';' after module name", lmap.span(pos))
        )

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

    dup_ports: set[str] = set()
    for sig in signals:
        if sig.name in dup_ports:
            diags.append(error("malformed-port-decl", f"port '{sig.name}' declared twice", sig.span))
        dup_ports.add(sig.name)

    return ParsedModule(
        module_name=module_name,
        parameters=parameters,
        signals=signals,
        annotations=annotations,
        imports=imports,
        diagnostics=diags,
    )
