import json
import re
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import naive_lexer
from autoft.diagnostics import Diagnostic, GenerationError
from autoft import parser
from autoft.parser import (
    SUFFIXES,
    ExplicitAttrib,
    RelationDecl,
    _lex,
    _spans,
    extract_annotation_regions,
    parse_module,
    parse_relation,
    split_field,
)
from autoft.diagnostics import SourceSpan

from conftest import REPO, load_fixture, module_projection, render_module

OFFSET = 0  # where a line read on its own starts; its diagnostics carry it until `parse_module` locates them


def annotations_of(source: str):
    return parse_module(source).annotations


def payloads(pm, kind: type) -> list:
    """The payloads of `pm`'s annotations that are of type `kind`."""
    return [a.payload for a in pm.annotations if isinstance(a.payload, kind)]


def header(ports: str, annotations: str = "", params: str = "") -> str:
    param_text = f" #({params})" if params else ""
    return f"{annotations}\nmodule m{param_text} (\n{ports}\n);\nendmodule\n"


class TestAnnotationRegions:
    def test_marked_line_comment(self):
        regions = extract_annotation_regions("// AUTOSVA fifo: in -in> out\n")
        assert len(regions) == 1
        assert regions[0][0] == "fifo: in -in> out"

    def test_plain_comment_yields_nothing(self):
        assert extract_annotation_regions("// just a note about timing\n") == []

    def test_block_region_collects_all_lines(self):
        src = "/*AUTOSVA\n t: a -out> b\n a_transid = req.id\n*/\n"
        regions = extract_annotation_regions(src)
        assert len(regions) == 1
        text, span = regions[0]
        assert text.splitlines() == [" t: a -out> b", " a_transid = req.id"]
        assert span.line == 2

    def test_unmarked_block_comment_ignored(self):
        assert extract_annotation_regions("/* ordinary\n comment */\n") == []

    def test_unterminated_marked_block_is_fatal(self):
        with pytest.raises(GenerationError) as exc:
            extract_annotation_regions("/*AUTOSVA\n t: a -in> b\n")
        assert exc.value.diagnostics[0].code == "unterminated-block-comment"

    def test_marker_must_be_exact_token(self):
        assert extract_annotation_regions("// AUTOSVAX not an annotation\n") == []
        assert extract_annotation_regions("// autosva lowercase is not the marker\n") == []

    def test_marker_inside_string_literal_ignored(self):
        src = 'module m (input wire a);\nparameter S = "// AUTOSVA t: a -in> b";\n'
        assert extract_annotation_regions(src) == []

    def test_span_points_into_source(self):
        src = "\n\n  // AUTOSVA t: a -in> b\n"
        [(_, span)] = extract_annotation_regions(src)
        assert (span.line, span.column) == (3, 14)  # the `t`, past the space after the marker


# Tokens that move the lexer between its states, and some that do not.
LEX_TOKENS = [
    "/*", "*/", "/**/", "/*/", "//", '"', '\\"', "\\", "\n", "\r\n", "AUTOSVA", "/*AUTOSVA", "// AUTOSVA ",
    "(", ")", "[", "]", "{", "}", ",", "a", "b", " ", "*", "/", "t: a -in> b", "module", "module m (",
]


def regions_or_diagnostics(extract, source: str):
    try:
        return extract(source, "f.sv")
    except GenerationError as exc:
        return exc.diagnostics


def assert_lex_matches_reference(source: str) -> list[tuple[int, int, str]]:
    comments, masked = _lex(source)
    assert comments == naive_lexer.scan_comments(source)
    # The header is read from the line of the first `module` outside every comment on: from there the text is the
    # reference's masked text, and before it blank, its last character a newline.
    naive = naive_lexer.mask(source, comments)
    head = naive.rfind("\n", 0, max(naive.find("module"), 0)) + 1
    assert masked[head:] == naive[head:]
    assert not masked[:head].strip() and masked[head - 1 : head] in ("", "\n")
    offsets, starts = range(len(source) + 1), naive_lexer.line_starts(source)
    assert _spans(source, "f.sv", list(offsets)) == [naive_lexer._span(starts, "f.sv", off) for off in offsets]
    assert regions_or_diagnostics(extract_annotation_regions, source) == regions_or_diagnostics(
        naive_lexer.extract_annotation_regions, source
    )
    return comments


class TestLexer:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(LEX_TOKENS), max_size=40).map("".join))
    def test_lex_matches_naive_reference(self, source):
        assert_lex_matches_reference(source)

    @pytest.mark.parametrize(
        "source, comments",
        [
            ("/*/ a */b", [(0, 8, "block")]),  # the `*/` of `/*/` does not close it
            ("/*/", [(0, 3, "open_block")]),
            ("/**/x/**/", [(0, 4, "block"), (5, 9, "block")]),
            ('"a // b\n// c', [(3, 7, "line"), (8, 12, "line")]),  # unterminated string
            ('"a /* b" /* c */', [(9, 16, "block")]),
            ("x /* never\nclosed ( [", [(2, 21, "open_block")]),
            ("/*AUTOSVA t: a -in> b */ // c\r\n", [(0, 24, "block"), (25, 30, "line")]),
            ("// module x\nmodule m", [(0, 11, "line")]),  # the first `module` outside a comment is on line 2
            ("a /* b\nc */ module m", [(2, 11, "block")]),  # a block comment across that line's start
            ("x\n`define m module\n/*\n*/ module", [(19, 24, "block")]),  # a `module` on a directive line
        ],
    )
    def test_lex_edge_cases(self, source, comments):
        assert assert_lex_matches_reference(source) == comments

    def test_mask_keeps_strings_offsets_and_newlines(self):
        source = 'a /* b\n c */ "/* s */" // d\ne'
        _, masked = _lex(source)
        assert masked == 'a     \n      "/* s */"     \ne'

    def test_mask_ends_at_stop_or_last_comment_lexed(self):
        source = "a /* b\n c */ x // d\ny"
        assert _lex(source, 3) == ([(2, 12, "block")], "a     \n     ")
        assert _lex(source, 14) == ([(2, 12, "block")], "a     \n      x")
        assert _lex(source, 1) == ([], "a")

    def test_unterminated_unmarked_block_is_not_fatal(self):
        assert extract_annotation_regions("// AUTOSVA t: a -in> b\n/* open\n") != []
        pm = parse_module("module m (input wire a);\n/* body comment never closed\n")
        assert [s.name for s in pm.signals] == ["a"]


def whole_file_parse(source: str):
    """`parse_module` with the naive lexer's scan and mask of the whole source under the same header reader."""

    def lex(text, stop=None):
        comments = naive_lexer.scan_comments(text)
        return comments, naive_lexer.mask(text, comments)

    def read_header(text, masked, stop, lmap):
        return read(text, masked, len(text), lmap)

    read = parser._read_header
    with mock.patch.object(parser, "_lex", lex), mock.patch.object(parser, "_read_header", read_header):
        return module_or_diagnostics(source)


def module_or_diagnostics(source: str):
    try:
        return parse_module(source, "f.sv")
    except GenerationError as exc:
        return exc.diagnostics


BASE_MODULE = (
    "// AUTOSVA t: a -in> b\n",
    "module m #(parameter W = 8, parameter D = W == 2) (\n",
    "    input wire a_val,\n",
    "    output wire [W-1:0] b_data,\n",
    "    input wire b_val\n",
    ");\n",
    "    assign x = 1; // body\n",
    '    initial $display("/* s */");\n',
    "endmodule\n",
)
# Tokens that can move the lexer's stop, the header's end, or where the header is found.
STOP_TOKENS = [
    "//", "/*", "*/", '"', '"// /*"', "AUTOSVA", "// AUTOSVA u: c -in> d\n", "/*AUTOSVA\n v: e -out> f\n*/",
    "// AUTOSVA a_transid = 1\n", "module z (input a);", "module ", "\n`ifdef X\n", "`", "\n", "(", ")", ",",
    ";", "=", "input wire q", "\\",
]


class TestLexStop:
    @settings(max_examples=800, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(STOP_TOKENS)), max_size=6))
    def test_parse_matches_whole_file_lex(self, inserts):
        source = "".join(BASE_MODULE)
        for at, tok in inserts:
            at %= len(source) + 1
            source = source[:at] + tok + source[at:]
        assert module_or_diagnostics(source) == whole_file_parse(source)

    @pytest.mark.parametrize("source", [
        "module m (input wire a, // )\n input wire b, // )\n input wire c);\n",  # no marker: line 1, then the whole source
        "// AUTOSVA t: a -in> b\nmodule/**/m (input wire a);\n",
        "// AUTOSVA t: a -in> b\n// module z (input wire q);\nmodule m (input wire a_val);\n",
        "// AUTOSVA t: a -in> b\nmodule m ( // \"\n input wire a_val);\n",
        "// AUTOSVA t: a -in> b\nmodule m #(parameter W = 1)\n`ifdef X\n(input wire a_val);\n",
        "// AUTOSVA t: a -in> b\nmodule m /* ( */ ;\n",
        "module m ( /* AUTOSVA\n",
        "`define X /*AUTOSVA t: a -in> b */ module z (input wire q);\nmodule m (input wire a_val);\n",
        "// AUTOSVA t: a -in> b\nmodule m (\")// /*\"\n input wire a_val);\n",  # a comment opener in a header string
    ])
    def test_relexed_cases_match_whole_file_lex(self, source):
        assert module_or_diagnostics(source) == whole_file_parse(source)

    def test_body_length_does_not_add_lexer_matches(self):
        head = "// AUTOSVA t: a -in> b\nmodule m (\n    input wire a_val,\n    output wire b_val\n);\n"

        def matches(body_lines: int) -> int:
            counted = []

            class Counting:
                def finditer(self, *args):
                    for m in lex_re.finditer(*args):
                        counted.append(m)
                        yield m

            source = head + "    assign x = y; // body comment\n" * body_lines + "endmodule\n"
            with mock.patch.object(parser, "_LEX_RE", Counting()):
                pm = parse_module(source)
            assert [s.name for s in pm.signals] == ["a_val", "b_val"]
            return len(counted)

        lex_re = parser._LEX_RE
        assert matches(1_000) == matches(100_000) < 5


class TestFieldSplitting:
    def test_longest_suffix_wins(self):
        assert split_field("x_transid_unique") == ("x", "transid_unique")

    def test_all_suffixes_split(self):
        for suffix in SUFFIXES:
            assert split_field(f"eng_{suffix}") == ("eng", suffix)

    def test_no_legal_suffix(self):
        assert split_field("timer_interval") is None
        assert split_field("val") is None  # bare suffix has no prefix

    def test_split_does_not_know_interfaces(self):
        # Whether the prefix names an interface is decided when transactions are built.
        assert split_field("dcache_req_val") == ("dcache_req", "val")
        assert split_field("dcache_req_transid_unique") == ("dcache_req", "transid_unique")
        assert split_field("foo_val") == ("foo", "val")

    def test_multi_underscore_prefix(self):
        assert split_field("a_b_data") == ("a_b", "data")

    @given(
        st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
        st.sampled_from(SUFFIXES),
    )
    def test_split_is_deterministic_function(self, prefix, suffix):
        name = f"{prefix}_{suffix}"
        first = split_field(name)
        assert first == split_field(name)
        assert "_".join(first) == name

    @staticmethod
    def split_by_suffix_loop(name: str):
        """The loop over the suffixes, longest first, that `split_field` replaced, kept as the reference."""
        for suffix in SUFFIXES:
            tail = "_" + suffix
            if name.endswith(tail) and len(name) > len(tail):
                prefix = name[: -len(tail)]
                if parser.IDENT_RE.fullmatch(prefix):
                    return prefix, suffix
        return None

    # Pieces of names: identifier characters, `$`, digits, lone and doubled
    # underscores, whole suffixes, suffixes run together, and characters no
    # identifier holds.
    NAME_PIECES = st.sampled_from(
        ["a", "x", "Z", "0", "9", "$", "_", "__", *SUFFIXES, *(f"_{s}" for s in SUFFIXES),
         "_transid_unique_x", "unique", "_unique", "val_", " ", "-", ".", "é"]
    )

    @given(st.lists(NAME_PIECES, max_size=6).map("".join))
    def test_matches_suffix_loop(self, name):
        assert split_field(name) == self.split_by_suffix_loop(name)

    EDGES = [
        "", "_", "_val", "__val", "$_val", "9_val", "a$_val", "a_val_transid", "x_transid_unique_x",
        "a_transid_unique", "a__transid", "a_unique", "a_val_", "a_valx", "a_val\n", "a b_val", "é_val",
        "_transid_unique", "a__val", "x_unique", "x_transid_unique", "__transid_unique", "a$_transid_unique",
        "$_transid_unique", "9_transid_unique", "x_val_val", "x_transid_transid_unique", "transid_unique",
        "x__transid_unique", "x_transid__unique", "é_transid_unique",
    ]

    @pytest.mark.parametrize("name", EDGES)
    def test_matches_suffix_loop_on_edges(self, name):
        assert split_field(name) == self.split_by_suffix_loop(name)

    # The regex rule that the `rpartition` split replaced, kept as a second reference: the one `_<suffix>`
    # that ends a name, if any, is where the lazy prefix stops.
    FIELD_RE = re.compile(rf"([A-Za-z_][A-Za-z0-9_$]*?)_({'|'.join(SUFFIXES)})")

    @classmethod
    def split_by_field_re(cls, name: str):
        m = cls.FIELD_RE.fullmatch(name)
        return m.groups() if m else None

    @given(st.lists(NAME_PIECES, max_size=6).map("".join))
    def test_matches_field_regex(self, name):
        assert split_field(name) == self.split_by_field_re(name)

    @pytest.mark.parametrize("name", EDGES)
    def test_matches_field_regex_on_edges(self, name):
        assert split_field(name) == self.split_by_field_re(name)


class TestParseRelation:
    def test_incoming(self):
        diags = []
        rel = parse_relation("lsu: lsu_req -in> lsu_res", OFFSET, diags)
        assert (rel.tname, rel.p, rel.q, rel.direction) == ("lsu", "lsu_req", "lsu_res", "incoming")
        assert diags == []

    def test_outgoing(self):
        rel = parse_relation("t: a -out> b", OFFSET, [])
        assert (rel.tname, rel.p, rel.q, rel.direction) == ("t", "a", "b", "outgoing")

    def test_bad_arrow(self):
        diags = []
        assert parse_relation("t: a => b", OFFSET, diags) is None
        assert [(d.code, d.severity, d.span, d.snippet) for d in diags] == [("bad-arrow", "error", OFFSET, "t: a => b")]

    @pytest.mark.parametrize("line", ["no colon here", "t: a -in> b -out> c", "t: a -in> 1b", "t: a b"])
    def test_bad_relation(self, line):
        diags = []
        assert parse_relation(line, OFFSET, diags) is None
        assert [d.code for d in diags] == ["bad-relation"]

    def test_interior_whitespace_tolerated(self):
        rel = parse_relation("t :   a    -in>     b  ", OFFSET, [])
        assert (rel.p, rel.q) == ("a", "b")

    @pytest.mark.parametrize("line", ["\nt: a -in> b", "t\n:\na -in> b\n", "t: a\t-out>\tb"])
    def test_newline_outside_the_arrow_tolerated(self, line):
        assert parse_relation(line, OFFSET, []) is not None

    @pytest.mark.parametrize("line", ["t: a\n-in> b", "t: a -in>\nb"])
    def test_newline_around_the_arrow_rejected(self, line):
        diags = []
        assert parse_relation(line, OFFSET, diags) is None
        assert [d.code for d in diags] == ["bad-relation"]


class TestRecords:
    """The parser's and the diagnostics' records are immutable and print as they always have."""

    SPAN = SourceSpan("m.sv", 3, 7)
    OFFSET = 41
    RECORDS = [
        (SPAN, "line", "SourceSpan(file='m.sv', line=3, column=7)"),
        (Diagnostic("warning", "c", "msg"), "code",
         "Diagnostic(severity='warning', code='c', message='msg', span=None, snippet='')"),
        (parser.Parameter("W", "8"), "value_expr", "Parameter(name='W', value_expr='8')"),
        (parser.InterfaceSignal("input", "a_val", "[3:0]", OFFSET), "width_expr",
         "InterfaceSignal(direction='input', name='a_val', width_expr='[3:0]', offset=41, opaque_type=None)"),
        (RelationDecl("t", "a", "b", "incoming"), "q",
         "RelationDecl(tname='t', p='a', q='b', direction='incoming')"),
        (ExplicitAttrib("a_data", "", "x", OFFSET), "expr",
         "ExplicitAttrib(name='a_data', width_expr='', expr='x', offset=41)"),
        (parser.Annotation("t: a -in> b", OFFSET, RelationDecl("t", "a", "b", "incoming")), "payload",
         "Annotation(raw_text='t: a -in> b', offset=41, "
         "payload=RelationDecl(tname='t', p='a', q='b', direction='incoming'))"),
    ]

    @pytest.mark.parametrize("record, field, text", RECORDS, ids=lambda x: type(x).__name__)
    def test_field_cannot_be_assigned(self, record, field, text):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None  # no instance dictionary either

    @pytest.mark.parametrize("record, field, text", RECORDS, ids=lambda x: type(x).__name__)
    def test_repr_unchanged(self, record, field, text):
        assert repr(record) == text

    def test_span_prints_as_a_location(self):
        assert str(self.SPAN) == "m.sv:3:7"
        assert Diagnostic("error", "c", "msg", self.SPAN, " x ").render() == "m.sv:3:7: error[c]: msg\n    x"

    @pytest.mark.parametrize("line, column", [(0, 1), (1, 0), (-1, 5)])
    def test_span_must_be_one_based(self, line, column):
        with pytest.raises(ValueError, match="1-based"):
            SourceSpan("m.sv", line, column)

    def test_width_bits(self):
        assert parser.InterfaceSignal("input", "a", "[7:0]", self.OFFSET).width_bits == 8
        assert parser.InterfaceSignal("input", "a", "", self.OFFSET, "t_t").width_bits is None
        assert ExplicitAttrib("a_data", "", "x", self.OFFSET).width_bits is None
        assert ExplicitAttrib("a_data", "[1:0]", "x", self.OFFSET).width_bits == 2


class TestHeaderSearch:
    """The header starts at the first `module` keyword that begins a word."""

    @pytest.mark.parametrize("before", [
        "endmodule\n", "xmodule q (input a);\n", "_module q;\n", "m1module q;\n", "émodule q;\n",
        "endmodule endmodule\n", "// module c (input a);\n",
    ])
    def test_word_prefixed_keyword_skipped(self, before):
        pm = parse_module(f"{before}module m (input a_val);\nendmodule\n")
        assert pm.module_name == "m"
        assert [s.name for s in pm.signals] == ["a_val"]

    @pytest.mark.parametrize("source", [
        "module m (input a_val);", "  \n\tmodule m (input a_val);", "x;module m (input a_val);",
        "endmodule;module m (input a_val);", "(module m (input a_val);", "$module m (input a_val);",
        "endmodule\nmodule\nm (input a_val);",
    ])
    def test_keyword_found(self, source):
        pm = parse_module(source)
        assert pm.module_name == "m"
        assert [s.name for s in pm.signals] == ["a_val"]

    def test_no_keyword_that_starts_a_word(self):
        with pytest.raises(GenerationError) as exc:
            parse_module("endmodule xmodule m (input a);")
        assert [d.code for d in exc.value.diagnostics] == ["no-module-header"]


class TestPortList:
    """A plain port item is read by one match; the items after the first that is not are read one by one."""

    ITEMS = st.sampled_from([
        "input a_val", "output  wire b_ack", "input logic signed [W-1:0] c_data", "input [7 :0] d_transid",
        "input wire [ 3 : 0 ] e", "output reg [0:7] f", "input [1:0][3:0] g", "input dat_t h", "inout i",
        "output logic_t x", "input wire dat_t h",
        "input wire [a[1]:0] j", "input [W-1:\n0] k", "input [W\n-1:0] n", "input [a,b:0] o",
        'input [a"b:0] p, input q"', "", "  input\n  var\n  l  ", "input m_val\t",
    ])

    # Pieces of items: the tokens the port pattern and the list tokenizer treat apart (no comment, which only
    # `parse_module` would blank), `$` names and `x_val_val`-style names.
    TOKEN_ITEMS = st.lists(st.sampled_from([
        "input ", "output ", "inout ", "wire ", "logic ", "reg ", "var ", "signed ", "unsigned ", "dat_t ",
        "[", "]", "7", ":0", ":", "W-1", "(", ")", "{", "}", '"', ",", " ", "\n", "\t",
        "a_val", "x_val_val", "a$", "b$_data", "$c", "9d", "e_transid_unique",
    ]), max_size=8).map("".join)

    @staticmethod
    def one_by_one(source: str):
        """Every item through `_header_list` and `_parse_port_item`, as the reference; None if the list never closes."""
        listed = parser._header_list(source, source.index("("))
        if listed is None:
            return None
        diags, signals = [], []
        for item, off in listed[0]:
            sig = parser._parse_port_item(item, off + len(item) - len(item.lstrip()), diags)
            if sig:
                signals.append(sig)
        return signals, [(d.code, d.message, parser._span(source, "m.sv", d.span)) for d in diags]

    def assert_reads_item_by_item(self, items: list[str]):
        source = "module m (" + ",\n".join(items) + ");\n"
        try:
            pm = parse_module(source, "m.sv")
        except GenerationError as exc:
            assert [d.code for d in exc.diagnostics] == ["no-module-header"]
            assert self.one_by_one(source) is None
            return
        got = pm.signals, [(d.code, d.message, d.span) for d in pm.diagnostics if d.code != "malformed-port-decl"
                           or "declared twice" not in d.message]
        assert got == self.one_by_one(source)

    @given(st.lists(ITEMS, min_size=1, max_size=8))
    def test_matches_item_by_item_reading(self, items):
        self.assert_reads_item_by_item(items)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(ITEMS, TOKEN_ITEMS), min_size=1, max_size=6))
    def test_token_items_match_item_by_item_reading(self, items):
        self.assert_reads_item_by_item(items)


class TestPlainLines:
    """A plain payload line is read by one match, exactly as the general branch of `_parse_annotation_line` reads it."""

    NAMES = ["a_val", "x_val_val", "a$_data", "b$", "$c_ack", "t0", "e_transid_unique", "x_unique", "9f_val", "_val", "q"]
    # Every token the lexer, the tokenizer or the plain pattern treats apart, and the names.
    TOKENS = [*NAMES, " ", "\t", ":", "-in>", "-out>", "->", "-", ">", "=", "==", "===", "<=", ">=", "!=", ";", ",",
              "[", "]", "3:0", "W-1", "(", ")", "{", "}", '"', "//", "/*", "*/", "*", "1'b1", "input ", "output "]
    WS = st.sampled_from(["", " ", "\t "])
    NAME = st.sampled_from(NAMES)
    RUN = st.lists(st.sampled_from(TOKENS), max_size=6).map("".join)
    RELATIONS = st.tuples(
        NAME, WS, st.sampled_from([":", "::", "="]), WS, NAME, WS, st.sampled_from(["-in>", "-out>", "->", "-in >"]),
        WS, NAME, WS,
    ).map("".join)
    ASSIGNMENTS = st.tuples(
        st.sampled_from(["", "[3:0] ", "[W-1:0]", "[ ] ", "[a[1]:0] ", "[", "[a=b] ", "[x;y] "]), NAME, WS,
        st.sampled_from(["=", "==", "<="]), WS, RUN, st.sampled_from(["", ";", " ;", ";;", "; x"]),
    ).map("".join)

    @staticmethod
    def general(text: str):
        """The payload lines of a one-line region through the general branch, and the diagnostics."""
        lines, offsets = parser._region_lines([(text, 0)])
        diags = []
        anns = [parser._parse_annotation_line(line, offset, diags) for line, offset in zip(lines, offsets)]
        return [a for a in anns if a is not None], diags

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(RELATIONS, ASSIGNMENTS, st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)))
    def test_matches_general_path(self, text):
        diags = []
        assert (parser._read_annotations(text, "m.sv", [(text, 0)], diags), diags) == self.general(text)

    @pytest.mark.parametrize("text", [
        "t: a -in> b", " t :a-out>b ", "[3:0] a_val = x", "a_val=x ;", "a$_data = b$ + 1'b1", "x_val_val = a, b",
        "[ W-1 : 0 ] e_transid_unique = !q", "a_val = ;", "a_val = x;;", "x_unique = y", "a_val = (x)", "a_val == x",
    ])
    def test_matches_general_path_on_edges(self, text):
        diags = []
        assert (parser._read_annotations(text, "m.sv", [(text, 0)], diags), diags) == self.general(text)

    def test_plain_lines_take_one_match(self):
        lines = ["t: a -in> b", "[3:0] a_val = x", "a_val = x;", "a$_data = b$ + 1'b1", "x_val_val = a, b"]
        assert all(parser._PLAIN_LINE_RE.fullmatch(line) for line in lines)
        with mock.patch.object(parser, "_parse_annotation_line") as general:
            assert len(parser._read_annotations("\n".join(lines), "m.sv", [("\n".join(lines), 0)], [])) == 5
        general.assert_not_called()


# One corpus entry per language production or error rule: (source, check).
GRAMMAR_CORPUS = [
    # TRANSACTION ::= TNAME: RELATION, incoming arrow
    ("relation_in", "// AUTOSVA fifo: in -in> out", lambda pm: payloads(pm, RelationDecl)[0].direction == "incoming"),
    # outgoing arrow
    ("relation_out", "// AUTOSVA t: a -out> b", lambda pm: payloads(pm, RelationDecl)[0].direction == "outgoing"),
    # TNAME uniqueness holds for distinct names
    (
        "two_relations",
        "// AUTOSVA t1: a -in> b\n// AUTOSVA t2: c -out> d",
        lambda pm: [r.tname for r in payloads(pm, RelationDecl)] == ["t1", "t2"],
    ),
    # ATTRIB ::= SIG = ASSIGN
    (
        "attrib_assign",
        "// AUTOSVA a_ack = !busy",
        lambda pm: payloads(pm, ExplicitAttrib)[0].expr == "!busy",
    ),
    # ATTRIB with [STR:0] width prefix
    (
        "attrib_assign_width",
        "// AUTOSVA [W-1:0] a_data = s.field",
        lambda pm: payloads(pm, ExplicitAttrib)[0].width_expr == "[W-1:0]",
    ),
    # ATTRIB ::= input SIG
    (
        "attrib_input_decl",
        "// AUTOSVA input [1:0] a_transid",
        lambda pm: [(s.direction, s.width_expr, s.name) for s in pm.declared_signals()]
        == [("input", "[1:0]", "a_transid")],
    ),
    # ATTRIB ::= output SIG
    (
        "attrib_output_decl",
        "// AUTOSVA output a_ack;",
        lambda pm: [(s.direction, s.width_expr, s.name) for s in pm.declared_signals()] == [("output", "", "a_ack")],
    ),
    # SIG ::= STR FIELD (opaque type form)
    (
        "attrib_opaque_type",
        "// AUTOSVA input req_t a_data",
        lambda pm: [(s.opaque_type, s.name) for s in pm.declared_signals()] == [("req_t", "a_data")],
    ),
    # brackets inside a string literal do not count
    (
        "attrib_assign_string_bracket",
        '// AUTOSVA a_ack = x != ")"',
        lambda pm: payloads(pm, ExplicitAttrib)[0].expr == 'x != ")"',
    ),
    # FIELD ::= P_SUFFIX with longest-match suffix
    (
        "attrib_unique_suffix",
        "// AUTOSVA a_transid_unique = 1'b1",
        lambda pm: split_field(payloads(pm, ExplicitAttrib)[0].name)[1] == "transid_unique",
    ),
    # every SUFFIX is accepted
    *[
        (
            f"suffix_{suffix}",
            f"// AUTOSVA a_{suffix} = x",
            (lambda s: lambda pm: split_field(payloads(pm, ExplicitAttrib)[0].name)[1] == s)(suffix),
        )
        for suffix in SUFFIXES
    ],
    # block region form
    (
        "block_region",
        "/*AUTOSVA\nt: a -in> b\na_ack = !busy\n*/",
        lambda pm: len(pm.annotations) == 2,
    ),
    # marker with payload on the same block line
    (
        "block_inline_payload",
        "/*AUTOSVA t: a -in> b */",
        lambda pm: payloads(pm, RelationDecl)[0].tname == "t",
    ),
]

ERROR_CORPUS = [
    ("bad_arrow", "// AUTOSVA t: a => b", "bad-arrow"),
    ("bad_arrow_reversed", "// AUTOSVA t: a <in- b", "bad-arrow"),
    ("bad_suffix", "// AUTOSVA a_bogus = x", "bad-field-suffix"),
    ("bare_suffix_no_prefix", "// AUTOSVA val = x", "bad-field-suffix"),
    (
        "duplicate_tname",
        "// AUTOSVA t: a -in> b\n// AUTOSVA t: c -out> d",
        "duplicate-transaction-name",
    ),
    ("not_an_annotation", "// AUTOSVA what is this line", "bad-annotation"),
    ("unbalanced_assign", "// AUTOSVA a_ack = (busy", "unbalanced-brackets"),
    ("mismatched_assign", "// AUTOSVA [1:0] a_transid = {b[1), c}", "unbalanced-brackets"),
    ("unbalanced_width", "// AUTOSVA input [(W-1:0] a_data", "unbalanced-brackets"),
    ("declaration_repeats_port", "// AUTOSVA input a_val", "malformed-port-decl"),
    ("declaration_not_a_port", "// AUTOSVA input a_ack = x", "malformed-port-decl"),
    ("semicolon_in_assign", "// AUTOSVA a_ack = busy; x", "bad-annotation"),
    ("eq_in_declared_range", "// AUTOSVA input [W=1:0] a_data;", "bad-annotation"),
    ("lone_eq_in_assign", "// AUTOSVA pipe_in_active = bu= sy", "bad-annotation"),
    ("lone_eq_after_assign", "// AUTOSVA pipe_in_stable = = 1'b1", "bad-annotation"),
    ("line_comment_in_assign", "// AUTOSVA a_ack = busy // note", "bad-annotation"),
    ("block_comment_in_assign", "// AUTOSVA a_ack = x /* y", "bad-annotation"),
]


@pytest.mark.parametrize("label,annot,check", GRAMMAR_CORPUS, ids=[c[0] for c in GRAMMAR_CORPUS])
def test_grammar_corpus(label, annot, check):
    pm = parse_module(header("input wire a_val,\noutput wire b_val", annot))
    assert not [d for d in pm.diagnostics if d.is_error], pm.diagnostics
    assert check(pm)


@pytest.mark.parametrize("label,annot,code", ERROR_CORPUS, ids=[c[0] for c in ERROR_CORPUS])
def test_grammar_error_corpus(label, annot, code):
    pm = parse_module(header("input wire a_val", annot))
    assert code in [d.code for d in pm.diagnostics if d.is_error]


# Where a port declaration's two forms meet: a keyword before a type name is
# not read as either form, and a keyword that only begins a type name is a
# user type. (item with `{}` for the port name, diagnostic code, opaque type)
PORT_FORM_EDGES = [
    ("input wire dat_t {}", "malformed-port-decl", None),
    ("input [3:0] dat_t {}", "malformed-port-decl", None),
    ("input signed dat_t {}", "malformed-port-decl", None),
    ("output logic_t {}", "opaque-port-type", "logic_t"),
    ("input wire_t {}", "opaque-port-type", "wire_t"),
]


@pytest.mark.parametrize("item,code,opaque", PORT_FORM_EDGES, ids=[e[0].format("x") for e in PORT_FORM_EDGES])
@pytest.mark.parametrize("where", ["header", "declaration"])
def test_port_form_edges(item, code, opaque, where):
    name = "x" if where == "header" else "a_data"
    text = item.format(name)
    pm = parse_module(header(text) if where == "header" else header("input wire a_val", f"// AUTOSVA {text}"))
    message = (f"port '{name}' has user type '{opaque}', width unknown" if opaque
               else f"cannot classify port declaration '{text}'")
    assert [(d.code, d.message) for d in pm.diagnostics] == [(code, message)]
    got = pm.signals if where == "header" else pm.declared_signals()
    want = [(text.split()[0], name, "", opaque)] if opaque else []
    assert [(s.direction, s.name, s.width_expr, s.opaque_type) for s in got] == want


class TestParseModule:
    def test_unbalanced_bracket_is_located(self):
        pm = parse_module(header("input wire a_val", "/*AUTOSVA\n[1:0] a_transid = {b[1), c}\n*/"))
        assert [(d.code, d.message, d.span.line, d.span.column) for d in pm.diagnostics] == [
            ("unbalanced-brackets", "')' does not balance", 2, 23)
        ]
        assert pm.annotations == []

    @pytest.mark.parametrize("width, column", [("[T= AGW-1:0]", 3), ("[TAGW;-1:0]", 6)])
    def test_stray_token_in_width_range_is_located(self, width, column):
        src = load_fixture("mmu_stub").replace("[TAGW-1:0] ptw_req_transid", f"{width} ptw_req_transid")
        pm = parse_module(src, "mmu_stub.sv")
        assert [(d.code, d.span.line, d.span.column) for d in pm.diagnostics if d.is_error] == [
            ("bad-annotation", 10, column)
        ]

    @pytest.mark.parametrize(
        "annot, line, column",
        [
            ("/*AUTOSVA a_bogus = x */", 1, 11),  # the payload on the marker line, past its space
            ("/*AUTOSVA\n   a_bogus = x\n*/", 2, 4),  # an indented block line
            ("/*AUTOSVA\n * a_bogus = x\n */", 2, 4),  # a `*`-decorated block line
        ],
    )
    def test_block_comment_line_is_located(self, annot, line, column):
        pm = parse_module(header("input wire a_val", annot))
        assert [(d.code, d.span.line, d.span.column) for d in pm.diagnostics] == [("bad-field-suffix", line, column)]

    def test_fifo_fixture_shape(self):
        pm = parse_module(load_fixture("fifo"), "fifo.sv")
        assert pm.module_name == "fifo"
        assert [p.name for p in pm.parameters] == ["WIDTH", "DEPTH"]
        assert len(pm.signals) == 8
        assert [s.name for s in pm.signals] == [
            "clk", "rst_n", "in_val", "in_ack", "in_data", "out_val", "out_ack", "out_data",
        ]
        assert len(payloads(pm, RelationDecl)) == 1

    def test_parameter_values_verbatim(self):
        pm = parse_module(header("input wire a", params="parameter int unsigned W = 4 + 2"))
        assert pm.parameters == [type(pm.parameters[0])("W", "4 + 2")]

    def test_string_parameter_hides_its_brackets_and_separators(self):
        # A `)`, `,` or `=` inside a header string neither ends nor splits a list.
        pm = parse_module('module m #(parameter S = "a)b", parameter T = "c,d=e") (input wire a);\nendmodule\n')
        assert [(p.name, p.value_expr) for p in pm.parameters] == [("S", '"a)b"'), ("T", '"c,d=e"')]
        assert [s.name for s in pm.signals] == ["a"]
        assert pm.diagnostics == []

    def test_comparison_in_parameter_item_is_skipped(self):
        # The first `=` outside brackets ends `<=` or `!=`: no assignment, so no value.
        pm = parse_module("module m #(parameter W<= 8, parameter V != 3, parameter U = 2) (input wire a);\nendmodule\n")
        assert [(p.name, p.value_expr) for p in pm.parameters] == [("U", "2")]
        assert [(d.code, d.message) for d in pm.diagnostics] == [
            ("parameter-skipped", "cannot read parameter item 'parameter W<= 8'"),
            ("parameter-skipped", "cannot read parameter item 'parameter V != 3'"),
        ]

    def test_duplicate_transaction_name_drops_the_later_relation(self):
        pm = parse_module(header("input wire a_val", "// AUTOSVA t: a -in> b\n// AUTOSVA t: c -out> d"))
        assert [d.code for d in pm.diagnostics] == ["duplicate-transaction-name"]
        assert [(r.tname, r.p, r.q) for r in payloads(pm, RelationDecl)] == [("t", "a", "b")]

    def test_interleaved_duplicate_transaction_names(self):
        # The first declaration of a name wins; each later one is reported once, at its own line, after every
        # other diagnostic, and the annotations that are kept keep their order.
        pm = parse_module(header("input wire a_val", "\n".join(f"// AUTOSVA {line}" for line in [
            "t0: a -in> b", "t1: c -in> d", "t0: e -in> f", "a_val = x", "t1: g -out> h", "t2: i -in> j",
            "t0: k -in> l", "b_val = y(",
        ])))
        spans = pm.spans([a.offset for a in pm.annotations])
        assert [(type(a.payload).__name__, span.line) for a, span in zip(pm.annotations, spans)] == [
            ("RelationDecl", 1), ("RelationDecl", 2), ("ExplicitAttrib", 4), ("RelationDecl", 6)]
        assert [(r.tname, r.p) for r in payloads(pm, RelationDecl)] == [("t0", "a"), ("t1", "c"), ("t2", "i")]
        assert [(d.code, d.message, d.span.line, d.snippet) for d in pm.diagnostics] == [
            ("unbalanced-brackets", "'(' does not balance", 8, "b_val = y("),
            ("duplicate-transaction-name", "transaction 't0' already declared at <string>:1:12", 3, "t0: e -in> f"),
            ("duplicate-transaction-name", "transaction 't1' already declared at <string>:2:12", 5, "t1: g -out> h"),
            ("duplicate-transaction-name", "transaction 't0' already declared at <string>:1:12", 7, "t0: k -in> l"),
        ]

    def test_unmatched_val_port_is_retained_not_annotated(self):
        pm = parse_module(header("input wire foo_val", "// AUTOSVA t: a -in> b"))
        assert [s.name for s in pm.signals] == ["foo_val"]
        assert len(pm.annotations) == 1  # only the relation

    def test_no_module_header(self):
        with pytest.raises(GenerationError) as exc:
            parse_module("// AUTOSVA t: a -in> b\nnothing here\n")
        assert exc.value.diagnostics[0].code == "no-module-header"

    def test_malformed_port(self):
        pm = parse_module(header("input wire ok,\n??? broken ???"))
        assert "malformed-port-decl" in [d.code for d in pm.diagnostics]
        assert [s.name for s in pm.signals] == ["ok"]

    def test_inout_rejected(self):
        pm = parse_module(header("inout wire pad"))
        assert "malformed-port-decl" in [d.code for d in pm.diagnostics]

    def test_opaque_struct_port(self):
        pm = parse_module(header("input dcache_req_t dcache_req_i"))
        sig = pm.signals[0]
        assert sig.opaque_type == "dcache_req_t"
        assert sig.width_bits is None
        assert "opaque-port-type" in [d.code for d in pm.diagnostics]

    def test_multi_dimensional_range_kept_verbatim(self):
        pm = parse_module(header("input wire [3:0][7:0] x", "// AUTOSVA input logic [1:0] [W-1:0] a_data;"))
        assert [(s.width_expr, s.width_bits) for s in pm.signals + pm.declared_signals()] == [
            ("[3:0][7:0]", None), ("[1:0][W-1:0]", None)
        ]
        assert [d.code for d in pm.diagnostics] == ["non-canonical-range"] * 2

    def test_non_canonical_range_flagged(self):
        pm = parse_module(header("input wire [7:4] weird"))
        assert pm.signals[0].width_expr == "[7:4]"
        assert "non-canonical-range" in [d.code for d in pm.diagnostics]

    def test_preprocessor_line_warned_and_ignored(self):
        pm = parse_module(header("input wire a,\n`FOO\noutput wire b"))
        assert "preprocessor-ignored" in [d.code for d in pm.diagnostics]
        assert [s.name for s in pm.signals] == ["a", "b"]

    def test_preprocessor_outside_header_not_warned(self):
        pm = parse_module("`timescale 1ns/1ps\nmodule m (input wire a);\n`ifdef FOO\nwire x;\n`endif\nendmodule")
        assert [d for d in pm.diagnostics if d.code == "preprocessor-ignored"] == []
        pm = parse_module("module m;\n`define W 4\nendmodule\n")
        assert pm.diagnostics == []

    def test_spans_after_directive_lines_are_source_positions(self):
        # A directive line is blanked to spaces of its own length, so later offsets stay the source's.
        pm = parse_module("`timescale 1ns/1ps\nmodule m (\n`ifdef FOO\n    input wire a,\n`endif\n"
                          "    input wire b\n);\n")
        spans = pm.spans([s.offset for s in pm.signals])
        assert [(s.name, span.line, span.column) for s, span in zip(pm.signals, spans)] == [("a", 4, 5), ("b", 6, 5)]
        assert [(d.code, d.span.line, d.span.column) for d in pm.diagnostics] == [
            ("preprocessor-ignored", 3, 1), ("preprocessor-ignored", 5, 1)
        ]

    def test_preprocessor_lines_blanked_everywhere(self):
        pm = parse_module("`define M module fake (input wire z);\nmodule m (input wire a);\nendmodule\n")
        assert pm.module_name == "m"
        assert [s.name for s in pm.signals] == ["a"]
        assert pm.diagnostics == []

    def test_comments_stripped_before_port_parse(self):
        pm = parse_module(header("input wire a, // input wire not_a_port,\noutput wire b"))
        assert [s.name for s in pm.signals] == ["a", "b"]

    def test_module_without_port_list(self):
        pm = parse_module("module empty;\nendmodule\n")
        assert pm.module_name == "empty"
        assert pm.signals == []

    def test_header_import_captured(self):
        pm = parse_module("module m import pkg::*; (input wire a);\nendmodule\n")
        assert pm.imports == ["import pkg::*;"]
        assert [s.name for s in pm.signals] == ["a"]

    def test_outgoing_cache_request_with_explicit_attribs(self):
        # A walker issuing tagged requests towards its data cache: outgoing
        # relation plus explicit attribute definitions over a struct port.
        src = (
            "/*AUTOSVA\n"
            "ptw_dcache: dcache_req -out> dcache_res\n"
            "dcache_req_val = dcache_req_o.req\n"
            "dcache_res_val = dcache_res_i.valid\n"
            "*/\n"
            "module walker (\n"
            "input wire clk,\n"
            "input wire rst_n,\n"
            "output dcache_req_t dcache_req_o,\n"
            "input dcache_res_t dcache_res_i\n"
            ");\nendmodule\n"
        )
        pm = parse_module(src)
        assert not [d for d in pm.diagnostics if d.is_error]
        (rel,) = payloads(pm, RelationDecl)
        assert (rel.tname, rel.p, rel.q, rel.direction) == (
            "ptw_dcache", "dcache_req", "dcache_res", "outgoing",
        )
        attribs = payloads(pm, ExplicitAttrib)
        assert [(a.name, a.expr) for a in attribs] == [
            ("dcache_req_val", "dcache_req_o.req"),
            ("dcache_res_val", "dcache_res_i.valid"),
        ]

    def test_annotation_spans_lie_inside_regions(self):
        src = load_fixture("mmu_stub")
        pm = parse_module(src, "mmu_stub.sv")
        region_lines = set()
        for text, span in extract_annotation_regions(src, "mmu_stub.sv"):
            for k in range(len(text.split("\n"))):
                region_lines.add(span.line + k)
        for span in pm.spans([ann.offset for ann in pm.annotations]):
            assert span.line in region_lines

    def test_parse_is_pure(self):
        src = load_fixture("pipeline")
        assert module_projection(parse_module(src)) == module_projection(parse_module(src))

    def test_crlf_line_endings(self):
        src = (
            "// AUTOSVA t: a -in> b\r\nmodule m (\r\n"
            "input wire a_val,\r\noutput wire b_val\r\n);\r\nendmodule\r\n"
        )
        pm = parse_module(src)
        assert not [d for d in pm.diagnostics if d.is_error]
        assert [s.name for s in pm.signals] == ["a_val", "b_val"]
        assert len(payloads(pm, RelationDecl)) == 1

    def test_star_decorated_block_region(self):
        src = (
            "/*AUTOSVA\n * t: a -in> b\n * a_ack = !busy\n */\n"
            "module m (\ninput wire a_val,\noutput wire b_val,\noutput wire busy\n);\nendmodule\n"
        )
        pm = parse_module(src)
        assert not [d for d in pm.diagnostics if d.is_error]
        assert [type(a.payload) for a in pm.annotations] == [RelationDecl, ExplicitAttrib]


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["fifo", "pipeline", "noc_buffer", "mmu_stub"])
    def test_fixture_roundtrip(self, name):
        pm = parse_module(load_fixture(name))
        again = parse_module(render_module(pm))
        assert module_projection(again) == module_projection(pm)

    @given(
        names=st.lists(
            st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True), min_size=1, max_size=5, unique=True
        ),
        widths=st.lists(st.integers(min_value=0, max_value=31), min_size=5, max_size=5),
        directions=st.lists(st.sampled_from(["input", "output"]), min_size=5, max_size=5),
    )
    def test_generated_roundtrip(self, names, widths, directions):
        ports = []
        for name, width, direction in zip(names, widths, directions):
            w = f"[{width}:0] " if width else ""
            ports.append(f"    {direction} wire {w}{name}_val")
        src = "module gen_m (\n" + ",\n".join(ports) + "\n);\nendmodule\n"
        pm = parse_module(src)
        assert not [d for d in pm.diagnostics if d.is_error]
        again = parse_module(render_module(pm))
        assert module_projection(again) == module_projection(pm)

    @given(
        params=st.lists(
            st.tuples(
                st.from_regex(r"[A-Z][A-Z0-9_]{0,4}", fullmatch=True),
                st.integers(min_value=0, max_value=255),
            ),
            min_size=0, max_size=3,
            unique_by=lambda kv: kv[0],
        ),
        tname=st.from_regex(r"[a-z][a-z0-9]{0,4}", fullmatch=True),
    )
    def test_roundtrip_with_parameters_and_relation(self, params, tname):
        param_text = ", ".join(f"parameter {n} = {v}" for n, v in params)
        head = f"module gen_m #({param_text}) (" if params else "module gen_m ("
        src = (
            f"// AUTOSVA {tname}: rq -in> rs\n"
            f"{head}\n    input wire rq_val,\n    output wire rs_val\n);\nendmodule\n"
        )
        pm = parse_module(src)
        assert not [d for d in pm.diagnostics if d.is_error]
        again = parse_module(render_module(pm))
        assert module_projection(again) == module_projection(pm)


def test_header_differential_runs_at_tiny_size():
    # The parser's before/after gate, with this checkout on both sides so that both packages load.
    run = subprocess.run([sys.executable, str(REPO / "bench" / "header_differential.py"), "--src", str(REPO / "src"),
                          "--mutants", "300"], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert (report["mutants"], report["mismatches"]) == (300, 0)
    assert report["raised"] > 0
