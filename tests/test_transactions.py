import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import headers
import naive_lexer
from autoft import parser
from autoft.diagnostics import GenerationError, SourceSpan
from autoft.emit import generate_model
from autoft.options import GenOptions
from autoft.parser import ExplicitAttrib, InterfaceSignal, parse_module
from autoft.signals import synth_module_aux
from autoft.transactions import build_transactions

from conftest import FIXTURE_NAMES, load_fixture
from test_pinned_output import _perfbench_inputs


def build(source: str):
    pm = parse_module(source)
    assert not [d for d in pm.diagnostics if d.is_error], pm.diagnostics
    return build_transactions(pm)


def module(ports: str, annotations: str) -> str:
    return f"{annotations}\nmodule m (\n{ports}\n);\nendmodule\n"


def error_codes(diags):
    return [d.code for d in diags if d.is_error]


class TestBuild:
    def test_fifo_single_transaction(self):
        txns, diags = build(load_fixture("fifo"))
        assert error_codes(diags) == []
        (t,) = txns
        assert t.tname == "fifo"
        assert t.direction == "incoming"
        assert set(t.p.bindings) == {"val", "ack", "data"}
        assert set(t.q.bindings) == {"val", "ack", "data"}

    def test_busy_gated_ack_with_stable(self):
        # Incoming transaction where the acknowledge is an expression over a
        # busy signal and the request is declared stable while pending.
        src = module(
            "input wire dtlb_ptw_val,\n"
            "output wire ptw_active,\n"
            "output wire ptw_res_val",
            "// AUTOSVA dtlb: dtlb_ptw -in> ptw_res\n"
            "// AUTOSVA dtlb_ptw_ack = !ptw_active\n"
            "// AUTOSVA dtlb_ptw_stable = 1'b1",
        )
        txns, diags = build(src)
        assert error_codes(diags) == []
        (t,) = txns
        assert t.direction == "incoming"
        assert set(t.p.bindings) == {"val", "ack", "stable"}
        assert isinstance(t.p.bindings["ack"], ExplicitAttrib)
        assert t.p.bindings["ack"].expr == "!ptw_active"
        assert set(t.q.bindings) == {"val"}

    def test_one_sided_transid(self):
        src = module(
            "input wire a_val,\noutput wire b_val,\ninput wire [3:0] a_transid",
            "// AUTOSVA t: a -in> b",
        )
        txns, diags = build(src)
        assert txns == []
        assert "one-sided-attr" in error_codes(diags)

    def test_width_mismatch_literal(self):
        src = module(
            "input wire a_val,\ninput wire [31:0] a_data,\n"
            "output wire b_val,\noutput wire [15:0] b_data",
            "// AUTOSVA t: a -in> b",
        )
        txns, diags = build(src)
        mismatches = [d for d in diags if d.code == "width-mismatch"]
        assert len(mismatches) == 1
        assert "32" in mismatches[0].message and "16" in mismatches[0].message

    def test_parametric_width_exempt_from_mismatch(self):
        src = module(
            "input wire a_val,\ninput wire [W-1:0] a_data,\n"
            "output wire b_val,\noutput wire [15:0] b_data",
            "// AUTOSVA t: a -in> b",
        )
        _, diags = build(src)
        assert "width-mismatch" not in error_codes(diags)

    def test_missing_val(self):
        src = module("input wire a_val", "// AUTOSVA t: a -in> b")
        txns, diags = build(src)
        assert txns == []
        assert "missing-val" in error_codes(diags)

    def test_self_loop_rejected(self):
        src = module("input wire a_val", "// AUTOSVA t: a -in> a")
        txns, diags = build(src)
        assert txns == []
        assert "self-loop" in error_codes(diags)

    def test_unique_without_transid(self):
        src = module(
            "input wire a_val,\noutput wire b_val",
            "// AUTOSVA t: a -in> b\n// AUTOSVA a_transid_unique = 1'b1",
        )
        txns, diags = build(src)
        assert txns == []
        assert "unique-without-transid" in error_codes(diags)

    def test_unbound_attribute_prefix(self):
        src = module(
            "input wire a_val,\noutput wire b_val",
            "// AUTOSVA t: a -in> b\n// AUTOSVA foo_ack = x",
        )
        _, diags = build(src)
        assert "unbound-attribute" in error_codes(diags)

    def test_every_relation_yields_transaction_or_error(self):
        # Two relations, one of them broken: the good one still builds and
        # the broken one is reported, never silently dropped.
        src = module(
            "input wire a_val,\noutput wire b_val,\ninput wire c_val,\ninput wire [1:0] c_transid",
            "// AUTOSVA good: a -in> b\n// AUTOSVA bad: c -out> d",
        )
        txns, diags = build(src)
        assert [t.tname for t in txns] == ["good"]
        assert error_codes(diags) != []


class TestPrecedence:
    def test_explicit_assign_beats_port(self):
        src = module(
            "input wire a_val,\ninput wire a_ack,\noutput wire b_val",
            "// AUTOSVA t: a -in> b\n// AUTOSVA a_ack = custom_expr",
        )
        pm = parse_module(src)
        txns, diags = build_transactions(pm)
        assert isinstance(txns[0].p.bindings["ack"], ExplicitAttrib)
        assert "explicit-overrides-port" in [d.code for d in diags if d.severity == "warning"]

    def test_explicit_decl_beats_port(self):
        # A declaration is a port of the property module, so repeating a
        # header port is an error at the declaration, not a binding choice.
        src = module(
            "input wire a_val,\ninput wire [1:0] a_transid,\noutput wire b_val,"
            "\noutput wire [1:0] b_transid",
            "// AUTOSVA t: a -in> b\n// AUTOSVA input [1:0] a_transid",
        )
        errors = [d for d in parse_module(src).diagnostics if d.is_error]
        assert [(d.code, d.message, d.span.line) for d in errors] == [
            ("malformed-port-decl", "port 'a_transid' declared twice", 2)
        ]

    def test_declared_signal_binds_like_port(self):
        src = module(
            "input wire a_val,\noutput wire b_val",
            "// AUTOSVA t: a -in> b\n// AUTOSVA input [1:0] a_transid\n// AUTOSVA output [1:0] b_transid",
        )
        txns, diags = build(src)
        assert error_codes(diags) == []
        ids = (txns[0].p.bindings["transid"], txns[0].q.bindings["transid"])
        assert [(type(b), b.direction, b.width_bits) for b in ids] == [
            (InterfaceSignal, "input", 2), (InterfaceSignal, "output", 2)
        ]

    def test_assign_beats_decl(self):
        src = module(
            "input wire a_val,\noutput wire b_val",
            "// AUTOSVA t: a -in> b\n// AUTOSVA input a_ack\n// AUTOSVA a_ack = !busy",
        )
        txns, diags = build(src)
        assert isinstance(txns[0].p.bindings["ack"], ExplicitAttrib)
        assert [(d.code, d.span.line) for d in diags if not d.is_error] == [("explicit-overrides-port", 3)]

    def test_two_explicit_defs_conflict(self):
        src = module(
            "input wire a_val,\noutput wire b_val",
            "// AUTOSVA t: a -in> b\n// AUTOSVA a_ack = x\n// AUTOSVA a_ack = y",
        )
        txns, diags = build(src)
        assert "duplicate-binding" in error_codes(diags)

    def test_port_matching_no_relation_ignored_silently(self):
        src = module(
            "input wire a_val,\noutput wire b_val,\ninput wire foo_val",
            "// AUTOSVA t: a -in> b",
        )
        txns, diags = build(src)
        assert error_codes(diags) == []
        assert all(d.code != "explicit-overrides-port" for d in diags)
        assert set(txns[0].p.bindings) == {"val"}


class TestActive:
    def test_active_attaches_to_transaction(self):
        src = module(
            "input wire a_val,\noutput wire b_val,\noutput wire busy",
            "// AUTOSVA t: a -in> b\n// AUTOSVA a_active = busy",
        )
        txns, diags = build(src)
        (t,) = txns
        assert t.active is not None
        assert t.active.expr == "busy"
        assert "active" not in t.p.bindings and "active" not in t.q.bindings

    def test_active_on_both_sides_is_duplicate(self):
        src = module(
            "input wire a_val,\noutput wire b_val",
            "// AUTOSVA t: a -in> b\n// AUTOSVA a_active = x\n// AUTOSVA b_active = y",
        )
        txns, diags = build(src)
        assert "duplicate-binding" in error_codes(diags)


def aux_roles(source: str) -> dict:
    """The roles `synth_module_aux` gives the module's one transaction."""
    pm = parse_module(source)
    (t,), _ = build_transactions(pm)
    (aux,), _ = synth_module_aux([t], pm, GenOptions())
    return aux.shape.bind(aux.names)[0]


class TestKind:
    # A transaction is tracked when its id is bound on both sides; synth then gives it a symbolic id.
    def test_tracked_when_id_on_both_sides(self):
        txns, _ = build(load_fixture("noc_buffer"))
        assert "transid" in txns[0].p.bindings and "transid" in txns[0].q.bindings
        assert {"symb", "inflight", "sampled"} <= set(aux_roles(load_fixture("noc_buffer")))

    def test_untracked_without_id(self):
        txns, _ = build(load_fixture("fifo"))
        assert "transid" not in txns[0].p.bindings and "transid" not in txns[0].q.bindings
        assert not {"symb", "inflight", "sampled"} & set(aux_roles(load_fixture("fifo")))

    def test_minimal_val_only_untracked(self):
        src = module("input wire a_val,\noutput wire b_val", "// AUTOSVA t: a -in> b")
        assert set(aux_roles(src)) == {"p_val", "q_val", "p_hsk", "q_hsk", "counter"}

    def test_interface_may_appear_in_two_transactions(self):
        src = module(
            "input wire a_val,\noutput wire b_val,\noutput wire c_val",
            "// AUTOSVA t1: a -in> b\n// AUTOSVA t2: a -in> c",
        )
        txns, diags = build(src)
        assert error_codes(diags) == []
        assert [t.tname for t in txns] == ["t1", "t2"]

    def test_validation_errors_carry_spans(self):
        src = module(
            "input wire a_val,\noutput wire b_val,\ninput wire [3:0] a_transid",
            "// AUTOSVA t: a -in> b",
        )
        _, diags = build(src)
        errs = [d for d in diags if d.is_error]
        assert errs and all(d.span is not None for d in errs)


class TestLocating:
    """Records keep source offsets, and a stage locates only the diagnostics it reports, before it returns."""

    @staticmethod
    def stages(source: str) -> tuple[list, list[int]]:
        """The diagnostics of parse, build and synth on `source`, and every offset located on the way."""
        located, spans = [], parser._spans

        def counted(text, path, offsets):
            located.extend(offsets)
            return spans(text, path, offsets)

        with mock.patch.object(parser, "_spans", counted):
            pm = parse_module(source, "m.sv")
            txns, built = build_transactions(pm)
            _, synth = synth_module_aux(txns, pm, GenOptions())
        return [*pm.diagnostics, *built, *synth], located

    @pytest.mark.parametrize("name", [*FIXTURE_NAMES, "wide_0", "wide_1", "wide_header"])
    def test_only_diagnostics_are_located(self, name):
        if name in FIXTURE_NAMES:
            source = load_fixture(name)
        elif name == "wide_header":
            source = headers.wide_header(40)
        else:
            source = {f.name: f.text for f in _perfbench_inputs().wide_files(1)[:2]}[name]
        diags, located = self.stages(source)
        assert all(type(d.span) is SourceSpan for d in diags)
        assert len(located) == len(diags)  # every one of them is located from an offset, and nothing else is
        if not diags:
            assert located == []

    # Each fault: the annotation lines and the port items it adds, `{z}` standing for a fresh name; the code of
    # the diagnostic it brings; the text its position is at, the last of its occurrences; and, for an error
    # that names where the first declaration is, the text at that first declaration.
    RELATION = ["{z}: {z}p -in> {z}q", "{z}p_val = 1", "{z}q_val = 1"]
    FAULTS = {
        "opaque-port": ([], ["input dat_t {z}_opq"], "opaque-port-type", "input dat_t {z}_opq", None),
        "bad-suffix": (["{z}_bogus = 1"], [], "bad-field-suffix", "{z}_bogus", None),
        "one-sided": ([*RELATION, "[3:0] {z}p_transid = 1"], [], "one-sided-attr", "[3:0] {z}p_transid", None),
        "duplicate-binding": ([*RELATION, "{z}p_ack = a", "{z}p_ack = b"], [], "duplicate-binding", "{z}p_ack = b",
                              "{z}p_ack = a"),
        "data-without-transid": ([*RELATION, "{z}p_data = a", "{z}q_data = b"], [], "data-without-transid",
                                 "{z}: {z}p", None),
        "duplicate-tname": (["t0000: {z}p -in> {z}q"], [], "duplicate-transaction-name", "t0000: {z}p", "t0000: "),
        "repeated-port": ([], ["input wire {z}_rep", "input wire {z}_rep"], "malformed-port-decl",
                          "input wire {z}_rep", None),
    }

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), faults=st.lists(st.sampled_from(sorted(FAULTS)), min_size=1, max_size=4))
    def test_injected_faults_are_located_as_the_reference_lexer_locates_them(self, seed, faults):
        pb, rng = _perfbench_inputs(), random.Random(seed)
        text = pb._header(rng, "w", [pb._draw_txn(rng) for _ in range(rng.randint(1, 5))]) + "endmodule\n"
        notes, items = [], []
        for k, fault in enumerate(faults):
            lines, ports = self.FAULTS[fault][:2]
            notes += [f"// AUTOSVA {line.format(z=f'z{k}')}" for line in lines]
            items += [f"    {item.format(z=f'z{k}')},\n" for item in ports]
        head = text.index("\nmodule w")
        text = text[:head] + "\n" + "\n".join(notes) + text[head:]
        ports = text.index(") (\n") + 4
        text = text[:ports] + "".join(items) + text[ports:]

        starts = naive_lexer.line_starts(text)

        def at(offset: int) -> tuple[int, int]:
            span = naive_lexer._span(starts, "m.sv", offset)
            return span.line, span.column

        want = []
        for k, fault in enumerate(faults):
            code, where, first = self.FAULTS[fault][2:]
            z = f"z{k}"
            want.append((code, at(text.rindex(where.format(z=z)))))
            if first:
                line, column = at(text.index(first.format(z=z)))
                want[-1] += (f"at m.sv:{line}:{column}",)
        for rel in re.finditer(r"(t\d{4}): ", text[:head]):  # the header's own warnings, on its relations
            if f"{rel[1]}_req_data" in text and f"{rel[1]}_req_transid" not in text:
                want.append(("data-without-transid", at(rel.start())))
        try:
            diags = generate_model(text, "m.sv", GenOptions()).warnings
        except GenerationError as exc:
            diags = exc.diagnostics
        got = [(d.code, (d.span.line, d.span.column)) + tuple(re.findall(r"at m\.sv:\d+:\d+", d.message))
               for d in diags]
        assert sorted(got) == sorted(want)
