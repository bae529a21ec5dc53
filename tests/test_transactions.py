from autoft.options import GenOptions
from autoft.parser import ExplicitAttrib, InterfaceSignal, parse_module
from autoft.signals import synth_module_aux
from autoft.transactions import build_transactions

from conftest import load_fixture


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
    return aux.roles


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
