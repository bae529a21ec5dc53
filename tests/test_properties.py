import pytest

from autoft.emit import link_submodule_fts
from autoft.options import GenOptions
from autoft.parser import parse_module
from autoft.properties import (
    ASSERT,
    ASSUME,
    COVER,
    KINDS,
    apply_link_transforms,
    gen_properties,
    plan_polarity,
)
from autoft.signals import synth_module_aux
from autoft.tracecheck import HOLDS, Trace, eval_property
from autoft.transactions import build_transactions

from conftest import FIXTURE_NAMES, gen_fixture, load_fixture

STARRED = {
    "liveness", "response_had_request", "counter_no_underflow",
    "ack_eventually", "transid_integrity", "data_integrity",
}
ENV_SIDE = {"stability", "uniqueness"}
ALWAYS_ASSERT = {"active_covered", "xprop"}


def props_for(source: str, direction_override=None, opts=None):
    pm = parse_module(source)
    txns, diags = build_transactions(pm)
    assert not [d for d in diags if d.is_error], diags
    if direction_override:
        for t in txns:
            t.direction = direction_override
    opts = opts or GenOptions()
    aux, _ = synth_module_aux(txns, pm, opts)
    return [gen_properties(t, a, opts, []) for t, a in zip(txns, aux)]


def module(ports: str, annotations: str) -> str:
    return f"{annotations}\nmodule m (\n{ports}\n);\nendmodule\n"


VAL_ONLY = module("input wire p_val,\noutput wire q_val", "// AUTOSVA t: p -in> q")


class TestPolarityTable:
    @pytest.mark.parametrize("direction", ["incoming", "outgoing"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_exhaustive(self, direction, kind):
        got = plan_polarity(direction, kind)
        if kind in STARRED:
            expected = ASSERT if direction == "incoming" else ASSUME
        elif kind in ENV_SIDE:
            expected = ASSUME if direction == "incoming" else ASSERT
        else:
            expected = ASSERT
        assert got == expected

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            plan_polarity("incoming", "nonsense")
        with pytest.raises(ValueError):
            plan_polarity("sideways", "liveness")


class TestEmissionSets:
    def test_val_only_incoming_exact_set(self):
        (props,) = props_for(VAL_ONLY)
        assert [(p.kind, p.directive) for p in props] == [
            ("liveness", ASSERT),
            ("response_had_request", ASSERT),
            ("counter_no_underflow", ASSERT),
            ("xprop", ASSERT),
            ("xprop", ASSERT),
        ]
        assert len(props) == 5

    def test_val_only_outgoing_liveness_assumed(self):
        (props,) = props_for(VAL_ONLY, direction_override="outgoing")
        directives = {p.kind: p.directive for p in props}
        assert directives["liveness"] == ASSUME
        assert directives["xprop"] == ASSERT

    def test_tracked_liveness_requires_matching_id(self):
        src = load_fixture("noc_buffer")
        (props,) = props_for(src)
        live = next(p for p in props if p.kind == "liveness")
        assert "symb_buf_transid" in live.ltl_text
        assert "s_eventually (buf_out_val && (buf_out_transid == symb_buf_transid))" in live.ltl_text

    def test_ack_with_stable_is_directional(self):
        src = load_fixture("pipeline")
        (props,) = props_for(src)
        ack = next(p for p in props if p.kind == "ack_eventually")
        assert ack.directive == ASSERT
        assert "s_eventually" in ack.ltl_text

    def test_ack_without_stable_becomes_cover(self):
        (props,) = props_for(load_fixture("fifo"))
        ack = next(p for p in props if p.kind == "ack_eventually")
        assert ack.directive == COVER
        assert "##[0:$]" in ack.ltl_text

    def test_stability_uses_nonoverlapped_implication(self):
        (props,) = props_for(load_fixture("pipeline"))
        stab = next(p for p in props if p.kind == "stability")
        assert "|=>" in stab.ltl_text
        assert "|->" not in stab.ltl_text
        assert [x.name for x in stab.body.con.b.items] == ["pipe_in_transid", "pipe_in_data"]

    def test_stability_signal_mode_asserts_the_signal(self):
        src = module(
            "input wire p_val,\ninput wire p_ack,\ninput wire p_stable,\noutput wire q_val",
            "// AUTOSVA t: p -in> q",
        )
        (props,) = props_for(src)
        stab = next(p for p in props if p.kind == "stability")
        assert stab.ltl_text.endswith("|=> p_stable")

    def test_stable_without_ack_warns_and_skips(self):
        from autoft import GenOptions, generate_bundle

        src = module(
            "input wire p_val,\noutput wire q_val",
            "// AUTOSVA t: p -in> q\n// AUTOSVA p_stable = 1'b1",
        )
        bundle = generate_bundle(src, "m.sv", GenOptions())
        assert not any(p.kind == "stability" for p in bundle.properties)
        assert any(w.code == "stable-without-ack" for w in bundle.warnings)

    def test_stable_on_response_side_warns(self):
        from autoft import GenOptions, generate_bundle

        src = module(
            "input wire p_val,\noutput wire q_val,\noutput wire q_ack_dummy",
            "// AUTOSVA t: p -in> q\n// AUTOSVA q_stable = 1'b1",
        )
        bundle = generate_bundle(src, "m.sv", GenOptions())
        assert any(w.code == "stable-on-response-side" for w in bundle.warnings)

    def test_active_emits_single_conjoined_property(self):
        (props,) = props_for(load_fixture("pipeline"))
        active = [p for p in props if p.kind == "active_covered"]
        assert len(active) == 1
        assert " and " in active[0].ltl_text

    def test_uniqueness_only_with_flag(self):
        (props_noc,) = props_for(load_fixture("noc_buffer"))
        assert any(p.kind == "uniqueness" for p in props_noc)
        src = module(
            "input wire p_val,\ninput wire [1:0] p_transid,\n"
            "output wire q_val,\noutput wire [1:0] q_transid",
            "// AUTOSVA t: p -in> q",
        )
        (props_plain,) = props_for(src)
        assert not any(p.kind == "uniqueness" for p in props_plain)

    def test_data_integrity_only_when_tracked(self):
        (props,) = props_for(load_fixture("noc_buffer"))
        assert any(p.kind == "data_integrity" for p in props)
        (props_untracked,) = props_for(load_fixture("fifo"))
        assert not any(p.kind == "data_integrity" for p in props_untracked)

    def test_xprop_covers_both_sides_and_guard(self):
        (props,) = props_for(VAL_ONLY)
        xprops = [p for p in props if p.kind == "xprop"]
        assert [p.name for p in xprops] == ["t_xprop_p", "t_xprop_q"]
        assert all(p.ltl_text.startswith("!$isunknown") for p in xprops)

    def test_xprop_concatenates_bound_attributes(self):
        (props,) = props_for(load_fixture("pipeline"))
        xp = next(p for p in props if p.name == "pipe_xprop_p")
        assert xp.ltl_text == (
            "pipe_in_val |-> !$isunknown({pipe_in_ack, pipe_in_transid, pipe_in_data})"
        )

    def test_names_follow_scheme(self):
        for name in FIXTURE_NAMES:
            bundle = gen_fixture(name)
            for p in bundle.properties:
                tname, rest = p.name.split("_", 1)
                assert any(t.tname == tname for t in bundle.transactions)
                assert rest.startswith(p.kind) or p.kind == "xprop"

    def test_bounded_option_rewrites_eventualities(self):
        (props,) = props_for(VAL_ONLY, opts=GenOptions(bounded=5))
        live = next(p for p in props if p.kind == "liveness")
        assert "##[0:5]" in live.ltl_text
        assert live.body.con.hi == 5
        assert "s_eventually" not in live.ltl_text

    def test_bounded_liveness_window_includes_request_cycle(self):
        # As in s_eventually and the bounded ack, a response in the request
        # cycle discharges the request.
        (props,) = props_for(VAL_ONLY, opts=GenOptions(bounded=1))
        live = next(p for p in props if p.kind == "liveness")
        assert live.ltl_text == "p_hsk |-> ##[0:1] (q_val)"
        trace = Trace({"p_val": [1, 0], "q_val": [1, 0]})
        assert eval_property(live, trace).outcome == HOLDS

    def test_bounded_ack_window_includes_request_cycle(self):
        # The bounded form keeps the unbounded reading: an ack in the request
        # cycle discharges it, in the text and in the evaluator alike.
        (props,) = props_for(load_fixture("pipeline"), opts=GenOptions(bounded=2))
        ack = next(p for p in props if p.kind == "ack_eventually")
        assert ack.ltl_text == "pipe_in_val |-> ##[0:2] (pipe_in_ack)"
        trace = Trace({"pipe_in_val": [1, 0, 0, 0], "pipe_in_ack": [1, 0, 0, 0]})
        assert eval_property(ack, trace).outcome == HOLDS


class TestDeterminismAndClosure:
    def test_generation_is_deterministic(self):
        a = props_for(load_fixture("pipeline"))
        b = props_for(load_fixture("pipeline"))
        assert [(p.name, p.directive, p.ltl_text) for p in a[0]] == [
            (p.name, p.directive, p.ltl_text) for p in b[0]
        ]

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_properties_reference_only_known_symbols(self, name):
        import re

        bundle = gen_fixture(name)
        pm = bundle.source_module
        known = set(pm.port_names())
        known |= {p.name for p in pm.parameters}
        known |= {t.tname.upper() + "_MAX_OUTSTANDING" for t in bundle.transactions}
        known |= {t.tname.upper() + "_CNT_WIDTH" for t in bundle.transactions}
        for group in bundle.aux:
            known |= {s.name for s in group.signals}
        sv_words = {
            "s_eventually", "and", "or", "not", "if", "else", "posedge", "disable", "iff",
        }
        for p in bundle.properties:
            idents = set(re.findall(r"(?<![\w$'])[A-Za-z_][A-Za-z0-9_$]*", p.ltl_text))
            unknown = idents - known - sv_words
            assert not unknown, f"{p.name} references undeclared {unknown}"
            # End-to-end form: flat interface/auxiliary names only, never a
            # hierarchical path into the DUT (expressions live behind wires).
            assert "." not in p.ltl_text, p.name


class TestLinkTransforms:
    def _assumes(self, props):
        return [p for p in props if p.directive == ASSUME]

    def test_standalone_is_identity(self):
        for props in props_for(load_fixture("mmu_stub")):
            out = apply_link_transforms(props)
            assert [(p.name, p.directive, p.ltl_text) for p in out] == [
                (p.name, p.directive, p.ltl_text) for p in props
            ]

    def test_as_mode_flips_every_assume(self):
        groups = props_for(load_fixture("mmu_stub"))
        for props in groups:
            out = apply_link_transforms(props, assert_inputs=True)
            for before, after in zip(props, out):
                assert after.ltl_text == before.ltl_text
                assert after.name == before.name
                if before.directive == ASSUME:
                    assert after.directive == ASSERT
                else:
                    assert after.directive == before.directive

    def test_assert_inputs_equivalent_to_as(self):
        # The --assert-inputs option and the link `as` flag flip the same properties.
        plain = gen_fixture("pipeline")
        via_option = gen_fixture("pipeline", tool="both", assert_inputs=True)
        linked = link_submodule_fts(gen_fixture("mmu_stub"), [(plain, True, True)])
        via_link = [p for p in linked.properties if p.name.startswith("pipeline_")]
        via_transform = apply_link_transforms(plain.properties, assert_inputs=True)
        assert [(p.name, p.directive) for p in via_transform] == [
            (p.name, p.directive) for p in via_option.properties
        ]
        assert [(f"pipeline_{p.name}", p.directive) for p in via_transform] == [
            (p.name, p.directive) for p in via_link
        ]

    def test_replace_gives_an_uncompiled_copy(self):
        (props,) = props_for(VAL_ONLY)
        live = next(p for p in props if p.kind == "liveness")
        eval_property(live, Trace({"p_val": [1, 0], "q_val": [1, 0]}))
        assert live.compiled is not None
        copy = live._replace(directive=ASSUME)
        assert copy.compiled is None
        assert (copy.name, copy.kind, copy.directive, copy.body) == (live.name, live.kind, ASSUME, live.body)
        assert live.directive == ASSERT

    def test_cover_never_transformed(self):
        (props,) = props_for(load_fixture("fifo"))
        out = apply_link_transforms(props, assert_inputs=True)
        covers = [p for p in out if p.kind == "ack_eventually"]
        assert covers[0].directive == COVER

    def test_every_fixture_assume_has_assert_twin(self):
        for name in FIXTURE_NAMES:
            bundle = gen_fixture(name)
            flipped = apply_link_transforms(bundle.properties, assert_inputs=True)
            for before, after in zip(bundle.properties, flipped):
                if before.directive == ASSUME:
                    assert (after.directive, after.ltl_text) == (ASSERT, before.ltl_text)
            assert not self._assumes(flipped)
