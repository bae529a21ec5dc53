import gc
import json
import re
import shutil
import subprocess
import sys
import tracemalloc

import pytest

from autoft import cli, signals
from autoft.diagnostics import GenerationError, UnsupportedToolError
from autoft.emit import (
    _WRITE_SLICE,
    emit_bind_file,
    emit_property_module,
    emit_tool_files,
    generate_bundle,
    generate_model,
    link_submodule_fts,
    write_bundle,
)
from autoft.models import MODEL_REGISTRY, check_bundle_on_model
from autoft.options import GenOptions
from autoft.parser import parse_module
from autoft.properties import apply_link_transforms, gen_properties, slot
from autoft.signals import synth_module_aux
from autoft.tracecheck import Trace, eval_property
from autoft.transactions import build_transactions

from conftest import FIXTURE_NAMES, GOLDEN, GOLDEN_MIXES, REPO, fixture_path, gen_fixture, load_fixture
from wellformed import (
    balanced, bound_twice, commented_declarations, declared_twice, labels, lone_eq, undeclared_clock_reset,
)

SV_KEYWORDS = {
    "module", "endmodule", "parameter", "localparam", "input", "output", "wire",
    "logic", "reg", "assign", "always", "begin", "end", "if", "else", "posedge",
    "negedge", "assert", "assume", "cover", "property", "endproperty", "disable",
    "iff", "and", "or", "not", "import", "bind", "s_eventually", "anyconst",
}


def declared_identifiers(text: str) -> set[str]:
    names = set()
    for m in re.finditer(r"\b(?:parameter|localparam)\s+(\w+)", text):
        names.add(m.group(1))
    for m in re.finditer(r"\b(?:input|output)\s+(?:wire\s+|logic\s+)?(?:\[[^\]]*\]\s*)?(\w+)", text):
        names.add(m.group(1))
    for m in re.finditer(r"\b(?:wire|logic)\s+(?:\[[^\]]*\]\s*)?(\w+)", text):
        names.add(m.group(1))
    for m in re.finditer(r"^\s*(\w+)\s*:\s*(?:assert|assume|cover)\b", text, re.MULTILINE):
        names.add(m.group(1))  # property labels
    for m in re.finditer(r"begin\s*:\s*(\w+)", text):
        names.add(m.group(1))
    for m in re.finditer(r"\bmodule\s+(\w+)", text):
        names.add(m.group(1))
    return names


def used_identifiers(text: str) -> set[str]:
    body = re.sub(r"//[^\n]*", "", text)
    body = re.sub(r"^\s*`.*$", "", body, flags=re.MULTILINE)  # compiler directives
    body = re.sub(r"\(\*.*?\*\)", "", body)
    body = re.sub(r"\$\w+", "", body)  # system functions
    body = re.sub(r"\b\d+'[bdh][0-9a-fA-FxXzZ_]+", "", body)  # sized literals
    return set(re.findall(r"\b[A-Za-z_][A-Za-z0-9_$]*\b", body)) - SV_KEYWORDS


class TestGoldenFiles:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_bundle_matches_golden_bytes(self, name):
        bundle = gen_fixture(name)
        for f in bundle.files():
            golden = (GOLDEN / name / f.name).read_bytes()
            assert f.text.encode() == golden, f"{f.name} drifted from golden"

    def test_assert_inputs_variant_matches_golden(self):
        bundle = gen_fixture("pipeline", tool="both", assert_inputs=True)
        golden = (GOLDEN / "pipeline_assert_inputs" / "pipeline_prop.sv").read_text()
        assert bundle.property_module.text == golden

    def test_assert_inputs_rewrites_assumes_and_parameter(self):
        plain = gen_fixture("pipeline").property_module.text
        flipped = gen_fixture("pipeline", tool="both", assert_inputs=True).property_module.text
        assert "parameter ASSERT_INPUTS = 0" in plain
        assert "parameter ASSERT_INPUTS = 1" in flipped
        assert "assume property" in plain.replace("symb_pipe_transid_stable: assume property", "")
        # Every transaction assumption is written out as an assertion; only
        # the symbolic-id rigidity assumption survives as an assume.
        residue = flipped.replace("symb_pipe_transid_stable: assume property", "")
        assert "assume property" not in residue


class TestPropertyModule:
    @pytest.mark.parametrize("opts", [{}, {"bounded": 3}, {"assert_inputs": True}],
                             ids=["default", "bounded", "assert_inputs"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_property_text_is_emitted_verbatim(self, name, opts):
        # The text the evaluator's nodes render to is the emitted body.
        bundle = gen_fixture(name, tool="both", **opts)
        head = f"@(posedge {bundle.opts.clk}) disable iff ({bundle.opts.rst_expr})"
        for p in bundle.properties:
            stmt = f"{p.name}: {p.directive} property ({head}\n    {p.body.render()});\n"
            assert stmt in bundle.property_module.text, p.name

    def test_all_files_end_with_newline_lf_only(self):
        for name in FIXTURE_NAMES:
            for f in gen_fixture(name).files():
                assert f.text.endswith("\n")
                assert "\r" not in f.text

    def test_empty_transaction_module(self):
        src = "module bare (\ninput wire clk,\ninput wire rst_n,\ninput wire x\n);\nendmodule\n"
        bundle = generate_bundle(src, "bare.sv", GenOptions())
        text = bundle.property_module.text
        assert "ASSERT_INPUTS" in text
        assert "assert property" not in text
        assert "assume property" not in text
        assert bundle.properties == []

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_emitted_text_is_symbol_closed(self, name):
        text = gen_fixture(name).property_module.text
        unknown = used_identifiers(text) - declared_identifiers(text)
        assert not unknown, f"undeclared identifiers in {name}: {unknown}"

    def test_xprop_block_guarded(self):
        text = gen_fixture("fifo").property_module.text
        guarded = re.search(r"`ifdef XPROP\n(.*?)`endif", text, re.DOTALL)
        assert guarded and "xprop" in guarded.group(1)
        before = text.split("`ifdef XPROP")[0]
        assert "xprop" not in before

    def test_assumes_wrapped_in_assert_inputs_generate(self):
        text = gen_fixture("pipeline").property_module.text
        block = re.search(
            r"if \(ASSERT_INPUTS\) begin : pipe_stability_asrt\n"
            r"    pipe_stability: assert property(.*?)"
            r"end else begin : pipe_stability_assm\n"
            r"    pipe_stability: assume property(.*?)end",
            text,
            re.DOTALL,
        )
        assert block
        assert block.group(1).strip().rstrip(";") == block.group(2).strip().rstrip(";")

    def test_symbolic_rigidity_stays_an_assumption(self):
        # The free symbolic id must remain constrained even when options flip
        # every transaction assumption into an assertion.
        text = gen_fixture("noc_buffer", tool="both", assert_inputs=True).property_module.text
        assert "symb_buf_transid_stable: assume property" in text

    def test_explicit_decl_becomes_port(self):
        src = (
            "// AUTOSVA t: a -in> b\n// AUTOSVA input [1:0] a_transid\n"
            "// AUTOSVA input [1:0] b_transid\n"
            "module m (\ninput wire clk,\ninput wire rst_n,\n"
            "input wire a_val,\noutput wire b_val\n);\nendmodule\n"
        )
        bundle = generate_bundle(src, "m.sv", GenOptions())
        assert "input wire [1:0] a_transid" in bundle.property_module.text

    def test_clock_reset_overrides(self):
        bundle = gen_fixture("fifo")  # defaults
        assert "@(posedge clk) disable iff (!rst_n)" in bundle.property_module.text
        src = load_fixture("fifo").replace("clk", "clock_i").replace("rst_n", "reset")
        custom = generate_bundle(
            src, "fifo.sv", GenOptions(clk="clock_i", rst="reset", rst_active_low=False)
        )
        assert "@(posedge clock_i) disable iff (reset)" in custom.property_module.text


class TestBindFile:
    def test_fifo_bind_golden_shape(self):
        text = gen_fixture("fifo").bind_file.text
        assert "bind fifo fifo_prop #(" in text
        assert ".WIDTH(WIDTH)" in text and ".DEPTH(DEPTH)" in text
        assert text.rstrip().endswith("fifo_prop_i (.*);")

    def test_parameterless_module_binds_flat(self):
        pm = parse_module("module m (\ninput wire a\n);\nendmodule\n")
        text = emit_bind_file(pm).text
        assert "bind m m_prop m_prop_i (.*);" in text

    def test_empty_port_list_still_binds(self):
        pm = parse_module("module m ();\nendmodule\n")
        text = emit_bind_file(pm).text
        assert "bind m m_prop m_prop_i (.*);" in text


class TestToolFiles:
    def test_sby_has_prove_and_liveness_tasks(self):
        text = gen_fixture("fifo").tool_files[1].text
        assert "[tasks]" in text and "prove" in text and "live" in text
        assert "mode prove" in text and "mode live" in text
        assert "read -formal -sv fifo.sv fifo_prop.sv fifo_bind.svh" in text

    def test_bounded_sby_drops_live_task(self):
        bundle = gen_fixture("fifo", tool="symbiyosys", bounded=8)
        text = bundle.tool_files[0].text
        assert "mode prove" in text
        assert "live" not in text

    def test_bounded_sby_bytes(self, tmp_path):
        assert cli.main(["gen", str(fixture_path("fifo")), "--bounded", "3", "-o", str(tmp_path)]) == 0
        assert (tmp_path / "fifo" / "fifo.sby").read_bytes() == (
            b"# SymbiYosys configuration for fifo. Machine generated; do not edit.\n"
            b"\n[options]\nmode prove\ndepth 20\n"
            b"\n[engines]\nsmtbmc\n"
            b"\n[script]\nread -formal -sv fifo.sv fifo_prop.sv fifo_bind.svh\nprep -top fifo\n"
            b"\n[files]\nfifo.sv\nfifo_prop.sv\nfifo_bind.svh\n"
        )

    def test_tcl_clock_and_reset(self):
        text = gen_fixture("fifo").tool_files[0].text
        assert "clock clk" in text
        assert "reset -expression {!rst_n}" in text
        assert "analyze -sv12 fifo.sv fifo_prop.sv fifo_bind.svh" in text

    def test_unsupported_tool_raises(self):
        pm = parse_module(load_fixture("fifo"))
        with pytest.raises(UnsupportedToolError):
            emit_tool_files(pm, "vcs", GenOptions())

    def test_no_absolute_paths_anywhere(self):
        for name in FIXTURE_NAMES:
            for f in gen_fixture(name).files():
                assert "/root" not in f.text
                assert "fixtures/" not in f.text


class TestDeterminism:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_regeneration_is_byte_identical(self, name):
        first = {f.name: f.text for f in gen_fixture(name).files()}
        second = {f.name: f.text for f in gen_fixture(name).files()}
        assert first == second

    @pytest.mark.parametrize("text", [
        # characters of 2, 3 and 4 bytes on both sides of the first slice boundary, and a CR that stays
        "a" * (_WRITE_SLICE - 1) + "\u00e9\u20ac\U0001F600\r\n" * 3,
        "",
        "\u00fc" * _WRITE_SLICE,
    ], ids=["straddling", "empty", "one_slice"])
    def test_sliced_write_matches_write_text(self, text, tmp_path):
        bundle = gen_fixture("fifo")
        bundle = bundle._replace(property_module=bundle.property_module._replace(text=text))
        target = write_bundle(bundle, tmp_path / "sliced")
        reference = tmp_path / "reference"
        reference.write_text(text, encoding="utf-8", newline="\n")
        assert (target / bundle.property_module.name).read_bytes() == reference.read_bytes()

    def test_write_bundle_idempotent(self, tmp_path):
        import hashlib

        bundle = gen_fixture("fifo")
        d1 = write_bundle(bundle, tmp_path / "a")
        d2 = write_bundle(gen_fixture("fifo"), tmp_path / "b")
        h1 = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in d1.iterdir()}
        h2 = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in d2.iterdir()}
        assert h1 == h2


def _find_sv_linter():
    for tool, args in (
        ("verilator", ["--lint-only", "-sv", "--timing", "-Wno-fatal"]),
        ("slang", ["--lint-only"]),
    ):
        if shutil.which(tool):
            return tool, args
    return None


@pytest.mark.skipif(_find_sv_linter() is None, reason="no SystemVerilog linter installed")
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_property_module_lints(name, tmp_path):
    import subprocess

    tool, args = _find_sv_linter()
    bundle = gen_fixture(name)
    f = tmp_path / bundle.property_module.name
    f.write_text(bundle.property_module.text)
    result = subprocess.run([tool, *args, str(f)], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


class TestOptions:
    def test_bounded_must_be_positive(self):
        with pytest.raises(ValueError):
            GenOptions(bounded=0)

    def test_max_outstanding_must_be_positive(self):
        with pytest.raises(ValueError):
            GenOptions(max_outstanding=0)
        with pytest.raises(ValueError):
            GenOptions(max_outstanding_overrides={"t": 0})

    def test_instances_do_not_share_overrides(self):
        given = {"t": 2}
        a, b, c = GenOptions(), GenOptions(), GenOptions(max_outstanding_overrides=given)
        a.max_outstanding_overrides["t"] = 3
        c.max_outstanding_overrides["t"] = 4
        assert b.max_outstanding_overrides == {}
        assert given == {"t": 2}

    def test_per_transaction_outstanding_override(self):
        bundle = gen_fixture("mmu_stub", tool="both",
                             max_outstanding_overrides={"ptw": 4})
        text = bundle.property_module.text
        assert "parameter PTW_MAX_OUTSTANDING = 4" in text
        assert "parameter MMU_MAX_OUTSTANDING = 8" in text

    def test_reset_polarity_expression(self):
        assert GenOptions().rst_expr == "!rst_n"
        assert GenOptions(rst="reset", rst_active_low=False).rst_expr == "reset"


class TestLinking:
    def _parent_child(self, as_flag=False):
        parent = gen_fixture("mmu_stub")
        child = gen_fixture("pipeline")
        return link_submodule_fts(parent, [(child, True, as_flag)]), parent, child

    def test_am_adds_bind_and_sources(self):
        linked, parent, child = self._parent_child()
        assert "bind pipeline pipeline_prop pipeline_prop_i (.*);" in linked.property_module.text
        sby = [f for f in linked.tool_files if f.name.endswith(".sby")][0]
        assert "pipeline_prop.sv" in sby.text
        # parent bundle object untouched
        assert "bind pipeline" not in parent.property_module.text

    def test_as_flag_overrides_assert_inputs_parameter(self):
        linked, _, _ = self._parent_child(as_flag=True)
        assert "bind pipeline pipeline_prop #(.ASSERT_INPUTS(1)) pipeline_prop_i (.*);" in (
            linked.property_module.text
        )

    def test_binds_go_once_before_the_final_endmodule(self):
        linked, parent, _ = self._parent_child(as_flag=True)
        assert linked.property_module.text == parent.property_module.text.removesuffix("endmodule\n") + (
            "// ---- linked submodule testbenches ----\n"
            "bind pipeline pipeline_prop #(.ASSERT_INPUTS(1)) pipeline_prop_i (.*);\n\nendmodule\n"
        )
        assert (linked.properties, linked.warnings) == (parent.properties, parent.warnings)

    def test_no_am_returns_parent_unchanged(self):
        parent = gen_fixture("mmu_stub")
        child = gen_fixture("pipeline")
        # A child without am is not bound, so repeating a module there is no duplicate-module.
        linked = link_submodule_fts(parent, [(child, False, False), (child, False, False), (parent, False, False)])
        assert linked is parent

    def test_transaction_names_may_repeat_across_modules(self):
        # fifo2 declares fifo's transaction `fifo` again; each property module is its own scope.
        linked = _link_shared_tname()
        assert "bind fifo2 fifo2_prop fifo2_prop_i (.*);" in linked.property_module.text
        sby = [f for f in linked.tool_files if f.name.endswith(".sby")][0]
        assert sby.text.endswith("[files]\nfifo.sv\nfifo_prop.sv\nfifo_bind.svh\nfifo2.sv\nfifo2_prop.sv\n")

    @pytest.mark.parametrize("name", ["leaf", "fifo"])
    def test_a_child_linked_twice_is_a_duplicate_module(self, name):
        child = generate_bundle(LEAF, "leaf.sv", GenOptions()) if name == "leaf" else gen_fixture("fifo")
        with pytest.raises(GenerationError) as exc:
            link_submodule_fts(gen_fixture("mmu_stub"), [(child, True, False), (child, True, True)])
        [diag] = exc.value.diagnostics
        assert diag.code == "duplicate-module"
        assert f"module '{name}' is linked 2 times" in diag.message

    def test_the_parent_as_its_own_child_is_a_duplicate_module(self):
        leaf = generate_bundle(LEAF, "leaf.sv", GenOptions())
        with pytest.raises(GenerationError) as exc:
            link_submodule_fts(leaf, [(leaf, True, False)])
        assert [(d.code, "'leaf'" in d.message) for d in exc.value.diagnostics] == [("duplicate-module", True)]


def _module(ports: str, annotations: str) -> str:
    return f"{annotations}\nmodule m (\ninput wire clk,\ninput wire rst_n,\n{ports}\n);\nendmodule\n"


# A declared attribute is a port of the property module: inputs that used to
# emit a 1-bit struct, or a wire and a port of one name.
TYPED_DECLS = _module(
    "input wire a_val,\ninput wire [1:0] a_id,\noutput wire b_val,\noutput wire [1:0] b_id",
    "// AUTOSVA t: a -in> b\n// AUTOSVA input dat_t a_data\n// AUTOSVA input dat_t b_data;\n"
    "// AUTOSVA [1:0] a_transid = a_id\n// AUTOSVA [1:0] b_transid = b_id",
)
TYPED_DECL_VS_PORT = _module(
    "input wire a_val,\ninput wire [7:0] a_data,\noutput wire b_val",
    "// AUTOSVA t: a -in> b\n// AUTOSVA input dat_t b_data",
)
DECL_AND_ASSIGN = _module(
    "input wire a_val,\noutput wire b_val,\noutput wire busy",
    "// AUTOSVA t: a -in> b\n// AUTOSVA input a_ack\n// AUTOSVA a_ack = !busy",
)

# Names the property module declares that clash with a header's, or with each other's.
FIFO_WITH = {
    name: load_fixture("fifo").replace("parameter DEPTH = 2", f"parameter DEPTH = 2,\n    parameter {name} = 4")
    for name in ("FIFO_MAX_OUTSTANDING", "FIFO_CNT_WIDTH", "ASSERT_INPUTS")
}
CASE_TWINS = _module(
    "input wire x_val,\noutput wire y_val,\ninput wire u_val,\noutput wire v_val",
    "// AUTOSVA a: x -in> y\n// AUTOSVA A: u -in> v",
)
# A module without annotations, and fifo again under another name: its transaction is named `fifo` too.
LEAF = "module leaf (\ninput wire clk,\ninput wire rst_n,\ninput wire a\n);\nendmodule\n"
FIFO2 = load_fixture("fifo").replace("module fifo", "module fifo2")


def _link_shared_tname():
    return link_submodule_fts(gen_fixture("fifo"), [(generate_bundle(FIFO2, "fifo2.sv", GenOptions()), True, False)])


# Ports named like a label the property module declares: a property's, an assumed
# property's generate block, and a symbolic id's `_stable` assumption.
LABEL_PORTS = {
    port: load_fixture(name).replace("rst_n,", f"rst_n,\n    input  wire {port},", 1)
    for name, port in (("fifo", "fifo_liveness"), ("pipeline", "pipe_stability_asrt"),
                       ("noc_buffer", "symb_buf_transid_stable"))
}


def _staged(src: str, path: str, opts: GenOptions):
    """(pm, txns, aux, each transaction's properties) by one public call per stage, as
    `perfbench/layers.py:Staged.bundle` makes them."""
    pm = parse_module(src, path)
    txns, _ = build_transactions(pm)
    aux, _ = synth_module_aux(txns, pm, opts)
    props = [apply_link_transforms(gen_properties(t, a, opts, []), assert_inputs=opts.assert_inputs)
             for t, a in zip(txns, aux)]
    return pm, txns, aux, props


def _staged_prop(src: str, path: str, opts: GenOptions) -> str:
    """`<dut>_prop.sv` made by one public call per stage."""
    pm, txns, aux, props = _staged(src, path, opts)
    return emit_property_module(pm, txns, aux, props, opts).text


@pytest.mark.parametrize("src, mix", [
    *(pytest.param(load_fixture(name), mix, id=f"{name}-{mix}") for name in FIXTURE_NAMES for mix in GOLDEN_MIXES),
    *(pytest.param(LABEL_PORTS[port], "check", id=f"port_{port}")
      for port in ("fifo_liveness", "pipe_stability_asrt")),
])
def test_staged_public_calls_write_what_gen_writes(src, mix, tmp_path):
    # Synthesis renames a clashing label, so the public calls need no label pass of their own.
    flags, opts = GOLDEN_MIXES[mix]
    path = tmp_path / "in.sv"
    path.write_text(src, encoding="utf-8")
    assert cli.main(["gen", str(path), *flags, "-o", str(tmp_path / "o")]) == 0
    dut = parse_module(src).module_name
    assert _staged_prop(src, str(path), opts) == (tmp_path / "o" / dut / f"{dut}_prop.sv").read_text(encoding="utf-8")


# Transactions that repeat shapes, so that later ones are filled in from a template: in one shape a role name
# that prefixes others (`x_val`, `x_val_val`, `x_val_hsk`), a namer-renamed wire (`w_val_1`, since the port
# `w_val` is taken), `$` in names and a renamed label (`t4_liveness`, a port); a flag `stable` and an
# expression `stable` in one direction; two transactions on one interface; tracked outgoing ones and active ones.
REPEATED_SHAPES = _module(
    "input wire x_val,\noutput wire x_ack,\noutput wire x_val_val,\n"
    "input wire w_val,\ninput wire w_go,\noutput wire w_ack,\noutput wire w_val_val,\n"
    "input wire a$b_val,\noutput wire a$b_ack,\noutput wire c$_val,\n"
    "input wire l_val,\noutput wire l_ack,\noutput wire o_val,\ninput wire t4_liveness,\n"
    + "".join(f"input wire {i}_val,\noutput wire {i}_ack,\ninput wire [7:0] {i}_data,\n"
              f"output wire {i}r_val,\noutput wire [7:0] {i}r_data,\n" for i in "sfeg")
    + "input wire m_val,\noutput wire m_ack,\noutput wire n_val,\ninput wire n_ack,\n"
    "output wire k_val,\ninput wire k_ack,\n"
    + "".join(f"output wire {i}_val,\ninput wire {i}_ack,\noutput wire [3:0] {i}_transid,\n"
              f"output wire [7:0] {i}_data,\ninput wire {i}r_val,\ninput wire [3:0] {i}r_transid,\n"
              f"input wire [7:0] {i}r_data,\n" for i in "hj")
    + "input wire u_val,\noutput wire ur_val,\ninput wire u_active,\ninput wire v_val,\noutput wire vr_val,\n"
    "input wire busy",
    "/*AUTOSVA\nt1: x -in> x_val\nt2: w -in> w_val\nw_val = w_go\nt$3: a$b -in> c$\nt4: l -in> o\n"
    "t5: s -in> sr\ns_stable = 1'b1\nt5b: f -in> fr\nf_stable = 1\n"
    "t6: e -in> er\ne_stable = e_data\nt6b: g -in> gr\ng_stable = g_data\n"
    "t7: m -in> n\nt8: m -in> k\n"
    "t9: h -out> hr\nh_transid_unique = 1'b1\nt10: j -out> jr\nj_transid_unique = 1'b1\n"
    "t11: u -in> ur\nt12: v -in> vr\nv_active = busy\n*/",
)


def _own_trees_prop(model) -> str:
    """`<dut>_prop.sv` with every property rendered from its own transaction's `gen_properties` trees."""
    pm, txns, aux, _, opts = model
    text = emit_property_module(pm, txns, aux, [], opts).text
    head = f"@(posedge {opts.clk}) disable iff ({opts.rst_expr})"

    def render(p):
        body = f"{head}\n    {p.body.render()}"
        if p.directive != "assume":
            return f"{p.name}: {p.directive} property ({body});"
        return (f"if (ASSERT_INPUTS) begin : {p.name}_asrt\n    {p.name}: assert property ({body});\n"
                f"end else begin : {p.name}_assm\n    {p.name}: assume property ({body});\nend")

    blocks = [text[:text.index("\n\n// ---- transaction")]]
    for t, a in zip(txns, aux):
        props = apply_link_transforms(gen_properties(t, a, opts, []), assert_inputs=opts.assert_inputs)
        arrow = "-in>" if t.direction == "incoming" else "-out>"
        lines = ["", "", f"// ---- transaction {t.tname}: {t.p.name} {arrow} {t.q.name} ----", ""]
        for signal in a.signals:
            lines += signal.declare(opts)
        for p in props:
            lines += ["", render(p)] if p.kind != "xprop" else []
        xprops = [render(p) for p in props if p.kind == "xprop"]
        lines += ["", "`ifdef XPROP", *xprops, "`endif"] if xprops else []
        blocks.append("\n".join(lines))
    return "".join(blocks) + "\n\nendmodule\n"


@pytest.mark.parametrize("src, opts", [
    *(pytest.param(load_fixture(name), opts, id=f"{name}-{mix}")
      for name in FIXTURE_NAMES for mix, (_, opts) in GOLDEN_MIXES.items()),
    *(pytest.param(REPEATED_SHAPES, opts, id=f"repeated_shapes-{mix}") for mix, opts in [
        *((mix, opts) for mix, (_, opts) in GOLDEN_MIXES.items()),
        ("bounded_assert_inputs", GenOptions(bounded=3, assert_inputs=True))]),
])
def test_shape_templates_write_what_each_transactions_own_trees_render(src, opts):
    model = generate_model(src, "in.sv", opts)
    (_, pieces), *_ = model.files()
    assert "".join(pieces) == _own_trees_prop(model)


@pytest.mark.parametrize("src, opts", [
    pytest.param(src, opts, id=f"{name}-{mix}")
    for name, src in [*((name, load_fixture(name)) for name in FIXTURE_NAMES), ("repeated_shapes", REPEATED_SHAPES)]
    for mix, (_, opts) in GOLDEN_MIXES.items()
])
def test_staged_property_calls_make_what_check_makes(src, opts):
    # The staged calls still end in `apply_link_transforms`, which `check`'s own path no longer makes.
    def fields(props):
        return [(p.name, p.kind, p.directive, p.body.render()) for p in props]

    *_, staged = _staged(src, "in.sv", opts)
    assert fields(p for props in staged for p in props) == fields(generate_model(src, "in.sv", opts).properties())


def test_repeated_shapes_header_fills_templates():
    model = generate_model(REPEATED_SHAPES, "in.sv", GenOptions())
    codes = [d.code for d in model.warnings]
    assert codes.count("name-collision-renamed") == 2 and "explicit-overrides-port" in codes  # w_val_1, t4_liveness
    shapes = [id(a.shape) for a in model.aux]
    # Transactions per shape. A shape covers how each role is bound, so t2 (its valid is assigned), t7 and t8
    # (t8 shares t7's request handshake) and t11 and t12 (t12's activity is assigned) are each alone in theirs.
    assert [shapes.count(s) for s in dict.fromkeys(shapes)] == [3, 1, 2, 2, 1, 1, 2, 1, 1]
    text = "".join(model.files()[0][1])
    assert "t4_liveness_1: assert" in text and "t1_liveness: assert" in text
    assert "w_hsk |-> s_eventually (w_val_val)" in text and "w_val_1 ##[0:$] w_ack" in text
    assert "a$b_val |-> !$isunknown(a$b_ack)" in text


def _repeated(n: int) -> str:
    """A header of `n` transactions in two shapes: even ones on ports alone, odd ones with an assigned ack."""
    return _module(",\n".join(f"input wire a{i}_val,\noutput wire a{i}_ack,\noutput wire b{i}_val" for i in range(n)),
                   "\n".join(f"// AUTOSVA t{i}: a{i} -in> b{i}" + f"\n// AUTOSVA a{i}_ack = a{i}_val" * (i % 2)
                             for i in range(n)))


@pytest.mark.parametrize("src, txns, shapes", [(REPEATED_SHAPES, 14, 9), (_repeated(40), 40, 2)])
def test_gen_builds_each_shapes_trees_once_and_binds_no_transaction(src, txns, shapes, monkeypatch, tmp_path,
                                                                      capsys):
    built, slotted = [], signals._slotted  # (key, naming function) of each call of the builder
    monkeypatch.setattr(signals, "_slotted", lambda key, name: built.append((key, name)) or slotted(key, name))
    path = tmp_path / "in.sv"
    path.write_text(src, encoding="utf-8")
    assert cli.main(["gen", str(path), "--tool", "both", "-o", str(tmp_path / "o")]) == 0
    assert len(built) == len({key for key, _ in built}) == shapes and {name for _, name in built} == {slot}
    model = generate_model(src, "in.sv", GenOptions())
    assert len(model.txns) == txns and len({id(a.shape) for a in model.aux}) == shapes and len(built) == 2 * shapes
    # Each call of `properties()` builds every transaction's trees over its own names, once.
    bodies = [p.body for p in model.properties()]
    assert len(built) == 2 * shapes + txns and slot not in {name for _, name in built[2 * shapes:]}
    assert [p.body for p in model.properties()] == bodies and len(built) == 2 * shapes + 2 * txns
    last = model.aux[-1]
    assert last.shape.bind(last.names)[0]["p_hsk"].name == model.txns[-1].p.name + "_hsk"
    assert len(built) == 2 * shapes + 2 * txns + 1  # `bind` builds the transaction's trees once more


def test_check_builds_no_trees_once_the_properties_are_made(monkeypatch):
    built, slotted = [], signals._slotted  # a shape keeps the builder it was made with
    monkeypatch.setattr(signals, "_slotted", lambda key, name: built.append(key) or slotted(key, name))
    model = generate_model(load_fixture("noc_buffer"), "noc_buffer.sv", GenOptions())
    props = model.properties()
    made = len(built)
    report = check_bundle_on_model(model.txns, props, MODEL_REGISTRY["noc_buffer"]())
    assert report.entries and not report.violated() and len(built) == made


def test_transactions_of_one_shape_evaluate_with_their_own_limit_and_ranges():
    src = _module("input wire a_val,\ninput wire [1:0] a_transid,\ninput wire [3:0] a_data,\n"
                  "output wire b_val,\noutput wire [1:0] b_transid,\noutput wire [3:0] b_data,\n"
                  "input wire c_val,\ninput wire [1:0] c_transid,\ninput wire [7:0] c_data,\n"
                  "output wire d_val,\noutput wire [1:0] d_transid,\noutput wire [7:0] d_data",
                  "/*AUTOSVA\nt0: a -in> b\nt1: c -in> d\n*/")
    model = generate_model(src, "m.sv", GenOptions(max_outstanding_overrides={"t0": 1}))
    assert model.aux[0].shape is model.aux[1].shape
    # Two accepted requests, the first carrying 0x1f, then one response carrying 0x1f.
    columns = {}
    for t, p, q in (("t0", "a", "b"), ("t1", "c", "d")):
        columns |= {f"{p}_val": [1, 1, 0], f"{p}_transid": [0, 1, 0], f"{p}_data": [0x1f, 0, 0],
                    f"{q}_val": [0, 0, 1], f"{q}_transid": [0, 0, 0], f"{q}_data": [0, 0, 0x1f],
                    f"symb_{t}_transid": [0, 0, 0]}
    trace = Trace(columns)
    verdicts = {p.name: eval_property(p, trace) for p in model.properties()}
    for name in ("t0_counter_no_underflow", "t0_data_integrity"):
        assert (verdicts[name].outcome, verdicts[name].cycle) == ("violated", 2)
    for name in ("t1_counter_no_underflow", "t1_data_integrity"):
        assert verdicts[name].outcome == "holds"


# A parent whose last port ends in `endmodule`, so that its port list does too.
MMU_DBG_ENDMODULE = load_fixture("mmu_stub").replace(
    "ptw_res_tag\n);", "ptw_res_tag,\n    input  wire            dbg_endmodule\n);")

# The option mixes every emitted module is checked under.
OPTION_MIXES = {
    "default": {},
    "bounded_1": {"bounded": 1},
    "bounded_3": {"bounded": 3},
    "assert_inputs": {"assert_inputs": True},
    "assert_inputs_bounded": {"assert_inputs": True, "bounded": 3},
    "active_high_reset": {"clk": "clock_i", "rst": "reset", "rst_active_low": False},
    "max_outstanding_1": {"max_outstanding": 1},
}


def _emitted_modules():
    for name in FIXTURE_NAMES:
        for mix, kw in OPTION_MIXES.items():
            src = load_fixture(name)
            if mix == "active_high_reset":
                src = src.replace("clk", "clock_i").replace("rst_n", "reset")
            yield f"{name}-{mix}", lambda src=src, kw=kw: generate_bundle(src, "m.sv", GenOptions(**kw))
    yield "link", lambda: link_submodule_fts(gen_fixture("mmu_stub"), [(gen_fixture("pipeline"), True, True)])
    yield "link_dbg_endmodule", lambda: link_submodule_fts(generate_bundle(MMU_DBG_ENDMODULE, "m.sv", GenOptions()),
                                                           [(gen_fixture("pipeline"), True, True)])
    yield "link_shared_tname", _link_shared_tname
    for label, src in (("typed", TYPED_DECLS), ("typed_vs_port", TYPED_DECL_VS_PORT),
                       ("decl_and_assign", DECL_AND_ASSIGN),
                       ("fifo_max_outstanding", FIFO_WITH["FIFO_MAX_OUTSTANDING"]),
                       ("fifo_cnt_width", FIFO_WITH["FIFO_CNT_WIDTH"]), ("case_twins", CASE_TWINS),
                       *((f"port_{port}", src) for port, src in LABEL_PORTS.items())):
        yield label, lambda src=src: generate_bundle(src, "m.sv", GenOptions())


EMITTED = dict(_emitted_modules())


@pytest.mark.parametrize("label", EMITTED)
def test_each_name_declared_once(label):
    bundle = EMITTED[label]()
    text = bundle.property_module.text
    assert declared_twice(text) == []
    assert bound_twice(text + bundle.bind_file.text) == []
    assert balanced(text)
    assert lone_eq(text) == []
    assert commented_declarations(text) == []
    assert undeclared_clock_reset(text) == []


class TestNames:
    def test_a_clashing_counter_parameter_is_renamed_and_keeps_its_override(self):
        bundle = generate_bundle(FIFO_WITH["FIFO_MAX_OUTSTANDING"], "m.sv",
                                 GenOptions(max_outstanding_overrides={"fifo": 3}))
        text = bundle.property_module.text
        assert "parameter FIFO_MAX_OUTSTANDING = 4," in text
        assert "parameter FIFO_MAX_OUTSTANDING_1 = 3\n" in text
        assert "localparam FIFO_CNT_WIDTH = $clog2(FIFO_MAX_OUTSTANDING_1 + 1);" in text
        [renamed] = [d for d in bundle.warnings if d.code == "name-collision-renamed"]
        assert "'FIFO_MAX_OUTSTANDING'" in renamed.message and "'FIFO_MAX_OUTSTANDING_1'" in renamed.message

    def test_transactions_differing_in_case_get_their_own_counter_parameters(self):
        text = generate_bundle(CASE_TWINS, "m.sv", GenOptions()).property_module.text
        for name in ("A_MAX_OUTSTANDING", "A_MAX_OUTSTANDING_1"):
            assert f"parameter {name} = 8" in text
        for name, limit in (("A_CNT_WIDTH", "A_MAX_OUTSTANDING"), ("A_CNT_WIDTH_1", "A_MAX_OUTSTANDING_1")):
            assert f"localparam {name} = $clog2({limit} + 1);" in text

    @pytest.mark.parametrize("port, base, renamed", [
        ("fifo_liveness", "fifo_liveness", "fifo_liveness_1: assert property"),
        ("pipe_stability_asrt", "pipe_stability", "if (ASSERT_INPUTS) begin : pipe_stability_1_asrt"),
        ("symb_buf_transid_stable", "symb_buf_transid", "symb_buf_transid_1_stable: assume property"),
    ], ids=list(LABEL_PORTS))
    def test_a_port_named_like_a_label_renames_the_label(self, port, base, renamed):
        bundle = generate_bundle(LABEL_PORTS[port], "m.sv", GenOptions())
        assert renamed in bundle.property_module.text
        assert [d.message for d in bundle.warnings if d.code == "name-collision-renamed"] == [
            f"generated name '{base}' collides, renamed to '{base}_1'"]

    def test_an_asserted_input_property_has_no_block_to_clash(self):
        bundle = generate_bundle(LABEL_PORTS["pipe_stability_asrt"], "m.sv", GenOptions(assert_inputs=True))
        assert "pipe_stability: assert property" in bundle.property_module.text
        assert "name-collision-renamed" not in [d.code for d in bundle.warnings]

    @pytest.mark.parametrize("src", [
        FIFO_WITH["ASSERT_INPUTS"],
        _module("input wire a_val,\noutput wire b_val,\ninput wire ASSERT_INPUTS", "// AUTOSVA t: a -in> b"),
    ], ids=["parameter", "port"])
    def test_assert_inputs_is_reserved(self, src):
        with pytest.raises(GenerationError) as exc:
            generate_bundle(src, "m.sv", GenOptions())
        assert [d.code for d in exc.value.diagnostics if d.is_error] == ["reserved-name"]

    @pytest.mark.parametrize("kw, codes", [
        (dict(clk="clock"), ["unknown-clock"]),
        (dict(rst="reset", rst_active_low=False), ["unknown-reset"]),
        (dict(clk="WIDTH", rst="in_hsk"), ["unknown-clock", "unknown-reset"]),
        (dict(clk="rst_n"), ["clock-is-reset"]),
    ], ids=["clock", "reset", "parameter_and_aux_name", "clock_is_reset"])
    def test_clock_and_reset_must_be_ports(self, kw, codes):
        # Else the module would clock on, or be reset by, a name that it does not declare, or by its own reset.
        with pytest.raises(GenerationError) as exc:
            generate_bundle(load_fixture("fifo"), "fifo.sv", GenOptions(**kw))
        assert [d.code for d in exc.value.diagnostics if d.is_error] == codes


def test_wellformed_finds_an_undeclared_clock_or_reset():
    text = ("module m_prop (\n    input wire clk,\n    input wire rst_n\n);\n"
            "always @(posedge clk) begin\n    if (!rst_n)\n        c <= '0;\nend\n"
            "a: assert property (@(posedge clock) disable iff (!reset) x);\n"
            "b: assert property (@(posedge clk) disable iff (rst_n) y);\n"
            "c: assume property (@( posedge clk_i ) $stable(s));\nendmodule\n")
    assert undeclared_clock_reset(text) == ["clk_i", "clock", "reset"]


def test_wellformed_counts_labels_of_the_module_scope():
    text = ('a: assert property (x);\nif (P) begin : b\n    a: assume property (y);\nend else begin : c\n'
            '    a: assume property (y);\nend\nalways @(posedge clk) begin\nend\nwire b = "end"; // d: cover\n')
    assert labels(text) == ["a", "b", "c"]
    assert declared_twice(text) == ["b"]


def _noc_buffers(n: int) -> str:
    """A header with `n` copies of noc_buffer's annotation block and ports, `buf` renamed `buf<i>` in copy i."""
    src = load_fixture("noc_buffer")
    notes = src[src.index("/*AUTOSVA") + len("/*AUTOSVA"):src.index("*/")]
    ports = ",\n".join(re.findall(r"^\s*((?:input|output)\s.*\bbuf_\w+),?$", src, re.M))
    notes, ports = ([re.sub(r"\bbuf", f"buf{i}", text) for i in range(n)] for text in (notes, ports))
    return ("/*AUTOSVA" + "".join(notes) + "*/\nmodule wide #(parameter DW = 8) (\n"
            "input wire clk,\ninput wire rst_n,\n" + ",\n".join(ports) + "\n);\nendmodule\n")


def test_property_module_text_is_held_about_twice_at_most():
    # One block per transaction, then their join: a list of every line of the module peaks near 3x the text.
    opts = GenOptions()
    pm = parse_module(_noc_buffers(300), "wide.sv")
    txns, _ = build_transactions(pm)
    aux, _ = synth_module_aux(txns, pm, opts)
    props = [gen_properties(t, a, opts, []) for t, a in zip(txns, aux)]
    assert len(txns) == 300
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = emit_property_module(pm, txns, aux, props, opts).text
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 2.3 * len(text)


def _peak(fn) -> int:
    """The `tracemalloc` peak, in bytes, of calling `fn`."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gen_never_holds_the_property_module(tmp_path, capsys):
    # `gen` writes each transaction's block as it is made, so its peak is below the in-memory bundle's
    # by more than the text of the property module it writes.
    src = tmp_path / "wide.sv"
    src.write_text(_noc_buffers(300), encoding="utf-8")
    argv = ["gen", str(src), "--tool", "both", "-o", str(tmp_path / "cli")]
    assert cli.main(argv) == 0  # builds the argument parser, which every later call reuses
    in_memory = _peak(lambda: write_bundle(generate_bundle(src.read_text(encoding="utf-8"), str(src),
                                                           GenOptions(tool="both")), tmp_path / "bundle"))
    streamed = _peak(lambda: cli.main(argv))
    written = (tmp_path / "cli" / "wide" / "wide_prop.sv").stat().st_size
    assert (tmp_path / "bundle" / "wide" / "wide_prop.sv").read_bytes() == (tmp_path / "cli" / "wide" /
                                                                            "wide_prop.sv").read_bytes()
    assert in_memory - streamed >= written, (in_memory, streamed, written)


def test_wellformed_reads_wire_right_hand_sides():
    text = 'wire a = bu= sy;\nwire b = = 1;\nwire c = x <= y && z === w;\nwire d = "=" == e;\nwire f = g // h;\n'
    assert lone_eq(text) == ["wire a = bu= sy", "wire b = = 1"]
    assert commented_declarations(text + "logic [1:0] k /* l;\n") == ["wire f = g // h", "logic   k /* l"]


def test_wellformed_finds_a_repeated_bind():
    text = (
        "bind leaf leaf_prop leaf_prop_i (.*);\n"
        "bind fifo fifo_prop #(\n    .DEPTH(DEPTH)\n) fifo_prop_i (.*);\n"
        "bind leaf leaf_prop #(.ASSERT_INPUTS(1)) leaf_prop_j (.*);\n"
        "  bind leaf leaf_prop leaf_prop_i (.*);\n"
        "// bind fifo fifo_prop fifo_prop_i (.*);\n"
    )
    assert bound_twice(text) == [("leaf", "leaf_prop_i")]
    assert bound_twice(text + "bind fifo fifo_prop fifo_prop_i (.a(b), .*);\n") == [
        ("fifo", "fifo_prop_i"), ("leaf", "leaf_prop_i")]


def test_mutation_probe_accepts_only_well_formed_output():
    # Accepted => well-formed, and no mutant crashes: the probe at a size that runs in about a second.
    probe = subprocess.run([sys.executable, str(REPO / "bench" / "mutation_probe.py"), "--mutants", "400"],
                           capture_output=True, text=True, check=True)
    report = json.loads(probe.stdout)
    assert (report["mutants"], report["crashed"], report["ill_formed"]) == (2000, 0, 0), report["crashes"]
    assert report["accepted"] > 0


class TestDeclaredSignals:
    def test_typed_declarations_keep_their_type(self):
        bundle = generate_bundle(TYPED_DECLS, "m.sv", GenOptions())
        assert "    input dat_t a_data,\n    input dat_t b_data\n);" in bundle.property_module.text
        assert [w.code for w in bundle.warnings] == [
            "opaque-port-type", "opaque-port-type", "unknown-data-width",
        ]
        assert bundle.warnings[-1].render() == (
            "m.sv:1:12: warning[unknown-data-width]: data width of 't' is not a known range (type 'dat_t'),"
            " sampled data defaults to 1 bit"
        )

    def test_typed_data_is_compared_at_its_declared_width(self):
        # `logic t_sampled_data;` keeps one bit of the 5 sent, so the 5 returned does not match it.
        bundle = generate_bundle(TYPED_DECLS, "m.sv", GenOptions())
        assert "logic t_sampled_data;" in bundle.property_module.text
        prop = next(p for p in bundle.properties if p.name == "t_data_integrity")
        trace = Trace({"a_val": [1, 0], "a_transid": [0, 0], "a_data": [5, 0],
                       "b_val": [0, 1], "b_transid": [0, 0], "b_data": [0, 5], "symb_t_transid": [0, 0]})
        assert str(eval_property(prop, trace)) == "t_data_integrity: violated at cycle 1"

    def test_data_assigned_without_range_warns(self):
        src = TYPED_DECLS.replace("input dat_t a_data", "a_data = a_id").replace("input dat_t b_data;", "b_data = b_id")
        bundle = generate_bundle(src, "m.sv", GenOptions())
        assert "logic t_sampled_data;" in bundle.property_module.text
        assert [w.render() for w in bundle.warnings] == [
            "m.sv:1:12: warning[unknown-data-width]: data width of 't' is not a known range,"
            " sampled data defaults to 1 bit"
        ]

    def test_typed_declaration_has_no_width_to_mismatch(self):
        bundle = generate_bundle(TYPED_DECL_VS_PORT, "m.sv", GenOptions())
        assert "    input wire [7:0] a_data," in bundle.property_module.text
        assert "    input dat_t b_data\n);" in bundle.property_module.text

    def test_declaration_and_assign_give_one_port_and_a_renamed_wire(self):
        bundle = generate_bundle(DECL_AND_ASSIGN, "m.sv", GenOptions())
        text = bundle.property_module.text
        assert "    input wire a_ack\n);" in text
        assert "wire a_ack_1 = !busy;" in text and "wire a_hsk = a_val && a_ack_1;" in text
        assert [w.code for w in bundle.warnings] == [
            "explicit-overrides-port", "name-collision-renamed",
        ]

    def test_output_declaration_keeps_its_direction(self):
        src = _module("input wire a_val,\noutput wire b_val", "// AUTOSVA t: a -in> b\n// AUTOSVA output logic b_ack")
        bundle = generate_bundle(src, "m.sv", GenOptions())
        assert "    output wire b_ack\n);" in bundle.property_module.text
        assert bundle.warnings == []  # `logic` is a net keyword, not a user type
