import json
import re
import shutil
import subprocess
import sys

import pytest

from autoft.diagnostics import GenerationError, UnsupportedToolError
from autoft.emit import (
    emit_bind_file,
    emit_tool_files,
    generate_bundle,
    link_submodule_fts,
    write_bundle,
)
from autoft.options import GenOptions
from autoft.parser import parse_module
from autoft.tracecheck import Trace, eval_property

from conftest import FIXTURE_NAMES, GOLDEN, REPO, gen_fixture, load_fixture
from wellformed import balanced, commented_declarations, declared_twice, lone_eq

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
            stmt = f"{p.name}: {p.directive} property ({head}\n    {p.ltl_text});\n"
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
        scoped = [p for p in linked.properties if p.name.startswith("pipeline_")]
        assert scoped and all(p.directive != "assume" for p in scoped)

    def test_no_am_returns_parent_unchanged(self):
        parent = gen_fixture("mmu_stub")
        child = gen_fixture("pipeline")
        linked = link_submodule_fts(parent, [(child, False, False)])
        assert linked is parent

    def test_duplicate_tname_across_link_set_rejected(self):
        parent = gen_fixture("fifo")
        src = load_fixture("fifo").replace("module fifo", "module fifo2")
        child = generate_bundle(src, "fifo2.sv", GenOptions())
        with pytest.raises(GenerationError) as exc:
            link_submodule_fts(parent, [(child, True, False)])
        assert any(d.code == "duplicate-transaction-name" for d in exc.value.diagnostics)


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
    for label, src in (("typed", TYPED_DECLS), ("typed_vs_port", TYPED_DECL_VS_PORT),
                       ("decl_and_assign", DECL_AND_ASSIGN)):
        yield label, lambda src=src: generate_bundle(src, "m.sv", GenOptions())


EMITTED = dict(_emitted_modules())


@pytest.mark.parametrize("label", EMITTED)
def test_each_name_declared_once(label):
    text = EMITTED[label]().property_module.text
    assert declared_twice(text) == []
    assert balanced(text)
    assert lone_eq(text) == []
    assert commented_declarations(text) == []


def test_wellformed_reads_wire_right_hand_sides():
    text = 'wire a = bu= sy;\nwire b = = 1;\nwire c = x <= y && z === w;\nwire d = "=" == e;\nwire f = g // h;\n'
    assert lone_eq(text) == ["wire a = bu= sy", "wire b = = 1"]
    assert commented_declarations(text + "logic [1:0] k /* l;\n") == ["wire f = g // h", "logic   k /* l"]


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
