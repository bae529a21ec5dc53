"""Render the testbench bundle: property module, bind file, tool drivers.

All output is a pure function of the parsed input and the options. Files use
LF line endings, end with a newline, and contain no timestamps or absolute
paths, so regenerating a bundle always reproduces it byte for byte.

Each file's text exists once in memory, and only briefly twice: the property
module is joined from one block per transaction (and one for its header), each
joined from its lines as the transaction is rendered, and `write_bundle`
encodes and writes a text in fixed slices rather than as one bytes copy.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain
from pathlib import Path

from .diagnostics import Diagnostic, GenerationError, UnsupportedToolError, error, errors_in
from .options import TOOL_BOTH, TOOL_JASPERGOLD, TOOL_SYMBIYOSYS, GenOptions
from .parser import ParsedModule, parse_module
from .properties import ASSUME, GeneratedProperty, apply_link_transforms, gen_properties
from .signals import TransactionAux, _Namer, synth_module
from .sva import width_prefix
from .transactions import Transaction, build_transactions

_BANNER = "Machine generated; do not edit."
_WRITE_SLICE = 64 * 1024  # characters encoded and written at a time by `write_bundle`


class GeneratedFile(namedtuple("GeneratedFile", "name text")):
    __slots__ = ()


class TestbenchBundle(namedtuple("TestbenchBundle", "dut property_module bind_file tool_files warnings transactions "
                                                     "properties aux parameters opts source_module")):
    """Everything one generation run produces.

    dut is the module name; property_module and bind_file are `GeneratedFile`s
    and tool_files a list of them; warnings the run's diagnostics; then the
    pipeline's transactions, properties (flat, in emitted order) and aux, the
    module's parameter names, the options and the parsed module.
    """

    __slots__ = ()

    def files(self) -> list[GeneratedFile]:
        return [self.property_module, self.bind_file, *self.tool_files]


def _listed(items: list[str]) -> list[str]:
    """The lines of an indented comma list of `items`."""
    return [f"    {item}," for item in items[:-1]] + [f"    {item}" for item in items[-1:]]


def _port_lines(pm: ParsedModule) -> list[str]:
    """The DUT ports mirrored as inputs, then the declared signals as declared."""
    ports = [("input", s) for s in pm.signals] + [(s.direction, s) for s in pm.declared_signals()]
    return [f"{d} {s.opaque_type or 'wire'} {width_prefix(s.width_expr)}{s.name}" for d, s in ports]


def _render_property(p: GeneratedProperty, head: str) -> str:
    """The property's text, of one or more lines; `head` is the module's `@(posedge clk) disable iff (...)`."""
    body = f"{head}\n    {p.body.render()}"
    if p.directive == ASSUME:
        return (
            f"if (ASSERT_INPUTS) begin : {p.name}_asrt\n"
            f"    {p.name}: assert property ({body});\n"
            f"end else begin : {p.name}_assm\n"
            f"    {p.name}: assume property ({body});\n"
            "end"
        )
    return f"{p.name}: {p.directive} property ({body});"


def _name_labels(namer: _Namer, props: list[list[GeneratedProperty]]) -> None:
    """Rename each property whose label, or an assumption's generate block, is a name the namer holds.

    A label that clashes with nothing is not added to the namer's names. The
    test is made here, before calling the namer, because one call per
    property would cost more than the rest of this pass.
    """
    taken = namer.taken
    for p in chain.from_iterable(props):
        if p.name in taken or p.directive == ASSUME and (p.name + "_asrt" in taken or p.name + "_assm" in taken):
            p.name = namer.alloc(p.name, ("_asrt", "_assm") if p.directive == ASSUME else ())


def _relation_text(t: Transaction) -> str:
    arrow = "-in>" if t.direction == "incoming" else "-out>"
    return f"{t.tname}: {t.p.name} {arrow} {t.q.name}"


def emit_property_module(
    pm: ParsedModule,
    txns: list[Transaction],
    aux: list[TransactionAux],
    props: list[list[GeneratedProperty]],
    opts: GenOptions,
) -> GeneratedFile:
    """Render `<dut>_prop.sv` with modeling and properties per transaction.

    The header, and each transaction as it is rendered, is joined into one
    block of text, and the module is one join over the blocks, so the lines
    of the whole module are never held at once.
    """
    dut = pm.module_name
    lines: list[str] = [f"// Interface transaction properties for {dut}. {_BANNER}", ""]

    params = [f"parameter {p.name} = {p.value_expr}" for p in pm.parameters]
    params.append(f"parameter ASSERT_INPUTS = {1 if opts.assert_inputs else 0}")
    for counter in (t_aux.roles["counter"] for t_aux in aux):
        params.append(f"parameter {counter.limit_param} = {counter.limit}")

    imports = f" {' '.join(pm.imports)}" if pm.imports else ""
    lines.append(f"module {dut}_prop{imports} #(")
    lines.extend(_listed(params))
    lines.append(") (")
    lines.extend(_listed(_port_lines(pm)))
    lines.append(");")

    blocks = ["\n".join(lines)]
    head = f"@(posedge {opts.clk}) disable iff ({opts.rst_expr})"
    for t, t_aux, t_props in zip(txns, aux, props):
        lines = ["", f"// ---- transaction {_relation_text(t)} ----", ""]
        for a in t_aux.signals:
            lines += a.declare(opts)
        guarded = []
        for p in t_props:
            if p.kind == "xprop":
                guarded.append(_render_property(p, head))
            else:
                lines += ("", _render_property(p, head))
        if guarded:
            lines += ["", "`ifdef XPROP", *guarded, "`endif"]
        blocks.append("\n".join(lines))

    blocks.append("\nendmodule\n")
    return GeneratedFile(f"{dut}_prop.sv", "\n".join(blocks))


def emit_bind_file(pm: ParsedModule) -> GeneratedFile:
    """Render the bind unit attaching `<dut>_prop` inside every `<dut>`."""
    dut = pm.module_name
    lines = [f"// Bind {dut}_prop into {dut}. {_BANNER}"]
    if pm.parameters:
        lines.append(f"bind {dut} {dut}_prop #(")
        lines.extend(_listed([f".{p.name}({p.name})" for p in pm.parameters]))
        lines.append(f") {dut}_prop_i (.*);")
    else:
        lines.append(f"bind {dut} {dut}_prop {dut}_prop_i (.*);")
    return GeneratedFile(f"{dut}_bind.svh", "\n".join(lines) + "\n")


def _sby_text(dut: str, sources: list[str], opts: GenOptions) -> str:
    lines = [f"# SymbiYosys configuration for {dut}. {_BANNER}"]
    depth = 20 if opts.bounded is None else max(20, opts.bounded * 2 + 10)
    if opts.bounded is None:
        lines += [
            "",
            "[tasks]",
            "prove",
            "live",
            "",
            "[options]",
            "prove: mode prove",
            "live: mode live",
            f"depth {depth}",
            "",
            "[engines]",
            "prove: smtbmc",
            "live: aiger suprove",
        ]
    else:
        lines += [
            "",
            "[options]",
            "mode prove",
            f"depth {depth}",
            "",
            "[engines]",
            "smtbmc",
        ]
    lines += ["", "[script]"]
    lines.append(f"read -formal -sv {' '.join(sources)}")
    lines.append(f"prep -top {dut}")
    lines += ["", "[files]"]
    lines.extend(sources)
    return "\n".join(lines) + "\n"


def _tcl_text(dut: str, sources: list[str], opts: GenOptions) -> str:
    lines = [
        f"# JasperGold setup for {dut}. {_BANNER}",
        "clear -all",
        f"analyze -sv12 {' '.join(sources)}",
        f"elaborate -top {dut}",
        f"clock {opts.clk}",
        f"reset -expression {{{opts.rst_expr}}}",
        "# Datapath abstraction: enable the datapath-ignore option of your",
        "# tool version here; the exact directive is license material.",
        "prove -all",
        "report",
    ]
    return "\n".join(lines) + "\n"


# Each tool's driver files, as (file name suffix, renderer), in the order they are written.
_DRIVERS = {
    TOOL_SYMBIYOSYS: ((".sby", _sby_text),),
    TOOL_JASPERGOLD: ((".tcl", _tcl_text),),
    TOOL_BOTH: ((".tcl", _tcl_text), (".sby", _sby_text)),
}


def emit_tool_files(
    pm: ParsedModule, tool: str, opts: GenOptions, extra_sources: tuple[str, ...] = ()
) -> list[GeneratedFile]:
    """Driver files for the selected proof tool(s).

    Sources are listed by basename; run the tool next to the bundle with the
    DUT file copied or linked alongside (see the README recipe).
    """
    drivers = _DRIVERS.get(tool)
    if drivers is None:
        raise UnsupportedToolError(f"unsupported tool '{tool}'")
    dut = pm.module_name
    sources = [f"{dut}.sv", f"{dut}_prop.sv", f"{dut}_bind.svh", *extra_sources]
    return [GeneratedFile(f"{dut}{suffix}", render(dut, sources, opts)) for suffix, render in drivers]


def generate_bundle(source: str, path: str, opts: GenOptions) -> TestbenchBundle:
    """Run the whole pipeline on one annotated source text.

    Raises GenerationError carrying every collected diagnostic when any stage
    reports an error; warnings are attached to the returned bundle.
    """
    pm = parse_module(source, path)
    diags: list[Diagnostic] = list(pm.diagnostics)

    txns, build_diags = build_transactions(pm)
    diags.extend(build_diags)

    aux, namer = synth_module(txns, pm, opts, diags)

    props = [apply_link_transforms(gen_properties(t, t_aux, opts, diags), assert_inputs=opts.assert_inputs)
             for t, t_aux in zip(txns, aux)]
    _name_labels(namer, props)
    del namer  # it holds every declared name (about 4 MB at 4000 transactions), not needed to build the text

    if errors_in(diags):
        raise GenerationError(diags)

    return TestbenchBundle(
        dut=pm.module_name,
        property_module=emit_property_module(pm, txns, aux, props, opts),
        bind_file=emit_bind_file(pm),
        tool_files=emit_tool_files(pm, opts.tool, opts),
        warnings=diags,
        transactions=txns,
        properties=[p for group in props for p in group],
        aux=aux,
        parameters=[p.name for p in pm.parameters],
        opts=opts,
        source_module=pm,
    )


def link_submodule_fts(
    parent: TestbenchBundle, children: list[tuple[TestbenchBundle, bool, bool]]
) -> TestbenchBundle:
    """Fold child testbenches into a parent bundle.

    `children` pairs each child bundle with its (am, as) flags. With am the
    parent property module gains a bind of the child's property module (with
    ASSERT_INPUTS=1 when as is also set) and the tool files list the child's
    files; without am the child leaves no trace in the parent. The binds go
    in one block before the module's final `endmodule`. The linked bundle
    keeps the parent's properties and warnings: a child's properties are
    proved, and checked, in the child's own property module.

    The parent and the am children must be distinct modules, so that no
    module is bound twice and no bundle overwrites another; a repeated one
    is a `duplicate-module` error. Transaction names may repeat across
    modules, since each property module is its own scope.
    """
    linked = [(child, as_) for child, am, as_ in children if am]
    if not linked:
        return parent

    duts = Counter([parent.dut, *(child.dut for child, _ in linked)])
    repeated = [error("duplicate-module", f"module '{dut}' is linked {n} times; the parent and each am child "
                      "must be distinct modules") for dut, n in duts.items() if n > 1]
    if repeated:
        raise GenerationError(repeated)

    lines = ["// ---- linked submodule testbenches ----"]
    extra_sources: list[str] = []
    for child, as_ in linked:
        override = " #(.ASSERT_INPUTS(1))" if as_ else ""
        lines.append(f"bind {child.dut} {child.dut}_prop{override} {child.dut}_prop_i (.*);")
        extra_sources += [f"{child.dut}.sv", f"{child.dut}_prop.sv"]

    # The emitted text's last line, `endmodule`, moves below the binds: one join, no concatenated copies.
    text = "\n".join([parent.property_module.text.removesuffix("\nendmodule\n"), *lines, "", "endmodule", ""])
    return parent._replace(
        property_module=GeneratedFile(parent.property_module.name, text),
        tool_files=emit_tool_files(parent.source_module, parent.opts.tool, parent.opts, tuple(extra_sources)),
    )


def write_bundle(bundle: TestbenchBundle, outdir: Path) -> Path:
    """Write all files under `<outdir>/<dut>/` and return that directory.

    Each file's text is written as UTF-8, without line-ending translation, in
    slices of `_WRITE_SLICE` characters encoded one at a time, so no bytes
    copy of a whole file is made.
    """
    target = outdir / bundle.dut
    target.mkdir(parents=True, exist_ok=True)
    for f in bundle.files():
        with open(target / f.name, "wb") as out:
            for start in range(0, len(f.text), _WRITE_SLICE):
                out.write(f.text[start:start + _WRITE_SLICE].encode("utf-8"))
    return target
