"""Render the testbench bundle: property module, bind file, tool drivers.

All output is a pure function of the parsed input and the options. Files use
LF line endings, end with a newline, and contain no timestamps or absolute
paths, so regenerating a bundle always reproduces it byte for byte.

The property module is rendered by one generator, `_blocks`: its header, then
one block per transaction, then the closing lines. A transaction's block is
its shape's text with its names filled in (`properties.Shape.render`): each
shape renders its slotted trees once, its aux declarations and its
properties with their labels and directives, and `render()` stays the only
source of SVA text. `gen` and `link` never hold the property module's text:
`write_files` writes each block as `ModuleModel.files` yields it, and drops
it, and they build no transaction's own trees. `check` holds the
properties, made by `gen_properties`, which runs the shape's builder over
each transaction's names once and gives each property its body, and renders
no text. A bundle held in memory (`TestbenchBundle`, from `generate_bundle`
or `link_submodule_fts`) holds both: it is the same `ModuleModel.files`,
each file joined, and `_bundle` is the one place that makes one.
`write_files` encodes and writes a text in fixed slices rather than as one
bytes copy. Synthesis has decided every property and its
label by the time `generate_model` returns, so making and writing them
reports nothing.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator
from pathlib import Path

from .diagnostics import Diagnostic, GenerationError, UnsupportedToolError, error, errors_in
from .options import TOOL_BOTH, TOOL_JASPERGOLD, TOOL_SYMBIYOSYS, GenOptions
from .parser import ParsedModule, parse_module
from .properties import ASSERT_INPUTS, GeneratedProperty, gen_properties
from .signals import synth_module
from .sva import width_prefix
from .transactions import Transaction, TransactionAux, build_transactions

_BANNER = "Machine generated; do not edit."
_WRITE_SLICE = 64 * 1024  # characters encoded and written at a time by `write_files`
_END = "\n\nendmodule\n"  # the property module's closing lines


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


class ModuleModel(namedtuple("ModuleModel", "pm txns aux warnings opts")):
    """One module parsed, its transactions built and its aux signals synthesized, without an error.

    warnings is the module's diagnostics list, complete: synthesis has
    decided every property and its label, so making them reports nothing.
    """

    __slots__ = ()

    @property
    def dut(self) -> str:
        return self.pm.module_name

    def properties(self) -> list[GeneratedProperty]:
        """Every transaction's properties, made with their bodies, flat, in emitted order."""
        return [p for t, t_aux in zip(self.txns, self.aux) for p in gen_properties(t, t_aux, self.opts, self.warnings)]

    def files(self, binds: str = "", sources: tuple[str, ...] = ()) -> list[tuple[str, Iterable[str]]]:
        """Each file's name and its text in pieces; the property module's are made as they are read.

        `binds` goes before the property module's closing lines, and the tool
        files list `sources` after the module's own (see `bind_block`).
        """
        pm, opts = self.pm, self.opts
        small = [emit_bind_file(pm), *emit_tool_files(pm, opts.tool, opts, sources)]
        return [(f"{self.dut}_prop.sv", _blocks(pm, self.aux, opts, binds)),
                *((f.name, (f.text,)) for f in small)]


def _blocks(pm: ParsedModule, aux: list[TransactionAux], opts: GenOptions, binds: str = "") -> Iterator[str]:
    """`<dut>_prop.sv` in pieces that concatenate to it: its header, each transaction's block, then the closing lines.

    Each transaction's block is its shape's template filled in with its
    names (`Shape.render`), so the lines of the whole module are never held
    at once. `binds`, if any, goes before the final `endmodule`.
    """
    dut = pm.module_name
    params = [f"parameter {p.name} = {p.value_expr}" for p in pm.parameters]
    params.append(f"parameter {ASSERT_INPUTS} = {1 if opts.assert_inputs else 0}")
    params += [f"parameter {a.names[3]} = {a.names[4]}" for a in aux]  # each counter's limit
    imports = f" {' '.join(pm.imports)}" if pm.imports else ""
    yield "\n".join([f"// Interface transaction properties for {dut}. {_BANNER}", "", f"module {dut}_prop{imports} #(",
                     *_listed(params), ") (", *_listed(_port_lines(pm)), ");"])
    for a in aux:
        yield a.shape.render(a.names)
    yield binds + _END


def emit_property_module(pm: ParsedModule, txns: list[Transaction], aux: list[TransactionAux],
                         props: list[list[GeneratedProperty]], opts: GenOptions) -> GeneratedFile:
    """Render `<dut>_prop.sv` with modeling and properties per transaction, in memory: one join over `_blocks`.

    The text is rendered from each transaction's shape and names
    (`TransactionAux`), so `txns` and `props` are not read.
    """
    return GeneratedFile(f"{pm.module_name}_prop.sv", "".join(_blocks(pm, aux, opts)))


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
    """Unbounded, a `prove` task and a `live` one; bounded, one prove run, deep enough for the bound."""
    bounded = opts.bounded is not None
    lines = [  # a section a line
        f"# SymbiYosys configuration for {dut}. {_BANNER}",
        *(() if bounded else ("", "[tasks]", "prove", "live")),
        "", "[options]", *(("mode prove",) if bounded else ("prove: mode prove", "live: mode live")),
        f"depth {max(20, opts.bounded * 2 + 10) if bounded else 20}",
        "", "[engines]", *(("smtbmc",) if bounded else ("prove: smtbmc", "live: aiger suprove")),
        "", "[script]", f"read -formal -sv {' '.join(sources)}", f"prep -top {dut}",
        "", "[files]", *sources,
    ]
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


def generate_model(source: str, path: str, opts: GenOptions) -> ModuleModel:
    """Parse one annotated source text, build its transactions and synthesize their aux signals.

    Raises GenerationError carrying every collected diagnostic when any stage
    reports an error. Synthesis also checks every property label, and making
    the properties reports nothing, so once this returns the module's
    warnings are complete.
    """
    pm = parse_module(source, path)
    diags: list[Diagnostic] = list(pm.diagnostics)

    txns, build_diags = build_transactions(pm)
    diags.extend(build_diags)

    aux = synth_module(txns, pm, opts, diags)
    if errors_in(diags):
        raise GenerationError(diags)
    return ModuleModel(pm, txns, aux, diags, opts)


def _bundle(model: ModuleModel, properties: list[GeneratedProperty], binds: str = "",
            sources: tuple[str, ...] = ()) -> TestbenchBundle:
    """The bundle of `model.files(binds, sources)`, each file's pieces joined, with `properties`."""
    pm = model.pm
    prop, bind, *tools = (GeneratedFile(name, "".join(pieces)) for name, pieces in model.files(binds, sources))
    return TestbenchBundle(dut=pm.module_name, property_module=prop, bind_file=bind, tool_files=tools,
                           warnings=model.warnings, transactions=model.txns, properties=properties, aux=model.aux,
                           parameters=[p.name for p in pm.parameters], opts=model.opts, source_module=pm)


def generate_bundle(source: str, path: str, opts: GenOptions) -> TestbenchBundle:
    """Run the whole pipeline on one annotated source text, every file and property held in memory.

    The files are the model's streamed ones (`ModuleModel.files`), joined.
    Raises GenerationError as `generate_model` does; warnings are attached
    to the returned bundle.
    """
    model = generate_model(source, path, opts)
    return _bundle(model, model.properties())


def bind_block(parent: str, children: list[tuple[str, bool]]) -> tuple[str, tuple[str, ...]]:
    """The text binding each (dut, as) child's property module into the parent's, and the sources it adds.

    ("", ()) without children. A child with as is bound with ASSERT_INPUTS=1.
    The parent and the children must be distinct modules, so that no module
    is bound twice and no bundle overwrites another; a repeated one is a
    `duplicate-module` error. Transaction names may repeat across modules,
    since each property module is its own scope.
    """
    duts = Counter([parent, *(dut for dut, _ in children)])
    repeated = [error("duplicate-module", f"module '{dut}' is linked {n} times; the parent and each am child "
                      "must be distinct modules") for dut, n in duts.items() if n > 1]
    if repeated:
        raise GenerationError(repeated)

    lines = ["", "", "// ---- linked submodule testbenches ----"]
    sources: list[str] = []
    for dut, as_ in children:
        override = f" #(.{ASSERT_INPUTS}(1))" if as_ else ""
        lines.append(f"bind {dut} {dut}_prop{override} {dut}_prop_i (.*);")
        sources += [f"{dut}.sv", f"{dut}_prop.sv"]
    return "\n".join(lines) if children else "", tuple(sources)


def link_submodule_fts(
    parent: TestbenchBundle, children: list[tuple[TestbenchBundle, bool, bool]]
) -> TestbenchBundle:
    """Fold child testbenches into a parent bundle held in memory.

    `children` pairs each child bundle with its (am, as) flags. With am the
    parent property module gains the child's bind (see `bind_block`) and the
    tool files list the child's files; without am the child leaves no trace
    in the parent. The linked bundle is the parent's model's files joined
    with the binds (`ModuleModel.files`), and keeps the parent's properties
    and warnings: a child's properties are proved, and checked, in the
    child's own property module.
    """
    binds, sources = bind_block(parent.dut, [(child.dut, as_) for child, am, as_ in children if am])
    if not binds:
        return parent
    model = ModuleModel(parent.source_module, parent.transactions, parent.aux, parent.warnings, parent.opts)
    return _bundle(model, parent.properties, binds, sources)


def write_files(target: Path, files: Iterable[tuple[str, Iterable[str]]]) -> None:
    """Write each (name, pieces of text) under the directory `target`, in order.

    The text is written as UTF-8, without line-ending translation, in slices
    of `_WRITE_SLICE` characters encoded one at a time, so no bytes copy of a
    piece is made, and each piece is dropped once it is written. A buffer of
    `_WRITE_SLICE` bytes gathers the small pieces, one per transaction, into
    writes of that size.
    """
    for name, pieces in files:
        with open(target / name, "wb", buffering=_WRITE_SLICE) as out:
            for piece in pieces:
                for start in range(0, len(piece), _WRITE_SLICE):
                    out.write(piece[start:start + _WRITE_SLICE].encode("utf-8"))


def write_bundle(bundle: TestbenchBundle, outdir: Path) -> Path:
    """Write all files of a bundle held in memory under `<outdir>/<dut>/` and return that directory."""
    target = outdir / bundle.dut
    target.mkdir(parents=True, exist_ok=True)
    write_files(target, ((f.name, (f.text,)) for f in bundle.files()))
    return target
