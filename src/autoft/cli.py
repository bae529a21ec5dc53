"""Command line front end.

Subcommands:

* `gen`    parse one annotated RTL file and write the testbench bundle: gen
           is link without children, and runs as `link`;
* `check`  generate in memory and run the built-in reference machine for the
           module over the generated properties;
* `link`   generate a parent and child bundles and bind each child's
           property module into the parent's: every `--child` spec is
           `PATH=am`, or `PATH=am,as` to assert the child's assumptions, split
           at its last `=`, and a spec without `am` is a usage error, raised
           before any module is generated. The parent and the children must
           be distinct modules (else a `duplicate-module` error); transaction
           names may repeat across them.

All three share one front half, `_models`: it reads the input and every
child, then generates every module's model (parse, transactions, aux
signals, property labels), each one's warnings printed as it is generated,
so every error and warning is known before anything is made from a model.
`check` then makes the properties and runs the reference machine. `gen` and
`link` check the binds, make every directory, then stream each file: a
property module is written one transaction at a time, each block rendered
from its transaction's shape (see `emit`) and dropped once it is written, so
its text is never held.

Exit codes: 0 success, 1 validation or check failure (every diagnostic is
printed, not just the first), 2 usage errors, also an input file that
cannot be read or is not UTF-8, an output that cannot be written and a
module whose reference model cannot evaluate its properties. Warnings go to
stderr and never block generation. Set AUTOFT_COLOR=1/0 to force or
suppress colored diagnostics.

`main` pauses the cyclic garbage collector from the end of argument parsing
until the command returns or raises, then restores the caller's setting.
That is safe because generating, checking and linking create no reference
cycles: reference counting frees everything they drop, and a collection
would only rescan the node trees of a large bundle, finding nothing. (The
argument parser is cyclic, so it is built once per process, by the first
call, and kept: `parse_args` leaves it unchanged, and no call drops one.)
`tests/test_gc.py` pins both the restore on every exit path and the absence
of cyclic garbage.
"""
from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from pathlib import Path

from .diagnostics import Diagnostic, GenerationError, SymbolicWidthError, UnknownSignalError
from .emit import ModuleModel, bind_block, generate_model, write_files
from .models import MODEL_REGISTRY, check_bundle_on_model
from .options import DEFAULT_MAX_OUTSTANDING, TOOLS, GenOptions

USAGE_ERROR = 2
VALIDATION_ERROR = 1


class UsageError(Exception):
    """A bad command line or a missing input; `main` prints it and exits 2."""


def _print_diagnostics(diags: list[Diagnostic]) -> None:
    """Print errors and warnings alike to stderr, colored as AUTOFT_COLOR says, else when it is a terminal."""
    env = os.environ.get("AUTOFT_COLOR")
    color = env == "1" if env in ("0", "1") else sys.stderr.isatty()
    for d in diags:
        print(d.render(color), file=sys.stderr)


def integer(text: str) -> int:
    """text as an int if it is an optional sign and ASCII digits, as `Trace.from_csv` reads a cell; else a ValueError.

    `int` also reads other scripts' digits and `_` between digits, such as
    `1_0`; neither is ASCII digits. argparse names this function in its
    message on a bad `--bounded`: "invalid integer value".
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an integer: '{text}'")
    return int(text)


def _parse_max_outstanding(values: list[str] | None) -> tuple[int, dict[str, int]]:
    default = DEFAULT_MAX_OUTSTANDING
    overrides: dict[str, int] = {}
    for item in values or []:
        try:
            if "=" in item:
                tname, _, num = item.partition("=")
                if not tname.strip():
                    raise ValueError("no transaction name")
                overrides[tname.strip()] = integer(num)
            else:
                default = integer(item)
        except ValueError:
            raise UsageError(f"--max-outstanding expects N or TNAME=N, got '{item}'") from None
    return default, overrides


def _options_from_args(args: argparse.Namespace) -> GenOptions:
    default, overrides = _parse_max_outstanding(args.max_outstanding)
    try:
        return GenOptions(
            tool=getattr(args, "tool", "symbiyosys"),
            clk=args.clk,
            rst=args.rst,
            rst_active_low=not args.rst_active_high,
            assert_inputs=getattr(args, "assert_inputs", False),
            bounded=args.bounded,
            max_outstanding=default,
            max_outstanding_overrides=overrides,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _read(path: Path, what: str) -> str:
    """The text of the `what` ("input" or "child") file; one that cannot be read or is not UTF-8 is a usage error."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise UsageError(f"{what} file '{path}' not found") from None
    except OSError as exc:
        raise UsageError(f"cannot read '{path}': {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        # The whole file is decoded in one call, so `start` is the byte's offset in the file.
        bad = exc.object[exc.start]
        raise UsageError(f"file '{path}' is not UTF-8: byte 0x{bad:02x} at offset {exc.start}") from None


def _generate(opts: GenOptions, *inputs: tuple[Path, str]) -> list[ModuleModel]:
    """One model per (path, text), each one's warnings, which never block, printed as it is generated.

    A `--max-outstanding TNAME=N` whose TNAME no model declares is a usage error.
    """
    models = []
    for path, source in inputs:
        models.append(generate_model(source, str(path), opts))
        _print_diagnostics(models[-1].warnings)
    unknown = set(opts.max_outstanding_overrides) - {t.tname for m in models for t in m.txns}
    if unknown:
        raise UsageError(f"--max-outstanding: no transaction named {', '.join(sorted(unknown))}")
    return models


def _write(outdir: Path, *modules: tuple[ModuleModel, list]) -> None:
    """Write each (model, its `files`) under `<outdir>/<dut>/`, making every directory before writing any file.

    A directory or file that cannot be made or written is a usage error, so a
    directory that cannot be made leaves nothing written.
    """
    try:
        for m, _ in modules:
            (outdir / m.dut).mkdir(parents=True, exist_ok=True)
        for m, files in modules:
            write_files(outdir / m.dut, files)
    except OSError as exc:
        raise UsageError(f"cannot write '{exc.filename or outdir}': {exc.strerror or exc}") from None
    for m, files in modules:
        for name, _ in files:
            print(f"wrote {outdir / m.dut / name}")


def _parse_child_spec(spec: str) -> tuple[Path, bool]:
    """The child's path and its `as` flag; `am` must be given, since a child is linked only by its bind.

    The flags follow the last `=`, since a path may hold one; a spec without `=` is a path without flags.
    """
    path_text, _, flag_text = spec.rpartition("=") if "=" in spec else (spec, "", "")
    if not path_text:
        raise UsageError(f"no child file in '{spec}'")
    flags = {f.strip() for f in flag_text.split(",") if f.strip()}
    unknown = flags - {"am", "as"}
    if unknown:
        raise UsageError(f"unknown child flags {sorted(unknown)} in '{spec}'")
    if "am" not in flags:
        raise UsageError(f"child flag 'as' needs 'am' in '{spec}'" if flags else
                         f"no flag 'am' in '{spec}': a child is linked as PATH=am or PATH=am,as")
    return Path(path_text), "as" in flags


def _models(args: argparse.Namespace) -> tuple[ModuleModel, list[tuple[ModuleModel, bool]]]:
    """The input's model, and each `--child`'s with its `as` flag."""
    path = Path(args.input)
    source = _read(path, "input")
    specs = [_parse_child_spec(spec) for spec in args.child or ()]
    # Every source is read before any is generated, so a bad child stops the run before a warning is printed.
    sources = [(path, source), *((child, _read(child, "child")) for child, _ in specs)]
    parent, *kids = _generate(_options_from_args(args), *sources)
    return parent, [(kid, as_) for kid, (_, as_) in zip(kids, specs)]


def _cmd_link(args: argparse.Namespace) -> int:
    parent, kids = _models(args)
    binds, sources = bind_block(parent.dut, [(kid.dut, as_) for kid, as_ in kids])
    _write(Path(args.outdir), (parent, parent.files(binds, sources)), *((kid, kid.files()) for kid, _ in kids))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    module, _ = _models(args)
    props = [p for group in module.properties() for p in group]
    factory = MODEL_REGISTRY.get(module.dut)
    if factory is None:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise UsageError(f"no reference model for module '{module.dut}' (known: {known})")
    model = factory()
    try:
        report = check_bundle_on_model(module.txns, props, model)
    except UnknownSignalError as exc:
        raise UsageError(f"reference model '{model.name}' has no signal '{exc.name}'") from None
    print(report.summary())
    violated = report.violated()
    if violated:
        print(f"{len(violated)} violated verdict(s):", file=sys.stderr)
        for e in violated:
            ids = " ".join(f"{n}={v}" for n, v in e.symb_values)
            where = f"trace {e.trace_index}" + (f", {ids}" if ids else "")
            print(f"  {e.verdict} [{e.kind}, {where}]", file=sys.stderr)
        return VALIDATION_ERROR
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="annotated RTL file")
    parser.add_argument("--clk", default="clk", help="clock port name (default: clk)")
    parser.add_argument("--rst", default="rst_n", help="reset port name (default: rst_n)")
    parser.add_argument(
        "--rst-active-high", action="store_true",
        help="treat the reset as active high (default: active low)",
    )
    parser.add_argument(
        "--bounded", type=integer, metavar="N",
        help="replace unbounded eventualities with an N-cycle window",
    )
    parser.add_argument(
        "--max-outstanding", action="append", metavar="N|TNAME=N",
        help="outstanding counter capacity, globally or per transaction",
    )


def _add_gen_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--outdir", default="out", help="output directory (default: out)")
    parser.add_argument("--tool", choices=TOOLS, default="symbiyosys", help="proof tool to drive")
    parser.add_argument(
        "--assert-inputs", action="store_true",
        help="emit with ASSERT_INPUTS=1 so environment assumptions become assertions",
    )


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The `autoft` parser, built by the first call and returned by every later one."""
    parser = argparse.ArgumentParser(
        prog="autoft",
        description="Generate formal testbenches from annotated RTL module interfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a testbench bundle")
    _add_common(gen)
    _add_gen_flags(gen)
    gen.set_defaults(func=_cmd_link, child=None)

    check = sub.add_parser("check", help="run the built-in reference machine against the generated properties")
    _add_common(check)
    check.set_defaults(func=_cmd_check, child=None)

    link = sub.add_parser("link", help="generate a parent bundle with child testbenches folded in")
    _add_common(link)
    _add_gen_flags(link)
    link.add_argument(
        "--child", action="append", metavar="PATH=am[,as]",
        help="child RTL file with link flags, repeatable",
    )
    link.set_defaults(func=_cmd_link)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    # No cycles to collect: see the module docstring.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (UsageError, SymbolicWidthError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except GenerationError as exc:
        _print_diagnostics(exc.diagnostics)
        return VALIDATION_ERROR
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
