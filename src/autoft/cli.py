"""Command line front end.

Subcommands:

* `gen`    parse one annotated RTL file and write the testbench bundle;
* `check`  generate in memory and run the built-in reference machine for the
           module over the generated properties;
* `link`   generate a parent and child bundles and fold the children into the
           parent's testbench.

Exit codes: 0 success, 1 validation or check failure (every diagnostic is
printed, not just the first), 2 usage errors, also an input file that is
not UTF-8, an output that cannot be written and a module whose reference
model cannot evaluate its properties. Warnings go to stderr and never block generation. Set
AUTOFT_COLOR=1/0 to force or suppress colored diagnostics.

`main` pauses the cyclic garbage collector from the end of argument parsing
until the command returns or raises, then restores the caller's setting.
That is safe because generating, checking and linking create no reference
cycles: reference counting frees everything they drop, and a collection
would only rescan the node trees of a large bundle, finding nothing. (The
argument parser is cyclic; it is dropped before the pause and left to the
next collection.) `tests/test_gc.py` pins both the restore on every exit
path and the absence of cyclic garbage.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .diagnostics import Diagnostic, GenerationError, SymbolicWidthError, UnknownSignalError
from .emit import TestbenchBundle, generate_bundle, link_submodule_fts, write_bundle
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


def _require_file(path: Path, what: str) -> None:
    if not path.is_file():
        raise UsageError(f"{what} file '{path}' not found")


def _parse_max_outstanding(values: list[str] | None) -> tuple[int, dict[str, int]]:
    default = DEFAULT_MAX_OUTSTANDING
    overrides: dict[str, int] = {}
    for item in values or []:
        try:
            if "=" in item:
                tname, _, num = item.partition("=")
                if not tname.strip():
                    raise ValueError("no transaction name")
                overrides[tname.strip()] = int(num)
            else:
                default = int(item)
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


def _read(path: Path) -> str:
    """The text of an input file; one that is not UTF-8 is a usage error."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # The whole file is decoded in one call, so `start` is the byte's offset in the file.
        bad = exc.object[exc.start]
        raise UsageError(f"file '{path}' is not UTF-8: byte 0x{bad:02x} at offset {exc.start}") from None


def _generate(opts: GenOptions, *inputs: tuple[Path, str]) -> list[TestbenchBundle]:
    """One bundle per (path, text), each one's warnings, which never block, printed as it is generated.

    A `--max-outstanding TNAME=N` whose TNAME no bundle declares is a usage error.
    """
    bundles = []
    for path, source in inputs:
        bundles.append(generate_bundle(source, str(path), opts))
        _print_diagnostics(bundles[-1].warnings)
    unknown = set(opts.max_outstanding_overrides) - {t.tname for b in bundles for t in b.transactions}
    if unknown:
        raise UsageError(f"--max-outstanding: no transaction named {', '.join(sorted(unknown))}")
    return bundles


def _write(bundle: TestbenchBundle, outdir: Path) -> None:
    """Write the bundle under `outdir`; a directory or file that cannot be made or written is a usage error."""
    try:
        target = write_bundle(bundle, outdir)
    except OSError as exc:
        raise UsageError(f"cannot write '{exc.filename or outdir / bundle.dut}': {exc.strerror or exc}") from None
    for f in bundle.files():
        print(f"wrote {target / f.name}")


def _cmd_gen(args: argparse.Namespace) -> int:
    opts, path = _options_from_args(args), Path(args.input)
    [bundle] = _generate(opts, (path, _read(path)))
    _write(bundle, Path(args.outdir))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    opts, path = _options_from_args(args), Path(args.input)
    [bundle] = _generate(opts, (path, _read(path)))
    factory = MODEL_REGISTRY.get(bundle.dut)
    if factory is None:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise UsageError(f"no reference model for module '{bundle.dut}' (known: {known})")
    model = factory()
    try:
        report = check_bundle_on_model(bundle.transactions, bundle.properties, model)
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


def _parse_child_spec(spec: str) -> tuple[Path, bool, bool]:
    path_text, _, flag_text = spec.partition("=")
    if not path_text:
        raise UsageError(f"no child file in '{spec}'")
    flags = {f.strip() for f in flag_text.split(",") if f.strip()}
    unknown = flags - {"am", "as"}
    if unknown:
        raise UsageError(f"unknown child flags {sorted(unknown)} in '{spec}'")
    return Path(path_text), "am" in flags, "as" in flags


def _cmd_link(args: argparse.Namespace) -> int:
    specs = [_parse_child_spec(spec) for spec in args.child or []]
    for child_path, _, _ in specs:
        _require_file(child_path, "child")
    opts = _options_from_args(args)
    # Every source is read before any is generated, so a bad child stops the run before a warning is printed.
    sources = [(path, _read(path)) for path in [Path(args.input), *(path for path, _, _ in specs)]]
    parent, *kids = _generate(opts, *sources)
    children = [(kid, am, as_) for kid, (_, am, as_) in zip(kids, specs)]
    outdir = Path(args.outdir)
    _write(link_submodule_fts(parent, children), outdir)
    for child, am, _ in children:
        if am:
            _write(child, outdir)
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
        "--bounded", type=int, metavar="N",
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


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autoft",
        description="Generate formal testbenches from annotated RTL module interfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a testbench bundle")
    _add_common(gen)
    _add_gen_flags(gen)
    gen.set_defaults(func=_cmd_gen)

    check = sub.add_parser("check", help="run the built-in reference machine against the generated properties")
    _add_common(check)
    check.set_defaults(func=_cmd_check)

    link = sub.add_parser("link", help="generate a parent bundle with child testbenches folded in")
    _add_common(link)
    _add_gen_flags(link)
    link.add_argument(
        "--child", action="append", metavar="PATH[=am[,as]]",
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
        _require_file(Path(args.input), "input")
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
