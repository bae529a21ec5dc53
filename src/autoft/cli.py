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
would only rescan the node trees of a large bundle, finding nothing.
`tests/test_gc.py` pins both the restore on every exit path and the absence
of cyclic garbage.

The command line is read by `parse_args` from one table, `_OPTIONS`, which
also gives the `-h` text, and keeps nothing between calls. It reads every
spelling argparse read (`--name value`, `--name=value`, `-o DIR`, `-oDIR`,
unique prefixes of long options, options on either side of the input, `--`)
and fails as argparse failed, with its usage line and message and exit 2;
`tests/reference_cli.py` keeps the argparse parser it replaced, and a corpus
test holds the two equal. Without argparse, a process loads neither it nor
`gettext` nor `locale`, and builds no parser: a fresh `autoft gen` on `fifo`
takes 0.95 of the time it took with argparse, and 0.90 of its time above the
`python -c pass` floor (paired medians of 40 rounds, `BENCH_35.json`).
"""
from __future__ import annotations

import gc
import os
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

from .diagnostics import Diagnostic, GenerationError, SymbolicWidthError, UnknownSignalError
from .emit import ModuleModel, bind_block, generate_model, write_files
from .models import MODEL_REGISTRY, check_bundle_on_model
from .options import DEFAULT_MAX_OUTSTANDING, TOOLS, GenOptions, integer

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


def _options_from_args(args: SimpleNamespace) -> GenOptions:
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


def _models(args: SimpleNamespace) -> tuple[ModuleModel, list[tuple[ModuleModel, bool]]]:
    """The input's model, and each `--child`'s with its `as` flag."""
    path = Path(args.input)
    source = _read(path, "input")
    specs = [_parse_child_spec(spec) for spec in args.child or ()]
    # Every source is read before any is generated, so a bad child stops the run before a warning is printed.
    sources = [(path, source), *((child, _read(child, "child")) for child, _ in specs)]
    parent, *kids = _generate(_options_from_args(args), *sources)
    return parent, [(kid, as_) for kid, (_, as_) in zip(kids, specs)]


def _cmd_link(args: SimpleNamespace) -> int:
    parent, kids = _models(args)
    binds, sources = bind_block(parent.dut, [(kid.dut, as_) for kid, as_ in kids])
    _write(Path(args.outdir), (parent, parent.files(binds, sources)), *((kid, kid.files()) for kid, _ in kids))
    return 0


def _cmd_check(args: SimpleNamespace) -> int:
    module, _ = _models(args)
    factory = MODEL_REGISTRY.get(module.dut)
    if factory is None:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise UsageError(f"no reference model for module '{module.dut}' (known: {known})")
    model = factory()
    try:
        report = check_bundle_on_model(module.txns, module.properties(), model)
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


# The options, one row each: spellings, attribute, default, metavar, help, and how a value is read: None for a
# flag, which stores True; `str` or `integer` for one value; a tuple for one of its values; `list` for a value
# that may repeat, each one kept in order. `check` takes the first six, `gen` the first nine, `link` all ten.
_OPTIONS = (
    ("-h/--help", "help", None, None, "show this help message and exit", None),
    ("--clk", "clk", "clk", "CLK", "clock port name (default: clk)", str),
    ("--rst", "rst", "rst_n", "RST", "reset port name (default: rst_n)", str),
    ("--rst-active-high", "rst_active_high", False, None, "treat the reset as active high (default: active low)", None),
    ("--bounded", "bounded", None, "N", "replace unbounded eventualities with an N-cycle window", integer),
    ("--max-outstanding", "max_outstanding", None, "N|TNAME=N",
     "outstanding counter capacity, globally or per transaction", list),
    ("-o/--outdir", "outdir", "out", "OUTDIR", "output directory (default: out)", str),
    ("--tool", "tool", "symbiyosys", "{" + ",".join(TOOLS) + "}", "proof tool to drive", TOOLS),
    ("--assert-inputs", "assert_inputs", False, None,
     "emit with ASSERT_INPUTS=1 so environment assumptions become assertions", None),
    ("--child", "child", None, "PATH=am[,as]", "child RTL file with link flags, repeatable", list),
)
_COMMANDS = {  # name: (help, function, options)
    "gen": ("generate a testbench bundle", _cmd_link, _OPTIONS[:9]),
    "check": ("run the built-in reference machine against the generated properties", _cmd_check, _OPTIONS[:6]),
    "link": ("generate a parent bundle with child testbenches folded in", _cmd_link, _OPTIONS),
}


def _help(command: str) -> str:
    """`autoft -h` (command "") or `autoft <command> -h`; its first line is the usage line of a usage error."""
    about, _, rows = _COMMANDS[command] if command else (
        "Generate formal testbenches from annotated RTL module interfaces.", None, _OPTIONS[:1])
    flags = (f"[{row[0].split('/')[0]}{' ' + row[3] if row[3] else ''}]" for row in rows)
    usage = " ".join([f"autoft {command}".rstrip(), *flags, "input" if command else "{" + ",".join(_COMMANDS) + "} ..."])
    items = [("input", "annotated RTL file")] if command else [(name, c[0]) for name, c in _COMMANDS.items()]
    items += [(row[0].replace("/", ", ") + (f" {row[3]}" if row[3] else ""), row[4]) for row in rows]
    width = max(len(left) for left, _ in items)
    return "\n".join([f"usage: {usage}", "", about, "", *(f"  {left:<{width}}  {right}" for left, right in items)])


def _fail(command: str, message: str) -> None:
    """Print the usage line and `message` to stderr, as argparse does, and exit 2."""
    prog = f"autoft {command}".rstrip()
    print(_help(command).splitlines()[0], f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def _option(word: str, rows: tuple, command: str) -> tuple | None:
    """(the row of `rows` that `word` names, None if none does, and its attached value); None for a value.

    As argparse reads it: `-oDIR` is `-o DIR`, a unique prefix of a long
    option names it, and a word that is a negative number or holds a space
    is a value.
    """
    if word[:1] != "-" or word == "-":
        return None
    spelled = {spelling: row for row in rows for spelling in row[0].split("/")}
    name, eq, attached = word.partition("=")
    if word[1] != "-" and name not in spelled:  # `-oDIR`: a short option with its value attached
        name, eq, attached = word[:2], word[2:], word[2:]
    hits = [name] if name in spelled else [s for s in spelled if s.startswith(name) and name[1] == "-"]
    if len(hits) > 1:
        _fail(command, f"ambiguous option: {word} could match {', '.join(hits)}")
    if hits:
        return spelled[hits[0]], attached if eq else None
    return None if " " in word or word[1:].replace(".", "", 1).isdecimal() and word[-1] != "." else (None, None)


def parse_args(argv: list[str] | None = None) -> SimpleNamespace:
    """The command line (`sys.argv[1:]` if None) read by `_OPTIONS`, as `autoft`'s argparse parser read it.

    `-h` prints the help and exits 0; a usage error prints argparse's usage
    line and message and exits 2. Unknown options and extra values are
    reported only once the whole line is read, so a later `-h` still helps.
    """
    words = iter(sys.argv[1:] if argv is None else argv)
    command, rows, args, extras, dashed = "", _OPTIONS[:1], {"input": None}, [], False
    for word in words:
        hit = None if dashed or word == "--" else _option(word, rows, command)
        if word == "--" and command and not dashed:
            dashed = True
        elif hit is None and not command:
            if word not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                _fail("", f"argument command: invalid choice: {word!r} (choose from {choices})")
            command, (_, func, rows) = word, _COMMANDS[word]
            args.update({"command": command, "func": func, "child": None}, **{row[1]: row[2] for row in rows[1:]})
        elif hit is None and args["input"] is None:
            args["input"] = word
        elif hit is None or hit[0] is None:
            extras.append(word)
        elif hit == (_OPTIONS[0], None):
            print(_help(command))
            raise SystemExit(0)
        else:
            (name, dest, _, _, _, read), value = hit
            if read is None and value is not None:
                _fail(command, f"argument {name}: ignored explicit argument {value!r}")
            if read is not None and value is None:
                value = next(words, None)
                if value is None or value == "--" or _option(value, rows, command) is not None:
                    _fail(command, f"argument {name}: expected one argument")
            try:
                value = True if read is None else integer(value) if read is integer else value
            except ValueError:
                _fail(command, f"argument {name}: invalid integer value: {value!r}")
            if isinstance(read, tuple) and value not in read:
                _fail(command, f"argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, read))})")
            args[dest] = [*(args[dest] or ()), value] if read is list else value
    if not command or args["input"] is None:
        _fail(command, f"the following arguments are required: {'input' if command else 'command'}")
    if extras:
        _fail("", f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**args)


def build_arg_parser() -> ModuleType:
    """This module, whose `parse_args(argv)` reads a command line: for callers written against argparse."""
    return sys.modules[__name__]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
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
