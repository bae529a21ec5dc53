"""The argparse parser that `autoft` used before its table-driven reader, kept as the reader's reference.

`autoft.cli.parse_args` must read every command line as this parser does:
the same attributes, present on the same subcommands, and exit 2 on the same
malformed lines. `tests/test_cli_reader.py` runs a corpus through both.
"""
from __future__ import annotations

import argparse

from autoft.cli import _cmd_check, _cmd_link, integer
from autoft.options import TOOLS


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


def build_arg_parser() -> argparse.ArgumentParser:
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
