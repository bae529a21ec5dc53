"""`autoft.cli.parse_args` against the argparse parser it replaced (`reference_cli`), over a corpus of command lines."""
from __future__ import annotations

import re
import shlex

import pytest

from autoft import cli

import reference_cli
from conftest import REPO

# The command lines README shows, without the `autoft` that starts them.
README = [shlex.split(line, comments=True)[1:]
          for line in re.findall(r"^autoft (?:gen|check|link) .*$", (REPO / "README.md").read_text(), re.M)]

# Those of bench/startup.py, bench/parse_stages.py and perfbench/workloads.py, with their paths shortened.
BENCH = [
    ["gen", "fixtures/fifo.sv", "-o", "out"],
    ["gen", "fixtures/mmu_stub.sv", "--tool", "both", "-o", "out"],
    ["check", "fixtures/noc_buffer.sv"],
    ["link", "fixtures/mmu_stub.sv", "--child", "fixtures/pipeline.sv=am,as", "-o", "out"],
    ["gen", "fixtures/pipeline.sv", "--tool", "both", "--assert-inputs", "-o", "_work/gen"],
    ["gen", "_work/wide_4.sv", "--tool", "both", "-o", "_work/warm"],
]

SPELLINGS = [
    ["gen", "a.sv", "--clk=c", "--rst", "r", "--rst-active-high"],
    ["gen", "a.sv", "-o", "d"],
    ["gen", "a.sv", "-od"],
    ["gen", "a.sv", "-o=d"],
    ["gen", "a.sv", "-oa=b"],
    ["gen", "a.sv", "--outdir=d"],
    ["gen", "a.sv", "--out", "d", "--t", "both", "--b", "3", "--max", "2", "--rst-a", "--as"],
    ["gen", "a.sv", "--o=d", "--tool=jaspergold", "--bounded=4", "--max-outstanding=t=2"],
    ["gen", "--clk", "c", "-o", "d", "a.sv", "--tool", "both"],
    ["gen", "--", "a.sv"],
    ["gen", "--", "-a.sv"],
    ["gen", "a.sv", "--"],
    ["gen", "--clk", "c", "--", "--rst"],
    ["gen", "-", "--clk", "-"],
    ["gen", "a.sv", "--clk", "-a b", "--rst", "-1", "-o", "-.5"],
    ["gen", "a.sv", "--clk", "-\u0663", "--rst", "-1.25", "-o", "--x y"],
    ["gen", "a.sv", "--clk", "", "--rst="],
    ["gen", "", "--clk", "a", "--clk", "b"],
    ["gen", "a.sv", "--bounded", "-1"],
    ["gen", "a.sv", "--bounded", "0", "--bounded", "7"],
    ["check", "a.sv", "--max-outstanding", "1", "--max-outstanding", "t=2", "--max-outstanding=u=3"],
    ["link", "a.sv", "--child", "b.sv=am", "--child=c.sv=am,as", "--ch", "d.sv", "-o", "d"],
    ["link", "--child", "b.sv=am", "a.sv", "--max-outstanding", "2", "--max-outstanding", "b=1"],
    ["gen", "--cl=c", "gen"],
]

HELP = [["-h"], ["--help"], ["--he"], ["-h", "gen"], ["gen", "-h"], ["check", "--help"], ["link", "--h"],
        ["gen", "a.sv", "b.sv", "-h"], ["check", "-o", "x", "a.sv", "-h"], ["link", "a.sv", "--he", "--frob"]]

MALFORMED = [
    [], ["frob"], ["frob", "a.sv"], ["--clk", "c"], ["--frob", "gen", "a.sv"], ["-hx"], ["--help=x"],
    ["--", "gen", "a.sv"], ["gen"], ["check", "--clk", "c"], ["gen", "a.sv", "b.sv"], ["gen", "--", "a.sv", "b.sv"],
    ["gen", "a.sv", "--", "--"], ["gen", "a.sv", "--frob"], ["gen", "-x", "a.sv"], ["gen", "a.sv", "-x y"],
    ["check", "a.sv", "-o", "x"], ["check", "-o", "x", "a.sv"], ["check", "a.sv", "--tool", "both"],
    ["check", "a.sv", "--assert-inputs"], ["gen", "a.sv", "--child", "b.sv=am"],
    ["gen", "a.sv", "--clk"], ["gen", "a.sv", "-o"], ["gen", "a.sv", "--clk", "--rst", "r"],
    ["gen", "a.sv", "--clk", "--"], ["gen", "a.sv", "--clk", "-x"], ["gen", "a.sv", "--clk", "--rs"],
    ["link", "a.sv", "--child"],
    ["gen", "a.sv", "--tool", "jasper"], ["gen", "a.sv", "--tool", "Both"], ["link", "a.sv", "--tool="],
    *(["gen", "a.sv", "--bounded", value] for value in ("1_0", "\u0663", "x", "", "+", "1.5", "-x", "-5.")),
    ["gen", "a.sv", "--bounded=\u0663"],
    ["gen", "a.sv", "--rs", "r"], ["link", "a.sv", "--c", "c"], ["gen", "a.sv", "--r=x"],
    ["gen", "a.sv", "--assert-inputs=1"], ["gen", "a.sv", "--rst-active-high="], ["gen", "a.sv", "-hx"],
    ["gen", "a.sv", "--=x"], [""], ["gen", "gen", "a.sv"],
]


def outcome(parse_args, argv, capsys):
    """(exit code or None, the attributes read, the last line printed to stderr)."""
    try:
        args = vars(parse_args(list(argv)))
        code = None
    except SystemExit as exc:
        args, code = None, exc.code
    err = capsys.readouterr().err.splitlines()
    return code, args, err[-1] if err else ""


@pytest.mark.parametrize("argv", README + BENCH + SPELLINGS, ids=shlex.join)
def test_valid_lines_read_as_argparse_reads_them(argv, capsys):
    expected = outcome(reference_cli.build_arg_parser().parse_args, argv, capsys)
    assert expected[0] is None
    assert outcome(cli.build_arg_parser().parse_args, argv, capsys) == expected


def test_the_corpus_covers_every_command_line_in_readme():
    assert len(README) >= 6 and {argv[0] for argv in README} == set(cli._COMMANDS)


@pytest.mark.parametrize("argv", HELP, ids=shlex.join)
def test_help_exits_zero_as_argparse_does(argv, capsys):
    assert outcome(reference_cli.build_arg_parser().parse_args, argv, capsys)[0] == 0
    assert outcome(cli.parse_args, argv, capsys)[0] == 0


@pytest.mark.parametrize("argv", MALFORMED, ids=shlex.join)
def test_malformed_lines_exit_two_with_argparse_message(argv, capsys):
    expected = outcome(reference_cli.build_arg_parser().parse_args, argv, capsys)
    assert expected[0] == 2
    assert outcome(cli.parse_args, argv, capsys) == expected


def help_text(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def reference_commands():
    """{subcommand: (its help, its argparse parser)} of the reference parser."""
    sub = next(a for a in reference_cli.build_arg_parser()._actions if a.dest == "command")
    return {c.dest: (c.help, sub.choices[c.dest]) for c in sub._choices_actions}


def test_top_help_lists_the_subcommands(capsys):
    text = help_text(["-h"], capsys)
    assert text.startswith("usage: autoft [-h] {gen,check,link} ...\n")
    for name, (about, _) in reference_commands().items():
        assert re.search(rf"^  {name} +{re.escape(about)}$", text, re.M)


@pytest.mark.parametrize("command", ["gen", "check", "link"])
def test_command_help_lists_every_flag_with_its_metavar_and_help(command, capsys):
    text = help_text([command, "--help"], capsys)
    for action in reference_commands()[command][1]._actions:
        spelling = action.option_strings[-1] if action.option_strings else action.dest
        if action.option_strings and action.nargs != 0:
            choices = "{" + ",".join(action.choices) + "}" if action.choices else None
            spelling += " " + (action.metavar or choices or action.dest.upper())
        assert re.search(rf"^  (-\w, )?{re.escape(spelling)} +{re.escape(action.help)}$", text, re.M), spelling
    assert text.startswith(f"usage: autoft {command} [-h] [--clk CLK] ")
