"""Mutate the fixtures' annotation lines; count accepted mutants with an ill-formed property module.

    python3 bench/mutation_probe.py                    # this checkout
    python3 bench/mutation_probe.py --src OTHER/src    # the `src/` of another checkout

Run from anywhere; stdlib only. For each of the five bundled fixtures it draws
`--mutants` mutants from `random.Random(seed)`. A mutant changes one annotation
payload line of the fixture by one operator:

- `insert`: a token from `TOKENS` at a random place in the line;
- `delete`: one to three characters;
- `rename`: one identifier of the line becomes a port or an attribute field of
  the fixture;
- `add`: a new annotation line after it, from `_added_line`: a declaration
  (`input`/`output`, with a range or a user type, of a port or of a field),
  an assignment, balanced or not, or a copy of one of the fixture's relations
  under its transaction name in the other case (`FIFO: in -in> out`).

Each mutant goes through `generate_bundle` with default options. A mutant is
rejected when that raises autoft's own error, crashed when it raises anything
else, and otherwise accepted. An accepted mutant's `_prop.sv` is checked with
`tests/wellformed.py`: brackets outside strings balance (else `unbalanced`), no
name is declared twice in the module's scope, as a parameter, port, wire,
logic or localparam or as a label (of an assertion outside a block, or of a
block; else `declared_twice`), no `wire` or `assign` right-hand side holds a
`=` that no comparison takes (else `lone_eq`), no declaration holds `//`
or `/*` (else `comment_in_decl`), and every name that clocks an `@(posedge ...)`
or resets a `disable iff` is declared (else `undeclared_clock_reset`). A module
that fails any of them is `ill_formed`.
One JSON object is printed, with the counts in total and per operator.
"""
from __future__ import annotations

import argparse
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ("fifo", "pipeline", "noc_buffer", "noc_buffer_buggy", "mmu_stub")
SUFFIXES = ("transid_unique", "transid", "active", "stable", "data", "val", "ack")
TOKENS = ("(", ")", "[", "]", "{", "}", "[1:0] ", "= ", ";", ",", "!", " && x", '"("', '"', " ", "//", "/*",
          "input ", "output ", "wire ", "dat_t ", "_ack", "_data", "_val")
OPERATORS = ("insert", "delete", "rename", "add")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
_RELATION_RE = re.compile(r"(\w+)\s*:\s*((\w+)\s*-(?:in|out)>\s*(\w+))")
_PORT_RE = re.compile(r"^\s*(?:input|output)\b[^,\n]*?(\w+)\s*,?\s*$", re.MULTILINE)


def payload_lines(lines: list[str]) -> list[tuple[int, int]]:
    """(line index, column where the payload starts) of every annotation line."""
    out, in_block = [], False
    for i, line in enumerate(lines):
        stripped = line.strip()
        if in_block:
            in_block = stripped != "*/"
            if in_block and stripped:
                out.append((i, len(line) - len(line.lstrip())))
        elif stripped.startswith("// AUTOSVA "):
            out.append((i, line.index("// AUTOSVA ") + len("// AUTOSVA ")))
        elif stripped == "/*AUTOSVA":
            in_block = True
    return out


def _added_line(rng: random.Random, ports: list[str], fields: list[str], relations: list[tuple]) -> str:
    field, port = rng.choice(fields), rng.choice(ports)
    tname, relation = rng.choice(relations)[:2]
    return rng.choice((
        f"input {port}",
        f"{rng.choice(('input', 'output'))} {rng.choice(('', '[1:0] ', 'logic [7:0] ', 'dat_t '))}{field}",
        f"{field} = {port}",
        f"[1:0] {field} = ({port}",
        f"{field} = {{{port}, {port}",
        f"{tname.swapcase()}: {relation}",
    ))


def mutate(rng: random.Random, text: str) -> tuple[str, str]:
    """One mutant of a fixture's text and the operator that made it."""
    lines = text.split("\n")
    ports = _PORT_RE.findall(text[text.index("module"):])
    relations = _RELATION_RE.findall(text)  # (tname, relation, p, q)
    fields = [f"{iface}_{s}" for _, _, *pair in relations for iface in pair for s in SUFFIXES]
    i, col = rng.choice(payload_lines(lines))
    head, payload = lines[i][:col], lines[i][col:]
    op = rng.choice(OPERATORS)
    if op == "insert":
        at = rng.randrange(len(payload) + 1)
        payload = payload[:at] + rng.choice(TOKENS) + payload[at:]
    elif op == "delete":
        at = rng.randrange(len(payload))
        payload = payload[:at] + payload[at + rng.randint(1, 3):]
    elif op == "rename":
        m = rng.choice(list(_IDENT_RE.finditer(payload)))
        payload = payload[: m.start()] + rng.choice(ports + fields) + payload[m.end():]
    else:
        lines.insert(i + 1, head + _added_line(rng, ports, fields, relations))
    lines[i] = head + payload
    return "\n".join(lines), op


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="the src/ directory whose autoft is probed")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--mutants", type=int, default=2000, help="mutants per fixture")
    args = ap.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "tests")]
    from autoft.diagnostics import AutoFtError
    from autoft.emit import generate_bundle
    from autoft.options import GenOptions
    from wellformed import balanced, commented_declarations, declared_twice, lone_eq, undeclared_clock_reset

    rng = random.Random(args.seed)
    counts: Counter = Counter()
    by_op: dict[str, Counter] = {op: Counter() for op in OPERATORS}
    crashes: list[str] = []
    for name in FIXTURES:
        text = (ROOT / "fixtures" / f"{name}.sv").read_text(encoding="utf-8")
        for _ in range(args.mutants):
            mutant, op = mutate(rng, text)
            tally = [counts, by_op[op]]
            try:
                module = generate_bundle(mutant, f"{name}.sv", GenOptions()).property_module.text
            except AutoFtError:
                outcome = ["rejected"]
            except Exception as exc:  # noqa: BLE001 - a crash is what is counted
                outcome = ["crashed"]
                crashes.append(f"{name}: {type(exc).__name__}: {exc}")
            else:
                outcome = ["accepted"]
                if not balanced(module):
                    outcome.append("unbalanced")
                if declared_twice(module):
                    outcome.append("declared_twice")
                if lone_eq(module):
                    outcome.append("lone_eq")
                if commented_declarations(module):
                    outcome.append("comment_in_decl")
                if undeclared_clock_reset(module):
                    outcome.append("undeclared_clock_reset")
                if len(outcome) > 1:
                    outcome.append("ill_formed")
            for c in tally:
                c["mutants"] += 1
                c.update(outcome)
    keys = ("mutants", "rejected", "accepted", "unbalanced", "declared_twice", "lone_eq", "comment_in_decl",
            "undeclared_clock_reset", "ill_formed", "crashed")
    report = {
        "src": args.src, "seed": args.seed,
        **{k: counts[k] for k in keys},
        "by_operator": {op: {k: c[k] for k in keys} for op, c in by_op.items()},
        "crashes": crashes[:5],
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
