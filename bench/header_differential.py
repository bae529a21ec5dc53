"""Compare `parse_module` of two checkouts on seeded mutants of the fixtures.

    python3 bench/header_differential.py --src OTHER/src             # OTHER against this checkout
    python3 bench/header_differential.py --src OTHER/src --mutants 20000 --seed 1

Run from anywhere; stdlib only. A mutant inserts one token from `TOKENS` into
a fixture. Half the mutants insert it at a random place between the start of
the fixture's `module` keyword and the end of the `);` that closes its port
list, so they exercise the header lists: where a list closes, where it
splits, and how a parameter item splits at its `=`. The other half insert it
anywhere in the file, body included, so they exercise where lexing may stop:
comment openers and closers, markers, marked lines, a second `module` and
directive lines. Each mutant is parsed by both sides, and these must agree:
whether it raises, with which error codes; every diagnostic (code, message,
line, column); the parameters; the ports; and the annotations. A port's or
an annotation's line and column are read from its span on a side whose
records hold one, and located from its source offset by the parsed module
(`ParsedModule.spans`) on a side whose records hold that. One JSON
object is printed, with the number of mutants, of those that raised, of
mismatches and the first few mismatches. The exit status is 1 when any
mutant differs.
"""
from __future__ import annotations

import argparse
import json
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import twin  # noqa: E402
from parse_stages import FIXTURES  # noqa: E402

TOKENS = ("(", ")", "[", "]", "{", "}", ",", ";", "=", "==", "<=", '"', '")"', "//", "/*", "*/", "AUTOSVA",
          "\n// AUTOSVA z: zp -in> zq\n", "module z (input a);", "\n`ifdef Z\n")
_HEADER_RE = re.compile(r"^module\b.*?^\);", re.MULTILINE | re.DOTALL)


def positions(pm, records: list) -> list[tuple[int, int]]:
    """Each record's line and column: its span on a side whose records hold one, else its offset located by `pm`."""
    spans = pm.spans([r.offset for r in records]) if hasattr(pm, "spans") else [r.span for r in records]
    return [(span.line, span.column) for span in spans]


def payload(p) -> tuple:
    """A payload's type and fields but its position, which `positions` reads."""
    return (type(p).__name__, *p) if type(p).__name__ == "RelationDecl" else (type(p).__name__, *p[:3], *p[4:])


def projection(af, source: str) -> tuple:
    """What the two sides must agree on for one source."""
    try:
        pm = af.parser.parse_module(source, "m.sv")
    except af.diagnostics.AutoFtError as exc:
        return ("raised", [(d.code, d.message, d.span.line, d.span.column) for d in exc.diagnostics])
    bound = [a.payload for a in pm.annotations if type(a.payload).__name__ != "RelationDecl"]
    return (
        [(d.code, d.message, d.span.line, d.span.column) for d in pm.diagnostics],
        [(p.name, p.value_expr) for p in pm.parameters],
        [(s.direction, s.name, s.width_expr, s.opaque_type, *at)
         for s, at in zip(pm.signals, positions(pm, pm.signals))],
        [(a.raw_text, *at, payload(a.payload)) for a, at in zip(pm.annotations, positions(pm, pm.annotations))],
        positions(pm, bound),
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", type=Path, required=True, help="the src/ directory of the checkout compared against")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--mutants", type=int, default=20000, help="mutants in total")
    args = ap.parse_args()
    before, after = twin.sides(args, ("parser", "diagnostics")).values()
    texts = [(ROOT / "fixtures" / f"{name}.sv").read_text(encoding="utf-8") for name in FIXTURES]
    headers = [_HEADER_RE.search(text).span() for text in texts]
    rng = random.Random(args.seed)
    raised = 0
    mismatches = []
    for _ in range(args.mutants):
        k = rng.randrange(len(texts))
        at = rng.randint(*headers[k]) if rng.random() < 0.5 else rng.randint(0, len(texts[k]))
        mutant = texts[k][:at] + rng.choice(TOKENS) + texts[k][at:]
        old, new = projection(before, mutant), projection(after, mutant)
        raised += old[0] == "raised"
        if old != new:
            mismatches.append({"fixture": FIXTURES[k], "at": at, "before": old, "after": new})
    print(json.dumps({"src": str(args.src), "seed": args.seed, "mutants": args.mutants, "raised": raised,
                      "mismatches": len(mismatches), "first": mismatches[:3]}, indent=1))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
