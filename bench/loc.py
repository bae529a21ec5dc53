"""Line counts of the `autoft` modules, optionally beside another checkout's.

    python3 bench/loc.py                    # this checkout
    python3 bench/loc.py --src OTHER/src    # OTHER is "before", this checkout "after"

Run from anywhere; stdlib only. For each module of `src/autoft` it prints the
`wc -l` count ("lines") and the count of lines that hold code ("code"): lines
that are blank, hold only a comment, or belong to a docstring (the leading
string of a module, class or function) are left out. A line that holds code
and a trailing comment is code. With `--src`, each side gets its two columns
and a module present on one side only counts 0 on the other.
"""
from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(lines as `wc -l` counts them, lines of code)."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - _docstring_lines(ast.parse(text)))


def counts(src: Path) -> dict[str, tuple[int, int]]:
    return {p.name: count(p.read_text()) for p in sorted((src / "autoft").glob("*.py"))}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, help="the src/ directory of the checkout to show as 'before'")
    args = ap.parse_args()
    after = counts(ROOT / "src")
    sides = [after] if args.src is None else [counts(args.src), after]
    names = sorted(set().union(*sides))
    header = ["module"] + (["lines", "code"] if len(sides) == 1 else
                           ["before lines", "before code", "after lines", "after code"])
    rows = [[name] + [n for side in sides for n in side.get(name, (0, 0))] for name in names]
    rows.append(["total"] + [sum(r[i] for r in rows) for i in range(1, len(header))])
    width = max(len(r[0]) for r in rows)
    print(f"{header[0]:<{width}}" + "".join(f"{h:>13}" for h in header[1:]))
    for r in rows:
        print(f"{r[0]:<{width}}" + "".join(f"{n:>13}" for n in r[1:]))


if __name__ == "__main__":
    main()
