"""Two well-formedness checks on an emitted property module's text.

Independent of autoft: they read the text as emitted, with regular
expressions of their own. `bench/mutation_probe.py` counts with them too.
"""
from __future__ import annotations

import re
from collections import Counter

_BRACKET_RE = re.compile(r'"(?:[^"\\\n]|\\.)*"|[()\[\]{}]')  # a string literal is skipped whole
_PAIRS = {")": "(", "]": "[", "}": "{"}
_DECL_KEYWORDS = {"parameter", "localparam", "input", "output", "wire", "logic"}
_ATTRIBUTE_RE = re.compile(r"^\(\*.*?\*\)\s*")  # `(* anyconst *)`
_RANGE_RE = re.compile(r"\[[^\]]*\]")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")


def balanced(text: str) -> bool:
    """Every `()[]{}` outside string literals closes in order."""
    stack = []
    for m in _BRACKET_RE.finditer(text):
        ch = m.group()
        if ch in _PAIRS:
            if not stack or stack.pop() != _PAIRS[ch]:
                return False
        elif ch in "([{":
            stack.append(ch)
    return not stack


def declared_names(text: str) -> list[str]:
    """Names declared as a parameter, port, wire, logic or localparam, in order.

    A declaration is a statement (a line, or a part of one between `;`, once
    ranges are left out) that starts with one of those keywords; its name is
    the last identifier before any `=`.
    """
    names = []
    for line in text.split("\n"):
        for stmt in _RANGE_RE.sub(" ", line).split(";"):
            stmt = _ATTRIBUTE_RE.sub("", stmt.strip())
            words = stmt.split(None, 1)
            if not words or words[0] not in _DECL_KEYWORDS:
                continue
            idents = _IDENT_RE.findall(stmt.split("=", 1)[0])
            if len(idents) > 1:
                names.append(idents[-1])
    return names


def declared_twice(text: str) -> list[str]:
    return sorted(name for name, n in Counter(declared_names(text)).items() if n > 1)
