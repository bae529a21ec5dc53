"""Well-formedness checks on an emitted property module's text.

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
_STRING_RE = re.compile(r'"(?:[^"\\\n]|\\.)*"')
_COMPARISON_RE = re.compile(r"===|!==|==|!=|<=|>=")
_COMMENT_OPENER_RE = re.compile(r"//|/\*")
_BIND_RE = re.compile(r"^[ \t]*bind\s([^;]*);", re.M)
_PAREN_GROUP_RE = re.compile(r"\([^()]*\)")
_LABEL_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_$]*)\s*:\s*(?:assert|assume|cover)\b")
_SCOPE_RE = re.compile(r"\b(?:begin\s*:\s*([A-Za-z_][A-Za-z0-9_$]*)|begin|end)\b")
_CLOCK_RESET_RE = re.compile(r"@\(\s*posedge\s+([A-Za-z_][A-Za-z0-9_$]*)\s*\)"
                             r"|disable\s+iff\s*\(\s*!?\s*([A-Za-z_][A-Za-z0-9_$]*)\s*\)")


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


def _statements(text: str) -> list[tuple[str, str]]:
    """(first word, statement) of each statement: a line, or a part of one between `;`.

    String literals are emptied and ranges left out first, and a leading
    `(* ... *)` attribute is dropped.
    """
    out = []
    for line in text.split("\n"):
        for stmt in _RANGE_RE.sub(" ", _STRING_RE.sub('""', line)).split(";"):
            stmt = _ATTRIBUTE_RE.sub("", stmt.strip())
            out.append(((stmt.split(None, 1) or [""])[0], stmt))
    return out


def declared_names(text: str) -> list[str]:
    """Names declared as a parameter, port, wire, logic or localparam, in order.

    A declaration is a statement that starts with one of those keywords; its
    name is the last identifier before any `=`.
    """
    names = []
    for word, stmt in _statements(text):
        idents = _IDENT_RE.findall(stmt.split("=", 1)[0])
        if word in _DECL_KEYWORDS and len(idents) > 1:
            names.append(idents[-1])
    return names


def labels(text: str) -> list[str]:
    """Labels of the module's own scope, in order: of each assertion outside any block, and each block's name.

    A block runs from a `begin` to its `end`; a label inside one belongs to
    the block's scope. String literals and `//` comments are skipped.
    """
    names, depth = [], 0
    for line in _STRING_RE.sub('""', text).split("\n"):
        line = line.split("//", 1)[0]
        if depth == 0 and (m := _LABEL_RE.match(line)):
            names.append(m[1])
        for m in _SCOPE_RE.finditer(line):
            if m[0] == "end":
                depth -= 1
                continue
            if m[1] and depth == 0:
                names.append(m[1])
            depth += 1
    return names


def declared_twice(text: str) -> list[str]:
    """Names declared more than once in the module's scope, as a declaration or a label."""
    return sorted(name for name, n in Counter(declared_names(text) + labels(text)).items() if n > 1)


def undeclared_clock_reset(text: str) -> list[str]:
    """Names that clock an `@(posedge X)` or reset a `disable iff (X)` or `(!X)` but that the module does not declare."""
    used = {name for m in _CLOCK_RESET_RE.finditer(_STRING_RE.sub('""', text)) for name in m.groups() if name}
    return sorted(used - set(declared_names(text)))


def lone_eq(text: str) -> list[str]:
    """`wire` and `assign` statements whose right-hand side holds a `=` that no comparison takes."""
    return [stmt for word, stmt in _statements(text)
            if word in ("wire", "assign") and "=" in _COMPARISON_RE.sub(" ", stmt.partition("=")[2])]


def commented_declarations(text: str) -> list[str]:
    """Declaration statements that hold `//` or `/*`, which comments out the rest of the line."""
    return [stmt for word, stmt in _statements(text) if word in _DECL_KEYWORDS and _COMMENT_OPENER_RE.search(stmt)]


def bound_twice(text: str) -> list[tuple[str, str]]:
    """(target module, instance) of each `bind` statement that occurs more than once.

    A bind statement starts a line and ends at its `;`. Its parenthesized
    groups, the parameter overrides and port connections, are dropped
    innermost first, which leaves the target as the first identifier and the
    instance as the last.
    """
    binds = []
    for m in _BIND_RE.finditer(text):
        stmt = m.group(1)
        while (bare := _PAREN_GROUP_RE.sub(" ", stmt)) != stmt:
            stmt = bare
        idents = _IDENT_RE.findall(stmt)
        binds.append((idents[0], idents[-1]))
    return sorted(pair for pair, n in Counter(binds).items() if n > 1)
