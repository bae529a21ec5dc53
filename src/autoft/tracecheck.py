"""Bounded explicit-trace semantics: the evaluating back-end of the property IR.

This is the desk-scale oracle. `eval_property` evaluates a property's node
tree (`autoft.sva`), the same tree the emitter renders, against a concrete
cycle-by-cycle trace; it never reads the rendered text. Each aux register
(outstanding counter, in-flight bit, sampled data) is derived by its node's
own `step`, the Python form of the update rule its `declare()` emits, in the
registered view: the value during cycle i reflects handshakes strictly
before i, and the counter wraps at its declared width.

Derived columns are kept in a memo, a dict seeded with a copy of the trace's
columns: one memo per trace, keyed by node; a trace column of a node's name
wins. `eval_property(p, trace)` starts from a fresh memo; given one, it adds
to it, so calls that share a memo derive each node object once.
`models.check_bundle_on_model` evaluates a whole bundle into one memo per
trace, its bodies fixed per id value so that a shared subtree is one object.
A trace column with a wire's or register's own name overrides its
derivation, which lets tests inject counterexample states.

Finite-trace readings:

* a check is violated at the earliest cycle where it fails;
* an eventuality still open when the trace ends reports `pending`, never
  `holds`, because only an unbounded proof could close it; a bounded window
  closed without a discharge is violated at the cycle it closed;
* a cover reports `holds` once its sequence matches, else `pending`;
* a property whose antecedent never fires reports `vacuous`.

Unknown values (None, written `x` in CSV files) are read the way the naive
checkers of the test suite read them: in a boolean position (a valid, an ack, a
handshake, an operand of `&&`, `||`, `!`) an unknown reads as 0. Id
comparisons are raw, so an unknown id equals only an unknown id: with symb=0,
a response carrying an X id does not fire transid_integrity. Data
comparisons and the sampled-data register are two-valued and read an
unknown as 0. `$isunknown` sees unknowns and `$stable` compares raw values.
"""
from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from operator import eq, not_
from typing import Iterable, Iterator, Mapping, Sequence

from .diagnostics import SpaceTooLargeError, UnknownSignalError
from .properties import GeneratedProperty
from .sva import (
    And, Const, Counter, CoverSeq, Eq, Eventually, Gt, Handshake, Implies, Inflight, IsUnknown, Node,
    Not, Or, PropAnd, Sampled, Sig, Stable,
)

DEFAULT_TRACE_BOUND = 2**20

HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"
PENDING = "pending"


class Trace:
    """A fixed-length assignment of integer values to named signals.

    Values are plain ints, or None for unknown (X). Each column is copied
    into a list, so any sequences will do. The length is the columns'
    common length, 0 without columns; ragged columns are a ValueError.
    """

    def __init__(self, columns: Mapping[str, Sequence[int | None]]):
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns differ in length: {sorted(lengths)}")
        self.length = lengths.pop() if lengths else 0
        self.columns: dict[str, list[int | None]] = {name: list(v) for name, v in columns.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, Trace) and self.length == other.length and self.columns == other.columns

    def __repr__(self) -> str:
        return f"Trace(length={self.length}, signals={sorted(self.columns)})"

    def extended(self, extra: Mapping[str, Sequence[int | None]]) -> "Trace":
        merged = dict(self.columns)
        merged.update({k: list(v) for k, v in extra.items()})
        return Trace(merged)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        names = list(self.columns)
        writer.writerow(names)
        for i in range(self.length):
            writer.writerow(["x" if self.columns[n][i] is None else self.columns[n][i] for n in names])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Trace":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            raise ValueError("empty trace file")
        names = [n.strip() for n in rows[0]]
        columns: dict[str, list[int | None]] = {n: [] for n in names}
        for row in rows[1:]:
            if not row or all(not cell.strip() for cell in row):
                continue
            for name, cell in zip(names, row):
                cell = cell.strip()
                columns[name].append(None if cell.lower() == "x" else int(cell))
        return cls(columns)


@dataclass(frozen=True)
class Verdict:
    property_name: str
    outcome: str  # holds | violated | vacuous | pending
    cycle: int | None = None  # earliest violating cycle when violated

    def __str__(self) -> str:
        at = f" at cycle {self.cycle}" if self.cycle is not None else ""
        return f"{self.property_name}: {self.outcome}{at}"


# Evaluation is column-wise: a node yields one column per trace, a value per
# cycle. `cols` is the memo: one per trace, keyed by node; a trace column of a
# node's name wins. A signal, wire or register is first looked up by its name,
# so a trace column overrides its derivation. Every other column is derived
# once and stored under the node's id, beside the node itself, which the memo
# so keeps alive and its id unique. A constant's column is an endless repeat,
# which zips with any column.

def _col(node: Node, cols: dict) -> list:
    if isinstance(node, Sig) and (out := cols.get(node.name)) is not None:
        return out
    hit = cols.get(id(node))
    if hit is None:
        if node.__class__ not in _COLUMN:  # a port, verbatim wire or free id: the trace must have it
            raise UnknownSignalError(node.name)
        hit = cols[id(node)] = (node, _COLUMN[node.__class__](node, cols))
    return hit[1]


def _register(node: Counter | Inflight | Sampled, cols: dict) -> list[int]:
    """The register's value per cycle: 0 at cycle 0, then its node's step over its two input columns."""
    out, v, step = [], 0, node.step
    for a, b in zip(_col(node[1], cols), _col(node[2], cols)):
        out.append(v)
        v = step(v, a, b)
    return out


def _or(node: Or, cols: dict) -> list:
    out = _col(node.args[0], cols)
    for x in node.args[1:]:
        out = [u or v for u, v in zip(out, _col(x, cols))]
    return out


def _eq(node: Eq, cols: dict) -> list[bool]:
    a, b = _col(node.a, cols), _col(node.b, cols)
    if node.two_valued:
        return [(0 if x is None else x) == (0 if y is None else y) for x, y in zip(a, b)]
    return list(map(eq, a, b))


def _stable(node: Stable, cols: dict) -> list[bool]:
    out = None
    for x in node.items:
        c = _col(x, cols)
        held = [True] + [c[i] == c[i - 1] for i in range(1, len(c))]
        out = held if out is None else [u and v for u, v in zip(out, held)]
    return out


def _isunknown(node: IsUnknown, cols: dict) -> list[bool]:
    out = [v is None for v in _col(node.items[0], cols)]
    for x in node.items[1:]:
        out = [u or v is None for u, v in zip(out, _col(x, cols))]
    return out


# Boolean operators read values by truth, so an unknown (None) reads as 0
# there; comparisons see raw values.
_COLUMN = {
    Const: lambda node, cols: itertools.repeat(node.value),
    Handshake: lambda node, cols: _col(node.expr, cols),
    Counter: _register,
    Inflight: _register,
    Sampled: _register,
    Not: lambda node, cols: list(map(not_, _col(node.x, cols))),
    And: lambda node, cols: [x and y for x, y in zip(_col(node.a, cols), _col(node.b, cols))],
    Or: _or,
    Eq: _eq,
    Gt: lambda node, cols: [v > node.k for v in _col(node.a, cols)],
    Stable: _stable,
    IsUnknown: _isunknown,
}


def column(node: Node, trace: Trace) -> list:
    """The per-cycle values of an expression node over a trace."""
    return _col(node, dict(trace.columns))


def _eventually(node: Eventually, fires: list[int], c: list, n: int) -> tuple[list[int], bool]:
    """Violations and whether one is still open, for obligations opened at
    `fires` that `c`, the column of node.x, discharges."""
    if node.hi is None:
        return [], bool(fires) and not any(c[fires[-1]:])
    fails, pending = [], False
    for i in fires:
        if any(c[i:i + node.hi + 1]):
            continue
        if i + node.hi < n:
            fails.append(i + node.hi)
        else:
            pending = True
    return fails, pending


def _obligations(body: Node, cols: dict, n: int) -> tuple[bool, list[int], bool]:
    """(fired, violating cycles, pending) of a property body."""
    if body.__class__ is PropAnd:
        f1, x1, p1 = _obligations(body.a, cols, n)
        f2, x2, p2 = _obligations(body.b, cols, n)
        return f1 or f2, x1 + x2, p1 or p2
    if body.__class__ is not Implies:  # a boolean body is checked at every cycle
        c = _col(body, cols)
        return True, [i for i in range(n) if not c[i]], False
    a, con = _col(body.ant, cols), body.con
    if con.__class__ is Eventually:
        fires = [i for i in range(n) if a[i]]
        return (bool(fires), *_eventually(con, fires, _col(con.x, cols), n))
    c = _col(con, cols)
    if body.next_cycle:
        return any(a[:n - 1]), [i + 1 for i in range(n - 1) if a[i] and not c[i + 1]], False
    return any(a), [i for i in range(n) if a[i] and not c[i]], False


def eval_property(p: GeneratedProperty, trace: Trace, memo: dict | None = None) -> Verdict:
    """Evaluate one generated property against one trace.

    `memo` holds the columns derived so far, seeded with a copy of the trace's
    columns; calls over the same trace that pass the same memo derive each
    node once. Without one, the call starts from a fresh memo.
    """
    n = trace.length
    if n == 0:
        return Verdict(p.name, VACUOUS)
    cols = dict(trace.columns) if memo is None else memo
    body = p.body
    if body.__class__ is CoverSeq:
        a, b = _col(body.a, cols), _col(body.b, cols)
        span = n if body.hi is None else body.hi + 1
        hit = any(a[i] and any(b[i:i + span]) for i in range(n))
        return Verdict(p.name, HOLDS if hit else PENDING)
    fired, fails, pending = _obligations(body, cols, n)
    if fails:
        return Verdict(p.name, VIOLATED, min(fails))
    if pending:
        return Verdict(p.name, PENDING)
    return Verdict(p.name, HOLDS if fired else VACUOUS)


def trace_space_size(domain_sizes: Iterable[int], max_len: int) -> int:
    per_cycle = 1
    for size in domain_sizes:
        per_cycle *= size
    return sum(per_cycle**length for length in range(1, max_len + 1))


def enumerate_traces(
    signals: Mapping[str, int],
    max_len: int,
    domains: Mapping[str, Sequence[int | None]] | None = None,
) -> Iterator[Trace]:
    """Yield every trace of lengths 1..max_len over the given signals.

    `signals` maps names to bit widths; `domains` can replace a signal's value
    set (e.g. to include None for unknown). Order is deterministic: lengths
    ascending, then lexicographic in cycle-major order. Raises
    SpaceTooLargeError when the total count exceeds DEFAULT_TRACE_BOUND.
    """
    names = list(signals)
    value_sets: list[Sequence[int | None]] = []
    for name in names:
        if domains and name in domains:
            value_sets.append(tuple(domains[name]))
        else:
            value_sets.append(tuple(range(1 << signals[name])))
    total = trace_space_size((len(v) for v in value_sets), max_len)
    if total > DEFAULT_TRACE_BOUND:
        raise SpaceTooLargeError(f"{total} traces exceed the bound of {DEFAULT_TRACE_BOUND}")
    states = list(itertools.product(*value_sets))
    for length in range(1, max_len + 1):
        for assignment in itertools.product(states, repeat=length):
            columns = {
                name: [assignment[cycle][k] for cycle in range(length)]
                for k, name in enumerate(names)
            }
            yield Trace(columns)
