"""Bounded explicit-trace semantics: the evaluating back-end of the property IR.

This is the desk-scale oracle. `eval_property` evaluates a property's node
tree (`autoft.sva`), the same tree the emitter renders, against a concrete
cycle-by-cycle trace; it never reads the rendered text. Each aux register
(outstanding counter, in-flight bit, sampled data) is derived by its node's
own `values`, one loop over its two input columns that is the Python form of
the update rule its `declare()` emits, in the registered view: the value
during cycle i reflects handshakes strictly before i, and the counter wraps
at its declared width.

A trace supplies the ports, the verbatim wires of explicit attribute
bindings and any free symbolic id, each read by its name. Every other
generated signal (a handshake, a register) is derived by its node's rule and
never read from the trace, so a trace column of such a name changes nothing.

Each property body is compiled once into closures (`Compiler`), so no trace
pays for walking the node tree: every expression node becomes a column
function over a per-trace memo, and the property above it one function
giving (outcome, cycle). The memo is a dict seeded with a copy of the trace's
columns. It holds, besides those, only the derived columns that more than
one parent reads, each under a key of its own closure, so such a column is
derived once per trace; a column with one reader is derived by that
reader's call and never stored. `eval_property(p, trace)` compiles `p.body`
alone on first use and keeps the evaluator on `p`, so the memo holds the
subtrees read twice within that body. `models.check_bundle_on_model`
compiles a whole bundle through one `Compiler`, fixing each symbolic id to a
constant while it compiles: a subtree compiles once per value of the ids it
reads, so properties that share a subtree share its closure, and that
closure is memoized. No node is rewritten on the way.

`enumerate_traces` builds each trace's columns in one transposition and
sets them, with the length it already knows, without the checks and copies
of `Trace(columns)`; the traces are equal to the constructor's.

Finite-trace readings:

* a check is violated at the earliest cycle where it fails;
* an eventuality still open when the trace ends reports `pending`, never
  `holds`, because only an unbounded proof could close it; a bounded window
  closed without a discharge is violated at the cycle it closed;
* a cover reports `holds` once its sequence matches, else `pending`;
* a property whose antecedent never fires reports `vacuous`;
* `|=>` starts its consequent in the cycle after the antecedent, so an
  antecedent firing in the last cycle starts no attempt: with nothing else
  firing, `a |=> b` and `a |=> s_eventually (b)` alike report `vacuous`.

Unknown values (None, written `x` in CSV files) are read the way the naive
checkers of the test suite read them: in a boolean position (a valid, an ack, a
handshake, an operand of `&&`, `||`, `!`) an unknown reads as 0. The
outstanding count, the only operand of `>`, is derived and never unknown. Id
comparisons are raw, so an unknown id equals only an unknown id: with symb=0,
a response carrying an X id does not fire transid_integrity. Data
comparisons and the sampled-data register are two-valued and read an
unknown as 0. `$isunknown` sees unknowns and `$stable` compares raw values.
"""
from __future__ import annotations

import io
import itertools
import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import reduce
from operator import eq, not_

from .diagnostics import SpaceTooLargeError, UnknownSignalError
from .properties import GeneratedProperty
from .sva import (
    And, Counter, CoverSeq, Eq, Eventually, Gt, Handshake, Implies, Inflight, IsUnknown, Node, Not, Or,
    PropAnd, Sampled, Stable, Symbolic, children,
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
        return Trace({**self.columns, **extra})

    def to_csv(self) -> str:
        import csv  # here, not at the top: only trace files need it, and every `autoft` process imports this module

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        names = list(self.columns)
        writer.writerow(names)
        for i in range(self.length):
            writer.writerow(["x" if self.columns[n][i] is None else self.columns[n][i] for n in names])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Trace":
        """A trace from a header of names and one row of cells per cycle; blank rows are skipped.

        A name given twice, a row whose cell count is not the header's, or a
        cell that is neither x nor a decimal integer in ASCII digits, is a
        ValueError naming it: `int` alone would also read `1_0` and other
        scripts' digits.
        """
        import csv

        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None:
            raise ValueError("empty trace file")
        names = [n.strip() for n in header]
        columns: dict[str, list[int | None]] = {n: [] for n in names}
        if len(columns) < len(names):
            twice = next(n for i, n in enumerate(names) if n in names[:i])
            raise ValueError(f"trace file names column '{twice}' twice")
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != len(names):
                raise ValueError(f"line {reader.line_num} of the trace file has cell count {len(row)}, "
                                 f"the header {len(names)}")
            for i, (column, cell) in enumerate(zip(columns.values(), row), 1):
                text = cell.strip()
                digits = text[1:] if text[:1] in ("+", "-") else text
                if text in ("x", "X"):
                    column.append(None)
                elif digits.isascii() and digits.isdigit():
                    column.append(int(text))
                else:
                    raise ValueError(f"line {reader.line_num}, column {i} ('{names[i - 1]}') of the trace file "
                                     f"holds '{cell}', neither an integer nor x")
        return cls(columns)


class Verdict(namedtuple("Verdict", "property_name outcome cycle", defaults=(None,))):
    """outcome is holds, violated, vacuous or pending; cycle is the earliest violating cycle when violated."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.property_name}: {self.outcome}" + ("" if self.cycle is None else f" at cycle {self.cycle}")


# Evaluation is column-wise: an expression compiles to a column function,
# which gives the node's column over a trace's memo, a value per cycle. The
# memo is one dict per trace, seeded with a copy of the trace's columns, from
# which a port, verbatim wire or free id is read by its name. Every other
# column is derived by its rule; one that several parents read is stored
# under a key of its own closure (`_memoized`). A fixed id's column is an
# endless repeat, which zips with any column. No closure refers to the
# compiler that built it, so compiled bodies build no reference cycle.

def _signal(name: str) -> Callable[[dict], list]:
    """A port, verbatim wire or free id: the trace must have it."""
    def col(memo):
        out = memo.get(name)
        if out is None:
            raise UnknownSignalError(name)
        return out
    return col


def _memoized(fn: Callable[[dict], list]) -> Callable[[dict], list]:
    """`fn`, its column derived once per memo."""
    key = object()

    def col(memo):
        out = memo.get(key)
        if out is None:
            out = memo[key] = fn(memo)
        return out
    return col


def _register(node: Counter | Inflight | Sampled, a: list, b: list) -> list[int]:
    """The register's value per cycle, by its node's loop over its two input columns."""
    return node.values(a, b)


def _and(a, b):
    return lambda memo: [u and v for u, v in zip(a(memo), b(memo))]


def _or(a, b):
    return lambda memo: [u or v for u, v in zip(a(memo), b(memo))]


def _unknown(x):
    return lambda memo: [v is None for v in x(memo)]


def _delayed(x):
    """x one cycle later: the first cycle reads 0, and x's last cycle falls off the trace."""
    return lambda memo: [False, *x(memo)[:-1]]


def _held(x):
    """Per cycle, whether x holds its value of the cycle before; the first cycle holds."""
    def col(memo):
        c = x(memo)
        return [True, *map(eq, c[1:], c)]
    return col


# One rule per derived node class: the node and the column functions of the
# nodes `children` lists give the node's column function; an operator over a
# tuple of operands folds its binary form over them. Boolean operators read
# values by truth, so an unknown (None) reads as 0 there; `==` sees raw
# values unless two-valued.
_RULES = {
    Handshake: lambda node, expr: expr,
    **dict.fromkeys((Counter, Inflight, Sampled), lambda node, a, b: lambda memo: _register(node, a(memo), b(memo))),
    Not: lambda node, x: lambda memo: list(map(not_, x(memo))),
    And: lambda node, a, b: _and(a, b),
    Or: lambda node, *args: reduce(_or, args),
    Eq: lambda node, a, b: (lambda memo: [(x or 0) == (y or 0) for x, y in zip(a(memo), b(memo))]) if node.two_valued
    else lambda memo: list(map(eq, a(memo), b(memo))),
    Gt: lambda node, a: lambda memo, k=node.k: [v > k for v in a(memo)],
    Stable: lambda node, *items: reduce(_and, map(_held, items)),
    IsUnknown: lambda node, *items: reduce(_or, map(_unknown, items)),
}


class Compiler:
    """Compiles property bodies into evaluators, each subtree once.

    `properties(bodies)` gives the evaluator of each (body, ids) pair, a
    function `(memo, n) -> (outcome, cycle)` over a trace's memo and length.
    `ids` fixes symbolic ids to values: an id it names compiles to a
    constant column, while without it an id is read from the trace like any
    signal. A subtree compiles once per value of the ids it reads, so one
    that reads no id is one closure shared by every body this compiler
    builds, and one that reads an id is one closure per value. `window`, if
    given, cuts each unbounded eventuality to that many cycles.

    `properties` walks every body before it builds any closure, counting the
    parents that read each column; each body's evaluator is one more reader
    of the columns its shape reads. Only a derived column read by more than
    one parent is memoized; any other is derived by its one reader's call.
    `column(node, ids)` follows the same rule, the node itself its one
    reader.
    """

    def __init__(self, window: int | None = None):
        self.window = window
        self.reads: dict[int, dict[str, Symbolic]] = {}
        # Keyed by (id(node), the values `ids` gives the ids it reads, or () when `ids` fixes none): how many
        # parents read the column, and its column function.
        self.readers: dict[tuple, int] = {}
        self.columns: dict[tuple, Callable[[dict], list]] = {}
        # Each derived column walked and not yet built, after its children: (key, node, the children's keys).
        self.pending: list[tuple[tuple, Node, list[tuple]]] = []

    def ids(self, node: Node) -> dict[str, Symbolic]:
        """The symbolic ids `node` reads, by name, in pre-order over `children`."""
        reads = self.reads.get(id(node))
        if reads is None:
            reads = self.reads[id(node)] = {node.name: node} if node.__class__ is Symbolic else {
                name: symb for x in children(node) for name, symb in self.ids(x).items()}
        return reads

    def properties(self, bodies: Iterable[tuple[Node, Mapping[str, int]]]) -> list[Callable]:
        """The evaluator of each (body, ids) pair, for traces of n >= 1 cycles."""
        plans = [self._plan(body, ids) for body, ids in bodies]
        self._build()
        return [plan() for plan in plans]

    def column(self, node: Node, ids: Mapping[str, int] = {}) -> Callable[[dict], list]:
        """The column function of an expression node, its ids fixed by `ids`."""
        key = self._walk(node, ids)
        self._build()
        return self.columns[key]

    def _walk(self, node: Node, ids: Mapping[str, int]) -> tuple:
        """One more reader of the node's column, walking its subtree on the first: the column's key."""
        key = (id(node), tuple(map(ids.get, self.ids(node))) if ids else ())
        seen = self.readers.get(key, 0)
        self.readers[key] = seen + 1
        if not seen and node.__class__ in _RULES:
            self.pending.append((key, node, [self._walk(x, ids) for x in children(node)]))
        elif not seen:
            fixed = node.__class__ is Symbolic and node.name in ids
            self.columns[key] = (lambda memo, v=itertools.repeat(ids[node.name]): v) if fixed else _signal(node.name)
        return key

    def _build(self) -> None:
        columns, readers = self.columns, self.readers
        for key, node, below in self.pending:  # children first, so each rule finds its operands' columns
            col = _RULES[node.__class__](node, *[columns[k] for k in below])
            columns[key] = _memoized(col) if readers[key] > 1 else col
        self.pending.clear()

    def _plan(self, body: Node, ids: Mapping[str, int]) -> Callable[[], Callable]:
        """Walk a property body's columns now: a function giving its evaluator once they are built.

        Each walk is a default argument, so it runs when its lambda is made.
        """
        cls, col = body.__class__, self.columns.__getitem__
        if cls is PropAnd:
            return lambda a=self._plan(body.a, ids), b=self._plan(body.b, ids): _both(a(), b())
        if cls is CoverSeq:
            return lambda a=self._walk(body.a, ids), b=self._walk(body.b, ids): _cover(col(a), col(b), body.hi)
        if cls is not Implies:  # a boolean body is checked at every cycle
            return lambda c=self._walk(body, ids): _always(col(c))
        ant, con = self._walk(body.ant, ids), body.con
        if con.__class__ is Eventually:
            # `ant |=> ev` is `ant |-> ev` one cycle later, so it runs on the antecedent shifted by one cycle.
            x, hi = self._walk(con.x, ids), self.window if con.hi is None else con.hi
            return lambda: _eventually(_delayed(col(ant)) if body.next_cycle else col(ant), col(x), hi)
        return lambda c=self._walk(con, ids): _implies(col(ant), col(c), 1 if body.next_cycle else 0)


# The property layer: each shape gives (outcome, cycle) over a memo and a
# length. A conjunction is as bad as its worse half, in the order violated
# (at the earlier cycle), pending, holds, vacuous.
_RANK = {VIOLATED: 0, PENDING: 1, HOLDS: 2, VACUOUS: 3}


def _both(first, second):
    return lambda memo, n: min(first(memo, n), second(memo, n), key=lambda v: (_RANK[v[0]], v[1] or 0))


def _cover(a, b, hi):
    def run(memo, n):
        x, y = a(memo), b(memo)
        span = n if hi is None else hi + 1
        return (HOLDS if any(x[i] and any(y[i:i + span]) for i in range(n)) else PENDING), None
    return run


def _always(c):
    def run(memo, n):
        for i, v in enumerate(c(memo)):
            if not v:
                return VIOLATED, i
        return HOLDS, None
    return run


def _implies(ant, con, d):
    """`ant |-> con` when d is 0, `ant |=> con` when d is 1."""
    def run(memo, n):
        a, c = ant(memo), con(memo)
        for i in range(n - d):
            if a[i] and not c[i + d]:
                return VIOLATED, i + d
        return (HOLDS if any(a[:n - d]) else VACUOUS), None
    return run


def _eventually(ant, x, hi):
    """`ant |-> x` within hi cycles, or ever when hi is None, in one forward pass that keeps the oldest
    open obligation: a discharge closes every open one, the oldest fails when its window closes, and it
    is pending if the trace ends first. An unbounded window never closes."""
    def run(memo, n):
        a, c = ant(memo), x(memo)
        opened = None
        for i in range(n):
            if opened is None:
                if not a[i]:
                    continue
                opened = i
            if c[i]:
                opened = None
            elif i - opened == hi:
                return VIOLATED, i
        return (PENDING if opened is not None else HOLDS if any(a) else VACUOUS), None
    return run


def eval_property(p: GeneratedProperty, trace: Trace) -> Verdict:
    """Evaluate one generated property against one trace.

    The property's body is compiled on first use and kept with the property
    until its body is another object. Each call evaluates into a fresh memo,
    seeded with a copy of the trace's columns.
    """
    if not (n := trace.length):
        return Verdict(p.name, VACUOUS)
    compiled = p.compiled
    if compiled is None or compiled[0] is not p.body:
        compiled = p.compiled = (p.body, Compiler().properties([(p.body, {})])[0])
    return Verdict(p.name, *compiled[1](dict(trace.columns), n))


def trace_space_size(domain_sizes: Iterable[int], max_len: int) -> int:
    per_cycle = math.prod(domain_sizes)
    return sum(per_cycle**length for length in range(1, max_len + 1))


def enumerate_traces(signals: Mapping[str, int], max_len: int,
                     domains: Mapping[str, Sequence[int | None]] | None = None) -> Iterator[Trace]:
    """Yield every trace of lengths 1..max_len over the given signals.

    `signals` maps names to bit widths; `domains` can replace a signal's value
    set (e.g. to include None for unknown). Order is deterministic: lengths
    ascending, then lexicographic in cycle-major order. Raises
    SpaceTooLargeError when the total count exceeds DEFAULT_TRACE_BOUND.
    """
    names, domains = list(signals), domains or {}
    value_sets = [tuple(domains[name]) if name in domains else tuple(range(1 << signals[name])) for name in names]
    total = trace_space_size((len(v) for v in value_sets), max_len)
    if total > DEFAULT_TRACE_BOUND:
        raise SpaceTooLargeError(f"{total} traces exceed the bound of {DEFAULT_TRACE_BOUND}")
    states, new = list(itertools.product(*value_sets)), object.__new__
    for length in range(1, max_len + 1):
        for assignment in itertools.product(states, repeat=length):
            # Built here, not by the constructor: the columns are transposed once and have this length.
            trace = new(Trace)
            trace.columns, trace.length = dict(zip(names, map(list, zip(*assignment)))), length
            yield trace
