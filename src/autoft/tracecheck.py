"""Bounded explicit-trace semantics: the evaluating back-end of the property IR.

This is the desk-scale oracle. `eval_property` evaluates a property's node
tree (`autoft.sva`), the same tree the emitter renders, against a concrete
cycle-by-cycle trace; it never reads the rendered text. Each aux register
(outstanding counter, in-flight bit, sampled data) is derived by its node's
own `update`, the Python expression of the update rule its `declare()`
emits, in the registered view: the value during cycle i reflects
handshakes strictly before i, and the counter wraps at its declared width.

A trace supplies the ports, the verbatim wires of explicit attribute
bindings and every symbolic id, each read by its name. Every other
generated signal (a handshake, a register) is derived by its node's rule and
never read from the trace, so a trace column of such a name changes nothing.

Property bodies are rendered into the source of one Python function
(`_Source`), so no trace pays for walking the node trees or for a call per
node. The function reads the bodies' columns once, then runs one loop over
the cycles. In each cycle a node that two parents read is computed once,
into a local, and any other is written inline in its one reader; the
registers are local state, all given their next values at the end of the
cycle. Each property shape is a few statements in that loop. The source
depends only on the bodies' structure: every signal or id name, counter
mask, sampled width, bound and `hi` is an argument, so no text from the
input is ever compiled, and code is cached by its source text, one compile
per structure. An unbounded eventuality's window is an argument of each
call, None for never. The function reads the trace's columns and writes
nothing, so a trace is passed as it is. A `Monitor` plans which bodies share
a loop and keeps the loops; it is what `eval_property` and
`models.check_bundle_on_model` both run. `column(node, trace)` runs the same
loop, collecting one node's value per cycle.

A trace's columns are tuples, shared and never copied: `Trace(columns)`
makes each one a tuple once, `extended` shares the parent's, and
`enumerate_traces` sets each trace's columns to the tuples that one product
per signal yields, all run in lockstep, with the length it already knows,
without the constructor's checks; the traces are equal to the constructor's,
in the same representation.

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

from .diagnostics import SpaceTooLargeError, SymbolicWidthError, UnknownSignalError
from .options import integer
from .parser import literal_width_bits
from .properties import GeneratedProperty
from .sva import (
    And, AttribWire, Counter, CoverSeq, Eq, Eventually, Gt, Handshake, Implies, Inflight, IsUnknown, Node, Not,
    Or, PropAnd, Sampled, Sig, Stable, Symbolic, children,
)

DEFAULT_TRACE_BOUND = 2**20

HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"
PENDING = "pending"


class Trace:
    """A fixed-length assignment of integer values to named signals.

    Values are plain ints, or None for unknown (X). Each column is held as
    a tuple, so any sequences will do; a tuple is kept as it is, shared and
    never copied, and `extended` shares the parent's columns. The length is
    the columns' common length, 0 without columns; ragged columns are a
    ValueError.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: Mapping[str, Sequence[int | None]]):
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns differ in length: {sorted(lengths)}")
        self.length = lengths.pop() if lengths else 0
        self.columns: dict[str, tuple[int | None, ...]] = {name: tuple(v) for name, v in columns.items()}

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

        A blank name, a name given twice, a row whose cell count is not the
        header's, or a cell that is neither x nor an integer as
        `options.integer` reads one, is a ValueError naming it (a blank name
        by its 1-based position).
        """
        import csv

        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None:
            raise ValueError("empty trace file")
        names = [n.strip() for n in header]
        if "" in names:
            raise ValueError(f"column {names.index('') + 1} of the trace file has a blank name")
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
                try:
                    column.append(None if cell.strip() in ("x", "X") else integer(cell))
                except ValueError:
                    raise ValueError(f"line {reader.line_num}, column {i} ('{names[i - 1]}') of the trace file "
                                     f"holds '{cell}', neither an integer nor x") from None
        return cls(columns)


class Verdict(namedtuple("Verdict", "property_name outcome cycle", defaults=(None,))):
    """outcome is holds, violated, vacuous or pending; cycle is the earliest violating cycle when violated."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.property_name}: {self.outcome}" + ("" if self.cycle is None else f" at cycle {self.cycle}")


# The outcomes by rank, the index a generated evaluator ends on: a
# conjunction ends as its lower-ranked half, pending before holds before vacuous.
_OUTCOMES = (VIOLATED, PENDING, HOLDS, VACUOUS)
# Source text -> the function `f` it defines: one compile per body or group structure. It is shared by every
# caller in the process, which is safe because what it holds depends on the key alone.
_CODE: dict[str, Callable] = {}
# The nodes a trace supplies by name; every other node is derived.
_READ = (Sig, AttribWire, Symbolic)


class _Source:
    """Bodies, or a node's column, as the source of one loop over the cycles, and the arguments it takes.

    Each expression node is an expression over cycle i. A column read
    (port, verbatim wire or symbolic id) is `c<k>[i]`, the column fetched once
    before the loop; a register is a state variable, 0 before cycle 0 and
    given its next value at the end of each cycle, all at once. A node that
    two parents read is computed once per cycle into a local; any other is
    written inline in its one reader. Each name, mask, bound and `hi` is an
    argument `a<k>`, so the text depends only on the structure: `args`
    holds the value of each. An unbounded eventuality's window is the
    call's `W`. `fail` is what a violation of the body being added runs
    (`member`).

    `reads` holds the count of readers of each node rendered, by `key`, as
    `count` counts them; it may hold other nodes too, and no node is
    walked to render. `read` takes the name of each column fetched, in
    fetch order.
    """

    def __init__(self, reads: dict):
        self.args, self.names, self.serial, self.read, self.reads = [], {}, itertools.count(), [], reads
        self.cols, self.state, self.lets, self.checks, self.nexts, self.fail = [], [], [], [], [], None

    def key(self, node: Node):
        """A column by the name it is read by, a derived node by identity."""
        return node.name if node.__class__ in _READ else id(node)

    def arg(self, value) -> str:
        self.args.append(value)
        return f"a{len(self.args) - 1}"

    def var(self, init: str, into: list | None = None, prefix: str = "s") -> str:
        """A fresh variable, set to `init` before the loop, or where `into` puts it."""
        name = f"{prefix}{next(self.serial)}"
        (self.state if into is None else into).append(f"{name}={init}")
        return name

    def local(self, text: str) -> str:
        """`text` computed once at the start of each cycle: a name."""
        return text if text.isidentifier() else self.var(text, self.lets, "v")

    def before(self, text: str) -> str:
        """A state variable holding `text`'s value of the cycle before: 0 at cycle 0."""
        v = self.var("0")
        self.nexts.append((v, text))
        return v

    def expr(self, node: Node) -> str:
        """The node's value at cycle i."""
        k = self.key(node)
        text = self.names.get(k)
        if text is None:
            text = self.names[k] = self._expr(node) if self.reads[k] == 1 else self.local(self._expr(node))
        return text

    def _expr(self, node: Node) -> str:
        cls, x = node.__class__, self.expr
        if cls is Handshake:
            return x(node.expr)
        if cls in (Counter, Inflight, Sampled):
            v = self.var("0")
            self.nexts.append((v, node.update(v, x(node[1]), x(node[2]), self.arg)))
            return v
        if cls is Not:
            return f"(not {x(node.x)})"
        if cls is And:
            return f"({x(node.a)} and {x(node.b)})"
        if cls is Or:
            return f"({' or '.join(map(x, node.args))})"
        if cls is Eq:
            return f"(({x(node.a)} or 0)==({x(node.b)} or 0))" if node.two_valued else f"({x(node.a)}=={x(node.b)})"
        if cls is Gt:
            return f"({x(node.a)}>{self.arg(node.k)})"
        if cls is IsUnknown:
            return f"({' or '.join(f'{x(item)} is None' for item in node.items)})"
        if cls is Stable:  # each item equals its value of the cycle before; the first cycle holds
            now = [self.local(x(item)) for item in node.items]
            return f"(not i or {' and '.join(f'{v}=={self.before(v)}' for v in now)})"
        self.read.append(node.name)
        return self.var(f"C[{self.arg(node.name)}]", self.cols, "c") + "[i]"

    def rank(self, body: Node) -> str:
        """Add a property's statements to the loop: the index into `_OUTCOMES` it ends on if none returns."""
        cls = body.__class__
        if cls is PropAnd:
            return f"min({self.rank(body.a)},{self.rank(body.b)})"
        if cls is CoverSeq:  # matched once b holds within hi cycles of the last a
            last, hit, hi = self.var("None"), self.var("0"), self.arg(math.inf if body.hi is None else body.hi)
            self.checks += [f"if {self.expr(body.a)}:{last}=i",
                            f"if {self.expr(body.b)} and {last} is not None and i-{last}<={hi}:{hit}=1"]
            return f"1+{hit}"
        if cls is not Implies:  # a boolean body is checked at every cycle
            self.checks.append(f"if not {self.expr(body)}:{self.fail}")
            return "2"
        ant, fired = self.expr(body.ant), self.var("0")
        if body.next_cycle:  # `|=>` reads the antecedent of the cycle before
            ant = self.before(ant)
        con = body.con
        if con.__class__ is not Eventually:
            self.checks.append(f"if {ant}:\n {fired}=1\n if not {self.expr(con)}:{self.fail}")
            return f"3-{fired}"
        # The oldest open obligation: a discharge closes every open one, and the oldest fails when its window
        # closes. An unbounded one's window is the call's W, and never closes while W is None.
        opened, hi = self.var("None"), "W" if con.hi is None else self.arg(con.hi)
        self.checks += [f"if {opened} is None and {ant}:{opened}=i;{fired}=1",
                        f"if {opened} is not None:\n if {self.expr(con.x)}:{opened}=None\n"
                        f" elif i-{opened}=={hi}:{self.fail}"]
        return f"1 if {opened} is not None else 3-{fired}"

    def member(self, body: Node, lone: bool) -> str:
        """Add a body's statements to the loop: its outcome and cycle, the cycle None unless violated.

        A lone body's first violation ends the loop. A group member keeps
        its first violation, and the loop runs on for the others.
        """
        done = self.var("None")
        self.fail = f"{done}=i;break" if lone else f"{done}=i if {done} is None else {done}"
        return f"O[{self.rank(body)}] if {done} is None else V,{done}"

    def loop(self, result: str) -> Callable[..., object]:
        """The loop that returns `result`, as `e(columns, n, W=None)`, its arguments bound.

        The source is compiled on its first use; a later one of the same
        text, from a body of the same structure, reuses that code.
        """
        loop = [*self.lets, *self.checks]
        if self.nexts:
            loop.append(",".join(v for v, _ in self.nexts) + "=" + ",".join(e for _, e in self.nexts))
        lines = [f"def f({','.join(f'a{k}' for k in range(len(self.args)))}):", " def e(C,n,W=None):"]
        if self.cols:
            lines += ["  try:" + ";".join(self.cols), "  except KeyError as x:raise U(*x.args) from None"]
        lines += ["  " + ";".join(self.state)] if self.state else []
        lines += ["  for i in range(n):", *("   " + s.replace("\n", "\n   ") for s in loop),
                  f"  return {result}", " return e"]
        text = "\n".join(lines)
        make = _CODE.get(text)
        if make is None:
            scope = {"O": _OUTCOMES, "V": VIOLATED, "U": UnknownSignalError}
            exec(text, scope)
            make = _CODE[text] = scope.pop("f")
        return make(*self.args)


def column(node: Node, trace: Trace) -> list:
    """The value of an expression node at each cycle of a trace."""
    count(node, reads := {}, {})
    src = _Source(reads)
    out = src.var("[]")
    src.checks.append(f"{out}.append({src.expr(node)})")
    return src.loop(out)(trace.columns, trace.length)


def ids_below(node: Node, seen: dict) -> dict[str, Symbolic]:
    """The symbolic ids `node` reads, by name, in pre-order over `children`.

    `seen` keeps each node's ids by identity, so a node that several bodies
    share is walked once.
    """
    if (ids := seen.get(id(node))) is None:
        ids = seen[id(node)] = {node.name: node} if node.__class__ is Symbolic else {}
        for x in children(node):
            ids.update(ids_below(x, seen))
    return ids


def count(node: Node, reads: dict, first: dict, reader=None) -> set:
    """Count one more reader of `node` into `reads`, and on a node's first read one more of each node directly
    below it; return the first readers, in `first`, of the nodes read before.

    Nodes are counted by `_Source.key`. A node's first reader is `reader`.
    Counted into one `reads`, bodies so leave each node's count of readers
    among them, and a node that several bodies share has its subtree
    counted once, in the body that reads it first.
    """
    met, todo = set(), [node]
    while todo:
        node = todo.pop()
        k = node.name if node.__class__ in _READ else id(node)
        if k in reads:
            reads[k] += 1
            met.add(first[k])
        else:
            reads[k], first[k] = 1, reader
            todo += children(node)
    return met


# The most id assignments one body is checked under: 10 bits of ids.
MAX_ID_ASSIGNMENTS = 1 << 10


class Monitor:
    """Property bodies planned into groups, each group rendered once into one loop: what `eval_property` runs for
    one body, and `models.check_bundle_on_model` for a list.

    Planning walks no body twice. One memoized pass finds the symbolic ids
    each body reads (`ids_below`), so a node that several bodies share is
    walked once. Then the bodies that read the same ids are counted into
    one table of readers in body order (`count`), a node's subtree on its
    first read only, and a body that reads a node read before joins the
    group of that node's first reader. So a group is
    the bodies that read the same ids and are connected through a node they
    share, by the key a loop shares it by (`_Source.key`): in practice one
    transaction's id-free bodies, and its id-reading ones. Each node is read
    from its own group alone, so the table holds the counts that walking
    each group apart would give, and each group is rendered from it into
    one loop over its members (`_Source.member`), walking no body again. A
    node that several members read, a handshake or a register, is so
    computed once per cycle, and the code is compiled once per group
    structure. A group of one body ends at its first violation; in a
    larger one, each member keeps its first violation and the loop runs on
    for the others. The monitor holds the bodies and the loops, and no
    property.

    `groups` holds, per group in order of its first member, its members'
    indices, its loop, the names of the columns the loop reads and the
    `Symbolic` ids its members read, in the order they read them; a monitor
    of one body has one group, whose ids, None here, only `entries` finds.
    A loop
    is `(columns, n, window=None) -> (outcome, cycle, ...)`, an outcome and
    a cycle per member, flat, over a trace of n >= 1 cycles; it reads every
    signal and symbolic id from the columns by its name, and a window that
    is not None cuts each unbounded eventuality to that many cycles, where
    None never closes it. `body` is the lone
    body of a monitor of one, else None, and `run` is the first group's
    loop, which `eval_property` calls on a trace's own columns, without a
    window.

    A check runs each group once per assignment of its ids: every value of
    each id's literal width, their product if it reads several.
    `entries` lists the check's entries: the k-th assignment of every body
    that has one, in body order, so a body that reads no id has one entry.
    `check` runs the groups over a trace in order of their first member,
    each on a dict of only the columns it reads, made once per trace; each
    assignment puts a tuple of n copies of each value in it, so a trace's
    own column of an id's name is overridden. A column that the trace lacks
    is left out of the dict for the group's loop to name, so a missing
    signal raises the UnknownSignalError of the earliest group that reads
    it.
    """

    __slots__ = ("bodies", "body", "run", "groups", "_runs", "_order")

    def __init__(self, bodies: tuple[Node, ...]):
        self.bodies, self.body, self._order = bodies, bodies[0] if len(bodies) == 1 else None, None
        # Per node, the ids below it; per id set, its reader counts and each node key's first reader; per body, its
        # ids and its group's first member; per group, by its first member, its members.
        seen, sets, ids, link, groups = {}, {}, [], list(range(len(bodies))), {}
        for i, body in enumerate(bodies):  # one body is one group: its ids are found only if a check asks
            ids.append(None if self.body is not None else tuple(ids_below(body, seen).values()))
            tops = {i, *(link[j] for j in count(body, *sets.setdefault(ids[i], ({}, {})), i))}
            group = groups[min(tops)] = sorted(m for j in tops for m in groups.pop(j, [j]))  # the groups it joins
            for m in group:
                link[m] = group[0]
        self.groups = []
        for group in sorted(groups.values()):
            src = _Source(sets[ids[group[0]]][0])
            run = src.loop(",".join([src.member(bodies[i], len(group) == 1) for i in group]))
            self.groups.append((group, run, src.read, ids[group[0]]))
        self.run = self.groups[0][1]

    def entries(self, names: Sequence[str]) -> list[tuple[tuple, int, int]]:
        """Each entry of a check, in order: its id assignment, its body's index, and the index of its outcome in
        `check`'s result, its cycle next. Made on the first call and kept.

        `names` names each body's property, for an error. An id whose width
        is not literal, or a body whose ids have more than
        MAX_ID_ASSIGNMENTS values together, raises SymbolicWidthError, for
        the first such body.
        """
        if self._order is None:
            self._runs, results = [], []  # per group, (loop, columns, assignments); per result, (k, body, assignment)
            for group, run, columns, ids in self.groups:  # all of a group's members read the same ids
                ids = tuple(ids_below(self.body, {}).values()) if ids is None else ids
                bits = [literal_width_bits(symb.width_expr) for symb in ids]
                if None in bits:
                    symb = ids[bits.index(None)]
                    raise SymbolicWidthError(f"symbolic id '{symb.name}' has no literal width: '{symb.width_expr}'")
                if (values := 1 << sum(bits)) > MAX_ID_ASSIGNMENTS:
                    named = ", ".join(f"'{symb.name}' of {b} bits" for symb, b in zip(ids, bits))
                    raise SymbolicWidthError(f"property '{names[group[0]]}' reads symbolic ids {named}: {values} "
                                             f"values to check, more than {MAX_ID_ASSIGNMENTS}")
                id_names = [symb.name for symb in ids]
                assignments = [tuple(zip(id_names, v)) for v in itertools.product(*(range(1 << b) for b in bits))]
                self._runs.append((run, columns, assignments))
                results += [(k, i, a) for k, a in enumerate(assignments) for i in group]
            self._order = [(a, i, s) for _, i, s, a in sorted((k, i, 2 * s, a) for s, (k, i, a) in enumerate(results))]
        return self._order

    def check(self, trace: Trace, window: int | None) -> Sequence:
        """The outcomes and cycles of every group run over `trace` under each of its assignments, flat, in the order
        `entries` indexes them; each unbounded eventuality is cut to `window`. `entries` is called first.

        A trace of no cycle runs no loop, and every entry is vacuous.
        """
        traced, n, out = trace.columns, trace.length, []
        for run, columns, assigned in self._runs if n else ():
            own = {name: traced[name] for name in columns if name in traced}
            for a in assigned:
                own.update((name, (v,) * n) for name, v in a)
                out += run(own, n, window)
        return out or (VACUOUS, None) * len(self._order)


def eval_property(p: GeneratedProperty, trace: Trace) -> Verdict:
    """Evaluate one generated property against one trace, by the monitor of its body, made on first use and kept on
    `p`.

    It reads the trace's columns and writes nothing.
    """
    if not (n := trace.length):
        return tuple.__new__(Verdict, (p.name, VACUOUS, None))
    if (monitor := p.monitor) is None or monitor.body is not p.body:
        monitor = p.monitor = Monitor((p.body,))
    run = monitor.run  # read first: a function called straight from a slot is looked up more slowly
    # `tuple.__new__`, not `Verdict(...)`: a namedtuple's own `__new__` is Python code.
    return tuple.__new__(Verdict, (p.name,) + run(trace.columns, n))


def trace_space_size(domain_sizes: Iterable[int], max_len: int) -> int:
    per_cycle = math.prod(domain_sizes)
    return sum(per_cycle**length for length in range(1, max_len + 1))


def enumerate_traces(signals: Mapping[str, int], max_len: int,
                     domains: Mapping[str, Sequence[int | None]] | None = None) -> Iterator[Trace]:
    """Yield every trace of lengths 1..max_len over the given signals.

    `signals` maps names to bit widths; `domains` can replace a signal's value
    set (e.g. to include None for unknown). Order is deterministic: lengths
    ascending, then lexicographic in cycle-major order over the joint states
    (the product of the value sets, in `signals` order). A signal's column is
    drawn from `product(projection, repeat=length)`, its projection being its
    value in each joint state, and the signals' products advance in lockstep,
    so each trace is one product of states, read column by column. Raises
    SpaceTooLargeError when the total count exceeds DEFAULT_TRACE_BOUND,
    and ValueError when no signal is given: a trace without columns has length 0.
    """
    if not signals:
        raise ValueError("no signal to enumerate traces over")
    names, domains = list(signals), domains or {}
    value_sets = [tuple(domains[name]) if name in domains else tuple(range(1 << signals[name])) for name in names]
    total = trace_space_size((len(v) for v in value_sets), max_len)
    if total > DEFAULT_TRACE_BOUND:
        raise SpaceTooLargeError(f"{total} traces exceed the bound of {DEFAULT_TRACE_BOUND}")
    projections, new = list(zip(*itertools.product(*value_sets))), object.__new__  # each signal's value per state
    for length in range(1, max_len + 1):
        for columns in zip(*[itertools.product(values, repeat=length) for values in projections]):
            trace = new(Trace)  # built here, not by the constructor: the columns are tuples, of this length
            trace.columns, trace.length = dict(zip(names, columns)), length
            yield trace
