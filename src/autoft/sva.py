"""The property IR: one small AST for the SVA subset autoft emits.

Every property body and every aux wire or register is a tree of the frozen
nodes below. This module holds the text back-end: `render()` gives a node's
SystemVerilog expression and `declare()` an aux signal's declaration and
update rule. `autoft.tracecheck` is the other back-end; it evaluates the same
nodes over explicit traces and never reads the rendered text.

A register node (`Counter`, `Inflight`, `Sampled`) holds its rule in two
forms, side by side: `declare()` writes it as an `always` block, and
`update(v, a, b, const)` as one Python expression, the register's next
value from its value `v` and this cycle's inputs `a` and `b` (the node's
fields 1 and 2), each given as expression text. The evaluator's generated
loop starts every register at the reset value 0 and runs this update at the
end of each cycle. The counter carries its `limit` and wraps at the
`$clog2(limit + 1)` bits it is declared with; the sampled register keeps the
low bits of a literal range. Such a constant, the counter's wrap mask or the
sampled register's width mask, enters the expression through `const`, which
names it as an argument of the generated code, so no text of the input does.

A node is a named tuple of its fields, so it is immutable and cheap to build
and to define. Like any tuple it compares by value, not by type; nothing in
autoft compares nodes.

An operand that is itself an operator (`==`, `>`, `&&`, `||`, an implication)
is parenthesized; a signal, a prefix operator, a system function and a whole
expression are not.
"""
from __future__ import annotations

from collections import namedtuple

from .options import GenOptions
from .parser import literal_width_bits


class Node:
    """Base of every IR node."""

    __slots__ = ()

    def render(self) -> str:
        raise NotImplementedError

    def operand(self) -> str:
        """The text as an operand of another operator."""
        return self.render()


class _Infix(Node):
    __slots__ = ()

    def operand(self) -> str:
        return f"({self.render()})"


class Sig(namedtuple("Sig", "name"), Node):
    """A DUT port or declared signal."""

    __slots__ = ()

    def render(self) -> str:
        return self.name

    operand = render


class Not(namedtuple("Not", "x"), Node):
    __slots__ = ()

    def render(self) -> str:
        return f"!{self.x.operand()}"


class And(namedtuple("And", "a b"), _Infix):
    __slots__ = ()

    def render(self) -> str:
        return f"{self.a.operand()} && {self.b.operand()}"


class Or(namedtuple("Or", "args"), _Infix):
    """`||` over a tuple of operands, emitted flat."""

    __slots__ = ()

    def render(self) -> str:
        return " || ".join([a.operand() for a in self.args])


class Eq(namedtuple("Eq", "a b two_valued", defaults=(False,)), _Infix):
    """`a == b`, on raw values: an unknown equals only an unknown.

    two_valued reads an unknown operand as 0 instead.
    """

    __slots__ = ()

    def render(self) -> str:
        return f"{self.a.operand()} == {self.b.operand()}"


class Gt(namedtuple("Gt", "a k"), _Infix):
    __slots__ = ()

    def render(self) -> str:
        return f"{self.a.operand()} > {self.k}"


def _concat(items: tuple[Node, ...]) -> str:
    """`{a, b, ...}`; a single item is emitted bare."""
    if len(items) == 1:
        return items[0].render()
    return "{" + ", ".join([x.render() for x in items]) + "}"


class Stable(namedtuple("Stable", "items"), Node):
    """`$stable` of the concatenation of a tuple of items."""

    __slots__ = ()

    def render(self) -> str:
        return f"$stable({_concat(self.items)})"


class IsUnknown(namedtuple("IsUnknown", "items"), Node):
    """`$isunknown` of the concatenation of a tuple of items."""

    __slots__ = ()

    def render(self) -> str:
        return f"$isunknown({_concat(self.items)})"


class Implies(namedtuple("Implies", "ant con next_cycle", defaults=(False,)), _Infix):
    """`ant |-> con`, or `ant |=> con` when next_cycle."""

    __slots__ = ()

    def render(self) -> str:
        arrow = "|=>" if self.next_cycle else "|->"
        return f"{self.ant.operand()} {arrow} {self.con.operand()}"


class Eventually(namedtuple("Eventually", "x hi", defaults=(None,)), Node):
    """`x` now or within hi cycles: `##[0:hi] (x)`.

    Unbounded (hi None) is `s_eventually (x)`, which also counts from this cycle.
    """

    __slots__ = ()

    def render(self) -> str:
        if self.hi is None:
            return f"s_eventually ({self.x.render()})"
        return f"##[0:{self.hi}] ({self.x.render()})"


class CoverSeq(namedtuple("CoverSeq", "a b hi", defaults=(None,)), Node):
    """The cover sequence `a ##[0:hi] b`; hi None is `$`."""

    __slots__ = ()

    def render(self) -> str:
        hi = "$" if self.hi is None else self.hi
        return f"{self.a.operand()} ##[0:{hi}] {self.b.operand()}"


class PropAnd(namedtuple("PropAnd", "a b"), Node):
    """Property conjunction `(a and b)`."""

    __slots__ = ()

    def render(self) -> str:
        return f"({self.a.operand()} and {self.b.operand()})"


class Aux(Sig):
    """A generated wire or register: a signal the property module declares."""

    __slots__ = ()

    def declare(self, opts: GenOptions) -> list[str]:
        raise NotImplementedError


def width_prefix(width_expr: str) -> str:
    """A range as a declaration prefix: "[7:0] ", or "" for one bit."""
    return f"{width_expr} " if width_expr else ""


def _always(opts: GenOptions, name: str, reset: str, updates: list[tuple[Node, str]]) -> list[str]:
    """Reset, then the first update whose condition holds, else hold."""
    lines = [f"always @(posedge {opts.clk}) begin", f"    if ({opts.rst_expr})", f"        {name} <= {reset};"]
    for cond, value in updates:
        lines += [f"    else if ({cond.render()})", f"        {name} <= {value};"]
    return lines + ["end"]


class AttribWire(namedtuple("AttribWire", "name text width_expr", defaults=("",)), Aux):
    """A `field = expr` binding: a wire over a verbatim expression."""

    __slots__ = ()

    def declare(self, opts: GenOptions) -> list[str]:
        return [f"wire {width_prefix(self.width_expr)}{self.name} = {self.text};"]


STABLE_LABEL = "_stable"  # after a symbolic id's name, the label of the assumption that holds it


class Symbolic(namedtuple("Symbolic", "name width_expr", defaults=("",)), Aux):
    """A rigid free id the checks quantify over."""

    __slots__ = ()

    def declare(self, opts: GenOptions) -> list[str]:
        return [
            f"(* anyconst *) logic {width_prefix(self.width_expr)}{self.name};",
            f"{self.name}{STABLE_LABEL}: assume property (@(posedge {opts.clk}) $stable({self.name}));",
        ]


class Handshake(namedtuple("Handshake", "name expr"), Aux):
    """A transfer wire: the side's valid, and its ack when it has one."""

    __slots__ = ()

    def declare(self, opts: GenOptions) -> list[str]:
        return [f"wire {self.name} = {self.expr.render()};"]


class Counter(namedtuple("Counter", "name inc dec limit limit_param width_param"), Aux):
    """Outstanding count: +1 on inc without dec, -1 on dec without inc.

    It is `$clog2(limit + 1)` bits wide, which is `limit.bit_length()`, and
    wraps both ways.
    """

    __slots__ = ()

    def declare(self, opts: GenOptions) -> list[str]:
        n = self.name
        return [
            f"localparam {self.width_param} = $clog2({self.limit_param} + 1);",
            f"logic [{self.width_param}-1:0] {n};",
            *_always(opts, n, "'0", [(And(self.inc, Not(self.dec)), f"{n} + 1'b1"),
                                     (And(self.dec, Not(self.inc)), f"{n} - 1'b1")]),
        ]

    def update(self, v: str, inc: str, dec: str, const) -> str:
        mask = const((1 << self.limit.bit_length()) - 1)
        return f"{v}+(not {dec})-(not {inc})&{mask}"  # +1 on inc alone, -1 on dec alone


class Inflight(namedtuple("Inflight", "name set clr"), Aux):
    """One bit for the symbolic id: set wins over clear."""

    __slots__ = ()

    def declare(self, opts: GenOptions) -> list[str]:
        return [f"logic {self.name};",
                *_always(opts, self.name, "1'b0", [(self.set, "1'b1"), (self.clr, "1'b0")])]

    def update(self, v: str, set_: str, clr: str, const) -> str:
        return f"1 if {set_} else 0 if {clr} else {v}"


class Sampled(namedtuple("Sampled", "name capture data width_expr", defaults=("",)), Aux):
    """The data captured when capture holds, two-valued (an unknown is kept as 0).

    A literal range (one bit when empty) truncates the captured value, as the
    declared register does; a parameter range keeps it whole.
    """

    __slots__ = ()

    def declare(self, opts: GenOptions) -> list[str]:
        return [f"logic {width_prefix(self.width_expr)}{self.name};",
                *_always(opts, self.name, "'0", [(self.capture, self.data.render())])]

    def update(self, v: str, capture: str, data: str, const) -> str:
        bits = literal_width_bits(self.width_expr)  # None keeps every bit
        return f"({data} or 0)&{const(-1 if bits is None else (1 << bits) - 1)} if {capture} else {v}"


def matched(hsk: Node, ident: Node, symb: Node) -> And:
    """A transfer carrying the symbolic id: `hsk && (ident == symb)`."""
    return And(hsk, Eq(ident, symb))


# Per node class, where its nodes sit: a slice of its fields, or the index of its one tuple of nodes.
_BELOW: dict[type, slice | int] = {}


def children(node: Node) -> tuple[Node, ...]:
    """The nodes directly below `node`, a register's update rule included, in field order.

    A class's nodes are either adjacent fields or one tuple (the operands of
    `||`, `$stable`, `$isunknown`), in every node of the class, so where they
    sit is found on its first node and kept per class: no call tests a field.
    """
    at = _BELOW.get(node.__class__)
    if at is None:
        nodes = [k for k, v in enumerate(node) if isinstance(v, Node)]
        lists = [k for k, v in enumerate(node) if type(v) is tuple]
        at = _BELOW[node.__class__] = lists[0] if lists else slice(nodes[0], nodes[-1] + 1) if nodes else slice(0)
    return node[at]
