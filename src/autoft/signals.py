"""Synthesize the auxiliary modeling signals each transaction needs, and decide its checks, once per shape.

Each signal is a node of the property IR (`autoft.sva`) that carries its own
update rule, so the emitter and the evaluator read the same rule: an
`AttribWire` per explicit `field = expr` binding, a `Handshake` wire per
side, an outstanding `Counter` that carries the transaction's outstanding
limit, and for tracked transactions (id bound on both sides) a `Symbolic` id
with its `Inflight` bit and, when data is bound, a `Sampled` capture
register. The id and the capture register take one width rule
(`_attr_width`).

Synthesis decides every check a transaction gets, by the roles it fills in:
`inflight` when it is tracked, `p_stable` exactly when stability is checked
(`None` for a flag binding, whose valid and payload are checked), and
`unique` when uniqueness is. `autoft.properties` turns the roles into
checks. A binding that generates no check gets no role and declares nothing;
synthesis warns of it (`stable-on-response-side`, `stable-without-ack`,
`data-without-transid`) after all of a module's aux signals.

Two transactions with the same attributes get the same checks, whose text
differs only in names. So a transaction's signals are not built per
transaction. `_transaction_names` reads its bindings and gives its names, as
one flat list, and its shape key: its direction; how each role is bound (a
port, a wire it declares, of one bit or with a range, a wire an earlier
transaction declared, or a flag); which handshakes it declares; and, when
tracked, whether its id is unique and which of its ranges are empty. The
first transaction of each shape in a module makes its `properties.Shape`,
which keeps the role-map builder, `_slotted`, for the key: run over slot
names (`properties.slot`), it gives the trees the shape renders; run over a
transaction's names, that transaction's own. Every transaction of the shape
shares that `Shape` (`TransactionAux.shape`), and its own trees are built
when its properties are made (`properties.gen_properties`).

Every name the property module declares beyond the header's is allocated
here, by one `_Namer` seeded with the ports, the declared signals and the
parameters: the aux signals and each counter's
`<TNAME>_MAX_OUTSTANDING` and `<TNAME>_CNT_WIDTH` parameters. The same
namer then checks the labels the module declares: a symbolic id's
`<symb>_stable` assumption (the id is named so that its label is free) and,
once every aux name is allocated and only when the module has no error,
each property's label and an assumption's generate blocks (`_labelled`),
which adds each transaction's labels, its shape's suffixes after its name,
to its names. A label that clashes with nothing is not added to the namer's
names. A collision, with a header name or between transactions whose names
differ only in case, is resolved by appending a numeric suffix and emitting
a warning, so a module's warnings are all known once synthesis returns. The
one fixed name, the `ASSERT_INPUTS` parameter, cannot be renamed, because
`link` sets it by name; a header parameter or port of that name is an
error. The clock and the reset are read, not declared: each must be a port
of the property module (else an `unknown-clock` or `unknown-reset` error
naming the module), so the namer holds them already. They must be two
ports (else a `clock-is-reset` error): a module reset by its own clock
would check nothing.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable
from functools import partial

from .diagnostics import Diagnostic, error, errors_in, warning
from .options import GenOptions
from .parser import ExplicitAttrib, InterfaceSignal, ParsedModule
from .properties import ASRT_BLOCK, ASSERT_INPUTS, ASSM_BLOCK, ASSUME, Shape
from .sva import (
    STABLE_LABEL, And, AttribWire, Aux, Counter, Handshake, Inflight, Node, Sampled, Sig, Symbolic, matched,
)
from .transactions import Transaction, TransactionAux

# Constant-true right-hand sides: a `stable` binding to one is a presence flag, which checks the valid and payload.
_CONST_TRUE = {"1", "1'b1", "'1", "1'd1", "1'h1"}


class _Namer:
    """Allocates module-unique names, renaming on collision with a warning."""

    def __init__(self, taken: set[str], diags: list[Diagnostic]):
        self.taken = set(taken)
        self.diags = diags

    def alloc(self, base: str, suffixes: tuple[str, ...] = ()) -> str:
        """`base`, or `base_<n>` for the least n, such that neither it nor it plus a suffix is taken.

        The suffixes name what a name also declares: a symbolic id its
        `_stable` assumption, an assumed property its generate blocks.
        """
        name, n = base, 0
        while name in self.taken or suffixes and any(name + s in self.taken for s in suffixes):
            n += 1
            name = f"{base}_{n}"
        if n:
            self.diags.append(warning("name-collision-renamed", f"generated name '{base}' collides, renamed to '{name}'"))
        self.taken.add(name)
        return name


# Attribute suffix -> (what its width is called, the register it sizes).
_SIZED = {"transid": ("id", "symbolic id"), "data": ("data", "sampled data")}


def _attr_width(t: Transaction, suffix: str, diags: list[Diagnostic]) -> str:
    """The range of an attribute bound on both sides: the first side's that has one.

    "" (1 bit) when neither has one; unless both sides are then known to be
    1 bit wide, this warns, naming a side's user type if there is one.
    """
    sides = (t.p.bindings[suffix], t.q.bindings[suffix])
    for b in sides:
        if b.width_expr:
            return b.width_expr
    unknown = [b for b in sides if b.width_bits is None]
    if unknown:
        what, register = _SIZED[suffix]
        typed = next((f" (type '{b.opaque_type}')" for b in unknown if isinstance(b, InterfaceSignal)), "")
        diags.append(
            warning(
                f"unknown-{what}-width",
                f"{what} width of '{t.tname}' is not a known range{typed}, {register} defaults to 1 bit",
                t.offset,
            )
        )
    return ""


# The roles a binding fills, in the order their names are taken; a key gives each one's binding in this order.
_BOUND_ROLES = ("p_val", "p_ack", "p_transid", "p_data", "p_stable", "q_val", "q_ack", "q_transid", "q_data", "active")
_SIDE = ("val", "ack", "transid", "data")  # the attributes that may fill a role on either side
# How a key gives a binding: a port; a wire over an assign that the transaction declares, of one bit or with a
# range; a wire that an earlier transaction declared; a flag, which checks the valid and payload. None: unbound.
_PORT, _WIRE, _WIDE, _SHARED, _FLAG = "port", "wire", "wire[]", "shared", "flag"


def _transaction_names(t: Transaction, limit: int, namer: _Namer, shared: dict,
                       diags: list[Diagnostic]) -> tuple[list, tuple]:
    """One transaction's names, allocated in the namer's order, and its shape key; `limit` sizes its counter.

    `shared` maps each wire the module declares to its name. The names are
    the transaction's and its interfaces', its counter's limit parameter and
    limit, then each bound role's (a port's name, or a wire's name, assign
    and range), the handshakes', the counter's, the symbolic id's and its
    range, the in-flight bit's, and the sampled data's and its range.
    """
    names, key, p, q = [t.tname, t.p.name, t.q.name, None, limit], [t.direction], t.p.bindings, t.q.bindings

    def wire(k, base: str) -> bool:
        """Add a wire's name; True when this transaction declares it, once per distinct wire in the module."""
        if new := k not in shared:
            shared[k] = namer.alloc(base)
        names.append(shared[k])
        return new

    stable = p.get("stable") if "ack" in p else None  # stability is checked on a request side with an ack
    if isinstance(stable, ExplicitAttrib) and stable.expr.strip() in _CONST_TRUE:
        stable = _FLAG
    for b in (*map(p.get, _SIDE), stable, *map(q.get, _SIDE), t.active):
        if b is None or b is _FLAG:
            key.append(b)
        elif not isinstance(b, ExplicitAttrib):
            key.append(_PORT)
            names.append(b.name)
        else:
            key.append((_WIDE if b.width_expr else _WIRE) if wire((b.name, b.expr), b.name) else _SHARED)
            names += (b.expr, b.width_expr)
    key += [wire(side.name, f"{side.name}_hsk") for side in (t.p, t.q)]

    names.append(namer.alloc(f"{t.tname}_outstanding"))
    names[3] = namer.alloc(f"{t.tname.upper()}_MAX_OUTSTANDING")
    names.append(namer.alloc(f"{t.tname.upper()}_CNT_WIDTH"))
    if "transid" in p and "transid" in q:
        names += (namer.alloc(f"symb_{t.tname}_transid", (STABLE_LABEL,)), width := _attr_width(t, "transid", diags),
                  namer.alloc(f"{t.tname}_inflight"))
        key += ("transid_unique" in p or "transid_unique" in q, bool(width))
        if "data" in p:
            names += (namer.alloc(f"{t.tname}_sampled_data"), width := _attr_width(t, "data", diags))
            key.append(bool(width))
    return names, tuple(key)


def _slotted(key: tuple, name: Callable[[int], str | int]) -> tuple[dict[str, Node | None], list[Aux], int]:
    """The role map and the aux signals of a transaction of shape `key`, and its count of names.

    `name(i)` gives the i-th of the transaction's names, in the order of
    `_transaction_names`: `properties.slot` for the shape's trees, or a
    transaction's `names.__getitem__` for its own. A range the key says is
    empty takes its name but is "".
    """
    count, roles, signals = itertools.count(5), {}, []

    def take(used: bool = True) -> str:
        i = next(count)
        return name(i) if used else ""

    for role, kind in zip(_BOUND_ROLES, key[1:]):
        if kind == _PORT:
            roles[role] = Sig(take())
        elif kind == _FLAG:
            roles[role] = None  # its valid and payload are checked
        elif kind is not None:
            roles[role] = node = AttribWire(take(), take(), take(kind != _WIRE))
            if kind != _SHARED:
                signals.append(node)
    tokens = iter(key[len(_BOUND_ROLES) + 1:])
    for side_role in ("p", "q"):
        val, ack = roles[f"{side_role}_val"], roles.get(f"{side_role}_ack")
        roles[f"{side_role}_hsk"] = hsk = Handshake(take(), And(val, ack) if ack else val)
        if next(tokens):  # the transaction declares it
            signals.append(hsk)
    p_hsk, q_hsk = roles["p_hsk"], roles["q_hsk"]
    roles["counter"] = counter = Counter(take(), p_hsk, q_hsk, name(4), name(3), take())
    signals.append(counter)
    if "p_transid" in roles:
        unique, symb = next(tokens), Symbolic(take(), take(next(tokens)))
        request = matched(p_hsk, roles["p_transid"], symb)
        inflight = Inflight(take(), request, matched(q_hsk, roles["q_transid"], symb))
        roles.update(symb=symb, inflight=inflight)
        signals += (symb, inflight)
        if unique:
            roles["unique"] = inflight
        if "p_data" in roles:
            roles["sampled"] = sampled = Sampled(take(), request, roles["p_data"], take(next(tokens)))
            signals.append(sampled)
    return roles, signals, next(count)


def _labelled(made: list[tuple[list, Shape]], namer: _Namer, rename: bool) -> list[TransactionAux]:
    """Each transaction's aux: its names, its property labels added; with `rename`, each label the namer holds renamed.

    A label is the transaction's name plus a check's suffix; it is renamed
    when it, or an assumption's generate block, is a name the namer holds.
    The label test is made here, before calling the namer, because one call
    per label would cost more than the rest of this pass.
    """
    taken, aux = namer.taken, []
    for names, shape in made:
        for suffix, _, directive, _ in shape.checks:
            label = names[0] + suffix
            blocks = (ASRT_BLOCK, ASSM_BLOCK) if directive == ASSUME else ()  # the generate blocks it names
            if rename and (label in taken or blocks and (label + ASRT_BLOCK in taken or label + ASSM_BLOCK in taken)):
                label = namer.alloc(label, blocks)
            names.append(label)
        aux.append(TransactionAux(names, shape))
    return aux


def synth_module(
    txns: list[Transaction], pm: ParsedModule, opts: GenOptions, diags: list[Diagnostic]
) -> list[TransactionAux]:
    """Synthesize every transaction's names and shape with module-wide naming, reporting into `diags`.

    Then each transaction's property labels are added to its names, each
    checked against every name declared unless `diags` holds an error, so
    every warning is reported, and located, on return.
    """
    ports = pm.port_names()
    taken = ports | {p.name for p in pm.parameters}
    if ASSERT_INPUTS in taken:
        diags.append(error("reserved-name", f"'{ASSERT_INPUTS}' is reserved: the property module declares a "
                                            "parameter of that name, which link's `as` flag sets"))
    for code, what, name in (("unknown-clock", "clock", opts.clk), ("unknown-reset", "reset", opts.rst)):
        if name not in ports:
            diags.append(error(code, f"{what} '{name}' is not a port of module '{pm.module_name}'"))
    if opts.clk == opts.rst:
        diags.append(error("clock-is-reset", f"clock and reset are both '{opts.clk}' in module '{pm.module_name}'"))
    namer, shared, shapes, made = _Namer(taken, diags), {}, {}, []
    for t in txns:
        names, key = _transaction_names(t, opts.outstanding_limit(t.tname), namer, shared, diags)
        made.append((names, shapes.get(key) or shapes.setdefault(key, Shape(key[0], partial(_slotted, key), opts))))
    for t in txns:  # bindings that generate no property
        p, q = t.p.bindings, t.q.bindings
        if "stable" in q:
            diags.append(warning("stable-on-response-side", f"'{t.q.name}_stable' is bound on the response interface; "
                                 "stability is checked for the request side only and this binding generates nothing",
                                 t.offset))
        if "stable" in p and "ack" not in p:
            diags.append(warning("stable-without-ack", f"'{t.p.name}_stable' has no matching ack, a request is never "
                                 "pending; check skipped", t.offset))
        if "data" in p and "data" in q and not ("transid" in p and "transid" in q):
            diags.append(warning("data-without-transid", f"data integrity of '{t.tname}' needs a transaction id on "
                                 "both interfaces; check skipped", t.offset))
    aux = _labelled(made, namer, not errors_in(diags))
    pm.locate(diags)
    return aux


def synth_module_aux(
    txns: list[Transaction], pm: ParsedModule, opts: GenOptions
) -> tuple[list[TransactionAux], list[Diagnostic]]:
    """`synth_module` with a diagnostics list of its own."""
    diags: list[Diagnostic] = []
    return synth_module(txns, pm, opts, diags), diags
