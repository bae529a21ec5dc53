"""Synthesize the auxiliary modeling signals each transaction needs, and decide its checks.

Each is a node of the property IR (`autoft.sva`) that carries its own update
rule, so the emitter and the evaluator read the same rule: an `AttribWire`
per explicit `field = expr` binding, a `Handshake` wire per side, an
outstanding `Counter` that carries the transaction's outstanding limit, and
for tracked transactions (id bound on both sides) a `Symbolic` id with its
`Inflight` bit and, when data is bound, a `Sampled` capture register.
The id and the capture register take one width rule (`_attr_width`).

Synthesis decides every check a transaction gets, by the roles it fills in:
`inflight` when it is tracked, `p_stable` exactly when stability is checked
(`None` for a flag binding, whose valid and payload are checked), and
`unique` when uniqueness is. `autoft.properties` turns the roles into
checks. A binding that generates no check gets no role and declares nothing;
synthesis warns of it (`stable-on-response-side`, `stable-without-ack`,
`data-without-transid`) after all of a module's aux signals.

Every name the property module declares beyond the header's is allocated
here, by one `_Namer` seeded with the ports, the declared signals and the
parameters: the aux signals and each counter's
`<TNAME>_MAX_OUTSTANDING` and `<TNAME>_CNT_WIDTH` parameters. The same
namer then checks the labels the module declares: a symbolic id's
`<symb>_stable` assumption (the id is named so that its label is free) and,
once every aux name is allocated and only when the module has no error,
each property's label and an assumption's generate blocks (`_name_labels`).
That pass makes one `properties.Shape` per transaction shape and sets it on
every transaction of the shape (`TransactionAux.shape`); its label suffixes
are what the pass checks. A label that clashes with nothing is not added to
the namer's names, and `TransactionAux.labels` keeps only the renamed ones.
A collision, with a header name or between transactions whose names differ
only in case, is resolved by appending a numeric suffix and emitting a
warning, so a module's warnings are all known once synthesis returns. The
one fixed name, the `ASSERT_INPUTS` parameter, cannot be renamed, because
`link` sets it by name; a header parameter or port of that name is an
error. The clock and the reset
are read, not declared: each must be a port of the property module (else an
`unknown-clock` or `unknown-reset` error naming the module), so the namer
holds them already.
"""
from __future__ import annotations

from .diagnostics import Diagnostic, error, errors_in, warning
from .options import GenOptions
from .parser import ExplicitAttrib, InterfaceSignal, ParsedModule
from .properties import ASRT_BLOCK, ASSM_BLOCK, ASSUME, Shape
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
                t.span,
            )
        )
    return ""


def synth_transaction_aux(
    t: Transaction,
    limit: int,
    namer: _Namer,
    shared_wires: dict,
    diags: list[Diagnostic],
) -> TransactionAux:
    """Build all aux signals and the role map for one transaction; `limit` sizes its counter."""
    signals: list[Aux] = []
    roles: dict[str, Node | None] = {}

    def wire(key, base: str, cls: type[Aux], *fields) -> Aux:
        """One declaration per distinct wire across the module."""
        if (found := shared_wires.get(key)) is None:
            found = shared_wires[key] = cls(namer.alloc(base), *fields)
            signals.append(found)
        return found

    def bound(b) -> Node:
        """Referable node for a bound attribute, a wire for assigns."""
        if not isinstance(b, ExplicitAttrib):
            return Sig(b.name)
        return wire((b.name, b.expr), b.name, AttribWire, b.expr, b.width_expr)

    for side_role, side in (("p", t.p), ("q", t.q)):
        for suffix in ("val", "ack", "transid", "data", "stable"):
            binding = side.bindings.get(suffix)
            if binding is None or suffix == "stable" and (side_role == "q" or "p_ack" not in roles):
                continue  # stability is checked on a request side with an ack: other bindings generate nothing
            flag = suffix == "stable" and isinstance(binding, ExplicitAttrib) and binding.expr.strip() in _CONST_TRUE
            roles[f"{side_role}_{suffix}"] = None if flag else bound(binding)
    if t.active is not None:
        roles["active"] = bound(t.active)

    for side_role, side in (("p", t.p), ("q", t.q)):
        val, ack = roles[f"{side_role}_val"], roles.get(f"{side_role}_ack")
        expr = And(val, ack) if ack else val
        roles[f"{side_role}_hsk"] = wire((side.name, expr), f"{side.name}_hsk", Handshake, expr)
    p_hsk, q_hsk = roles["p_hsk"], roles["q_hsk"]

    upper = t.tname.upper()
    counter = Counter(namer.alloc(f"{t.tname}_outstanding"), p_hsk, q_hsk, limit,
                      namer.alloc(f"{upper}_MAX_OUTSTANDING"), namer.alloc(f"{upper}_CNT_WIDTH"))
    roles["counter"] = counter
    signals.append(counter)

    if "transid" in t.p.bindings and "transid" in t.q.bindings:
        symb = roles["symb"] = Symbolic(namer.alloc(f"symb_{t.tname}_transid", (STABLE_LABEL,)),
                                        _attr_width(t, "transid", diags))
        signals.append(symb)
        request = matched(p_hsk, roles["p_transid"], symb)
        inflight = Inflight(namer.alloc(f"{t.tname}_inflight"), request,
                            matched(q_hsk, roles["q_transid"], symb))
        roles["inflight"] = inflight
        signals.append(inflight)
        if "transid_unique" in t.p.bindings or "transid_unique" in t.q.bindings:
            roles["unique"] = inflight
        if "p_data" in roles:
            sampled = Sampled(namer.alloc(f"{t.tname}_sampled_data"), request, roles["p_data"],
                              _attr_width(t, "data", diags))
            roles["sampled"] = sampled
            signals.append(sampled)

    return TransactionAux(signals, roles)


def _name_labels(txns: list[Transaction], aux: list[TransactionAux], opts: GenOptions, namer: _Namer) -> None:
    """Set each transaction's `properties.Shape`, and rename each label the namer holds.

    A transaction's shape is its direction, its role names and which roles
    are None; one `Shape` is made per shape in the module, from its first
    transaction. A label is the transaction's name plus a check's suffix; it
    is renamed when it, or an assumption's generate block, is a name the
    namer holds. The label test is made here, before calling the namer,
    because one call per label would cost more than the rest of this pass.
    """
    taken, shapes = namer.taken, {}
    for t, a in zip(txns, aux):
        roles = a.roles  # `p_stable` is the one role that may be None (a flag binding)
        if (shape := shapes.get(key := (t.direction, *roles, roles.get("p_stable", 0) is None))) is None:
            shape = shapes[key] = Shape(t, roles, opts)
        a.shape, tn = shape, t.tname
        for suffix, _, directive in shape.checks:
            blocks = (ASRT_BLOCK, ASSM_BLOCK) if directive == ASSUME else ()  # the generate blocks its label names
            if (label := tn + suffix) in taken or blocks and (label + ASRT_BLOCK in taken
                                                              or label + ASSM_BLOCK in taken):
                a.labels = {**(a.labels or {}), label: namer.alloc(label, blocks)}


def synth_module(
    txns: list[Transaction], pm: ParsedModule, opts: GenOptions, diags: list[Diagnostic]
) -> list[TransactionAux]:
    """Synthesize aux signals for every transaction with module-wide naming, reporting into `diags`.

    Then, unless `diags` holds an error, each property label is checked
    against every name declared, so every warning is reported on return.
    """
    ports = pm.port_names()
    taken = ports | {p.name for p in pm.parameters}
    if "ASSERT_INPUTS" in taken:
        diags.append(error("reserved-name", "'ASSERT_INPUTS' is reserved: the property module declares a "
                                            "parameter of that name, which link's `as` flag sets"))
    for code, what, name in (("unknown-clock", "clock", opts.clk), ("unknown-reset", "reset", opts.rst)):
        if name not in ports:
            diags.append(error(code, f"{what} '{name}' is not a port of module '{pm.module_name}'"))
    namer = _Namer(taken, diags)
    shared: dict = {}
    aux = [synth_transaction_aux(t, opts.outstanding_limit(t.tname), namer, shared, diags) for t in txns]
    for t, roles in zip(txns, (t_aux.roles for t_aux in aux)):  # bindings that generate no property
        if "stable" in t.q.bindings:
            diags.append(warning("stable-on-response-side", f"'{t.q.name}_stable' is bound on the response interface; "
                                 "stability is checked for the request side only and this binding generates nothing",
                                 t.span))
        if "stable" in t.p.bindings and "p_ack" not in roles:
            diags.append(warning("stable-without-ack", f"'{t.p.name}_stable' has no matching ack, a request is never "
                                 "pending; check skipped", t.span))
        if "inflight" not in roles and "p_data" in roles and "q_data" in roles:
            diags.append(warning("data-without-transid", f"data integrity of '{t.tname}' needs a transaction id on "
                                 "both interfaces; check skipped", t.span))
    if not errors_in(diags):
        _name_labels(txns, aux, opts, namer)
    return aux


def synth_module_aux(
    txns: list[Transaction], pm: ParsedModule, opts: GenOptions
) -> tuple[list[TransactionAux], list[Diagnostic]]:
    """`synth_module` with a diagnostics list of its own."""
    diags: list[Diagnostic] = []
    return synth_module(txns, pm, opts, diags), diags
