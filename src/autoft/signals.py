"""Synthesize the auxiliary modeling signals each transaction needs.

Each is a node of the property IR (`autoft.sva`) that carries its own update
rule, so the emitter and the evaluator read the same rule: an `AttribWire`
per explicit `field = expr` binding, a `Handshake` wire per side, an
outstanding `Counter` that carries the transaction's outstanding limit, and
for tracked transactions (id bound on both sides) a `Symbolic` id with its
`Inflight` bit and, when data is bound, a `Sampled` capture register.
The id and the capture register take one width rule (`_attr_width`).
Whether a transaction is tracked is decided here, once: later stages read
the roles this module fills in.

Every name the property module declares beyond the header's is allocated
here, by one `_Namer` seeded with the ports, the declared signals and the
parameters: the aux signals and each counter's
`<TNAME>_MAX_OUTSTANDING` and `<TNAME>_CNT_WIDTH` parameters. The same
namer then checks the labels the module declares: each property's and an
assumption's generate blocks (`emit` renames a property whose label clashes),
and a symbolic id's `<symb>_stable` assumption (the id is named so that its
label is free). A label that clashes with nothing is not added to the
namer's names. A collision, with a header name or between transactions whose
names differ only in case, is resolved by appending a numeric suffix and
emitting a warning. The one fixed name, the `ASSERT_INPUTS` parameter, cannot
be renamed, because `link` sets it by name; a header parameter or port of
that name is an error. The clock and the reset are read, not declared: each
must be a port of the property module (else an `unknown-clock` or
`unknown-reset` error naming the module), so the namer holds them already.

Synthesis also warns of each binding that generates no property
(`stable-on-response-side`, `stable-without-ack`, `data-without-transid`),
after all of a module's aux signals, so that property generation reports
nothing and only a label rename is found after synthesis.
"""
from __future__ import annotations

from .diagnostics import Diagnostic, error, warning
from .options import GenOptions
from .parser import ExplicitAttrib, InterfaceSignal, ParsedModule
from .sva import And, AttribWire, Aux, Counter, Handshake, Inflight, Node, Sampled, Sig, Symbolic, matched
from .transactions import Transaction

_CONST_TRUE = {"1", "1'b1", "'1", "1'd1", "1'h1"}


def _is_flag_expr(expr: str) -> bool:
    """True for a constant-true right-hand side used as a presence flag."""
    return expr.strip() in _CONST_TRUE


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


class TransactionAux:
    """Aux signals declared for one transaction plus the role map properties use (role -> signal node)."""

    __slots__ = ("signals", "roles")

    def __init__(self, signals: list[Aux], roles: dict[str, Node]):
        self.signals = signals
        self.roles = roles


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
    roles: dict[str, Node] = {}

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
        bindings = side.bindings
        for suffix in ("val", "ack", "transid", "data", "stable"):
            binding = bindings.get(suffix)
            if binding is None:
                continue
            if suffix == "stable" and isinstance(binding, ExplicitAttrib) and _is_flag_expr(binding.expr):
                continue  # presence flag, the payload itself is checked
            roles[f"{side_role}_{suffix}"] = bound(binding)
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
        symb = roles["symb"] = Symbolic(namer.alloc(f"symb_{t.tname}_transid", ("_stable",)),
                                        _attr_width(t, "transid", diags))
        signals.append(symb)
        request = matched(p_hsk, roles["p_transid"], symb)
        inflight = Inflight(namer.alloc(f"{t.tname}_inflight"), request,
                            matched(q_hsk, roles["q_transid"], symb))
        roles["inflight"] = inflight
        signals.append(inflight)
        if "p_data" in roles:
            sampled = Sampled(namer.alloc(f"{t.tname}_sampled_data"), request, roles["p_data"],
                              _attr_width(t, "data", diags))
            roles["sampled"] = sampled
            signals.append(sampled)

    return TransactionAux(signals, roles)


def synth_module(
    txns: list[Transaction], pm: ParsedModule, opts: GenOptions, diags: list[Diagnostic]
) -> tuple[list[TransactionAux], _Namer]:
    """Synthesize aux signals for every transaction with module-wide naming, reporting into `diags`.

    Also returns the namer, holding every name declared so far, by which the
    property labels are checked next; it reports into `diags` too.
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
    return aux, namer


def synth_module_aux(
    txns: list[Transaction], pm: ParsedModule, opts: GenOptions
) -> tuple[list[TransactionAux], list[Diagnostic]]:
    """`synth_module` with a diagnostics list of its own and without the namer."""
    diags: list[Diagnostic] = []
    return synth_module(txns, pm, opts, diags)[0], diags
