"""Synthesize the auxiliary modeling signals each transaction needs.

Each is a node of the property IR (`autoft.sva`) that carries its own update
rule, so the emitter and the evaluator read the same rule: an `AttribWire`
per explicit `field = expr` binding, a `Handshake` wire per side, an
outstanding `Counter` that carries the transaction's outstanding limit, and
for tracked transactions (id bound on both sides) a `Symbolic` id with its
`Inflight` bit and, when data is bound, a `Sampled` capture register.
The id and the capture register take one width rule (`_attr_width`).
Whether a transaction is tracked is decided here, once: later stages read
the roles this module fills in. Generated names are checked against the
parsed port and parameter names; a collision is resolved by appending a
numeric suffix and emitting a warning.
"""
from __future__ import annotations

from .diagnostics import Diagnostic, warning
from .options import GenOptions
from .parser import ExplicitAttrib, InterfaceSignal, ParsedModule
from .sva import And, AttribWire, Aux, Counter, Handshake, Inflight, Node, Sampled, Sig, Symbolic, matched
from .transactions import Transaction

_CONST_TRUE = {"1", "1'b1", "'1", "1'd1", "1'h1"}


def _is_flag_expr(expr: str) -> bool:
    """True for a constant-true right-hand side used as a presence flag."""
    return expr.strip() in _CONST_TRUE


class _Namer:
    """Allocates module-unique names, renaming on collision."""

    def __init__(self, taken: set[str]):
        self.taken = set(taken)
        self.renamed: list[tuple[str, str]] = []

    def alloc(self, base: str) -> str:
        if base not in self.taken:
            self.taken.add(base)
            return base
        n = 1
        while f"{base}_{n}" in self.taken:
            n += 1
        name = f"{base}_{n}"
        self.taken.add(name)
        self.renamed.append((base, name))
        return name


class TransactionAux:
    """Aux signals declared for one transaction plus the role map properties use (role -> signal node)."""

    __slots__ = ("signals", "roles")

    def __init__(self, signals: list[Aux], roles: dict[str, Node]):
        self.signals = signals
        self.roles = roles


def _cnt_param_names(tname: str) -> tuple[str, str]:
    upper = tname.upper()
    return f"{upper}_MAX_OUTSTANDING", f"{upper}_CNT_WIDTH"


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

    counter = Counter(namer.alloc(f"{t.tname}_outstanding"), p_hsk, q_hsk, limit, *_cnt_param_names(t.tname))
    roles["counter"] = counter
    signals.append(counter)

    if "transid" in t.p.bindings and "transid" in t.q.bindings:
        symb = roles["symb"] = Symbolic(namer.alloc(f"symb_{t.tname}_transid"), _attr_width(t, "transid", diags))
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


def synth_module_aux(
    txns: list[Transaction], pm: ParsedModule, opts: GenOptions
) -> tuple[list[TransactionAux], list[Diagnostic]]:
    """Synthesize aux signals for every transaction with module-wide naming."""
    diags: list[Diagnostic] = []
    taken = pm.port_names() | {p.name for p in pm.parameters} | {opts.clk, opts.rst}
    taken.update(*(_cnt_param_names(t.tname) for t in txns))
    namer = _Namer(taken)
    shared: dict = {}
    out = [synth_transaction_aux(t, opts.outstanding_limit(t.tname), namer, shared, diags) for t in txns]
    for base, final in namer.renamed:
        diags.append(
            warning("name-collision-renamed", f"generated name '{base}' collides, renamed to '{final}'")
        )
    return out, diags
