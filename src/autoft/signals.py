"""Synthesize the auxiliary modeling signals each transaction needs.

Each is a node of the property IR (`autoft.sva`) that carries its own update
rule, so the emitter and the evaluator read the same rule: an `AttribWire`
per explicit `field = expr` binding, a `Handshake` wire per side, an
outstanding `Counter` that carries the transaction's outstanding limit, and
for tracked transactions (id bound on both sides) a `Symbolic` id with its
`Inflight` bit and, when data is bound, a `Sampled` capture register.
Generated names are checked against the parsed port and parameter names; a
collision is resolved by appending a numeric suffix and emitting a warning.
"""
from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import Diagnostic, warning
from .options import GenOptions
from .parser import ExplicitAttrib, InterfaceSignal, ParsedModule
from .sva import And, AttribWire, Aux, Counter, Handshake, Inflight, Node, Sampled, Sig, Symbolic, matched
from .transactions import Transaction, transaction_kind

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


@dataclass(slots=True)
class TransactionAux:
    """Aux signals declared for one transaction plus the role map properties use."""

    signals: list[Aux]
    roles: dict[str, Node]  # role -> signal node


def _cnt_param_names(tname: str) -> tuple[str, str]:
    upper = tname.upper()
    return f"{upper}_MAX_OUTSTANDING", f"{upper}_CNT_WIDTH"


def _attr_width(t: Transaction, suffix: str) -> str:
    """Known range of an attribute bound on either side, "" when unknown."""
    for b in (t.p.get(suffix), t.q.get(suffix)):
        if b is not None and b.width_expr:
            return b.width_expr
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
        if key not in shared_wires:
            shared_wires[key] = cls(namer.alloc(base), *fields)
            signals.append(shared_wires[key])
        return shared_wires[key]

    def bound(b) -> Node:
        """Referable node for a bound attribute, a wire for assigns."""
        if not isinstance(b, ExplicitAttrib):
            return Sig(b.name)
        return wire((b.name, b.expr), b.name, AttribWire, b.expr, b.width_expr)

    for side_role, side in (("p", t.p), ("q", t.q)):
        for suffix in ("val", "ack", "transid", "data", "stable"):
            binding = side.get(suffix)
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
        key = (side.name, expr.render())
        roles[f"{side_role}_hsk"] = wire(key, f"{side.name}_hsk", Handshake, expr)
    p_hsk, q_hsk = roles["p_hsk"], roles["q_hsk"]

    counter = Counter(namer.alloc(f"{t.tname}_outstanding"), p_hsk, q_hsk, limit, *_cnt_param_names(t.tname))
    roles["counter"] = counter
    signals.append(counter)

    if transaction_kind(t) == "tracked":
        id_width = _attr_width(t, "transid")
        if not id_width:
            diags.append(
                warning(
                    "unknown-id-width",
                    f"id width of '{t.tname}' is not a known range, symbolic id defaults to 1 bit",
                    t.span,
                )
            )
        symb = roles["symb"] = Symbolic(namer.alloc(f"symb_{t.tname}_transid"), id_width)
        signals.append(symb)
        request = matched(p_hsk, roles["p_transid"], symb)
        inflight = Inflight(namer.alloc(f"{t.tname}_inflight"), request,
                            matched(q_hsk, roles["q_transid"], symb))
        roles["inflight"] = inflight
        signals.append(inflight)
        if "p_data" in roles:
            data_width = _attr_width(t, "data")
            unknown = [b for b in (t.p.get("data"), t.q.get("data")) if b.width_bits is None]
            if not data_width and unknown:
                typed = next((f" (type '{b.opaque_type}')" for b in unknown if isinstance(b, InterfaceSignal)), "")
                diags.append(
                    warning(
                        "unknown-data-width",
                        f"data width of '{t.tname}' is not a known range{typed}, sampled data defaults to 1 bit",
                        t.span,
                    )
                )
            sampled = Sampled(namer.alloc(f"{t.tname}_sampled_data"), request, roles["p_data"], data_width)
            roles["sampled"] = sampled
            signals.append(sampled)

    return TransactionAux(signals, roles)


def synth_module_aux(
    txns: list[Transaction], pm: ParsedModule, opts: GenOptions
) -> tuple[list[TransactionAux], list[Diagnostic]]:
    """Synthesize aux signals for every transaction with module-wide naming."""
    diags: list[Diagnostic] = []
    taken = pm.port_names() | {p.name for p in pm.parameters} | {opts.clk, opts.rst}
    for t in txns:
        taken.add(_cnt_param_names(t.tname)[0])
        taken.add(_cnt_param_names(t.tname)[1])
    namer = _Namer(taken)
    shared: dict = {}
    out = [synth_transaction_aux(t, opts.outstanding_limit(t.tname), namer, shared, diags) for t in txns]
    for base, final in namer.renamed:
        diags.append(
            warning("name-collision-renamed", f"generated name '{base}' collides, renamed to '{final}'")
        )
    return out, diags
