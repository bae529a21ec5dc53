"""Synthesize the auxiliary modeling signals each transaction needs.

For every transaction this produces:

* one handshake wire per side, `<side>_hsk = <val> && <ack>` (just `<val>`
  when the side has no ack, meaning transfers are always accepted);
* an outstanding counter register, +1 on the request handshake and -1 on the
  response handshake, so a same-cycle pair leaves it unchanged;
* for tracked transactions (id bound on both sides): a rigid symbolic id the
  checker quantifies over, a one-bit in-flight register for that id, and a
  data capture register when a data attribute is bound.

Explicit `field = expr` bindings also become wires here so that every bound
attribute has a plain referable name. Generated names are checked against the
parsed port and parameter names; a collision is resolved by appending a
numeric suffix and emitting a warning.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import Diagnostic, warning
from .options import GenOptions
from .parser import ParsedModule
from .transactions import SOURCE_EXPLICIT_ASSIGN, Transaction, transaction_kind

KIND_ATTRIB_WIRE = "attrib_wire"
KIND_HANDSHAKE = "handshake_wire"
KIND_SYMBOLIC = "symbolic"
KIND_COUNTER = "counter_reg"
KIND_INFLIGHT = "inflight_reg"
KIND_SAMPLED = "sampled_data_reg"

_CONST_TRUE = {"1", "1'b1", "'1", "1'd1", "1'h1"}


def is_flag_expr(expr: str) -> bool:
    """True for a constant-true right-hand side used as a presence flag."""
    return expr.strip() in _CONST_TRUE


@dataclass
class AuxSignal:
    """One generated wire or register of the property module."""

    name: str
    kind: str
    width_expr: str = ""  # verbatim range, "" for 1-bit
    refs: dict = field(default_factory=dict)  # role -> referenced signal name


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


@dataclass
class TransactionAux:
    """Aux signals for one transaction plus the name map properties use."""

    transaction: Transaction
    signals: list[AuxSignal]
    roles: dict[str, str]  # role -> final signal name


def _cnt_param_names(tname: str) -> tuple[str, str]:
    upper = tname.upper()
    return f"{upper}_MAX_OUTSTANDING", f"{upper}_CNT_WIDTH"


def _binding_name(binding, namer: _Namer, shared: dict, signals: list[AuxSignal]) -> str:
    """Referable name for a bound attribute, creating a wire for assigns."""
    if binding.source != SOURCE_EXPLICIT_ASSIGN:
        return binding.signal_name
    key = (binding.signal_name, binding.expr)
    if key not in shared:
        shared[key] = namer.alloc(binding.signal_name)
        signals.append(
            AuxSignal(
                name=shared[key],
                kind=KIND_ATTRIB_WIRE,
                width_expr=binding.width_expr,
                refs={"expr": binding.expr},
            )
        )
    return shared[key]


def _hsk_wire(side_role: str, side, namer: _Namer, shared: dict, roles: dict, signals: list[AuxSignal]) -> str:
    val = roles[f"{side_role}_val"]
    ack = roles.get(f"{side_role}_ack")
    expr = f"{val} && {ack}" if ack else val
    key = (side.name, expr)
    if key in shared:
        return shared[key]
    name = namer.alloc(f"{side.name}_hsk")
    shared[key] = name
    signals.append(
        AuxSignal(
            name=name,
            kind=KIND_HANDSHAKE,
            refs={"val": val, **({"ack": ack} if ack else {})},
        )
    )
    return name


def _attr_width(t: Transaction, suffix: str) -> str:
    """Known range of an attribute bound on either side, "" when unknown."""
    for b in (t.p.get(suffix), t.q.get(suffix)):
        if b is not None and b.width_known and b.width_expr:
            return b.width_expr
    return ""


def synth_transaction_aux(
    t: Transaction,
    namer: _Namer,
    shared_wires: dict,
    diags: list[Diagnostic],
) -> TransactionAux:
    """Build all aux signals and the role name map for one transaction."""
    signals: list[AuxSignal] = []
    roles: dict[str, str] = {}

    for side_role, side in (("p", t.p), ("q", t.q)):
        for suffix in ("val", "ack", "transid", "data", "stable"):
            binding = side.get(suffix)
            if binding is None:
                continue
            if suffix == "stable" and binding.source == SOURCE_EXPLICIT_ASSIGN and is_flag_expr(binding.expr):
                continue  # presence flag, the payload itself is checked
            roles[f"{side_role}_{suffix}"] = _binding_name(binding, namer, shared_wires, signals)
    if t.active is not None:
        roles["active"] = _binding_name(t.active, namer, shared_wires, signals)

    roles["p_hsk"] = _hsk_wire("p", t.p, namer, shared_wires, roles, signals)
    roles["q_hsk"] = _hsk_wire("q", t.q, namer, shared_wires, roles, signals)

    limit_param, width_param = _cnt_param_names(t.tname)
    counter = namer.alloc(f"{t.tname}_outstanding")
    roles["counter"] = counter
    roles["limit_param"] = limit_param
    roles["width_param"] = width_param
    signals.append(
        AuxSignal(
            name=counter,
            kind=KIND_COUNTER,
            width_expr=f"[{width_param}-1:0]",
            refs={"inc": roles["p_hsk"], "dec": roles["q_hsk"],
                  "limit_param": limit_param, "width_param": width_param},
        )
    )

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
        symb = namer.alloc(f"symb_{t.tname}_transid")
        roles["symb"] = symb
        signals.append(AuxSignal(name=symb, kind=KIND_SYMBOLIC, width_expr=id_width))
        inflight = namer.alloc(f"{t.tname}_inflight")
        roles["inflight"] = inflight
        signals.append(
            AuxSignal(
                name=inflight,
                kind=KIND_INFLIGHT,
                refs={
                    "set_hsk": roles["p_hsk"],
                    "set_id": roles["p_transid"],
                    "clr_hsk": roles["q_hsk"],
                    "clr_id": roles["q_transid"],
                    "symb": symb,
                },
            )
        )
        if "p_data" in roles:
            sampled = namer.alloc(f"{t.tname}_sampled_data")
            roles["sampled"] = sampled
            signals.append(
                AuxSignal(
                    name=sampled,
                    kind=KIND_SAMPLED,
                    width_expr=_attr_width(t, "data"),
                    refs={
                        "hsk": roles["p_hsk"],
                        "id": roles["p_transid"],
                        "symb": symb,
                        "data": roles["p_data"],
                    },
                )
            )

    return TransactionAux(t, signals, roles)


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
    out = [synth_transaction_aux(t, namer, shared, diags) for t in txns]
    for base, final in namer.renamed:
        diags.append(
            warning("name-collision-renamed", f"generated name '{base}' collides, renamed to '{final}'")
        )
    return out, diags

