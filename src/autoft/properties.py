"""Map transaction attributes to concrete temporal properties.

Each bound attribute contributes the checks below. Whether a check is asserted
or assumed depends on the transaction direction: obligations of the design
under test are asserted, obligations of its environment are assumed.

==================  ====================================================
attribute           checks emitted
==================  ====================================================
val                 liveness (request handshake eventually gets a valid
                    response), response_had_request (a valid response
                    needs an outstanding or same-cycle request), and
                    counter_no_underflow (never more responses seen than
                    requests)
ack                 ack_eventually (a pending request is eventually
                    accepted); without a stable binding a dropped request
                    also discharges it, which makes the assertion
                    vacuously satisfiable, so it is emitted as a cover
stable              stability (a pending un-accepted request holds its
                    payload into the next cycle)
active              active_covered (the activity signal is high exactly
                    while something is outstanding or transferring)
transid             transid_integrity (a response carrying the tracked id
                    must have that id in flight)
transid_unique      uniqueness (no second request for an id in flight)
data                data_integrity (a tracked response returns the data
                    captured with its request); needs transid on both
                    sides, otherwise skipped with a warning
always              one xprop check per side: no control attribute is X
                    while the valid is high (simulation only, guarded by
                    the XPROP macro)
==================  ====================================================

Directions: for incoming transactions the starred design obligations
(liveness, response_had_request, counter_no_underflow, ack_eventually,
transid_integrity, data_integrity) are asserted and the environment
obligations (stability, uniqueness) are assumed; outgoing transactions swap
both groups. active_covered and xprop are always asserted.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .diagnostics import Diagnostic, warning
from .options import GenOptions
from .signals import TransactionAux, is_flag_expr
from .transactions import SOURCE_EXPLICIT_ASSIGN, Transaction, transaction_kind

KINDS = (
    "liveness",
    "response_had_request",
    "counter_no_underflow",
    "ack_eventually",
    "stability",
    "active_covered",
    "transid_integrity",
    "uniqueness",
    "data_integrity",
    "xprop",
)

ASSERT = "assert"
ASSUME = "assume"
COVER = "cover"

# Kinds whose polarity follows the transaction direction.
_DUT_OBLIGATIONS = frozenset(
    ("liveness", "response_had_request", "counter_no_underflow",
     "ack_eventually", "transid_integrity", "data_integrity")
)
_ENV_OBLIGATIONS = frozenset(("stability", "uniqueness"))


def plan_polarity(direction: str, kind: str) -> str:
    """Directive for a property kind on a transaction of the given direction."""
    if kind not in KINDS:
        raise ValueError(f"unknown property kind '{kind}'")
    if direction not in ("incoming", "outgoing"):
        raise ValueError(f"unknown direction '{direction}'")
    if kind in _DUT_OBLIGATIONS:
        return ASSERT if direction == "incoming" else ASSUME
    if kind in _ENV_OBLIGATIONS:
        return ASSUME if direction == "incoming" else ASSERT
    return ASSERT  # active_covered and xprop


@dataclass
class GeneratedProperty:
    """One rendered property plus the structure the trace evaluator needs."""

    name: str
    kind: str
    directive: str  # assert | assume | cover
    ltl_text: str
    guard_macro: str | None = None  # "XPROP" for simulation-only checks
    terms: dict = field(default_factory=dict)  # role -> signal name
    payload: tuple[str, ...] = ()  # stability payload signals, in concat order
    bounded: int | None = None
    transaction: str = ""


def _concat(names: list[str]) -> str:
    return names[0] if len(names) == 1 else "{" + ", ".join(names) + "}"


def _eventually(consequent: str, bounded: int | None) -> str:
    if bounded is None:
        return f"s_eventually ({consequent})"
    return f"##[1:{bounded}] ({consequent})"


def _stable_mode(t: Transaction, side_role: str) -> str | None:
    """"signal" when stable is a real signal, "flag" for a constant marker."""
    side = t.side(side_role)
    binding = side.get("stable")
    if binding is None:
        return None
    if binding.source == SOURCE_EXPLICIT_ASSIGN and is_flag_expr(binding.expr):
        return "flag"
    return "signal"


def gen_properties(t: Transaction, aux: TransactionAux, opts: GenOptions,
                   diags: list[Diagnostic] | None = None) -> list[GeneratedProperty]:
    """Emit the full property set for one transaction.

    The result is deterministic: kinds appear in a fixed order, names follow
    `<tname>_<kind>[_<side>]`, and the text depends only on the transaction,
    its aux signals, and the options.
    """
    roles = aux.roles
    if diags is None:
        diags = []

    tn = t.tname
    tracked = transaction_kind(t) == "tracked"
    props: list[GeneratedProperty] = []

    def emit(kind: str, text: str, terms: dict, *, name: str | None = None,
             directive: str | None = None, guard: str | None = None,
             payload: tuple[str, ...] = (), bounded: int | None = None) -> None:
        props.append(
            GeneratedProperty(
                name=name or f"{tn}_{kind}",
                kind=kind,
                directive=directive or plan_polarity(t.direction, kind),
                ltl_text=text,
                guard_macro=guard,
                terms=terms,
                payload=payload,
                bounded=bounded,
                transaction=tn,
            )
        )

    p_hsk, q_hsk = roles["p_hsk"], roles["q_hsk"]
    p_val, q_val = roles["p_val"], roles["q_val"]
    counter = roles["counter"]

    # Handshake and counter roles plus the val/ack signals they derive from.
    base_terms = {
        "p_hsk": p_hsk, "q_hsk": q_hsk, "counter": counter,
        "p_val": p_val, "q_val": q_val,
        **({"p_ack": roles["p_ack"]} if "p_ack" in roles else {}),
        **({"q_ack": roles["q_ack"]} if "q_ack" in roles else {}),
    }

    # val: forward progress and response conservation
    if tracked:
        symb = roles["symb"]
        ant = f"({p_hsk} && ({roles['p_transid']} == {symb}))"
        con = f"{q_val} && ({roles['q_transid']} == {symb})"
        live_terms = {
            **base_terms, "symb": symb,
            "p_transid": roles["p_transid"], "q_transid": roles["q_transid"],
        }
    else:
        ant, con = p_hsk, q_val
        live_terms = dict(base_terms)
    emit("liveness", f"{ant} |-> {_eventually(con, opts.bounded)}", live_terms, bounded=opts.bounded)

    emit("response_had_request", f"{q_val} |-> (({counter} > 0) || {p_hsk})", dict(base_terms))
    emit("counter_no_underflow", f"({q_hsk} && !{p_hsk}) |-> ({counter} > 0)", dict(base_terms))

    # ack: requests are eventually accepted
    if "p_ack" in roles:
        p_ack = roles["p_ack"]
        ack_terms = {"p_val": p_val, "p_ack": p_ack}
        if t.p.has("stable"):
            emit("ack_eventually", f"{p_val} |-> {_eventually(p_ack, opts.bounded)}",
                 ack_terms, bounded=opts.bounded)
        else:
            # A dropped request also discharges the obligation, which would
            # make the assertion vacuous; keep it as reachability coverage.
            window = f"##[0:{opts.bounded}]" if opts.bounded else "##[0:$]"
            emit("ack_eventually", f"{p_val} {window} {p_ack}", ack_terms,
                 directive=COVER, bounded=opts.bounded)

    # stable: pending requests hold their payload
    if t.q.has("stable"):
        diags.append(
            warning(
                "stable-on-response-side",
                f"'{t.q.name}_stable' is bound on the response interface; stability is "
                "checked for the request side only and this binding generates nothing",
                t.span,
            )
        )
    mode = _stable_mode(t, "p")
    if mode is not None:
        if "p_ack" not in roles:
            diags.append(
                warning(
                    "stable-without-ack",
                    f"'{t.p.name}_stable' has no matching ack, a request is never pending; check skipped",
                    t.span,
                )
            )
        elif mode == "signal":
            sig = roles["p_stable"]
            emit("stability", f"({p_val} && !{roles['p_ack']}) |=> {sig}",
                 {"p_val": p_val, "p_ack": roles["p_ack"], "stable_sig": sig})
        else:
            payload = tuple(roles[r] for r in ("p_transid", "p_data") if r in roles)
            if payload:
                con = f"({p_val} && $stable({_concat(list(payload))}))"
            else:
                con = p_val
            emit("stability", f"({p_val} && !{roles['p_ack']}) |=> {con}",
                 {"p_val": p_val, "p_ack": roles["p_ack"]}, payload=payload)

    # active: high exactly while the transaction is ongoing
    if "active" in roles:
        act = roles["active"]
        emit(
            "active_covered",
            f"((({counter} > 0) |-> {act}) and ({act} |-> (({counter} > 0) || {p_hsk} || {q_val})))",
            {**base_terms, "active": act},
        )

    # transid / transid_unique / data: id-tracked integrity
    if tracked:
        symb = roles["symb"]
        inflight = roles["inflight"]
        track_terms = {
            **base_terms, "symb": symb, "inflight": inflight,
            "p_transid": roles["p_transid"], "q_transid": roles["q_transid"],
        }
        emit("transid_integrity",
             f"({q_hsk} && ({roles['q_transid']} == {symb})) |-> {inflight}", track_terms)
        if t.p.has("transid_unique") or t.q.has("transid_unique"):
            emit("uniqueness",
                 f"({p_hsk} && ({roles['p_transid']} == {symb})) |-> !{inflight}", track_terms)
        if "p_data" in roles and "q_data" in roles:
            data_terms = dict(track_terms)
            data_terms.update({"q_data": roles["q_data"], "sampled": roles["sampled"],
                               "p_data": roles["p_data"]})
            emit("data_integrity",
                 f"({q_hsk} && ({roles['q_transid']} == {symb})) |-> ({roles['q_data']} == {roles['sampled']})",
                 data_terms)
    elif "p_data" in roles and "q_data" in roles:
        diags.append(
            warning(
                "data-without-transid",
                f"data integrity of '{tn}' needs a transaction id on both interfaces; check skipped",
                t.span,
            )
        )

    # xprop: per side, no attribute is X while the valid is high
    for side_role, side in (("p", t.p), ("q", t.q)):
        val = roles[f"{side_role}_val"]
        others = [roles[f"{side_role}_{sfx}"] for sfx in ("ack", "transid", "data")
                  if f"{side_role}_{sfx}" in roles]
        if others:
            text = f"{val} |-> !$isunknown({_concat(others)})"
        else:
            text = f"!$isunknown({val})"
        emit("xprop", text, {"val": val, "others": tuple(others)},
             name=f"{tn}_xprop_{side_role}", guard="XPROP")

    return props


def apply_link_transforms(
    props: list[GeneratedProperty], assert_inputs: bool = False
) -> list[GeneratedProperty]:
    """Copy props, turning every assumption into an assertion if assert_inputs.

    Names, bodies and all other directives are kept. This is the polarity a
    testbench takes when its inputs are checked rather than assumed: generated
    with ASSERT_INPUTS=1, or linked under a parent with the `as` flag. Names
    are scoped under a parent by `scope_names`, not here.
    """
    out = []
    for p in props:
        q = replace(p, terms=dict(p.terms))
        if assert_inputs and q.directive == ASSUME:
            q.directive = ASSERT
        out.append(q)
    return out


def scope_names(props: list[GeneratedProperty], scope: str) -> list[GeneratedProperty]:
    """Prefix property names with a submodule scope for parent-level reports."""
    return [replace(p, name=f"{scope}_{p.name}", terms=dict(p.terms)) for p in props]
