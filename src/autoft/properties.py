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

Each body is a node tree of the property IR (`autoft.sva`) built by the
per-kind builders below: the emitter renders it and `autoft.tracecheck`
evaluates it.
"""
from __future__ import annotations

from .diagnostics import Diagnostic, warning
from .options import GenOptions
from .signals import TransactionAux
from .sva import (
    And, CoverSeq, Eq, Eventually, Gt, Implies, IsUnknown, Node, Not, Or, PropAnd, Stable, matched,
)
from .transactions import Transaction

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


# Direction -> kind -> directive, by `plan_polarity`.
_POLARITY = {d: {kind: plan_polarity(d, kind) for kind in KINDS} for d in ("incoming", "outgoing")}


class GeneratedProperty:
    """One property: its IR body, rendered on demand as SVA text.

    compiled is (body, evaluator) as `tracecheck.eval_property` last compiled
    it; it is recompiled when `body` is another object.
    """

    __slots__ = ("name", "kind", "directive", "body", "compiled")

    def __init__(self, name: str, kind: str, directive: str, body: Node):
        self.name = name
        self.kind = kind
        self.directive = directive  # assert | assume | cover
        self.body = body
        self.compiled = None

    def _replace(self, **changes) -> GeneratedProperty:
        """A copy with the given fields changed, not yet compiled."""
        fields = {"name": self.name, "kind": self.kind, "directive": self.directive, "body": self.body}
        return GeneratedProperty(**{**fields, **changes})

    @property
    def ltl_text(self) -> str:
        return self.body.render()


# One builder per kind (liveness and ack_eventually share `eventually`).
# gen_properties and the differential oracle both build bodies through these,
# so the oracle evaluates the nodes that are emitted.

def eventually(ant: Node, x: Node, bounded: int | None) -> Node:
    """ant demands x in its own cycle or later: within `bounded` cycles if set."""
    return Implies(ant, Eventually(x, bounded))


def response_had_request(q_val: Node, counter: Node, p_hsk: Node) -> Node:
    return Implies(q_val, Or((Gt(counter, 0), p_hsk)))


def counter_no_underflow(p_hsk: Node, q_hsk: Node, counter: Node) -> Node:
    return Implies(And(q_hsk, Not(p_hsk)), Gt(counter, 0))


def ack_cover(p_val: Node, p_ack: Node, bounded: int | None) -> Node:
    return CoverSeq(p_val, p_ack, bounded)


def stability(p_val: Node, p_ack: Node, sig: Node | None = None, payload: tuple[Node, ...] = ()) -> Node:
    """A pending request holds sig, or else its valid and payload, next cycle."""
    if sig is None:
        sig = And(p_val, Stable(payload)) if payload else p_val
    return Implies(And(p_val, Not(p_ack)), sig, next_cycle=True)


def active_covered(counter: Node, active: Node, p_hsk: Node, q_val: Node) -> Node:
    busy = Gt(counter, 0)
    return PropAnd(Implies(busy, active), Implies(active, Or((busy, p_hsk, q_val))))


def transid_integrity(resp: Node, inflight: Node) -> Node:
    return Implies(resp, inflight)


def uniqueness(req: Node, inflight: Node) -> Node:
    return Implies(req, Not(inflight))


def data_integrity(resp: Node, q_data: Node, sampled: Node) -> Node:
    return Implies(resp, Eq(q_data, sampled, two_valued=True))


def xprop(val: Node, others: tuple[Node, ...]) -> Node:
    if others:
        return Implies(val, Not(IsUnknown(others)))
    return Not(IsUnknown((val,)))


def gen_properties(t: Transaction, aux: TransactionAux, opts: GenOptions,
                   diags: list[Diagnostic]) -> list[GeneratedProperty]:
    """Emit the full property set for one transaction.

    The result is deterministic: kinds appear in a fixed order, names follow
    `<tname>_<kind>[_<side>]`, and the body depends only on the transaction,
    its aux signals, and the options.
    """
    roles = aux.roles
    tn = t.tname
    tracked = "inflight" in roles  # synth tracks a transaction with an id on both sides
    props: list[GeneratedProperty] = []
    polarity = _POLARITY[t.direction]

    def emit(kind: str, body: Node, *, name: str | None = None, directive: str | None = None) -> None:
        props.append(GeneratedProperty(name or f"{tn}_{kind}", kind, directive or polarity[kind], body))

    p_hsk, q_hsk = roles["p_hsk"], roles["q_hsk"]
    p_val, q_val = roles["p_val"], roles["q_val"]
    counter = roles["counter"]

    # val: forward progress and response conservation
    if tracked:
        inflight = roles["inflight"]  # set by a request for the symbolic id, cleared by its response
        resp = matched(q_val, roles["q_transid"], roles["symb"])
        emit("liveness", eventually(inflight.set, resp, opts.bounded))
    else:
        emit("liveness", eventually(p_hsk, q_val, opts.bounded))
    emit("response_had_request", response_had_request(q_val, counter, p_hsk))
    emit("counter_no_underflow", counter_no_underflow(p_hsk, q_hsk, counter))

    # ack: requests are eventually accepted
    if "p_ack" in roles:
        if "stable" in t.p.bindings:
            emit("ack_eventually", eventually(p_val, roles["p_ack"], opts.bounded))
        else:
            # A dropped request also discharges the obligation, which would
            # make the assertion vacuous; keep it as reachability coverage.
            emit("ack_eventually", ack_cover(p_val, roles["p_ack"], opts.bounded), directive=COVER)

    # stable: pending requests hold their payload
    if "stable" in t.q.bindings:
        diags.append(
            warning(
                "stable-on-response-side",
                f"'{t.q.name}_stable' is bound on the response interface; stability is "
                "checked for the request side only and this binding generates nothing",
                t.span,
            )
        )
    if "stable" in t.p.bindings:
        if "p_ack" not in roles:
            diags.append(
                warning(
                    "stable-without-ack",
                    f"'{t.p.name}_stable' has no matching ack, a request is never pending; check skipped",
                    t.span,
                )
            )
        else:
            # A flag binding has no p_stable signal: the valid and payload are checked.
            payload = tuple(roles[r] for r in ("p_transid", "p_data") if r in roles)
            emit("stability", stability(p_val, roles["p_ack"], roles.get("p_stable"), payload))

    # active: high exactly while the transaction is ongoing
    if "active" in roles:
        emit("active_covered", active_covered(counter, roles["active"], p_hsk, q_val))

    # transid / transid_unique / data: id-tracked integrity
    if tracked:
        emit("transid_integrity", transid_integrity(inflight.clr, inflight))
        if "transid_unique" in t.p.bindings or "transid_unique" in t.q.bindings:
            emit("uniqueness", uniqueness(inflight.set, inflight))
        if "sampled" in roles:
            emit("data_integrity", data_integrity(inflight.clr, roles["q_data"], roles["sampled"]))
    elif "p_data" in roles and "q_data" in roles:
        diags.append(
            warning(
                "data-without-transid",
                f"data integrity of '{tn}' needs a transaction id on both interfaces; check skipped",
                t.span,
            )
        )

    # xprop: per side, no attribute is X while the valid is high
    for side_role, val, controls in (("p", p_val, ("p_ack", "p_transid", "p_data")),
                                     ("q", q_val, ("q_ack", "q_transid", "q_data"))):
        others = tuple(roles[r] for r in controls if r in roles)
        emit("xprop", xprop(val, others), name=f"{tn}_xprop_{side_role}")

    return props


def apply_link_transforms(
    props: list[GeneratedProperty], assert_inputs: bool = False
) -> list[GeneratedProperty]:
    """The props, with every assumption turned into an assertion if assert_inputs.

    Names, bodies and all other directives are kept. This is the polarity a
    testbench takes when its inputs are checked rather than assumed: generated
    with ASSERT_INPUTS=1, or linked under a parent with the `as` flag. Names
    are scoped under a parent by `scope_names`, not here.
    """
    return [p._replace(directive=ASSERT) if assert_inputs and p.directive == ASSUME else p for p in props]


def scope_names(props: list[GeneratedProperty], scope: str) -> list[GeneratedProperty]:
    """Prefix property names with a submodule scope for parent-level reports."""
    return [p._replace(name=f"{scope}_{p.name}") for p in props]
