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
                    payload into the next cycle); request side with an
                    ack only, otherwise skipped with a warning
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

Directions: one table, `_POLARITY`, gives each kind its directive on an
incoming transaction and on an outgoing one, in the order kinds are emitted,
and `KINDS` is its keys. For incoming transactions the design obligations
(liveness, response_had_request, counter_no_underflow, ack_eventually,
transid_integrity, data_integrity) are asserted and the environment
obligations (stability, uniqueness) are assumed; outgoing transactions swap
both groups. active_covered and xprop are always asserted.

Synthesis (`autoft.signals`) decides which of these checks a transaction
gets, and under which label: it fills in a role for each deciding attribute
(`p_stable` only on a request side with an ack, `inflight` when tracked,
`unique`, `sampled`, `active`) and renames a label that clashes with a
declared name. This module alone turns the roles into checks: `_checks`
gives each check's label suffix, kind, directive (every assumption asserted
under `assert_inputs`) and body, reading only the roles, never the bindings,
and reporting nothing.

The checks follow from the options and the transaction's shape alone, and
so do the bodies and the aux declarations up to names. So one builder per
shape, synthesis's role-map builder followed by `_checks`, makes every tree
a transaction of that shape has, given a function that names its i-th
name (`TransactionAux.names`). This is partial evaluation: the shape is the
static part, and the names the dynamic one. A `Shape` runs the builder
once over slot names, `slot(i)` for the i-th name, and `Shape.render`
renders those trees once into the pieces of text between slot names: each
transaction's block of `<dut>_prop.sv`, its relation comment, its
declarations and its properties, is those pieces joined with its names.
`Shape.bind` runs the same builder over a transaction's own names, and
makes fresh trees on each call: `gen_properties` binds each transaction
once and runs `_checks` on its roles, which gives each property its body,
and `TransactionAux.signals` binds it again for the callers that read its
aux signals. Only `slot` writes a slot name, and only `Shape.render` reads
one.

Each body is a node tree of the property IR (`autoft.sva`) built by the
per-kind builders below: the emitter renders it and `autoft.tracecheck`
evaluates it.
"""
from __future__ import annotations

from collections.abc import Callable
from operator import itemgetter

from .diagnostics import Diagnostic
from .options import GenOptions
from .sva import (
    And, Aux, CoverSeq, Eq, Eventually, Gt, Implies, IsUnknown, Node, Not, Or, PropAnd, Stable, matched,
)
from .transactions import Transaction, TransactionAux

ASSERT = "assert"
ASSUME = "assume"
COVER = "cover"
# The parameter that asserts every assumption; `link`'s `as` flag sets it by name, so it is never renamed.
ASSERT_INPUTS = "ASSERT_INPUTS"
# After an assumption's label, its generate blocks': `if (ASSERT_INPUTS) begin : <label>_asrt`, else `<label>_assm`.
ASRT_BLOCK, ASSM_BLOCK = "_asrt", "_assm"

_DIRECTIONS = ("incoming", "outgoing")

# Kind -> (directive on an incoming transaction, on an outgoing one), in emission order.
_POLARITY = {
    "liveness": (ASSERT, ASSUME),
    "response_had_request": (ASSERT, ASSUME),
    "counter_no_underflow": (ASSERT, ASSUME),
    "ack_eventually": (ASSERT, ASSUME),
    "stability": (ASSUME, ASSERT),
    "active_covered": (ASSERT, ASSERT),
    "transid_integrity": (ASSERT, ASSUME),
    "uniqueness": (ASSUME, ASSERT),
    "data_integrity": (ASSERT, ASSUME),
    "xprop": (ASSERT, ASSERT),
}
KINDS = tuple(_POLARITY)
# `_POLARITY` with every assumption asserted: the directives under `assert_inputs`.
_ASSERTED = {kind: tuple(ASSERT if d == ASSUME else d for d in directives) for kind, directives in _POLARITY.items()}


def plan_polarity(direction: str, kind: str) -> str:
    """Directive for a property kind on a transaction of the given direction."""
    if kind not in _POLARITY:
        raise ValueError(f"unknown property kind '{kind}'")
    if direction not in _DIRECTIONS:
        raise ValueError(f"unknown direction '{direction}'")
    return _POLARITY[kind][_DIRECTIONS.index(direction)]


class GeneratedProperty:
    """One property: its IR body, which `body.render()` gives as SVA text.

    monitor is the `tracecheck.Monitor` last kept on it: of its own body,
    as `tracecheck.eval_property` makes it, or of the bodies of a list that
    this property heads, as `models.check_bundle_on_model` makes it. Each
    remakes it when the bodies it was made of are not the ones it is given.
    A monitor holds no property, so it makes no reference cycle.
    """

    __slots__ = ("name", "kind", "directive", "body", "monitor")

    def __init__(self, name: str, kind: str, directive: str, body: Node):
        # directive is assert, assume or cover
        self.name, self.kind, self.directive, self.body, self.monitor = name, kind, directive, body, None

    def _replace(self, **changes) -> GeneratedProperty:
        """A copy with the given fields changed, with no monitor."""
        fields = {"name": self.name, "kind": self.kind, "directive": self.directive, "body": self.body}
        return GeneratedProperty(**{**fields, **changes})


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


def _checks(direction: str, roles: dict[str, Node | None], opts: GenOptions) -> list[tuple[str, str, str, Node]]:
    """(label suffix, kind, directive, body) of each property of a transaction with these roles, in emitted order.

    The suffix is `_<kind>`, or `_xprop_<side>`. The directive is the
    kind's on the transaction's direction, an assumption asserted if
    `opts.assert_inputs`. The body depends only on the direction, the roles
    and the options.
    """
    tracked = "inflight" in roles  # synth tracks a transaction with an id on both sides
    checks: list[tuple[str, str, str, Node]] = []
    side, polarity = _DIRECTIONS.index(direction), _ASSERTED if opts.assert_inputs else _POLARITY

    def emit(kind: str, body: Node, *, suffix: str | None = None, directive: str | None = None) -> None:
        checks.append((suffix or f"_{kind}", kind, directive or polarity[kind][side], body))

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
        if "p_stable" in roles:
            emit("ack_eventually", eventually(p_val, roles["p_ack"], opts.bounded))
        else:
            # A dropped request also discharges the obligation, which would
            # make the assertion vacuous; keep it as reachability coverage.
            emit("ack_eventually", ack_cover(p_val, roles["p_ack"], opts.bounded), directive=COVER)

    # stable: pending requests hold their payload
    if "p_stable" in roles:
        # A flag binding gives no signal (None): the valid and payload are checked.
        payload = tuple(roles[r] for r in ("p_transid", "p_data") if r in roles)
        emit("stability", stability(p_val, roles["p_ack"], roles["p_stable"], payload))

    # active: high exactly while the transaction is ongoing
    if "active" in roles:
        emit("active_covered", active_covered(counter, roles["active"], p_hsk, q_val))

    # transid / transid_unique / data: id-tracked integrity
    if tracked:
        emit("transid_integrity", transid_integrity(inflight.clr, inflight))
        if "unique" in roles:
            emit("uniqueness", uniqueness(inflight.set, inflight))
        if "sampled" in roles:
            emit("data_integrity", data_integrity(inflight.clr, roles["q_data"], roles["sampled"]))

    # xprop: per side, no attribute is X while the valid is high
    for side_role, val, controls in (("p", p_val, ("p_ack", "p_transid", "p_data")),
                                     ("q", q_val, ("q_ack", "q_transid", "q_data"))):
        others = tuple(roles[r] for r in controls if r in roles)
        emit("xprop", xprop(val, others), suffix=f"_xprop_{side_role}")

    return checks


def gen_properties(t: Transaction, aux: TransactionAux, opts: GenOptions,
                   diags: list[Diagnostic]) -> list[GeneratedProperty]:
    """Emit the full property set for one transaction.

    The result is deterministic: kinds appear in a fixed order, names follow
    `<tname>_<kind>[_<side>]` unless synthesis renamed the label, and the
    checks are those of the transaction's shape, made under the options
    synthesis was given, with bodies built over the roles of the
    transaction's names (`Shape.bind`). Synthesis (`signals.synth_module`)
    has decided the checks, and warned of each binding that generates none,
    so nothing is reported into `diags`.
    """
    checks = _checks(aux.shape._direction, aux.shape.bind(aux.names)[0], aux.shape._opts)
    return [GeneratedProperty(label, kind, directive, body)
            for (_, kind, directive, body), label in zip(checks, aux.names[aux.shape.size:])]


def slot(i: int) -> str:
    """The name that stands for a transaction's i-th name in its shape's trees: chr(i + 1) between two NULs.

    No text that autoft renders holds a NUL, and the text stays one byte a
    character, as the names are.
    """
    return f"\0{chr(i + 1)}\0"


def _render_property(name: str, directive: str, body: str) -> str:
    """A property's text, of one or more lines, around its body: `@(posedge clk) disable iff (...)`, then its tree."""
    if directive != ASSUME:
        return f"{name}: {directive} property ({body});"
    return (f"if ({ASSERT_INPUTS}) begin : {name}{ASRT_BLOCK}\n    {name}: assert property ({body});\n"
            f"end else begin : {name}{ASSM_BLOCK}\n    {name}: assume property ({body});\nend")


class Shape:
    """The trees and the text of every transaction of one shape in a module.

    A transaction's names are one flat list (`TransactionAux.names`): its
    name, its interfaces', its counter's limit parameter and limit, its
    signals' names, assigns and ranges in the order synthesis allocates
    them, `size` in all, then its property labels. `build(name)` is the
    shape's role-map builder (`signals._slotted`), which gives the role map,
    the aux signals and `size` with `name(i)` for the i-th name. signals are
    the aux signals over `slot(i)` for the i-th name, and checks holds
    (label suffix, kind, directive, body) of each check over the same slots,
    in emitted order. A transaction's own trees come from the same builder
    run over its names (`bind`), and its text is the shape's with its names
    filled in (`render`).
    """

    __slots__ = ("checks", "signals", "size", "_direction", "_build", "_opts", "_pieces", "_names")

    def __init__(self, direction: str, build: Callable[[Callable[[int], str | int]], tuple], opts: GenOptions):
        roles, self.signals, self.size = build(slot)
        self.checks = _checks(direction, roles, opts)
        self._direction, self._build, self._opts, self._pieces = direction, build, opts, None

    def bind(self, names: list) -> tuple[dict[str, Node | None], list[Aux]]:
        """The role map and aux signals of the transaction of this shape named by `names`.

        The shape's builder makes them over its names, afresh on every call.
        """
        return self._build(names.__getitem__)[:2]

    def render(self, names: list) -> str:
        """The block of `<dut>_prop.sv` of the transaction named by `names`: its relation, declarations and properties.

        The first call renders the shape's trees into pieces of text between
        slot names, and each call, the first included, joins the pieces
        with the names in the slots.
        """
        if self._pieces is None:
            opts, guarded, arrow = self._opts, [], "-in>" if self._direction == "incoming" else "-out>"
            head = f"@(posedge {opts.clk}) disable iff ({opts.rst_expr})"
            lines = ["", "", f"// ---- transaction {slot(0)}: {slot(1)} {arrow} {slot(2)} ----", ""]
            for a in self.signals:
                lines += a.declare(opts)
            for i, (_, kind, directive, tree) in enumerate(self.checks, self.size):
                text = _render_property(slot(i), directive, f"{head}\n    {tree.render()}")
                if kind == "xprop":
                    guarded.append(text)
                else:
                    lines += ("", text)
            if guarded:
                lines += ["", "`ifdef XPROP", *guarded, "`endif"]
            self._pieces = "\n".join(lines).split("\0")  # every odd piece is a slot's chr(index + 1)
            self._names = itemgetter(*[ord(c) - 1 for c in self._pieces[1::2]])  # three slots at least: a tuple
        pieces = self._pieces.copy()
        pieces[1::2] = self._names(names)
        return "".join(pieces)


def apply_link_transforms(
    props: list[GeneratedProperty], assert_inputs: bool = False
) -> list[GeneratedProperty]:
    """The props, with every assumption turned into an assertion if assert_inputs.

    Names, bodies and all other directives are kept. This is the polarity a
    testbench takes when its inputs are checked rather than assumed: generated
    with ASSERT_INPUTS=1, or linked under a parent with the `as` flag.
    """
    return [p._replace(directive=ASSERT) if assert_inputs and p.directive == ASSUME else p for p in props]
