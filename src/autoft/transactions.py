"""Build validated transactions from relations, explicit attribs, and ports.

Each relation declaration `tname: p -in> q` becomes one Transaction whose two
interface sides carry attribute bindings. A binding is the parser's own
record: the `InterfaceSignal` of a header port or of an `input`/`output`
declaration, which binds by its name, or the `ExplicitAttrib` of a
`field = expr` assignment. An assignment beats a signal of the same field,
with a warning, since the annotation states the designer's intent; two
assignments of one field are an error. A repeated signal name is the
parser's error, and the first signal binds. An annotation whose interface
is in no relation is an error; a port's is not an attribute at all. Each
signal's name is split once (`split_field`): a port's where it binds, a
declared signal's where its interface is looked up.

A transaction keeps its relation's source offset, as the parser's records
keep theirs; `build_transactions` and synthesis report diagnostics at those
offsets and locate them before they return (`ParsedModule.locate`).

`TransactionAux` is what synthesis (`autoft.signals`) gives a transaction:
its names and its `properties.Shape`. It is defined here so that
`autoft.properties`, which reads it, and `autoft.signals`, which makes it,
import it without importing each other in a cycle.
"""
from __future__ import annotations

from collections import namedtuple

from .diagnostics import Diagnostic, error, warning
from .parser import ExplicitAttrib, InterfaceSignal, ParsedModule, RelationDecl, split_field
from .sva import Aux

Binding = InterfaceSignal | ExplicitAttrib


class InterfaceSide:
    """An interface participating in a transaction, with its bindings."""

    __slots__ = ("name", "bindings")

    def __init__(self, name: str, bindings: dict[str, Binding]):
        self.name = name
        self.bindings = bindings


class Transaction:
    """A named request/response implication between two interfaces.

    direction is "incoming" or "outgoing"; active is the transaction-level
    binding, not a side's; offset is its relation's source offset.
    """

    __slots__ = ("tname", "direction", "p", "q", "active", "offset")

    def __init__(self, tname: str, direction: str, p: InterfaceSide, q: InterfaceSide,
                 active: Binding | None = None, offset: int | None = None):
        self.tname = tname
        self.direction = direction
        self.p = p
        self.q = q
        self.active = active
        self.offset = offset


class TransactionAux(namedtuple("TransactionAux", "names shape")):
    """What synthesis (`autoft.signals`) gives one transaction: its names and its shape.

    names is the flat list of every name its text fills in, its property
    labels last; shape is the `properties.Shape` of every transaction of its
    shape in its module. signals are its aux signals, which the shape's
    builder makes afresh over its names on each read (`Shape.bind`).
    """

    __slots__ = ()

    @property
    def signals(self) -> list[Aux]:
        return self.shape.bind(self.names)[1]


def _candidate_bindings(
    pm: ParsedModule, prefixes: set[str], diags: list[Diagnostic]
) -> dict[str, dict[str, Binding]]:
    """Collect bindings per interface name: an assign beats a signal."""
    per_iface: dict[str, dict[str, Binding]] = {p: {} for p in prefixes}
    declared: list[tuple[InterfaceSignal, str, str]] = []  # the declared signals of interfaces, split once
    dups: list[tuple[int, int]] = []  # each duplicate-binding error's index in `diags`, and its first binding's offset
    for ann in pm.annotations:
        payload = ann.payload
        if type(payload) is RelationDecl:
            continue
        prefix, suffix = split_field(payload.name)
        if prefix not in per_iface:
            diags.append(
                error(
                    "unbound-attribute",
                    f"'{payload.name}' names interface '{prefix}' which appears in no relation",
                    ann.offset,
                    ann.raw_text,
                )
            )
        elif type(payload) is InterfaceSignal:
            declared.append((payload, prefix, suffix))
        else:
            first = per_iface[prefix].setdefault(suffix, payload)
            if first is not payload:
                dups.append((len(diags), first.offset))
                diags.append(error("duplicate-binding", f"attribute '{payload.name}' bound twice", ann.offset,
                                   ann.raw_text))
    firsts = sorted({first for _, first in dups})  # located in one batch, as each message names its first binding
    at = dict(zip(firsts, pm.spans(firsts)))
    for i, first in dups:
        diags[i] = diags[i]._replace(message=f"{diags[i].message} (first at {at[first]})")

    overridden = []  # (assignment, signal): the header's ports, then the declared signals, bound after them
    for sig in pm.signals:
        prefix, suffix = split_field(sig.name) or (None, None)
        if prefix in per_iface and type(bound := per_iface[prefix].setdefault(suffix, sig)) is ExplicitAttrib:
            overridden.append((bound, sig))
    for sig, prefix, suffix in declared:
        if type(bound := per_iface[prefix].setdefault(suffix, sig)) is ExplicitAttrib:
            overridden.append((bound, sig))
    diags += [warning("explicit-overrides-port", f"explicit definition of '{bound.name}' overrides port '{sig.name}'",
                      bound.offset, sig.name) for bound, sig in overridden]
    return per_iface


def _check_paired_widths(
    t_name: str, suffix: str, p: Binding | None, q: Binding | None, diags: list[Diagnostic],
) -> None:
    """Report an attribute bound on one side only, or with two known widths that differ; one side is bound."""
    if (p is None) != (q is None):
        diags.append(
            error(
                "one-sided-attr",
                f"'{suffix}' of transaction '{t_name}' is bound on only one interface",
                (p or q).offset,
            )
        )
        return
    wp, wq = p.width_bits, q.width_bits
    if wp is not None and wq is not None and wp != wq:
        diags.append(
            error(
                "width-mismatch",
                f"'{suffix}' widths differ on transaction '{t_name}': {wp} vs {wq} bits",
                q.offset,
            )
        )


def build_transactions(pm: ParsedModule) -> tuple[list[Transaction], list[Diagnostic]]:
    """Resolve every relation into a Transaction, collecting all errors.

    Returns the transactions in relation declaration order together with the
    validation diagnostics, located. A relation with errors still produces
    no silent drop: each problem is reported, and the transaction is omitted
    from the result only when its shape is unusable (missing valid,
    one-sided id or data, self loop).
    """
    diags: list[Diagnostic] = []
    relations = [a for a in pm.annotations if type(a.payload) is RelationDecl]  # names unique: see parse_module

    prefixes = {side for ann in relations for side in (ann.payload.p, ann.payload.q)}

    per_iface = _candidate_bindings(pm, prefixes, diags)

    transactions: list[Transaction] = []
    for ann in relations:
        rel = ann.payload
        bad = False

        if rel.p == rel.q:
            diags.append(
                error("self-loop", f"transaction '{rel.tname}' uses '{rel.p}' as both interfaces", ann.offset, ann.raw_text)
            )
            continue

        p_side = InterfaceSide(rel.p, dict(per_iface[rel.p]))
        q_side = InterfaceSide(rel.q, dict(per_iface[rel.q]))
        p_bindings, q_bindings = p_side.bindings, q_side.bindings

        for side in (p_side, q_side):
            if "val" not in side.bindings:
                diags.append(
                    error("missing-val", f"interface '{side.name}' of '{rel.tname}' has no 'val' binding", ann.offset, ann.raw_text)
                )
                bad = True

        for suffix in ("transid", "data"):
            pb, qb = p_bindings.get(suffix), q_bindings.get(suffix)
            if pb is not None or qb is not None:
                _check_paired_widths(rel.tname, suffix, pb, qb, diags)
                bad |= (pb is None) != (qb is None)

        for side in (p_side, q_side):
            if "transid_unique" in side.bindings and "transid" not in side.bindings:
                diags.append(
                    error(
                        "unique-without-transid",
                        f"'{side.name}_transid_unique' needs '{side.name}_transid' on the same interface",
                        side.bindings["transid_unique"].offset,
                    )
                )
                bad = True

        active = None
        pa, qa = p_bindings.pop("active", None), q_bindings.pop("active", None)
        if pa and qa:
            diags.append(
                error("duplicate-binding", f"'active' of '{rel.tname}' is bound on both interfaces", qa.offset)
            )
            bad = True
        else:
            active = pa or qa

        if bad:
            continue
        transactions.append(
            Transaction(rel.tname, rel.direction, p_side, q_side, active=active, offset=ann.offset)
        )
    pm.locate(diags)
    return transactions, diags
