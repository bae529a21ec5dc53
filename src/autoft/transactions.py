"""Build validated transactions from relations, explicit attribs, and ports.

Each relation declaration `tname: p -in> q` becomes one Transaction whose two
interface sides carry attribute bindings. A binding is the parser's own
record: the `InterfaceSignal` of a header port or of an `input`/`output`
declaration, which binds by its name, or the `ExplicitAttrib` of a
`field = expr` assignment. An assignment beats a signal of the same field,
with a warning, since the annotation states the designer's intent; two
assignments of one field are an error. A repeated signal name is the
parser's error, and the first signal binds. An annotation whose interface
is in no relation is an error; a port's is not an attribute at all.
"""
from __future__ import annotations

from .diagnostics import Diagnostic, SourceSpan, error, warning
from .parser import ExplicitAttrib, InterfaceSignal, ParsedModule, RelationDecl, split_field

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
    binding, not a side's.
    """

    __slots__ = ("tname", "direction", "p", "q", "active", "span")

    def __init__(self, tname: str, direction: str, p: InterfaceSide, q: InterfaceSide,
                 active: Binding | None = None, span: SourceSpan | None = None):
        self.tname = tname
        self.direction = direction
        self.p = p
        self.q = q
        self.active = active
        self.span = span


def _candidate_bindings(
    pm: ParsedModule, prefixes: set[str], diags: list[Diagnostic]
) -> dict[str, dict[str, Binding]]:
    """Collect bindings per interface name: an assign beats a signal."""
    per_iface: dict[str, dict[str, Binding]] = {p: {} for p in prefixes}
    for ann in pm.annotations:
        payload = ann.payload
        if isinstance(payload, RelationDecl):
            continue
        prefix, suffix = split_field(payload.name)
        if prefix not in per_iface:
            diags.append(
                error(
                    "unbound-attribute",
                    f"'{payload.name}' names interface '{prefix}' which appears in no relation",
                    ann.span,
                    ann.raw_text,
                )
            )
        elif isinstance(payload, ExplicitAttrib):
            first = per_iface[prefix].setdefault(suffix, payload)
            if first is not payload:
                diags.append(
                    error(
                        "duplicate-binding",
                        f"attribute '{payload.name}' bound twice (first at {first.span})",
                        ann.span,
                        ann.raw_text,
                    )
                )

    for sig in pm.signals + pm.declared_signals():
        prefix, suffix = split_field(sig.name) or (None, None)
        if prefix not in per_iface:
            continue  # not an attribute of any declared interface
        bound = per_iface[prefix].setdefault(suffix, sig)
        if isinstance(bound, ExplicitAttrib):
            diags.append(
                warning(
                    "explicit-overrides-port",
                    f"explicit definition of '{bound.name}' overrides port '{sig.name}'",
                    bound.span,
                    sig.name,
                )
            )
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
                (p or q).span,
            )
        )
        return
    wp, wq = p.width_bits, q.width_bits
    if wp is not None and wq is not None and wp != wq:
        diags.append(
            error(
                "width-mismatch",
                f"'{suffix}' widths differ on transaction '{t_name}': {wp} vs {wq} bits",
                q.span,
            )
        )


def build_transactions(pm: ParsedModule) -> tuple[list[Transaction], list[Diagnostic]]:
    """Resolve every relation into a Transaction, collecting all errors.

    Returns the transactions in relation declaration order together with the
    validation diagnostics. A relation with errors still produces no silent
    drop: each problem is reported, and the transaction is omitted from the
    result only when its shape is unusable (missing valid, one-sided id or
    data, self loop).
    """
    diags: list[Diagnostic] = []
    relations = [a for a in pm.annotations if isinstance(a.payload, RelationDecl)]  # names unique: see parse_module

    prefixes = {side for ann in relations for side in (ann.payload.p, ann.payload.q)}

    per_iface = _candidate_bindings(pm, prefixes, diags)

    transactions: list[Transaction] = []
    for ann in relations:
        rel = ann.payload
        bad = False

        if rel.p == rel.q:
            diags.append(
                error("self-loop", f"transaction '{rel.tname}' uses '{rel.p}' as both interfaces", ann.span, ann.raw_text)
            )
            continue

        p_side = InterfaceSide(rel.p, dict(per_iface[rel.p]))
        q_side = InterfaceSide(rel.q, dict(per_iface[rel.q]))
        p_bindings, q_bindings = p_side.bindings, q_side.bindings

        for side in (p_side, q_side):
            if "val" not in side.bindings:
                diags.append(
                    error("missing-val", f"interface '{side.name}' of '{rel.tname}' has no 'val' binding", ann.span, ann.raw_text)
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
                        side.bindings["transid_unique"].span,
                    )
                )
                bad = True

        active = None
        pa, qa = p_bindings.pop("active", None), q_bindings.pop("active", None)
        if pa and qa:
            diags.append(
                error("duplicate-binding", f"'active' of '{rel.tname}' is bound on both interfaces", qa.span)
            )
            bad = True
        else:
            active = pa or qa

        if bad:
            continue
        transactions.append(
            Transaction(rel.tname, rel.direction, p_side, q_side, active=active, span=ann.span)
        )

    return transactions, diags
