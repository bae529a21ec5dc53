"""Build validated transactions from relations, explicit attribs, and ports.

Each relation declaration `tname: p -in> q` becomes one Transaction whose two
interface sides carry attribute bindings. Bindings are resolved in precedence
order: explicit `field = expr` assignments beat explicit input/output
declarations, which beat implicitly matched ports. When an explicit definition
shadows a port of the same field name the explicit one wins and a warning is
emitted, since the annotation states the designer's intent.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import Diagnostic, SourceSpan, error, warning
from .parser import (
    Annotation,
    ExplicitAttrib,
    ParsedModule,
    classify_field,
    literal_width_bits,
)

# Binding sources, strongest first.
SOURCE_EXPLICIT_ASSIGN = "explicit_assign"
SOURCE_EXPLICIT_DECL = "explicit_decl"
SOURCE_IMPLICIT = "implicit"

_PRECEDENCE = {SOURCE_EXPLICIT_ASSIGN: 0, SOURCE_EXPLICIT_DECL: 1, SOURCE_IMPLICIT: 2}


@dataclass(frozen=True)
class AttributeBinding:
    """One attribute suffix bound to a signal or expression on one interface."""

    suffix: str
    source: str  # explicit_assign | explicit_decl | implicit
    signal_name: str  # referable name (port, declared signal, or derived wire)
    width_expr: str  # verbatim range, "" when 1-bit or unknown
    span: SourceSpan
    expr: str = ""  # right-hand side for explicit_assign bindings
    width_known: bool = True  # False when the range was omitted on an assign

    @property
    def width_bits(self) -> int | None:
        if not self.width_known:
            return None
        return literal_width_bits(self.width_expr)


@dataclass
class InterfaceSide:
    """An interface participating in a transaction, with its bindings."""

    name: str
    bindings: dict[str, AttributeBinding] = field(default_factory=dict)

    def get(self, suffix: str) -> AttributeBinding | None:
        return self.bindings.get(suffix)

    def has(self, suffix: str) -> bool:
        return suffix in self.bindings


@dataclass
class Transaction:
    """A named request/response implication between two interfaces."""

    tname: str
    direction: str  # "incoming" or "outgoing"
    p: InterfaceSide
    q: InterfaceSide
    active: AttributeBinding | None = None  # transaction-level, not per side
    span: SourceSpan | None = None


def transaction_kind(t: Transaction) -> str:
    """"tracked" when a transaction id is bound on both sides, else "untracked"."""
    return "tracked" if t.p.has("transid") and t.q.has("transid") else "untracked"


def _candidate_bindings(
    pm: ParsedModule, prefixes: set[str], diags: list[Diagnostic]
) -> dict[str, dict[str, AttributeBinding]]:
    """Collect bindings per interface name, applying source precedence."""
    per_iface: dict[str, dict[str, AttributeBinding]] = {p: {} for p in prefixes}

    def place(iface: str, binding: AttributeBinding, raw: str) -> None:
        existing = per_iface[iface].get(binding.suffix)
        if existing is None:
            per_iface[iface][binding.suffix] = binding
            return
        old_rank = _PRECEDENCE[existing.source]
        new_rank = _PRECEDENCE[binding.source]
        if old_rank == new_rank:
            diags.append(
                error(
                    "duplicate-binding",
                    f"attribute '{iface}_{binding.suffix}' bound twice (first at {existing.span})",
                    binding.span,
                    raw,
                )
            )
            return
        winner, loser = (binding, existing) if new_rank < old_rank else (existing, binding)
        if loser.source == SOURCE_IMPLICIT:
            diags.append(
                warning(
                    "explicit-overrides-port",
                    f"explicit definition of '{iface}_{binding.suffix}' overrides port '{loser.signal_name}'",
                    winner.span,
                    raw,
                )
            )
        per_iface[iface][binding.suffix] = winner

    for ann in pm.explicit_attribs():
        attr: ExplicitAttrib = ann.payload
        iface = attr.field_name.prefix
        if iface not in prefixes:
            diags.append(
                error(
                    "unbound-attribute",
                    f"'{attr.field_name}' names interface '{iface}' which appears in no relation",
                    ann.span,
                    ann.raw_text,
                )
            )
            continue
        if attr.decl == "assign":
            binding = AttributeBinding(
                suffix=attr.field_name.suffix,
                source=SOURCE_EXPLICIT_ASSIGN,
                signal_name=str(attr.field_name),
                width_expr=attr.width_expr,
                span=ann.span,
                expr=attr.expr,
                width_known=bool(attr.width_expr),
            )
        else:
            binding = AttributeBinding(
                suffix=attr.field_name.suffix,
                source=SOURCE_EXPLICIT_DECL,
                signal_name=str(attr.field_name),
                width_expr=attr.width_expr,
                span=ann.span,
            )
        place(iface, binding, ann.raw_text)

    for sig in pm.signals:
        fname = classify_field(sig.name, prefixes)
        if fname is None:
            continue  # not an attribute of any declared interface
        binding = AttributeBinding(
            suffix=fname.suffix,
            source=SOURCE_IMPLICIT,
            signal_name=sig.name,
            width_expr=sig.width_expr,
            span=sig.span,
            width_known=sig.opaque_type is None,
        )
        place(fname.prefix, binding, sig.name)

    return per_iface


def _check_paired_widths(
    t_name: str, suffix: str, p: AttributeBinding | None, q: AttributeBinding | None,
    rel_span: SourceSpan, diags: list[Diagnostic],
) -> None:
    if (p is None) != (q is None):
        bound = p or q
        diags.append(
            error(
                "one-sided-attr",
                f"'{suffix}' of transaction '{t_name}' is bound on only one interface",
                bound.span if bound else rel_span,
            )
        )
        return
    if p is None or q is None:
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
    relations = [a for a in pm.annotations if a.kind == "relation"]

    # Skip duplicate tnames here; the parser already reported them.
    seen: set[str] = set()
    unique_relations: list[Annotation] = []
    for ann in relations:
        if ann.payload.tname in seen:
            continue
        seen.add(ann.payload.tname)
        unique_relations.append(ann)

    prefixes: set[str] = set()
    for ann in unique_relations:
        prefixes.add(ann.payload.p)
        prefixes.add(ann.payload.q)

    per_iface = _candidate_bindings(pm, prefixes, diags)

    transactions: list[Transaction] = []
    for ann in unique_relations:
        rel = ann.payload
        bad = False

        if rel.p == rel.q:
            diags.append(
                error("self-loop", f"transaction '{rel.tname}' uses '{rel.p}' as both interfaces", ann.span, ann.raw_text)
            )
            continue

        p_side = InterfaceSide(rel.p, dict(per_iface.get(rel.p, {})))
        q_side = InterfaceSide(rel.q, dict(per_iface.get(rel.q, {})))

        for side in (p_side, q_side):
            if not side.has("val"):
                diags.append(
                    error("missing-val", f"interface '{side.name}' of '{rel.tname}' has no 'val' binding", ann.span, ann.raw_text)
                )
                bad = True

        for suffix in ("transid", "data"):
            pb, qb = p_side.get(suffix), q_side.get(suffix)
            before = len(diags)
            _check_paired_widths(rel.tname, suffix, pb, qb, ann.span, diags)
            if len(diags) > before and (pb is None or qb is None):
                bad = True

        for side in (p_side, q_side):
            if side.has("transid_unique") and not side.has("transid"):
                diags.append(
                    error(
                        "unique-without-transid",
                        f"'{side.name}_transid_unique' needs '{side.name}_transid' on the same interface",
                        side.get("transid_unique").span,
                    )
                )
                bad = True
            if side.has("stable") and not side.has("val"):
                # already reported as missing-val; stability has nothing to hold
                bad = True

        active = None
        pa, qa = p_side.bindings.pop("active", None), q_side.bindings.pop("active", None)
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
