"""Exhaustive differential harness: evaluator vs naive checkers.

Each case enumerates every trace over its signal domains up to a length and
compares the package evaluator's verdict against the independent naive checker
from naive_checkers.py. A case's property body is built by the same per-kind
builder that gen_properties calls, and `sva` is the text it renders to, so
the evaluator checks the node tree that is emitted. The core spaces follow the two-enumerated-signal,
lengths-1..6 regime; kinds whose semantics need more columns (id tracking,
payload stability, unknown values) get additional exhaustive spaces at
shorter lengths so the whole run stays inside the default enumeration bound.
The counter spaces use limit 1, a 1-bit counter that wraps within a few
cycles, and limit 8, which wraps only when it counts below 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from autoft import properties as P
from autoft.properties import GeneratedProperty
from autoft.sva import Counter, Inflight, Node, Sampled, Sig, Symbolic, matched
from autoft.tracecheck import enumerate_traces, eval_property

import naive_checkers as naive

BIN = (0, 1)
TRI = (0, 1, None)


def _const(value):
    return lambda n: [value] * n


def _pattern(fn):
    return lambda n: [fn(i) for i in range(n)]


@dataclass
class Case:
    name: str
    kind: str
    signals: dict[str, tuple]  # enumerated columns -> value domain
    body: Node  # built by the same per-kind builder gen_properties uses
    sva: str  # the text the body renders to
    naive_fn: Callable[[dict[str, list]], tuple]
    max_len: int = 6
    directive: str = "assert"
    extra: dict[str, Callable[[int], list]] = field(default_factory=dict)

    def prop(self) -> GeneratedProperty:
        return GeneratedProperty(f"diff_{self.name}", self.kind, self.directive, self.body)

    def run(self) -> tuple[int, list]:
        """Returns (traces checked, mismatches)."""
        prop = self.prop()
        mismatches = []
        count = 0
        widths = {name: 1 for name in self.signals}
        domains = {name: dom for name, dom in self.signals.items()}
        for base in enumerate_traces(widths, self.max_len, domains=domains):
            trace = base.extended({k: make(base.length) for k, make in self.extra.items()}) if self.extra else base
            count += 1
            got = eval_property(prop, trace)
            want_outcome, want_cycle = self.naive_fn(trace.columns)
            if (got.outcome, got.cycle) != (want_outcome, want_cycle):
                mismatches.append((trace.columns, (got.outcome, got.cycle), (want_outcome, want_cycle)))
                if len(mismatches) >= 5:
                    break
        return count, mismatches


def _bits(col):
    return [naive.bit(v) for v in col]


A, B, V, D, ACT, Z = Sig("a"), Sig("b"), Sig("v"), Sig("d"), Sig("act"), Sig("z")


def _cnt(inc, dec, limit):
    return Counter("cnt", inc, dec, limit, "T_MAX_OUTSTANDING", "T_CNT_WIDTH")


def _width(limit):
    """The counter's declared width, `$clog2(limit + 1)` bits."""
    return math.ceil(math.log2(limit + 1))


def _tracked(p_id, q_id, symb):
    """Handshakes a and b matched against the symbolic id, and its in-flight bit."""
    s = Symbolic(symb)
    req, resp = matched(A, Sig(p_id), s), matched(B, Sig(q_id), s)
    return req, resp, Inflight("infl", req, resp)


REQ1, RESP1, INFL1 = _tracked("i1", "i1", "i1")
REQ, RESP, INFL = _tracked("ip", "iq", "s")

CASES = [
    Case(
        "liveness", "liveness",
        {"a": BIN, "b": BIN},
        P.eventually(A, B, None), "a |-> s_eventually (b)",
        lambda c: naive.liveness(_bits(c["a"]), _bits(c["b"])),
    ),
    Case(
        "liveness_bounded", "liveness",
        {"a": BIN, "b": BIN},
        P.eventually(A, B, 3), "a |-> ##[0:3] (b)",
        lambda c: naive.liveness(_bits(c["a"]), _bits(c["b"]), bounded=3),
    ),
    Case(
        "liveness_tracked", "liveness",
        {"a": BIN, "ip": BIN, "b": BIN, "iq": BIN, "s": BIN},
        P.eventually(REQ, RESP, None),
        "(a && (ip == s)) |-> s_eventually (b && (iq == s))",
        lambda c: naive.liveness(
            [naive.bit(h) and i == s for h, i, s in zip(c["a"], c["ip"], c["s"])],
            [naive.bit(v) and i == s for v, i, s in zip(c["b"], c["iq"], c["s"])],
        ),
        max_len=3,
    ),
    Case(
        "response_had_request", "response_had_request",
        {"a": BIN, "b": BIN},
        P.response_had_request(B, _cnt(A, B, 1), A), "b |-> ((cnt > 0) || a)",
        lambda c: naive.response_had_request(c["b"], c["a"], c["b"], width=_width(1)),
    ),
    Case(
        "response_had_request_split", "response_had_request",
        {"a": BIN, "b": BIN, "v": BIN},
        P.response_had_request(V, _cnt(A, B, 8), A), "v |-> ((cnt > 0) || a)",
        lambda c: naive.response_had_request(c["v"], c["a"], c["b"], width=_width(8)),
        max_len=4,
    ),
    Case(
        "counter_no_underflow", "counter_no_underflow",
        {"a": BIN, "b": BIN},
        P.counter_no_underflow(A, B, _cnt(A, B, 1)), "(b && !a) |-> (cnt > 0)",
        lambda c: naive.counter_no_underflow(c["a"], c["b"], width=_width(1)),
    ),
    Case(
        "ack_eventually", "ack_eventually",
        {"a": BIN, "b": BIN},
        P.eventually(A, B, None), "a |-> s_eventually (b)",
        lambda c: naive.ack_eventually(c["a"], c["b"]),
    ),
    Case(
        "ack_eventually_bounded", "ack_eventually",
        {"a": BIN, "b": BIN},
        P.eventually(A, B, 2), "a |-> ##[0:2] (b)",
        lambda c: naive.ack_eventually(c["a"], c["b"], bounded=2),
    ),
    Case(
        "ack_cover", "ack_eventually",
        {"a": BIN, "b": BIN},
        P.ack_cover(A, B, None), "a ##[0:$] b",
        lambda c: naive.ack_cover(c["a"], c["b"]),
        directive="cover",
    ),
    Case(
        "ack_cover_bounded", "ack_eventually",
        {"a": BIN, "b": BIN},
        P.ack_cover(A, B, 1), "a ##[0:1] b",
        lambda c: naive.ack_cover(c["a"], c["b"], bounded=1),
        directive="cover",
    ),
    Case(
        "stability_hold_val", "stability",
        {"a": BIN, "b": BIN},
        P.stability(A, B), "(a && !b) |=> a",
        lambda c: naive.stability_payload(c["a"], c["b"], []),
        directive="assume",
    ),
    Case(
        "stability_payload", "stability",
        {"a": BIN, "b": BIN, "d": BIN},
        P.stability(A, B, payload=(D,)), "(a && !b) |=> (a && $stable(d))",
        lambda c: naive.stability_payload(c["a"], c["b"], [c["d"]]),
        max_len=4,
        directive="assume",
    ),
    Case(
        "stability_signal", "stability",
        {"a": BIN, "b": BIN, "s": BIN},
        P.stability(A, B, sig=Sig("s")), "(a && !b) |=> s",
        lambda c: naive.stability_signal(c["a"], c["b"], c["s"]),
        max_len=4,
        directive="assume",
    ),
    Case(
        "active_covered", "active_covered",
        {"a": BIN, "act": BIN},
        P.active_covered(_cnt(A, Z, 8), ACT, A, Z),
        "(((cnt > 0) |-> act) and (act |-> ((cnt > 0) || a || z)))",
        lambda c: naive.active_covered(c["act"], c["a"], c["z"], c["z"], width=_width(8)),
        extra={"z": _const(0)},
    ),
    Case(
        "active_covered_split", "active_covered",
        {"a": BIN, "b": BIN, "act": BIN},
        P.active_covered(_cnt(A, B, 1), ACT, A, B),
        "(((cnt > 0) |-> act) and (act |-> ((cnt > 0) || a || b)))",
        lambda c: naive.active_covered(c["act"], c["a"], c["b"], c["b"], width=_width(1)),
        max_len=4,
    ),
    Case(
        "transid_integrity", "transid_integrity",
        {"a": BIN, "b": BIN},
        P.transid_integrity(RESP1, INFL1), "(b && (i1 == i1)) |-> infl",
        lambda c: naive.transid_integrity(c["a"], c["i1"], c["b"], c["i1"], c["i1"]),
        extra={"i1": _const(1)},
    ),
    Case(
        "transid_integrity_ids", "transid_integrity",
        {"a": BIN, "ip": BIN, "b": BIN, "iq": BIN, "s": BIN},
        P.transid_integrity(RESP, INFL), "(b && (iq == s)) |-> infl",
        lambda c: naive.transid_integrity(c["a"], c["ip"], c["b"], c["iq"], c["s"]),
        max_len=3,
    ),
    Case(
        "uniqueness", "uniqueness",
        {"a": BIN, "b": BIN},
        P.uniqueness(REQ1, INFL1), "(a && (i1 == i1)) |-> !infl",
        lambda c: naive.uniqueness(c["a"], c["i1"], c["b"], c["i1"], c["i1"]),
        directive="assume",
        extra={"i1": _const(1)},
    ),
    Case(
        "uniqueness_ids", "uniqueness",
        {"a": BIN, "ip": BIN, "b": BIN, "iq": BIN, "s": BIN},
        P.uniqueness(REQ, INFL), "(a && (ip == s)) |-> !infl",
        lambda c: naive.uniqueness(c["a"], c["ip"], c["b"], c["iq"], c["s"]),
        directive="assume",
        max_len=3,
    ),
    Case(
        "data_integrity", "data_integrity",
        {"a": BIN, "b": BIN},
        P.data_integrity(RESP1, Sig("qd"), Sampled("smp", REQ1, Sig("pd"))),
        "(b && (i1 == i1)) |-> (qd == smp)",
        lambda c: naive.data_integrity(c["a"], c["i1"], c["pd"], c["b"], c["i1"], c["qd"], c["i1"]),
        extra={"i1": _const(1), "pd": _pattern(lambda i: i & 1), "qd": _pattern(lambda i: (i >> 1) & 1)},
    ),
    Case(
        "data_integrity_values", "data_integrity",
        {"a": BIN, "pd": BIN, "b": BIN, "qd": BIN},
        P.data_integrity(RESP1, Sig("qd"), Sampled("smp", REQ1, Sig("pd"))),
        "(b && (i1 == i1)) |-> (qd == smp)",
        lambda c: naive.data_integrity(c["a"], c["i1"], c["pd"], c["b"], c["i1"], c["qd"], c["i1"]),
        extra={"i1": _const(1)},
        max_len=3,
    ),
    Case(
        "xprop_two_valued", "xprop",
        {"v": BIN, "o": BIN},
        P.xprop(V, (Sig("o"),)), "v |-> !$isunknown(o)",
        lambda c: naive.xprop(c["v"], [c["o"]]),
    ),
    Case(
        "xprop_val_only", "xprop",
        {"v": TRI},
        P.xprop(V, ()), "!$isunknown(v)",
        lambda c: naive.xprop(c["v"], []),
    ),
    Case(
        "xprop_unknowns", "xprop",
        {"v": TRI, "o": TRI},
        P.xprop(V, (Sig("o"),)), "v |-> !$isunknown(o)",
        lambda c: naive.xprop(c["v"], [c["o"]]),
        max_len=5,
    ),
]


def run_all(cases=None):
    results = {}
    for case in cases or CASES:
        results[case.name] = case.run()
    return results
