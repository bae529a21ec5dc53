import itertools
import json
import re
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from autoft import properties as P, tracecheck
from autoft.diagnostics import SpaceTooLargeError, UnknownSignalError
from autoft.models import MODEL_REGISTRY
from autoft.properties import GeneratedProperty
from autoft.sva import And, Counter, Eventually, Gt, Implies, Inflight, Not, PropAnd, Sig, Symbolic, matched
from autoft.tracecheck import (
    HOLDS,
    PENDING,
    VACUOUS,
    VIOLATED,
    Trace,
    column,
    enumerate_traces,
    eval_property,
    eval_property as evaluate,
    trace_space_size,
)

import differential
import naive_checkers as naive
from conftest import REPO


def prop(kind, body, directive="assert"):
    return GeneratedProperty(f"t_{kind}", kind, directive, body)


P_HSK, Q_HSK, Q_VAL = Sig("p_hsk"), Sig("q_hsk"), Sig("q_val")
CNT = Counter("cnt", P_HSK, Q_HSK, 8, "T_MAX_OUTSTANDING", "T_CNT_WIDTH")  # 4 bits
LIVENESS = prop("liveness", P.eventually(P_HSK, Q_VAL, None))
RESPONSE = prop("response_had_request", P.response_had_request(Q_VAL, CNT, P_HSK))


def transid_integrity():
    symb = Symbolic("symb")
    resp = matched(Q_HSK, Sig("q_id"), symb)
    inflight = Inflight("infl", matched(P_HSK, Sig("p_id"), symb), resp)
    return prop("transid_integrity", P.transid_integrity(resp, inflight))


class TestTrace:
    def test_columns_must_align(self):
        with pytest.raises(ValueError):
            Trace({"a": [1, 0], "b": [1]})

    def test_csv_roundtrip_with_unknowns(self):
        t = Trace({"val": [1, 0, None], "data": [3, 2, 1]})
        again = Trace.from_csv(t.to_csv())
        assert again == t

    def test_csv_reads_signed_spaced_and_upper_x_cells(self):
        assert Trace.from_csv("a,b\n +3 ,X\n-1, x\n") == Trace({"a": [3, -1], "b": [None, None]})

    def test_csv_format_is_decimal_rows(self):
        t = Trace({"a": [1, 0], "b": [2, 3]})
        assert t.to_csv() == "a,b\n1,2\n0,3\n"

    @pytest.mark.parametrize("text, message", [
        ("a,a\n1,2\n", "trace file names column 'a' twice"),
        ("a,\n1,2\n", "column 2 of the trace file has a blank name"),
        ("a, ,b,\n1,2,3,4\n", "column 2 of the trace file has a blank name"),
        ("a,b\n1,2\n3,4,5\n", "line 3 of the trace file has cell count 3, the header 2"),
        ("a,b\n1,2\n\n3\n", "line 4 of the trace file has cell count 1, the header 2"),
        ("a,b\n1,2\n3,zz\n", "line 3, column 2 ('b') of the trace file holds 'zz', neither an integer nor x"),
        ("a\n\nx\n1.5\n", "line 4, column 1 ('a') of the trace file holds '1.5', neither an integer nor x"),
        ("a,b\n1,1_0\n", "line 2, column 2 ('b') of the trace file holds '1_0', neither an integer nor x"),
        ("a\n\u0663\n", "line 2, column 1 ('a') of the trace file holds '\u0663', neither an integer nor x"),
        ("a\n-\n", "line 2, column 1 ('a') of the trace file holds '-', neither an integer nor x"),
        ("a\n+\n", "line 2, column 1 ('a') of the trace file holds '+', neither an integer nor x"),
        ("a,b\n1,\n", "line 2, column 2 ('b') of the trace file holds '', neither an integer nor x"),
    ], ids=["duplicate-name", "blank-name", "two-blank-names", "surplus-cell", "short-row", "bad-cell",
            "bad-cell-after-blank", "underscore-digits", "arabic-indic-digit", "sign-alone", "plus-alone",
            "empty-cell"])
    def test_malformed_csv_is_rejected(self, text, message):
        with pytest.raises(ValueError) as exc:
            Trace.from_csv(text)
        assert str(exc.value) == message

    def test_extended_overrides(self):
        t = Trace({"a": [0, 1]})
        t2 = t.extended({"b": [1, 1]})
        assert t2.columns == {"a": (0, 1), "b": (1, 1)}
        assert t.columns == {"a": (0, 1)}  # original untouched

    def test_extended_shares_the_parents_columns(self):
        t = Trace({"a": [0, 1], "b": (1, 0)})
        before = dict(t.columns)
        t2 = t.extended({"b": [1, 1], "c": [0, 0]})
        assert t2.columns["a"] is t.columns["a"]
        assert t.columns == before and all(t.columns[n] is c for n, c in before.items())  # the parent is unchanged
        assert (t.length, t2.length, t2.columns["b"], t2.columns["c"]) == (2, 2, (1, 1), (0, 0))


TRACE_SOURCES = {
    "constructor": lambda: [Trace({"a": [0, 1, None], "b": range(3)}), Trace({})],
    "enumerate_traces": lambda: list(enumerate_traces({"a": 1, "b": 2}, 3, domains={"a": (0, None)})),
    "extended": lambda: [Trace({"a": [0, 1]}).extended({"b": [1, 1]}),
                         next(enumerate_traces({"a": 1}, 1)).extended({"s": [5]})],
    "from_csv": lambda: [Trace.from_csv("a,b\n1,x\n0,2\n"), Trace.from_csv("a\n")],
    **{f"model:{name}": make().traces for name, make in MODEL_REGISTRY.items()},
}


@pytest.mark.parametrize("source", TRACE_SOURCES)
def test_every_column_is_a_tuple_of_the_traces_length(source):
    traces = TRACE_SOURCES[source]()
    assert traces
    assert all(type(c) is tuple and len(c) == t.length for t in traces for c in t.columns.values())


class TestEvalExamples:
    def test_liveness_discharged(self):
        # Request handshake at cycle 0, response valid at cycle 3, length 5.
        t = Trace({"p_hsk": [1, 0, 0, 0, 0], "q_val": [0, 0, 0, 1, 0]})
        assert evaluate(LIVENESS, t).outcome == HOLDS

    def test_liveness_open_obligation_is_pending(self):
        t = Trace({"p_hsk": [1, 0, 0], "q_val": [0, 0, 0]})
        assert evaluate(LIVENESS, t).outcome == PENDING

    def test_liveness_never_fired_is_vacuous(self):
        t = Trace({"p_hsk": [0, 0], "q_val": [1, 0]})
        assert evaluate(LIVENESS, t).outcome == VACUOUS

    def test_bounded_liveness_violated_at_window_close(self):
        p = prop("liveness", P.eventually(P_HSK, Q_VAL, 2))
        t = Trace({"p_hsk": [1, 0, 0, 0, 0], "q_val": [0, 0, 0, 1, 0]})
        v = evaluate(p, t)
        assert (v.outcome, v.cycle) == (VIOLATED, 2)

    def test_response_without_request_violated_at_zero(self):
        # Response at cycle 0, no prior handshake, counter forced to 0.
        t = Trace({
            "p_hsk": [0, 0], "q_hsk": [1, 0], "q_val": [1, 0], "cnt": [0, 0],
        })
        v = evaluate(RESPONSE, t)
        assert (v.outcome, v.cycle) == (VIOLATED, 0)

    def test_counter_column_can_be_injected(self):
        # Same trace, with a bogus counter column injected: the counter is
        # always derived, so the column changes nothing and the violation stands.
        t = Trace({
            "p_hsk": [0, 0], "q_hsk": [1, 0], "q_val": [1, 0], "cnt": [7, 7],
        })
        v = evaluate(RESPONSE, t)
        assert (v.outcome, v.cycle) == (VIOLATED, 0)

    def test_counter_derived_when_absent(self):
        t = Trace({"p_hsk": [1, 1, 0, 0], "q_hsk": [0, 0, 1, 1], "q_val": [0, 0, 1, 1]})
        assert evaluate(RESPONSE, t).outcome == HOLDS

    def test_transid_integrity_matching_flow(self):
        base = {
            "p_hsk": [0, 1, 0, 0, 0, 0], "p_id": [0, 2, 0, 0, 0, 0],
            "q_hsk": [0, 0, 0, 0, 1, 0], "symb": [2] * 6,
        }
        ok = Trace({**base, "q_id": [0, 0, 0, 0, 2, 0]})
        assert evaluate(transid_integrity(), ok).outcome == HOLDS
        # Response with an id that never had a matching request.
        bad = Trace({
            "p_hsk": [0, 1, 0, 0, 0, 0], "p_id": [0, 3, 0, 0, 0, 0],
            "q_hsk": [0, 0, 0, 0, 1, 0], "q_id": [0, 0, 0, 0, 2, 0], "symb": [2] * 6,
        })
        v = evaluate(transid_integrity(), bad)
        assert (v.outcome, v.cycle) == (VIOLATED, 4)

    def test_ids_compare_raw(self):
        # An unknown id matches no known symbolic id, so the response is not
        # checked; an id of 0 matches symb=0 and has no request in flight.
        base = {"p_hsk": [0], "p_id": [0], "q_hsk": [1], "symb": [0]}
        assert evaluate(transid_integrity(), Trace({**base, "q_id": [None]})).outcome == VACUOUS
        v = evaluate(transid_integrity(), Trace({**base, "q_id": [0]}))
        assert (v.outcome, v.cycle) == (VIOLATED, 0)

    def test_unknown_signal_raises(self):
        t = Trace({"p_hsk": [1]})
        with pytest.raises(UnknownSignalError):
            evaluate(LIVENESS, t)

    def test_empty_trace_is_vacuous(self):
        assert evaluate(LIVENESS, Trace({})).outcome == VACUOUS

    def test_unknowns_read_as_zero_outside_xprop(self):
        t = Trace({"p_hsk": [None, 1, 0], "q_val": [0, None, 1]})
        # None handshake does not fire an obligation; None q_val does not
        # discharge one; the cycle-2 response discharges cycle 1.
        assert evaluate(LIVENESS, t).outcome == HOLDS

    def test_xprop_three_valued(self):
        p = prop("xprop", P.xprop(Sig("v"), (Sig("o"),)))
        clean = Trace({"v": [1, 1], "o": [0, 1]})
        assert evaluate(p, clean).outcome == HOLDS
        dirty = Trace({"v": [0, 1], "o": [None, None]})
        v = evaluate(p, dirty)
        assert (v.outcome, v.cycle) == (VIOLATED, 1)


class TestEnumeration:
    def test_one_bit_two_cycles(self):
        traces = list(enumerate_traces({"a": 1}, 2))
        assert len(traces) == 6  # 2 of length 1 + 4 of length 2

    def test_two_signals_one_cycle(self):
        traces = list(enumerate_traces({"a": 1, "b": 1}, 1))
        assert len(traces) == 4

    def test_space_too_large(self):
        with pytest.raises(SpaceTooLargeError):
            list(enumerate_traces({f"s{i}": 1 for i in range(8)}, 10))

    def test_deterministic_order(self):
        a = [t.columns for t in enumerate_traces({"a": 1, "b": 1}, 2)]
        b = [t.columns for t in enumerate_traces({"a": 1, "b": 1}, 2)]
        assert a == b

    def test_space_size_formula(self):
        assert trace_space_size([2], 2) == 6
        assert trace_space_size([2, 2], 1) == 4
        assert trace_space_size([3, 3], 5) == sum(9**k for k in range(1, 6))

    def test_custom_domains(self):
        traces = list(enumerate_traces({"a": 1}, 1, domains={"a": (0, 1, None)}))
        assert [t.columns["a"] for t in traces] == [(0,), (1,), (None,)]

    @pytest.mark.parametrize("max_len", [1, 3])
    def test_no_signals_is_a_value_error(self, max_len):
        # A trace without columns has length 0, so no trace of lengths 1..max_len exists over no signals.
        with pytest.raises(ValueError, match="no signal"):
            next(enumerate_traces({}, max_len))

    @pytest.mark.parametrize("signals, max_len, domains", [
        ({"a": 1}, 4, None),
        ({"a": 1, "b": 2}, 3, None),
        ({"v": 1, "o": 1, "d": 1}, 3, {"v": (0, 1, None), "o": (None, 1)}),
        ({"a": 1, "b": 2}, 4, None),
        ({"v": 1, "d": 2}, 4, {"v": (0, 1, None), "d": (None,)}),
    ])
    def test_order_equals_the_nested_comprehension(self, signals, max_len, domains):
        # Enumerated traces are not built by `Trace.__init__`: each must be the trace it builds, field for field.
        got, want = list(enumerate_traces(signals, max_len, domains)), list(_nested(signals, max_len, domains))
        assert got == want
        assert [(t.length, t.columns, t.to_csv()) for t in got] == [(t.length, t.columns, t.to_csv()) for t in want]
        assert all(type(c) is tuple and len(c) == t.length for t in got for c in t.columns.values())
        assert len({id(c) for t in got for c in t.columns.values()}) == len(got) * len(signals)  # none shared


ENUMERATED_LIMIT = 5000


@st.composite
def enumerated_spaces(draw):
    """1-3 signals of 1-2 bits, some with a drawn domain that may hold None, and a max_len of 1-4 cut to at most
    ENUMERATED_LIMIT traces."""
    signals = {f"s{k}": draw(st.integers(1, 2)) for k in range(draw(st.integers(1, 3)))}
    domains = {name: draw(st.lists(st.sampled_from([*range(1 << bits), None]), max_size=5))
               for name, bits in signals.items() if draw(st.booleans())}
    sizes = [len(domains[name]) if name in domains else 1 << bits for name, bits in signals.items()]
    max_len = draw(st.integers(1, 4))
    while max_len > 1 and trace_space_size(sizes, max_len) > ENUMERATED_LIMIT:
        max_len -= 1
    return signals, max_len, domains if domains or draw(st.booleans()) else None


def _transposed(signals, max_len, domains=None):
    """Every trace as one product over the joint states, transposed onto its columns: the reference order."""
    names = list(signals)
    value_sets = [tuple(domains[n]) if domains and n in domains else tuple(range(1 << signals[n])) for n in names]
    for length in range(1, max_len + 1):
        for assignment in itertools.product(itertools.product(*value_sets), repeat=length):
            yield length, list(zip(names, zip(*assignment)))


@settings(max_examples=150, deadline=None)
@given(space=enumerated_spaces())
def test_enumeration_equals_the_transposed_product_of_states(space):
    got = [(t.length, list(t.columns.items())) for t in enumerate_traces(*space)]
    assert got == list(_transposed(*space))


def _nested(signals, max_len, domains=None):
    """Every trace, each column built by a comprehension per signal and cycle: the reference order."""
    names = list(signals)
    value_sets = [tuple(domains[n]) if domains and n in domains else tuple(range(1 << signals[n])) for n in names]
    states = list(itertools.product(*value_sets))
    for length in range(1, max_len + 1):
        for assignment in itertools.product(states, repeat=length):
            yield Trace({name: [assignment[cycle][k] for cycle in range(length)] for k, name in enumerate(names)})


class TestRowLoop:
    """Each body is one generated loop over the cycles, which computes each node once per cycle."""

    COLS = {"p_hsk": [1, 0, 1], "q_hsk": [0, 1, 0], "q_val": [1, 1, 0]}

    @staticmethod
    def source(monkeypatch, p: GeneratedProperty, trace: Trace) -> str:
        """The one source the evaluation of an uncompiled copy of `p` compiles, from an empty cache."""
        monkeypatch.setattr(tracecheck, "_CODE", {})
        eval_property(p._replace(), trace)
        [text] = tracecheck._CODE
        return text

    def test_a_node_with_one_reader_is_written_inline(self, monkeypatch):
        # `q_val |-> ((cnt > 0) || p_hsk)`: the counter, `>` and `||` each have one reader; p_hsk has two,
        # `||` and the counter's update, so it alone is a local.
        text = self.source(monkeypatch, RESPONSE, Trace(self.COLS))
        assert len(re.findall(r"\bv\d+=", text)) == 1

    def test_a_node_two_parents_read_is_computed_once_per_cycle(self, monkeypatch):
        busy = Gt(CNT, 0)  # read by both halves; the counter only by it
        p = prop("active_covered", PropAnd(Implies(Q_VAL, busy), Implies(busy, Not(Q_HSK))))
        text = self.source(monkeypatch, p, Trace(self.COLS))
        assert text.count(">") == 1 and text.count("+(not ") == 1
        assert re.search(r"\bv\d+=\(s\d+>a\d+\)", text)

    def test_a_missing_signal_below_a_single_reader_raises(self):
        body = Implies(And(P_HSK, Not(Sig("gone"))), Q_VAL)
        with pytest.raises(UnknownSignalError) as exc:
            evaluate(prop("response_had_request", body), Trace(self.COLS))
        assert exc.value.name == "gone"


def test_no_input_text_in_generated_source(monkeypatch):
    # Every name and id value is an argument of the generated code, so hostile names evaluate like plain ones.
    monkeypatch.setattr(tracecheck, "_CODE", {})
    hostile = {"a": "a); import os #", "ip": '"', "b": "\\", "iq": "s\u00efgnal_\u00fc", "s": "s'\n"}

    def body(name):
        s = Symbolic(name["s"])
        req, resp = matched(Sig(name["a"]), Sig(name["ip"]), s), matched(Sig(name["b"]), Sig(name["iq"]), s)
        return PropAnd(P.eventually(req, resp, 2), P.transid_integrity(resp, Inflight("infl", req, resp)))

    plain, bad = prop("liveness", body({k: k for k in hostile})), prop("liveness", body(hostile))
    outcomes = set()
    for t in itertools.islice(enumerate_traces({k: 1 for k in hostile}, 3), 0, None, 97):
        renamed = Trace({hostile[k]: v for k, v in t.columns.items()})
        assert evaluate(bad, renamed) == evaluate(plain, t)
        outcomes.add(evaluate(plain, t).outcome)
        for value in (0, 1):  # the id as a column of its own, as a model check lays it over a trace
            assert (column(bad.body.b.ant, renamed.extended({hostile["s"]: [value] * t.length}))
                    == column(plain.body.b.ant, t.extended({"s": [value] * t.length})))
    assert outcomes == {HOLDS, VIOLATED, VACUOUS, PENDING}
    assert tracecheck._CODE and not [n for n in hostile.values() if any(n in text for text in tracecheck._CODE)]


class TestDifferentialSpotChecks:
    """Fast subset of the exhaustive agreement run (the full run is in the
    acceptance suite)."""

    @pytest.mark.parametrize("case", differential.CASES, ids=[c.name for c in differential.CASES])
    def test_short_lengths_agree(self, case):
        import dataclasses

        assert case.prop().body.render() == case.sva
        small = dataclasses.replace(case, max_len=min(case.max_len, 3))
        count, mismatches = small.run()
        assert mismatches == [], mismatches[:1]
        assert count > 0


class TestCsvRegressionFixtures:
    """Checked-in CSV traces evaluated against the generated FIFO properties."""

    def _verdicts(self, csv_name):
        from pathlib import Path

        from conftest import gen_fixture

        bundle = gen_fixture("fifo")
        trace = Trace.from_csv((Path(__file__).parent / "data" / csv_name).read_text())
        return {p.name: eval_property(p, trace) for p in bundle.properties}

    def test_well_formed_trace(self):
        verdicts = self._verdicts("fifo_ok.csv")
        assert {v.outcome for v in verdicts.values()} <= {HOLDS, VACUOUS}
        assert verdicts["fifo_liveness"].outcome == HOLDS
        assert verdicts["fifo_ack_eventually"].outcome == HOLDS  # cover hit

    def test_response_without_request_trace(self):
        verdicts = self._verdicts("fifo_bad.csv")
        v = verdicts["fifo_response_had_request"]
        assert (v.outcome, v.cycle) == (VIOLATED, 0)
        u = verdicts["fifo_counter_no_underflow"]
        assert (u.outcome, u.cycle) == (VIOLATED, 0)

    def test_unknown_payload_trips_xprop_only(self):
        verdicts = self._verdicts("xprop_unknown.csv")
        v = verdicts["fifo_xprop_p"]
        assert (v.outcome, v.cycle) == (VIOLATED, 0)
        assert verdicts["fifo_response_had_request"].outcome == VACUOUS


class TestCounterWrap:
    """The counter wraps at its emitted `$clog2(MAX + 1)` bits, as the RTL's does."""

    TRACE = {"in_val": [1, 1, 0], "in_ack": [1, 1, 1], "in_data": [0, 0, 0],
             "out_val": [0, 0, 1], "out_ack": [1, 1, 1], "out_data": [0, 0, 0]}

    def _verdict(self, **opts):
        from conftest import gen_fixture

        bundle = gen_fixture("fifo", **opts)
        p = next(p for p in bundle.properties if p.name == "fifo_response_had_request")
        return eval_property(p, Trace(self.TRACE))

    def test_one_bit_counter_wraps_to_zero(self):
        # Two requests bring a 1-bit counter back to 0, so the response at cycle 2 has none.
        assert str(self._verdict(max_outstanding=1)) == "fifo_response_had_request: violated at cycle 2"

    def test_wide_counter_counts_both_requests(self):
        assert self._verdict().outcome == HOLDS


def _safety_cases():
    return [
        differential.CASES[3],  # response_had_request
        differential.CASES[5],  # counter_no_underflow
        differential.CASES[10],  # stability_hold_val
        differential.CASES[13],  # active_covered
        differential.CASES[15],  # transid_integrity
    ]


class TestInvariants:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        case_idx=st.integers(min_value=0, max_value=len(_safety_cases()) - 1),
    )
    def test_monotone_safety_under_extension(self, data, case_idx):
        case = _safety_cases()[case_idx]
        length = data.draw(st.integers(min_value=1, max_value=5))
        extension = data.draw(st.integers(min_value=1, max_value=3))
        cols = {}
        for name, domain in case.signals.items():
            cols[name] = data.draw(
                st.lists(st.sampled_from(domain), min_size=length + extension,
                         max_size=length + extension)
            )
        full_cols = dict(cols)
        for name, make in case.extra.items():
            full_cols[name] = make(length + extension)
        short = Trace({k: v[:length] for k, v in full_cols.items()})
        long = Trace(full_cols)
        p = case.prop()
        before = eval_property(p, short)
        after = eval_property(p, long)
        if before.outcome == VIOLATED:
            assert after.outcome == VIOLATED
            assert after.cycle == before.cycle

    @settings(max_examples=200, deadline=None)
    @given(
        inc=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12),
        dec=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12),
    )
    def test_counter_conservation(self, inc, dec):
        n = min(len(inc), len(dec))
        inc, dec = inc[:n], dec[:n]
        run = column(CNT, Trace({"p_hsk": inc, "q_hsk": dec}))
        for i in range(n):
            assert run[i] == (sum(inc[:i]) - sum(dec[:i])) % 16

    @settings(max_examples=150, deadline=None)
    @given(
        cols=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=10
        )
    )
    def test_verdicts_independent_of_evaluation_order(self, cols):
        t = Trace({"p_hsk": [a for a, _ in cols], "q_val": [b for _, b in cols]})
        first = eval_property(LIVENESS, t)
        second = eval_property(LIVENESS, t)
        assert first == second


@settings(max_examples=300, deadline=None)
@given(data=st.data(), hi=st.sampled_from([None, 1, 3, 14]))
def test_eventuality_agrees_with_naive_liveness_on_long_traces(data, hi):
    # The exhaustive spaces stop at 6 cycles and window 3, while model checks run windows of 10-14 over
    # 100-cycle traces. Discharges are drawn sparse so that bounded windows close undischarged.
    n = data.draw(st.integers(1, 60))
    ant = data.draw(st.lists(st.sampled_from([0, 1, None]), min_size=n, max_size=n))
    con = data.draw(st.lists(st.sampled_from([0] * 6 + [1, None]), min_size=n, max_size=n))
    verdict = eval_property(prop("liveness", P.eventually(P_HSK, Q_VAL, hi)), Trace({"p_hsk": ant, "q_val": con}))
    assert (verdict.outcome, verdict.cycle) == naive.liveness(ant, con, hi)


def next_cycle_eventually(ant, con, hi):
    """Reference reading of `ant |=> ##[0:hi] (con)`, or `ant |=> s_eventually (con)` when hi is None.

    An antecedent at cycle i demands con at some cycle in [i+1, i+1+hi]; one in the last cycle starts no
    attempt, as under `ant |=> con`. Kept out of `differential.CASES`, which perfbench's oracle runs.
    """
    n = len(ant)
    fails, pending, fired = [], False, False
    for i in range(n - 1):
        if not naive.bit(ant[i]):
            continue
        fired = True
        close = n - 1 if hi is None else i + 1 + hi
        if any(naive.bit(con[j]) for j in range(i + 1, min(close, n - 1) + 1)):
            continue
        if hi is not None and close <= n - 1:
            fails.append(close)
        else:
            pending = True
    if fails:
        return (VIOLATED, min(fails))
    if pending:
        return (PENDING, None)
    return (HOLDS, None) if fired else (VACUOUS, None)


class TestNextCycleEventuality:
    @staticmethod
    def verdict(hi, columns):
        v = evaluate(prop("liveness", Implies(P_HSK, Eventually(Q_VAL, hi), next_cycle=True)), Trace(columns))
        return v.outcome, v.cycle

    def test_discharge_in_the_antecedent_cycle_does_not_count(self):
        # `a |=> s_eventually (b)` with a and b high only in cycle 0: the obligation starts at cycle 1.
        assert self.verdict(None, {"p_hsk": [1, 0, 0], "q_val": [1, 0, 0]}) == (PENDING, None)
        assert self.verdict(1, {"p_hsk": [1, 0, 0, 0], "q_val": [1, 0, 0, 0]}) == (VIOLATED, 2)
        assert self.verdict(None, {"p_hsk": [1, 0, 0], "q_val": [0, 1, 0]}) == (HOLDS, None)

    def test_antecedent_in_the_last_cycle_starts_no_attempt(self):
        assert self.verdict(None, {"p_hsk": [0, 1], "q_val": [0, 0]}) == (VACUOUS, None)
        assert self.verdict(0, {"p_hsk": [1], "q_val": [0]}) == (VACUOUS, None)

    @pytest.mark.parametrize("hi", [None, 0, 1, 2])
    def test_agrees_with_the_reference_on_every_short_trace(self, hi):
        space = enumerate_traces({"p_hsk": 1, "q_val": 1}, 5, domains={"p_hsk": (0, 1, None)})
        for t in space:
            cols = t.columns
            assert self.verdict(hi, cols) == next_cycle_eventually(cols["p_hsk"], cols["q_val"], hi), cols


def test_oracle_rate_bench_runs_at_tiny_size(tmp_path):
    # The trace-space half of the before/after script, with this checkout on both sides so that both packages load.
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(REPO / "bench" / "evaluator.py"), "--src", str(REPO / "src"), "--rounds", "1",
                    "--max-len", "2", "--traces", "1", "--drive", "10", "--out", str(out)],
                   capture_output=True, text=True, check=True)
    report = json.loads(out.read_text())
    assert report["before"]["traces"] == report["after"]["traces"] > 0
    assert report["traces_differ"] == []
    for side in ("before", "after"):
        assert {"traces_per_s", "q1_traces_per_s", "q3_traces_per_s"} <= set(report[side])
        assert set(report[side]["spaces"]) == {c.name for c in differential.CASES}
    assert {"traces_per_s", "spaces/liveness"} <= set(report["after_over_before"])


def test_the_bench_compares_entries_of_sides_that_hold_other_column_types(tmp_path):
    # The before side is a copy of this checkout whose `Trace` keeps list columns: its traces equal this side's
    # by value, so every model check's entries are compared, none is put in `traces_differ`.
    src = tmp_path / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    module = src / "autoft" / "tracecheck.py"
    text = module.read_text()
    tuples = "{name: tuple(v) for name, v in columns.items()}"
    assert text.count(tuples) == 1
    module.write_text(text.replace(tuples, "{name: list(v) for name, v in columns.items()}"))
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(REPO / "bench" / "evaluator.py"), "--src", str(src), "--rounds", "1",
                    "--max-len", "1", "--traces", "1", "--drive", "10", "--out", str(out)],
                   capture_output=True, text=True, check=True)
    report = json.loads(out.read_text())
    assert report["traces_differ"] == []
    entries = [{config: {name: m["entries"] for name, m in models.items()}
                for config, models in report[side]["models"].items()} for side in ("before", "after")]
    assert entries[0] == entries[1] and all(n > 0 for models in entries[1].values() for n in models.values())
