import itertools
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from autoft import properties as P
from autoft.diagnostics import SpaceTooLargeError, UnknownSignalError
from autoft.properties import GeneratedProperty
from autoft.sva import Counter, Inflight, Sig, Symbolic, matched
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

    def test_csv_format_is_decimal_rows(self):
        t = Trace({"a": [1, 0], "b": [2, 3]})
        assert t.to_csv() == "a,b\n1,2\n0,3\n"

    def test_extended_overrides(self):
        t = Trace({"a": [0, 1]})
        t2 = t.extended({"b": [1, 1]})
        assert t2.columns == {"a": [0, 1], "b": [1, 1]}
        assert t.columns == {"a": [0, 1]}  # original untouched


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
        # Same trace, but a bogus injected counter hides the violation: the
        # explicit column must win over the derivation.
        t = Trace({
            "p_hsk": [0, 0], "q_hsk": [1, 0], "q_val": [1, 0], "cnt": [7, 7],
        })
        assert evaluate(RESPONSE, t).outcome == HOLDS

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
        assert [t.columns["a"] for t in traces] == [[0], [1], [None]]

    @pytest.mark.parametrize("signals, max_len, domains", [
        ({"a": 1}, 4, None),
        ({"a": 1, "b": 2}, 3, None),
        ({"v": 1, "o": 1, "d": 1}, 3, {"v": (0, 1, None), "o": (None, 1)}),
    ])
    def test_order_equals_the_nested_comprehension(self, signals, max_len, domains):
        assert list(enumerate_traces(signals, max_len, domains)) == list(_nested(signals, max_len, domains))


def _nested(signals, max_len, domains=None):
    """Every trace, each column built by a comprehension per signal and cycle: the reference order."""
    names = list(signals)
    value_sets = [tuple(domains[n]) if domains and n in domains else tuple(range(1 << signals[n])) for n in names]
    states = list(itertools.product(*value_sets))
    for length in range(1, max_len + 1):
        for assignment in itertools.product(states, repeat=length):
            yield Trace({name: [assignment[cycle][k] for cycle in range(length)] for k, name in enumerate(names)})


class TestDifferentialSpotChecks:
    """Fast subset of the exhaustive agreement run (the full run is in the
    acceptance suite)."""

    @pytest.mark.parametrize("case", differential.CASES, ids=[c.name for c in differential.CASES])
    def test_short_lengths_agree(self, case):
        import dataclasses

        assert case.prop().ltl_text == case.sva
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

    def test_an_unknown_outstanding_count_reads_as_zero(self):
        # `>` reads an unknown operand as 0, as the two-valued comparisons do.
        from conftest import gen_fixture

        p = next(p for p in gen_fixture("noc_buffer").properties if p.kind == "response_had_request")
        trace = Trace.from_csv("buf_in_val,buf_in_ack,buf_out_val,buf_outstanding\n1,0,0,x\n0,0,1,x\n1,1,1,x\n")
        assert str(eval_property(p, trace)) == "buf_response_had_request: violated at cycle 1"

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


def test_oracle_rate_bench_runs_at_tiny_size(tmp_path):
    # The before/after script, with this checkout on both sides so that both packages load.
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(REPO / "bench" / "oracle_rate.py"), "--src", str(REPO / "src"),
                    "--rounds", "1", "--max-len", "2", "--out", str(out)],
                   capture_output=True, text=True, check=True)
    report = json.loads(out.read_text())
    assert report["before"]["traces"] == report["after"]["traces"] > 0
    assert set(report["after_over_before"]["spaces"]) == {c.name for c in differential.CASES}
