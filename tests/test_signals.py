import math
import re

from hypothesis import given, settings, strategies as st

from autoft.options import GenOptions
from autoft.parser import parse_module
from autoft.signals import synth_module_aux
from autoft.sva import Counter, Handshake, Inflight, Sampled, Sig, Symbolic, matched
from autoft.tracecheck import Trace, column
from autoft.transactions import build_transactions

from conftest import load_fixture

import naive_checkers as naive


def transactions_of(source: str):
    pm = parse_module(source)
    txns, diags = build_transactions(pm)
    assert not [d for d in diags if d.is_error], diags
    return pm, txns


def aux_of(source: str, kinds: tuple[type, ...]):
    """Aux signals of the given node types for the first transaction, in order."""
    pm, txns = transactions_of(source)
    aux, _ = synth_module_aux(txns, pm, GenOptions())
    return [s for s in aux[0].signals if isinstance(s, kinds)]


def handshakes_of(source: str):
    return aux_of(source, (Handshake,))


def tracking_of(source: str):
    return aux_of(source, (Counter, Symbolic, Inflight, Sampled))


def counter_trace(inc, dec):
    """The outstanding counter's column over inc/dec handshake columns."""
    cnt = Counter("cnt", Sig("inc"), Sig("dec"), 8, "T_MAX_OUTSTANDING", "T_CNT_WIDTH")
    return column(cnt, Trace({"inc": inc, "dec": dec}))


def inflight_trace(set_hsk, set_id, clr_hsk, clr_id, symb):
    s = Symbolic("symb")
    infl = Inflight("infl", matched(Sig("set_hsk"), Sig("set_id"), s), matched(Sig("clr_hsk"), Sig("clr_id"), s))
    cols = {"set_hsk": set_hsk, "set_id": set_id, "clr_hsk": clr_hsk, "clr_id": clr_id, "symb": symb}
    return column(infl, Trace(cols))


def sampled_trace(hsk, idc, symb, data):
    smp = Sampled("smp", matched(Sig("hsk"), Sig("id"), Symbolic("symb")), Sig("data"), "[7:0]")
    return column(smp, Trace({"hsk": hsk, "id": idc, "symb": symb, "data": data}))


def module(ports: str, annotations: str) -> str:
    return f"{annotations}\nmodule m (\n{ports}\n);\nendmodule\n"


class TestHandshakes:
    def test_val_and_ack_conjunction(self):
        hsk = handshakes_of(load_fixture("fifo"))
        assert [(s.name, s.expr.render()) for s in hsk] == [
            ("in_hsk", "in_val && in_ack"),
            ("out_hsk", "out_val && out_ack"),
        ]

    def test_val_only_side(self):
        hsk = handshakes_of(
            module("input wire p_val,\noutput wire q_val", "// AUTOSVA t: p -in> q")
        )
        assert repr(hsk[0].expr) == "Sig(name='p_val')"
        assert repr(hsk[1].expr) == "Sig(name='q_val')"

    def test_expression_ack_used_via_wire(self):
        hsk = handshakes_of(
            module(
                "input wire p_val,\noutput wire busy,\noutput wire q_val",
                "// AUTOSVA t: p -in> q\n// AUTOSVA p_ack = !busy",
            )
        )
        # The expression becomes a named wire and the handshake uses that name.
        assert hsk[0].expr.render() == "p_val && p_ack"
        assert repr(hsk[0].expr.b) == "AttribWire(name='p_ack', text='!busy', width_expr='')"


class TestTracking:
    def test_untracked_gets_counter_only(self):
        aux = tracking_of(load_fixture("fifo"))
        assert [type(s) for s in aux] == [Counter]
        assert aux[0].name == "fifo_outstanding"

    def test_tracked_gets_symbolic_inflight_and_sample(self):
        aux = tracking_of(load_fixture("noc_buffer"))
        assert [type(s) for s in aux] == [Counter, Symbolic, Inflight, Sampled]
        symb = aux[1]
        assert symb.name == "symb_buf_transid"
        assert symb.width_expr == "[1:0]"
        assert repr(symb) == "Symbolic(name='symb_buf_transid', width_expr='[1:0]')"  # free variable, no update rule

    def test_counter_update_rule(self):
        # Requests at cycles 0 and 1, response at cycle 3. In the registered
        # view the counter reads 0,1,2,2,1 at cycles 0..4; the sequence after
        # each cycle's handshakes (the post-update view) is 1,2,2,1.
        inc = [1, 1, 0, 0, 0]
        dec = [0, 0, 0, 1, 0]
        cnt = counter_trace(inc, dec)
        assert cnt == [0, 1, 2, 2, 1]
        post = [naive.outstanding_at(inc, dec, i + 1, width=4) for i in range(4)]
        assert post == [1, 2, 2, 1]

    def test_counter_same_cycle_pair_is_neutral(self):
        cnt = counter_trace([1, 1, 0], [0, 1, 0])
        assert cnt == [0, 1, 1]

    def test_inflight_sets_cycle_after_matching_request(self):
        # symbolic id 5: request with id 5 at cycle 2 raises the bit at 3.
        n = 5
        symb = [5] * n
        p_hsk = [0, 0, 1, 0, 0]
        p_id = [0, 0, 5, 0, 0]
        q_hsk = [0] * n
        q_id = [0] * n
        infl = inflight_trace(p_hsk, p_id, q_hsk, q_id, symb)
        assert infl == [0, 0, 0, 1, 1]

    def test_inflight_clears_on_matching_response(self):
        n = 6
        symb = [2] * n
        p_hsk = [1, 0, 0, 0, 0, 0]
        p_id = [2, 0, 0, 0, 0, 0]
        q_hsk = [0, 0, 0, 1, 0, 0]
        q_id = [0, 0, 0, 2, 0, 0]
        infl = inflight_trace(p_hsk, p_id, q_hsk, q_id, symb)
        assert infl == [0, 1, 1, 1, 0, 0]

    def test_sampled_data_holds_request_payload(self):
        n = 5
        symb = [1] * n
        hsk = [0, 1, 0, 1, 0]
        idc = [0, 1, 0, 0, 0]  # only cycle 1 matches the symbolic id
        data = [9, 7, 3, 4, 2]
        samp = sampled_trace(hsk, idc, symb, data)
        assert samp == [0, 0, 7, 7, 7]

    def test_derivations_match_naive_closed_forms(self):
        import itertools

        for p in itertools.product([0, 1], repeat=4):
            for q in itertools.product([0, 1], repeat=4):
                inc, dec = list(p), list(q)
                run = counter_trace(inc, dec)
                closed = [naive.outstanding_at(inc, dec, i, width=4) for i in range(4)]
                assert run == closed


class TestWidthWarnings:
    """The symbolic id and the sampled data take one width rule."""

    @staticmethod
    def warnings_of(ports: str, annotations: str) -> list[str]:
        pm, txns = transactions_of(module(ports, "// AUTOSVA t: a -in> b\n" + annotations))
        _, diags = synth_module_aux(txns, pm, GenOptions())
        return [f"{d.code}: {d.message}" for d in diags]

    def test_plain_one_bit_id_port_does_not_warn(self):
        ports = "input wire a_val,\ninput wire a_transid,\noutput wire b_val,\noutput wire b_transid"
        assert self.warnings_of(ports, "") == []

    def test_typed_id_warning_names_its_type(self):
        ports = "input wire a_val,\noutput wire b_val"
        annotations = "// AUTOSVA input id_t a_transid\n// AUTOSVA output id_t b_transid"
        assert self.warnings_of(ports, annotations) == [
            "unknown-id-width: id width of 't' is not a known range (type 'id_t'), symbolic id defaults to 1 bit"
        ]

    def test_assigned_id_without_range_warns(self):
        ports = "input wire a_val,\ninput wire [1:0] a_id,\noutput wire b_val,\noutput wire [1:0] b_id"
        annotations = "// AUTOSVA a_transid = a_id\n// AUTOSVA b_transid = b_id"
        assert self.warnings_of(ports, annotations) == [
            "unknown-id-width: id width of 't' is not a known range, symbolic id defaults to 1 bit"
        ]


class TestNaming:
    def test_collision_with_port_renamed(self):
        pm, txns = transactions_of(
            module(
                "input wire p_val,\ninput wire p_ack,\noutput wire q_val,\n"
                "input wire p_hsk",  # port steals the natural handshake name
                "// AUTOSVA t: p -in> q",
            )
        )
        aux, diags = synth_module_aux(txns, pm, GenOptions())
        assert aux[0].roles["p_hsk"].name == "p_hsk_1"
        assert "p_hsk_1" in [s.name for s in aux[0].signals if isinstance(s, Handshake)]
        assert "name-collision-renamed" in [d.code for d in diags]
        port_names = pm.port_names()
        for s in aux[0].signals:
            assert s.name not in port_names

    def test_shared_interface_wires_deduplicated(self):
        pm, txns = transactions_of(
            module(
                "input wire a_val,\ninput wire a_ack,\noutput wire b_val,\noutput wire c_val",
                "// AUTOSVA t1: a -in> b\n// AUTOSVA t2: a -in> c",
            )
        )
        aux, _ = synth_module_aux(txns, pm, GenOptions())
        all_names = [s.name for s in aux[0].signals + aux[1].signals]
        assert len(all_names) == len(set(all_names))
        # Both transactions refer to the same a_hsk wire.
        assert aux[0].roles["p_hsk"].name == aux[1].roles["p_hsk"].name == "a_hsk"

    def test_counter_width_parameters_per_transaction(self):
        pm, txns = transactions_of(load_fixture("mmu_stub"))
        aux, _ = synth_module_aux(txns, pm, GenOptions())
        counters = [s for group in aux for s in group.signals if isinstance(s, Counter)]
        assert [c.limit_param for c in counters] == [
            "MMU_MAX_OUTSTANDING", "PTW_MAX_OUTSTANDING",
        ]
        assert "logic [MMU_CNT_WIDTH-1:0] mmu_outstanding;" in counters[0].declare(GenOptions())


# An independent reading of the `always` block that `declare()` writes: reset
# first, then at each clock edge the first `else if` whose condition holds
# assigns, else the register holds. Conditions are `&&` of names, each maybe
# under `!`, and an unknown reads as 0. A value is `'0`, `1'b0`, `1'b1`,
# `<name> +/- 1'b1`, or a signal read two-valued, and it is masked to the
# declared width.
_LOCALPARAM_RE = re.compile(r"localparam (\w+) = \$clog2\((\w+) \+ 1\);")
_LOGIC_RE = re.compile(r"logic (?:\[(\w+)(?:-1)?:0\] )?(\w+);")
_IF_RE = re.compile(r"\s*(?:else )?if \((.*)\)")
_ASSIGN_RE = re.compile(r"\s*(\w+) <= (.*);")
_STEP_RE = re.compile(r"(\w+) ([+-]) 1'b1")


def _declared_width(lines: list[str], params: dict[str, int]) -> int:
    env = dict(params)
    for line in lines:
        if m := _LOCALPARAM_RE.fullmatch(line):
            env[m[1]] = math.ceil(math.log2(env[m[2]] + 1))
        elif m := _LOGIC_RE.fullmatch(line):
            if m[1] is None:
                return 1
            return int(m[1]) + 1 if m[1].isdigit() else env[m[1]]
    raise AssertionError(f"no logic declaration in {lines}")


def _holds(cond: str, row: dict) -> bool:
    return all(bool(row[term.lstrip("!")]) != term.startswith("!") for term in cond.split(" && "))  # None reads as 0


def _value(text: str, current: int, row: dict) -> int:
    if text in ("'0", "1'b0"):
        return 0
    if text == "1'b1":
        return 1
    if m := _STEP_RE.fullmatch(text):
        return current + 1 if m[2] == "+" else current - 1
    return 0 if row[text] is None else row[text]


def simulate_declaration(lines: list[str], rows: list[dict], params: dict[str, int]) -> list[int]:
    """The register's value during each cycle of `rows`, read off its declaration text."""
    mask = (1 << _declared_width(lines, params)) - 1
    start = next(i for i, line in enumerate(lines) if line.startswith("always "))
    body = lines[start + 1:-1]
    branches = [(_IF_RE.fullmatch(c)[1], _ASSIGN_RE.fullmatch(a)[2]) for c, a in zip(body[::2], body[1::2])]
    (_, reset), updates = branches[0], branches[1:]
    value, out = _value(reset, 0, {}) & mask, []
    for row in rows:
        out.append(value)
        for cond, text in updates:
            if _holds(cond, row):
                value = _value(text, value, row) & mask
                break
    return out


BIT = st.sampled_from([0, 1, None])
DATA = st.one_of(BIT, st.integers(0, 255))


def _rows(draw_col, names_domains, n):
    cols = {name: draw_col(st.lists(dom, min_size=n, max_size=n)) for name, dom in names_domains}
    return cols, [{name: cols[name][i] for name in cols} for i in range(n)]


class TestRuleFormsAgree:
    """Each register's `declare()` text and its `step`, which the evaluator runs, give the same values."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), limit=st.integers(1, 9))
    def test_counter(self, data, n, limit):
        node = Counter("cnt", Sig("inc"), Sig("dec"), limit, "T_MAX_OUTSTANDING", "T_CNT_WIDTH")
        cols, rows = _rows(data.draw, [("inc", BIT), ("dec", BIT)], n)
        want = simulate_declaration(node.declare(GenOptions()), rows, {"T_MAX_OUTSTANDING": limit})
        assert column(node, Trace(cols)) == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_inflight(self, data, n):
        node = Inflight("infl", Sig("set"), Sig("clr"))
        cols, rows = _rows(data.draw, [("set", BIT), ("clr", BIT)], n)
        assert column(node, Trace(cols)) == simulate_declaration(node.declare(GenOptions()), rows, {})

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_sampled(self, data, n):
        cols, rows = _rows(data.draw, [("cap", BIT), ("data", DATA)], n)
        for width in ("", "[3:0]", "[7:0]"):
            node = Sampled("smp", Sig("cap"), Sig("data"), width)
            assert column(node, Trace(cols)) == simulate_declaration(node.declare(GenOptions()), rows, {}), width
