import hashlib
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from autoft import tracecheck
from autoft.models import (
    MODEL_REGISTRY,
    FifoModel,
    ModelCheckEntry,
    NocBufferModel,
    PipelineModel,
    check_bundle_on_model,
)
from autoft.diagnostics import SymbolicWidthError, UnknownSignalError
from autoft.parser import literal_width_bits
from autoft.properties import GeneratedProperty
from autoft.sva import AttribWire, Eq, Eventually, Implies, Sig, Symbolic, walk
from autoft.tracecheck import HOLDS, VACUOUS, VIOLATED, Trace, eval_property

import differential
from conftest import REPO, gen_fixture


def run(fixture_name, model):
    bundle = gen_fixture(fixture_name)
    return check_bundle_on_model(bundle.transactions, bundle.properties, model)


# sha256 of each model's traces as CSV text, columns in order. A model change
# that moves any value, column name or column order must update these on purpose.
PINNED_TRACES = {
    "fifo": (MODEL_REGISTRY["fifo"],
             "187c9c261cb7fc7bac425fe98bf5fb9ff0e864e295ede833123e3581ed0f1ba9"),
    "noc_buffer": (MODEL_REGISTRY["noc_buffer"],
                   "f32cd914217e23fcfb70d065e1c3928f7031f56e58e0b51e0775c86733a66f10"),
    "noc_buffer_buggy": (MODEL_REGISTRY["noc_buffer_buggy"],
                         "e0a62fb67ce29ce100844cb5598146642aa517e55ff2f7cc270b24eccd4cbb3e"),
    "pipeline": (MODEL_REGISTRY["pipeline"],
                 "6fcd41d853565e8ddda4848d55d9af8083514442820fa0ae7aca7329114195b7"),
    "pipeline_double_issue": (lambda: PipelineModel(double_issue=True),
                              "40c6c9490246d1ca90ddc3fe69fbd76db6e9f13e357a49b5d54b0f5ad303e0d0"),
    # The oracle benchmark's size: more and longer traces.
    "noc_buffer_buggy_long": (lambda: NocBufferModel(buggy=True, n_traces=12, drive=100, tail=20),
                              "47820bc3da349956534c4ee83c4cb6fe648a66611e79aa7f56f8396c3afdd174"),
}


@pytest.mark.parametrize("name", sorted(PINNED_TRACES))
def test_traces_are_pinned(name):
    factory, digest = PINNED_TRACES[name]
    text = "".join(t.to_csv() for t in factory().traces())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestModelTraces:
    def test_traces_are_deterministic(self):
        a = FifoModel().traces()
        b = FifoModel().traces()
        assert [t.columns for t in a] == [t.columns for t in b]

    def test_fifo_never_overfills(self):
        model = FifoModel()
        for trace in model.traces():
            occupancy = 0
            for i in range(trace.length):
                push = trace.columns["in_val"][i] and trace.columns["in_ack"][i]
                pop = trace.columns["out_val"][i] and trace.columns["out_ack"][i]
                occupancy += int(push) - int(pop)
                assert 0 <= occupancy <= 2

    def test_buggy_buffer_drops_at_least_one_entry(self):
        model = NocBufferModel(buggy=True)
        dropped_somewhere = False
        for trace in model.traces():
            pushes = sum(
                bool(trace.columns["buf_in_val"][i] and trace.columns["buf_in_ack"][i])
                for i in range(trace.length)
            )
            pops = sum(
                bool(trace.columns["buf_out_val"][i] and trace.columns["buf_out_ack"][i])
                for i in range(trace.length)
            )
            if pushes > pops:
                dropped_somewhere = True
        assert dropped_somewhere

    def test_buggy_buffer_follows_its_rtl(self):
        # `fixtures/noc_buffer_buggy.sv` stores a request only when `!full`, with `full` read at the start of
        # its cycle, before `rd_ptr` moves: one accepted while `depth` entries were queued never comes out.
        model = NocBufferModel(buggy=True, n_traces=12, drive=100, tail=20)
        dropped = 0
        for trace in model.traces():
            c, queue = trace.columns, []
            for i in range(trace.length):
                full = len(queue) == model.depth
                assert c["buf_out_val"][i] == (1 if queue else 0)
                if c["buf_out_val"][i] and c["buf_out_ack"][i]:
                    assert (c["buf_out_mshrid"][i], c["buf_out_data"][i]) == queue.pop(0)
                if c["buf_in_val"][i] and c["buf_in_ack"][i]:
                    if full:
                        dropped += 1
                    else:
                        queue.append((c["buf_in_mshrid"][i], c["buf_in_data"][i]))
        assert dropped > 0

    def test_pipeline_holds_pending_request_stable(self):
        model = PipelineModel()
        for trace in model.traces():
            c = trace.columns
            for i in range(trace.length - 1):
                if c["pipe_in_val"][i] and not c["pipe_in_ack"][i]:
                    assert c["pipe_in_val"][i + 1] == 1
                    assert c["pipe_in_transid"][i + 1] == c["pipe_in_transid"][i]
                    assert c["pipe_in_data"][i + 1] == c["pipe_in_data"][i]


class TestWellBehavedModels:
    def test_fifo_all_holds_or_vacuous(self):
        report = run("fifo", FifoModel())
        outcomes = {e.verdict.outcome for e in report.entries}
        assert outcomes <= {HOLDS, VACUOUS}

    def test_fixed_buffer_clean(self):
        report = run("noc_buffer", NocBufferModel(buggy=False))
        assert report.violated() == []
        assert report.pending() == []

    def test_pipeline_clean(self):
        report = run("pipeline", PipelineModel())
        assert report.violated() == []
        assert report.pending() == []
        # Every property kind of the fixture is actually exercised (holds
        # somewhere, not everywhere vacuous).
        held = {e.kind for e in report.entries if e.verdict.outcome == HOLDS}
        assert {
            "liveness", "response_had_request", "ack_eventually", "stability",
            "active_covered", "transid_integrity", "uniqueness", "data_integrity",
        } <= held


class TestBrokenModels:
    def test_buggy_buffer_violates_liveness_only(self):
        report = run("noc_buffer_buggy", NocBufferModel(buggy=True))
        assert report.violated_kinds() == frozenset({"liveness"})
        names = {e.verdict.property_name for e in report.violated()}
        assert names == {"buf_liveness"}

    def test_double_issue_violates_uniqueness(self):
        report = run("pipeline", PipelineModel(double_issue=True))
        assert "uniqueness" in report.violated_kinds()
        assert report.violated_kinds() == PipelineModel(double_issue=True).expected_violated_kinds

    def test_violations_carry_cycles(self):
        report = run("noc_buffer_buggy", NocBufferModel(buggy=True))
        for e in report.violated():
            assert e.verdict.cycle is not None
            assert 0 <= e.verdict.cycle < NocBufferModel().drive + NocBufferModel().tail

    def test_expected_sets_match_reality(self):
        pairs = [
            ("fifo", FifoModel()),
            ("noc_buffer", NocBufferModel(buggy=False)),
            ("noc_buffer_buggy", NocBufferModel(buggy=True)),
            ("pipeline", PipelineModel()),
            ("pipeline", PipelineModel(double_issue=True)),
        ]
        for fixture_name, model in pairs:
            report = run(fixture_name, model)
            assert report.violated_kinds() == model.expected_violated_kinds, model.name


class TestReportShape:
    def test_summary_counts(self):
        report = run("fifo", FifoModel())
        assert report.model == "fifo"
        assert "holds=" in report.summary()

    def test_symbolic_assignments_recorded(self):
        report = run("noc_buffer", NocBufferModel(buggy=False))
        tracked = [e for e in report.entries if e.kind == "transid_integrity"]
        assert tracked
        assert all(e.symb_values == (("symb_buf_transid", e.symb_values[0][1]),) for e in tracked)
        seen_values = {e.symb_values[0][1] for e in tracked}
        assert seen_values == {0, 1, 2, 3}

    def test_only_id_reading_entries_carry_an_id(self):
        report = run("noc_buffer", NocBufferModel(buggy=False))
        reads_id = {"liveness", "transid_integrity", "uniqueness", "data_integrity"}
        assert {e.kind for e in report.entries} > reads_id
        for e in report.entries:
            assert bool(e.symb_values) == (e.kind in reads_id), e

    def test_symbolic_id_takes_every_value_of_its_width(self):
        # `[2:0]` gives 8 values, whatever the model drives.
        body = Implies(Sig("v"), Eq(Sig("id"), Symbolic("symb", "[2:0]")))
        prop = GeneratedProperty("p", "transid_integrity", "assert", body)
        report = check_bundle_on_model([], [prop], _OneCycle())
        assert [(e.symb_values, e.verdict.outcome) for e in report.entries] == [
            ((("symb", v),), HOLDS if v == 5 else VIOLATED) for v in range(8)
        ]

    def test_symbolic_id_without_literal_width_is_an_error(self):
        bundle = gen_fixture("mmu_stub")  # its walk ids are `[TAGW-1:0]`
        with pytest.raises(SymbolicWidthError, match="symbolic id 'symb_ptw_transid' has no literal width"):
            check_bundle_on_model(bundle.transactions, bundle.properties, FifoModel())


class _OneCycle:
    """A model of one trace, one cycle long, that requests id 5."""

    name, liveness_window = "one_cycle", 1

    def traces(self):
        return [Trace({"v": [1], "id": [5]})]


class _TwoIds(_OneCycle):
    """One trace, one cycle long, that requests id 2."""

    def traces(self):
        return [Trace({"v": [1], "id": [2]})]


def test_each_property_takes_only_the_ids_it_reads():
    sa, sb = Symbolic("sa", "[1:0]"), Symbolic("sb", "[1:0]")
    props = [GeneratedProperty(f"p_{s.name}", "transid_integrity", "assert", Implies(Sig("v"), Eq(Sig("id"), s)))
             for s in (sa, sb)]
    both = GeneratedProperty("p_both", "transid_integrity", "assert", Implies(Eq(Sig("id"), sa), Eq(Sig("id"), sb)))
    report = check_bundle_on_model([], [*props, both], _TwoIds())
    for prop in props:
        entries = [e for e in report.entries if e.verdict.property_name == prop.name]
        assert [(e.symb_values, e.verdict.outcome) for e in entries] == [
            (((prop.name[2:], v),), HOLDS if v == 2 else VIOLATED) for v in range(4)
        ]
    # A property that reads both ids takes the product of their values.
    assert [(e.symb_values, e.verdict.outcome) for e in report.entries if e.verdict.property_name == "p_both"] == [
        ((("sa", a), ("sb", b)), VIOLATED if a == 2 and b != 2 else HOLDS if a == 2 else VACUOUS)
        for a in range(4) for b in range(4)
    ]


def test_a_missing_signal_is_named_in_property_order():
    # Properties are evaluated in entry order, so `x`, read by the earlier,
    # id-free property, is named before `y`, read by the later, id-reading one.
    early = GeneratedProperty("p_early", "liveness", "assert", Implies(Sig("x"), Sig("v")))
    late = GeneratedProperty("p_late", "transid_integrity", "assert",
                             Implies(Sig("y"), Eq(Sig("id"), Symbolic("symb", "[1:0]"))))
    for check in (check_bundle_on_model, lambda _, props, model: one_at_a_time(props, model)):
        with pytest.raises(UnknownSignalError) as exc:
            check([], [early, late], _OneCycle())
        assert exc.value.name == "x"


class _NoResponse(_OneCycle):
    """One trace, three cycles long: a request at cycle 0 that `w` never answers."""

    def traces(self):
        return [Trace({"v": [1, 0, 0], "w": [0, 0, 0]})]


def test_an_id_free_eventuality_is_cut_to_the_liveness_window():
    # Unbounded, the open request would be pending; cut to the one-cycle window it fails at cycle 1.
    p = GeneratedProperty("p_live", "liveness", "assert", Implies(Sig("v"), Eventually(Sig("w"))))
    [entry] = check_bundle_on_model([], [p], _NoResponse()).entries
    assert (entry.symb_values, entry.verdict.outcome, entry.verdict.cycle) == ((), VIOLATED, 1)


def _windowed(p: GeneratedProperty, window: int) -> GeneratedProperty:
    """The property with an unbounded eventuality cut to `window` cycles."""
    con = getattr(p.body, "con", None)
    if isinstance(con, Eventually) and con.hi is None:
        return p._replace(body=p.body._replace(con=con._replace(hi=window)))
    return p


def one_at_a_time(props, model) -> list[ModelCheckEntry]:
    """The loop that `check_bundle_on_model` replaced, kept as the reference.

    Per trace and id assignment it builds a copy of the trace with the ids'
    columns (`Trace.extended`); then each property is evaluated by itself,
    from a fresh copy of the columns. Every id-reading property is evaluated
    under every assignment, which is right for at most one symbolic id.
    """
    prepared = [(_windowed(p, model.liveness_window), any(isinstance(n, Symbolic) for n in walk(p.body)))
                for p in props]
    assignments = [()]
    symbs = {n.name: n for p in props for n in walk(p.body) if isinstance(n, Symbolic)}
    for name, symb in symbs.items():
        assignments = [a + ((name, v),) for a in assignments
                       for v in range(1 << literal_width_bits(symb.width_expr))]
    entries = []
    for idx, trace in enumerate(model.traces()):
        for k, assign in enumerate(assignments):
            extended = trace.extended({name: [v] * trace.length for name, v in assign}) if assign else trace
            for p, needs_symb in prepared:
                if needs_symb or k == 0:
                    entries.append(ModelCheckEntry(idx, assign if needs_symb else (), p.kind,
                                                   eval_property(p, extended)))
    return entries


# name -> (fixture, model factory, generation options)
ONE_PASS_CASES = {
    **{name: (name, factory, {}) for name, factory in MODEL_REGISTRY.items()},
    "pipeline_double_issue": ("pipeline", lambda: PipelineModel(double_issue=True), {}),
    "noc_buffer_max_outstanding_1": ("noc_buffer", MODEL_REGISTRY["noc_buffer"], {"max_outstanding": 1}),
}


class _Drawn:
    """A stand-in for `model` whose traces are the given ones."""

    def __init__(self, model, traces):
        self.name, self.liveness_window, self.drawn = model.name, model.liveness_window, traces

    def traces(self):
        return self.drawn


class TestOnePass:
    @pytest.mark.parametrize("assert_inputs", [False, True])
    @pytest.mark.parametrize("case", sorted(ONE_PASS_CASES))
    def test_entries_equal_the_one_at_a_time_loop(self, case, assert_inputs):
        fixture, factory, kwargs = ONE_PASS_CASES[case]
        props = gen_fixture(fixture, assert_inputs=assert_inputs, **kwargs).properties
        assert check_bundle_on_model([], props, factory()).entries == one_at_a_time(props, factory())

    @pytest.mark.parametrize("fixture", sorted(MODEL_REGISTRY))
    def test_a_column_named_like_a_generated_signal_changes_no_verdict(self, fixture):
        # Handshakes and registers are derived, never read from a trace: columns of their names, all 0, are ignored.
        bundle, model = gen_fixture(fixture), MODEL_REGISTRY[fixture]()
        props = bundle.properties
        names = [a.name for t_aux in bundle.aux for a in t_aux.signals if not isinstance(a, (AttribWire, Symbolic))]
        assert any(n.endswith("_hsk") for n in names) and any(n.endswith("_outstanding") for n in names)
        shadowed = _Drawn(model, [t.extended({n: [0] * t.length for n in names}) for t in model.traces()])
        assert check_bundle_on_model([], props, shadowed).entries == check_bundle_on_model([], props, model).entries

    @pytest.mark.parametrize("bounded", [None, 3])
    @pytest.mark.parametrize("fixture, overrides", [("fifo", ()), ("noc_buffer", ()), ("pipeline", ()),
                                                    ("noc_buffer", ("buf_outstanding", "buf_inflight"))])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_entries_equal_the_one_at_a_time_loop_on_drawn_traces(self, data, fixture, overrides, bounded):
        # Ids arrive out of order and as X, states the seeded models never produce. The last case adds
        # columns named like the counter and the in-flight bit, which both sides ignore: registers are derived.
        props = (gen_fixture(fixture, bounded=bounded) if bounded else gen_fixture(fixture)).properties
        columns = MODEL_REGISTRY[fixture]().columns + overrides
        trace = st.integers(1, 8).flatmap(lambda n: st.fixed_dictionaries(
            {c: st.lists(st.sampled_from([0, 1, 2, 3, None]), min_size=n, max_size=n) for c in columns}))
        traces = [Trace(t) for t in data.draw(st.lists(trace, min_size=1, max_size=3))]
        model = _Drawn(MODEL_REGISTRY[fixture](), traces)
        assert check_bundle_on_model([], props, model).entries == one_at_a_time(props, model)

    @pytest.mark.parametrize("fixture, per_trace, before", [("noc_buffer", 9, 14), ("pipeline", 9, 15),
                                                            ("fifo", 1, 2)])
    def test_registers_are_derived_once_per_trace_and_id_value(self, monkeypatch, fixture, per_trace, before):
        calls, register = [], tracecheck._register

        def counting(node, a, b):
            calls.append(node.name)
            return register(node, a, b)

        monkeypatch.setattr(tracecheck, "_register", counting)
        props, model = gen_fixture(fixture).properties, MODEL_REGISTRY[fixture]()
        check_bundle_on_model([], props, model)
        assert len(calls) == per_trace * model.n_traces
        calls.clear()
        one_at_a_time(props, model)
        assert len(calls) == before * model.n_traces


def test_model_check_bench_runs_at_tiny_size(tmp_path):
    # The model-check half of the before/after script, with this checkout on both sides so that both packages load.
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(REPO / "bench" / "evaluator.py"), "--src", str(REPO / "src"), "--rounds", "2",
                    "--max-len", "2", "--traces", "1", "--drive", "10", "--out", str(out)],
                   capture_output=True, text=True, check=True)
    report = json.loads(out.read_text())
    for side in ("before", "after"):
        assert set(report[side]["models"]) == {"oracle_size", "default_size"}
        for models in report[side]["models"].values():
            assert set(models) == set(MODEL_REGISTRY)
            assert all(set(m) == {"median_ms", "q1_ms", "q3_ms", "registers_per_trace", "entries"}
                       for m in models.values())
    for config in ("oracle_size", "default_size"):
        assert [report[side]["models"][config]["noc_buffer"]["registers_per_trace"]
                for side in ("before", "after")] == [9, 9]
    assert set(report["paired_after_over_before"]) == set(report["after_over_before"])
    assert {"default_size/noc_buffer", "oracle_size/noc_buffer"} <= set(report["after_over_before"])
