import collections
import functools
import hashlib
import json
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

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
from autoft.emit import generate_bundle
from autoft.options import GenOptions
from autoft.sva import (
    And, AttribWire, CoverSeq, Counter, Eq, Eventually, Gt, Handshake, Implies, Inflight, IsUnknown, Not, Or, Sampled,
    Sig, Stable, Symbolic, children,
)
from autoft.tracecheck import HOLDS, PENDING, VACUOUS, VIOLATED, Trace, eval_property

import differential
from conftest import FIXTURE_NAMES, REPO, gen_fixture
from headers import wide_header
from test_emit import EMITTED, OPTION_MIXES


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
    "fifo_long": (lambda: FifoModel(n_traces=12, drive=100, tail=12),
                  "83cfacd6b8721ad68fb4335b9bf1ba4f0fac2a4d9ba13023ab9c08a52e6f3190"),
    "noc_buffer_long": (lambda: NocBufferModel(buggy=False, n_traces=12, drive=100, tail=20),
                        "ffb4ed4d73f3e9ded4d8c478b7cfbefbf4dad216ab85ffc9fcabdcf93840e86c"),
    "noc_buffer_buggy_long": (lambda: NocBufferModel(buggy=True, n_traces=12, drive=100, tail=20),
                              "47820bc3da349956534c4ee83c4cb6fe648a66611e79aa7f56f8396c3afdd174"),
    "pipeline_long": (lambda: PipelineModel(n_traces=12, drive=100, tail=12),
                      "4d50bf13ff96f778cd7fbcb979a0ef7c5774fe0b5ca14fe5f3dceed06cb52e0d"),
    "pipeline_double_issue_long": (lambda: PipelineModel(double_issue=True, n_traces=12, drive=100, tail=12),
                                   "b8ebd7761da9cbe71400920cfcb9f1dd0a791fa9eefe15db7af49e87bbc6adb6"),
}


@pytest.mark.parametrize("name", sorted(PINNED_TRACES))
def test_traces_are_pinned(name):
    factory, digest = PINNED_TRACES[name]
    text = "".join(t.to_csv() for t in factory().traces())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class _Stimulus:
    """The reference models' stimulus: a seeded `random.Random`, and an acknowledge starved at most twice running."""

    MAX_STALL = 2

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._stalled = 0

    def ack(self, p_stall: float) -> int:
        if self._stalled >= self.MAX_STALL or self.rng.random() >= p_stall:
            self._stalled = 0
            return 1
        self._stalled += 1
        return 0


def fifo_rows(model, stim):
    queue = []
    random, ack, randrange, depth, drive = stim.rng.random, stim.ack, stim.rng.randrange, model.depth, model.drive
    for cycle in range(drive + model.tail):
        driving = cycle < drive
        in_val = 1 if driving and random() < 0.7 else 0
        in_data = randrange(256)
        in_ack = 1 if len(queue) < depth else 0
        out_val = 1 if queue else 0
        out_ack = ack(0.4) if driving else 1
        yield in_val, in_ack, in_data, out_val, out_ack, queue[0] if queue else 0
        if out_val and out_ack:
            queue.pop(0)
        if in_val and in_ack:
            queue.append(in_data)


def noc_buffer_rows(model, stim):
    queue, env_outstanding = [], set()
    random, ack, randrange = stim.rng.random, stim.ack, stim.rng.randrange
    ids, depth, buggy, drive = range(model.n_ids), model.depth, model.buggy, model.drive
    for cycle in range(drive + model.tail):
        driving = cycle < drive
        free = [k for k in ids if k not in env_outstanding]
        in_val = 1 if driving and free and random() < 0.8 else 0
        in_id = free[randrange(len(free))] if in_val else 0
        in_data = randrange(256)
        full = len(queue) == depth
        in_ack = 1 if buggy or not full else 0
        out_val = 1 if queue else 0
        out_id, out_data = queue[0] if queue else (0, 0)
        out_ack = ack(0.5) if driving else 1
        yield in_val, in_ack, in_id, in_data, in_id, out_val, out_ack, out_id, out_data, out_id
        if out_val and out_ack:
            queue.pop(0)
            env_outstanding.discard(out_id)
        if in_val and in_ack:
            env_outstanding.add(in_id)
            if not full:
                queue.append((in_id, in_data))


def pipeline_rows(model, stim):
    busy, inflight, respond_at, pending, next_id, faulted = 0, None, -1, None, 0, False
    random, randrange, double_issue, drive = stim.rng.random, stim.rng.randrange, model.double_issue, model.drive
    for cycle in range(drive + model.tail):
        driving = cycle < drive
        if pending is None and driving and random() < 0.6:
            pending = (next_id, randrange(256))
            next_id = (next_id + 1) % model.n_ids
        fault_now = double_issue and not faulted and busy and inflight is not None and pending is None and cycle >= 4
        if fault_now:
            pending = inflight
        in_val = 1 if pending is not None else 0
        in_id, in_data = pending if pending else (0, 0)
        in_ack = 1 if (not busy or fault_now) else 0
        out_val = 1 if cycle == respond_at else 0
        out_id, out_data = inflight if (out_val and inflight) else (0, 0)
        yield in_val, in_ack, in_id, in_data, out_val, out_id, out_data, busy, busy
        if out_val:
            busy, inflight = 0, None
        if in_val and in_ack:
            if fault_now:
                faulted = True
            else:
                inflight, respond_at, busy = (in_id, in_data), cycle + model.latency, 1
            pending = None


REFERENCE_ROWS = {FifoModel: fifo_rows, NocBufferModel: noc_buffer_rows, PipelineModel: pipeline_rows}
MODEL_MAKERS = {
    "fifo": FifoModel,
    "noc_buffer": functools.partial(NocBufferModel, buggy=False),
    "noc_buffer_buggy": functools.partial(NocBufferModel, buggy=True),
    "pipeline": functools.partial(PipelineModel, double_issue=False),
    "pipeline_double_issue": functools.partial(PipelineModel, double_issue=True),
}


def reference_traces(model) -> list[Trace]:
    """The traces the models drew as row generators over `randrange` and `_Stimulus`, transposed onto columns."""
    rows = REFERENCE_ROWS[type(model)]
    return [Trace(dict(zip(model.columns, zip(*rows(model, _Stimulus(seed))))))
            for seed in range(1, model.n_traces + 1)]


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(MODEL_MAKERS)), n_traces=st.integers(0, 3), drive=st.integers(0, 120),
       tail=st.integers(0, 24))
@example(name="noc_buffer", n_traces=2, drive=0, tail=0)
def test_models_draw_what_the_row_reference_draws(name, n_traces, drive, tail):
    # The inline `getrandbits` draws give `randrange`'s stream on this interpreter, and a model of no cycle
    # still draws traces with no column.
    model = MODEL_MAKERS[name](n_traces=n_traces, drive=drive, tail=tail)
    drawn, reference = model.traces(), reference_traces(model)
    assert [(t.length, list(t.columns.items())) for t in drawn] == \
        [(t.length, list(t.columns.items())) for t in reference]


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
        assert [e for e in report.entries if e.verdict.outcome == PENDING] == []

    def test_pipeline_clean(self):
        report = run("pipeline", PipelineModel())
        assert report.violated() == []
        assert [e for e in report.entries if e.verdict.outcome == PENDING] == []
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


def test_a_missing_signal_below_an_unshared_column_is_named():
    # `v && !gone` has one reader, so it is written inline in the antecedent; its columns are still read first.
    p = GeneratedProperty("p", "liveness", "assert", Implies(And(Sig("v"), Not(Sig("gone"))), Sig("id")))
    with pytest.raises(UnknownSignalError) as exc:
        check_bundle_on_model([], [p], _OneCycle())
    assert exc.value.name == "gone"


class _NoResponse(_OneCycle):
    """One trace, three cycles long: a request at cycle 0 that `w` never answers."""

    def traces(self):
        return [Trace({"v": [1, 0, 0], "w": [0, 0, 0]})]


def test_an_id_free_eventuality_is_cut_to_the_liveness_window():
    # Unbounded, the open request would be pending; cut to the one-cycle window it fails at cycle 1.
    p = GeneratedProperty("p_live", "liveness", "assert", Implies(Sig("v"), Eventually(Sig("w"))))
    [entry] = check_bundle_on_model([], [p], _NoResponse()).entries
    assert (entry.symb_values, entry.verdict.outcome, entry.verdict.cycle) == ((), VIOLATED, 1)


class _IdColumn(_OneCycle):
    """One trace, one cycle long, that requests id 5 and drives a column named like the symbolic id to 5."""

    def traces(self):
        return [Trace({"v": [1], "id": [5], "symb": [5]})]


def test_an_id_assignment_wins_over_a_trace_column_of_its_name():
    # Were the trace's `symb` read, every value would hold; each entry is checked under its own value.
    prop = GeneratedProperty("p", "transid_integrity", "assert",
                             Implies(Sig("v"), Eq(Sig("id"), Symbolic("symb", "[2:0]"))))
    report = check_bundle_on_model([], [prop], _IdColumn())
    assert [(e.symb_values, e.verdict.outcome) for e in report.entries] == [
        ((("symb", v),), HOLDS if v == 5 else VIOLATED) for v in range(8)
    ]


def test_a_property_keeps_one_evaluator_for_every_check(monkeypatch):
    # A check keeps the monitor of the list's bodies on its first property, and `eval_property` the monitor of a
    # property's own body on it: a re-check, and a second `eval_property`, render no body. Either one after the other
    # on the head property remakes the monitor it needs, and gives what fresh copies give.
    props, model = [p._replace() for p in gen_fixture("noc_buffer").properties], MODEL_REGISTRY["noc_buffer"]()
    trace = model.traces()[0]
    trace = trace.extended({name: [1] * trace.length for p in props for name in id_names(p.body)})
    checked = one_at_a_time([p._replace() for p in props], model)
    evaluated = [eval_property(p._replace(), trace) for p in props]
    rendered, init = [], tracecheck._Source.__init__
    monkeypatch.setattr(tracecheck._Source, "__init__", lambda self, reads: rendered.append(reads) or init(self, reads))

    def rendering(make):
        """What `make()` gives, and how many loops it renders."""
        before = len(rendered)
        return make(), len(rendered) - before

    def check():
        return check_bundle_on_model([], props, model).entries

    def evaluate():
        return [eval_property(p, trace) for p in props]

    assert rendering(check) == (checked, 2)  # the id-free group and the id-reading one
    assert rendering(check) == (checked, 0)
    assert rendering(evaluate) == (evaluated, len(props))  # the head's monitor of every body gives way to its own
    assert rendering(evaluate) == (evaluated, 0)
    assert rendering(check) == (checked, 2)
    assert rendering(lambda: eval_property(props[0], trace)) == (evaluated[0], 1)
    assert props[0].monitor.body is props[0].body and all(p.monitor.body is p.body for p in props[1:])


class _LateSecond(_OneCycle):
    """One trace, four cycles long: `a` high at cycle 0 only, `b` at cycle 3 only."""

    def traces(self):
        return [Trace({"a": [1, 0, 0, 0], "b": [0, 0, 0, 1]})]


def test_a_group_runs_on_past_its_first_violation():
    # Both bodies read `a`, so they are one group. The first fails at cycle 0, the second at cycle 3 only.
    early = GeneratedProperty("p_early", "xprop", "assert", Not(Sig("a")))
    late = GeneratedProperty("p_late", "xprop", "assert", Not(And(Sig("b"), Not(Sig("a")))))
    report = check_bundle_on_model([], [early, late], _LateSecond())
    assert [members for members, *_ in early.monitor.groups] == [[0, 1]]  # one group, one loop
    assert [(e.verdict.property_name, e.verdict.outcome, e.verdict.cycle) for e in report.entries] == [
        ("p_early", VIOLATED, 0), ("p_late", VIOLATED, 3)]
    columns = _LateSecond().traces()[0].columns
    assert tracecheck.Monitor((early.body, late.body)).run(columns, 4) == (VIOLATED, 0, VIOLATED, 3)


@functools.cache
def _windowed(p: GeneratedProperty, window: int) -> GeneratedProperty:
    """The property with an unbounded eventuality cut to `window` cycles, made once per property and window."""
    con = getattr(p.body, "con", None)
    if isinstance(con, Eventually) and con.hi is None:
        return p._replace(body=p.body._replace(con=con._replace(hi=window)))
    return p


def _symbolics(value) -> list[Symbolic]:
    """The `Symbolic` nodes in a node or a tuple of nodes, in pre-order; every node is a named tuple."""
    if isinstance(value, Symbolic):
        return [value]
    return [s for x in value for s in _symbolics(x)] if isinstance(value, tuple) else []


def id_names(body) -> tuple[str, ...]:
    """The names of the symbolic ids a body reads, each once, in the order it first reads them."""
    return tuple(dict.fromkeys(s.name for s in _symbolics(body)))


def reader_counts(nodes, counts=None) -> dict:
    """Each node's count of readers among `nodes`, by the key a generated loop shares it by (`_Source.key`): one per
    reading parent or body, a node's children counted on its first read only."""
    counts = {} if counts is None else counts
    for node in nodes:
        k = node.name if type(node) in (Sig, AttribWire, Symbolic) else id(node)
        counts[k] = counts.get(k, 0) + 1
        if counts[k] == 1:
            reader_counts(children(node), counts)
    return counts


def keys(body) -> dict:
    """The keys a generated loop of `body` alone shares its nodes by, each with its count of readers."""
    return reader_counts([body])


def one_at_a_time(props, model) -> list[ModelCheckEntry]:
    """The per-property loop that `check_bundle_on_model` replaced, kept as the reference.

    Each property is evaluated by itself, under every combination of the
    values of the ids it reads, each id in the order the body first reads
    it, on a copy of the trace with those ids' columns, one copy per trace
    and assignment. The copy is made as `enumerate_traces` makes its
    traces, without `Trace.extended`'s checks: the wide header's trace has
    3,840 assignments over 1,800 columns.
    """
    prepared = []
    for p in props:
        assignments = [()]
        for name, symb in {s.name: s for s in _symbolics(p.body)}.items():
            assignments = [a + ((name, v),) for a in assignments
                           for v in range(1 << literal_width_bits(symb.width_expr))]
        prepared.append((_windowed(p, model.liveness_window), assignments))
    entries = []
    for idx, trace in enumerate(model.traces()):
        extended = {}
        for k in range(max((len(a) for _, a in prepared), default=0)):
            for p, assignments in prepared:
                if k < len(assignments):
                    a = assignments[k]
                    if a not in extended:
                        extended[a] = object.__new__(Trace)
                        extended[a].columns = {**trace.columns, **{name: (v,) * trace.length for name, v in a}}
                        extended[a].length = trace.length
                    entries.append(ModelCheckEntry(idx, a, p.kind, eval_property(p, extended[a])))
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

    @pytest.mark.parametrize("options", [pytest.param({}, id="None"), pytest.param({"bounded": 3}, id="3"),
                                         pytest.param({"max_outstanding": 1}, id="max_outstanding_1")])
    @pytest.mark.parametrize("fixture, overrides", [("fifo", ()), ("noc_buffer", ()), ("pipeline", ()),
                                                    ("noc_buffer", ("buf_outstanding", "buf_inflight"))])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_entries_equal_the_one_at_a_time_loop_on_drawn_traces(self, data, fixture, overrides, options):
        # Ids arrive out of order and as X, states the seeded models never produce. The last case adds
        # columns named like the counter and the in-flight bit, which both sides ignore: registers are derived.
        # With one outstanding request allowed, the counter wraps at its one bit.
        props = (gen_fixture(fixture, **options) if options else gen_fixture(fixture)).properties
        columns = MODEL_REGISTRY[fixture]().columns + overrides
        trace = st.integers(1, 8).flatmap(lambda n: st.fixed_dictionaries(
            {c: st.lists(st.sampled_from([0, 1, 2, 3, None]), min_size=n, max_size=n) for c in columns}))
        traces = [Trace(t) for t in data.draw(st.lists(trace, min_size=1, max_size=3))]
        model = _Drawn(MODEL_REGISTRY[fixture](), traces)
        assert check_bundle_on_model([], props, model).entries == one_at_a_time(props, model)

    @settings(max_examples=3, deadline=None)
    @given(n=st.integers(1, 6), rng=st.randoms(use_true_random=False))
    def test_entries_equal_the_one_at_a_time_loop_on_a_drawn_wide_trace(self, n, rng):
        # 240 transactions, 480 groups, 120 ids of 16 values each: one trace over every port and wire.
        props, names = wide_check()
        trace = Trace({c: [rng.choice((0, 1, 2, 3, None)) for _ in range(n)] for c in names})
        model = _Drawn(_OneCycle(), [trace])
        assert check_bundle_on_model([], props, model).entries == one_at_a_time(props, model)

    def test_bodies_of_one_structure_share_code_and_keep_their_names(self, monkeypatch):
        def busy(v, w):
            return Gt(Counter(f"{v}_cnt", Sig(v), Sig(w), 3, "C_MAX_OUTSTANDING", "C_CNT_WIDTH"), 0)

        props = [GeneratedProperty("p_busy", "active_covered", "assert", Implies(busy("v", "w"), Sig("v"))),
                 GeneratedProperty("q_busy", "active_covered", "assert", Implies(busy("x", "y"), Sig("x")))]
        monkeypatch.setattr(tracecheck, "_CODE", {})
        trace = Trace({"v": [1, 0, 0, 0], "w": [0, 0, 0, 1], "x": [0, 1, 0, 0], "y": [0, 0, 1, 1]})
        model = _Drawn(_OneCycle(), [trace])
        entries = check_bundle_on_model([], props, model).entries
        assert len(tracecheck._CODE) == 1
        assert [(e.verdict.outcome, e.verdict.cycle) for e in entries] == [(VIOLATED, 1), (VIOLATED, 2)]
        assert entries == one_at_a_time(props, model)


def structure(value, names=None):
    """What a body's generated source depends on in a check: its node types and flags, and each port or wire by
    the order of its name's first appearance. Other names, id values and numbers are arguments."""
    names = {} if names is None else names
    if type(value) in (Sig, AttribWire):
        return names.setdefault(value.name, len(names))
    if isinstance(value, tuple):
        return (type(value).__name__, *(structure(v, names) for v in value))
    return value if isinstance(value, bool) else None


def connected(props) -> list[list[int]]:
    """The groups a check evaluates together, found by a search: the properties that read the same ids and are
    connected through a node key they share, as lists of indices."""
    ids = [id_names(p.body) for p in props]
    readers = {}
    for i, p in enumerate(props):
        for k in keys(p.body):
            readers.setdefault((ids[i], k), []).append(i)
    seen, groups = set(), []
    for i in range(len(props)):
        if i in seen:
            continue
        seen.add(i)
        todo, group = [i], []
        while todo:
            j = todo.pop()
            group.append(j)
            fresh = {m for k in keys(props[j].body) for m in readers[ids[j], k]} - seen
            seen |= fresh
            todo += fresh
        groups.append(sorted(group))
    return groups


def columns_read(node) -> set[str]:
    """The names of the ports and verbatim wires below a node."""
    if type(node) in (Sig, AttribWire):
        return {node.name}
    return set().union(*map(columns_read, children(node)))


def wide_properties(**options) -> list[GeneratedProperty]:
    """The properties of a fresh bundle of the 240-transaction wide header of `test_gc`."""
    props = generate_bundle(wide_header(240), "wide.sv", GenOptions(tool="both", **options)).properties
    assert len(props) == 2040
    return props


@functools.cache
def wide_check() -> tuple[list[GeneratedProperty], list[str]]:
    """The wide header's properties, made once, and the ports and wires they read."""
    props = wide_properties()
    return props, sorted(set().union(*(columns_read(p.body) for p in props)))


def fresh_check(bundle: str):
    """The properties of a fresh bundle, and the model they are checked on: a fixture's, or one trace over every
    port and wire of the 240-transaction wide header of `test_gc`."""
    if bundle in MODEL_REGISTRY:
        return gen_fixture(bundle).properties, MODEL_REGISTRY[bundle]()
    props = wide_properties(bounded=3)
    names = set().union(*(columns_read(p.body) for p in props))
    return props, _Drawn(_OneCycle(), [Trace({n: [1, 0, 1] for n in names})])


@pytest.mark.parametrize("bundle, compiled", [("noc_buffer", 2), ("pipeline", 2), ("fifo", 1), ("wide", 3)])
def test_a_check_compiles_one_code_object_per_body_structure(monkeypatch, bundle, compiled):
    # A group's source depends on its members' structures together, each port or wire numbered across the group.
    monkeypatch.setattr(tracecheck, "_CODE", {})
    props, model = fresh_check(bundle)
    check_bundle_on_model([], props, model)
    shapes = {structure(tuple(props[i].body for i in group)) for group in connected(props)}
    assert len(tracecheck._CODE) == len(shapes) == compiled
    check_bundle_on_model([], *fresh_check(bundle))
    assert len(tracecheck._CODE) == compiled


class _NoTrace(_OneCycle):
    """A model without traces: a check of it plans and renders, and evaluates nothing."""

    def traces(self):
        return []


def planned(props) -> list[tuple]:
    """The groups a fresh monitor of `props`' bodies renders, in order: each group's bodies, and the reader counts and
    the column list its loop is rendered with."""
    counts, init = [], tracecheck._Source.__init__
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tracecheck._Source, "__init__", lambda self, reads: counts.append(reads) or init(self, reads))
        monitor = tracecheck.Monitor(tuple(p.body for p in props))
    return [(tuple(props[i].body for i in members), reads, columns)
            for (members, _, columns, _), reads in zip(monitor.groups, counts, strict=True)]


def assert_planned_as_searched(props) -> None:
    """The monitor's groups are `connected()`'s, and each group is rendered with the reader counts that walking its
    own bodies gives, and reads the columns of its own bodies."""
    made = planned(props)
    assert [[id(b) for b in bodies] for bodies, _, _ in made] == [[id(props[i].body) for i in g]
                                                                    for g in connected(props)]
    for bodies, reads, columns in made:
        own = reader_counts(bodies)
        assert {k: reads[k] for k in own} == own
        assert sorted(columns) == sorted(k for k in own if isinstance(k, str))


LEAVES = (Sig("a"), Sig("b"), Sig("c"), AttribWire("w", "a & b"), Symbolic("s", "[1:0]"), Symbolic("t", ""))
# Each derived node's maker, over the `k`-th new node and a draw of an earlier node.
MAKERS = (
    lambda k, x: Not(x()), lambda k, x: And(x(), x()), lambda k, x: Or((x(), x(), x())), lambda k, x: Eq(x(), x()),
    lambda k, x: Gt(x(), 0), lambda k, x: Handshake(f"h{k}", x()), lambda k, x: Stable((x(), x())),
    lambda k, x: IsUnknown((x(),)), lambda k, x: Counter(f"n{k}", x(), x(), 3, "L", "W"),
    lambda k, x: Inflight(f"f{k}", x(), x()), lambda k, x: Sampled(f"d{k}", x(), x(), "[7:0]"),
)
# Each body's maker over draws of nodes.
TOPS = (lambda x: x(), lambda x: Implies(x(), x()), lambda x: Implies(x(), x(), True),
        lambda x: Implies(x(), Eventually(x())), lambda x: CoverSeq(x(), x(), 2))


@st.composite
def shared_properties(draw) -> list[GeneratedProperty]:
    """Properties whose bodies share nodes: each derived node is made over earlier ones, each body over any."""
    pool = list(LEAVES)

    def node():
        return draw(st.sampled_from(pool))

    for k in range(draw(st.integers(0, 12))):
        pool.append(draw(st.sampled_from(MAKERS))(k, node))
    tops = draw(st.lists(st.sampled_from(TOPS), min_size=1, max_size=8))
    return [GeneratedProperty(f"p{i}", "xprop", "assert", make(node)) for i, make in enumerate(tops)]


def covering_properties() -> list[GeneratedProperty]:
    """A handshake first read by a body that reads an id, then by one that reads none; a column that two
    transactions read; a body that reads two ids, before and after its one-id kin."""
    s, t, share, other = Symbolic("s", "[1:0]"), Symbolic("t", "[0:0]"), Sig("share"), Sig("other")
    hsk, busy = Handshake("h", And(Sig("v"), share)), Handshake("g", And(other, share))
    bodies = [Implies(hsk, Eq(Sig("id"), s)), Implies(hsk, Eventually(Sig("r"))), Not(busy),
              Implies(And(hsk, Eq(Sig("id"), s)), Eq(Sig("id2"), t)), Implies(Eq(Sig("id"), s), Not(hsk))]
    return [GeneratedProperty(f"p{i}", "xprop", "assert", body) for i, body in enumerate(bodies)]


def test_the_covering_properties_cover_what_they_say():
    props = covering_properties()
    ids = [id_names(p.body) for p in props]
    assert ids == [("s",), (), (), ("s", "t"), ("s",)]
    hsk = props[0].body.ant
    assert all(id(hsk) in keys(props[i].body) for i in (0, 1, 3, 4))  # one handshake, read under three id sets
    assert "share" in keys(props[1].body) and "share" in keys(props[2].body)  # two transactions, one column
    assert connected(props) == [[0, 4], [1, 2], [3]]


@settings(max_examples=200, deadline=None)
@given(props=shared_properties())
def test_the_plan_groups_and_counts_as_a_search_does(props):
    assert_planned_as_searched(props)


@settings(max_examples=200, deadline=None)
@given(props=shared_properties(), data=st.data())
def test_a_body_alone_ends_as_it_does_in_a_group(props, data):
    # Alone, a body's first violation ends its loop; in a group, a member keeps its first violation and the loop runs
    # on for the others. Each body gives one outcome and cycle alone, in its monitor group and in one loop of all.
    bodies, n = tuple(p.body for p in props), data.draw(st.integers(1, 6))
    # 0 and 1 only: an unknown value may reach a node that no bundle puts over a column, such as `Gt`.
    columns = {leaf.name: tuple(data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
               for leaf in LEAVES}
    window = data.draw(st.sampled_from([None, 0, 1, 3]))
    alone = [tracecheck.Monitor((body,)).run(columns, n, window) for body in bodies]
    grouped = {}
    for members, run, *_ in tracecheck.Monitor(bodies).groups:
        out = run(columns, n, window)
        grouped.update((i, out[2 * k:2 * k + 2]) for k, i in enumerate(members))
    assert [grouped[i] for i in range(len(bodies))] == alone
    src = tracecheck._Source(reader_counts(bodies))
    out = src.loop(",".join([src.member(body, False) for body in bodies]))(columns, n, window)
    assert [out[2 * i:2 * i + 2] for i in range(len(bodies))] == alone


@pytest.mark.parametrize("bundle", ["covering", *(f"{name}-{mix}" for name in FIXTURE_NAMES for mix in OPTION_MIXES),
                                    "link", "wide"])
def test_the_plan_groups_and_counts_as_a_search_does_on_bundles(bundle):
    props = covering_properties() if bundle == "covering" else wide_check()[0] if bundle == "wide" else \
        EMITTED[bundle]().properties
    assert_planned_as_searched(props)


def misplaced_ids(body) -> tuple[int, list]:
    """How many times `body` compares a symbolic id, and each node holding one elsewhere: anywhere but as an operand
    of `Eq` whose other operand is a read column, a port or a verbatim wire."""
    compared, misplaced, seen, todo = 0, [body] if type(body) is Symbolic else [], set(), [body]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        below = children(node)
        for k, child in enumerate(below):
            if type(child) is Symbolic:
                if type(node) is Eq and type(below[1 - k]) in (Sig, AttribWire):
                    compared += 1
                else:
                    misplaced.append(node)
        todo += below
    return compared, misplaced


def test_misplaced_ids_finds_an_id_outside_a_column_compare():
    s, v, h = Symbolic("s", "[1:0]"), Sig("v"), Handshake("h", Sig("v"))
    assert misplaced_ids(Implies(v, Eq(AttribWire("w", "a"), s))) == (1, [])
    for bad in (Not(s), Eq(s, h), Eq(s, Symbolic("t", "[1:0]")), Stable((s,)), IsUnknown((v, s)), Gt(s, 0)):
        assert {id(node) for node in misplaced_ids(Implies(v, bad))[1]} == {id(bad)}
    assert misplaced_ids(s) == (0, [s])


@pytest.mark.parametrize("bundle", [*(f"{name}-{mix}" for name in FIXTURE_NAMES for mix in OPTION_MIXES), "link",
                                    "wide"])
def test_a_symbolic_id_is_only_compared_against_a_read_column(bundle):
    # The rule that makes every value no column carries give one verdict: an id enters a body only through
    # `Eq(column, id)`, so a value no column holds makes that `Eq` false in every cycle. A new kind must keep it.
    props = wide_check()[0] if bundle == "wide" else EMITTED[bundle]().properties
    found = [misplaced_ids(p.body) for p in props]
    assert [(p.name, bad) for p, (_, bad) in zip(props, found) if bad] == []
    assert sum(compared for compared, _ in found) > 0 or not any(map(id_names, (p.body for p in props)))


@pytest.mark.parametrize("bundle", ["noc_buffer", "pipeline", "covering", "wide"])
def test_a_fresh_check_walks_each_node_once_per_id_set(monkeypatch, bundle):
    # The ids pass walks below each derived node once, and the reader count once per id set that reaches it;
    # rendering walks nothing, so the counts of the second walk are what each evaluator is made with.
    props, model = (covering_properties(), _NoTrace()) if bundle == "covering" else fresh_check(bundle)
    walked, counted, below, count = [], [], tracecheck.children, tracecheck.count
    monkeypatch.setattr(tracecheck, "children", lambda node: walked.append(node) or below(node))
    monkeypatch.setattr(tracecheck, "count", lambda *args: counted.append(args[0]) or count(*args))
    check_bundle_on_model([], props, model)
    reached = {}
    for p in props:
        for k in keys(p.body):
            if isinstance(k, int):
                reached.setdefault(k, set()).add(id_names(p.body))
    walks = collections.Counter(id(node) for node in walked if type(node) not in (Sig, AttribWire, Symbolic))
    assert walks == {k: 1 + len(sets) for k, sets in reached.items()}
    assert counted == [p.body for p in props]  # one walk per body by the monitor, none to render


@pytest.mark.parametrize("fixture", sorted(MODEL_REGISTRY))
def test_evaluation_leaves_the_traces_alone(fixture):
    model, props = MODEL_REGISTRY[fixture](), gen_fixture(fixture).properties
    traces = model.traces()
    ids = {name for p in props for name in id_names(p.body)}
    traces += [t.extended({name: [1] * t.length for name in ids}) for t in traces]
    before = [{name: (col, list(col)) for name, col in t.columns.items()} for t in traces]
    check_bundle_on_model([], props, _Drawn(model, traces[:model.n_traces]))
    for t in traces[model.n_traces:]:
        for p in props:
            eval_property(p, t)
    assert [{name: (col, list(col)) for name, col in t.columns.items()} for t in traces] == before
    assert all(t.columns[name] is col for t, cols in zip(traces, before) for name, (col, _) in cols.items())


def test_model_check_bench_runs_at_tiny_size(tmp_path):
    # The model-check half of the before/after script, with this checkout on both sides so that both packages load.
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(REPO / "bench" / "evaluator.py"), "--src", str(REPO / "src"), "--rounds", "2",
                    "--max-len", "2", "--traces", "1", "--drive", "10", "--wide", "4", "--out", str(out)],
                   capture_output=True, text=True, check=True)
    report = json.loads(out.read_text())
    for side in ("before", "after"):
        assert set(report[side]["models"]) == {"oracle_size", "default_size", "wide"}
        for config, checks in report[side]["models"].items():
            assert set(checks) == ({"first_check", "re_check"} if config == "wide" else set(MODEL_REGISTRY))
            assert all(set(m) == {"median_ms", "q1_ms", "q3_ms", "code_objects", "entries"}
                       for m in checks.values())
        # 4 transactions, 34 properties: 22 read no id, and 12 read a 4-bit id, one entry per value.
        assert {m["entries"] for m in report[side]["models"]["wide"].values()} == {22 + 12 * 16}
        # The model draws alone, per model, at both sizes.
        assert {c: set(m) for c, m in report[side]["model_traces"].items()} == {
            c: set(MODEL_REGISTRY) for c in ("oracle_size", "default_size")}
        assert all(set(t) == {"median_ms", "q1_ms", "q3_ms"} for m in report[side]["model_traces"].values()
                   for t in m.values())
    for config in ("oracle_size", "default_size"):
        assert [report[side]["models"][config]["noc_buffer"]["code_objects"] for side in ("before", "after")] == [2, 2]
    assert set(report["paired_after_over_before"]) == set(report["after_over_before"])
    assert {"default_size/noc_buffer", "oracle_size/noc_buffer", "wide/first_check", "wide/re_check",
            "model_traces/oracle_size/noc_buffer", "model_traces/default_size/pipeline"} <= set(
        report["after_over_before"])
