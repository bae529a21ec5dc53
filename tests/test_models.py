import hashlib

import pytest

from autoft.models import (
    MODEL_REGISTRY,
    FifoModel,
    NocBufferModel,
    PipelineModel,
    check_bundle_on_model,
)
from autoft.diagnostics import SymbolicWidthError
from autoft.properties import GeneratedProperty
from autoft.sva import Eq, Implies, Sig, Symbolic
from autoft.tracecheck import HOLDS, VACUOUS, VIOLATED, Trace

from conftest import gen_fixture


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
                         "7a3340203999c5de5af043685357c7c08704efaf10a5f4fc338398dd35c3b942"),
    "pipeline": (MODEL_REGISTRY["pipeline"],
                 "6fcd41d853565e8ddda4848d55d9af8083514442820fa0ae7aca7329114195b7"),
    "pipeline_double_issue": (lambda: PipelineModel(double_issue=True),
                              "40c6c9490246d1ca90ddc3fe69fbd76db6e9f13e357a49b5d54b0f5ad303e0d0"),
    # The oracle benchmark's size: more and longer traces.
    "noc_buffer_buggy_long": (lambda: NocBufferModel(buggy=True, n_traces=12, drive=100, tail=20),
                              "5514874e102f7b3bf916bd816422b605a1100811a3c828904d4577d7ee156688"),
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
        names = {e.property_name for e in report.violated()}
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
