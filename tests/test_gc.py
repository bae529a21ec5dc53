"""The pipeline builds no reference cycles, so `cli.main` may pause the cyclic collector.

`cli.main` disables the collector for the length of a command and restores
the caller's state however the command ends. That is safe only while
generation, model checking and linking leave nothing that reference
counting cannot free: every test here runs them with the collector off and
asserts that a full collection afterwards finds no unreachable object. The
same holds for whole `cli.main` calls after the first, which builds the
argument parser that later calls reuse.
Evaluation keeps the monitor of each body with its property, and a model
check the monitor of a list with the list's first property, and nowhere
else, so repeated evaluation and model checking retain no memory either.
"""
import gc
import tracemalloc

import pytest

from autoft import cli
from autoft.emit import generate_bundle, link_submodule_fts
from autoft.models import MODEL_REGISTRY, NocBufferModel, check_bundle_on_model
from autoft.options import GenOptions
from autoft.properties import GeneratedProperty
from autoft.tracecheck import Trace, eval_property

from conftest import FIXTURE_NAMES, fixture_path, gen_fixture
from headers import wide_header
from test_emit import EMITTED, OPTION_MIXES


@pytest.fixture
def collector(request):
    """Run the test with the collector in the state `request.param`, then restore it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def cyclic_garbage(fn) -> int:
    """Objects a full collection finds unreachable after `fn` ran with the collector off."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        if was:
            gc.enable()


def retained(fn, calls: int) -> int:
    """Bytes still allocated after `calls` more calls of `fn` than after a few calls to warm up."""
    tracemalloc.start()
    try:
        for _ in range(3):
            fn()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(calls):
            fn()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestMainRestoresCollector:
    @pytest.mark.parametrize("collector", [True, False], indirect=True)
    def test_exit_codes(self, collector, tmp_path, capsys):
        bad = tmp_path / "bad.sv"
        bad.write_text("// AUTOSVA t: a -in> b\nmodule m (input wire a_val);\nendmodule\n")
        runs = [
            (["gen", str(fixture_path("fifo")), "-o", str(tmp_path / "o")], 0),
            (["gen", str(bad), "-o", str(tmp_path / "o")], cli.VALIDATION_ERROR),
            (["gen", str(tmp_path / "missing.sv")], cli.USAGE_ERROR),
        ]
        for argv, code in runs:
            assert cli.main(argv) == code
            assert gc.isenabled() is collector
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen"])
        assert exc.value.code == cli.USAGE_ERROR
        assert gc.isenabled() is collector

    @pytest.mark.parametrize("collector", [True, False], indirect=True)
    def test_exception_in_a_command(self, collector, monkeypatch, tmp_path):
        seen = []

        def boom(*args):
            seen.append(gc.isenabled())
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "generate_model", boom)
        with pytest.raises(RuntimeError):
            cli.main(["gen", str(fixture_path("fifo")), "-o", str(tmp_path / "o")])
        assert seen == [False]  # paused while the command ran
        assert gc.isenabled() is collector


def test_cli_calls_leave_no_cycles(tmp_path, capsys):
    bad = tmp_path / "bad.sv"
    bad.write_text("// AUTOSVA t: a -in> b\nmodule m (input wire a_val);\nendmodule\n")
    out = str(tmp_path / "out")
    runs = {f"gen-{n}": ["gen", str(fixture_path(n)), "--tool", "both", "-o", out] for n in FIXTURE_NAMES}
    runs.update({f"check-{n}": ["check", str(fixture_path(n))] for n in FIXTURE_NAMES if n in MODEL_REGISTRY})
    runs["link"] = ["link", str(fixture_path("mmu_stub")), "--child", f"{fixture_path('pipeline')}=am,as", "-o", out]
    runs["invalid"] = ["gen", str(bad), "-o", out]
    # The first call may build what later calls reuse; every call after it must leave nothing to collect.
    assert cli.main(runs["gen-fifo"]) == 0
    codes = {}
    garbage = {label: cyclic_garbage(lambda: codes.setdefault(label, cli.main(argv))) for label, argv in runs.items()}
    capsys.readouterr()
    assert garbage == dict.fromkeys(runs, 0)
    assert codes["invalid"] == codes["check-noc_buffer_buggy"] == cli.VALIDATION_ERROR
    assert codes["link"] == codes["gen-mmu_stub"] == codes["check-fifo"] == 0


@pytest.mark.parametrize("label", EMITTED)
def test_generate_and_link_leave_no_cycles(label):
    assert cyclic_garbage(EMITTED[label]) == 0


@pytest.mark.parametrize("mix", OPTION_MIXES)
@pytest.mark.parametrize("name", [n for n in FIXTURE_NAMES if n in MODEL_REGISTRY])
def test_model_check_leaves_no_cycles(name, mix):
    bundle = EMITTED[f"{name}-{mix}"]()
    assert cyclic_garbage(lambda: check_bundle_on_model(bundle.transactions, bundle.properties,
                                                        MODEL_REGISTRY[name]())) == 0


def test_wide_header_leaves_no_cycles():
    text = wide_header(240)

    def run():
        parent = generate_bundle(text, "wide.sv", GenOptions(tool="both", bounded=3))
        assert len(parent.transactions) == 240
        assert len({id(a.shape) for a in parent.aux}) == 2  # all but two transactions are filled in from templates
        link_submodule_fts(parent, [(gen_fixture("pipeline"), True, True)])

    assert cyclic_garbage(run) == 0


def fresh_evaluations():
    """Every noc_buffer property, each a fresh object, evaluated over one model trace."""
    trace = MODEL_REGISTRY["noc_buffer"]().traces()[0]
    trace = trace.extended({"symb_buf_transid": [1] * trace.length})
    bodies = [(p.name, p.kind, p.directive, p.body) for p in gen_fixture("noc_buffer").properties]
    return lambda: [eval_property(GeneratedProperty(*fields), trace) for fields in bodies]


def test_evaluating_fresh_properties_leaves_no_cycles():
    assert cyclic_garbage(fresh_evaluations()) == 0


def test_evaluating_fresh_properties_retains_nothing():
    # A monitor kept anywhere but on its property would stay behind, one per call.
    assert retained(fresh_evaluations(), 200) < 8_000


def test_repeated_model_checks_retain_nothing():
    props = gen_fixture("noc_buffer").properties
    assert retained(lambda: check_bundle_on_model([], props, NocBufferModel(n_traces=1)), 100) < 8_000
