"""The four benchmark workloads, run untraced, with their correctness checks.

Every workload is a closed loop with one client: one operation at a time, at
most one `autoft` process alive. A run is a fixed number of whole rounds,
each round every input once in a fixed order, so both sides of a comparison
do the same work and take their tails at the same rank. Each workload fixes
its number of rounds for the benchmark's 25-second runs, and `--seconds`
scales it.

Each end-to-end metric is reported on every workload. A workload measures the
operations it is built for ("own"); a metric whose operation it does not run
comes from a small probe of fixed inputs that runs between its own operations
(in-process `check` of the four modelled fixtures, in-process `link`, and a
slice of the exhaustive trace spaces), after every own operation (every
fourth on oracle). See README.md for the full table.

A round is one list of `Op` descriptors, made by `round_ops`; the untraced
run here (`Untraced`) and the traced run in `layers.py` (`Traced`) execute
that same list, each with its own method per kind of operation.

Times are reported in reference-machine units. The host's speed drifts by a
third within minutes, for every program alike, so each timed operation is
preceded by a calibration: a fixed pure-Python kernel for in-process work, a
`python -c pass` process for `autoft` processes. A time is divided by the
slowdown against the reference value, taken as the median of the nine
calibrations of its kind around the sample. The raw medians and the
slowdowns are printed beside the result.
"""
from __future__ import annotations

import contextlib
import gc
import importlib
import io
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
FIXTURES = ROOT / "fixtures"
GOLDEN = TESTS / "golden"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
WORK = HERE / "_work"

FIXTURE_NAMES = ("fifo", "pipeline", "noc_buffer", "noc_buffer_buggy", "mmu_stub")
MODELLED = ("fifo", "noc_buffer", "noc_buffer_buggy", "pipeline")
EXPECTED_VIOLATED = {"noc_buffer_buggy": {"liveness"}}
# The console script's body, so a process does exactly what `autoft` does.
ENTRY = "import sys; from autoft.cli import main; sys.exit(main())"
SETUP_REPEATS = 9
PROBE_SPACE = 300  # traces per differential case in the probe slice, at most
PROC_TIMEOUT_S = 60
MAX_RUN_S = 120
RUN_SECONDS = 25  # run length the workloads' round counts are chosen for
# Calibration times on the reference machine (2 cores, Python 3.11).
REF_KERNEL_S = 0.0036
REF_FLOOR_S = 0.077
CALIBRATION_WINDOW = 4  # calibrations on each side of a sample that scale it

END_TO_END_UNITS = {
    "gen_p50_ms": "ms", "check_p50_ms": "ms", "link_p50_ms": "ms", "cli_tail_ms": "ms",
    "txn_per_s": "1/s", "src_mb_per_s": "MB/s", "file_tail_ms": "ms", "traces_per_s": "1/s",
    "model_check_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}


def require_checkout() -> list[str]:
    """Paths of the program the benchmark needs that are missing."""
    needed = [SRC / "autoft" / "cli.py", TESTS / "differential.py", TESTS / "naive_checkers.py",
              REFERENCE / "link", *(FIXTURES / f"{n}.sv" for n in FIXTURE_NAMES),
              *(GOLDEN / n for n in (*FIXTURE_NAMES, "pipeline_assert_inputs"))]
    return [str(p.relative_to(ROOT)) for p in needed if not p.exists()]


class Autoft:
    """autoft's modules and the differential harness, imported on first use."""

    def __getattr__(self, name: str):
        module = importlib.import_module(name if name == "differential" else f"autoft.{name}")
        setattr(self, name, module)
        return module


def fresh_import() -> Autoft:
    """Import `autoft.cli` anew, as a fresh process would."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("autoft", "differential", "naive_checkers"):
            del sys.modules[name]
    for path in (str(SRC), str(TESTS)):
        if path not in sys.path:
            sys.path.insert(0, path)
    af = Autoft()
    af.cli  # noqa: B018 - the import is the point
    return af


def child_env() -> dict[str, str]:
    """Environment for an `autoft` process running the checkout's sources."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, AUTOFT_COLOR="0", PYTHONPATH=path)


_KERNEL_TEXT = " ".join(f"tok{i} = val{i % 13}; // c{i}" for i in range(1500))
_KERNEL_RE = re.compile(r"(\w+) = (\w+);")


def _kernel() -> int:
    """Fixed pure-Python work, in the mix autoft does: regex, strings, dicts, small objects."""
    rows = [(m.group(1), m.group(2)) for m in _KERNEL_RE.finditer(_KERNEL_TEXT)]
    groups: dict[str, list[str]] = {}
    for a, b in rows:
        groups.setdefault(b, []).append(a)
    joined = sorted((len(v), k, ",".join(v)) for k, v in groups.items())
    objs = [{"name": a, "val": b, "i": i} for i, (a, b) in enumerate(rows)]
    return len(joined) + sum(len(o["name"]) for o in objs)


def kernel_slowdown() -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best / REF_KERNEL_S


def floor_ms() -> float:
    """Wall time of one `python -c pass` process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, timeout=PROC_TIMEOUT_S, check=True)
    return (time.perf_counter() - t0) * 1000.0


def read_tree(path: Path) -> dict[str, bytes]:
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n).

    With ten samples or fewer no such percentile exists and the maximum is
    reported as percentile 100.
    """
    n = len(values)
    ordered = sorted(values)
    if n <= 10:
        return ordered[-1], 100.0, n
    rank = n - 10  # 1-based; exactly ten samples lie above it
    return ordered[rank - 1], 100.0 * rank / n, n


class Recorder:
    """Samples per (origin, family), failures, and the calibrations they are scaled by."""

    def __init__(self):
        # (origin, family) -> [(measured ms, calibration kind, calibration index)]
        self.raw: dict[tuple[str, str], list[tuple[float, str, int]]] = defaultdict(list)
        self.traces: dict[str, list[tuple[int, float, int]]] = defaultdict(list)  # (verdicts, busy s, index)
        self.count: Counter = Counter()
        self.slowdowns: dict[str, list[float]] = {"inproc": [], "proc": []}
        self.floor: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def calibrate(self, proc: bool = False) -> None:
        self.slowdowns["inproc"].append(kernel_slowdown())
        if proc:
            self.floor.append(floor_ms())
            self.slowdowns["proc"].append(self.floor[-1] / 1000.0 / REF_FLOOR_S)

    def add(self, origin: str, family: str, ms: float, proc: bool = False) -> None:
        kind = "proc" if proc else "inproc"
        self.raw[origin, family].append((ms, kind, len(self.slowdowns[kind]) - 1))

    def add_traces(self, origin: str, n: int, busy_s: float) -> None:
        self.traces[origin].append((n, busy_s, len(self.slowdowns["inproc"]) - 1))

    def slowdown(self, kind: str, i: int) -> float:
        """Slowdown for a sample taken after calibration `i`.

        One calibration is a noisy estimate of the speed during the operation
        that follows it, so a sample uses the median of the calibrations of
        its kind around its own.
        """
        return statistics.median(self.slowdowns[kind][max(0, i - CALIBRATION_WINDOW):i + CALIBRATION_WINDOW + 1])

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def origin(self, family: str) -> str:
        return "own" if self.raw["own", family] else "probe"

    def pick(self, family: str, scaled: bool = True) -> list[float]:
        samples = self.raw[self.origin(family), family]
        return [ms / self.slowdown(kind, i) if scaled else ms for ms, kind, i in samples]

    def trace_rate(self) -> tuple[float, int]:
        """Verdicts per scaled second, and the verdict count."""
        samples = self.traces["own"] or self.traces["probe"]
        n = sum(v for v, _, _ in samples)
        return n / sum(busy / self.slowdown("inproc", i) for _, busy, i in samples), n


def timed(fn, *args):
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - t0) * 1000.0


def run_cli(af, argv: list[str]) -> tuple[int, str]:
    """`autoft.cli.main` in this process: exit code and standard error; standard output is dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = af.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, err.getvalue()


def run_process(argv: list[str]) -> tuple[int, str, float]:
    """`autoft <argv>` as a fresh process: exit code, standard error and wall ms."""
    gc.collect()
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", ENTRY, *argv], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=PROC_TIMEOUT_S)
    return done.returncode, done.stderr, (time.perf_counter() - t0) * 1000.0


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    return path


def kind_counts(prop_text: str) -> Counter:
    """Generated property count per kind, read off the property names."""
    names = set(re.findall(r"^\s*(t\d{4}_\w+): (?:assert|assume|cover) property", prop_text, re.M))
    out: Counter = Counter()
    for name in names:
        kind = name[6:]
        out["xprop" if kind.startswith("xprop_") else kind] += 1
    return out


def check_ok(fixture: str, rc: int, stderr: str) -> bool:
    """`autoft check` exits 1 with exactly the expected kinds violated, or 0 with none."""
    want = EXPECTED_VIOLATED.get(fixture, set())
    return rc == (1 if want else 0) and set(re.findall(r"\[(\w+), trace \d+", stderr)) == want


def space_size(case, max_len: int) -> int:
    per_cycle = 1
    for domain in case.signals.values():
        per_cycle *= len(domain)
    return sum(per_cycle ** k for k in range(1, max_len + 1))


def probe_len(case) -> int:
    fits = [k for k in range(1, case.max_len + 1) if space_size(case, k) <= PROBE_SPACE]
    return fits[-1] if fits else 1


def eval_space(af, case, max_len: int, wrap=None) -> tuple[int, int, float]:
    """Verdicts on every trace of a differential space: (traces, mismatches, busy s).

    Only building each trace and evaluating it is timed; the naive checker's
    verdict is computed outside the timed part and compared. `wrap(layer, fn)`,
    if given, replaces each evaluator call by a traced one.
    """
    tc = af.tracecheck
    step, extend, evaluate = next, tc.Trace.extended, tc.eval_property
    if wrap:
        step, extend = wrap("tracecheck.trace_build", step), wrap("tracecheck.trace_build", extend)
        evaluate = wrap("tracecheck.eval", evaluate)
    prop = case.prop()
    widths = {name: 1 for name in case.signals}
    it = tc.enumerate_traces(widths, max_len, domains=dict(case.signals))
    clock = time.perf_counter
    n = wrong = 0
    busy = 0.0
    gc.collect()
    while True:
        t0 = clock()
        base = step(it, None)
        if base is None:
            break
        trace = extend(base, {k: make(base.length) for k, make in case.extra.items()}) if case.extra else base
        verdict = evaluate(prop, trace)
        busy += clock() - t0
        n += 1
        if (verdict.outcome, verdict.cycle) != case.naive_fn(trace.columns):
            wrong += 1
    return n, wrong, busy


def space_ok(case, max_len: int, n: int, wrong: int) -> bool:
    """Every trace of the space was evaluated, each to the naive checker's verdict."""
    return wrong == 0 and n == space_size(case, max_len)


@dataclass(frozen=True)
class Op:
    """One operation of a round. The untraced and the traced run execute the same list.

    `kind` names the executor method that runs it: `Untraced` here,
    `layers.Traced` for the traced run.
    """

    label: str
    kind: str  # gen | check | link | model_check | spaces
    origin: str = "own"  # "probe": a stand-in for a family the workload lacks
    proc: bool = False  # a fresh `autoft` process in the untraced run, in-process when traced
    name: str = ""  # gen: the module, whose directory `gen` writes; check, model_check: the fixture
    argv: tuple[str, ...] = ()  # gen, check, link: the command line without `-o`
    txns: int = 0  # gen: transactions in the input
    src_bytes: int = 0  # gen: size of the input
    verify: Callable[[dict[str, bytes]], bool] | None = None  # gen: the files written -> ok
    model: Callable | None = None  # model_check: makes the reference model
    cases: tuple = ()  # spaces: (differential case, longest trace) pairs


LINK_ARGV = ("link", str(FIXTURES / "mmu_stub.sv"), "--child", f"{FIXTURES / 'pipeline.sv'}=am,as")


class Probe:
    """Fixed small inputs that stand in for the families a workload lacks."""

    def __init__(self, af, families: tuple[str, ...]):
        self.af, self.families = af, families
        self.sources = {n: (FIXTURES / f"{n}.sv").read_text(encoding="utf-8") for n in FIXTURE_NAMES}
        self.bundles = {n: self.generate(n) for n in MODELLED}
        self.link_ref = read_tree(REFERENCE / "link")
        self.slice = tuple((c, probe_len(c)) for c in af.differential.CASES)

    def generate(self, name: str):
        return self.af.emit.generate_bundle(self.sources[name], str(FIXTURES / f"{name}.sv"),
                                            self.af.options.GenOptions())

    def ops(self) -> list[Op]:
        ops = []
        if "check" in self.families:
            ops += [Op(f"probe check {n}", "check", "probe", name=n, argv=("check", str(FIXTURES / f"{n}.sv")))
                    for n in MODELLED]
        elif "model_check" in self.families:
            ops += [Op(f"probe model check {n}", "model_check", "probe", name=n,
                       model=self.af.models.MODEL_REGISTRY[n]) for n in MODELLED]
        if "link" in self.families:
            ops.append(Op("probe link", "link", "probe", argv=LINK_ARGV))
        if "traces" in self.families:
            ops.append(Op("probe traces", "spaces", "probe", cases=self.slice))
        return ops


class Untraced:
    """Runs each operation once, timed, and records its samples; returns whether it passed its check."""

    def __init__(self, wl, rec: Recorder):
        self.af, self.probe, self.rec = wl.af, wl.probe, rec

    def call(self, op: Op, argv: list[str]) -> tuple[int, str, float]:
        if op.proc:
            return run_process(argv)
        (rc, err), ms = timed(run_cli, self.af, argv)
        return rc, err, ms

    def gen(self, op: Op) -> bool:
        out = fresh_dir("out")
        rc, _, ms = self.call(op, [*op.argv, "-o", str(out)])
        self.rec.add(op.origin, "gen", ms, proc=op.proc)
        self.rec.count[f"{op.origin}_gen_txns"] += op.txns
        self.rec.count[f"{op.origin}_gen_bytes"] += op.src_bytes
        return rc == 0 and op.verify(read_tree(out / op.name))

    def check(self, op: Op) -> bool:
        if op.proc:
            rc, err, ms = self.call(op, list(op.argv))
            self.rec.add(op.origin, "check", ms, proc=True)
            return check_ok(op.name, rc, err)
        # In process, generation and the model run are timed apart, so one
        # check also gives a gen sample and a model-check sample.
        bundle, gen_ms = timed(self.probe.generate, op.name)
        self.rec.add(op.origin, "gen", gen_ms)
        self.rec.count[f"{op.origin}_gen_txns"] += len(bundle.transactions)
        self.rec.count[f"{op.origin}_gen_bytes"] += len(self.probe.sources[op.name].encode())
        model = self.af.models.MODEL_REGISTRY[op.name]()
        report, check_ms = timed(self.af.models.check_bundle_on_model, bundle.transactions, bundle.properties, model)
        self.rec.add(op.origin, "model_check", check_ms)
        self.rec.add(op.origin, "check", gen_ms + check_ms)
        return report.violated_kinds() == model.expected_violated_kinds

    def link(self, op: Op) -> bool:
        out = fresh_dir("out")
        rc, _, ms = self.call(op, [*op.argv, "-o", str(out)])
        self.rec.add(op.origin, "link", ms, proc=op.proc)
        return rc == 0 and read_tree(out) == self.probe.link_ref

    def model_check(self, op: Op) -> bool:
        bundle, model = self.probe.bundles[op.name], op.model()
        report, ms = timed(self.af.models.check_bundle_on_model, bundle.transactions, bundle.properties, model)
        self.rec.add(op.origin, "model_check", ms)
        return report.violated_kinds() == model.expected_violated_kinds

    def spaces(self, op: Op) -> bool:
        ok = True
        for case, max_len in op.cases:
            n, wrong, busy = eval_space(self.af, case, max_len)
            self.rec.add_traces(op.origin, n, busy)
            ok &= space_ok(case, max_len, n, wrong)
        return ok


# ---------------------------------------------------------------------------
# Workloads: setup(seed, af) prepares the inputs and makes one warm-up call,
# returning the seconds spent in `autoft` processes; ops() lists one round's
# own operations.


class CliFixtures:
    """Fresh `autoft` processes on the bundled fixtures, as a user types them."""

    name = "cli-fixtures"
    processes = True
    probe_families = ("model_check", "traces")
    probe_every = 1
    rounds = 5  # about 5 s a round

    def setup(self, seed: int, af) -> float:
        self.golden = {n: read_tree(GOLDEN / n) for n in (*FIXTURE_NAMES, "pipeline_assert_inputs")}
        rc, err, ms = run_process(["gen", str(FIXTURES / "fifo.sv"), "--tool", "both", "-o", str(WORK / "warm")])
        if rc != 0:
            raise RuntimeError(f"warm-up `autoft gen` failed: {err}")
        return ms / 1000.0

    def gen_op(self, name: str, golden: str, *flags: str) -> Op:
        path = FIXTURES / f"{name}.sv"
        return Op(f"gen {name} {' '.join(flags)}".rstrip(), "gen", proc=True, name=name,
                  argv=("gen", str(path), "--tool", "both", *flags), txns=len(inputs.FIXTURE_TXNS[name]),
                  src_bytes=path.stat().st_size,
                  verify=lambda tree, want=self.golden[golden]: all(tree.get(f) == d for f, d in want.items()))

    def ops(self) -> list[Op]:
        # `link` runs twice a round, so its median rests on ten samples a run, not five.
        link = Op("link mmu_stub", "link", proc=True, argv=LINK_ARGV)
        ops = [self.gen_op(n, n) for n in FIXTURE_NAMES]
        ops.append(self.gen_op("pipeline", "pipeline_assert_inputs", "--assert-inputs"))
        ops.append(link)
        ops += [Op(f"check {n}", "check", proc=True, name=n, argv=("check", str(FIXTURES / f"{n}.sv")))
                for n in MODELLED]
        ops.append(link)
        return ops

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class InProcessGen:
    """In-process `autoft.cli.main(["gen", ...])` on seeded synthetic files."""

    processes = False
    probe_families = ("check", "link", "model_check", "traces")
    probe_every = 1

    def __init__(self, name: str, make_files, rounds: int):
        self.name = name
        self.make_files = make_files
        self.rounds = rounds

    def setup(self, seed: int, af) -> float:
        self.files = self.make_files(seed)
        indir = WORK / self.name
        indir.mkdir(parents=True)
        self.paths = {}
        for f in self.files:
            self.paths[f.name] = indir / f"{f.name}.sv"
            self.paths[f.name].write_text(f.text, encoding="utf-8")
        self.first_output: dict[str, dict[str, bytes]] = {}
        smallest = min(self.files, key=lambda f: len(f.text))
        run_cli(af, ["gen", str(self.paths[smallest.name]), "--tool", "both", "-o", str(WORK / "warm")])
        return 0.0

    def verify(self, f, written: dict[str, bytes]) -> bool:
        """Expected count per property kind, a whole module, and the same bytes on every repeat."""
        prop = written.get(f"{f.name}_prop.sv", b"").decode()
        first = self.first_output.setdefault(f.name, written)
        return written == first and prop.endswith("endmodule\n") and kind_counts(prop) == f.expected

    def ops(self) -> list[Op]:
        return [Op(f"gen {f.name}", "gen", name=f.name, argv=("gen", str(self.paths[f.name]), "--tool", "both"),
                   txns=f.txns, src_bytes=len(f.text.encode()), verify=lambda tree, f=f: self.verify(f, tree))
                for f in self.files]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Oracle:
    """The trace evaluator alone: exhaustive differential spaces and long model traces."""

    name = "oracle"
    processes = False
    probe_families = ("check", "link")
    # 28 own operations a round: probing after each would put the tails of the
    # small probe operations at p97, where rare host hiccups decide them.
    probe_every = 4
    rounds = 3  # about 8 s a round

    def setup(self, seed: int, af) -> float:
        models = af.models
        # More and longer traces than `autoft check` uses, so per-cycle work dominates.
        self.models = {
            "fifo": lambda: models.FifoModel(n_traces=12, drive=100, tail=12),
            "noc_buffer": lambda: models.NocBufferModel(buggy=False, n_traces=12, drive=100, tail=20),
            "noc_buffer_buggy": lambda: models.NocBufferModel(buggy=True, n_traces=12, drive=100, tail=20),
            "pipeline": lambda: models.PipelineModel(n_traces=12, drive=100, tail=12),
        }
        self.cases = list(af.differential.CASES)
        case = min(self.cases, key=lambda c: space_size(c, c.max_len))
        eval_space(af, case, case.max_len)  # warm-up
        return 0.0

    def ops(self) -> list[Op]:
        ops = [Op(f"space {c.name}", "spaces", cases=((c, c.max_len),)) for c in self.cases]
        ops += [Op(f"model check {n}", "model_check", name=n, model=self.models[n]) for n in MODELLED]
        return ops

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {
    "cli-fixtures": CliFixtures,
    # With five files a round, 6 and 7 rounds put the tail rank (ten samples
    # from the top) inside a size class rather than at its slowest sample.
    "gen-wide": lambda: InProcessGen("gen-wide", inputs.wide_files, rounds=6),  # about 5 s a round
    "gen-deep": lambda: InProcessGen("gen-deep", inputs.deep_files, rounds=7),  # about 3 s a round
    "oracle": Oracle,
}


def round_ops(wl) -> list[Op]:
    """One round: each own operation in order, the probe after every `probe_every` of them."""
    probes = wl.probe.ops()
    ops = []
    for k, op in enumerate(wl.ops(), 1):
        ops.append(op)
        if k % wl.probe_every == 0:
            ops += probes
    return ops


def set_up(wl, seed: int, repeats: int = SETUP_REPEATS) -> list[float]:
    """Set `wl` up `repeats` times from scratch; each set-up's time in reference seconds.

    Time spent in `autoft` processes is scaled by the `python -c pass` floor,
    the rest by the in-process kernel, each by the median of the calibrations
    taken before every set-up and after the last.
    """
    kernel, floor, raw = [], [], []

    def calibrate():
        kernel.append(kernel_slowdown())
        if wl.processes:
            floor.append(floor_ms() / 1000.0 / REF_FLOOR_S)

    for _ in range(repeats):
        gc.collect()
        calibrate()
        t0 = time.perf_counter()
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        af = fresh_import()
        proc_s = wl.setup(seed, af)
        wl.af, wl.probe = af, Probe(af, wl.probe_families)
        raw.append((time.perf_counter() - t0 - proc_s, proc_s))
    calibrate()
    k = statistics.median(kernel)
    f = statistics.median(floor) if floor else 1.0
    return [inproc / k + proc / f for inproc, proc in raw]


def run(name: str, seed: int, seconds: float) -> dict:
    """Run one workload untraced; returns the result object."""
    wl = WORKLOADS[name]()
    rec = Recorder()
    rule = inputs.check_rule_on_fixtures()
    rec.op(not rule, f"counting rule on the fixtures: {'; '.join(rule)}")
    setups = set_up(wl, seed)
    # Keep the benchmark's own objects out of every later collection, so a
    # collection costs what it would cost the program alone.
    gc.collect()
    gc.freeze()
    ex = Untraced(wl, rec)
    rounds = max(1, round(wl.rounds * seconds / RUN_SECONDS))
    durations = []
    t_start = time.perf_counter()
    for _ in range(rounds):
        t_round = time.perf_counter()
        for op in round_ops(wl):
            rec.calibrate(proc=op.proc)
            attempt(rec, op.label, lambda: getattr(ex, op.kind)(op))
        durations.append(time.perf_counter() - t_round)
        if time.perf_counter() - t_start > MAX_RUN_S:
            break  # a far slower machine: stop short rather than overrun

    metrics, notes = summarize(rec, wl, setups)
    notes["rounds"] = len(durations)
    notes["round_s"] = [round(d, 2) for d in durations]
    return {"metrics": metrics, "notes": notes, "rec": rec}


def attempt(rec: Recorder, label: str, fn) -> None:
    try:
        ok = fn()
    except Exception as exc:  # a raising operation counts as failed
        ok = False
        label = f"{label}: {type(exc).__name__}: {exc}"
    rec.op(ok, label)


def summarize(rec: Recorder, wl, setups: list[float]) -> tuple[dict, dict]:
    families = ("gen", "check", "link", "model_check")
    gen = rec.pick("gen")
    cli_ops = gen + rec.pick("check") + rec.pick("link")
    g = rec.origin("gen")
    gen_s = sum(gen) / 1000.0
    traces_per_s, verdicts = rec.trace_rate()
    values = {
        "gen_p50_ms": statistics.median(gen),
        "check_p50_ms": statistics.median(rec.pick("check")),
        "link_p50_ms": statistics.median(rec.pick("link")),
        "cli_tail_ms": tail(cli_ops)[0],
        "txn_per_s": rec.count[f"{g}_gen_txns"] / gen_s,
        "src_mb_per_s": rec.count[f"{g}_gen_bytes"] / 1e6 / gen_s,
        "file_tail_ms": tail(gen)[0],
        "traces_per_s": traces_per_s,
        "model_check_p50_ms": statistics.median(rec.pick("model_check")),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    notes = {
        "origin": {f: rec.origin(f) for f in families} | {"traces": "own" if rec.traces["own"] else "probe"},
        "samples": {f: len(rec.pick(f)) for f in families} | {"verdicts": verdicts},
        "raw_p50_ms": {f: round(statistics.median(rec.pick(f, scaled=False)), 3) for f in families},
        "slowdown_p50": {k: round(statistics.median(v), 3) for k, v in rec.slowdowns.items() if v},
        "cli_tail": tail(cli_ops),
        "file_tail": tail(gen),
        "floor": rec.floor,
        "setup_s": [round(s, 3) for s in setups],
    }
    return metrics, notes
