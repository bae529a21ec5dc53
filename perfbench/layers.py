"""The traced run: the same operations as the untraced run, timed per layer.

The operations are those of `workloads.round_ops`, the list the untraced run
executes; `Traced` has one method per kind of operation. Each runs twice. First the plain call (`autoft.cli.main`, or the
evaluator functions), which gives the untraced wall time and the reference
output. Then a staged copy that calls the public functions of `parser`,
`transactions`, `signals`, `properties`, `emit`, `tracecheck` and `models`
one by one, with a span around each call; its output must equal the
reference byte for byte, and its wall time minus the untraced one is the
tracing overhead. Spans are recorded only here, from outside the program.

A span is (name, start, end, parent, op id). Calls made once per trace or
per evaluation are folded into one aggregate span per operation and layer,
carrying the call count and the busy time. Spans stay in memory and are
written to `_work/spans-<workload>-<seed>.json` when the run ends.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads as wk
from inputs import KINDS

OUTCOMES = ("holds", "violated", "vacuous", "pending")
IMPORTED = ("cli", "parser", "emit", "models", "tracecheck")
TRACED_COST = 2.5  # a traced round runs every operation twice and records spans

# Busy-time layers: span name -> (busy-time metric, call-count metric).
TIMED = {
    name: (f"{name}_ms", "tracecheck.evals" if name == "tracecheck.eval" else f"{name}_calls")
    for name in ("parser.parse_module", "parser.regions", "transactions.build", "signals.synth",
                 "properties.gen", "emit.render", "emit.write", "tracecheck.trace_build",
                 "tracecheck.eval", "models.traces", "models.check")
}

PER_LAYER_UNITS = {
    **{f"import.autoft_{m}_ms": "ms" for m in IMPORTED},
    "import.modules_loaded": "count",
    "cli.self_ms": "ms", "cli.calls": "count",
    **{busy: "ms" for busy, _ in TIMED.values()},
    **{calls: "count" for _, calls in TIMED.values()},
    "parser.mb_per_s": "MB/s", "parser.annotations": "count", "parser.ports": "count",
    "transactions.count": "count", "signals.aux_count": "count",
    "properties.count": "count", **{f"properties.by_kind.{k}": "count" for k in KINDS},
    "emit.bytes": "bytes", "diagnostics.warnings": "count",
    **{f"tracecheck.outcome.{o}": "count" for o in OUTCOMES},
    "models.entries": "count", "models.violated": "count",
    "trace.overhead_ms": "ms", "trace.spans": "count",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, calls, busy]
        self.stack: list[int] = []
        self.op = 0
        self.agg: dict[tuple, list] = {}
        self.count: Counter = Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else None, self.op, 1, 0.0]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            rec[6] = rec[2] - rec[1]
            self.stack.pop()

    def hot(self, name: str, fn):
        """`fn` wrapped to fold its calls into one aggregate span per op and parent."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                key = (self.op, self.stack[-1] if self.stack else None, name)
                rec = self.agg.get(key)
                if rec is None:
                    rec = self.agg[key] = [name, t0, t1, key[1], self.op, 0, 0.0]
                    self.spans.append(rec)
                rec[2] = t1
                rec[5] += 1
                rec[6] += t1 - t0
        return wrapper


class Staged:
    """Staged copies of `autoft gen|check|link`: one public call per stage, each in a span.

    What a staged command made is kept in `made` and `reports`; `settle`
    counts it and times the annotation scan on its sources once the
    operation's spans are closed, so that no benchmark work lands in them.
    """

    def __init__(self, af, tr: Tracer, sink: io.StringIO):
        self.af, self.tr, self.sink = af, tr, sink
        self.made: list[tuple] = []  # (bundle, source, path)
        self.reports: list = []

    def options(self, args):
        if args.max_outstanding:
            raise ValueError("the staged path does not take --max-outstanding")
        kw = dict(clk=args.clk, rst=args.rst, rst_active_low=not args.rst_active_high, bounded=args.bounded)
        if hasattr(args, "tool"):
            kw.update(tool=args.tool, assert_inputs=args.assert_inputs)
        return self.af.options.GenOptions(**kw)

    def bundle(self, path: Path, opts):
        """`emit.generate_bundle`, one public call per stage."""
        af, tr = self.af, self.tr
        source = path.read_text(encoding="utf-8")
        with tr.span("parser.parse_module"):
            pm = af.parser.parse_module(source, str(path))
        diags = list(pm.diagnostics)
        with tr.span("transactions.build"):
            txns, more = af.transactions.build_transactions(pm)
        diags += more
        with tr.span("signals.synth"):
            aux, more = af.signals.synth_module_aux(txns, pm, opts)
        diags += more
        with tr.span("properties.gen"):
            props = [af.properties.apply_link_transforms(af.properties.gen_properties(t, a, opts, diags),
                                                         assert_inputs=opts.assert_inputs)
                     for t, a in zip(txns, aux)]
        if af.diagnostics.errors_in(diags):
            raise af.diagnostics.GenerationError(diags)
        with tr.span("emit.render"):
            bundle = af.emit.TestbenchBundle(
                dut=pm.module_name,
                property_module=af.emit.emit_property_module(pm, txns, aux, props, opts),
                bind_file=af.emit.emit_bind_file(pm),
                tool_files=af.emit.emit_tool_files(pm, opts.tool, opts),
                warnings=[d.render() for d in diags],
                transactions=txns,
                properties=[p for group in props for p in group],
                aux=aux,
                parameters=[p.name for p in pm.parameters],
                opts=opts,
                source_module=pm,
            )
        self.made.append((bundle, source, str(path)))
        return bundle

    def write(self, bundle, outdir: Path) -> None:
        with self.tr.span("emit.write"):
            target = self.af.emit.write_bundle(bundle, outdir)
        for f in bundle.files():
            print(f"wrote {target / f.name}", file=self.sink)

    def gen(self, argv: list[str]) -> None:
        with self.tr.span("cli.gen"):
            args = self.af.cli.build_arg_parser().parse_args(argv)
            bundle = self.bundle(Path(args.input), self.options(args))
            print("\n".join(bundle.warnings), file=self.sink)
            self.write(bundle, Path(args.outdir))

    def link(self, argv: list[str]) -> None:
        with self.tr.span("cli.link"):
            args = self.af.cli.build_arg_parser().parse_args(argv)
            opts = self.options(args)
            parent = self.bundle(Path(args.input), opts)
            children = []
            for spec in args.child:
                path, _, flags = spec.partition("=")
                flags = set(flags.split(","))
                children.append((self.bundle(Path(path), opts), "am" in flags, "as" in flags))
            with self.tr.span("emit.render"):
                linked = self.af.emit.link_submodule_fts(parent, children)
            self.write(linked, Path(args.outdir))
            for child, am, _ in children:
                if am:
                    self.write(child, Path(args.outdir))

    def check(self, argv: list[str], model) -> set[str]:
        with self.tr.span("cli.check"):
            args = self.af.cli.build_arg_parser().parse_args(argv)
            bundle = self.bundle(Path(args.input), self.options(args))
            report = self.model_check(bundle, model)
            print(report.summary(), file=self.sink)
        return set(report.violated_kinds())

    def model_check(self, bundle, model):
        af, tr = self.af, self.tr
        model.traces = tr.hot("models.traces", model.traces)
        saved = af.models.eval_property, af.tracecheck.Trace.extended
        af.models.eval_property = tr.hot("tracecheck.eval", af.tracecheck.eval_property)
        af.tracecheck.Trace.extended = tr.hot("tracecheck.trace_build", saved[1])
        try:
            with tr.span("models.check"):
                report = af.models.check_bundle_on_model(bundle.transactions, bundle.properties, model)
        finally:
            af.models.eval_property, af.tracecheck.Trace.extended = saved
        self.reports.append(report)
        return report

    def settle(self) -> None:
        """Count what the last operation made, and scan its sources for annotations alone."""
        c = self.tr.count
        for bundle, source, path in self.made:
            with self.tr.span("parser.regions"):
                self.af.parser.extract_annotation_regions(source, path)
            pm = bundle.source_module
            c["parser.bytes"] += len(source.encode())
            c["parser.annotations"] += len(pm.annotations)
            c["parser.ports"] += len(pm.signals)
            c["transactions.count"] += len(bundle.transactions)
            c["signals.aux_count"] += sum(len(a.signals) for a in bundle.aux)
            c["properties.count"] += len(bundle.properties)
            c.update(f"properties.by_kind.{p.kind}" for p in bundle.properties)
            c["emit.bytes"] += sum(len(f.text.encode()) for f in bundle.files())
            c["diagnostics.warnings"] += len(bundle.warnings)
        for report in self.reports:
            c["models.entries"] += len(report.entries)
            c["models.violated"] += len(report.violated())
            c.update(f"tracecheck.outcome.{e.verdict.outcome}" for e in report.entries)
        self.made, self.reports = [], []


class Traced:
    """Runs each operation plainly, then staged under an "op" span; returns (ok, plain seconds).

    Both outputs are checked: the plain one by the workload's own check, the
    staged one against the plain one, byte for byte. A `proc` operation runs
    in-process here, as `autoft.cli.main`.
    """

    def __init__(self, wl, st: Staged):
        self.af, self.probe, self.st = wl.af, wl.probe, st

    def plain(self, argv: list[str]) -> tuple[int, str, float]:
        gc.collect()
        t0 = time.perf_counter()
        rc, err = wk.run_cli(self.af, argv)
        return rc, err, time.perf_counter() - t0

    def staged(self, fn, *args):
        gc.collect()
        with self.st.tr.span("op"):
            out = fn(*args)
        self.st.settle()
        return out

    def gen(self, op: wk.Op) -> tuple[bool, float]:
        plain_dir, staged_dir = wk.fresh_dir("plain"), wk.fresh_dir("staged")
        rc, _, plain_s = self.plain([*op.argv, "-o", str(plain_dir)])
        self.staged(self.st.gen, [*op.argv, "-o", str(staged_dir)])
        written = wk.read_tree(plain_dir)
        ok = rc == 0 and op.verify(wk.read_tree(plain_dir / op.name)) and written == wk.read_tree(staged_dir)
        return ok, plain_s

    def check(self, op: wk.Op) -> tuple[bool, float]:
        rc, err, plain_s = self.plain(list(op.argv))
        kinds = self.staged(self.st.check, list(op.argv), self.af.models.MODEL_REGISTRY[op.name]())
        return wk.check_ok(op.name, rc, err) and kinds == wk.EXPECTED_VIOLATED.get(op.name, set()), plain_s

    def link(self, op: wk.Op) -> tuple[bool, float]:
        plain_dir, staged_dir = wk.fresh_dir("plain"), wk.fresh_dir("staged")
        rc, _, plain_s = self.plain([*op.argv, "-o", str(plain_dir)])
        self.staged(self.st.link, [*op.argv, "-o", str(staged_dir)])
        same = wk.read_tree(plain_dir) == wk.read_tree(staged_dir) == self.probe.link_ref
        return rc == 0 and same, plain_s

    def model_check(self, op: wk.Op) -> tuple[bool, float]:
        bundle = self.probe.bundles[op.name]
        gc.collect()
        t0 = time.perf_counter()
        plain = self.af.models.check_bundle_on_model(bundle.transactions, bundle.properties, op.model())
        plain_s = time.perf_counter() - t0
        model = op.model()
        report = self.staged(self.st.model_check, bundle, model)
        ok = report.entries == plain.entries and report.violated_kinds() == model.expected_violated_kinds
        return ok, plain_s

    def spaces(self, op: wk.Op) -> tuple[bool, float]:
        gc.collect()
        t0 = time.perf_counter()
        plain = [wk.eval_space(self.af, case, max_len) for case, max_len in op.cases]
        plain_s = time.perf_counter() - t0
        staged = self.staged(lambda: [wk.eval_space(self.af, case, max_len, wrap=self.wrap)
                                      for case, max_len in op.cases])
        ok = all(wk.space_ok(case, max_len, n, wrong)
                 for (case, max_len), (n, wrong, _) in zip(op.cases * 2, plain + staged))
        return ok, plain_s

    def wrap(self, layer: str, fn):
        """`fn` traced as `layer`; evaluations also count their outcomes, outside the span."""
        hot = self.st.tr.hot(layer, fn)
        if layer != "tracecheck.eval":
            return hot
        count = self.st.tr.count

        def counted(prop, trace):
            verdict = hot(prop, trace)
            count[f"tracecheck.outcome.{verdict.outcome}"] += 1
            return verdict
        return counted


def import_times(runs: int = 5) -> dict[str, float]:
    """Per-module import time of `import autoft.cli` in fresh processes, medians."""
    env = wk.child_env()
    samples: dict[str, list[float]] = {m: [] for m in IMPORTED}
    loaded = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import autoft.cli"], env=env,
                              capture_output=True, text=True, timeout=wk.PROC_TIMEOUT_S, check=True)
        for line in done.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in {f"autoft.{m}" for m in IMPORTED}:
                samples[parts[2][7:]].append(int(parts[1]) / 1000.0)
        done = subprocess.run(
            [sys.executable, "-c", "import sys; n = len(sys.modules); import autoft.cli; print(len(sys.modules) - n)"],
            env=env, capture_output=True, text=True, timeout=wk.PROC_TIMEOUT_S, check=True)
        loaded.append(int(done.stdout))
    out = {f"import.autoft_{m}_ms": statistics.median(v) for m, v in samples.items()}
    out["import.modules_loaded"] = statistics.median(loaded)
    return out


def layer_metrics(tr: Tracer, ops: set[int], overhead_s: float) -> dict[str, float]:
    spans = [s for s in tr.spans if s[4] in ops]
    out: dict[str, float] = {}
    for name, (busy, calls) in TIMED.items():
        mine = [s for s in spans if s[0] == name]
        out[busy] = sum(s[6] for s in mine) * 1000.0
        out[calls] = sum(s[5] for s in mine)
    roots = [s for s in spans if s[0].startswith("cli.")]
    children = [s for s in spans if s[3] is not None and tr.spans[s[3]][0].startswith("cli.")]
    out["cli.self_ms"] = (sum(s[6] for s in roots) - sum(s[6] for s in children)) * 1000.0
    out["cli.calls"] = len(roots)
    parse_s = out["parser.parse_module_ms"] / 1000.0
    out["parser.mb_per_s"] = tr.count["parser.bytes"] / 1e6 / parse_s if parse_s else 0.0
    out["trace.overhead_ms"] = overhead_s * 1000.0
    out["trace.spans"] = len(spans)
    return out


def run(name: str, seed: int, seconds: float) -> dict:
    wl = wk.WORKLOADS[name]()
    rec = wk.Recorder()
    wk.set_up(wl, seed, repeats=1)
    imports = import_times()
    gc.collect()
    gc.freeze()

    tr = Tracer()
    sink = io.StringIO()
    ex = Traced(wl, Staged(wl.af, tr, sink))
    rounds = max(1, round(wl.rounds * seconds / (wk.RUN_SECONDS * TRACED_COST)))
    per_round: list[dict[str, float]] = []
    counts: list[Counter] = []
    for _ in range(rounds):
        first_op = tr.op + 1
        tr.count = Counter()
        overhead = 0.0
        for op in wk.round_ops(wl):
            tr.op += 1
            label = op.label
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    ok, plain_s = getattr(ex, op.kind)(op)
                traced_s = sum(s[6] for s in tr.spans if s[4] == tr.op and s[0] == "op")
                overhead += traced_s - plain_s
            except Exception as exc:  # a raising operation counts as failed
                ok, label = False, f"{label}: {type(exc).__name__}: {exc}"
            rec.op(ok, label)
            sink.seek(0)
            sink.truncate()
        per_round.append(layer_metrics(tr, set(range(first_op, tr.op + 1)), overhead))
        counts.append(tr.count)
        if sum(s[6] for s in tr.spans if s[0] == "op") > wk.MAX_RUN_S:
            break

    for k, c in enumerate(counts[1:], 2):  # counts depend only on the inputs
        if c != counts[0]:
            rec.op(False, f"round {k} counts differ from round 1")
    metrics = {**imports}
    for key in PER_LAYER_UNITS:
        if key in imports:
            continue
        if key in per_round[0]:
            metrics[key] = statistics.median(r[key] for r in per_round)
        else:
            metrics[key] = counts[0][key]
    (wk.WORK / f"spans-{name}-{seed}.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "op", "calls", "busy"], "spans": tr.spans}))
    notes = {"rounds": len(per_round), "cli_tail": None, "file_tail": None, "floor": None,
             "spans_file": f"perfbench/_work/spans-{name}-{seed}.json"}
    return {"metrics": {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in metrics.items()},
            "notes": notes, "rec": rec}
