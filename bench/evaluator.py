"""Time the trace evaluator on the oracle's spaces and the model checks, before and after a change.

    python3 bench/evaluator.py                                    # this checkout
    python3 bench/evaluator.py --src OTHER/src --out BENCH.json   # OTHER is "before"

Run from the root of a checkout; stdlib only; `bench/twin.py` runs the two
sides. The items of a round are:

- the 24 spaces of `tests/differential.py`, 268,521 traces in all: every
  trace of each case's signal domains up to its length (or `--max-len`).
  A turn times perfbench's `eval_space` loop: drawing, extending and
  evaluating each trace. The naive checker's verdict, outside the timer,
  must be the same. Each side builds the cases with its own package;
- the model checks at oracle size (`oracle_size`), as perfbench's oracle
  workload runs them: `fifo`, `noc_buffer`, `noc_buffer_buggy` and
  `pipeline` with `--traces` traces, `--drive` driven cycles and a drain
  of 12 to 20, each on one bundle of its fixture made once per side;
- the same at default size (`default_size`), as `autoft check` and
  perfbench's probe `check` run them: `MODEL_REGISTRY[name]()`, each on a
  fresh `generate_model` of its fixture, made before the timer starts;
- a wide check (`wide`): the properties of a fresh bundle of the
  `--wide`-transaction header of `tests/headers.py` (240 by default, 2,040
  properties), checked on one 32-cycle trace over every port and wire they
  read, each value drawn from 0-3 and x with a fixed seed, and a window of
  one cycle. `first_check` times a check of fresh properties, which plans
  and renders their groups; `re_check` times a second check of them, which
  finds the plan kept on the first property;
- the id widths (`id_width`): `noc_buffer` and `noc_buffer_buggy` with
  both `transid` ranges widened to each of `ID_BITS` (2, 4, 6, 8 and
  10 bits), checked on the default-size model. The check named
  `<fixture>_<bits>bits_first_check` checks a fresh bundle's properties,
  which plans and renders their groups, and `..._re_check` checks them a
  second time;
- perfbench's probe slice (`probe_slice`): each of the 24 spaces cut to
  its longest traces that number at most PROBE_SPACE (300), each
  evaluated with a fresh property, so every space pays one monitor of one
  body; reported as traces per busy second (`probe_slice_traces_per_s`);
- the model draws alone (`model_traces`): `DRAW_CALLS` calls of
  `traces()` on a fresh model of each fixture, at oracle size and at
  default size, as the checks above draw them, reported per call. This is
  the part of a model check that the evaluator does not see.

A model turn times one `check_bundle_on_model` call on a fresh model after a
full collection, drawing the traces and making the evaluators included (a
side whose properties keep their evaluators makes them in its first turn
at oracle size only, and every side's code is compiled by then).
At default size it also times what `autoft check` does between generating
the model and checking it: `gen_properties` over the model's transactions,
which builds each transaction's trees. One more check per side, run first
on a fresh bundle's properties, counts the code objects it compiles into
an empty `tracecheck._CODE` (`code_objects`, one per group structure).
Sides that draw equal traces, compared by value through `Trace.to_csv`
whatever the type of their columns, must give equal entries; the checks
whose traces differ are named in `traces_differ`. Rates (traces per busy
second) and model times (ms) are medians over rounds, with quartiles. With two
sides, `after_over_before` holds each median's ratio and
`paired_after_over_before` that ratio's quartiles over the rounds' pairs.
"""
from __future__ import annotations

import gc
import importlib.util
import random
import sys
import time

import twin

ROOT = twin.ROOT
sys.path.insert(0, str(ROOT / "tests"))  # naive_checkers and headers, which read no autoft module
import headers  # noqa: E402
MODULES = ("emit", "models", "options", "properties", "sva", "tracecheck")
# fixture -> (model class, its keyword arguments besides the size), at oracle size
ORACLE_SIZE = {
    "fifo": ("FifoModel", {"tail": 12}),
    "noc_buffer": ("NocBufferModel", {"buggy": False, "tail": 20}),
    "noc_buffer_buggy": ("NocBufferModel", {"buggy": True, "tail": 20}),
    "pipeline": ("PipelineModel", {"tail": 12}),
}
WIDE = ("first_check", "re_check")
# The fixtures whose `transid` ranges the `id_width` checks widen, how their text writes the ranges, and the widths
# they widen them to; the checks by name -> (fixture, id bits).
WIDENED, ID_BITS = ("noc_buffer", "noc_buffer_buggy"), (2, 4, 6, 8, 10)
ID_RANGES = ("[1:0] buf_in_transid", "[1:0] buf_out_transid")
ID_CHECKS = {f"{fixture}_{bits}bits_{kind}": (fixture, bits)
             for fixture in WIDENED for bits in ID_BITS for kind in WIDE}
# config -> the names of its checks
CONFIGS = {"oracle_size": tuple(ORACLE_SIZE), "default_size": tuple(ORACLE_SIZE), "wide": WIDE,
           "id_width": tuple(ID_CHECKS)}
WIDE_CYCLES, WIDE_SEED = 32, 41
# The model-draw items, each timed over DRAW_CALLS calls of `traces()`.
SIZES = ("oracle_size", "default_size")
DRAWS = [("model_traces", config, name) for config in SIZES for name in ORACLE_SIZE]
DRAW_CALLS = 10
# The probe slice's item, and its most traces per space.
PROBE, PROBE_SPACE = "probe_slice", 300


class _Wide:
    """The wide check's model: one trace, a window of one cycle."""

    name, liveness_window = "wide", 1

    def __init__(self, trace):
        self.trace = trace

    def traces(self) -> list:
        return [self.trace]


def load_cases(af, alias: str) -> list:
    """`tests/differential.py`'s cases, its `autoft` imports bound to the package loaded as `alias`."""
    names = ("autoft", *(f"autoft.{m}" for m in MODULES))
    saved = {name: sys.modules.get(name) for name in names}
    sys.modules["autoft"] = sys.modules[alias]
    sys.modules.update({f"autoft.{m}": getattr(af, m) for m in MODULES})
    try:
        spec = importlib.util.spec_from_file_location(f"differential_{alias}", ROOT / "tests" / "differential.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update({name: module for name, module in saved.items() if module is not None})
    return module.CASES


class Side:
    """One checkout's differential cases, bundles and model factories."""

    def __init__(self, af, alias: str, args, wide: dict):
        self.af = af
        self.cases = {case.name: case for case in load_cases(af, alias)}
        self.texts, self.props, self.models = {"wide": headers.wide_header(args.wide)}, {}, {}
        trace = af.tracecheck.Trace(wide)
        for name in WIDE:
            self.models["wide", name] = lambda: _Wide(trace)
        for name, (cls, kwargs) in ORACLE_SIZE.items():
            self.texts[name] = (ROOT / "fixtures" / f"{name}.sv").read_text(encoding="utf-8")
            self.props[name] = self.bundle(name)
            kwargs = dict(kwargs, n_traces=args.traces, drive=args.drive)
            self.models["oracle_size", name] = lambda cls=getattr(af.models, cls), kwargs=kwargs: cls(**kwargs)
            self.models["default_size", name] = af.models.MODEL_REGISTRY[name]
        for name, (fixture, bits) in ID_CHECKS.items():
            self.texts[name] = widened(self.texts[fixture], bits)
            self.models["id_width", name] = af.models.MODEL_REGISTRY[fixture]

    def space(self, name: str, max_len: int | None) -> tuple[int, float]:
        """(traces, busy seconds) of one pass over a case's space, as perfbench's `eval_space` times it."""
        tc, case = self.af.tracecheck, self.cases[name]
        extend, evaluate, prop = tc.Trace.extended, tc.eval_property, case.prop()
        max_len = case.max_len if max_len is None else min(case.max_len, max_len)
        it = tc.enumerate_traces({name: 1 for name in case.signals}, max_len, domains=dict(case.signals))
        clock = time.perf_counter
        n, busy = 0, 0.0
        gc.collect()
        while True:
            t0 = clock()
            base = next(it, None)
            if base is None:
                break
            trace = extend(base, {k: make(base.length) for k, make in case.extra.items()}) if case.extra else base
            verdict = evaluate(prop, trace)
            busy += clock() - t0
            n += 1
            if (verdict.outcome, verdict.cycle) != case.naive_fn(trace.columns):
                raise RuntimeError(f"{name}: the evaluator and the naive checker differ on {trace.columns}")
        return n, busy

    def probe(self) -> tuple[int, float]:
        """(traces, busy seconds) of one pass over the probe slice, each space timed as `space` times it."""
        n = busy = 0
        for name, case in self.cases.items():
            sizes = [len(domain) for domain in dict(case.signals).values()]
            size = self.af.tracecheck.trace_space_size
            fits = [k for k in range(1, case.max_len + 1) if size(sizes, k) <= PROBE_SPACE]
            traces, seconds = self.space(name, fits[-1] if fits else 1)
            n, busy = n + traces, busy + seconds
        return n, busy

    def drawn(self, config: str, name: str) -> float:
        """ms per `traces()` call of a fresh model, over DRAW_CALLS calls after a full collection."""
        model = self.models[config, name]()
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(DRAW_CALLS):
            model.traces()
        return (time.perf_counter() - t0) * 1e3 / DRAW_CALLS

    def bundle(self, name: str) -> list:
        """The properties of a fresh bundle of a fixture, or of the wide header."""
        return self.af.emit.generate_bundle(self.texts[name], name, self.af.options.GenOptions()).properties

    def timed(self, config: str, name: str) -> float:
        af, fresh, model = self.af, config == "default_size", self.models[config, name]()
        module = af.emit.generate_model(self.texts[name], name, af.options.GenOptions()) if fresh else None
        if config in ("wide", "id_width"):  # fresh properties, made before the timer; a re-check checks them once first
            props = self.bundle("wide" if config == "wide" else name)
            if name.endswith("re_check"):
                af.models.check_bundle_on_model([], props, model)
        gc.collect()
        t0 = time.perf_counter()
        if config not in ("wide", "id_width"):
            props = self.props[name] if module is None else [
                p for t, a in zip(module.txns, module.aux) for p in af.properties.gen_properties(t, a, module.opts, [])]
        af.models.check_bundle_on_model([], props, model)
        return (time.perf_counter() - t0) * 1e3

    def counts(self, config: str, name: str) -> tuple[dict, list[tuple], list[str]]:
        """The code objects one check of a fresh bundle's properties compiles into an empty `tracecheck._CODE`,
        its entries as plain tuples, and its traces as CSV text."""
        tc, model = self.af.tracecheck, self.models[config, name]()
        props = self.bundle("wide" if config == "wide" else name)
        cache, tc._CODE = tc._CODE, {}
        try:
            report = self.af.models.check_bundle_on_model([], props, model)
            count = {"code_objects": len(tc._CODE)}
        finally:
            tc._CODE = {**cache, **tc._CODE}
        entries = [(e.trace_index, e.symb_values, e.verdict.property_name, e.kind,
                    e.verdict.outcome, e.verdict.cycle) for e in report.entries]
        return count, entries, [t.to_csv() for t in model.traces()]


def widened(text: str, bits: int) -> str:
    """A `noc_buffer` fixture's text with both `transid` ranges widened to `bits` bits."""
    for written in ID_RANGES:
        text = text.replace(written, f"[{bits - 1}:0]{written[5:]}")
    return text


def wide_trace(af, text: str) -> dict:
    """The wide check's trace: a column of drawn values for every port and wire the header's properties read."""
    rng, names = random.Random(WIDE_SEED), set()
    todo = [p.body for p in af.emit.generate_bundle(text, "wide.sv", af.options.GenOptions()).properties]
    while todo:
        node = todo.pop()
        if type(node) in (af.sva.Sig, af.sva.AttribWire):
            names.add(node.name)
        todo += af.sva.children(node)
    return {name: [rng.choice((0, 1, 2, 3, None)) for _ in range(WIDE_CYCLES)] for name in sorted(names)}


def main(argv: list[str] | None = None) -> int:
    ap = twin.options(__doc__, rounds=9)
    ap.add_argument("--max-len", type=int, help="cut every space to traces of at most this many cycles")
    ap.add_argument("--traces", type=int, default=12, help="traces per model at oracle size (default 12)")
    ap.add_argument("--drive", type=int, default=100, help="driven cycles per trace at oracle size (default 100)")
    ap.add_argument("--wide", type=int, default=240, help="transactions of the wide check's header (default 240)")
    args = ap.parse_args(argv)

    packages = twin.sides(args, MODULES)
    wide = wide_trace(packages["after"], headers.wide_header(args.wide))
    sides = {side: Side(af, f"autoft_{side}", args, wide) for side, af in packages.items()}
    spaces = list(sides["after"].cases)
    checks = [(config, name) for config, names in CONFIGS.items() for name in names]
    found = {(side, check): s.counts(*check) for side, s in sides.items() for check in checks}
    differ = []
    for check in checks:
        first, after = found[next(iter(sides)), check], found["after", check]
        if first[2] != after[2]:
            differ.append("/".join(check))
        elif first[1] != after[1]:
            raise RuntimeError(f"the two sides gave different entries on {'/'.join(check)}")

    items = [*spaces, PROBE, *checks, *DRAWS]
    runs = {(side, item): [] for side in sides for item in items}  # per round
    for _, item, order in twin.turns(sides, items, args.rounds):
        for side in order:
            s = sides[side]
            runs[side, item].append(s.space(item, args.max_len) if item in s.cases else s.probe() if item == PROBE else
                                    s.drawn(*item[1:]) if item in DRAWS else s.timed(*item))
    for name in spaces:
        if any(runs[side, name][0][0] != runs["after", name][0][0] for side in sides):
            raise RuntimeError(f"the two sides enumerated different traces on {name}")

    def per_round(side: str, k: int) -> dict:
        """Round k's total and per-space rates and model times, flat."""
        return {"traces_per_s": sum(runs[side, n][k][0] for n in spaces) / sum(runs[side, n][k][1] for n in spaces),
                "probe_slice_traces_per_s": runs[side, PROBE][k][0] / runs[side, PROBE][k][1],
                **{f"spaces/{n}": runs[side, n][k][0] / runs[side, n][k][1] for n in spaces},
                **{"/".join(item): runs[side, item][k] for item in checks + DRAWS}}

    rounds = {side: [per_round(side, k) for k in range(args.rounds)] for side in sides}
    result, medians = {}, {}
    for side, rs in rounds.items():
        q = {key: twin.quartiles([r[key] for r in rs]) for key in rs[0]}
        medians[side] = {key: v[1] for key, v in q.items()}
        result[side] = {
            "traces": sum(runs[side, n][0][0] for n in spaces),
            **{f"{p}traces_per_s": round(v) for p, v in zip(("q1_", "", "q3_"), q["traces_per_s"])},
            **{f"{p}probe_slice_traces_per_s": round(v)
               for p, v in zip(("q1_", "", "q3_"), q["probe_slice_traces_per_s"])},
            **{f"{p}spaces": {n: round(q[f"spaces/{n}"][j]) for n in spaces} for j, p in enumerate(("q1_", "", "q3_"))},
            "models": {c: {n: {**{f"{p}_ms": round(v, 3) for p, v in zip(("q1", "median", "q3"), q[f"{c}/{n}"])},
                               **found[side, (c, n)][0], "entries": len(found[side, (c, n)][1])}
                           for n in names} for c, names in CONFIGS.items()},
            "model_traces": {c: {n: {f"{p}_ms": round(v, 3) for p, v in zip(("q1", "median", "q3"),
                                                                             q[f"model_traces/{c}/{n}"])}
                                 for n in ORACLE_SIZE} for c in SIZES},
        }
    if args.src:
        result["after_over_before"] = twin.ratios(medians["after"], medians["before"])
        result["paired_after_over_before"] = twin.paired(rounds["after"], rounds["before"])
    result["traces_differ"] = differ
    twin.write(__file__, args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
