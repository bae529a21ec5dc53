"""Time `check_bundle_on_model` on the oracle's model configurations, before and after a change.

    python3 bench/model_check.py                                    # this checkout
    python3 bench/model_check.py --src OTHER/src --out BENCH.json   # OTHER is "before"

Run from the root of a checkout; stdlib only. The configurations are those of
perfbench's oracle workload: the `fifo`, `noc_buffer`, `noc_buffer_buggy` and
`pipeline` reference models with 12 traces each, 100 driven cycles and a
drain of 12 to 20, checked against the fixture's bundle at default options.
`--src` names the `src/` directory of another checkout, such as a
`git archive` of the parent commit; it is measured as "before" and this
checkout's `src/` as "after".

Both sides run in this one process: each side's `autoft` package is loaded
under its own name (`autoft_before`, `autoft_after`), and the two sides take
turns on every configuration, the first side alternating between
configurations and rounds, so drift in the speed of a shared host lands on
both sides alike. A turn times one `check_bundle_on_model` call on a fresh
model, as the oracle workload does (drawing the traces included), after a
full collection. A time is the median over rounds.

Once per side and configuration, outside the timed turns, the register
derivations of one check are counted by wrapping the evaluator's register
seam, `tracecheck._register`, and divided by the number of traces. The two
sides must give equal report entries. The JSON written holds, per side and
configuration, the median and quartiles in ms and the registers derived per
trace, and, with two sides, the ratio after/before of each median.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import twin

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("emit", "models", "options", "sva", "tracecheck")
# fixture -> (model class, its keyword arguments besides the size)
CONFIGS = {
    "fifo": ("FifoModel", {"tail": 12}),
    "noc_buffer": ("NocBufferModel", {"buggy": False, "tail": 20}),
    "noc_buffer_buggy": ("NocBufferModel", {"buggy": True, "tail": 20}),
    "pipeline": ("PipelineModel", {"tail": 12}),
}


class Side:
    """One checkout's bundles and model factories."""

    def __init__(self, af, traces: int, drive: int):
        self.af = af
        self.props = {}
        self.models = {}
        for name, (cls, kwargs) in CONFIGS.items():
            text = (ROOT / "fixtures" / f"{name}.sv").read_text(encoding="utf-8")
            self.props[name] = af.emit.generate_bundle(text, name, af.options.GenOptions()).properties
            self.models[name] = (getattr(af.models, cls), dict(kwargs, n_traces=traces, drive=drive))

    def check(self, name: str):
        cls, kwargs = self.models[name]
        return self.af.models.check_bundle_on_model([], self.props[name], cls(**kwargs))

    def timed(self, name: str) -> float:
        gc.collect()
        t0 = time.perf_counter()
        self.check(name)
        return (time.perf_counter() - t0) * 1e3

    def registers(self, name: str) -> tuple[float, list[tuple]]:
        """Registers derived per trace by one check, and its entries as plain tuples."""
        tc, sva, calls = self.af.tracecheck, self.af.sva, 0

        def counting(derive):
            def counted(node, *args):
                nonlocal calls
                calls += 1
                return derive(node, *args)
            return counted

        # The evaluator derives each register through `tracecheck._register(node, a, b)`; a
        # checkout from before the compiled evaluator looks it up in its `_COLUMN` table instead.
        table = getattr(tc, "_COLUMN", None)
        if table is None:
            saved = tc._register
            tc._register = counting(saved)
        else:
            saved = {cls: table[cls] for cls in (sva.Counter, sva.Inflight, sva.Sampled)}
            table.update({cls: counting(derive) for cls, derive in saved.items()})
        try:
            report = self.check(name)
        finally:
            if table is None:
                tc._register = saved
            else:
                table.update(saved)
        entries = [(e.trace_index, e.symb_values, e.property_name, e.kind, e.verdict.outcome, e.verdict.cycle)
                   for e in report.entries]
        return calls / self.models[name][1]["n_traces"], entries


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", help="the src/ directory of the checkout to measure as 'before'")
    ap.add_argument("--rounds", type=int, default=15, help="turns per side and configuration (default 15)")
    ap.add_argument("--traces", type=int, default=12, help="traces per model (default 12)")
    ap.add_argument("--drive", type=int, default=100, help="driven cycles per trace (default 100)")
    ap.add_argument("--out", help="write the JSON here instead of standard output")
    args = ap.parse_args(argv)

    sides = {"after": Side(twin.load(ROOT / "src", "autoft_after", MODULES), args.traces, args.drive)}
    if args.src:
        before = twin.load(Path(args.src).resolve(), "autoft_before", MODULES)
        sides = {"before": Side(before, args.traces, args.drive), **sides}
    registers, entries = {}, {}
    for side, s in sides.items():
        for name in CONFIGS:
            registers[side, name], entries[side, name] = s.registers(name)
    for name in CONFIGS:
        if any(entries[side, name] != entries["after", name] for side in sides):
            raise RuntimeError(f"the two sides gave different entries on {name}")

    runs = {(side, name): [] for side in sides for name in CONFIGS}
    order = list(sides)
    for k in range(args.rounds):
        for i, name in enumerate(CONFIGS):
            for side in order if (k + i) % 2 == 0 else order[::-1]:
                runs[side, name].append(sides[side].timed(name))
        print(f"round {k + 1}/{args.rounds} done", file=sys.stderr)

    def summary(side: str) -> dict:
        out = {}
        for name in CONFIGS:
            q1, median, q3 = statistics.quantiles(runs[side, name], n=4) if args.rounds > 1 else [runs[side, name][0]] * 3
            out[name] = {"median_ms": round(median, 3), "q1_ms": round(q1, 3), "q3_ms": round(q3, 3),
                         "registers_per_trace": registers[side, name], "entries": len(entries[side, name])}
        return out

    result = {
        "command": "python3 bench/model_check.py" + (" --src <before>/src" if args.src else "")
        + f" --rounds {args.rounds} --traces {args.traces} --drive {args.drive}",
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        **{side: summary(side) for side in sides},
    }
    if args.src:
        result["after_over_before"] = {name: round(result["after"][name]["median_ms"]
                                                   / result["before"][name]["median_ms"], 3) for name in CONFIGS}
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
