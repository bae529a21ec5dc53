"""Time the trace evaluator on the differential oracle's spaces, before and after a change.

    python3 bench/oracle_rate.py                                    # this checkout
    python3 bench/oracle_rate.py --src OTHER/src --out BENCH.json   # OTHER is "before"

Run from the root of a checkout; stdlib only. The spaces are the 24 cases of
`tests/differential.py`: every trace of each case's signal domains up to its
length, 268,521 traces in all. `--src` names the `src/` directory of another
checkout, such as a `git archive` of the parent commit; it is measured as
"before" and this checkout's `src/` as "after".

Both sides run in this one process: each side's `autoft` package is loaded
under its own name (`autoft_before`, `autoft_after`), and each side builds
the cases with its own package, since the two packages' node classes differ.
The two sides take turns on every space, the first side alternating between
spaces and rounds, so drift in the speed of a shared host lands on both
sides alike. A turn times the trace loop of perfbench's `eval_space`: the
timer holds drawing the next trace from `enumerate_traces`, extending it by
the case's fixed columns and evaluating the property; the naive checker's
verdict is computed outside it and must equal the evaluator's. A rate is
traces per busy second; a space's rate is its median over rounds, and the
total is the median over rounds of all traces over the round's busy time.
The JSON written holds each side's rates and, with two sides, the ratio
after/before of each.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import twin

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))  # naive_checkers, which reads no autoft module
MODULES = ("properties", "sva", "tracecheck")


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
        for name, module_before in saved.items():
            if module_before is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module_before
    return module.CASES


def timed_space(tc, case, max_len: int) -> tuple[int, float]:
    """(traces, busy seconds) of one pass over a case's space, as perfbench's `eval_space` times it."""
    extend, evaluate, prop = tc.Trace.extended, tc.eval_property, case.prop()
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
            raise RuntimeError(f"{case.name}: the evaluator and the naive checker differ on {trace.columns}")
    return n, busy


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", help="the src/ directory of the checkout to measure as 'before'")
    ap.add_argument("--rounds", type=int, default=5, help="turns per side and space (default 5)")
    ap.add_argument("--max-len", type=int, help="cut every space to traces of at most this many cycles")
    ap.add_argument("--out", help="write the JSON here instead of standard output")
    args = ap.parse_args(argv)

    sides = {"after": twin.load(ROOT / "src", "autoft_after", MODULES)}
    if args.src:
        sides = {"before": twin.load(Path(args.src).resolve(), "autoft_before", MODULES), **sides}
    cases = {side: load_cases(af, f"autoft_{side}") for side, af in sides.items()}
    names = [case.name for case in cases["after"]]
    lengths = [case.max_len if args.max_len is None else min(case.max_len, args.max_len) for case in cases["after"]]

    runs = {(side, name): [] for side in sides for name in names}  # (traces, busy s) per round
    order = list(sides)
    for k in range(args.rounds):
        for i, (name, max_len) in enumerate(zip(names, lengths)):
            for side in order if (k + i) % 2 == 0 else order[::-1]:
                runs[side, name].append(timed_space(sides[side].tracecheck, cases[side][i], max_len))
        print(f"round {k + 1}/{args.rounds} done", file=sys.stderr)
    for name in names:
        if any(runs[side, name][0][0] != runs["after", name][0][0] for side in sides):
            raise RuntimeError(f"the two sides enumerated different traces on {name}")

    def summary(side: str) -> dict:
        totals = [sum(runs[side, name][k][0] for name in names) / sum(runs[side, name][k][1] for name in names)
                  for k in range(args.rounds)]
        q1, median, q3 = statistics.quantiles(totals, n=4) if args.rounds > 1 else totals * 3
        return {
            "traces": sum(runs[side, name][0][0] for name in names),
            "traces_per_s": round(median), "q1_traces_per_s": round(q1), "q3_traces_per_s": round(q3),
            "spaces": {name: round(statistics.median(n / busy for n, busy in runs[side, name])) for name in names},
        }

    result = {
        "command": "python3 bench/oracle_rate.py" + (" --src <before>/src" if args.src else "")
        + f" --rounds {args.rounds}" + ("" if args.max_len is None else f" --max-len {args.max_len}"),
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        **{side: summary(side) for side in sides},
    }
    if args.src:
        before, after = result["before"], result["after"]
        result["after_over_before"] = {
            "traces_per_s": round(after["traces_per_s"] / before["traces_per_s"], 3),
            "spaces": {name: round(after["spaces"][name] / before["spaces"][name], 3) for name in names},
        }
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
