"""The two-sided harness of the `bench/` timing scripts: two checkouts in one process.

A script measures this checkout's `src/` as "after" and, given `--src`, the
`src/` of another checkout, such as a `git archive` of the parent commit, as
"before". Each side's `autoft` package is imported under its own name
(`autoft_before`, `autoft_after`), so the two coexist. The sides take turns
on every item of every round, the first side alternating between items and
rounds, so drift in the speed of a shared host lands on both sides alike,
and the two turns of a round on one item run back to back, as a pair.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(src: Path, alias: str, modules: tuple[str, ...]) -> argparse.Namespace:
    """The `autoft` package under `src`, imported as `alias`, with `modules` as attributes."""
    pkg = src / "autoft"
    spec = importlib.util.spec_from_file_location(alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return argparse.Namespace(**{m: importlib.import_module(f"{alias}.{m}") for m in modules})


def options(doc: str, rounds: int) -> argparse.ArgumentParser:
    """A parser with the flags every two-sided script takes: `--src`, `--rounds` and `--out`."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--src", help="the src/ directory of the checkout to measure as 'before'")
    ap.add_argument("--rounds", type=int, default=rounds, help=f"turns per side and item (default {rounds})")
    ap.add_argument("--out", help="write the JSON here instead of standard output")
    return ap


def sides(args: argparse.Namespace, modules: tuple[str, ...]) -> dict[str, argparse.Namespace]:
    """The packages to measure, "before" first when `--src` is given."""
    out = {"after": load(ROOT / "src", "autoft_after", modules)}
    if args.src:
        out = {"before": load(Path(args.src).resolve(), "autoft_before", modules), **out}
    return out


def turns(sides: dict, items: list, rounds: int):
    """Yield (round, item, the sides in turn order) for every item of every round."""
    order = list(sides)
    for k in range(rounds):
        for i, item in enumerate(items):
            yield k, item, order if (k + i) % 2 == 0 else order[::-1]
        print(f"round {k + 1}/{rounds} done", file=sys.stderr)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the values; a single value is all three."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def ratios(after: dict, before: dict) -> dict:
    """Per key of two flat summaries, after/before; None where before is 0."""
    return {k: round(after[k] / before[k], 3) if before[k] else None for k in before}


def paired(after: list[dict], before: list[dict]) -> dict:
    """Per key of the rounds' flat summaries, the quartiles of the after/before ratio of each round's pair.

    A key that is 0 on the before side in some round is left out.
    """
    out = {}
    for k in before[0]:
        if all(b[k] for b in before):
            q1, median, q3 = quartiles([a[k] / b[k] for a, b in zip(after, before)])
            out[k] = {"q1": round(q1, 3), "median": round(median, 3), "q3": round(q3, 3)}
    return out


def write(script: str, args: argparse.Namespace, result: dict) -> None:
    """The JSON of `result`, headed by the command line and the host, to `--out` or standard output."""
    flags = [f"--{k.replace('_', '-')} {v}" for k, v in vars(args).items() if k not in ("src", "out") and v is not None]
    command = " ".join([f"python3 bench/{Path(script).name}", *(["--src <before>/src"] if args.src else []), *flags])
    host = {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}
    text = json.dumps({"command": command, "host": host, **result}, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
