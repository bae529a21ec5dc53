"""Time every stage of in-process `autoft gen` per input, before and after a change.

    python3 bench/parse_stages.py                                  # this checkout
    python3 bench/parse_stages.py --src OTHER/src --out BENCH.json # OTHER is "before"

Run from the root of a checkout; stdlib only. The inputs are the five bundled
fixtures and perfbench's seeded wide files (250 to 4000 transactions, empty
body) and deep files (1 to 8 transactions, 10k to 50k body lines), drawn by
`perfbench/inputs.py`, which is only imported. `bench/twin.py` loads the two
sides and runs their turns, one per input and round. A side's turn on an
input is one `cli.main(["gen", PATH, "--tool", "both", "-o", DIR])`, as a
user's process calls it, with the collector enabled on entry. The calls it
makes for each stage are wrapped through the module globals they are looked
up in (`STAGE_CALLS`) and timed: parse, build and synth inside
`emit.generate_model`, and write, `write_files` with the rendering of the
property module, which is made as it is written. Parse's own sub-stages are
timed the same way, through the globals of `parser` that `parse_module` looks
them up in: lex (`_lex`, once or twice), header (`_read_header`), regions
(`_regions`) and lines (`_read_annotations`, every annotation line from the
regions). Their times are inside parse's. A turn records each stage's
time, the whole call's (`gen_ms`) and the number of collections that ran
inside it.

The two sides must write the same bytes. A time is the median over rounds.
Each wide input's record holds, next to its transaction count, its count of
distinct transaction shapes as each side's synthesis groups them (`shapes`
for this checkout, `shapes_before` for the other): `gen` renders one
template per shape and fills in every transaction's names, so its gain rests
on that ratio.

After the timed rounds, each side makes one untimed pass over each wide input
under `tracemalloc`, and the peak of traced memory of that `cli.main` call,
in MB, is recorded under `tracemalloc_cli_peak_mb`; with two sides, the
ratio after/before of each input's peak is under
`tracemalloc_cli_peak_after_over_before`. The JSON written has the per-input
medians of each side, group totals (wide transactions per second through
`cli.main`, deep parse MB/s, per-stage sums over the wide files) and, with
two sides, the ratio after/before of each total, and under
`paired_after_over_before` that ratio's quartiles over the rounds' pairs of
turns, in which host drift cancels: a stage is judged against its own spread.
"""
from __future__ import annotations

import contextlib
import gc
import io
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
import twin  # noqa: E402

FIXTURES = ("fifo", "pipeline", "noc_buffer", "noc_buffer_buggy", "mmu_stub")
# Stage -> (the module whose globals `cli.main gen` looks the call up in, the call's name). A side whose module
# lacks the call (an older or newer checkout) skips it, and its time reads 0.
STAGE_CALLS = {
    "parse": ("emit", "parse_module"),
    "lex": ("parser", "_lex"),
    "header": ("parser", "_read_header"),
    "regions": ("parser", "_regions"),
    "lines": ("parser", "_read_annotations"),
    "build": ("emit", "build_transactions"),
    "synth": ("emit", "synth_module"),
    "write": ("cli", "write_files"),
}
STAGES = tuple(STAGE_CALLS)
MODULES = ("cli", "emit", "options", "parser")


def write_inputs(seed: int, into: Path) -> list[dict]:
    """Write every input file; one record per input with its group, size and transactions."""
    out = []
    for name in FIXTURES:
        text = (ROOT / "fixtures" / f"{name}.sv").read_text(encoding="utf-8")
        out.append({"name": name, "group": "fixtures", "text": text, "txns": len(inputs.FIXTURE_TXNS[name])})
    for group, files in (("wide", inputs.wide_files(seed)), ("deep", inputs.deep_files(seed))):
        out.extend({"name": f.name, "group": group, "text": f.text, "txns": f.txns} for f in files)
    for rec in out:
        path = into / f"{rec['name']}.sv"
        path.write_text(rec.pop("text"), encoding="utf-8")
        rec["path"] = str(path)
        rec["bytes"] = path.stat().st_size
    return out


def gen(af, path: str, outdir: Path) -> dict[str, float]:
    """`cli.main(["gen", ...])` on one input with its stage calls timed; wall ms per stage and of the call."""
    clock = time.perf_counter
    seconds = dict.fromkeys(STAGES, 0.0)

    def timed(stage, fn):
        def call(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[stage] += clock() - t0
        return call

    saved = [(getattr(af, module), name, getattr(getattr(af, module), name), stage)
             for stage, (module, name) in STAGE_CALLS.items() if hasattr(getattr(af, module), name)]
    for module, name, fn, stage in saved:
        setattr(module, name, timed(stage, fn))
    gc.collect()
    before, t0 = collections(), clock()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = af.cli.main(["gen", path, "--tool", "both", "-o", str(outdir)])
    finally:
        gen_ms = (clock() - t0) * 1e3
        for module, name, fn, _ in saved:
            setattr(module, name, fn)
    if rc != 0:
        raise RuntimeError(f"autoft gen {path} exited {rc}")
    return {**{f"{s}_ms": v * 1e3 for s, v in seconds.items()}, "gen_ms": gen_ms, "collections": collections() - before}


def shape_count(af, path: str) -> int:
    """The count of one input's distinct transaction shapes, as `af` groups them."""
    model = af.emit.generate_model(Path(path).read_text(encoding="utf-8"), path, af.options.GenOptions(tool="both"))
    return len({id(a.shape) for a in model.aux})


def traced_peak_mb(fn) -> float:
    """The `tracemalloc` peak, in MB, of calling `fn`, after a full collection."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 1e6, 2)
    finally:
        tracemalloc.stop()


def cli_peak_mb(af, path: str, outdir: Path) -> float:
    """The `tracemalloc` peak of `cli.main(["gen", ...])` on one input, as `gen` runs it; it reads the input."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return traced_peak_mb(lambda: af.cli.main(["gen", path, "--tool", "both", "-o", str(outdir)]))


def collections() -> int:
    return sum(s["collections"] for s in gc.get_stats())


def turn(af, path: str, tmp: Path) -> tuple[dict, dict[str, bytes]]:
    """One side's timed `gen` on one input, and the bytes it wrote."""
    out = gen(af, path, tmp)
    return out, {str(p.relative_to(tmp)): p.read_bytes() for p in tmp.rglob("*") if p.is_file()}


def summarize(files: list[dict], runs: dict[str, list[dict]]) -> dict:
    per_input = {name: {k: round(statistics.median(r[k] for r in rs), 2) for k in rs[0]} for name, rs in runs.items()}

    def total(group: str, key: str) -> float:
        return sum(per_input[f["name"]][key] for f in files if f["group"] == group)

    deep_mb = sum(f["bytes"] for f in files if f["group"] == "deep") / 1e6
    wide_txns = sum(f["txns"] for f in files if f["group"] == "wide")
    biggest = max((f for f in files if f["group"] == "wide"), key=lambda f: f["txns"])["name"]
    totals = {
        "wide_cli_txn_per_s": round(wide_txns / total("wide", "gen_ms") * 1e3, 1),
        "wide_cli_collections": total("wide", "collections"),
        **{f"wide_{key}": round(total("wide", key), 1) for key in (*(f"{s}_ms" for s in STAGES), "gen_ms")},
        **{f"{biggest}_{s}_ms": per_input[biggest][f"{s}_ms"] for s in ("synth", "write")},
        "deep_parse_mb_per_s": round(deep_mb / total("deep", "parse_ms") * 1e3, 3),
        "deep_cli_mb_per_s": round(deep_mb / total("deep", "gen_ms") * 1e3, 3),
        "fixtures_cli_ms": round(total("fixtures", "gen_ms"), 3),
    }
    return {"per_input": per_input, "totals": totals}


def main(argv: list[str] | None = None) -> int:
    ap = twin.options(__doc__, rounds=5)
    ap.add_argument("--seed", type=int, default=1, help="perfbench input seed (default 1)")
    args = ap.parse_args(argv)

    sides = twin.sides(args, MODULES)
    with tempfile.TemporaryDirectory() as tmp:
        files = write_inputs(args.seed, Path(tmp))
        for f in files:
            if f["group"] == "wide":
                f["shapes"] = shape_count(sides["after"], f["path"])
                if "before" in sides:
                    f["shapes_before"] = shape_count(sides["before"], f["path"])
        runs: dict[str, dict[str, list]] = {side: {f["name"]: [] for f in files} for side in sides}
        for _, f, order in twin.turns(sides, files, args.rounds):
            written = []
            for side in order:
                with tempfile.TemporaryDirectory(dir=tmp) as outdir:
                    out, tree = turn(sides[side], f["path"], Path(outdir))
                runs[side][f["name"]].append(out)
                written.append(tree)
            if any(tree != written[0] for tree in written):
                raise RuntimeError(f"the two sides wrote different files for {f['name']}")
        wide = [f for f in files if f["group"] == "wide"]
        cli_peaks = {side: {f["name"]: cli_peak_mb(af, f["path"], Path(tmp) / "cli_peak" / side) for f in wide}
                     for side, af in sides.items()}

    result = {
        "inputs": [{k: f[k] for k in ("name", "group", "bytes", "txns", "shapes", "shapes_before") if k in f}
                   for f in files],
        **{side: summarize(files, runs[side]) for side in sides},
        "tracemalloc_cli_peak_mb": cli_peaks,
    }
    if args.src:
        result["after_over_before"] = twin.ratios(result["after"]["totals"], result["before"]["totals"])
        result["tracemalloc_cli_peak_after_over_before"] = twin.ratios(cli_peaks["after"], cli_peaks["before"])
        rounds = {side: [summarize(files, {n: [rs[k]] for n, rs in runs[side].items()})["totals"]
                         for k in range(args.rounds)] for side in sides}
        result["paired_after_over_before"] = twin.paired(rounds["after"], rounds["before"])
    twin.write(__file__, args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
