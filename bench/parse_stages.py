"""Time every generation stage and in-process `autoft gen` per input, before and after a change.

    python3 bench/parse_stages.py                                  # this checkout
    python3 bench/parse_stages.py --src OTHER/src --out BENCH.json # OTHER is "before"

Run from the root of a checkout; stdlib only. The inputs are the five bundled
fixtures and perfbench's seeded wide files (250 to 4000 transactions, empty
body) and deep files (1 to 8 transactions, 10k to 50k body lines), drawn by
`perfbench/inputs.py`, which is only imported. `bench/twin.py` loads the two
sides and runs their turns, one per input and round. A side's turn on an
input runs three measurements, each after a full collection:

- `gc_on`: `generate_bundle` followed by `write_bundle`, with the time of
  each stage summed over the calls `generate_bundle` makes for it (parse,
  build, synth, props, emit; see `STAGE_CALLS`) and `write_bundle` timed as
  the write stage, with the cyclic garbage collector enabled. The label
  pass, which renames a property label that clashes with a declared name,
  is timed in synth: it runs inside `synth_module`, and an older checkout's
  `emit._name_labels`, which ran after `gen_properties`, is timed there too;
- `gc_off`: the same with the collector disabled;
- `cli`: `cli.main(["gen", PATH, "--tool", "both", "-o", DIR])` as a user's
  process calls it, with the collector enabled on entry, and the number of
  collections that ran inside it.

The staged runs must write the same bytes as `cli.main`, and the two sides
the same bytes as each other. A time is the median over rounds. Each wide
input's record holds, next to its transaction count, its count of distinct
transaction shapes as this checkout's synthesis groups them (`shapes`):
`gen` makes and renders the properties of one transaction per shape and
fills in the others from templates, so its gain rests on that ratio.

After the timed rounds, each side makes two untimed passes over each wide
input under `tracemalloc`, and their peaks of traced memory, in MB, are
recorded: `generate_bundle` followed by `write_bundle`, the source already
read, under `tracemalloc_peak_mb`, and `cli.main(["gen", PATH, "--tool",
"both", "-o", DIR])`, which reads the source itself and is what `gen` runs,
under `tracemalloc_cli_peak_mb`. With two sides, the ratio after/before of
each input's two peaks of either kind is under
`tracemalloc_peak_after_over_before` and
`tracemalloc_cli_peak_after_over_before`. The JSON
written has the per-input medians of each side, group totals (wide
transactions per second through `cli.main`, deep parse MB/s, per-stage sums
over the wide files) and, with two sides, the ratio after/before of each
total, and under `paired_after_over_before` that ratio's quartiles over the
rounds' pairs of turns, in which host drift cancels: a stage is judged
against its own spread. The totals also hold synth + props on the largest
wide file alone, with and without the collector.
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
# Stage -> the functions that `emit.generate_bundle` calls for it, looked up in `emit`'s module globals;
# a side whose `emit` lacks one of them (an older or newer checkout) skips it.
STAGE_CALLS = {
    "parse": ("parse_module",),
    "build": ("build_transactions",),
    "synth": ("synth_module_aux", "synth_module", "_name_labels"),
    "props": ("gen_properties", "apply_link_transforms"),
    "emit": ("emit_property_module", "emit_bind_file", "emit_tool_files"),
}
STAGES = (*STAGE_CALLS, "write")
MODULES = ("cli", "emit", "options")


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


def staged(af, path: str, outdir: Path) -> dict[str, float]:
    """`emit.generate_bundle` with its stage calls timed, then `emit.write_bundle`; wall ms per stage."""
    source = Path(path).read_text(encoding="utf-8")
    opts = af.options.GenOptions(tool="both")
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

    saved = {name: getattr(af.emit, name) for names in STAGE_CALLS.values() for name in names
             if hasattr(af.emit, name)}
    for stage, names in STAGE_CALLS.items():
        for name in names:
            if name in saved:
                setattr(af.emit, name, timed(stage, saved[name]))
    try:
        bundle = af.emit.generate_bundle(source, path, opts)
    finally:
        for name, fn in saved.items():
            setattr(af.emit, name, fn)
    t0 = clock()
    af.emit.write_bundle(bundle, outdir)
    seconds["write"] = clock() - t0
    return {f"{s}_ms": v * 1e3 for s, v in seconds.items()}


def shape_count(af, path: str) -> int:
    """The count of one input's distinct transaction shapes (direction, role names, None roles), as `af` groups them."""
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


def peak_mb(af, path: str, outdir: Path) -> float:
    """The `tracemalloc` peak of `generate_bundle` then `write_bundle` on one input, read beforehand."""
    source = Path(path).read_text(encoding="utf-8")
    opts = af.options.GenOptions(tool="both")
    return traced_peak_mb(lambda: af.emit.write_bundle(af.emit.generate_bundle(source, path, opts), outdir))


def cli_peak_mb(af, path: str, outdir: Path) -> float:
    """The `tracemalloc` peak of `cli.main(["gen", ...])` on one input, as `gen` runs it; it reads the input."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return traced_peak_mb(lambda: af.cli.main(["gen", path, "--tool", "both", "-o", str(outdir)]))


def collections() -> int:
    return sum(s["collections"] for s in gc.get_stats())


def turn(af, path: str, tmp: Path) -> tuple[dict, dict[str, bytes]]:
    """One side's three measurements on one input, and the bytes its `cli.main` wrote."""
    out = {}
    for mode in ("gc_on", "gc_off"):
        gc.collect()
        (gc.enable if mode == "gc_on" else gc.disable)()
        try:
            out[mode] = staged(af, path, tmp / mode)
        finally:
            gc.enable()
    gc.collect()
    before, t0 = collections(), time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = af.cli.main(["gen", path, "--tool", "both", "-o", str(tmp / "cli")])
    out["cli"] = {"gen_ms": (time.perf_counter() - t0) * 1e3, "collections": collections() - before}
    if rc != 0:
        raise RuntimeError(f"autoft gen {path} exited {rc}")
    trees = [{str(p.relative_to(tmp / d)): p.read_bytes() for p in (tmp / d).rglob("*") if p.is_file()}
             for d in ("gc_on", "gc_off", "cli")]
    if not trees[0] == trees[1] == trees[2]:
        raise RuntimeError(f"the staged pipeline and cli.main wrote different files for {path}")
    return out, trees[2]


def summarize(files: list[dict], runs: dict[str, list[dict]]) -> dict:
    per_input = {
        name: {part: {k: round(statistics.median(r[part][k] for r in rs), 2) for k in rs[0][part]}
               for part in rs[0]}
        for name, rs in runs.items()
    }
    for rec in per_input.values():
        for mode in ("gc_on", "gc_off"):
            rec[mode]["total_ms"] = round(sum(rec[mode][f"{s}_ms"] for s in STAGES), 2)

    def total(group: str, part: str, key: str) -> float:
        return sum(per_input[f["name"]][part][key] for f in files if f["group"] == group)

    deep_mb = sum(f["bytes"] for f in files if f["group"] == "deep") / 1e6
    wide_txns = sum(f["txns"] for f in files if f["group"] == "wide")
    biggest = max((f for f in files if f["group"] == "wide"), key=lambda f: f["txns"])["name"]
    totals = {
        "wide_cli_txn_per_s": round(wide_txns / total("wide", "cli", "gen_ms") * 1e3, 1),
        "wide_cli_collections": total("wide", "cli", "collections"),
        **{f"wide_{mode}_{s}_ms": round(total("wide", mode, f"{s}_ms"), 1)
           for mode in ("gc_on", "gc_off") for s in (*STAGES, "total")},
        "wide_cli_over_gc_off": round(total("wide", "cli", "gen_ms") / total("wide", "gc_off", "total_ms"), 3),
        f"{biggest}_cli_over_gc_off": round(per_input[biggest]["cli"]["gen_ms"]
                                            / per_input[biggest]["gc_off"]["total_ms"], 3),
        **{f"{biggest}_{mode}_synth_props_ms": round(per_input[biggest][mode]["synth_ms"]
                                                     + per_input[biggest][mode]["props_ms"], 1)
           for mode in ("gc_on", "gc_off")},
        "deep_parse_mb_per_s": round(deep_mb / total("deep", "gc_on", "parse_ms") * 1e3, 3),
        "deep_cli_mb_per_s": round(deep_mb / total("deep", "cli", "gen_ms") * 1e3, 3),
        "fixtures_cli_ms": round(total("fixtures", "cli", "gen_ms"), 3),
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
        peaks = {side: {f["name"]: peak_mb(af, f["path"], Path(tmp) / "peak" / side) for f in wide}
                 for side, af in sides.items()}
        cli_peaks = {side: {f["name"]: cli_peak_mb(af, f["path"], Path(tmp) / "cli_peak" / side) for f in wide}
                     for side, af in sides.items()}

    result = {
        "inputs": [{k: f[k] for k in ("name", "group", "bytes", "txns", "shapes") if k in f} for f in files],
        **{side: summarize(files, runs[side]) for side in sides},
        "tracemalloc_peak_mb": peaks,
        "tracemalloc_cli_peak_mb": cli_peaks,
    }
    if args.src:
        result["after_over_before"] = twin.ratios(result["after"]["totals"], result["before"]["totals"])
        result["tracemalloc_peak_after_over_before"] = twin.ratios(peaks["after"], peaks["before"])
        result["tracemalloc_cli_peak_after_over_before"] = twin.ratios(cli_peaks["after"], cli_peaks["before"])
        rounds = {side: [summarize(files, {n: [rs[k]] for n, rs in runs[side].items()})["totals"]
                         for k in range(args.rounds)] for side in sides}
        result["paired_after_over_before"] = twin.paired(rounds["after"], rounds["before"])
    twin.write(__file__, args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
