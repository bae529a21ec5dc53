"""Time `parse_module` and in-process `autoft gen` per input, before and after a change.

    python3 bench/parse_stages.py                                  # this checkout
    python3 bench/parse_stages.py --src OTHER/src --out BENCH.json # OTHER is "before"

Run from the root of a checkout; stdlib only. The inputs are the five bundled
fixtures and perfbench's seeded wide files (250 to 4000 transactions, empty
body) and deep files (1 to 8 transactions, 10k to 50k body lines), drawn by
`perfbench/inputs.py`, which is only imported. `--src` names the `src/`
directory of another checkout, such as a `git worktree` of the parent commit;
it is measured as "before" and this checkout's `src/` as "after".

Each side runs in a child process per round, and rounds alternate which side
goes first, because the speed of a shared host drifts within minutes. In a
round every input is parsed once and generated once (`gen --tool both` into a
temporary directory), after one warm-up `gen` of a fixture. A side's time for
an input is the median over rounds. The JSON written has per-input medians for
each side, group totals (parse MB/s on the deep files, gen transactions/s on
the wide files) and, with two sides, the ratio after/before of each total.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402

FIXTURES = ("fifo", "pipeline", "noc_buffer", "noc_buffer_buggy", "mmu_stub")


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


def measure(src: str, files: list[dict]) -> dict[str, dict[str, float]]:
    """One round in this process: parse and gen wall ms per input, with autoft imported from `src`."""
    sys.path.insert(0, src)
    from autoft import cli, parser

    def gen(path: str, outdir: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["gen", path, "--tool", "both", "-o", outdir])
        if rc != 0:
            raise RuntimeError(f"autoft gen {path} exited {rc}")

    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        gen(files[0]["path"], tmp)  # warm-up: imports and regex compilation
        for f in files:
            text = Path(f["path"]).read_text(encoding="utf-8")
            t0 = time.perf_counter()
            parser.parse_module(text, f["path"])
            t1 = time.perf_counter()
            gen(f["path"], tmp)
            t2 = time.perf_counter()
            times[f["name"]] = {"parse_ms": (t1 - t0) * 1e3, "gen_ms": (t2 - t1) * 1e3}
    return times


def run_side(src: str, files_json: str) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--measure", src, "--files", files_json],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    return json.loads(done.stdout)


def summarize(files: list[dict], rounds: list[dict]) -> dict:
    per_input = {
        f["name"]: {k: round(statistics.median(r[f["name"]][k] for r in rounds), 2) for k in ("parse_ms", "gen_ms")}
        for f in files
    }

    def total(group: str, key: str) -> float:
        return sum(per_input[f["name"]][key] for f in files if f["group"] == group) / 1e3

    deep_mb = sum(f["bytes"] for f in files if f["group"] == "deep") / 1e6
    wide_txns = sum(f["txns"] for f in files if f["group"] == "wide")
    return {
        "per_input": per_input,
        "totals": {
            "deep_parse_mb_per_s": round(deep_mb / total("deep", "parse_ms"), 3),
            "deep_gen_mb_per_s": round(deep_mb / total("deep", "gen_ms"), 3),
            "wide_parse_ms": round(total("wide", "parse_ms") * 1e3, 1),
            "wide_gen_txn_per_s": round(wide_txns / total("wide", "gen_ms"), 1),
            "fixtures_parse_ms": round(total("fixtures", "parse_ms") * 1e3, 3),
            "parse_1000_txn_ms": per_input["wide_2"]["parse_ms"],
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", help="the src/ directory of the checkout to measure as 'before'")
    ap.add_argument("--seed", type=int, default=1, help="perfbench input seed (default 1)")
    ap.add_argument("--rounds", type=int, default=5, help="child processes per side (default 5)")
    ap.add_argument("--out", help="write the JSON here instead of standard output")
    ap.add_argument("--measure", help=argparse.SUPPRESS)  # child: one round of one side
    ap.add_argument("--files", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.measure:
        print(json.dumps(measure(args.measure, json.loads(Path(args.files).read_text()))))
        return 0

    sides = {"after": str(ROOT / "src")}
    if args.src:
        sides = {"before": str(Path(args.src).resolve()), **sides}
    rounds: dict[str, list[dict]] = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        files = write_inputs(args.seed, Path(tmp))
        files_json = Path(tmp) / "files.json"
        files_json.write_text(json.dumps(files))
        order = list(sides)
        for k in range(args.rounds):
            for side in order if k % 2 == 0 else order[::-1]:
                rounds[side].append(run_side(sides[side], str(files_json)))
                print(f"round {k + 1}/{args.rounds} {side} done", file=sys.stderr)

    result = {
        "command": "python3 bench/parse_stages.py" + (" --src <before>/src" if args.src else "")
        + f" --seed {args.seed} --rounds {args.rounds}",
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "inputs": [{k: f[k] for k in ("name", "group", "bytes", "txns")} for f in files],
        **{side: summarize(files, rounds[side]) for side in sides},
    }
    if args.src:
        before, after = result["before"]["totals"], result["after"]["totals"]
        result["after_over_before"] = {k: round(after[k] / before[k], 3) for k in before}
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
