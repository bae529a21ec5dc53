"""Time fresh `autoft` processes, before and after a change: interpreter start, import and each command.

    python3 bench/startup.py                                   # this checkout
    python3 bench/startup.py --src OTHER/src --out BENCH.json  # OTHER is "before"

Run from anywhere; stdlib only. Each item is one fresh process of this
interpreter with `PYTHONPATH` set to the side's `src/`, in the caller's
environment otherwise, run in an empty directory and timed from start to
exit:

- `floor`: `python -c pass`, the interpreter alone;
- `import`: `python -c "import autoft.cli"`;
- `gen_fifo`, `gen_mmu_stub_both`, `check_noc_buffer`, `link_mmu_stub`:
  the commands below, called the way the `autoft` script calls them.

`bench/twin.py` runs the sides' turns, one per item and round. A command
must exit 0, and both sides must print the same output and write the same
files. The JSON written has, per side and item, the quartiles of the wall
times in ms and the median of each round's time above the same side's
floor, and the count and names of the modules `import autoft.cli` adds to
the interpreter's own; with two sides, under `paired_after_over_before`,
the quartiles of each item's after/before ratio over the rounds' pairs of
turns, in which host drift cancels, and under
`paired_above_floor_after_over_before` the same ratio of each round's time
above the side's floor in that round.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import twin

FIXTURES = twin.ROOT / "fixtures"
ENTRY = "import sys; from autoft.cli import main; sys.exit(main())"
ITEMS = {
    "floor": ["-c", "pass"],
    "import": ["-c", "import autoft.cli"],
    "gen_fifo": ["-c", ENTRY, "gen", f"{FIXTURES}/fifo.sv", "-o", "out"],
    "gen_mmu_stub_both": ["-c", ENTRY, "gen", f"{FIXTURES}/mmu_stub.sv", "--tool", "both", "-o", "out"],
    "check_noc_buffer": ["-c", ENTRY, "check", f"{FIXTURES}/noc_buffer.sv"],
    "link_mmu_stub": ["-c", ENTRY, "link", f"{FIXTURES}/mmu_stub.sv", "--child", f"{FIXTURES}/pipeline.sv=am,as",
                      "-o", "out"],
}
ADDED = "import sys; n = set(sys.modules); import autoft.cli; print(*sorted(set(sys.modules) - n))"


def shown(argv: list[str]) -> str:
    """The item's command line, as a user would type it from the root of the checkout."""
    text = " ".join(argv).replace(f"{FIXTURES}/", "fixtures/")
    return text.replace(f"-c {ENTRY}", "autoft") if ENTRY in text else f"python {text}"


def run(src: Path, argv: list[str]) -> tuple[float, tuple]:
    """Wall ms of one process, which must exit 0, and what it showed: its output and the files it wrote."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, *argv], cwd=tmp, env=env, capture_output=True)
        ms = (time.perf_counter() - t0) * 1e3
        tree = {str(p.relative_to(tmp)): p.read_bytes() for p in sorted(Path(tmp).rglob("*")) if p.is_file()}
    if done.returncode != 0:
        raise RuntimeError(f"{shown(argv)} exited {done.returncode} with src {src}:\n{done.stderr.decode()}")
    return ms, (done.stdout, done.stderr, tree)


def summarize(rounds: list[dict[str, float]], src: Path) -> dict:
    """One side's per-item quartiles and median time above the floor, and the modules the import adds."""
    added = subprocess.run([sys.executable, "-c", ADDED], env=dict(os.environ, PYTHONPATH=str(src)),
                           capture_output=True, text=True, check=True).stdout.split()
    quartiles = {item: twin.quartiles([r[item] for r in rounds]) for item in ITEMS}
    return {
        "ms": {item: dict(zip(("q1", "median", "q3"), (round(v, 2) for v in q))) for item, q in quartiles.items()},
        "above_floor_ms": {item: round(statistics.median(r[item] - r["floor"] for r in rounds), 2)
                           for item in ITEMS if item != "floor"},
        "import_adds": {"count": len(added), "modules": added},
    }


def main(argv: list[str] | None = None) -> int:
    args = twin.options(__doc__, rounds=20).parse_args(argv)
    srcs = {"after": twin.ROOT / "src"}
    if args.src:
        srcs = {"before": Path(args.src).resolve(), **srcs}
    rounds: dict[str, list[dict[str, float]]] = {side: [{} for _ in range(args.rounds)] for side in srcs}
    for k, item, order in twin.turns(srcs, list(ITEMS), args.rounds):
        outputs = []
        for side in order:
            rounds[side][k][item], seen = run(srcs[side], ITEMS[item])
            outputs.append(seen)
        if any(seen != outputs[0] for seen in outputs):
            raise RuntimeError(f"the two sides' {item} printed or wrote different bytes")

    result = {
        "items": {item: shown(argv) for item, argv in ITEMS.items()},
        **{side: summarize(rounds[side], src) for side, src in srcs.items()},
    }
    if args.src:
        result["paired_after_over_before"] = twin.paired(rounds["after"], rounds["before"])
        above = {side: [{item: r[item] - r["floor"] for item in ITEMS if item != "floor"} for r in rounds[side]]
                 for side in srcs}
        result["paired_above_floor_after_over_before"] = twin.paired(above["after"], above["before"])
    twin.write(__file__, args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
