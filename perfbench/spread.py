"""Run-to-run spread of the end-to-end metrics, over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workload gen-wide ...]

Runs the benchmark once per workload and seed, untraced, with the
`run_seconds` of BENCHMARK.json, and prints per metric the median and the
spread: the distance between the first and third quartile as a share of
the median, beside the metric's bound. A spread above a third of the bound
is flagged.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            res = json.loads(done.stdout.strip().splitlines()[-1])
            if res["failed"]:
                print(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} operations failed")
                status = 1
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        print(f"{workload} ({len(args.seeds)} seeds)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > bounds[name] / 3:
                flag = "  above a third of the bound: " + " ".join(f"{v:.4g}" for v in vals)
            print(f"  {name:<20} median {med:>12.4f}  spread {spread:6.3f}  bound {bounds[name]:.2f}{flag}")
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
