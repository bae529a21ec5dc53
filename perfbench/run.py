"""autoft benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload gen-wide --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. `--trace 0` prints the end-to-end metrics
of BENCHMARK.json, `--trace 1` runs the same operations through the staged
pipeline and prints the per-layer metrics. Human-readable lines come first;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 whenever
that line is printed, also when some operation failed its check; it is 2
when the checkout lacks the program or its fixtures.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = workloads.require_checkout()
    if missing:
        print(f"error: not an autoft checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    if args.trace:
        import layers

        result = layers.run(args.workload, args.seed, args.seconds)
    else:
        result = workloads.run(args.workload, args.seed, args.seconds)
    rec = result["rec"]
    for line in report_lines(args, result):
        print(line)
    print(json.dumps({
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": result["metrics"],
    }))
    return 0


def report_lines(args, result) -> list[str]:
    rec, notes = result["rec"], result["notes"]
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {notes['rounds']}"]
    for name, m in result["metrics"].items():
        extra = ""
        if name == "cli_tail_ms":
            extra = "p{1:.1f} of n={2}".format(*notes["cli_tail"])
        elif name == "file_tail_ms":
            extra = "p{1:.1f} of n={2}".format(*notes["file_tail"])
        lines.append(f"  {name:<34} {m['value']:>14.4f} {m['unit']:<6} {extra}")
    ratio = len(rec.failures) / rec.attempted
    lines.append(f"  {'fail_ratio':<34} {ratio:>14.4f} {'':<6} {len(rec.failures)}/{rec.attempted} operations")
    for key, value in notes.items():
        if key not in ("rounds", "cli_tail", "file_tail", "floor"):
            lines.append(f"  note {key}: {value}")
    if notes.get("floor"):
        floor = sorted(notes["floor"])
        lines.append(f"  reference python -c pass: {floor[len(floor) // 2]:.1f} ms median of {len(floor)}")
    lines.extend(f"  FAILED {what}" for what in rec.failures[:20])
    return lines


if __name__ == "__main__":
    sys.exit(main())
