"""Self-test of the benchmark: it passes on good code and fails on bad code.

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that

* a short run of every workload, untraced and traced, finishes with no
  failed operation;
* each injected fault makes some operation fail: one flipped byte in a
  golden file (cli-fixtures), an evaluator that returns a wrong verdict
  (oracle), a trace enumeration that skips every hundredth trace (oracle),
  a generator that drops a property (gen-wide);
* in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits with a code other than 0 and prints no result.

Faults are injected into copies under perfbench/_work or into the
benchmark's own process, never into the checkout. Exit code 0 when every
check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work" / "selftest"
SEED = 7
WORKLOADS = ("cli-fixtures", "gen-wide", "gen-deep", "oracle")


def result(cmd: list[str], cwd: Path) -> tuple[int, dict | None, str]:
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return done.returncode, last, done.stdout + done.stderr


def bench(workload: str, trace: int = 0, cwd: Path = ROOT, inject: str | None = None):
    runner = ["perfbench/selftest.py", "--inject", inject, "--"] if inject else ["perfbench/run.py"]
    args = ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return result([sys.executable, *runner, *args], cwd)


def copy_checkout(name: str) -> Path:
    dst = WORK / name
    shutil.rmtree(dst, ignore_errors=True)
    ignore = shutil.ignore_patterns("_work", "__pycache__", ".git")
    for part in ("src", "tests", "fixtures", "perfbench"):
        shutil.copytree(ROOT / part, dst / part, ignore=ignore)
    shutil.copy2(ROOT / "BENCHMARK.json", dst)
    return dst


def inject(fault: str) -> None:
    """Patch the benchmark's own process so the program under test misbehaves."""
    sys.path.insert(0, str(HERE))
    import workloads

    real_import = workloads.fresh_import

    def patched():
        af = real_import()
        if fault == "wrong-verdict":
            evaluate = af.tracecheck.eval_property

            def wrong(p, trace):
                v = evaluate(p, trace)
                if p.kind == "uniqueness" and v.outcome == "holds":
                    return type(v)(v.property_name, "violated", 0)
                return v
            af.tracecheck.eval_property = wrong
        elif fault == "drop-traces":
            enumerate_traces = af.tracecheck.enumerate_traces

            def dropping(*args, **kwargs):
                for i, trace in enumerate(enumerate_traces(*args, **kwargs)):
                    if i % 100 != 99:
                        yield trace
            af.tracecheck.enumerate_traces = dropping
        elif fault == "drop-property":
            main = af.cli.main

            def dropping(argv):
                rc = main(argv)
                out = Path(argv[argv.index("-o") + 1])
                for prop in out.glob("*/*_prop.sv"):
                    lines = prop.read_text().splitlines(keepends=True)
                    first = next(i for i, line in enumerate(lines) if " assert property (" in line)
                    prop.write_text("".join(lines[:first] + lines[first + 2:]))
                return rc
            af.cli.main = dropping
        else:
            raise SystemExit(f"unknown fault {fault}")
        return af

    workloads.fresh_import = patched


def main() -> int:
    if len(sys.argv) > 2 and sys.argv[1] == "--inject":
        inject(sys.argv[2])
        import run

        return run.main(sys.argv[4:])

    checks: list[tuple[str, bool, str]] = []

    def expect(what: str, ok: bool, detail: str) -> None:
        checks.append((what, ok, detail))
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            print(detail[-3000:], flush=True)

    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, res, log = bench(workload, trace)
            expect(f"{workload} trace {trace}: runs clean", rc == 0 and res is not None
                   and res["failed"] == 0 and res["correct"] and res["attempted"] > 0, log)

    copy = copy_checkout("flipped-golden")
    golden = copy / "tests" / "golden" / "fifo" / "fifo_prop.sv"
    data = bytearray(golden.read_bytes())
    data[len(data) // 2] ^= 0x01
    golden.write_bytes(bytes(data))
    rc, res, log = bench("cli-fixtures", cwd=copy)
    expect("flipped golden byte fails cli-fixtures", rc == 0 and res is not None and res["failed"] > 0, log)

    rc, res, log = bench("oracle", inject="wrong-verdict")
    expect("wrong verdict fails oracle", rc == 0 and res is not None and res["failed"] > 0, log)

    rc, res, log = bench("oracle", inject="drop-traces")
    expect("dropped traces fail oracle", rc == 0 and res is not None and res["failed"] > 0, log)

    rc, res, log = bench("gen-wide", inject="drop-property")
    expect("dropped property fails gen-wide", rc == 0 and res is not None and res["failed"] > 0, log)

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    rc, res, log = bench("gen-wide", cwd=bare)
    expect("benchmark alone exits non-zero without a result", rc != 0 and res is None, log)

    failed = [what for what, ok, _ in checks if not ok]
    print(f"{len(checks) - len(failed)}/{len(checks)} self-test checks hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
