"""Benchmark of vtopt, run from the root of a source checkout.

    python3 perfbench/run.py --workload default_run --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all     # every workload, untraced then traced;
                                       # prints a table and writes BENCHMARK.json

One run prints progress lines and, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. vtopt is imported from the
checkout's src/ only; without it the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = [w["name"] for w in spec.WORKLOADS]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    return args


def import_vtopt():
    """Import vtopt from this checkout's sources, with BLAS on one thread.

    One thread: a BLAS worker that waits for a core another process holds
    spins, which inflates the caller's CPU time; and one thread ran the
    160x80 slice no slower than two on this 2-core machine.
    """
    if not (SRC / "vtopt" / "__init__.py").is_file():
        raise ImportError(f"no vtopt sources under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import vtopt
    if Path(vtopt.__file__).resolve().parent != SRC / "vtopt":
        raise ImportError(f"vtopt was imported from {vtopt.__file__}, not from {SRC}")


def run_one(args) -> int:
    try:
        import_vtopt()
    except ImportError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import workloads
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            WORK / args.workload)
    for problem in outcome["problems"]:
        print(f"check failed: {problem}")
    units = spec.PER_LAYER if args.trace else {m["name"]: m["unit"] for m in spec.END_TO_END}
    for name, unit in units.items():
        print(f"{args.workload} {name} = {outcome['metrics'][name]:.6g} {unit}")
    print(f"{args.workload} attempted = {outcome['attempted']} failed = {outcome['failed']}")
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced, one after the other."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exited {done.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{name} --trace {trace}: correct={result['correct']}\n", flush=True)
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
