"""vspline benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload select_cv --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  Workloads (see README.md): select_cv, fit_weighted,
select_gcv_corr, posterior_band.

Each workload runs in its own process with OpenBLAS/OpenMP pinned to one
thread: at the default two threads, single dense solves run about three
times slower with a long tail, and selections differ in the last digits
across thread counts.
With ``--trace 0`` the end-to-end metrics are printed; set-up is repeated
in separate processes and its median reported.  With ``--trace 1`` the
per-layer metrics from the outside-in tracer are printed instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment header, every metric, the per-operation walls and
the set-up samples.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_SAMPLES = 5        # set-up is timed this many times per run; median reported
TIME_LIMIT_S = 170.0     # whole run, all processes included
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def spawn(args, workdir, deadline, extra=()):
    """Run one worker process to completion; return (spawn time, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", str(workdir), *extra]
    env = dict(os.environ, **PINNED)
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return start, json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one vspline benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "vspline" / "__init__.py").is_file():
        print(f"no vspline sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    rundir = STATE / f"run-{os.getpid()}"
    try:
        setup = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                start, probe = spawn(args, rundir / f"probe{k}", deadline, ["--setup-only"])
                setup.append(probe["ready"] - start)
        spans = STATE / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        start, res = spawn(args, rundir / "main", deadline,
                           ["--spans", str(spans)] if args.trace else [])
        setup.append(res["ready"] - start)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    walls = res["walls"]
    summary = {
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = summary
    header = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "loop": "closed, 1 client",
        "env": res["env"],
        "op_samples": len(walls), "op_walls_s": walls, "setup_samples_s": setup,
        "error_rate": (res["failed"] / res["attempted"], "ratio"),
        **({} if args.trace else summary),
    }
    print(json.dumps(header))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
