"""Self-test of the benchmark, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload prints every metric that BENCHMARK.json names,
with its unit; that a corrupted output counts as a failed operation; that
within each traced operation the child spans never cover more than their
parent; and that the benchmark refuses to run without the program's
sources.  Exits nonzero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import timed, verify  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "selftest"


def expect(cond, message):
    if not cond:
        raise SystemExit(f"FAIL {message}")


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def check_metrics_printed(spec):
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(name, trace)
            expect(proc.returncode == 0,
                   f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            header, last = json.loads(lines[-2]), json.loads(lines[-1])
            expect(set(last) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace}: result keys {sorted(last)}")
            expect(last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"],
                   f"{name} trace={trace}: attempted/failed {last['attempted']}/{last['failed']}")
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            expect(got == expected[trace], f"{name} trace={trace}: metrics {sorted(got)}")
            for metric in last["metrics"].values():
                expect(isinstance(metric["value"], float) and np.isfinite(metric["value"]),
                       f"{name} trace={trace}: metric value {metric['value']!r}")
            expect(header["error_rate"][1] == "ratio" and header["op_samples"] >= 1,
                   f"{name} trace={trace}: header lacks error_rate or op_samples")
            expect(header["env"]["blas_threads_pinned"] == 1, f"{name}: BLAS threads not pinned")
            if not trace:
                expect(set(header) >= {"ops_per_s", "op_p50_s", "setup_s", "peak_rss_mb"},
                       f"{name}: header lacks an end-to-end metric")
            print(f"ok   metrics printed: {name} trace={trace} "
                  f"(failed {last['failed']}/{last['attempted']})")


def perturb_curve_row(workload, i):
    path = Path(workload.case(i).files["out"]).with_suffix(".curve.csv")
    lines = path.read_text().splitlines()
    t, f, df = lines[5].split(",")
    lines[5] = f"{t},{float(f) + 1e-3!r},{df}"
    path.write_text("\n".join(lines) + "\n")


def check_corruption_detected():
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(SCRATCH / name, np.random.default_rng(0), "tiny")
        # op 0 is a healthy operation on every workload (posterior_band: rho = 1e2)
        with contextlib.redirect_stdout(io.StringIO()):
            wall, out, err = timed(workload, 0)
        expect(verify(workload, 0, out, err) is None, f"{name}: clean output rejected")
        if name == "posterior_band":
            mean, var = out
            mean = mean.copy()
            mean[5] = np.nan
            out = (mean, var)
        else:
            perturb_curve_row(workload, 0)
        expect(verify(workload, 0, out, err) is not None, f"{name}: corrupted output accepted")
        print(f"ok   corrupted output counted as failed: {name}")


def check_span_nesting():
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(SCRATCH / f"{name}-traced", np.random.default_rng(0), "tiny")
        tracer = Tracer()
        with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
            timed(workload, 0, tracer)
        per_op = tracer.per_operation()[0]
        op = per_op.pop("op")
        children = op["busy_ns"] - op["self_ns"]
        expect(0 < children <= op["busy_ns"], f"{name}: children {children} > wall {op['busy_ns']}")
        for span, stats in per_op.items():
            expect(stats["self_ns"] >= 0, f"{name}: {span} children exceed it")
            if span in ("fit.evaluate", "hermite.basis_evaluate", "bayes.variance"):
                # every evaluation in an operation is on the GRID-point curve
                expect(stats["amount"] == stats["calls"] * workloads.GRID,
                       f"{name}: {span} counted {stats['amount']} points")
        print(f"ok   traced child busy <= op wall: {name} "
              f"({children / op['busy_ns']:.1%} of the wall covered)")


def check_refuses_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench("select_cv", 0, cwd=bare, script=bare / HERE.name / "run.py")
    expect(proc.returncode != 0 and not proc.stdout.strip(), "ran without the program")
    print("ok   refuses to run without the program's sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        check_corruption_detected()
        check_span_nesting()
        check_refuses_without_sources()
        check_metrics_printed(spec)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
