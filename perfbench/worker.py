"""One workload process: set up, run the closed loop, check every output.

Started by ``run.py`` with the BLAS thread count already pinned in its
environment.  Set-up covers the imports, input generation and file writes,
and a warm-up operation at a tiny size that loads every lazily imported
module and code path; it ends at the first timed operation, whose
monotonic clock reading is reported as ``ready`` so the launcher can time
set-up from process start.

A single client runs operations back to back until ``--seconds`` have
passed; each one starts only after the previous one and its check have
finished.  With ``--trace 1`` every operation runs twice, untraced and then
traced on the same input, so the tracing overhead is measured on matched
work.  The last line of standard output is one JSON object for the
launcher.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_REPORTED_ERRORS = 5


def _blas_runtime_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                get_threads = getattr(lib, symbol)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                out[Path(path).name] = get_threads()
                break
    return out


def environment():
    import numpy
    import scipy
    np_blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sp_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{np_blas.get('name')} {np_blas.get('version')}",
        "scipy_blas": f"{sp_blas.get('name')} {sp_blas.get('version')}",
        "blas_threads_pinned": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "blas_threads_runtime": _blas_runtime_threads(),
    }


def timed(workload, i, tracer=None):
    """Run operation i; return (wall seconds, output, error or None)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(i)
        else:
            with tracer.operation(i):
                out = workload.run(i)
    except (Exception, SystemExit) as exc:  # a failed operation, not a failed benchmark
        wall = time.perf_counter() - start
        return wall, None, f"op {i} raised {type(exc).__name__}: {exc}\n{traceback.format_exc()}"
    return time.perf_counter() - start, out, None


def verify(workload, i, out, error):
    """None if operation i succeeded and its output checks out, else the reason."""
    if error is not None:
        return error
    from workloads import CheckFailed
    try:
        workload.check(i, out)
    except CheckFailed as exc:
        return f"op {i} check failed: {exc}"
    except Exception as exc:  # unreadable output also fails the operation
        return f"op {i} check raised {type(exc).__name__}: {exc}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file for the traced run's spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy as np
    import vspline
    if not Path(vspline.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"vspline imported from {vspline.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workload = cls(workdir / "inputs", np.random.default_rng(args.seed), args.size)
    warmup = cls(workdir / "warmup", np.random.default_rng(args.seed), "tiny")
    _, out, err = timed(warmup, 0)
    verify(warmup, 0, out, err)  # warm-up outcomes are not counted
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    deadline = ready + args.seconds
    walls, traced_walls, errors = [], [], []
    i = 0
    while True:
        wall, out, err = timed(workload, i)
        walls.append(wall)
        errors.append(verify(workload, i, out, err))
        if tracer is not None:
            with tracer.installed():
                wall, out, err = timed(workload, i, tracer)
            traced_walls.append(wall)
            errors.append(verify(workload, i, out, err))
        i += 1
        if time.monotonic() >= deadline:
            break

    failures = [e for e in errors if e is not None]
    for message in failures[:MAX_REPORTED_ERRORS]:
        print(message, file=sys.stderr)
    result = {
        "ready": ready,
        "walls": walls,
        "attempted": len(errors),
        "failed": len(failures),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(),
    }
    if tracer is not None:
        from tracer import layer_metrics
        result["layers"] = layer_metrics(tracer, walls, traced_walls)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
