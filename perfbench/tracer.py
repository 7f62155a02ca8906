"""Outside-in layer tracer for the benchmark's traced runs.

The program under test has no timing hooks, so the tracer wraps each
public function at its module boundary instead: it rebinds the name in
every ``vspline`` module that holds the function (``from .x import f``
copies the binding, so patching only the home module would miss callers),
and patches methods on their classes.  Spans carry a name, start, end,
parent span and the operation they belong to; they stay in memory and are
written out once, at the end of the run.

Nothing here is imported by the untraced run, so end-to-end numbers carry
no tracing cost.  The traced run reports that cost as
``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _size_of_result(args, kwargs, result):
    return int(np.size(result))


def _size_of_points(args, kwargs, result):
    # every traced method takes the evaluation points t as its last argument
    return int(np.size(kwargs["t"] if "t" in kwargs else args[-1]))


def _score_key(args, kwargs, result):
    # cv_closed_form / gcv_score / gcv_correlated take (t, y, v, lam, gamma, ...)
    return (float(args[3]), float(args[4]))


# span name -> (module-level functions, per-call measure)
FUNCTIONS = {
    "cli.main": ([("vspline.cli", "main")], None),
    "fit.rescale_domain": ([("vspline.fit", "rescale_domain")], None),
    "fit.fit_vspline": ([("vspline.fit", "fit_vspline")], None),
    "fit.build_gram": ([("vspline.fit", "build_gram")], None),
    "fit.solve_coefficients": ([("vspline.fit", "solve_coefficients")], None),
    "kernels.eval": ([("vspline.kernels", name) for name in
                      ("eval_r0", "eval_r1", "eval_r1_ds", "eval_r1_dt", "eval_r1_dsdt")],
                     _size_of_result),
    "hermite.build_design": ([("vspline.hermite", "build_design")], None),
    "hermite.fit_theta": ([("vspline.hermite", "fit_theta")], None),
    "hermite.hat_matrices": ([("vspline.hermite", "hat_matrices")], None),
    "hermite.hat_matrices_correlated": ([("vspline.hermite", "hat_matrices_correlated")], None),
    "gcv.score": ([("vspline.gcv", name) for name in
                   ("cv_closed_form", "gcv_score", "gcv_correlated")], _score_key),
    "gcv.optimize_params": ([("vspline.gcv", "optimize_params")], None),
    "bayes.posterior_mean_finite_rho": ([("vspline.bayes", "posterior_mean_finite_rho")], None),
}

# span name -> (methods as (module, class, method), per-call measure)
METHODS = {
    "fit.evaluate": ([("vspline.fit", "VSplineFit", "evaluate"),
                      ("vspline.fit", "VSplineFit", "evaluate_deriv")], _size_of_points),
    "hermite.basis_evaluate": ([("vspline.hermite", "HermiteBasis", "evaluate"),
                                ("vspline.hermite", "HermiteBasis", "evaluate_deriv")],
                               _size_of_points),
    "bayes.variance": ([("vspline.bayes", "PosteriorSummary", "variance")], _size_of_points),
}

# per-layer metrics: (span name, statistic, unit)
LAYER_METRICS = [
    ("hermite.build_design", "calls", "count"),
    ("hermite.build_design", "busy_s", "s"),
    ("hermite.fit_theta", "calls", "count"),
    ("hermite.fit_theta", "busy_s", "s"),
    ("hermite.hat_matrices", "calls", "count"),
    ("hermite.hat_matrices", "busy_s", "s"),
    ("hermite.hat_matrices_correlated", "calls", "count"),
    ("hermite.hat_matrices_correlated", "busy_s", "s"),
    ("hermite.basis_evaluate", "points", "count"),
    ("hermite.basis_evaluate", "busy_s", "s"),
    ("gcv.score", "calls", "count"),
    ("gcv.score", "busy_s", "s"),
    ("gcv.score", "self_s", "s"),
    ("gcv.score", "failed", "count"),
    ("gcv.score", "useful_ratio", "ratio"),
    ("gcv.optimize_params", "busy_s", "s"),
    ("gcv.optimize_params", "self_s", "s"),
    ("kernels.eval", "calls", "count"),
    ("kernels.eval", "entries", "count"),
    ("kernels.eval", "busy_s", "s"),
    ("kernels.eval", "ns_per_entry", "ns"),
    ("fit.build_gram", "calls", "count"),
    ("fit.build_gram", "busy_s", "s"),
    ("fit.build_gram", "self_s", "s"),
    ("fit.evaluate", "points", "count"),
    ("fit.evaluate", "busy_s", "s"),
    ("fit.evaluate", "self_s", "s"),
    ("fit.solve_coefficients", "calls", "count"),
    ("fit.solve_coefficients", "busy_s", "s"),
    ("bayes.posterior_mean_finite_rho", "calls", "count"),
    ("bayes.posterior_mean_finite_rho", "busy_s", "s"),
    ("bayes.posterior_mean_finite_rho", "self_s", "s"),
    ("bayes.variance", "points", "count"),
    ("bayes.variance", "busy_s", "s"),
    ("bayes.variance", "self_s", "s"),
    ("cli.main", "calls", "count"),
    ("cli.main", "busy_s", "s"),
    ("cli.main", "self_s", "s"),
]

# span record fields
NAME, PARENT, OP, START, END, FAILED, INFO = range(7)


class Tracer:
    """Records spans around calls into the program's layers.

    Use :meth:`installed` around the traced part of a run and
    :meth:`operation` around each operation; spans opened outside an
    operation are still recorded but belong to operation ``None``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, self._op, 0, 0, False, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid, start, failed=False, info=None):
        end = time.perf_counter_ns()
        self._stack.pop()
        rec = self.spans[sid]
        rec[START], rec[END], rec[FAILED], rec[INFO] = start, end, failed, info

    def _wrap(self, name, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, start, failed=True,
                              info=measure(args, kwargs, None) if measure else None)
                raise
            tracer._close(sid, start, info=measure(args, kwargs, result) if measure else None)
            return result

        return traced

    @contextmanager
    def operation(self, index):
        """Root span of one benchmark operation."""
        self._op = index
        sid = self._open("op")
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, start)
            self._op = None

    @contextmanager
    def installed(self):
        """Patch every traced boundary; restore the originals on exit."""
        restore = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "vspline" or key.startswith("vspline."))]
        try:
            for name, (targets, measure) in FUNCTIONS.items():
                for mod_name, attr in targets:
                    original = getattr(sys.modules[mod_name], attr)
                    wrapper = self._wrap(name, original, measure)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                restore.append((mod, key, original))
                                setattr(mod, key, wrapper)
            for name, (targets, measure) in METHODS.items():
                for mod_name, cls_name, attr in targets:
                    cls = getattr(sys.modules[mod_name], cls_name)
                    original = cls.__dict__[attr]
                    restore.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original, measure))
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for sid, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": rec[PARENT], "op": rec[OP],
                                     "name": rec[NAME], "start_ns": rec[START],
                                     "end_ns": rec[END], "failed": rec[FAILED]}) + "\n")

    def per_operation(self):
        """Layer totals per operation, as {op: {span name: {stat: value}}}.

        ``busy_ns`` sums span durations, ``self_ns`` subtracts the time
        covered by each span's direct children, ``amount`` sums the
        per-call measure (points, entries) of calls that returned, and
        ``useful`` counts score calls that returned at a (lam, gamma) not
        scored before in the operation.  The root span of each operation
        appears under the name ``op``.
        """
        child_ns = defaultdict(int)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        ops: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))
        seen_keys = defaultdict(set)
        for sid, rec in enumerate(self.spans):
            op = rec[OP]
            if op is None:
                continue
            dur = rec[END] - rec[START]
            stats = ops[op][rec[NAME]]
            stats["calls"] += 1
            stats["busy_ns"] += dur
            stats["self_ns"] += dur - child_ns[sid]
            stats["failed"] += int(rec[FAILED])
            info = rec[INFO]
            if isinstance(info, tuple):
                if not rec[FAILED] and info not in seen_keys[op]:
                    stats["useful"] += 1
                seen_keys[op].add(info)
            elif info is not None and not rec[FAILED]:
                stats["amount"] += info
        return ops


def layer_metrics(tracer: Tracer, untraced_walls, traced_walls):
    """Per-layer metrics as {name: (value, unit)}, averaged per operation."""
    ops = tracer.per_operation()
    n_ops = max(len(traced_walls), 1)

    def total(name, key):
        return sum(op[name][key] for op in ops.values() if name in op)

    out = {}
    for name, stat, unit in LAYER_METRICS:
        calls = total(name, "calls")
        if stat == "calls":
            value = calls / n_ops
        elif stat in ("points", "entries"):
            value = total(name, "amount") / n_ops
        elif stat == "busy_s":
            value = total(name, "busy_ns") * 1e-9 / n_ops
        elif stat == "self_s":
            value = total(name, "self_ns") * 1e-9 / n_ops
        elif stat == "failed":
            value = total(name, "failed") / n_ops
        elif stat == "useful_ratio":
            value = total(name, "useful") / calls if calls else 0.0
        elif stat == "ns_per_entry":
            entries = total(name, "amount")
            value = total(name, "busy_ns") / entries if entries else 0.0
        else:
            raise ValueError(f"unknown statistic {stat!r}")
        out[f"{name}.{stat}"] = (value, unit)
    out["trace.overhead_ratio"] = (sum(traced_walls) / sum(untraced_walls), "ratio")
    out["trace.op_wall_s"] = (sum(traced_walls) / n_ops, "s")
    return out
