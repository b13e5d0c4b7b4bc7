"""Span tracing around the public functions of each framesum layer.

The program is not modified: :meth:`Tracer.install` replaces each traced
function in every ``framesum.*`` module namespace that holds it (the package
imports functions by name, so patching only the defining module would miss
calls), and two methods on their classes.  :meth:`Tracer.uninstall` puts the
originals back.

A span records its wall time; self time is that time minus the time of the
spans it directly encloses.  Inclusive time counts only the outermost span of
a name, so a predictor calling another predictor is not counted twice.
Totals are kept in memory and turned into per-experiment metrics by
:meth:`Tracer.metrics`.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

import numpy as np

#: attribute set on every wrapper, so a scan can tell wrappers from originals.
MARK = "__perfbench_span__"

#: (module, function, span name) for every traced module-level function.
FUNCTIONS = (
    ("framesum.cli", "main", "cli.main"),
    ("framesum.cli", "emit_csv", "cli.emit_csv"),
    ("framesum.experiments", "parse_spec", "experiments.parse"),
    ("framesum.experiments", "run_experiment", "experiments.run"),
    ("framesum.linalg", "hermitian_eig", "linalg.eig"),
    ("framesum.linalg", "extreme_singular_values", "linalg.svd"),
    ("framesum.linalg", "solve_hpd", "linalg.inverse"),
    ("framesum.linalg", "hpd_inverse_apply", "linalg.inverse"),
    ("framesum.frames", "exact_bounds", "frames.exact_bounds"),
    ("framesum.frames", "frame_operator", "frames.frame_operator"),
    ("framesum.frames", "verify_dual", "frames.verify_dual"),
    ("framesum.sums", "finite_sum_predict", "sums.predict"),
    ("framesum.sums", "finite_sum_best_pivot", "sums.predict"),
    ("framesum.sums", "dual_sum_predict", "sums.predict"),
    ("framesum.sums", "operator_sum_predict", "sums.predict"),
    ("framesum.sums", "perturbed_sum_predict", "sums.predict"),
    ("framesum.sums", "build_sum_frame", "sums.build"),
    ("framesum.sums", "build_operator_sum_frame", "sums.build"),
    ("framesum.sums", "build_perturbed_sum_frame", "sums.build"),
    ("framesum.sums", "certify", "sums.certify"),
    ("framesum.gabor", "estimate_bounds", "gabor.estimate"),
    ("framesum.gabor", "shift_overlap_sum", "gabor.overlap"),
    ("framesum.gabor", "translate_energy", "gabor.energy"),
    ("framesum.algorithm", "run", "algorithm.run"),
    ("framesum.algorithm", "validate_bounds_for_frame", "algorithm.validate"),
)

#: (module, class, method, span name or None for a counter only).
METHODS = (
    ("framesum.gabor", "PiecewiseGenerator", "__call__", None),
    ("framesum.algorithm", "ComparisonTable", "rows", "algorithm.table"),
)

#: every per-layer metric and its unit, in report order.
METRIC_UNITS = {
    "cli.self_ms": "ms",
    "cli.emit_csv_ms": "ms",
    "experiments.parse_ms": "ms",
    "experiments.spec_bytes": "bytes",
    "experiments.parse_mb_per_s": "MB/s",
    "experiments.run_self_ms": "ms",
    "linalg.eig_calls": "count",
    "linalg.eig_ms": "ms",
    "linalg.eig_work_n3": "n3",
    "linalg.eig_unique_ratio": "ratio",
    "linalg.svd_calls": "count",
    "linalg.svd_ms": "ms",
    "linalg.inverse_ms": "ms",
    "frames.exact_bounds_calls": "count",
    "frames.exact_bounds_self_ms": "ms",
    "frames.frame_operator_ms": "ms",
    "frames.verify_dual_ms": "ms",
    "sums.predict_ms": "ms",
    "sums.build_ms": "ms",
    "sums.certify_calls": "count",
    "sums.certify_self_ms": "ms",
    "gabor.estimate_calls": "count",
    "gabor.estimate_self_ms": "ms",
    "gabor.exact_ratio": "ratio",
    "gabor.overlap_ms": "ms",
    "gabor.energy_ms": "ms",
    "gabor.window_points": "points",
    "algorithm.run_calls": "count",
    "algorithm.iterations": "count",
    "algorithm.run_self_ms": "ms",
    "algorithm.us_per_iter": "us",
    "algorithm.validate_ms": "ms",
    "algorithm.table_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def framesum_namespaces() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "framesum" or n.startswith("framesum.")]


def installed_wrappers() -> list[str]:
    """``module.attribute`` of every wrapper currently reachable in framesum."""
    found = []
    for ns in framesum_namespaces():
        for key, value in vars(ns).items():
            if getattr(value, MARK, None) is not None:
                found.append(f"{ns.__name__}.{key}")
            if isinstance(value, type):
                found.extend(
                    f"{ns.__name__}.{key}.{attr}"
                    for attr, member in vars(value).items()
                    if getattr(member, MARK, None) is not None
                )
    return found


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Accumulates span totals and layer counters while installed."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.experiments = 0
        self._stack = []
        self._depth = Counter()
        self._eig_inputs = set()
        self._patched = []

    # -- recording -----------------------------------------------------------

    def _span(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            child = [0]
            tracer._stack.append(child)
            tracer._depth[name] += 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                tracer._stack.pop()
                tracer._depth[name] -= 1
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.calls[name] += 1
                tracer.self_ns[name] += elapsed - child[0]
                if tracer._depth[name] == 0:
                    tracer.inclusive_ns[name] += elapsed
            if after is not None:
                after(args, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def _counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(gen, x):
            counts["window_points"] += np.size(x)
            return fn(gen, x)

        setattr(wrapper, MARK, "gabor.window")
        return wrapper

    def _before_eig(self, args):
        matrix = np.asarray(args[0])
        self.counts["eig_work_n3"] += matrix.shape[0] ** 3
        self._eig_inputs.add(hash(matrix.tobytes()))

    def _after_parse(self, args, result):
        self.counts["spec_bytes"] += os.path.getsize(args[0])

    def _after_estimate(self, args, result):
        self.counts["gabor_exact"] += bool(result.exact)

    def _after_run(self, args, result):
        self.counts["iterations"] += len(result) - 1

    def end_experiment(self) -> None:
        """Close one experiment: fold its distinct eigensolver inputs."""
        self.experiments += 1
        self.counts["eig_unique"] += len(self._eig_inputs)
        self._eig_inputs.clear()

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "linalg.eig": (self._before_eig, None),
            "experiments.parse": (None, self._after_parse),
            "gabor.estimate": (None, self._after_estimate),
            "algorithm.run": (None, self._after_run),
        }
        namespaces = framesum_namespaces()
        for module, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._span(original, name, *hooks.get(name, (None, None)))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        setattr(ns, key, wrapper)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = vars(cls)[attr]
            wrapper = self._counter(original) if name is None else self._span(original, name)
            self._patched.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Per-experiment layer metrics over every experiment traced so far."""
        n = max(self.experiments, 1)
        incl, own, calls, counts = self.inclusive_ns, self.self_ns, self.calls, self.counts

        def ms(ns):
            return ns / n / 1e6

        values = {
            "cli.self_ms": ms(own["cli.main"]),
            "cli.emit_csv_ms": ms(incl["cli.emit_csv"]),
            "experiments.parse_ms": ms(incl["experiments.parse"]),
            "experiments.spec_bytes": counts["spec_bytes"] / n,
            "experiments.parse_mb_per_s": _ratio(counts["spec_bytes"] / 1e6, incl["experiments.parse"] / 1e9),
            "experiments.run_self_ms": ms(own["experiments.run"]),
            "linalg.eig_calls": calls["linalg.eig"] / n,
            "linalg.eig_ms": ms(incl["linalg.eig"]),
            "linalg.eig_work_n3": counts["eig_work_n3"] / n,
            "linalg.eig_unique_ratio": _ratio(counts["eig_unique"], calls["linalg.eig"]),
            "linalg.svd_calls": calls["linalg.svd"] / n,
            "linalg.svd_ms": ms(incl["linalg.svd"]),
            "linalg.inverse_ms": ms(incl["linalg.inverse"]),
            "frames.exact_bounds_calls": calls["frames.exact_bounds"] / n,
            "frames.exact_bounds_self_ms": ms(own["frames.exact_bounds"]),
            "frames.frame_operator_ms": ms(incl["frames.frame_operator"]),
            "frames.verify_dual_ms": ms(incl["frames.verify_dual"]),
            "sums.predict_ms": ms(incl["sums.predict"]),
            "sums.build_ms": ms(incl["sums.build"]),
            "sums.certify_calls": calls["sums.certify"] / n,
            "sums.certify_self_ms": ms(own["sums.certify"]),
            "gabor.estimate_calls": calls["gabor.estimate"] / n,
            "gabor.estimate_self_ms": ms(own["gabor.estimate"]),
            "gabor.exact_ratio": _ratio(counts["gabor_exact"], calls["gabor.estimate"]),
            "gabor.overlap_ms": ms(incl["gabor.overlap"]),
            "gabor.energy_ms": ms(incl["gabor.energy"]),
            "gabor.window_points": counts["window_points"] / n,
            "algorithm.run_calls": calls["algorithm.run"] / n,
            "algorithm.iterations": counts["iterations"] / n,
            "algorithm.run_self_ms": ms(own["algorithm.run"]),
            "algorithm.us_per_iter": _ratio(own["algorithm.run"] / 1e3, counts["iterations"]),
            "algorithm.validate_ms": ms(incl["algorithm.validate"]),
            "algorithm.table_ms": ms(incl["algorithm.table"]),
            "trace.overhead_ratio": overhead_ratio,
        }
        assert tuple(values) == tuple(METRIC_UNITS)
        return values
