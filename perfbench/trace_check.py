"""Coverage check for the traced run.  Run from the root of a checkout:

    python3 perfbench/trace_check.py

It checks that

* installing the tracer leaves no traced function reachable unwrapped in any
  ``framesum.*`` namespace, and uninstalling restores every original;
* each layer's spans fire on the workload meant to exercise it, and the
  bypass counts are exactly zero;
* an untraced run never installs a wrapper;
* ``BENCHMARK.json`` names the same workloads and metrics, with the same
  units, as the benchmark prints.

Exits 1 and lists the problems when a check fails.
"""

import json
import sys
import tempfile
from pathlib import Path

import run
import spans
import workloads

SEED = 7
SECONDS = 2.0

#: metrics that must be positive on each workload
FIRES = {
    "spectral-sums": (
        "cli.self_ms",
        "experiments.parse_ms",
        "experiments.spec_bytes",
        "experiments.run_self_ms",
        "linalg.eig_calls",
        "linalg.eig_ms",
        "linalg.eig_work_n3",
        "linalg.eig_unique_ratio",
        "linalg.svd_calls",
        "linalg.svd_ms",
        "frames.exact_bounds_calls",
        "frames.exact_bounds_self_ms",
        "frames.frame_operator_ms",
        "frames.verify_dual_ms",
        "sums.predict_ms",
        "sums.build_ms",
        "sums.certify_calls",
        "sums.certify_self_ms",
    ),
    "gabor-windows": (
        "cli.self_ms",
        "experiments.parse_ms",
        "gabor.estimate_calls",
        "gabor.estimate_self_ms",
        "gabor.exact_ratio",
        "gabor.overlap_ms",
        "gabor.energy_ms",
        "gabor.window_points",
    ),
    "algo-iterate": (
        "cli.self_ms",
        "cli.emit_csv_ms",
        "linalg.eig_calls",
        "algorithm.run_calls",
        "algorithm.iterations",
        "algorithm.run_self_ms",
        "algorithm.us_per_iter",
        "algorithm.validate_ms",
        "algorithm.table_ms",
    ),
    # every layer, but no fixture reaches the Gabor grid path and no CLI path
    # inverts a frame operator
    "paper-fixtures": tuple(
        name
        for name in spans.METRIC_UNITS
        if name
        not in (
            "linalg.inverse_ms",
            "gabor.overlap_ms",
            "gabor.energy_ms",
            "gabor.window_points",
            "trace.overhead_ratio",
        )
    ),
}

#: bypass counts that must be exactly zero
BYPASSED = {
    "spectral-sums": ("gabor.estimate_calls", "algorithm.run_calls"),
    "gabor-windows": ("linalg.eig_calls",),
    "algo-iterate": ("gabor.estimate_calls",),
    "paper-fixtures": (),
}


def check_install(problems: list) -> None:
    originals = [getattr(sys.modules[m], attr) for m, attr, _ in spans.FUNCTIONS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for ns in spans.framesum_namespaces():
            for key, value in vars(ns).items():
                if any(value is fn for fn in originals):
                    problems.append(f"install missed {ns.__name__}.{key}")
        if not spans.installed_wrappers():
            problems.append("install placed no wrapper")
    finally:
        tracer.uninstall()
    if spans.installed_wrappers():
        problems.append(f"uninstall left {spans.installed_wrappers()}")
    for (m, attr, _), fn in zip(spans.FUNCTIONS, originals):
        if getattr(sys.modules[m], attr) is not fn:
            problems.append(f"uninstall did not restore {m}.{attr}")


def check_untraced(cli, workdir: Path, problems: list) -> None:
    calls = []
    real_install = spans.Tracer.install
    spans.Tracer.install = lambda self: calls.append(self)
    seen = []
    real_main = cli.main

    def probe(argv):
        seen.extend(spans.installed_wrappers())
        return real_main(argv)

    cli.main = probe
    try:
        workload = run.make_workload("paper-fixtures", SEED, workdir)
        run.run_loop(workload, cli, 0.5, SEED, workdir)
    finally:
        spans.Tracer.install = real_install
        cli.main = real_main
    if calls or seen:
        problems.append(f"untraced run installed wrappers: {len(calls)} installs, {sorted(set(seen))}")


def check_workload(name: str, cli, workdir: Path, problems: list) -> None:
    tracer = spans.Tracer()
    workload = run.make_workload(name, SEED, workdir / name)
    plain, traced = run.run_loop(workload, cli, SECONDS, SEED, workdir, tracer)
    metrics = tracer.metrics(1.0)
    if not traced.seconds or plain.wrong or traced.wrong:
        problems.append(f"{name}: {len(traced.seconds)} traced experiments, failures {plain.failures + traced.failures}")
    for metric in FIRES[name]:
        if not metrics[metric] > 0:
            problems.append(f"{name}: {metric} = {metrics[metric]}, expected spans to fire")
    for metric in BYPASSED[name]:
        if metrics[metric] != 0:
            problems.append(f"{name}: {metric} = {metrics[metric]}, expected exactly 0")
    if name == "gabor-windows" and not metrics["gabor.exact_ratio"] < 1:
        problems.append(f"{name}: no grid-path estimate (exact_ratio {metrics['gabor.exact_ratio']})")


def check_manifest(problems: list) -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pairs = (
        ("workloads", sorted(w["name"] for w in manifest["workloads"]), sorted(workloads.WORKLOADS)),
        ("end_to_end", {m["name"]: m["unit"] for m in manifest["end_to_end"]}, run.END_TO_END_UNITS),
        ("per_layer", {m["name"]: m["unit"] for m in manifest["per_layer"]}, spans.METRIC_UNITS),
    )
    for key, listed, printed in pairs:
        if listed != printed:
            problems.append(f"BENCHMARK.json {key} {listed} differs from the printed {printed}")


def main() -> int:
    problems = []
    check_manifest(problems)
    cli = run.load_cli()
    check_install(problems)
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-check-") as tmp:
        workdir = Path(tmp)
        check_untraced(cli, workdir / "untraced", problems)
        for name in FIRES:
            check_workload(name, cli, workdir, problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("trace check: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
