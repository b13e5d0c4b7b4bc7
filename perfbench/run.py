"""Seeded end-to-end benchmark of the ``framesum`` CLI, with an optional traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectral-sums --seed 1 --seconds 20 --trace 0

The benchmark generates experiment files from the seed and feeds them, one at
a time, to ``framesum.cli.main([<command>, "--spec", f, "--report", r,
"--json"])`` in this process (a closed loop with one client), plus ``--csv``
for ``algo``.  Every report is checked against the numpy reference in
``reference.py``.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced experiments and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS thread, set before numpy loads: steadier timings on a shared host.
# The thread count actually in effect is part of the printed environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: fresh-interpreter imports per run for setup_s, after one discarded warm-up.
SETUP_REPEATS = 7
IMPORT_SNIPPET = "import sys; sys.path.insert(0, 'src'); import framesum.cli"

#: calibration kernel time on the reference machine.  Each experiment's time
#: is scaled by this over the median of the kernel samples taken around it.
KERNEL_REF_S = 0.4e-3

#: kernel samples on each side of an experiment in that median.
KERNEL_WINDOW = 5

#: kernel samples taken before and after each setup import.
SETUP_KERNEL_SAMPLES = 5

#: the 90th percentile needs ten samples beyond it
MIN_EXPERIMENTS = 100

#: untimed experiments before the measured loop (a whole pass for fixtures).
WARMUP_CASES = 4
WARMUP_OFFSET = 10**6

END_TO_END_UNITS = {
    "setup_s": "s",
    "exp_p50_ms": "ms",
    "exp_p90_ms": "ms",
    "exp_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    seconds: float
    failure: str | None = None
    known_defect: bool = False


def is_known_json_defect(case, exc) -> bool:
    """``finite_sum_predict`` returns a ``numpy.bool_``, so ``--json`` cannot
    serialize a finite-sum report.  The compute is done before the crash."""
    return case.kind == "finite-sum" and isinstance(exc, TypeError) and "JSON serializable" in str(exc)


def run_case(cli, case, outdir: Path, cli_seed: int) -> Outcome:
    report, table = outdir / "report.json", outdir / "table.csv"
    report.unlink(missing_ok=True)
    table.unlink(missing_ok=True)
    argv = [case.command, "--spec", str(case.path), "--report", str(report), "--json", "--seed", str(cli_seed)]
    if case.kind == "algo":
        argv += ["--csv", str(table)]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # count it and keep measuring
        seconds = time.perf_counter() - start
        return Outcome(seconds, f"{case.kind}: {type(exc).__name__}: {exc}", is_known_json_defect(case, exc))
    seconds = time.perf_counter() - start
    if code != 0:
        return Outcome(seconds, f"{case.label}: exit code {code}")
    try:
        payload = json.loads(report.read_text(encoding="utf-8"))
        csv_text = table.read_text(encoding="utf-8") if case.kind == "algo" else None
    except (OSError, ValueError) as exc:
        return Outcome(seconds, f"{case.label}: unreadable output: {exc}")
    problems = reference.check(case.doc, payload, csv_text)
    if problems:
        return Outcome(seconds, f"{case.label}: " + "; ".join(problems[:3]))
    return Outcome(seconds)


def kernel_seconds() -> float:
    """Time of a fixed slice of interpreter and small-array numpy work.

    It does not touch framesum, so it measures only how fast the machine runs
    right now; shared hosts drift by tens of percent over seconds.
    """
    a = np.arange(64, dtype=complex).reshape(8, 8)
    start = time.perf_counter()
    for p in range(8):
        for r in range(8):
            col = a[:, p].copy()
            a[:, r] = 0.5 * col + 0.25 * a[:, r]
    total = 0
    for i in range(3000):
        total += i * i
    return time.perf_counter() - start


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """Wall times of a fresh interpreter running ``import framesum.cli``, each
    with the median calibration kernel time sampled just before and after it."""
    cmd = [sys.executable, "-c", IMPORT_SNIPPET]
    times, kernel = [], []
    for i in range(repeats + 1):
        around = [kernel_seconds() for _ in range(SETUP_KERNEL_SAMPLES)]
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        around += [kernel_seconds() for _ in range(SETUP_KERNEL_SAMPLES)]
        if i:
            times.append(elapsed)
            kernel.append(statistics.median(around))
    return times, kernel


def load_cli():
    """Import ``framesum.cli`` from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(SRC))
    import framesum.cli

    if Path(framesum.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"framesum imported from {framesum.cli.__file__}, not {SRC}")
    return framesum.cli


def make_workload(name: str, seed: int, workdir: Path):
    if name == workloads.PaperFixtures.name:
        from importlib import resources

        root = resources.files("framesum") / "fixtures"
        texts = {e.name: e.read_text(encoding="utf-8") for e in root.iterdir() if e.name.endswith(".json")}
        return workloads.PaperFixtures(seed, workdir / "fixtures", texts)
    return workloads.WORKLOADS[name](seed, workdir / "specs")


class Tally:
    """Outcomes of the measured experiments.  ``wrong`` counts every failure
    other than the known ``--json`` defect; any one makes the run incorrect."""

    def __init__(self):
        self.seconds = []
        self.kernel = []
        self.failures = []
        self.known = 0
        self.wrong = 0

    def add(self, outcome: Outcome) -> None:
        self.seconds.append(outcome.seconds)
        self.kernel.append(kernel_seconds())
        if outcome.failure is not None:
            self.failures.append(outcome.failure)
            self.known += outcome.known_defect
            self.wrong += not outcome.known_defect


def run_loop(workload, cli, seconds: float, seed: int, workdir: Path, tracer=None):
    """Closed loop over whole passes of the workload's schedule until ``seconds``
    have passed and at least ``MIN_EXPERIMENTS`` ran untraced; returns the
    untraced and traced tallies."""
    cycle = len(workload.slots)
    warm = cycle if isinstance(workload, workloads.PaperFixtures) else WARMUP_CASES
    for i in range(warm):
        run_case(cli, workload.case(WARMUP_OFFSET + i), workdir, seed)
    plain, traced = Tally(), Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while i % cycle or i < MIN_EXPERIMENTS or time.perf_counter() < deadline:
        cli_seed = seed * 1_000_003 + i
        if tracer is None:
            plain.add(run_case(cli, workload.case(i), workdir, cli_seed))
        else:
            # same slot, other numbers; the order alternates between pairs
            for stream in ((0, 1) if i % 2 == 0 else (1, 0)):
                case = workload.case(i, stream)
                if stream == 0:
                    plain.add(run_case(cli, case, workdir, cli_seed))
                    continue
                tracer.install()
                try:
                    traced.add(run_case(cli, case, workdir, cli_seed))
                finally:
                    tracer.uninstall()
                tracer.end_experiment()
        i += 1
    return plain, traced


def blas_threads():
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": seed,
        "commit": git_commit(),
    }


def at_reference_speed(seconds: list[float], kernel: list[float]) -> list[float]:
    """Each time scaled by ``KERNEL_REF_S`` over the median kernel sample in a
    window around it, so that drift in machine speed cancels."""
    out = []
    for i, t in enumerate(seconds):
        local = kernel[max(0, i - KERNEL_WINDOW) : i + KERNEL_WINDOW + 1]
        out.append(t * KERNEL_REF_S / statistics.median(local))
    return out


def end_to_end(plain: Tally, setup: tuple[list[float], list[float]], speed: bool = True) -> dict:
    """The end-to-end metrics; with ``speed`` the times are scaled to the
    reference machine speed (see ``at_reference_speed``)."""
    setup_times, setup_kernel = setup
    seconds = plain.seconds
    if speed:
        setup_times = [t * KERNEL_REF_S / k for t, k in zip(setup_times, setup_kernel)]
        seconds = at_reference_speed(seconds, plain.kernel)
    ms = [s * 1e3 for s in seconds]
    return {
        "setup_s": statistics.median(setup_times),
        "exp_p50_ms": statistics.median(ms),
        "exp_p90_ms": statistics.quantiles(ms, n=10)[8],
        "exp_per_s": len(ms) / sum(seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "framesum" / "__init__.py").is_file():
        print(f"error: no framesum sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    setup = measure_setup() if not args.trace else None
    cli = load_cli()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        plain, traced = run_loop(workload, cli, args.seconds, args.seed, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    tallies = (plain, traced)
    attempted = sum(len(t.seconds) for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    known = sum(t.known for t in tallies)
    wrong = sum(t.wrong for t in tallies)
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {attempted} experiments, "
          f"{len(plain.seconds)} untraced, {len(traced.seconds)} traced")
    for failure in sorted(set(failures))[:5]:
        print(f"# failure: {failure}")
    if args.trace:
        overhead = statistics.median(traced.seconds) / statistics.median(plain.seconds)
        metrics, units = tracer.metrics(overhead), spans.METRIC_UNITS
    else:
        metrics, units = end_to_end(plain, setup), END_TO_END_UNITS
        raw = end_to_end(plain, setup, speed=False)
        print(f"# machine speed: kernel median {statistics.median(plain.kernel) * 1e3:.4g} ms, reference {KERNEL_REF_S * 1e3:.4g} ms")
        print("# unscaled: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_ratio {len(failures) / attempted:.6g} ratio ({len(failures)}/{attempted}; {known} are the known finite-sum --json TypeError)")
    print("env " + json.dumps(environment(args.seed)))
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
