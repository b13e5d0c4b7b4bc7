"""SHA-256 digests of what ``framesum`` writes, for checking that a change
leaves every output byte as it was.  Run from the root of a checkout:

    python3 tools/output_digest.py [--count N] [--seed S]

It generates the first ``N`` documents of the ``spectral-sums``,
``gabor-windows`` and ``algo-iterate`` benchmark workloads with
``perfbench/workloads.py`` (imported, not changed) and runs each through
``framesum.cli.main`` once in text mode and once with ``--json``, adding
``--csv`` for ``algo``; document ``i`` runs with ``--seed i``.  It also runs
``paper-suite`` in both modes, with ``--seed S``.  One line
per workload and mode gives a digest over every document's exit code, report,
CSV, standard output and standard error.  Run it on two checkouts with the
same arguments and compare the lines.

Numpy runs on one BLAS thread, set before it loads.  The temporary directory's
name is replaced by ``<work>`` before standard error is hashed, so a path in
an error message digests the same on every run.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # write nothing next to the benchmark's files

import framesum.cli  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("spectral-sums", "gabor-windows", "algo-iterate")
MODES = (("text", []), ("json", ["--json"]))


def _run(argv, work: Path) -> tuple[int, bytes, bytes]:
    """Exit code, standard output and standard error of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = framesum.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().replace(str(work), "<work>").encode()


def _feed(digest, *parts) -> None:
    """Add each part with its length, so that no two part lists digest alike."""
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode()
        digest.update(b"%d:" % len(data) + data)


def _read(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b"<none>"


def workload_digest(name: str, count: int, seed: int, mode: list, work: Path) -> str:
    digest = hashlib.sha256()
    generator = workloads.WORKLOADS[name](seed, work / "cases")
    report, table = work / "report", work / "table.csv"
    for i in range(count):
        case = generator.case(i)
        report.unlink(missing_ok=True)
        table.unlink(missing_ok=True)
        argv = [case.command, "--spec", str(case.path), "--report", str(report), "--seed", str(i), *mode]
        if case.kind == "algo":
            argv += ["--csv", str(table)]
        code, out, err = _run(argv, work)
        _feed(digest, case.label, code, _read(report), _read(table), out, err)
    return digest.hexdigest()


def suite_digest(seed: int, mode: list, work: Path) -> str:
    digest = hashlib.sha256()
    out_dir = work / "suite"
    code, out, err = _run(["paper-suite", "--out", str(out_dir), "--seed", str(seed), *mode], work)
    _feed(digest, code, out, err)
    for path in sorted(out_dir.iterdir()):
        _feed(digest, path.name, path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200, help="documents per workload (default 200)")
    parser.add_argument("--seed", type=int, default=0, help="workload and paper-suite seed (default 0)")
    args = parser.parse_args()
    for mode_name, mode in MODES:
        for name in WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                print(f"{name:<14} {mode_name:<4} {workload_digest(name, args.count, args.seed, mode, Path(tmp))}")
        with tempfile.TemporaryDirectory() as tmp:
            print(f"{'paper-suite':<14} {mode_name:<4} {suite_digest(args.seed, mode, Path(tmp))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
