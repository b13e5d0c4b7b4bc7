"""Command-line front end.

    framesum <command> --spec <path> [--report <path>] [--csv <path>]
                       [--seed <int>] [--json]

Commands map one-to-one onto experiment kinds (``sum`` runs ``finite-sum``,
``op-sum`` runs ``operator-sum``), except ``paper-suite``, which executes
every bundled fixture and prints a pass/flagged table.

Exit codes:

* 0: success, flagged discrepancies included; ``--help`` also exits 0.
* 1: a usage, parse, schema or I/O error.  Usage errors exit 1 as well,
  not with argparse's 2.
* 2: a sufficiency condition or a certification failed (the report is still
  written), or a computation raised.

:func:`main` pauses CPython's cyclic garbage collector for one command and
restores the caller's setting when the command returns or raises.  The pause
is safe because a command makes no reference cycles of its own: reference
counting frees what it built as soon as the command ends.  Without the pause a
collection could start mid-command and walk the JSON tree of the document being
read.  The few cycles the standard library leaves, such as the JSON encoder's
nested functions, wait for the caller's next collection.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from importlib import resources
from pathlib import Path

from .errors import FrameToolkitError, SpecParseError, SpecSchemaError
from .experiments import COMMANDS, ExperimentResult, parse_spec, parse_spec_text, run_experiment


def emit_csv(header, rows, path) -> None:
    """Write a deterministic CSV: header row, LF line endings, trailing newline.

    ``rows`` must all have the header's length.  A cell is empty for ``None``,
    ``str`` of an ``int``, else 12 significant digits (``%.12g``, the reports'
    rendering).  The conversions are chosen a column at a time, and the whole
    body is formatted by one ``%`` over its non-empty cells.
    """
    specs = [
        ["" if cell is None else "%s" if isinstance(cell, int) else "%.12g" for cell in column]
        for column in zip(*rows, strict=True)
    ]
    template = "".join([",".join(row) + "\n" for row in zip(*specs)])
    cells = tuple([cell for row in rows for cell in row if cell is not None])
    text = ",".join(str(h) for h in header) + "\n" + template % cells
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _write_outputs(result: ExperimentResult, report_path, as_json: bool, csv_path) -> None:
    """Write the report (to stdout when ``report_path`` is None) and, given a path, the CSV table."""
    text = result.report_json() if as_json else result.report_text()
    if report_path is None:
        sys.stdout.write(text)
    else:
        Path(report_path).write_text(text, encoding="utf-8", newline="\n")
    if csv_path is not None:
        emit_csv(*result.csv, csv_path)


def _run_single(args) -> int:
    try:
        spec = parse_spec(args.spec)
    except (SpecParseError, SpecSchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    expected_kind = COMMANDS[args.command]
    if spec.kind != expected_kind:
        print(
            f"error: command {args.command!r} expects kind {expected_kind!r}, "
            f"but {args.spec} has kind {spec.kind!r}",
            file=sys.stderr,
        )
        return 1
    try:
        result = run_experiment(spec, args.seed)
    except FrameToolkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        _write_outputs(result, args.report, args.json, getattr(args, "csv", None))  # only algo has --csv
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return result.exit_code


def bundled_fixture_names() -> list[str]:
    """Sorted names of the fixtures shipped inside the package."""
    root = resources.files("framesum") / "fixtures"
    return sorted(entry.name for entry in root.iterdir() if entry.name.endswith(".json"))


def load_bundled_fixture(name: str):
    root = resources.files("framesum") / "fixtures"
    return parse_spec_text((root / name).read_text(encoding="utf-8"), origin=name)


def _run_suite(args) -> int:
    try:
        return _write_suite(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _write_suite(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = bundled_fixture_names()
    extension = "json" if args.json else "txt"
    rows = []
    worst = 0
    for name in names:
        spec = load_bundled_fixture(name)
        try:
            result = run_experiment(spec, args.seed)
        except FrameToolkitError as exc:
            print(f"error: {spec.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            rows.append((spec.label, spec.kind, "fail"))
            worst = 2
            continue
        csv_path = None if result.csv is None else out_dir / (result.csv_name or f"{spec.label}.csv")
        _write_outputs(result, out_dir / f"{spec.label}.report.{extension}", args.json, csv_path)
        rows.append((spec.label, spec.kind, result.status))
        worst = max(worst, result.exit_code)
    label_width = max(len(r[0]) for r in rows)
    kind_width = max(len(r[1]) for r in rows)
    lines = [f"{'fixture':<{label_width}}  {'kind':<{kind_width}}  status"]
    for label, kind, status in rows:
        lines.append(f"{label:<{label_width}}  {kind:<{kind_width}}  {status}")
    counts = {status: sum(1 for r in rows if r[2] == status) for status in ("pass", "flagged", "fail")}
    lines.append(
        f"{counts['pass']} pass, {counts['flagged']} flagged, {counts['fail']} fail "
        f"out of {len(rows)} fixtures"
    )
    summary = "\n".join(lines) + "\n"
    sys.stdout.write(summary)
    (out_dir / "summary.txt").write_text(summary, encoding="utf-8", newline="\n")
    return worst


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, since exit code 2 means
    that a condition or a certification failed.  Subcommand parsers are of
    the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``framesum`` argument parser, built on first use and then reused."""
    parser = _Parser(
        prog="framesum",
        description="Frame bounds, sums-of-frames predictions with certification, "
        "window-based bound estimates, and the frame reconstruction algorithm.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, kind in COMMANDS.items():
        p = sub.add_parser(command, help=f"run a {kind} experiment from a JSON file")
        p.add_argument("--spec", required=True, help="path to the experiment JSON file")
        p.add_argument("--report", default=None, help="write the report here instead of stdout")
        p.add_argument(
            "--seed", type=int, default=0, help="seed for the algo runs' random targets (default 0)"
        )
        p.add_argument("--json", action="store_true", help="emit a machine-readable report")
        if command == "algo":
            p.add_argument("--csv", default=None, help="write the per-iteration table as CSV")
        p.set_defaults(func=_run_single)

    suite = sub.add_parser("paper-suite", help="run every bundled fixture and summarize")
    suite.add_argument("--out", default="framesum-suite", help="output directory (default framesum-suite)")
    suite.add_argument(
        "--seed", type=int, default=0, help="seed for the algo runs' random targets (default 0)"
    )
    suite.add_argument("--json", action="store_true", help="write JSON reports instead of text")
    suite.set_defaults(func=_run_suite)
    return parser


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
