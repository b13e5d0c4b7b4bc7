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

:func:`main` is the one place that turns an error into its message and exit
code: a parse, schema or I/O error prints ``error: <message>`` and exits 1, and
any other toolkit error prints ``error: <type>: <message>`` and exits 2.  The
one other handler is ``paper-suite``'s per-fixture catch, which reports a
fixture whose computation raised as ``fail`` and goes on to the next.

:func:`main` pauses CPython's cyclic garbage collector for one command and
restores the caller's setting when the command returns or raises.  The pause
is safe because a command makes no reference cycles: reference counting frees
what it built as soon as the command ends, so a command leaves nothing for the
caller's next collection.  Without the pause a collection could start
mid-command and walk the JSON tree of the document being read.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from importlib import resources
from itertools import chain
from pathlib import Path

from .errors import FrameToolkitError, SpecParseError, SpecSchemaError
from .experiments import COMMANDS, ExperimentResult, parse_spec, parse_spec_text, run_experiment


def emit_csv(table, path) -> None:
    """Write a :class:`~framesum.algorithm.ComparisonTable` as a deterministic
    CSV: header row, LF line endings, trailing newline.

    Row ``k`` is the ``int`` ``k`` (``%s``), then each run's float error and
    envelope (``%.12g``, the reports' rendering), empty once the run stopped.
    Rows with the same runs live share one format, so the body's template is
    one repeated row per stretch, formatted by one ``%`` over every cell of
    ``table.rows()``: a stopped run's cells are ``%.0s``, which renders its
    ``None`` padding as nothing.
    """
    template, start = [], 0
    for stop in sorted({len(s) for s in table.series}):
        row = "%s" + "".join([",%.12g,%.12g" if len(s) >= stop else ",%.0s,%.0s" for s in table.series]) + "\n"
        template.append(row * (stop - start))
        start = stop
    text = ",".join(table.header) + "\n" + "".join(template) % tuple(chain.from_iterable(table.rows()))
    with open(path, "w", encoding="utf-8", newline="\n") as file:
        file.write(text)


def _write_outputs(result: ExperimentResult, report_path, as_json: bool, csv_path) -> None:
    """Write the CSV table, given a path, then the report (to stdout when
    ``report_path`` is None), so that a CSV that cannot be written leaves no report."""
    if csv_path is not None:
        emit_csv(result.csv, csv_path)
    text = result.report_json() if as_json else result.report_text()
    if report_path is None:
        sys.stdout.write(text)
    else:
        with open(report_path, "w", encoding="utf-8", newline="\n") as file:
            file.write(text)


def _run_single(args) -> int:
    spec = parse_spec(args.spec)
    expected_kind = COMMANDS[args.command]
    if spec.kind != expected_kind:
        raise SpecSchemaError(
            f"command {args.command!r} expects kind {expected_kind!r}, but {args.spec} has kind {spec.kind!r}"
        )
    result = run_experiment(spec, args.seed)
    _write_outputs(result, args.report, args.json, getattr(args, "csv", None))  # only algo has --csv
    return result.exit_code


def bundled_fixture_names() -> list[str]:
    """Sorted names of the fixtures shipped inside the package."""
    root = resources.files("framesum") / "fixtures"
    return sorted(entry.name for entry in root.iterdir() if entry.name.endswith(".json"))


def load_bundled_fixture(name: str):
    root = resources.files("framesum") / "fixtures"
    return parse_spec_text((root / name).read_text(encoding="utf-8"), origin=name)


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
        csv_path = None if result.csv is None else out_dir / f"{spec.label}.csv"
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
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """``(parser, subparsers)``: the ``framesum`` parser and each command's parser
    by name, built on first use and then reused."""
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
    suite.set_defaults(func=_write_suite)
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The ``framesum`` argument parser, built on first use and then reused."""
    return _parsers()[0]


def parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, at the cost of the command's parser alone.

    When ``argv`` starts with a command, the full parser would hand the rest
    to that command's parser and reject what it leaves over; this does the
    same directly, with the same usage text and exit code.  No command, an
    unknown one and a leading ``--help`` go through the full parser.
    """
    parser, subparsers = _parsers()
    command = subparsers.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except (SpecParseError, SpecSchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FrameToolkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
