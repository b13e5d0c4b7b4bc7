"""Experiment files and the pipelines behind each command.

One experiment is one JSON document.  Complex scalars are two-element
``[re, im]`` arrays (a bare real is accepted where the imaginary part is
zero), frames are arrays of vectors, matrices are arrays of rows, and
piecewise windows are arrays of ``{lo, hi, kind, alpha, beta}`` objects.

Every sum-like pipeline runs the same loop: take oracle bounds of the input
frames, evaluate the sufficiency condition, predict bounds, build the actual
summed family, and certify the prediction against the oracle bounds of the
result.  Inputs may carry ``stated_bounds`` overriding the oracle *for the
reported prediction only* -- certification always runs on oracle inputs, and
any disagreement between the two routes is flagged in the report notes rather
than silently adopted.

Fixtures bundled with the package add an ``expect`` block (reference values
re-checked on every run) and a ``discrepancies`` list naming the places where
a stated reference value disagrees with what the oracle computes; those
records make a fixture "flagged" instead of "pass" without failing it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algorithm import AlgoConfig, compare_runs, format_width, width_report
from .errors import (
    FrameToolkitError,
    NotAFrameError,
    SpecParseError,
    SpecSchemaError,
)
from .frames import (
    FiniteFrame,
    FrameBounds,
    exact_bounds,
    random_unit_vector,
    verify_dual,
)
from .gabor import LatticeParams, PiecewiseGenerator, WHParams, estimate_bounds, wh_to_gabor
from .linalg import extreme_singular_values
from .sums import (
    OperatorSumSpec,
    PredictedBounds,
    ScalarEnvelope,
    WeightedSumSpec,
    build_operator_sum_frame,
    build_perturbed_sum_frame,
    build_sum_frame,
    certify,
    dual_sum_predict,
    finite_sum_best_pivot,
    finite_sum_predict,
    operator_sum_predict,
    perturbed_sum_predict,
)

KINDS = (
    "bounds",
    "dual",
    "finite-sum",
    "operator-sum",
    "perturbed-sum",
    "gabor",
    "algo",
    "width",
)

#: relative tolerance for comparing a stated bound against the oracle value.
STATED_MATCH_TOLERANCE = 1e-9

#: default relative tolerance for expect-block comparisons.
DEFAULT_EXPECT_RTOL = 1e-9


def _fmt(value: float) -> str:
    """12-significant-digit rendering used by reports and CSV."""
    return format(float(value), ".12g")


# ---------------------------------------------------------------------------
# schema helpers


def _schema_error(path: str, message: str) -> SpecSchemaError:
    return SpecSchemaError(message, field=path)


def _as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise _schema_error(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_array(value, path: str) -> list:
    if not isinstance(value, list):
        raise _schema_error(path, f"expected an array, got {type(value).__name__}")
    return value


def _as_real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _schema_error(path, f"expected a real number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise _schema_error(path, f"expected a finite number, got {value!r}")
    return out


def _as_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_real(value, path), 0.0)
    arr = _as_array(value, path)
    if len(arr) != 2:
        raise _schema_error(path, f"complex scalar must be [re, im], got {value!r}")
    return complex(_as_real(arr[0], path + "[0]"), _as_real(arr[1], path + "[1]"))


def _as_bound_pair(value, path: str) -> FrameBounds:
    arr = _as_array(value, path)
    if len(arr) != 2:
        raise _schema_error(path, f"bound pair must be [lower, upper], got {value!r}")
    lo = _as_real(arr[0], path + "[0]")
    hi = _as_real(arr[1], path + "[1]")
    try:
        return FrameBounds(lo, hi)
    except FrameToolkitError as exc:
        raise _schema_error(path, str(exc)) from None


def _as_tolerance(value, path: str) -> float:
    out = _as_real(value, path)
    if out < 0.0:
        raise _schema_error(path, f"expected a number >= 0, got {value!r}")
    return out


def _as_strings(value, path: str) -> list[str]:
    arr = _as_array(value, path)
    for i, entry in enumerate(arr):
        if not isinstance(entry, str):
            raise _schema_error(f"{path}[{i}]", f"expected a string, got {entry!r}")
    return arr


def _as_vector(value, path: str) -> list[complex]:
    arr = _as_array(value, path)
    if not arr:
        raise _schema_error(path, "vector must be nonempty")
    return [_as_complex(entry, f"{path}[{i}]") for i, entry in enumerate(arr)]


def _as_matrix(value, path: str) -> np.ndarray:
    arr = _as_array(value, path)
    if not arr:
        raise _schema_error(path, "matrix must be nonempty")
    rows = [_as_vector(row, f"{path}[{i}]") for i, row in enumerate(arr)]
    lengths = {len(row) for row in rows}
    if len(lengths) != 1:
        raise _schema_error(path, f"matrix rows have differing lengths {sorted(lengths)}")
    return np.array(rows, dtype=complex)


@dataclass(frozen=True)
class FrameInput:
    """A frame from an experiment file, with an optional stated bound pair."""

    name: str
    frame: FiniteFrame | None
    stated_bounds: FrameBounds | None = None

    def oracle_bounds(self) -> FrameBounds:
        return exact_bounds(self.frame).bounds


def _as_frame(value, path: str, default_name: str) -> FrameInput:
    obj = _as_object(value, path)
    _reject_unknown(obj, {"name", "vectors", "stated_bounds"}, path)
    name = obj.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise _schema_error(path + ".name", "frame name must be a nonempty string")
    vectors = [_as_vector(v, f"{path}.vectors[{i}]") for i, v in enumerate(_as_array(obj.get("vectors"), path + ".vectors"))]
    lengths = {len(v) for v in vectors}
    if len(lengths) != 1:
        raise _schema_error(path + ".vectors", f"vectors have differing lengths {sorted(lengths)}")
    try:
        frame = FiniteFrame(np.array(vectors, dtype=complex))
    except FrameToolkitError as exc:
        raise _schema_error(path + ".vectors", str(exc)) from None
    stated = None
    if "stated_bounds" in obj:
        stated = _as_bound_pair(obj["stated_bounds"], path + ".stated_bounds")
    return FrameInput(name=name, frame=frame, stated_bounds=stated)


def _reject_unknown(obj: dict, allowed: set, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise _schema_error(f"{path}.{key}" if path else key, "unknown field")


_COMMON_KEYS = {"kind", "label", "title", "notes", "discrepancies", "expect", "csv"}

_KIND_KEYS = {
    "bounds": {"frame"},
    "width": {"entries"},
    "dual": {"frame", "dual", "trials", "bounds1", "bounds2"},
    "finite-sum": {"frames", "frame_bounds", "coefficients", "pivot"},
    "operator-sum": {"frame1", "frame2", "bounds1", "bounds2", "theta1", "theta2"},
    "perturbed-sum": {"frame1", "frame2", "bounds1", "bounds2", "alpha", "beta"},
    "gabor": {"generator", "lattice", "wh", "stated_bounds"},
    "algo": {"runs", "max_iters"},
}

_EXPECT_KEYS = {
    "bounds": {"bounds", "width_4dp", "tight", "parseval"},
    "width": {"widths_4dp"},
    "dual": {"verify_dual", "predicted", "sum_bounds", "widths_4dp", "certified"},
    "finite-sum": {"predicted", "condition_margin", "predicted_width_4dp", "certified"},
    "operator-sum": {"predicted", "predicted_width_4dp", "certified"},
    "perturbed-sum": {"predicted", "predicted_width_4dp", "certified"},
    "gabor": {"bounds", "exact"},
    "algo": {"envelope_order", "envelope_dominates"},
}

#: parsers for the expect values the runners compute with; the rest are
#: compared for equality as given.
_EXPECT_VALUES = {
    "rtol": _as_tolerance,
    "bounds": _as_bound_pair,
    "predicted": _as_bound_pair,
    "sum_bounds": _as_bound_pair,
    "condition_margin": _as_real,
    "widths_4dp": _as_strings,
    "envelope_order": _as_strings,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """A parsed, schema-validated experiment document.

    ``payload`` is what the kind's payload extractor returned while
    :func:`parse_spec_text` validated the document; the runners read it from
    here, so each document is validated and extracted exactly once.
    """

    kind: str
    label: str
    title: str
    document: dict
    notes: tuple = ()
    discrepancies: tuple = ()
    expect: dict = field(default_factory=dict)  # values parsed by _EXPECT_VALUES
    csv_name: str | None = None
    payload: object = field(default=None, repr=False)

    def __eq__(self, other):
        return isinstance(other, ExperimentSpec) and self.document == other.document

    def __hash__(self):
        return hash(self.label)


def parse_spec_text(text: str, origin: str = "<string>") -> ExperimentSpec:
    """Parse and validate one experiment document from JSON text."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecParseError(
            f"{origin}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from None
    document = _as_object(document, "")
    kind = document.get("kind")
    if kind not in KINDS:
        raise _schema_error("kind", f"must be one of {', '.join(KINDS)}, got {kind!r}")
    _reject_unknown(document, _COMMON_KEYS | _KIND_KEYS[kind], "")

    label = document.get("label", Path(origin).stem)
    if not isinstance(label, str) or not label:
        raise _schema_error("label", "must be a nonempty string")
    title = document.get("title", "")
    if not isinstance(title, str):
        raise _schema_error("title", "must be a string")

    for key in ("notes", "discrepancies"):
        entries = document.get(key, [])
        if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
            raise _schema_error(key, "must be an array of strings")

    expect = _as_object(document.get("expect", {}), "expect")
    _reject_unknown(expect, _EXPECT_KEYS[kind] | {"rtol"}, "expect")
    expect = {
        key: _EXPECT_VALUES[key](value, f"expect.{key}") if key in _EXPECT_VALUES else value
        for key, value in expect.items()
    }

    csv_name = document.get("csv")
    if csv_name is not None and (not isinstance(csv_name, str) or not csv_name):
        raise _schema_error("csv", "must be a nonempty string")

    spec = ExperimentSpec(
        kind=kind,
        label=label,
        title=title,
        document=document,
        notes=tuple(document.get("notes", [])),
        discrepancies=tuple(document.get("discrepancies", [])),
        expect=expect,
        csv_name=csv_name,
    )
    # validate the payload eagerly so schema errors surface at parse time, and
    # keep it for the runner
    object.__setattr__(spec, "payload", _PAYLOAD_VALIDATORS[kind](spec))
    return spec


def parse_spec(path) -> ExperimentSpec:
    """Parse an experiment file from disk."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SpecParseError(f"{path} is not valid UTF-8: {exc}") from None
    return parse_spec_text(text, origin=str(path))


def render_spec(spec: ExperimentSpec) -> str:
    """Canonical JSON serialization; parses back to an equal spec."""
    return json.dumps(spec.document, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# payload extraction (run once, at parse time)


def _payload_bounds(spec: ExperimentSpec) -> FrameInput:
    doc = spec.document
    if "frame" not in doc:
        raise _schema_error("frame", "required for kind bounds")
    return _as_frame(doc["frame"], "frame", "F")


def _payload_width(spec: ExperimentSpec) -> list[tuple[str, FrameBounds]]:
    entries = _as_array(spec.document.get("entries"), "entries")
    out = []
    for i, entry in enumerate(entries):
        obj = _as_object(entry, f"entries[{i}]")
        _reject_unknown(obj, {"label", "bounds"}, f"entries[{i}]")
        name = obj.get("label", f"entry{i + 1}")
        if not isinstance(name, str):
            raise _schema_error(f"entries[{i}].label", "must be a string")
        out.append((name, _as_bound_pair(obj.get("bounds"), f"entries[{i}].bounds")))
    if not out:
        raise _schema_error("entries", "must be nonempty")
    return out


def _payload_dual(spec: ExperimentSpec):
    doc = spec.document
    has_frames = "frame" in doc or "dual" in doc
    has_bounds = "bounds1" in doc or "bounds2" in doc
    if has_frames == has_bounds:
        raise _schema_error("", "dual needs either frame+dual or bounds1+bounds2")
    if has_frames:
        if "frame" not in doc or "dual" not in doc:
            raise _schema_error("", "dual needs both frame and dual")
        f = _as_frame(doc["frame"], "frame", "F")
        g = _as_frame(doc["dual"], "dual", "G")
        trials = doc.get("trials", 100)
        if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
            raise _schema_error("trials", f"must be a positive integer, got {trials!r}")
        return f, g, trials
    b1 = _as_bound_pair(doc.get("bounds1"), "bounds1")
    b2 = _as_bound_pair(doc.get("bounds2"), "bounds2")
    return b1, b2, None


def _payload_finite_sum(spec: ExperimentSpec):
    doc = spec.document
    coefficients = [
        _as_complex(c, f"coefficients[{i}]")
        for i, c in enumerate(_as_array(doc.get("coefficients"), "coefficients"))
    ]
    if any(c == 0 for c in coefficients):
        raise _schema_error("coefficients", "coefficient must be nonzero")
    pivot = doc.get("pivot", "best")
    if pivot != "best":
        if isinstance(pivot, bool) or not isinstance(pivot, int):
            raise _schema_error("pivot", f'must be a 1-based index or "best", got {pivot!r}')
        if not (1 <= pivot <= len(coefficients)):
            raise _schema_error("pivot", f"index {pivot} out of range 1..{len(coefficients)}")
    if ("frames" in doc) == ("frame_bounds" in doc):
        raise _schema_error("", "finite-sum needs exactly one of frames or frame_bounds")
    if "frames" in doc:
        frames = [
            _as_frame(f, f"frames[{i}]", f"F{i + 1}")
            for i, f in enumerate(_as_array(doc["frames"], "frames"))
        ]
        if len(frames) != len(coefficients):
            raise _schema_error(
                "coefficients", f"{len(frames)} frames but {len(coefficients)} coefficients"
            )
        return frames, None, coefficients, pivot
    raw = _as_array(doc["frame_bounds"], "frame_bounds")
    pairs = []
    for i, entry in enumerate(raw):
        path = f"frame_bounds[{i}]"
        if isinstance(entry, dict):
            _reject_unknown(entry, {"name", "bounds"}, path)
            name = entry.get("name", f"F{i + 1}")
            if not isinstance(name, str):
                raise _schema_error(path + ".name", "must be a string")
            pairs.append((name, _as_bound_pair(entry.get("bounds"), path + ".bounds")))
        else:
            pairs.append((f"F{i + 1}", _as_bound_pair(entry, path)))
    if len(pairs) != len(coefficients):
        raise _schema_error(
            "coefficients", f"{len(pairs)} bound pairs but {len(coefficients)} coefficients"
        )
    return None, pairs, coefficients, pivot


def _payload_two_frame(spec: ExperimentSpec):
    doc = spec.document
    has_frames = "frame1" in doc or "frame2" in doc
    has_bounds = "bounds1" in doc or "bounds2" in doc
    if has_frames == has_bounds:
        raise _schema_error("", f"{spec.kind} needs either frame1+frame2 or bounds1+bounds2")
    if has_frames:
        if "frame1" not in doc or "frame2" not in doc:
            raise _schema_error("", f"{spec.kind} needs both frame1 and frame2")
        return (
            _as_frame(doc["frame1"], "frame1", "F"),
            _as_frame(doc["frame2"], "frame2", "G"),
            None,
            None,
        )
    return (
        None,
        None,
        _as_bound_pair(doc.get("bounds1"), "bounds1"),
        _as_bound_pair(doc.get("bounds2"), "bounds2"),
    )


def _payload_operator_sum(spec: ExperimentSpec):
    doc = spec.document
    theta1 = _as_matrix(doc.get("theta1"), "theta1")
    theta2 = _as_matrix(doc.get("theta2"), "theta2")
    for name, theta in (("theta1", theta1), ("theta2", theta2)):
        if theta.shape[0] != theta.shape[1]:
            raise _schema_error(name, f"must be square, got {theta.shape}")
    f1, f2, b1, b2 = _payload_two_frame(spec)
    return f1, f2, b1, b2, theta1, theta2


def _payload_perturbed_sum(spec: ExperimentSpec):
    doc = spec.document
    alpha = _as_vector(doc.get("alpha"), "alpha")
    beta = _as_vector(doc.get("beta"), "beta")
    f1, f2, b1, b2 = _payload_two_frame(spec)
    if f1 is not None:
        if len(alpha) != f1.frame.count or len(beta) != f2.frame.count:
            raise _schema_error(
                "alpha", "scalar sequences must have one entry per frame vector"
            )
    elif len(alpha) == 0 or len(beta) == 0:
        raise _schema_error("alpha", "scalar sequences must be nonempty")
    return f1, f2, b1, b2, alpha, beta


def _payload_gabor(spec: ExperimentSpec):
    doc = spec.document
    gen_obj = _as_object(doc.get("generator"), "generator")
    _reject_unknown(gen_obj, {"pieces"}, "generator")
    pieces = []
    for i, piece in enumerate(_as_array(gen_obj.get("pieces"), "generator.pieces")):
        path = f"generator.pieces[{i}]"
        obj = _as_object(piece, path)
        _reject_unknown(obj, {"lo", "hi", "kind", "alpha", "beta"}, path)
        kind = obj.get("kind")
        if kind not in ("affine", "sqrt-affine"):
            raise _schema_error(path + ".kind", f"must be affine or sqrt-affine, got {kind!r}")
        pieces.append(
            dict(
                lo=_as_real(obj.get("lo"), path + ".lo"),
                hi=_as_real(obj.get("hi"), path + ".hi"),
                kind=kind,
                alpha=_as_real(obj.get("alpha"), path + ".alpha"),
                beta=_as_real(obj.get("beta"), path + ".beta"),
            )
        )
    try:
        generator = PiecewiseGenerator(pieces)
    except (FrameToolkitError, ValueError) as exc:
        raise _schema_error("generator.pieces", str(exc)) from None

    if ("lattice" in doc) == ("wh" in doc):
        raise _schema_error("", "gabor needs exactly one of lattice or wh")
    wh = None
    if "lattice" in doc:
        obj = _as_object(doc["lattice"], "lattice")
        _reject_unknown(obj, {"a", "b"}, "lattice")
        try:
            lattice = LatticeParams(_as_real(obj.get("a"), "lattice.a"), _as_real(obj.get("b"), "lattice.b"))
        except FrameToolkitError as exc:
            raise _schema_error("lattice", str(exc)) from None
    else:
        obj = _as_object(doc["wh"], "wh")
        _reject_unknown(obj, {"P", "Q", "p0", "q0"}, "wh")
        try:
            wh = WHParams(
                P=_as_real(obj.get("P"), "wh.P"),
                Q=_as_real(obj.get("Q"), "wh.Q"),
                p0=_as_real(obj.get("p0"), "wh.p0"),
                q0=_as_real(obj.get("q0"), "wh.q0"),
            )
            lattice = wh_to_gabor(wh).lattice
        except FrameToolkitError as exc:
            raise _schema_error("wh", str(exc)) from None
    stated = None
    if "stated_bounds" in doc:
        stated = _as_bound_pair(doc["stated_bounds"], "stated_bounds")
    return generator, lattice, wh, stated


def _payload_algo(spec: ExperimentSpec):
    doc = spec.document
    max_iters = doc.get("max_iters", 60)
    if isinstance(max_iters, bool) or not isinstance(max_iters, int) or max_iters < 1:
        raise _schema_error("max_iters", f"must be a positive integer, got {max_iters!r}")
    runs = []
    for i, entry in enumerate(_as_array(doc.get("runs"), "runs")):
        path = f"runs[{i}]"
        obj = _as_object(entry, path)
        _reject_unknown(obj, {"label", "frame", "bounds"}, path)
        label = obj.get("label", f"run{i + 1}")
        if not isinstance(label, str) or not label:
            raise _schema_error(path + ".label", "must be a nonempty string")
        frame = _as_frame(obj.get("frame"), path + ".frame", label)
        bounds_field = obj.get("bounds", "oracle")
        if bounds_field == "oracle":
            bounds = None
        else:
            bounds = _as_bound_pair(bounds_field, path + ".bounds")
        runs.append((label, frame, bounds))
    if not runs:
        raise _schema_error("runs", "must be nonempty")
    labels = [r[0] for r in runs]
    if len(set(labels)) != len(labels):
        raise _schema_error("runs", f"duplicate run labels in {labels}")
    return runs, max_iters


_PAYLOAD_VALIDATORS = {
    "bounds": _payload_bounds,
    "width": _payload_width,
    "dual": _payload_dual,
    "finite-sum": _payload_finite_sum,
    "operator-sum": _payload_operator_sum,
    "perturbed-sum": _payload_perturbed_sum,
    "gabor": _payload_gabor,
    "algo": _payload_algo,
}


# ---------------------------------------------------------------------------
# execution


@dataclass
class ExperimentResult:
    """Everything a front end needs: text report, JSON payload, optional CSV."""

    label: str
    kind: str
    status: str  # pass | flagged | fail
    lines: list
    payload: dict
    csv: tuple | None = None  # (header, rows)
    csv_name: str | None = None

    @property
    def exit_code(self) -> int:
        return 0 if self.status in ("pass", "flagged") else 2

    def report_text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def report_json(self) -> str:
        return json.dumps(self.payload, indent=2) + "\n"


class _Reporter:
    """Accumulates report lines, notes, and expectation failures."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        self.lines = [f"experiment: {spec.label} ({spec.kind})"]
        if spec.title:
            self.lines.append(f"title: {spec.title}")
        self.notes = list(spec.notes)
        self.flags = list(spec.discrepancies)
        self.failures = []
        self.payload = {"label": spec.label, "kind": spec.kind}
        self.rtol = spec.expect.get("rtol", DEFAULT_EXPECT_RTOL)

    def line(self, text: str):
        self.lines.append(text)

    def flag(self, text: str):
        self.flags.append(text)

    def fail(self, text: str):
        self.failures.append(text)

    def check_close(self, name: str, got: float, want: float):
        if not math.isclose(got, want, rel_tol=self.rtol, abs_tol=0.0):
            self.fail(f"expected {name} = {_fmt(want)}, got {_fmt(got)}")

    def check_equal(self, name: str, got, want):
        if got != want:
            self.fail(f"expected {name} = {want!r}, got {got!r}")

    def finish(self) -> ExperimentResult:
        if self.flags:
            self.line("flags:")
            for text in self.flags:
                self.line(f"  - {text}")
        if self.notes:
            self.line("notes:")
            for text in self.notes:
                self.line(f"  - {text}")
        if self.failures:
            self.line("failures:")
            for text in self.failures:
                self.line(f"  - {text}")
        status = "fail" if self.failures else ("flagged" if self.flags else "pass")
        self.line(f"status: {status}")
        self.payload["flags"] = list(self.flags)
        self.payload["notes"] = list(self.notes)
        self.payload["failures"] = list(self.failures)
        self.payload["status"] = status
        return ExperimentResult(
            label=self.spec.label,
            kind=self.spec.kind,
            status=status,
            lines=self.lines,
            payload=self.payload,
            csv_name=self.spec.csv_name,
        )


def _bounds_json(bounds: FrameBounds) -> dict:
    return {"lower": bounds.lower, "upper": bounds.upper, "width": bounds.width}


def _describe_frame(rep: _Reporter, fi: FrameInput) -> FrameBounds:
    """Report one frame's oracle bounds, flag stated disagreements, and return
    the oracle pair."""
    oracle = fi.oracle_bounds()
    rep.line(
        f"frame {fi.name}: {fi.frame.count} vectors in dimension {fi.frame.dim}, "
        f"oracle bounds [{_fmt(oracle.lower)}, {_fmt(oracle.upper)}], "
        f"width {format_width(oracle.width)}"
    )
    if fi.stated_bounds is not None:
        stated = fi.stated_bounds
        rep.line(f"frame {fi.name}: stated bounds [{_fmt(stated.lower)}, {_fmt(stated.upper)}]")
        if not (
            math.isclose(stated.lower, oracle.lower, rel_tol=STATED_MATCH_TOLERANCE)
            and math.isclose(stated.upper, oracle.upper, rel_tol=STATED_MATCH_TOLERANCE)
        ):
            rep.flag(
                f"stated bounds [{_fmt(stated.lower)}, {_fmt(stated.upper)}] for frame "
                f"{fi.name} disagree with oracle bounds [{_fmt(oracle.lower)}, {_fmt(oracle.upper)}]"
            )
    return oracle


def _stated_or_oracle(fi: FrameInput, oracle: FrameBounds) -> FrameBounds:
    return fi.stated_bounds if fi.stated_bounds is not None else oracle


def _report_prediction(rep: _Reporter, tag: str, predicted) -> dict:
    rep.line(
        f"predicted bounds ({tag}): [{_fmt(predicted.lower)}, {_fmt(predicted.upper)}]"
        + (f", width {format_width(predicted.width)}" if predicted.condition_holds else "")
    )
    rep.line(
        f"condition ({tag}): margin {_fmt(predicted.condition_margin)} -> "
        + ("holds" if predicted.condition_holds else "FAILS (needs margin > 0)")
    )
    return {
        "lower": predicted.lower,
        "upper": predicted.upper,
        "condition_holds": predicted.condition_holds,
        "condition_margin": predicted.condition_margin,
        "width": predicted.width if predicted.condition_holds else None,
    }


def _report_certification(rep: _Reporter, report) -> dict:
    rep.line(
        f"built sum oracle bounds: [{_fmt(report.exact.lower)}, {_fmt(report.exact.upper)}], "
        f"width {format_width(report.exact_width)}"
    )
    rep.line(
        f"certified: {'yes' if report.certified else 'NO'} "
        f"(slacks {_fmt(report.lower_slack)}, {_fmt(report.upper_slack)})"
    )
    return {
        "exact": _bounds_json(report.exact),
        "certified": report.certified,
        "slacks": [report.lower_slack, report.upper_slack],
        "widths": {"predicted": report.predicted_width, "exact": report.exact_width},
    }


def _certify_and_report(rep: _Reporter, oracle_pred, stated_pred, built_frame) -> None:
    """Certify the oracle-basis prediction; bracket-check any stated one."""
    payload = rep.payload
    if not oracle_pred.condition_holds:
        rep.fail(
            "sufficiency condition fails on oracle input bounds "
            f"(margin {_fmt(oracle_pred.condition_margin)})"
        )
        return
    try:
        report = certify(oracle_pred, built_frame)
    except NotAFrameError as exc:
        rep.fail(f"built sum is not a frame: {exc}")
        return
    payload["certification"] = _report_certification(rep, report)
    if not report.certified:
        rep.fail("certification failed: prediction does not bracket the oracle bounds")
    if stated_pred is not None and stated_pred.condition_holds:
        lo_ok = stated_pred.lower <= report.exact.lower * (1.0 + STATED_MATCH_TOLERANCE)
        hi_ok = stated_pred.upper >= report.exact.upper * (1.0 - STATED_MATCH_TOLERANCE)
        if not (lo_ok and hi_ok):
            rep.flag(
                "prediction from stated bounds "
                f"[{_fmt(stated_pred.lower)}, {_fmt(stated_pred.upper)}] does not bracket "
                f"the built sum's oracle bounds [{_fmt(report.exact.lower)}, "
                f"{_fmt(report.exact.upper)}]; stated input bounds are not valid for their frame"
            )


def _check_expected_prediction(rep: _Reporter, predicted) -> None:
    expect = rep.spec.expect
    if "predicted" in expect:
        want = expect["predicted"]
        rep.check_close("predicted lower", predicted.lower, want.lower)
        rep.check_close("predicted upper", predicted.upper, want.upper)
    if "condition_margin" in expect:
        rep.check_close("condition margin", predicted.condition_margin, expect["condition_margin"])
    if "predicted_width_4dp" in expect:
        rep.check_equal(
            "predicted width (4dp)", format_width(predicted.width), expect["predicted_width_4dp"]
        )


def _check_expected_certified(rep: _Reporter) -> None:
    expect = rep.spec.expect
    if "certified" in expect:
        got = rep.payload.get("certification", {}).get("certified")
        rep.check_equal("certified", got, expect["certified"])


def _run_bounds(spec: ExperimentSpec, rng) -> ExperimentResult:
    rep = _Reporter(spec)
    fi = spec.payload
    cert = exact_bounds(fi.frame)
    oracle = _describe_frame(rep, fi)
    rep.line(
        f"tight: {'yes' if cert.is_tight else 'no'}; parseval: {'yes' if cert.is_parseval else 'no'}"
    )
    rep.payload["bounds"] = _bounds_json(oracle)
    rep.payload["width_4dp"] = format_width(cert.width)
    rep.payload["is_tight"] = cert.is_tight
    rep.payload["is_parseval"] = cert.is_parseval
    expect = spec.expect
    if "bounds" in expect:
        want = expect["bounds"]
        rep.check_close("lower bound", oracle.lower, want.lower)
        rep.check_close("upper bound", oracle.upper, want.upper)
    if "width_4dp" in expect:
        rep.check_equal("width (4dp)", format_width(cert.width), expect["width_4dp"])
    if "tight" in expect:
        rep.check_equal("tight", cert.is_tight, expect["tight"])
    if "parseval" in expect:
        rep.check_equal("parseval", cert.is_parseval, expect["parseval"])
    return rep.finish()


def _run_width(spec: ExperimentSpec, rng) -> ExperimentResult:
    rep = _Reporter(spec)
    entries = spec.payload
    report = width_report(entries)
    for entry in report:
        rep.line(f"width {entry.label}: {entry.text} ({_fmt(entry.width)})")
    rep.payload["widths"] = [
        {"label": e.label, "width": e.width, "width_4dp": e.text} for e in report
    ]
    if "widths_4dp" in spec.expect:
        rep.check_equal("widths (4dp)", [e.text for e in report], spec.expect["widths_4dp"])
    return rep.finish()


def _run_dual(spec: ExperimentSpec, rng) -> ExperimentResult:
    rep = _Reporter(spec)
    payload = spec.payload
    expect = spec.expect
    if payload[2] is None:
        b1, b2, _ = payload
        rep.line(f"given bounds: [{_fmt(b1.lower)}, {_fmt(b1.upper)}] and [{_fmt(b2.lower)}, {_fmt(b2.upper)}]")
        rep.line("frames not supplied: prediction only, duality asserted by the caller")
        predicted = dual_sum_predict(b1, b2)
        rep.payload["prediction"] = _report_prediction(rep, "given", predicted)
        _check_expected_prediction(rep, predicted)
        return rep.finish()

    fi, gi, trials = payload
    check = verify_dual(fi.frame, gi.frame, trials=trials, rng=rng)
    rep.line(
        f"dual identity over {trials} random unit vectors: max residual {_fmt(check.max_residual)}"
        f" -> {'verified' if check.is_dual else 'NOT a dual pair'}"
    )
    rep.payload["verify_dual"] = {"is_dual": check.is_dual, "max_residual": check.max_residual}
    if "verify_dual" in expect:
        rep.check_equal("verify_dual", check.is_dual, expect["verify_dual"])
    if not check.is_dual:
        rep.fail("dual identity does not hold; the dual-sum rule does not apply")
        return rep.finish()

    oracle1 = _describe_frame(rep, fi)
    oracle2 = _describe_frame(rep, gi)
    stated1 = _stated_or_oracle(fi, oracle1)
    stated2 = _stated_or_oracle(gi, oracle2)
    oracle_pred = dual_sum_predict(oracle1, oracle2)
    has_stated = fi.stated_bounds is not None or gi.stated_bounds is not None
    stated_pred = dual_sum_predict(stated1, stated2) if has_stated else None
    shown = stated_pred if stated_pred is not None else oracle_pred
    rep.payload["prediction"] = _report_prediction(
        rep, "stated inputs" if has_stated else "oracle inputs", shown
    )
    if has_stated:
        rep.payload["prediction_oracle"] = _report_prediction(rep, "oracle inputs", oracle_pred)

    # the width table compares the input frames with the *predicted* pair for
    # the sum, which is how tightness gains are quoted
    widths = width_report(
        [
            (fi.name, oracle1),
            (gi.name, oracle2),
            (f"{fi.name}+{gi.name}", shown.as_bounds()),
        ]
    )
    rep.line("widths: " + "  ".join(f"{w.label} {w.text}" for w in widths))
    rep.payload["widths_4dp"] = [w.text for w in widths]
    if "widths_4dp" in expect:
        rep.check_equal("widths (4dp)", [w.text for w in widths], expect["widths_4dp"])

    built = FiniteFrame(fi.frame.vectors + gi.frame.vectors)
    _certify_and_report(rep, oracle_pred, stated_pred, built)
    if "certification" in rep.payload and "sum_bounds" in expect:
        exact = rep.payload["certification"]["exact"]
        want = expect["sum_bounds"]
        rep.check_close("sum lower bound", exact["lower"], want.lower)
        rep.check_close("sum upper bound", exact["upper"], want.upper)
    _check_expected_prediction(rep, shown)
    _check_expected_certified(rep)
    return rep.finish()


def _run_finite_sum(spec: ExperimentSpec, rng) -> ExperimentResult:
    rep = _Reporter(spec)
    frames, pairs, coefficients, pivot = spec.payload
    rep.line(
        "coefficients: "
        + ", ".join(_fmt(c.real) if c.imag == 0 else f"{_fmt(c.real)}{c.imag:+.12g}i" for c in coefficients)
    )

    if frames is None:
        names = [name for name, _ in pairs]
        bounds = [b for _, b in pairs]
        for name, b in pairs:
            rep.line(f"frame {name}: given bounds [{_fmt(b.lower)}, {_fmt(b.upper)}]")
        if pivot == "best":
            pivot_index, predicted = finite_sum_best_pivot(bounds, coefficients)
        else:
            pivot_index = pivot - 1
            predicted = finite_sum_predict(bounds, coefficients, pivot_index)
        rep.line(f"pivot: {names[pivot_index]} (index {pivot_index + 1})")
        rep.payload["prediction"] = _report_prediction(rep, "given", predicted)
        if not predicted.condition_holds:
            rep.fail(
                f"sufficiency condition fails at pivot {pivot_index + 1} "
                f"(margin {_fmt(predicted.condition_margin)})"
            )
        _check_expected_prediction(rep, predicted)
        return rep.finish()

    oracles = [_describe_frame(rep, fi) for fi in frames]
    stated = [_stated_or_oracle(fi, oracle) for fi, oracle in zip(frames, oracles)]
    has_stated = any(fi.stated_bounds is not None for fi in frames)

    if pivot == "best":
        pivot_index, oracle_pred = finite_sum_best_pivot(oracles, coefficients)
    else:
        pivot_index = pivot - 1
        oracle_pred = finite_sum_predict(oracles, coefficients, pivot_index)
    stated_pred = (
        finite_sum_predict(stated, coefficients, pivot_index) if has_stated else None
    )
    rep.line(f"pivot: {frames[pivot_index].name} (index {pivot_index + 1})")
    shown = stated_pred if stated_pred is not None else oracle_pred
    rep.payload["prediction"] = _report_prediction(
        rep, "stated inputs" if has_stated else "oracle inputs", shown
    )
    if has_stated:
        rep.payload["prediction_oracle"] = _report_prediction(rep, "oracle inputs", oracle_pred)

    built = build_sum_frame(
        WeightedSumSpec(
            frames=tuple(fi.frame for fi in frames),
            coefficients=np.array(coefficients, dtype=complex),
            pivot=pivot_index,
        )
    )
    _certify_and_report(rep, oracle_pred, stated_pred, built)
    _check_expected_prediction(rep, shown)
    _check_expected_certified(rep)
    return rep.finish()


def _run_operator_sum(spec: ExperimentSpec, rng) -> ExperimentResult:
    rep = _Reporter(spec)
    f1, f2, b1, b2, theta1, theta2 = spec.payload

    if f1 is None:
        m1, n1 = extreme_singular_values(theta1)
        m2, n2 = extreme_singular_values(theta2)
        rep.line(f"operator 1: sigma range [{_fmt(m1)}, {_fmt(n1)}]")
        rep.line(f"operator 2: sigma range [{_fmt(m2)}, {_fmt(n2)}]")
        rep.line(f"given bounds: [{_fmt(b1.lower)}, {_fmt(b1.upper)}] and [{_fmt(b2.lower)}, {_fmt(b2.upper)}]")
        margin = b1.lower * m1**2 + b2.lower * m2**2 - 2.0 * math.sqrt(b1.upper * b2.upper) * n1 * n2
        upper = (math.sqrt(b1.upper) * n1 + math.sqrt(b2.upper) * n2) ** 2
        predicted = PredictedBounds(margin, upper, margin > 0.0, margin)
        rep.payload["prediction"] = _report_prediction(rep, "given", predicted)
        if not predicted.condition_holds:
            rep.fail(f"sufficiency condition fails (margin {_fmt(margin)})")
        _check_expected_prediction(rep, predicted)
        return rep.finish()

    op_spec = OperatorSumSpec(frame1=f1.frame, frame2=f2.frame, theta1=theta1, theta2=theta2)
    rep.line(f"operator 1: sigma range [{_fmt(op_spec.m1)}, {_fmt(op_spec.norm1)}]")
    rep.line(f"operator 2: sigma range [{_fmt(op_spec.m2)}, {_fmt(op_spec.norm2)}]")
    oracle1 = _describe_frame(rep, f1)
    oracle2 = _describe_frame(rep, f2)
    stated1 = _stated_or_oracle(f1, oracle1)
    stated2 = _stated_or_oracle(f2, oracle2)
    has_stated = f1.stated_bounds is not None or f2.stated_bounds is not None
    oracle_pred = operator_sum_predict(op_spec, oracle1, oracle2)
    stated_pred = operator_sum_predict(op_spec, stated1, stated2) if has_stated else None
    shown = stated_pred if stated_pred is not None else oracle_pred
    rep.payload["prediction"] = _report_prediction(
        rep, "stated inputs" if has_stated else "oracle inputs", shown
    )
    if has_stated:
        rep.payload["prediction_oracle"] = _report_prediction(rep, "oracle inputs", oracle_pred)
    built = build_operator_sum_frame(op_spec)
    _certify_and_report(rep, oracle_pred, stated_pred, built)
    _check_expected_prediction(rep, shown)
    _check_expected_certified(rep)
    return rep.finish()


def _run_perturbed_sum(spec: ExperimentSpec, rng) -> ExperimentResult:
    rep = _Reporter(spec)
    f1, f2, b1, b2, alpha, beta = spec.payload
    env1 = ScalarEnvelope.from_sequence(np.array(alpha, dtype=complex))
    env2 = ScalarEnvelope.from_sequence(np.array(beta, dtype=complex))
    rep.line(f"alpha envelope: |.| in [{_fmt(env1.inf_abs)}, {_fmt(env1.sup_abs)}]")
    rep.line(f"beta envelope: |.| in [{_fmt(env2.inf_abs)}, {_fmt(env2.sup_abs)}]")

    if f1 is None:
        rep.line(f"given bounds: [{_fmt(b1.lower)}, {_fmt(b1.upper)}] and [{_fmt(b2.lower)}, {_fmt(b2.upper)}]")
        predicted = perturbed_sum_predict(env1, env2, b1, b2)
        rep.payload["prediction"] = _report_prediction(rep, "given", predicted)
        if not predicted.condition_holds:
            rep.fail(f"sufficiency condition fails (margin {_fmt(predicted.condition_margin)})")
        _check_expected_prediction(rep, predicted)
        return rep.finish()

    oracle1 = _describe_frame(rep, f1)
    oracle2 = _describe_frame(rep, f2)
    stated1 = _stated_or_oracle(f1, oracle1)
    stated2 = _stated_or_oracle(f2, oracle2)
    has_stated = f1.stated_bounds is not None or f2.stated_bounds is not None
    oracle_pred = perturbed_sum_predict(env1, env2, oracle1, oracle2)
    stated_pred = perturbed_sum_predict(env1, env2, stated1, stated2) if has_stated else None
    shown = stated_pred if stated_pred is not None else oracle_pred
    rep.payload["prediction"] = _report_prediction(
        rep, "stated inputs" if has_stated else "oracle inputs", shown
    )
    if has_stated:
        rep.payload["prediction_oracle"] = _report_prediction(rep, "oracle inputs", oracle_pred)
    built = build_perturbed_sum_frame(env1, env2, f1.frame, f2.frame)
    _certify_and_report(rep, oracle_pred, stated_pred, built)
    _check_expected_prediction(rep, shown)
    _check_expected_certified(rep)
    return rep.finish()


def _run_gabor(spec: ExperimentSpec, rng) -> ExperimentResult:
    rep = _Reporter(spec)
    generator, lattice, wh, stated = spec.payload
    rep.line(
        f"window: {len(generator.pieces)} pieces supported on "
        f"[{_fmt(generator.support_lo)}, {_fmt(generator.support_hi)})"
    )
    if wh is not None:
        rep.line(
            f"group parameters P={_fmt(wh.P)}, Q={_fmt(wh.Q)}, p0={_fmt(wh.p0)}, q0={_fmt(wh.q0)} "
            f"map to lattice (a, b) = ({_fmt(lattice.a)}, {_fmt(lattice.b)})"
        )
    else:
        rep.line(f"lattice (a, b) = ({_fmt(lattice.a)}, {_fmt(lattice.b)})")
    estimate = estimate_bounds(generator, lattice)
    rep.line(
        f"estimated bounds: [{_fmt(estimate.lower)}, {_fmt(estimate.upper)}] "
        + ("(exact: no overlap term)" if estimate.exact else f"(grid, {estimate.grid_resolution} points)")
    )
    rep.payload["estimate"] = {
        "lower": estimate.lower,
        "upper": estimate.upper,
        "g1_identically_zero": estimate.g1_identically_zero,
        "exact": estimate.exact,
        "grid_resolution": estimate.grid_resolution,
    }
    if stated is not None:
        rep.line(f"stated bounds: [{_fmt(stated.lower)}, {_fmt(stated.upper)}]")
        if not (
            math.isclose(stated.lower, estimate.lower, rel_tol=STATED_MATCH_TOLERANCE)
            and math.isclose(stated.upper, estimate.upper, rel_tol=STATED_MATCH_TOLERANCE)
        ):
            rep.flag(
                f"stated bounds [{_fmt(stated.lower)}, {_fmt(stated.upper)}] disagree with "
                f"the computed estimate [{_fmt(estimate.lower)}, {_fmt(estimate.upper)}]"
            )
    expect = spec.expect
    if "bounds" in expect:
        want = expect["bounds"]
        rep.check_close("estimated lower bound", estimate.lower, want.lower)
        rep.check_close("estimated upper bound", estimate.upper, want.upper)
    if "exact" in expect:
        rep.check_equal("exact flag", estimate.exact, expect["exact"])
    return rep.finish()


def _run_algo(spec: ExperimentSpec, rng) -> ExperimentResult:
    rep = _Reporter(spec)
    runs, max_iters = spec.payload
    configs, targets, labels, widths = [], [], [], []
    for label, fi, bounds in runs:
        oracle = fi.oracle_bounds()
        used = bounds if bounds is not None else oracle
        rep.line(
            f"run {label}: bounds [{_fmt(used.lower)}, {_fmt(used.upper)}]"
            + (" (oracle)" if bounds is None else "")
            + f", width {format_width(used.width)}"
        )
        configs.append(AlgoConfig(frame=fi.frame, bounds_used=used, max_iters=max_iters))
        targets.append(random_unit_vector(rng, fi.frame.dim))
        labels.append(label)
        widths.append(used.width)
    table = compare_runs(configs, targets, labels)
    final = {s.label: s.records[-1] for s in table.series}
    for label in labels:
        record = final[label]
        rep.line(
            f"run {label}: stopped at k={record.iteration}, "
            f"error {_fmt(record.error)}, envelope {_fmt(record.envelope)}"
        )
    rep.payload["runs"] = [
        {
            "label": s.label,
            "width": s.width,
            "iterations": len(s.records) - 1,
            "final_error": s.records[-1].error,
        }
        for s in table.series
    ]
    dominated = all(
        record.error <= record.envelope * (1.0 + 1e-9) + 1e-12
        for s in table.series
        for record in s.records
    )
    rep.line(f"errors within envelopes: {'yes' if dominated else 'NO'}")
    if not dominated:
        rep.fail("a measured error exceeded its theoretical envelope")
    expect = spec.expect
    if "envelope_order" in expect:
        order = expect["envelope_order"]
        rep.check_equal("run labels", sorted(labels), sorted(order))
        ordered = [widths[labels.index(lbl)] for lbl in order if lbl in labels]
        if any(not earlier > later for earlier, later in zip(ordered, ordered[1:])):
            rep.fail(f"expected strictly decreasing widths along {order}, got {ordered}")
    if "envelope_dominates" in expect:
        rep.check_equal("envelope dominates", dominated, expect["envelope_dominates"])
    result = rep.finish()
    result.csv = (table.header, table.rows())
    return result


_RUNNERS = {
    "bounds": _run_bounds,
    "width": _run_width,
    "dual": _run_dual,
    "finite-sum": _run_finite_sum,
    "operator-sum": _run_operator_sum,
    "perturbed-sum": _run_perturbed_sum,
    "gabor": _run_gabor,
    "algo": _run_algo,
}


def run_experiment(spec: ExperimentSpec, rng=None) -> ExperimentResult:
    """Execute one experiment and return its report, payload, and CSV table."""
    if rng is None:
        rng = np.random.default_rng(0)
    return _RUNNERS[spec.kind](spec, rng)
