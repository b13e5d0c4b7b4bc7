"""Experiment files and the pipelines behind each command.

One experiment is one JSON document.  Complex scalars are two-element
``[re, im]`` arrays (a bare real is accepted where the imaginary part is
zero), frames are arrays of vectors, matrices are arrays of rows, and
piecewise windows are arrays of ``{lo, hi, kind, alpha, beta}`` objects, each
built by :class:`~framesum.gabor.Piece`, whose error names the piece's path.
Every string in a document must be a single line that ``str.splitlines``
leaves whole, since a report prints each in one line.

Frame vectors, ``theta1``/``theta2``, ``alpha``/``beta`` and ``coefficients``
are read by :func:`_as_complex_array` in one flat pass when they hold only
finite numbers, all bare reals or all pairs: one check per nesting level and
one ``array("d")`` conversion of the chained leaves, which refuses every other
JSON value in C.  It takes ``true`` and ``false`` as 1.0 and 0.0, so the leaves'
types are looked at only when a leaf reads 0.0 or 1.0.  Anything else goes
through a per-entry walk, which reads mixed input and names the path of a bad
entry.  The runs of an ``algo`` document whose parsed vectors are equal share
one frame, so its spectrum is solved once.

Each experiment kind is declared once, in the registry ``_KINDS``: its CLI
command, its document fields, its ``expect`` keys with a parser for each
value, its payload parser, which :func:`parse_spec_text` runs once on the
document, and its runner.  ``KINDS`` and the CLI's ``COMMANDS`` derive from it.

The four sum rules share one payload parser (:func:`_payload_sum`) and one
runner (:func:`_run_sum`).  A sum kind's entry binds a parser of its own fields
into the first, and three functions into the second: a start writes the lines
before the summands' bounds and returns what prediction needs, or ``None`` when
the dual identity (:func:`~framesum.frames.verify_dual`) fails; a predictor
returns one prediction per list of bound pairs, and where a failing condition
was taken; a builder builds the summed family, always in :mod:`~framesum.sums`.
The dual sum is the finite sum with ``c = (1, 1)``, and the perturbed rule is
the operator rule on modulus ranges (:func:`_report_ranges`,
:func:`_ranged_predictions`).  The runner predicts once, over the given pairs,
or over the oracle bounds and then any ``stated_bounds``, which change only the
reported prediction.  It builds the sum only once the oracle-basis condition
holds, and asks :func:`~framesum.sums.certify` about both predictions: the
oracle-basis one must bracket the sum's oracle bounds, and a stated-basis one
whose condition holds and that does not is flagged.

Every kind is deterministic except ``algo``: the random generator handed to
:func:`run_experiment` (the CLI's ``--seed``) draws only its runs' targets.

Fixtures bundled with the package add an ``expect`` block (reference values
re-checked on every run) and a ``discrepancies`` list naming the places where
a stated reference value disagrees with what the oracle computes; those
records make a fixture "flagged" instead of "pass" without failing it.  A
runner collects its report in one :class:`ExperimentResult`: text lines and
payload keys side by side, and what it computed with
``ExperimentResult.observe(key=value)``.  ``ExperimentResult.finish`` checks
every ``expect`` key against that in one loop (a key the run never observed
fails as ``got None``), writes the flags, notes and failures into both
outputs, and sets the status.  A run that overflows the floating-point range
raises :class:`~framesum.errors.NumericRangeError`.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from .algorithm import ComparisonTable, format_width, run
from .errors import (
    FrameToolkitError,
    NotAFrameError,
    NumericRangeError,
    SpecParseError,
    SpecSchemaError,
)
from .frames import FiniteFrame, FrameBounds, exact_bounds, random_unit_vector, verify_dual
from .gabor import LatticeParams, Piece, PiecewiseGenerator, WHParams, estimate_bounds, wh_to_gabor
from .linalg import as_index, as_real, extreme_singular_values
from .sums import (
    build_operator_sum_frame,
    build_perturbed_sum_frame,
    build_sum_frame,
    certify,
    dual_sum_predict,
    finite_sum_best_pivot,
    finite_sum_predict,
    modulus_range,
    operator_sum_predict,
)

#: relative tolerance for comparing a stated bound against the oracle value.
STATED_MATCH_TOLERANCE = 1e-9

#: default relative tolerance for expect-block comparisons.
DEFAULT_EXPECT_RTOL = 1e-9

#: largest ``max_iters`` an algo document may ask for: a run keeps two floats
#: per iteration, so the cap bounds its time and memory (fixtures use 60).
MAX_ITERS = 100_000

#: largest number of ``(n, k)`` terms a gabor document may ask for, counted as
#: ``(L/a + 1) * (2 L b + 1)`` for a window of support length ``L`` on the
#: lattice ``(a, b)``.  The estimate loops over these terms in Python, so the
#: cap bounds its time; the piece count adds little on either path.  Affine
#: windows on ``[0, 1)``, as one piece or as 10000 pieces at random breakpoints
#: (a 1 MB document), through ``framesum gabor`` on a 2-core x86-64 Xeon: on the
#: grid path, ``a = 1/3330`` and ``b = 1.0001`` (9994 terms) took 1.0 s and
#: 1.2 s (median of six runs), the slowest admitted documents measured; on the
#: closed-form path, ``a = 1/9900`` and ``b = 0.0004`` (9909 terms) took 0.03 s
#: and 1.1 s.
MAX_SHIFT_TERMS = 10_000


def _fmt(value: float) -> str:
    """12-significant-digit rendering used by reports (the CSV renders the same way)."""
    return format(float(value), ".12g")


# ---------------------------------------------------------------------------
# schema helpers


def _schema_error(path: str, message: str) -> SpecSchemaError:
    return SpecSchemaError(message, field=path)


def _checked(path: str, make, *args):
    """``make(*args)``, with a toolkit error or a reader's ``TypeError`` or ``ValueError``
    turned into a schema error at ``path`` with the same message."""
    try:
        return make(*args)
    except (FrameToolkitError, TypeError, ValueError) as exc:
        raise _schema_error(path, str(exc)) from None


def _as_index(value, path: str, message: str) -> int:
    """``value`` read by :func:`~framesum.linalg.as_index`, or a schema error at ``path``."""
    try:
        return as_index(value)
    except TypeError:
        raise _schema_error(path, message) from None


def _unique_keys(pairs) -> dict:
    """A JSON object's members as a dict.  A key given twice is a schema error:
    the reader would otherwise keep the last value and drop the first unseen."""
    document = dict(pairs)
    if len(document) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _schema_error("", f"repeated key {key!r}")
            seen.add(key)
    return document


def _as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise _schema_error(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_record(value, path: str, allowed) -> dict:
    """An object whose keys all lie in ``allowed``."""
    for key in _as_object(value, path):
        if key not in allowed:
            raise _schema_error(f"{path}.{key}" if path else key, "unknown field")
    return value


def _as_array(value, path: str) -> list:
    if not isinstance(value, list):
        raise _schema_error(path, f"expected an array, got {type(value).__name__}")
    return value


def _as_real(value, path: str) -> float:
    return _checked(path, as_real, value)


def _as_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_real(value, path), 0.0)
    if not isinstance(value, list):
        raise _schema_error(path, f"complex scalar must be a real number or [re, im], got {value!r}")
    if len(value) != 2:
        raise _schema_error(path, f"complex scalar must be [re, im], got {value!r}")
    return complex(_as_real(value[0], path + "[0]"), _as_real(value[1], path + "[1]"))


def _as_bound_pair(value, path: str) -> FrameBounds:
    arr = _as_array(value, path)
    if len(arr) != 2:
        raise _schema_error(path, f"bound pair must be [lower, upper], got {value!r}")
    lo = _as_real(arr[0], path + "[0]")
    hi = _as_real(arr[1], path + "[1]")
    return _checked(path, FrameBounds, lo, hi)


def _as_tolerance(value, path: str) -> float:
    out = _as_real(value, path)
    if out < 0.0:
        raise _schema_error(path, f"expected a number >= 0, got {value!r}")
    return out


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise _schema_error(path, f"expected true or false, got {value!r}")
    return value


def _as_string(value, path: str) -> str:
    """A string that a report prints in one line: ``str.splitlines`` leaves it whole."""
    if not isinstance(value, str):
        raise _schema_error(path, f"expected a string, got {value!r}")
    if value and value.splitlines() != [value]:
        raise _schema_error(path, "must not contain a line break")
    return value


def _as_name(value, path: str) -> str:
    """A label or a name: a nonempty string in one line."""
    if not isinstance(value, str) or not value:
        raise _schema_error(path, "must be a nonempty string")
    return _as_string(value, path)


def _as_strings(value, path: str) -> list[str]:
    return [_as_string(entry, f"{path}[{i}]") for i, entry in enumerate(_as_array(value, path))]


def _as_complex_array(value, path: str, ndim: int) -> np.ndarray:
    """A complex array of rank ``ndim``, no axis empty, read from nested arrays.

    The flat read takes one pass per nesting level: every item of a level must
    be an array, all of one nonzero length.  Below the ``ndim`` array levels the
    entries must be all bare reals, or all ``[re, im]`` pairs, as the first
    entry says.  The leaves, chained into one sequence, become one float array
    through ``array("d")``, which refuses in C every leaf that is not a number:
    text, ``null``, an array, an object and an integer beyond the float range.
    So an object of two keys or a string of two characters where a pair goes is
    refused too.  A ``bool`` is the one other JSON value it takes, as exactly
    0.0 or 1.0, so the leaves' types are checked only when a leaf reads 0.0 or
    1.0.  The array is reshaped, and then viewed as complex (pairs) or cast to
    it (bare reals).  Every bit matches the per-entry read, signed zeros
    included, since both convert each leaf as ``float`` does.  Anything else, a
    non-finite value included, goes through :func:`_walk_complex`, which reads
    mixed input and names the path of a bad entry.
    """
    arr = _flat_read(value, ndim)
    return arr if arr is not None else np.array(_walk_complex(value, path, ndim), dtype=complex)


def _flat_read(value, ndim: int) -> np.ndarray | None:
    """The flat read of :func:`_as_complex_array`, or ``None`` where it does not apply."""
    shape = []
    level = [value]
    for _ in range(ndim):
        if set(map(type, level)) != {list}:
            return None
        lengths = set(map(len, level))
        if len(lengths) != 1 or 0 in lengths:
            return None
        shape.append(lengths.pop())
        level = list(chain.from_iterable(level))
    if type(level[0]) is list:  # [re, im] pairs
        try:
            if set(map(len, level)) != {2}:
                return None
        except TypeError:  # a number among the pairs
            return None
        level = list(chain.from_iterable(level))
        shape.append(2)
    try:
        flat = np.frombuffer(array("d", level))
    except (TypeError, OverflowError):  # not a number, or an integer beyond the float range
        return None
    if not np.isfinite(flat).all():
        return None
    if ((flat == 0.0) | (flat == 1.0)).any() and bool in set(map(type, level)):
        return None
    arr = flat.reshape(shape)
    return arr.astype(complex) if len(shape) == ndim else arr.view(complex)[..., 0]


def _walk_complex(value, path: str, ndim: int) -> list:
    """The per-entry read: mixed bare reals and pairs, and the path of a bad entry."""
    arr = _as_array(value, path)
    if not arr:
        raise _schema_error(path, "must be nonempty")
    if ndim == 1:
        return [_as_complex(entry, f"{path}[{i}]") for i, entry in enumerate(arr)]
    rows = [_walk_complex(row, f"{path}[{i}]", ndim - 1) for i, row in enumerate(arr)]
    lengths = {len(row) for row in rows}
    if len(lengths) != 1:
        raise _schema_error(path, f"rows have differing lengths {sorted(lengths)}")
    return rows


@dataclass(frozen=True)
class FrameInput:
    """A frame from an experiment file, with an optional stated bound pair."""

    name: str
    frame: FiniteFrame
    stated_bounds: FrameBounds | None = None


def _as_frame(value, path: str, default_name: str, keys=("name", "vectors", "stated_bounds")) -> FrameInput:
    obj = _as_record(value, path, keys)
    name = _as_name(obj.get("name", default_name), path + ".name")
    vectors = _as_complex_array(obj.get("vectors"), path + ".vectors", 2)
    frame = _checked(path + ".vectors", FiniteFrame, vectors)
    stated = None
    if "stated_bounds" in obj:
        stated = _as_bound_pair(obj["stated_bounds"], path + ".stated_bounds")
    return FrameInput(name=name, frame=frame, stated_bounds=stated)


_COMMON_KEYS = {"kind", "label", "title", "notes", "discrepancies", "expect"}


@dataclass(frozen=True)
class ExperimentSpec:
    """A parsed, schema-validated experiment document.

    ``payload`` is what the kind's payload parser returned for the document;
    the runners read it from here, so each document is validated and
    extracted exactly once.  Equal specs have equal documents, so the hash
    reads the document's ``label``: a spec without one takes its origin's.
    """

    kind: str
    label: str
    title: str
    document: dict
    payload: object = field(repr=False)
    notes: tuple = ()
    discrepancies: tuple = ()
    expect: dict = field(default_factory=dict)  # values parsed by the kind's expect parsers

    def __eq__(self, other):
        return isinstance(other, ExperimentSpec) and self.document == other.document

    def __hash__(self):
        return hash(self.document.get("label"))


def parse_spec_text(text: str, origin="<string>") -> ExperimentSpec:
    """Parse and validate one experiment document from JSON text.  A syntax
    error names ``origin`` as ``pathlib.Path`` renders it, a key repeated in
    any object is a schema error, and a document with no ``label`` takes the
    stem of ``origin``."""
    try:
        document = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SpecParseError(
            f"{Path(origin)}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from None
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit; too deep a nesting
        raise SpecParseError(f"{Path(origin)}: invalid JSON: {exc}") from None
    kind = _as_object(document, "").get("kind")
    if kind not in KINDS:
        raise _schema_error("kind", f"must be one of {', '.join(KINDS)}, got {kind!r}")
    entry = _KINDS[kind]
    _as_record(document, "", _COMMON_KEYS | entry.fields)

    parsers = {"rtol": _as_tolerance, **entry.expect}
    return ExperimentSpec(  # the keywords in the order their fields are checked
        kind=kind,
        document=document,
        label=_as_name(document["label"] if "label" in document else Path(origin).stem, "label"),
        title=_as_string(document.get("title", ""), "title"),
        notes=tuple(_as_strings(document.get("notes", []), "notes")),
        discrepancies=tuple(_as_strings(document.get("discrepancies", []), "discrepancies")),
        expect={
            key: parsers[key](value, f"expect.{key}")
            for key, value in _as_record(document.get("expect", {}), "expect", parsers).items()
        },
        payload=entry.parse(document),
    )


def parse_spec(path) -> ExperimentSpec:
    """Parse an experiment file from disk; messages name it as ``pathlib.Path``
    renders it."""
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except OSError as exc:
        raise SpecParseError(f"cannot read {Path(path)}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SpecParseError(f"{Path(path)} is not valid UTF-8: {exc}") from None
    return parse_spec_text(text, origin=path)


def render_spec(spec: ExperimentSpec) -> str:
    """Canonical JSON serialization; parses back to an equal spec."""
    return json.dumps(spec.document, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# payload extraction (run once, at parse time)


def _payload_bounds(doc: dict) -> FrameInput:
    if "frame" not in doc:
        raise _schema_error("frame", "required for kind bounds")
    return _as_frame(doc["frame"], "frame", "F")


def _payload_width(doc: dict) -> list[tuple[str, FrameBounds]]:
    entries = _as_array(doc.get("entries"), "entries")
    out = []
    for i, entry in enumerate(entries):
        obj = _as_record(entry, f"entries[{i}]", {"label", "bounds"})
        name = _as_name(obj.get("label", f"entry{i + 1}"), f"entries[{i}].label")
        out.append((name, _as_bound_pair(obj.get("bounds"), f"entries[{i}].bounds")))
    if not out:
        raise _schema_error("entries", "must be nonempty")
    return out


def _payload_sum(kind: str, parse_inputs, doc: dict):
    """The summands of a sum-rule document and the rule's own inputs, parsed once.

    Returns ``(frames, None, inputs)`` when the document gives the frames, which
    must all have the same dimension and vector count, and ``(None, pairs,
    inputs)`` of ``(name, FrameBounds)`` pairs when it gives only their bounds;
    ``inputs`` is ``parse_inputs(doc, frames, pairs)``.
    """
    frames = pairs = None
    if kind == "finite-sum":
        if ("frames" in doc) == ("frame_bounds" in doc):
            raise _schema_error("", "finite-sum needs exactly one of frames or frame_bounds")
        key = "frames" if "frames" in doc else "frame_bounds"
        entries = _as_array(doc[key], key)
        if not entries:
            raise _schema_error(key, "must be nonempty")
        if key == "frame_bounds":
            pairs = []
            for i, entry in enumerate(entries):
                path = f"frame_bounds[{i}]"
                if isinstance(entry, dict):
                    _as_record(entry, path, {"name", "bounds"})
                    name = _as_name(entry.get("name", f"F{i + 1}"), path + ".name")
                    pairs.append((name, _as_bound_pair(entry.get("bounds"), path + ".bounds")))
                else:
                    pairs.append((f"F{i + 1}", _as_bound_pair(entry, path)))
        fields = [(f"frames[{i}]", f"F{i + 1}") for i in range(len(entries))]
    else:
        keys = ("frame", "dual") if kind == "dual" else ("frame1", "frame2")
        has_frames = keys[0] in doc or keys[1] in doc
        if has_frames == ("bounds1" in doc or "bounds2" in doc):
            raise _schema_error("", f"{kind} needs either {keys[0]}+{keys[1]} or bounds1+bounds2")
        if not has_frames:
            pairs = [
                ("F", _as_bound_pair(doc.get("bounds1"), "bounds1")),
                ("G", _as_bound_pair(doc.get("bounds2"), "bounds2")),
            ]
        elif keys[0] not in doc or keys[1] not in doc:
            raise _schema_error("", f"{kind} needs both {keys[0]} and {keys[1]}")
        entries = [doc.get(key) for key in keys]
        fields = list(zip(keys, "FG"))
    if pairs is None:
        frames = [_as_frame(entry, path, name) for entry, (path, name) in zip(entries, fields)]
        for fi, (path, _) in zip(frames[1:], fields[1:]):
            first = frames[0].frame
            if (fi.frame.dim, fi.frame.count) != (first.dim, first.count):
                raise _schema_error(
                    path + ".vectors",
                    f"{fi.frame.count} vectors in dimension {fi.frame.dim} do not align with "
                    f"the {first.count} vectors in dimension {first.dim} of {fields[0][0]}",
                )
    return frames, pairs, parse_inputs(doc, frames, pairs)


def _payload_gabor(doc: dict):
    gen_obj = _as_record(doc.get("generator"), "generator", {"pieces"})
    pieces = []
    for i, piece in enumerate(_as_array(gen_obj.get("pieces"), "generator.pieces")):
        path = f"generator.pieces[{i}]"
        obj = _as_record(piece, path, {"lo", "hi", "kind", "alpha", "beta"})
        lo, hi, alpha, beta = (_as_real(obj.get(key), f"{path}.{key}") for key in ("lo", "hi", "alpha", "beta"))
        pieces.append(_checked(path, Piece, lo, hi, obj.get("kind"), alpha, beta))
    generator = _checked("generator.pieces", PiecewiseGenerator, pieces)

    if ("lattice" in doc) == ("wh" in doc):
        raise _schema_error("", "gabor needs exactly one of lattice or wh")
    wh = None
    if "lattice" in doc:
        obj = _as_record(doc["lattice"], "lattice", {"a", "b"})
        a, b = (_as_real(obj.get(key), f"lattice.{key}") for key in ("a", "b"))
        lattice = _checked("lattice", LatticeParams, a, b)
    else:
        obj = _as_record(doc["wh"], "wh", {"P", "Q", "p0", "q0"})
        params = [_as_real(obj.get(key), f"wh.{key}") for key in ("P", "Q", "p0", "q0")]
        wh = _checked("wh", WHParams, *params)
        lattice = _checked("wh", wh_to_gabor, wh)
    length = generator.support_length
    terms = (length / lattice.a + 1.0) * (2.0 * length * lattice.b + 1.0)
    if not terms <= MAX_SHIFT_TERMS:
        raise _schema_error(
            "generator.pieces",
            f"support length {length:.6g} on the lattice (a, b) = ({lattice.a:.6g}, "
            f"{lattice.b:.6g}) needs about {terms:.6g} shift terms, more than {MAX_SHIFT_TERMS}",
        )
    stated = None
    if "stated_bounds" in doc:
        stated = _as_bound_pair(doc["stated_bounds"], "stated_bounds")
    return generator, lattice, wh, stated


def _payload_algo(doc: dict):
    max_iters = doc.get("max_iters", 60)
    message = f"must be an integer in 1..{MAX_ITERS}, got {max_iters!r}"
    if not 1 <= _as_index(max_iters, "max_iters", message) <= MAX_ITERS:
        raise _schema_error("max_iters", message)
    runs = []
    # Runs whose parsed vectors are equal in shape and bytes share one
    # FiniteFrame, and with it one eigensolve.  The parsed arrays are compared,
    # not the JSON values: -0.0 == 0.0 and true == 1 hold in Python.
    shared = {}
    for i, entry in enumerate(_as_array(doc.get("runs"), "runs")):
        path = f"runs[{i}]"
        obj = _as_record(entry, path, {"label", "frame", "bounds"})
        label = _as_name(obj.get("label", f"run{i + 1}"), path + ".label")
        if "," in label:  # the label names CSV columns
            raise _schema_error(path + ".label", "must not contain a comma")
        # a run's bounds are its own ``bounds``, so its frame states none
        frame = _as_frame(obj.get("frame"), path + ".frame", label, ("name", "vectors")).frame
        frame = shared.setdefault((frame.vectors.shape, frame.vectors.tobytes()), frame)
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


# ---------------------------------------------------------------------------
# execution

_json_string = json.encoder.encode_basestring_ascii


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for ``value`` nested where
    ``newline`` (a line break and that level's indent) starts a line.

    Scalars render as the standard library's encoder renders them, ``int``
    and ``float`` subclasses through the base class's ``__repr__``; lists,
    tuples and dicts with string keys recursively; any other value through
    ``json.dumps`` itself, re-indented, which is exact because its only line
    breaks are layout (strings escape theirs).  There is no cycle check: a
    report payload is a tree.
    """
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(item, inner) for item in value]) + newline + "]"
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        if not value:
            return "{}"
        items = [_json_string(key) + ": " + _json_text(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(value, indent=2).replace("\n", newline)


class ExperimentResult:
    """One experiment's report: collected while it runs, then handed to a front end.

    A runner adds text ``lines`` and ``payload`` keys side by side, flags,
    failures, and the values it computed under the ``expect`` keys they answer
    (:meth:`observe`).  :meth:`finish` checks the ``expect`` block, writes the
    flags, notes and failures into both outputs, and sets ``status``.  ``csv``
    is an ``algo`` run's :class:`~framesum.algorithm.ComparisonTable`.
    """

    def __init__(self, spec: ExperimentSpec):
        self.expect = spec.expect
        self.lines = [f"experiment: {spec.label} ({spec.kind})"]
        if spec.title:
            self.lines.append(f"title: {spec.title}")
        self.payload = {"label": spec.label, "kind": spec.kind}
        self.flags = list(spec.discrepancies)
        self.notes = list(spec.notes)
        self.failures = []
        self.observed = {}
        self.status = None  # pass | flagged | fail, set by finish()
        self.csv = None

    @property
    def exit_code(self) -> int:
        return 0 if self.status in ("pass", "flagged") else 2

    def report_text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def report_json(self) -> str:
        return _json_text(self.payload) + "\n"

    def line(self, text: str):
        self.lines.append(text)

    def flag(self, text: str):
        self.flags.append(text)

    def fail(self, text: str):
        self.failures.append(text)

    def observe(self, **values):
        """Record computed values under the ``expect`` keys they answer."""
        self.observed.update(values)

    def check_close(self, name: str, got: float, want: float):
        if not math.isclose(got, want, rel_tol=self.expect.get("rtol", DEFAULT_EXPECT_RTOL), abs_tol=0.0):
            self.fail(f"expected {name} = {_fmt(want)}, got {_fmt(got)}")

    def check_equal(self, name: str, got, want):
        if got != want:
            self.fail(f"expected {name} = {want!r}, got {got!r}")

    def finish(self) -> ExperimentResult:
        for key, want in self.expect.items():
            if key in ("rtol", "envelope_order"):  # a setting, and a check _run_algo makes itself
                continue
            got = self.observed.get(key)
            if got is not None and isinstance(want, FrameBounds):
                self.check_close(f"{key} lower", got.lower, want.lower)
                self.check_close(f"{key} upper", got.upper, want.upper)
            elif got is not None and isinstance(want, float):
                self.check_close(key, got, want)
            else:
                self.check_equal(key, got, want)
        for section, entries in (("flags", self.flags), ("notes", self.notes), ("failures", self.failures)):
            if entries:
                self.lines.append(f"{section}:")
                self.lines.extend(f"  - {text}" for text in entries)
            self.payload[section] = list(entries)
        self.status = "fail" if self.failures else ("flagged" if self.flags else "pass")
        self.lines.append(f"status: {self.status}")
        self.payload["status"] = self.status
        return self


def _interval(lower: float, upper: float) -> str:
    """A bound pair as the reports render it, ``[lower, upper]``."""
    return f"[{_fmt(lower)}, {_fmt(upper)}]"


def _bounds_json(bounds: FrameBounds) -> dict:
    return {"lower": bounds.lower, "upper": bounds.upper, "width": bounds.width}


def _stated_disagrees(stated: FrameBounds, computed) -> bool:
    return not (
        math.isclose(stated.lower, computed.lower, rel_tol=STATED_MATCH_TOLERANCE)
        and math.isclose(stated.upper, computed.upper, rel_tol=STATED_MATCH_TOLERANCE)
    )


def _describe_frame(rep: ExperimentResult, fi: FrameInput, oracle: FrameBounds) -> None:
    """Report one frame's oracle bounds and flag stated disagreements."""
    shown = _interval(oracle.lower, oracle.upper)
    rep.line(
        f"frame {fi.name}: {fi.frame.count} vectors in dimension {fi.frame.dim}, "
        f"oracle bounds {shown}, width {format_width(oracle.width)}"
    )
    if fi.stated_bounds is not None:
        stated = _interval(fi.stated_bounds.lower, fi.stated_bounds.upper)
        rep.line(f"frame {fi.name}: stated bounds {stated}")
        if _stated_disagrees(fi.stated_bounds, oracle):
            rep.flag(f"stated bounds {stated} for frame {fi.name} disagree with oracle bounds {shown}")


def _report_prediction(rep: ExperimentResult, tag: str, predicted) -> dict:
    rep.line(
        f"predicted bounds ({tag}): {_interval(predicted.lower, predicted.upper)}"
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


def _certify_and_report(rep: ExperimentResult, predicted, build, inputs, frames) -> None:
    """Certify the oracle-basis ``predicted[0]``, whose condition holds, on the sum
    ``build(inputs, frames)``, and any stated-basis ``predicted[1]`` whose condition holds."""
    oracle_pred, *stated_pred = predicted
    try:
        built = build(inputs, frames)
        certified = certify(oracle_pred, built)
    except NotAFrameError as exc:
        rep.fail(f"built sum is not a frame: {exc}")
        return
    exact = exact_bounds(built)
    slacks = [exact.lower - oracle_pred.lower, oracle_pred.upper - exact.upper]
    rep.line(f"built sum oracle bounds: {_interval(exact.lower, exact.upper)}, width {format_width(exact.width)}")
    rep.line(f"certified: {'yes' if certified else 'NO'} (slacks {_fmt(slacks[0])}, {_fmt(slacks[1])})")
    rep.payload["certification"] = {
        "exact": _bounds_json(exact),
        "certified": certified,
        "slacks": slacks,
        "widths": {"predicted": oracle_pred.width, "exact": exact.width},
    }
    rep.observe(certified=certified, sum_bounds=exact)
    if not certified:
        rep.fail("certification failed: prediction does not bracket the oracle bounds")
    for stated in stated_pred:
        if stated.condition_holds and not certify(stated, built):
            rep.flag(
                f"prediction from stated bounds {_interval(stated.lower, stated.upper)} "
                f"does not bracket the built sum's oracle bounds "
                f"{_interval(exact.lower, exact.upper)}; "
                "stated input bounds are not valid for their frame"
            )


def _run_bounds(spec: ExperimentSpec, rng) -> ExperimentResult:
    rep = ExperimentResult(spec)
    fi = spec.payload
    oracle = exact_bounds(fi.frame)
    tight, parseval = oracle.is_tight, oracle.is_parseval
    _describe_frame(rep, fi, oracle)
    rep.line(f"tight: {'yes' if tight else 'no'}; parseval: {'yes' if parseval else 'no'}")
    width_4dp = format_width(oracle.width)
    rep.payload.update(bounds=_bounds_json(oracle), width_4dp=width_4dp, is_tight=tight, is_parseval=parseval)
    rep.observe(bounds=oracle, width_4dp=width_4dp, tight=tight, parseval=parseval)
    return rep.finish()


def _run_width(spec: ExperimentSpec, rng) -> ExperimentResult:
    rep = ExperimentResult(spec)
    widths = [{"label": label, "width": b.width, "width_4dp": format_width(b.width)} for label, b in spec.payload]
    for w in widths:
        rep.line(f"width {w['label']}: {w['width_4dp']} ({_fmt(w['width'])})")
    rep.payload["widths"] = widths
    rep.observe(widths_4dp=[w["width_4dp"] for w in widths])
    return rep.finish()


# ---------------------------------------------------------------------------
# sum rules


def _report_given(rep: ExperimentResult, pairs) -> None:
    (_, b1), (_, b2) = pairs
    rep.line(f"given bounds: {_interval(b1.lower, b1.upper)} and {_interval(b2.lower, b2.upper)}")


def _dual_start(rep: ExperimentResult, inputs, frames, pairs):
    """``None`` when given frames fail the dual identity; else ``()``, as prediction needs nothing more."""
    if frames is None:
        _report_given(rep, pairs)
        rep.line("frames not supplied: prediction only, duality asserted by the caller")
        return ()
    check = verify_dual(frames[0].frame, frames[1].frame)
    rep.line(
        f"dual identity over all unit vectors: max residual {_fmt(check.max_residual)}"
        f" -> {'verified' if check.is_dual else 'NOT a dual pair'}"
    )
    rep.payload["verify_dual"] = {"is_dual": check.is_dual, "max_residual": check.max_residual}
    rep.observe(verify_dual=check.is_dual)
    if not check.is_dual:
        rep.fail("dual identity does not hold; the dual-sum rule does not apply")
    return () if check.is_dual else None


def _dual_predictions(rep: ExperimentResult, needs, bound_lists):
    return [dual_sum_predict(*bounds) for bounds in bound_lists], ""


def _dual_build(inputs, frames) -> FiniteFrame:
    return build_sum_frame(frames, (1, 1))


def _finite_sum_inputs(doc: dict, frames, pairs):
    coefficients = _as_complex_array(doc.get("coefficients"), "coefficients", 1)
    if np.any(coefficients == 0):
        raise _schema_error("coefficients", "coefficient must be nonzero")
    pivot = doc.get("pivot", "best")
    if pivot != "best":
        _as_index(pivot, "pivot", f'must be a 1-based index or "best", got {pivot!r}')
        if not (1 <= pivot <= len(coefficients)):
            raise _schema_error("pivot", f"index {pivot} out of range 1..{len(coefficients)}")
    count, what = (len(frames), "frames") if frames is not None else (len(pairs), "bound pairs")
    if count != len(coefficients):
        raise _schema_error("coefficients", f"{count} {what} but {len(coefficients)} coefficients")
    return coefficients, pivot


def _finite_sum_start(rep: ExperimentResult, inputs, frames, pairs):
    coefficients, pivot = inputs
    rep.line(
        "coefficients: "
        + ", ".join(_fmt(c.real) if c.imag == 0 else f"{_fmt(c.real)}{c.imag:+.12g}i" for c in coefficients)
    )
    if pairs is not None:
        for name, b in pairs:
            rep.line(f"frame {name}: given bounds {_interval(b.lower, b.upper)}")
    names = [fi.name for fi in frames] if frames is not None else [name for name, _ in pairs]
    return coefficients, pivot, names


def _finite_sum_predictions(rep: ExperimentResult, needs, bound_lists):
    """The pivot is chosen on the first list, named once, and used for every list."""
    coefficients, pivot, names = needs
    if pivot == "best":
        index, best = finite_sum_best_pivot(bound_lists[0], coefficients)
        predictions = [best]
    else:
        index, predictions = pivot - 1, []
    rep.line(f"pivot: {names[index]} (index {index + 1})")
    predictions += [finite_sum_predict(bounds, coefficients, index) for bounds in bound_lists[len(predictions) :]]
    return predictions, f" at pivot {index + 1}"


def _finite_sum_build(inputs, frames) -> FiniteFrame:
    return build_sum_frame(frames, inputs[0])


def _operator_sum_inputs(doc: dict, frames, pairs):
    thetas = tuple(_as_complex_array(doc.get(name), name, 2) for name in ("theta1", "theta2"))
    for name, theta in zip(("theta1", "theta2"), thetas):
        if theta.shape[0] != theta.shape[1]:
            raise _schema_error(name, f"must be square, got {theta.shape}")
        if frames is not None and theta.shape[0] != frames[0].frame.dim:
            dim = frames[0].frame.dim
            raise _schema_error(name, f"must be {dim}x{dim} like the frames, got {theta.shape}")
    n = len(thetas[0])
    if thetas[1].shape != (n, n):  # given bounds only: T1 and T2 still act on one space
        raise _schema_error("theta2", f"must be {n}x{n} like theta1, got {thetas[1].shape}")
    return thetas


def _report_ranges(rep: ExperimentResult, measure, inputs, labels, pairs):
    """``measure`` of each summand's input, written as one line under each label; returns the ranges."""
    ranges = tuple(measure(x) for x in inputs)
    for label, (low, high) in zip(labels, ranges):
        rep.line(f"{label} {_interval(low, high)}")
    if pairs is not None:
        _report_given(rep, pairs)
    return ranges


def _ranged_predictions(rep: ExperimentResult, ranges, bound_lists):
    return [operator_sum_predict(*ranges, *bounds) for bounds in bound_lists], ""


def _operator_sum_start(rep: ExperimentResult, thetas, frames, pairs):
    labels = ("operator 1: sigma range", "operator 2: sigma range")
    return _report_ranges(rep, extreme_singular_values, thetas, labels, pairs)


def _operator_sum_build(thetas, frames) -> FiniteFrame:
    return build_operator_sum_frame(*frames, *thetas)


def _perturbed_sum_inputs(doc: dict, frames, pairs):
    alpha, beta = (_as_complex_array(doc.get(name), name, 1) for name in ("alpha", "beta"))
    counts = (len(alpha), len(beta))
    if frames is not None and counts != (frames[0].frame.count, frames[1].frame.count):
        raise _schema_error("alpha", "scalar sequences must have one entry per frame vector")
    if len(beta) != len(alpha):  # given bounds only: alpha_k and beta_k still index one vector
        raise _schema_error("beta", f"must have as many entries as alpha ({len(alpha)}), got {len(beta)}")
    return alpha, beta


def _perturbed_sum_start(rep: ExperimentResult, sequences, frames, pairs):
    return _report_ranges(rep, modulus_range, sequences, ("alpha envelope: |.| in", "beta envelope: |.| in"), pairs)


def _perturbed_sum_build(sequences, frames) -> FiniteFrame:
    return build_perturbed_sum_frame(*frames, *sequences)


def _run_sum(start, predictions, build, spec: ExperimentSpec, rng) -> ExperimentResult:
    rep = ExperimentResult(spec)
    frames, pairs, inputs = spec.payload
    needs = start(rep, inputs, frames, pairs)
    if needs is None:
        return rep.finish()
    if frames is None:
        bound_lists = [[b for _, b in pairs]]
    else:
        oracles = [exact_bounds(fi.frame) for fi in frames]
        for fi, oracle in zip(frames, oracles):
            _describe_frame(rep, fi, oracle)
        bound_lists = [oracles]
        if any(fi.stated_bounds is not None for fi in frames):
            bound_lists.append([fi.stated_bounds or oracle for fi, oracle in zip(frames, oracles)])
    predicted, at = predictions(rep, needs, bound_lists)
    shown = predicted[-1]  # the stated-input prediction, where there is one
    tag = "given" if frames is None else ("stated inputs" if len(predicted) > 1 else "oracle inputs")
    rep.payload["prediction"] = _report_prediction(rep, tag, shown)
    if len(predicted) > 1:
        rep.payload["prediction_oracle"] = _report_prediction(rep, "oracle inputs", predicted[0])
    rep.observe(
        predicted=shown,
        condition_margin=shown.condition_margin,
        predicted_width_4dp=format_width(shown.width) if shown.condition_holds else None,
    )
    if frames is not None and spec.kind == "dual":
        # the dual rule quotes a width table: the input frames against the
        # *predicted* pair for the sum, which is how tightness gains are quoted
        names = [fi.name for fi in frames]
        widths = [format_width(b.width) for b in [*oracles, shown]]
        rep.line("widths: " + "  ".join(f"{name} {w}" for name, w in zip([*names, "+".join(names)], widths)))
        rep.payload["widths_4dp"] = widths
        rep.observe(widths_4dp=widths)
    if not predicted[0].condition_holds:  # the given or the oracle-basis prediction
        where = at if frames is None else " on oracle input bounds"
        rep.fail(f"sufficiency condition fails{where} (margin {_fmt(predicted[0].condition_margin)})")
    elif frames is not None:
        _certify_and_report(rep, predicted, build, inputs, [fi.frame for fi in frames])
    return rep.finish()


def _run_gabor(spec: ExperimentSpec, rng) -> ExperimentResult:
    rep = ExperimentResult(spec)
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
    shown = _interval(estimate.lower, estimate.upper)
    rep.line(
        f"estimated bounds: {shown} "
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
        rep.line(f"stated bounds: {_interval(stated.lower, stated.upper)}")
        if _stated_disagrees(stated, estimate):
            rep.flag(
                f"stated bounds {_interval(stated.lower, stated.upper)} disagree with "
                f"the computed estimate {shown}"
            )
    rep.observe(bounds=estimate, exact=estimate.exact)
    return rep.finish()


def _run_algo(spec: ExperimentSpec, rng) -> ExperimentResult:
    rep = ExperimentResult(spec)
    runs, max_iters = spec.payload
    rng = np.random.default_rng(rng)
    used, targets = [], []
    for label, frame, bounds in runs:
        pair = bounds if bounds is not None else exact_bounds(frame)
        rep.line(
            f"run {label}: bounds {_interval(pair.lower, pair.upper)}"
            + (" (oracle)" if bounds is None else "")
            + f", width {format_width(pair.width)}"
        )
        used.append(pair)
        targets.append(random_unit_vector(rng, frame.dim))
    # every oracle and target before the first run: an oracle that fails raises first
    series = [run(frame, pair, target, max_iters) for (_, frame, _), pair, target in zip(runs, used, targets)]
    table = ComparisonTable(tuple(label for label, _, _ in runs), tuple(series))
    for label, s in zip(table.labels, table.series):
        rep.line(
            f"run {label}: stopped at k={len(s) - 1}, "
            f"error {_fmt(s.errors[-1])}, envelope {_fmt(s.envelopes[-1])}"
        )
    rep.payload["runs"] = [
        {"label": label, "width": s.width, "iterations": len(s) - 1, "final_error": s.errors[-1]}
        for label, s in zip(table.labels, table.series)
    ]
    dominated = all(
        bool(np.all(np.asarray(s.errors) <= np.asarray(s.envelopes) * (1.0 + 1e-9) + 1e-12))
        for s in table.series
    )
    rep.line(f"errors within envelopes: {'yes' if dominated else 'NO'}")
    if not dominated:
        rep.fail("a measured error exceeded its theoretical envelope")
    expect = spec.expect
    if "envelope_order" in expect:
        order = expect["envelope_order"]
        widths = {label: s.width for label, s in zip(table.labels, table.series)}
        rep.check_equal("run labels", sorted(widths), sorted(order))
        ordered = [widths[lbl] for lbl in order if lbl in widths]
        if any(not earlier > later for earlier, later in zip(ordered, ordered[1:])):
            rep.fail(f"expected strictly decreasing widths along {order}, got {ordered}")
    rep.observe(envelope_dominates=dominated)
    rep.csv = table
    return rep.finish()


@dataclass(frozen=True)
class _Kind:
    """What one experiment kind declares; ``_KINDS`` holds one per kind."""

    command: str  # the CLI command that runs it
    fields: set  # document fields besides _COMMON_KEYS
    expect: dict  # expect key -> parser of its value
    parse: object  # JSON document -> payload, run once by parse_spec_text
    run: object  # (ExperimentSpec, seed or Generator) -> ExperimentResult


#: expect keys that every sum kind accepts
_SUM_EXPECT = {"predicted": _as_bound_pair, "predicted_width_4dp": _as_string, "certified": _as_bool}

# Only functions of this module go here: the benchmark tracer patches the
# sums, frames and gabor functions by name in module namespaces.
_KINDS = {
    "bounds": _Kind(
        "bounds", {"frame"},
        {"bounds": _as_bound_pair, "width_4dp": _as_string, "tight": _as_bool, "parseval": _as_bool},
        _payload_bounds, _run_bounds,
    ),
    "dual": _Kind(
        "dual", {"frame", "dual", "bounds1", "bounds2"},
        {**_SUM_EXPECT, "verify_dual": _as_bool, "sum_bounds": _as_bound_pair, "widths_4dp": _as_strings},
        partial(_payload_sum, "dual", lambda doc, frames, pairs: None),
        partial(_run_sum, _dual_start, _dual_predictions, _dual_build),
    ),
    "finite-sum": _Kind(
        "sum", {"frames", "frame_bounds", "coefficients", "pivot"},
        {**_SUM_EXPECT, "condition_margin": _as_real},
        partial(_payload_sum, "finite-sum", _finite_sum_inputs),
        partial(_run_sum, _finite_sum_start, _finite_sum_predictions, _finite_sum_build),
    ),
    "operator-sum": _Kind(
        "op-sum", {"frame1", "frame2", "bounds1", "bounds2", "theta1", "theta2"},
        _SUM_EXPECT,
        partial(_payload_sum, "operator-sum", _operator_sum_inputs),
        partial(_run_sum, _operator_sum_start, _ranged_predictions, _operator_sum_build),
    ),
    "perturbed-sum": _Kind(
        "perturbed-sum", {"frame1", "frame2", "bounds1", "bounds2", "alpha", "beta"},
        _SUM_EXPECT,
        partial(_payload_sum, "perturbed-sum", _perturbed_sum_inputs),
        partial(_run_sum, _perturbed_sum_start, _ranged_predictions, _perturbed_sum_build),
    ),
    "gabor": _Kind(
        "gabor", {"generator", "lattice", "wh", "stated_bounds"},
        {"bounds": _as_bound_pair, "exact": _as_bool},
        _payload_gabor, _run_gabor,
    ),
    "algo": _Kind(
        "algo", {"runs", "max_iters"},
        {"envelope_order": _as_strings, "envelope_dominates": _as_bool},
        _payload_algo, _run_algo,
    ),
    "width": _Kind("width", {"entries"}, {"widths_4dp": _as_strings}, _payload_width, _run_width),
}

KINDS = tuple(_KINDS)

#: CLI command -> the experiment kind it runs
COMMANDS = {entry.command: kind for kind, entry in _KINDS.items()}


def run_experiment(spec: ExperimentSpec, rng=0) -> ExperimentResult:
    """Execute one experiment and return its report, payload, and CSV table.

    ``rng`` is a seed or a ``numpy.random.Generator``; only the ``algo`` kind
    draws from it, so only that kind builds a generator.
    """
    try:
        with np.errstate(over="raise"):
            return _KINDS[spec.kind].run(spec, rng)
    except (FloatingPointError, OverflowError) as exc:
        raise NumericRangeError(f"a value overflowed the floating-point range ({exc.args[-1]})") from None
