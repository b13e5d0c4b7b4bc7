"""Exact metamorphic relations of the JSON reports.

Scaling by a power of two is exact in floating point, barring underflow and
overflow, so each relation below holds bit for bit, not within a tolerance:

* a frame whose vectors are scaled by ``2^k`` has its frame operator scaled
  by ``4^k``, so its optimal bounds are ``4^k`` times as large and its width
  is the same;
* an affine window dilated by ``T = 2^s``, ``g(x / T)``, on the lattice
  ``(T a, b / T)`` has ``T`` times the estimated bounds, by the closed form
  and on the grid alike;
* a bounds-only finite sum whose bound pairs are scaled by ``4^s`` and whose
  coefficients are scaled by ``2^t`` has ``4^(s+t)`` times the predicted
  bounds and ``4^s 2^t`` times the margin, with the same width and verdict;
* a bounds-only perturbed sum whose bound pairs are scaled by ``4^s`` and
  whose scalar sequences are scaled by ``2^t`` has ``4^(s+t)`` times the
  predicted bounds and margin, with the same verdict.  The rule squares
  with products, not ``x ** 2``: that calls the C library's ``pow``, which
  is not correctly rounded on every platform, so the square of a scaled
  value could differ from the scaled square by one unit;
* a bounds-only operator sum whose bound pairs are scaled by ``4^s`` and
  whose operators are scaled by ``2^t`` has ``4^(s+t)`` times the predicted
  bounds and margin, with the same verdict: LAPACK's singular values of
  ``2^t T`` are ``2^t`` times those of ``T``;
* a bounds-only finite sum whose coefficients are each multiplied by one of
  ``1, -1, i, -i`` has the same report: the rule reads only their moduli,
  and a quarter turn moves a coefficient's parts without rounding them.

One relation holds only up to rounding: a two-summand document of any sum
kind with its summands in the other order has the same verdicts, and the same
numbers up to the regrouping of a product.  The last test says how far.

Each run is compared as ``framesum <kind> --json`` prints it.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import canonical_dual
from framesum import FiniteFrame, FrameToolkitError
from framesum.experiments import parse_spec_text, run_experiment

#: a real of magnitude 1e-3 to 2, or 0: its products stay far from underflow at any scale drawn
ENTRIES = st.floats(-2, 2).map(lambda x: x if abs(x) >= 1e-3 else 0.0)


def _report(doc: dict):
    """The JSON report of ``doc``, or the name of the toolkit error it raises."""
    try:
        return json.loads(run_experiment(parse_spec_text(json.dumps(doc))).report_json())
    except FrameToolkitError as exc:
        return type(exc).__name__


def _vectors(draw, count, dim):
    return [[[draw(ENTRIES), draw(ENTRIES)] for _ in range(dim)] for _ in range(count)]


@st.composite
def frames(draw):
    dim = draw(st.integers(1, 6))
    count = draw(st.integers(dim, dim + 4))
    return _vectors(draw, count, dim)


@settings(max_examples=150)
@given(vectors=frames(), k=st.integers(-100, 100))
def test_scaled_vectors_scale_the_bounds_by_the_square(vectors, k):
    scale = 2.0**k
    base = _report({"kind": "bounds", "frame": {"vectors": vectors}})
    scaled = _report({"kind": "bounds", "frame": {"vectors": [[[scale * x for x in z] for z in v] for v in vectors]}})
    if isinstance(base, str):
        assert scaled == base
        return
    bounds = base["bounds"]
    assert scaled["bounds"] == {
        "lower": bounds["lower"] * scale**2,
        "upper": bounds["upper"] * scale**2,
        "width": bounds["width"],
    }


@st.composite
def windows(draw):
    """An affine window of one to four pieces, with values from 0.05 to 2 at
    its pieces' ends, and a lattice on either side of ``b L = 1``."""
    lo = draw(st.floats(-4, 4).map(lambda x: x if abs(x) >= 1e-3 else 0.0))
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        hi = lo + draw(st.floats(0.05, 2))
        v0, v1 = draw(st.floats(0.05, 2)), draw(st.floats(0.05, 2))
        alpha = (v1 - v0) / (hi - lo)
        pieces.append((lo, hi, alpha, v0 - alpha * lo))
        lo = hi + draw(st.sampled_from([0.0, 0.0, 0.1]))
    length = pieces[-1][1] - pieces[0][0]
    a = length * draw(st.floats(0.1, 1.5))
    b = draw(st.floats(0.05, 0.99) if draw(st.booleans()) else st.floats(1.01, 2.4)) / length
    return pieces, a, b


def _gabor(pieces, a, b, t):
    return {
        "kind": "gabor",
        "generator": {
            "pieces": [
                {"lo": t * lo, "hi": t * hi, "kind": "affine", "alpha": alpha / t, "beta": beta}
                for lo, hi, alpha, beta in pieces
            ]
        },
        "lattice": {"a": t * a, "b": b / t},
    }


@settings(max_examples=150)
@given(window=windows(), s=st.integers(-19, 19))
def test_a_dilated_window_scales_the_estimate(window, s):
    t = 2.0**s
    base = _report(_gabor(*window, 1.0))
    dilated = _report(_gabor(*window, t))
    if isinstance(base, str):
        assert dilated == base
        return
    estimate = base["estimate"]
    assert dilated["estimate"] == {**estimate, "lower": t * estimate["lower"], "upper": t * estimate["upper"]}


#: a bound pair ``(A, B)`` with ``A`` from 0.5 to 4 and ``B / A`` from 1 to 3
BOUND_PAIRS = st.tuples(st.floats(0.5, 4), st.floats(1, 3)).map(lambda p: [p[0], p[0] * p[1]])

#: a nonzero real coefficient of magnitude 0.05 to 2, of either sign
COEFFICIENTS = st.tuples(st.floats(0.05, 2), st.booleans()).map(lambda c: -c[0] if c[1] else c[0])


def _prediction(report):
    """What a bounds-only sum report predicts, and its verdict."""
    if isinstance(report, str):
        return report
    return report["prediction"], report["status"]


@st.composite
def finite_sums(draw):
    """One to four bound pairs and their coefficients; the first coefficient is
    often dominant, so that the condition holds in a fair share of draws."""
    k = draw(st.integers(1, 4))
    pairs = [draw(BOUND_PAIRS) for _ in range(k)]
    coefficients = [draw(COEFFICIENTS) for _ in range(k)]
    coefficients[0] *= draw(st.sampled_from([1, 10, 100]))
    return pairs, coefficients


@settings(max_examples=150)
@given(inputs=finite_sums(), s=st.integers(-60, 60), t=st.integers(-60, 60))
def test_scaled_finite_sum_inputs_scale_the_prediction(inputs, s, t):
    pairs, coefficients = inputs
    bounds_scale, coefficient_scale = 4.0**s, 2.0**t

    def report(pairs, coefficients):
        return _report({"kind": "finite-sum", "frame_bounds": pairs, "coefficients": coefficients})

    base = report(pairs, coefficients)
    scaled = report(
        [[bounds_scale * x for x in pair] for pair in pairs], [coefficient_scale * c for c in coefficients]
    )
    if isinstance(base, str):
        assert scaled == base
        return
    prediction, status = _prediction(base)
    assert _prediction(scaled) == (
        {
            **prediction,
            "lower": prediction["lower"] * bounds_scale * coefficient_scale**2,
            "upper": prediction["upper"] * bounds_scale * coefficient_scale**2,
            "condition_margin": prediction["condition_margin"] * bounds_scale * coefficient_scale,
        },
        status,
    )


@st.composite
def perturbed_sums(draw):
    """Two bound pairs, a sequence ``alpha`` of moduli within a factor of 1.5,
    and a sequence ``beta`` that is often small beside it, so that the
    condition holds in a fair share of draws."""
    n = draw(st.integers(1, 4))
    low = draw(st.floats(0.5, 2))
    alpha = [draw(st.floats(low, 1.5 * low)) * draw(st.sampled_from([1, -1])) for _ in range(n)]
    size = draw(st.sampled_from([0.01, 0.1, 1]))
    beta = [size * draw(COEFFICIENTS) for _ in range(n)]
    return draw(BOUND_PAIRS), draw(BOUND_PAIRS), alpha, beta


@settings(max_examples=150)
@given(inputs=perturbed_sums(), s=st.integers(-60, 60), t=st.integers(-60, 60))
# with x ** 2 the scaled upper bound read 0.07327756446775344, not ...42
@example(
    inputs=([1, 1.3513277328155178], [1, 1.3513277328155178], [1.727791301758866], [0.1351327732815518]), s=0, t=-3
)
def test_scaled_perturbed_sum_inputs_scale_the_prediction(inputs, s, t):
    bounds1, bounds2, alpha, beta = inputs
    bounds_scale, sequence_scale = 4.0**s, 2.0**t

    def report(bounds1, bounds2, alpha, beta):
        doc = {"kind": "perturbed-sum", "bounds1": bounds1, "bounds2": bounds2, "alpha": alpha, "beta": beta}
        return _report(doc)

    base = report(bounds1, bounds2, alpha, beta)
    scaled = report(
        *([bounds_scale * x for x in pair] for pair in (bounds1, bounds2)),
        *([sequence_scale * x for x in seq] for seq in (alpha, beta)),
    )
    if isinstance(base, str):
        assert scaled == base
        return
    prediction, status = _prediction(base)
    factor = bounds_scale * sequence_scale**2
    assert _prediction(scaled) == (
        {
            **prediction,
            "lower": prediction["lower"] * factor,
            "upper": prediction["upper"] * factor,
            "condition_margin": prediction["condition_margin"] * factor,
        },
        status,
    )


@st.composite
def operator_sums(draw):
    """Two bound pairs and two complex operators of one size, the second
    often small beside the first, so that the condition holds in a fair share
    of draws."""
    n = draw(st.integers(1, 4))
    size = draw(st.sampled_from([0.01, 0.1, 1]))
    thetas = [
        [[[scale * draw(ENTRIES), scale * draw(ENTRIES)] for _ in range(n)] for _ in range(n)]
        for scale in (1.0, size)
    ]
    return draw(BOUND_PAIRS), draw(BOUND_PAIRS), *thetas


@settings(max_examples=150)
@given(inputs=operator_sums(), s=st.integers(-60, 60), t=st.integers(-60, 60))
def test_scaled_operator_sum_inputs_scale_the_prediction(inputs, s, t):
    bounds1, bounds2, theta1, theta2 = inputs
    bounds_scale, operator_scale = 4.0**s, 2.0**t

    def report(bounds1, bounds2, theta1, theta2):
        doc = {"kind": "operator-sum", "bounds1": bounds1, "bounds2": bounds2, "theta1": theta1, "theta2": theta2}
        return _report(doc)

    base = report(bounds1, bounds2, theta1, theta2)
    scaled = report(
        *([bounds_scale * x for x in pair] for pair in (bounds1, bounds2)),
        *([[[operator_scale * x for x in z] for z in row] for row in theta] for theta in (theta1, theta2)),
    )
    if isinstance(base, str):
        assert scaled == base
        return
    prediction, status = _prediction(base)
    factor = bounds_scale * operator_scale**2
    assert _prediction(scaled) == (
        {
            **prediction,
            "lower": prediction["lower"] * factor,
            "upper": prediction["upper"] * factor,
            "condition_margin": prediction["condition_margin"] * factor,
        },
        status,
    )


#: ``(re, im)`` times 1, -1, i and -i
QUARTER_TURNS = (
    lambda re, im: [re, im],
    lambda re, im: [-re, -im],
    lambda re, im: [-im, re],
    lambda re, im: [im, -re],
)


@settings(max_examples=150)
@given(
    inputs=finite_sums(),
    imaginary=st.lists(ENTRIES, min_size=4, max_size=4),
    turns=st.lists(st.sampled_from(QUARTER_TURNS), min_size=4, max_size=4),
)
def test_coefficients_turned_by_a_unit_leave_the_finite_sum_report_unchanged(inputs, imaginary, turns):
    pairs, real = inputs
    coefficients = [[re, im] for re, im in zip(real, imaginary)]

    def report(coefficients):
        return _report({"kind": "finite-sum", "frame_bounds": pairs, "coefficients": coefficients})

    assert report([turn(*c) for turn, c in zip(turns, coefficients)]) == report(coefficients)


#: the fields of a two-summand document that name one summand each, in pairs
PAIRED_FIELDS = (
    ("frame", "dual"), ("frame1", "frame2"), ("bounds1", "bounds2"), ("theta1", "theta2"), ("alpha", "beta")
)

#: the fields of a finite-sum document that list one entry per summand
LISTED_FIELDS = ("frames", "frame_bounds", "coefficients")


def _swap_summands(doc: dict) -> dict:
    """``doc`` with its two summands in the other order, the pivot on the same summand."""
    swapped = dict(doc)
    for first, second in PAIRED_FIELDS:
        if first in doc:
            swapped[first], swapped[second] = doc[second], doc[first]
    for name in LISTED_FIELDS:
        if name in doc:
            swapped[name] = doc[name][::-1]
    if doc.get("pivot") in (1, 2):
        swapped["pivot"] = 3 - doc["pivot"]
    return swapped


def _basis_and_dual(draw, count, dim):
    """A frame of the standard basis and ``count - dim`` drawn vectors, whose frame
    operator is at least the identity, and its canonical dual."""
    extra = np.array(_vectors(draw, count - dim, dim)).reshape(count - dim, dim, 2)
    vectors = np.concatenate([np.eye(dim), extra[..., 0] + 1j * extra[..., 1]])
    dual = canonical_dual(FiniteFrame(vectors)).vectors
    return [{"vectors": np.stack([v.real, v.imag], -1).tolist()} for v in (vectors, dual)]


@st.composite
def two_summand_documents(draw, kind):
    """A ``kind`` document of two summands, given as two frames of one shape or
    as two bound pairs.  The second operator, sequence or coefficient is often
    small beside the first, so that the condition holds in a fair share of draws."""
    dim = draw(st.integers(1, 4))
    count = draw(st.integers(dim, dim + 3))
    size = draw(st.sampled_from([0.01, 0.1, 1]))
    given = draw(st.booleans())
    if given:
        summands = [draw(BOUND_PAIRS), draw(BOUND_PAIRS)]
    elif kind == "dual":
        summands = _basis_and_dual(draw, count, dim)
    else:
        summands = [{"vectors": _vectors(draw, count, dim)} for _ in range(2)]
    if kind == "finite-sum":
        return {
            "kind": kind,
            "frame_bounds" if given else "frames": summands,
            "coefficients": [draw(COEFFICIENTS), size * draw(COEFFICIENTS)],
            "pivot": draw(st.sampled_from([1, 2, "best"])),
        }
    names = ("bounds1", "bounds2") if given else ("frame", "dual") if kind == "dual" else ("frame1", "frame2")
    doc = {"kind": kind, **dict(zip(names, summands))}
    if kind == "operator-sum":
        for name, scale in (("theta1", 1.0), ("theta2", size)):
            doc[name] = [[[scale * draw(ENTRIES), scale * draw(ENTRIES)] for _ in range(dim)] for _ in range(dim)]
    elif kind == "perturbed-sum":
        low = draw(st.floats(0.5, 2))
        doc["alpha"] = [draw(st.floats(low, 1.5 * low)) * draw(st.sampled_from([1, -1])) for _ in range(count)]
        doc["beta"] = [size * draw(COEFFICIENTS) for _ in range(count)]
    return doc


def _ulps(x: float, y: float, scale: float) -> float:
    """``|x - y|`` in units in the last place of ``scale``."""
    return abs(x - y) / math.ulp(scale)


@pytest.mark.parametrize("kind", ["dual", "finite-sum", "operator-sum", "perturbed-sum"])
@settings(max_examples=150)
@given(data=st.data())
def test_summands_in_the_other_order_give_the_same_report_up_to_rounding(kind, data):
    """Each rule is symmetric in its two summands, but a swap regroups a product:
    ``(sqrt(B1 B2) ||T1||) ||T2||`` becomes ``(sqrt(B2 B1) ||T2||) ||T1||``.  Every
    term of a predicted lower bound is at most the predicted upper bound, so both
    stay within 4 units in the last place of the upper bound.  The built sum's
    vectors round in another order, which moves each eigenvalue of its frame
    operator by a few units of ``B``: the oracle bounds stay within 1e-13 ``B``.
    Only the margin's sign is compared: the other rules' margin is the lower
    bound, and in a finite sum the margin at pivot ``j`` is ``M / |c_j|``, where
    the best of two pivots is a tie that rounding breaks."""
    doc = data.draw(two_summand_documents(kind))
    base = _report(doc)
    swapped = _report(_swap_summands(doc))
    if isinstance(base, str):
        assert swapped == base
        return
    assert swapped["status"] == base["status"]
    p, q = base["prediction"], swapped["prediction"]
    assert q["condition_holds"] == p["condition_holds"]
    assert _ulps(q["lower"], p["lower"], p["upper"]) <= 4
    assert _ulps(q["upper"], p["upper"], p["upper"]) <= 4
    sign = (p["condition_margin"] > 0) - (p["condition_margin"] < 0)
    assert (q["condition_margin"] > 0) - (q["condition_margin"] < 0) == sign
    assert ("certification" in swapped) == ("certification" in base)
    if "certification" in base:
        p, q = base["certification"], swapped["certification"]
        assert q["certified"] == p["certified"]
        upper = p["exact"]["upper"]
        assert abs(q["exact"]["lower"] - p["exact"]["lower"]) <= 1e-13 * upper
        assert abs(q["exact"]["upper"] - upper) <= 1e-13 * upper
