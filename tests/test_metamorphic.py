"""Exact metamorphic relations of the JSON reports.

Scaling by a power of two is exact in floating point, barring underflow and
overflow, so each relation below holds bit for bit, not within a tolerance:

* a frame whose vectors are scaled by ``2^k`` has its frame operator scaled
  by ``4^k``, so its optimal bounds are ``4^k`` times as large and its width
  is the same;
* an affine window dilated by ``T = 2^s``, ``g(x / T)``, on the lattice
  ``(T a, b / T)`` has ``T`` times the estimated bounds, by the closed form
  and on the grid alike.

Each run is compared as ``framesum <kind> --json`` prints it.
"""

import json

from hypothesis import given, settings, strategies as st

from framesum import FrameToolkitError
from framesum.experiments import parse_spec_text, run_experiment

#: a real of magnitude 1e-3 to 2, or 0: its products stay far from underflow at any scale drawn
ENTRIES = st.floats(-2, 2).map(lambda x: x if abs(x) >= 1e-3 else 0.0)


def _report(doc: dict):
    """The JSON report of ``doc``, or the name of the toolkit error it raises."""
    try:
        return json.loads(run_experiment(parse_spec_text(json.dumps(doc))).report_json())
    except FrameToolkitError as exc:
        return type(exc).__name__


@st.composite
def frames(draw):
    dim = draw(st.integers(1, 6))
    count = draw(st.integers(dim, dim + 4))
    return [[[draw(ENTRIES), draw(ENTRIES)] for _ in range(dim)] for _ in range(count)]


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
