"""The numeric array reader of experiment documents.

``_as_complex_array`` reads a regular array of finite numbers with one numpy
conversion and sends anything else through a per-entry walk.  These tests hold
it to the per-entry reader it replaced, bit for bit and field path for field
path, and check that well-formed documents never reach the walk.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framesum import SpecSchemaError, experiments
from framesum.cli import bundled_fixture_names, load_bundled_fixture
from framesum.experiments import _as_complex_array, parse_spec_text

# --- the per-entry reader before the one-conversion path, kept as the reference


def _ref_error(path, message):
    return SpecSchemaError(message, field=path)


def _ref_array(value, path):
    if not isinstance(value, list):
        raise _ref_error(path, f"expected an array, got {type(value).__name__}")
    return value


def _ref_real(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _ref_error(path, f"expected a real number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise _ref_error(path, f"expected a finite number, got {value!r}")
    return out


def _ref_complex(value, path):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_ref_real(value, path), 0.0)
    arr = _ref_array(value, path)
    if len(arr) != 2:
        raise _ref_error(path, f"complex scalar must be [re, im], got {value!r}")
    return complex(_ref_real(arr[0], path + "[0]"), _ref_real(arr[1], path + "[1]"))


def _ref_vector(value, path):
    arr = _ref_array(value, path)
    if not arr:
        raise _ref_error(path, "vector must be nonempty")
    return [_ref_complex(entry, f"{path}[{i}]") for i, entry in enumerate(arr)]


def _ref_matrix(value, path):
    arr = _ref_array(value, path)
    if not arr:
        raise _ref_error(path, "matrix must be nonempty")
    rows = [_ref_vector(row, f"{path}[{i}]") for i, row in enumerate(arr)]
    lengths = {len(row) for row in rows}
    if len(lengths) != 1:
        raise _ref_error(path, f"matrix rows have differing lengths {sorted(lengths)}")
    return np.array(rows, dtype=complex)


def _reference(value, path, ndim):
    return np.array(_ref_vector(value, path), dtype=complex) if ndim == 1 else _ref_matrix(value, path)


# --- generated arrays in pair, bare-real, mixed and triple form, with bad entries spliced in

REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.just(-0.0),
    st.sampled_from([0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 2**53 + 1, 2**63]),
)
BAD = st.one_of(
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, [], [1.0], [1.0, 2.0, 3.0], {}]),
)


@st.composite
def numeric_arrays(draw):
    ndim = draw(st.sampled_from([1, 2]))
    form = draw(st.sampled_from(["pairs", "bare", "mixed", "triples"]))

    def entry():
        if form == "triples":
            return [draw(REALS) for _ in range(3)]
        pair = form == "pairs" or (form == "mixed" and draw(st.booleans()))
        return [draw(REALS), draw(REALS)] if pair else draw(REALS)

    width = draw(st.integers(1, 4))
    rows = [[entry() for _ in range(width)] for _ in range(draw(st.integers(1, 4)))]
    value = rows if ndim == 2 else rows[0]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows)) if ndim == 2 else value
        if not row:
            continue
        i = draw(st.integers(0, len(row) - 1))
        what = draw(st.sampled_from(["entry", "leaf", "drop"]))
        if what == "entry":
            row[i] = draw(BAD)
        elif what == "leaf" and isinstance(row[i], list) and row[i]:
            row[i][draw(st.integers(0, len(row[i]) - 1))] = draw(BAD)
        elif what == "drop":
            del row[i]
    return json.loads(json.dumps(value)), ndim


def _bits(arr):
    return np.ascontiguousarray(arr, dtype=complex).view(np.uint64)


@settings(max_examples=400)
@given(numeric_arrays())
def test_reader_matches_the_per_entry_walk_bit_for_bit(case):
    value, ndim = case
    try:
        want = _reference(value, "x", ndim)
    except SpecSchemaError as exc:
        with pytest.raises(SpecSchemaError) as excinfo:
            _as_complex_array(value, "x", ndim)
        assert excinfo.value.field == exc.field
        return
    got = _as_complex_array(value, "x", ndim)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


# --- boundary cases of the flat read, each against the per-entry walk


def _walked(value, ndim):
    return np.array(experiments._walk_complex(value, "x", ndim), dtype=complex)


@pytest.mark.parametrize(
    "value, ndim, flat",
    [
        ([[1, 2], [3]], 1, False),
        ([[1, 2], [3]], 2, False),
        ([[[1, 2], [3, 4]], [[1, 2]]], 2, False),
        ([[[1, 2], [3, 4]], [[1, 2], [3]]], 2, False),
        ([[[1, 2], [3, 4]], [1, [3, 4]]], 2, False),
        ([], 1, False),
        ([[]], 2, False),
        ([[], []], 2, False),
        ([[[], []]], 2, False),
        ([[1, 2, 3]], 1, False),
        ([[[1, 2, 3], [4, 5, 6]]], 2, False),
        ([1, [2, 3]], 1, False),
        ([[1, [0, 0]], [[0, 0], 1]], 2, False),
        ([[[1, 2]]], 1, False),
        ([10**400, 1], 1, False),
        ([[10**400, 0]], 1, False),
        ([[1, 0], [0, 10**400]], 2, False),
        ([True, 1], 1, False),
        ([[1, True]], 1, False),
        ([[0.5, True]], 1, False),
        ([[1, "x"]], 1, False),
        ([[1, 2], 3], 1, False),
        ([[1, 2], {"re": 1, "im": 2}], 1, False),
        ([[1, 2], "12"], 1, False),
        (["1", 2], 1, False),
        ([[1, 0], [0, "x"]], 2, False),
        ([None, 1], 1, False),
        ([[None, 0]], 1, False),
        ([math.nan, 1], 1, False),
        ([[1, 0], [0, math.nan]], 2, False),
        ([[1, math.inf]], 1, False),
        ({"re": 1}, 1, False),
        (1.5, 1, False),
        ([1.5], 1, True),
        ([[1, 2], [3, 4]], 1, True),
        ([[1, 2], [3, 4]], 2, True),
        ([[[0, -0.0], [-0.0, 0]]], 2, True),
        ([[0, 1], [1, 0]], 2, True),
        ([0.0, -0.0, 1.0], 1, True),
        ([2**64 + 1, -(2**70), 5e-324], 1, True),
    ],
)
def test_flat_read_boundaries_match_the_per_entry_walk(monkeypatch, value, ndim, flat):
    try:
        want = _walked(value, ndim)
    except SpecSchemaError as exc:
        with pytest.raises(SpecSchemaError) as excinfo:
            _as_complex_array(value, "x", ndim)
        assert (excinfo.value.field, str(excinfo.value)) == (exc.field, str(exc))
        return
    walks, walk = [], experiments._walk_complex
    monkeypatch.setattr(experiments, "_walk_complex", lambda *args: walks.append(args) or walk(*args))
    got = _as_complex_array(value, "x", ndim)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))
    assert walks[:1] == ([] if flat else [(value, "x", ndim)])


# --- well-formed documents never reach the per-entry walk


def _pairs(arr):
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _generated_documents(rng, d=48):
    n = 2 * d
    frames = [rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)) for _ in range(2)]
    theta = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    scalars = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    two = {"frame1": {"vectors": _pairs(frames[0])}, "frame2": {"vectors": _pairs(frames[1])}}
    return [
        {"kind": "bounds", "frame": {"vectors": _pairs(frames[0])}},
        {"kind": "bounds", "frame": {"vectors": frames[0].real.tolist()}},
        {
            "kind": "finite-sum",
            "frames": [{"vectors": _pairs(f)} for f in frames],
            "coefficients": _pairs(scalars[:2]),
        },
        {"kind": "finite-sum", "frames": [{"vectors": f.real.tolist()} for f in frames], "coefficients": [1, 2.5]},
        {"kind": "operator-sum", **two, "theta1": _pairs(theta), "theta2": theta.real.tolist()},
        {"kind": "perturbed-sum", **two, "alpha": _pairs(scalars), "beta": scalars.real.tolist()},
    ]


def test_well_formed_arrays_skip_the_per_entry_walk(monkeypatch, rng):
    calls = []
    walk_entry = experiments._as_complex

    def counting(value, path):
        calls.append(path)
        return walk_entry(value, path)

    monkeypatch.setattr(experiments, "_as_complex", counting)
    for name in bundled_fixture_names():
        load_bundled_fixture(name)
    for doc in _generated_documents(rng):
        parse_spec_text(json.dumps(doc))
    assert calls == []

    # a vector mixing a bare real with a pair is legal and goes through the walk
    parse_spec_text(json.dumps({"kind": "bounds", "frame": {"vectors": [[1, [0, 0]], [[0, 0], 1]]}}))
    assert calls == [f"frame.vectors[{i}][{j}]" for i in range(2) for j in range(2)]
