"""Malformed input to a library entry point raises a toolkit error, never a
bare ``ValueError`` or ``TypeError`` from numpy or ``float``; ``algorithm.run``
raises its documented ``ValueError`` for a malformed cap or tolerance, and
``gabor.Piece`` for a malformed window piece.  Every real goes through
``linalg.as_real``, every integer through ``linalg.as_index``, and every
array through the dtype rule of ``linalg.as_carray``."""

import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from framesum import (
    DegenerateLatticeError,
    DimensionMismatchError,
    FiniteFrame,
    FrameBounds,
    InvalidBoundsError,
    LatticeParams,
    NumericRangeError,
    Piece,
    PiecewiseGenerator,
    PredictedBounds,
    SpecSchemaError,
    WHParams,
    build_operator_sum_frame,
    build_perturbed_sum_frame,
    build_sum_frame,
    extreme_singular_values,
    finite_sum_predict,
    format_width,
    modulus_range,
    operator_sum_predict,
    perturbed_sum_predict,
    run,
    verify_dual,
)
from framesum.experiments import parse_spec_text
from framesum.frames import as_frame_bounds
from framesum.gabor import evaluate_translates
from framesum.linalg import as_carray, as_points

E2 = FiniteFrame(np.eye(2))

#: (entry point, rank of the array it takes) for every library function that
#: takes a frame, coefficients, an operator, a scalar sequence or a target
ARRAY_ENTRY_POINTS = {
    "FiniteFrame": (FiniteFrame, 2),
    "build_sum_frame": (lambda bad: build_sum_frame([E2, E2], bad), 1),
    "build_operator_sum_frame": (lambda bad: build_operator_sum_frame(E2, E2, bad, np.eye(2)), 2),
    "build_perturbed_sum_frame": (lambda bad: build_perturbed_sum_frame(E2, E2, bad, [1, 1]), 1),
    "modulus_range": (modulus_range, 1),
    "extreme_singular_values": (extreme_singular_values, 2),
    "finite_sum_predict": (lambda bad: finite_sum_predict([(1, 2), (1, 2)], bad, 0), 1),
    "run": (lambda bad: run(E2, (1, 1), bad, 5), 1),
}

#: malformed arrays by rank: ragged, a non-numeric string, numbers written as
#: text and as bytes, which ``complex`` would parse, a non-numeric object, and
#: the other rank
BAD_ARRAYS = {
    1: {
        "ragged": [1, [2]],
        "string": [1, "x"],
        "numeric-text": ["1", "2"],
        "numeric-bytes": [b"1", b"2"],
        "object": [1, {}],
        "rank": [[1, 1]],
    },
    2: {
        "ragged": [[1, 2], [3]],
        "string": [[1, "x"], [0, 1]],
        "numeric-text": [["1", "0"], ["0", "1"]],
        "numeric-bytes": [[b"1", b"0"], [b"0", b"1"]],
        "object": [[1, {}], [0, 1]],
        "rank": [1, 1],
    },
}


@pytest.mark.parametrize("defect", ["ragged", "string", "numeric-text", "numeric-bytes", "object", "rank"])
@pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
def test_a_malformed_array_is_a_dimension_mismatch(entry, defect):
    call, rank = ARRAY_ENTRY_POINTS[entry]
    with pytest.raises(DimensionMismatchError):
        call(BAD_ARRAYS[rank][defect])


@pytest.mark.parametrize(
    "values, ndim", [([True, False], 1), ([1, -2], 1), ([[1, 0], [0, True]], 2), (np.eye(2, dtype=int), 2)]
)
def test_bool_and_int_arrays_coerce_to_complex(values, ndim):
    coerced = as_carray(values, ndim)
    assert coerced.dtype == complex
    assert np.array_equal(coerced, np.array(values, dtype=float))


def test_a_complex_array_is_taken_as_it_is():
    vectors = np.eye(3, dtype=complex)
    assert as_carray(vectors, 2) is vectors


WINDOW = PiecewiseGenerator([(0, 1, "affine", 1, 0)])

#: every entry point that reads window points, which may be of any shape,
#: empty or non-finite, but must be real numbers by the rule of ``as_carray``
POINT_ENTRY_POINTS = {
    "PiecewiseGenerator.__call__": WINDOW,
    "evaluate_translates": lambda x: evaluate_translates(WINDOW, 1.0, x).points,
}

BAD_POINTS = {
    "numeric-text": ["0.5"],
    "numeric-bytes": [b"0.5"],
    "scalar-text": "0.5",
    "complex": [0.5j],
    "object": [0.5, {}],
}


@pytest.mark.parametrize("defect", BAD_POINTS)
@pytest.mark.parametrize("entry", POINT_ENTRY_POINTS)
def test_window_points_that_are_not_real_numbers_are_a_dimension_mismatch(entry, defect):
    with pytest.raises(DimensionMismatchError):
        POINT_ENTRY_POINTS[entry](BAD_POINTS[defect])


@pytest.mark.parametrize("entry", POINT_ENTRY_POINTS)
def test_bool_and_int_points_read_as_floats(entry):
    call = POINT_ENTRY_POINTS[entry]
    for points in ([0, 1], [True, False], np.array([0, 2], dtype=np.int8)):
        assert np.array_equal(call(points), call(np.array(points, dtype=float)))


def test_float_points_are_read_without_a_copy():
    points = np.linspace(0.0, 1.0, 5)
    assert as_points(points) is points


#: (call, error, message) by id: input that ``float``, unpacking or an integer
#: index refuses, and finite numbers out of range, whose messages stay as they were
BAD_SCALARS = {
    "bound-string": (lambda: FrameBounds("a", 1), InvalidBoundsError, "bounds must be real numbers, got ('a', 1)"),
    "bound-none": (lambda: FrameBounds(None, 1), InvalidBoundsError, "bounds must be real numbers, got (None, 1)"),
    "bound-pair-text": (lambda: as_frame_bounds("12"), InvalidBoundsError, "bounds must be real numbers, got ('1', '2')"),
    "bound-triple": (
        lambda: finite_sum_predict([(1, 2, 3), (1, 2)], [1, 1], 0),
        InvalidBoundsError,
        "expected a bound pair (lower, upper), got (1, 2, 3)",
    ),
    "lattice-string": (
        lambda: LatticeParams("x", 1),
        DegenerateLatticeError,
        "a must be a finite positive real, got 'x'",
    ),
    "wh-none": (lambda: WHParams(None, 1, 1, 1), DegenerateLatticeError, "P must be a finite real, got None"),
    "lattice-zero": (lambda: LatticeParams(0, 1), DegenerateLatticeError, "a must be a finite positive real, got 0.0"),
    "bound-order": (lambda: FrameBounds(2, 1), InvalidBoundsError, "need 0 < lower <= upper, got (2.0, 1.0)"),
    "singular-range-string": (
        lambda: operator_sum_predict((1, "x"), (1, 1), (1, 2), (1, 2)),
        InvalidBoundsError,
        "expected a range (low, high) of two finite reals, got (1, 'x')",
    ),
    "singular-range-triple": (
        lambda: operator_sum_predict((1, 1), (1, 1, 1), (1, 2), (1, 2)),
        InvalidBoundsError,
        "expected a range (low, high) of two finite reals, got (1, 1, 1)",
    ),
    "modulus-range-infinite": (
        lambda: perturbed_sum_predict((1, float("inf")), (1, 1), (1, 2), (1, 2)),
        InvalidBoundsError,
        "expected a range (low, high) of two finite reals, got (1, inf)",
    ),
    "modulus-range-huge-integer": (
        lambda: perturbed_sum_predict((1, 1), (1, 10**400), (1, 2), (1, 2)),
        InvalidBoundsError,
        f"expected a range (low, high) of two finite reals, got (1, {10**400})",
    ),
    "modulus-range-none": (
        lambda: perturbed_sum_predict((1, 1), None, (1, 2), (1, 2)),
        InvalidBoundsError,
        "expected a range (low, high) of two finite reals, got None",
    ),
    "pivot-float": (
        lambda: finite_sum_predict([(1, 2), (1, 2)], [1, 1], 0.5),
        DimensionMismatchError,
        "pivot must be an integer, got 0.5",
    ),
    "pivot-out-of-range": (
        lambda: finite_sum_predict([(1, 2), (1, 2)], [1, 1], np.int64(2)),
        DimensionMismatchError,
        "pivot 2 out of range for 2 frames",
    ),
    "max-iters-string": (lambda: run(E2, (1, 2), [1, 0], "5"), ValueError, "max_iters must be an integer, got '5'"),
    "max-iters-float": (lambda: run(E2, (1, 2), [1, 0], 5.0), ValueError, "max_iters must be an integer, got 5.0"),
    "stop-tol-string": (
        lambda: run(E2, (1, 2), [1, 0], 5, "1e-3"),
        ValueError,
        "stop_tol must be a real number, got '1e-3'",
    ),
    "stop-tol-complex": (lambda: run(E2, (1, 2), [1, 0], 5, 1j), ValueError, "stop_tol must be a real number, got 1j"),
    "stop-tol-infinite": (
        lambda: run(E2, (1, 2), [1, 0], 5, float("inf")),
        ValueError,
        "stop_tol must be nonnegative and finite",
    ),
    "width-text": (lambda: format_width("0.5"), InvalidBoundsError, "width must be finite and nonnegative, got '0.5'"),
    "width-negative": (
        lambda: format_width(-0.5),
        InvalidBoundsError,
        "width must be finite and nonnegative, got -0.5",
    ),
    "prediction-text": (
        lambda: PredictedBounds("1", 2, 3),
        InvalidBoundsError,
        "predicted lower must be a finite real, got '1'",
    ),
    "prediction-overflow": (
        lambda: PredictedBounds(float("-inf"), 1e300, float("-inf")),
        NumericRangeError,
        "predicted lower must be a finite real, got -inf",
    ),
}


@pytest.mark.parametrize("case", BAD_SCALARS)
def test_a_malformed_scalar_is_a_toolkit_error(case):
    call, error, message = BAD_SCALARS[case]
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message


#: (read, error) by id for every entry point that reads a real scalar: ``read``
#: returns what the entry point made of the value, and ``error`` is its documented
#: error for a value that is not a finite real
SCALAR_ENTRY_POINTS = {
    "FrameBounds": (lambda value: FrameBounds(value, 4).lower, InvalidBoundsError),
    "as_frame_bounds": (lambda value: as_frame_bounds((0.25, value)).upper, InvalidBoundsError),
    "LatticeParams": (lambda value: LatticeParams(1, value).b, DegenerateLatticeError),
    "WHParams": (lambda value: WHParams(value, 1, 1, 1).P, DegenerateLatticeError),
    "Piece": (lambda value: Piece(0, value, "affine", 1, 0).hi, ValueError),
    "operator_sum_predict": (
        lambda value: operator_sum_predict((value, 1), (1, 1), (1, 2), (1, 2)),
        InvalidBoundsError,
    ),
    "run.stop_tol": (lambda value: run(E2, (1, 2), [1, 0], 5, value), ValueError),
    "format_width": (format_width, InvalidBoundsError),
    "PredictedBounds": (lambda value: PredictedBounds(value, 4, 1).lower, InvalidBoundsError),
    "parse_spec_text": (
        lambda value: parse_spec_text(json.dumps({"kind": "width", "entries": [{"bounds": [value, 4]}]}))
        .payload[0][1]
        .lower,
        SpecSchemaError,
    ),
}

NOT_REALS = {
    "bool": True,
    "text": "1",
    "bytes": b"1",
    "none": None,
    "complex": 1j,
    "decimal": Decimal("1"),
    "inf": float("inf"),
    "nan": float("nan"),
    "huge-integer": 10**400,
}

REALS = {
    "int": 1,
    "float": 1.0,
    "numpy-int": np.int64(1),
    "numpy-float32": np.float32(1),
    "fraction": Fraction(1, 2),
}

#: JSON writes none of bytes, complex, decimal, numpy or fraction values
NOT_IN_JSON = (bytes, complex, Decimal, np.generic, Fraction)

#: a value that is a real but not a finite one is an overflow in a prediction,
#: which finite bounds produce only by arithmetic
RANGE_ERRORS = {"PredictedBounds": NumericRangeError}
NOT_FINITE = ("inf", "nan", "huge-integer")


def _cases(values):
    """(entry point, value id) for each value an entry point can be given;
    ``None`` is ``run``'s default tolerance, so it is not given there."""
    return [
        (entry, name)
        for entry in SCALAR_ENTRY_POINTS
        for name, value in values.items()
        if (entry != "parse_spec_text" or not isinstance(value, NOT_IN_JSON))
        and (entry != "run.stop_tol" or value is not None)
    ]


@pytest.mark.parametrize("entry, value", _cases(NOT_REALS))
def test_a_value_that_is_not_a_finite_real_is_refused_everywhere(entry, value):
    read, error = SCALAR_ENTRY_POINTS[entry]
    if value in NOT_FINITE:
        error = RANGE_ERRORS.get(entry, error)
    with pytest.raises(error) as excinfo:
        read(NOT_REALS[value])
    assert type(excinfo.value) is error


@pytest.mark.parametrize("entry, value", _cases(REALS))
def test_a_finite_real_is_read_as_the_same_float_everywhere(entry, value):
    read, _ = SCALAR_ENTRY_POINTS[entry]
    expected = float(REALS[value])
    got, want = read(REALS[value]), read(expected)
    assert got == want and type(got) is type(want)
    if isinstance(want, float):
        assert want == expected


#: (read, error) by id for every entry point that reads an integer
INTEGER_ENTRY_POINTS = {
    "run.max_iters": (lambda value: run(E2, (1, 2), [1, 0], value), ValueError),
    "finite_sum_predict.pivot": (
        lambda value: finite_sum_predict([(1, 2), (1, 3)], [1, 2], value),
        DimensionMismatchError,
    ),
}

NOT_INTEGERS = {"bool": True, "float": 1.0, "text": "1", "none": None}


@pytest.mark.parametrize("value", NOT_INTEGERS)
@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_a_value_that_is_not_an_integer_is_refused_everywhere(entry, value):
    read, error = INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(error) as excinfo:
        read(NOT_INTEGERS[value])
    assert type(excinfo.value) is error


@pytest.mark.parametrize("value", [1, np.int64(1)], ids=["int", "numpy-int"])
@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_an_integer_is_taken_everywhere(entry, value):
    read, _ = INTEGER_ENTRY_POINTS[entry]
    assert read(value) == read(1)


def test_numpy_integers_and_reals_are_taken_where_integers_and_reals_are():
    pairs = [(1, 2), (1, 3)]
    assert finite_sum_predict(pairs, [1, 2], np.int64(1)) == finite_sum_predict(pairs, [1, 2], 1)
    ranges = [(np.float64(0.5), np.float32(1)), (1, np.int64(1))]
    assert operator_sum_predict(*ranges, (1, 2), (1, 2)) == operator_sum_predict((0.5, 1.0), (1, 1), (1, 2), (1, 2))
    assert run(E2, (1, 2), [1, 0], np.int64(3), np.float64(0)) == run(E2, (1, 2), [1, 0], 3, 0.0)


def test_frames_that_do_not_align_are_named():
    with pytest.raises(DimensionMismatchError) as excinfo:
        verify_dual(E2, FiniteFrame(np.eye(3)))
    assert str(excinfo.value) == (
        "frames must align: FiniteFrame(count=2, dim=2) vs FiniteFrame(count=3, dim=3)"
    )
