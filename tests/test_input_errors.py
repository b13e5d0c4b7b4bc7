"""Malformed input to a library entry point raises a toolkit error, never a
bare ``ValueError`` or ``TypeError`` from numpy or ``float``."""

import numpy as np
import pytest

from framesum import (
    DegenerateLatticeError,
    DimensionMismatchError,
    FiniteFrame,
    FrameBounds,
    InvalidBoundsError,
    LatticeParams,
    WHParams,
    build_operator_sum_frame,
    build_perturbed_sum_frame,
    build_sum_frame,
    extreme_singular_values,
    finite_sum_predict,
    modulus_range,
    run,
    verify_dual,
)

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

#: malformed arrays by rank: ragged, a non-numeric string, a non-numeric
#: object, and the other rank
BAD_ARRAYS = {
    1: {"ragged": [1, [2]], "string": [1, "x"], "object": [1, {}], "rank": [[1, 1]]},
    2: {"ragged": [[1, 2], [3]], "string": [[1, "x"], [0, 1]], "object": [[1, {}], [0, 1]], "rank": [1, 1]},
}


@pytest.mark.parametrize("defect", ["ragged", "string", "object", "rank"])
@pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
def test_a_malformed_array_is_a_dimension_mismatch(entry, defect):
    call, rank = ARRAY_ENTRY_POINTS[entry]
    with pytest.raises(DimensionMismatchError):
        call(BAD_ARRAYS[rank][defect])


#: (call, error, message) by id: input that ``float`` or unpacking refuses, and
#: finite numbers out of range, whose messages stay as they were
BAD_SCALARS = {
    "bound-string": (lambda: FrameBounds("a", 1), InvalidBoundsError, "bounds must be real numbers, got ('a', 1)"),
    "bound-none": (lambda: FrameBounds(None, 1), InvalidBoundsError, "bounds must be real numbers, got (None, 1)"),
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
}


@pytest.mark.parametrize("case", BAD_SCALARS)
def test_a_malformed_scalar_is_a_toolkit_error(case):
    call, error, message = BAD_SCALARS[case]
    with pytest.raises(error) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_frames_that_do_not_align_are_named():
    with pytest.raises(DimensionMismatchError) as excinfo:
        verify_dual(E2, FiniteFrame(np.eye(3)))
    assert str(excinfo.value) == (
        "frames must align: FiniteFrame(count=2, dim=2) vs FiniteFrame(count=3, dim=3)"
    )
