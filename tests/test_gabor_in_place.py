"""The window and the two periodic sums compute in place, into arrays of their
own: no call writes into the caller's points or into a ``Translates`` record,
and no result shares memory with them or is overwritten by a later call."""

import math

import numpy as np
import pytest

from framesum import DimensionMismatchError, PiecewiseGenerator
from framesum.gabor import evaluate_translates, shift_overlap_sum, translate_energy

WINDOWS = {
    "affine": PiecewiseGenerator([(0, 1, "affine", 1, -1), (1, 2, "affine", -1, 1)]),
    "sqrt-affine": PiecewiseGenerator([(0, 1, "sqrt-affine", 2, 0), (1, 2, "sqrt-affine", 4, -2)]),
}

# support length 2 on the lattice (1, 0.6): the overlap term does not vanish
A, B = 1.0, 0.6


def _points(layout):
    x = np.random.default_rng(3).uniform(-1.5, 3.5, 240)
    return {"sorted": np.sort(x), "unsorted": x, "2-d": x.reshape(12, 20)}[layout]


def _record_arrays(translates):
    arrays = [translates.points] + ([] if translates.order is None else [translates.order])
    for _, segment, values in translates.terms:
        arrays += [segment, values]
    return arrays


def _frozen(arrays):
    return [(array.shape, array.tobytes()) for array in arrays]


@pytest.mark.parametrize("layout", ["sorted", "unsorted", "2-d"])
@pytest.mark.parametrize("window", WINDOWS)
def test_window_leaves_the_points_alone(window, layout):
    x = _points(layout)
    before = _frozen([x])
    values = WINDOWS[window](x)
    assert _frozen([x]) == before
    assert values.shape == x.shape
    assert not np.shares_memory(values, x)


@pytest.mark.parametrize("energy_first", [True, False])
@pytest.mark.parametrize("layout", ["sorted", "unsorted", "2-d"])
@pytest.mark.parametrize("window", WINDOWS)
def test_sums_leave_the_points_and_the_translates_alone(window, layout, energy_first):
    x = _points(layout)
    before = _frozen([x])
    translates = evaluate_translates(WINDOWS[window], A, x)
    assert _frozen([x]) == before
    record = _frozen(_record_arrays(translates))
    calls = [lambda: translate_energy(translates), lambda: shift_overlap_sum(translates, B)]
    first = (calls if energy_first else calls[::-1])[0]()
    first_bytes = first.tobytes()
    second = (calls if energy_first else calls[::-1])[1]()
    assert first.tobytes() == first_bytes
    assert _frozen(_record_arrays(translates)) == record
    assert _frozen([x]) == before
    energy, overlap = (first, second) if energy_first else (second, first)
    assert np.any(overlap) and np.any(energy)
    for result in (energy, overlap):
        assert result.shape == x.shape
        for array in [x] + _record_arrays(translates):
            assert not np.shares_memory(result, array)
    assert not np.shares_memory(energy, overlap)


@pytest.mark.parametrize(
    "points", [[0.5, math.nan], [-math.inf, math.nan], [math.nan], [-math.inf, 0.5], [0.5, math.inf], [math.inf]]
)
def test_a_nan_point_fails_the_shift_range(points):
    # NaN sorts last and -inf first: the check must see either end
    for layout in (points, points[::-1], np.array(points).reshape(1, -1)):
        with pytest.raises(DimensionMismatchError, match="points must be finite"):
            evaluate_translates(WINDOWS["affine"], A, layout)


@pytest.mark.parametrize("x", [[], np.empty((2, 0))])
def test_no_point_gives_no_translate_and_empty_sums(x):
    translates = evaluate_translates(WINDOWS["affine"], A, x)
    assert translates.terms == ()
    for result in (translate_energy(translates), shift_overlap_sum(translates, B), WINDOWS["affine"](x)):
        assert result.shape == np.shape(x) and result.dtype == float
