import cmath
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import framesum.gabor as gabor
from framesum import (
    DegenerateLatticeError,
    FrameToolkitError,
    LatticeParams,
    NonPositiveLowerBoundError,
    NumericRangeError,
    PiecewiseGenerator,
    SpecParseError,
    SpecSchemaError,
    WHParams,
    estimate_bounds,
    evaluate_translates,
    overlap_vanishes,
    shift_overlap_sum,
    translate_energy,
    wh_to_gabor,
)
from framesum.experiments import parse_spec_text, run_experiment

# the four reference windows
SQRT_RAMP = PiecewiseGenerator(
    [(0, 1, "sqrt-affine", 2, 0), (1, 2, "sqrt-affine", 4, -2)]
)
TENT = PiecewiseGenerator([(0, 0.5, "affine", 2, 0), (0.5, 1, "affine", -4, 4)])
TWO_SIDED_RAMP = PiecewiseGenerator([(0, 1, "affine", 1, -1), (1, 2, "affine", -1, 1)])
HALF_SLOPE = PiecewiseGenerator(
    [(0, 1, "affine", 0.5, 0), (1, 2, "sqrt-affine", -0.25, 0.75)]
)


def _energy(gen, a, x):
    return translate_energy(evaluate_translates(gen, a, x))


def _overlap(gen, a, b, x):
    return shift_overlap_sum(evaluate_translates(gen, a, x), b)


# --- construction and evaluation ---------------------------------------------


def test_piece_validation():
    with pytest.raises(ValueError):
        PiecewiseGenerator([(1, 1, "affine", 1, 0)])  # lo == hi
    with pytest.raises(ValueError):
        PiecewiseGenerator([(0, 1, "cubic", 1, 0)])  # unknown kind
    with pytest.raises(ValueError):
        PiecewiseGenerator([(0, 1, "sqrt-affine", -2, 0.5)])  # negative radicand
    with pytest.raises(ValueError):
        PiecewiseGenerator([(0, 1, "affine", 1, 0), (0.5, 2, "affine", 1, 0)])  # overlap
    with pytest.raises(Exception):
        PiecewiseGenerator([])


def test_evaluation_half_open():
    assert SQRT_RAMP(0.5) == pytest.approx(1.0)
    assert SQRT_RAMP(1.5) == pytest.approx(2.0)
    assert SQRT_RAMP(2.0) == 0.0  # right endpoint excluded
    assert SQRT_RAMP(-0.1) == 0.0
    assert SQRT_RAMP(1.0) == pytest.approx(math.sqrt(2.0))  # second piece takes over


def test_evaluation_vectorized():
    xs = np.array([-1.0, 0.25, 1.25, 3.0])
    np.testing.assert_allclose(
        SQRT_RAMP(xs), [0, math.sqrt(0.5), math.sqrt(3), 0], rtol=1e-15
    )


def _masked_evaluation(gen, x):
    """The window evaluated one piece at a time through a mask over all points."""
    xs = np.asarray(x, dtype=float)
    out = np.zeros_like(xs, dtype=float)
    for piece in gen.pieces:
        mask = (xs >= piece.lo) & (xs < piece.hi)
        if not np.any(mask):
            continue
        values = piece.alpha * xs[mask] + piece.beta
        if piece.kind == "sqrt-affine":
            values = np.sqrt(np.maximum(values, 0.0))
        out[mask] = values
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out)
    return out


def _assert_same_bits(got, want):
    if isinstance(want, float):
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
        return
    assert isinstance(got, np.ndarray) and got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# pieces with a shared breakpoint at 1, a gap [1.5, 2), and negative values on [2, 3)
GAPPY = PiecewiseGenerator(
    [(0, 1, "affine", 0.7, 0.1), (1, 1.5, "sqrt-affine", -1.1, 2.3), (2, 3, "affine", -1, 1.25)]
)


# 24 pieces on [0, 3) with gaps, so that most point sets meet only a few of them
STAIRS = PiecewiseGenerator(
    [
        (i / 8, (i + 1) / 8 - (i % 3 == 2) / 16, "sqrt-affine" if i % 2 else "affine", 0.1 * i, 1.0)
        for i in range(24)
    ]
)


def test_evaluation_bitwise_matches_the_mask_loop(rng):
    ends = [0.0, 1.0, 1.5, 2.0, 3.0] + [p.hi for p in STAIRS.pieces[:6]]
    special = ends + [np.nextafter(e, -np.inf) for e in ends] + [np.nextafter(e, np.inf) for e in ends]
    special += [1.75, -0.0, np.nan, np.inf, -np.inf]
    for gen in (GAPPY, SQRT_RAMP, HALF_SLOPE, STAIRS):
        xs = np.concatenate([rng.uniform(-1, 4, 300), special, special[:4]])  # repeats too
        rng.shuffle(xs)
        # NaN compares false both ways, so a descent hidden behind one must still sort
        hidden = np.array([2.5, np.nan, 0.5, 1.25])
        window = np.sort(xs[(xs >= 0.25) & (xs <= 0.625)])  # bounded by piece ends of STAIRS
        for x in (xs, np.sort(xs), xs.reshape(2, 3, -1), xs[:1], xs[:0], xs.tolist(), hidden, window):
            _assert_same_bits(gen(x), _masked_evaluation(gen, x))
        for point in special:
            _assert_same_bits(gen(point), _masked_evaluation(gen, point))
            _assert_same_bits(gen(np.float64(point)), _masked_evaluation(gen, point))
    assert GAPPY(np.nan) == GAPPY(np.inf) == GAPPY(-np.inf) == GAPPY(1.75) == GAPPY(3.0) == 0.0
    assert GAPPY(1.0) == math.sqrt(-1.1 + 2.3) and GAPPY(2.0) == -0.75


# --- periodized energy ---------------------------------------------------------


def test_translate_energy_sqrt_ramp():
    # two overlapping translates add up to 6x + 2 on [0, 1)
    assert _energy(SQRT_RAMP, 1.0, 0.5) == pytest.approx(5.0, rel=1e-14)
    assert _energy(SQRT_RAMP, 1.0, 0.0) == pytest.approx(2.0, rel=1e-14)


def test_translate_energy_outside_periodized_support():
    gen = PiecewiseGenerator([(0, 1, "affine", 0, 1)])
    assert _energy(gen, 3.0, 2.0) == 0.0


def test_translate_energy_two_sided_ramp():
    assert _energy(TWO_SIDED_RAMP, 1.0, 0.5) == pytest.approx(0.5, rel=1e-14)


def _reference_energy(gen, a, xs):
    """``sum_n g(x - n a)^2`` with every translate evaluated on every point."""
    total = np.zeros_like(xs)
    n_lo = math.floor((float(xs.min()) - gen.support_hi) / a)
    n_hi = math.ceil((float(xs.max()) - gen.support_lo) / a)
    for n in range(n_lo, n_hi + 1):
        values = _masked_evaluation(gen, xs - n * a)
        total += values * values
    return total


def test_translate_energy_bitwise_keeps_order_and_shape(rng):
    for gen, a in ((GAPPY, 0.8), (SQRT_RAMP, 1.0), (HALF_SLOPE, 0.45)):
        xs = rng.uniform(-2, 5, 240)
        for x in (xs, np.sort(xs), xs.reshape(4, 60), xs.reshape(2, 3, 40)):
            _assert_same_bits(_energy(gen, a, x), _reference_energy(gen, a, x))
        _assert_same_bits(_energy(gen, a, float(xs[0])), float(_reference_energy(gen, a, xs[:1])[0]))


def test_translate_energy_periodicity(rng):
    xs = rng.uniform(0, 1, size=64)
    for gen, a in ((SQRT_RAMP, 1.0), (TENT, 0.5), (HALF_SLOPE, 1.0)):
        base = _energy(gen, a, xs)
        shifted = _energy(gen, a, xs + a)
        np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)


# --- overlap term ----------------------------------------------------------------


def test_overlap_short_circuit_sqrt_ramp():
    # support length 2 equals 1/b for b = 1/2: no overlap
    assert overlap_vanishes(SQRT_RAMP, 0.5)
    xs = np.linspace(0, 1, 11)
    np.testing.assert_array_equal(_overlap(SQRT_RAMP, 1.0, 0.5, xs), np.zeros(11))


def test_overlap_short_circuit_tent():
    assert overlap_vanishes(TENT, 1.0)
    assert _overlap(TENT, 0.5, 1.0, 0.3) == 0.0


def test_overlap_positive_for_long_support():
    wide = PiecewiseGenerator([(0, 3, "affine", 0, 1)])
    assert not overlap_vanishes(wide, 1.0)
    assert _overlap(wide, 1.0, 1.0, 0.5) > 0.0


def test_overlap_shortcut_matches_brute_force():
    # independent brute-force evaluation of the double sum on a dense grid
    for gen, a, b in ((SQRT_RAMP, 1.0, 0.5), (TENT, 0.5, 1.0)):
        xs = np.linspace(0, a, 10_000, endpoint=False)
        lo, hi = gen.support_lo, gen.support_hi
        k_max = math.ceil(gen.support_length * b) + 2
        total = np.zeros_like(xs)
        for k in range(-k_max, k_max + 1):
            if k == 0:
                continue
            inner = np.zeros_like(xs)
            for n in range(-6, 7):
                inner += gen(xs - n * a) * gen(xs - n * a - k / b)
            total += np.abs(inner)
        assert float(total.max()) <= 1e-12


# --- bound estimation -------------------------------------------------------------


def test_estimate_sqrt_ramp_exact():
    est = estimate_bounds(SQRT_RAMP, LatticeParams(1, 0.5))
    assert est.exact and est.g1_identically_zero
    assert est.lower == pytest.approx(4.0, rel=1e-12)
    assert est.upper == pytest.approx(16.0, rel=1e-12)


def test_estimate_two_sided_ramp():
    est = estimate_bounds(TWO_SIDED_RAMP, LatticeParams(1, 0.5))
    assert est.exact
    assert est.lower == pytest.approx(1.0, rel=1e-12)
    assert est.upper == pytest.approx(2.0, rel=1e-12)


def test_estimate_tent():
    est = estimate_bounds(TENT, LatticeParams(0.5, 1))
    assert est.exact
    assert est.lower == pytest.approx(0.8, rel=1e-12)
    assert est.upper == pytest.approx(4.0, rel=1e-12)


def test_estimate_half_slope():
    est = estimate_bounds(HALF_SLOPE, LatticeParams(1, 0.5))
    assert est.lower == pytest.approx(7 / 8, rel=1e-12)
    assert est.upper == pytest.approx(1.0, rel=1e-12)


def test_estimate_rejects_gap_in_periodization():
    gen = PiecewiseGenerator([(0, 0.4, "affine", 0, 1)])
    with pytest.raises(NonPositiveLowerBoundError):
        estimate_bounds(gen, LatticeParams(1, 1))


def test_estimate_grid_path_flags_inexact():
    # support length 2 exceeds 1/b for b = 0.6, so the overlap term is live
    est = estimate_bounds(SQRT_RAMP, LatticeParams(1, 0.6))
    assert not est.exact
    assert not est.g1_identically_zero
    assert est.grid_resolution == 2**14
    # independent dense scan of (energy -/+ overlap) over one period
    xs = np.linspace(0, 1, 200_001)
    low = _energy(SQRT_RAMP, 1, xs) - _overlap(SQRT_RAMP, 1, 0.6, xs)
    high = _energy(SQRT_RAMP, 1, xs) + _overlap(SQRT_RAMP, 1, 0.6, xs)
    assert est.lower <= low.min() / 0.6 + 1e-9
    assert est.upper >= high.max() / 0.6 - 1e-9
    assert est.lower == pytest.approx(low.min() / 0.6, rel=1e-3)
    assert est.upper == pytest.approx(high.max() / 0.6, rel=1e-3)


# --- grid path: bitwise against the full double sum -----------------------------


def _reference_overlap_sum(gen, a, b, xs):
    """The full double sum: ``n`` padded by ``k_max/b`` on both sides and every
    ``k`` up to ``k_max``, each term evaluated and added in ascending order."""
    k_max = math.ceil(gen.support_length * b) + 1
    n_lo = math.floor((float(xs.min()) - k_max / b - gen.support_hi) / a)
    n_hi = math.ceil((float(xs.max()) + k_max / b - gen.support_lo) / a)
    total = np.zeros_like(xs)
    for k in range(-k_max, k_max + 1):
        if k == 0:
            continue
        inner = np.zeros_like(xs)
        for n in range(n_lo, n_hi + 1):
            inner += _masked_evaluation(gen, xs - n * a) * _masked_evaluation(gen, xs - n * a - k / b)
        total += np.abs(inner)
    return total


def _reference_grid_extrema(gen, a, b):
    """Coarse grid plus one refinement per extremum, each its own point set, on
    the reference objective; also returns the coarse ``(i_min, i_max)``."""
    step = a / gabor.GRID_RESOLUTION
    xs = np.arange(gabor.GRID_RESOLUTION) * step

    def low(points):
        return _energy(gen, a, points) - _reference_overlap_sum(gen, a, b, points)

    def high(points):
        return _energy(gen, a, points) + _reference_overlap_sum(gen, a, b, points)

    def refine(index, objective):
        left = max(0.0, (index - 1) * step)
        right = min(a, (index + 1) * step)
        return objective(np.linspace(left, right, gabor.REFINE_POINTS))

    low_values, high_values = low(xs), high(xs)
    i_min, i_max = int(np.argmin(low_values)), int(np.argmax(high_values))
    lo = min(float(low_values[i_min]), float(refine(i_min, low).min()))
    hi = max(float(high_values[i_max]), float(refine(i_max, high).max()))
    return lo, hi, (i_min, i_max)


def _random_overlap_case(rng):
    """A continuous positive window of 1-6 mixed pieces on an offset support,
    and a lattice with ``b L`` in ``(1.05, 3.2)``, an integer on a third of
    the draws."""
    n_pieces = int(rng.integers(1, 7))
    length = rng.uniform(0.5, 2.5)
    steps = rng.uniform(0.3, 1.5, n_pieces)
    cuts = rng.uniform(-3, 3) + length * np.concatenate([[0.0], np.cumsum(steps) / steps.sum()])
    values = rng.uniform(0.6, 1.5, n_pieces + 1)
    values[[0, -1]] = rng.uniform(0.05, 0.35, 2)  # tapered ends
    pieces = []
    for lo, hi, v0, v1 in zip(cuts, cuts[1:], values, values[1:]):
        kind = "affine" if rng.random() < 0.5 else "sqrt-affine"
        if kind == "sqrt-affine":
            v0, v1 = v0 * v0, v1 * v1
        alpha = (v1 - v0) / (hi - lo)
        pieces.append((float(lo), float(hi), kind, float(alpha), float(v0 - alpha * lo)))
    gen = PiecewiseGenerator(pieces)
    a = gen.support_length * rng.uniform(0.4, 0.8)
    bl = int(rng.integers(2, 4)) if rng.random() < 1 / 3 else rng.uniform(1.05, 3.2)
    return gen, a, bl / gen.support_length


def test_overlap_sum_bitwise_matches_full_double_sum(rng):
    for _ in range(80):
        gen, a, b = _random_overlap_case(rng)
        assert not overlap_vanishes(gen, b)
        start = rng.uniform(-4, 4)
        xs = rng.uniform(start, start + a * rng.uniform(0.05, 2.5), 200)  # unsorted
        for x in (xs, xs.reshape(8, 25)):
            _assert_same_bits(_overlap(gen, a, b, x), _reference_overlap_sum(gen, a, b, x))
        point = float(xs[0])
        assert _overlap(gen, a, b, point) == float(
            _reference_overlap_sum(gen, a, b, xs[:1])[0]
        )


# g^2 is a triangle on [2^-15, 2 + 2^-15), so on a = 1 and b = 1 the peak of
# G1 sits half a grid step past 0.5; G0 = 1 plus a slope of 2^-14 moves the
# coarse argmin of G0 - G1 and argmax of G0 + G1 to adjacent indices
NEAR_TIE = PiecewiseGenerator(
    [
        (2**-15, 1 + 2**-15, "sqrt-affine", 1 + 2**-14, -(1 + 2**-14) * 2**-15),
        (1 + 2**-15, 2 + 2**-15, "sqrt-affine", -1, 2 + 2**-15),
    ]
)

# (window, a, b, what the coarse (i_min, i_max) must satisfy)
EDGE_CASES = [
    # energy 8 - 6x on [0, 1): the maximum sits at index 0 and its window is clipped at 0
    (PiecewiseGenerator([(0, 1, "sqrt-affine", -4, 6), (1, 2, "sqrt-affine", -2, 4)]), 1.0, 0.6,
     lambda i_min, i_max: i_max == 0),
    # energy 6x + 2: the maximum sits at the last index and its window is clipped at a
    (SQRT_RAMP, 1.0, 0.6, lambda i_min, i_max: i_max == gabor.GRID_RESOLUTION - 1),
    # G0 = 1, so both extrema sit on the peak of G1
    (PiecewiseGenerator([(0, 1, "sqrt-affine", 1, 0), (1, 2, "sqrt-affine", -1, 2)]), 1.0, 0.6,
     lambda i_min, i_max: i_min == i_max),
    # adjacent extrema: the two refinement windows overlap
    (NEAR_TIE, 1.0, 1.0, lambda i_min, i_max: abs(i_min - i_max) == 1),
]


def test_grid_estimate_bitwise_matches_full_double_sum(rng):
    cases = [(*_random_overlap_case(rng), None) for _ in range(60)] + EDGE_CASES
    positive = 0
    for gen, a, b, holds in cases:
        lo, hi, indices = _reference_grid_extrema(gen, a, b)
        assert holds is None or holds(*indices)
        got_lo, got_hi = gabor._grid_extrema(gen, LatticeParams(a, b))
        _assert_same_bits(got_lo, lo)
        _assert_same_bits(got_hi, hi)
        if lo / b > 0.0:
            est = estimate_bounds(gen, LatticeParams(a, b))
            _assert_same_bits(est.lower, lo / b)
            _assert_same_bits(est.upper, hi / b)
            assert not est.exact
            positive += 1
        else:
            with pytest.raises(NonPositiveLowerBoundError):
                estimate_bounds(gen, LatticeParams(a, b))
    assert positive > 0


def test_grid_path_evaluates_each_point_set_once(monkeypatch):
    # two point sets, the coarse grid and both refinement windows together; on
    # each the window is handed every translate's support slice once and, for
    # a translate not 0 on all of it, every shifted slice once
    calls, point_sets, evaluated = Counter(), [], Counter()
    for name in ("translate_energy", "shift_overlap_sum"):

        def counted(translates, *args, _name=name, _original=getattr(gabor, name)):
            calls[_name] += 1
            point_sets.append(translates.points)
            return _original(translates, *args)

        monkeypatch.setattr(gabor, name, counted)
    original = PiecewiseGenerator.__call__

    def counted_call(gen, x):
        evaluated["points"] += np.size(x)
        return original(gen, x)

    monkeypatch.setattr(PiecewiseGenerator, "__call__", counted_call)
    a, b = 1.0, 0.6
    estimate_bounds(SQRT_RAMP, LatticeParams(a, b))
    assert calls == {"translate_energy": 2, "shift_overlap_sum": 2}
    assert [xs.size for xs in point_sets] == [gabor.GRID_RESOLUTION] * 2 + [2 * gabor.REFINE_POINTS] * 2
    lo, hi = SQRT_RAMP.support_lo, SQRT_RAMP.support_hi
    expected = 0
    for xs in point_sets[::2]:
        for n in range(-4, 5):
            u = xs - n * a
            inside = (u >= lo) & (u < hi)
            expected += np.count_nonzero(inside)
            if not _masked_evaluation(SQRT_RAMP, u[inside]).any():
                continue  # a translate that is 0 on its slice has no nonzero product
            # support length 2 meets its shift by k / b for k = +-1 only
            for k in (-1, 1):
                expected += np.count_nonzero(inside & (u - k / b >= lo) & (u - k / b < hi))
    assert evaluated["points"] == expected


def test_grid_path_work_does_not_grow_with_the_piece_count(monkeypatch):
    # one affine window on [0, 1) as one piece and as 100: each translate is
    # evaluated only on its support slice, so the window is handed the same
    # points either way, and none outside its support
    cuts = np.linspace(0.0, 1.0, 101)
    one = PiecewiseGenerator([(0.0, 1.0, "affine", 0.5, 1.0)])
    many = PiecewiseGenerator([(lo, hi, "affine", 0.5, 1.0) for lo, hi in zip(cuts, cuts[1:])])
    evaluated, outside = Counter(), Counter()
    original = PiecewiseGenerator.__call__

    def counted(gen, x):
        xs = np.asarray(x)
        evaluated[len(gen.pieces)] += xs.size
        outside[len(gen.pieces)] += int(np.count_nonzero((xs < 0.0) | (xs >= 1.0)))
        return original(gen, x)

    monkeypatch.setattr(PiecewiseGenerator, "__call__", counted)
    lattice = LatticeParams(0.3, 1.5)
    assert estimate_bounds(one, lattice) == estimate_bounds(many, lattice)
    assert evaluated[1] == evaluated[100] > 0
    assert outside == {1: 0, 100: 0}


def test_closed_form_estimate_scales_with_the_window():
    # g(x / s) on the lattice (s a, b / s) has the bounds of g times s; cuts
    # merge relative to a and the support's ends, so a window on [0, 2^-60)
    # keeps its cells
    base = estimate_bounds(TENT, LatticeParams(0.5, 1))
    for s in (2.0**-60, 2.0**40):
        pieces = [(p.lo * s, p.hi * s, p.kind, p.alpha / s, p.beta) for p in TENT.pieces]
        est = estimate_bounds(PiecewiseGenerator(pieces), LatticeParams(0.5 * s, 1 / s))
        assert est.exact
        assert (est.lower, est.upper) == pytest.approx((base.lower * s, base.upper * s), rel=1e-12)


@pytest.mark.parametrize("offset", [100.0, -64.13085628626845, 255.58563716788728, -256.7856296839643])
@pytest.mark.parametrize(
    "pieces",
    [[(0, 1, "affine", 0, 1)], [(0, 0.5, "affine", 2, 0), (0.5, 1, "affine", -4, 4)]],
    ids=["rectangle", "tent"],
)
def test_closed_form_estimate_does_not_depend_on_the_window_offset(pieces, offset):
    # the cuts of a window far from 0 carry rounding errors of its ends, not
    # of a: merged relative to a alone, they left thin cells covered by one
    # translate too few or too many (398 in place of 400 on the rectangle)
    moved = PiecewiseGenerator([(p[0] + offset, p[1] + offset, p[2], p[3], p[4] - p[3] * offset) for p in pieces])
    lattice = LatticeParams(0.005, 0.5)
    base, est = estimate_bounds(PiecewiseGenerator(pieces), lattice), estimate_bounds(moved, lattice)
    assert est.exact
    assert (est.lower, est.upper) == pytest.approx((base.lower, base.upper), rel=1e-9)


def test_closed_form_rejects_a_window_too_far_from_the_origin():
    # 2e6 lattice steps out, the cuts' rounding is no longer small against a
    far = PiecewiseGenerator([(1e6, 1e6 + 2, "affine", 0, 1)])
    with pytest.raises(DegenerateLatticeError, match="lattice steps"):
        estimate_bounds(far, LatticeParams(0.5, 0.25))
    # under 1e6 steps out, a step of 1.5 still gives the bounds of the window at 0
    est = estimate_bounds(far, LatticeParams(1.5, 0.25))
    assert (est.exact, est.lower, est.upper) == (True, 4.0, 8.0)


TINY_TENT = PiecewiseGenerator([(0, 0.5, "affine", 2e-200, 0), (0.5, 1, "affine", -4e-200, 4e-200)])


def test_closed_form_estimate_reports_underflow_as_a_range_error():
    # the tent at amplitude 1e-200 has bounds 1e-400 times the tent's, below
    # the smallest double; its squared values underflow to 0
    with pytest.raises(NumericRangeError, match="underflowed"):
        estimate_bounds(TINY_TENT, LatticeParams(0.5, 1))


def test_grid_estimate_reports_underflow_as_a_range_error():
    lattice = LatticeParams(0.5, 1.2)
    assert not estimate_bounds(TENT, lattice).exact  # b = 1.2 > 1 / length: the grid path
    with pytest.raises(NumericRangeError, match="underflowed"):
        estimate_bounds(TINY_TENT, lattice)


def test_underflow_check_survives_a_radicand_valid_only_at_its_own_scale():
    # Piece accepts a radicand down to -1e-12 absolute, which the check's
    # rescaling by 2^511 turns into an invalid piece; the answer stays "no frame"
    window = PiecewiseGenerator([(0, 1, "sqrt-affine", 0, -1e-13), (1, 2, "affine", 0, 1e-200)])
    with pytest.raises(ValueError):
        window.scaled(2.0**511)
    with pytest.raises(NonPositiveLowerBoundError):
        estimate_bounds(window, LatticeParams(1.5, 0.4))


def test_constant_window_has_no_positive_lower_estimate():
    # rectangular window of length 3 on the integer lattice: the overlap term
    # eats the whole energy margin
    wide = PiecewiseGenerator([(0, 3, "affine", 0, 1)])
    with pytest.raises(NonPositiveLowerBoundError):
        estimate_bounds(wide, LatticeParams(1, 1))


def test_estimate_scaling():
    base = estimate_bounds(SQRT_RAMP, LatticeParams(1, 0.5))
    for c in (3.0, 1 / 7):
        est = estimate_bounds(SQRT_RAMP.scaled(c), LatticeParams(1, 0.5))
        assert est.lower == pytest.approx(c**2 * base.lower, rel=1e-12)
        assert est.upper == pytest.approx(c**2 * base.upper, rel=1e-12)
    affine_base = estimate_bounds(TENT, LatticeParams(0.5, 1))
    est = estimate_bounds(TENT.scaled(0.3), LatticeParams(0.5, 1))
    assert est.lower == pytest.approx(0.09 * affine_base.lower, rel=1e-12)
    assert est.upper == pytest.approx(0.09 * affine_base.upper, rel=1e-12)


def _refined_grid_extrema(gen, a, coarse=100_000, fine=257):
    """Independent numeric extrema: dense scan plus one local refinement, so
    suprema attained as one-sided limits at breakpoints are resolved."""
    xs = np.linspace(0, a, coarse, endpoint=False)
    values = _energy(gen, a, xs)
    step = a / coarse
    results = []
    for want_min in (True, False):
        i = int(np.argmin(values) if want_min else np.argmax(values))
        window = np.linspace(max(0.0, (i - 1) * step), min(a, (i + 1) * step), fine)
        local = _energy(gen, a, window)
        if want_min:
            results.append(min(float(values[i]), float(local.min())))
        else:
            results.append(max(float(values[i]), float(local.max())))
    return results


@pytest.mark.parametrize(
    "gen,a,b",
    [(SQRT_RAMP, 1.0, 0.5), (TENT, 0.5, 1.0), (TWO_SIDED_RAMP, 1.0, 0.5), (HALF_SLOPE, 1.0, 0.5)],
)
def test_closed_form_matches_grid_search(gen, a, b):
    est = estimate_bounds(gen, LatticeParams(a, b))
    lo, hi = _refined_grid_extrema(gen, a)
    assert abs(lo / b - est.lower) <= 1e-6
    assert abs(hi / b - est.upper) <= 1e-6


def _reference_periodized_cells(gen, a):
    """The closed form's cells as first written: every translate times every
    piece, then every contribution tested against every cell's midpoint."""
    contributions = []
    cuts = {0.0, a}
    for n in gabor._shift_range(gen, a, 0.0, a):
        na = n * a
        for piece in gen.pieces:
            start = max(piece.lo + na, 0.0)
            end = min(piece.hi + na, a)
            if end - start <= 0.0:
                continue
            c2, c1, c0 = piece.squared_coefficients()
            contributions.append((start, end, c2, c1 - 2.0 * c2 * na, c2 * na * na - c1 * na + c0))
            cuts.add(start)
            cuts.add(end)
    merged = []
    for cut in sorted(cuts):
        if merged and cut - merged[-1] <= 1e-12 * max(a, abs(gen.support_lo), abs(gen.support_hi)):
            continue
        merged.append(cut)
    cells = []
    for u, v in zip(merged, merged[1:]):
        mid = 0.5 * (u + v)
        c2 = c1 = c0 = 0.0
        for start, end, p2, p1, p0 in contributions:
            if start <= mid < end:
                c2 += p2
                c1 += p1
                c0 += p0
        cells.append((u, v, c2, c1, c0))
    return cells


def _random_window(rng, n_pieces):
    """Mixed affine and sqrt-affine pieces on an offset support, with shared
    breakpoints, gaps, and pieces both shorter and longer than the lattice step."""
    widths = rng.uniform(0.2, 1.0, n_pieces) * rng.choice([1.0, 30.0], n_pieces, p=[0.9, 0.1])
    gaps = rng.uniform(0.0, 0.5, n_pieces) * (rng.random(n_pieces) < 0.2)
    ends = rng.uniform(-3, 3) + np.concatenate([[0.0], np.cumsum(widths + gaps)])
    pieces = []
    for lo, hi, gap in zip(ends, ends[1:], gaps):
        hi = hi - gap
        if rng.random() < 0.5:
            pieces.append((float(lo), float(hi), "affine", float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))))
        else:
            # radicand alpha x + beta positive on the piece
            alpha = float(rng.uniform(-1, 1))
            beta = float(abs(alpha) * max(abs(lo), abs(hi)) + rng.uniform(0.1, 2))
            pieces.append((float(lo), float(hi), "sqrt-affine", alpha, beta))
    return PiecewiseGenerator(pieces)


def test_closed_form_cells_bitwise_match_the_all_pairs_loop(rng):
    cases = []
    for _ in range(60):
        gen = _random_window(rng, int(rng.integers(1, 12)))
        # a lattice step from far below a piece's width to beyond the support
        cases.append((gen, gen.support_length * 10.0 ** rng.uniform(-2.5, 0.3)))
    cases.append((TENT, 0.5))
    cases.append((SQRT_RAMP, 1.0))
    big = _random_window(rng, 1200)
    cases.append((big, big.support_length / 37.3))
    for gen, a in cases:
        got, want = gabor._periodized_quadratic_cells(gen, a), _reference_periodized_cells(gen, a)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert all(type(value) is float for cell in got for value in cell)


def _lattice_atom(gen, a, b, m, n, xs):
    """The lattice atom ``exp(2 pi i m b x) g(x - n a)`` sampled at ``xs``."""
    return np.exp(2j * math.pi * m * b * xs) * gen(xs - n * a)


def test_painless_energy_ratio_brackets_bounds():
    # discretized analysis-energy check: sum over |m| <= 64 of |<f, atom>|^2
    # relative to ||f||^2 stays inside the certified bound interval
    grid = 2**12
    for gen, a, b, center in ((SQRT_RAMP, 1.0, 0.5, 1.0), (TENT, 0.5, 1.0, 0.5)):
        est = estimate_bounds(gen, LatticeParams(a, b))
        span_lo, span_hi = gen.support_lo - 2.5, gen.support_hi + 2.5
        xs = np.linspace(span_lo, span_hi, grid, endpoint=False)
        h = xs[1] - xs[0]
        f = np.exp(-6.0 * (xs - center) ** 2)
        norm_sq = h * float(np.sum(np.abs(f) ** 2))
        n_range = range(
            math.floor((span_lo - gen.support_hi) / a), math.ceil((span_hi - gen.support_lo) / a) + 1
        )
        energy = 0.0
        for m in range(-64, 65):
            for n in n_range:
                atom = _lattice_atom(gen, a, b, m, n, xs)
                coeff = h * np.sum(f * np.conj(atom))
                energy += abs(coeff) ** 2
        ratio = energy / norm_sq
        assert est.lower * (1 - 0.05) <= ratio <= est.upper * (1 + 0.05)


# --- group-to-lattice map -----------------------------------------------------


def test_wh_map_sqrt_ramp_parameters():
    lattice = wh_to_gabor(WHParams(P=1, Q=0, p0=math.pi, q0=-1))
    assert lattice.a == pytest.approx(1.0)
    assert lattice.b == pytest.approx(0.5)


def test_wh_map_tent_parameters():
    lattice = wh_to_gabor(WHParams(P=1, Q=0, p0=2 * math.pi, q0=0.5))
    assert lattice.a == pytest.approx(0.5)
    assert lattice.b == pytest.approx(1.0)


def test_wh_params_validation():
    with pytest.raises(DegenerateLatticeError):
        WHParams(P=0, Q=0, p0=1, q0=1)
    with pytest.raises(DegenerateLatticeError):
        WHParams(P=1, Q=0, p0=4, q0=2)  # |p0 q0| >= 2 pi
    with pytest.raises(DegenerateLatticeError):
        wh_to_gabor(WHParams(P=1, Q=0, p0=0, q0=1))


def _coefficient_modulus_residual(gen, wh, xs, f, m, n):
    """``| |<f, group atom>| - |<f, lattice atom>| |`` by one rectangle rule on ``xs``.

    The group atom ``phase(m, n) exp(i P m p0 x) g(x + n q0)`` has a
    unimodular phase; its lattice partner on :func:`wh_to_gabor`'s lattice
    sits at ``(sign(P p0) m, -sign(q0) n)``.  ``xs`` is a uniform grid that
    covers both atoms' support.
    """
    lattice = wh_to_gabor(wh)
    phase = cmath.exp(1j * (wh.P * m * n * wh.p0 * wh.q0 / 2.0 + wh.Q * m * wh.p0))
    assert abs(phase) == pytest.approx(1.0, rel=1e-14)
    group = phase * np.exp(1j * wh.P * m * wh.p0 * xs) * gen(xs + n * wh.q0)
    m2 = m if wh.P * wh.p0 > 0 else -m
    n2 = n if wh.q0 < 0 else -n
    atom = _lattice_atom(gen, lattice.a, lattice.b, m2, n2, xs)
    h = xs[1] - xs[0]
    return abs(abs(h * np.sum(f * np.conj(group))) - abs(h * np.sum(f * np.conj(atom))))


def test_modulus_check_zero_indices(rng):
    wh = WHParams(P=1, Q=0, p0=math.pi, q0=-1)
    xs = np.linspace(-2, 4, 3001)
    f = np.exp(-((xs - 1) ** 2)) * (1 + 0.3j)
    assert _coefficient_modulus_residual(SQRT_RAMP, wh, xs, f, 0, 0) == pytest.approx(0, abs=1e-15)


@pytest.mark.parametrize(
    "wh",
    [
        WHParams(P=1, Q=0, p0=math.pi, q0=-1),
        WHParams(P=1, Q=0, p0=2 * math.pi, q0=0.5),
        WHParams(P=-1.5, Q=0.7, p0=1.1, q0=0.9),
    ],
)
def test_modulus_check_at_random_indices(wh, rng):
    gen = SQRT_RAMP
    xs = np.linspace(-8, 10, 8001)
    z = rng.standard_normal(xs.size) + 1j * rng.standard_normal(xs.size)
    f = z * np.exp(-0.5 * (xs - 1) ** 2)
    scale = max(1.0, float(np.linalg.norm(f)))
    for m, n in [(1, 1), (2, -3), (-1, 4), (0, 2)]:
        residual = _coefficient_modulus_residual(gen, wh, xs, f, m, n)
        assert residual <= 1e-12 * scale


def test_modulus_check_zero_signal():
    wh = WHParams(P=1, Q=0, p0=math.pi, q0=-1)
    xs = np.linspace(-2, 4, 1001)
    assert _coefficient_modulus_residual(SQRT_RAMP, wh, xs, np.zeros_like(xs), 1, 1) == 0.0


# --- documents ------------------------------------------------------------------


@st.composite
def gabor_documents(draw):
    """A ``gabor`` document of 1-6 affine and sqrt-affine pieces, with gaps and
    shared breakpoints, at finite position and amplitude scales up to 1e+-300,
    on a ``lattice`` or ``wh`` form whose lattice needs at most 64 shift terms,
    with or without ``stated_bounds``."""
    scale = 10.0 ** draw(st.integers(-300, 300))
    amplitude = 10.0 ** draw(st.sampled_from([-300, -150, -8, 0, 8, 150, 300]))
    lo = draw(st.floats(-4, 4)) * scale
    pieces = []
    for _ in range(draw(st.integers(1, 6))):
        hi = lo + draw(st.floats(0.05, 2)) * scale
        kind = draw(st.sampled_from(["affine", "sqrt-affine"]))
        # values at the ends: the radicand's, from 0, on sqrt-affine pieces, and
        # of either sign on affine ones
        sign = 1.0 if kind == "sqrt-affine" else draw(st.sampled_from([-1.0, 1.0]))
        v0, v1 = (sign * draw(st.floats(0 if sign > 0 else 0.05, 2)) * amplitude for _ in range(2))
        alpha = (v1 - v0) / (hi - lo)
        pieces.append({"lo": lo, "hi": hi, "kind": kind, "alpha": alpha, "beta": v0 - alpha * lo})
        lo = hi + draw(st.sampled_from([0.0, 0.0, 0.1, 1.5])) * scale
    length = pieces[-1]["hi"] - pieces[0]["lo"]
    # (L/a + 1) (2 L b + 1) <= 11 * 5.8 shift terms; b L <= 1 is the painless path
    a = length * draw(st.floats(0.1, 1.5))
    painless = draw(st.booleans())
    b = draw(st.floats(0.05, 0.99) if painless else st.floats(1.01, 2.4)) / length
    doc = {"kind": "gabor", "label": "fuzz", "generator": {"pieces": pieces}}
    if draw(st.booleans()):
        doc["lattice"] = {"a": a, "b": b}
    else:
        P = draw(st.sampled_from([-2.5, -1.0, 1.0, 3.0]))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        doc["wh"] = {"P": P, "Q": draw(st.floats(-1, 1)), "p0": 2.0 * math.pi * b / P * sign, "q0": -sign * a}
    if draw(st.booleans()):
        doc["stated_bounds"] = sorted(draw(st.floats(1e-300, 1e300)) for _ in range(2))
    return doc


@settings(max_examples=150, deadline=2000)
@given(doc=gabor_documents())
def test_gabor_documents_raise_only_toolkit_errors(doc):
    try:
        spec = parse_spec_text(json.dumps(doc))
    except (SpecParseError, SpecSchemaError):
        return
    try:
        result = run_experiment(spec)
    except FrameToolkitError:
        return
    # a run that completes reports finite bounds in order
    estimate = json.loads(result.report_json())["estimate"]
    assert 0.0 < estimate["lower"] <= estimate["upper"] < math.inf
    assert result.status in ("pass", "flagged")
