import cmath
import math
from collections import Counter

import numpy as np
import pytest

import framesum.gabor as gabor
from framesum import (
    DegenerateLatticeError,
    LatticeParams,
    NonPositiveLowerBoundError,
    PiecewiseGenerator,
    WHParams,
    estimate_bounds,
    overlap_vanishes,
    shift_overlap_sum,
    translate_energy,
    wh_to_gabor,
)

# the four reference windows
SQRT_RAMP = PiecewiseGenerator(
    [(0, 1, "sqrt-affine", 2, 0), (1, 2, "sqrt-affine", 4, -2)]
)
TENT = PiecewiseGenerator([(0, 0.5, "affine", 2, 0), (0.5, 1, "affine", -4, 4)])
TWO_SIDED_RAMP = PiecewiseGenerator([(0, 1, "affine", 1, -1), (1, 2, "affine", -1, 1)])
HALF_SLOPE = PiecewiseGenerator(
    [(0, 1, "affine", 0.5, 0), (1, 2, "sqrt-affine", -0.25, 0.75)]
)


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
    assert translate_energy(SQRT_RAMP, 1.0, 0.5) == pytest.approx(5.0, rel=1e-14)
    assert translate_energy(SQRT_RAMP, 1.0, 0.0) == pytest.approx(2.0, rel=1e-14)


def test_translate_energy_outside_periodized_support():
    gen = PiecewiseGenerator([(0, 1, "affine", 0, 1)])
    assert translate_energy(gen, 3.0, 2.0) == 0.0


def test_translate_energy_two_sided_ramp():
    assert translate_energy(TWO_SIDED_RAMP, 1.0, 0.5) == pytest.approx(0.5, rel=1e-14)


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
            _assert_same_bits(translate_energy(gen, a, x), _reference_energy(gen, a, x))
        _assert_same_bits(translate_energy(gen, a, float(xs[0])), float(_reference_energy(gen, a, xs[:1])[0]))


def test_translate_energy_periodicity(rng):
    xs = rng.uniform(0, 1, size=64)
    for gen, a in ((SQRT_RAMP, 1.0), (TENT, 0.5), (HALF_SLOPE, 1.0)):
        base = translate_energy(gen, a, xs)
        shifted = translate_energy(gen, a, xs + a)
        np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)


# --- overlap term ----------------------------------------------------------------


def test_overlap_short_circuit_sqrt_ramp():
    # support length 2 equals 1/b for b = 1/2: no overlap
    assert overlap_vanishes(SQRT_RAMP, 0.5)
    xs = np.linspace(0, 1, 11)
    np.testing.assert_array_equal(shift_overlap_sum(SQRT_RAMP, 1.0, 0.5, xs), np.zeros(11))


def test_overlap_short_circuit_tent():
    assert overlap_vanishes(TENT, 1.0)
    assert shift_overlap_sum(TENT, 0.5, 1.0, 0.3) == 0.0


def test_overlap_positive_for_long_support():
    wide = PiecewiseGenerator([(0, 3, "affine", 0, 1)])
    assert not overlap_vanishes(wide, 1.0)
    assert shift_overlap_sum(wide, 1.0, 1.0, 0.5) > 0.0


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
    low = translate_energy(SQRT_RAMP, 1, xs) - shift_overlap_sum(SQRT_RAMP, 1, 0.6, xs)
    high = translate_energy(SQRT_RAMP, 1, xs) + shift_overlap_sum(SQRT_RAMP, 1, 0.6, xs)
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
    """Coarse grid plus one refinement per extremum, as :func:`estimate_bounds`
    does, on the reference objective."""
    step = a / gabor.GRID_RESOLUTION
    xs = np.arange(gabor.GRID_RESOLUTION) * step

    def low(points):
        return translate_energy(gen, a, points) - _reference_overlap_sum(gen, a, b, points)

    def high(points):
        return translate_energy(gen, a, points) + _reference_overlap_sum(gen, a, b, points)

    def refine(index, objective):
        left = max(0.0, (index - 1) * step)
        right = min(a, (index + 1) * step)
        return objective(np.linspace(left, right, gabor.REFINE_POINTS))

    low_values, high_values = low(xs), high(xs)
    i_min, i_max = int(np.argmin(low_values)), int(np.argmax(high_values))
    lo = min(float(low_values[i_min]), float(refine(i_min, low).min()))
    hi = max(float(high_values[i_max]), float(refine(i_max, high).max()))
    return lo, hi


def _random_overlap_case(rng, bl=None):
    """A continuous positive window of 1-6 mixed pieces on an offset support,
    and a lattice with ``b L = bl``; by default ``b L`` is an integer on a
    third of the draws."""
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
    if bl is None:
        bl = int(rng.integers(2, 4)) if rng.random() < 1 / 3 else rng.uniform(1.05, 3.2)
    return gen, a, bl / gen.support_length


def test_overlap_sum_bitwise_matches_full_double_sum(rng):
    for _ in range(80):
        gen, a, b = _random_overlap_case(rng)
        assert not overlap_vanishes(gen, b)
        start = rng.uniform(-4, 4)
        xs = rng.uniform(start, start + a * rng.uniform(0.05, 2.5), 200)  # unsorted
        for x in (xs, xs.reshape(8, 25)):
            _assert_same_bits(shift_overlap_sum(gen, a, b, x), _reference_overlap_sum(gen, a, b, x))
        point = float(xs[0])
        assert shift_overlap_sum(gen, a, b, point) == float(
            _reference_overlap_sum(gen, a, b, xs[:1])[0]
        )


def test_grid_estimate_bitwise_matches_full_double_sum(rng):
    positive = 0
    for bl in (1.1, 1.25, 1.4, 1.55, 2, 2.4, 3):
        gen, a, b = _random_overlap_case(rng, bl)
        lo, hi = _reference_grid_extrema(gen, a, b)
        assert gabor._grid_extrema(gen, LatticeParams(a, b)) == (lo, hi)
        if lo / b > 0.0:
            est = estimate_bounds(gen, LatticeParams(a, b))
            assert (est.lower, est.upper) == (lo / b, hi / b)
            assert not est.exact
            positive += 1
        else:
            with pytest.raises(NonPositiveLowerBoundError):
                estimate_bounds(gen, LatticeParams(a, b))
    assert positive > 0


def test_grid_path_evaluates_each_point_set_once(monkeypatch):
    # one coarse grid plus one refinement window per extremum
    calls = Counter()
    for name in ("translate_energy", "shift_overlap_sum"):

        def counted(*args, _name=name, _original=getattr(gabor, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(gabor, name, counted)
    estimate_bounds(SQRT_RAMP, LatticeParams(1, 0.6))
    assert calls == {"translate_energy": 3, "shift_overlap_sum": 3}


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
    values = translate_energy(gen, a, xs)
    step = a / coarse
    results = []
    for want_min in (True, False):
        i = int(np.argmin(values) if want_min else np.argmax(values))
        window = np.linspace(max(0.0, (i - 1) * step), min(a, (i + 1) * step), fine)
        local = translate_energy(gen, a, window)
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
        if merged and cut - merged[-1] <= 1e-12 * max(1.0, a):
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
