"""Frame-bound estimation for lattice systems of a compactly supported window.

The system under study is ``{exp(2 pi i m b x) g(x - n a)}`` over integer
``(m, n)`` for a real window ``g`` built from affine and sqrt-affine pieces.
Two periodic auxiliary functions drive the estimate on one period ``[0, a]``:

* :func:`translate_energy` -- ``sum_n |g(x - n a)|^2``;
* :func:`shift_overlap_sum` -- ``sum_{k != 0} |sum_n g(x - n a) g(x - n a - k/b)|``.

The estimated lower and upper bounds are ``inf (energy - overlap) / b`` and
``sup (energy + overlap) / b``.  When the support is short enough that no
``k/b`` shift can overlap (length <= 1/b) the overlap term vanishes
identically, the squared window is piecewise polynomial of degree <= 2, and
the extrema come out in closed form; the estimate is then exact (the system's
frame operator is a multiplication operator).  Otherwise the extrema are taken
on a dense grid with one local refinement pass and flagged as approximate.

The grid path works on sorted points, so that every set of points where
something is nonzero is one contiguous slice found by ``searchsorted``: a
piece's points inside the window, a translate's points inside the support,
and a shifted translate's points inside the support again.  Each translate
is evaluated once per point set, on its support slice, for both energy and
overlap, and each ``k/b`` product only where both factors can be nonzero;
refinement is one pass, both windows in one point set.  Every point gets the
same operations in the same ascending ``n`` and ``k`` order, and every skipped
term is an exact zero added to a partial sum that starts at +0, so a point's
sums are bitwise those of the full double sum, whatever points share its set.

Evaluation is in place, into arrays each call allocates for itself: a piece's
formula is computed in its slice of the window's output, and each square and
each product is added into its slice of the partial sum.  Writing a ufunc's
result into ``out=`` rounds the same IEEE operation on the same operands as
the expression that would allocate it, and a product is the same in either
order, so no bit of a result depends on this; it only saves the temporaries
and the copies into place.  Nothing the caller passed is ever written.

Group-generated families ``phase * exp(i P m p0 x) g(x + n q0)`` map onto the
lattice system above (see :func:`wh_to_gabor`): the phases are unimodular, so
coefficient magnitudes agree index by index once signs are absorbed into the
index map.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateLatticeError,
    DimensionMismatchError,
    EmptySupportError,
    NonPositiveLowerBoundError,
    NumericRangeError,
)
from .linalg import as_points, read_reals

#: fallback grid: points per period for the non-vanishing-overlap case.
GRID_RESOLUTION = 2**14

#: points used by the local refinement pass around a coarse extremum.
REFINE_POINTS = 257

#: relative slack when deciding that support length <= 1/b: the test is
#: ``length * b <= 1 + OVERLAP_SLACK``, so a dilated window gets the same answer.
OVERLAP_SLACK = 1e-12

_KINDS = ("affine", "sqrt-affine")


@dataclass(frozen=True)
class Piece:
    """One half-open piece ``[lo, hi)`` of a generator.

    ``affine`` means ``g(x) = alpha x + beta``; ``sqrt-affine`` means
    ``g(x) = sqrt(alpha x + beta)`` (the radicand must be nonnegative on the
    closed piece).
    """

    lo: float
    hi: float
    kind: str
    alpha: float
    beta: float

    def __post_init__(self):
        read_reals(self, ("lo", "hi", "alpha", "beta"), ValueError, "piece field {} must be a finite real, got {!r}")
        if not self.lo < self.hi:
            raise ValueError(f"piece needs lo < hi, got [{self.lo}, {self.hi})")
        if self.kind not in _KINDS:
            raise ValueError(f"piece kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "sqrt-affine":
            for x in (self.lo, self.hi):
                if not _radicand_within_slack(self.alpha, self.beta, x):
                    raise ValueError(
                        f"sqrt-affine radicand is negative at x={x}: {self.alpha}*x+{self.beta}"
                    )

    def squared_coefficients(self) -> tuple[float, float, float]:
        """Coefficients ``(c2, c1, c0)`` of ``g(x)^2`` on this piece."""
        if self.kind == "affine":
            return (self.alpha * self.alpha, 2.0 * self.alpha * self.beta, self.beta * self.beta)
        return (0.0, self.alpha, self.beta)


def _radicand_within_slack(alpha: float, beta: float, x: float) -> bool:
    """Whether ``alpha x + beta >= -4 eps (|alpha x| + |beta|)``, decided exactly.

    The slack is relative to the radicand's own terms: it admits the rounding
    of decimal input, such as ``sqrt(0.3 - 0.1 x)`` at ``x = 3``, and it gives
    the same answer after ``alpha`` and ``beta`` are multiplied by a power of
    two (:meth:`PiecewiseGenerator.scaled`).  Every float is an integer over a
    power of two, so the test runs on integers and nothing rounds or underflows.
    """
    (na, da), (nx, dx), (nb, db) = alpha.as_integer_ratio(), x.as_integer_ratio(), beta.as_integer_ratio()
    d = max(da * dx, db)  # the least common multiple of two powers of two
    ax, b = na * nx * (d // (da * dx)), nb * (d // db)
    return (ax + b) << 50 >= -(abs(ax) + abs(b))  # 4 eps = 2**-50


def _sorted_points(x):
    """``(points, order, shape)``: ``x``, read by ``linalg.as_points``, as a nondecreasing 1-d float array.

    Nondecreasing 1-d input is used as it is (``order`` is None); anything
    else is flattened and sorted stably, NaN last.  :func:`_in_input_order`
    puts values computed on ``points`` back in the order and ``shape`` of ``x``.
    """
    xs = as_points(x)
    if xs.ndim == 1 and (xs[1:] >= xs[:-1]).all():
        return xs, None, xs.shape
    flat = xs.ravel()
    order = np.argsort(flat, kind="stable")
    return flat[order], order, xs.shape


def _in_input_order(values, order, shape):
    if not shape:
        return float(values[0])
    if order is None:
        return values
    out = np.empty_like(values)
    out[order] = values
    return out.reshape(shape)


class PiecewiseGenerator:
    """Compactly supported real window assembled from sorted disjoint pieces."""

    __slots__ = ("_pieces", "_ends")

    def __init__(self, pieces):
        coerced = [piece if isinstance(piece, Piece) else Piece(*piece) for piece in pieces]
        if not coerced:
            raise EmptySupportError("generator needs at least one piece")
        coerced.sort(key=lambda p: p.lo)
        for left, right in zip(coerced, coerced[1:]):
            if right.lo < left.hi:
                raise ValueError(
                    f"pieces overlap: [{left.lo}, {left.hi}) and [{right.lo}, {right.hi})"
                )
        self._pieces = tuple(coerced)
        # row 0 holds every piece's lo, row 1 its hi
        self._ends = np.array([[p.lo for p in coerced], [p.hi for p in coerced]])

    @property
    def pieces(self) -> tuple:
        return self._pieces

    @property
    def support_lo(self) -> float:
        return self._pieces[0].lo

    @property
    def support_hi(self) -> float:
        return self._pieces[-1].hi

    @property
    def support_length(self) -> float:
        return self.support_hi - self.support_lo

    def __call__(self, x):
        """``g(x)``: a float for scalar ``x``, else an array of ``x``'s shape.

        On sorted points (see :func:`_sorted_points`) one ``searchsorted`` of
        the piece ends finds every piece's points ``lo <= x < hi`` as one
        contiguous slice, and the piece's formula is computed in place in that
        slice of a fresh output.  Only the pieces between the smallest and the
        largest point are looked at, so a call costs the same for a window of
        one piece or of many.  Points in no piece, NaN and +-inf give 0.
        """
        points, order, shape = _sorted_points(x)
        out = np.zeros(points.shape)
        if points.size:
            # sorted disjoint pieces: those that can hold a point run from the
            # first with hi above the smallest point to the last with lo at or
            # below the largest (NaN sorts last and widens the range, harmlessly)
            lo_row, hi_row = self._ends
            first, last = bisect_right(hi_row, points[0]), bisect_right(lo_row, points[-1])
            starts, stops = points.searchsorted(self._ends[:, first:last]).tolist()
            for piece, start, stop in zip(self._pieces[first:last], starts, stops):
                if start == stop:
                    continue
                segment = out[start:stop]
                np.multiply(piece.alpha, points[start:stop], out=segment)
                segment += piece.beta
                if piece.kind == "sqrt-affine":
                    np.maximum(segment, 0.0, out=segment)
                    np.sqrt(segment, out=segment)
        return _in_input_order(out, order, shape)

    def scaled(self, factor: float) -> "PiecewiseGenerator":
        """A window with ``|factor|`` times the amplitude on sqrt-affine pieces and
        ``factor`` times on affine ones; only the magnitude matters for bounds."""
        pieces = []
        for p in self._pieces:
            if p.kind == "affine":
                pieces.append(Piece(p.lo, p.hi, p.kind, factor * p.alpha, factor * p.beta))
            else:
                pieces.append(
                    Piece(p.lo, p.hi, p.kind, factor**2 * p.alpha, factor**2 * p.beta)
                )
        return PiecewiseGenerator(pieces)

    def __repr__(self) -> str:
        return f"PiecewiseGenerator({len(self._pieces)} pieces on [{self.support_lo}, {self.support_hi}))"


@dataclass(frozen=True)
class LatticeParams:
    """Translation step ``a`` and modulation step ``b`` (both positive)."""

    a: float
    b: float

    def __post_init__(self):
        read_reals(self, ("a", "b"), DegenerateLatticeError, "{} must be a finite positive real, got {!r}")
        for name, value in (("a", self.a), ("b", self.b)):
            if not value > 0.0:
                raise DegenerateLatticeError(f"{name} must be a finite positive real, got {value}")


def _shift_range(gen: PiecewiseGenerator, a: float, x_min: float, x_max: float):
    """Integer shifts n with g(x - n a) possibly nonzero for some x in [x_min, x_max]."""
    n_lo = math.floor((x_min - gen.support_hi) / a)
    n_hi = math.ceil((x_max - gen.support_lo) / a)
    return range(n_lo, n_hi + 1)


def _support_slice(gen: PiecewiseGenerator, points) -> list[int]:
    """``[start, stop]`` of the sorted ``points`` inside ``[support_lo, support_hi)``."""
    return points.searchsorted((gen.support_lo, gen.support_hi)).tolist()


class Translates(NamedTuple):
    """The translates of :func:`evaluate_translates`, which both sums consume.

    ``terms`` holds ``(start, segment, values)`` in ascending ``n``: ``segment``
    is ``x - n a`` on the translate's support slice of the sorted ``points``,
    which begins at ``start``, and ``values`` the window there.  ``order`` and
    ``shape`` put sums over ``points`` back in the order and shape of ``x``.
    """

    gen: PiecewiseGenerator
    points: np.ndarray
    order: np.ndarray | None
    shape: tuple
    terms: tuple


def evaluate_translates(gen: PiecewiseGenerator, a: float, x) -> Translates:
    """Every translate ``g(x - n a)`` evaluated once, on its support slice only.

    The slice is where the sorted ``x - n a`` lies in the support, found by
    ``searchsorted``.  Translates that meet no point, or are 0 on every point
    they meet, are left out: each of their terms is an exact 0 in both sums.
    A NaN or infinite point, which sorts to an end, is a :class:`DimensionMismatchError`.
    """
    if not a > 0.0:
        raise DegenerateLatticeError(f"translation step must be positive, got {a}")
    points, order, shape = _sorted_points(x)
    ends = (float(points[0]), float(points[-1])) if points.size else ()
    if not all(map(math.isfinite, ends)):
        raise DimensionMismatchError("points must be finite")
    terms = []
    for n in _shift_range(gen, a, *ends) if ends else ():
        shifted = points - n * a
        start, stop = _support_slice(gen, shifted)
        if start < stop:
            values = gen(shifted[start:stop])
            if values.any():
                terms.append((start, shifted[start:stop], values))
    return Translates(gen, points, order, shape, tuple(terms))


def translate_energy(translates: Translates):
    """``sum_n g(x - n a)^2`` -- a finite sum thanks to compact support.

    Takes the translates from :func:`evaluate_translates` and evaluates
    nothing itself; the result is a float for scalar ``x``, else of ``x``'s shape.
    """
    total = np.zeros(translates.points.shape)
    for start, _, values in translates.terms:
        part = total[start:start + values.size]
        part += values * values
    return _in_input_order(total, translates.order, translates.shape)


def overlap_vanishes(gen: PiecewiseGenerator, b: float) -> bool:
    """Support arithmetic: no k/b shift can overlap when length <= 1/b."""
    return gen.support_length * b <= 1.0 + OVERLAP_SLACK


def _shift_can_overlap(gen: PiecewiseGenerator, shift: float) -> bool:
    """Whether ``g(u) g(u - shift)`` can be nonzero for some float ``u``.

    ``g(u) != 0`` needs ``lo <= u < hi``, and rounding is monotone, so the
    computed ``u - shift`` then lies in ``[fl(lo - shift), fl(hi - shift)]``.
    When that interval misses ``[lo, hi)`` the product is exactly 0 for every
    ``u``.  The test is made on the rounded endpoints themselves, so it needs
    no slack and never drops a term that floating point could make nonzero.
    """
    lo, hi = gen.support_lo, gen.support_hi
    return lo - shift < hi and hi - shift >= lo


def shift_overlap_sum(translates: Translates, b: float):
    """``sum_{k != 0} |sum_n g(x - n a) g(x - n a - k/b)|``.

    Returns exactly zero when the support is too short for any nonzero shift
    to overlap.  Otherwise only terms that can be nonzero are evaluated:

    * ``n`` runs over the translates of :func:`evaluate_translates`, each
      already evaluated on its support slice and reused for every ``k``;
    * ``k`` runs over the shifts with ``|k|/b`` short enough for the support
      and its shift to meet (:func:`_shift_can_overlap`), which on the usual
      lattices is ``k = +-1`` only;
    * each product ``g(x - n a) g(x - n a - k/b)`` is taken only on the part
      of the support slice where ``x - n a - k/b`` lies in the support again,
      which ``searchsorted`` finds as one subslice, since shifting sorted
      points by a constant keeps them sorted.

    Each point gets the same operations as in the full double sum, in the
    same ascending ``k`` and ``n`` order.  Every skipped product has a factor
    that is exactly 0, and adding +-0 to a partial sum that starts at +0
    changes nothing, so the result is bitwise the full double sum.  It is a
    float for scalar ``x``, else an array of ``x``'s shape.
    """
    if not b > 0.0:
        raise DegenerateLatticeError(f"modulation step must be positive, got {b}")
    gen = translates.gen
    total = np.zeros(translates.points.shape)
    if overlap_vanishes(gen, b):
        return _in_input_order(total, translates.order, translates.shape)
    k_max = math.ceil(gen.support_length * b) + 1
    for k in range(-k_max, k_max + 1):
        shift = k / b
        if k == 0 or not _shift_can_overlap(gen, shift):
            continue
        inner = np.zeros(total.shape)
        for start, segment, values in translates.terms:
            moved = segment - shift
            lo, hi = _support_slice(gen, moved)
            if lo < hi:
                product = gen(moved[lo:hi])
                np.multiply(values[lo:hi], product, out=product)
                part = inner[start + lo:start + hi]
                part += product
        total += np.absolute(inner, out=inner)
    return _in_input_order(total, translates.order, translates.shape)


def _periodized_quadratic_cells(gen: PiecewiseGenerator, a: float):
    """Cells ``(u, v, c2, c1, c0)`` partitioning ``[0, a]``.

    On each cell the periodization ``sum_n g(x - n a)^2`` equals the single
    quadratic ``c2 x^2 + c1 x + c0``: the sum of the contributions, one per
    translate and piece, whose clipped interval ``[start, end)`` holds the
    cell's midpoint, added in list order (ascending ``n``, then piece).

    Work is proportional to the contributions and the cells they cover, not
    to translates times pieces or contributions times cells:

    * for each translate, bisection of the sorted piece ends skips the pieces
      that cannot meet ``[0, a]``: those with ``hi + n a <= 0``, which is
      exactly ``hi <= -n a``, and those with ``lo + n a >= a``, found from the
      rounded ``a - n a`` with one piece of margin; the clip test still
      decides every piece that is left;
    * a contribution covers the cells whose midpoints lie in ``[start, end)``,
      a contiguous run found by bisection of the sorted midpoints, and is
      added to that run with one slice add.  Going over the contributions in
      list order gives every cell the same additions in the same order,
      starting from +0, as summing its own contributions one by one, so every
      coefficient is bitwise that sum.
    """
    # cuts within a few rounding errors of ``end + n a``, which grow with ``n a`` out to
    # the support's ends, are one cut; a piece any wider than that keeps its cell
    reach = max(abs(gen.support_lo), abs(gen.support_hi))
    if reach > 1e6 * a:
        raise DegenerateLatticeError(f"{gen} lies over 1e6 lattice steps of {a} from the origin")
    tolerance = 16 * 2**-52 * max(a, reach)
    lo_list, hi_list = gen._ends.tolist()
    spans, coefficients = [], []
    cuts = {0.0, a}
    for n in _shift_range(gen, a, 0.0, a):
        na = n * a
        first, last = bisect_right(hi_list, -na), bisect_left(lo_list, a - na) + 1
        for piece in gen.pieces[first:last]:
            start = max(piece.lo + na, 0.0)
            end = min(piece.hi + na, a)
            if end - start <= 0.0:
                continue
            c2, c1, c0 = piece.squared_coefficients()
            # substitute x - na into the squared-piece polynomial
            spans.append((start, end))
            coefficients.append((c2, c1 - 2.0 * c2 * na, c2 * na * na - c1 * na + c0))
            cuts.add(start)
            cuts.add(end)
    merged = []
    for cut in sorted(cuts):
        if merged and cut - merged[-1] <= tolerance:
            continue
        merged.append(cut)
    mids = [0.5 * (u + v) for u, v in zip(merged, merged[1:])]
    sums = np.zeros((len(mids), 3))
    for (start, end), row in zip(spans, np.array(coefficients)):
        first, stop = bisect_left(mids, start), bisect_left(mids, end)
        if first < stop:
            sums[first:stop] += row
    return [(u, v, *coefficient) for u, v, coefficient in zip(merged, merged[1:], sums.tolist())]


def _quadratic_extrema(u, v, c2, c1, c0):
    def value(x):
        return (c2 * x + c1) * x + c0

    candidates = [value(u), value(v)]
    if c2 != 0.0:
        vertex = -c1 / (2.0 * c2)
        if u < vertex < v:
            candidates.append(value(vertex))
    return min(candidates), max(candidates)


@dataclass(frozen=True)
class GaborBoundEstimate:
    """Estimated frame bounds for the lattice system of one window.

    ``exact`` is set when the overlap term vanishes identically; the bounds
    are then the optimal ones.  Otherwise ``grid_resolution`` records the
    sampling density behind the reported extrema.
    """

    lower: float
    upper: float
    g1_identically_zero: bool
    exact: bool
    grid_resolution: int | None = None


def _grid_extrema(gen: PiecewiseGenerator, params: LatticeParams):
    """``inf (G0 - G1)`` and ``sup (G0 + G1)`` on the grid, each refined once.

    Each translate is evaluated once per point set, for both ``G0`` and ``G1``:
    on the coarse grid, then on both refinement windows in one pass.
    """
    a, b = params.a, params.b
    step = a / GRID_RESOLUTION

    def g0_g1(points):
        translates = evaluate_translates(gen, a, points)
        return translate_energy(translates), shift_overlap_sum(translates, b)

    g0, g1 = g0_g1(np.arange(GRID_RESOLUTION) * step)
    low_values = g0 - g1
    high_values = g0 + g1
    i_min = int(low_values.argmin())
    i_max = int(high_values.argmax())
    starts = [max(0.0, (i - 1) * step) for i in (i_min, i_max)]
    stops = [min(a, (i + 1) * step) for i in (i_min, i_max)]
    # one row per window, rows end to end: the minimum's window, then the maximum's
    g0, g1 = g0_g1(np.linspace(starts, stops, REFINE_POINTS, axis=1).ravel())
    lo = min(float(low_values[i_min]), float((g0 - g1)[:REFINE_POINTS].min()))
    hi = max(float(high_values[i_max]), float((g0 + g1)[REFINE_POINTS:].max()))
    return lo, hi


def _estimate(gen: PiecewiseGenerator, params: LatticeParams) -> tuple[float, float]:
    """``(inf (G0 - G1) / b, sup (G0 + G1) / b)``: closed form or grid, as the overlap decides."""
    if overlap_vanishes(gen, params.b):
        lows, highs = zip(*(_quadratic_extrema(*cell) for cell in _periodized_quadratic_cells(gen, params.a)))
        return min(lows) / params.b, max(highs) / params.b
    lo, hi = _grid_extrema(gen, params)
    return lo / params.b, hi / params.b


def _peak(gen: PiecewiseGenerator) -> float:
    """The window's largest magnitude; each piece is monotone, so it lies at a piece end."""
    ends = [(p, p.alpha * x + p.beta) for p in gen.pieces for x in (p.lo, p.hi)]
    return max(math.sqrt(max(v, 0.0)) if p.kind == "sqrt-affine" else abs(v) for p, v in ends)


def estimate_bounds(gen: PiecewiseGenerator, params: LatticeParams) -> GaborBoundEstimate:
    """Frame-bound estimate ``(inf (G0 - G1) / b, sup (G0 + G1) / b)`` over one period.

    Exact closed-form extrema in the vanishing-overlap case; dense grid plus
    one refinement pass otherwise.  Raises :class:`NumericRangeError` when the
    upper bound overflows or the lower one underflows, and
    :class:`NonPositiveLowerBoundError` when the lower one is not positive,
    which supports no frame conclusion.

    A lower estimate that is not positive is computed again on the window
    scaled up by the power of two that brings its peak near 1, at most
    ``2**511`` (sqrt-affine radicands scale by its square).  That multiplies
    every computed value exactly, so a positive result means an underflow here.
    """
    vanishes = overlap_vanishes(gen, params.b)
    lower, upper = _estimate(gen, params)
    if not math.isfinite(upper):
        raise NumericRangeError(f"upper estimate {upper:.6g} overflowed the floating-point range")
    if not lower > 0.0:
        exponent = min(-math.frexp(_peak(gen))[1], 511)
        try:
            scaled = gen.scaled(2.0**exponent) if exponent > 0 else None
        except ValueError:  # a coefficient that overflows when scaled
            scaled = None
        if scaled is not None and _estimate(scaled, params)[0] > 0.0:
            raise NumericRangeError(f"lower estimate underflowed: positive on the window times 2^{exponent}")
        raise NonPositiveLowerBoundError(f"lower estimate {lower:.6g} is not positive; no frame conclusion")
    return GaborBoundEstimate(lower, upper, vanishes, vanishes, None if vanishes else GRID_RESOLUTION)


@dataclass(frozen=True)
class WHParams:
    """Group parameters: representation pair ``(P, Q)`` and lattice seeds ``(p0, q0)``.

    Requires ``P != 0`` and ``|p0 q0| < 2 pi``.
    """

    P: float
    Q: float
    p0: float
    q0: float

    def __post_init__(self):
        read_reals(self, ("P", "Q", "p0", "q0"), DegenerateLatticeError, "{} must be a finite real, got {!r}")
        if self.P == 0.0:
            raise DegenerateLatticeError("P must be nonzero")
        if abs(self.p0 * self.q0) >= 2.0 * math.pi:
            raise DegenerateLatticeError(
                f"|p0 q0| = {abs(self.p0 * self.q0):.6g} must stay below 2 pi"
            )


def wh_to_gabor(wh: WHParams) -> LatticeParams:
    """Map group parameters to the lattice ``(a, b) = (|q0|, |P p0| / 2 pi)``.

    The group element at index ``(m, n)`` acts on a window ``g`` as
    ``phase(m, n) * exp(i P m p0 x) * g(x + n q0)`` with a unimodular phase,
    which is the plain lattice atom ``exp(2 pi i m' b x) g(x - n' a)`` at
    ``(m', n') = (sign(P p0) m, -sign(q0) n)`` up to that phase.  So the
    group family and the lattice family have the same coefficient magnitudes
    index by index, and the same frame bounds.
    """
    if wh.p0 == 0.0 or wh.q0 == 0.0:
        raise DegenerateLatticeError("p0 and q0 must be nonzero")
    return LatticeParams(abs(wh.q0), abs(wh.P * wh.p0) / (2.0 * math.pi))
