"""Iterative frame reconstruction with a width-controlled convergence envelope.

Given a frame with a valid bound pair ``(A, B)`` and frame operator ``S``, the
iteration

    ``psi_0 = 0,  psi_k = psi_{k-1} + (2 / (A + B)) S (target - psi_{k-1})``

converges to ``target`` and the error obeys
``||target - psi_k|| <= width^k ||target||`` with
``width = (B - A) / (B + A)``.  Tighter bound pairs mean smaller widths and
faster envelopes, which is the whole point of feeding this algorithm bounds
coming from sums of frames.

The bound pair is validated against the spectral oracle before a single
iteration runs; a silently invalid pair would void the convergence guarantee.

Each iteration writes its residual into the next row of a block buffer,
through one view of that row, made with the buffer, which the next iteration
reads; the errors of a whole block are evaluated at once after it:
``sqrt(vecdot(re, re) + vecdot(im, im))`` on the real and imaginary views of
the block's rows.  ``numpy.vecdot`` makes, row by row, the same BLAS ``ddot``
call on the same strided view that ``re.dot(re)`` makes on one vector, and the
square root is correctly rounded in numpy as in :mod:`math`, so every error is
bitwise the norm of the single residual.  The first block is ``NORM_BLOCK``
iterations long.  Each later block is sized from the contraction its
predecessor measured: from the errors ``e0`` entering and ``e1`` leaving a
block of ``count`` iterations, the tolerance lies about
``count * log(stop_tol / e1) / log(e1 / e0)`` iterations further, and the next
block is that many plus ``NORM_MARGIN``, at most ``NORM_BLOCK_CAP``.  So a
long run takes its norms in a few long blocks, and the block that reaches the
tolerance ends close to it.  The schedule only decides how many iterations run
before their norms are taken, never what an iteration or a norm computes.  A
block can still run past the stopping tolerance; the series is cut at the
first error that reaches it, and the iterations after it are discarded.

A run's trajectory is kept as columns, unnamed: a list of errors and a list
of envelopes, indexed by the iteration count.  :class:`ComparisonTable` aligns
the columns of several runs, named by its ``labels``, for the CSV, and
:func:`format_width` renders a width as the reports quote it.  The table's
:func:`itertools.zip_longest` pads a run with ``None`` only after it stops, so
the CSV has one row format per stretch of live runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, InvalidBoundsError, InvalidBoundsForFrameError
from .frames import FiniteFrame, FrameBounds, as_frame_bounds, brackets, exact_bounds, frame_operator

#: iterations in the first block of residuals whose norms are evaluated together.
NORM_BLOCK = 32

#: most iterations in one block, taken when a block measured no contraction
#: or when the tolerance is 0 and the run ends only at ``max_iters``.
NORM_BLOCK_CAP = 256

#: iterations added to a block's predicted distance to the tolerance, and so
#: the fewest a later block runs: a prediction a few short costs a whole block.
NORM_MARGIN = 2

#: default stopping tolerance as a fraction of the target norm.
STOP_TOL_FACTOR = 1e-12


@dataclass(frozen=True)
class RunSeries:
    """One run's trajectory as columns: ``errors[k]`` and ``envelopes[k]`` after
    ``k`` iterations, with the width that drove it."""

    width: float
    errors: list
    envelopes: list

    def __len__(self) -> int:
        return len(self.errors)


def validate_bounds_for_frame(frame: FiniteFrame, bounds: FrameBounds) -> None:
    """Check ``lower <= lambda_min`` and ``upper >= lambda_max`` (with slack)."""
    optimal = exact_bounds(frame)
    if not brackets(bounds, optimal):
        raise InvalidBoundsForFrameError(
            f"pair ({bounds.lower}, {bounds.upper}) is not valid for a frame with "
            f"optimal bounds ({optimal.lower}, {optimal.upper})"
        )


def run(frame: FiniteFrame, bounds, target, max_iters: int, stop_tol: float | None = None) -> RunSeries:
    """Reconstruct ``target`` on ``frame``, relaxed by the bound pair ``bounds``,
    and return the run's error and envelope columns.

    Entry ``k`` of ``errors`` and ``envelopes`` belongs to iteration ``k``;
    entry 0 is the starting state (error equals the target norm), so the
    result's ``len`` is the number of iterations plus one.  Iteration stops
    after ``max_iters`` (at least 1) iterations or as soon as the error reaches
    ``stop_tol``, an absolute tolerance that defaults to ``STOP_TOL_FACTOR``
    times the target norm.  The series has no name; a
    :class:`ComparisonTable` takes its label beside it.

    Norms are evaluated a block of iterations at a time, at most
    ``max_iters`` in all: a first block of ``NORM_BLOCK``, then blocks sized
    from the contraction each block measured (see the module docstring).  They
    use the same BLAS dot products and the same correctly rounded square root
    as ``numpy.linalg.norm`` of each residual, so every error is bitwise the
    one-at-a-time value.  Iterations a block computes past the first error at
    or below the tolerance are discarded.
    """
    bounds = as_frame_bounds(bounds)
    try:
        max_iters = linalg.as_index(max_iters)
    except TypeError:
        raise ValueError(f"max_iters must be an integer, got {max_iters!r}") from None
    if max_iters < 1:
        raise ValueError("max_iters must be positive")
    if stop_tol is not None:
        try:
            stop_tol = linalg.as_real(stop_tol)
        except TypeError:
            raise ValueError(f"stop_tol must be a real number, got {stop_tol!r}") from None
        except ValueError:  # NaN, +-inf or an integer beyond the float range
            stop_tol = math.nan
        if not stop_tol >= 0.0:
            raise ValueError("stop_tol must be nonnegative and finite")
    phi = linalg.as_carray(target, 1)
    if phi.shape[0] != frame.dim:
        raise DimensionMismatchError(f"target has length {phi.shape[0]}, frame dimension is {frame.dim}")
    validate_bounds_for_frame(frame, bounds)

    s = frame_operator(frame)
    delta = bounds.width
    norm_phi = float(np.linalg.norm(phi))
    if stop_tol is None:
        stop_tol = STOP_TOL_FACTOR * norm_phi

    # Track the residual r_k = target - psi_k through its own recursion
    # r_k = r_{k-1} - relaxation * S r_{k-1}: same algebra as updating psi,
    # but round-off stays proportional to the shrinking residual instead of
    # to ||target||, so measured errors do not lift off the envelope once
    # they approach machine precision.  Each step runs, in the order and with
    # the operations of ``r - relaxation * (S @ r)``, three numpy calls, each
    # given its output positionally: ``s.dot`` makes the one BLAS
    # matrix-vector call that ``S @ r`` makes, the relaxation is the complex
    # 0-d array ``omega+0j`` that numpy would otherwise build from the float on
    # every multiply, and the subtraction writes r_k into the row after
    # r_{k-1} of a block buffer.  The norms of a block's rows are taken after
    # it, in one call per dot product (see the module docstring for why they
    # are bitwise those of the single vectors).
    relaxation = np.array(2.0 / (bounds.lower + bounds.upper), dtype=complex)
    multiply, subtract, vecdot = np.multiply, np.subtract, np.vecdot
    step = np.empty_like(phi)
    block = phi[np.newaxis]  # read only: the first block's buffer starts from it
    errors = [norm_phi]
    left = max_iters
    count = min(left, NORM_BLOCK)
    while True:
        if count >= len(block):
            # a longer block than any before: a buffer of count + 1 rows that
            # starts from the current residual, and one view of each row, made once
            grown = np.empty((count + 1, phi.shape[0]), dtype=complex)
            grown[0] = block[0]
            block = grown
            rows = list(block)
            steps = list(zip(rows, rows[1:]))
            re, im = block.real, block.imag
        for residual, update in steps[:count]:
            s.dot(residual, step)
            multiply(relaxation, step, step)
            subtract(residual, step, update)
        new_re, new_im = re[1:count + 1], im[1:count + 1]
        norms = np.sqrt(vecdot(new_re, new_re) + vecdot(new_im, new_im))
        hits = norms <= stop_tol
        if hits.any():
            # iterations computed past the first stop are discarded
            errors += norms[:hits.argmax() + 1].tolist()
            break
        entering = errors[-1]
        errors += norms.tolist()
        left -= count
        if not left:
            break
        block[0] = block[count]
        count = min(left, _next_block(count, entering, errors[-1], stop_tol))
    envelopes = [norm_phi * delta**k for k in range(len(errors))]
    return RunSeries(width=delta, errors=errors, envelopes=envelopes)


def _next_block(count: int, entering: float, leaving: float, stop_tol: float) -> int:
    """Iterations of the block after one of ``count`` iterations whose errors
    went from ``entering`` to ``leaving``, none of them at or below
    ``stop_tol``: the predicted distance to the tolerance at the contraction
    measured, plus ``NORM_MARGIN``, at most ``NORM_BLOCK_CAP``.  The cap when
    the block measured no contraction or the tolerance is 0, which never
    stops a run early."""
    if stop_tol > 0.0 and leaving < entering:  # so stop_tol < leaving < entering, logs of positives
        gain = math.log(leaving) - math.log(entering)
        if gain < 0.0:
            return min(NORM_BLOCK_CAP, int(count * (math.log(stop_tol) - math.log(leaving)) / gain) + NORM_MARGIN)
    return NORM_BLOCK_CAP


@dataclass(frozen=True)
class ComparisonTable:
    """Aligned-by-iteration (error, envelope) columns, one per run: ``labels[i]`` names ``series[i]``."""

    labels: tuple
    series: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.series):
            raise DimensionMismatchError(f"{len(self.labels)} labels for {len(self.series)} runs")

    @property
    def header(self) -> list[str]:
        columns = ["k"]
        for label in self.labels:
            columns.extend([f"err_{label}", f"env_{label}"])
        return columns

    def rows(self) -> list[tuple]:
        """Rows ``(k, err, env, ...)``, which ``zip_longest`` pads with ``None`` where a run stopped early."""
        depth = max((len(s) for s in self.series), default=0)
        columns = [range(depth)]
        for s in self.series:
            columns += (s.errors, s.envelopes)
        return list(zip_longest(*columns))


def format_width(delta: float) -> str:
    """Render a width truncated (not rounded) to four decimal places.

    Truncation toward zero matches the reference rendering of values such as
    1283/51205 -> ``0.0250`` and 17/31 -> ``0.5483``; a one-part-in-1e13 guard
    keeps exactly-representable values like 0.6 from slipping a digit.  A
    ``delta`` that :func:`~framesum.linalg.as_real` refuses is an :class:`InvalidBoundsError`.
    """
    try:
        width = linalg.as_real(delta)
    except (TypeError, ValueError):
        width = math.nan
    if not width >= 0.0:
        raise InvalidBoundsError(f"width must be finite and nonnegative, got {delta!r}")
    truncated = math.floor(width * 1e4 + 1e-9) / 1e4
    return f"{truncated:.4f}"

