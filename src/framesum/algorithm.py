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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, InvalidBoundsError, InvalidBoundsForFrameError
from .frames import FiniteFrame, FrameBounds, as_frame_bounds, exact_bounds, frame_operator

#: relative slack when validating a bound pair against the oracle eigenvalues.
BOUNDS_CHECK_TOLERANCE = 1e-9

DEFAULT_MAX_ITERS = 200

#: default stopping tolerance as a fraction of the target norm.
STOP_TOL_FACTOR = 1e-12


@dataclass(frozen=True)
class AlgoConfig:
    """One reconstruction run: a frame, the bound pair driving the relaxation,
    an iteration cap, and an optional absolute stopping tolerance (``None``
    means ``STOP_TOL_FACTOR`` times the target norm)."""

    frame: FiniteFrame
    bounds_used: FrameBounds
    max_iters: int = DEFAULT_MAX_ITERS
    stop_tol: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "bounds_used", as_frame_bounds(self.bounds_used))
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.stop_tol is not None and self.stop_tol < 0.0:
            raise ValueError("stop_tol must be nonnegative")


@dataclass(frozen=True)
class ConvergenceRecord:
    """Error and theoretical envelope at one iteration index."""

    iteration: int
    error: float
    envelope: float


def validate_bounds_for_frame(frame: FiniteFrame, bounds: FrameBounds) -> None:
    """Check ``lower <= lambda_min`` and ``upper >= lambda_max`` (with slack)."""
    cert = exact_bounds(frame)
    lo, hi = cert.bounds.lower, cert.bounds.upper
    if bounds.lower > lo * (1.0 + BOUNDS_CHECK_TOLERANCE) or bounds.upper < hi * (
        1.0 - BOUNDS_CHECK_TOLERANCE
    ):
        raise InvalidBoundsForFrameError(
            f"pair ({bounds.lower}, {bounds.upper}) is not valid for a frame with "
            f"optimal bounds ({lo}, {hi})"
        )


def run(config: AlgoConfig, target) -> list[ConvergenceRecord]:
    """Run the reconstruction and return per-iteration error/envelope records.

    Record 0 is the starting state (error equals the target norm).  Iteration
    stops at ``max_iters`` or as soon as the error reaches the stopping
    tolerance.
    """
    phi = linalg.as_cvector(target)
    if phi.shape[0] != config.frame.dim:
        raise DimensionMismatchError(
            f"target has length {phi.shape[0]}, frame dimension is {config.frame.dim}"
        )
    validate_bounds_for_frame(config.frame, config.bounds_used)

    s = frame_operator(config.frame)
    bounds = config.bounds_used
    relaxation = 2.0 / (bounds.lower + bounds.upper)
    delta = bounds.width
    norm_phi = float(np.linalg.norm(phi))
    stop_tol = config.stop_tol if config.stop_tol is not None else STOP_TOL_FACTOR * norm_phi

    # Track the residual r_k = target - psi_k through its own recursion
    # r_k = r_{k-1} - relaxation * S r_{k-1}: same algebra as updating psi,
    # but round-off stays proportional to the shrinking residual instead of
    # to ||target||, so measured errors do not lift off the envelope once
    # they approach machine precision.
    residual = phi.copy()
    records = [ConvergenceRecord(0, norm_phi, norm_phi)]
    for k in range(1, config.max_iters + 1):
        residual = residual - relaxation * (s @ residual)
        error = float(np.linalg.norm(residual))
        records.append(ConvergenceRecord(k, error, delta**k * norm_phi))
        if error <= stop_tol:
            break
    return records


@dataclass(frozen=True)
class RunSeries:
    label: str
    width: float
    records: tuple


@dataclass(frozen=True)
class ComparisonTable:
    """Aligned-by-iteration table of (error, envelope) columns, one per run."""

    series: tuple

    @property
    def header(self) -> list[str]:
        columns = ["k"]
        for s in self.series:
            columns.extend([f"err_{s.label}", f"env_{s.label}"])
        return columns

    def rows(self):
        """Rows padded with ``None`` where a run stopped early."""
        depth = max(len(s.records) for s in self.series)
        out = []
        for k in range(depth):
            row = [k]
            for s in self.series:
                if k < len(s.records):
                    row.extend([s.records[k].error, s.records[k].envelope])
                else:
                    row.extend([None, None])
            out.append(row)
        return out


def compare_runs(configs, targets, labels=None) -> ComparisonTable:
    """Run several configurations independently and align their records by k."""
    configs = list(configs)
    targets = list(targets)
    if len(configs) != len(targets):
        raise DimensionMismatchError(
            f"{len(configs)} configurations but {len(targets)} targets"
        )
    if labels is None:
        labels = [f"run{i + 1}" for i in range(len(configs))]
    labels = [str(lbl) for lbl in labels]
    if len(labels) != len(configs):
        raise DimensionMismatchError(f"{len(configs)} configurations but {len(labels)} labels")
    series = []
    for config, target, label in zip(configs, targets, labels):
        records = run(config, target)
        series.append(RunSeries(label=label, width=config.bounds_used.width, records=tuple(records)))
    return ComparisonTable(series=tuple(series))


def format_width(delta: float) -> str:
    """Render a width truncated (not rounded) to four decimal places.

    Truncation toward zero matches the reference rendering of values such as
    1283/51205 -> ``0.0250`` and 17/31 -> ``0.5483``; a one-part-in-1e13 guard
    keeps exactly-representable values like 0.6 from slipping a digit.
    """
    if not (math.isfinite(delta) and delta >= 0.0):
        raise InvalidBoundsError(f"width must be finite and nonnegative, got {delta}")
    truncated = math.floor(delta * 1e4 + 1e-9) / 1e4
    return f"{truncated:.4f}"


@dataclass(frozen=True)
class WidthEntry:
    label: str
    width: float
    text: str


def width_report(entries) -> list[WidthEntry]:
    """Widths for labelled bound pairs, with the four-decimal rendering."""
    out = []
    for label, bounds in entries:
        delta = as_frame_bounds(bounds).width
        out.append(WidthEntry(label=str(label), width=delta, text=format_width(delta)))
    return out
