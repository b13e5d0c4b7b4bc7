import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import random_frame
from framesum import (
    ComparisonTable,
    FiniteFrame,
    FrameBounds,
    InvalidBoundsError,
    InvalidBoundsForFrameError,
    build_sum_frame,
    exact_bounds,
    format_width,
    run,
)
from framesum.algorithm import NORM_BLOCK, STOP_TOL_FACTOR
from framesum.frames import frame_operator, random_unit_vector

RT2, RT3, RT6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)
BASE_C2 = FiniteFrame([[RT6, RT6], [0, 2], [2, 0]])
DIAG_C2 = FiniteFrame([[0, 3], [RT3, 0], [RT3, 0]])
TIGHT_C2 = FiniteFrame([[2, 0], [0, RT2], [0, RT2]])


def test_rejects_invalid_bound_pairs():
    with pytest.raises(InvalidBoundsForFrameError):
        run(BASE_C2, FrameBounds(5, 16), [1, 0], 200)
    with pytest.raises(InvalidBoundsForFrameError):
        run(BASE_C2, FrameBounds(4, 15), [1, 0], 200)


def test_rejects_an_empty_iteration_cap_and_a_negative_tolerance():
    with pytest.raises(ValueError, match="max_iters must be positive"):
        run(BASE_C2, FrameBounds(4, 16), [1, 0], 0)
    with pytest.raises(ValueError, match="stop_tol must be nonnegative"):
        run(BASE_C2, FrameBounds(4, 16), [1, 0], 10, stop_tol=-1.0)
    assert len(run(BASE_C2, FrameBounds(4, 16), [1, 0], 1, stop_tol=0.0)) == 2


def test_accepts_valid_loose_pair():
    series = run(BASE_C2, FrameBounds(2, 32), [1, 0], 10)
    assert len(series) == 11


def test_start_record_is_target_norm(rng):
    phi = 3.0 * random_unit_vector(rng, 2)
    series = run(BASE_C2, FrameBounds(4, 16), phi, 5)
    assert len(series.errors) == len(series.envelopes) == 6  # entry k is iteration k
    assert series.errors[0] == pytest.approx(3.0, rel=1e-12)
    assert series.envelopes[0] == series.errors[0]


def test_tight_frame_converges_in_one_step(rng):
    phi = random_unit_vector(rng, 2)
    series = run(TIGHT_C2, FrameBounds(4, 4), phi, 200)
    assert series.errors[1] <= 1e-12
    assert len(series) == 2  # stopped immediately


def test_envelope_dominates_base_frame(rng):
    for _ in range(20):
        phi = random_unit_vector(rng, 2)
        series = run(BASE_C2, FrameBounds(4, 16), phi, 50, stop_tol=0.0)
        for error, envelope in zip(series.errors, series.envelopes):
            assert error <= envelope * (1 + 1e-9)


def test_sum_frame_run_beats_published_width(rng):
    # weighted-sum frame driven by its oracle bounds: the error stays under
    # the quoted 0.3453 rate with room to spare
    summed = build_sum_frame((BASE_C2, DIAG_C2), np.array([1.0, 100.0]))
    bounds = exact_bounds(summed)
    phi = random_unit_vector(rng, 2)
    series = run(summed, bounds, phi, 60)
    for k, error in enumerate(series.errors[1:], start=1):
        assert error <= 0.3453**k * (1 + 1e-9)


def test_contraction_per_step(rng):
    for _ in range(6):
        dim = int(rng.integers(2, 9))
        frame = random_frame(rng, dim + 2, dim)
        bounds = exact_bounds(frame)
        delta = bounds.width
        phi = random_unit_vector(rng, dim)
        errors = run(frame, bounds, phi, 50).errors
        for prev, cur in zip(errors, errors[1:]):
            assert cur <= delta * prev * (1 + 1e-9) + 1e-15


def test_envelope_dominance_random_frames(rng):
    for _ in range(6):
        dim = int(rng.integers(2, 9))
        frame = random_frame(rng, dim + 3, dim)
        bounds = exact_bounds(frame)
        phi = random_unit_vector(rng, dim)
        series = run(frame, bounds, phi, 50)
        for error, envelope in zip(series.errors, series.envelopes):
            assert error <= envelope * (1 + 1e-9) + 1e-15


def test_oracle_bounds_give_smallest_width(rng):
    frame = random_frame(rng, 6, 3)
    oracle = exact_bounds(frame)
    loose = FrameBounds(oracle.lower / 2, oracle.upper * 2)
    assert oracle.width <= loose.width
    phi = random_unit_vector(rng, 3)
    tight = run(frame, oracle, phi, 25, stop_tol=0.0)
    loose_run = run(frame, loose, phi, 25, stop_tol=0.0)
    for a, b in zip(tight.envelopes[1:], loose_run.envelopes[1:]):
        assert a <= b * (1 + 1e-12)



def _allocating_run(frame, bounds, target, max_iters, stop_tol):
    """The iteration as ``r - relaxation * (S @ r)`` with ``numpy.linalg.norm``,
    one new vector per step: the reference the in-place loop must match bit for bit."""
    phi = np.asarray(target, dtype=complex)
    s = frame_operator(frame)
    relaxation = 2.0 / (bounds.lower + bounds.upper)
    norm_phi = float(np.linalg.norm(phi))
    stop_tol = stop_tol if stop_tol is not None else STOP_TOL_FACTOR * norm_phi
    residual = phi.copy()
    errors, envelopes = [norm_phi], [norm_phi]
    for k in range(1, max_iters + 1):
        residual = residual - relaxation * (s @ residual)
        error = float(np.linalg.norm(residual))
        errors.append(error)
        envelopes.append(bounds.width**k * norm_phi)
        if error <= stop_tol:
            break
    return errors, envelopes


B = NORM_BLOCK
# a slowly converging run: loosened bounds on a non-tight frame, so the cap or
# a chosen tolerance ends it, not a stop forced by the frame
_SLOW = dict(seed=5, dim=6, extra=3, log_scale=0.0, loosen=(1e3, 7.0), tight=False, zero_target=False)


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 16),
    extra=st.integers(0, 4),
    log_scale=st.floats(-3, 3),
    loosen=st.sampled_from([None, (1.0, 1.0), (2.0, 1.5), (1e3, 7.0)]),
    tight=st.booleans(),
    zero_target=st.booleans(),
    max_iters=st.integers(1, 300),
    stop=st.one_of(st.sampled_from([None, 0.0]), st.integers(1, 3 * B)),
)
# the iteration cap on either side of a norm block's end
@example(**_SLOW, max_iters=1, stop=0.0)
@example(**_SLOW, max_iters=B - 1, stop=0.0)
@example(**_SLOW, max_iters=B, stop=0.0)
@example(**_SLOW, max_iters=B + 1, stop=0.0)
@example(**_SLOW, max_iters=2 * B + 1, stop=0.0)
# a stop on the first row of the first and of the second block, and on the
# last row of a block, one row before it and one past it
@example(**_SLOW, max_iters=300, stop=1)
@example(**_SLOW, max_iters=300, stop=B + 1)
@example(**_SLOW, max_iters=300, stop=B)
@example(**_SLOW, max_iters=300, stop=2 * B)
@example(**_SLOW, max_iters=300, stop=B - 1)
# a zero target: error 0 after one step, also with a zero tolerance
@example(**{**_SLOW, "zero_target": True}, max_iters=300, stop=0.0)
@example(**{**_SLOW, "zero_target": True}, max_iters=300, stop=None)
def test_in_place_run_matches_the_allocating_loop_bit_for_bit(
    seed, dim, extra, log_scale, loosen, tight, zero_target, max_iters, stop
):
    """``stop`` is the stopping tolerance (``None`` for the default) or, as an
    int, an iteration count whose reference error becomes the tolerance."""
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    if tight:
        # an orthonormal basis: S = scale^2 I, width 0, one step reaches the target
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        frame = FiniteFrame(scale * q)
    else:
        frame = random_frame(rng, dim + extra, dim)
        frame = FiniteFrame(scale * frame.vectors)
    bounds = exact_bounds(frame)
    if loosen is not None:
        bounds = FrameBounds(bounds.lower / loosen[0], bounds.upper * loosen[1])
    target = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    if zero_target:
        target = np.zeros(dim, dtype=complex)
    stop_tol = stop
    if isinstance(stop, int):
        reference = _allocating_run(frame, bounds, target, stop, 0.0)[0]
        stop_tol = reference[-1]
    before = target.copy()

    series = run(frame, bounds, target, max_iters, stop_tol)
    errors, envelopes = _allocating_run(frame, bounds, target, max_iters, stop_tol)

    assert len(series) == len(errors) == len(series.envelopes)
    assert series.errors == errors
    assert series.envelopes == envelopes
    assert np.array_equal(target, before)  # the in-place update works on its own copy
    if (tight and loosen is None and stop is None) or zero_target:
        assert len(series) == 2
    if isinstance(stop, int) and len(reference) == stop + 1 and all(np.diff(reference) < 0):
        # strictly decreasing errors first reach the tolerance at iteration ``stop``
        assert len(series) == min(stop, max_iters) + 1


def _table(labelled_runs) -> ComparisonTable:
    """A table of ``(label, series)`` pairs, labelled as ``algo`` documents label their runs."""
    return ComparisonTable(*zip(*labelled_runs))


def test_compare_runs_single_matches_run(rng):
    phi = random_unit_vector(rng, 2)
    table = _table([("only", run(BASE_C2, FrameBounds(4, 16), phi, 12))])
    direct = run(BASE_C2, FrameBounds(4, 16), phi, 12)
    assert table.header == ["k", "err_only", "env_only"]
    assert len(table.series[0]) == len(direct)
    assert table.series[0].errors == direct.errors
    assert table.series[0].envelopes == direct.envelopes


def test_compare_runs_envelope_ordering(rng):
    summed = build_sum_frame((BASE_C2, DIAG_C2), np.array([1.0, 100.0]))
    targets = [random_unit_vector(rng, 2), random_unit_vector(rng, 2)]
    table = _table([
        ("base", run(BASE_C2, FrameBounds(4, 16), targets[0], 30, stop_tol=0.0)),
        ("sum", run(summed, exact_bounds(summed), targets[1], 30, stop_tol=0.0)),
    ])
    rows = table.rows()
    assert rows[0][0] == 0
    for row in rows[1:]:
        env_base, env_sum = row[2], row[4]
        assert env_sum <= env_base


def test_compare_runs_pads_short_series(rng):
    targets = [random_unit_vector(rng, 2), random_unit_vector(rng, 2)]
    table = _table([
        ("run1", run(TIGHT_C2, FrameBounds(4, 4), targets[0], 30)),
        ("run2", run(BASE_C2, FrameBounds(4, 16), targets[1], 30, stop_tol=0.0)),
    ])
    rows = table.rows()
    assert len(rows) == 31
    assert rows[-1][1] is None  # tight run stopped after one step
    assert rows[-1][3] is not None


def test_width_report_reference_values():
    # the operator, perturbed, tight and dual_g entries of the width fixture
    pairs = [(24961 / 6400, 6561 / 1600), (193 / 4, 81), (7, 7), (7 / 8, 3)]
    widths = [FrameBounds(*pair).width for pair in pairs]
    assert [format_width(w) for w in widths] == ["0.0250", "0.2533", "0.0000", "0.5483"]
    assert widths[0] == pytest.approx(1283 / 51205, rel=1e-12)


def test_format_width_truncates_not_rounds():
    assert format_width(0.60) == "0.6000"
    assert format_width(0.75) == "0.7500"
    assert format_width(1283 / 51205) == "0.0250"
    assert format_width(131 / 517) == "0.2533"
    assert format_width(17 / 31) == "0.5483"
    assert format_width(99 / 253) == "0.3913"
    assert format_width(92428 / 267636) == "0.3453"
    with pytest.raises(InvalidBoundsError):
        format_width(float("nan"))
