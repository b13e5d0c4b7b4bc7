import math

import numpy as np
import pytest

from conftest import random_frame
from framesum import (
    AlgoConfig,
    FiniteFrame,
    FrameBounds,
    InvalidBoundsError,
    InvalidBoundsForFrameError,
    build_sum_frame,
    compare_runs,
    exact_bounds,
    format_width,
    random_unit_vector,
    run,
    width_report,
)

RT2, RT3, RT6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)
BASE_C2 = FiniteFrame([[RT6, RT6], [0, 2], [2, 0]])
DIAG_C2 = FiniteFrame([[0, 3], [RT3, 0], [RT3, 0]])
TIGHT_C2 = FiniteFrame([[2, 0], [0, RT2], [0, RT2]])


def test_rejects_invalid_bound_pairs():
    with pytest.raises(InvalidBoundsForFrameError):
        run(AlgoConfig(frame=BASE_C2, bounds_used=FrameBounds(5, 16)), [1, 0])
    with pytest.raises(InvalidBoundsForFrameError):
        run(AlgoConfig(frame=BASE_C2, bounds_used=FrameBounds(4, 15)), [1, 0])


def test_accepts_valid_loose_pair():
    records = run(AlgoConfig(frame=BASE_C2, bounds_used=FrameBounds(2, 32), max_iters=10), [1, 0])
    assert len(records) == 11


def test_start_record_is_target_norm(rng):
    phi = 3.0 * random_unit_vector(rng, 2)
    records = run(AlgoConfig(frame=BASE_C2, bounds_used=FrameBounds(4, 16), max_iters=5), phi)
    assert records[0].iteration == 0
    assert records[0].error == pytest.approx(3.0, rel=1e-12)
    assert records[0].envelope == records[0].error


def test_tight_frame_converges_in_one_step(rng):
    phi = random_unit_vector(rng, 2)
    records = run(AlgoConfig(frame=TIGHT_C2, bounds_used=FrameBounds(4, 4)), phi)
    assert records[1].error <= 1e-12
    assert len(records) == 2  # stopped immediately


def test_envelope_dominates_base_frame(rng):
    config = AlgoConfig(frame=BASE_C2, bounds_used=FrameBounds(4, 16), max_iters=50, stop_tol=0.0)
    for _ in range(20):
        phi = random_unit_vector(rng, 2)
        for record in run(config, phi):
            assert record.error <= record.envelope * (1 + 1e-9)


def test_sum_frame_run_beats_published_width(rng):
    # weighted-sum frame driven by its oracle bounds: the error stays under
    # the quoted 0.3453 rate with room to spare
    summed = build_sum_frame((BASE_C2, DIAG_C2), np.array([1.0, 100.0]))
    bounds = exact_bounds(summed).bounds
    phi = random_unit_vector(rng, 2)
    records = run(AlgoConfig(frame=summed, bounds_used=bounds, max_iters=60), phi)
    for record in records[1:]:
        assert record.error <= 0.3453 ** record.iteration * (1 + 1e-9)


def test_contraction_per_step(rng):
    for _ in range(6):
        dim = int(rng.integers(2, 9))
        frame = random_frame(rng, dim + 2, dim)
        bounds = exact_bounds(frame).bounds
        delta = bounds.width
        phi = random_unit_vector(rng, dim)
        records = run(AlgoConfig(frame=frame, bounds_used=bounds, max_iters=50), phi)
        for prev, cur in zip(records, records[1:]):
            assert cur.error <= delta * prev.error * (1 + 1e-9) + 1e-15


def test_envelope_dominance_random_frames(rng):
    for _ in range(6):
        dim = int(rng.integers(2, 9))
        frame = random_frame(rng, dim + 3, dim)
        bounds = exact_bounds(frame).bounds
        phi = random_unit_vector(rng, dim)
        for record in run(AlgoConfig(frame=frame, bounds_used=bounds, max_iters=50), phi):
            assert record.error <= record.envelope * (1 + 1e-9) + 1e-15


def test_oracle_bounds_give_smallest_width(rng):
    frame = random_frame(rng, 6, 3)
    oracle = exact_bounds(frame).bounds
    loose = FrameBounds(oracle.lower / 2, oracle.upper * 2)
    assert oracle.width <= loose.width
    phi = random_unit_vector(rng, 3)
    tight_records = run(AlgoConfig(frame=frame, bounds_used=oracle, max_iters=25, stop_tol=0.0), phi)
    loose_records = run(AlgoConfig(frame=frame, bounds_used=loose, max_iters=25, stop_tol=0.0), phi)
    for a, b in zip(tight_records[1:], loose_records[1:]):
        assert a.envelope <= b.envelope * (1 + 1e-12)


def test_compare_runs_single_matches_run(rng):
    phi = random_unit_vector(rng, 2)
    config = AlgoConfig(frame=BASE_C2, bounds_used=FrameBounds(4, 16), max_iters=12)
    table = compare_runs([config], [phi], labels=["only"])
    direct = run(config, phi)
    assert table.header == ["k", "err_only", "env_only"]
    assert len(table.series[0].records) == len(direct)
    for got, want in zip(table.series[0].records, direct):
        assert got.error == want.error
        assert got.envelope == want.envelope


def test_compare_runs_envelope_ordering(rng):
    summed = build_sum_frame((BASE_C2, DIAG_C2), np.array([1.0, 100.0]))
    configs = [
        AlgoConfig(frame=BASE_C2, bounds_used=FrameBounds(4, 16), max_iters=30, stop_tol=0.0),
        AlgoConfig(frame=summed, bounds_used=exact_bounds(summed).bounds, max_iters=30, stop_tol=0.0),
    ]
    targets = [random_unit_vector(rng, 2), random_unit_vector(rng, 2)]
    table = compare_runs(configs, targets, labels=["base", "sum"])
    rows = table.rows()
    assert rows[0][0] == 0
    for row in rows[1:]:
        env_base, env_sum = row[2], row[4]
        assert env_sum <= env_base


def test_compare_runs_pads_short_series(rng):
    configs = [
        AlgoConfig(frame=TIGHT_C2, bounds_used=FrameBounds(4, 4), max_iters=30),
        AlgoConfig(frame=BASE_C2, bounds_used=FrameBounds(4, 16), max_iters=30, stop_tol=0.0),
    ]
    targets = [random_unit_vector(rng, 2), random_unit_vector(rng, 2)]
    table = compare_runs(configs, targets)
    rows = table.rows()
    assert len(rows) == 31
    assert rows[-1][1] is None  # tight run stopped after one step
    assert rows[-1][3] is not None


def test_compare_runs_length_mismatch(rng):
    config = AlgoConfig(frame=BASE_C2, bounds_used=FrameBounds(4, 16))
    with pytest.raises(Exception):
        compare_runs([config], [])


def test_width_report_reference_values():
    report = width_report(
        [
            ("operator", (24961 / 6400, 6561 / 1600)),
            ("perturbed", (193 / 4, 81)),
            ("tight", (7, 7)),
            ("dual_g", (7 / 8, 3)),
        ]
    )
    assert [entry.text for entry in report] == ["0.0250", "0.2533", "0.0000", "0.5483"]
    assert report[0].width == pytest.approx(1283 / 51205, rel=1e-12)


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
