import gc
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from framesum import NumericRangeError, SpecParseError, SpecSchemaError
from framesum.cli import bundled_fixture_names, emit_csv, load_bundled_fixture, main
from framesum.experiments import (
    _KINDS,
    DEFAULT_EXPECT_RTOL,
    MAX_ITERS,
    MAX_SHIFT_TERMS,
    parse_spec,
    parse_spec_text,
    render_spec,
    run_experiment,
)

GOLDEN_SUITE = Path(__file__).parent / "golden" / "paper_suite"


# --- parsing and schema -------------------------------------------------------


def test_bundle_is_nonempty_and_parses():
    names = bundled_fixture_names()
    assert len(names) >= 15
    for name in names:
        spec = load_bundled_fixture(name)
        assert spec.kind in {
            "bounds",
            "dual",
            "finite-sum",
            "operator-sum",
            "perturbed-sum",
            "gabor",
            "algo",
            "width",
        }


def test_round_trip_every_fixture():
    for name in bundled_fixture_names():
        spec = load_bundled_fixture(name)
        again = parse_spec_text(render_spec(spec), origin=name)
        assert again == spec


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "bounds",\n  "frame": }\n', encoding="utf-8")
    with pytest.raises(SpecParseError) as excinfo:
        parse_spec(path)
    assert excinfo.value.line == 2
    assert excinfo.value.column is not None


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "bounds", "frame": {"vectors": [[1' + "0" * 5000 + ", 0], [0, 1]]}}",
        '{"kind": "bounds", "frame": {"vectors": ' + "[" * 100_000 + "]" * 100_000 + "}}",
    ],
    ids=["integer-past-digit-limit", "nesting-past-recursion-limit"],
)
def test_parse_error_on_json_that_python_cannot_hold(tmp_path, capsys, text):
    # json.loads raises these as a plain ValueError and a RecursionError, not
    # as a JSONDecodeError
    path = tmp_path / "huge.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SpecParseError):
        parse_spec(path)
    assert main(["bounds", "--spec", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_parse_error_on_empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("", encoding="utf-8")
    with pytest.raises(SpecParseError):
        parse_spec(path)


def test_schema_rejects_unknown_kind():
    with pytest.raises(SpecSchemaError):
        parse_spec_text('{"kind": "mystery"}')


def test_schema_rejects_unknown_field():
    with pytest.raises(SpecSchemaError) as excinfo:
        parse_spec_text(
            '{"kind": "bounds", "frame": {"vectors": [[[1,0]]]}, "surprise": 1}'
        )
    assert "surprise" in str(excinfo.value)


def test_dual_trials_is_an_unknown_field(tmp_path, capsys):
    # the dual identity is checked exactly, so there is no trial count to set
    doc = load_bundled_fixture("dual_sum_c3.json").document
    path = tmp_path / "trials.json"
    path.write_text(json.dumps({**doc, "trials": 100}), encoding="utf-8")
    assert main(["dual", "--spec", str(path)]) == 1
    assert "trials: unknown field" in capsys.readouterr().err


def test_schema_rejects_zero_coefficient():
    doc = {
        "kind": "finite-sum",
        "frame_bounds": [[1, 2], [1, 2]],
        "coefficients": [[1, 0], [0, 0]],
    }
    with pytest.raises(SpecSchemaError) as excinfo:
        parse_spec_text(json.dumps(doc))
    assert "nonzero" in str(excinfo.value)


def test_schema_rejects_bad_pivot():
    doc = {
        "kind": "finite-sum",
        "frame_bounds": [[1, 2]],
        "coefficients": [[1, 0]],
        "pivot": 5,
    }
    with pytest.raises(SpecSchemaError):
        parse_spec_text(json.dumps(doc))


def test_schema_requires_exactly_one_input_style():
    doc = {
        "kind": "finite-sum",
        "coefficients": [[1, 0]],
    }
    with pytest.raises(SpecSchemaError):
        parse_spec_text(json.dumps(doc))


def test_schema_complex_scalar_shape():
    doc = {
        "kind": "finite-sum",
        "frame_bounds": [[1, 2]],
        "coefficients": [[1, 0, 0]],
    }
    with pytest.raises(SpecSchemaError):
        parse_spec_text(json.dumps(doc))


# --- experiment execution ------------------------------------------------------


def _fixture_path(tmp_path, name):
    spec = load_bundled_fixture(name)
    path = tmp_path / name
    path.write_text(render_spec(spec), encoding="utf-8")
    return path


def test_cli_finite_sum_report(tmp_path, capsys):
    path = _fixture_path(tmp_path, "finite_sum_c2.json")
    code = main(["sum", "--spec", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "87604" in out and "180032" in out
    assert "0.3453" in out
    assert "0.6000" in out
    assert "certified: yes" in out


def test_cli_kind_mismatch(tmp_path, capsys):
    path = _fixture_path(tmp_path, "finite_sum_c2.json")
    code = main(["dual", "--spec", str(path)])
    assert code == 1
    assert "expects kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fixture,command,key,value,field",
    [
        ("width_reference.json", "width", "rtol", "x", "expect.rtol"),
        ("width_reference.json", "width", "rtol", -1e-9, "expect.rtol"),
        ("width_reference.json", "width", "rtol", float("inf"), "expect.rtol"),
        ("width_reference.json", "width", "widths_4dp", 5, "expect.widths_4dp"),
        ("width_reference.json", "width", None, [], "expect"),
        ("gabor_sqrt_ramp_window.json", "gabor", "bounds", [1], "expect.bounds"),
        ("dual_sum_c3.json", "dual", "predicted", [2, 1], "expect.predicted"),
        ("dual_sum_c3.json", "dual", "sum_bounds", "x", "expect.sum_bounds"),
        ("finite_sum_c2.json", "sum", "condition_margin", None, "expect.condition_margin"),
        ("algo_finite_sum_c2.json", "algo", "envelope_order", [1, 2], "expect.envelope_order[0]"),
        ("exact_bounds_c2.json", "bounds", "tight", "yes", "expect.tight"),
        ("finite_sum_c2.json", "sum", "predicted_width_4dp", 0.3453, "expect.predicted_width_4dp"),
    ],
    ids=[
        "rtol-string",
        "rtol-negative",
        "rtol-infinite",
        "widths-scalar",
        "expect-array",
        "gabor-bounds-short",
        "predicted-reversed",
        "sum-bounds-string",
        "margin-null",
        "envelope-order-numbers",
        "tight-string",
        "predicted-width-number",
    ],
)
def test_cli_rejects_malformed_expect_at_parse_time(tmp_path, capsys, fixture, command, key, value, field):
    doc = json.loads(render_spec(load_bundled_fixture(fixture)))
    if key is None:
        doc["expect"] = value
    else:
        doc["expect"][key] = value
    path = tmp_path / fixture
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SpecSchemaError):
        parse_spec(path)
    code = main([command, "--spec", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{field}:" in err
    assert "Traceback" not in err


E2 = [[1, 0], [0, 1]]
E3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "command,doc,field",
    [
        (
            "sum",
            {"kind": "finite-sum", "frames": [{"vectors": E2}, {"vectors": E3}], "coefficients": [1, 1]},
            "frames[1].vectors",
        ),
        (
            "sum",
            {"kind": "finite-sum", "frames": [{"vectors": E2}, {"vectors": E2 + [[1, 1]]}], "coefficients": [1, 1]},
            "frames[1].vectors",
        ),
        (
            "op-sum",
            {"kind": "operator-sum", "frame1": {"vectors": E2}, "frame2": {"vectors": E2}, "theta1": E3, "theta2": E3},
            "theta1",
        ),
        (
            "op-sum",
            {
                "kind": "operator-sum",
                "frame1": {"vectors": E2},
                "frame2": {"vectors": E2 + [[1, 1]]},
                "theta1": E2,
                "theta2": E2,
            },
            "frame2.vectors",
        ),
        (
            "perturbed-sum",
            {
                "kind": "perturbed-sum",
                "frame1": {"vectors": E2},
                "frame2": {"vectors": E3[:2]},
                "alpha": [1, 1],
                "beta": [1, 1],
            },
            "frame2.vectors",
        ),
        ("dual", {"kind": "dual", "frame": {"vectors": E2}, "dual": {"vectors": E2 + [[1, 1]]}}, "dual.vectors"),
        ("dual", {"kind": "dual", "frame": {"vectors": E2}, "dual": {"vectors": E3[:2]}}, "dual.vectors"),
        ("sum", {"kind": "finite-sum", "frame_bounds": [], "coefficients": []}, "frame_bounds"),
        ("sum", {"kind": "finite-sum", "frames": [], "coefficients": []}, "frames"),
    ],
    ids=[
        "sum-dimensions",
        "sum-counts",
        "op-sum-theta-size",
        "op-sum-counts",
        "perturbed-sum-dimensions",
        "dual-counts",
        "dual-dimensions",
        "sum-no-bound-pairs",
        "sum-no-frames",
    ],
)
def test_cli_rejects_misaligned_summands_at_parse_time(tmp_path, capsys, command, doc, field):
    path = tmp_path / "misaligned.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SpecSchemaError):
        parse_spec(path)
    code = main([command, "--spec", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{field}:" in err
    assert "Traceback" not in err


HUGE = "1" + "0" * 400  # a JSON integer too large for a float


def _bounds_text(vectors: str) -> str:
    return '{"kind": "bounds", "frame": {"vectors": %s}}' % vectors


def _sum_text(kind: str, **fields: str) -> str:
    frames = '"frame1": {"vectors": [[1, 0], [0, 1]]}, "frame2": {"vectors": [[1, 0], [0, 1]]}'
    if kind == "finite-sum":
        frames = '"frames": [{"vectors": [[1, 0], [0, 1]]}, {"vectors": [[1, 0], [0, 1]]}]'
    extra = "".join(f', "{key}": {value}' for key, value in fields.items())
    return '{"kind": "%s", %s%s}' % (kind, frames, extra)


@pytest.mark.parametrize(
    "command,text,field",
    [
        ("bounds", _bounds_text("[[true, 0], [0, 1]]"), "frame.vectors[0][0]"),
        ("bounds", _bounds_text("[[[1, 0], [0, 0]], [[0, 0], [false, 1]]]"), "frame.vectors[1][1][0]"),
        ("bounds", _bounds_text('[[1, 0], [0, "1"]]'), "frame.vectors[1][1]"),
        ("bounds", _bounds_text("[[[1, 0], [0, null]], [[0, 0], [1, 0]]]"), "frame.vectors[0][1][1]"),
        ("bounds", _bounds_text("[[1, 0], [NaN, 1]]"), "frame.vectors[1][0]"),
        ("bounds", _bounds_text("[[[1, 0], [0, 0]], [[0, 0], [1, Infinity]]]"), "frame.vectors[1][1][1]"),
        ("bounds", _bounds_text("[[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]]"), "frame.vectors[0][0]"),
        ("bounds", _bounds_text("[[1, 0], [0, 1, 0]]"), "frame.vectors"),
        ("bounds", _bounds_text("[[1, 0], []]"), "frame.vectors[1]"),
        ("bounds", _bounds_text("[]"), "frame.vectors"),
        ("bounds", _bounds_text(f"[[{HUGE}, 0], [0, 1]]"), "frame.vectors[0][0]"),
        (
            "gabor",
            '{"kind": "gabor", "generator": {"pieces": [{"lo": 0, "hi": 1, "kind": "affine", "alpha": 0, '
            '"beta": 1}]}, "lattice": {"a": %s, "b": 1}}' % HUGE,
            "lattice.a",
        ),
        ("op-sum", _sum_text("operator-sum", theta1="[[1, 0], [0]]", theta2="[[1, 0], [0, 1]]"), "theta1"),
        ("perturbed-sum", _sum_text("perturbed-sum", alpha='[1, "x"]', beta="[1, 1]"), "alpha[1]"),
        ("sum", _sum_text("finite-sum", coefficients="[[1, 0], [true, 0]]"), "coefficients[1][0]"),
    ],
    ids=[
        "bare-true",
        "false-in-pair",
        "string",
        "null-in-pair",
        "nan",
        "infinity-in-pair",
        "three-element-pair",
        "ragged-vectors",
        "empty-vector",
        "empty-vectors",
        "huge-integer-entry",
        "huge-integer-scalar",
        "ragged-theta",
        "bad-alpha",
        "bad-coefficient",
    ],
)
def test_cli_rejects_malformed_numeric_entries_with_their_field_path(tmp_path, capsys, command, text, field):
    path = tmp_path / "malformed.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SpecSchemaError) as excinfo:
        parse_spec(path)
    assert excinfo.value.field == field
    code = main([command, "--spec", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{field}:" in err
    assert "Traceback" not in err


def test_cli_algo_unknown_envelope_label_fails_the_expectation(tmp_path, capsys):
    doc = json.loads(render_spec(load_bundled_fixture("algo_finite_sum_c2.json")))
    doc["expect"]["envelope_order"] = ["base", "nowhere"]
    path = tmp_path / "algo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["algo", "--spec", str(path)])
    assert code == 2
    assert "expected run labels" in capsys.readouterr().out


#: a value of the right type for each expect key; the fixture's own value wins
EXPECT_SAMPLES = {
    "bounds": [1, 2],
    "width_4dp": "0.5000",
    "tight": True,
    "parseval": True,
    "widths_4dp": ["0.5000"],
    "verify_dual": True,
    "predicted": [1, 2],
    "sum_bounds": [1, 2],
    "condition_margin": 1.0,
    "predicted_width_4dp": "0.5000",
    "certified": True,
    "exact": True,
    "envelope_order": ["base", "sum"],
    "envelope_dominates": True,
}


@pytest.mark.parametrize(
    "fixture",
    [
        "exact_bounds_c2.json",
        "dual_sum_c3.json",
        "finite_sum_c2.json",
        "operator_sum_c2.json",
        "perturbed_sum_c2.json",
        "gabor_tent_window.json",
        "algo_finite_sum_c2.json",
        "width_reference.json",
    ],
)
def test_every_expect_key_a_kind_accepts_is_observed(fixture):
    doc = json.loads(render_spec(load_bundled_fixture(fixture)))
    keys = _KINDS[doc["kind"]].expect
    doc["expect"] = {key: doc["expect"].get(key, EXPECT_SAMPLES[key]) for key in keys}
    result = run_experiment(parse_spec_text(json.dumps(doc), origin=fixture))
    assert [text for text in result.payload["failures"] if text.endswith("got None")] == []


@pytest.mark.parametrize(
    "fixture,command,key,value",
    [
        ("dual_sum_bounds_only.json", "dual", "verify_dual", True),
        ("dual_sum_bounds_only.json", "dual", "sum_bounds", [1, 2]),
        ("operator_sum_bounds_only.json", "op-sum", "certified", True),
    ],
    ids=["verify-dual-bounds-only", "sum-bounds-bounds-only", "certified-bounds-only"],
)
def test_cli_expected_value_the_run_never_computed_fails(tmp_path, capsys, fixture, command, key, value):
    doc = json.loads(render_spec(load_bundled_fixture(fixture)))
    doc["expect"][key] = value
    path = tmp_path / fixture
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, "--spec", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert f"expected {key} = " in out and "got None" in out
    assert "status: fail" in out


def test_cli_predicted_width_on_a_failing_condition_fails_the_expectation(tmp_path, capsys):
    doc = {
        "kind": "finite-sum",
        "frame_bounds": [[1, 100], [1, 100]],
        "coefficients": [1, 1],
        "pivot": 1,
        "expect": {"predicted_width_4dp": "0.5000"},
    }
    path = tmp_path / "width_of_failing.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["sum", "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    assert "expected predicted_width_4dp = '0.5000', got None" in captured.out
    assert "status: fail" in captured.out


@pytest.mark.parametrize("pivot", [1, None], ids=["pivot-1", "best-pivot"])
def test_cli_finite_sum_near_tie_writes_a_report(tmp_path, capsys, pivot):
    doc = {
        "kind": "finite-sum",
        "frame_bounds": [
            [1.1618879727492444, 2.8652124177103184],
            [1.5153373940049786, 2.2744734139026423],
            [1.6524348998531, 3.960631853380757],
            [1.7097839046220313, 4.402244425000323],
        ],
        "coefficients": [2.881990450001699, 0.25780937586148317, 0.013556738999358853, 0.2849710290522285],
    }
    if pivot is not None:
        doc["pivot"] = pivot
    path = tmp_path / "near_tie.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["sum", "--spec", str(path)])
    captured = capsys.readouterr()
    assert captured.err == ""
    if pivot is None:
        assert code == 0 and "status: pass" in captured.out
    else:
        assert code == 2
        assert "FAILS (needs margin > 0)" in captured.out
        assert "status: fail" in captured.out


@pytest.mark.parametrize(
    "command,doc",
    [
        ("bounds", {"kind": "bounds", "frame": {"vectors": [[1e200, 0], [0, 1]]}}),
        (
            "gabor",
            {
                "kind": "gabor",
                "generator": {"pieces": [{"lo": 0, "hi": 1, "kind": "affine", "alpha": 1e200, "beta": 1}]},
                "lattice": {"a": 0.5, "b": 1},
            },
        ),
        (
            # finite energy, but divided by b it passes the largest float
            "gabor",
            {
                "kind": "gabor",
                "generator": {"pieces": [{"lo": 0, "hi": 1, "kind": "affine", "alpha": 0, "beta": 1}]},
                "lattice": {"a": 0.5, "b": 1e-310},
            },
        ),
        (
            "perturbed-sum",
            {
                "kind": "perturbed-sum",
                "frame1": {"vectors": E2},
                "frame2": {"vectors": E2},
                "alpha": [1, 1],
                "beta": [1e200, 1],
            },
        ),
    ],
    ids=["bounds-frame", "gabor-alpha", "gabor-b", "perturbed-beta"],
)
def test_cli_extreme_magnitudes_exit_two_with_a_clear_error(tmp_path, capsys, command, doc):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, "--spec", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "NumericRangeError" in err and "overflowed" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


def test_cli_missing_file(capsys):
    code = main(["bounds", "--spec", "/nonexistent/nowhere.json"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["bogus"], [], ["bounds"], ["bounds", "--spec", "x.json", "--seed", "abc"]],
    ids=["unknown-command", "no-command", "missing-spec", "seed-not-an-integer"],
)
def test_cli_usage_errors_exit_one(capsys, argv):
    # 2 is the code for a failed condition or certification, not argparse's usage code
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err


@pytest.mark.parametrize("argv", [["--help"], ["sum", "--help"]])
def test_cli_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_cli_failing_condition_exits_two(tmp_path, capsys):
    doc = {
        "kind": "finite-sum",
        "label": "condition_fails",
        "frame_bounds": [[1, 100], [1, 100]],
        "coefficients": [[1, 0], [1, 0]],
        "pivot": 1,
    }
    path = tmp_path / "fails.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["sum", "--spec", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAILS" in out
    assert "  - sufficiency condition fails at pivot 1 (margin -198)\n" in out
    assert "status: fail" in out


def test_cli_eigensolver_failure_exits_two(tmp_path, capsys, monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    path = _fixture_path(tmp_path, "exact_bounds_c2.json")
    monkeypatch.setattr(np.linalg, "eigh", fail)
    code = main(["bounds", "--spec", str(path)])
    assert code == 2
    assert "NoConvergenceError" in capsys.readouterr().err


def test_bounds_experiment_solves_its_spectrum_once(eig_calls):
    for name in ("exact_bounds_c2.json", "exact_bounds_c2_diag.json"):
        eig_calls.clear()
        result = run_experiment(load_bundled_fixture(name))
        assert result.status in ("pass", "flagged")
        assert len(eig_calls) == 1, name


def test_algo_experiment_solves_each_frame_once(tmp_path, eig_calls):
    frame = {"vectors": [[1, 0], [0, 2], [1, 1]]}
    doc = {
        "kind": "algo",
        "runs": [
            {"label": "oracle", "frame": frame},
            {"label": "loose", "frame": frame, "bounds": [0.5, 10]},
        ],
    }
    path = tmp_path / "algo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["algo", "--spec", str(path), "--report", str(tmp_path / "report.txt")])
    assert code == 0
    # both runs parse to the same vectors and share one frame, whose spectrum
    # is solved once: for the oracle bounds, and reused to check the loose pair
    assert eig_calls == [(2, 2)]


def test_cli_algo_checks_the_runs_in_order(tmp_path, capsys):
    # the first run's pair is invalid; the second run's frame does not span
    doc = {
        "kind": "algo",
        "runs": [
            {"label": "bad", "frame": {"vectors": [[1, 0], [0, 1]]}, "bounds": [2, 3]},
            {"label": "flat", "frame": {"vectors": [[1, 0], [2, 0]]}, "bounds": [1, 5]},
        ],
    }
    path = tmp_path / "algo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["algo", "--spec", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "InvalidBoundsForFrameError" in err


def _gabor_doc(hi: float, a: float, b: float) -> dict:
    return {
        "kind": "gabor",
        "generator": {"pieces": [{"lo": 0, "hi": hi, "kind": "affine", "alpha": 0, "beta": 1}]},
        "lattice": {"a": a, "b": b},
    }


@pytest.mark.parametrize(
    "hi,a,b",
    [(1e9, 0.5, 1), (1, 1 / 5000, 0.5), (1, 0.5, 5000), (1, 1e-300, 0.5)],
    ids=["huge-support", "many-translates", "many-shifts", "tiny-a"],
)
def test_cli_rejects_gabor_shift_loops_beyond_the_cap(tmp_path, capsys, hi, a, b):
    # [0, 1e9) on (0.5, 1) asks for about 4e18 terms, which the loops would never finish
    path = tmp_path / "gabor.json"
    path.write_text(json.dumps(_gabor_doc(hi, a, b)), encoding="utf-8")
    code = main(["gabor", "--spec", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "generator.pieces:" in err and "shift terms" in err
    assert "Traceback" not in err


def test_gabor_shift_cap_admits_windows_up_to_it():
    # (L/a + 1)(2 L b + 1) = 100 * 100 = MAX_SHIFT_TERMS
    spec = parse_spec_text(json.dumps(_gabor_doc(1, 1 / 99, 49.5)))
    assert spec.payload[1].a == 1 / 99
    assert MAX_SHIFT_TERMS == 10_000
    with pytest.raises(SpecSchemaError) as excinfo:
        parse_spec_text(json.dumps(_gabor_doc(1, 1 / 99, 49.6)))
    assert excinfo.value.field == "generator.pieces"


def test_every_bundled_gabor_fixture_is_far_below_the_shift_cap():
    for name in bundled_fixture_names():
        spec = load_bundled_fixture(name)
        if spec.kind == "gabor":
            generator, lattice = spec.payload[:2]
            length = generator.support_length
            assert (length / lattice.a + 1) * (2 * length * lattice.b + 1) <= MAX_SHIFT_TERMS / 100, name


def test_cli_json_report(tmp_path):
    path = _fixture_path(tmp_path, "dual_sum_c3.json")
    report_path = tmp_path / "report.json"
    code = main(["dual", "--spec", str(path), "--report", str(report_path), "--json"])
    assert code == 0
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["status"] == "pass"
    assert payload["certification"]["certified"] is True
    assert payload["certification"]["slacks"][0] == pytest.approx(2.0, rel=1e-9)
    assert payload["widths_4dp"] == ["0.7500", "0.5483", "0.3913"]


def test_cli_algo_csv_columns(tmp_path):
    path = _fixture_path(tmp_path, "algo_dual_sum_c3.json")
    csv_path = tmp_path / "out.csv"
    code = main(["algo", "--spec", str(path), "--csv", str(csv_path), "--report", str(tmp_path / "r.txt")])
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,err_F,env_F,err_G,env_G,err_sum,env_sum"
    first = lines[1].split(",")
    assert first[0] == "0"
    second = lines[2].split(",")
    assert float(second[2]) == pytest.approx(0.75, rel=1e-12)  # env_F at k=1
    assert float(second[4]) == pytest.approx(17 / 31, rel=1e-12)  # env_G at k=1
    assert float(second[6]) == pytest.approx(99 / 253, rel=1e-12)  # env_sum at k=1


def test_cli_gabor_flags_discrepancy(tmp_path, capsys):
    path = _fixture_path(tmp_path, "gabor_tent_window.json")
    code = main(["gabor", "--spec", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: flagged" in out
    assert "0.8" in out
    assert "stated bounds" in out


def test_cli_width_report(tmp_path, capsys):
    path = _fixture_path(tmp_path, "width_reference.json")
    code = main(["width", "--spec", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    for text in ("0.6000", "0.7500", "0.5483", "0.3913", "0.3453", "0.0250", "0.2533"):
        assert text in out


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(["k", "err"], [], path)
    assert path.read_text(encoding="utf-8") == "k,err\n"


def test_emit_csv_tight_run(tmp_path, rng):
    from framesum import AlgoConfig, FiniteFrame, FrameBounds, compare_runs

    frame = FiniteFrame([[2, 0], [0, np.sqrt(2)], [0, np.sqrt(2)]])
    config = AlgoConfig(frame=frame, bounds_used=FrameBounds(4, 4), max_iters=20)
    table = compare_runs([config], [np.array([0.6, 0.8])], labels=["t"])
    path = tmp_path / "tight.csv"
    emit_csv(table.header, table.rows(), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,err_t,env_t"
    assert lines[1] == "0,1,1"
    k1 = lines[2].split(",")
    assert float(k1[1]) <= 1e-12
    assert float(k1[2]) == 0.0


def test_emit_csv_deterministic_bytes(tmp_path):
    rows = [[0, 1.0, 1.0], [1, 0.123456789012345, None]]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(["k", "x", "y"], rows, p1)
    emit_csv(["k", "x", "y"], rows, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text(encoding="utf-8") == "k,x,y\n0,1,1\n1,0.123456789012,\n"


def _per_cell_csv(header, rows) -> str:
    """The CSV text as rendered one cell at a time, with a function call per
    cell: the reference the column-wise writer must match byte for byte."""

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, int):
            return str(value)
        return format(float(value), ".12g")

    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(cell(c) for c in row))
    return "\n".join(lines) + "\n"


#: -0.0, the smallest subnormal, a subnormal near the normal range, and the extremes
EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072e-308, 1e308, -1e308, 1.7976931348623157e308]

CSV_CELLS = st.one_of(
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


@st.composite
def csv_tables(draw):
    """A rectangular table whose columns end in ``None`` tails of random length."""
    width = draw(st.integers(1, 6))
    depth = draw(st.integers(0, 25))
    columns = []
    for _ in range(width):
        filled = draw(st.integers(0, depth))
        cells = draw(st.lists(st.one_of(st.none(), CSV_CELLS), min_size=filled, max_size=filled))
        columns.append(cells + [None] * (depth - filled))
    return [f"c{i}" for i in range(width)], [list(row) for row in zip(*columns)]


@given(table=csv_tables())
@example(table=(["k", "err"], []))
@example(table=(["k", "err_a", "env_a"], [[0, 1.0, 1.0], [1, 0.5, np.float64(0.25)], [2, None, None]]))
@example(table=(["k", "x"], [[k, v] for k, v in enumerate(EDGE_FLOATS + [-5e-324, np.float32(0.1)])]))
def test_emit_csv_matches_the_per_cell_writer_byte_for_byte(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    emit_csv(header, rows, path)
    assert path.read_bytes() == _per_cell_csv(header, rows).encode("utf-8")


@pytest.mark.parametrize("max_iters", [MAX_ITERS + 1, 100_000_000])
def test_cli_rejects_max_iters_beyond_the_cap(tmp_path, capsys, max_iters):
    # at 1e8 the loose pair below would iterate about 1.4e7 times before stopping
    doc = {
        "kind": "algo",
        "runs": [{"label": "loose", "frame": {"vectors": [[1, 0], [0, 1], [1, 1]]}, "bounds": [1e-6, 1e6]}],
        "max_iters": max_iters,
    }
    path = tmp_path / "algo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["algo", "--spec", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "max_iters:" in err
    assert "Traceback" not in err
    doc["max_iters"] = MAX_ITERS
    assert parse_spec_text(json.dumps(doc)).payload[1] == MAX_ITERS


# --- suite ----------------------------------------------------------------------


def test_paper_suite_isolates_a_raising_fixture(tmp_path, capsys, monkeypatch):
    import framesum.cli

    original = framesum.cli.run_experiment

    def run(spec, rng=None):
        if spec.label == "gabor_tent_window":
            raise NumericRangeError("injected")
        return original(spec, rng)

    monkeypatch.setattr(framesum.cli, "run_experiment", run)
    out = tmp_path / "suite"
    code = main(["paper-suite", "--out", str(out), "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "gabor_tent_window: NumericRangeError: injected" in captured.err
    labels = [load_bundled_fixture(name).label for name in bundled_fixture_names()]
    for label in labels:
        assert (out / f"{label}.report.txt").exists() == (label != "gabor_tent_window"), label
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert summary == captured.out
    assert any(line.split() == ["gabor_tent_window", "gabor", "fail"] for line in summary.splitlines())
    assert f"1 fail out of {len(labels)} fixtures" in summary


def test_paper_suite_output_error_exits_one(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory", encoding="utf-8")
    code = main(["paper-suite", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert captured.out == ""


def test_paper_suite_runs_clean(tmp_path, capsys):
    code = main(["paper-suite", "--out", str(tmp_path / "suite"), "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 fail" in out
    assert "flagged" in out
    summary = (tmp_path / "suite" / "summary.txt").read_text(encoding="utf-8")
    assert summary in out or summary == out


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_paper_suite_deterministic(tmp_path, capsys, flags):
    for out in ("one", "two"):
        code = main(["paper-suite", "--out", str(tmp_path / out), "--seed", "0", *flags])
        assert code == 0
    assert "13 pass, 6 flagged, 0 fail" in capsys.readouterr().out
    one, two = tmp_path / "one", tmp_path / "two"
    names_one = sorted(p.name for p in one.iterdir())
    names_two = sorted(p.name for p in two.iterdir())
    assert names_one == names_two
    for name in names_one:
        assert (one / name).read_bytes() == (two / name).read_bytes()


def _assert_same_json(got, want, path="$"):
    """Equal structure, strings, booleans and integers; floats within the
    package's default expectation tolerance."""
    assert type(got) is type(want), f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key in want:
            _assert_same_json(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_json(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=DEFAULT_EXPECT_RTOL), f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def _assert_same_csv(got: str, want: str, name: str):
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    assert got_rows[0] == want_rows[0], f"{name}: header"
    assert len(got_rows) == len(want_rows), f"{name}: row count"
    for got_row, want_row in zip(got_rows[1:], want_rows[1:]):
        assert len(got_row) == len(want_row), f"{name}: row {want_row[0]} length"
        assert got_row[0] == want_row[0], f"{name}: iteration index"
        for g, w in zip(got_row[1:], want_row[1:]):
            if g != w:
                assert g and w and math.isclose(
                    float(g), float(w), rel_tol=DEFAULT_EXPECT_RTOL
                ), f"{name}: row {want_row[0]}: {g} != {w}"


@pytest.mark.parametrize("flags,extension", [([], "txt"), (["--json"], "json")], ids=["text", "json"])
def test_paper_suite_matches_golden_output(tmp_path, capsys, flags, extension):
    """The suite's reports, CSVs and summary match tests/golden/paper_suite.

    Text reports and the summary must match byte for byte.  JSON reports and
    CSVs compare floats within DEFAULT_EXPECT_RTOL, so a last-ulp difference
    between BLAS builds does not fail.
    """
    out = tmp_path / "suite"
    assert main(["paper-suite", "--out", str(out), "--seed", "0", *flags]) == 0
    capsys.readouterr()
    other = ".report.json" if extension == "txt" else ".report.txt"
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in GOLDEN_SUITE.iterdir() if not p.name.endswith(other))
    for name in names:
        got = (out / name).read_text(encoding="utf-8")
        want = (GOLDEN_SUITE / name).read_text(encoding="utf-8")
        if name.endswith(".json"):
            _assert_same_json(json.loads(got), json.loads(want), name)
        elif name.endswith(".csv"):
            _assert_same_csv(got, want, name)
        else:
            assert (out / name).read_bytes() == (GOLDEN_SUITE / name).read_bytes(), name


def test_seed_changes_random_targets(tmp_path, capsys):
    # a frame with an interior eigenvalue: the error curve depends on how the
    # random target projects onto the modes, so the seed must matter
    doc = {
        "kind": "algo",
        "label": "seeded",
        "runs": [
            {
                "label": "r",
                "frame": {"vectors": [[[1, 0], [0, 0], [0, 0]],
                                      [[0, 0], [1.4142135623730951, 0], [0, 0]],
                                      [[0, 0], [0, 0], [2, 0]]]},
                "bounds": "oracle",
            }
        ],
        "max_iters": 10,
    }
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for seed in ("0", "1"):
        code = main(
            ["algo", "--spec", str(path), "--seed", seed, "--csv", str(tmp_path / f"s{seed}.csv"),
             "--report", str(tmp_path / f"s{seed}.txt")]
        )
        assert code == 0
    capsys.readouterr()
    a = (tmp_path / "s0.csv").read_text(encoding="utf-8")
    b = (tmp_path / "s1.csv").read_text(encoding="utf-8")
    assert a != b
    assert a.splitlines()[0] == b.splitlines()[0]  # same schema


def test_run_experiment_default_rng_matches_seed_zero(tmp_path):
    spec = load_bundled_fixture("dual_sum_c3.json")
    res_default = run_experiment(spec)
    res_seeded = run_experiment(spec, np.random.default_rng(0))
    assert res_default.report_text() == res_seeded.report_text()


# --- the collector pause -------------------------------------------------------


def _finite_sum_path(tmp_path, k: int, d: int = 8):
    rng = np.random.default_rng(k)
    frames = [
        {"vectors": np.stack([rng.standard_normal((2 * d, d)), rng.standard_normal((2 * d, d))], -1).tolist()}
        for _ in range(k)
    ]
    path = tmp_path / f"finite_sum_k{k}.json"
    doc = {"kind": "finite-sum", "frames": frames, "coefficients": [1.0] * k}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_main_leaves_no_cycle_that_grows_with_the_document(tmp_path):
    """A finite-sum command leaves the same few unreachable objects, from the
    standard library's JSON encoder, however many frames its document holds:
    no reference cycle holds the document, so reference counting frees it
    when the command ends, also while the collector is paused."""

    def unreachable_after(path):
        gc.collect()
        main(["sum", "--spec", str(path), "--report", str(tmp_path / "report.json"), "--json"])
        return gc.collect()

    small, large = _finite_sum_path(tmp_path, 2), _finite_sum_path(tmp_path, 16)
    unreachable_after(small)  # the argument parser is built on first use
    assert unreachable_after(large) == unreachable_after(small)


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-collecting", "caller-paused"])
@pytest.mark.parametrize("outcome", ["success", "schema-error", "usage-error"])
def test_main_pauses_the_collector_and_restores_the_callers_setting(
    tmp_path, capsys, monkeypatch, enabled, outcome
):
    import framesum.cli

    during = []
    original = framesum.cli.run_experiment

    def run(spec, rng=None):
        during.append(gc.isenabled())
        return original(spec, rng)

    monkeypatch.setattr(framesum.cli, "run_experiment", run)
    doc = {"kind": "bounds", "frame": {"vectors": [[1, 0], [0, 1]]}}
    if outcome == "schema-error":
        doc["frame"]["vectors"][1] = [0, True]
    path = tmp_path / "bounds.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["bounds", "--spec", str(path)] + (["--seed", "abc"] if outcome == "usage-error" else [])
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "usage-error":
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == (0 if outcome == "success" else 1)
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    capsys.readouterr()
    assert during == ([False] if outcome == "success" else [])
