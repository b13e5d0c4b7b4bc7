import json
from pathlib import Path

import numpy as np
import pytest

from framesum import SpecParseError, SpecSchemaError
from framesum.cli import bundled_fixture_names, emit_csv, load_bundled_fixture, main
from framesum.experiments import parse_spec, parse_spec_text, render_spec, run_experiment


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


def test_cli_algo_unknown_envelope_label_fails_the_expectation(tmp_path, capsys):
    doc = json.loads(render_spec(load_bundled_fixture("algo_finite_sum_c2.json")))
    doc["expect"]["envelope_order"] = ["base", "nowhere"]
    path = tmp_path / "algo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["algo", "--spec", str(path)])
    assert code == 2
    assert "expected run labels" in capsys.readouterr().out


def test_cli_missing_file(capsys):
    code = main(["bounds", "--spec", "/nonexistent/nowhere.json"])
    assert code == 1
    assert "error" in capsys.readouterr().err


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
    assert "margin" in out
    assert "status: fail" in out


def test_cli_eigensolver_failure_exits_two(tmp_path, capsys, monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    path = _fixture_path(tmp_path, "exact_bounds_c2.json")
    monkeypatch.setattr(np.linalg, "eigh", fail)
    code = main(["bounds", "--spec", str(path)])
    assert code == 2
    assert "NoConvergenceError" in capsys.readouterr().err


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


# --- suite ----------------------------------------------------------------------


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
