import gc
import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import framesum
from framesum import ComparisonTable, NumericRangeError, RunSeries, SpecParseError, SpecSchemaError
from framesum.cli import build_parser, bundled_fixture_names, emit_csv, load_bundled_fixture, main, parse_args
from framesum.experiments import (
    _KINDS,
    COMMANDS,
    DEFAULT_EXPECT_RTOL,
    KINDS,
    MAX_ITERS,
    MAX_SHIFT_TERMS,
    parse_spec,
    parse_spec_text,
    render_spec,
    run_experiment,
)

GOLDEN_SUITE = Path(__file__).parent / "golden" / "paper_suite"
FIXTURES = Path(framesum.__file__).parent / "fixtures"


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


def test_equal_specs_hash_equal_whatever_their_origin():
    # a document without a label takes its origin's stem, which the document
    # comparison does not see
    text = '{"kind": "bounds", "frame": {"vectors": [[1, 0], [0, 1]]}}'
    a, b = parse_spec_text(text, origin="a.json"), parse_spec_text(text, origin="b.json")
    assert (a.label, b.label) == ("a", "b")
    assert a == b and hash(a) == hash(b)


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


def test_cli_finite_sum_with_valid_stated_bounds_passes(tmp_path, capsys):
    # each stated pair is the oracle pair loosened by 1e-10, inside the stated
    # match tolerance, so the stated-basis prediction brackets the built sum
    loosen = [1 - 1e-10, 1 + 1e-10]
    doc = {
        "kind": "finite-sum",
        "frames": [
            {"vectors": [[2, 0], [0, 1]], "stated_bounds": [1 * loosen[0], 4 * loosen[1]]},
            {"vectors": [[0.1, 0], [0, 0.1]], "stated_bounds": [0.01 * loosen[0], 0.01 * loosen[1]]},
        ],
        "coefficients": [1, 1],
    }
    path = tmp_path / "stated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["sum", "--spec", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "predicted bounds (stated inputs): [0.609999999" in out
    assert "built sum oracle bounds: [1.21, 4.41]" in out
    assert "certified: yes" in out
    assert "does not bracket" not in out and "flags:" not in out
    assert out.endswith("status: pass\n")


def test_cli_kind_mismatch(tmp_path, capsys):
    path = _fixture_path(tmp_path, "finite_sum_c2.json")
    code = main(["dual", "--spec", str(path)])
    assert code == 1
    assert capsys.readouterr() == ("", f"error: command 'dual' expects kind 'dual', but {path} has kind 'finite-sum'\n")


E2 = [[1, 0], [0, 1]]
E3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def _error_line(field: str | None, message: str) -> str:
    """The stderr line of a spec error; a syntax error, or a schema error about the
    whole document, names no field."""
    return f"error: {field}: {message}\n" if field else f"error: {message}\n"


#: one bundled fixture of every kind
FIXTURE_OF_KIND = {
    "algo": "algo_dual_sum_c3.json",
    "bounds": "exact_bounds_c2.json",
    "dual": "dual_sum_c3.json",
    "finite-sum": "finite_sum_c2.json",
    "operator-sum": "operator_sum_c2.json",
    "perturbed-sum": "perturbed_sum_c2.json",
    "gabor": "gabor_tent_window.json",
    "width": "width_reference.json",
}

# Documents with one name or label, null here, and the field path of that name.
NAMED = {
    "label": ("width", {"kind": "width", "label": None, "entries": [{"bounds": [1, 2]}]}, "label"),
    "entry-label": ("width", {"kind": "width", "entries": [{"label": None, "bounds": [1, 2]}]}, "entries[0].label"),
    "frame-name": ("bounds", {"kind": "bounds", "frame": {"name": None, "vectors": E2}}, "frame.name"),
    "frame-bounds-name": (
        "sum",
        {"kind": "finite-sum", "frame_bounds": [[1, 2], {"name": None, "bounds": [1, 2]}], "coefficients": [1, 1]},
        "frame_bounds[1].name",
    ),
    "run-label": ("algo", {"kind": "algo", "runs": [{"label": None, "frame": {"vectors": E2}}]}, "runs[0].label"),
}

WIDTH = {"kind": "width", "entries": [{"bounds": [1, 2]}]}
PIECE = {"lo": 0, "hi": 1, "kind": "affine", "alpha": 0, "beta": 1}
GABOR = {"kind": "gabor", "generator": {"pieces": [PIECE]}, "lattice": {"a": 1, "b": 0.5}}
ALGO = {"kind": "algo", "runs": [{"frame": {"vectors": E2}}]}
#: an algo run whose loose pair would iterate about 1.4e7 times at max_iters 1e8
LOOSE_ALGO = {"kind": "algo", "runs": [{"label": "loose", "frame": {"vectors": E2 + [[1, 1]]}, "bounds": [1e-6, 1e6]}]}
HUGE = "1" + "0" * 400  # a JSON integer too large for a float


def _bounds_text(vectors: str) -> str:
    return '{"kind": "bounds", "frame": {"vectors": %s}}' % vectors


def _sum_text(kind: str, **fields: str) -> str:
    frames = '"frame1": {"vectors": [[1, 0], [0, 1]]}, "frame2": {"vectors": [[1, 0], [0, 1]]}'
    if kind == "finite-sum":
        frames = '"frames": [{"vectors": [[1, 0], [0, 1]]}, {"vectors": [[1, 0], [0, 1]]}]'
    extra = "".join(f', "{key}": {value}' for key, value in fields.items())
    return '{"kind": "%s", %s%s}' % (kind, frames, extra)


def _gabor_doc(hi: float, a: float, b: float) -> dict:
    return {
        "kind": "gabor",
        "generator": {"pieces": [{"lo": 0, "hi": hi, "kind": "affine", "alpha": 0, "beta": 1}]},
        "lattice": {"a": a, "b": b},
    }


def _with_expect(fixture: str, key: str | None, value) -> dict:
    """A bundled fixture's document with ``expect[key]`` set to ``value``, or the
    whole ``expect`` block when ``key`` is None."""
    doc = json.loads(render_spec(load_bundled_fixture(fixture)))
    if key is None:
        doc["expect"] = value
    else:
        doc["expect"][key] = value
    return doc


# Every document the CLI refuses at parse time, one row each: the command, the
# document (a dict, JSON text or raw bytes), the field path of the error (None
# for a syntax error, "" for an error about the whole document) and the message,
# where <path> stands for the document's path.  A new refusal is a new row.
REFUSED = [
    # --- the document as a whole
    pytest.param("bounds", "", None, "<path>: invalid JSON at line 1, column 1: Expecting value", id="empty-file"),
    pytest.param(
        "width",
        b"\xff",
        None,
        "<path> is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        id="not-utf8",
    ),
    # a key given twice, where the reader would keep the last value
    pytest.param(
        "width",
        b'{"kind": "width", "entries": [{"bounds": [1, 2]}], "entries": [{"bounds": [1, 3]}]}',
        "",
        "repeated key 'entries'",
        id="repeated-key",
    ),
    pytest.param(
        "algo",
        b'{"kind": "algo", "runs": [{"frame": {"vectors": [[1, 0], [0, 1]]}, "bounds": [1, 2], "bounds": [1, 3]}]}',
        "",
        "repeated key 'bounds'",
        id="repeated-key-in-a-run",
    ),
    pytest.param(
        "bounds",
        {"kind": "mystery"},
        "kind",
        "must be one of bounds, dual, finite-sum, operator-sum, perturbed-sum, gabor, algo, width, got 'mystery'",
        id="unknown-kind",
    ),
    pytest.param(
        "bounds",
        {"kind": "bounds", "frame": {"vectors": [[[1, 0]]]}, "surprise": 1},
        "surprise",
        "unknown field",
        id="unknown-field",
    ),
    # the dual identity is checked exactly, so there is no trial count to set
    pytest.param(
        "dual",
        {**load_bundled_fixture("dual_sum_c3.json").document, "trials": 100},
        "trials",
        "unknown field",
        id="dual-trials",
    ),
    # an algo CSV's name comes from --csv, or in paper-suite from the label
    *(
        pytest.param(
            _KINDS[kind].command,
            {**load_bundled_fixture(FIXTURE_OF_KIND[kind]).document, "csv": value},
            "csv",
            "unknown field",
            id=f"csv-{kind}-{end}",
        )
        for kind in KINDS
        for end, value in (("name", "x.csv"), ("empty", ""), ("null", None))
    ),
    # --- names and free text: a line break would split the report line that
    # prints it, and a comma in a run label would add cells to the CSV header
    *(
        pytest.param(command, json.dumps(doc).replace("null", json.dumps(value)), field, message, id=f"{key}-{end}")
        for key, (command, doc, field) in NAMED.items()
        for end, value, message in (
            ("empty", "", "must be a nonempty string"),
            ("number", 5, "must be a nonempty string"),
            ("lf", "a\nb", "must not contain a line break"),
            ("cr", "a\rb", "must not contain a line break"),
        )
    ),
    pytest.param(
        "algo",
        json.dumps(NAMED["run-label"][1]).replace("null", '"a,b"'),
        "runs[0].label",
        "must not contain a comma",
        id="run-label-comma",
    ),
    *(
        pytest.param("width", {**WIDTH, **fields}, field, "must not contain a line break", id=name)
        for name, fields, field in [
            ("title-lf", {"title": "a\nb", "notes": ["x\ny"]}, "title"),
            ("title-u2028", {"title": "a\u2028b"}, "title"),
            ("notes-lf", {"notes": ["x\ny"]}, "notes[0]"),
            ("discrepancies-lf", {"discrepancies": ["x\ny"]}, "discrepancies[0]"),
            ("expect-cr", {"expect": {"widths_4dp": ["a\rb"]}}, "expect.widths_4dp[0]"),
        ]
    ),
    pytest.param("width", {**WIDTH, "title": 5}, "title", "expected a string, got 5", id="title-number"),
    pytest.param("width", {**WIDTH, "notes": ["x", 3]}, "notes[1]", "expected a string, got 3", id="notes-number"),
    # --- numbers: every real goes through one reader, which never parses text
    pytest.param("width", {**WIDTH, "entries": []}, "entries", "must be nonempty", id="width-no-entries"),
    pytest.param(
        "width",
        {**WIDTH, "entries": [{"bounds": ["1", 2]}]},
        "entries[0].bounds[0]",
        "expected a real number, got '1'",
        id="width-text-real",
    ),
    *(
        pytest.param("bounds", _bounds_text(vectors), field, message, id=name)
        for name, vectors, field, message in [
            (
                "bare-true",
                "[[true, 0], [0, 1]]",
                "frame.vectors[0][0]",
                "complex scalar must be a real number or [re, im], got True",
            ),
            (
                "false-in-pair",
                "[[[1, 0], [0, 0]], [[0, 0], [false, 1]]]",
                "frame.vectors[1][1][0]",
                "expected a real number, got False",
            ),
            (
                "string",
                '[[1, 0], [0, "1"]]',
                "frame.vectors[1][1]",
                "complex scalar must be a real number or [re, im], got '1'",
            ),
            (
                "null-in-pair",
                "[[[1, 0], [0, null]], [[0, 0], [1, 0]]]",
                "frame.vectors[0][1][1]",
                "expected a real number, got None",
            ),
            ("nan", "[[1, 0], [NaN, 1]]", "frame.vectors[1][0]", "expected a finite number, got nan"),
            (
                "infinity-in-pair",
                "[[[1, 0], [0, 0]], [[0, 0], [1, Infinity]]]",
                "frame.vectors[1][1][1]",
                "expected a finite number, got inf",
            ),
            (
                "three-element-pair",
                "[[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]]",
                "frame.vectors[0][0]",
                "complex scalar must be [re, im], got [1, 0, 0]",
            ),
            ("ragged-vectors", "[[1, 0], [0, 1, 0]]", "frame.vectors", "rows have differing lengths [2, 3]"),
            ("empty-vector", "[[1, 0], []]", "frame.vectors[1]", "must be nonempty"),
            ("empty-vectors", "[]", "frame.vectors", "must be nonempty"),
            (
                "huge-integer-entry",
                f"[[{HUGE}, 0], [0, 1]]",
                "frame.vectors[0][0]",
                "expected a finite number, got an integer beyond the float range",
            ),
            ("zero-vectors", "[[0, 0], [0, 0]]", "frame.vectors", "all vectors are zero"),
        ]
    ),
    pytest.param(
        "gabor",
        '{"kind": "gabor", "generator": {"pieces": [%s]}, "lattice": {"a": %s, "b": 1}}' % (json.dumps(PIECE), HUGE),
        "lattice.a",
        "expected a finite number, got an integer beyond the float range",
        id="huge-integer-scalar",
    ),
    pytest.param(
        "op-sum",
        _sum_text("operator-sum", theta1="[[1, 0], [0]]", theta2="[[1, 0], [0, 1]]"),
        "theta1",
        "rows have differing lengths [1, 2]",
        id="ragged-theta",
    ),
    pytest.param(
        "perturbed-sum",
        _sum_text("perturbed-sum", alpha='[1, "x"]', beta="[1, 1]"),
        "alpha[1]",
        "complex scalar must be a real number or [re, im], got 'x'",
        id="bad-alpha",
    ),
    pytest.param(
        "sum",
        _sum_text("finite-sum", coefficients="[[1, 0], [true, 0]]"),
        "coefficients[1][0]",
        "expected a real number, got True",
        id="bad-coefficient",
    ),
    pytest.param(
        "sum",
        {"kind": "finite-sum", "frame_bounds": [[1, 2]], "coefficients": [[1, 0, 0]]},
        "coefficients[0]",
        "complex scalar must be [re, im], got [1, 0, 0]",
        id="three-element-coefficient",
    ),
    # --- sum rules: summands that do not align, and the finite sum's own fields
    pytest.param(
        "sum",
        {"kind": "finite-sum", "frames": [{"vectors": E2}, {"vectors": E3}], "coefficients": [1, 1]},
        "frames[1].vectors",
        "3 vectors in dimension 3 do not align with the 2 vectors in dimension 2 of frames[0]",
        id="sum-dimensions",
    ),
    pytest.param(
        "sum",
        {"kind": "finite-sum", "frames": [{"vectors": E2}, {"vectors": E2 + [[1, 1]]}], "coefficients": [1, 1]},
        "frames[1].vectors",
        "3 vectors in dimension 2 do not align with the 2 vectors in dimension 2 of frames[0]",
        id="sum-counts",
    ),
    pytest.param(
        "op-sum",
        {"kind": "operator-sum", "frame1": {"vectors": E2}, "frame2": {"vectors": E2}, "theta1": E3, "theta2": E3},
        "theta1",
        "must be 2x2 like the frames, got (3, 3)",
        id="op-sum-theta-size",
    ),
    pytest.param(
        "op-sum",
        {
            "kind": "operator-sum",
            "frame1": {"vectors": E2},
            "frame2": {"vectors": E2 + [[1, 1]]},
            "theta1": E2,
            "theta2": E2,
        },
        "frame2.vectors",
        "3 vectors in dimension 2 do not align with the 2 vectors in dimension 2 of frame1",
        id="op-sum-counts",
    ),
    pytest.param(
        "perturbed-sum",
        {
            "kind": "perturbed-sum",
            "frame1": {"vectors": E2},
            "frame2": {"vectors": E3[:2]},
            "alpha": [1, 1],
            "beta": [1, 1],
        },
        "frame2.vectors",
        "2 vectors in dimension 3 do not align with the 2 vectors in dimension 2 of frame1",
        id="perturbed-sum-dimensions",
    ),
    pytest.param(
        "dual",
        {"kind": "dual", "frame": {"vectors": E2}, "dual": {"vectors": E2 + [[1, 1]]}},
        "dual.vectors",
        "3 vectors in dimension 2 do not align with the 2 vectors in dimension 2 of frame",
        id="dual-counts",
    ),
    pytest.param(
        "dual",
        {"kind": "dual", "frame": {"vectors": E2}, "dual": {"vectors": E3[:2]}},
        "dual.vectors",
        "2 vectors in dimension 3 do not align with the 2 vectors in dimension 2 of frame",
        id="dual-dimensions",
    ),
    pytest.param(
        "sum",
        {"kind": "finite-sum", "frame_bounds": [], "coefficients": []},
        "frame_bounds",
        "must be nonempty",
        id="sum-no-bound-pairs",
    ),
    pytest.param(
        "sum",
        {"kind": "finite-sum", "frames": [], "coefficients": []},
        "frames",
        "must be nonempty",
        id="sum-no-frames",
    ),
    # given bounds only: T1 and T2 act on one space, alpha_k and beta_k index one vector
    pytest.param(
        "op-sum",
        {"kind": "operator-sum", "bounds1": [1, 2], "bounds2": [1, 2], "theta1": E2, "theta2": E3},
        "theta2",
        "must be 2x2 like theta1, got (3, 3)",
        id="op-sum-bounds-only-theta-sizes",
    ),
    pytest.param(
        "perturbed-sum",
        {"kind": "perturbed-sum", "bounds1": [1, 2], "bounds2": [1, 2], "alpha": [1, 1], "beta": [1, 1, 1]},
        "beta",
        "must have as many entries as alpha (2), got 3",
        id="perturbed-sum-bounds-only-lengths",
    ),
    pytest.param(
        "op-sum",
        {"kind": "operator-sum", "bounds1": [1, 2], "bounds2": [1, 2], "theta1": E3[:2], "theta2": E2},
        "theta1",
        "must be square, got (2, 3)",
        id="theta-not-square",
    ),
    pytest.param(
        "perturbed-sum",
        {"kind": "perturbed-sum", "frame1": {"vectors": E2}, "frame2": {"vectors": E2}, "alpha": [1], "beta": [1, 1]},
        "alpha",
        "scalar sequences must have one entry per frame vector",
        id="alpha-short",
    ),
    # a document with its summands missing, doubled or halved has no field to name
    pytest.param(
        "dual", {"kind": "dual"}, "", "dual needs either frame+dual or bounds1+bounds2", id="dual-no-summands"
    ),
    pytest.param(
        "dual",
        {"kind": "dual", "frame": {"vectors": E2}, "dual": {"vectors": E2}, "bounds1": [1, 2], "bounds2": [1, 2]},
        "",
        "dual needs either frame+dual or bounds1+bounds2",
        id="dual-frames-and-bounds",
    ),
    pytest.param(
        "dual", {"kind": "dual", "frame": {"vectors": E2}}, "", "dual needs both frame and dual", id="dual-frame-only"
    ),
    pytest.param(
        "sum",
        {"kind": "finite-sum", "coefficients": [[1, 0]]},
        "",
        "finite-sum needs exactly one of frames or frame_bounds",
        id="sum-no-summands",
    ),
    pytest.param(
        "sum",
        {"kind": "finite-sum", "frame_bounds": [[1, 2], [1, 2]], "coefficients": [[1, 0], [0, 0]]},
        "coefficients",
        "coefficient must be nonzero",
        id="zero-coefficient",
    ),
    pytest.param(
        "sum",
        {"kind": "finite-sum", "frame_bounds": [[1, 2]], "coefficients": [[1, 0]], "pivot": 5},
        "pivot",
        "index 5 out of range 1..1",
        id="pivot-out-of-range",
    ),
    pytest.param(
        "sum",
        {"kind": "finite-sum", "frame_bounds": [[1, 2], [1, 2]], "coefficients": [1, 1], "pivot": "first"},
        "pivot",
        'must be a 1-based index or "best", got \'first\'',
        id="pivot-word",
    ),
    pytest.param(
        "sum",
        {"kind": "finite-sum", "frame_bounds": [[1, 2], [1, 2]], "coefficients": [1, 1], "pivot": True},
        "pivot",
        'must be a 1-based index or "best", got True',
        id="pivot-true",
    ),
    # --- gabor windows and lattices
    pytest.param(
        "gabor",
        {**GABOR, "generator": {"pieces": [{**PIECE, "kind": "cubic"}]}},
        "generator.pieces[0]",
        "piece kind must be one of ('affine', 'sqrt-affine'), got 'cubic'",
        id="piece-kind",
    ),
    pytest.param(
        "gabor",
        {**GABOR, "generator": {"pieces": [{**PIECE, "lo": 1}]}},
        "generator.pieces[0]",
        "piece needs lo < hi, got [1.0, 1.0)",
        id="piece-empty",
    ),
    pytest.param(
        "gabor",
        {**GABOR, "generator": {"pieces": [{**PIECE, "hi": 1}, {**PIECE, "lo": 0.5, "hi": 2}]}},
        "generator.pieces",
        "pieces overlap: [0.0, 1.0) and [0.5, 2.0)",
        id="pieces-overlap",
    ),
    pytest.param(
        "gabor",
        {**GABOR, "generator": {"pieces": []}},
        "generator.pieces",
        "generator needs at least one piece",
        id="no-pieces",
    ),
    # radicand -1e-13 on [0, 1): inside an absolute 1e-12 slack, but far below
    # the rounding of its terms; accepted, it gave an upper bound below the optimal 2
    pytest.param(
        "gabor",
        {
            **GABOR,
            "generator": {
                "pieces": [{**PIECE, "kind": "sqrt-affine", "beta": -1e-13}, {**PIECE, "lo": 1, "hi": 2}]
            },
        },
        "generator.pieces[0]",
        "sqrt-affine radicand is negative at x=0.0: 0.0*x+-1e-13",
        id="radicand-below-its-rounding-slack",
    ),
    pytest.param(
        "gabor",
        {**GABOR, "wh": {"P": 1, "Q": 1, "p0": 1, "q0": 1}},
        "",
        "gabor needs exactly one of lattice or wh",
        id="gabor-lattice-and-wh",
    ),
    pytest.param(
        "gabor",
        {**GABOR, "lattice": {"a": 0, "b": 1}},
        "lattice",
        "a must be a finite positive real, got 0.0",
        id="lattice-zero-step",
    ),
    # [0, 1e9) on (0.5, 1) asks for about 4e18 terms, which the loops would never finish
    *(
        pytest.param(
            "gabor", _gabor_doc(hi, a, b), "generator.pieces", f"support length {needs} shift terms, more than 10000",
            id=name,
        )
        for name, (hi, a, b), needs in [
            ("huge-support", (1e9, 0.5, 1), "1e+09 on the lattice (a, b) = (0.5, 1) needs about 4e+18"),
            ("many-translates", (1, 1 / 5000, 0.5), "1 on the lattice (a, b) = (0.0002, 0.5) needs about 10002"),
            ("many-shifts", (1, 0.5, 5000), "1 on the lattice (a, b) = (0.5, 5000) needs about 30003"),
            ("tiny-a", (1, 1e-300, 0.5), "1 on the lattice (a, b) = (1e-300, 0.5) needs about 2e+300"),
        ]
    ),
    # --- algo runs
    pytest.param("algo", {**ALGO, "runs": []}, "runs", "must be nonempty", id="algo-no-runs"),
    pytest.param(
        "algo",
        {**ALGO, "runs": [{"label": "r", "frame": {"vectors": E2}}] * 2},
        "runs",
        "duplicate run labels in ['r', 'r']",
        id="algo-duplicate-labels",
    ),
    pytest.param(
        # a run is checked against its own ``bounds``; a stated pair on its frame was ignored
        "algo",
        {**ALGO, "runs": [{"frame": {"vectors": E2, "stated_bounds": [100, 200]}}]},
        "runs[0].frame.stated_bounds",
        "unknown field",
        id="algo-frame-stated-bounds",
    ),
    *(
        pytest.param(
            "algo", {**doc, "max_iters": value}, "max_iters", f"must be an integer in 1..100000, got {value}", id=name
        )
        for name, doc, value in [
            ("max-iters-true", ALGO, True),
            ("max-iters-float", ALGO, 5.0),
            ("max-iters-past-cap", LOOSE_ALGO, MAX_ITERS + 1),
            ("max-iters-1e8", LOOSE_ALGO, 10**8),
        ]
    ),
    # --- expect blocks
    *(
        pytest.param(command, _with_expect(fixture, key, value), field, message, id=name)
        for name, fixture, command, key, value, field, message in [
            ("rtol-string", "width_reference.json", "width", "rtol", "x", "expect.rtol",
             "expected a real number, got 'x'"),
            ("rtol-negative", "width_reference.json", "width", "rtol", -1e-9, "expect.rtol",
             "expected a number >= 0, got -1e-09"),
            ("rtol-infinite", "width_reference.json", "width", "rtol", math.inf, "expect.rtol",
             "expected a finite number, got inf"),
            ("widths-scalar", "width_reference.json", "width", "widths_4dp", 5, "expect.widths_4dp",
             "expected an array, got int"),
            ("expect-array", "width_reference.json", "width", None, [], "expect", "expected an object, got list"),
            ("gabor-bounds-short", "gabor_sqrt_ramp_window.json", "gabor", "bounds", [1], "expect.bounds",
             "bound pair must be [lower, upper], got [1]"),
            ("predicted-reversed", "dual_sum_c3.json", "dual", "predicted", [2, 1], "expect.predicted",
             "need 0 < lower <= upper, got (2.0, 1.0)"),
            ("sum-bounds-string", "dual_sum_c3.json", "dual", "sum_bounds", "x", "expect.sum_bounds",
             "expected an array, got str"),
            ("margin-null", "finite_sum_c2.json", "sum", "condition_margin", None, "expect.condition_margin",
             "expected a real number, got None"),
            ("envelope-order-numbers", "algo_finite_sum_c2.json", "algo", "envelope_order", [1, 2],
             "expect.envelope_order[0]", "expected a string, got 1"),
            ("tight-string", "exact_bounds_c2.json", "bounds", "tight", "yes", "expect.tight",
             "expected true or false, got 'yes'"),
            ("predicted-width-number", "finite_sum_c2.json", "sum", "predicted_width_4dp", 0.3453,
             "expect.predicted_width_4dp", "expected a string, got 0.3453"),
        ]
    ),
]


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command,doc,field,message", REFUSED)
def test_cli_rejects_a_malformed_document_at_parse_time(tmp_path, capsys, command, doc, field, message, flags):
    path = tmp_path / "malformed.json"
    if isinstance(doc, dict):
        doc = json.dumps(doc)
    path.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    with pytest.raises((SpecParseError, SpecSchemaError)) as excinfo:
        parse_spec(path)
    assert getattr(excinfo.value, "field", None) == field  # a SpecParseError has none
    code = main([command, "--spec", str(path), *flags])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == _error_line(field, message.replace("<path>", str(path)))


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_cli_frames_that_are_not_a_dual_pair_fail_without_a_prediction(tmp_path, capsys, flags):
    path = tmp_path / "not-dual.json"
    doc = {"kind": "dual", "frame": {"vectors": E2}, "dual": {"vectors": [[2, 0], [0, 2]]}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["dual", "--spec", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    if flags:
        payload = json.loads(captured.out)
        assert payload["verify_dual"] == {"is_dual": False, "max_residual": 1.0}
        assert "prediction" not in payload
        assert payload["status"] == "fail"
    else:
        assert captured.out == (
            "experiment: not-dual (dual)\n"
            "dual identity over all unit vectors: max residual 1 -> NOT a dual pair\n"
            "failures:\n"
            "  - dual identity does not hold; the dual-sum rule does not apply\n"
            "status: fail\n"
        )


def test_cli_a_dual_pair_with_signed_zeros_sums_and_certifies(tmp_path, capsys):
    # the sum is built as 1 F + 1 G, which may give a zero entry the other sign
    path = tmp_path / "signed-zeros.json"
    doc = {
        "kind": "dual",
        "frame": {"vectors": [[1, -0.0], [-0.0, 1], [0.0, -0.0]]},
        "dual": {"vectors": [[1, 0.0], [-0.0, 1], [-0.0, 0.0]]},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["dual", "--spec", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "built sum oracle bounds: [4, 4], width 0.0000" in lines
    assert "certified: yes (slacks 0, 0)" in lines


# The margin is exactly 0 for each rule: a tie fails the condition.
MARGIN_TIES = [
    ("sum", {"kind": "finite-sum", "frame_bounds": [[1, 1], [1, 1]], "coefficients": [1, 1], "pivot": 1}),
    ("op-sum", {"kind": "operator-sum", "bounds1": [1, 1], "bounds2": [1, 1], "theta1": [[1]], "theta2": [[1]]}),
    ("perturbed-sum", {"kind": "perturbed-sum", "bounds1": [1, 1], "bounds2": [1, 1], "alpha": [1], "beta": [-1]}),
]


@pytest.mark.parametrize("command,doc", MARGIN_TIES, ids=["finite-sum", "operator-sum", "perturbed-sum"])
def test_cli_a_margin_of_exactly_zero_fails_the_condition(tmp_path, capsys, command, doc):
    path = tmp_path / "tie.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, "--spec", str(path)]) == 2
    text = capsys.readouterr()
    assert main([command, "--spec", str(path), "--json"]) == 2
    report = capsys.readouterr()
    assert text.err == report.err == ""
    assert "condition (given): margin 0 -> FAILS (needs margin > 0)\n" in text.out
    assert ", width" not in text.out and "status: fail" in text.out
    payload = json.loads(report.out)
    assert payload["prediction"]["condition_margin"] == 0.0
    assert payload["prediction"]["condition_holds"] is False
    assert payload["prediction"]["width"] is None
    assert payload["status"] == "fail"


# Known false passes: each bounds-only document below exits 0 with "status:
# pass", but some frames with the given bounds make a sum outside the
# predicted bounds (F1 + 3 F2 - 3 F3 with F2 = F3 is F1; m F + m G with G = -F
# is the zero family).  Each should exit 2.
FALSE_PASSES = [
    pytest.param(
        "sum",
        {"kind": "finite-sum", "frame_bounds": [[1, 1], [1, 1], [1, 1]], "coefficients": [1, 3, -3], "pivot": 1},
        marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 1: the k >= 3 finite-sum lower bound is false; it predicts [7, 57]"
        ),
        id="finite-sum-k3",
    ),
    pytest.param(
        "sum",
        {
            "kind": "finite-sum",
            "frame_bounds": [[9.56473929170357, 9.56473929170357]] * 2,
            "coefficients": [2.848699712472113] * 2,
            "pivot": 1,
        },
        marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 13: an exact margin of 0 comes out positive in floating point"
        ),
        id="finite-sum-tie",
    ),
    pytest.param(
        "op-sum",
        {
            "kind": "operator-sum",
            "bounds1": [1.0292099090649256, 1.0292099090649256],
            "bounds2": [1.0292099090649256, 1.0292099090649256],
            "theta1": [[0.1822076819138183]],
            "theta2": [[0.1822076819138183]],
        },
        marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 13: an exact margin of 0 comes out positive in floating point"
        ),
        id="operator-sum-tie",
    ),
]


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command,doc", FALSE_PASSES)
def test_cli_a_false_prediction_from_given_bounds_fails(tmp_path, capsys, command, doc, flags):
    path = tmp_path / "false.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, "--spec", str(path), *flags]) == 2


# A tight first summand and a zero second operator (or sequence): the predicted
# bounds A1 m^2 and (sqrt(B1) n)^2 are equal, but they round one ulp apart, and
# the prediction is refused as lower > upper with exit 2.
ONE_ULP_TIES = [
    pytest.param(
        "op-sum",
        {
            "kind": "operator-sum",
            "bounds1": [0.6843777967847977, 0.6843777967847977],
            "bounds2": [1, 1],
            "theta1": [[[0, 0.9305156366398388]]],
            "theta2": [[[0, 0]]],
        },
        id="operator-sum",
    ),
    pytest.param(
        "perturbed-sum",
        {
            "kind": "perturbed-sum",
            "bounds1": [0.6843777967847977, 0.6843777967847977],
            "bounds2": [1, 1],
            "alpha": [[0, 0.9305156366398388]],
            "beta": [0],
        },
        id="perturbed-sum",
    ),
]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: equal predicted bounds that round one ulp apart are refused")
@pytest.mark.parametrize("command,doc", ONE_ULP_TIES)
def test_cli_a_tight_summand_and_a_zero_operator_give_a_holding_prediction(tmp_path, capsys, command, doc):
    path = tmp_path / "tie.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, "--spec", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert "-> holds" in captured.out


def test_cli_the_k3_finite_sum_counterexample_fails_certification_given_frames(tmp_path, capsys):
    # F2 = F3, so the sum F1 + 3 F2 - 3 F3 is F1 itself, with bounds (1, 1)
    doc = {"kind": "finite-sum", "frames": [{"vectors": [[1]]}] * 3, "coefficients": [1, 3, -3], "pivot": 1}
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["sum", "--spec", str(path)]) == 2
    out = capsys.readouterr().out
    assert "predicted bounds (oracle inputs): [7, 57]" in out
    assert "built sum oracle bounds: [1, 1]" in out
    assert "certification failed" in out


# Sums of the zero family: F - F, and T F + T G with G = -F.  Each writes its
# report and exits 2: the sum is built only once the condition holds, so the
# first fails its condition, and the second, whose tie comes out positive
# (ROADMAP item 13), fails as a sum that is not a frame.
CANCELLING_SUMS = [
    pytest.param(
        "sum",
        {
            "kind": "finite-sum",
            "frames": [{"vectors": [[1, 0], [0, 1], [1, 1]]}] * 2,
            "coefficients": [1, -1],
            "pivot": 1,
        },
        "sufficiency condition fails on oracle input bounds (margin -4)",
        id="finite-sum",
    ),
    pytest.param(
        "op-sum",
        {
            "kind": "operator-sum",
            "frame1": {"vectors": [[1.0292099090649256]]},
            "frame2": {"vectors": [[-1.0292099090649256]]},
            "theta1": [[0.1822076819138183]],
            "theta2": [[0.1822076819138183]],
        },
        None,
        id="operator-sum-tie",
    ),
]


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command,doc,failure", CANCELLING_SUMS)
def test_cli_a_sum_whose_vectors_cancel_writes_a_failing_report(tmp_path, capsys, command, doc, failure, flags):
    path = tmp_path / "cancel.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, "--spec", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    if flags:
        payload = json.loads(captured.out)
        assert payload["status"] == "fail"
        assert failure is None or failure in payload["failures"]
    else:
        assert captured.out.startswith(f"experiment: cancel ({doc['kind']})\n")
        assert captured.out.endswith("status: fail\n")
        assert failure is None or f"  - {failure}\n" in captured.out


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
    "command,doc,word",
    [
        ("bounds", {"kind": "bounds", "frame": {"vectors": [[1e200, 0], [0, 1]]}}, "overflowed"),
        # a scaled basis: its frame operator underflows to 0, or to a subnormal
        # value whose bounds would come out 1.1e-5 too low
        ("bounds", {"kind": "bounds", "frame": {"vectors": [[1e-170, 0], [0, 1e-170]]}}, "underflowed"),
        ("bounds", {"kind": "bounds", "frame": {"vectors": [[1e-160, 0], [0, 1e-160]]}}, "underflowed"),
        (
            "gabor",
            {
                "kind": "gabor",
                "generator": {"pieces": [{"lo": 0, "hi": 1, "kind": "affine", "alpha": 1e200, "beta": 1}]},
                "lattice": {"a": 0.5, "b": 1},
            },
            "overflowed",
        ),
        (
            # finite energy, but divided by b it passes the largest float
            "gabor",
            {
                "kind": "gabor",
                "generator": {"pieces": [{"lo": 0, "hi": 1, "kind": "affine", "alpha": 0, "beta": 1}]},
                "lattice": {"a": 0.5, "b": 1e-310},
            },
            "overflowed",
        ),
        # sup|beta| squared passes the largest float, so the upper bound reads inf
        (
            "perturbed-sum",
            {
                "kind": "perturbed-sum",
                "frame1": {"vectors": E2},
                "frame2": {"vectors": E2},
                "alpha": [1, 1],
                "beta": [1e200, 1],
            },
            "predicted upper",
        ),
        # sqrt(B1 B2) of finite bounds whose product overflows: the margin would
        # read -inf, a failing condition, where the true margin is about 1e300.
        # sqrt(B1) sqrt(B2) alone does not mend it: the root 1e150 + 1e5 rounds to
        # 1e150 before it is squared, so the upper bound reads 9.999999999999999e299,
        # while the margin 1e300 + 1e10 - 2e155 rounds back to 1e300; lower > upper
        # is an InvalidBoundsError, still exit 2.  It needs outward rounding with it.
        (
            "op-sum",
            {
                "kind": "operator-sum",
                "bounds1": [1e300, 1e300],
                "bounds2": [1e10, 1e10],
                "theta1": [[1]],
                "theta2": [[1]],
            },
            "predicted lower",
        ),
        (
            "perturbed-sum",
            {"kind": "perturbed-sum", "bounds1": [1e300, 1e300], "bounds2": [1e10, 1e10], "alpha": [1], "beta": [1]},
            "predicted lower",
        ),
        ("dual", {"kind": "dual", "bounds1": [1e308, 1.5e308], "bounds2": [1e308, 1.5e308]}, "predicted lower"),
    ],
    ids=[
        "bounds-frame",
        "bounds-frame-underflow-to-zero",
        "bounds-frame-underflow-to-subnormal",
        "gabor-alpha",
        "gabor-b",
        "perturbed-beta",
        "operator-sum-given-bounds",
        "perturbed-sum-given-bounds",
        "dual-given-bounds",
    ],
)
def test_cli_extreme_magnitudes_exit_two_with_a_clear_error(tmp_path, capsys, command, doc, word):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([command, "--spec", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: NumericRangeError: ") and word in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err and "RuntimeWarning" not in err
    # no report, and so no JSON report with Infinity or NaN, which JSON does not have
    report = tmp_path / "report.json"
    assert main([command, "--spec", str(path), "--json", "--report", str(report)]) == 2
    assert capsys.readouterr() == ("", err)
    assert not report.exists()


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_cli_overflow_error_names_no_numpy_operation(tmp_path, capsys, mode):
    # the squared coefficient times the bound overflows inside numpy; the message
    # is the same whichever loop numpy names for it
    path = tmp_path / "huge.json"
    doc = {"kind": "finite-sum", "frame_bounds": [[1e300, 1e300], [1, 1]], "coefficients": [1e10, 1]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["sum", "--spec", str(path)] + mode) == 2
    assert capsys.readouterr() == ("", "error: NumericRangeError: a value overflowed the floating-point range\n")


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


def _full_and_abbreviated_argvs():
    for command in [*COMMANDS, "paper-suite"]:
        if command == "paper-suite":
            yield [command, "--out", "d", "--seed", "5", "--json"]
            yield [command, "--o", "d", "--se=-5", "--js"]
            continue
        csv = ["--csv", "t.csv"] if command == "algo" else []
        yield [command, "--spec", "s.json", "--report", "r.txt", "--seed", "5", "--json", *csv]
        yield [command, *(["--c=t.csv"] if csv else []), "--sp", "s.json", "--rep=r.txt", "--se", "-5", "--j"]
        yield [command, "--spec", "a.json", "--spec", "b.json"]


@pytest.mark.parametrize("argv", list(_full_and_abbreviated_argvs()), ids=" ".join)
def test_command_parser_alone_gives_the_full_parsers_namespace(argv):
    assert parse_args(argv) == build_parser().parse_args(argv)


def _parse_outcome(parse, argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse(argv)
    out, err = capsys.readouterr()
    return excinfo.value.code, out, err


@pytest.mark.parametrize(
    "argv",
    [["bounds", "--spec", "x", "stray"], ["bounds"], ["bounds", "--spec", "x", "--seed", "abc"]]
    + [["sum", "--help"], [], ["bogus"], ["--help"]],
    ids=["stray-argument", "missing-spec", "seed-not-an-integer", "command-help", "no-command", "unknown", "help"],
)
def test_main_exits_as_the_full_parser_does(capsys, argv):
    assert _parse_outcome(main, argv, capsys) == _parse_outcome(build_parser().parse_args, argv, capsys)


def test_main_reads_sys_argv_without_arguments(monkeypatch, capsys):
    argv = ["bounds", "--spec", str(FIXTURES / "exact_bounds_c2.json"), "--json"]
    assert main(argv) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["framesum", *argv])
    assert main() == 0
    assert capsys.readouterr() == expected


# --- report rendering ------------------------------------------------------------


def _assert_standard_json(result):
    assert result.report_json() == json.dumps(result.payload, indent=2) + "\n"


def test_report_json_matches_the_standard_encoder_on_every_fixture():
    for name in bundled_fixture_names():
        _assert_standard_json(run_experiment(load_bundled_fixture(name), 0))


def _load_perfbench(name, monkeypatch):
    # compiled from source, not imported, so no bytecode is written next to it
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, name, module)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("workload", ["spectral-sums", "gabor-windows", "algo-iterate"])
def test_report_json_matches_the_standard_encoder_on_generated_documents(tmp_path, monkeypatch, workload):
    _load_perfbench("reference", monkeypatch)
    workloads = _load_perfbench("workloads", monkeypatch)
    generator = workloads.WORKLOADS[workload](11, tmp_path)
    for i in range(len(generator.slots)):  # one pass: every slot's kind and size
        _assert_standard_json(run_experiment(parse_spec(generator.case(i).path), i))


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[], {}, [[]]]},
        [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-320, 1.7976931348623157e308],
        {"naïve ☃": "snow \U0001f600   \x00 \"q\" \\"},
        [2**64, -(2**64) - 1, 2**200],
        {"x": np.float64(0.1), "y": [np.float64(-0.0), np.float64(math.nan)]},
        [True, 1, False, 0, None, 1.0],
        (1, (2, ()), {"t": ()}),
        {"deep": {"er": {"est": [{"k": [1, [2, [3]]]}]}}},
        {1: "int key", 2.5: "float key", None: [], True: {"nested": [1]}},
        {"bad": [np.bool_(True)]},
        {(1, 2): 0},
    ],
)
def test_report_json_matches_the_standard_encoder_on_edge_values(payload):
    result = run_experiment(load_bundled_fixture("exact_bounds_c2.json"), 0)
    result.payload = payload

    def rendered(render):
        try:
            return render()
        except TypeError as exc:  # the last two: not serializable, with the same message
            return repr(exc)

    assert rendered(result.report_json) == rendered(lambda: json.dumps(payload, indent=2) + "\n")


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**63, 2**80)
    | st.floats()
    | st.floats().map(np.float64)
    | st.text()
)


@given(
    st.recursive(
        _JSON_LEAVES,
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=4),
        max_leaves=30,
    )
)
def test_report_json_matches_the_standard_encoder_on_any_json_tree(payload):
    result = run_experiment(load_bundled_fixture("exact_bounds_c2.json"), 0)
    result.payload = payload
    assert result.report_json() == json.dumps(payload, indent=2) + "\n"


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


def _narrow_piece_doc(scale: float) -> dict:
    # value 100 on [0, 1e-13) and 1 on [1e-13, 1), dilated by ``scale`` with its lattice
    doc = _gabor_doc(scale, scale, 1 / scale)
    doc["generator"]["pieces"] = [
        {"lo": 0, "hi": 1e-13 * scale, "kind": "affine", "alpha": 0, "beta": 100},
        {"lo": 1e-13 * scale, "hi": scale, "kind": "affine", "alpha": 0, "beta": 1},
    ]
    return doc


def test_cli_painless_estimate_keeps_a_piece_narrower_than_1e_12_steps(tmp_path, capsys):
    # cuts merged within 1e-12 of the scale dropped the narrow piece's cell, and the
    # report passed with [1, 1] marked exact; the optimal bounds are [1, 10000]
    path = tmp_path / "gabor.json"
    path.write_text(json.dumps(_narrow_piece_doc(1.0)), encoding="utf-8")
    assert main(["gabor", "--spec", str(path)]) == 0
    assert "estimated bounds: [1, 10000] (exact: no overlap term)\n" in capsys.readouterr().out
    for s in (-40, -10, 10, 40):
        path.write_text(json.dumps(_narrow_piece_doc(2.0**s)), encoding="utf-8")
        assert main(["gabor", "--spec", str(path), "--json"]) == 0
        estimate = json.loads(capsys.readouterr().out)["estimate"]
        assert (estimate["exact"], estimate["lower"], estimate["upper"]) == (True, 2.0**s, 10000 * 2.0**s), s


def test_cli_gabor_estimate_on_the_grid(tmp_path, capsys):
    # every bundled gabor fixture is painless; this window's shifts overlap, so it takes the grid
    doc = _gabor_doc(2, 1, 0.6)
    doc["generator"]["pieces"] = [
        {"lo": 0, "hi": 1, "kind": "sqrt-affine", "alpha": 2, "beta": 0},
        {"lo": 1, "hi": 2, "kind": "sqrt-affine", "alpha": 4, "beta": -2},
    ]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["gabor", "--spec", str(path)]) == 0
    assert "estimated bounds: [2.64451643818, 16.6666589843] (grid, 16384 points)\n" in capsys.readouterr().out


def test_gabor_shift_cap_admits_windows_up_to_it():
    # (L/a + 1)(2 L b + 1) = 100 * 100 = MAX_SHIFT_TERMS
    spec = parse_spec_text(json.dumps(_gabor_doc(1, 1 / 99, 49.5)))
    assert spec.payload[1].a == 1 / 99
    assert MAX_SHIFT_TERMS == 10_000
    with pytest.raises(SpecSchemaError) as excinfo:
        parse_spec_text(json.dumps(_gabor_doc(1, 1 / 99, 49.6)))
    assert excinfo.value.field == "generator.pieces"


def test_max_iters_cap_admits_runs_up_to_it():
    assert parse_spec_text(json.dumps({**LOOSE_ALGO, "max_iters": MAX_ITERS})).payload[1] == MAX_ITERS


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


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "report-file"])
def test_cli_algo_csv_that_cannot_be_written_leaves_no_report(tmp_path, capsys, to_file):
    report = tmp_path / "report.txt"
    argv = ["algo", "--spec", str(FIXTURES / "algo_finite_sum_c2.json"), "--csv", str(tmp_path / "missing" / "t.csv")]
    assert main(argv + (["--report", str(report)] if to_file else [])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "t.csv" in captured.err
    assert not report.exists()


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


def _series(errors, envelopes=None):
    return RunSeries(width=0.5, errors=list(errors), envelopes=list(errors if envelopes is None else envelopes))


def test_emit_csv_header_only(tmp_path):
    # a table with no runs writes only its "k" column head
    path = tmp_path / "empty.csv"
    emit_csv(ComparisonTable((), ()), path)
    assert path.read_text(encoding="utf-8") == "k\n"


def test_emit_csv_tight_run(tmp_path, rng):
    from framesum import FiniteFrame, FrameBounds, run

    frame = FiniteFrame([[2, 0], [0, np.sqrt(2)], [0, np.sqrt(2)]])
    table = ComparisonTable(("t",), (run(frame, FrameBounds(4, 4), np.array([0.6, 0.8]), 20),))
    path = tmp_path / "tight.csv"
    emit_csv(table, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,err_t,env_t"
    assert lines[1] == "0,1,1"
    k1 = lines[2].split(",")
    assert float(k1[1]) <= 1e-12
    assert float(k1[2]) == 0.0


def test_emit_csv_deterministic_bytes(tmp_path):
    table = ComparisonTable(("x", "y"), (_series([1.0, 0.123456789012345], [1.0, 0.5]), _series([2.0])))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(table, p1)
    emit_csv(table, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text(encoding="utf-8") == "k,err_x,env_x,err_y,env_y\n0,1,1,2,2\n1,0.123456789012,0.5,,\n"


def _per_cell_csv(header, rows) -> str:
    """The CSV text as rendered one cell at a time, with a function call per
    cell: the reference the stretch-wise writer must match byte for byte."""

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
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
)


@st.composite
def csv_tables(draw):
    """A :class:`ComparisonTable` of 1-4 runs, 1-300 rows long, equal lengths
    allowed.  Each column repeats a short drawn list of cells to its length,
    which keeps long runs within hypothesis's draw budget."""
    series = []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.one_of(st.integers(1, 8), st.integers(1, 300)))
        cycles = [draw(st.lists(CSV_CELLS, min_size=1, max_size=8)) for _ in range(2)]
        errors, envelopes = ([cells[k % len(cells)] for k in range(length)] for cells in cycles)
        series.append(_series(errors, envelopes))
    return ComparisonTable(tuple(f"r{i}" for i in range(len(series))), tuple(series))


def _table(*columns):
    return ComparisonTable(tuple(f"r{i}" for i in range(len(columns))), tuple(_series(c) for c in columns))


@given(table=csv_tables())
@example(table=_table([1.0, 0.5, 0.25], [1.0, np.float64(0.25)]))
@example(table=_table(EDGE_FLOATS + [-5e-324, np.float32(0.1)]))
# a run that stops 100 rows before the other
@example(table=_table([0.9**k for k in range(200)], [0.95**k for k in range(300)]))
# three runs of distinct lengths: two stretches write padding through %.0s
@example(table=_table([0.5**k for k in range(4)], [0.7**k for k in range(9)], [0.6**k for k in range(6)]))
def test_emit_csv_matches_the_per_cell_writer_byte_for_byte(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    emit_csv(table, path)
    assert path.read_bytes() == _per_cell_csv(table.header, table.rows()).encode("utf-8")


def test_cli_algo_keeps_percent_signs_in_run_labels_out_of_the_template(tmp_path):
    # only a comma is refused in a label; the header is joined apart from the
    # body's % template, so a label such as "%s%d" is written as it is
    frame = {"vectors": [[1, 0], [0, 1], [1, 1]]}
    doc = {
        "kind": "algo",
        "runs": [{"label": "100%", "frame": frame}, {"label": "%s%d", "frame": frame, "bounds": [0.5, 4]}],
        "max_iters": 40,
    }
    spec, csv_path = tmp_path / "algo.json", tmp_path / "t.csv"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["algo", "--spec", str(spec), "--csv", str(csv_path), "--report", str(tmp_path / "r.txt")]) == 0
    text = csv_path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "k,err_100%,env_100%,err_%s%d,env_%s%d"
    table = run_experiment(parse_spec(spec), 0).csv
    assert isinstance(table, ComparisonTable)
    assert text == _per_cell_csv(table.header, table.rows())


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


def test_paper_suite_fixture_that_fails_to_parse_exits_one(tmp_path, capsys, monkeypatch):
    # a schema error anywhere under main is a message and exit 1, not a traceback
    import framesum.cli

    def parse(text, origin):
        raise SpecSchemaError("injected", field="kind")

    monkeypatch.setattr(framesum.cli, "parse_spec_text", parse)
    code = main(["paper-suite", "--out", str(tmp_path / "suite")])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", "error: kind: injected\n")


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_paper_suite_deterministic(tmp_path, capsys, flags):
    for out in ("one", "two"):
        assert main(["paper-suite", "--out", str(tmp_path / out), "--seed", "0", *flags]) == 0
        summary = (tmp_path / out / "summary.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == summary
        assert "13 pass, 6 flagged, 0 fail" in summary
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


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("document", bundled_fixture_names() + ["finite_sum_k16"])
def test_main_leaves_no_cycle_that_grows_with_the_document(tmp_path, document, mode):
    """Once a warm-up run of the same command has built the argument parser,
    a command leaves no unreachable object: every bundled fixture and a
    16-frame finite sum, in text and with ``--json``, and with ``--csv`` for
    ``algo``.  Nothing a command builds, report and CSV included, sits in a
    reference cycle, so reference counting frees it all when the command
    ends, also while the collector is paused."""
    if document in bundled_fixture_names():
        path, kind = FIXTURES / document, load_bundled_fixture(document).kind
    else:
        path, kind = _finite_sum_path(tmp_path, 16), "finite-sum"
    command = next(command for command, of in COMMANDS.items() if of == kind)
    argv = [command, "--spec", str(path), "--report", str(tmp_path / "report")] + mode
    if kind == "algo":
        argv += ["--csv", str(tmp_path / "table.csv")]
    assert main(argv) in (0, 2)
    gc.collect()
    main(argv)
    assert gc.collect() == 0


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
