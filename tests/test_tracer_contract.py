"""The benchmark tracer's patch targets exist in framesum, and fire.

``perfbench/spans.py`` wraps framesum functions and methods by name.  A
refactor that renames or moves one of them should fail here, not later in a
traced benchmark run.  The tracer also reads what some calls return and that
they happen at all: ``algorithm.iterations`` is ``len(run(...)) - 1``, and
``algorithm.validate``, ``algorithm.table`` and ``cli.emit_csv`` are spans that
must fire on the algo path, or their metrics silently read 0; and every sum is
built and predicted through ``sums``, or ``sums.build`` and ``sums.predict``
miss it.
"""

import importlib
import json
import types
from collections import Counter
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans() -> types.ModuleType:
    # compiled from source, not imported, so no bytecode is written next to it
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in spans.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("module,cls,method", [(m, c, a) for m, c, a, _ in spans.METHODS])
def test_traced_method_resolves(module, cls, method):
    owner = getattr(importlib.import_module(module), cls, None)
    assert isinstance(owner, type), f"{module}.{cls}"
    # the tracer reads the method from the class's own namespace
    assert callable(vars(owner).get(method)), f"{module}.{cls}.{method}"


def test_run_length_is_iterations_plus_one():
    from framesum import FiniteFrame, FrameBounds, run

    frame = FiniteFrame([[1, 0], [0, 1], [1, 1]])
    assert len(run(frame, FrameBounds(0.5, 4), [1, 0], 7, stop_tol=0.0)) == 7 + 1
    assert len(run(FiniteFrame([[1, 0], [0, 1]]), FrameBounds(1, 1), [1, 0], 60)) == 1 + 1


def _count(monkeypatch, calls: Counter, owner, name, after=None):
    """Count the calls of ``owner.name`` in ``calls[name]``, patched like the
    tracer patches it: a function in every framesum namespace that imported it
    by name, a method on its class."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        result = original(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    owners = [owner] if isinstance(owner, type) else spans.framesum_namespaces()
    for ns in owners:
        for key, value in list(vars(ns).items()):
            if value is original:
                monkeypatch.setattr(ns, key, wrapper)


def test_one_cli_algo_run_calls_what_the_tracer_wraps(tmp_path, monkeypatch):
    import framesum.algorithm
    import framesum.cli

    calls, lengths = Counter(), []
    _count(monkeypatch, calls, framesum.algorithm, "validate_bounds_for_frame")
    _count(monkeypatch, calls, framesum.algorithm, "run", after=lambda result: lengths.append(len(result)))
    _count(monkeypatch, calls, framesum.algorithm.ComparisonTable, "rows")
    _count(monkeypatch, calls, framesum.cli, "emit_csv")

    frame = {"vectors": [[1, 0], [0, 1], [1, 1]]}
    doc = {
        "kind": "algo",
        "runs": [{"label": "oracle", "frame": frame}, {"label": "loose", "frame": frame, "bounds": [0.5, 4]}],
        "max_iters": 40,
    }
    spec, report = tmp_path / "algo.json", tmp_path / "report.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    code = framesum.cli.main(
        ["algo", "--spec", str(spec), "--report", str(report), "--json", "--csv", str(tmp_path / "t.csv")]
    )
    assert code == 0
    assert calls == {"validate_bounds_for_frame": 2, "run": 2, "rows": 1, "emit_csv": 1}
    runs = json.loads(report.read_text(encoding="utf-8"))["runs"]
    assert lengths == [entry["iterations"] + 1 for entry in runs]


#: a bundled sum fixture of each rule, and the builder its document calls
SUM_FIXTURE_BUILDERS = {
    "dual_sum_c3": "build_sum_frame",  # the dual sum is the finite sum with c = (1, 1)
    "finite_sum_c2": "build_sum_frame",
    "operator_sum_c2": "build_operator_sum_frame",
    "perturbed_sum_c2": "build_perturbed_sum_frame",
}


@pytest.mark.parametrize("fixture,builder", SUM_FIXTURE_BUILDERS.items(), ids=list(SUM_FIXTURE_BUILDERS))
def test_every_sum_is_built_and_predicted_in_sums(tmp_path, monkeypatch, fixture, builder):
    # the sums.build and sums.predict spans time only what reaches these names,
    # so a sum built or predicted outside sums would be missing from them
    import framesum.cli
    import framesum.sums
    from framesum.experiments import _KINDS

    calls = Counter()
    for module, name, _ in spans.FUNCTIONS:
        if module == "framesum.sums" and (name.startswith("build_") or name.endswith("_predict")):
            _count(monkeypatch, calls, framesum.sums, name)
    fixture_spec = framesum.cli.load_bundled_fixture(f"{fixture}.json")
    spec, report = tmp_path / f"{fixture}.json", tmp_path / "report.json"
    spec.write_text(json.dumps(fixture_spec.document), encoding="utf-8")
    command = _KINDS[fixture_spec.kind].command
    assert framesum.cli.main([command, "--spec", str(spec), "--report", str(report), "--json"]) == 0
    assert {name: n for name, n in calls.items() if name.startswith("build_")} == {builder: 1}
    assert sum(n for name, n in calls.items() if name.endswith("_predict")) >= 1


def test_grid_path_estimate_feeds_the_window_point_counter():
    # trace_check.py requires a positive gabor.window_points on gabor-windows,
    # which the tracer counts in PiecewiseGenerator.__call__: the grid path
    # must evaluate the window through that method
    import framesum.cli  # noqa: F401  (every module the tracer patches)
    from framesum.gabor import LatticeParams, PiecewiseGenerator, estimate_bounds

    window = PiecewiseGenerator([(0, 1, "sqrt-affine", 2, 0), (1, 2, "sqrt-affine", 4, -2)])
    tracer = spans.Tracer()
    tracer.install()
    try:
        estimate = estimate_bounds(window, LatticeParams(1, 0.6))
    finally:
        tracer.uninstall()
    assert not estimate.exact
    assert tracer.counts["window_points"] > 0
