"""Mutated bundled fixtures of every kind but ``gabor`` (``test_gabor.py`` has its
own document generator): parsing lets only a parse or schema error escape, a
run only a toolkit error, and a run that completes renders both reports."""

import copy
import json
import math

from hypothesis import given, settings, strategies as st

from framesum import FrameToolkitError, SpecParseError, SpecSchemaError
from framesum.cli import bundled_fixture_names, load_bundled_fixture
from framesum.experiments import parse_spec_text, run_experiment

DOCUMENTS = {
    spec.label: spec.document
    for spec in map(load_bundled_fixture, bundled_fixture_names())
    if spec.kind != "gabor"
}

#: values a mutation writes in place of a node: every JSON type, the float
#: range's edges, signed zero, and the non-finite values ``json`` reads back
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from(["", "best", "oracle", "F", "x"]),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308, -1.7e308, 10**400, math.nan, math.inf]),
    st.floats(-1e3, 1e3),
    st.sampled_from([[], {}, [0, 0], [[0, 0]], [1e308, 1e308]]),
)


def _paths(node, prefix=()):
    """Every path of keys and indices in a JSON tree, the root's included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _scaled(node, factor):
    if isinstance(node, float):
        return node * factor
    if isinstance(node, list):
        return [_scaled(child, factor) for child in node]
    if isinstance(node, dict):
        return {key: _scaled(child, factor) for key, child in node.items()}
    return node


@st.composite
def mutated_documents(draw):
    """A bundled fixture with one to three mutations: a node replaced, scaled by
    10^k (floats only, so that integer fields are not scaled into range), wrapped
    in an array, deleted, cut short or duplicated, or given an unknown field."""
    doc = copy.deepcopy(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path = paths[draw(st.integers(0, len(paths) - 1))]
        if not path:
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, node = path[-1], parent[path[-1]]
        action = draw(st.sampled_from(["replace", "scale", "wrap", "delete", "shorten", "duplicate", "extra"]))
        if action == "replace":
            parent[key] = copy.deepcopy(draw(LEAVES))  # the sampled arrays are shared
        elif action == "scale":
            parent[key] = _scaled(node, 10.0 ** draw(st.integers(-320, 300)))
        elif action == "wrap":
            parent[key] = [node]
        elif action == "delete":
            del parent[key]
        elif action == "shorten" and isinstance(node, list):
            parent[key] = node[: draw(st.integers(0, max(len(node) - 1, 0)))]
        elif action == "duplicate" and isinstance(node, list) and node:
            node.append(copy.deepcopy(node[draw(st.integers(0, len(node) - 1))]))
        elif action == "extra" and isinstance(node, dict):
            node["unknown"] = copy.deepcopy(draw(LEAVES))
    return doc


@settings(max_examples=400, deadline=2000)
@given(doc=mutated_documents())
def test_mutated_documents_raise_only_toolkit_errors(doc):
    try:
        spec = parse_spec_text(json.dumps(doc))
    except (SpecParseError, SpecSchemaError):
        return
    try:
        result = run_experiment(spec)
    except FrameToolkitError:
        return
    result.report_text()
    json.loads(result.report_json())
    assert result.status in ("pass", "flagged", "fail")
