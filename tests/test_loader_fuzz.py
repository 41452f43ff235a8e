"""Fuzzing the bundle and mechanism loaders with mutated valid payloads.

Every mutation of a valid payload must either load or raise the loader's
own format error, so the CLI can report it in one line.
"""

from __future__ import annotations

import copy
import json
from typing import Any, Iterator

from hypothesis import given, settings, strategies as st

import elicitkit as ek

fuzz = settings(max_examples=300, deadline=None, derandomize=True)

# Stand-ins for a dropped type: wrong scalars, containers, non-finite and
# out-of-range numbers (9 and -1 also hit product coordinates).
_JUNK = (
    None,
    True,
    "x",
    0,
    -1,
    9,
    1.5,
    1e308,
    float("nan"),
    float("inf"),
    float("-inf"),
    10**400,
    [],
    {},
    [[]],
    [1, 2],
    {"a": 1},
)


def _bundles() -> list[dict[str, Any]]:
    flat = ek.make_state_matching([1.0, 2.0])
    problem, product = ek.make_mc_test(2, 2)
    bundles = [
        ek.ProblemBundle(problem=flat, question=ek.build_question("regret", flat)),
        ek.ProblemBundle(
            problem=problem,
            question=ek.build_question("threshold", problem, product, z=2),
            product=product,
            metadata={"note": "fuzz"},
        ),
    ]
    return [json.loads(ek.dumps_bundle(b)) for b in bundles]


def _mechanisms() -> list[dict[str, Any]]:
    problem = ek.make_state_matching([1.0, 2.0, 3.0])
    bundle = ek.ProblemBundle(
        problem=problem, question=ek.build_question("ex-post-optimality", problem)
    )
    method = ek.synthesize(bundle, ek.decide_incentivizable(bundle))
    control = ek.make_naive_bdm(problem, bundle.question)
    return [json.loads(ek.dumps_method(m)) for m in (method, control)]


BUNDLES = _bundles()
MECHANISMS = _mechanisms()


def _paths(node: Any, prefix: tuple[Any, ...] = ()) -> Iterator[tuple[Any, ...]]:
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


@st.composite
def mutated(draw: st.DrawFn, bases: list[dict[str, Any]]) -> Any:
    """A valid payload after one to three drops, type swaps or ragged edits."""
    data: Any = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(data) if p]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = draw(st.sampled_from(("drop", "swap", "ragged")))
        target = parent[key]
        if op == "drop":
            del parent[key]
        elif op == "ragged" and isinstance(target, list) and target:
            if draw(st.booleans()):
                target.pop()
            else:
                target.append(copy.deepcopy(target[0]))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(_JUNK)))
    return data


@fuzz
@given(mutated(BUNDLES))
def test_bundle_loader_returns_a_bundle_or_a_format_error(data):
    try:
        bundle = ek.loads_bundle(json.dumps(data))
    except ek.BundleFormatError:
        return
    assert isinstance(bundle, ek.ProblemBundle)


@fuzz
@given(mutated(MECHANISMS))
def test_mechanism_loader_returns_a_mechanism_or_a_format_error(data):
    try:
        method = ek.loads_method(json.dumps(data))
    except ek.MechanismFormatError:
        return
    assert isinstance(method, ek.ElicitationMethod)


def test_fuzz_bases_load():
    for data in BUNDLES:
        assert isinstance(ek.loads_bundle(json.dumps(data)), ek.ProblemBundle)
    for data in MECHANISMS:
        assert isinstance(ek.loads_method(json.dumps(data)), ek.ElicitationMethod)
