"""Golden bytes: one payload of each result type and status, in both output formats.

``tests/golden/<case>.json`` holds the canonical JSON of each case below
and ``<case>.md`` its markdown, rendered as the CLI renders a command's
payload, under the case's title.  A change to how any result record
serializes, its key order included, shows up here as a byte difference.
``tests/golden/mechanism-<kind>.json`` holds the ``dumps_method`` bytes of
an aligned, a trivially aligned and a product mechanism.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

import elicitkit as ek
from conftest import build_chained_gauge_bundle
from elicitkit import verify
from elicitkit.cli import MD_LIST_ITEMS, _render

GOLDEN = Path(__file__).parent / "golden"

#: A sweep small enough to keep each case fast.
SMALL = ek.GridSpec(denominator=6, samples=50)


def _bundle(problem: ek.DecisionProblem, kind: str, product=None, **params) -> ek.ProblemBundle:
    question = ek.build_question(kind, problem, product, **params)
    return ek.ProblemBundle(problem=problem, question=question, product=product)


def _aligned() -> ek.ProblemBundle:
    return _bundle(ek.make_quadratic_loss(4), "expected-payoff")


def _within() -> ek.ProblemBundle:
    return _bundle(ek.make_quadratic_loss(4), "within-x", x=0.25)


def _few_states() -> ek.ProblemBundle:
    """Three states: no sufficiency certificate and no necessity test applies."""
    return _bundle(ek.make_quadratic_loss(2), "within-x", x=0.5)


def _mc_test(kind: str, with_product: bool = True, **params) -> ek.ProblemBundle:
    problem, product = ek.make_mc_test(3, 2)
    bundle = _bundle(problem, kind, product, **params)
    return bundle if with_product else ek.ProblemBundle(problem=problem, question=bundle.question)


def _cycle_rich() -> ek.ProblemBundle:
    problem = ek.make_cycle_rich_safe()
    values = problem.utility.copy()
    values[0] = values[0] + np.array([0.3, 0.0, -0.1, 0.0])
    return ek.ProblemBundle(problem=problem, question=ek.QuestionProfile(values=values))


def _check(bundle: ek.ProblemBundle) -> tuple[dict[str, Any], str]:
    return ek.decide_incentivizable(bundle).to_dict(), "check"


def _verify(bundle: ek.ProblemBundle, method: ek.ElicitationMethod) -> tuple[dict[str, Any], str]:
    return ek.verify_incentivizability(bundle, method, SMALL).to_dict(), "verify"


def _witness(bundle: ek.ProblemBundle, method: ek.ElicitationMethod, spec=ek.GridSpec()):
    witness = ek.find_distortion_witness(bundle, method, spec)
    return {"witness": None if witness is None else witness.to_dict()}, "witness"


def _synthesized(bundle: ek.ProblemBundle) -> ek.ElicitationMethod:
    return ek.synthesize(bundle, ek.decide_incentivizable(bundle))


def _naive(bundle: ek.ProblemBundle) -> ek.ElicitationMethod:
    return ek.make_naive_bdm(bundle.problem, bundle.question, bundle.alpha)


def _cross_check(bundle: ek.ProblemBundle) -> tuple[dict[str, Any], str]:
    return ek.oracle_cross_check(bundle, spec=SMALL).to_dict(), "cross-check"


def _cross_check_without_witness() -> tuple[dict[str, Any], str]:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "find_distortion_witness", lambda *args: None)
        return _cross_check(_within())


CASES: dict[str, Callable[[], tuple[dict[str, Any], str]]] = {
    "check-global-alignment": lambda: _check(_aligned()),
    "check-piecewise-alignment": lambda: _check(build_chained_gauge_bundle()),
    "check-product-weighted": lambda: _check(_mc_test("improvement", split=1)),
    "check-product-refuted": lambda: _check(_mc_test("threshold", z=2)),
    "check-tree": lambda: _check(_within()),
    "check-complete-graph": lambda: _check(
        _bundle(ek.make_close_guess([0.7, 1.0, 1.3, 1.6]), "ex-post-optimality")
    ),
    "check-cycle-rich": lambda: _check(_cycle_rich()),
    "check-pairwise": lambda: _check(_mc_test("threshold", with_product=False, z=2)),
    "check-inconclusive": lambda: _check(_few_states()),
    "verify-passed": lambda: _verify(_aligned(), _synthesized(_aligned())),
    "verify-failed": lambda: _verify(_within(), _naive(_within())),
    "witness-found": lambda: _witness(_within(), _naive(_within())),
    "witness-none": lambda: _witness(_aligned(), _synthesized(_aligned()), SMALL),
    "cross-check-incentivizable": lambda: _cross_check(_aligned()),
    "cross-check-not-incentivizable": lambda: _cross_check(_within()),
    "cross-check-no-witness": _cross_check_without_witness,
    "cross-check-inconclusive": lambda: _cross_check(_few_states()),
}


def _recorded(case: str, suffix: str) -> str:
    return (GOLDEN / f"{case}.{suffix}").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_payload_bytes_equal_the_recorded_ones(case):
    payload, title = CASES[case]()
    assert ek.canonical_dumps(payload) == _recorded(case, "json")
    assert _render(payload, "md", title) == _recorded(case, "md")


def _trivially_aligned() -> ek.ProblemBundle:
    """Every row an affine image of one state vector: a trivial certificate."""
    gamma = np.array([1.0, -2.0, 0.5, 3.0, 1.5])
    kappa = np.array([0.1, 0.2, -0.3, 0.0, 0.7])
    d = np.array([0.3, -0.1, 0.2, -0.4, 0.0])
    values = gamma[:, None] * d + kappa[:, None]
    return ek.ProblemBundle(
        problem=ek.make_quadratic_loss(4), question=ek.QuestionProfile(values=values)
    )


MECHANISMS: dict[str, tuple[Callable[[], ek.ProblemBundle], str]] = {
    "mechanism-aligned": (_aligned, "aligned-bdm"),
    "mechanism-trivially-aligned": (_trivially_aligned, "aligned-bdm"),
    "mechanism-product": (lambda: _mc_test("improvement", split=1), "product-bdm"),
}


@pytest.mark.parametrize("case", sorted(MECHANISMS))
def test_mechanism_bytes_equal_the_recorded_ones(case):
    build, provenance = MECHANISMS[case]
    method = _synthesized(build())
    assert method.provenance == provenance
    assert ek.dumps_method(method) == _recorded(case, "json")


def test_the_cases_cover_every_status_and_certificate():
    verdicts = [json.loads(_recorded(case, "json")) for case in CASES if case.startswith("check-")]
    kinds = {v["certificate"]["type"] for v in verdicts if v["certificate"]}
    assert kinds == {"alignment", "piecewise-alignment", "weighted-alignment"}
    statuses = {v["status"] for v in verdicts}
    assert statuses == {"incentivizable", "not_incentivizable", "inconclusive"}
    assert len(json.loads(_recorded("verify-failed", "json"))["failures"]) > MD_LIST_ITEMS
