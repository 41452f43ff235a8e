"""Shared builders and fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import elicitkit as ek
from elicitkit import geometry


def build_chained_gauge_bundle() -> ek.ProblemBundle:
    """Four-action guessing line whose question changes gauge at every edge.

    On each adjacent pair the question is an affine function of utility,
    but with a different multiplier pair per edge: (1, 1.5) on the first
    edge, (2, 3) on the second, (5, -2) on the third.  The offsets are
    solved backwards so that consecutive edges agree on their shared
    action, which makes the whole profile stitchable but leaves no
    single affine relation covering all four actions.
    """
    problem = ek.make_quadratic_loss(3)
    acts = list(problem.actions)
    u = {a: problem.utility_of(a) for a in acts}
    d0 = ek.project_zero_sum(np.array([0.1, -0.2, 0.3, -0.2]))
    x: dict[str, np.ndarray] = {}
    x[acts[0]] = u[acts[0]] + d0
    x[acts[1]] = 1.5 * (u[acts[1]] + d0) + 0.2
    d1 = (x[acts[1]] + 0.1) / 2.0 - u[acts[1]]
    x[acts[2]] = 3.0 * (u[acts[2]] + d1) + 0.4
    d2 = (x[acts[2]] - 0.25) / 5.0 - u[acts[2]]
    x[acts[3]] = -2.0 * (u[acts[3]] + d2) + 0.7
    question = ek.QuestionProfile(values=np.array([x[a] for a in acts]))
    return ek.ProblemBundle(problem=problem, question=question)


def decide_and_synthesize(bundle: ek.ProblemBundle) -> ek.ElicitationMethod:
    verdict = ek.decide_incentivizable(bundle)
    assert verdict.status == "incentivizable", verdict.to_dict()
    return ek.synthesize(bundle, verdict)


def random_validated_problems(
    count: int, seed: int, max_states: int = 6, max_actions: int = 6
) -> list[ek.DecisionProblem]:
    """Seeded random problems that pass validation (no redundancy, all rationalizable)."""
    rng = np.random.default_rng(seed)
    out: list[ek.DecisionProblem] = []
    attempts = 0
    while len(out) < count and attempts < 100 * count:
        attempts += 1
        n_states = int(rng.integers(2, max_states + 1))
        n_actions = int(rng.integers(2, max_actions + 1))
        utility = rng.uniform(0.0, 1.0, size=(n_actions, n_states))
        problem = ek.DecisionProblem(
            states=tuple(f"s{i}" for i in range(n_states)),
            actions=tuple(f"a{i}" for i in range(n_actions)),
            utility=utility,
        )
        if ek.validate_problem(problem).passed:
            out.append(problem)
    assert len(out) == count, f"only {len(out)} validated problems in {attempts} draws"
    return out


@pytest.fixture(scope="session")
def ql4() -> ek.DecisionProblem:
    return ek.make_quadratic_loss(4)


@pytest.fixture(scope="session")
def within_bundle(ql4: ek.DecisionProblem) -> ek.ProblemBundle:
    question = ek.build_question("within-x", ql4, x=0.25)
    return ek.ProblemBundle(problem=ql4, question=question)


@pytest.fixture(scope="session")
def chained_bundle() -> ek.ProblemBundle:
    return build_chained_gauge_bundle()


@pytest.fixture(scope="session")
def mc32_bundle() -> ek.ProblemBundle:
    problem, product = ek.make_mc_test(3, 2)
    question = ek.build_question("improvement", problem, product, split=1)
    return ek.ProblemBundle(problem=problem, question=question, product=product)


@pytest.fixture(scope="session")
def aligned_method(ql4: ek.DecisionProblem) -> ek.ElicitationMethod:
    bundle = ek.ProblemBundle(
        problem=ql4, question=ek.build_question("expected-payoff", ql4)
    )
    return decide_and_synthesize(bundle)


@pytest.fixture
def geometry_lps(monkeypatch: pytest.MonkeyPatch) -> list[tuple]:
    """Record the ``(target, tie_with)`` of every LP the geometry layer solves."""
    calls: list[tuple] = []
    real_lp = geometry.max_slack_lp

    def counting(utility, target, tie_with=None):
        calls.append((target, tie_with))
        return real_lp(utility, target, tie_with=tie_with)

    monkeypatch.setattr(geometry, "max_slack_lp", counting)
    return calls
