"""Shared builders and fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import elicitkit as ek
from elicitkit import _numerics, geometry


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


def foreign_graphs(problem: ek.DecisionProblem) -> list[ek.AdjacencyGraph]:
    """Adjacency graphs of two other problems: one on relabelled actions,
    one on the same actions over one more state."""
    n_states = problem.n_states + 1
    relabelled = ek.DecisionProblem(
        states=problem.states,
        actions=tuple(f"other {a}" for a in problem.actions),
        utility=problem.utility,
    )
    wider = ek.DecisionProblem(
        states=tuple(f"s{i}" for i in range(n_states)),
        actions=problem.actions,
        utility=np.random.default_rng(0).uniform(size=(problem.n_actions, n_states)),
    )
    return [ek.adjacency_graph(relabelled), ek.adjacency_graph(wider)]


@pytest.fixture(scope="session")
def ql4() -> ek.DecisionProblem:
    return ek.make_quadratic_loss(4)


@pytest.fixture(scope="session")
def within_bundle(ql4: ek.DecisionProblem) -> ek.ProblemBundle:
    question = ek.build_question("within-x", ql4, x=0.25)
    return ek.ProblemBundle(problem=ql4, question=question)


@pytest.fixture(scope="session")
def unsettled_bundle() -> ek.ProblemBundle:
    """A bundle decided on its graph, three of whose pairs need their LPs to build.

    Neither the non-adjacency screen nor an edge certificate settles the
    close-guess pairs (1, 3), (2, 4) and (3, 5).
    """
    problem = ek.make_close_guess([0.7, 1.0, 1.3, 1.6, 1.2])
    question = ek.build_question("within-x", problem, x=0.25)
    return ek.ProblemBundle(problem=problem, question=question)


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


def record_graph_lps(patch: pytest.MonkeyPatch, record) -> None:
    """Call ``record(target, tie_with)`` as each adjacency LP is solved.

    The geometry layer hands every adjacency LP, a graph's or one pair's,
    to ``_max_slack_programs``, which solves them in order, one
    ``_numerics._run`` each, and solves none after one that does not
    finish; so the ``k``-th run is the ``k``-th program.
    """
    real_programs = geometry._max_slack_programs
    real_run = _numerics._run

    def programs(utility, targets, ties):
        pending = zip(np.asarray(targets).tolist(), np.asarray(ties).tolist())

        def run(highs):
            record(*next(pending))
            return real_run(highs)

        with pytest.MonkeyPatch.context() as solving:
            solving.setattr(_numerics, "_run", run)
            return real_programs(utility, targets, ties)

    patch.setattr(geometry, "_max_slack_programs", programs)


@pytest.fixture
def geometry_lps(monkeypatch: pytest.MonkeyPatch) -> list[tuple]:
    """Record the ``(target, tie_with)`` of every LP the geometry layer solves, in solve order."""
    calls: list[tuple] = []
    record_graph_lps(monkeypatch, lambda target, tie_with: calls.append((target, tie_with)))
    return calls


@pytest.fixture
def stalled_lps():
    """Stop every LP of this thread's solver at an iteration limit of 0.

    Presolve is off too, so that no LP is settled before its first
    simplex iteration: each one ends with model status ``kIterationLimit``.
    """
    limited = _numerics._scipy_highs_options()
    limited.simplex_iteration_limit = 0
    limited.presolve = "off"
    solver = _numerics._solver()
    solver.passOptions(limited)
    try:
        yield
    finally:
        solver.passOptions(_numerics._HIGHS_OPTIONS)
