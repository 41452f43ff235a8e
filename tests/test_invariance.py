"""Transformations the theory ignores must not move a verdict or a graph.

Whether a question can be paid for depends on utility only up to a
positive rescale and a per-state shift, on each action's question row
only up to a nonzero affine map, and not on the order of actions or
states.  Each test applies one such transformation to named and seeded
random bundles and requires the same verdict status and theorem, and an
adjacency graph with the same edges between the same labels.  On product
bundles the utility transformations act on each task's utility, and a
permutation of the global actions carries their task coordinates along.
"""

from __future__ import annotations

import numpy as np
import pytest

import elicitkit as ek
from conftest import build_chained_gauge_bundle

NAMED_PROBLEMS = (
    ek.make_quadratic_loss(4),
    ek.make_star(5, 0.3),
    ek.make_star(4, 0.6),
    ek.make_state_matching((0.7, 1.0, 1.3, 1.6)),
    ek.make_close_guess((1.0, 2.0, 3.0, 4.0, 5.0)),
    ek.make_cycle_rich_safe(),
)

QUESTIONS = (
    ("expected-payoff", {}),
    ("regret", {}),
    ("ex-post-optimality", {}),
    ("within-x", {"x": 0.25}),
    ("within-x", {"x": 1.0}),
)


def _named_bundles():
    bundles = [build_chained_gauge_bundle()]
    for problem in NAMED_PROBLEMS:
        for kind, params in QUESTIONS:
            try:
                question = ek.build_question(kind, problem, **params)
            except ValueError:  # within-x needs numeric labels
                continue
            bundles.append(ek.ProblemBundle(problem=problem, question=question))
    return bundles


def _random_bundles(count, seed):
    """Integer and one-decimal problems with aligned, perturbed and random questions."""
    rng = np.random.default_rng(seed)
    bundles = []
    for index in range(count):
        n_states, n_actions = int(rng.integers(4, 6)), int(rng.integers(3, 7))
        shape = (n_actions, n_states)
        if index % 2:
            u = np.round(rng.uniform(-1.0, 1.0, size=shape), 1)
        else:
            u = rng.integers(-3, 4, size=shape).astype(np.float64)
        kind = index % 3
        if kind == 2:
            x = rng.integers(-3, 4, size=shape).astype(np.float64)
        else:
            gamma = rng.choice([-2.0, -0.5, 1.0, 3.0], size=(n_actions, 1))
            d = rng.integers(-2, 3, size=n_states)
            x = gamma * (u + d) + rng.integers(-2, 3, size=(n_actions, 1))
            if kind == 1:  # a one-unit perturbation of one row
                x[int(rng.integers(n_actions))] += rng.integers(-1, 2, size=n_states)
        problem = ek.DecisionProblem(
            states=tuple(f"s{i}" for i in range(n_states)),
            actions=tuple(f"a{i}" for i in range(n_actions)),
            utility=u,
        )
        bundles.append(ek.ProblemBundle(problem=problem, question=ek.QuestionProfile(values=x)))
    return bundles


BUNDLES = _named_bundles() + _random_bundles(120, seed=2020)


def _rebuilt(bundle, utility=None, question=None, actions=None, states=None):
    problem = bundle.problem
    return ek.ProblemBundle(
        problem=ek.DecisionProblem(
            states=problem.states if states is None else states,
            actions=problem.actions if actions is None else actions,
            utility=problem.utility if utility is None else utility,
        ),
        question=ek.QuestionProfile(
            values=bundle.question.values if question is None else question
        ),
    )


def _edges(problem):
    graph = ek.adjacency_graph(problem)
    return {frozenset((graph.actions[i], graph.actions[j])) for i, j in graph.pairs.tolist()}


def _outcome(bundle):
    verdict = ek.decide_incentivizable(bundle)
    return verdict.status, verdict.theorem


def _assert_invariant(bundle, transformed, same_graph=True):
    assert _outcome(transformed) == _outcome(bundle)
    if same_graph:
        assert _edges(transformed.problem) == _edges(bundle.problem)


def test_the_bundles_reach_every_status_and_many_theorems():
    outcomes = {_outcome(bundle) for bundle in BUNDLES}
    assert {status for status, _ in outcomes} == {
        "incentivizable", "not_incentivizable", "inconclusive"
    }
    assert len({theorem for _, theorem in outcomes}) >= 6


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_a_positive_rescale_and_a_per_state_shift_of_utility(scale):
    rng = np.random.default_rng(int(scale * 1e3))
    for bundle in BUNDLES:
        size = 10.0 ** rng.uniform(0.0, 7.0)
        shift = scale * size * rng.choice([-1.0, 1.0], size=bundle.problem.n_states)
        utility = scale * bundle.problem.utility + shift
        _assert_invariant(bundle, _rebuilt(bundle, utility=utility))


def test_a_per_action_affine_re_gauge_of_the_question():
    rng = np.random.default_rng(5)
    for bundle in BUNDLES:
        n_actions = bundle.problem.n_actions
        size = 10.0 ** rng.uniform(-3.0, 3.0, size=(n_actions, 1))
        gamma = size * rng.choice([-1.0, 1.0], size=(n_actions, 1))
        kappa = rng.uniform(-10.0, 10.0, size=(n_actions, 1))
        question = gamma * bundle.question.values + kappa
        _assert_invariant(bundle, _rebuilt(bundle, question=question), same_graph=False)


def test_a_permutation_of_actions():
    rng = np.random.default_rng(6)
    for bundle in BUNDLES:
        order = rng.permutation(bundle.problem.n_actions)
        transformed = _rebuilt(
            bundle,
            utility=bundle.problem.utility[order],
            question=bundle.question.values[order],
            actions=tuple(bundle.problem.actions[i] for i in order),
        )
        _assert_invariant(bundle, transformed)


def test_a_permutation_of_states():
    rng = np.random.default_rng(7)
    for bundle in BUNDLES:
        order = rng.permutation(bundle.problem.n_states)
        transformed = _rebuilt(
            bundle,
            utility=bundle.problem.utility[:, order],
            question=bundle.question.values[:, order],
            states=tuple(bundle.problem.states[i] for i in order),
        )
        _assert_invariant(bundle, transformed)


# ---------------------------------------------------------------------------
# Pinned defects: an offset folded into a scale used to move these verdicts


@pytest.fixture(scope="module")
def within():
    problem = ek.make_quadratic_loss(4)
    question = ek.build_question("within-x", problem, x=0.25)
    return ek.ProblemBundle(problem=problem, question=question)


# The float-resolution rule is relative to the values, so a question
# scaled down whole stays decidable; at 1e-200 the collinear fit's d @ d
# would underflow to 0.
@pytest.mark.parametrize(
    "gamma, kappa",
    [(1e-6, 3.0), (1e-3, 3.0), (1e6, 0.0), (-2.0, 5.0), (1e-8, 0.0), (1e-12, 0.0), (1e-200, 0.0)],
)
def test_an_affine_map_of_the_within_x_question_stays_refuted(within, gamma, kappa):
    question = gamma * within.question.values + kappa
    verdict = ek.decide_incentivizable(_rebuilt(within, question=question))
    assert (verdict.status, verdict.theorem) == ("not_incentivizable", "tree-characterization")


def test_a_question_spread_within_float_resolution_is_inconclusive(within):
    question = 1e-8 * within.question.values + 3.0
    verdict = ek.decide_incentivizable(_rebuilt(within, question=question))
    assert (verdict.status, verdict.theorem) == ("inconclusive", "")
    assert verdict.note == (
        "the question's spread 6.000e-09 is within float resolution of its values"
    )
    # an exactly constant question still aligns trivially
    constant = _rebuilt(within, question=np.full_like(within.question.values, 0.1))
    verdict = ek.decide_incentivizable(constant)
    assert (verdict.status, verdict.theorem) == ("incentivizable", "global-alignment-sufficiency")
    assert verdict.certificate.trivial


@pytest.mark.parametrize("shift", [1e7, 1e9])
def test_a_large_utility_shift_keeps_the_edge_sets(within, shift):
    problems = {
        6: ek.make_quadratic_loss(6),
        15: ek.make_star(5, 0.3),
        10: ek.make_close_guess((1.0, 2.0, 3.0, 4.0, 5.0)),
    }
    for n_edges, problem in problems.items():
        want = _edges(problem)
        assert len(want) == n_edges
        shifted = ek.DecisionProblem(problem.states, problem.actions, problem.utility + shift)
        assert _edges(shifted) == want
    shifted = _rebuilt(within, utility=within.problem.utility + shift)
    assert _outcome(shifted) == ("not_incentivizable", "tree-characterization")


# ---------------------------------------------------------------------------
# Product bundles: the transformations act on the task utilities and keep
# the product structure


def _product_questions(problem, product):
    n_tasks = product.n_tasks
    for z in range(1, n_tasks + 1):
        yield ek.build_question("threshold", problem, product, z=float(z))
    for split in range(1, n_tasks):
        yield ek.build_question("improvement", problem, product, split=split)


def _weighted_products(count, seed):
    """Seeded products whose question is task-weighted by construction, some perturbed."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        tasks = []
        for _ in range(int(rng.integers(2, 4))):
            n_states, n_actions = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            tasks.append(ek.DecisionProblem(
                states=tuple(f"s{i}" for i in range(n_states)),
                actions=tuple(f"a{i}" for i in range(n_actions)),
                utility=rng.integers(-3, 4, size=(n_actions, n_states)).astype(np.float64),
            ))
        problem, product = ek.expand_product(tasks)
        tau = rng.integers(-2, 3, size=len(tasks))
        v = rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], size=(problem.n_actions, 1))
        core = rng.integers(-2, 3, size=problem.n_states) + sum(
            t * table for t, table in zip(tau, product.task_utility_tables())
        )
        x = rng.integers(-2, 3, size=(problem.n_actions, 1)) + v * core
        if index % 3 == 2:  # a one-unit perturbation of one row
            x[int(rng.integers(problem.n_actions))] += rng.integers(-1, 2, size=problem.n_states)
        yield problem, product, ek.QuestionProfile(values=x)


def _product_bundles():
    bundles = []
    for n_tasks, n_answers in ((2, 2), (3, 2), (4, 2), (3, 3)):
        problem, product = ek.make_mc_test(n_tasks, n_answers)
        for question in _product_questions(problem, product):
            bundles.append(ek.ProblemBundle(problem=problem, question=question, product=product))
    for problem, product, question in _weighted_products(18, seed=2121):
        bundles.append(ek.ProblemBundle(problem=problem, question=question, product=product))
    return bundles


PRODUCT_BUNDLES = _product_bundles()


def _product_rebuilt(bundle, tasks=None, question=None, order=None):
    """The bundle with new task utilities (expanded again), question or global action order."""
    product = bundle.product
    if tasks is not None:
        problem, product = ek.expand_product(tasks)
    else:
        problem = bundle.problem
    values = bundle.question.values if question is None else question
    if order is not None:
        problem = ek.DecisionProblem(
            states=problem.states,
            actions=tuple(problem.actions[i] for i in order),
            utility=problem.utility[order],
        )
        product = ek.ProductStructure(
            tasks=product.tasks,
            state_coords=product.state_coords,
            action_coords=tuple(product.action_coords[i] for i in order),
        )
        values = values[order]
    question = ek.QuestionProfile(values=values)
    return ek.ProblemBundle(problem=problem, question=question, product=product)


def _product_outcome(bundle):
    """Status, theorem and edges, from one adjacency graph."""
    graph = ek.adjacency_graph(bundle.problem)
    verdict = ek.decide_incentivizable(bundle, graph=graph)
    edges = {frozenset((graph.actions[i], graph.actions[j])) for i, j in graph.pairs.tolist()}
    return verdict.status, verdict.theorem, edges


@pytest.fixture(scope="module")
def product_outcomes():
    return [_product_outcome(bundle) for bundle in PRODUCT_BUNDLES]


def test_the_product_bundles_reach_every_status_and_the_product_theorem(product_outcomes):
    assert {status for status, _, _ in product_outcomes} == {
        "incentivizable", "not_incentivizable", "inconclusive"
    }
    assert "product-characterization" in {theorem for _, theorem, _ in product_outcomes}


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_a_rescale_and_per_state_shifts_of_the_task_utilities(product_outcomes, scale):
    rng = np.random.default_rng(int(scale * 1e3) + 1)
    for bundle, want in zip(PRODUCT_BUNDLES, product_outcomes):
        tasks = []
        for task in bundle.product.tasks:
            size = 10.0 ** rng.uniform(0.0, 7.0)
            shift = scale * size * rng.choice([-1.0, 1.0], size=task.n_states)
            utility = scale * task.utility + shift
            tasks.append(ek.DecisionProblem(task.states, task.actions, utility))
        assert _product_outcome(_product_rebuilt(bundle, tasks=tasks)) == want


def test_a_per_action_affine_re_gauge_of_a_product_question(product_outcomes):
    rng = np.random.default_rng(8)
    for bundle, (status, theorem, _) in zip(PRODUCT_BUNDLES, product_outcomes):
        n_actions = bundle.problem.n_actions
        size = 10.0 ** rng.uniform(-3.0, 3.0, size=(n_actions, 1))
        gamma = size * rng.choice([-1.0, 1.0], size=(n_actions, 1))
        kappa = rng.uniform(-10.0, 10.0, size=(n_actions, 1))
        question = gamma * bundle.question.values + kappa
        verdict = ek.decide_incentivizable(_product_rebuilt(bundle, question=question))
        # one question gauge per decision: a re-gauge may leave a pairwise
        # refutation borderline, but never turn it into another answer
        if theorem == "pairwise-necessity" and verdict.status == "inconclusive":
            continue
        assert (verdict.status, verdict.theorem) == (status, theorem)


def test_a_permutation_of_the_global_actions_and_their_coordinates(product_outcomes):
    rng = np.random.default_rng(9)
    for bundle, want in zip(PRODUCT_BUNDLES, product_outcomes):
        order = rng.permutation(bundle.problem.n_actions)
        assert _product_outcome(_product_rebuilt(bundle, order=order)) == want


@pytest.mark.parametrize("shift", [3e8, 1e9])
def test_a_large_task_shift_keeps_the_product_certificate(shift):
    # the task-weighted fit takes each table less its per-state mean, so
    # the shift does not swamp the basis
    problem, product = ek.make_mc_test(3, 2)
    question = ek.build_question("improvement", problem, product, split=1)
    steps = [shift * np.arange(task.n_states) for task in product.tasks]
    tasks = [
        ek.DecisionProblem(task.states, task.actions, task.utility + step)
        for task, step in zip(product.tasks, steps)
    ]
    shifted = _product_rebuilt(
        ek.ProblemBundle(problem=problem, question=question, product=product), tasks=tasks
    )
    status, theorem, edges = _product_outcome(shifted)
    assert len(edges) == 12
    assert (status, theorem) == ("incentivizable", "product-characterization")
