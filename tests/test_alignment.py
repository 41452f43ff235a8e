"""Alignment certificates, violations, and the incentivizability decision."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import foreign_graphs
from test_numerics import exact_nullspace, exact_rank

import elicitkit as ek
from elicitkit import alignment
from elicitkit._numerics import numerical_rank, project_rows, question_gauge


# ---------------------------------------------------------------------------
# Primitives


def test_payoff_delta_is_mean_removed(ql4):
    delta = ek.payoff_delta(ql4, "0", "0.25")
    # u(1/4) - u(0) = (-1/16, 1/16, 3/16, 5/16, 7/16), mean 3/16
    np.testing.assert_allclose(delta, [-0.25, -0.125, 0.0, 0.125, 0.25])


def test_questions_equivalent_recovers_affine_link():
    y = np.array([0.1, -0.4, 0.7, 0.0])
    gamma, kappa = ek.questions_equivalent(2.0 * y + 3.0, y)
    assert abs(gamma - 2.0) < 1e-12
    assert abs(kappa - 3.0) < 1e-12
    # far below 1, where y @ y underflows, the link is the same
    gamma, kappa = ek.questions_equivalent(1e-200 * (2.0 * y + 3.0), 1e-200 * y)
    assert abs(gamma - 2.0) < 1e-12
    assert abs(kappa / 1e-200 - 3.0) < 1e-12


def test_questions_equivalent_on_constants():
    gamma, kappa = ek.questions_equivalent([2.0, 2.0], [0.5, 0.5])
    assert gamma == 1.0
    assert abs(kappa - 1.5) < 1e-12


def test_questions_equivalent_requires_nonzero_gamma():
    # a constant cannot be an affine image of a non-constant with gamma != 0,
    # and unrelated directions are not equivalent at all
    assert ek.questions_equivalent([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]) is None
    assert ek.questions_equivalent([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]) is None
    assert ek.questions_equivalent([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) is None
    # the tolerance follows the spreads, not an offset or the values' size
    assert ek.questions_equivalent(np.array([0.0, 1.0, 0.0]) + 1e9, [1.0, 0.0, 0.0]) is None
    assert ek.questions_equivalent(1e-9 * np.array([0.0, 1.0, 0.0]), [1e-9, 0.0, 0.0]) is None


@pytest.mark.parametrize(
    "kind, rho, sigma",
    [("regret", -1.0, 1.0), ("expected-payoff", 1.0, 1.0)],
)
def test_pairwise_alignment_coefficients(ql4, kind, rho, sigma):
    question = ek.build_question(kind, ql4)
    result = ek.pairwise_alignment(ql4, question, "0", "0.25")
    assert result.aligned
    assert abs(result.rho - rho) < 1e-9
    assert abs(result.sigma - sigma) < 1e-9


def test_pairwise_alignment_detects_misalignment(within_bundle):
    problem = within_bundle.problem
    result = ek.pairwise_alignment(problem, within_bundle.question, "0.25", "0.5")
    assert not result.aligned
    assert result.residual > 1e-3


def _exact_pair_case(u, x):
    """The old float pairwise solver's six cases, decided over ``Fraction``.

    ``u`` and ``x`` hold the utility and question rows of ``(a, b)``.
    Returns the case and whether the pair has an alignment certificate.
    """

    def centered(row):
        row = [Fraction(float(v)) for v in row]
        mean = sum(row) / len(row)
        return [v - mean for v in row]

    xa, xb = centered(x[0]), centered(x[1])
    delta = [vb - va for va, vb in zip(centered(u[0]), centered(u[1]))]
    xa_zero, xb_zero = not any(xa), not any(xb)
    if xa_zero and xb_zero:
        return "both constant", True
    if not any(delta):
        return "payoff-equivalent", not (xa_zero or xb_zero) and exact_rank([xa, xb]) == 1
    if xa_zero:
        return "a constant", exact_rank([delta, xb]) == 1
    if xb_zero:
        return "b constant", exact_rank([delta, xa]) == 1
    if exact_rank([delta, xa]) == 2:
        return "general", exact_rank([delta, xa, xb]) == 2 and exact_rank([delta, xb]) == 2
    return "a on delta", exact_rank([delta, xb]) == 1


def _integer_pairs(count, seed):
    """Seeded integer pairs, with one-unit perturbations of some of them.

    The question is random, aligned by construction (trivial or not), or
    aligned with one row planted on the payoff difference or constant.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_states = int(rng.integers(2, 6))
        u = rng.integers(-3, 4, size=(2, n_states))
        if rng.random() < 0.2:  # payoff-equivalent actions
            u[1] = u[0] + int(rng.integers(-2, 3))
        d = rng.integers(-2, 3, size=n_states)
        kappa = rng.integers(-2, 3, size=(2, 1))
        gamma = rng.choice([-2, -1, 0, 1, 3], size=(2, 1))
        kind = int(rng.integers(5))
        if kind == 0:  # no structure
            x = rng.integers(-3, 4, size=(2, n_states))
        elif kind == 1:  # the nontrivial form
            x = gamma * (u + d) + kappa
        elif kind == 2:  # the trivial form
            x = gamma * d + kappa
        elif kind == 3:  # one row on the payoff difference
            x = gamma * (u + d) + kappa
            x[int(rng.integers(2))] = int(rng.choice([-2, 1, 3])) * (u[1] - u[0]) + kappa[0]
        else:  # one constant row
            x = gamma * (u + d) + kappa
            x[int(rng.integers(2))] = kappa[1]
        if rng.random() < 0.4:
            x[int(rng.integers(2)), int(rng.integers(n_states))] += int(rng.choice([-1, 1]))
        problem = ek.DecisionProblem(
            states=tuple(f"s{i}" for i in range(n_states)),
            actions=("a0", "a1"),
            utility=u.astype(float),
        )
        yield problem, ek.QuestionProfile(values=x.astype(float))


def test_pairwise_alignment_matches_the_exact_six_cases():
    outcomes = set()
    for problem, question in _integer_pairs(600, seed=171):
        case, want = _exact_pair_case(problem.utility, question.values)
        result = ek.pairwise_alignment(problem, question, "a0", "a1")
        assert result.aligned == want, (case, problem.utility, question.values)
        outcomes.add((case, want))
        if not want:
            continue
        xa, xb = project_rows(question.values)
        delta = ek.payoff_delta(problem, "a0", "a1")
        eps = alignment._eps(question.values, ek.ALIGN_RTOL)
        misfit = xb - result.rho * delta - result.sigma * xa
        assert float(np.abs(misfit).max()) <= alignment.ARBITER_FACTOR * eps
        assert result.sigma != 0.0
    # every case is reached, with both answers wherever both exist
    assert outcomes == {
        ("both constant", True),
        *((case, want) for case in (
            "payoff-equivalent", "a constant", "b constant", "general", "a on delta"
        ) for want in (True, False)),
    }


def _exact_global_alignment(u, x):
    """Whether ``x`` has an alignment certificate on the whole menu, over ``Fraction``.

    Returns the case that decides it and the answer.  Aligned exactly when
    every mean-free row is 0; or every row is nonzero and the rows have
    rank at most 1 (the trivial form); or the homogeneous system
    ``g(a) Xbar(a) = h ubar(a) + D`` with ``D`` mean-free has a solution
    whose ``h`` and whose ``g`` on every nonzero row are nonzero.  A
    generic point of the nullspace is such a solution unless one of those
    coordinates vanishes on the whole basis; then ``gamma = h / g`` and
    ``d = D / h``.
    """

    def centered(row):
        row = [Fraction(float(v)) for v in row]
        mean = sum(row) / len(row)
        return [v - mean for v in row]

    xbar, ubar = [centered(row) for row in x], [centered(row) for row in u]
    nonzero = [k for k, row in enumerate(xbar) if any(row)]
    if not nonzero:
        return "constant", True
    if len(nonzero) == len(xbar) and exact_rank(xbar) <= 1:
        return "collinear", True
    n_g, n_states = len(nonzero), len(xbar[0])
    n_unknowns = n_g + 1 + n_states
    system = []
    for k, (x_row, u_row) in enumerate(zip(xbar, ubar)):
        for s, (x_value, u_value) in enumerate(zip(x_row, u_row)):
            row = [Fraction(0)] * n_unknowns
            if k in nonzero:
                row[nonzero.index(k)] = x_value
            row[n_g] = -u_value
            row[n_g + 1 + s] = Fraction(-1)
            system.append(row)
    system.append([Fraction(0)] * (n_g + 1) + [Fraction(1)] * n_states)
    basis = exact_nullspace(system, n_unknowns)
    return "nullspace", all(any(v[j] for v in basis) for j in range(n_g + 1))


def _integer_menus(count, seed):
    """Seeded integer problems with 3-5 states and 3-6 actions.

    The question is random, aligned by construction, aligned with a
    planted constant row, or planted collinear (the trivial form, with one
    row constant on some draws); some get a one-unit perturbation.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_states, n_actions = int(rng.integers(3, 6)), int(rng.integers(3, 7))
        u = rng.integers(-3, 4, size=(n_actions, n_states))
        if rng.random() < 0.2:  # payoff-equivalent actions
            u[int(rng.integers(1, n_actions))] = u[0] + int(rng.integers(-2, 3))
        d = rng.integers(-2, 3, size=n_states)
        kappa = rng.integers(-2, 3, size=(n_actions, 1))
        gamma = rng.choice([-2, -1, 1, 3], size=(n_actions, 1))
        k = int(rng.integers(n_actions))
        kind = int(rng.integers(5))
        if kind == 0:  # no structure
            x = rng.integers(-3, 4, size=(n_actions, n_states))
        elif kind == 1:  # the nontrivial form
            x = gamma * (u + d) + kappa
        elif kind == 2:  # the nontrivial form with row k constant: d = -u(k)
            x = gamma * (u - u[k]) + kappa
        elif kind == 3:  # a constant row planted in the nontrivial form
            x = gamma * (u + d) + kappa
            x[k] = kappa[k]
        else:  # collinear rows: the trivial form
            x = gamma * d + kappa
            if rng.random() < 0.3:
                x[k] = kappa[k]
        if rng.random() < 0.4:
            x[int(rng.integers(n_actions)), int(rng.integers(n_states))] += int(rng.choice([-1, 1]))
        problem = ek.DecisionProblem(
            states=tuple(f"s{i}" for i in range(n_states)),
            actions=tuple(f"a{i}" for i in range(n_actions)),
            utility=u.astype(float),
        )
        yield problem, ek.QuestionProfile(values=x.astype(float))


def test_global_alignment_matches_the_exact_answer():
    outcomes = set()
    for problem, question in _integer_menus(360, seed=181):
        case, want = _exact_global_alignment(problem.utility, question.values)
        got = ek.alignment_on_set(problem, question)
        assert (got is not None) == want, (case, problem.utility, question.values)
        outcomes.add((case, want))
    # every case is reached, the nullspace one with both answers
    assert outcomes == {
        ("constant", True), ("collinear", True), ("nullspace", True), ("nullspace", False)
    }


def _exact_weighted_alignment(tables, x):
    """Whether ``x`` has a task-weighted certificate, over ``Fraction``.

    The global rule with the task tables ``Ubar_1 ... Ubar_I`` in place of
    ``ubar`` and ``tau`` in place of ``h``: aligned exactly when every
    mean-free row is 0, or ``g(a) Xbar(a) = sum_i tau_i Ubar_i(a) + D``
    with ``D`` mean-free has a solution whose ``g`` is nonzero on every
    nonzero row; ``tau`` may vanish.  ``D`` is eliminated: the value that
    solves the first row's equations is mean-free, so the other rows minus
    the first decide ``(g, tau)``.  Rows are scaled by the state count to
    integers, and the nullspace is that of the system's Gram matrix, the
    same over the rationals and small enough to reduce exactly.
    """
    n_states = x.shape[1]

    def centered(table):  # n_states times the mean-free rows
        whole = np.rint(table).astype(np.int64)
        assert (whole == table).all()
        return n_states * whole - whole.sum(axis=1, keepdims=True)

    xbar = centered(x)
    nonzero = np.flatnonzero(xbar.any(axis=1))
    if not nonzero.size:
        return "constant", True
    n_g, n_tasks = nonzero.size, len(tables)
    system = np.zeros((x.shape[0], n_states, n_g + n_tasks), dtype=np.int64)
    for col, a in enumerate(nonzero):
        system[a, :, col] = xbar[a]
    for i, table in enumerate(tables):
        system[:, :, n_g + i] = -centered(table)
    system = (system[1:] - system[0]).reshape(-1, n_g + n_tasks)
    gram = system.T @ system
    basis = exact_nullspace([[Fraction(int(v)) for v in row] for row in gram], len(gram))
    return "nullspace", all(any(v[j] for v in basis) for j in range(n_g))


def _integer_products(count, seed):
    """Seeded integer products of 2-3 tasks, each with 2-3 states and actions.

    The question is random, weighted-aligned by construction (``tau`` may
    be 0), aligned with the offset that makes one row constant, aligned
    with a constant row planted, or constant; some get a one-unit
    perturbation.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        tasks = []
        for _ in range(int(rng.integers(2, 4))):
            n_states, n_actions = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            tasks.append(ek.DecisionProblem(
                states=tuple(f"s{i}" for i in range(n_states)),
                actions=tuple(f"a{i}" for i in range(n_actions)),
                utility=rng.integers(-3, 4, size=(n_actions, n_states)).astype(float),
            ))
        problem, product = ek.expand_product(tasks)
        tables = product.task_utility_tables()
        n_actions, n_states = problem.utility.shape
        kappa = rng.integers(-2, 3, size=(n_actions, 1))
        tau = rng.integers(-2, 3, size=len(tasks))
        v = rng.choice([-2, -1, 1, 3], size=(n_actions, 1))
        core = rng.integers(-2, 3, size=n_states) + sum(t * table for t, table in zip(tau, tables))
        k = int(rng.integers(n_actions))
        kind = int(rng.integers(5))
        if kind == 0:  # no structure
            x = rng.integers(-3, 4, size=(n_actions, n_states))
        elif kind == 1:  # the weighted form
            x = kappa + v * core
        elif kind == 2:  # the weighted form with row k constant
            x = kappa + v * (core - core[k])
        elif kind == 3:  # a constant row planted in the weighted form
            x = kappa + v * core
            x[k] = kappa[k]
        else:  # every row constant
            x = np.repeat(kappa, n_states, axis=1)
        if rng.random() < 0.4:
            x[int(rng.integers(n_actions)), int(rng.integers(n_states))] += int(rng.choice([-1, 1]))
        yield problem, product, ek.QuestionProfile(values=x.astype(float))


def test_weighted_alignment_matches_the_exact_answer():
    outcomes = set()
    for problem, product, question in _integer_products(300, seed=191):
        case, want = _exact_weighted_alignment(product.task_utility_tables(), question.values)
        got = ek.weighted_alignment(problem, question, product)
        assert (got is not None) == want, (case, problem.utility, question.values)
        outcomes.add((case, want))
    # every case is reached, the nullspace one with both answers
    assert outcomes == {("constant", True), ("nullspace", True), ("nullspace", False)}


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 0, 2, 3)])
def test_pairwise_refutation_on_a_degenerate_gauge(order):
    # Xbar(a1) is exactly delta / 4 on the edge {a0, a1}, so every fit sets
    # a gamma to zero or infinity: a limit of aligned pairs, which is
    # borderline whichever action the edge names first
    utility = np.array([[0, -1, 0, -1], [-1, -2, 3, -2], [3, 2, -2, -1], [0, -3, -3, -3]])
    values = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [1, 1, 0, 1], [0, 0, 0, 0]])
    order = list(order)
    problem = ek.DecisionProblem(
        states=("s0", "s1", "s2", "s3"),
        actions=tuple(f"a{k}" for k in order),
        utility=utility[order].astype(float),
    )
    question = ek.QuestionProfile(values=values[order].astype(float))
    np.testing.assert_array_equal(
        project_rows(question.values)[order.index(1)],
        ek.payoff_delta(problem, "a0", "a1") / 4,
    )
    a, b = problem.actions[:2]
    assert not ek.pairwise_alignment(problem, question, a, b).aligned
    verdict = ek.decide_incentivizable(ek.ProblemBundle(problem=problem, question=question))
    assert verdict.status == "inconclusive"
    assert verdict.note == f"borderline misalignment on edge ({a}, {b})"


def _tree_bundles():
    """Trees with aligned, misaligned and partly perturbed questions."""
    rng = np.random.default_rng(172)
    problems = [(ek.make_quadratic_loss(n), True) for n in range(3, 9)]
    problems += [(ek.make_star(n, s), False) for n in (3, 5) for s in (0.6, 0.9)]
    for problem, numeric in problems:
        kinds = ["expected-payoff", "regret", "ex-post-optimality"]
        questions = [ek.build_question(kind, problem) for kind in kinds]
        if numeric:
            questions.append(ek.build_question("within-x", problem, x=0.25))
        for question in questions[:2]:  # one row off an aligned question
            values = question.values.copy()
            values[int(rng.integers(problem.n_actions))] += rng.integers(-1, 2, problem.n_states)
            questions.append(ek.QuestionProfile(values=values))
        for question in questions:
            yield problem, question


def test_piecewise_alignment_on_a_tree_fails_only_on_a_misaligned_edge():
    # so the tree step of decide_incentivizable always has an edge to name
    outcomes = set()
    for problem, question in _tree_bundles():
        graph = ek.adjacency_graph(problem)
        assert ek.classify_graph(graph).tree
        parts = ek.splitting_collection(graph).parts
        piecewise = ek.piecewise_alignment(problem, question, parts)
        misaligned = [
            not ek.pairwise_alignment(problem, question, edge.a, edge.b).aligned
            for edge in graph.edges
        ]
        assert (piecewise is None) == any(misaligned)
        outcomes.add((any(misaligned), all(misaligned)))
    # no edge, some edges and every edge misaligned
    assert outcomes == {(False, False), (True, False), (True, True)}


# ---------------------------------------------------------------------------
# Certificates


def test_alignment_certificate_for_expected_payoff(ql4):
    question = ek.build_question("expected-payoff", ql4)
    cert = ek.alignment_on_set(ql4, question)
    assert cert is not None
    assert not cert.trivial
    for action in ql4.actions:
        assert abs(cert.gamma_of(action) - 1.0) < 1e-9
    rebuilt = ek.reconstruct_question(ql4, cert)
    np.testing.assert_allclose(rebuilt, question.values, atol=1e-9)


def test_alignment_certificate_trivial_form():
    problem = ek.make_state_matching([1.0, 2.0])
    # rows proportional to a common direction, no utility content
    question = ek.QuestionProfile(values=[[1.0, 0.0], [2.0, 0.0]])
    cert = ek.alignment_on_set(problem, question)
    assert cert is not None
    assert cert.trivial
    rebuilt = ek.reconstruct_question(problem, cert)
    np.testing.assert_allclose(rebuilt, question.values, atol=1e-9)


def test_library_entry_points_reject_malformed_input(ql4):
    with pytest.raises(ValueError, match="matching length"):
        ek.questions_equivalent([1.0, 2.0], [1.0, 2.0, 3.0])
    question = ek.build_question("expected-payoff", ql4)
    with pytest.raises(ValueError, match="must not be empty"):
        ek.alignment_on_set(ql4, question, actions=())
    with pytest.raises(ValueError, match="no question"):
        ek.decide_incentivizable(ek.ProblemBundle(problem=ql4))


def test_alignment_on_set_returns_none_when_misaligned(within_bundle):
    cert = ek.alignment_on_set(within_bundle.problem, within_bundle.question)
    assert cert is None


def test_piecewise_alignment_certificates(chained_bundle):
    problem = chained_bundle.problem
    parts = [("0", "0.333333333333"), ("0.333333333333", "0.666666666667")]
    cert = ek.piecewise_alignment(problem, chained_bundle.question, parts)
    assert cert is not None
    assert cert.parts == tuple(parts)
    # the two edges carry different gauge ratios, 1.5 and 1.5 here but
    # against different offsets, so the certificates must differ in d
    d0 = np.asarray(cert.certificates[0].d)
    d1 = np.asarray(cert.certificates[1].d)
    assert float(np.abs(d0 - d1).max()) > 1e-3


def test_trivial_dependence_per_task():
    # with three answers the centered per-answer rows span a plane, so a
    # question built from task 1 alone is trivial in task 0 but not in task 1
    problem, product = ek.make_mc_test(2, 3)
    task1_only = ek.QuestionProfile(values=product.task_utility_tables()[1])
    assert ek.trivial_dependence(task1_only, product, 0)
    assert not ek.trivial_dependence(task1_only, product, 1)


def test_trivial_dependence_with_binary_answers_is_two_sided():
    # two answers per task leave only one centered direction per fiber,
    # which sits on a single line through the origin either way
    problem, product = ek.make_mc_test(2, 2)
    task1_only = ek.QuestionProfile(values=product.task_utility_tables()[1])
    assert ek.trivial_dependence(task1_only, product, 0)
    assert ek.trivial_dependence(task1_only, product, 1)


def test_weighted_alignment_for_improvement(mc32_bundle):
    cert = ek.weighted_alignment(
        mc32_bundle.problem, mc32_bundle.question, mc32_bundle.product
    )
    assert cert is not None
    np.testing.assert_allclose(cert.tau, [-1.0, 0.5, 0.5], atol=1e-9)
    # re-substitute: kappa(a) + v(a) * (d + sum_i tau_i u_i(a_i)) == X(a)
    coords = mc32_bundle.product.action_coord_array
    tables = mc32_bundle.product.task_utility_tables()
    for g, action in enumerate(mc32_bundle.problem.actions):
        core = np.asarray(cert.d, dtype=np.float64).copy()
        for i, table in enumerate(tables):
            core += cert.tau[i] * table[g]
        rebuilt = cert.kappa[g] + cert.v[g] * core
        np.testing.assert_allclose(
            rebuilt, mc32_bundle.question.values[g], atol=1e-8
        )
    assert coords.shape == (8, 3)


def test_weighted_alignment_rejects_threshold_two():
    problem, product = ek.make_mc_test(4, 2)
    question = ek.build_question("threshold", problem, product, z=2)
    assert ek.weighted_alignment(problem, question, product) is None


# ---------------------------------------------------------------------------
# The decision procedure


def test_decide_globally_aligned_question(ql4):
    bundle = ek.ProblemBundle(problem=ql4, question=ek.build_question("expected-payoff", ql4))
    verdict = ek.decide_incentivizable(bundle)
    assert verdict.status == "incentivizable"
    assert verdict.theorem == "global-alignment-sufficiency"
    assert verdict.certificate is not None
    assert verdict.violation is None


def test_decide_piecewise_aligned_question(chained_bundle):
    verdict = ek.decide_incentivizable(chained_bundle)
    assert verdict.status == "incentivizable"
    assert verdict.theorem == "piecewise-alignment-sufficiency"
    cert = verdict.certificate
    assert isinstance(cert, ek.PiecewiseCertificate)
    ratios = sorted(
        round(c.gamma[1] / c.gamma[0], 6) for c in cert.certificates
    )
    assert ratios == [-0.4, 1.5, 1.5]


def test_decide_within_x_on_a_tree(within_bundle):
    verdict = ek.decide_incentivizable(within_bundle)
    assert verdict.status == "not_incentivizable"
    assert verdict.theorem == "tree-characterization"
    assert verdict.violation.kind == "pairwise-misalignment"
    # the first edge whose residual is decisive (0.5), not the worst one
    assert verdict.violation.actions == ("0", "0.25")


def test_decide_reciprocal_gauge_on_state_matching():
    problem = ek.make_state_matching([0.7, 1.0, 1.3, 1.6])
    bundle = ek.ProblemBundle(
        problem=problem, question=ek.build_question("ex-post-optimality", problem)
    )
    verdict = ek.decide_incentivizable(bundle)
    assert verdict.status == "incentivizable"
    assert verdict.theorem == "global-alignment-sufficiency"
    for action, reward in zip(problem.actions, (0.7, 1.0, 1.3, 1.6)):
        assert abs(verdict.certificate.gamma_of(action) - 1.0 / reward) < 1e-9


def test_decide_ex_post_on_close_guess_is_impossible():
    problem = ek.make_close_guess([0.7, 1.0, 1.3, 1.6])
    bundle = ek.ProblemBundle(
        problem=problem, question=ek.build_question("ex-post-optimality", problem)
    )
    verdict = ek.decide_incentivizable(bundle)
    assert verdict.status == "not_incentivizable"
    assert verdict.theorem == "complete-graph-characterization"
    assert verdict.violation.kind == "global-misalignment"


def test_decide_product_routes(mc32_bundle):
    verdict = ek.decide_incentivizable(mc32_bundle)
    assert verdict.status == "incentivizable"
    assert verdict.theorem == "product-characterization"
    assert isinstance(verdict.certificate, ek.WeightedAlignmentCertificate)

    problem, product = ek.make_mc_test(4, 2)
    bundle = ek.ProblemBundle(
        problem=problem,
        question=ek.build_question("threshold", problem, product, z=2),
        product=product,
    )
    verdict = ek.decide_incentivizable(bundle)
    assert verdict.status == "not_incentivizable"
    assert verdict.theorem == "product-characterization"
    assert verdict.violation.kind == "weighted-misalignment"


def test_repeated_task_object_is_tested_once(geometry_lps):
    # mc-test uses one task object for all three tasks: 270 LPs for the
    # global graph, whose 81 certified edges are never read, and none for
    # that task's graph, whose 3 edges are all certified
    problem, product = ek.make_mc_test(3, 3)
    assert len(set(map(id, product.tasks))) == 1
    question = ek.build_question("improvement", problem, product, split=1)
    bundle = ek.ProblemBundle(problem=problem, question=question, product=product)
    verdict = ek.decide_incentivizable(bundle)
    assert verdict.status == "incentivizable"
    assert verdict.theorem == "product-characterization"
    assert len(geometry_lps) == 270


def test_decide_cycle_rich_necessity():
    problem = ek.make_cycle_rich_safe()
    values = problem.utility.copy()
    values[0] = values[0] + np.array([0.3, 0.0, -0.1, 0.0])
    bundle = ek.ProblemBundle(problem=problem, question=ek.QuestionProfile(values=values))
    verdict = ek.decide_incentivizable(bundle)
    assert verdict.status == "not_incentivizable"
    assert verdict.theorem == "cycle-rich-necessity"
    assert verdict.violation.kind == "global-misalignment"


def test_decide_pairwise_necessity_without_product_structure():
    # the same threshold question is undecidable through the product route
    # when the bundle does not carry the product decomposition; the cube
    # graph is neither a tree nor complete nor declared a product, and it
    # is not cycle-rich, so only the pairwise necessity argument fires
    problem, product = ek.make_mc_test(3, 2)
    question = ek.build_question("threshold", problem, product, z=2)
    bundle = ek.ProblemBundle(problem=problem, question=question)
    verdict = ek.decide_incentivizable(bundle)
    assert verdict.status == "not_incentivizable"
    assert verdict.theorem == "pairwise-necessity"
    assert verdict.violation.kind == "pairwise-misalignment"


def test_decide_complete_graph_without_independent_payoffs():
    # Four actions pairwise adjacent, but their payoff differences span only
    # two dimensions: x + y + z = 0 and c is constant.  The complete-graph
    # theorem does not apply, and pairwise necessity refutes instead.
    utility = np.array([[4, 4, -8, 0], [4, -8, 4, 0], [-8, 4, 4, 0], [1, 1, 1, 1]], float)
    problem = ek.DecisionProblem(("s0", "s1", "s2", "s3"), ("x", "y", "z", "c"), utility)
    assert ek.classify_graph(ek.adjacency_graph(problem)).kind == "complete"
    assert not alignment._complete_hypotheses(problem)
    values = np.random.default_rng(0).uniform(size=utility.shape)
    bundle = ek.ProblemBundle(problem=problem, question=ek.QuestionProfile(values=values))
    verdict = ek.decide_incentivizable(bundle)
    assert (verdict.status, verdict.theorem) == ("not_incentivizable", "pairwise-necessity")


def _three_task_product(third: ek.DecisionProblem) -> tuple[ek.DecisionProblem, ek.ProductStructure]:
    """Two binary tasks and ``third``: a 12-action product graph."""
    binary = ek.make_quadratic_loss(1)
    return ek.expand_product([binary, binary, third])


def test_decide_product_with_a_task_graph_that_is_not_complete():
    # M beats L and R wherever they tie, so the task graph is the path
    # L - M - R, though its payoff differences are independent: the product
    # theorem's hypotheses fail on a product-consistent graph.
    task = ek.DecisionProblem(
        ("t0", "t1", "t2"), ("L", "M", "R"), np.array([[1, 0, 0], [0.6, 0.5, 0.6], [0, 0, 1]])
    )
    assert ek.adjacency_graph(task).n_edges == 2
    assert alignment._affinely_independent(task, 3)
    assert not alignment._task_hypotheses(task)
    problem, product = _three_task_product(task)
    assert ek.classify_graph(ek.adjacency_graph(problem), product).kind == "product"
    values = np.random.default_rng(1).uniform(size=problem.utility.shape)
    bundle = ek.ProblemBundle(
        problem=problem, question=ek.QuestionProfile(values=values), product=product
    )
    verdict = ek.decide_incentivizable(bundle)
    assert (verdict.status, verdict.theorem) == ("not_incentivizable", "pairwise-necessity")


@pytest.fixture(scope="module")
def complete_task_product():
    """A product whose third task is complete, and its graph, built before any stall.

    Three pairs of that task's graph are neither screened nor certified.
    """
    problem, product = _three_task_product(ek.make_close_guess([0.7, 1.0, 1.3, 1.6, 1.2]))
    question = ek.build_question("improvement", problem, product, split=1)
    bundle = ek.ProblemBundle(problem=problem, question=question, product=product)
    return bundle, ek.adjacency_graph(problem)


def test_a_task_graph_lp_that_does_not_finish_leaves_the_verdict_inconclusive(
    complete_task_product, stalled_lps
):
    # The product graph is given, so the first LP is the third task's.
    bundle, graph = complete_task_product
    verdict = ek.decide_incentivizable(bundle, graph=graph)
    assert verdict.status == "inconclusive"
    assert re.fullmatch(r"the adjacency LP of .* did not finish: .*kIterationLimit", verdict.note)


def test_decide_inconclusive_with_few_states():
    problem = ek.make_state_matching([0.7, 1.0, 1.3])
    values = ek.build_question("ex-post-optimality", problem).values.copy()
    values[0] = [1.0, 0.3, -0.2]
    bundle = ek.ProblemBundle(problem=problem, question=ek.QuestionProfile(values=values))
    verdict = ek.decide_incentivizable(bundle)
    assert verdict.status == "inconclusive"
    assert "four states" in verdict.note


def test_decide_borderline_residual_is_inconclusive(ql4):
    # plant a misalignment whose residual sits between the certificate
    # tolerance and the violation threshold; the verdict must refuse to
    # call it either way
    eps_scale = 1e-8 * question_gauge(ql4.utility)
    noise = ek.project_zero_sum(np.array([1.0, -1.0, 0.5, -0.5, 0.0]))
    noise = noise / np.linalg.norm(noise)
    values = ql4.utility.copy()
    values[2] = values[2] + 50.0 * eps_scale * noise
    bundle = ek.ProblemBundle(problem=ql4, question=ek.QuestionProfile(values=values))
    verdict = ek.decide_incentivizable(bundle)
    assert verdict.status == "inconclusive"
    assert "borderline" in verdict.note


def test_verdict_serialization(within_bundle):
    verdict = ek.decide_incentivizable(within_bundle)
    data = verdict.to_dict()
    assert sorted(data) == ["certificate", "note", "status", "theorem", "violation"]
    assert data["violation"]["kind"] == "pairwise-misalignment"
    assert data["certificate"] is None


@pytest.mark.parametrize(
    "n_tasks, z", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (4, 4)]
)
def test_decide_product_refutation_reports_a_finite_residual(n_tasks, z):
    problem, product = ek.make_mc_test(n_tasks, 2)
    bundle = ek.ProblemBundle(
        problem=problem,
        question=ek.build_question("threshold", problem, product, z=float(z)),
        product=product,
    )
    verdict = ek.decide_incentivizable(bundle)
    assert verdict.status == "not_incentivizable"
    assert verdict.theorem == "product-characterization"
    assert math.isfinite(verdict.violation.residual)
    eps = alignment._eps(bundle.question.values, ek.ALIGN_RTOL)
    assert verdict.violation.residual > alignment.VIOLATION_FACTOR * eps
    assert '"weighted-misalignment"' in ek.canonical_dumps(verdict.to_dict())


# ---------------------------------------------------------------------------
# The shared pinned solver against the two block systems it replaced


def _reference_solve_alignment(problem, question, scope, eps):
    idx = [problem.action_index[a] for a in scope]
    x = question.values[idx]
    u = problem.utility[idx]
    n_states = problem.n_states
    xbar = project_rows(x)
    center = project_rows(u).mean(axis=0)  # the per-state shift d absorbs
    ubar = project_rows(u) - center
    x_means = x.mean(axis=1)
    u_means = u.mean(axis=1)
    row_norms = np.max(np.abs(xbar), axis=1)
    nonzero = row_norms > eps

    def check(cert):
        rebuilt = ek.reconstruct_question(problem, cert)
        residual = float(np.max(np.abs(rebuilt - x)))
        if residual <= alignment.ARBITER_FACTOR * eps:
            return (
                ek.AlignmentCertificate(
                    trivial=cert.trivial, scope=cert.scope, gamma=cert.gamma,
                    kappa=cert.kappa, d=cert.d, residual=residual,
                ),
                residual,
            )
        return None, residual

    if not nonzero.any():
        return check(ek.AlignmentCertificate(
            trivial=True, scope=scope, gamma=tuple(1.0 for _ in scope),
            kappa=tuple(float(m) for m in x_means),
            d=tuple(0.0 for _ in range(n_states)), residual=0.0,
        ))
    best_residual = float("inf")
    if nonzero.all() and numerical_rank(xbar) <= 1:
        anchor = int(np.argmax(row_norms))
        d = xbar[anchor]
        gammas = xbar @ d / float(d @ d)
        accepted, residual = check(ek.AlignmentCertificate(
            trivial=True, scope=scope, gamma=tuple(float(g) for g in gammas),
            kappa=tuple(float(m) for m in x_means), d=tuple(float(v) for v in d),
            residual=0.0,
        ))
        if accepted is not None:
            return accepted, residual
        best_residual = min(best_residual, residual)

    s_x = float(np.max(row_norms))
    s_u = max(float(np.max(np.abs(ubar))), 1e-30)
    xs = xbar / s_x
    us = ubar / s_u
    nz_list = [k for k in range(len(scope)) if nonzero[k]]
    anchors = sorted(nz_list, key=lambda k: -row_norms[k])
    for anchor in anchors[:2]:
        g_slots = {k: pos for pos, k in enumerate(k2 for k2 in nz_list if k2 != anchor)}
        n_g = len(g_slots)
        n_unknowns = n_g + 1 + n_states
        rows, rhs = [], []
        for k in range(len(scope)):
            block = np.zeros((n_states, n_unknowns))
            target = np.zeros(n_states)
            if k == anchor:
                target = -xs[k]
            elif nonzero[k]:
                block[:, g_slots[k]] = xs[k]
            block[:, n_g] = -us[k]
            block[:, n_g + 1 :] = -np.eye(n_states)
            rows.append(block)
            rhs.append(target)
        mean_row = np.zeros((1, n_unknowns))
        mean_row[0, n_g + 1 :] = 1.0
        rows.append(mean_row)
        rhs.append(np.zeros(1))
        system = np.vstack(rows)
        target_vec = np.concatenate([np.atleast_1d(r) for r in rhs])
        solution, *_ = np.linalg.lstsq(system, target_vec, rcond=None)
        h = float(solution[n_g])
        g = np.ones(len(scope))
        for k, pos in g_slots.items():
            g[k] = solution[pos]
        if abs(h) <= eps / s_x or np.any(np.abs(g[nonzero]) <= eps / s_x):
            best_residual = min(
                best_residual,
                float(np.max(np.abs(system @ solution - target_vec))) * s_x,
            )
            continue
        d_scaled = solution[n_g + 1 :] / h
        gamma = np.empty(len(scope))
        gamma[nonzero] = (h / g[nonzero]) * (s_x / s_u)
        d = d_scaled * s_u - center
        d = d - d.mean()
        for k in range(len(scope)):
            if not nonzero[k]:
                gamma[k] = s_x / s_u  # a constant row takes the ratio of scales
        kappa = x_means - gamma * u_means
        accepted, residual = check(ek.AlignmentCertificate(
            trivial=False, scope=scope, gamma=tuple(float(v) for v in gamma),
            kappa=tuple(float(v) for v in kappa), d=tuple(float(v) for v in d),
            residual=0.0,
        ))
        if accepted is not None:
            return accepted, residual
        best_residual = min(best_residual, residual)
    if not np.isfinite(best_residual):
        best_residual = float(np.max(np.abs(xbar)))
    return None, best_residual


def _reference_weighted_alignment(problem, question, product, tol=ek.ALIGN_RTOL):
    x = question.values
    xbar = project_rows(x)
    x_means = x.mean(axis=1)
    n_actions, n_states = x.shape
    eps = alignment._eps(x, tol)
    row_norms = np.max(np.abs(xbar), axis=1)
    nonzero = row_norms > eps
    tables = product.task_utility_tables()
    means = [t.mean(axis=1) for t in tables]
    centers = [project_rows(t).mean(axis=0) for t in tables]  # the per-state shifts d absorbs
    tables_bar = [project_rows(t) - center for t, center in zip(tables, centers)]
    n_tasks = product.n_tasks

    def finish(v, tau, d):
        base = sum(tau[i] * tables[i] for i in range(n_tasks))
        kappa = x_means - v * sum(tau[i] * means[i] for i in range(n_tasks))
        rebuilt = kappa[:, None] + v[:, None] * (d[None, :] + base)
        residual = float(np.max(np.abs(rebuilt - x)))
        if residual > alignment.ARBITER_FACTOR * eps:
            return None
        return ek.WeightedAlignmentCertificate(
            actions=problem.actions, v=tuple(float(t) for t in v),
            kappa=tuple(float(t) for t in kappa), tau=tuple(float(t) for t in tau),
            d=tuple(float(t) for t in d), residual=residual,
        )

    if not nonzero.any():
        return finish(np.ones(n_actions), np.zeros(n_tasks), np.zeros(n_states))
    if nonzero.all() and numerical_rank(xbar) <= 1:
        d = xbar[int(np.argmax(row_norms))]
        accepted = finish(xbar @ d / float(d @ d), np.zeros(n_tasks), d)
        if accepted is not None:
            return accepted
    s_x = float(np.max(row_norms))
    s_u = max(float(max(np.max(np.abs(t)) for t in tables_bar)), 1e-30)
    xs = xbar / s_x
    us = [t / s_u for t in tables_bar]
    nz_list = [k for k in range(n_actions) if nonzero[k]]
    for anchor in sorted(nz_list, key=lambda k: -row_norms[k])[:2]:
        g_slots = {k: pos for pos, k in enumerate(k2 for k2 in nz_list if k2 != anchor)}
        n_g = len(g_slots)
        n_unknowns = n_g + n_tasks + n_states
        blocks, rhs = [], []
        for k in range(n_actions):
            block = np.zeros((n_states, n_unknowns))
            target = np.zeros(n_states)
            if k == anchor:
                target = xs[k]
            elif nonzero[k]:
                block[:, g_slots[k]] = -xs[k]
            for i in range(n_tasks):
                block[:, n_g + i] = us[i][k]
            block[:, n_g + n_tasks :] = np.eye(n_states)
            blocks.append(block)
            rhs.append(target)
        mean_row = np.zeros((1, n_unknowns))
        mean_row[0, n_g + n_tasks :] = 1.0
        blocks.append(mean_row)
        rhs.append(np.zeros(1))
        solution, *_ = np.linalg.lstsq(np.vstack(blocks), np.concatenate(rhs), rcond=None)
        g = np.ones(n_actions)
        for k, pos in g_slots.items():
            g[k] = solution[pos]
        c = solution[n_g : n_g + n_tasks]
        c_ref = float(c[np.argmax(np.abs(c))])
        if abs(c_ref) <= eps / s_x or np.any(np.abs(g[nonzero]) <= eps / s_x):
            continue
        # tau's largest entry is +-1, and a constant row takes v * sign(c_ref) = s_x / s_u
        v = np.empty(n_actions)
        v[nonzero] = (abs(c_ref) / g[nonzero]) * (s_x / s_u)
        v[~nonzero] = np.sign(c_ref) * s_x / s_u
        tau = c / abs(c_ref)
        d = solution[n_g + n_tasks :] / abs(c_ref) * s_u - sum(
            tau[i] * centers[i] for i in range(n_tasks)
        )
        accepted = finish(v, tau, d - d.mean())
        if accepted is not None:
            return accepted
    return None


def _shape_question(rng, x, u):
    """Zero, duplicated or collinear rows planted in a question matrix."""
    x = x.copy()
    n_actions = x.shape[0]
    kind = int(rng.integers(4))
    k = int(rng.integers(n_actions))
    if kind == 0:  # a zero (constant) row
        x[k] = float(rng.integers(-2, 3))
    elif kind == 1:  # a duplicated row
        x[k] = x[int(rng.integers(n_actions))]
    elif kind == 2:  # rank one: every row a multiple of one direction
        x = rng.integers(-2, 3, size=(n_actions, 1)) * (u[k] - u[k].mean()) + rng.integers(
            -2, 3, size=(n_actions, 1)
        )
    return x


def _flat_cases(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_states, n_actions = int(rng.integers(2, 7)), int(rng.integers(2, 8))
        u = rng.integers(-3, 4, size=(n_actions, n_states)).astype(float)
        if rng.random() < 0.2:  # payoff-duplicate actions: rank-deficient utility rows
            u[int(rng.integers(n_actions))] = u[0] + float(rng.integers(-1, 2))
        gamma = rng.choice([-2.0, -0.5, 0.0, 1.0, 1.5, 3.0], size=(n_actions, 1))
        d = rng.integers(-2, 3, size=n_states)
        x = gamma * (u + d) + rng.integers(-2, 3, size=(n_actions, 1))
        if rng.random() < 0.3:
            x[int(rng.integers(n_actions))] += rng.integers(-1, 2, size=n_states)
        if rng.random() < 0.2:
            x = rng.integers(-3, 4, size=x.shape).astype(float)
        problem = ek.DecisionProblem(
            states=tuple(f"s{i}" for i in range(n_states)),
            actions=tuple(f"a{i}" for i in range(n_actions)),
            utility=u,
        )
        yield problem, ek.QuestionProfile(values=_shape_question(rng, x, u))


def _product_cases(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        tasks = []
        for _ in range(int(rng.integers(2, 4))):
            n_states, n_actions = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            tasks.append(ek.DecisionProblem(
                states=tuple(f"s{i}" for i in range(n_states)),
                actions=tuple(f"a{i}" for i in range(n_actions)),
                utility=rng.integers(-3, 4, size=(n_actions, n_states)).astype(float),
            ))
        problem, product = ek.expand_product(tasks)
        tables = product.task_utility_tables()
        tau = rng.integers(-2, 3, size=len(tasks))
        v = rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], size=(problem.n_actions, 1))
        core = rng.integers(-2, 3, size=problem.n_states) + sum(
            t * table for t, table in zip(tau, tables)
        )
        x = rng.integers(-2, 3, size=(problem.n_actions, 1)) + v * core
        if rng.random() < 0.3:
            x[int(rng.integers(problem.n_actions))] += rng.integers(-1, 2, size=problem.n_states)
        if rng.random() < 0.5:
            x = _shape_question(rng, x, problem.utility)
        yield problem, product, ek.QuestionProfile(values=x)


def test_global_alignment_matches_the_old_block_system(monkeypatch):
    # The pinned solve eliminates each g(a) in closed form, so its bits
    # differ from the block system's; every least-squares minimizer has the
    # same residual vector, so the answers agree to rounding.
    calls = []
    solver = alignment._pinned_alignment

    def counted(*args):
        calls.append(args[3])
        return solver(*args)

    monkeypatch.setattr(alignment, "_pinned_alignment", counted)
    found = second_anchor = 0
    for problem, question in _flat_cases(400, seed=61):
        calls.clear()
        eps = alignment._eps(question.values, ek.ALIGN_RTOL)
        got, got_residual = alignment._solve_alignment(problem, question, problem.actions, eps)
        want, want_residual = _reference_solve_alignment(problem, question, problem.actions, eps)
        assert (got is None) == (want is None)
        scale = 1.0 + float(np.abs(question.values).max())
        if got is not None:
            found += 1
            assert (got.trivial, got.scope) == (want.trivial, want.scope)
            for field in ("gamma", "kappa", "d"):
                np.testing.assert_allclose(
                    getattr(got, field), getattr(want, field), rtol=0, atol=1e-11 * scale
                )
        refuted = alignment.VIOLATION_FACTOR * eps
        assert abs(got_residual - want_residual) <= 1e-9 * scale or min(
            got_residual, want_residual
        ) > refuted
        second_anchor += len(calls) == 2
    # both outcomes, and the second anchor, are exercised
    assert 100 < found < 400
    assert second_anchor > 50


def _rescaled_aligned_cases(count, seed):
    """Aligned questions (d = 0) whose utility rows differ in scale by 1e4 to 1e6."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_states, n_actions = int(rng.integers(3, 6)), int(rng.integers(3, 7))
        u = rng.integers(-3, 4, size=(n_actions, n_states)).astype(float)
        u[:2, 0], u[:2, 1] = 1.0, -1.0  # the small rows are not constant
        scale = np.where(rng.random(n_actions) < 0.5, 10.0 ** -rng.uniform(4, 6), 1.0)
        scale[:2] = 10.0 ** -rng.uniform(4, 6)
        # the two small rows carry the largest question rows, so they are the anchors
        gamma = rng.choice([-2.0, -1.0, 1.0, 2.0], size=n_actions)
        gamma[:2] = rng.choice([-6.0, 6.0], size=2) * n_states
        u *= scale[:, None]
        x = (gamma / scale)[:, None] * u + rng.integers(-2, 3, size=(n_actions, 1))
        problem = ek.DecisionProblem(
            states=tuple(f"s{i}" for i in range(n_states)),
            actions=tuple(f"a{i}" for i in range(n_actions)),
            utility=u,
        )
        yield problem, ek.QuestionProfile(values=x)


def test_global_alignment_accepts_utility_rows_of_very_different_scales():
    # A solve through the normal equations loses the small rows' part of
    # h to cancellation here and refutes an aligned question decisively.
    for problem, question in _rescaled_aligned_cases(200, seed=63):
        eps = alignment._eps(question.values, ek.ALIGN_RTOL)
        got, got_residual = alignment._solve_alignment(problem, question, problem.actions, eps)
        want, _ = _reference_solve_alignment(problem, question, problem.actions, eps)
        assert want is not None
        assert got is not None, got_residual
        # the block system itself keeps only about eight digits of kappa here
        scale = 1.0 + float(np.abs(question.values).max())
        np.testing.assert_allclose(got.gamma, want.gamma, rtol=1e-6)
        np.testing.assert_allclose(got.kappa, want.kappa, rtol=0, atol=1e-6 * scale)


def test_weighted_alignment_matches_the_old_block_system():
    found = 0
    for problem, product, question in _product_cases(200, seed=62):
        got = ek.weighted_alignment(problem, question, product)
        want = _reference_weighted_alignment(problem, question, product)
        assert (got is None) == (want is None)
        if got is None:
            continue
        found += 1
        bound = 1e-12 * (1.0 + float(np.abs(question.values).max()))
        for field in ("v", "kappa", "tau", "d"):
            np.testing.assert_allclose(
                getattr(got, field), getattr(want, field), rtol=0, atol=bound
            )
        assert abs(got.residual - want.residual) <= bound
    assert 50 < found < 200


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
def test_decide_rejects_tolerances_that_are_not_finite_and_positive(within_bundle, tol):
    with pytest.raises(ValueError, match="finite and positive"):
        ek.decide_incentivizable(within_bundle, tol=tol)


# ---------------------------------------------------------------------------
# An LP that does not finish


def test_a_graph_lp_that_does_not_finish_leaves_the_verdict_inconclusive(
    unsettled_bundle, stalled_lps
):
    named = r"the adjacency LP of \(1, 3\) did not finish: .*kIterationLimit"
    verdict = ek.decide_incentivizable(unsettled_bundle)
    assert verdict.status == "inconclusive"
    assert re.fullmatch(named, verdict.note), verdict.note
    record = ek.oracle_cross_check(unsettled_bundle)
    assert record.verdict.to_dict() == verdict.to_dict()
    assert record.consistent
    with pytest.raises(ek.LPFailure, match=named):
        ek.adjacency_graph(unsettled_bundle.problem)


def test_a_certified_graph_decides_under_a_stalled_solver(within_bundle, stalled_lps):
    # Every pair of quadratic-loss(4) is screened or certified, so the
    # verdict needs no LP; the oracle's witness search meets the deferred
    # LPs only at the face beliefs, and records that search as inconclusive.
    verdict = ek.decide_incentivizable(within_bundle)
    assert (verdict.status, verdict.theorem) == ("not_incentivizable", "tree-characterization")
    record = ek.oracle_cross_check(within_bundle, spec=ek.GridSpec(denominator=1, samples=0))
    assert record.verdict.to_dict() == verdict.to_dict()
    assert record.consistent
    assert re.fullmatch(
        r"witness search inconclusive: the adjacency LP of \(0, 0\.25\) did not finish: "
        r".*kIterationLimit",
        record.detail,
    ), record.detail


def test_decide_refuses_a_graph_of_another_problem(within_bundle, ql4):
    # The graph is checked before the global alignment solve, so a globally
    # aligned bundle refuses another problem's graph too.
    aligned = ek.ProblemBundle(problem=ql4, question=ek.build_question("expected-payoff", ql4))
    assert ek.decide_incentivizable(aligned).theorem == "global-alignment-sufficiency"
    for bundle in (within_bundle, aligned):
        for graph in foreign_graphs(bundle.problem):
            with pytest.raises(ValueError, match="another problem's"):
                ek.decide_incentivizable(bundle, graph=graph)


def test_a_verdict_without_the_graph_ignores_a_stalled_solver(stalled_lps):
    problem = ek.make_quadratic_loss(4)
    bundle = ek.ProblemBundle(
        problem=problem, question=ek.build_question("expected-payoff", problem)
    )
    verdict = ek.decide_incentivizable(bundle)
    assert (verdict.status, verdict.theorem) == ("incentivizable", "global-alignment-sufficiency")
    # The oracle agrees with that verdict, and only its sweep, which needs
    # the graph, is left undone.
    record = ek.oracle_cross_check(bundle)
    assert record.verdict.to_dict() == verdict.to_dict()
    assert record.consistent
    assert re.fullmatch(
        r"sweep inconclusive: the adjacency LP of \([\d.]+, [\d.]+\) did not finish: "
        r".*kIterationLimit.*",
        record.detail,
    ), record.detail
