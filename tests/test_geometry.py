"""Belief geometry: projections, adjacency, classification, cycles."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import elicitkit as ek
from conftest import foreign_graphs, random_validated_problems, record_graph_lps
from elicitkit import _numerics, geometry


# ---------------------------------------------------------------------------
# Beliefs and projections


def test_project_zero_sum_removes_the_mean():
    out = ek.project_zero_sum((1.0, 0.0, 0.0, 0.0))
    np.testing.assert_allclose(out, [0.75, -0.25, -0.25, -0.25])
    assert abs(out.sum()) < 1e-12


def test_belief_validation():
    good = ek.Belief(probs=(0.5, 0.5))
    assert good.probs.tolist() == [0.5, 0.5]
    with pytest.raises(ValueError):
        ek.Belief(probs=(0.5, 0.6))
    with pytest.raises(ValueError):
        ek.Belief(probs=(-0.1, 1.1))
    with pytest.raises(ValueError):
        ek.Belief(probs=(0.5, float("nan")))
    with pytest.raises(ValueError, match="must be a vector"):
        ek.Belief(probs=np.eye(2) / 2.0)


def test_belief_from_array_normalizes():
    belief = ek.Belief.from_array([2.0, 2.0, 0.0])
    np.testing.assert_allclose(belief.probs, [0.5, 0.5, 0.0])
    with pytest.raises(ValueError):
        ek.Belief.from_array([0.0, 0.0])


def test_belief_probs_read_only():
    belief = ek.Belief(probs=(0.25, 0.75))
    with pytest.raises(ValueError):
        belief.probs[0] = 1.0


# ---------------------------------------------------------------------------
# Optimal actions


def test_optimal_actions_on_the_guessing_line(ql4):
    # At p = (1/2, 0, 0, 0, 1/2) expected loss is minimized by the midpoint:
    # EU(a) = -(a^2 + (a-1)^2)/2, best at a = 1/2 with EU = -1/4.
    picked = ek.optimal_actions(ql4, (0.5, 0.0, 0.0, 0.0, 0.5))
    assert picked == ("0.5",)


def test_optimal_actions_reports_ties():
    problem = ek.make_state_matching([1.0, 1.0])
    assert ek.optimal_actions(problem, (0.5, 0.5)) == ("1", "2")


def test_optimal_actions_matches_brute_force(ql4):
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = rng.dirichlet(np.ones(ql4.n_states))
        values = ql4.utility @ p
        best = values.max()
        brute = tuple(
            ql4.actions[i]
            for i in range(ql4.n_actions)
            if values[i] >= best - 1e-7 * (1.0 + abs(best))
        )
        assert ek.optimal_actions(ql4, p) == brute


# ---------------------------------------------------------------------------
# Adjacency


def test_adjacency_on_the_guessing_line(ql4):
    near = ek.adjacency_test(ql4, "0", "0.25")
    far = ek.adjacency_test(ql4, "0", "0.5")
    assert near.adjacent
    assert not far.adjacent
    # the witness belief must make exactly this pair optimal
    assert set(ek.optimal_actions(ql4, near.witness.probs)) == {"0", "0.25"}


def test_adjacency_is_symmetric(ql4):
    ab = ek.adjacency_test(ql4, "0.25", "0.5")
    ba = ek.adjacency_test(ql4, "0.5", "0.25")
    assert ab.adjacent == ba.adjacent
    assert abs(ab.slack - ba.slack) <= 1e-9


def test_adjacency_rejects_identical_actions(ql4):
    with pytest.raises(ValueError):
        ek.adjacency_test(ql4, "0", "0")


def test_graph_shapes_for_the_generators():
    line = ek.adjacency_graph(ek.make_quadratic_loss(2))
    assert line.n_edges == 2
    assert line.has_edge("0", "0.5") and line.has_edge("0.5", "1")

    star = ek.adjacency_graph(ek.make_star(3, 0.6))
    assert star.n_edges == 3
    assert all("safe" in (e.a, e.b) for e in star.edges)

    square = ek.adjacency_graph(ek.make_mc_test(2, 2)[0])
    assert square.n_edges == 4


def test_graph_edge_witnesses_reverify():
    problem = ek.make_star(4, 0.6)
    graph = ek.adjacency_graph(problem)
    for edge in graph.edges:
        optimal = set(ek.optimal_actions(problem, edge.witness.probs))
        assert optimal == {edge.a, edge.b}, (edge.a, edge.b, optimal)


def test_graph_to_dict_shape(ql4):
    data = ek.adjacency_graph(ql4).to_dict()
    assert sorted(data) == ["edges", "nodes"]
    assert data["nodes"] == list(ql4.actions)
    first = data["edges"][0]
    assert sorted(first) == ["a", "b", "slack", "witness"]
    assert abs(sum(first["witness"]) - 1.0) < 1e-9
    # plain lists, as every other payload holds
    assert all(type(edge["witness"]) is list for edge in data["edges"])


def test_induced_subgraph_keeps_the_real_edges():
    problem = ek.make_cycle_rich_safe()
    graph = ek.adjacency_graph(problem)
    members = ("safe", "theta1", "theta0", "theta3")
    sub = graph.induced(members)
    assert sub.actions == members
    assert {frozenset((e.a, e.b)) for e in sub.edges} == {
        frozenset(pair)
        for pair in [
            ("theta0", "theta3"), ("theta0", "safe"), ("theta1", "theta3"),
            ("theta1", "safe"), ("theta3", "safe"),
        ]
    }
    # the full graph's edges, witnesses and slacks bit for bit
    full = {(e.a, e.b): (e.slack.hex(), e.witness.probs.tobytes()) for e in graph.edges}
    assert all(full[e.a, e.b] == (e.slack.hex(), e.witness.probs.tobytes()) for e in sub.edges)
    for edge in sub.edges:
        assert set(ek.optimal_actions(problem, edge.witness.probs)) == {edge.a, edge.b}
    # and its face anchors
    anchors = {(e.a, e.b): anchor.tobytes() for e, anchor in zip(graph.edges, graph.anchors)}
    for edge, anchor in zip(sub.edges, sub.anchors):
        assert anchors[edge.a, edge.b] == anchor.tobytes()
        assert set(ek.optimal_actions(problem, anchor)) == {edge.a, edge.b}
    assert not sub.has_edge("theta0", "theta1")
    assert sub.neighbors("safe") == ("theta1", "theta0", "theta3")


def test_unknown_labels_are_rejected(ql4):
    graph = ek.adjacency_graph(ql4)
    with pytest.raises(ValueError, match="'nope'"):
        graph.induced(("0", "nope"))
    with pytest.raises(ValueError, match="repeated action '0'"):
        graph.induced(("0", "0", "0.25"))
    with pytest.raises(ValueError, match="'nope'"):
        ek.cycle_rich(ql4, ["0", "0.25", "0.5", "nope"])
    with pytest.raises(ValueError, match="'nope'"):
        ek.cycle_rich(ql4, ["0", "0.25", "0.5", "nope"], graph=graph)


def test_a_graph_passed_in_solves_no_lp(geometry_lps):
    # Checking that a graph is the problem's reads no slack or witness, so
    # the certified edges' LPs stay unsolved.
    problem = ek.make_cycle_rich_safe()
    graph = ek.adjacency_graph(problem)
    assert len(geometry_lps) == 3  # the pairs neither screened nor certified
    values = problem.utility.copy()
    values[0] = values[0] + np.array([0.3, 0.0, -0.1, 0.0])
    bundle = ek.ProblemBundle(problem=problem, question=ek.QuestionProfile(values=values))
    verdict = ek.decide_incentivizable(bundle, graph=graph)
    assert verdict.theorem == "cycle-rich-necessity"
    assert ek.cycle_rich(problem, problem.actions, graph=graph).rich is True
    assert len(geometry_lps) == 3


def test_cycle_rich_refuses_a_graph_of_another_problem(ql4):
    for graph in foreign_graphs(ql4):
        with pytest.raises(ValueError, match="another problem's"):
            ek.cycle_rich(ql4, ql4.actions[:4], graph=graph)


# ---------------------------------------------------------------------------
# The non-adjacency screen


def _every_pair(problem):
    """Brute force: every pair through ``adjacency_test``, in ``(i, j)`` order."""
    return {
        (a, b): ek.adjacency_test(problem, a, b)
        for i, a in enumerate(problem.actions)
        for b in problem.actions[i + 1 :]
    }


def _tested_pairs(problem, monkeypatch):
    """``adjacency_graph(problem)``, the pairs it tested and those it deferred, in solve order.

    The graph's LPs are recorded as they are solved, as the
    ``geometry_lps`` fixture records them: first those solved to build
    the graph, then those its first read of ``slacks`` solves.
    """
    tested = []

    def recording(target, tie_with):
        tested.append((problem.actions[target], problem.actions[tie_with]))

    with monkeypatch.context() as patch:
        record_graph_lps(patch, recording)
        graph = geometry.adjacency_graph(problem)
        built = len(tested)
        graph.slacks
    return graph, tested[:built], tested[built:]


def _screened_exactly(problem, monkeypatch):
    """Check ``adjacency_graph`` against brute force; return the pairs it screened out.

    The graph must carry the same edges in the same order with the same
    slack and witness bits, once its deferred LPs are read.  The pairs it
    tests, and then those it defers, must each come in ``(i, j)`` order.
    Every screened pair must be infeasible or at least half the screen
    margin short of a tie, and every deferred pair must be one
    ``_certified_pairs`` certifies, with slack above ``MIN_SLACK``.  Every
    tie the LPs return must also lie in the screen's tie slab, which the
    screen's soundness assumes.
    """
    reference = _every_pair(problem)
    scaled = geometry.scale_to_utility_gauge(problem.utility)
    index = problem.action_index
    for (a, b), result in reference.items():
        if result.witness is not None:
            tie = (scaled[index[a]] - scaled[index[b]]) @ result.witness.probs
            assert abs(tie) <= geometry.SCREEN_TIE, (a, b, tie)
    graph, tested, deferred = _tested_pairs(problem, monkeypatch)
    want = [(a, b, r) for (a, b), r in reference.items() if r.adjacent]
    assert [(e.a, e.b, e.slack.hex(), e.witness.probs.tobytes()) for e in graph.edges] == [
        (a, b, r.slack.hex(), r.witness.probs.tobytes()) for a, b, r in want
    ]
    # the arrays the edges are built from carry the same pairs and bits
    assert graph.pairs.tolist() == [[index[a], index[b]] for a, b, _ in want]
    assert [s.hex() for s in graph.slacks.tolist()] == [r.slack.hex() for *_, r in want]
    assert graph.witnesses.tobytes() == b"".join(r.witness.probs.tobytes() for *_, r in want)
    assert graph.witnesses.shape == (len(want), problem.n_states)
    assert graph.pairs.tolist() == [[index[e.a], index[e.b]] for e in graph.edges]
    assert [s.hex() for s in graph.slacks.tolist()] == [e.slack.hex() for e in graph.edges]
    assert graph.witnesses.tobytes() == b"".join(e.witness.probs.tobytes() for e in graph.edges)
    assert tested == [pair for pair in reference if pair in tested]
    certified = geometry._certified_pairs(scaled)
    first, second = (ends[certified] for ends in geometry._pair_indices(problem.n_actions))
    assert deferred == [(problem.actions[i], problem.actions[j]) for i, j in zip(first, second)]
    for pair in deferred:
        assert reference[pair].slack > _numerics.MIN_SLACK, (pair, reference[pair].slack)
    skipped = [pair for pair in reference if pair not in tested and pair not in deferred]
    for pair in skipped:
        result = reference[pair]
        assert result.witness is None or result.slack <= -geometry.SCREEN_MARGIN / 2, (
            pair,
            result.slack,
        )
    return skipped


def test_a_stalled_graph_lp_raises_at_the_first_pair_it_tests(geometry_lps, stalled_lps):
    # The certificates settle every pair of theta0 before (theta0, theta1).
    problem = ek.make_cycle_rich_safe()
    with pytest.raises(ek.LPFailure) as graph_failure:
        geometry.adjacency_graph(problem)
    assert geometry_lps == [(0, 1)]  # the re-solve is part of the one call
    with pytest.raises(ek.LPFailure) as pair_failure:
        ek.adjacency_test(problem, "theta0", "theta1")
    assert str(graph_failure.value) == str(pair_failure.value)
    assert re.fullmatch(
        r"the adjacency LP of \(theta0, theta1\) did not finish: .*kIterationLimit",
        str(graph_failure.value),
    )


def test_a_stalled_deferred_lp_raises_when_the_graph_is_read(geometry_lps, stalled_lps):
    # Every pair of quadratic-loss(4) is screened or certified: the graph
    # builds with no LP, and its first read solves the certified edges' LPs.
    problem = ek.make_quadratic_loss(4)
    graph = geometry.adjacency_graph(problem)
    assert geometry_lps == [] and graph.n_edges == 4
    with pytest.raises(ek.LPFailure, match=r"^the adjacency LP of \(0, 0\.25\) did not finish: "):
        graph.slacks
    assert geometry_lps == [(0, 1)]
    with pytest.raises(ek.LPFailure, match=r"\(0, 0\.25\)"):
        graph.to_dict()


_NAMED_SCREEN_PROBLEMS = [
    *[ek.make_quadratic_loss(n) for n in (*range(1, 17), 40)],
    ek.make_star(5, 0.3),
    ek.make_star(7, 0.7),
    ek.make_state_matching([0.7, 1.0, 1.3, 1.6]),
    ek.make_close_guess([0.7, 1.0, 1.3, 1.6, 1.2]),
    ek.make_cycle_rich_safe(),
    *[ek.make_mc_test(i, w)[0] for i, w in ((2, 2), (2, 3), (2, 4), (3, 2), (4, 2), (3, 3))],
]


def test_adjacency_screen_is_exact_on_the_named_problems(monkeypatch):
    certified = 0
    for problem in _NAMED_SCREEN_PROBLEMS:
        _screened_exactly(problem, monkeypatch)
        certified += geometry._certified_pairs(
            geometry.scale_to_utility_gauge(problem.utility)
        ).sum()
    assert certified > 0


def _exact_tie(u, a, b, witness):
    """A witness or face anchor of edge ``(a, b)`` moved onto the exact tie, over ``Fraction``.

    ``u`` is the utility as rows of ``Fraction``.  The belief is normalized,
    then mixed with the simplex corner ``e_s`` whose ``d_s`` is largest
    against the sign of ``d . p`` (``d = u_a - u_b``), just far enough that
    ``d . p' = 0``.
    """
    p = [Fraction(v) for v in witness.tolist()]
    p = [q / sum(p) for q in p]
    d = [x - y for x, y in zip(u[a], u[b])]
    tie = sum(x * q for x, q in zip(d, p))
    if tie:
        s = max((s for s, x in enumerate(d) if x * tie < 0), key=lambda s: abs(d[s]))
        weight = tie / (tie - d[s])
        p = [(1 - weight) * q for q in p]
        p[s] += weight
    assert sum(p) == 1 and min(p) >= 0
    assert sum(x * q for x, q in zip(d, p)) == 0
    return p


def test_every_edge_witness_moves_to_an_exact_tie_with_a_strict_lead():
    # The certified edges' witnesses come from the LPs their first read
    # solves, and their face anchors from the vertices of their tie faces.
    problems = _NAMED_SCREEN_PROBLEMS + random_validated_problems(60, seed=91)
    edges = certified = moved = 0
    for problem in problems:
        graph = ek.adjacency_graph(problem)
        certified += geometry._certified_pairs(
            geometry.scale_to_utility_gauge(problem.utility)
        ).sum()
        u = [[Fraction(v) for v in row] for row in problem.utility.tolist()]
        for (a, b), *beliefs in zip(graph.pairs.tolist(), graph.witnesses, graph.anchors):
            for belief in beliefs:
                p = _exact_tie(u, a, b, belief)
                for c in set(range(problem.n_actions)) - {a, b}:
                    lead = sum((x - y) * q for x, y, q in zip(u[a], u[c], p))
                    assert lead > 0, (problem.actions[a], problem.actions[b], problem.actions[c])
            edges += 1
            moved += beliefs[0].tobytes() != beliefs[1].tobytes()
    assert edges >= 300 and certified >= 100 and moved >= 100


_SCREEN_KINDS = ("integer", "decimal", "duplicate", "offset", "dominated", "shift")


def _random_screen_problem(rng, kind):
    n_states = int(rng.integers(2, 9))
    n_actions = int(rng.integers(2, 11))
    shape = (n_actions, n_states)
    if kind in ("integer", "shift"):
        utility = rng.integers(-3, 4, size=shape).astype(np.float64)
    else:
        utility = np.round(rng.uniform(-1.0, 1.0, size=shape), 1)
    row, other = rng.choice(n_actions, size=2, replace=False)
    if kind == "duplicate":
        utility[row] = utility[other]
    elif kind == "offset":
        utility[row] = utility[other] + 1e-9
    elif kind == "dominated":
        utility[row] = utility[other] - np.round(rng.uniform(0.0, 0.5, size=n_states), 1)
    elif kind == "shift":
        utility += 1e7
    return ek.DecisionProblem(
        states=tuple(f"s{i}" for i in range(n_states)),
        actions=tuple(f"a{i}" for i in range(n_actions)),
        utility=utility,
    )


def _seeded_screen_problems():
    """The 300 seeded problems of the random screen tests, with their kinds."""
    rng = np.random.default_rng(2024)
    kinds = [_SCREEN_KINDS[index % len(_SCREEN_KINDS)] for index in range(300)]
    return [(kind, _random_screen_problem(rng, kind)) for kind in kinds]


def test_adjacency_screen_is_exact_on_random_problems(monkeypatch):
    skipped = 0
    shifted = 0
    for index, (kind, problem) in enumerate(_seeded_screen_problems()):
        pruned = _screened_exactly(problem, monkeypatch)
        if kind == "shift":
            # The utility gauge ignores the shift, so the screen prunes the
            # pairs it prunes on the integer utility the shift was added to.
            base = geometry.scale_to_utility_gauge(problem.utility - 1e7)
            screened = geometry._screened_pairs(base)
            first, second = (ends[screened] for ends in geometry._pair_indices(problem.n_actions))
            want = [(problem.actions[i], problem.actions[j]) for i, j in zip(first, second)]
            assert pruned == want, (index, pruned, want)
            shifted += len(pruned)
        skipped += len(pruned)
    assert skipped > 0
    assert shifted > 0


def _certificate_problem(rng):
    """A random problem with duplicated, dominated and per-state-offset rows."""
    n_states = int(rng.integers(2, 8))
    n_actions = int(rng.integers(3, 9))
    shape = (n_actions, n_states)
    if rng.random() < 0.5:
        utility = rng.integers(-3, 4, size=shape).astype(np.float64)
    else:
        utility = np.round(rng.uniform(-1.0, 1.0, size=shape), 1)
    row, other, third = rng.choice(n_actions, size=3, replace=False)
    utility[row] = utility[other]
    utility[third] = utility[other] - np.round(rng.uniform(0.0, 0.5, size=n_states), 1)
    utility += np.round(rng.uniform(-5.0, 5.0, size=n_states), 1)  # per-state offsets
    return ek.DecisionProblem(
        states=tuple(f"s{i}" for i in range(n_states)),
        actions=tuple(f"a{i}" for i in range(n_actions)),
        utility=utility,
    )


def test_adjacency_certificates_are_sound_on_random_problems(monkeypatch):
    # Ties between duplicated rows and offsets in every state: each
    # certified pair's LP is an edge, and the graph keeps today's bits.
    rng = np.random.default_rng(2025)
    certified = 0
    for _ in range(300):
        problem = _certificate_problem(rng)
        _screened_exactly(problem, monkeypatch)
        certified += geometry._certified_pairs(
            geometry.scale_to_utility_gauge(problem.utility)
        ).sum()
    assert certified > 500


def test_lps_that_presolve_leaves_unfinished_are_solved_again(monkeypatch):
    # Problems 141 and 177 hold near-duplicate actions, rows 1e-9 apart.
    # With presolve, HiGHS 1.12 leaves the LPs of (a0, a1) and (a2, a3)
    # without an answer (model status kNotset and kUnknown); solved again
    # without presolve they are infeasible, so neither pair is an edge.
    problems = _seeded_screen_problems()
    for index, pair in ((141, ("a0", "a1")), (177, ("a2", "a3"))):
        kind, problem = problems[index]
        assert kind == "offset"
        assert not ek.adjacency_test(problem, *pair).adjacent
        assert pair not in _screened_exactly(problem, monkeypatch)  # the graph solved it too


def test_adjacency_screen_chunks_give_the_same_pairs(monkeypatch):
    rng = np.random.default_rng(77)
    for index in range(60):
        problem = _random_screen_problem(rng, _SCREEN_KINDS[index % len(_SCREEN_KINDS)])
        scaled = geometry.scale_to_utility_gauge(problem.utility)
        per_pair = 2 * problem.n_states**2
        whole = geometry._screened_pairs(scaled)
        for pairs_per_chunk in (1, 2, 3):
            monkeypatch.setattr(geometry, "SCREEN_CHUNK_POINTS", pairs_per_chunk * per_pair)
            np.testing.assert_array_equal(geometry._screened_pairs(scaled), whole)
        monkeypatch.setattr(geometry, "SCREEN_MAX_POINTS", per_pair - 1)
        assert not geometry._screened_pairs(scaled).any()
        monkeypatch.undo()
        # The certificates, sized by tie face vertices times actions, over
        # all pairs or only those the screen leaves.
        k = problem.n_states
        per_pair = (k * k // 4 + k) * problem.n_actions
        certified = geometry._certified_pairs(scaled)
        assert not (certified & whole).any()
        for pairs_per_chunk in (1, 2, 3):
            monkeypatch.setattr(geometry, "SCREEN_CHUNK_POINTS", pairs_per_chunk * per_pair)
            np.testing.assert_array_equal(geometry._certified_pairs(scaled), certified)
            np.testing.assert_array_equal(geometry._certified_pairs(scaled, ~whole), certified)
        monkeypatch.setattr(geometry, "SCREEN_MAX_POINTS", per_pair - 1)
        assert not geometry._certified_pairs(scaled).any()
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# The graph's LPs, solved in stacks


def _assert_stacks_match_single_programs(problem):
    """Every pair's tied program and every action's own, stacked and one at a time.

    Returns how many stacked programs were infeasible.
    """
    scaled = geometry.scale_to_utility_gauge(problem.utility)
    batches = [geometry._pair_indices(problem.n_actions), (np.arange(problem.n_actions), None)]
    infeasible = 0
    for targets, ties in batches:
        slacks, beliefs = _numerics._max_slack_programs(scaled, targets, ties)
        for m, target in enumerate(targets.tolist()):
            tie = None if ties is None else int(ties[m])
            slack, belief = _numerics.max_slack_lp(scaled, target, tie)
            assert slacks[m].tobytes() == np.float64(slack).tobytes(), (target, tie)
            if belief is None:
                assert slack == -np.inf and not beliefs[m].any()
                infeasible += 1
            else:
                assert beliefs[m].tobytes() == belief.tobytes(), (target, tie)
    return infeasible


def _assert_witnesses_are_the_lp_rows(problem):
    """The graph's and ``adjacency_test``'s witnesses are the LP layer's rows, byte for byte.

    Those rows are normalized once: no ``-0.0`` (nor any negative entry),
    and each sums to 1 within a few ulps.  Returns the number of edges.
    """
    scaled = geometry.scale_to_utility_gauge(problem.utility)
    graph = ek.adjacency_graph(problem)
    _, rows = _numerics._max_slack_programs(scaled, graph.pairs[:, 0], graph.pairs[:, 1])
    assert graph.witnesses.tobytes() == rows.tobytes()
    for edge, row in zip(graph.edges, rows):
        assert edge.witness.probs.tobytes() == row.tobytes()
        alone = ek.adjacency_test(problem, edge.a, edge.b).witness.probs
        assert alone.tobytes() == row.tobytes() and not alone.flags.writeable
    assert not np.signbit(rows).any()
    assert (np.abs(rows.sum(axis=1) - 1.0) <= 4 * np.finfo(np.float64).eps).all()
    return graph.n_edges


def test_witnesses_are_the_rows_the_lps_return():
    problems = [*_NAMED_SCREEN_PROBLEMS, *(p for _, p in _seeded_screen_problems())]
    assert sum(map(_assert_witnesses_are_the_lp_rows, problems)) > 0


def test_stacked_programs_have_the_bits_of_single_programs():
    problems = [*_NAMED_SCREEN_PROBLEMS, *(p for _, p in _seeded_screen_problems())]
    # A tie of two rows one of which is above the other in every state,
    # untieable, is what makes a program infeasible.
    assert sum(map(_assert_stacks_match_single_programs, problems)) > 0


def test_stack_budgets_give_the_same_graph(monkeypatch):
    rng = np.random.default_rng(78)
    problems = [
        ek.make_quadratic_loss(6),
        ek.make_mc_test(3, 2)[0],
        *(_random_screen_problem(rng, kind) for kind in _SCREEN_KINDS),
    ]
    real_stack = _numerics._solve_stack
    stacks = 0
    for problem in problems:
        whole = geometry.adjacency_graph(problem)
        per_program = 4 * (problem.n_states + 1) * problem.n_actions
        for programs_per_stack in (1, 2, 3):
            sizes = []

            def stack(utility, targets, *rest):
                sizes.append(targets.size)
                return real_stack(utility, targets, *rest)

            with monkeypatch.context() as patch:
                patch.setattr(_numerics, "STACK_FLOATS", programs_per_stack * per_program)
                patch.setattr(_numerics, "_solve_stack", stack)
                graph = geometry.adjacency_graph(problem)
            assert all(size == programs_per_stack for size in sizes[:-1])
            assert all(1 <= size <= programs_per_stack for size in sizes[-1:])
            stacks += len(sizes)
            np.testing.assert_array_equal(graph.pairs, whole.pairs)
            assert graph.slacks.tobytes() == whole.slacks.tobytes()
            assert graph.witnesses.tobytes() == whole.witnesses.tobytes()
    assert stacks > 3 * len(problems)


class _CorruptingSolver:
    """This thread's solver, with NaN in the solutions its chosen reads return."""

    def __init__(self, highs, corrupt: set[int]) -> None:
        self.highs = highs
        self.corrupt = corrupt
        self.reads = 0

    def __getattr__(self, name: str):
        return getattr(self.highs, name)

    def getSolution(self):
        solution = self.highs.getSolution()
        self.reads += 1
        if self.reads not in self.corrupt:
            return solution
        return SimpleNamespace(
            col_value=[np.nan, *solution.col_value[1:]], row_value=solution.row_value
        )


def test_the_first_program_failing_the_check_is_named(monkeypatch):
    # The second and third solutions read fail scipy's feasibility check,
    # both inside one stack: the stack names the program of the second
    # read, as solving the programs one at a time does.
    problem = ek.make_mc_test(3, 2)[0]
    _, tested, _ = _tested_pairs(problem, monkeypatch)
    solver = _numerics._solver()

    def failure(run):
        corrupting = _CorruptingSolver(solver, {2, 3})
        with monkeypatch.context() as patch:
            patch.setattr(_numerics, "_solver", lambda: corrupting)
            with pytest.raises(ek.LPFailure, match="fails scipy's feasibility check") as caught:
                run()
        return str(caught.value)

    def one_pair_at_a_time():
        for pair in tested:
            ek.adjacency_test(problem, *pair)

    def one_action_at_a_time():
        scaled = geometry.scale_to_utility_gauge(problem.utility)
        for a, action in enumerate(problem.actions):
            try:
                _numerics.max_slack_lp(scaled, a)
            except ek.LPFailure as exc:
                raise ek.LPFailure(f"the max-slack LP of {action} did not finish: {exc}") from exc

    assert len(tested) > 3
    assert 4 * (problem.n_states + 1) * problem.n_actions * len(tested) <= _numerics.STACK_FLOATS
    graph_failure = failure(lambda: geometry.adjacency_graph(problem))
    assert graph_failure == failure(one_pair_at_a_time)
    assert graph_failure.startswith("the adjacency LP of ")
    validate_failure = failure(lambda: ek.validate_problem(problem))
    assert validate_failure == failure(one_action_at_a_time)
    assert validate_failure.startswith(f"the max-slack LP of {problem.actions[1]} ")


def _reference_screened_pairs(utility, i):
    """The screen one first action at a time, as ``_screened_pairs`` once ran."""
    n, k = utility.shape
    screened = np.zeros(n - i - 1, dtype=bool)
    per_pair = 2 * k * k
    if per_pair > geometry.SCREEN_MAX_POINTS:
        return screened
    gain = utility - utility[i]
    step = geometry.SCREEN_MAX_POINTS // per_pair
    for start in range(i + 1, n, step):
        stop = min(start + step, n)
        d = -gain[start:stop]
        corner = np.abs(d) <= geometry.SCREEN_TIE
        h = np.array([geometry.SCREEN_TIE, -geometry.SCREEN_TIE]).reshape(2, 1, 1, 1)
        ds, dt = d[:, :, None], d[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = (h - dt) / (ds - dt)
        outside = ~((lam > 0.0) & (lam < 1.0))
        np.copyto(lam, 0.0, where=outside)
        total = corner + lam.sum(axis=(0, 3))
        score = total @ gain.T
        score[:, i] = -np.inf
        score[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        best = gain[np.argmax(score, axis=1)]
        at_edges = lam
        at_edges *= best[:, :, None] - best[:, None, :]
        at_edges += best[:, None, :]
        np.copyto(at_edges, np.inf, where=outside)
        at_corners = np.where(corner, best, np.inf)
        worst = np.minimum(at_corners.min(axis=1), at_edges.min(axis=(0, 2, 3)))
        empty = (d.min(axis=1) > geometry.SCREEN_TIE) | (d.max(axis=1) < -geometry.SCREEN_TIE)
        screened[start - i - 1 : stop - i - 1] = empty | (
            np.isfinite(worst) & (worst >= geometry.SCREEN_MARGIN)
        )
    return screened


def _assert_screen_matches_the_reference(problem):
    scaled = geometry.scale_to_utility_gauge(problem.utility)
    want = [_reference_screened_pairs(scaled, i) for i in range(problem.n_actions)]
    got = geometry._screened_pairs(scaled)
    np.testing.assert_array_equal(got, np.concatenate([np.zeros(0, dtype=bool), *want]))
    return int(got.sum())


def test_one_screen_pass_matches_the_per_action_screen(monkeypatch):
    screened = sum(map(_assert_screen_matches_the_reference, _NAMED_SCREEN_PROBLEMS))
    for _, problem in _seeded_screen_problems():
        screened += _assert_screen_matches_the_reference(problem)
    assert screened > 0
    # One problem whose pairs span several chunks, split mid-row.
    problem = ek.make_quadratic_loss(12)
    monkeypatch.setattr(geometry, "SCREEN_CHUNK_POINTS", 5 * 2 * problem.n_states**2)
    assert _assert_screen_matches_the_reference(problem) > 0


def test_adjacency_screen_skips_problems_with_many_states(geometry_lps):
    # One pair's slab edge points would take 2 * 3000**2 floats (144 MB).
    n_states = 3000
    utility = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, n_states))
    problem = ek.DecisionProblem(
        states=tuple(f"s{i}" for i in range(n_states)),
        actions=("a0", "a1", "a2"),
        utility=utility,
    )
    scaled = geometry.scale_to_utility_gauge(utility)
    tracemalloc.start()
    try:
        geometry.adjacency_graph(problem)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        screened = geometry._screened_pairs(scaled)
        screen_peak = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.reset_peak()
        certified = geometry._certified_pairs(scaled)
        certificate_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert len(geometry_lps) == 3  # none certified, so every pair's LP runs at build
    assert peak < 8 * n_states**2 / 100, peak
    # the screen and the certificates allocate only their answers: the LPs
    # fill the peak above
    assert screened.tolist() == certified.tolist() == [False, False, False]
    assert screen_peak < 4096, screen_peak
    assert certificate_peak < 4096, certificate_peak


def test_adjacency_certificates_bound_their_memory():
    # 80 actions and 24 states: a pair's tie face has up to 168 vertices,
    # each scored against all 80 actions.  Chunks of SCREEN_CHUNK_POINTS
    # such floats keep each working array near 256 KB and the pass near
    # 0.7 MB; chunks sized by states alone peaked at 8 MB.
    utility = np.random.default_rng(5).uniform(-1.0, 1.0, size=(80, 24))
    scaled = geometry.scale_to_utility_gauge(utility)
    # quadratic-loss(200): one pair's vertices would take 10,200 * 201
    # floats, above SCREEN_MAX_POINTS, so no pair is certified.
    guess = geometry.scale_to_utility_gauge(ek.make_quadratic_loss(200).utility)
    tracemalloc.start()
    try:
        certified = geometry._certified_pairs(scaled)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        skipped = geometry._certified_pairs(guess)
        skipped_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert certified.sum() > 0
    assert peak < 1_500_000, peak
    assert skipped.size == 201 * 200 // 2 and not skipped.any()
    assert skipped_peak < 24 * skipped.size, skipped_peak  # the pair indices and the answer


@pytest.mark.parametrize(
    "problem, built, read",
    [
        (ek.make_quadratic_loss(4), 0, 4),
        (ek.make_quadratic_loss(15), 0, 15),
        (ek.make_quadratic_loss(40), 0, 40),
        (ek.make_star(7, 0.7), 0, 7),
        # Cross-task pairs of a product are left to product-aware adjacency.
        (ek.make_mc_test(3, 3)[0], 270, 81),
    ],
    ids=["quadratic-loss-4", "quadratic-loss-15", "quadratic-loss-40", "star-7", "mc-test-3-3"],
)
def test_adjacency_graph_lp_counts(problem, built, read, geometry_lps):
    # Certified edges solve their LPs on the first read, and only then.
    graph = geometry.adjacency_graph(problem)
    assert len(geometry_lps) == built
    ek.classify_graph(graph)
    assert len(geometry_lps) == built
    graph.witnesses
    graph.edges
    assert len(geometry_lps) == built + read


# ---------------------------------------------------------------------------
# Classification and splitting


def test_classify_kinds():
    path = ek.classify_graph(ek.adjacency_graph(ek.make_quadratic_loss(3)))
    assert path.kind == "tree" and path.connected and not path.complete

    complete = ek.classify_graph(
        ek.adjacency_graph(ek.make_state_matching([0.7, 1.0, 1.3, 1.6]))
    )
    assert complete.kind == "complete"

    problem, product = ek.make_mc_test(2, 2)
    cube = ek.classify_graph(ek.adjacency_graph(problem), product)
    assert cube.product_consistent
    assert cube.kind == "product"

    # five actions, nine edges: neither a tree nor complete, and no product
    general = ek.classify_graph(ek.adjacency_graph(ek.make_cycle_rich_safe()))
    assert general.kind == "general" and general.connected

    # an action dominated everywhere has no edge
    ql3 = ek.make_quadratic_loss(3)
    dominated = ek.DecisionProblem(
        ql3.states, (*ql3.actions, "worse"), np.vstack([ql3.utility, ql3.utility[0] - 1.0])
    )
    graph = ek.adjacency_graph(dominated)
    assert ek.classify_graph(graph).kind == "disconnected"
    with pytest.raises(ValueError, match="require a connected adjacency graph"):
        ek.splitting_collection(graph)


def _reference_product_consistent(graph, product):
    """The lifting loop: every within-task edge lifts across every completion."""
    coords = product.action_coord_array
    label_of = {tuple(coords[i]): i for i in range(len(graph.actions))}
    within = [set() for _ in product.tasks]
    for i, j in graph.edge_index_set:
        diff = [t for t in range(product.n_tasks) if coords[i, t] != coords[j, t]]
        if len(diff) != 1:
            return False
        t = diff[0]
        within[t].add((min(coords[i, t], coords[j, t]), max(coords[i, t], coords[j, t])))
    for t, pairs in enumerate(within):
        for x, y in pairs:
            for g in range(len(graph.actions)):
                if coords[g, t] == x:
                    other = coords[g].copy()
                    other[t] = y
                    h = label_of[tuple(other)]
                    if (min(g, h), max(g, h)) not in graph.edge_index_set:
                        return False
    return True


def test_product_consistency_matches_the_lifting_loop():
    # Dominated task actions break the lift: an edge of one task is an
    # edge of the product only where the other coordinates can be optimal.
    rng = np.random.default_rng(47)
    outcomes = set()
    for _ in range(40):
        tasks = []
        for _ in range(int(rng.integers(2, 4)) if rng.random() < 0.3 else 2):
            n_states, n_actions = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            utility = rng.integers(-3, 4, size=(n_actions, n_states)).astype(float)
            if rng.random() < 0.5:  # a dominated action
                utility[-1] = utility[0] - 1.0
            tasks.append(ek.DecisionProblem(
                states=tuple(f"s{i}" for i in range(n_states)),
                actions=tuple(f"a{i}" for i in range(n_actions)),
                utility=utility,
            ))
        problem, product = ek.expand_product(tasks)
        graph = ek.adjacency_graph(problem)
        if not graph.n_edges:
            continue
        want = _reference_product_consistent(graph, product)
        assert geometry._product_consistent(graph, product) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def test_an_edge_that_changes_two_tasks_is_not_product_consistent():
    # Exact adjacency never makes such an edge.  Move one end of an edge of
    # task 0 in task 1 as well: every lift of task 0 keeps its count, so
    # only the one-task rule rejects the graph.
    problem, product = ek.make_mc_test(3, 2)
    graph = ek.adjacency_graph(problem)
    assert geometry._product_consistent(graph, product)
    coords = product.action_coord_array
    m = next(m for m, (i, j) in enumerate(graph.pairs) if coords[i, 0] != coords[j, 0])
    i, j = graph.pairs[m]
    moved = coords[j].copy()
    moved[1] = 1 - moved[1]
    pairs = graph.pairs.copy()
    pairs[m, 1] = next(h for h in range(len(coords)) if (coords[h] == moved).all())
    bent = dataclasses.replace(graph, pairs=pairs)
    assert _reference_product_consistent(bent, product) is False
    assert geometry._product_consistent(bent, product) is False


def _random_product(rng):
    """Two or three small integer tasks, some with a dominated or a duplicated action."""
    tasks = []
    for _ in range(int(rng.integers(2, 4))):
        n_states, n_actions = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        utility = rng.integers(-3, 4, size=(n_actions, n_states)).astype(float)
        if n_actions > 2 and rng.random() < 0.5:
            utility[-1] = utility[0] - 1.0  # dominated
        if n_actions > 2 and rng.random() < 0.5:
            utility[1] = utility[0]  # duplicated
        tasks.append(ek.DecisionProblem(
            states=tuple(f"s{i}" for i in range(n_states)),
            actions=tuple(f"a{i}" for i in range(n_actions)),
            utility=utility,
        ))
    return ek.expand_product(tasks)


def test_no_edge_changes_two_tasks():
    # Utility is additive over tasks: where two actions that differ in two
    # or more tasks tie, swapping one of those coordinates gives an action
    # at least as good, so no such pair is ever an edge.
    rng = np.random.default_rng(48)
    products = [ek.make_mc_test(i, w) for i, w in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2))]
    products += [_random_product(rng) for _ in range(40)]
    edges = 0
    for problem, product in products:
        graph = ek.adjacency_graph(problem)
        coords = product.action_coord_array
        differs = (coords[graph.pairs[:, 0]] != coords[graph.pairs[:, 1]]).sum(axis=1)
        assert (differs == 1).all(), problem.actions
        edges += graph.n_edges
    assert edges > 0


def test_splitting_collection_covers_each_edge_once():
    graph = ek.adjacency_graph(ek.make_quadratic_loss(3))
    collection = ek.splitting_collection(graph)
    # a path splits into its edges, with interior vertices as cuts
    assert sorted(sorted(p) for p in collection.parts) == [
        ["0", "0.333333333333"],
        ["0.333333333333", "0.666666666667"],
        ["0.666666666667", "1"],
    ]
    assert set(collection.cut_vertices) == {"0.333333333333", "0.666666666667"}
    for edge in graph.edges:
        holders = [p for p in collection.parts if edge.a in p and edge.b in p]
        assert len(holders) == 1


def test_splitting_collection_of_a_block_is_itself():
    graph = ek.adjacency_graph(ek.make_state_matching([0.7, 1.0, 1.3, 1.6]))
    collection = ek.splitting_collection(graph)
    assert collection.parts == (("1", "2", "3", "4"),)
    assert collection.cut_vertices == ()


# ---------------------------------------------------------------------------
# Cycles


def test_enumerate_cycles_triangle():
    graph = ek.adjacency_graph(ek.make_state_matching([0.7, 1.0, 1.3]))
    cycles = ek.enumerate_cycles(graph)
    assert cycles.cycles == (("1", "2", "3"),)
    assert not cycles.truncated


def test_enumerate_cycles_on_a_path_is_empty(ql4):
    cycles = ek.enumerate_cycles(ek.adjacency_graph(ql4))
    assert cycles.cycles == ()


def test_enumerate_cycles_cube_counts():
    graph = ek.adjacency_graph(ek.make_mc_test(3, 2)[0])
    # the cube has 6 four-cycles (its faces) and 28 simple cycles in total
    assert len(ek.enumerate_cycles(graph, max_len=4).cycles) == 6
    assert len(ek.enumerate_cycles(graph, max_len=8).cycles) == 28


def test_enumerate_cycles_truncates_at_the_cap():
    graph = ek.adjacency_graph(ek.make_mc_test(3, 2)[0])
    cycles = ek.enumerate_cycles(graph, max_len=8, cap=5)
    assert cycles.truncated
    assert len(cycles.cycles) == 5


def test_enumerate_cycles_canonical_form():
    graph = ek.adjacency_graph(ek.make_state_matching([0.7, 1.0, 1.3, 1.6]))
    for cycle in ek.enumerate_cycles(graph).cycles:
        indices = [graph.index[v] for v in cycle]
        assert indices[0] == min(indices)
        assert indices[1] < indices[-1]  # orientation is fixed, no mirror twins


# ---------------------------------------------------------------------------
# Blocks and cycles against brute force


def _glued_blocks(rng, n):
    """Edges of bridges, cycles and cliques, each hung from one earlier vertex."""
    edges = set()
    size = 1
    while size < n:
        new = list(range(size, min(n, size + int(rng.integers(1, 4)))))
        ring = [int(rng.integers(size)), *new]
        kind = int(rng.integers(3)) if len(ring) > 2 else 0
        if kind == 0:  # a path of bridges
            edges.update(zip(ring, ring[1:]))
        elif kind == 1:  # a cycle through the anchor
            edges.update(zip(ring, ring[1:] + ring[:1]))
        else:  # a clique with the anchor
            edges.update((a, b) for k, a in enumerate(ring) for b in ring[k + 1 :])
        size = new[-1] + 1
    return edges


def _edge_list_graph(rng):
    """A graph of 2-9 actions from a random edge list, its labels shuffled.

    Half are blocks glued at cut vertices (sometimes with one chord more),
    half are random edges, which may leave the graph disconnected.
    """
    n = int(rng.integers(2, 10))
    every = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if rng.random() < 0.5:
        edges = _glued_blocks(rng, n)
        if rng.random() < 0.3:
            edges.add(every[int(rng.integers(len(every)))])
    else:
        density = rng.uniform(0.15, 0.75)
        edges = {pair for pair in every if rng.random() < density}
    relabel = rng.permutation(n)
    pairs = sorted({tuple(sorted(int(relabel[v]) for v in edge)) for edge in edges})
    actions = tuple(f"a{i}" for i in range(n))
    return geometry.AdjacencyGraph(actions, np.array(pairs, dtype=np.int64).reshape(-1, 2), 2, None)


@functools.cache
def _vertex_orders(start, n, k):
    """Closed walks ``start, v_1, ..., v_k, start`` over distinct ``v_i > start``, ``v_1 < v_k``."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(start + 1, n), k))
    middle = np.fromiter(flat, dtype=np.int64).reshape(-1, k)
    middle = middle[middle[:, 0] < middle[:, -1]]
    ends = np.full((len(middle), 1), start)
    return np.hstack([ends, middle, ends])


def _brute_cycles(adjacent):
    """Every simple cycle, by trying each vertex order: as index tuples that
    start at their smallest vertex with the smaller neighbor second, sorted."""
    n = len(adjacent)
    found = []
    for start in range(n):
        for k in range(2, n - start):
            loop = _vertex_orders(start, n, k)
            closed = adjacent[loop[:, :-1], loop[:, 1:]].all(axis=1)
            found += map(tuple, loop[closed, :-1].tolist())
    return sorted(found)


def _brute_blocks(pairs, cycles):
    """Vertex sets of the classes of edges equal or on a common simple cycle."""
    block = {edge: {edge} for edge in map(frozenset, pairs)}
    for cycle in cycles:
        merged = set().union(*(block[frozenset(e)] for e in zip(cycle, cycle[1:] + cycle[:1])))
        for edge in merged:
            block[edge] = merged
    return {frozenset().union(*edges) for edges in map(frozenset, block.values())}


def _brute_cut_vertices(n, pairs):
    """The vertices whose removal leaves the other vertices disconnected."""
    cuts = []
    for v in range(n):
        rest = [(a, b) for a, b in pairs if v not in (a, b)]
        seen = {min(set(range(n)) - {v})}
        while grown := {b for a, b in rest + [e[::-1] for e in rest] if a in seen} - seen:
            seen |= grown
        if len(seen) < n - 1:
            cuts.append(v)
    return cuts


def _reference_graphs():
    rng = np.random.default_rng(77)
    graphs = [_edge_list_graph(rng) for _ in range(360)]
    graphs += [
        ek.adjacency_graph(problem)
        for problem in random_validated_problems(40, seed=78, max_states=5, max_actions=9)
    ]
    return graphs


def test_splitting_and_cycles_match_brute_force():
    line = ek.adjacency_graph(ek.make_quadratic_loss(2))
    for members in ((), ("0",)):
        assert ek.splitting_collection(line.induced(members)) == ek.SplittingCollection((), ())
    checked = {"connected": 0, "cut": 0, "multi-block": 0, "truncated": 0}
    for graph in _reference_graphs():
        n = len(graph.actions)
        pairs = graph.pairs.tolist()
        adjacent = np.zeros((n, n), dtype=bool)
        adjacent[tuple(graph.pairs.T)] = adjacent[tuple(graph.pairs.T[::-1])] = True
        cycles = _brute_cycles(adjacent)
        labelled = [tuple(graph.actions[i] for i in cycle) for cycle in cycles]
        for max_len in (None, 3, 5):
            want = tuple(c for c in labelled if max_len is None or len(c) <= max_len)
            assert ek.enumerate_cycles(graph, max_len=max_len) == ek.CycleSet(want, False)
            for cap in {1, (len(want) + 1) // 2, len(want)} if want else ():
                got = ek.enumerate_cycles(graph, max_len=max_len, cap=cap)
                assert got == ek.CycleSet(want[:cap], True), (pairs, max_len, cap)
                checked["truncated"] += 1
        if not graph.is_connected:
            continue
        collection = ek.splitting_collection(graph)
        parts = {frozenset(graph.index[a] for a in part) for part in collection.parts}
        assert len(parts) == len(collection.parts)
        assert parts == _brute_blocks(pairs, cycles), pairs
        cuts = [graph.index[a] for a in collection.cut_vertices]
        assert cuts == _brute_cut_vertices(n, pairs), pairs
        checked["connected"] += 1
        checked["cut"] += bool(cuts)
        checked["multi-block"] += len(parts) > 1 and any(len(p) > 2 for p in parts)
    assert checked["connected"] >= 300 and checked["cut"] >= 100
    assert checked["multi-block"] >= 50 and checked["truncated"] >= 500


# ---------------------------------------------------------------------------
# Internal independence


def test_internal_independence_on_a_matching_triangle():
    problem = ek.make_state_matching([0.7, 1.0, 1.3, 1.6])
    assert ek.internal_independence(problem, ("1", "2", "3"))


def test_internal_independence_fails_in_two_states():
    problem = ek.DecisionProblem(
        states=("s0", "s1"),
        actions=("a", "b", "c"),
        utility=[[1.0, 0.0], [0.6, 0.5], [0.0, 1.0]],
    )
    # two difference vectors cannot be independent in a one-dimensional
    # zero-sum space
    assert not ek.internal_independence(problem, ("a", "b", "c"))


def test_internal_independence_ignores_orientation_and_base():
    problem = ek.make_cycle_rich_safe()
    cycle = ("theta0", "theta2", "safe")
    reference = ek.internal_independence(problem, cycle)
    for variant in [
        ("theta2", "safe", "theta0"),
        ("safe", "theta2", "theta0"),
        ("theta0", "safe", "theta2"),
    ]:
        assert ek.internal_independence(problem, variant) == reference


def test_internal_independence_validates_input():
    problem = ek.make_state_matching([0.7, 1.0, 1.3])
    with pytest.raises(ValueError):
        ek.internal_independence(problem, ("1", "2"))
    with pytest.raises(ValueError):
        ek.internal_independence(problem, ("1", "2", "1"))


# ---------------------------------------------------------------------------
# Cycle-richness


def test_cycle_rich_complete_matching_problem():
    problem = ek.make_state_matching([0.7, 1.0, 1.3, 1.6])
    result = ek.cycle_rich(problem, problem.actions)
    assert result.rich is True
    assert result.status == "cycle-rich"
    # every proper subset is certified by a single outside action
    assert all(action != "" for _, action in result.witnesses)


def test_cycle_rich_safety_example():
    problem = ek.make_cycle_rich_safe()
    result = ek.cycle_rich(problem, problem.actions)
    assert result.rich is True
    # proper subsets of sizes 3 and 4 of a five-action set
    assert len(result.witnesses) == 15
    pooled = sorted(subset for subset, action in result.witnesses if action == "")
    assert pooled == [
        ("safe", "theta0", "theta1"),
        ("theta0", "theta1", "theta2"),
        ("theta0", "theta1", "theta3"),
    ]


def test_cycle_rich_fails_on_a_path(ql4):
    result = ek.cycle_rich(ql4, ql4.actions[:4], graph=ek.adjacency_graph(ql4))
    assert result.rich is False
    assert result.status == "not-rich"
    assert result.failing_subset == ("0", "0.25", "0.5")


def test_cycle_rich_declines_oversized_sets():
    problem = ek.make_quadratic_loss(8)  # 9 actions, one above CYCLE_RICH_MAX_SET
    result = ek.cycle_rich(problem, problem.actions)
    assert result.rich is None
    assert result.status == "unknown (size)"


def test_cycle_rich_validates_input():
    problem = ek.make_cycle_rich_safe()
    with pytest.raises(ValueError):
        ek.cycle_rich(problem, ("theta0", "theta1", "theta2"))
    with pytest.raises(ValueError):
        ek.cycle_rich(problem, ("theta0", "theta0", "theta1", "theta2"))
