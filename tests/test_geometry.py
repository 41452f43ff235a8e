"""Belief geometry: projections, adjacency, classification, cycles."""

from __future__ import annotations

import contextlib
import tracemalloc

import numpy as np
import pytest

import elicitkit as ek
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
    # the very edge objects of the full graph, witnesses and slacks included
    assert all(any(e is f for f in graph.edges) for e in sub.edges)
    for edge in sub.edges:
        assert set(ek.optimal_actions(problem, edge.witness.probs)) == {edge.a, edge.b}
    assert not sub.has_edge("theta0", "theta1")
    assert sub.neighbors("safe") == ("theta1", "theta0", "theta3")


# ---------------------------------------------------------------------------
# The non-adjacency screen


def _every_pair(problem):
    """Brute force: every pair through ``adjacency_test``, in ``(i, j)`` order.

    A pair whose LP does not finish maps to the ``LPFailure`` it raised.
    """
    results = {}
    for i, a in enumerate(problem.actions):
        for b in problem.actions[i + 1 :]:
            try:
                results[(a, b)] = ek.adjacency_test(problem, a, b)
            except ek.LPFailure as exc:
                results[(a, b)] = exc
    return results


def _tested_pairs(problem, monkeypatch):
    """``adjacency_graph(problem)``, or the ``LPFailure`` it raised, and the pairs it tested."""
    tested = []
    real_test = geometry.adjacency_test

    def recording(problem_, a, b):
        tested.append((a, b))
        return real_test(problem_, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(geometry, "adjacency_test", recording)
        try:
            return geometry.adjacency_graph(problem), tested
        except ek.LPFailure as exc:
            return exc, tested


@contextlib.contextmanager
def _presolve_off():
    """Solve this thread's LPs without presolve."""
    options = _numerics._scipy_highs_options()
    options.presolve = "off"
    solver = _numerics._solver()
    solver.passOptions(options)
    try:
        yield
    finally:
        solver.passOptions(_numerics._HIGHS_OPTIONS)


def _screened_exactly(problem, monkeypatch):
    """Check ``adjacency_graph`` against brute force; return the pairs it skipped.

    The graph must carry the same edges in the same order with the same
    slack and witness bits, the pairs it tests must come in ``(i, j)``
    order, and every skipped pair must be infeasible or at least half the
    screen margin short of a tie.  Every tie the LPs return must also lie
    in the screen's tie slab, which the screen's soundness assumes.

    When some pair's LP does not finish, the graph must raise that
    failure at the first such pair it tests, or screen every such pair;
    then the whole check runs again without presolve, which settles
    those LPs.
    """
    reference = _every_pair(problem)
    failed = [pair for pair, result in reference.items() if isinstance(result, ek.LPFailure)]
    if failed:
        graph, tested = _tested_pairs(problem, monkeypatch)
        assert tested == [pair for pair in reference if pair in tested]
        if isinstance(graph, ek.LPFailure):
            assert tested[-1] in failed and str(graph) == str(reference[tested[-1]]), tested
        else:
            assert not set(failed) & set(tested), failed
        with _presolve_off():
            reference = _every_pair(problem)
            assert not any(isinstance(r, ek.LPFailure) for r in reference.values()), failed
            return _screen_matches(problem, reference, monkeypatch)
    return _screen_matches(problem, reference, monkeypatch)


def _screen_matches(problem, reference, monkeypatch):
    scaled = geometry.scale_unit_max_abs(problem.utility)
    index = problem.action_index
    for (a, b), result in reference.items():
        if result.witness is not None:
            tie = (scaled[index[a]] - scaled[index[b]]) @ result.witness.probs
            assert abs(tie) <= geometry.SCREEN_TIE, (a, b, tie)
    graph, tested = _tested_pairs(problem, monkeypatch)
    assert [(e.a, e.b, e.slack.hex(), e.witness.probs.tobytes()) for e in graph.edges] == [
        (a, b, r.slack.hex(), r.witness.probs.tobytes())
        for (a, b), r in reference.items()
        if r.adjacent
    ]
    assert tested == [pair for pair in reference if pair in tested]
    skipped = [pair for pair in reference if pair not in tested]
    for pair in skipped:
        result = reference[pair]
        assert result.witness is None or result.slack <= -geometry.SCREEN_MARGIN / 2, (
            pair,
            result.slack,
        )
    return skipped


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
    for problem in _NAMED_SCREEN_PROBLEMS:
        _screened_exactly(problem, monkeypatch)


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


def test_adjacency_screen_is_exact_on_random_problems(monkeypatch):
    rng = np.random.default_rng(2024)
    skipped = 0
    for index in range(300):
        kind = _SCREEN_KINDS[index % len(_SCREEN_KINDS)]
        problem = _random_screen_problem(rng, kind)
        pruned = _screened_exactly(problem, monkeypatch)
        if kind == "shift":
            # Scaled, the payoff gaps fall below the tie width: nothing to prove.
            assert pruned == [], (index, pruned)
        skipped += len(pruned)
    assert skipped > 0


def test_adjacency_screen_chunks_give_the_same_pairs(monkeypatch):
    rng = np.random.default_rng(77)
    for index in range(60):
        problem = _random_screen_problem(rng, _SCREEN_KINDS[index % len(_SCREEN_KINDS)])
        scaled = geometry.scale_unit_max_abs(problem.utility)
        per_pair = 2 * problem.n_states**2
        whole = geometry._screened_pairs(scaled)
        for pairs_per_chunk in (1, 2, 3):
            monkeypatch.setattr(geometry, "SCREEN_CHUNK_POINTS", pairs_per_chunk * per_pair)
            np.testing.assert_array_equal(geometry._screened_pairs(scaled), whole)
        monkeypatch.setattr(geometry, "SCREEN_MAX_POINTS", per_pair - 1)
        assert not geometry._screened_pairs(scaled).any()
        monkeypatch.undo()


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
    scaled = geometry.scale_unit_max_abs(problem.utility)
    want = [_reference_screened_pairs(scaled, i) for i in range(problem.n_actions)]
    got = geometry._screened_pairs(scaled)
    np.testing.assert_array_equal(got, np.concatenate([np.zeros(0, dtype=bool), *want]))
    return int(got.sum())


def test_one_screen_pass_matches_the_per_action_screen(monkeypatch):
    screened = sum(map(_assert_screen_matches_the_reference, _NAMED_SCREEN_PROBLEMS))
    rng = np.random.default_rng(2024)
    for index in range(300):
        problem = _random_screen_problem(rng, _SCREEN_KINDS[index % len(_SCREEN_KINDS)])
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
    tracemalloc.start()
    try:
        geometry.adjacency_graph(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(geometry_lps) == 3
    assert peak < 8 * n_states**2 / 100, peak


@pytest.mark.parametrize(
    "problem, lps",
    [
        (ek.make_quadratic_loss(4), 4),
        (ek.make_quadratic_loss(15), 15),
        (ek.make_quadratic_loss(40), 40),
        (ek.make_star(7, 0.7), 7),
        # Cross-task pairs of a product are left to product-aware adjacency.
        (ek.make_mc_test(3, 3)[0], 351),
    ],
    ids=["quadratic-loss-4", "quadratic-loss-15", "quadratic-loss-40", "star-7", "mc-test-3-3"],
)
def test_adjacency_graph_lp_counts(problem, lps, geometry_lps):
    geometry.adjacency_graph(problem)
    assert len(geometry_lps) == lps


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
    problem = ek.make_cycle_rich_safe()
    result = ek.cycle_rich(problem, problem.actions, max_size=4)
    assert result.rich is None
    assert result.status == "unknown (size)"


def test_cycle_rich_validates_input():
    problem = ek.make_cycle_rich_safe()
    with pytest.raises(ValueError):
        ek.cycle_rich(problem, ("theta0", "theta1", "theta2"))
    with pytest.raises(ValueError):
        ek.cycle_rich(problem, ("theta0", "theta0", "theta1", "theta2"))
