"""Grid search, distortion witnesses, and the negative controls."""

from __future__ import annotations

import gc
import json
import math
import weakref
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import elicitkit as ek
from conftest import decide_and_synthesize, foreign_graphs, random_validated_problems
from elicitkit import geometry, verify
from elicitkit._numerics import nullspace
from elicitkit.verify import _box_grid, _face_beliefs


# ---------------------------------------------------------------------------
# Belief enumeration


def test_belief_grid_is_lexicographic_and_complete():
    grid = ek.belief_grid(2, 2)
    np.testing.assert_allclose(grid, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    grid = ek.belief_grid(3, 4)
    assert grid.shape == (math.comb(4 + 2, 2), 3)
    np.testing.assert_allclose(grid.sum(axis=1), 1.0)
    assert grid.min() >= 0.0


def test_belief_grid_guards():
    with pytest.raises(ek.TooLargeError):
        ek.belief_grid(8, 40)  # C(47, 7) beliefs, above GRID_CAP
    with pytest.raises(ValueError):
        ek.belief_grid(1, 4)
    with pytest.raises(ValueError):
        ek.belief_grid(3, 0)


def test_belief_grid_caps_its_floats(monkeypatch):
    # Under a cap of 100 beliefs, at most 100 * GRID_MAX_STATES = 800 floats:
    # the 11-state pairwise grid has 66 beliefs (726 floats), the 12-state
    # one 78 beliefs but 936 floats.  Every grid of at most 8 states that
    # passes the belief cap passes the float cap too.
    monkeypatch.setattr(verify, "GRID_CAP", 100)
    assert ek.belief_grid(11, 2).shape == (66, 11)
    with pytest.raises(ek.TooLargeError, match="78 beliefs of 12 states"):
        ek.belief_grid(12, 2)
    assert ek.belief_grid(8, 2).shape == (36, 8)


def test_witness_search_skips_a_pairwise_grid_it_may_not_build(monkeypatch):
    # Under a cap of 50 beliefs the 12-state pairwise grid (78 beliefs) is
    # refused; the search keeps its Dirichlet draws and refinement rounds.
    monkeypatch.setattr(verify, "GRID_CAP", 50)
    rng = np.random.default_rng(3)
    problem = ek.DecisionProblem(
        states=tuple(f"s{i}" for i in range(12)),
        actions=("a0", "a1", "a2"),
        utility=rng.uniform(size=(3, 12)),
    )
    question = ek.QuestionProfile(rng.uniform(size=(3, 12)))
    bundle = ek.ProblemBundle(problem=problem, question=question)
    control = ek.make_naive_bdm(problem, bundle.question, bundle.alpha)
    witness = ek.find_distortion_witness(bundle, control)
    assert witness is not None and witness.u_optimal != witness.v_optimal
    with pytest.raises(ValueError, match="empty belief set"):
        ek.find_distortion_witness(bundle, control, ek.GridSpec(samples=0))


def test_belief_grid_keeps_small_grids_read_only():
    grid = ek.belief_grid(8, 10)
    assert grid.nbytes <= verify._GRID_MEMO_BYTES
    assert ek.belief_grid(8, 10) is grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0, 0] = 1.0
    fresh = verify._compositions(10, np.zeros(8, dtype=np.int64), np.full(8, 10)) / 10.0
    _assert_same_bits(grid, fresh)


def test_belief_grid_builds_large_grids_per_call():
    # 3-state grids above the memo bound: rebuilt on every call, not kept
    m = 600
    grid = ek.belief_grid(3, m)
    assert grid.nbytes > verify._GRID_MEMO_BYTES
    assert not grid.flags.writeable
    again = ek.belief_grid(3, m)
    assert again is not grid
    _assert_same_bits(again, grid)
    kept = weakref.ref(grid)
    del grid, again
    gc.collect()
    assert kept() is None


def test_dirichlet_sample_is_deterministic():
    a = ek.dirichlet_sample(4, 7, seed=11)
    b = ek.dirichlet_sample(4, 7, seed=11)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (7, 4)
    np.testing.assert_allclose(a.sum(axis=1), 1.0)
    c = ek.dirichlet_sample(4, 7, seed=12)
    assert not np.array_equal(a, c)


def test_boundary_beliefs_sit_on_the_indifference_face(ql4):
    points = ek.boundary_beliefs(ql4, "0", "0.25", 4, seed=0)
    u_a = ql4.utility_of("0")
    u_b = ql4.utility_of("0.25")
    for p in points:
        assert abs(float(p @ u_a) - float(p @ u_b)) < 1e-9
        assert {"0", "0.25"} <= set(ek.optimal_actions(ql4, ek.Belief(p)))
    with pytest.raises(ValueError):
        ek.boundary_beliefs(ql4, "0", "1", 4, seed=0)


def test_boundary_beliefs_count_is_checked(ql4):
    none = ek.boundary_beliefs(ql4, "0", "0.25", 0, seed=0)
    assert none.shape == (0, ql4.n_states) and none.dtype == np.float64
    with pytest.raises(ValueError, match="nonnegative"):
        ek.boundary_beliefs(ql4, "0", "0.25", -1, seed=0)


def test_belief_grid_pins_the_large_pairwise_grid():
    # the mc-test(4, 4) coarse grid of the witness search: 256 states, m = 2
    counts = np.rint(ek.belief_grid(256, 2) * 2).astype(np.int8)
    assert counts.shape == (math.comb(2 + 255, 255), 256)
    assert (counts.sum(axis=1) == 2).all()
    steps = np.diff(counts, axis=0)
    first_change = steps[np.arange(steps.shape[0]), np.argmax(steps != 0, axis=1)]
    assert (first_change > 0).all()  # strictly ascending, so no row repeats


# ---------------------------------------------------------------------------
# Bitwise agreement with the loop implementations the vectorized code replaced


def _reference_compositions(total: int, parts: int):
    counts = [0] * (parts - 1) + [total]
    while True:
        yield tuple(counts)
        j = parts - 1
        while j >= 0 and counts[j] == 0:
            j -= 1
        if j <= 0:
            return
        carried = counts[j]
        counts[j] = 0
        counts[j - 1] += 1
        counts[parts - 1] = carried - 1


def _reference_box_grid(center, denominator, radius=2):
    counts = np.floor(center * denominator).astype(int)
    lows = np.maximum(counts - radius, 0)
    highs = np.minimum(counts + radius, denominator)
    k = center.shape[0]
    suffix_low = np.concatenate([np.cumsum(lows[::-1])[::-1][1:], [0]])
    suffix_high = np.concatenate([np.cumsum(highs[::-1])[::-1][1:], [0]])
    out = []
    stack = [(0, denominator, ())]
    while stack:
        coord, remaining, prefix = stack.pop()
        if coord == k:
            if remaining == 0:
                out.append(prefix)
            continue
        lo = max(lows[coord], remaining - suffix_high[coord])
        hi = min(highs[coord], remaining - suffix_low[coord])
        for value in range(lo, hi + 1):
            stack.append((coord + 1, remaining - value, prefix + (value,)))
    if not out:
        return np.zeros((0, k))
    return np.array(sorted(out), dtype=np.float64) / float(denominator)


def _reference_face_beliefs(problem, a, b, witness, n, seed):
    points = [witness]
    if n > 1:
        rows = np.vstack(
            [np.ones(problem.n_states), problem.utility_of(a) - problem.utility_of(b)]
        )
        directions = nullspace(rows)
        rng = np.random.Generator(np.random.PCG64(seed))
        attempts = 0
        while len(points) < n and attempts < 50 * n:
            attempts += 1
            if directions.shape[0] == 0:
                points.append(witness)
                continue
            coeffs = rng.normal(size=directions.shape[0])
            direction = coeffs @ directions
            norm = float(np.linalg.norm(direction))
            if norm == 0.0:
                continue
            direction /= norm
            step = 1.0
            for _ in range(40):
                candidate = witness + step * direction
                if candidate.min() >= 0.0:
                    candidate = np.clip(candidate, 0.0, None)
                    candidate /= candidate.sum()
                    if {a, b} <= set(ek.optimal_actions(problem, candidate)):
                        points.append(candidate)
                        break
                step /= 2.0
        while len(points) < n:
            points.append(witness)
    return np.asarray(points[:n], dtype=np.float64)


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", range(2, 9))
def test_belief_grid_matches_the_loop_bitwise(k):
    for m in range(1, 13):
        want = np.array(list(_reference_compositions(m, k)), dtype=np.float64) / float(m)
        _assert_same_bits(ek.belief_grid(k, m), want)


def test_box_grid_matches_the_loop_bitwise():
    rng = np.random.default_rng(20)
    for _ in range(250):
        k = int(rng.integers(2, 9))
        denominator = int(rng.integers(1, 65))
        radius = int(rng.integers(0, 4))
        center = rng.dirichlet(np.ones(k))
        center[rng.random(k) < 0.3] = 0.0
        if center.sum() == 0.0:
            center[rng.integers(k)] = 1.0
        center /= center.sum()
        _assert_same_bits(
            _box_grid(center, denominator, radius),
            _reference_box_grid(center, denominator, radius),
        )


_FACE_PROBLEMS = [
    pytest.param(ek.make_quadratic_loss(5), id="quadratic-loss"),
    pytest.param(ek.make_star(4, 0.3), id="star"),
    pytest.param(ek.make_state_matching([1.0, 2.0, 3.0]), id="state-matching"),
    pytest.param(ek.make_close_guess([1.0, 2.0, 3.0, 4.0]), id="close-guess"),
    pytest.param(ek.make_mc_test(2, 3)[0], id="mc-test"),
    pytest.param(ek.make_cycle_rich_safe(), id="cycle-rich-safe"),
    *(
        pytest.param(problem, id=f"random-{i}")
        for i, problem in enumerate(
            random_validated_problems(12, seed=21, max_states=7, max_actions=8)
        )
    ),
]


def test_face_problems_have_witnesses_on_and_off_the_simplex_boundary():
    # The screen rejects directions only where the witness has a zero
    # coordinate, so the bitwise test below needs both kinds of witness.
    on_boundary = [
        bool((edge.witness.probs <= 0.0).any())
        for param in _FACE_PROBLEMS
        for edge in ek.adjacency_graph(param.values[0]).edges
    ]
    assert any(on_boundary) and not all(on_boundary)


def _face(problem, a, b, witness):
    """The index and witness arrays ``_face_beliefs`` takes for one face."""
    return np.array([[problem.action_index[a], problem.action_index[b]]]), witness[None]


@pytest.mark.parametrize("problem", _FACE_PROBLEMS)
def test_face_beliefs_match_the_step_halving_loop_bitwise(problem):
    for index, edge in enumerate(ek.adjacency_graph(problem).edges):
        for n in (1, 2, 3, 6, 20):
            witness = edge.witness.probs
            _assert_same_bits(
                _face_beliefs(problem, *_face(problem, edge.a, edge.b, witness), n, 5 + index),
                _reference_face_beliefs(problem, edge.a, edge.b, witness, n, 5 + index),
            )


def _vertex_face_problem() -> ek.DecisionProblem:
    # a and b tie only at the vertex s0, and the face's one tangent
    # direction lowers s1 or s2 there: every attempt leaves the simplex.
    return ek.DecisionProblem(
        states=("s0", "s1", "s2"),
        actions=("a", "b", "c"),
        utility=np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]),
    )


@pytest.mark.parametrize(
    "problem, a, b",
    [
        pytest.param(_vertex_face_problem(), "a", "b", id="every-step-leaves"),
        pytest.param(ek.make_state_matching([1.0, 2.0]), "1", "2", id="no-tangent-space"),
    ],
)
def test_face_beliefs_repeat_the_witness_when_no_step_stays_on_the_face(problem, a, b):
    witness = ek.adjacency_test(problem, a, b).witness.probs
    got = _face_beliefs(problem, *_face(problem, a, b, witness), 5, 3)
    _assert_same_bits(got, _reference_face_beliefs(problem, a, b, witness, 5, 3))
    _assert_same_bits(got, np.tile(witness, (5, 1)))


_GRAPH_FACE_PROBLEMS = [
    _vertex_face_problem(),
    ek.make_star(4, 0.3),
    ek.make_close_guess([1.0, 2.0, 3.0, 4.0]),
    ek.make_mc_test(2, 3)[0],
    *random_validated_problems(3, seed=8, max_states=6, max_actions=7),
]


def test_graph_face_problems_have_several_edges_and_a_vertex_witness():
    graphs = [ek.adjacency_graph(problem) for problem in _GRAPH_FACE_PROBLEMS]
    assert all(len(graph.edges) > 1 for graph in graphs)
    assert any(
        (edge.witness.probs <= 0.0).sum() == edge.witness.probs.size - 1
        for graph in graphs
        for edge in graph.edges
    )


@pytest.mark.parametrize("n", (1, 2, 3, 6, 20))
def test_face_beliefs_of_a_whole_graph_match_the_loop_bitwise(n):
    for problem in _GRAPH_FACE_PROBLEMS:
        graph = ek.adjacency_graph(problem)
        want = [
            _reference_face_beliefs(problem, edge.a, edge.b, edge.witness.probs, n, 9 + index)
            for index, edge in enumerate(graph.edges)
        ]
        _assert_same_bits(
            _face_beliefs(problem, graph.pairs, graph.witnesses, n, 9),
            np.vstack(want).reshape(-1, problem.n_states),
        )


def test_face_beliefs_match_the_reference_over_several_batches():
    # About a quarter of the directions stay in the simplex at this witness,
    # (1/2, 1/2, 0, 0), so 2000 points take more than one batch of draws.
    problem = ek.make_star(4, 0.3)
    witness = ek.adjacency_test(problem, "theta0", "theta1").witness.probs
    got = _face_beliefs(problem, *_face(problem, "theta0", "theta1", witness), 2000, 11)
    assert got.shape == (2000, problem.n_states)
    _assert_same_bits(
        got, _reference_face_beliefs(problem, "theta0", "theta1", witness, 2000, 11)
    )


# ---------------------------------------------------------------------------
# Payment surface helpers


def test_expected_payoff_matches_the_closed_form(aligned_method):
    p = np.array([0.2, 0.2, 0.2, 0.2, 0.2])
    for g, action in enumerate(aligned_method.actions):
        r_star, value = ek.expected_payoff(aligned_method, p, action)
        assert r_star == pytest.approx(float(p @ aligned_method.c1[g]))
        direct = float(p @ aligned_method.c0[g]) + 0.5 * r_star * r_star
        assert value == pytest.approx(direct)


def test_value_of_information_tracks_the_best_action(aligned_method):
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = rng.dirichlet(np.ones(5))
        best = max(
            ek.expected_payoff(aligned_method, p, a)[1]
            for a in aligned_method.actions
        )
        assert ek.value_of_information(aligned_method, p) == pytest.approx(best)


# ---------------------------------------------------------------------------
# Verification sweeps


def test_verify_passes_for_the_aligned_mechanism(ql4, aligned_method):
    bundle = ek.ProblemBundle(
        problem=ql4, question=ek.build_question("expected-payoff", ql4)
    )
    spec = ek.GridSpec(denominator=6, samples=50)
    report = ek.verify_incentivizability(bundle, aligned_method, spec=spec)
    assert report.passed
    assert report.failures == ()
    # C(9, 4) rational beliefs + 50 samples + 12 boundary points
    assert report.checked == 272


def test_verify_flags_the_naive_control(within_bundle):
    control = ek.make_naive_bdm(within_bundle.problem, within_bundle.question)
    report = ek.verify_incentivizability(within_bundle, control)
    assert not report.passed
    assert report.checked == 1513
    assert len(report.failures) == 453


def test_witness_search_on_the_naive_control(within_bundle):
    control = ek.make_naive_bdm(within_bundle.problem, within_bundle.question)
    witness = ek.find_distortion_witness(within_bundle, control)
    assert witness is not None
    np.testing.assert_allclose(witness.belief, [0.0, 0.0, 0.1, 0.0, 0.9])
    assert witness.u_optimal == ("1",)
    assert witness.v_optimal == ("0.75",)
    assert witness.value_gap == pytest.approx(0.0575)
    assert witness.report_gap == 0.0
    # independent re-check of both argmax sets at the witness belief
    problem = within_bundle.problem
    eu = problem.utility @ witness.belief
    u_best = [
        a
        for a, v in zip(problem.actions, eu)
        if v >= eu.max() - 1e-7 * (1.0 + abs(eu.max()))
    ]
    assert tuple(u_best) == witness.u_optimal
    ev = np.array(
        [
            ek.expected_payoff(control, witness.belief, a)[1]
            for a in problem.actions
        ]
    )
    v_best = [
        a
        for a, v in zip(problem.actions, ev)
        if v >= ev.max() - 1e-7 * (1.0 + abs(ev.max()))
    ]
    assert tuple(v_best) == witness.v_optimal


def test_no_witness_for_the_aligned_mechanism(ql4, aligned_method):
    bundle = ek.ProblemBundle(
        problem=ql4, question=ek.build_question("expected-payoff", ql4)
    )
    spec = ek.GridSpec(denominator=6, samples=100)
    assert ek.find_distortion_witness(bundle, aligned_method, spec=spec) is None


def _spy(monkeypatch, name):
    """Record the arguments of every call to ``verify.<name>``."""
    calls = []
    original = getattr(verify, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(verify, name, spy)
    return calls


def test_witness_search_on_the_naive_control_scans_one_chunk(within_bundle, monkeypatch):
    scans = _spy(monkeypatch, "_scan_chunk")
    control = ek.make_naive_bdm(within_bundle.problem, within_bundle.question)
    assert ek.find_distortion_witness(within_bundle, control) is not None
    assert len(scans) == 1


def _aligned_bundle(problem: ek.DecisionProblem):
    bundle = ek.ProblemBundle(
        problem=problem, question=ek.build_question("expected-payoff", problem)
    )
    return bundle, decide_and_synthesize(bundle)


def test_refinement_ends_when_it_would_rescan_the_last_box(ql4, monkeypatch):
    # 20, 40, 64 and 64 again: the centre never moves, so the fourth round
    # would rescan the third round's box.
    boxes = _spy(monkeypatch, "_box_grid")
    bundle, method = _aligned_bundle(ql4)
    assert ek.find_distortion_witness(bundle, method) is None
    assert [denominator for _, denominator in boxes] == [20, 40, 64]
    assert all(center is boxes[0][0] for center, _ in boxes)


def test_refinement_is_never_coarser_than_the_coarse_pass(monkeypatch):
    # A denominator above MAX_DENOMINATOR is kept, not lowered to it.
    boxes = _spy(monkeypatch, "_box_grid")
    bundle, method = _aligned_bundle(ek.make_state_matching([1.0, 2.0, 3.0]))
    spec = ek.GridSpec(denominator=100)
    assert ek.find_distortion_witness(bundle, method, spec) is None
    assert [denominator for _, denominator in boxes] == [100]


def _scan_outputs(bundle, method, total):
    """Sweep and witness-search bytes, each scanning ``total`` beliefs."""
    k = bundle.problem.n_states
    grid = math.comb(10 + k - 1, k - 1)
    faces = ek.verify_incentivizability(bundle, method, ek.GridSpec(samples=0)).checked - grid
    report = ek.verify_incentivizability(
        bundle, method, ek.GridSpec(samples=total - grid - faces)
    )
    witness = ek.find_distortion_witness(bundle, method, ek.GridSpec(samples=total - grid))
    assert report.checked == total
    return [
        ek.canonical_dumps(report.to_dict()),
        ek.canonical_dumps(None if witness is None else witness.to_dict()),
    ]


@pytest.mark.parametrize("total", [1025, 2049])
def test_chunk_scans_keep_the_bits_of_one_whole_array_scan(within_bundle, monkeypatch, total):
    problem, x = within_bundle.problem, within_bundle.question.values
    method = ek.make_naive_bdm(problem, within_bundle.question)
    beliefs = ek.dirichlet_sample(problem.n_states, total, seed=7)

    def scan_fields():
        scans = [scan for _, scan in verify._scans(problem, x, method, beliefs, ek.GridSpec())]
        names = [field.name for field in fields(verify._ChunkScan)]
        return len(scans), [np.concatenate([getattr(s, n) for s in scans], axis=-1) for n in names]

    chunks, got = scan_fields()
    assert chunks == total // 1024
    monkeypatch.setattr(verify, "_CHUNK_ROWS", 1 << 30)
    for got_field, want_field in zip(got, scan_fields()[1]):
        _assert_same_bits(got_field, want_field)


@pytest.mark.parametrize("rows", [2, 3, 1024])
def test_chunked_scans_match_one_whole_array_scan(ql4, within_bundle, monkeypatch, rows):
    # 1024·j + 1 beliefs leave one row after the last full chunk of 1024: it
    # joins that chunk, because a one-row product can round differently.
    payoff, aligned = _aligned_bundle(ql4)
    cases = [
        (within_bundle, ek.make_naive_bdm(ql4, within_bundle.question)),
        (payoff, ek.make_quadratic_control(ql4, payoff.question)),
        (payoff, aligned),  # no witness: the search runs its refinement rounds
    ]
    totals = (1025, 2049, 2050)
    monkeypatch.setattr(verify, "_CHUNK_ROWS", 1 << 30)
    want = [_scan_outputs(b, m, total) for b, m in cases for total in totals]
    monkeypatch.setattr(verify, "_CHUNK_ROWS", rows)
    scans = _spy(monkeypatch, "_scan_chunk")
    boxes = _spy(monkeypatch, "_box_grid")
    got = [_scan_outputs(b, m, total) for b, m in cases for total in totals]
    assert got == want
    sizes = [args[0].shape[0] for args in scans]
    assert min(sizes) >= 2
    assert rows + 1 in sizes
    assert boxes


# ---------------------------------------------------------------------------
# Negative controls


def test_naive_bdm_shape(within_bundle):
    control = ek.make_naive_bdm(within_bundle.problem, within_bundle.question)
    assert control.provenance == "naive-bdm"
    assert control.report_range == (0.0, 1.0)
    assert control.c1.min() >= 0.0 and control.c1.max() <= 1.0
    # at alpha = 1/2 the decision part of the constant term is the raw utility
    np.testing.assert_array_equal(
        control.c0, within_bundle.problem.utility + 0.5
    )


def test_quadratic_control_distorts_despite_truthfulness():
    problem = ek.make_state_matching([1.0, 2.0])
    question = ek.build_question("expected-payoff", problem)
    control = ek.make_quadratic_control(problem, question)
    assert control.provenance == "quadratic-control"
    bundle = ek.ProblemBundle(problem=problem, question=question)
    spec = ek.GridSpec(denominator=3, samples=0)
    witness = ek.find_distortion_witness(bundle, control, spec=spec)
    assert witness is not None
    # at p = (2/3, 1/3) both actions have expected utility 2/3, but the
    # binarized score prefers the lower-variance one outright
    np.testing.assert_allclose(witness.belief, [2.0 / 3.0, 1.0 / 3.0])
    assert witness.u_optimal == ("1", "2")
    assert witness.v_optimal == ("1",)
    assert witness.value_gap == pytest.approx(1.0 / 12.0)


# ---------------------------------------------------------------------------
# Cross-check and configuration


def test_oracle_cross_check_consistency(within_bundle, mc32_bundle):
    record = ek.oracle_cross_check(within_bundle)
    assert record.consistent
    assert record.verdict.status == "not_incentivizable"
    assert "value gap" in record.detail
    record = ek.oracle_cross_check(mc32_bundle)
    assert record.consistent
    assert record.verdict.status == "incentivizable"


def test_verify_refuses_a_graph_of_another_problem(ql4, aligned_method):
    bundle = ek.ProblemBundle(problem=ql4, question=ek.build_question("expected-payoff", ql4))
    for graph in foreign_graphs(ql4):
        with pytest.raises(ValueError, match="another problem's"):
            ek.verify_incentivizability(bundle, aligned_method, graph=graph)


def test_oracle_cross_check_builds_one_graph(geometry_lps):
    # decide_incentivizable and the boundary sweep share one graph: its
    # 120 LPs are solved once, not twice, and the record does not change.
    problem, product = ek.make_mc_test(4, 2)
    question = ek.build_question("improvement", problem, product, split=2)
    bundle = ek.ProblemBundle(problem=problem, question=question, product=product)
    record = ek.oracle_cross_check(bundle)
    assert len(geometry_lps) == 120
    assert record.consistent
    assert record.detail == (
        "synthesized product-bdm: 596/596 beliefs pass, 0 ambiguous, 0 failures"
    )
    alone = ek.decide_incentivizable(bundle)
    assert ek.canonical_dumps(record.verdict.to_dict()) == ek.canonical_dumps(alone.to_dict())


def test_deciding_and_cross_checking_build_no_belief(
    monkeypatch, geometry_lps, chained_bundle, within_bundle
):
    # The graph keeps its witnesses as one array, and the verdict and the
    # face beliefs read that array: no Belief is built on either path.
    # A Belief is built by its __init__ or around a stored witness row.
    built = []
    real_init = ek.Belief.__init__
    real_stored = geometry._stored_belief

    def counted_init(self, *args, **kwargs):
        built.append(type(self))
        real_init(self, *args, **kwargs)

    def counted_stored(row):
        built.append(ek.Belief)
        return real_stored(row)

    monkeypatch.setattr(ek.Belief, "__init__", counted_init)
    monkeypatch.setattr(geometry, "_stored_belief", counted_stored)
    for bundle in (chained_bundle, within_bundle):
        verdict = ek.decide_incentivizable(bundle)
        assert verdict.theorem != "global-alignment-sufficiency"
        assert ek.oracle_cross_check(bundle).consistent
    assert geometry_lps  # both paths built the graph
    assert built == []
    graph = ek.adjacency_graph(within_bundle.problem)
    assert built == []
    assert len(graph.edges) == len(built) == 4  # built on first use, one per witness


def _split_tie_bundles() -> list[ek.ProblemBundle]:
    matching = ek.make_state_matching([1.101, 1.681, 0.838, 1.571, 1.35])
    random = ek.DecisionProblem(
        states=("s0", "s1", "s2", "s3"),
        actions=("a0", "a1", "a2", "a3", "a4"),
        utility=np.array(
            [
                [0.264988, 0.615077, 0.237005, 0.727032],
                [0.245719, 0.533149, 0.561222, 0.897472],
                [0.493291, 0.163159, 0.313814, 0.296167],
                [0.313279, 0.144596, 0.054486, 0.132003],
                [0.083981, 0.024007, 0.791382, 0.868048],
            ]
        ),
    )
    return [
        ek.ProblemBundle(
            problem=matching, question=ek.build_question("regret", matching), alpha=0.725
        ),
        ek.ProblemBundle(
            problem=random, question=ek.build_question("expected-payoff", random), alpha=0.474
        ),
    ]


@pytest.mark.parametrize(
    "bundle, checked", zip(_split_tie_bundles(), (1531, 801)), ids=["state-matching", "random"]
)
def test_a_near_tie_split_by_the_two_scales_is_ambiguous(bundle, checked):
    # One sweep belief of each is a three-way (two-way) near tie whose last
    # action falls inside the utility cut and just outside the value cut,
    # with neither deficit within a tenth of its cut: a tie, not a failure.
    method = ek.synthesize(bundle, ek.decide_incentivizable(bundle))
    report = ek.verify_incentivizability(bundle, method)
    assert (report.checked, report.passes, report.boundary_ambiguous) == (
        checked,
        checked - 1,
        1,
    )
    assert report.failures == ()
    assert ek.oracle_cross_check(bundle).consistent


def _reference_scan_chunk(chunk, utility, x, method, tol):
    """The one-pass scan that judged ambiguity on every row of every scan."""
    eu = chunk @ utility.T
    best_u = eu.max(axis=1)
    cut_u = tol * (1.0 + np.abs(best_u))
    deficit_u = best_u[:, None] - eu
    mask_u = deficit_u <= cut_u[:, None]

    reports = chunk @ method.c1.T
    values = chunk @ method.c0.T + 0.5 * reports * reports
    best_v = values.max(axis=1)
    cut_v = tol * (1.0 + np.abs(best_v))
    deficit_v = best_v[:, None] - values
    mask_v = deficit_v <= cut_v[:, None]

    expected = (chunk @ x.T) * method.slope[None, :] + method.intercept[None, :]
    gaps = np.abs(reports - expected)

    near_u = (np.abs(deficit_u - cut_u[:, None]) <= cut_u[:, None] / 10.0).any(axis=1)
    near_v = (np.abs(deficit_v - cut_v[:, None]) <= cut_v[:, None] / 10.0).any(axis=1)

    sets_equal = (mask_u == mask_v).all(axis=1)
    bad_report = ((gaps > 10.0 * tol) & mask_v).any(axis=1)
    near_both = np.where(
        mask_u,
        deficit_v <= verify.CONFIRM_FACTOR * cut_v[:, None],
        deficit_u <= verify.CONFIRM_FACTOR * cut_u[:, None],
    )
    split_tie = ~sets_equal & ~bad_report & ((mask_u == mask_v) | near_both).all(axis=1)
    # per-action fields in the scan's layout: one action per row
    return SimpleNamespace(
        mask_u=mask_u.T,
        mask_v=mask_v.T,
        values=values.T,
        best_v=best_v,
        report_gaps=gaps.T,
        ambiguous=near_u | near_v | split_tie,
        sets_equal=sets_equal,
        bad_report=bad_report,
    )


def _reference_scans(problem, x, method, beliefs, spec):
    """The scan in chunks of 16384 rows, each scanned in one pass."""
    for start in range(0, beliefs.shape[0], 16384):
        chunk = beliefs[start : start + 16384]
        yield chunk, _reference_scan_chunk(chunk, problem.utility, x, method, spec.tol)


def _scan_split_bundles() -> list[ek.ProblemBundle]:
    ql4 = ek.make_quadratic_loss(4)
    named = [
        (ql4, ek.build_question("within-x", ql4, x=0.25)),
        (ql4, ek.build_question("expected-payoff", ql4)),
    ]
    for problem, kind in (
        (ek.make_star(4, 0.3), "regret"),
        (ek.make_state_matching([1.0, 1.5, 0.8]), "ex-post-optimality"),
        (ek.make_close_guess([1.0, 2.0, 3.0, 4.0]), "ex-post-optimality"),
        (ek.make_cycle_rich_safe(), "expected-payoff"),
    ):
        named.append((problem, ek.build_question(kind, problem)))
    # Registered questions, and a question drawn at random for every fourth.
    rng = np.random.default_rng(23)
    kinds = ("expected-payoff", "regret", "ex-post-optimality")
    random = [
        (
            problem,
            ek.build_question(kinds[i % 4], problem)
            if i % 4 < 3
            else ek.QuestionProfile(values=rng.uniform(0.0, 1.0, size=problem.utility.shape)),
        )
        for i, problem in enumerate(
            random_validated_problems(30, seed=23, max_states=5, max_actions=6)
        )
    ]
    return _split_tie_bundles() + [
        ek.ProblemBundle(problem=problem, question=question)
        for problem, question in named + random
    ]


#: The default tolerance, and a coarse one under which many deficits sit
#: within a tenth of their cut on either scale.
_SCAN_SPECS = (
    ek.GridSpec(),
    ek.GridSpec(denominator=6, samples=100, tol=0.05),
)


def _sweep_and_search(bundle: ek.ProblemBundle) -> list[str]:
    verdict = ek.decide_incentivizable(bundle)
    naive = ek.make_naive_bdm(bundle.problem, bundle.question, bundle.alpha)
    # the naive control's reports, moved off the transform for the first action
    shifted = np.zeros(bundle.problem.n_actions)
    shifted[0] = 0.1
    methods = [
        naive,
        replace(naive, intercept=naive.intercept + shifted),
        ek.make_quadratic_control(bundle.problem, bundle.question, bundle.alpha),
    ]
    if verdict.status == "incentivizable":
        methods.append(ek.synthesize(bundle, verdict))
    out = []
    for method in methods:
        for spec in _SCAN_SPECS:
            report = ek.verify_incentivizability(bundle, method, spec)
            witness = ek.find_distortion_witness(bundle, method, spec)
            out.append(ek.canonical_dumps(report.to_dict()))
            out.append(ek.canonical_dumps(None if witness is None else witness.to_dict()))
    return out


def test_scans_match_the_one_pass_reference_bitwise(monkeypatch):
    # The sweep judges ambiguity itself, and near_both only on rows whose sets
    # differ with no bad report; the scan runs action-major in small chunks.
    # Reports and witnesses keep every byte.
    bundles = _scan_split_bundles()
    got = [_sweep_and_search(bundle) for bundle in bundles]
    monkeypatch.setattr(verify, "_scans", _reference_scans)
    monkeypatch.setattr(verify, "_ambiguous", lambda scan: scan.ambiguous)
    want = [_sweep_and_search(bundle) for bundle in bundles]
    assert got == want
    # the sweeps include failures, bad reports, passes and ambiguous beliefs
    reports = [json.loads(text) for texts in got for text in texts[::2]]
    failures = [w for r in reports for w in r["failures"]]
    assert sum(r["boundary_ambiguous"] > 0 for r in reports) >= 2
    assert any(r["passed"] for r in reports)
    assert any(w["report_gap"] > 0.05 for w in failures)
    assert any(w["u_optimal"] != w["v_optimal"] for w in failures)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        ek.GridSpec(denominator=0)
    with pytest.raises(ValueError):
        ek.GridSpec(samples=-1)
    with pytest.raises(ValueError):
        ek.GridSpec(tol=0.0)
    assert ek.GridSpec().to_dict() == {"denominator": 10, "samples": 500, "seed": 0, "tol": 1e-7}


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
def test_grid_spec_rejects_tolerances_that_are_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="finite and positive"):
        ek.GridSpec(tol=tol)
