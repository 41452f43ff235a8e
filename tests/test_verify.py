"""Grid search, distortion witnesses, and the negative controls."""

from __future__ import annotations

import math

import numpy as np
import pytest

import elicitkit as ek
from conftest import decide_and_synthesize, random_validated_problems
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
        ek.belief_grid(6, 40, cap=100)
    with pytest.raises(ValueError):
        ek.belief_grid(1, 4)
    with pytest.raises(ValueError):
        ek.belief_grid(3, 0)


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


@pytest.mark.parametrize("problem", _FACE_PROBLEMS)
def test_face_beliefs_match_the_step_halving_loop_bitwise(problem):
    for index, edge in enumerate(ek.adjacency_graph(problem).edges):
        for n in (1, 3, 6):
            witness = edge.witness.probs
            _assert_same_bits(
                _face_beliefs(problem, edge.a, edge.b, witness, n, 5 + index),
                _reference_face_beliefs(problem, edge.a, edge.b, witness, n, 5 + index),
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
    spec = ek.GridSpec(denominator=6, samples=100, refine_rounds=2)
    assert ek.find_distortion_witness(bundle, aligned_method, spec=spec) is None


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
    spec = ek.GridSpec(denominator=3, samples=0, boundary_per_edge=0)
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


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        ek.GridSpec(denominator=0)
    with pytest.raises(ValueError):
        ek.GridSpec(samples=-1)
    with pytest.raises(ValueError):
        ek.GridSpec(tol_action=0.0)
    with pytest.raises(ValueError):
        ek.GridSpec(max_denominator=0)
    spec = ek.GridSpec()
    assert spec.to_dict()["denominator"] == 10
