"""``max_slack_lp`` against the same program solved by ``scipy.optimize.linprog``.

``max_slack_lp`` hands its program to HiGHS directly.  The reference
below builds that program the documented way, through
``linprog(method="highs")``, and applies the same clip and normalize.
The two must agree bit for bit: on the slack, on the belief, and on
``(-inf, None)`` for infeasible programs.

``max_slack_lp`` also keeps one HiGHS solver per thread.  A second
reference builds a fresh solver and a ``HighsLp`` for every program, as
the function once did; the reused solver must give the same bits in any
order of programs, after a solve that stopped early, and in two threads
at once.  scipy's feasibility check, now one array comparison, must give
the verdicts of the generator form it replaced, NaN included.  A program
that does not finish is solved once more without presolve, and the
solver keeps its own options.

``numerical_rank`` counts singular values above one relative cutoff,
for one matrix or a stack.  Away from the cutoff it must give the rank
of a matrix-at-a-time elimination and the exact rank of an elimination
over ``Fraction``; at the cutoff it must count exactly the singular
values above it, alone and inside zero-padded stacks.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from scipy.optimize import linprog

import elicitkit
from elicitkit import _numerics
from elicitkit._numerics import RANK_RTOL, max_slack_lp, numerical_rank, scale_to_utility_gauge


def reference_max_slack_lp(
    utility: np.ndarray, target: int, tie_with: int | None = None
) -> tuple[float, np.ndarray | None]:
    n_actions, n_states = utility.shape
    competitors = [c for c in range(n_actions) if c != target and c != tie_with]
    cost = np.zeros(n_states + 1)
    cost[-1] = -1.0
    a_ub = np.zeros((len(competitors), n_states + 1))
    for row, comp in enumerate(competitors):
        a_ub[row, :n_states] = utility[comp] - utility[target]
        a_ub[row, -1] = 1.0
    eq_rows = [np.concatenate([np.ones(n_states), [0.0]])]
    eq_rhs = [1.0]
    if tie_with is not None:
        eq_rows.append(np.concatenate([utility[target] - utility[tie_with], [0.0]]))
        eq_rhs.append(0.0)
    result = linprog(
        cost,
        A_ub=a_ub if competitors else None,
        b_ub=np.zeros(len(competitors)) if competitors else None,
        A_eq=np.array(eq_rows),
        b_eq=np.array(eq_rhs),
        bounds=[(0.0, None)] * n_states + [(None, 2.0)],
        method="highs",
    )
    if not result.success:
        return float("-inf"), None
    belief = np.clip(result.x[:n_states], 0.0, None)
    total = float(belief.sum())
    if total <= 0.0:
        return float("-inf"), None
    return float(result.x[-1]), belief / total


def assert_matches_reference(utility: np.ndarray, target: int, tie_with: int | None) -> bool:
    """Assert bitwise agreement; return whether the program was feasible."""
    slack, belief = max_slack_lp(utility, target, tie_with)
    ref_slack, ref_belief = reference_max_slack_lp(utility, target, tie_with)
    case = (utility.tolist(), target, tie_with)
    if ref_belief is None:
        assert belief is None and slack == float("-inf"), case
        return False
    assert belief is not None, case
    assert np.float64(slack).tobytes() == np.float64(ref_slack).tobytes(), case
    assert belief.dtype == ref_belief.dtype and belief.shape == ref_belief.shape, case
    assert belief.tobytes() == ref_belief.tobytes(), case
    return True


def check_all_targets(utility: np.ndarray, rng: np.random.Generator) -> list[bool]:
    """Every action as target, alone and tied with one other random action."""
    n_actions = utility.shape[0]
    outcomes = []
    for target in range(n_actions):
        outcomes.append(assert_matches_reference(utility, target, None))
        if n_actions > 1:
            tie = int((target + 1 + rng.integers(0, n_actions - 1)) % n_actions)
            outcomes.append(assert_matches_reference(utility, target, tie))
    return outcomes


def test_random_problems_match_reference():
    rng = np.random.default_rng(20260)
    outcomes = []
    for _ in range(40):
        n_states = int(rng.integers(2, 9))
        n_actions = int(rng.integers(2, 11))
        utility = scale_to_utility_gauge(rng.normal(size=(n_actions, n_states)))
        outcomes += check_all_targets(utility, rng)
    assert any(outcomes) and not all(outcomes)


def test_degenerate_ties_match_reference():
    rng = np.random.default_rng(7)
    outcomes = []
    for _ in range(15):
        n_states = int(rng.integers(2, 6))
        n_actions = int(rng.integers(3, 8))
        raw = rng.normal(size=(n_actions, n_states))
        duplicated = raw.copy()
        duplicated[int(rng.integers(1, n_actions))] = duplicated[0]
        rounded = np.round(raw, 1)
        for utility in (duplicated, rounded):
            outcomes += check_all_targets(scale_to_utility_gauge(utility), rng)
    assert any(outcomes) and not all(outcomes)


def test_two_action_tie_has_no_competitor_rows():
    utility = np.array([[1.0, -0.5, 0.25], [-0.75, 0.5, 0.0]])
    assert assert_matches_reference(utility, 0, 1)
    assert assert_matches_reference(utility, 1, 0)
    slack, _ = max_slack_lp(utility, 0, 1)
    assert slack == 2.0


def test_single_action_problem():
    utility = np.array([[0.5, -1.0, 0.25, 1.0]])
    assert assert_matches_reference(utility, 0, None)
    assert max_slack_lp(utility, 0)[0] == 2.0


def test_all_zero_utility():
    utility = np.zeros((3, 4))
    assert scale_to_utility_gauge(utility) is utility
    for target, tie in ((0, None), (1, None), (0, 2)):
        assert assert_matches_reference(utility, target, tie)
    assert max_slack_lp(utility, 0)[0] == 0.0


def test_tie_with_a_dominated_action_is_infeasible():
    utility = np.array([[1.0, 1.0], [0.0, 0.0], [0.5, 0.5]])
    assert not assert_matches_reference(utility, 0, 1)
    assert max_slack_lp(utility, 0, 1) == (float("-inf"), None)


# ---------------------------------------------------------------------------
# One solver per thread: the same bits as a fresh solver for every program


def fresh_solver_max_slack_lp(
    utility: np.ndarray, target: int, tie_with: int | None = None
) -> tuple[float, np.ndarray | None]:
    """``max_slack_lp`` as it was with a new solver and ``HighsLp`` per program."""
    highspy = _numerics._highs
    n_actions, n_states = utility.shape
    competitors = [c for c in range(n_actions) if c != target and c != tie_with]
    n_ub = len(competitors)
    n_rows = n_ub + (1 if tie_with is None else 2)
    matrix = np.zeros((n_rows, n_states + 1))
    matrix[:n_ub, :n_states] = utility[competitors] - utility[target]
    matrix[:n_ub, -1] = 1.0
    matrix[n_ub, :n_states] = 1.0
    if tie_with is not None:
        matrix[n_ub + 1, :n_states] = utility[target] - utility[tie_with]
    row_upper = np.zeros(n_rows)
    row_upper[n_ub] = 1.0
    row_lower = row_upper.copy()
    row_lower[:n_ub] = -np.inf
    col_lower = np.zeros(n_states + 1)
    col_lower[-1] = -np.inf
    col_upper = np.full(n_states + 1, np.inf)
    col_upper[-1] = 2.0
    cost = np.zeros(n_states + 1)
    cost[-1] = -1.0

    by_column = matrix.T
    nonzero = by_column != 0.0
    lp = highspy.HighsLp()
    lp.num_col_ = n_states + 1
    lp.num_row_ = n_rows
    lp.a_matrix_.num_col_ = n_states + 1
    lp.a_matrix_.num_row_ = n_rows
    lp.a_matrix_.format_ = highspy.MatrixFormat.kColwise
    lp.col_cost_ = cost
    lp.col_lower_ = col_lower
    lp.col_upper_ = col_upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.start_ = np.concatenate(([0], np.cumsum(nonzero.sum(axis=1))))
    lp.a_matrix_.index_ = np.nonzero(nonzero)[1]
    lp.a_matrix_.value_ = by_column[nonzero]

    highs = highspy._Highs()
    highs.passOptions(_numerics._scipy_highs_options())
    if (
        highs.passModel(lp) == highspy.HighsStatus.kError
        or highs.run() == highspy.HighsStatus.kError
        or highs.getModelStatus() != highspy.HighsModelStatus.kOptimal
    ):
        return float("-inf"), None
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    row_slack = row_upper - np.array(solution.row_value)
    tol = float(np.sqrt(1e-9) * 10)
    if np.isnan(highs.getInfo().objective_function_value) or not (
        np.all(x >= col_lower - tol)
        and np.all(x <= col_upper + tol)
        and np.all(row_slack[:n_ub] >= -tol)
        and np.all(np.abs(row_slack[n_ub:]) <= tol)
    ):
        return float("-inf"), None
    belief = np.clip(x[:n_states], 0.0, None)
    total = float(belief.sum())
    if total <= 0.0:
        return float("-inf"), None
    return float(x[-1]), belief / total


def same_bits(got: tuple, want: tuple) -> bool:
    (slack, belief), (want_slack, want_belief) = got, want
    if np.float64(slack).tobytes() != np.float64(want_slack).tobytes():
        return False
    if belief is None or want_belief is None:
        return belief is None and want_belief is None
    return belief.dtype == want_belief.dtype and belief.tobytes() == want_belief.tobytes()


def mixed_programs(seed: int) -> list[tuple[np.ndarray, int, int | None]]:
    """Programs of many shapes in one shuffled order, infeasible ties included."""
    rng = np.random.default_rng(seed)
    utilities = [
        np.array([[0.5, -1.0, 0.25, 1.0]]),  # one action
        np.zeros((3, 4)),
        np.array([[1.0, 1.0], [0.0, 0.0], [0.5, 0.5]]),  # action 1 dominated
    ]
    for _ in range(12):
        raw = rng.normal(size=(int(rng.integers(2, 8)), int(rng.integers(2, 7))))
        duplicated = raw.copy()
        duplicated[-1] = duplicated[0]
        utilities += [raw, duplicated, np.round(raw, 1)]
    programs = []
    for utility in map(scale_to_utility_gauge, utilities):
        n_actions = utility.shape[0]
        for target in range(n_actions):
            programs += [(utility, target, tie) for tie in (None, *range(n_actions)) if tie != target]
    order = rng.permutation(len(programs))
    return [programs[i] for i in order]


def test_reused_solver_matches_a_fresh_solver_for_every_program():
    programs = mixed_programs(11)
    stop_early = len(programs) // 2
    feasible = []
    for k, program in enumerate(programs):
        if k == stop_early:
            # End one solve at its iteration limit on the very solver
            # max_slack_lp uses; the programs after it must not notice.
            limited = _numerics._scipy_highs_options()
            limited.simplex_iteration_limit = 0
            solver = _numerics._solver()
            solver.passOptions(limited)
            try:
                with pytest.raises(_numerics.LPFailure, match="kIterationLimit"):
                    max_slack_lp(*program)
                assert solver.getModelStatus() == _numerics._highs.HighsModelStatus.kIterationLimit
            finally:
                solver.passOptions(_numerics._HIGHS_OPTIONS)
        want = fresh_solver_max_slack_lp(*program)
        assert same_bits(max_slack_lp(*program), want), (k, program)
        feasible.append(want[1] is not None)
    assert any(feasible) and not all(feasible)


def test_two_threads_get_their_single_threaded_bits():
    workloads = [mixed_programs(21), mixed_programs(22)]
    alone = [[max_slack_lp(*p) for p in programs] for programs in workloads]
    together: list[list[tuple] | None] = [None, None]
    solvers: list[object] = [None, None]
    barrier = threading.Barrier(2)

    def solve(i: int) -> None:
        solvers[i] = _numerics._solver()
        barrier.wait(timeout=60)
        together[i] = [max_slack_lp(*p) for p in workloads[i]]

    threads = [threading.Thread(target=solve, args=(i,), daemon=True) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two threads' Python steps often
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert solvers[0] is not solvers[1]
    assert solvers[0] is not _numerics._solver()
    for i in range(2):
        assert together[i] is not None, f"thread {i} did not finish"
        assert len(together[i]) == len(alone[i])
        assert all(map(same_bits, together[i], alone[i])), f"thread {i}"


# ---------------------------------------------------------------------------
# scipy's feasibility check, as one array comparison


def reference_passes_check(x, row_value, n_states, n_ub, tied) -> bool:
    """The check as ``max_slack_lp`` once ran it, one Python comparison at a time."""
    tol = _numerics._RESULT_TOL
    return (
        all(v >= -tol for v in x[:n_states])
        and x[-1] <= _numerics._SLACK_CAP + tol
        and all(v <= tol for v in row_value[:n_ub])
        and abs(1.0 - row_value[n_ub]) <= tol
        and (not tied or abs(row_value[-1]) <= tol)
    )


def test_the_array_check_matches_the_generator_check():
    tol = _numerics._RESULT_TOL
    cap = _numerics._SLACK_CAP
    edges = [tol, 1.0 + tol, 1.0 - tol, cap + tol]
    special = np.array(
        [0.0, -0.0, 1.0, 0.5, 2.0, np.nan, np.inf, -np.inf]
        + [f(v) for v in edges for f in (lambda v: v, np.negative)]
        + [np.nextafter(v, t) for v in edges + [-tol] for t in (-np.inf, np.inf)]
    )
    rng = np.random.default_rng(17)
    verdicts = []
    for _ in range(4000):
        n_states = int(rng.integers(1, 5))
        n_ub = int(rng.integers(0, 4))
        tied = bool(rng.integers(0, 2))
        n_rows = n_ub + 1 + tied
        x = rng.choice(special, size=n_states + 1)
        row_value = rng.choice(special, size=n_rows)
        if rng.random() < 0.5:  # mostly feasible, so both outcomes are common
            x[:n_states] = np.abs(x[:n_states])
            row_value[:n_ub] = -np.abs(row_value[:n_ub])
            row_value[n_ub] = rng.choice([1.0, 1.0 + tol, 1.0 - tol, np.nextafter(1.0 + tol, 2.0)])
            if tied:
                row_value[-1] = rng.choice([0.0, -0.0, tol, -tol, np.nextafter(tol, 1.0)])
        want = reference_passes_check(x.tolist(), row_value.tolist(), n_states, n_ub, tied)
        shape = _numerics._shape(n_states, n_ub, tied)
        got = _numerics._passes_check(shape, np.concatenate((x, row_value)))
        assert got == want, (x.tolist(), row_value.tolist(), n_ub, tied)
        verdicts.append(want)
    assert 0.05 < np.mean(verdicts) < 0.95, np.mean(verdicts)


def test_shape_constants_are_read_only():
    shape = _numerics._shape(3, 2, True)
    assert shape is _numerics._shape(3, 2, True)
    for array in shape:
        assert not array.flags.writeable


# ---------------------------------------------------------------------------
# A program that does not finish is solved once more, without presolve


class RecordingSolver:
    """This thread's solver, recording each run, clear and option change."""

    def __init__(self, highs) -> None:
        self.highs = highs
        self.calls: list[tuple] = []

    def __getattr__(self, name: str):
        method = getattr(self.highs, name)
        if name not in ("run", "clearSolver", "setOptionValue"):
            return method

        def recording(*args):
            self.calls.append((name, *args))
            return method(*args)

        return recording


def solver_options(highs) -> dict:
    options = highs.getOptions()
    return {name: getattr(options, name) for name in dir(options) if not name.startswith("_")}


@pytest.fixture
def recording_solver(monkeypatch):
    solver = RecordingSolver(_numerics._solver())
    monkeypatch.setattr(_numerics, "_solver", lambda: solver)
    return solver


#: A program that needs simplex iterations, also after presolve.
STALLING = (scale_to_utility_gauge(elicitkit.make_quadratic_loss(7).utility), 3, 4)

RESOLVE = [
    ("run",),
    ("clearSolver",),
    ("setOptionValue", "presolve", "off"),
    ("run",),
]


def test_a_finished_program_is_solved_once(recording_solver):
    utility = scale_to_utility_gauge(np.array([[1.0, -0.5, 0.25], [-0.75, 0.5, 0.0], [0.0, 0.1, 0.2]]))
    for tie in (None, 1):
        assert_matches_reference(utility, 0, tie)
    assert_matches_reference(np.array([[1.0, 1.0], [0.0, 0.0]]), 0, 1)  # infeasible
    assert recording_solver.calls == [("run",)] * 3


def test_a_stalled_program_fails_again_without_presolve(stalled_lps, recording_solver):
    before = solver_options(recording_solver.highs)
    with pytest.raises(_numerics.LPFailure, match="kIterationLimit"):
        max_slack_lp(*STALLING)
    assert recording_solver.calls == [*RESOLVE, ("setOptionValue", "presolve", "off")]
    assert solver_options(recording_solver.highs) == before


def test_the_re_solve_restores_the_solver_s_own_presolve_value(recording_solver):
    # Presolve on and no simplex iteration allowed: both attempts stop.
    limited = _numerics._scipy_highs_options()
    limited.simplex_iteration_limit = 0
    solver = recording_solver.highs
    solver.passOptions(limited)
    try:
        before = solver_options(solver)
        assert before["presolve"] == "on"
        with pytest.raises(_numerics.LPFailure, match="kIterationLimit"):
            max_slack_lp(*STALLING)
        assert solver_options(solver) == before
    finally:
        solver.passOptions(_numerics._HIGHS_OPTIONS)
    assert recording_solver.calls == [*RESOLVE, ("setOptionValue", "presolve", "on")]


def test_a_rejected_model_raises_at_once(recording_solver):
    with pytest.raises(_numerics.LPFailure, match="rejected the model"):
        max_slack_lp(np.array([[np.inf, 0.0], [0.0, 1.0]]), 0, 1)
    assert recording_solver.calls == []


# ---------------------------------------------------------------------------
# Numerical rank: one SVD rule, against eliminations and at its cutoff


def reference_row_reduce_rank(matrix: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Gaussian elimination with partial pivoting; pivots up to ``rtol * (1 + max_abs)`` are 0."""
    work = np.asarray(matrix, dtype=np.float64).copy()
    if work.size == 0:
        return 0
    threshold = rtol * (1.0 + float(np.max(np.abs(work))))
    rows, cols = work.shape
    rank = 0
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        candidates = np.abs(work[pivot_row:, col])
        best = int(np.argmax(candidates)) + pivot_row
        if abs(work[best, col]) <= threshold:
            continue
        if best != pivot_row:
            work[[pivot_row, best]] = work[[best, pivot_row]]
        pivot = work[pivot_row, col]
        below = work[pivot_row + 1 :, col] / pivot
        work[pivot_row + 1 :, :] -= np.outer(below, work[pivot_row, :])
        work[pivot_row + 1 :, col] = 0.0
        rank += 1
        pivot_row += 1
    return rank


#: The kinds of ``rank_test_matrix`` whose ranks lie far from the cutoff;
#: kinds 2 and 3 put a perturbation or an entry at the cutoff's own scale.
AWAY_FROM_CUTOFF = (0, 1, 4, 5)


def rank_test_matrix(
    rng: np.random.Generator, rows: int, cols: int, kinds: Sequence[int] = range(6)
) -> np.ndarray:
    """A random matrix, often rank-deficient, duplicated or near the rank cutoff."""
    kind = int(kinds[rng.integers(0, len(kinds))])
    if kind == 0:  # low rank
        inner = int(rng.integers(1, min(rows, cols) + 1))
        return rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
    matrix = rng.integers(-2, 3, size=(rows, cols)).astype(np.float64)
    if kind == 1 and rows > 1:  # duplicated and scaled rows
        matrix[rng.integers(1, rows)] = matrix[0] * float(rng.choice([1.0, -2.0, 0.5]))
    elif kind == 2:  # a perturbation at the cutoff's scale
        scale = RANK_RTOL * (1.0 + np.abs(matrix).max())
        matrix[-1] = matrix[0] + scale * float(rng.choice([0.5, 0.999, 1.001, 2.0]))
    elif kind == 3:  # an entry at the cutoff's scale
        matrix[rng.integers(0, rows), rng.integers(0, cols)] = RANK_RTOL * float(
            rng.choice([0.5, 1.0, 1.5, 2.0])
        )
    elif kind == 4:
        matrix = rng.normal(size=(rows, cols))
    return matrix


def test_stacked_ranks_match_one_matrix_at_a_time():
    rng = np.random.default_rng(31)
    ranks = []
    for _ in range(200):
        count = int(rng.integers(1, 30))
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        stack = np.array(
            [rank_test_matrix(rng, rows, cols, AWAY_FROM_CUTOFF) for _ in range(count)]
        )
        want = [reference_row_reduce_rank(matrix) for matrix in stack]
        got = numerical_rank(stack)
        assert got.dtype.kind == "i" and got.shape == (count,)
        assert got.tolist() == want
        assert [numerical_rank(matrix) for matrix in stack] == want
        ranks += want
    assert {0, 1, 2, 3} <= set(ranks)


def test_zero_rows_pad_a_stack_without_changing_any_rank():
    rng = np.random.default_rng(32)
    for _ in range(100):
        cols = int(rng.integers(1, 9))
        matrices = [
            rank_test_matrix(rng, int(rng.integers(1, 9)), cols, AWAY_FROM_CUTOFF)
            for _ in range(12)
        ]
        height = max(matrix.shape[0] for matrix in matrices) + int(rng.integers(0, 3))
        stack = np.zeros((len(matrices), height, cols))
        for slot, matrix in enumerate(matrices):
            stack[slot, : matrix.shape[0]] = matrix
        assert numerical_rank(stack).tolist() == list(map(reference_row_reduce_rank, matrices))


def test_stacked_nullspaces_match_one_svd_per_matrix_bitwise():
    rng = np.random.default_rng(33)
    for _ in range(50):
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(2, 9))
        count = int(rng.integers(1, 12))
        stack = np.array([rank_test_matrix(rng, rows, cols) for _ in range(count)])
        for matrix, basis in zip(stack, _numerics.nullspaces(stack)):
            _, s, vt = np.linalg.svd(matrix, full_matrices=True)
            want = vt[int(np.sum(s > RANK_RTOL * (1.0 + float(np.max(np.abs(matrix)))))) :]
            assert basis.shape == want.shape and basis.tobytes() == want.tobytes()


def with_singular_values(
    rng: np.random.Generator, rows: int, cols: int, large: np.ndarray, factor: float
) -> tuple[np.ndarray, int]:
    """``Q·diag(σ)·Rᵀ`` with ``large`` and one more value ``factor`` times the cutoff.

    Returns the matrix and the number of its singular values above the
    cutoff.  The small value is sized on the matrix without it; adding it
    moves ``max_abs`` by at most itself (≈ 1e-9), so its ratio to the
    final cutoff stays far inside the 0.1 % between the factors and 1.
    """
    size = len(large) + 1
    q = np.linalg.qr(rng.normal(size=(rows, size)))[0]
    r = np.linalg.qr(rng.normal(size=(cols, size)))[0]
    matrix = (q[:, :-1] * large) @ r[:, :-1].T
    small = factor * RANK_RTOL * (1.0 + np.abs(matrix).max())
    matrix += small * np.outer(q[:, -1], r[:, -1])
    cutoff = RANK_RTOL * (1.0 + np.abs(matrix).max())
    assert abs(small / cutoff - factor) < 1e-6 * factor
    return matrix, len(large) + int(small > cutoff)


@pytest.mark.parametrize("factor", [0.5, 0.999, 1.001, 2.0])
def test_rank_counts_exactly_the_singular_values_above_the_cutoff(factor):
    rng = np.random.default_rng(int(factor * 1000))
    for _ in range(40):
        rows, cols = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        large = rng.uniform(0.5, 3.0, size=int(rng.integers(0, min(rows, cols))))
        matrix, want = with_singular_values(rng, rows, cols, large, factor)
        assert want == len(large) + (factor > 1)
        assert numerical_rank(matrix) == want
        # The same matrix inside a zero-padded stack, beside matrices at the other factors.
        others = [
            with_singular_values(rng, int(rng.integers(2, rows + 1)), cols, large[:1], other)
            for other in (0.5, 0.999, 1.001, 2.0)
        ]
        height = rows + int(rng.integers(0, 3))
        stack = np.zeros((len(others) + 1, height, cols))
        for slot, (member, _) in enumerate([(matrix, want), *others]):
            stack[slot, : member.shape[0]] = member
        assert numerical_rank(stack).tolist() == [want, *(count for _, count in others)]


def test_numerical_rank_edge_cases():
    assert numerical_rank(np.zeros((0, 3))) == 0
    assert numerical_rank(np.zeros((3, 4, 0))).tolist() == [0, 0, 0]
    assert numerical_rank(np.zeros((2, 3))) == 0
    with pytest.raises(ValueError):
        numerical_rank(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        numerical_rank(np.array([[[1.0, np.inf]]]))


def exact_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Rank by Gaussian elimination over ``Fraction``: no rounding, no cutoff."""
    rows = [list(row) for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def exact_nullspace(matrix: Sequence[Sequence[Fraction]], cols: int) -> list[list[Fraction]]:
    """A basis of ``{v : matrix v = 0}`` by reduced row echelon form over ``Fraction``."""
    rows = [list(row) for row in matrix]
    pivots: list[int] = []
    for col in range(cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
    basis = []
    for free in (col for col in range(cols) if col not in pivots):
        vector = [Fraction(0)] * cols
        vector[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vector[col] = -rows[r][free]
        basis.append(vector)
    return basis


def exact_test_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A low-rank integer matrix with duplicated, scaled, mean-free or zero rows."""
    inner = int(rng.integers(1, min(rows, cols) + 1))
    matrix = rng.integers(-3, 4, size=(rows, inner)) @ rng.integers(-3, 4, size=(inner, cols))
    kind = int(rng.integers(0, 4))
    if kind == 0 and rows > 1:  # a duplicated row and a scaled one
        matrix[rng.integers(1, rows)] = matrix[0]
        matrix[rng.integers(0, rows)] *= int(rng.choice([-2, 3]))
    elif kind == 1:  # mean-free rows, kept integer: cols·x − Σx
        matrix = cols * matrix - matrix.sum(axis=1, keepdims=True)
    elif kind == 2:  # a zero row
        matrix[rng.integers(0, rows)] = 0
    return matrix


@pytest.mark.parametrize("tenths", [False, True], ids=["integer", "one-decimal"])
def test_rank_equals_the_exact_rank(tenths):
    """Integer matrices, or the same integers in tenths, against their exact rank.

    In tenths the floats round the rationals ``m / 10``; the rank of those
    rationals is the one the floats stand for.
    """
    rng = np.random.default_rng(34 + tenths)
    denominator = 10 if tenths else 1
    ranks = []
    for _ in range(60):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        count = int(rng.integers(1, 6))
        integers = [exact_test_matrix(rng, rows, cols) for _ in range(count)]
        want = [
            exact_rank([[Fraction(int(v), denominator) for v in row] for row in m])
            for m in integers
        ]
        stack = np.array(integers, dtype=np.float64) / denominator
        assert numerical_rank(stack).tolist() == want
        assert [numerical_rank(matrix) for matrix in stack] == want
        ranks += want
    assert {0, 1, 2, 3, 4} <= set(ranks)


def test_exact_nullspace_is_a_basis_of_the_kernel():
    rng = np.random.default_rng(36)
    dims = set()
    for _ in range(60):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        matrix = [[Fraction(int(v)) for v in row] for row in exact_test_matrix(rng, rows, cols)]
        basis = exact_nullspace(matrix, cols)
        assert len(basis) == cols - exact_rank(matrix)
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in matrix for v in basis)
        if basis:
            assert exact_rank(basis) == len(basis)
        dims.add(len(basis))
    assert {0, 1, 2, 3} <= dims


# ---------------------------------------------------------------------------
# Cold start: the HiGHS binding is loaded without running scipy.optimize


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's elicitkit."""
    src = str(Path(elicitkit.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_elicitkit_loads_the_binding_but_not_scipy_optimize():
    code = (
        "import sys, elicitkit\n"
        "print('scipy.optimize' in sys.modules, 'scipy.optimize._highspy._core' in sys.modules)"
    )
    assert run_fresh(code) == "False True"


@pytest.mark.parametrize(
    "code",
    [
        "import elicitkit._numerics as n\nfrom scipy.optimize._highspy import _core",
        "from scipy.optimize._highspy import _core\nimport elicitkit._numerics as n",
    ],
    ids=["elicitkit-first", "scipy-first"],
)
def test_the_binding_is_one_module_whichever_is_imported_first(code):
    assert run_fresh(code + "\nprint(_core is n._highs)") == "True"
