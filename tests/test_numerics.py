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
at once.

``row_reduce_rank`` reduces a whole stack of matrices in one pass; each
rank must be the one a matrix-at-a-time elimination gives.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import elicitkit
from elicitkit import _numerics
from elicitkit._numerics import RANK_RTOL, max_slack_lp, row_reduce_rank, scale_unit_max_abs


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
        utility = scale_unit_max_abs(rng.normal(size=(n_actions, n_states)))
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
            outcomes += check_all_targets(scale_unit_max_abs(utility), rng)
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
    assert scale_unit_max_abs(utility) is utility
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
    for utility in map(scale_unit_max_abs, utilities):
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
# Stacked row reduction: the ranks of one matrix at a time


def reference_row_reduce_rank(matrix: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """``row_reduce_rank`` as it was, one matrix at a time."""
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


def rank_test_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A random matrix, often rank-deficient, duplicated or near the pivot threshold."""
    kind = int(rng.integers(0, 6))
    if kind == 0:  # low rank
        inner = int(rng.integers(1, min(rows, cols) + 1))
        return rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
    matrix = rng.integers(-2, 3, size=(rows, cols)).astype(np.float64)
    if kind == 1 and rows > 1:  # duplicated and scaled rows
        matrix[rng.integers(1, rows)] = matrix[0] * float(rng.choice([1.0, -2.0, 0.5]))
    elif kind == 2:  # a perturbation at the threshold's scale
        scale = RANK_RTOL * (1.0 + np.abs(matrix).max())
        matrix[-1] = matrix[0] + scale * float(rng.choice([0.5, 0.999, 1.001, 2.0]))
    elif kind == 3:  # an entry at the threshold's scale
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
        stack = np.array([rank_test_matrix(rng, rows, cols) for _ in range(count)])
        want = [reference_row_reduce_rank(matrix) for matrix in stack]
        got = row_reduce_rank(stack)
        assert got.dtype.kind == "i" and got.shape == (count,)
        assert got.tolist() == want
        assert [row_reduce_rank(matrix) for matrix in stack] == want
        ranks += want
    assert {0, 1, 2, 3} <= set(ranks)


def test_zero_rows_pad_a_stack_without_changing_any_rank():
    rng = np.random.default_rng(32)
    for _ in range(100):
        cols = int(rng.integers(1, 9))
        matrices = [rank_test_matrix(rng, int(rng.integers(1, 9)), cols) for _ in range(12)]
        height = max(matrix.shape[0] for matrix in matrices) + int(rng.integers(0, 3))
        stack = np.zeros((len(matrices), height, cols))
        for slot, matrix in enumerate(matrices):
            stack[slot, : matrix.shape[0]] = matrix
        assert row_reduce_rank(stack).tolist() == list(map(reference_row_reduce_rank, matrices))


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


def test_row_reduce_rank_edge_cases():
    assert row_reduce_rank(np.zeros((0, 3))) == 0
    assert row_reduce_rank(np.zeros((3, 4, 0))).tolist() == [0, 0, 0]
    assert row_reduce_rank(np.zeros((2, 3))) == 0
    with pytest.raises(ValueError):
        row_reduce_rank(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        row_reduce_rank(np.array([[[1.0, np.inf]]]))


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
