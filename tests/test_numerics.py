"""``max_slack_lp`` against the same program solved by ``scipy.optimize.linprog``.

``max_slack_lp`` hands its program to HiGHS directly.  The reference
below builds that program the documented way, through
``linprog(method="highs")``, and applies the same clip and normalize.
The two must agree bit for bit: on the slack, on the belief, and on
``(-inf, None)`` for infeasible programs.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import elicitkit
from elicitkit._numerics import max_slack_lp, scale_unit_max_abs


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
