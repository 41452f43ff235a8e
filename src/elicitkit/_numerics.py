"""Shared linear-algebra and LP helpers.

Everything in here is deliberately dependency-light: one numerical rank
rule, counting singular values above an explicit relative cutoff (so
rank decisions are reproducible and auditable) for one matrix or a
stack, SVD nullspaces under the same rule, the two gauges that set the
scale of every LP slack and alignment tolerance and read no offset (the
largest per-state range of utility, and the spread ``max |Xbar(a)|`` of
the mean-free question rows), and the max-slack feasibility programs
used by the adjacency and rationalizability tests, every one of them
solved by :func:`_max_slack_programs`.  The programs go straight to the
HiGHS solver behind scipy's ``method="highs"`` LP interface, with the
model, options and result checks that interface uses but without its
per-call input parsing, option validation and result assembly.  Each
thread keeps one solver, given those options once when it is created;
every program is handed to it as bare arrays, which replaces the
previous model.  What depends only on a program's shape (bounds, costs,
the bounds of the result check) is built once per shape.  Programs come
in stacks of one shape: one array pass builds the constraint matrices of
a whole stack, the programs are solved one after another, and one more
array pass checks and reads every answer, so a solve costs HiGHS's own
``run()`` and little else.  A program HiGHS neither solves nor proves
infeasible is solved once more, cold and without presolve, before it
counts as a failure.

That solver is scipy's private binding ``scipy.optimize._highspy._core``
(shipped since scipy 1.15), and it is loaded on its own.  Importing it
the dotted way runs ``scipy/optimize/__init__.py``, which pulls in
``scipy.sparse``, ``scipy.linalg`` and the rest of ``scipy.optimize``:
about 0.3 s and 45 MB for every process, which is most of the start-up
of one ``elicitkit`` command.  The binding is registered in
``sys.modules`` under its dotted name, so a later ``import
scipy.optimize`` reuses the same module object.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from types import ModuleType
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray


def _load_highs() -> ModuleType:
    """Load ``scipy.optimize._highspy._core`` without running ``scipy.optimize``."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")  # locates scipy, runs none of it
    dirs = scipy_spec.submodule_search_locations if scipy_spec is not None else None
    found = importlib.machinery.PathFinder.find_spec(
        "_core", [os.path.join(d, "optimize", "_highspy") for d in dirs or ()]
    )
    if found is None or found.origin is None:
        raise ImportError(f"No module named {name!r}", name=name)
    spec = importlib.util.spec_from_file_location(name, found.origin)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_highs = _load_highs()

FloatArray = NDArray[np.float64]

#: Relative rank cutoff.  A singular value counts as zero when it is at
#: most ``RANK_RTOL * (1 + max_abs)``, with ``max_abs`` the largest
#: absolute entry of the matrix.
RANK_RTOL = 1e-9

#: Most floats (512 KB) one stacked pass holds: the matrices the callers
#: of ``numerical_rank`` put in one stack, or the arrays one stack of
#: max-slack programs is built from.  Larger batches are split into
#: several stacks.
STACK_FLOATS = 1 << 16


def project_vec(vector: FloatArray) -> FloatArray:
    """Remove the mean from a vector (orthogonal projection onto sum-zero)."""
    arr = np.asarray(vector, dtype=np.float64)
    return arr - arr.mean()


def project_rows(matrix: FloatArray) -> FloatArray:
    """Remove each row's mean (of every matrix, for a stack)."""
    arr = np.asarray(matrix, dtype=np.float64)
    return arr - arr.mean(axis=-1, keepdims=True)


def as_float_matrix(values: object) -> FloatArray:
    """Coerce ``values`` to a 2-D float64 array, rejecting non-finite entries."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    return arr


def _count_above_cutoff(singular_values: FloatArray, matrices: np.ndarray) -> np.ndarray:
    """The rank rule: singular values above ``RANK_RTOL * (1 + max_abs)``, per matrix."""
    cutoff = RANK_RTOL * (1.0 + np.abs(matrices).max(axis=(-2, -1)))
    return (singular_values > cutoff[..., None]).sum(axis=-1)


def numerical_rank(matrix: object) -> int | np.ndarray:
    """Number of singular values above ``RANK_RTOL * (1 + max_abs)``; 0 when empty.

    ``max_abs`` is the largest absolute entry of the matrix.  ``matrix``
    may also be a ``(count, rows, cols)`` stack; then one SVD call ranks
    each matrix on its own and the ranks come back as an integer array.
    Zero rows add only zero singular values and leave ``max_abs`` as it
    is, so matrices with fewer rows can be zero-padded to share a stack.
    """
    stack = np.asarray(matrix, dtype=np.float64)
    if stack.ndim not in (2, 3) or not np.isfinite(stack).all():
        raise ValueError("expected a finite 2-D matrix or 3-D stack of matrices")
    if not stack.size:
        return 0 if stack.ndim == 2 else np.zeros(len(stack), dtype=np.int64)
    ranks = _count_above_cutoff(np.linalg.svd(stack, compute_uv=False), stack)
    return int(ranks) if stack.ndim == 2 else ranks


def nullspaces(stack: np.ndarray) -> list[FloatArray]:
    """Orthonormal bases (rows) of the right nullspaces of a ``(count, rows, cols)`` stack.

    One SVD call treats each matrix on its own, so each basis has the
    bits one SVD of that matrix alone gives.  It is spanned by the right
    singular vectors past the matrix's :func:`numerical_rank`.
    """
    _, s, vt = np.linalg.svd(stack, full_matrices=True)
    keep = _count_above_cutoff(s, stack)
    return [basis[rank:] for basis, rank in zip(vt, keep)]


def scale_to_utility_gauge(utility: FloatArray) -> FloatArray:
    """Divide ``utility`` by its gauge, the largest per-state range, unless that is zero."""
    gauge = float(np.ptp(utility, axis=0).max())
    return utility / gauge if gauge > 0 else utility


def question_gauge(values: FloatArray) -> float:
    """The question gauge: the spread ``max |Xbar(a)|`` of the mean-free rows."""
    return float(np.abs(project_rows(values)).max())


def _scipy_highs_options() -> _highs.HighsOptions:
    """The options scipy's ``method="highs"`` passes to HiGHS by default."""
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return options


_HIGHS_OPTIONS = _scipy_highs_options()
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)

#: One HiGHS solver per thread (see ``_solver``).
_thread = threading.local()

#: scipy's feasibility tolerance on a returned LP solution: ``sqrt(tol) * 10``
#: with its default ``tol = 1e-9``.
_RESULT_TOL = float(np.sqrt(1e-9) * 10)


#: Upper bound on the slack variable ``s``.
_SLACK_CAP = 2.0

#: Minimum ``max_slack_lp`` slack, on utilities divided by their utility
#: gauge, for an action to count as rationalizable or a pair as adjacent.
MIN_SLACK = 1e-7


#: Model statuses that answer a max-slack program; any other is solved again.
_SETTLED = (_highs.HighsModelStatus.kOptimal, _highs.HighsModelStatus.kInfeasible)


class LPFailure(RuntimeError):
    """A max-slack LP that HiGHS neither solved nor proved infeasible.

    ``program`` is the position of that LP among the programs solved together.
    """

    def __init__(self, message: str, program: int = 0) -> None:
        super().__init__(message)
        self.program = program


def _solver() -> _highs._Highs:
    """This thread's HiGHS solver, created with ``_HIGHS_OPTIONS`` on first use."""
    try:
        return _thread.highs
    except AttributeError:
        highs = _thread.highs = _highs._Highs()
        highs.passOptions(_HIGHS_OPTIONS)
        return highs


class _Shape(NamedTuple):
    """The parts of a max-slack program fixed by its shape, all read-only."""

    cost: FloatArray
    col_lower: FloatArray
    col_upper: FloatArray
    row_lower: FloatArray
    row_upper: FloatArray
    integrality: np.ndarray
    #: ``by_column`` with every entry that does not depend on the utility.
    template: FloatArray
    #: The row (constraint) of each entry of a ``by_column`` row.
    row_of: np.ndarray
    #: scipy's feasibility check on the columns' and then the rows' values
    #: ``v`` (see ``_passes_check``): ``floor <= v - shift <= ceiling``.
    check_shift: FloatArray
    check_floor: FloatArray
    check_ceiling: FloatArray


@functools.lru_cache(maxsize=128)
def _shape(n_states: int, n_ub: int, tied: bool) -> _Shape:
    """The constant parts of a program with ``n_ub`` competitor rows."""
    n_cols = n_states + 1
    n_rows = n_ub + (2 if tied else 1)
    cost = np.zeros(n_cols)
    cost[-1] = -1.0  # maximize s
    col_lower = np.zeros(n_cols)
    col_lower[-1] = -np.inf
    col_upper = np.full(n_cols, np.inf)
    col_upper[-1] = _SLACK_CAP
    row_upper = np.zeros(n_rows)
    row_upper[n_ub] = 1.0
    row_lower = row_upper.copy()
    row_lower[:n_ub] = -np.inf
    template = np.zeros((n_cols, n_rows))
    template[:n_states, n_ub] = 1.0
    template[n_states, :n_ub] = 1.0
    # p >= -tol, s <= cap + tol, competitor rows <= tol, and the equality
    # rows within tol of their right-hand sides.
    check_shift = np.concatenate((np.zeros(n_cols), row_upper))
    check_floor = np.full(n_cols + n_rows, -_RESULT_TOL)
    check_floor[n_states : n_cols + n_ub] = -np.inf
    check_ceiling = np.full(n_cols + n_rows, _RESULT_TOL)
    check_ceiling[:n_states] = np.inf
    check_ceiling[n_states] = _SLACK_CAP + _RESULT_TOL
    shape = _Shape(
        cost=cost,
        col_lower=col_lower,
        col_upper=col_upper,
        row_lower=row_lower,
        row_upper=row_upper,
        integrality=np.zeros(n_cols, dtype=np.int32),  # every column continuous
        template=template,
        row_of=np.arange(n_rows, dtype=np.int32),
        check_shift=check_shift,
        check_floor=check_floor,
        check_ceiling=check_ceiling,
    )
    for array in shape:
        array.setflags(write=False)
    return shape


def _passes_check(shape: _Shape, values: FloatArray) -> np.ndarray:
    """scipy's feasibility check on a solution's column values, then row values.

    ``values`` may also hold one solution per row; each row is checked.

    scipy requires a NaN-free solution within its bounds, inequality
    slack ``>= -tol`` and equality residual ``<= tol``.  With these bounds
    and right-hand sides that is ``p >= -tol``, ``s <= cap + tol``, every
    competitor row ``<= tol`` and ``|row - rhs| <= tol`` for the equality
    rows.  Subtracting a zero shift is exact, so each bound is compared
    with the very value or residual scipy compares, and every comparison
    fails on NaN.
    """
    deviation = values - shape.check_shift
    return ((deviation >= shape.check_floor) & (deviation <= shape.check_ceiling)).all(axis=-1)


def _run(highs: _highs._Highs) -> tuple[object, object]:
    """Run the passed model; re-solve once, cold and without presolve, if it does not finish.

    Returns the run status and model status of the last attempt.  The
    solver's own ``presolve`` value is restored after a re-solve.
    """
    ran = highs.run()
    status = highs.getModelStatus()
    if status in _SETTLED:
        return ran, status
    presolve = highs.getOptions().presolve
    highs.clearSolver()
    highs.setOptionValue("presolve", "off")
    try:
        ran = highs.run()
    finally:
        highs.setOptionValue("presolve", presolve)
    return ran, highs.getModelStatus()


def max_slack_lp(
    utility: FloatArray,
    target: int,
    tie_with: int | None = None,
) -> tuple[float, FloatArray | None]:
    """Maximize the optimality slack of one action over a belief simplex.

    Finds a belief ``p`` maximizing ``s`` subject to
    ``E_p[u(target)] >= E_p[u(c)] + s`` for every competitor ``c``.
    When ``tie_with`` is given, the program additionally forces
    ``E_p[u(target)] == E_p[u(tie_with)]`` and the tied action is not a
    competitor.  Returns ``(slack, belief)``.  Only a program HiGHS proves
    infeasible (model status ``kInfeasible``) yields ``(-inf, None)``: no
    belief has that optimal set.  So does, whatever HiGHS answers, a tie
    of two rows one of which is above the other in every state.

    When HiGHS ends with any other status than ``kOptimal`` or
    ``kInfeasible`` (an iteration or time limit, a numerical or solve
    error, or presolve giving up on near-duplicate rows), the same model
    is solved once more from scratch with presolve off, and the solver's
    own ``presolve`` value is restored afterwards.  If that attempt does
    not finish either, and also when an optimal solution fails scipy's
    feasibility check, :class:`LPFailure` names the status, since the
    program's answer is then unknown rather than negative.  A model
    HiGHS rejects raises at once.

    Callers pre-scale ``utility`` with :func:`scale_to_utility_gauge` so
    the slack lives in that known gauge; this routine does no scaling.

    The model, options and feasibility check are those of scipy's
    ``method="highs"`` LP interface, so the result is bit-identical to
    solving the same program through it.  Passing a model to this thread's
    solver discards the previous model with its solution and basis, so
    every solve starts cold.  This is :func:`_max_slack_programs`, which
    solves every program of the package, on one program; only tests and
    the benchmark tracer call this form.
    """
    slacks, beliefs = _max_slack_programs(
        utility, [target], None if tie_with is None else [tie_with]
    )
    slack = float(slacks[0])
    return slack, None if slack == -math.inf else beliefs[0]


def _max_slack_programs(
    utility: FloatArray, targets: Sequence[int], ties: Sequence[int] | None
) -> tuple[FloatArray, FloatArray]:
    """:func:`max_slack_lp` of ``(utility, targets[m], ties[m])`` for every ``m``, in order.

    With ``ties`` None no program has a tie.  Returns every slack and
    every belief, as rows; a program with slack ``-inf`` has a row of
    zeros.  Each answer has the bits :func:`max_slack_lp` gives that
    program alone: the programs go to this thread's solver one after
    another, in order and untieable ones included, with the same model
    arrays.  The numpy work around the solves is done once per stack of
    programs, and a stack holds at most ``STACK_FLOATS`` floats (or one
    program).  The first program in order that HiGHS rejects, that does
    not finish or whose solution fails the feasibility check raises
    :class:`LPFailure` with its position as ``program``, and no program
    after one that does not finish is solved.
    """
    targets = np.asarray(targets, dtype=np.intp)
    n_actions, n_states = utility.shape
    slacks = np.full(targets.size, -np.inf)
    beliefs = np.zeros((targets.size, n_states))
    # A program's constraint matrix is (n_states + 1) x n_actions.  Its
    # stack also holds, each at most that size, the competitor rows it
    # gathers, the matrix's nonzero values and their row indices.
    step = max(1, STACK_FLOATS // (4 * (n_states + 1) * n_actions))
    for first in range(0, targets.size, step):
        stack = slice(first, first + step)
        _solve_stack(
            utility, targets[stack], None if ties is None else ties[stack],
            first, slacks[stack], beliefs[stack],
        )
    return slacks, beliefs


def _solve_stack(
    utility: FloatArray,
    targets: np.ndarray,
    ties: Sequence[int] | None,
    first: int,
    slacks: FloatArray,
    beliefs: FloatArray,
) -> None:
    """One stack of :func:`_max_slack_programs`, whose first program is at ``first``.

    The answers go into ``slacks`` and ``beliefs``, one row per program.
    Its arrays are freed on return, before the next stack is built.
    """
    n_states = utility.shape[1]
    shape, column_start, index, value, untieable = _stack_models(utility, targets, ties)
    ends = np.concatenate(([0], np.cumsum(column_start[:, -1]))).tolist()
    highs = _solver()
    values = np.empty((targets.size, shape.check_shift.size))
    objectives: list[float] = []
    read: list[int] = []
    failure = None
    for k in range(targets.size):
        lo, hi = ends[k], ends[k + 1]
        if highs.passModel(
            n_states + 1, shape.row_of.size, hi - lo, _COLWISE, _MINIMIZE, 0.0,
            shape.cost, shape.col_lower, shape.col_upper, shape.row_lower, shape.row_upper,
            column_start[k], index[lo:hi], value[lo:hi], shape.integrality,
        ) == _highs.HighsStatus.kError:
            failure = LPFailure("HiGHS rejected the model", first + k)
            break
        ran, status = _run(highs)
        if untieable[k] or status == _highs.HighsModelStatus.kInfeasible:
            continue
        if ran == _highs.HighsStatus.kError or status != _highs.HighsModelStatus.kOptimal:
            failure = LPFailure(
                f"HiGHS ended with run status {ran.name} and model status {status.name}",
                first + k,
            )
            break
        solution = highs.getSolution()
        values[len(read)] = solution.col_value + solution.row_value
        objectives.append(highs.getObjectiveValue())
        read.append(k)

    values = values[: len(read)]
    failed = np.flatnonzero(np.isnan(objectives) | ~_passes_check(shape, values))
    if failed.size:
        raise LPFailure(
            "HiGHS ended with model status kOptimal, "
            "but its solution fails scipy's feasibility check",
            first + read[failed[0]],
        )
    if failure is not None:
        raise failure
    slacks[read] = values[:, n_states]
    # The checked solutions sum to 1 within the tolerance, so these are positive.
    found = np.clip(values[:, :n_states], 0.0, None)
    found /= found.sum(axis=1, keepdims=True)
    beliefs[read] = found


def _stack_models(
    utility: FloatArray, targets: np.ndarray, ties: Sequence[int] | None
) -> tuple[_Shape, np.ndarray, np.ndarray, FloatArray, list[bool]]:
    """The models of one stack of max-slack programs, built in one array pass.

    Returns the stack's shape, each program's CSC column starts (one row
    per program), the row indices and values of every program's
    nonzeros, one program after another, and whether each program ties
    two rows one of which is above the other in every state.  The
    stack's constraint matrices are freed on return, before any solve.
    """
    n_programs = targets.size
    n_actions, n_states = utility.shape
    rows = np.arange(n_programs)
    competes = np.ones((n_programs, n_actions), dtype=bool)
    competes[rows, targets] = False
    if ties is not None:
        competes[rows, ties] = False
    competitors = competes.nonzero()[1].reshape(n_programs, -1)
    n_ub = competitors.shape[1]
    shape = _shape(n_states, n_ub, ties is not None)
    # Variables: p (n_states) then s.  Rows: competitors (<= 0), then
    # sum(p) == 1 and, with a tie, the indifference row (== 0).  Row j of
    # a program's ``by_column`` is column j of its constraint matrix, so
    # its nonzero entries in order list the matrix column by column, as
    # csc_array keeps them.
    by_column = np.repeat(shape.template[None], n_programs, axis=0)
    np.subtract(
        utility[competitors],
        utility[targets][:, None],
        out=by_column[:, :n_states, :n_ub].transpose(0, 2, 1),
    )
    untieable = [False] * n_programs
    if ties is not None:
        tie_row = by_column[:, :n_states, -1]
        np.subtract(utility[targets], utility[ties], out=tie_row)
        untieable = (np.abs(np.sign(tie_row).sum(axis=1)) == n_states).tolist()
    nonzero = by_column != 0.0
    column_start = np.zeros((n_programs, n_states + 2), dtype=np.int32)
    np.cumsum(nonzero.sum(axis=2), axis=1, out=column_start[:, 1:])
    index = np.broadcast_to(shape.row_of, by_column.shape)[nonzero]
    return shape, column_start, index, by_column[nonzero], untieable
