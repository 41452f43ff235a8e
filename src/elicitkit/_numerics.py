"""Shared linear-algebra and LP helpers.

Everything in here is deliberately dependency-light: a pivoted row
reduction with an explicit relative threshold (so rank decisions are
reproducible and auditable), which reduces a whole stack of matrices in
one pass, SVD nullspaces of one matrix or of a stack, the unit max-abs
scaling that gives LP slacks a common gauge, and the max-slack
feasibility programs used by the adjacency and rationalizability tests.
Those programs go straight to the HiGHS solver behind scipy's
``method="highs"`` LP interface, with the model, options and result
checks that interface uses but without its per-call input parsing,
option validation and result assembly.  Each thread keeps one solver,
given those options once when it is created; every program is handed
to it as bare arrays, which replaces the previous model, so a solve
costs HiGHS's own ``run()`` and little else.

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

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from types import ModuleType

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

#: Relative pivot threshold for row reduction.  A pivot is treated as
#: zero when its magnitude is at most ``RANK_RTOL * (1 + max_abs)``
#: where ``max_abs`` is taken over the original matrix.
RANK_RTOL = 1e-9

#: Most floats (512 KB) the callers of ``row_reduce_rank`` put in one
#: stack; larger batches of matrices are split into several stacks.
RANK_STACK_FLOATS = 1 << 16


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


def row_reduce_rank(matrix: object, rtol: float = RANK_RTOL) -> int | np.ndarray:
    """Numerical rank via Gaussian elimination with partial pivoting.

    A pivot counts as zero when ``abs(pivot) <= rtol * (1 + max_abs)``,
    with ``max_abs`` the largest absolute entry of the input matrix.
    The same threshold is applied at every elimination step, which keeps
    the decision boundary easy to reason about in tests.

    ``matrix`` may also be a stack of equally shaped matrices, shape
    ``(count, rows, cols)``; then every matrix is reduced in the same
    pass, each with its own threshold and pivot sequence, and the ranks
    come back as an integer array.  Each matrix sees exactly the
    arithmetic it would see alone, so its rank does not depend on the
    stack.  Zero rows change no rank, so matrices with fewer rows can
    be padded with zeros to share a stack.  While every matrix finds a
    pivot in every column, and so in the same row, each step updates
    the rows below that row as one slice; once some matrix finds none,
    masks pick each matrix's own rows.
    """
    work = np.array(matrix, dtype=np.float64)
    stacked = work.ndim == 3
    if not stacked:
        work = as_float_matrix(work)[None]
    elif not np.all(np.isfinite(work)):
        raise ValueError("matrix contains non-finite entries")
    count, rows, cols = work.shape
    rank = np.zeros(count, dtype=np.int64)  # and next pivot row, once ranks differ
    if work.size:
        threshold = rtol * (1.0 + np.abs(work).max(axis=(1, 2)))
        row = np.arange(rows)
        which = np.arange(count)
        shared = 0  # the rank of every matrix, until the ranks differ
        for col in range(cols):
            top = shared if shared >= 0 else int(rank.min())
            magnitude = np.abs(work[:, top:, col])
            if shared < 0:
                magnitude[row[top:] < rank[:, None]] = -1.0  # rows that hold a pivot
            ok = magnitude.max(axis=1) > threshold
            pivots = np.count_nonzero(ok)
            if not pivots:
                continue
            best = magnitude.argmax(axis=1) + top
            if shared >= 0 and pivots == count:
                # Every matrix pivots in row ``shared``: the rows below it are a slice.
                pivot = work[which, best]
                work[which, best] = work[:, shared]
                work[:, shared] = pivot
                factor = work[:, shared + 1 :, col] / pivot[:, col, None]
                work[:, shared + 1 :] -= factor[:, :, None] * pivot[:, None, :]
                work[:, shared + 1 :, col] = 0.0
                shared += 1
                if shared == rows:
                    break
                continue
            if shared >= 0:
                rank[:] = shared
                shared = -1
            # A matrix without a pivot here swaps row ``best`` with itself.
            target = np.where(ok, rank, best)
            pivot = work[which, best]
            work[which, best] = work[which, target]
            work[which, target] = pivot
            below = row > np.where(ok, rank, rows)[:, None]
            factor = np.divide(
                work[:, :, col], pivot[:, col, None], out=np.zeros((count, rows)), where=below
            )
            np.subtract(
                work, factor[:, :, None] * pivot[:, None, :], out=work, where=below[:, :, None]
            )
            work[:, :, col][below] = 0.0
            rank += ok
            if rank.min() == rows:
                break
        if shared >= 0:
            rank[:] = shared
    return rank if stacked else int(rank[0])


def nullspaces(stack: np.ndarray, rtol: float = RANK_RTOL) -> list[FloatArray]:
    """:func:`nullspace` of each matrix of a ``(count, rows, cols)`` stack, from one SVD call.

    The SVD treats each matrix on its own, so each basis has the bits
    :func:`nullspace` gives that matrix alone.
    """
    count, rows, cols = stack.shape
    if rows == 0 or cols == 0:
        return [np.eye(cols) for _ in range(count)]
    _, s, vt = np.linalg.svd(stack, full_matrices=True)
    cutoff = rtol * (1.0 + np.abs(stack).max(axis=(1, 2)))
    keep = (s > cutoff[:, None]).sum(axis=1)
    return [vt[i, keep[i] :] for i in range(count)]


def nullspace(matrix: object, rtol: float = RANK_RTOL) -> FloatArray:
    """Orthonormal basis (rows) of the right nullspace of ``matrix``."""
    return nullspaces(as_float_matrix(matrix)[None], rtol=rtol)[0]


def scale_unit_max_abs(utility: FloatArray) -> FloatArray:
    """Divide ``utility`` by its largest absolute entry, unless that is zero."""
    max_abs = float(np.max(np.abs(utility)))
    return utility / max_abs if max_abs > 0 else utility


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

#: Minimum ``max_slack_lp`` slack, on utilities scaled to unit max-abs,
#: for an action to count as rationalizable or a pair as adjacent.
MIN_SLACK = 1e-7


class LPFailure(RuntimeError):
    """A max-slack LP that HiGHS neither solved nor proved infeasible."""


def _solver() -> _highs._Highs:
    """This thread's HiGHS solver, created with ``_HIGHS_OPTIONS`` on first use."""
    try:
        return _thread.highs
    except AttributeError:
        highs = _thread.highs = _highs._Highs()
        highs.passOptions(_HIGHS_OPTIONS)
        return highs


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
    belief has that optimal set.  Any other status than ``kOptimal``
    (an iteration or time limit, a numerical or solve error), and an
    optimal solution that fails scipy's feasibility check, raise
    :class:`LPFailure` naming the status, since the program's answer is
    then unknown rather than negative.

    Callers are expected to pre-scale ``utility`` so the slack lives in
    a known gauge; this routine does no scaling of its own.

    The model, options and feasibility check are those of scipy's
    ``method="highs"`` LP interface, so the result is bit-identical to
    solving the same program through it.  Each thread keeps one solver,
    configured once; passing a model to it discards the previous model
    together with its solution and basis, so every solve starts cold.
    """
    n_actions, n_states = utility.shape
    competitors = [c for c in range(n_actions) if c != target and c != tie_with]
    n_ub = len(competitors)
    n_rows = n_ub + (1 if tie_with is None else 2)
    # Variables: p (n_states) then s.  Rows: competitors (<= 0), then
    # sum(p) == 1 and, with a tie, the indifference row (== 0).  Row j of
    # ``by_column`` is column j of the constraint matrix, so its flat
    # nonzero positions list the entries column by column, as csc_array
    # keeps them.
    by_column = np.zeros((n_states + 1, n_rows))
    np.subtract(utility[competitors], utility[target], out=by_column[:n_states, :n_ub].T)
    by_column[:n_states, n_ub] = 1.0
    by_column[n_states, :n_ub] = 1.0
    if tie_with is not None:
        np.subtract(utility[target], utility[tie_with], out=by_column[:n_states, -1])
    flat = np.flatnonzero(by_column)
    start = np.searchsorted(flat, np.arange(0, (n_states + 2) * n_rows, n_rows)).astype(np.int32)
    index = (flat % n_rows).astype(np.int32)
    row_upper = np.zeros(n_rows)
    row_upper[n_ub] = 1.0
    row_lower = row_upper.copy()
    row_lower[:n_ub] = -np.inf
    col_lower = np.zeros(n_states + 1)
    col_lower[-1] = -np.inf
    col_upper = np.full(n_states + 1, np.inf)
    col_upper[-1] = _SLACK_CAP
    cost = np.zeros(n_states + 1)
    cost[-1] = -1.0  # maximize s

    highs = _solver()
    if highs.passModel(
        n_states + 1, n_rows, len(flat), _COLWISE, _MINIMIZE, 0.0,
        cost, col_lower, col_upper, row_lower, row_upper,
        start, index, by_column.take(flat),
        np.zeros(n_states + 1, dtype=np.int32),  # every column continuous
    ) == _highs.HighsStatus.kError:
        raise LPFailure("HiGHS rejected the model")
    ran = highs.run()
    status = highs.getModelStatus()
    if status == _highs.HighsModelStatus.kInfeasible:
        return float("-inf"), None
    if ran == _highs.HighsStatus.kError or status != _highs.HighsModelStatus.kOptimal:
        raise LPFailure(
            f"HiGHS ended with run status {ran.name} and model status {status.name}"
        )
    solution = highs.getSolution()
    x = solution.col_value
    row_value = solution.row_value
    # scipy's check: NaN-free, within bounds, inequality slack >= -tol
    # and equality residual <= tol (every comparison fails on NaN).  With
    # these bounds and right-hand sides it reduces to the lines below.
    if math.isnan(highs.getObjectiveValue()) or not (
        all(v >= -_RESULT_TOL for v in x[:n_states])
        and x[-1] <= _SLACK_CAP + _RESULT_TOL
        and all(v <= _RESULT_TOL for v in row_value[:n_ub])
        and abs(1.0 - row_value[n_ub]) <= _RESULT_TOL
        and (tie_with is None or abs(row_value[-1]) <= _RESULT_TOL)
    ):
        raise LPFailure(
            f"HiGHS ended with model status {status.name}, "
            "but its solution fails scipy's feasibility check"
        )
    # The checked solution sums to 1 within the tolerance, so this is positive.
    belief = np.clip(x[:n_states], 0.0, None)
    return float(x[-1]), belief / float(belief.sum())
