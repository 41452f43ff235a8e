"""Alignment tests and the incentivizability decision procedure.

A question profile is useful only if answering it truthfully never
distorts the agent's choice.  The structural fingerprint of that
property is alignment: after removing means, each action's question row
must be a nonzero multiple of that action's utility row plus a shared
offset (or, in the degenerate case, all rows must be multiples of one
shared vector).  This module recovers such representations when they
exist, refutes them when they provably cannot, and combines the two
into a verdict keyed to whichever characterization theorem the
adjacency graph supports.

Global, per-part, pairwise and task-weighted alignment are one linear
question, answered by one fit: is ``X(a) = kappa(a) + v(a) * (d + sum_i
tau_i * T_i(a))`` for a utility basis ``T``?  The basis is ``[u]`` on the
whole menu, on a part of a splitting collection or on an adjacent pair,
where an alignment certificate has ``gamma = v * tau`` and offset ``d /
tau``, and the per-task tables for products.  ``d`` absorbs each table's
per-state mean.  Each row's scale ``g(a)`` appears only in that row's
equations, so the fit eliminates it in closed form (separable least
squares, Golub and Pereyra 1973) and solves for the basis coefficients
and the offset alone, by ``lstsq`` on the projected rows rather than
their normal equations, which would lose the small rows of a menu whose
utilities differ widely in scale.  A certificate is accepted only when
it reproduces the question by substitution.  Every tolerance is ``eps =
tol * question gauge`` (see ``_numerics``), computed once per decision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np
from numpy.typing import NDArray

from ._numerics import (
    STACK_FLOATS,
    FloatArray,
    LPFailure,
    numerical_rank,
    project_rows,
    project_vec,
    question_gauge,
)
from .model import DecisionProblem, ProblemBundle, ProductStructure, QuestionProfile
from .geometry import (
    AdjacencyGraph,
    _problem_graph,
    adjacency_graph,
    classify_graph,
    cycle_rich,
    splitting_collection,
)

#: Default relative tolerance for alignment residuals.
ALIGN_RTOL = 1e-8

#: A refutation is only asserted when the best residual exceeds the
#: acceptance tolerance by this factor; in between, the verdict is
#: inconclusive rather than confidently negative.
VIOLATION_FACTOR = 100.0

#: Certificates are re-verified by substitution within this multiple of
#: the acceptance tolerance.
ARBITER_FACTOR = 10.0


def _eps(values: FloatArray, tol: float) -> float:
    """``tol`` times the question gauge, or, when every row is constant and
    the gauge holds only rounding in the row means, the gauge itself."""
    spread = question_gauge(values)
    return tol * spread if (values != values[:, :1]).any() else spread


def _below_resolution(values: FloatArray, spread: float, tol: float) -> bool:
    """Whether a question spread is at most ``tol * max|X|``: below the float
    resolution of the values, where no fit can tell the rows apart."""
    return spread <= tol * float(np.abs(values).max())


def _multiple(x: FloatArray, y: FloatArray) -> FloatArray:
    """``x @ y / (y @ y)``, the least-squares multiple of the nonzero row ``y``
    in ``x``.  Where ``y @ y`` would leave the normal float range (rows below
    about 1e-154), ``y`` is scaled to max-abs 1 in the products first."""
    unit = y if float(y @ y) >= np.finfo(np.float64).tiny else y / np.abs(y).max()
    return x @ unit / float(y @ unit)


def project_zero_sum(vector: Sequence[float]) -> FloatArray:
    """Project a question or payoff vector onto the sum-zero hyperplane."""
    return project_vec(np.asarray(vector, dtype=np.float64))


def payoff_delta(problem: DecisionProblem, a: str, b: str) -> FloatArray:
    """Mean-removed payoff difference of action ``b`` over action ``a``."""
    ua = problem.utility_of(a)
    ub = problem.utility_of(b)
    return project_vec(ub - ua)


def questions_equivalent(
    x: Sequence[float], y: Sequence[float], tol: float = ALIGN_RTOL
) -> tuple[float, float] | None:
    """Coefficients ``(gamma, kappa)`` with ``x = gamma * y + kappa``, if any.

    Equivalence requires a nonzero ``gamma``; two constant questions are
    equivalent with ``gamma = 1``.  The tolerance is ``tol`` times the
    pair's question gauge, the larger spread of the two, and a pair whose
    spread is nonzero but within ``tol * max|value|`` is below float
    resolution and equivalent to nothing.
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape:
        raise ValueError("questions must have matching length")
    pair = np.stack([xv, yv])
    if not (pair != pair[:, :1]).any():
        return 1.0, float(xv.mean() - yv.mean())
    spread = question_gauge(pair)
    if _below_resolution(pair, spread, tol):
        return None
    eps = tol * spread
    xbar, ybar = project_rows(pair)
    y_spread = float(np.abs(ybar).max())
    if y_spread <= eps:
        return None
    gamma = float(_multiple(xbar, ybar))
    if float(np.abs(xbar - gamma * ybar).max()) > eps or abs(gamma) * y_spread <= eps:
        return None
    return gamma, float(xv.mean() - gamma * yv.mean())


# ---------------------------------------------------------------------------
# Pairwise alignment


@dataclass(frozen=True)
class PairwiseAlignment:
    """Result of testing alignment on one action pair.

    When aligned, ``rho`` and ``sigma`` satisfy
    ``Xbar(b) = rho * delta + sigma * Xbar(a)`` with ``sigma != 0``,
    where ``delta`` is the mean-removed payoff difference.
    """

    aligned: bool
    rho: float | None
    sigma: float | None
    residual: float


def pairwise_alignment(
    problem: DecisionProblem,
    question: QuestionProfile,
    a: str,
    b: str,
    tol: float = ALIGN_RTOL,
) -> PairwiseAlignment:
    """Test alignment on ``{a, b}``: alignment on the set ``(a, b)``.

    The coefficients come from its certificate: ``rho = gamma(b)``, or 0
    for a trivial one, and ``sigma = gamma(b) / gamma(a)``.
    """
    cert, residual = _solve_alignment(problem, question, (a, b), _eps(question.values, tol))
    if cert is None:
        return PairwiseAlignment(aligned=False, rho=None, sigma=None, residual=residual)
    gamma_a, gamma_b = cert.gamma
    return PairwiseAlignment(
        aligned=True,
        rho=0.0 if cert.trivial else gamma_b,
        sigma=gamma_b / gamma_a,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class AlignmentCertificate:
    """Affine representation of a question in terms of utility.

    Nontrivial form: ``X(a) = gamma(a) * (u(a) + d) + kappa(a)`` with
    every ``gamma(a)`` nonzero.  Trivial form:
    ``X(a) = gamma(a) * d + kappa(a)``.  The offset ``d`` is stored
    mean-free; ``scope`` lists the actions the certificate covers, in
    the same order as ``gamma`` and ``kappa``.
    """

    trivial: bool
    scope: tuple[str, ...]
    gamma: tuple[float, ...]
    kappa: tuple[float, ...]
    d: tuple[float, ...]
    residual: float

    def gamma_of(self, action: str) -> float:
        return self.gamma[self.scope.index(action)]

    def kappa_of(self, action: str) -> float:
        return self.kappa[self.scope.index(action)]

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "alignment",
            "trivial": self.trivial,
            "scope": list(self.scope),
            "gamma": list(self.gamma),
            "kappa": list(self.kappa),
            "d": list(self.d),
            "residual": self.residual,
        }


def reconstruct_question(problem: DecisionProblem, cert: AlignmentCertificate) -> FloatArray:
    """Evaluate the certificate's affine form on its scope."""
    u = problem.utility[[problem.action_index[a] for a in cert.scope], :, None]
    gamma, kappa, d = map(np.asarray, (cert.gamma, cert.kappa, cert.d))
    return _affine_rows(gamma, kappa, np.array([0.0 if cert.trivial else 1.0]), d, u)[0]


def _affine_rows(
    v: FloatArray, kappa: FloatArray, tau: FloatArray, d: FloatArray, tables: FloatArray
) -> tuple[FloatArray, FloatArray]:
    """``kappa(a) + v(a) * core(a)`` and ``core(a) = d + sum_i tau_i * T_i(a)``, per row.

    ``tables[a, s, i]`` is ``T_i(a)`` at state ``s``.
    """
    core = d + (tables * tau).sum(axis=2)
    return kappa[:, None] + v[:, None] * core, core


@dataclass(frozen=True)
class WeightedAlignmentCertificate:
    """Task-weighted affine representation for product problems.

    ``X(a) = kappa(a) + v(a) * (d + sum_i tau_i * u_i(a_i))`` with every
    ``v(a)`` nonzero; ``d`` is stored mean-free over global states.  The
    entry of ``tau`` largest in magnitude is +1 or -1, or ``tau`` is 0
    when the question's rows are constant or collinear.
    """

    actions: tuple[str, ...]
    v: tuple[float, ...]
    kappa: tuple[float, ...]
    tau: tuple[float, ...]
    d: tuple[float, ...]
    residual: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "weighted-alignment",
            "actions": list(self.actions),
            "v": list(self.v),
            "kappa": list(self.kappa),
            "tau": list(self.tau),
            "d": list(self.d),
            "residual": self.residual,
        }


@dataclass(frozen=True)
class PiecewiseCertificate:
    """Per-part alignment certificates over a splitting collection."""

    parts: tuple[tuple[str, ...], ...]
    certificates: tuple[AlignmentCertificate, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "piecewise-alignment",
            "parts": [list(p) for p in self.parts],
            "certificates": [c.to_dict() for c in self.certificates],
        }


# ---------------------------------------------------------------------------
# Alignment on a set


def _pinned_alignment(
    xs: FloatArray,
    bases: FloatArray,
    nonzero: NDArray[np.bool_],
    anchor: int,
) -> tuple[FloatArray, FloatArray, FloatArray, float]:
    """Least-squares solve of ``g(a) * xs(a) - sum_i c_i * B_i(a) - D = 0``.

    ``xs[a]`` and each ``B_i(a) = bases[a, :, i]`` are mean-free rows.
    ``g`` is pinned to 1 at ``anchor`` and is no unknown on rows outside
    ``nonzero`` (reported as 1 there); one more row makes ``D`` mean-free.
    Returns ``(g, c, D, residual)``, the residual being the system's
    max-abs misfit.

    Each free ``g(a)`` is eliminated in closed form (variable projection):
    for fixed ``(c, D)`` it is ``<xs(a), v(a)> / |xs(a)|^2`` with ``v(a) =
    sum_i c_i * B_i(a) + D``.  That leaves least squares in ``(c, D)``
    alone, with rows ``(I - P_a) [B(a) | I]`` on free rows (``P_a``
    projects onto ``xs(a)``), ``[B(a) | I]`` elsewhere and the mean-free
    row.  ``lstsq`` solves those rows directly, not their Gram matrix,
    which would square the condition number; it keeps the minimum-norm
    answer.  With ``g`` recovered, the misfit of these rows is that of the
    full system, so it is the residual.
    """
    n_rows, n_states = xs.shape
    n_c = bases.shape[2]
    free = nonzero.copy()
    free[anchor] = False
    system = np.zeros((n_rows * n_states + 1, n_c + n_states))
    system[-1, n_c:] = 1.0  # the mean-free row
    rows = system[:-1].reshape(n_rows, n_states, -1)
    rows[:, :, :n_c] = bases
    rows[:, :, n_c:] = np.eye(n_states)
    # z(a) = [B(a) | I]^T xs(a), and w(a) = 1 / |xs(a)|^2 on free rows and
    # 0 elsewhere, so a free row's g(a) is w(a) <z(a), (c, D)>.
    z = np.einsum("asj,as->aj", rows, xs)
    w = free / (np.einsum("as,as->a", xs, xs) + ~free)
    rows -= (w[:, None] * xs)[:, :, None] * z[:, None, :]
    target = np.zeros(len(system))
    target[anchor * n_states : (anchor + 1) * n_states] = xs[anchor]
    solution = np.linalg.lstsq(system, target, rcond=None)[0]
    residual = float(np.abs(system @ solution - target).max())
    g = w * (z @ solution)  # 0 on zero rows, which are reported as 1
    g[anchor] = 1.0
    return g + ~nonzero, solution[:n_c], solution[n_c:], residual


def _fit(
    x: FloatArray, tables: FloatArray, eps: float
) -> tuple[tuple[FloatArray, FloatArray, FloatArray, FloatArray] | None, float]:
    """Best ``((v, kappa, tau, d) or None, residual)`` for ``X = kappa + v * (d + tau . T)``.

    ``x[a]`` and each ``T_i(a) = tables[a, :, i]`` are rows.  A trivial
    fit (constant or collinear rows) has ``tau = 0``; otherwise ``tau``'s
    largest entry in magnitude is +1 or -1 and every ``v(a)`` is nonzero.
    """
    # Each mean is a sum over a count: the bits of ``mean``, without its call overhead.
    n_rows, n_states, n_tables = tables.shape
    x_means = x.sum(axis=1) / n_states
    xbar = x - x_means[:, None]
    row_norms = np.abs(xbar).max(axis=1)
    nonzero = row_norms > eps
    means = tables.sum(axis=1) / n_states
    tbar = tables - means[:, None, :]
    # d absorbs each table's per-state shift, so a large one must not swamp the basis.
    centers = tbar.sum(axis=0) / n_rows
    tbar -= centers

    def check(
        v: FloatArray, tau: FloatArray, d: FloatArray
    ) -> tuple[tuple[FloatArray, FloatArray, FloatArray, FloatArray] | None, float]:
        kappa = x_means - v * (means * tau).sum(axis=1)
        residual = float(np.abs(_affine_rows(v, kappa, tau, d, tables)[0] - x).max())
        return ((v, kappa, tau, d) if residual <= ARBITER_FACTOR * eps else None), residual

    # Trivial branch 1: every row constant.
    if not nonzero.any():
        return check(np.ones(n_rows), np.zeros(n_tables), np.zeros(n_states))

    # Trivial branch 2: all rows nonzero and mutually collinear.
    best_residual = float("inf")
    if nonzero.all() and numerical_rank(xbar) <= 1:
        d = xbar[int(np.argmax(row_norms))]
        accepted, residual = check(_multiple(xbar, d), np.zeros(n_tables), d)
        if accepted is not None:
            return accepted, residual
        best_residual = residual

    # Nontrivial branch: g(a) * Xbar(a) = sum_i c_i * Tbar_i(a) + D with g
    # pinned at an anchor row.  A valid representation then has
    # tau = c / |c_ref|, v(a) = |c_ref| / g(a) and d = D / |c_ref|, where
    # c_ref is the entry of c largest in magnitude.
    s_x = float(row_norms.max())
    s_u = max(float(np.abs(tbar).max()), 1e-30)
    xs = xbar / s_x
    bases = tbar / s_u
    # The two largest rows, earlier ones first among equals, if they are nonzero.
    anchors = [k for k in np.argsort(-row_norms, kind="stable")[:2].tolist() if nonzero[k]]
    for anchor in anchors:
        g, c, d_scaled, system_residual = _pinned_alignment(xs, bases, nonzero, anchor)
        c_ref = max(c.tolist(), key=abs)
        size = abs(c_ref)
        # g is 1 on zero rows, so its least |g| is that of a nonzero row;
        # eps / s_x is the tolerance in the solve's units.
        if min(size, np.abs(g).min()) <= eps / s_x:
            # A limit of aligned questions: its misfit is the residual.
            best_residual = min(best_residual, system_residual * s_x)
            continue
        # Undo the row scalings: v maps utility units to question units,
        # and a constant row, whose v is free, takes v * sign(c_ref) equal
        # to the ratio of scales.
        tau = c / size
        v = np.where(nonzero, size / g, c_ref / size) * (s_x / s_u)
        d = d_scaled / size * s_u - (centers * tau).sum(axis=1)
        accepted, residual = check(v, tau, d - d.sum() / n_states)
        if accepted is not None:
            return accepted, residual
        best_residual = min(best_residual, residual)
    return None, best_residual


def _solve_alignment(
    problem: DecisionProblem,
    question: QuestionProfile,
    scope: tuple[str, ...],
    eps: float,
) -> tuple[AlignmentCertificate | None, float]:
    """Best alignment certificate on ``scope`` plus the achieved residual, within ``eps``."""
    idx = [problem.action_index[a] for a in scope]
    fit, residual = _fit(question.values[idx], problem.utility[idx, :, None], eps)
    if fit is None:
        return None, residual
    v, kappa, tau, d = fit
    tau = tau.item()  # the one table's weight: +1 or -1, or 0 for a trivial certificate
    if tau:
        v, d = v * tau, d / tau  # gamma = v * tau and offset d / tau
    fields = (tuple(f.tolist()) for f in (v, kappa, d))
    return AlignmentCertificate(not tau, scope, *fields, residual), residual


def alignment_on_set(
    problem: DecisionProblem,
    question: QuestionProfile,
    actions: Sequence[str] | None = None,
    tol: float = ALIGN_RTOL,
) -> AlignmentCertificate | None:
    """Find an alignment certificate on a set of actions (default: all)."""
    scope = tuple(actions) if actions is not None else problem.actions
    if len(scope) < 1:
        raise ValueError("alignment scope must not be empty")
    cert, _ = _solve_alignment(problem, question, scope, _eps(question.values, tol))
    return cert


def piecewise_alignment(
    problem: DecisionProblem,
    question: QuestionProfile,
    parts: Sequence[Sequence[str]],
    tol: float = ALIGN_RTOL,
) -> PiecewiseCertificate | None:
    """Align the question separately on each part of a splitting collection."""
    eps = _eps(question.values, tol)
    certs = []
    for part in parts:
        cert, _ = _solve_alignment(problem, question, tuple(part), eps)
        if cert is None:
            return None
        certs.append(cert)
    return PiecewiseCertificate(
        parts=tuple(tuple(p) for p in parts), certificates=tuple(certs)
    )


# ---------------------------------------------------------------------------
# Product problems


def trivial_dependence(
    question: QuestionProfile,
    product: ProductStructure,
    task: int,
    tol: float = ALIGN_RTOL,
) -> bool:
    """Whether the question depends on ``task`` only up to equivalence.

    True when, for every fixed choice in the other tasks, varying this
    task's action keeps the mean-removed question rows inside a single
    line through the origin.
    """
    others = np.delete(product.action_coord_array, task, axis=1)
    _, group = np.unique(others, axis=0, return_inverse=True)
    group = group.ravel()
    # One row of actions per choice in the other tasks, in action order;
    # the coordinates are a bijection, so every row has the same length.
    members = np.argsort(group, kind="stable").reshape(group.max() + 1, -1)
    return bool((numerical_rank(project_rows(question.values)[members]) <= 1).all())


def _solve_weighted(
    problem: DecisionProblem,
    question: QuestionProfile,
    product: ProductStructure,
    eps: float,
) -> tuple[WeightedAlignmentCertificate | None, float]:
    """Best task-weighted certificate plus the achieved residual, within ``eps``."""
    fit, residual = _fit(question.values, np.stack(product.task_utility_tables(), axis=-1), eps)
    if fit is None:
        return None, residual
    fields = (tuple(f.tolist()) for f in fit)
    return WeightedAlignmentCertificate(problem.actions, *fields, residual), residual


def weighted_alignment(
    problem: DecisionProblem,
    question: QuestionProfile,
    product: ProductStructure,
    tol: float = ALIGN_RTOL,
) -> WeightedAlignmentCertificate | None:
    """Recover a task-weighted affine representation, if one exists.

    Solves ``g(a) * Xbar(a) = sum_i c_i * Ubar_i(a_i) + D`` pinned at
    ``g = 1`` on each of the two largest question rows in turn, then
    re-verifies the implied ``(v, kappa, tau, d)`` by substitution.
    """
    cert, _ = _solve_weighted(problem, question, product, _eps(question.values, tol))
    return cert


# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class Violation:
    """Evidence that no certificate of the required form exists."""

    kind: str
    actions: tuple[str, ...]
    residual: float
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "actions": list(self.actions),
            "residual": self.residual,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Verdict:
    status: str  # "incentivizable" | "not_incentivizable" | "inconclusive"
    theorem: str = ""
    certificate: AlignmentCertificate | PiecewiseCertificate | WeightedAlignmentCertificate | None = None
    violation: Violation | None = None
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "theorem": self.theorem,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "violation": self.violation.to_dict() if self.violation else None,
            "note": self.note,
        }


def _affinely_independent(problem: DecisionProblem, size: int) -> bool:
    """Every ``size`` actions affinely independent (payoff differences of full rank).

    The subsets are ranked in stacks of at most ``STACK_FLOATS`` floats.
    """
    subsets = itertools.combinations(range(problem.n_actions), size)
    per_pass = max(1, STACK_FLOATS // ((size - 1) * problem.n_states))
    while chunk := list(itertools.islice(subsets, per_pass)):
        index = np.array(chunk)
        rows = problem.utility[index[:, 1:]] - problem.utility[index[:, :1]]
        if (numerical_rank(project_rows(rows)) != size - 1).any():
            return False
    return True


def _complete_hypotheses(problem: DecisionProblem) -> bool:
    """Every four actions affinely independent (payoff difference triples)."""
    return problem.n_actions >= 4 and _affinely_independent(problem, 4)


def _task_hypotheses(task: DecisionProblem) -> bool:
    """Binary menu, or complete task adjacency with independent difference pairs."""
    if task.n_actions == 2:
        return True
    graph = adjacency_graph(task)
    if graph.n_edges != task.n_actions * (task.n_actions - 1) // 2:
        return False
    return _affinely_independent(task, 3)


def _refutation(
    theorem: str,
    residual: float,
    eps: float,
    kind: str,
    actions: tuple[str, ...],
    detail: str,
    note: str,
) -> Verdict:
    """A negative verdict, or an inconclusive one when the residual is borderline."""
    if residual <= VIOLATION_FACTOR * eps:
        return Verdict(status="inconclusive", theorem=theorem, note=note)
    return Verdict(
        status="not_incentivizable",
        theorem=theorem,
        violation=Violation(kind=kind, actions=actions, residual=residual, detail=detail),
    )


def _pairwise_refutation(
    theorem: str,
    problem: DecisionProblem,
    question: QuestionProfile,
    graph: AdjacencyGraph,
    eps: float,
) -> Verdict | None:
    """Refute through the first decisive pair, else the worst borderline one.

    Stopping at the first residual above ``VIOLATION_FACTOR * eps`` gives
    the status of the worst misaligned pair without solving every edge.
    """
    worst: tuple[str, str, float] | None = None
    for i, j in graph.pairs.tolist():
        a, b = graph.actions[i], graph.actions[j]
        cert, residual = _solve_alignment(problem, question, (a, b), eps)
        if cert is None and (worst is None or residual > worst[2]):
            worst = (a, b, residual)
            if residual > VIOLATION_FACTOR * eps:
                break
    if worst is None:
        return None
    a, b, residual = worst
    return _refutation(
        theorem, residual, eps, "pairwise-misalignment", (a, b),
        "adjacent pair admits no alignment coefficients",
        f"borderline misalignment on edge ({a}, {b})",
    )


def decide_incentivizable(
    bundle: ProblemBundle,
    tol: float = ALIGN_RTOL,
    graph: AdjacencyGraph | None = None,
) -> Verdict:
    """Decide whether the bundle's question can be asked without distortion.

    Sufficiency is tried first (global alignment, then piecewise
    alignment over the splitting collection).  Necessity then goes
    through whichever characterization the adjacency graph supports:
    trees, complete graphs with independent payoffs, product problems,
    cycle-rich action sets, and finally plain per-edge alignment; a
    per-edge refutation names the first decisive edge.  A refutation
    whose residual is within :data:`VIOLATION_FACTOR` of the tolerance is
    reported as inconclusive rather than negative, and so is a verdict
    that needs a graph one of whose LPs did not finish: its note names
    the pair and the solver status, and so is a question whose spread is
    nonzero but within ``tol * max|X|``, below float resolution.
    A ``graph`` passed in that is another problem's raises ``ValueError``.
    """
    if bundle.question is None:
        raise ValueError("the bundle has no question to decide")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    problem = bundle.problem
    question = bundle.question
    values = question.values
    eps = _eps(values, tol)
    spread = eps / tol  # the question gauge, unless every row is constant
    if (values != values[:, :1]).any() and _below_resolution(values, spread, tol):
        note = f"the question's spread {spread:.3e} is within float resolution of its values"
        return Verdict(status="inconclusive", note=note)

    cert, global_residual = _solve_alignment(problem, question, problem.actions, eps)
    if cert is not None:
        return Verdict(
            status="incentivizable",
            theorem="global-alignment-sufficiency",
            certificate=cert,
        )

    try:
        graph = _problem_graph(problem, graph)
    except LPFailure as exc:
        return Verdict(status="inconclusive", note=str(exc))
    classification = classify_graph(graph, bundle.product)

    if classification.connected:
        parts = splitting_collection(graph).parts
        if len(parts) > 1:
            piecewise = piecewise_alignment(problem, question, parts, tol=tol)
            if piecewise is not None:
                return Verdict(
                    status="incentivizable",
                    theorem="piecewise-alignment-sufficiency",
                    certificate=piecewise,
                )

    if problem.n_states <= 3:
        return Verdict(
            status="inconclusive",
            note=(
                "necessity tests need at least four states; "
                "no sufficient alignment was found"
            ),
        )

    if classification.tree:
        # Every splitting part of a tree is one edge, in the edge's order,
        # so the failed sufficiency steps above leave a misaligned edge.
        refuted = _pairwise_refutation(
            "tree-characterization", problem, question, graph, eps
        )
        assert refuted is not None
        return refuted

    if classification.complete and _complete_hypotheses(problem):
        return _refutation(
            "complete-graph-characterization", global_residual, eps,
            "global-misalignment", problem.actions,
            "complete adjacency with independent payoffs forces alignment",
            "global alignment fails only at borderline residual",
        )

    if bundle.product is not None and classification.product_consistent:
        product = bundle.product
        # An mc-test repeats one task object: test each distinct task once.
        try:
            hypotheses = product.n_tasks >= 3 and all(
                map(_task_hypotheses, dict.fromkeys(product.tasks))
            )
        except LPFailure as exc:
            return Verdict(status="inconclusive", note=str(exc))
        if hypotheses:
            nontrivial = sum(
                0 if trivial_dependence(question, product, i, tol=tol) else 1
                for i in range(product.n_tasks)
            )
            if nontrivial >= 3:
                weighted, residual = _solve_weighted(problem, question, product, eps)
                if weighted is not None:
                    return Verdict(
                        status="incentivizable",
                        theorem="product-characterization",
                        certificate=weighted,
                    )
                return _refutation(
                    "product-characterization", residual, eps,
                    "weighted-misalignment", problem.actions,
                    "no task-weighted affine representation exists for "
                    f"{nontrivial} nontrivially answered tasks",
                    "task-weighted alignment fails only at borderline residual",
                )

    if 4 <= problem.n_actions <= 8:
        rich = cycle_rich(problem, problem.actions, graph=graph)
        if rich.rich:
            return _refutation(
                "cycle-rich-necessity", global_residual, eps,
                "global-misalignment", problem.actions,
                "cycle-rich action set forces alignment on it",
                "cycle-rich action set but misalignment is borderline",
            )

    refuted = _pairwise_refutation("pairwise-necessity", problem, question, graph, eps)
    if refuted is not None:
        return refuted

    return Verdict(
        status="inconclusive",
        note=(
            "every adjacent pair aligns, but the adjacency graph matches no "
            "characterization and no global or piecewise certificate exists"
        ),
    )
