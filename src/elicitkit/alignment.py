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

Global, per-part and task-weighted alignment are one linear question:
is ``Xbar(a)`` affine in a utility basis, ``[ubar]`` for the first two
and the per-task tables ``[Ubar_1 ... Ubar_I]`` for the third?  One
pinned least-squares solver answers it for all three.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np
from numpy.typing import NDArray

from ._numerics import (
    RANK_STACK_FLOATS,
    FloatArray,
    LPFailure,
    project_rows,
    project_vec,
    row_reduce_rank,
)
from .model import DecisionProblem, ProblemBundle, ProductStructure, QuestionProfile
from .geometry import (
    AdjacencyGraph,
    GraphClass,
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
    equivalent with ``gamma = 1``.
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape:
        raise ValueError("questions must have matching length")
    xbar = project_vec(xv)
    ybar = project_vec(yv)
    scale = 1.0 + max(float(np.max(np.abs(xv))), float(np.max(np.abs(yv))))
    if float(np.max(np.abs(ybar))) <= tol * scale:
        if float(np.max(np.abs(xbar))) <= tol * scale:
            return 1.0, float(xv.mean() - yv.mean())
        return None
    gamma = float(xbar @ ybar / (ybar @ ybar))
    if float(np.max(np.abs(xbar - gamma * ybar))) > tol * scale:
        return None
    if abs(gamma) * float(np.max(np.abs(ybar))) <= tol * scale:
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
    """Test alignment on ``{a, b}`` and recover the linking coefficients."""
    ia = problem.action_index[a]
    ib = problem.action_index[b]
    xa = project_vec(question.values[ia])
    xb = project_vec(question.values[ib])
    delta = payoff_delta(problem, a, b)
    q_scale = 1.0 + float(np.max(np.abs(question.values[[ia, ib]])))
    u_scale = 1.0 + float(np.max(np.abs(problem.utility[[ia, ib]])))
    eps_q = tol * q_scale
    xa_zero = float(np.max(np.abs(xa))) <= eps_q
    xb_zero = float(np.max(np.abs(xb))) <= eps_q

    if xa_zero and xb_zero:
        return PairwiseAlignment(aligned=True, rho=0.0, sigma=1.0, residual=0.0)

    if float(np.max(np.abs(delta))) <= tol * u_scale:
        # Payoff-equivalent actions: alignment reduces to collinearity of
        # the two question rows.
        if xa_zero or xb_zero:
            return PairwiseAlignment(
                aligned=False, rho=None, sigma=None,
                residual=float(np.max(np.abs(xb if xa_zero else xa))),
            )
        sigma = float(xb @ xa / (xa @ xa))
        residual = float(np.max(np.abs(xb - sigma * xa)))
        ok = residual <= eps_q and abs(sigma) * float(np.max(np.abs(xa))) > eps_q
        return PairwiseAlignment(
            aligned=ok, rho=0.0 if ok else None, sigma=sigma if ok else None,
            residual=residual,
        )

    if xa_zero:
        rho = float(xb @ delta / (delta @ delta))
        residual = float(np.max(np.abs(xb - rho * delta)))
        ok = residual <= eps_q
        return PairwiseAlignment(
            aligned=ok, rho=rho if ok else None, sigma=1.0 if ok else None,
            residual=residual,
        )

    if xb_zero:
        # Need xa itself collinear with delta; then rho = -alpha, sigma = 1.
        alpha = float(xa @ delta / (delta @ delta))
        residual = float(np.max(np.abs(xa - alpha * delta)))
        ok = residual <= eps_q
        return PairwiseAlignment(
            aligned=ok, rho=-alpha if ok else None, sigma=1.0 if ok else None,
            residual=residual,
        )

    basis = np.stack([delta, xa])
    if row_reduce_rank(basis) == 2:
        coeffs, *_ = np.linalg.lstsq(basis.T, xb, rcond=None)
        rho, sigma = float(coeffs[0]), float(coeffs[1])
        residual = float(np.max(np.abs(xb - rho * delta - sigma * xa)))
        sigma_floor = abs(sigma) * float(np.max(np.abs(xa))) > eps_q
        if residual <= eps_q and sigma_floor:
            return PairwiseAlignment(aligned=True, rho=rho, sigma=sigma, residual=residual)
        return PairwiseAlignment(aligned=False, rho=None, sigma=None, residual=residual)

    # xa is a nonzero multiple of delta; xb must live on the same line.
    alpha = float(xa @ delta / (delta @ delta))
    beta = float(xb @ delta / (delta @ delta))
    residual = float(np.max(np.abs(xb - beta * delta)))
    if residual > eps_q:
        return PairwiseAlignment(aligned=False, rho=None, sigma=None, residual=residual)
    denom = 1.0 + alpha * alpha
    return PairwiseAlignment(
        aligned=True, rho=beta / denom, sigma=alpha * beta / denom, residual=residual
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
    d = np.asarray(cert.d)
    rows = []
    for label, gamma, kappa in zip(cert.scope, cert.gamma, cert.kappa):
        if cert.trivial:
            rows.append(gamma * d + kappa)
        else:
            rows.append(gamma * (problem.utility_of(label) + d) + kappa)
    return np.asarray(rows)


@dataclass(frozen=True)
class WeightedAlignmentCertificate:
    """Task-weighted affine representation for product problems.

    ``X(a) = kappa(a) + v(a) * (d + sum_i tau_i * u_i(a_i))`` with every
    ``v(a)`` nonzero; ``d`` is stored mean-free over global states.
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
    bases: Sequence[FloatArray],
    nonzero: NDArray[np.bool_],
    anchor: int,
) -> tuple[FloatArray, FloatArray, FloatArray, float]:
    """Least-squares solve of ``g(a) * xs(a) - sum_i c_i * B_i(a) - D = 0``.

    ``xs`` and each basis table ``B_i`` hold one mean-free row per action.
    ``g`` is pinned to 1 at ``anchor`` and is no unknown on rows outside
    ``nonzero`` (reported as 1 there); one more row makes ``D`` mean-free.
    Returns ``(g, c, D, residual)``, the residual being the system's
    max-abs misfit.
    """
    n_rows, n_states = xs.shape
    free = [k for k in range(n_rows) if nonzero[k] and k != anchor]
    n_g, n_c = len(free), len(bases)
    system = np.zeros((n_rows * n_states + 1, n_g + n_c + n_states))
    blocks = system[:-1].reshape(n_rows, n_states, -1)
    blocks[free, :, range(n_g)] = xs[free]
    for i, basis in enumerate(bases):
        blocks[:, :, n_g + i] = -basis
    blocks[:, :, n_g + n_c :] = -np.eye(n_states)
    system[-1, n_g + n_c :] = 1.0
    target = np.zeros(system.shape[0])
    target[anchor * n_states : (anchor + 1) * n_states] = -xs[anchor]
    solution, *_ = np.linalg.lstsq(system, target, rcond=None)
    g = np.ones(n_rows)
    g[free] = solution[:n_g]
    residual = float(np.max(np.abs(system @ solution - target)))
    return g, solution[n_g : n_g + n_c], solution[n_g + n_c :], residual


def _solve_alignment(
    problem: DecisionProblem,
    question: QuestionProfile,
    scope: tuple[str, ...],
    tol: float,
) -> tuple[AlignmentCertificate | None, float]:
    """Best alignment certificate on ``scope`` plus the achieved residual."""
    idx = [problem.action_index[a] for a in scope]
    x = question.values[idx]
    u = problem.utility[idx]
    n_states = problem.n_states
    xbar = project_rows(x)
    ubar = project_rows(u)
    x_means = x.mean(axis=1)
    u_means = u.mean(axis=1)
    q_scale = 1.0 + float(np.max(np.abs(x)))
    eps = tol * q_scale
    row_norms = np.max(np.abs(xbar), axis=1)
    nonzero = row_norms > eps

    def check(cert: AlignmentCertificate) -> tuple[AlignmentCertificate | None, float]:
        rebuilt = reconstruct_question(problem, cert)
        residual = float(np.max(np.abs(rebuilt - x)))
        if residual <= ARBITER_FACTOR * eps:
            return (
                AlignmentCertificate(
                    trivial=cert.trivial,
                    scope=cert.scope,
                    gamma=cert.gamma,
                    kappa=cert.kappa,
                    d=cert.d,
                    residual=residual,
                ),
                residual,
            )
        return None, residual

    # Trivial branch 1: every row constant.
    if not nonzero.any():
        cert = AlignmentCertificate(
            trivial=True,
            scope=scope,
            gamma=tuple(1.0 for _ in scope),
            kappa=tuple(float(m) for m in x_means),
            d=tuple(0.0 for _ in range(n_states)),
            residual=0.0,
        )
        return check(cert)

    # Trivial branch 2: all rows nonzero and mutually collinear.
    best_residual = float("inf")
    if nonzero.all() and row_reduce_rank(xbar) <= 1:
        anchor = int(np.argmax(row_norms))
        d = xbar[anchor]
        gammas = xbar @ d / float(d @ d)
        cert = AlignmentCertificate(
            trivial=True,
            scope=scope,
            gamma=tuple(float(g) for g in gammas),
            kappa=tuple(float(m) for m in x_means),
            d=tuple(float(v) for v in d),
            residual=0.0,
        )
        accepted, residual = check(cert)
        if accepted is not None:
            return accepted, residual
        best_residual = min(best_residual, residual)

    # Nontrivial branch: g(a) * Xbar(a) = h * ubar(a) + D with g pinned
    # at an anchor row.  A valid nontrivial representation then has
    # gamma(a) = h / g(a), d = D / h.
    s_x = float(np.max(row_norms))
    s_u = max(float(np.max(np.abs(ubar))), 1e-30)
    xs = xbar / s_x
    us = ubar / s_u
    nz_list = [k for k in range(len(scope)) if nonzero[k]]
    anchors = sorted(nz_list, key=lambda k: -row_norms[k])
    for anchor in anchors[:2]:
        g, (h,), d_scaled, system_residual = _pinned_alignment(xs, [us], nonzero, anchor)
        if abs(h) <= 1e-12:
            best_residual = min(best_residual, system_residual * q_scale)
            continue
        if np.any(np.abs(g[nonzero]) <= 1e-12):
            continue
        # Undo the row scalings: gamma maps utility units to question units.
        gamma = np.ones(len(scope))
        gamma[nonzero] = (h / g[nonzero]) * (s_x / s_u)
        d = d_scaled / h * s_u
        d = d - d.mean()
        kappa = x_means - gamma * u_means
        cert = AlignmentCertificate(
            trivial=False,
            scope=scope,
            gamma=tuple(float(v) for v in gamma),
            kappa=tuple(float(v) for v in kappa),
            d=tuple(float(v) for v in d),
            residual=0.0,
        )
        accepted, residual = check(cert)
        if accepted is not None:
            return accepted, residual
        best_residual = min(best_residual, residual)
    if not np.isfinite(best_residual):
        best_residual = float(np.max(np.abs(xbar)))
    return None, best_residual


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
    cert, _ = _solve_alignment(problem, question, scope, tol)
    return cert


def piecewise_alignment(
    problem: DecisionProblem,
    question: QuestionProfile,
    parts: Sequence[Sequence[str]],
    tol: float = ALIGN_RTOL,
) -> PiecewiseCertificate | None:
    """Align the question separately on each part of a splitting collection."""
    certs = []
    for part in parts:
        cert = alignment_on_set(problem, question, tuple(part), tol=tol)
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
    return bool((row_reduce_rank(project_rows(question.values)[members]) <= 1).all())


def _solve_weighted(
    problem: DecisionProblem,
    question: QuestionProfile,
    product: ProductStructure,
    tol: float,
) -> tuple[WeightedAlignmentCertificate | None, float]:
    """Best task-weighted certificate plus the achieved residual."""
    x = question.values
    xbar = project_rows(x)
    x_means = x.mean(axis=1)
    n_actions, n_states = x.shape
    q_scale = 1.0 + float(np.max(np.abs(x)))
    eps = tol * q_scale
    row_norms = np.max(np.abs(xbar), axis=1)
    nonzero = row_norms > eps
    tables = product.task_utility_tables()
    n_tasks = product.n_tasks

    def finish(
        v: FloatArray, tau: FloatArray, d: FloatArray
    ) -> tuple[WeightedAlignmentCertificate | None, float]:
        base = sum(tau[i] * tables[i] for i in range(n_tasks))
        kappa = x_means - v * (d.mean() + np.asarray([row.mean() for row in base]))
        rebuilt = kappa[:, None] + v[:, None] * (d[None, :] + base)
        residual = float(np.max(np.abs(rebuilt - x)))
        if residual > ARBITER_FACTOR * eps:
            return None, residual
        return (
            WeightedAlignmentCertificate(
                actions=problem.actions,
                v=tuple(float(t) for t in v),
                kappa=tuple(float(t) for t in kappa),
                tau=tuple(float(t) for t in tau),
                d=tuple(float(t) for t in d),
                residual=residual,
            ),
            residual,
        )

    if not nonzero.any():
        return finish(np.ones(n_actions), np.zeros(n_tasks), np.zeros(n_states))

    # g(a) * Xbar(a) = sum_i tau_i * Ubar_i(a_i) + D, pinned at g = 1 on
    # the largest question row; then v(a) = 1 / g(a) in scaled units.
    tables_bar = [project_rows(t) for t in tables]
    s_x = float(np.max(row_norms))
    s_u = max(float(max(np.max(np.abs(t)) for t in tables_bar)), 1e-30)
    g, tau_scaled, d, _ = _pinned_alignment(
        xbar / s_x, [t / s_u for t in tables_bar], nonzero, int(np.argmax(row_norms))
    )
    if np.any(np.abs(g[nonzero]) <= 1e-12):
        # No usable solve: report the mean-free spread, as _solve_alignment does.
        return None, s_x
    v = np.ones(n_actions)
    v[nonzero] = (1.0 / g[nonzero]) * s_x
    return finish(v, tau_scaled / s_u, d - d.mean())


def weighted_alignment(
    problem: DecisionProblem,
    question: QuestionProfile,
    product: ProductStructure,
    tol: float = ALIGN_RTOL,
) -> WeightedAlignmentCertificate | None:
    """Recover a task-weighted affine representation, if one exists.

    Solves ``g(a) * Xbar(a) = sum_i tau_i * Ubar_i(a_i) + D`` pinned at
    ``g = 1`` on the largest question row, then re-verifies the implied
    ``(v, kappa, tau, d)`` by substitution.
    """
    cert, _ = _solve_weighted(problem, question, product, tol)
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

    The subsets are tested in stacked rank passes of ``RANK_STACK_FLOATS``.
    """
    subsets = itertools.combinations(range(problem.n_actions), size)
    per_pass = max(1, RANK_STACK_FLOATS // ((size - 1) * problem.n_states))
    while chunk := list(itertools.islice(subsets, per_pass)):
        index = np.array(chunk)
        rows = problem.utility[index[:, 1:]] - problem.utility[index[:, :1]]
        if (row_reduce_rank(project_rows(rows)) != size - 1).any():
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
    tol: float,
    eps: float,
) -> Verdict | None:
    """Refute through the worst misaligned adjacent pair, if any pair misaligns."""
    worst: tuple[str, str, float] | None = None
    for edge in graph.edges:
        pair = pairwise_alignment(problem, question, edge.a, edge.b, tol=tol)
        if not pair.aligned and (worst is None or pair.residual > worst[2]):
            worst = (edge.a, edge.b, pair.residual)
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
    cycle-rich action sets, and finally plain per-edge alignment.  A
    refutation whose residual is within :data:`VIOLATION_FACTOR` of the
    tolerance is reported as inconclusive rather than negative, and so is
    a verdict that needs a graph one of whose LPs did not finish: its note
    names the pair and the solver status.
    """
    if bundle.question is None:
        raise ValueError("the bundle has no question to decide")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    problem = bundle.problem
    question = bundle.question
    q_scale = 1.0 + float(np.max(np.abs(question.values)))
    eps = tol * q_scale

    cert, global_residual = _solve_alignment(problem, question, problem.actions, tol)
    if cert is not None:
        return Verdict(
            status="incentivizable",
            theorem="global-alignment-sufficiency",
            certificate=cert,
        )

    if graph is None:
        try:
            graph = adjacency_graph(problem)
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
        refuted = _pairwise_refutation(
            "tree-characterization", problem, question, graph, tol, eps
        )
        if refuted is not None:
            return refuted
        return Verdict(
            status="inconclusive",
            theorem="tree-characterization",
            note=(
                "all adjacent pairs align individually but no piecewise "
                "certificate was assembled"
            ),
        )

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
                weighted, residual = _solve_weighted(problem, question, product, tol)
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

    refuted = _pairwise_refutation("pairwise-necessity", problem, question, graph, tol, eps)
    if refuted is not None:
        return refuted

    return Verdict(
        status="inconclusive",
        note=(
            "every adjacent pair aligns, but the adjacency graph matches no "
            "characterization and no global or piecewise certificate exists"
        ),
    )
