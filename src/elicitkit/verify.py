"""Behavioral verification of mechanisms over the belief simplex.

The checks here are the behavioral side of the package: instead of
trusting an algebraic certificate, they sweep beliefs (rational grids,
Dirichlet samples, indifference faces) and compare the mechanism's
optimal action set against the decision problem's, belief by belief.
Everything is deterministic for fixed inputs: beliefs are generated in
a fixed order from seeded generators and results are aggregated in that
order, so reports and witnesses are bit-reproducible regardless of how
the evaluation is batched internally.  Grids and face-step candidates
are built as whole arrays, and one chunked scan serves both the sweep
and the witness search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import numpy as np

from ._numerics import FloatArray, nullspace
from .alignment import ALIGN_RTOL, Verdict, decide_incentivizable
from .geometry import Belief, _belief_array, adjacency_graph, adjacency_test, optimal_actions
from .model import (
    DecisionProblem,
    ProblemBundle,
    QuestionProfile,
    TooLargeError,
)
from .synth import ElicitationMethod, synthesize

#: Hard cap on enumerated grid sizes; above this, sample instead.
GRID_CAP = 2_000_000

#: Rational grids are only enumerated up to this many states.
GRID_MAX_STATES = 8

#: Indifference-face beliefs are skipped for graphs larger than this.
BOUNDARY_MAX_ACTIONS = 64

#: Oracle guard: the behavioral cross-check refuses larger problems.
ORACLE_CELL_CAP = 4096

_CHUNK_ROWS = 16384

#: Face-perturbation step lengths, longest first: 1, 1/2, ..., 2**-39.
_FACE_STEPS = np.ldexp(1.0, -np.arange(40))

#: A candidate witness is confirmed once its gaps exceed the working
#: tolerances by this factor.
CONFIRM_FACTOR = 10.0


@dataclass(frozen=True)
class GridSpec:
    """Belief-sweep configuration.

    ``denominator`` controls the rational grid, ``samples`` the number
    of Dirichlet(1) draws, ``boundary_per_edge`` the number of beliefs
    taken on each adjacency face.  ``tol_action`` separates optimal
    from suboptimal actions, ``tol_report`` bounds report mismatches,
    and beliefs whose action sets sit within a tenth of ``tol_action``
    of the inclusion cutoff are reported as ambiguous rather than
    judged.  ``refine_rounds`` and ``max_denominator`` cap the witness
    search's multi-resolution refinement.
    """

    denominator: int = 10
    samples: int = 500
    seed: int = 0
    boundary_per_edge: int = 3
    tol_action: float = 1e-7
    tol_report: float = 1e-6
    refine_rounds: int = 4
    max_denominator: int = 64

    def __post_init__(self) -> None:
        if self.denominator < 1:
            raise ValueError("denominator must be at least 1")
        if self.samples < 0 or self.boundary_per_edge < 0:
            raise ValueError("sample counts must be nonnegative")
        if not (self.tol_action > 0.0 and self.tol_report > 0.0):
            raise ValueError("tolerances must be positive")
        if self.refine_rounds < 0 or self.max_denominator < 1:
            raise ValueError("refinement caps must be positive")

    def to_dict(self) -> dict[str, Any]:
        return {
            "denominator": self.denominator,
            "samples": self.samples,
            "seed": self.seed,
            "boundary_per_edge": self.boundary_per_edge,
            "tol_action": self.tol_action,
            "tol_report": self.tol_report,
            "refine_rounds": self.refine_rounds,
            "max_denominator": self.max_denominator,
        }


# ---------------------------------------------------------------------------
# Belief generation


def _compositions(total: int, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Integer rows within ``lows``..``highs`` summing to ``total``, ascending.

    Each level fixes one coordinate, keeping per prefix only its parent
    and appended value; the rows are read back from the last level.
    """
    k = lows.shape[0]
    room_low = np.concatenate([np.cumsum(lows[::-1])[::-1][1:], [0]])
    room_high = np.concatenate([np.cumsum(highs[::-1])[::-1][1:], [0]])
    remaining = np.array([total], dtype=np.int64)
    levels: list[tuple[np.ndarray, np.ndarray]] = []
    for coord in range(k):
        lo = np.maximum(lows[coord], remaining - room_high[coord])
        hi = np.minimum(highs[coord], remaining - room_low[coord])
        counts = np.maximum(hi - lo + 1, 0)
        parent = np.repeat(np.arange(remaining.shape[0]), counts)
        starts = np.cumsum(counts) - counts
        value = lo[parent] + (np.arange(parent.shape[0]) - starts[parent])
        levels.append((parent, value))
        remaining = remaining[parent] - value
    rows = np.empty((remaining.shape[0], k), dtype=np.int64)
    index = np.arange(rows.shape[0])
    for coord in range(k - 1, -1, -1):
        parent, value = levels[coord]
        rows[:, coord] = value[index]
        index = parent[index]
    return rows


def belief_grid(k: int, m: int, cap: int = GRID_CAP) -> FloatArray:
    """All beliefs with coordinates n/m, in lexicographic order.

    The count is C(m + k - 1, k - 1); grids beyond ``cap`` raise
    ``TooLargeError`` with a pointer at ``dirichlet_sample``.  The
    integer counts are enumerated as one array, without per-row Python
    work, and divided by ``float(m)``.
    """
    if k < 2:
        raise ValueError("a belief needs at least two states")
    if m < 1:
        raise ValueError("denominator must be at least 1")
    count = math.comb(m + k - 1, k - 1)
    if count > cap:
        raise TooLargeError(
            f"grid would hold {count} beliefs, above the cap of {cap}; "
            "too large to enumerate, use dirichlet_sample instead"
        )
    return _compositions(m, np.zeros(k, dtype=np.int64), np.full(k, m)) / float(m)


def dirichlet_sample(k: int, n: int, seed: int) -> FloatArray:
    """n uniform draws from the simplex, reproducible per seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.exponential(1.0, size=(n, k))
    if n == 0:
        return draws
    return draws / draws.sum(axis=1, keepdims=True)


def boundary_beliefs(
    problem: DecisionProblem, a: str, b: str, n: int, seed: int
) -> FloatArray:
    """Beliefs on the indifference face between two adjacent actions.

    The adjacency witness comes first; further points perturb it inside
    the face's tangent directions by the longest of the steps 1, 1/2,
    ..., 2**-39 that stays in the simplex and keeps both actions weakly
    optimal.  Non-adjacent pairs are rejected.
    """
    result = adjacency_test(problem, a, b)
    if not result.adjacent or result.witness is None:
        raise ValueError(f"actions {a!r} and {b!r} are not adjacent")
    return _face_beliefs(problem, a, b, result.witness.probs, n, seed)


def _face_beliefs(
    problem: DecisionProblem, a: str, b: str, witness: FloatArray, n: int, seed: int
) -> FloatArray:
    """``boundary_beliefs`` from an already known adjacency witness."""
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
            candidates = witness + _FACE_STEPS[:, None] * direction
            for row in np.flatnonzero(candidates.min(axis=1) >= 0.0):
                candidate = np.clip(candidates[row], 0.0, None)
                candidate /= candidate.sum()
                if {a, b} <= set(optimal_actions(problem, candidate)):
                    points.append(candidate)
                    break
        while len(points) < n:
            points.append(witness)
    return np.asarray(points[:n], dtype=np.float64)


# ---------------------------------------------------------------------------
# Pointwise evaluation


def expected_payoff(
    method: ElicitationMethod, belief: Belief | Iterable[float], action: str
) -> tuple[float, float]:
    """Optimal report and optimal expected payment for one action.

    The payment is concave quadratic in the report, so the optimum is
    the closed-form vertex: the expectation of ``c1``.
    """
    p = _belief_array(belief)
    i = method.action_index[action]
    r_star = float(p @ method.c1[i])
    value = float(p @ method.c0[i]) + 0.5 * r_star * r_star
    return r_star, value


def value_of_information(
    method: ElicitationMethod, belief: Belief | Iterable[float]
) -> float:
    """Upper envelope of the expected payment over actions."""
    p = _belief_array(belief)
    reports = method.c1 @ p
    values = method.c0 @ p + 0.5 * reports * reports
    return float(values.max())


# ---------------------------------------------------------------------------
# Sweep verification


@dataclass(frozen=True)
class Witness:
    """A belief at which the mechanism distorts the decision problem."""

    belief: tuple[float, ...]
    u_optimal: tuple[str, ...]
    v_optimal: tuple[str, ...]
    report_gap: float
    value_gap: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "belief": list(self.belief),
            "u_optimal": list(self.u_optimal),
            "v_optimal": list(self.v_optimal),
            "report_gap": self.report_gap,
            "value_gap": self.value_gap,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a belief sweep; ``passed`` means no failures at all."""

    checked: int
    passes: int
    failures: tuple[Witness, ...]
    boundary_ambiguous: int
    passed: bool
    spec: GridSpec

    def to_dict(self) -> dict[str, Any]:
        return {
            "checked": self.checked,
            "passes": self.passes,
            "boundary_ambiguous": self.boundary_ambiguous,
            "failures": [w.to_dict() for w in self.failures],
            "spec": self.spec.to_dict(),
            "passed": self.passed,
        }


def _require_bound(bundle: ProblemBundle, method: ElicitationMethod) -> FloatArray:
    if bundle.question is None:
        raise ValueError("bundle has no question to verify against")
    if method.actions != bundle.problem.actions or method.states != bundle.problem.states:
        raise ValueError("mechanism labels do not match the bundle's problem")
    return bundle.question.values


@dataclass(frozen=True)
class _ChunkScan:
    mask_u: np.ndarray
    mask_v: np.ndarray
    values: FloatArray
    best_v: FloatArray
    report_gaps: FloatArray
    ambiguous: np.ndarray
    sets_equal: np.ndarray
    bad_report: np.ndarray


def _scan_chunk(
    chunk: FloatArray,
    utility: FloatArray,
    x: FloatArray,
    method: ElicitationMethod,
    tol_action: float,
    tol_report: float,
) -> _ChunkScan:
    eu = chunk @ utility.T
    best_u = eu.max(axis=1)
    cut_u = tol_action * (1.0 + np.abs(best_u))
    deficit_u = best_u[:, None] - eu
    mask_u = deficit_u <= cut_u[:, None]

    reports = chunk @ method.c1.T
    values = chunk @ method.c0.T + 0.5 * reports * reports
    best_v = values.max(axis=1)
    cut_v = tol_action * (1.0 + np.abs(best_v))
    deficit_v = best_v[:, None] - values
    mask_v = deficit_v <= cut_v[:, None]

    expected = (chunk @ x.T) * method.slope[None, :] + method.intercept[None, :]
    gaps = np.abs(reports - expected)

    near_u = (np.abs(deficit_u - cut_u[:, None]) <= cut_u[:, None] / 10.0).any(axis=1)
    near_v = (np.abs(deficit_v - cut_v[:, None]) <= cut_v[:, None] / 10.0).any(axis=1)

    sets_equal = (mask_u == mask_v).all(axis=1)
    bad_report = ((gaps > tol_report) & mask_v).any(axis=1)
    return _ChunkScan(
        mask_u=mask_u,
        mask_v=mask_v,
        values=values,
        best_v=best_v,
        report_gaps=gaps,
        ambiguous=near_u | near_v,
        sets_equal=sets_equal,
        bad_report=bad_report,
    )


def _scans(
    problem: DecisionProblem,
    x: FloatArray,
    method: ElicitationMethod,
    beliefs: FloatArray,
    spec: GridSpec,
) -> Iterator[tuple[FloatArray, _ChunkScan]]:
    """Scan ``beliefs`` in order, one chunk of ``_CHUNK_ROWS`` at a time."""
    for start in range(0, beliefs.shape[0], _CHUNK_ROWS):
        chunk = beliefs[start : start + _CHUNK_ROWS]
        yield chunk, _scan_chunk(
            chunk, problem.utility, x, method, spec.tol_action, spec.tol_report
        )


def _row_witness(
    problem: DecisionProblem, scan: _ChunkScan, chunk: FloatArray, row: int
) -> Witness:
    labels = problem.actions
    u_opt = tuple(labels[j] for j in np.flatnonzero(scan.mask_u[row]))
    v_opt = tuple(labels[j] for j in np.flatnonzero(scan.mask_v[row]))
    report_gap = float(scan.report_gaps[row][scan.mask_v[row]].max())
    value_gap = float(scan.best_v[row] - scan.values[row][scan.mask_u[row]].min())
    return Witness(
        belief=tuple(float(v) for v in chunk[row]),
        u_optimal=u_opt,
        v_optimal=v_opt,
        report_gap=report_gap,
        value_gap=value_gap,
    )


def _sweep_beliefs(problem: DecisionProblem, spec: GridSpec) -> FloatArray:
    blocks: list[FloatArray] = []
    k = problem.n_states
    if k <= GRID_MAX_STATES:
        blocks.append(belief_grid(k, spec.denominator))
    if spec.samples > 0:
        blocks.append(dirichlet_sample(k, spec.samples, spec.seed))
    if spec.boundary_per_edge > 0 and problem.n_actions <= BOUNDARY_MAX_ACTIONS:
        graph = adjacency_graph(problem)
        for index, edge in enumerate(graph.edges):
            blocks.append(
                _face_beliefs(
                    problem,
                    edge.a,
                    edge.b,
                    edge.witness.probs,
                    spec.boundary_per_edge,
                    spec.seed + 1 + index,
                )
            )
    if not blocks:
        raise ValueError("spec produced an empty belief set")
    return np.vstack(blocks)


def verify_incentivizability(
    bundle: ProblemBundle,
    method: ElicitationMethod,
    spec: GridSpec = GridSpec(),
) -> VerificationReport:
    """Sweep beliefs and require exact optimal-action agreement.

    At every belief the tolerance-argmax of expected utility must equal
    the tolerance-argmax of the mechanism's optimal payments, and every
    payment-optimal action's report must match the transform image of
    the truthful question expectation.  Beliefs whose action sets sit
    on the tolerance razor's edge are counted ambiguous, not failed.
    """
    x = _require_bound(bundle, method)
    problem = bundle.problem
    beliefs = _sweep_beliefs(problem, spec)
    checked = beliefs.shape[0]
    passes = 0
    ambiguous = 0
    failures: list[Witness] = []
    for chunk, scan in _scans(problem, x, method, beliefs, spec):
        fail = (~scan.sets_equal | scan.bad_report) & ~scan.ambiguous
        ambiguous += int(scan.ambiguous.sum())
        passes += int((~fail & ~scan.ambiguous).sum())
        for row in np.flatnonzero(fail):
            failures.append(_row_witness(problem, scan, chunk, int(row)))
    return VerificationReport(
        checked=checked,
        passes=passes,
        failures=tuple(failures),
        boundary_ambiguous=ambiguous,
        passed=not failures,
        spec=spec,
    )


# ---------------------------------------------------------------------------
# Distortion search


def _confirmed(
    scan: _ChunkScan, row: int, tol_action: float, tol_report: float
) -> bool:
    if not scan.sets_equal[row]:
        gap = scan.best_v[row] - scan.values[row][scan.mask_u[row]].min()
        if gap > CONFIRM_FACTOR * tol_action * (1.0 + abs(scan.best_v[row])):
            return True
    if scan.report_gaps[row][scan.mask_v[row]].max() > CONFIRM_FACTOR * tol_report:
        return True
    return False


def _scan_for_witness(
    problem: DecisionProblem,
    x: FloatArray,
    method: ElicitationMethod,
    beliefs: FloatArray,
    spec: GridSpec,
) -> tuple[Witness | None, FloatArray | None, float]:
    """First confirmed witness, plus the worst suspicion seen."""
    worst_center: FloatArray | None = None
    worst_gap = -np.inf
    for chunk, scan in _scans(problem, x, method, beliefs, spec):
        suspicious = ~scan.sets_equal | scan.bad_report
        for row in np.flatnonzero(suspicious):
            if _confirmed(scan, int(row), spec.tol_action, spec.tol_report):
                return _row_witness(problem, scan, chunk, int(row)), None, worst_gap
        value_gaps = scan.best_v - np.where(scan.mask_u, scan.values, np.inf).min(axis=1)
        row = int(np.argmax(value_gaps))
        if value_gaps[row] > worst_gap:
            worst_gap = float(value_gaps[row])
            worst_center = chunk[row].copy()
    return None, worst_center, worst_gap


def _box_grid(center: FloatArray, denominator: int, radius: int = 2) -> FloatArray:
    """Rational beliefs near ``center`` with the given denominator.

    Each count ``n`` in a row ``n / denominator`` stays within
    ``radius`` of ``floor(center * denominator)`` and inside
    ``[0, denominator]``; rows come in ascending lexicographic order.
    """
    counts = np.floor(center * denominator).astype(int)
    lows = np.maximum(counts - radius, 0)
    highs = np.minimum(counts + radius, denominator)
    return _compositions(denominator, lows, highs) / float(denominator)


def find_distortion_witness(
    bundle: ProblemBundle,
    method: ElicitationMethod,
    spec: GridSpec = GridSpec(),
) -> Witness | None:
    """Multi-resolution search for a belief where the mechanism distorts.

    A coarse pass scans the rational grid (or, for many states, the
    pairwise grid) plus Dirichlet samples; refinement rounds then zoom
    in around the worst value gap, doubling the grid denominator or
    concentrating samples near the suspect belief.  The first witness
    whose gaps exceed ten times the working tolerances is returned;
    the search is deterministic for fixed inputs.
    """
    x = _require_bound(bundle, method)
    problem = bundle.problem
    k = problem.n_states
    blocks: list[FloatArray] = []
    if k <= GRID_MAX_STATES:
        blocks.append(belief_grid(k, spec.denominator))
    else:
        blocks.append(belief_grid(k, 2))
    if spec.samples > 0:
        blocks.append(dirichlet_sample(k, spec.samples, spec.seed))
    witness, center, gap = _scan_for_witness(
        problem, x, method, np.vstack(blocks), spec
    )
    if witness is not None:
        return witness
    denominator = spec.denominator
    for round_index in range(1, spec.refine_rounds + 1):
        if center is None:
            break
        if k <= GRID_MAX_STATES:
            denominator = min(denominator * 2, spec.max_denominator)
            candidates = _box_grid(center, denominator)
        else:
            draws = dirichlet_sample(k, 2000, spec.seed + round_index)
            candidates = np.vstack(
                [(1.0 - t) * center[None, :] + t * draws for t in (0.5, 0.25, 0.125)]
            )
        if candidates.shape[0] == 0:
            break
        witness, new_center, new_gap = _scan_for_witness(
            problem, x, method, candidates, spec
        )
        if witness is not None:
            return witness
        if new_center is not None and new_gap > gap:
            center, gap = new_center, new_gap
    return None


# ---------------------------------------------------------------------------
# Negative controls


def _normalized_question(question: QuestionProfile) -> tuple[FloatArray, float, float]:
    x = question.values
    lo = float(x.min())
    span = float(x.max()) - lo
    if span <= 0.0:
        return np.full_like(x, 0.5), 1.0, 0.5 - lo
    return (x - lo) / span, 1.0 / span, -lo / span


def make_naive_bdm(
    problem: DecisionProblem,
    question: QuestionProfile,
    alpha: float = 0.5,
) -> ElicitationMethod:
    """The lottery a practitioner would deploy without any alignment step.

    The raw question is rescaled into [0, 1] and fed straight into the
    uniform-draw prize lottery; the decision payoff rides along at
    weight ``alpha``.  This is the canonical candidate mechanism whose
    failures demonstrate non-incentivizability behaviorally.
    """
    normalized, slope, intercept = _normalized_question(question)
    weight = alpha / (1.0 - alpha)
    return ElicitationMethod(
        actions=problem.actions,
        states=problem.states,
        report_range=(0.0, 1.0),
        c0=weight * problem.utility + 0.5,
        c1=normalized,
        slope=np.full(problem.n_actions, slope),
        intercept=np.full(problem.n_actions, intercept),
        provenance="naive-bdm",
        alpha=alpha,
    )


def make_quadratic_control(
    problem: DecisionProblem,
    question: QuestionProfile,
    alpha: float = 0.5,
) -> ElicitationMethod:
    """Binarized quadratic scoring, kept as a non-monotone negative control.

    Truthful reporting is optimal, but the optimal value decreases in
    the variance of the question, so action choice can be distorted
    even for perfectly aligned questions.
    """
    normalized, slope, intercept = _normalized_question(question)
    weight = alpha / (1.0 - alpha)
    return ElicitationMethod(
        actions=problem.actions,
        states=problem.states,
        report_range=(0.0, 1.0),
        c0=0.5 * (weight * problem.utility + 1.0 - normalized * normalized),
        c1=normalized,
        slope=np.full(problem.n_actions, slope),
        intercept=np.full(problem.n_actions, intercept),
        provenance="quadratic-control",
        alpha=alpha,
    )


# ---------------------------------------------------------------------------
# Verdict/behavior cross-check


@dataclass(frozen=True)
class CrossCheckRecord:
    """Ties an algebraic verdict to a behavioral observation."""

    verdict: Verdict
    consistent: bool
    detail: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict.to_dict(),
            "consistent": self.consistent,
            "detail": self.detail,
        }


def oracle_cross_check(
    bundle: ProblemBundle,
    tol: float = ALIGN_RTOL,
    spec: GridSpec = GridSpec(),
) -> CrossCheckRecord:
    """Require the algebraic verdict and the belief sweep to agree.

    Incentivizable verdicts must synthesize into a mechanism that
    passes verification; negative verdicts must be demonstrable through
    a distortion witness against the naive lottery control.
    Inconclusive verdicts carry no behavioral obligation.
    """
    problem = bundle.problem
    if problem.n_actions * problem.n_states > ORACLE_CELL_CAP:
        raise ValueError(
            f"problem has {problem.n_actions * problem.n_states} cells, "
            f"above the oracle guard of {ORACLE_CELL_CAP}"
        )
    if bundle.question is None:
        raise ValueError("bundle has no question to cross-check")
    verdict = decide_incentivizable(bundle, tol=tol)
    if verdict.status == "incentivizable":
        method = synthesize(bundle, verdict)
        report = verify_incentivizability(bundle, method, spec)
        detail = (
            f"synthesized {method.provenance}: {report.passes}/{report.checked} "
            f"beliefs pass, {report.boundary_ambiguous} ambiguous, "
            f"{len(report.failures)} failures"
        )
        return CrossCheckRecord(verdict=verdict, consistent=report.passed, detail=detail)
    if verdict.status == "not_incentivizable":
        control = make_naive_bdm(problem, bundle.question, bundle.alpha)
        witness = find_distortion_witness(bundle, control, spec)
        if witness is None:
            detail = "no distortion witness found for the naive control"
        else:
            detail = (
                f"naive control distorts at a belief with value gap "
                f"{witness.value_gap:.6g}"
            )
        return CrossCheckRecord(
            verdict=verdict, consistent=witness is not None, detail=detail
        )
    return CrossCheckRecord(
        verdict=verdict,
        consistent=True,
        detail="inconclusive verdict carries no behavioral obligation",
    )
