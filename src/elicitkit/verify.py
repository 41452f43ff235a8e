"""Behavioral verification of mechanisms over the belief simplex.

The checks here are the behavioral side of the package: instead of
trusting an algebraic certificate, they sweep beliefs (rational grids,
Dirichlet samples, indifference faces) and compare the mechanism's
optimal action set against the decision problem's, belief by belief.
Everything is deterministic for fixed inputs: beliefs are generated in
a fixed order from seeded generators and results are aggregated in that
order, so reports and witnesses are bit-reproducible regardless of how
the evaluation is batched internally.  Grids and face-step candidates
are built as whole arrays, and grids of at most 2 MB are kept between
calls.  One chunked scan serves both the sweep and the witness search;
only the sweep judges which beliefs are ambiguous.  A scan takes about
a thousand beliefs at a time, small enough to stay in cache and for the
witness search to stop after the first chunk that holds a witness, and
lays each result out one action per row, so that every reduction over
actions runs along the first axis.  The face beliefs of a whole graph
come from one pass: one stacked SVD gives every face's tangent basis,
each face draws from its own seeded stream only about as many random
directions as it needs, one batched sign test drops those that leave
the simplex at every step (they still count toward the ``50·n`` attempt
cap), and the step search runs over all remaining directions at once,
with the per-direction arithmetic of one face alone.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import numpy as np

from ._numerics import FloatArray, LPFailure, nullspaces
from .alignment import ALIGN_RTOL, Verdict, decide_incentivizable
from .geometry import (
    OPTIMAL_ACTIONS_RTOL,
    AdjacencyGraph,
    Belief,
    _band,
    _belief_array,
    _problem_graph,
    adjacency_graph,
    adjacency_test,
)
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

#: Beliefs a sweep takes on each indifference face of the graph.
BOUNDARY_PER_EDGE = 3

#: Refinement rounds of the witness search after its coarse pass.
REFINE_ROUNDS = 4

#: The witness search doubles its grid denominator up to this.
MAX_DENOMINATOR = 64

#: Oracle guard: the behavioral cross-check refuses larger problems.
ORACLE_CELL_CAP = 4096

#: Beliefs per scan chunk: small enough for a chunk's products and masks
#: to stay in cache, and for the witness search, whose first confirmed
#: witness usually lies among the first few hundred beliefs, to read one.
_CHUNK_ROWS = 1024

#: ``belief_grid`` keeps grids of at most this many bytes, the last
#: ``GRID_MAX_STATES`` of them used: one denominator's grid for every
#: state count it enumerates.  The 8-state grid at m = 10 takes 1.2 MB.
_GRID_MEMO_BYTES = 2 << 20

#: Face-perturbation step lengths, longest first: 1, 1/2, ..., 2**-39.
_FACE_STEPS = np.ldexp(1.0, -np.arange(40))

#: Report mismatches are bounded by this multiple of the action tolerance.
REPORT_FACTOR = 10.0

#: A candidate witness is confirmed once its gaps exceed the working
#: tolerances by this factor.
CONFIRM_FACTOR = 10.0


@dataclass(frozen=True)
class GridSpec:
    """Belief-sweep configuration.

    ``denominator`` controls the rational grid, ``samples`` the number
    of Dirichlet(1) draws and ``seed`` their stream; the face beliefs
    draw from ``seed + 1`` on.  ``tol`` separates optimal from
    suboptimal actions, ``REPORT_FACTOR * tol`` bounds report
    mismatches, and beliefs whose action sets sit within a tenth of the
    inclusion cutoff, or differ only by actions within
    ``CONFIRM_FACTOR`` cutoffs of optimal on both sides, are reported
    as ambiguous rather than judged.  The witness search refines from
    ``denominator`` up, for ``REFINE_ROUNDS`` rounds.
    """

    denominator: int = 10
    samples: int = 500
    seed: int = 0
    tol: float = 1e-7

    def __post_init__(self) -> None:
        if self.denominator < 1:
            raise ValueError("denominator must be at least 1")
        if self.samples < 0:
            raise ValueError("sample counts must be nonnegative")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tolerances must be finite and positive, got {self.tol}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "denominator": self.denominator,
            "samples": self.samples,
            "seed": self.seed,
            "tol": self.tol,
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


def belief_grid(k: int, m: int) -> FloatArray:
    """All beliefs with coordinates n/m, in lexicographic order.

    The count is C(m + k - 1, k - 1); grids beyond ``GRID_CAP`` rows or
    ``GRID_CAP * GRID_MAX_STATES`` floats raise ``TooLargeError`` with a
    pointer at ``dirichlet_sample``.  The integer counts are enumerated as
    one array, without per-row Python work, and divided by ``float(m)``.
    The returned array is read-only: grids of at most 2 MB are built once
    and shared between calls, larger ones are built on every call.
    """
    if k < 2:
        raise ValueError("a belief needs at least two states")
    if m < 1:
        raise ValueError("denominator must be at least 1")
    count = math.comb(m + k - 1, k - 1)
    if count > GRID_CAP or count * k > GRID_CAP * GRID_MAX_STATES:
        raise TooLargeError(
            f"grid would hold {count} beliefs of {k} states, above its caps; "
            "too large to enumerate, use dirichlet_sample instead"
        )
    if count * k * 8 <= _GRID_MEMO_BYTES:
        return _kept_grid(k, m)
    return _read_only_grid(k, m)


def _read_only_grid(k: int, m: int) -> FloatArray:
    grid = _compositions(m, np.zeros(k, dtype=np.int64), np.full(k, m)) / float(m)
    grid.setflags(write=False)
    return grid


_kept_grid = functools.lru_cache(maxsize=GRID_MAX_STATES)(_read_only_grid)


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

    Returns ``n`` rows, ``(0, n_states)`` for ``n = 0``.  The adjacency
    witness comes first; further points perturb it inside the face's
    tangent directions by the longest of the steps 1, 1/2, ..., 2**-39
    that stays in the simplex and keeps both actions weakly optimal.  At
    most ``50·n`` random directions are tried, one seeded stream drawn in
    attempt order, and rows left over repeat the witness.  The sweep
    computes the beliefs of every face of a graph in one pass, with the
    same bits as this one face.  Non-adjacent pairs are rejected.
    """
    if n < 0:
        raise ValueError(f"the number of beliefs must be nonnegative, got {n}")
    result = adjacency_test(problem, a, b)
    if not result.adjacent or result.witness is None:
        raise ValueError(f"actions {a!r} and {b!r} are not adjacent")
    pair = np.array([[problem.action_index[a], problem.action_index[b]]])
    return _face_beliefs(problem, pair, result.witness.probs[None], n, seed)


def _face_beliefs(
    problem: DecisionProblem, pairs: np.ndarray, witnesses: FloatArray, n: int, seed: int
) -> FloatArray:
    """``boundary_beliefs`` for every face at once.

    Face ``f`` lies between the actions at indices ``pairs[f]`` and holds
    the witness ``witnesses[f]``, as in an :class:`AdjacencyGraph`.  It
    draws from the stream seeded ``seed + f``, and its ``n`` rows
    follow those of face ``f - 1``.  Apart from each face's own draws,
    every step is one array operation over all faces: one stacked SVD
    gives the tangent bases, and each round draws for every face short
    of points about as many directions as it should need (more when its
    witness has zero coordinates, where most directions leave the
    simplex), computes them one per row with
    the products the face alone would use, and drops in one sign test
    those negative, even after the shortest step, where the witness is
    zero: they leave the simplex at every step.  The step search then
    reads, for all remaining directions at once, each one's next step
    inside the simplex.  A face keeps its first accepted directions in
    attempt order, so the rows are those of one direction at a time.
    """
    points = np.repeat(witnesses, n, axis=0)
    if n <= 1 or not len(pairs):
        return points
    first, second = pairs[:, 0], pairs[:, 1]
    ties = problem.utility[first] - problem.utility[second]
    bases = nullspaces(np.stack([np.ones_like(ties), ties], axis=1))
    dims = np.array([basis.shape[0] for basis in bases])
    # Without tangent directions every attempt repeats the witness.
    caps = np.where(dims > 0, 50 * n, 0)
    zero = witnesses <= 0.0
    # Each zero coordinate of the witness about halves the share of
    # directions that stay in the simplex.  A first round draws twice the
    # number that share should need, and each later round twice as many.
    boost = zero.sum(axis=1)
    rngs = [np.random.Generator(np.random.PCG64(seed + f)) for f in range(len(pairs))]
    attempts = np.zeros(len(pairs), dtype=np.int64)
    found = np.zeros(len(pairs), dtype=np.int64)
    for round_index in itertools.count():
        drawing = np.flatnonzero((found < n - 1) & (attempts < caps))
        if not drawing.size:
            break
        wanted = (n - 1 - found[drawing]) << np.minimum(boost[drawing] + round_index + 1, 10)
        draws = np.minimum(wanted, caps[drawing] - attempts[drawing])
        # At most _CHUNK_ROWS directions a round; later faces draw in later rounds.
        draws = np.minimum(draws, np.maximum(_CHUNK_ROWS - (np.cumsum(draws) - draws), 0))
        drawing, draws = drawing[draws > 0], draws[draws > 0]
        attempts[drawing] += draws
        # one product per direction, as coeffs[i] @ basis computes it
        direction = np.concatenate([
            np.matmul(rngs[f].normal(size=(m, dims[f]))[:, None, :], bases[f])[:, 0]
            for f, m in zip(drawing.tolist(), draws.tolist())
        ])
        owner = np.repeat(drawing, draws)
        # np.linalg.norm of each row, through the same dot product
        norm = np.sqrt(np.matmul(direction[:, None, :], direction[:, :, None])[:, 0, 0])
        keep = norm != 0.0
        owner, direction = owner[keep], direction[keep] / norm[keep, None]
        stays = ~((direction * _FACE_STEPS[-1] < 0.0) & zero[owner]).any(axis=1)
        owner, direction = owner[stays], direction[stays]
        candidates = witnesses[owner, None, :] + _FACE_STEPS[:, None] * direction[:, None, :]
        inside = candidates.min(axis=2) >= 0.0
        ok, accepted = _first_on_face(problem, candidates, inside, first[owner], second[owner])
        # Each face keeps its first accepted directions, in attempt order.
        kept = np.flatnonzero(ok)
        face = owner[kept]
        rank = np.arange(kept.size) - np.searchsorted(face, face)
        use = rank < n - 1 - found[face]
        points[face[use] * n + 1 + found[face[use]] + rank[use]] = accepted[kept[use]]
        found += np.bincount(face[use], minlength=len(pairs))
    return points


def _first_on_face(
    problem: DecisionProblem,
    candidates: FloatArray,
    inside: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
) -> tuple[np.ndarray, FloatArray]:
    """Each direction's first candidate inside the simplex keeping its pair optimal.

    ``candidates`` holds one row of steps per direction, longest first.
    A candidate is clipped and normalized, and both actions must be
    within ``optimal_actions``' band of the best expected payoff.
    Returns which directions have such a step, and the clipped and
    normalized candidate of each that has.
    """
    found = np.zeros(candidates.shape[0], dtype=bool)
    accepted = np.empty(candidates[:, 0].shape)
    step = inside.argmax(axis=1)
    todo = np.flatnonzero(inside.any(axis=1))
    later = np.arange(len(_FACE_STEPS))
    while todo.size:
        candidate = np.clip(candidates[todo, step[todo]], 0.0, None)
        candidate /= candidate.sum(axis=1, keepdims=True)
        # one product per candidate, as utility @ candidate computes it
        values = np.matmul(problem.utility, candidate[:, :, None])[:, :, 0]
        best = values.max(axis=1)
        floor = best - _band(best, OPTIMAL_ACTIONS_RTOL)
        rows = np.arange(todo.size)
        ok = (values[rows, first[todo]] >= floor) & (values[rows, second[todo]] >= floor)
        found[todo[ok]] = True
        accepted[todo[ok]] = candidate[ok]
        todo = todo[~ok]
        remaining = inside[todo] & (later > step[todo, None])
        more = remaining.any(axis=1)
        todo = todo[more]
        step[todo] = remaining[more].argmax(axis=1)
    return found, accepted


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
    """One chunk's scan, per action and belief, or per belief.

    Per-action fields hold one action per row and one belief per column,
    so that reductions over the few actions run along axis 0, over
    contiguous rows; along axis 1 of the row-major products they cost
    many times more.  The products themselves stay row-major,
    ``chunk @ M.T``, and are transposed after, which keeps every bit of
    the row-major scan.  Chunks are about a thousand beliefs: the arrays
    stay in cache, and the witness search reads no more than it needs.
    """

    mask_u: np.ndarray
    mask_v: np.ndarray
    values: FloatArray
    best_v: FloatArray
    report_gaps: FloatArray
    sets_equal: np.ndarray
    bad_report: np.ndarray
    deficit_u: FloatArray
    cut_u: FloatArray
    deficit_v: FloatArray
    cut_v: FloatArray


def _by_action(product: FloatArray) -> FloatArray:
    """A row-major ``(beliefs, actions)`` product as a contiguous transpose."""
    return np.ascontiguousarray(product.T)


def _scan_chunk(
    chunk: FloatArray,
    utility: FloatArray,
    x: FloatArray,
    method: ElicitationMethod,
    tol: float,
) -> _ChunkScan:
    eu = _by_action(chunk @ utility.T)
    best_u = eu.max(axis=0)
    cut_u = _band(best_u, tol)
    deficit_u = best_u - eu
    mask_u = deficit_u <= cut_u

    reports = _by_action(chunk @ method.c1.T)
    values = _by_action(chunk @ method.c0.T) + 0.5 * reports * reports
    best_v = values.max(axis=0)
    cut_v = _band(best_v, tol)
    deficit_v = best_v - values
    mask_v = deficit_v <= cut_v

    expected = _by_action(chunk @ x.T) * method.slope[:, None] + method.intercept[:, None]
    gaps = np.abs(reports - expected)
    return _ChunkScan(
        mask_u=mask_u,
        mask_v=mask_v,
        values=values,
        best_v=best_v,
        report_gaps=gaps,
        sets_equal=(mask_u == mask_v).all(axis=0),
        bad_report=((gaps > REPORT_FACTOR * tol) & mask_v).any(axis=0),
        deficit_u=deficit_u,
        cut_u=cut_u,
        deficit_v=deficit_v,
        cut_v=cut_v,
    )


def _ambiguous(scan: _ChunkScan) -> np.ndarray:
    """Rows whose action sets sit on the tolerance razor's edge.

    Only the sweep reads this.  A row is ambiguous when some deficit lies
    within a tenth of its cut, on either scale, or when it is a split tie.
    """
    near_u = np.abs(scan.deficit_u - scan.cut_u) <= scan.cut_u / 10.0
    near_v = np.abs(scan.deficit_v - scan.cut_v) <= scan.cut_v / 10.0
    ambiguous = near_u.any(axis=0) | near_v.any(axis=0)
    # Values and utilities differ in scale, so one near tie can fall inside
    # one cut and outside the other with neither near its cutoff.  Sets that
    # differ only by actions within CONFIRM_FACTOR cuts of optimal on both
    # sides are such a tie: the witness search confirms no gap that small.
    # Only rows whose sets differ with every report in range can be one.
    rows = np.flatnonzero(~scan.sets_equal & ~scan.bad_report)
    mask_u = scan.mask_u[:, rows]
    near_both = np.where(
        mask_u,
        scan.deficit_v[:, rows] <= CONFIRM_FACTOR * scan.cut_v[rows],
        scan.deficit_u[:, rows] <= CONFIRM_FACTOR * scan.cut_u[rows],
    )
    ambiguous[rows] |= ((mask_u == scan.mask_v[:, rows]) | near_both).all(axis=0)
    return ambiguous


def _scans(
    problem: DecisionProblem,
    x: FloatArray,
    method: ElicitationMethod,
    beliefs: FloatArray,
    spec: GridSpec,
) -> Iterator[tuple[FloatArray, _ChunkScan]]:
    """Scan ``beliefs`` in order, about ``_CHUNK_ROWS`` at a time.

    A one-row product takes BLAS's matrix-vector path, whose last bits
    can differ from those of the same row in a larger product, so a last
    lone row joins the chunk before it: each row's scan has the bits of
    one scan of the whole array, unless that array is a single row.
    """
    total = beliefs.shape[0]
    start = 0
    while start < total:
        stop = start + _CHUNK_ROWS
        if stop + 1 == total:
            stop = total
        chunk = beliefs[start:stop]
        yield chunk, _scan_chunk(chunk, problem.utility, x, method, spec.tol)
        start = stop


def _row_witness(
    problem: DecisionProblem, scan: _ChunkScan, chunk: FloatArray, row: int
) -> Witness:
    labels = problem.actions
    mask_u, mask_v = scan.mask_u[:, row], scan.mask_v[:, row]
    return Witness(
        belief=tuple(float(v) for v in chunk[row]),
        u_optimal=tuple(labels[j] for j in np.flatnonzero(mask_u)),
        v_optimal=tuple(labels[j] for j in np.flatnonzero(mask_v)),
        report_gap=float(scan.report_gaps[mask_v, row].max()),
        value_gap=float(scan.best_v[row] - scan.values[mask_u, row].min()),
    )


def _sweep_beliefs(
    problem: DecisionProblem, spec: GridSpec, graph: AdjacencyGraph | None
) -> FloatArray:
    blocks: list[FloatArray] = []
    k = problem.n_states
    if k <= GRID_MAX_STATES:
        blocks.append(belief_grid(k, spec.denominator))
    if spec.samples > 0:
        blocks.append(dirichlet_sample(k, spec.samples, spec.seed))
    if problem.n_actions <= BOUNDARY_MAX_ACTIONS:
        graph = _problem_graph(problem, graph)
        if graph.n_edges:
            blocks.append(_face_beliefs(
                problem, graph.pairs, graph.witnesses, BOUNDARY_PER_EDGE, spec.seed + 1
            ))
    if not blocks:
        raise ValueError("spec produced an empty belief set")
    return np.vstack(blocks)


def verify_incentivizability(
    bundle: ProblemBundle,
    method: ElicitationMethod,
    spec: GridSpec = GridSpec(),
    graph: AdjacencyGraph | None = None,
) -> VerificationReport:
    """Sweep beliefs and require exact optimal-action agreement.

    At every belief the tolerance-argmax of expected utility must equal
    the tolerance-argmax of the mechanism's optimal payments, and every
    payment-optimal action's report must match the transform image of
    the truthful question expectation.  Beliefs whose action sets sit
    on the tolerance razor's edge are counted ambiguous, not failed.
    ``graph`` is the problem's adjacency graph, if already built (another
    problem's raises ``ValueError``); it places the indifference-face beliefs.
    """
    x = _require_bound(bundle, method)
    problem = bundle.problem
    beliefs = _sweep_beliefs(problem, spec, graph)
    checked = beliefs.shape[0]
    passes = 0
    ambiguous = 0
    failures: list[Witness] = []
    for chunk, scan in _scans(problem, x, method, beliefs, spec):
        razor = _ambiguous(scan)
        fail = (~scan.sets_equal | scan.bad_report) & ~razor
        ambiguous += int(razor.sum())
        passes += int((~fail & ~razor).sum())
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


def _confirmed(scan: _ChunkScan, row: int, tol: float) -> bool:
    if not scan.sets_equal[row]:
        gap = scan.best_v[row] - scan.values[scan.mask_u[:, row], row].min()
        if gap > _band(scan.best_v[row], CONFIRM_FACTOR * tol):
            return True
    if scan.report_gaps[scan.mask_v[:, row], row].max() > CONFIRM_FACTOR * (REPORT_FACTOR * tol):
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
            if _confirmed(scan, int(row), spec.tol):
                return _row_witness(problem, scan, chunk, int(row)), None, worst_gap
        value_gaps = scan.best_v - np.where(scan.mask_u, scan.values, np.inf).min(axis=0)
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
    pairwise grid, unless ``belief_grid`` refuses it) plus Dirichlet
    samples; refinement rounds then zoom in around the worst value gap,
    doubling the grid denominator up to ``MAX_DENOMINATOR`` (but never
    below the last one) or concentrating samples near the suspect belief.
    Grid refinement ends early once a round would rescan the last round's
    box.  The first witness whose gaps exceed ten times the working
    tolerances is returned; the search is deterministic for fixed inputs.
    """
    x = _require_bound(bundle, method)
    problem = bundle.problem
    k = problem.n_states
    blocks: list[FloatArray] = []
    if k <= GRID_MAX_STATES:
        blocks.append(belief_grid(k, spec.denominator))
    else:
        with contextlib.suppress(TooLargeError):  # too many states for the pairwise grid
            blocks.append(belief_grid(k, 2))
    if spec.samples > 0:
        blocks.append(dirichlet_sample(k, spec.samples, spec.seed))
    if not blocks:
        raise ValueError("spec produced an empty belief set")
    witness, center, gap = _scan_for_witness(problem, x, method, np.vstack(blocks), spec)
    if witness is not None:
        return witness
    denominator = spec.denominator
    box_denominator, box_center = 0, None
    for round_index in range(1, REFINE_ROUNDS + 1):
        if center is None:
            break
        if k <= GRID_MAX_STATES:
            denominator = max(denominator, min(denominator * 2, MAX_DENOMINATOR))
            # The centre moves only to a larger gap, so the same denominator
            # and centre would rescan the last box and find nothing new.
            if denominator == box_denominator and center is box_center:
                break
            box_denominator, box_center = denominator, center
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
    Inconclusive verdicts carry no behavioral obligation, and neither
    does an incentivizable verdict whose sweep needs an adjacency graph
    with an LP that did not finish: the record then names that LP.
    """
    problem = bundle.problem
    if problem.n_actions * problem.n_states > ORACLE_CELL_CAP:
        raise ValueError(
            f"problem has {problem.n_actions * problem.n_states} cells, "
            f"above the oracle guard of {ORACLE_CELL_CAP}"
        )
    if bundle.question is None:
        raise ValueError("bundle has no question to cross-check")
    # Every verdict but global alignment needs the graph, and so does the
    # sweep of an incentivizable one: build it once for both.  When one of
    # its LPs does not finish, the verdict is decided without it, as
    # ``decide_incentivizable`` alone would decide it.
    try:
        graph = adjacency_graph(problem) if problem.n_actions <= BOUNDARY_MAX_ACTIONS else None
    except LPFailure:
        graph = None
    verdict = decide_incentivizable(bundle, tol=tol, graph=graph)
    if verdict.status == "incentivizable":
        method = synthesize(bundle, verdict, tol)
        try:
            report = verify_incentivizability(bundle, method, spec, graph)
        except LPFailure as exc:
            return CrossCheckRecord(
                verdict=verdict, consistent=True, detail=f"sweep inconclusive: {exc}"
            )
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
