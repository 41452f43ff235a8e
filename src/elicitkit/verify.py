"""Behavioral verification of mechanisms over the belief simplex.

The checks here are the behavioral side of the package: instead of
trusting an algebraic certificate, they sweep beliefs (rational grids,
Dirichlet samples, indifference faces) and compare the mechanism's
optimal action set against the decision problem's, belief by belief.
The sweep and the witness search scan one belief set in one order and
judge each belief by one rule.  Everything is deterministic for fixed
inputs: beliefs are generated in a fixed order from seeded generators
and results are aggregated in that order, so reports and witnesses are
bit-reproducible.  A product's last bits can depend on how many rows it
holds, so both checks scan the same blocks, cut into the same chunks: a
belief that both scan gets the same bits in each.  Grids and face
beliefs are built as whole arrays, the face beliefs one step length at
a time for every face, and grids of at most 2 MB are kept between
calls.  A scan takes about a thousand beliefs at a time and lays each
result out one action per row, so that every reduction over actions
runs along the first axis.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from ._numerics import FloatArray, LPFailure
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
    Record,
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
class GridSpec(Record):
    """Belief-sweep configuration.

    ``denominator`` controls the rational grid, ``samples`` the number
    of Dirichlet(1) draws and ``seed`` their stream; the face beliefs
    draw one block from ``seed + 1``.  ``tol`` separates optimal from
    suboptimal actions and ``REPORT_FACTOR * tol`` bounds report
    mismatches, as :func:`verify_incentivizability` states.  The witness
    search refines from ``denominator`` up, for ``REFINE_ROUNDS`` rounds.
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
    return draws / draws.sum(axis=1, keepdims=True)


def boundary_beliefs(
    problem: DecisionProblem, a: str, b: str, n: int, seed: int
) -> FloatArray:
    """Beliefs on the indifference face between two adjacent actions.

    Returns ``n`` rows, ``(0, n_states)`` for ``n = 0``.  The adjacency
    witness comes first.  Each further point starts from a Dirichlet(1)
    draw of the stream ``seed``, moved along the line to one vertex of
    the simplex until the two actions tie there: a point of the face.
    The point is the witness moved towards it by the longest of the
    steps 1, 1/2, ..., 2**-39 that keeps both actions weakly optimal,
    or the witness itself when no step does.  The sweep computes the
    beliefs of every face of a graph in one pass, with the same bits as
    this one face.  Non-adjacent pairs are rejected.
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

    Face ``f`` lies between the actions ``i, j`` at indices ``pairs[f]``
    and holds the witness ``w = witnesses[f]``, as in an
    :class:`AdjacencyGraph`; its ``n`` rows follow those of face
    ``f - 1``.  Its ``n - 1`` further points read rows ``f·(n - 1)`` on
    of one ``dirichlet_sample`` block.  A row ``r`` with ``d·r > 0``,
    where ``d = u_i - u_j``, moves towards the vertex ``e_s`` of the
    smallest ``d_s``, one with ``d·r < 0`` towards that of the largest,
    to ``q = r + λ(e_s - r)`` with ``λ = d·r / (d·r - d_s)`` in (0, 1]:
    ``q`` lies in the simplex on the tie plane ``d·p = 0``, and so does
    every point between ``w`` and ``q``.  A row with ``d·r = 0`` is its
    own ``q``.  Then, one step at a time, longest first, every point
    still open tries ``w + t(q - w)``, clipped and normalized, and keeps
    the first at which both actions lie within ``optimal_actions``'
    band of the best expected payoff.
    """
    points = np.repeat(witnesses, n, axis=0)
    if n <= 1 or not len(pairs):
        return points
    owner = np.repeat(np.arange(len(pairs)), n - 1)
    first, second = pairs[owner, 0], pairs[owner, 1]
    ties = problem.utility[first] - problem.utility[second]
    draws = dirichlet_sample(problem.n_states, owner.size, seed)
    rows = np.arange(owner.size)
    # one product per row, as draw @ tie computes it
    level = np.matmul(draws[:, None, :], ties[:, :, None])[:, 0, 0]
    vertex = np.where(level > 0.0, ties.argmin(axis=1), ties.argmax(axis=1))
    share = np.zeros(owner.size)
    np.divide(level, level - ties[rows, vertex], out=share, where=level != 0.0)
    towards = -draws
    towards[rows, vertex] += 1.0
    start = witnesses[owner]
    span = draws + share[:, None] * towards - start
    open_rows = rows
    for step in _FACE_STEPS:
        candidate = np.clip(start[open_rows] + step * span[open_rows], 0.0, None)
        candidate /= candidate.sum(axis=1, keepdims=True)
        # one product per candidate, as utility @ candidate computes it
        values = np.matmul(problem.utility, candidate[:, :, None])[:, :, 0]
        best = values.max(axis=1)
        floor = best - _band(best, OPTIMAL_ACTIONS_RTOL)
        index = np.arange(open_rows.size)
        ok = (values[index, first[open_rows]] >= floor) & (
            values[index, second[open_rows]] >= floor
        )
        done = open_rows[ok]
        # draw f·(n - 1) + m places point f·n + 1 + m
        points[done + owner[done] + 1] = candidate[ok]
        open_rows = open_rows[~ok]
        if not open_rows.size:
            break
    return points


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
class Witness(Record):
    """A belief at which the mechanism distorts the decision problem."""

    belief: tuple[float, ...]
    u_optimal: tuple[str, ...]
    v_optimal: tuple[str, ...]
    report_gap: float
    value_gap: float


@dataclass(frozen=True)
class VerificationReport(Record):
    """Outcome of a belief sweep; ``passed`` means no failures at all."""

    checked: int
    passes: int
    boundary_ambiguous: int
    failures: tuple[Witness, ...]
    spec: GridSpec
    passed: bool


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
    the row-major scan.
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

    The razor of :func:`_judge`.  A row is ambiguous when some deficit
    lies within a tenth of its cut, on either scale, or when it is a
    split tie.
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


def _judge(
    problem: DecisionProblem, chunk: FloatArray, scan: _ChunkScan, tol: float
) -> tuple[np.ndarray, np.ndarray, FloatArray]:
    """Each row's fail and razor (:func:`_ambiguous`) masks, and its margin.

    A row fails when its two action sets differ or a payment-optimal
    report misses by more than ``REPORT_FACTOR * tol``.  A failing row's
    margin is the largest of a utility-optimal action's value gap, a
    payment-optimal action's utility deficit and its report's miss, each
    over its band: ``_band(best_v, tol)``, ``_band(best_u, tol)`` and
    ``REPORT_FACTOR * tol``; other rows' is 0.  A scan's sets, payments
    and reports are all the judgement reads, so the failing beliefs'
    expected utilities are recomputed, one product per belief.
    """
    fail = ~scan.sets_equal | scan.bad_report
    margin = np.zeros(fail.shape)
    rows = np.flatnonzero(fail)
    if rows.size:
        mask_u, mask_v, best_v = scan.mask_u[:, rows], scan.mask_v[:, rows], scan.best_v[rows]
        value_gap = best_v - np.where(mask_u, scan.values[:, rows], np.inf).min(axis=0)
        eu = np.matmul(problem.utility, chunk[rows, :, None])[:, :, 0].T
        best_u = eu.max(axis=0)
        margin[rows] = np.maximum.reduce([
            value_gap / _band(best_v, tol),
            np.where(mask_v, best_u - eu, 0.0).max(axis=0) / _band(best_u, tol),
            np.where(mask_v, scan.report_gaps[:, rows], 0.0).max(axis=0) / (REPORT_FACTOR * tol),
        ])
    return fail, _ambiguous(scan), margin


def _scans(
    problem: DecisionProblem,
    x: FloatArray,
    method: ElicitationMethod,
    beliefs: FloatArray,
    spec: GridSpec,
) -> Iterator[tuple[FloatArray, _ChunkScan]]:
    """Scan ``beliefs`` in order, about ``_CHUNK_ROWS`` at a time.

    A row's last bits can depend on the rows scanned with it: a one-row
    product takes BLAS's matrix-vector path, and larger products are
    blocked by their shape.  So a last lone row joins the chunk before
    it, and a row's bits are fixed by ``beliefs`` and its place there.
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


def _beliefs(
    problem: DecisionProblem, spec: GridSpec, graph: AdjacencyGraph | None
) -> Iterator[FloatArray]:
    """The beliefs of the sweep and of the witness search, block by block.

    The rational grid up to ``GRID_MAX_STATES`` states (above, the
    pairwise grid, unless ``belief_grid`` refuses it), then the Dirichlet
    draws; a spec giving neither raises ``ValueError``.  Then, up to
    ``BOUNDARY_MAX_ACTIONS`` actions, the face beliefs of ``graph``, built
    only then when ``None``; another problem's is refused first.
    """
    if graph is not None:
        graph = _problem_graph(problem, graph)
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
    yield from blocks
    if problem.n_actions <= BOUNDARY_MAX_ACTIONS:
        graph = _problem_graph(problem, graph)
        seed = spec.seed + 1
        yield _face_beliefs(problem, graph.pairs, graph.witnesses, BOUNDARY_PER_EDGE, seed)


def verify_incentivizability(
    bundle: ProblemBundle,
    method: ElicitationMethod,
    spec: GridSpec = GridSpec(),
    graph: AdjacencyGraph | None = None,
) -> VerificationReport:
    """Sweep beliefs and require exact optimal-action agreement.

    A belief fails when the tolerance-argmax of expected utility differs
    from the tolerance-argmax of the mechanism's optimal payments, or when
    a payment-optimal action's report misses the transform image of the
    truthful question expectation by more than ``REPORT_FACTOR * tol``.
    Beliefs whose action sets sit on the tolerance razor's edge are
    counted ambiguous, not failed: a deficit within a tenth of its cut, or
    sets that differ only by actions within ``CONFIRM_FACTOR`` cuts of
    optimal on both scales.
    ``graph`` is the problem's adjacency graph, if already built (another
    problem's raises ``ValueError``); it places the indifference-face beliefs.
    """
    x = _require_bound(bundle, method)
    problem = bundle.problem
    checked = passes = ambiguous = 0
    failures: list[Witness] = []
    for block in _beliefs(problem, spec, graph):
        checked += block.shape[0]
        for chunk, scan in _scans(problem, x, method, block, spec):
            fail, razor, _ = _judge(problem, chunk, scan, spec.tol)
            ambiguous += int(razor.sum())
            passes += int((~fail & ~razor).sum())
            for row in np.flatnonzero(fail & ~razor):
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


def _mixtures(center: FloatArray, seed: int) -> Iterator[FloatArray]:
    """2,000 Dirichlet draws mixed into ``center`` at weights 1/2, 1/4, 1/8, in one buffer."""
    draws = dirichlet_sample(center.shape[0], 2000, seed)
    block = np.empty_like(draws)
    for t in (0.5, 0.25, 0.125):
        np.multiply(draws, t, out=block)
        block += (1.0 - t) * center
        yield block


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
    graph: AdjacencyGraph | None = None,
) -> Witness | None:
    """Multi-resolution search for a belief where the mechanism distorts.

    A first pass scans the sweep's beliefs in the sweep's order (``graph``
    as there), so the graph and its face beliefs are built only if the
    grid and the draws hold no witness.  Refinement rounds then zoom in
    around the worst value gap, doubling the grid denominator up to
    ``MAX_DENOMINATOR`` (but never below the last one), or, above
    ``GRID_MAX_STATES`` states, mixing 2,000 Dirichlet draws into the
    suspect belief at weights 1/2, 1/4 and 1/8, one weight at a time.
    Grid refinement ends early once a round would rescan the last
    round's box.  The first belief that fails the sweep's rule by more
    than ``CONFIRM_FACTOR`` bands (a value gap, a payment-optimal action's
    utility deficit or a report miss) is returned.  The search is
    deterministic for fixed inputs.
    """
    x = _require_bound(bundle, method)
    problem = bundle.problem
    center, gap = None, -np.inf
    denominator = spec.denominator
    box_denominator, box_center = 0, None
    for round_index in range(REFINE_ROUNDS + 1):
        if round_index == 0:
            blocks: Iterable[FloatArray] = _beliefs(problem, spec, graph)
        elif problem.n_states > GRID_MAX_STATES:
            blocks = _mixtures(center, spec.seed + round_index)
        else:
            denominator = max(denominator, min(denominator * 2, MAX_DENOMINATOR))
            # The centre moves only to a larger gap, so the same denominator
            # and centre would rescan the last box and find nothing new.
            if denominator == box_denominator and center is box_center:
                break
            box_denominator, box_center = denominator, center
            blocks = [_box_grid(center, denominator)]
        for block in blocks:
            for chunk, scan in _scans(problem, x, method, block, spec):
                confirmed = _judge(problem, chunk, scan, spec.tol)[2] > CONFIRM_FACTOR
                if confirmed.any():
                    return _row_witness(problem, scan, chunk, int(np.argmax(confirmed)))
                # the first belief with the largest value gap centres the next round
                value_gaps = scan.best_v - np.where(scan.mask_u, scan.values, np.inf).min(axis=0)
                row = int(np.argmax(value_gaps))
                if value_gaps[row] > gap:
                    gap, center = float(value_gaps[row]), chunk[row].copy()
        block = chunk = None  # drop this round's beliefs before the next round builds its own
    return None


# ---------------------------------------------------------------------------
# Negative controls


def _question_lottery(
    problem: DecisionProblem,
    question: QuestionProfile,
    alpha: float,
    provenance: str,
    constant: Callable[[FloatArray, FloatArray], FloatArray],
) -> ElicitationMethod:
    """A control paying for the question rescaled into [0, 1]; ``c0`` is
    ``constant(utility * alpha / (1 - alpha), rescaled question)``."""
    x = question.values
    lo = float(x.min())
    span = float(x.max()) - lo
    if span <= 0.0:
        normalized, slope, intercept = np.full_like(x, 0.5), 1.0, 0.5 - lo
    else:
        normalized, slope, intercept = (x - lo) / span, 1.0 / span, -lo / span
    weight = alpha / (1.0 - alpha)
    return ElicitationMethod(
        actions=problem.actions,
        states=problem.states,
        report_range=(0.0, 1.0),
        c0=constant(weight * problem.utility, normalized),
        c1=normalized,
        slope=np.full(problem.n_actions, slope),
        intercept=np.full(problem.n_actions, intercept),
        provenance=provenance,
        alpha=alpha,
    )


def make_naive_bdm(
    problem: DecisionProblem,
    question: QuestionProfile,
    alpha: float = 0.5,
) -> ElicitationMethod:
    """The lottery a practitioner would deploy without any alignment step.

    The raw question is rescaled into [0, 1] and fed straight into the
    uniform-draw prize lottery; the decision payoff rides along at
    weight ``alpha``.  A distortion it shows is this lottery's, not proof
    that the question is not incentivizable: it also distorts on
    incentivizable bundles, such as star(5, 0.3) under ex-post optimality,
    whose synthesized mechanism passes the sweep.
    """
    return _question_lottery(
        problem, question, alpha, "naive-bdm", lambda weighted, _: weighted + 0.5
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
    return _question_lottery(
        problem, question, alpha, "quadratic-control",
        lambda weighted, normalized: 0.5 * (weighted + 1.0 - normalized * normalized),
    )


# ---------------------------------------------------------------------------
# Verdict/behavior cross-check


@dataclass(frozen=True)
class CrossCheckRecord(Record):
    """Ties an algebraic verdict to a behavioral observation."""

    verdict: Verdict
    consistent: bool
    detail: str


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
    # Every verdict but global alignment needs the graph, and so do the
    # sweep and the witness search: build it once for all.  When one of
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
        witness = find_distortion_witness(bundle, control, spec, graph)
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
