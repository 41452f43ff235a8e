"""Belief-space geometry: optimal actions, adjacency, cycles.

Two actions are adjacent when some belief makes exactly that pair
optimal, with strictly positive slack over every other action.  The
resulting adjacency graph drives everything downstream: its shape picks
the characterization theorem to apply, its biconnected blocks form the
splitting collection for piecewise constructions, and its cycles feed
the cycle-based necessity test.

Building the graph divides the utility by its gauge once and solves
one max-slack LP on that matrix per action pair, in bounded stacks that
are built and read in one array pass each, except for pairs a
cheap certificate settles.  A pair is proved non-adjacent when no
belief comes close to tying the two actions, or a single third action
beats the first of them by a fixed margin near every tie; such a
pair's LP could only have confirmed the non-edge, and it never runs.
A pair is proved adjacent when, at some vertex of its tie face, the
first action beats every other by that margin; its LP, which only
measures the edge's slack and witness, runs when the graph's slacks,
witnesses, edges or dictionary are first read, and that read raises
:class:`LPFailure` if it does not finish.  So the graph is the one the
LPs alone would give, bit for bit, while its shape, all that verdicts,
classification, splitting and cycles read, costs no LP for a certified
edge.  One array pass screens all pairs of a graph and one certifies
those it leaves; their working sets are bounded by the points each pair
needs, and a problem whose pairs need too many skips that pass.  Every
adjacency LP goes through one pair routine, whose witnesses are the rows
the LP layer normalized; the graph stores them as arrays.
The cycle-richness test checks the independence of all its cycles, and
the spans of each subset, in stacked SVD calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from ._numerics import (
    MIN_SLACK,
    STACK_FLOATS,
    FloatArray,
    LPFailure,
    _max_slack_programs,
    nullspaces,
    numerical_rank,
    project_rows,
    scale_to_utility_gauge,
)
from .model import DecisionProblem, ProductStructure

#: Relative tolerance when collecting optimal actions.
OPTIMAL_ACTIONS_RTOL = 1e-7

#: Hard cap on enumerated cycles.
CYCLE_CAP = 100_000

#: Largest action subset the cycle-richness test will analyze exactly.
CYCLE_RICH_MAX_SET = 8


@dataclass(frozen=True, eq=False)
class Belief:
    """A probability vector over states."""

    probs: FloatArray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=np.float64).copy()
        if arr.ndim != 1:
            raise ValueError("a belief must be a vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("belief contains non-finite entries")
        if float(arr.min(initial=0.0)) < -1e-12:
            raise ValueError("belief has negative probabilities")
        arr = np.clip(arr, 0.0, None)
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"belief probabilities sum to {total}, not 1")
        arr /= total
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def from_array(cls, values: Iterable[float]) -> "Belief":
        """Clean up a near-feasible vector (e.g. an LP solution) into a belief."""
        arr = np.clip(np.asarray(list(values), dtype=np.float64), 0.0, None)
        total = float(arr.sum())
        if total <= 0.0:
            raise ValueError("cannot normalize a nonpositive vector into a belief")
        return cls(arr / total)


def _belief_array(belief: Belief | Iterable[float]) -> FloatArray:
    if isinstance(belief, Belief):
        return belief.probs
    return np.asarray(list(belief), dtype=np.float64)


def _band(best: float | FloatArray, tol: float) -> float | FloatArray:
    """How far below the best expected payoff ``best`` an action still counts
    as optimal: ``tol * (1 + |best|)``, elementwise."""
    return tol * (1.0 + abs(best))


def optimal_actions(
    problem: DecisionProblem, belief: Belief | Iterable[float]
) -> tuple[str, ...]:
    """All actions within ``OPTIMAL_ACTIONS_RTOL``'s band of the best expected payoff."""
    p = _belief_array(belief)
    values = problem.utility @ p
    best = float(values.max())
    band = _band(best, OPTIMAL_ACTIONS_RTOL)
    return tuple(
        problem.actions[i] for i in range(problem.n_actions) if values[i] >= best - band
    )


# ---------------------------------------------------------------------------
# Adjacency


@dataclass(frozen=True, eq=False)
class AdjacencyResult:
    adjacent: bool
    slack: float
    witness: Belief | None


@dataclass(frozen=True, eq=False)
class AdjacencyEdge:
    a: str
    b: str
    slack: float
    witness: Belief


def _pair_lps(
    scaled: FloatArray, pairs: np.ndarray, actions: Sequence[str]
) -> tuple[FloatArray, FloatArray]:
    """Slack and witness row of each pair's max-slack LP on the gauged utility ``scaled``.

    The rows are read-only, as :func:`_max_slack_programs` normalized them;
    an infeasible pair has slack ``-inf``.  An LP that does not finish
    raises :class:`LPFailure` naming its pair.
    """
    try:
        slacks, rows = _max_slack_programs(scaled, pairs[:, 0], pairs[:, 1])
    except LPFailure as exc:
        a, b = (actions[k] for k in pairs[exc.program].tolist())
        raise LPFailure(f"the adjacency LP of ({a}, {b}) did not finish: {exc}") from exc
    rows.setflags(write=False)
    return slacks, rows


def _stored_belief(row: FloatArray) -> Belief:
    """A ``Belief`` around a read-only witness row of :func:`_pair_lps`."""
    belief = Belief.__new__(Belief)
    object.__setattr__(belief, "probs", row)
    return belief


def adjacency_test(problem: DecisionProblem, a: str, b: str) -> AdjacencyResult:
    """Decide whether some belief makes exactly ``{a, b}`` the optimal set.

    The reported slack is measured on utility divided by its gauge, so
    the adjacency threshold has the same meaning across problems and
    under positive rescales and per-state shifts of utility.  In
    a two-action problem the slack is vacuous and capped at 2.  The LP
    is the one :func:`adjacency_graph` solves for the pair, solved cold
    as a stack of one, so slack and witness have the graph's bits.  An LP
    that does not finish raises :class:`LPFailure` naming the pair.
    """
    ia = problem.action_index[a]
    ib = problem.action_index[b]
    if ia == ib:
        raise ValueError("adjacency needs two distinct actions")
    slacks, rows = _pair_lps(
        scale_to_utility_gauge(problem.utility), np.array([[ia, ib]]), problem.actions
    )
    slack = float(slacks[0])
    witness = None if slack == -np.inf else _stored_belief(rows[0])
    return AdjacencyResult(adjacent=slack > MIN_SLACK, slack=slack, witness=witness)


@dataclass(frozen=True, eq=False)
class AdjacencyGraph:
    """Undirected graph over the problem's actions, as read-only arrays.

    Edge ``m`` joins the actions at ``pairs[m]``, with LP slack ``slacks[m]``
    and witness ``witnesses[m]``; ``edges`` is built on first use.  The
    pairs are known when the graph is built; the private ``_solve`` gives the
    slacks and witnesses, the first time either is read, and is then
    dropped.  It may solve max-slack LPs, so that read can raise
    :class:`LPFailure`, and a later read tries again.
    """

    actions: tuple[str, ...]
    pairs: np.ndarray
    n_states: int
    _solve: Callable[[], tuple[FloatArray, FloatArray]] | None = field(repr=False)

    def __post_init__(self) -> None:
        self.pairs.setflags(write=False)

    @cached_property
    def _solved(self) -> tuple[FloatArray, FloatArray]:
        assert self._solve is not None
        slacks, witnesses = self._solve()
        for array in (slacks, witnesses):
            array.setflags(write=False)
        object.__setattr__(self, "_solve", None)  # the rows are held once, here
        return slacks, witnesses

    @property
    def slacks(self) -> FloatArray:
        return self._solved[0]

    @property
    def witnesses(self) -> FloatArray:
        return self._solved[1]

    @cached_property
    def edges(self) -> tuple[AdjacencyEdge, ...]:
        return tuple(
            AdjacencyEdge(self.actions[i], self.actions[j], s, _stored_belief(w))
            for (i, j), s, w in zip(self.pairs.tolist(), self.slacks.tolist(), self.witnesses)
        )

    @cached_property
    def index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.actions)}

    @cached_property
    def edge_index_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, np.sort(self.pairs, axis=1).tolist()))

    @cached_property
    def neighbor_indices(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in self.actions]
        for i, j in self.pairs.tolist():
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(sorted(s)) for s in adj)

    def induced(self, actions: Sequence[str]) -> "AdjacencyGraph":
        """The subgraph on ``actions`` (in that order, each once), keeping the original edges.

        Its slacks and witnesses are this graph's rows, solved on first read.
        """
        members = tuple(actions)
        position = np.full(len(self.actions), -1)
        for p, a in enumerate(members):
            if a not in self.index:
                raise ValueError(f"unknown action {a!r}")
            if position[self.index[a]] >= 0:
                raise ValueError(f"repeated action {a!r}")
            position[self.index[a]] = p
        pairs = position[self.pairs]
        rows = np.flatnonzero((pairs >= 0).all(axis=1))
        return AdjacencyGraph(
            members, pairs[rows], self.n_states, lambda: (self.slacks[rows], self.witnesses[rows])
        )

    def has_edge(self, a: str, b: str) -> bool:
        i, j = self.index[a], self.index[b]
        return (min(i, j), max(i, j)) in self.edge_index_set

    def neighbors(self, a: str) -> tuple[str, ...]:
        return tuple(self.actions[j] for j in self.neighbor_indices[self.index[a]])

    @property
    def n_edges(self) -> int:
        return self.pairs.shape[0]

    @cached_property
    def is_connected(self) -> bool:
        seen = {0} if self.actions else set()
        stack = list(seen)
        while stack:
            new = set(self.neighbor_indices[stack.pop()]) - seen
            seen |= new
            stack.extend(new)
        return len(seen) == len(self.actions)

    def to_dict(self) -> dict:
        edges = zip(self.pairs.tolist(), self.slacks.tolist(), self.witnesses.tolist())
        return {
            "nodes": list(self.actions),
            "edges": [
                {"a": self.actions[i], "b": self.actions[j], "slack": s, "witness": w}
                for (i, j), s, w in edges
            ],
        }


#: Half-width of the tie slab ``|(u_i - u_j) . p| <= SCREEN_TIE`` that the
#: non-adjacency screen covers, in the utility gauge.  It is ten times
#: HiGHS's 1e-7 primal feasibility tolerance, so every belief the LP returns
#: as tying the pair lies inside the slab.  That rests on HiGHS meeting its
#: own tolerance, not on the LP layer's result check, which accepts tie
#: residuals up to about 3e-4; a tie point further out would be an LP answer
#: outside its tolerance, and the tests check the slab against every pair's LP.
SCREEN_TIE = 1e-6

#: How far a competitor must beat the first action of a pair at every slab
#: vertex before the pair's LP is skipped.  The LP optimum is then at most
#: ``-SCREEN_MARGIN``, while an edge needs more than ``MIN_SLACK`` = 1e-7,
#: so rounding in the LP or in the vertices cannot make the pair an edge.
SCREEN_MARGIN = 1e-5

#: Most slab edge points (two per pair of states) one pair may need: a
#: few float64 arrays of this size, about 2 MB each.  When one pair's
#: ``2 k^2`` points do not fit (more than 362 states), nothing is screened
#: and every pair goes to its LP, as it would without the screen.
SCREEN_MAX_POINTS = 1 << 18

#: Slab edge points one pass of the screen holds: as many whole pairs as
#: fit, and at least one.  The arrays of a pass stay near 256 KB, so the
#: screen adds little to peak memory, and every pair of a graph with at
#: most 8 states and 256 pairs fits in one pass.
SCREEN_CHUNK_POINTS = 1 << 15


def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(i, j)`` for every pair ``i < j`` of ``n`` actions, in ``(i, j)`` order."""
    index = np.arange(n)
    return np.nonzero(index[:, None] < index)


def _screened_pairs(utility: FloatArray) -> np.ndarray:
    """Which pairs ``(i, j)``, ``i < j``, are provably not adjacent.

    The answer lists the pairs in :func:`_pair_indices` order.
    ``utility`` is divided by its utility gauge.  With ``d = u_i - u_j`` the tie
    slab is ``{p in simplex : |d . p| <= SCREEN_TIE}``.  A pair is screened
    when the slab is empty, or when one competitor ``c`` beats ``i`` by
    ``SCREEN_MARGIN`` at every vertex of the slab, and so, by convexity,
    on the whole slab and on the face the LP searches.  The vertices are
    the simplex corners inside the slab and the points of simplex edges
    where ``d . p = +-SCREEN_TIE``.  The competitor tried is the one best
    at the centroid of those vertices; any choice is sound, because the
    certificate is checked at every vertex.  All pairs of the graph go
    through one array pass, in chunks of ``SCREEN_CHUNK_POINTS`` edge
    points.
    """
    k = utility.shape[1]
    return _over_pairs(utility, _screen_chunk, 2 * k * k)


def _certified_pairs(utility: FloatArray, among: np.ndarray | None = None) -> np.ndarray:
    """Which pairs ``(i, j)``, ``i < j``, are provably adjacent, of those ``among`` marks.

    All pairs are tried without ``among``.  The screen's argument run the
    other way, on the same gauged ``utility`` and in the same kind of
    chunks.  A pair is certified when ``i`` beats every other action but
    ``j`` by ``SCREEN_MARGIN`` at some vertex of its tie face
    ``{p in simplex : d . p = 0}``: a simplex corner where ``d_s = 0``, or
    the point of a simplex edge where ``d`` changes sign.  The pair's LP
    optimum is then at least ``SCREEN_MARGIN``, far above ``MIN_SLACK``.
    A pair's tie face has at most ``k^2 / 4 + k`` vertices, each scored
    against all ``n`` actions, so that many floats are its points.
    """
    n, k = utility.shape
    return _over_pairs(utility, _certify_chunk, (k * k // 4 + k) * n, among)


def _over_pairs(
    utility: FloatArray,
    test: Callable[[FloatArray, np.ndarray, np.ndarray], np.ndarray],
    per_pair: int,
    among: np.ndarray | None = None,
) -> np.ndarray:
    """``test(utility, i, j)`` over the pairs ``among`` marks, in :func:`_pair_indices` order.

    ``among`` is a mask over all pairs, and all are tested without it.  A
    chunk holds as many whole pairs of ``per_pair`` points as fit in
    ``SCREEN_CHUNK_POINTS``, and at least one.  When one pair's points
    exceed ``SCREEN_MAX_POINTS``, no pair is tested and all are False.
    """
    first, second = _pair_indices(utility.shape[0])
    passed = np.zeros(first.size, dtype=bool)
    if per_pair > SCREEN_MAX_POINTS:
        return passed
    index = np.arange(first.size) if among is None else np.flatnonzero(among)
    step = max(1, SCREEN_CHUNK_POINTS // per_pair)
    for start in range(0, index.size, step):
        chunk = index[start : start + step]
        passed[chunk] = test(utility, first[chunk], second[chunk])
    return passed


def _screen_chunk(utility: FloatArray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """:func:`_screened_pairs` for the pairs ``(i[m], j[m])``."""
    d = -(utility[j] - utility[i])
    corner = np.abs(d) <= SCREEN_TIE
    # Edge points lam * e_s + (1 - lam) * e_t where d . p = h, one layer per
    # side h of the slab: lam = (h - d_t) / (d_s - d_t), kept if in (0, 1).
    # Both orders (s, t) and (t, s) give the same point, with lam and
    # 1 - lam, so summing lam over t alone adds each point once.
    h = np.array([SCREEN_TIE, -SCREEN_TIE]).reshape(2, 1, 1, 1)
    ds, dt = d[:, :, None], d[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (h - dt) / (ds - dt)
    outside = ~((lam > 0.0) & (lam < 1.0))
    lam[outside] = 0.0
    total = corner + lam.sum(axis=(0, 3))  # the vertex sum, a centroid up to scale
    # gain[c] . total, how far each c beats i at the centroid, as one product
    # per first action: the same product, bit for bit, as screening i alone.
    score = np.empty((i.size, utility.shape[0]))
    bounds = [0, *(np.flatnonzero(np.diff(i)) + 1).tolist(), i.size]
    for start, stop in zip(bounds, bounds[1:]):
        score[start:stop] = total[start:stop] @ (utility - utility[i[start]]).T
    pairs = np.arange(i.size)
    score[pairs, i] = -np.inf
    score[pairs, j] = -np.inf
    best = utility[np.argmax(score, axis=1)] - utility[i]  # how far it beats i
    # best . p at each edge point, best_t + lam * (best_s - best_t), in lam's place.
    at_edges = lam
    at_edges *= best[:, :, None] - best[:, None, :]
    at_edges += best[:, None, :]
    at_edges[outside] = np.inf
    at_corners = np.where(corner, best, np.inf)
    worst = np.minimum(at_corners.min(axis=1), at_edges.min(axis=(0, 2, 3)))
    empty = (d.min(axis=1) > SCREEN_TIE) | (d.max(axis=1) < -SCREEN_TIE)
    return empty | (np.isfinite(worst) & (worst >= SCREEN_MARGIN))


def _certify_chunk(utility: FloatArray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """:func:`_certified_pairs` for the pairs ``(i[m], j[m])``."""
    d = utility[i] - utility[j]
    ds, dt = d[:, :, None], d[:, None, :]
    # Each tie face vertex once: lam * e_s + (1 - lam) * e_t with d_s > 0 > d_t,
    # and the corners e_s with d_s = 0, taken as s = t and lam = 1.
    corner = np.eye(d.shape[1], dtype=bool)
    pair, s, t = np.nonzero((ds > 0.0) & (dt < 0.0) | corner & (ds == 0.0))
    d_s, d_t = d[pair, s], d[pair, t]
    with np.errstate(invalid="ignore"):  # 0 / 0 at a corner
        lam = np.where(s == t, 1.0, d_t / (d_t - d_s))
    # How far i beats each action at each vertex, gain_t + lam * (gain_s - gain_t),
    # with gain_s = u_i[s] - u[:, s]: one row per vertex.
    first = i[pair]
    at_s = (utility[first, s] - utility[:, s]).T
    lead = (utility[first, t] - utility[:, t]).T
    at_s -= lead
    at_s *= lam[:, None]
    lead += at_s
    points = np.arange(pair.size)
    lead[points, first] = np.inf
    lead[points, j[pair]] = np.inf
    certified = np.zeros(i.size, dtype=bool)
    certified[pair[lead.min(axis=1, initial=np.inf) >= SCREEN_MARGIN]] = True
    return certified


def adjacency_graph(problem: DecisionProblem) -> AdjacencyGraph:
    """Run the pairwise adjacency test over every action pair.

    The utility is divided by its utility gauge.  One pass of
    :func:`_screened_pairs` over all pairs proves some of them
    non-adjacent, and they are skipped; one pass of
    :func:`_certified_pairs` over the rest proves others adjacent.  Every
    other pair's LP, the one :func:`adjacency_test` solves, goes to
    :func:`_pair_lps` in ``(i, j)`` order; the first that does not finish
    raises :class:`LPFailure`.  A screened pair's LP is infeasible or its optimum
    is at most ``-SCREEN_MARGIN``, and a certified pair's is at least
    ``SCREEN_MARGIN``, so the edges and their order are exactly those of
    testing every pair.  The certified edges' LPs run later, as one
    :func:`_pair_lps` call in ``(i, j)`` order, the first time the graph's
    ``slacks``, ``witnesses``, ``edges`` or ``to_dict`` is read; their
    slacks and witnesses are then those of testing every pair, and that
    read raises :class:`LPFailure` if one of them does not finish.
    """
    scaled = scale_to_utility_gauge(problem.utility)
    pairs = np.stack(_pair_indices(problem.n_actions), axis=1)
    screened = _screened_pairs(scaled)
    certified = _certified_pairs(scaled, ~screened)
    tested = ~(screened | certified)
    slacks, rows = _pair_lps(scaled, pairs[tested], problem.actions)
    found = slacks > MIN_SLACK  # an infeasible pair has slack -inf and no solution
    edge = certified.copy()
    edge[tested] = found
    deferred, later = certified[edge], pairs[certified]
    slacks, rows = slacks[found], rows[found]

    def solve() -> tuple[FloatArray, FloatArray]:
        # Only what the deferred LPs need is held; the gauge is divided again.
        edge_slacks = np.empty(deferred.size)
        edge_rows = np.empty((deferred.size, problem.n_states))
        edge_slacks[~deferred], edge_rows[~deferred] = slacks, rows
        edge_slacks[deferred], edge_rows[deferred] = _pair_lps(
            scale_to_utility_gauge(problem.utility), later, problem.actions
        )
        return edge_slacks, edge_rows

    return AdjacencyGraph(problem.actions, pairs[edge], problem.n_states, solve)


def _problem_graph(problem: DecisionProblem, graph: AdjacencyGraph | None) -> AdjacencyGraph:
    """``graph``, or ``problem``'s graph when it is None; another problem's raises ``ValueError``.

    Only actions and states are compared: payoffs need the graph rebuilt.
    """
    if graph is None:
        return adjacency_graph(problem)
    if graph.actions != problem.actions or graph.n_states != problem.n_states:
        raise ValueError("the graph given is another problem's: its actions or states differ")
    return graph


# ---------------------------------------------------------------------------
# Graph classification


@dataclass(frozen=True)
class GraphClass:
    connected: bool
    tree: bool
    complete: bool
    product_consistent: bool

    @property
    def kind(self) -> str:
        if not self.connected:
            return "disconnected"
        if self.tree:
            return "tree"
        if self.complete:
            return "complete"
        if self.product_consistent:
            return "product"
        return "general"


def _product_consistent(graph: AdjacencyGraph, product: ProductStructure) -> bool:
    coords = product.action_coord_array
    ends = np.stack([coords[graph.pairs[:, 0]], coords[graph.pairs[:, 1]]])
    differs = ends[0] != ends[1]
    if (differs.sum(axis=1) != 1).any():
        return False
    # Each within-task adjacency must lift across every completion of the
    # remaining coordinates: it needs one edge per completion.
    task = differs.argmax(axis=1)
    values = np.sort(ends[:, np.arange(task.size), task], axis=0)
    lifts, counts = np.unique(np.vstack([task, values]), axis=1, return_counts=True)
    sizes = np.array([t.n_actions for t in product.tasks])
    return bool((counts == len(graph.actions) // sizes[lifts[0]]).all())


def classify_graph(
    graph: AdjacencyGraph, product: ProductStructure | None = None
) -> GraphClass:
    n = len(graph.actions)
    connected = graph.is_connected
    tree = connected and graph.n_edges == n - 1
    complete = graph.n_edges == n * (n - 1) // 2
    product_ok = product is not None and graph.n_edges > 0 and _product_consistent(graph, product)
    return GraphClass(
        connected=connected, tree=tree, complete=complete, product_consistent=product_ok
    )


# ---------------------------------------------------------------------------
# Splitting collections (biconnected blocks)


@dataclass(frozen=True)
class SplittingCollection:
    """Biconnected blocks of the adjacency graph, overlapping at cut vertices."""

    parts: tuple[tuple[str, ...], ...]
    cut_vertices: tuple[str, ...]


def splitting_collection(graph: AdjacencyGraph) -> SplittingCollection:
    """Decompose a connected adjacency graph into biconnected blocks.

    Each edge lands in exactly one block and neighboring blocks share a
    single cut vertex, which is exactly the overlap structure that the
    piecewise construction stitches along.
    """
    if not graph.is_connected:
        raise ValueError("splitting collections require a connected adjacency graph")
    n = len(graph.actions)
    adj = graph.neighbor_indices
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    edge_stack: list[tuple[int, int]] = []
    blocks: list[set[int]] = []
    cuts: set[int] = set()
    timer = 0

    for root in range(n):
        if disc[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        while work:
            v, ptr = work[-1]
            if ptr < len(adj[v]):
                work[-1] = (v, ptr + 1)
                w = adj[v][ptr]
                if disc[w] == -1:
                    parent[w] = v
                    if v == root:
                        root_children += 1
                    disc[w] = low[w] = timer
                    timer += 1
                    edge_stack.append((v, w))
                    work.append((w, 0))
                elif w != parent[v] and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                work.pop()
                if not work:
                    continue
                u = work[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    block: set[int] = set()
                    while edge_stack:
                        x, y = edge_stack.pop()
                        block.add(x)
                        block.add(y)
                        if (x, y) == (u, v):
                            break
                    if block:
                        blocks.append(block)
                    if u != root or root_children > 1:
                        cuts.add(u)

    parts = tuple(
        tuple(graph.actions[i] for i in sorted(block)) for block in blocks
    )
    cut_labels = tuple(graph.actions[i] for i in sorted(cuts))
    return SplittingCollection(parts=parts, cut_vertices=cut_labels)


# ---------------------------------------------------------------------------
# Cycles


@dataclass(frozen=True)
class CycleSet:
    cycles: tuple[tuple[str, ...], ...]
    truncated: bool


def enumerate_cycles(
    graph: AdjacencyGraph,
    max_len: int | None = None,
    cap: int = CYCLE_CAP,
) -> CycleSet:
    """Enumerate simple cycles up to ``max_len`` vertices, canonically.

    Each cycle is reported once, starting from its smallest vertex index
    with the smaller of its two neighbors second.  Enumeration stops
    (and the result is flagged truncated) once ``cap`` cycles are found.
    """
    n = len(graph.actions)
    limit = max_len if max_len is not None else n
    adj = graph.neighbor_indices
    cycles: list[tuple[str, ...]] = []
    truncated = False
    for start in range(n):
        if truncated:
            break
        path = [start]
        on_path = [False] * n
        on_path[start] = True
        # stack of neighbor iters restricted to indices >= start; the
        # start vertex stays visible so the closing edge can be taken
        iters = [iter([w for w in adj[start] if w >= start])]
        while iters:
            found = None
            for w in iters[-1]:
                if w == start and len(path) >= 3:
                    if path[1] < path[-1]:
                        cycles.append(tuple(graph.actions[i] for i in path))
                        if len(cycles) >= cap:
                            truncated = True
                    continue
                if w > start and not on_path[w] and len(path) < limit:
                    found = w
                    break
            if truncated:
                break
            if found is None:
                dead = path.pop()
                on_path[dead] = False
                iters.pop()
            else:
                path.append(found)
                on_path[found] = True
                iters.append(iter([w for w in adj[found] if w >= start]))
    return CycleSet(cycles=tuple(cycles), truncated=truncated)


def _cycle_deltas(problem: DecisionProblem, cycle: Sequence[str]) -> FloatArray:
    """Mean-removed payoff differences of the cycle's vertices against its first."""
    u = problem.utility[[problem.action_index[a] for a in cycle]]
    return project_rows(u[1:] - u[0])


def internal_independence(problem: DecisionProblem, cycle: Sequence[str]) -> bool:
    """Whether a cycle's payoff-difference vectors are linearly independent.

    A cycle through ``n`` actions contributes ``n - 1`` difference
    vectors against its base vertex; independence does not depend on
    which vertex is used as the base.
    """
    verts = tuple(cycle)
    if len(verts) < 3:
        raise ValueError("a cycle needs at least three vertices")
    if len(set(verts)) != len(verts):
        raise ValueError("cycle vertices must be distinct")
    deltas = _cycle_deltas(problem, verts)
    return numerical_rank(deltas) == len(verts) - 1


@dataclass(frozen=True)
class CycleRichResult:
    """Outcome of the cycle-richness test on an action subset.

    ``rich`` is None when the test declined to run (subset too large).
    Each witness records a proper subset together with the outside
    action whose cycle spans intersect only at the origin; an empty
    action string marks a subset certified only by pooling the cycles
    of every outside action, the weaker form of the condition.
    """

    status: str
    rich: bool | None
    witnesses: tuple[tuple[tuple[str, ...], str], ...] = ()
    failing_subset: tuple[str, ...] | None = None


def cycle_rich(
    problem: DecisionProblem,
    subset: Sequence[str],
    graph: AdjacencyGraph | None = None,
) -> CycleRichResult:
    """Test whether an action subset is rich in independent cycles.

    For every proper subset with at least three actions, some outside
    action must sit on enough internally independent cycles (each
    meeting the subset in two or more actions) that the spans of their
    payoff differences intersect only in the zero vector.  Subsets of
    more than ``CYCLE_RICH_MAX_SET`` actions are declined.  A ``graph``
    passed in that is another problem's raises ``ValueError``.
    """
    members = tuple(subset)
    if len(set(members)) != len(members):
        raise ValueError("subset contains duplicate actions")
    if len(members) < 4:
        raise ValueError("cycle-richness needs at least four actions")
    if len(members) > CYCLE_RICH_MAX_SET:
        return CycleRichResult(status="unknown (size)", rich=None)
    graph = _problem_graph(problem, graph)

    max_len = min(problem.n_states, len(members))
    cycles = enumerate_cycles(graph.induced(members), max_len=max_len).cycles
    k = problem.n_states
    deltas = [_cycle_deltas(problem, cycle) for cycle in cycles]
    independent = [
        c for c, rank in enumerate(_stacked_ranks(deltas)) if rank == len(cycles[c]) - 1
    ]
    # The complement of each independent cycle's span, one SVD per cycle length.
    by_cycle: dict[int, FloatArray] = {}
    for length in {len(cycles[c]) for c in independent}:
        same = [c for c in independent if len(cycles[c]) == length]
        by_cycle.update(zip(same, nullspaces(np.stack([deltas[c] for c in same]))))
    complements = [by_cycle[c] for c in independent]
    on_cycle = np.array(
        [[a in cycles[c] for a in members] for c in independent], dtype=bool
    ).reshape(-1, len(members))

    n = len(members)
    masks = [mask for mask in range(1, 1 << n) if 3 <= mask.bit_count() < n]
    witnesses: list[tuple[tuple[str, ...], str]] = []
    for mask in masks:
        found = _rich_witness(mask, on_cycle, complements, k)
        chosen = tuple(sorted(members[b] for b in range(n) if mask >> b & 1))
        if found is None:
            return CycleRichResult(
                status="not-rich",
                rich=False,
                witnesses=tuple(witnesses),
                failing_subset=chosen,
            )
        witnesses.append((chosen, "" if found < 0 else members[found]))
    return CycleRichResult(status="cycle-rich", rich=True, witnesses=tuple(witnesses))


def _rich_witness(
    mask: int, on_cycle: np.ndarray, complements: Sequence[FloatArray], k: int
) -> int | None:
    """The first outside action certifying the subset ``mask``, or -1 or None.

    ``on_cycle[c, a]`` says whether action ``a`` lies on independent cycle
    ``c``, whose span's complement is ``complements[c]``.  An outside
    action certifies the subset when the complements of its cycles that
    meet the subset in two or more actions stack to rank ``k``.  When none
    does, the stacks of every outside action, pooled in action order, may
    still reach rank ``k`` (-1): single outside actions can fall short
    when the subset misses an internal edge, yet the combined cycle family
    still pins the spans down to the origin.  Otherwise the subset fails
    (None).  The outside actions' stacks take one stacked SVD call.
    """
    inside = (mask >> np.arange(on_cycle.shape[1])) & 1 == 1
    meets = on_cycle[:, inside].sum(axis=1) >= 2
    stacks: list[FloatArray] = []
    owners: list[int] = []
    for a in np.flatnonzero(~inside):
        chosen = np.flatnonzero(meets & on_cycle[:, a])
        if chosen.size:
            stacks.append(np.concatenate([complements[c] for c in chosen]))
            owners.append(int(a))
    for a, rank in zip(owners, _stacked_ranks(stacks)):
        if rank == k:
            return a
    if stacks and numerical_rank(np.concatenate(stacks)) == k:
        return -1
    return None


def _stacked_ranks(matrices: Sequence[FloatArray]) -> np.ndarray:
    """``numerical_rank`` of each matrix, all of ``k`` columns, one SVD call per stack.

    Matrices go shortest first into stacks of at most ``STACK_FLOATS``
    floats (or one matrix), each zero-padded to the tallest of its stack:
    zero rows add only zero singular values and leave the cutoff as it
    is, so they change no rank.
    """
    ranks = np.zeros(len(matrices), dtype=np.int64)
    order = sorted(range(len(matrices)), key=lambda i: matrices[i].shape[0])
    start = 0
    while start < len(order):
        width = matrices[order[start]].shape[1]
        stop = start + 1
        while stop < len(order) and (
            (stop + 1 - start) * matrices[order[stop]].shape[0] * width <= STACK_FLOATS
        ):
            stop += 1
        chosen = order[start:stop]
        stack = np.zeros((len(chosen), matrices[chosen[-1]].shape[0], width))
        for slot, i in enumerate(chosen):
            stack[slot, : matrices[i].shape[0]] = matrices[i]
        ranks[chosen] = numerical_rank(stack)
        start = stop
    return ranks
