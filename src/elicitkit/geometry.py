"""Belief-space geometry: optimal actions, adjacency, cycles.

Two actions are adjacent when some belief makes exactly that pair
optimal, with strictly positive slack over every other action.  The
resulting adjacency graph drives everything downstream: its shape picks
the characterization theorem to apply, its biconnected blocks form the
splitting collection for piecewise constructions, and its cycles feed
the cycle-based necessity test.

Building the graph takes one max-slack LP per action pair, except for
pairs a cheap certificate proves non-adjacent: either no belief comes
close to tying the two actions, or a single third action beats the
first of them by a fixed margin near every tie.  Such a pair's LP could
only have confirmed the non-edge, so the graph is the one the LPs alone
would give, bit for bit.  The certificate's working set is bounded, and
problems with too many states for it skip it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ._numerics import (
    MIN_SLACK,
    FloatArray,
    max_slack_lp,
    orthonormal_complement,
    project_rows,
    row_reduce_rank,
    scale_unit_max_abs,
)
from .model import DecisionProblem, ProductStructure

#: Default relative tolerance when collecting optimal actions.
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

    def __len__(self) -> int:
        return self.probs.size


def _belief_array(belief: Belief | Iterable[float]) -> FloatArray:
    if isinstance(belief, Belief):
        return belief.probs
    return np.asarray(list(belief), dtype=np.float64)


def optimal_actions(
    problem: DecisionProblem,
    belief: Belief | Iterable[float],
    tol: float = OPTIMAL_ACTIONS_RTOL,
) -> tuple[str, ...]:
    """All actions within relative tolerance of the best expected payoff."""
    p = _belief_array(belief)
    values = problem.utility @ p
    best = float(values.max())
    band = tol * (1.0 + abs(best))
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


def adjacency_test(problem: DecisionProblem, a: str, b: str) -> AdjacencyResult:
    """Decide whether some belief makes exactly ``{a, b}`` the optimal set.

    The reported slack is measured on utilities scaled to unit max-abs,
    so the adjacency threshold has the same meaning across problems.  In
    a two-action problem the slack is vacuous and capped at 2.
    """
    ia = problem.action_index[a]
    ib = problem.action_index[b]
    if ia == ib:
        raise ValueError("adjacency needs two distinct actions")
    slack, raw = max_slack_lp(scale_unit_max_abs(problem.utility), ia, tie_with=ib)
    if raw is None:
        return AdjacencyResult(adjacent=False, slack=slack, witness=None)
    return AdjacencyResult(
        adjacent=slack > MIN_SLACK, slack=slack, witness=Belief.from_array(raw)
    )


@dataclass(frozen=True, eq=False)
class AdjacencyGraph:
    """Undirected graph over the problem's actions."""

    actions: tuple[str, ...]
    edges: tuple[AdjacencyEdge, ...]

    @cached_property
    def index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.actions)}

    @cached_property
    def edge_index_set(self) -> frozenset[tuple[int, int]]:
        pairs = set()
        for e in self.edges:
            i, j = self.index[e.a], self.index[e.b]
            pairs.add((min(i, j), max(i, j)))
        return frozenset(pairs)

    @cached_property
    def neighbor_indices(self) -> tuple[tuple[int, ...], ...]:
        adj: list[set[int]] = [set() for _ in self.actions]
        for i, j in self.edge_index_set:
            adj[i].add(j)
            adj[j].add(i)
        return tuple(tuple(sorted(s)) for s in adj)

    def induced(self, actions: Sequence[str]) -> "AdjacencyGraph":
        """The subgraph on ``actions`` (in that order), keeping the original edges."""
        keep = set(actions)
        return AdjacencyGraph(
            actions=tuple(actions),
            edges=tuple(e for e in self.edges if e.a in keep and e.b in keep),
        )

    def has_edge(self, a: str, b: str) -> bool:
        i, j = self.index[a], self.index[b]
        return (min(i, j), max(i, j)) in self.edge_index_set

    def neighbors(self, a: str) -> tuple[str, ...]:
        return tuple(self.actions[j] for j in self.neighbor_indices[self.index[a]])

    @property
    def n_edges(self) -> int:
        return len(self.edge_index_set)

    @cached_property
    def is_connected(self) -> bool:
        n = len(self.actions)
        if n == 0:
            return True
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for w in self.neighbor_indices[v]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == n

    def to_dict(self) -> dict:
        return {
            "nodes": list(self.actions),
            "edges": [
                {"a": e.a, "b": e.b, "slack": e.slack, "witness": e.witness.probs}
                for e in self.edges
            ],
        }


#: Half-width of the tie slab ``|(u_i - u_j) . p| <= SCREEN_TIE`` that the
#: non-adjacency screen covers, in the unit max-abs gauge.  It is ten times
#: HiGHS's 1e-7 primal feasibility tolerance, so every belief the LP returns
#: as tying the pair lies inside the slab.  That rests on HiGHS meeting its
#: own tolerance, not on ``max_slack_lp``'s result check, which accepts tie
#: residuals up to about 3e-4; a tie point further out would be an LP answer
#: outside its tolerance, and the tests check the slab against every pair's LP.
SCREEN_TIE = 1e-6

#: How far a competitor must beat the first action of a pair at every slab
#: vertex before the pair's LP is skipped.  The LP optimum is then at most
#: ``-SCREEN_MARGIN``, while an edge needs more than ``MIN_SLACK`` = 1e-7,
#: so rounding in the LP or in the vertices cannot make the pair an edge.
SCREEN_MARGIN = 1e-5

#: Most slab edge points (two per pair of states, per pair screened) the
#: screen holds at once: a few float64 arrays of this size, about 2 MB
#: each.  Pairs are screened in chunks that fit; when one pair's ``2 k^2``
#: points do not fit (more than 362 states), nothing is screened and every
#: pair goes to its LP, as it would without the screen.
SCREEN_MAX_POINTS = 1 << 18


def _screened_pairs(utility: FloatArray, i: int) -> np.ndarray:
    """Which pairs ``(i, j)``, ``j > i``, are provably not adjacent.

    ``utility`` is scaled to unit max-abs.  With ``d = u_i - u_j`` the tie
    slab is ``{p in simplex : |d . p| <= SCREEN_TIE}``.  A pair is screened
    when the slab is empty, or when one competitor ``c`` beats ``i`` by
    ``SCREEN_MARGIN`` at every vertex of the slab, and so, by convexity,
    on the whole slab and on the face the LP searches.  The vertices are
    the simplex corners inside the slab and the points of simplex edges
    where ``d . p = +-SCREEN_TIE``.  The competitor tried is the one best
    at the centroid of those vertices; any choice is sound, because the
    certificate is checked at every vertex.  Each chunk of pairs holds at
    most ``SCREEN_MAX_POINTS`` edge points.
    """
    n, k = utility.shape
    screened = np.zeros(n - i - 1, dtype=bool)
    per_pair = 2 * k * k
    if per_pair > SCREEN_MAX_POINTS:
        return screened
    gain = utility - utility[i]  # gain[c] . p: how far c beats i at p
    step = SCREEN_MAX_POINTS // per_pair
    for start in range(i + 1, n, step):
        stop = min(start + step, n)
        screened[start - i - 1 : stop - i - 1] = _screen_chunk(gain, i, start, stop)
    return screened


def _screen_chunk(gain: FloatArray, i: int, start: int, stop: int) -> np.ndarray:
    """:func:`_screened_pairs` for the pairs ``(i, j)``, ``start <= j < stop``."""
    d = -gain[start:stop]
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
    np.copyto(lam, 0.0, where=outside)
    total = corner + lam.sum(axis=(0, 3))  # the vertex sum, a centroid up to scale
    score = total @ gain.T
    score[:, i] = -np.inf
    score[np.arange(stop - start), np.arange(start, stop)] = -np.inf
    best = gain[np.argmax(score, axis=1)]
    # best . p at each edge point, best_t + lam * (best_s - best_t), in lam's place.
    at_edges = lam
    at_edges *= best[:, :, None] - best[:, None, :]
    at_edges += best[:, None, :]
    np.copyto(at_edges, np.inf, where=outside)
    at_corners = np.where(corner, best, np.inf)
    worst = np.minimum(at_corners.min(axis=1), at_edges.min(axis=(0, 2, 3)))
    empty = (d.min(axis=1) > SCREEN_TIE) | (d.max(axis=1) < -SCREEN_TIE)
    return empty | (np.isfinite(worst) & (worst >= SCREEN_MARGIN))


def adjacency_graph(problem: DecisionProblem) -> AdjacencyGraph:
    """Run the pairwise adjacency test over every action pair.

    Pairs that :func:`_screened_pairs` proves non-adjacent are skipped;
    every other pair goes through :func:`adjacency_test` in ``(i, j)``
    order.  A skipped pair's LP is infeasible or its optimum is at most
    ``-SCREEN_MARGIN``, so it could never have been an edge, and the
    edges, their order, slacks and witnesses are exactly those of testing
    every pair.
    """
    scaled = scale_unit_max_abs(problem.utility)
    edges = []
    for i in range(problem.n_actions):
        screened = _screened_pairs(scaled, i)
        for j in range(i + 1, problem.n_actions):
            if screened[j - i - 1]:
                continue
            result = adjacency_test(problem, problem.actions[i], problem.actions[j])
            if result.adjacent:
                assert result.witness is not None
                edges.append(
                    AdjacencyEdge(
                        a=problem.actions[i],
                        b=problem.actions[j],
                        slack=result.slack,
                        witness=result.witness,
                    )
                )
    return AdjacencyGraph(actions=problem.actions, edges=tuple(edges))


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
    label_of = {tuple(coords[i]): i for i in range(len(graph.actions))}
    within: list[set[tuple[int, int]]] = [set() for _ in product.tasks]
    for i, j in graph.edge_index_set:
        diff = [t for t in range(product.n_tasks) if coords[i, t] != coords[j, t]]
        if len(diff) != 1:
            return False
        t = diff[0]
        pair = (min(coords[i, t], coords[j, t]), max(coords[i, t], coords[j, t]))
        within[t].add(pair)
    # Each within-task adjacency must lift across every completion of the
    # remaining coordinates.
    for t, pairs in enumerate(within):
        for x, y in pairs:
            for g in range(len(graph.actions)):
                if coords[g, t] != x:
                    continue
                other = coords[g].copy()
                other[t] = y
                h = label_of[tuple(other)]
                if (min(g, h), max(g, h)) not in graph.edge_index_set:
                    return False
    return True


def classify_graph(
    graph: AdjacencyGraph, product: ProductStructure | None = None
) -> GraphClass:
    n = len(graph.actions)
    connected = graph.is_connected
    tree = connected and graph.n_edges == n - 1
    complete = graph.n_edges == n * (n - 1) // 2
    product_ok = False
    if product is not None and graph.n_edges > 0:
        product_ok = _product_consistent(graph, product)
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
    base = problem.action_index[cycle[0]]
    rows = []
    for label in cycle[1:]:
        idx = problem.action_index[label]
        rows.append(problem.utility[idx] - problem.utility[base])
    return project_rows(np.asarray(rows))


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
    return row_reduce_rank(deltas) == len(verts) - 1


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
    max_size: int = CYCLE_RICH_MAX_SET,
    cap: int = CYCLE_CAP,
) -> CycleRichResult:
    """Test whether an action subset is rich in independent cycles.

    For every proper subset with at least three actions, some outside
    action must sit on enough internally independent cycles (each
    meeting the subset in two or more actions) that the spans of their
    payoff differences intersect only in the zero vector.
    """
    members = tuple(subset)
    if len(set(members)) != len(members):
        raise ValueError("subset contains duplicate actions")
    if len(members) < 4:
        raise ValueError("cycle-richness needs at least four actions")
    if len(members) > max_size:
        return CycleRichResult(status="unknown (size)", rich=None)
    if graph is None:
        graph = adjacency_graph(problem)

    induced = graph.induced(members)

    max_len = min(problem.n_states, len(members))
    cycle_set = enumerate_cycles(induced, max_len=max_len, cap=cap)
    independent: list[tuple[frozenset[str], FloatArray]] = []
    for cycle in cycle_set.cycles:
        if internal_independence(problem, cycle):
            deltas = _cycle_deltas(problem, cycle)
            complement = orthonormal_complement(deltas, problem.n_states)
            independent.append((frozenset(cycle), complement))

    witnesses: list[tuple[tuple[str, ...], str]] = []
    n = len(members)
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size < 3 or size >= n:
            continue
        chosen = frozenset(members[k] for k in range(n) if mask >> k & 1)
        found = None
        pooled: list[FloatArray] = []
        for a in members:
            if a in chosen:
                continue
            stacked = [
                comp
                for verts, comp in independent
                if a in verts and len(verts & chosen) >= 2
            ]
            pooled.extend(stacked)
            if not stacked:
                continue
            if row_reduce_rank(np.vstack(stacked)) == problem.n_states:
                found = a
                break
        if found is None:
            # Pool the cycles of every outside action.  Single outside
            # actions can fall short when the subset misses an internal
            # edge, yet the combined cycle family still pins the spans
            # down to the origin.
            if pooled and row_reduce_rank(np.vstack(pooled)) == problem.n_states:
                found = ""
            else:
                return CycleRichResult(
                    status="not-rich",
                    rich=False,
                    witnesses=tuple(witnesses),
                    failing_subset=tuple(sorted(chosen)),
                )
        witnesses.append((tuple(sorted(chosen)), found))
    return CycleRichResult(status="cycle-rich", rich=True, witnesses=tuple(witnesses))
