"""Spans around calls into elicitkit's public functions, recorded from outside the program.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the name
in every ``elicitkit`` module whose namespace holds that function (the
defining module included, so calls inside a module are traced too);
``restore`` puts the originals back.  A wrapper records a span only while
an operation is open, so code between operations runs untraced.

A span is (name, start, end, parent span, operation).  Spans live in
compact in-memory columns and are written out once, after the run.
A span's self time is its duration minus the durations of its child
spans; each operation is a root span, so the self times of all spans of
an operation add up to its wall time, and the root's own self time is
the remainder that no traced function covers.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np


def _observe_lp(tracer: "Tracer", bound: dict[str, Any], result: Any) -> None:
    utility = np.ascontiguousarray(bound["utility"])
    key = hash((utility.shape, utility.tobytes(), bound["target"], bound.get("tie_with")))
    if key in tracer.lp_seen:
        tracer.count("lp_repeats")
    tracer.lp_seen.add(key)


def _observe_verdict(tracer: "Tracer", bound: dict[str, Any], result: Any) -> None:
    tracer.count(f"verdict.{result.status}")


def _observe(counter: str, value: Callable[[Any], float]) -> Callable[["Tracer", dict[str, Any], Any], None]:
    def observe(tracer: "Tracer", bound: dict[str, Any], result: Any) -> None:
        tracer.count(counter, value(result))

    return observe


#: (module, function, observer): the functions whose calls become spans.
#: An observer sees the bound arguments and the result of each call.
TRACED: tuple[tuple[str, str, Callable[..., None] | None], ...] = (
    ("_numerics", "max_slack_lp", _observe_lp),
    ("geometry", "adjacency_graph", _observe("edges", lambda g: len(g.edges))),
    ("geometry", "adjacency_test", _observe("adjacent", lambda r: int(r.adjacent))),
    ("geometry", "cycle_rich", None),
    ("geometry", "enumerate_cycles", None),
    ("geometry", "splitting_collection", None),
    ("geometry", "optimal_actions", None),
    ("alignment", "decide_incentivizable", _observe_verdict),
    ("alignment", "pairwise_alignment", None),
    ("alignment", "piecewise_alignment", None),
    ("alignment", "weighted_alignment", None),
    ("synth", "synthesize", None),
    ("synth", "load_method", None),
    ("verify", "belief_grid", _observe("grid_rows", lambda a: a.shape[0])),
    ("verify", "dirichlet_sample", None),
    ("verify", "boundary_beliefs", None),
    ("verify", "verify_incentivizability", _observe("beliefs_checked", lambda r: r.checked)),
    ("verify", "find_distortion_witness", _observe("witness_found", lambda w: int(w is not None))),
    ("model", "canonical_dumps", _observe("bytes_out", len)),
    ("model", "load_bundle", None),
    ("cli", "main", None),
)

OP = "op"


class Tracer:
    """Records spans and counters for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = [OP]
        self.name_col = array("i")
        self.parent_col = array("i")
        self.op_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.op_block: list[int] = []
        self.counters: Counter[tuple[int, str]] = Counter()
        self.lp_seen: set[int] = set()
        self._stack: list[int] = []
        self._op = -1
        self._block = -1
        self._patches: list[tuple[Any, str, Any]] = []

    def count(self, counter: str, value: float = 1) -> None:
        self.counters[(self._block, counter)] += value

    def install(self) -> None:
        """Rebind every traced name in every loaded elicitkit module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "elicitkit" or n.startswith("elicitkit.")]
        for module_name, func_name, observe in TRACED:
            original = getattr(sys.modules[f"elicitkit.{module_name}"], func_name)
            # span names are metric names, which must start with a letter
            wrapper = self._wrap(f"{module_name.lstrip('_')}.{func_name}", original, observe)
            for module in modules:
                if module.__dict__.get(func_name) is original:
                    self._patches.append((module, func_name, original))
                    setattr(module, func_name, wrapper)

    def restore(self) -> None:
        for module, func_name, original in reversed(self._patches):
            setattr(module, func_name, original)
        self._patches.clear()

    def _open(self, name_id: int) -> int:
        index = len(self.name_col)
        self.name_col.append(name_id)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.op_col.append(self._op)
        self.start_col.append(0)
        self.end_col.append(0)
        self._stack.append(index)
        self.start_col[index] = time.perf_counter_ns()
        return index

    def _close(self, index: int) -> None:
        self.end_col[index] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, func: Callable[..., Any], observe: Any) -> Callable[..., Any]:
        self.names.append(name)
        name_id = len(self.names) - 1
        signature = inspect.signature(func)

        def traced(*args: Any, **kwargs: Any) -> Any:
            if self._op < 0:
                return func(*args, **kwargs)
            index = self._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def operation(self, block: int) -> Iterator[None]:
        """A root span around one operation; spans are recorded only inside one."""
        self._op = len(self.op_block)
        self._block = block
        self.op_block.append(block)
        self.lp_seen = set()
        index = self._open(0)
        try:
            yield
        finally:
            self._close(index)
            self._op = -1

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent_col, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_col, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start_col, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end_col, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), op_block=np.array(self.op_block), **self.spans())


def span_times(tracer: Tracer) -> dict[str, np.ndarray]:
    """Per-span duration, self time and whether an ancestor has the same name."""
    s = tracer.spans()
    duration = s["end_ns"] - s["start_ns"]
    children = np.zeros_like(duration)
    has_parent = s["parent"] >= 0
    np.add.at(children, s["parent"][has_parent], duration[has_parent])
    nested = np.zeros(duration.shape, dtype=bool)
    ancestor = s["parent"].copy()
    while True:
        live = ancestor >= 0
        if not live.any():
            break
        nested[live] |= s["name"][ancestor[live]] == s["name"][live]
        ancestor[live] = s["parent"][ancestor[live]]
    return {**s, "duration": duration, "self": duration - children, "nested": nested}


def layer_totals(tracer: Tracer, blocks: int) -> tuple[dict[str, dict[str, float]], dict[int, dict[str, float]]]:
    """Per-name totals per block, and the exact per-block counts.

    Returns ``(layers, exact)``: ``layers[name]`` holds ``calls``,
    ``busy_s`` (time inside the outermost span of that name) and
    ``self_s``, each divided by ``blocks``; ``exact[block]`` holds the
    counts that must repeat exactly at one seed.
    """
    t = span_times(tracer)
    op_block = np.asarray(tracer.op_block, dtype=np.int64)
    span_block = op_block[t["op"]]
    layers: dict[str, dict[str, float]] = {}
    for name_id, name in enumerate(tracer.names):
        mine = t["name"] == name_id
        outer = mine & ~t["nested"]
        layers[name] = {
            "calls": float(mine.sum()) / blocks,
            "busy_s": float(t["duration"][outer].sum()) / 1e9 / blocks,
            "self_s": float(t["self"][mine].sum()) / 1e9 / blocks,
        }
    per_op_self = np.bincount(t["op"], weights=t["self"], minlength=len(op_block))
    roots = t["name"] == 0
    if not np.array_equal(per_op_self[t["op"][roots]].astype(np.int64), t["duration"][roots]):
        raise AssertionError("span self times do not add up to operation wall times")
    exact: dict[int, dict[str, float]] = {}
    watched = {tracer.names.index(n): n for n in ("numerics.max_slack_lp", "geometry.adjacency_test")}
    for block in sorted(set(tracer.op_block)):
        in_block = span_block == block
        entry = {f"{n}.calls": int((t["name"][in_block] == i).sum()) for i, n in watched.items()}
        for (b, counter), value in sorted(tracer.counters.items()):
            if b == block and (counter.startswith("verdict.") or counter == "beliefs_checked"):
                entry[counter] = value
        exact[block] = entry
    return layers, exact
