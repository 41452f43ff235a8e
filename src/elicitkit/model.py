"""Core data model: decision problems, question profiles, bundles.

A :class:`DecisionProblem` is a finite menu of actions scored against a
finite set of states.  A :class:`QuestionProfile` attaches one real
number per (action, state) pair; the agent is asked for the expected
value of the row belonging to whichever action it picks.  Bundles tie
the two together with an optional product structure (multi-task
problems) and the stake-mixing weight ``alpha``, and serialize to a
canonical JSON form that is byte-stable under load/save round trips.
"""

from __future__ import annotations

import itertools
import json
import math
from argparse import ArgumentTypeError
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ._numerics import (
    MIN_SLACK,
    FloatArray,
    LPFailure,
    _max_slack_programs,
    as_float_matrix,
    scale_to_utility_gauge,
)

BUNDLE_SCHEMA = "elicitkit-bundle-v1"

#: Hard ceiling on the number of global states or actions a product
#: expansion may produce.
PRODUCT_EXPANSION_CAP = 4096

#: Relative tolerance of the validation checks.
VALIDATE_RTOL = 1e-9


class ElicitkitError(Exception):
    """Base class for package-specific failures."""


class BundleFormatError(ElicitkitError):
    """A bundle or mechanism file is malformed or inconsistent."""


class TooLargeError(ElicitkitError):
    """An enumeration or expansion exceeds its configured cap."""


# ---------------------------------------------------------------------------
# Canonical JSON


def _emit(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(repr(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            raise ValueError("non-finite float in canonical JSON")
        if value == 0.0:
            # JSON readers fold -0 into 0, so pick the stable sign up front
            value = 0.0
        out.append(format(value, ".17g"))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out)
    elif isinstance(obj, Mapping):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"canonical JSON keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(_quote(key))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_dumps(obj: Any) -> str:
    """Serialize to canonical JSON: sorted keys, 17-significant-digit floats.

    The output is newline-terminated and contains no insignificant
    whitespace, so equal payloads always produce identical bytes.
    """
    out: list[str] = []
    _emit(obj, out)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Data types


def _check_labels(labels: Sequence[str], what: str) -> tuple[str, ...]:
    result = tuple(str(x) for x in labels)
    if len(result) < 2:
        raise ValueError(f"need at least two {what}, got {len(result)}")
    if len(set(result)) != len(result):
        raise ValueError(f"duplicate {what} labels")
    return result


@dataclass(frozen=True, eq=False)
class DecisionProblem:
    """A finite decision problem: actions scored against states.

    ``utility`` has one row per action and one column per state.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    utility: FloatArray

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", _check_labels(self.states, "state"))
        object.__setattr__(self, "actions", _check_labels(self.actions, "action"))
        matrix = as_float_matrix(self.utility)
        expected = (len(self.actions), len(self.states))
        if matrix.shape != expected:
            raise ValueError(
                f"utility shape {matrix.shape} does not match (actions, states) {expected}"
            )
        matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "utility", matrix)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.states)}

    @cached_property
    def action_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.actions)}

    def utility_of(self, action: str) -> FloatArray:
        return self.utility[self.action_index[action]]


@dataclass(frozen=True, eq=False)
class QuestionProfile:
    """One question value per (action, state) pair."""

    values: FloatArray

    def __post_init__(self) -> None:
        matrix = as_float_matrix(self.values).copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "values", matrix)

    def row(self, action_index: int) -> FloatArray:
        return self.values[action_index]


@dataclass(frozen=True, eq=False)
class ProductStructure:
    """Coordinates tying a global problem to its per-task factors.

    ``state_coords[g]`` gives, for global state index ``g``, the state
    index within each task; likewise ``action_coords``.  The first task
    is the most significant coordinate in enumeration order.  Indices
    are plain ``int``s, and each table lists every combination of task
    indices exactly once, in any order.
    """

    tasks: tuple[DecisionProblem, ...]
    state_coords: tuple[tuple[int, ...], ...]
    action_coords: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.tasks) < 2:
            raise ValueError("a product structure needs at least two tasks")
        for coords, attr in ((self.state_coords, "state"), (self.action_coords, "action")):
            sizes = [len(getattr(task, f"{attr}s")) for task in self.tasks]
            for row in coords:
                if len(row) != len(self.tasks):
                    raise ValueError(f"{attr} coordinate arity mismatch")
                for index, size in zip(row, sizes):
                    if type(index) is not int:
                        raise ValueError(f"{attr} coordinate {index!r} is not an integer")
                    if not 0 <= index < size:
                        raise ValueError(
                            f"{attr} coordinate {index} is out of range for a task "
                            f"with {size} {attr}s"
                        )
            if len(coords) != math.prod(sizes) or len(set(coords)) != len(coords):
                raise ValueError(
                    f"{attr} coordinates do not list each combination of task {attr}s once"
                )

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @cached_property
    def state_coord_array(self) -> np.ndarray:
        return np.asarray(self.state_coords, dtype=np.intp)

    @cached_property
    def action_coord_array(self) -> np.ndarray:
        return np.asarray(self.action_coords, dtype=np.intp)

    def task_utility_tables(self) -> list[FloatArray]:
        """Per-task utility evaluated on the global (action, state) grid."""
        tables = []
        for t, task in enumerate(self.tasks):
            a_idx = self.action_coord_array[:, t]
            s_idx = self.state_coord_array[:, t]
            tables.append(task.utility[np.ix_(a_idx, s_idx)])
        return tables


def expand_product(tasks: Sequence[DecisionProblem]) -> tuple[DecisionProblem, ProductStructure]:
    """Expand per-task problems into one global problem plus coordinates.

    Global labels join the per-task labels with ``|``; utilities add
    across tasks.  Expansion is refused once either the global state or
    action count exceeds :data:`PRODUCT_EXPANSION_CAP`.
    """
    tasks = tuple(tasks)
    if len(tasks) < 2:
        raise ValueError("a product structure needs at least two tasks")
    n_states = math.prod(t.n_states for t in tasks)
    n_actions = math.prod(t.n_actions for t in tasks)
    if n_states > PRODUCT_EXPANSION_CAP or n_actions > PRODUCT_EXPANSION_CAP:
        raise TooLargeError(
            f"product expansion too large: {n_actions} actions x {n_states} states "
            f"(cap {PRODUCT_EXPANSION_CAP})"
        )
    state_coords = tuple(itertools.product(*[range(t.n_states) for t in tasks]))
    action_coords = tuple(itertools.product(*[range(t.n_actions) for t in tasks]))
    states = tuple(
        "|".join(tasks[t].states[i] for t, i in enumerate(coord)) for coord in state_coords
    )
    actions = tuple(
        "|".join(tasks[t].actions[i] for t, i in enumerate(coord)) for coord in action_coords
    )
    utility = np.zeros((1, 1))
    for task in tasks:
        stacked = utility[:, None, :, None] + task.utility[None, :, None, :]
        utility = stacked.reshape(
            utility.shape[0] * task.n_actions, utility.shape[1] * task.n_states
        )
    problem = DecisionProblem(states=states, actions=actions, utility=utility)
    structure = ProductStructure(
        tasks=tasks, state_coords=state_coords, action_coords=action_coords
    )
    return problem, structure


@dataclass(eq=False)
class ProblemBundle:
    """A decision problem plus the question asked about it.

    ``alpha`` is the weight on decision-stage payoff when the mechanism
    mixes decision stakes with elicitation stakes; it must lie strictly
    between 0 and 1.
    """

    problem: DecisionProblem
    question: QuestionProfile | None = None
    product: ProductStructure | None = None
    alpha: float = 0.5
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 < float(self.alpha) < 1.0):
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")
        self.alpha = float(self.alpha)
        if self.question is not None:
            shape = self.question.values.shape
            expected = (self.problem.n_actions, self.problem.n_states)
            if shape != expected:
                raise ValueError(
                    f"question shape {shape} does not match problem {expected}"
                )
        if self.product is not None:
            self._check_product()

    def _check_product(self) -> None:
        assert self.product is not None
        prod = self.product
        if len(prod.state_coords) != self.problem.n_states:
            raise ValueError("product state coordinates do not cover the problem")
        if len(prod.action_coords) != self.problem.n_actions:
            raise ValueError("product action coordinates do not cover the problem")
        total = np.zeros_like(self.problem.utility)
        for table in prod.task_utility_tables():
            total = total + table
        scale = 1.0 + float(np.max(np.abs(self.problem.utility)))
        if float(np.max(np.abs(total - self.problem.utility))) > VALIDATE_RTOL * scale:
            raise ValueError("global utility does not equal the sum of task utilities")


# ---------------------------------------------------------------------------
# Serialization


def _problem_to_dict(problem: DecisionProblem) -> dict[str, Any]:
    return {
        "states": list(problem.states),
        "actions": list(problem.actions),
        "utility": problem.utility,
    }


def _problem_from_dict(data: Mapping[str, Any]) -> DecisionProblem:
    return DecisionProblem(
        states=tuple(data["states"]),
        actions=tuple(data["actions"]),
        utility=np.asarray(data["utility"], dtype=np.float64),
    )


def bundle_to_dict(bundle: ProblemBundle) -> dict[str, Any]:
    payload: dict[str, Any] = {"schema": BUNDLE_SCHEMA}
    payload.update(_problem_to_dict(bundle.problem))
    payload["alpha"] = bundle.alpha
    if bundle.question is not None:
        payload["question"] = bundle.question.values
    if bundle.product is not None:
        payload["product"] = {
            "tasks": [_problem_to_dict(t) for t in bundle.product.tasks],
            "state_coords": [list(c) for c in bundle.product.state_coords],
            "action_coords": [list(c) for c in bundle.product.action_coords],
        }
    if bundle.metadata:
        payload["metadata"] = bundle.metadata
    return payload


def bundle_from_dict(data: Mapping[str, Any]) -> ProblemBundle:
    try:
        if data.get("schema") != BUNDLE_SCHEMA:
            raise ValueError(f"unknown bundle schema {data.get('schema')!r}")
        problem = _problem_from_dict(data)
        question = None
        if "question" in data:
            question = QuestionProfile(np.asarray(data["question"], dtype=np.float64))
        product = None
        if "product" in data:
            raw = data["product"]
            product = ProductStructure(
                tasks=tuple(_problem_from_dict(t) for t in raw["tasks"]),
                state_coords=tuple(tuple(c) for c in raw["state_coords"]),
                action_coords=tuple(tuple(c) for c in raw["action_coords"]),
            )
        metadata = dict(data.get("metadata", {}))
        alpha = float(data.get("alpha", 0.5))
        return ProblemBundle(
            problem=problem,
            question=question,
            product=product,
            alpha=alpha,
            metadata=metadata,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BundleFormatError(f"malformed bundle: {exc}") from exc


def dumps_bundle(bundle: ProblemBundle) -> str:
    return canonical_dumps(bundle_to_dict(bundle))


def _reject_json_constant(name: str) -> Any:
    """``json.loads`` hook: ``NaN`` and ``Infinity`` are not JSON numbers."""
    raise ValueError(f"{name} is not a finite number")


def loads_bundle(text: str) -> ProblemBundle:
    try:
        data = json.loads(text, parse_constant=_reject_json_constant)
    except (ValueError, RecursionError) as exc:
        raise BundleFormatError(f"bundle is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise BundleFormatError("bundle must be a JSON object")
    return bundle_from_dict(data)


def save_bundle(bundle: ProblemBundle, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_bundle(bundle))


def load_bundle(path: str) -> ProblemBundle:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_bundle(handle.read())


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural sanity checks on a decision problem.

    ``redundant_pairs`` lists action pairs with identical utility rows;
    ``non_rationalizable`` lists actions that are never uniquely optimal
    together with their best achievable optimality slack.
    """

    redundant_pairs: tuple[tuple[str, str], ...]
    non_rationalizable: tuple[tuple[str, float], ...]
    passed: bool


def validate_problem(problem: DecisionProblem) -> ValidationReport:
    """Check for duplicate actions and actions no belief makes strictly best.

    Both read utility divided by its gauge (rows within ``VALIDATE_RTOL``
    of each other are duplicates).  An action's max-slack LP that HiGHS neither
    solves nor proves infeasible raises :class:`LPFailure` naming the
    action, rather than reporting the action as non-rationalizable.
    """
    scaled = scale_to_utility_gauge(problem.utility)
    i, j = np.triu_indices(problem.n_actions, 1)
    close = np.abs(scaled[i] - scaled[j]).max(axis=1) <= VALIDATE_RTOL
    redundant = [(problem.actions[a], problem.actions[b]) for a, b in zip(i[close], j[close])]
    try:
        slacks, _ = _max_slack_programs(scaled, range(problem.n_actions), None)
    except LPFailure as exc:
        raise LPFailure(
            f"the max-slack LP of {problem.actions[exc.program]} did not finish: {exc}"
        ) from exc
    weak = [
        (problem.actions[a], slack)
        for a, slack in enumerate(slacks.tolist())
        if not slack > MIN_SLACK
    ]
    return ValidationReport(
        redundant_pairs=tuple(redundant),
        non_rationalizable=tuple(weak),
        passed=not redundant and not weak,
    )


# ---------------------------------------------------------------------------
# Built-in problem generators


def _float_label(value: float) -> str:
    return format(value, ".12g")


def make_quadratic_loss(n: int) -> DecisionProblem:
    """Squared-loss guessing on the grid {0, 1/n, ..., 1}.

    Action and state menus coincide; payoff is ``-(a - theta)^2``.
    """
    if n < 1:
        raise ValueError("need n >= 1 grid steps")
    labels = tuple(_float_label(i / n) for i in range(n + 1))
    points = np.array([float(x) for x in labels])
    utility = -((points[:, None] - points[None, :]) ** 2)
    return DecisionProblem(states=labels, actions=labels, utility=utility)


def make_star(n_theta: int, s: float) -> DecisionProblem:
    """State matching with unit rewards plus a safe action paying ``s`` everywhere."""
    if n_theta < 2:
        raise ValueError("need at least two states")
    states = tuple(f"theta{i}" for i in range(n_theta))
    actions = states + ("safe",)
    utility = np.vstack([np.eye(n_theta), np.full(n_theta, float(s))])
    return DecisionProblem(states=states, actions=actions, utility=utility)


def make_state_matching(rewards: Sequence[float]) -> DecisionProblem:
    """Guess the state; a correct guess of state ``theta`` pays its reward."""
    r = np.asarray(list(rewards), dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("need at least two rewards")
    labels = tuple(str(i + 1) for i in range(r.size))
    return DecisionProblem(states=labels, actions=labels, utility=np.diag(r))


def make_close_guess(rewards: Sequence[float]) -> DecisionProblem:
    """State matching with half credit for guesses adjacent on the line.

    A guess ``a`` in state ``theta`` pays the full reward when equal and
    half the reward when ``|a - theta| = 1`` on the integer line.
    """
    r = np.asarray(list(rewards), dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("need at least two rewards")
    n = r.size
    labels = tuple(str(i + 1) for i in range(n))
    utility = np.zeros((n, n))
    for a in range(n):
        for t in range(n):
            if a == t:
                utility[a, t] = r[t]
            elif abs(a - t) == 1:
                utility[a, t] = r[t] / 2.0
    return DecisionProblem(states=labels, actions=labels, utility=utility)


def make_mc_test(n_tasks: int, n_answers: int) -> tuple[DecisionProblem, ProductStructure]:
    """A multi-question test: per task, one point for the right answer.

    Global utility is the raw number of correct answers.  Returns the
    expanded global problem together with its product structure.
    """
    if n_tasks < 2:
        raise ValueError("need at least two tasks")
    if n_answers < 2:
        raise ValueError("need at least two answers per task")
    labels = tuple(str(i) for i in range(n_answers))
    task = DecisionProblem(states=labels, actions=labels, utility=np.eye(n_answers))
    return expand_product([task] * n_tasks)


def make_cycle_rich_safe() -> DecisionProblem:
    """Four-state matching with graded rewards plus a low safe action.

    Rewards are (1/2, 1/2, 1, 1) and the safe action pays 3/10.  The
    first two matching actions are not adjacent to each other, yet the
    full action set still carries enough independent cycles for the
    cycle-based necessity test to bite.
    """
    rewards = np.array([0.5, 0.5, 1.0, 1.0])
    states = tuple(f"theta{i}" for i in range(4))
    actions = states + ("safe",)
    utility = np.vstack([np.diag(rewards), np.full(4, 0.3)])
    return DecisionProblem(states=states, actions=actions, utility=utility)


# ---------------------------------------------------------------------------
# Built-in question profiles


def question_expected_payoff(problem: DecisionProblem) -> QuestionProfile:
    """Ask for the expected payoff of the chosen action."""
    return QuestionProfile(problem.utility.copy())


def question_regret(problem: DecisionProblem) -> QuestionProfile:
    """Ask for the expected shortfall against the ex-post best action."""
    best = problem.utility.max(axis=0)
    return QuestionProfile(best[None, :] - problem.utility)


def question_ex_post_optimality(problem: DecisionProblem) -> QuestionProfile:
    """Ask for the probability that the chosen action is ex-post optimal."""
    u = problem.utility
    best = u.max(axis=0)
    band = 1e-12 * (1.0 + float(np.max(np.abs(u))))
    return QuestionProfile((u >= best[None, :] - band).astype(np.float64))


def question_within(problem: DecisionProblem, x: float) -> QuestionProfile:
    """Ask for the probability the guess lands within ``x`` of the state.

    Both action and state labels must parse as numbers.
    """
    if not x >= 0:
        raise ValueError(f"distance bound must be nonnegative, got {x}")
    try:
        a_vals = np.array([float(a) for a in problem.actions])
        s_vals = np.array([float(s) for s in problem.states])
    except ValueError as exc:
        raise ValueError(f"labels must be numeric for a within-x question: {exc}") from exc
    band = 1e-12 * (1.0 + x)
    dist = np.abs(a_vals[:, None] - s_vals[None, :])
    return QuestionProfile((dist <= x + band).astype(np.float64))


def question_threshold(
    problem: DecisionProblem, product: ProductStructure | None, z: float
) -> QuestionProfile:
    """Ask for the probability the total score reaches ``z`` (product problems only)."""
    if product is None:
        raise ValueError("a threshold question requires a product structure")
    return QuestionProfile((problem.utility >= z - 1e-9).astype(np.float64))


def question_improvement(
    problem: DecisionProblem, product: ProductStructure | None, split: int
) -> QuestionProfile:
    """Ask for the average late-block score minus the average early-block score.

    Tasks before ``split`` form the early block, the rest the late
    block; each block is averaged over its own size.
    """
    if product is None:
        raise ValueError("an improvement question requires a product structure")
    n = product.n_tasks
    if not 1 <= split < n:
        raise ValueError(f"split must lie in [1, {n - 1}], got {split}")
    tables = product.task_utility_tables()
    early = sum(tables[:split]) / float(split)
    late = sum(tables[split:]) / float(n - split)
    return QuestionProfile(late - early)


# ---------------------------------------------------------------------------
# Registry: every named generator and question, with its parameters


@dataclass(frozen=True)
class Param:
    """A named parameter: ``parse`` turns the flag's string into the parameter's value."""

    name: str
    parse: Callable[[str], Any]
    help: str


@dataclass(frozen=True)
class Builder:
    """A registry entry: ``build`` takes the parameter values in ``params`` order."""

    build: Callable[..., Any]
    params: tuple[Param, ...] = ()

    def __call__(self, *values: Any) -> Any:
        return self.build(*values)


def _finite_float(raw: Any) -> float:
    """The finite float ``raw`` stands for; anything else is a usage error."""
    try:
        value = float(raw)
    except ValueError:
        raise ArgumentTypeError(f"invalid float value: {raw!r}") from None
    if not math.isfinite(value):
        raise ArgumentTypeError(f"not a finite number: {raw!r}")
    return value


def _parse_reward_list(raw: str) -> tuple[float, ...]:
    values = tuple(_finite_float(part) for part in raw.split(",") if part.strip())
    if not values:
        raise ArgumentTypeError("reward list is empty")
    return values


_REWARDS = Param("r", _parse_reward_list, "comma-separated rewards")

#: Named problem generators.  Each returns ``(problem, product-or-None)``.
GENERATORS: dict[str, Builder] = {
    "quadratic-loss": Builder(
        lambda n: (make_quadratic_loss(n), None), (Param("n", int, "grid resolution"),)
    ),
    "star": Builder(
        lambda theta, s: (make_star(theta, s), None),
        (Param("theta", int, "state count"), Param("s", _finite_float, "safe payoff")),
    ),
    "state-matching": Builder(lambda r: (make_state_matching(r), None), (_REWARDS,)),
    "close-guess": Builder(lambda r: (make_close_guess(r), None), (_REWARDS,)),
    "mc-test": Builder(
        make_mc_test, (Param("i", int, "task count"), Param("omega", int, "answers per task"))
    ),
    "cycle-rich-safe": Builder(lambda: (make_cycle_rich_safe(), None)),
}

#: Named questions.  Each takes ``(problem, product-or-None)`` and then its parameters.
QUESTIONS: dict[str, Builder] = {
    "expected-payoff": Builder(lambda problem, product: question_expected_payoff(problem)),
    "regret": Builder(lambda problem, product: question_regret(problem)),
    "ex-post-optimality": Builder(
        lambda problem, product: question_ex_post_optimality(problem)
    ),
    "within-x": Builder(
        lambda problem, product, x: question_within(problem, x),
        (Param("x", _finite_float, "distance bound"),),
    ),
    "threshold": Builder(question_threshold, (Param("z", _finite_float, "score threshold"),)),
    "improvement": Builder(question_improvement, (Param("split", int, "early-block size"),)),
}


def build_question(
    kind: str,
    problem: DecisionProblem,
    product: ProductStructure | None = None,
    **params: Any,
) -> QuestionProfile:
    """Build the question registered in :data:`QUESTIONS` under ``kind``.

    ``params`` holds the entry's parameters by name; each value goes
    through its parameter's parser (finite float or ``int``), and a
    missing one raises ``KeyError``.
    """
    if kind not in QUESTIONS:
        raise ValueError(f"unknown question kind: {kind!r}")
    entry = QUESTIONS[kind]
    return entry(problem, product, *(p.parse(params[p.name]) for p in entry.params))
