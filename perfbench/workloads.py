"""Seeded operation streams for the three workloads, and the checks on their outputs.

A stream is a sequence of blocks.  Every block of a workload holds the
same fixed list of slots (generator family, size, question), so the cost
mix is the same in every block and for every seed; the seed draws what
does not change a slot's kind of work: star payoffs, reward vectors,
random utilities, question parameters, the mixing weight ``alpha`` and
the order of the slots within the block.

Operation code reaches the program through attribute lookups on the
``elicitkit`` modules at call time, so the tracer can rebind those names.
Checking code uses the originals bound below at import, so checks are
never traced and never count as work of an operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

import elicitkit as ek
import elicitkit.cli
from elicitkit.model import canonical_dumps, dumps_bundle, loads_bundle
from elicitkit.synth import dumps_method, loads_method

# Slots are (family, size, question).  Sizes: quadratic-loss (n,), star
# (theta,), state-matching / close-guess (number of rewards,), mc-test
# (i, omega), random (states, actions), cycle-rich-safe ().
#
# check: about three fifths of the slots end at global alignment with no
# LP, so op_p50_ms sits inside that group and not on the edge between the
# groups; the rest walk the LP-based necessity chain and set op_p90_ms.
# The mc-test slots with three or more tasks reach the product
# characterization, and its negative verdicts hit known defect 1.  Random
# problems on the LP path have either more than 8 actions (cycle-richness
# is skipped) or at most 6 (it is cheap), so the seed barely moves cost.
CHECK_SLOTS: tuple[tuple[str, tuple[int, ...], str], ...] = (
    ("quadratic-loss", (5,), "expected-payoff"),
    ("quadratic-loss", (9,), "regret"),
    ("quadratic-loss", (13,), "expected-payoff"),
    ("quadratic-loss", (16,), "regret"),
    ("star", (4,), "ex-post-optimality"),
    ("star", (6,), "expected-payoff"),
    ("star", (7,), "regret"),
    ("state-matching", (5,), "ex-post-optimality"),
    ("state-matching", (7,), "regret"),
    ("close-guess", (6,), "expected-payoff"),
    ("close-guess", (4,), "regret"),
    ("cycle-rich-safe", (), "expected-payoff"),
    ("cycle-rich-safe", (), "ex-post-optimality"),
    ("cycle-rich-safe", (), "regret"),
    ("random", (5, 6), "expected-payoff"),
    ("random", (8, 10), "regret"),
    ("random", (6, 4), "expected-payoff"),
    ("random", (4, 8), "regret"),
    ("random", (7, 9), "expected-payoff"),
    ("mc-test", (2, 2), "expected-payoff"),
    ("mc-test", (2, 3), "regret"),
    ("mc-test", (2, 4), "expected-payoff"),
    ("mc-test", (3, 2), "regret"),
    ("mc-test", (3, 3), "expected-payoff"),
    ("mc-test", (4, 2), "regret"),
    ("quadratic-loss", (4,), "within-x"),
    ("quadratic-loss", (7,), "ex-post-optimality"),
    ("quadratic-loss", (10,), "within-x"),
    ("quadratic-loss", (12,), "ex-post-optimality"),
    ("quadratic-loss", (15,), "within-x"),
    ("state-matching", (5,), "within-x"),
    ("close-guess", (6,), "ex-post-optimality"),
    ("random", (4, 10), "ex-post-optimality"),
    ("random", (5, 5), "ex-post-optimality"),
    ("random", (6, 6), "ex-post-optimality"),
    ("random", (8, 9), "ex-post-optimality"),
    ("mc-test", (2, 2), "threshold"),
    ("mc-test", (2, 3), "ex-post-optimality"),
    ("mc-test", (2, 4), "improvement"),
    ("mc-test", (3, 2), "threshold"),
    ("mc-test", (3, 3), "improvement"),
    ("mc-test", (4, 2), "threshold"),
    ("mc-test", (4, 2), "improvement"),
)

# oracle: flat bundles only, at most 8 states (so the rational grid is
# enumerated) and at most 8 actions, with positive and negative verdicts.
# Random problems stay small, so the costliest slots, which set
# op_p90_ms, are named generators whose cost the seed does not move.
ORACLE_SLOTS: tuple[tuple[str, tuple[int, ...], str], ...] = (
    ("quadratic-loss", (3,), "expected-payoff"),
    ("quadratic-loss", (5,), "regret"),
    ("quadratic-loss", (7,), "expected-payoff"),
    ("quadratic-loss", (4,), "within-x"),
    ("quadratic-loss", (6,), "ex-post-optimality"),
    ("quadratic-loss", (7,), "within-x"),
    ("star", (3,), "expected-payoff"),
    ("star", (5,), "ex-post-optimality"),
    ("star", (7,), "regret"),
    ("state-matching", (4,), "expected-payoff"),
    ("state-matching", (6,), "ex-post-optimality"),
    ("state-matching", (8,), "within-x"),
    ("state-matching", (5,), "regret"),
    ("close-guess", (5,), "expected-payoff"),
    ("close-guess", (7,), "ex-post-optimality"),
    ("close-guess", (4,), "within-x"),
    ("cycle-rich-safe", (), "expected-payoff"),
    ("cycle-rich-safe", (), "ex-post-optimality"),
    ("random", (4, 5), "expected-payoff"),
    ("random", (5, 6), "regret"),
    ("random", (6, 6), "ex-post-optimality"),
    ("random", (5, 4), "ex-post-optimality"),
    ("random", (6, 5), "ex-post-optimality"),
    ("random", (4, 6), "expected-payoff"),
    ("random", (5, 5), "ex-post-optimality"),
)

# cli: named generators only (the CLI has no random generator), product
# and flat bundles.  The mc-test(4, 2) pipeline runs classify, check and
# synthesize on the same 16-action graph; it ends at synthesize (known
# defect 1), which keeps the block short enough for 100 pipelines a run.
CLI_SLOTS: tuple[tuple[str, tuple[int, ...], str], ...] = (
    ("quadratic-loss", (3,), "expected-payoff"),
    ("quadratic-loss", (3,), "within-x"),
    ("quadratic-loss", (4,), "ex-post-optimality"),
    ("quadratic-loss", (4,), "regret"),
    ("quadratic-loss", (5,), "within-x"),
    ("quadratic-loss", (6,), "regret"),
    ("star", (3,), "ex-post-optimality"),
    ("star", (4,), "regret"),
    ("star", (5,), "expected-payoff"),
    ("state-matching", (3,), "ex-post-optimality"),
    ("state-matching", (4,), "expected-payoff"),
    ("state-matching", (5,), "within-x"),
    ("close-guess", (3,), "within-x"),
    ("close-guess", (4,), "ex-post-optimality"),
    ("close-guess", (5,), "regret"),
    ("cycle-rich-safe", (), "expected-payoff"),
    ("cycle-rich-safe", (), "ex-post-optimality"),
    ("mc-test", (2, 2), "expected-payoff"),
    ("mc-test", (2, 2), "regret"),
    ("mc-test", (2, 2), "ex-post-optimality"),
    ("mc-test", (2, 2), "improvement"),
    ("mc-test", (2, 3), "threshold"),
    ("mc-test", (3, 2), "threshold"),
    ("mc-test", (3, 2), "improvement"),
    ("mc-test", (4, 2), "threshold"),
)

SLOTS = {"check": CHECK_SLOTS, "oracle": ORACLE_SLOTS, "cli": CLI_SLOTS}

THEOREMS = (
    "global-alignment-sufficiency",
    "piecewise-alignment-sufficiency",
    "tree-characterization",
    "complete-graph-characterization",
    "product-characterization",
    "cycle-rich-necessity",
    "pairwise-necessity",
    "none",
)


def fixed_status(question: str, n_tasks: int) -> str | None:
    """The verdict status the theory fixes for a question, if it fixes one.

    Expected payoff and regret are affine in utility on every problem;
    the improvement question is a task-weighted sum of task utilities,
    which the product characterization certifies once there are three
    or more tasks.
    """
    if question in ("expected-payoff", "regret"):
        return "incentivizable"
    if question == "improvement" and n_tasks >= 3:
        return "incentivizable"
    return None


@dataclass(frozen=True)
class Item:
    """One operation's input: a bundle (check, oracle) or a gen argv (cli)."""

    slot: int
    family: str
    question: str
    n_tasks: int
    bundle: Any = None
    gen_argv: tuple[str, ...] = ()


def _draw_params(
    rng: np.random.Generator, family: str, size: tuple[int, ...], question: str
) -> tuple[dict[str, Any], dict[str, Any]]:
    if family == "quadratic-loss":
        gen: dict[str, Any] = {"n": size[0]}
    elif family == "star":
        theta = size[0]
        # with s above 1/2 the safe action sits at the centre of a star
        # graph; below it the matching actions become adjacent too, and
        # the verify sweep's cost would then depend on the seed
        gen = {"theta": theta, "s": round(float(rng.uniform(0.55, 0.95)), 3)}
    elif family in ("state-matching", "close-guess"):
        gen = {"r": tuple(round(float(v), 3) for v in rng.uniform(0.5, 2.0, size[0]))}
    elif family == "mc-test":
        gen = {"i": size[0], "omega": size[1]}
    elif family == "random":
        n_states, n_actions = size
        gen = {"utility": rng.uniform(0.0, 1.0, size=(n_actions, n_states)).round(6)}
    else:
        gen = {}
    params: dict[str, Any] = {}
    if question == "within-x":
        if family == "quadratic-loss":
            params["x"] = round(float(rng.uniform(0.1, 0.45)), 3)
        else:
            params["x"] = float(rng.integers(1, 3))
    elif question == "threshold":
        params["z"] = float(rng.integers(1, size[0] + 1))
    elif question == "improvement":
        params["split"] = int(rng.integers(1, size[0]))
    return gen, params


def _build_bundle(
    family: str, gen: dict[str, Any], question: str, params: dict[str, Any], alpha: float
) -> Any:
    if family == "random":
        utility = gen["utility"]
        problem = ek.DecisionProblem(
            states=tuple(f"s{i}" for i in range(utility.shape[1])),
            actions=tuple(f"a{i}" for i in range(utility.shape[0])),
            utility=utility,
        )
        product = None
    else:
        problem, product = ek.GENERATORS[family](*gen.values())
    profile = ek.build_question(question, problem, product, **params)
    return ek.ProblemBundle(problem=problem, question=profile, product=product, alpha=alpha)


def _gen_argv(
    family: str, gen: dict[str, Any], question: str, params: dict[str, Any], alpha: float
) -> tuple[str, ...]:
    argv = ["gen", family]
    for key, value in gen.items():
        text = ",".join(repr(v) for v in value) if isinstance(value, tuple) else repr(value)
        argv += [f"--{key}", text]
    argv += ["--question", question]
    for key, value in params.items():
        argv += [f"--{key}", repr(value)]
    argv += ["--alpha", repr(alpha)]
    return tuple(argv)


_WORKLOAD_TAG = {"check": 1, "oracle": 2, "cli": 3}


def make_block(workload: str, seed: int, block: int) -> list[Item]:
    """The block's operations, in the seeded order."""
    rng = np.random.default_rng([seed, _WORKLOAD_TAG[workload], block])
    items = []
    for slot, (family, size, question) in enumerate(SLOTS[workload]):
        gen, params = _draw_params(rng, family, size, question)
        alpha = round(float(rng.uniform(0.2, 0.8)), 3)
        n_tasks = size[0] if family == "mc-test" else 1
        if workload == "cli":
            item = Item(slot, family, question, n_tasks, gen_argv=_gen_argv(family, gen, question, params, alpha))
        else:
            item = Item(slot, family, question, n_tasks, bundle=_build_bundle(family, gen, question, params, alpha))
        items.append(item)
    order = rng.permutation(len(items))
    return [items[i] for i in order]


# ---------------------------------------------------------------------------
# Operations


class Timed:
    """Times the body of a ``with`` block, inside an optional tracer root span."""

    def __init__(self, span: Any = None) -> None:
        self.span = span
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timed":
        if self.span is not None:
            self.span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.seconds = time.perf_counter() - self._start
        if self.span is not None:
            self.span.__exit__(*exc)


class WrongOutput(Exception):
    """An operation finished but its output is wrong."""


class OpError(Exception):
    """An operation did not produce an output (it raised or exited 2)."""


@dataclass
class OpRecord:
    slot: int
    latency_s: float
    digest: str
    failure: str | None  # None, "error: ..." or "wrong: ..."
    status: str | None
    theorem: str | None
    problem_key: str | None
    product: bool
    n_actions: int
    n_states: int


def problem_key(bundle: Any) -> str:
    problem = bundle.problem
    h = hashlib.sha256()
    h.update(repr((problem.states, problem.actions, problem.utility.shape)).encode())
    h.update(np.ascontiguousarray(problem.utility).tobytes())
    return h.hexdigest()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _expect_status(item: Item, status: str) -> None:
    expected = fixed_status(item.question, item.n_tasks)
    if expected is not None and status != expected:
        raise WrongOutput(f"{item.family}/{item.question} decided {status}, expected {expected}")


def _failure(exc: BaseException) -> str:
    kind = "wrong" if isinstance(exc, WrongOutput) else "error"
    return f"{kind}: {type(exc).__name__}: {exc}"


def _bundle_record(item: Item, timed: Timed, verdict: Any, text: str | None, error: BaseException | None) -> OpRecord:
    bundle = item.bundle
    return OpRecord(
        slot=item.slot,
        latency_s=timed.seconds,
        digest=_digest(text if error is None else _failure(error)),
        failure=None if error is None else _failure(error),
        status=verdict.status if verdict is not None else None,
        theorem=(verdict.theorem or "none") if verdict is not None else None,
        problem_key=problem_key(bundle),
        product=bundle.product is not None,
        n_actions=bundle.problem.n_actions,
        n_states=bundle.problem.n_states,
    )


def run_check(item: Item, workdir: str, timed: Timed) -> OpRecord:
    """Decide one bundle and render the verdict as canonical JSON, as ``elicitkit check`` does."""
    verdict = None
    text = None
    error: BaseException | None = None
    with timed:
        try:
            verdict = ek.decide_incentivizable(item.bundle)
            text = ek.canonical_dumps(verdict.to_dict())
        except Exception as exc:  # every failure is counted; the loop goes on
            error = exc
    if error is None:
        try:
            _expect_status(item, verdict.status)
        except WrongOutput as exc:
            error = exc
    return _bundle_record(item, timed, verdict, text, error)


def run_oracle(item: Item, workdir: str, timed: Timed) -> OpRecord:
    """Cross-check the analytic verdict against the belief sweep with the default GridSpec."""
    record = None
    error: BaseException | None = None
    with timed:
        try:
            record = ek.oracle_cross_check(item.bundle)
        except Exception as exc:  # every failure is counted; the loop goes on
            error = exc
    text = None
    if error is None:
        try:
            text = canonical_dumps(record.to_dict())
            if not record.consistent:
                raise WrongOutput(f"oracle inconsistent: {record.detail}")
            _expect_status(item, record.verdict.status)
        except (ValueError, WrongOutput) as exc:
            error = exc
    verdict = record.verdict if record is not None else None
    return _bundle_record(item, timed, verdict, text, error)


def _call_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = elicitkit.cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code if isinstance(exc.code, int) else 2
    return int(code), out.getvalue()


def _reloads_same(path: str, loads: Any, dumps: Any, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        same = dumps(loads(text)) == text
    except (OSError, ValueError, ek.ElicitkitError) as exc:
        raise WrongOutput(f"{what} file unreadable: {exc}") from exc
    if not same:
        raise WrongOutput(f"{what} does not reload to the same bytes")
    return text


def run_cli(item: Item, workdir: str, timed: Timed) -> OpRecord:
    """The README pipeline through ``elicitkit.cli.main``: gen, classify, check, synthesize, verify, witness.

    verify and witness run only when synthesize exits 0; a negative or
    inconclusive verdict stops the pipeline there.
    """
    bundle_path = os.path.join(workdir, "bundle.json")
    method_path = os.path.join(workdir, "mechanism.json")
    for path in (bundle_path, method_path):
        if os.path.exists(path):
            os.remove(path)
    steps = [
        ("gen", [*item.gen_argv, "--out", bundle_path]),
        ("classify", ["classify", bundle_path]),
        ("check", ["check", bundle_path]),
        ("synthesize", ["synthesize", bundle_path, "--out", method_path]),
        ("verify", ["verify", bundle_path, method_path]),
        ("witness", ["witness", bundle_path, method_path]),
    ]
    codes: dict[str, int] = {}
    outputs: list[str] = []
    error: BaseException | None = None
    with timed:
        for name, argv in steps:
            if name == "verify" and codes["synthesize"] != 0:
                break
            try:
                code, stdout = _call_main(argv)
            except Exception as exc:  # every failure is counted; the loop goes on
                error = exc
                break
            codes[name] = code
            outputs.append(f"{name} {code}\n{stdout}")

    status = theorem = key = None
    bundle = None
    if error is None:
        try:
            if codes["gen"] != 0:
                raise OpError(f"gen exited {codes['gen']}")
            bundle_text = _reloads_same(bundle_path, loads_bundle, dumps_bundle, "bundle")
            bundle = loads_bundle(bundle_text)
            key = problem_key(bundle)
            outputs.append(bundle_text)
            exit2 = [name for name, code in codes.items() if code == 2]
            if exit2:
                raise OpError(f"exit 2 at {', '.join(exit2)}")
            if codes["classify"] != 0:
                raise OpError(f"classify exited {codes['classify']}")
            try:
                verdict = json.loads(outputs[2].split("\n", 1)[1])
            except ValueError as exc:
                raise WrongOutput(f"check printed no JSON verdict: {exc}") from exc
            status, theorem = verdict["status"], verdict["theorem"] or "none"
            _expect_status(item, status)
            if codes["synthesize"] != codes["check"]:
                raise WrongOutput(f"synthesize exited {codes['synthesize']}, check {codes['check']}")
            if codes["synthesize"] == 0:
                outputs.append(_reloads_same(method_path, loads_method, dumps_method, "mechanism"))
                if codes["verify"] != 0:
                    raise WrongOutput(f"verify exited {codes['verify']} on a synthesized mechanism")
                if codes["witness"] != 5:
                    raise WrongOutput(f"witness exited {codes['witness']} on a synthesized mechanism")
        except (OpError, WrongOutput) as exc:
            error = exc
    text = "".join(outputs).replace(workdir, "<dir>")
    if error is not None:
        text += _failure(error)
    return OpRecord(
        slot=item.slot,
        latency_s=timed.seconds,
        digest=_digest(text),
        failure=None if error is None else _failure(error),
        status=status,
        theorem=theorem,
        problem_key=key,
        product=bundle is not None and bundle.product is not None,
        n_actions=bundle.problem.n_actions if bundle is not None else 0,
        n_states=bundle.problem.n_states if bundle is not None else 0,
    )


RUNNERS = {"check": run_check, "oracle": run_oracle, "cli": run_cli}


def warm_up(workload: str, workdir: str) -> None:
    """One small operation, so first-call costs land before timing starts."""
    problem, product = ek.make_mc_test(2, 2)
    if workload == "cli":
        item = Item(-1, "mc-test", "expected-payoff", 2, gen_argv=("gen", "mc-test", "--i", "2", "--omega", "2", "--question", "expected-payoff"))
    else:
        question = "threshold" if workload == "check" else "expected-payoff"
        params = {"z": 2.0} if question == "threshold" else {}
        bundle = ek.ProblemBundle(
            problem=problem,
            question=ek.build_question(question, problem, product, **params),
            product=product if workload == "check" else None,
        )
        item = Item(-1, "mc-test", question, 2, bundle=bundle)
    RUNNERS[workload](item, workdir, Timed())
