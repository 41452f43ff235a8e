"""Construction of nondistortionary elicitation mechanisms.

Every mechanism built here shares one payment shape: after mapping the
agent's natural report (the expectation of a raw question row) through a
per-action affine transform, the payment is a concave quadratic

    V(r, a, theta) = c0(a, theta) + c1(a, theta) * r - r**2 / 2

in the internal report ``r``.  The optimal report is then the expected
value of ``c1`` and the optimal payment has the closed form
``E[c0] + E[c1]**2 / 2``, which makes behavioral verification cheap and
exact.  Three constructions are provided, on two mechanisms: a stitch
of gauge-scaled aligned parts over a splitting collection, whose
one-part case serves globally aligned questions, and one for
task-weighted questions on product problems.  Each first checks its
certificate by substitution against the question.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping

import numpy as np

from ._numerics import FloatArray, as_float_matrix
from .alignment import (
    ALIGN_RTOL,
    ARBITER_FACTOR,
    AlignmentCertificate,
    PiecewiseCertificate,
    Verdict,
    WeightedAlignmentCertificate,
    _affine_rows,
    _eps,
    reconstruct_question,
)
from .model import (
    DecisionProblem,
    ElicitkitError,
    ProblemBundle,
    ProductStructure,
    QuestionProfile,
    _reject_json_constant,
    canonical_dumps,
)

MECHANISM_SCHEMA = "elicitkit-mechanism-v1"

#: Margin added beyond the observed extremes of the internal report
#: coordinate, so the required strict bounds hold with room to spare.
RANGE_MARGIN = 1.0

#: Reports beyond ``range +- CLAMP_FRACTION * (hi - lo)`` are clamped.
CLAMP_FRACTION = 0.1

PROVENANCES = (
    "aligned-bdm",
    "piecewise-bdm",
    "product-bdm",
    "naive-bdm",
    "quadratic-control",
)

_LOTTERY_PROVENANCES = ("aligned-bdm", "product-bdm", "naive-bdm")

_PRIZE_ADVISORY = (
    "when mixing with the decision payoff, choose prize scales with "
    "alpha * R >= (1 - alpha) * R' so the decision stake stays dominant"
)


class SynthesisError(ElicitkitError):
    """A mechanism could not be constructed from the given certificate."""


class UnsupportedProvenanceError(ElicitkitError):
    """The requested export is not defined for this mechanism family."""


class MechanismFormatError(ElicitkitError):
    """A serialized mechanism did not match the expected schema."""


# ---------------------------------------------------------------------------
# The mechanism container


@dataclass(frozen=True, eq=False)
class ElicitationMethod:
    """A quadratic-payment elicitation mechanism.

    ``c0`` and ``c1`` are indexed (action, state).  ``slope`` and
    ``intercept`` give the per-action affine map from the natural report
    (expectation of the raw question row) to the internal report; by
    construction ``c1(a) = slope(a) * X(a) + intercept(a)`` holds row by
    row, so the internal optimum coincides with the transform image of
    the truthful natural report at every belief.
    """

    actions: tuple[str, ...]
    states: tuple[str, ...]
    report_range: tuple[float, float]
    c0: FloatArray
    c1: FloatArray
    slope: FloatArray
    intercept: FloatArray
    provenance: str
    alpha: float = 0.5
    stitch_discrepancy: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(str(a) for a in self.actions))
        object.__setattr__(self, "states", tuple(str(s) for s in self.states))
        shape = (len(self.actions), len(self.states))
        c0 = as_float_matrix(self.c0)
        c1 = as_float_matrix(self.c1)
        if c0.shape != shape or c1.shape != shape:
            raise ValueError(
                f"coefficient shape mismatch: expected {shape}, "
                f"got c0 {c0.shape} and c1 {c1.shape}"
            )
        slope = np.asarray(self.slope, dtype=np.float64).reshape(-1)
        intercept = np.asarray(self.intercept, dtype=np.float64).reshape(-1)
        if slope.shape != (shape[0],) or intercept.shape != (shape[0],):
            raise ValueError("transform arrays must have one entry per action")
        if not (np.all(np.isfinite(slope)) and np.all(np.isfinite(intercept))):
            raise ValueError("transform coefficients must be finite")
        if np.any(slope == 0.0):
            raise ValueError("transform slopes must be nonzero")
        lo, hi = (float(v) for v in self.report_range)
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"invalid report range ({lo}, {hi})")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not (np.isfinite(self.stitch_discrepancy) and self.stitch_discrepancy >= 0.0):
            raise ValueError("stitch discrepancy must be a nonnegative float")
        for arr in (c0, c1, slope, intercept):
            arr.setflags(write=False)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "report_range", (lo, hi))

    @cached_property
    def action_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.actions)}

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.states)}

    @property
    def n_states(self) -> int:
        return len(self.states)

    def transform_report(self, action: str, raw_report: float) -> float:
        """Map a natural (raw-question) report to the internal coordinate."""
        i = self.action_index[action]
        return float(self.slope[i] * raw_report + self.intercept[i])


@dataclass(frozen=True)
class EvalResult:
    """One payment evaluation; ``clamped`` flags an out-of-range report."""

    value: float
    report_used: float
    clamped: bool


def eval_method(
    method: ElicitationMethod,
    report: float,
    action: str,
    state: str,
    raw: bool = False,
) -> EvalResult:
    """Evaluate the payment at one (report, action, state) triple.

    With ``raw=True`` the report is first mapped through the per-action
    transform.  Reports beyond the expanded range (10 percent margin on
    each side) are clamped and flagged.
    """
    try:
        i = method.action_index[action]
        j = method.state_index[state]
    except KeyError as exc:
        raise ValueError(f"unknown action or state: {exc}") from exc
    r = method.slope[i] * report + method.intercept[i] if raw else float(report)
    if not np.isfinite(r):
        raise ValueError("report must be finite")
    lo, hi = method.report_range
    margin = CLAMP_FRACTION * (hi - lo)
    clamped = r < lo - margin or r > hi + margin
    r_used = float(min(max(r, lo - margin), hi + margin))
    value = float(method.c0[i, j] + method.c1[i, j] * r_used - 0.5 * r_used * r_used)
    return EvalResult(value=value, report_used=r_used, clamped=clamped)


# ---------------------------------------------------------------------------
# Aligned and piecewise constructions


def _check_question(problem: DecisionProblem, question: QuestionProfile) -> FloatArray:
    x = question.values
    if x.shape != problem.utility.shape:
        raise SynthesisError(
            f"question shape {x.shape} does not match problem "
            f"shape {problem.utility.shape}"
        )
    return x


def _check_substitution(rebuilt: FloatArray, x: FloatArray, eps: float, message: str) -> None:
    """Raise ``SynthesisError`` with ``message`` (formatted with the residual)
    unless ``rebuilt`` reproduces ``x`` within ``ARBITER_FACTOR * eps``, the
    rule ``_fit`` accepts a fit by.  A NaN residual fails."""
    residual = float(np.abs(rebuilt - x).max())
    if not residual <= ARBITER_FACTOR * eps:
        raise SynthesisError(message.format(residual))


def _part_rows(
    problem: DecisionProblem, cert: AlignmentCertificate, gauge: float, bound: float
) -> list[FloatArray]:
    """``[c0, c1, slope, intercept]`` of one part's actions, in scope order.

    The part pays ``gauge`` times the aligned payment with lower bound
    ``bound``, in the internal report ``sqrt(gauge) * (r - kappa) / gamma``.
    """
    u = problem.utility[[problem.action_index[a] for a in cert.scope]]
    d = np.asarray(cert.d)
    root = float(np.sqrt(gauge))
    gamma, kappa = np.asarray(cert.gamma), np.asarray(cert.kappa)
    if cert.trivial:
        c0, c1 = gauge * (u - bound * d), root * np.broadcast_to(d, u.shape)
    else:
        c0, c1 = gauge * (-bound * (u + d)), root * (u + d)
    return [c0, c1, root / gamma, -(root * kappa) / gamma]


def _constant(rows: list[FloatArray]) -> FloatArray:
    """Each row's payment at raw report zero: its constant term in the raw report."""
    c0, c1, _, intercept = rows
    return c0 + c1 * intercept[:, None] - 0.5 * (intercept * intercept)[:, None]


def _stitch(
    problem: DecisionProblem,
    question: QuestionProfile,
    certs: tuple[AlignmentCertificate, ...],
    tol: float,
    provenance: str,
    alpha: float,
) -> ElicitationMethod:
    """Stitch gauge-scaled aligned parts, one per certificate, into one mechanism.

    Part ``k`` pays ``S_k`` times the aligned payment of its certificate,
    with the lower bound ``L`` shared by every part, plus a state offset
    ``t_k(theta)``.  Breadth-first traversal of the parts that share
    actions fixes the order; the root part has ``S = 1`` and ``t = 0``.
    A new part's gauge makes its payment at a shared action agree with
    the part that reached it in ``r`` and ``r**2``, and its offset fixes
    the constant term.  An action in several parts takes the first part's
    row; ``stitch_discrepancy`` is the largest mismatch of the others.
    """
    x = _check_question(problem, question)
    eps = _eps(x, tol)
    scopes = [[problem.action_index[a] for a in c.scope] for c in certs]
    for rows, c in zip(scopes, certs):
        _check_substitution(
            reconstruct_question(problem, c), x[rows], eps,
            "certificate does not reconstruct the question (residual {:.3e})",
        )
    # A strict lower bound on every part's report coordinate.
    bound = min(
        float((np.asarray(c.d) + (0.0 if c.trivial else problem.utility[rows])).min())
        for rows, c in zip(scopes, certs)
    ) - RANGE_MARGIN
    gauges = {0: 1.0}
    parts = {0: _part_rows(problem, certs[0], 1.0, bound)}
    queue = [0]
    while queue:
        i = queue.pop(0)
        for j, c in enumerate(certs):
            shared = set(certs[i].scope) & set(c.scope)
            if j in gauges or not shared:
                continue
            s = min(shared)
            gauges[j] = gauges[i] * (c.gamma_of(s) / certs[i].gamma_of(s)) ** 2
            parts[j] = _part_rows(problem, c, gauges[j], bound)
            at_s = _constant(parts[i])[certs[i].scope.index(s)]
            parts[j][0] += at_s - _constant(parts[j])[c.scope.index(s)]
            queue.append(j)
    if len(parts) < len(certs):
        raise SynthesisError("parts not chainable via shared splitting actions")

    # Every part's rows in traversal order; ``first`` holds each action's
    # first row, and ``head`` that of each row's action.
    rows = np.concatenate([scopes[j] for j in parts])
    merged = [np.concatenate(f) for f in zip(*parts.values())]
    c0, c1, slope, intercept = merged
    first = np.unique(rows, return_index=True)[1]
    head = first[rows]
    quad, constant = slope * slope, _constant(merged)
    scale = 1.0 + np.abs(x[rows]).max(axis=1)
    discrepancy = max(
        float((np.abs(quad - quad[head]) * scale).max()),
        float(np.abs(constant - constant[head]).max()),
    )
    c1 = c1[first]
    return ElicitationMethod(
        actions=problem.actions,
        states=problem.states,
        report_range=(float(c1.min()) - RANGE_MARGIN, float(c1.max()) + RANGE_MARGIN),
        c0=c0[first],
        c1=c1,
        slope=slope[first],
        intercept=intercept[first],
        provenance=provenance,
        alpha=alpha,
        stitch_discrepancy=discrepancy,
    )


def synth_aligned(
    problem: DecisionProblem,
    question: QuestionProfile,
    cert: AlignmentCertificate,
    alpha: float = 0.5,
    tol: float = ALIGN_RTOL,
) -> ElicitationMethod:
    """Build the quadratic mechanism for a question aligned over all of A.

    The internal report coordinate is ``u(a) + d`` per action (or ``d``
    alone for trivially aligned questions, in which case the utility
    itself enters the constant coefficient), and the internal report is
    ``(r - kappa(a)) / gamma(a)``.  The payment is

        V(r', a, theta) = (u(a;theta) + d(theta)) (r' - L) - r'**2 / 2

    (``d (r' - L) + u - r'**2 / 2`` when trivial), where the lower bound
    ``L`` sits strictly below every attainable coordinate value, which
    makes the optimal payment strictly increasing in expected utility.
    It is the one-part case of :func:`synth_piecewise`'s stitch.
    """
    if set(cert.scope) != set(problem.actions):
        raise SynthesisError("certificate scope does not cover the full action set")
    return _stitch(problem, question, (cert,), tol, "aligned-bdm", alpha)


def synth_piecewise(
    problem: DecisionProblem,
    question: QuestionProfile,
    cert: PiecewiseCertificate,
    alpha: float = 0.5,
    tol: float = ALIGN_RTOL,
) -> ElicitationMethod:
    """Stitch per-part aligned mechanisms into one mechanism over A.

    Part ``k`` pays ``S_k`` times the aligned payment of its certificate
    (see :func:`synth_aligned`), all parts with one lower bound ``L``,
    plus a state offset ``t_k(theta)``, in the internal report
    ``sqrt(S_k) * (r - kappa_k(a)) / gamma_k(a)``.  The positive gauge
    ``S_k`` and the offset ``t_k`` of each part are chosen recursively so
    that the part payments agree exactly, as functions of the raw report
    ``r`` and ``theta``, on every shared splitting action.  Breadth-first
    traversal of the part-intersection structure fixes the order; the
    root part gets gauge 1 and offset 0.  Each part's certificate must
    reproduce the question on its part, as in :func:`synth_aligned`.
    """
    if len(cert.parts) != len(cert.certificates):
        raise SynthesisError("one certificate per part is required")
    if set().union(*(c.scope for c in cert.certificates)) != set(problem.actions):
        raise SynthesisError("piecewise certificate does not cover the action set")
    return _stitch(problem, question, cert.certificates, tol, "piecewise-bdm", alpha)


# ---------------------------------------------------------------------------
# Product construction


def synth_product(
    problem: DecisionProblem,
    product: ProductStructure,
    question: QuestionProfile,
    cert: WeightedAlignmentCertificate,
    alpha: float = 0.5,
    tol: float = ALIGN_RTOL,
) -> ElicitationMethod:
    """Build the mechanism for a task-weighted question on a product problem.

    The certificate's core ``d + sum_i tau_i u_i`` is rescaled into
    [0, 1] with scaled weights below one in magnitude, so every
    per-task incentive coefficient ``1 + r * tau_i`` stays positive
    over the whole report range.  The payment is the global utility
    plus the normalized question times the report minus the usual
    quadratic penalty.
    """
    if tuple(cert.actions) != problem.actions:
        raise SynthesisError("certificate actions do not match the problem")
    x = _check_question(problem, question)
    tables = np.stack(product.task_utility_tables(), axis=-1)
    v, kappa, tau, d = map(np.asarray, (cert.v, cert.kappa, cert.tau, cert.d))
    rebuilt, core = _affine_rows(v, kappa, tau, d, tables)
    _check_substitution(
        rebuilt, x, _eps(x, tol), "certificate residual above tolerance ({:.3e})"
    )
    lo = float(core.min())
    hi = float(core.max())
    scale = max(hi - lo, 1.5 * float(np.max(np.abs(tau))), 1e-12)
    normalized = (core - lo) / scale
    return ElicitationMethod(
        actions=problem.actions,
        states=problem.states,
        report_range=(0.0, 1.0),
        c0=problem.utility.copy(),
        c1=normalized,
        slope=1.0 / (v * scale),
        intercept=-(kappa / v + lo) / scale,
        provenance="product-bdm",
        alpha=alpha,
    )


def synthesize(
    bundle: ProblemBundle, verdict: Verdict, tol: float = ALIGN_RTOL
) -> ElicitationMethod:
    """Dispatch on the verdict's certificate type.

    Only incentivizable verdicts carry a certificate a mechanism can be
    built from; anything else raises ``SynthesisError``.  ``tol`` is the
    tolerance the verdict was decided with.
    """
    if verdict.status != "incentivizable":
        raise SynthesisError(f"cannot synthesize from a {verdict.status!r} verdict")
    if bundle.question is None:
        raise SynthesisError("bundle has no question to elicit")
    cert = verdict.certificate
    if isinstance(cert, AlignmentCertificate):
        return synth_aligned(bundle.problem, bundle.question, cert, bundle.alpha, tol)
    if isinstance(cert, PiecewiseCertificate):
        return synth_piecewise(bundle.problem, bundle.question, cert, bundle.alpha, tol)
    if isinstance(cert, WeightedAlignmentCertificate):
        if bundle.product is None:
            raise SynthesisError("weighted certificate requires a product structure")
        return synth_product(
            bundle.problem, bundle.product, bundle.question, cert, bundle.alpha, tol
        )
    raise SynthesisError("verdict carries no usable certificate")


# ---------------------------------------------------------------------------
# Lottery export


@dataclass(frozen=True)
class LotteryForm:
    """Prize-lottery equivalent of a quadratic mechanism.

    Protocol: draw ``z`` uniformly on [0, 1]; if the report is at least
    ``z``, award the prize with probability equal to the realized
    normalized question value, otherwise with probability ``z``.
    """

    normalized_question: FloatArray
    alpha: float
    protocol: str = "bdm-uniform-z"
    prize: str = "R'"
    advisory: str = _PRIZE_ADVISORY

    def __post_init__(self) -> None:
        values = as_float_matrix(self.normalized_question)
        if values.size and (values.min() < -1e-12 or values.max() > 1.0 + 1e-12):
            raise ValueError("normalized question values must lie in [0, 1]")
        values = np.clip(values, 0.0, 1.0)
        values.setflags(write=False)
        object.__setattr__(self, "normalized_question", values)

    @staticmethod
    def expected_prize_weight(report: float, truth: float) -> float:
        """Expected prize probability given a report and the true expectation.

        Truthful reporting of ``q`` yields ``(1 + q**2) / 2``, strictly
        increasing in ``q`` on [0, 1].
        """
        return report * truth + 0.5 * (1.0 - report * report)


def lottery_form(method: ElicitationMethod) -> LotteryForm:
    """Export the prize-lottery protocol for a supported mechanism."""
    if method.provenance not in _LOTTERY_PROVENANCES:
        raise UnsupportedProvenanceError(
            f"no single lottery form for provenance {method.provenance!r}; "
            "piecewise mechanisms export one lottery per part and the "
            "quadratic control is a negative control only"
        )
    lo, hi = method.report_range
    normalized = (method.c1 - lo) / (hi - lo)
    return LotteryForm(normalized_question=normalized, alpha=method.alpha)


# ---------------------------------------------------------------------------
# Serialization


def method_to_dict(method: ElicitationMethod) -> dict[str, Any]:
    out: dict[str, Any] = {
        "schema": MECHANISM_SCHEMA,
        "provenance": method.provenance,
        "alpha": method.alpha,
        "actions": list(method.actions),
        "states": list(method.states),
        "report_range": [method.report_range[0], method.report_range[1]],
        "transform": {
            "slope": method.slope.tolist(),
            "intercept": method.intercept.tolist(),
        },
        "c0": method.c0.tolist(),
        "c1": method.c1.tolist(),
    }
    if method.provenance == "piecewise-bdm":
        out["stitch_discrepancy"] = method.stitch_discrepancy
    if method.provenance in _LOTTERY_PROVENANCES:
        lottery = lottery_form(method)
        out["lottery"] = {
            "normalized_question": lottery.normalized_question.tolist(),
            "protocol": lottery.protocol,
            "alpha": lottery.alpha,
        }
    return out


def method_from_dict(data: Mapping[str, Any]) -> ElicitationMethod:
    try:
        if data.get("schema") != MECHANISM_SCHEMA:
            raise ValueError(f"unknown mechanism schema {data.get('schema')!r}")
        transform = data["transform"]
        return ElicitationMethod(
            actions=tuple(data["actions"]),
            states=tuple(data["states"]),
            report_range=(
                float(data["report_range"][0]),
                float(data["report_range"][1]),
            ),
            c0=np.asarray(data["c0"], dtype=np.float64),
            c1=np.asarray(data["c1"], dtype=np.float64),
            slope=np.asarray(transform["slope"], dtype=np.float64),
            intercept=np.asarray(transform["intercept"], dtype=np.float64),
            provenance=str(data["provenance"]),
            alpha=float(data["alpha"]),
            stitch_discrepancy=float(data.get("stitch_discrepancy", 0.0)),
        )
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise MechanismFormatError(f"invalid mechanism payload: {exc}") from exc


def dumps_method(method: ElicitationMethod) -> str:
    return canonical_dumps(method_to_dict(method))


def loads_method(text: str) -> ElicitationMethod:
    try:
        data = json.loads(text, parse_constant=_reject_json_constant)
    except (ValueError, RecursionError) as exc:
        raise MechanismFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, Mapping):
        raise MechanismFormatError("mechanism payload must be a JSON object")
    return method_from_dict(data)


def save_method(method: ElicitationMethod, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_method(method))


def load_method(path: str) -> ElicitationMethod:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_method(handle.read())
