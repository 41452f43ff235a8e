"""Mechanism synthesis, evaluation, and the lottery export."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

import elicitkit as ek
from conftest import decide_and_synthesize
from elicitkit.synth import RANGE_MARGIN


def tiny_method(**overrides) -> ek.ElicitationMethod:
    fields = dict(
        actions=("x", "y"),
        states=("s", "t"),
        report_range=(0.0, 1.0),
        c0=np.zeros((2, 2)),
        c1=np.ones((2, 2)),
        slope=np.ones(2),
        intercept=np.zeros(2),
        provenance="aligned-bdm",
    )
    fields.update(overrides)
    return ek.ElicitationMethod(**fields)


# ---------------------------------------------------------------------------
# Construction and validation


def test_method_validation_rejects_bad_fields():
    with pytest.raises(ValueError):
        tiny_method(slope=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        tiny_method(alpha=1.0)
    with pytest.raises(ValueError):
        tiny_method(report_range=(1.0, 1.0))
    with pytest.raises(ValueError):
        tiny_method(provenance="mystery")
    with pytest.raises(ValueError):
        tiny_method(c0=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        tiny_method(stitch_discrepancy=-1.0)


def test_method_arrays_are_read_only(aligned_method):
    with pytest.raises(ValueError):
        aligned_method.c1[0, 0] = 9.0


def test_transform_report():
    method = tiny_method(slope=np.array([2.0, 1.0]), intercept=np.array([0.5, 0.0]))
    assert method.transform_report("x", 0.25) == 1.0
    assert method.transform_report("y", 0.25) == 0.25


# ---------------------------------------------------------------------------
# The aligned route


def test_aligned_mechanism_shape(aligned_method, ql4):
    assert aligned_method.provenance == "aligned-bdm"
    # payoffs live in [-1, 0], so the padded report window is (-2, 1)
    lo, hi = aligned_method.report_range
    assert abs(lo + 2.0) < 1e-9
    assert abs(hi - 1.0) < 1e-9
    # internal coefficients are the transform image of the question rows
    expected = (
        aligned_method.slope[:, None] * ek.build_question("expected-payoff", ql4).values
        + aligned_method.intercept[:, None]
    )
    np.testing.assert_allclose(aligned_method.c1, expected, atol=1e-12)


def test_truthful_report_maximizes_payment(aligned_method):
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = rng.dirichlet(np.ones(len(aligned_method.states)))
        for action in aligned_method.actions[:2]:
            r_star, value = ek.expected_payoff(aligned_method, p, action)
            for shift in (-0.05, 0.05):
                shifted = 0.0
                for state, prob in zip(aligned_method.states, p):
                    shifted += prob * ek.eval_method(
                        aligned_method, r_star + shift, action, state
                    ).value
                assert shifted < value - 1e-6


def test_synthesize_requires_a_positive_verdict(within_bundle):
    verdict = ek.decide_incentivizable(within_bundle)
    with pytest.raises(ek.SynthesisError):
        ek.synthesize(within_bundle, verdict)


def test_synth_aligned_rejects_partial_scope(ql4):
    question = ek.build_question("expected-payoff", ql4)
    cert = ek.alignment_on_set(ql4, question, actions=ql4.actions[:2])
    with pytest.raises(ek.SynthesisError):
        ek.synth_aligned(ql4, question, cert)


def test_synthesis_refuses_a_question_of_another_shape(ql4):
    question = ek.build_question("expected-payoff", ql4)
    cert = ek.alignment_on_set(ql4, question)
    with pytest.raises(ek.SynthesisError, match="does not match problem shape"):
        ek.synth_aligned(ql4, ek.QuestionProfile(question.values[:, :4]), cert)


def test_trivial_question_synthesizes_and_verifies():
    problem = ek.make_state_matching([1.0, 2.0])
    bundle = ek.ProblemBundle(
        problem=problem, question=ek.QuestionProfile(values=[[1.0, 0.0], [2.0, 0.0]])
    )
    method = decide_and_synthesize(bundle)
    report = ek.verify_incentivizability(bundle, method)
    assert report.passed


def test_alpha_flows_from_the_bundle(ql4):
    bundle = ek.ProblemBundle(
        problem=ql4, question=ek.build_question("expected-payoff", ql4), alpha=0.3
    )
    method = decide_and_synthesize(bundle)
    assert method.alpha == 0.3


# ---------------------------------------------------------------------------
# The piecewise route


def test_piecewise_mechanism_stitches_exactly(chained_bundle):
    method = decide_and_synthesize(chained_bundle)
    assert method.provenance == "piecewise-bdm"
    assert method.stitch_discrepancy <= 1e-12
    expected = (
        method.slope[:, None] * chained_bundle.question.values
        + method.intercept[:, None]
    )
    np.testing.assert_allclose(method.c1, expected, atol=1e-9)


def test_piecewise_synthesis_checks_each_part_by_substitution(chained_bundle):
    verdict = ek.decide_incentivizable(chained_bundle)
    cert = verdict.certificate
    last = cert.certificates[-1]
    tampered = replace(last, kappa=(last.kappa[0] + 1.0, *last.kappa[1:]))
    certificates = (*cert.certificates[:-1], tampered)
    bad = replace(verdict, certificate=replace(cert, certificates=certificates))
    with pytest.raises(ek.SynthesisError, match="does not reconstruct the question"):
        ek.synthesize(chained_bundle, bad)


def test_piecewise_synthesis_refuses_malformed_part_lists(chained_bundle):
    verdict = ek.decide_incentivizable(chained_bundle)
    cert = verdict.certificate
    assert len(cert.parts) == 3
    for broken, message in (
        (replace(cert, parts=cert.parts[:1], certificates=cert.certificates[:1]), "does not cover"),
        (replace(cert, certificates=cert.certificates[:2]), "one certificate per part"),
        # the first and last parts cover every action but share none
        (
            replace(cert, parts=cert.parts[::2], certificates=cert.certificates[::2]),
            "not chainable",
        ),
    ):
        with pytest.raises(ek.SynthesisError, match=message):
            ek.synthesize(chained_bundle, replace(verdict, certificate=broken))


def _probe_part_rows(problem, x, part, cert, gauge, offset, bound):
    """One part's rows per action, each shifted by ``offset``, in the raw
    report: intercept 0 and ``c1 = slope * X``.

    Each row is ``(quad, constant, c0, c1, slope, intercept)``, ``quad`` and
    ``constant`` being the payment's ``r**2`` weight and its constant term in
    the raw report ``r``.
    """
    rows = {}
    root = float(np.sqrt(gauge))
    for label in part:
        ia = problem.action_index[label]
        g = cert.gamma_of(label)
        k = cert.kappa_of(label)
        xa = x[ia]
        quad = gauge / (g * g)
        const = (
            quad * (0.5 * k * k - xa * k)
            - (gauge / g) * (xa - k) * bound
            + (gauge if cert.trivial else 0.0) * problem.utility[ia]
            + offset
        )
        rows[label] = (quad, const, const, (root / g) * xa, root / g, 0.0)
    return rows


def _probe_gauged_rows(problem, x, part, cert, gauge, offset, bound):
    """One part's rows per action, as ``_probe_part_rows`` gives them, for
    ``gauge`` times the aligned payment: internal report
    ``sqrt(gauge) * (r - kappa) / gamma`` and ``c1 = sqrt(gauge) * (u + d)``,
    or ``sqrt(gauge) * d`` for a trivial part."""
    rows = {}
    root = float(np.sqrt(gauge))
    d = np.asarray(cert.d)
    for label in part:
        ia = problem.action_index[label]
        g = cert.gamma_of(label)
        k = cert.kappa_of(label)
        u = problem.utility[ia]
        if cert.trivial:
            c0, c1 = gauge * (u - bound * d), root * d
        else:
            c0, c1 = gauge * (-bound * (u + d)), root * (u + d)
        c0 = c0 + offset
        m, b = root / g, -(root * k) / g
        rows[label] = (m * m, c0 + c1 * b - 0.5 * (b * b), c0, c1, m, b)
    return rows


def _probe_stitched(bundle, cert, part_rows=_probe_part_rows):
    """The piecewise mechanism stitched part by part, each new part's offset
    solved from a one-action probe of its shared action at offset zero."""
    problem, x = bundle.problem, bundle.question.values
    index = problem.action_index
    n_parts = len(cert.parts)
    coords = (
        np.asarray(pc.d) + (0.0 if pc.trivial else problem.utility[[index[a] for a in part]])
        for part, pc in zip(cert.parts, cert.certificates)
    )
    bound = min(float(c.min()) for c in coords) - RANGE_MARGIN
    part_sets = [frozenset(p) for p in cert.parts]
    gauges = [1.0] + [None] * (n_parts - 1)
    offsets = [np.zeros(problem.n_states)] + [None] * (n_parts - 1)
    rows_of = {}
    queue = [0]
    while queue:
        i = queue.pop(0)
        rows_i = rows_of[i] = part_rows(
            problem, x, cert.parts[i], cert.certificates[i], gauges[i], offsets[i], bound
        )
        for j in range(n_parts):
            shared = part_sets[i] & part_sets[j]
            if gauges[j] is not None or not shared:
                continue
            s = min(shared)
            ratio = cert.certificates[j].gamma_of(s) / cert.certificates[i].gamma_of(s)
            gauges[j] = gauges[i] * ratio**2
            zero = np.zeros(problem.n_states)
            probe = part_rows(problem, x, (s,), cert.certificates[j], gauges[j], zero, bound)
            offsets[j] = rows_i[s][1] - probe[s][1]
            queue.append(j)
    assert all(g is not None for g in gauges)
    c0 = np.zeros(problem.utility.shape)
    c1 = np.zeros_like(c0)
    slope = np.zeros(problem.n_actions)
    intercept = np.zeros(problem.n_actions)
    first_rows = {}
    discrepancy = 0.0
    for rows in rows_of.values():
        for label, (quad, const, *row) in rows.items():
            ia = index[label]
            if ia in first_rows:
                scale = 1.0 + float(np.max(np.abs(x[ia])))
                first_quad, first_const = first_rows[ia]
                discrepancy = max(
                    discrepancy,
                    abs(quad - first_quad) * scale,
                    float(np.max(np.abs(const - first_const))),
                )
            else:
                first_rows[ia] = quad, const
                c0[ia], c1[ia], slope[ia], intercept[ia] = row
    return ek.ElicitationMethod(
        actions=problem.actions,
        states=problem.states,
        report_range=(float(c1.min()) - RANGE_MARGIN, float(c1.max()) + RANGE_MARGIN),
        c0=c0,
        c1=c1,
        slope=slope,
        intercept=intercept,
        provenance="piecewise-bdm",
        alpha=bundle.alpha,
        stitch_discrepancy=discrepancy,
    )


def _stitched_problems(rng: np.random.Generator) -> list[ek.DecisionProblem]:
    problems = [ek.make_quadratic_loss(n) for n in range(2, 8)]
    problems += [
        ek.make_star(int(n), float(s))
        for n, s in zip(rng.integers(3, 7, size=12), rng.uniform(0.1, 0.9, size=12))
    ]
    problems += [
        ek.make_close_guess(list(rng.uniform(0.5, 3.0, size=int(n))))
        for n in rng.integers(3, 7, size=12)
    ]
    problems.append(ek.make_cycle_rich_safe())
    random = []
    while len(random) < 100:
        k, m = int(rng.integers(2, 5)), int(rng.integers(3, 8))
        problem = ek.DecisionProblem(
            states=tuple(f"s{i}" for i in range(k)),
            actions=tuple(f"a{i}" for i in range(m)),
            utility=rng.integers(0, 10, size=(m, k)).astype(float),
        )
        if ek.validate_problem(problem).passed:
            random.append(problem)
    return problems + random


def _stitched_questions(
    problem: ek.DecisionProblem, rng: np.random.Generator, count: int
) -> list[ek.QuestionProfile]:
    """Questions aligned part by part, each part with its own gamma, kappa
    and offset d (a fifth of the parts trivially aligned), the parts walked
    breadth first; a part's d is solved from its first action already set,
    as in ``build_chained_gauge_bundle``."""
    graph = ek.adjacency_graph(problem)
    if not ek.classify_graph(graph).connected:
        return []
    parts = ek.splitting_collection(graph).parts
    if len(parts) < 2:
        return []
    questions = []
    for _ in range(count):
        x: dict[str, np.ndarray] = {}
        queue, reached = [0], {0}
        while queue:
            part = parts[queue.pop(0)]
            u = np.zeros_like(problem.utility) if rng.uniform() < 0.2 else problem.utility
            rows = [problem.action_index[a] for a in part]
            gamma = rng.choice([-1.0, 1.0], size=len(part)) * rng.uniform(0.5, 3.0, size=len(part))
            kappa = rng.uniform(-1.0, 1.0, size=len(part))
            shared = [i for i, a in enumerate(part) if a in x]
            if shared:
                i = shared[0]
                d = (x[part[i]] - kappa[i]) / gamma[i] - u[rows[i]]
            else:
                d = rng.normal(size=problem.n_states)
            for a, row, g, k in zip(part, rows, gamma, kappa):
                x.setdefault(a, g * (u[row] + d) + k)
            for j, other in enumerate(parts):
                if j not in reached and set(other) & set(part):
                    reached.add(j)
                    queue.append(j)
        questions.append(ek.QuestionProfile(values=np.array([x[a] for a in problem.actions])))
    return questions


def _stitched_verdicts():
    """The ``(bundle, verdict)`` of every seeded stitched question that
    ``decide_incentivizable`` answers by piecewise alignment."""
    rng = np.random.default_rng(1)
    for problem in _stitched_problems(rng):
        for question in _stitched_questions(problem, rng, 10):
            bundle = ek.ProblemBundle(
                problem=problem, question=question, alpha=float(rng.uniform(0.2, 0.8))
            )
            verdict = ek.decide_incentivizable(bundle)
            if verdict.theorem == "piecewise-alignment-sufficiency":
                yield bundle, verdict


def test_piecewise_mechanisms_keep_the_bytes_of_probe_stitching():
    # Each part's rows come once, at offset zero, and a new part's offset is
    # read from rows already built: every byte of the mechanism stays.
    stitched = 0
    for bundle, verdict in _stitched_verdicts():
        stitched += 1
        method = ek.synthesize(bundle, verdict)
        want = _probe_stitched(bundle, verdict.certificate, _probe_gauged_rows)
        assert ek.dumps_method(method) == ek.dumps_method(want)
    assert stitched >= 200


def _raw_payments(method, reports):
    """``V[a, theta, r]``: the payment at each raw report, unclamped."""
    internal = method.slope[:, None] * reports + method.intercept[:, None]
    return (
        method.c0[:, :, None]
        + method.c1[:, :, None] * internal[:, None, :]
        - 0.5 * (internal * internal)[:, None, :]
    )


def test_piecewise_payments_equal_the_raw_report_stitching():
    # The gauge-scaled aligned parts change only the internal report
    # coordinate: as a function of the raw report and the state, every
    # payment is the one stitched in the raw report.
    stitched = 0
    for bundle, verdict in _stitched_verdicts():
        stitched += 1
        method = ek.synthesize(bundle, verdict)
        reference = _probe_stitched(bundle, verdict.certificate)
        x = bundle.question.values
        reports = np.linspace(x.min() - 1.0, x.max() + 1.0, 9)
        want = _raw_payments(reference, reports)
        got = _raw_payments(method, reports)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert method.stitch_discrepancy <= 1e-12 * (1.0 + np.abs(want).max())
        expected = method.slope[:, None] * x + method.intercept[:, None]
        np.testing.assert_allclose(method.c1, expected, rtol=0, atol=1e-9 * (1.0 + np.abs(x).max()))
    assert stitched >= 200


# ---------------------------------------------------------------------------
# The product route


def test_product_mechanism_basics(mc32_bundle):
    method = decide_and_synthesize(mc32_bundle)
    assert method.provenance == "product-bdm"
    assert method.report_range == (0.0, 1.0)
    assert method.c1.min() >= -1e-12 and method.c1.max() <= 1.0 + 1e-12
    # a zero report hands back exactly the expected decision payoff
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = rng.dirichlet(np.ones(mc32_bundle.problem.n_states))
        for g, action in enumerate(mc32_bundle.problem.actions):
            at_zero = float(p @ method.c0[g])
            expected_u = float(p @ mc32_bundle.problem.utility[g])
            assert abs(at_zero - expected_u) < 1e-12, action


def test_product_synthesis_refuses_a_certificate_it_cannot_use(mc32_bundle):
    verdict = ek.decide_incentivizable(mc32_bundle)
    cert = verdict.certificate
    problem, product, question = mc32_bundle.problem, mc32_bundle.product, mc32_bundle.question
    reversed_actions = replace(cert, actions=cert.actions[::-1])
    with pytest.raises(ek.SynthesisError, match="actions do not match"):
        ek.synth_product(problem, product, question, reversed_actions)
    shifted = replace(cert, kappa=tuple(k + 1.0 for k in cert.kappa))
    with pytest.raises(ek.SynthesisError, match="residual above tolerance"):
        ek.synth_product(problem, product, question, shifted)
    with pytest.raises(ek.SynthesisError, match="requires a product structure"):
        ek.synthesize(ek.ProblemBundle(problem=problem, question=question), verdict)
    with pytest.raises(ek.SynthesisError, match="no question"):
        ek.synthesize(ek.ProblemBundle(problem=problem, product=product), verdict)
    with pytest.raises(ek.SynthesisError, match="no usable certificate"):
        ek.synthesize(mc32_bundle, replace(verdict, certificate=None))


def _nan_aligned(ql4, chained_bundle, mc32_bundle):
    bundle = ek.ProblemBundle(problem=ql4, question=ek.build_question("expected-payoff", ql4))
    cert = ek.decide_incentivizable(bundle).certificate
    broken = replace(cert, kappa=(float("nan"), *cert.kappa[1:]))
    return lambda: ek.synth_aligned(ql4, bundle.question, broken), "does not reconstruct"


def _nan_piecewise(ql4, chained_bundle, mc32_bundle):
    verdict = ek.decide_incentivizable(chained_bundle)
    cert = verdict.certificate
    part = cert.certificates[1]
    broken = replace(part, gamma=(*part.gamma[:-1], float("nan")))
    certificates = (cert.certificates[0], broken, *cert.certificates[2:])
    bad = replace(verdict, certificate=replace(cert, certificates=certificates))
    return lambda: ek.synthesize(chained_bundle, bad), "does not reconstruct"


def _nan_product(ql4, chained_bundle, mc32_bundle):
    problem, product, question = mc32_bundle.problem, mc32_bundle.product, mc32_bundle.question
    cert = ek.decide_incentivizable(mc32_bundle).certificate
    broken = replace(cert, v=(float("nan"), *cert.v[1:]))
    return lambda: ek.synth_product(problem, product, question, broken), "above tolerance"


@pytest.mark.parametrize(
    "build", [_nan_aligned, _nan_piecewise, _nan_product], ids=["aligned", "piecewise", "product"]
)
def test_synthesis_refuses_a_nan_certificate_by_its_residual(
    build, ql4, chained_bundle, mc32_bundle
):
    # A NaN residual compares false with every tolerance: the check must
    # refuse it rather than let the NaN reach the mechanism's coefficients.
    synthesize, message = build(ql4, chained_bundle, mc32_bundle)
    with pytest.raises(ek.SynthesisError, match=f"{message}.*nan"):
        synthesize()


# ---------------------------------------------------------------------------
# Evaluation


def test_eval_method_quadratic_identity():
    method = tiny_method()
    result = ek.eval_method(method, 1.0, "x", "s")
    assert result.value == pytest.approx(0.5)
    assert not result.clamped


def test_eval_method_clamps_out_of_range_reports():
    method = tiny_method()
    high = ek.eval_method(method, 1.2, "x", "s")
    assert high.clamped
    assert high.report_used == pytest.approx(1.1)
    assert high.value == pytest.approx(1.1 - 0.5 * 1.1**2)
    low = ek.eval_method(method, -0.2, "x", "s")
    assert low.clamped
    assert low.report_used == pytest.approx(-0.1)


def test_eval_method_raw_reports_are_transformed():
    method = tiny_method(slope=np.array([2.0, 2.0]), intercept=np.array([0.1, 0.1]))
    cooked = ek.eval_method(method, 0.3, "x", "s", raw=True)
    direct = ek.eval_method(method, 2.0 * 0.3 + 0.1, "x", "s")
    assert cooked.value == direct.value
    assert cooked.report_used == direct.report_used


def test_eval_method_second_difference_is_constant(aligned_method):
    # V(r) = A + B r - r^2 / 2, so the central second difference is -h^2
    h = 0.125
    values = [
        ek.eval_method(aligned_method, r, "0.5", "0.5").value
        for r in (-0.5 - h, -0.5, -0.5 + h)
    ]
    assert values[0] - 2 * values[1] + values[2] == pytest.approx(-h * h, abs=1e-12)


def test_eval_method_rejects_unknown_labels(aligned_method):
    with pytest.raises(ValueError):
        ek.eval_method(aligned_method, 0.0, "zzz", "0")


def test_eval_method_rejects_a_non_finite_report():
    with pytest.raises(ValueError, match="must be finite"):
        ek.eval_method(tiny_method(), float("nan"), "x", "s")


# ---------------------------------------------------------------------------
# Lottery export


def test_lottery_form_normalization(aligned_method):
    lottery = ek.lottery_form(aligned_method)
    assert lottery.protocol == "bdm-uniform-z"
    assert lottery.normalized_question.min() >= 0.0
    assert lottery.normalized_question.max() <= 1.0
    assert "alpha * R" in lottery.advisory


def test_lottery_form_rejects_values_outside_the_unit_interval():
    with pytest.raises(ValueError, match="must lie in"):
        ek.LotteryForm(normalized_question=np.array([[0.0, 1.5]]), alpha=0.5)


def test_lottery_value_law():
    for q in np.linspace(0.0, 1.0, 11):
        weight = ek.LotteryForm.expected_prize_weight(q, q)
        assert abs(weight - (1.0 + q * q) / 2.0) <= 1e-12


def test_lottery_rejects_unsupported_provenances(chained_bundle):
    piecewise = decide_and_synthesize(chained_bundle)
    with pytest.raises(ek.UnsupportedProvenanceError):
        ek.lottery_form(piecewise)
    problem = ek.make_state_matching([1.0, 2.0])
    control = ek.make_quadratic_control(
        problem, ek.build_question("expected-payoff", problem)
    )
    with pytest.raises(ek.UnsupportedProvenanceError):
        ek.lottery_form(control)


# ---------------------------------------------------------------------------
# Serialization


def test_method_round_trip_is_byte_stable(aligned_method):
    text = ek.dumps_method(aligned_method)
    reloaded = ek.loads_method(text)
    assert ek.dumps_method(reloaded) == text
    assert reloaded.provenance == aligned_method.provenance
    np.testing.assert_array_equal(reloaded.c0, aligned_method.c0)


def test_method_round_trip_keeps_stitch_discrepancy(chained_bundle):
    method = decide_and_synthesize(chained_bundle)
    reloaded = ek.loads_method(ek.dumps_method(method))
    assert reloaded.stitch_discrepancy == method.stitch_discrepancy


def test_method_schema_is_enforced(aligned_method):
    data = json.loads(ek.dumps_method(aligned_method))
    assert data["schema"] == ek.MECHANISM_SCHEMA
    data["schema"] = "nope"
    with pytest.raises(ek.MechanismFormatError):
        ek.loads_method(ek.canonical_dumps(data))
    with pytest.raises(ek.MechanismFormatError):
        ek.loads_method("not json at all")
    with pytest.raises(ek.MechanismFormatError, match="must be a JSON object"):
        ek.loads_method("[1, 2]")


def test_method_loader_rejects_non_finite_json_constants(aligned_method):
    data = json.loads(ek.dumps_method(aligned_method))
    data["lottery"]["alpha"] = float("nan")
    with pytest.raises(ek.MechanismFormatError, match="NaN is not a finite number"):
        ek.loads_method(json.dumps(data))


def test_save_and_load_method(tmp_path, aligned_method):
    path = tmp_path / "mechanism.json"
    ek.save_method(aligned_method, str(path))
    reloaded = ek.load_method(str(path))
    assert ek.dumps_method(reloaded) == ek.dumps_method(aligned_method)
