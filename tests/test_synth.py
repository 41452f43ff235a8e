"""Mechanism synthesis, evaluation, and the lottery export."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

import elicitkit as ek
from conftest import decide_and_synthesize


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


# ---------------------------------------------------------------------------
# Lottery export


def test_lottery_form_normalization(aligned_method):
    lottery = ek.lottery_form(aligned_method)
    assert lottery.protocol == "bdm-uniform-z"
    assert lottery.normalized_question.min() >= 0.0
    assert lottery.normalized_question.max() <= 1.0
    assert "alpha * R" in lottery.advisory


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
