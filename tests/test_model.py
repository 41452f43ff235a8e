"""Data model, canonical JSON, generators, and question builders."""

from __future__ import annotations

import json

import numpy as np
import pytest

import elicitkit as ek
from elicitkit import canonical_dumps


# ---------------------------------------------------------------------------
# Canonical JSON


def test_canonical_dumps_exact_bytes():
    # sorted keys, compact separators, shortest-faithful floats, newline
    text = canonical_dumps({"b": 1.0, "a": 0.5, "c": [1, 2.25e-17]})
    assert text == '{"a":0.5,"b":1,"c":[1,2.2499999999999999e-17]}\n'


def test_canonical_dumps_scalars():
    assert canonical_dumps({"x": True, "y": None, "z": "s"}) == '{"x":true,"y":null,"z":"s"}\n'


def test_canonical_dumps_round_trip_idempotent():
    payload = {"m": [[1.0, 0.25], [1e-300, 3.000000000000001]], "n": "label", "o": -7}
    once = canonical_dumps(payload)
    again = canonical_dumps(json.loads(once))
    assert once == again


def test_canonical_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("nan")})
    with pytest.raises(ValueError):
        canonical_dumps([float("inf")])


def test_canonical_dumps_rejects_non_string_keys():
    with pytest.raises(TypeError):
        canonical_dumps({1: "x"})


def test_canonical_dumps_handles_numpy_arrays():
    text = canonical_dumps({"v": np.array([0.5, 0.25])})
    assert text == '{"v":[0.5,0.25]}\n'


# ---------------------------------------------------------------------------
# Core types


def test_problem_rejects_bad_shapes_and_labels():
    with pytest.raises(ValueError):
        ek.DecisionProblem(states=("a", "b"), actions=("x", "y"), utility=[[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        ek.DecisionProblem(states=("a", "b"), actions=("x", "x"), utility=[[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        ek.DecisionProblem(states=("a",), actions=("x", "y"), utility=[[1], [0]])
    with pytest.raises(ValueError):
        ek.DecisionProblem(states=("a", "b"), actions=("x", "y"), utility=[[1, float("nan")], [0, 1]])


def test_problem_utility_is_read_only():
    problem = ek.DecisionProblem(states=("a", "b"), actions=("x", "y"), utility=[[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        problem.utility[0, 0] = 5.0
    assert problem.utility_of("y").tolist() == [0.0, 1.0]


def test_question_profile_rejects_non_finite():
    with pytest.raises(ValueError):
        ek.QuestionProfile(values=[[1.0, float("inf")], [0.0, 1.0]])


def test_bundle_alpha_must_be_interior():
    problem = ek.make_state_matching([1.0, 2.0])
    with pytest.raises(ValueError):
        ek.ProblemBundle(problem=problem, alpha=1.2)
    with pytest.raises(ValueError):
        ek.ProblemBundle(problem=problem, alpha=0.0)


# ---------------------------------------------------------------------------
# Generators


def test_quadratic_loss_shape_and_payoffs():
    problem = ek.make_quadratic_loss(2)
    assert problem.actions == ("0", "0.5", "1")
    assert problem.states == ("0", "0.5", "1")
    # u(a, theta) = -(a - theta)^2
    assert problem.utility_of("0").tolist() == [0.0, -0.25, -1.0]


def test_quadratic_loss_uses_twelve_digit_labels():
    problem = ek.make_quadratic_loss(3)
    assert problem.actions == ("0", "0.333333333333", "0.666666666667", "1")


def test_star_layout():
    problem = ek.make_star(3, 0.6)
    assert problem.actions == ("theta0", "theta1", "theta2", "safe")
    assert problem.states == ("theta0", "theta1", "theta2")
    expected = np.vstack([np.eye(3), 0.6 * np.ones(3)])
    np.testing.assert_array_equal(problem.utility, expected)


def test_state_matching_is_diagonal():
    problem = ek.make_state_matching([0.7, 1.0, 1.3])
    assert problem.actions == ("1", "2", "3")
    np.testing.assert_array_equal(problem.utility, np.diag([0.7, 1.0, 1.3]))


def test_close_guess_gives_half_credit_next_door():
    problem = ek.make_close_guess([0.7, 1.0, 1.3, 1.6])
    expected = np.array(
        [
            [0.7, 0.5, 0.0, 0.0],
            [0.35, 1.0, 0.65, 0.0],
            [0.0, 0.5, 1.3, 0.8],
            [0.0, 0.0, 0.65, 1.6],
        ]
    )
    np.testing.assert_allclose(problem.utility, expected)


def test_mc_test_labels_and_size():
    problem, product = ek.make_mc_test(2, 2)
    assert problem.actions == ("0|0", "0|1", "1|0", "1|1")
    assert problem.n_states == 4
    assert product.n_tasks == 2


def test_cycle_rich_safe_layout():
    problem = ek.make_cycle_rich_safe()
    assert problem.actions == ("theta0", "theta1", "theta2", "theta3", "safe")
    assert problem.states == ("theta0", "theta1", "theta2", "theta3")
    np.testing.assert_allclose(problem.utility[4], 0.3 * np.ones(4))
    np.testing.assert_allclose(np.diag(problem.utility[:4]), [0.5, 0.5, 1.0, 1.0])


def test_generator_registry_covers_all_generators():
    assert sorted(ek.GENERATORS) == [
        "close-guess",
        "cycle-rich-safe",
        "mc-test",
        "quadratic-loss",
        "star",
        "state-matching",
    ]
    for name, fn in ek.GENERATORS.items():
        # every registry entry returns (problem, product-or-None)
        args = {
            "quadratic-loss": (3,),
            "star": (3, 0.6),
            "state-matching": ((1.0, 2.0),),
            "close-guess": ((1.0, 2.0, 3.0),),
            "mc-test": (2, 2),
            "cycle-rich-safe": (),
        }[name]
        problem, product = fn(*args)
        assert isinstance(problem, ek.DecisionProblem)
        assert product is None or isinstance(product, ek.ProductStructure)


# ---------------------------------------------------------------------------
# Product structure


def test_expand_product_sums_task_utilities():
    t1 = ek.DecisionProblem(states=("s0", "s1"), actions=("a", "b"), utility=[[1, 0], [0, 1]])
    t2 = ek.DecisionProblem(states=("t0", "t1"), actions=("x", "y"), utility=[[2, 0], [0, 2]])
    joint, product = ek.expand_product([t1, t2])
    assert joint.actions == ("a|x", "a|y", "b|x", "b|y")
    assert joint.states == ("s0|t0", "s0|t1", "s1|t0", "s1|t1")
    # action (a, x) earns 1{s=s0} + 2*1{t=t0}
    assert joint.utility[0].tolist() == [3.0, 1.0, 2.0, 0.0]
    assert product.action_coord_array.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


# ---------------------------------------------------------------------------
# Question builders


def test_regret_question():
    problem = ek.make_state_matching([1.0, 2.0])
    question = ek.build_question("regret", problem)
    # per-state best is (1, 2); regret is best minus own payoff
    assert question.values.tolist() == [[0.0, 2.0], [1.0, 0.0]]


def test_expected_payoff_question_copies_utility():
    problem = ek.make_state_matching([1.0, 2.0])
    question = ek.build_question("expected-payoff", problem)
    np.testing.assert_array_equal(question.values, problem.utility)


def test_ex_post_optimality_question():
    problem = ek.make_state_matching([1.0, 2.0])
    question = ek.build_question("ex-post-optimality", problem)
    assert question.values.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_within_x_question_on_numeric_labels():
    problem = ek.make_quadratic_loss(4)
    question = ek.build_question("within-x", problem, x=0.25)
    assert question.values[0].tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]


def test_within_x_rejects_non_numeric_labels():
    problem = ek.make_star(3, 0.5)
    with pytest.raises(ValueError):
        ek.build_question("within-x", problem, x=0.1)


def test_threshold_question_counts_total_score():
    problem, product = ek.make_mc_test(2, 2)
    question = ek.build_question("threshold", problem, product, z=2)
    # both answers must be right, so the indicator is the identity here
    np.testing.assert_array_equal(question.values, np.eye(4))


def test_improvement_question_is_late_minus_early():
    problem, product = ek.make_mc_test(2, 2)
    question = ek.build_question("improvement", problem, product, split=1)
    expected = np.array(
        [
            [0.0, -1.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, -1.0, 0.0],
        ]
    )
    np.testing.assert_array_equal(question.values, expected)


def test_build_question_rejects_bad_inputs():
    problem = ek.make_state_matching([1.0, 2.0])
    with pytest.raises(ValueError):
        ek.build_question("nope", problem)
    with pytest.raises(KeyError):
        ek.build_question("within-x", problem)
    with pytest.raises(ValueError):
        ek.build_question("threshold", problem, z=1)
    joint, product = ek.make_mc_test(2, 2)
    with pytest.raises(ValueError):
        ek.build_question("improvement", joint, product, split=2)


# ---------------------------------------------------------------------------
# Validation


def test_validate_problem_flags_duplicate_actions():
    problem = ek.DecisionProblem(
        states=("s0", "s1"), actions=("a0", "a1", "a2"), utility=[[1, 0], [1, 0], [0, 1]]
    )
    report = ek.validate_problem(problem)
    assert not report.passed
    assert ("a0", "a1") in report.redundant_pairs


def test_validate_problem_flags_never_optimal_action():
    # (0.4, 0.4) loses to max(p, 1 - p) >= 0.5 at every belief
    problem = ek.DecisionProblem(
        states=("s0", "s1"), actions=("a0", "a1", "a2"), utility=[[1, 0], [0.4, 0.4], [0, 1]]
    )
    report = ek.validate_problem(problem)
    assert not report.passed
    assert report.redundant_pairs == ()
    assert [name for name, _ in report.non_rationalizable] == ["a1"]


def test_validate_problem_accepts_generators():
    for problem in (
        ek.make_quadratic_loss(4),
        ek.make_star(4, 0.6),
        ek.make_state_matching([0.7, 1.0, 1.3, 1.6]),
        ek.make_close_guess([0.7, 1.0, 1.3, 1.6]),
        ek.make_cycle_rich_safe(),
    ):
        assert ek.validate_problem(problem).passed, problem.actions


def test_validate_problem_names_an_lp_that_does_not_finish(stalled_lps):
    with pytest.raises(
        ek.LPFailure, match=r"the max-slack LP of 0 did not finish: .*kIterationLimit"
    ):
        ek.validate_problem(ek.make_quadratic_loss(4))


# ---------------------------------------------------------------------------
# Bundle serialization


def test_bundle_round_trip_is_byte_stable():
    problem = ek.make_state_matching([1.0, 2.0])
    bundle = ek.ProblemBundle(
        problem=problem,
        question=ek.build_question("regret", problem),
        metadata={"source": "unit-test"},
    )
    text = ek.dumps_bundle(bundle)
    reloaded = ek.loads_bundle(text)
    assert ek.dumps_bundle(reloaded) == text
    assert reloaded.metadata == {"source": "unit-test"}
    np.testing.assert_array_equal(reloaded.question.values, bundle.question.values)


def test_bundle_round_trip_keeps_product_structure():
    problem, product = ek.make_mc_test(2, 2)
    bundle = ek.ProblemBundle(
        problem=problem,
        question=ek.build_question("threshold", problem, product, z=1),
        product=product,
    )
    reloaded = ek.loads_bundle(ek.dumps_bundle(bundle))
    assert reloaded.product is not None
    assert reloaded.product.n_tasks == 2
    assert ek.dumps_bundle(reloaded) == ek.dumps_bundle(bundle)


@pytest.mark.parametrize("table", ["state_coords", "action_coords"])
@pytest.mark.parametrize("index", [9, -1])
def test_out_of_range_product_coordinates_are_a_format_error(table, index):
    problem, product = ek.make_mc_test(2, 2)
    data = json.loads(ek.dumps_bundle(ek.ProblemBundle(problem=problem, product=product)))
    data["product"][table][0][0] = index
    with pytest.raises(ek.BundleFormatError, match="out of range"):
        ek.loads_bundle(json.dumps(data))


def _mc_test_payload() -> dict:
    problem, product = ek.make_mc_test(2, 2)
    return json.loads(ek.dumps_bundle(ek.ProblemBundle(problem=problem, product=product)))


def _with_action_coords(data: dict, coords: list[list[int]]) -> dict:
    """``data`` with new action coordinates and the utility they add up to."""
    tasks = [np.asarray(task["utility"], dtype=float) for task in data["product"]["tasks"]]
    states = data["product"]["state_coords"]
    data["product"]["action_coords"] = coords
    data["utility"] = [
        [float(sum(u[a[t], s[t]] for t, u in enumerate(tasks))) for s in states] for a in coords
    ]
    return data


@pytest.mark.parametrize("table", ["state_coords", "action_coords"])
@pytest.mark.parametrize("value", [1.5, 1.0, True])
def test_product_coordinates_must_be_integers(table, value):
    data = _mc_test_payload()
    data["product"][table][1][1] = value
    with pytest.raises(ek.BundleFormatError, match="not an integer"):
        ek.loads_bundle(json.dumps(data))


def test_product_coordinates_must_not_repeat():
    data = _with_action_coords(_mc_test_payload(), [[0, 0], [0, 0], [1, 0], [1, 1]])
    with pytest.raises(ek.BundleFormatError, match="each combination of task actions once"):
        ek.loads_bundle(json.dumps(data))


def test_product_coordinates_may_come_in_any_order():
    data = _with_action_coords(_mc_test_payload(), [[1, 1], [0, 0], [1, 0], [0, 1]])
    bundle = ek.loads_bundle(json.dumps(data))
    assert bundle.product.action_coords == ((1, 1), (0, 0), (1, 0), (0, 1))


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_bundle_loader_rejects_non_finite_json_constants(constant):
    problem = ek.make_state_matching([1.0, 2.0])
    text = ek.dumps_bundle(ek.ProblemBundle(problem=problem, metadata={"a": 1}))
    with pytest.raises(ek.BundleFormatError, match=f"{constant} is not a finite number"):
        ek.loads_bundle(text.replace('"a":1', f'"a":{constant}'))


def test_bundle_schema_is_enforced():
    problem = ek.make_state_matching([1.0, 2.0])
    data = ek.bundle_to_dict(ek.ProblemBundle(problem=problem))
    assert data["schema"] == ek.BUNDLE_SCHEMA
    data["schema"] = "something-else"
    with pytest.raises(ek.BundleFormatError):
        ek.bundle_from_dict(data)
    with pytest.raises(ek.BundleFormatError):
        ek.loads_bundle("{broken")
    with pytest.raises(ek.BundleFormatError):
        ek.loads_bundle('["not", "an", "object"]')


def test_save_and_load_bundle(tmp_path):
    problem = ek.make_quadratic_loss(2)
    bundle = ek.ProblemBundle(problem=problem, question=ek.build_question("regret", problem))
    path = tmp_path / "bundle.json"
    ek.save_bundle(bundle, str(path))
    reloaded = ek.load_bundle(str(path))
    assert reloaded.problem.actions == problem.actions
