"""Exit codes and payload shapes of the command-line front end."""

from __future__ import annotations

import json
import math
import re

import pytest

import elicitkit as ek
from elicitkit.cli import main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def bundle_path(tmp_path, within_bundle) -> str:
    path = tmp_path / "within.json"
    ek.save_bundle(within_bundle, str(path))
    return str(path)


@pytest.fixture()
def aligned_path(tmp_path, ql4) -> str:
    bundle = ek.ProblemBundle(
        problem=ql4, question=ek.build_question("expected-payoff", ql4)
    )
    path = tmp_path / "aligned.json"
    ek.save_bundle(bundle, str(path))
    return str(path)


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_a_loadable_bundle(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    code, stdout, _ = run(
        capsys,
        "gen",
        "quadratic-loss",
        "--n",
        "4",
        "--question",
        "within-x",
        "--x",
        "0.25",
        "--out",
        str(out),
    )
    assert code == 0
    assert stdout == ""
    bundle = ek.load_bundle(str(out))
    assert bundle.problem.actions == ("0", "0.25", "0.5", "0.75", "1")
    assert bundle.question is not None


def test_gen_without_out_prints_the_bundle(capsys):
    code, stdout, _ = run(capsys, "gen", "cycle-rich-safe")
    assert code == 0
    assert ek.loads_bundle(stdout).problem.n_actions == 5


def test_gen_with_product_question(tmp_path, capsys):
    out = tmp_path / "mc.json"
    code, _, _ = run(
        capsys,
        "gen",
        "mc-test",
        "--i",
        "3",
        "--omega",
        "2",
        "--question",
        "improvement",
        "--split",
        "1",
        "--out",
        str(out),
    )
    assert code == 0
    assert ek.load_bundle(str(out)).product is not None


def test_gen_rejects_unknown_generator(capsys):
    code, _, stderr = run(capsys, "gen", "mystery")
    assert code == 2
    assert "unknown generator" in stderr


def test_gen_rejects_missing_parameters(capsys):
    code, _, stderr = run(capsys, "gen", "star")
    assert code == 2
    assert "requires --theta" in stderr
    code, _, stderr = run(capsys, "gen", "quadratic-loss", "--n", "2", "--question", "within-x")
    assert code == 2
    assert "requires --x" in stderr


# ---------------------------------------------------------------------------
# classify


def test_classify_payload(bundle_path, capsys):
    code, stdout, _ = run(capsys, "classify", bundle_path)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["kind"] == "tree"
    assert payload["connected"] is True
    assert len(payload["edges"]) == 4
    assert payload["splitting"] is not None
    assert payload["cycles"]["count"] == 0


def test_classify_markdown(bundle_path, capsys):
    code, stdout, _ = run(capsys, "classify", bundle_path, "--format", "md")
    assert code == 0
    assert stdout.startswith("# elicitkit classify")


# ---------------------------------------------------------------------------
# check


def test_check_positive(aligned_path, capsys):
    code, stdout, _ = run(capsys, "check", aligned_path)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["status"] == "incentivizable"
    assert payload["theorem"] == "global-alignment-sufficiency"


def test_check_negative(bundle_path, capsys):
    code, stdout, _ = run(capsys, "check", bundle_path)
    assert code == 3
    payload = json.loads(stdout)
    assert payload["status"] == "not_incentivizable"
    assert payload["violation"]["kind"] == "pairwise-misalignment"


def test_check_inconclusive(tmp_path, capsys):
    problem = ek.make_state_matching([0.7, 1.0, 1.3])
    values = ek.build_question("ex-post-optimality", problem).values.copy()
    values[0] = [1.0, 0.3, -0.2]
    bundle = ek.ProblemBundle(problem=problem, question=ek.QuestionProfile(values=values))
    path = tmp_path / "odd.json"
    ek.save_bundle(bundle, str(path))
    code, stdout, _ = run(capsys, "check", str(path))
    assert code == 4
    assert json.loads(stdout)["status"] == "inconclusive"


@pytest.mark.parametrize("command", ["classify", "check", "synthesize"])
def test_an_lp_that_does_not_finish_exits_inconclusive(bundle_path, capsys, stalled_lps, command):
    code, stdout, stderr = run(capsys, command, bundle_path)
    assert code == 4
    if command == "classify":
        assert stdout == ""
        assert stderr.count("\n") == 1 and stderr.startswith("inconclusive: ")
    else:
        assert stderr == ""
        assert json.loads(stdout)["status"] == "inconclusive"
    assert re.search(r"\([\d.]+, [\d.]+\) did not finish: .*kIterationLimit", stderr + stdout)
    assert "Traceback" not in stderr


def test_check_requires_a_question(tmp_path, ql4, capsys):
    path = tmp_path / "bare.json"
    ek.save_bundle(ek.ProblemBundle(problem=ql4), str(path))
    code, _, stderr = run(capsys, "check", str(path))
    assert code == 2
    assert "no question" in stderr


def test_check_markdown(bundle_path, capsys):
    code, stdout, _ = run(capsys, "check", bundle_path, "--format", "md")
    assert code == 3
    assert stdout.startswith("# elicitkit check")
    assert "- verdict: not_incentivizable" in stdout


def test_check_product_refutation_in_both_formats(tmp_path, capsys):
    path = str(tmp_path / "mc-threshold.json")
    code, _, _ = run(
        capsys, "gen", "mc-test", "--i", "3", "--omega", "2",
        "--question", "threshold", "--z", "2", "--out", path,
    )
    assert code == 0
    code, stdout, _ = run(capsys, "check", path, "--format", "json")
    assert code == 3
    payload = json.loads(stdout)
    assert payload["theorem"] == "product-characterization"
    assert math.isfinite(payload["violation"]["residual"])
    code, stdout, _ = run(capsys, "check", path, "--format", "md")
    assert code == 3
    assert "product-characterization" in stdout
    assert "nan" not in stdout


# ---------------------------------------------------------------------------
# synthesize


def test_synthesize_writes_mechanism_and_summary(aligned_path, tmp_path, capsys):
    mech = tmp_path / "mech.json"
    code, stdout, _ = run(capsys, "synthesize", aligned_path, "--out", str(mech))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["written"] == str(mech)
    assert summary["provenance"] == "aligned-bdm"
    assert summary["theorem"] == "global-alignment-sufficiency"
    method = ek.load_method(str(mech))
    assert method.provenance == "aligned-bdm"


def test_synthesize_to_stdout(aligned_path, capsys):
    code, stdout, _ = run(capsys, "synthesize", aligned_path)
    assert code == 0
    assert json.loads(stdout)["schema"] == ek.MECHANISM_SCHEMA


def test_synthesize_negative_prints_the_verdict(bundle_path, capsys):
    code, stdout, _ = run(capsys, "synthesize", bundle_path)
    assert code == 3
    assert json.loads(stdout)["status"] == "not_incentivizable"


# ---------------------------------------------------------------------------
# verify and witness


def test_verify_round_trip(aligned_path, tmp_path, capsys):
    mech = tmp_path / "mech.json"
    assert run(capsys, "synthesize", aligned_path, "--out", str(mech))[0] == 0
    code, stdout, _ = run(
        capsys, "verify", aligned_path, str(mech), "--grid", "6", "--samples", "50"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["passed"] is True
    assert payload["checked"] == 272


def test_verify_flags_a_bad_mechanism(bundle_path, within_bundle, tmp_path, capsys):
    control = ek.make_naive_bdm(within_bundle.problem, within_bundle.question)
    mech = tmp_path / "naive.json"
    ek.save_method(control, str(mech))
    code, stdout, _ = run(
        capsys, "verify", bundle_path, str(mech), "--grid", "6", "--samples", "50"
    )
    assert code == 3
    assert json.loads(stdout)["passed"] is False


def test_witness_found(bundle_path, within_bundle, tmp_path, capsys):
    control = ek.make_naive_bdm(within_bundle.problem, within_bundle.question)
    mech = tmp_path / "naive.json"
    ek.save_method(control, str(mech))
    code, stdout, _ = run(capsys, "witness", bundle_path, str(mech))
    assert code == 0
    witness = json.loads(stdout)["witness"]
    assert witness is not None
    assert witness["u_optimal"] != witness["v_optimal"]


def test_witness_not_found(aligned_path, tmp_path, capsys):
    mech = tmp_path / "mech.json"
    assert run(capsys, "synthesize", aligned_path, "--out", str(mech))[0] == 0
    code, stdout, _ = run(
        capsys, "witness", aligned_path, str(mech), "--grid", "6", "--samples", "50"
    )
    assert code == 5
    assert json.loads(stdout)["witness"] is None


# ---------------------------------------------------------------------------
# Configuration and error handling


def test_env_tolerance_is_used_when_no_flag(bundle_path, capsys, monkeypatch):
    monkeypatch.setenv("ELICITKIT_TOL", "not-a-number")
    code, _, stderr = run(capsys, "check", bundle_path)
    assert code == 2
    assert "ELICITKIT_TOL" in stderr


def test_explicit_flag_beats_bad_env(bundle_path, capsys, monkeypatch):
    monkeypatch.setenv("ELICITKIT_TOL", "not-a-number")
    code, _, _ = run(capsys, "check", bundle_path, "--tol", "1e-8")
    assert code == 3


def test_missing_file(capsys):
    code, _, stderr = run(capsys, "check", "/nonexistent/bundle.json")
    assert code == 2
    assert "file not found" in stderr


def test_corrupt_bundle(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, stderr = run(capsys, "check", str(path))
    assert code == 2
    assert stderr != ""


def test_out_of_range_product_coordinate(tmp_path, capsys):
    problem, product = ek.make_mc_test(2, 2)
    data = json.loads(ek.dumps_bundle(ek.ProblemBundle(problem=problem, product=product)))
    data["product"]["state_coords"][0][0] = 9
    path = tmp_path / "bad-product.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, stdout, stderr = run(capsys, "check", str(path))
    assert code == 2
    assert stdout == ""
    assert "out of range" in stderr
    assert len(stderr.strip().splitlines()) == 1
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "coords, says",
    [
        ([[0, 0], [0, 0], [1, 0], [1, 1]], "each combination of task actions once"),
        ([[0, 0], [0, 1.5], [1, 0], [1, 1]], "not an integer"),
    ],
    ids=["repeated", "non-integer"],
)
def test_malformed_product_coordinates(tmp_path, capsys, coords, says):
    problem, product = ek.make_mc_test(2, 2)
    bundle = ek.ProblemBundle(
        problem=problem,
        question=ek.build_question("threshold", problem, product, z=1),
        product=product,
    )
    data = json.loads(ek.dumps_bundle(bundle))
    data["product"]["action_coords"] = coords
    # The utility is the sum of the task tables at these coordinates, so
    # only the coordinates themselves are wrong.
    data["utility"] = [
        [float(a[0] == s[0]) + float(a[1] == s[1]) for s in product.state_coords] for a in coords
    ]
    path = tmp_path / "bad-coords.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert_one_line_error(*run(capsys, "check", str(path)), says)


def assert_one_line_error(code: int, stdout: str, stderr: str, says: str = "") -> None:
    assert code == 2
    assert stdout == ""
    assert len(stderr.strip().splitlines()) == 1
    assert "Traceback" not in stderr
    assert says in stderr


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
def test_check_rejects_a_tolerance_that_is_not_finite_and_positive(bundle_path, capsys, tol):
    assert_one_line_error(*run(capsys, "check", bundle_path, "--tol", tol), "finite and positive")


def test_check_rejects_a_nan_tolerance_from_the_environment(bundle_path, capsys, monkeypatch):
    monkeypatch.setenv("ELICITKIT_TOL", "nan")
    assert_one_line_error(*run(capsys, "check", bundle_path), "finite and positive")


def test_verify_rejects_an_infinite_tolerance(aligned_path, tmp_path, capsys):
    mech = tmp_path / "mech.json"
    assert run(capsys, "synthesize", aligned_path, "--out", str(mech))[0] == 0
    code, stdout, stderr = run(capsys, "verify", aligned_path, str(mech), "--tol", "inf")
    assert_one_line_error(code, stdout, stderr, "finite and positive")


@pytest.fixture()
def deep_path(tmp_path) -> str:
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    return str(path)


def test_check_on_deeply_nested_json(deep_path, capsys):
    assert_one_line_error(*run(capsys, "check", deep_path), "not valid JSON")


def test_verify_on_a_deeply_nested_mechanism(aligned_path, deep_path, capsys):
    assert_one_line_error(*run(capsys, "verify", aligned_path, deep_path), "not valid JSON")


# ---------------------------------------------------------------------------
# The parser: each subcommand takes only the flags it reads


@pytest.mark.parametrize(
    "argv",
    [
        *(
            ["gen", "quadratic-loss", "--n", "4", flag, "1"]
            for flag in ("--tol", "--grid", "--samples", "--seed")
        ),
        ["gen", "quadratic-loss", "--n", "4", "--format", "md"],
        *(["classify", "b.json", flag, "1"] for flag in ("--tol", "--grid", "--samples", "--seed")),
        *(["check", "b.json", flag, "6"] for flag in ("--grid", "--samples", "--seed")),
        *(["synthesize", "b.json", flag, "6"] for flag in ("--grid", "--samples", "--seed")),
    ],
    ids=" ".join,
)
def test_a_flag_the_subcommand_does_not_read_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_a_flag_the_subcommand_does_not_read_is_reported_with_its_usage(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "b.json", "--grid", "6"])
    assert excinfo.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: elicitkit check ")
    assert stderr.splitlines()[-1] == "elicitkit check: error: unrecognized arguments: --grid 6"


def test_check_does_not_read_the_seed(bundle_path, capsys, monkeypatch):
    monkeypatch.setenv("ELICITKIT_SEED", "not-a-number")
    code, stdout, _ = run(capsys, "check", bundle_path)
    assert code == 3
    assert json.loads(stdout)["status"] == "not_incentivizable"


def test_gen_help_lists_every_registry_parameter_once(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--help"])
    lines = capsys.readouterr().out.splitlines()
    names = {
        param.name
        for registry in (ek.GENERATORS, ek.QUESTIONS)
        for entry in registry.values()
        for param in entry.params
    }
    assert names == {"n", "theta", "s", "r", "i", "omega", "x", "z", "split"}
    for name in names:
        assert sum(line.lstrip().startswith(f"--{name} ") for line in lines) == 1, name
    text = " ".join(" ".join(lines).split())
    assert "grid resolution (quadratic-loss)" in text
    assert "comma-separated rewards (state-matching, close-guess)" in text


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
