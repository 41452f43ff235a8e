"""Exit codes and payload shapes of the command-line front end."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_python_dash_m_elicitkit_runs_the_cli(tmp_path, capsys):
    # The package runs as a module, as the console script runs main: same
    # output, same exit code and nothing on stderr.
    src = str(Path(ek.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")]))
    argv = ["gen", "quadratic-loss", "--n", "3"]
    proc = subprocess.run(
        [sys.executable, "-m", "elicitkit", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run(capsys, *argv)[1]


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


@pytest.mark.parametrize("generator", ["state-matching", "close-guess"])
def test_gen_takes_a_comma_separated_reward_list(capsys, generator):
    code, stdout, _ = run(capsys, "gen", generator, "--r", "1, 2.5,,4,")
    assert code == 0
    np.testing.assert_array_equal(np.diag(ek.loads_bundle(stdout).problem.utility), [1, 2.5, 4])


def test_gen_rejects_an_empty_reward_list(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "state-matching", "--r", " , "])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("reward list is empty")


#: Generator arguments each generator refuses, and what it says.
_OUT_OF_RANGE = {
    "quadratic-loss --n 0": "need n >= 1 grid steps",
    "star --theta 1 --s 0.5": "need at least two states",
    "state-matching --r 1": "need at least two rewards",
    "close-guess --r 1": "need at least two rewards",
    "mc-test --i 1 --omega 2": "need at least two tasks",
    "mc-test --i 2 --omega 1": "need at least two answers per task",
}


@pytest.mark.parametrize("argv", _OUT_OF_RANGE)
def test_gen_rejects_a_generator_argument_out_of_range(capsys, argv):
    assert_one_line_error(*run(capsys, "gen", *argv.split()), _OUT_OF_RANGE[argv])


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


@pytest.mark.parametrize(
    "argv",
    [
        *(
            ["quadratic-loss", "--n", "4", "--question", "within-x", f"--x={value}"]
            for value in ("nan", "inf", "-inf")
        ),
        *(
            ["mc-test", "--i", "2", "--omega", "2", "--question", "threshold", "--z", value]
            for value in ("nan", "inf")
        ),
        ["star", "--theta", "3", "--s", "nan"],
        ["state-matching", "--r", "1,nan"],
        ["close-guess", "--r", "inf,1"],
    ],
    ids=" ".join,
)
def test_gen_rejects_a_parameter_that_is_not_finite(tmp_path, capsys, argv):
    out = tmp_path / "bundle.json"
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", *argv, "--out", str(out)])
    assert excinfo.value.code == 2
    stderr = capsys.readouterr().err
    assert "Traceback" not in stderr
    assert "not a finite number" in stderr.splitlines()[-1]
    assert not out.exists()


def test_gen_rejects_a_float_parameter_that_does_not_parse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "star", "--theta", "3", "--s", "high"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "argument --s: invalid float value: 'high'"
    )


@pytest.mark.parametrize(
    "error, says",
    [
        (MemoryError("Unable to allocate 74.5 GiB for an array"), "Unable to allocate 74.5 GiB"),
        (MemoryError(), "out of memory"),
    ],
)
def test_gen_out_of_memory_exits_2_with_one_line(capsys, monkeypatch, error, says):
    def make_quadratic_loss(n):
        raise error

    monkeypatch.setattr(ek.model, "make_quadratic_loss", make_quadratic_loss)
    argv = ("gen", "quadratic-loss", "--n", "100000", "--question", "expected-payoff")
    assert_one_line_error(*run(capsys, *argv), says)


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


@pytest.fixture()
def unsettled_path(tmp_path, unsettled_bundle) -> str:
    path = tmp_path / "unsettled.json"
    ek.save_bundle(unsettled_bundle, str(path))
    return str(path)


@pytest.mark.parametrize("command", ["classify", "check", "synthesize"])
def test_an_lp_that_does_not_finish_exits_inconclusive(
    unsettled_path, capsys, stalled_lps, command
):
    code, stdout, stderr = run(capsys, command, unsettled_path)
    assert code == 4
    if command == "classify":
        assert stdout == ""
        assert stderr.count("\n") == 1 and stderr.startswith("inconclusive: ")
    else:
        assert stderr == ""
        assert json.loads(stdout)["status"] == "inconclusive"
    assert re.search(r"\([\d.]+, [\d.]+\) did not finish: .*kIterationLimit", stderr + stdout)
    assert "Traceback" not in stderr


def test_a_certified_graph_checks_but_does_not_classify_under_a_stalled_solver(
    bundle_path, capsys, stalled_lps
):
    # The verdict reads no certified edge's LP; classify prints the edges' slacks.
    code, stdout, stderr = run(capsys, "check", bundle_path)
    assert (code, stderr) == (3, "")
    assert json.loads(stdout)["status"] == "not_incentivizable"
    code, stdout, stderr = run(capsys, "classify", bundle_path)
    assert (code, stdout) == (4, "")
    assert re.fullmatch(
        r"inconclusive: the adjacency LP of \(0, 0\.25\) did not finish: .*kIterationLimit\n",
        stderr,
    ), stderr


def test_check_requires_a_question(tmp_path, ql4, capsys):
    path = tmp_path / "bare.json"
    ek.save_bundle(ek.ProblemBundle(problem=ql4), str(path))
    for command in ("check", "synthesize"):
        code, _, stderr = run(capsys, command, str(path))
        assert code == 2
        assert f"no question; nothing to {command}" in stderr


def test_check_markdown(bundle_path, capsys):
    code, stdout, _ = run(capsys, "check", bundle_path, "--format", "md")
    assert code == 3
    assert stdout == (
        "# elicitkit check\n"
        "\n"
        "- status: not_incentivizable\n"
        "- theorem: tree-characterization\n"
        "- certificate: none\n"
        "- violation.kind: pairwise-misalignment\n"
        "- violation.actions: [0, 0.25]\n"
        "- violation.residual: 0.4999999999999991\n"
        "- violation.detail: adjacent pair admits no alignment coefficients\n"
        "- note: \n"
    )


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


def test_synthesize_checks_the_certificate_at_the_verdict_s_tolerance(ql4, tmp_path, capsys):
    # An aligned question plus noise of 1e-6: aligned at --tol 1e-5 (residual
    # 9.5e-7), but not within the default tolerance the mechanism used to
    # be checked against.
    noise = 1e-6 * np.random.default_rng(0).normal(size=ql4.utility.shape)
    question = ek.QuestionProfile(values=2.0 * ql4.utility + 1.0 + noise)
    bundle = ek.ProblemBundle(problem=ql4, question=question)
    verdict = ek.decide_incentivizable(bundle, tol=1e-5)
    assert verdict.status == "incentivizable"
    assert 1e-7 < verdict.certificate.residual < 1e-6
    with pytest.raises(ek.SynthesisError, match="does not reconstruct"):
        ek.synthesize(bundle, verdict)
    assert ek.synthesize(bundle, verdict, tol=1e-5).provenance == "aligned-bdm"
    assert ek.oracle_cross_check(bundle, tol=1e-5).consistent
    path = tmp_path / "noisy.json"
    ek.save_bundle(bundle, str(path))
    assert run(capsys, "check", str(path), "--tol", "1e-5")[0] == 0
    code, stdout, _ = run(capsys, "synthesize", str(path), "--tol", "1e-5")
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


def test_verify_writes_its_four_flags_into_the_spec_block(aligned_path, tmp_path, capsys):
    mech = tmp_path / "mech.json"
    assert run(capsys, "synthesize", aligned_path, "--out", str(mech))[0] == 0
    flags = ("--tol", "1e-5", "--grid", "6", "--samples", "50", "--seed", "3")
    code, stdout, _ = run(capsys, "verify", aligned_path, str(mech), *flags)
    assert code == 0
    assert json.loads(stdout)["spec"] == {"denominator": 6, "samples": 50, "seed": 3, "tol": 1e-5}
    code, stdout, _ = run(capsys, "verify", aligned_path, str(mech))
    assert json.loads(stdout)["spec"] == ek.GridSpec().to_dict()


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


def _md_failure(i: int, witness: dict) -> list[str]:
    """Failure ``i``'s md rows, from its JSON (which writes 0.0 as 0)."""
    return [
        f"- failures[{i}].belief: [{', '.join(str(float(v)) for v in witness['belief'])}]",
        f"- failures[{i}].u_optimal: [{', '.join(witness['u_optimal'])}]",
        f"- failures[{i}].v_optimal: [{', '.join(witness['v_optimal'])}]",
        f"- failures[{i}].report_gap: {float(witness['report_gap'])}",
        f"- failures[{i}].value_gap: {float(witness['value_gap'])}",
    ]


def test_verify_markdown_lists_twenty_failures_then_the_rest(
    bundle_path, within_bundle, tmp_path, capsys
):
    control = ek.make_naive_bdm(within_bundle.problem, within_bundle.question)
    mech = tmp_path / "naive.json"
    ek.save_method(control, str(mech))
    argv = ("verify", bundle_path, str(mech), "--grid", "6", "--samples", "50")
    failures = json.loads(run(capsys, *argv)[1])["failures"]
    code, stdout, _ = run(capsys, *argv, "--format", "md")
    assert code == 3
    lines = stdout.splitlines()
    assert lines[:5] == [
        "# elicitkit verify",
        "",
        "- checked: 272",
        "- passes: 193",
        "- boundary_ambiguous: 0",
    ]
    assert lines[5:10] == [
        "- failures[0].belief: [0.0, 0.0, 0.16666666666666666, 0.0, 0.8333333333333334]",
        "- failures[0].u_optimal: [1]",
        "- failures[0].v_optimal: [0.75]",
        "- failures[0].report_gap: 0.0",
        "- failures[0].value_gap: 0.13194444444444442",
    ]
    assert lines[5:105] == [line for i in range(20) for line in _md_failure(i, failures[i])]
    assert lines[105:] == [
        "- more failures: 59",
        "- spec.denominator: 6",
        "- spec.samples: 50",
        "- spec.seed: 0",
        "- spec.tol: 1e-07",
        "- passed: false",
    ]


def test_witness_markdown(bundle_path, aligned_path, within_bundle, tmp_path, capsys):
    control = ek.make_naive_bdm(within_bundle.problem, within_bundle.question)
    naive = tmp_path / "naive.json"
    ek.save_method(control, str(naive))
    code, stdout, _ = run(capsys, "witness", bundle_path, str(naive), "--format", "md")
    assert code == 0
    assert stdout == (
        "# elicitkit witness\n"
        "\n"
        "- witness.belief: [0.0, 0.0, 0.1, 0.0, 0.9]\n"
        "- witness.u_optimal: [1]\n"
        "- witness.v_optimal: [0.75]\n"
        "- witness.report_gap: 0.0\n"
        "- witness.value_gap: 0.057499999999999885\n"
    )
    mech = tmp_path / "mech.json"
    assert run(capsys, "synthesize", aligned_path, "--out", str(mech))[0] == 0
    flags = ("--grid", "6", "--samples", "50", "--format", "md")
    code, stdout, _ = run(capsys, "witness", aligned_path, str(mech), *flags)
    assert code == 5
    assert stdout == "# elicitkit witness\n\n- witness: none\n"


def _leaf(value) -> str:
    """A JSON scalar, or a markdown value, in one spelling: numbers as float reprs."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    try:
        return repr(float(value))
    except ValueError:
        return value


def _json_leaves(value, key=""):
    """``(key, value)`` per scalar leaf or list of scalars, as markdown keys them."""
    if isinstance(value, dict):
        for field, item in value.items():
            yield from _json_leaves(item, f"{key}.{field}" if key else field)
    elif isinstance(value, list) and any(isinstance(item, (dict, list)) for item in value):
        for i, item in enumerate(value[:20]):
            yield from _json_leaves(item, f"{key}[{i}]")
        if len(value) > 20:
            yield f"more {key}", _leaf(len(value) - 20)
    elif isinstance(value, list):
        yield key, [_leaf(item) for item in value]
    else:
        yield key, _leaf(value)


def _md_leaves(text: str, command: str) -> dict:
    title = f"# elicitkit {command}\n\n"
    assert text.startswith(title)
    leaves = {}
    for row in text[len(title) :].splitlines():
        assert row.startswith("- ")
        key, _, value = row[2:].partition(": ")
        assert key not in leaves
        if value.startswith("["):
            leaves[key] = [_leaf(item) for item in value[1:-1].split(", ")] if value != "[]" else []
        else:
            leaves[key] = _leaf(value)
    return leaves


@pytest.fixture()
def md_cases(tmp_path, bundle_path, aligned_path, chained_bundle, mc32_bundle, within_bundle):
    """``(name, argv, exit code, text in the JSON)`` for every payload kind."""

    def saved(name, bundle):
        path = str(tmp_path / name)
        ek.save_bundle(bundle, path)
        return path

    chained = saved("chained.json", chained_bundle)
    product = saved("product.json", mc32_bundle)
    problem = ek.make_state_matching([0.7, 1.0, 1.3])
    values = ek.build_question("ex-post-optimality", problem).values.copy()
    values[0] = [1.0, 0.3, -0.2]
    odd = saved("odd.json", ek.ProblemBundle(problem=problem, question=ek.QuestionProfile(values)))
    naive = str(tmp_path / "naive.json")
    ek.save_method(ek.make_naive_bdm(within_bundle.problem, within_bundle.question), naive)
    mech = str(tmp_path / "mech.json")
    sweep = ("--grid", "6", "--samples", "50")
    return [
        ("classify", ("classify", bundle_path), 0, '"kind":"tree"'),
        ("classify product", ("classify", product), 0, '"product_consistent":true'),
        ("check alignment", ("check", aligned_path), 0, '"type":"alignment"'),
        ("check piecewise", ("check", chained), 0, '"type":"piecewise-alignment"'),
        ("check weighted", ("check", product), 0, '"type":"weighted-alignment"'),
        ("check violation", ("check", bundle_path), 3, '"violation":{"actions"'),
        ("check note", ("check", odd), 4, '"note":"necessity'),
        ("synthesize summary", ("synthesize", aligned_path, "--out", mech), 0, '"written"'),
        ("synthesize refusal", ("synthesize", bundle_path), 3, '"status":"not_incentivizable"'),
        ("verify passing", ("verify", aligned_path, mech, *sweep), 0, '"passed":true'),
        ("verify failing", ("verify", bundle_path, naive, *sweep), 3, '"passed":false'),
        ("witness found", ("witness", bundle_path, naive), 0, '"witness":{'),
        ("witness none", ("witness", aligned_path, mech, *sweep), 5, '"witness":null'),
    ]


def test_markdown_carries_every_field_of_the_json(md_cases, capsys):
    # One renderer for every command: a row per scalar leaf (a list of
    # scalars is one leaf), keyed by its path, 20 items of a list of objects
    # then a "more" row, null as none.
    more = 0
    for name, argv, exit_code, marker in md_cases:
        code, text, _ = run(capsys, *argv)
        assert code == exit_code, name
        assert marker in text, name
        code, md, _ = run(capsys, *argv, "--format", "md")
        assert code == exit_code, name
        assert _md_leaves(md, argv[0]) == dict(_json_leaves(json.loads(text))), name
        more += "- more " in md
    assert more == 1


# ---------------------------------------------------------------------------
# Configuration and error handling


def test_missing_file(capsys):
    code, _, stderr = run(capsys, "check", "/nonexistent/bundle.json")
    assert code == 2
    assert "file not found" in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "{dir}"),
        ("verify", "{bundle}", "{dir}"),
        ("gen", "quadratic-loss", "--n", "4", "--out", "{dir}"),
        ("check", "{bundle}", "--out", "{dir}"),
    ],
    ids=" ".join,
)
def test_a_directory_in_place_of_a_file_exits_2_with_one_line(
    aligned_path, tmp_path, capsys, argv
):
    paths = {"dir": str(tmp_path), "bundle": aligned_path}
    assert_one_line_error(
        *run(capsys, *(arg.format(**paths) for arg in argv)), f"Is a directory: {tmp_path}"
    )


def test_an_os_error_without_a_file_name_exits_2_with_one_line(aligned_path, capsys, monkeypatch):
    def load_bundle(path):
        raise OSError("device not ready")

    monkeypatch.setattr(ek.cli, "load_bundle", load_bundle)
    assert_one_line_error(*run(capsys, "check", aligned_path), "device not ready")


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
