"""Command-line front end.

One binary, subcommand style.  Exit codes are a stable contract:
0 success of purpose, 2 input error, 3 negative verdict or failed
verification, 4 inconclusive, 5 nothing found.  Reports go to stdout,
diagnostics to stderr.  ``--tol`` and ``--seed`` may also come from the
environment (ELICITKIT_TOL, ELICITKIT_SEED); explicit flags win.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .alignment import ALIGN_RTOL, Verdict, decide_incentivizable
from .geometry import adjacency_graph, classify_graph, enumerate_cycles, splitting_collection
from .model import (
    GENERATORS,
    ElicitkitError,
    ProblemBundle,
    build_question,
    canonical_dumps,
    dumps_bundle,
    load_bundle,
)
from .synth import dumps_method, load_method, synthesize
from .verify import (
    GridSpec,
    find_distortion_witness,
    verify_incentivizability,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_INCONCLUSIVE = 4
EXIT_NOT_FOUND = 5

_GENERATOR_PARAMS: dict[str, tuple[str, ...]] = {
    "quadratic-loss": ("n",),
    "star": ("theta", "s"),
    "state-matching": ("r",),
    "close-guess": ("r",),
    "mc-test": ("i", "omega"),
    "cycle-rich-safe": (),
}

_QUESTION_PARAM: dict[str, str] = {
    "within-x": "x",
    "threshold": "z",
    "improvement": "split",
}


@dataclass(frozen=True)
class _Config:
    tol: float | None
    grid: int
    samples: int
    seed: int
    fmt: str
    out: str | None

    @property
    def check_tol(self) -> float:
        return self.tol if self.tol is not None else ALIGN_RTOL

    def grid_spec(self) -> GridSpec:
        if self.tol is None:
            return GridSpec(denominator=self.grid, samples=self.samples, seed=self.seed)
        return GridSpec(
            denominator=self.grid,
            samples=self.samples,
            seed=self.seed,
            tol_action=self.tol,
            tol_report=10.0 * self.tol,
        )


def _env_value(name: str, cast: Callable[[str], Any]) -> Any | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return cast(raw)
    except ValueError as exc:
        raise ElicitkitError(f"bad {name} value {raw!r}: {exc}") from exc


def _config(args: argparse.Namespace) -> _Config:
    tol = args.tol if args.tol is not None else _env_value("ELICITKIT_TOL", float)
    seed = args.seed if args.seed is not None else _env_value("ELICITKIT_SEED", int)
    return _Config(
        tol=tol,
        grid=args.grid if args.grid is not None else 10,
        samples=args.samples if args.samples is not None else 500,
        seed=seed if seed is not None else 0,
        fmt=args.fmt,
        out=args.out,
    )


def _emit(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _render(payload: dict[str, Any], fmt: str, md: Callable[[dict[str, Any]], str]) -> str:
    if fmt == "json":
        return canonical_dumps(payload)
    return md(payload)


def _md_lines(title: str, items: Sequence[tuple[str, Any]]) -> str:
    lines = [f"# elicitkit {title}", ""]
    lines.extend(f"- {key}: {value}" for key, value in items)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_gen(args: argparse.Namespace) -> int:
    name = args.generator
    if name not in GENERATORS:
        print(f"unknown generator {name!r}; known: {', '.join(sorted(GENERATORS))}", file=sys.stderr)
        return EXIT_INPUT
    values = []
    for param in _GENERATOR_PARAMS[name]:
        value = getattr(args, param)
        if value is None:
            print(f"generator {name!r} requires --{param}", file=sys.stderr)
            return EXIT_INPUT
        values.append(value)
    problem, product = GENERATORS[name](*values)
    question = None
    if args.question is not None:
        params: dict[str, Any] = {}
        needed = _QUESTION_PARAM.get(args.question)
        if needed is not None:
            value = getattr(args, needed.replace("-", "_"))
            if value is None:
                print(f"question {args.question!r} requires --{needed}", file=sys.stderr)
                return EXIT_INPUT
            params[needed] = value
        question = build_question(args.question, problem, product, **params)
    bundle = ProblemBundle(
        problem=problem, question=question, product=product, alpha=args.alpha
    )
    _emit(dumps_bundle(bundle), args.out)
    return EXIT_OK


def _md_classify(payload: dict[str, Any]) -> str:
    items: list[tuple[str, Any]] = [
        ("kind", payload["kind"]),
        ("connected", payload["connected"]),
        ("tree", payload["tree"]),
        ("complete", payload["complete"]),
        ("product-consistent", payload["product_consistent"]),
        ("edges", len(payload["edges"])),
    ]
    for edge in payload["edges"]:
        items.append((f"edge {edge['a']} -- {edge['b']}", f"slack {edge['slack']:.6g}"))
    if payload["splitting"] is not None:
        items.append(("splitting parts", payload["splitting"]["parts"]))
        items.append(("cut vertices", payload["splitting"]["cut_vertices"]))
    items.append(
        (
            "cycles",
            f"{payload['cycles']['count']} up to length {payload['cycles']['max_len']}"
            + (" (truncated)" if payload["cycles"]["truncated"] else ""),
        )
    )
    return _md_lines("classify", items)


def _cmd_classify(args: argparse.Namespace) -> int:
    cfg = _config(args)
    bundle = load_bundle(args.bundle)
    graph = adjacency_graph(bundle.problem)
    classification = classify_graph(graph, bundle.product)
    splitting = None
    if classification.connected:
        collection = splitting_collection(graph)
        splitting = {
            "parts": [list(p) for p in collection.parts],
            "cut_vertices": list(collection.cut_vertices),
        }
    max_len = min(bundle.problem.n_states, 8)
    cycles = enumerate_cycles(graph, max_len=max_len)
    payload = {
        "kind": classification.kind,
        "connected": classification.connected,
        "tree": classification.tree,
        "complete": classification.complete,
        "product_consistent": classification.product_consistent,
        "edges": [
            {"a": e.a, "b": e.b, "slack": e.slack, "witness": list(e.witness.probs)}
            for e in graph.edges
        ],
        "splitting": splitting,
        "cycles": {
            "count": len(cycles.cycles),
            "truncated": cycles.truncated,
            "max_len": max_len,
        },
    }
    _emit(_render(payload, cfg.fmt, _md_classify), cfg.out)
    return EXIT_OK


def _verdict_exit(verdict: Verdict) -> int:
    if verdict.status == "incentivizable":
        return EXIT_OK
    if verdict.status == "not_incentivizable":
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


def _md_check(payload: dict[str, Any]) -> str:
    items: list[tuple[str, Any]] = [
        ("verdict", payload["status"]),
        ("theorem", payload["theorem"] or "none"),
    ]
    cert = payload.get("certificate")
    if cert:
        items.append(("certificate", cert["type"]))
        if "residual" in cert:
            items.append(("certificate residual", cert["residual"]))
    violation = payload.get("violation")
    if violation:
        items.append(("violation", violation["kind"]))
        items.append(("violation actions", ", ".join(violation["actions"])))
        items.append(("violation residual", violation["residual"]))
    if payload.get("note"):
        items.append(("note", payload["note"]))
    return _md_lines("check", items)


def _cmd_check(args: argparse.Namespace) -> int:
    cfg = _config(args)
    bundle = load_bundle(args.bundle)
    if bundle.question is None:
        print("bundle has no question; nothing to check", file=sys.stderr)
        return EXIT_INPUT
    verdict = decide_incentivizable(bundle, tol=cfg.check_tol)
    _emit(_render(verdict.to_dict(), cfg.fmt, _md_check), cfg.out)
    return _verdict_exit(verdict)


def _cmd_synthesize(args: argparse.Namespace) -> int:
    cfg = _config(args)
    bundle = load_bundle(args.bundle)
    if bundle.question is None:
        print("bundle has no question; nothing to synthesize", file=sys.stderr)
        return EXIT_INPUT
    verdict = decide_incentivizable(bundle, tol=cfg.check_tol)
    if verdict.status != "incentivizable":
        _emit(_render(verdict.to_dict(), cfg.fmt, _md_check), None)
        return _verdict_exit(verdict)
    method = synthesize(bundle, verdict)
    if cfg.out is None:
        _emit(dumps_method(method), None)
    else:
        _emit(dumps_method(method), cfg.out)
        summary = {
            "written": cfg.out,
            "provenance": method.provenance,
            "theorem": verdict.theorem,
        }
        _emit(
            _render(
                summary,
                cfg.fmt,
                lambda p: _md_lines("synthesize", list(p.items())),
            ),
            None,
        )
    return EXIT_OK


def _md_verify(payload: dict[str, Any]) -> str:
    items: list[tuple[str, Any]] = [
        ("checked", payload["checked"]),
        ("passes", payload["passes"]),
        ("boundary-ambiguous", payload["boundary_ambiguous"]),
        ("failures", len(payload["failures"])),
        ("passed", payload["passed"]),
    ]
    for witness in payload["failures"][:20]:
        items.append(("failure belief", witness["belief"]))
        items.append(("  u-optimal", ", ".join(witness["u_optimal"])))
        items.append(("  v-optimal", ", ".join(witness["v_optimal"])))
        items.append(("  report gap", witness["report_gap"]))
        items.append(("  value gap", witness["value_gap"]))
    if len(payload["failures"]) > 20:
        items.append(("more failures", len(payload["failures"]) - 20))
    return _md_lines("verify", items)


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config(args)
    bundle = load_bundle(args.bundle)
    method = load_method(args.mechanism)
    report = verify_incentivizability(bundle, method, cfg.grid_spec())
    _emit(_render(report.to_dict(), cfg.fmt, _md_verify), cfg.out)
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def _md_witness(payload: dict[str, Any]) -> str:
    witness = payload["witness"]
    if witness is None:
        return _md_lines("witness", [("witness", "none")])
    return _md_lines(
        "witness",
        [
            ("belief", witness["belief"]),
            ("u-optimal", ", ".join(witness["u_optimal"])),
            ("v-optimal", ", ".join(witness["v_optimal"])),
            ("report gap", witness["report_gap"]),
            ("value gap", witness["value_gap"]),
        ],
    )


def _cmd_witness(args: argparse.Namespace) -> int:
    cfg = _config(args)
    bundle = load_bundle(args.bundle)
    method = load_method(args.mechanism)
    witness = find_distortion_witness(bundle, method, cfg.grid_spec())
    payload = {"witness": witness.to_dict() if witness is not None else None}
    _emit(_render(payload, cfg.fmt, _md_witness), cfg.out)
    return EXIT_OK if witness is not None else EXIT_NOT_FOUND


# ---------------------------------------------------------------------------
# Parser


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help="action-set tolerance (env ELICITKIT_TOL); report tolerance is ten times this",
    )
    parser.add_argument("--grid", type=int, default=None, help="rational grid denominator")
    parser.add_argument("--samples", type=int, default=None, help="Dirichlet sample count")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (env ELICITKIT_SEED)")
    parser.add_argument("--format", dest="fmt", choices=("json", "md"), default="json")
    parser.add_argument("--out", default=None, help="write the output here instead of stdout")


def _parse_reward_list(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad reward list {raw!r}: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("reward list is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elicitkit",
        description="Generate, classify, check, synthesize, and verify elicitation problems.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    gen = subparsers.add_parser("gen", help="write a canonical problem bundle")
    gen.add_argument("generator", help=", ".join(sorted(GENERATORS)))
    gen.add_argument("--n", type=int, default=None, help="grid resolution (quadratic-loss)")
    gen.add_argument("--theta", type=int, default=None, help="state count (star)")
    gen.add_argument("--s", type=float, default=None, help="safe payoff (star)")
    gen.add_argument(
        "--r",
        type=_parse_reward_list,
        default=None,
        help="comma-separated rewards (state-matching, close-guess)",
    )
    gen.add_argument("--i", type=int, default=None, help="task count (mc-test)")
    gen.add_argument("--omega", type=int, default=None, help="answers per task (mc-test)")
    gen.add_argument(
        "--question",
        default=None,
        choices=(
            "expected-payoff",
            "regret",
            "ex-post-optimality",
            "within-x",
            "threshold",
            "improvement",
        ),
    )
    gen.add_argument("--x", type=float, default=None, help="distance bound (within-x)")
    gen.add_argument("--z", type=float, default=None, help="score threshold (threshold)")
    gen.add_argument("--split", type=int, default=None, help="early-block size (improvement)")
    gen.add_argument("--alpha", type=float, default=0.5, help="decision-payoff mixing weight")
    _add_config_flags(gen)
    gen.set_defaults(func=_cmd_gen)

    classify = subparsers.add_parser("classify", help="adjacency structure of a bundle")
    classify.add_argument("bundle")
    _add_config_flags(classify)
    classify.set_defaults(func=_cmd_classify)

    check = subparsers.add_parser("check", help="incentivizability verdict")
    check.add_argument("bundle")
    _add_config_flags(check)
    check.set_defaults(func=_cmd_check)

    synthesize_cmd = subparsers.add_parser("synthesize", help="build a mechanism")
    synthesize_cmd.add_argument("bundle")
    _add_config_flags(synthesize_cmd)
    synthesize_cmd.set_defaults(func=_cmd_synthesize)

    verify_cmd = subparsers.add_parser("verify", help="sweep beliefs against a mechanism")
    verify_cmd.add_argument("bundle")
    verify_cmd.add_argument("mechanism")
    _add_config_flags(verify_cmd)
    verify_cmd.set_defaults(func=_cmd_verify)

    witness = subparsers.add_parser("witness", help="search for a distortion witness")
    witness.add_argument("bundle")
    witness.add_argument("mechanism")
    _add_config_flags(witness)
    witness.set_defaults(func=_cmd_witness)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return EXIT_INPUT
    except ElicitkitError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
