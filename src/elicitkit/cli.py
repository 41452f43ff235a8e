"""Command-line front end.

One binary, subcommand style.  Exit codes are a stable contract:
0 success of purpose, 2 input error (also input too large for memory, or
a file that cannot be read or written), 3 negative verdict or failed
verification, 4 inconclusive (also when an LP does not finish), 5
nothing found.  Reports go to stdout, diagnostics to stderr.  Each
subcommand takes only the flags it reads, and a flag is the only way to
set its value; an unset flag keeps the library default.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Sequence

from ._numerics import LPFailure
from .alignment import ALIGN_RTOL, Verdict, decide_incentivizable
from .geometry import adjacency_graph, classify_graph, enumerate_cycles, splitting_collection
from .model import (
    GENERATORS,
    QUESTIONS,
    Builder,
    ElicitkitError,
    Param,
    ProblemBundle,
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


def _grid_spec(args: argparse.Namespace) -> GridSpec:
    """The sweep settings from the flags; unset ones keep the ``GridSpec`` defaults."""
    settings = dict(denominator=args.grid, samples=args.samples, seed=args.seed, tol=args.tol)
    return GridSpec(**{key: value for key, value in settings.items() if value is not None})


def _emit(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


#: Items of a list of objects that markdown shows before its ``more`` row.
MD_LIST_ITEMS = 20


def _md_scalar(value: Any) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _md_rows(key: str, value: Any, rows: list[str]) -> None:
    """``value``'s markdown rows under ``key``: one per scalar or list of scalars."""
    if isinstance(value, dict):
        for field, item in value.items():
            _md_rows(f"{key}.{field}" if key else field, item, rows)
    elif isinstance(value, list) and any(isinstance(item, (dict, list)) for item in value):
        for i, item in enumerate(value[:MD_LIST_ITEMS]):
            _md_rows(f"{key}[{i}]", item, rows)
        if len(value) > MD_LIST_ITEMS:
            rows.append(f"- more {key}: {len(value) - MD_LIST_ITEMS}")
    elif isinstance(value, list):
        rows.append(f"- {key}: [{', '.join(map(_md_scalar, value))}]")
    else:
        rows.append(f"- {key}: {_md_scalar(value)}")


def _render(payload: dict[str, Any], fmt: str, title: str) -> str:
    """The payload as canonical JSON, or as markdown: one row per leaf, in payload order."""
    if fmt == "json":
        return canonical_dumps(payload)
    rows = [f"# elicitkit {title}", ""]
    _md_rows("", payload, rows)
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def _values(what: str, name: str, entry: Builder, args: argparse.Namespace) -> list[Any]:
    """The entry's parameter values from the flags, in call order."""
    values = [getattr(args, param.name) for param in entry.params]
    for param, value in zip(entry.params, values):
        if value is None:
            raise ElicitkitError(f"{what} {name!r} requires --{param.name}")
    return values


def _cmd_gen(args: argparse.Namespace) -> int:
    name = args.generator
    if name not in GENERATORS:
        raise ElicitkitError(f"unknown generator {name!r}; known: {', '.join(sorted(GENERATORS))}")
    problem, product = GENERATORS[name](*_values("generator", name, GENERATORS[name], args))
    question = None
    if args.question is not None:
        entry = QUESTIONS[args.question]
        question = entry(problem, product, *_values("question", args.question, entry, args))
    bundle = ProblemBundle(
        problem=problem, question=question, product=product, alpha=args.alpha
    )
    _emit(dumps_bundle(bundle), args.out)
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
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
        "edges": graph.to_dict()["edges"],
        "splitting": splitting,
        "cycles": {
            "count": len(cycles.cycles),
            "truncated": cycles.truncated,
            "max_len": max_len,
        },
    }
    _emit(_render(payload, args.fmt, args.command), args.out)
    return EXIT_OK


def _verdict_exit(verdict: Verdict) -> int:
    if verdict.status == "incentivizable":
        return EXIT_OK
    if verdict.status == "not_incentivizable":
        return EXIT_NEGATIVE
    return EXIT_INCONCLUSIVE


def _cmd_check(args: argparse.Namespace) -> int:
    tol = ALIGN_RTOL if args.tol is None else args.tol
    bundle = load_bundle(args.bundle)
    if bundle.question is None:
        raise ElicitkitError("bundle has no question; nothing to check")
    verdict = decide_incentivizable(bundle, tol=tol)
    _emit(_render(verdict.to_dict(), args.fmt, args.command), args.out)
    return _verdict_exit(verdict)


def _cmd_synthesize(args: argparse.Namespace) -> int:
    tol = ALIGN_RTOL if args.tol is None else args.tol
    bundle = load_bundle(args.bundle)
    if bundle.question is None:
        raise ElicitkitError("bundle has no question; nothing to synthesize")
    verdict = decide_incentivizable(bundle, tol=tol)
    if verdict.status != "incentivizable":
        _emit(_render(verdict.to_dict(), args.fmt, args.command), None)
        return _verdict_exit(verdict)
    method = synthesize(bundle, verdict, tol)
    _emit(dumps_method(method), args.out)
    if args.out is not None:
        summary = {
            "written": args.out,
            "provenance": method.provenance,
            "theorem": verdict.theorem,
        }
        _emit(_render(summary, args.fmt, args.command), None)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = _grid_spec(args)
    bundle = load_bundle(args.bundle)
    method = load_method(args.mechanism)
    report = verify_incentivizability(bundle, method, spec)
    _emit(_render(report.to_dict(), args.fmt, args.command), args.out)
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def _cmd_witness(args: argparse.Namespace) -> int:
    spec = _grid_spec(args)
    bundle = load_bundle(args.bundle)
    method = load_method(args.mechanism)
    witness = find_distortion_witness(bundle, method, spec)
    payload = {"witness": witness.to_dict() if witness is not None else None}
    _emit(_render(payload, args.fmt, args.command), args.out)
    return EXIT_OK if witness is not None else EXIT_NOT_FOUND


# ---------------------------------------------------------------------------
# Parser


#: The settings flags: ``--<name>`` -> ``add_argument`` options.
_FLAGS: dict[str, dict[str, Any]] = {
    "tol": {
        "type": float,
        "help": "relative tolerance: of alignment for check and synthesize, of the action "
        "sets for verify and witness (their report tolerance is ten times this)",
    },
    "grid": {"type": int, "help": "rational grid denominator"},
    "samples": {"type": int, "help": "Dirichlet sample count"},
    "seed": {"type": int, "help": "RNG seed"},
    "format": {"dest": "fmt", "choices": ("json", "md"), "default": "json"},
    "out": {"help": "write the output here instead of stdout"},
}

_SWEEP = ("tol", "grid", "samples", "seed", "format", "out")

#: The bundle subcommands: name -> (help, positionals, flags read, handler).
_COMMANDS: dict[
    str, tuple[str, tuple[str, ...], tuple[str, ...], Callable[[argparse.Namespace], int]]
] = {
    "classify": ("adjacency structure of a bundle", ("bundle",), ("format", "out"), _cmd_classify),
    "check": ("incentivizability verdict", ("bundle",), ("tol", "format", "out"), _cmd_check),
    "synthesize": ("build a mechanism", ("bundle",), ("tol", "format", "out"), _cmd_synthesize),
    "verify": ("sweep beliefs against a mechanism", ("bundle", "mechanism"), _SWEEP, _cmd_verify),
    "witness": ("search for a distortion witness", ("bundle", "mechanism"), _SWEEP, _cmd_witness),
}


def _add_flags(parser: argparse.ArgumentParser, names: Sequence[str]) -> None:
    for name in names:
        parser.add_argument(f"--{name}", **_FLAGS[name])


def _add_registry_flags(parser: argparse.ArgumentParser, registry: dict[str, Builder]) -> None:
    """One flag per registry parameter, its help naming every entry that takes it."""
    owners: dict[str, list[str]] = {}
    params: dict[str, Param] = {}
    for name, entry in registry.items():
        for param in entry.params:
            params[param.name] = param
            owners.setdefault(param.name, []).append(name)
    for key, param in params.items():
        parser.add_argument(
            f"--{key}", type=param.parse, help=f"{param.help} ({', '.join(owners[key])})"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elicitkit",
        description="Generate, classify, check, synthesize, and verify elicitation problems.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    gen = subparsers.add_parser("gen", help="write a canonical problem bundle")
    gen.add_argument("generator", help=", ".join(sorted(GENERATORS)))
    _add_registry_flags(gen, GENERATORS)
    gen.add_argument("--question", choices=tuple(QUESTIONS))
    _add_registry_flags(gen, QUESTIONS)
    gen.add_argument("--alpha", type=float, default=0.5, help="decision-payoff mixing weight")
    _add_flags(gen, ("out",))
    gen.set_defaults(func=_cmd_gen, subparser=gen)

    for name, (help_text, positionals, flags, handler) in _COMMANDS.items():
        command = subparsers.add_parser(name, help=help_text)
        for positional in positionals:
            command.add_argument(positional)
        _add_flags(command, flags)
        command.set_defaults(func=handler, subparser=command)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    # argparse would report a flag the subcommand does not take with the
    # top-level usage line; report it with the subcommand's own.
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        args.subparser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return int(args.func(args))
    except LPFailure as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # a directory, a missing permission, a full disk
        print(f"{exc.strerror}: {exc.filename}" if exc.filename else str(exc), file=sys.stderr)
        return EXIT_INPUT
    except ElicitkitError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'the input is too large'}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
