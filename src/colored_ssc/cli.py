"""Command-line front end.

Subcommands: validate, bipartite, forcing, eeo-derive, oracle, check,
export-dot.  ``check`` runs one search, the edge-operation procedure whose
root stage is the zero-forcing test, and exits 0 for CONTROLLABLE, 2 for
UNDECIDED.  ``oracle`` prints the balancing test's verdict over sampled
realizations.  Every command exits 1 for input and usage errors, out-of-range
options included; 3 when the input needs more exhaustive search than a cap allows
(force-source subsets past ``SearchConfig.max_source_cap``, or a slice
side past ``bipartite.ENUMERATION_CAP``); a soundness violation (positive
certificate contradicted by the oracle) aborts with exit code 70.  Set
COLORED_SSC_LOG=debug for trace-level logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import (
    SoundnessError,
    VERDICT_CONTROLLABLE,
    analyze,
    derivation_to_jsonable,
    eeo_to_jsonable,
)
from .bipartite import (
    EnumerationCapError,
    enumerate_matchings,
    equivalence_classes,
    pattern_nonsingular,
    symbolic_det,
)
from .edgeops import eeo_derived_set
from .forcing import SearchBoundExceededError, derived_set_greedy, is_zero_forcing_set
from .graph import (
    GraphFormatError,
    dumps,
    induced_bipartite,
    load_graph,
    to_dot,
    vset_from_labels,
    vset_labels,
)
from .oracle import InvalidTrialsError, NoLeadersError, sampled_verdict
# Unused here; kept bound because perfbench/tracing.py wraps this name.
from .oracle import sample_realization  # noqa: F401

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_UNDECIDED = 2
EXIT_SEARCH_CAP = 3
EXIT_SOUNDNESS = 70

# No rank test is left; kept bound because perfbench/tracing.py wraps this name.
kalman_report = None


class UnknownStageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # argparse exits 2 on a usage error, which would read as UNDECIDED
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)

    return integer


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="graph JSON file")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--seed", type=_int_at_least(0), default=0)


def _parse_labels(text: str, n: int, flag: str) -> int:
    labels = [int(part) for part in text.split(",") if part]
    outside = [v for v in labels if not 1 <= v <= n]
    if outside:
        raise ValueError(f"{flag} names vertices outside 1..{n}: {outside}")
    return vset_from_labels(labels)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="colored-ssc",
        description="Controllability analysis for colored leader-follower networks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a graph file and echo canonical form")
    _common_flags(p)

    p = sub.add_parser("bipartite", help="matchings and classes of an induced slice")
    _common_flags(p)
    p.add_argument("--x", required=True, help="comma-separated source vertices (1-based)")
    p.add_argument("--coloring", help="black set, defaults to --x")

    p = sub.add_parser("forcing", help="zero-forcing-set test or greedy derivation")
    _common_flags(p)
    p.add_argument("--greedy", action="store_true", help="greedy derivation, no backtracking")

    p = sub.add_parser("eeo-derive", help="edge-operations derivation procedure")
    _common_flags(p)
    p.add_argument("--budget", type=_int_at_least(1), default=None)
    p.add_argument("--dot-dir", help="write per-stage DOT files into this directory")

    p = sub.add_parser("oracle", help="sampled balancing check over realizations")
    _common_flags(p)
    p.add_argument("--trials", type=_int_at_least(1), default=100)

    p = sub.add_parser("check", help="full verdict pipeline (exit 0/2/1/3)")
    _common_flags(p)
    p.add_argument("--oracle", action="store_true", help="attach a sampled cross-check")
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p.add_argument("--budget", type=_int_at_least(1), default=None)

    p = sub.add_parser("export-dot", help="DOT rendering of the graph or a derived stage")
    _common_flags(p)
    p.add_argument("--stage", type=int, default=0, help="0 = input graph, k = after k-th op")
    p.add_argument("--budget", type=_int_at_least(1), default=None)
    p.add_argument("-o", "--output", help="output file (default stdout)")

    return parser


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


def _cmd_validate(args) -> int:
    g = load_graph(args.path)
    sys.stdout.write(dumps(g))
    return EXIT_OK


def _cmd_bipartite(args) -> int:
    g = load_graph(args.path)
    source = _parse_labels(args.x, g.n, "--x")
    if not source:
        raise ValueError("--x names no vertex")
    black = _parse_labels(args.coloring, g.n, "--coloring") if args.coloring else source
    b = induced_bipartite(g, source, black)
    matchings = enumerate_matchings(b)
    classes = equivalence_classes(matchings)
    verdict = pattern_nonsingular(b)
    det = symbolic_det(b)
    payload = {
        "x": [v + 1 for v in b.x_vertices],
        "y": [v + 1 for v in b.y_vertices],
        "colors": list(b.colors),
        "matchings": [
            {
                "pairs": [
                    [b.x_vertices[i] + 1, b.y_vertices[yi] + 1]
                    for i, yi in enumerate(m.assignment)
                ],
                "sign": m.sign,
                "spectrum": list(m.spectrum),
            }
            for m in matchings
        ],
        "classes": [
            {"spectrum": list(c.spectrum), "members": c.members, "signature": c.signature}
            for c in classes
        ],
        "determinant": str(det),
        "nonsingular": verdict,
    }
    lines = [
        f"X = {payload['x']}  Y = {payload['y']}  colors = {list(b.colors)}",
        f"{len(matchings)} perfect matching(s)",
    ]
    for c in classes:
        lines.append(f"  class spectrum={c.spectrum} members={c.members} signature={c.signature}")
    lines.append(f"determinant: {det}")
    lines.append(f"nonsingular: {verdict}")
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_forcing(args) -> int:
    g = load_graph(args.path)
    if not g.leaders:
        raise NoLeadersError("forcing analysis requires a leader set in the file")
    black = g.leader_mask
    if args.greedy:
        trace = derived_set_greedy(g, black)
        payload = {"mode": "greedy", "zero_forcing": trace.final == g.full_mask}
        payload.update(derivation_to_jsonable(trace))
        lines = [f"greedy derived set: {list(vset_labels(trace.final))}"]
    else:
        ok, witness = is_zero_forcing_set(g, black)
        payload = {"mode": "exhaustive", "zero_forcing": ok}
        lines = [f"zero forcing set: {ok}"]
        if witness is not None:
            payload.update(derivation_to_jsonable(witness))
            trace = witness
        else:
            trace = None
    if trace is not None:
        for force in trace.steps:
            lines.append(f"  force {force.describe()}  (signature {force.class_signature})")
    _emit(payload, args.json, lines)
    return EXIT_OK


def _run_eeo(args):
    g = load_graph(args.path)
    if not g.leaders:
        raise NoLeadersError("derivation requires a leader set in the file")
    return g, eeo_derived_set(g, g.leader_mask, budget=args.budget)


def _cmd_eeo(args) -> int:
    g, trace = _run_eeo(args)
    payload = eeo_to_jsonable(trace)
    lines = [
        f"final black set: {list(vset_labels(trace.final))}",
        f"complete: {trace.complete}",
    ]
    for op, stage_graph in zip(trace.ops, trace.graphs):
        lines.append(f"  {op.describe(stage_graph)}")
    if trace.budget_exhausted:
        lines.append("warning: search budget exhausted; result may be improvable")
    if args.dot_dir:
        directory = Path(args.dot_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for i, stage_graph in enumerate(trace.graphs):
            (directory / f"stage{i}.dot").write_text(to_dot(stage_graph))
        lines.append(f"wrote {len(trace.graphs)} stage DOT file(s) to {directory}")
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = load_graph(args.path)
    if not g.leaders:
        raise NoLeadersError("oracle requires a leader set in the file")
    verdict = sampled_verdict(g, trials=args.trials, seed=args.seed)
    payload = verdict.to_jsonable()
    lines = [f"verdict: {payload['verdict']} ({args.trials} trials)"]
    if verdict.counterexample is not None:
        lines.append(f"counterexample at seed offset {verdict.seed_offset}")
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_check(args) -> int:
    g = load_graph(args.path)
    report = analyze(
        g,
        graph_id=Path(args.path).stem,
        use_oracle=args.oracle,
        trials=args.trials,
        seed=args.seed,
        budget=args.budget,
    )
    payload = report.to_jsonable(g)
    lines = [f"{report.graph_id}: {report.verdict} (method {report.method})"]
    _emit(payload, args.json, lines)
    return EXIT_OK if report.verdict == VERDICT_CONTROLLABLE else EXIT_UNDECIDED


def _cmd_export_dot(args) -> int:
    if args.stage == 0:
        g = load_graph(args.path)
        text = to_dot(g)
    else:
        _, trace = _run_eeo(args)
        if not 0 <= args.stage < len(trace.graphs):
            raise UnknownStageError(
                f"stage {args.stage} does not exist; trace has {len(trace.graphs)} stage(s)"
            )
        text = to_dot(trace.graphs[args.stage])
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "bipartite": _cmd_bipartite,
    "forcing": _cmd_forcing,
    "eeo-derive": _cmd_eeo,
    "oracle": _cmd_oracle,
    "check": _cmd_check,
    "export-dot": _cmd_export_dot,
}


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("COLORED_SSC_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except SoundnessError as exc:
        print(f"internal soundness violation: {exc}", file=sys.stderr)
        return EXIT_SOUNDNESS
    except (SearchBoundExceededError, EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH_CAP
    except (
        GraphFormatError,
        NoLeadersError,
        InvalidTrialsError,
        UnknownStageError,
        json.JSONDecodeError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
