"""Timed in-process CLI calls, output checks and PAR-2 statistics."""

from __future__ import annotations

import hashlib
import io
import json
import signal
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import ORACLE_TRIALS, GraphCase

# Expected `check` answers for the bundled figures, every one CONTROLLABLE
# (exit 0) with the bundled leader set.  Sources:
#   fig2, fig3  the single source {1,2,3} forces {4,5,6}; the fig3 slice is
#               nonsingular by criterion 1, and the fig2 slice has two
#               matchings c1*c2*c3 of equal sign (signature 2)
#   fig4, fig8  criteria 2 and 6 (zero-forcing witnesses)
#   fig5 = fig6a  criterion 3 (not forcing) and the fig5 EEO CLI test
#   fig6b       no source at {1,2} has a matching white set; one
#               remove-edges op gives fig6c
#   fig6c       classic forcing 2->5->4->3 (criterion 4)
#   fig7a-c     criterion 5: forcing sticks until the ops (7,1) and (11,2)
#   fig7d       2->8, 6->10, 10->3, 7->12, 11->9 force everything
#   fig7e       every vertex is a leader
CORPUS_EXPECTED = {
    "fig2": "ZFS", "fig3": "ZFS", "fig4": "ZFS", "fig5": "EEO",
    "fig6a": "EEO", "fig6b": "EEO", "fig6c": "ZFS",
    "fig7a": "EEO", "fig7b": "EEO", "fig7c": "EEO", "fig7d": "ZFS",
    "fig7e": "ZFS", "fig8": "ZFS",
}

SOUNDNESS_TRIALS = 10


class GraphTimeout(BaseException):
    """Raised by SIGALRM inside a call that ran past the time limit."""


def _alarm(signum, frame):
    raise GraphTimeout


@dataclass
class Outcome:
    index: int
    seconds: float
    failure: str | None  # None when the graph got a checked answer
    verdict: str | None
    method: str | None
    positive: bool  # CONTROLLABLE from check, CORROBORATED from oracle
    output_bytes: int
    wrong: str | None = None  # an output check failed: the run is incorrect

    def digest_line(self) -> str:
        return f"{self.index}:{self.failure or ''}:{self.verdict}:{self.method}"


def timed_call(main, argv: list[str], limit: float) -> tuple[float, int | None, str, str | None]:
    """(seconds, exit code, stdout, failure) of one ``main(argv)`` call.

    Exceptions and the SIGALRM time limit end the call as a failure; the
    caller goes on with the next graph.
    """
    out = io.StringIO()
    code = failure = elapsed = None
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    except GraphTimeout:
        failure = "timeout"
    except SystemExit as exc:  # argparse rejecting the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the program's own crash is a counted failure
        failure = type(exc).__name__
    if elapsed is None:
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue(), failure


def judge_check(case: GraphCase, path: Path, code: int | None, text: str) -> tuple[str | None, str | None, str | None, str | None]:
    """(failure, wrong, verdict, method) for a completed ``check --json`` call."""
    if code not in (0, 2):
        return f"exit{code}", None, None, None
    try:
        report = json.loads(text)
        verdict, method = report["verdict"], report["method"]
    except (ValueError, KeyError, TypeError):
        return "bad-output", "output is not a check report", None, None
    expected = ("CONTROLLABLE", {"ZFS", "EEO"}) if code == 0 else ("UNDECIDED", {"NONE"})
    if verdict != expected[0] or method not in expected[1]:
        return "bad-output", f"exit {code} with verdict {verdict} method {method}", verdict, method
    if report.get("graph") != case.doc or report.get("graph_id") != path.stem:
        return "bad-output", "report does not echo the input graph", verdict, method
    return None, None, verdict, method


def judge_oracle(case: GraphCase, code: int | None, text: str) -> tuple[str | None, str | None, str | None]:
    """(failure, wrong, verdict) for a completed ``oracle --json`` call."""
    if code != 0:
        return f"exit{code}", None, None
    try:
        report = json.loads(text)
        verdict, trials = report["verdict"], report["trials"]
    except (ValueError, KeyError, TypeError):
        return "bad-output", "output is not an oracle report", None
    if trials != ORACLE_TRIALS:
        return "bad-output", f"report claims {trials} trials", verdict
    if verdict != case.expected:
        return "bad-output", f"{case.family} graph: {verdict}, known answer {case.expected}", verdict
    return None, None, verdict


def run_graph(main, argv: list[str], case: GraphCase, path: Path, limit: float) -> Outcome:
    seconds, code, text, failure = timed_call(main, [argv[0], str(path), *argv[1:]], limit)
    verdict = method = wrong = None
    if failure is None:
        if argv[0] == "check":
            failure, wrong, verdict, method = judge_check(case, path, code, text)
            positive = failure is None and code == 0
        else:
            failure, wrong, verdict = judge_oracle(case, code, text)
            positive = failure is None and verdict == "CORROBORATED"
    else:
        positive = False
    return Outcome(case.index, seconds, failure, verdict, method, positive, len(text), wrong)


def corpus_gate(main) -> list[str]:
    """Mismatches of ``check --json`` on the bundled figures (empty: pass)."""
    from colored_ssc.corpus import GRAPH_IDS, path

    problems = []
    if set(GRAPH_IDS) != set(CORPUS_EXPECTED):
        problems.append(f"corpus ids {sorted(GRAPH_IDS)} differ from the expected table")
    for graph_id, method in CORPUS_EXPECTED.items():
        _, code, text, failure = timed_call(main, ["check", str(path(graph_id)), "--json"], 60.0)
        try:
            report = json.loads(text) if failure is None else {}
        except ValueError:
            report = {}
        got = (failure, code, report.get("verdict"), report.get("method"))
        if got != (None, 0, "CONTROLLABLE", method):
            problems.append(f"{graph_id}: got {got}, expected CONTROLLABLE via {method}")
    return problems


def soundness(outcomes: list[Outcome], paths: list[Path]) -> str | None:
    """Re-verify every CONTROLLABLE answer by sampling; the first counterexample."""
    from colored_ssc.graph import load_graph
    from colored_ssc.oracle import sampled_verdict

    for o in outcomes:
        if o.positive:
            verdict = sampled_verdict(load_graph(paths[o.index]), trials=SOUNDNESS_TRIALS, seed=10_000 + o.index)
            if not verdict.corroborated:
                return f"graph {o.index}: CONTROLLABLE but not balancing at seed offset {verdict.seed_offset}"
    return None


def charged(outcomes: list[Outcome], limit: float) -> np.ndarray:
    """PAR-2 per-graph cost: a failure costs 2*T on top of the time it took,
    so it is dearer than any answer and the figure still reads measured time."""
    return np.array([o.seconds + (2.0 * limit if o.failure else 0.0) for o in outcomes])


def timing_stats(costs: np.ndarray) -> dict[str, float]:
    p50, p90 = np.percentile(costs, [50, 90])
    return {
        "graph_s_p50": float(p50),
        "graph_s_p90": float(p90),
        "par2_s": float(costs.mean()),
        "tail_samples": int(np.sum(costs > p90)),
    }


def digest(outcomes: list[Outcome]) -> str:
    text = "\n".join(o.digest_line() for o in outcomes)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verdict_mismatches(first: list[str], second: list[str]) -> tuple[int, int]:
    """(differing graphs, graphs skipped) between two passes' digest lines.

    A graph that timed out in either pass is skipped: one near T can finish
    in one pass and not in the other.
    """
    if len(first) != len(second):
        return max(len(first), len(second)), 0
    timed_out = [":timeout:" in a or ":timeout:" in b for a, b in zip(first, second)]
    differing = sum(a != b for a, b, t in zip(first, second, timed_out) if not t)
    return differing, sum(timed_out)
