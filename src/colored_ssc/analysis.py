"""Verdict pipeline shared by the CLI and the test corpus runner.

One search decides the verdict: the edge-operation procedure, whose root
stage is the zero-forcing test of the leader set.  The graph conditions
are sufficient only, so a graph that passes neither is reported as
UNDECIDED, never as uncontrollable.  A numerical counterexample against a
positive graph verdict is a soundness violation and raises instead of
being reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .edgeops import EdgeOp, EeoTrace, RemoveEdges, TurnColor, eeo_derived_set
from .forcing import DEFAULT_CONFIG, DerivationTrace, SearchConfig
# Unused here; kept bound because perfbench/tracing.py wraps this name.
from .forcing import is_zero_forcing_set  # noqa: F401
from .graph import ColoredDigraph, serialize, vset_labels
from .oracle import NoLeadersError, OracleVerdict, sampled_verdict

VERDICT_CONTROLLABLE = "CONTROLLABLE"
VERDICT_UNDECIDED = "UNDECIDED"


class SoundnessError(RuntimeError):
    """A graph certificate contradicted by a sampled realization."""


@dataclass
class AnalysisReport:
    graph_id: str
    verdict: str
    method: str  # ZFS | EEO | NONE
    zfs_trace: DerivationTrace | None
    eeo_trace: EeoTrace | None
    oracle: OracleVerdict | None = None

    def to_jsonable(self, g: ColoredDigraph) -> dict:
        out: dict = {
            "graph_id": self.graph_id,
            "verdict": self.verdict,
            "method": self.method,
            "graph": serialize(g),
        }
        if self.zfs_trace is not None:
            out["forcing"] = derivation_to_jsonable(self.zfs_trace)
        if self.eeo_trace is not None:
            out["edge_operations"] = eeo_to_jsonable(self.eeo_trace)
        if self.oracle is not None:
            out["oracle"] = self.oracle.to_jsonable()
        return out


def derivation_to_jsonable(trace: DerivationTrace) -> dict:
    return {
        "initial": list(vset_labels(trace.initial)),
        "forces": [
            {
                "source": list(vset_labels(f.source)),
                "target": list(vset_labels(f.target)),
                "class_signature": f.class_signature,
            }
            for f in trace.steps
        ],
        "final": list(vset_labels(trace.final)),
        "truncated": trace.truncated,
    }


def op_to_jsonable(op: EdgeOp) -> dict:
    if isinstance(op, TurnColor):
        return {
            "op": "turn_color",
            "u": op.u + 1,
            "new_color": op.new_color + 1,
            "coloring_set": list(vset_labels(op.context)),
        }
    assert isinstance(op, RemoveEdges)
    return {
        "op": "remove_edges",
        "u": op.u + 1,
        "v": op.v + 1,
        "coloring_set": list(vset_labels(op.context)),
    }


def eeo_to_jsonable(trace: EeoTrace) -> dict:
    return {
        "derivations": [derivation_to_jsonable(d) for d in trace.derivations],
        "ops": [op_to_jsonable(op) for op in trace.ops],
        "stage_graphs": [serialize(g) for g in trace.graphs],
        "final": list(vset_labels(trace.final)),
        "complete": trace.complete,
        "budget_exhausted": trace.budget_exhausted,
    }


def analyze(
    g: ColoredDigraph,
    graph_id: str = "",
    use_oracle: bool = False,
    trials: int = 100,
    seed: int = 0,
    budget: int | None = None,
    config: SearchConfig = DEFAULT_CONFIG,
) -> AnalysisReport:
    """One edge-operation search from the leader set decides the verdict.

    Its root stage is the zero-forcing test, so a complete trace without
    edge operations is a ZFS verdict, its one derivation the witness.
    With ``use_oracle`` a sampled balancing check is attached; a sampled
    counterexample against a CONTROLLABLE verdict raises SoundnessError.
    """
    if not g.leaders:
        raise NoLeadersError("analysis requires a leader set")
    leader_mask = g.leader_mask
    trace = eeo_derived_set(g, leader_mask, budget, config)
    zfs_trace, eeo_trace = None, trace
    if trace.complete and not trace.ops:
        verdict, method = VERDICT_CONTROLLABLE, "ZFS"
        zfs_trace, eeo_trace = trace.derivations[0], None
        if not zfs_trace.replay_ok(g):
            raise SoundnessError(f"graph {graph_id or '<memory>'}: forcing witness does not replay")
    elif trace.complete:
        verdict, method = VERDICT_CONTROLLABLE, "EEO"
        if not trace.replay_ok():
            raise SoundnessError(f"graph {graph_id or '<memory>'}: derivation trace does not replay")
    else:
        verdict, method = VERDICT_UNDECIDED, "NONE"
    report = AnalysisReport(
        graph_id=graph_id,
        verdict=verdict,
        method=method,
        zfs_trace=zfs_trace,
        eeo_trace=eeo_trace,
    )
    if use_oracle:
        report.oracle = sampled_verdict(g, leader_mask, trials=trials, seed=seed)
        if verdict == VERDICT_CONTROLLABLE and not report.oracle.corroborated:
            raise SoundnessError(
                f"graph {graph_id or '<memory>'}: verdict CONTROLLABLE via {method} "
                f"but realization at seed offset {report.oracle.seed_offset} "
                f"is not balancing: {report.oracle.counterexample.to_jsonable()}"
            )
    return report
