"""Spans and counters recorded around the package's layer boundaries.

The program is not edited: :func:`install` rebinds the module globals (and
two trace classes' ``replay_ok``) through which one layer calls the next,
and :meth:`Tracer.restore` puts the originals back.  Spans carry (name,
start, end, parent, graph index) and are kept in flat arrays until the run
ends.  Self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.graph = array("q")
        self.counts: Counter[str] = Counter()
        self.graph_index = -1
        self.known_controllable = False
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str | None, fn, after=None):
        """``fn`` recording a span called ``name`` (None: no span) and then
        calling ``after(result, *args)`` on each normal return."""
        nid = None if name is None else self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nid is None:
                result = fn(*args, **kwargs)
            else:
                idx = len(self.start)
                self.name.append(nid)
                self.parent.append(self._stack[-1] if self._stack else -1)
                self.graph.append(self.graph_index)
                self.end.append(0.0)
                self._stack.append(idx)
                self.start.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    self.counts[f"{name}!{type(exc).__name__}"] += 1
                    raise
                finally:
                    self.end[idx] = perf_counter()
                    self._stack.pop()
            if after is not None:
                after(result, *args)
            return result

        return traced

    def patch(self, owner, attr: str, name: str | None, after=None) -> None:
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "graph": np.frombuffer(self.graph, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: (inclusive seconds, self seconds).

        Inclusive time counts only spans with no ancestor of the same name,
        so a recursive or nested layer is not counted twice.
        """
        if not len(self):
            return {}, {}
        a = self.arrays()
        duration = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        own = duration - child
        outermost = np.ones(len(duration), dtype=bool)
        ancestor = parent.copy()
        while True:
            live = ancestor >= 0
            if not live.any():
                break
            safe = np.where(live, ancestor, 0)
            outermost &= ~(live & (a["name"][safe] == a["name"]))
            ancestor = np.where(live, parent[safe], -1)
        k = len(self.names)
        inclusive = np.bincount(a["name"], weights=np.where(outermost, duration, 0.0), minlength=k)
        selves = np.bincount(a["name"], weights=own, minlength=k)
        return (
            {n: float(inclusive[i]) for i, n in enumerate(self.names)},
            {n: float(selves[i]) for i, n in enumerate(self.names)},
        )

    def top_level_seconds(self, name: str) -> float:
        if name not in self._ids or not len(self):
            return 0.0
        a = self.arrays()
        top = (a["parent"] < 0) & (a["name"] == self._ids[name])
        return float(np.sum(a["end"][top] - a["start"][top]))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from colored_ssc import analysis, cli, edgeops, forcing, oracle

    c = tracer.counts

    def forces_found(result, *args):
        c["forcing.forces_found"] += len(result)

    def slice_tested(result, *args):
        c["bipartite.nonsingular"] += result is not None

    def budget(result, *args):
        c["edgeops.budget_exhausted"] += result.budget_exhausted

    def ops_found(result, *args):
        c["edgeops.ops_found"] += len(result)

    def sampled(result, *args):
        c["oracle.samples"] += 1

    def solves(result, w, *args):
        # One null-space solve per round; the last round solves and finds
        # nothing unless every vertex was already zero.
        c["oracle.nullspace_solves"] += len(result.steps) + (result.final != (1 << w.shape[0]) - 1)

    def rank(result, *args):
        if tracer.known_controllable and not result.controllable:
            c["oracle.rank_false_negatives"] += 1

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "load_graph", "graph.load")
    tracer.patch(cli, "analyze", "analysis.analyze")
    tracer.patch(analysis, "is_zero_forcing_set", "forcing.search")
    tracer.patch(forcing, "find_forces", "forcing.find_forces", forces_found)
    tracer.patch(forcing, "induced_bipartite", "graph.slice")
    tracer.patch(forcing, "certifying_signature", "bipartite.test", slice_tested)
    tracer.patch(forcing.DerivationTrace, "replay_ok", "analysis.replay")
    tracer.patch(edgeops.EeoTrace, "replay_ok", "analysis.replay")
    tracer.patch(analysis, "eeo_derived_set", "edgeops.eeo", budget)
    tracer.patch(edgeops, "derivation_outcomes", "edgeops.outcomes")
    tracer.patch(edgeops, "find_edge_ops", None, ops_found)
    tracer.patch(edgeops, "apply_op", "edgeops.apply")
    tracer.patch(cli, "sampled_verdict", "oracle.verdict")
    tracer.patch(oracle, "is_balancing_set", "oracle.balancing")
    tracer.patch(oracle, "zero_extension_derived_set", None, solves)
    tracer.patch(oracle, "sample_realization", None, sampled)
    tracer.patch(cli, "sample_realization", None, sampled)
    tracer.patch(cli, "kalman_report", "oracle.rank", rank)


# (metric, unit) in the order they are reported; all "/graph" figures are
# totals over the traced pass divided by the graphs attempted.
PER_LAYER = (
    ("cli.self_s", "s/graph"),
    ("cli.output_bytes", "bytes/graph"),
    ("graph.load_s", "s/graph"),
    ("graph.slice_calls", "count/graph"),
    ("graph.slice_s", "s/graph"),
    ("bipartite.slices_tested", "count/graph"),
    ("bipartite.test_s", "s/graph"),
    ("bipartite.nonsingular_ratio", "ratio"),
    ("forcing.search_s", "s/graph"),
    ("forcing.find_forces_calls", "count/graph"),
    ("forcing.forces_found", "count/graph"),
    ("forcing.find_forces_self_s", "s/graph"),
    ("forcing.bound_errors", "count/graph"),
    ("edgeops.eeo_s", "s/graph"),
    ("edgeops.states", "count/graph"),
    ("edgeops.outcomes_s", "s/graph"),
    ("edgeops.self_s", "s/graph"),
    ("edgeops.ops_found", "count/graph"),
    ("edgeops.ops_applied", "count/graph"),
    ("edgeops.apply_s", "s/graph"),
    ("edgeops.budget_exhausted", "count/graph"),
    ("analysis.analyze_s", "s/graph"),
    ("analysis.replay_s", "s/graph"),
    ("analysis.self_s", "s/graph"),
    ("oracle.verdict_s", "s/graph"),
    ("oracle.trials", "count/graph"),
    ("oracle.balancing_s", "s/graph"),
    ("oracle.nullspace_solves", "count/graph"),
    ("oracle.samples", "count/graph"),
    ("oracle.rank_calls", "count/graph"),
    ("oracle.rank_s", "s/graph"),
    ("oracle.rank_false_negatives", "count/graph"),
    ("failed_share", "ratio"),
    ("controllable_share", "ratio"),
    ("trace.top_span_share", "ratio"),
    ("trace.overhead_s", "s/graph"),
)


def layer_metrics(tracer: Tracer, graphs: int, output_bytes: int) -> dict[str, float]:
    """Per-graph layer figures from one traced pass over ``graphs`` graphs.

    The run-level entries (failed_share, controllable_share and the
    trace.* pair) are filled in by the caller.
    """
    inclusive, selves = tracer.times()
    per_name = np.bincount(tracer.arrays()["name"], minlength=len(tracer.names))
    spans = Counter(dict(zip(tracer.names, per_name.tolist())))
    c = tracer.counts
    total = {
        "cli.self_s": selves.get("cli.main", 0.0),
        "cli.output_bytes": output_bytes,
        "graph.load_s": inclusive.get("graph.load", 0.0),
        "graph.slice_calls": spans["graph.slice"],
        "graph.slice_s": inclusive.get("graph.slice", 0.0),
        "bipartite.slices_tested": spans["bipartite.test"],
        "bipartite.test_s": inclusive.get("bipartite.test", 0.0),
        "forcing.search_s": inclusive.get("forcing.search", 0.0),
        "forcing.find_forces_calls": spans["forcing.find_forces"],
        "forcing.forces_found": c["forcing.forces_found"],
        "forcing.find_forces_self_s": selves.get("forcing.find_forces", 0.0),
        "forcing.bound_errors": c["forcing.find_forces!SearchBoundExceededError"],
        "edgeops.eeo_s": inclusive.get("edgeops.eeo", 0.0),
        "edgeops.states": spans["edgeops.outcomes"],
        "edgeops.outcomes_s": inclusive.get("edgeops.outcomes", 0.0),
        "edgeops.self_s": selves.get("edgeops.eeo", 0.0),
        "edgeops.ops_found": c["edgeops.ops_found"],
        "edgeops.ops_applied": spans["edgeops.apply"],
        "edgeops.apply_s": inclusive.get("edgeops.apply", 0.0),
        "edgeops.budget_exhausted": c["edgeops.budget_exhausted"],
        "analysis.analyze_s": inclusive.get("analysis.analyze", 0.0),
        "analysis.replay_s": inclusive.get("analysis.replay", 0.0),
        "analysis.self_s": selves.get("analysis.analyze", 0.0),
        "oracle.verdict_s": inclusive.get("oracle.verdict", 0.0),
        "oracle.trials": spans["oracle.balancing"],
        "oracle.balancing_s": inclusive.get("oracle.balancing", 0.0),
        "oracle.nullspace_solves": c["oracle.nullspace_solves"],
        "oracle.samples": c["oracle.samples"],
        "oracle.rank_calls": spans["oracle.rank"],
        "oracle.rank_s": inclusive.get("oracle.rank", 0.0),
        "oracle.rank_false_negatives": c["oracle.rank_false_negatives"],
    }
    out = {k: v / graphs for k, v in total.items()}
    tests = spans["bipartite.test"]
    out["bipartite.nonsingular_ratio"] = c["bipartite.nonsingular"] / tests if tests else 0.0
    return out
