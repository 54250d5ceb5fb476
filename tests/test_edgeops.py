"""Edge operations, their preconditions, and the alternating procedure."""

from __future__ import annotations

from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from colored_ssc import edgeops, forcing
from colored_ssc.analysis import analyze, eeo_to_jsonable
from colored_ssc.bipartite import slice_signature, symbolic_det
from colored_ssc.corpus import GRAPH_IDS, load as load_fig
from colored_ssc.edgeops import (
    EeoTrace,
    RemoveEdges,
    TurnColor,
    apply_op,
    eeo_derived_set,
    find_edge_ops,
    op_delta,
    stage_key,
)
from colored_ssc.forcing import (
    DerivationTrace,
    derivation_outcomes,
    derived_set_greedy,
    is_zero_forcing_set,
)
from colored_ssc.graph import ColoredDigraph, iter_vset, validate, vset
from colored_ssc.oracle import (
    Realization,
    sample_realization,
    zero_extension_derived_set,
)

from conftest import (
    eager_forces,
    force_mutations,
    labels,
    members1,
    random_bipartite,
    random_digraph,
    reducible,
    reference_eeo_derived_set,
    standalone_bipartite,
    sweep_graphs,
    weighted_adjacency,
)

# forcing-scale seed 9 graph 501 of perfbench/workloads.py (n = 18, 3 colors):
# its search ends UNDECIDED by exhausting the space.  Memoized on exact
# (graph, black set) states it expands 4,698 stages.
FS_SEED9_501 = {
    "n": 18,
    "colors": ["c1", "c2", "c3"],
    "edges": [
        [1, 4, 3], [1, 7, 3], [1, 12, 3], [1, 13, 3], [1, 17, 3], [1, 18, 1], [2, 3, 1],
        [2, 4, 3], [2, 5, 1], [2, 7, 1], [2, 8, 3], [2, 9, 1], [2, 12, 1], [2, 15, 3],
        [3, 4, 2], [3, 5, 3], [3, 7, 3], [3, 13, 2], [3, 16, 2], [3, 17, 2], [4, 5, 1],
        [4, 14, 1], [4, 15, 3], [5, 7, 2], [5, 12, 2], [5, 13, 2], [5, 18, 2], [6, 5, 1],
        [6, 11, 1], [6, 16, 3], [7, 1, 2], [7, 10, 3], [7, 11, 3], [7, 13, 3], [7, 14, 2],
        [8, 11, 3], [8, 13, 3], [8, 14, 3], [9, 1, 3], [9, 10, 3], [9, 11, 3], [10, 9, 2],
        [10, 12, 3], [10, 15, 1], [11, 9, 1], [11, 10, 1], [11, 14, 3], [11, 18, 3],
        [12, 1, 2], [12, 7, 2], [12, 13, 1], [12, 16, 2], [13, 1, 1], [13, 3, 1],
        [13, 14, 1], [13, 18, 2], [14, 3, 3], [14, 8, 1], [14, 9, 2], [14, 10, 2],
        [14, 11, 2], [14, 16, 3], [14, 18, 3], [15, 5, 3], [15, 6, 2], [15, 7, 3],
        [15, 12, 1], [15, 14, 3], [16, 5, 2], [16, 9, 2], [16, 12, 1], [16, 17, 1],
        [17, 2, 3], [17, 4, 1], [17, 6, 3], [17, 7, 1], [17, 10, 2], [17, 11, 1],
        [17, 14, 2], [18, 5, 2], [18, 12, 1], [18, 16, 3],
    ],
    "leaders": [1, 2, 3, 4, 6, 8, 12, 15, 18],
}


def offered(g: ColoredDigraph, op) -> bool:
    """Whether ``find_edge_ops`` offers ``op`` at its context, the only
    precondition an operation has."""
    return op in find_edge_ops(g, op.context)


class TestTurnColor:
    def test_fig6a_to_fig6b(self):
        op = TurnColor(u=0, new_color=1, context=labels(1, 2))
        assert offered(load_fig("fig6a"), op)
        assert apply_op(load_fig("fig6a"), op) == load_fig("fig6b")

    def test_empty_fan_rejected(self):
        g = ColoredDigraph(n=3, edges=((0, 1, 0), (1, 2, 1)), colors=("c1", "c2"))
        # 2's fan is empty once every vertex is black
        assert not offered(g, TurnColor(u=2, new_color=0, context=g.full_mask))

    def test_mixed_colors_rejected(self):
        # vertex 2's white fan holds c1 and c2, so no recoloring of it is offered
        ops = find_edge_ops(load_fig("fig6a"), labels(1, 2))
        assert not [op for op in ops if isinstance(op, TurnColor) and op.u == 1]

    def test_same_color_rejected(self):
        assert not offered(load_fig("fig6a"), TurnColor(u=0, new_color=0, context=labels(1, 2)))

    def test_unknown_color_rejected(self):
        assert not offered(load_fig("fig6a"), TurnColor(u=0, new_color=5, context=labels(1, 2)))

    def test_emptied_cell_dropped(self):
        g = ColoredDigraph(
            n=3, edges=((0, 1, 0), (0, 2, 0), (1, 2, 1)), colors=("c1", "c2")
        )
        op = TurnColor(u=0, new_color=1, context=labels(1))  # whole c1 cell is 1's white fan
        assert offered(g, op)
        out = apply_op(g, op)
        assert out.colors == ("c2",)
        assert {c for _, _, c in out.edges} == {0}


class TestRemoveEdges:
    def test_fig6b_to_fig6c(self):
        op = RemoveEdges(u=0, v=1, context=labels(1, 2))
        assert offered(load_fig("fig6b"), op)
        assert apply_op(load_fig("fig6b"), op) == load_fig("fig6c")

    def test_fig7a_removal(self):
        op = RemoveEdges(u=6, v=0, context=labels(1, 2, 5, 6, 7))
        assert offered(load_fig("fig7a"), op)
        assert apply_op(load_fig("fig7a"), op) == load_fig("fig7b")

    def test_vacuous_removal_is_identity(self):
        # vertex 3 has no white fan, so removing it would change nothing;
        # no such removal is offered, and every offered operation changes g
        g = load_fig("fig6a")
        black = labels(1, 2, 3, 4, 5)
        assert not offered(g, RemoveEdges(u=2, v=0, context=black))
        assert all(apply_op(g, op) != g for op in find_edge_ops(g, black))

    def test_not_nested_rejected(self):
        assert not offered(load_fig("fig6b"), RemoveEdges(u=1, v=0, context=labels(1, 2)))

    def test_color_mismatch_rejected(self):
        assert not offered(load_fig("fig6a"), RemoveEdges(u=0, v=1, context=labels(1, 2)))

    def test_same_vertex_rejected(self):
        assert not offered(load_fig("fig6a"), RemoveEdges(u=0, v=0, context=labels(1, 2)))


class TestFindEdgeOps:
    def test_fig6b_offers_removal(self):
        ops = find_edge_ops(load_fig("fig6b"), labels(1, 2))
        assert RemoveEdges(u=0, v=1, context=labels(1, 2)) in ops

    def test_fig7c_offers_second_removal(self):
        black = labels(1, 2, 4, 5, 6, 7, 11)
        ops = find_edge_ops(load_fig("fig7c"), black)
        assert RemoveEdges(u=10, v=1, context=black) in ops

    def test_all_black_offers_nothing(self):
        g = load_fig("fig6a")
        assert find_edge_ops(g, g.full_mask) == []

    def test_removals_come_first(self):
        ops = find_edge_ops(load_fig("fig6b"), labels(1, 2))
        kinds = [type(op).__name__ for op in ops]
        assert kinds == sorted(kinds, key=lambda k: k != "RemoveEdges")

    def test_ops_never_add_edges_or_colors(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            g = random_digraph(rng, with_leaders=False)
            black = int(rng.integers(1, g.full_mask + 1))
            for op in find_edge_ops(g, black):
                derived = apply_op(g, op)
                assert len(derived.edges) <= len(g.edges)
                assert set(derived.colors) <= set(g.colors)
                assert {(t, h) for t, h, _ in derived.edges} <= {
                    (t, h) for t, h, _ in g.edges
                }


    def test_matches_per_edge_reference(self):
        # the reference compares fans head by head through an edge lookup
        rng = np.random.default_rng(18)
        for _ in range(200):
            g = random_digraph(rng, n_max=9, with_leaders=False)
            black = int(rng.integers(1, g.full_mask + 1))
            assert find_edge_ops(g, black) == per_edge_ops(g, black)

    def test_stage_graph_passes_validation(self):
        # a stage graph is built without the checks; building it again with
        # them changes nothing
        rng = np.random.default_rng(19)
        for _ in range(60):
            g = random_digraph(rng)
            black = int(rng.integers(1, g.full_mask + 1))
            for op in find_edge_ops(g, black):
                d = apply_op(g, op)
                checked = ColoredDigraph(n=d.n, edges=d.edges, colors=d.colors, leaders=d.leaders)
                assert d == checked

    def test_stage_rows_match_rebuilt_graph(self):
        # a stage graph inherits every row but the tail's from its parent,
        # and rebuilds them when the palette is renumbered
        rng = np.random.default_rng(29)
        shared = renumbered = 0
        for _ in range(150):
            g = random_digraph(rng, n_max=9, with_leaders=False)
            black = int(rng.integers(1, g.full_mask + 1))
            for op in find_edge_ops(g, black):
                d = apply_op(g, op)
                rebuilt = ColoredDigraph(n=d.n, edges=d.edges, colors=d.colors, leaders=d.leaders)
                assert d.out_masks == rebuilt.out_masks
                assert d.out_edges == rebuilt.out_edges
                if isinstance(op, TurnColor):
                    assert d.out_masks is g.out_masks
                if len(d.colors) < len(g.colors):
                    renumbered += 1
                    continue
                tail = op.u if isinstance(op, TurnColor) else op.v
                assert all(d.out_edges[w] is g.out_edges[w] for w in range(g.n) if w != tail)
                shared += 1
        assert shared > 100 and renumbered > 5


def per_edge_ops(g: ColoredDigraph, black: int) -> list:
    """The operations at ``black``, found by comparing each head's colors:
    removals by (u, v), then recolorings by (u, new_color)."""
    members = list(iter_vset(black))
    fans = {u: g.out_masks[u] & ~black for u in members}
    edge_color = {(t, h): c for t, h, c in g.edges}
    ops: list = []
    for u in members:
        for v in members:
            if fans[u] and u != v and not fans[u] & ~fans[v]:
                if all(edge_color[(u, k)] == edge_color[(v, k)] for k in iter_vset(fans[u])):
                    ops.append(RemoveEdges(u=u, v=v, context=black))
    for u in members:
        colors = {edge_color[(u, k)] for k in iter_vset(fans[u])}
        if len(colors) == 1:
            ops += [TurnColor(u, c, black) for c in range(len(g.colors)) if c not in colors]
    return ops


class TestEeoDerivation:
    def test_fig7_completes_with_expected_ops(self):
        g = load_fig("fig7a")
        trace = eeo_derived_set(g, g.leader_mask)
        assert trace.complete
        assert all(isinstance(op, RemoveEdges) for op in trace.ops)
        assert [(op.u + 1, op.v + 1) for op in trace.ops] == [(7, 1), (11, 2)]
        assert members1(trace.derivations[1].final) == (1, 2, 4, 5, 6, 7, 11)
        assert trace.replay_ok()

    def test_fig5_turn_then_remove_then_chain(self):
        g = load_fig("fig5")
        trace = eeo_derived_set(g, g.leader_mask)
        assert trace.complete
        assert isinstance(trace.ops[0], TurnColor)
        assert isinstance(trace.ops[1], RemoveEdges)
        assert trace.graphs[1] == load_fig("fig6b")
        assert trace.graphs[2] == load_fig("fig6c")
        assert len(trace.derivations[2].steps) == 3  # the closing forcing chain
        assert trace.replay_ok()

    def test_all_black_trivial(self):
        g = load_fig("fig5")
        trace = eeo_derived_set(g, g.full_mask)
        assert trace.complete and trace.ops == ()
        assert trace.derivations[0].steps == ()

    def test_budget_exhaustion_flags_trace(self):
        g = load_fig("fig5")
        trace = eeo_derived_set(g, g.leader_mask, budget=1)
        assert trace.budget_exhausted
        assert not trace.complete

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget"):
            eeo_derived_set(load_fig("fig5"), labels(1, 2), budget=budget)

    def test_classic_derivation_contained_in_eeo(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            g = random_digraph(rng, n_max=6)
            black = g.leader_mask
            forcing_final = derived_set_greedy(g, black).final
            eeo_final = eeo_derived_set(g, black, budget=400).final
            assert forcing_final & ~eeo_final == 0

    def test_random_traces_replay(self):
        # partial (budget-capped) traces must replay just like complete ones
        rng = np.random.default_rng(41)
        for _ in range(25):
            g = random_digraph(rng, n_max=6)
            trace = eeo_derived_set(g, g.leader_mask, budget=300)
            assert trace.replay_ok()

    def test_stage_invariants(self):
        g = load_fig("fig7a")
        trace = eeo_derived_set(g, g.leader_mask)
        assert len(trace.graphs) == len(trace.derivations) == len(trace.ops) + 1
        black = g.leader_mask
        for i, derivation in enumerate(trace.derivations):
            assert derivation.initial == black
            black = derivation.final
            if i < len(trace.ops):
                assert trace.ops[i].context == black


class TestStageMemo:
    """The search memoizes stages on what their subtree can read."""

    def test_incremental_key_matches_rebuilt_graph(self):
        rng = np.random.default_rng(83)
        checked = 0
        for _ in range(300):
            g = random_digraph(rng, n_max=10, with_leaders=False)
            black = int(rng.integers(1, g.full_mask + 1))
            _, names, code = stage_key(g, black)
            for op in find_edge_ops(g, black):
                assert stage_key(apply_op(g, op), black) == (black, names, code ^ op_delta(g, op))
                checked += 1
        assert checked > 300

    def test_key_ignores_palette_numbering(self):
        # c1 empties when vertex 1's fan turns c2, so the palette renumbers
        g = ColoredDigraph(n=3, edges=((0, 1, 0), (0, 2, 0), (1, 2, 1)), colors=("c1", "c2"))
        op = TurnColor(u=0, new_color=1, context=labels(1))
        derived = apply_op(g, op)
        assert derived.colors == ("c2",)
        assert stage_key(derived, labels(1))[2] == stage_key(g, labels(1))[2] ^ op_delta(g, op)

    def test_key_tells_palettes_apart(self):
        # the same edges outside C = {1, 2}, but the edge into C names the
        # color that vertex 1's fan may turn to
        g1 = ColoredDigraph(n=3, edges=((0, 1, 0), (0, 2, 1)), colors=("a", "b"))
        g2 = ColoredDigraph(n=3, edges=((0, 1, 1), (0, 2, 0)), colors=("b", "c"))
        black = labels(1, 2)
        assert stage_key(g1, black)[2] == stage_key(g2, black)[2]
        assert stage_key(g1, black) != stage_key(g2, black)
        assert [op.describe(g1) for op in find_edge_ops(g1, black)] == ["turn-color u=1 to a"]
        assert [op.describe(g2) for op in find_edge_ops(g2, black)] == ["turn-color u=1 to c"]

    def test_matches_exact_state_search(self, monkeypatch):
        stages = []
        original = edgeops.derivation_outcomes

        def counting(graph, black, *args, **kwargs):
            stages.append(black)
            return original(graph, black, *args, **kwargs)

        monkeypatch.setattr(edgeops, "derivation_outcomes", counting)
        rng = np.random.default_rng(5)
        exhausted = finished = deduplicated = 0
        for trial in range(400):
            g = random_digraph(rng, n_min=10, n_max=14, edge_prob=0.3, with_leaders=False)
            black = vset(int(v) for v in rng.choice(g.n, size=g.n // 2, replace=False))
            budget = (1, 4, 30, 300)[trial % 4]
            want, reference_stages = reference_eeo_derived_set(g, black, budget)
            stages.clear()
            got = eeo_derived_set(g, black, budget=budget)
            if want.budget_exhausted:
                exhausted += 1
                assert got.replay_ok()
                assert got.final.bit_count() >= want.final.bit_count()
            else:
                finished += 1
                assert got == want
                # a stage key repeated with another graph was expanded once
                deduplicated += len(stages) < reference_stages
        assert exhausted > 10 and finished > 10 and deduplicated > 0

    def test_no_operation_past_the_budget(self, monkeypatch):
        # each operation applied builds a stage that is then expanded, so a
        # spent budget applies no more of them; the root and every removal
        # stage run a force search, a recoloring stage starts stuck
        searched, applied = [], []
        outcomes, apply = edgeops.derivation_outcomes, edgeops.apply_op

        def counting_outcomes(graph, black, *args, **kwargs):
            searched.append(black)
            return outcomes(graph, black, *args, **kwargs)

        def counting_apply(graph, op):
            applied.append(op)
            return apply(graph, op)

        monkeypatch.setattr(edgeops, "derivation_outcomes", counting_outcomes)
        monkeypatch.setattr(edgeops, "apply_op", counting_apply)
        rng = np.random.default_rng(5)
        exhausted = 0
        for trial in range(120):
            g = random_digraph(rng, n_min=10, n_max=14, edge_prob=0.3, with_leaders=False)
            black = vset(int(v) for v in rng.choice(g.n, size=g.n // 2, replace=False))
            searched.clear()
            applied.clear()
            budget = (1, 4, 30)[trial % 3]
            trace = eeo_derived_set(g, black, budget=budget)
            exhausted += trace.budget_exhausted
            stages = len(applied) + 1
            assert stages <= budget
            assert stages == budget or not trace.budget_exhausted
            removals = sum(isinstance(op, RemoveEdges) for op in applied)
            assert len(searched) == removals + 1
        assert exhausted > 10

    def test_stages_counted_once(self, monkeypatch):
        # every stage but the root is built by one operation
        g = validate(FS_SEED9_501)
        applied = []
        original = edgeops.apply_op

        def counting(graph, op):
            applied.append(op)
            return original(graph, op)

        monkeypatch.setattr(edgeops, "apply_op", counting)
        trace = eeo_derived_set(g, g.leader_mask)
        assert len(applied) + 1 == 486
        assert not trace.complete and not trace.budget_exhausted
        assert trace.replay_ok()


class TestSliceSkips:
    """The force search skips a slice test only where the answer cannot
    change the search: after a black set's first force, for a child that is
    already dead; at the stuck set a removal's stage starts from, for a
    source without the removal's tail; and at the stuck set a recoloring's
    stage starts from, for every source."""

    @staticmethod
    def searches(trials: int = 210) -> list:
        rng = np.random.default_rng(41)
        cases = []
        for trial in range(trials):
            g = random_digraph(rng, n_min=10, n_max=14, edge_prob=0.3, with_leaders=False)
            black = vset(int(v) for v in rng.choice(g.n, size=g.n // 2, replace=False))
            cases.append((g, black, (1, 4, 30)[trial % 3]))
        return cases

    def test_traces_match_eager_reference(self, monkeypatch):
        # the eager reference tests every slice and ignores both skips
        cases = self.searches()
        traces = [eeo_to_jsonable(eeo_derived_set(g, b, budget=k)) for g, b, k in cases]
        monkeypatch.setattr(forcing, "iter_forces", lambda g, b, *_: iter(eager_forces(g, b)))
        assert [eeo_to_jsonable(eeo_derived_set(g, b, budget=k)) for g, b, k in cases] == traces
        assert sum(t["budget_exhausted"] for t in traces) > 10
        assert sum(t["complete"] for t in traces) > 10
        assert sum(bool(t["ops"]) for t in traces) > 5

    def test_no_skippable_slice_tested(self, monkeypatch):
        iter_forces, slice_key = forcing.iter_forces, forcing.slice_key
        outcomes, apply = edgeops.derivation_outcomes, edgeops.apply_op
        stage: dict = {}  # the operation that built the stage, and whether its root is next
        drawing: list[list] = []  # [black, dead, forces drawn, stage root?] per draw
        seen = {"after a force": 0, "at a stage root": 0}

        def spy_apply(graph, op):
            stage["op"] = op
            return apply(graph, op)

        def spy_outcomes(graph, black, *args, **kwargs):
            stage["root"] = True
            return outcomes(graph, black, *args, **kwargs)

        def spy_iter(g, black, dead=frozenset(), *args):
            frame = [black, dead, 0, stage.pop("root", False)]
            forces = iter_forces(g, black, dead, *args)

            def drawn():
                while True:
                    drawing.append(frame)
                    try:
                        force = next(forces, None)
                    finally:
                        drawing.pop()
                    if force is None:
                        return
                    frame[2] += 1
                    yield force

            return drawn()

        def spy_key(g, source, target):
            black, dead, found, root = drawing[-1]
            if found:
                seen["after a force"] += 1
                assert black | target not in dead
            if root and "op" in stage:
                seen["at a stage root"] += 1
                op = stage["op"]
                assert source >> (op.u if isinstance(op, TurnColor) else op.v) & 1
            return slice_key(g, source, target)

        monkeypatch.setattr(edgeops, "apply_op", spy_apply)
        monkeypatch.setattr(edgeops, "derivation_outcomes", spy_outcomes)
        monkeypatch.setattr(forcing, "iter_forces", spy_iter)
        monkeypatch.setattr(forcing, "slice_key", spy_key)
        # a recoloring stage runs no force search, so removal stages alone
        # test slices at a stage root; twice the cases meet enough of them
        for g, black, budget in self.searches(420):
            stage.clear()
            eeo_derived_set(g, black, budget=budget)
        assert seen["after a force"] > 100 and seen["at a stage root"] > 30


    def test_no_source_over_singular_tight_source_tested(self, monkeypatch):
        # a tight source inside a tight source makes its slice block
        # triangular, so no source of at most ENUMERATION_CAP members that
        # contains a smaller tight source, singular or not, is tested
        iter_forces, slice_key = forcing.iter_forces, forcing.slice_key
        drawing: list[int] = []  # the black set of each draw
        checked = [0]

        def spy_iter(g, black, *args):
            forces = iter_forces(g, black, *args)

            def drawn():
                while True:
                    drawing.append(black)
                    try:
                        force = next(forces, None)
                    finally:
                        drawing.pop()
                    if force is None:
                        return
                    yield force

            return drawn()

        def spy_key(g, source, target):
            assert not reducible(g, drawing[-1], source)
            checked[0] += source.bit_count() > 1
            return slice_key(g, source, target)

        monkeypatch.setattr(forcing, "iter_forces", spy_iter)
        monkeypatch.setattr(forcing, "slice_key", spy_key)
        # with recoloring stages unsearched, twice the cases meet enough
        for g, black, budget in self.searches(420):
            eeo_derived_set(g, black, budget=budget)
        assert checked[0] > 100

    def test_no_slice_tested_at_a_recolored_root(self, monkeypatch):
        apply, iter_forces, slice_key = edgeops.apply_op, forcing.iter_forces, forcing.slice_key
        roots: dict = {}  # id of a recolored stage graph: the graph, its stuck set
        drawing: list[bool] = []  # per draw, whether it is at a recolored root
        tested: list[bool] = []  # per slice test, the same
        recolorings = [0]

        def spy_apply(graph, op):
            child = apply(graph, op)
            if isinstance(op, TurnColor):
                roots[id(child)] = (child, op.context)
                recolorings[0] += 1
            return child

        def spy_iter(g, black, *args):
            forces = iter_forces(g, black, *args)
            at_root = roots.get(id(g), (None, None))[1] == black

            def drawn():
                while True:
                    drawing.append(at_root)
                    try:
                        force = next(forces, None)
                    finally:
                        drawing.pop()
                    if force is None:
                        return
                    yield force

            return drawn()

        def spy_key(g, source, target):
            tested.append(drawing[-1])
            return slice_key(g, source, target)

        monkeypatch.setattr(edgeops, "apply_op", spy_apply)
        monkeypatch.setattr(forcing, "iter_forces", spy_iter)
        monkeypatch.setattr(forcing, "slice_key", spy_key)
        for g, black, budget in self.searches(420):
            roots.clear()
            eeo_derived_set(g, black, budget=budget)
        assert not any(tested)
        assert recolorings[0] > 100 and len(tested) > 1000


class TestRecoloredRoots:
    """A recoloring at a stuck set C moves u's white fan, which is one color,
    to another color.  In a slice whose source holds u, row u is that fan,
    and the determinant is linear in it, so it is multiplied by x_new/x_old:
    the same number of terms, the same coefficients.  Slices without u do
    not change.  So the stage the recoloring builds has no force at C."""

    def test_no_force_at_the_stuck_set(self):
        recolorings = 0
        for g in sweep_graphs():
            _, stuck = derivation_outcomes(g, g.leader_mask)
            for derivation in stuck:
                black = derivation.final
                for op in find_edge_ops(g, black):
                    if isinstance(op, TurnColor):
                        recolorings += 1
                        want = (None, [DerivationTrace(black, (), black)])
                        assert derivation_outcomes(apply_op(g, op), black) == want
        assert recolorings > 40

    def test_recolored_row_keeps_the_signature(self):
        rng = np.random.default_rng(37)
        checked = nonsingular = 0
        for _ in range(300):
            b = random_bipartite(rng, t_max=8, max_colors=4)
            rows = sorted({xi for xi, _, _ in b.edges})
            if not rows:
                continue
            x = rows[int(rng.integers(len(rows)))]
            old, new = map(int, rng.choice(4, size=2, replace=False))
            before, after = (
                standalone_bipartite(
                    len(b.x_vertices),
                    [(xi, yi, color if xi == x else c) for xi, yi, c in b.edges],
                    4,
                )
                for color in (old, new)
            )
            signature = slice_signature(before.slice_key())
            assert slice_signature(after.slice_key()) == signature
            coefficients = sorted(coeff for _, coeff in symbolic_det(before).terms)
            assert sorted(coeff for _, coeff in symbolic_det(after).terms) == coefficients
            checked += 1
            nonsingular += signature is not None
        assert checked > 250 and nonsingular > 20


def replay_mutations(trace: EeoTrace):
    """(name, trace) for each way of breaking ``trace`` that applies to it:
    at the first force of each derivation, and at each operation."""
    graphs, derivations, ops = trace.graphs, trace.derivations, trace.ops
    for i, derivation in enumerate(derivations):
        for name, changed in force_mutations(derivation):
            changed_all = (*derivations[:i], changed, *derivations[i + 1 :])
            yield name, replace(trace, derivations=changed_all)
    if ops:
        yield "dropped op", replace(trace, ops=ops[:-1])
        yield "dropped stage graph", replace(trace, graphs=graphs[:-1])
    for i, op in enumerate(ops):
        g, black = graphs[i], op.context

        def with_op(bad):
            return replace(trace, ops=(*ops[:i], bad, *ops[i + 1 :]))

        # the stuck set is never all of V, or no operation would apply
        yield "wrong context", with_op(replace(op, context=g.full_mask))
        white = (g.full_mask & ~black).bit_length() - 1
        yield "removal with a white u", with_op(RemoveEdges(u=white, v=op.u, context=black))
        yield "removal with v out of range", with_op(RemoveEdges(u=op.u, v=g.n, context=black))
        yield "removal with u == v", with_op(RemoveEdges(u=op.u, v=op.u, context=black))
        yield "recolor to an unknown color", with_op(
            TurnColor(u=op.u, new_color=len(g.colors), context=black)
        )
        for u in iter_vset(black):
            fan_colors = {c for h, c in g.out_edges[u] if not black >> h & 1}
            if len(fan_colors) == 1:
                yield "recolor to the same color", with_op(
                    TurnColor(u=u, new_color=fan_colors.pop(), context=black)
                )
                break


class TestReplayMutations:
    """A certificate replays only as the search built it: each mutation
    makes ``replay_ok`` return False, and none makes it raise."""

    def test_mutations_rejected(self):
        # the corpus certificates and the first ten sweep certificates with
        # an operation or two forces in one derivation
        corpus = map(load_fig, ("fig4", "fig5", "fig7a", "fig8"))
        traces = [eeo_derived_set(g, g.leader_mask) for g in corpus]
        sweep = (eeo_derived_set(g, g.leader_mask, budget=200) for g in sweep_graphs())
        wanted = (
            t
            for t in sweep
            if t.complete and (t.ops or max(len(d.steps) for d in t.derivations) > 1)
        )
        traces += islice(wanted, 10)
        assert len(traces) == 14 and sum(bool(t.ops) for t in traces) >= 3
        seen: dict[str, int] = {}
        for trace in traces:
            assert trace.complete and trace.replay_ok()
            for name, mutated in replay_mutations(trace):
                assert mutated.replay_ok() is False, name
                seen[name] = seen.get(name, 0) + 1
        assert len(seen) == 12
        assert all(seen[name] >= 10 for name in ("dropped force", "changed signature"))


class TestAnalyze:
    """``analyze`` runs the edge-operation search once; its root stage is
    the zero-forcing test of the leader set."""

    def test_root_searched_once(self, monkeypatch):
        g = load_fig("fig5")  # not zero forcing, so the search goes past the root
        calls = []
        original = forcing.iter_forces

        def counting(graph, black, *args, **kwargs):
            calls.append((graph, black))
            return original(graph, black, *args, **kwargs)

        monkeypatch.setattr(forcing, "iter_forces", counting)
        assert analyze(g).method == "EEO"
        assert calls.count((g, g.leader_mask)) == 1

    def test_zfs_verdict_is_the_forcing_test(self):
        rng = np.random.default_rng(53)
        graphs = [load_fig(graph_id) for graph_id in GRAPH_IDS]
        graphs += [random_digraph(rng, n_max=7) for _ in range(60)]
        for g in graphs:
            ok, witness = is_zero_forcing_set(g, g.leader_mask)
            report = analyze(g, budget=50)
            assert (report.method == "ZFS") == ok
            if ok:
                assert report.trace.derivations == (witness,) and report.trace.ops == ()


def paired_weights(g: ColoredDigraph, derived: ColoredDigraph, seed: int):
    """Same color realization rendered on a stage graph and its derivative."""
    r = sample_realization(g, seed)
    values = dict(r.color_values)
    r2 = Realization(color_values={name: values[name] for name in derived.colors})
    return weighted_adjacency(g, r), weighted_adjacency(derived, r2)


class TestZeroExtensionInvariance:
    def test_ops_preserve_derived_zero_sets(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 10:
            g = random_digraph(rng, with_leaders=False)
            black = int(rng.integers(1, g.full_mask + 1))
            ops = find_edge_ops(g, black)
            if not ops:
                continue
            checked += 1
            op = ops[int(rng.integers(0, len(ops)))]
            derived = apply_op(g, op)
            for trial in range(50):
                w, w2 = paired_weights(g, derived, 3000 + trial)
                assert (
                    zero_extension_derived_set(w, black).final
                    == zero_extension_derived_set(w2, black).final
                )
