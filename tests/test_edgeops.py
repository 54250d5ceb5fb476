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
    wildcard_key,
)
from colored_ssc.forcing import (
    DerivationTrace,
    Force,
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
# (graph, black set) states it expands 4,698 stages, with every recoloring a
# stage of its own 486, and modulo recoloring 3.
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


# forcing-scale seed 2 graph 2290 and seed 8 graph 2807 (n = 19 and 20, 3
# colors): with every recoloring a stage of its own, both searches spent the
# whole 10 000-stage budget; modulo recoloring they exhaust the space.
FS_SEED2_2290 = {
    "n": 19,
    "colors": ["c1", "c2", "c3"],
    "edges": [
        [1, 7, 3], [1, 8, 3], [2, 6, 3], [2, 10, 2], [2, 16, 1], [2, 19, 2], [3, 7, 1],
        [3, 19, 2], [4, 1, 1], [4, 13, 1], [4, 16, 2], [5, 1, 2], [5, 2, 1], [5, 7, 1],
        [5, 8, 2], [5, 11, 3], [5, 13, 3], [5, 16, 1], [5, 17, 1], [6, 5, 2], [6, 11, 1],
        [6, 13, 2], [6, 15, 2], [6, 16, 1], [7, 11, 3], [7, 15, 2], [8, 1, 1], [8, 3, 3],
        [8, 5, 1], [8, 6, 2], [8, 11, 2], [8, 14, 1], [8, 15, 2], [8, 16, 1], [8, 19, 2],
        [9, 7, 2], [9, 8, 2], [9, 12, 3], [9, 13, 1], [9, 14, 2], [10, 2, 1], [10, 9, 1],
        [11, 2, 3], [11, 9, 3], [11, 10, 3], [11, 12, 2], [11, 16, 2], [12, 13, 2], [13, 2, 1],
        [13, 8, 1], [13, 14, 1], [13, 16, 2], [14, 2, 3], [14, 4, 3], [14, 13, 2], [14, 16, 1],
        [14, 18, 3], [14, 19, 1], [15, 4, 3], [15, 6, 2], [15, 11, 2], [15, 14, 2], [16, 7, 2],
        [16, 9, 1], [16, 12, 1], [16, 15, 3], [16, 17, 1], [17, 4, 3], [17, 7, 1], [17, 15, 1],
        [18, 1, 3], [18, 8, 2], [18, 9, 3], [18, 11, 2], [18, 14, 3], [18, 16, 3], [19, 1, 3],
        [19, 3, 1], [19, 4, 3], [19, 8, 1], [19, 15, 1],
    ],
    "leaders": [1, 4, 6, 10, 11, 12, 14, 17, 19],
}

FS_SEED8_2807 = {
    "n": 20,
    "colors": ["c1", "c2", "c3"],
    "edges": [
        [1, 9, 2], [1, 19, 3], [1, 20, 1], [2, 1, 3], [2, 3, 2], [2, 7, 1], [2, 8, 1],
        [2, 11, 2], [2, 13, 2], [2, 20, 3], [3, 4, 3], [4, 3, 1], [4, 10, 1], [4, 12, 3],
        [5, 2, 3], [5, 6, 3], [5, 9, 2], [5, 13, 1], [6, 4, 3], [6, 7, 2], [6, 10, 2],
        [6, 13, 3], [6, 15, 1], [7, 1, 1], [7, 3, 2], [7, 6, 1], [7, 10, 2], [8, 7, 1],
        [8, 13, 2], [8, 14, 2], [9, 1, 3], [9, 2, 1], [9, 3, 2], [9, 4, 1], [9, 6, 2],
        [9, 11, 2], [10, 3, 1], [10, 6, 1], [10, 14, 3], [10, 15, 3], [10, 16, 1], [10, 17, 2],
        [10, 18, 1], [11, 9, 1], [11, 13, 3], [11, 15, 2], [11, 19, 2], [11, 20, 3],
        [12, 1, 3], [12, 3, 1], [12, 5, 1], [12, 7, 3], [12, 15, 3], [12, 16, 1], [12, 19, 1],
        [12, 20, 3], [13, 1, 2], [13, 2, 1], [13, 5, 3], [13, 7, 2], [14, 3, 2], [14, 6, 3],
        [14, 9, 2], [14, 16, 2], [14, 20, 3], [15, 3, 1], [15, 6, 1], [15, 8, 2], [15, 11, 1],
        [15, 12, 2], [16, 2, 3], [16, 3, 3], [16, 4, 3], [16, 5, 2], [16, 11, 3], [16, 17, 3],
        [16, 18, 2], [17, 6, 2], [17, 12, 2], [17, 15, 1], [18, 11, 1], [18, 15, 1],
        [19, 2, 3], [19, 3, 1], [19, 6, 1], [19, 9, 3], [19, 16, 1], [20, 5, 1], [20, 7, 3],
        [20, 8, 3], [20, 9, 3],
    ],
    "leaders": [4, 5, 11, 12, 13, 15, 17, 18, 19, 20],
}

# forcing-scale seed 2 graph 326 (n = 19, one color): its certificate takes
# six removals, each offered at the stuck set of its stage, over seven
# stages; no other test walks an edge-operation path that deep.
FS_SEED2_326 = {
    "n": 19,
    "colors": ["c1"],
    "edges": [
        [1, 2, 1], [1, 5, 1], [1, 7, 1], [1, 12, 1], [2, 1, 1], [2, 5, 1], [2, 12, 1],
        [2, 16, 1], [2, 17, 1], [3, 2, 1], [3, 4, 1], [3, 5, 1], [3, 11, 1], [3, 16, 1],
        [4, 2, 1], [4, 7, 1], [4, 9, 1], [4, 10, 1], [5, 1, 1], [5, 2, 1], [5, 3, 1],
        [5, 7, 1], [5, 12, 1], [5, 13, 1], [5, 18, 1], [6, 2, 1], [6, 9, 1], [6, 17, 1],
        [6, 18, 1], [7, 9, 1], [7, 11, 1], [7, 13, 1], [7, 16, 1], [7, 19, 1], [8, 1, 1],
        [8, 3, 1], [8, 4, 1], [8, 7, 1], [8, 13, 1], [8, 16, 1], [9, 1, 1], [9, 2, 1],
        [9, 5, 1], [9, 6, 1], [9, 13, 1], [9, 16, 1], [10, 1, 1], [10, 2, 1], [10, 3, 1],
        [10, 7, 1], [10, 12, 1], [10, 17, 1], [11, 1, 1], [11, 10, 1], [11, 13, 1],
        [11, 14, 1], [12, 2, 1], [12, 7, 1], [12, 17, 1], [12, 19, 1], [13, 2, 1], [13, 9, 1],
        [13, 12, 1], [14, 6, 1], [14, 9, 1], [14, 10, 1], [14, 12, 1], [15, 2, 1], [15, 7, 1],
        [15, 11, 1], [16, 2, 1], [16, 5, 1], [16, 11, 1], [16, 17, 1], [17, 2, 1], [17, 5, 1],
        [17, 8, 1], [17, 10, 1], [17, 11, 1], [17, 12, 1], [17, 15, 1], [17, 16, 1],
        [18, 2, 1], [18, 5, 1], [18, 10, 1], [19, 1, 1], [19, 2, 1], [19, 5, 1], [19, 10, 1],
        [19, 11, 1], [19, 13, 1], [19, 16, 1],
    ],
    "leaders": [3, 4, 10, 11, 14, 15, 17, 18, 19],
}

# leaders 1-3 share one c1 fan to 4-6 that no force can pass, and the path
# 7 -> ... -> 36 -> 4 gives the fan 30 more colors to turn to; with every
# recoloring a stage of its own, the search spent the whole budget.
PATH36 = {
    "n": 36,
    "colors": [f"c{i}" for i in range(1, 32)],
    "edges": [[t, h, 1] for t in (1, 2, 3) for h in (4, 5, 6)]
    + [[v, v + 1, v - 5] for v in range(7, 36)]
    + [[36, 4, 31]],
    "leaders": [1, 2, 3],
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


def planted_pair_graph(rng: np.random.Generator) -> ColoredDigraph:
    """A random graph whose leaders 1 and 2 are stuck, with the one move a
    pair: 1's fan {3, 4} is c1, 2's is {3, 4} in c2 and 5 in c3, so turning
    1's fan to c2 lets 1 remove 2's edges to 3 and 4, and 2 then forces 5.
    The other edges leave vertices 3 and up, in random colors."""
    n = int(rng.integers(6, 11))
    edges = [(0, 2, 0), (0, 3, 0), (1, 2, 1), (1, 3, 1), (1, 4, 2)]
    edges += [
        (t, h, int(rng.integers(0, 3)))
        for t in range(2, n)
        for h in range(n)
        if t != h and rng.random() < 0.3
    ]
    return ColoredDigraph(n=n, edges=edges, colors=("c1", "c2", "c3"), leaders=(0, 1))


def stage_moves(g: ColoredDigraph, black: int) -> list:
    """The search's moves at a stuck set ``black`` of ``g``."""
    return list(edgeops._moves(g, [DerivationTrace(black, (), black)], None))


class TestStageMemo:
    """The search memoizes stages on all their subtree can read: the black
    set and the edges into white vertices, with the color of each one-color
    white fan of a black vertex a wildcard."""

    def test_one_color_fan_is_a_wildcard(self):
        # fig6a and fig6b differ only in vertex 1's white fan, one color at
        # C = {1, 2}, as a graph and its image under any recoloring
        # find_edge_ops offers do
        black = labels(1, 2)
        assert wildcard_key(load_fig("fig6a"), black) == wildcard_key(load_fig("fig6b"), black)
        rng = np.random.default_rng(83)
        checked = 0
        for _ in range(300):
            g = random_digraph(rng, n_max=10, with_leaders=False)
            black = int(rng.integers(1, g.full_mask + 1))
            for op in find_edge_ops(g, black):
                if isinstance(op, TurnColor):
                    assert wildcard_key(apply_op(g, op), black) == wildcard_key(g, black)
                    checked += 1
        assert checked > 300

    def test_other_recolored_edges_change_the_key(self):
        # at C = {1}: vertex 1's white fan holds c1 and c2, and vertex 2 is
        # white; recoloring one edge of either changes the key
        colors = ("c1", "c2")
        g = ColoredDigraph(n=4, edges=((0, 1, 0), (0, 2, 1), (1, 3, 0)), colors=colors)
        mixed = ColoredDigraph(n=4, edges=((0, 1, 1), (0, 2, 1), (1, 3, 0)), colors=colors)
        white = ColoredDigraph(n=4, edges=((0, 1, 0), (0, 2, 1), (1, 3, 1)), colors=colors)
        black = labels(1)
        assert wildcard_key(mixed, black) != wildcard_key(g, black)
        assert wildcard_key(white, black) != wildcard_key(g, black)
        # once vertex 2 is black, its fan has one color and is a wildcard
        assert wildcard_key(white, labels(1, 2)) == wildcard_key(g, labels(1, 2))

    def test_key_ignores_palette_numbering(self):
        # the same edges by color name under two numberings of the palette
        edges = ((0, 1, 0), (0, 2, 1), (1, 2, 2), (2, 0, 1))
        g = ColoredDigraph(n=3, edges=edges, colors=("a", "b", "c"))
        swap = {0: 2, 1: 1, 2: 0}
        renamed = ColoredDigraph(
            n=3, edges=tuple((t, h, swap[c]) for t, h, c in edges), colors=("c", "b", "a")
        )
        for black in range(1, g.full_mask + 1):
            assert wildcard_key(renamed, black) == wildcard_key(g, black)

    def test_incremental_key_matches_rebuilt_graph(self):
        # a move's key is its stuck set's with the removal tail's row
        # replaced, and every op of a move is one find_edge_ops offers on
        # the graph it applies to
        rng = np.random.default_rng(83)
        plain = pairs = renumbered = 0
        for _ in range(300):
            g = random_digraph(rng, n_max=10, with_leaders=False)
            black = int(rng.integers(1, g.full_mask + 1))
            for _, steps, key in stage_moves(g, black):
                for op, graph in steps:
                    assert op in find_edge_ops(graph, black)
                (turn, _), (removal, recolored) = steps[0], steps[-1]
                assert isinstance(removal, RemoveEdges)
                child = apply_op(recolored, removal)
                assert key == wildcard_key(child, black)
                if len(steps) == 2:
                    assert isinstance(turn, TurnColor) and turn.u == removal.u
                    assert recolored == apply_op(g, turn)
                pairs += len(steps) == 2
                plain += len(steps) == 1
                renumbered += len(child.colors) < len(g.colors)
        assert plain > 100 and pairs > 100 and renumbered > 5

    def test_matches_exact_state_search(self, monkeypatch):
        # wherever the search over exact (graph, black set) states, which
        # applies every operation, finishes, the search modulo recoloring
        # finishes with the same completeness and final set; its ops may
        # come in another order
        stages = []
        original = edgeops.derivation_outcomes

        def counting(graph, black, *args, **kwargs):
            stages.append(black)
            return original(graph, black, *args, **kwargs)

        monkeypatch.setattr(edgeops, "derivation_outcomes", counting)
        rng = np.random.default_rng(5)
        exhausted = finished = fewer = paired = 0
        for trial in range(600):
            if trial % 3:
                g = random_digraph(rng, n_min=10, n_max=14, edge_prob=0.3, with_leaders=False)
                black = vset(int(v) for v in rng.choice(g.n, size=g.n // 2, replace=False))
            else:
                g = planted_pair_graph(rng)
                black = g.leader_mask
            budget = (1, 4, 30, 300)[trial % 4]
            want, reference_stages = reference_eeo_derived_set(g, black, budget)
            stages.clear()
            got = eeo_derived_set(g, black, budget=budget)
            assert got.replay_ok()
            if want.budget_exhausted:
                exhausted += 1
                assert got.final.bit_count() >= want.final.bit_count()
            else:
                finished += 1
                assert (got.complete, got.final) == (want.complete, want.final)
                assert not got.budget_exhausted
                fewer += len(stages) < reference_stages
                paired += any(isinstance(op, TurnColor) for op in got.ops)
        assert exhausted > 10 and finished > 10 and fewer > 10
        assert paired > 20

    def test_emitted_ops_are_offered(self):
        # every op of a trace, a pair's recoloring and removal included, is
        # one find_edge_ops offers on its stage graph at its stuck set
        rng = np.random.default_rng(61)
        recolorings = removals = 0
        for trial in range(300):
            if trial % 2:
                g = random_digraph(rng, n_min=8, n_max=14, edge_prob=0.3, with_leaders=False)
                black = vset(int(v) for v in rng.choice(g.n, size=g.n // 2, replace=False))
            else:
                g = planted_pair_graph(rng)
                black = g.leader_mask
            trace = eeo_derived_set(g, black, budget=(2, 5, 40)[trial % 3])
            for i, op in enumerate(trace.ops):
                assert op in find_edge_ops(trace.graphs[i], trace.derivations[i].final)
                recolorings += isinstance(op, TurnColor)
                removals += isinstance(op, RemoveEdges)
        assert recolorings > 100 and removals > 100

    def test_no_operation_past_the_budget(self, monkeypatch):
        # each stage but the root is built by one removal and then searched,
        # so a spent budget applies no more removals; a recoloring builds
        # only the graph its removal applies to
        searched, removals = [], []
        outcomes, apply = edgeops.derivation_outcomes, edgeops.apply_op

        def counting_outcomes(graph, black, *args, **kwargs):
            searched.append(black)
            return outcomes(graph, black, *args, **kwargs)

        def counting_apply(graph, op):
            if isinstance(op, RemoveEdges):
                removals.append(op)
            return apply(graph, op)

        monkeypatch.setattr(edgeops, "derivation_outcomes", counting_outcomes)
        monkeypatch.setattr(edgeops, "apply_op", counting_apply)
        rng = np.random.default_rng(5)
        exhausted = 0
        for trial in range(240):
            g = random_digraph(rng, n_min=10, n_max=14, edge_prob=0.3, with_leaders=False)
            black = vset(int(v) for v in rng.choice(g.n, size=g.n // 2, replace=False))
            searched.clear()
            removals.clear()
            budget = (1, 2, 4)[trial % 3]
            trace = eeo_derived_set(g, black, budget=budget)
            exhausted += trace.budget_exhausted
            stages = len(removals) + 1
            assert stages <= budget
            assert stages == budget or not trace.budget_exhausted
            assert len(searched) == stages
        assert exhausted > 10

    def test_stages_counted_once(self, monkeypatch):
        # every stage but the root is built by one removal
        g = validate(FS_SEED9_501)
        removals = []
        original = edgeops.apply_op

        def counting(graph, op):
            if isinstance(op, RemoveEdges):
                removals.append(op)
            return original(graph, op)

        monkeypatch.setattr(edgeops, "apply_op", counting)
        trace = eeo_derived_set(g, g.leader_mask)
        assert len(removals) + 1 == 3
        assert not trace.complete and not trace.budget_exhausted
        assert trace.replay_ok()

    def test_deep_certificate(self, monkeypatch):
        # a certificate six removals deep: each removal is offered at its
        # stage, the trace replays, and the search reaches it in as many
        # stages as the certificate has
        g = validate(FS_SEED2_326)
        stages = []
        original = edgeops.derivation_outcomes

        def counting(graph, black, *args, **kwargs):
            stages.append(black)
            return original(graph, black, *args, **kwargs)

        monkeypatch.setattr(edgeops, "derivation_outcomes", counting)
        trace = eeo_derived_set(g, g.leader_mask)
        assert trace.complete
        assert [type(op) for op in trace.ops] == [RemoveEdges] * 6
        for i, op in enumerate(trace.ops):
            assert op in find_edge_ops(trace.graphs[i], trace.derivations[i].final)
        assert trace.replay_ok()
        assert len(stages) == 7


class TestSpentBudgets:
    """Searches that spent the whole stage budget while every recoloring was
    a stage of its own exhaust their space in a few stages, counted with a
    spy, not timed."""

    @pytest.mark.parametrize(
        "doc, final, bound",
        [(FS_SEED2_2290, 11, 5), (FS_SEED8_2807, 13, 50), (PATH36, 3, 10)],
        ids=["fs-seed2-2290", "fs-seed8-2807", "path36"],
    )
    def test_space_exhausted(self, monkeypatch, doc, final, bound):
        g = validate(doc)
        removals = []
        original = edgeops.apply_op

        def counting(graph, op):
            if isinstance(op, RemoveEdges):
                removals.append(op)
            return original(graph, op)

        monkeypatch.setattr(edgeops, "apply_op", counting)
        trace = eeo_derived_set(g, g.leader_mask)
        assert not trace.budget_exhausted and not trace.complete
        assert trace.final.bit_count() == final
        assert len(removals) + 1 <= bound


class TestSliceSkips:
    """The force search skips a slice test only where the answer cannot
    change the search: after a black set's first force, for a child that is
    already dead.  A recolored graph is not searched at all."""

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
        # the eager reference tests every slice and ignores the skip; the
        # search modulo recoloring spends a budget less often, so twice the
        # cases meet enough spent ones
        cases = self.searches(420)
        traces = [eeo_to_jsonable(eeo_derived_set(g, b, budget=k)) for g, b, k in cases]
        monkeypatch.setattr(forcing, "iter_forces", lambda g, b, *_: iter(eager_forces(g, b)))
        assert [eeo_to_jsonable(eeo_derived_set(g, b, budget=k)) for g, b, k in cases] == traces
        assert sum(t["budget_exhausted"] for t in traces) > 10
        assert sum(t["complete"] for t in traces) > 10
        assert sum(bool(t["ops"]) for t in traces) > 5

    def test_no_skippable_slice_tested(self, monkeypatch):
        iter_forces, slice_key = forcing.iter_forces, forcing.slice_key
        drawing: list[list] = []  # [black, dead, forces drawn] per draw
        tested = [0]  # slices tested after a black set's first force

        def spy_iter(g, black, dead=frozenset()):
            frame = [black, dead, 0]
            forces = iter_forces(g, black, dead)

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
            black, dead, found = drawing[-1]
            if found:
                tested[0] += 1
                assert black | target not in dead
            return slice_key(g, source, target)

        monkeypatch.setattr(forcing, "iter_forces", spy_iter)
        monkeypatch.setattr(forcing, "slice_key", spy_key)
        for g, black, budget in self.searches(420):
            eeo_derived_set(g, black, budget=budget)
        assert tested[0] > 100


    def test_no_source_over_singular_tight_source_tested(self, monkeypatch):
        # a tight source inside a tight source makes its slice block
        # triangular, so no source that contains a smaller tight source,
        # singular or not, is tested
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
        # with recolored graphs unsearched, twice the cases meet enough
        for g, black, budget in self.searches(420):
            eeo_derived_set(g, black, budget=budget)
        assert checked[0] > 100

    def test_no_slice_tested_at_a_recolored_root(self, monkeypatch):
        apply, iter_forces, slice_key = edgeops.apply_op, forcing.iter_forces, forcing.slice_key
        roots: dict = {}  # id of a recolored graph: the graph, its stuck set
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
    """A pair move recolors u's white fan, which is one color, at a stuck
    set C, and then removes (u, v).  In a slice whose source holds u, row u
    is that fan, and the determinant is linear in it, so it is multiplied by
    x_new/x_old: the same number of terms, the same coefficients.  Slices
    without u do not change.  So the recolored graph has no force at C, and
    the stage the removal builds is searched at C only for sources with v."""

    def test_no_force_at_the_stuck_set(self):
        # none of the recolorings offered at a stuck set has a force there,
        # the middle of each pair move among them
        rng = np.random.default_rng(43)
        graphs = [planted_pair_graph(rng) for _ in range(60)]
        recolorings = pairs = 0
        for g in (*sweep_graphs(), *graphs):
            _, stuck = derivation_outcomes(g, g.leader_mask)
            for derivation in stuck:
                black = derivation.final
                want = (None, [DerivationTrace(black, (), black)])
                recolored = [
                    apply_op(g, op) for op in find_edge_ops(g, black) if isinstance(op, TurnColor)
                ]
                for graph in recolored:
                    assert derivation_outcomes(graph, black) == want
                recolorings += len(recolored)
                for _, steps, _ in stage_moves(g, black):
                    if len(steps) == 2:
                        assert steps[1][1] in recolored
                        pairs += 1
        assert recolorings > 100 and pairs > 40

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

    def test_vertex_outside_the_graph_rejected(self):
        # fig4's witness with a first force from vertex 10, which fig4 (n = 9)
        # does not have, and that vertex in the initial and final sets
        g = load_fig("fig4")
        witness = eeo_derived_set(g, g.leader_mask).derivations[0]
        outside = 1 << 9
        bad = DerivationTrace(
            witness.initial | outside,
            (Force(outside, labels(4), 1), *witness.steps),
            witness.final | outside,
        )
        assert bad.replay_ok(g) is False
        assert EeoTrace(graphs=(g,), derivations=(bad,)).replay_ok() is False

    def test_source_wider_than_the_cap_rejected(self):
        # edges i -> 13 + i: the source {1..13} has a diagonal slice, one
        # member wider than ENUMERATION_CAP, so no search emits its force
        g = ColoredDigraph(n=26, edges=tuple((i, 13 + i, 0) for i in range(13)), colors=("c1",))
        source = (1 << 13) - 1
        bad = DerivationTrace(source, (Force(source, g.full_mask & ~source, 1),), g.full_mask)
        assert bad.replay_ok(g) is False
        assert EeoTrace(graphs=(g,), derivations=(bad,)).replay_ok() is False


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
