"""Edge operations, their preconditions, and the alternating procedure."""

from __future__ import annotations

import numpy as np
import pytest

from colored_ssc import (
    ColoredDigraph,
    RemoveEdges,
    TurnColor,
    apply_remove_edges,
    apply_turn_color,
    derived_set_greedy,
    edges_to_white,
    eeo_derived_set,
    find_edge_ops,
    is_zero_forcing_set,
    sample_realization,
    zero_extension_derived_set,
)
from colored_ssc import forcing
from colored_ssc.analysis import analyze
from colored_ssc.corpus import GRAPH_IDS, load as load_fig
from colored_ssc import edgeops, validate, vset
from colored_ssc.edgeops import (
    ColorMismatchError,
    EdgeOpError,
    EmptyEdgeSetError,
    MixedColorsError,
    NotNestedError,
    SameColorError,
    UnknownColorError,
    apply_op,
    op_delta,
    stage_key,
)
from colored_ssc.oracle import Realization, weighted_adjacency

from conftest import labels, members1, random_digraph, reference_eeo_derived_set

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


def edge_labels(edges):
    return sorted((t + 1, h + 1) for t, h, _ in edges)


class TestEdgesToWhite:
    def test_own_fan(self):
        g = load_fig("fig6a")
        got = edges_to_white(g, 0, 0, labels(1, 2))
        assert edge_labels(got) == [(1, 3), (1, 4)]

    def test_cross_fan(self):
        g = load_fig("fig6b")
        got = edges_to_white(g, 0, 1, labels(1, 2))
        assert edge_labels(got) == [(2, 3), (2, 4)]

    def test_no_white_neighbors(self):
        g = load_fig("fig6a")
        assert edges_to_white(g, 0, 0, g.full_mask) == ()


class TestTurnColor:
    def test_fig6a_to_fig6b(self):
        g = apply_turn_color(load_fig("fig6a"), 0, 1, labels(1, 2))
        assert g == load_fig("fig6b")

    def test_empty_fan_rejected(self):
        g = ColoredDigraph(n=3, edges=((0, 1, 0), (1, 2, 1)), colors=("c1", "c2"))
        # 2's fan is empty once every vertex is black
        with pytest.raises(EmptyEdgeSetError):
            apply_turn_color(g, 2, 0, g.full_mask)

    def test_mixed_colors_rejected(self):
        with pytest.raises(MixedColorsError):
            apply_turn_color(load_fig("fig6a"), 1, 0, labels(1, 2))

    def test_same_color_rejected(self):
        with pytest.raises(SameColorError):
            apply_turn_color(load_fig("fig6a"), 0, 0, labels(1, 2))

    def test_unknown_color_rejected(self):
        with pytest.raises(UnknownColorError):
            apply_turn_color(load_fig("fig6a"), 0, 5, labels(1, 2))

    def test_emptied_cell_dropped(self):
        g = ColoredDigraph(
            n=3, edges=((0, 1, 0), (0, 2, 0), (1, 2, 1)), colors=("c1", "c2")
        )
        out = apply_turn_color(g, 0, 1, labels(1))  # whole c1 cell is 1's white fan
        assert out.colors == ("c2",)
        assert {c for _, _, c in out.edges} == {0}


class TestRemoveEdges:
    def test_fig6b_to_fig6c(self):
        g = apply_remove_edges(load_fig("fig6b"), 0, 1, labels(1, 2))
        assert g == load_fig("fig6c")

    def test_fig7a_removal(self):
        g = apply_remove_edges(load_fig("fig7a"), 6, 0, labels(1, 2, 5, 6, 7))
        assert g == load_fig("fig7b")

    def test_vacuous_removal_is_identity(self):
        g = load_fig("fig6a")
        black = labels(1, 2, 3, 4, 5)
        assert apply_remove_edges(g, 2, 0, black) == g  # vertex 3 has no white fan

    def test_not_nested_rejected(self):
        with pytest.raises(NotNestedError):
            apply_remove_edges(load_fig("fig6b"), 1, 0, labels(1, 2))

    def test_color_mismatch_rejected(self):
        with pytest.raises(ColorMismatchError):
            apply_remove_edges(load_fig("fig6a"), 0, 1, labels(1, 2))

    def test_same_vertex_rejected(self):
        with pytest.raises(EdgeOpError):
            apply_remove_edges(load_fig("fig6a"), 0, 0, labels(1, 2))


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
        derived = apply_turn_color(g, 0, 1, labels(1))
        assert derived.colors == ("c2",)
        op = TurnColor(u=0, new_color=1, context=labels(1))
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

    def test_stages_counted_once(self, monkeypatch):
        g = validate(FS_SEED9_501)
        stages = []
        original = edgeops.derivation_outcomes

        def counting(graph, black, *args, **kwargs):
            stages.append(black)
            return original(graph, black, *args, **kwargs)

        monkeypatch.setattr(edgeops, "derivation_outcomes", counting)
        trace = eeo_derived_set(g, g.leader_mask)
        assert len(stages) == 486
        assert not trace.complete and not trace.budget_exhausted
        assert trace.replay_ok()


class TestAnalyze:
    """``analyze`` runs the edge-operation search once; its root stage is
    the zero-forcing test of the leader set."""

    def test_root_searched_once(self, monkeypatch):
        g = load_fig("fig5")  # not zero forcing, so the search goes past the root
        calls = []
        original = forcing.find_forces

        def counting(graph, black, *args, **kwargs):
            calls.append((graph, black))
            return original(graph, black, *args, **kwargs)

        monkeypatch.setattr(forcing, "find_forces", counting)
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
            assert report.zfs_trace == witness
            assert (report.eeo_trace is None) == ok


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
