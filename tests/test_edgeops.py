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
from colored_ssc.edgeops import (
    ColorMismatchError,
    EdgeOpError,
    EmptyEdgeSetError,
    MixedColorsError,
    NotNestedError,
    SameColorError,
    UnknownColorError,
    apply_op,
)
from colored_ssc.oracle import Realization, weighted_adjacency

from conftest import labels, members1, random_digraph


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
