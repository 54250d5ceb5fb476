"""Color change rule, derivations, backtracking, and classic-rule checks."""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colored_ssc import (
    ColoredDigraph,
    derived_set_greedy,
    find_forces,
    is_balancing_set,
    is_color_perfect,
    is_zero_forcing_set,
    sample_realization,
    weighted_adjacency,
    zero_extension_derived_set,
)
from colored_ssc import enumerate_matchings, equivalence_classes, induced_bipartite
from colored_ssc import vset, white_out_neighbors
from colored_ssc.bipartite import slice_signature
from colored_ssc.corpus import load as load_fig
from colored_ssc.forcing import SearchBoundExceededError, SearchConfig
from colored_ssc.graph import iter_vset, slice_key

from conftest import all_subsets_forces, classic_derived_set, labels, members1, random_digraph


def _path(n: int) -> ColoredDigraph:
    return ColoredDigraph(n=n, edges=tuple((t, t + 1, 0) for t in range(n - 1)), colors=("c1",))


def _private_targets(k: int, n: int = 62) -> ColoredDigraph:
    """Vertex v < k points at its own vertex k + v.  With black = {0..k-1},
    every subset of the black set is a force, so the forces found are the
    subsets looked at."""
    return ColoredDigraph(n=n, edges=tuple((v, k + v, 0) for v in range(k)), colors=("c1",))


def _fitting_size(g: ColoredDigraph, black: int, cap: int) -> int:
    """Largest source size whose candidate subsets number at most 2**cap - 1."""
    white = g.full_mask & ~black
    c = sum(1 for v in range(g.n) if black >> v & 1 and g.out_masks[v] & white)
    limit = min(c, white.bit_count())
    size = 0
    while size < limit and sum(comb(c, k) for k in range(1, size + 2)) < 1 << cap:
        size += 1
    return size


class TestIsColorPerfect:
    def test_fig4_first_force(self):
        g = load_fig("fig4")
        force = is_color_perfect(g, labels(1, 2, 3), labels(1, 2, 3))
        assert force is not None
        assert members1(force.target) == (4, 5, 6)
        assert force.class_signature == -1

    def test_fig5_singleton_mismatch(self):
        g = load_fig("fig5")
        assert is_color_perfect(g, labels(1), labels(1, 2)) is None

    def test_no_white_neighbors(self):
        g = load_fig("fig5")
        assert is_color_perfect(g, labels(3), g.full_mask) is None

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            is_color_perfect(load_fig("fig5"), 0, labels(1, 2))


class TestFindForces:
    def test_fig4(self):
        g = load_fig("fig4")
        forces = find_forces(g, labels(1, 2, 3))
        assert [(members1(f.source), members1(f.target)) for f in forces] == [
            ((1, 2, 3), (4, 5, 6))
        ]

    def test_fig8_both_branches(self):
        g = load_fig("fig8")
        forces = find_forces(g, labels(1, 2, 3, 4, 5))
        got = [(members1(f.source), members1(f.target)) for f in forces]
        assert got == [((5,), (6,)), ((1, 2, 3, 4), (6, 7, 8, 9))]

    def test_all_black(self):
        g = load_fig("fig4")
        assert find_forces(g, g.full_mask) == []

    def test_order_small_sources_first(self):
        g = load_fig("fig8")
        sizes = [f.source.bit_count() for f in find_forces(g, labels(1, 2, 3, 4, 5))]
        assert sizes == sorted(sizes)

    def test_bound_exceeded(self):
        # 15 black vertices, each pointing at all 15 white ones: 2**15 - 1
        # candidate subsets against a budget of 2**12 - 1
        edges = tuple((t, h, 0) for t in range(15) for h in range(15, 30))
        g = ColoredDigraph(n=30, edges=edges, colors=("c1",))
        with pytest.raises(SearchBoundExceededError):
            find_forces(g, labels(*range(1, 16)))

    def test_path_has_one_candidate(self):
        # 13 black vertices, but only vertex 13 has a white out-neighbor
        g = _path(14)
        forces = find_forces(g, labels(*range(1, 14)))
        assert [(members1(f.source), members1(f.target)) for f in forces] == [((13,), (14,))]

    @pytest.mark.parametrize("k", [12, 13, 31])
    def test_cap_bounds_subsets_looked_at(self, k):
        g, black = _private_targets(k), (1 << k) - 1
        if k <= 12:
            assert len(find_forces(g, black)) == 2**k - 1  # a set at the cap is never refused
        else:
            with pytest.raises(SearchBoundExceededError):
                find_forces(g, black)
        forces = find_forces(g, black, allow_truncation=True)
        assert len(forces) <= 2**12 - 1
        size = forces[-1].source.bit_count()
        assert len(forces) == sum(comb(k, s) for s in range(1, size + 1))

    def test_black_sets_within_cap_never_refused(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            g = random_digraph(rng, n_min=2, n_max=62, edge_prob=0.1, with_leaders=False)
            cap = int(rng.integers(1, 6))
            size = int(rng.integers(1, min(cap, g.n) + 1))
            black = sum(1 << int(v) for v in rng.choice(g.n, size=size, replace=False))
            find_forces(g, black, config=SearchConfig(max_source_cap=cap))

    def test_matches_all_subsets_reference(self):
        rng = np.random.default_rng(32)
        for trial in range(500):
            g = random_digraph(rng, n_max=9, with_leaders=False)
            black = int(rng.integers(1, g.full_mask + 1))
            if trial % 3:
                max_size = (None, None, 1, 2, 3)[trial % 5]
                got = [
                    f
                    for f in find_forces(g, black)
                    if max_size is None or f.source.bit_count() <= max_size
                ]
                want = all_subsets_forces(g, black, max_size)
            else:
                cap = int(rng.integers(2, 7))
                config = SearchConfig(max_source_cap=cap)
                got = find_forces(g, black, config, allow_truncation=True)
                want = all_subsets_forces(g, black, _fitting_size(g, black, cap))
            assert got == want

    def test_small_cap_config(self):
        g = load_fig("fig8")
        tight = SearchConfig(max_source_cap=3)
        with pytest.raises(SearchBoundExceededError):
            find_forces(g, labels(1, 2, 3, 4, 5), config=tight)
        truncated = find_forces(
            g, labels(1, 2, 3, 4, 5), config=tight, allow_truncation=True
        )
        assert [members1(f.source) for f in truncated] == [(5,)]


class TestGreedyDerivation:
    def test_fig4_full_chain(self):
        g = load_fig("fig4")
        trace = derived_set_greedy(g, labels(1, 2, 3))
        assert trace.final == g.full_mask
        assert [(members1(f.source), members1(f.target)) for f in trace.steps] == [
            ((1, 2, 3), (4, 5, 6)),
            ((4, 5, 6), (7, 8, 9)),
        ]

    def test_all_black_no_steps(self):
        g = load_fig("fig4")
        trace = derived_set_greedy(g, g.full_mask)
        assert trace.steps == () and trace.final == g.full_mask

    def test_fig8_smallest_first_gets_stuck(self):
        g = load_fig("fig8")
        trace = derived_set_greedy(g, labels(1, 2, 3, 4, 5))
        assert members1(trace.final) == (1, 2, 3, 4, 5, 6)

    def test_truncation_flagged(self):
        g = load_fig("fig8")
        trace = derived_set_greedy(
            g, labels(1, 2, 3, 4, 5), config=SearchConfig(max_source_cap=3)
        )
        assert trace.truncated
        assert [members1(f.source) for f in trace.steps] == [(5,)]

    def test_path_not_truncated(self):
        g = _path(14)
        trace = derived_set_greedy(g, labels(*range(1, 14)))
        assert not trace.truncated
        assert trace.final == g.full_mask


class TestZeroForcingSet:
    def test_fig8_needs_backtracking(self):
        g = load_fig("fig8")
        ok, witness = is_zero_forcing_set(g, labels(1, 2, 3, 4, 5))
        assert ok
        assert [(members1(f.source), members1(f.target)) for f in witness.steps] == [
            ((1, 2, 3, 4), (6, 7, 8, 9))
        ]
        assert witness.replay_ok(g)

    def test_fig5_not_forcing(self):
        g = load_fig("fig5")
        ok, witness = is_zero_forcing_set(g, labels(1, 2))
        assert not ok and witness is None

    def test_all_black_trivially_forcing(self):
        g = load_fig("fig5")
        ok, witness = is_zero_forcing_set(g, g.full_mask)
        assert ok and witness.steps == ()


class TestClassicRule:
    def test_chain(self):
        g = ColoredDigraph(n=3, edges=((0, 1, 0), (1, 2, 0)), colors=("c1",))
        assert classic_derived_set(g, labels(1)) == g.full_mask

    def test_fig6c(self):
        g = load_fig("fig6c")
        assert classic_derived_set(g, labels(1, 2)) == g.full_mask

    def test_star_blocks(self):
        g = ColoredDigraph(n=3, edges=((0, 1, 0), (0, 2, 0)), colors=("c1",))
        assert classic_derived_set(g, labels(1)) == labels(1)


def _distinct_colors(g: ColoredDigraph) -> ColoredDigraph:
    return ColoredDigraph(
        n=g.n,
        edges=tuple((t, h, i) for i, (t, h, _) in enumerate(g.edges)),
        colors=tuple(f"c{i + 1}" for i in range(len(g.edges))),
        leaders=g.leaders,
    )


class TestSpecialization:
    """With all-distinct colors the new rule reduces to the classic one."""

    def test_zfs_equals_classic(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            g = _distinct_colors(random_digraph(rng, n_max=6, with_leaders=False))
            black = int(rng.integers(1, g.full_mask + 1))
            ok, _ = is_zero_forcing_set(g, black)
            assert ok == (classic_derived_set(g, black) == g.full_mask)

    def test_single_vertex_forces_match_classic(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            g = random_digraph(rng, n_max=6, with_leaders=False)
            black = int(rng.integers(1, g.full_mask + 1))
            singles = {
                members1(f.source)[0]: f.target
                for f in find_forces(g, black)
                if f.source.bit_count() == 1
            }
            for v in range(g.n):
                white = g.out_masks[v] & ~black
                if black >> v & 1 and white and white.bit_count() == 1:
                    assert singles.get(v + 1) == white
                else:
                    assert v + 1 not in singles


@st.composite
def small_graph_and_black(draw):
    n = draw(st.integers(2, 6))
    pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    k = draw(st.integers(1, 3))
    edges = [(t, h, draw(st.integers(0, k - 1))) for t, h in chosen]
    used = sorted({c for _, _, c in edges})
    remap = {c: i for i, c in enumerate(used)}
    g = ColoredDigraph(
        n=n,
        edges=tuple((t, h, remap[c]) for t, h, c in edges),
        colors=tuple(f"c{i + 1}" for i in range(len(used))),
    )
    return g, draw(st.integers(1, g.full_mask))


@settings(max_examples=80, deadline=None)
@given(small_graph_and_black())
def test_greedy_derivation_is_monotone(case):
    g, black = case
    trace = derived_set_greedy(g, black)
    assert black & ~trace.final == 0
    assert trace.replay_ok(g)


@settings(max_examples=50, deadline=None)
@given(small_graph_and_black())
def test_witness_traces_replay(case):
    g, black = case
    ok, witness = is_zero_forcing_set(g, black)
    if ok:
        assert witness.replay_ok(g)


class TestOracleAgreement:
    def test_forcing_set_implies_balancing(self):
        # positive graph verdicts must hold for every sampled realization
        rng = np.random.default_rng(21)
        confirmed = 0
        attempts = 0
        while confirmed < 8 and attempts < 400:
            attempts += 1
            g = random_digraph(rng)
            ok, _ = is_zero_forcing_set(g, g.leader_mask)
            if not ok:
                continue
            confirmed += 1
            for trial in range(100):
                w = weighted_adjacency(g, sample_realization(g, 1000 + trial))
                assert is_balancing_set(w, g.leader_mask)
        assert confirmed == 8

    def test_each_force_preserves_zero_extension(self):
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 10:
            g = random_digraph(rng, with_leaders=False)
            black = int(rng.integers(1, g.full_mask + 1))
            forces = find_forces(g, black)
            if not forces:
                continue
            checked += 1
            force = forces[0]
            for trial in range(100):
                w = weighted_adjacency(g, sample_realization(g, 2000 + trial))
                before = zero_extension_derived_set(w, black).final
                after = zero_extension_derived_set(w, black | force.target).final
                assert before == after
                assert force.target & ~before == 0


class TestSliceKey:
    """The force search reads each slice from the graph as a compact key."""

    def test_matches_matching_classes(self):
        rng = np.random.default_rng(71)
        tested, nonsingular = 0, 0
        for _ in range(400):
            g = random_digraph(rng, n_min=2, n_max=12, with_leaders=False)
            black = int(rng.integers(1, g.full_mask + 1))
            white = g.full_mask & ~black
            candidates = [v for v in iter_vset(black) if g.out_masks[v] & white][:8]
            for size in range(1, len(candidates) + 1):
                for subset in combinations(candidates, size):
                    source = vset(subset)
                    target = white_out_neighbors(g, source, black)
                    if target.bit_count() != size:
                        continue
                    key = slice_key(g, source, target)
                    b = induced_bipartite(g, source, black)
                    assert key == b.slice_key()
                    signatures = [
                        c.signature
                        for c in equivalence_classes(enumerate_matchings(b))
                        if c.signature
                    ]
                    want = signatures[0] if len(signatures) == 1 else None
                    assert slice_signature.__wrapped__(key) == want
                    assert slice_signature(key) == want
                    tested += 1
                    nonsingular += want is not None
        assert tested > 1500 and 0 < nonsingular < tested

    def test_key_forgets_vertices_and_color_names(self):
        # the same 2x2 pattern on other vertices and other color names
        g1 = ColoredDigraph(n=4, edges=((0, 2, 0), (0, 3, 1), (1, 3, 0)), colors=("a", "b"))
        g2 = ColoredDigraph(n=5, edges=((1, 3, 1), (1, 4, 0), (2, 4, 1)), colors=("x", "y"))
        k1 = slice_key(g1, labels(1, 2), labels(3, 4))
        k2 = slice_key(g2, labels(2, 3), labels(4, 5))
        assert k1 == k2 == ((0, 0, 1, 1), (1, 0))
