"""Realizations, zero extension, the balancing test against the reference
Kalman rank test, and sampled verdicts."""

from __future__ import annotations

import numpy as np
import pytest

from colored_ssc import (
    ColoredDigraph,
    is_balancing_set,
    sample_realization,
    sampled_verdict,
    uncontrollable_witness,
    weighted_adjacency,
    zero_extension_derived_set,
)
from colored_ssc.corpus import load as load_fig
from colored_ssc.oracle import InvalidTrialsError, NoLeadersError, Realization, _forced_white

from conftest import kalman_rank, labels, random_digraph, sampled_diagonal


class TestSampling:
    def test_deterministic_per_seed(self):
        g = load_fig("fig5")
        assert sample_realization(g, 42) == sample_realization(g, 42)

    def test_distinct_seeds_differ(self):
        g = load_fig("fig5")
        assert sample_realization(g, 1) != sample_realization(g, 2)

    def test_color_equality_respected(self):
        g = load_fig("fig5")
        w = weighted_adjacency(g, sample_realization(g, 0))
        # edges (1,3) and (1,4) share a color, hence a weight
        assert w[2, 0] == w[3, 0] != 0

    def test_magnitude_floor(self):
        g = load_fig("fig2")
        for seed in range(20):
            r = sample_realization(g, seed)
            assert all(0.5 <= abs(v) <= 2.0 for v in r.color_values.values())

    def test_diagonal_zeros_sampled_occasionally(self):
        # the replayed reference diagonals keep exact zeros in the mix
        g = load_fig("fig2")
        entries = [d for seed in range(300) for d in sampled_diagonal(g, seed)]
        zero_share = sum(1 for d in entries if d == 0.0) / len(entries)
        assert 0.05 < zero_share < 0.18  # nominal rate is one in ten


class TestAssemble:
    def test_fig2_pattern(self):
        g = load_fig("fig2")
        r = sample_realization(g, 3)
        a = weighted_adjacency(g, r)
        c1, c2, c3 = (r.color_values[name] for name in ("c1", "c2", "c3"))
        expected_nonzero = {
            (3, 0): c1, (5, 0): c1, (4, 3): c1,
            (3, 1): c2, (4, 1): c2,
            (4, 2): c3, (5, 2): c3, (4, 5): c3,
        }
        for (i, j), value in expected_nonzero.items():
            assert a[i, j] == value
        for i in range(6):
            for j in range(6):
                if (i, j) not in expected_nonzero:
                    assert a[i, j] == 0

    def test_edgeless_graph_is_diagonal(self):
        # W is zero, so the reference system A = W + D is D itself
        g = ColoredDigraph(n=3, edges=(), colors=(), leaders=(0,))
        d = np.diag([0.5, -0.5, 0.25])
        a = weighted_adjacency(g, Realization(color_values={})) + d
        assert np.array_equal(a, d)

    def test_b_selector_block(self):
        # with A = 0 the controllability matrix is [B, 0, ...]: one
        # independent column per leader
        g = load_fig("fig2")
        assert kalman_rank(np.zeros((6, 6)), g.leaders).rank == 3
        assert kalman_rank(np.zeros((6, 6)), g.leaders[:1]).rank == 1


class TestRankTests:
    def test_integrator_chain_controllable(self):
        n = 5
        a = np.diag(np.ones(n - 1), -1)
        assert kalman_rank(a, (0,)).controllable

    def test_zero_dynamics_single_input_uncontrollable(self):
        assert not kalman_rank(np.zeros((2, 2)), (0,)).controllable

    def test_fig5_always_controllable(self):
        g = load_fig("fig5")
        for seed in range(100):
            a = weighted_adjacency(g, sample_realization(g, seed)) + np.diag(sampled_diagonal(g, seed))
            assert kalman_rank(a, g.leaders).controllable


class TestZeroExtension:
    def test_fig5_first_step_forces_vertex5(self):
        g = load_fig("fig5")
        w = weighted_adjacency(g, sample_realization(g, 0))
        trace = zero_extension_derived_set(w, labels(1, 2))
        assert trace.steps[0] == (labels(1, 2), labels(5))
        assert trace.final == g.full_mask

    def test_all_zero_no_steps(self):
        g = load_fig("fig5")
        w = weighted_adjacency(g, sample_realization(g, 0))
        trace = zero_extension_derived_set(w, g.full_mask)
        assert trace.steps == () and trace.final == g.full_mask

    def test_star_sticks(self):
        g = ColoredDigraph(n=3, edges=((0, 1, 0), (0, 2, 1)), colors=("c1", "c2"))
        w = weighted_adjacency(g, sample_realization(g, 0))
        trace = zero_extension_derived_set(w, labels(1))
        assert trace.final == labels(1)

    def test_final_independent_of_admission_order(self):
        rng = np.random.default_rng(31)
        for i in range(40):
            g = random_digraph(rng, with_leaders=False)
            zero = int(rng.integers(1, g.full_mask + 1))
            w = weighted_adjacency(g, sample_realization(g, 5000 + i))
            batch = zero_extension_derived_set(w, zero).final
            assert _randomized_extension(w, zero, rng) == batch


def _randomized_extension(w: np.ndarray, zero: int, rng: np.random.Generator) -> int:
    """Zero extension with random equation subsets and admission order."""
    n = w.shape[0]
    full = (1 << n) - 1
    while True:
        white = [v for v in range(n) if not zero >> v & 1]
        if not white:
            return zero
        zero_members = [v for v in range(n) if zero >> v & 1]
        subset = [v for v in zero_members if rng.random() < 0.5] or zero_members
        forced = _forced_white(w, subset, white)
        if not forced and subset != zero_members:
            forced = _forced_white(w, zero_members, white)
        if not forced:
            return zero
        keep = [v for v in forced if rng.random() < 0.7] or forced
        zero |= sum(1 << v for v in keep)


class TestBalancing:
    def test_fig5_balancing(self):
        g = load_fig("fig5")
        w = weighted_adjacency(g, sample_realization(g, 0))
        assert is_balancing_set(w, labels(1, 2))

    def test_unreachable_vertex_blocks(self):
        g = ColoredDigraph(n=3, edges=((0, 1, 0),), colors=("c1",), leaders=(0,))
        w = weighted_adjacency(g, sample_realization(g, 0))
        assert not is_balancing_set(w, labels(1))

    def test_agreement_with_rank_over_all_diagonals(self):
        # balancing <=> controllable for every diagonal: positive side on a
        # sampled diagonal, negative side on a constructed witness diagonal
        rng = np.random.default_rng(13)
        for i in range(150):
            g = random_digraph(rng)
            w = weighted_adjacency(g, sample_realization(g, 6000 + i))
            if is_balancing_set(w, g.leader_mask):
                report = kalman_rank(w + np.diag(sampled_diagonal(g, 6000 + i)), g.leaders)
                assert report.controllable or report.borderline
                assert uncontrollable_witness(w, g.leader_mask) is None
            else:
                diag = uncontrollable_witness(w, g.leader_mask, rng)
                assert diag is not None
                report = kalman_rank(w + np.diag(diag), g.leaders)
                assert not report.controllable or report.borderline


class TestSampledVerdict:
    def test_fig2_corroborated(self):
        verdict = sampled_verdict(load_fig("fig2"), trials=100, seed=0)
        assert verdict.corroborated and verdict.counterexample is None

    def test_single_leader_counterexample(self):
        g = load_fig("fig5")
        verdict = sampled_verdict(g, labels(1), trials=100, seed=0)
        assert not verdict.corroborated
        assert verdict.seed_offset == 0
        # reported counterexample reproduces from its seed offset
        again = sample_realization(g, 0 + verdict.seed_offset)
        assert again == verdict.counterexample

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidTrialsError):
            sampled_verdict(load_fig("fig2"), trials=0)

    def test_missing_leaders_rejected(self):
        g = ColoredDigraph(n=2, edges=((0, 1, 0),), colors=("c1",))
        with pytest.raises(NoLeadersError):
            sampled_verdict(g, trials=1)
