"""Realizations, zero extension against its from-scratch and per-trial
references, lockstep batches, the balancing test against the reference
Kalman rank test, and sampled verdicts."""

from __future__ import annotations

import logging
from collections import Counter
from itertools import product

import numpy as np
import pytest

from colored_ssc import oracle
from colored_ssc.analysis import VERDICT_CONTROLLABLE, analyze
from colored_ssc.corpus import GRAPH_IDS, load as load_fig
from colored_ssc.forcing import EnumerationCapError, SearchBoundExceededError
from colored_ssc.graph import ColoredDigraph, iter_vset, validate, vset
from colored_ssc.oracle import (
    BATCH_BYTES,
    InvalidTrialsError,
    NoLeadersError,
    Realization,
    ZeroExtensionTrace,
    is_balancing_set,
    sample_realization,
    sampled_verdict,
    zero_extension_derived_set,
)

from conftest import (
    chain_digraph,
    dense_graph,
    forced_white,
    kalman_rank,
    labels,
    per_trial_verdict,
    per_trial_zero_extension,
    random_digraph,
    reference_zero_extension,
    sampled_diagonal,
    scale_graph,
    uncontrollable_witness,
    weighted_adjacency,
)

# Graphs at the edges of the input range: no edge at all (W = 0, so no
# equation forces anything), and a single vertex that is the leader.
EDGELESS = ColoredDigraph(n=3, edges=(), colors=(), leaders=(0,))
LEADER_ONLY = ColoredDigraph(n=1, edges=(), colors=(), leaders=(0,))


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
        forced = forced_white(w, subset, white)
        if not forced and subset != zero_members:
            forced = forced_white(w, zero_members, white)
        if not forced:
            return zero
        keep = [v for v in forced if rng.random() < 0.7] or forced
        zero |= sum(1 << v for v in keep)


# Systems on which a dependence cutoff scaled by eps decides wrongly, each
# with the seed of its realization.  The first has one color and a stuck
# system of rank exactly 1; a cutoff of eps/4 times the equation's norm
# admits a rounding residue as a second equation and calls the leaders
# balancing.  On the second, a cutoff of eps times the equation's norm
# (or len(white) times that) forces vertex index 5 a round early.
TRAP_SYSTEMS = {
    "one-color-rank-1": (
        {
            "n": 10,
            "colors": ["c1"],
            "edges": [
                [1, 2, 1], [1, 7, 1], [1, 8, 1], [1, 9, 1], [2, 6, 1], [2, 10, 1],
                [3, 1, 1], [3, 2, 1], [3, 4, 1], [3, 10, 1], [4, 3, 1], [4, 5, 1],
                [4, 6, 1], [4, 9, 1], [4, 10, 1], [5, 6, 1], [6, 1, 1], [6, 3, 1],
                [6, 4, 1], [7, 3, 1], [7, 4, 1], [7, 5, 1], [7, 9, 1], [8, 1, 1],
                [9, 6, 1], [10, 2, 1],
            ],
            "leaders": [2, 5, 6, 8, 9],
        },
        8,
    ),
    "forced-a-round-early": (
        {
            "n": 13,
            "colors": ["c1", "c2", "c3"],
            "edges": [
                [1, 3, 1], [1, 5, 1], [1, 6, 3], [1, 7, 2], [1, 11, 2], [2, 3, 3],
                [2, 5, 1], [2, 7, 1], [2, 12, 2], [3, 2, 3], [3, 4, 3], [3, 5, 2],
                [3, 8, 3], [3, 10, 1], [4, 8, 3], [4, 12, 2], [5, 1, 3], [5, 3, 2],
                [5, 11, 1], [6, 2, 2], [6, 7, 1], [6, 8, 2], [6, 10, 1], [6, 13, 2],
                [7, 11, 1], [7, 13, 3], [8, 3, 3], [8, 4, 3], [9, 1, 1], [9, 2, 1],
                [9, 3, 2], [9, 5, 1], [9, 8, 1], [9, 10, 1], [9, 11, 1], [10, 4, 2],
                [10, 5, 2], [10, 7, 2], [10, 9, 2], [10, 12, 1], [11, 5, 3], [11, 6, 2],
                [11, 12, 1], [12, 1, 2], [12, 2, 3], [12, 10, 2], [13, 2, 1], [13, 8, 2],
                [13, 10, 3],
            ],
            "leaders": [2, 3, 8, 9, 10, 13],
        },
        8,
    ),
}


class TestAgainstReference:
    """The production zero extension, which updates one null basis, gives
    the same steps and fixpoint as the reference that solves each round
    from scratch."""

    def test_random_digraphs(self):
        rng = np.random.default_rng(47)
        single_color = 0
        for i in range(300):
            g = random_digraph(rng)
            single_color += len(g.colors) == 1
            w = weighted_adjacency(g, sample_realization(g, 7000 + i))
            assert zero_extension_derived_set(w, g.leader_mask) == reference_zero_extension(
                w, g.leader_mask
            )
        assert single_color >= 30

    @pytest.mark.parametrize("twins", [False, True], ids=["chain", "twins"])
    @pytest.mark.parametrize("n", [20, 30, 40, 50, 62])
    def test_chains(self, n, twins):
        g = chain_digraph(np.random.default_rng(n + 100 * twins), n, twins)
        for trial in range(20):
            w = weighted_adjacency(g, sample_realization(g, trial))
            trace = zero_extension_derived_set(w, g.leader_mask)
            assert trace == reference_zero_extension(w, g.leader_mask)
            assert (trace.final == g.full_mask) is not twins

    @pytest.mark.parametrize("name", sorted(TRAP_SYSTEMS))
    def test_trap_systems(self, name):
        doc, trial = TRAP_SYSTEMS[name]
        g = validate(doc)
        w = weighted_adjacency(g, sample_realization(g, trial))
        trace = zero_extension_derived_set(w, g.leader_mask)
        assert trace == reference_zero_extension(w, g.leader_mask)
        assert (trace.final == g.full_mask) is (name == "forced-a-round-early")

    @pytest.mark.parametrize("g", [EDGELESS, LEADER_ONLY], ids=["edgeless", "leader-only"])
    def test_edge_graphs(self, g):
        w = weighted_adjacency(g, sample_realization(g, 0))
        trace = zero_extension_derived_set(w, g.leader_mask)
        assert trace == reference_zero_extension(w, g.leader_mask)
        assert trace == ZeroExtensionTrace(initial=g.leader_mask, steps=(), final=g.leader_mask)


def _sign_realizations(g: ColoredDigraph) -> list[Realization]:
    """Every assignment of +1 and -1 to the colors.  Equal magnitudes make
    some balance equations dependent, or some coordinates vanish, for some
    sign patterns and not for others."""
    return [
        Realization(color_values=dict(zip(g.colors, values)))
        for values in product((1.0, -1.0), repeat=len(g.colors))
    ]


class TestLockstep:
    """Zero extension of a stack of realizations gives each the trace it
    gives alone, the per-trial reference's and the from-scratch
    reference's, or None exactly when the realizations disagree on a rank
    decision; then each runs again as a stack of one."""

    def _check_stack(self, g: ColoredDigraph, realizations: list[Realization]) -> str | None:
        """Check the stack and return the kind of the first rank decision
        its realizations disagree on in the per-trial reference's decision
        log: "equation" or "forced", None when they agree on every one."""
        ws = np.stack([weighted_adjacency(g, r) for r in realizations])
        logs = []
        for w in ws:
            logs.append([])
            per_trial_zero_extension(w, g.leader_mask, logs[-1])
        # the logs share each entry's kind and vertex up to the first
        # decision they disagree on
        kind = next((entries[0][0] for entries in zip(*logs) if len(set(entries)) > 1), None)
        if kind is None:
            assert len(set(map(len, logs))) == 1
        traces = oracle._zero_extension(ws, g.leader_mask)
        assert (traces is None) is (kind is not None)
        if traces is None:
            traces = [oracle._zero_extension(w[None], g.leader_mask)[0] for w in ws]
        assert len(traces) == len(ws)
        for w, trace in zip(ws, traces):
            assert trace == per_trial_zero_extension(w, g.leader_mask)
            assert trace == reference_zero_extension(w, g.leader_mask)
        return kind

    def test_mixed_batches(self):
        # equal magnitudes make an equation dependent in some members (the
        # equation kind) or a coordinate vanish in some members while every
        # equation decision agrees (the forced kind)
        rng = np.random.default_rng(5)
        systems = [(validate(doc), trial) for doc, trial in TRAP_SYSTEMS.values()]
        systems += [(random_digraph(rng), 9000 + i) for i in range(100)]
        kinds: Counter = Counter()
        for g, trial in systems:
            sampled = [sample_realization(g, seed) for seed in (trial, trial + 1)]
            signs = _sign_realizations(g)
            kinds[self._check_stack(g, sampled + signs)] += 1
            for r in signs:
                kinds[self._check_stack(g, [*sampled, r])] += 1
        assert kinds["equation"] and kinds["forced"] and kinds[None]

    def test_sampled_stacks(self):
        rng = np.random.default_rng(61)
        for i in range(40):
            g = random_digraph(rng, n_max=9)
            self._check_stack(g, [sample_realization(g, 300 * i + t) for t in range(12)])

    @pytest.mark.parametrize("twins", [False, True], ids=["chain", "twins"])
    def test_chain_stack(self, twins):
        g = chain_digraph(np.random.default_rng(4 + twins), 40, twins)
        self._check_stack(g, [sample_realization(g, t) for t in range(6)])

    def test_scale_graph_disagreement(self):
        """The one disagreement seen on continuous draws over the n = 30-62
        scale family.  On graph 10 at n = 62, trials 1-17 form the first
        lockstep batch after trial 0.  Trial 5 finds vertex 44's equation
        dependent, at 0.79 times the cutoff in norm, where the other 16
        find it independent."""
        g = scale_graph(62, 10)
        batch = oracle.BATCH_BYTES // (8 * g.n * g.n)
        assert batch == 17
        steps, zero, decided = oracle._exact_rounds(g.out_masks, g.leader_mask, g.full_mask)
        assert not decided  # so the float route runs
        ws = np.stack([weighted_adjacency(g, sample_realization(g, t)) for t in range(1, 1 + batch)])
        assert oracle._zero_extension(ws, zero, steps) is None
        log: list = []
        for t, w in enumerate(ws, start=1):
            [trace] = oracle._zero_extension(w[None], zero, steps)
            assert trace == per_trial_zero_extension(w, g.leader_mask, log if t == 5 else None)
        assert ("equation", 43, False) in log  # vertex 44, 0-based index 43
        assert sampled_verdict(g, trials=100) == per_trial_verdict(g, g.leader_mask, 100)


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

    @pytest.mark.parametrize(
        "g, expected",
        [
            (EDGELESS, ("COUNTEREXAMPLE", [{"color_values": {}, "seed_offset": 0}])),
            (LEADER_ONLY, ("CORROBORATED", [])),
        ],
        ids=["edgeless", "leader-only"],
    )
    def test_edge_graphs(self, g, expected):
        verdict, failures = expected
        report = sampled_verdict(g, trials=100).to_jsonable()
        assert report == {"verdict": verdict, "trials": 100, "failures": failures}

    @pytest.mark.parametrize(
        "graph, message",
        [
            ("chain", "support reached all 62 vertices after 61 rounds"),
            ("twins", "support stopped at 60 of 62 vertices: not balancing anywhere"),
            ("crossed", "floats resumed at round 0"),
        ],
    )
    def test_route_logged(self, graph, message, caplog):
        # a debug line names the route that decided the verdict
        if graph == "crossed":
            g = _crossed_chain(62)
        else:
            g = chain_digraph(np.random.default_rng(62), 62, graph == "twins")
        with caplog.at_level(logging.DEBUG, logger="colored_ssc.oracle"):
            sampled_verdict(g, trials=2)
        assert caplog.messages[0] == message


class TestExactRounds:
    """The rounds the support decides are the reference's first rounds, a
    fixpoint they decide is the reference's on every realization, and a
    verdict they decide runs no zero extension."""

    @staticmethod
    def _graphs():
        rng = np.random.default_rng(83)
        for _ in range(300):
            yield random_digraph(rng)
        for _ in range(100):  # larger graphs stop undecided after a round more often
            yield random_digraph(rng, n_min=8, n_max=12)
        for n in (20, 30, 40, 50, 62):
            for twins in (False, True):
                yield chain_digraph(np.random.default_rng(n + 100 * twins), n, twins)
        yield _crossed_chain(62)

    def test_prefix_of_reference(self):
        stops = Counter()
        for i, g in enumerate(self._graphs()):
            steps, zero, decided = oracle._exact_rounds(g.out_masks, g.leader_mask, g.full_mask)
            stuck = decided and zero != g.full_mask
            assert decided or zero != g.full_mask
            for trial in range(3 if stuck else 1):
                w = weighted_adjacency(g, sample_realization(g, 8000 + i + 1000 * trial))
                reference = reference_zero_extension(w, g.leader_mask)
                assert reference.steps[: len(steps)] == steps
                if decided:  # the reference ends where the support does
                    assert reference.final == zero
                # the lockstep route resumes where the exact rounds stop
                [trace] = oracle._zero_extension(w[None], zero, steps)
                assert trace == reference
            kind = "stuck" if stuck else "all" if decided else "some" if steps else "none"
            stops[kind] += 1
        assert min(stops["all"], stops["some"], stops["none"], stops["stuck"]) >= 5

    @staticmethod
    def _check_against_reference(g: ColoredDigraph, expected: tuple) -> None:
        assert oracle._exact_rounds(g.out_masks, g.leader_mask, g.full_mask) == expected
        steps, zero, decided = expected
        for trial in range(5):
            w = weighted_adjacency(g, sample_realization(g, trial))
            reference = reference_zero_extension(w, g.leader_mask)
            assert reference.steps[: len(steps)] == steps
            assert (reference.final == zero) is decided

    def test_leftover_equation_carried_forward(self):
        # leader 0's equation {2, 3} is left over in round 1, where leader
        # 1's forces 4; in round 2, vertex 4's equation {2} forces 2, and
        # the carried {2, 3} then forces 3
        g = ColoredDigraph(
            n=5,
            edges=((0, 2, 0), (0, 3, 1), (1, 4, 0), (4, 2, 1)),
            colors=("c1", "c2"),
            leaders=(0, 1),
        )
        rounds = ((labels(1, 2), labels(5)), (labels(1, 2, 5), labels(3, 4)))
        self._check_against_reference(g, (rounds, g.full_mask, True))

    def test_shared_unknown_stays_undecided(self, monkeypatch):
        # the leaders' equations share both unknowns 2 and 3; the pair is
        # singular only where |c1| = |c2|, so the floats decide it balancing
        g = _crossed_chain(5)
        self._check_against_reference(g, ((), g.leader_mask, False))
        calls = []
        lockstep = oracle._zero_extension

        def spy(w, zero, steps):
            calls.append(len(w))
            return lockstep(w, zero, steps)

        monkeypatch.setattr(oracle, "_zero_extension", spy)
        verdict = sampled_verdict(g, trials=20)
        assert verdict == per_trial_verdict(g, g.leader_mask, 20)
        assert verdict.corroborated and calls

    def test_no_certified_leader_set_is_stuck(self):
        """Soundness of the support refuter: no leader set that ``analyze``
        certifies is balancing for no realization."""
        rng = np.random.default_rng(97)
        graphs = [load_fig(graph_id) for graph_id in GRAPH_IDS]
        graphs += [random_digraph(rng) for _ in range(300)]
        graphs += [scale_graph(n, i) for n in (30, 40, 50, 62) for i in range(6)]
        graphs += [dense_graph(d, i) for d in (3.0, 6.0, 9.0) for i in range(6)]
        seen = Counter()
        for g in graphs:
            _, zero, decided = oracle._exact_rounds(g.out_masks, g.leader_mask, g.full_mask)
            stuck = decided and zero != g.full_mask
            try:
                certified = analyze(g).verdict == VERDICT_CONTROLLABLE
            except (SearchBoundExceededError, EnumerationCapError):
                certified = False
            assert not (certified and stuck)
            seen["certified" if certified else "stuck" if stuck else "open"] += 1
        assert seen["certified"] >= 100 and seen["stuck"] >= 50


def _trial_counts(g: ColoredDigraph) -> tuple[int, int, int]:
    """One trial, two, and one more than a lockstep batch."""
    return 1, 2, oracle.BATCH_BYTES // (8 * g.n * g.n) + 1


def _check_decided_by_the_support(
    g: ColoredDigraph, monkeypatch: pytest.MonkeyPatch, corroborated: bool
) -> None:
    """A verdict the exact rounds decide runs no zero extension and draws
    no realization when corroborated, trial 0's alone otherwise, and it is
    the per-trial loop's at one trial, two and one more than a batch."""
    draws = []
    draw = oracle.sample_realization
    monkeypatch.setattr(oracle, "sample_realization", lambda g, s: draws.append(s) or draw(g, s))

    def no_float_route(*args):
        raise AssertionError("zero extension ran on a verdict the support decides")

    monkeypatch.setattr(oracle, "_zero_extension", no_float_route)
    for trials in _trial_counts(g):
        draws.clear()
        verdict = sampled_verdict(g, trials=trials, seed=11)
        assert verdict == per_trial_verdict(g, g.leader_mask, trials, seed=11)
        assert verdict.corroborated is corroborated
        assert draws == ([] if corroborated else [11])


class TestAgainstPerTrialLoop:
    """Lockstep batches give the verdict, counterexample and seed offset
    of the loop that runs one realization at a time."""

    @pytest.mark.parametrize("graph_id", GRAPH_IDS)
    def test_corpus(self, graph_id):
        g = load_fig(graph_id)
        for leaders in {g.leader_mask, labels(1)}:
            for trials in _trial_counts(g):
                assert sampled_verdict(g, leaders, trials, seed=3) == per_trial_verdict(
                    g, leaders, trials, seed=3
                )

    def test_random_digraphs(self, monkeypatch):
        # a budget of three realizations makes "one more than a batch" cheap
        rng = np.random.default_rng(71)
        corroborated = 0
        for i in range(300):
            g = random_digraph(rng)
            monkeypatch.setattr(oracle, "BATCH_BYTES", 3 * 8 * g.n * g.n)
            for trials in _trial_counts(g):
                verdict = sampled_verdict(g, trials=trials, seed=i)
                assert verdict == per_trial_verdict(g, g.leader_mask, trials, seed=i)
            corroborated += verdict.corroborated
        assert 20 <= corroborated <= 280

    @pytest.mark.parametrize("twins", [False, True], ids=["chain", "twins"])
    def test_chain(self, twins, monkeypatch):
        # the exact rounds decide a chain with no draw; a twins graph fails
        # at its first realization
        g = chain_digraph(np.random.default_rng(62), 62, twins)
        _check_decided_by_the_support(g, monkeypatch, corroborated=not twins)

    def test_random_stuck(self, monkeypatch):
        _check_decided_by_the_support(_random_stuck_digraph(), monkeypatch, corroborated=False)

    @pytest.mark.parametrize("g", [EDGELESS, LEADER_ONLY], ids=["edgeless", "leader-only"])
    def test_edge_graphs(self, g, monkeypatch):
        monkeypatch.setattr(oracle, "BATCH_BYTES", 3 * 8 * g.n * g.n)
        for trials in _trial_counts(g):
            assert sampled_verdict(g, trials=trials) == per_trial_verdict(g, g.leader_mask, trials)


def _random_stuck_digraph() -> ColoredDigraph:
    """The first ``random_digraph`` of seed 89 whose support takes a round
    and then decides a fixpoint short of every vertex at which some
    equation keeps two or more white unknowns."""
    rng = np.random.default_rng(89)
    while True:
        g = random_digraph(rng, n_min=5, n_max=9)
        steps, zero, decided = oracle._exact_rounds(g.out_masks, g.leader_mask, g.full_mask)
        leftover = [s for s in (g.out_masks[j] & ~zero for j in iter_vset(zero)) if s & (s - 1)]
        if decided and zero != g.full_mask and steps and leftover:
            return g


def _crossed_chain(n: int) -> ColoredDigraph:
    """Leaders 0 and 1 both feed 2 and 3, with the two colors crossed, and
    a path 2 -> 4 -> 5 -> ... -> n - 1.  Each leader's equation keeps two
    white unknowns, so the support decides no round; the pair is singular
    only where |c1| = |c2|, so sampled realizations are balancing."""
    edges = ((0, 2, 0), (0, 3, 1), (1, 2, 1), (1, 3, 0), (2, 4, 0))
    edges += tuple((v, v + 1, v % 2) for v in range(4, n - 1))
    return ColoredDigraph(n=n, edges=edges, colors=("c1", "c2"), leaders=(0, 1))


def test_batches_stay_within_the_byte_budget(monkeypatch):
    """Trial 0 runs alone, and no later batch stacks realizations past the
    budget, so no null basis either: a basis holds at most n x n doubles
    per realization, as W does.  After two real batches the spy answers
    balancing, so that 10,000 trials stay cheap."""
    g = _crossed_chain(62)
    assert oracle._exact_rounds(g.out_masks, g.leader_mask, g.full_mask) == (
        (),
        g.leader_mask,
        False,
    )
    sizes = []
    lockstep = oracle._zero_extension

    def spy(w, zero, steps):
        sizes.append(len(w))
        assert w.nbytes <= BATCH_BYTES
        if len(sizes) <= 2:
            return lockstep(w, zero, steps)
        return [ZeroExtensionTrace(zero, (), g.full_mask)] * len(w)

    monkeypatch.setattr(oracle, "_zero_extension", spy)
    assert sampled_verdict(g, trials=10_000).corroborated
    assert sizes[0] == 1 and sum(sizes) == 10_000
    assert max(sizes) == BATCH_BYTES // (8 * g.n * g.n)
