"""Color change rule, derivations, backtracking, and classic-rule checks."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colored_ssc import forcing
from colored_ssc.analysis import analyze
from colored_ssc.bipartite import (
    EnumerationCapError,
    enumerate_matchings,
    equivalence_classes,
    slice_signature,
)
from colored_ssc.corpus import load as load_fig
from colored_ssc.forcing import (
    SearchBoundExceededError,
    derived_set_greedy,
    find_forces,
    iter_forces,
    is_color_perfect,
    is_zero_forcing_set,
)
from colored_ssc.graph import (
    ColoredDigraph,
    induced_bipartite,
    iter_vset,
    slice_key,
    vset,
    white_out_neighbors,
)
from colored_ssc.oracle import is_balancing_set, sample_realization, zero_extension_derived_set

from conftest import (
    all_subsets_forces,
    classic_derived_set,
    eager_forces,
    force_mutations,
    irreducible,
    labels,
    members1,
    random_digraph,
    reference_derivation_outcomes,
    reference_greedy,
    scale_graph,
    sweep_graphs,
    weighted_adjacency,
)


def _path(n: int) -> ColoredDigraph:
    return ColoredDigraph(n=n, edges=tuple((t, t + 1, 0) for t in range(n - 1)), colors=("c1",))


def _private_targets(k: int, n: int = 62) -> ColoredDigraph:
    """Vertex v < k points at its own vertex k + v.  With black = {0..k-1},
    every subset of the black set is listed and forces, and the k
    singletons are its irreducible forces."""
    return ColoredDigraph(n=n, edges=tuple((v, k + v, 0) for v in range(k)), colors=("c1",))


def _drawn(g: ColoredDigraph, black: int) -> tuple[list[forcing.Force], bool]:
    """The forces ``iter_forces`` yields before it stops, and whether it
    stopped by refusing at the source budget."""
    forces: list[forcing.Force] = []
    try:
        for force in iter_forces(g, black):
            forces.append(force)
    except SearchBoundExceededError:
        return forces, True
    return forces, False


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
        # 13 black vertices with private targets: sizes 1-6 list 4095
        # subsets, all forces but only the 13 singletons irreducible, and
        # size 7 passes the budget of 2**12 - 1
        g, black = _private_targets(13), (1 << 13) - 1
        with pytest.raises(SearchBoundExceededError, match="at size 7$"):
            find_forces(g, black)
        forces, refused = _drawn(g, black)
        assert refused and [f.source for f in forces] == [1 << v for v in range(13)]

    def test_source_meeting_a_tight_source_still_forces(self):
        # {1, 2} is tight and singular (both feed {5, 6} in one color); the
        # triples holding it are reducible, but {1, 3, 4} and {2, 3, 4} only
        # meet it, hold no tight subset, and have two matchings of equal
        # sign and colors, so they force
        edges = ((0, 4), (0, 5), (1, 4), (1, 5), (2, 5), (2, 6), (3, 4), (3, 6))
        g = ColoredDigraph(n=7, edges=tuple((t, h, 0) for t, h in edges), colors=("c1",))
        forces = find_forces(g, labels(1, 2, 3, 4))
        got = [(members1(f.source), members1(f.target)) for f in forces]
        assert got == [((1, 3, 4), (5, 6, 7)), ((2, 3, 4), (5, 6, 7))]

    def test_wide_slice_meets_enumeration_cap(self):
        # 15 black vertices, each pointing at all 15 white ones: only the
        # 15 singletons and the full set are listed, and the full set's
        # slice is past the determinant cap
        edges = tuple((t, h, 0) for t in range(15) for h in range(15, 30))
        g = ColoredDigraph(n=30, edges=edges, colors=("c1",))
        with pytest.raises(EnumerationCapError):
            find_forces(g, labels(*range(1, 16)))

    def test_path_has_one_candidate(self):
        # 13 black vertices, but only vertex 13 has a white out-neighbor
        g = _path(14)
        forces = find_forces(g, labels(*range(1, 14)))
        assert [(members1(f.source), members1(f.target)) for f in forces] == [((13,), (14,))]

    @pytest.mark.parametrize("k", [12, 13, 31])
    def test_cap_bounds_subsets_looked_at(self, k):
        # every subset of k private-target vertices is listed, so the size
        # the walk refuses at pins the subsets it counted: k = 12 lists all
        # 4095 and is never refused, k = 13 refuses at size 7 after
        # C(13, 1..6) = 4095 and k = 31 at size 3 after C(31, 1..2) = 496;
        # of them only the singletons are irreducible forces
        g, black = _private_targets(k), (1 << k) - 1
        forces, refused = _drawn(g, black)
        assert refused == (k > 12)  # a set at the cap is never refused
        assert [f.source for f in forces] == [1 << v for v in range(k)]
        if refused:
            with pytest.raises(SearchBoundExceededError, match=f"at size {7 if k == 13 else 3}$"):
                find_forces(g, black)

    def test_black_sets_within_cap_never_refused(self, monkeypatch):
        rng = np.random.default_rng(33)
        for _ in range(200):
            g = random_digraph(rng, n_min=2, n_max=62, edge_prob=0.1, with_leaders=False)
            cap = int(rng.integers(1, 6))
            size = int(rng.integers(1, min(cap, g.n) + 1))
            black = sum(1 << int(v) for v in rng.choice(g.n, size=size, replace=False))
            monkeypatch.setattr(forcing, "MAX_SOURCE_CAP", cap)
            find_forces(g, black)

    def test_matches_all_subsets_reference(self, monkeypatch):
        rng = np.random.default_rng(32)
        reducible = 0
        for trial in range(500):
            g = random_digraph(rng, n_max=9, with_leaders=False)
            black = int(rng.integers(1, g.full_mask + 1))
            refused = False
            if trial % 3:
                max_size = (None, None, 1, 2, 3)[trial % 5]
                got = [
                    f
                    for f in find_forces(g, black)
                    if max_size is None or f.source.bit_count() <= max_size
                ]
                every = all_subsets_forces(g, black, max_size)
            else:
                with monkeypatch.context() as m:
                    m.setattr(forcing, "MAX_SOURCE_CAP", int(rng.integers(2, 7)))
                    got, refused = _drawn(g, black)
                every = all_subsets_forces(g, black)
            want = irreducible(g, black, every)
            reducible += len(every) - len(want)
            assert got == (want[: len(got)] if refused else want)
        assert reducible > 100

    @pytest.mark.parametrize(
        "candidates, whites", [((1, 12), (1, 6)), ((13, 20), (1, 3))], ids=["pruned", "listed"]
    )
    def test_walk_matches_all_subsets_reference(self, candidates, whites):
        # a walk over at most MAX_SOURCE_CAP candidates lists no superset
        # of a tight source; one over more lists every subset, and with a
        # white set this small it is never refused: both yield exactly the
        # irreducible forces.  Each candidate reaches one or two whites, so
        # tight sources nest often; two black vertices reach no white.
        rng = np.random.default_rng(36)
        forces = reducible_forces = 0
        for _ in range(60):
            c, w = (int(rng.integers(lo, hi + 1)) for lo, hi in (candidates, whites))
            n = c + w + 2
            edges = {
                (t, c + 2 + int(h), int(rng.integers(3)))
                for t in range(c)
                for h in rng.choice(w, size=min(w, int(rng.integers(1, 3))), replace=False)
            }
            edges |= {
                (t, h, int(rng.integers(3)))
                for t in range(c + 2)
                for h in range(c + 2)
                if t != h and rng.random() < 0.2
            }
            used = {col: i for i, col in enumerate(sorted({col for *_, col in edges}))}
            edges = tuple(sorted((t, h, used[col]) for t, h, col in edges))
            g = ColoredDigraph(n=n, edges=edges, colors=("c1", "c2", "c3")[: len(used)])
            black = (1 << (c + 2)) - 1
            assert sum(1 for v in range(n) if g.out_masks[v] & ~black and black >> v & 1) == c
            every = all_subsets_forces(g, black, w)
            want = irreducible(g, black, every)
            assert find_forces(g, black) == want
            forces += len(want)
            reducible_forces += len(every) - len(want)
        assert forces > 150 and reducible_forces > 1000

    def test_small_cap_config(self, monkeypatch):
        g = load_fig("fig8")
        monkeypatch.setattr(forcing, "MAX_SOURCE_CAP", 3)
        with pytest.raises(SearchBoundExceededError):
            find_forces(g, labels(1, 2, 3, 4, 5))
        forces, refused = _drawn(g, labels(1, 2, 3, 4, 5))
        assert refused and [members1(f.source) for f in forces] == [(5,)]
        assert forces == all_subsets_forces(g, labels(1, 2, 3, 4, 5))[:1]


class TestReferenceSearch:
    """The backtracking and greedy derivations draw only irreducible forces
    and skip slice tests, yet end exactly as a plain search over every
    force of the all-subsets reference does: the same witness and stuck
    traces, and the same greedy trace."""

    @staticmethod
    def graphs() -> list[ColoredDigraph]:
        # the golden sweep, and the scale family's draw at n = 12 and 14,
        # small enough for the reference to test every black subset
        return [*sweep_graphs(), *(scale_graph(n, i) for n in (12, 14) for i in range(4))]

    def test_outcomes_match_reference(self):
        witnesses = stuck = 0
        for g in self.graphs():
            want = reference_derivation_outcomes(g, g.leader_mask)
            assert forcing.derivation_outcomes(g, g.leader_mask) == want
            witnesses += want[0] is not None
            stuck += len(want[1])
        assert witnesses > 50 and stuck > 100

    def test_greedy_matches_reference(self):
        for g in self.graphs():
            assert derived_set_greedy(g, g.leader_mask) == reference_greedy(g, g.leader_mask)


def _eager_iter(g, black, *args, **kwargs):
    """``iter_forces`` drawn from the eager reference, which tests every
    slice: it takes and ignores the arguments that skip slice tests."""
    return iter(eager_forces(g, black))


def _count_slice_tests(monkeypatch) -> list[int]:
    """Spy on the slice test the force search calls; returns its call count."""
    calls = [0]
    original = forcing.slice_signature

    def counting(key):
        calls[0] += 1
        return original(key)

    monkeypatch.setattr(forcing, "slice_signature", counting)
    return calls


class TestIterForces:
    def test_matches_eager_reference(self, monkeypatch):
        # under a small budget the two refuse on the same black sets, and
        # the lazy forces drawn before a refusal are a prefix of the list
        rng = np.random.default_rng(34)
        raised = partial = 0
        for _ in range(400):
            g = random_digraph(rng, n_max=12, with_leaders=False)
            black = int(rng.integers(1, g.full_mask + 1))
            full = irreducible(g, black, eager_forces(g, black))
            assert list(iter_forces(g, black)) == full
            with monkeypatch.context() as m:
                m.setattr(forcing, "MAX_SOURCE_CAP", int(rng.integers(1, 5)))
                try:
                    want = eager_forces(g, black)
                except SearchBoundExceededError:
                    want = None
                got, refused = _drawn(g, black)
            assert refused == (want is None)
            if refused:
                raised += 1
                partial += bool(got)
                assert got == full[: len(got)]
            else:
                assert got == irreducible(g, black, want) == full
        assert raised > 50 and partial > 20

    def test_slices_tested_only_for_listed_subsets(self, monkeypatch):
        # sizes 1-6 of 13 private-target vertices are listed (4095
        # subsets), and only the 13 irreducible singletons among them are
        # tested; listing size 7 passes the budget, and the refusal comes
        # before any of its slices is tested
        calls = _count_slice_tests(monkeypatch)
        g, black = _private_targets(13), (1 << 13) - 1
        forces = iter_forces(g, black)
        assert calls[0] == 0
        assert next(forces).source == 1 and calls[0] == 1
        with pytest.raises(SearchBoundExceededError, match="at size 7$"):
            for force in forces:
                assert force.source.bit_count() == 1
        assert calls[0] == 13

    def test_dead_child_skipped_after_first_force(self, monkeypatch):
        # vertex v < 4 of a private-target graph forces {4 + v}: {0} is
        # tested though its child is dead, as it is the first force, and the
        # dead children of {1} and {3} are not tested after it
        calls = _count_slice_tests(monkeypatch)
        g, black = _private_targets(4, n=8), 0b1111
        dead = {black | 1 << 4, black | 1 << 5, black | 1 << 7}
        forces = [f.source for f in iter_forces(g, black, dead)]
        assert forces == [0b0001, 0b0100]
        assert calls[0] == 2

    @staticmethod
    def _wide_reducible(monkeypatch) -> tuple[ColoredDigraph, list[int]]:
        # 13 black vertices: 0 forces white 13 alone; every other one points
        # at all 13 whites, so the one other listed subset with a square
        # slice is all 13, which contains the tight source {0}; the list
        # returned gets the width of every slice tested
        edges = [(0, 13, 0), *((v, w, 0) for v in range(1, 13) for w in range(13, 26))]
        widths: list[int] = []
        original = forcing.slice_signature

        def spy(key):
            widths.append(len(key))
            return original(key)

        monkeypatch.setattr(forcing, "slice_signature", spy)
        return ColoredDigraph(n=26, edges=tuple(edges), colors=("c1",)), widths

    def test_wide_dead_child_not_tested(self, monkeypatch):
        # the 13-wide source is reducible and its child is dead: after the
        # first force the walk ends without testing a slice past the cap
        g, widths = self._wide_reducible(monkeypatch)
        forces = iter_forces(g, (1 << 13) - 1, dead={g.full_mask})
        assert next(forces).target == 1 << 13
        with pytest.raises(StopIteration):
            next(forces)
        assert widths == [1]

    def test_wide_reducible_source_not_tested(self, monkeypatch):
        # without a dead set, too: the reducible source is dropped at any
        # width, so one slice is tested and no determinant cap is met
        g, widths = self._wide_reducible(monkeypatch)
        forces = find_forces(g, (1 << 13) - 1)
        assert [(f.source, f.target) for f in forces] == [(1, 1 << 13)]
        assert widths == [1]

    def test_source_over_singular_tight_source_not_tested(self, monkeypatch):
        # T = {1, 2} feeds {4, 5} all in color c1, so det T = c1^2 - c1^2 = 0;
        # X = T + {3} feeds {4, 5, 6} and is tight, and its slice is block
        # triangular over T's, so X is singular and not tested
        edges = ((0, 3, 0), (0, 4, 0), (1, 3, 0), (1, 4, 0), (2, 5, 0), (2, 3, 0))
        g, black = ColoredDigraph(n=6, edges=edges, colors=("c1",)), labels(1, 2, 3)
        want = all_subsets_forces(g, black)
        tested = []
        original = forcing.slice_key

        def spy(graph, source, target):
            tested.append(source)
            return original(graph, source, target)

        monkeypatch.setattr(forcing, "slice_key", spy)
        assert find_forces(g, black) == want == []
        assert tested == [labels(1, 2)]

    def test_interleaved_walks_each_yield_every_force(self):
        # two walks over the same candidates, drawn in turn, each list their
        # own subsets and yield every irreducible force
        g, black = _private_targets(5, n=10), 0b11111
        drawn = [f for pair in zip(iter_forces(g, black), iter_forces(g, black)) for f in pair]
        assert drawn[::2] == drawn[1::2] == irreducible(g, black, all_subsets_forces(g, black))

    def test_refusal_repeats_for_every_walk(self):
        # each walk lists its own subsets against a budget of its own: a
        # later walk over the same candidates yields the same forces and
        # refuses at the same size
        g, black = _private_targets(13), (1 << 13) - 1
        first, second = _drawn(g, black), _drawn(g, black)
        assert first == second and first[1] and len(first[0]) == 13
        for _ in range(2):
            with pytest.raises(SearchBoundExceededError, match="at size 7"):
                find_forces(g, black)

    def test_search_tests_fewer_slices(self, monkeypatch):
        g = load_fig("fig7d")  # a zero forcing set with several forces per step
        calls = _count_slice_tests(monkeypatch)
        lazy = forcing.derivation_outcomes(g, g.leader_mask)
        lazy_calls = calls[0]
        calls[0] = 0
        monkeypatch.setattr(forcing, "iter_forces", _eager_iter)
        assert forcing.derivation_outcomes(g, g.leader_mask) == lazy
        assert lazy[0] is not None
        assert lazy_calls < calls[0]

    def test_bound_errors_at_same_black_sets(self, monkeypatch):
        # the eager reference refuses at a black set before drawing any of
        # its forces, the lazy search only after drawing those listed within
        # the budget: the black sets analyze meets with eager forces are a
        # prefix of those it meets with lazy ones, and the same wherever
        # eager completes; lazy refuses only where eager refused
        rng = np.random.default_rng(35)
        cases = [(random_digraph(rng, n_max=10), int(rng.integers(1, 5))) for _ in range(120)]

        def run(search, g, cap):
            seen: list[int] = []

            def recording(graph, black, *args, **kwargs):
                seen.append(black)
                return search(graph, black, *args, **kwargs)

            monkeypatch.setattr(forcing, "iter_forces", recording)
            monkeypatch.setattr(forcing, "MAX_SOURCE_CAP", cap)
            try:
                analyze(g, budget=20)
            except SearchBoundExceededError:
                return seen, True
            return seen, False

        lazy = [run(iter_forces, g, cap) for g, cap in cases]
        eager = [run(_eager_iter, g, cap) for g, cap in cases]
        for (lazy_seen, lazy_raised), (eager_seen, eager_raised) in zip(lazy, eager):
            assert lazy_seen[: len(eager_seen)] == eager_seen
            if not eager_raised:
                assert (lazy_seen, lazy_raised) == (eager_seen, False)
        assert sum(raised for _, raised in eager) > 10
        assert sum(a != b for a, b in zip(lazy, eager)) > 0


class TestScaleFamily:
    """30-vertex graphs whose leader searches list few of the candidate
    subsets a count of all subsets up to the size limit would charge; a
    budget on that count refused them (exit 3)."""

    @pytest.mark.parametrize("i", [2, 3, 5, 8])
    def test_certified(self, i):
        g = scale_graph(30, i)
        report = analyze(g, use_oracle=True, trials=50)
        assert report.verdict == "CONTROLLABLE"
        assert report.trace.replay_ok()
        assert report.oracle.corroborated and report.oracle.trials == 50


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

    def test_truncation_flagged(self, monkeypatch):
        g = load_fig("fig8")
        monkeypatch.setattr(forcing, "MAX_SOURCE_CAP", 3)
        trace = derived_set_greedy(g, labels(1, 2, 3, 4, 5))
        assert trace.truncated
        assert [members1(f.source) for f in trace.steps] == [(5,)]

    def test_path_not_truncated(self):
        g = _path(14)
        trace = derived_set_greedy(g, labels(*range(1, 14)))
        assert not trace.truncated
        assert trace.final == g.full_mask

    def test_mutated_traces_rejected(self):
        # a greedy trace replays at every step, and its replay compares the
        # whole force: each mutation of its first force returns False
        seen: dict[str, int] = {}
        for g in sweep_graphs():
            trace = derived_set_greedy(g, g.leader_mask)
            assert trace.replay_ok(g)
            for name, mutated in force_mutations(trace):
                assert mutated.replay_ok(g) is False, name
                seen[name] = seen.get(name, 0) + 1
        assert len(seen) == 4 and min(seen.values()) > 20


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
