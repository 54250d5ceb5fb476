"""Acceptance suite: one test per criterion, reported in the run summary.

Criteria 1-6 pin the bundled golden graphs to their exact expected
combinatorics.  Criteria 7-10 are randomized aggregates at fixed seeds:
the two nonsingularity routes must agree, the balancing verdict must
match the test-only Kalman rank verdicts on both sides of the
all-diagonals quantifier, every certificate step must leave sampled
zero-extension sets invariant, and no positive pipeline verdict may be
falsified by sampling.
"""

from __future__ import annotations

import numpy as np

from colored_ssc.analysis import analyze
from colored_ssc.bipartite import (
    enumerate_matchings,
    equivalence_classes,
    pattern_nonsingular,
    symbolic_det,
)
from colored_ssc.corpus import load as load_fig
from colored_ssc.edgeops import (
    EeoTrace,
    RemoveEdges,
    apply_op,
    apply_remove_edges,
    apply_turn_color,
    eeo_derived_set,
)
from colored_ssc.forcing import DerivationTrace, derived_set_greedy, is_zero_forcing_set
from colored_ssc.graph import ColoredDigraph, induced_bipartite
from colored_ssc.oracle import (
    sample_realization,
    sampled_verdict,
    zero_extension_derived_set,
)

from conftest import (
    class_term_map,
    classic_derived_set,
    evaluate_det,
    kalman_rank,
    labels,
    members1,
    pattern_matrix,
    random_bipartite,
    random_digraph,
    record_criterion,
    sample_color_values,
    sampled_diagonal,
    uncontrollable_witness,
    weighted_adjacency,
)

PAIRED_REALIZATIONS = 100


def check(name: str):
    """Record the criterion verdict even when the assertions fail."""

    def decorator(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_criterion(name, False)
                raise
            record_criterion(name, True)

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


@check("criterion 1: fig3 matching classes and nonsingularity")
def test_criterion_1_fig3_classes():
    b = induced_bipartite(load_fig("fig3"), labels(1, 2, 3), labels(1, 2, 3))
    classes = equivalence_classes(enumerate_matchings(b))
    assert [(c.members, c.signature) for c in classes] == [(2, 0), (1, -1)]
    assert pattern_nonsingular(b)


@check("criterion 2: fig4 zero forcing witness with two forces")
def test_criterion_2_fig4_witness():
    g = load_fig("fig4")
    ok, witness = is_zero_forcing_set(g, labels(1, 2, 3))
    assert ok
    assert [(members1(f.source), members1(f.target)) for f in witness.steps] == [
        ((1, 2, 3), (4, 5, 6)),
        ((4, 5, 6), (7, 8, 9)),
    ]
    assert witness.steps[1].class_signature == 2


@check("criterion 3: fig5 not forcing, oracle corroborates, first extension {5}")
def test_criterion_3_fig5():
    g = load_fig("fig5")
    ok, _ = is_zero_forcing_set(g, labels(1, 2))
    assert not ok
    verdict = sampled_verdict(g, labels(1, 2), trials=100, seed=0)
    assert verdict.corroborated
    w = weighted_adjacency(g, sample_realization(g, 0))
    trace = zero_extension_derived_set(w, labels(1, 2))
    assert trace.steps[0] == (labels(1, 2), labels(5))


@check("criterion 4: fig6 edge operations reproduce the derived graphs")
def test_criterion_4_fig6_operations():
    black = labels(1, 2)
    recolored = apply_turn_color(load_fig("fig6a"), 0, 1, black)
    assert recolored == load_fig("fig6b")
    pruned = apply_remove_edges(recolored, 0, 1, black)
    assert pruned == load_fig("fig6c")
    assert classic_derived_set(pruned, black) == pruned.full_mask


@check("criterion 5: fig7 edge-operation derivation reaches every vertex")
def test_criterion_5_fig7_eeo():
    g = load_fig("fig7a")
    trace = eeo_derived_set(g, labels(1, 2, 5, 6, 7))
    assert trace.complete
    removals = [(op.u + 1, op.v + 1) for op in trace.ops if isinstance(op, RemoveEdges)]
    assert (7, 1) in removals and (11, 2) in removals
    assert any(d.final == labels(1, 2, 4, 5, 6, 7, 11) for d in trace.derivations)


@check("criterion 6: fig8 greedy sticks but backtracking finds the witness")
def test_criterion_6_fig8_branches():
    g = load_fig("fig8")
    greedy = derived_set_greedy(g, labels(1, 2, 3, 4, 5))
    assert members1(greedy.final) == (1, 2, 3, 4, 5, 6)
    ok, witness = is_zero_forcing_set(g, labels(1, 2, 3, 4, 5))
    assert ok
    assert any(
        (members1(f.source), members1(f.target)) == ((1, 2, 3, 4), (6, 7, 8, 9))
        for f in witness.steps
    )


@check("criterion 7: nonsingularity routes agree on 1000 random bipartite graphs")
def test_criterion_7_route_agreement():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        b = random_bipartite(rng, t_max=5, max_colors=3)
        det = symbolic_det(b)
        assert pattern_nonsingular(b) == (len(class_term_map(b)) == 1)
        values = sample_color_values(len(b.colors), rng)
        direct = np.linalg.det(pattern_matrix(b, values))
        via_poly = evaluate_det(det, list(values))
        assert abs(direct - via_poly) <= 1e-9 * max(1.0, abs(direct), abs(via_poly))


@check("criterion 8: balancing verdict matches rank verdicts on 500 systems")
def test_criterion_8_balancing_vs_rank():
    """Balancing must imply a controllable pair for a sampled diagonal;
    a non-balancing verdict must be certified by a witness diagonal whose
    pair fails the rank test.  The rank test is the test-only Kalman route
    of conftest, and the sampled diagonal replays the stream the oracle
    once drew it from.  Disagreements are excused only within the
    borderline band around the rank threshold, at under 2 percent."""
    rng = np.random.default_rng(4096)
    total = 500
    borderline = 0
    for i in range(total):
        g = random_digraph(rng, n_max=7)
        w = weighted_adjacency(g, sample_realization(g, 80_000 + i))
        trace = zero_extension_derived_set(w, g.leader_mask)
        balancing = trace.final == g.full_mask
        if balancing:
            report = kalman_rank(w + np.diag(sampled_diagonal(g, 80_000 + i)), g.leaders)
            if not report.controllable:
                assert report.smallest_singular <= 11.0 * report.threshold, (
                    f"system {i}: balancing but clearly rank deficient"
                )
                borderline += 1
        else:
            diag = uncontrollable_witness(w, g.leader_mask, rng)
            assert diag is not None, f"system {i}: stuck derivation but no witness"
            report = kalman_rank(w + np.diag(diag), g.leaders)
            if report.controllable:
                assert report.smallest_singular <= 11.0 * report.threshold, (
                    f"system {i}: witness diagonal but clearly full rank"
                )
                borderline += 1
    assert borderline / total < 0.02, f"borderline rate {borderline}/{total}"


def _forces_with_context(g: ColoredDigraph, trace: DerivationTrace):
    black = trace.initial
    for force in trace.steps:
        yield g, black, force.source, force.target
        black |= force.target


def _certificate_steps():
    """Every force and edge operation applied by criteria 2 through 6."""
    forces = []
    ops = []

    g4 = load_fig("fig4")
    _, witness4 = is_zero_forcing_set(g4, labels(1, 2, 3))
    forces += list(_forces_with_context(g4, witness4))

    g6a, g6b = load_fig("fig6a"), load_fig("fig6b")
    black6 = labels(1, 2)
    ops.append((g6a, black6, apply_turn_color(g6a, 0, 1, black6)))
    ops.append((g6b, black6, apply_remove_edges(g6b, 0, 1, black6)))
    g6c = load_fig("fig6c")
    chain = derived_set_greedy(g6c, black6)
    forces += list(_forces_with_context(g6c, chain))

    g7 = load_fig("fig7a")
    trace7: EeoTrace = eeo_derived_set(g7, labels(1, 2, 5, 6, 7))
    for stage_graph, derivation in zip(trace7.graphs, trace7.derivations):
        forces += list(_forces_with_context(stage_graph, derivation))
    for i, op in enumerate(trace7.ops):
        ops.append((trace7.graphs[i], op.context, apply_op(trace7.graphs[i], op)))

    g8 = load_fig("fig8")
    greedy8 = derived_set_greedy(g8, labels(1, 2, 3, 4, 5))
    forces += list(_forces_with_context(g8, greedy8))
    _, witness8 = is_zero_forcing_set(g8, labels(1, 2, 3, 4, 5))
    forces += list(_forces_with_context(g8, witness8))

    return forces, ops


@check("criterion 9: certificate steps leave zero extension invariant")
def test_criterion_9_invariance_of_certificates():
    forces, ops = _certificate_steps()
    assert forces and ops
    for g, black, source, target in forces:
        for seed in range(PAIRED_REALIZATIONS):
            w = weighted_adjacency(g, sample_realization(g, 50_000 + seed))
            before = zero_extension_derived_set(w, black).final
            after = zero_extension_derived_set(w, black | target).final
            assert before == after, (
                f"force {members1(source)}->{members1(target)} at {members1(black)} "
                f"changed the derived zero set (seed {seed})"
            )
    for g, black, derived in ops:
        for seed in range(PAIRED_REALIZATIONS):
            r = sample_realization(g, 60_000 + seed)
            w = weighted_adjacency(g, r)
            values = {name: r.color_values[name] for name in derived.colors}
            w2 = weighted_adjacency(derived, type(r)(color_values=values))
            assert (
                zero_extension_derived_set(w, black).final
                == zero_extension_derived_set(w2, black).final
            ), f"edge operation at {members1(black)} changed the derived zero set"


@check("criterion 10: positive pipeline verdicts survive 50-trial sampling")
def test_criterion_10_soundness_sweep():
    rng = np.random.default_rng(31337)
    controllable = 0
    for i in range(200):
        g = random_digraph(rng, n_max=7, max_colors=3)
        report = analyze(g, graph_id=f"random-{i}", budget=200)
        if report.verdict == "CONTROLLABLE":
            controllable += 1
            verdict = sampled_verdict(g, trials=50, seed=90_000 + i)
            assert verdict.corroborated, (
                f"graph {i} certified via {report.method} but falsified at "
                f"seed offset {verdict.seed_offset}"
            )
    # the sweep must actually exercise positive verdicts to mean anything
    assert controllable >= 20
