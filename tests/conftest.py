"""Shared helpers: label conversions, corpus access, random generators,
mutations that break a force derivation, and the reference routes the
production code is checked against (all-subsets force enumeration and its
irreducible forces, the backtracking and greedy derivations over it, the
eager force enumeration that tests every slice, matching classes, the
classic forcing rule, the edge-operation search memoized on exact states,
numeric realizations of slice patterns and the determinant's value there,
the weighted adjacency of one realization, the Kalman rank test, zero
extension solved from scratch each round or run one realization at a time,
the per-trial sampled verdict, and a witness diagonal for a leader set that
is not balancing)."""

from __future__ import annotations

import math
import random
from dataclasses import replace
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
import pytest
import scipy.linalg

from colored_ssc import forcing
from colored_ssc.bipartite import (
    ColoredBipartite,
    DetPolynomial,
    enumerate_matchings,
    equivalence_classes,
)
from colored_ssc.corpus import load as load_fig
from colored_ssc.edgeops import EeoTrace, apply_op, find_edge_ops
from colored_ssc.forcing import (
    DerivationTrace,
    Force,
    SearchBoundExceededError,
    derivation_outcomes,
    is_color_perfect,
)
from colored_ssc.graph import (
    ColoredDigraph,
    iter_vset,
    slice_key,
    vset,
    vset_from_labels,
    vset_labels,
    vset_members,
    white_out_neighbors,
)
from colored_ssc.oracle import (
    NULLSPACE_REL_TOL,
    OracleVerdict,
    Realization,
    ZeroExtensionTrace,
    sample_realization,
    zero_extension_derived_set,
)


def labels(*vertices: int) -> int:
    """Bitmask from 1-based vertex labels."""
    return vset_from_labels(vertices)


def members1(mask: int) -> tuple[int, ...]:
    return vset_labels(mask)


@pytest.fixture
def fig():
    return load_fig


# Malformed graph-file fields that validate must refuse with GraphFormatError:
# a non-list, a non-integer, a fractional label int() would truncate, a
# string or an object where an array belongs (iterating it would read its
# characters or keys as entries), a color name that is not a string, and a
# JSON true where an integer belongs (int() would read it as 1).
MALFORMED_FIELDS = (
    {"edges": 5},
    {"edges": [5]},
    {"leaders": 5},
    {"leaders": [1, None]},
    {"edges": [[1.7, 2, 1]]},
    {"colors": "c"},
    {"colors": {"c1": 1}},
    {"colors": [["c1"]]},
    {"edges": ["121"]},
    {"leaders": "1"},
    {"n": True},
    {"edges": [[True, 2, 1]]},
    {"leaders": [True]},
    {"n": math.inf},
    {"edges": [[1, 2, 1e400]]},
    {"leaders": [-math.inf]},
)


def _trimmed(
    n: int, edges: list[tuple[int, int, int]], leaders: tuple[int, ...] | None
) -> ColoredDigraph:
    """Digraph with its palette trimmed to the colors the edges use."""
    used = sorted({c for _, _, c in edges})
    remap = {c: i for i, c in enumerate(used)}
    return ColoredDigraph(
        n=n,
        edges=tuple((t, h, remap[c]) for t, h, c in edges),
        colors=tuple(f"c{i + 1}" for i in range(len(used))),
        leaders=leaders,
    )


def random_digraph(
    rng: np.random.Generator,
    n_min: int = 2,
    n_max: int = 7,
    max_colors: int = 3,
    edge_prob: float = 0.35,
    with_leaders: bool = True,
) -> ColoredDigraph:
    """Random colored digraph; palette trimmed to the colors actually used."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        k = int(rng.integers(1, max_colors + 1))
        edges = [
            (t, h, int(rng.integers(0, k)))
            for t in range(n)
            for h in range(n)
            if t != h and rng.random() < edge_prob
        ]
        if not edges:
            continue
        leaders = None
        if with_leaders:
            m = int(rng.integers(1, n + 1))
            leaders = tuple(sorted(int(v) for v in rng.choice(n, size=m, replace=False)))
        return _trimmed(n, edges, leaders)


SWEEP_SEED, SWEEP_GRAPHS = 2026, 300


def sweep_graphs() -> Iterator[ColoredDigraph]:
    """The fixed-seed sweep of the golden digests: ``SWEEP_GRAPHS`` graphs
    of ``random_digraph`` with n = 4-10 and edge probability 0.3."""
    rng = np.random.default_rng(SWEEP_SEED)
    return (random_digraph(rng, n_min=4, n_max=10, edge_prob=0.3) for _ in range(SWEEP_GRAPHS))


def scale_graph(n: int, i: int) -> ColoredDigraph:
    """Graph ``i`` of the n = 30-62 scale family, drawn as the benchmark's
    ``random_colored`` draws it: from ``random.Random(f"scale:{n}:{i}")``,
    edge probability 4.5 / n, up to 1 + i % 3 colors and a random half of
    the vertices as leaders."""
    return _half_led_graph(random.Random(f"scale:{n}:{i}"), n, 4.5 / n, 1 + i % 3)


def dense_graph(d: float, i: int) -> ColoredDigraph:
    """Graph ``i`` of the dense62 family: drawn as :func:`scale_graph` draws,
    with n = 62 and edge probability d / 62, from
    ``random.Random(f"dense:62:{d}:{i}")`` (``d`` a float, so the seed
    reads ``dense:62:3.0:0``)."""
    return _half_led_graph(random.Random(f"dense:62:{d}:{i}"), 62, d / 62, 1 + i % 3)


def mid_graph(n: int, i: int) -> ColoredDigraph:
    """Graph ``i`` of the n = 17-20 mid family: drawn as the benchmark's
    forcing-scale graphs are, with edge probability 0.25, up to 1 + i % 3
    colors and a random half of the vertices as leaders, from
    ``random.Random(f"mid:{n}:{i}")``."""
    return _half_led_graph(random.Random(f"mid:{n}:{i}"), n, 0.25, 1 + i % 3)


def _half_led_graph(rng: random.Random, n: int, p: float, k: int) -> ColoredDigraph:
    """Each arc with probability ``p`` and one of ``k`` colors, redrawn until
    there is an arc, then a random half of the vertices as leaders."""
    while True:
        edges = [
            (t, h, rng.randrange(k))
            for t in range(n)
            for h in range(n)
            if t != h and rng.random() < p
        ]
        if edges:
            return _trimmed(n, edges, tuple(sorted(rng.sample(range(n), n // 2))))


def chain_digraph(rng: np.random.Generator, n: int, twins: bool) -> ColoredDigraph:
    """Path 0 -> 1 -> ... with random back edges and 1-3 colors; leader {0}.

    Without twins, classic forcing from vertex 0 walks the path, so the
    leader set is balancing for every realization.  With twins, the path
    ends in two leaves fed by one color from the same vertex; their balance
    equation w*(x_a + x_b) = 0 forces neither, so no realization is
    balancing.
    """
    k = int(rng.integers(1, 4))
    back_prob = rng.uniform(0.0, 0.5)
    last = n - 2 if twins else n  # vertices on the path
    edges = [(v, v + 1, int(rng.integers(k))) for v in range(last - 1)]
    edges += [
        (j, i, int(rng.integers(k)))
        for j in range(1, last)
        for i in range(j)
        if rng.random() < back_prob
    ]
    if twins:
        color = int(rng.integers(k))
        edges += [(last - 1, last, color), (last - 1, last + 1, color)]
    return _trimmed(n, sorted(edges), (0,))


def all_subsets_forces(
    g: ColoredDigraph, black: int, max_size: int | None = None
) -> list[Force]:
    """Reference force list: every subset of the black set with at most
    ``max_size`` members, by size then lexicographically, tested with the
    color change rule.  No pruning and no cap, so ``find_forces`` can be
    checked against it."""
    members = vset_members(black)
    limit = len(members) if max_size is None else min(max_size, len(members))
    forces = []
    for size in range(1, limit + 1):
        for subset in combinations(members, size):
            source = vset(subset)
            target = white_out_neighbors(g, source, black)
            if not target or target.bit_count() != size:
                continue
            force = is_color_perfect(g, source, black)
            if force is not None:
                forces.append(force)
    return forces


def reducible(g: ColoredDigraph, black: int, source: int) -> bool:
    """Whether ``source`` is reducible at ``black``: it has a nonempty proper
    subset whose white target is as wide as it is."""
    members = vset_members(source)
    return any(
        white_out_neighbors(g, vset(subset), black).bit_count() == size
        for size in range(1, len(members))
        for subset in combinations(members, size)
    )


def irreducible(g: ColoredDigraph, black: int, forces: list[Force]) -> list[Force]:
    """The forces of ``forces`` whose source is not reducible at ``black``."""
    return [f for f in forces if not reducible(g, black, f.source)]


def reference_derivation_outcomes(
    g: ColoredDigraph, black: int
) -> tuple[DerivationTrace | None, list[DerivationTrace]]:
    """The backtracking search as a plain recursion over every force
    :func:`all_subsets_forces` finds, in its order: the first trace that
    reaches V, and each stuck set met with the first trace that reached it.
    A black set all of whose children fail is memoized dead; no slice test
    is skipped."""
    start, full = black, g.full_mask
    dead: set[int] = set()
    stuck: list[DerivationTrace] = []

    def dfs(current: int, steps: tuple[Force, ...]) -> DerivationTrace | None:
        if current == full:
            return DerivationTrace(start, steps, full)
        forces = all_subsets_forces(g, current)
        if not forces:
            stuck.append(DerivationTrace(start, steps, current))
        for force in forces:
            child = current | force.target
            if child not in dead:
                witness = dfs(child, steps + (force,))
                if witness is not None:
                    return witness
        dead.add(current)
        return None

    return dfs(black, ()), stuck


def reference_greedy(g: ColoredDigraph, black: int) -> DerivationTrace:
    """The greedy derivation taking the first force of
    :func:`all_subsets_forces` at each step."""
    start, steps = black, []
    while forces := all_subsets_forces(g, black):
        steps.append(forces[0])
        black |= forces[0].target
    return DerivationTrace(start, tuple(steps), black)


def eager_forces(g: ColoredDigraph, black: int) -> list[Force]:
    """Reference force list in the eager form: the same candidates, budget
    (``forcing.MAX_SOURCE_CAP``, read at call time) and pruned depth-first
    walk as ``iter_forces``, but every slice whose target is as wide as its
    source is tested as the walk meets it, and the forces are then sorted
    by source size.  The walk counts the subsets it lists and raises
    :class:`SearchBoundExceededError` once they pass the budget, before it
    returns any force.  Slices are tested through ``forcing.slice_signature``,
    so a spy on that name counts them."""
    white = g.full_mask & ~black
    candidates = [(1 << v, g.out_masks[v] & white) for v in iter_vset(black)]
    candidates = [(bit, reach) for bit, reach in candidates if reach]
    limit = min(len(candidates), white.bit_count())
    last = len(candidates) - 1
    budget = (1 << forcing.MAX_SOURCE_CAP) - 1
    listed = 0
    forces: list[Force] = []

    def extend(start: int, source: int, target: int, size: int) -> None:
        nonlocal listed
        size += 1
        for i in range(start, last + 1):
            bit, reach = candidates[i]
            x, y = source | bit, target | reach
            width = y.bit_count()
            if width > min(limit, size + last - i):
                continue
            listed += 1
            if listed > budget:
                raise SearchBoundExceededError("past the source budget")
            if width == size:
                signature = forcing.slice_signature(slice_key(g, x, y))
                if signature is not None:
                    forces.append(Force(source=x, target=y, class_signature=signature))
            if size < limit:
                extend(i + 1, x, y, size)

    extend(0, 0, 0, 0)
    forces.sort(key=lambda f: f.source.bit_count())
    return forces


def standalone_bipartite(
    t: int,
    edges: Iterable[tuple[int, int, int]],
    n_colors: int,
    names: Sequence[str] | None = None,
) -> ColoredBipartite:
    """Square t-by-t bipartite graph not derived from a digraph."""
    names = tuple(names) if names else tuple(f"c{i + 1}" for i in range(n_colors))
    return ColoredBipartite(
        x_vertices=tuple(range(t)),
        y_vertices=tuple(range(t, 2 * t)),
        edges=tuple(edges),
        colors=names,
    )


def random_bipartite(
    rng: np.random.Generator,
    t_max: int = 5,
    max_colors: int = 3,
    edge_prob: float = 0.5,
) -> ColoredBipartite:
    """Random square colored bipartite graph (possibly with isolated vertices)."""
    t = int(rng.integers(1, t_max + 1))
    k = int(rng.integers(1, max_colors + 1))
    edges = [
        (x, y, int(rng.integers(0, k)))
        for x in range(t)
        for y in range(t)
        if rng.random() < edge_prob
    ]
    return standalone_bipartite(t, edges, k)


def class_term_map(b: ColoredBipartite) -> dict[tuple[int, ...], int]:
    """The determinant's terms by the independent route: the spectrum and
    signature of every matching class whose signature is nonzero."""
    return {
        c.spectrum: c.signature
        for c in equivalence_classes(enumerate_matchings(b))
        if c.signature
    }


def force_mutations(trace: DerivationTrace) -> Iterator[tuple[str, DerivationTrace]]:
    """(name, trace) for each way of breaking the first force of ``trace``
    that applies to it: dropping it, multiplying its signature by 7,
    emptying its source, or swapping its target with the next force's."""
    if not trace.steps:
        return
    first, *rest = trace.steps

    def with_steps(*steps: Force) -> DerivationTrace:
        return replace(trace, steps=steps)

    yield "dropped force", with_steps(*rest)
    signed = replace(first, class_signature=7 * first.class_signature)
    yield "changed signature", with_steps(signed, *rest)
    yield "empty source", with_steps(replace(first, source=0), *rest)
    if rest:
        second, *others = rest
        yield "swapped target", with_steps(
            replace(first, target=second.target), replace(second, target=first.target), *others
        )


def reference_eeo_derived_set(
    g: ColoredDigraph, black: int, budget: int
) -> tuple[EeoTrace, int]:
    """The edge-operation search memoized on exact (graph, black set)
    states, and the number of stages it expanded.  Every operation's graph
    is built, and a state is expanded again whenever its graph differs.
    Same order and same choice of the best trace as the production search,
    which memoizes on stage keys."""
    states = 0
    memo: set[tuple[ColoredDigraph, int]] = {(g, black)}
    best: EeoTrace | None = None

    def dfs(graph, current, graphs, derivations, ops):
        nonlocal states, best
        states += 1
        if states > budget:
            return None
        witness, stuck = derivation_outcomes(graph, current)
        if witness is not None:
            return EeoTrace(graphs + (graph,), derivations + (witness,), ops)
        stuck.sort(key=lambda d: (-d.final.bit_count(), d.final))
        for derivation in stuck:
            if best is None or derivation.final.bit_count() > best.final.bit_count():
                best = EeoTrace(graphs + (graph,), derivations + (derivation,), ops)
            for op in find_edge_ops(graph, derivation.final):
                derived = apply_op(graph, op)
                if (derived, derivation.final) in memo:
                    continue
                memo.add((derived, derivation.final))
                result = dfs(
                    derived,
                    derivation.final,
                    graphs + (graph,),
                    derivations + (derivation,),
                    ops + (op,),
                )
                if result is not None:
                    return result
        return None

    result = dfs(g, black, (), (), ())
    if result is not None:
        return result, states
    assert best is not None
    if states > budget:
        return EeoTrace(best.graphs, best.derivations, best.ops, budget_exhausted=True), states
    return best, states


def classic_derived_set(g: ColoredDigraph, black: int) -> int:
    """Derived set under the single-vertex rule, ignoring colors.

    A black vertex with exactly one white out-neighbor forces it; the
    fixpoint is independent of application order.
    """
    while True:
        forced = 0
        for v in iter_vset(black):
            white = g.out_masks[v] & ~black
            if white and white.bit_count() == 1:
                forced |= white
        if not forced:
            return black
        black |= forced


def pattern_matrix(b: ColoredBipartite, values: Sequence[complex]) -> np.ndarray:
    """Realize the pattern matrix at the given per-color values (rows = Y)."""
    s, t = b.size
    mat = np.zeros((t, s), dtype=complex)
    for xi, yi, c in b.edges:
        mat[yi, xi] = values[c]
    return mat


def sample_color_values(n_colors: int, rng: np.random.Generator) -> np.ndarray:
    """Nonzero complex samples: unit-magnitude phases times moduli in [0.5, 2]."""
    magnitudes = rng.uniform(0.5, 2.0, size=n_colors)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_colors)
    return magnitudes * np.exp(1j * phases)


def evaluate_det(p: DetPolynomial, values: Sequence[complex]) -> complex:
    """The determinant polynomial's value at the given color values."""
    if len(values) != p.n_colors:
        raise ValueError(f"expected {p.n_colors} color values, got {len(values)}")
    total: complex = 0
    for exponents, coeff in p.terms:
        term: complex = coeff
        for value, e in zip(values, exponents):
            if e:
                term *= value**e
        total += term
    return total


def find_singular_realization(
    p: DetPolynomial, rng: np.random.Generator, restarts: int = 50
) -> np.ndarray | None:
    """Search for nonzero complex color values where the determinant vanishes.

    Only meaningful when the polynomial has at least two monomials; picks a
    variable whose exponent varies between monomials, samples the rest, and
    solves the resulting univariate polynomial for a nonzero root.  Best
    effort: returns None if every restart degenerates.
    """
    if len(p.terms) < 2:
        return None
    pivot = next(
        i
        for i in range(p.n_colors)
        if len({exp[i] for exp, _ in p.terms}) > 1
    )
    max_power = max(exp[pivot] for exp, _ in p.terms)
    for _ in range(restarts):
        values = sample_color_values(p.n_colors, rng)
        coeffs = np.zeros(max_power + 1, dtype=complex)
        for exponents, coeff in p.terms:
            term: complex = coeff
            for i, e in enumerate(exponents):
                if e and i != pivot:
                    term *= values[i] ** e
            coeffs[exponents[pivot]] += term
        polynomial = np.polynomial.Polynomial(coeffs)
        if np.allclose(polynomial.coef, 0.0, atol=1e-12):
            continue
        roots = polynomial.roots()
        nonzero = [r for r in roots if abs(r) > 1e-8]
        if not nonzero:
            continue
        values[pivot] = min(nonzero, key=abs)
        scale = max(
            abs(coeff) * float(np.prod([abs(values[i]) ** e for i, e in enumerate(exp) if e] or [1.0]))
            for exp, coeff in p.terms
        )
        if abs(evaluate_det(p, values)) < 1e-7 * max(scale, 1.0):
            return values
    return None


class KalmanRank(NamedTuple):
    """Numerical rank of the controllability matrix, with its margin."""

    rank: int
    n: int
    smallest_singular: float
    threshold: float

    @property
    def controllable(self) -> bool:
        return self.rank == self.n

    @property
    def borderline(self) -> bool:
        return abs(self.smallest_singular - self.threshold) <= 10.0 * self.threshold


def kalman_rank(a: np.ndarray, leaders: Sequence[int]) -> KalmanRank:
    """Rank of [B, AB, ..., A^(n-1)B], B selecting the leaders, with an SVD
    cutoff of n*eps*sigma_max.  Reference route for the balancing test; it
    loses accuracy quickly with n, so tests use it only on small systems."""
    n = a.shape[0]
    b = np.zeros((n, len(leaders)))
    for j, v in enumerate(leaders):
        b[v, j] = 1.0
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    sigma = np.linalg.svd(np.hstack(blocks), compute_uv=False)  # n values, descending
    threshold = n * np.finfo(float).eps * sigma[0]
    return KalmanRank(int(np.sum(sigma > threshold)), n, float(sigma[-1]), threshold)


def weighted_adjacency(g: ColoredDigraph, r: Realization) -> np.ndarray:
    """W with the weight of edge (tail, head) stored at [head, tail]."""
    w = np.zeros((g.n, g.n))
    for tail, head, color in g.edges:
        w[head, tail] = r.color_values[g.colors[color]]
    return w


def sampled_diagonal(g: ColoredDigraph, seed: int) -> np.ndarray:
    """The diagonal that ``sample_realization(g, seed)`` once drew after the
    color values: entries uniform in [-1, 1], one in ten set to exactly 0.
    Replaying the same generator stream keeps the rank cross-checks on the
    same systems, bit for bit."""
    rng = np.random.default_rng(seed)
    rng.uniform(0.5, 2.0, size=len(g.colors))
    rng.choice((-1.0, 1.0), size=len(g.colors))
    diagonal = rng.uniform(-1.0, 1.0, size=g.n)
    diagonal[rng.random(g.n) < 0.1] = 0.0
    return diagonal


def forced_white(w: np.ndarray, zero_members: list[int], white_members: list[int]) -> list[int]:
    """White vertices whose coordinate vanishes on the whole solution space
    of the balance equations attached to ``zero_members``, from one SVD."""
    system = w[np.ix_(white_members, zero_members)].T  # rows: equations at zero vertices
    basis = scipy.linalg.null_space(system)
    if basis.shape[1] == 0:
        return list(white_members)
    scale = np.linalg.norm(basis)
    rows = np.linalg.norm(basis, axis=1)
    return [v for v, r in zip(white_members, rows) if r < NULLSPACE_REL_TOL * scale]


def reference_zero_extension(w: np.ndarray, zero: int) -> ZeroExtensionTrace:
    """Zero extension that solves the whole balance system from scratch
    each round.  Reference route for the production routine, which keeps
    one null basis and updates it."""
    n = w.shape[0]
    initial = zero
    steps: list[tuple[int, int]] = []
    while True:
        white_members = [v for v in range(n) if not zero >> v & 1]
        if not white_members:
            break
        forced = forced_white(w, list(iter_vset(zero)), white_members)
        if not forced:
            break
        forced_mask = vset(forced)
        steps.append((zero, forced_mask))
        zero |= forced_mask
    return ZeroExtensionTrace(initial=initial, steps=tuple(steps), final=zero)


def per_trial_zero_extension(
    w: np.ndarray, zero: int, decisions: list | None = None
) -> ZeroExtensionTrace:
    """Zero extension of one realization with one null basis, updated one
    Householder reflection per independent equation.  Reference route for
    the production routine, which runs a stack of realizations in
    lockstep.  Each rank decision, in the order the production routine
    takes it, is appended to ``decisions`` when given: ``("equation", j,
    independent)`` per admitted equation, ``("forced", mask)`` per round."""
    n = w.shape[0]
    column_norms = np.linalg.norm(w, axis=0)
    white = np.array([v for v in range(n) if not zero >> v & 1], dtype=np.intp)
    basis = np.eye(len(white))
    admit = list(iter_vset(zero))
    steps: list[tuple[int, int]] = []
    initial = zero
    while len(white):
        for j in admit:
            m = basis @ w[white, j]
            size = math.sqrt(m @ m)
            independent = bool(size > NULLSPACE_REL_TOL * column_norms[j])
            if decisions is not None:
                decisions.append(("equation", j, independent))
            if independent:
                m[0] += math.copysign(size, m[0])  # the reflection's normal
                basis = basis[1:] - (m[1:] * (2.0 / (m @ m)))[:, None] * (m @ basis)
        if len(basis):
            squares = np.einsum("ij,ij->j", basis, basis)
            forced = np.sqrt(squares) < NULLSPACE_REL_TOL * math.sqrt(squares.sum())
        else:
            forced = np.ones(len(white), dtype=bool)
        if decisions is not None:
            decisions.append(("forced", vset(white[forced].tolist())))
        if not forced.any():
            break
        admit = white[forced].tolist()
        white = white[~forced]
        basis = basis[:, ~forced]
        forced_mask = vset(admit)
        steps.append((zero, forced_mask))
        zero |= forced_mask
    return ZeroExtensionTrace(initial=initial, steps=tuple(steps), final=zero)


def per_trial_verdict(
    g: ColoredDigraph, leader_mask: int, trials: int, seed: int = 0
) -> OracleVerdict:
    """The sampled verdict, one realization at a time through the per-trial
    zero extension, stopping at the first that is not balancing."""
    for offset in range(trials):
        r = sample_realization(g, seed + offset)
        trace = per_trial_zero_extension(weighted_adjacency(g, r), leader_mask)
        if trace.final != g.full_mask:
            return OracleVerdict(
                corroborated=False, trials=trials, counterexample=r, seed_offset=offset
            )
    return OracleVerdict(corroborated=True, trials=trials)


def uncontrollable_witness(
    w: np.ndarray, leader_mask: int, rng: np.random.Generator | None = None
) -> np.ndarray | None:
    """A diagonal making (W + diag, B) uncontrollable, or None if balancing.

    When zero extension sticks at D != V, a generic null vector of the
    stuck balance system is nonzero on every white vertex; solving each
    white vertex's own balance for the diagonal entry turns that vector
    into a left eigenvector orthogonal to the input directions.
    """
    rng = rng or np.random.default_rng(0)
    n = w.shape[0]
    final = zero_extension_derived_set(w, leader_mask).final
    if final == (1 << n) - 1:
        return None
    white_members = [v for v in range(n) if not final >> v & 1]
    system = w[np.ix_(white_members, list(iter_vset(final)))].T
    basis = scipy.linalg.null_space(system).T  # orthonormal rows
    # A generic null vector is nonzero on every white vertex; prefer the
    # draw with the best min/max coordinate ratio so the solved-for
    # diagonal entries stay moderate.
    x_white = None
    best_ratio = 0.0
    for _ in range(64):
        candidate = rng.standard_normal(len(basis)) @ basis
        top = float(np.max(np.abs(candidate), initial=0.0))
        if top == 0.0:
            continue
        ratio = float(np.min(np.abs(candidate))) / top
        if ratio > best_ratio:
            best_ratio, x_white = ratio, candidate / top
    if x_white is None or best_ratio < 1e-12:
        return None  # pathological draws; the stuck set itself already proves non-balancing
    x = np.zeros(n)
    x[white_members] = x_white
    diagonal = np.zeros(n)
    for j in white_members:
        diagonal[j] = -float(x @ w[:, j]) / x[j]
    return diagonal


# One line per acceptance criterion, printed after the run so the verdicts
# are visible without -s.
ACCEPTANCE_RESULTS: list[tuple[str, bool]] = []


def record_criterion(name: str, passed: bool) -> None:
    ACCEPTANCE_RESULTS.append((name, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {name}")
