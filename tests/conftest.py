"""Shared helpers: label conversions, corpus access, random generators,
and the reference routes the production code is checked against (all-subsets
force enumeration, matching classes, the determinant without peeling, the
classic forcing rule, the edge-operation search memoized on exact states,
numeric realizations of slice patterns, the Kalman rank test, zero extension
solved from scratch each round)."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import pytest
import scipy.linalg

from colored_ssc import (
    ColoredDigraph,
    DetPolynomial,
    Force,
    ZeroExtensionTrace,
    enumerate_matchings,
    equivalence_classes,
    is_color_perfect,
    vset,
    vset_from_labels,
    vset_labels,
    vset_members,
    white_out_neighbors,
)
from colored_ssc.bipartite import ColoredBipartite
from colored_ssc.corpus import load as load_fig
from colored_ssc.edgeops import EeoTrace, apply_op, find_edge_ops
from colored_ssc.forcing import derivation_outcomes
from colored_ssc.graph import iter_vset
from colored_ssc.oracle import NULLSPACE_REL_TOL


def labels(*vertices: int) -> int:
    """Bitmask from 1-based vertex labels."""
    return vset_from_labels(vertices)


def members1(mask: int) -> tuple[int, ...]:
    return vset_labels(mask)


@pytest.fixture
def fig():
    return load_fig


# Malformed graph-file fields that validate must refuse with GraphFormatError:
# a non-list, a non-integer, and a fractional label int() would truncate.
MALFORMED_FIELDS = (
    {"edges": 5},
    {"edges": [5]},
    {"leaders": 5},
    {"leaders": [1, None]},
    {"edges": [[1.7, 2, 1]]},
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
        color_map=tuple(range(n_colors)),
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


def reference_symbolic_det(b: ColoredBipartite) -> DetPolynomial:
    """The determinant by subset dynamic programming over every row, with
    no peeling: the route the production determinant is checked against.

    Each state maps the set of Y columns used so far to the polynomial
    summed over all partial assignments that use them; assigning row x to
    column y flips the sign once per column above y taken earlier.
    """
    t = len(b.x_vertices)
    assert t == len(b.y_vertices)
    n_colors = len(b.colors)
    width = t.bit_length()
    row_edges: list[list[tuple[int, int]]] = [[] for _ in range(t)]
    for xi, yi, c in b.edges:
        row_edges[xi].append((yi, 1 << width * c))
    layer: dict[int, dict[int, int]] = {0: {0: 1}}
    for edges in row_edges:
        nxt: dict[int, dict[int, int]] = {}
        for used, poly in layer.items():
            for yi, step in edges:
                if used >> yi & 1:
                    continue
                sign = -1 if (used >> yi).bit_count() & 1 else 1
                acc = nxt.setdefault(used | 1 << yi, {})
                for key, coeff in poly.items():
                    acc[key + step] = acc.get(key + step, 0) + sign * coeff
        layer = {}
        for used, poly in nxt.items():
            poly = {key: coeff for key, coeff in poly.items() if coeff}
            if poly:
                layer[used] = poly
    field = (1 << width) - 1
    terms = sorted(
        (tuple(key >> width * c & field for c in range(n_colors)), coeff)
        for poly in layer.values()
        for key, coeff in poly.items()
    )
    return DetPolynomial(n_colors=n_colors, terms=tuple(terms))


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
        if abs(p.evaluate(values)) < 1e-7 * max(scale, 1.0):
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
