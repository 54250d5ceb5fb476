"""Matchings, classes, signatures, and the symbolic determinant."""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from colored_ssc.bipartite import (
    EnumerationCapError,
    SizeMismatchError,
    certifying_signature,
    enumerate_matchings,
    equivalence_classes,
    symbolic_det,
)
from colored_ssc.corpus import load as load_fig
from colored_ssc.graph import induced_bipartite

from conftest import (
    class_term_map,
    evaluate_det,
    find_singular_realization,
    labels,
    pattern_matrix,
    random_bipartite,
    sample_color_values,
    standalone_bipartite,
)


@pytest.fixture
def fig3_slice():
    g = load_fig("fig3")
    return induced_bipartite(g, labels(1, 2, 3), labels(1, 2, 3))


class TestEnumerate:
    def test_fig3_matchings(self, fig3_slice):
        ms = enumerate_matchings(fig3_slice)
        assert [m.assignment for m in ms] == [(0, 1, 2), (1, 0, 2), (2, 1, 0)]
        assert [m.sign for m in ms] == [1, -1, -1]

    def test_single_edge(self):
        b = standalone_bipartite(1, [(0, 0, 0)], 1)
        (m,) = enumerate_matchings(b)
        assert m.sign == 1 and m.spectrum == (1,)

    def test_complete_4x4_distinct_colors(self):
        # oracle: direct permutation enumeration
        edges = [(x, y, 4 * x + y) for x in range(4) for y in range(4)]
        b = standalone_bipartite(4, edges, 16)
        ms = enumerate_matchings(b)
        assert len(ms) == len(list(permutations(range(4)))) == 24
        assert sum(m.sign for m in ms) == 0

    def test_size_mismatch(self):
        b = standalone_bipartite(2, [(0, 0, 0), (1, 1, 0)], 1)
        lopsided = type(b)(
            x_vertices=b.x_vertices,
            y_vertices=b.y_vertices + (99,),
            edges=b.edges,
            colors=b.colors,
        )
        with pytest.raises(SizeMismatchError):
            enumerate_matchings(lopsided)

    def test_enumeration_cap(self):
        t = 13
        b = standalone_bipartite(t, [(i, i, 0) for i in range(t)], 1)
        with pytest.raises(EnumerationCapError):
            enumerate_matchings(b)


class TestClasses:
    def test_fig3_classes(self, fig3_slice):
        classes = equivalence_classes(enumerate_matchings(fig3_slice))
        assert [(c.members, c.signature) for c in classes] == [(2, 0), (1, -1)]

    def test_empty(self):
        assert equivalence_classes([]) == ()

    def test_fig4_second_step(self):
        g = load_fig("fig4")
        b = induced_bipartite(g, labels(4, 5, 6), labels(1, 2, 3, 4, 5, 6))
        classes = equivalence_classes(enumerate_matchings(b))
        assert [(c.members, c.signature) for c in classes] == [(2, 2)]

    def test_signatures_consistent_with_signs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            b = random_bipartite(rng)
            ms = enumerate_matchings(b)
            classes = equivalence_classes(ms)
            assert sum(c.members for c in classes) == len(ms)
            for c in classes:
                assert c.signature == sum(m.sign for m in ms if m.spectrum == c.spectrum)
                assert abs(c.signature) <= c.members


class TestNonsingular:
    def test_fig3_true(self, fig3_slice):
        assert certifying_signature(fig3_slice) is not None

    def test_no_matching_false(self):
        b = standalone_bipartite(2, [(0, 0, 0), (1, 0, 0)], 1)
        assert certifying_signature(b) is None

    def test_cancelling_signs_false(self):
        b = standalone_bipartite(2, [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)], 1)
        assert certifying_signature(b) is None


class TestSymbolicDet:
    def test_fig3_polynomial(self, fig3_slice):
        det = symbolic_det(fig3_slice)
        assert det.term_map == {(0, 2, 1): -1}

    def test_single_edge(self):
        det = symbolic_det(standalone_bipartite(1, [(0, 0, 0)], 1))
        assert det.term_map == {(1,): 1}

    def test_no_matching_zero(self):
        det = symbolic_det(standalone_bipartite(2, [(0, 0, 0), (1, 0, 0)], 1))
        assert det.is_zero()

    def test_enumeration_cap(self):
        t = 13
        b = standalone_bipartite(t, [(i, i, 0) for i in range(t)], 1)
        with pytest.raises(EnumerationCapError):
            symbolic_det(b)

    def test_monomial_degree_is_side_size(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            b = random_bipartite(rng)
            det = symbolic_det(b)
            for exponents, coeff in det.terms:
                assert coeff != 0
                assert sum(exponents) == len(b.x_vertices)


class TestPolynomialVerdict:
    """The verdict and the signature are read off the symbolic determinant."""

    def test_single_monomial(self, fig3_slice):
        ((_, coeff),) = symbolic_det(fig3_slice).terms
        assert certifying_signature(fig3_slice) == coeff == -1

    def test_zero_polynomial(self):
        b = standalone_bipartite(2, [(0, 0, 0), (1, 0, 0)], 1)
        assert symbolic_det(b).is_zero()
        assert certifying_signature(b) is None

    def test_difference_of_squares(self):
        # [[c1, c2], [c2, c1]] has determinant c1^2 - c2^2
        b = standalone_bipartite(2, [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)], 2)
        p = symbolic_det(b)
        assert p.term_map == {(2, 0): 1, (0, 2): -1}
        assert certifying_signature(b) is None
        assert evaluate_det(p, [1.0, 1.0]) == 0


class TestAgainstRealizations:
    def test_two_routes_agree_and_dets_match(self):
        rng = np.random.default_rng(101)
        for _ in range(150):
            b = random_bipartite(rng, t_max=7, max_colors=4)
            det = symbolic_det(b)
            assert det.term_map == class_term_map(b)
            single = det.terms[0][1] if len(det.terms) == 1 else None
            assert certifying_signature(b) == single
            values = sample_color_values(len(b.colors), rng)
            direct = np.linalg.det(pattern_matrix(b, values))
            via_poly = evaluate_det(det, list(values))
            assert abs(direct - via_poly) <= 1e-9 * max(1.0, abs(direct), abs(via_poly))

    def test_nonsingular_patterns_never_vanish(self):
        rng = np.random.default_rng(33)
        found = 0
        while found < 12:
            b = random_bipartite(rng)
            if certifying_signature(b) is None:
                continue
            found += 1
            t = len(b.x_vertices)
            for _ in range(200):
                values = sample_color_values(len(b.colors), rng)
                assert abs(np.linalg.det(pattern_matrix(b, values))) > 1e-9 * (0.5**t)

    def test_singular_patterns_are_falsified(self):
        rng = np.random.default_rng(44)
        found = 0
        while found < 12:
            b = random_bipartite(rng)
            det = symbolic_det(b)
            if certifying_signature(b) is not None or det.is_zero():
                continue
            found += 1
            values = find_singular_realization(det, rng)
            assert values is not None
            assert np.all(np.abs(values) > 1e-8)
            scale = max(1.0, float(np.max(np.abs(values))) ** len(b.x_vertices))
            assert abs(np.linalg.det(pattern_matrix(b, values))) < 1e-6 * scale


def _peel_heavy(rng: np.random.Generator, t: int, k: int):
    """A permutation pattern plus a few extra cells: mostly rows and columns
    with one entry."""
    cells = {(x, int(y)) for x, y in enumerate(rng.permutation(t))}
    cells |= {(x, y) for x in range(t) for y in range(t) if rng.random() < 0.12}
    return standalone_bipartite(t, [(x, y, int(rng.integers(0, k))) for x, y in sorted(cells)], k)


class TestPeeling:
    """Patterns that expanding along rows and columns with one entry would
    collapse; the subset DP runs over every row, and the matching classes
    are the reference."""

    def test_triangular_is_the_diagonal(self):
        # upper triangular with colors c1, c2, c3 on the diagonal
        edges = [(x, y, x if x == y else 3) for x in range(3) for y in range(x, 3)]
        det = symbolic_det(standalone_bipartite(3, edges, 4))
        assert det.term_map == {(1, 1, 1, 0): 1}

    def test_full_triangular_at_the_cap(self):
        # every cell on and above the diagonal, 12 wide, 3 colors, with
        # x % 3 on the diagonal: only the identity matches, so the
        # determinant is the diagonal's product c1^4 * c2^4 * c3^4
        t = 12
        edges = [
            (x, y, x % 3 if x == y else (x + y) % 3) for x in range(t) for y in range(x, t)
        ]
        b = standalone_bipartite(t, edges, 3)
        assert symbolic_det(b).term_map == {(4, 4, 4): 1}
        assert certifying_signature(b) == 1

    def test_sign_of_a_peeled_entry(self):
        # [[0, c1], [c2, c3]]: the one-entry row 0 sits at column 1, sign (-1)^(0+1)
        det = symbolic_det(standalone_bipartite(2, [(0, 1, 0), (1, 0, 1), (1, 1, 2)], 3))
        assert det.term_map == {(1, 1, 0): -1}

    def test_peeling_empties_a_row(self):
        # column 0 has one entry, in row 0, which leaves rows 1 and 2 on column 2 alone
        edges = [(0, 0, 0), (0, 1, 0), (1, 2, 0), (2, 2, 0)]
        assert symbolic_det(standalone_bipartite(3, edges, 1)).is_zero()

    @pytest.mark.parametrize("dense", [False, True], ids=["peel-heavy", "dense"])
    def test_matches_matching_classes(self, dense):
        rng = np.random.default_rng(61 + dense)
        for _ in range(25 if dense else 200):
            # at most 8! matchings to list in the dense case
            t = int(rng.integers(1, 9 if dense else 11))
            k = int(rng.integers(1, 4))
            if dense:
                b = standalone_bipartite(
                    t,
                    [(x, y, int(rng.integers(0, k))) for x in range(t) for y in range(t)
                     if rng.random() < 0.7],
                    k,
                )
            else:
                b = _peel_heavy(rng, t, k)
            det = symbolic_det(b)
            assert det.term_map == class_term_map(b)
            single = det.terms[0][1] if len(det.terms) == 1 else None
            assert certifying_signature(b) == single
