"""Exact combinatorics on colored bipartite graphs.

Everything here is exact integer work.  The production route is the
symbolic determinant of the pattern matrix, kept as an integer-coefficient
monomial map and computed by subset dynamic programming: a pattern is
nonsingular iff that polynomial is a single monomial (one that survives
alone cannot vanish at nonzero values, while two or more always admit a
nonzero complex root), and its coefficient is the certifying class
signature.  Perfect matchings with permutation signs, grouped into
equal-spectrum classes, are the independent route to the same facts: each
class is one monomial and its signature is that monomial's coefficient.
The ``bipartite`` command prints them, and the tests check the determinant
against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence


class SizeMismatchError(ValueError):
    """X and Y sides differ in size where a square slice is required."""


class EnumerationCapError(RuntimeError):
    """Exact slice work refused beyond the desk-scale size cap."""


ENUMERATION_CAP = 12


@dataclass(frozen=True)
class ColoredBipartite:
    """Bipartite graph between an X side and a Y side with colored edges.

    ``edges`` holds ``(x_index, y_index, color)`` triples with local color
    indices; ``color_map`` maps each local color back to the global color
    index of the parent graph (identity for standalone graphs).
    """

    x_vertices: tuple[int, ...]
    y_vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    colors: tuple[str, ...]
    color_map: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(sorted(tuple(e) for e in self.edges)))
        pairs = set()
        for xi, yi, c in self.edges:
            if not (0 <= xi < len(self.x_vertices) and 0 <= yi < len(self.y_vertices)):
                raise ValueError(f"edge ({xi},{yi}) outside vertex ranges")
            if (xi, yi) in pairs:
                raise ValueError(f"duplicate edge ({xi},{yi})")
            pairs.add((xi, yi))
            if not 0 <= c < len(self.colors):
                raise ValueError(f"edge ({xi},{yi}) uses unknown color {c}")

    @property
    def size(self) -> tuple[int, int]:
        return len(self.x_vertices), len(self.y_vertices)

    def adjacency(self) -> tuple[int, ...]:
        """Per-x bitmask of compatible y indices."""
        masks = [0] * len(self.x_vertices)
        for xi, yi, _ in self.edges:
            masks[xi] |= 1 << yi
        return tuple(masks)

    def color_lookup(self) -> dict[tuple[int, int], int]:
        return {(xi, yi): c for xi, yi, c in self.edges}


@dataclass(frozen=True)
class Matching:
    """A perfect matching, its permutation sign, and its color spectrum.

    ``assignment[i]`` is the y index matched to x index ``i``; ``spectrum``
    counts how often each local color occurs among the matched edges.
    """

    assignment: tuple[int, ...]
    sign: int
    spectrum: tuple[int, ...]


@dataclass(frozen=True)
class MatchingClass:
    """All matchings sharing one spectrum; signature is the sum of signs."""

    spectrum: tuple[int, ...]
    signature: int
    members: int


@dataclass(frozen=True)
class DetPolynomial:
    """Integer polynomial in the color variables, keyed by exponent vector.

    Zero coefficients are never stored, so the zero polynomial has no
    terms and a nonsingularity certificate is exactly one stored term.
    """

    n_colors: int
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def term_map(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, values: Sequence[complex]) -> complex:
        if len(values) != self.n_colors:
            raise ValueError(f"expected {self.n_colors} color values, got {len(values)}")
        total: complex = 0
        for exponents, coeff in self.terms:
            term: complex = coeff
            for value, e in zip(values, exponents):
                if e:
                    term *= value**e
            total += term
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exponents, coeff in sorted(self.terms):
            vars_part = "*".join(
                f"c{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exponents)
                if e
            )
            parts.append(f"{coeff:+d}*{vars_part}" if vars_part else f"{coeff:+d}")
        return " ".join(parts)


def _permutation_sign(assignment: Sequence[int]) -> int:
    inversions = sum(
        1
        for i in range(len(assignment))
        for j in range(i + 1, len(assignment))
        if assignment[i] > assignment[j]
    )
    return -1 if inversions % 2 else 1


def _square_size(b: ColoredBipartite, work: str) -> int:
    """Side size of a square slice within ``ENUMERATION_CAP``."""
    s, t = b.size
    if s != t:
        raise SizeMismatchError(f"|X|={s} but |Y|={t}")
    if t > ENUMERATION_CAP:
        raise EnumerationCapError(f"{work} capped at {ENUMERATION_CAP}, got {t}")
    return t


def enumerate_matchings(b: ColoredBipartite) -> tuple[Matching, ...]:
    """All perfect matchings, in lexicographic order of their assignment.

    Depth-first over the X side in index order; a cheap Hall check (the
    union of remaining candidate y's must be large enough) prunes dead
    branches early.
    """
    t = _square_size(b, "matching enumeration")
    adjacency = b.adjacency()
    colors = b.color_lookup()
    n_colors = len(b.colors)
    out: list[Matching] = []
    assignment: list[int] = []

    def feasible(i: int, avail: int) -> bool:
        union = 0
        for j in range(i, t):
            union |= adjacency[j] & avail
        return union.bit_count() >= t - i

    def extend(i: int, avail: int) -> None:
        if i == t:
            spectrum = [0] * n_colors
            for xi, yi in enumerate(assignment):
                spectrum[colors[(xi, yi)]] += 1
            out.append(
                Matching(tuple(assignment), _permutation_sign(assignment), tuple(spectrum))
            )
            return
        if not feasible(i, avail):
            return
        choices = adjacency[i] & avail
        while choices:
            low = choices & -choices
            yi = low.bit_length() - 1
            choices ^= low
            assignment.append(yi)
            extend(i + 1, avail ^ low)
            assignment.pop()

    extend(0, (1 << t) - 1)
    return tuple(out)


def equivalence_classes(matchings: Sequence[Matching]) -> tuple[MatchingClass, ...]:
    """Group matchings by spectrum, in order of first appearance."""
    order: list[tuple[int, ...]] = []
    signatures: dict[tuple[int, ...], int] = {}
    members: dict[tuple[int, ...], int] = {}
    for m in matchings:
        if m.spectrum not in signatures:
            order.append(m.spectrum)
            signatures[m.spectrum] = 0
            members[m.spectrum] = 0
        signatures[m.spectrum] += m.sign
        members[m.spectrum] += 1
    return tuple(
        MatchingClass(spec, signatures[spec], members[spec]) for spec in order
    )


def symbolic_det(b: ColoredBipartite) -> DetPolynomial:
    """Determinant of the pattern matrix, expanded over the color variables.

    Subset dynamic programming over the X rows in index order: each state
    maps the set of Y columns used so far to the polynomial summed over all
    partial assignments that use them.  Assigning row x to column y passes
    over the columns above y that earlier rows took, one inversion each, so
    the sign flips when their count is odd.  Exponent vectors are packed
    into one integer (``width`` bits per color, enough for degree ``t``)
    while the DP runs, and zero coefficients are dropped at every layer.
    That is O(2^t * t) polynomial steps, where a row expansion takes t!.
    """
    t = _square_size(b, "symbolic determinant")
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


@lru_cache(maxsize=1 << 16)
def _nonsingularity(b: ColoredBipartite) -> int | None:
    """The determinant's coefficient when it is a single monomial, else None
    (stored coefficients are never zero)."""
    terms = symbolic_det(b).terms
    return terms[0][1] if len(terms) == 1 else None


def pattern_nonsingular(b: ColoredBipartite) -> bool:
    """Whether every matrix with this colored zero pattern is nonsingular.

    True iff the symbolic determinant is a single monomial, that is, iff
    exactly one equal-spectrum class of perfect matchings has a nonzero
    signature.
    """
    return _nonsingularity(b) is not None


def certifying_signature(b: ColoredBipartite) -> int | None:
    """The unique nonzero class signature (the determinant's only
    coefficient), or None when not nonsingular."""
    return _nonsingularity(b)
