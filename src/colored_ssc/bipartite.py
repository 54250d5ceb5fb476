"""Exact combinatorics on colored bipartite graphs.

Everything here is exact integer work.  The production route is the
symbolic determinant of the pattern matrix, kept as an integer-coefficient
monomial map and expanded by subset dynamic programming over the rows.  A
pattern is nonsingular iff that polynomial is a single monomial (one that
survives alone cannot vanish at nonzero values, while two or more always
admit a nonzero complex root), and its coefficient is the certifying class
signature.  Perfect matchings with permutation signs, grouped into
equal-spectrum classes, are the independent route to the same facts: each
class is one monomial and its signature is that monomial's coefficient.
The ``bipartite`` command prints them, and the tests check the determinant
against them.

The verdict is cached on a slice key (:data:`SliceKey`): per X row in
order, the Y positions and the colors renumbered by first appearance.
Vertex ids and color names do not enter it, and renumbering colors changes
neither the number of terms nor their coefficients.  The force search
builds the key straight from the graph (``graph.slice_key``), and
:meth:`ColoredBipartite.slice_key` builds the same key from a slice object,
so there is one cache and one engine.
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
# Perfect matchings one listing may hold: a complete 8 x 8 slice has 8! =
# 40,320, a complete 9 x 9 one nine times as many.
MATCHING_CAP = 1 << 16

# One row per X vertex, in order: flat (column, color) pairs in column order,
# colors renumbered by first appearance.
SliceKey = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ColoredBipartite:
    """Bipartite graph between an X side and a Y side with colored edges.

    ``edges`` holds ``(x_index, y_index, color)`` triples with local color
    indices into ``colors``.
    """

    x_vertices: tuple[int, ...]
    y_vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    colors: tuple[str, ...]

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

    def slice_key(self) -> SliceKey:
        """Per x, flat ``(y, color)`` pairs in y order, colors renumbered
        by first appearance: the key :func:`slice_signature` is cached on."""
        relabel: dict[int, int] = {}
        rows: list[list[int]] = [[] for _ in self.x_vertices]
        for xi, yi, c in self.edges:
            rows[xi] += (yi, relabel.setdefault(c, len(relabel)))
        return tuple(map(tuple, rows))


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
    branches early.  The listing is refused with :class:`EnumerationCapError`
    once it would pass ``MATCHING_CAP`` matchings.
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
            if len(out) == MATCHING_CAP:
                raise EnumerationCapError(
                    f"matching enumeration capped at {MATCHING_CAP} perfect matchings"
                )
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


def _det_terms(rows: Sequence[Sequence[int]]) -> tuple[int, dict[int, int]]:
    """Determinant of a square pattern given as rows of flat ``(column,
    color)`` pairs in column order: ``(width, terms)``, each term an
    exponent vector packed ``width`` bits per color, mapped to its nonzero
    coefficient.

    Subset dynamic programming over the rows in index order: each state
    maps the set of columns used so far to the polynomial summed over all
    partial assignments that use them.  Assigning a row to column y passes
    over the columns above y that earlier rows took, one inversion each, so
    the sign flips when their count is odd.  Zero coefficients are dropped
    at every layer, and an empty layer makes the determinant zero.  That is
    O(2^t * t) polynomial steps for side t, where a row expansion takes t!.
    """
    width = len(rows).bit_length()  # the degree is t, so no exponent exceeds t
    layer: dict[int, dict[int, int]] = {0: {0: 1}}
    for row in rows:
        edges = [(j, 1 << width * c) for j, c in zip(row[::2], row[1::2])]
        nxt: dict[int, dict[int, int]] = {}
        for used, poly in layer.items():
            for yi, step in edges:
                if used >> yi & 1:
                    continue
                flip = -1 if (used >> yi).bit_count() & 1 else 1
                acc = nxt.setdefault(used | 1 << yi, {})
                for key, coeff in poly.items():
                    acc[key + step] = acc.get(key + step, 0) + flip * coeff
        layer = {}
        for used, poly in nxt.items():
            poly = {key: coeff for key, coeff in poly.items() if coeff}
            if poly:
                layer[used] = poly
        if not layer:
            return width, {}
    (terms,) = layer.values()
    return width, terms


def symbolic_det(b: ColoredBipartite) -> DetPolynomial:
    """Determinant of the pattern matrix, expanded over the color variables
    (see :func:`_det_terms`)."""
    t = _square_size(b, "symbolic determinant")
    rows: list[list[int]] = [[] for _ in range(t)]
    for xi, yi, c in b.edges:
        rows[xi] += (yi, c)
    width, packed = _det_terms(rows)
    field = (1 << width) - 1
    terms = sorted(
        (tuple(key >> width * c & field for c in range(len(b.colors))), coeff)
        for key, coeff in packed.items()
    )
    return DetPolynomial(n_colors=len(b.colors), terms=tuple(terms))


@lru_cache(maxsize=1 << 16)
def slice_signature(key: SliceKey) -> int | None:
    """The determinant's coefficient when it is a single monomial, else None
    (stored coefficients are never zero), for a slice given by its key.

    Renumbering colors changes neither the number of terms nor their
    coefficients, and the key keeps the row and column order, so equal keys
    have equal answers whatever vertices and color names they came from.
    """
    if len(key) > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"symbolic determinant capped at {ENUMERATION_CAP}, got {len(key)}"
        )
    _, terms = _det_terms(key)
    return next(iter(terms.values())) if len(terms) == 1 else None


def certifying_signature(b: ColoredBipartite) -> int | None:
    """The unique nonzero class signature (the determinant's only
    coefficient), or None when not nonsingular."""
    _square_size(b, "symbolic determinant")
    return slice_signature(b.slice_key())
