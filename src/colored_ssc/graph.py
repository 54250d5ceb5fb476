"""Immutable colored directed graph model.

A colored digraph is a simple directed graph whose edges are partitioned
into color cells; edges sharing a color are constrained to carry identical
(nonzero) weights in every realization.  Vertices are 0-based internally
and rendered 1-based in files and reports.

Vertex sets are plain ``int`` bitmasks (bit ``v`` set means vertex ``v`` is
in the set), which keeps subset enumeration and neighborhood queries cheap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

MAX_VERTICES = 62  # bitmask sets; desk-scale verification target

# Deterministic edge colorization for DOT output, cycled by color index.
_DOT_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#999999", "#66c2a5", "#fc8d62",
    "#8da0cb", "#e78ac3",
)


class GraphFormatError(ValueError):
    """Base class for colored-digraph validation failures."""


class SelfLoopError(GraphFormatError):
    pass


class DuplicateEdgeError(GraphFormatError):
    pass


class ColorOutOfRangeError(GraphFormatError):
    pass


class EmptyColorError(GraphFormatError):
    """A declared color with no edge using it."""


class BadLeaderError(GraphFormatError):
    pass


# ---------------------------------------------------------------------------
# Vertex-set helpers (bitmask ints)

def vset(vertices: Iterable[int]) -> int:
    """Bitmask for an iterable of 0-based vertex indices."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def vset_members(mask: int) -> tuple[int, ...]:
    """Sorted 0-based members of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def iter_vset(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vset_from_labels(labels: Iterable[int]) -> int:
    """Bitmask from 1-based vertex labels (the external numbering)."""
    return vset(v - 1 for v in labels)


def vset_labels(mask: int) -> tuple[int, ...]:
    """Sorted 1-based labels of a bitmask, for reports and error messages."""
    return tuple(v + 1 for v in vset_members(mask))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColoredDigraph:
    """A simple directed graph with edges partitioned into color cells.

    Attributes:
        n: vertex count; vertices are ``0..n-1``.
        edges: ``(tail, head, color)`` triples, canonically sorted by
            ``(tail, head)``.  At most one edge per ordered vertex pair.
        colors: color names; ``color`` fields index into this tuple and
            every name is used by at least one edge.
        leaders: optional sorted tuple of leader vertices.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]
    colors: tuple[str, ...]
    leaders: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VERTICES:
            raise GraphFormatError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        object.__setattr__(self, "edges", tuple(sorted(tuple(e) for e in self.edges)))
        object.__setattr__(self, "colors", tuple(self.colors))
        seen_pairs = set()
        used_colors = set()
        for tail, head, color in self.edges:
            if not (0 <= tail < self.n and 0 <= head < self.n):
                raise GraphFormatError(f"edge ({tail + 1},{head + 1}) outside vertex range")
            if tail == head:
                raise SelfLoopError(f"self-loop on vertex {tail + 1}")
            if (tail, head) in seen_pairs:
                raise DuplicateEdgeError(f"duplicate edge ({tail + 1},{head + 1})")
            seen_pairs.add((tail, head))
            if not 0 <= color < len(self.colors):
                raise ColorOutOfRangeError(
                    f"edge ({tail + 1},{head + 1}) uses color index {color + 1}, "
                    f"palette has {len(self.colors)}"
                )
            used_colors.add(color)
        for c, name in enumerate(self.colors):
            if c not in used_colors:
                raise EmptyColorError(f"color {name!r} is not used by any edge")
        if self.leaders is not None:
            leaders = tuple(sorted(self.leaders))
            object.__setattr__(self, "leaders", leaders)
            if not leaders:
                raise BadLeaderError("leader set declared but empty")
            if len(set(leaders)) != len(leaders) or any(not 0 <= v < self.n for v in leaders):
                raise BadLeaderError(f"bad leader set {tuple(v + 1 for v in leaders)}")

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for tail, head, _ in self.edges:
            masks[tail] |= 1 << head
        return tuple(masks)

    @cached_property
    def edge_color(self) -> dict[tuple[int, int], int]:
        return {(t, h): c for t, h, c in self.edges}

    @cached_property
    def out_edges(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, its ``(head, color)`` pairs in head order."""
        fans: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for tail, head, color in self.edges:
            fans[tail].append((head, color))
        return tuple(map(tuple, fans))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def leader_mask(self) -> int:
        return vset(self.leaders) if self.leaders else 0


def out_neighbors(g: ColoredDigraph, v: int) -> int:
    """All out-neighbors of ``v`` as a bitmask."""
    if not 0 <= v < g.n:
        raise GraphFormatError(f"vertex {v + 1} outside range")
    return g.out_masks[v]


def white_out_neighbors(g: ColoredDigraph, source: int, black: int) -> int:
    """Out-neighbors of the vertex set ``source`` that lie outside ``black``.

    ``source`` must be a subset of the black set.
    """
    if source & ~black:
        raise ValueError("source set must be contained in the black set")
    mask = 0
    for v in iter_vset(source):
        mask |= g.out_masks[v]
    return mask & ~black & g.full_mask


def induced_bipartite(g: ColoredDigraph, source: int, black: int):
    """Colored bipartite slice between ``source`` and its white out-neighbors.

    The X side is ``source``, the Y side is ``white_out_neighbors(g, source,
    black)``; colors are renumbered to the cells actually present, with
    ``color_map`` pointing back at the graph's global color indices.
    """
    from .bipartite import ColoredBipartite

    x_vertices = vset_members(source)
    y_vertices = vset_members(white_out_neighbors(g, source, black))
    x_index = {v: i for i, v in enumerate(x_vertices)}
    y_index = {v: i for i, v in enumerate(y_vertices)}
    raw = [
        (x_index[t], y_index[h], c)
        for t, h, c in g.edges
        if t in x_index and h in y_index
    ]
    present = sorted({c for _, _, c in raw})
    local = {c: i for i, c in enumerate(present)}
    return ColoredBipartite(
        x_vertices=tuple(x_vertices),
        y_vertices=tuple(y_vertices),
        edges=tuple(sorted((xi, yi, local[c]) for xi, yi, c in raw)),
        colors=tuple(g.colors[c] for c in present),
        color_map=tuple(present),
    )


def slice_key(g: ColoredDigraph, source: int, target: int) -> tuple[tuple[int, ...], ...]:
    """The colored slice from ``source`` into ``target``, as the key that
    :func:`colored_ssc.bipartite.slice_signature` tests.

    One row per source vertex in vertex order, holding flat ``(column,
    color)`` pairs in column order: the column is the head's position
    within ``target``, and colors are renumbered by first appearance.  It
    equals ``induced_bipartite(g, source, black).slice_key()`` when
    ``target`` is the white out-neighbor set of ``source`` at ``black``.
    """
    relabel: dict[int, int] = {}
    rows = []
    for v in iter_vset(source):
        row: list[int] = []
        for head, color in g.out_edges[v]:
            if target >> head & 1:
                row.append((target & ((1 << head) - 1)).bit_count())
                row.append(relabel.setdefault(color, len(relabel)))
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# File format: JSON with 1-based vertices and color indices.

def validate(description: Mapping | str) -> ColoredDigraph:
    """Build a validated graph from a parsed JSON description (or JSON text).

    Expected shape::

        {"n": 6, "colors": ["c1", "c2"],
         "edges": [[tail, head, color], ...],   # all 1-based
         "leaders": [1, 2]}                      # optional
    """
    if isinstance(description, str):
        description = json.loads(description)
    if not isinstance(description, Mapping):
        raise GraphFormatError("graph description is not a JSON object")
    n = _field(description, "n", _integer)
    colors = _field(description, "colors", lambda raw: tuple(str(c) for c in raw))
    edges = _field(description, "edges", lambda raw: tuple(_edge(entry) for entry in raw))
    leaders = None
    if description.get("leaders") is not None:
        leaders = _field(description, "leaders", lambda raw: tuple(_integer(v) - 1 for v in raw))
    return ColoredDigraph(n=n, edges=edges, colors=colors, leaders=leaders)


def _field(description: Mapping, name: str, parse):
    """``parse(description[name])``, naming the field in any failure."""
    try:
        return parse(description[name])
    except KeyError:
        raise GraphFormatError(f"missing field {name!r}") from None
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed field {name!r}: {exc}") from exc


def _edge(entry) -> tuple[int, int, int]:
    if len(entry) != 3:
        raise GraphFormatError(f"edge entry {entry!r} is not [tail, head, color]")
    tail, head, color = (_integer(x) for x in entry)
    return tail - 1, head - 1, color - 1


def _integer(value) -> int:
    """``int(value)``, refusing a fractional number rather than truncating it."""
    number = int(value)
    if isinstance(value, float) and number != value:
        raise GraphFormatError(f"{value!r} is not an integer")
    return number


def serialize(g: ColoredDigraph) -> dict:
    """External-form dict (1-based), the inverse of :func:`validate`."""
    out: dict = {
        "n": g.n,
        "colors": list(g.colors),
        "edges": [[t + 1, h + 1, c + 1] for t, h, c in g.edges],
    }
    if g.leaders is not None:
        out["leaders"] = [v + 1 for v in g.leaders]
    return out


def dumps(g: ColoredDigraph) -> str:
    return json.dumps(serialize(g), indent=2) + "\n"


def load_graph(path) -> ColoredDigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return validate(json.load(fh))


def to_dot(g: ColoredDigraph) -> str:
    """Deterministic DOT rendering: leaders filled, edges colored by cell."""
    lines = ["digraph colored_network {", "  rankdir=LR;", "  node [shape=circle];"]
    leader_mask = g.leader_mask
    for v in range(g.n):
        attrs = ' [style=filled fillcolor="gray80"]' if leader_mask >> v & 1 else ""
        lines.append(f"  {v + 1}{attrs};")
    for tail, head, color in g.edges:
        hexcolor = _DOT_PALETTE[color % len(_DOT_PALETTE)]
        lines.append(
            f'  {tail + 1} -> {head + 1} [label="{g.colors[color]}" color="{hexcolor}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
