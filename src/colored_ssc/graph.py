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
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping

from .bipartite import ColoredBipartite

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


class DuplicateColorError(GraphFormatError):
    """A color name declared twice."""


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
    return tuple(iter_vset(mask))


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
        if len(set(self.colors)) != len(self.colors):
            repeated = sorted({name for name in self.colors if self.colors.count(name) > 1})
            raise DuplicateColorError(f"color names declared more than once: {repeated}")
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

    @classmethod
    def unchecked(
        cls,
        n: int,
        edges: tuple[tuple[int, int, int], ...],
        colors: tuple[str, ...],
        leaders: tuple[int, ...] | None,
        out_masks: tuple[int, ...] | None = None,
        out_edges: tuple[tuple[tuple[int, int], ...], ...] | None = None,
    ) -> ColoredDigraph:
        """A graph from fields already in the form ``__post_init__`` checks
        and leaves (edges sorted tuples, every color used, names distinct,
        leaders sorted), built without checking them again.  ``out_masks``
        and ``out_edges``, when given, must be what those properties would
        compute from ``edges``; they are cached as they are."""
        g = object.__new__(cls)
        for name, value in (("n", n), ("edges", edges), ("colors", colors), ("leaders", leaders)):
            object.__setattr__(g, name, value)
        for name, value in (("out_masks", out_masks), ("out_edges", out_edges)):
            if value is not None:
                object.__setattr__(g, name, value)
        return g

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for tail, head, _ in self.edges:
            masks[tail] |= 1 << head
        return tuple(masks)

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


def induced_bipartite(g: ColoredDigraph, source: int, black: int) -> ColoredBipartite:
    """Colored bipartite slice between ``source`` and its white out-neighbors.

    The X side is ``source``, the Y side is ``white_out_neighbors(g, source,
    black)``; colors are renumbered to the cells actually present.
    """
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
        try:
            description = json.loads(description)
        except RecursionError:
            raise GraphFormatError("JSON nested too deeply to parse") from None
    if not isinstance(description, Mapping):
        raise GraphFormatError("graph description is not a JSON object")
    n = _field(description, "n", _integer)
    colors = _field(description, "colors", lambda raw: tuple(map(_name, _array(raw))))
    edges = _field(description, "edges", lambda raw: tuple(_edge(entry) for entry in _array(raw)))
    leaders = None
    if description.get("leaders") is not None:
        leaders = _field(
            description, "leaders", lambda raw: tuple(_integer(v) - 1 for v in _array(raw))
        )
    return ColoredDigraph(n=n, edges=edges, colors=colors, leaders=leaders)


def _field(description: Mapping, name: str, parse):
    """``parse(description[name])``, naming the field in any failure."""
    try:
        return parse(description[name])
    except KeyError:
        raise GraphFormatError(f"missing field {name!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise GraphFormatError(f"malformed field {name!r}: {exc}") from exc


def _edge(entry) -> tuple[int, int, int]:
    if len(entry) != 3:
        raise GraphFormatError(f"edge entry {entry!r} is not [tail, head, color]")
    tail, head, color = entry
    # Plain ints, the common case, need no check; bools, floats, strings
    # and entries that are not arrays do.
    if not type(tail) is type(head) is type(color) is int:
        tail, head, color = map(_integer, _array(entry))
    return tail - 1, head - 1, color - 1


def _array(raw) -> list | tuple:
    """``raw``, refusing anything but an array: a string or an object
    would otherwise be iterated as one."""
    if not isinstance(raw, (list, tuple)):
        raise TypeError(f"expected an array, got {type(raw).__name__}")
    return raw


def _name(raw) -> str:
    if not isinstance(raw, str):
        raise TypeError(f"color names are strings, got {type(raw).__name__}")
    return raw


def _integer(value) -> int:
    """``int(value)``, refusing a boolean or a fractional number rather than
    reading it as 0 or 1 or truncating it."""
    number = int(value)
    if isinstance(value, bool) or isinstance(value, float) and number != value:
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
    return json_text(serialize(g)) + "\n"


def json_text(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``, written faster.

    With an indent, ``json`` leaves its C encoder for a pure-Python one that
    makes a generator call per value; this writer joins whole lists of plain
    ints at once, and fills one ``%d`` template for a list of equally long
    int rows (the edges).  It takes exactly the types the reports hold:
    ``dict`` with ``str`` keys, ``list``, ``tuple``, ``str``, ``int``,
    ``float``, ``bool`` and ``None``; a value of any other type, subclasses
    included, raises ``TypeError``.
    """
    return _json_text(obj, "\n")


def _json_text(obj, newline: str) -> str:
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return str(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is float:
        return json.dumps(obj)  # NaN and Infinity spelled as json spells them
    if kind is not dict and kind is not list and kind is not tuple:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not obj:
        return "{}" if kind is dict else "[]"
    inner = newline + "  "
    sep = "," + inner
    if kind is dict:
        # a key that is not a str makes encode_basestring_ascii raise TypeError
        body = sep.join([
            encode_basestring_ascii(key) + ": " + _json_text(value, inner)
            for key, value in obj.items()
        ])
        return "{" + inner + body + newline + "}"
    kinds = set(map(type, obj))
    if kinds == {int}:
        body = sep.join(map(str, obj))
    else:
        body = _int_rows(obj, kinds, inner) or sep.join([_json_text(x, inner) for x in obj])
    return "[" + inner + body + newline + "]"


def _int_rows(rows, kinds: set, newline: str) -> str:
    """The items of ``rows`` by one ``%d`` template when they are equally
    long, nonempty lists of plain ints; "" otherwise."""
    if not kinds <= {list, tuple}:
        return ""
    widths = set(map(len, rows))
    width = widths.pop()
    if widths or not width:
        return ""
    flat = tuple(chain.from_iterable(rows))
    if set(map(type, flat)) != {int}:
        return ""
    cell = "," + newline + "  "
    row = "[" + cell[1:] + cell.join(["%d"] * width) + newline + "]"
    return ("," + newline).join([row] * len(rows)) % flat


def load_graph(path) -> ColoredDigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return validate(fh.read())


def to_dot(g: ColoredDigraph) -> str:
    """Deterministic DOT rendering: leaders filled, edges colored by cell."""
    lines = ["digraph colored_network {", "  rankdir=LR;", "  node [shape=circle];"]
    leader_mask = g.leader_mask
    for v in range(g.n):
        attrs = ' [style=filled fillcolor="gray80"]' if leader_mask >> v & 1 else ""
        lines.append(f"  {v + 1}{attrs};")
    # a DOT string ends at an unescaped quote, and a backslash escapes
    labels = [c.replace("\\", "\\\\").replace('"', '\\"') for c in g.colors]
    for tail, head, color in g.edges:
        hexcolor = _DOT_PALETTE[color % len(_DOT_PALETTE)]
        lines.append(
            f'  {tail + 1} -> {head + 1} [label="{labels[color]}" color="{hexcolor}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
