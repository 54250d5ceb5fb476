"""Elementary edge operations and the alternating derivation procedure.

Both operations act relative to a black (coloring) set C and preserve the
controllability verdict of the network: recoloring a vertex's
monochromatic white fan to another palette color, and deleting the edges
from v toward u's white out-neighbors when v's fan dominates u's with
matching colors.  Alternating forcing phases with single edge operations
grows an edge-operations derived set; reaching all of V certifies the
original leader set.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache

from .forcing import DerivationTrace, derivation_outcomes
from .graph import ColoredDigraph, iter_vset, vset_labels, white_out_neighbors


class EdgeOpError(ValueError):
    """Preconditions of an elementary edge operation are violated."""


class MixedColorsError(EdgeOpError):
    pass


class SameColorError(EdgeOpError):
    pass


class UnknownColorError(EdgeOpError):
    pass


class EmptyEdgeSetError(EdgeOpError):
    """Recoloring a vertex with no white out-edges is rejected as vacuous."""


class NotNestedError(EdgeOpError):
    pass


class ColorMismatchError(EdgeOpError):
    pass


@dataclass(frozen=True)
class TurnColor:
    """Recolor every edge from ``u`` to its white out-neighbors.

    ``context`` is the black set the operation was validated against.
    """

    u: int
    new_color: int
    context: int

    def describe(self, g: ColoredDigraph) -> str:
        return f"turn-color u={self.u + 1} to {g.colors[self.new_color]}"


@dataclass(frozen=True)
class RemoveEdges:
    """Delete the edges from ``v`` toward the white out-neighbors of ``u``."""

    u: int
    v: int
    context: int

    def describe(self, g: ColoredDigraph) -> str:
        return f"remove-edges u={self.u + 1} v={self.v + 1}"


EdgeOp = TurnColor | RemoveEdges


def edges_to_white(
    g: ColoredDigraph, u: int, v: int, black: int
) -> tuple[tuple[int, int, int], ...]:
    """Edges from ``v`` whose heads are white out-neighbors of ``u``."""
    if not (black >> u & 1 and black >> v & 1):
        raise EdgeOpError("both vertices must be black")
    targets = white_out_neighbors(g, 1 << u, black)
    return tuple((v, head, color) for head, color in g.out_edges[v] if targets >> head & 1)


def _rebuild(
    g: ColoredDigraph, tail: int, row: tuple[tuple[int, int], ...], masks: tuple[int, ...]
) -> ColoredDigraph:
    """``g`` with the out-edges of ``tail`` replaced by ``row``, dropping
    color cells that emptied.

    ``row`` holds some of those edges, in head order, some recolored within
    the palette, so the new graph is valid by construction and is not
    checked again.  Surviving colors keep their names, so realizations
    keyed by name carry over to derived graphs unchanged.  The new graph
    caches ``masks`` as its ``out_masks`` and shares every row of
    ``out_edges`` but the tail's with ``g``, unless an emptied color
    renumbers the palette; then its rows are rebuilt from its edges.
    """
    # edges are sorted, so the tail's are one run
    lo, hi = bisect_left(g.edges, (tail,)), bisect_left(g.edges, (tail + 1,))
    edges = g.edges[:lo] + tuple((tail, h, c) for h, c in row) + g.edges[hi:]
    used = {c for _, _, c in edges}
    if len(used) == len(g.colors):
        rows = g.out_edges[:tail] + (row,) + g.out_edges[tail + 1 :]
        return ColoredDigraph.unchecked(g.n, edges, g.colors, g.leaders, masks, rows)
    kept = sorted(used)
    remap = {c: i for i, c in enumerate(kept)}
    return ColoredDigraph.unchecked(
        g.n,
        tuple((t, h, remap[c]) for t, h, c in edges),
        tuple(g.colors[c] for c in kept),
        g.leaders,
        masks,
    )


def apply_turn_color(
    g: ColoredDigraph, u: int, new_color: int, black: int
) -> ColoredDigraph:
    """Recolor u's white fan to ``new_color``; the fan must be monochromatic."""
    fan = edges_to_white(g, u, u, black)
    if not fan:
        raise EmptyEdgeSetError(f"vertex {u + 1} has no edges to white vertices")
    fan_colors = {c for _, _, c in fan}
    if len(fan_colors) > 1:
        raise MixedColorsError(
            f"edges from {u + 1} to white vertices span colors "
            f"{sorted(g.colors[c] for c in fan_colors)}"
        )
    (old_color,) = fan_colors
    if not 0 <= new_color < len(g.colors):
        raise UnknownColorError(f"color index {new_color + 1} not in palette")
    if new_color == old_color:
        raise SameColorError(f"edges from {u + 1} already have color {g.colors[old_color]}")
    white = g.out_masks[u] & ~black
    row = tuple((h, new_color if white >> h & 1 else c) for h, c in g.out_edges[u])
    return _rebuild(g, u, row, g.out_masks)


def apply_remove_edges(g: ColoredDigraph, u: int, v: int, black: int) -> ColoredDigraph:
    """Delete v's copies of u's white fan; u's fan must be color-matched in v's."""
    if u == v:
        raise EdgeOpError("removal requires two distinct black vertices")
    u_white = white_out_neighbors(g, 1 << u, black)
    v_white = white_out_neighbors(g, 1 << v, black)
    if u_white & ~v_white:
        raise NotNestedError(
            f"white out-neighbors {set(vset_labels(u_white))} of {u + 1} are not "
            f"contained in {set(vset_labels(v_white))} of {v + 1}"
        )
    v_colors = dict(g.out_edges[v])
    for k, color in g.out_edges[u]:
        if u_white >> k & 1 and v_colors[k] != color:
            raise ColorMismatchError(
                f"edges ({u + 1},{k + 1}) and ({v + 1},{k + 1}) differ in color"
            )
    if not u_white:
        return g
    row = tuple(edge for edge in g.out_edges[v] if not u_white >> edge[0] & 1)
    masks = list(g.out_masks)
    masks[v] &= ~u_white
    return _rebuild(g, v, row, tuple(masks))


def apply_op(g: ColoredDigraph, op: EdgeOp) -> ColoredDigraph:
    if isinstance(op, TurnColor):
        return apply_turn_color(g, op.u, op.new_color, op.context)
    return apply_remove_edges(g, op.u, op.v, op.context)


@lru_cache(maxsize=1 << 16)
def _edge_key(tail: int, head: int, name: str) -> int:
    """Deterministic 128-bit Zobrist key of one edge, keyed by color name so
    that the palette renumbering of :func:`_rebuild` does not change it."""
    return random.Random(f"{tail} {head} {name}").getrandbits(128)


StageKey = tuple[int, frozenset[str], int]


def stage_key(g: ColoredDigraph, black: int) -> StageKey:
    """What the search below a stage (g, black) can read.

    That is the black set, the color names on edges into it (those edges
    never change below the stage, and their colors stay in the palette that
    recoloring may target) and the XOR of the edge keys of every edge whose
    head is outside it.
    """
    names = set()
    code = 0
    for tail, head, color in g.edges:
        if black >> head & 1:
            names.add(g.colors[color])
        else:
            code ^= _edge_key(tail, head, g.colors[color])
    return black, frozenset(names), code


def op_delta(g: ColoredDigraph, op: EdgeOp) -> int:
    """How ``op`` changes the edge hash of :func:`stage_key` at its context:
    the XOR of the keys of the fan edges it recolors or deletes."""
    white = g.out_masks[op.u] & ~op.context
    tail = op.u if isinstance(op, TurnColor) else op.v
    delta = 0
    for head, color in g.out_edges[tail]:
        if white >> head & 1:
            delta ^= _edge_key(tail, head, g.colors[color])
            if isinstance(op, TurnColor):
                delta ^= _edge_key(tail, head, g.colors[op.new_color])
    return delta


def find_edge_ops(g: ColoredDigraph, black: int) -> list[EdgeOp]:
    """All effective operations at ``black``: removals first, then recolorings.

    Removals are ordered lexicographically by (u, v) and recolorings by
    (u, new_color); candidates that would not change the graph are skipped.
    A removal (u, v) applies when u's white fan, as a set of (head, color)
    pairs, is not empty and lies inside v's: the heads nest and the colors
    match.
    """
    white = g.full_mask & ~black
    fans = {
        u: frozenset(edge for edge in g.out_edges[u] if white >> edge[0] & 1)
        for u in iter_vset(black)
        if g.out_masks[u] & white
    }
    ops: list[EdgeOp] = []
    for u, fan in fans.items():
        ops.extend(
            RemoveEdges(u=u, v=v, context=black)
            for v, other in fans.items()
            if v != u and fan <= other
        )
    for u, fan in fans.items():
        fan_colors = {color for _, color in fan}
        if len(fan_colors) != 1:
            continue
        (old_color,) = fan_colors
        for color in range(len(g.colors)):
            if color != old_color:
                ops.append(TurnColor(u=u, new_color=color, context=black))
    return ops


@dataclass(frozen=True)
class EeoTrace:
    """Alternating record of forcing phases and edge operations.

    ``graphs[i]`` is the stage graph on which ``derivations[i]`` ran;
    ``ops[i]`` transformed ``graphs[i]`` into ``graphs[i+1]`` and was
    validated against ``derivations[i].final``.  ``final`` is the last
    derivation's black set.
    """

    graphs: tuple[ColoredDigraph, ...]
    derivations: tuple[DerivationTrace, ...]
    ops: tuple[EdgeOp, ...] = field(default=())
    budget_exhausted: bool = False

    @property
    def final(self) -> int:
        return self.derivations[-1].final

    @property
    def complete(self) -> bool:
        return self.final == self.graphs[0].full_mask

    def replay_ok(self) -> bool:
        """Re-validate every forcing step and every op precondition."""
        black = self.derivations[0].initial
        for i, derivation in enumerate(self.derivations):
            if derivation.initial != black or not derivation.replay_ok(self.graphs[i]):
                return False
            black = derivation.final
            if i < len(self.ops):
                op = self.ops[i]
                if op.context != black:
                    return False
                try:
                    regenerated = apply_op(self.graphs[i], op)
                except EdgeOpError:
                    return False
                if regenerated != self.graphs[i + 1]:
                    return False
        return True


def _edge_moves(graph: ColoredDigraph, stuck: list[DerivationTrace], key: StageKey):
    """Each stuck set's operations, in order, as (derivation, op, stage key
    of the stage the op leads to); ``key`` is the stage's own key, which a
    stuck set equal to its black set shares."""
    for derivation in stuck:
        if derivation.final == key[0]:
            final, names, code = key
        else:
            final, names, code = stage_key(graph, derivation.final)
        for op in find_edge_ops(graph, final):
            yield derivation, op, (final, names, code ^ op_delta(graph, op))


def _trace(path: list[list], graph: ColoredDigraph, derivation: DerivationTrace) -> EeoTrace:
    """The trace along ``path`` that ends with ``derivation`` on ``graph``."""
    return EeoTrace(
        graphs=(*(frame[0] for frame in path), graph),
        derivations=(*(frame[1][0] for frame in path), derivation),
        ops=tuple(frame[1][1] for frame in path),
    )


def eeo_derived_set(g: ColoredDigraph, black: int, budget: int | None = None) -> EeoTrace:
    """Grow the black set by alternating forcing phases with edge operations.

    Each stage first searches force derivations; if none reaches V the
    search branches over every maximal derived set, largest first, and
    every applicable operation on it, depth first along an explicit path of
    frames [stage graph, move taken, moves left].  The root stage is the
    zero-forcing test of ``black``.  Returns the trace with the largest
    final black set found, preferring complete ones.  Only a stage's first
    stuck set can be larger than the best so far, so a trace is built from
    the path only then; for the same reason, once the ``budget`` of stages
    (the root one included; 10 000 when None) is spent, no set left on the
    path can be, and the best trace is returned at once, flagged, instead of
    raising.  A budget below 1 raises ValueError.

    Stages are memoized on :func:`stage_key`, all a stage's subtree can
    read; an operation updates the key's edge hash by :func:`op_delta`, a
    stage graph is built only when its key is new, and that key serves
    the new stage's own stuck set at its black set.  A stage reached by an
    operation starts at the stuck set C the operation was validated
    against, where its parent stage had no force.  A recoloring moves u's
    white fan, all of one color x_old, to the color x_new and keeps every
    reach mask.  In a slice whose source holds u, row u is exactly that fan,
    and the determinant is linear in that row, so it becomes x_new/x_old
    times the parent's: the same number of terms, the same coefficients.
    Slices without u do not change, and the walk at C lists what the
    parent's walk listed there without error.  So a recoloring's stage is
    stuck at C, and no force search runs there.  A removal changes only
    the out-edges of v into white vertices, so at C only sources that
    contain v are tested (see :func:`derivation_outcomes`).  A stage graph
    shares its parent's rows (:attr:`ColoredDigraph.out_edges` and
    ``out_masks``) but the tail's.  A repeated key is either an ancestor,
    then the same graph, or a finished stage, whose subtree found no
    certificate and no larger set, so skipping it changes nothing but the
    work; the budget counts distinct stages.  A hash collision can only
    skip a stage, never admit a certificate: every certificate replays.
    """
    limit = 10_000 if budget is None else budget
    if limit < 1:
        raise ValueError(f"edge-operation budget must be >= 1, got {limit}")
    key = stage_key(g, black)
    memo: set[StageKey] = {key}
    best: EeoTrace | None = None
    path: list[list] = []
    graph, states, op = g, 1, None
    while True:
        if isinstance(op, TurnColor):
            witness, stuck = None, [DerivationTrace(black, (), black)]
        else:
            witness, stuck = derivation_outcomes(graph, black, -1 if op is None else 1 << op.v)
        if witness is not None:
            return _trace(path, graph, witness)
        # Prefer branching from larger derived sets; ties break on the mask.
        stuck.sort(key=lambda d: (-d.final.bit_count(), d.final))
        if best is None or stuck[0].final.bit_count() > best.final.bit_count():
            best = _trace(path, graph, stuck[0])
        path.append([graph, None, _edge_moves(graph, stuck, key)])
        while path:
            frame = path[-1]
            move = next(frame[2], None)
            if move is None:
                path.pop()
                continue
            frame[1] = move
            if move[2] not in memo:
                break
        else:
            return best
        if states == limit:
            return EeoTrace(best.graphs, best.derivations, best.ops, budget_exhausted=True)
        states += 1
        memo.add(move[2])
        derivation, op, key = move
        graph, black = apply_op(frame[0], op), derivation.final
