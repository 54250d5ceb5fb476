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
from dataclasses import dataclass, field
from functools import lru_cache

from .forcing import (
    DEFAULT_CONFIG,
    DerivationTrace,
    SearchConfig,
    derivation_outcomes,
)
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
    return tuple(e for e in g.edges if e[0] == v and targets >> e[1] & 1)


def _rebuild(g: ColoredDigraph, edges: tuple[tuple[int, int, int], ...]) -> ColoredDigraph:
    """New graph over the same vertices, dropping color cells that emptied.

    Surviving colors keep their names, so realizations keyed by name carry
    over to derived graphs unchanged.
    """
    used = sorted({c for _, _, c in edges})
    remap = {c: i for i, c in enumerate(used)}
    return ColoredDigraph(
        n=g.n,
        edges=tuple((t, h, remap[c]) for t, h, c in edges),
        colors=tuple(g.colors[c] for c in used),
        leaders=g.leaders,
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
    fan_set = set(fan)
    edges = tuple(
        (t, h, new_color) if (t, h, c) in fan_set else (t, h, c) for t, h, c in g.edges
    )
    return _rebuild(g, edges)


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
    for k in iter_vset(u_white):
        if g.edge_color[(u, k)] != g.edge_color[(v, k)]:
            raise ColorMismatchError(
                f"edges ({u + 1},{k + 1}) and ({v + 1},{k + 1}) differ in color"
            )
    doomed = set(edges_to_white(g, u, v, black))
    if not doomed:
        return g
    return _rebuild(g, tuple(e for e in g.edges if e not in doomed))


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
    white = white_out_neighbors(g, 1 << op.u, op.context)
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
    """
    members = list(iter_vset(black))
    ops: list[EdgeOp] = []
    white_of = {u: white_out_neighbors(g, 1 << u, black) for u in members}
    for u in members:
        if not white_of[u]:
            continue
        for v in members:
            if u == v or white_of[u] & ~white_of[v]:
                continue
            if all(
                g.edge_color[(u, k)] == g.edge_color[(v, k)] for k in iter_vset(white_of[u])
            ):
                ops.append(RemoveEdges(u=u, v=v, context=black))
    for u in members:
        if not white_of[u]:
            continue
        fan_colors = {g.edge_color[(u, k)] for k in iter_vset(white_of[u])}
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


def eeo_derived_set(
    g: ColoredDigraph,
    black: int,
    budget: int | None = None,
    config: SearchConfig = DEFAULT_CONFIG,
) -> EeoTrace:
    """Grow the black set by alternating forcing phases with edge operations.

    Each stage first searches force derivations; if none reaches V the
    search branches over every maximal derived set and every applicable
    operation on it, depth first.  The root stage is the zero-forcing test
    of ``black``.  Returns the trace with the largest final black set
    found, preferring complete ones; an exhausted budget of stages (the
    root one included) flags the trace instead of raising.  A budget below
    1 raises ValueError.

    Stages are memoized on :func:`stage_key`, all a stage's subtree can
    read; an operation updates the key's edge hash by :func:`op_delta`, and
    a stage graph is built only when its key is new.  A repeated key is
    either an ancestor, then the same graph, or a finished stage, whose
    subtree found no certificate and no larger set, so skipping it changes
    nothing but the work; the budget counts distinct stages.  A hash
    collision can only skip a stage, never admit a certificate: every
    certificate replays.
    """
    limit = config.eeo_budget if budget is None else budget
    if limit < 1:
        raise ValueError(f"edge-operation budget must be >= 1, got {limit}")
    states = 0
    memo: set[StageKey] = set()
    best: EeoTrace | None = None

    def consider(candidate: EeoTrace) -> None:
        nonlocal best
        if best is None or candidate.final.bit_count() > best.final.bit_count():
            best = candidate

    def dfs(
        graph: ColoredDigraph,
        current: int,
        graphs: tuple[ColoredDigraph, ...],
        derivations: tuple[DerivationTrace, ...],
        ops: tuple[EdgeOp, ...],
    ) -> EeoTrace | None:
        nonlocal states
        states += 1
        if states > limit:
            return None
        witness, stuck = derivation_outcomes(graph, current, config=config)
        if witness is not None:
            return EeoTrace(graphs + (graph,), derivations + (witness,), ops)
        # Prefer branching from larger derived sets; ties break on the mask.
        stuck.sort(key=lambda d: (-d.final.bit_count(), d.final))
        for derivation in stuck:
            consider(EeoTrace(graphs + (graph,), derivations + (derivation,), ops))
            final, names, code = stage_key(graph, derivation.final)
            for op in find_edge_ops(graph, final):
                key = (final, names, code ^ op_delta(graph, op))
                if key in memo:
                    continue
                memo.add(key)
                result = dfs(
                    apply_op(graph, op),
                    final,
                    graphs + (graph,),
                    derivations + (derivation,),
                    ops + (op,),
                )
                if result is not None:
                    return result
        return None

    memo.add(stage_key(g, black))
    result = dfs(g, black, (), (), ())
    if result is not None:
        return result
    assert best is not None
    if states > limit:
        return EeoTrace(best.graphs, best.derivations, best.ops, budget_exhausted=True)
    return best
