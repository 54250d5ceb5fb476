"""Elementary edge operations and the alternating derivation procedure.

Both operations act relative to a black (coloring) set C and preserve the
controllability verdict of the network: recoloring a vertex's
monochromatic white fan to another palette color, and deleting the edges
from v toward u's white out-neighbors when v's fan dominates u's with
matching colors.  Alternating forcing phases with single edge operations
grows an edge-operations derived set; reaching all of V certifies the
original leader set.

:func:`find_edge_ops` is the rule; replay checks membership.  It alone
encodes when an operation applies; :func:`apply_op` applies it unchecked.
The search (:func:`eeo_derived_set`) works modulo recoloring: its moves
are removals, each alone or after the one recoloring that makes its colors
match, and it keys stages with the color of every one-color white fan of a
black vertex left out.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .forcing import DerivationTrace, derivation_outcomes
from .graph import ColoredDigraph, iter_vset


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


def apply_op(g: ColoredDigraph, op: EdgeOp) -> ColoredDigraph:
    """``g`` after ``op``, which ``find_edge_ops(g, op.context)`` must offer.

    :func:`find_edge_ops` is the rule; replay checks membership.  This only
    applies: it recolors u's white fan, or drops v's edges toward it and
    those heads from v's reach mask, and checks nothing again.
    """
    white = g.out_masks[op.u] & ~op.context
    if isinstance(op, TurnColor):
        row = tuple((h, op.new_color if white >> h & 1 else c) for h, c in g.out_edges[op.u])
        return _rebuild(g, op.u, row, g.out_masks)
    row = tuple(edge for edge in g.out_edges[op.v] if not white >> edge[0] & 1)
    masks = list(g.out_masks)
    masks[op.v] &= ~white
    return _rebuild(g, op.v, row, tuple(masks))


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
    validated against ``derivations[i].final``.  The recolored graph
    between the two ops of a pair carries the empty derivation at the
    stuck set.  ``final`` is the last derivation's black set.
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
        """Re-validate every force, and check that every op is offered by
        :func:`find_edge_ops` and builds the next stage graph."""
        if not len(self.graphs) == len(self.derivations) == len(self.ops) + 1:
            return False
        black = self.derivations[0].initial
        for i, derivation in enumerate(self.derivations):
            if derivation.initial != black or not derivation.replay_ok(self.graphs[i]):
                return False
            black = derivation.final
            if i < len(self.ops):
                g, op = self.graphs[i], self.ops[i]
                if op not in find_edge_ops(g, black) or apply_op(g, op) != self.graphs[i + 1]:
                    return False
        return True


# A tail's edges into white vertices: its head mask when it is black and
# they have at most one color, else (head, color name) pairs.
Row = int | tuple[tuple[int, str], ...]
StageKey = tuple[int, tuple[Row, ...]]


def _row(g: ColoredDigraph, tail: int, black: int, gone: int = 0) -> Row:
    """The :data:`Row` of ``tail`` at ``black`` once the edges toward
    ``gone`` are removed."""
    white = g.out_masks[tail] & ~(black | gone)
    fan = [(head, color) for head, color in g.out_edges[tail] if white >> head & 1]
    if black >> tail & 1 and len({color for _, color in fan}) <= 1:
        return white
    return tuple((head, g.colors[color]) for head, color in fan)


def wildcard_key(g: ColoredDigraph, black: int) -> StageKey:
    """Exactly what the search below a stage (g, black) can read.

    That is the black set and each vertex's edges into white vertices, by
    color name, so that the palette renumbering of :func:`_rebuild` does not
    change it; the color of a one-color white fan of a black vertex is a
    wildcard (see :func:`eeo_derived_set`).  Edges into the black set enter
    no slice and never change below the stage.
    """
    return black, tuple(_row(g, tail, black) for tail in range(g.n))


def _moves(graph: ColoredDigraph, stuck: list[DerivationTrace], key: StageKey | None):
    """Each stuck set's moves, in order, as (derivation, steps, key of the
    stage the move builds); ``key`` is the stage's own key, which a stuck
    set equal to its black set shares, or None at the root.

    ``steps`` holds (op, graph it applies to) pairs: a removal that
    :func:`find_edge_ops` offers at the stuck set, or one of its recolorings
    followed by a removal of the recolored vertex that it offers on the
    recolored graph.  The row of a recolored fan is a wildcard, so only
    the removal's tail ``v`` gets a new row in the key.
    """
    for derivation in stuck:
        final = derivation.final
        rows = (key if key is not None and final == key[0] else wildcard_key(graph, final))[1]
        for op in find_edge_ops(graph, final):
            if isinstance(op, RemoveEdges):
                moves = [((op, graph),)]
            else:
                recolored = apply_op(graph, op)
                moves = [
                    ((op, graph), (removal, recolored))
                    for removal in find_edge_ops(recolored, final)
                    if isinstance(removal, RemoveEdges) and removal.u == op.u
                ]
            for steps in moves:
                u, v = steps[-1][0].u, steps[-1][0].v
                row = _row(graph, v, final, graph.out_masks[u])
                yield derivation, steps, (final, (*rows[:v], row, *rows[v + 1 :]))


def _trace(path: list[list], graph: ColoredDigraph, derivation: DerivationTrace) -> EeoTrace:
    """The trace along ``path`` that ends with ``derivation`` on ``graph``.
    A recolored graph's derivation is the empty one at its stuck set."""
    graphs, derivations, ops = [], [], []
    for _, (reached, steps, _), _ in path:
        for op, stage in steps:
            graphs.append(stage)
            derivations.append(reached)
            ops.append(op)
            reached = DerivationTrace(reached.final, (), reached.final)
    return EeoTrace((*graphs, graph), (*derivations, derivation), tuple(ops))


def eeo_derived_set(g: ColoredDigraph, black: int, budget: int | None = None) -> EeoTrace:
    """Grow the black set by alternating forcing phases with edge operations.

    Each stage first searches force derivations; if none reaches V the
    search branches over every maximal derived set, largest first, and
    every move on it, depth first along an explicit path of frames [stage
    graph, move taken, moves left].  The root stage is the zero-forcing test
    of ``black``.  Returns the trace with the largest final black set found,
    preferring complete ones.  Only a stage's first stuck set can be larger
    than the best so far, so a trace is built from the path only then; for
    the same reason, once the ``budget`` of stages (the root one included;
    10 000 when None) is spent, no set left on the path can be, and the
    best trace is returned at once, flagged, instead of raising.  A budget
    below 1 raises ValueError.

    The search works modulo recoloring.  Take a black vertex u whose white
    fan has one color.  Fans only shrink as the black set grows and edges
    are removed, and only a recoloring of u changes their colors, so u's fan
    keeps one color below the stage.  In a slice whose source holds u, row u
    lies inside that fan, so the determinant is c * h, with c the fan's
    color and h free of it: whether it is one monomial, and its coefficient,
    do not depend on c.  So a recoloring matters only when it makes a
    removal's colors match.  The moves (see :func:`_moves`) are the removals
    (u, v) whose colors match, and the pairs that turn u's one-color fan to
    the one color x of v's edges toward it and then remove (u, v); if v's
    fan has one color, so do those edges, and if u's has two, no recoloring
    helps.  A certificate keeps both ops of a pair, with the empty
    derivation at the stuck set C between them.

    Two stages that differ only in the colors of one-color white fans of
    black vertices have the same moves and subtrees, up to the recolorings
    of pairs, so stages are memoized on :func:`wildcard_key`, which is
    exact; a stage graph is built only when its key is new.  Every removal
    deletes an edge, so no key repeats along a path: a repeated key is a
    finished stage, whose subtree found no certificate and no larger set,
    and skipping it changes nothing but the work.  The root's key is never
    met again and is not memoized.  The budget counts the distinct stages
    searched, one per move.

    A stage starts at the stuck set C its move was validated against.  A
    stage graph shares its parent's rows (:attr:`ColoredDigraph.out_edges`
    and ``out_masks``) but the tail's.
    """
    limit = 10_000 if budget is None else budget
    if limit < 1:
        raise ValueError(f"edge-operation budget must be >= 1, got {limit}")
    memo: set[StageKey] = set()
    best: EeoTrace | None = None
    path: list[list] = []
    graph, stages, key = g, 1, None
    while True:
        witness, stuck = derivation_outcomes(graph, black)
        if witness is not None:
            return _trace(path, graph, witness)
        # Prefer branching from larger derived sets; ties break on the mask.
        stuck.sort(key=lambda d: (-d.final.bit_count(), d.final))
        if best is None or stuck[0].final.bit_count() > best.final.bit_count():
            best = _trace(path, graph, stuck[0])
        path.append([graph, None, _moves(graph, stuck, key)])
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
        if stages == limit:
            return EeoTrace(best.graphs, best.derivations, best.ops, budget_exhausted=True)
        stages += 1
        derivation, steps, key = move
        memo.add(key)
        removal, stage = steps[-1]
        graph, black = apply_op(stage, removal), derivation.final
