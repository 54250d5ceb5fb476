"""Color change rule, derived sets, and the zero-forcing-set test.

A black vertex set X forces its white out-neighbor set Y when |Y| = |X|
and the induced colored bipartite slice has a nonsingular pattern
(exactly one matching class with nonzero signature).  Derived sets under
this rule are order dependent, so the zero-forcing decision backtracks
over force choices, memoizing black sets that provably cannot reach V.
"""

from __future__ import annotations

from collections.abc import Container, Iterator
from dataclasses import dataclass

from .bipartite import ENUMERATION_CAP, EnumerationCapError, slice_signature
from .graph import ColoredDigraph, slice_key, vset_labels, white_out_neighbors
# Unused here; kept bound because perfbench/tracing.py wraps these names.
from .bipartite import certifying_signature  # noqa: F401
from .graph import induced_bipartite  # noqa: F401


class SearchBoundExceededError(RuntimeError):
    """Subset enumeration exceeded the source budget."""


# One force-source enumeration lists no more than 2**MAX_SOURCE_CAP - 1
# candidate subsets, as many as a black set of MAX_SOURCE_CAP vertices has;
# the walk counts the subsets it lists and raises past that, so the
# exhaustive search refuses and the greedy one stops, flagged truncated.
MAX_SOURCE_CAP = 12


@dataclass(frozen=True)
class Force:
    """One application of the color change rule: source forces target.

    ``class_signature`` is the nonzero signature of the single certifying
    matching class of the induced bipartite slice.
    """

    source: int
    target: int
    class_signature: int

    def describe(self) -> str:
        return f"{list(vset_labels(self.source))} -> {list(vset_labels(self.target))}"


@dataclass(frozen=True)
class DerivationTrace:
    """Chronological list of forces applied from an initial black set."""

    initial: int
    steps: tuple[Force, ...]
    final: int
    truncated: bool = False

    def replay_ok(self, g: ColoredDigraph) -> bool:
        """Re-validate every step against the graph it claims to derive
        from: each force, signature included, is the one its source
        certifies at the black set before it.  A vertex outside ``g``, or a
        source wider than ``ENUMERATION_CAP``, which no search emits, is
        rejected rather than raising."""
        black = self.initial
        if black & ~g.full_mask:
            return False
        for force in self.steps:
            if not force.source or force.source & ~black:
                return False
            if force.source.bit_count() > ENUMERATION_CAP:
                return False
            if is_color_perfect(g, force.source, black) != force:
                return False
            black |= force.target
        return black == self.final


def is_color_perfect(g: ColoredDigraph, source: int, black: int) -> Force | None:
    """The force certified by ``source`` at the given black set, if any.

    Requires a nonempty white out-neighbor set of matching size whose
    induced colored bipartite slice passes the nonsingularity test.
    """
    if not source:
        raise ValueError("source set must be nonempty")
    target = white_out_neighbors(g, source, black)
    if not target or target.bit_count() != source.bit_count():
        return None
    signature = slice_signature(slice_key(g, source, target))
    if signature is None:
        return None
    return Force(source=source, target=target, class_signature=signature)


def iter_forces(g: ColoredDigraph, black: int, dead: Container[int] = frozenset()) -> Iterator[Force]:
    """The irreducible forces available at ``black``, smallest source first,
    each slice tested only when the next force is asked for.

    Sources are ordered by increasing size, lexicographically within a
    size, so the order is reproducible.  Only sources that can force are
    enumerated: subsets of the black vertices with a white out-neighbor (any
    other one is a zero row of every slice it joins), no larger than the
    white set.  Over more than ``MAX_SOURCE_CAP`` candidates, once the walk
    has listed more than ``2**MAX_SOURCE_CAP - 1`` subsets, drawing the next
    force raises :class:`SearchBoundExceededError`; over at most that many
    candidates it never does.

    Call a source *tight* when its target is as wide as it is; only tight
    sources have a slice to test.  A tight source that strictly contains a
    smaller tight source T is reducible and not yielded: the rows of T in
    its slice meet only T's target, so the slice is block triangular and
    ``det X = +-det T * det(X - T -> target(X) - target(T))``.  A product of polynomials is a
    single monomial only when both factors are, so X forces only when T
    forces and X - T then forces at ``black | target(T)``, ending at X's
    child.  Every force is a chain of irreducible ones, the first force
    available is always irreducible, and a search that has exhausted T's
    child has met X's.  An irreducible tight source wider than
    ``ENUMERATION_CAP`` raises :class:`EnumerationCapError` when its slice
    is tested.

    After the first force, a source whose child ``black | target`` is in
    ``dead`` is not tested: the search drops a force into a dead child, and
    ``black`` is no longer stuck once it has a force.  The black set is
    checked at once; the walk returned lists its own subsets (see
    :func:`_walk`).
    """
    if black & ~g.full_mask:
        raise ValueError("black set contains vertices outside the graph")
    white = g.full_mask & ~black
    candidates = [
        (1 << v, reach & white)
        for v, reach in enumerate(g.out_masks)
        if black >> v & 1 and reach & white
    ]
    return _walk(g, black, candidates, min(len(candidates), white.bit_count()), dead)


def find_forces(g: ColoredDigraph, black: int) -> list[Force]:
    """The irreducible forces available at ``black``, in the order of
    :func:`iter_forces`."""
    return list(iter_forces(g, black))


def _walk(
    g: ColoredDigraph, black: int, candidates: list, limit: int, dead: Container[int]
) -> Iterator[Force]:
    """The forces of the irreducible tight subsets of ``candidates`` (black
    vertex bits with their white reach) of at most ``limit`` members, in the
    order :func:`iter_forces` documents.

    Each walk lists its own subsets, one source size at a time and only
    once every force of the sizes below has been asked for.  A subset is
    grown from one of the size below by a later candidate, as a node (index
    of its last member, source, white target, whether it holds a tight
    subset, itself included), so a size is in lexicographic order.  Adding
    members only grows the target, so a subset is dropped once its target is
    wider than any source it can still reach: with ``i`` the index of its
    last member, it can reach ``size + last - i`` members.  That bound also
    keeps every target within ``limit``, as targets are white and the last
    member of ``size`` members has an index of at least ``size - 1``.

    A subset holds a smaller tight subset when its parent, the subset
    without its last member ``i``, holds one, or when an irreducible tight
    subset indexed under its highest member ``i`` in ``highs`` lies inside
    it.  A tight subset that holds one is reducible and not tested.  Over at
    most ``MAX_SOURCE_CAP`` candidates the walk has at most
    ``2**MAX_SOURCE_CAP - 1`` subsets, so the budget cannot bind, and it
    neither keeps a subset that holds a smaller tight subset nor grows a
    tight one: every tight subset grown from either is reducible.  Over
    more candidates it keeps every subset it can grow, counted as each node
    grows, and one more than ``2**MAX_SOURCE_CAP - 1``, read as the walk
    starts, raises :class:`SearchBoundExceededError`; pruning such a walk
    too would move the size at which it refuses.

    A slice is tested when its force is asked for, unless, after the first
    force, ``dead`` skips it as :func:`iter_forces` says.
    """
    cap = MAX_SOURCE_CAP
    budget = (1 << cap) - 1
    prune = len(candidates) <= cap
    indexed = [(i, bit, reach) for i, (bit, reach) in enumerate(candidates)]
    highs: list[list[int]] = [[] for _ in indexed]
    level, found = [(-1, 0, 0, False)], False
    for size in range(1, limit + 1):
        end = size + len(indexed) - 1
        grown, tight = [], []
        for start, source, target, held in level:
            for i, bit, reach in indexed[start + 1 : end + 1 - target.bit_count()]:
                y = target | reach
                width = y.bit_count()
                if width + i <= end:
                    x = source | bit
                    holds = held or any(not inner & ~x for inner in highs[i])
                    if width == size and not holds:
                        highs[i].append(x)
                        tight.append((x, y))
                        holds = True
                    if not (prune and holds):
                        grown.append((i, x, y, holds))
            if len(grown) > budget:
                raise SearchBoundExceededError(
                    f"sources of {len(indexed)} candidate vertices pass the "
                    f"budget of 2**{cap} - 1 subsets at size {size}"
                )
        budget -= len(grown)
        level = grown
        for source, target in tight:
            if found and black | target in dead:
                continue
            signature = slice_signature(slice_key(g, source, target))
            if signature is not None:
                found = True
                yield Force(source=source, target=target, class_signature=signature)


def derived_set_greedy(g: ColoredDigraph, black: int) -> DerivationTrace:
    """Apply the first force of each step until none remain; no backtracking.

    Forces come smallest source first (see :func:`iter_forces`), so each
    step takes a smallest source, lexicographically first within its size.
    A step that passes the source budget or meets a slice wider than
    ``bipartite.ENUMERATION_CAP`` before it finds a force ends the
    derivation, and the returned trace is flagged as truncated.
    """
    initial = black
    steps: list[Force] = []
    truncated = False
    while True:
        try:
            force = next(iter_forces(g, black), None)
        except (SearchBoundExceededError, EnumerationCapError):
            truncated = True
            break
        if force is None:
            break
        steps.append(force)
        black |= force.target
    return DerivationTrace(initial=initial, steps=tuple(steps), final=black, truncated=truncated)


def derivation_outcomes(
    g: ColoredDigraph, black: int
) -> tuple[DerivationTrace | None, list[DerivationTrace]]:
    """Backtracking search over force choices.

    Returns a witness trace reaching all of V when one exists (else None),
    and the distinct maximal (stuck) derived sets met on the way, each with
    the first trace that reached it; without a witness that is every stuck
    set reachable from ``black``.  Black sets proven unable to reach V are
    memoized and never re-expanded, so no stuck set is recorded twice.
    The search walks an explicit path of frames [black set, force taken,
    forces left] and draws forces from :func:`iter_forces` one at a time,
    so the forces after the one that leads to V are never tested.

    Each black set draws its forces with the live ``dead`` set, so once it
    has one force no slice of a dead child is tested: the search would drop
    that force, and the black set is no longer stuck.
    """
    start, full = black, g.full_mask
    dead: set[int] = set()
    stuck: list[DerivationTrace] = []
    path: list[list] = []
    while black != full:
        path.append([black, None, iter_forces(g, black, dead)])
        while path:
            frame = path[-1]
            force = next(frame[2], None)
            if force is None:
                if frame[1] is None:
                    stuck.append(DerivationTrace(start, tuple(f[1] for f in path[:-1]), frame[0]))
                dead.add(path.pop()[0])
                continue
            frame[1], black = force, frame[0] | force.target
            if black not in dead:
                break
        else:
            return None, stuck
    return DerivationTrace(start, tuple(f[1] for f in path), full), stuck


def is_zero_forcing_set(g: ColoredDigraph, black: int) -> tuple[bool, DerivationTrace | None]:
    """Whether some chronological list of forces colors every vertex black."""
    witness, _ = derivation_outcomes(g, black)
    return (witness is not None), witness
