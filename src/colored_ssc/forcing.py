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
from .graph import ColoredDigraph, iter_vset, slice_key, vset_labels, white_out_neighbors
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
    white set.  Once the walk has listed more than ``2**MAX_SOURCE_CAP - 1``
    of them, drawing the next force raises :class:`SearchBoundExceededError`.

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
    candidates = [(1 << v, g.out_masks[v] & white) for v in iter_vset(black)]
    candidates = [(bit, reach) for bit, reach in candidates if reach]
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
    of its last member, source, white target), so a size is in
    lexicographic order.  Adding members only grows the target, so a subset
    is dropped once its target is wider than any source it can still reach:
    with ``i`` the index of its last member, it can reach ``size + last -
    i`` members.  That bound also keeps every target within ``limit``, as
    targets are white and the last member of ``size`` members has an index
    of at least ``size - 1``.  The subsets listed are counted as each node
    grows, and one more than ``2**MAX_SOURCE_CAP - 1``, read as the walk
    starts, raises :class:`SearchBoundExceededError`.

    Of the tight nodes of a size, one that contains a kept tight node of a
    smaller size is reducible and not tested; the subsets listed and their
    count stay the same.  The kept nodes are indexed in ``kept`` under their
    lowest member, with those members as bits in ``lows``, so the check for
    a node reads only the lists of its own members.

    A slice is tested when its force is asked for, unless, after the first
    force, ``dead`` skips it as :func:`iter_forces` says.
    """
    cap = MAX_SOURCE_CAP
    budget = (1 << cap) - 1
    indexed = [(i, bit, reach) for i, (bit, reach) in enumerate(candidates)]
    level, tight, kept, lows, found = [(-1, 0, 0)], [], {}, 0, False
    for size in range(1, limit + 1):
        for _, source, _ in tight:
            low = source & -source
            kept.setdefault(low, []).append(source)
            lows |= low
        end = size + len(indexed) - 1
        grown, tight = [], []
        for start, source, target in level:
            for i, bit, reach in indexed[start + 1 : end + 1 - target.bit_count()]:
                y = target | reach
                width = y.bit_count()
                if width + i <= end:
                    grown.append((i, source | bit, y))
                    if width == size:
                        tight.append(grown[-1])
            if len(grown) > budget:
                raise SearchBoundExceededError(
                    f"sources of {len(indexed)} candidate vertices pass the "
                    f"budget of 2**{cap} - 1 subsets at size {size}"
                )
        budget -= len(grown)
        level = grown
        if lows:
            tight = [n for n in tight if not n[1] & lows or _irreducible(n[1], kept, lows)]
        for _, source, target in tight:
            if found and black | target in dead:
                continue
            signature = slice_signature(slice_key(g, source, target))
            if signature is not None:
                found = True
                yield Force(source=source, target=target, class_signature=signature)


def _irreducible(source: int, kept: dict[int, list[int]], lows: int) -> bool:
    """Whether ``source`` contains no source of ``kept``, which lists each
    under its lowest member, one of the bits of ``lows``."""
    members = source & lows
    while members:
        low = members & -members
        for inner in kept.get(low, ()):
            if not inner & ~source:
                return False
        members ^= low
    return True


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
