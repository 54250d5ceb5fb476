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
from functools import lru_cache

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
        certifies at the black set before it."""
        black = self.initial
        for force in self.steps:
            if not force.source or force.source & ~black:
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


def iter_forces(
    g: ColoredDigraph, black: int, dead: Container[int] = frozenset(), changed: int = -1
) -> Iterator[Force]:
    """The irreducible forces available at ``black``, smallest source first,
    each slice tested only when the next force is asked for.

    Sources are ordered by increasing size, lexicographically within a
    size, so the order is reproducible.  Only sources that can force are
    enumerated: subsets of the black vertices with a white out-neighbor (any
    other one is a zero row of every slice it joins), no larger than the
    white set.  Once the walk has listed more than ``2**MAX_SOURCE_CAP - 1``
    of them, drawing the next force raises :class:`SearchBoundExceededError`.

    Call a source *tight* when its target is as wide as it is; only tight
    sources have a slice to test.  A tight source of at most
    ``ENUMERATION_CAP`` members that strictly contains a smaller tight
    source T is reducible and not yielded: the rows of T in its slice meet
    only T's target, so the slice is block triangular and ``det X = +-det T
    * det(X - T -> target(X) - target(T))``.  A product of polynomials is a
    single monomial only when both factors are, so X forces only when T
    forces and X - T then forces at ``black | target(T)``, ending at X's
    child.  Every force is a chain of irreducible ones, the first force
    available is always irreducible, and a search that has exhausted T's
    child has met X's.  A wider source is still yielded, so its slice
    raises the :class:`EnumerationCapError` that every caller meets.

    Two arguments let a search skip slice tests whose answers it cannot
    use.  After the first force, a source whose child ``black | target`` is
    in ``dead`` is not tested: the search drops a force into a dead child,
    and ``black`` is no longer stuck once it has a force.  Only sources
    that meet ``changed`` are tested at all (every source by default); the
    caller vouches that no other source forces (see
    :func:`derivation_outcomes`).
    """
    if black & ~g.full_mask:
        raise ValueError("black set contains vertices outside the graph")
    white = g.full_mask & ~black
    candidates = [(1 << v, g.out_masks[v] & white) for v in iter_vset(black)]
    candidates = tuple((bit, reach) for bit, reach in candidates if reach)
    limit = min(len(candidates), white.bit_count())
    return _forces_from(g, black, _listing(candidates, limit, MAX_SOURCE_CAP), dead, changed)


def find_forces(g: ColoredDigraph, black: int) -> list[Force]:
    """The irreducible forces available at ``black``, in the order of
    :func:`iter_forces`."""
    return list(iter_forces(g, black))


class _Listing:
    """The subsets one force-source walk lists, one size at a time, and the
    irreducible tight ones among them.

    A subset is grown from one of the size below by a later candidate, as a
    node (index of its last member, source, white target), so a size is in
    lexicographic order.  Adding members only grows the target, so a subset
    is dropped once its target is wider than any source it can still reach:
    with ``i`` the index of its last member, it can reach ``size + last -
    i`` members.  That bound also keeps every target within ``limit``, as
    targets are white and the last member of ``size`` members has an index
    of at least ``size - 1``.  The subsets listed are counted as each node
    grows, and one more than ``2**cap - 1`` raises
    :class:`SearchBoundExceededError`, again at each later request.

    Of the tight nodes of a size, one of at most ``ENUMERATION_CAP``
    members that contains a kept tight node of a smaller size is reducible
    (see :func:`iter_forces`) and not kept; the subsets listed and their
    count stay the same.  Kept nodes narrower than the cap are indexed in
    ``kept`` under their lowest member, with those members as bits in
    ``lows``, each size once the next size is asked for; the check for a
    node reads only the lists of its own members.

    The listing depends only on the candidates, the limit and the cap, not
    on colors or slice tests, so the walks over the same three share one
    (see :func:`_listing`), and each size is listed and filtered once
    however many walks read it.
    """

    def __init__(self, candidates: tuple[tuple[int, int], ...], limit: int, cap: int) -> None:
        self.indexed = [(i, bit, reach) for i, (bit, reach) in enumerate(candidates)]
        self.limit, self.cap = limit, cap
        self.budget = (1 << cap) - 1
        self.level = [(-1, 0, 0)]
        self.tight: list[list[tuple[int, int, int]]] = []
        self.kept: dict[int, list[int]] = {}
        self.lows = 0
        self.refusal: str | None = None

    def tight_at(self, size: int) -> list[tuple[int, int, int]]:
        """The irreducible nodes of ``size`` members whose target is as
        wide, in order, once every size below is listed."""
        while len(self.tight) < size:
            if self.refusal is not None:
                raise SearchBoundExceededError(self.refusal)
            self._grow(len(self.tight) + 1)
        return self.tight[size - 1]

    def _grow(self, size: int) -> None:
        if 1 < size <= ENUMERATION_CAP:
            for _, source, _ in self.tight[-1]:
                low = source & -source
                self.kept.setdefault(low, []).append(source)
                self.lows |= low
        end = size + len(self.indexed) - 1
        grown, tight = [], []
        for start, source, target in self.level:
            for i, bit, reach in self.indexed[start + 1 : end + 1 - target.bit_count()]:
                y = target | reach
                width = y.bit_count()
                if width + i <= end:
                    grown.append((i, source | bit, y))
                    if width == size:
                        tight.append(grown[-1])
            if len(grown) > self.budget:
                self.level = []
                self.refusal = (
                    f"sources of {len(self.indexed)} candidate vertices pass the "
                    f"budget of 2**{self.cap} - 1 subsets at size {size}"
                )
                raise SearchBoundExceededError(self.refusal)
        self.budget -= len(grown)
        self.level = grown if size < self.limit else []
        lows = self.lows
        if size <= ENUMERATION_CAP and lows:
            tight = [node for node in tight if not node[1] & lows or self._irreducible(node[1])]
        self.tight.append(tight)

    def _irreducible(self, source: int) -> bool:
        """Whether ``source`` contains no kept node."""
        members = source & self.lows
        while members:
            low = members & -members
            for inner in self.kept.get(low, ()):
                if not inner & ~source:
                    return False
            members ^= low
        return True


@lru_cache(maxsize=1 << 7)
def _listing(candidates: tuple[tuple[int, int], ...], limit: int, cap: int) -> _Listing:
    """The listing shared by the walks over ``candidates`` up to ``limit``
    members under a budget of ``2**cap - 1`` subsets.  Every caller gets the
    same object, which grows as any of them reads a new size and holds no
    state of one walk.  An edge operation changes only edges into vertices
    white at its stuck set, so at a larger black set of the stage it builds,
    where those heads are black, a walk has the candidates the parent
    stage's walk there had and reads its listing."""
    return _Listing(candidates, limit, cap)


def _forces_from(
    g: ColoredDigraph,
    black: int,
    listing: _Listing,
    dead: Container[int],
    changed: int,
) -> Iterator[Force]:
    """The forces whose sources are the irreducible tight subsets
    ``listing`` lists, in the order :func:`iter_forces` documents.

    The walk goes one source size at a time, and a size's subsets are
    listed only once every force of the sizes below has been asked for.  A
    slice is tested when its force is asked for, unless ``changed`` or,
    after the first force, ``dead`` skips it as :func:`iter_forces` says.
    A dead child's slice wider than ``ENUMERATION_CAP`` is still passed to
    ``slice_signature`` for the :class:`EnumerationCapError` it raises; a
    source ``changed`` skips has the slice it had where it was tested
    without error.
    """
    found = False
    for size in range(1, listing.limit + 1):
        for _, source, target in listing.tight_at(size):
            if not source & changed:
                continue
            if found and size <= ENUMERATION_CAP and black | target in dead:
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
    g: ColoredDigraph, black: int, changed: int = -1
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
    that force, and the black set is no longer stuck.  At ``black`` itself
    only sources that meet ``changed`` are tested.  That is exact when
    ``black`` had no force on a graph that differs from ``g`` only in the
    out-edges of the ``changed`` vertices into white ones: every other
    source has the same slice on both graphs, and ``g`` lists no subset
    without them that the other graph's walk, which has every candidate
    ``g`` has and no smaller limit, did not.  The edge-operation search
    passes it for the tail ``v`` of a removal only: a recoloring's stage is
    not searched at all, since multiplying one row of every slice through
    its tail by x_new/x_old, as a recoloring does, keeps each determinant's
    terms and coefficients (see :func:`colored_ssc.edgeops.eeo_derived_set`).
    """
    start, full = black, g.full_mask
    dead: set[int] = set()
    stuck: list[DerivationTrace] = []
    path: list[list] = []
    while black != full:
        path.append([black, None, iter_forces(g, black, dead, changed)])
        changed = -1
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
