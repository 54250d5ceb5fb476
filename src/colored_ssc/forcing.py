"""Color change rule, derived sets, and the zero-forcing-set test.

A black vertex set X forces its white out-neighbor set Y when |Y| = |X|
and the induced colored bipartite slice has a nonsingular pattern
(exactly one matching class with nonzero signature).  Derived sets under
this rule are order dependent, so the zero-forcing decision backtracks
over force choices, memoizing black sets that provably cannot reach V.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .bipartite import slice_signature
from .graph import ColoredDigraph, iter_vset, slice_key, vset_labels, white_out_neighbors
# Unused here; kept bound because perfbench/tracing.py wraps these names.
from .bipartite import certifying_signature  # noqa: F401
from .graph import induced_bipartite  # noqa: F401


class SearchBoundExceededError(RuntimeError):
    """Subset enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class SearchConfig:
    """Budgets for the exponential parts of the analysis.

    ``max_source_cap`` bounds the work of one force-source enumeration:
    it may look at no more than ``2**max_source_cap - 1`` candidate
    subsets (as many as a black set of ``max_source_cap`` vertices has).
    Candidates are the black vertices with a white out-neighbor, so any
    black set up to the cap is always enumerated in full.  Beyond the
    budget the exhaustive search refuses (greedy callers may truncate
    instead).  ``eeo_budget`` caps the number of distinct stages the
    edge-operation search expands.
    """

    max_source_cap: int = 12
    eeo_budget: int = 10_000


DEFAULT_CONFIG = SearchConfig()


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
        """Re-validate every step against the graph it claims to derive from."""
        black = self.initial
        for force in self.steps:
            if force.source & ~black:
                return False
            check = is_color_perfect(g, force.source, black)
            if check is None or check.target != force.target:
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


def _source_domain(
    g: ColoredDigraph,
    black: int,
    config: SearchConfig,
    allow_truncation: bool,
) -> tuple[list[tuple[int, int]], int, bool]:
    """Where force sources can come from at ``black``.

    Returns the candidates as (vertex bit, white out-neighbors) pairs, the
    largest source size to enumerate, and whether that size was cut down to
    fit ``config.max_source_cap``.  Only black vertices with a white
    out-neighbor are candidates (any other one is a zero row of every slice
    it joins), and a source has at most as many members as there are white
    vertices.  The candidate subsets up to the size limit may number at most
    ``2**max_source_cap - 1``, the subsets of a black set at the cap.
    """
    if black & ~g.full_mask:
        raise ValueError("black set contains vertices outside the graph")
    white = g.full_mask & ~black
    candidates = [(1 << v, g.out_masks[v] & white) for v in iter_vset(black)]
    candidates = [(bit, reach) for bit, reach in candidates if reach]
    limit = min(len(candidates), white.bit_count())
    budget = (1 << config.max_source_cap) - 1
    subsets = 0
    for size in range(1, limit + 1):
        subsets += comb(len(candidates), size)
        if subsets > budget:
            if not allow_truncation:
                raise SearchBoundExceededError(
                    f"sources of up to {limit} of {len(candidates)} candidate vertices "
                    f"exceed the budget of 2**{config.max_source_cap} - 1 subsets"
                )
            return candidates, size - 1, True
    return candidates, limit, False


def find_forces(
    g: ColoredDigraph,
    black: int,
    config: SearchConfig = DEFAULT_CONFIG,
    allow_truncation: bool = False,
) -> list[Force]:
    """All forces available at ``black``, smallest source first.

    Sources are ordered by increasing size, lexicographically within a
    size, so the returned order is reproducible.  Only sources that can
    force are enumerated: subsets of the black vertices with a white
    out-neighbor, no larger than the white set.  When those subsets number
    more than ``2**config.max_source_cap - 1``, the call raises
    :class:`SearchBoundExceededError`, or with ``allow_truncation`` keeps
    the largest source size whose subsets fit.
    """
    candidates, limit, _ = _source_domain(g, black, config, allow_truncation)
    return _forces_from(g, black, candidates, limit)


def _forces_from(
    g: ColoredDigraph, black: int, candidates: list[tuple[int, int]], limit: int
) -> list[Force]:
    """The forces whose sources are subsets of ``candidates`` of at most
    ``limit`` members, in the order :func:`find_forces` documents."""
    last = len(candidates) - 1
    forces: list[Force] = []

    def extend(start: int, source: int, target: int, size: int) -> None:
        # Depth first over candidates in index order; adding members only
        # grows the white target, so a branch dies once the target is wider
        # than any source it can still reach.
        size += 1
        for i in range(start, last + 1):
            bit, reach = candidates[i]
            x, y = source | bit, target | reach
            width = y.bit_count()
            if width > min(limit, size + last - i):
                continue
            if width == size:
                signature = slice_signature(slice_key(g, x, y))
                if signature is not None:
                    forces.append(Force(source=x, target=y, class_signature=signature))
            if size < limit:
                extend(i + 1, x, y, size)

    extend(0, 0, 0, 0)
    # depth-first order is lexicographic, so a stable sort by size gives
    # size-then-lexicographic order
    forces.sort(key=lambda f: f.source.bit_count())
    return forces


def derived_set_greedy(
    g: ColoredDigraph,
    black: int,
    config: SearchConfig = DEFAULT_CONFIG,
) -> DerivationTrace:
    """Apply the first force of each step until none remain; no backtracking.

    ``find_forces`` orders sources smallest first, so each step takes a
    smallest source, lexicographically first within its size.  A step
    whose candidate subsets pass the configured budget only looks at
    sources of the largest size that fits, and the returned trace is
    flagged as truncated.
    """
    initial = black
    steps: list[Force] = []
    truncated = False
    while True:
        candidates, limit, cut = _source_domain(g, black, config, allow_truncation=True)
        truncated |= cut
        forces = _forces_from(g, black, candidates, limit)
        if not forces:
            break
        steps.append(forces[0])
        black |= forces[0].target
    return DerivationTrace(initial=initial, steps=tuple(steps), final=black, truncated=truncated)


def derivation_outcomes(
    g: ColoredDigraph,
    black: int,
    config: SearchConfig = DEFAULT_CONFIG,
) -> tuple[DerivationTrace | None, list[DerivationTrace]]:
    """Backtracking search over force choices.

    Returns a witness trace reaching all of V when one exists (else None),
    and the distinct maximal (stuck) derived sets met on the way, each with
    the first trace that reached it; without a witness that is every stuck
    set reachable from ``black``.  Black sets proven unable to reach V are
    memoized and never re-expanded, so no stuck set is recorded twice.
    """
    full = g.full_mask
    dead: set[int] = set()
    stuck: list[DerivationTrace] = []
    path: list[Force] = []

    def dfs(black: int) -> bool:
        if black == full:
            return True
        if black in dead:
            return False
        forces = find_forces(g, black, config)
        if not forces:
            stuck.append(DerivationTrace(initial=start, steps=tuple(path), final=black))
            dead.add(black)
            return False
        for force in forces:
            path.append(force)
            if dfs(black | force.target):
                return True
            path.pop()
        dead.add(black)
        return False

    start = black
    if dfs(black):
        return DerivationTrace(initial=start, steps=tuple(path), final=full), stuck
    return None, stuck


def is_zero_forcing_set(
    g: ColoredDigraph,
    black: int,
    config: SearchConfig = DEFAULT_CONFIG,
) -> tuple[bool, DerivationTrace | None]:
    """Whether some chronological list of forces colors every vertex black."""
    witness, _ = derivation_outcomes(g, black, config)
    return (witness is not None), witness
