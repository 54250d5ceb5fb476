"""Shared helpers: label conversions, corpus access, random generators,
and the all-subsets reference for force enumeration."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from colored_ssc import (
    ColoredDigraph,
    Force,
    is_color_perfect,
    vset,
    vset_from_labels,
    vset_labels,
    vset_members,
    white_out_neighbors,
)
from colored_ssc.bipartite import ColoredBipartite, standalone_bipartite
from colored_ssc.corpus import load as load_fig


def labels(*vertices: int) -> int:
    """Bitmask from 1-based vertex labels."""
    return vset_from_labels(vertices)


def members1(mask: int) -> tuple[int, ...]:
    return vset_labels(mask)


@pytest.fixture
def fig():
    return load_fig


def random_digraph(
    rng: np.random.Generator,
    n_min: int = 2,
    n_max: int = 7,
    max_colors: int = 3,
    edge_prob: float = 0.35,
    with_leaders: bool = True,
) -> ColoredDigraph:
    """Random colored digraph; palette trimmed to the colors actually used."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        k = int(rng.integers(1, max_colors + 1))
        edges = [
            (t, h, int(rng.integers(0, k)))
            for t in range(n)
            for h in range(n)
            if t != h and rng.random() < edge_prob
        ]
        if not edges:
            continue
        used = sorted({c for _, _, c in edges})
        remap = {c: i for i, c in enumerate(used)}
        leaders = None
        if with_leaders:
            m = int(rng.integers(1, n + 1))
            leaders = tuple(sorted(int(v) for v in rng.choice(n, size=m, replace=False)))
        return ColoredDigraph(
            n=n,
            edges=tuple((t, h, remap[c]) for t, h, c in edges),
            colors=tuple(f"c{i + 1}" for i in range(len(used))),
            leaders=leaders,
        )


def all_subsets_forces(
    g: ColoredDigraph, black: int, max_source: int | None = None
) -> list[Force]:
    """Reference force list: every subset of the black set, by size then
    lexicographically, tested with the color change rule.  No pruning and
    no cap, so ``find_forces`` can be checked against it."""
    members = vset_members(black)
    limit = len(members) if max_source is None else min(max_source, len(members))
    forces = []
    for size in range(1, limit + 1):
        for subset in combinations(members, size):
            source = vset(subset)
            target = white_out_neighbors(g, source, black)
            if not target or target.bit_count() != size:
                continue
            force = is_color_perfect(g, source, black)
            if force is not None:
                forces.append(force)
    return forces


def random_bipartite(
    rng: np.random.Generator,
    t_max: int = 5,
    max_colors: int = 3,
    edge_prob: float = 0.5,
) -> ColoredBipartite:
    """Random square colored bipartite graph (possibly with isolated vertices)."""
    t = int(rng.integers(1, t_max + 1))
    k = int(rng.integers(1, max_colors + 1))
    edges = [
        (x, y, int(rng.integers(0, k)))
        for x in range(t)
        for y in range(t)
        if rng.random() < edge_prob
    ]
    return standalone_bipartite(t, edges, k)


# One line per acceptance criterion, printed after the run so the verdicts
# are visible without -s.
ACCEPTANCE_RESULTS: list[tuple[str, bool]] = []


def record_criterion(name: str, passed: bool) -> None:
    ACCEPTANCE_RESULTS.append((name, passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {name}")
