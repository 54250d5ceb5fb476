"""Numerical ground truth: sampled realizations and the balancing test.

Graph-theoretic certificates are universally quantified over edge-weight
realizations; this module provides the per-realization side.  It samples
color values and computes zero-extension derived sets by null-space
analysis of the balance equations.  A leader set is balancing for a
weighted graph W exactly when (W + D, B) is controllable for every
diagonal D, so the balancing test is the package's one numerical test:
it decides controllability over the free diagonal without drawing one.
When a set is not balancing, :func:`uncontrollable_witness` constructs a
diagonal that makes the pair uncontrollable.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .graph import ColoredDigraph, iter_vset, vset

log = logging.getLogger("colored_ssc.oracle")

# A white coordinate counts as forced to zero when its rows of the
# null-space basis fall below this fraction of the basis norm.
NULLSPACE_REL_TOL = 1e-8

# Sampled color values keep at least this magnitude.
MIN_MAGNITUDE = 0.5


class NoLeadersError(ValueError):
    pass


class InvalidTrialsError(ValueError):
    pass


@dataclass(frozen=True)
class Realization:
    """Concrete weights: one nonzero value per color name."""

    color_values: dict[str, float]

    def to_jsonable(self) -> dict:
        return {"color_values": dict(self.color_values)}


@dataclass(frozen=True)
class ZeroExtensionTrace:
    """Chronological zero extensions; each step is (zero set used, forced set)."""

    initial: int
    steps: tuple[tuple[int, int], ...]
    final: int


def sample_realization(g: ColoredDigraph, seed: int) -> Realization:
    """Deterministic random realization for the graph's palette.

    Color values have magnitude in ``[MIN_MAGNITUDE, 2]`` with random sign.
    No diagonal is drawn: the balancing test quantifies over all of them.
    """
    rng = np.random.default_rng(seed)
    magnitudes = rng.uniform(MIN_MAGNITUDE, 2.0, size=len(g.colors))
    signs = rng.choice((-1.0, 1.0), size=len(g.colors))
    return Realization(
        color_values={name: float(m * s) for name, m, s in zip(g.colors, magnitudes, signs)}
    )


def weighted_adjacency(g: ColoredDigraph, r: Realization) -> np.ndarray:
    """W with the weight of edge (tail, head) stored at [head, tail]."""
    w = np.zeros((g.n, g.n))
    for tail, head, color in g.edges:
        w[head, tail] = r.color_values[g.colors[color]]
    return w


def _forced_white(
    w: np.ndarray, zero_members: list[int], white_members: list[int]
) -> list[int]:
    """White vertices whose coordinate vanishes on the whole solution space
    of the balance equations attached to ``zero_members``."""
    system = w[np.ix_(white_members, zero_members)].T  # rows: equations at zero vertices
    basis = scipy.linalg.null_space(system)
    if basis.shape[1] == 0:
        return list(white_members)
    scale = np.linalg.norm(basis)
    rows = np.linalg.norm(basis, axis=1)
    return [v for v, r in zip(white_members, rows) if r < NULLSPACE_REL_TOL * scale]


def zero_extension_derived_set(w: np.ndarray, zero: int) -> ZeroExtensionTrace:
    """Propagate zeros through balance equations until a fixpoint.

    Each round solves the full system attached to the current zero set:
    every white vertex whose coordinate vanishes across the entire null
    space joins the zero set.  The fixpoint does not depend on the order
    in which forced vertices are admitted.
    """
    n = w.shape[0]
    initial = zero
    steps: list[tuple[int, int]] = []
    while True:
        white_members = [v for v in range(n) if not zero >> v & 1]
        if not white_members:
            break
        zero_members = list(iter_vset(zero))
        forced = _forced_white(w, zero_members, white_members)
        if not forced:
            break
        forced_mask = vset(forced)
        steps.append((zero, forced_mask))
        zero |= forced_mask
    return ZeroExtensionTrace(initial=initial, steps=tuple(steps), final=zero)


def is_balancing_set(w: np.ndarray, zero: int) -> bool:
    """Whether zero extension from ``zero`` reaches every vertex."""
    n = w.shape[0]
    return zero_extension_derived_set(w, zero).final == (1 << n) - 1


def uncontrollable_witness(
    w: np.ndarray, leader_mask: int, rng: np.random.Generator | None = None
) -> np.ndarray | None:
    """A diagonal making (W + diag, B) uncontrollable, or None if balancing.

    When zero extension sticks at D != V, a generic null vector of the
    stuck balance system is nonzero on every white vertex; solving each
    white vertex's own balance for the diagonal entry turns that vector
    into a left eigenvector orthogonal to the input directions.
    """
    rng = rng or np.random.default_rng(0)
    n = w.shape[0]
    trace = zero_extension_derived_set(w, leader_mask)
    if trace.final == (1 << n) - 1:
        return None
    zero_members = list(iter_vset(trace.final))
    white_members = [v for v in range(n) if v not in zero_members]
    system = w[np.ix_(white_members, zero_members)].T
    basis = scipy.linalg.null_space(system)
    # A generic null vector is nonzero on every white vertex; prefer the
    # draw with the best min/max coordinate ratio so the solved-for
    # diagonal entries stay moderate.
    x_white = None
    best_ratio = 0.0
    for _ in range(64):
        candidate = basis @ rng.standard_normal(basis.shape[1])
        top = float(np.max(np.abs(candidate), initial=0.0))
        if top == 0.0:
            continue
        ratio = float(np.min(np.abs(candidate))) / top
        if ratio > best_ratio:
            best_ratio, x_white = ratio, candidate / top
    if x_white is None or best_ratio < 1e-12:
        return None  # pathological draws; the stuck set itself already proves non-balancing
    x = np.zeros(n)
    x[white_members] = x_white
    diagonal = np.zeros(n)
    for j in white_members:
        diagonal[j] = -float(x @ w[:, j]) / x[j]
    return diagonal


@dataclass(frozen=True)
class OracleVerdict:
    """Sampled check of the balancing property over many realizations."""

    corroborated: bool
    trials: int
    counterexample: Realization | None = None
    seed_offset: int | None = None

    def to_jsonable(self) -> dict:
        out: dict = {
            "verdict": "CORROBORATED" if self.corroborated else "COUNTEREXAMPLE",
            "trials": self.trials,
            "failures": [],
        }
        if self.counterexample is not None:
            failure = self.counterexample.to_jsonable()
            failure["seed_offset"] = self.seed_offset
            out["failures"].append(failure)
        return out


def sampled_verdict(
    g: ColoredDigraph, leader_mask: int | None = None, trials: int = 100, seed: int = 0
) -> OracleVerdict:
    """Check the balancing property on independent realizations.

    Returns the first failing realization if any; trials are indexed
    deterministically from the seed so failures reproduce.
    """
    if trials < 1:
        raise InvalidTrialsError(f"trials must be >= 1, got {trials}")
    if leader_mask is None:
        if not g.leaders:
            raise NoLeadersError("graph has no leader set")
        leader_mask = g.leader_mask
    for offset in range(trials):
        r = sample_realization(g, seed + offset)
        w = weighted_adjacency(g, r)
        if not is_balancing_set(w, leader_mask):
            log.debug("counterexample at seed offset %d", offset)
            return OracleVerdict(
                corroborated=False, trials=trials, counterexample=r, seed_offset=offset
            )
    return OracleVerdict(corroborated=True, trials=trials)
