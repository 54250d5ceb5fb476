"""Numerical ground truth: sampled realizations and the balancing test.

Graph-theoretic certificates are universally quantified over edge-weight
realizations; this module provides the per-realization side.  It samples
color values and computes zero-extension derived sets from the balance
equations.  A leader set is balancing for a weighted graph W exactly when
(W + D, B) is controllable for every diagonal D, so the balancing test is
the package's one numerical test: it decides controllability over the
free diagonal without drawing one.  Zero extension keeps one orthonormal
null basis of the admitted balance equations for the whole fixpoint: each
equation that turns out independent removes one direction by a
Householder reflection, and each forced vertex removes its coordinate.
When a set is not balancing, :func:`uncontrollable_witness` turns that
basis into a diagonal that makes the pair uncontrollable.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .graph import ColoredDigraph, iter_vset, vset

log = logging.getLogger("colored_ssc.oracle")

# Both rank decisions of zero extension are relative to this fraction.  A
# balance equation is dependent when its component in the current null
# space is below it times the norm of its column of W; a white coordinate
# is forced to zero when its column of the null basis is below it times
# the basis norm.  An eps-scaled cutoff is too tight for the first
# decision: the rounding of earlier reflections leaves a dependent
# equation a component of a few eps, and admitting it removes a direction
# the solution space really has.
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


def _zero_extension(
    w: np.ndarray, zero: int
) -> tuple[ZeroExtensionTrace, np.ndarray, np.ndarray]:
    """Zero extension from ``zero``, with the null basis it ends on and
    the white vertices that index its columns.

    The basis has one column per white vertex, and its orthonormal rows
    span the solutions x of the balance equations ``x @ w[white, j] = 0``
    of the zero vertices j admitted so far.  It starts as the identity.
    Admitting an independent equation reflects its direction onto the
    first row, which is dropped.  A forced vertex loses its column, which
    is zero up to rounding, so the rows stay orthonormal and span the
    solutions on the remaining white vertices.
    """
    n = w.shape[0]
    column_norms = np.linalg.norm(w, axis=0)
    white = np.array([v for v in range(n) if not zero >> v & 1], dtype=np.intp)
    basis = np.eye(len(white))
    admit = list(iter_vset(zero))
    steps: list[tuple[int, int]] = []
    initial = zero
    while len(white):
        for j in admit:
            m = basis @ w[white, j]
            size = math.sqrt(m @ m)
            if size > NULLSPACE_REL_TOL * column_norms[j]:
                m[0] += math.copysign(size, m[0])  # the reflection's normal
                basis = basis[1:] - (m[1:] * (2.0 / (m @ m)))[:, None] * (m @ basis)
        if len(basis):
            squares = np.einsum("ij,ij->j", basis, basis)
            forced = np.sqrt(squares) < NULLSPACE_REL_TOL * math.sqrt(squares.sum())
        else:
            forced = np.ones(len(white), dtype=bool)
        if not forced.any():
            break
        admit = white[forced].tolist()
        white = white[~forced]
        basis = basis[:, ~forced]
        forced_mask = vset(admit)
        steps.append((zero, forced_mask))
        zero |= forced_mask
    return ZeroExtensionTrace(initial=initial, steps=tuple(steps), final=zero), basis, white


def zero_extension_derived_set(w: np.ndarray, zero: int) -> ZeroExtensionTrace:
    """Propagate zeros through balance equations until a fixpoint.

    Each round, every white vertex whose coordinate vanishes across the
    entire null space of the equations at the current zero set joins the
    zero set.  The fixpoint does not depend on the order in which forced
    vertices are admitted.
    """
    return _zero_extension(w, zero)[0]


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
    trace, basis, white_members = _zero_extension(w, leader_mask)
    if trace.final == (1 << n) - 1:
        return None
    # A generic null vector is nonzero on every white vertex; prefer the
    # draw with the best min/max coordinate ratio so the solved-for
    # diagonal entries stay moderate.
    x_white = None
    best_ratio = 0.0
    for _ in range(64):
        candidate = rng.standard_normal(len(basis)) @ basis
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
