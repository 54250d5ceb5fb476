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
A set is not balancing when the fixpoint stops short of every vertex.

The sampled verdict first takes the rounds that the graph's support
decides: a balance equation with one white coefficient forces that
vertex whatever the nonzero color values are, and equations left with
two or more white coefficients force nothing more while no two of them
share a white vertex.  Those rounds run on bitmasks, with no realization
and no tolerance.  When they reach every vertex the verdict is
CORROBORATED without a single draw; when they end on a fixpoint short of
it, no realization is balancing, and the verdict is COUNTEREXAMPLE at
trial 0 with no zero extension run.  Otherwise the trials of the graph
resume, in lockstep, from the first round the support does not decide:
one stack of realizations, one stacked null basis, one numpy call per
reflection and per forced-vertex test for the whole stack.
A round admits only equations that still have a white coefficient.  A
batch whose realizations disagree on a rank decision, which generic draws
almost never do, runs each of them again on its own.  Trial 0 runs alone
first, since a graph that is not balancing fails at a generic
realization; the rest run in batches whose stacked arrays stay within
``BATCH_BYTES``.

numpy is loaded on first use, not on import: the commands that never reach
this module's routines (every one but ``oracle`` and ``check --oracle``)
start without it.  No module-level code may touch an attribute of ``np``.
"""

from __future__ import annotations

import importlib.util
import logging
import sys
from dataclasses import dataclass
from itertools import chain

from .graph import ColoredDigraph, iter_vset, vset


def _lazy_import(name: str):
    """The module ``name``, executed on its first attribute access; the one
    already imported, if any."""
    spec = importlib.util.find_spec(name)  # None also when blocked in sys.modules
    if spec is None:
        raise ImportError(f"colored_ssc.oracle needs {name}, which is not installed", name=name)
    if name in sys.modules:
        return sys.modules[name]
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")

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
# Both decisions compare squared norms against squared cutoffs.
_SQUARED_TOL = NULLSPACE_REL_TOL**2

# Sampled color values keep at least this magnitude.
MIN_MAGNITUDE = 0.5
# A color value's sign, indexed by one random bit.
_SIGNS = (-1.0, 1.0)

# The trials of one graph run in lockstep batches.  Each stacked array of a
# batch stays within this many bytes: the realizations W hold n * n doubles
# per trial, the null bases at most that.
BATCH_BYTES = 1 << 19


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
    rng = np.random.Generator(np.random.PCG64(seed))  # what default_rng(seed) builds
    magnitudes = rng.uniform(MIN_MAGNITUDE, 2.0, size=len(g.colors)).tolist()
    signs = rng.integers(0, 2, size=len(g.colors)).tolist()  # the draw of choice(_SIGNS)
    return Realization(
        color_values={name: m * _SIGNS[s] for name, m, s in zip(g.colors, magnitudes, signs)}
    )


def _exact_rounds(
    out_masks: tuple[int, ...], zero: int, full: int
) -> tuple[tuple[tuple[int, int], ...], int, bool]:
    """The rounds of zero extension from ``zero`` that the support decides,
    the zero set they end on, and whether that set is the fixpoint on every
    realization.

    Vertex j's balance equation has a nonzero coefficient at each
    out-neighbor of j, whatever the color values.  Each round reads every
    equation of the zero set that still has a white unknown: the ones
    carried from earlier rounds, restricted to the new white set, and
    those of the vertices the last round forced.  An equation with one
    unforced white vertex forces it; propagating that through the round's
    equations gives a set F.  When the equations left over keep pairwise
    disjoint sets of unforced white vertices, the round forces exactly F
    on every realization: each leftover equation has at least two nonzero
    coefficients and shares no unknown with another, so it has a solution
    nonzero on all its unknowns; these, with zeros on F and ones on the
    other white vertices, make one solution of the round that vanishes on
    F alone among the white vertices.  A round that forces nothing then
    ends on a fixpoint short of every vertex, so the starting set is
    balancing for no realization.  The rounds stop undecided at the first
    whose leftover equations share an unknown.
    """
    steps: list[tuple[int, int]] = []
    new = zero
    pending: list[int] = []  # the equations with a white unknown left
    while zero != full:
        white = full & ~zero
        for j in iter_vset(new):
            if s := out_masks[j] & white:
                pending.append(s)
        forced = 0
        while True:
            singles = 0
            for s in pending:
                if not s & (s - 1):
                    singles |= s
            if not singles:
                break
            forced |= singles
            pending = [s & ~forced for s in pending if s & ~forced]
        seen = 0
        for s in pending:
            if s & seen:  # two leftover equations share an unknown
                return tuple(steps), zero, False
            seen |= s
        if not forced:
            return tuple(steps), zero, True
        steps.append((zero, forced))
        zero |= forced
        new = forced
    return tuple(steps), zero, True


def _stacked_adjacency(g: ColoredDigraph, realizations: list[Realization]) -> np.ndarray:
    """W of each realization, stacked B x n x n, filled by one assignment."""
    flat = np.fromiter(chain.from_iterable(g.edges), dtype=np.intp, count=3 * len(g.edges))
    tails, heads, colors = flat.reshape(-1, 3).T
    values = np.array(
        [[r.color_values[name] for name in g.colors] for r in realizations], dtype=float
    )
    w = np.zeros((len(realizations), g.n, g.n))
    w[:, heads, tails] = values[:, colors]
    return w


def _zero_extension(
    w: np.ndarray, zero: int, steps: tuple[tuple[int, int], ...] = ()
) -> list[ZeroExtensionTrace] | None:
    """Zero extension from ``zero`` on each realization of the stack ``w``
    (B x n x n), run in lockstep: one trace per realization, or None at the
    first rank decision the realizations disagree on.  ``steps`` are the
    rounds that led to ``zero``, the prefix of each trace.

    A basis has one column per white vertex, and its orthonormal rows span
    the solutions x of the balance equations ``x @ w[white, j] = 0`` of
    the zero vertices j admitted so far.  It starts as the identity.
    Admitting an independent equation reflects its direction onto the
    first row, which is dropped.  A forced vertex loses its column, which
    is zero up to rounding, so the rows stay orthonormal and span the
    solutions on the remaining white vertices.  The basis is stored
    transposed, so that a forced vertex drops a row and the forced-vertex
    test sums along contiguous rows.

    While the realizations agree on every rank decision (whether an
    equation is independent, and which vertices a round forces) they
    share the white set and the row count, so the stack keeps one stacked
    basis, and each reflection and each forced-vertex test is one numpy
    call for all of them.  A stack of one never disagrees, so running each
    realization of a stack that does on its own gives the trace it gives
    alone.

    An equation with no white coefficient is zero in basis coordinates,
    dependent in every member, so a round admits only the others.
    """
    n = w.shape[-1]
    white = np.array([v for v in range(n) if not zero >> v & 1], dtype=np.intp)
    basis = np.zeros((len(w), len(white), len(white)))
    basis[:, range(len(white)), range(len(white))] = 1.0
    wt = w.mT  # row j of each holds the coefficients of vertex j's equation
    limits = _SQUARED_TOL * np.vecdot(wt, wt).T[:, :, None, None]
    # out_masks[j]: the vertices with a nonzero coefficient in vertex j's
    # equation in some member of the stack
    support = np.packbits(np.any(wt, axis=0), axis=1, bitorder="little")
    out_masks = [int.from_bytes(row.tobytes(), "little") for row in support]
    admit = [j for j in iter_vset(zero) if out_masks[j] & ~zero]
    initial = steps[0][0] if steps else zero
    steps = list(steps)
    while len(white):
        for j in admit:
            m = wt[:, j : j + 1, white] @ basis  # the equation in basis coordinates
            square = m @ m.mT
            count = np.count_nonzero(square > limits[j])  # members it is independent in
            if not count:
                continue
            if count < len(w):
                return None
            # Householder reflection with normal v = m + a e0, where
            # |a| = |m| takes the sign of m0; then v @ v = 2 a v0.
            head = m[:, :, :1]
            a = np.copysign(np.sqrt(square), head)
            head += a
            u = basis @ m.mT
            u /= a * head
            basis[:, :, 1:] -= u * m[:, :, 1:]
            basis = basis[:, :, 1:]
        # The basis norm is sqrt(rows), its rows being orthonormal; with no
        # row left, every white vertex is forced.
        forced = np.vecdot(basis, basis) <= _SQUARED_TOL * basis.shape[2]
        pattern = forced[0]
        if (forced != pattern).any():
            return None
        forced_list = white[pattern].tolist()
        if not forced_list:
            break
        forced_mask = vset(forced_list)
        steps.append((zero, forced_mask))
        zero |= forced_mask
        admit = [j for j in forced_list if out_masks[j] & ~zero]
        keep = ~pattern
        white = white[keep]
        basis = basis[:, keep]
    return [ZeroExtensionTrace(initial=initial, steps=tuple(steps), final=zero)] * len(w)


def zero_extension_derived_set(w: np.ndarray, zero: int) -> ZeroExtensionTrace:
    """Propagate zeros through balance equations until a fixpoint.

    Each round, every white vertex whose coordinate vanishes across the
    entire null space of the equations at the current zero set joins the
    zero set.  The fixpoint does not depend on the order in which forced
    vertices are admitted.
    """
    return _zero_extension(w[None], zero)[0]


def is_balancing_set(w: np.ndarray, zero: int) -> bool:
    """Whether zero extension from ``zero`` reaches every vertex."""
    n = w.shape[0]
    return zero_extension_derived_set(w, zero).final == (1 << n) - 1


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
    deterministically from the seed so failures reproduce.  When the rounds
    the support decides reach every vertex, every realization is balancing
    and none is drawn.  When they end on a fixpoint short of every vertex,
    no realization is balancing: the counterexample is trial 0's, the one
    realization drawn, and no zero extension runs.  Otherwise the trials
    resume from where those rounds stop: trial 0 alone, the rest in
    lockstep batches within ``BATCH_BYTES``, each realization of a batch
    that disagrees on a rank decision on its own; a batch reports its
    lowest failing trial, so the verdict is the one a loop over the trials
    in order gives.
    """
    if trials < 1:
        raise InvalidTrialsError(f"trials must be >= 1, got {trials}")
    if leader_mask is None:
        if not g.leaders:
            raise NoLeadersError("graph has no leader set")
        leader_mask = g.leader_mask
    steps, zero, decided = _exact_rounds(g.out_masks, leader_mask, g.full_mask)
    if zero == g.full_mask:
        log.debug("support reached all %d vertices after %d rounds", g.n, len(steps))
        return OracleVerdict(corroborated=True, trials=trials)
    if decided:
        log.debug(
            "support stopped at %d of %d vertices: not balancing anywhere",
            zero.bit_count(),
            g.n,
        )
        return OracleVerdict(
            corroborated=False,
            trials=trials,
            counterexample=sample_realization(g, seed),
            seed_offset=0,
        )
    log.debug("floats resumed at round %d", len(steps))
    batch = max(1, BATCH_BYTES // (8 * g.n * g.n))
    start, stop = 0, 1  # trial 0 alone: a graph that is not balancing fails there
    while start < trials:
        realizations = [sample_realization(g, seed + offset) for offset in range(start, stop)]
        w = _stacked_adjacency(g, realizations)
        traces = _zero_extension(w, zero, steps) or [
            _zero_extension(w[i : i + 1], zero, steps)[0] for i in range(len(w))
        ]
        for offset, r, trace in zip(range(start, stop), realizations, traces):
            if trace.final != g.full_mask:
                log.debug("counterexample at seed offset %d", offset)
                return OracleVerdict(
                    corroborated=False, trials=trials, counterexample=r, seed_offset=offset
                )
        start, stop = stop, min(trials, stop + batch)
    return OracleVerdict(corroborated=True, trials=trials)
