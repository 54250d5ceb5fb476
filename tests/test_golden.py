"""Golden certificates: ``check --json``, ``forcing --json`` (exhaustive and
greedy), ``eeo-derive --json``, ``oracle --json --seed 3`` and ``validate``
on every corpus graph must print exactly what ``golden_corpus.json`` holds,
and ``check --json --budget 200``, ``oracle --json --seed 3``,
``forcing --json`` (exhaustive and greedy) and ``eeo-derive --json --budget 2``
over a fixed-seed random sweep must print output with the stored sha256s.
The oracle sweep pins the color values of the counterexamples it prints,
which no corpus graph has; the budget-2 sweep pins the traces of searches
that spend their budget, which no other entry reaches.  A
digest of ``oracle --json`` over the n = 30-62 scale family pins the
lockstep batches at the target scale, which the small graphs of the sweep
never stack past a few rows; a digest of ``check --json`` over graphs 0-23
of each size pins the certificates and every exit-3 refusal of the force
search at the target scale, and one over graphs 0-23 of each density of
the dense62 family pins the refusals of denser 62-vertex graphs, where
most black sets pass the source budget.  A force walk over at most
``MAX_SOURCE_CAP`` candidates is never refused, and one over more lists
every subset it counts, so these two digests hold each refusal in place.
A digest of ``check --json`` over the n = 17-20 mid family, drawn as the
benchmark's forcing-scale graphs are, pins the force walks at the roots of
the stages that edge operations reach at that size; the sweep's graphs are
smaller (n = 4-10) and the scale family's sparser (edge probability
4.5 / n).

Refactors that should not change results are held to byte-identical output
by this gate.  After a change that is meant to alter output, regenerate the
file with ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Iterable

import pytest

from colored_ssc.cli import main
from colored_ssc.corpus import GRAPH_IDS, path as fig_path
from colored_ssc.graph import ColoredDigraph, serialize

from conftest import dense_graph, mid_graph, scale_graph, sweep_graphs

GOLDEN = Path(__file__).with_name("golden_corpus.json")
COMMANDS = {
    "check": ("check", "--json"),
    "forcing": ("forcing", "--json"),
    "forcing --greedy": ("forcing", "--greedy", "--json"),
    "eeo-derive": ("eeo-derive", "--json"),
    "oracle --seed 3": ("oracle", "--json", "--seed", "3"),
    "validate": ("validate",),
}
SWEEPS = {
    "sweep check --json --budget 200": ("check", "--json", "--budget", "200"),
    "sweep oracle --json --seed 3": ("oracle", "--json", "--seed", "3"),
    "sweep forcing --json": ("forcing", "--json"),
    "sweep forcing --greedy --json": ("forcing", "--greedy", "--json"),
    "sweep eeo-derive --json --budget 2": ("eeo-derive", "--json", "--budget", "2"),
}
SCALE_SWEEPS = {
    "scale oracle --json": ("oracle", "--json"),
    "scale check --json": ("check", "--json"),
}
SCALE_SIZES = (30, 40, 50, 62)
SCALE_GRAPHS = {"scale oracle --json": 12, "scale check --json": 24}
DENSE_SWEEP = "dense check --json"
DENSE_DEGREES, DENSE_GRAPHS = (3.0, 6.0, 9.0), 24
MID_SWEEP = "mid check --json"
MID_SIZES, MID_GRAPHS = (17, 18, 19, 20), 24


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI run, captured in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_corpus(command: str, graph_id: str) -> tuple[int, str, str]:
    name, *flags = COMMANDS[command]
    return run([name, str(fig_path(graph_id)), *flags])


def _digest(graphs: Iterable[ColoredDigraph], argv: tuple[str, ...]) -> str:
    """Digest of exit code, stdout and stderr of the command ``argv`` on
    each graph.  Files are named by index, so the reported graph ids are
    stable."""
    name, *flags = argv
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for i, g in enumerate(graphs):
            path = Path(tmp) / f"g{i:03d}.json"
            path.write_text(json.dumps(serialize(g)))
            code, out, err = run([name, str(path), *flags])
            digest.update(f"{i} {code}\n{out}\n{err}\n".encode())
    return digest.hexdigest()


def sweep_sha256(sweep: str) -> str:
    """The sweep's command digested over a fixed-seed ``random_digraph``
    sweep (n = 4-10)."""
    return _digest(sweep_graphs(), SWEEPS[sweep])


def scale_sha256(sweep: str) -> str:
    """The sweep's command digested over the first ``SCALE_GRAPHS[sweep]``
    graphs of each size of the scale family."""
    graphs = (scale_graph(n, i) for n in SCALE_SIZES for i in range(SCALE_GRAPHS[sweep]))
    return _digest(graphs, SCALE_SWEEPS[sweep])


def dense_sha256() -> str:
    """``check --json`` digested over graphs 0-23 of each density of the
    dense62 family."""
    graphs = (dense_graph(d, i) for d in DENSE_DEGREES for i in range(DENSE_GRAPHS))
    return _digest(graphs, ("check", "--json"))


def mid_sha256() -> str:
    """``check --json`` digested over graphs 0-23 of each size of the mid
    family."""
    graphs = (mid_graph(n, i) for n in MID_SIZES for i in range(MID_GRAPHS))
    return _digest(graphs, ("check", "--json"))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_corpus(golden):
    assert sorted(golden) == sorted([*GRAPH_IDS, *SWEEPS, *SCALE_SWEEPS, DENSE_SWEEP, MID_SWEEP])
    assert all(sorted(golden[g]) == sorted(COMMANDS) for g in GRAPH_IDS)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("graph_id", GRAPH_IDS)
def test_output_byte_identical(golden, graph_id, command):
    # the file keeps the parsed report for readable diffs; the CLI prints the
    # bytes of json.dumps(indent=2), so re-serializing restores them
    expected = golden[graph_id][command]
    code, out, err = run_corpus(command, graph_id)
    assert code == expected["exit"]
    assert out == json.dumps(expected["report"], indent=2) + "\n"
    assert err == ""


def test_random_sweep_digest(golden):
    sweep = "sweep check --json --budget 200"
    assert sweep_sha256(sweep) == golden[sweep]


def test_random_oracle_sweep_digest(golden):
    sweep = "sweep oracle --json --seed 3"
    assert sweep_sha256(sweep) == golden[sweep]


@pytest.mark.parametrize(
    "sweep",
    [
        "sweep forcing --json",
        "sweep forcing --greedy --json",
        "sweep eeo-derive --json --budget 2",
    ],
)
def test_random_forcing_sweep_digest(golden, sweep):
    assert sweep_sha256(sweep) == golden[sweep]


def test_scale_oracle_digest(golden):
    sweep = "scale oracle --json"
    assert scale_sha256(sweep) == golden[sweep]


def test_scale_check_digest(golden):
    # 70 CONTROLLABLE, 24 refused with exit 3 and 2 UNDECIDED
    sweep = "scale check --json"
    assert scale_sha256(sweep) == golden[sweep]


def test_dense_check_digest(golden):
    # 16 CONTROLLABLE and 56 refused with exit 3
    assert dense_sha256() == golden[DENSE_SWEEP]


def test_mid_check_digest(golden):
    # 63 CONTROLLABLE (6 by edge operations) and 33 UNDECIDED
    assert mid_sha256() == golden[MID_SWEEP]


if __name__ == "__main__":
    table: dict = {}
    for g in GRAPH_IDS:
        table[g] = {}
        for c in COMMANDS:
            code, out, err = run_corpus(c, g)
            assert not err, f"{c} on {g} wrote to stderr: {err}"
            table[g][c] = {"exit": code, "report": json.loads(out)}
    for sweep in SWEEPS:
        table[sweep] = sweep_sha256(sweep)
    for sweep in SCALE_SWEEPS:
        table[sweep] = scale_sha256(sweep)
    table[DENSE_SWEEP] = dense_sha256()
    table[MID_SWEEP] = mid_sha256()
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
