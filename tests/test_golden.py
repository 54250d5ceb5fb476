"""Golden certificates: ``check --json``, ``forcing --json`` (exhaustive and
greedy), ``eeo-derive --json``, ``oracle --json --seed 3`` and ``validate``
on every corpus graph must print exactly what ``golden_corpus.json`` holds,
and ``check --json --budget 200``, ``oracle --json --seed 3`` and
``forcing --json`` (exhaustive and greedy) over a fixed-seed random sweep
must print output with the stored sha256s.  The oracle sweep pins the color
values of the counterexamples it prints, which no corpus graph has.

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

import numpy as np
import pytest

from colored_ssc.cli import main
from colored_ssc.corpus import GRAPH_IDS, path as fig_path
from colored_ssc.graph import serialize

from conftest import random_digraph

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
}
SWEEP_SEED, SWEEP_GRAPHS = 2026, 300


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI run, captured in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_corpus(command: str, graph_id: str) -> tuple[int, str, str]:
    name, *flags = COMMANDS[command]
    return run([name, str(fig_path(graph_id)), *flags])


def sweep_sha256(sweep: str) -> str:
    """Digest of exit code, stdout and stderr of the sweep's command on each
    graph of a fixed-seed ``random_digraph`` sweep (n = 4-10).  Files are
    named by index, so the reported graph ids are stable."""
    name, *flags = SWEEPS[sweep]
    rng = np.random.default_rng(SWEEP_SEED)
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(SWEEP_GRAPHS):
            g = random_digraph(rng, n_min=4, n_max=10, edge_prob=0.3)
            path = Path(tmp) / f"g{i:03d}.json"
            path.write_text(json.dumps(serialize(g)))
            code, out, err = run([name, str(path), *flags])
            digest.update(f"{i} {code}\n{out}\n{err}\n".encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_corpus(golden):
    assert sorted(golden) == sorted([*GRAPH_IDS, *SWEEPS])
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


@pytest.mark.parametrize("sweep", ["sweep forcing --json", "sweep forcing --greedy --json"])
def test_random_forcing_sweep_digest(golden, sweep):
    assert sweep_sha256(sweep) == golden[sweep]


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
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
