"""Golden certificates: ``check --json`` and ``forcing --greedy --json`` on
every corpus graph must print exactly what ``golden_corpus.json`` holds.

Refactors that should not change results are held to byte-identical output
by this gate.  After a change that is meant to alter output, regenerate the
file with ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from colored_ssc.cli import main
from colored_ssc.corpus import GRAPH_IDS, path as fig_path

GOLDEN = Path(__file__).with_name("golden_corpus.json")
COMMANDS = {
    "check": ("check", "--json"),
    "forcing --greedy": ("forcing", "--greedy", "--json"),
}


def run(command: str, graph_id: str) -> tuple[int, str]:
    """Exit code and stdout of one CLI run, captured in process."""
    name, *flags = COMMANDS[command]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([name, str(fig_path(graph_id)), *flags])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_corpus(golden):
    assert sorted(golden) == sorted(GRAPH_IDS)
    assert all(sorted(golden[g]) == sorted(COMMANDS) for g in golden)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("graph_id", GRAPH_IDS)
def test_output_byte_identical(golden, graph_id, command):
    # the file keeps the parsed report for readable diffs; the CLI prints it
    # with json.dumps(indent=2), so re-serializing restores the exact bytes
    expected = golden[graph_id][command]
    code, out = run(command, graph_id)
    assert code == expected["exit"]
    assert out == json.dumps(expected["report"], indent=2) + "\n"


if __name__ == "__main__":
    table = {}
    for g in GRAPH_IDS:
        table[g] = {}
        for c in COMMANDS:
            code, out = run(c, g)
            table[g][c] = {"exit": code, "report": json.loads(out)}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
