"""The benchmark's tracer must find every name it wraps.

``perfbench/tracing.py`` rebinds module globals of the package by name, so
deleting or renaming one breaks traced benchmark runs.  The benchmark's own
tests are not part of this suite (their conftest shadows this one's), so
this test keeps the hooks checked here.
"""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        installed = list(tracer._installed)
        assert installed
        assert all(getattr(owner, attr) is not original for owner, attr, original in installed)
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is original for owner, attr, original in installed)
