"""The tracer: restored originals, unchanged answers, span nesting."""

from __future__ import annotations

import types

import pytest

import harness
import tracing
from colored_ssc import cli
from colored_ssc.corpus import GRAPH_IDS, path as fig_path
from workloads import WORKLOADS, make_case


def test_restore_puts_every_original_back():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        patched = list(tracer._installed)
        assert len(patched) >= 15
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    assert not tracer._installed


def _answers(paths_and_argv):
    out = []
    for argv in paths_and_argv:
        _, code, text, failure = harness.timed_call(cli.main, argv, 60.0)
        out.append((code, text, failure))
    return out


def test_wrappers_change_no_answer(tmp_path):
    import json

    calls = [["check", str(fig_path(g)), "--json"] for g in GRAPH_IDS]
    for name, indices in (("forcing-mid", range(6)), ("forcing-scale", range(4)), ("oracle-large", (0, 1, 2))):
        for i in indices:
            case = make_case(name, 3, i)
            p = tmp_path / f"{name}-{i}.json"
            p.write_text(json.dumps(case.doc))
            argv = list(WORKLOADS[name].argv)
            calls.append([argv[0], str(p), *argv[1:]])
    plain = _answers(calls)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = _answers(calls)
    finally:
        tracer.restore()
    assert traced == plain
    assert len(tracer) > 0
    assert tracer.counts["oracle.samples"] > 0


def _fake_layers(tracer):
    ns = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def middle(x):
        return ns.inner(x) + ns.inner(x)

    def outer(x):
        return ns.middle(x) * 2

    def recursive(depth):
        return 0 if depth == 0 else 1 + ns.recursive(depth - 1)

    def broken():
        ns.inner(0)
        raise KeyError("boom")

    ns.inner, ns.middle, ns.outer, ns.recursive, ns.broken = inner, middle, outer, recursive, broken
    for attr in ("inner", "middle", "outer", "recursive", "broken"):
        tracer.patch(ns, attr, attr)
    return ns


def test_spans_nest_and_self_time_subtracts_children():
    tracer = tracing.Tracer()
    ns = _fake_layers(tracer)
    tracer.graph_index = 7
    assert ns.outer(1) == 8
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["outer", "middle", "inner", "inner"]
    assert list(tracer.parent) == [-1, 0, 1, 1]
    assert set(tracer.graph) == {7}
    inclusive, selves = tracer.times()
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    assert inclusive["outer"] == pytest.approx(dur[0])
    assert selves["outer"] == pytest.approx(dur[0] - dur[1])
    assert selves["middle"] == pytest.approx(dur[1] - dur[2] - dur[3])
    assert inclusive["inner"] == pytest.approx(dur[2] + dur[3])
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
    assert tracer.top_level_seconds("outer") == pytest.approx(dur[0])


def test_recursion_counts_outermost_span_once():
    tracer = tracing.Tracer()
    ns = _fake_layers(tracer)
    assert ns.recursive(3) == 3
    inclusive, selves = tracer.times()
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    assert len(dur) == 4
    assert inclusive["recursive"] == pytest.approx(dur[0])
    assert selves["recursive"] == pytest.approx(dur[0])


def test_exception_closes_span_and_is_counted():
    tracer = tracing.Tracer()
    ns = _fake_layers(tracer)
    with pytest.raises(KeyError):
        ns.broken()
    assert tracer.counts["broken!KeyError"] == 1
    assert all(e >= s > 0 for s, e in zip(tracer.start, tracer.end))
    assert not tracer._stack
    ns.inner(1)
    assert tracer.parent[-1] == -1
