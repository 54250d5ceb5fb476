"""PAR-2 charging, percentiles, failure handling, checks and workloads."""

from __future__ import annotations

import json
import signal
import time

import numpy as np
import pytest

import harness
from colored_ssc import cli
from colored_ssc.graph import serialize, validate
from workloads import ORACLE_SIZES, WORKLOADS, make_case


def outcome(i, seconds, failure=None):
    return harness.Outcome(i, seconds, failure, None, None, False, 0)


def test_par2_charges_failures_twice_the_limit():
    outs = [outcome(0, 0.5), outcome(1, 0.25, "timeout"), outcome(2, 0.1, "SearchBoundExceededError")]
    costs = harness.charged(outs, 5.0)
    assert costs.tolist() == [0.5, 10.25, 10.1]
    assert harness.timing_stats(costs)["par2_s"] == pytest.approx((0.5 + 10.25 + 10.1) / 3)


def test_p90_of_a_hundred_graphs_has_ten_samples_beyond():
    stats = harness.timing_stats(np.arange(1.0, 101.0))
    assert stats["graph_s_p50"] == pytest.approx(50.5)
    assert stats["graph_s_p90"] == pytest.approx(90.1)
    assert stats["tail_samples"] == 10


def test_any_failure_ranks_above_every_answer():
    outs = [outcome(i, 1.0 + i / 100) for i in range(90)] + [outcome(90 + i, 0.01, "x") for i in range(10)]
    stats = harness.timing_stats(harness.charged(outs, 2.0))
    assert stats["graph_s_p90"] > 1.9
    assert stats["tail_samples"] == 10


@pytest.fixture
def alarm():
    old = signal.signal(signal.SIGALRM, harness._alarm)
    yield
    signal.signal(signal.SIGALRM, old)


def test_timed_call_survives_crash_and_timeout(alarm):
    def crash(argv):
        raise RuntimeError("cap")

    def slow(argv):
        time.sleep(5)
        return 0

    def ok(argv):
        print("hello")
        return 2

    assert harness.timed_call(crash, [], 1.0)[1:] == (None, "", "RuntimeError")
    seconds, code, _, failure = harness.timed_call(slow, [], 0.05)
    assert (code, failure) == (None, "timeout") and seconds < 1.0
    assert harness.timed_call(ok, [], 1.0)[1:] == (2, "hello\n", None)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_check_output_must_agree_with_exit_code(tmp_path):
    case = make_case("forcing-mid", 1, 0)
    path = tmp_path / "g00000.json"
    report = {"graph_id": "g00000", "verdict": "UNDECIDED", "method": "NONE", "graph": case.doc}
    assert harness.judge_check(case, path, 2, json.dumps(report))[:2] == (None, None)
    failure, wrong, *_ = harness.judge_check(case, path, 0, json.dumps(report))
    assert failure == "bad-output" and wrong
    assert harness.judge_check(case, path, 1, "")[:2] == ("exit1", None)
    echo = dict(report, graph=dict(case.doc, leaders=[1]))
    assert harness.judge_check(case, path, 2, json.dumps(echo))[1]


def test_oracle_output_must_match_known_answer():
    chain = make_case("oracle-large", 1, 0)
    text = json.dumps({"verdict": "COUNTEREXAMPLE", "trials": 100})
    failure, wrong, _ = harness.judge_oracle(chain, 0, text)
    assert failure == "bad-output" and "known answer" in wrong
    text = json.dumps({"verdict": "CORROBORATED", "trials": 100})
    assert harness.judge_oracle(chain, 0, text) == (None, None, "CORROBORATED")


def test_corpus_gate_passes():
    assert harness.corpus_gate(cli.main) == []


def test_cases_are_deterministic_and_canonical():
    for name, w in WORKLOADS.items():
        for i in range(2 * w.block):
            a, b = make_case(name, 5, i), make_case(name, 5, i)
            assert a == b
            assert serialize(validate(a.doc)) == a.doc
        assert make_case(name, 5, 0) != make_case(name, 6, 0)


def _classic_closure(doc):
    out = {v: set() for v in range(1, doc["n"] + 1)}
    for t, h, _ in doc["edges"]:
        out[t].add(h)
    black = set(doc["leaders"])
    while True:
        new = {next(iter(out[v] - black)) for v in black if len(out[v] - black) == 1}
        if not new:
            return black
        black |= new


def test_oracle_families_have_their_known_answers():
    sizes = []
    for i in range(15):
        case = make_case("oracle-large", 2, i)
        doc = case.doc
        sizes.append(doc["n"])
        closure = _classic_closure(doc)
        if case.family == "chain":
            assert case.expected == "CORROBORATED"
            assert len(closure) == doc["n"]
        else:
            assert case.expected == "COUNTEREXAMPLE"
            last = doc["n"] - 2
            fan = sorted((h, c) for t, h, c in doc["edges"] if t == last and h > last)
            assert [h for h, _ in fan] == [last + 1, last + 2] and fan[0][1] == fan[1][1]
            assert not any(h > last for t, h, _ in doc["edges"] if t != last)
    assert sorted(set(sizes)) == list(ORACLE_SIZES)
    assert sizes.count(20) == 3


def test_verdict_comparison_skips_graphs_that_timed_out():
    a = [outcome(0, 1.0).digest_line(), outcome(1, 5.0, "timeout").digest_line(), outcome(2, 1.0).digest_line()]
    b = [a[0], outcome(1, 4.9).digest_line(), outcome(2, 1.0, "KeyError").digest_line()]
    assert harness.verdict_mismatches(a, a) == (0, 1)
    assert harness.verdict_mismatches(a, b) == (1, 1)
    assert harness.verdict_mismatches(a, a[:2]) == (3, 0)
