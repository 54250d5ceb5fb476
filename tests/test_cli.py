"""Command-line behavior: exit codes, JSON output, round trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import colored_ssc
from colored_ssc.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_SEARCH_CAP, EXIT_UNDECIDED, main
from colored_ssc.corpus import GRAPH_IDS, load as load_fig, path as fig_path
from colored_ssc.graph import serialize, validate

from conftest import MALFORMED_FIELDS, scale_graph


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    @pytest.mark.parametrize("graph_id", GRAPH_IDS)
    def test_round_trip(self, capsys, graph_id):
        code, out, _ = run_cli(capsys, "validate", str(fig_path(graph_id)))
        assert code == EXIT_OK
        assert validate(json.loads(out)) == load_fig(graph_id)

    def test_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "colors": ["c1"], "edges": [[1, 1, 1]]}')
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == EXIT_INPUT_ERROR
        assert "self-loop" in err
        for fields in MALFORMED_FIELDS:
            bad.write_text(json.dumps({"n": 2, "colors": ["c1"], "edges": [[1, 2, 1]], **fields}))
            code, _, err = run_cli(capsys, "validate", str(bad))
            assert code == EXIT_INPUT_ERROR
            assert err.startswith("error:") and err.count("\n") == 1
            (name,) = fields
            assert f"field '{name}'" in err

    @pytest.mark.parametrize("command", [("validate",), ("oracle", "--json")])
    def test_duplicate_color_name(self, capsys, tmp_path, command):
        # realizations key colors by name, so oracle would draw one value for both
        bad = tmp_path / "twice.json"
        bad.write_text(json.dumps(
            {"n": 4, "colors": ["a", "a"], "edges": [[1, 2, 1], [2, 3, 1], [2, 4, 2]], "leaders": [1]}
        ))
        name, *flags = command
        code, out, err = run_cli(capsys, name, str(bad), *flags)
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith("error: ") and "'a'" in err

    def test_deep_nesting(self, tmp_path):
        # the JSON parser recurses once per level; run in a new interpreter,
        # so that a traceback would show on stderr
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        src = str(Path(colored_ssc.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "colored_ssc", "check", str(deep)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == EXIT_INPUT_ERROR and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "validate", "/nonexistent.json")
        assert code == EXIT_INPUT_ERROR

    def test_check_requires_leaders(self, capsys, tmp_path):
        doc = serialize(load_fig("fig5"))
        del doc["leaders"]
        target = tmp_path / "no_leaders.json"
        target.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "check", str(target))
        assert code == EXIT_INPUT_ERROR
        assert "leader" in err


class TestCheck:
    def test_fig4_controllable_via_zfs(self, capsys):
        code, out, _ = run_cli(capsys, "check", str(fig_path("fig4")), "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["verdict"] == "CONTROLLABLE" and report["method"] == "ZFS"

    def test_fig5_controllable_via_eeo(self, capsys):
        code, out, _ = run_cli(capsys, "check", str(fig_path("fig5")), "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["method"] == "EEO"
        assert report["edge_operations"]["complete"]

    def test_single_leader_undecided_with_counterexample(self, capsys, tmp_path):
        doc = serialize(load_fig("fig5"))
        doc["leaders"] = [1]
        target = tmp_path / "fig5_single.json"
        target.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, "check", str(target), "--json", "--oracle", "--trials", "20"
        )
        assert code == EXIT_UNDECIDED
        report = json.loads(out)
        assert report["verdict"] == "UNDECIDED"
        assert report["oracle"]["verdict"] == "COUNTEREXAMPLE"
        assert report["oracle"]["failures"]

    def test_text_reports_oracle_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "check", str(fig_path("fig5")), "--oracle", "--trials", "5")
        assert code == EXIT_OK
        assert out == "fig5: CONTROLLABLE (method EEO)\noracle: CORROBORATED (5 trials)\n"

    def test_text_reports_oracle_counterexample(self, capsys, tmp_path):
        target = tmp_path / "edgeless.json"
        target.write_text(json.dumps({"n": 3, "colors": [], "edges": [], "leaders": [1]}))
        code, out, _ = run_cli(capsys, "check", str(target), "--oracle")
        assert code == EXIT_UNDECIDED
        assert out == (
            "edgeless: UNDECIDED (method NONE)\n"
            "oracle: COUNTEREXAMPLE at seed offset 0 (100 trials)\n"
        )

    def test_text_reports_budget_exhausted(self, capsys):
        path = str(fig_path("fig5"))
        code, out, _ = run_cli(capsys, "check", path, "--budget", "1")
        assert code == EXIT_UNDECIDED
        assert out == "fig5: UNDECIDED (method NONE, budget exhausted)\n"
        _, out, _ = run_cli(capsys, "check", path, "--budget", "1", "--json")
        assert json.loads(out)["edge_operations"]["budget_exhausted"] is True

    def test_deep_search_gets_a_verdict(self, capsys, tmp_path):
        # leaders 1 and 2 share a one-color fan to 3 and 4 that no force can
        # pass, and the path 5 -> ... -> 38 -> 3 gives the fan 34 more colors
        # to turn to: a search with every recoloring a stage of its own walks
        # deeper than the interpreter's recursion limit, and the search
        # modulo recoloring exhausts the space in 3 stages
        edges = [[1, 3, 1], [1, 4, 1], [2, 3, 1], [2, 4, 1]]
        edges += [[v, v + 1, v - 3] for v in range(5, 38)] + [[38, 3, 35]]
        colors = [f"c{i}" for i in range(1, 36)]
        doc = {"n": 39, "colors": colors, "edges": edges, "leaders": [1, 2]}
        target = tmp_path / "deep.json"
        target.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", str(target), "--json")
        assert (code, err) == (EXIT_UNDECIDED, "")
        assert json.loads(out)["verdict"] == "UNDECIDED"
        code, _, err = run_cli(capsys, "eeo-derive", str(target))
        assert (code, err) == (EXIT_OK, "")

    def test_exit_codes_stable(self, capsys):
        argv = ("check", str(fig_path("fig8")), "--json", "--oracle", "--seed", "7")
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


class TestUsage:
    @pytest.mark.parametrize(
        "flags",
        [
            ("check", "--bogus"),
            ("check", "--max-source", "2"),
            ("forcing", "--max-source", "1"),
            ("oracle", "--tolerance", "1e-9"),
            # --json and --seed exist only on the commands that read them
            ("validate", "--json"),
            ("validate", "--seed", "1"),
            ("bipartite", "--x", "1", "--seed", "-2"),
            ("forcing", "--seed", "-1"),
            ("forcing", "--greedy", "--seed", "-1"),
            ("eeo-derive", "--seed", "2"),
            ("export-dot", "--json"),
            ("export-dot", "--stage", "1", "--seed", "3"),
        ],
    )
    def test_usage_error_is_input_error(self, capsys, flags):
        # argparse's own exit code 2 would read as UNDECIDED
        command, *rest = flags
        with pytest.raises(SystemExit) as exc:
            main([command, str(fig_path("fig5")), *rest])
        assert exc.value.code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "error: unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["check", "fig5", "--seed", "-1"], "--seed"),
            (["check", "fig5", "--oracle", "--seed", "-1"], "--seed"),
            (["oracle", "fig2", "--trials", "5", "--seed", "-2"], "--seed"),
            (["check", "fig5", "--budget", "-3"], "--budget"),
            (["eeo-derive", "fig5", "--budget", "0"], "--budget"),
            (["export-dot", "fig5", "--stage", "1", "--budget", "0"], "--budget"),
            (["oracle", "fig2", "--trials", "0"], "--trials"),
            (["check", "fig5", "--oracle", "--trials", "-2"], "--trials"),
            (["oracle", "fig2", "--seed", "-1"], "--seed"),
            (["check", "fig5", "--budget", "two"], "--budget"),
            (["export-dot", "fig5", "--stage", "-1"], "--stage"),
        ],
    )
    def test_out_of_range_option_is_input_error(self, capsys, argv, flag):
        command, graph_id, *rest = argv
        with pytest.raises(SystemExit) as exc:
            main([command, str(fig_path(graph_id)), *rest])
        assert exc.value.code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {flag}:" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "fig5", "--seed", "7"], "nothing reads --seed without --oracle"),
            (["check", "fig5", "--json", "--seed", "0"], "nothing reads --seed without --oracle"),
            (["check", "fig5", "--trials", "5"], "nothing reads --trials without --oracle"),
            (
                ["check", "fig5", "--seed", "1", "--trials", "5", "--budget", "9"],
                "nothing reads --trials, --seed without --oracle",
            ),
            (["export-dot", "fig5", "--budget", "3"], "nothing reads --budget at --stage 0"),
            (["export-dot", "fig7a", "--stage", "0", "--budget", "1"], "nothing reads --budget at --stage 0"),
        ],
    )
    def test_unread_flag_is_input_error(self, capsys, argv, message):
        # a flag that changes nothing is refused, not silently ignored
        command, graph_id, *rest = argv
        code, out, err = run_cli(capsys, command, str(fig_path(graph_id)), *rest)
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err == f"error: {message}\n"

    def test_calls_share_no_state(self, capsys):
        # main reuses one parser for the process; no call may leak into the next
        path = str(fig_path("fig5"))
        plain = run_cli(capsys, "check", path, "--json")
        code, out, _ = run_cli(capsys, "check", path, "--json", "--oracle", "--trials", "3")
        assert code == EXIT_OK and "oracle" in json.loads(out)
        assert run_cli(capsys, "check", path, "--json") == plain
        assert "oracle" not in json.loads(plain[1])
        with pytest.raises(SystemExit) as exc:
            main(["check", path, "--budget", "0"])
        assert exc.value.code == EXIT_INPUT_ERROR
        assert "error: argument --budget:" in capsys.readouterr().err
        assert run_cli(capsys, "check", path, "--json") == plain

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--x", "a"), "--x: 'a' is not a vertex label"),
            (("--x", "1", "--coloring", "1,2.5"), "--coloring: '2.5' is not a vertex label"),
            # an empty --coloring is refused, not read as absent
            (("--x", "1", "--coloring", ""), "--coloring names no vertex"),
            (("--x", "1", "--coloring", ","), "--coloring names no vertex"),
            (("--x", "1,2", "--coloring", "1,3"), "--coloring must contain every --x vertex"),
        ],
        ids=["x", "coloring", "coloring-empty", "coloring-comma", "coloring-misses-x"],
    )
    def test_bad_label_names_flag_and_token(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "bipartite", str(fig_path("fig3")), *flags)
        assert (code, out, err) == (EXIT_INPUT_ERROR, "", f"error: {message}\n")

    @pytest.mark.parametrize("level", ["basic_format", "nonsense", "Warning", ""])
    def test_log_level_not_a_level_falls_back(self, level):
        # logging.BASIC_FORMAT is a string attribute, not a level; run in a
        # new interpreter, where basicConfig has no handler yet and reads it
        src = str(Path(colored_ssc.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "colored_ssc", "check", str(fig_path("fig5")), "--json"],
            env={**os.environ, "PYTHONPATH": src, "COLORED_SSC_LOG": level},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert json.loads(done.stdout)["verdict"] == "CONTROLLABLE"

    @pytest.mark.parametrize("argv", [["--version"], ["check", "--help"]])
    def test_help_and_version_exit_ok(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK


class TestForcing:
    def test_fig8_witness_json(self, capsys):
        code, out, _ = run_cli(capsys, "forcing", str(fig_path("fig8")), "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["zero_forcing"] is True
        assert report["forces"] == [
            {"source": [1, 2, 3, 4], "target": [6, 7, 8, 9], "class_signature": 1}
        ]

    def test_greedy_policy_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "forcing", str(fig_path("fig8")), "--greedy", "--json"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["final"] == [1, 2, 3, 4, 5, 6]
        assert report["zero_forcing"] is False


class TestSearchCap:
    """Inputs past a search cap exit cleanly with one error line."""

    @pytest.fixture
    def wide(self, tmp_path):
        # 15 leaders, each pointing at all 15 followers: the search lists
        # the 15 singletons and the full set, whose 15 x 15 slice is past
        # the determinant cap of 12
        doc = {
            "n": 30,
            "colors": ["c1"],
            "edges": [[t, h, 1] for t in range(1, 16) for h in range(16, 31)],
            "leaders": list(range(1, 16)),
        }
        target = tmp_path / "wide.json"
        target.write_text(json.dumps(doc))
        return str(target)

    @pytest.mark.parametrize("command", ["check", "forcing"])
    def test_exit_code(self, capsys, wide, command):
        code, out, err = run_cli(capsys, command, wide)
        assert code == EXIT_SEARCH_CAP
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_greedy_truncates_instead(self, capsys, wide):
        code, out, _ = run_cli(capsys, "forcing", wide, "--greedy", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["truncated"] is True

    def test_greedy_text_warns_of_truncation(self, capsys, wide):
        code, out, _ = run_cli(capsys, "forcing", wide, "--greedy")
        assert code == EXIT_OK
        assert out.splitlines()[-1].startswith("warning: a search cap stopped the derivation")

    def test_bipartite_refuses_too_many_matchings(self, capsys, tmp_path):
        # a complete two-color 9 x 9 slice has 9! perfect matchings, past
        # bipartite.MATCHING_CAP: refused once the listing passes the cap
        t = 9
        doc = {
            "n": 2 * t,
            "colors": ["c1", "c2"],
            "edges": [[x, t + y, 1 + (x + y) % 2] for x in range(1, t + 1) for y in range(1, t + 1)],
            "leaders": list(range(1, t + 1)),
        }
        target = tmp_path / "complete9.json"
        target.write_text(json.dumps(doc))
        source = ",".join(map(str, range(1, t + 1)))
        code, out, err = run_cli(capsys, "bipartite", str(target), "--x", source, "--json")
        assert code == EXIT_SEARCH_CAP
        assert out == ""
        assert err == "error: matching enumeration capped at 65536 perfect matchings\n"

    @pytest.mark.parametrize(
        ("i", "cause"),
        [(16, "budget of 2**12 - 1 subsets"), (14, "symbolic determinant capped at 12")],
    )
    def test_scale_graph_past_a_cap(self, capsys, tmp_path, i, cause):
        # 30-vertex graphs of the scale family: one search lists more source
        # subsets than the budget allows, the other meets a 13 x 13 slice
        target = tmp_path / f"scale30_{i}.json"
        target.write_text(json.dumps(serialize(scale_graph(30, i))))
        code, out, err = run_cli(capsys, "check", str(target))
        assert code == EXIT_SEARCH_CAP
        assert out == ""
        assert err.startswith("error: ") and cause in err and err.count("\n") == 1


class TestBipartite:
    def test_fig3_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "bipartite", str(fig_path("fig3")), "--x", "1,2,3", "--json"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["nonsingular"] is True
        assert [c["signature"] for c in report["classes"]] == [0, -1]
        assert report["determinant"] == "-1*c2^2*c3"

    @pytest.mark.parametrize(
        "flags",
        [
            ("--x", "1,99"),
            ("--x", "0"),
            ("--x", "-1"),
            ("--x", ","),
            ("--x", ""),
            ("--x", "1,2,3", "--coloring", "1,2,3,7"),
            ("--x", "1", "--coloring", "0,1"),
        ],
    )
    def test_bad_labels_rejected(self, capsys, flags):
        code, out, err = run_cli(capsys, "bipartite", str(fig_path("fig3")), *flags)
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestOracleCommand:
    def test_fig2(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", str(fig_path("fig2")), "--trials", "10", "--json"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report == {"verdict": "CORROBORATED", "trials": 10, "failures": []}

    def test_samples_once_per_trial(self, capsys, monkeypatch):
        import colored_ssc.cli as cli
        import colored_ssc.oracle as oracle

        calls = []
        original = oracle.sample_realization

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # both bindings, so a second sampling pass in the command would count
        monkeypatch.setattr(oracle, "sample_realization", counted)
        monkeypatch.setattr(cli, "sample_realization", counted)
        code, _, _ = run_cli(capsys, "oracle", str(fig_path("fig2")), "--trials", "10")
        assert code == EXIT_OK
        assert len(calls) == 10

    def test_counterexample_has_color_values_only(self, capsys, tmp_path):
        doc = serialize(load_fig("fig5"))
        doc["leaders"] = [1]
        target = tmp_path / "fig5_single.json"
        target.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "oracle", str(target), "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert set(report) == {"verdict", "trials", "failures"}
        assert report["verdict"] == "COUNTEREXAMPLE"
        (failure,) = report["failures"]
        assert set(failure) == {"color_values", "seed_offset"}


def fresh_interpreter(code: str) -> str:
    """The stdout of ``code`` run by a new interpreter on this package."""
    src = str(Path(colored_ssc.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout


class TestImport:
    def test_cli_loads_no_scipy(self):
        # scipy is a test-only dependency; importing it would about double
        # the start-up time of every command
        code = "import sys, colored_ssc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        assert fresh_interpreter(code).strip() == "[]"

    # What ``import colored_ssc.cli`` adds to a fresh interpreter: the
    # package, the stdlib modules argparse, dataclasses, json and logging
    # pull in, and numpy's deferred stub.  Every command pays for each of
    # them at start-up, so a new one must be added here on purpose.  Modules
    # the interpreter's own start-up loaded (with site: io, re, typing) cost
    # nothing more and are not counted.
    CLI_MODULES = [
        "__future__", "_ast", "_json", "_opcode", "_string", "argparse", "ast",
        "colored_ssc", "colored_ssc.analysis", "colored_ssc.bipartite",
        "colored_ssc.cli", "colored_ssc.edgeops", "colored_ssc.forcing",
        "colored_ssc.graph", "colored_ssc.oracle", "copy", "dataclasses", "dis",
        "gettext", "importlib.machinery", "inspect", "json", "json.decoder",
        "json.encoder", "json.scanner", "linecache", "logging", "numpy",
        "opcode", "string", "textwrap", "token", "tokenize", "traceback",
    ]

    def test_cli_loads_pinned_modules(self):
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import colored_ssc.cli\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        assert fresh_interpreter(code).split() == self.CLI_MODULES

    # In a fresh interpreter: every command but the two oracle ones on corpus
    # graphs, the numpy submodules loaded by then, the two oracle commands
    # on every corpus graph, and the numpy submodules loaded after them.
    DEFERRED_LOAD = """
import contextlib, io, json, sys
from colored_ssc.cli import main
from colored_ssc.corpus import GRAPH_IDS, path

def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code, out.getvalue(), err.getvalue()]

def numpy_submodules():
    return sorted(m for m in sys.modules if m.startswith("numpy."))

for graph_id in GRAPH_IDS:
    for argv in (["check", "--json"], ["forcing"], ["eeo-derive"], ["validate"]):
        run(argv[0], str(path(graph_id)), *argv[1:])
run("export-dot", str(path("fig7a")), "--stage", "1")
run("bipartite", str(path("fig3")), "--x", "1,2,3")
before = numpy_submodules()
outputs = [
    [run("oracle", str(path(g)), "--json"), run("check", str(path(g)), "--oracle", "--json")]
    for g in GRAPH_IDS
]
print(json.dumps({"before": before, "after": numpy_submodules(), "outputs": outputs}))
"""

    def test_numpy_loads_only_for_the_oracle(self, capsys):
        # the test process has numpy loaded already, so only a fresh
        # interpreter runs the oracle through the deferred import
        report = json.loads(fresh_interpreter(self.DEFERRED_LOAD))
        assert report["before"] == []
        assert report["after"]
        in_process = [
            [
                list(run_cli(capsys, "oracle", str(fig_path(g)), "--json")),
                list(run_cli(capsys, "check", str(fig_path(g)), "--oracle", "--json")),
            ]
            for g in GRAPH_IDS
        ]
        assert report["outputs"] == in_process

    def test_missing_numpy_is_an_import_error(self):
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None  # blocks the import, as a missing numpy would\n"
            "try:\n"
            "    import colored_ssc.cli\n"
            "except ImportError as exc:\n"
            "    print(exc)\n"
        )
        assert fresh_interpreter(code).strip() == "colored_ssc.oracle needs numpy, which is not installed"


class TestSoundnessTripwire:
    """A counterexample against a positive verdict must abort, not report."""

    def test_analyze_raises(self, monkeypatch):
        import colored_ssc.analysis as analysis
        from colored_ssc.oracle import OracleVerdict, sample_realization

        g = load_fig("fig4")
        fake = OracleVerdict(
            corroborated=False,
            trials=1,
            counterexample=sample_realization(g, 0),
            seed_offset=0,
        )
        monkeypatch.setattr(analysis, "sampled_verdict", lambda *a, **k: fake)
        with pytest.raises(analysis.SoundnessError):
            analysis.analyze(g, use_oracle=True)

    def test_cli_exit_code(self, capsys, monkeypatch):
        import colored_ssc.analysis as analysis
        from colored_ssc.cli import EXIT_SOUNDNESS
        from colored_ssc.oracle import OracleVerdict, sample_realization

        g = load_fig("fig4")
        fake = OracleVerdict(
            corroborated=False,
            trials=1,
            counterexample=sample_realization(g, 0),
            seed_offset=0,
        )
        monkeypatch.setattr(analysis, "sampled_verdict", lambda *a, **k: fake)
        code, _, err = run_cli(capsys, "check", str(fig_path("fig4")), "--oracle")
        assert code == EXIT_SOUNDNESS
        assert "soundness" in err


class TestExportDot:
    def test_stage0(self, capsys):
        code, out, _ = run_cli(capsys, "export-dot", str(fig_path("fig2")))
        assert code == EXIT_OK
        assert out.count("->") == 8

    def test_stage1_drops_removed_edges(self, capsys):
        code, out, _ = run_cli(
            capsys, "export-dot", str(fig_path("fig7a")), "--stage", "1"
        )
        assert code == EXIT_OK
        assert out.count("->") == 18
        assert "  1 -> 3 " not in out and "  1 -> 12 " not in out

    def test_unknown_stage(self, capsys):
        code, _, err = run_cli(
            capsys, "export-dot", str(fig_path("fig7a")), "--stage", "9"
        )
        assert code == EXIT_INPUT_ERROR
        assert "stage" in err

    def test_eeo_dot_dir(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "eeo-derive", str(fig_path("fig5")),
            "--dot-dir", str(tmp_path / "stages"),
        )
        assert code == EXIT_OK
        written = sorted(p.name for p in (tmp_path / "stages").glob("*.dot"))
        assert written == ["stage0.dot", "stage1.dot", "stage2.dot"]
