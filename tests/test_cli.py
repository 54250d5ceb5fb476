"""Command-line behavior: exit codes, JSON output, round trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import colored_ssc
from colored_ssc import serialize, validate
from colored_ssc.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_SEARCH_CAP, EXIT_UNDECIDED, main
from colored_ssc.corpus import GRAPH_IDS, load as load_fig, path as fig_path

from conftest import MALFORMED_FIELDS


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

    def test_exit_codes_stable(self, capsys):
        first = run_cli(capsys, "check", str(fig_path("fig8")), "--json", "--seed", "7")
        second = run_cli(capsys, "check", str(fig_path("fig8")), "--json", "--seed", "7")
        assert first == second


class TestUsage:
    @pytest.mark.parametrize(
        "flags",
        [
            ("check", "--bogus"),
            ("check", "--max-source", "2"),
            ("forcing", "--max-source", "1"),
            ("oracle", "--tolerance", "1e-9"),
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
            (["forcing", "fig2", "--seed", "-1"], "--seed"),
            (["forcing", "fig2", "--greedy", "--seed", "-1"], "--seed"),
            (["bipartite", "fig3", "--x", "1", "--seed", "-2"], "--seed"),
            (["check", "fig5", "--budget", "-3"], "--budget"),
            (["eeo-derive", "fig5", "--budget", "0"], "--budget"),
            (["export-dot", "fig5", "--stage", "1", "--budget", "0"], "--budget"),
            (["oracle", "fig2", "--trials", "0"], "--trials"),
            (["check", "fig5", "--oracle", "--trials", "-2"], "--trials"),
            (["oracle", "fig2", "--seed", "-1"], "--seed"),
            (["check", "fig5", "--budget", "two"], "--budget"),
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
        # 15 leaders, each pointing at all 15 followers: 2**15 - 1 candidate
        # force sources, past the default budget of 2**12 - 1
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


class TestImport:
    def test_cli_loads_no_scipy(self):
        # scipy is a test-only dependency; importing it would about double
        # the start-up time of every command
        src = str(Path(colored_ssc.__file__).resolve().parents[1])
        code = "import sys, colored_ssc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert done.stdout.strip() == "[]"


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
