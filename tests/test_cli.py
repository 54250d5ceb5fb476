"""Command-line behavior: exit codes, JSON output, round trips."""

from __future__ import annotations

import json

import pytest

from colored_ssc import serialize, validate
from colored_ssc.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_SEARCH_CAP, EXIT_UNDECIDED, main
from colored_ssc.corpus import GRAPH_IDS, load as load_fig, path as fig_path


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
        assert report["verdict"] == "CORROBORATED"
        assert report["margins"]["min"] > 0


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
