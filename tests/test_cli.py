"""Tests for the visapult command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main


class TestList:
    def test_lists_campaigns(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lan_e4500" in out
        assert "esnet_anl" in out


class TestCampaign:
    def test_scaled_campaign_runs(self, capsys):
        code = main(
            ["campaign", "lan_e4500", "--scaled", "--frames", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign lan-e4500-serial" in out
        assert "Mbps" in out

    def test_overlapped_flag(self, capsys):
        code = main(
            ["campaign", "lan_e4500", "--scaled", "--frames", "2",
             "--overlapped"]
        )
        assert code == 0
        assert "overlapped" in capsys.readouterr().out

    def test_nlv_plot(self, capsys):
        code = main(
            ["campaign", "lan_e4500", "--scaled", "--frames", "2", "--nlv"]
        )
        assert code == 0
        assert "BE_LOAD_START" in capsys.readouterr().out

    def test_unknown_campaign(self, capsys):
        assert main(["campaign", "nope"]) == 2
        assert "unknown campaign" in capsys.readouterr().err


class TestServeSim:
    def test_scaled_service_run_with_json(self, capsys, tmp_path):
        json_path = tmp_path / "BENCH_service.json"
        code = main(
            ["serve-sim", "sc99-multiviewer", "--scaled", "--frames", "2",
             "--viewers", "3", "--json", str(json_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "service campaign sc99-multiviewer" in out
        assert "cache hit ratio" in out
        import json

        payload = json.loads(json_path.read_text())
        assert payload["schema_version"] == 1
        assert payload["kind"] == "service"
        metrics = payload["metrics"]
        assert metrics["offered"] == 3
        assert {"aggregate_frame_rate", "cache_hit_ratio",
                "ttff_p95", "queued"} <= metrics.keys()

    def test_no_cache_flag(self, capsys):
        code = main(
            ["serve-sim", "--scaled", "--frames", "2", "--viewers", "2",
             "--no-cache"]
        )
        assert code == 0
        assert "0 hits" in capsys.readouterr().out

    def test_single_session_campaign_is_refused(self, capsys):
        assert main(["serve-sim", "lan_e4500"]) == 2
        assert "single-session" in capsys.readouterr().err

    def test_unknown_name(self, capsys):
        assert main(["serve-sim", "nope"]) == 2
        assert "unknown campaign" in capsys.readouterr().err


FLAKY_PLAN = str(
    Path(__file__).resolve().parents[1] / "examples/plans/sc99_flaky.json"
)


def assert_refused(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert captured.err.count("\n") == 1  # one line, no traceback


class TestRefusals:
    """A flag the campaign cannot honour, or a bad value, exits 2 with
    one line and no traceback -- never a silent no-op."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["campaign", "sc99-serve10k", "--tiles"], "tiles applies"),
            (["campaign", "sc99-serve10k", "--scaled"], "scaled applies"),
            (["campaign", "sc99-serve10k", "--stripe", "4+1"],
             "stripe applies"),
            (["campaign", "sc99-serve10k", "--frames", "1", "--faults",
              FLAKY_PLAN], "faults"),
            (["campaign", "lan_e4500", "--frames", "0"],
             "n_timesteps must be >= 1"),
            (["campaign", "lan_e4500", "--stripe", "bogus"],
             "stripe spec must look like"),
            (["serve-sim", "sc99-serve10k", "--frames", "0"],
             "frames must be >= 1"),
            (["serve-sim", "sc99-serve10k", "--tiles"], "tiles applies"),
            (["serve-sim", "sc99-serve10k", "--no-cache"],
             "--no-cache applies to full-world"),
            (["serve-sim", "sc99-serve10k", "--topology", "nope"],
             "unknown topology"),
            (["serve-sim", "sc99-multiviewer", "--topology", "sc99-wan"],
             "shard campaigns only"),
        ],
    )
    def test_rejected_with_one_line(self, capsys, argv, message):
        assert_refused(capsys, argv, message)

    def test_cli_and_json_forms_resolve_to_the_same_shard_campaign(
        self, monkeypatch
    ):
        import repro.core
        from repro.config import ExperimentConfig

        seen = []

        class Ran:
            def summary(self):
                return ""

        def fake_run(config, **kw):
            seen.append(config)
            return Ran()

        monkeypatch.setattr(repro.core, "run_campaign", fake_run)
        argv = ["serve-sim", "sc99-serve10k", "--topology", "sc99-wan",
                "--frames", "3", "--seed", "2"]
        assert main(argv) == 0
        experiment = ExperimentConfig(
            campaign="sc99-serve10k", topology="sc99-wan",
            frames=3, seed=2,
        )
        assert seen == [experiment.to_campaign_config()]


class TestTileFlags:
    """Bad tile flags exit 2 with one line, like a bad --stripe."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["campaign", "lan_e4500", "--scaled", "--frames", "1",
              "--tiles", "--tile-size", "0"], "tile_size must be >= 1"),
            (["campaign", "lan_e4500", "--scaled", "--frames", "1",
              "--tile-size", "0"], "--tile-size requires --tiles"),
            (["serve-sim", "sc99-multiviewer", "--tiles",
              "--tile-size", "0"], "tile_size must be >= 1"),
            (["serve-sim", "sc99-multiviewer", "--tile-size", "8"],
             "--tile-size requires --tiles"),
            (["serve-sim", "sc99-serve10k", "--tile-size", "8"],
             "--tile-size requires --tiles"),
        ],
    )
    def test_rejected_with_one_line(self, capsys, argv, message):
        assert_refused(capsys, argv, message)


class TestIperf:
    def test_esnet_single_stream(self, capsys):
        assert main(["iperf", "--wan", "esnet", "--megabytes", "50"]) == 0
        out = capsys.readouterr().out
        assert "Mbps" in out and "esnet" in out

    def test_parallel_streams(self, capsys):
        assert main(
            ["iperf", "--wan", "lan", "--streams", "4",
             "--megabytes", "20"]
        ) == 0
        assert "4 stream(s)" in capsys.readouterr().out


class TestArtifacts:
    def test_sweep_prints_angles(self, capsys):
        code = main(
            ["artifacts", "--angles", "0", "20", "--size", "24",
             "--image-size", "32"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.0 deg" in out and "20.0 deg" in out

    def test_axis_switching_mode(self, capsys):
        code = main(
            ["artifacts", "--angles", "80", "--size", "24",
             "--image-size", "32", "--axis-switching"]
        )
        assert code == 0
        assert "axis switching" in capsys.readouterr().out


class TestLive:
    def test_live_run(self, capsys, tmp_path):
        out_path = str(tmp_path / "frame.ppm")
        code = main(
            ["live", "--pes", "2", "--steps", "2", "--size", "24",
             "--image-size", "48", "--output", out_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "assembled 2 frames" in out
        assert open(out_path, "rb").read(2) == b"P6"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bench_subcommand_is_gone(self, capsys):
        # the in-package perf suites were retired for bench/run.py
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--quick"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
