"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_run_scale_choices(self):
        args = build_parser().parse_args(["run", "fig1", "--scale", "quick"])
        assert args.artifact == "fig1"
        assert args.scale == "quick"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig1", "--scale", "enormous"])

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--workers", "0"], "--workers"),
            (["--workers", "two"], "--workers"),
            (["--retries", "-1"], "--retries"),
        ],
    )
    def test_bad_execution_flags_exit_2_naming_the_flag(self, capsys, flags, named):
        with pytest.raises(SystemExit) as exc:
            main(["run", "tab1", "--scale", "quick", *flags])
        assert exc.value.code == 2
        assert f"argument {named}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--executor", "cluster"],
            ["--min-healthy-workers", "1"],
            ["--fault-plan", "{}"],
        ],
    )
    def test_removed_cluster_flags_exit_2(self, capsys, flags):
        """The socket-cluster flags were removed in 4.0; each is now an
        unrecognized argument, never silently ignored."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "tab1", "--scale", "quick", *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err

    def test_chaos_requires_live(self, capsys):
        """Only the live half of ``repro chaos`` remains."""
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--seed", "1"])
        assert exc.value.code == 2
        assert "--live" in capsys.readouterr().err


class TestCommands:
    def test_list_prints_all_artifacts(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for artifact in ("fig1", "fig12", "tab1", "tab4"):
            assert artifact in out

    def test_hardware_prints_table2(self, capsys):
        assert main(["hardware"]) == 0
        out = capsys.readouterr().out
        assert "Processor" in out
        assert "NUMA" in out

    def test_run_tab1(self, capsys):
        assert main(["run", "tab1", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Treadmill" in out
        assert "regenerated at scale=quick" in out

    def test_run_fig1_quick(self, capsys):
        assert main(["run", "fig1", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Open-Loop" in out


class TestOutFile:
    def test_run_writes_report_file(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "tab1.txt"
        assert main(["run", "tab1", "--scale", "quick", "--out", str(out)]) == 0
        text = out.read_text()
        assert "Treadmill" in text
        assert "Table I" in text
