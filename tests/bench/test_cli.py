"""Tests for the python -m repro.bench CLI."""

import os

import pytest

from repro.bench.__main__ import COMMANDS, build_parser, main
from repro.chaos.__main__ import main as chaos_main


class TestParser:
    def test_all_commands_registered(self):
        assert set(COMMANDS) == {
            "table1", "table2", "fig7", "fig8", "fig10", "fig11",
            "fig12", "fig13", "fig14a", "fig14b", "fig15", "run"}

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.workers == 200
        assert args.seed == 11
        assert args.out is None

    def test_zero_tenants_means_single_tenant(self):
        assert build_parser().parse_args(
            ["run", "--tenants", "0"]).tenants == 0

    @pytest.mark.parametrize("cli,argv", [
        ("bench", ["run", "--workers", "0"]),
        ("bench", ["table1", "--workers", "-3"]),
        ("bench", ["run", "--scale", "-1"]),
        ("bench", ["run", "--scale", "0"]),
        ("bench", ["run", "--scale", "nan"]),
        ("bench", ["run", "--tenants", "-1"]),
        ("chaos", ["run", "--workers", "0"]),
        ("chaos", ["run", "--scale", "-1"]),
    ])
    def test_out_of_range_number_exits_two(self, capsys, cli, argv):
        with pytest.raises(SystemExit) as exc:
            {"bench": main, "chaos": chaos_main}[cli](argv)
        assert exc.value.code == 2
        assert f"argument {argv[1]}: must be" in capsys.readouterr().err


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig15" in out

    def test_table2_runs(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "DV3-Large" in out
        assert "RS-TriPhoton" in out

    def test_fig11_scaled_run_and_archive(self, tmp_path, capsys):
        assert main(["fig11", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "flat" in out and "tree" in out
        archived = os.path.join(str(tmp_path), "fig11.txt")
        assert os.path.exists(archived)
        assert "tree" in open(archived).read()

    def test_fig8_small_cluster(self, capsys):
        assert main(["fig8", "--workers", "10"]) == 0
        out = capsys.readouterr().out
        assert "function calls" in out
