"""Tests for the command-line interface (repro.cli)."""

import json
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_unknown_command_main_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code != 0

    def test_removed_sharding_knobs_are_rejected_not_ignored(self, capsys):
        from repro.core.config import SimConfig
        from repro.service.config import ServiceConfig

        with pytest.raises(SystemExit) as exc:
            main(["bandwidth", "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        for cls in (SimConfig, ServiceConfig):
            with pytest.raises(TypeError, match="workers"):
                cls(workers=2)

    def test_removed_scheduler_knob_is_rejected_not_ignored(self, capsys):
        from repro.core.config import SimConfig
        from repro.core.simulator import HMCSim
        from repro.service.config import ServiceConfig

        with pytest.raises(SystemExit) as exc:
            main(["serve", "--scheduler", "naive"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --scheduler naive" in capsys.readouterr().err
        for build in (SimConfig, ServiceConfig, HMCSim):
            with pytest.raises(TypeError, match="scheduler"):
                build(scheduler="active")

    def test_removed_spin_up_knob_is_rejected_not_ignored(self, capsys):
        from repro.service.config import ServiceConfig

        with pytest.raises(SystemExit) as exc:
            main(["serve", "--spin-up", "cold"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --spin-up cold" in capsys.readouterr().err
        with pytest.raises(TypeError, match="spin_up"):
            ServiceConfig(spin_up="cold")

    def test_device_args(self):
        args = build_parser().parse_args(
            ["fig5", "--links", "8", "--banks", "16", "--capacity", "8"])
        assert (args.links, args.banks, args.capacity) == (8, 16, 8)


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "--requests", "256"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "bank speedup" in out

    def test_fig5(self, capsys):
        assert main(["fig5", "--requests", "256"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "simulated runtime" in out

    @pytest.mark.parametrize("shape", ["simple", "chain", "ring", "mesh", "torus"])
    def test_topology_shapes(self, shape, capsys):
        pytest.importorskip("networkx")  # host distances (dev extra)
        assert main(["topology", shape, "--devices", "4"]) == 0
        out = capsys.readouterr().out
        assert shape in out
        assert "cube 0" in out

    def test_topology_reports_warnings_nonzero(self, capsys):
        pytest.importorskip("networkx")
        # A 2-device "mesh" with the host on dev 0 is fine; instead make
        # an unreachable device via a chain of 1 with 3 spare devices.
        rc = main(["topology", "simple", "--devices", "3"])
        out = capsys.readouterr().out
        # simple() attaches every device to the host: always ok.
        assert rc == 0

    def test_bandwidth(self, capsys):
        assert main(["bandwidth", "--requests", "256"]) == 0
        out = capsys.readouterr().out
        assert "GB/s" in out
        assert "latency" in out

    def test_faults(self, capsys):
        # A bare run is noisy (--link-ber defaults to 1e-4 here), and the
        # retries show up in the summary.
        assert main(["faults", "--requests", "128"]) == 0
        out = capsys.readouterr().out
        assert "in-band link fault summary:" in out
        assert re.search(r"recovery_cycles=[1-9]", out)

    def test_faults_retry_budget_exhausted_exits_3(self, capsys):
        assert main(["faults", "--requests", "128", "--devices", "1",
                     "--link-drop-rate", "1.0", "--max-retries", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("aborted (link failure): host link 0 on dev 0 ")
        report = json.loads(err.split("\n", 1)[1])
        link = report["links"]["dev0.link0"]
        assert link["health"] == "FAILED"
        assert (link["transmissions"], link["crc_failures"], link["drops"]) \
            == (4, 0, 4)

    def test_faults_options_are_the_shared_link_ones(self):
        parser = build_parser()
        for gone in ("--ber", "--drop"):
            with pytest.raises(SystemExit):
                parser.parse_args(["faults", gone, "0.1"])
        assert parser.parse_args(["faults"]).link_ber == 1e-4

    def test_ras(self, capsys):
        assert main([
            "ras", "--requests", "256",
            "--fit-rates", "0,2e6", "--scrub-intervals", "0,64",
        ]) == 0
        out = capsys.readouterr().out
        assert "FIT rate" in out
        assert "bw ovh" in out

    def test_ras_rejects_malformed_sweep_lists(self, capsys):
        assert main(["ras", "--fit-rates", "abc"]) == 2
        assert "invalid sweep list" in capsys.readouterr().err

    def test_replay(self, tmp_path, capsys):
        trace = tmp_path / "t.txt"
        trace.write_text("R 0x1000 64\nW 0x2000 64\nR 0x3000 64\n")
        assert main(["replay", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "replayed 3" in out


@pytest.mark.parametrize("argv, reason", [
    (["table1", "--requests", "0"], "--requests: want a positive integer"),
    (["fig5", "--capacity", "3"], "power-of-two"),
    (["faults", "--devices", "9"], "at most 7 devices"),
    (["topology", "chain", "--devices", "9"], "at most 7 devices"),
    (["replay", "MISSING"], "No such file"),
    (["replay", "MALFORMED"], "malformed trace line 2"),
])
def test_bad_input_exits_2_with_a_one_line_reason(argv, reason, tmp_path, capsys):
    """Input the program cannot run is refused as ``repro <cmd>:
    <reason>`` on stderr with exit 2, not a traceback."""
    (tmp_path / "MALFORMED").write_text("R 0x40\nX zz\n")
    argv = [str(tmp_path / a) if a.isupper() else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own refusal
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert f"repro {argv[0]}" in err and reason in err
    assert "Traceback" not in err
