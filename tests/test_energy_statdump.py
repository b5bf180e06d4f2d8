"""Tests for the energy model and statistics dump (repro.analysis)."""

import json

import pytest

from repro.analysis.energy import (
    DDR3_PJ_PER_BIT,
    EnergyCoefficients,
    estimate,
    render,
)
from repro.analysis.statdump import dump_stats, to_json
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.packets.commands import CMD
from repro.topology.builder import build_simple


def run_sim(n=64, **kw):
    sim = build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8,
                              capacity=2, **kw))
    host = Host(sim)
    host.run([(CMD.RD64, i * 64, None) for i in range(n)])
    return sim


class TestEnergyModel:
    def test_components_present_and_positive(self):
        report = estimate(run_sim())
        for key in ("links", "crossbars", "activations", "columns", "background"):
            assert key in report.components
            assert report.components[key] >= 0
        assert report.total_pj > 0
        assert report.delivered_bits > 0

    def test_idle_run_costs_only_background(self):
        sim = build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2))
        sim.clock(10)
        report = estimate(sim)
        assert report.components["links"] == 0
        assert report.components["background"] > 0
        assert report.pj_per_bit == float("inf")

    def test_more_traffic_more_energy(self):
        small = estimate(run_sim(n=32))
        large = estimate(run_sim(n=256))
        assert large.total_pj > small.total_pj

    def test_open_row_policy_reduces_activations_for_local_traffic(self):
        """Row-local traffic under the open policy activates once per
        row, not once per access — the energy win of row buffers."""
        def run(policy):
            sim = build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8,
                                      capacity=2, row_policy=policy))
            host = Host(sim)
            host.run([(CMD.RD64, 0x40, None)] * 64)
            return estimate(sim)

        closed = run("closed")
        opened = run("open")
        assert opened.components["activations"] < closed.components["activations"]

    def test_custom_coefficients(self):
        sim = run_sim()
        zero_links = estimate(sim, EnergyCoefficients(link_pj_per_bit=0.0))
        assert zero_links.components["links"] == 0.0

    def test_vs_ddr3_ratio(self):
        report = estimate(run_sim(n=256))
        assert report.vs_ddr3() == pytest.approx(
            DDR3_PJ_PER_BIT / report.pj_per_bit)

    def test_render_and_as_dict(self):
        report = estimate(run_sim())
        text = render(report)
        assert "pJ per delivered bit" in text
        d = report.as_dict()
        assert "total_pj" in d and "links" in d


class TestStatDump:
    def test_tree_structure(self):
        tree = dump_stats(run_sim())
        assert tree["cycles"] > 0
        assert tree["config"]["device"] == "4-Link; 8-Bank; 2GB"
        assert len(tree["devices"]) == 1
        dev = tree["devices"][0]
        assert len(dev["links"]) == 4
        assert len(dev["xbars"]) == 4
        assert len(dev["vaults"]) == 16
        assert len(dev["vaults"][0]["banks"]) == 8

    def test_counters_consistent_with_summary(self):
        sim = run_sim(n=64)
        tree = dump_stats(sim)
        vault_total = sum(
            v["reads"] + v["writes"] + v["atomics"] + v["mode_accesses"]
            for v in tree["devices"][0]["vaults"]
        )
        assert vault_total == tree["summary"]["requests_processed"] == 64

    def test_exclude_banks(self):
        tree = dump_stats(run_sim(), include_banks=False)
        assert "banks" not in tree["devices"][0]["vaults"][0]

    def test_json_serialisable(self):
        text = to_json(run_sim())
        parsed = json.loads(text)
        assert parsed["summary"]["packets_sent"] == 64

    def test_fault_stats_included_when_present(self):
        from repro.faults.link_model import LinkFaultModel
        sim = build_simple(HMCSim(num_devs=1, num_links=4, num_banks=8,
                                  capacity=2), host_links=1)
        sim.attach_link_fault(0, 0, LinkFaultModel(ber=0.0))
        Host(sim).run([(CMD.RD64, 0, None)])
        tree = dump_stats(sim)
        assert tree["link_report"]["links"]["dev0.link0"]["transmissions"] == 2

    def test_stage_counts_exported(self):
        tree = dump_stats(run_sim())
        assert len(tree["stage_counts"]) == 7
        assert tree["stage_counts"][6] == tree["cycles"]
