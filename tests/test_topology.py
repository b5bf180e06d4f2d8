"""Tests for topology builders, validation and route analysis."""

import subprocess
import sys

import numpy as np
import pytest

from repro.core.errors import TopologyError
from repro.core.simulator import HMCSim
from repro.topology.builder import (
    build_chain,
    build_mesh,
    build_ring,
    build_simple,
    build_torus_2d,
    edge_list,
)
from repro.topology.route import (
    hop_count_matrix,
    host_distance,
    link_graph,
    mean_host_distance,
    path_between,
)
from repro.topology.validate import diagnose, strict_check


def mk(n, links=4):
    return HMCSim(num_devs=n, num_links=links, num_banks=8, capacity=2)


class TestBuilders:
    def test_simple_single_device(self):
        s = build_simple(mk(1))
        assert len(s.host_links()) == 4
        assert diagnose(s).ok

    def test_simple_partial_host_links(self):
        s = build_simple(mk(1), host_links=2)
        assert len(s.host_links()) == 2

    def test_simple_rejects_bad_count(self):
        with pytest.raises(TopologyError):
            build_simple(mk(1), host_links=5)

    def test_chain(self):
        s = build_chain(mk(4), host_links=1)
        assert len(s.host_links()) == 1
        assert edge_list(s) == [(0, 1), (1, 2), (2, 3)]
        assert diagnose(s).ok

    def test_ring(self):
        s = build_ring(mk(4))
        edges = edge_list(s)
        assert len(edges) == 4
        assert (0, 3) in edges  # the wraparound edge closes the ring

    def test_ring_needs_three_devices(self):
        with pytest.raises(TopologyError):
            build_ring(mk(2))

    def test_mesh_2x2(self):
        s = build_mesh(mk(4), shape=(2, 2))
        assert len(edge_list(s)) == 4  # 2 horizontal + 2 vertical
        assert diagnose(s).ok

    def test_mesh_shape_must_cover(self):
        with pytest.raises(TopologyError):
            build_mesh(mk(4), shape=(3, 2))

    def test_mesh_auto_shape(self):
        s = build_mesh(mk(6))
        assert len(edge_list(s)) == 7  # 2x3 grid: 4 + 3 edges

    def test_torus_adds_wraparound(self):
        # 1x4 torus: path edges + one wraparound in the length-4 dim.
        s = build_torus_2d(mk(4), shape=(1, 4))
        assert len(edge_list(s)) == 4
        # Small dims (<3) skip duplicate wraparounds:
        s2 = build_torus_2d(mk(4, links=4), shape=(2, 2))
        assert len(edge_list(s2)) == 4  # same as the 2x2 mesh

    def test_chain_runs_out_of_links(self):
        # host_links=4 consumes every link of dev0, leaving none for the
        # chain hop to dev1 -> the builder reports the exhaustion.
        with pytest.raises(TopologyError):
            build_chain(mk(3), host_links=4)


class TestValidation:
    def test_diagnose_counts(self):
        s = build_chain(mk(3))
        rep = diagnose(s)
        assert rep.num_devices == 3
        assert rep.host_links == 1
        assert rep.chain_links == 2
        assert rep.unreachable_devices == []
        assert rep.ok

    def test_no_host_is_flagged(self):
        s = mk(2)
        s.connect(0, 0, 1, 0)
        rep = diagnose(s)
        assert not rep.ok
        assert any("host" in w for w in rep.warnings)
        with pytest.raises(TopologyError):
            strict_check(s)

    def test_unreachable_device_flagged_but_simulable(self):
        """Paper IV.2: misconfigured topologies simulate with error
        responses rather than failing."""
        s = mk(3)
        s.attach_host(0, 0)
        s.connect(0, 1, 1, 0)
        # Device 2 dangles.
        rep = diagnose(s)
        assert rep.unreachable_devices == [2]
        assert not rep.ok
        # ...but the simulation still runs and answers with errors.
        from repro.packets.commands import CMD
        from repro.packets.packet import ErrStat, build_memrequest
        s.send(build_memrequest(2, 0x40, 1, CMD.RD64, link=0))
        s.clock(10)
        rsp = s.recv()
        assert rsp.errstat is ErrStat.UNROUTABLE

    def test_strict_check_passes_clean_topology(self):
        strict_check(build_ring(mk(4)))


class TestNetworkxIsOptional:
    """networkx is a ``dev`` extra: nothing imports it until a route
    analysis runs, and without it the analysis says what is missing."""

    def test_importing_the_program_does_not_load_networkx(self):
        code = (
            "import sys, repro, repro.topology, repro.service, repro.cli\n"
            "sys.exit('networkx' in sys.modules)"
        )
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_analysis_without_networkx_names_the_extra(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setitem(sys.modules, "networkx", None)  # import fails
        s = build_chain(mk(2))
        for call in (
            lambda: link_graph(s),
            lambda: path_between(s, 0, 1),
            lambda: hop_count_matrix(s),
            lambda: host_distance(s),
        ):
            with pytest.raises(ImportError, match="`dev` extra"):
                call()
        assert main(["topology", "chain", "--devices", "2"]) == 2
        assert "`dev` extra" in capsys.readouterr().err


class TestRouteAnalysis:
    @pytest.fixture(autouse=True)
    def _needs_networkx(self):
        pytest.importorskip("networkx")

    def test_link_graph_nodes(self):
        s = build_chain(mk(3))
        g = link_graph(s)
        assert set(g.nodes) == {"host", 0, 1, 2}

    def test_path_between(self):
        s = build_chain(mk(4))
        assert path_between(s, 0, 3) == [0, 1, 2, 3]
        s2 = mk(2)
        s2.attach_host(0, 0)
        assert path_between(s2, 0, 1) is None

    def test_hop_count_matrix(self):
        s = build_ring(mk(4))
        m = hop_count_matrix(s)
        assert m[0, 0] == 0
        assert m[0, 1] == 1
        assert m[0, 2] == 2  # opposite corner of the ring
        assert m[0, 3] == 1  # wraparound

    def test_hop_matrix_marks_unreachable(self):
        s = mk(2)
        s.attach_host(0, 0)
        m = hop_count_matrix(s)
        assert m[0, 1] == -1

    def test_host_distance(self):
        s = build_chain(mk(3))
        d = host_distance(s)
        assert d == {0: 1, 1: 2, 2: 3}
        assert mean_host_distance(s) == pytest.approx(2.0)

    def test_ring_shortens_mean_distance_vs_chain(self):
        """The Figure 1 topologies differ in host distance — rings beat
        chains for the far devices."""
        chain = build_chain(mk(6))
        ring = build_ring(mk(6))
        assert mean_host_distance(ring) < mean_host_distance(chain)
