"""Graph-level routing analysis over configured topologies.

The simulator's own next-hop tables live in
:meth:`repro.core.simulator.HMCSim.next_hop`; this module provides the
complementary *analysis* view — a networkx graph of the chain fabric,
shortest paths, and the hop-count matrix used by the topology benchmark
to explain the latency differences between Figure 1 configurations.

networkx is a ``dev`` extra, so it is imported by the functions that
build or search the graph, not by this module: ``repro.topology`` (and
with it the service, the chain workloads and the CLI) imports — and
pays for — numpy only.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.simulator import HMCSim

#: Node name used for the host in the link graph.
HOST_NODE = "host"


def _networkx():
    try:
        import networkx
    except ImportError as exc:
        raise ImportError(
            "repro.topology.route analysis needs networkx "
            "(the `dev` extra: pip install repro[dev])"
        ) from exc
    return networkx


def _link_failed(sim: HMCSim, dev: int, link: int) -> bool:
    state = sim._link_faults.get((dev, link)) if sim._link_faults else None
    return state is not None and state.health.name == "FAILED"


def link_graph(sim: HMCSim, include_failed: bool = True) -> "nx.MultiGraph":
    """Undirected multigraph of devices, chain links and host edges.

    Devices appear as integer nodes, the host as :data:`HOST_NODE`;
    parallel links between the same pair are preserved (MultiGraph),
    with edge attributes recording the local link ids.  With
    ``include_failed`` false, links whose in-band fault state has
    reached FAILED are omitted — the surviving fabric, matching what
    the simulator's own rebuilt next-hop tables route over.
    """
    g = _networkx().MultiGraph()
    g.add_node(HOST_NODE)
    for dev in sim.devices:
        g.add_node(dev.dev_id)
    seen = set()
    for (dev, link) in sim._link_peers:
        if not include_failed and _link_failed(sim, dev, link):
            continue
        peer = sim.link_peer(dev, link)
        if peer == "host":
            g.add_edge(HOST_NODE, dev, link=link)
            continue
        if peer is None:
            continue
        key = frozenset({(dev, link), peer})
        if key in seen:
            continue
        seen.add(key)
        g.add_edge(dev, peer[0], links=((dev, link), peer))
    return g


def path_between(
    sim: HMCSim, src_dev: int, dst_dev: int, include_failed: bool = True
) -> Optional[List[int]]:
    """Shortest device path src -> dst over chain links, or None.

    ``include_failed=False`` restricts the search to surviving links,
    answering "does a route still exist after this degradation?".
    """
    nx = _networkx()
    g = link_graph(sim, include_failed=include_failed)
    g.remove_node(HOST_NODE)  # device-fabric paths only
    try:
        return nx.shortest_path(g, src_dev, dst_dev)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def surviving_partition(sim: HMCSim) -> List[List[int]]:
    """Connected components of the device fabric over surviving links.

    One component means the chain is still fully routable after every
    FAILED-link exclusion; more than one pinpoints which cubes a dead
    link stranded.
    """
    g = link_graph(sim, include_failed=False)
    g.remove_node(HOST_NODE)
    return sorted(sorted(c) for c in _networkx().connected_components(g))


def link_health_report(sim: HMCSim) -> Dict[str, Dict]:
    """Per-fault-covered-link structured health/counter report.

    Keyed ``"dev<N>.link<M>"`` (one entry per endpoint sharing the
    state object); the values are :meth:`InbandLinkState.report` dicts
    augmented with the surviving-fabric partition count.
    """
    if not sim._link_fault_states:
        return {}
    parts = surviving_partition(sim)
    out: Dict[str, Dict] = {}
    for (dev, link), state in sorted(sim._link_faults.items()):
        rep = dict(state.report())
        rep["fabric_partitions"] = len(parts)
        out[f"dev{dev}.link{link}"] = rep
    return out


def hop_count_matrix(sim: HMCSim) -> np.ndarray:
    """Pairwise device hop counts; ``-1`` marks unreachable pairs."""
    n = len(sim.devices)
    m = np.full((n, n), -1, dtype=np.int64)
    g = link_graph(sim)
    if HOST_NODE in g:
        g.remove_node(HOST_NODE)
    lengths = dict(_networkx().all_pairs_shortest_path_length(g))
    for i in range(n):
        for j, d in lengths.get(i, {}).items():
            m[i, j] = d
    return m


def host_distance(sim: HMCSim) -> Dict[int, int]:
    """Hops from the host to each device (host link = hop 1)."""
    nx = _networkx()
    g = link_graph(sim)
    try:
        lengths = nx.single_source_shortest_path_length(g, HOST_NODE)
    except nx.NodeNotFound:  # pragma: no cover - host node always added
        return {}
    return {d.dev_id: lengths.get(d.dev_id, -1) for d in sim.devices}


def mean_host_distance(sim: HMCSim) -> float:
    """Average host→device distance over reachable devices."""
    dists = [d for d in host_distance(sim).values() if d > 0]
    return float(np.mean(dists)) if dists else float("nan")
