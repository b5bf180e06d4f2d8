"""Device topologies (paper §III.A Fig. 1, §V.B).

"The HMC specification provides a novel ability to configure memory
devices in a traditional network topology such as a mesh, torus or
crossbar."  This subpackage provides constructors for the four
topologies of Figure 1 — simple, ring, mesh and 2-D torus — plus chain
(daisy-chain) variants, validation of the §V.B constraints, and
analysis of the resulting link graphs (``route``; its graph functions
need networkx, a ``dev`` extra, and import it on first use).

HMC-Sim is deliberately *topologically agnostic* (§IV.2): incorrect
topologies are simulated, with error responses, rather than rejected.
The validators here are therefore advisory — ``validate.strict_check``
raises, while ``validate.diagnose`` merely reports.
"""

from repro.topology.builder import (
    build_chain,
    build_mesh,
    build_ring,
    build_simple,
    build_torus_2d,
)
from repro.topology.validate import TopologyReport, diagnose, strict_check
from repro.topology.route import hop_count_matrix, link_graph, path_between

__all__ = [
    "TopologyReport",
    "build_chain",
    "build_mesh",
    "build_ring",
    "build_simple",
    "build_torus_2d",
    "diagnose",
    "hop_count_matrix",
    "link_graph",
    "path_between",
    "strict_check",
]
