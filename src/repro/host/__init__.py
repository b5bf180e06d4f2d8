"""Host-processor model (paper §VI.A).

The evaluation drives devices from a host that builds request packets,
balances them across the available links, tracks outstanding tags and
correlates out-of-order responses.  :class:`~repro.host.host.Host`
implements that driver with pluggable link-selection policies —
round-robin (the paper's harness "selects appropriate HMC links in a
simple round-robin fashion"), random, and the locality-aware policy the
paper's §VI.B corollary motivates ("locality-aware host devices have the
potential to reduce memory latency and reduce internal memory device
contention").
"""

from repro.host.host import Host, HostRunResult, LinkPolicy
from repro.host.tagpool import TagPool
from repro.host.multichannel import ChannelClock, MultiChannelHost

__all__ = [
    "ChannelClock",
    "Host",
    "HostRunResult",
    "LinkPolicy",
    "MultiChannelHost",
    "TagPool",
]
