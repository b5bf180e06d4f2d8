"""Links — external I/O endpoints of a device (paper §III.A, §IV.A, §V.B).

"Links are analogous to an HMC physical device link.  Per the current
specification, device links may connect a host and an HMC device or two
HMC devices (chaining)...  Each link contains a reference to its closest
quad unit and the source and destination device identifiers (including
host devices)."

Hosts are identified by the reserved cube id ``num_devices + 1``
(paper §V.B), so they are "uniquely identified from pure memory devices
but are permitted to send and receive request and response packets in a
seamless manner".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class EndpointType(enum.Enum):
    """Physical endpoint configuration of a link side (paper §V.B)."""

    #: Link side is unconnected.
    NONE = "none"
    #: Link side attaches to a host processor.
    HOST = "host"
    #: Link side attaches to another HMC device (chaining).
    DEVICE = "device"


@dataclass
class Link:
    """One bidirectional serialised link of a device.

    Attributes
    ----------
    link_id:
        Local link index on the owning device.
    quad_id:
        The closest quad unit (link i <-> quad i).
    src_cub / dst_cub:
        Endpoint cube ids.  For host connections the host side "is
        always configured as the host-side connection" with cube id
        ``num_devices + 1``.
    src_type / dst_type:
        Endpoint classification.
    rate_gbps:
        SERDES lane rate (10 / 12.5 / 15 for 4-link devices, 10 for
        8-link devices).
    lanes:
        Serial lanes per link: 16 on 4-link devices, 8 on 8-link.
    """

    link_id: int
    quad_id: int
    src_cub: int = -1
    dst_cub: int = -1
    src_type: EndpointType = EndpointType.NONE
    dst_type: EndpointType = EndpointType.NONE
    rate_gbps: float = 10.0
    lanes: int = 16
    #: In-band fault/retry/degradation state covering this link, when
    #: one is attached (:class:`repro.faults.inband.InbandLinkState`;
    #: chain-link peers share one object).
    fault_state: Optional[object] = field(default=None, repr=False, compare=False)
    #: Packets that crossed this link in each direction (statistics).
    tx_packets: int = 0
    rx_packets: int = 0
    tx_flits: int = 0
    rx_flits: int = 0

    @property
    def configured(self) -> bool:
        """True once topology configuration has assigned both endpoints."""
        return self.src_type is not EndpointType.NONE and self.dst_type is not EndpointType.NONE

    @property
    def is_host_link(self) -> bool:
        """True iff a host hangs off either side of this link."""
        return EndpointType.HOST in (self.src_type, self.dst_type)

    @property
    def is_chain_link(self) -> bool:
        """True iff this link chains two HMC devices."""
        return self.src_type is EndpointType.DEVICE and self.dst_type is EndpointType.DEVICE

    @property
    def peer_cub(self) -> int:
        """Cube id of the far end (the non-source endpoint)."""
        return self.dst_cub

    @property
    def health(self) -> str:
        """Degradation ladder position: FULL, HALF or FAILED.

        FULL when no in-band fault state is attached (a clean link never
        degrades).
        """
        if self.fault_state is None:
            return "FULL"
        return self.fault_state.health.name

    def effective_lanes(self) -> int:
        """Lanes usable at the current health (half when degraded, zero
        when failed)."""
        if self.fault_state is None:
            return self.lanes
        name = self.fault_state.health.name
        if name == "FAILED":
            return 0
        if name == "HALF":
            return self.lanes // 2
        return self.lanes

    def raw_bandwidth_gbps(self) -> float:
        """Aggregate raw link bandwidth (lanes x rate, full duplex)."""
        return self.lanes * self.rate_gbps

    def effective_bandwidth_gbps(self) -> float:
        """Bandwidth at the current degradation level."""
        return self.effective_lanes() * self.rate_gbps

    def count_tx(self, flits: int) -> None:
        self.tx_packets += 1
        self.tx_flits += flits

    def count_rx(self, flits: int) -> None:
        self.rx_packets += 1
        self.rx_flits += flits

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Link({self.link_id}, quad={self.quad_id}, "
            f"{self.src_type.value}:{self.src_cub} -> {self.dst_type.value}:{self.dst_cub})"
        )
