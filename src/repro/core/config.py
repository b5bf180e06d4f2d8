"""Device and simulation configuration.

Mirrors the C initialiser's parameter list (Fig. 4)::

    hmcsim_init(&hmc, num_devs, num_links, num_vaults, queue_depth,
                num_banks, num_drams, capacity, xbar_depth)

All devices within a single simulation object must be physically
homogeneous (paper §V.A); heterogeneity requires separate ``HMCSim``
objects, which is also how multiple independent memory channels are
modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from repro.core.errors import InitError

GB = 1 << 30

#: Link counts permitted by the HMC 1.0 specification.
VALID_LINK_COUNTS = (4, 8)

#: Banks-per-vault options in the specification.
VALID_BANK_COUNTS = (8, 16)

#: Vaults per quadrant (fixed by the specification).
VAULTS_PER_QUAD = 4

#: Link rates in Gbps per the specification: 4-link devices may run at
#: 10, 12.5 or 15 Gbps; 8-link devices at 10 Gbps (paper §III.A).
VALID_LINK_RATES_4 = (10.0, 12.5, 15.0)
VALID_LINK_RATES_8 = (10.0,)


@dataclass(frozen=True)
class DeviceConfig:
    """Static physical configuration of one HMC device.

    Parameters
    ----------
    num_links:
        External links (4 or 8).  The quad count equals the link count,
        so vaults = 4 * links unless explicitly overridden.
    num_vaults:
        Vertical vault units.  Defaults to ``4 * num_links``.
    num_banks:
        Memory banks per vault (8 or 16) — the stacked die layers.
    num_drams:
        DRAM devices per bank (data-width slices; 8 by default).
    capacity:
        Total device capacity in **gigabytes**.
    queue_depth:
        Vault request/response queue depth (bi-directional slots).
    xbar_depth:
        Crossbar arbitration queue depth per link (bi-directional).
    link_rate_gbps:
        SERDES rate per lane; validated against the link count.
    block_size:
        Maximum request block in bytes for the default address map.
    ecc_enabled:
        Protect stored data with the in-DRAM SECDED codec and attach
        the RAS subsystem (``repro.ras``).  Off by default: the paper's
        model has no in-DRAM error layer, and with ECC off the datapath
        is bit-for-bit the unprotected one.
    """

    num_links: int = 4
    num_vaults: int = -1
    num_banks: int = 8
    num_drams: int = 8
    capacity: int = 2
    queue_depth: int = 64
    xbar_depth: int = 128
    link_rate_gbps: float = 10.0
    block_size: int = 64
    ecc_enabled: bool = False

    def __post_init__(self) -> None:
        if self.num_links not in VALID_LINK_COUNTS:
            raise InitError(
                f"num_links must be one of {VALID_LINK_COUNTS}, got {self.num_links}"
            )
        if self.num_vaults == -1:
            object.__setattr__(self, "num_vaults", VAULTS_PER_QUAD * self.num_links)
        if self.num_vaults <= 0 or self.num_vaults % VAULTS_PER_QUAD != 0:
            raise InitError(
                f"num_vaults must be a positive multiple of {VAULTS_PER_QUAD}, "
                f"got {self.num_vaults}"
            )
        if self.num_banks not in VALID_BANK_COUNTS:
            raise InitError(
                f"num_banks must be one of {VALID_BANK_COUNTS}, got {self.num_banks}"
            )
        if self.num_drams <= 0:
            raise InitError(f"num_drams must be positive, got {self.num_drams}")
        if self.capacity <= 0 or self.capacity & (self.capacity - 1):
            raise InitError(
                f"capacity must be a positive power-of-two GB count, got {self.capacity}"
            )
        if self.queue_depth <= 0:
            raise InitError(f"queue_depth must be positive, got {self.queue_depth}")
        if self.xbar_depth <= 0:
            raise InitError(f"xbar_depth must be positive, got {self.xbar_depth}")
        rates = VALID_LINK_RATES_4 if self.num_links == 4 else VALID_LINK_RATES_8
        if self.link_rate_gbps not in rates:
            raise InitError(
                f"{self.num_links}-link devices support rates {rates} Gbps, "
                f"got {self.link_rate_gbps}"
            )
        if self.block_size not in (32, 64, 128):
            raise InitError(
                f"block_size must be 32, 64 or 128 bytes, got {self.block_size}"
            )
        bank_bytes = self.capacity_bytes // (self.num_vaults * self.num_banks)
        if bank_bytes < self.block_size:
            raise InitError(
                "capacity too small: each bank would hold "
                f"{bank_bytes} bytes (< one {self.block_size}-byte block)"
            )

    # -- derived quantities --------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.capacity * GB

    @property
    def num_quads(self) -> int:
        """Quadrant (locality-domain) count — one per link."""
        return self.num_vaults // VAULTS_PER_QUAD

    @property
    def bank_bytes(self) -> int:
        """Bytes of storage per bank layer."""
        return self.capacity_bytes // (self.num_vaults * self.num_banks)

    @property
    def address_bits(self) -> int:
        """Usable address bits: 32 for 4-link, 33 for 8-link devices."""
        return 32 if self.num_links == 4 else 33

    def label(self) -> str:
        """Human label like ``4-Link; 8-Bank; 2GB`` (Table I row style)."""
        return f"{self.num_links}-Link; {self.num_banks}-Bank; {self.capacity}GB"

    def with_(self, **kw) -> "DeviceConfig":
        """Functional update helper (frozen dataclass)."""
        return replace(self, **kw)


@dataclass(frozen=True)
class SimConfig:
    """Full simulation configuration: device shape plus engine knobs."""

    device: DeviceConfig = field(default_factory=DeviceConfig)
    #: Number of homogeneous devices in this simulation object.
    num_devs: int = 1
    #: Bank-conflict recognition window: how many queued packets behind
    #: the head are inspected for same-bank conflicts (paper §IV.C.3
    #: "a spatial window of the queue").
    conflict_window: int = 8
    #: Cycles a bank stays busy after servicing an access; a queued
    #: packet whose bank is busy cannot issue and is traced as a bank
    #: conflict.  Together with ``num_banks`` this sets the per-vault
    #: service rate (num_banks / bank_busy_cycles requests per cycle).
    #: The default is calibrated so the Table I speedup shape holds
    #: (see EXPERIMENTS.md): banks bind the service side while links
    #: bind injection, with the link factor above the bank factor.
    bank_busy_cycles: int = 11
    #: Packets the crossbar may forward per link per sub-cycle stage —
    #: the per-link injection bandwidth into the vault fabric.
    xbar_moves_per_cycle: int = 4
    #: Requests a vault may retire per cycle across its free banks
    #: (constant-time processing of non-conflicting packets, §IV.C.4).
    vault_issue_width: int = 4
    #: Extra crossbar transit cycles for a request whose ingress link is
    #: not co-located with the destination quadrant — the routed-latency
    #: penalty the tracer records (§VI.B) made physical.  0 restores the
    #: paper's trace-only behaviour.
    nonlocal_penalty_cycles: int = 1
    #: DRAM timing policy: "closed" (the paper's constant-time model —
    #: every access occupies the bank for ``bank_busy_cycles``) or
    #: "open" (row-buffer model: hits cost ``row_hit_cycles``, misses
    #: ``row_miss_cycles``).  An ablation knob; the reproduction's
    #: calibrated defaults use the paper's closed model.
    row_policy: str = "closed"
    row_hit_cycles: int = 4
    row_miss_cycles: int = 16
    #: Crossbar service order across links in stages 1/2: "fixed"
    #: (ascending link id — link 0 wins contended vault slots) or
    #: "rotating" (round-robin rotation per cycle — fair arbitration).
    xbar_arbitration: str = "fixed"
    #: DRAM refresh: every ``refresh_interval`` cycles each vault's
    #: banks go busy for ``refresh_cycles`` (staggered across vaults).
    #: 0 disables refresh — the paper's model has none.
    refresh_interval: int = 0
    refresh_cycles: int = 0
    #: Link token capacity in FLITs for flow control (0 disables tokens).
    link_token_flits: int = 0
    #: Age (in cycles) after which a queued packet is expired with a
    #: QUEUE_TIMEOUT error response; 0 disables zombie protection.
    queue_timeout: int = 0
    #: RAS subsystem knobs (active only with ``device.ecc_enabled``).
    #: Seed for the per-device fault RNG streams.
    ras_seed: int = 1
    #: Transient-upset rate: expected single-bit upsets per bank per
    #: 1e9 device cycles (FIT-style).  0 disables transient faults.
    ras_fit_rate: float = 0.0
    #: Hard faults placed at init, uniformly over banks: stuck-at data
    #: bits and whole failed DRAM rows.
    ras_stuck_cells: int = 0
    ras_row_faults: int = 0
    #: Patrol scrubber: every ``ras_scrub_interval`` cycles scrub up to
    #: ``ras_scrub_rows`` touched rows (0 interval disables the patrol).
    ras_scrub_interval: int = 0
    ras_scrub_rows: int = 4
    #: In-band link fault injection (repro.faults.inband): with a
    #: nonzero BER or drop rate, every configured link auto-attaches an
    #: :class:`~repro.faults.inband.InbandLinkState` whose fault model
    #: every in-simulation traversal runs through.  Both zero ⇒ no
    #: in-band state at all, and the engine's fault path is never
    #: consulted (fault-free runs stay bit-identical to a build without
    #: this subsystem).
    link_ber: float = 0.0
    link_drop_rate: float = 0.0
    #: Base seed for the per-link fault RNG streams (each link derives a
    #: distinct deterministic child seed from its canonical endpoint).
    link_seed: int = 1
    #: Consecutive failed transmissions on one link direction before the
    #: link takes a degradation step (FULL → HALF → FAILED).
    link_max_retries: int = 8
    #: Simulated cycles one IRTRY exchange + replay window occupies.
    link_retry_delay: int = 4
    #: No-progress watchdog: abort with a typed
    #: :class:`~repro.core.errors.WatchdogError` when no forward
    #: progress happened for this many cycles while work or tokens are
    #: still outstanding.  0 disables the watchdog.
    watchdog_cycles: int = 0

    def __post_init__(self) -> None:
        if self.num_devs <= 0:
            raise InitError(f"num_devs must be positive, got {self.num_devs}")
        if self.num_devs > 7:
            # Cube ids are a 3-bit field and num_devices + 1 encodes the
            # host (paper §V.B), so at most 7 cubes fit one object.
            raise InitError(
                f"at most 7 devices per HMCSim object (3-bit CUB field), got {self.num_devs}"
            )
        if self.conflict_window < 1:
            raise InitError("conflict_window must be >= 1")
        if self.bank_busy_cycles < 0:
            raise InitError("bank_busy_cycles must be >= 0")
        if self.xbar_moves_per_cycle < 1:
            raise InitError("xbar_moves_per_cycle must be >= 1")
        if self.vault_issue_width < 1:
            raise InitError("vault_issue_width must be >= 1")
        if self.link_token_flits < 0:
            raise InitError("link_token_flits must be >= 0")
        if self.nonlocal_penalty_cycles < 0:
            raise InitError("nonlocal_penalty_cycles must be >= 0")
        if self.row_policy not in ("closed", "open"):
            raise InitError(f"row_policy must be 'closed' or 'open', got {self.row_policy!r}")
        if self.row_hit_cycles < 0 or self.row_miss_cycles < 0:
            raise InitError("row hit/miss cycles must be >= 0")
        if self.xbar_arbitration not in ("fixed", "rotating"):
            raise InitError(
                f"xbar_arbitration must be 'fixed' or 'rotating', "
                f"got {self.xbar_arbitration!r}"
            )
        if self.refresh_interval < 0 or self.refresh_cycles < 0:
            raise InitError("refresh parameters must be >= 0")
        if self.refresh_interval and self.refresh_cycles >= self.refresh_interval:
            raise InitError("refresh_cycles must be below refresh_interval")
        if self.queue_timeout < 0:
            raise InitError("queue_timeout must be >= 0")
        if self.ras_fit_rate < 0:
            raise InitError("ras_fit_rate must be >= 0")
        if self.ras_stuck_cells < 0 or self.ras_row_faults < 0:
            raise InitError("ras fault counts must be >= 0")
        if self.ras_scrub_interval < 0:
            raise InitError("ras_scrub_interval must be >= 0")
        if self.ras_scrub_rows < 1:
            raise InitError("ras_scrub_rows must be >= 1")
        if not 0.0 <= self.link_ber <= 1.0:
            raise InitError(f"link_ber must be in [0, 1], got {self.link_ber}")
        if not 0.0 <= self.link_drop_rate <= 1.0:
            raise InitError(
                f"link_drop_rate must be in [0, 1], got {self.link_drop_rate}"
            )
        if self.link_max_retries < 0:
            raise InitError("link_max_retries must be >= 0")
        if self.link_retry_delay < 0:
            raise InitError("link_retry_delay must be >= 0")
        if self.watchdog_cycles < 0:
            raise InitError("watchdog_cycles must be >= 0")

    @property
    def host_cub(self) -> int:
        """Host cube id: ``num_devices + 1`` (paper §V.B)."""
        return self.num_devs + 1

    def with_(self, **kw) -> "SimConfig":
        return replace(self, **kw)


#: The four device configurations evaluated in the paper (Table I),
#: keyed by their row labels.  All use 128-slot crossbar queues and
#: 64-slot vault queues (paper §VI.A).
PAPER_CONFIGS: Dict[str, DeviceConfig] = {
    "4-Link; 8-Bank; 2GB": DeviceConfig(
        num_links=4, num_banks=8, capacity=2, queue_depth=64, xbar_depth=128
    ),
    "4-Link; 16-Bank; 4GB": DeviceConfig(
        num_links=4, num_banks=16, capacity=4, queue_depth=64, xbar_depth=128
    ),
    "8-Link; 8-Bank; 4GB": DeviceConfig(
        num_links=8, num_banks=8, capacity=4, queue_depth=64, xbar_depth=128
    ),
    "8-Link; 16-Bank; 8GB": DeviceConfig(
        num_links=8, num_banks=16, capacity=8, queue_depth=64, xbar_depth=128
    ),
}

#: Simulated runtimes the paper reports for the configs above (cycles).
PAPER_TABLE1_CYCLES: Dict[str, int] = {
    "4-Link; 8-Bank; 2GB": 3_404_553,
    "4-Link; 16-Bank; 4GB": 2_327_858,
    "8-Link; 8-Bank; 4GB": 1_708_918,
    "8-Link; 16-Bank; 8GB": 879_183,
}

#: Request count and mix used for Table I (paper §VI.A).
PAPER_TABLE1_REQUESTS: int = 33_554_432
PAPER_TABLE1_REQUEST_BYTES: int = 64
PAPER_TABLE1_READ_FRACTION: float = 0.5


def paper_config_pairs() -> Tuple[Tuple[str, DeviceConfig], ...]:
    """The Table I configurations in the paper's row order."""
    return tuple(PAPER_CONFIGS.items())
