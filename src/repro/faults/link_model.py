"""Per-link fault models.

A :class:`LinkFaultModel` decides, per transmission, what happens to a
packet crossing a link: delivered clean, delivered corrupted, or
dropped entirely (a lane failure / catastrophic CRC event).  The model
wraps an injector for the corruption path and keeps its own counters so
experiments can report injected-fault rates alongside recovery rates.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.injector import BitErrorInjector, apply_flips


class FaultKind(enum.Enum):
    """Outcome of one transmission under a fault model."""

    CLEAN = "clean"
    CORRUPT = "corrupt"
    DROP = "drop"


class LinkFaultModel:
    """Stochastic fault model for one link direction.

    Parameters
    ----------
    ber:
        Bit error rate for the corruption path (0 disables corruption).
    drop_rate:
        Probability an entire transmission is lost (0 disables drops).
    seed:
        Generator seed; runs are deterministic per seed.
    injector:
        Optional pre-built injector (e.g. a ScheduledInjector) used for
        the corruption path instead of a BER injector.  When given,
        every transmission is routed through it and its own schedule /
        probability decides corruption; *ber* is ignored.
    """

    def __init__(
        self,
        ber: float = 0.0,
        drop_rate: float = 0.0,
        seed: int = 1,
        injector=None,
    ) -> None:
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError(f"drop_rate must be in [0, 1], got {drop_rate}")
        self._rng = np.random.default_rng(seed ^ 0x5EED)
        self.drop_rate = drop_rate
        self.injector = injector if injector is not None else BitErrorInjector(ber, seed)
        self.transmissions = 0
        self.drops = 0
        self.corruptions = 0

    def outcome(self, nbits: int) -> Tuple[FaultKind, Tuple[int, ...]]:
        """Decide one transmission of *nbits* wire bits — the one place
        drop/corrupt is decided.  Returns ``(kind, flips)``; the flipped
        bit offsets are non-empty exactly when *kind* is ``CORRUPT``.
        """
        self.transmissions += 1
        if self.drop_rate and self._rng.random() < self.drop_rate:
            self.drops += 1
            return (FaultKind.DROP, ())
        flips = self.injector.flips(nbits)
        if flips:
            self.corruptions += 1
            return (FaultKind.CORRUPT, flips)
        return (FaultKind.CLEAN, flips)

    def transmit(self, words: Sequence[int]) -> Tuple[FaultKind, Optional[List[int]]]:
        """Run one transmission; returns (outcome, delivered_words).

        ``DROP`` outcomes deliver ``None``; ``CORRUPT``/``CLEAN`` deliver
        a copy of *words* with the outcome's flips applied.
        """
        kind, flips = self.outcome(64 * len(words))
        if kind is FaultKind.DROP:
            return (kind, None)
        return (kind, apply_flips(words, flips))

    @property
    def fault_rate(self) -> float:
        """Observed fraction of faulted transmissions."""
        if self.transmissions == 0:
            return 0.0
        return (self.drops + self.corruptions) / self.transmissions

    def stats(self) -> dict:
        return {
            "transmissions": self.transmissions,
            "drops": self.drops,
            "corruptions": self.corruptions,
            "fault_rate": self.fault_rate,
        }
