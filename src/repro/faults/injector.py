"""Deterministic bit-error injection into packet word streams.

Two injectors cover the common scenarios:

* :class:`BitErrorInjector` — a Bernoulli process per transmitted bit
  (a classical BER model), driven by a seeded generator so runs are
  reproducible;
* :class:`ScheduledInjector` — corrupt exactly the scheduled
  transmission ordinals, counted **0-based** (ordinal 0 is the first
  transmission) — regression tests and targeted what-if studies.

Both answer one question per transmission — :meth:`flips`: which of the
next *nbits* wire bits flip (almost always none) — and share one
:meth:`corrupt`, which applies those flips to a *copy* of the wire
words.  The caller decides what a flipped transmission means (usually:
receiver CRC check fails and the link retry protocol replays).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

#: Uniforms drawn per refill of :class:`BitErrorInjector`'s block.
_BLOCK = 8192


def apply_flips(words: Sequence[int], flips: Sequence[int]) -> List[int]:
    """Copy of *words* with the wire bits at offsets *flips* inverted."""
    out = list(words)
    for bit in flips:
        out[bit >> 6] ^= 1 << (bit & 63)
    return out


class _Injector:
    """Transmission counters and the one ``corrupt`` both injectors share."""

    transmissions = 0
    corrupted_transmissions = 0

    def corrupt(self, words: Sequence[int]) -> List[int]:
        """Return a possibly-corrupted copy of *words*."""
        return apply_flips(words, self.flips(64 * len(words)))


class BitErrorInjector(_Injector):
    """Flip each transmitted bit independently with probability *ber*.

    Every wire bit consumes one uniform of a single sequential stream,
    so the flip pattern depends only on the seed and on how many bits
    went before — not on how they were grouped into transmissions.  The
    uniforms are drawn ``_BLOCK`` at a time and reduced to the sorted
    flip offsets of that block; a transmission that ends before the next
    pending flip costs one integer compare.
    """

    def __init__(self, ber: float, seed: int = 1) -> None:
        if not 0.0 <= ber <= 1.0:
            raise ValueError(f"bit error rate must be in [0, 1], got {ber}")
        self._ber = ber
        self._rng = np.random.default_rng(seed)
        self.bits_flipped = 0
        #: Unconsumed flip offsets of the current block, ascending, then
        #: the sentinel ``_BLOCK``: a transmission ending at or before
        #: ``_pending[0]`` is clean.
        self._pending: List[int] = [_BLOCK]
        #: Bits of the block consumed (fresh = exhausted: first bit draws).
        self._pos = _BLOCK

    def __setstate__(self, state: dict) -> None:
        # A pre-block-sampling blob has ``ber`` and no block fields; its
        # generator sits at the next undrawn bit: an exhausted block.
        state = dict(state)
        if "ber" in state:
            state["_ber"] = state.pop("ber")
        self.__dict__.update(_pending=[_BLOCK], _pos=_BLOCK)
        self.__dict__.update(state)

    @property
    def ber(self) -> float:
        """Bit error rate (fixed at construction)."""
        return self._ber

    def flips(self, nbits: int) -> Tuple[int, ...]:
        """Offsets (ascending) of the flipped bits among the next *nbits*."""
        self.transmissions += 1
        if self._ber == 0.0:
            return ()
        end = self._pos + nbits
        pending = self._pending
        if end <= pending[0]:
            self._pos = end
            return ()
        out: List[int] = []
        base = -self._pos  # transmission offset of the block's bit 0
        while True:
            taken = bisect_left(pending, min(end, _BLOCK))
            out.extend([base + bit for bit in pending[:taken]])
            del pending[:taken]
            if end <= _BLOCK:
                break
            base += _BLOCK
            end -= _BLOCK
            draws = self._rng.random(_BLOCK)
            pending[:] = np.flatnonzero(draws < self._ber).tolist() + [_BLOCK]
        self._pos = end
        if out:
            self.corrupted_transmissions += 1
            self.bits_flipped += len(out)
        return tuple(out)


class ScheduledInjector(_Injector):
    """Corrupt exactly the scheduled transmission ordinals (0-based).

    ``ScheduledInjector({0, 2})`` corrupts the first and third packets
    it sees and passes everything else through untouched — ideal for
    deterministic protocol tests.  *bit* selects which bit to flip.
    """

    def __init__(self, ordinals: Iterable[int], bit: int = 17) -> None:
        self._targets: Set[int] = {int(o) for o in ordinals}
        if any(o < 0 for o in self._targets):
            raise ValueError("ordinals must be non-negative")
        if not 0 <= bit < 64:
            raise ValueError("bit must be in [0, 64)")
        self.bit = bit

    def flips(self, nbits: int) -> Tuple[int, ...]:
        """The scheduled flip iff this call's 0-based ordinal (the value
        of ``transmissions`` on entry) is scheduled."""
        ordinal = self.transmissions
        self.transmissions += 1
        if ordinal not in self._targets or nbits < 64:
            return ()
        # Flip a bit in the middle word: survives header AND tail
        # heuristics, caught only by the CRC.
        self.corrupted_transmissions += 1
        return (64 * (nbits // 128) + self.bit,)

    @property
    def remaining(self) -> int:
        """Scheduled corruptions not yet delivered."""
        return sum(1 for o in self._targets if o >= self.transmissions)
