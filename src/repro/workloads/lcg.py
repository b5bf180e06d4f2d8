"""Pseudo-random generators matching the paper's harness.

"The randomness is driven via a simple linear congruential method
provided by the GNU libc library" (§VI.A).  GNU libc's default
``rand()`` is actually an additive-feedback (lagged Fibonacci trinomial
x^31 + x^3 + 1) generator seeded through a Lehmer LCG; the phrase
"linear congruential" most plausibly refers to that seeding LCG or to
``rand()`` in TYPE_0 mode.  We implement both, bit-exactly:

* :class:`GlibcRand` — glibc ``srandom``/``random`` TYPE_3 (the default
  ``rand()`` path), reproducing glibc's output stream exactly;
* :class:`LCG` — glibc TYPE_0: ``r = r * 1103515245 + 12345`` with a
  31-bit output.

Either drives the random-access harness; results differ only in the
specific address stream, not its statistics.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

_M31 = 2147483647  # 2**31 - 1 (Lehmer modulus)
_MASK32 = 0xFFFFFFFF

_NP_MASK32 = np.uint64(_MASK32)

#: Per-block-length LCG jump coefficients: length -> (a, c) arrays with
#: ``state_{t+k} = (a[k-1] * state_t + c[k-1]) mod 2^32`` for k = 1..n.
#: Derived from the scalar recurrence itself (a_{k+1} = A*a_k,
#: c_{k+1} = A*c_k + C, all mod 2^32), so the closed form is the scalar
#: stream by construction, not an approximation of it.
_LCG_COEF: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _lcg_coefficients(n: int) -> Tuple[np.ndarray, np.ndarray]:
    coef = _LCG_COEF.get(n)
    if coef is None:
        a = np.empty(n, dtype=np.uint64)
        c = np.empty(n, dtype=np.uint64)
        ak, ck = LCG.A, LCG.C
        for k in range(n):
            a[k] = ak
            c[k] = ck
            ak = (ak * LCG.A) & _MASK32
            ck = (ck * LCG.A + LCG.C) & _MASK32
        _LCG_COEF[n] = coef = (a, c)
    return coef


#: Per-block-length GlibcRand coefficient matrices: length -> M with
#: ``outputs = (M @ flattened_state) mod 2^32`` (see raw31_block).
_GLIBC_COEF: Dict[int, np.ndarray] = {}


def _glibc_matrix(n: int) -> np.ndarray:
    M = _GLIBC_COEF.get(n)
    if M is None:
        deg, sep = GlibcRand.DEG, GlibcRand.SEP
        hist = list(np.eye(deg, dtype=np.uint64))
        M = np.empty((n, deg), dtype=np.uint64)
        for t in range(n):
            row = hist[-deg] + hist[-sep]
            M[t] = row
            hist.append(row)
            del hist[0]
        _GLIBC_COEF[n] = M
    return M


class GlibcRand:
    """Bit-exact glibc ``srandom(seed)`` / ``random()`` (TYPE_3).

    State is 34 words; the first 31 come from a Lehmer LCG over the
    seed, words 31..33 repeat words 0..2, and 310 warm-up outputs are
    discarded — exactly glibc's ``__initstate_r`` behaviour.  Outputs
    are 31-bit non-negative integers.
    """

    DEG = 31
    SEP = 3
    WARMUP = 310  # 10 * DEG

    def __init__(self, seed: int = 1) -> None:
        self.seed(seed)

    def seed(self, seed: int) -> None:
        seed = seed & _MASK32
        if seed == 0:
            seed = 1
        r: List[int] = [0] * self.DEG
        r[0] = seed
        # Lehmer LCG: r[i] = 16807 * r[i-1] % (2^31 - 1), computed the
        # way glibc does (Schrage's method result is identical here).
        for i in range(1, self.DEG):
            r[i] = (16807 * r[i - 1]) % _M31
        self._state = r
        # f = front index, rr = rear index into the circular state.
        self._f = self.SEP
        self._r = 0
        for _ in range(self.WARMUP):
            self._next_word()

    def _next_word(self) -> int:
        s = self._state
        val = (s[self._f] + s[self._r]) & _MASK32
        s[self._f] = val
        n = len(s)
        self._f = (self._f + 1) % n
        self._r = (self._r + 1) % n
        return val

    def next(self) -> int:
        """Next 31-bit pseudo-random value (== glibc ``random()``)."""
        return self._next_word() >> 1

    __next__ = next

    def __iter__(self) -> Iterator[int]:
        return self

    def next_below(self, bound: int) -> int:
        """Uniform-ish value in [0, bound) via multiply-shift.

        Multiply-shift uses the generator's high bits; LCG-family
        generators have weak low bits, which a plain modulo would alias
        straight into the vault field of power-of-two address spaces.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self.next() * bound) >> 31

    def next_u64(self) -> int:
        """64-bit value from two draws (payload data generation)."""
        return (self.next() << 33) | (self.next() << 2) | (self.next() & 0x3)

    def raw31_block(self, n: int) -> np.ndarray:
        """*n* consecutive 31-bit outputs as a uint64 array (block step).

        The additive feedback is linear, so every output in a block is
        a known integer combination of the 31 current state words:
        ``v = (M @ state) mod 2^32`` with a cached per-block-length
        coefficient matrix built from the recurrence itself
        (``row_t = row_{t-31} + row_{t-3}``).  Coefficients wrap mod
        2^64 in storage, which is harmless — reduction mod 2^32 is a
        ring homomorphism from mod-2^64 arithmetic.  Identical to *n*
        scalar :meth:`next` calls, ~10x faster.
        """
        if n <= 0:
            return np.empty(0, dtype=np.uint64)
        deg = self.DEG
        s = self._state
        f = self._f
        # Flatten the ring into dependency order y[k] = s[(f+k) % deg]:
        # the front pointer holds the lag-31 operand of the next step.
        y0 = np.array([s[(f + k) % deg] for k in range(deg)], dtype=np.uint64)
        raw = (_glibc_matrix(n) @ y0) & _NP_MASK32
        # Fold the last `deg` flat values back into the ring and advance
        # the pointers exactly as n scalar steps would have.
        for k in range(deg):
            i = n + k - deg
            s[(f + n + k) % deg] = int(raw[i]) if i >= 0 else int(y0[n + k])
        self._f = (f + n) % deg
        self._r = (self._r + n) % deg
        return raw >> np.uint64(1)


class LCG:
    """glibc TYPE_0 ``rand()``: the textbook linear congruential method.

    ``state = state * 1103515245 + 12345 (mod 2^32)``; output is
    ``(state >> 0) & 0x7fffffff`` per glibc's TYPE_0 path.
    """

    A = 1103515245
    C = 12345

    def __init__(self, seed: int = 1) -> None:
        self.seed(seed)

    def seed(self, seed: int) -> None:
        self._state = seed & _MASK32

    def next(self) -> int:
        """Next 31-bit pseudo-random value."""
        self._state = (self._state * self.A + self.C) & _MASK32
        return self._state & 0x7FFFFFFF

    __next__ = next

    def __iter__(self) -> Iterator[int]:
        return self

    def next_below(self, bound: int) -> int:
        """Value in [0, bound) via multiply-shift (high bits).

        TYPE_0 low bits have tiny periods (bit 0 strictly alternates);
        modulo by a power of two would alias that straight into the
        vault/bank fields of the generated addresses.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        self._state = s = (self._state * 1103515245 + 12345) & _MASK32
        return ((s & 0x7FFFFFFF) * bound) >> 31

    def next_u64(self) -> int:
        """64-bit value from three draws (state step inlined: this is
        the payload-generation hot path)."""
        s = self._state
        s = (s * 1103515245 + 12345) & _MASK32
        a = s & 0x7FFFFFFF
        s = (s * 1103515245 + 12345) & _MASK32
        b = s & 0x7FFFFFFF
        s = (s * 1103515245 + 12345) & _MASK32
        self._state = s
        return (a << 33) | (b << 2) | (s & 0x3)

    def raw31_block(self, n: int) -> np.ndarray:
        """*n* consecutive 31-bit outputs as a uint64 array (block step).

        Uses the cached jump coefficients: every state in the block is
        an affine function of the current state, evaluated in one
        vector expression.  Identical to *n* scalar :meth:`next` calls
        (the third u64 draw's ``state & 3`` equals ``output & 3``, so
        the 31-bit stream is sufficient for every consumer).
        """
        if n <= 0:
            return np.empty(0, dtype=np.uint64)
        a, c = _lcg_coefficients(n)
        states = ((a * np.uint64(self._state)) & _NP_MASK32) + c
        states &= _NP_MASK32
        self._state = int(states[-1])
        return states & np.uint64(0x7FFFFFFF)
