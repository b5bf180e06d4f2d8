"""Composite workloads: weighted mixtures and phased sequences.

Real applications are not single-pattern: they stream, then chase
pointers, then burst random updates.  These combinators build such
workloads from the primitive generators, keeping everything seeded and
deterministic:

* :func:`weighted_mix` — interleave several request streams with given
  selection probabilities (per-request choice);
* :func:`phases` — run streams back to back (phase changes show up in
  the Figure-5 series as regime shifts);
* :func:`bursty` — a stream gated by an on/off duty cycle, with idle
  gaps expressed as explicit bubbles the host run loop can honour.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.packets.commands import CMD
from repro.workloads.lcg import LCG

Request = Tuple[CMD, int, Optional[list]]


def weighted_mix(
    streams: Sequence[Iterable[Request]],
    weights: Sequence[float],
    total: int,
    seed: int = 1,
) -> Iterator[Request]:
    """Draw *total* requests from *streams* with per-draw probabilities.

    A stream that exhausts early is dropped and the remaining weights
    renormalise; if everything exhausts, iteration ends early.
    """
    if len(streams) != len(weights) or not streams:
        raise ValueError("streams and weights must be equal-length, non-empty")
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    its: List[Optional[Iterator[Request]]] = [iter(s) for s in streams]
    live = list(range(len(its)))
    w = [float(x) for x in weights]
    rng = LCG(seed)
    emitted = 0
    while emitted < total and live:
        # Weighted draw over live streams.
        total_w = sum(w[i] for i in live)
        pick = (rng.next() / 0x8000_0000) * total_w
        chosen = live[-1]
        acc = 0.0
        for i in live:
            acc += w[i]
            if pick < acc:
                chosen = i
                break
        try:
            yield next(its[chosen])
            emitted += 1
        except StopIteration:
            live.remove(chosen)


def phases(*streams: Iterable[Request]) -> Iterator[Request]:
    """Concatenate request streams: phase 1 fully drains, then phase 2..."""
    for stream in streams:
        yield from stream


def bursty(
    stream: Iterable[Request],
    burst_len: int,
    gap_len: int,
) -> Iterator[Optional[Request]]:
    """Gate a stream into bursts: *burst_len* requests, then *gap_len*
    ``None`` bubbles (idle cycles), repeating.

    ``Host.run`` ends the cycle's sends at each ``None`` (an idle
    cycle, not a stall); other consumers can filter them out.
    """
    if burst_len <= 0 or gap_len < 0:
        raise ValueError("burst_len must be positive, gap_len non-negative")
    it = iter(stream)
    while True:
        emitted = 0
        for _ in range(burst_len):
            try:
                yield next(it)
                emitted += 1
            except StopIteration:
                return
        if emitted == 0:
            return
        for _ in range(gap_len):
            yield None


# ---------------------------------------------------------------------------
# Mixed-tenant scenarios (repro.service).
# ---------------------------------------------------------------------------

#: Workload kinds a tenant profile may name, with the per-kind stream
#: builders resolved by :func:`tenant_requests`.
TENANT_KINDS = ("random", "stream", "stride", "gups")

#: Default priority-class mix: (class name, selection weight, default
#: token-bucket rate in requests/cycle, request-count multiplier).
#: Gold tenants are few, fast and chatty; bronze tenants are the
#: long tail.
TENANT_CLASSES = (
    ("gold", 1, 0.50, 4),
    ("silver", 3, 0.25, 2),
    ("bronze", 6, 0.10, 1),
)


def tenant_mix_profiles(
    num_tenants: int,
    seed: int = 1,
    base_requests: int = 64,
    classes: Sequence[Tuple[str, int, float, int]] = TENANT_CLASSES,
    kinds: Sequence[str] = TENANT_KINDS,
) -> List[dict]:
    """Generate a deterministic mixed-tenant scenario.

    Returns one plain-dict profile per tenant — ``tenant_id``, priority
    ``klass``, workload ``kind``, ``requests``, ``rate`` (token-bucket
    refill in requests/cycle), ``read_fraction`` and a derived child
    ``seed`` — drawn from a seeded LCG so the same ``(num_tenants,
    seed)`` always produces the same fleet.  The profiles are neutral
    data: :mod:`repro.service` turns them into sessions, and
    :func:`tenant_requests` turns one into a request stream.
    """
    if num_tenants <= 0:
        raise ValueError(f"num_tenants must be positive, got {num_tenants}")
    if not classes or not kinds:
        raise ValueError("classes and kinds must be non-empty")
    for kind in kinds:
        if kind not in TENANT_KINDS:
            raise ValueError(f"unknown tenant kind {kind!r} (want {TENANT_KINDS})")
    rng = LCG(seed)
    class_total = sum(w for _, w, _, _ in classes)
    profiles: List[dict] = []
    for i in range(num_tenants):
        pick = rng.next_below(class_total)
        acc = 0
        klass, _, rate, req_mult = classes[-1]
        for name, weight, r, m in classes:
            acc += weight
            if pick < acc:
                klass, rate, req_mult = name, r, m
                break
        kind = kinds[rng.next_below(len(kinds))]
        # Read-heavy to write-heavy spread in 5% steps over [0.5, 1.0].
        read_fraction = 0.5 + 0.05 * rng.next_below(11)
        profiles.append({
            "tenant_id": f"t{i:04d}",
            "klass": klass,
            "kind": kind,
            "requests": base_requests * req_mult,
            "rate": rate,
            "read_fraction": read_fraction,
            "seed": seed * 1_000_003 + i * 7919 + 1,
        })
    return profiles


def tenant_requests(profile: dict, capacity_bytes: int) -> Iterator[Request]:
    """Build the request stream one tenant profile describes."""
    kind = profile["kind"]
    n = int(profile["requests"])
    seed = int(profile["seed"])
    read_fraction = float(profile.get("read_fraction", 1.0))
    if kind == "random":
        from repro.workloads.random_access import (
            RandomAccessConfig, random_access_requests)

        return random_access_requests(
            capacity_bytes,
            RandomAccessConfig(num_requests=n, seed=seed,
                               read_fraction=read_fraction),
        )
    if kind == "stream":
        from repro.workloads.stream import stream_requests

        return stream_requests(
            capacity_bytes, n, read_fraction=read_fraction,
            start=(seed * 64) % capacity_bytes, seed=seed,
        )
    if kind == "stride":
        from repro.workloads.stride import stride_requests

        return stride_requests(
            capacity_bytes, n, stride_bytes=4096,
            read_fraction=read_fraction, seed=seed,
        )
    if kind == "gups":
        from repro.workloads.gups import gups_requests

        return gups_requests(capacity_bytes, n, seed=seed)
    raise ValueError(f"unknown tenant kind {kind!r} (want {TENANT_KINDS})")
