"""Deterministic chaos engine: declarative, cycle-stamped fault campaigns.

Real disaggregated-memory deployments validate their recovery story
with chaos testing — scripted component failures injected into a live
service.  This module is the simulated counterpart, with one crucial
twist: **every event is stamped in simulated cycles and fired from the
single driver coroutine**, so a chaos campaign consumes zero wall clock
and no unseeded randomness.  A given :class:`ChaosSchedule` against a
given (config, tenant specs) pair reproduces the same crashes, the same
recoveries and the same per-tenant accounting bit-for-bit, on every
run, on the engine and on the tests' full-walk reference.

Event kinds
-----------

``shard_crash``
    The targeted shard loses all volatile state.  With recovery armed
    (``ServiceConfig.checkpoint_interval > 0``) the shard restores its
    last epoch checkpoint and deterministically replays its granted-
    request journal; otherwise the shard retires terminally and its
    sessions are displaced (failing over when retries remain).
``watchdog_trip``
    Force the shard down the watchdog path — same recovery semantics
    as an organic :class:`~repro.core.errors.WatchdogError`.
``link_kill``
    Administratively fail one link of the shard's topology (attaching a
    clean in-band fault state first if none is present).  A killed host
    link strands its slot's session exactly like an organically FAILED
    link; a killed chain link forces rerouting.
``link_degrade``
    Take one step down the degradation ladder (FULL → HALF → FAILED)
    on one link, with the same trace events and billing as organic
    degradation.
``latency_spike``
    Add ``extra_delay`` cycles to the shard's fabric-port base latency
    for ``duration`` pumped cycles — a deterministic network brownout.

Event timestamps (``at``) are *per-shard pumped cycles*
(``Shard.cycles_pumped``), which makes a schedule invariant to
``cycles_per_yield`` and to how the front end interleaves shards.
Events fire **exactly once**: a crash-recovery rewinds the shard's
simulated state to the last epoch, but never re-fires an already-fired
event (one-shot semantics — a restore heals whatever a prior event
broke between the epoch and the crash).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.errors import InitError

#: Recognised event kinds, in canonical order (used for deterministic
#: tie-breaking when several events share a cycle stamp).
CHAOS_KINDS = (
    "shard_crash",
    "watchdog_trip",
    "link_kill",
    "link_degrade",
    "latency_spike",
)

_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def _lcg(seed: int):
    """Tiny 64-bit LCG — the only randomness source for generated
    campaigns, fully determined by the seed."""
    state = (seed * _LCG_MUL + _LCG_INC) & _LCG_MASK
    while True:
        state = (state * _LCG_MUL + _LCG_INC) & _LCG_MASK
        yield state >> 33


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault, stamped in per-shard pumped cycles."""

    at: int
    kind: str
    shard: int = 0
    dev: int = 0
    link: int = 0
    #: ``latency_spike`` only: extra fabric-port base delay, in cycles.
    extra_delay: int = 0
    #: ``latency_spike`` only: how many pumped cycles the spike lasts.
    duration: int = 0

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise InitError(
                f"chaos event kind must be one of {list(CHAOS_KINDS)}, "
                f"got {self.kind!r}"
            )
        if self.at < 0:
            raise InitError(
                f"chaos event 'at' must be >= 0 simulated cycles, got {self.at}"
            )
        if self.shard < 0:
            raise InitError(f"chaos event 'shard' must be >= 0, got {self.shard}")
        if self.dev < 0 or self.link < 0:
            raise InitError(
                f"chaos event dev/link must be >= 0, got "
                f"dev={self.dev} link={self.link}"
            )
        if self.kind == "latency_spike":
            if self.extra_delay <= 0:
                raise InitError(
                    f"latency_spike 'extra_delay' must be positive, "
                    f"got {self.extra_delay}"
                )
            if self.duration <= 0:
                raise InitError(
                    f"latency_spike 'duration' must be positive, "
                    f"got {self.duration}"
                )

    @property
    def sort_key(self) -> tuple:
        return (self.at, self.shard, CHAOS_KINDS.index(self.kind),
                self.dev, self.link)

    def as_dict(self) -> dict:
        d = {"at": self.at, "kind": self.kind, "shard": self.shard}
        if self.kind in ("link_kill", "link_degrade"):
            d["dev"] = self.dev
            d["link"] = self.link
        if self.kind == "latency_spike":
            d["extra_delay"] = self.extra_delay
            d["duration"] = self.duration
        return d


class ChaosSchedule:
    """An ordered, validated set of :class:`ChaosEvent`.

    The schedule is pure data: the service front end hands each shard
    its slice (:meth:`for_shard`) and the shard fires due events at the
    top of its pump.  Construction fully validates and canonically
    orders the events, so two schedules built from the same spec are
    indistinguishable.
    """

    def __init__(self, events: Iterable[ChaosEvent] = (),
                 seed: Optional[int] = None) -> None:
        evs = []
        for ev in events:
            if not isinstance(ev, ChaosEvent):
                raise InitError(
                    f"ChaosSchedule takes ChaosEvent items, got {type(ev)!r}"
                )
            evs.append(ev)
        self.events: List[ChaosEvent] = sorted(evs, key=lambda e: e.sort_key)
        #: Seed recorded for the report when the schedule was generated.
        self.seed = seed

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def for_shard(self, shard_id: int) -> List[ChaosEvent]:
        """The (ordered) events targeting one shard."""
        return [ev for ev in self.events if ev.shard == shard_id]

    def as_dict(self) -> dict:
        out = {"events": [ev.as_dict() for ev in self.events]}
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    # -- construction ---------------------------------------------------------

    _FIELDS = frozenset(f.name for f in fields(ChaosEvent))

    @classmethod
    def from_spec(cls, spec) -> "ChaosSchedule":
        """Build a schedule from plain data (a dict or a list of dicts).

        Accepts either ``{"events": [...]}`` (optionally with a
        recorded ``"seed"``) or a bare event list.  Unknown keys and
        invalid values raise :class:`~repro.core.errors.InitError`
        naming the offending field.
        """
        seed = None
        if isinstance(spec, dict):
            unknown = set(spec) - {"events", "seed"}
            if unknown:
                raise InitError(
                    f"chaos spec has unknown keys {sorted(unknown)} "
                    f"(want 'events' and optional 'seed')"
                )
            events = spec.get("events", [])
            seed = spec.get("seed")
        elif isinstance(spec, (list, tuple)):
            events = spec
        else:
            raise InitError(
                f"chaos spec must be a dict or a list of events, "
                f"got {type(spec).__name__}"
            )
        built = []
        for i, raw in enumerate(events):
            if isinstance(raw, ChaosEvent):
                built.append(raw)
                continue
            if not isinstance(raw, dict):
                raise InitError(
                    f"chaos event #{i} must be an object, "
                    f"got {type(raw).__name__}"
                )
            unknown = set(raw) - cls._FIELDS
            if unknown:
                raise InitError(
                    f"chaos event #{i} has unknown keys {sorted(unknown)} "
                    f"(want {sorted(cls._FIELDS)})"
                )
            if "kind" not in raw or "at" not in raw:
                raise InitError(
                    f"chaos event #{i} needs at least 'at' and 'kind'"
                )
            try:
                coerced = {k: (v if k == "kind" else int(v))
                           for k, v in raw.items()}
            except (TypeError, ValueError):
                raise InitError(
                    f"chaos event #{i} has a non-integer field: {raw!r}"
                ) from None
            built.append(ChaosEvent(**coerced))
        return cls(built, seed=seed)

    @classmethod
    def from_json(cls, path: str) -> "ChaosSchedule":
        """Load a schedule from a JSON spec file (``serve --chaos``)."""
        try:
            with open(path) as fh:
                spec = json.load(fh)
        except OSError as exc:
            raise InitError(f"cannot read chaos spec {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InitError(
                f"chaos spec {path!r} is not valid JSON: {exc}"
            ) from exc
        return cls.from_spec(spec)

    @classmethod
    def generate(
        cls,
        seed: int,
        shards: int = 1,
        horizon: int = 2048,
        crashes: int = 3,
        link_kills: int = 0,
        link_degrades: int = 0,
        latency_spikes: int = 0,
        links_per_shard: int = 2,
        first_at: int = 64,
    ) -> "ChaosSchedule":
        """Generate a seeded random campaign (LCG — reproducible).

        Event stamps land in ``[first_at, horizon)``; link events target
        dev 0, links ``0..links_per_shard-1`` (the slot links).
        """
        if shards <= 0:
            raise InitError(f"generate: 'shards' must be positive, got {shards}")
        if horizon <= first_at:
            raise InitError(
                f"generate: 'horizon' ({horizon}) must exceed "
                f"'first_at' ({first_at})"
            )
        rng = _lcg(seed)
        span = horizon - first_at

        def stamp() -> int:
            return first_at + next(rng) % span

        events: List[ChaosEvent] = []
        for _ in range(crashes):
            events.append(ChaosEvent(
                at=stamp(), kind="shard_crash", shard=next(rng) % shards))
        for _ in range(link_kills):
            events.append(ChaosEvent(
                at=stamp(), kind="link_kill", shard=next(rng) % shards,
                dev=0, link=next(rng) % max(1, links_per_shard)))
        for _ in range(link_degrades):
            events.append(ChaosEvent(
                at=stamp(), kind="link_degrade", shard=next(rng) % shards,
                dev=0, link=next(rng) % max(1, links_per_shard)))
        for _ in range(latency_spikes):
            events.append(ChaosEvent(
                at=stamp(), kind="latency_spike", shard=next(rng) % shards,
                extra_delay=8 + next(rng) % 56, duration=32 + next(rng) % 224))
        return cls(events, seed=seed)
