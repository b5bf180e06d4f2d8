"""Bit-flip fuzz of checkpoint blobs: a damaged blob restores or raises
:class:`~repro.core.errors.CheckpointError`, nothing else.

Two blobs of one 4-link cube after 32 WR16 writes: the skeleton epoch
(``snapshot_bundle(..., store=)``, restored against its page store) and
the self-contained ``snapshot``.  Every *stride*-th byte gets one bit
flipped per pass::

    PYTHONPATH=src:. python -m tests.checkpoint_fuzz [--stride N] [--bit 0x10]

prints the typed / restored counts per blob and exits 1 if any restore
raised anything else.  ``tests/test_delta_checkpoint.py`` runs it strided.
"""

from __future__ import annotations

import argparse
import collections
import sys
import traceback
from typing import Callable, List, Tuple

from repro.core.checkpoint import (
    PageStore,
    restore,
    restore_bundle,
    snapshot,
    snapshot_bundle,
)
from repro.core.config import DeviceConfig, SimConfig
from repro.core.errors import CheckpointError
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.packets.commands import CMD


def blobs() -> List[Tuple[str, bytes, Callable[[bytes], object]]]:
    """``(name, blob, restore)`` for the skeleton and the full blob."""
    device = DeviceConfig(num_links=4, num_banks=8, capacity=2)
    sim = HMCSim(SimConfig(device=device))
    for link in range(device.num_links):
        sim.attach_host(0, link)
    host = Host(sim, seed=3)
    host.run([(CMD.WR16, a * 64, [a, a]) for a in range(32)], cub=0)
    store = PageStore()
    skeleton = snapshot_bundle(sim, host, store=store)
    return [
        ("skeleton", skeleton, lambda b: restore_bundle(b, store=store)),
        ("full", snapshot(sim), restore),
    ]


def flip(blob: bytes, restore_fn, stride: int = 1,
         bit: int = 0x10) -> Tuple[int, int, collections.Counter]:
    """Restore *blob* with *bit* flipped at every *stride*-th byte;
    returns (typed errors, clean restores, leaks by exception site)."""
    typed = restored = 0
    leaks = collections.Counter()
    for pos in range(0, len(blob), stride):
        bad = bytearray(blob)
        bad[pos] ^= bit
        try:
            restore_fn(bytes(bad))
            restored += 1
        except CheckpointError:
            typed += 1
        except Exception as exc:  # the bug this fuzz exists to catch
            where = traceback.extract_tb(exc.__traceback__)[-1]
            leaks[f"{type(exc).__name__} at {where.name}:{where.lineno}"] += 1
    return typed, restored, leaks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stride", type=int, default=1)
    ap.add_argument("--bit", type=lambda s: int(s, 0), default=0x10)
    args = ap.parse_args(argv)
    leaked = 0
    for name, blob, restore_fn in blobs():
        typed, restored, leaks = flip(blob, restore_fn, args.stride, args.bit)
        leaked += sum(leaks.values())
        print(f"{name}: {len(blob)} bytes, bit {args.bit:#04x} every "
              f"{args.stride} byte(s): {typed} typed, {restored} restored, "
              f"{sum(leaks.values())} other")
        for site, n in leaks.most_common():
            print(f"  {n} x {site}")
    return 1 if leaked else 0


if __name__ == "__main__":
    sys.exit(main())
