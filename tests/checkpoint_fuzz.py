"""Bit-flip fuzz of checkpoint blobs: a damaged blob restores or raises
:class:`~repro.core.errors.CheckpointError`, nothing else, and no
restore takes longer than :data:`SLOW_S`.

Three blobs: the skeleton epoch of one 4-link cube after 32 WR16 writes
(``snapshot_bundle(..., store=)``, restored against its page store), the
self-contained ``snapshot`` of the same cube, and the committed version-1
fixture ``tests/fixtures/pre_flat_core_snapshot.bin``.  The two current
blobs get every bit of every *stride*-th byte flipped, and each damaged
blob is restored twice: as it is, where the payload CRC must turn every
flip into a ``CheckpointError``, and with the CRC re-stamped, so the
flip reaches the decoder.  The fixture has no CRC, so its flips reach
:mod:`repro.core.migrate`'s decoder directly; it is swept at
``--fixture-stride``, one bit per byte, rotating through the eight::

    PYTHONPATH=src:. python -m tests.checkpoint_fuzz [--stride N] [--bit 0x10]

runs under a 1 GiB address-space cap (``RLIMIT_AS``), prints the
outcome counts per blob and exits 1 on any outcome that is not a clean
restore or a ``CheckpointError`` (or a restore slower than
:data:`SLOW_S`).  ``tests/test_delta_checkpoint.py`` runs it strided.
"""

from __future__ import annotations

import argparse
import collections
import resource
import sys
import time
import traceback
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

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
from tests.checkpoint_blobs import restamp
from tests.fixtures.gen_pre_flat_core import BLOB_PATH

BITS = tuple(1 << i for i in range(8))
SLOW_S = 1.0
AS_CAP = 1 << 30


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


def fixture_blob() -> bytes:
    with open(BLOB_PATH, "rb") as fh:
        return fh.read()


def _flips(n: int, stride: int, bits: Sequence[int],
           rotate: bool) -> Iterator[Tuple[int, int]]:
    """``(byte, bit)`` pairs: every bit of every *stride*-th byte, or
    with *rotate* one bit per byte, cycling through *bits*."""
    for k, pos in enumerate(range(0, n, stride)):
        for bit in [bits[k % len(bits)]] if rotate else bits:
            yield pos, bit


def flip(blob: bytes, restore_fn, stride: int = 1, bits: Sequence[int] = BITS,
         rotate: bool = False, stamp: Optional[Callable] = restamp
         ) -> Tuple[int, int, collections.Counter]:
    """Restore *blob* with each flip of :func:`_flips` — re-stamped by
    *stamp* when given, after checking that the unstamped flip fails;
    returns (typed errors, clean restores, failures by kind and site)."""
    typed = restored = 0
    failures = collections.Counter()
    for pos, bit in _flips(len(blob), stride, bits, rotate):
        bad = bytearray(blob)
        bad[pos] ^= bit
        if stamp is not None:
            try:
                restore_fn(bytes(bad))
                failures["restored without a matching CRC"] += 1
            except CheckpointError:
                pass
            bad = stamp(bytes(bad))
        t0 = time.perf_counter()
        try:
            restore_fn(bytes(bad))
            restored += 1
        except CheckpointError:
            typed += 1
        except Exception as exc:  # the bug this fuzz exists to catch
            where = traceback.extract_tb(exc.__traceback__)[-1]
            failures[f"{type(exc).__name__} at {where.name}:{where.lineno}"] += 1
        if time.perf_counter() - t0 > SLOW_S:
            failures[f"slower than {SLOW_S} s (byte {pos}, bit {bit:#04x})"] += 1
    return typed, restored, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--stride", type=int, default=1)
    ap.add_argument("--bit", type=lambda s: int(s, 0), action="append",
                    help="flip only this bit (repeatable; default: all eight)")
    ap.add_argument("--fixture-stride", type=int, default=97)
    args = ap.parse_args(argv)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (AS_CAP, hard))
    bits = tuple(args.bit or BITS)
    runs = [(name, blob, fn, args.stride, False, restamp)
            for name, blob, fn in blobs()]
    runs.append(("pre_flat_core_snapshot.bin (v1)", fixture_blob(),
                 restore_bundle, args.fixture_stride, True, None))
    failed = 0
    for name, blob, fn, stride, rotate, stamp in runs:
        typed, restored, failures = flip(blob, fn, stride, bits, rotate, stamp)
        failed += sum(failures.values())
        print(f"{name}: {len(blob)} bytes, bits {'/'.join(f'{b:#04x}' for b in bits)} "
              f"{'rotating over' if rotate else 'at'} every {stride} byte(s): "
              f"{typed} typed, {restored} restored, "
              f"{sum(failures.values())} other")
        for site, n in failures.most_common():
            print(f"  {n} x {site}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
