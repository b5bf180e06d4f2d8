"""Physical addressing and interleave models (paper §III.B).

HMC physical addresses are encoded in a 34-bit field containing vault,
bank and DRAM address bits.  Four-link devices use the lower 32 bits of
the field; eight-link devices use the lower 33 bits.  Rather than a
single fixed scheme, the specification lets the implementer choose an
address-mapping mode; the *default* modes implement a low-interleave
model — the least-significant usable bits select the vault, then the
bank — so that sequential addresses interleave first across vaults, then
across banks within a vault, avoiding bank conflicts.
"""

from repro.addressing.address_map import (
    AddressMap,
    AddressMapMode,
    DecodedAddress,
    default_map,
)

__all__ = [
    "AddressMap",
    "AddressMapMode",
    "DecodedAddress",
    "default_map",
]
