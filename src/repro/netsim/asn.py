"""Autonomous systems and address allocation.

The paper's Figure 5 and Figure 8b group hosts by the AS announcing
their address; the simulation allocates every deployment's address
from an AS's CIDR blocks so the analysis can recover that grouping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.ipaddr import CidrBlock, format_ipv4
from repro.util.rng import DeterministicRng


@dataclass
class AutonomousSystem:
    """One AS: number, descriptive name, and its address blocks."""

    asn: int
    name: str
    blocks: list[CidrBlock] = field(default_factory=list)
    # Profile hint used by the population builder ("iiot-isp",
    # "regional-isp", "enterprise", ...).
    profile: str = "generic"

    def contains(self, address: int) -> bool:
        return any(address in block for block in self.blocks)


class AsRegistry:
    """Allocates addresses and answers IP → AS lookups."""

    def __init__(self):
        self._systems: dict[int, AutonomousSystem] = {}
        self._cursor: dict[int, int] = {}

    def register(self, system: AutonomousSystem) -> AutonomousSystem:
        if system.asn in self._systems:
            raise ValueError(f"duplicate ASN: {system.asn}")
        for block in system.blocks:
            for other in self._systems.values():
                for existing in other.blocks:
                    if (block.first <= existing.last
                            and existing.first <= block.last):
                        raise ValueError(
                            f"block {block} overlaps {existing} (AS{other.asn})"
                        )
        self._systems[system.asn] = system
        self._cursor[system.asn] = 0
        return system

    def __len__(self) -> int:
        return len(self._systems)

    def get(self, asn: int) -> AutonomousSystem:
        try:
            return self._systems[asn]
        except KeyError:
            raise KeyError(f"unknown ASN: {asn}") from None

    def lookup(self, address: int) -> AutonomousSystem | None:
        for system in self._systems.values():
            if system.contains(address):
                return system
        return None

    def allocate_address(self, asn: int, rng: DeterministicRng) -> int:
        """Hand out a fresh address inside the AS (never reused).

        Addresses are spread pseudo-randomly across the AS's blocks so
        consecutive allocations do not cluster, like real deployments.
        """
        system = self.get(asn)
        total = sum(block.size for block in system.blocks)
        cursor = self._cursor[asn]
        if cursor >= total:
            raise RuntimeError(f"AS{asn} is out of addresses")
        # Permute within the AS via a multiplicative stride coprime to
        # the size, seeded once per AS.
        stride_rng = DeterministicRng(asn, "as-address-stride")
        stride = _coprime_stride(total, stride_rng)
        index = (cursor * stride + stride_rng.randrange(total)) % total
        self._cursor[asn] = cursor + 1
        return _address_at(system, index % total)

    def describe(self, address: int) -> str:
        system = self.lookup(address)
        if system is None:
            return f"{format_ipv4(address)} (unrouted)"
        return f"{format_ipv4(address)} (AS{system.asn} {system.name})"


def _coprime_stride(total: int, rng: DeterministicRng) -> int:
    import math

    while True:
        stride = rng.randrange(1, max(total, 2))
        if math.gcd(stride, total) == 1:
            return stride


def _address_at(system: AutonomousSystem, index: int) -> int:
    for block in system.blocks:
        if index < block.size:
            return block.address_at(index)
        index -= block.size
    raise IndexError("index outside AS blocks")
