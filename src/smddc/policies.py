"""Per-slot transmission decisions for OMA and the opportunistic NOMA modes.

Each policy maps the slot's channel gains and the user's power budget to the
number of packets transmitted.  The budget test is inclusive (<= omega), and
if the primary (level-1) packet is unaffordable nothing is transmitted.

The `*_packet_counts` kernels are vectorized over numpy arrays of slots and
are the Monte Carlo simulator's inner loop.
"""

from dataclasses import dataclass

import numpy as np

_VARIANTS = ("oma", "symmetric", "sdo", "fo")


@dataclass(frozen=True)
class PolicyKind:
    """Which per-slot decision rule to use.

    variant: "oma", "symmetric" (depth-L power ladder on own channels),
    "sdo" (one extra packet on the best other channel), or "fo" (extra
    packets on as many other channels as the budget allows).
    `depth` is only meaningful for the symmetric variant.
    """

    variant: str
    depth: int = 1

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown policy variant {self.variant!r}")
        if self.depth < 1:
            raise ValueError(f"depth must be at least 1, got {self.depth}")

    @classmethod
    def oma(cls):
        return cls("oma", 1)

    @classmethod
    def symmetric(cls, depth: int):
        return cls("symmetric", depth)

    @classmethod
    def sdo(cls):
        return cls("sdo", 2)

    @classmethod
    def fo(cls):
        return cls("fo", 2)

    def ladder_depth(self) -> int:
        """Number of power-ladder levels the policy needs."""
        return self.depth if self.variant == "symmetric" else (1 if self.variant == "oma" else 2)

    def max_packets(self, k_channels: int) -> int:
        """Per-slot packet cap: 1 for OMA, L for symmetric, 2 for SDO, K for FO."""
        if self.variant == "oma":
            return 1
        if self.variant == "symmetric":
            return self.depth
        if self.variant == "sdo":
            return 2
        return k_channels


def oma_packet_counts(own, rho1, omega):
    """Packet counts per slot for OMA; `own` is an array of own-channel gains."""
    return (rho1 / np.asarray(own) <= omega).astype(np.int64)


def symmetric_packet_counts(gains, rhos, omega):
    """Packet counts for symmetric NOMA; gains has shape (..., L).

    The cumulative cost over levels is increasing (costs are positive), so
    the largest feasible prefix is just the number of prefix sums <= omega.
    """
    costs = np.asarray(rhos) / np.asarray(gains)
    cum = np.cumsum(costs, axis=-1)
    return (cum <= omega).sum(axis=-1)


def sdo_packet_counts(own, cross, rho1, rho2, omega):
    """Packet counts for SDO-NOMA; cross has shape (..., K-1)."""
    c1 = rho1 / np.asarray(own)
    best = np.asarray(cross).max(axis=-1)
    n = np.where(c1 + rho2 / best <= omega, 2, 1)
    return np.where(c1 <= omega, n, 0)


def fo_packet_counts(own, cross, rho1, rho2, omega):
    """Packet counts for FO-NOMA; cross has shape (..., K-1)."""
    c1 = rho1 / np.asarray(own)
    # best gains first -> ascending extra costs -> feasible set is a prefix
    extra = rho2 / np.sort(np.asarray(cross), axis=-1)[..., ::-1]
    cum = c1[..., None] + np.cumsum(extra, axis=-1)
    n = 1 + (cum <= omega).sum(axis=-1)
    return np.where(c1 <= omega, n, 0)
