"""Per-slot transmission decisions for OMA and the opportunistic NOMA modes.

Each policy maps the slot's channel gains and the user's power budget to the
number of packets transmitted.  The budget test is inclusive (<= omega), and
if the primary (level-1) packet is unaffordable nothing is transmitted.

The `*_packet_counts` kernels are vectorized over numpy arrays of slots and
are the Monte Carlo simulator's inner loop.  Multi-level gains come with the
level on the last axis; each kernel loops over levels with running sums, so
a caller that passes np.moveaxis(level_major, 0, -1) hands it one contiguous
slab per level.  Counts come back in the narrowest unsigned integer dtype
that holds the policy's per-slot cap.
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
    return (rho1 / np.asarray(own) <= omega).astype(np.uint8)


def symmetric_packet_counts(gains, rhos, omega):
    """Packet counts for symmetric NOMA; gains[..., l] carries the level-(l+1) packet.

    The cumulative cost over levels is increasing (costs are positive), so
    the largest feasible prefix is just the number of running sums <= omega.
    """
    gains = np.asarray(gains)
    spent = np.zeros(gains.shape[:-1])
    n = np.zeros(gains.shape[:-1], np.min_scalar_type(gains.shape[-1]))
    for rho, g in zip(rhos, np.moveaxis(gains, -1, 0), strict=True):
        spent += rho / g
        n += spent <= omega
    return n


def sdo_packet_counts(own, best, rho1, rho2, omega):
    """Packet counts for SDO-NOMA; `best` is the best cross gain of each slot.

    The extra cost is positive, so the two-packet test implies the primary one.
    """
    c1 = rho1 / np.asarray(own)
    n = (c1 <= omega).astype(np.uint8)
    n += c1 + rho2 / np.asarray(best) <= omega
    return n


def fo_packet_counts(own, top, rho1, rho2, omega):
    """Packet counts for FO-NOMA; top has shape (..., K-1), cross gains in descending order.

    Best gains first -> ascending extra costs -> the feasible set is a prefix.
    """
    top = np.asarray(top)
    spent = rho1 / np.asarray(own)
    n = (spent <= omega).astype(np.min_scalar_type(top.shape[-1] + 1))
    for g in np.moveaxis(top, -1, 0):
        spent += rho2 / g
        n += spent <= omega
    return n
