"""Per-slot transmission decisions for OMA and the opportunistic NOMA modes.

Each policy maps the slot's channel gains and the user's power budget to the
number of packets transmitted.  The budget test is inclusive (<= omega), and
if the primary (level-1) packet is unaffordable nothing is transmitted.

The `*_packet_counts` kernels are vectorized over numpy arrays of slots and
are the Monte Carlo simulator's inner loop.  Multi-level gains come with the
level on the last axis; each kernel loops over levels with running sums, so
a caller that passes np.moveaxis(level_major, 0, -1) hands it one contiguous
slab per level.  The symmetric and FO kernels can take their deeper levels
from a callable instead, which draws each level only for the slots that
are still within budget.  Counts come back in the narrowest unsigned
integer dtype that holds the policy's per-slot cap.
"""

from dataclasses import dataclass

import numpy as np

_FIXED_DEPTH = {"oma": 1, "sdo": 2, "fo": 2}  # "sym" takes its depth L from the caller


@dataclass(frozen=True)
class PolicyKind:
    """Which per-slot decision rule to use, named as on the command line.

    variant: "oma", "sym" (depth-L power ladder on own channels), "sdo"
    (one extra packet on the best other channel), or "fo" (extra packets
    on as many other channels as the budget allows).
    depth: the number of power-ladder levels the policy uses, 1 for OMA,
    L for sym and 2 for SDO and FO (whose extra packets all sit at level 2).
    """

    variant: str
    depth: int = 1

    def __post_init__(self):
        if self.variant != "sym" and self.variant not in _FIXED_DEPTH:
            raise ValueError(f"unknown policy {self.variant!r}")
        if self.depth < 1:
            raise ValueError(f"depth must be at least 1, got {self.depth}")
        if self.depth != _FIXED_DEPTH.get(self.variant, self.depth):
            raise ValueError(f"{self.variant} has depth {_FIXED_DEPTH[self.variant]}, got {self.depth}")

    @classmethod
    def named(cls, name: str, depth: int):
        """The policy called `name`; `depth` is used by sym only, the others have a fixed depth."""
        return cls(name, _FIXED_DEPTH.get(name, depth))

    @classmethod
    def oma(cls):
        return cls("oma", 1)

    @classmethod
    def symmetric(cls, depth: int):
        return cls("sym", depth)

    @classmethod
    def sdo(cls):
        return cls("sdo", 2)

    @classmethod
    def fo(cls):
        return cls("fo", 2)

    def check_users(self, k: int):
        """Raise ValueError unless the policy can run with k channels/users."""
        if self.variant in ("sdo", "fo") and k < 2:
            raise ValueError(f"{self.variant} needs k >= 2")
        if self.variant == "sym" and self.depth > k:
            raise ValueError(f"symmetric depth {self.depth} exceeds k={k}")

    def max_packets(self, k_channels: int) -> int:
        """Per-slot packet cap: the depth, except K for FO."""
        return k_channels if self.variant == "fo" else self.depth


def oma_packet_counts(own, rho1, omega, out=None):
    """Packet counts per slot for OMA; `own` is an array of own-channel gains (see _owned for `out`)."""
    own, out = _owned(out, np.shape(own), np.uint8, own)
    return np.less_equal(np.divide(rho1, own, out=own), omega, out=out)


def symmetric_packet_counts(gains, rhos, omega, deeper=None, out=None):
    """Packet counts for symmetric NOMA; gains[..., l] carries the level-(l+1) packet.

    `gains` holds the first levels; the rest of `rhos`, if any, come from
    `deeper` (see _deeper_levels).  The cumulative cost over levels is
    increasing (costs are positive), so the largest feasible prefix is just
    the number of running sums <= omega (see _owned for `out`).
    """
    gains, out = _owned(out, np.shape(gains)[:-1], np.min_scalar_type(len(rhos)), gains)
    levels = np.moveaxis(gains, -1, 0)
    spent = np.divide(rhos[0], levels[0], out=levels[0])
    n = fits = np.less_equal(spent, omega, out=out)
    for rho, g in zip(rhos[1 : len(levels)], levels[1:], strict=True):
        spent += np.divide(rho, g, out=g)
        fits = np.less_equal(spent, omega, out=_as_mask(g))
        n += fits
    return _deeper_levels(n, spent, fits, rhos[len(levels) :], omega, deeper)


def sdo_packet_counts(own, best, rho1, rho2, omega, out=None):
    """Packet counts for SDO-NOMA; `best` is the best cross gain of each slot (see _owned for `out`).

    The extra cost is positive, so the two-packet test implies the primary one.
    """
    own, best, out = _owned(out, np.shape(own), np.uint8, own, best)
    c1 = np.divide(rho1, own, out=own)
    n = np.less_equal(c1, omega, out=out)
    c12 = np.divide(rho2, best, out=best)
    c12 += c1
    n += np.less_equal(c12, omega, out=_as_mask(own))
    return n


def fo_packet_counts(own, top, rho1, rho2, omega, deeper=None, m=None, out=None):
    """Packet counts for FO-NOMA over the m cross gains of each slot (m defaults to top.shape[-1]).

    top[..., j] holds the best of them in descending order; the rest come
    from `deeper` (see _deeper_levels).  Best gains first -> ascending extra
    costs -> the feasible set is a prefix (see _owned for `out`).
    """
    m = np.shape(top)[-1] if m is None else m
    own, top, out = _owned(out, np.shape(own), np.min_scalar_type(m + 1), own, top)
    spent = np.divide(rho1, own, out=own)
    n = fits = np.less_equal(spent, omega, out=out)
    for g in np.moveaxis(top, -1, 0):
        spent += np.divide(rho2, g, out=g)
        fits = np.less_equal(spent, omega, out=_as_mask(g))
        n += fits
    return _deeper_levels(n, spent, fits, (rho2,) * (m - top.shape[-1]), omega, deeper)


def _owned(out, shape, dtype, *gains):
    """The gains a kernel overwrites with costs and masks, and the counts array it writes.

    With `out`, of the kernel's count dtype, the caller hands over its
    float64 gains as well, so C-contiguous arrays cost no allocation; else
    the kernel works on copies and returns new counts.
    """
    if out is None:
        return (*(np.array(g, dtype=float) for g in gains), np.empty(shape, dtype))
    return (*gains, out)


def _as_mask(spent_gains):
    """A bool array of the shape of a float array whose values are spent, in its memory."""
    flat = spent_gains.ravel()  # a copy, not a view, if the array is not contiguous
    return flat.view(np.bool_)[: flat.size].reshape(spent_gains.shape)


def _deeper_levels(n, spent, fits, rhos, omega, deeper):
    """Add to the counts n the levels with costs `rhos`, each drawn only where every level before it fit.

    `spent` is the running cost after the levels already counted and
    `fits` is true where it is within budget.  `deeper(keep)` returns the
    next level's gains for the slots `keep`: indices into the slots of its
    previous call, or into spent.ravel() on its first.  Costs are positive,
    so a slot over budget stays over; the loop ends when no slot is left.
    """
    if not len(rhos):
        return n
    if deeper is None:
        raise ValueError(f"no gains for the last {len(rhos)} levels")
    alive = np.flatnonzero(fits)
    keep, spent = alive, spent.reshape(-1)[alive]
    counts = n.ravel()
    for rho in rhos:
        if not alive.size:
            break
        spent += rho / deeper(keep)
        keep = np.flatnonzero(spent <= omega)
        alive, spent = alive[keep], spent[keep]
        counts[alive] += 1
    return counts.reshape(n.shape)
