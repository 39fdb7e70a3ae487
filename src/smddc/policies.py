"""Per-slot transmission decisions for OMA and the opportunistic NOMA modes.

Every policy makes one decision per slot: it sends the longest prefix of
its power-ladder levels whose total cost, the sum of rho_l / g_l, stays
within the budget omega (inclusive), so if the level-1 packet is
unaffordable nothing is sent.  The policies differ only in the gain that
backs each level and in each level's cost:

- OMA: the own gain, at rho_1;
- symmetric depth L: the gains of levels 1..L, at rho_1..rho_L;
- SDO: the own gain at rho_1, then the best cross gain at rho_2;
- FO: the own gain at rho_1, then the m = K-1 cross gains, best first,
  each at rho_2 (best first makes the extra costs ascend, so the prefix
  is the largest affordable set).

The `*_packet_counts` kernels are vectorized over numpy arrays of slots and
are the Monte Carlo simulator's inner loop; each is one call into
_prefix_counts.  Multi-level gains come with the level on the last axis, so
a caller that passes np.moveaxis(level_major, 0, -1) hands the kernel one
contiguous slab per level.  The symmetric and FO kernels can take their
deeper levels from a callable deeper(level, keep) instead, which draws a
level only for the slots still within budget, in passes over the slots
that a second callable picks from the counts of the first levels, each
pass the ascending flat indices of its slots and drawn from level 0.
Gains are only read; counts come back new, in the narrowest unsigned
integer dtype that holds the per-slot cap.
"""

from dataclasses import dataclass

import numpy as np

from .analytic import _store_ints

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
        _store_ints(self, "depth")
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


def oma_packet_counts(own, rho1, omega):
    """Packet counts per slot for OMA; `own` is an array of own-channel gains."""
    return _prefix_counts((own,), (rho1,), omega)


def symmetric_packet_counts(gains, rhos, omega, deeper=None, passes=None):
    """Packet counts for symmetric NOMA; gains[..., l] carries the level-(l+1) packet, at cost rhos[l].

    `gains` holds the first levels; the rest of `rhos`, if any, come from
    `deeper`, for the slots of `passes`, ascending flat slot indices (see _prefix_counts).
    """
    return _prefix_counts(np.moveaxis(gains, -1, 0), rhos, omega, deeper, passes)


def sdo_packet_counts(own, best, rho1, rho2, omega):
    """Packet counts for SDO-NOMA; `best` is the best cross gain of each slot."""
    return _prefix_counts((own, best), (rho1, rho2), omega)


def fo_packet_counts(own, top, rho1, rho2, omega, deeper=None, m=None, passes=None):
    """Packet counts for FO-NOMA over the m cross gains of each slot (m defaults to top.shape[-1]).

    top[..., j] holds the best of them in descending order; the rest come
    from `deeper`, for the slots of `passes`, ascending flat slot indices (see _prefix_counts).
    """
    m = np.shape(top)[-1] if m is None else m
    return _prefix_counts((own, *np.moveaxis(top, -1, 0)), (rho1,) + (rho2,) * m, omega, deeper, passes)


def _prefix_counts(levels, rhos, omega, deeper=None, passes=None):
    """Per slot, the number of leading levels whose running cost, the sum of rhos[l] / levels[l], is <= omega.

    levels[l] holds the level-(l+1) gains of every slot; the levels of the
    rest of `rhos` come from `deeper(level, keep)`, which returns the gains
    of that level, counted from 0 at the first one past `levels`, for the
    slots `keep`: indices into the flattened slots at level 0 and into the
    slots of the previous call after it.  Costs are positive, so the
    running cost rises and a slot over budget stays over: the count is the
    number of running sums <= omega, and a deeper level is drawn only for
    the slots still within budget.  With `passes`, the deeper levels are
    drawn once for each of the disjoint passes of `passes(dense)`, each the
    ascending indices of its slots in the flattened slots, in its order and
    for its slots only, where `dense` is the counts of `levels` alone;
    without it, once for every slot.  The gains are only read; the counts
    are a new array of dtype np.min_scalar_type(len(rhos)).
    """
    if len(levels) > len(rhos):
        raise ValueError(f"gains for {len(levels)} levels but costs for only {len(rhos)}")
    spent = np.divide(rhos[0], levels[0], dtype=float)
    n = fits = np.less_equal(spent, omega, out=np.empty(spent.shape, np.min_scalar_type(len(rhos))))
    for rho, g in zip(rhos[1:], levels[1:]):
        spent += np.divide(rho, g, dtype=float)
        fits = spent <= omega
        n += fits
    rest = rhos[len(levels) :]
    if not len(rest):
        return n
    if deeper is None:
        raise ValueError(f"no gains for the last {len(rest)} levels")
    spent, counts, fits = spent.reshape(-1), n.reshape(-1), fits.reshape(-1)  # n is new, so counts is a view of it
    for slots in [None] if passes is None else passes(n):  # compress takes fits as nonzero: with one level, fits is n
        alive = np.flatnonzero(fits) if slots is None else np.compress(fits[slots], slots)  # faster than a boolean index
        keep, total = alive, spent[alive]
        for level, rho in enumerate(rest):
            if not alive.size:
                break
            total += rho / deeper(level, keep)
            keep = np.flatnonzero(total <= omega)
            alive, total = alive[keep], total[keep]
            counts[alive] += 1
    return n
