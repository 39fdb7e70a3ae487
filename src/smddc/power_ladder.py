"""Received-power targets that make successive interference cancellation work.

With SIC decoding from the top level down, the packet at level l sees the
(already-known) levels below it as interference.  Requiring the same SINR
target at every level fixes the received powers by a simple recursion.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class PowerLadder:
    """Received-power targets rho_1..rho_L for a common SINR target.

    All quantities are linear (not dB).  gamma is the per-level SINR
    target, n0 the noise power.
    """

    gamma: float
    n0: float
    levels: tuple[float, ...]

    @property
    def depth(self) -> int:
        return len(self.levels)


def build_ladder(gamma: float, n0: float, depth: int) -> PowerLadder:
    """Build the power ladder by the SINR recursion rho_l = gamma*(sum_{m<l} rho_m + n0)."""
    if not gamma > 0:  # NaN fails too
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not n0 > 0:
        raise ValueError(f"n0 must be positive, got {n0}")
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")

    levels = []
    interference = n0
    for _ in range(depth):
        rho = gamma * interference
        levels.append(rho)
        interference += rho
    return PowerLadder(gamma=gamma, n0=n0, levels=tuple(levels))


def sinr_at_level(ladder: PowerLadder, level: int) -> float:
    """SINR of the packet at `level` (1-based) assuming SIC removed all higher levels.

    Equals ladder.gamma exactly for a ladder built by the recursion.
    """
    if not 1 <= level <= ladder.depth:
        raise IndexError(f"level {level} out of range 1..{ladder.depth}")
    interference = sum(ladder.levels[: level - 1]) + ladder.n0
    return ladder.levels[level - 1] / interference

