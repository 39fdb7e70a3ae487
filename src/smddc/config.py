"""Scenario configuration shared by the simulator, analytics, and CLI."""

import math
from dataclasses import dataclass

from .analytic import SessionSpec, _store_ints
from .policies import PolicyKind
from .power_ladder import PowerLadder, build_ladder


@dataclass(frozen=True)
class SystemConfig:
    """All scenario parameters, in linear units (the CLI converts dB inputs).

    gamma: per-level SINR target; omega: the user's power budget over the
    noise power, which is 1 (the probabilities depend on the two only by their
    ratio); k: number of channels/users; depth: the CLI's --depth, the L that
    `smddc ladder` prints (a policy carries its own depth); w packets within w_s slots.
    """

    gamma: float
    omega: float
    k: int = 2
    depth: int = 1
    w: int = 50
    w_s: int = 55

    def __post_init__(self):
        _store_ints(self, "k", "depth", "w", "w_s")
        if not (self.gamma > 0 and self.omega > 0):  # NaN fails too
            raise ValueError("gamma and omega must be positive")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.depth < 1:
            raise ValueError(f"depth must be at least 1, got {self.depth}")
        self.session_spec()  # raises for anything but w_s >= w >= 1

    def session_spec(self) -> SessionSpec:
        return SessionSpec(w=self.w, w_s=self.w_s)

    def ladder_for(self, policy: PolicyKind) -> PowerLadder:
        """Power ladder of the policy at unit noise power; the policy must be able to run with this config's k."""
        policy.check_users(self.k)
        return build_ladder(self.gamma, 1.0, policy.depth)


def db_to_linear(value_db: float) -> float:
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:  # beyond the double range; the CLI rejects the infinity
        return math.inf
