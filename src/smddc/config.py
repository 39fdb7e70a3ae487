"""Scenario configuration shared by the simulator, analytics, and CLI."""

import math
from dataclasses import dataclass

from .analytic import SessionSpec
from .policies import PolicyKind
from .power_ladder import PowerLadder, build_ladder


@dataclass(frozen=True)
class SystemConfig:
    """All scenario parameters, in linear units (the CLI converts dB inputs).

    gamma: per-level SINR target; omega: the user's power budget; n0: noise
    power; k: number of channels/users; depth: NOMA depth L (symmetric);
    w packets within w_s slots; policy, trials, seed drive the experiment
    commands.
    """

    gamma: float
    omega: float
    n0: float = 1.0
    k: int = 2
    depth: int = 1
    w: int = 50
    w_s: int = 55
    policy: PolicyKind = PolicyKind.oma()
    trials: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.gamma <= 0 or self.omega <= 0 or self.n0 <= 0:
            raise ValueError("gamma, omega and n0 must be positive")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.depth < 1:
            raise ValueError(f"depth must be at least 1, got {self.depth}")
        if self.policy.variant in ("sdo", "fo") and self.k < 2:
            raise ValueError(f"{self.policy.variant} needs k >= 2")
        if self.w < 1 or self.w_s < self.w:
            raise ValueError(f"need w_s >= w >= 1, got w={self.w}, w_s={self.w_s}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")

    def session_spec(self) -> SessionSpec:
        return SessionSpec(w=self.w, w_s=self.w_s)

    def ladder_for(self, policy: PolicyKind | None = None) -> PowerLadder:
        """Power ladder deep enough for the given (default: configured) policy."""
        policy = policy or self.policy
        if policy.variant == "symmetric" and policy.depth > self.k:
            raise ValueError(f"symmetric depth {policy.depth} exceeds k={self.k}")
        return build_ladder(self.gamma, self.n0, policy.ladder_depth())


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    return 10.0 * math.log10(value)
