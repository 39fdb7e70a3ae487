"""Opportunistic NOMA for uplink short-message delivery with a delay constraint.

Monte Carlo simulator and analytic bound library for the session error
probability of OMA versus opportunistic NOMA policies under Rayleigh fading.
"""

from .analytic import (
    ChernoffResult,
    NomaFactor,
    PacketCountDistribution,
    SessionSpec,
    alphas_from_betas,
    beta1,
    beta2_sdo,
    beta2_symmetric,
    chernoff_generic,
    chernoff_noma2,
    chernoff_oma,
    exact_session_error,
    log_session_error,
    mean_packets,
    noma_factor,
    oma_session_error_binomial,
    x_k1,
)
from .channel import RngStream, draw_exponential
from .config import SystemConfig, db_to_linear
from .policies import PolicyKind
from .power_ladder import PowerLadder, build_ladder, sinr_at_level
from .simulator import SessionStats, estimate_alphas, estimate_session_error, estimate_session_error_curves

__all__ = [
    "ChernoffResult",
    "NomaFactor",
    "PacketCountDistribution",
    "PolicyKind",
    "PowerLadder",
    "RngStream",
    "SessionSpec",
    "SessionStats",
    "SystemConfig",
    "alphas_from_betas",
    "beta1",
    "beta2_sdo",
    "beta2_symmetric",
    "build_ladder",
    "chernoff_generic",
    "chernoff_noma2",
    "chernoff_oma",
    "db_to_linear",
    "draw_exponential",
    "estimate_alphas",
    "estimate_session_error",
    "estimate_session_error_curves",
    "exact_session_error",
    "log_session_error",
    "mean_packets",
    "noma_factor",
    "oma_session_error_binomial",
    "sinr_at_level",
    "x_k1",
]

__version__ = "0.1.0"
