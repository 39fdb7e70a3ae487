"""Seeded Monte Carlo engine for session error and packet-count estimation.

Sessions are split into fixed-size batches; batch b always draws from the
substream (seed, b), so estimates are bit-identical for any worker count.
A batch draws all its gains as one level-major array, (levels, w_s,
sessions), and the vectorized policy kernels turn them into per-slot packet
counts of shape (w_s, sessions); a session fails when its counts, summed
over the leading w_s axis, come to less than w.  Every transmitted packet
is decoded (power control meets the SINR target exactly and SIC is
error-free under perfect CSI), so the per-slot success count is just the
policy's packet count.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import policies
from .analytic import PacketCountDistribution
from .channel import RngStream, descending_order_statistics, draw_exponential
from .config import SystemConfig
from .policies import PolicyKind

DEFAULT_BATCH_SIZE = 50_000


@dataclass(frozen=True)
class SessionStats:
    """Monte Carlo estimate of the session error probability with a 95% CI."""

    trials: int
    errors: int
    p_hat: float
    ci95_halfwidth: float
    seed: int


def _slot_counts(policy: PolicyKind, config: SystemConfig, stream: RngStream, shape):
    """Vectorized per-slot packet counts over an array of slots of the given shape.

    Multi-level gains are drawn level-major, (levels,) + shape, and reach
    the kernels as np.moveaxis(..., 0, -1) views, so each per-level step runs
    over one contiguous slab.  SDO and FO share one draw of the descending
    cross gains: SDO reads the best one, FO walks them all.
    """
    ladder = config.ladder_for(policy)
    rho, omega = ladder.levels, config.omega
    if policy.variant == "symmetric":
        gains = draw_exponential(stream, 1.0, size=(policy.depth,) + shape)
        return policies.symmetric_packet_counts(np.moveaxis(gains, 0, -1), rho, omega)
    own = draw_exponential(stream, 1.0, size=shape)
    if policy.variant == "oma":
        return policies.oma_packet_counts(own, rho[0], omega)
    top = descending_order_statistics(draw_exponential(stream, 1.0, size=(config.k - 1,) + shape))
    if policy.variant == "sdo":
        return policies.sdo_packet_counts(own, top[0], rho[0], rho[1], omega)
    return policies.fo_packet_counts(own, np.moveaxis(top, 0, -1), rho[0], rho[1], omega)


def _batch_errors(
    policy: PolicyKind, config: SystemConfig, seed: int, batch_index: int, n_sessions: int
) -> int:
    counts = _slot_counts(policy, config, RngStream(seed, batch_index), (config.w_s, n_sessions))
    max_total = config.w_s * policy.max_packets(config.k)
    totals = counts.sum(axis=0, dtype=np.min_scalar_type(max_total))
    return int(np.count_nonzero(totals < config.w))


def _batches(trials: int, batch_size: int):
    for b, start in enumerate(range(0, trials, batch_size)):
        yield b, min(batch_size, trials - start)


def estimate_session_error(
    policy: PolicyKind,
    config: SystemConfig,
    trials: int,
    seed: int = 0,
    workers: int = 1,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> SessionStats:
    """Monte Carlo estimate of the session error probability.

    Deterministic given (seed, trials, config, batch_size) for any number of
    workers: batches map to fixed substreams and the merge is a plain sum.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    jobs = list(_batches(trials, batch_size))
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_batch_errors, policy, config, seed, b, n) for b, n in jobs]
            errors = sum(f.result() for f in futures)
    else:
        errors = sum(_batch_errors(policy, config, seed, b, n) for b, n in jobs)
    p_hat = errors / trials
    ci = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return SessionStats(trials=trials, errors=errors, p_hat=p_hat, ci95_halfwidth=ci, seed=seed)


def estimate_alphas(
    policy: PolicyKind,
    config: SystemConfig,
    trials: int,
    seed: int = 0,
    batch_size: int = 1_000_000,
) -> PacketCountDistribution:
    """Empirical per-slot packet-count distribution over `trials` independent slots.

    Feeds the generic Chernoff bound when no closed-form law is available
    (symmetric depth > 2, FO-NOMA).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    max_n = policy.max_packets(config.k)
    freq = np.zeros(max_n + 1, dtype=np.int64)
    for b, n in _batches(trials, batch_size):
        counts = _slot_counts(policy, config, RngStream(seed, b), (n,))
        freq += np.bincount(counts, minlength=max_n + 1)
    return PacketCountDistribution(tuple(freq / trials))
