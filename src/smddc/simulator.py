"""Seeded Monte Carlo engine for session error and packet-count estimation.

Sessions are split into fixed-size batches; batch b always draws from the
substream (seed, b), so estimates are bit-identical for any worker count.
A batch draws its gains for slots of shape (w_s, sessions), one level at a
time and each deeper level only for the slots still within budget, and the
vectorized policy kernels turn them into per-slot packet counts of shape
(w_s, sessions); a session fails when its counts, summed over the leading
w_s axis, come to less than w.  Every transmitted packet
is decoded (power control meets the SINR target exactly and SIC is
error-free under perfect CSI), so the per-slot success count is just the
policy's packet count.  Policies that nest slot by slot on one stream
(OMA, SDO and FO; OMA and symmetric depths) share one draw per batch:
each member's counts are its family's deepest member's, capped.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import policies
from .analytic import PacketCountDistribution
from .channel import RngStream, draw_exponential, gain_from_neg_log_cdf
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


class DescendingCrossGains:
    """The m = K-1 cross gains of each slot, drawn from the top down, level by level.

    Exponential order statistics in CDF space (Devroye, *Non-Uniform Random
    Variate Generation*, 1986, ch. V): with E_j iid Exp(1), a_1 = E_1/m and
    a_{j+1} = a_j + E_{j+1}/(m-j) are minus the logs of the CDF values of
    the m gains in descending order, and the level-j gain is
    gain_from_neg_log_cdf(a_j).  `best`, the top level, is drawn for every
    slot of `shape`.  Each call draws the next level only for the slots
    `keep` (indices into the slots of the previous level, flattened), so a
    level depends only on the levels above it.
    """

    def __init__(self, stream: RngStream, m: int, shape):
        self._stream, self._m, self._level = stream, m, 1
        self._a = draw_exponential(stream, 1.0 / m, size=shape)
        self.best = gain_from_neg_log_cdf(self._a)

    def __call__(self, keep):
        self._a = a = self._a.reshape(-1)[keep]  # the level above is not needed any more
        a += draw_exponential(self._stream, 1.0 / (self._m - self._level), size=a.size)
        self._level += 1
        return gain_from_neg_log_cdf(a)


def _slot_counts(policy: PolicyKind, config: SystemConfig, stream: RngStream, shape):
    """Vectorized per-slot packet counts over an array of slots of the given shape.

    Every slot draws its own gain and, for SDO and FO, its best cross gain;
    symmetric NOMA draws its first two levels level-major, (levels,) +
    shape.  Deeper levels (symmetric l >= 3, FO's further cross gains) are
    drawn only for the slots that afforded every level before them.  SDO
    and FO share the same draws, so SDO's count is FO's capped at 2.
    """
    ladder = config.ladder_for(policy)
    rho, omega = ladder.levels, config.omega
    if policy.variant == "sym":
        gains = draw_exponential(stream, 1.0, size=(min(policy.depth, 2),) + shape)
        return policies.symmetric_packet_counts(
            np.moveaxis(gains, 0, -1), rho, omega, lambda keep: draw_exponential(stream, 1.0, size=keep.size)
        )
    own = draw_exponential(stream, 1.0, size=shape)
    if policy.variant == "oma":
        return policies.oma_packet_counts(own, rho[0], omega)
    if policy.variant == "sdo":  # keeps only the best cross gain, not the sampler's state
        best = DescendingCrossGains(stream, config.k - 1, shape).best
        return policies.sdo_packet_counts(own, best, rho[0], rho[1], omega)
    cross = DescendingCrossGains(stream, config.k - 1, shape)
    return policies.fo_packet_counts(own, cross.best[..., None], rho[0], rho[1], omega, cross, config.k - 1)


def _families(policies, k: int):
    """Split the policies into nested families, each as (driver, member indices).

    On one stream, OMA == min(FO, 1), SDO == min(FO, 2) and sym L ==
    min(sym L', L) for L <= L', slot by slot: the cross family (SDO, FO)
    and the own family (symmetric) each need only the draw of their
    deepest member, the driver.  OMA joins whichever family is present.
    """
    own = [i for i, p in enumerate(policies) if p.variant == "sym"]
    cross = [i for i, p in enumerate(policies) if p.variant in ("sdo", "fo")]
    oma = [i for i, p in enumerate(policies) if p.variant == "oma"]
    if own:
        own += oma
    else:
        cross += oma
    return [
        (max((policies[i] for i in members), key=lambda p: p.max_packets(k)), members)
        for members in (cross, own)
        if members
    ]


def _batch_errors(policies, config: SystemConfig, seed: int, batch_index: int, n_sessions: int):
    """Session errors of each policy in one batch, one draw per nested family."""
    errors = [0] * len(policies)
    for driver, members in _families(policies, config.k):
        counts = _slot_counts(driver, config, RngStream(seed, batch_index), (config.w_s, n_sessions))
        for i in members:
            cap = policies[i].max_packets(config.k)
            capped = counts if cap >= driver.max_packets(config.k) else np.minimum(counts, cap)
            totals = capped.sum(axis=0, dtype=np.min_scalar_type(config.w_s * cap))
            errors[i] = int(np.count_nonzero(totals < config.w))
    return errors


def _batches(trials: int, batch_size: int):
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    for b, start in enumerate(range(0, trials, batch_size)):
        yield b, min(batch_size, trials - start)


def estimate_session_errors(
    policies,
    config: SystemConfig,
    trials: int,
    seed: int = 0,
    workers: int = 1,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> list[SessionStats]:
    """Monte Carlo estimates of the session error probability, one per policy, in order.

    Each batch draws once per nested family (see _families) from the
    substream (seed, b), so every estimate equals that of a separate call
    at the same seed.  Deterministic given (seed, trials, config,
    batch_size) for any number of workers: batches map to fixed substreams
    and the merge is a plain sum.  Every policy is checked against
    config.k before any batch runs.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    policies = list(policies)
    for policy in policies:
        policy.check_users(config.k)
    jobs = list(_batches(trials, batch_size))
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_batch_errors, policies, config, seed, b, n) for b, n in jobs]
            per_batch = [f.result() for f in futures]
    else:
        per_batch = [_batch_errors(policies, config, seed, b, n) for b, n in jobs]
    results = []
    for errors in map(sum, zip(*per_batch)):
        p_hat = errors / trials
        ci = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
        results.append(SessionStats(trials=trials, errors=errors, p_hat=p_hat, ci95_halfwidth=ci, seed=seed))
    return results


def estimate_session_error(
    policy: PolicyKind,
    config: SystemConfig,
    trials: int,
    seed: int = 0,
    workers: int = 1,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> SessionStats:
    """Monte Carlo estimate of the session error probability of one policy."""
    return estimate_session_errors([policy], config, trials, seed, workers, batch_size)[0]


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
    return PacketCountDistribution(tuple((freq / trials).tolist()))
