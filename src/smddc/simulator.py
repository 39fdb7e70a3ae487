"""Seeded Monte Carlo engine for session error and packet-count estimation.

Sessions are split into fixed-size batches; batch b always draws from the
substream (seed, b), so estimates are bit-identical for any worker count.
A batch draws its gains for slots of shape (w_s, sessions), one level at a
time and each deeper level only for the slots still within budget, and the
vectorized policy kernels turn them into per-slot packet counts of shape
(w_s, sessions); a session fails when its counts, summed over the leading
w_s axis, come to less than w.  The counts do not depend on w_s, so
several session lengths share one draw for the longest: a shorter session
is a prefix of its slots.  Every transmitted packet is decoded (power
control meets the SINR target exactly and SIC is error-free under perfect
CSI), so the per-slot success count is just the policy's packet count.
Policies that nest slot by slot on one stream (OMA, SDO and FO; OMA and
symmetric depths) share one draw per batch: each member's counts are its
family's deepest member's, capped.

The dense levels, each slot's own gain and best cross gain or symmetric
levels 1 and 2, are drawn for every slot.  A session whose dense total
reaches w at a length succeeds there under every member, since a deeper
level only adds packets; so the deeper levels (FO's further cross gains,
symmetric l >= 3) are drawn only for the sessions short of w at some
requested length, and only in their slots up to the longest such length,
in two passes, each the ascending flat indices of its slots (see
_undecided).  OMA, SDO, symmetric L <= 2 and FO at K = 2 read the dense
levels alone, so the screen leaves their bits as they were.

The caller runs batches beside workers - 1 threads of its process, and
each run takes the next batch from one shared iterator as soon as it is free;
both estimates, of sessions and of the packet-count law, start runs in _launch.
numpy's draws and large ufunc loops release the GIL; a batch's
Python-level work, about 80 us, holds it (a 1,000-session SDO+FO batch at
K = 8 takes 1.1 ms).  Each run draws its dense levels into its own
buffers, sized for its first batch: batches are taken in order and only
the last can be smaller, and it takes their contiguous prefix.  So later
batches reuse memory the run has already touched.  Every kernel returns
a new array, and the survivors of deeper levels (FO, symmetric L >= 3)
are compacted into new arrays; only the cap of a family's counts works
in place.  At W_S = 55 a 1,000-session batch keeps a level in 0.44 MB.
"""

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import ProcessPoolExecutor  # unused: bench/spans.py replaces it, and raises if it is gone
from dataclasses import dataclass
from itertools import chain, count, repeat

import numpy as np

from . import policies
from .analytic import PacketCountDistribution, SessionSpec
from .channel import RngStream, draw_exponential, gain_from_neg_log_cdf
from .config import SystemConfig
from .policies import PolicyKind

DEFAULT_BATCH_SIZE = 1_000  # sessions
# Slots.  Smaller law batches cost more per slot in Python-level work;
# larger ones raise sweep-k8's peak RSS and did not run it faster (BENCH_30.json).
LAW_BATCH_SIZE = 20_000
MAX_WORKERS = 64  # runs per estimate: each but the caller's is a thread, and each keeps its own buffers


@dataclass(frozen=True)
class SessionStats:
    """A session error estimate; ci95_halfwidth is its Wald half-width, 0.0 if no or every session fails."""

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
    slot, a_1 into `top` and the gains into `best`, two C-contiguous
    float64 arrays of the slots' shape.  A call (level, keep) is a
    kernel's `deeper`: it draws the level below `best` by 1 + level only
    for the slots `keep`, indices into the flattened slots of `best` at
    level 0 and into the slots of the previous call after it, so a level
    depends only on the levels above it, and each pass of a kernel starts
    again at `best`.
    """

    def __init__(self, stream: RngStream, m: int, top, best):
        self._stream, self._m = stream, m
        self._top = draw_exponential(stream, 1.0 / m, top.shape, out=top)
        self.best = gain_from_neg_log_cdf(top, out=best)

    def __call__(self, level, keep):
        above = self._top.reshape(-1) if level == 0 else self._a
        self._a = a = above[keep]  # a new array: the level above stays as it was
        a += draw_exponential(self._stream, 1.0 / (self._m - 1 - level), size=a.size)
        return gain_from_neg_log_cdf(a)


def _short_of(w: int, counts, lengths, cap: int):
    """For each ascending length l, which sessions (columns of `counts`, each <= cap) total < w in slots [0, l)."""
    totals = np.zeros(counts.shape[1], np.min_scalar_type(lengths[-1] * cap))  # holds each total
    for prev, w_s in zip([0, *lengths], lengths):
        totals += counts[prev:w_s].sum(axis=0, dtype=totals.dtype)
        yield totals < w


def _undecided(dense, lengths, w: int):
    """The passes of a batch's deeper levels, as ascending flat slot indices, from the counts `dense` of its dense levels.

    A session whose dense total reaches w at a length succeeds there under
    every policy drawn from these levels, since the deeper levels only add
    packets.  So the deeper levels matter only in the slots [0, l) of a
    session short of w at its longest such length l.  The first pass
    covers the sessions short at lengths[-1], over all their slots: all
    that a call with lengths[-1] alone would draw.  The second covers the
    sessions short only at shorter lengths, each over its slots [0, l).
    Each is built from its sessions' columns alone, and both are functions of `dense` alone.
    """
    short = list(_short_of(w, dense, lengths, 2))  # a session short at a length is short at every shorter one
    if not short[0].any():  # so none is short: most batches, where the dense levels nearly always suffice
        return []
    rows, longest = np.arange(lengths[-1])[:, None] * dense.shape[1], short[-1]  # slot (t, s) is rows[t] + s
    # a session short at lengths[j] needs its slots [lengths[j-1], lengths[j]): segment by segment, they ascend
    rest = [(rows[a:b] + np.flatnonzero(s != longest)).reshape(-1) for a, b, s in zip([0, *lengths], lengths, short)]
    passes = (rows + np.flatnonzero(longest)).reshape(-1), np.concatenate(rest)
    return [p for p in passes if p.size]


def _buffer(buffers, name, shape):
    """The run's float64 buffer `name` of the dict `buffers` as an array of `shape`: made for the run's
    first batch, its largest, and a contiguous prefix of it for a smaller last one."""
    size = math.prod(shape)
    if name not in buffers:
        buffers[name] = np.empty(size)
    return buffers[name][:size].reshape(shape)


def _slot_counts(policy: PolicyKind, config: SystemConfig, stream: RngStream, shape, buffers, lengths=None):
    """Vectorized per-slot packet counts over an array of slots of the given shape.

    Every slot draws its own gain and, for SDO and FO, its best cross gain;
    symmetric NOMA draws its first two levels level-major, (levels,) +
    shape.  These are the dense levels.  Deeper levels (symmetric l >= 3,
    FO's further cross gains) are drawn only for the slots that afforded
    every level before them and, given the ascending session `lengths`
    (shape is then (lengths[-1], sessions)), only in the passes of
    _undecided: elsewhere the counts stop at the dense levels' and still
    decide every session at every length.  FO's deeper(level, keep) is the
    cross-gain sampler, symmetric's one Exp(1) per kept slot.  SDO draws
    as FO does, so its count is FO's capped at 2.  The dense levels are
    drawn into the run's dict `buffers` (see _buffer; {} for arrays of
    this call alone), good until its next batch; the counts returned are
    the kernel's own new array.
    """
    ladder = config.ladder_for(policy)
    rho, omega = ladder.levels, config.omega
    passes = None if lengths is None else lambda dense: _undecided(dense, lengths, config.w)
    if policy.variant == "sym":
        dense = (min(policy.depth, 2),) + shape
        gains = draw_exponential(stream, 1.0, dense, out=_buffer(buffers, "levels", dense))
        return policies.symmetric_packet_counts(
            np.moveaxis(gains, 0, -1), rho, omega, lambda _, keep: draw_exponential(stream, 1.0, size=keep.size), passes
        )
    own = draw_exponential(stream, 1.0, shape, out=_buffer(buffers, "own", shape))
    if policy.variant == "oma":
        return policies.oma_packet_counts(own, rho[0], omega)
    top, best = (_buffer(buffers, name, shape) for name in ("top", "best"))
    cross = DescendingCrossGains(stream, config.k - 1, top, best)
    if policy.variant == "sdo":  # keeps only the best cross gain, not the sampler's state
        return policies.sdo_packet_counts(own, cross.best, rho[0], rho[1], omega)
    return policies.fo_packet_counts(own, cross.best[..., None], rho[0], rho[1], omega, cross, config.k - 1, passes)


def _families(policies, k: int):
    """Split the policies into nested families, each as (driver, member indices, deepest first).

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
    families = [sorted(members, key=lambda i: -policies[i].max_packets(k)) for members in (cross, own)]
    return [(policies[members[0]], members) for members in families if members]


def _run_batches(policies, config: SystemConfig, lengths, seed: int, jobs):
    """Session errors, shape (len(lengths), len(policies)), summed over the batches (b, n) it takes from `jobs`.

    Each batch draws once per nested family, for the longest session and
    screened at `lengths`; the members, deepest first, cap the driver's
    counts in place, and each of the ascending `lengths` adds its slots
    since the previous one to a running total.  The batches draw their
    dense levels into one set of buffers, dropped when the run ends.
    """
    families, buffers = _families(policies, config.k), {}
    errors = np.zeros((len(lengths), len(policies)), dtype=np.int64)
    for b, n_sessions in jobs:
        for driver, members in families:
            counts = _slot_counts(driver, config, RngStream(seed, b), (lengths[-1], n_sessions), buffers, lengths)
            for i in members:
                cap = policies[i].max_packets(config.k)
                if cap < driver.max_packets(config.k):  # the driver's counts never exceed its own cap
                    np.minimum(counts, cap, out=counts)
                errors[:, i] += [np.count_nonzero(short) for short in _short_of(config.w, counts, lengths, cap)]
    return errors


def _run_law(policy: PolicyKind, config: SystemConfig, seed: int, jobs):
    """Slot counts by packet count, 0 to the cap, over the batches (b, n slots) it takes from `jobs`."""
    buffers, freq = {}, np.zeros(policy.max_packets(config.k) + 1, dtype=np.int64)
    for b, n_slots in jobs:
        counts = _slot_counts(policy, config, RngStream(seed, b), (n_slots,), buffers)
        freq += np.bincount(counts, minlength=freq.size)
    return freq


def _launch(run, trials: int, workers: int, batch_size: int):
    """The integer sum of run(jobs) over the caller's run and those of min(workers, batches) - 1 threads.

    `trials` is split in order into batches (b, n), n = batch_size but for
    a smaller last one, and each run takes the next one from `jobs` when
    free: one C-level iterator, which threads may share (a generator raises
    when two step it) and which holds no list of the batches.  An error or
    Ctrl-C in a run empties `jobs`, so every other run stops after its
    current batch, and it is raised here.
    """
    for name, value in (("trials", trials), ("workers", workers), ("batch_size", batch_size)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be at most {MAX_WORKERS}, got {workers}")
    full, tail = divmod(trials, batch_size)
    jobs = zip(count(), chain(repeat(batch_size, full), [tail] if tail else []))
    threads = min(workers, full + (tail > 0)) - 1

    def stopping():
        try:
            return run(jobs)
        except BaseException:
            for _ in jobs:
                pass
            raise

    with ThreadPoolExecutor(max_workers=max(threads, 1)) as pool:  # a thread starts only on a submit
        futures = [pool.submit(stopping) for _ in range(threads)]
        total = stopping()
    return total + sum(f.result() for f in futures)


def estimate_session_error_curves(
    policies,
    config: SystemConfig,
    w_s_values,
    trials: int,
    seed: int = 0,
    workers: int = 1,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> dict[int, list[SessionStats]]:
    """Monte Carlo session error estimates: for each distinct w_s of `w_s_values`, one SessionStats per policy.

    config.w_s is not read: the per-slot counts do not depend on it, so a
    w_s-slot session is the first w_s slots of the longest one.  Each batch
    draws once per nested family (see _families), for the longest session,
    from the substream (seed, b), and draws the deeper levels only where
    they can decide a session at one of the lengths (see _undecided).
    Which slots those are depends on the dense levels' draws alone, and
    elsewhere the dense counts already decide every member, so every
    estimate is unbiased and exact in law over `trials` independent
    sessions.  OMA, SDO and symmetric L <= 2 never draw a deeper level,
    so their bits do not depend on that screen; FO at K >= 3 and symmetric
    L >= 3 do.  The estimates at different lengths are paired (common
    random numbers), so each policy's error count is non-increasing in
    w_s.  Each policy's estimate at the longest length equals that of a
    call with that policy alone at that length and the same seed: the
    screen's first pass is all that such a call draws.  Deterministic given
    (seed, trials, config, w_s_values, batch_size) for any number of
    workers: batches map to fixed substreams, each run (the caller's or a
    thread's) takes the next batch when free, and the merge is a sum.  Every
    policy and every length is checked before any batch runs.
    """
    policies = list(policies)
    if not policies:
        raise ValueError("policies holds no policy")
    lengths = sorted({SessionSpec(config.w, w_s).w_s for w_s in w_s_values})  # ints, each w_s >= w >= 1
    if not lengths:
        raise ValueError("w_s_values holds no session length")
    for policy in policies:
        policy.check_users(config.k)
    errors = _launch(functools.partial(_run_batches, policies, config, lengths, seed), trials, workers, batch_size)

    def stats(n_errors):
        p_hat = n_errors / trials
        ci = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
        return SessionStats(trials=trials, errors=n_errors, p_hat=p_hat, ci95_halfwidth=ci, seed=seed)

    return {w_s: [stats(n) for n in row] for w_s, row in zip(lengths, errors.tolist())}


def estimate_session_error(
    policy: PolicyKind,
    config: SystemConfig,
    trials: int,
    seed: int = 0,
    workers: int = 1,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> SessionStats:
    """Monte Carlo estimate of the session error probability of one policy at config.w_s."""
    curves = estimate_session_error_curves([policy], config, (config.w_s,), trials, seed, workers, batch_size)
    return curves[config.w_s][0]


def estimate_alphas(
    policy: PolicyKind,
    config: SystemConfig,
    trials: int,
    seed: int = 0,
    *,
    workers: int = 1,
    batch_size: int = LAW_BATCH_SIZE,
) -> PacketCountDistribution:
    """Empirical per-slot packet-count distribution over `trials` independent slots.

    Feeds the generic Chernoff bound where cli._packet_count_law's rule
    gives no closed-form law.  The slots are split into batches of
    `batch_size` and run through _launch, as the session estimates are:
    batch b draws its slots from the substream (seed, b), each run draws
    the dense levels into its own buffers and bincounts the counts, and
    the merge is a sum.  So memory is bounded by the batch, not by
    `trials`, and the law is deterministic given (seed, trials, config,
    batch_size) for any number of workers.  The policy, trials, workers
    and batch_size are checked before any batch runs.
    """
    policy.check_users(config.k)
    freq = _launch(functools.partial(_run_law, policy, config, seed), trials, workers, batch_size)
    return PacketCountDistribution(tuple((freq / trials).tolist()))
