import inspect
import itertools
import math
import os
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smddc import (
    PolicyKind,
    RngStream,
    SystemConfig,
    alphas_from_betas,
    beta1,
    beta2_symmetric,
    draw_exponential,
    estimate_alphas,
    estimate_session_error,
    estimate_session_error_curves,
    exact_session_error,
    mean_packets,
)
from smddc import analytic, simulator
from smddc.simulator import _run_batches, _slot_counts

ALL_POLICIES = (PolicyKind.oma(), PolicyKind.symmetric(3), PolicyKind.sdo(), PolicyKind.fo())

CFG = SystemConfig(gamma=4, omega=20, k=3, w=50, w_s=55)


def test_estimate_forced_failure():
    # no gain can afford rho_1 / g <= 1e-300, so no slot carries a packet
    cfg = SystemConfig(gamma=4, omega=1e-300, k=3, w=50, w_s=55)
    for policy in ALL_POLICIES:
        stats = estimate_session_error(policy, cfg, trials=100)
        assert stats.p_hat == 1.0 and stats.errors == 100


def test_slot_counts_forced_failure():
    # the same starved budget, one session at a time: all w_s slots are
    # drawn, none carries a packet, and the session misses its w packets
    cfg = SystemConfig(gamma=4, omega=1e-300, k=3, w=50, w_s=55)
    for policy in ALL_POLICIES:
        counts = _slot_counts(policy, cfg, RngStream(0, 0), (1, cfg.w_s))
        assert counts.shape == (1, cfg.w_s)
        assert counts.sum() == 0 and counts.sum() < cfg.w


def test_estimate_forced_success():
    # an unlimited budget sends at least one packet per slot: w slots suffice
    cfg = SystemConfig(gamma=4, omega=math.inf, k=3, w=50, w_s=50)
    for policy in ALL_POLICIES:
        stats = estimate_session_error(policy, cfg, trials=100)
        assert stats.p_hat == 0.0 and stats.errors == 0


def test_estimate_deterministic():
    a = estimate_session_error(PolicyKind.sdo(), CFG, trials=30_000, seed=7)
    b = estimate_session_error(PolicyKind.sdo(), CFG, trials=30_000, seed=7)
    assert a == b
    c = estimate_session_error(PolicyKind.sdo(), CFG, trials=30_000, seed=8)
    assert a != c


def test_estimate_worker_count_invariance():
    kw = dict(trials=120_000, seed=3, batch_size=20_000)
    a = estimate_session_error(PolicyKind.sdo(), CFG, workers=1, **kw)
    b = estimate_session_error(PolicyKind.sdo(), CFG, workers=4, **kw)
    assert a == b


def test_oma_estimate_matches_exact():
    a1 = beta1(4.0, 20.0)
    exact = exact_session_error(alphas_from_betas([a1]), CFG.session_spec())
    stats = estimate_session_error(PolicyKind.oma(), CFG, trials=200_000, seed=0)
    se = math.sqrt(exact * (1 - exact) / stats.trials)
    assert abs(stats.p_hat - exact) < 3 * se


def test_symmetric_estimate_matches_exact():
    cfg = SystemConfig(gamma=4, omega=20, k=2, depth=2, w=50, w_s=55)
    b1, b2 = beta1(4.0, 20.0), beta2_symmetric(4.0, 20.0, 20.0)
    exact = exact_session_error(alphas_from_betas([b1, b2]), cfg.session_spec())
    stats = estimate_session_error(PolicyKind.symmetric(2), cfg, trials=200_000, seed=1)
    se = math.sqrt(exact * (1 - exact) / stats.trials)
    assert abs(stats.p_hat - exact) < 3 * se


def test_estimate_alphas_deterministic_policy():
    cfg = SystemConfig(gamma=4, omega=math.inf, w=50, w_s=55)
    dist = estimate_alphas(PolicyKind.oma(), cfg, trials=1000)
    assert dist.probs == (0.0, 1.0)


def test_estimate_alphas_matches_beta2():
    cfg = SystemConfig(gamma=4, omega=20, k=2, depth=2, w=50, w_s=55)
    n = 400_000
    dist = estimate_alphas(PolicyKind.symmetric(2), cfg, trials=n, seed=2)
    p = beta2_symmetric(4.0, 20.0, 20.0)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(dist.probs[2] - p) < 3 * se
    assert abs(dist.probs[0] - (1 - beta1(4.0, 20.0))) < 3 * se


def test_estimate_alphas_mean_nondecreasing_in_depth():
    means = []
    for L in range(1, 5):
        cfg = SystemConfig(gamma=2, omega=20, k=6, depth=L, w=50, w_s=55)
        dist = estimate_alphas(PolicyKind.symmetric(L), cfg, trials=200_000, seed=4)
        means.append(mean_packets(dist))
    # independent draws per depth: allow Monte Carlo slack on the comparison
    for a, b in zip(means, means[1:]):
        assert b >= a - 0.005


def test_packets_bounded_by_policy_cap():
    cfg = SystemConfig(gamma=2, omega=50, k=4, depth=3, w=50, w_s=55)
    for policy in (PolicyKind.symmetric(3), PolicyKind.fo()):
        counts = _slot_counts(policy, cfg, RngStream(5, 0), (1000, cfg.w_s))
        assert counts.min() >= 0 and counts.max() <= policy.max_packets(cfg.k)


@pytest.mark.parametrize("k", [2, 3, 8])
def test_sdo_is_fo_capped_at_two(k):
    # SDO and FO share one draw of the descending cross gains, and SDO's
    # two-packet test is FO's first extra step, so they agree bit for bit
    cfg = SystemConfig(gamma=4, omega=20, k=k, w=50, w_s=55)
    sdo = _slot_counts(PolicyKind.sdo(), cfg, RngStream(11, k), (cfg.w_s, 2000))
    fo = _slot_counts(PolicyKind.fo(), cfg, RngStream(11, k), (cfg.w_s, 2000))
    assert np.array_equal(sdo, np.minimum(fo, 2))
    assert (fo > sdo).any() == (k > 2)


def test_fo_many_users_unlimited_budget():
    # K = 300 packets per slot and w_s * K = 60,000 per session overflow
    # 8-bit counts and 16-bit signed sums
    cfg = SystemConfig(gamma=4, omega=math.inf, k=300, w=200, w_s=200)
    counts = _slot_counts(PolicyKind.fo(), cfg, RngStream(12, 0), (cfg.w_s, 20))
    assert (counts == cfg.k).all()
    stats = estimate_session_error(PolicyKind.fo(), cfg, trials=50)
    assert stats.errors == 0


def test_symmetric_depths_nest():
    # level l is drawn only where levels 1..l-1 fit, and rho_l does not
    # depend on the depth, so a shallower ladder is a deeper one capped
    cfg = SystemConfig(gamma=1, omega=30, k=6, w=50, w_s=55)
    deep = _slot_counts(PolicyKind.symmetric(5), cfg, RngStream(13, 0), (cfg.w_s, 2000))
    assert (deep >= 4).any()
    for depth in range(1, 5):
        shallow = _slot_counts(PolicyKind.symmetric(depth), cfg, RngStream(13, 0), (cfg.w_s, 2000))
        assert np.array_equal(shallow, np.minimum(deep, depth)), depth
    oma = _slot_counts(PolicyKind.oma(), cfg, RngStream(13, 0), (cfg.w_s, 2000))
    assert np.array_equal(oma, np.minimum(deep, 1))


def test_fo_alphas_memory_does_not_grow_with_users():
    # no (K-1, batch) array of cross gains: the peak at K = 300 stays near K = 3's
    def peak(k):
        cfg = SystemConfig(gamma=4, omega=20, k=k, w=50, w_s=55)
        tracemalloc.start()
        try:
            estimate_alphas(PolicyKind.fo(), cfg, trials=20_000, batch_size=10_000)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(300) <= 2 * peak(3)


def test_invalid_trials():
    with pytest.raises(ValueError):
        estimate_session_error(PolicyKind.oma(), CFG, trials=0)
    with pytest.raises(ValueError):
        estimate_alphas(PolicyKind.oma(), CFG, trials=0)


@pytest.mark.parametrize("field", ["gamma", "omega", "n0"])
def test_config_rejects_nan(field):
    with pytest.raises(ValueError, match="gamma, omega and n0 must be positive"):
        SystemConfig(**{"gamma": 4.0, "omega": 20.0, "n0": 1.0, field: math.nan})


@pytest.mark.parametrize("field, value", [("k", 3.0), ("depth", 2.0), ("w", 50.0), ("w_s", 55.5)])
def test_config_takes_integers_only(field, value):
    # a float k reached FO's cross-gain shape, a float w_s the engine's slot count
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        SystemConfig(**{"gamma": 4.0, "omega": 20.0, field: value})


def test_config_stores_numpy_integers_as_int():
    cfg = SystemConfig(gamma=4.0, omega=20.0, k=np.int64(3), depth=np.int8(2), w=np.int32(50), w_s=np.uint16(55))
    assert [type(x) for x in (cfg.k, cfg.depth, cfg.w, cfg.w_s)] == [int] * 4


@pytest.mark.parametrize("workers", [0, -3])
def test_invalid_workers(workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        estimate_session_error(PolicyKind.oma(), CFG, trials=100, workers=workers)


@pytest.mark.parametrize("policy", [PolicyKind.sdo(), PolicyKind.fo()], ids=["sdo", "fo"])
def test_cross_policies_need_two_users(policy, monkeypatch):
    # k = 1 leaves no cross channel: a ValueError before any draw, not a ZeroDivisionError
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(simulator, "ThreadPoolExecutor", no_pool)
    cfg = SystemConfig(gamma=4, omega=20, k=1)
    message = f"{policy.variant} needs k >= 2"
    with pytest.raises(ValueError, match=message):
        estimate_session_error(policy, cfg, trials=100)
    with pytest.raises(ValueError, match=message):
        estimate_session_error_curves([PolicyKind.oma(), policy], cfg, (cfg.w_s,), trials=100_000, workers=2)
    with pytest.raises(ValueError, match=message):
        estimate_alphas(policy, cfg, trials=100)


def test_pool_has_no_more_workers_than_runs(monkeypatch):
    # the engine submits one run per worker: 64 threads for 2 batches
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(simulator, "ThreadPoolExecutor", InProcessPool)
    kw = dict(trials=2_000, seed=4, batch_size=1_000)
    pooled = estimate_session_error(PolicyKind.sdo(), CFG, workers=64, **kw)
    assert len(sizes) == 1 and 1 <= sizes[0] <= 2
    assert pooled == estimate_session_error(PolicyKind.sdo(), CFG, **kw)


def test_workers_run_in_the_callers_process(monkeypatch):
    pids, run = [], simulator._run_batches

    def spied(*args):
        pids.append(os.getpid())
        return run(*args)

    monkeypatch.setattr(simulator, "_run_batches", spied)
    estimate_session_error(PolicyKind.sdo(), CFG, trials=4_000, workers=2)
    assert pids == [os.getpid()] * 2


def test_threads_take_every_batch_once(monkeypatch):
    # more workers than cores and a short switch interval: each batch is drawn by one run, once
    taken, stream = [], simulator.RngStream

    def spied(seed, b):
        taken.append(b)
        return stream(seed, b)

    monkeypatch.setattr(simulator, "RngStream", spied)
    kw = dict(trials=3_001, seed=5, batch_size=10)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = estimate_session_error(PolicyKind.fo(), CFG, workers=8, **kw)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(taken) == list(range(301))
    assert threaded == estimate_session_error(PolicyKind.fo(), CFG, **kw)


def test_an_error_in_a_run_stops_every_run(monkeypatch):
    # 20,000 one-session batches on 2 workers; the 100th batch drawn raises
    drawn, slot_counts = itertools.count(1), simulator._slot_counts

    def spied(*args):
        if next(drawn) == 100:
            raise RuntimeError("batch failed")
        return slot_counts(*args)

    monkeypatch.setattr(simulator, "_slot_counts", spied)
    with pytest.raises(RuntimeError, match="batch failed"):
        estimate_session_error(PolicyKind.oma(), CFG, trials=20_000, workers=2, batch_size=1)
    assert next(drawn) < 10_000


def _assert_joint_matches_separate(policies, cfg, seed):
    # 45,001 sessions: four full batches and a 5,001-session tail, so with 5 workers
    # a run can start on the tail, and its buffers are sized for it
    kw = dict(trials=45_001, seed=seed, batch_size=10_000)
    separate = [estimate_session_error(p, cfg, **kw) for p in policies]
    assert len(set(s.errors for s in separate)) > 1  # the members are told apart
    for workers in (1, 2, 5):
        assert estimate_session_error_curves(policies, cfg, (cfg.w_s,), workers=workers, **kw)[cfg.w_s] == separate


def test_joint_cross_family_matches_separate_calls():
    cfg = SystemConfig(gamma=4, omega=10, k=8, w=50, w_s=60)
    _assert_joint_matches_separate([PolicyKind.oma(), PolicyKind.sdo(), PolicyKind.fo()], cfg, seed=21)


def test_joint_own_family_matches_separate_calls():
    cfg = SystemConfig(gamma=0.5, omega=1.5, k=6, w=50, w_s=55)
    policies = [PolicyKind.oma()] + [PolicyKind.symmetric(depth) for depth in range(1, 5)]
    _assert_joint_matches_separate(policies, cfg, seed=22)


def test_joint_two_families_match_separate_calls():
    # the symmetric member must read the own family's draw, SDO and FO the cross one's
    cfg = SystemConfig(gamma=4, omega=15, k=3, w=50, w_s=55)
    policies = [PolicyKind.oma(), PolicyKind.symmetric(3), PolicyKind.sdo(), PolicyKind.fo()]
    _assert_joint_matches_separate(policies, cfg, seed=23)


@pytest.mark.parametrize("batch_size", [-1, 0])
@pytest.mark.parametrize("estimate", [estimate_session_error, estimate_alphas])
def test_batch_size_below_one_is_rejected(estimate, batch_size):
    with pytest.raises(ValueError, match=f"batch_size must be at least 1, got {batch_size}"):
        estimate(PolicyKind.sdo(), CFG, trials=100, batch_size=batch_size)


def _fresh_errors(policy, cfg, seed, batch_index, n_sessions):
    """Session errors of one batch from arrays allocated for it alone, its deeper levels screened at cfg.w_s."""
    counts = _slot_counts(policy, cfg, RngStream(seed, batch_index), (cfg.w_s, n_sessions), [cfg.w_s])
    return int(np.count_nonzero(counts.sum(axis=0, dtype=np.int64) < cfg.w))


@pytest.mark.parametrize(
    "cfg,policies",
    [
        (SystemConfig(gamma=4, omega=10, k=8, w=50, w_s=60), [PolicyKind.oma(), PolicyKind.sdo(), PolicyKind.fo()]),
        (
            SystemConfig(gamma=0.5, omega=1.5, k=6, w=50, w_s=55),
            [PolicyKind.oma()] + [PolicyKind.symmetric(depth) for depth in range(1, 5)],
        ),
    ],
    ids=["cross", "own"],
)
def test_batches_of_a_run_carry_nothing_between_them(cfg, policies):
    # 3 full batches and a 1-session tail run one after another (per
    # worker); each must count as if it ran alone
    batch, seed = 1_000, 24
    sizes = [batch, batch, batch, 1]
    fresh = [sum(_fresh_errors(p, cfg, seed, b, n) for b, n in enumerate(sizes)) for p in policies]
    assert len(set(fresh)) > 1
    for workers in (1, 2):
        curves = estimate_session_error_curves(
            policies, cfg, (cfg.w_s,), sum(sizes), seed=seed, workers=workers, batch_size=batch
        )
        stats = curves[cfg.w_s]
        assert [s.errors for s in stats] == fresh


@pytest.mark.parametrize(
    "cfg,policies,per_batch",
    [
        (SystemConfig(gamma=4, omega=10, k=8, w=50, w_s=60), [PolicyKind.oma(), PolicyKind.sdo(), PolicyKind.fo()], 3),
        (SystemConfig(gamma=0.5, omega=1.5, k=6, w=50, w_s=55), [PolicyKind.oma(), PolicyKind.symmetric(3)], 1),
    ],
    ids=["cross", "own"],
)
def test_batches_of_a_run_draw_into_its_first_batch_memory(cfg, policies, per_batch, monkeypatch):
    # 2,500 sessions in batches of 1,000: each later batch draws its dense
    # levels (own gain, top cross level and best cross gain; symmetric
    # levels 1-2) into the first batch's arrays, the 500-session last batch
    # into a prefix of them
    dense = []  # each dense level as drawn, in order; 1-D draws are deeper levels

    def spied(fn):
        def spy(*args, **kwargs):
            got = fn(*args, **kwargs)
            if got.ndim > 1:
                dense.append(got)
            return got

        return spy

    for name in ("draw_exponential", "gain_from_neg_log_cdf"):
        monkeypatch.setattr(simulator, name, spied(getattr(simulator, name)))
    estimate_session_error_curves(policies, cfg, (cfg.w_s,), 2_500, seed=27, batch_size=1_000)
    assert len(dense) == 3 * per_batch
    first, *later = (dense[i : i + per_batch] for i in range(0, len(dense), per_batch))
    assert [a.shape[-1] for a in later[-1]] == [500] * per_batch
    for batch in later:
        assert all(np.shares_memory(a, b) for a, b in zip(first, batch))


@pytest.mark.parametrize("batch_size", [1_000, 777])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "cfg,policies",
    [
        (SystemConfig(gamma=4, omega=20, k=3, w=50), [PolicyKind.oma(), PolicyKind.sdo(), PolicyKind.fo()]),
        (
            SystemConfig(gamma=0.5, omega=1.5, k=6, w=50),
            [PolicyKind.oma()] + [PolicyKind.symmetric(depth) for depth in range(1, 5)],
        ),
    ],
    ids=["cross", "own"],
)
def test_curves_count_prefixes_of_one_draw(cfg, policies, workers, batch_size):
    # every length reads the first w_s slots of each batch's one draw for
    # the longest session; lengths come unsorted and repeated
    w_s_values, trials, seed = (57, 50, 55, 50), 3_001, 25
    curves = estimate_session_error_curves(policies, cfg, w_s_values, trials, seed, workers, batch_size)
    expected = {w_s: [0] * len(policies) for w_s in w_s_values}
    lengths, deepest = sorted(set(w_s_values)), max(policies, key=lambda p: p.max_packets(cfg.k))
    for b, start in enumerate(range(0, trials, batch_size)):
        n = min(batch_size, trials - start)
        for i, policy in enumerate(policies):
            cap = policy.max_packets(cfg.k)
            if cap > 2:  # FO, sym >= 3: the family's one draw, its deeper levels screened at every length
                counts = np.minimum(_slot_counts(deepest, cfg, RngStream(seed, b), (max(w_s_values), n), lengths), cap)
            else:
                counts = _slot_counts(policy, cfg, RngStream(seed, b), (max(w_s_values), n))
            for w_s in expected:
                expected[w_s][i] += np.count_nonzero(counts[:w_s].sum(axis=0, dtype=np.int64) < cfg.w)
    assert {w_s: [s.errors for s in stats] for w_s, stats in curves.items()} == expected
    assert len({n for row in expected.values() for n in row}) > len(policies)  # the lengths are told apart
    longest = replace(cfg, w_s=max(w_s_values))
    alone = [estimate_session_error(p, longest, trials, seed, workers, batch_size) for p in policies]
    assert curves[longest.w_s] == alone


@pytest.mark.parametrize("policy", [PolicyKind.fo(), PolicyKind.symmetric(4)], ids=["fo", "sym4"])
def test_no_deeper_draw_where_the_dense_levels_decide_every_session(policy, monkeypatch):
    # at omega = 1e6 nearly every slot sends both dense packets (the own gain
    # and the best cross gain, or symmetric levels 1 and 2), and 2 * 50 >= w:
    # no session is short at any length, so no deeper level is drawn
    cfg = SystemConfig(gamma=4, omega=1e6, k=8, w=50, w_s=55)
    drawn = []

    def counted(stream, mean, size, out=None):
        drawn.append(int(np.prod(size)))
        return draw_exponential(stream, mean, size, out)

    monkeypatch.setattr(simulator, "draw_exponential", counted)
    _slot_counts(policy, cfg, RngStream(26, 0), (cfg.w_s, 1_000))
    assert sum(drawn) > 2 * cfg.w_s * 1_000  # unscreened, the same batch draws deeper levels
    drawn.clear()
    curves = estimate_session_error_curves([policy], cfg, (50, 55), trials=3_000, seed=26)
    assert [curves[w_s][0].errors for w_s in (50, 55)] == [0, 0]
    assert sum(drawn) == 2 * cfg.w_s * 3_000


@pytest.mark.parametrize(
    "cfg,policy,dense_policy",
    [
        (SystemConfig(gamma=0.2, omega=0.32, k=8, w=2950, w_s=3000), PolicyKind.fo(), PolicyKind.sdo()),
        (SystemConfig(gamma=0.2, omega=0.5, k=8, w=5930, w_s=6000), PolicyKind.symmetric(3), PolicyKind.symmetric(2)),
        (SystemConfig(gamma=0.2, omega=0.5, k=8, w=5930, w_s=6000), PolicyKind.symmetric(4), PolicyKind.symmetric(2)),
    ],
    ids=["fo", "sym3", "sym4"],
)
def test_screen_keeps_the_unscreened_draw_where_the_dense_levels_decide_no_session(cfg, policy, dense_policy):
    # no session's dense total (SDO's, or symmetric depth 2's, from the same
    # stream) reaches w, so every session is short at the longest length and
    # its deeper levels are drawn in one pass over every slot: the unscreened
    # draw, bit for bit
    lengths, trials, batch, seed = [cfg.w_s - 20, cfg.w_s], 400, 200, 27
    oracle = [0, 0]
    for b in range(trials // batch):
        dense = _slot_counts(dense_policy, cfg, RngStream(seed, b), (cfg.w_s, batch))
        assert dense.sum(axis=0, dtype=np.int64).max() < cfg.w
        counts = _slot_counts(policy, cfg, RngStream(seed, b), (cfg.w_s, batch))
        assert np.array_equal(_slot_counts(policy, cfg, RngStream(seed, b), (cfg.w_s, batch), lengths), counts)
        for j, w_s in enumerate(lengths):
            oracle[j] += int(np.count_nonzero(counts[:w_s].sum(axis=0, dtype=np.int64) < cfg.w))
    curves = estimate_session_error_curves([policy], cfg, lengths, trials, seed, batch_size=batch)
    assert [curves[w_s][0].errors for w_s in lengths] == oracle
    assert 0 < oracle[-1] < trials  # the deeper levels decide some sessions either way


def test_deeper_levels_only_for_sessions_short_at_some_length():
    # at 70 slots the dense levels (SDO's count) decide almost every session and at 50 many
    # are short: those get their deeper levels in the second pass, over their first 50 slots,
    # and FO completes some of them at 50; a session short at no length gets none
    cfg, lengths, shape = SystemConfig(gamma=4, omega=14, k=8, w=50), [50, 70], (70, 2_000)
    sdo = _slot_counts(PolicyKind.sdo(), cfg, RngStream(30, 0), shape)
    fo = _slot_counts(PolicyKind.fo(), cfg, RngStream(30, 0), shape, lengths)
    sdo_totals = np.array([sdo[:w_s].sum(axis=0, dtype=np.int64) for w_s in lengths])
    fo_totals = np.array([fo[:w_s].sum(axis=0, dtype=np.int64) for w_s in lengths])
    second = (sdo_totals[0] < cfg.w) & (sdo_totals[1] >= cfg.w)
    assert second.sum() > 100 and (fo_totals[0, second] >= cfg.w).any()
    assert (fo[50:, second] <= 2).all()  # nothing deeper past their 50th slot
    decided = sdo_totals[0] >= cfg.w
    assert decided.sum() > 1_000 and np.array_equal(fo[:, decided], sdo[:, decided])


@pytest.mark.parametrize(
    "cfg,policies",
    [
        (SystemConfig(gamma=4, omega=10, k=8, w=50), [PolicyKind.oma(), PolicyKind.sdo(), PolicyKind.fo()]),
        (
            SystemConfig(gamma=0.5, omega=1.5, k=6, w=50),
            [PolicyKind.oma()] + [PolicyKind.symmetric(depth) for depth in range(1, 5)],
        ),
    ],
    ids=["cross", "own"],
)
@settings(derandomize=True, deadline=None, max_examples=2)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=29)
def test_members_nest_session_by_session(cfg, policies, seed):
    # one-session batches show each session's outcome at every length: a member's counts
    # are at least every shallower member's, slot by slot (FO >= SDO >= OMA, sym L' >= sym L),
    # so it fails only where they all fail; OMA, SDO and sym <= 2 draw nothing deeper and
    # fail exactly where their own draws do.  Both families put sessions in both passes.
    lengths = [50, 55, 57]
    order = sorted(range(len(policies)), key=lambda i: policies[i].max_packets(cfg.k))
    apart = False
    for b in range(200):
        failed = _run_batches(policies, cfg, lengths, seed, [(b, 1)])
        for shallow, deep in zip(order, order[1:]):
            assert (failed[:, deep] <= failed[:, shallow]).all(), (b, policies[shallow], policies[deep])
        apart |= bool((failed[:, order[0]] > failed[:, order[-1]]).any())
        for i, policy in enumerate(policies):
            if policy.max_packets(cfg.k) <= 2:
                assert np.array_equal(failed[:, i], _run_batches([policy], cfg, lengths, seed, [(b, 1)])[:, 0])
    assert apart  # the members are told apart


def test_curves_are_keyed_by_int_lengths():
    curves = estimate_session_error_curves([PolicyKind.oma()], CFG, np.array([60, 55, 60]), trials=100)
    assert list(curves) == [55, 60] and all(type(w_s) is int for w_s in curves)


@pytest.mark.parametrize("w_s_values, message", [((55, 49), "need w_s >= w >= 1"), ((), "holds no session length")])
def test_curves_reject_invalid_lengths(w_s_values, message):
    with pytest.raises(ValueError, match=message):
        estimate_session_error_curves([PolicyKind.oma()], CFG, w_s_values, trials=100)


def test_curves_reject_no_policy():
    with pytest.raises(ValueError, match="holds no policy"):
        estimate_session_error_curves([], CFG, (55, 60), trials=100)


@pytest.mark.parametrize("seed", range(12))
def test_undecided_matches_a_per_session_loop(seed):
    # each pass is the ascending flat indices of its slots, the passes are
    # disjoint, and each is the flatnonzero of the slot mask a per-session
    # loop gives: the first covers every slot of the sessions short of w at
    # the longest length, the second the slots [0, l) of the others, l the
    # longest length at which each is short
    rng = np.random.default_rng(seed)
    n, w = int(rng.integers(1, 40)), int(rng.integers(1, 30))
    lengths = sorted(rng.choice(np.arange(w, w + 20), int(rng.integers(1, 5)), replace=False).tolist())
    cdf = np.cumsum(rng.dirichlet(np.ones(3), n), axis=1)  # a law of its own for each session
    u = rng.random((lengths[-1], n))
    dense = (u > cdf[:, 0]).astype(np.uint8) + (u > cdf[:, 1])
    masks = [np.zeros(dense.shape, bool), np.zeros(dense.shape, bool)]
    for s in range(n):
        short = [w_s for w_s in lengths if int(dense[:w_s, s].sum()) < w]
        if short == lengths:
            masks[0][:, s] = True
        elif short:
            masks[1][: short[-1], s] = True
    expected = [np.flatnonzero(mask) for mask in masks if mask.any()]
    passes = simulator._undecided(dense, lengths, w)
    assert len(passes) == len(expected)
    for slots, want in zip(passes, expected):
        assert np.array_equal(slots, want)
        assert (np.diff(slots) > 0).all()
    if len(passes) == 2:
        assert not np.intersect1d(*passes).size


@pytest.mark.parametrize(
    "policy,cfg,lengths,errors",
    [
        (
            PolicyKind.fo(),
            SystemConfig(gamma=4, omega=10, k=8, w=50),
            list(range(50, 71, 2)),
            [4662, 4335, 3911, 3374, 2710, 2086, 1522, 1064, 687, 415, 231],
        ),
        (PolicyKind.symmetric(4), SystemConfig(gamma=0.5, omega=1.5, k=6, w=50), [50, 55, 57], [1500, 433, 242]),
    ],
    ids=["fo", "sym4"],
)
def test_second_pass_draw_order_is_pinned(policy, cfg, lengths, errors, monkeypatch):
    # literal error counts: every batch screens its deeper levels in two non-empty passes,
    # so any change to the order in which either pass draws its levels moves them
    passes, undecided = [], simulator._undecided

    def spied(dense, lengths, w):
        slots = undecided(dense, lengths, w)
        passes.append([len(p) > 0 for p in slots])
        return slots

    monkeypatch.setattr(simulator, "_undecided", spied)
    curves = estimate_session_error_curves([policy], cfg, lengths, trials=5_000, seed=3)
    assert passes == [[True, True]] * 5
    assert [curves[w_s][0].errors for w_s in lengths] == errors


def test_engine_calls_no_public_analytic_function(monkeypatch):
    # bench/spans.py counts each call of a public smddc.analytic function as analytic
    # work, and the Monte Carlo workloads expect none; the workers are threads, so the
    # calls they make land in the same list
    log = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            log.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in inspect.getmembers(analytic, inspect.isfunction):
        if fn.__module__ == analytic.__name__ and not name.startswith("_"):
            monkeypatch.setattr(analytic, name, counted(name, fn))
    for policy in ALL_POLICIES:
        estimate_session_error(policy, CFG, trials=2_000)
    estimate_session_error_curves(ALL_POLICIES, CFG, (50, 55), trials=2_000, workers=2)
    assert Counter(log) == {}
