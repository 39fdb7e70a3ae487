import math
import tracemalloc

import numpy as np
import pytest

from smddc import (
    PolicyKind,
    RngStream,
    SystemConfig,
    alphas_from_betas,
    beta1,
    beta2_symmetric,
    estimate_alphas,
    estimate_session_error,
    estimate_session_errors,
    exact_session_error,
    mean_packets,
)
from smddc import simulator
from smddc.simulator import _slot_counts

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


@pytest.mark.parametrize("workers", [0, -3])
def test_invalid_workers(workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        estimate_session_error(PolicyKind.oma(), CFG, trials=100, workers=workers)


@pytest.mark.parametrize("policy", [PolicyKind.sdo(), PolicyKind.fo()], ids=["sdo", "fo"])
def test_cross_policies_need_two_users(policy, monkeypatch):
    # k = 1 leaves no cross channel: a ValueError before any draw, not a ZeroDivisionError
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(simulator, "ProcessPoolExecutor", no_pool)
    cfg = SystemConfig(gamma=4, omega=20, k=1)
    message = f"{policy.variant} needs k >= 2"
    with pytest.raises(ValueError, match=message):
        estimate_session_error(policy, cfg, trials=100)
    with pytest.raises(ValueError, match=message):
        estimate_session_errors([PolicyKind.oma(), policy], cfg, trials=100_000, workers=2)
    with pytest.raises(ValueError, match=message):
        estimate_alphas(policy, cfg, trials=100)


def _assert_joint_matches_separate(policies, cfg, seed):
    # 45,001 sessions: four full batches and a one-session tail
    kw = dict(trials=45_001, seed=seed, batch_size=10_000)
    separate = [estimate_session_error(p, cfg, **kw) for p in policies]
    assert len(set(s.errors for s in separate)) > 1  # the members are told apart
    for workers in (1, 2):
        assert estimate_session_errors(policies, cfg, workers=workers, **kw) == separate


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
