import math
from dataclasses import dataclass

import numpy as np
import pytest

from smddc import PolicyKind, PowerLadder, build_ladder
from smddc.policies import (
    fo_packet_counts,
    oma_packet_counts,
    sdo_packet_counts,
    symmetric_packet_counts,
)

LAD2 = build_ladder(4, 1, 2)  # rho = [4, 20]


# --- scalar oracles: one slot at a time, the kernels' brute-force reference ---


@dataclass(frozen=True)
class SlotDecision:
    n_packets: int
    power_spent: float


def decide_oma(own_gain: float, ladder: PowerLadder, omega: float) -> SlotDecision:
    """Transmit one packet iff the level-1 target is affordable: rho_1/g <= omega."""
    if own_gain <= 0 or omega <= 0:
        raise ValueError("own_gain and omega must be positive")
    cost = ladder.levels[0] / own_gain
    if cost <= omega:
        return SlotDecision(1, cost)
    return SlotDecision(0, 0.0)


def decide_symmetric(gains_by_level, ladder: PowerLadder, omega: float) -> SlotDecision:
    """Fill levels 1..L in order while the cumulative power stays within budget.

    gains_by_level[m-1] is the gain of the channel carrying the level-m packet.
    """
    gains = np.asarray(gains_by_level, dtype=float)
    if gains.shape != (ladder.depth,):
        raise ValueError(f"expected {ladder.depth} gains, got shape {gains.shape}")
    if omega <= 0 or (gains <= 0).any():
        raise ValueError("gains and omega must be positive")
    spent = 0.0
    n = 0
    for rho, g in zip(ladder.levels, gains):
        cost = rho / g
        if spent + cost > omega:
            break
        spent += cost
        n += 1
    return SlotDecision(n, spent)


def decide_sdo(own_gain: float, cross_gains, ladder: PowerLadder, omega: float) -> SlotDecision:
    """Selection-diversity NOMA: at most one extra packet, on the best other channel.

    The extra packet is only attempted when the primary one is affordable.
    """
    cross = np.asarray(cross_gains, dtype=float)
    if cross.size == 0:
        raise ValueError("cross_gains must be non-empty")
    if ladder.depth < 2:
        raise ValueError("SDO needs a ladder of depth >= 2")
    if own_gain <= 0 or omega <= 0 or (cross <= 0).any():
        raise ValueError("gains and omega must be positive")
    c1 = ladder.levels[0] / own_gain
    if c1 > omega:
        return SlotDecision(0, 0.0)
    c2 = ladder.levels[1] / cross.max()
    if c1 + c2 <= omega:
        return SlotDecision(2, c1 + c2)
    return SlotDecision(1, c1)


def decide_fo(own_gain: float, cross_gains, ladder: PowerLadder, omega: float) -> SlotDecision:
    """Fully opportunistic NOMA: extra level-2 packets on other channels, best first."""
    cross = np.asarray(cross_gains, dtype=float)
    if cross.size == 0:
        raise ValueError("cross_gains must be non-empty")
    if ladder.depth < 2:
        raise ValueError("FO needs a ladder of depth >= 2")
    if own_gain <= 0 or omega <= 0 or (cross <= 0).any():
        raise ValueError("gains and omega must be positive")
    c1 = ladder.levels[0] / own_gain
    if c1 > omega:
        return SlotDecision(0, 0.0)
    spent = c1
    n = 1
    for g in np.sort(cross)[::-1]:
        cost = ladder.levels[1] / g
        if spent + cost > omega:
            break
        spent += cost
        n += 1
    return SlotDecision(n, spent)


# --- tests ---------------------------------------------------------------------


def test_policy_kind_validation():
    with pytest.raises(ValueError):
        PolicyKind("bogus")
    with pytest.raises(ValueError):
        PolicyKind.symmetric(0)
    assert PolicyKind.oma().max_packets(5) == 1
    assert PolicyKind.symmetric(3).max_packets(5) == 3
    assert PolicyKind.sdo().max_packets(5) == 2
    assert PolicyKind.fo().max_packets(5) == 5


def test_decide_oma():
    d = decide_oma(1.0, LAD2, 20.0)
    assert (d.n_packets, d.power_spent) == (1, 4.0)
    assert decide_oma(0.1, LAD2, 20.0).n_packets == 0
    # boundary is inclusive
    d = decide_oma(0.2, LAD2, 20.0)
    assert d.n_packets == 1 and d.power_spent == pytest.approx(20.0)


def test_decide_symmetric():
    assert decide_symmetric([1e6, 1e6], LAD2, 20.0).n_packets == 2
    assert decide_symmetric([1.0, 1.0], LAD2, 20.0).n_packets == 1  # 4 ok, 4+20 > 20
    d = decide_symmetric([1.0, 2.0], LAD2, 20.0)
    assert d.n_packets == 2 and d.power_spent == pytest.approx(14.0)
    with pytest.raises(ValueError):
        decide_symmetric([1.0], LAD2, 20.0)


def test_decide_sdo():
    assert decide_sdo(1.0, [1.0, 1.0], LAD2, 20.0).n_packets == 1
    d = decide_sdo(1.0, [1.0, 4.0], LAD2, 20.0)
    assert d.n_packets == 2 and d.power_spent == pytest.approx(9.0)
    # unaffordable primary blocks the extra packet even on a great cross channel
    assert decide_sdo(0.1, [100.0], LAD2, 20.0).n_packets == 0
    with pytest.raises(ValueError):
        decide_sdo(1.0, [], LAD2, 20.0)


def test_decide_fo():
    assert decide_fo(1.0, [4.0, 4.0], LAD2, 20.0).n_packets == 3  # 4 + 5 + 5
    assert decide_fo(1.0, [4.0, 1.0], LAD2, 20.0).n_packets == 2  # 4 + 5, then 20/1 too much
    assert decide_fo(0.1, [100.0], LAD2, 20.0).n_packets == 0
    with pytest.raises(ValueError):
        decide_fo(1.0, [], LAD2, 20.0)


def test_fo_equals_sdo_for_two_users():
    # with a single cross channel the max and the full list coincide
    rng = np.random.default_rng(0)
    own = rng.exponential(1, 10**5)
    cross = rng.exponential(1, (10**5, 1))
    n_sdo = sdo_packet_counts(own, cross.max(axis=-1), 4.0, 20.0, 20.0)
    n_fo = fo_packet_counts(own, -np.sort(-cross, axis=-1), 4.0, 20.0, 20.0)
    assert np.array_equal(n_sdo, n_fo)


def test_policy_ordering():
    # more freedom never reduces the packet count, slot by slot
    rng = np.random.default_rng(1)
    for _ in range(2000):
        own = float(rng.exponential(1))
        cross = rng.exponential(1, 3)
        n_oma = decide_oma(own, LAD2, 20.0).n_packets
        n_sdo = decide_sdo(own, cross, LAD2, 20.0).n_packets
        n_fo = decide_fo(own, cross, LAD2, 20.0).n_packets
        assert n_fo >= n_sdo >= n_oma


def test_scalar_matches_vectorized():
    rng = np.random.default_rng(2)
    own = rng.exponential(1, 500)
    cross = rng.exponential(1, (500, 3))
    lad4 = build_ladder(2, 1, 4)
    rhos = np.asarray(lad4.levels)
    gains4 = rng.exponential(1, (500, 4))
    n_oma = oma_packet_counts(own, LAD2.levels[0], 20.0)
    n_sym = symmetric_packet_counts(gains4, rhos, 20.0)
    n_sdo = sdo_packet_counts(own, cross.max(axis=-1), LAD2.levels[0], LAD2.levels[1], 20.0)
    n_fo = fo_packet_counts(own, -np.sort(-cross, axis=-1), LAD2.levels[0], LAD2.levels[1], 20.0)
    for i in range(500):
        assert n_oma[i] == decide_oma(own[i], LAD2, 20.0).n_packets
        assert n_sym[i] == decide_symmetric(gains4[i], lad4, 20.0).n_packets
        assert n_sdo[i] == decide_sdo(own[i], cross[i], LAD2, 20.0).n_packets
        assert n_fo[i] == decide_fo(own[i], cross[i], LAD2, 20.0).n_packets


def test_oma_rate_matches_beta1():
    from smddc import beta1

    n = 10**6
    rng = np.random.default_rng(3)
    own = rng.exponential(1, n)
    p = beta1(4.0, 20.0)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(oma_packet_counts(own, 4.0, 20.0).mean() - p) < 3 * se


def test_symmetric_two_packet_rate_matches_beta2():
    from smddc import beta2_symmetric

    n = 10**6
    rng = np.random.default_rng(4)
    gains = rng.exponential(1, (n, 2))
    p = beta2_symmetric(4.0, 20.0, 20.0)
    se = math.sqrt(p * (1 - p) / n)
    rate = (symmetric_packet_counts(gains, np.asarray(LAD2.levels), 20.0) >= 2).mean()
    assert abs(rate - p) < 3 * se


@pytest.mark.parametrize("k", [2, 3, 5])
def test_sdo_two_packet_rate_matches_beta2_sdo(k):
    from smddc import beta2_sdo

    n = 10**6
    rng = np.random.default_rng(10 + k)
    own = rng.exponential(1, n)
    cross = rng.exponential(1, (n, k - 1))
    p = beta2_sdo(4.0, 20.0, 20.0, k)
    se = math.sqrt(p * (1 - p) / n)
    rate = (sdo_packet_counts(own, cross.max(axis=-1), 4.0, 20.0, 20.0) >= 2).mean()
    assert abs(rate - p) < 3 * se


def test_mean_packets_nondecreasing_in_depth():
    # shared gains across depths: a deeper ladder can only add packets
    rng = np.random.default_rng(5)
    gains = rng.exponential(1, (10**5, 6))
    lad6 = build_ladder(2, 1, 6)
    means = [
        symmetric_packet_counts(gains[:, :L], np.asarray(lad6.levels[:L]), 20.0).mean()
        for L in range(1, 7)
    ]
    assert all(b >= a for a, b in zip(means, means[1:]))
