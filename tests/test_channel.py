import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import stats

from smddc import RngStream, draw_exponential
from smddc.channel import gain_from_neg_log_cdf
from smddc.simulator import DescendingCrossGains


def test_determinism_same_stream():
    s1 = RngStream(42, 0)
    s2 = RngStream(42, 0)
    x1 = draw_exponential(s1, 1.0, size=100)
    x2 = draw_exponential(s2, 1.0, size=100)
    assert np.array_equal(x1, x2)
    assert draw_exponential(RngStream(42, 1), 1.0, size=100)[0] != x1[0]


def test_empirical_mean():
    x = draw_exponential(RngStream(0, 0), 1.0, size=10**6)
    assert abs(x.mean() - 1.0) < 0.01


def test_exponential_tail():
    n = 10**6
    x = draw_exponential(RngStream(1, 0), 1.0, size=n)
    p = math.exp(-0.2)
    se = math.sqrt(p * (1 - p) / n)
    assert abs((x >= 0.2).mean() - p) < 3 * se


def test_scaled_mean():
    x = draw_exponential(RngStream(2, 0), 3.0, size=10**5)
    assert abs(x.mean() - 3.0) < 0.05


def test_invalid_mean():
    with pytest.raises(ValueError):
        draw_exponential(RngStream(0, 0), 0.0, size=10)
    with pytest.raises(ValueError):
        draw_exponential(RngStream(0, 0), -1.0, size=10)


@pytest.mark.parametrize("mean", [1.0, 1 / 2, 1 / 7])
def test_draw_into_buffer_matches_generator(mean):
    # means 1 and 1/m, m = K-1 for K = 3 and 8: the same bits as the generator's own draw,
    # in a new array and in a buffer `out` that held other values
    size = (2, 55, 300)
    got = draw_exponential(RngStream(14, 2), mean, size)
    assert got.tobytes() == RngStream(14, 2).generator.exponential(mean, size).tobytes()
    buf = np.full(size, -1.0)
    assert draw_exponential(RngStream(14, 2), mean, size, out=buf) is buf
    assert buf.tobytes() == got.tobytes()


class ZeroingGenerator:
    """A PCG64 generator whose standard draws are zero at every 1000th entry and whose first two redraws are half zero."""

    def __init__(self, seed):
        self.real, self.redraws = RngStream(seed).generator, []

    def standard_exponential(self, size=None, out=None):
        out = self.real.standard_exponential(size, out=out)
        out[::1000] = 0.0
        return out

    def exponential(self, mean, count):
        self.redraws.append(count)
        values = self.real.exponential(mean, count)
        if len(self.redraws) < 3:
            values[::2] = 0.0
        return values


def test_zero_draws_are_redrawn_through_one_mask(monkeypatch):
    # the generator is made to return zeros, and zeros again on two redraws:
    # every zero is redrawn until none is left, and the passes share one
    # mask (a new mask per pass would double the peak above the output)
    n, stream, fake = 10**6, RngStream(15), ZeroingGenerator(15)
    redraws = fake.redraws
    monkeypatch.setattr(stream, "generator", fake)
    tracemalloc.start()
    try:
        got = draw_exponential(stream, 0.5, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got > 0).all()
    assert redraws == [1000, 500, 250]
    assert peak - got.nbytes < 1.5 * n  # the output and one bool mask of n bytes


def test_zero_draws_are_redrawn_into_out(monkeypatch):
    n, stream = 10**5, RngStream(16)
    monkeypatch.setattr(stream, "generator", ZeroingGenerator(16))
    buf = np.full(n, -1.0)
    got = draw_exponential(stream, 0.5, n, out=buf)
    assert got is buf and (buf > 0).all()
    assert stream.generator.redraws == [100, 50, 25]


def test_max_cross_gain_cdf():
    # max of K-1 = 2 iid Exp(1) has cdf (1 - e^-z)^2
    n = 10**6
    stream = RngStream(4, 0)
    z = draw_exponential(stream, 1.0, size=(n, 2)).max(axis=1)
    p = (1 - math.exp(-1.0)) ** 2
    se = math.sqrt(p * (1 - p) / n)
    assert abs((z <= 1.0).mean() - p) < 3 * se


def test_kolmogorov_smirnov():
    x = draw_exponential(RngStream(5, 0), 1.0, size=10**5)
    d = stats.kstest(x, "expon").statistic
    crit_1pct = 1.628 / math.sqrt(len(x))
    assert d < crit_1pct


def test_substream_independence():
    n = 10**5
    a = draw_exponential(RngStream(6, 0), 1.0, size=n)
    b = draw_exponential(RngStream(6, 1), 1.0, size=n)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


def all_levels(stream, m, n):
    """All m descending cross gains of n slots, with no slot ever dropped."""
    cross = DescendingCrossGains(stream, m, np.empty(n), np.empty(n))
    every = np.arange(n)
    return np.stack([cross.best] + [cross(level, every) for level in range(m - 1)])


# Two-sample KS critical value at alpha = 0.001 per level (ten levels in all).
KS_CRIT_0P1PCT = 1.949


@pytest.mark.parametrize("m", [1, 2, 7])
def test_order_statistics_match_sorted_draws(m):
    n = 10**5
    top = all_levels(RngStream(7, m), m, n)
    ref = -np.sort(-draw_exponential(RngStream(8, m), 1.0, size=(n, m)), axis=-1)
    for level in range(m):
        d = stats.ks_2samp(top[level], ref[:, level]).statistic
        assert d < KS_CRIT_0P1PCT * math.sqrt(2 / n), (level, d)


@pytest.mark.parametrize("m", [1, 2, 7])
def test_order_statistics_top_level_cdf(m):
    # the maximum of m iid Exp(1) has cdf (1 - e^-z)^m
    n = 10**6
    top = all_levels(RngStream(9, m), m, n)
    p = (1 - math.exp(-1.0)) ** m
    se = math.sqrt(p * (1 - p) / n)
    assert abs((top[0] <= 1.0).mean() - p) < 3 * se


def test_order_statistics_positive_descending():
    top = all_levels(RngStream(10, 0), 300, 1000)
    assert (top > 0).all()
    assert (top[:-1] >= top[1:]).all()


def test_cross_gains_follow_kept_slots():
    # a deeper level is drawn for the kept slots only, each below its own
    # level above, whatever the shape of the first level
    cross = DescendingCrossGains(RngStream(11, 0), 5, np.empty((4, 250)), np.empty((4, 250)))
    best = cross.best.ravel()
    keep = np.flatnonzero(best > 1.0)
    second = cross(0, keep)
    assert second.shape == keep.shape
    assert (second <= best[keep]).all()
    third = cross(1, np.arange(0, keep.size, 2))
    assert (third <= second[::2]).all()


def test_cross_gains_restart_at_best_for_each_pass():
    # each pass's first call, at level 0, indexes the flattened slots of
    # `best` again, however deep the pass before it went
    cross = DescendingCrossGains(RngStream(12, 0), 5, np.empty((4, 250)), np.empty((4, 250)))
    best = cross.best.ravel()
    for first in [np.flatnonzero(best > 1.0), np.flatnonzero(best <= 1.0)]:
        second = cross(0, first)
        assert (second <= best[first]).all()
        third = cross(1, np.arange(second.size))
        assert (third <= second).all() and third.size == first.size


def neg_log1mexp_50_digits(a):
    """-log(1 - e^-a) at 50 digits; each branch is exact in its range at that precision."""
    with mpmath.workdps(50):
        a = mpmath.mpf(a)
        return -mpmath.log(-mpmath.expm1(-a)) if a < 1 else -mpmath.log1p(-mpmath.exp(-a))


def test_gain_from_neg_log_cdf_numerics():
    # -log(-expm1(-a)) returns exactly 0 from a ~ 36.7 on and loses digits
    # well before; the gain must stay positive and accurate over the range
    a = np.array([1e-300, 1e-20, 1e-8, 0.5, math.log(2), 1, 5, 10, 36, 40, 700])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = gain_from_neg_log_cdf(a)
    assert np.isfinite(x).all() and (x > 0).all()
    for ai, xi in zip(a, x):
        ref = neg_log1mexp_50_digits(ai)
        assert abs(xi - ref) <= 1e-12 * ref, (ai, xi, ref)


def test_draw_needs_a_size():
    # a scalar draw raised AttributeError on the zero check; every caller draws an array
    with pytest.raises(TypeError, match="size"):
        draw_exponential(RngStream(1), 1.0)


def test_gain_from_neg_log_cdf_into_out_matches_a_new_array():
    a = draw_exponential(RngStream(17), 1 / 7, (55, 300))
    kept, buf = a.copy(), np.full(a.shape, -1.0)
    got = gain_from_neg_log_cdf(a, out=buf)
    assert got is buf
    assert buf.tobytes() == gain_from_neg_log_cdf(a).tobytes()
    assert a.tobytes() == kept.tobytes()
