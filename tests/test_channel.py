import math

import numpy as np
import pytest
from scipy import stats

from smddc import RngStream, draw_exponential


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
