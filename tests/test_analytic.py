import functools
import math
import sys
from collections import deque

import mpmath
import numpy as np
import pytest
from scipy import optimize, special
from scipy.integrate import quad

from smddc import (
    ChernoffResult,
    PacketCountDistribution,
    RngStream,
    SessionSpec,
    alphas_from_betas,
    beta1,
    beta2_sdo,
    beta2_symmetric,
    build_ladder,
    chernoff_generic,
    chernoff_noma2,
    chernoff_oma,
    draw_exponential,
    exact_session_error,
    log_session_error,
    mean_packets,
    noma_factor,
    oma_session_error_binomial,
    x_k1,
)
from smddc.analytic import _LOG2, _frexp_power


def k1_quadrature(x):
    """Independent oracle: adaptive quadrature of the integral definition
    K1(x) = integral_0^inf exp(-x cosh t) cosh t dt."""
    upper = math.acosh(max(700.0 / x, 2.0))  # integrand below exp(-700) past this
    val, _ = quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t),
        0.0,
        upper,
        limit=400,
        epsabs=0.0,
        epsrel=1e-12,
    )
    return val


# --- Bessel helpers -------------------------------------------------------


def test_k1_frozen_values():
    # frozen from the quadrature oracle above
    assert special.k1(1.0) == pytest.approx(0.6019072301972346, rel=1e-9)
    assert special.k1(2.0) == pytest.approx(0.1398658818165224, rel=1e-9)


@pytest.mark.parametrize("x", [1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 50.0])
def test_k1_matches_quadrature(x):
    assert special.k1(x) == pytest.approx(k1_quadrature(x), rel=1e-8)


def test_x_k1_small_argument_limit():
    assert x_k1(0.0) == 1.0
    assert x_k1(1e-10) == pytest.approx(1.0, abs=1e-8)
    assert x_k1(2.0) == pytest.approx(2.0 * special.k1(2.0), rel=1e-14)


def test_k1_domain():
    with pytest.raises(ValueError):
        x_k1(-1.0)


# --- per-slot probabilities -----------------------------------------------


def test_beta1():
    assert beta1(4, 20) == pytest.approx(math.exp(-0.2))
    assert beta1(20, 20) == pytest.approx(math.exp(-1.0))
    with pytest.raises(ValueError):
        beta1(-1, 20)


def test_beta2_symmetric_large_budget_limit():
    assert beta2_symmetric(4, 20, 1e12) == pytest.approx(1.0, abs=1e-9)


def test_beta2_symmetric_huge_costs_limit():
    # rho1 * rho2 overflows to inf, and x * K1(x) at x = inf was inf * 0 = NaN (a RuntimeWarning here)
    assert beta2_symmetric(1e155, 1e160, 20.0) == 0.0
    assert x_k1(math.inf) == 0.0


def test_beta2_symmetric_vs_quadrature():
    # oracle: the pre-Bessel integral form of the two-packet probability
    rho1, rho2, omega = 4.0, 20.0, 20.0
    integral, _ = quad(
        lambda t: math.exp(-rho1 * rho2 / (omega * t) - t / omega),
        0.0,
        np.inf,
        limit=400,
    )
    expected = math.exp(-(rho1 + rho2) / omega) * integral / omega
    assert beta2_symmetric(rho1, rho2, omega) == pytest.approx(expected, abs=1e-8)


def test_beta2_symmetric_vs_monte_carlo():
    n = 10**6
    rng = np.random.default_rng(0)
    x = rng.exponential(1, (n, 2))
    p = beta2_symmetric(4, 20, 20)
    se = math.sqrt(p * (1 - p) / n)
    assert abs((4 / x[:, 0] + 20 / x[:, 1] <= 20).mean() - p) < 3 * se


def test_beta2_sdo_two_users_reduces_to_symmetric():
    assert beta2_sdo(4, 20, 20, 2) == pytest.approx(beta2_symmetric(4, 20, 20), rel=1e-12)


def test_beta2_sdo_vs_monte_carlo():
    n = 10**6
    rng = np.random.default_rng(1)
    x1 = rng.exponential(1, n)
    z = rng.exponential(1, (n, 2)).max(axis=1)
    p = beta2_sdo(4, 20, 15, 3)
    se = math.sqrt(p * (1 - p) / n)
    assert abs((4 / x1 + 20 / z <= 15).mean() - p) < 3 * se


def test_beta2_sdo_monotone_in_k():
    vals = [beta2_sdo(4, 20, 20, k) for k in range(2, 9)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_beta2_sdo_rejects_bad_k():
    with pytest.raises(ValueError):
        beta2_sdo(4, 20, 20, 1)


def test_beta2_sdo_rejects_nan():
    with pytest.raises(ValueError, match="must be positive"):
        beta2_sdo(math.nan, 20, 20, 3)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: beta1(math.nan, 20.0), "rho1 and omega must be positive"),
        (lambda: beta2_symmetric(math.nan, 20.0, 20.0), "rho1, rho2 and omega must be positive"),
        (lambda: build_ladder(math.nan, 1.0, 2), "gamma must be positive, got nan"),
        (lambda: build_ladder(4.0, math.nan, 2), "n0 must be positive, got nan"),
        (lambda: draw_exponential(RngStream(1), math.nan, 3), "mean must be positive, got nan"),
        (lambda: x_k1(math.nan), "x_k1 requires x >= 0, got nan"),
    ],
    ids=["beta1", "beta2_symmetric", "ladder_gamma", "ladder_n0", "draw_mean", "x_k1"],
)
def test_public_validators_reject_nan(call, message):
    # NaN passes every `x <= 0` check and came back as a NaN result
    with pytest.raises(ValueError, match=message):
        call()


@functools.lru_cache(maxsize=None)
def _alternating_sum_term(m, rho1, rho2, omega):
    """exp(-(rho1 + m*rho2)/omega) x K1(x), x = 2 sqrt(m rho1 rho2)/omega, at 80 digits; cached, as every K
    reuses the terms.  Below x = 1, mpmath.besselk sums a short ascending series.  From x = 1 on, 80-digit
    besselk takes up to a second for x of a few tens, so K1(x), the integral of e^{-x cosh t} cosh t over
    t >= 0, is integrated directly, cut at acosh(1 + 190/x), where the integrand has fallen by e^-190.  In
    v = sqrt(2x) sinh(t/2) it is e^-x times the integral of e^{-v^2} (1 + v^2/x) 2/sqrt(2x + v^2) over
    [0, sqrt(190)]: a bell of width 1 for every x, where in t it narrows as 1/sqrt(x) and quad lost digits
    above x ~ 150."""
    with mpmath.workdps(80):
        rho1, rho2, omega = mpmath.mpf(rho1), mpmath.mpf(rho2), mpmath.mpf(omega)
        x = 2 * mpmath.sqrt(m * rho1 * rho2) / omega
        if x < 1:
            k1 = mpmath.besselk(1, x)
        else:
            bell = lambda v: mpmath.exp(-v * v) * (1 + v * v / x) * 2 / mpmath.sqrt(2 * x + v * v)  # noqa: E731
            k1 = mpmath.exp(-x) * mpmath.quad(bell, [0, mpmath.sqrt(190)], method="gauss-legendre")
        return mpmath.exp(-(rho1 + m * rho2) / omega) * x * k1


def beta2_sdo_alternating_sum(rho1, rho2, omega, k_users):
    """Independent oracle: the paper's alternating binomial sum
    sum_m (-1)^(m+1) C(K-1, m) exp(-(rho1 + m*rho2)/omega) x_m K1(x_m)
    at 80 digits, where its cancellation costs nothing."""
    with mpmath.workdps(80):
        total = mpmath.mpf(0)
        for m in range(1, k_users):
            term = mpmath.binomial(k_users - 1, m) * _alternating_sum_term(m, rho1, rho2, omega)
            total += term if m % 2 else -term
        return float(total)


@pytest.mark.parametrize("omega", [5.0, 20.0, 80.0])
@pytest.mark.parametrize("k", [2, 3, 8, 40, 52, 60, 64, 65, 120])
def test_beta2_sdo_matches_high_precision_alternating_sum(omega, k):
    assert beta2_sdo(4.0, 20.0, omega, k) == pytest.approx(beta2_sdo_alternating_sum(4.0, 20.0, omega, k), rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("rho1, rho2, omega", [(30.0, 930.0, 2.0), (1.0, 2.0, 0.01)])
def test_beta2_sdo_far_below_one_matches_alternating_sum(rho1, rho2, omega, k):
    # beta_2 ~ 1e-280 at Gamma = 30, Omega = 2 and ~ 1e-252 at Gamma = 1, Omega = 0.01: the integrand is scaled
    # by its peak, and its narrow peak must be found, not sampled
    value = beta2_sdo(rho1, rho2, omega, k)
    assert 1e-290 < value < 1e-250
    assert value == pytest.approx(beta2_sdo_alternating_sum(rho1, rho2, omega, k), rel=1e-12)


@pytest.mark.parametrize("omega", [1e8, 1e12, 1e16, 1e20, 1e40])
@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_beta2_sdo_tiny_a_matches_alternating_sum(omega, k):
    # a = 80/omega^2 runs from 8e-15 to 8e-79: the sum's left end is -log1p(45/a) up to
    # omega = 1e16 and the -75 floor beyond
    assert beta2_sdo(4.0, 20.0, omega, k) == pytest.approx(beta2_sdo_alternating_sum(4.0, 20.0, omega, k), rel=1e-12)


@pytest.mark.parametrize("omega", [0.5, 2.0, 20.0, 1e3, 1e5])
@pytest.mark.parametrize("gamma", [1.0, 4.0, 30.0])
def test_beta2_sdo_two_users_is_the_symmetric_closed_form(gamma, omega):
    # one cross gain: the SDO integral is beta2_symmetric's x K1(x) form, which scipy's K1 computes independently
    rho1, rho2 = build_ladder(gamma, 1.0, 2).levels
    assert beta2_sdo(rho1, rho2, omega, 2) == pytest.approx(beta2_symmetric(rho1, rho2, omega), rel=1e-13)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "args, expected",
    [
        ((1e155, 1e160, 20.0, 3), 0.0),  # rho2 / omega and a overflow
        ((4.0, 20.0, 1e300, 3), 1.0),  # a underflows to 0
        ((4.0, 20.0, 1e-300, 3), 0.0),  # rho2 / omega overflows
        ((1e-300, 1e-300, 20.0, 8), 1.0),  # a underflows, and y0 = 5e-302
        ((4.0, 20.0, 20.0, 10**6), pytest.approx(0.8064931759990928, rel=1e-12)),  # the best of 999,999 gains
        ((4.0, 20.0, 20.0, 10**300), pytest.approx(0.8184935946123002, rel=1e-12)),  # mpmath.quad, 30 digits
    ],
)
def test_beta2_sdo_extremes(args, expected):
    assert beta2_sdo(*args) == expected


# --- packet count distributions -------------------------------------------


def test_alphas_from_betas():
    assert alphas_from_betas([0.8]).probs == pytest.approx((0.2, 0.8))
    assert alphas_from_betas([0.8, 0.5]).probs == pytest.approx((0.2, 0.3, 0.5))


def test_alphas_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(50):
        betas = np.sort(rng.uniform(0, 1, size=rng.integers(1, 6)))[::-1]
        dist = alphas_from_betas(betas)
        assert sum(dist.probs) == pytest.approx(1.0, abs=1e-12)


def test_alphas_rejects_non_monotone():
    with pytest.raises(ValueError):
        alphas_from_betas([0.5, 0.8])
    with pytest.raises(ValueError):
        alphas_from_betas([1.2])


def test_mean_packets():
    assert mean_packets(PacketCountDistribution((0.2, 0.3, 0.5))) == pytest.approx(1.3)
    assert mean_packets(alphas_from_betas([0.7])) == pytest.approx(0.7)


def test_distribution_validation():
    with pytest.raises(ValueError):
        PacketCountDistribution((0.5, 0.2))
    with pytest.raises(ValueError):
        PacketCountDistribution((1.2, -0.2))


def test_nan_law_is_rejected():
    # NaN passes every range and sum comparison, and failed only later, inside the session error
    with pytest.raises(ValueError, match="must be finite"):
        PacketCountDistribution((math.nan, 1.0))
    with pytest.raises(ValueError, match="must be finite"):
        alphas_from_betas([math.nan])


# --- session spec and Chernoff bounds -------------------------------------


def test_session_spec():
    spec = SessionSpec(50, 55)
    assert spec.kappa == pytest.approx(50 / 55)
    with pytest.raises(ValueError):
        SessionSpec(50, 40)


@pytest.mark.parametrize("w, w_s, field", [(50.5, 55, "w"), (50, 55.0, "w_s")])
def test_session_spec_takes_integers_only(w, w_s, field):
    # a float w would give chernoff_oma a bound for W = 50.5
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        SessionSpec(w, w_s)


def test_session_spec_stores_numpy_integers_as_int():
    # log_session_error takes w_s.bit_length(), which numpy integers lack
    spec = SessionSpec(np.int64(50), np.int64(55))
    assert type(spec.w) is int and type(spec.w_s) is int
    law = alphas_from_betas([0.9])
    assert log_session_error(law, SessionSpec(50, np.int64(55))) == log_session_error(law, SessionSpec(50, 55))


def test_chernoff_oma_perfect_slot():
    assert chernoff_oma(1.0, SessionSpec(50, 55)).bound == 0.0


def test_chernoff_oma_at_most_one():
    spec = SessionSpec(50, 60)
    for a1 in np.linspace(0.85, 0.999, 20):
        res = chernoff_oma(float(a1), spec)
        assert res.feasible
        assert 0.0 <= res.bound <= 1.0


def test_chernoff_oma_infeasible():
    res = chernoff_oma(0.5, SessionSpec(50, 55))
    assert not res.feasible and res.bound == 1.0


def test_chernoff_oma_dominates_binomial_tail():
    spec = SessionSpec(50, 55)
    for a1 in np.linspace(0.85, 0.99, 15):
        assert chernoff_oma(float(a1), spec).bound >= oma_session_error_binomial(float(a1), spec)


def test_chernoff_noma2_vanishing_top_probability():
    spec = SessionSpec(50, 55)
    a1 = 0.95
    tiny = PacketCountDistribution((1 - a1 - 1e-9, a1, 1e-9))
    res_tiny = chernoff_noma2(tiny, spec)
    res_zero = chernoff_oma(a1, spec)
    assert res_tiny.bound == pytest.approx(res_zero.bound, rel=1e-4)
    assert res_tiny.lambda_star == pytest.approx(res_zero.lambda_star, rel=1e-4)


def test_chernoff_closed_forms_match_numeric():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 30:
        a = rng.dirichlet([1.0, 1.0, 1.0])
        spec = SessionSpec(50, int(rng.integers(52, 71)))
        dist = PacketCountDistribution(tuple(a))
        if mean_packets(dist) <= spec.kappa + 1e-3 or a[2] < 1e-6:
            continue
        closed = chernoff_noma2(dist, spec)
        numeric = chernoff_generic(dist, spec)
        assert abs(closed.lambda_star - numeric.lambda_star) < 1e-6
        assert numeric.bound == pytest.approx(closed.bound, rel=1e-8)
        a1 = float(rng.uniform(spec.kappa + 0.01, 1.0))
        closed1 = chernoff_oma(a1, spec)
        numeric1 = chernoff_generic(alphas_from_betas([a1]), spec)
        assert abs(closed1.lambda_star - numeric1.lambda_star) < 1e-6
        assert numeric1.bound == pytest.approx(closed1.bound, rel=1e-8)
        checked += 1


def _oracle_oma(alpha1_bar, spec):
    """The paper's OMA exponent at 60 digits: lambda* = log((1-kappa) a1 / (kappa a0)) and
    bound = exp(-w_s [kappa log(kappa/a1) + (1-kappa) log((1-kappa)/a0)]), a0 = 1 - a1."""
    with mpmath.workdps(60):
        a1 = mpmath.mpf(alpha1_bar)
        a0, kappa = 1 - a1, mpmath.mpf(spec.w) / spec.w_s
        lam = mpmath.log((1 - kappa) * a1 / (kappa * a0))
        exponent = kappa * mpmath.log(kappa / a1) + (1 - kappa) * mpmath.log((1 - kappa) / a0)
        return mpmath.exp(-spec.w_s * exponent), lam


def _oracle_depth2(probs, spec):
    """The per-slot objective at the positive root z = exp(-lambda*) of its stationarity
    condition (2-kappa) a2 z^2 + (1-kappa) a1 z - kappa a0 = 0, at 60 digits."""
    with mpmath.workdps(60):
        a0, a1, a2 = (mpmath.mpf(a) for a in probs)
        kappa = mpmath.mpf(spec.w) / spec.w_s
        roots = mpmath.polyroots([(2 - kappa) * a2, (1 - kappa) * a1, -kappa * a0], extraprec=200)
        z = max(mpmath.re(r) for r in roots)
        log_per_slot = -kappa * mpmath.log(z) + mpmath.log(a0 + a1 * z + a2 * z * z)
        return mpmath.exp(spec.w_s * log_per_slot), -mpmath.log(z)


def _session_specs():
    for w_s in (55, 550, 5500):
        for w in sorted({w_s // 2, int(0.9 * w_s), int(0.99 * w_s), w_s - 1, w_s}):
            yield SessionSpec(w, w_s)


def _oracle_tilted_mean(probs, spec):
    """lambda* = -log z from the one positive root z of sum_m (m - kappa) p_m z^m, where the law
    tilted by z^V has mean kappa, and the bound (z^-kappa sum_m p_m z^m)^w_s there, at 60 digits."""
    with mpmath.workdps(60):
        p = [mpmath.mpf(x) for x in probs]
        kappa = mpmath.mpf(spec.w) / spec.w_s
        roots = mpmath.polyroots([(m - kappa) * p[m] for m in reversed(range(len(p)))], maxsteps=200, extraprec=200)
        z = max(r for r in roots if isinstance(r, mpmath.mpf))  # the others are negative or complex
        log_per_slot = -kappa * mpmath.log(z) + mpmath.log(mpmath.fsum(pm * z**m for m, pm in enumerate(p)))
        return mpmath.exp(spec.w_s * log_per_slot), -mpmath.log(z)


def _assert_matches_oracle(result, oracle, bound_rel=1e-11, lambda_abs=1e-14):
    bound, lam = oracle
    if bound >= mpmath.mpf("1e-290"):
        assert abs(result.bound / bound - 1) <= bound_rel
    assert abs(result.lambda_star - lam) <= lambda_abs


@functools.cache
def _closed_form_grid():
    """(spec, law, 60-digit oracle) for OMA laws (a0, a1) and depth-2 laws (a0, a1, a2).

    a2 goes down to 1e-16, where a root that subtracts loses every digit of lambda*.
    """
    grid = []
    for spec in _session_specs():
        for alpha1_bar in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6, 1 - 1e-12):
            if alpha1_bar > spec.kappa:
                grid.append((spec, (1.0 - alpha1_bar, alpha1_bar), _oracle_oma(alpha1_bar, spec)))
        for a2 in (1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
            for a0 in (1e-6, 0.01, 0.05, 0.2):
                probs = (a0, 1.0 - a0 - a2, a2)
                if probs[1] + 2 * a2 > spec.kappa:
                    grid.append((spec, probs, _oracle_depth2(probs, spec)))
    return tuple(grid)  # cached, so shared by both tests


def test_closed_form_chernoff_matches_high_precision_oracle():
    for spec, probs, oracle in _closed_form_grid():
        if len(probs) == 2:
            result = chernoff_oma(probs[1], spec)
        else:
            result = chernoff_noma2(PacketCountDistribution(probs), spec)
        _assert_matches_oracle(result, oracle)


def test_chernoff_generic_matches_closed_form_oracle():
    for spec, probs, oracle in _closed_form_grid():
        _assert_matches_oracle(chernoff_generic(PacketCountDistribution(probs), spec), oracle, 2e-11, 1e-11)


@pytest.mark.parametrize("depth", [3, 4, 5, 6])
def test_chernoff_generic_matches_tilted_mean_oracle(depth):
    rng = np.random.default_rng([15, depth])
    checked = 0
    while checked < 10:
        dist = _random_law(rng, depth)
        w = int(rng.integers(1, 301))
        spec = SessionSpec(w, int(rng.integers(w, 2 * w + 1)))
        if mean_packets(dist) > spec.kappa:
            _assert_matches_oracle(chernoff_generic(dist, spec), _oracle_tilted_mean(dist.probs, spec), 2e-12, 1e-12)
            checked += 1


@pytest.mark.parametrize("w_s", [55, 50])
@pytest.mark.parametrize("probs", [(0.0, 0.6, 0.4), (0.0, 0.0, 1.0), (0.0, 1.0), (0.0, 0.3, 0.3, 0.4)])
def test_laws_that_cannot_fail_agree(probs, w_s):
    # Pr(V = 0) = 0: the infimum is the limit lambda -> inf, Pr(V = 1)^w_s at kappa = 1 and 0 below
    spec = SessionSpec(50, w_s)
    dist = PacketCountDistribution(probs)
    if probs == (0.0, 1.0) and w_s == 50:  # E[V] == kappa
        expected = ChernoffResult(bound=1.0, lambda_star=0.0, feasible=False)
    else:
        expected = ChernoffResult(bound=probs[1] ** 50 if w_s == 50 else 0.0, lambda_star=math.inf, feasible=True)
    results = [chernoff_generic(dist, spec)]
    if len(probs) == 2:
        results.append(chernoff_oma(probs[1], spec))
    if len(probs) == 3:
        results.append(chernoff_noma2(dist, spec))
    assert results == [expected] * len(results)


def test_chernoff_generic_lambda_cap():
    # alpha_0 = 1e-320: tilted by exp(-700 V) the law still has mean > kappa = 0.9, so lambda* stops at the cap
    dist, spec = PacketCountDistribution((1e-320, 1.0)), SessionSpec(9, 10)
    result = chernoff_generic(dist, spec)
    with mpmath.workdps(40):
        at_cap = mpmath.exp(10 * (mpmath.mpf("0.9") * 700 + mpmath.log(mpmath.mpf(1e-320) + mpmath.exp(-700))))
    assert result.feasible and result.lambda_star == 700.0
    assert result.bound == pytest.approx(float(at_cap), rel=1e-11)


@pytest.mark.parametrize("probs", [(7.2e-22, 0.5726, 0.4144, 0.013), (1e-22, 0.6, 0.4), (1e-30, 0.5, 0.3, 0.2)])
def test_chernoff_generic_flat_slope(probs):
    # kappa = 1 and a tiny alpha_0: the tilted law is nearly all V = 1, so the slope is flat at lambda* and lambda*
    # is ill-conditioned (it is off the oracle's by 1.2e-4 relative at alpha_0 = 1e-30); the bound, a minimum, is not
    spec = SessionSpec(10, 10)
    result = chernoff_generic(PacketCountDistribution(probs), spec)
    bound, _ = _oracle_tilted_mean(probs, spec)
    assert result.feasible and 0.0 < result.lambda_star < 700.0
    assert abs(result.bound / bound - 1) <= 2e-12


def test_chernoff_generic_infeasible_mean():
    spec = SessionSpec(50, 50)  # kappa = 1
    dist = PacketCountDistribution((0.0, 1.0))  # mean exactly kappa
    res = chernoff_generic(dist, spec)
    assert not res.feasible and res.bound == 1.0


def test_chernoff_generic_deep_distribution():
    # depth 4, no closed form: bound must still dominate the exact value
    spec = SessionSpec(50, 55)
    dist = PacketCountDistribution((0.1, 0.3, 0.3, 0.2, 0.1))
    res = chernoff_generic(dist, spec)
    assert res.feasible
    assert res.bound >= exact_session_error(dist, spec)


# --- NOMA factor ----------------------------------------------------------


def test_noma_factor_edge_cases():
    assert noma_factor(0.3, 0.0).eta == 1.0
    assert noma_factor(0.0, 1.0).eta == 0.0


def test_noma_factor_matches_numeric_minimum():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a0, a1, a2 = rng.dirichlet([1.0, 1.0, 1.0])
        nf = noma_factor(a0, a2)
        zs = np.linspace(0, 1 - 1e-9, 20001)
        ratio = (a0 + a1 * zs + a2 * zs**2) / (a0 + (a1 + a2) * zs)
        # refine around the grid minimum with a bounded scalar minimizer
        i = int(np.argmin(ratio))
        lo, hi = zs[max(i - 1, 0)], zs[min(i + 1, len(zs) - 1)]
        z_best = optimize.minimize_scalar(
            lambda z: (a0 + a1 * z + a2 * z * z) / (a0 + (a1 + a2) * z),
            bounds=(lo, hi), method="bounded", options={"xatol": 1e-14},
        ).x
        num = (a0 + a1 * z_best + a2 * z_best**2) / (a0 + (a1 + a2) * z_best)
        assert nf.eta == pytest.approx(num, abs=1e-9)


def test_noma_factor_monotonicity():
    etas = [noma_factor(0.3, a2).eta for a2 in np.linspace(0, 0.7, 15)]
    assert all(b <= a for a, b in zip(etas, etas[1:]))
    etas0 = [noma_factor(a0, 0.2).eta for a0 in np.linspace(0, 0.8, 15)]
    assert all(b >= a for a, b in zip(etas0, etas0[1:]))
    assert all(noma_factor(a0, 0.2).eta < 1 for a0 in np.linspace(0, 0.8, 15))


def test_noma_factor_is_bound_ratio_at_minimizer():
    # per-slot ratio of the two Chernoff objectives at lambda = -ln z*
    a0, a1, a2 = 0.2, 0.5, 0.3
    dist2 = PacketCountDistribution((a0, a1, a2))
    dist1 = PacketCountDistribution((a0, a1 + a2))
    spec = SessionSpec(50, 55)
    nf = noma_factor(a0, a2)
    lam = -math.log(nf.z_star)

    def log_objective(probs):  # log of exp(kappa lambda) E[exp(-lambda V)]
        return math.log(sum(p * math.exp(-lam * m) for m, p in enumerate(probs))) + spec.kappa * lam

    log2 = log_objective(dist2.probs)
    log1 = log_objective(dist1.probs)
    ratio = math.exp(log2 - log1)
    assert ratio == pytest.approx(nf.eta, abs=1e-12)


# --- exact session error --------------------------------------------------


def test_exact_oma_all_slots_must_succeed():
    a1 = 0.9
    dist = alphas_from_betas([a1])
    assert exact_session_error(dist, SessionSpec(50, 50)) == pytest.approx(1 - a1**50, abs=1e-12)


def test_exact_oma_matches_binomial():
    spec = SessionSpec(50, 58)
    for a1 in (0.8, 0.9, 0.95, 0.99):
        dp = exact_session_error(alphas_from_betas([a1]), spec)
        assert dp == pytest.approx(oma_session_error_binomial(a1, spec), abs=1e-12)


@pytest.mark.parametrize("w", [1000, 5000])
def test_exact_oma_matches_binomial_long_streams(w):
    # the binomial coefficients here exceed the float range; the tail must not
    spec = SessionSpec(w, math.ceil(1.1 * w))
    for a1 in (0.9, 0.92, 0.95):
        dp = exact_session_error(alphas_from_betas([a1]), spec)
        assert dp > 0.0
        assert oma_session_error_binomial(a1, spec) == pytest.approx(dp, rel=1e-9)


def test_exact_matches_monte_carlo():
    dist = PacketCountDistribution((0.2, 0.5, 0.3))
    spec = SessionSpec(20, 24)
    p = exact_session_error(dist, spec)
    n = 10**5
    rng = np.random.default_rng(5)
    v = rng.choice([0, 1, 2], size=(n, spec.w_s), p=dist.probs)
    p_hat = (v.sum(axis=1) < spec.w).mean()
    se = math.sqrt(p * (1 - p) / n)
    assert abs(p_hat - p) < 3 * se


def test_exact_nonincreasing_in_session_length():
    dist = PacketCountDistribution((0.25, 0.55, 0.2))
    vals = [exact_session_error(dist, SessionSpec(50, ws)) for ws in range(50, 71, 2)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def _slot_dp_session_error(dist, spec):
    """Brute-force oracle: the law of the cumulative count, one slot at a time, in O(w w_s L).

    Everything at or above w is folded into one absorbing "done" state; since per-slot counts
    are nonnegative, reaching w is equivalent to finishing the stream.
    """
    w = spec.w
    probs = np.asarray(dist.probs, dtype=float)
    state = np.zeros(w + 1)
    state[0] = 1.0
    for _ in range(spec.w_s):
        nxt = np.convolve(state, probs)
        nxt[w] = nxt[w:].sum()
        state = nxt[: w + 1]
    return float(state[:w].sum())


def _mp_log_session_error(probs, spec):
    """ln Pr(sum < w) by Miller's recurrence at 50 digits, with mpmath's unbounded exponent.

    It has no scaling to get wrong and 35 more digits than a double; the recurrence itself is
    checked against the slot DP above.
    """
    n = spec.w_s
    with mpmath.workdps(50):
        a = [mpmath.mpf(p) for p in probs]
        c = [a[0] ** n]
        for k in range(1, spec.w):
            terms = (((n + 1) * i - k) * a[i] * c[k - i] for i in range(1, min(k, len(a) - 1) + 1))
            c.append(mpmath.fsum(terms) / (k * a[0]))
        return mpmath.log(mpmath.fsum(c))


def _random_law(rng, depth):
    weights = rng.random(depth + 1) ** 3 + 1e-3
    return PacketCountDistribution(tuple(float(x) for x in weights / weights.sum()))


def _sdo_law(k):
    """The depth-2 SDO law at Gamma = 4 (levels 4 and 20), Omega = 20."""
    return alphas_from_betas([beta1(4.0, 20.0), beta2_sdo(4.0, 20.0, 20.0, k)])


@pytest.mark.parametrize("seed", range(24))
def test_log_session_error_matches_slot_dp(seed):
    rng = np.random.default_rng([12, seed])
    dist = _random_law(rng, depth=1 + seed % 6)
    w = int(rng.integers(1, 301))
    spec = SessionSpec(w, int(rng.integers(w, 2 * w + 1)))
    dp = _slot_dp_session_error(dist, spec)
    if dp >= sys.float_info.min:  # the DP is a normal double
        assert math.exp(log_session_error(dist, spec)) == pytest.approx(dp, rel=1e-12, abs=0.0)
        assert exact_session_error(dist, spec) == pytest.approx(dp, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "probs, w, w_s, log10_p, tol",
    [
        (_sdo_law(8).probs, 5000, 5500, -504.2708, 1e-11),  # the DP underflowed to 2.19e-321 here
        ((0.18, 0.49, 0.33), 20000, 22000, -562.7294, 4e-11),  # and to 0.0 here
    ],
)
def test_log_session_error_below_the_double_range(probs, w, w_s, log10_p, tol):
    spec = SessionSpec(w, w_s)
    log_p = log_session_error(PacketCountDistribution(probs), spec)
    assert abs(log_p - float(_mp_log_session_error(probs, spec))) <= tol
    assert round(log_p / math.log(10.0), 4) == log10_p
    assert exact_session_error(PacketCountDistribution(probs), spec) == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_log_session_error_matches_high_precision_oracle(seed):
    rng = np.random.default_rng([13, seed])
    dist = _random_law(rng, depth=1 + seed)
    for w in (50, 500, 5000):
        spec = SessionSpec(w, int(rng.integers(w, 2 * w + 1)))
        assert abs(log_session_error(dist, spec) - float(_mp_log_session_error(dist.probs, spec))) <= 1e-11


@pytest.mark.parametrize("a", [0.18126924692201818, 0.5, 0.75, 1.0 - 1e-9, 1e-300, 5e-324])
def test_frexp_power_matches_high_precision(a):
    # repeated squaring alone doubles the relative error at each step, about n eps in all
    for n in (1, 55, 5500, 22000, 10**6):
        m, e = _frexp_power(a, n)
        with mpmath.workdps(40):
            rel = abs(mpmath.ldexp(mpmath.mpf(m), e) / mpmath.mpf(a) ** n - 1)
        assert 0.5 <= m < 1.0 and rel <= 1e-15 * max(1, n // 1000)


@pytest.mark.parametrize("a0", [1e-300, 5e-324])
@pytest.mark.parametrize("rest", [(1.0,), (0.3, 0.7), (0.2, 0.3, 0.5)])
def test_log_session_error_tiny_alpha0(a0, rest):
    # every step must stay finite however far below 1 the division by k alpha_0 scales
    probs = (a0,) + tuple(x * (1.0 - a0) for x in rest)
    for w, w_s in ((1, 1), (40, 60), (300, 301), (10, 10**6)):
        spec = SessionSpec(w, w_s)
        log_p = log_session_error(PacketCountDistribution(probs), spec)
        oracle = float(_mp_log_session_error(probs, spec))
        assert math.isfinite(log_p)
        assert log_p == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("depth", [3, 4, 5, 6])
@pytest.mark.parametrize("a", [1e-300, 1e-250])
def test_log_session_error_tiny_alpha0_and_alpha1(a, depth):
    # the coefficients grow by ~2**498 per step at a = 1e-300; unscaled, the older window entries fell
    # into the subnormals, and at depth 3 ln p was off by -2.398 at (10, 10) and by -4.111 at (10, 60)
    probs = (a, a) + ((1.0 - 2.0 * a) / (depth - 1),) * (depth - 1)
    for w, w_s in ((10, 10), (10, 60), (200, 400), (50, 10**5)):
        spec = SessionSpec(w, w_s)
        oracle = float(_mp_log_session_error(probs, spec))
        assert log_session_error(PacketCountDistribution(probs), spec) == pytest.approx(oracle, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="no one power-of-two scaling holds a law this sparse above a subnormal alpha_0")
def test_log_session_error_sparse_subnormal_law():
    # the entries span more than the double range above alpha_0 = 5e-324: ln p reads -13455.2 against -13423.7
    probs = (5e-324, 0.0, 2.0**-560, 0.0, 0.0, 1.0)
    spec = SessionSpec(10, 20)
    oracle = float(_mp_log_session_error(probs, spec))
    assert log_session_error(PacketCountDistribution(probs), spec) == pytest.approx(oracle, rel=1e-12)


def test_log_session_error_zero_alpha0():
    # every slot delivers, so w <= w_s packets always arrive
    for probs in ((0.0, 1.0), (0.0, 0.4, 0.6)):
        dist = PacketCountDistribution(probs)
        assert log_session_error(dist, SessionSpec(5, 5)) == -math.inf
        assert exact_session_error(dist, SessionSpec(5, 5)) == 0.0


def test_log_session_error_never_delivering_law():
    dist = PacketCountDistribution((1.0,))
    assert log_session_error(dist, SessionSpec(30, 40)) == 0.0
    assert exact_session_error(dist, SessionSpec(30, 40)) == 1.0


def test_log_session_error_trailing_zeros():
    spec = SessionSpec(40, 50)
    trimmed = log_session_error(PacketCountDistribution((0.3, 0.7)), spec)
    assert log_session_error(PacketCountDistribution((0.3, 0.7, 0.0, 0.0)), spec) == trimmed
    assert log_session_error(PacketCountDistribution((1.0, 0.0)), spec) == 0.0
    # trailing zeros lower hi, and so move every rescale of the window and the running sum
    sdo = _sdo_law(8).probs
    for w, w_s in ((5000, 5500), (20000, 22000)):
        spec = SessionSpec(w, w_s)
        trimmed = log_session_error(PacketCountDistribution(sdo), spec)
        for zeros in (4, 60):
            assert log_session_error(PacketCountDistribution(sdo + (0.0,) * zeros), spec) == trimmed


def test_log_session_error_clamps_tiny_negative_entries():
    spec = SessionSpec(40, 50)
    clamped = log_session_error(PacketCountDistribution((0.3, 0.7 + 5e-13, -5e-13)), spec)
    assert clamped == log_session_error(PacketCountDistribution((0.3, 0.7 + 5e-13)), spec)
    assert math.isfinite(clamped)


def _reference_log_session_error(dist, spec):
    """log_session_error's recurrence with its window in a deque and its terms as (n_i, alpha_i) pairs.

    The same scaling, the same rescales and the same left-to-right sum of each step's terms, so
    log_session_error must equal it bit for bit.
    """
    w, n = spec.w, spec.w_s
    a0, *rest = (max(p, 0.0) for p in dist.probs)
    if a0 == 0.0:
        return -math.inf
    growth = (math.ceil((math.log2(a) - math.log2(a0)) / i) for i, a in enumerate(rest, start=1) if a > 0.0)
    j = max(0, max(growth, default=0) - 256)
    width = ((n + 1) * len(rest)).bit_length()
    lift = min(-math.frexp(a0)[1], 1020 - width) if j else 0
    m0, scale = _frexp_power(a0, n)
    a0, terms = math.ldexp(a0, lift), [(float((n + 1) * i), math.ldexp(a, lift - j * i)) for i, a in enumerate(rest, 1)]
    over = max(0, math.frexp(sum(a for _, a in terms))[1] - 1)
    hi_exp = math.frexp(a0)[1] + 1017 - width - over
    hi = math.ldexp(1.0, hi_exp)
    target = (hi_exp - 1022) // 2
    scale -= target
    acc = math.ldexp(m0, target)
    window = deque([acc], maxlen=len(terms))
    for k in range(1, w):
        t = 0.0
        for (ni, a), c in zip(terms, window):
            t += (ni - k) * a * c
        v = t / (k * a0)
        if v > hi:
            shift = math.frexp(v)[1] - target
            window = deque([math.ldexp(c, -shift) for c in window], maxlen=len(terms))
            v, acc, scale = math.ldexp(v, -shift), math.ldexp(acc, -shift), scale + shift
        window.appendleft(v)
        if j:
            acc = math.ldexp(acc, -j)
        acc += v
    m, e = math.frexp(acc)
    return min(math.log(m) + (scale + e + j * (w - 1)) * _LOG2, 0.0)


def _reference_laws():
    rng = np.random.default_rng(23)
    laws = [
        (1.0,),  # never delivers: no terms at all
        (0.3, 0.7, 0.0, 0.0),  # trailing zeros
        (0.01, 0.99),  # 35 rescales at (5000, 5500)
        _sdo_law(8).probs,
        (1e-300, 1e-300, 0.5, 0.5),  # Newton-polygon scaling, j > 0, a rescale every few steps
        (1e-250, 1e-250, 0.2, 0.3, 0.2, 0.3),
        (5e-324, 0.3, 0.7),  # subnormal alpha_0
        (5e-324, 0.2, 0.3, 0.5),
    ]
    for depth in range(7):  # random laws with zero and tiny entries, L = 0..6
        for _ in range(2):
            raw = rng.random(depth + 1) ** 3 + 1e-3
            raw[1:] *= np.where(rng.random(depth) < 0.2, 0.0, 1.0) * 10.0 ** -rng.choice([0.0, 5.0, 300.0], depth)
            laws.append(tuple(float(x) for x in raw / raw.sum()))
    return laws


@pytest.mark.parametrize("probs", _reference_laws())
def test_log_session_error_equals_reference_bit_for_bit(probs):
    dist = PacketCountDistribution(probs)
    for w, w_s in ((1, 1), (1, 9), (2, 3), (7, 7), (50, 55), (333, 600), (2000, 2000), (5000, 5500), (5000, 10000)):
        spec = SessionSpec(w, w_s)
        assert log_session_error(dist, spec) == _reference_log_session_error(dist, spec), (w, w_s)
