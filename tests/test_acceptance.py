"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (also echoed in the terminal
summary) and asserts the criterion, including its runtime budget.  The
statistical checks use fixed seeds so the whole suite is reproducible.
"""

import functools
import math
import time
from dataclasses import replace

import numpy as np
from scipy import integrate, optimize

from smddc import (
    PacketCountDistribution,
    PolicyKind,
    SessionSpec,
    SystemConfig,
    alphas_from_betas,
    bessel_k1,
    beta1,
    beta2_sdo,
    beta2_symmetric,
    build_ladder,
    chernoff_generic,
    chernoff_noma2,
    chernoff_oma,
    estimate_session_error,
    estimate_session_errors,
    exact_session_error,
    mean_packets,
    noma_factor,
    oma_session_error_binomial,
    sinr_at_level,
)
from smddc.cli import main as cli_main
from smddc.policies import (
    fo_packet_counts,
    oma_packet_counts,
    sdo_packet_counts,
    symmetric_packet_counts,
)

RESULTS = []


def report(num, ok, detail, elapsed, limit):
    ok = ok and elapsed < limit
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail} [{elapsed:.1f} s]"
    RESULTS.append(line)
    print(line)
    assert ok, line


def k1_quadrature(x):
    """Independent oracle: adaptive quadrature of
    K1(x) = integral_0^inf exp(-x cosh t) cosh t dt.

    The exp(-x) peak value is factored out so the integrand is O(1) and
    quad's absolute tolerance cannot swamp the tiny large-x values."""
    upper = math.acosh(1.0 + 745.0 / x)
    val, _ = integrate.quad(
        lambda t: math.exp(-x * (math.cosh(t) - 1.0)) * math.cosh(t), 0.0, upper,
        limit=400, epsrel=1e-12,
    )
    return math.exp(-x) * val


def test_criterion_1_power_ladder():
    t0 = time.perf_counter()
    ok = build_ladder(4, 1, 3).levels == (4, 20, 100)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        gamma = float(rng.uniform(0.1, 10))
        n0 = float(rng.uniform(0.1, 5))
        depth = int(rng.integers(1, 9))
        lad = build_ladder(gamma, n0, depth)
        for level in range(1, depth + 1):
            worst = max(worst, abs(sinr_at_level(lad, level) / gamma - 1))
    ok = ok and worst < 1e-12
    report(1, ok, f"ladder exact, worst SINR rel err {worst:.2e}", time.perf_counter() - t0, 1.0)


def test_criterion_2_bessel_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for x in np.geomspace(1e-6, 50.0, 40):
        q = k1_quadrature(float(x))
        worst = max(worst, abs(bessel_k1(float(x)) / q - 1))
    report(2, worst < 1e-8, f"K1 vs quadrature worst rel err {worst:.2e}", time.perf_counter() - t0, 10.0)


def test_criterion_3_single_slot_probabilities():
    t0 = time.perf_counter()
    n = 10**6
    rng = np.random.default_rng(1)
    ok = True
    worst_sigmas = 0.0
    for _ in range(20):
        rho1 = float(rng.uniform(0.5, 10))
        rho2 = float(rng.uniform(0.5, 30))
        omega = float(rng.uniform(5, 40))
        g1 = rng.exponential(1, n)
        g2 = rng.exponential(1, n)
        for p, hit in [
            (beta1(rho1, omega), rho1 / g1 <= omega),
            (beta2_symmetric(rho1, rho2, omega), rho1 / g1 + rho2 / g2 <= omega),
        ]:
            se = math.sqrt(p * (1 - p) / n)
            diff = abs(hit.mean() - p)
            ok = ok and diff <= 3 * se + 1e-12
            if se > 0:
                worst_sigmas = max(worst_sigmas, diff / se)
    report(3, ok, f"beta1/beta2 vs MC, worst {worst_sigmas:.2f} sigma", time.perf_counter() - t0, 30.0)


def test_criterion_4_selection_diversity():
    t0 = time.perf_counter()
    n = 10**6
    rng = np.random.default_rng(2)
    rho1, rho2, omega = 4.0, 20.0, 20.0
    ok = abs(beta2_sdo(rho1, rho2, omega, 2) - beta2_symmetric(rho1, rho2, omega)) < 1e-12
    worst_sigmas = 0.0
    for k in (2, 3, 5):
        g = rng.exponential(1, n)
        cross = rng.exponential(1, (n, k - 1)).max(axis=1)
        p = beta2_sdo(rho1, rho2, omega, k)
        se = math.sqrt(p * (1 - p) / n)
        diff = abs((rho1 / g + rho2 / cross <= omega).mean() - p)
        ok = ok and diff <= 3 * se
        worst_sigmas = max(worst_sigmas, diff / se)
    report(4, ok, f"beta2_sdo vs MC (K=2,3,5), worst {worst_sigmas:.2f} sigma", time.perf_counter() - t0, 60.0)


@functools.lru_cache(maxsize=1)
def saturation_means():
    """Empirical mean packets per slot for symmetric depth 1..6 on shared gains."""
    rng = np.random.default_rng(3)
    gains = rng.exponential(1, (10**6, 6))
    lad = build_ladder(2, 1, 6)
    return [
        float(symmetric_packet_counts(gains[:, :L], np.asarray(lad.levels[:L]), 20.0).mean())
        for L in range(1, 7)
    ]


def test_criterion_5_depth_saturation():
    t0 = time.perf_counter()
    means = saturation_means()
    monotone = all(b >= a for a, b in zip(means, means[1:]))
    increment = (means[5] - means[2]) / means[2]
    ok = monotone and increment < 0.01
    report(5, ok, f"mean packets nondecreasing, L3->L6 gain {increment:.2e}", time.perf_counter() - t0, 60.0)


@functools.lru_cache(maxsize=1)
def chernoff_grid():
    """50 random feasible packet-count laws with closed-form and numeric bounds."""
    rng = np.random.default_rng(4)
    points = []
    while len(points) < 50:
        ws = int(rng.integers(52, 71))
        spec = SessionSpec(50, ws)
        if len(points) % 2 == 0:
            a1 = float(rng.uniform(spec.kappa + 0.02, 0.999))
            dist = PacketCountDistribution((1 - a1, a1))
            closed = chernoff_oma(a1, spec)
        else:
            probs = rng.dirichlet([1.0, 1.0, 1.0])
            dist = PacketCountDistribution(tuple(probs))
            if mean_packets(dist) <= spec.kappa + 0.02:
                continue
            closed = chernoff_noma2(dist, spec)
        points.append((dist, spec, closed, chernoff_generic(dist, spec)))
    return points


def test_criterion_6_chernoff_closed_forms():
    t0 = time.perf_counter()
    worst_lam, worst_rel = 0.0, 0.0
    for dist, spec, closed, numeric in chernoff_grid():
        worst_lam = max(worst_lam, abs(closed.lambda_star - numeric.lambda_star))
        worst_rel = max(worst_rel, abs(closed.bound / numeric.bound - 1))
    ok = worst_lam < 1e-6 and worst_rel < 1e-8
    report(
        6, ok,
        f"lambda* worst diff {worst_lam:.2e}, bound worst rel {worst_rel:.2e}",
        time.perf_counter() - t0, 10.0,
    )


@functools.lru_cache(maxsize=1)
def session_grid():
    """Exact DP value and 1e6-session Monte Carlo estimate for 27 configurations."""
    points = []
    for omega in (10.0, 15.0, 20.0):
        rho1, rho2 = 4.0, 20.0
        laws = {
            "oma": alphas_from_betas([beta1(rho1, omega)]),
            "sym2": alphas_from_betas(
                [beta1(rho1, omega), beta2_symmetric(rho1, rho2, omega)]
            ),
            "sdo": alphas_from_betas(
                [beta1(rho1, omega), beta2_sdo(rho1, rho2, omega, 3)]
            ),
        }
        for ws in (50, 55, 60):
            # OMA and sym L=2 at k=2 nest on one stream: one draw serves both
            cfg = SystemConfig(gamma=4, omega=omega, k=2, w=50, w_s=ws)
            mc = estimate_session_errors(
                [PolicyKind.oma(), PolicyKind.symmetric(2)], cfg, trials=10**6, seed=11, workers=4
            )
            mc.append(
                estimate_session_error(PolicyKind.sdo(), replace(cfg, k=3), trials=10**6, seed=11, workers=4)
            )
            spec = cfg.session_spec()
            for (name, law), stats in zip(laws.items(), mc, strict=True):
                points.append((name, law, spec, exact_session_error(law, spec), stats))
    return points


def test_criterion_8_exact_oracle():
    t0 = time.perf_counter()
    ok = True
    # binomial tail cross-check and the degenerate no-slack session
    for a1 in (0.6, 0.9, 0.97):
        for ws in (50, 55, 60):
            spec = SessionSpec(50, ws)
            dp = exact_session_error(alphas_from_betas([a1]), spec)
            ok = ok and abs(dp - oma_session_error_binomial(a1, spec)) < 1e-12
        spec0 = SessionSpec(50, 50)
        dp0 = exact_session_error(alphas_from_betas([a1]), spec0)
        ok = ok and abs(dp0 - (1 - a1**50)) < 1e-12
    worst_sigmas = 0.0
    for name, law, spec, exact, stats in session_grid():
        se = math.sqrt(max(exact * (1 - exact), 0.0) / stats.trials)
        diff = abs(stats.p_hat - exact)
        ok = ok and diff <= 3 * se + 1e-12
        if se > 0:
            worst_sigmas = max(worst_sigmas, diff / se)
    report(
        8, ok,
        f"DP == binomial, MC vs DP worst {worst_sigmas:.2f} sigma over 27 points",
        time.perf_counter() - t0, 300.0,
    )


def test_criterion_7_bound_validity():
    t0 = time.perf_counter()
    ok = True
    # closed-form bounds dominate the exact value on the Chernoff grid
    for dist, spec, closed, numeric in chernoff_grid():
        ok = ok and closed.bound >= exact_session_error(dist, spec) - 1e-12
    # generic bound dominates the exact value for the empirical saturation laws
    rng = np.random.default_rng(5)
    gains = rng.exponential(1, (10**5, 6))
    lad = build_ladder(2, 1, 6)
    spec = SessionSpec(50, 55)
    for L in range(1, 7):
        counts = symmetric_packet_counts(gains[:, :L], np.asarray(lad.levels[:L]), 20.0)
        dist = PacketCountDistribution(tuple(np.bincount(counts, minlength=L + 1) / len(counts)))
        ok = ok and chernoff_generic(dist, spec).bound >= exact_session_error(dist, spec) - 1e-12
    # full sweep grid: bound >= DP and >= MC estimate minus 3 sigma
    for name, law, spec, exact, stats in session_grid():
        if name == "oma":
            bound = chernoff_oma(law.probs[1], spec).bound
        else:
            bound = chernoff_noma2(law, spec).bound
        ok = ok and bound >= exact - 1e-12
        ok = ok and bound >= stats.p_hat - 3 * stats.ci95_halfwidth - 1e-12
    report(7, ok, "Chernoff bound dominates exact DP and MC on all grids", time.perf_counter() - t0, 60.0)


def test_criterion_9_headline_operating_point():
    t0 = time.perf_counter()
    base = dict(gamma=4, omega=15.0, k=3, w=50)
    trials = 10**7
    cfg50 = SystemConfig(w_s=50, **base)
    sdo50 = estimate_session_error(PolicyKind.sdo(), cfg50, trials=trials, seed=21, workers=4)
    oma50 = estimate_session_error(PolicyKind.oma(), cfg50, trials=trials, seed=22, workers=4)
    cfg60 = SystemConfig(w_s=60, **base)
    sdo60 = estimate_session_error(PolicyKind.sdo(), cfg60, trials=trials, seed=23, workers=4)
    ok = 0.03 <= sdo50.p_hat <= 0.07 and oma50.p_hat >= 0.99 and sdo60.p_hat <= 1e-3
    report(
        9, ok,
        f"SDO Ws=50 p={sdo50.p_hat:.4f} (want 0.03..0.07), OMA Ws=50 p={oma50.p_hat:.4f} "
        f"(want >=0.99), SDO Ws=60 p={sdo60.p_hat:.2e} (want <=1e-3)",
        time.perf_counter() - t0, 600.0,
    )


def test_criterion_10_sdo_vs_fo_over_users():
    t0 = time.perf_counter()
    n, w, ws = 10**4, 50, 55
    rho1, rho2, omega = 4.0, 20.0, 15.0
    rng = np.random.default_rng(6)
    own = rng.exponential(1, n * ws)
    cross = rng.exponential(1, (n * ws, 7))
    p_sdo, p_fo = [], []
    for k in range(2, 9):
        c = cross[:, : k - 1]
        for counts_fn, gains, acc in (
            (sdo_packet_counts, c.max(axis=-1), p_sdo),
            (fo_packet_counts, -np.sort(-c, axis=-1), p_fo),
        ):
            counts = counts_fn(own, gains, rho1, rho2, omega).reshape(n, ws)
            acc.append(float((counts.sum(axis=1) < w).mean()))
    # shared gains: adding a user can only add packets, so the estimates are
    # nonincreasing in K pathwise, not just in expectation
    mono = all(b <= a for a, b in zip(p_sdo, p_sdo[1:]))
    mono = mono and all(b <= a for a, b in zip(p_fo, p_fo[1:]))
    close = True
    for ps, pf in zip(p_sdo, p_fo):
        band = 3 * math.sqrt(max(ps * (1 - ps), pf * (1 - pf)) / n)
        close = close and abs(ps - pf) <= band
    report(
        10, mono and close,
        f"SDO/FO nonincreasing over K=2..8 and within 3-sigma bands "
        f"(K=3: {p_sdo[1]:.3f} vs {p_fo[1]:.3f})",
        time.perf_counter() - t0, 600.0,
    )


def test_criterion_11_noma_factor():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    zs = np.linspace(1e-12, 1 - 1e-12, 2001)
    worst = 0.0
    for _ in range(1000):
        a0, a1, a2 = rng.dirichlet([1.0, 1.0, 1.0])
        ratio = (a0 + a1 * zs + a2 * zs**2) / (a0 + (a1 + a2) * zs)
        i = int(np.argmin(ratio))
        lo, hi = zs[max(i - 1, 0)], zs[min(i + 1, len(zs) - 1)]
        z = optimize.minimize_scalar(
            lambda z: (a0 + a1 * z + a2 * z * z) / (a0 + (a1 + a2) * z),
            bounds=(lo, hi), method="bounded", options={"xatol": 1e-14},
        ).x
        numeric = (a0 + a1 * z + a2 * z * z) / (a0 + (a1 + a2) * z)
        worst = max(worst, abs(noma_factor(a0, a2).eta - numeric))
    ok = worst < 1e-9 and noma_factor(0.3, 0.0).eta == 1.0
    # eta = exp(-0.1) by construction, so eta^50 should sit at exp(-5)
    a0 = 0.25
    abar2 = (1 - math.exp(-0.1)) * (1 + math.sqrt(a0)) ** 2
    gain = noma_factor(a0, abar2).eta ** 50
    ok = ok and abs(gain / math.exp(-5) - 1) < 0.02
    report(
        11, ok,
        f"eta vs numeric worst {worst:.2e}, eta^50 = {gain:.4f} vs e^-5 = {math.exp(-5):.4f}",
        time.perf_counter() - t0, 5.0,
    )


def test_criterion_12_determinism(capsys):
    t0 = time.perf_counter()
    sim = [
        "simulate", "--gamma", "4", "--omega", "15", "--policy", "sdo", "--k", "3",
        "--trials", "200000", "--seed", "9",
    ]
    sweep = [
        "sweep", "--gamma", "4", "--omega", "15", "--k", "3", "--policy", "sdo,oma",
        "--axis", "w_s", "--values", "50,55", "--trials", "100000", "--seed", "9",
    ]
    ok = True
    for argv in (sim, sweep):
        outputs = []
        for workers in ("1", "8"):
            code = cli_main(argv + ["--workers", workers])
            ok = ok and code == 0
            outputs.append(capsys.readouterr().out)
        ok = ok and outputs[0] == outputs[1] and len(outputs[0]) > 0
    report(12, ok, "simulate/sweep byte-identical with 1 and 8 workers", time.perf_counter() - t0, 120.0)
