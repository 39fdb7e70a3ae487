"""Closed-form probabilities, Chernoff session-error bounds, and exact oracles.

Per-slot multi-packet probabilities (beta/alpha), the closed-form Chernoff
bounds for L=1 and L=2 with a generic numeric minimizer for any packet-count
law, the NOMA factor, and an exact dynamic-programming evaluation of the
session error probability Pr(sum_t V(t) < W).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

_MAX_K_ALTERNATING = 64  # alternating-sum cancellation grows past this
_LAMBDA_MAX = 700.0  # exp underflow limit for the Chernoff search


# --- special function helpers ---------------------------------------------


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order 1."""
    if x <= 0:
        raise ValueError(f"bessel_k1 requires x > 0, got {x}")
    return float(special.k1(x))


def x_k1(x: float) -> float:
    """x * K1(x), continuous at x = 0 where the limit is 1.

    This is the combination that appears in every beta_2-type formula and
    stays well-conditioned for small arguments where K1 itself blows up.
    """
    if x < 0:
        raise ValueError(f"x_k1 requires x >= 0, got {x}")
    if x < 1e-290:  # K1(x) ~ 1/x would overflow; the product is 1 to machine precision
        return 1.0
    return float(x * special.k1(x))


# --- per-slot transmission probabilities (Rayleigh fading) ----------------


def beta1(rho1: float, omega: float) -> float:
    """Probability that the level-1 packet is affordable: exp(-rho1/omega)."""
    if rho1 <= 0 or omega <= 0:
        raise ValueError("rho1 and omega must be positive")
    return math.exp(-rho1 / omega)


def beta2_symmetric(rho1: float, rho2: float, omega: float) -> float:
    """Probability of affording two packets on iid Exp(1) channels.

    Closed form exp(-(rho1+rho2)/omega) * x*K1(x) with x = 2*sqrt(rho1*rho2)/omega.
    """
    if rho1 <= 0 or rho2 <= 0 or omega <= 0:
        raise ValueError("rho1, rho2 and omega must be positive")
    x = 2.0 * math.sqrt(rho1 * rho2) / omega
    return math.exp(-(rho1 + rho2) / omega) * x_k1(x)


def beta2_sdo(rho1: float, rho2: float, omega: float, k_users: int) -> float:
    """Probability of two packets under selection diversity over K-1 other channels.

    Alternating binomial sum over the order-statistic expansion; coefficients
    are taken in log space with sign tracking to limit cancellation.  Refuses
    k_users > 64 where the alternating series becomes numerically unsafe.
    """
    if rho1 <= 0 or rho2 <= 0 or omega <= 0:
        raise ValueError("rho1, rho2 and omega must be positive")
    if k_users < 2:
        raise ValueError(f"k_users must be at least 2, got {k_users}")
    if k_users > _MAX_K_ALTERNATING:
        raise ValueError(f"k_users > {_MAX_K_ALTERNATING} not supported (alternating-sum cancellation)")
    km1 = k_users - 1
    log_terms = []
    signs = []
    for m in range(1, km1 + 1):
        x = 2.0 * math.sqrt(m * rho1 * rho2) / omega
        xk1 = x_k1(x)
        if xk1 <= 0.0:
            continue
        log_c = math.lgamma(km1 + 1) - math.lgamma(m + 1) - math.lgamma(km1 - m + 1)
        log_terms.append(log_c - (rho1 + m * rho2) / omega + math.log(xk1))
        signs.append(1.0 if m % 2 == 1 else -1.0)
    if not log_terms:
        return 0.0
    peak = max(log_terms)
    acc = sum(s * math.exp(t - peak) for s, t in zip(signs, log_terms))
    val = math.exp(peak) * acc
    return min(max(val, 0.0), 1.0)


# --- packet-count distributions -------------------------------------------


@dataclass(frozen=True)
class PacketCountDistribution:
    """Law of the per-slot packet count: probs[m] = Pr(V = m), m = 0..L."""

    probs: tuple[float, ...]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.size < 1:
            raise ValueError("probs must be non-empty")
        if (p < -1e-12).any() or (p > 1 + 1e-12).any():
            raise ValueError(f"probabilities outside [0,1]: {self.probs}")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {p.sum()}")

    @property
    def max_packets(self) -> int:
        return len(self.probs) - 1


def alphas_from_betas(betas) -> PacketCountDistribution:
    """Turn tail probabilities beta_1 >= beta_2 >= ... into the packet-count law.

    alpha_0 = 1 - beta_1, alpha_m = beta_m - beta_{m+1}, and the top entry is
    beta_L itself (the probability of transmitting the full depth).
    """
    b = list(betas)
    if not b:
        raise ValueError("betas must be non-empty")
    seq = [1.0] + b
    for hi, lo in zip(seq, seq[1:]):
        if lo > hi + 1e-12 or lo < -1e-12:
            raise ValueError(f"betas must be nonincreasing and within [0,1]: {betas}")
    probs = [hi - lo for hi, lo in zip(seq, seq[1:])] + [b[-1]]
    return PacketCountDistribution(tuple(max(p, 0.0) for p in probs))


def mean_packets(dist: PacketCountDistribution) -> float:
    """Expected packets per slot, E[V]."""
    return float(sum(m * p for m, p in enumerate(dist.probs)))


# --- session spec and Chernoff bounds -------------------------------------


@dataclass(frozen=True)
class SessionSpec:
    """Delivery requirement: w packets within w_s slots."""

    w: int
    w_s: int

    def __post_init__(self):
        if self.w < 1 or self.w_s < self.w:
            raise ValueError(f"need w_s >= w >= 1, got w={self.w}, w_s={self.w_s}")

    @property
    def kappa(self) -> float:
        """Load ratio w / w_s, in (0, 1]."""
        return self.w / self.w_s


@dataclass(frozen=True)
class ChernoffResult:
    """Chernoff bound on the session error probability.

    When the per-slot mean does not exceed the load ratio the bound
    degenerates to 1; that case is reported with feasible=False rather
    than raised, so parameter sweeps can cross the feasibility boundary.
    """

    bound: float
    lambda_star: float
    feasible: bool


_INFEASIBLE = ChernoffResult(bound=1.0, lambda_star=0.0, feasible=False)


def _log_objective(probs, kappa, lam):
    """Log of the per-slot Chernoff term exp(kappa*lam) * E[exp(-lam*V)].

    The full bound is w_s times this, exponentiated.
    """
    ms = np.arange(len(probs))
    return float(special.logsumexp(-lam * ms, b=probs) + kappa * lam)


def _golden_min(f, lo, hi, xtol=1e-12):
    """Golden-section minimum of a unimodal f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def chernoff_generic(dist: PacketCountDistribution, spec: SessionSpec) -> ChernoffResult:
    """Numerically minimized Chernoff bound for an arbitrary packet-count law.

    Minimizes the convex per-slot objective over lambda by a doubling
    bracket plus golden-section search; works for any depth, including
    the empirical distributions used when no closed form exists.
    """
    kappa = spec.kappa
    if mean_packets(dist) <= kappa:
        return _INFEASIBLE
    probs = np.asarray(dist.probs)
    f = lambda lam: _log_objective(probs, kappa, lam)

    hi = 1.0
    while hi < _LAMBDA_MAX and f(hi) < f(hi / 2.0):
        hi *= 2.0
    hi = min(hi, _LAMBDA_MAX)
    lam_star = _golden_min(f, 0.0, hi)
    log_bound = spec.w_s * f(lam_star)
    return ChernoffResult(bound=min(math.exp(log_bound), 1.0), lambda_star=lam_star, feasible=True)


def chernoff_oma(alpha1_bar: float, spec: SessionSpec) -> ChernoffResult:
    """Closed-form Chernoff bound for OMA (per-slot success probability alpha1_bar)."""
    if not 0.0 <= alpha1_bar <= 1.0:
        raise ValueError(f"alpha1_bar must be in [0,1], got {alpha1_bar}")
    kappa = spec.kappa
    if alpha1_bar <= kappa:
        return _INFEASIBLE
    if alpha1_bar == 1.0:
        return ChernoffResult(bound=0.0, lambda_star=math.inf, feasible=True)
    alpha0 = 1.0 - alpha1_bar
    lam_star = math.log((1.0 - kappa) * alpha1_bar / (kappa * alpha0))
    log_per_slot = kappa * math.log(alpha1_bar / kappa)
    if kappa < 1.0:
        log_per_slot += (1.0 - kappa) * math.log(alpha0 / (1.0 - kappa))
    return ChernoffResult(bound=math.exp(spec.w_s * log_per_slot), lambda_star=lam_star, feasible=True)


def chernoff_noma2(dist: PacketCountDistribution, spec: SessionSpec) -> ChernoffResult:
    """Closed-form Chernoff bound for depth-2 NOMA (V in {0,1,2}).

    The minimizing z = exp(-lambda*) solves the quadratic stationarity
    condition of the per-slot objective.  Degenerates to the OMA closed
    form as the two-packet probability vanishes.
    """
    if dist.max_packets != 2:
        raise ValueError(f"chernoff_noma2 needs a depth-2 distribution, got max {dist.max_packets}")
    a0, a1, a2 = dist.probs
    kappa = spec.kappa
    if a1 + 2.0 * a2 <= kappa:
        return _INFEASIBLE
    if a2 == 0.0:
        return chernoff_oma(a1, spec)
    disc = (1.0 - kappa) ** 2 * a1**2 + 4.0 * kappa * (2.0 - kappa) * a0 * a2
    z = (math.sqrt(disc) - (1.0 - kappa) * a1) / (2.0 * (2.0 - kappa) * a2)
    lam_star = -math.log(z)
    per_slot = math.exp(kappa * lam_star) * (a0 + a1 * z + a2 * z * z)
    return ChernoffResult(bound=min(per_slot, 1.0) ** spec.w_s, lambda_star=lam_star, feasible=True)


# --- NOMA factor ----------------------------------------------------------


@dataclass(frozen=True)
class NomaFactor:
    """Minimum per-slot ratio of the depth-2 to OMA Chernoff bounds."""

    eta: float
    z_star: float


def noma_factor(alpha0: float, alpha2_bar: float) -> NomaFactor:
    """Closed-form NOMA factor eta = 1 - alpha2_bar / (1 + sqrt(alpha0))^2.

    eta^w_s bounds the best possible session-error ratio of depth-2 NOMA to
    OMA.  The minimizing substitution point is z* = sqrt(alpha0)/(1+sqrt(alpha0)).
    """
    if not 0.0 <= alpha0 <= 1.0 or not 0.0 <= alpha2_bar <= 1.0:
        raise ValueError("alpha0 and alpha2_bar must be probabilities")
    if alpha0 + alpha2_bar > 1.0 + 1e-12:
        raise ValueError(f"alpha0 + alpha2_bar must not exceed 1, got {alpha0 + alpha2_bar}")
    s = math.sqrt(alpha0)
    return NomaFactor(eta=1.0 - alpha2_bar / (1.0 + s) ** 2, z_star=s / (1.0 + s))


# --- exact session error --------------------------------------------------


def exact_session_error(dist: PacketCountDistribution, spec: SessionSpec) -> float:
    """Exact Pr(sum of per-slot successes over w_s slots < w) by dynamic programming.

    Tracks the law of the cumulative success count with everything at or
    above w folded into one absorbing "done" state; since per-slot counts
    are nonnegative, reaching w is equivalent to finishing the stream.
    """
    w, w_s = spec.w, spec.w_s
    probs = np.asarray(dist.probs, dtype=float)
    state = np.zeros(w + 1)
    state[0] = 1.0
    for _ in range(w_s):
        nxt = np.convolve(state, probs)
        nxt[w] = nxt[w:].sum()
        state = nxt[: w + 1]
    return float(state[:w].sum())


def oma_session_error_binomial(alpha1_bar: float, spec: SessionSpec) -> float:
    """Exact OMA session error from the binomial tail; independent cross-check.

    Pr(Binomial(w_s, alpha1_bar) < w), evaluated as the regularized incomplete
    beta function I_{1-alpha1_bar}(w_s - w + 1, w), which stays finite for any
    w_s where the term-by-term binomial sum overflows.
    """
    if not 0.0 <= alpha1_bar <= 1.0:
        raise ValueError(f"alpha1_bar must be in [0,1], got {alpha1_bar}")
    return float(special.betainc(spec.w_s - spec.w + 1, spec.w, 1.0 - alpha1_bar))
