"""Closed-form probabilities, Chernoff session-error bounds, and exact oracles.

Per-slot multi-packet probabilities (beta/alpha), the closed-form Chernoff
bounds for L=1 and L=2 with a generic root-finding minimizer for any
packet-count law, the NOMA factor, and the exact session error probability
Pr(sum_t V(t) < W) in log space, by a power-series recurrence in O(W L)
whose steps run over plain Python lists.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

_LAMBDA_MAX = 700.0  # exp underflow limit for the Chernoff search
_LOG2 = math.log(2.0)


# --- special function helpers ---------------------------------------------


def x_k1(x: float) -> float:
    """x * K1(x), continuous at x = 0 where the limit is 1.

    This is the combination that appears in every beta_2-type formula and
    stays well-conditioned for small arguments where K1 itself blows up.
    """
    if not x >= 0:  # NaN fails too
        raise ValueError(f"x_k1 requires x >= 0, got {x}")
    if x < 1e-290:  # K1(x) ~ 1/x would overflow; the product is 1 to machine precision
        return 1.0
    if x == math.inf:  # K1(x) underflows to 0 and inf * 0 is NaN; the product falls to 0
        return 0.0
    from scipy import special  # imported on first use: a Monte Carlo run never needs scipy

    return float(x * special.k1(x))


# --- per-slot transmission probabilities (Rayleigh fading) ----------------


def beta1(rho1: float, omega: float) -> float:
    """Probability that the level-1 packet is affordable: exp(-rho1/omega)."""
    if not (rho1 > 0 and omega > 0):  # NaN fails too
        raise ValueError("rho1 and omega must be positive")
    return math.exp(-rho1 / omega)


def beta2_symmetric(rho1: float, rho2: float, omega: float) -> float:
    """Probability of affording two packets on iid Exp(1) channels.

    Closed form exp(-(rho1+rho2)/omega) * x*K1(x) with x = 2*sqrt(rho1*rho2)/omega.
    """
    if not (rho1 > 0 and rho2 > 0 and omega > 0):  # NaN fails too
        raise ValueError("rho1, rho2 and omega must be positive")
    x = 2.0 * math.sqrt(rho1) * math.sqrt(rho2) / omega  # rho1 * rho2 overflows long before its root
    return math.exp(-(rho1 + rho2) / omega) * x_k1(x)


def _newton_root(f, lo: float, hi: float, x: float, tol: float) -> float:
    """Root of an increasing f in [lo, hi], f(lo) <= 0 <= f(hi), from x in the bracket.

    f(x) returns (value, derivative).  A Newton step that would leave the bracket, which each
    value of f shrinks, or that is not half the step before last, becomes a bisection
    (Numerical Recipes' rtsafe): so it converges wherever f is monotone, quadratically near
    the root, and stops after a step of at most tol.
    """
    before = last = hi - lo
    for _ in range(200):  # a guard only: the roots sought here took at most 17 steps over wide random scans
        value, slope = f(x)
        if value < 0.0:
            lo = x
        elif value > 0.0:
            hi = x
        else:
            return x
        new = x - value / slope if slope > 0.0 else math.nan
        if not lo <= new <= hi or abs(new - x) > 0.5 * before:
            new = 0.5 * (lo + hi)
        before, last = last, abs(new - x)
        if last <= tol:
            return new
        x = new
    return x


def _log1mexp(y: float) -> float:
    """log(1 - e^-y) for y > 0 without cancellation at either end (Maechler's log1mexp)."""
    return math.log(-math.expm1(-y)) if y <= _LOG2 else math.log1p(-math.exp(-y))


def beta2_sdo(rho1: float, rho2: float, omega: float, k_users: int) -> float:
    """Probability of two packets under selection diversity over K-1 other channels.

    The far packet rides the best of m = K-1 cross gains, with density
    m e^{-y} (1 - e^{-y})^{m-1}; given y > y0 = rho2/omega, the own gain covers
    the rest of the budget with probability exp(-rho1/omega - a/(y - y0)),
    a = rho1*rho2/omega^2.  In u = log(y - y0) the product decays double-exponentially
    at both ends and rises once, to a peak at e^u > 1 that Newton's method finds, so the
    plain trapezoidal rule converges exponentially (Trefethen & Weideman, SIAM Review 56,
    2014).  It runs over a bracket that bounds on the integrand's slope prove holds every
    point within 45 nats of the peak, scaled by the peak, from a step of half the peak's
    curvature width, halving it until two successive sums agree to 1e-14.  At a = 0 the own gain's
    factor is exp(-rho1/omega) wherever y > y0, leaving Pr(best cross gain > y0) in closed form.
    """
    if not (rho1 > 0 and rho2 > 0 and omega > 0):  # NaN too: it would reach the window's point count
        raise ValueError("rho1, rho2 and omega must be positive")
    if k_users < 2:
        raise ValueError(f"k_users must be at least 2, got {k_users}")
    m = float(k_users - 1)
    c, y0 = rho1 / omega, rho2 / omega
    a = c * rho2 / omega
    if math.isinf(c + y0 + a):
        return 0.0
    if a == 0.0:
        return math.exp(-c) * (-math.expm1(m * _log1mexp(y0)) if y0 > 0.0 else 1.0)
    log_m = math.log(m)

    def log_integrand(u):  # at y = y0 + e^u, with its first two derivatives in u
        s = math.exp(u)
        y = y0 + s
        cdf = -math.expm1(-y)
        q = s * math.exp(-y) / cdf  # s / (e^y - 1)
        r = a / s
        value = log_m + (m - 1.0) * _log1mexp(y) - y - c - r + u
        return value, 1.0 + r - s + (m - 1.0) * q, -r - s + (m - 1.0) * q * (1.0 - s / cdf)

    def descent(u):
        _, slope, curvature = log_integrand(u)
        return -slope, -curvature

    # the slope is positive for e^u <= 1, falls beyond, and is negative past e^u = big; the
    # curvature at the peak is at most -1
    big = 3.0 + math.sqrt(a) + 2.0 * math.log1p(m)
    start = math.log(min(max(1.0, log_m - y0, math.sqrt(a)), big))
    peak = _newton_root(descent, 0.0, math.log(big), start, 1e-9)
    top, _, curvature = log_integrand(peak)
    if top < -800.0:  # below the double range whatever the window's width
        return 0.0
    width = 1.0 / math.sqrt(-curvature)
    # g, the log integrand, is 45 nats below top outside [left, right]: for e^u <= 1 its slope is
    # at least r = a e^{-u}, so g(0) - g(u) >= a (e^{-u} - 1) >= 45 left of -log1p(45/a), and
    # g(0) <= top as the peak lies at e^u >= 1; left of u = -1 the slope exceeds 0.63, so
    # g(-75) < g(-1) - 45; past e^u = 3 big + 50, g has fallen by more than 45 from e^u = big + 1
    left = max(-75.0, -math.log1p(45.0 / a))
    right = math.log(3.0 * big + 50.0)
    shift = log_m - c - y0 - top

    def scaled(u):  # the integrand over e^top, on an array, with _log1mexp's two branches
        s = np.exp(u)
        y = y0 + s
        log_cdf = np.where(
            y > _LOG2, np.log1p(-np.exp(-np.maximum(y, _LOG2))), np.log(-np.expm1(-np.minimum(y, _LOG2)))
        )
        return np.exp((m - 1.0) * log_cdf - s - a / s + u + shift)

    n = max(8, math.ceil(2.0 * (right - left) / width))
    h = (right - left) / n
    ends = scaled(np.linspace(left, right, n + 1))
    total = h * (float(ends.sum()) - 0.5 * float(ends[0] + ends[-1]))
    for _ in range(12):
        finer = 0.5 * total + 0.5 * h * float(scaled(left + h * (np.arange(n) + 0.5)).sum())
        h, n = 0.5 * h, 2 * n
        if abs(finer - total) <= 1e-14 * finer:
            break
        total = finer
    return min(max(math.exp(top) * finer, 0.0), math.exp(-c))  # beta1, which the sum's 1e-14 can pass


# --- packet-count distributions -------------------------------------------


@dataclass(frozen=True)
class PacketCountDistribution:
    """Law of the per-slot packet count: probs[m] = Pr(V = m), m = 0..L."""

    probs: tuple[float, ...]

    def __post_init__(self):  # on floats: every grid point builds laws of a few entries
        p = self.probs
        if len(p) < 1:
            raise ValueError("probs must be non-empty")
        if not all(math.isfinite(x) for x in p):  # NaN passes every comparison below
            raise ValueError(f"probabilities must be finite: {self.probs}")
        if any(x < -1e-12 or x > 1 + 1e-12 for x in p):
            raise ValueError(f"probabilities outside [0,1]: {self.probs}")
        total = sum(p)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total}")

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


def _store_ints(obj, *names):
    """Store the named fields of the frozen dataclass obj as ints; a float, even 3.0, raises TypeError."""
    for name in names:
        value = getattr(obj, name)
        try:
            object.__setattr__(obj, name, operator.index(value))
        except TypeError:
            raise TypeError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SessionSpec:
    """Delivery requirement: w packets within w_s slots."""

    w: int
    w_s: int

    def __post_init__(self):
        _store_ints(self, "w", "w_s")
        if self.w < 1 or self.w_s < self.w:
            raise ValueError(f"need w_s >= w >= 1, got w={self.w}, w_s={self.w_s}")

    @property
    def kappa(self) -> float:
        """Load ratio w / w_s, in (0, 1]."""
        return self.w / self.w_s


@dataclass(frozen=True, slots=True)  # sweeps and the benchmark keep one result per point
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


def chernoff_generic(dist: PacketCountDistribution, spec: SessionSpec) -> ChernoffResult:
    """Numerically minimized Chernoff bound for any packet-count law, estimated ones included.

    lambda* is the root on [0, _LAMBDA_MAX] of the convex log objective's derivative
    kappa - E_lambda[V] (the mean of the law tilted by exp(-lambda*V)), or the cap if the
    derivative is still negative there.  That derivative rises with lambda at the rate of the
    tilted variance, so Newton's method finds the root, each step guarded by bisection inside
    the bracket.  The same tilted weights give the bound,
    exp(w_s (kappa lambda* + log sum_m p_m exp(-lambda* m))).  A law with Pr(V = 0) = 0 never
    fails a slot: the objective sum_m p_m exp(-(m - kappa) lambda) falls, as lambda* -> inf, to
    Pr(V = 1) when kappa = 1 and to 0 when kappa < 1.  The closed forms take this limit from here.
    """
    kappa = spec.kappa
    probs = dist.probs

    def tilted(lam):  # sum of the tilted weights, and kappa - E_lambda[V] with its derivative
        total = first = second = 0.0  # the m = 0 weight keeps total >= alpha_0 > 0 once the law can fail
        for m, p in enumerate(probs):
            weight = p * math.exp(-lam * m)
            total += weight
            first += m * weight
            second += m * m * weight
        mean = first / total
        return total, kappa - mean, second / total - mean * mean

    if tilted(0.0)[1] >= 0.0:  # E[V] <= kappa
        return _INFEASIBLE
    if probs[0] <= 0.0:
        bound = float(probs[1]) ** spec.w_s if spec.w == spec.w_s else 0.0
        return ChernoffResult(bound=bound, lambda_star=math.inf, feasible=True)
    if tilted(_LAMBDA_MAX)[1] <= 0.0:
        lam_star = _LAMBDA_MAX
    else:
        lam_star = _newton_root(lambda lam: tilted(lam)[1:], 0.0, _LAMBDA_MAX, 0.0, 4.0 * math.ulp(_LAMBDA_MAX))
    log_bound = spec.w_s * (kappa * lam_star + math.log(tilted(lam_star)[0]))
    return ChernoffResult(bound=min(math.exp(log_bound), 1.0), lambda_star=lam_star, feasible=True)


def _chernoff_depth2(a0: float, a1: float, a2: float, spec: SessionSpec) -> ChernoffResult:
    """Closed-form Chernoff bound for the law (a0, a1, a2) of V in {0, 1, 2}.

    lambda* tilts the law to q_m ~ a_m exp(-lambda* m) with mean kappa, and the bound is exp(-w_s D),
    D = sum over q_m > 0 of q_m log(q_m / a_m), the relative entropy (Dembo & Zeitouni, sec. 2.2).
    q solves q1 + 2 q2 = kappa and q0 q2 / q1^2 = a0 a2 / a1^2, a quadratic whose roots are written
    with no subtraction.  At a2 = 0, q = (1 - kappa, kappa) and D is the paper's OMA exponent.
    """
    kappa = spec.kappa
    if a1 + 2.0 * a2 <= kappa:
        return _INFEASIBLE
    if a0 <= 0.0:  # no finite lambda*: chernoff_generic's limit
        return chernoff_generic(PacketCountDistribution((a0, a1, a2)), spec)
    slack = (spec.w_s - spec.w) / spec.w_s  # 1 - kappa, rounded once
    cross = 4.0 * kappa * (1.0 + slack) * a0 * a2
    root = math.sqrt((slack * a1) ** 2 + cross)  # of the quadratic's discriminant
    q1 = kappa * (1.0 + slack) * a1 / (a1 + root)
    q2 = kappa * cross / (2.0 * (a1 + root) * (root + slack * a1))
    divergence = sum(q * math.log(q / a) for q, a in ((slack + q2, a0), (q1, a1), (q2, a2)) if q > 0.0)
    bound = min(math.exp(-spec.w_s * divergence), 1.0)
    return ChernoffResult(bound=bound, lambda_star=math.log((slack * a1 + root) / (2.0 * kappa * a0)), feasible=True)


def chernoff_oma(alpha1_bar: float, spec: SessionSpec) -> ChernoffResult:
    """Closed-form Chernoff bound for OMA (per-slot success probability alpha1_bar): the depth-2 form at a2 = 0."""
    if not 0.0 <= alpha1_bar <= 1.0:
        raise ValueError(f"alpha1_bar must be in [0,1], got {alpha1_bar}")
    return _chernoff_depth2(1.0 - alpha1_bar, alpha1_bar, 0.0, spec)


def chernoff_noma2(dist: PacketCountDistribution, spec: SessionSpec) -> ChernoffResult:
    """Closed-form Chernoff bound for depth-2 NOMA (V in {0,1,2}); chernoff_oma's at a2 = 0."""
    if dist.max_packets != 2:
        raise ValueError(f"chernoff_noma2 needs a depth-2 distribution, got max {dist.max_packets}")
    return _chernoff_depth2(*dist.probs, spec)


# --- NOMA factor ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
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


def _frexp_power(a: float, n: int) -> tuple[float, int]:
    """a**n as (mantissa, binary exponent), for any n and any a > 0.

    a = m 2**e, and m**c is one math.pow, within an ulp, for the largest c that keeps it
    normal.  Binary powering of that piece multiplies its error by n / c, not by n.
    """
    m, e = math.frexp(a)
    c = min(n, int(1000.0 / -math.log2(m)))  # m in [0.5, 1), so c >= 1000
    q, r = divmod(n, c)
    result, result_e = math.frexp(math.pow(m, r))
    result_e += e * n
    piece, piece_e = math.frexp(math.pow(m, c))
    while q:
        if q & 1:
            result, shift = math.frexp(result * piece)
            result_e += shift + piece_e
        q >>= 1
        piece, shift = math.frexp(piece * piece)
        piece_e = 2 * piece_e + shift
    return result, result_e


def log_session_error(dist: PacketCountDistribution, spec: SessionSpec) -> float:
    """Natural log of the exact Pr(sum of per-slot counts over w_s slots < w), for any law.

    For iid counts the session error is the sum of the first w coefficients c_k of P(z)**w_s,
    P(z) = sum_m alpha_m z**m.  J.C.P. Miller's recurrence for the power of a power series
    (Knuth, TAOCP vol. 2, sec. 4.7) gives them in O(w L) from c_0 = alpha_0**w_s:
    k alpha_0 c_k = sum_{i=1..L} ((w_s + 1) i - k) alpha_i c_{k-i}, every weight positive for
    k < w <= w_s, so nothing cancels.  Each step adds its L terms to 0.0 in the order i = 1..L,
    from plain lists of the factors (w_s + 1) i and alpha_i and of the last L coefficients, newest
    first, so one loop serves every L.  Those coefficients and their running sum are kept
    scaled by a common power of two, moved by ldexp whenever the newest coefficient passes hi,
    which is set from alpha_0 so that the next division by k alpha_0 stays finite.  The sum is
    therefore right far below the double range, where exp() of the result underflows.  Dividing
    by k alpha_0 at every step, rather than multiplying by a precomputed alpha_i / alpha_0,
    keeps rounding from growing like k eps.  Where the coefficients grow by more than 2**256 a
    step (alpha_0 tiny, e.g. (1e-300, 1e-300, 0.5, 0.5)), the older window entries would drop
    into the subnormals, so z = 2**-j y first brings the growth down to about 2**256, a
    Newton-polygon scaling (Gaubert & Sharify, 2009): the entries become alpha_i 2**(lift - j i),
    alpha_0 near 1, and the running sum takes 2**-j a step; other laws have j = 0.  A sparse law
    spanning more than the double range above a subnormal alpha_0 can still lose coefficients.
    The entries of -1e-12 that the law admits are clamped to 0; alpha_0 = 0 gives -inf.  Where p lies
    within a few ulps of 1, ln p carries an absolute error of about an ulp, not a relative one (pinned
    by the strict xfail test_log_session_error_is_not_relative_in_ln_p_near_p_one in test_properties).
    """
    w, n = spec.w, spec.w_s
    a0, *rest = (max(p, 0.0) for p in dist.probs)
    if a0 == 0.0:
        return -math.inf
    growth = (math.ceil((math.log2(a) - math.log2(a0)) / i) for i, a in enumerate(rest, start=1) if a > 0.0)
    j = max(0, max(growth, default=0) - 256)
    width = ((n + 1) * len(rest)).bit_length()
    lift = min(-math.frexp(a0)[1], 1020 - width) if j else 0  # so that (n + 1) L alpha_i 2**(lift - j) is finite
    m0, scale = _frexp_power(a0, n)  # c_0 = m0 * 2**scale; the recurrence is homogeneous, so 2**lift leaves it
    a0 = math.ldexp(a0, lift)
    ns = [float((n + 1) * i) for i in range(1, len(rest) + 1)]  # the recurrence's factors, i = 1..L
    alphas = [math.ldexp(a, lift - j * i) for i, a in enumerate(rest, 1)]
    over = max(0, math.frexp(sum(alphas))[1] - 1)  # scaled entries may sum past 1
    hi_exp = math.frexp(a0)[1] + 1017 - width - over  # so t / (k a0) <= 2**1019
    hi = math.ldexp(1.0, hi_exp)
    target = (hi_exp - 1022) // 2  # a rescaled window has as much room above as down to the subnormals
    scale -= target
    acc = math.ldexp(m0, target)
    window = [acc] + [0.0] * (len(ns) - 1)  # c_{k-1}, c_{k-2}, ..., scaled; c_{k-i} = 0 for k < i adds exactly 0.0
    depths = range(len(ns))  # one index per term: a zip of the three lists, built at every step, cost more than the sum
    for k in range(1, w):
        t = 0.0
        for i in depths:
            t += (ns[i] - k) * alphas[i] * window[i]
        v = t / (k * a0)
        if v > hi:
            shift = math.frexp(v)[1] - target
            window = [math.ldexp(c, -shift) for c in window]
            v, acc, scale = math.ldexp(v, -shift), math.ldexp(acc, -shift), scale + shift
        window.insert(0, v)
        window.pop()
        if j:
            acc = math.ldexp(acc, -j)
        acc += v
    m, e = math.frexp(acc)  # log(acc) + scale ln 2 would round differently where the rescales fall
    return min(math.log(m) + (scale + e + j * (w - 1)) * _LOG2, 0.0)


def exact_session_error(dist: PacketCountDistribution, spec: SessionSpec) -> float:
    """Exact session error, exp of log_session_error (0.0 below the double range)."""
    return math.exp(log_session_error(dist, spec))


def oma_session_error_binomial(alpha1_bar: float, spec: SessionSpec) -> float:
    """Exact OMA session error from the binomial tail; independent cross-check.

    Pr(Binomial(w_s, alpha1_bar) < w), evaluated as the regularized incomplete
    beta function I_{1-alpha1_bar}(w_s - w + 1, w), which stays finite for any
    w_s where the term-by-term binomial sum overflows.
    """
    if not 0.0 <= alpha1_bar <= 1.0:
        raise ValueError(f"alpha1_bar must be in [0,1], got {alpha1_bar}")
    from scipy import special  # imported on first use, as in x_k1

    return float(special.betainc(spec.w_s - spec.w + 1, spec.w, 1.0 - alpha1_bar))
