"""The benchmark's workloads: request generation, execution and output checks.

Every workload is a closed loop with one client: a request starts only when
the previous one has returned.  Requests come in blocks; a block's requests
depend only on (workload seed, block index), so the same seed always gives
the same request list.  The program is driven through its public API, looked
up at call time (`smddc.simulator.estimate_session_error`, `smddc.cli.main`,
`smddc.analytic.*`), so the wrappers in `spans.py` see every call.

Checks never use the package's Wald `ci95_halfwidth` (it is +-0 when no
error is seen): a Monte Carlo estimate is checked with a Clopper-Pearson
interval at confidence 1 - 1e-6, against the exact dynamic program where the
packet-count law has a closed form (OMA, SDO, symmetric L=2) and against
law-level orderings otherwise (p_fo <= p_sdo, p_sym3 <= p_sym2).  With a
few thousand checks over a full set of benchmark runs, that confidence keeps
the chance of any false alarm under 1%.

Each request yields one outcome per operation: "ok", "wrong" (an output
failed its check) or "raised" (the program raised).
"""

import contextlib
import csv
import hashlib
import io
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

CP_ALPHA = 1e-6
# Below the smallest normal double a probability carries no relative
# accuracy, so comparisons treat such values as zero.
TINY = sys.float_info.min
GAMMA, OMEGA, W = 4.0, 20.0, 50


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run; SMOKE is for the benchmark's self-test."""

    mc_trials: int = 100_000  # sessions per mc-k3 call (2 batches)
    sweep_trials: int = 100_000  # sessions per sweep point (2 batches, one per worker)
    sweep_values: str = "50,55"  # W_S values of one sweep request
    grid_strata: tuple = ((50, 4), (500, 4), (5000, 2))  # (W, points) in one grid block
    trace_blocks: dict = field(default_factory=lambda: {"mc-k3": 2, "sweep-k8": 2, "analytic-grid": 4})
    scaling_trials: int = 200_000
    scaling_batch: int = 50_000
    setup_reps: int = 7


SMOKE = Scale(
    mc_trials=2_000,
    sweep_trials=50_001,
    sweep_values="55",
    grid_strata=((50, 2), (500, 1), (5000, 1)),
    trace_blocks={"mc-k3": 1, "sweep-k8": 1, "analytic-grid": 1},
    scaling_trials=4_000,
    scaling_batch=2_000,
    setup_reps=1,
)


def derive_seed(seed, *path):
    """A 32-bit seed that depends only on (seed, *path)."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def clopper_pearson(errors, n, alpha=CP_ALPHA):
    lo = 0.0 if errors == 0 else float(stats.beta.ppf(alpha / 2, errors, n - errors + 1))
    hi = 1.0 if errors == n else float(stats.beta.ppf(1 - alpha / 2, errors + 1, n - errors))
    return lo, hi


def bound_holds(bound, exact):
    return bound >= exact * (1 - 1e-9) or exact < TINY


def close(a, b, rel):
    return math.isclose(a, b, rel_tol=rel, abs_tol=TINY)


def _verdict(*conditions):
    return "ok" if all(conditions) else "wrong"


def exact_p_se(smddc, k, variant, w_s):
    """Exact session error by the DP for a closed-form law at (GAMMA, OMEGA, W)."""
    A = smddc.analytic
    rho1, rho2 = smddc.power_ladder.build_ladder(GAMMA, 1.0, 2).levels
    betas = [A.beta1(rho1, OMEGA)]
    if variant == "sdo":
        betas.append(A.beta2_sdo(rho1, rho2, OMEGA, k))
    elif variant == "sym2":
        betas.append(A.beta2_symmetric(rho1, rho2, OMEGA))
    return A.exact_session_error(A.alphas_from_betas(betas), A.SessionSpec(W, w_s))


class McK3:
    """Repeated estimate_session_error calls, workers=1, at the paper point, K=3."""

    name = "mc-k3"
    workers = 1

    def __init__(self, smddc, scale, seed, workdir):
        P = smddc.policies.PolicyKind
        self.smddc, self.scale, self.seed = smddc, scale, seed
        self.policies = {"oma": P.oma(), "sym3": P.symmetric(3), "sdo": P.sdo(), "fo": P.fo()}
        self.config = smddc.config.SystemConfig(gamma=GAMMA, omega=OMEGA, k=3, depth=3, w=W, w_s=55)
        self.exact = {v: exact_p_se(smddc, 3, v, 55) for v in ("oma", "sym2", "sdo")}

    def block(self, b):
        return [(p, derive_seed(self.seed, b, i)) for i, p in enumerate(self.policies)]

    def warm_up(self):
        for policy in self.policies.values():
            self.smddc.simulator.estimate_session_error(policy, self.config, 1_000, seed=0)

    def run(self, req):
        policy, seed = req
        return self.smddc.simulator.estimate_session_error(
            self.policies[policy], self.config, self.scale.mc_trials, seed=seed, workers=1
        )

    def points(self, req):
        return 1

    def ops(self, req):
        return 1

    def sessions(self, req):
        return self.scale.mc_trials

    def check(self, req, out):
        lo, hi = clopper_pearson(out.errors, out.trials)
        sane = out.trials == self.scale.mc_trials and out.seed == req[1]
        law = {
            "oma": lo <= self.exact["oma"] <= hi,
            "sdo": lo <= self.exact["sdo"] <= hi,
            "sym3": lo <= self.exact["sym2"],
            "fo": lo <= self.exact["sdo"],
        }[req[0]]
        return [_verdict(sane, law)]


class SweepK8:
    """`smddc sweep` in-process: K=8, SDO and FO, 2 workers, a few W_S values."""

    name = "sweep-k8"
    workers = 2

    def __init__(self, smddc, scale, seed, workdir):
        self.smddc, self.scale, self.seed = smddc, scale, seed
        self.out_path = os.path.join(workdir, "sweep.csv")
        self.values = [int(v) for v in scale.sweep_values.split(",")]
        self.exact = {ws: exact_p_se(smddc, 8, "sdo", ws) for ws in self.values}
        self.digests = {}

    def block(self, b):
        # Two request seeds, alternating, so every later request repeats an
        # earlier one and its CSV bytes can be compared.
        return [derive_seed(self.seed, b % 2)]

    def argv(self, seed, trials, workers):
        return [
            "sweep", "--gamma", str(GAMMA), "--omega", str(OMEGA), "--k", "8", "--w", str(W),
            "--policy", "sdo,fo", "--workers", str(workers), "--axis", "w_s",
            "--values", self.scale.sweep_values, "--trials", str(trials), "--seed", str(seed),
            "--out", self.out_path,
        ]  # fmt: skip

    def _sweep(self, argv):
        with contextlib.redirect_stderr(io.StringIO()):  # the CLI's runtime line
            rc = self.smddc.cli.main(argv)
        with open(self.out_path, "rb") as f:
            return rc, f.read()

    def warm_up(self):
        self._sweep(self.argv(0, 1_000, 1))

    def run(self, seed):
        return self._sweep(self.argv(seed, self.scale.sweep_trials, self.workers))

    def points(self, req):
        return 2 * len(self.values)

    def ops(self, req):
        return self.points(req)

    def sessions(self, req):
        return self.points(req) * self.scale.sweep_trials

    def scaling(self):
        """2-worker over twice the 1-worker session rate, FO at K=8; results must agree."""
        config = self.smddc.config.SystemConfig(gamma=GAMMA, omega=OMEGA, k=8, w=W, w_s=55)
        times, errors = {}, {}
        for workers in (1, 2):
            start = time.perf_counter()
            stats = self.smddc.simulator.estimate_session_error(
                self.smddc.policies.PolicyKind.fo(), config, self.scale.scaling_trials,
                seed=self.seed, workers=workers, batch_size=self.scale.scaling_batch,
            )  # fmt: skip
            times[workers] = time.perf_counter() - start
            errors[workers] = stats.errors
        return times[1] / (2 * times[2]), [_verdict(errors[1] == errors[2])]

    def check(self, seed, out):
        rc, data = out
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        outcomes = []
        if rc != 0 or len(rows) != self.points(seed):
            return ["wrong"] * self.points(seed)
        for row in rows:
            ws = int(row["w_s"])
            errors = round(float(row["p_hat"]) * self.scale.sweep_trials) if row["p_hat"] else -1
            sane = (
                row["error"] == ""
                and errors >= 0
                and int(row["trials"]) == self.scale.sweep_trials
                and int(row["seed"]) == seed
                and ws in self.exact
            )
            if not sane:
                outcomes.append("wrong")
                continue
            lo, hi = clopper_pearson(errors, self.scale.sweep_trials)
            ref = self.exact[ws]
            if row["policy"] == "sdo":
                outcomes.append(
                    _verdict(
                        lo <= ref <= hi,
                        close(float(row["exact_p_se"]), ref, 1e-9),
                        bound_holds(float(row["chernoff_bound"]), ref),
                    )
                )
            else:
                outcomes.append(_verdict(row["policy"] == "fo", lo <= ref))
        digest = hashlib.sha256(data).hexdigest()
        if seed in self.digests:  # a repeat of an earlier request: bytes must match
            outcomes.append(_verdict(self.digests[seed] == digest))
        else:
            self.digests[seed] = digest
        return outcomes


class AnalyticGrid:
    """The closed-form chain per grid point: no random numbers, no simulator."""

    name = "analytic-grid"
    workers = 1

    def __init__(self, smddc, scale, seed, workdir):
        self.smddc, self.scale, self.seed = smddc, scale, seed
        self.rho1, self.rho2 = smddc.power_ladder.build_ladder(GAMMA, 1.0, 2).levels

    def block(self, b):
        rng = np.random.default_rng([self.seed, b])
        ws = [w for w, n in self.scale.grid_strata for _ in range(n)]
        ks = rng.integers(2, 65, size=len(ws))
        return [(int(k), int(w)) for k, w in zip(ks, rng.permutation(ws))]

    def warm_up(self):
        self.run((3, 50))

    def _chain2(self, b1, b2, spec):
        A = self.smddc.analytic
        dist = A.alphas_from_betas([b1, b2])
        closed = A.chernoff_noma2(dist, spec)
        generic = A.chernoff_generic(dist, spec)
        factor = A.noma_factor(dist.probs[0], dist.probs[2])
        exact = A.exact_session_error(dist, spec)
        return closed, generic, factor, exact

    def run(self, req):
        """One point; each policy's chain is an operation, its exception kept."""
        A = self.smddc.analytic
        k, w = req
        spec = A.SessionSpec(w, math.ceil(1.1 * w))
        b1 = A.beta1(self.rho1, OMEGA)
        out = {}
        try:
            dist = A.alphas_from_betas([b1])
            bound = A.chernoff_oma(b1, spec)
            exact = A.exact_session_error(dist, spec)
            out["oma"] = (bound, exact, A.oma_session_error_binomial(b1, spec))
        except (ArithmeticError, ValueError) as exc:
            out["oma"] = exc
        for name, b2 in (
            ("sym2", lambda: A.beta2_symmetric(self.rho1, self.rho2, OMEGA)),
            ("sdo", lambda: A.beta2_sdo(self.rho1, self.rho2, OMEGA, k)),
        ):
            try:
                out[name] = self._chain2(b1, b2(), spec)
            except (ArithmeticError, ValueError) as exc:
                out[name] = exc
        return out

    def points(self, req):
        return 1

    def ops(self, req):
        return 3

    def sessions(self, req):
        return 0

    def check(self, req, out):
        outcomes = []
        for name in ("oma", "sym2", "sdo"):
            res = out[name]
            if isinstance(res, Exception):
                outcomes.append("raised")
            elif name == "oma":
                bound, exact, binomial = res
                outcomes.append(_verdict(close(exact, binomial, 1e-9), bound_holds(bound.bound, exact)))
            else:
                closed, generic, factor, exact = res
                outcomes.append(
                    _verdict(
                        bound_holds(closed.bound, exact),
                        bound_holds(generic.bound, exact),
                        closed.feasible == generic.feasible,
                        close(closed.bound, generic.bound, 1e-6),
                        0.0 < factor.eta <= 1.0,
                    )
                )
        return outcomes


WORKLOADS = {w.name: w for w in (McK3, SweepK8, AnalyticGrid)}
