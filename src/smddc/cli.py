"""Command-line experiment driver: single evaluations and parameter sweeps.

Emits figure-ready CSV or JSON data series; plotting is left to external
tools.  Data goes to stdout (or --out), diagnostics such as runtimes go to
stderr, and data payloads are byte-identical across reruns with the same
flags and seed.
"""

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict, replace

from . import analytic
from .config import SystemConfig, db_to_linear
from .policies import PolicyKind
from .power_ladder import build_ladder, sinr_at_level
from .simulator import estimate_alphas, estimate_session_error, estimate_session_error_curves

MAX_RANGE_POINTS = 10**6


def _parse_values(text: str, as_int: bool):
    """Parse a sweep value list: comma-separated or start:step:end (inclusive)."""
    conv = int if as_int else float
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:step:end, got {text!r}")
        start, step, end = (float(p) for p in parts)
        if not all(math.isfinite(x) for x in (start, step, end)):
            raise ValueError(f"range must be finite, got {text!r}")
        if step <= 0:
            raise ValueError("range step must be positive")
        if round(start + step, 12) == round(start, 12):  # each point is rounded to 12 digits below
            raise ValueError(f"range step {step!r} is lost when rounded to 12 digits, got {text!r}")
        span = (end - start) / step
        if span == math.inf:
            raise ValueError(f"range {text!r} holds more than {MAX_RANGE_POINTS} values")
        count = math.floor(max(span, -1.0) + 1e-9) + 1  # floor(-inf) would raise OverflowError
        if count < 1:
            raise ValueError(f"range {text!r} holds no value")
        if count > MAX_RANGE_POINTS:
            raise ValueError(f"range {text!r} holds {count} values, more than {MAX_RANGE_POINTS}")
        values = []
        for i in range(count):
            value = round(start + i * step, 12)
            if as_int and not value.is_integer():
                raise ValueError(f"range value {value} is not an integer")
            values.append(conv(value))
        return values
    values = [conv(p) for p in text.split(",")]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"values must be finite, got {text!r}")
    return values


def _build_config(args) -> tuple[SystemConfig, list[PolicyKind]]:
    """The scenario and the policies the flags name; a sweep checks each point's k itself, a ladder uses no policy."""
    gamma = db_to_linear(args.gamma_db) if args.gamma_db is not None else args.gamma
    omega = db_to_linear(args.omega_db) if args.omega_db is not None else args.omega
    if gamma is None or omega is None:
        raise ValueError("gamma and omega are required (linear or dB)")
    if not all(math.isfinite(x) for x in (gamma, omega, args.n0)):
        raise ValueError("gamma, omega and n0 must be finite")
    names = [name.strip() for name in args.policy.split(",")] if args.command == "sweep" else [args.policy]
    policies = [PolicyKind.named(name, args.depth) for name in names]
    config = SystemConfig(gamma=gamma, omega=omega, n0=args.n0, k=args.k, depth=args.depth, w=args.w, w_s=args.ws)
    return config, policies


def _config_fields(config: SystemConfig, args) -> dict:
    return {**asdict(config), "policy": args.policy, "trials": args.trials, "seed": args.seed}


def _analytic_record(policy: PolicyKind, config: SystemConfig, trials: int, seed: int, laws: dict) -> dict:
    """All analytic quantities for one configuration.

    Closed forms cover OMA, symmetric depth <= 2 (depth 1 is OMA), and SDO;
    for symmetric depth > 2 and FO the packet-count law is estimated by
    simulation from (trials, seed) and fed to the generic Chernoff
    minimizer (no exact value is reported then, since the law itself is
    an estimate).  The law does not depend on w_s, so `laws` keeps each
    estimate by (policy, config with w_s = w) for the caller's later
    points.  The exact session error comes with its log10, which stays
    finite below the double range where exact_p_se reads 0.0; it is None
    when the session cannot fail (Pr(V = 0) = 0).
    """
    ladder = config.ladder_for(policy)
    spec = config.session_spec()
    b1 = analytic.beta1(ladder.levels[0], config.omega)
    record = {"beta1": b1, **dict.fromkeys(("beta2", "exact_p_se", "log10_exact_p_se", "eta", "z_star"))}

    closed_form = policy.variant != "fo" and policy.depth <= 2
    if not closed_form:
        key = (policy, replace(config, w_s=config.w))
        if key not in laws:
            laws[key] = estimate_alphas(policy, config, trials, seed=seed)
        dist = laws[key]
        cb = analytic.chernoff_generic(dist, spec)
    elif policy.depth == 1:
        dist = analytic.alphas_from_betas([b1])
        cb = analytic.chernoff_oma(b1, spec)
    else:
        if policy.variant == "sdo":
            b2 = analytic.beta2_sdo(ladder.levels[0], ladder.levels[1], config.omega, config.k)
        else:
            b2 = analytic.beta2_symmetric(ladder.levels[0], ladder.levels[1], config.omega)
        record["beta2"] = b2
        dist = analytic.alphas_from_betas([b1, b2])
        cb = analytic.chernoff_noma2(dist, spec)
        nf = analytic.noma_factor(dist.probs[0], dist.probs[2])
        record["eta"] = nf.eta
        record["z_star"] = nf.z_star

    record["alphas"] = list(dist.probs)
    record["mean_packets"] = analytic.mean_packets(dist)
    record["chernoff_bound"] = cb.bound
    record["chernoff_feasible"] = cb.feasible
    record["lambda_star"] = cb.lambda_star if cb.feasible and math.isfinite(cb.lambda_star) else None
    if closed_form:
        record["exact_p_se"] = analytic.exact_session_error(dist, spec)
        # a second pass, ~20-25 us at W = 50 and L <= 2, so that bench/spans.py still times exact_session_error here
        log_p = analytic.log_session_error(dist, spec)
        record["log10_exact_p_se"] = log_p / math.log(10.0) if log_p > -math.inf else None
    return record


def cmd_ladder(config: SystemConfig, policies, args) -> int:
    ladder = build_ladder(config.gamma, config.n0, config.depth)
    if math.inf in ladder.levels:  # a policy treats an infinite level as unaffordable
        level = ladder.levels.index(math.inf) + 1
        raise ValueError(f"the received power of level {level} of {config.depth} overflows")
    rows = [
        {"level": l, "rho": rho, "sinr": sinr_at_level(ladder, l)}
        for l, rho in enumerate(ladder.levels, start=1)
    ]
    _emit(args, {"command": "ladder", "config": _config_fields(config, args), "rows": rows}, rows)
    return 0


def cmd_analytic(config: SystemConfig, policies, args) -> int:
    record = _analytic_record(policies[0], config, args.trials, args.seed, {})
    payload = {"command": "analytic", "config": _config_fields(config, args), "record": record}
    row = dict(record)
    row["alphas"] = ";".join(repr(a) for a in record["alphas"])
    _emit(args, payload, [row])
    return 0


def cmd_simulate(config: SystemConfig, policies, args) -> int:
    t0 = time.perf_counter()
    stats = estimate_session_error(policies[0], config, args.trials, seed=args.seed, workers=args.workers)
    elapsed = time.perf_counter() - t0
    row = {"policy": policies[0].variant, **asdict(stats)}
    _emit(args, {"command": "simulate", "config": _config_fields(config, args), "record": row}, [row])
    print(f"simulate: {args.trials} sessions in {elapsed:.2f} s", file=sys.stderr)
    return 0


def _apply_axis(config: SystemConfig, policy: PolicyKind, axis: str, value):
    """The (config, policy) of one sweep point; a depth above k raises k to the depth."""
    if axis != "depth":
        return replace(config, **{axis: value}), policy
    if policy.variant != "sym":
        raise ValueError("axis=depth requires the sym policy")
    return replace(config, k=max(config.k, value)), PolicyKind.symmetric(value)


_SWEEP_RESULT_KEYS = (
    "p_hat",
    "ci95_halfwidth",
    "mean_packets",
    "chernoff_bound",
    "chernoff_feasible",
    "exact_p_se",
    "eta",
    "error",
)


def cmd_sweep(config: SystemConfig, policies, args) -> int:
    """One row per value per policy; the rows of one scenario (the point config but w_s) share one draw."""
    if args.workers < 1:  # before any point's analytic record is computed
        raise ValueError(f"workers must be at least 1, got {args.workers}")
    values = _parse_values(args.values, as_int=args.axis in ("w_s", "k", "depth"))
    fields = {k: v for k, v in _config_fields(config, args).items() if k not in ("policy", "depth")}
    rows, laws = [], {}
    groups = {}  # scenario -> [(row, policy, w_s, analytic record)]
    t0 = time.perf_counter()
    for value in values:
        for policy in policies:
            row = {"axis": args.axis, "value": value, "policy": policy.variant, **fields}
            row["depth"] = policy.depth
            row[args.axis] = value
            row.update(dict.fromkeys(_SWEEP_RESULT_KEYS))
            rows.append(row)
            try:
                point, point_policy = _apply_axis(config, policy, args.axis, value)
                row["k"] = point.k
                record = _analytic_record(point_policy, point, args.trials, args.seed, laws)
            except (ValueError, ArithmeticError) as exc:
                row["error"] = str(exc)
                continue
            groups.setdefault(replace(point, w_s=point.w), []).append((row, point_policy, point.w_s, record))
    for scenario, members in groups.items():
        kinds = list(dict.fromkeys(policy for _, policy, _, _ in members))
        lengths = {w_s for _, _, w_s, _ in members}
        curves = estimate_session_error_curves(kinds, scenario, lengths, args.trials, args.seed, args.workers)
        for row, policy, w_s, record in members:
            stats = curves[w_s][kinds.index(policy)]
            record.update(p_hat=stats.p_hat, ci95_halfwidth=stats.ci95_halfwidth)
            row.update((key, record.get(key)) for key in _SWEEP_RESULT_KEYS)
    elapsed = time.perf_counter() - t0
    _emit(args, {"command": "sweep", "config": _config_fields(config, args), "rows": rows}, rows)
    print(f"sweep: {len(rows)} points in {elapsed:.2f} s", file=sys.stderr)
    return 0


def _emit(args, json_payload: dict, csv_rows: list[dict]):
    """Write the data to stdout or --out; --out is opened only here, so a command that fails leaves it as it was."""
    if args.format == "json":
        text = json.dumps(json_payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(csv_rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(csv_rows)
        text = buf.getvalue()
    if not args.out:
        sys.stdout.write(text)
        return
    with open(args.out, "w", newline="") as out:
        out.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smddc",
        description="Session error probability of OMA vs opportunistic NOMA "
        "for short-message delivery with a delay constraint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("ladder", "print the received-power ladder and per-level SINR"),
        ("analytic", "closed-form probabilities, Chernoff bound, exact session error, NOMA factor"),
        ("simulate", "Monte Carlo session error estimate"),
        ("sweep", "sweep one parameter axis, one row per value per policy"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--gamma", type=float, help="target SINR (linear)")
        p.add_argument("--gamma-db", type=float, help="target SINR in dB (overrides --gamma)")
        p.add_argument("--omega", type=float, help="power budget (linear)")
        p.add_argument("--omega-db", type=float, help="power budget in dB (overrides --omega)")
        p.add_argument("--n0", type=float, default=1.0, help="noise power (default 1)")
        p.add_argument("--k", type=int, default=2, help="number of channels/users")
        p.add_argument("--depth", type=int, default=1, help="NOMA depth L (sym policy)")
        p.add_argument("--w", type=int, default=50, help="packets per stream")
        p.add_argument("--ws", type=int, default=55, help="slots per session")
        p.add_argument("--policy", default="oma", help="oma|sym|sdo|fo (sweep accepts a comma-separated list)")
        p.add_argument("--trials", type=int, default=1_000_000, help="Monte Carlo sessions")
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")
        p.add_argument("--workers", type=int, default=1, help="worker threads, each taking the next batch")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write data to FILE instead of stdout")
    sweep = sub.choices["sweep"]
    sweep.add_argument("--axis", required=True, choices=("omega", "w_s", "gamma", "k", "depth"))
    sweep.add_argument("--values", required=True, help="comma list or start:step:end")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "ladder": cmd_ladder,
        "analytic": cmd_analytic,
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
    }[args.command]
    try:
        config, policies = _build_config(args)
        if args.trials < 1:
            raise ValueError(f"trials must be at least 1, got {args.trials}")
        if args.seed < 0:
            raise ValueError(f"seed must be non-negative, got {args.seed}")
        return handler(config, policies, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
