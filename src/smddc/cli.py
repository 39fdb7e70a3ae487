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
import sys
import time
from dataclasses import replace

from . import analytic
from .config import SystemConfig, db_to_linear
from .policies import PolicyKind
from .power_ladder import sinr_at_level
from .simulator import estimate_alphas, estimate_session_error


def _parse_policy(name: str, depth: int) -> PolicyKind:
    if name == "oma":
        return PolicyKind.oma()
    if name == "sym":
        return PolicyKind.symmetric(depth)
    if name == "sdo":
        return PolicyKind.sdo()
    if name == "fo":
        return PolicyKind.fo()
    raise ValueError(f"unknown policy {name!r}")


def _policy_name(policy: PolicyKind) -> str:
    return {"oma": "oma", "symmetric": "sym", "sdo": "sdo", "fo": "fo"}[policy.variant]


def _parse_values(text: str, as_int: bool):
    """Parse a sweep value list: comma-separated or start:step:end (inclusive)."""
    conv = int if as_int else float
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:step:end, got {text!r}")
        start, step, end = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        values = []
        v = start
        while v <= end + 1e-9:
            values.append(conv(round(v, 12)))
            v += step
        return values
    return [conv(p) for p in text.split(",")]


def _build_config(args) -> SystemConfig:
    gamma = db_to_linear(args.gamma_db) if args.gamma_db is not None else args.gamma
    omega = db_to_linear(args.omega_db) if args.omega_db is not None else args.omega
    if gamma is None or omega is None:
        raise ValueError("gamma and omega are required (linear or dB)")
    policy = _parse_policy(args.policy, args.depth)
    return SystemConfig(
        gamma=gamma,
        omega=omega,
        n0=args.n0,
        k=args.k,
        depth=args.depth,
        w=args.w,
        w_s=args.ws,
        policy=policy,
        trials=args.trials,
        seed=args.seed,
    )


def _config_fields(config: SystemConfig) -> dict:
    return {
        "gamma": config.gamma,
        "omega": config.omega,
        "n0": config.n0,
        "k": config.k,
        "depth": config.depth,
        "w": config.w,
        "w_s": config.w_s,
        "policy": _policy_name(config.policy),
        "trials": config.trials,
        "seed": config.seed,
    }


def _analytic_record(policy: PolicyKind, config: SystemConfig) -> dict:
    """All analytic quantities for one configuration.

    Closed forms cover OMA, symmetric depth <= 2, and SDO; for symmetric
    depth > 2 and FO the packet-count law is estimated by simulation and fed
    to the generic Chernoff minimizer (no exact DP value is reported then,
    since the law itself is an estimate).
    """
    ladder = config.ladder_for(policy)
    spec = config.session_spec()
    b1 = analytic.beta1(ladder.levels[0], config.omega)
    record = {"beta1": b1, "beta2": None, "exact_p_se": None, "eta": None, "z_star": None}

    if policy.variant == "oma":
        dist = analytic.alphas_from_betas([b1])
        cb = analytic.chernoff_oma(b1, spec)
    elif policy.variant == "sdo" or (policy.variant == "symmetric" and policy.depth == 2):
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
    else:
        dist = estimate_alphas(policy, config, config.trials, seed=config.seed)
        cb = analytic.chernoff_generic(dist, spec)

    record["alphas"] = list(dist.probs)
    record["mean_packets"] = analytic.mean_packets(dist)
    record["chernoff_bound"] = cb.bound
    record["chernoff_feasible"] = cb.feasible
    record["lambda_star"] = cb.lambda_star if cb.feasible else None
    if policy.variant in ("oma", "sdo") or (policy.variant == "symmetric" and policy.depth <= 2):
        record["exact_p_se"] = analytic.exact_session_error(dist, spec)
    return record


def cmd_ladder(config: SystemConfig, args, out) -> int:
    ladder = config.ladder_for(PolicyKind.symmetric(config.depth))
    rows = [
        {"level": l, "rho": rho, "sinr": sinr_at_level(ladder, l)}
        for l, rho in enumerate(ladder.levels, start=1)
    ]
    _emit(args, out, {"command": "ladder", "config": _config_fields(config), "rows": rows}, rows)
    return 0


def cmd_analytic(config: SystemConfig, args, out) -> int:
    record = _analytic_record(config.policy, config)
    payload = {"command": "analytic", "config": _config_fields(config), "record": record}
    row = dict(record)
    row["alphas"] = ";".join(repr(a) for a in record["alphas"])
    _emit(args, out, payload, [row])
    return 0


def cmd_simulate(config: SystemConfig, args, out) -> int:
    t0 = time.perf_counter()
    stats = estimate_session_error(
        config.policy, config, config.trials, seed=config.seed, workers=args.workers
    )
    elapsed = time.perf_counter() - t0
    print(f"simulate: {config.trials} sessions in {elapsed:.2f} s", file=sys.stderr)
    row = {
        "policy": _policy_name(config.policy),
        "trials": stats.trials,
        "errors": stats.errors,
        "p_hat": stats.p_hat,
        "ci95_halfwidth": stats.ci95_halfwidth,
        "seed": stats.seed,
    }
    _emit(args, out, {"command": "simulate", "config": _config_fields(config), "record": row}, [row])
    return 0


def _apply_axis(config: SystemConfig, policy: PolicyKind, axis: str, value):
    kw = {"policy": policy}
    if axis == "omega":
        kw["omega"] = float(value)
    elif axis == "gamma":
        kw["gamma"] = float(value)
    elif axis == "w_s":
        kw["w_s"] = int(value)
    elif axis == "k":
        kw["k"] = int(value)
    elif axis == "depth":
        if policy.variant != "symmetric":
            raise ValueError("axis=depth requires the sym policy")
        kw["depth"] = int(value)
        kw["policy"] = PolicyKind.symmetric(int(value))
        kw["k"] = max(config.k, int(value))
    else:
        raise ValueError(f"unknown sweep axis {axis!r}")
    return replace(config, **kw)


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


def cmd_sweep(config: SystemConfig, args, out) -> int:
    policies = [_parse_policy(p.strip(), config.depth) for p in args.policy.split(",")]
    values = _parse_values(args.values, as_int=args.axis in ("w_s", "k", "depth"))
    rows = []
    t0 = time.perf_counter()
    for value in values:
        for policy in policies:
            row = {"axis": args.axis, "value": value, "policy": _policy_name(policy)}
            row.update(
                {k: v for k, v in _config_fields(config).items() if k not in ("policy", "depth")}
            )
            row["depth"] = policy.depth
            row[args.axis] = value
            row.update(dict.fromkeys(_SWEEP_RESULT_KEYS))
            try:
                point = _apply_axis(config, policy, args.axis, value)
                row["k"] = point.k
                stats = estimate_session_error(
                    point.policy, point, point.trials, seed=point.seed, workers=args.workers
                )
                record = _analytic_record(point.policy, point)
                record.update(p_hat=stats.p_hat, ci95_halfwidth=stats.ci95_halfwidth)
                row.update((key, record.get(key)) for key in _SWEEP_RESULT_KEYS)
            except (ValueError, ArithmeticError) as exc:
                row["error"] = str(exc)
            rows.append(row)
    elapsed = time.perf_counter() - t0
    print(f"sweep: {len(rows)} points in {elapsed:.2f} s", file=sys.stderr)
    _emit(args, out, {"command": "sweep", "config": _config_fields(config), "rows": rows}, rows)
    return 0


def _emit(args, out, json_payload: dict, csv_rows: list[dict]):
    if args.format == "json":
        out.write(json.dumps(json_payload, indent=2, sort_keys=True))
        out.write("\n")
        return
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(csv_rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(csv_rows)
    out.write(buf.getvalue())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smddc",
        description="Session error probability of OMA vs opportunistic NOMA "
        "for short-message delivery with a delay constraint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("ladder", "print the received-power ladder and per-level SINR"),
        ("analytic", "closed-form probabilities, Chernoff bound, exact DP, NOMA factor"),
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
        p.add_argument(
            "--policy",
            default="oma",
            help="oma|sym|sdo|fo (sweep accepts a comma-separated list)",
        )
        p.add_argument("--trials", type=int, default=1_000_000, help="Monte Carlo sessions")
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")
        p.add_argument("--workers", type=int, default=1, help="parallel workers")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write data to FILE instead of stdout")
    sweep = sub.choices["sweep"]
    sweep.add_argument("--axis", required=True, choices=("omega", "w_s", "gamma", "k", "depth"))
    sweep.add_argument("--values", required=True, help="comma list or start:step:end")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            # validated per point; the base config just needs a first policy
            base_policy = args.policy.split(",")[0].strip()
            config_args = argparse.Namespace(**{**vars(args), "policy": base_policy})
            config = _build_config(config_args)
        else:
            config = _build_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    handler = {
        "ladder": cmd_ladder,
        "analytic": cmd_analytic,
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
    }[args.command]
    try:
        if args.out:
            with open(args.out, "w", newline="") as out:
                return handler(config, args, out)
        return handler(config, args, sys.stdout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
