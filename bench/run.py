"""Benchmark harness for smddc.

Run from the root of a source checkout:

    python3 bench/run.py --workload mc-k3 --seed 1 --seconds 25 --trace 0

The package is imported from the checkout's `src/`; nothing is installed.
Workloads (see workloads.py and BENCHMARK.json): mc-k3, sweep-k8,
analytic-grid.

--trace 0 measures the end-to-end metrics with tracing off: set-up time of a
fresh interpreter (median of several), throughput over a closed loop that
runs whole blocks of requests for --seconds (median of the block rates), and
peak RSS.  --trace 1 runs a fixed list of blocks twice, untraced and then
traced (spans.py), and reports the per-layer split; its amount of work does
not depend on --seconds, so its counts repeat exactly from run to run.

Every output is checked (workloads.py).  A human-readable report with each
metric's unit and sample count goes to stderr, a results file with
provenance to bench/results/, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `correct` is false when an
output failed its check; `failed` also counts operations that raised.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Set-up: a fresh interpreter imports the package and the CLI, then makes
# one small warm-up call.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import smddc, smddc.cli; "
    "smddc.cli.main(['simulate', '--gamma', '4', '--omega', '20', '--k', '3', "
    "'--policy', 'sdo', '--trials', '1000'])"
)


def import_smddc():
    if not os.path.isfile(os.path.join(SRC, "smddc", "__init__.py")):
        sys.exit(f"error: no smddc sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import smddc
    import smddc.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(smddc.__file__))) != SRC:
        sys.exit(f"error: smddc was imported from {smddc.__file__}, not from {SRC}")
    return smddc


def measure_setup():
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC],
        cwd=ROOT, check=True, timeout=120,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )  # fmt: skip
    return time.perf_counter() - start


def peak_rss_mb():
    """Larger of this process's peak RSS and that of its largest waited-for child."""
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib * 1024 / 1e6


def run_block(w, b, log):
    """Run block b request by request; append (req, output, seconds); return points/s."""
    reqs = w.block(b)
    start = time.perf_counter()
    for req in reqs:
        t = time.perf_counter()
        try:
            out = w.run(req)
        except Exception as exc:  # a raising request is a failed operation, not a crash
            traceback.print_exc()
            out = exc
        log.append((req, out, time.perf_counter() - t))
    return sum(w.points(r) for r in reqs) / (time.perf_counter() - start)


def outcomes(w, log):
    result = []
    for req, out, _ in log:
        if isinstance(out, Exception):
            result += ["raised"] * w.ops(req)
            continue
        try:
            result += w.check(req, out)
        except Exception:  # an output the check cannot even parse is wrong
            traceback.print_exc()
            result += ["wrong"] * w.ops(req)
    return result


def request_list_op(w):
    """The generator must give the same request list for the same seed."""
    return "ok" if [w.block(b) for b in range(4)] == [w.block(b) for b in range(4)] else "wrong"


def measure_end_to_end(w, scale, seconds):
    w.warm_up()
    setup, log, rates = [], [], []
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < seconds:
        # Set-up samples are spread over the run, between blocks, so that
        # they see the same mix of machine speeds as the throughput does.
        if len(setup) < scale.setup_reps and time.perf_counter() - start >= len(setup) * seconds / scale.setup_reps:
            setup.append(measure_setup())
        rates.append(run_block(w, len(rates), log))
    while len(setup) < scale.setup_reps:
        setup.append(measure_setup())
    # The overall rate, not the median block rate: on a shared 2-vCPU Xeon
    # VM the CPU speed swung by up to 1.6x over tens of seconds, and the
    # overall rate was the steadier of the two from run to run.
    busy = sum(dt for _, _, dt in log)
    points = sum(w.points(r) for r, _, _ in log)
    sessions = sum(w.sessions(r) for r, _, _ in log)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "points_per_s": (points / busy, "1/s", len(rates)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    extra = {"sessions_per_s": (sessions / busy, "1/s", len(log))} if sessions else {}
    samples = {"setup_s": setup, "block_points_per_s": rates}
    return metrics, extra, samples, log


def _ratio(a, b):
    return a / b if b else 0.0


def measure_layers(w, scale, smddc, spans):
    blocks = range(scale.trace_blocks[w.name])
    # A whole block first, so that neither pass pays the first large
    # allocations and the two passes compare like with like.
    run_block(w, 0, [])
    tr = spans.Tracer()
    untraced, traced = [], []
    untraced_wall = traced_wall = 0.0
    for i, b in enumerate(blocks):
        # ABBA order, so that drift in machine speed falls on both passes alike.
        for on in (False, True) if i % 2 == 0 else (True, False):
            if on:
                with spans.tracing(smddc, tr):
                    start = time.perf_counter()
                    run_block(w, b, traced)
                    traced_wall += time.perf_counter() - start
            else:
                start = time.perf_counter()
                run_block(w, b, untraced)
                untraced_wall += time.perf_counter() - start

    scaling_eff, extra_ops = w.scaling() if w.name == "sweep-k8" else (0.0, [])

    c = tr.counters
    kernels = {p: tr.total(f"policies.{p}") for p in ("oma", "sym", "sdo", "fo")}
    draw = tr.total("channel.draw")
    m = {
        "channel.draw_s": (draw, "s"),
        "channel.variates": (c["channel.variates"], "count"),
        "channel.ns_per_variate": (_ratio(draw * 1e9, c["channel.variates"]), "ns"),
        **{f"policies.kernel_s.{p}": (t, "s") for p, t in kernels.items()},
        "policies.slots": (c["policies.slots"], "count"),
        "policies.ns_per_slot": (_ratio(sum(kernels.values()) * 1e9, c["policies.slots"]), "ns"),
        "policies.bytes_in": (c["policies.bytes_in"], "B-computed"),
        "simulator.self_s": (
            sum(tr.self_time(f"simulator.{s}") for s in ("estimate_session_error", "estimate_alphas", "worker_task")),
            "s",
        ),
        "simulator.batches": (c["simulator.batches"], "count"),
        "simulator.pool_starts": (c["simulator.pool_starts"], "count"),
        "simulator.pool_overhead_s": (tr.total("simulator.pool") - tr.pool_share_s, "s"),
        "simulator.scaling_eff": (scaling_eff, "ratio"),
        "simulator.estimate_alphas_s": (tr.total("simulator.estimate_alphas"), "s"),
        "analytic.exact_session_error_s": (tr.total("analytic.exact_session_error"), "s"),
        "analytic.chernoff_generic_s": (tr.total("analytic.chernoff_generic"), "s"),
        "analytic.beta2_sdo_s": (tr.total("analytic.beta2_sdo"), "s"),
        "analytic.calls": (sum(n for name, (n, _, _) in tr.spans.items() if name.startswith("analytic.")), "count"),
        "cli.self_s": (tr.self_time("cli.main"), "s"),
        "trace_overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        **{f"wall.{mod}_s": (tr.wall[mod], "s") for mod in ("channel", "policies", "simulator", "analytic", "cli")},
        "wall.traced_s": (traced_wall, "s"),
        "wall.unattributed_s": (traced_wall - sum(tr.wall.values()), "s"),
    }
    for policy in ("oma", "sym3", "sdo", "fo"):
        rates = [w.sessions(req) / dt for req, _, dt in untraced if w.name == "mc-k3" and req[0] == policy]
        m[f"sessions_per_s.{policy}"] = (statistics.median(rates) if rates else 0.0, "1/s")
    metrics = {name: (value, unit, 1) for name, (value, unit) in m.items()}
    spans_table = {name: dict(zip(("count", "total_s", "self_s"), rec)) for name, rec in sorted(tr.spans.items())}
    return metrics, spans_table, untraced + traced, extra_ops


def _read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def provenance(smddc, w, args):
    import numpy
    import scipy

    gen = smddc.channel.RngStream(0).generator
    cpuinfo = _read("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")]
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        indexes = sorted(i for i in os.listdir(cache_dir) if i.startswith("index"))
    except OSError:
        indexes = []
    for index in indexes:
        level, kind = _read(f"{cache_dir}/{index}/level"), _read(f"{cache_dir}/{index}/type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(f"{cache_dir}/{index}/size")
    first = w.block(0)[0]
    return {
        "smddc": smddc.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "bit_generator": f"{type(gen.bit_generator).__name__} via {type(gen.bit_generator.seed_seq).__name__}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else "unknown",
        "caches": caches,
        "workload": w.name,
        "workload_seed": args.seed,
        "batch_size": smddc.simulator.DEFAULT_BATCH_SIZE,
        "workers": w.workers,
        "sessions_per_call": w.sessions(first) // w.points(first),
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mc-k3", "sweep-k8", "analytic-grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    smddc = import_smddc()
    import spans
    import workloads

    scale = workloads.SMOKE if args.smoke else workloads.Scale()
    results_dir = os.path.join(BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=results_dir) as workdir:
        w = workloads.WORKLOADS[args.workload](smddc, scale, args.seed, workdir)
        ops = [request_list_op(w)]
        if args.trace:
            metrics, spans_table, log, extra_ops = measure_layers(w, scale, smddc, spans)
            extra, samples = {}, {}
            ops += extra_ops
        else:
            metrics, extra, samples, log = measure_end_to_end(w, scale, args.seconds)
            spans_table = {}
        ops += outcomes(w, log)

    wrong, raised = ops.count("wrong"), ops.count("raised")
    attempted, failed = len(ops), wrong + raised
    extra["failed_frac"] = (failed / attempted, "ratio", attempted)
    print(f"{w.name} seed={args.seed} trace={args.trace}: {attempted} operations, "
          f"{wrong} wrong, {raised} raised", file=sys.stderr)  # fmt: skip
    for name, (value, unit, n) in {**metrics, **extra}.items():
        print(f"  {name:34s} {value:>16.6g} {unit:10s} n={n}", file=sys.stderr)

    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    record = {
        "provenance": provenance(smddc, w, args),
        "result": result,
        "metrics": {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in {**metrics, **extra}.items()},
        "samples": samples,
        "spans": spans_table,
    }
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
