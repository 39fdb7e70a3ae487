"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --seeds 1-10 --seconds 20 [--workloads mc-k3,sweep-k8] [--out FILE]

For every workload and end-to-end metric it prints the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.  With
--out it writes the same summary as JSON (bench/baseline.json holds the one
measured at the seed commit).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )  # fmt: skip
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in summary["seeds"]]
        failed = [f"{r['failed']}/{r['attempted']}" for r in runs]
        print(f"{workload}: correct={all(r['correct'] for r in runs)} failed/attempted per run={failed}")
        metrics = {}
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = s
            print(f"  {name:14s} median {s['median']:12.6g} {s['unit']:5s} q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]})")  # fmt: skip
        with open(os.path.join(BENCH_DIR, "results", f"{workload}-seed{summary['seeds'][0]}-trace0.json")) as f:
            provenance = json.load(f)["provenance"]
        summary["workloads"][workload] = {"provenance": provenance, "failed": failed, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
