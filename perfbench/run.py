#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload bulk|micro|wire --seed N \
        --seconds S --trace 0|1

builds the measuring program and a release `sam_serviced` from source
(into $CARGO_TARGET_DIR, default `.bench_build`), runs one workload, and
prints as the last line of stdout one JSON object with `correct`,
`attempted`, `failed` and `metrics`: every `end_to_end` metric of
BENCHMARK.json with `--trace 0`, every `per_layer` metric with `--trace 1`.
Result records (with the host), Chrome traces and self-time tables go to
`.bench_out/`. Exits non-zero, printing no result, when the repository's
crates are missing or a build fails, and non-zero when an output is wrong.

Steadiness report, N back-to-back runs on seeds FIRST..FIRST+N-1:

    python3 perfbench/run.py steady --workload micro --runs 10 [--first-seed 1]

prints per end-to-end metric the median, the quartiles, their spread as a
share of the median, and the worst deviation from the median, each against
the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = ".bench_out"
# A run must end within 180 s; the first one in a checkout may build
# for longer, which happens before this clock starts.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds both programs; returns (perfbench, sam_serviced) paths."""
    for crate in ("core", "service"):
        if not os.path.isfile(os.path.join(ROOT, "crates", crate, "Cargo.toml")):
            fail(f"crates/{crate} is missing: run from the root of a full checkout", 2)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "sam-service", "--bin", "sam_serviced"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(ROOT, target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "sam_serviced")


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_once(bins, workload, seed, seconds, trace):
    """Runs the measuring program once; returns (exit code, result dict)."""
    perfbench, serviced = bins
    cmd = [perfbench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--serviced", serviced, "--out-dir", OUT_DIR, "--rustc", rustc_version()]
    # Its own process group, so a timeout also stops a spawned sam_serviced.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload} run exceeded {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{workload} run printed no result (exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def select(spec, result, trace):
    """The result restricted to the metrics BENCHMARK.json names for the mode."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            fail(f"metric {m['name']} was not measured")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} measured in {got['unit']}, declared in {m['unit']}")
        metrics[m["name"]] = got
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main_run(argv):
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}", 2)
    bins = build()
    code, result = run_once(bins, args.workload, args.seed, args.seconds, args.trace)
    out = select(spec, result, args.trace)
    print(json.dumps(out))
    sys.exit(code if code != 0 else (0 if out["correct"] else 1))


def main_steady(argv):
    p = argparse.ArgumentParser(description="Steadiness report over back-to-back runs.")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    args = p.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    bins = build()
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for i in range(args.runs):
        seed = args.first_seed + i
        code, result = run_once(bins, args.workload, seed, seconds, 0)
        out = select(spec, result, 0)
        if code != 0 or not out["correct"]:
            fail(f"seed {seed}: run failed ({out['failed']} of {out['attempted']} failed)")
        for name in values:
            values[name].append(out["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              file=sys.stderr)
    print(f"{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'worst':>8} {'bound':>6} {'spread/bound':>12}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        worst = max(abs(x - med) for x in v) / med
        print(f"{m['name']:<22} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.3f} {worst:>8.3f} {m['bound']:>6.2f} {spread / m['bound']:>12.2f}")


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "steady":
        main_steady(sys.argv[2:])
    else:
        main_run(sys.argv[1:])
