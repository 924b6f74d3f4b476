"""gswlab benchmark: three workloads through the package's public API.

Run from the root of a checkout:

    python3 bench/run.py --workload field_box --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  field_box      stencils, quaternion products and ball/shell quadrature
                 on boxes up to 33^4, no dense linear algebra
  curvature_box  dual-route sectional curvature on a 2^4 U(1) box:
                 hundreds of oracle metric evaluations on small arrays
  newton_torus   dense Newton, cohomology and a Kuranishi chart on a
                 3^4 U(1) torus (648 unknowns)

Each workload runs in a fresh worker process (bench/worker.py) whose
BLAS thread count is pinned to BLAS_THREADS, closed loop with one
client, for --seconds after one warm-up iteration.  Every iteration
passes a correctness gate; a failed gate or a raised error is a failed
iteration, and any failure makes the command exit 1.

--trace 0 reports the end-to-end metrics: wall_s (median iteration),
setup_s (median over SETUP_SAMPLES fresh processes of the time from
spawn to inputs ready) and peak_rss_mb (of the measuring process).
--trace 1 runs a separate process that alternates untraced and traced
iterations and reports the per-layer metrics of BENCHMARK.json, taken
as medians over the traced iterations.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = "1"
SETUP_SAMPLES = 15
TIME_LIMIT_S = 170.0
#: per-layer metric suffix -> field of the tracer's per-layer totals
LAYER_STATS = {
    "calls": "calls",
    "self_s": "self_s",
    "init_s": "total_s",
    "bytes": "extra",
    "flops": "extra",
    "rhs": "extra",
    "iters": "extra",
    "full_calls": "flag",
}


class BenchError(RuntimeError):
    pass


def worker_env(root):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(worker_args, env, deadline):
    """Run one worker to completion and return its JSON report."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *worker_args, "--t0", repr(t0)]
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=max(deadline - t0, 1.0)
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time limit: %s" % " ".join(worker_args))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker exited %d: %s" % (proc.returncode, " ".join(worker_args)))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(args, env, deadline, spec):
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup_samples(n):
        return [spawn(common + ["--setup-only"], env, deadline)["setup_s"] for _ in range(n)]

    # half the set-up samples before the measuring process and half after,
    # so that they span the same stretch of machine time as wall_s
    setups = setup_samples(SETUP_SAMPLES // 2)
    rep = spawn(common + ["--seconds", str(args.seconds)], env, deadline)
    setups += [rep["setup_s"]] + setup_samples(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
    q1, wall, q3 = quartiles(rep["wall_s"])
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    print("workload %s, seed %d: closed loop, 1 client, BLAS threads %s"
          % (args.workload, args.seed, BLAS_THREADS))
    print("wall_s       %.4f s  (quartiles %.4f, %.4f; %d samples)"
          % (wall, q1, q3, len(rep["wall_s"])))
    print("setup_s      %.4f s  (median of %d process starts: %s)"
          % (values["setup_s"], len(setups), ", ".join("%.3f" % s for s in setups)))
    print("peak_rss_mb  %.1f MB" % values["peak_rss_mb"])
    return rep, {m["name"]: values[m["name"]] for m in spec["end_to_end"]}


def per_layer(args, env, deadline, spec):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    rep = spawn(common + ["--seconds", str(args.seconds), "--trace", "1"], env, deadline)
    wall = statistics.median(rep["wall_s"])
    traced = statistics.median(rep["traced_wall_s"])
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            values[name] = traced - wall
        elif name == "trace.covered_frac":
            values[name] = statistics.median(rep["covered_frac"])
        else:
            layer, stat = name.rsplit(".", 1)
            field = LAYER_STATS[stat]
            per_iter = [it.get(layer, {}).get(field, 0) for it in rep["layers"]]
            mid = statistics.median if m["unit"] == "s" else statistics.median_low
            values[name] = mid(per_iter)
    print("workload %s, seed %d: %d untraced and %d traced iterations"
          % (args.workload, args.seed, len(rep["wall_s"]), len(rep["traced_wall_s"])))
    print("untraced wall_s %.4f s, traced %.4f s; per-layer values are medians per iteration"
          % (wall, traced))
    print("%-14s %-44s %16s %-6s %s" % ("workload", "layer metric", "value", "unit", "share of wall_s"))
    for m in spec["per_layer"]:
        v = values[m["name"]]
        share = "%.1f%%" % (100 * v / wall) if m["unit"] == "s" else ""
        print("%-14s %-44s %16.6g %-6s %s" % (args.workload, m["name"], v, m["unit"], share))
    return rep, values


def main(argv=None):
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gswlab", "__init__.py")):
        print("error: run from the root of a gswlab checkout (src/gswlab not found)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2

    env = worker_env(root)
    deadline = t_start + TIME_LIMIT_S
    try:
        if args.trace:
            rep, values = per_layer(args, env, deadline, spec)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            rep, values = end_to_end(args, env, deadline, spec)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    except BenchError as err:
        print("error: %s" % err, file=sys.stderr)
        return 3

    failed_frac = rep["failed"] / rep["attempted"]
    print("failed_frac  %.4f  (%d failed of %d attempted, warm-up included)"
          % (failed_frac, rep["failed"], rep["attempted"]))
    for msg in rep["failures"]:
        print("  gate: %s" % msg)
    print("env: %s" % json.dumps(rep["env"], sort_keys=True))
    print(json.dumps({
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if rep["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
