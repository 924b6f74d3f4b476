"""One benchmark process: set up a workload, iterate it, report as JSON.

Started by run.py with the BLAS thread count pinned in its environment.
It builds the inputs from the seed, runs one warm-up iteration, then
runs closed-loop iterations (one client, the next starts when the last
one is verified) until --seconds have passed.  Every iteration is timed
from verified inputs to a verified result, i.e. including its gate.

With --trace 1 the iterations alternate untraced and traced, so both
medians come from the same process and the same inputs; the spans are
saved under .bench_out/ when the run ends.

The report is one JSON line on stdout.  --setup-only stops after the
inputs are ready and reports only the set-up time.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

T_START = time.monotonic()

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import WORKLOADS, no_wrap  # noqa: E402

OUT_DIR = ".bench_out"


def arrays(obj, depth=0):
    """Every numpy array reachable in obj through containers and attributes."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if depth > 4:
        return []
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return []
    return [a for x in items for a in arrays(x, depth + 1)]


def _cache_sizes():
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                out["L" + level] = size
    except OSError:
        pass
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit(root):
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(inputs):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    big = max(arrays(inputs), key=lambda a: a.nbytes)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "largest_input_array": {"shape": list(big.shape), "mb": round(big.nbytes / 2**20, 3)},
        "commit": _git_commit(os.getcwd()),
    }


def _reference():
    with open(os.path.join(HERE, "spec.json")) as fh:
        return json.load(fh)["reference"]


def iterate(wl, inputs, ref, wrap):
    """One verified iteration: (seconds, failure messages)."""
    t0 = time.perf_counter()
    try:
        bad = wl.check(wl.run(inputs, wrap), ref)
    except Exception as err:  # a raising iteration is a failed iteration
        traceback.print_exc()
        bad = ["%s: %s" % (type(err).__name__, err)]
    return time.perf_counter() - t0, bad


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, default=T_START, help="time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ref = _reference()[args.workload]
    _, warm_bad = iterate(wl, inputs, ref, no_wrap)
    failures = list(warm_bad)
    attempted, failed = 1, int(bool(warm_bad))
    plain, traced = [], []
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    deadline = time.monotonic() + args.seconds
    while True:
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            tracer.iteration = len(traced)
            tracer.install()
            try:
                dt, bad = iterate(wl, inputs, ref, tracer.wrap)
            finally:
                tracer.uninstall()
            traced.append(dt)
        else:
            dt, bad = iterate(wl, inputs, ref, no_wrap)
            plain.append(dt)
        attempted += 1
        failed += int(bool(bad))
        failures += bad
        if time.monotonic() >= deadline and (tracer is None or traced):
            break

    report = {
        "setup_s": setup_s,
        "wall_s": plain,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(inputs),
    }
    if tracer is not None:
        stats = tracer.layer_stats()
        report["traced_wall_s"] = traced
        report["layers"] = [stats[k][0] for k in range(len(traced))]
        report["covered_frac"] = [stats[k][1] / traced[k] for k in range(len(traced))]
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, "spans-%s-seed%d.npz" % (args.workload, args.seed)))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
