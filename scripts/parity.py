#!/usr/bin/env python3
"""Parity digests: how far a change moved every output of gswlab.

Usage, from the root of a checkout (numpy only):

    python scripts/parity.py record DIR
    python scripts/parity.py compare A B [--bound REL]

`record` runs `setup_*`/`run_*` of each `bench/workloads.py` workload at
seeds 1, 2 and 11, and every example config of
`scripts/make_example_configs.py` through `cli.run` in a temporary
directory, with BLAS pinned to one thread.  It also evaluates the lattice
differences on one seeded 3x4x2x5 lattice per topology x group x target:
the axis-stacked forward_cov_diff, backward_cov_diff, backward_cov_diff_raw
and cov_diff_component of both stencils, and dirac and grad_energy_density
of both stencils.  It writes every numeric output (bools as 0/1) to
DIR/outputs.npz, keyed `workload/seed/key`, `config/file/column-or-key` or
`lattice/topology/group/kind/name`, and to DIR/digest.json every string
output and the sha256 of every output file.  Manifests, which carry wall
times, are left out; `bench/` is only read.

`compare` prints per key "identical", or the largest relative difference
max|a - b| / max(|a|, |b|) and the flat index where it occurs, then one
summary line: keys identical out of all keys, keys moved, the worst
relative difference with its key, and the output files that differ.  It exits
1 when a key is missing on one side, a shape or string differs, or a
relative difference passes --bound (default 0: any difference).  A file
whose bytes differ is reported, but the numbers it holds decide.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2, 11)


def flatten(prefix, value, nums, strs):
    """Numeric leaves of nested dicts and lists into nums (float arrays), strings into strs."""
    if isinstance(value, dict):
        for key, item in value.items():
            flatten("%s/%s" % (prefix, key), item, nums, strs)
    elif isinstance(value, str):
        strs[prefix] = value
    elif isinstance(value, (list, tuple)) and any(isinstance(v, (dict, str, list, tuple)) for v in value):
        for k, item in enumerate(value):
            flatten("%s/%d" % (prefix, k), item, nums, strs)
    else:
        nums[prefix] = np.asarray(value, dtype=float)


def read_output(prefix, path, nums, strs):
    if path.endswith(".json"):
        with open(path) as fh:
            flatten(prefix, json.load(fh), nums, strs)
    elif path.endswith(".csv"):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for column in rows[0] if rows else ():
            cells = [row[column] for row in rows]
            try:
                nums["%s/%s" % (prefix, column)] = np.array([float(x) for x in cells])
            except ValueError:
                strs["%s/%s" % (prefix, column)] = "\n".join(cells)


def lattice_outputs(nums):
    """The differences, dirac and energy of one seeded 3x4x2x5 lattice per topology x
    group x target into nums, keyed lattice/topology/group/kind/name."""
    from gswlab import lattice as lat
    from gswlab import quaternion as quat
    from gswlab.targets import GaugeGroup, TargetKind

    dims = (3, 4, 2, 5)
    for topology in lat.Topology:
        for group in GaugeGroup:
            for kind in TargetKind:
                rng = np.random.default_rng(5)
                geom = lat.LatticeGeom(dims, 0.3, topology)
                u = lat.SpinorField(geom, rng.normal(size=dims + (4,)) + quat.ONE, kind)
                links = rng.normal(size=dims + (4,)) if group is GaugeGroup.U1 else None
                a = lat.ConnectionField(geom, group, links)
                key = "lattice/%s/%s/%s/" % (topology.value, group.value, kind.value) + "%s"
                for fn in (lat.forward_cov_diff, lat.backward_cov_diff, lat.backward_cov_diff_raw):
                    nums[key % fn.__name__] = np.stack([fn(u, a, i) for i in range(4)], axis=-2)
                for st in lat.Stencil:
                    nums[key % ("cov_diff_component_" + st.value)] = np.stack(
                        [lat.cov_diff_component(u, a, i, st) for i in range(4)], axis=-2)
                    nums[key % ("dirac_" + st.value)] = lat.dirac(u, a, st)
                    nums[key % ("grad_energy_density_" + st.value)] = lat.grad_energy_density(u, a, st)


def record(out_dir):
    sys.dont_write_bytecode = True  # import bench/ without writing into it
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from gswlab import cli
    from make_example_configs import CONFIGS

    spec = importlib.util.spec_from_file_location("workloads", os.path.join(ROOT, "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    nums, strs, hashes = {}, {}, {}
    for name, load in workloads.WORKLOADS.items():
        for seed in SEEDS:
            flatten("%s/%d" % (name, seed), load.run(load.setup(seed)), nums, strs)
    lattice_outputs(nums)
    with tempfile.TemporaryDirectory() as tmp:
        for fname, payload in sorted(CONFIGS.items()):
            stem = os.path.splitext(fname)[0]
            path, out = os.path.join(tmp, fname), os.path.join(tmp, stem)
            with open(path, "w") as fh:
                json.dump(payload, fh)
            os.environ["GSWLAB_OUT"] = out
            nums[stem + "/exit_code"] = np.asarray(float(cli.run(payload["experiment"], path)))
            for output in sorted(os.listdir(out)) if os.path.isdir(out) else ():
                if output != "manifest.json":
                    with open(os.path.join(out, output), "rb") as fh:
                        hashes["%s/%s" % (stem, output)] = hashlib.sha256(fh.read()).hexdigest()
                    read_output("%s/%s" % (stem, output), os.path.join(out, output), nums, strs)
    os.makedirs(out_dir, exist_ok=True)
    np.savez(os.path.join(out_dir, "outputs.npz"), **nums)
    with open(os.path.join(out_dir, "digest.json"), "w") as fh:
        json.dump({"strings": strs, "sha256": hashes}, fh, indent=1, sort_keys=True)
    print("recorded %d numeric keys, %d strings, %d files in %s" % (len(nums), len(strs), len(hashes), out_dir))


def load(run_dir):
    with np.load(os.path.join(run_dir, "outputs.npz")) as npz:
        nums = {key: npz[key] for key in npz.files}
    with open(os.path.join(run_dir, "digest.json")) as fh:
        return nums, json.load(fh)


def compare(dir_a, dir_b, bound):
    (nums_a, dig_a), (nums_b, dig_b) = load(dir_a), load(dir_b)
    failed = False
    keys = sorted(set(nums_a) | set(nums_b))
    identical, moved, files = 0, [], 0
    for key in keys:
        if key not in nums_a or key not in nums_b:
            print("%s: missing in %s" % (key, dir_a if key not in nums_a else dir_b))
            failed = True
            continue
        a, b = nums_a[key], nums_b[key]
        if a.shape != b.shape:
            print("%s: shape %s vs %s" % (key, a.shape, b.shape))
            failed = True
        elif np.array_equal(a, b, equal_nan=True):
            print("%s: identical" % key)
            identical += 1
        else:
            diff = np.where(np.isnan(a) & np.isnan(b), 0.0, np.abs(a - b))
            diff = np.where(np.isnan(diff), np.inf, diff).ravel()
            scale = max(np.nanmax(np.abs(a)), np.nanmax(np.abs(b)))
            rel = diff.max() / scale if scale > 0 else np.inf
            print("%s: rel %.3e at %d" % (key, rel, int(np.argmax(diff))))
            moved.append((rel, key))
            failed |= not rel <= bound
    for kind in ("strings", "sha256"):
        for key in sorted(set(dig_a[kind]) | set(dig_b[kind])):
            va, vb = dig_a[kind].get(key), dig_b[kind].get(key)
            if va != vb:
                print("%s %s: %s" % (kind, key, "differs" if va and vb else "missing on one side"))
                failed |= kind == "strings" or not (va and vb)
                files += kind == "sha256"
    worst = "worst rel %.3e at %s" % max(moved) if moved else "none moved"
    print("summary: %d/%d keys identical, %d moved (%s), %d files differ"
          % (identical, len(keys), len(moved), worst, files))
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("record").add_argument("dir")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.add_argument("--bound", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.dir)
    return compare(args.a, args.b, args.bound)


if __name__ == "__main__":
    sys.exit(main())
