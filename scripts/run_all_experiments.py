#!/usr/bin/env python3
"""Run every example config through the CLI and summarize the manifests.

Usage: python scripts/run_all_experiments.py [configs_dir]
Writes experiment outputs under each config's output_dir and prints one
status line per run.
"""

import glob
import json
import os
import sys

from gswlab import cli


def main(configs_dir="configs"):
    paths = sorted(glob.glob(os.path.join(configs_dir, "*.json")))
    if not paths:
        print(f"no configs under {configs_dir}; run scripts/make_example_configs.py first")
        return 1
    worst = 0
    for path in paths:
        with open(path) as fh:
            cfg = json.load(fh)
        code = cli.run(cfg["experiment"], path)
        worst = max(worst, code)
        out_dir = cfg.get("output_dir", ".")
        manifest = {}
        mpath = os.path.join(out_dir, "manifest.json")
        if os.path.exists(mpath):
            with open(mpath) as fh:
                manifest = json.load(fh)
        print(
            f"{os.path.basename(path):28s} exit={code}  "
            f"wall={manifest.get('wall_time_s', float('nan')):7.2f}s  "
            f"outputs={manifest.get('outputs', [])}"
        )
    return worst


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
