#!/usr/bin/env python3
"""Dual-route curvature study: the flat C^2/U(1) fixture and an N^4 U(1) box, run through `gswlab.cli`.

Usage: python scripts/curvature_study.py [N (3)] [ORACLE: on (default) or off] [OUT_DIR (out/curvature_study)]
The box is at the `fueter_z1` point with offset 0.8.  Prints each run's CSV rows and `wall_time_s`.
"""

import json
import pathlib
import sys

from gswlab import cli


def configs(n, oracle, out_dir):
    """{name: config} of the fixture and lattice runs, each writing into out_dir/name."""
    params = {"n_samples": 2, "oracle": oracle}
    return {"fixture": {"experiment": "curvature", "seed": 1, "output_dir": str(out_dir / "fixture"),
                        "params": dict(params, mode="fixture", oracle_eps=1e-3)},
            "lattice": {"experiment": "curvature", "seed": 5, "output_dir": str(out_dir / "lattice"),
                        "geometry": {"dims": [n] * 4, "h": 1.0 / n, "topology": "box"}, "group": "u1",
                        "params": dict(params, mode="lattice", init={"kind": "fueter_z1", "offset": 0.8},
                                       oracle_eps=3e-3)}}


def main(argv):
    n, oracle, out_dir = argv + ["3", "on", "out/curvature_study"][len(argv):]
    if oracle not in ("on", "off"):
        sys.exit(__doc__)
    out_dir, status = pathlib.Path(out_dir), 0
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, cfg in configs(int(n), oracle == "on", out_dir).items():
        path = out_dir / (name + ".json")
        path.write_text(json.dumps(cfg))
        status = max(status, cli.run("curvature", str(path)))
        manifest = json.loads(pathlib.Path(cfg["output_dir"], "manifest.json").read_text())
        print("".join(pathlib.Path(cfg["output_dir"], out).read_text() for out in manifest["outputs"]), end="")
        print("%s: exit %d, wall_time_s %.3f" % (name, manifest["exit_code"], manifest["wall_time_s"]))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
