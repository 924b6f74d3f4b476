#!/usr/bin/env python3
"""Dual-route curvature study: fixture closed forms plus lattice samples.

Prints a table of pipeline-vs-oracle sectional curvatures on the flat
C^2/U(1) fixture (closed forms 3 and 4) and on a small box solution
set, and writes the sample CSV.
"""

import sys
import time

import gswlab.quaternion as quat
from gswlab import cli, frequency as fq, gsw, moduli_geom as mg
from gswlab.lattice import ConnectionField, LatticeGeom, SpinorField, Topology
from gswlab.targets import GaugeGroup


def fixture_rows():
    sys_ = mg.HopfFixtureSystem()
    c0 = sys_.center()
    v, w = quat.QJ.copy(), quat.QK.copy()
    out = mg.gauss_sectional_vec(sys_, c0, v, w)
    mf, dim = mg.solution_chart_metric(sys_, c0, v, w)
    oracle = mg.fd_oracle_curvature(mf, dim, eps=1e-3)
    row = {"sample_id": "fixture", **{k: out[k] for k in ("K_C", "bracket_norm_sq", "K_B", "gauss_terms", "K_M")}}
    row["oracle_K"] = oracle
    row["rel_err"] = abs(oracle - out["K_M"]) / abs(out["K_M"])
    return [row]


def lattice_rows(n=3, n_samples=2, seed=5):
    geom = LatticeGeom((n,) * 4, 1.0 / n, Topology.BOX)
    u = fq.fueter_library(geom, "z1")
    vals = u.values.copy()
    vals[..., 0] += 0.8
    vals[..., 1] += 0.1
    c = gsw.Configuration(ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, vals))
    s = gsw.manufacture(c)
    system = mg.LatticeSystem(c, s)
    c0 = system.center()
    rows = []
    for k in range(n_samples):
        v, w = mg.sample_solution_plane(system, c0, seed + k)[0]
        out = mg.gauss_sectional_vec(system, c0, v, w)
        t0 = time.time()
        mf, dim = mg.solution_chart_metric(system, c0, v, w)
        oracle = mg.fd_oracle_curvature(mf, dim, eps=3e-3)
        row = {"sample_id": k, **{key: out[key] for key in ("K_C", "bracket_norm_sq", "K_B", "gauss_terms", "K_M")}}
        row["oracle_K"] = oracle
        row["rel_err"] = abs(oracle - out["K_M"]) / max(abs(out["K_M"]), 1e-300)
        rows.append(row)
        print(f"  lattice sample {k}: K_M={out['K_M']:.6g} oracle={oracle:.6g} "
              f"rel={row['rel_err']:.2e} ({time.time()-t0:.0f}s)")
    return rows


def main(out_csv="curvature_study.csv"):
    rows = fixture_rows()
    print(f"fixture: K_B={rows[0]['K_B']:.6f} (analytic 3), K_M={rows[0]['K_M']:.6f} "
          f"(analytic 4), oracle rel err {rows[0]['rel_err']:.2e}")
    rows += lattice_rows()
    cli._write_csv(out_csv, mg.CSV_FIELDS, rows)
    print("wrote", out_csv)


if __name__ == "__main__":
    main(*sys.argv[1:])
