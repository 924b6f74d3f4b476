"""Batch driver: config-file experiments with deterministic outputs.

Usage: gswlab <experiment> --config cfg.json [--strict] [--threads N]

Experiments: target-check, solve, deform, kuranishi, curvature,
frequency, sequence.  SCHEMA gives every config key its default (or
marks it required) and its accepted values: numbers are finite JSON
numbers in range (integers where they count, never bools), flags JSON
booleans, names one of their listed strings, and null is accepted only
where the default is null.  Any other value, an unknown key, a missing
required key, a frequency grid that leaves the lattice, an unreadable
snapshot or a dense problem over the size limit exits 2 with no outputs
(a torus `solve` has no limit: its Newton steps are matrix-free and
Fourier preconditioned).  The dense experiments (solve, deform,
kuranishi, lattice curvature) use
the forward stencil, whose matrix transposes are the exact discrete
adjoints, and take no `stencil`.  Every run writes a manifest.json with
the config hash, package version and wall time.  Exit codes: 0 success,
2 config error, 3 numerical failure (and, with --strict, any rank-margin
warning or failed internal check).

The same config, seed and BLAS thread count produce byte-identical
CSV/JSON outputs (different OpenBLAS thread counts can change the last
bit of a dense solve); floats are written with repr (shortest round trip).
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
import traceback
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import deformation as dfm
from . import frequency as fq
from . import gsw
from . import lattice as lat
from . import moduli_geom as mg
from . import quaternion as quat
from . import targets as tg
from .lattice import LatticeGeom, Stencil, Topology
from .targets import GaugeGroup, TargetKind


class ConfigError(ValueError):
    pass


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


# ---------------------------------------------------------------------------
# config schema: each key maps to (default, check), a check being a Check or,
# for an object, the schema of its keys


class Check(NamedTuple):
    accepts: str  # the accepted values, as the README tables state them
    test: Callable


def _number(lo=None, strict=False, integer=False):
    """A finite JSON number (never a bool), an integer if asked, >= lo (> lo if strict)."""
    kinds = int if integer else (int, float)

    def test(v):
        if isinstance(v, bool) or not isinstance(v, kinds) or not -math.inf < v < math.inf:
            return False
        return lo is None or (v > lo if strict else v >= lo)

    bound = "" if lo is None else f" {'>' if strict else '>='} {lo}"
    return Check(("an integer" if integer else "a number" if bound else "a finite number") + bound, test)


def _one_of(*values):
    names = [json.dumps(v) for v in values]
    accepts = names[0] if len(names) == 1 else ", ".join(names[:-1]) + " or " + names[-1]
    return Check(accepts, lambda v: any(type(v) is type(a) and v == a for a in values))


def _list(entry, accepts, length=None):
    """A non-empty JSON list, of `length` entries if given, each passing entry."""
    return Check(accepts, lambda v: isinstance(v, list) and 0 < len(v) == (length or len(v))
                 and all(map(entry.test, v)))


def _nullable(check):
    return Check("null or " + check.accepts, lambda v: v is None or check.test(v))


REQUIRED = object()  # no default: the key must be given
OPTIONAL = object()  # no default: an absent key stays absent
FLAG = Check("true or false", lambda v: isinstance(v, bool))
TEXT = Check("a string", lambda v: isinstance(v, str))
FINITE = _number()
POSITIVE = _number(0, strict=True)
NONNEGATIVE = _number(0)
COUNT = _number(0, integer=True)
POSITIVE_COUNT = _number(1, integer=True)
POINT = _list(FINITE, "four finite numbers", 4)

GEOMETRY = {
    "dims": (REQUIRED, _list(_number(2, integer=True), "four integers >= 2", 4)),
    "h": (REQUIRED, POSITIVE),
    "topology": ("torus", _one_of("torus", "box")),
}
INIT = {
    "kind": ("random", _one_of("random", "constant", "zero", "fueter_z1", "pure_gauge_constant",
                               "snapshot")),
    "amplitude": (0.3, FINITE),
    "offset": (1.0, FINITE),
    "path": (None, _nullable(TEXT)),
    "gauge_seed": (None, _nullable(COUNT)),  # null: seed + 1
}
PARAMS = {
    "target-check": {
        "samples": (100, POSITIVE_COUNT),
        "fd_step": (1e-4, POSITIVE),
        "fd_tol": (1e-6, NONNEGATIVE),
        "alg_tol": (1e-12, NONNEGATIVE),
    },
    "solve": {
        "init": ({}, INIT),
        "perturb_amplitude": (1e-3, FINITE),
        "tol": (1e-10, POSITIVE),
        "max_iter": (20, COUNT),
    },
    "deform": {
        "init": ({}, INIT),
        "complex_check": (True, FLAG),
        "export_matrix": (False, FLAG),
    },
    "kuranishi": {
        "init": ({}, INIT),
        "radius": (1e-2, NONNEGATIVE),
        "tol": (1e-11, POSITIVE),
        "n_samples": (20, COUNT),
    },
    "curvature": {
        "mode": ("lattice", _one_of("lattice", "fixture")),
        "init": ({}, INIT),
        "n_samples": (1, COUNT),
        "oracle": (True, FLAG),
        "oracle_eps": (3e-3, POSITIVE),
    },
    "frequency": {
        "field": ("z1", _one_of("z1", "z2", "z3", "sym_product")),
        "multiset": ([1, 2], _list(_one_of(1, 2, 3), "a non-empty list of 1s, 2s and 3s")),
        "centers": (None, _nullable(_list(POINT, "a non-empty list of four-number points"))),
        "r_cells": (list(range(8, 25, 2)), _list(FINITE, "a non-empty list of finite numbers")),
        "monotonicity_c0": (0.0, FINITE),
        "stencil": ("centered", _one_of("centered", "forward")),
        "probe_eps0": (1e-2, FINITE),
        "probe": (False, FLAG),
    },
    "sequence": {
        "kind": ("fueter_dilation", _one_of("fueter_dilation", "vanishing")),
        "n_terms": (6, POSITIVE_COUNT),
        "lambda0": (None, _nullable(POSITIVE)),  # null: 0.75 / h
        "growth": (2.0, POSITIVE),
        "base_offset": ([1.0, 0.0, 0.0, 0.0], POINT),
        "dip_residue": (0.25, FINITE),
        "c1": (4.0, POSITIVE),
        "c0_bound": (10.0, FINITE),
        "tail_window": (3, POSITIVE_COUNT),
    },
}
SCHEMA = {
    name: {
        "experiment": (REQUIRED, _one_of(name)),
        "seed": (0, COUNT),
        "output_dir": (".", TEXT),
        "geometry": (OPTIONAL, GEOMETRY),  # required where the run has a lattice
        "target": ("flat_h", _one_of("flat_h", "cone_h_mod_z2")),
        "group": ("trivial", _one_of("trivial", "u1")),
        "params": ({}, params),
    }
    for name, params in PARAMS.items()
}
EXPERIMENTS = tuple(SCHEMA)


def _fill(value, schema, prefix=""):
    """A copy of the object `value` with every absent key's default, each object filled by
    its own schema; ConfigError on an unknown key, a missing required key or a refused value."""
    where = prefix.rstrip(".") or "the config"
    _require(isinstance(value, dict), f"{where} must be a JSON object")
    unknown = set(value) - set(schema)
    _require(not unknown, f"unknown keys {sorted(unknown)} in {where}")
    full = {}
    for key, (default, check) in schema.items():
        item = value.get(key, default)
        _require(item is not REQUIRED, f"{prefix}{key} is required")
        if item is OPTIONAL:
            continue
        if isinstance(check, dict):
            full[key] = _fill(item, check, f"{prefix}{key}.")
        else:
            _require(check.test(item), f"{prefix}{key} must be {check.accepts}, got {json.dumps(item)}")
            full[key] = item
    return full


def validate_config(cfg, experiment):
    """Check cfg as a config of `experiment` (ConfigError if refused); returns cfg unchanged."""
    _filled(cfg, experiment)
    return cfg


def _filled(cfg, experiment):
    """cfg with every default filled in, after one pass over the schema and the checks that
    need the lattice: the frequency grid, a snapshot's lattice and the dense limit, which a
    torus `solve` has not."""
    full = _fill(cfg, SCHEMA[experiment])
    params = full["params"]
    lattice_free = experiment == "target-check" or (experiment == "curvature" and params["mode"] == "fixture")
    _require("geometry" in full or lattice_free, f"{experiment} needs a geometry")
    dense = not lattice_free and experiment not in ("frequency", "sequence")
    if experiment == "frequency":
        try:  # the balls are known before any work
            _frequency_grid(params, build_geometry(full))
        except ValueError as err:
            raise ConfigError(f"bad frequency grid: {err}") from err
    snapshot = "init" in params and params["init"]["kind"] == "snapshot"
    if snapshot:
        path = params["init"]["path"]
        try:
            u, a = lat.snapshot_load(path)
        except (OSError, ValueError, KeyError, TypeError) as err:
            raise ConfigError(f"unreadable snapshot {path!r}: {err}") from err
    if dense:  # the run's lattice is the snapshot's, whatever geometry says
        geom, group = (u.geom, a.group) if snapshot else (build_geometry(full), GaugeGroup(full["group"]))
        if experiment != "solve" or geom.topology is not Topology.TORUS:  # a torus solve is matrix-free
            lay = dfm.layout(geom, group)
            dim = max(lay.equations.dim + lay.gauge.dim, lay.tangent.dim)
            _require(dim <= dfm.MAX_DENSE_DIM, f"elliptic operator dimension {dim} is over "
                     f"the dense limit {dfm.MAX_DENSE_DIM}; use a smaller lattice")
    return full


def _frequency_grid(params, geom):
    """(radii, centers) of a frequency run: radii > 0 spaced >= 2h, balls in delta0 and the
    box, and with the probe a 4h ball at every centre."""
    radii = np.array(params["r_cells"], dtype=float) * geom.h
    centers = params["centers"]
    centers = [[0.5 * w for w in geom.widths()]] if centers is None else centers
    gaps = np.diff(np.sort(radii))
    _require(np.all(radii > 0) and np.all(gaps >= 2 * geom.h - 1e-12), "radii > 0, spaced >= 2h")
    r = float(np.max(radii))
    _require(r <= geom.delta0() + 1e-12, f"radius {r:g} passes delta0 {geom.delta0():g}")
    for x in centers:
        _require(r <= lat.max_ball_radius(geom, x) + 1e-12, f"ball B({x}, {r:g}) leaves the box")
    if params["probe"]:
        fq.check_probe_centres(geom, centers)
    return radii, centers


def build_geometry(cfg):
    geo = cfg["geometry"]
    return LatticeGeom(tuple(geo["dims"]), float(geo["h"]), Topology(geo["topology"]))


def build_configuration(cfg):
    geom = build_geometry(cfg)
    group = GaugeGroup(cfg["group"])
    kind = TargetKind(cfg["target"])
    init = cfg["params"]["init"]
    seed = cfg["seed"]
    k = init["kind"]
    amp = float(init["amplitude"])
    off = float(init["offset"])
    if k == "random":
        return gsw.random_config(geom, group, kind, seed, amp, off)
    if k == "snapshot":
        u, a = lat.snapshot_load(init["path"])
        return gsw.Configuration(a, u)
    vals = np.zeros(geom.dims + (4,))
    if k == "fueter_z1":
        vals = fq.fueter_library(geom, "z1").values.copy()
        vals[..., 0] += off
        vals[..., 1] += 0.1 * off
    elif k != "zero":  # constant, pure_gauge_constant
        vals[..., 0] = off
    c = gsw.Configuration(lat.ConnectionField(geom, group), lat.SpinorField(geom, vals, kind))
    if k == "pure_gauge_constant" and group is GaugeGroup.U1:
        g = gsw.random_gauge(geom, seed + 1 if init["gauge_seed"] is None else init["gauge_seed"])
        return gsw.gauge_apply(g, c)
    return c


# ---------------------------------------------------------------------------
# emission helpers


def _write_csv(path, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            out = {}
            for k, v in row.items():
                if k not in fieldnames:
                    continue
                if isinstance(v, (float, np.floating)):
                    out[k] = repr(float(v))
                elif isinstance(v, (np.integer,)):
                    out[k] = int(v)
                else:
                    out[k] = v
            writer.writerow(out)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _failure(err):
    """Manifest fields for a caught exception: `Type: message` and its traceback."""
    tb = "".join(traceback.format_exception(err))
    return {"error": f"{type(err).__name__}: {err}", "traceback": tb}


# ---------------------------------------------------------------------------
# experiment runners (each returns (status, files, extra_manifest); a
# handled failure goes in extra_manifest["failure"] as _failure(err))


def run_target_check(cfg, out, opts):
    params = cfg["params"]
    n = params["samples"]
    fd_step = float(params["fd_step"])
    rng = np.random.default_rng(cfg["seed"])
    margins = {}

    def record(name, value):
        margins[name] = max(margins.get(name, 0.0), float(value))

    for _ in range(n):
        p = rng.normal(size=4)
        q = rng.normal(size=4)
        record("quat_norm_product", abs(quat.norm2(quat.mul(p, q)) - quat.norm2(p) * quat.norm2(q)))
        zu = rng.normal(size=3)
        zu /= np.linalg.norm(zu)
        zeta = quat.from_imag(zu)
        v = rng.normal(size=4)
        record("complex_structure_square", np.abs(quat.mul(zeta, quat.mul(zeta, v)) + v).max())
        record(
            "ij_is_k",
            np.abs(quat.mul(quat.QI, quat.mul(quat.QJ, v)) - quat.mul(quat.QK, v)).max(),
        )
        qq = rng.normal(size=4)
        qq /= quat.norm(qq)
        lhs = quat.mul(qq, quat.mul(zeta, quat.mul(quat.conj(qq), v)))
        rhs = quat.mul(quat.mul(qq, quat.mul(zeta, quat.conj(qq))), v)
        record("permuting_identity", np.abs(lhs - rhs).max())
        point = tg.TargetPoint(rng.normal(size=4) + np.array([2.0, 0, 0, 0]))
        diag, anti, tracefree = tg.chi_components(point)
        record("chi2_vanishes", np.abs(tracefree).max())
        record("chi0_is_euler", np.abs(tg.chi0(point).vec - point.rep).max())
        record("rho0_potential", abs(tg.rho0(point) - 0.5 * quat.norm2(tg.chi0(point).vec)))
        record("grad_rho0_squared", abs(quat.norm2(tg.grad_rho0(point).vec) - 2.0 * tg.rho0(point)))
        # moment map FD oracle
        xi = rng.normal()
        vv = rng.normal(size=4)
        pp = point.rep
        mu_p = tg.moment_map(tg.TargetPoint(pp + fd_step * vv), GaugeGroup.U1)
        mu_m = tg.moment_map(tg.TargetPoint(pp - fd_step * vv), GaugeGroup.U1)
        fd = (mu_p(zeta, xi) - mu_m(zeta, xi)) / (2 * fd_step)
        k_vec = tg.fundamental_vector_g(GaugeGroup.U1, xi, point)
        pairing = tg.omega(zeta, k_vec, tg.TangentM(vv, point))
        record("moment_map_fd", abs(fd - pairing))
        # isometry of both actions
        w = rng.normal(size=4)
        record("sp1_isometry", abs(quat.inner(quat.mul(qq, v), quat.mul(qq, w)) - quat.inner(v, w)))
        theta = rng.normal()
        e = quat.exp_i(theta)
        record("u1_isometry", abs(quat.inner(quat.mul(v, e), quat.mul(w, e)) - quat.inner(v, w)))
        record(
            "actions_commute",
            np.abs(quat.mul(quat.mul(qq, pp), e) - quat.mul(qq, quat.mul(pp, e))).max(),
        )
    path = os.path.join(out, "target_check.json")
    alg_tol = float(params["alg_tol"])
    fd_tol = float(params["fd_tol"])
    passed = all(v <= (fd_tol if k == "moment_map_fd" else alg_tol) for k, v in margins.items())
    _write_json(path, {"margins": margins, "passed": passed, "samples": n})
    return (0 if passed or not opts.strict else 3), [path], {"passed": passed}


def run_solve(cfg, out, opts):
    params = cfg["params"]
    c = build_configuration(cfg)
    s = gsw.manufacture(c)
    pert = float(params["perturb_amplitude"])
    if pert:
        t = dfm.random_tangent(c, cfg["seed"] + 17, pert)
        if c.group is not GaugeGroup.TRIVIAL:
            c.a.links = c.a.links + t.b
        c.u.values = c.u.values + t.v
    tol = float(params["tol"])
    files = []
    extra = {}
    try:
        sol, diag = gsw.solve_newton(c, s, tol, params["max_iter"])
    except gsw.NewtonError as err:
        sol, diag = None, err.diagnostics
        extra["failure"] = _failure(err)
    path = os.path.join(out, "solver_diagnostics.csv")
    _write_csv(path, ("iter", "residual_norm", "step_norm"), diag)
    files.append(path)
    if sol is not None:
        snap = os.path.join(out, "solution_snapshot.json")
        lat.snapshot_save(snap, sol.u, sol.a)
        files.append(snap)
    extra["final_residual"] = diag[-1]["residual_norm"]
    extra["lsqr_iters"] = [d["lsqr_iters"] for d in diag]
    return (3 if sol is None else 0), files, extra


def run_deform(cfg, out, opts):
    params = cfg["params"]
    c = build_configuration(cfg)
    s = gsw.manufacture(c)
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        rep = dfm.cohomology(c)
        payload = rep.as_dict()
        if params["complex_check"]:
            payload["complex_norm"] = dfm.complex_check(c, s)
            payload["residual_norm"] = gsw.residual_norm(c, s)
        warn_msgs = [str(w.message) for w in wlist]
    files = []
    path = os.path.join(out, "cohomology.json")
    _write_json(path, payload)
    files.append(path)
    if params["export_matrix"]:
        mpath = os.path.join(out, "elliptic_op.txt")
        dfm.export_triplets(mpath, dfm.elliptic_op(c))
        files.append(mpath)
    status = 3 if (opts.strict and warn_msgs) else 0
    return status, files, {"warnings": warn_msgs}


def run_kuranishi(cfg, out, opts):
    params = cfg["params"]
    c = build_configuration(cfg)
    s = gsw.manufacture(c)
    rep = dfm.kuranishi(
        c,
        s,
        radius=float(params["radius"]),
        tol=float(params["tol"]),
        n_samples=params["n_samples"],
        seed=cfg["seed"],
    )
    path = os.path.join(out, "kuranishi.json")
    _write_json(path, rep.as_dict())
    bad = [r for r in rep.samples if not r["converged"]]
    return (3 if bad and opts.strict else 0), [path], {"failed_samples": len(bad)}


def _curvature_sample_rows(system, cvec, seed, n_samples, with_oracle, eps):
    rows = []
    for k in range(n_samples):
        v, w = mg.sample_solution_plane(system, cvec, seed + k)[0]
        vals = mg.gauss_sectional_vec(system, cvec, v, w)
        row = {"sample_id": k, **{key: vals[key] for key in ("K_C", "bracket_norm_sq", "K_B", "gauss_terms", "K_M")}}
        if with_oracle:
            mf, dim = mg.solution_chart_metric(system, cvec, v, w)
            row["oracle_K"] = mg.fd_oracle_curvature(mf, dim, eps=eps)
            row["rel_err"] = abs(row["oracle_K"] - row["K_M"]) / max(abs(row["K_M"]), 1e-300)
        else:
            row["oracle_K"] = row["rel_err"] = float("nan")
        rows.append(row)
    return rows


def run_curvature(cfg, out, opts):
    params = cfg["params"]
    mode = params["mode"]
    n = params["n_samples"]
    with_oracle = params["oracle"]
    eps = float(params["oracle_eps"])
    seed = cfg["seed"]
    if mode == "fixture":
        system = mg.HopfFixtureSystem()
    else:
        c = build_configuration(cfg)
        system = mg.LatticeSystem(c, gsw.manufacture(c))
    rows = _curvature_sample_rows(system, system.center(), seed, n, with_oracle, eps)
    path = os.path.join(out, "curvature_samples.csv")
    _write_csv(path, mg.CSV_FIELDS, rows)
    worst = max((r["rel_err"] for r in rows if np.isfinite(r["rel_err"])), default=0.0)
    status = 3 if (opts.strict and with_oracle and worst > 1e-3) else 0
    return status, [path], {"worst_rel_err": worst}


def run_frequency(cfg, out, opts):
    params = cfg["params"]
    geom = build_geometry(cfg)
    stencil = Stencil(params["stencil"])
    kind = params["field"]
    u = fq.fueter_library(geom, kind, multiset=tuple(params["multiset"]))
    c = gsw.Configuration(lat.ConnectionField(geom), u)
    fields = fq.profile_fields(c, stencil)
    radii, centers = _frequency_grid(params, geom)
    files = []

    def one_center(item):
        idx, center = item
        prof = fq.radial_profile(c, center, radii, stencil, fields=fields)
        if radii.size >= 5:
            checks = fq.ode_checks(prof)
        else:
            nanarr = np.full(radii.size, np.nan)
            checks = {"fprime_max_rel_dev": np.nan, "eq14_max_rel_dev": np.nan,
                      "fprime_dev": nanarr, "eq14_dev": nanarr}
        rows = []
        for k, row in enumerate(prof.rows()):
            for key, dev in (("f_prime_check", "fprime_dev"), ("eq14_check", "eq14_dev")):
                row[key] = float(checks[dev][k]) if np.isfinite(checks[dev][k]) else np.nan
            rows.append(row)
        mono = fq.monotonicity_scan(prof, float(params["monotonicity_c0"]))
        return idx, rows, mono, checks

    with ThreadPoolExecutor(max_workers=max(1, opts.threads)) as pool:
        results = list(pool.map(one_center, enumerate(centers)))
    summary = {}
    all_ok = True
    for idx, rows, mono, checks in results:
        path = os.path.join(out, f"profile_{idx:03d}.csv")
        _write_csv(path, ("r", "F", "f", "N", "sigma", "kappa", "f_prime_check", "eq14_check"), rows)
        files.append(path)
        summary[f"center_{idx:03d}"] = {
            "monotonicity": mono,
            "fprime_max_rel_dev": checks["fprime_max_rel_dev"],
            "eq14_max_rel_dev": checks["eq14_max_rel_dev"],
        }
        all_ok = all_ok and mono["passed"]
    if params["probe"]:
        probe = fq.regularity_probe(c, centers, float(params["probe_eps0"]), stencil, fields)
        ppath = os.path.join(out, "regularity_probe.json")
        _write_json(ppath, probe)
        files.append(ppath)
    spath = os.path.join(out, "frequency_summary.json")
    _write_json(spath, summary)
    files.append(spath)
    return (3 if (opts.strict and not all_ok) else 0), files, {"monotone": all_ok}


def run_sequence(cfg, out, opts):
    params = cfg["params"]
    geom = build_geometry(cfg)
    spec = fq.SequenceSpec(
        geom, kind=params["kind"], n_terms=params["n_terms"], lambda0=params["lambda0"],
        growth=float(params["growth"]), base_offset=tuple(params["base_offset"]),
        dip_residue=float(params["dip_residue"]), c0_bound=float(params["c0_bound"]),
        c1=float(params["c1"]), tail_window=params["tail_window"],
    )
    rep = fq.sequence_harness(spec)
    path = os.path.join(out, "sequence_report.csv")
    fields = ("n", "sup_diff_Xprime", "sup_diff_center", "L1_diff", "L2_diff", "L4_diff", "integral_rho")
    _write_csv(path, fields, rep["rows"])
    meta = {key: rep[key] for key in ("empty_xprime", "xprime_sites", "bound_satisfied")}
    mpath = os.path.join(out, "sequence_flags.json")
    _write_json(mpath, meta)
    return 0, [path, mpath], meta


RUNNERS = {
    "target-check": run_target_check,
    "solve": run_solve,
    "deform": run_deform,
    "kuranishi": run_kuranishi,
    "curvature": run_curvature,
    "frequency": run_frequency,
    "sequence": run_sequence,
}


# ---------------------------------------------------------------------------
# entry point


def run(experiment, config_path, strict=False, threads=1):
    """Execute one experiment; returns the exit code."""

    opts = argparse.Namespace(strict=strict, threads=threads)
    try:
        with open(config_path) as fh:
            raw = fh.read()
        cfg = _filled(json.loads(raw), experiment)
    except (OSError, json.JSONDecodeError, ConfigError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    out = os.environ.get("GSWLAB_OUT", cfg["output_dir"])
    os.makedirs(out, exist_ok=True)
    manifest = {
        "experiment": experiment,
        "config_sha256": hashlib.sha256(raw.encode()).hexdigest(),
        "version": __version__,
        "seed": cfg["seed"],
        "strict": strict,
    }
    t0 = time.time()
    try:
        status, files, extra = RUNNERS[experiment](cfg, out, opts)
        manifest.update(extra.pop("failure", {}))
        manifest["extra"] = extra
    except Exception as err:  # numerical failure path: manifest still written
        status = 3
        files = []
        manifest.update(_failure(err))
    manifest["wall_time_s"] = time.time() - t0
    manifest["exit_code"] = status
    manifest["outputs"] = [os.path.basename(f) for f in files]
    _write_json(os.path.join(out, "manifest.json"), manifest)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(prog="gswlab", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--strict", action="store_true")
        p.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    return run(args.experiment, args.config, args.strict, args.threads)


if __name__ == "__main__":
    sys.exit(main())
