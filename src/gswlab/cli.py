"""Batch driver: config-file experiments with deterministic outputs.

Usage: gswlab <experiment> --config cfg.json [--strict] [--threads N]

Experiments: target-check, solve, deform, kuranishi, curvature,
frequency, sequence.  Configs are JSON with a fixed schema (unknown
keys rejected); every run emits a manifest.json carrying the config
hash, package version and wall time.  The dense experiments (solve,
deform, kuranishi, lattice curvature) use the forward stencil, whose
matrix transposes are the exact discrete adjoints, so `solve` takes no
`stencil`; `frequency` takes `stencil` "centered" (default) or
"forward".  Exit codes: 0 success, 2 config validation failure,
including a dense problem over the size limit (no outputs), 3 numerical
failure (and, with --strict, any rank-margin warning or failed internal
check).

The same config, seed and BLAS thread count produce byte-identical
CSV/JSON outputs (different OpenBLAS thread counts can change the last
bit of a dense solve); all floats are written with repr (shortest
round-trip form).
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import time
import traceback
import warnings
from concurrent.futures import ThreadPoolExecutor

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

EXPERIMENTS = (
    "target-check",
    "solve",
    "deform",
    "kuranishi",
    "curvature",
    "frequency",
    "sequence",
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config validation


def _check_keys(d, allowed, where):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def validate_config(cfg, experiment):
    _require(isinstance(cfg, dict), "config must be a JSON object")
    _check_keys(
        cfg,
        {"experiment", "seed", "output_dir", "geometry", "target", "group", "params"},
        "top level",
    )
    _require(cfg.get("experiment") == experiment, "config experiment mismatch")
    _require(isinstance(cfg.get("seed", 0), int), "seed must be an integer")
    params = cfg.get("params", {})
    _require(isinstance(params, dict), "params must be an object")
    geo = cfg.get("geometry", {})
    fixture = experiment == "curvature" and params.get("mode", "lattice") == "fixture"
    _require(geo or experiment == "target-check" or fixture, f"{experiment} needs a geometry")
    if geo:
        _check_keys(geo, {"dims", "h", "topology"}, "geometry")
        dims = geo.get("dims")
        _require(
            isinstance(dims, list) and len(dims) == 4 and all(isinstance(n, int) and n >= 2 for n in dims),
            "geometry.dims must be four integers >= 2",
        )
        _require(
            isinstance(geo.get("h"), (int, float)) and geo["h"] > 0,
            "geometry.h must be a positive number",
        )
        _require(geo.get("topology", "torus") in ("torus", "box"), "bad topology")
    _require(cfg.get("target", "flat_h") in ("flat_h", "cone_h_mod_z2"), "bad target")
    _require(cfg.get("group", "trivial") in ("trivial", "u1"), "bad group")
    allowed = {
        "target-check": {"samples", "fd_step", "fd_tol", "alg_tol"},
        "solve": {"init", "perturb_amplitude", "tol", "max_iter"},
        "deform": {"init", "complex_check", "export_matrix"},
        "kuranishi": {"init", "radius", "tol", "n_samples"},
        "curvature": {"mode", "init", "n_samples", "oracle", "oracle_eps"},
        "frequency": {
            "field",
            "multiset",
            "centers",
            "r_cells",
            "monotonicity_c0",
            "stencil",
            "probe_eps0",
            "probe",
        },
        "sequence": {
            "kind",
            "n_terms",
            "lambda0",
            "growth",
            "base_offset",
            "dip_residue",
            "c1",
            "c0_bound",
            "tail_window",
        },
    }[experiment]
    _check_keys(params, allowed, "params")
    if experiment == "curvature":
        _require(params.get("mode", "lattice") in ("lattice", "fixture"), "bad params.mode")
        eps = params.get("oracle_eps", 3e-3)
        _require(isinstance(eps, (int, float)) and np.isfinite(eps) and eps > 0, "bad params.oracle_eps")
    if experiment == "sequence":
        _require(params.get("kind", "fueter_dilation") in ("fueter_dilation", "vanishing"), "bad params.kind")
    if experiment == "frequency":
        _require(params.get("field", "z1") in ("z1", "z2", "z3", "sym_product"), "bad params.field")
        _require(params.get("stencil", "centered") in ("forward", "centered"), "bad params.stencil")
        try:  # the balls are known before any work
            _frequency_grid(params, build_geometry(cfg))
        except (TypeError, ValueError, IndexError) as err:
            raise ConfigError(f"bad frequency grid: {err}") from err
    init = params.get("init")
    if init is not None:
        _check_keys(
            init,
            {"kind", "amplitude", "offset", "path", "gauge_seed"},
            "params.init",
        )
        _require(
            init.get("kind")
            in ("random", "constant", "zero", "fueter_z1", "pure_gauge_constant", "snapshot"),
            "bad init.kind",
        )
    lattice = geo and (build_geometry(cfg), GaugeGroup(cfg.get("group", "trivial")))
    if init is not None and init.get("kind") == "snapshot":
        try:  # the run's lattice is the snapshot's, whatever geometry says
            u, a = lat.snapshot_load(init.get("path"))
        except (OSError, ValueError, KeyError, TypeError) as err:
            raise ConfigError(f"unreadable snapshot {init.get('path')!r}: {err}") from err
        lattice = (u.geom, a.group)
    dense = experiment in ("solve", "deform", "kuranishi") or (experiment == "curvature" and not fixture)
    if lattice and dense:
        geom, group = lattice
        lay = dfm.layout(geom, group)
        dim = max(lay.equations.dim + lay.gauge.dim, lay.tangent.dim)
        _require(dim <= dfm.MAX_DENSE_DIM, f"elliptic operator dimension {dim} is over "
                 f"the dense limit {dfm.MAX_DENSE_DIM}; use a smaller lattice")
    return cfg


def _frequency_grid(params, geom):
    """(radii, centers) of a frequency run: radii > 0 spaced >= 2h, balls in delta0 and the
    box, and with the probe a 4h ball at every centre."""
    radii = np.array(params.get("r_cells", range(8, 25, 2)), dtype=float) * geom.h
    centers = params.get("centers")
    centers = [[0.5 * w for w in geom.widths()]] if centers is None else centers
    gaps = np.diff(np.sort(radii))
    _require(np.all(radii > 0) and np.all(gaps >= 2 * geom.h - 1e-12), "radii > 0, spaced >= 2h")
    r = float(np.max(radii))
    _require(r <= geom.delta0() + 1e-12, f"radius {r:g} passes delta0 {geom.delta0():g}")
    for x in centers:
        _require(r <= lat.max_ball_radius(geom, x) + 1e-12, f"ball B({x}, {r:g}) leaves the box")
    if params.get("probe", False):
        fq.check_probe_centres(geom, centers)
    return radii, centers


def build_geometry(cfg):
    geo = cfg["geometry"]
    return LatticeGeom(tuple(geo["dims"]), float(geo["h"]), Topology(geo.get("topology", "torus")))


def build_configuration(cfg):
    geom = build_geometry(cfg)
    group = GaugeGroup(cfg.get("group", "trivial"))
    kind = TargetKind(cfg.get("target", "flat_h"))
    init = cfg.get("params", {}).get("init", {"kind": "random"})
    seed = cfg.get("seed", 0)
    k = init.get("kind", "random")
    amp = float(init.get("amplitude", 0.3))
    off = float(init.get("offset", 1.0))
    if k == "random":
        return gsw.random_config(geom, group, kind, seed, amp, off)
    if k == "constant":
        vals = np.zeros(geom.dims + (4,))
        vals[..., 0] = off
        return gsw.Configuration(
            lat.ConnectionField(geom, group), lat.SpinorField(geom, vals, kind)
        )
    if k == "zero":
        return gsw.Configuration(
            lat.ConnectionField(geom, group),
            lat.SpinorField(geom, np.zeros(geom.dims + (4,)), kind),
        )
    if k == "fueter_z1":
        u = fq.fueter_library(geom, "z1")
        vals = u.values.copy()
        vals[..., 0] += off
        vals[..., 1] += 0.1 * off
        return gsw.Configuration(
            lat.ConnectionField(geom, group), lat.SpinorField(geom, vals, kind)
        )
    if k == "pure_gauge_constant":
        vals = np.zeros(geom.dims + (4,))
        vals[..., 0] = off
        c = gsw.Configuration(
            lat.ConnectionField(geom, group), lat.SpinorField(geom, vals, kind)
        )
        g = gsw.random_gauge(geom, init.get("gauge_seed", seed + 1))
        return gsw.gauge_apply(g, c) if group is GaugeGroup.U1 else c
    if k == "snapshot":
        u, a = lat.snapshot_load(init["path"])
        return gsw.Configuration(a, u)
    raise ConfigError(f"unhandled init kind {k}")


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
    params = cfg.get("params", {})
    n = int(params.get("samples", 100))
    fd_step = float(params.get("fd_step", 1e-4))
    rng = np.random.default_rng(cfg.get("seed", 0))
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
        record(
            "complex_structure_square",
            np.abs(quat.mul(zeta, quat.mul(zeta, v)) + v).max(),
        )
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
        record(
            "rho0_potential",
            abs(tg.rho0(point) - 0.5 * quat.norm2(tg.chi0(point).vec)),
        )
        record(
            "grad_rho0_squared",
            abs(quat.norm2(tg.grad_rho0(point).vec) - 2.0 * tg.rho0(point)),
        )
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
        record(
            "sp1_isometry",
            abs(quat.inner(quat.mul(qq, v), quat.mul(qq, w)) - quat.inner(v, w)),
        )
        theta = rng.normal()
        e = quat.exp_i(theta)
        record(
            "u1_isometry",
            abs(quat.inner(quat.mul(v, e), quat.mul(w, e)) - quat.inner(v, w)),
        )
        record(
            "actions_commute",
            np.abs(quat.mul(quat.mul(qq, pp), e) - quat.mul(qq, quat.mul(pp, e))).max(),
        )
    path = os.path.join(out, "target_check.json")
    alg_tol = float(params.get("alg_tol", 1e-12))
    fd_tol = float(params.get("fd_tol", 1e-6))
    passed = all(
        v <= (fd_tol if k == "moment_map_fd" else alg_tol) for k, v in margins.items()
    )
    _write_json(path, {"margins": margins, "passed": passed, "samples": n})
    return (0 if passed or not opts.strict else 3), [path], {"passed": passed}


def run_solve(cfg, out, opts):
    params = cfg.get("params", {})
    c = build_configuration(cfg)
    s = gsw.manufacture(c)
    pert = float(params.get("perturb_amplitude", 1e-3))
    if pert:
        t = dfm.random_tangent(c, cfg.get("seed", 0) + 17, pert)
        if c.group is not GaugeGroup.TRIVIAL:
            c.a.links = c.a.links + t.b
        c.u.values = c.u.values + t.v
    tol = float(params.get("tol", 1e-10))
    files = []
    extra = {}
    try:
        sol, diag = gsw.solve_newton(c, s, tol, int(params.get("max_iter", 20)))
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
    params = cfg.get("params", {})
    c = build_configuration(cfg)
    s = gsw.manufacture(c)
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        rep = dfm.cohomology(c)
        payload = rep.as_dict()
        if params.get("complex_check", True):
            payload["complex_norm"] = dfm.complex_check(c, s)
            payload["residual_norm"] = gsw.residual_norm(c, s)
        warn_msgs = [str(w.message) for w in wlist]
    files = []
    path = os.path.join(out, "cohomology.json")
    _write_json(path, payload)
    files.append(path)
    if params.get("export_matrix", False):
        mpath = os.path.join(out, "elliptic_op.txt")
        dfm.export_triplets(mpath, dfm.elliptic_op(c))
        files.append(mpath)
    status = 3 if (opts.strict and warn_msgs) else 0
    return status, files, {"warnings": warn_msgs}


def run_kuranishi(cfg, out, opts):
    params = cfg.get("params", {})
    c = build_configuration(cfg)
    s = gsw.manufacture(c)
    rep = dfm.kuranishi(
        c,
        s,
        radius=float(params.get("radius", 1e-2)),
        tol=float(params.get("tol", 1e-11)),
        n_samples=int(params.get("n_samples", 20)),
        seed=cfg.get("seed", 0),
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
        row = {"sample_id": k}
        row.update({key: vals[key] for key in ("K_C", "bracket_norm_sq", "K_B", "gauss_terms", "K_M")})
        if with_oracle:
            mf, dim = mg.solution_chart_metric(system, cvec, v, w)
            row["oracle_K"] = mg.fd_oracle_curvature(mf, dim, eps=eps)
            row["rel_err"] = abs(row["oracle_K"] - row["K_M"]) / max(abs(row["K_M"]), 1e-300)
        else:
            row["oracle_K"] = float("nan")
            row["rel_err"] = float("nan")
        rows.append(row)
    return rows


def run_curvature(cfg, out, opts):
    params = cfg.get("params", {})
    mode = params.get("mode", "lattice")
    n = int(params.get("n_samples", 1))
    with_oracle = bool(params.get("oracle", True))
    eps = float(params.get("oracle_eps", 3e-3))
    seed = cfg.get("seed", 0)
    if mode == "fixture":
        system = mg.HopfFixtureSystem()
        cvec = system.center()
    else:
        c = build_configuration(cfg)
        s = gsw.manufacture(c)
        system = mg.LatticeSystem(c, s)
        cvec = system.center()
    rows = _curvature_sample_rows(system, cvec, seed, n, with_oracle, eps)
    path = os.path.join(out, "curvature_samples.csv")
    _write_csv(path, mg.CSV_FIELDS, rows)
    worst = max((r["rel_err"] for r in rows if np.isfinite(r["rel_err"])), default=0.0)
    status = 3 if (opts.strict and with_oracle and worst > 1e-3) else 0
    return status, [path], {"worst_rel_err": worst}


def run_frequency(cfg, out, opts):
    params = cfg.get("params", {})
    geom = build_geometry(cfg)
    stencil = Stencil(params.get("stencil", "centered"))
    kind = params.get("field", "z1")
    u = fq.fueter_library(geom, kind, multiset=tuple(params.get("multiset", (1, 2))))
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
            checks = {
                "fprime_max_rel_dev": float("nan"),
                "eq14_max_rel_dev": float("nan"),
                "fprime_dev": nanarr,
                "eq14_dev": nanarr,
            }
        rows = []
        for k, row in enumerate(prof.rows()):
            row["f_prime_check"] = float(checks["fprime_dev"][k]) if np.isfinite(
                checks["fprime_dev"][k]
            ) else float("nan")
            row["eq14_check"] = float(checks["eq14_dev"][k]) if np.isfinite(
                checks["eq14_dev"][k]
            ) else float("nan")
            rows.append(row)
        mono = fq.monotonicity_scan(prof, float(params.get("monotonicity_c0", 0.0)))
        return idx, rows, mono, checks

    with ThreadPoolExecutor(max_workers=max(1, opts.threads)) as pool:
        results = list(pool.map(one_center, enumerate(centers)))
    summary = {}
    all_ok = True
    for idx, rows, mono, checks in results:
        path = os.path.join(out, f"profile_{idx:03d}.csv")
        _write_csv(
            path,
            ("r", "F", "f", "N", "sigma", "kappa", "f_prime_check", "eq14_check"),
            rows,
        )
        files.append(path)
        summary[f"center_{idx:03d}"] = {
            "monotonicity": mono,
            "fprime_max_rel_dev": checks["fprime_max_rel_dev"],
            "eq14_max_rel_dev": checks["eq14_max_rel_dev"],
        }
        all_ok = all_ok and mono["passed"]
    if params.get("probe", False):
        probe = fq.regularity_probe(
            c, centers, float(params.get("probe_eps0", 1e-2)), stencil, fields
        )
        ppath = os.path.join(out, "regularity_probe.json")
        _write_json(ppath, probe)
        files.append(ppath)
    spath = os.path.join(out, "frequency_summary.json")
    _write_json(spath, summary)
    files.append(spath)
    return (3 if (opts.strict and not all_ok) else 0), files, {"monotone": all_ok}


def run_sequence(cfg, out, opts):
    params = cfg.get("params", {})
    geom = build_geometry(cfg)
    spec = fq.SequenceSpec(
        geom,
        kind=params.get("kind", "fueter_dilation"),
        n_terms=int(params.get("n_terms", 6)),
        lambda0=params.get("lambda0"),
        growth=float(params.get("growth", 2.0)),
        base_offset=tuple(params.get("base_offset", (1.0, 0.0, 0.0, 0.0))),
        dip_residue=float(params.get("dip_residue", 0.25)),
        c0_bound=float(params.get("c0_bound", 10.0)),
        c1=float(params.get("c1", 4.0)),
        tail_window=int(params.get("tail_window", 3)),
    )
    rep = fq.sequence_harness(spec)
    path = os.path.join(out, "sequence_report.csv")
    _write_csv(
        path,
        (
            "n",
            "sup_diff_Xprime",
            "sup_diff_center",
            "L1_diff",
            "L2_diff",
            "L4_diff",
            "integral_rho",
        ),
        rep["rows"],
    )
    meta = {
        "empty_xprime": rep["empty_xprime"],
        "xprime_sites": rep["xprime_sites"],
        "bound_satisfied": rep["bound_satisfied"],
    }
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

    class Opts:
        pass

    opts = Opts()
    opts.strict = strict
    opts.threads = threads

    try:
        with open(config_path) as fh:
            raw = fh.read()
        cfg = json.loads(raw)
        validate_config(cfg, experiment)
    except (OSError, json.JSONDecodeError, ConfigError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    out = os.environ.get("GSWLAB_OUT", cfg.get("output_dir", "."))
    os.makedirs(out, exist_ok=True)
    manifest = {
        "experiment": experiment,
        "config_sha256": hashlib.sha256(raw.encode()).hexdigest(),
        "version": __version__,
        "seed": cfg.get("seed", 0),
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
