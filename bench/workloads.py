"""The three benchmark workloads, each as setup / run / check.

``setup(seed)`` builds every input from the seed (this is the set-up the
benchmark times), ``run(inputs, wrap)`` is one closed-loop iteration
through the public API of gswlab, and ``check(result, ref)`` is the
correctness gate of that iteration: it returns a list of failure
messages, empty when the result means what it should.  The gates test
closed forms, exact identities and recorded invariants with stated
tolerances, never bit-equality with today's arithmetic.

``wrap(fn, name)`` is the identity in untraced runs; the traced run
passes the tracer's wrapper so that closures handed from one layer to
another (the oracle's ``metric_fn``) get a span of their own.
"""

import warnings
from collections import namedtuple

import numpy as np

from gswlab import deformation as dfm
from gswlab import frequency as fq
from gswlab import gsw
from gswlab import lattice as lat
from gswlab import moduli_geom as mg
from gswlab import quaternion as quat
from gswlab.gsw import Configuration
from gswlab.lattice import ConnectionField, LatticeGeom, SpinorField, Stencil, Topology
from gswlab.targets import GaugeGroup

Workload = namedtuple("Workload", "setup run check")


def no_wrap(fn, name):
    return fn


def interior_sup(geom, f, margin_phys=0.25):
    """Sup of |f| over sites at least margin_phys from every box face."""
    cells = int(np.ceil(margin_phys / geom.h))
    inner = tuple(slice(cells, n - cells) for n in geom.dims)
    return float(np.abs(np.asarray(f)[inner]).max())


# ---------------------------------------------------------------------------
# field_box: large-box stencils, quaternion products and radial quadrature

#: smooth U(1) box for manufacture / residual_norm / Weitzenboeck
U1_CELLS = 12
#: trivial box for the degree-4 Fueter product and its identities
SYM_CELLS = 12
#: z1 box for the radial profile; radii in cells, spaced 2h as required
Z1_CELLS = 32
Z1_RADII = (5.5, 7.5, 9.5, 11.5, 13.5, 15.5)
#: eps0 above pi^2 delta0^2, so the z1 critical radius is the full ball
PROBE_EPS0 = 4.0
PROBE_CENTRES = 2


def smooth_u1_box(n, rng):
    """Half-period smooth U(1) data on a unit box, amplitudes jittered by 3%."""
    geom = LatticeGeom((n + 1,) * 4, 1.0 / n, Topology.BOX)
    x = geom.coords()
    k = np.pi
    a = 1.0 + 0.03 * rng.uniform(-1.0, 1.0, size=8)
    uv = np.zeros(geom.dims + (4,))
    uv[..., 0] = 1.0 + 0.3 * a[0] * np.sin(k * x[..., 0]) * np.cos(k * x[..., 1])
    uv[..., 1] = 0.4 * a[1] * np.cos(k * x[..., 2])
    uv[..., 2] = 0.2 * a[2] * np.sin(k * x[..., 3]) * np.sin(k * x[..., 0])
    uv[..., 3] = 0.1 * a[3] * np.cos(k * x[..., 1])
    links = np.zeros(geom.dims + (4,))
    links[..., 0] = 0.5 * a[4] * np.sin(k * x[..., 1])
    links[..., 1] = 0.3 * a[5] * np.cos(k * x[..., 2])
    links[..., 2] = 0.2 * a[6] * np.sin(k * x[..., 0]) * np.cos(k * x[..., 3])
    links[..., 3] = 0.15 * a[7] * np.cos(k * x[..., 0])
    return Configuration(ConnectionField(geom, GaugeGroup.U1, links), SpinorField(geom, uv))


def _box_centre(geom, rng, cells):
    """Box centre moved by up to `cells` lattice spacings along each axis."""
    off = rng.uniform(-cells, cells, size=4) * geom.h
    return tuple(0.5 * w + o for w, o in zip(geom.widths(), off))


def setup_field_box(seed):
    rng = np.random.default_rng([seed, 1])
    u1 = smooth_u1_box(U1_CELLS, rng)
    sym_geom = LatticeGeom((SYM_CELLS + 1,) * 4, 1.0 / SYM_CELLS, Topology.BOX)
    z1_geom = LatticeGeom((Z1_CELLS + 1,) * 4, 1.0 / Z1_CELLS, Topology.BOX)
    z1_centre = _box_centre(z1_geom, rng, 0.5)
    z1 = fq.fueter_library(z1_geom, "z1", center=z1_centre)
    return {
        "u1": u1,
        "sym_geom": sym_geom,
        "sym_centre": _box_centre(sym_geom, rng, 0.1),
        "z1": Configuration(ConnectionField(z1_geom), z1),
        "z1_centre": z1_centre,
        "z1_radii": np.asarray(Z1_RADII) * z1_geom.h,
        "probe_centres": [_box_centre(z1_geom, rng, 2.0) for _ in range(PROBE_CENTRES)],
    }


def run_field_box(inp, wrap=no_wrap):
    c = inp["u1"]
    sources = gsw.manufacture(c)
    out = {"manufactured_residual": gsw.residual_norm(c, sources)}
    wz = fq.weitzenbock_residual(c, stencil=Stencil.CENTERED)
    out["weitzenbock_sup"] = interior_sup(c.geom, wz)

    geom = inp["sym_geom"]
    u = fq.fueter_library(geom, "sym_product", center=inp["sym_centre"], multiset=(1, 1, 2, 2))
    cs = Configuration(ConnectionField(geom), u)
    out["bochner_sup"] = interior_sup(geom, fq.bochner_residual(cs, Stencil.CENTERED))
    sd = fq.stress_div_residual(cs, stencil=Stencil.CENTERED)
    out["stress_div_sup"] = interior_sup(geom, np.sqrt(np.sum(sd**2, axis=-1)))

    cz = inp["z1"]
    prof = fq.radial_profile(cz, inp["z1_centre"], inp["z1_radii"])
    out["radii"] = prof.radii
    out["f"] = prof.f_boundary
    out["F"] = prof.f_scaled_energy
    out["N"] = prof.frequency
    ode = fq.ode_checks(prof)
    out["fprime_dev"] = ode["fprime_max_rel_dev"]
    out["eq14_dev"] = ode["eq14_max_rel_dev"]
    out["monotone"] = fq.monotonicity_scan(prof)["passed"]
    out["probe"] = fq.regularity_probe(cz, inp["probe_centres"], eps0=PROBE_EPS0)
    out["probe_max_radius"] = [
        lat.max_ball_radius(cz.geom, x) for x in inp["probe_centres"]
    ]
    out["probe_rho0_closed"] = [
        0.5 * ((x[0] - inp["z1_centre"][0]) ** 2 + (x[1] - inp["z1_centre"][1]) ** 2)
        for x in inp["probe_centres"]
    ]
    out["h"] = cz.geom.h
    return out


def check_field_box(res, ref):
    bad = []
    if not res["manufactured_residual"] <= ref["manufactured_residual_max"]:
        bad.append("manufactured residual %.3e" % res["manufactured_residual"])
    for key in ("weitzenbock_sup", "bochner_sup", "stress_div_sup"):
        dev = abs(res[key] / ref[key] - 1.0)
        if not dev <= ref["identity_rel_tol"]:
            bad.append("%s %.6e is %.1f%% off %.6e" % (key, res[key], 100 * dev, ref[key]))
    r = res["radii"]
    closed = {"f": np.pi**2 * r**5, "F": np.pi**2 * r**2, "N": np.ones_like(r)}
    for key, exact in closed.items():
        dev = float(np.max(np.abs(res[key] / exact - 1.0)))
        if not dev <= ref["z1_closed_form_tol"]:
            bad.append("z1 %s deviates %.4f from its closed form" % (key, dev))
    for key in ("fprime_dev", "eq14_dev"):
        if not res[key] <= ref["ode_tol"]:
            bad.append("ode check %s %.4f" % (key, res[key]))
    if not res["monotone"]:
        bad.append("monotonicity scan failed")
    for entry, rmax, rho in zip(res["probe"], res["probe_max_radius"], res["probe_rho0_closed"]):
        if entry["flag"] != "full" or entry["r_x"] != rmax:
            bad.append("critical radius %r (%s), expected the full ball" % (entry["r_x"], entry["flag"]))
        if not abs(entry["rho0"] - rho) <= res["h"] ** 2:
            bad.append("rho0 %.6f vs closed form %.6f" % (entry["rho0"], rho))
    return bad


# ---------------------------------------------------------------------------
# curvature_box: dual-route curvature on the smallest U(1) Fueter box

CURV_DIMS = (2, 2, 2, 2)
ORACLE_EPS = 3e-3


def setup_curvature_box(seed):
    rng = np.random.default_rng([seed, 2])
    geom = LatticeGeom(CURV_DIMS, 1.0 / CURV_DIMS[0], Topology.BOX)
    vals = fq.fueter_library(geom, "z1").values.copy()
    vals[..., 0] += rng.uniform(0.7, 0.9)
    vals[..., 1] += rng.uniform(0.05, 0.15)
    c = Configuration(ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, vals))
    system = mg.LatticeSystem(c, gsw.manufacture(c))
    return {
        "system": system,
        "cvec": system.center(),
        "plane_seed": int(rng.integers(2**31)),
        "fixture": mg.HopfFixtureSystem(),
    }


def run_curvature_box(inp, wrap=no_wrap):
    fix = inp["fixture"]
    cf = fix.center()
    v, w = quat.QJ.copy(), quat.QK.copy()
    out = {"fixture_KB": mg.oneill_sectional_vec(fix, cf, v, w)["K_B"]}
    out["fixture_KM"] = mg.gauss_sectional_vec(fix, cf, v, w)["K_M"]
    mf, dim = mg.slice_chart_metric(fix, cf, v, w)
    out["fixture_oracle_B"] = mg.fd_oracle_curvature(wrap(mf, "moduli_geom.metric_fn"), dim)
    mf, dim = mg.solution_chart_metric(fix, cf, v, w)
    out["fixture_oracle_M"] = mg.fd_oracle_curvature(wrap(mf, "moduli_geom.metric_fn"), dim)

    system, c0 = inp["system"], inp["cvec"]
    v, w = mg.sample_solution_plane(system, c0, seed=inp["plane_seed"])[0]
    out["K_M"] = mg.gauss_sectional_vec(system, c0, v, w)["K_M"]
    mf, dim = mg.solution_chart_metric(system, c0, v, w)
    out["chart_dim"] = dim
    out["oracle_K"] = mg.fd_oracle_curvature(wrap(mf, "moduli_geom.metric_fn"), dim, eps=ORACLE_EPS)
    return out


def check_curvature_box(res, ref):
    bad = []
    tol = ref["fixture_tol"]
    if not abs(res["fixture_oracle_B"] - res["fixture_KB"]) <= tol:
        bad.append("fixture oracle %.9f vs K_B %.9f" % (res["fixture_oracle_B"], res["fixture_KB"]))
    if not abs(res["fixture_oracle_M"] - res["fixture_KM"]) <= tol:
        bad.append("fixture oracle %.9f vs K_M %.9f" % (res["fixture_oracle_M"], res["fixture_KM"]))
    for key, exact in (("fixture_KB", 3.0), ("fixture_KM", 4.0)):
        if not abs(res[key] - exact) <= ref["closed_form_tol"]:
            bad.append("%s %.12f, closed form %.1f" % (key, res[key], exact))
    rel = abs(res["oracle_K"] - res["K_M"]) / max(abs(res["K_M"]), 1e-300)
    if not rel <= ref["lattice_rel_tol"]:
        bad.append("lattice oracle %.6e vs K_M %.6e (rel %.2e)" % (res["oracle_K"], res["K_M"], rel))
    if res["chart_dim"] != ref["chart_dim"]:
        bad.append("chart dimension %d, recorded %d" % (res["chart_dim"], ref["chart_dim"]))
    return bad


# ---------------------------------------------------------------------------
# newton_torus: dense Newton, cohomology and the Kuranishi chart

TORUS_DIMS = (3, 3, 3, 3)
TORUS_H = 0.25
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 20
PERTURBATION = 0.05
CHART_STEP = 1e-2
CHART_SOLVES = 4


def setup_newton_torus(seed):
    rng = np.random.default_rng([seed, 3])
    geom = LatticeGeom(TORUS_DIMS, TORUS_H, Topology.TORUS)
    c = gsw.random_config(geom, GaugeGroup.U1, seed=int(rng.integers(2**31)), amplitude=0.3)
    sources = gsw.manufacture(c)
    t = dfm.random_tangent(c, int(rng.integers(2**31)), PERTURBATION)
    start = Configuration(
        ConnectionField(geom, GaugeGroup.U1, c.a.links + t.b), SpinorField(geom, c.u.values + t.v)
    )
    zero = Configuration(
        ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, np.zeros(geom.dims + (4,)))
    )
    return {
        "start": start,
        "sources": sources,
        "zero": zero,
        "zero_sources": gsw.manufacture(zero),
        "chart_rng": int(rng.integers(2**31)),
    }


def run_newton_torus(inp, wrap=no_wrap):
    out = {}
    try:
        sol, diag = gsw.solve_newton(inp["start"], inp["sources"], NEWTON_TOL, NEWTON_MAX_ITER)
    except gsw.NewtonError as err:
        out["newton_converged"] = False
        diag = err.diagnostics
    else:
        out["newton_converged"] = True
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dfm.RankMarginWarning)
            rep = dfm.cohomology(sol)
        out["cohomology"] = [rep.h0, rep.h1, rep.h2, rep.index]
        out["solution_u"] = sol.u.values
    out["newton_residual"] = diag[-1]["residual_norm"]

    chart = dfm.KuranishiChart(inp["zero"], inp["zero_sources"])
    out["chart_dims"] = [chart.h1_dim, chart.h2_dim]
    out["kappa0"], _ = chart.kappa_norm(np.zeros(chart.h1_dim))
    rng = np.random.default_rng(inp["chart_rng"])
    converged = []
    for _ in range(CHART_SOLVES):
        xi = rng.normal(size=chart.h1_dim)
        _, _, info = chart.solve(CHART_STEP * xi / np.linalg.norm(xi))
        converged.append(bool(info["converged"]))
    out["chart_converged"] = converged
    return out


def check_newton_torus(res, ref):
    bad = []
    if not res["newton_converged"]:
        bad.append("Newton did not converge (residual %.3e)" % res["newton_residual"])
    elif not res["newton_residual"] <= NEWTON_TOL:
        bad.append("Newton residual %.3e" % res["newton_residual"])
    if res.get("cohomology") != ref["cohomology"]:
        bad.append("(h0, h1, h2, index) %s, recorded %s" % (res.get("cohomology"), ref["cohomology"]))
    if res["chart_dims"] != ref["chart_dims"]:
        bad.append("chart (h1, h2) %s, recorded %s" % (res["chart_dims"], ref["chart_dims"]))
    if not res["kappa0"] <= ref["kappa0_max"]:
        bad.append("kappa(0) %.3e" % res["kappa0"])
    if not all(res["chart_converged"]):
        bad.append("chart solve did not converge")
    return bad


WORKLOADS = {
    "field_box": Workload(setup_field_box, run_field_box, check_field_box),
    "curvature_box": Workload(setup_curvature_box, run_curvature_box, check_curvature_box),
    "newton_torus": Workload(setup_newton_torus, run_newton_torus, check_newton_torus),
}
