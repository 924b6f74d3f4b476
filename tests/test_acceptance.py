"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
stated inline; the criteria are evaluated at the configurations named
in their descriptions (dense-analysis lattices up to 4^4, field-level
lattices up to the 48^4-class box).
"""

import json
import time

import numpy as np

import gswlab.quaternion as quat
import gswlab.targets as tg
from gswlab import cli, deformation as dfm, frequency as fq, gsw, lattice as lat
from gswlab import moduli_geom as mg
from gswlab.gsw import Configuration
from gswlab.lattice import BallSpec, ConnectionField, LatticeGeom, SpinorField, Stencil, Topology
from gswlab.targets import GaugeGroup
from tests_helpers import box_fueter_config


def report(num, name, ok, detail, t0, budget):
    wall = time.time() - t0
    line = f"ACCEPTANCE {num} [{name}] {'PASS' if ok else 'FAIL'} ({wall:.1f}s): {detail}"
    print("\n" + line)
    assert ok, line
    assert wall < budget, f"criterion {num} exceeded its {budget}s budget ({wall:.1f}s)"


def test_criterion_1_algebraic_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)
    alg, fd = 0.0, 0.0
    for _ in range(100):
        p, q, v, w = (rng.normal(size=4) for _ in range(4))
        alg = max(alg, abs(quat.norm2(quat.mul(p, q)) - quat.norm2(p) * quat.norm2(q)))
        zu = rng.normal(size=3)
        zu /= np.linalg.norm(zu)
        zeta = quat.from_imag(zu)
        alg = max(alg, np.abs(quat.mul(zeta, quat.mul(zeta, v)) + v).max())
        alg = max(
            alg,
            np.abs(
                quat.mul(quat.QI, quat.mul(quat.QJ, v)) - quat.mul(quat.QK, v)
            ).max(),
        )
        uq = rng.normal(size=4)
        uq /= quat.norm(uq)
        alg = max(
            alg,
            np.abs(
                quat.mul(uq, quat.mul(zeta, quat.mul(quat.conj(uq), v)))
                - quat.mul(quat.mul(uq, quat.mul(zeta, quat.conj(uq))), v)
            ).max(),
        )
        point = tg.TargetPoint(rng.normal(size=4) + np.array([2.0, 0, 0, 0]))
        _, _, tracefree = tg.chi_components(point)
        alg = max(alg, np.abs(tracefree).max())
        alg = max(
            alg, abs(tg.rho0(point) - 0.5 * quat.norm2(tg.chi0(point).vec))
        )
        alg = max(
            alg,
            abs(quat.norm2(tg.grad_rho0(point).vec) - 2 * tg.rho0(point)),
        )
        # isometry of both actions
        alg = max(
            alg,
            abs(quat.inner(quat.mul(uq, v), quat.mul(uq, w)) - quat.inner(v, w)),
        )
        # moment-map FD oracle at step 1e-4
        h = 1e-4
        xi = rng.normal()
        pp = point.rep
        mu_p = tg.moment_map(tg.TargetPoint(pp + h * v), GaugeGroup.U1)
        mu_m = tg.moment_map(tg.TargetPoint(pp - h * v), GaugeGroup.U1)
        fd_val = (mu_p(zeta, xi) - mu_m(zeta, xi)) / (2 * h)
        pairing = tg.omega(
            zeta, tg.fundamental_vector_g(GaugeGroup.U1, xi, point), tg.TangentM(v, point)
        )
        fd = max(fd, abs(fd_val - pairing))
    ok = alg <= 1e-12 and fd <= 1e-6
    report(1, "algebraic suite", ok, f"alg margin {alg:.2e} (<=1e-12), FD margin {fd:.2e} (<=1e-6)", t0, 5.0)


def test_criterion_2_clifford_dirac_suite():
    t0 = time.time()
    # anticommutator relations
    rng = np.random.default_rng(102)
    anti = 0.0
    for i in range(4):
        for j in range(4):
            vp, vm = rng.normal(size=4), rng.normal(size=4)
            ei, ej = quat.BASIS[i], quat.BASIS[j]
            a1 = lat.clifford_pair(ei, *lat.clifford_pair(ej, vp, vm))
            a2 = lat.clifford_pair(ej, *lat.clifford_pair(ei, vp, vm))
            expect = (-2.0 * (i == j) * vp, -2.0 * (i == j) * vm)
            anti = max(anti, np.abs(a1[0] + a2[0] - expect[0]).max())
            anti = max(anti, np.abs(a1[1] + a2[1] - expect[1]).max())
    # Dirac kernel on 16^4
    geom = LatticeGeom((16,) * 4, 1.0 / 16, Topology.TORUS)
    geom_box = LatticeGeom((17,) * 4, 1.0 / 16, Topology.BOX)
    z1 = fq.fueter_library(geom_box, "z1")
    dz1 = float(np.abs(lat.dirac(z1, ConnectionField(geom_box), Stencil.CENTERED)).max())
    # quadrature self-tests at r = 8h
    one = np.ones(geom.dims)
    r = 0.5
    spec = BallSpec((0.5,) * 4, r)
    vol_err = abs(lat.ball_integral(geom, one, spec) / (np.pi**2 * r**4 / 2) - 1)
    area_err = abs(lat.shell_integral(geom, one, spec) / (2 * np.pi**2 * r**3) - 1)
    ok = anti <= 1e-12 and dz1 <= 1e-12 and vol_err <= 0.01 and area_err <= 0.01
    report(
        2,
        "Clifford/Dirac suite",
        ok,
        f"anticommutator {anti:.2e}, D z1 {dz1:.2e}, ball {vol_err:.4f}, shell {area_err:.2e}",
        t0,
        30.0,
    )


def test_criterion_3_equivariance_complex_index():
    t0 = time.time()
    geom = LatticeGeom((4,) * 4, 0.25, Topology.TORUS)
    # exact equivariance on a generic configuration with sources
    c_any = gsw.random_config(geom, GaugeGroup.U1, seed=103, amplitude=0.5)
    s_any = gsw.manufacture(c_any)
    g = gsw.random_gauge(geom, 104)
    d1, sd1 = gsw.residual(gsw.gauge_apply(g, c_any), gsw.gauge_apply_sources(g, c_any, s_any))
    d0, sd0 = gsw.residual(c_any, s_any)
    equi = max(
        np.abs(d1 - gsw.gauge_apply_spinor_row(g, d0)).max(),
        np.abs(sd1.values - sd0.values).max(),
    )
    # manufactured solution with gauge-invariant sources: gauge orbit of a constant
    vals = np.zeros(geom.dims + (4,))
    vals[..., 0] = 1.3
    vals[..., 2] = 0.4
    c = gsw.gauge_apply(
        gsw.random_gauge(geom, 105),
        Configuration(ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, vals)),
    )
    s = gsw.manufacture(c)
    res = gsw.residual_norm(c, s)
    cnorm = dfm.complex_check(c, s)
    rep = dfm.cohomology(c)
    op = dfm.elliptic_op(c)
    index_ok = (
        rep.index == -(rep.h0 - rep.h1 + rep.h2)
        and rep.index == op.col_space.dim - op.row_space.dim
    )
    ok = equi <= 1e-12 and res <= 1e-12 and cnorm <= 1e-9 and index_ok
    report(
        3,
        "equivariance/complex identity",
        ok,
        f"equivariance {equi:.2e}, residual {res:.2e}, |DF o D| {cnorm:.2e}, "
        f"(h0,h1,h2)=({rep.h0},{rep.h1},{rep.h2}) index {rep.index}",
        t0,
        120.0,
    )


def test_criterion_4_kuranishi():
    t0 = time.time()
    # obstructed reducible point: u = 0 on the 4^4 torus
    geom = LatticeGeom((4,) * 4, 0.25, Topology.TORUS)
    c0 = Configuration(
        ConnectionField(geom, GaugeGroup.U1),
        SpinorField(geom, np.zeros(geom.dims + (4,))),
    )
    s0 = gsw.manufacture(c0)
    chart = dfm.KuranishiChart(c0, s0)
    kappa0, _ = chart.kappa_norm(np.zeros(chart.h1_dim))
    eps = 1e-4
    slopes = []
    for k in (0, chart.h1_dim // 2):
        e = np.zeros(chart.h1_dim)
        e[k] = 1.0
        _, kp, _ = chart.solve(eps * e)
        _, km, _ = chart.solve(-eps * e)
        slopes.append(np.linalg.norm(kp - km) / (2 * eps))
    dkappa = max(slopes)
    # regular sample: 3^4 box Fueter solution, h2 = 0
    c1, s1 = box_fueter_config(3)
    rep = dfm.kuranishi(c1, s1, radius=5e-3, n_samples=20, seed=106)
    kmax = max(s["kappa_norm"] for s in rep.samples)
    rmax = max(s["proj_residual"] for s in rep.samples)
    conv = all(s["converged"] for s in rep.samples)
    ok = (
        kappa0 <= 1e-12
        and dkappa <= 1e-6
        and rep.regular
        and conv
        and kmax <= 1e-8
        and rmax <= 1e-8
    )
    report(
        4,
        "Kuranishi chart",
        ok,
        f"kappa(0) {kappa0:.2e}, d kappa(0) {dkappa:.2e}, h2={rep.h_dims[2]}, "
        f"20 samples max kappa {kmax:.2e} max residual {rmax:.2e}",
        t0,
        300.0,
    )


def test_criterion_5_curvature_dual_path():
    t0 = time.time()
    # built-in fixture: closed forms 3 and 4
    sysf = mg.HopfFixtureSystem()
    cf = sysf.center()
    v, w = quat.QJ.copy(), quat.QK.copy()
    base = mg.oneill_sectional_vec(sysf, cf, v, w)
    full = mg.gauss_sectional_vec(sysf, cf, v, w)
    mf, dim = mg.slice_chart_metric(sysf, cf, v, w)
    fix_b = abs(mg.fd_oracle_curvature(mf, dim, eps=1e-3) - base["K_B"])
    mf2, dim2 = mg.solution_chart_metric(sysf, cf, v, w)
    fix_m = abs(mg.fd_oracle_curvature(mf2, dim2, eps=1e-3) - full["K_M"])
    fixture_ok = fix_b <= 1e-6 and fix_m <= 1e-6 and abs(full["K_M"] - 4.0) <= 1e-9

    # 3^4 lattice manufactured solution (box Fueter): Gauss route
    c, s = box_fueter_config(3)
    sys_ = mg.LatticeSystem(c, s)
    c0 = sys_.center()
    v3, w3 = mg.sample_solution_plane(sys_, c0, seed=107)[0]
    out = mg.gauss_sectional_vec(sys_, c0, v3, w3)
    mf3, dim3 = mg.solution_chart_metric(sys_, c0, v3, w3)
    k_or = mg.fd_oracle_curvature(mf3, dim3, eps=3e-3)
    rel = abs(k_or - out["K_M"]) / max(abs(out["K_M"]), 1e-300)

    # Omega antisymmetry and on-shell Pi symmetry
    rng = np.random.default_rng(108)
    va = rng.normal(size=c.geom.dims + (4,))
    wa = rng.normal(size=c.geom.dims + (4,))
    om_anti = np.abs(mg.omega_form(c, va, wa) + mg.omega_form(c, wa, va)).max()
    pi_vw = mg.second_fundamental_vec(sys_, c0, v3, w3)
    pi_wv = mg.second_fundamental_vec(sys_, c0, w3, v3)
    pi_sym = sys_.tan_space.norm(pi_vw - pi_wv)
    ok = fixture_ok and rel <= 1e-3 and om_anti <= 1e-12 and pi_sym <= 1e-9
    report(
        5,
        "curvature dual path",
        ok,
        f"fixture dev (B*, M*) = ({fix_b:.1e}, {fix_m:.1e}) <= 1e-6; "
        f"3^4 rel err {rel:.2e} <= 1e-3 (K_M {out['K_M']:.5f}); "
        f"Omega antisym {om_anti:.1e}, Pi sym {pi_sym:.1e}",
        t0,
        600.0,
    )


def test_criterion_6_frequency_suite():
    t0 = time.time()
    # 48^4-class box (49 sites per axis, h = 1/48; the memory-bound option)
    geom = LatticeGeom((49,) * 4, 1.0 / 48, Topology.BOX)
    c = Configuration(ConnectionField(geom), fq.fueter_library(geom, "z1"))
    center = tuple(0.5 * wd for wd in geom.widths())
    radii = np.arange(8, 25, 2) * geom.h  # [8h, 24h], delta0 = 24h
    prof = fq.radial_profile(c, center, radii)
    window = radii <= geom.delta0() / 2 + 1e-12  # 8h <= r <= delta0/2
    f_dev = np.abs(prof.f_boundary / (np.pi**2 * radii**5) - 1)[window].max()
    big_f_dev = np.abs(prof.f_scaled_energy / (np.pi**2 * radii**2) - 1)[window].max()
    n_dev = np.abs(prof.frequency - 1)[window].max()
    checks = fq.ode_checks(prof)
    del prof, c
    # corpus monotonicity: 20 fields x 5 centers on a 16^4-class box
    geom2 = LatticeGeom((17,) * 4, 1.0 / 16, Topology.BOX)
    corpus = fq.fueter_corpus(geom2, 20)
    w2 = geom2.widths()
    centers = [
        tuple(0.5 * wd for wd in w2),
        (0.47 * w2[0], 0.5 * w2[1], 0.53 * w2[2], 0.5 * w2[3]),
        (0.53 * w2[0], 0.47 * w2[1], 0.5 * w2[2], 0.5 * w2[3]),
        (0.5 * w2[0], 0.53 * w2[1], 0.47 * w2[2], 0.53 * w2[3]),
        (0.52 * w2[0], 0.5 * w2[1], 0.48 * w2[2], 0.47 * w2[3]),
    ]
    radii2 = np.array([3, 5, 7]) * geom2.h  # fits around the offset centers
    scans = 0
    mono_ok = True
    for field in corpus:
        cc = Configuration(ConnectionField(geom2), field)
        fields = fq.profile_fields(cc)
        for ctr in centers:
            p = fq.radial_profile(cc, ctr, radii2, fields=fields)
            mono_ok = mono_ok and fq.monotonicity_scan(p, 0.0)["passed"]
            scans += 1
    ok = (
        f_dev <= 0.02
        and big_f_dev <= 0.02
        and n_dev <= 0.02
        and checks["fprime_max_rel_dev"] <= 0.03
        and checks["eq14_max_rel_dev"] <= 0.03
        and mono_ok
        and scans == 100
    )
    report(
        6,
        "frequency suite",
        ok,
        f"48^4-class z1: f dev {f_dev:.4f}, F dev {big_f_dev:.4f}, N dev {n_dev:.4f} (<=2%); "
        f"f' dev {checks['fprime_max_rel_dev']:.4f}, eq-14 dev {checks['eq14_max_rel_dev']:.4f} (<=3%); "
        f"{scans} monotonicity scans {'pass' if mono_ok else 'FAIL'}",
        t0,
        600.0,
    )


def test_criterion_7_convergence_orders():
    t0 = time.time()
    from tests_helpers import interior_sup, smooth_u1_box_config  # local helper below

    orders = {}
    sups = []
    for n in (8, 16, 32):
        c = smooth_u1_box_config(n)
        sups.append(
            interior_sup(c.geom, fq.weitzenbock_residual(c, stencil=Stencil.CENTERED), 0.25)
        )
    orders["weitzenbock"] = [np.log2(sups[k] / sups[k + 1]) for k in range(2)]
    for name, fn in (
        ("bochner", lambda cc: fq.bochner_residual(cc, Stencil.CENTERED)),
        (
            "stress_div",
            lambda cc: np.sqrt(
                np.sum(fq.stress_div_residual(cc, stencil=Stencil.CENTERED) ** 2, -1)
            ),
        ),
    ):
        sups = []
        for n in (8, 16, 32):
            geom = LatticeGeom((n + 1,) * 4, 1.0 / n, Topology.BOX)
            u = fq.fueter_library(geom, "sym_product", multiset=(1, 1, 2, 2))
            cc = Configuration(ConnectionField(geom), u)
            sups.append(interior_sup(geom, fn(cc), 0.25))
        orders[name] = [np.log2(sups[k] / sups[k + 1]) for k in range(2)]
    worst = min(min(v) for v in orders.values())
    ok = worst >= 1.9
    detail = ", ".join(f"{k}: ({v[0]:.2f}, {v[1]:.2f})" for k, v in orders.items())
    report(7, "convergence orders", ok, detail + " (all >= 1.9)", t0, 600.0)


def test_criterion_8_sequence_harness():
    t0 = time.time()
    geom = LatticeGeom((24,) * 4, 1.0 / 24, Topology.TORUS)
    rep = fq.sequence_harness(fq.SequenceSpec(geom, "fueter_dilation", n_terms=6, c1=4.0))
    rows = rep["rows"]
    factors = [
        rows[k]["sup_diff_Xprime"] / rows[k + 1]["sup_diff_Xprime"]
        for k in range(len(rows) - 1)
    ]
    lp_decay = all(
        rows[k][f"L{p}_diff"] > rows[k + 1][f"L{p}_diff"]
        for p in (1, 2, 4)
        for k in range(len(rows) - 1)
    )
    sup_c = [r["sup_diff_center"] for r in rows]
    center_nondecay = min(sup_c) >= 0.9 * max(sup_c) and min(sup_c) > 0.1
    vanish = fq.sequence_harness(fq.SequenceSpec(geom, "vanishing", n_terms=10, c1=4.0))
    ok = (
        not rep["empty_xprime"]
        and min(factors) >= 1.5
        and lp_decay
        and center_nondecay
        and rep["bound_satisfied"]
        and vanish["empty_xprime"]
    )
    report(
        8,
        "sequence harness",
        ok,
        f"C0 factors min {min(factors):.2f} (>=1.5), center diffs const {sup_c[0]:.3f}, "
        f"Lp decay {lp_decay}, vanishing family empty X' {vanish['empty_xprime']}",
        t0,
        300.0,
    )


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    cfg_path = tmp_path / "solve.json"
    out = tmp_path / "out"
    cfg_path.write_text(
        json.dumps(
            {
                "experiment": "solve",
                "seed": 9,
                "output_dir": str(out),
                "geometry": {"dims": [3, 3, 3, 3], "h": 0.4, "topology": "torus"},
                "group": "u1",
                "params": {
                    "init": {"kind": "random", "amplitude": 0.3},
                    "perturb_amplitude": 1e-3,
                    "tol": 1e-11,
                },
            }
        )
    )
    blobs = []
    for _ in range(2):
        assert cli.run("solve", str(cfg_path)) == 0
        blobs.append(
            (
                (out / "solver_diagnostics.csv").read_bytes(),
                (out / "solution_snapshot.json").read_bytes(),
            )
        )
    seq_cfg = tmp_path / "seq.json"
    seq_out = tmp_path / "seq_out"
    seq_cfg.write_text(
        json.dumps(
            {
                "experiment": "sequence",
                "seed": 2,
                "output_dir": str(seq_out),
                "geometry": {"dims": [8, 8, 8, 8], "h": 0.125, "topology": "torus"},
                "params": {"n_terms": 4},
            }
        )
    )
    seq_blobs = []
    for _ in range(2):
        assert cli.run("sequence", str(seq_cfg)) == 0
        seq_blobs.append((seq_out / "sequence_report.csv").read_bytes())
    ok = blobs[0] == blobs[1] and seq_blobs[0] == seq_blobs[1]
    report(9, "determinism", ok, "repeated runs byte-identical (solve + sequence)", t0, 120.0)
