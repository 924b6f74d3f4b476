import numpy as np
import pytest

from gswlab import gsw, lattice as lat
from gswlab.gsw import Configuration, GaugeElement, Sources
from gswlab.lattice import ConnectionField, LatticeGeom, SpinorField, Stencil, Topology
from gswlab.targets import GaugeGroup


def torus(n=3, h=0.4):
    return LatticeGeom((n,) * 4, h, Topology.TORUS)


def test_phi4_zero_and_scaling():
    geom = torus()
    zero = SpinorField(geom, np.zeros(geom.dims + (4,)))
    assert np.abs(gsw.phi4(zero, GaugeGroup.U1).values).max() == 0.0
    rng = np.random.default_rng(0)
    u = SpinorField(geom, rng.normal(size=geom.dims + (4,)))
    lam = 1.7
    u2 = SpinorField(geom, lam * u.values)
    assert np.allclose(
        gsw.phi4(u2, GaugeGroup.U1).values,
        lam**2 * gsw.phi4(u, GaugeGroup.U1).values,
        atol=1e-12,
    )
    assert np.abs(gsw.phi4(u, GaugeGroup.TRIVIAL).values).max() == 0.0


def test_phi4_gauge_invariance():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=1)
    g = gsw.random_gauge(geom, 2)
    cg = gsw.gauge_apply(g, c)
    assert np.abs(
        gsw.phi4(cg.u, GaugeGroup.U1).values - gsw.phi4(c.u, GaugeGroup.U1).values
    ).max() <= 1e-12


def test_manufactured_residual_zero():
    geom = torus()
    for group in (GaugeGroup.TRIVIAL, GaugeGroup.U1):
        c = gsw.random_config(geom, group, seed=5)
        s = gsw.manufacture(c)
        assert gsw.residual_norm(c, s) <= 1e-12


def test_constant_solution():
    geom = torus()
    vals = np.zeros(geom.dims + (4,))
    vals[..., 0] = 1.3
    c = Configuration(ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, vals))
    s = Sources.zero(geom)
    s.eta = gsw.phi4(c.u, GaugeGroup.U1)
    assert gsw.residual_norm(c, s) <= 1e-14


def test_fueter_dirac_row_zero_on_box():
    from gswlab import frequency as fq

    geom = LatticeGeom((5,) * 4, 0.25, Topology.BOX)
    u = fq.fueter_library(geom, "z1")
    c = Configuration(ConnectionField(geom), u)
    _, sd_row = gsw.residual(c, Sources.zero(geom))
    assert np.abs(lat.dirac(u, c.a, Stencil.CENTERED)).max() <= 1e-12
    assert np.abs(sd_row.values).max() == 0.0


def test_gauge_identity_and_composition():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=7)
    ident = GaugeElement(geom, np.zeros(geom.dims))
    c2 = gsw.gauge_apply(ident, c)
    assert np.abs(c2.u.values - c.u.values).max() == 0.0
    assert np.abs(c2.a.links - c.a.links).max() == 0.0
    g1 = gsw.random_gauge(geom, 8)
    g2 = gsw.random_gauge(geom, 9)
    via_compose = gsw.gauge_apply(GaugeElement(geom, g1.theta + g2.theta), c)
    via_seq = gsw.gauge_apply(g1, gsw.gauge_apply(g2, c))
    assert np.abs(via_compose.u.values - via_seq.u.values).max() <= 1e-12
    assert np.abs(via_compose.a.links - via_seq.a.links).max() <= 1e-12


def test_residual_equivariance_exact():
    """residual(g c, g s) = g residual(c, s) at machine precision."""
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=11)
    s = gsw.manufacture(c)
    # perturb so the residual is nonzero
    s.psi = s.psi + 0.1
    g = gsw.random_gauge(geom, 12)
    cg, sg = gsw.gauge_apply(g, c), gsw.gauge_apply_sources(g, c, s)
    d1, sd1 = gsw.residual(cg, sg)
    d0, sd0 = gsw.residual(c, s)
    assert np.abs(d1 - gsw.gauge_apply_spinor_row(g, d0)).max() <= 1e-12
    assert np.abs(sd1.values - sd0.values).max() <= 1e-12


def test_manufacture_commutes_with_gauge():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=13)
    g = gsw.random_gauge(geom, 14)
    s_after = gsw.manufacture(gsw.gauge_apply(g, c))
    s_rotated = gsw.gauge_apply_sources(g, c, gsw.manufacture(c))
    assert np.abs(s_after.psi - s_rotated.psi).max() <= 1e-12
    assert np.abs(s_after.eta.values - s_rotated.eta.values).max() <= 1e-12


def test_manufacture_zero_field():
    geom = torus()
    rng = np.random.default_rng(20)
    a = ConnectionField(geom, GaugeGroup.U1, rng.normal(size=geom.dims + (4,)))
    c = Configuration(a, SpinorField(geom, np.zeros(geom.dims + (4,))))
    s = gsw.manufacture(c)
    assert np.abs(s.psi).max() == 0.0
    f = lat.selfdual(lat.plaquette_curvature(a))
    assert np.allclose(s.eta.values, f.values)


# ---------------------------------------------------------------------------
# Newton solver


def test_newton_exact_init():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=21, amplitude=0.3)
    s = gsw.manufacture(c)
    sol, diag = gsw.solve_newton(c.copy(), s, tol=1e-10, max_iter=5)
    assert len(diag) - 1 <= 1


def test_newton_quadratic_convergence():
    from gswlab import deformation as dfm

    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=22, amplitude=0.3)
    s = gsw.manufacture(c)
    t = dfm.random_tangent(c, 23, amplitude=1e-3)
    init = c.copy()
    init.a.links = init.a.links + t.b
    init.u.values = init.u.values + t.v
    sol, diag = gsw.solve_newton(init, s, tol=1e-13, max_iter=10)
    res = [d["residual_norm"] for d in diag]
    assert gsw.residual_norm(sol, s) <= 1e-13
    # quadratic decay over the first two Newton steps
    assert res[1] <= 50 * res[0] ** 1.8
    assert res[2] <= 50 * res[1] ** 1.8


def test_newton_nonconvergence_error():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=30, amplitude=0.2)
    s = gsw.manufacture(c)
    far = gsw.random_config(geom, GaugeGroup.U1, seed=31, amplitude=3.0)
    with pytest.raises(gsw.NewtonError) as err:
        gsw.solve_newton(far, s, tol=1e-14, max_iter=2)
    assert err.value.diagnostics[-1]["residual_norm"] > 1e-14


def test_newton_stops_when_the_residual_grows():
    # the far start above: its first step takes the residual from 72.8 to
    # about 4.8e3, so the loop stops there instead of running all 8 steps
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=30, amplitude=0.2)
    s = gsw.manufacture(c)
    far = gsw.random_config(geom, GaugeGroup.U1, seed=31, amplitude=3.0)
    with pytest.raises(gsw.NewtonError) as err:
        gsw.solve_newton(far, s, tol=1e-14, max_iter=8)
    assert str(err.value).startswith("no convergence") and "diverged" in str(err.value)
    res = [d["residual_norm"] for d in err.value.diagnostics]
    assert len(res) == 2 and res[1] > res[0]


def test_newton_reproducible():
    from gswlab import deformation as dfm

    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=40, amplitude=0.3)
    s = gsw.manufacture(c)
    t = dfm.random_tangent(c, 41, amplitude=1e-3)
    runs = []
    for _ in range(2):
        init = c.copy()
        init.a.links = init.a.links + t.b
        init.u.values = init.u.values + t.v
        sol, diag = gsw.solve_newton(init, s, tol=1e-12, max_iter=10)
        runs.append((sol.u.values.copy(), [d["residual_norm"] for d in diag]))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


