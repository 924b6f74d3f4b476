import warnings

import numpy as np
import pytest

import gswlab.quaternion as quat
from gswlab import deformation as dfm, gsw, moduli_geom as mg
from gswlab.deformation import TangentConfig
from gswlab.gsw import Configuration, Sources
from gswlab.lattice import ConnectionField, LatticeGeom, SpinorField, Topology
from gswlab.targets import GaugeGroup


def torus(n=2, h=0.5):
    return LatticeGeom((n,) * 4, h, Topology.TORUS)


def box_fueter_config(n=2):
    from gswlab import frequency as fq

    geom = LatticeGeom((n,) * 4, 1.0 / n, Topology.BOX)
    u = fq.fueter_library(geom, "z1")
    vals = u.values.copy()
    vals[..., 0] += 0.8
    vals[..., 1] += 0.1
    c = Configuration(ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, vals))
    return c, gsw.manufacture(c)


# ---------------------------------------------------------------------------
# the oracle on closed-form charts


def test_oracle_round_sphere():
    r0, th0 = 2.0, 1.1

    def metric(xi):
        return np.diag([r0**2, r0**2 * np.sin(th0 + xi[0]) ** 2])

    k = mg.fd_oracle_curvature(metric, 2, eps=1e-3)
    assert abs(k - 1.0 / r0**2) <= 1e-4 / r0**2


def test_oracle_flat_chart():
    def metric(xi):
        return np.diag([1.0, (1.5 + xi[0]) ** 2])

    assert abs(mg.fd_oracle_curvature(metric, 2, eps=1e-3)) <= 1e-8


def test_oracle_step_sweep_flags_junk():
    rng = np.random.default_rng(0)

    def noisy(xi):
        base = np.diag([1.0, (1.5 + xi[0]) ** 2])
        return base + 1e-4 * rng.normal(size=(2, 2))

    with pytest.raises(ArithmeticError):
        mg.fd_oracle_curvature(noisy, 2, eps=1e-6)


# ---------------------------------------------------------------------------
# the flat C^2 / U(1) fixture


def test_fixture_oneill_closed_form():
    sys_ = mg.HopfFixtureSystem()
    c0 = sys_.center()
    out = mg.oneill_sectional_vec(sys_, c0, quat.QJ.copy(), quat.QK.copy())
    assert out["K_C"] == 0.0
    assert abs(out["bracket_norm_sq"] - 4.0) <= 1e-12
    assert abs(out["K_B"] - 3.0) <= 1e-12


def test_fixture_gauss_closed_form():
    sys_ = mg.HopfFixtureSystem()
    c0 = sys_.center()
    out = mg.gauss_sectional_vec(sys_, c0, quat.QJ.copy(), quat.QK.copy())
    assert abs(out["K_M"] - 4.0) <= 1e-12


def test_fixture_dual_path():
    sys_ = mg.HopfFixtureSystem()
    c0 = sys_.center()
    v, w = quat.QJ.copy(), quat.QK.copy()
    mf, dim = mg.slice_chart_metric(sys_, c0, v, w)
    k_b = mg.fd_oracle_curvature(mf, dim, eps=1e-3)
    assert abs(k_b - 3.0) <= 1e-6
    mf2, dim2 = mg.solution_chart_metric(sys_, c0, v, w)
    k_m = mg.fd_oracle_curvature(mf2, dim2, eps=1e-3)
    assert abs(k_m - 4.0) <= 1e-6


def test_solution_chart_rejects_vertical_plane():
    sys_ = mg.HopfFixtureSystem()
    # i is the U(1) orbit direction at 1, outside the level set's horizontal plane
    with pytest.raises(ValueError, match="solution-set tangent space"):
        mg.solution_chart_metric(sys_, sys_.center(), quat.QI.copy(), quat.QJ.copy())


def test_solution_chart_newton_failure_raises():
    sys_ = mg.HopfFixtureSystem()
    mf, dim = mg.solution_chart_metric(sys_, sys_.center(), quat.QJ.copy(), quat.QK.copy(),
                                       max_iter=1)
    assert mf(np.zeros(dim)).shape == (2, 2)  # on the level set: no step needed
    with pytest.raises(RuntimeError, match="did not converge"):
        mf(np.array([0.1, 0.0]))


def test_solution_chart_divergence_raises_without_warnings():
    # the chart point of a 0.01-noise spinor off a manufactured solution: the
    # chord Newton grows, stops at once and reports it, with no overflow on the way
    geom = LatticeGeom((3,) * 4, 1.0 / 3, Topology.BOX)
    c = gsw.random_config(geom, GaugeGroup.U1, seed=0, amplitude=0.3)
    s = gsw.manufacture(c)
    c.u.values = c.u.values + 0.01 * np.random.default_rng(0).normal(size=c.u.values.shape)
    sys_ = mg.LatticeSystem(c, s)
    v, w = mg.sample_solution_plane(sys_, sys_.center(), seed=0)[0]
    mf, dim = mg.solution_chart_metric(sys_, sys_.center(), v, w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="did not converge"):
            mf(np.zeros(dim))


# ---------------------------------------------------------------------------
# projector identities


def test_horizontal_projector_identities():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=1)
    sys_ = mg.LatticeSystem(c, Sources.zero(geom))
    c0 = sys_.center()
    proj = mg.horizontal_projector(sys_, c0)
    rng = np.random.default_rng(2)
    t = rng.normal(size=sys_.tan_space.dim)
    pt = proj(t)
    assert np.abs(proj(pt) - pt).max() <= 1e-9
    d = sys_.gauge_map(c0)
    assert np.abs(d.adjoint_apply(pt)).max() <= 1e-9
    # vertical input is annihilated
    xi = rng.normal(size=d.col_space.dim)
    assert np.abs(proj(d.apply(xi))).max() <= 1e-9
    # contraction
    assert sys_.tan_space.norm(pt) <= sys_.tan_space.norm(t) + 1e-12


def test_horizontal_project_wrapper():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=3)
    t = dfm.random_tangent(c, 4)
    ht = mg.horizontal_project(c, t)
    again = mg.horizontal_project(c, ht)
    assert np.abs(again.v - ht.v).max() <= 1e-9
    assert np.abs(again.b - ht.b).max() <= 1e-9


# ---------------------------------------------------------------------------
# Omega and the vertical bracket


def test_omega_antisymmetric_bilinear():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=5)
    rng = np.random.default_rng(6)
    v = rng.normal(size=geom.dims + (4,))
    w = rng.normal(size=geom.dims + (4,))
    om = mg.omega_form(c, v, w)
    assert np.abs(om + mg.omega_form(c, w, v)).max() <= 1e-12
    assert np.abs(mg.omega_form(c, v, v)).max() <= 1e-12
    lam = 2.3
    assert np.allclose(mg.omega_form(c, lam * v, w), lam * om, atol=1e-12)
    c_triv = gsw.random_config(geom, GaugeGroup.TRIVIAL, seed=7)
    assert np.abs(mg.omega_form(c_triv, v, w)).max() == 0.0


def test_vertical_bracket_properties():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=8)
    sys_ = mg.LatticeSystem(c, Sources.zero(geom))
    c0 = sys_.center()
    v, w = mg.sample_horizontal_plane(sys_, c0, seed=9)
    vb = mg.vertical_bracket_vec(sys_, c0, v, w)
    vb_swap = mg.vertical_bracket_vec(sys_, c0, w, v)
    assert np.abs(vb + vb_swap).max() <= 1e-10
    assert np.abs(vb - mg.vertical_bracket_vec(sys_, c0, v, v) - vb).max() <= 1e-10
    proj = mg.horizontal_projector(sys_, c0)
    assert np.abs(proj(vb)).max() <= 1e-9  # output vertical
    ct = gsw.random_config(geom, GaugeGroup.TRIVIAL, seed=10)
    st = mg.LatticeSystem(ct, Sources.zero(geom))
    tv = np.random.default_rng(11).normal(size=st.tan_space.dim)
    assert np.abs(mg.vertical_bracket_vec(st, st.center(), tv, tv * 0.5)).max() == 0.0


def test_vertical_bracket_fd_oracle():
    """Green-operator formula against second-order FD of the projector field."""
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=12)
    sys_ = mg.LatticeSystem(c, Sources.zero(geom))
    c0 = sys_.center()
    v, w = mg.sample_horizontal_plane(sys_, c0, seed=13)
    vb = mg.vertical_bracket_vec(sys_, c0, v, w)

    def hor_field(vec0):
        return lambda cv: mg.horizontal_projector(sys_, cv)(vec0)

    vf, wf = hor_field(v), hor_field(w)
    proj0 = mg.horizontal_projector(sys_, c0)
    errs = []
    for eps in (1e-4, 5e-5):
        d_w = (wf(c0 + eps * vf(c0)) - wf(c0 - eps * vf(c0))) / (2 * eps)
        d_v = (vf(c0 + eps * wf(c0)) - vf(c0 - eps * wf(c0))) / (2 * eps)
        br = d_w - d_v
        errs.append(np.abs((br - proj0(br)) - vb).max())
    assert errs[0] <= 1e-6
    assert errs[1] <= errs[0] * 0.7  # O(eps^2) convergence


# ---------------------------------------------------------------------------
# curvature terms


def test_oneill_nonnegative_and_trivial():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=15)
    sys_ = mg.LatticeSystem(c, Sources.zero(geom))
    c0 = sys_.center()
    v, w = mg.sample_horizontal_plane(sys_, c0, seed=16)
    out = mg.oneill_sectional_vec(sys_, c0, v, w)
    assert out["K_B"] >= 0.0  # flat targets: 3/4 |bracket|^2
    ct = gsw.random_config(geom, GaugeGroup.TRIVIAL, seed=17)
    st = mg.LatticeSystem(ct, Sources.zero(geom))
    rng = np.random.default_rng(18)
    x = rng.normal(size=st.tan_space.dim)
    y = rng.normal(size=st.tan_space.dim)
    x /= st.tan_space.norm(x)
    y = y - x * st.tan_space.inner(x, y)
    y /= st.tan_space.norm(y)
    assert mg.oneill_sectional_vec(st, st.center(), x, y)["K_B"] == 0.0


def test_second_fundamental_form_properties():
    c, s = box_fueter_config(2)
    sys_ = mg.LatticeSystem(c, s)
    c0 = sys_.center()
    v, w = mg.sample_solution_plane(sys_, c0, seed=19)[0]
    pi_vw = mg.second_fundamental_vec(sys_, c0, v, w)
    pi_wv = mg.second_fundamental_vec(sys_, c0, w, v)
    assert sys_.tan_space.norm(pi_vw - pi_wv) <= 1e-9
    # orthogonal to the solution-set tangent space
    ker = dfm.stacked_op(sys_.equation_map(c0), sys_.gauge_map(c0)).kernel_basis()
    overlaps = ker.T @ (pi_vw * sys_.tan_space.weights)
    assert np.abs(overlaps).max() <= 1e-9


def test_gauss_degenerate_trivial_flat():
    """Trivial group, flat target: totally geodesic, K_M = 0."""
    from gswlab import frequency as fq

    geom = LatticeGeom((2,) * 4, 0.5, Topology.BOX)
    u = fq.fueter_library(geom, "z1")
    c = Configuration(ConnectionField(geom), u)
    s = gsw.manufacture(c)
    sys_ = mg.LatticeSystem(c, s)
    c0 = sys_.center()
    v, w = mg.sample_solution_plane(sys_, c0, seed=20)[0]
    out = mg.gauss_sectional_vec(sys_, c0, v, w)
    assert abs(out["K_M"]) <= 1e-12
    pi = mg.second_fundamental_vec(sys_, c0, v, w)
    assert np.abs(pi).max() <= 1e-12


def test_plane_invariance():
    c, s = box_fueter_config(2)
    sys_ = mg.LatticeSystem(c, s)
    c0 = sys_.center()
    v, w = mg.sample_solution_plane(sys_, c0, seed=21)[0]
    base = mg.gauss_sectional_vec(sys_, c0, v, w)["K_M"]
    rng = np.random.default_rng(22)
    for _ in range(3):
        th = rng.uniform(0, 2 * np.pi)
        v2 = np.cos(th) * v + np.sin(th) * w
        w2 = -np.sin(th) * v + np.cos(th) * w
        k2 = mg.gauss_sectional_vec(sys_, c0, v2, w2)["K_M"]
        assert abs(k2 - base) <= 1e-6 * max(abs(base), 1.0)


def test_lattice_dual_path_small():
    c, s = box_fueter_config(2)
    sys_ = mg.LatticeSystem(c, s)
    c0 = sys_.center()
    v, w = mg.sample_solution_plane(sys_, c0, seed=23)[0]
    full = mg.gauss_sectional_vec(sys_, c0, v, w)
    mf, dim = mg.solution_chart_metric(sys_, c0, v, w)
    k_or = mg.fd_oracle_curvature(mf, dim, eps=3e-3)
    assert abs(k_or - full["K_M"]) <= 1e-3 * max(abs(full["K_M"]), 1e-6)


def test_l2_inner_gauge_invariance():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=24)
    t1 = dfm.random_tangent(c, 25)
    t2 = dfm.random_tangent(c, 26)
    val = mg.l2_inner(c, t1, t2)
    g = gsw.random_gauge(geom, 27)
    phase = quat.exp_i(-g.theta)
    t1g = TangentConfig(t1.b.copy(), quat.mul(t1.v, phase))
    t2g = TangentConfig(t2.b.copy(), quat.mul(t2.v, phase))
    val_g = mg.l2_inner(gsw.gauge_apply(g, c), t1g, t2g)
    assert abs(val - val_g) <= 1e-12 * max(abs(val), 1.0)
    bump = TangentConfig(np.zeros(geom.dims + (4,)), np.ones(geom.dims + (4,)))
    assert mg.l2_inner(c, bump, bump) > 0


def test_green_solver_invariants():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=28)
    d = dfm.lin_gauge(c)
    green = mg.GreenSolver(d, side="cols")
    rng = np.random.default_rng(29)
    xi = rng.normal(size=d.col_space.dim)
    # normal operator applied after the Green solve restores range components
    normal = lambda y: d.adjoint_apply(d.apply(y))
    y = normal(xi)  # lies in range(D* D)
    assert np.abs(normal(green.solve(y)) - y).max() <= 1e-9 * max(np.abs(y).max(), 1.0)


def _green_reference(lm, side):
    """(L L*)^+ (rows) or (L* L)^+ (cols) from np.linalg.pinv of the weighted normal matrix."""
    sr, sc = np.sqrt(lm.row_space.weights), np.sqrt(lm.col_space.weights)
    m_hat = sr[:, None] * lm.matrix / sc
    normal, scale = (m_hat @ m_hat.T, sr) if side == "rows" else (m_hat.T @ m_hat, sc)
    return np.linalg.pinv(normal, rcond=1e-10, hermitian=True) * scale / scale[:, None]


@pytest.mark.parametrize("case", ["u1_torus_3", "box_2"])
def test_pseudo_inverse_pipeline_matches_green_formulas(case):
    """t - D D^+ t, (D*)^+ omega and -E^+ B against t - D G0 D* t, D G0 omega and
    -E* G B, with G0, G built from np.linalg.pinv of the weighted normal matrices."""
    if case == "u1_torus_3":
        geom = torus(3, 0.4)
        sys_ = mg.LatticeSystem(gsw.random_config(geom, GaugeGroup.U1, seed=52), Sources.zero(geom))
    else:
        sys_ = mg.LatticeSystem(*box_fueter_config(2))
    c0 = sys_.center()
    rng = np.random.default_rng(53)
    t, v, w = rng.normal(size=(3, sys_.tan_space.dim))
    d, eq = sys_.gauge_map(c0), sys_.equation_map(c0)
    g0, g = _green_reference(d, "cols"), _green_reference(eq, "rows")

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-10 * max(np.abs(want).max(), 1.0)

    close(mg.horizontal_projector(sys_, c0)(t), t - d.apply(g0 @ d.adjoint_apply(t)))
    omega = mg.a_term(sys_, c0, w, v) - mg.a_term(sys_, c0, v, w)
    close(mg.vertical_bracket_vec(sys_, c0, v, w), d.apply(g0 @ omega))
    b = sys_.equation_second(c0, v, w)
    close(mg.second_fundamental_vec(sys_, c0, v, w), -eq.adjoint_apply(g @ b))
    # the thin GreenSolver composes L^+ and (L*)^+ into the same Green operators
    close(mg.GreenSolver(d, side="cols").solve(omega), g0 @ omega)
    close(mg.GreenSolver(eq, side="rows").solve(b), g @ b)


def test_orthonormal_pair_is_the_weighted_gram_schmidt():
    """Both plane samplers' Gram-Schmidt, bit for bit the explicit weighted sums."""
    space = dfm.BlockSpace([("a", 5, 0.3), ("b", 4, 2.0)])
    x, y = np.random.default_rng(55).normal(size=(2, space.dim))
    wts = space.weights
    xr = x / np.sqrt(float(np.sum(x * x * wts)))
    yr = y - xr * float(np.sum(xr * y * wts))
    yr = yr / np.sqrt(float(np.sum(yr * yr * wts)))
    got = mg._orthonormal_pair(space, x, y)
    assert np.array_equal(got[0], xr) and np.array_equal(got[1], yr)


def test_nonorthonormal_plane_warns():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=30)
    sys_ = mg.LatticeSystem(c, Sources.zero(geom))
    c0 = sys_.center()
    v, w = mg.sample_horizontal_plane(sys_, c0, seed=31)
    with pytest.warns(UserWarning, match="not orthonormal"):
        mg.oneill_sectional_vec(sys_, c0, 2.0 * v, w)


def test_csv_writer(tmp_path):
    rows = [
        {
            "sample_id": 0,
            "K_C": 0.0,
            "bracket_norm_sq": 4.0,
            "K_B": 3.0,
            "gauss_terms": 1.0,
            "K_M": 4.0,
            "oracle_K": 4.0,
            "rel_err": 0.0,
        }
    ]
    path = tmp_path / "samples.csv"
    mg.write_samples_csv(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == ",".join(mg.CSV_FIELDS)
    assert len(text) == 2
