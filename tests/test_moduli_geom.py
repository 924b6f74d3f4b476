import importlib.util
import pathlib
import warnings

import numpy as np
import pytest

import gswlab.quaternion as quat
from gswlab import cli, deformation as dfm, gsw, moduli_geom as mg
from gswlab.deformation import TangentConfig
from gswlab.gsw import Configuration, Sources
from gswlab.lattice import ConnectionField, LatticeGeom, SpinorField, Topology
from gswlab.targets import GaugeGroup

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


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


def _diag_metric(g00, g11):
    """Stack of diagonal 2x2 metrics over the leading axes of g11."""
    g = np.zeros(np.shape(g11) + (2, 2))
    g[..., 0, 0], g[..., 1, 1] = g00, g11
    return g


def test_oracle_round_sphere():
    r0, th0 = 2.0, 1.1

    def metric(xi, plane=False):
        return _diag_metric(r0**2, r0**2 * np.sin(th0 + xi[..., 0]) ** 2)

    k = mg.fd_oracle_curvature(metric, 2, eps=1e-3)
    assert abs(k - 1.0 / r0**2) <= 1e-4 / r0**2


def test_oracle_flat_chart():
    def metric(xi, plane=False):
        return _diag_metric(1.0, (1.5 + xi[..., 0]) ** 2)

    assert abs(mg.fd_oracle_curvature(metric, 2, eps=1e-3)) <= 1e-8


def test_oracle_step_sweep_flags_junk():
    rng = np.random.default_rng(0)

    def noisy(xi, plane=False):
        base = _diag_metric(1.0, (1.5 + xi[..., 0]) ** 2)
        return base + 1e-4 * rng.normal(size=base.shape)

    with pytest.raises(ArithmeticError):
        mg.fd_oracle_curvature(noisy, 2, eps=1e-6)


def test_oracle_gate_flags_a_nan_estimate():
    """eps = 0 makes every difference quotient NaN: the step-halving gate raises, it returns no NaN."""

    def metric(xi, plane=False):
        return _diag_metric(1.0, (1.5 + xi[..., 0]) ** 2)

    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(ArithmeticError, match="step halving"):
        mg.fd_oracle_curvature(metric, 2, eps=0.0)


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


def test_slice_chart_rejects_a_plane_outside_the_slice():
    sys_ = mg.HopfFixtureSystem()
    # i spans the orbit at 1, so (i, j) is not in the gauge slice span(1, j, k)
    with pytest.raises(ValueError, match="gauge slice"):
        mg.slice_chart_metric(sys_, sys_.center(), quat.QI.copy(), quat.QJ.copy())


def test_curvature_plane_reads_the_chart_kernel(monkeypatch):
    """The plane sampler and the solution chart make no SVD of the stacked [E; D*]."""
    c, s = box_fueter_config(2)
    sys_ = mg.LatticeSystem(c, s)
    c0 = sys_.center()
    shapes = []
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    v, w = mg.sample_solution_plane(sys_, c0, seed=0)[0]
    mf, dim = mg.solution_chart_metric(sys_, c0, v, w)
    mf(np.zeros(dim))
    monkeypatch.undo()
    stacked = dfm.elliptic_op(c).matrix.shape
    assert stacked == (23, 96) and shapes and stacked not in shapes


def test_solution_chart_newton_failure_raises():
    sys_ = mg.HopfFixtureSystem()
    mf, dim = mg.solution_chart_metric(sys_, sys_.center(), quat.QJ.copy(), quat.QK.copy(),
                                       max_iter=1)
    assert mf(np.zeros(dim)).shape == (2, 2)  # on the level set: no step needed
    with pytest.raises(RuntimeError, match="did not converge"):
        mf(np.array([0.1, 0.0]))


def test_solution_chart_divergence_raises_without_warnings():
    # the far chart point 30 e_0 of a 0.01-noise spinor off a manufactured solution:
    # the chord Newton grows, stops at once and reports it, with no overflow on the way
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
            mf(30.0 * np.eye(dim)[0])


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
    assert np.abs(d.adjoint().apply(pt)).max() <= 1e-9
    # vertical input is annihilated
    xi = rng.normal(size=d.col_space.dim)
    assert np.abs(proj(d.apply(xi))).max() <= 1e-9
    # contraction
    assert sys_.tan_space.norm(pt) <= sys_.tan_space.norm(t) + 1e-12


def test_horizontal_projector_idempotent_on_tangent_configs():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=3)
    sys_ = mg.LatticeSystem(c, Sources.zero(geom))
    proj = mg.horizontal_projector(sys_, sys_.center())

    def project(t):
        return TangentConfig(*sys_.tan_space.unpack(proj(sys_.tan_space.pack(t.b, t.v))))

    ht = project(dfm.random_tangent(c, 4))
    again = project(ht)
    assert np.abs(again.v - ht.v).max() <= 1e-9
    assert np.abs(again.b - ht.b).max() <= 1e-9


def _gauge_case(case):
    """(system, chart centre) of a rank test case: D has full column rank in each."""
    if case == "hopf":
        sys_ = mg.HopfFixtureSystem()
    elif case == "u1_torus":
        geom = torus(3, 0.4)
        sys_ = mg.LatticeSystem(gsw.random_config(geom, GaugeGroup.U1, seed=56), Sources.zero(geom))
    else:
        sys_ = mg.LatticeSystem(*box_fueter_config(int(case[-1])))
    return sys_, sys_.center()


@pytest.mark.parametrize("case", ["hopf", "box_2", "box_3", "u1_torus"])
def test_range_projector_matches_pinv(case):
    """The normal-system projector accepts D where `rank` keeps every column, and is t - D D^+ t."""
    sys_, c0 = _gauge_case(case)
    d = sys_.gauge_map(c0)
    rank, _ = d.rank()
    assert rank == d.col_space.dim
    proj = mg.horizontal_projector(sys_, c0)
    t = np.random.default_rng(57).normal(size=(sys_.tan_space.dim, 3))
    for x in (t, t[:, 0]):
        want = x - d.apply(d.pinv_apply(x))
        assert np.abs(proj(x) - want).max() <= 1e-12 * np.abs(want).max()


def test_range_projector_raises_on_zero_spinor():
    """u = 0: D = (d xi, 0) loses the constants; the projector refuses instead of guessing."""
    geom = torus()
    c = Configuration(ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, np.zeros(geom.dims + (4,))))
    sys_ = mg.LatticeSystem(c, Sources.zero(geom))
    d = sys_.gauge_map(sys_.center())
    assert d.rank()[0] < d.col_space.dim
    with pytest.raises(np.linalg.LinAlgError, match="rank loss"):
        mg.horizontal_projector(sys_, sys_.center())


def test_rank_certificate_decides_as_eigvalsh(monkeypatch):
    """With u scaled so that min |u|^2 straddles the rank-loss floor, `range_projector` keeps exactly
    the maps that `eigvalsh` of the dense normal matrix keeps; Gershgorin's bound certifies some without
    `eigvalsh`, and leaves it the rest; a lost map inside a stack fails the stack."""
    geom = LatticeGeom((2,) * 4, 0.5, Topology.BOX)
    vals = np.zeros(geom.dims + (4,))
    vals[..., 0] = 1.0
    vals[0, 0, 0, 0, 0] = 0.1  # min |u|^2 a hundredth of the mean: the bound and eigvalsh part ways
    sys_ = mg.LatticeSystem(Configuration(ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, vals)),
                            Sources.zero(geom))
    pts = np.array([sys_.tan_space.pack(None, s * vals) for s in np.logspace(-8, -3, 51)])
    sr, sc = np.sqrt(sys_.tan_space.weights), np.sqrt(sys_.gauge_space.weights)
    real, opened = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: opened.append(len(a)) or real(a))
    kept, certified = [], []
    for p in pts:
        d = sys_.gauge_map(p)
        m_hat = sr[:, None] * d.matrix / sc
        lam = real(m_hat.T @ m_hat)
        opened.clear()
        try:
            d.range_projector()
            kept.append(True)
        except np.linalg.LinAlgError as err:
            assert str(err).startswith("rank loss")
            kept.append(False)
        assert kept[-1] == (lam[0] > dfm.RANK_MARGIN * max(d.shape) * np.finfo(float).eps * lam[-1])
        certified.append(not opened)
    kept, certified = np.array(kept), np.array(certified)
    assert (~kept).any() and (kept & ~certified).any() and certified.any() and not (certified & ~kept).any()
    sys_.gauge_map(pts[kept]).range_projector()
    with pytest.raises(np.linalg.LinAlgError, match="rank loss"):
        sys_.gauge_map(np.concatenate([pts[kept][:3], pts[~kept][-1:], pts[kept][3:]])).range_projector()


@pytest.mark.parametrize("case", ["hopf", "box_2"])
def test_range_projector_never_reads_a_stacked_matrix(case, monkeypatch):
    """A stack of gauge maps is projected from its triplets, `matrix` unread, map by map as alone."""
    sys_, c0 = _gauge_case(case)
    rng = np.random.default_rng(59)
    pts = c0 + 0.05 * rng.normal(size=(3, c0.size))
    t = rng.normal(size=(sys_.tan_space.dim, 2))
    ts = rng.normal(size=(3, sys_.tan_space.dim, 2))
    singles = [np.array([mg.horizontal_projector(sys_, p)(x) for p, x in zip(pts, xs)]) for xs in ([t] * 3, ts)]

    def unread(self):
        raise AssertionError("range_projector read a dense matrix")

    monkeypatch.setattr(dfm.LinearMap, "matrix", property(unread))
    proj = mg.horizontal_projector(sys_, pts)
    for got, want in zip((proj(t), proj(ts)), singles):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_slice_chart_refuses_a_reducible_centre():
    """u = 0 on a U(1) torus: `slice_chart_metric` raises rank loss at its centre, before it returns metric_fn."""
    geom = torus()
    c = Configuration(ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, np.zeros(geom.dims + (4,))))
    sys_ = mg.LatticeSystem(c, Sources.zero(geom))
    v, w = np.eye(sys_.tan_space.dim)[sys_.tan_space.n_links + np.arange(2)]  # spinor dofs: in ker D* at u = 0
    with pytest.raises(np.linalg.LinAlgError, match="rank loss"):
        mg.slice_chart_metric(sys_, sys_.center(), v, w)


def test_a_term_is_omega_form_in_closed_form():
    """a_term(x, y) = -omega_form(c, y_v, x_v) at every site of a U(1) torus."""
    geom = torus(3, 0.4)
    c = gsw.random_config(geom, GaugeGroup.U1, seed=58)
    sys_ = mg.LatticeSystem(c, Sources.zero(geom))
    x, y = np.random.default_rng(59).normal(size=(2, sys_.tan_space.dim))
    (_, x_v), (_, y_v) = sys_.tan_space.unpack(x), sys_.tan_space.unpack(y)
    closed = mg.omega_form(c, y_v, x_v).reshape(-1)
    assert np.abs(mg.a_term(sys_, sys_.center(), x, y) + closed).max() <= 1e-12 * np.abs(closed).max()


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


def _plane_case(case):
    """(metric_fn, dim, eps) of an oracle chart; box_3 is criterion 5's lattice chart."""
    if case == "trivial_2":  # the trivial group: E(cv) and D(cv) do not vary over the chart
        from gswlab import frequency as fq

        geom = LatticeGeom((2,) * 4, 0.5, Topology.BOX)
        c = Configuration(ConnectionField(geom), fq.fueter_library(geom, "z1"))
        sys_ = mg.LatticeSystem(c, gsw.manufacture(c))
        v, w = mg.sample_solution_plane(sys_, sys_.center(), seed=20)[0]
        return (*mg.solution_chart_metric(sys_, sys_.center(), v, w), 3e-3)
    if case in ("box_2", "box_3"):
        c, s = box_fueter_config(int(case[-1]))
        sys_ = mg.LatticeSystem(c, s)
        c0 = sys_.center()
        v, w = mg.sample_solution_plane(sys_, c0, seed=23 if case == "box_2" else 107)[0]
        return (*mg.solution_chart_metric(sys_, c0, v, w), 3e-3)
    sys_ = mg.HopfFixtureSystem()
    chart = mg.slice_chart_metric if case == "hopf_slice" else mg.solution_chart_metric
    return (*chart(sys_, sys_.center(), quat.QJ.copy(), quat.QK.copy()), 1e-3)


@pytest.mark.parametrize("case", ["box_2", "hopf_slice", "hopf_solution"])
def test_plane_block_is_the_full_metric_block(case):
    """At every point the oracle visits, metric_fn(xi, plane=True) is metric_fn(xi)[:2, :2].

    The oracle passes its points in stacks; each stacked point counts as one visit.
    """
    mf, dim, eps = _plane_case(case)
    visited = []

    def recording(xi, plane=False):
        visited.extend((x, plane) for x in np.array(xi))
        return mf(xi, plane=plane)

    mg.fd_oracle_curvature(recording, dim, eps=eps)
    assert len(visited) == 2 * (9 + 2 * (dim - 2))
    assert sum(p for _, p in visited) == 2 * (4 + 2 * (dim - 2))
    worst = 0.0
    for xi, _ in visited:
        full = mf(xi)
        block = mf(xi, plane=True)
        assert full.shape == (dim, dim) and block.shape == (2, 2)
        worst = max(worst, np.abs(block - full[:2, :2]).max() / np.abs(full[:2, :2]).max())
    assert worst <= 1e-12


def _oracle_points(dim, e):
    """The oracle's two stacks at step e: full-block points, then plane-block points."""
    steps = e * np.eye(dim)
    ev, ew = steps[0], steps[1]
    grad = np.stack([steps[2:], -steps[2:]], axis=1).reshape(-1, dim)
    return np.stack([0 * ev, ev, -ev, ew, -ew]), np.concatenate([[ev + ew, ev - ew, -ev + ew, -ev - ew], grad])


@pytest.mark.parametrize("case", ["box_2", "hopf_slice", "hopf_solution", "trivial_2", "box_3"])
def test_stacked_metric_matches_single_points(case, monkeypatch):
    """metric_fn on a stack of every oracle point is each point evaluated alone, within 1e-12;
    each point's chord Newton takes as many iterations to the same verdict as alone."""
    mf, dim, eps = _plane_case(case)
    if case == "box_2":  # the default budget holds the 2^4 plane stack in one chunk; cut it into 18-point chunks
        monkeypatch.setattr(mg, "CHUNK_BYTES", 100_000)
    infos = []
    real_solve = dfm.ChartFrame.solve

    def recording_solve(self, *args):
        out = real_solve(self, *args)
        infos.append(out[2])
        return out

    monkeypatch.setattr(dfm.ChartFrame, "solve", recording_solve)
    def solved(key):  # per point, over the chunks the recorded solves ran
        return np.concatenate([info[key] for info in infos])

    worst = 0.0
    for pts, plane in zip(_oracle_points(dim, eps), (False, True)):
        infos.clear()
        stacked = mf(pts, plane=plane)
        chunks = len(infos)
        if chunks:
            iters, converged = solved("iters"), solved("converged")
        infos.clear()
        singles = np.array([mf(x, plane=plane) for x in pts])
        assert stacked.shape == singles.shape == (len(pts),) + ((2, 2) if plane else (dim, dim))
        worst = max(worst, np.abs(stacked - singles).max() / np.abs(singles).max())
        if chunks:
            assert len(infos) == len(pts)
            assert np.array_equal(iters, solved("iters")) and np.array_equal(converged, solved("converged"))
        if case.startswith("box"):  # the plane stack spans chunks, and the chord Newton iterates
            assert (chunks > 1 or not plane) and converged.all() and iters.max() > 1
    assert worst <= 1e-12


def test_stacked_lstsq_is_lstsq():
    """The chart differential's stacked solve is `np.linalg.lstsq(rcond=None)` system by system:
    square of full rank (LU), and square rank-deficient, tall and wide (SVD)."""
    rng = np.random.default_rng(63)
    square = rng.normal(size=(3, 6, 6))
    deficient = square.copy()
    deficient[1, :, -1] = deficient[1, :, 0]
    for a in (square, deficient, rng.normal(size=(3, 8, 5)), rng.normal(size=(3, 4, 7))):
        b = rng.normal(size=a.shape[:-1] + (2,))
        want = np.array([np.linalg.lstsq(x, y, rcond=None)[0] for x, y in zip(a, b)])
        assert np.abs(mg._lstsq(a, b) - want).max() <= 1e-12 * np.abs(want).max()


def test_stacked_lstsq_decides_the_route_per_system():
    """A full-rank square system solves by LU beside a rank-deficient one: bit for bit as alone."""
    rng = np.random.default_rng(64)
    a = rng.normal(size=(6, 6, 6))
    a[2, :, -1] = a[2, :, 0]
    b = rng.normal(size=(6, 6, 3))
    x = mg._lstsq(a, b)
    for i in (0, 1, 3, 4, 5):
        assert np.array_equal(x[i], mg._lstsq(a[i], b[i]))
    want = np.linalg.lstsq(a[2], b[2], rcond=None)[0]
    assert np.abs(x[2] - want).max() <= 1e-12 * np.abs(want).max()


def test_chunk_sizes(monkeypatch):
    """CHUNK_BYTES cuts criterion 5's 3^4 chart into chunks of 16 plane and 5 full points,
    and leaves every call on the 2^4 chart in one chunk."""
    sizes = []
    real = mg._in_chunks

    def counting(chunk_metric, xi, system, n_cols):
        def dry(x):
            sizes.append(len(x))
            return np.zeros((len(x), n_cols, n_cols))

        return real(dry, xi, system, n_cols)

    monkeypatch.setattr(mg, "_in_chunks", counting)
    for case, plane_chunk, full_chunk in (("box_3", 16, 5), ("box_2", None, None)):
        mf, dim, eps = _plane_case(case)
        for pts, plane, chunk in zip(_oracle_points(dim, eps), (False, True), (full_chunk, plane_chunk)):
            sizes.clear()
            mf(pts, plane=plane)
            chunk = chunk or len(pts)
            assert sizes == [chunk] * (len(pts) // chunk) + [len(pts) % chunk] * bool(len(pts) % chunk)


def _dense_range_projector(lm):
    """The dense route: each map's weight-normalised matrix m_hat = sr M / sc and its normal system."""
    sr, sc = np.sqrt(lm.row_space.weights), np.sqrt(lm.col_space.weights)
    m_hat = lm.matrix * sr[:, None] / sc
    normal = np.swapaxes(m_hat, -1, -2) @ m_hat

    def project(t):
        cols = t[:, None] if np.ndim(t) == 1 else t
        z = np.linalg.solve(normal, np.swapaxes(m_hat, -1, -2) @ (sr[:, None] * cols))
        out = cols - (m_hat @ z) / sr[:, None]
        return out[..., 0] if np.ndim(t) == 1 else out

    return project


def _curvature_box_chart(seed=11):
    """(metric_fn, dim, eps) of the benchmark's curvature_box lattice chart."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    inp = wl.setup_curvature_box(seed)
    sys_, c0 = inp["system"], inp["cvec"]
    v, w = mg.sample_solution_plane(sys_, c0, seed=inp["plane_seed"])[0]
    return (*mg.solution_chart_metric(sys_, c0, v, w), wl.ORACLE_EPS)


@pytest.mark.parametrize("case", ["curvature_box", "box_3"])
def test_oracle_metric_matches_the_dense_projector(case, monkeypatch):
    """Oracle-point metrics from the triplet projector are the dense route's within 1e-12 relative:
    every point of the curvature_box chart, and criterion 5's 3^4 chart at its full points and a plane chunk."""
    mf, dim, eps = _curvature_box_chart() if case == "curvature_box" else _plane_case(case)
    stacks = [(pts, plane) for e in (eps, eps / 2) for pts, plane in zip(_oracle_points(dim, e), (False, True))]
    if case == "box_3":
        stacks = [(stacks[0][0], False), (stacks[1][0][:16], True)]
    triplet = [mf(pts, plane=plane) for pts, plane in stacks]
    monkeypatch.setattr(dfm.LinearMap, "range_projector", _dense_range_projector)
    for got, (pts, plane) in zip(triplet, stacks):
        want = mf(pts, plane=plane)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_stacked_metric_fails_with_any_failing_point():
    """One point whose chord Newton stops short, or whose gauge map loses rank, fails the whole stack."""
    sys_ = mg.HopfFixtureSystem()
    mf, dim = mg.solution_chart_metric(sys_, sys_.center(), quat.QJ.copy(), quat.QK.copy(), max_iter=1)
    assert mf(np.zeros((3, dim))).shape == (3, 2, 2)
    with pytest.raises(RuntimeError, match="did not converge"):
        mf(np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.0]]))

    # the noisy 3^4 box of the divergence test: 30 e_0 diverges, the centre converges
    geom = LatticeGeom((3,) * 4, 1.0 / 3, Topology.BOX)
    c = gsw.random_config(geom, GaugeGroup.U1, seed=0, amplitude=0.3)
    s = gsw.manufacture(c)
    c.u.values = c.u.values + 0.01 * np.random.default_rng(0).normal(size=c.u.values.shape)
    lattice = mg.LatticeSystem(c, s)
    v, w = mg.sample_solution_plane(lattice, lattice.center(), seed=0)[0]
    mf, dim = mg.solution_chart_metric(lattice, lattice.center(), v, w)
    assert mf(np.zeros((2, dim)), plane=True).shape == (2, 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="did not converge"):
            mf(np.stack([np.zeros(dim), 30.0 * np.eye(dim)[0]]), plane=True)

    # a slice chart point with u = 0 (reachable: (0, u) lies in ker D* at every u)
    geom = torus()
    sys_ = mg.LatticeSystem(gsw.random_config(geom, GaugeGroup.U1, seed=1), Sources.zero(geom))
    c0 = sys_.center()
    v, w = mg.sample_horizontal_plane(sys_, c0, seed=2)
    mf, dim = mg.slice_chart_metric(sys_, c0, v, w)
    wts = sys_.tan_space.weights
    basis = dfm._plane_led(sys_.gauge_map(c0).adjoint().kernel_basis(), wts, v, w, "gauge slice")
    to_zero_spinor = -c0 * (np.arange(c0.size) >= sys_.tan_space.n_links)
    xi = basis.T @ (wts * to_zero_spinor)
    assert mf(np.stack([np.zeros(dim), 0.5 * xi]), plane=True).shape == (2, 2, 2)
    with pytest.raises(np.linalg.LinAlgError, match="rank loss"):
        mf(np.stack([np.zeros(dim), xi, 0.5 * xi]), plane=True)


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
    space = dfm.layout(geom, c.group).tangent

    def l2_inner(t1, t2):
        return space.inner(space.pack(t1.b, t1.v), space.pack(t2.b, t2.v))

    t1 = dfm.random_tangent(c, 25)
    t2 = dfm.random_tangent(c, 26)
    val = l2_inner(t1, t2)
    g = gsw.random_gauge(geom, 27)
    phase = quat.exp_i(-g.theta)
    t1g = TangentConfig(t1.b.copy(), quat.mul(t1.v, phase))
    t2g = TangentConfig(t2.b.copy(), quat.mul(t2.v, phase))
    val_g = l2_inner(t1g, t2g)
    assert abs(val - val_g) <= 1e-12 * max(abs(val), 1.0)
    bump = TangentConfig(np.zeros(geom.dims + (4,)), np.ones(geom.dims + (4,)))
    assert l2_inner(bump, bump) > 0


def test_green_solver_invariants():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=28)
    d = dfm.lin_gauge(c)
    green = mg.GreenSolver(d, side="cols")
    rng = np.random.default_rng(29)
    xi = rng.normal(size=d.col_space.dim)
    # normal operator applied after the Green solve restores range components
    normal = lambda y: d.adjoint().apply(d.apply(y))
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

    close(mg.horizontal_projector(sys_, c0)(t), t - d.apply(g0 @ d.adjoint().apply(t)))
    omega = mg.a_term(sys_, c0, w, v) - mg.a_term(sys_, c0, v, w)
    close(mg.vertical_bracket_vec(sys_, c0, v, w), d.apply(g0 @ omega))
    b = sys_.equation_second(c0, v, w)
    close(mg.second_fundamental_vec(sys_, c0, v, w), -eq.adjoint().apply(g @ b))
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
    cli._write_csv(path, mg.CSV_FIELDS, rows)
    text = path.read_text().splitlines()
    assert text[0] == ",".join(mg.CSV_FIELDS)
    assert len(text) == 2
