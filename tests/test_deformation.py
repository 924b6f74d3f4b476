import warnings

import numpy as np
import pytest

import gswlab.quaternion as quat
from gswlab import deformation as dfm, gsw
from gswlab import lattice as lat
from gswlab.gsw import Configuration, Sources
from gswlab.lattice import ConnectionField, LatticeGeom, SelfDualForm, SpinorField, Topology
from gswlab.targets import GaugeGroup, TargetKind


def torus(n=3, h=0.4):
    return LatticeGeom((n,) * 4, h, Topology.TORUS)


def box_fueter_config(n=3):
    """u = z1 + offset on a box: an exact solution with psi = 0."""
    from gswlab import frequency as fq

    geom = LatticeGeom((n,) * 4, 1.0 / n, Topology.BOX)
    u = fq.fueter_library(geom, "z1")
    vals = u.values.copy()
    vals[..., 0] += 0.8
    vals[..., 1] += 0.1
    c = Configuration(ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, vals))
    return c, gsw.manufacture(c)


def pure_gauge_constant(geom, seed=11, value=1.3):
    vals = np.zeros(geom.dims + (4,))
    vals[..., 0] = value
    vals[..., 2] = 0.4
    c = Configuration(ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, vals))
    return gsw.gauge_apply(gsw.random_gauge(geom, seed), c)


# ---------------------------------------------------------------------------
# LinearMap basics


def test_adjoint_pairing_exact():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=1)
    for op in (dfm.lin_gauge(c), dfm.linearize_fsw(c), dfm.elliptic_op(c)):
        rng = np.random.default_rng(2)
        x = rng.normal(size=op.col_space.dim)
        y = rng.normal(size=op.row_space.dim)
        lhs = op.row_space.inner(op.apply(x), y)
        rhs = op.col_space.inner(x, op.adjoint().apply(y))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
        assert np.allclose(op.adjoint_apply(y), op.adjoint().apply(y))


def test_kernel_cokernel_orthonormal():
    geom = torus()
    c = Configuration(
        ConnectionField(geom, GaugeGroup.U1),
        SpinorField(geom, np.zeros(geom.dims + (4,))),
    )
    d = dfm.lin_gauge(c)
    ker = d.kernel_basis()
    gram = ker.T @ (ker * d.col_space.weights[:, None])
    assert np.abs(gram - np.eye(ker.shape[1])).max() <= 1e-10
    assert np.abs(d.matrix @ ker).max() <= 1e-10


# ---------------------------------------------------------------------------
# gauge linearization


def test_lin_gauge_constant_direction():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=3, offset=2.0, amplitude=0.1)
    d = dfm.lin_gauge(c)
    xi = np.ones(geom.n_sites)
    out = d.apply(xi)
    b, v = d.row_space.unpack(out)
    assert np.abs(b).max() <= 1e-14  # d of a constant
    assert np.abs(v).max() > 0.1  # vertical spinor part


def test_lin_gauge_reducible_kernel():
    geom = torus()
    c = Configuration(
        ConnectionField(geom, GaugeGroup.U1),
        SpinorField(geom, np.zeros(geom.dims + (4,))),
    )
    d = dfm.lin_gauge(c)
    rank, _ = d.rank()
    assert d.col_space.dim - rank == 1  # constant phases


def test_pinv_apply_column_stack():
    """A column stack is solved column by column, as by a weighted np.linalg.pinv."""
    c, _ = box_fueter_config(n=3)
    eq = dfm.linearize_fsw(c)  # under-determined on a box: a kernel
    ys = np.random.default_rng(51).normal(size=(eq.row_space.dim, 3))
    sr, sc = np.sqrt(eq.row_space.weights), np.sqrt(eq.col_space.weights)
    cutoff = max(eq.matrix.shape) * dfm.RANK_REL_CUTOFF
    ref = (np.linalg.pinv(sr[:, None] * eq.matrix / sc, rcond=cutoff) @ (sr[:, None] * ys)) / sc[:, None]
    out = eq.pinv_apply(ys)
    tol = 1e-12 * np.abs(ref).max()
    assert out.shape == (eq.col_space.dim, ys.shape[1])
    assert np.abs(out - ref).max() <= tol
    for k in range(ys.shape[1]):
        assert np.abs(out[:, k] - eq.pinv_apply(ys[:, k])).max() <= tol
    empty = dfm.LinearMap(np.zeros((0, 4)), dfm.BlockSpace([("e", 0, 1.0)]), dfm.BlockSpace([("t", 4, 2.0)]))
    assert np.array_equal(empty.pinv_apply(np.zeros((0, 3))), np.zeros((4, 3)))
    assert np.array_equal(empty.pinv_apply(np.zeros(0)), np.zeros(4))


def test_trivial_group_empty_map():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.TRIVIAL, seed=4)
    d = dfm.lin_gauge(c)
    assert d.col_space.dim == 0


def test_adjoint_formula_and_zeta_independence():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=5)
    transpose = dfm.lin_gauge_adjoint(c)
    mats = []
    for zeta in (quat.QI, quat.QJ, quat.QK):
        formula = dfm.lin_gauge_adjoint_formula(c, zeta)
        mats.append(formula.matrix)
        assert np.abs(formula.matrix - transpose.matrix).max() <= 1e-10
    assert np.abs(mats[0] - mats[1]).max() <= 1e-10
    assert np.abs(mats[1] - mats[2]).max() <= 1e-10


def test_slice_annihilates_horizontal():
    from gswlab import moduli_geom as mg

    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=6)
    sys_ = mg.LatticeSystem(c, Sources.zero(geom))
    proj = mg.horizontal_projector(sys_, sys_.center())
    t = np.random.default_rng(7).normal(size=sys_.tan_space.dim)
    out = dfm.lin_gauge_adjoint(c).apply(proj(t))
    assert np.abs(out).max() <= 1e-9 * max(np.abs(t).max(), 1.0)


# ---------------------------------------------------------------------------
# linearization of the equations


@pytest.mark.parametrize(
    "group, topology",
    [
        pytest.param(g, t, id=str(g) if t is Topology.TORUS else "box-%s" % g)
        for t in (Topology.TORUS, Topology.BOX)
        for g in (GaugeGroup.TRIVIAL, GaugeGroup.U1)
    ],
)
def test_fd_jacobian_consistency(group, topology):
    # the box leaves face links out of the dof space (link_dof == -1)
    geom = LatticeGeom((3,) * 4, 0.4, topology)
    c = gsw.random_config(geom, group, seed=8, amplitude=0.4)
    s = gsw.manufacture(c)
    e = dfm.linearize_fsw(c)
    t = dfm.random_tangent(c, 9)
    tv = dfm.pack_tangent(e.col_space, t)
    errs = []
    for eps in (1e-4, 1e-5):
        cp, cm = c.copy(), c.copy()
        if group is not GaugeGroup.TRIVIAL:
            cp.a.links = cp.a.links + eps * t.b
            cm.a.links = cm.a.links - eps * t.b
        cp.u.values = cp.u.values + eps * t.v
        cm.u.values = cm.u.values - eps * t.v
        fd = (
            dfm.residual_rowvec(cp, s, e.row_space)
            - dfm.residual_rowvec(cm, s, e.row_space)
        ) / (2 * eps)
        errs.append(np.abs(fd - e.apply(tv)).max())
    assert errs[0] <= 1e-6
    # second order in the step (trivial group: exactly linear, roundoff floor)
    assert errs[1] <= max(errs[0], 1e-9)


def test_reducible_decoupling():
    geom = torus()
    rng = np.random.default_rng(10)
    c = Configuration(
        ConnectionField(geom, GaugeGroup.U1, rng.normal(size=geom.dims + (4,))),
        SpinorField(geom, np.zeros(geom.dims + (4,))),
    )
    e = dfm.linearize_fsw(c)
    # c4(K_b) coupling vanishes at u = 0: the dirac rows do not see b
    n_links = e.col_space.n_links
    dirac_rows = e.row_space.block("dirac")
    assert np.abs(e.matrix[dirac_rows, :n_links]).max() == 0.0


def test_elliptic_op_blocks_and_index():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=12)
    e = dfm.linearize_fsw(c)
    d_star = dfm.lin_gauge_adjoint(c)
    op = dfm.elliptic_op(c)
    assert np.array_equal(op.matrix[: e.row_space.dim], e.matrix)
    assert np.array_equal(op.matrix[e.row_space.dim :], d_star.matrix)
    rep = dfm.cohomology(c)
    assert rep.index == -(rep.h0 - rep.h1 + rep.h2)
    assert rep.index == op.col_space.dim - op.row_space.dim


def test_kernel_two_ways():
    c, s = box_fueter_config(3)
    op = dfm.elliptic_op(c)
    e = dfm.linearize_fsw(c)
    d_star = dfm.lin_gauge_adjoint(c)
    ker = op.kernel_basis()
    assert np.abs(e.matrix @ ker).max() <= 1e-9
    assert np.abs(d_star.matrix @ ker).max() <= 1e-9


# ---------------------------------------------------------------------------
# the on-shell complex identity


def test_complex_identity_pure_gauge_constant():
    geom = torus()
    c = pure_gauge_constant(geom)
    s = gsw.manufacture(c)
    assert np.abs(s.psi).max() <= 1e-12
    assert dfm.complex_check(c, s) <= 1e-9


def test_complex_identity_reducible():
    geom = torus()
    rng = np.random.default_rng(13)
    c = Configuration(
        ConnectionField(geom, GaugeGroup.U1, 0.3 * rng.normal(size=geom.dims + (4,))),
        SpinorField(geom, np.zeros(geom.dims + (4,))),
    )
    s = gsw.manufacture(c)
    assert dfm.complex_check(c, s) <= 1e-9


def test_complex_norm_scales_with_dirac_row():
    """Off equivariant sources the composition scales like |D_A u|."""
    geom = torus()
    base = pure_gauge_constant(geom, seed=14)
    norms = []
    for eps in (1e-3, 1e-2, 1e-1):
        c = base.copy()
        c.u.values = c.u.values + eps * np.random.default_rng(15).normal(
            size=geom.dims + (4,)
        )
        comp = dfm.linearize_fsw(c).compose(dfm.lin_gauge(c))
        norms.append(comp.operator_norm())
    assert norms[0] <= 0.2 * norms[1] <= 0.04 * norms[2] / 0.2


def test_complex_check_warns_off_shell():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=16)
    s = Sources.zero(geom)
    with pytest.warns(UserWarning, match="off-shell"):
        dfm.complex_check(c, s)


# ---------------------------------------------------------------------------
# cohomology


def test_cohomology_trivial_box():
    from gswlab import frequency as fq

    geom = LatticeGeom((3,) * 4, 1 / 3, Topology.BOX)
    u = fq.fueter_library(geom, "z1")
    c = Configuration(ConnectionField(geom), u)
    rep = dfm.cohomology(c)
    assert rep.h0 == 0  # no gauge directions at all


def test_cohomology_reducible_torus():
    geom = torus()
    c = Configuration(
        ConnectionField(geom, GaugeGroup.U1),
        SpinorField(geom, np.zeros(geom.dims + (4,))),
    )
    rep = dfm.cohomology(c)
    assert rep.h0 == 1
    assert rep.index == -(rep.h0 - rep.h1 + rep.h2)


def test_cohomology_gauge_naturality():
    geom = torus()
    c = pure_gauge_constant(geom, seed=17)
    rep = dfm.cohomology(c)
    rep_g = dfm.cohomology(gsw.gauge_apply(gsw.random_gauge(geom, 18), c))
    assert (rep.h0, rep.h1, rep.h2) == (rep_g.h0, rep_g.h1, rep_g.h2)


def test_index_invariance_along_kernel():
    c, s = box_fueter_config(3)
    rep = dfm.cohomology(c)
    chart = dfm.KuranishiChart(c, s)
    xi = np.zeros(chart.h1_dim)
    xi[0] = 5e-3
    vec, kappa, info = chart.solve(xi)
    assert info["converged"]
    b, v = chart.space.unpack(vec)
    c2 = Configuration(
        ConnectionField(c.geom, c.group, c.a.links + b),
        SpinorField(c.geom, c.u.values + v),
    )
    rep2 = dfm.cohomology(c2)
    assert rep2.index == rep.index


# ---------------------------------------------------------------------------
# Kuranishi chart


def test_kuranishi_regular_box_sample():
    c, s = box_fueter_config(3)
    rep = dfm.kuranishi(c, s, radius=5e-3, n_samples=5, seed=2)
    assert rep.regular and rep.smooth
    assert rep.kappa0 == 0.0
    for sample in rep.samples:
        assert sample["converged"]
        assert sample["kappa_norm"] <= 1e-8


def test_kuranishi_obstructed_torus():
    geom = torus()
    c = Configuration(
        ConnectionField(geom, GaugeGroup.U1),
        SpinorField(geom, np.zeros(geom.dims + (4,))),
    )
    s = gsw.manufacture(c)
    chart = dfm.KuranishiChart(c, s)
    assert chart.h2_dim > 0
    k0, info0 = chart.kappa_norm(np.zeros(chart.h1_dim))
    assert k0 <= 1e-12
    # central-difference slope of kappa at 0 along a kernel direction
    eps = 1e-4
    e = np.zeros(chart.h1_dim)
    e[0] = 1.0
    _, kp, _ = chart.solve(eps * e)
    _, km, _ = chart.solve(-eps * e)
    assert np.linalg.norm(kp - km) / (2 * eps) <= 1e-6
    # kappa is genuinely nonzero at finite radius (obstructed point)
    xi = np.zeros(chart.h1_dim)
    xi[:4] = 0.05
    knorm, info = chart.kappa_norm(xi)
    assert info["converged"] and knorm > 1e-8


# ---------------------------------------------------------------------------
# export


def test_export_triplets_roundtrip(tmp_path):
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=19)
    op = dfm.lin_gauge(c)
    path = tmp_path / "mat.txt"
    dfm.export_triplets(path, op)
    with open(path) as fh:
        header = fh.readline().split()
        rows, cols, nnz = map(int, header)
        mat = np.zeros((rows, cols))
        for line in fh:
            r, cstr, v = line.split()
            mat[int(r), int(cstr)] = float(v)
    assert (rows, cols) == op.matrix.shape
    assert np.array_equal(mat, op.matrix)


def test_hessians_symmetry_and_fd():
    # second_derivative_rows against the mixed central second difference of
    # the residual rows, along directions with link and spinor parts
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=20, amplitude=0.4)
    s = gsw.manufacture(c)
    space = dfm.EquationSpace(geom, c.group)
    t1, t2 = dfm.random_tangent(c, 21), dfm.random_tangent(c, 22)
    b12 = dfm.second_derivative_rows(c, t1, t2, space)
    b21 = dfm.second_derivative_rows(c, t2, t1, space)
    assert np.abs(b12 - b21).max() <= 1e-12 * np.abs(b12).max()
    eps = 1e-4

    def rows(a1, a2):
        c2 = c.copy()
        c2.a.links = c2.a.links + a1 * t1.b + a2 * t2.b
        c2.u.values = c2.u.values + a1 * t1.v + a2 * t2.v
        return dfm.residual_rowvec(c2, s, space)

    mixed = (
        rows(eps, eps) - rows(eps, -eps) - rows(-eps, eps) + rows(-eps, -eps)
    ) / (4 * eps**2)
    for name in ("dirac", "selfdual"):
        blk = space.block(name)
        assert np.abs(b12[blk]).max() >= 1.0
        assert np.abs(mixed[blk] - b12[blk]).max() <= 1e-6


# ---------------------------------------------------------------------------
# trusted-site residual rows and the cached layout


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 3, 3, 3), (3, 4, 2, 5), (5, 5, 5, 5)])
@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("group", list(GaugeGroup))
@pytest.mark.parametrize("kind", list(TargetKind))
def test_residual_rowvec_matches_full_field_residual(dims, topology, group, kind):
    # the trusted-site gathers agree bit for bit with the full-field reference;
    # cone spinors near the tip flip some neighbours into the half-space of u(x)
    geom = LatticeGeom(dims, 1.0 / dims[0], topology)
    offset = 0.3 if kind is TargetKind.CONE_H_MOD_Z2 else 1.0
    c = gsw.random_config(geom, group, kind, seed=3, amplitude=0.3, offset=offset)
    rng = np.random.default_rng(4)
    s = Sources(rng.normal(size=dims + (4,)), SelfDualForm(geom, rng.normal(size=dims + (3,))))
    space = dfm.layout(geom, group).equations
    dirac_row, sd_row = gsw.residual(c, s)
    assert np.array_equal(dfm.residual_rowvec(c, s, space), space.pack(dirac_row, sd_row.values))
    if kind is TargetKind.CONE_H_MOD_Z2 and dims != (2, 2, 2, 2):
        u = c.u.values.reshape(-1, 4)
        nb = dfm.layout(geom, group).nb[:, space.dirac_sites]
        assert np.any(np.sum(u[nb] * u[space.dirac_sites], axis=-1) < 0.0)


def test_layout_cache_keys_on_the_bare_lattice():
    plain = LatticeGeom((3,) * 4, 1.0 / 3, Topology.BOX)
    curved = LatticeGeom((3,) * 4, 1.0 / 3, Topology.BOX, s_x=np.ones((3,) * 4))
    with pytest.raises(TypeError):
        hash(curved)
    assert dfm.layout(curved, GaugeGroup.U1) is dfm.layout(plain, GaugeGroup.U1)
    assert dfm.layout(plain, GaugeGroup.U1) is not dfm.layout(plain, GaugeGroup.TRIVIAL)
    c = gsw.random_config(curved, GaugeGroup.U1, seed=5, amplitude=0.3)
    e1, e2 = dfm.linearize_fsw(c), dfm.linearize_fsw(c)
    assert e1.row_space is e2.row_space and e1.col_space is e2.col_space
    assert dfm.lin_gauge(c).row_space is e1.col_space
    flat = gsw.random_config(plain, GaugeGroup.U1, seed=5, amplitude=0.3)
    assert np.array_equal(e1.matrix, dfm.linearize_fsw(flat).matrix)
    with pytest.raises(ValueError):
        e1.row_space.weights[0] = 0.0  # shared through the cache, so read-only
    with pytest.raises(ValueError):
        dfm.layout(plain, GaugeGroup.U1).plaq_c[0, 0, 0] = 0  # so are the triplet indices


def test_pack_unpack_roundtrip_with_missing_far_face_links():
    geom = LatticeGeom((3, 4, 2, 3), 0.5, Topology.BOX)
    space = dfm.layout(geom, GaugeGroup.U1).tangent
    rng = np.random.default_rng(6)
    b, v = rng.normal(size=geom.dims + (4,)), rng.normal(size=geom.dims + (4,))
    vec = space.pack(b, v)
    # link dofs run axis by axis over the sites whose forward link exists
    exists = [lat.forward_link_exists(geom, i) for i in range(4)]
    assert np.array_equal(vec[: space.n_links], np.concatenate([b[..., i][exists[i]] for i in range(4)]))
    b2, v2 = space.unpack(vec)
    assert np.array_equal(v2, v)
    assert np.array_equal(b2, b * np.stack(exists, axis=-1))
    assert np.array_equal(space.pack(b2, v2), vec)


def test_chart_newton_stops_when_the_projected_rows_grow():
    # a 0.01-noise spinor off a manufactured U(1) box solution: the chord
    # iteration grows from the first step, so it stops there, finite and flagged
    geom = LatticeGeom((3,) * 4, 1.0 / 3, Topology.BOX)
    c = gsw.random_config(geom, GaugeGroup.U1, seed=0, amplitude=0.3)
    s = gsw.manufacture(c)
    c.u.values = c.u.values + 0.01 * np.random.default_rng(0).normal(size=c.u.values.shape)
    chart = dfm.KuranishiChart(c, s, max_iter=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vec, kappa, info = chart.solve(np.zeros(chart.h1_dim))
    assert info["diverged"] and not info["converged"] and info["iters"] < 10
    assert np.all(np.isfinite(vec)) and np.all(np.isfinite(kappa))


def test_kuranishi_samples_carry_the_divergence_flag():
    # the same 0.01-noise box: every sample's chord Newton stops as diverged
    geom = LatticeGeom((3,) * 4, 1.0 / 3, Topology.BOX)
    c = gsw.random_config(geom, GaugeGroup.U1, seed=0, amplitude=0.3)
    s = gsw.manufacture(c)
    c.u.values = c.u.values + 0.01 * np.random.default_rng(0).normal(size=c.u.values.shape)
    rep = dfm.kuranishi(c, s, n_samples=3)
    assert [r["diverged"] for r in rep.samples] == [True] * 3
    assert not any(r["converged"] for r in rep.samples)
    assert all(type(r["diverged"]) is bool for r in rep.samples)
