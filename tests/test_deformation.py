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


def weighted_map(sing, seed):
    """Square map whose weight-normalised matrix has singular values `sing`, on non-uniform weights."""
    n = len(sing)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    rows = dfm.BlockSpace([("a", n - 2, 0.3), ("b", 2, 2.5)])
    cols = dfm.BlockSpace([("c", 3, 1.7), ("d", n - 3, 0.05)])
    m_hat = (u * np.asarray(sing, dtype=float)) @ v.T
    return dfm.LinearMap(m_hat / np.sqrt(rows.weights)[:, None] * np.sqrt(cols.weights), rows, cols)


def test_pinv_apply_lu_route_matches_svd_route():
    """A square map of full rank is inverted by LU, with no U or V, whatever was factored first."""
    sing = np.geomspace(3.0, 0.02, 9)
    lu_map, factored = weighted_map(sing, 61), weighted_map(sing, 61)
    factored.kernel_basis()  # full factors cached first: the route must not change
    sr, sc = np.sqrt(lu_map.row_space.weights), np.sqrt(lu_map.col_space.weights)
    pinv_hat = np.linalg.pinv(sr[:, None] * lu_map.matrix / sc)
    rng = np.random.default_rng(62)
    for y in (rng.normal(size=9), rng.normal(size=(9, 4))):
        got = lu_map.pinv_apply(y)
        ref = ((pinv_hat @ (sr[:, None] * y.reshape(9, -1))) / sc[:, None]).reshape(y.shape)
        assert got.shape == y.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(lu_map.apply(got) - y).max() <= 1e-12 * np.abs(y).max() * sing[0] / sing[-1]
        assert np.array_equal(factored.pinv_apply(y), got)
    assert lu_map._svd is None and lu_map.rank()[0] == 9


def test_pinv_apply_rank_deficient_square_map():
    """The minimum-norm weighted least-squares solution, and one margin warning per map."""
    lm = weighted_map([2.0, 1.0, 0.5, 0.25, 0.0, 0.0], 63)
    ys = np.random.default_rng(64).normal(size=(6, 3))
    sr, sc = np.sqrt(lm.row_space.weights), np.sqrt(lm.col_space.weights)
    m_hat = sr[:, None] * lm.matrix / sc
    ref = (np.linalg.pinv(m_hat, rcond=6 * dfm.RANK_REL_CUTOFF) @ (sr[:, None] * ys)) / sc[:, None]
    out = lm.pinv_apply(ys)
    assert lm.rank()[0] == 4 and lm._svd is not None
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(lm.pinv_apply(ys[:, 1]) - ref[:, 1]).max() <= 1e-12 * np.abs(ref).max()
    # retained 4e-9 and discarded 5e-10 straddle the cutoff 6e-10 less than 10x apart
    marginal = weighted_map([1.0, 0.7, 0.4, 0.1, 4e-9, 5e-10], 65)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        marginal.pinv_apply(ys[:, 0])
        marginal.pinv_apply(ys)
        marginal.kernel_basis(), marginal.cokernel_basis(), marginal.rank()
    assert [w.category for w in caught] == [dfm.RankMarginWarning]
    assert marginal.rank()[0] == 5


def test_kernel_and_cokernel_after_a_values_only_rank():
    """A values-only rank is the rank the full factors are read with."""
    c, _ = box_fueter_config(n=2)
    geom = torus()
    zero = Configuration(ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, np.zeros(geom.dims + (4,))))
    for lm in (dfm.linearize_fsw(c), dfm.lin_gauge(c), dfm.lin_gauge(zero), weighted_map([1.0, 0.5, 0.0, 0.0], 66)):
        r, _ = lm.rank()
        assert lm._svd is None
        assert lm.kernel_basis().shape == (lm.col_space.dim, lm.col_space.dim - r)
        assert lm.cokernel_basis().shape == (lm.row_space.dim, lm.row_space.dim - r)
        assert lm.rank()[0] == r


def test_dense_size_limit_raised_before_any_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD ran over the dense-size limit")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    big = dfm.BlockSpace([("big", dfm.MAX_DENSE_DIM + 1, 1.0)])
    lm = dfm.LinearMap(np.zeros((big.dim, 1)), big, dfm.BlockSpace([("one", 1, 1.0)]))
    for method in (lm.rank, lm.singular_values, lm.operator_norm, lm.kernel_basis):
        with pytest.raises(ValueError, match="dense SVD limited"):
            method()
    with pytest.raises(ValueError, match="dense SVD limited"):
        lm.pinv_apply(np.zeros(big.dim))


def zero_point(topology):
    """u = 0 and the zero connection on a 3^4 U(1) lattice: the reducible point where E and D* decouple."""
    geom = LatticeGeom((3,) * 4, 0.4 if topology is Topology.TORUS else 1.0 / 3, topology)
    return Configuration(ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, np.zeros(geom.dims + (4,))))


def weighted_projector(basis, weights):
    return basis @ (basis.T * weights)


def recorded_svd(monkeypatch):
    """Record (shape, args, kwargs) of every np.linalg.svd call."""
    calls, real_svd = [], np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        calls.append((a.shape, args, kwargs))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return calls


@pytest.mark.parametrize("topology", [Topology.TORUS, Topology.BOX])
@pytest.mark.parametrize("name", ["E", "D*", "[E; D*]"])
def test_decoupled_map_matches_one_svd(name, topology):
    """At u = 0 each map splits into a spinor and a one-form part, read as by one SVD of the whole map."""
    c = zero_point(topology)
    lm = {"E": dfm.linearize_fsw, "D*": lambda c: dfm.lin_gauge(c).adjoint(), "[E; D*]": dfm.elliptic_op}[name](c)
    m_hat, sr, sc = lm._normalised()
    parts = lm._parts(m_hat)
    spinor = np.arange(lm.col_space.dim)[lm.col_space.block("spinor")]
    assert len(parts) == 2 and any(np.array_equal(cols, spinor) for _, cols in parts)
    u, s, vt = np.linalg.svd(m_hat)
    cutoff = max(lm.shape) * s[0] * dfm.RANK_REL_CUTOFF
    r = int(np.sum(s > cutoff))
    assert np.abs(lm.singular_values() - s).max() <= 1e-14 * s[0]
    rank, margins = lm.rank()
    assert rank == r
    assert np.abs(np.subtract(margins, (s[r - 1], s[r] if r < s.size else 0.0))).max() <= 1e-14 * s[0]
    for got, want, w in ((lm.kernel_basis(), vt[r:].T / sc[:, None], lm.col_space.weights),
                         (lm.cokernel_basis(), u[:, r:] / sr[:, None], lm.row_space.weights)):
        assert got.shape == want.shape
        assert np.abs(got.T @ (got * w[:, None]) - np.eye(got.shape[1])).max(initial=0.0) <= 1e-12
        assert np.abs(weighted_projector(got, w) - weighted_projector(want, w)).max() <= 1e-12
    pinv = np.linalg.pinv(m_hat, rcond=max(lm.shape) * dfm.RANK_REL_CUTOFF)
    ys = np.random.default_rng(67).normal(size=(lm.shape[0], 3))
    ref = (pinv @ (sr[:, None] * ys)) / sc[:, None]
    assert np.abs(lm.pinv_apply(ys) - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(lm.pinv_apply(ys[:, 0]) - ref[:, 0]).max() <= 1e-12 * np.abs(ref[:, 0]).max()
    if name == "D*":  # the spinor block has no rows: it lies wholly in the kernel
        x = np.zeros(lm.col_space.dim)
        x[spinor] = np.random.default_rng(68).normal(size=spinor.size)
        assert np.abs(weighted_projector(lm.kernel_basis(), lm.col_space.weights) @ x - x).max() <= 1e-12


def test_decoupled_map_warns_one_margin_once():
    """A block-diagonal map with retained 4e-9 and discarded 5e-10 in different parts warns once."""
    rng = np.random.default_rng(69)
    rows = dfm.BlockSpace([("a", 3, 0.3), ("b", 3, 2.5)])
    cols = dfm.BlockSpace([("c", 3, 1.7), ("d", 3, 0.05)])
    m_hat = np.zeros((6, 6))
    for block, sing in ((slice(0, 3), [1.0, 0.7, 4e-9]), (slice(3, 6), [0.4, 0.1, 5e-10])):
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        m_hat[block, block] = (u * sing) @ v.T
    lm = dfm.LinearMap(m_hat / np.sqrt(rows.weights)[:, None] * np.sqrt(cols.weights), rows, cols)
    assert len(lm._parts(lm._normalised()[0])) == 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lm.pinv_apply(np.ones(6))
        lm.kernel_basis(), lm.cokernel_basis(), lm.rank()
    assert [w.category for w in caught] == [dfm.RankMarginWarning]
    assert lm.rank()[0] == 5 and lm.kernel_basis().shape == (6, 1) and lm.cokernel_basis().shape == (6, 1)
    ker = lm.kernel_basis()[3:, 0] * np.sqrt(0.05)  # the discarded value's right vector, in part (b, d)
    assert np.abs(lm.kernel_basis()[:3]).max() == 0.0 and abs(np.linalg.norm(ker) - 1.0) <= 1e-12


def test_coupled_map_takes_one_svd_as_before(monkeypatch):
    """A map that does not decouple is factored by today's single SVD call, with the same results bit for bit."""
    eq = dfm.linearize_fsw(gsw.random_config(torus(), GaugeGroup.U1, seed=70, amplitude=0.3))
    m_hat, sr, sc = eq._normalised()
    assert len(eq._parts(m_hat)) == 1
    u, s, vt = np.linalg.svd(m_hat, full_matrices=True)
    values = np.linalg.svd(m_hat, compute_uv=False)
    r = int(np.sum(s > max(eq.shape) * s[0] * dfm.RANK_REL_CUTOFF))
    y = np.random.default_rng(71).normal(size=eq.shape[0])
    calls = recorded_svd(monkeypatch)
    assert np.array_equal(eq.kernel_basis(), vt[r:].T / sc[:, None])
    assert np.array_equal(eq.cokernel_basis(), u[:, r:] / sr[:, None])
    assert np.array_equal(eq.pinv_apply(y), (vt[:r].T @ ((u[:, :r].T @ (sr * y)) / s[:r])) / sc)
    assert np.array_equal(eq.singular_values(), s) and eq.rank()[0] == r
    assert calls == [(eq.shape, (), {"full_matrices": True})]
    values_only = dfm.linearize_fsw(gsw.random_config(torus(), GaugeGroup.U1, seed=70, amplitude=0.3))
    del calls[:]
    assert np.array_equal(values_only.singular_values(), values)
    assert calls == [(eq.shape, (), {"compute_uv": False})]


def test_chart_at_the_reducible_point_factors_by_parts(monkeypatch):
    """At u = 0 the chart factors E and D* part by part, with the h-dims and kernel of the whole maps."""
    c = zero_point(Topology.TORUS)
    s = gsw.manufacture(c)
    calls = recorded_svd(monkeypatch)
    chart = dfm.KuranishiChart(c, s)
    largest = max(len(rows) * len(cols) for rows, cols in chart.eq._parts(chart.eq._normalised()[0]))
    assert calls and all(np.prod(shape) <= largest for shape, _, _ in calls)
    assert (567, 648) not in [shape for shape, _, _ in calls]
    monkeypatch.undo()
    rep = dfm.cohomology(c)
    assert chart.h_dims() == (1, 8, 7) == (rep.h0, rep.h1, rep.h2)
    assert chart.kappa_norm(np.zeros(chart.h1_dim))[0] == 0.0
    kernel = chart.frame.kernel
    assert np.abs(chart.eq.matrix @ kernel).max() <= 1e-12
    assert np.abs(chart.gauge.adjoint().matrix @ kernel).max() <= 1e-12


def test_trivial_group_empty_map():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.TRIVIAL, seed=4)
    d = dfm.lin_gauge(c)
    assert d.col_space.dim == 0


def test_adjoint_formula_and_zeta_independence():
    geom = torus()
    c = gsw.random_config(geom, GaugeGroup.U1, seed=5)
    transpose = dfm.lin_gauge(c).adjoint()
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
    out = dfm.lin_gauge(c).adjoint().apply(proj(t))
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
    tv = e.col_space.pack(t.b, t.v)
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
    d_star = dfm.lin_gauge(c).adjoint()
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
    d_star = dfm.lin_gauge(c).adjoint()
    ker = op.kernel_basis()
    assert np.abs(e.matrix @ ker).max() <= 1e-9
    assert np.abs(d_star.matrix @ ker).max() <= 1e-9


def chart_points():
    geom = torus()
    zero = Configuration(ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, np.zeros(geom.dims + (4,))))
    rnd = gsw.random_config(geom, GaugeGroup.U1, seed=5, amplitude=0.3)
    return {"zero_torus": zero, "fueter_box": box_fueter_config(3)[0], "random_torus": rnd}


def noisy_box():
    """A 0.01-noise spinor off a manufactured U(1) 3^4 box solution."""
    geom = LatticeGeom((3,) * 4, 1.0 / 3, Topology.BOX)
    c = gsw.random_config(geom, GaugeGroup.U1, seed=0, amplitude=0.3)
    s = gsw.manufacture(c)
    c.u.values = c.u.values + 0.01 * np.random.default_rng(0).normal(size=c.u.values.shape)
    return c, s


@pytest.mark.parametrize("name", ["zero_torus", "noisy_box"])
def test_chart_frame_completes_the_kernel_inside_the_slice(name):
    """[kernel | w_basis] is a weighted-orthonormal basis of the slice ker D*, w_basis orthogonal to the kernel.

    On the noisy box the chart point at xi = 0 then solves the equations.
    """
    if name == "noisy_box":
        c, s = noisy_box()
    else:
        c = chart_points()[name]
        s = gsw.manufacture(c)
    chart = dfm.KuranishiChart(c, s)
    frame, w = chart.frame, chart.space.weights
    d_star = chart.gauge.adjoint()
    assert np.abs(d_star.matrix @ frame.w_basis).max() <= 1e-12
    assert np.abs(frame.kernel.T @ (frame.w_basis * w[:, None])).max() <= 1e-12
    full = np.hstack([frame.kernel, frame.w_basis])
    assert full.shape[1] == chart.space.dim - d_star.rank()[0]
    assert np.abs(full.T @ (full * w[:, None]) - np.eye(full.shape[1])).max() <= 1e-12
    if name == "noisy_box":
        _, _, info = chart.solve(np.zeros(chart.h1_dim))
        assert info["converged"] and not info["diverged"]


def part_shapes(lm):
    """Shapes of the nonempty parts of lm, one SVD each."""
    parts = lm._parts(lm._normalised()[0])
    shapes = [tuple(np.arange(k)[idx].size for k, idx in zip(lm.shape, part)) for part in parts]
    return [shape for shape in shapes if 0 not in shape]


@pytest.mark.parametrize("name", ["zero_torus", "fueter_box", "random_torus"])
def test_chart_kernel_from_e_matches_the_stacked_kernel(name, monkeypatch):
    """ker E ∩ ker D* through the SVD of E S is ker [E; D*], and no SVD of [E; D*] is taken.

    `cohomology` takes no SVD of [E; D*] and no full SVD of E S, and its h-dims are the chart's.
    """
    c = chart_points()[name]
    s = gsw.manufacture(c)
    calls = []
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        calls.append((a.shape, kwargs.get("compute_uv", True)))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    chart = dfm.KuranishiChart(c, s)
    dims = chart.h_dims()
    stacked_shape = dfm.elliptic_op(c).matrix.shape
    assert calls and stacked_shape not in [shape for shape, _ in calls]
    del calls[:]
    rep = dfm.cohomology(c)
    reduced_shapes = part_shapes(chart.frame.reduced)
    assert calls and stacked_shape not in [shape for shape, _ in calls]
    assert not any(uv and shape in reduced_shapes for shape, uv in calls)
    monkeypatch.undo()

    w = chart.space.weights
    ker = dfm.elliptic_op(c).kernel_basis()
    got = chart.frame.kernel @ (chart.frame.kernel.T * w)
    want = ker @ (ker.T * w)
    assert np.abs(got - want).max() <= 1e-12
    assert chart.h1_dim == rep.h1 and dims == (rep.h0, rep.h1, rep.h2)
    eq = dfm.linearize_fsw(c)
    assert chart.h2_dim == eq.row_space.dim - eq.rank()[0]


def stacked_chart_reference(eq, gauge):
    """(kernel, coker, w_basis, chord step) of the chart as built from E before E S was factored.

    The kernel is ker E times the kernel of D* on ker E, the cokernel coker E;
    w_basis completes the kernel's slice coordinates by a complete QR, and the
    chord step is w_basis times the pseudo-inverse of E w_basis projected off
    the cokernel, applied to -r projected off the cokernel.
    """
    w_tan, w_eq = eq.col_space.weights, eq.row_space.weights
    slice_op = gauge.adjoint()
    ker_e = eq.kernel_basis()
    on_ker_e = dfm.BlockSpace([("ker E", ker_e.shape[1], 1.0)])
    kernel = ker_e @ dfm.LinearMap(slice_op.matrix @ ker_e, slice_op.row_space, on_ker_e).kernel_basis()
    coker = eq.cokernel_basis()
    slice_basis = slice_op.kernel_basis()
    coords = slice_basis.T @ (kernel * w_tan[:, None])
    w_basis = slice_basis @ np.linalg.qr(coords, mode="complete")[0][:, kernel.shape[1]:]
    red = eq.matrix @ w_basis
    red = red - coker @ (coker.T @ (red * w_eq[:, None]))
    chord = dfm.LinearMap(red, eq.row_space, dfm.BlockSpace([("w", w_basis.shape[1], 1.0)]))

    def step(r):
        return w_basis @ chord.pinv_apply(-(r - coker @ (coker.T @ (r * w_eq))))

    return kernel, coker, w_basis, step


@pytest.mark.parametrize("name", ["zero_torus", "fueter_box", "random_torus", "noisy_box"])
def test_chart_from_e_s_matches_the_stacked_reference(name):
    """Kernel, cokernel, w_basis and chord step from E S agree with the reference from E to 1e-12."""
    c = noisy_box()[0] if name == "noisy_box" else chart_points()[name]
    frame = dfm.ChartFrame(dfm.linearize_fsw(c), dfm.lin_gauge(c))
    kernel, coker, w_basis, step = stacked_chart_reference(dfm.linearize_fsw(c), dfm.lin_gauge(c))
    for got, want, w in ((frame.kernel, kernel, frame.eq.col_space.weights),
                         (frame.coker, coker, frame.eq.row_space.weights),
                         (frame.w_basis, w_basis, frame.eq.col_space.weights)):
        assert got.shape == want.shape
        assert np.abs(weighted_projector(got, w) - weighted_projector(want, w)).max(initial=0.0) <= 1e-12
    r = np.random.default_rng(73).normal(size=frame.eq.shape[0])
    base = np.zeros(frame.eq.shape[1])
    got = frame.solve(lambda t: r, base, 0.0, 1)[0]  # one chord step from base = 0
    assert np.abs(got - step(r)).max() <= 1e-12 * np.abs(step(r)).max()


@pytest.mark.parametrize("name", ["zero_torus", "fueter_box", "random_torus"])
def test_chart_takes_one_svd_of_d_star_and_of_e_s_per_part(name, monkeypatch):
    """A chart factors D* and E S once each, part by part, and no E, [E; D*] or chord map; h_dims takes no SVD."""
    c = chart_points()[name]
    calls = recorded_svd(monkeypatch)
    chart = dfm.KuranishiChart(c, gsw.manufacture(c))
    chart.solve(np.full(chart.h1_dim, 1e-3))
    factored = [shape for shape, args, kwargs in calls]
    assert all(kwargs == {"full_matrices": True} for _, _, kwargs in calls)
    del calls[:]
    chart.h_dims()
    assert not calls
    monkeypatch.undo()
    frame = chart.frame
    assert sorted(factored) == sorted(part_shapes(frame.slice_op) + part_shapes(frame.reduced))
    assert chart.eq.shape not in factored and dfm.elliptic_op(c).shape not in factored


def test_sampling_reads_only_the_chart_kernel(monkeypatch):
    """`sample_solution_plane` draws from the chart's kernel, with no plane-led QR."""
    from gswlab import moduli_geom as mg

    c, s = box_fueter_config(3)
    system = mg.LatticeSystem(c, s)
    c0 = system.center()
    kernel = dfm.ChartFrame(system.equation_map(c0), system.gauge_map(c0)).kernel

    def no_qr(*args, **kwargs):
        raise AssertionError("sampling took a QR")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    v, w = mg.sample_solution_plane(system, c0, seed=3)[0]
    weights = system.tan_space.weights
    for x in (v, w):
        assert np.sqrt(weights @ (x - kernel @ (kernel.T @ (x * weights))) ** 2) <= 1e-12


def test_samples_do_not_depend_on_the_kernel_basis(monkeypatch):
    """A rotated kernel basis moves sampled planes and kuranishi's kappa_norm only by rounding."""
    from gswlab import moduli_geom as mg

    c = zero_point(Topology.TORUS)
    s = gsw.manufacture(c)
    system = mg.LatticeSystem(c, s)

    def samples():
        planes = mg.sample_solution_plane(system, system.center(), seed=3, n_planes=2)
        return np.array(planes), np.array([r["kappa_norm"] for r in dfm.kuranishi(c, s, n_samples=3).samples])

    planes, kappas = samples()
    real_init = dfm.ChartFrame.__init__

    def rotated_kernel(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        q, _ = np.linalg.qr(np.random.default_rng(72).normal(size=(self.kernel.shape[1],) * 2))
        self.kernel = self.kernel @ q

    monkeypatch.setattr(dfm.ChartFrame, "__init__", rotated_kernel)
    rot_planes, rot_kappas = samples()
    assert kappas.min() > 1e-8  # the obstructed point: kappa is not rounding
    assert np.abs(rot_planes - planes).max() <= 1e-12 * np.abs(planes).max()
    assert np.abs(rot_kappas - kappas).max() <= 1e-12 * kappas.max()


def test_kuranishi_reports_the_h1_it_samples(monkeypatch):
    """`cohomology`, the chart and `kuranishi` make the same rank decisions, also at a marginal cutoff.

    On the 3^4 Fueter box the least singular value of D* is 0.881.  A cutoff
    of 1.6e-4 relative drops it (540 * 10.43 * 1.6e-4 = 0.90), less than 10x
    below the retained 3.13, so D* has rank 80: all three report (1, 348, 0)
    where the default cutoff gives (0, 347, 0), with the same index.
    """
    c, s = box_fueter_config(3)
    monkeypatch.setattr(dfm, "RANK_REL_CUTOFF", 1.6e-4)
    with pytest.warns(dfm.RankMarginWarning):
        rep = dfm.cohomology(c)
        chart = dfm.KuranishiChart(c, s)
        kur = dfm.kuranishi(c, s, n_samples=1)
    assert len(rep.warnings_) == 1
    assert (rep.h0, rep.h1, rep.h2) == chart.h_dims() == kur.h_dims == (1, 348, 0)
    assert chart.h1_dim == 348 and rep.index == 347
    monkeypatch.undo()
    default = dfm.cohomology(c)
    assert (default.h0, default.h1, default.h2, default.index) == (0, 347, 0, 347)


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


@pytest.mark.parametrize("topology", list(Topology))
def test_hessians_symmetry_and_fd(topology):
    # second_derivative_rows against the mixed central second difference of
    # the residual rows, along directions with link and spinor parts; on a box
    # only the trusted rows are gathered
    geom = LatticeGeom((3,) * 4, 0.4, topology)
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
    twin = LatticeGeom((3,) * 4, 1.0 / 3, Topology.BOX)
    assert twin is not plain and twin == plain and hash(twin) == hash(plain)
    dfm.layout.cache_clear()
    lay = dfm.layout(plain, GaugeGroup.U1)
    info = dfm.layout.cache_info()
    assert dfm.layout(twin, GaugeGroup.U1) is lay
    assert dfm.layout.cache_info().hits == info.hits + 1
    assert dfm.layout.cache_info().currsize == info.currsize
    assert dfm.layout(plain, GaugeGroup.U1) is not dfm.layout(plain, GaugeGroup.TRIVIAL)
    c = gsw.random_config(twin, GaugeGroup.U1, seed=5, amplitude=0.3)
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
    # the noisy box at the far chart point 30 xi_hat: the chord iteration
    # grows from the first step, so it stops there, finite and flagged
    c, s = noisy_box()
    chart = dfm.KuranishiChart(c, s, max_iter=10)
    xi = np.random.default_rng(0).normal(size=chart.h1_dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vec, kappa, info = chart.solve(30.0 * xi / np.linalg.norm(xi))
    assert info["diverged"] and not info["converged"] and info["iters"] < 10
    assert np.all(np.isfinite(vec)) and np.all(np.isfinite(kappa))


def test_kuranishi_samples_carry_the_divergence_flag():
    # the same noisy box sampled at radius 100: every sample's chord Newton stops as diverged
    c, s = noisy_box()
    rep = dfm.kuranishi(c, s, radius=100, n_samples=3)
    assert [r["diverged"] for r in rep.samples] == [True] * 3
    assert not any(r["converged"] for r in rep.samples)
    assert all(type(r["diverged"]) is bool for r in rep.samples)


# ---------------------------------------------------------------------------
# triplet maps and the matrix-free Newton step


def zero_torus(n, h=0.25):
    geom = LatticeGeom((n,) * 4, h, Topology.TORUS)
    return Configuration(ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, np.zeros(geom.dims + (4,))))


@pytest.mark.parametrize("point", ["random_torus", "fueter_box", "trivial_torus"])
def test_lazy_matrix_is_the_dense_assembly(point):
    """`.matrix` sums the kept triplets exactly as the dense assembly did; [E; D*] is the stack of E over D*."""
    c = {"random_torus": gsw.random_config(torus(), GaugeGroup.U1, seed=12),
         "fueter_box": box_fueter_config(3)[0],
         "trivial_torus": gsw.random_config(torus(2), GaugeGroup.TRIVIAL, seed=4)}[point]
    e, d = dfm.linearize_fsw(c), dfm.lin_gauge(c)
    for lm in (e, d):
        ref = np.zeros(lm.shape)
        for rows, cols, vals in lm.blocks:
            rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
            np.add.at(ref, (rows, cols), vals)
        assert np.array_equal(lm.matrix, ref)
    stacked = np.vstack([e.matrix, d.adjoint().matrix])
    assert np.array_equal(dfm.stacked_op(dfm.linearize_fsw(c), dfm.lin_gauge(c)).matrix, stacked)
    assert np.array_equal(dfm.elliptic_op(c).matrix, stacked)


def test_lsqr_matches_scipy():
    scipy_lsqr = pytest.importorskip("scipy.sparse.linalg").lsqr
    rng = np.random.default_rng(7)
    low_rank = rng.normal(size=(25, 15)) @ rng.normal(size=(15, 25))
    for a in (rng.normal(size=(30, 20)), rng.normal(size=(20, 30)), low_rank):
        b = rng.normal(size=a.shape[0])
        x, iters = dfm.lsqr(lambda v: a @ v, lambda u: a.T @ u, b)
        ref = scipy_lsqr(a, b, atol=dfm.LSQR_TOL, btol=dfm.LSQR_TOL, conlim=0.0, iter_lim=dfm.LSQR_MAX_ITER)
        assert ref[1] in (1, 2) and 0 < iters <= dfm.LSQR_MAX_ITER
        assert np.linalg.norm(x - ref[0]) <= 1e-10 * np.linalg.norm(ref[0])
        assert np.linalg.norm(x - np.linalg.pinv(a) @ b) <= 1e-10 * np.linalg.norm(x)
    x, iters = dfm.lsqr(lambda v: a @ v, lambda u: a.T @ u, np.zeros(25))
    assert iters == 0 and not x.any()

    # right preconditioning on a torus: scipy's lsqr on the dense A P gives y, and x = P y, with
    # P = (A0^T A0 + mu I)^(-1/2) formed from the dense flat map A0 at u = 0 and mu the mean |u|^2
    c = gsw.random_config(torus(2), GaugeGroup.U1, seed=9, amplitude=0.3)
    a = dfm.elliptic_op(c)._normalised()[0]
    a0 = dfm.elliptic_op(zero_torus(2, c.geom.h))._normalised()[0]
    lam, vec = np.linalg.eigh(a0.T @ a0 + np.mean(np.sum(c.u.values**2, axis=-1)) * np.eye(a.shape[1]))
    p = (vec / np.sqrt(lam)) @ vec.T
    precondition = dfm.fourier_preconditioner(c)
    pair = np.stack([precondition(e) for e in np.eye(a.shape[1])], axis=-1)  # (P, P^2) column by column
    assert np.abs(pair[0] - p).max() <= 1e-12 * np.abs(p).max()
    assert np.abs(pair[1] - p @ p).max() <= 1e-12 * np.abs(p @ p).max()
    b = rng.normal(size=a.shape[0])
    x, iters = dfm.lsqr(lambda v: a @ v, lambda u: a.T @ u, b, precondition)
    ref = scipy_lsqr(a @ p, b, atol=dfm.LSQR_TOL, btol=dfm.LSQR_TOL, conlim=0.0, iter_lim=dfm.LSQR_MAX_ITER)
    assert ref[1] in (1, 2) and 0 < iters < dfm.lsqr(lambda v: a @ v, lambda u: a.T @ u, b)[1]
    assert np.linalg.norm(x - p @ ref[0]) <= 1e-10 * np.linalg.norm(x)


def test_lsqr_raises_past_its_iteration_cap(monkeypatch):
    op = dfm.elliptic_op(gsw.random_config(torus(2), GaugeGroup.U1, seed=3))
    monkeypatch.setattr(dfm, "LSQR_MAX_ITER", 1)
    with pytest.raises(np.linalg.LinAlgError, match="LSQR did not converge in 1 iterations"):
        op.lsqr_apply(np.ones(op.shape[0]))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("point", ["random", "zero"])
def test_lsqr_apply_matches_pinv_apply(n, point):
    """The matrix-free weighted minimum-norm solution is pinv_apply's, also where [E; D*] loses rank (u = 0)."""
    c = zero_torus(n)
    if point == "random":
        c = gsw.random_config(c.geom, GaugeGroup.U1, seed=9, amplitude=0.3)
    s = gsw.manufacture(c)
    op = dfm.elliptic_op(c)
    off_shell = gsw.random_config(c.geom, GaugeGroup.U1, seed=8, amplitude=0.3)
    rows = dfm.residual_rowvec(off_shell, s, dfm.layout(c.geom, c.group).equations)
    newton_rhs = np.concatenate([rows, np.zeros(op.shape[0] - rows.size)])
    for y in (newton_rhs, np.random.default_rng(n).normal(size=op.shape[0])):
        x, iters = op.lsqr_apply(y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dfm.RankMarginWarning)
            ref = op.pinv_apply(y)
        assert iters > 0
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert op.rank()[0] == op.shape[1] - {"random": 0, "zero": 8}[point]  # 640 of 648 at 3^4, u = 0


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("point", ["random", "zero"])
def test_preconditioned_step_is_the_minimum_norm_step(n, point):
    """The Fourier-preconditioned step is pinv_apply's: at a random point [E; D*] is injective,
    and at u = 0 its kernel (the constants, and on 4^4 the null momenta of the Dirac symbol)
    is an invariant subspace of the preconditioner."""
    c = zero_torus(n)
    if point == "random":
        c = gsw.random_config(c.geom, GaugeGroup.U1, seed=9, amplitude=0.3)
    op = dfm.elliptic_op(c)
    off_shell = gsw.random_config(c.geom, GaugeGroup.U1, seed=8, amplitude=0.3)
    rows = dfm.residual_rowvec(off_shell, gsw.manufacture(c), dfm.layout(c.geom, c.group).equations)
    newton_rhs = np.concatenate([rows, np.zeros(op.shape[0] - rows.size)])
    precondition = dfm.fourier_preconditioner(c)
    for y in (newton_rhs, np.random.default_rng(n).normal(size=op.shape[0])):
        x, iters = op.lsqr_apply(y, precondition)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", dfm.RankMarginWarning)
            ref = op.pinv_apply(y)
        assert iters > 0
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_preconditioned_step_where_the_map_loses_rank_off_zero():
    """At the constant spinor |u| = 2/h with a = 0 on a 2^4 torus, [E; D*] loses rank away from
    u = 0 (h1 = h2 = 6), and its kernel is not an invariant subspace of P.  A generic right side
    is then inconsistent, LSQR ends on its least-squares test, and the step is solved again
    without P: pinv_apply's, and bit for bit the unpreconditioned one.  A consistent right side
    A x0 ends on the consistent test: its step solves the system and has the least |P^-1 x|,
    which is not the least |x| there."""
    geom = LatticeGeom((2,) * 4, 0.25, Topology.TORUS)
    vals = np.zeros(geom.dims + (4,))
    vals[..., 0] = 2.0 / geom.h
    c = Configuration(ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, vals))
    rep = dfm.cohomology(c)
    assert (rep.h0, rep.h1, rep.h2) == (0, 6, 6)
    op = dfm.elliptic_op(c)
    y = np.random.default_rng(3).normal(size=op.shape[0])
    x, iters = op.lsqr_apply(y, dfm.fourier_preconditioner(c))
    plain, plain_iters = op.lsqr_apply(y)
    ref = op.pinv_apply(y)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.array_equal(x, plain) and iters > plain_iters

    y = op.apply(np.random.default_rng(4).normal(size=op.shape[1]))
    precondition = dfm.fourier_preconditioner(c)
    x, _ = op.lsqr_apply(y, precondition)
    ref = op.pinv_apply(y)
    assert np.linalg.norm(op.apply(x) - y) <= 1e-12 * np.linalg.norm(y)
    p = np.stack([precondition(e)[0] for e in np.eye(op.shape[1])], axis=-1)
    sc = np.sqrt(op.col_space.weights)
    assert np.linalg.norm(np.linalg.solve(p, sc * x)) <= np.linalg.norm(np.linalg.solve(p, sc * ref))
    assert np.linalg.norm(x - ref) > 1e-3 * np.linalg.norm(ref)


def test_fourier_preconditioner_only_on_a_torus():
    """A box has no circulant structure: no preconditioner, so its Newton steps are plain LSQR."""
    c, _ = box_fueter_config(3)
    assert dfm.fourier_preconditioner(c) is None


def test_newton_step_forms_no_dense_matrix(monkeypatch):
    """solve_newton assembles, factors and rank-checks nothing dense; each record carries its LSQR iterations."""
    c = gsw.random_config(torus(2), GaugeGroup.U1, seed=3, amplitude=0.3)
    s = gsw.manufacture(c)
    t = dfm.random_tangent(c, 4, 1e-3)
    start = dfm.moved(c, dfm.layout(c.geom, c.group).tangent.pack(t.b, t.v))

    def dense(*args, **kwargs):
        raise AssertionError("a Newton step went dense")

    for owner, name in ((dfm, "_assemble"), (np.linalg, "svd"), (np.linalg, "solve"), (np.linalg, "qr")):
        monkeypatch.setattr(owner, name, dense)
    sol, diag = gsw.solve_newton(start, s, tol=1e-11)
    assert diag[-1]["residual_norm"] <= 1e-11
    assert diag[0]["lsqr_iters"] == 0 and all(d["lsqr_iters"] > 0 for d in diag[1:])


# ---------------------------------------------------------------------------
# stacked configurations and the stacked Newton loop


@pytest.mark.parametrize("topology", [Topology.BOX, Topology.TORUS])
@pytest.mark.parametrize("group", [GaugeGroup.U1, GaugeGroup.TRIVIAL])
@pytest.mark.parametrize("kind", [TargetKind.FLAT_H, TargetKind.CONE_H_MOD_Z2])
def test_stacked_configurations_match_one_at_a_time(topology, group, kind):
    """residual_rowvec, linearize_fsw and lin_gauge on a stack of configurations give each one's value."""
    geom = LatticeGeom((3, 2, 3, 2), 0.4, topology)
    base = gsw.random_config(geom, group, seed=61, amplitude=0.3)
    s = gsw.manufacture(base)
    space = dfm.layout(geom, group).tangent
    vecs = 0.05 * np.random.default_rng(62).normal(size=(3, space.dim))
    singles = [dfm.moved(base, vec) for vec in vecs]
    b, v = space.unpack(space.pack(None if base.a.links is None else base.a.links, base.u.values) + vecs)
    stacked = Configuration(ConnectionField(geom, group, b), lat.SpinorField(geom, v, kind))
    singles = [Configuration(c.a, lat.SpinorField(geom, c.u.values, kind)) for c in singles]
    eq = dfm.layout(geom, group).equations

    def close(got, want):
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= 1e-14 * max(np.abs(want).max(initial=0.0), 1.0)

    close(dfm.residual_rowvec(stacked, s, eq), np.stack([dfm.residual_rowvec(c, s, eq) for c in singles]))
    if kind is TargetKind.FLAT_H:
        for build in (dfm.linearize_fsw, dfm.lin_gauge):
            got = np.broadcast_to(build(stacked).matrix, (3,) + build(singles[0]).shape)
            close(got, np.stack([build(c).matrix for c in singles]))


def test_newton_stack_runs_each_point_as_alone():
    """Each point of a stacked `newton` stops by its own rule with the iterates, records and status of its own run."""

    def rows_at(x):
        return x**2 - 2.0

    def step(x, r):
        return -r / (2.0 * x)

    def norm(r):
        return np.abs(r[..., 0])

    # converges, runs out of steps, and overshoots into a growing residual
    starts = np.array([[1.0], [100.0], [1e-9]])
    x, r, records, status = dfm.newton(rows_at, step, starts, 1e-12, 6, norm, norm)
    assert status == ["converged", "max_iter", "diverged"]
    for k, start in enumerate(starts):
        xs, rs, recs, st = dfm.newton(rows_at, step, start, 1e-12, 6, norm, norm)
        assert st == status[k] and recs == records[k]
        assert np.array_equal(xs, x[k]) and np.array_equal(rs, r[k])
