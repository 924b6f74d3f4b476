import json

import numpy as np
import pytest

import gswlab.quaternion as quat
from gswlab import lattice as lat
from gswlab.lattice import (
    BallSpec,
    ConnectionField,
    LatticeGeom,
    SpinorField,
    Stencil,
    Topology,
)
from gswlab.targets import GaugeGroup, TargetKind
from tests_helpers import full_distances, full_window_sum


def small_geom(topology=Topology.TORUS, n=4, h=0.3):
    return LatticeGeom((n,) * 4, h, topology)


# ---------------------------------------------------------------------------
# summation by parts / adjointness


@pytest.mark.parametrize("topology", [Topology.TORUS, Topology.BOX])
def test_d_adjointness_exact(topology):
    geom = small_geom(topology)
    rng = np.random.default_rng(1)
    f = rng.normal(size=geom.dims)
    b = rng.normal(size=geom.dims + (4,))
    lhs = lat.link_inner(geom, lat.d_site(geom, f), b)
    rhs = lat.site_inner(geom, f, lat.d_star(geom, b))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_covariant_adjoint_pairing_torus():
    """Forward and backward covariant differences are exact adjoints."""
    geom = small_geom()
    rng = np.random.default_rng(2)
    links = rng.normal(size=geom.dims + (4,))
    a = ConnectionField(geom, GaugeGroup.U1, links)
    u = SpinorField(geom, rng.normal(size=geom.dims + (4,)))
    w = rng.normal(size=geom.dims + (4,))
    for i in range(4):
        fwd = lat.forward_cov_diff(u, a, i)
        bwd = lat.backward_cov_diff_raw(SpinorField(geom, w), a, i)
        lhs = lat.site_inner(geom, fwd, w)
        rhs = lat.site_inner(geom, u.values, -bwd)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def _transported(u, a, axis, step):
    """T u(x + step*e_axis): the neighbour value carried to x by a rolled copy, step = +-1.

    Cone targets first flip the neighbour into the half-space of u(x); the U(1) phase
    is e^{+i h a(x)} forward and e^{-i h a(x - e)} backward.  The reference of
    test_one_transport_differences_bit_identical: the slice-read forward and backward
    differences equal (T u(x + e) - u(x)) / h and (u(x) - T u(x - e)) / h bit for bit.
    """
    topo = u.geom.topology
    u_nb = lat._shift(u.values, axis, step, topo)
    if u.kind is TargetKind.CONE_H_MOD_Z2:
        u_nb = lat._cone_align(u_nb, u.values)
    if a.links is None:
        return u_nb
    link = a.links[..., axis]
    if step < 0:
        link = lat._shift(link, axis, -1, topo)
    return quat.mul_exp_i(u_nb, step * u.geom.h * link)


def _two_transport_pair(u, a, axis):
    """Two-transport (forward, backward) reference, face-filled from each other on a box."""
    h = u.geom.h
    fwd = (_transported(u, a, axis, +1) - u.values) / h
    bwd = (u.values - _transported(u, a, axis, -1)) / h
    raw = bwd.copy()
    if u.geom.topology is Topology.BOX:
        far = (slice(None),) * axis + (slice(-1, None),)
        near = (slice(None),) * axis + (slice(0, 1),)
        fwd[far] = bwd[far]
        bwd[near] = fwd[near]
    return fwd, bwd, raw


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 4, 2, 5), (5, 5, 5, 5)])
@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("group", list(GaugeGroup))
@pytest.mark.parametrize("kind", list(TargetKind))
def test_one_transport_differences_bit_identical(dims, topology, group, kind):
    """One transport per axis (backward rolled from forward where the transport
    is the identity) reproduces the two-transport formulas bit for bit; the energy
    density, summed from undivided differences, stays within 1e-12 relative."""
    geom = LatticeGeom(dims, 0.3, topology)
    rng = np.random.default_rng(14)
    u = SpinorField(geom, rng.normal(size=dims + (4,)) + quat.ONE, kind)
    links = rng.normal(size=dims + (4,)) if group is GaugeGroup.U1 else None
    a = ConnectionField(geom, group, links)
    energy = {st: np.zeros(dims) for st in Stencil}
    for axis in range(4):
        fwd, bwd, raw = _two_transport_pair(u, a, axis)
        ref = {Stencil.FORWARD: fwd, Stencil.CENTERED: 0.5 * (fwd + bwd)}
        assert np.array_equal(lat.forward_cov_diff(u, a, axis), fwd)
        assert np.array_equal(lat.backward_cov_diff(u, a, axis), bwd)
        assert np.array_equal(lat.backward_cov_diff_raw(u, a, axis), raw)
        for st in Stencil:
            assert np.array_equal(lat.cov_diff_component(u, a, axis, st), ref[st])
            energy[st] += np.sum(ref[st] * ref[st], axis=-1)
    worst = 0.0
    for st in Stencil:
        diff = np.abs(lat.grad_energy_density(u, a, st) - energy[st])
        worst = max(worst, float(np.max(diff / np.maximum(energy[st], np.finfo(float).tiny))))
    print(f"max relative difference {worst:.2e}")
    assert worst <= 1e-12


def _whole_array_energy(u, a, stencil):
    out = np.zeros(u.geom.dims)
    for i in range(4):
        out += quat.norm2(lat.cov_diff_component(u, a, i, stencil))
    return out


SLAB_DIMS = [(2, 3, 4, 3), (3, 4, 2, 3), (5, 3, 3, 4), (7, 2, 3, 3), (8, 3, 2, 2)]


@pytest.mark.parametrize("planes", [2, 3])
@pytest.mark.parametrize("dims", SLAB_DIMS)
@pytest.mark.parametrize("topology", list(Topology))
def test_slab_energy_density_bit_identical_for_identity_transport(monkeypatch, planes, dims,
                                                                   topology):
    """Slabs of axis-0 planes give one slab spanning the lattice bit for bit."""
    geom = LatticeGeom(dims, 0.3, topology)
    u = SpinorField(geom, np.random.default_rng(15).normal(size=dims + (4,)))
    a = ConnectionField(geom)
    monkeypatch.setattr(lat, "ENERGY_SLAB_PLANES", dims[0])
    whole = {st: lat.grad_energy_density(u, a, st) for st in Stencil}
    monkeypatch.setattr(lat, "ENERGY_SLAB_PLANES", planes)
    for st in Stencil:
        assert np.array_equal(lat.grad_energy_density(u, a, st), whole[st])


def test_slab_energy_density_u1_and_cone():
    """With U(1) links or a cone target the slabs stay within 1e-12 relative."""
    rng = np.random.default_rng(16)
    worst = 0.0
    for dims in SLAB_DIMS + [(13, 13, 13, 13)]:
        for topology in Topology:
            geom = LatticeGeom(dims, 0.3, topology)
            for group, kind in ((GaugeGroup.U1, TargetKind.FLAT_H),
                                (GaugeGroup.TRIVIAL, TargetKind.CONE_H_MOD_Z2),
                                (GaugeGroup.U1, TargetKind.CONE_H_MOD_Z2)):
                u = SpinorField(geom, rng.normal(size=dims + (4,)) + quat.ONE, kind)
                links = rng.normal(size=dims + (4,)) if group is GaugeGroup.U1 else None
                a = ConnectionField(geom, group, links)
                for st in Stencil:
                    ref = _whole_array_energy(u, a, st)
                    rel = np.abs(lat.grad_energy_density(u, a, st) - ref) / np.abs(ref)
                    worst = max(worst, float(rel.max()))
    print(f"max relative difference {worst:.2e}")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# covariant differences and gauge covariance


def stacked_diffs(u, a, stencil=Stencil.FORWARD):
    """d_A u as dims + (4, 4): the four cov_diff_component directions stacked."""
    return np.stack([lat.cov_diff_component(u, a, i, stencil) for i in range(4)], axis=-2)


def test_identity_differences_make_no_rolled_copy(monkeypatch):
    """Where the transport is the identity, differences, dirac and the energy density
    read neighbours through slices: np.roll is never called."""
    from gswlab import frequency as fq

    def no_roll(*args, **kwargs):
        raise AssertionError("np.roll called on the identity path")

    monkeypatch.setattr(np, "roll", no_roll)
    for topology in Topology:
        geom = LatticeGeom((3, 4, 2, 5), 0.3, topology)
        u = SpinorField(geom, np.random.default_rng(17).normal(size=geom.dims + (4,)))
        a = ConnectionField(geom)
        for axis in range(4):
            lat.forward_cov_diff(u, a, axis)
            lat.backward_cov_diff(u, a, axis)
            lat.backward_cov_diff_raw(u, a, axis)
            fq._scalar_centered_diff(geom, u.values[..., 0], axis)
            fq._scalar_backward_diff(geom, u.values[..., 0], axis)
        for st in Stencil:
            lat.dirac(u, a, st)
            lat.grad_energy_density(u, a, st)


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("group", list(GaugeGroup))
@pytest.mark.parametrize("kind", list(TargetKind))
def test_differences_make_no_rolled_copy(monkeypatch, topology, group, kind):
    """Whatever the transport (identity, U(1) phase, cone flip), the differences, dirac
    and the energy density read neighbours through slices: np.roll is never called."""
    geom = LatticeGeom((3, 4, 2, 5), 0.3, topology)
    rng = np.random.default_rng(18)
    u = SpinorField(geom, rng.normal(size=geom.dims + (4,)) + quat.ONE, kind)
    a = ConnectionField(geom, group, rng.normal(size=geom.dims + (4,)) if group is GaugeGroup.U1 else None)

    def no_roll(*args, **kwargs):
        raise AssertionError("np.roll called by a covariant difference")

    monkeypatch.setattr(np, "roll", no_roll)
    for axis in range(4):
        lat.forward_cov_diff(u, a, axis)
        lat.backward_cov_diff(u, a, axis)
        lat.backward_cov_diff_raw(u, a, axis)
        for st in Stencil:
            lat.cov_diff_component(u, a, axis, st)
    for st in Stencil:
        lat.dirac(u, a, st)
        lat.grad_energy_density(u, a, st)


def test_constant_field_parallel():
    geom = small_geom()
    u = SpinorField(geom, np.broadcast_to(quat.ONE, geom.dims + (4,)).copy())
    a = ConnectionField(geom)
    d = stacked_diffs(u, a)
    assert np.abs(d).max() == 0.0


def test_linear_field_exact_stencil():
    geom = LatticeGeom((6,) * 4, 0.25, Topology.BOX)
    x = geom.coords()
    vals = np.zeros(geom.dims + (4,))
    vals[..., 0] = x[..., 1]
    u = SpinorField(geom, vals)
    d = stacked_diffs(u, ConnectionField(geom))
    assert np.allclose(d[..., 1, 0], 1.0, atol=1e-12)
    others = d.copy()
    others[..., 1, 0] = 0.0
    assert np.abs(others).max() <= 1e-12


@pytest.mark.parametrize("stencil", list(Stencil))
def test_linear_field_energy_closed_form_exact(stencil):
    """u = sum_i x_i c_i on a dyadic box: every difference, square and the final
    division are exact, so |d_A u|^2 = sum_i |c_i|^2 bit for bit, face planes included."""
    geom = LatticeGeom((9, 5, 4, 3), 0.25, Topology.BOX)  # two axis-0 slabs
    c = np.array([[0.5, -1.25, 0.0, 2.0], [0.75, 0.0, -0.5, 1.0],
                  [-1.0, 0.25, 1.5, 0.0], [0.0, 0.125, -0.75, 0.5]])
    u = SpinorField(geom, geom.coords() @ c)
    energy = lat.grad_energy_density(u, ConnectionField(geom), stencil)
    assert np.all(energy == np.sum(c * c))


@pytest.mark.parametrize("topology", [Topology.TORUS, Topology.BOX])
def test_gauge_covariance_exact(topology):
    from gswlab import gsw

    geom = small_geom(topology)
    rng = np.random.default_rng(3)
    c = gsw.random_config(geom, GaugeGroup.U1, seed=3)
    g = gsw.random_gauge(geom, 4)
    cg = gsw.gauge_apply(g, c)
    phase = quat.exp_i(-g.theta)
    for st in Stencil:
        before = stacked_diffs(c.u, c.a, st)
        after = stacked_diffs(cg.u, cg.a, st)
        rotated = quat.mul(before, phase[..., None, :])
        assert np.abs(after - rotated).max() <= 1e-12 * max(1.0, np.abs(before).max())


def test_centered_richardson_factor():
    """Centered-stencil Dirac residual shrinks by >= 3.8 under h -> h/2."""
    from gswlab import frequency as fq

    sups = []
    for n in (8, 16):
        geom = LatticeGeom((n + 1,) * 4, 1.0 / n, Topology.BOX)
        u = fq.fueter_library(geom, "sym_product", multiset=(1, 1, 2, 2))
        d = lat.dirac(u, ConnectionField(geom), Stencil.CENTERED)
        cells = int(round(0.25 / geom.h))  # fixed physical margin
        mask = np.ones(geom.dims, bool)
        for ax in range(4):
            sl = [slice(None)] * 4
            sl[ax] = slice(cells, geom.dims[ax] - cells)
            m2 = np.zeros(geom.dims, bool)
            m2[tuple(sl)] = True
            mask = mask & m2
        sups.append(np.abs(d[mask]).max())
    assert sups[0] / sups[1] >= 3.8


# ---------------------------------------------------------------------------
# Clifford algebra and the Dirac operator


def test_clifford_matrix_entries():
    vp = np.array([0.3, -0.7, 0.2, 0.9])
    out_m, out_p = lat.clifford_pair(quat.ONE, vp, np.zeros(4))
    assert np.allclose(out_p, vp) and np.allclose(out_m, 0.0)
    out_m, out_p = lat.clifford_pair(quat.QI, vp, np.zeros(4))
    assert np.allclose(out_p, quat.mul(quat.QI, vp))


@pytest.mark.parametrize("i", range(4))
@pytest.mark.parametrize("j", range(4))
def test_clifford_anticommutator(i, j):
    rng = np.random.default_rng(i * 4 + j)
    vp, vm = rng.normal(size=4), rng.normal(size=4)

    def c(h, pair):
        return lat.clifford_pair(h, *pair)

    ei, ej = quat.BASIS[i], quat.BASIS[j]
    lhs = tuple(
        a + b
        for a, b in zip(c(ei, c(ej, (vp, vm))), c(ej, c(ei, (vp, vm))))
    )
    expect = (-2.0 * (i == j) * vp, -2.0 * (i == j) * vm)
    assert np.abs(lhs[0] - expect[0]).max() <= 1e-12
    assert np.abs(lhs[1] - expect[1]).max() <= 1e-12


def test_dirac_fueter_and_euler():
    geom = LatticeGeom((6,) * 4, 0.2, Topology.BOX)
    x = geom.coords()
    a = ConnectionField(geom)
    u_const = SpinorField(geom, np.broadcast_to(quat.QJ, geom.dims + (4,)).copy())
    assert np.abs(lat.dirac(u_const, a)).max() == 0.0

    z1 = np.zeros(geom.dims + (4,))
    z1[..., 0] = x[..., 1]
    z1[..., 1] = -x[..., 0]
    d = lat.dirac(SpinorField(geom, z1), a, Stencil.CENTERED)
    assert np.abs(d).max() <= 1e-12

    euler = np.zeros(geom.dims + (4,))
    for i in range(4):
        euler[..., i] = x[..., i]
    d = lat.dirac(SpinorField(geom, euler), a, Stencil.CENTERED)
    assert np.abs(d - np.array([-2.0, 0, 0, 0])).max() <= 1e-12


# ---------------------------------------------------------------------------
# curvature two-forms


def test_pure_gauge_curvature_vanishes():
    geom = small_geom()
    rng = np.random.default_rng(5)
    theta = rng.normal(size=geom.dims)
    a = ConnectionField(geom, GaugeGroup.U1, lat.d_site(geom, theta))
    f = lat.plaquette_curvature(a)
    assert np.abs(f.values).max() <= 1e-12


def test_constant_link_flat_on_torus():
    geom = small_geom()
    links = np.zeros(geom.dims + (4,))
    links[..., 1] = 0.7
    f = lat.plaquette_curvature(ConnectionField(geom, GaugeGroup.U1, links))
    assert np.abs(f.values).max() <= 1e-12


def test_bianchi_identity():
    geom = small_geom()
    rng = np.random.default_rng(6)
    a = ConnectionField(geom, GaugeGroup.U1, rng.normal(size=geom.dims + (4,)))
    f = lat.plaquette_curvature(a)
    assert np.abs(lat.d_cube(f)).max() <= 1e-11


def test_trivial_group_zero_forms():
    geom = small_geom()
    f = lat.plaquette_curvature(ConnectionField(geom))
    assert np.abs(f.values).max() == 0.0


# ---------------------------------------------------------------------------
# quadrature


def test_ball_volume_and_shell_area():
    geom = LatticeGeom((16,) * 4, 1.0 / 16, Topology.TORUS)
    one = np.ones(geom.dims)
    r = 0.5  # 8h
    spec = BallSpec((0.5,) * 4, r)
    vol = lat.ball_integral(geom, one, spec)
    assert abs(vol / (np.pi**2 * r**4 / 2) - 1) <= 0.01
    area = lat.shell_integral(geom, one, spec)
    assert abs(area / (2 * np.pi**2 * r**3) - 1) <= 0.01


def test_shell_quadratic_moment():
    geom = LatticeGeom((16,) * 4, 1.0 / 16, Topology.TORUS)
    x = geom.coords()
    f = (x[..., 0] - 0.5) ** 2 + (x[..., 1] - 0.5) ** 2
    r = 0.45
    val = lat.shell_integral(geom, f, BallSpec((0.5,) * 4, r))
    assert abs(val / (np.pi**2 * r**5) - 1) <= 0.02


def test_ball_derivative_matches_shell():
    geom = LatticeGeom((16,) * 4, 1.0 / 16, Topology.TORUS)
    x = geom.coords()
    f = np.sin(2 * np.pi * x[..., 0]) * np.cos(2 * np.pi * x[..., 1]) + 1.5
    h = geom.h
    for r in (0.33, 0.4, 0.44):
        b1 = lat.ball_integral(geom, f, BallSpec((0.5,) * 4, r + h / 2))
        b0 = lat.ball_integral(geom, f, BallSpec((0.5,) * 4, r - h / 2))
        sh = lat.shell_integral(geom, f, BallSpec((0.5,) * 4, r))
        assert abs((b1 - b0) / h - sh) <= 0.02 * abs(sh)


#: (geom, centre, radii): a box ball touching the x0 = 0 face, a torus ball across
#: the seam of two axes, and a torus ball spanning axis 1 (half its period is 3h)
BALL_CASES = [
    (LatticeGeom((13,) * 4, 1 / 12, Topology.BOX), (0.25, 0.5, 0.47, 0.52), (0.1, 0.25)),
    (LatticeGeom((12, 10, 11, 12), 0.1, Topology.TORUS), (0.03, 0.97, 0.55, 0.6), (0.12, 0.5)),
    (LatticeGeom((16, 6, 16, 16), 1 / 16, Topology.TORUS), (0.5, 0.2, 0.47, 0.53), (0.13, 0.1875)),
]


@pytest.mark.parametrize("geom,center,radii", BALL_CASES)
def test_sub_box_ball_sums_match_full_lattice_window(geom, center, radii):
    """Sums on the bounding sub-box are the whole-lattice window sums to 1e-12 relative."""
    rng = np.random.default_rng(21)
    fields = [rng.normal(size=geom.dims) + 2.0, rng.uniform(size=geom.dims)]
    worst = 0.0
    for r in radii:
        spec = BallSpec(center, r)
        sums = lat.ball_sums(geom, spec, fields)
        assert sums[0] == lat.ball_integral(geom, fields[0], spec)
        for f, val in zip(fields, sums):
            ref = full_window_sum(geom, f, spec)
            worst = max(worst, abs(val - ref) / abs(ref))
    print(f"max relative difference {worst:.2e}")
    assert worst <= 1e-12


def test_ball_box_index_and_distances():
    """Slices off the seam, index arrays across it, the whole axis once a ball spans it;
    the distances are site_distances' bit for bit, and no site left out is in reach."""
    box, seam, span = (case[0] for case in BALL_CASES)
    index, _ = lat.ball_box(box, (0.25, 0.5, 0.47, 0.52), 0.25 + box.h / 2)
    assert all(isinstance(k, slice) for k in index) and index[0] == slice(0, 7)
    index, _ = lat.ball_box(seam, (0.03, 0.97, 0.55, 0.6), 0.16)
    assert isinstance(index[0], np.ndarray)
    assert sorted(index[0].ravel()) == [0, 1, 11] and sorted(index[1].ravel()) == [0, 1, 9]
    index, _ = lat.ball_box(span, (0.5, 0.2, 0.47, 0.53), 0.1875 + span.h / 2)
    assert index[1] == slice(0, 6) and index[0] == slice(5, 12)
    for geom, center, radii in BALL_CASES:
        full = lat.site_distances(geom, center)
        assert np.abs(full - full_distances(geom, center)).max() <= 1e-15
        for reach in (r + geom.h / 2 for r in radii):
            index, d = lat.ball_box(geom, center, reach)
            assert np.array_equal(d, full[index])
            outside = np.ones(geom.dims, dtype=bool)
            outside[index] = False
            assert np.all(full[outside] > reach)


def _interpolate_quadratic_loop(geom, f, points):
    """Reference: the 81 corners one at a time, summed in corner order."""
    pts = np.asarray(points, dtype=float) / geom.h
    base = np.rint(pts).astype(int) - 1
    if geom.topology is Topology.BOX:
        base = np.clip(base, 0, np.asarray(geom.dims) - 3)
    x = pts - base
    wts = [np.stack([0.5 * (xi - 1) * (xi - 2), xi * (2 - xi), 0.5 * xi * (xi - 1)], axis=-1)
           for xi in x.T]
    vals = np.zeros(len(pts))
    for corner in range(81):
        w, idx = np.ones(len(pts)), []
        for i in range(4):
            off = corner // 3**i % 3
            w = w * wts[i][:, off]
            idx.append(np.mod(base[:, i] + off, geom.dims[i]))
        vals += w * f[tuple(idx)]
    return vals


def _face_and_corner_points(geom, rng, n=200):
    hi = np.asarray(geom.widths())
    pts = rng.uniform(0.0, 1.0, size=(n, 4)) * hi
    pts[:20, 0] = 0.0
    pts[20:40, 3] = hi[3]
    pts[40:48] = hi * rng.integers(0, 2, size=(8, 4))  # corners
    return pts


@pytest.mark.parametrize("topology", [Topology.TORUS, Topology.BOX])
def test_interpolate_quadratic_matches_corner_loop(topology):
    geom = LatticeGeom((6, 7, 5, 8), 0.2, topology)
    rng = np.random.default_rng(11)
    f = rng.normal(size=geom.dims)
    pts = _face_and_corner_points(geom, rng)
    if topology is Topology.TORUS:
        pts = pts - 0.3  # negative coordinates wrap
    assert np.array_equal(lat.interpolate_quadratic(geom, f, pts),
                          _interpolate_quadratic_loop(geom, f, pts))


def test_interpolate_quadratic_reproduces_tensor_quadratics():
    geom = LatticeGeom((6, 7, 5, 8), 0.2, Topology.BOX)
    rng = np.random.default_rng(3)
    coef = rng.normal(size=(2, 4, 3))

    def poly(x):
        # sum of two tensor products of per-axis quadratics
        return sum(np.prod([c[i, 0] + c[i, 1] * x[..., i] + c[i, 2] * x[..., i] ** 2
                            for i in range(4)], axis=0) for c in coef)

    pts = _face_and_corner_points(geom, rng)
    vals = lat.interpolate_quadratic(geom, poly(geom.coords()), pts)
    assert np.abs(vals - poly(pts)).max() <= 1e-12 * np.abs(poly(pts)).max()


def test_interpolate_quadratic_torus_periods_and_box_outside():
    geom = LatticeGeom((6, 7, 5, 8), 0.2, Topology.TORUS)
    rng = np.random.default_rng(4)
    f = rng.normal(size=geom.dims)
    pts = rng.uniform(0.0, 1.0, size=(100, 4)) * np.asarray(geom.widths())
    ref = lat.interpolate_quadratic(geom, f, pts)
    for k in (-2, -1, 1, 3):
        moved = pts + k * np.asarray(geom.widths()) * rng.integers(0, 2, size=(100, 4))
        assert np.abs(lat.interpolate_quadratic(geom, f, moved) - ref).max() <= 1e-12
    box = LatticeGeom((6, 7, 5, 8), 0.2, Topology.BOX)
    for bad in ([-0.01, 0.5, 0.5, 0.5], [0.5, 0.5, 0.81, 0.5]):
        with pytest.raises(ValueError, match="outside the box"):
            lat.interpolate_quadratic(box, np.ones(box.dims), np.asarray([bad]))


def test_interpolate_far_face_and_corners_hit_site_values():
    geom = LatticeGeom((5,) * 4, 0.25, Topology.BOX)
    f = np.random.default_rng(12).normal(size=geom.dims)
    corners = np.array([[(k >> i) & 1 for i in range(4)] for k in range(16)], dtype=float)
    pts = np.vstack([[[1.0, 0.5, 0.5, 0.5], [0.5, 0.25, 1.0, 0.0]], corners])
    sites = tuple(np.rint(pts / geom.h).astype(int).T)
    assert np.array_equal(lat.interpolate(geom, f, pts), f[sites])
    with pytest.raises(ValueError, match="outside the box"):
        lat.interpolate(geom, f, np.array([[1.01, 0.5, 0.5, 0.5]]))


def test_sphere_nodes_fresh_per_call():
    spec = BallSpec((0.5,) * 4, 0.3, 6, 10)
    pts, wts = lat.sphere_nodes(spec)
    ref_pts, ref_wts = pts.copy(), wts.copy()
    pts[:] = 0.0
    wts[:] = 0.0
    pts2, wts2 = lat.sphere_nodes(spec)
    assert np.array_equal(pts2, ref_pts) and np.array_equal(wts2, ref_wts)


def _shell_specs(geom):
    """Several radii at the centre, a sphere reaching within h/2 of a face (a box
    clips its stencils there, a torus wraps) and one touching the near face."""
    h, mid = geom.h, tuple(0.5 * w for w in geom.widths())
    specs = [BallSpec(mid, r * h, 8, 12) for r in (2.0, 3.5, 4.25)]
    near = (3.5 * h, mid[1], mid[2] + 0.3 * h, mid[3])
    specs.append(BallSpec(near, 3.0 * h, 10, 16))
    specs.append(BallSpec((3.0 * h,) + mid[1:], 3.0 * h))
    return specs


@pytest.mark.parametrize("topology", list(Topology))
def test_shell_functional_matches_node_sum(topology):
    """The cached site functional is the interpolated node sum to rounding."""
    geom = LatticeGeom((11, 12, 13, 11), 0.1, topology)
    f = np.random.default_rng(21).normal(size=geom.dims) + 2.0
    worst = 0.0
    for spec in _shell_specs(geom):
        pts, wts = lat.sphere_nodes(spec)
        ref = float(np.sum(lat.interpolate_quadratic(geom, f, pts) * wts))
        worst = max(worst, abs(lat.shell_integral(geom, f, spec) / ref - 1.0))
        # every site a node's stencil touches is kept, zero weight or not
        sites, _ = lat._shell_functional(geom, spec)
        assert np.array_equal(sites, np.unique(lat._quadratic_stencil(geom, pts)[0]))
    print(f"max relative difference {worst:.2e}")
    assert worst <= 1e-12


def test_shell_functional_cache():
    """Cold and warm caches agree to the bit; the entries are read-only, the cache is
    bounded, and an equal geom built apart shares the entry."""
    geom = LatticeGeom((11,) * 4, 0.1, Topology.BOX)
    f = np.random.default_rng(22).normal(size=geom.dims)
    spec = BallSpec((0.5,) * 4, 0.35, 8, 12)
    cache = lat._shell_functional
    cache.cache_clear()
    cold = lat.shell_integral(geom, f, spec)
    warm = lat.shell_integral(geom, f, spec)
    cache.cache_clear()
    assert cold == warm == lat.shell_integral(geom, f, spec)
    sites, weights = cache(geom, spec)
    assert sites.dtype == np.int32
    for arr in (sites, weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    hits = cache.cache_info().hits
    twin = LatticeGeom((11,) * 4, 0.1, Topology.BOX)
    assert twin is not geom
    assert lat.shell_integral(twin, f, spec) == cold
    assert cache.cache_info().hits == hits + 1 and cache.cache_info().currsize == 1
    maxsize = cache.cache_info().maxsize
    assert maxsize is not None
    for k in range(maxsize + 3):
        lat.shell_integral(geom, f, BallSpec((0.5,) * 4, 0.2 + 0.005 * k, 4, 6))
    assert cache.cache_info().currsize == maxsize


def test_shell_functional_propagates_non_finite():
    geom = LatticeGeom((11,) * 4, 0.1, Topology.TORUS)
    spec = BallSpec((0.5,) * 4, 0.3, 8, 12)
    sites, weights = lat._shell_functional(geom, spec)
    for k in (int(np.argmin(np.abs(weights))), int(np.argmax(np.abs(weights)))):
        for bad in (np.nan, np.inf):
            f = np.ones(geom.dims)
            f.flat[sites[k]] = bad
            assert not np.isfinite(lat.shell_integral(geom, f, spec))
    f = np.ones(geom.dims)
    f.flat[np.setdiff1d(np.arange(geom.n_sites), sites)[0]] = np.nan
    assert np.isfinite(lat.shell_integral(geom, f, spec))


def test_radius_guard():
    geom = LatticeGeom((8,) * 4, 0.125, Topology.TORUS)
    with pytest.raises(ValueError):
        lat.ball_integral(geom, np.ones(geom.dims), BallSpec((0.5,) * 4, 0.75))


@pytest.mark.parametrize("h", [np.nan, np.inf])
def test_geom_refuses_a_non_finite_spacing(h):
    """A NaN or infinite h once made delta0() nan or inf."""
    with pytest.raises(ValueError, match="finite"):
        LatticeGeom((4,) * 4, h)


def test_geom_refuses_a_non_integer_dimension():
    """(2.7, 3, 3, 3) once became (2, 3, 3, 3) without a word."""
    with pytest.raises(ValueError, match="integers"):
        LatticeGeom((2.7, 3, 3, 3), 0.5)
    assert LatticeGeom(tuple(np.array([3, 3, 3, 3])), 0.5).dims == (3, 3, 3, 3)


def test_ball_refuses_a_nan_radius():
    """A NaN radius once passed the guard, and ball_integral returned 0.0."""
    with pytest.raises(ValueError, match="finite"):
        BallSpec((0.5,) * 4, np.nan)


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_roundtrip(tmp_path):
    geom = small_geom(n=3)
    rng = np.random.default_rng(7)
    u = SpinorField(geom, rng.normal(size=geom.dims + (4,)))
    a = ConnectionField(geom, GaugeGroup.U1, rng.normal(size=geom.dims + (4,)))
    path = tmp_path / "snap.json"
    lat.snapshot_save(path, u, a)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["header"]["dims"] == [3, 3, 3, 3]
    u2, a2 = lat.snapshot_load(path)
    assert np.array_equal(u2.values, u.values)
    assert np.array_equal(a2.links, a.links)
    assert u2.kind is TargetKind.FLAT_H and a2.group is GaugeGroup.U1


def test_cone_field_differences_continuous():
    geom = small_geom(n=3, h=0.1)
    vals = np.zeros(geom.dims + (4,))
    vals[..., 0] = 1.0
    vals[..., 1] = 0.05 * geom.coords()[..., 0]
    u = SpinorField(geom, vals, TargetKind.CONE_H_MOD_Z2)
    d = stacked_diffs(u, ConnectionField(geom))
    assert np.isfinite(d).all()


def test_box_ball_containment_guard():
    geom = LatticeGeom((16,) * 4, 1.0 / 15, Topology.BOX)
    with pytest.raises(ValueError, match="not contained"):
        lat.ball_integral(geom, np.ones(geom.dims), BallSpec((0.2, 0.5, 0.5, 0.5), 0.4))
    assert lat.max_ball_radius(geom, (0.2, 0.5, 0.5, 0.5)) == pytest.approx(0.2)
