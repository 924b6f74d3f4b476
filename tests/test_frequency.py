from collections import Counter
from itertools import permutations
from math import factorial

import numpy as np
import pytest

import gswlab.quaternion as quat
from gswlab import frequency as fq, lattice as lat
from gswlab.gsw import Configuration
from gswlab.lattice import ConnectionField, LatticeGeom, SpinorField, Stencil, Topology
from gswlab.targets import GaugeGroup
from tests_helpers import full_distances, full_window_sum


def box(n=17, h=None):
    return LatticeGeom((n,) * 4, h or 1.0 / (n - 1), Topology.BOX)


def interior_sup(geom, f, margin_phys=0.2):
    cells = int(np.ceil(margin_phys / geom.h))
    mask = np.ones(geom.dims, bool)
    for ax in range(4):
        sl = [slice(None)] * 4
        sl[ax] = slice(cells, geom.dims[ax] - cells)
        m = np.zeros(geom.dims, bool)
        m[tuple(sl)] = True
        mask &= m
    return float(np.abs(np.asarray(f)[mask]).max())


# ---------------------------------------------------------------------------
# Fueter library


@pytest.mark.parametrize("kind,ms", [("z1", None), ("z2", None), ("z3", None)])
def test_fueter_linear_exact(kind, ms):
    geom = box(9)
    u = fq.fueter_library(geom, kind)
    for st in Stencil:
        d = lat.dirac(u, ConnectionField(geom), st)
        assert np.abs(d).max() <= 1e-12


def test_fueter_products_regular():
    geom = box(9)
    for ms in ((1, 2), (1, 2, 3), (1, 1, 2, 2)):
        u = fq.fueter_library(geom, "sym_product", multiset=ms)
        d = lat.dirac(u, ConnectionField(geom), Stencil.CENTERED)
        assert interior_sup(geom, np.sqrt(np.sum(d * d, -1))) <= 0.05


def test_fueter_variable_bit_identical_to_coordinates():
    """Broadcast coordinate axes give the coords()-based samples bit for bit."""
    for topology in Topology:
        geom = LatticeGeom((5, 6, 4, 7), 0.3, topology)
        x = geom.coords()
        center = (0.7, 0.4, 1.1, 0.9)
        for k in (1, 2, 3):
            ref = np.zeros(geom.dims + (4,))
            ref[..., 0] = x[..., k] - center[k]
            ref[..., k] = -(x[..., 0] - center[0])
            assert np.array_equal(fq._fueter_variable(geom, k, center), ref)


@pytest.mark.parametrize("multiset", [(1, 2), (1, 1, 2, 2), (1, 2, 3), (3, 1, 2, 1), (2, 2, 2)])
def test_sym_product_matches_sum_over_orderings(multiset):
    """Grouping by the last factor reproduces the weighted sum over every distinct
    ordering to 1e-12 relative on a non-dyadic lattice."""
    geom = LatticeGeom((6, 5, 7, 6), 0.3, Topology.BOX)
    center = (0.7, 0.4, 1.1, 0.9)
    variables = {k: fq._fueter_variable(geom, k, center) for k in set(multiset)}
    ref = 0.0
    for order, mult in Counter(permutations(multiset)).items():
        term = variables[order[0]]
        for k in order[1:]:
            term = quat.mul(term, variables[k])
        ref = ref + mult * term
    ref = ref / factorial(len(multiset))
    got = fq._sym_product(variables, multiset)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_fueter_corpus_size_and_distinct():
    geom = box(5)
    corpus = fq.fueter_corpus(geom, 20)
    assert len(corpus) == 20
    flat = [f.values.tobytes() for f in corpus]
    assert len(set(flat)) == 20


def test_constant_field_zero_residual():
    geom = box(5)
    u = SpinorField(geom, np.broadcast_to(quat.ONE, geom.dims + (4,)).copy())
    assert np.abs(lat.dirac(u, ConnectionField(geom))).max() == 0.0


# ---------------------------------------------------------------------------
# identities


def test_energy_identity_degenerate_closed():
    geom = LatticeGeom((4,) * 4, 0.25, Topology.TORUS)
    vals = np.zeros(geom.dims + (4,))
    vals[..., 0] = 2.0
    c = Configuration(ConnectionField(geom), SpinorField(geom, vals))
    lhs = float(np.sum(lat.grad_energy_density(c.u, c.a)) * geom.h**4)  # int |d_A u|^2
    assert lhs == 0.0


def test_weitzenbock_trivial_flat_exact_centered():
    """Free case, centered stencil: cross terms cancel exactly."""
    geom = LatticeGeom((6,) * 4, 1 / 6, Topology.TORUS)
    rng = np.random.default_rng(1)
    u = SpinorField(geom, rng.normal(size=geom.dims + (4,)))
    c = Configuration(ConnectionField(geom), u)
    assert np.abs(fq.weitzenbock_residual(c, stencil=Stencil.CENTERED)).max() <= 1e-12


def smooth_u1_box_config(n):
    """Half-period smooth fields on a unit box (asymptotic stencil regime)."""
    geom = LatticeGeom((n + 1,) * 4, 1.0 / n, Topology.BOX)
    x = geom.coords()
    k = np.pi
    uv = np.zeros(geom.dims + (4,))
    uv[..., 0] = 1.0 + 0.3 * np.sin(k * x[..., 0]) * np.cos(k * x[..., 1])
    uv[..., 1] = 0.4 * np.cos(k * x[..., 2])
    uv[..., 2] = 0.2 * np.sin(k * x[..., 3]) * np.sin(k * x[..., 0])
    uv[..., 3] = 0.1 * np.cos(k * x[..., 1])
    links = np.zeros(geom.dims + (4,))
    links[..., 0] = 0.5 * np.sin(k * x[..., 1])
    links[..., 1] = 0.3 * np.cos(k * x[..., 2])
    links[..., 2] = 0.2 * np.sin(k * x[..., 0]) * np.cos(k * x[..., 3])
    links[..., 3] = 0.15 * np.cos(k * x[..., 0])
    return Configuration(
        ConnectionField(geom, GaugeGroup.U1, links), SpinorField(geom, uv)
    )


def test_weitzenbock_orders():
    sups = {Stencil.FORWARD: [], Stencil.CENTERED: []}
    for n in (8, 16):
        c = smooth_u1_box_config(n)
        for st in sups:
            sups[st].append(interior_sup(c.geom, fq.weitzenbock_residual(c, stencil=st), 0.25))
    # first order forward (observed from below), second order centered
    assert np.log2(sups[Stencil.FORWARD][0] / sups[Stencil.FORWARD][1]) >= 0.9
    assert np.log2(sups[Stencil.CENTERED][0] / sups[Stencil.CENTERED][1]) >= 1.85


def test_yterm_trivial_zero():
    geom = LatticeGeom((4,) * 4, 0.25, Topology.TORUS)
    u = np.random.default_rng(2).normal(size=geom.dims + (4,))
    assert np.abs(fq.curvature_yterm(u, ConnectionField(geom))).max() == 0.0


# ---------------------------------------------------------------------------
# stress tensor and Bochner


def test_stress_trace_identity():
    geom = box(7)
    rng = np.random.default_rng(3)
    u = SpinorField(geom, rng.normal(size=geom.dims + (4,)))
    c = Configuration(ConnectionField(geom), u)
    t = fq.stress_tensor(c)
    energy = lat.grad_energy_density(c.u, c.a, Stencil.CENTERED)
    trace = np.trace(t, axis1=-2, axis2=-1)
    assert np.abs(trace + energy).max() <= 1e-12 * max(energy.max(), 1.0)
    assert np.abs(t - np.swapaxes(t, -1, -2)).max() == 0.0


def test_stress_constant_field_zero():
    geom = box(5)
    u = SpinorField(geom, np.broadcast_to(quat.QK, geom.dims + (4,)).copy())
    t = fq.stress_tensor(Configuration(ConnectionField(geom), u))
    assert np.abs(t).max() == 0.0


def test_stress_divergence_order():
    sups = []
    for n in (8, 16, 32):
        geom = LatticeGeom((n + 1,) * 4, 1.0 / n, Topology.BOX)
        u = fq.fueter_library(geom, "sym_product", multiset=(1, 1, 2, 2))
        c = Configuration(ConnectionField(geom), u)
        res = fq.stress_div_residual(c, stencil=Stencil.CENTERED)
        sups.append(interior_sup(geom, np.sqrt(np.sum(res * res, -1)), 0.25))
    orders = [np.log2(sups[k] / sups[k + 1]) for k in range(2)]
    assert min(orders) >= 1.9


def test_stress_div_takes_each_covariant_difference_once(monkeypatch):
    """T and the curvature source of `stress_div_residual` read one set of the four d_i u."""
    geom = box(5)
    rng = np.random.default_rng(4)
    links = rng.normal(size=geom.dims + (4,))
    c = Configuration(ConnectionField(geom, GaugeGroup.U1, links), SpinorField(geom, rng.normal(size=geom.dims + (4,))))
    want = fq.stress_div_residual(c)
    axes, real = [], lat.cov_diff_component

    def counted(u, a, axis, stencil):
        axes.append(axis)
        return real(u, a, axis, stencil)

    monkeypatch.setattr(lat, "cov_diff_component", counted)
    assert np.array_equal(fq.stress_div_residual(c), want)
    assert axes == [0, 1, 2, 3]


@pytest.mark.parametrize("axis", range(4))
def test_scalar_centered_diff_exact_on_linear_field(axis):
    """One-sided at box faces, the mean (or the backward difference) inside: a
    linear field is exact at every site, near and far faces included."""
    geom = LatticeGeom((5, 4, 6, 5), 0.25, Topology.BOX)
    f = 3.0 * geom.coords()[..., axis] - 1.0
    for diff in (fq._scalar_centered_diff, fq._scalar_backward_diff):
        for k in range(4):
            want = 3.0 if k == axis else 0.0
            assert np.abs(diff(geom, f, k) - want).max() <= 1e-12


def test_stress_div_interior_unchanged_by_face_rule(monkeypatch):
    """Only box-face values move: the margin-0.25 interior (3 cells) matches the
    clamped-shift formula bit for bit."""
    geom = LatticeGeom((13,) * 4, 1.0 / 12, Topology.BOX)
    u = fq.fueter_library(geom, "sym_product", center=(0.48, 0.5, 0.53, 0.5), multiset=(1, 1, 2, 2))
    c = Configuration(ConnectionField(geom), u)
    new = fq.stress_div_residual(c, stencil=Stencil.CENTERED)

    def clamped(geom, f, axis):
        fwd = (lat._shift(f, axis, +1, geom.topology) - f) / geom.h
        bwd = (f - lat._shift(f, axis, -1, geom.topology)) / geom.h
        return 0.5 * (fwd + bwd)

    monkeypatch.setattr(fq, "_scalar_centered_diff", clamped)
    old = fq.stress_div_residual(c, stencil=Stencil.CENTERED)
    inner = (slice(3, -3),) * 4
    assert np.array_equal(new[inner], old[inner])
    assert not np.array_equal(new, old)

    # the forward stencil's backward divergence: only the near faces move
    new = fq.stress_div_residual(c, stencil=Stencil.FORWARD)
    monkeypatch.setattr(
        fq, "_scalar_backward_diff",
        lambda geom, f, axis: (f - lat._shift(f, axis, -1, geom.topology)) / geom.h,
    )
    old = fq.stress_div_residual(c, stencil=Stencil.FORWARD)
    assert np.array_equal(new[(slice(1, None),) * 4], old[(slice(1, None),) * 4])
    assert not np.array_equal(new, old)


def test_bochner_order_and_offshell():
    sups = []
    for n in (8, 16, 32):
        geom = LatticeGeom((n + 1,) * 4, 1.0 / n, Topology.BOX)
        u = fq.fueter_library(geom, "sym_product", multiset=(1, 1, 2, 2))
        c = Configuration(ConnectionField(geom), u)
        sups.append(interior_sup(geom, fq.bochner_residual(c, Stencil.CENTERED), 0.25))
    orders = [np.log2(sups[k] / sups[k + 1]) for k in range(2)]
    assert min(orders) >= 1.9
    # constant field: exactly zero; random field: nonzero, only reported
    geom = box(5)
    const = Configuration(
        ConnectionField(geom),
        SpinorField(geom, np.broadcast_to(quat.ONE, geom.dims + (4,)).copy()),
    )
    assert np.abs(fq.bochner_residual(const)).max() == 0.0
    rng = np.random.default_rng(4)
    noisy = Configuration(
        ConnectionField(geom), SpinorField(geom, rng.normal(size=geom.dims + (4,)))
    )
    assert np.abs(fq.bochner_residual(noisy)).max() > 0.0


def _bochner_double_loop(c, stencil):
    """The Bochner residual with every |d_j (d_A u)_i|^2 and |d_A u|^2 summed from
    cov_diff_component, one (i, j) pair at a time."""
    geom = c.geom
    energy = sum(quat.norm2(lat.cov_diff_component(c.u, c.a, i, stencil)) for i in range(4))
    hess = np.zeros(geom.dims)
    for i in range(4):
        di = SpinorField(geom, lat.cov_diff_component(c.u, c.a, i, stencil))
        for j in range(4):
            hess += quat.norm2(lat.cov_diff_component(di, c.a, j, stencil))
    return 0.5 * lat.d_star(geom, lat.d_site(geom, energy)) + hess


def test_bochner_matches_double_loop():
    """The Hessian term as sum_i grad_energy_density(d_i u) stays within 1e-12 of the
    double loop, relative to the residual's sup, for U(1) and trivial data."""
    rng = np.random.default_rng(19)
    worst = 0.0
    for topology in Topology:
        geom = LatticeGeom((5, 4, 6, 5), 0.3, topology)
        for group in GaugeGroup:
            links = rng.normal(size=geom.dims + (4,)) if group is GaugeGroup.U1 else None
            c = Configuration(ConnectionField(geom, group, links),
                              SpinorField(geom, rng.normal(size=geom.dims + (4,))))
            for st in Stencil:
                ref = _bochner_double_loop(c, st)
                dev = np.abs(fq.bochner_residual(c, st) - ref).max() / np.abs(ref).max()
                worst = max(worst, float(dev))
    print(f"max relative difference {worst:.2e}")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# radial profiles


def test_profile_z1_closed_forms():
    geom = LatticeGeom((33,) * 4, 1 / 32, Topology.BOX)
    c = Configuration(ConnectionField(geom), fq.fueter_library(geom, "z1"))
    center = tuple(0.5 * w for w in geom.widths())
    radii = np.arange(8, 17, 2) * geom.h
    prof = fq.radial_profile(c, center, radii)
    assert np.abs(prof.f_scaled_energy / (np.pi**2 * radii**2) - 1).max() <= 0.02
    assert np.abs(prof.f_boundary / (np.pi**2 * radii**5) - 1).max() <= 0.02
    assert np.abs(prof.frequency - 1).max() <= 0.02
    assert all(row["sigma"] == 0.0 for row in prof.rows())  # flat base: no metric correction


@pytest.mark.parametrize("topology", [Topology.TORUS, Topology.BOX])
def test_profile_matches_lattice_quadrature(topology):
    """The profile's shared window and distance field change no bit of the sums."""
    geom = LatticeGeom((13,) * 4, 1 / 12, topology)
    rng = np.random.default_rng(8)
    c = Configuration(ConnectionField(geom), SpinorField(geom, rng.normal(size=geom.dims + (4,))))
    center = (0.5, 0.47, 0.52, 0.5)
    radii = np.array([2.5, 4.5]) * geom.h
    prof = fq.radial_profile(c, center, radii, n_polar=8, n_azimuth=12)
    energy, chi2 = fq.profile_fields(c)
    for k, r in enumerate(radii):
        spec = lat.BallSpec(center, r, 8, 12)
        assert np.array_equal(prof.f_scaled_energy[k], lat.ball_integral(geom, energy, spec) / r**2)
        assert np.array_equal(prof.f_boundary[k], lat.shell_integral(geom, chi2, spec))
        assert np.array_equal(prof.chi_ball[k], lat.ball_integral(geom, chi2, spec))


def test_profile_constant_field():
    geom = LatticeGeom((17,) * 4, 1 / 16, Topology.BOX)
    vals = np.zeros(geom.dims + (4,))
    vals[..., 0] = 2.0
    c = Configuration(ConnectionField(geom), SpinorField(geom, vals))
    center = tuple(0.5 * w for w in geom.widths())
    radii = np.arange(4, 9, 2) * geom.h
    prof = fq.radial_profile(c, center, radii)
    assert np.abs(prof.f_scaled_energy).max() <= 1e-12
    assert np.abs(prof.frequency).max() <= 1e-10


def test_profile_scaling_invariance():
    geom = LatticeGeom((17,) * 4, 1 / 16, Topology.BOX)
    u = fq.fueter_library(geom, "z1")
    center = tuple(0.5 * w for w in geom.widths())
    radii = np.arange(4, 9, 2) * geom.h
    p1 = fq.radial_profile(Configuration(ConnectionField(geom), u), center, radii)
    u2 = SpinorField(geom, 2.0 * u.values)
    p2 = fq.radial_profile(Configuration(ConnectionField(geom), u2), center, radii)
    assert np.abs(p1.frequency - p2.frequency).max() <= 1e-12


def test_profile_grid_validation():
    geom = LatticeGeom((17,) * 4, 1 / 16, Topology.BOX)
    c = Configuration(ConnectionField(geom), fq.fueter_library(geom, "z1"))
    center = tuple(0.5 * w for w in geom.widths())
    with pytest.raises(ValueError):
        fq.radial_profile(c, center, np.array([4, 5]) * geom.h)  # spacing < 2h
    with pytest.raises(ValueError):
        fq.ode_checks(
            fq.radial_profile(c, center, np.array([4, 6, 8]) * geom.h)
        )  # fewer than 5 points


def test_ode_checks_z1():
    geom = LatticeGeom((33,) * 4, 1 / 32, Topology.BOX)
    c = Configuration(ConnectionField(geom), fq.fueter_library(geom, "z1"))
    center = tuple(0.5 * w for w in geom.widths())
    radii = np.arange(6, 17, 2) * geom.h
    prof = fq.radial_profile(c, center, radii)
    checks = fq.ode_checks(prof)
    assert checks["fprime_max_rel_dev"] <= 0.03
    assert checks["eq14_max_rel_dev"] <= 0.03


def test_monotonicity_z1_and_perturbed():
    geom = LatticeGeom((33,) * 4, 1 / 32, Topology.BOX)
    center = tuple(0.5 * w for w in geom.widths())
    radii = np.arange(6, 17, 2) * geom.h
    u = fq.fueter_library(geom, "z1")
    prof = fq.radial_profile(Configuration(ConnectionField(geom), u), center, radii)
    assert fq.monotonicity_scan(prof, 0.0)["passed"]
    rng = np.random.default_rng(5)
    noisy = SpinorField(geom, u.values + 1e-3 * rng.normal(size=geom.dims + (4,)))
    prof2 = fq.radial_profile(Configuration(ConnectionField(geom), noisy), center, radii)
    assert fq.monotonicity_scan(prof2, 0.0)["passed"]


# ---------------------------------------------------------------------------
# critical radius and the probe


def test_critical_radius_edges():
    geom = LatticeGeom((17,) * 4, 1 / 16, Topology.BOX)
    center = tuple(0.5 * w for w in geom.widths())
    vals = np.zeros(geom.dims + (4,))
    vals[..., 0] = 1.5
    const = Configuration(ConnectionField(geom), SpinorField(geom, vals))
    r, flag = fq.critical_radius(const, center, 1e-2)
    assert r == geom.delta0() and flag == "full"
    r0, flag0 = fq.critical_radius(const, center, 0.0)
    assert r0 == 0.0 and flag0 == "zero"
    z1 = Configuration(ConnectionField(geom), fq.fueter_library(geom, "z1"))
    r1, flag1 = fq.critical_radius(z1, center, 1e-6)
    assert flag1 == "zero"  # F = 2 pi^2 r^2-ish never below tiny eps0


def test_critical_radius_interior_matches_full_window():
    """The sub-box ball sums bisect to the same radius and flag as whole-lattice windows."""
    geom = LatticeGeom((17,) * 4, 1 / 16, Topology.BOX)
    c = Configuration(ConnectionField(geom), fq.fueter_library(geom, "z1"))
    energy, _ = fq.profile_fields(c)
    for center in (tuple(0.5 * w for w in geom.widths()), (0.45, 0.55, 0.5, 0.52)):

        def big_f(r):
            return full_window_sum(geom, energy, lat.BallSpec(center, r)) / r**2

        lo, hi = 4 * geom.h, lat.max_ball_radius(geom, center)
        eps0 = 0.5 * (big_f(lo) + big_f(hi))
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if big_f(mid) <= eps0 else (lo, mid)
        assert fq.critical_radius(c, center, eps0) == (lo, "interior")


def test_regularity_probe_matches_full_lattice_sums():
    """F and the sup over B_{r/4} from the sub-boxes match whole-lattice references."""
    geom = LatticeGeom((17,) * 4, 1 / 16, Topology.BOX)
    c = Configuration(ConnectionField(geom), fq.fueter_library(geom, "sym_product", multiset=(1, 2)))
    energy, _ = fq.profile_fields(c)
    centers = [(0.5, 0.5, 0.5, 0.5), (0.45, 0.58, 0.5, 0.47)]
    for center, entry in zip(centers, fq.regularity_probe(c, centers, eps0=3.0)):
        d = full_distances(geom, center)
        assert len(entry["chat"]) == 4
        for rec in entry["chat"]:
            r = rec["r"]
            big_f = full_window_sum(geom, energy, lat.BallSpec(center, r)) / r**2
            ref = float(energy[d <= r / 4].max()) / (big_f / r**2 + r**2)
            assert abs(rec["chat"] - ref) <= 1e-12 * ref


def test_probe_centre_near_face_raises_before_work(monkeypatch):
    """A centre where the 4h ball leaves the box is a ValueError naming the centre,
    delta0 and the 4h minimum, raised before the site fields are computed."""
    geom = LatticeGeom((17,) * 4, 1 / 16, Topology.BOX)
    c = Configuration(ConnectionField(geom), fq.fueter_library(geom, "z1"))

    def no_fields(*args, **kwargs):
        raise AssertionError("profile_fields called before the centre check")

    monkeypatch.setattr(fq, "profile_fields", no_fields)
    centers = [(0.5, 0.5, 0.5, 0.5), (0.1875, 0.5, 0.5, 0.5)]
    message = r"\(0\.1875, 0\.5, 0\.5, 0\.5\): delta0 = 0\.1875 .* 4h = 0\.25"
    for call in (lambda: fq.regularity_probe(c, centers, eps0=3.0),
                 lambda: fq.critical_radius(c, centers[1], 3.0)):
        with pytest.raises(ValueError, match=message):
            call()
    fq.check_probe_centres(geom, [(0.25, 0.5, 0.5, 0.5)])  # exactly 4h from the face fits


def test_regularity_probe_scatter():
    geom = LatticeGeom((33,) * 4, 1 / 32, Topology.BOX)
    u = fq.fueter_library(geom, "z1")
    c = Configuration(ConnectionField(geom), u)
    w = geom.widths()
    centers = [
        tuple(0.5 * wi for wi in w),
        (0.5 * w[0], 0.56 * w[1], 0.5 * w[2], 0.5 * w[3]),
        (0.5 * w[0], 0.62 * w[1], 0.5 * w[2], 0.5 * w[3]),
    ]
    report = fq.regularity_probe(c, centers, eps0=3.0)
    # rho0 grows along the ray from the zero of z1; the critical radius
    # stays positive (the corollary's lower bound), and the Heinz
    # constants are measured, never asserted
    rhos = [entry["rho0"] for entry in report]
    assert rhos[0] < rhos[1] < rhos[2]
    for entry in report:
        assert entry["r_x"] > 0.0
        assert entry["chat"], "probe must report measured constants"
        for rec in entry["chat"]:
            assert np.isfinite(rec["chat"]) and rec["chat"] >= 0.0


# ---------------------------------------------------------------------------
# sequences


def test_sequence_dilated_family():
    geom = LatticeGeom((16,) * 4, 1 / 16, Topology.TORUS)
    spec = fq.SequenceSpec(geom, "fueter_dilation", n_terms=5, c1=4.0)
    rep = fq.sequence_harness(spec)
    rows = rep["rows"]
    assert not rep["empty_xprime"]
    assert rep["bound_satisfied"]
    for k in range(len(rows) - 1):
        assert rows[k]["sup_diff_Xprime"] / rows[k + 1]["sup_diff_Xprime"] >= 1.5
        for p in (1, 2, 4):
            assert rows[k][f"L{p}_diff"] > rows[k + 1][f"L{p}_diff"]
    sup_c = [r["sup_diff_center"] for r in rows]
    assert min(sup_c) >= 0.9 * max(sup_c)  # no decay at the concentration point


def test_sequence_constant_trivial():
    geom = LatticeGeom((8,) * 4, 1 / 8, Topology.TORUS)
    vals = np.zeros(geom.dims + (4,))
    vals[..., 0] = 1.0
    fields = [SpinorField(geom, vals.copy()) for _ in range(4)]
    spec = fq.SequenceSpec(geom, "custom", fields=fields, c1=4.0)
    rep = fq.sequence_harness(spec)
    for row in rep["rows"]:
        assert row["sup_diff_Xprime"] == 0.0
        assert row["sup_diff_center"] == 0.0
        assert row["L1_diff"] == 0.0


def test_sequence_vanishing_energy_flags_empty():
    geom = LatticeGeom((8,) * 4, 1 / 8, Topology.TORUS)
    spec = fq.SequenceSpec(geom, "vanishing", n_terms=12, c1=4.0)
    rep = fq.sequence_harness(spec)
    assert rep["empty_xprime"]
