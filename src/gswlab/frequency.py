"""Frequency functions, monotonicity scans and the convergence harness.

Radial machinery around a center x: the scaled energy
F_x(r) = r^-2 int_{B_r} |d_A u|^2, the boundary density
f_x(r) = int_{dB_r} |chi0 o u|^2, the frequency N = r^3 F / f and
kappa = sqrt(r^-3 f).  The base is flat, so every scalar-curvature term
s_X of the identities and the metric correction sigma vanish.

Identity residuals (Weitzenboeck, Bochner, stress divergence) are
formed with the same stencils as the operators they test and converge
under refinement at first order for the forward stencil and second
order for the centered one.  Vector-field calculus here assumes the
flat target chart; the cone target is supported by the scalar radial
machinery.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from math import factorial

import numpy as np

from . import lattice as lat
from . import quaternion as quat
from .gsw import Configuration
from .lattice import BallSpec, LatticeGeom, SpinorField, Stencil

#: relative slack of each monotonicity check
MONOTONICITY_SLACK = 0.02


# ---------------------------------------------------------------------------
# Fueter sample fields


def _fueter_variable(geom: LatticeGeom, k, center):
    """z_k = x_k - e_k x_0 sampled on the lattice, k in {1, 2, 3}."""

    def axis(i):  # x_i - center_i along axis i, broadcast over the others
        shape = [1, 1, 1, 1]
        shape[i] = geom.dims[i]
        return (np.arange(geom.dims[i]) * geom.h - center[i]).reshape(shape)

    out = np.zeros(geom.dims + (4,))
    out[..., 0] = axis(k)
    out[..., k] = -axis(0)
    return out


def _sym_product(variables, multiset):
    """Symmetrized quaternion product of the (..., 4) fields variables[k], k in multiset.

    The sum S(M) over every ordering of a multiset M is grouped by the
    last factor, S(M) = sum_k mult_k S(M - k) z_k over the distinct k in M
    (mult_k copies of k), built up one size of sub-multiset at a time,
    each taken once; the result is S(M) / |M|!.
    """
    ms = tuple(sorted(multiset))
    level = {(k,): variables[k] for k in set(ms)}
    for size in range(2, len(ms) + 1):
        prev, level = level, {}
        for sub in set(combinations(ms, size)):  # sorted, so one key per sub-multiset
            terms = []
            for k, mult in Counter(sub).items():
                rest = list(sub)
                rest.remove(k)
                terms.append(mult * quat.mul(prev[tuple(rest)], variables[k]))
            level[sub] = sum(terms[1:], terms[0])
    return level[ms] / factorial(len(ms))


def fueter_library(geom: LatticeGeom, kind, center=None, multiset=(1, 2)):
    """Fueter-regular polynomial samples: z1, z2, z3 and sym products.

    kind: 'z1' | 'z2' | 'z3' | 'sym_product'; for 'sym_product' the
    multiset names the factors, e.g. (1, 2) or (1, 2, 3).  Each field
    annihilates the continuum Fueter operator exactly; the discrete
    Dirac residual is zero for the linear ones and O(h^2) (centered)
    for higher degree.
    """
    if center is None:
        center = tuple(0.5 * w for w in geom.widths())
    if kind in ("z1", "z2", "z3"):
        vals = _fueter_variable(geom, int(kind[1]), center)
    elif kind == "sym_product":
        variables = {k: _fueter_variable(geom, k, center) for k in set(multiset)}
        vals = _sym_product(variables, multiset)
    else:
        raise ValueError(f"unknown Fueter sample kind {kind!r}")
    return SpinorField(geom, vals)


def fueter_corpus(geom: LatticeGeom, count=20):
    """A corpus of Fueter fields centred in the box: variables, right-multiples, products, each
    Fueter-regular; criterion 6 checks that the frequency is monotone on each."""
    fields = []
    for k in ("z1", "z2", "z3"):
        fields.append(fueter_library(geom, k))
    consts = [quat.ONE + 0.3 * quat.QJ, quat.QI + 0.5 * quat.QK, 0.7 * quat.QK]
    for k in ("z1", "z2", "z3"):
        base = fueter_library(geom, k)
        for p in consts[:2]:
            fields.append(SpinorField(geom, quat.mul(base.values, p)))
    for ms in ((1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3)):
        fields.append(fueter_library(geom, "sym_product", multiset=ms))
    k = 0
    while len(fields) < count:
        base = fields[3 + (k % 6)]
        fields.append(SpinorField(geom, quat.mul(base.values, consts[2])))
        k += 1
    return fields[:count]


# ---------------------------------------------------------------------------
# covariant calculus on tangent fields (flat chart)


def _tangent_cov_diff_adjoint(vals, a, axis, stencil, geom):
    """Exact adjoint of the tangent covariant difference (torus)."""
    u = SpinorField(geom, vals)
    if stencil is Stencil.FORWARD:
        return -lat.backward_cov_diff_raw(u, a, axis)
    return -lat.cov_diff_component(u, a, axis, stencil)


def dirac_lin_adjoint(w_vals, a, stencil, geom):
    """Adjoint of the linearized Dirac operator applied to an E- field."""
    out = np.zeros(geom.dims + (4,))
    for i in range(4):
        out += _tangent_cov_diff_adjoint(
            quat.mul(quat.conj(quat.BASIS[i]), w_vals), a, i, stencil, geom
        )
    return out


def cov_laplacian(vals, a, stencil, geom):
    """d^{TM,*} d_A applied to a tangent-valued site field."""
    u = SpinorField(geom, vals)
    out = np.zeros(geom.dims + (4,))
    for i in range(4):
        d = lat.cov_diff_component(u, a, i, stencil)
        out += _tangent_cov_diff_adjoint(d, a, i, stencil, geom)
    return out


def _clover_average(geom, fvals):
    """Site-centered curvature: average the four plaquettes at each site.

    The forward plaquette value is biased toward the plaquette center;
    averaging over the four plaquettes in each plane restores
    second-order accuracy at the site (the clover stencil).
    """
    out = np.zeros_like(fvals)
    for p, (i, j) in enumerate(lat.PLAQ_PAIRS):
        f = fvals[..., p]
        acc = f + lat._shift(f, i, -1, geom.topology)
        acc = acc + lat._shift(f, j, -1, geom.topology)
        acc = acc + lat._shift(lat._shift(f, i, -1, geom.topology), j, -1, geom.topology)
        out[..., p] = 0.25 * acc
    return out


def curvature_yterm(u_vals, a: lat.ConnectionField, stencil=Stencil.FORWARD):
    """Clifford contraction of the connection curvature acting at u.

    With left-multiplication complex structures and the fixed self-dual
    basis, the contraction in the Dirac Weitzenboeck identity picks the
    combinations F_{0l} - F_{dual(l)} (twice the coefficients of the
    opposite-chirality projection); the whole term vanishes for the
    trivial group and for flat connections.  The centered stencil uses
    the clover (four-plaquette) curvature average at each site.
    """
    geom = a.geom
    if a.links is None:
        return np.zeros(geom.dims + (4,))
    f = lat.plaquette_curvature(a).values
    if stencil is Stencil.CENTERED:
        f = _clover_average(geom, f)
    comb = np.stack(
        [f[..., 0] - f[..., 3], f[..., 1] - f[..., 4], f[..., 2] - f[..., 5]],
        axis=-1,
    )
    out = np.zeros(geom.dims + (4,))
    for l in range(3):
        k_field = quat.mul(u_vals, quat.QI) * comb[..., l][..., None]
        out += -quat.mul(quat.IM_BASIS[l], k_field)
    return out


def weitzenbock_residual(c: Configuration, stencil=Stencil.CENTERED):
    """Pointwise norm of the Dirac Weitzenboeck identity defect.

    residual = D^{lin,u*} D_A u - d^{TM,*} d_A u - Y_u(F); first/second
    order in h for forward/centered stencils on smooth data.
    """
    geom = c.geom
    du = lat.dirac(c.u, c.a, stencil)
    lhs = dirac_lin_adjoint(du, c.a, stencil, geom)
    rhs = cov_laplacian(c.u.values, c.a, stencil, geom)
    rhs = rhs + curvature_yterm(c.u.values, c.a, stencil)
    return quat.norm(lhs - rhs)


# ---------------------------------------------------------------------------
# stress tensor and Bochner residual


def stress_tensor(c: Configuration, stencil=Stencil.CENTERED):
    """T_ij = <d_i u, d_j u> - (1/2) delta_ij |d_A u|^2, sitewise."""
    comps = [lat.cov_diff_component(c.u, c.a, i, stencil) for i in range(4)]
    return _stress_tensor(c.geom, comps)


def _stress_tensor(geom, comps):
    """`stress_tensor` from the four covariant differences d_i u."""
    t = np.zeros(geom.dims + (4, 4))
    energy = np.zeros(geom.dims)
    for i in range(4):
        energy += quat.norm2(comps[i])
    for i in range(4):
        for j in range(i, 4):
            tij = quat.inner(comps[i], comps[j])
            t[..., i, j] = tij
            t[..., j, i] = tij
    for i in range(4):
        t[..., i, i] -= 0.5 * energy
    return t


def stress_div_residual(c: Configuration, stencil=Stencil.CENTERED):
    """div T minus its curvature source, per site.

    For the trivial group the source vanishes and the residual measures
    div T directly (zero to stencil order on harmonic data).
    """
    geom = c.geom
    comps = [lat.cov_diff_component(c.u, c.a, i, stencil) for i in range(4)]
    t = _stress_tensor(geom, comps)
    div = np.zeros(geom.dims + (4,))
    for i in range(4):
        for j in range(4):
            col = t[..., i, j]
            if stencil is Stencil.CENTERED:
                dcol = _scalar_centered_diff(geom, col, j)
            else:
                dcol = _scalar_backward_diff(geom, col, j)
            div[..., i] += dcol
    source = np.zeros(geom.dims + (4,))
    if c.a.links is not None:
        f = lat.plaquette_curvature(c.a).values
        fmat = _twoform_matrix(f)
        for i in range(4):
            for j in range(4):
                kf = quat.mul(c.u.values, quat.QI) * fmat[..., j, i][..., None]
                source[..., i] += quat.inner(kf, comps[j])
    return div - source


def _twoform_matrix(fvals):
    """Antisymmetric matrix F_ij from the paired component storage."""
    geom_shape = fvals.shape[:-1]
    m = np.zeros(geom_shape + (4, 4))
    for p, (i, j) in enumerate(lat.PLAQ_PAIRS):
        m[..., i, j] = fvals[..., p]
        m[..., j, i] = -fvals[..., p]
    return m


def _scalar_centered_diff(geom, f, axis):
    """Mean of the forward and backward differences, one-sided on box faces."""
    return lat.identity_diff(geom, f, axis, 0)


def _scalar_backward_diff(geom, f, axis):
    """(f(x) - f(x - e)) / h, the forward difference on the near face of a box."""
    return lat.identity_diff(geom, f, axis, -1)


def bochner_residual(c: Configuration, stencil=Stencil.CENTERED):
    """(1/2) d*d |d_A u|^2 + |d^{TM} d_A u|^2 per site.

    Zero to stencil order for harmonic fields on flat data; reported,
    not asserted, off-shell.
    """
    geom = c.geom
    energy = lat.grad_energy_density(c.u, c.a, stencil)
    lap = lat.d_star(geom, lat.d_site(geom, energy))
    hess = np.zeros(geom.dims)
    for i in range(4):  # |d^{TM} d_A u|^2 = sum_i |d_A (d_A u)_i|^2
        di = SpinorField(geom, lat.cov_diff_component(c.u, c.a, i, stencil))
        hess += lat.grad_energy_density(di, c.a, stencil)
    return 0.5 * lap + hess


# ---------------------------------------------------------------------------
# radial profiles


@dataclass
class RadialProfile:
    center: tuple
    radii: np.ndarray
    f_scaled_energy: np.ndarray  # F(r)
    f_boundary: np.ndarray  # f(r)
    frequency: np.ndarray  # N(r); nan where undefined
    kappa: np.ndarray
    chi_ball: np.ndarray  # int_{B_r} |chi0 o u|^2
    undefined: np.ndarray  # mask where f below threshold

    def rows(self):
        out = []
        for k, r in enumerate(self.radii):
            out.append(
                {
                    "r": float(r),
                    "F": float(self.f_scaled_energy[k]),
                    "f": float(self.f_boundary[k]),
                    "N": float(self.frequency[k]),
                    "sigma": 0.0,  # metric correction, zero on the flat base
                    "kappa": float(self.kappa[k]),
                }
            )
        return out


def profile_fields(c: Configuration, stencil=Stencil.CENTERED):
    """(|d_A u|^2, |chi0 o u|^2) site fields, computed once per config."""
    return lat.grad_energy_density(c.u, c.a, stencil), quat.norm2(c.u.values)


def radial_profile(
    c: Configuration,
    center,
    radii,
    stencil=Stencil.CENTERED,
    fields=None,
    n_polar=24,
    n_azimuth=48,
) -> RadialProfile:
    """Tabulate F, f, N, kappa on a radius grid (spacing >= 2h)."""
    geom = c.geom
    radii = np.asarray(sorted(radii), dtype=float)
    if radii.size >= 2 and np.min(np.diff(radii)) < 2 * geom.h - 1e-12:
        raise ValueError("radius grid spacing must be at least 2h")
    if radii[-1] > geom.delta0() + 1e-12:
        raise ValueError("radius grid exceeds delta0")
    energy, chi2 = fields if fields is not None else profile_fields(c, stencil)

    m = radii.size
    f_r = np.zeros(m)
    big_f = np.zeros(m)
    chi_ball = np.zeros(m)
    for k, r in enumerate(radii):
        spec = BallSpec(center, float(r), n_polar, n_azimuth)
        energy_ball, chi_ball[k] = lat.ball_sums(geom, spec, (energy, chi2))
        big_f[k] = energy_ball / r**2
        f_r[k] = lat.shell_integral(geom, chi2, spec)
    undefined = f_r <= 1e-14
    freq = np.where(undefined, np.nan, radii**3 * big_f / np.where(undefined, 1.0, f_r))
    kappa = np.sqrt(np.where(undefined, 0.0, f_r) / radii**3)
    return RadialProfile(tuple(center), radii, big_f, f_r, freq, kappa, chi_ball, undefined)


def _fd_weights(offsets, at=0.0):
    """First-derivative stencil weights on given offsets (Vandermonde solve)."""
    offsets = np.asarray(offsets, dtype=float)
    n = offsets.size
    scale = max(np.abs(offsets - at).max(), 1e-300)
    a = np.vander((offsets - at) / scale, n, increasing=True).T
    rhs = np.zeros(n)
    rhs[1] = 1.0
    return np.linalg.solve(a, rhs) / scale


def _grid_derivative(radii, values):
    """High-order differentiation on the radius grid.

    Windows of up to nine points (exact through degree eight, enough
    for the radial polynomials of low-degree Fueter samples) slide to
    one-sided stencils at the edges, so every grid point carries a
    full-order estimate.
    """
    m = radii.size
    out = np.full(m, np.nan)
    width = min(m, 9)
    for k in range(m):
        lo = min(max(0, k - width // 2), m - width)
        sel = slice(lo, lo + width)
        w = _fd_weights(radii[sel], at=radii[k])
        out[k] = float(w @ values[sel])
    return out


def ode_checks(profile: RadialProfile):
    """Deviations of the radial identities f' and d kappa / dr.

    f' is compared against (3/r) f + 2 r^2 F and kappa' against N kappa / r,
    with derivatives from 4th-order central differences (needs >= 5 grid
    points).  Returns max relative deviations over the interior grid.
    """
    r = profile.radii
    if r.size < 5:
        raise ValueError("ode_checks needs at least 5 grid points")
    f = profile.f_boundary
    big_f = profile.f_scaled_energy
    fp = _grid_derivative(r, f)
    rhs = 3.0 / r * f + 2.0 * r**2 * big_f
    sel = ~np.isnan(fp) & ~profile.undefined
    dev_f = np.abs(fp[sel] - rhs[sel]) / np.maximum(np.abs(rhs[sel]), 1e-300)
    kp = _grid_derivative(r, profile.kappa)
    rhs_k = profile.frequency * profile.kappa / r
    selk = ~np.isnan(kp) & ~np.isnan(rhs_k)
    scale = np.maximum(np.abs(rhs_k[selk]), np.abs(kp[selk]))
    dev_k = np.where(scale > 0, np.abs(kp[selk] - rhs_k[selk]) / np.where(scale > 0, scale, 1.0), 0.0)
    return {
        "fprime_max_rel_dev": float(dev_f.max()) if dev_f.size else 0.0,
        "eq14_max_rel_dev": float(dev_k.max()) if dev_k.size else 0.0,
        "fprime_dev": fp - rhs,
        "eq14_dev": kp - rhs_k,
    }


def monotonicity_scan(profile: RadialProfile, c0=0.0):
    """Monotonicity of e^{c0 r} F + c0 r^3 and e^{c0 r^2} f / r^3.

    Also checks the ball-boundary inequality
    int_{B_r}|chi0 o u|^2 <= e^{c0 r^2} r f(r) / 4 up to the slack.
    Each check passes when successive decrements stay within
    MONOTONICITY_SLACK (2%) relative to the local scale.
    """
    r = profile.radii
    g1 = np.exp(c0 * r) * profile.f_scaled_energy + c0 * r**3
    g2 = np.exp(c0 * r**2) * profile.f_boundary / r**3
    out = {}
    for name, g in (("F_monotone", g1), ("f_over_r3_monotone", g2)):
        diffs = np.diff(g)
        scale = np.maximum(np.abs(g[1:]), np.abs(g[:-1]))
        ok = np.all(diffs >= -MONOTONICITY_SLACK * np.maximum(scale, 1e-300))
        worst = float((diffs / np.maximum(scale, 1e-300)).min()) if diffs.size else 0.0
        out[name] = {"passed": bool(ok), "worst_decrement": worst}
    lhs = profile.chi_ball
    rhs = np.exp(c0 * r**2) * r * profile.f_boundary / 4.0
    ok = np.all(lhs <= rhs * (1.0 + MONOTONICITY_SLACK) + 1e-300)
    out["ball_shell_inequality"] = {
        "passed": bool(ok),
        "max_ratio": float(np.max(lhs / np.maximum(rhs, 1e-300))),
    }
    out["passed"] = all(v["passed"] for v in out.values() if isinstance(v, dict))
    # frequency monotonicity: recorded only (its differential inequality
    # carries non-constructive constants), never part of the pass gate
    n = profile.frequency
    sel = ~np.isnan(n)
    diffs = np.diff(n[sel])
    out["frequency_monotone_recorded"] = {
        "nondecreasing_within_slack": bool(
            np.all(diffs >= -MONOTONICITY_SLACK * np.maximum(np.abs(n[sel][1:]), 1e-300))
        ),
        "worst_decrement": float(diffs.min()) if diffs.size else 0.0,
    }
    return out


# ---------------------------------------------------------------------------
# critical radius and the epsilon-regularity probe


def check_probe_centres(geom: LatticeGeom, centers):
    """Raise ValueError unless the probe's smallest ball, radius 4h, fits at every centre."""
    r_min = 4.0 * geom.h
    for center in centers:
        delta0 = lat.max_ball_radius(geom, center)
        if r_min > delta0 + 1e-12:
            raise ValueError(f"probe centre {tuple(center)}: delta0 = {delta0:g} is below "
                             f"the smallest probe radius 4h = {r_min:g}")


def critical_radius(c: Configuration, center, eps0, stencil=Stencil.CENTERED, fields=None):
    """sup { r <= delta0 : F_x(r) <= eps0 } by 40 bisection steps.

    Returns (radius, flag); flag 'zero' marks the degenerate outcome
    where even the smallest resolvable ball (radius 4h) exceeds the
    threshold (in particular for eps0 = 0).  A centre where that ball
    does not fit (delta0 < 4h) is a ValueError before any work.
    """
    geom = c.geom
    check_probe_centres(geom, [center])
    energy, _ = fields if fields is not None else profile_fields(c, stencil)
    delta0 = lat.max_ball_radius(geom, center)
    r_min = 4.0 * geom.h
    if eps0 <= 0.0:
        return 0.0, "zero"

    def big_f(r):
        return lat.ball_integral(geom, energy, BallSpec(center, r)) / r**2

    if big_f(delta0) <= eps0:
        return delta0, "full"
    if big_f(r_min) > eps0:
        return 0.0, "zero"
    lo, hi = r_min, delta0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if big_f(mid) <= eps0:
            lo = mid
        else:
            hi = mid
    return lo, "interior"


def regularity_probe(c: Configuration, centers, eps0=1e-2, stencil=Stencil.CENTERED, fields=None):
    """Critical radii, measured Heinz constants and the density scatter.

    For each center: r(x), rho0 o u(x), and for four radii r <= r(x)
    the measured constant
        c_hat = sup_{B_{r/4}} |d_A u|^2 / (r^-2 F_x(r) + r^2),
    reported (never asserted; the continuum constant is not
    constructive).  Every centre must fit a ball of radius 4h
    (check_probe_centres), checked before any work.
    """
    geom = c.geom
    check_probe_centres(geom, centers)
    fields = fields if fields is not None else profile_fields(c, stencil)
    energy, chi2 = fields
    report = []
    for center in centers:
        rx, flag = critical_radius(c, center, eps0, stencil, fields)
        rho = 0.5 * float(lat.interpolate(geom, chi2, np.asarray([center]))[0])
        entry = {"center": tuple(center), "r_x": rx, "flag": flag, "rho0": rho, "chat": []}
        if rx > 0.0:
            radii = np.linspace(max(4 * geom.h, rx / 4), rx, 4)
            for r in radii:
                big_f = lat.ball_integral(geom, energy, BallSpec(center, float(r))) / r**2
                index, d = lat.ball_box(geom, center, r / 4)
                inner = energy[index][d <= r / 4]
                sup = float(inner.max()) if inner.size else 0.0
                entry["chat"].append(
                    {"r": float(r), "chat": sup / (big_f / r**2 + r**2)}
                )
        report.append(entry)
    return report


# ---------------------------------------------------------------------------
# concentrating sequences


@dataclass
class SequenceSpec:
    """Generator description for the local-convergence harness.

    kind 'fueter_dilation': a fixed Fueter background times a dip whose
    support shrinks by lambda0 * growth^n; at the dip bottom the field
    sits at a small residue times a cyclically rotating unit quaternion,
    so values at the concentration point keep jumping by a fixed amount
    while differences away from it decay like the cubed dilation ratio.
    kind 'vanishing': the background scaled by decaying amplitudes
    (empty limit region).  kind 'custom': caller-provided fields.
    """

    geom: LatticeGeom
    kind: str = "fueter_dilation"
    center: tuple = None
    n_terms: int = 6
    lambda0: float = None
    growth: float = 2.0
    base_offset: tuple = (1.0, 0.0, 0.0, 0.0)
    dip_residue: float = 0.25
    c0_bound: float = 10.0
    c1: float = 4.0
    tail_window: int = 3
    fields: list = None

    def __post_init__(self):
        if self.center is None:
            self.center = tuple(0.5 * w for w in self.geom.widths())
        if self.lambda0 is None:
            # dip support below one cell from the start, so every step of
            # the reported sequence is in the concentrating regime
            self.lambda0 = 0.75 / self.geom.h


def _dip_profile(geom, center, lam):
    d = lat.site_distances(geom, center)
    return (1.0 + (lam * d) ** 2) ** (-1.5)


def sequence_fields(spec: SequenceSpec):
    """Materialize the u_n fields of a sequence specification."""
    geom = spec.geom
    if spec.kind == "custom":
        return list(spec.fields)
    base = np.zeros(geom.dims + (4,)) + np.asarray(spec.base_offset, dtype=float)
    cycle = [quat.ONE, quat.QI, -quat.ONE, -quat.QI]
    out = []
    for n in range(spec.n_terms):
        lam = spec.lambda0 * spec.growth**n
        if spec.kind == "fueter_dilation":
            dip = _dip_profile(geom, spec.center, lam)[..., None]
            bottom = spec.dip_residue * cycle[n % 4]
            vals = base * (1.0 - dip) + quat.mul(base, bottom) * dip
        elif spec.kind == "vanishing":
            vals = base * (0.5**n)
        else:
            raise ValueError(f"unknown sequence kind {spec.kind!r}")
        out.append(SpinorField(geom, vals))
    return out


def _erode(mask):
    out = mask.copy()
    for axis in range(4):
        out &= np.roll(mask, +1, axis=axis)
        out &= np.roll(mask, -1, axis=axis)
    return out


def sequence_harness(spec: SequenceSpec):
    """Convergence diagnostics for a concentrating sequence.

    Builds u_n, the tail-max density proxy rho, the region
    X' = {rho >= 1/c1} eroded by one cell, and reports per step:
    sup |u_{n+1} - u_n| over X', the same at the concentration point,
    Lp Cauchy differences of rho_n for p in {1, 2, 4}, and the density
    integrals (bounded by c0).  An empty X' is flagged rather than an
    error (vanishing-energy families).
    """
    geom = spec.geom
    fields = sequence_fields(spec)
    n = len(fields)
    rho = [0.5 * quat.norm2(f.values) for f in fields]
    integrals = [float(np.sum(r)) * geom.h**4 for r in rho]
    tail = rho[max(0, n - spec.tail_window):]
    rho_proxy = np.max(np.stack(tail), axis=0)
    region = rho_proxy >= 1.0 / spec.c1
    region = _erode(region)
    empty = not bool(region.any())

    center_idx = tuple(
        int(round(spec.center[i] / geom.h)) % geom.dims[i] for i in range(4)
    )
    rows = []
    h4 = geom.h**4
    for k in range(n - 1):
        diff = fields[k + 1].values - fields[k].values
        dnorm = quat.norm(diff)
        sup_x = float(dnorm[region].max()) if not empty else np.nan
        sup_c = float(dnorm[center_idx])
        drho = np.abs(rho[k + 1] - rho[k])
        lp = {p: float((np.sum(drho**p) * h4) ** (1.0 / p)) for p in (1, 2, 4)}
        rows.append(
            {
                "n": k,
                "sup_diff_Xprime": sup_x,
                "sup_diff_center": sup_c,
                "L1_diff": lp[1],
                "L2_diff": lp[2],
                "L4_diff": lp[4],
                "integral_rho": integrals[k],
            }
        )
    return {
        "rows": rows,
        "empty_xprime": empty,
        "xprime_sites": int(region.sum()),
        "integrals": integrals,
        "bound_satisfied": bool(max(integrals) <= spec.c0_bound + 1e-12),
    }
