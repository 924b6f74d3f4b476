"""L2 quotient geometry of configuration space and the solution set.

Two independent routes to sectional curvature are implemented and
cross-checked:

* the submersion/embedding pipeline: O'Neill's formula for the quotient
  (vertical brackets through the pseudo-inverse (D*)^+ = D (D* D)^+ of
  the gauge slice operator) and the Gauss equation for the solution set
  (second fundamental form through the pseudo-inverse E^+ = E* (E E*)^+
  of the linearized equations), each one `LinearMap.pinv_apply`;
* a brute-force finite-difference oracle that Taylor-expands chart
  metric coefficients and assembles Christoffel symbols, knowing
  nothing about Green operators or pseudo-inverses.

Both run over a small `QuotientSystem` interface, so the same code
serves the lattice system and the built-in finite-dimensional fixtures
(flat C^2 with its U(1) phase rotation, whose quotient and level-set
curvatures are known in closed form).

All ambient metrics here are constant (flat configuration chart), so
the ambient curvature term K_C in O'Neill's formula is zero.
"""

import csv
import warnings

import numpy as np

from . import deformation as dfm
from . import lattice as lat
from . import quaternion as quat
from .deformation import (
    BlockSpace,
    LinearMap,
    TangentConfig,
)
from .gsw import Configuration, Sources
from .targets import GaugeGroup, TargetKind


# ---------------------------------------------------------------------------
# Green solvers


class GreenSolver:
    """Pseudo-inverse of L L* (side='rows') or L* L (side='cols').

    The pipeline reduces every Green solve to `LinearMap.pinv_apply`
    (E*(E E*)^+ = E^+, D (D* D)^+ = (D*)^+); this class stays only as the
    name the benchmark's span tracer wraps, and composes the same
    pseudo-inverses: (L* L)^+ = L^+ (L*)^+ and (L L*)^+ = (L*)^+ L^+.
    """

    def __init__(self, lm: LinearMap, side="rows"):
        if side not in ("rows", "cols"):
            raise ValueError("side must be 'rows' or 'cols'")
        adj = lm.adjoint()
        self._first, self._second = (lm, adj) if side == "rows" else (adj, lm)

    def solve(self, y):
        """Apply the Green operator; y is a vector or a column stack."""
        return self._second.pinv_apply(self._first.pinv_apply(y))


# ---------------------------------------------------------------------------
# quotient systems


class QuotientSystem:
    """A flat-metric configuration space with a linear-ish gauge action.

    Concrete systems provide the tangent/gauge/equation block spaces,
    the gauge linearization and its directional derivative, equation
    rows with exact first and mixed second derivatives, all at an
    arbitrary configuration vector (flat chart coordinates).
    """

    tan_space: BlockSpace
    gauge_space: BlockSpace
    eq_space: BlockSpace

    def center(self):
        raise NotImplementedError

    def gauge_map(self, cvec) -> LinearMap:
        raise NotImplementedError

    def gauge_map_diff(self, cvec, wvec):
        """Directional derivative of gauge_map's matrix along wvec."""
        raise NotImplementedError

    def equation_rows(self, cvec):
        raise NotImplementedError

    def equation_map(self, cvec) -> LinearMap:
        raise NotImplementedError

    def equation_second(self, cvec, t1, t2):
        raise NotImplementedError


class LatticeSystem(QuotientSystem):
    """Adapter putting a lattice configuration behind QuotientSystem."""

    def __init__(self, c: Configuration, s: Sources):
        if c.u.kind is not TargetKind.FLAT_H:
            raise ValueError("curvature machinery requires the flat target chart")
        self.c0 = c
        self.s = s
        lay = dfm.layout(c.geom, c.group)
        self.tan_space, self.gauge_space, self.eq_space = lay.tangent, lay.gauge, lay.equations

    def center(self):
        links = self.c0.a.links
        return self.tan_space.pack(links, self.c0.u.values)

    def config_at(self, cvec):
        b, v = self.tan_space.unpack(cvec)
        u = lat.SpinorField(self.c0.geom, v, self.c0.u.kind)
        a = lat.ConnectionField(self.c0.geom, self.c0.group, b)
        return Configuration(a, u)

    def gauge_map(self, cvec):
        return dfm.lin_gauge(self.config_at(cvec))

    def gauge_map_diff(self, cvec, wvec):
        # D depends on the configuration through u alone, linearly; the
        # link block (d xi) is configuration independent.
        _, w_v = self.tan_space.unpack(wvec)
        surrogate = self.config_at(self.tan_space.pack(None, w_v))
        mat = dfm.lin_gauge(surrogate).matrix.copy()
        mat[: self.tan_space.n_links, :] = 0.0
        return mat

    def equation_rows(self, cvec):
        cfg = self.config_at(cvec)
        return dfm.residual_rowvec(cfg, self.s, self.eq_space)

    def equation_map(self, cvec):
        return dfm.linearize_fsw(self.config_at(cvec))

    def equation_second(self, cvec, t1, t2):
        cfg = self.config_at(cvec)
        tc1 = dfm.unpack_tangent(self.tan_space, t1)
        tc2 = dfm.unpack_tangent(self.tan_space, t2)
        return dfm.second_derivative_rows(cfg, tc1, tc2, self.eq_space)


class HopfFixtureSystem(QuotientSystem):
    """Flat C^2 = H with the right U(1) phase action, plus a level set.

    The quotient of the punctured space is the metric cone over the
    half-radius two-sphere: a horizontal plane at |q| = 1 has sectional
    curvature 3.  The level set rho0 = 1/2 is the unit three-sphere
    whose quotient is the half-radius two-sphere with curvature 4.
    Both values are closed-form anchors for the dual-route check.
    """

    def __init__(self, with_level_set=True):
        self.with_level_set = with_level_set
        self.tan_space = BlockSpace([("spinor", 4, 1.0)])
        self.gauge_space = BlockSpace([("gauge", 1, 1.0)])
        self.eq_space = BlockSpace([("level", 1 if with_level_set else 0, 1.0)])

    def center(self):
        return np.array([1.0, 0.0, 0.0, 0.0])

    def gauge_map(self, cvec):
        col = -quat.mul(cvec, quat.QI)
        return LinearMap(col[:, None], self.tan_space, self.gauge_space)

    def gauge_map_diff(self, cvec, wvec):
        return -quat.mul(wvec, quat.QI)[:, None]

    def equation_rows(self, cvec):
        if not self.with_level_set:
            return np.zeros(0)
        return np.array([0.5 * (float(cvec @ cvec) - 1.0)])

    def equation_map(self, cvec):
        mat = cvec[None, :] if self.with_level_set else np.zeros((0, 4))
        return LinearMap(mat, self.eq_space, self.tan_space)

    def equation_second(self, cvec, t1, t2):
        if not self.with_level_set:
            return np.zeros(0)
        return np.array([float(t1 @ t2)])


# ---------------------------------------------------------------------------
# pipeline route


def horizontal_projector(system: QuotientSystem, cvec):
    """Return a callable projecting tangent columns onto ker(D*)."""
    d = system.gauge_map(cvec)
    if d.col_space.dim == 0:
        return lambda t: np.array(t, dtype=float, copy=True)
    return lambda t: t - d.apply(d.pinv_apply(t))  # a vector or a column stack: t - D D^+ t


def a_term(system: QuotientSystem, cvec, xvec, yvec):
    """(d_x D)* y in the gauge Lie algebra block."""
    dd = system.gauge_map_diff(cvec, xvec)
    w_t = system.tan_space.weights
    w_g = system.gauge_space.weights
    return (dd.T @ (w_t * yvec)) / np.where(w_g > 0, w_g, 1.0)


def vertical_bracket_vec(system: QuotientSystem, cvec, t1, t2):
    """Vertical part of the bracket of horizontal extensions of t1, t2.

    Computed as (D*)^+ [(d_{t2} D)* t1 - (d_{t1} D)* t2], which is
    D (D* D)^+ applied to that gauge-algebra element: twice the
    submersion A-tensor; manifestly antisymmetric, vanishing for the
    trivial group.
    """
    d = system.gauge_map(cvec)
    if d.col_space.dim == 0:
        return np.zeros(system.tan_space.dim)
    omega = a_term(system, cvec, t2, t1) - a_term(system, cvec, t1, t2)
    return d.adjoint().pinv_apply(omega)


def _plane_normalize(space: BlockSpace, v, w):
    gvv = space.inner(v, v)
    gww = space.inner(w, w)
    gvw = space.inner(v, w)
    det = gvv * gww - gvw**2
    if det <= 0:
        raise ValueError("degenerate tangent plane")
    if abs(gvv - 1) > 1e-9 or abs(gww - 1) > 1e-9 or abs(gvw) > 1e-9:
        warnings.warn("plane not orthonormal; normalizing by the Gram determinant")
    return det


def oneill_sectional_vec(system: QuotientSystem, cvec, v, w):
    """Sectional curvature of the quotient at the horizontal plane (v, w)."""
    det = _plane_normalize(system.tan_space, v, w)
    vb = vertical_bracket_vec(system, cvec, v, w)
    bracket_sq = system.tan_space.inner(vb, vb)
    k_c = 0.0  # <Rm^C(v, w) w, v> vanishes: the ambient metric is constant
    return {
        "K_C": k_c,
        "bracket_norm_sq": bracket_sq,
        "K_B": (k_c + 0.75 * bracket_sq) / det,
    }


def second_fundamental_vec(system: QuotientSystem, cvec, v, w):
    """Second fundamental form of the solution set inside the quotient.

    Pi(v, w) = -E^+ B(v, w) = -E* (E E*)^+ B(v, w) with E the
    linearized equations and B the exact mixed second derivative of the
    equation map; without equation rows it is zero.
    """
    return -system.equation_map(cvec).pinv_apply(system.equation_second(cvec, v, w))


def gauss_sectional_vec(system: QuotientSystem, cvec, v, w):
    """Sectional curvature of the solution set via O'Neill plus Gauss.

    K_M = K_B + <Pi(v,v), Pi(w,w)> - |Pi(v,w)|^2 on an orthonormal
    plane tangent to the solution set (the Gauss-equation signs follow
    the convention fixed by the finite-difference oracle and the round
    sphere fixture).
    """
    det = _plane_normalize(system.tan_space, v, w)
    base = oneill_sectional_vec(system, cvec, v, w)
    pairs = ((v, v), (w, w), (v, w))
    b = np.stack([system.equation_second(cvec, x, y) for x, y in pairs], axis=1)
    pi_vv, pi_ww, pi_vw = (-system.equation_map(cvec).pinv_apply(b)).T
    inner = system.tan_space.inner
    gauss = inner(pi_vv, pi_ww) - inner(pi_vw, pi_vw)
    return dict(base, gauss_terms=gauss / det, K_M=base["K_B"] + gauss / det)


# ---------------------------------------------------------------------------
# finite-difference oracle


def fd_oracle_curvature(metric_fn, dim, eps=1e-3):
    """Sectional curvature of the chart plane (coords 0, 1) by brute force.

    Central differences of the chart metric coefficients give the
    second-order Taylor data; Christoffel symbols of the first kind are
    assembled and contracted.  No Green operators, no submersion
    formulas.  The step is halved once and the two estimates
    Richardson-combined; a large mismatch raises, flagging cancellation
    (step too small) or a too-coarse step.
    """

    def estimate(e):
        g0 = np.asarray(metric_fn(np.zeros(dim)))
        ginv = np.linalg.inv(g0)
        ev = np.zeros(dim)
        ev[0] = e
        ew = np.zeros(dim)
        ew[1] = e

        g_pv, g_mv = np.asarray(metric_fn(ev)), np.asarray(metric_fn(-ev))
        g_pw, g_mw = np.asarray(metric_fn(ew)), np.asarray(metric_fn(-ew))
        g_pp = np.asarray(metric_fn(ev + ew))
        g_pm = np.asarray(metric_fn(ev - ew))
        g_mp = np.asarray(metric_fn(-ev + ew))
        g_mm = np.asarray(metric_fn(-ev - ew))

        dg_v = (g_pv - g_mv) / (2 * e)
        dg_w = (g_pw - g_mw) / (2 * e)
        d2_vv = (g_pv - 2 * g0 + g_mv) / e**2
        d2_ww = (g_pw - 2 * g0 + g_mw) / e**2
        d2_vw = (g_pp - g_pm - g_mp + g_mm) / (4 * e**2)

        # gradient of the three plane coefficients along every direction
        grad_vv = np.zeros(dim)
        grad_ww = np.zeros(dim)
        grad_vw = np.zeros(dim)
        for k in range(dim):
            if k == 0:
                gp, gm = g_pv, g_mv
            elif k == 1:
                gp, gm = g_pw, g_mw
            else:
                ek = np.zeros(dim)
                ek[k] = e
                gp, gm = np.asarray(metric_fn(ek)), np.asarray(metric_fn(-ek))
            grad_vv[k] = (gp[0, 0] - gm[0, 0]) / (2 * e)
            grad_ww[k] = (gp[1, 1] - gm[1, 1]) / (2 * e)
            grad_vw[k] = (gp[0, 1] - gm[0, 1]) / (2 * e)

        gamma_vv = dg_v[0, :] - 0.5 * grad_vv
        gamma_ww = dg_w[1, :] - 0.5 * grad_ww
        gamma_vw = 0.5 * (dg_v[1, :] + dg_w[0, :] - grad_vw)

        num = (
            d2_vw[0, 1]
            - 0.5 * (d2_vv[1, 1] + d2_ww[0, 0])
            + gamma_vw @ ginv @ gamma_vw
            - gamma_vv @ ginv @ gamma_ww
        )
        det = g0[0, 0] * g0[1, 1] - g0[0, 1] ** 2
        return num / det

    k1 = estimate(eps)
    k2 = estimate(eps / 2)
    richardson = (4 * k2 - k1) / 3.0
    spread = abs(k1 - k2)
    scale = max(abs(richardson), 1.0)
    if spread > 0.2 * scale:
        raise ArithmeticError(
            "finite-difference curvature did not converge under step halving "
            "(%.3e vs %.3e); adjust eps" % (k1, k2)
        )
    return richardson


def slice_chart_metric(system: QuotientSystem, cvec, v, w):
    """(metric_fn, dim) for the quotient pulled back to the gauge slice.

    The chart point xi maps to cvec + basis @ xi; the metric entry is
    the inner product of horizontally-projected basis vectors at the
    moved configuration.  Basis vector 0 is v, vector 1 is w.
    """
    slice_basis = system.gauge_map(cvec).adjoint().kernel_basis()
    basis = dfm._complete_plane_basis(system.tan_space, v, w, slice_basis)
    wts = system.tan_space.weights

    def metric_fn(xi):
        cv = cvec + basis @ np.asarray(xi, dtype=float)
        proj = horizontal_projector(system, cv)
        bh = proj(basis)
        return bh.T @ (bh * wts[:, None])

    return metric_fn, basis.shape[1]


def solution_chart_metric(system, cvec, v, w, newton_tol=1e-12, max_iter=80):
    """(metric_fn, dim) for the solution set in its kernel chart.

    Chart coordinates xi run over ker(elliptic operator) with v, w as
    the leading basis vectors; the chart point solves the equations in
    the gauge slice, orthogonal to the kernel.  The chart differential
    is obtained from the linearized equations at the solved point, and
    the metric is the quotient (horizontally projected) inner product.
    A plane outside ker(elliptic operator) raises ValueError; metric_fn
    raises RuntimeError unless the chart Newton converges with the full
    equation rows within newton_tol.
    """
    frame = dfm.ChartFrame(system.equation_map(cvec), system.gauge_map(cvec), lead=(v, w))
    basis, w_basis = frame.kernel, frame.w_basis
    wts = system.tan_space.weights

    def metric_fn(xi):
        base = cvec + basis @ np.asarray(xi, dtype=float)
        cv, r, info = frame.newton(system.equation_rows, base, newton_tol, max_iter)
        if not info["converged"] or frame.eq.row_space.norm(r) > newton_tol:
            raise RuntimeError("solution chart Newton did not converge")
        e_here = system.equation_map(cv)
        red = e_here.matrix @ w_basis
        rhs = -(e_here.matrix @ basis)
        dy, *_ = np.linalg.lstsq(red, rhs, rcond=None)
        dphi = basis + w_basis @ dy
        proj = horizontal_projector(system, cv)
        dphi_h = proj(dphi)
        return dphi_h.T @ (dphi_h * wts[:, None])

    return metric_fn, basis.shape[1]


# ---------------------------------------------------------------------------
# lattice-facing wrappers


def l2_inner(c: Configuration, t1: TangentConfig, t2: TangentConfig):
    """h^4-weighted metric on configuration tangents (links + spinors)."""
    space = dfm.layout(c.geom, c.group).tangent
    return space.inner(dfm.pack_tangent(space, t1), dfm.pack_tangent(space, t2))


def horizontal_project(c: Configuration, t: TangentConfig) -> TangentConfig:
    """Project onto ker(D*): t - D D^+ t."""
    sys_ = LatticeSystem(c, Sources.zero(c.geom))
    proj = horizontal_projector(sys_, sys_.center())
    vec = proj(dfm.pack_tangent(sys_.tan_space, t))
    return dfm.unpack_tangent(sys_.tan_space, vec)


def omega_form(c: Configuration, v, w):
    """Gauge-algebra valued two-form on spinor tangents.

    <Omega_u(w, v), xi> = g(nabla_w K_xi|_u, v); for U(1) on the flat
    chart the value at a site is <w i, v>.  Antisymmetric, independent
    of u, zero for the trivial group.
    """
    if c.group is GaugeGroup.TRIVIAL:
        return np.zeros(c.geom.dims)
    return np.sum(quat.mul(np.asarray(w, float), quat.QI) * np.asarray(v, float), axis=-1)


# ---------------------------------------------------------------------------
# sampling and CSV emission


def sample_solution_plane(system: QuotientSystem, cvec, seed, n_planes=1):
    """Orthonormal plane pairs tangent to the solution set at cvec."""
    h1 = dfm.stacked_op(system.equation_map(cvec), system.gauge_map(cvec)).kernel_basis()
    if h1.shape[1] < 2:
        raise ValueError("solution-set tangent space has dimension < 2")
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(n_planes):
        x = h1 @ rng.normal(size=h1.shape[1])
        y = h1 @ rng.normal(size=h1.shape[1])
        planes.append(_orthonormal_pair(system.tan_space, x, y))
    return planes


def sample_horizontal_plane(system: QuotientSystem, cvec, seed):
    """An orthonormal horizontal plane at cvec."""
    rng = np.random.default_rng(seed)
    proj = horizontal_projector(system, cvec)
    x = proj(rng.normal(size=system.tan_space.dim))
    y = proj(rng.normal(size=system.tan_space.dim))
    return _orthonormal_pair(system.tan_space, x, y)


def _orthonormal_pair(space: BlockSpace, x, y):
    """Gram-Schmidt of (x, y) in the space's weighted metric."""
    x = x / space.norm(x)
    y = y - x * space.inner(x, y)
    return x, y / space.norm(y)


CSV_FIELDS = (
    "sample_id",
    "K_C",
    "bracket_norm_sq",
    "K_B",
    "gauss_terms",
    "K_M",
    "oracle_K",
    "rel_err",
)


def write_samples_csv(path, samples):
    """Emit curvature samples with the documented column set."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for row in samples:
            out = {}
            for k in CSV_FIELDS:
                v = row[k]
                out[k] = repr(float(v)) if isinstance(v, (float,)) or hasattr(v, "dtype") else v
            writer.writerow(out)
