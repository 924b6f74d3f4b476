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

import warnings

import numpy as np

from . import deformation as dfm
from . import lattice as lat
from . import quaternion as quat
from .deformation import (
    BlockSpace,
    LinearMap,
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
    arbitrary configuration vector (flat chart coordinates).  `gauge_map`,
    `equation_rows` and `equation_map` also take a stack of configuration
    vectors (k, n) and return the stack of their values or maps.
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
        tc1 = dfm.TangentConfig(*self.tan_space.unpack(t1))
        tc2 = dfm.TangentConfig(*self.tan_space.unpack(t2))
        return dfm.second_derivative_rows(cfg, tc1, tc2, self.eq_space)


class HopfFixtureSystem(QuotientSystem):
    """Flat C^2 = H with the right U(1) phase action, plus a level set.

    The quotient of the punctured space is the metric cone over the
    half-radius two-sphere: a horizontal plane at |q| = 1 has sectional
    curvature 3.  The level set rho0 = 1/2 is the unit three-sphere
    whose quotient is the half-radius two-sphere with curvature 4.
    Both values are closed-form anchors for the dual-route check.
    """

    def __init__(self):
        self.tan_space = BlockSpace([("spinor", 4, 1.0)])
        self.gauge_space = BlockSpace([("gauge", 1, 1.0)])
        self.eq_space = BlockSpace([("level", 1, 1.0)])

    def center(self):
        return np.array([1.0, 0.0, 0.0, 0.0])

    def gauge_map(self, cvec):
        """D xi = -(q i) xi as triplets, one per tangent row; at a stack of points the values carry its axes."""
        triplets = (np.arange(4), np.zeros(4, int), -quat.mul(cvec, quat.QI))
        return LinearMap(None, self.tan_space, self.gauge_space, [triplets])

    def gauge_map_diff(self, cvec, wvec):
        return -quat.mul(wvec, quat.QI)[:, None]

    def equation_rows(self, cvec):
        return 0.5 * (np.sum(cvec * cvec, axis=-1, keepdims=True) - 1.0)

    def equation_map(self, cvec):
        return LinearMap(cvec[..., None, :], self.eq_space, self.tan_space)

    def equation_second(self, cvec, t1, t2):
        return np.array([float(t1 @ t2)])


# ---------------------------------------------------------------------------
# pipeline route


def horizontal_projector(system: QuotientSystem, cvec):
    """Return a callable projecting tangent columns onto ker(D*): t - D D^+ t.

    It is `D.range_projector()`, one small normal system D* D per point, summed
    from D's triplets (L0 + diag |u|^2 in unit weights) with no dense D: a
    reducible configuration (D not injective) raises LinAlgError; the trivial
    group (no gauge columns) gives a copy.  At a stack of points cvec (k, n)
    the callable projects the same t, or each point's own t of a stack
    (k, n, c), at each point and returns a stack.
    """
    return system.gauge_map(cvec).range_projector()


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
    equation map; without equation rows it is zero.  Column stacks v, w
    (n, k) give one column per pair (v[:, j], w[:, j]), in one solve.
    """
    b = (np.stack([system.equation_second(cvec, x, y) for x, y in zip(v.T, w.T)], axis=1) if np.ndim(v) == 2
         else system.equation_second(cvec, v, w))
    return -system.equation_map(cvec).pinv_apply(b)


def gauss_sectional_vec(system: QuotientSystem, cvec, v, w):
    """Sectional curvature of the solution set via O'Neill plus Gauss.

    K_M = K_B + <Pi(v,v), Pi(w,w)> - |Pi(v,w)|^2 on an orthonormal
    plane tangent to the solution set (the Gauss-equation signs follow
    the convention fixed by the finite-difference oracle and the round
    sphere fixture).
    """
    det = _plane_normalize(system.tan_space, v, w)
    base = oneill_sectional_vec(system, cvec, v, w)
    pi_vv, pi_ww, pi_vw = second_fundamental_vec(system, cvec, np.stack([v, w, v], 1), np.stack([v, w, w], 1)).T
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

    metric_fn(xi, plane=False) takes a stack of chart points xi (k, dim)
    and returns their dim x dim chart metrics (k, dim, dim), or with
    plane=True only the leading 2x2 blocks (k, 2, 2).  Each step size
    makes two calls: the full matrices at xi = 0, +-e_0 and +-e_1 (5
    points), and the plane blocks at the diagonal points +-e_0 +- e_1 and
    the gradient points +-e_k, k >= 2 (4 + 2 (dim - 2) points).
    """

    def estimate(e):
        steps = e * np.eye(dim)
        ev, ew = steps[0], steps[1]
        full = np.asarray(metric_fn(np.stack([np.zeros(dim), ev, -ev, ew, -ew])))
        g0, g_pv, g_mv, g_pw, g_mw = full
        ginv = np.linalg.inv(g0)
        grad_pts = np.stack([steps[2:], -steps[2:]], axis=1).reshape(-1, dim)
        plane_pts = np.concatenate([np.stack([ev + ew, ev - ew, -ev + ew, -ev - ew]), grad_pts])
        blocks = np.asarray(metric_fn(plane_pts, plane=True))[:, :2, :2]
        g_pp, g_pm, g_mp, g_mm = blocks[:4]

        dg_v = (g_pv - g_mv) / (2 * e)
        dg_w = (g_pw - g_mw) / (2 * e)
        d2_vv = (g_pv - 2 * g0 + g_mv) / e**2
        d2_ww = (g_pw - 2 * g0 + g_mw) / e**2
        d2_vw = (g_pp - g_pm - g_mp + g_mm) / (4 * e**2)

        # plane block of the metric gradient along every direction
        grad = np.concatenate([full[1:4:2, :2, :2] - full[2:5:2, :2, :2], blocks[4::2] - blocks[5::2]]) / (2 * e)
        grad_vv, grad_ww, grad_vw = grad[:, 0, 0], grad[:, 1, 1], grad[:, 0, 1]

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
    if not spread <= 0.2 * scale:  # NaN fails too
        raise ArithmeticError(
            "finite-difference curvature did not converge under step halving "
            "(%.3e vs %.3e); adjust eps" % (k1, k2)
        )
    return richardson


#: chunk budget of a stacked metric evaluation, in bytes of each point's largest dense
#: temporary (tangent x max(equation rows, metric columns) doubles) summed over the chunk
CHUNK_BYTES = 8_000_000
#: full equation-row norm every solution-chart point must reach
CHART_NEWTON_TOL = 1e-12


def _in_chunks(chunk_metric, xi, system, n_cols):
    """chunk_metric over a stack of chart points, cut into chunks.

    The gauge map is applied from its triplets, so the largest dense array a
    point still forms is tangent by k doubles, k the wider of the equation rows
    (its stacked E) and the n_cols metric columns (its projected columns); a
    chunk holds as many points as fit CHUNK_BYTES of it, at least one.  A
    single point (dim,) is a stack of one and gives one matrix.
    """
    xi = np.asarray(xi, dtype=float)
    pts = xi.reshape(-1, xi.shape[-1])
    per_point = np.dtype(float).itemsize * system.tan_space.dim * max(system.eq_space.dim, n_cols)
    size = max(1, CHUNK_BYTES // per_point)
    out = []
    for lo in range(0, len(pts), size):
        g = chunk_metric(pts[lo : lo + size])
        out.append(np.broadcast_to(g, (min(size, len(pts) - lo),) + g.shape[-2:]))
    out = np.concatenate(out)
    return out.reshape(xi.shape[:-1] + out.shape[1:])


def _lstsq(a, b):
    """Minimum-norm least-squares solutions of a stack of systems a x = b.

    Singular values at or below `np.linalg.lstsq`'s default cutoff,
    eps max(m, n) s_max, are dropped as it drops them.  Each square system
    that keeps every singular value is solved by LU, every other one from its
    SVD, so a system's solution does not depend on the rest of its stack.
    """
    cutoff = np.finfo(float).eps * max(a.shape[-2:])
    lu = np.zeros(a.shape[:-2], bool)
    if a.shape[-1] == a.shape[-2]:
        s = np.linalg.svd(a, compute_uv=False)
        lu = s[..., -1] > cutoff * s[..., 0]
    x = np.empty(a.shape[:-2] + (a.shape[-1], b.shape[-1]))
    if lu.any():
        x[lu] = np.linalg.solve(a[lu], b[lu])
    if not lu.all():
        u, s, vt = np.linalg.svd(a[~lu], full_matrices=False)
        keep = s > cutoff * s[..., :1]
        s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
        x[~lu] = np.swapaxes(vt, -1, -2) @ (s_inv[..., None] * (np.swapaxes(u, -1, -2) @ b[~lu]))
    return x


def slice_chart_metric(system: QuotientSystem, cvec, v, w):
    """(metric_fn, dim) for the quotient pulled back to the gauge slice.

    The chart point xi maps to cvec + basis @ xi; the metric entry is
    the inner product of horizontally-projected basis vectors at the
    moved configuration.  Basis vector 0 is v, vector 1 is w; with
    plane=True only those two.  metric_fn takes one point (dim,) or a
    stack (k, dim), evaluated in chunks of CHUNK_BYTES (see `_in_chunks`),
    each one stacked projector over the chunk.
    A reducible cvec raises LinAlgError here, a plane outside the gauge
    slice ker D* ValueError; a reducible chart point raises it from metric_fn.
    """
    d = system.gauge_map(cvec)
    d.range_projector()  # rank loss ends the run before any oracle call
    wts = system.tan_space.weights
    basis = dfm._plane_led(d.adjoint().kernel_basis(), wts, v, w, "gauge slice")

    def metric_fn(xi, plane=False):
        cols = basis[:, :2] if plane else basis

        def chunk_metric(x):
            bh = horizontal_projector(system, cvec + x @ basis.T)(cols)
            return np.swapaxes(bh, -1, -2) @ (bh * wts[:, None])

        return _in_chunks(chunk_metric, xi, system, cols.shape[1])

    return metric_fn, basis.shape[1]


def solution_chart_metric(system, cvec, v, w, max_iter=80):
    """(metric_fn, dim) for the solution set in its kernel chart.

    Chart coordinates xi run over ker(elliptic operator) with v, w as
    the leading basis vectors; the chart point solves the equations in
    the gauge slice, orthogonal to the kernel.  The chart differential
    is obtained from the linearized equations at the solved point, and
    the metric is the quotient (horizontally projected) inner product; with
    plane=True only the leading two columns.  A reducible cvec raises
    LinAlgError here, a plane outside ker(elliptic operator) ValueError;
    metric_fn raises RuntimeError unless the chart Newton converges with
    the full equation rows within CHART_NEWTON_TOL.

    metric_fn takes one point (dim,) or a stack of points (k, dim) and
    returns (dim, dim) or (k, dim, dim) (2 x 2 with plane=True).  A stack
    is evaluated in chunks whose points' largest temporaries (a dense E or
    projected column stack per point) sum to at most CHUNK_BYTES (see
    `_in_chunks`): one chord Newton over the chunk (`ChartFrame.solve`, each
    point with its own stop rule), the stacked equation map, one stacked
    least-squares solve for the differential (its route chosen system by
    system) and the stacked projector, applied from the gauge maps' triplets.
    Any point that fails fails the call.
    """
    d = system.gauge_map(cvec)
    d.range_projector()  # rank loss ends the run before any oracle call
    frame = dfm.ChartFrame(system.equation_map(cvec), d, lead=(v, w))
    basis, w_basis = frame.kernel, frame.w_basis
    wts = system.tan_space.weights
    n_w = w_basis.shape[1]
    applied = {plane: np.hstack([w_basis, basis[:, :2] if plane else basis]) for plane in (False, True)}

    def metric_fn(xi, plane=False):
        cols = applied[plane][:, n_w:]

        def chunk_metric(x):
            cv, r, info = frame.solve(system.equation_rows, cvec + x @ basis.T, CHART_NEWTON_TOL, max_iter)
            if not info["converged"].all() or np.any(frame.eq.row_space.norm(r) > CHART_NEWTON_TOL):
                raise RuntimeError("solution chart Newton did not converge")
            e_here = system.equation_map(cv).apply(applied[plane])
            dy = _lstsq(e_here[..., :n_w], -e_here[..., n_w:])
            dphi_h = horizontal_projector(system, cv)(cols + w_basis @ dy)
            return np.swapaxes(dphi_h, -1, -2) @ (dphi_h * wts[:, None])

        return _in_chunks(chunk_metric, xi, system, cols.shape[1])

    return metric_fn, basis.shape[1]


# ---------------------------------------------------------------------------
# lattice-facing wrappers


def omega_form(c: Configuration, v, w):
    """Gauge-algebra valued two-form on spinor tangents.

    <Omega_u(w, v), xi> = g(nabla_w K_xi|_u, v); for U(1) on the flat
    chart the value at a site is <w i, v>.  Antisymmetric, independent
    of u, zero for the trivial group.  It is `a_term` in closed form:
    a_term(x, y) = -omega_form(c, y_v, x_v) at every site.
    """
    if c.group is GaugeGroup.TRIVIAL:
        return np.zeros(c.geom.dims)
    return np.sum(quat.mul(np.asarray(w, float), quat.QI) * np.asarray(v, float), axis=-1)


# ---------------------------------------------------------------------------
# sampling and the CSV columns


def sample_solution_plane(system: QuotientSystem, cvec, seed, n_planes=1):
    """Orthonormal plane pairs tangent to the solution set at cvec: tangent-space Gaussians
    projected onto the chart's kernel, so a change of kernel basis moves them only by rounding."""
    kernel = dfm.ChartFrame(system.equation_map(cvec), system.gauge_map(cvec)).kernel
    if kernel.shape[1] < 2:
        raise ValueError("solution-set tangent space has dimension < 2")
    rng = np.random.default_rng(seed)
    wts = system.tan_space.weights
    planes = []
    for _ in range(n_planes):
        x, y = (kernel @ (kernel.T @ (rng.normal(size=(2, wts.size)) * wts).T)).T
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
