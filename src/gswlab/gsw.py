"""The gauged nonlinear Dirac system and its manufactured-solution tools.

The residual of a configuration (A, u) against sources (psi, eta) is

    ( D_A u - psi,  F_a^+ + Phi_4(u) - eta )

with Phi_4 the moment map paired into the self-dual basis.  Gauge
transformations act by site phases; the residual is exactly equivariant
when psi = 0 (eta is invariant for abelian G), and transforms together
with gauge-rotated sources in general.

On a box, equation rows are only trusted where the forward stencil is
fully supported; `row_masks` exposes that support and all norms and
matrix assemblies respect it.
"""

from dataclasses import dataclass

import numpy as np

from . import lattice as lat
from . import quaternion as quat
from .lattice import (
    ConnectionField,
    LatticeGeom,
    SelfDualForm,
    SpinorField,
)
from .targets import GaugeGroup, TargetKind, moment_values


@dataclass
class Configuration:
    a: ConnectionField
    u: SpinorField

    def __post_init__(self):
        if self.a.geom != self.u.geom:
            raise ValueError("connection and spinor live on different lattices")

    @property
    def geom(self):
        return self.u.geom

    @property
    def group(self):
        return self.a.group

    def copy(self):
        return Configuration(self.a.copy(), self.u.copy())


@dataclass
class Sources:
    """Dirac-row source psi (zero by default) and curvature perturbation eta."""

    psi: np.ndarray
    eta: SelfDualForm

    @classmethod
    def zero(cls, geom: LatticeGeom):
        return cls(np.zeros(geom.dims + (4,)), SelfDualForm(geom, np.zeros(geom.dims + (3,))))

    def copy(self):
        return Sources(self.psi.copy(), SelfDualForm(self.eta.geom, self.eta.values.copy()))


@dataclass
class GaugeElement:
    """Site U(1) phases, stored through their angles."""

    geom: LatticeGeom
    theta: np.ndarray

    def __post_init__(self):
        self.theta = np.ascontiguousarray(self.theta, dtype=float)
        if self.theta.shape != self.geom.dims:
            raise ValueError("gauge angle shape does not match geometry")


def phi4(u: SpinorField, group: GaugeGroup) -> SelfDualForm:
    """Moment map paired with the self-dual basis eta_l.

    Component l is half the moment value against the unit imaginary
    zeta_l (the factor converts the |eta_l|^2 = 2 pairing into eta-basis
    coefficients); quadratic in u and invariant under the gauge action.
    """
    vals = 0.5 * moment_values(u.values, group)
    return SelfDualForm(u.geom, vals)


def phi4_diff(q, v, group: GaugeGroup):
    """Derivative of phi4 at spinor values q along v, as eta-coefficients.

    q and v are (..., 4) quaternion arrays that broadcast against each other.
    """
    from .targets import moment_values_diff

    return 0.5 * moment_values_diff(q, v, group)


def row_masks(geom: LatticeGeom):
    """(dirac_mask, selfdual_mask): sites whose equation rows are trusted."""
    m = lat.interior_site_mask(geom)
    return m, m


def residual(c: Configuration, s: Sources):
    """(D_A u - psi, F^+ + Phi_4(u) - eta), evaluated at every site (forward Dirac stencil)."""
    dirac_row = lat.dirac(c.u, c.a) - s.psi
    fplus = lat.selfdual(lat.plaquette_curvature(c.a))
    sd_row = fplus.values + phi4(c.u, c.group).values - s.eta.values
    return dirac_row, SelfDualForm(c.geom, sd_row)


def residual_norm(c: Configuration, s: Sources):
    """L2 norm of the residual over the trusted equation rows."""
    dirac_row, sd_row = residual(c, s)
    dm, sm = row_masks(c.geom)
    h4 = c.geom.h**4
    total = float(np.sum((dirac_row**2) * dm[..., None]) * h4)
    total += float(2.0 * np.sum((sd_row.values**2) * sm[..., None]) * h4)
    return np.sqrt(total)


def manufacture(c: Configuration) -> Sources:
    """Sources that make c an exact solution: psi = D_A u, eta = F^+ + Phi_4."""
    psi = lat.dirac(c.u, c.a)
    fplus = lat.selfdual(lat.plaquette_curvature(c.a))
    eta = SelfDualForm(c.geom, fplus.values + phi4(c.u, c.group).values)
    return Sources(psi, eta)


# ---------------------------------------------------------------------------
# gauge action


def gauge_apply(g: GaugeElement, c: Configuration) -> Configuration:
    """(A, u) -> (A + d theta, u e^{-i theta})."""
    geom = c.geom
    u_new = SpinorField(geom, quat.mul_exp_i(c.u.values, -g.theta), c.u.kind)
    if c.group is GaugeGroup.TRIVIAL:
        return Configuration(c.a.copy(), u_new)
    links = c.a.links + lat.d_site(geom, g.theta)
    return Configuration(ConnectionField(geom, c.group, links), u_new)


def gauge_apply_sources(g: GaugeElement, c: Configuration, s: Sources) -> Sources:
    """Sources rotate with the configuration: psi as an E- spinor, eta fixed.  With `gauge_apply_spinor_row`,
    the reference side of the residual's gauge equivariance: residual(g c, g s) = g residual(c, s)."""
    if c.group is GaugeGroup.TRIVIAL:
        return s.copy()
    return Sources(quat.mul_exp_i(s.psi, -g.theta), SelfDualForm(s.eta.geom, s.eta.values.copy()))


def gauge_apply_spinor_row(g: GaugeElement, row):
    """Rotate an E--valued site field (e.g. a Dirac-row residual), as `gauge_apply_sources` rotates psi."""
    return quat.mul_exp_i(row, -g.theta)


def random_gauge(geom: LatticeGeom, seed, amplitude=1.0) -> GaugeElement:
    rng = np.random.default_rng(seed)
    return GaugeElement(geom, amplitude * rng.normal(size=geom.dims))


def random_config(
    geom: LatticeGeom,
    group=GaugeGroup.U1,
    kind=TargetKind.FLAT_H,
    seed=0,
    amplitude=1.0,
    offset=1.0,
) -> Configuration:
    """Smooth-ish random configuration for manufactured-solution tests."""
    rng = np.random.default_rng(seed)
    u_vals = offset * np.ones(geom.dims + (4,)) * quat.ONE
    u_vals = u_vals + amplitude * rng.normal(size=geom.dims + (4,))
    u = SpinorField(geom, u_vals, kind)
    if group is GaugeGroup.TRIVIAL:
        return Configuration(ConnectionField(geom), u)
    links = amplitude * rng.normal(size=geom.dims + (4,))
    return Configuration(ConnectionField(geom, group, links), u)


# ---------------------------------------------------------------------------
# slice-constrained Newton solver


class NewtonError(RuntimeError):
    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


def solve_newton(
    init: Configuration,
    sources: Sources,
    tol=1e-10,
    max_iter=20,
):
    """Newton iteration on the residual augmented with the gauge slice.

    Each step is the minimum-norm least-squares solution of
        [ D F_sw ; D* ] step = [ -residual ; 0 ]
    re-linearised at the current iterate, which is init moved additively
    (flat targets) by the sum of the steps.  It is matrix-free: LSQR on
    the Jacobian's triplets (`LinearMap.lsqr_apply`), on a torus
    right-preconditioned by the FFT-diagonal M^(-1/2) of
    `deformation.fourier_preconditioner`, so no lattice size limit applies
    there.  The step is then still the minimum-norm one wherever the
    stacked map is injective, at u = 0, and wherever the system is
    inconsistent (see `deformation.lsqr`, also for the norms its stop test
    reads).  The loop and its
    stop rule are `deformation.newton` on the trusted equation rows.
    Returns (configuration, diagnostics), one dict per iterate: iter,
    residual_norm, step_norm and lsqr_iters (those of the step that
    reached it, 0 at the start).  Raises NewtonError with the diagnostics
    so far, naming the stop status ("diverged", "max_iter", or
    "lsqr_max_iter" when an LSQR step passes its iteration cap), unless
    the residual norm reaches tol.
    """
    from . import deformation as dfm

    lay = dfm.layout(init.geom, init.group)
    lsqr_iters = [0]

    def rows_at(x):
        return dfm.residual_rowvec(dfm.moved(init, x), sources, lay.equations)

    def step(x, r):
        c = dfm.moved(init, x)
        d = dfm.lin_gauge(c)
        dx, iters = dfm.stacked_op(dfm.linearize_fsw(c), d).lsqr_apply(
            -np.concatenate([r, np.zeros(d.col_space.dim)]), dfm.fourier_preconditioner(c)
        )
        lsqr_iters.append(iters)
        return dx

    cause = None
    try:
        x, _, diagnostics, status = dfm.newton(
            rows_at, step, np.zeros(lay.tangent.dim), tol, max_iter, lay.equations.norm, lay.tangent.norm
        )
    except np.linalg.LinAlgError as err:  # an LSQR step past LSQR_MAX_ITER
        diagnostics, status, cause = err.records, "lsqr_max_iter", err
    for record, iters in zip(diagnostics, lsqr_iters):
        record["lsqr_iters"] = iters
    if status != "converged":
        raise NewtonError(
            f"no convergence ({status}) after {len(diagnostics) - 1} steps "
            f"(residual {diagnostics[-1]['residual_norm']:.3e})",
            diagnostics,
        ) from cause
    return dfm.moved(init, x), diagnostics
