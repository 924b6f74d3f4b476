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
    Stencil,
)
from .targets import GaugeGroup, TargetKind, moment_values


@dataclass
class Configuration:
    a: ConnectionField
    u: SpinorField

    def __post_init__(self):
        if self.a.geom is not self.u.geom and self.a.geom != self.u.geom:
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


def residual(c: Configuration, s: Sources, stencil=Stencil.FORWARD):
    """(D_A u - psi, F^+ + Phi_4(u) - eta), evaluated at every site."""
    dirac_row = lat.dirac(c.u, c.a, stencil) - s.psi
    fplus = lat.selfdual(lat.plaquette_curvature(c.a))
    sd_row = fplus.values + phi4(c.u, c.group).values - s.eta.values
    return dirac_row, SelfDualForm(c.geom, sd_row)


def residual_norm(c: Configuration, s: Sources, stencil=Stencil.FORWARD):
    """L2 norm of the residual over the trusted equation rows."""
    dirac_row, sd_row = residual(c, s, stencil)
    dm, sm = row_masks(c.geom)
    h4 = c.geom.h**4
    total = float(np.sum((dirac_row**2) * dm[..., None]) * h4)
    total += float(2.0 * np.sum((sd_row.values**2) * sm[..., None]) * h4)
    return np.sqrt(total)


def manufacture(c: Configuration, stencil=Stencil.FORWARD) -> Sources:
    """Sources that make c an exact solution: psi = D_A u, eta = F^+ + Phi_4."""
    psi = lat.dirac(c.u, c.a, stencil)
    fplus = lat.selfdual(lat.plaquette_curvature(c.a))
    eta = SelfDualForm(c.geom, fplus.values + phi4(c.u, c.group).values)
    return Sources(psi, eta)


def sources_save(path, s: Sources, geom: LatticeGeom):
    """Write sources in the snapshot JSON format (header + flat arrays)."""
    import json

    payload = {
        "header": {"dims": list(geom.dims), "h": geom.h, "topology": geom.topology.value},
        "psi": s.psi.reshape(-1).tolist(),
        "eta": s.eta.values.reshape(-1).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def sources_load(path, geom: LatticeGeom) -> Sources:
    import json

    with open(path) as fh:
        payload = json.load(fh)
    if tuple(payload["header"]["dims"]) != geom.dims:
        raise ValueError("sources snapshot dims mismatch")
    psi = np.array(payload["psi"], dtype=float).reshape(geom.dims + (4,))
    eta = np.array(payload["eta"], dtype=float).reshape(geom.dims + (3,))
    return Sources(psi, SelfDualForm(geom, eta))


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
    """Sources rotate with the configuration: psi as an E- spinor, eta fixed."""
    if c.group is GaugeGroup.TRIVIAL:
        return s.copy()
    return Sources(quat.mul_exp_i(s.psi, -g.theta), SelfDualForm(s.eta.geom, s.eta.values.copy()))


def gauge_apply_spinor_row(g: GaugeElement, row):
    """Rotate an E--valued site field (e.g. a Dirac-row residual)."""
    return quat.mul_exp_i(row, -g.theta)


def gauge_compose(g1: GaugeElement, g2: GaugeElement) -> GaugeElement:
    return GaugeElement(g1.geom, g1.theta + g2.theta)


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

    Each step solves the least-squares system
        [ D F_sw ; D* ] step = [ -residual ; 0 ]
    at the current iterate and updates the configuration additively
    (flat targets).  Returns (configuration, diagnostics) where the
    diagnostics are one dict per iteration: iter, residual_norm,
    step_norm, rank; the rank of each step's system is recorded, not
    checked.  Raises NewtonError when max_iter is exhausted.
    """
    from . import deformation as dfm

    c = init.copy()
    diagnostics = []
    res = residual_norm(c, sources)
    diagnostics.append({"iter": 0, "residual_norm": res, "step_norm": 0.0, "rank": -1})
    if res <= tol:
        return c, diagnostics

    for it in range(1, max_iter + 1):
        e, d = dfm.linearize_fsw(c), dfm.lin_gauge(c)
        op = dfm.stacked_op(e, d)
        dof = op.col_space
        rhs = -np.concatenate([
            dfm.residual_rowvec(c, sources, e.row_space), np.zeros(d.col_space.dim)
        ])
        rank, _ = op.rank()
        step = op.pinv_apply(rhs)
        b_step, v_step = dof.unpack(step)
        if c.group is not GaugeGroup.TRIVIAL:
            c.a.links += b_step
        c.u.values = c.u.values + v_step
        res = residual_norm(c, sources)
        step_norm = float(np.sqrt(np.sum(step * step * dof.weights)))
        diagnostics.append(
            {"iter": it, "residual_norm": res, "step_norm": step_norm, "rank": int(rank)}
        )
        if res <= tol:
            return c, diagnostics
    raise NewtonError(
        f"no convergence after {max_iter} iterations (residual {res:.3e})", diagnostics
    )
