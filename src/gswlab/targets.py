"""HyperKaehler target geometry: flat H and the punctured cone H*/Z2.

Both targets are flat open subsets of the quaternions.  The permuting
Sp(1) action is left multiplication, the complex structures act by left
multiplication (I_zeta v = zeta * v), and the gauge group G acts on the
right: trivial G carries no data, G = U(1) rotates q -> q * e^{i theta}.
These conventions are fixed once and validated by the invariant suite
(permuting identity, commutation, moment-map derivative oracle).

The moment map closed form mu_{zeta (x) xi}(q) = +1/2 xi <zeta, q i qbar>
was adopted after passing the finite-difference oracle for
d mu(v) = omega_zeta(K_xi, v); the oracle test is the authority.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import quaternion as quat

#: points closer to the cone tip than this are rejected
CONE_GUARD_RADIUS = 1e-9


class TargetKind(Enum):
    FLAT_H = "flat_h"
    CONE_H_MOD_Z2 = "cone_h_mod_z2"


class GaugeGroup(Enum):
    TRIVIAL = "trivial"
    U1 = "u1"


class ConeSingularityError(ValueError):
    """A point or segment came too close to the cone tip."""


def canonical_rep(q, kind):
    """Canonical +-q representative: first nonzero coordinate positive.

    Acts sitewise on arrays of shape (..., 4).  Flat targets are returned
    unchanged.
    """
    q = np.asarray(q, dtype=float)
    if kind is TargetKind.FLAT_H:
        return q.copy()
    n = quat.norm(q)
    if np.any(n <= CONE_GUARD_RADIUS):
        raise ConeSingularityError("point inside the cone guard radius")
    flat = q.reshape(-1, 4)
    nz = flat != 0.0
    first = np.argmax(nz, axis=-1)
    lead = flat[np.arange(flat.shape[0]), first]
    sign = np.where(lead < 0.0, -1.0, 1.0)
    return (flat * sign[:, None]).reshape(q.shape)


@dataclass(frozen=True)
class TargetPoint:
    """A point of the target, stored via its quaternion representative."""

    rep: np.ndarray
    kind: TargetKind = TargetKind.FLAT_H

    def __post_init__(self):
        object.__setattr__(self, "rep", canonical_rep(self.rep, self.kind))


@dataclass(frozen=True)
class TangentM:
    """Tangent vector at a TargetPoint, as a quaternion in the flat chart."""

    vec: np.ndarray
    base: TargetPoint

    def __post_init__(self):
        object.__setattr__(self, "vec", np.asarray(self.vec, dtype=float))


def _require_same_base(v, w):
    if v.base.kind is not w.base.kind or not np.array_equal(v.base.rep, w.base.rep):
        raise ValueError("tangent vectors live at different base points")


def omega(zeta, v: TangentM, w: TangentM) -> float:
    """HyperKaehler two-form omega_zeta(v, w) = g(v, I_zeta w)."""
    _require_same_base(v, w)
    return float(quat.inner(v.vec, quat.mul(zeta, w.vec)))


def fundamental_vector_sp1(zeta, p: TargetPoint) -> TangentM:
    """Generator of the permuting Sp(1) action: K_zeta|_p = zeta * p."""
    return TangentM(quat.mul(zeta, p.rep), p)


def fundamental_vector_g(group: GaugeGroup, xi, p: TargetPoint) -> TangentM:
    """Generator of the G action; U(1): K_xi|_p = p * (xi i), trivial: 0."""
    if group is GaugeGroup.TRIVIAL:
        return TangentM(np.zeros(4), p)
    return TangentM(quat.right_mul_i(p.rep, float(xi)), p)


def chi_map(zeta, zeta_p, p: TargetPoint) -> TangentM:
    """chi(zeta, zeta') = -I_{zeta'} K^{Sp(1)}_zeta = -zeta' zeta p."""
    return TangentM(-quat.mul(zeta_p, quat.mul(zeta, p.rep)), p)


def chi0(p: TargetPoint) -> TangentM:
    """Diagonal average of chi; evaluates to the Euler field q -> q."""
    acc = np.zeros(4)
    for z in quat.IM_BASIS:
        acc += chi_map(z, z, p).vec
    return TangentM(acc / 3.0, p)


def chi_components(p: TargetPoint):
    """Return (chi0, chi1, chi2): diagonal, antisymmetric, trace-free parts.

    chi is viewed as the 3x3 matrix of tangents M[a, b] = chi(zeta_a, zeta_b).
    """
    m = np.empty((3, 3, 4))
    for a, za in enumerate(quat.IM_BASIS):
        for b, zb in enumerate(quat.IM_BASIS):
            m[a, b] = chi_map(za, zb, p).vec
    diag = np.trace(m, axis1=0, axis2=1) / 3.0
    sym = 0.5 * (m + np.swapaxes(m, 0, 1))
    anti = 0.5 * (m - np.swapaxes(m, 0, 1))
    tracefree = sym - np.eye(3)[:, :, None] * diag[None, None, :]
    return diag, anti, tracefree


def rho0(p: TargetPoint) -> float:
    """HyperKaehler potential rho0 = |q|^2 / 2 = r^2 / 2."""
    return 0.5 * float(quat.norm2(p.rep))


def grad_rho0(p: TargetPoint) -> TangentM:
    return TangentM(p.rep.copy(), p)


def moment_map(p: TargetPoint, group: GaugeGroup):
    """Moment map at p, returned as an evaluator on (zeta, xi) pairs.

    The evaluator satisfies d mu_{zeta,xi}(v) = omega_zeta(K_xi, v); for the
    trivial group it is the zero map.
    """
    q = p.rep

    def evaluate(zeta, xi) -> float:
        if group is GaugeGroup.TRIVIAL:
            return 0.0
        w = quat.mul(quat.mul(q, quat.QI), quat.conj(q))
        return 0.5 * float(xi) * float(quat.inner(zeta, w))

    return evaluate


def moment_values(q, group: GaugeGroup):
    """mu paired with the unit imaginary basis, sitewise on (..., 4) arrays.

    Returns shape (..., 3): component l is mu_{zeta_l (x) 1}(q).
    """
    q = np.asarray(q, dtype=float)
    if group is GaugeGroup.TRIVIAL:
        return np.zeros(q.shape[:-1] + (3,))
    w = quat.mul(quat.mul(q, quat.QI), quat.conj(q))
    return 0.5 * w[..., 1:]


def moment_values_diff(q, v, group: GaugeGroup):
    """Derivative of moment_values at q along v, shape (..., 3)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    if group is GaugeGroup.TRIVIAL:
        return np.zeros(q.shape[:-1] + (3,))
    w = quat.mul(quat.mul(v, quat.QI), quat.conj(q))
    w = w + quat.mul(quat.mul(q, quat.QI), quat.conj(v))
    return 0.5 * w[..., 1:]


def _segment_min_norm(p, v):
    # min over t in [0,1] of |p + t v|
    a = float(quat.norm2(v))
    if a == 0.0:
        return float(quat.norm(p))
    t = -float(quat.inner(p, v)) / a
    t = min(1.0, max(0.0, t))
    return float(quat.norm(p + t * v))


def exp_map(p: TargetPoint, v: TangentM) -> TargetPoint:
    """Flat exponential exp_p(v) = p + v, canonicalized on the cone; a segment through the tip raises.
    With `log_map`, the reference side of log_p(exp_p(v)) = v, on the cone by its sign identification."""
    if p.kind is TargetKind.CONE_H_MOD_Z2:
        if _segment_min_norm(p.rep, v.vec) <= CONE_GUARD_RADIUS:
            raise ConeSingularityError("segment passes through the cone tip")
    return TargetPoint(p.rep + v.vec, p.kind)


def log_map(p: TargetPoint, q: TargetPoint) -> TangentM:
    """Inverse of exp_map; on the cone the representative of q nearest p."""
    if p.kind is not q.kind:
        raise ValueError("points live on different targets")
    rep = q.rep
    if p.kind is TargetKind.CONE_H_MOD_Z2:
        if quat.inner(rep, p.rep) < 0.0:
            rep = -rep
        v = rep - p.rep
        if _segment_min_norm(p.rep, v) <= CONE_GUARD_RADIUS:
            raise ConeSingularityError("segment passes through the cone tip")
        return TangentM(v, p)
    return TangentM(rep - p.rep, p)
