"""Shared helpers for the heavier suites."""

import numpy as np

from gswlab import deformation as dfm, frequency as fq, gsw
from gswlab.gsw import Configuration
from gswlab.lattice import ConnectionField, LatticeGeom, SpinorField, Topology
from gswlab.targets import GaugeGroup


def interior_sup(geom, f, margin_phys=0.25):
    """Sup over the interior at a fixed physical margin from the faces."""
    cells = int(np.ceil(margin_phys / geom.h))
    mask = np.ones(geom.dims, bool)
    for ax in range(4):
        sl = [slice(None)] * 4
        sl[ax] = slice(cells, geom.dims[ax] - cells)
        m = np.zeros(geom.dims, bool)
        m[tuple(sl)] = True
        mask &= m
    return float(np.abs(np.asarray(f)[mask]).max())


def full_distances(geom, center):
    """Reference: min-image distance of every site to center, from the coordinate grid."""
    x = geom.coords() - np.asarray(center)
    if geom.topology is Topology.TORUS:
        period = np.asarray(geom.dims) * geom.h
        x -= period * np.round(x / period)
    return np.sqrt(np.sum(x**2, axis=-1))


def full_window_sum(geom, f, spec):
    """Reference ball sum: the partial-cell window on the whole lattice, summed against f."""
    w = np.clip((spec.radius - full_distances(geom, spec.center)) / geom.h + 0.5, 0.0, 1.0)
    return float(np.sum(f * w) * geom.h**4)


def smooth_u1_box_config(n):
    """Half-period smooth U(1) data on a unit box (asymptotic regime)."""
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


def box_fueter_config(n):
    """u = z1 + offset on an n^4 unit box: an exact U(1) solution with psi = 0, and its sources."""
    geom = LatticeGeom((n,) * 4, 1.0 / n, Topology.BOX)
    u = fq.fueter_library(geom, "z1")
    vals = u.values.copy()
    vals[..., 0] += 0.8
    vals[..., 1] += 0.1
    c = Configuration(ConnectionField(geom, GaugeGroup.U1), SpinorField(geom, vals))
    return c, gsw.manufacture(c)


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
