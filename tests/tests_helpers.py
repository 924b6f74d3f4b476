"""Shared helpers for the heavier suites."""

import numpy as np

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
