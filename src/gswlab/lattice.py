"""Discrete calculus on a flat 4-torus or 4-box.

Conventions
-----------
* Sites live at physical coordinates idx * h.  The torus has period
  n_i * h in direction i; the box spans [0, (n_i - 1) h].
* A connection is a link field a_i(x) on the link x -> x + e_i (empty
  for the trivial group, real-valued for U(1)).  Parallel transport of a
  fiber value from x + e_i back to x is right multiplication by
  e^{+i h a_i(x)}; gauge transforms shift links by the forward
  difference of the site angle.
* Forward and backward covariant differences are exact adjoints of each
  other under the h^4 site / link inner products; the Centered stencil
  is their average and is second-order accurate.
* Self-dual two-form basis: eta_l = dx^0 ^ dx^l + (1/2) eps_{lmn} dx^m ^ dx^n,
  so |eta_l|^2 = 2.  A self-dual field stores the three eta-basis
  coefficients per site.
* Boxes use one-sided stencils at faces: the forward difference takes
  the backward value on the far face, the backward difference takes the
  forward value on the near face, and the centred difference is their
  mean.  Reductions are plain numpy sums (fixed order, deterministic).
* Every covariant difference, whatever the transport, comes from one link
  kernel (_diff): it reads both ends of a link through slices, carries one
  onto the other (a cone flip, then the U(1) phase; nothing under the
  identity transport) and subtracts, with no rolled copy.  The centred
  difference sums two half steps, bit for bit the mean.
* The energy density |d_A u|^2 contracts undivided differences and
  divides once, so its rounding is not that of the stacked differences.
"""

from dataclasses import dataclass
from enum import Enum
import functools
import json

import numpy as np

from . import quaternion as quat
from .targets import GaugeGroup, TargetKind, canonical_rep


class Topology(Enum):
    TORUS = "torus"
    BOX = "box"


class Stencil(Enum):
    FORWARD = "forward"
    CENTERED = "centered"


#: two-form component order; dual pairs share a self-dual slot
PLAQ_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))


@dataclass(frozen=True)
class LatticeGeom:
    """Flat 4-lattice (scalar curvature zero); a hashable value, so caches key on it."""

    dims: tuple
    h: float
    topology: Topology = Topology.TORUS

    def __post_init__(self):
        if len(self.dims) != 4 or not all(isinstance(n, (int, np.integer)) and n >= 2 for n in self.dims):
            raise ValueError(f"dims must be four integers >= 2, got {self.dims}")
        if not 0 < self.h < np.inf:
            raise ValueError(f"spacing h must be a finite number > 0, got {self.h}")
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))

    @property
    def n_sites(self):
        return int(np.prod(self.dims))

    def widths(self):
        if self.topology is Topology.TORUS:
            return tuple(n * self.h for n in self.dims)
        return tuple((n - 1) * self.h for n in self.dims)

    def delta0(self):
        """Injectivity-radius analog: half the smallest width."""
        return 0.5 * min(self.widths())

    def coords(self):
        """Physical coordinate array of shape dims + (4,)."""
        axes = [np.arange(n) * self.h for n in self.dims]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack(grid, axis=-1)


@dataclass
class SpinorField:
    """Quaternion values dims + (4,), or a stack of fields (leading axes) on one lattice."""

    geom: LatticeGeom
    values: np.ndarray
    kind: TargetKind = TargetKind.FLAT_H

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape[-5:] != self.geom.dims + (4,):
            raise ValueError("spinor field shape does not match geometry")
        if self.kind is TargetKind.CONE_H_MOD_Z2:
            self.values = canonical_rep(self.values, self.kind)

    def copy(self):
        return SpinorField(self.geom, self.values.copy(), self.kind)


@dataclass
class ConnectionField:
    """Link angles dims + (4,), or a stack of them (leading axes); None for the trivial group."""

    geom: LatticeGeom
    group: GaugeGroup = GaugeGroup.TRIVIAL
    links: np.ndarray = None

    def __post_init__(self):
        if self.group is GaugeGroup.TRIVIAL:
            self.links = None
        else:
            if self.links is None:
                self.links = np.zeros(self.geom.dims + (4,))
            self.links = np.ascontiguousarray(self.links, dtype=float)
            if self.links.shape[-5:] != self.geom.dims + (4,):
                raise ValueError("link field shape does not match geometry")

    def copy(self):
        links = None if self.links is None else self.links.copy()
        return ConnectionField(self.geom, self.group, links)


@dataclass
class TwoForm:
    """Plaquette field, components ordered as PLAQ_PAIRS: dims + (6,)."""

    geom: LatticeGeom
    values: np.ndarray


@dataclass
class SelfDualForm:
    """Coefficients in the eta_l basis: dims + (3,)."""

    geom: LatticeGeom
    values: np.ndarray


def _shift(arr, axis, step, topology):
    """arr evaluated at x + step*e_axis; box edges clamp (callers mask)."""
    if topology is Topology.TORUS:
        return np.roll(arr, -step, axis=axis)
    out = np.roll(arr, -step, axis=axis)
    # clamp: repeat the edge value so callers can overwrite face stencils
    idx = [slice(None)] * arr.ndim
    if step > 0:
        idx[axis] = slice(-step, None)
        src = [slice(None)] * arr.ndim
        src[axis] = slice(-1, None)
    else:
        idx[axis] = slice(None, -step)
        src = [slice(None)] * arr.ndim
        src[axis] = slice(None, 1)
    out[tuple(idx)] = arr[tuple(src)]
    return out


def forward_link_exists(geom: LatticeGeom, axis):
    """Boolean site mask: the link x -> x + e_axis exists."""
    mask = np.ones(geom.dims, dtype=bool)
    if geom.topology is Topology.BOX:
        idx = [slice(None)] * 4
        idx[axis] = slice(-1, None)
        mask[tuple(idx)] = False
    return mask


def interior_site_mask(geom: LatticeGeom):
    """Sites whose full forward stencil (one cell) stays in the box."""
    return np.logical_and.reduce([forward_link_exists(geom, i) for i in range(4)])


def _cone_align(u_nb, u_ref):
    """Flip neighbor representatives into the half-space of u_ref."""
    return np.where(quat.inner(u_nb, u_ref)[..., None] < 0.0, -u_nb, u_nb)


def _transport(u: SpinorField, a: ConnectionField, axis):
    """What carrying a value across a link along axis does: (the U(1) angles a_axis
    or None, whether a cone value flips, h)."""
    return None if a.links is None else a.links[..., axis], u.kind is TargetKind.CONE_H_MOD_Z2, u.geom.h


#: the transport of the trivial group on a flat target: carrying does nothing
_IDENTITY = (None, False, None)


def _carried(v, transport, at, far, tails, sign):
    """v on the planes far carried onto the planes at, across links stored on the planes
    tails, from their heads (sign +1) or tails (sign -1): a cone value flips into the
    half-space of v[at], then takes the U(1) phase e^{sign i h a}.  Under the identity
    transport it is the slice v[far] itself, no copy."""
    links, cone, h = transport
    w = v[far]
    if cone:
        w = _cone_align(w, v[at])
    if links is not None:
        w = quat.mul_exp_i(w, sign * h * links[tails])
    return w


def _planes_at(axis, start, stop):
    """Index of the planes start..stop-1 along axis."""
    return (slice(None),) * axis + (slice(start, stop),)


def _diff(v, transport, out, at, up=None, down=None):
    """The link kernel: out[at] = up - down, each end read through a slice and carried
    onto at.  up and down are (far, tails) planes, carried from the heads and from the
    tails of the links on tails; None is v[at] itself."""
    np.subtract(v[at] if up is None else _carried(v, transport, at, *up, +1),
                v[at] if down is None else _carried(v, transport, at, *down, -1), out=out[at])


def _link_diffs(v, axis, topology, transport, head=False, fill=False):
    """Undivided difference across each link x -> x + e along axis (any trailing shape),
    head value minus tail value in the frame of the tail x, where it is stored, or of
    the head x + e with head.  The one plane no link fills takes the wrapping link on a
    torus.  On a box it takes its own plane carried onto itself (_shift's edge clamp),
    or with fill the other orientation over the neighbouring link: the one-sided
    stencil at the face."""
    n = v.shape[axis]
    first, last = _planes_at(axis, 0, 1), _planes_at(axis, n - 1, n)
    out = np.empty(v.shape)

    def across(tails, heads, at_head):  # stored at, and carried onto, one end
        if at_head:
            _diff(v, transport, out, heads, down=(tails, tails))
        else:
            _diff(v, transport, out, tails, up=(heads, tails))

    across(_planes_at(axis, 0, n - 1), _planes_at(axis, 1, n), head)
    if topology is Topology.TORUS:
        across(last, first, head)
    elif not fill:
        spare = first if head else last
        across(spare, spare, head)
    elif head:
        across(first, _planes_at(axis, 1, 2), False)
    else:
        across(_planes_at(axis, n - 2, n - 1), last, True)
    return out


def _difference(geom: LatticeGeom, v, axis, step, transport=_IDENTITY, fill=True):
    """Difference of a site array along axis: step +1 forward, -1 backward (with fill,
    each takes the other's value at the box face where its link is missing), 0 centred.
    The centred value is the sum of the forward and backward half steps d / (2h): bit
    for bit their mean, since dividing by 2h is dividing by h and halving, which is
    exact."""
    scale = geom.h if step else 2.0 * geom.h
    d = _link_diffs(v, axis, geom.topology, transport, step < 0, fill)
    d /= scale
    if not step:
        back = _link_diffs(v, axis, geom.topology, transport, True, fill)
        back /= scale
        d += back
    return d


def identity_diff(geom: LatticeGeom, v, axis, step):
    """Face-filled difference under the identity transport: step +1, -1 or 0 (centred)."""
    return _difference(geom, v, axis, step)


def _undivided_diff(v, tr, topo, axis, centred):
    """T v(x+e) - T v(x-e) (centred) or T v(x+e) - v(x) (forward) along axis, under the
    transport tr (`_transport`) on a lattice of topology topo, not yet divided by the
    step.  On a box a face plane whose neighbour is missing takes the one-sided
    difference, doubled when centred, so that dividing by 2h gives the face value of
    cov_diff_component; the forward one divided by h is forward_cov_diff."""
    if not centred:
        return _link_diffs(v, axis, topo, tr, fill=True)
    n = v.shape[axis]
    first, last = _planes_at(axis, 0, 1), _planes_at(axis, n - 1, n)
    below, above = _planes_at(axis, n - 2, n - 1), _planes_at(axis, 1, 2)
    d = np.empty(v.shape)
    mid = _planes_at(axis, 1, n - 1)
    _diff(v, tr, d, mid, up=(_planes_at(axis, 2, n), mid), down=(_planes_at(axis, 0, n - 2),) * 2)
    if topo is Topology.TORUS:  # the wrapping neighbours
        _diff(v, tr, d, first, up=(above, first), down=(last, last))
        _diff(v, tr, d, last, up=(first, last), down=(below, below))
    else:  # the one-sided difference over the link that exists, doubled
        _diff(v, tr, d, first, up=(above, first))
        _diff(v, tr, d, last, down=(below, below))
        d[first] *= 2.0
        d[last] *= 2.0
    return d


def forward_cov_diff(u: SpinorField, a: ConnectionField, axis):
    """(T u(x+e) - u(x)) / h, backward-filled on the far face of a box."""
    return _difference(u.geom, u.values, axis, +1, _transport(u, a, axis))


def backward_cov_diff_raw(u: SpinorField, a: ConnectionField, axis):
    """(u(x) - T u(x-e)) / h, valid where x - e_axis exists."""
    return _difference(u.geom, u.values, axis, -1, _transport(u, a, axis), fill=False)


def backward_cov_diff(u: SpinorField, a: ConnectionField, axis):
    """Backward difference, forward-filled on the near face of a box."""
    return _difference(u.geom, u.values, axis, -1, _transport(u, a, axis))


def cov_diff_component(u, a, axis, stencil: Stencil):
    step = +1 if stencil is Stencil.FORWARD else 0
    return _difference(u.geom, u.values, axis, step, _transport(u, a, axis))


def clifford_pair(hdir, vplus, vminus):
    """Clifford action of the covector dual to hdir on (v+, v-).

    Returns (-I_{hbar} v-, I_h v+), broadcasting over leading axes.
    """
    return (-quat.mul(quat.conj(hdir), vminus), quat.mul(hdir, vplus))


def dirac(u: SpinorField, a: ConnectionField, stencil=Stencil.FORWARD):
    """Generalized Dirac operator: sum_i I_{e_i} (d_A u)_i, sitewise.

    For the flat target with a = 0 this is the discrete Fueter operator
    d0 u + i d1 u + j d2 u + k d3 u.
    """
    out = np.zeros(u.geom.dims + (4,))
    for i in range(4):
        out += quat.mul(quat.BASIS[i], cov_diff_component(u, a, i, stencil))
    return out


#: axis-0 planes per slab of grad_energy_density.  Two 33^4 spinor planes are 2.3 MB,
#: past the 2 MB L2 per core of a 2-vCPU Xeon VM.  Four planes (4.6 MB) spend fewer
#: halo planes on the axis-0 difference and won 9 of 10 alternating in-process
#: field_box pairs against two, but by a median gap (0.029 s) under two planes'
#: interquartile range (0.053 s), which is no measured gain; so two it stays.
ENERGY_SLAB_PLANES = 2


def grad_energy_density(u: SpinorField, a: ConnectionField, stencil=Stencil.FORWARD):
    """|d_A u|^2 sitewise over slabs of ENERGY_SLAB_PLANES axis-0 planes (the last
    takes the remainder): axes 1-3 on the slab, axis 0 on the slab plus a plane on
    each side, wrapped on a torus and clipped at box faces.

    Each axis is one undivided difference (_undivided_diff) and one per-site
    contraction, summed over the axes; the slab is divided once, by (2h)^2
    centred or h^2 forward.  This is not the rounding of the stacked reference
    sum_i |cov_diff_component(u, a, i)|^2, which divides each component first:
    over trivial/U(1) x flat/cone x box/torus, both stencils and lattices up to
    13^4 (the tests' matrix) the two differ by at most 8.7e-16 relative per
    site.  For a field linear in x with dyadic coefficients on a dyadic spacing
    every step is exact, face planes included.
    """
    n, topo, h = u.geom.dims[0], u.geom.topology, u.geom.h
    centred, cone = stencil is Stencil.CENTERED, u.kind is TargetKind.CONE_H_MOD_Z2
    scale = (2.0 * h) ** 2 if centred else h**2
    out = np.empty(u.geom.dims)

    def planes(lo, hi):  # values and links on the axis-0 planes lo..hi-1 (wrapped); no field is rebuilt
        rows = slice(lo, hi) if 0 <= lo and hi <= n else np.arange(lo, hi) % n
        return u.values[rows], None if a.links is None else a.links[rows]

    def diff(v, links, axis):  # _undivided_diff of the slab's values under its links along axis
        return _undivided_diff(v, (None if links is None else links[..., axis], cone, h), topo, axis, centred)

    edges = [*range(0, n - 1, ENERGY_SLAB_PLANES), n]
    for p0, p1 in zip(edges, edges[1:]):
        lo, hi = (max(p0 - 1, 0), min(p1 + 1, n)) if topo is Topology.BOX else (p0 - 1, p1 + 1)
        slab = out[p0:p1]
        d = diff(*planes(lo, hi), 0)[p0 - lo:p1 - lo]
        np.einsum("...k,...k->...", d, d, out=slab)
        v, links = planes(p0, p1)
        for i in range(1, 4):
            d = diff(v, links, i)
            slab += np.einsum("...k,...k->...", d, d)
        slab /= scale
    return out


def d_site(geom: LatticeGeom, f):
    """Forward difference of a site scalar onto links, dims + (4,)."""
    out = np.zeros(geom.dims + (4,))
    for i in range(4):
        out[..., i] = _difference(geom, f, i, +1, fill=False)
        if geom.topology is Topology.BOX:
            out[..., i][_planes_at(i, -1, None)] = 0.0
    return out


def d_star(geom: LatticeGeom, b):
    """Exact adjoint of d_site under the h^4 inner products."""
    out = np.zeros(geom.dims)
    for i in range(4):
        bi = b[..., i]
        if geom.topology is Topology.TORUS:
            out += (np.roll(bi, +1, axis=i) - bi) / geom.h
        else:
            bi = bi * forward_link_exists(geom, i)
            shifted = np.zeros_like(bi)
            dst = [slice(None)] * 4
            dst[i] = slice(1, None)
            src = [slice(None)] * 4
            src[i] = slice(0, -1)
            shifted[tuple(dst)] = bi[tuple(src)]
            out += (shifted - bi) / geom.h
    return out


def plaquette_d(geom: LatticeGeom, b):
    """Discrete exterior derivative of a link one-form onto plaquettes."""
    vals = np.zeros(geom.dims + (6,))
    d = functools.partial(_difference, geom, step=+1, fill=False)
    for p, (i, j) in enumerate(PLAQ_PAIRS):
        vals[..., p] = d(b[..., j], i) - d(b[..., i], j)
        if geom.topology is Topology.BOX:
            mask = forward_link_exists(geom, i) & forward_link_exists(geom, j)
            vals[..., p] *= mask
    return TwoForm(geom, vals)


def plaquette_curvature(a: ConnectionField) -> TwoForm:
    """Curvature two-form of an abelian connection: F = d a."""
    if a.links is None:
        return TwoForm(a.geom, np.zeros(a.geom.dims + (6,)))
    return plaquette_d(a.geom, a.links)


def selfdual(f: TwoForm) -> SelfDualForm:
    """Orthogonal projection onto span{eta_l}, in eta-basis coefficients."""
    v = f.values
    s = np.stack(
        [
            0.5 * (v[..., 0] + v[..., 3]),
            0.5 * (v[..., 1] + v[..., 4]),
            0.5 * (v[..., 2] + v[..., 5]),
        ],
        axis=-1,
    )
    return SelfDualForm(f.geom, s)


def d_cube(f: TwoForm):
    """Exterior derivative of a plaquette field on cubes: d_cube(F(a)) = 0 is the discrete Bianchi identity."""
    geom = f.geom
    comp = {pair: f.values[..., p] for p, pair in enumerate(PLAQ_PAIRS)}

    def get(i, j):
        if (i, j) in comp:
            return comp[(i, j)]
        return -comp[(j, i)]

    d = functools.partial(_difference, geom, step=+1, fill=False)
    out = []
    for triple in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        i, j, k = triple
        out.append(d(get(j, k), i) - d(get(i, k), j) + d(get(i, j), k))
    return np.stack(out, axis=-1)


# ---------------------------------------------------------------------------
# inner products


def site_inner(geom: LatticeGeom, f, g):
    """h^4-weighted inner product of site fields (any trailing shape)."""
    return float(np.sum(f * g) * geom.h**4)


def link_inner(geom: LatticeGeom, b, c):
    if b is None or c is None:
        return 0.0
    w = b * c
    if geom.topology is Topology.BOX:
        for i in range(4):
            w[..., i] *= forward_link_exists(geom, i)
    return float(np.sum(w) * geom.h**4)


# ---------------------------------------------------------------------------
# ball and shell quadrature


@dataclass(frozen=True)
class BallSpec:
    """Ball B_r(x): physical center, radius, and quadrature resolution."""

    center: tuple
    radius: float
    n_polar: int = 24
    n_azimuth: int = 48

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not 0 < self.radius < np.inf:
            raise ValueError(f"radius must be a finite number > 0, got {self.radius}")


def max_ball_radius(geom: LatticeGeom, center):
    """Largest admissible ball radius at a center: delta0, and for boxes
    the distance to the nearest face."""
    r = geom.delta0()
    if geom.topology is Topology.BOX:
        for i, w in enumerate(geom.widths()):
            r = min(r, center[i], w - center[i])
    return r


def _check_ball(geom: LatticeGeom, spec: BallSpec):
    if spec.radius > geom.delta0() + 1e-12:
        raise ValueError("ball radius exceeds delta0")
    if spec.radius > max_ball_radius(geom, spec.center) + 1e-12:
        raise ValueError("ball not contained in the box")


def site_distances(geom: LatticeGeom, center):
    """Distance from each site to a physical center (min-image on torus)."""
    return ball_box(geom, center, np.inf)[1]


def ball_box(geom: LatticeGeom, center, reach):
    """(index, d): the sub-box of sites within reach of center along every axis and
    their distances to it, as site_distances gives them.  The index is a slice per
    axis, or np.ix_ arrays where a torus run wraps the seam; a run that spans the
    axis is the whole axis.  A site whose offset passes reach by a rounding margin
    stays in, since its distance can round an ulp below the offset."""
    index, d2 = [], 0.0  # broadcast per axis: only the last sum is sub-box sized
    for i, n in enumerate(geom.dims):
        diff = np.arange(n) * geom.h - center[i]
        if geom.topology is Topology.TORUS:  # min image
            period = n * geom.h
            diff = diff - period * np.round(diff / period)
        keep = np.flatnonzero(np.abs(diff) <= reach * (1.0 + 1e-12))
        shape = [1, 1, 1, 1]
        shape[i] = keep.size
        d2 = d2 + diff[keep].reshape(shape) ** 2
        contiguous = keep.size and keep[-1] - keep[0] == keep.size - 1
        index.append(slice(keep[0], keep[-1] + 1) if contiguous else keep)
    if any(isinstance(k, np.ndarray) for k in index):
        index = np.ix_(*[np.arange(n)[k] for n, k in zip(geom.dims, index)])
    return tuple(index), np.sqrt(d2, out=d2)


def ball_window(geom: LatticeGeom, spec: BallSpec):
    """(index, weights): the partial-cell window of B_r(x), clip((r - d)/h + 0.5, 0, 1),
    on the sub-box of sites within r + h/2 of x (beyond it the window is zero), built
    in place in the distance buffer; every ball sum at one radius can share it."""
    _check_ball(geom, spec)
    index, w = ball_box(geom, spec.center, spec.radius + 0.5 * geom.h)
    np.subtract(spec.radius, w, out=w)
    w /= geom.h
    w += 0.5
    np.clip(w, 0.0, 1.0, out=w)
    return index, w


def ball_sums(geom: LatticeGeom, spec: BallSpec, fields):
    """Integrals of the site scalars in fields over B_r(x), as a list: h^4-weighted
    sums against one ball_window on its bounding sub-box, so no full-lattice window
    or product is made."""
    index, w = ball_window(geom, spec)
    return [site_inner(geom, f[index], w) for f in fields]


def ball_integral(geom: LatticeGeom, f, spec: BallSpec):
    """Integral of a site scalar over B_r(x).

    Lattice sum with a linear partial-cell window of width h at the
    boundary sphere; exact volume error is O((h/r)^2) for smooth fields.
    """
    return ball_sums(geom, spec, [f])[0]


@functools.cache
def _unit_sphere(n_polar, n_azimuth):
    """Read-only nodes (N, 4) and weights (N,) on the unit 3-sphere."""
    x, wx = np.polynomial.legendre.leggauss(n_polar)
    theta, w_theta = 0.5 * np.pi * x + 0.5 * np.pi, 0.5 * np.pi * wx  # on [0, pi]
    phi = np.arange(n_azimuth) * (2.0 * np.pi / n_azimuth)
    w_phi = 2.0 * np.pi / n_azimuth

    Chi, Th, Phi = np.meshgrid(theta, theta, phi, indexing="ij")
    Wc, Wt = np.meshgrid(w_theta, w_theta, indexing="ij")
    weights = (Wc * Wt)[..., None] * w_phi * np.sin(Chi) ** 2 * np.sin(Th)
    pts = np.stack(
        [
            np.cos(Chi),
            np.sin(Chi) * np.cos(Th),
            np.sin(Chi) * np.sin(Th) * np.cos(Phi),
            np.sin(Chi) * np.sin(Th) * np.sin(Phi),
        ],
        axis=-1,
    ).reshape(-1, 4)
    weights = weights.reshape(-1)
    pts.flags.writeable = weights.flags.writeable = False
    return pts, weights


def sphere_nodes(spec: BallSpec):
    """Product quadrature nodes and weights on the 3-sphere of radius r.

    Hyperspherical angles: two polar angles by Gauss-Legendre, azimuth
    uniform; weights normalized so that the constant 1 integrates to
    2 pi^2 r^3.  The unit grid is cached; the returned arrays are fresh.
    """
    pts, weights = _unit_sphere(spec.n_polar, spec.n_azimuth)
    r = spec.radius
    return r * pts + np.asarray(spec.center), weights * r**3


def interpolate(geom: LatticeGeom, f, points):
    """Multilinear interpolation of a site scalar at physical points."""
    pts = np.asarray(points, dtype=float) / geom.h
    n = pts.shape[0]
    vals = np.zeros(n)
    base = np.floor(pts).astype(int)
    if geom.topology is Topology.BOX:
        for i in range(4):
            if np.any(pts[:, i] < -1e-9) or np.any(pts[:, i] > geom.dims[i] - 1 + 1e-9):
                raise ValueError("interpolation point outside the box")
        # a point on the far face uses the last cell, with weight 1 on its far corner
        base = np.clip(base, 0, np.asarray(geom.dims) - 2)
    frac = pts - base
    for corner in range(16):
        w = np.ones(n)
        idx = []
        for i in range(4):
            bit = (corner >> i) & 1
            ci = base[:, i] + bit
            w = w * (frac[:, i] if bit else (1.0 - frac[:, i]))
            if geom.topology is Topology.TORUS:
                ci = np.mod(ci, geom.dims[i])
            idx.append(ci)
        vals += w * f[tuple(idx)]
    return vals


def _quadratic_stencil(geom: LatticeGeom, points):
    """Flat site indices and weights, each (81, n), of the tensor-quadratic Lagrange
    corners of physical points (axis 3 slowest); windows shift inward at box faces."""
    pts = np.asarray(points, dtype=float) / geom.h
    n = pts.shape[0]
    base = np.rint(pts).astype(int) - 1
    if geom.topology is Topology.BOX:
        for i in range(4):
            if np.any(pts[:, i] < -1e-9) or np.any(pts[:, i] > geom.dims[i] - 1 + 1e-9):
                raise ValueError("interpolation point outside the box")
        base = np.clip(base, 0, np.asarray(geom.dims) - 3)
    x = pts - base
    w = np.ones((1, n))
    flat = np.zeros((1, n), dtype=np.intp)
    for i in range(4):
        xi = x[:, i]
        wi = np.stack([0.5 * (xi - 1) * (xi - 2), xi * (2 - xi), 0.5 * xi * (xi - 1)])
        ci = base[:, i] + np.arange(3)[:, None]
        if geom.topology is Topology.TORUS:
            ci = np.mod(ci, geom.dims[i])
        w = (w[None] * wi[:, None]).reshape(-1, n)
        flat = (flat[None] * geom.dims[i] + ci[:, None]).reshape(-1, n)
    return flat, w


def interpolate_quadratic(geom: LatticeGeom, f, points):
    """Tensor-quadratic Lagrange interpolation of a site scalar, summed in corner
    order; smoother in r than multilinear (the O(h^2) cell-phase oscillation
    cancels), which the derivative-based radial identity checks require."""
    flat, w = _quadratic_stencil(geom, points)
    return np.sum(np.ravel(f)[flat] * w, axis=0)


@functools.lru_cache(maxsize=16)
def _shell_functional(geom, spec):
    """Read-only (sites int32, weights), shell_integral = weights @ f.flat[sites]; every
    site a node's stencil touches stays, so a non-finite value there reaches the sum."""
    _check_ball(geom, spec)
    pts, wts = sphere_nodes(spec)
    acc = np.zeros(geom.n_sites)  # pages away from the shell are never touched
    touched = np.zeros(geom.n_sites, dtype=bool)
    for s in range(0, wts.size, 2048):  # node chunks bound the (81, chunk) corner arrays
        flat, w = _quadratic_stencil(geom, pts[s:s + 2048])
        w *= wts[s:s + 2048]
        lo = flat.min()  # consecutive nodes share a polar band, so a short index range
        part = np.bincount((flat - lo).ravel(), w.ravel())
        acc[lo:lo + part.size] += part
        touched[flat] = True
    sites = np.flatnonzero(touched).astype(np.int32)
    weights = acc[sites]
    sites.flags.writeable = weights.flags.writeable = False
    return sites, weights


def shell_integral(geom: LatticeGeom, f, spec: BallSpec):
    """Integral of a site scalar over the boundary sphere of B_r(x): tensor-quadratic
    interpolation (smooth in r, as the radial identities need) onto the product
    quadrature grid, a linear functional of f cached per (geom, spec)."""
    sites, weights = _shell_functional(geom, spec)
    # einsum, not a BLAS dot: a threaded dot's start-up outweighs a sum this short
    return float(np.einsum("i,i", weights, np.ravel(f)[sites]))


# ---------------------------------------------------------------------------
# snapshots


def snapshot_save(path, u: SpinorField, a: ConnectionField):
    """Write fields as JSON: header plus flat C-order value lists."""
    header = {
        "dims": list(u.geom.dims),
        "h": u.geom.h,
        "topology": u.geom.topology.value,
        "kind": u.kind.value,
        "group": a.group.value,
    }
    payload = {
        "header": header,
        "u": u.values.reshape(-1).tolist(),
        "a": None if a.links is None else a.links.reshape(-1).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def snapshot_load(path):
    with open(path) as fh:
        payload = json.load(fh)
    hdr = payload["header"]
    geom = LatticeGeom(tuple(hdr["dims"]), float(hdr["h"]), Topology(hdr["topology"]))
    u = SpinorField(
        geom,
        np.array(payload["u"], dtype=float).reshape(geom.dims + (4,)),
        TargetKind(hdr["kind"]),
    )
    group = GaugeGroup(hdr["group"])
    links = payload["a"]
    a = ConnectionField(
        geom,
        group,
        None if links is None else np.array(links, dtype=float).reshape(geom.dims + (4,)),
    )
    return u, a
