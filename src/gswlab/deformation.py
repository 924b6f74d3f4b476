"""Deformation complex of the gauged Dirac system, assembled as matrices.

Every operator is a dense matrix together with block-tagged row/column
spaces carrying diagonal metric weights (h^4 per site dof, 2 h^4 for
self-dual components).  Adjoints are exact weighted transposes; ranks,
kernels and cokernels come from the SVD of the weight-normalized matrix
with the cutoff  max(shape) * sigma_max * 1e-10  and a 10x margin
warning.

Equation rows are restricted to the trusted stencil support
(`gsw.row_masks`); on a box this leaves the faces unconstrained, which
is what makes under-determined smooth solution families possible.
All assemblies use the forward/backward stencil pairing so that the
matrix adjoints are the discrete adjoints exactly.

One `DofLayout` per (dims, h, topology, group), from the bounded cache
behind `layout`, holds the dof spaces and the neighbour index.  The
equation rows (`residual_rowvec`) are evaluated on the trusted sites
only, by gathers through that layout, and the Jacobian blocks of
`linearize_fsw` are built from the same gathers.  `gsw.residual`, which
evaluates every site, is the full-field reference they agree with.
"""

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import lattice as lat
from . import quaternion as quat
from .gsw import Configuration, Sources, phi4_diff, residual_norm, row_masks
from .gsw import residual  # noqa: F401  (the full-field reference of residual_rowvec)
from .lattice import LatticeGeom
from .targets import GaugeGroup, TargetKind, moment_values

RANK_REL_CUTOFF = 1e-10
RANK_MARGIN = 10.0
MAX_DENSE_DIM = 4096

#: plaquette axes (i, j) in lat.PLAQ_PAIRS order
_PLAQ_I, _PLAQ_J = np.array(lat.PLAQ_PAIRS).T
#: _DIRAC_LINK[i] is the matrix of w -> e_i (w i), the Dirac-row link block
_DIRAC_LINK = quat.left_matrix(quat.BASIS) @ quat.right_matrix(quat.QI)


class RankMarginWarning(UserWarning):
    """Retained and discarded singular values are less than 10x apart."""


# ---------------------------------------------------------------------------
# dof spaces


@dataclass
class BlockSpace:
    """Named blocks of a flat vector space with per-dof metric weights."""

    blocks: list  # [(name, size, weight)]

    def __post_init__(self):
        self.dim = int(sum(n for _, n, _ in self.blocks))
        self.weights = np.concatenate(
            [np.full(n, w) for _, n, w in self.blocks]
        ) if self.blocks else np.zeros(0)
        self._slices = {}
        start = 0
        for name, n, _ in self.blocks:
            self._slices[name] = slice(start, start + n)
            start += n

    def block(self, name):
        return self._slices[name]

    def inner(self, x, y):
        return float(np.sum(x * y * self.weights))

    def norm(self, x):
        return np.sqrt(max(self.inner(x, x), 0.0))


class TangentSpace(BlockSpace):
    """Columns of the deformation operators: (one-form b, spinor v)."""

    def __init__(self, geom: LatticeGeom, group: GaugeGroup):
        self.geom = geom
        self.group = group
        h4 = geom.h**4
        n_sites = geom.n_sites
        # (axis, flat site) of every link dof, axis-major: the pack/unpack gather
        if group is GaugeGroup.TRIVIAL:
            self.link_axes = self.link_sites = np.zeros(0, dtype=int)
        else:
            exists = np.stack([lat.forward_link_exists(geom, i).reshape(-1) for i in range(4)])
            self.link_axes, self.link_sites = np.nonzero(exists)
        n_links = self.link_sites.size
        super().__init__([("oneform", n_links, h4), ("spinor", 4 * n_sites, h4)])
        self.n_links = n_links
        self.n_sites = n_sites
        # flat site index -> dof index of link (site, dir), -1 if absent
        self.link_dof = -np.ones((4, n_sites), dtype=int)
        self.link_dof[self.link_axes, self.link_sites] = np.arange(n_links)

    def spinor_dof(self, site_flat, comp):
        return self.n_links + 4 * site_flat + comp

    def pack(self, b_links, v_sites):
        """Pack full-shape (links, site) arrays into a dof vector."""
        vec = np.zeros(self.dim)
        if self.group is not GaugeGroup.TRIVIAL and b_links is not None:
            vec[: self.n_links] = b_links.reshape(-1, 4)[self.link_sites, self.link_axes]
        vec[self.n_links :] = np.asarray(v_sites, dtype=float).reshape(-1)
        return vec

    def unpack(self, vec):
        """Return (b_links fullshape or None, v_sites array)."""
        v = vec[self.n_links :].reshape(self.geom.dims + (4,)).copy()
        if self.group is GaugeGroup.TRIVIAL:
            return None, v
        b = np.zeros((self.n_sites, 4))
        b[self.link_sites, self.link_axes] = vec[: self.n_links]
        return b.reshape(self.geom.dims + (4,)), v


class EquationSpace(BlockSpace):
    """Rows of the linearized equations: (dirac, selfdual) on trusted sites."""

    def __init__(self, geom: LatticeGeom, group: GaugeGroup):
        self.geom = geom
        self.group = group
        h4 = geom.h**4
        dm, sm = row_masks(geom)
        self.dirac_sites = np.flatnonzero(dm.reshape(-1))
        n_dirac = 4 * self.dirac_sites.size
        if group is GaugeGroup.TRIVIAL:
            self.sd_sites = np.zeros(0, dtype=int)
        else:
            self.sd_sites = np.flatnonzero(sm.reshape(-1))
        n_sd = 3 * self.sd_sites.size
        super().__init__([("dirac", n_dirac, h4), ("selfdual", n_sd, 2.0 * h4)])
        self.site_to_dirac = -np.ones(geom.n_sites, dtype=int)
        self.site_to_dirac[self.dirac_sites] = np.arange(self.dirac_sites.size)
        self.site_to_sd = -np.ones(geom.n_sites, dtype=int)
        self.site_to_sd[self.sd_sites] = np.arange(self.sd_sites.size)

    def dirac_dof(self, site_flat, comp):
        return 4 * self.site_to_dirac[site_flat] + comp

    def sd_dof(self, site_flat, comp):
        return 4 * self.dirac_sites.size + 3 * self.site_to_sd[site_flat] + comp

    def pack(self, dirac_field, sd_vals):
        vec = np.zeros(self.dim)
        nd = self.dirac_sites.size
        vec[: 4 * nd] = dirac_field.reshape(-1, 4)[self.dirac_sites].reshape(-1)
        if self.sd_sites.size:
            vec[4 * nd :] = sd_vals.reshape(-1, 3)[self.sd_sites].reshape(-1)
        return vec


class GaugeScalarSpace(BlockSpace):
    """Gauge Lie-algebra valued site scalars; empty for the trivial group."""

    def __init__(self, geom: LatticeGeom, group: GaugeGroup = GaugeGroup.U1):
        self.geom = geom
        self.group = group
        n = 0 if group is GaugeGroup.TRIVIAL else geom.n_sites
        super().__init__([("gauge", n, geom.h**4)])


class DofLayout:
    """Stencil description of one lattice, shared by every operator on it.

    `tangent`, `equations` and `gauge` are the dof spaces; `nb[i, x]` is
    the flat index of x + e_i (wrapping; the trusted equation rows and
    the existing links never reach a wrapped box neighbour).  The
    residual rows and the Jacobian blocks gather through the same `nb`;
    the row and column indices of the Jacobian triplets, which depend on
    the layout alone, are built here once, shaped as `linearize_fsw`
    broadcasts them.
    """

    def __init__(self, geom: LatticeGeom, group: GaugeGroup):
        self.tangent = TangentSpace(geom, group)
        self.equations = EquationSpace(geom, group)
        self.gauge = GaugeScalarSpace(geom, group)
        coords = np.indices(geom.dims).reshape(4, 1, -1) + np.eye(4, dtype=int)[:, :, None]
        self.nb = np.ravel_multi_index(tuple(coords), geom.dims, mode="wrap")
        tan, eq, nb = self.tangent, self.equations, self.nb
        sites, ss = eq.dirac_sites, eq.sd_sites
        #: spinor_c[x, c] is the column of spinor component c at site x
        self.spinor_c = tan.spinor_dof(np.arange(geom.n_sites)[:, None], np.arange(4))
        # Dirac rows (site, r) against neighbour (axis, site, c), own-site and link columns
        self.dirac_r = eq.dirac_dof(sites[:, None], np.arange(4))
        self.dirac_nb_c = self.spinor_c[nb[:, sites]][..., None]
        self.dirac_here_c = self.spinor_c[sites][..., None]
        self.dirac_link_c = tan.link_dof[:, sites][..., None]
        # self-dual rows: plaquette (p, term, site) link columns, spinor (site, a, l)
        pi, pj, link = _PLAQ_I, _PLAQ_J, tan.link_dof
        self.plaq_c = np.stack([link[pj[:, None], nb[pi][:, ss]], link[pj][:, ss],
                                link[pi[:, None], nb[pj][:, ss]], link[pi][:, ss]], axis=1)
        self.plaq_r = eq.sd_dof(ss, (np.arange(6) % 3)[:, None, None])
        self.sd_r = eq.sd_dof(ss[:, None, None], np.arange(3))
        self.sd_spinor_c = self.spinor_c[ss][..., None]
        for arrays in (vars(self), vars(tan), vars(eq), vars(self.gauge)):
            for arr in arrays.values():  # shared through the cache: read-only
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False


@functools.lru_cache(maxsize=8)
def _layout(dims, h, topology, group):
    return DofLayout(LatticeGeom(dims, h, topology), group)


def layout(geom: LatticeGeom, group: GaugeGroup) -> DofLayout:
    """The cached layout of (geom, group), keyed on (dims, h, topology, group).

    The key leaves out `geom.s_x`, which no dof space reads (and which
    makes a geom unhashable); the spaces' `geom` is the bare lattice.
    """
    return _layout(geom.dims, geom.h, geom.topology, group)


# ---------------------------------------------------------------------------
# linear maps


class LinearMap:
    """Dense matrix between block spaces with exact weighted adjoints."""

    def __init__(self, matrix, row_space: BlockSpace, col_space: BlockSpace):
        self.matrix = np.ascontiguousarray(matrix, dtype=float)
        self.row_space = row_space
        self.col_space = col_space
        if self.matrix.shape != (row_space.dim, col_space.dim):
            raise ValueError("matrix shape does not match block spaces")
        self._svd = None

    # -- basic algebra -----------------------------------------------------
    def apply(self, x):
        return self.matrix @ x

    def adjoint_apply(self, y):
        y = np.asarray(y, dtype=float)
        w_r = self.row_space.weights
        w_c = self.col_space.weights
        if y.ndim == 1:
            return (self.matrix.T @ (w_r * y)) / w_c
        return (self.matrix.T @ (w_r[:, None] * y)) / w_c[:, None]

    def adjoint(self):
        w_r = self.row_space.weights
        w_c = self.col_space.weights
        mat = (self.matrix.T * w_r[None, :]) / w_c[:, None]
        return LinearMap(mat, self.col_space, self.row_space)

    def compose(self, other):
        """self o other (matrix product); other's rows must be our columns."""
        if other.row_space.dim != self.col_space.dim:
            raise ValueError("incompatible composition")
        return LinearMap(self.matrix @ other.matrix, self.row_space, other.col_space)

    # -- weighted SVD machinery ---------------------------------------------
    def _weighted(self):
        if self._svd is None:
            if max(self.matrix.shape) > MAX_DENSE_DIM:
                raise ValueError(
                    "dense SVD limited to dimension %d; use a smaller lattice"
                    % MAX_DENSE_DIM
                )
            sr = np.sqrt(self.row_space.weights)
            sc = np.sqrt(self.col_space.weights)
            m_hat = (self.matrix * sr[:, None]) / sc[None, :]
            u, s, vt = np.linalg.svd(m_hat, full_matrices=True)
            self._svd = (u, s, vt, sr, sc)
        return self._svd

    def singular_values(self):
        return self._weighted()[1]

    def rank(self):
        u, s, vt, _, _ = self._weighted()
        if s.size == 0 or s[0] == 0.0:
            return 0, (np.inf, 0.0)
        cutoff = max(self.matrix.shape) * s[0] * RANK_REL_CUTOFF
        r = int(np.sum(s > cutoff))
        retained = s[r - 1] if r > 0 else np.inf
        discarded = s[r] if r < s.size else 0.0
        if discarded > 0 and retained / discarded < RANK_MARGIN:
            warnings.warn(
                "rank decision margin below 10x (retained %.3e, discarded %.3e)"
                % (retained, discarded),
                RankMarginWarning,
            )
        return r, (retained, discarded)

    def kernel_basis(self):
        """Columns: an orthonormal kernel basis in the weighted metric."""
        u, s, vt, sr, sc = self._weighted()
        r, _ = self.rank()
        null_hat = vt[r:].T
        return null_hat / sc[:, None]

    def cokernel_basis(self):
        u, s, vt, sr, sc = self._weighted()
        r, _ = self.rank()
        return u[:, r:] / sr[:, None]

    def pinv_apply(self, y):
        """Weighted least-squares solution of minimal norm; y is a vector or a column stack."""
        u, s, vt, sr, sc = self._weighted()
        r, _ = self.rank()
        if np.ndim(y) == 2:
            s, sr, sc = s[:, None], sr[:, None], sc[:, None]
        coeff = (u[:, :r].T @ (sr * y)) / s[:r]
        return (vt[:r].T @ coeff) / sc

    def operator_norm(self):
        s = self.singular_values()
        return float(s[0]) if s.size else 0.0


# ---------------------------------------------------------------------------
# tangent configurations


@dataclass
class TangentConfig:
    """Tangent (b, v) at a configuration; b is None for the trivial group."""

    b: np.ndarray
    v: np.ndarray

    def copy(self):
        return TangentConfig(None if self.b is None else self.b.copy(), self.v.copy())


def pack_tangent(space: TangentSpace, t: TangentConfig):
    return space.pack(t.b, t.v)


def unpack_tangent(space: TangentSpace, vec):
    b, v = space.unpack(vec)
    return TangentConfig(b, v)


def random_tangent(c: Configuration, seed, amplitude=1.0) -> TangentConfig:
    rng = np.random.default_rng(seed)
    v = amplitude * rng.normal(size=c.geom.dims + (4,))
    if c.group is GaugeGroup.TRIVIAL:
        return TangentConfig(None, v)
    b = amplitude * rng.normal(size=c.geom.dims + (4,))
    for i in range(4):
        b[..., i] *= lat.forward_link_exists(c.geom, i)
    return TangentConfig(b, v)


# ---------------------------------------------------------------------------
# operator assembly


def _assemble(shape, blocks):
    """Dense matrix summed in one bincount from (rows, cols, values) blocks.

    The three arrays of a block broadcast together; entries named more
    than once add up.
    """
    flat, vals = zip(*(np.broadcast_arrays(r * shape[1] + c, v) for r, c, v in blocks))
    out = np.bincount(
        np.concatenate([f.ravel() for f in flat]),
        weights=np.concatenate([v.ravel() for v in vals]),
        minlength=shape[0] * shape[1],
    )
    return out.reshape(shape)


def lin_gauge(c: Configuration) -> LinearMap:
    """Linearized gauge action: xi -> (d xi, -K_xi|_u)."""
    geom = c.geom
    lay = layout(geom, c.group)
    cols, rows = lay.gauge, lay.tangent
    if c.group is GaugeGroup.TRIVIAL:
        return LinearMap(np.zeros((rows.dim, cols.dim)), rows, cols)
    links = np.arange(rows.n_links)
    ku = quat.mul(c.u.values, quat.QI).reshape(-1, 4)  # K_1|_u = u i
    mat = _assemble((rows.dim, cols.dim), [
        (links, lay.nb[rows.link_axes, rows.link_sites], 1.0 / geom.h),
        (links, rows.link_sites, -1.0 / geom.h),
        (lay.spinor_c, np.arange(geom.n_sites)[:, None], -ku),
    ])
    return LinearMap(mat, rows, cols)


def lin_gauge_adjoint(c: Configuration) -> LinearMap:
    """Exact weighted transpose of lin_gauge (the slice operator)."""
    return lin_gauge(c).adjoint()


def lin_gauge_adjoint_formula(c: Configuration, zeta) -> LinearMap:
    """Slice operator from the moment-map formula d_u mu_zeta(I_zeta v).

    Provided for the zeta-independence and dual-pairing cross-checks;
    zeta must be a unit imaginary quaternion.
    """
    from .targets import moment_values_diff

    geom = c.geom
    lay = layout(geom, c.group)
    rows, cols = lay.gauge, lay.tangent
    mat = np.zeros((rows.dim, cols.dim))
    if c.group is GaugeGroup.TRIVIAL:
        return LinearMap(mat, rows, cols)
    n = geom.n_sites
    # d* on the one-form block
    links = np.arange(cols.n_links)
    mat[cols.link_sites, links] += -1.0 / geom.h
    mat[lay.nb[cols.link_axes, cols.link_sites], links] += 1.0 / geom.h
    # pointwise term: for each spinor basis direction e_a evaluate
    # d_u mu_zeta (zeta e_a) sitewise
    zim = np.asarray(zeta, dtype=float)[1:]
    for a in range(4):
        w = quat.mul(zeta, quat.BASIS[a])
        dmu = moment_values_diff(c.u.values, w, c.group)  # (...,3)
        coef = dmu.reshape(-1, 3) @ zim
        mat[np.arange(n), cols.spinor_dof(np.arange(n), a)] += coef
    return LinearMap(mat, rows, cols)


def linearize_fsw(c: Configuration) -> LinearMap:
    """Exact Jacobian of the residual map on the trusted equation rows.

    Every block is built as (row, col, value) triplets over the trusted
    sites, whose stencils only reach existing links, and the matrix is
    summed from them in one scatter; the indices come from the layout.
    """
    h = c.geom.h
    lay = layout(c.geom, c.group)
    cols, rows, nb = lay.tangent, lay.equations, lay.nb
    sites = rows.dirac_sites

    # Dirac rows, spinor columns: sum_i e_i (v(x+e_i) T_i - v(x)) / h, with
    # neighbor blocks blk[i, n, c, r] = (e_i e_c e^{i h a_i(x_n)})_r / h
    if c.a.links is None:
        blk = quat.MUL_TABLE[:, None] / h
    else:
        theta = h * c.a.links.reshape(-1, 4)[sites].T  # (i, n)
        blk = quat.mul_exp_i(quat.MUL_TABLE[:, None], theta[..., None]) / h
    blocks = [
        (lay.dirac_r[:, None, :], lay.dirac_nb_c, blk),
        (lay.dirac_r[:, None, :], lay.dirac_here_c, -quat.MUL_TABLE.sum(axis=0) / h),
    ]

    if c.group is not GaugeGroup.TRIVIAL:
        # Dirac rows, one-form columns: e_i (T_i u(x+e_i)) i per link
        u_flat = c.u.values.reshape(-1, 4)
        w = quat.mul_exp_i(u_flat[nb[:, sites]], theta)
        blocks.append((lay.dirac_r, lay.dirac_link_c, w @ _DIRAC_LINK.transpose(0, 2, 1)))

        # self-dual rows, one-form columns: d^+ b, with
        # F_p(x) = (b_j(x+e_i) - b_j(x) - b_i(x+e_j) + b_i(x)) / h
        blocks.append((lay.plaq_r, lay.plaq_c, (0.5 / h) * np.array([[1.0], [-1.0], [-1.0], [1.0]])))

        # self-dual rows, spinor columns: d_u Phi_4(e_a) on the trusted sites
        dphi = phi4_diff(u_flat[rows.sd_sites][:, None], quat.BASIS, c.group)  # (site, a, l)
        blocks.append((lay.sd_r, lay.sd_spinor_c, dphi))
    mat = _assemble((rows.dim, cols.dim), blocks)
    return LinearMap(mat, rows, cols)


def stacked_op(eq: LinearMap, gauge: LinearMap) -> LinearMap:
    """[E; D*]: equations E stacked over the slice operator of the gauge map D."""
    rows = BlockSpace(list(eq.row_space.blocks) + list(gauge.col_space.blocks))
    return LinearMap(np.vstack([eq.matrix, gauge.adjoint().matrix]), rows, eq.col_space)


def elliptic_op(c: Configuration) -> LinearMap:
    """The linearized equations stacked over the gauge slice condition."""
    return stacked_op(linearize_fsw(c), lin_gauge(c))


def residual_rowvec(c: Configuration, s: Sources, space: EquationSpace):
    """Residual on the trusted rows of `space`, gathered through the layout's `nb`.

    Dirac rows are sum_i e_i (T_i u(x+e_i) - u(x)) / h - psi, with the
    neighbour first flipped into the half-space of u(x) on cone targets;
    self-dual rows are the plaquette differences' self-dual part plus
    Phi_4(u) minus eta.  Agrees with space.pack of the full-field
    reference `gsw.residual`.
    """
    h = c.geom.h
    nb = layout(c.geom, c.group).nb
    sites = space.dirac_sites
    u = c.u.values.reshape(-1, 4)
    here = u[sites]
    there = u[nb[:, sites]]  # (axis, site, 4)
    if c.u.kind is TargetKind.CONE_H_MOD_Z2:
        there = lat._cone_align(there, here)
    if c.a.links is not None:
        there = quat.mul_exp_i(there, h * c.a.links.reshape(-1, 4)[sites].T)
    terms = ((there - here) / h) @ quat.MUL_TABLE  # e_i (d_A u)_i, exact signed permutations
    dirac = terms[0] + terms[1] + terms[2] + terms[3] - s.psi.reshape(-1, 4)[sites]
    ss = space.sd_sites
    if not ss.size:
        return dirac.reshape(-1)
    # F_p = (b_j(x+e_i) - b_j(x)) / h - (b_i(x+e_j) - b_i(x)) / h for plaquette p = (i, j)
    b = c.a.links.reshape(-1, 4)
    pi, pj = _PLAQ_I[:, None], _PLAQ_J[:, None]
    f = (b[nb[pi, ss], pj] - b[ss, pj]) / h - (b[nb[pj, ss], pi] - b[ss, pi]) / h
    sd = 0.5 * (f[:3] + f[3:]).T + 0.5 * moment_values(u[ss], c.group)
    sd -= s.eta.values.reshape(-1, 3)[ss]
    return np.concatenate([dirac.reshape(-1), sd.reshape(-1)])


def second_derivative_rows(c: Configuration, t1: TangentConfig, t2: TangentConfig, space: EquationSpace):
    """Exact mixed second derivative of the residual map along (t1, t2).

    Dirac rows pick up the gauge-coupling cross terms and the
    second-order link-exponential term; self-dual rows carry the
    constant Hessian of the quadratic moment map.
    """
    geom = c.geom
    from .targets import moment_values_diff

    dirac = np.zeros(geom.dims + (4,))
    if c.a.links is not None:
        # flat-kind fields: like linearize_fsw, no cone alignment of neighbours
        u, v1, v2 = (lat.SpinorField(geom, f) for f in (c.u.values, t1.v, t2.v))
        for i in range(4):
            b1 = t1.b[..., i][..., None]
            b2 = t2.b[..., i][..., None]
            term = quat.mul(lat._transported(v1, c.a, i, +1), quat.QI) * b2
            term = term + quat.mul(lat._transported(v2, c.a, i, +1), quat.QI) * b1
            term = term - geom.h * lat._transported(u, c.a, i, +1) * (b1 * b2)
            dirac += quat.mul(quat.BASIS[i], term)
    if c.group is GaugeGroup.TRIVIAL:
        sd = np.zeros(geom.dims + (3,))
    else:
        sd = 0.5 * (
            moment_values_diff(t1.v, t2.v, c.group)
        )
    return space.pack(dirac, sd)


# ---------------------------------------------------------------------------
# cohomology and the local chart


@dataclass
class CohomologyReport:
    h0: int
    h1: int
    h2: int
    index: int
    margins: dict
    warnings_: list = field(default_factory=list)

    def as_dict(self):
        return {
            "h0": self.h0,
            "h1": self.h1,
            "h2": self.h2,
            "index": self.index,
            "margins": {k: list(v) for k, v in self.margins.items()},
            "warnings": list(self.warnings_),
        }


def cohomology(c: Configuration) -> CohomologyReport:
    """Dimensions of the deformation cohomology at c.

    h0 = dim ker(gauge linearization), h1 = dim ker(elliptic operator),
    h2 = dim coker(equations restricted to the slice), computed as
    coker(elliptic) minus coker(slice operator).
    """
    margins = {}
    warns = []
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always", RankMarginWarning)
        d = lin_gauge(c)
        rank_d, margins["lin_gauge"] = d.rank()
        h0 = d.col_space.dim - rank_d
        op = elliptic_op(c)
        rank_op, margins["elliptic_op"] = op.rank()
        h1 = op.col_space.dim - rank_op
        coker_op = op.row_space.dim - rank_op
        h2 = coker_op - h0
        warns = [str(w.message) for w in wlist]
    index = h1 - h0 - h2
    return CohomologyReport(h0, h1, h2, index, margins, warns)


def complex_check(c: Configuration, s: Sources):
    """Operator norm of (linearized equations) o (gauge linearization).

    Vanishes at solutions whose sources are gauge invariant (psi = 0);
    a Dirac-row source breaks strict equivariance and shows up here at
    the scale of |psi|.  Warns when c is not on-shell.
    """
    res = residual_norm(c, s)
    if res > 1e-8:
        warnings.warn(
            "complex_check evaluated off-shell (residual %.3e); the identity "
            "only holds at solutions" % res
        )
    comp = linearize_fsw(c).compose(lin_gauge(c))
    return comp.operator_norm()


def _orthonormal_complement(basis, inside, weights):
    """Orthonormalize `inside` against span(basis) in the weighted metric."""
    if basis.shape[1] == 0:
        keep = inside
    else:
        gram = basis.T @ (inside * weights[:, None])
        keep = inside - basis @ gram
    q, r = np.linalg.qr(keep * np.sqrt(weights)[:, None])
    diag = np.abs(np.diag(r))
    cols = diag > 1e-8 * (diag.max() if diag.size else 1.0)
    return (q[:, cols]) / np.sqrt(weights)[:, None]


def _complete_plane_basis(space: BlockSpace, v, w, rest):
    """Weighted-orthonormal basis starting with (v, w), completed by rest."""
    cols = [v, w]
    for k in range(rest.shape[1]):
        x = rest[:, k]
        for c in cols:
            x = x - c * space.inner(c, x)
        nrm = space.norm(x)
        if nrm > 1e-8:
            cols.append(x / nrm)
    return np.stack(cols, axis=1)


class ChartFrame:
    """Linear data of the solution-set chart over ker [E; D*] at a point.

    `kernel` is a weighted-orthonormal basis of ker [E; D*], led by the
    plane (v, w) when `lead` is given; `coker` spans coker E; `w_basis`
    completes the kernel inside the gauge slice ker D*.  The chord
    matrix is E on `w_basis`, projected off the cokernel.
    """

    def __init__(self, eq: LinearMap, gauge: LinearMap, lead=None):
        self.eq = eq
        kernel = stacked_op(eq, gauge).kernel_basis()
        if lead is not None:
            led = _complete_plane_basis(eq.col_space, *lead, kernel)
            if led.shape[1] != kernel.shape[1]:
                raise ValueError("plane vectors must lie in the solution-set tangent space")
            kernel = led
        self.kernel = kernel
        self.coker = eq.cokernel_basis()
        self.w_basis = _orthonormal_complement(
            kernel, gauge.adjoint().kernel_basis(), eq.col_space.weights
        )
        red = eq.matrix @ self.w_basis
        red = red - self.coker @ (
            self.coker.T @ (red * eq.row_space.weights[:, None])
        )
        self._chord = LinearMap(
            red, eq.row_space, BlockSpace([("w", self.w_basis.shape[1], 1.0)])
        )

    def coker_coeffs(self, r):
        """Cokernel coefficients of equation rows r."""
        return self.coker.T @ (r * self.eq.row_space.weights)

    def newton(self, rows_at, base, tol, max_iter):
        """Chord Newton for base + w_basis @ y with rows_at = 0 off the cokernel.

        Returns (vec, rows_at(vec), info); info holds the iterations, the
        convergence flag, the divergence flag and the norm of the projected
        rows at the last test.  The loop stops as diverged, returning that
        iterate, once the projected rows are non-finite or larger than at
        the previous iteration.  Without convergence or divergence vec
        carries the last step.
        """
        norm = self.eq.row_space.norm
        y = np.zeros(self.w_basis.shape[1])
        info = {"iters": 0, "converged": False, "diverged": False, "proj_residual": np.inf}
        for it in range(1, max_iter + 1):
            vec = base + self.w_basis @ y
            r = rows_at(vec)
            pr = r - self.coker @ self.coker_coeffs(r)
            last, info["iters"] = info["proj_residual"], it
            info["proj_residual"] = norm(pr)
            if info["proj_residual"] <= tol:
                info["converged"] = True
                return vec, r, info
            if not np.isfinite(info["proj_residual"]) or info["proj_residual"] > last:
                info["diverged"] = True
                return vec, r, info
            y = y + self._chord.pinv_apply(-pr)
        vec = base + self.w_basis @ y
        return vec, rows_at(vec), info


class KuranishiChart:
    """Local chart of the solution set over ker(elliptic operator).

    phi(xi) solves the equations projected off the cokernel, inside the
    gauge slice and orthogonal to the kernel; kappa(xi) is the cokernel
    component of the full residual at phi(xi).
    """

    def __init__(self, c: Configuration, s: Sources, tol=1e-11, max_iter=60):
        self.c = c
        self.s = s
        self.tol = tol
        self.max_iter = max_iter
        self.eq = linearize_fsw(c)
        self.space = self.eq.col_space
        self.frame = ChartFrame(self.eq, lin_gauge(c))

    @property
    def h1_dim(self):
        return self.frame.kernel.shape[1]

    @property
    def h2_dim(self):
        return self.frame.coker.shape[1]

    def _rows_at(self, tangent_vec):
        b, v = self.space.unpack(tangent_vec)
        c2 = self.c.copy()
        if c2.group is not GaugeGroup.TRIVIAL:
            c2.a.links = c2.a.links + b
        c2.u.values = c2.u.values + v
        return residual_rowvec(c2, self.s, self.eq.row_space)

    def solve(self, xi):
        """Return (phi_vec, kappa_coeffs, info) for chart coordinates xi."""
        base = self.frame.kernel @ np.asarray(xi, dtype=float)
        vec, r, info = self.frame.newton(self._rows_at, base, self.tol, self.max_iter)
        info["full_residual"] = self.eq.row_space.norm(r)
        return vec, self.frame.coker_coeffs(r), info

    def kappa_norm(self, xi):
        _, kappa, info = self.solve(xi)
        return float(np.linalg.norm(kappa)), info


@dataclass
class KuranishiReport:
    h_dims: tuple
    regular: bool
    smooth: bool
    kappa0: float
    samples: list

    def as_dict(self):
        return {
            "h0": self.h_dims[0],
            "h1": self.h_dims[1],
            "h2": self.h_dims[2],
            "regular": self.regular,
            "smooth": self.smooth,
            "kappa0": self.kappa0,
            "samples": self.samples,
        }


def kuranishi(
    c: Configuration,
    s: Sources,
    radius=1e-2,
    tol=1e-11,
    n_samples=20,
    seed=0,
) -> KuranishiReport:
    """Sample the local chart on a ball in ker(elliptic operator).

    Classification: regular iff h2 = 0; smooth iff additionally the
    stabilizer Lie algebra is trivial (h0 = 0).  Per-sample records
    carry the kappa norm, Newton iterations and the convergence and
    divergence flags.
    """
    rep = cohomology(c)
    chart = KuranishiChart(c, s, tol=tol)
    kappa0, info0 = chart.kappa_norm(np.zeros(chart.h1_dim))
    rng = np.random.default_rng(seed)
    samples = []
    for k in range(n_samples):
        xi = rng.normal(size=chart.h1_dim)
        nrm = np.linalg.norm(xi)
        if nrm > 0:
            xi *= radius * rng.uniform() ** (1.0 / max(chart.h1_dim, 1)) / nrm
        knorm, info = chart.kappa_norm(xi)
        samples.append(
            {
                "sample": k,
                "kappa_norm": knorm,
                "iters": info["iters"],
                "converged": bool(info["converged"]),
                "diverged": bool(info["diverged"]),
                "proj_residual": info["proj_residual"],
            }
        )
    return KuranishiReport(
        (rep.h0, rep.h1, rep.h2),
        rep.h2 == 0,
        rep.h2 == 0 and rep.h0 == 0,
        kappa0,
        samples,
    )


# ---------------------------------------------------------------------------
# matrix export


def export_triplets(path, lm: LinearMap):
    """Write a LinearMap's nonzero entries in the documented sparse triplet text format.

    Line 1: `rows cols nnz`; then one `row col value` triple per line
    (0-based indices, repr floats), sorted by row then column.
    """
    mat = lm.matrix
    rr, cc = np.nonzero(mat)
    order = np.lexsort((cc, rr))
    with open(path, "w") as fh:
        fh.write("%d %d %d\n" % (mat.shape[0], mat.shape[1], rr.size))
        for k in order:
            fh.write("%d %d %s\n" % (rr[k], cc[k], repr(float(mat[rr[k], cc[k]]))))
