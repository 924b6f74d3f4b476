"""Deformation complex of the gauged Dirac system, as triplets and matrices.

Every operator is a `LinearMap` between block-tagged row/column spaces
carrying diagonal metric weights (h^4 per site dof, 2 h^4 for self-dual
components).  The Jacobian blocks keep the (row, col, value) triplets
they are assembled from, and the dense matrix is summed from them only
when a dense reader first asks for it.  Adjoints are exact weighted
transposes; ranks come from the singular values of the weight-normalized
matrix, with the cutoff  max(shape) * sigma_max * 1e-10  and a 10x margin
warning, and kernels and cokernels from its full SVD, computed only
where read.  A map whose blocks decouple is factored part by part: at
u = 0, E is the Dirac operator on spinors beside d^+ on one-forms, and D*
is d* on one-forms with every spinor in its kernel.  The Newton step of
`gsw.solve_newton` never densifies: it runs `lsqr` on the
weight-normalized triplets.  On a torus that LSQR is right-preconditioned
by P = M^(-1/2), M = A0^T A0 + mu I, A0 the flat [E; D*] at u = 0, a = 0
and mu the mean |u|^2 (`fourier_preconditioner`): A0 is translation
invariant, so the FFT diagonalises M into one small block per mode
(Davies et al., "Fourier acceleration in lattice gauge theories", Phys.
Rev. D 37 (1988) 1581).  The step is the minimum-norm one where [E; D*]
is injective, at u = 0, and for every inconsistent system, which `lsqr`
solves again without P.  A box keeps plain LSQR.

Equation rows are restricted to the trusted stencil support
(`gsw.row_masks`); on a box this leaves the faces unconstrained, which
is what makes under-determined smooth solution families possible.
All assemblies use the forward/backward stencil pairing so that the
matrix adjoints are the discrete adjoints exactly.

One `DofLayout` per (geom, group), from the bounded cache
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
from .targets import GaugeGroup, TargetKind, moment_values, moment_values_diff

RANK_REL_CUTOFF = 1e-10
RANK_MARGIN = 10.0
MAX_DENSE_DIM = 4096
LSQR_TOL = 1e-15
LSQR_MAX_ITER = 10000

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
        """Weighted inner product over the last axis: a float, or an array over leading axes."""
        s = np.sum(x * y * self.weights, axis=-1)
        return float(s) if s.ndim == 0 else s

    def norm(self, x):
        return np.sqrt(np.maximum(self.inner(x, x), 0.0))


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
        """Return (b_links fullshape or None, v_sites array); leading axes of vec are kept."""
        lead = vec.shape[:-1]
        v = vec[..., self.n_links :].reshape(lead + self.geom.dims + (4,)).copy()
        if self.group is GaugeGroup.TRIVIAL:
            return None, v
        b = np.zeros(lead + (self.n_sites, 4))
        b[..., self.link_sites, self.link_axes] = vec[..., : self.n_links]
        return b.reshape(lead + self.geom.dims + (4,)), v


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
def layout(geom: LatticeGeom, group: GaugeGroup) -> DofLayout:
    """The cached layout of (geom, group); equal geoms share one entry."""
    return DofLayout(geom, group)


def moved(c: Configuration, vec) -> Configuration:
    """A copy of c moved additively by the packed tangent vector vec (flat targets)."""
    b, v = layout(c.geom, c.group).tangent.unpack(vec)
    out = c.copy()
    if b is not None:
        out.a.links = out.a.links + b
    out.u.values = out.u.values + v
    return out


# ---------------------------------------------------------------------------
# linear maps


def lsqr(matvec, rmatvec, b, precondition=None):
    """Minimum-norm least-squares solution of A x = b by LSQR; returns (x, iterations).

    Paige & Saunders, ACM TOMS 8 (1982), from x = 0 with no damping, on
    matvec(x) = A x and rmatvec(u) = A^T u.  It stops as scipy's `lsqr`
    does at atol = btol = LSQR_TOL, with no condition limit: once
    |r| <= btol |b| + atol |A| |x| (a consistent system) or |A^T r| <=
    atol |A| |r| (a least-squares one), |A| the running Frobenius estimate.
    Raises LinAlgError when neither holds after LSQR_MAX_ITER iterations.

    `precondition`, g -> (P g, P^2 g) as one (2, n) array for a symmetric
    positive definite P, runs the same loop on A P (right preconditioning)
    and returns x = P y, y its minimum-norm solution: of the least-squares
    solutions, the one of least |P^-1 x|, which is the least |x| where A is
    injective or ker A is an invariant subspace of P.  Each vector of the
    loop (v, w, y) is carried beside its image under P, so A P v is
    matvec(P v) and x comes with y.  The stop test is LSQR's own on A P:
    it reads |y| = |P^-1 x| for |x|, A P's running Frobenius estimate for
    |A|, and |P A^T r| for |A^T r|.  A square A whose run ends on the
    least-squares test leaves part of b off its range, so it has a kernel,
    where the two norms may part: the loop then runs again without P and
    returns that x, with the iterations of both runs.  Without a
    preconditioner the vectors are carried alone, and the iterates are
    those of the unpreconditioned loop bit for bit.
    """
    lift = (lambda g: g[None]) if precondition is None else precondition
    beta = np.linalg.norm(b)
    u = b / beta if beta > 0 else b
    v = lift(rmatvec(u))  # rows: v, then P v when preconditioned
    alpha = np.linalg.norm(v[0])
    x = np.zeros_like(v)  # rows: y, then x = P y
    if alpha == 0:  # b = 0, or b orthogonal to the range
        return x[-1], 0
    v = v / alpha
    w = v.copy()
    b_norm, phibar, rhobar, a_norm2 = beta, beta, alpha, 0.0
    for it in range(1, LSQR_MAX_ITER + 1):
        u = matvec(v[-1]) - alpha * u
        beta = np.linalg.norm(u)
        if beta > 0:
            u = u / beta
            a_norm2 += alpha**2 + beta**2
            v = lift(rmatvec(u)) - beta * v
            alpha = np.linalg.norm(v[0])
            if alpha > 0:
                v = v / alpha
        # a plane rotation eliminates the subdiagonal beta
        rho = np.hypot(rhobar, beta)
        c, s = rhobar / rho, beta / rho
        theta, rhobar = s * alpha, -c * alpha
        phi, phibar = c * phibar, s * phibar
        x = x + (phi / rho) * w
        w = v - (theta / rho) * w
        a_norm = np.sqrt(a_norm2)
        ar_norm = alpha * abs(s * phi)
        if phibar <= LSQR_TOL * (b_norm + a_norm * np.linalg.norm(x[0])):
            return x[-1], it
        if ar_norm <= LSQR_TOL * a_norm * phibar:
            if precondition is None or b.size != x.shape[-1]:
                return x[-1], it
            x, more = lsqr(matvec, rmatvec, b)  # a square A with a kernel: the least |x|
            return x, it + more
    raise np.linalg.LinAlgError("LSQR did not converge in %d iterations" % LSQR_MAX_ITER)


class LinearMap:
    """Linear map between block spaces with exact weighted adjoints.

    It is given as a dense matrix, or (matrix None) as `blocks` of
    (rows, cols, values) triplets that broadcast together, from which
    `matrix` is summed by `_assemble` when first read.  Its weight-normalised
    matrix is factored only as far as it is read: one cached singular-value
    set decides the rank, full U and V are computed for the (co)kernel bases
    and pseudo-inverses, and LU inverts a square map of full rank.  A map
    whose named blocks fall into independent parts (`_parts`) takes one SVD
    per part, no global U or V, and the readers gather their columns part by
    part; a coupled map takes the one SVD of the whole matrix.
    `lsqr_apply`, on a map given by triplets, reads them alone.

    A map may also be a stack of maps between the same spaces, one per
    configuration of a stacked `Configuration`: the dense matrix, or the
    triplet values, then carry leading axes.  `matrix`, `apply` and
    `range_projector` (from the triplets alone) act map by map; the
    factorisations read a single map.
    """

    def __init__(self, matrix, row_space: BlockSpace, col_space: BlockSpace, blocks=None):
        self.row_space = row_space
        self.col_space = col_space
        self.shape = (row_space.dim, col_space.dim)
        self.blocks = blocks
        self._matrix = None if matrix is None else np.ascontiguousarray(matrix, dtype=float)
        if self._matrix is not None and self._matrix.shape[-2:] != self.shape:
            raise ValueError("matrix shape does not match block spaces")
        self._svd = None
        self._values = self._owner = None  # singular values, descending, and each one's part
        self._rank = None

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix = _assemble(self.shape, self.blocks)
        return self._matrix

    # -- basic algebra -----------------------------------------------------
    def apply(self, x):
        return self.matrix @ x

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

    # -- weighted factorisations --------------------------------------------
    def _normalised(self):
        """(m_hat, sr, sc) with m_hat = sr M / sc, the matrix in unit weights."""
        if max(self.shape) > MAX_DENSE_DIM:
            raise ValueError("dense SVD limited to dimension %d; use a smaller lattice" % MAX_DENSE_DIM)
        sr = np.sqrt(self.row_space.weights)
        sc = np.sqrt(self.col_space.weights)
        return (self.matrix * sr[:, None]) / sc[None, :], sr, sc

    def _parts(self, m_hat):
        """[(rows, cols)] index arrays of the decoupled parts of m_hat, or [(:, :)] for a coupled map.

        A part is a connected component of the nonempty named blocks, a block
        pair with a nonzero entry (at most one `any` each) joining a row and a column.
        """
        rb, cb = ([sp.block(name) for name, n, _ in sp.blocks if n] for sp in (self.row_space, self.col_space))
        part = list(range(len(rb) + len(cb)))  # each block's part, named by its first block, rows first
        for i, r in enumerate(rb):
            for j, c in enumerate(cb, len(rb)):
                if part[i] != part[j] and m_hat[r, c].any():
                    old, new = max(part[i], part[j]), min(part[i], part[j])
                    part = [new if p == old else p for p in part]
        leads = sorted(set(part))
        if len(leads) < 2:
            return [(slice(None), slice(None))]
        sizes, m = [b.stop - b.start for b in rb + cb], self.shape[0]
        dofs = [np.flatnonzero(np.repeat(np.equal(part, lead), sizes)) for lead in leads]  # rows, then columns
        return [(d[d < m], d[d >= m] - m) for d in dofs]

    def _factors(self, compute_uv):
        """([(rows, cols, u, s, vt)] per part, sr, sc): full SVDs, or values only (u, vt None)."""
        m_hat, sr, sc = self._normalised()
        parts, out = self._parts(m_hat), []
        for rows, cols in parts:
            sub = m_hat if len(parts) == 1 else m_hat[np.ix_(rows, cols)]
            if not sub.size:  # no rows (all kernel) or no columns (all cokernel): no SVD
                u, s, vt = np.eye(sub.shape[0]), np.zeros(0), np.eye(sub.shape[1])
            elif compute_uv:
                u, s, vt = np.linalg.svd(sub, full_matrices=True)
            else:
                u, s, vt = None, np.linalg.svd(sub, compute_uv=False), None
            out.append((rows, cols, u, s, vt))
        return out, sr, sc

    def _factored(self):
        """(parts, ranks, sr, sc): the cached full factors of each part, and its share of the rank."""
        if self._svd is None:
            self._svd = self._factors(True)  # before a first rank(), which then reads these values
        parts, sr, sc = self._svd
        r = self.rank()[0]  # sets _owner
        return parts, np.bincount(self._owner[:r], minlength=len(parts)), sr, sc

    def singular_values(self):
        """Values-only, unless the full factors came first: all parts' values, descending, padded with zeros."""
        if self._values is None:
            parts = (self._svd or self._factors(False))[0]
            s = np.concatenate([part[3] for part in parts])
            order = np.argsort(-s, kind="stable")
            self._owner = np.repeat(np.arange(len(parts)), [part[3].size for part in parts])[order]
            self._values = np.concatenate([s[order], np.zeros(min(self.shape) - s.size)])
        return self._values

    def rank(self):
        """(rank, (retained, discarded)), decided once per map: a margin below 10x warns once."""
        if self._rank is None:
            s = self.singular_values()
            cutoff = max(self.shape) * s.max(initial=0.0) * RANK_REL_CUTOFF
            r = int(np.sum(s > cutoff))
            retained = s[r - 1] if r > 0 else np.inf
            discarded = s[r] if r < s.size else 0.0
            if discarded > 0 and retained / discarded < RANK_MARGIN:
                warnings.warn(
                    "rank decision margin below 10x (retained %.3e, discarded %.3e)"
                    % (retained, discarded),
                    RankMarginWarning,
                )
            self._rank = r, (retained, discarded)
        return self._rank

    def _gathered(self, side):
        """Kernel (side 1) or cokernel (side 0) basis, weighted-orthonormal, gathered part by part."""
        parts, ranks, sr, sc = self._factored()
        found = []
        for (rows, cols, u, s, vt), r in zip(parts, ranks):
            found.append((cols if side else rows, (vt.T if side else u)[:, r:]))
        ends = np.cumsum([basis.shape[1] for _, basis in found])
        out = np.zeros((self.shape[side], ends[-1]))
        for (idx, basis), end in zip(found, ends):  # each part's columns, zero off its own rows
            out[idx, end - basis.shape[1]:end] = basis
        out /= (sc if side else sr)[:, None]
        return out

    def kernel_basis(self):
        """Columns: an orthonormal kernel basis in the weighted metric."""
        return self._gathered(1)

    def cokernel_basis(self):
        return self._gathered(0)

    def kernel_space(self):
        """Unit-weight coordinates on `kernel_basis`, one named block per part, so a map on them splits as this one."""
        parts, ranks = self._factored()[:2]
        return BlockSpace([("part %d" % k, part[4].shape[0] - r, 1.0) for k, (part, r) in enumerate(zip(parts, ranks))])

    def pinv_apply(self, y):
        """Weighted least-squares solution of minimal norm; y is a vector or a column stack."""
        col = (slice(None), None) if np.ndim(y) == 2 else slice(None)
        m, n = self.shape
        if m == n and self.rank()[0] == n:  # square of full rank: LU, whatever is cached
            m_hat, sr, sc = self._normalised()
            return np.linalg.solve(m_hat, sr[col] * y) / sc[col]
        parts, ranks, sr, sc = self._factored()
        y_hat, x = sr[col] * y, np.zeros((n,) + np.shape(y)[1:])
        for (rows, cols, u, s, vt), r in zip(parts, ranks):
            x[cols] = vt[:r].T @ ((u[:, :r].T @ y_hat[rows]) / s[:r][col])
        return x / sc[col]

    def _unit_triplets(self):
        """(rows, cols, values) of all blocks, flattened, with the values weight-normalised to sr M / sc."""
        rows, cols, vals = (np.concatenate([a.ravel() for a in arrays])
                            for arrays in zip(*(np.broadcast_arrays(*b) for b in self.blocks)))
        sr, sc = np.sqrt(self.row_space.weights), np.sqrt(self.col_space.weights)
        return rows, cols, vals * sr[rows] / sc[cols]

    def lsqr_apply(self, y, precondition=None):
        """`pinv_apply` of the vector y by `lsqr`, matrix-free: returns (x, LSQR iterations).

        Reads only the map's triplets, weight-normalised to sr M / sc, and
        never forms, factors or rank-checks a dense matrix.  `precondition`
        acts in those unit-weight columns (see `lsqr`).
        """
        rows, cols, vals = self._unit_triplets()
        sr, sc = np.sqrt(self.row_space.weights), np.sqrt(self.col_space.weights)
        m, n = self.shape
        z, iters = lsqr(lambda x: np.bincount(rows, vals * x[cols], m),
                        lambda u: np.bincount(cols, vals * u[rows], n), sr * y, precondition)
        return z / sc, iters

    def range_projector(self):
        """Callable t -> t - L L^+ t, the weighted projection off the range, t a vector or column stack.

        Reads the map's triplets, never a dense stacked matrix.  The blocks with
        no stack axis are summed once into a dense block on the rows they name;
        every other triplet must be alone in its row, so in unit weights each
        map's normal matrix L* L is that block's normal matrix plus the
        diagonal of the squared values of those triplets, summed by column (for
        the gauge map D: L0 + diag |u(x)|^2, L0 the link Laplacian).  The
        stacked triplets are applied by a gather and a segment sum.
        LinAlgError (rank loss) unless each map's normal-matrix eigenvalues
        have lambda_min > RANK_MARGIN n eps lambda_max, n = max(shape):
        `eigvalsh` resolves no singular value below about sqrt(n eps) s_max,
        above the `rank` cutoff, so when this returns `rank` keeps every
        column.  Gershgorin discs bound lambda_min below and lambda_max above
        (for D they give min |u|^2 and the largest disc); a map they certify
        skips `eigvalsh`, which decides every other one, so the decision is
        `eigvalsh`'s.  A stack of maps projects the same t, or its own t of a
        stack of column stacks, at each and returns a stack.
        """
        m, n = self.shape
        w_r, sc = self.row_space.weights, np.sqrt(self.col_space.weights)
        fixed, rows, cols, vals = _split_stacked(self.blocks)
        fixed_rows = np.concatenate([r.ravel() for r, _, _ in fixed] + [np.zeros(0, int)])
        held = np.flatnonzero(np.bincount(fixed_rows, minlength=m))
        if np.bincount(np.concatenate([held, rows]), minlength=m).max(initial=0) > 1:
            raise ValueError("range_projector needs each stacked triplet alone in its row")
        # K = L / sc (columns in unit weights) on the rows the fixed blocks name and in the stacked
        # triplets, and W K; the normal system (W K)^T K z = (W K)^T t, W the row weights, gives K z = L L^+ t
        dense = (_assemble((held.size, n), [(np.searchsorted(held, r), c, v) for r, c, v in fixed]) if fixed
                 else np.zeros((0, n))) / sc
        held, rows = _span(held), _span(rows)  # views, not copies, of t's rows where they are runs
        w_dense, vals = w_r[held][:, None] * dense, vals / sc[cols]
        w_vals = w_r[rows] * vals
        starts = np.flatnonzero(np.diff(cols, prepend=-1))  # cols is sorted: one segment per column
        reached = _span(cols[starts])
        diag = np.zeros(vals.shape[:-1] + (n,))
        if starts.size:
            diag[..., reached] = np.add.reduceat(w_vals * vals, starts, axis=-1)
        fixed_normal = w_dense.T @ dense
        normal = np.array(np.broadcast_to(fixed_normal, diag.shape[:-1] + (n, n)))
        normal.reshape(diag.shape[:-1] + (n * n,))[..., :: n + 1] += diag

        # Gershgorin discs of fixed_normal + diag(diag), diag >= 0
        disc = np.abs(fixed_normal).sum(axis=-1)
        lower = (2 * np.diagonal(fixed_normal) - disc + diag).min(axis=-1, initial=np.inf)
        eps_floor = RANK_MARGIN * max(self.shape) * np.finfo(float).eps
        open_ = ~(lower > eps_floor * (disc + diag).max(axis=-1, initial=0.0))
        if open_.any():
            lam = np.linalg.eigvalsh(normal[open_])
            floor = eps_floor * lam[:, -1]
            lost = ~(lam[:, 0] > floor)
            if lost.any():
                k = np.argmax(lost)
                raise np.linalg.LinAlgError(
                    "rank loss: the map is not injective (smallest normal-matrix eigenvalue "
                    "%.3e <= %.3e, %d columns)" % (lam[k, 0], floor[k], n)
                )

        def project(t):
            cols_t = t[:, None] if np.ndim(t) == 1 else t
            stack = np.broadcast_shapes(normal.shape[:-2], cols_t.shape[:-2])
            rhs = np.zeros(stack + (n, cols_t.shape[-1]))
            rhs += w_dense.T @ cols_t[..., held, :]
            if starts.size:
                rhs[..., reached, :] += np.add.reduceat(cols_t[..., rows, :] * w_vals[..., None], starts, axis=-2)
            z = np.linalg.solve(normal, rhs)
            out = np.array(np.broadcast_to(cols_t, stack + cols_t.shape[-2:]))
            out[..., held, :] -= dense @ z
            step = z[..., cols, :]
            step *= vals[..., None]
            out[..., rows, :] -= step
            return out[..., 0] if np.ndim(t) == 1 else out

        return project

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
    than once add up.  Axes of a block's values ahead of its index axes are
    stack axes: the result is then one matrix per entry of their broadcast
    shape, and a block without them adds to every matrix of the stack.
    """
    size = shape[0] * shape[1]
    index = [r * shape[1] + c for r, c, _ in blocks]
    stack = np.broadcast_shapes(*(np.shape(v)[: max(np.ndim(v) - i.ndim, 0)]
                                  for i, (_, _, v) in zip(index, blocks)))
    offset = size * np.arange(int(np.prod(stack))).reshape(stack)
    flat, vals = zip(*(np.broadcast_arrays(i + offset.reshape(stack + (1,) * i.ndim), v)
                       for i, (_, _, v) in zip(index, blocks)))
    out = np.bincount(
        np.concatenate([f.ravel() for f in flat]),
        weights=np.concatenate([v.ravel() for v in vals]),
        minlength=offset.size * size,
    )
    return out.reshape(stack + shape)


def _split_stacked(blocks):
    """(fixed, rows, cols, values): the blocks whose values have no stack axis, their index
    arrays broadcast, and the triplets of the others flattened and sorted by column, with
    their values (stack..., triplets) broadcast to one stack."""
    fixed, rows, cols, vals = [], [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)]
    for r, c, v in blocks:
        r, c = np.broadcast_arrays(r, c)
        v = np.asarray(v, dtype=float)
        lead = v.shape[: max(v.ndim - r.ndim, 0)]
        if not lead:
            fixed.append((r, c, v))
            continue
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(np.broadcast_to(v, lead + r.shape).reshape(lead + (-1,)))
    stack = np.broadcast_shapes(*(x.shape[:-1] for x in vals))
    vals = np.concatenate([np.broadcast_to(x, stack + x.shape[-1:]) for x in vals], axis=-1)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.argsort(cols, kind="stable")
    return fixed, rows[order], cols[order], vals[..., order]


def _span(idx):
    """Ascending indices idx as a slice where they are one contiguous run, so that indexing gives a view."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1 and np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _site_rows(field):
    """A lattice field (..., *dims, k) as (..., sites, k), leading stack axes kept."""
    return field.reshape(field.shape[:-5] + (-1, field.shape[-1]))


def lin_gauge(c: Configuration) -> LinearMap:
    """Linearized gauge action: xi -> (d xi, -K_xi|_u); a stack of maps for a stacked c."""
    geom = c.geom
    lay = layout(geom, c.group)
    cols, rows = lay.gauge, lay.tangent
    if c.group is GaugeGroup.TRIVIAL:
        return LinearMap(None, rows, cols, [(np.zeros(0, int), np.zeros(0, int), np.zeros(0))])
    links = np.arange(rows.n_links)
    ku = _site_rows(quat.mul(c.u.values, quat.QI))  # K_1|_u = u i
    return LinearMap(None, rows, cols, [
        (links, lay.nb[rows.link_axes, rows.link_sites], 1.0 / geom.h),
        (links, rows.link_sites, -1.0 / geom.h),
        (lay.spinor_c, np.arange(geom.n_sites)[:, None], -ku),
    ])


def lin_gauge_adjoint_formula(c: Configuration, zeta) -> LinearMap:
    """Slice operator from the moment-map formula d_u mu_zeta(I_zeta v).

    The reference side of D* = d mu_zeta(I_zeta .): for every unit imaginary
    quaternion zeta it equals `lin_gauge(c).adjoint()`.
    """
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
    sites, whose stencils only reach existing links, and kept on the map;
    the matrix is summed from them in one scatter when first read.  The
    indices come from the layout.  A stacked c gives a stack of maps.
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
        theta = h * np.swapaxes(_site_rows(c.a.links)[..., sites, :], -1, -2)  # (..., i, n)
        blk = quat.mul_exp_i(quat.MUL_TABLE[:, None], theta[..., None]) / h
    blocks = [
        (lay.dirac_r[:, None, :], lay.dirac_nb_c, blk),
        (lay.dirac_r[:, None, :], lay.dirac_here_c, -quat.MUL_TABLE.sum(axis=0) / h),
    ]

    if c.group is not GaugeGroup.TRIVIAL:
        # Dirac rows, one-form columns: e_i (T_i u(x+e_i)) i per link
        u_flat = _site_rows(c.u.values)
        w = quat.mul_exp_i(u_flat[..., nb[:, sites], :], theta)
        blocks.append((lay.dirac_r, lay.dirac_link_c, w @ _DIRAC_LINK.transpose(0, 2, 1)))

        # self-dual rows, one-form columns: d^+ b, with
        # F_p(x) = (b_j(x+e_i) - b_j(x) - b_i(x+e_j) + b_i(x)) / h
        blocks.append((lay.plaq_r, lay.plaq_c, (0.5 / h) * np.array([[1.0], [-1.0], [-1.0], [1.0]])))

        # self-dual rows, spinor columns: d_u Phi_4(e_a) on the trusted sites
        dphi = phi4_diff(u_flat[..., rows.sd_sites, None, :], quat.BASIS, c.group)  # (..., site, a, l)
        blocks.append((lay.sd_r, lay.sd_spinor_c, dphi))
    return LinearMap(None, rows, cols, blocks)


def stacked_op(eq: LinearMap, gauge: LinearMap) -> LinearMap:
    """[E; D*]: equations E stacked over the slice operator of the gauge map D.

    Both must carry triplets.  The D* rows are D's triplets transposed and
    weighted as `adjoint` weights its matrix, so `matrix` is the stack of
    E's matrix over D.adjoint()'s, bit for bit.
    """
    rows = BlockSpace(list(eq.row_space.blocks) + list(gauge.col_space.blocks))
    w_tan, w_gauge, m = gauge.row_space.weights, gauge.col_space.weights, eq.shape[0]
    slice_blocks = [(c + m, r, (v * w_tan[r]) / w_gauge[c]) for r, c, v in gauge.blocks]
    return LinearMap(None, rows, eq.col_space, eq.blocks + slice_blocks)


def elliptic_op(c: Configuration) -> LinearMap:
    """The linearized equations stacked over the gauge slice condition."""
    return stacked_op(linearize_fsw(c), lin_gauge(c))


# ---------------------------------------------------------------------------
# the Newton step's Fourier preconditioner on a torus


def _channels(vec, n_links):
    """Tangent vectors (..., dim) on a torus as (..., k, sites): the k channels are the one-form
    axes (every link exists; axis-major), then the spinor components."""
    lead, sites = vec.shape[:-1], (vec.shape[-1] - n_links) // 4
    spinor = np.swapaxes(vec[..., n_links:].reshape(lead + (sites, 4)), -1, -2)
    return np.concatenate([vec[..., :n_links].reshape(lead + (-1, sites)), spinor], axis=-2)


def _from_channels(f, n_links):
    """The tangent vectors (..., dim) of channels (..., k, sites), inverting `_channels`."""
    lead, k = f.shape[:-2], n_links // f.shape[-1]
    spinor = np.swapaxes(f[..., k:, :], -1, -2)
    return np.concatenate([f[..., :k, :].reshape(lead + (-1,)), spinor.reshape(lead + (-1,))], axis=-1)


def _spectra(fields, dims):
    """`rfftn` of fields (k, sites) over the site axes dims, as (modes, k), modes in rfftn's order.

    Each axis is transformed as the last, contiguous one, last site axis
    first, and a transpose then brings the next one last: the transforms of
    rfftn, bit for bit, without its strided passes over the leading axes.
    """
    spectra = np.fft.rfft(fields.reshape(-1, dims[-1]))
    for size in dims[-2::-1]:
        spectra = np.fft.fft(spectra.T.reshape(-1, size))
    return spectra.T.reshape(-1, fields.shape[0])


def _from_spectra(modes, dims):
    """Real fields (j, sites) of the spectra (modes, j), inverting `_spectra` (`irfftn`'s transforms)."""
    fields = modes
    for size in dims[:-1]:  # the leading site axis is brought last and transformed
        fields = np.fft.ifft(fields.reshape(size, -1).T)
    return np.fft.irfft(fields.reshape(dims[-1] // 2 + 1, -1).T, dims[-1]).reshape(modes.shape[-1], -1)


@functools.lru_cache(maxsize=8)
def flat_symbol(geom: LatticeGeom, group: GaugeGroup):
    """(lam, vec): the Fourier symbol of A0^T A0 on a torus, diagonalised mode by mode; read-only.

    A0 is [E; D*] in unit weights at u = 0, a = 0.  It is translation
    invariant, so A0^T A0 is block circulant, with one k x k block (k = 8
    channels of `_channels`, 4 for the trivial group) per site offset.  The
    blocks are the impulse responses A0^T A0 e_j, e_j channel j at site 0,
    applied through `elliptic_op`'s own triplets.  `rfftn` over the sites
    gives one Hermitian matrix per mode of the half spectrum, which
    multiplies the mode's channels; `eigh` of the (modes, k, k) stack gives
    its eigenvalues lam (modes, k) and eigenvectors vec (modes, k, k).
    """
    zero = Configuration(lat.ConnectionField(geom, group), lat.SpinorField(geom, np.zeros(geom.dims + (4,))))
    op = elliptic_op(zero)
    rows, cols, vals = op._unit_triplets()
    (m, n), n_links = op.shape, layout(geom, group).tangent.n_links
    k = 4 + n_links // geom.n_sites
    impulses = np.zeros((k, k, geom.n_sites))
    impulses[np.arange(k), np.arange(k), 0] = 1.0
    responses = np.array([np.bincount(cols, vals * np.bincount(rows, vals * e[cols], m)[rows], n)
                          for e in _from_channels(impulses, n_links)])
    # channel i of response j is the (i, j) entry of each mode's block
    sym = _spectra(_channels(responses, n_links).reshape(k * k, -1), geom.dims)
    lam, vec = np.linalg.eigh(np.swapaxes(sym.reshape(-1, k, k), -1, -2))
    lam.flags.writeable = vec.flags.writeable = False
    return lam, vec


def fourier_preconditioner(c: Configuration):
    """For `lsqr` on [E; D*] at c in unit weights, g -> (P g, P^2 g): P = M^(-1/2), M = A0^T A0 + mu I
    (`flat_symbol`); None off a torus.

    mu, the mean |u|^2 at c, stands for the pointwise blocks A0 leaves out:
    the link term of the Dirac rows, d Phi_4 and the -u i of D*.  The trivial
    group has none, [E; D*] is A0 itself there, and mu = 0.  M has the
    symbol's eigenvectors and its eigenvalues plus mu.  Those at or below
    RANK_REL_CUTOFF times the largest (with mu = 0, A0's kernel: the
    constants, and on tori of 4k or 6k sites a side the momenta where the
    Dirac symbol is a null complex quaternion) are raised to the smallest of
    the rest.  That makes M definite and keeps its eigenvectors, so A0's
    kernel stays an invariant subspace of P, and at u = 0 the step is still
    the minimum-norm one.  One application is one `rfftn` of g, one product
    with the (modes, 2k, k) stack of P's and P^2's blocks, and one `irfftn`
    of the pair.
    """
    geom = c.geom
    if geom.topology is not lat.Topology.TORUS:
        return None
    lam, vec = flat_symbol(geom, c.group)
    mu = 0.0 if c.group is GaugeGroup.TRIVIAL else float(np.mean(np.sum(c.u.values**2, axis=-1)))
    lam = lam + mu
    small = lam <= RANK_REL_CUTOFF * lam.max()
    lam[small] = lam[~small].min()
    vec_h = np.conj(np.swapaxes(vec, -1, -2))
    pair = np.concatenate([(vec * lam[:, None, :] ** -0.5) @ vec_h, (vec / lam[:, None, :]) @ vec_h], axis=1)
    n_links = layout(geom, c.group).tangent.n_links

    def apply(g):
        both = pair @ _spectra(_channels(g, n_links), geom.dims)[..., None]
        return _from_channels(_from_spectra(both[..., 0], geom.dims).reshape(2, -1, geom.n_sites), n_links)

    return apply


def residual_rowvec(c: Configuration, s: Sources, space: EquationSpace):
    """Residual on the trusted rows of `space`, gathered through the layout's `nb`.

    Dirac rows are sum_i e_i (T_i u(x+e_i) - u(x)) / h - psi, with the
    neighbour first flipped into the half-space of u(x) on cone targets;
    self-dual rows are the plaquette differences' self-dual part plus
    Phi_4(u) minus eta.  Agrees with space.pack of the full-field
    reference `gsw.residual`.  A stacked c gives one row vector per configuration.
    """
    h = c.geom.h
    nb = layout(c.geom, c.group).nb
    sites = space.dirac_sites
    u = _site_rows(c.u.values)
    lead = u.shape[:-2]
    here = u[..., None, sites, :]
    there = u[..., nb[:, sites], :]  # (..., axis, site, 4)
    if c.u.kind is TargetKind.CONE_H_MOD_Z2:
        there = lat._cone_align(there, here)
    if c.a.links is not None:
        there = quat.mul_exp_i(there, h * np.swapaxes(_site_rows(c.a.links)[..., sites, :], -1, -2))
    terms = ((there - here) / h) @ quat.MUL_TABLE  # e_i (d_A u)_i, exact signed permutations
    dirac = terms[..., 0, :, :] + terms[..., 1, :, :] + terms[..., 2, :, :] + terms[..., 3, :, :]
    dirac = (dirac - s.psi.reshape(-1, 4)[sites]).reshape(lead + (-1,))
    ss = space.sd_sites
    if not ss.size:
        return dirac
    # F_p = (b_j(x+e_i) - b_j(x)) / h - (b_i(x+e_j) - b_i(x)) / h for plaquette p = (i, j)
    b = _site_rows(c.a.links)
    pi, pj = _PLAQ_I[:, None], _PLAQ_J[:, None]
    f = (b[..., nb[pi, ss], pj] - b[..., ss, pj]) / h - (b[..., nb[pj, ss], pi] - b[..., ss, pi]) / h
    sd = 0.5 * np.swapaxes(f[..., :3, :] + f[..., 3:, :], -1, -2) + 0.5 * moment_values(u[..., ss, :], c.group)
    sd -= s.eta.values.reshape(-1, 3)[ss]
    return np.concatenate([dirac, sd.reshape(lead + (-1,))], axis=-1)


def second_derivative_rows(c: Configuration, t1: TangentConfig, t2: TangentConfig, space: EquationSpace):
    """Exact mixed second derivative of the residual map along (t1, t2), on the trusted
    rows of `space`, gathered through the layout's `nb` as `linearize_fsw` gathers.

    Dirac rows pick up the gauge-coupling cross terms and the
    second-order link-exponential term; self-dual rows carry the
    constant Hessian of the quadratic moment map.  The transported
    neighbours are gathered, not rolled, as every covariant difference
    reads its neighbours through slices, whatever the transport.
    """
    vec = np.zeros(space.dim)
    if c.a.links is None:
        return vec
    h, sites, ss = c.geom.h, space.dirac_sites, space.sd_sites
    nb = layout(c.geom, c.group).nb
    theta = h * _site_rows(c.a.links)[sites].T  # (axis, site)

    def carried(f):  # T f(x + e_i) at the Dirac sites, (axis, site, 4); flat kind: no cone alignment
        return quat.mul_exp_i(_site_rows(f)[nb[:, sites]], theta)

    b1, b2 = (_site_rows(t.b)[sites].T[..., None] for t in (t1, t2))
    term = quat.mul(carried(t1.v), quat.QI) * b2
    term = term + quat.mul(carried(t2.v), quat.QI) * b1
    term = term - h * carried(c.u.values) * (b1 * b2)
    dirac = np.zeros((sites.size, 4))
    for i in range(4):
        dirac += quat.mul(quat.BASIS[i], term[i])
    vec[: dirac.size] = dirac.reshape(-1)
    vec[dirac.size :] = 0.5 * moment_values_diff(_site_rows(t1.v)[ss], _site_rows(t2.v)[ss], c.group).reshape(-1)
    return vec


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
    """Dimensions of the deformation cohomology at c, from the chart's two rank decisions.

    h0 = dim gauge - rank D*, h1 = dim ker(E S), h2 = dim coker(E S), E S
    from `on_slice`; D*'s values are D's, and E S is ranked from its values
    alone.  `margins` holds "lin_gauge" from D* and "elliptic_op" from E S.
    """
    margins = {}
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always", RankMarginWarning)
        slice_op = lin_gauge(c).adjoint()
        reduced = on_slice(linearize_fsw(c), slice_op)[1]
        rank_d, margins["lin_gauge"] = slice_op.rank()
        rank_e, margins["elliptic_op"] = reduced.rank()
        warns = [str(w.message) for w in wlist]
    h0 = slice_op.row_space.dim - rank_d
    h1, h2 = reduced.shape[1] - rank_e, reduced.shape[0] - rank_e
    return CohomologyReport(h0, h1, h2, h1 - h0 - h2, margins, warns)


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


def _plane_led(basis, weights, v, w, span):
    """Weighted-orthonormal `basis` turned to start with the orthonormal plane (v, w) in its `span` (complete QR)."""
    plane = np.stack([v, w], axis=1)
    coef = basis.T @ (plane * weights[:, None])
    if np.sqrt(weights @ (plane - basis @ coef) ** 2).max() > 1e-8:
        raise ValueError("plane vectors must lie in the %s" % span)
    return np.hstack([plane, basis @ np.linalg.qr(coef, mode="complete")[0][:, 2:]])


def newton(rows_at, step, x, tol, max_iter, norm, step_norm):
    """Newton-type iteration x <- x + step(x, r) on the rows r = rows_at(x).

    Every iterate is recorded as {iter, residual_norm: norm(r), step_norm:
    step_norm of the step that reached it}, record 0 for the start.  The
    loop stops as "converged" once the norm is <= tol, as "diverged" once
    it is non-finite or larger than at the previous iterate (returning
    that iterate), and otherwise as "max_iter" after max_iter steps.
    Returns (x, r, records, status).  A LinAlgError raised by step leaves
    with the records so far as its `records`.

    A stack x of shape (k, n) runs k independent iterations: the four
    callables then take and return stacks (norms one per point), each
    point stops by the rule above on its own and is not evaluated again,
    and x, r, records and status come back one per point.
    """
    single = np.ndim(x) == 1
    x = np.array(x, dtype=float, ndmin=2)

    def each(fn, *args):  # fn on the active stack, or on the single point as given
        return fn(*args) if not single else np.asarray(fn(*(a[0] for a in args)))[None]

    records = [[] for _ in x]
    status = [None] * len(x)
    last = np.zeros(len(x))
    rows = None
    active = np.arange(len(x))
    for it in range(max_iter + 1):
        r = each(rows_at, x[active])
        if rows is None:
            rows = np.empty((len(x),) + r.shape[1:])
        rows[active] = r
        res = each(norm, r)
        dx_norm = each(step_norm, dx) if it else np.zeros(active.size)
        for p, rn, sn in zip(active, res, dx_norm):
            records[p].append({"iter": it, "residual_norm": rn, "step_norm": sn})
        done = res <= tol
        grew = ~done & (~np.isfinite(res) | ((it > 0) & (res > last[active])))
        stop = done | grew | (it == max_iter)
        for p, ok, bad in zip(active[stop], done[stop], grew[stop]):
            status[p] = "converged" if ok else "diverged" if bad else "max_iter"
        last[active] = res
        active, r = active[~stop], r[~stop]
        if not active.size:
            break
        try:
            dx = each(step, x[active], r)
        except np.linalg.LinAlgError as err:
            err.records = records[0] if single else records
            raise
        x[active] += dx
    if single:
        return x[0], rows[0], records[0], status[0]
    return x, rows, records, status


def on_slice(eq: LinearMap, slice_op: LinearMap):
    """(S, E S): a weighted-orthonormal basis S of the gauge slice ker D* (`slice_op`), and E on it.

    E S acts on coordinates on S, one block per part of D*, so it splits
    where E and D* do.  ker [E; D*] = S ker(E S); rank [E; D*] = rank D* + rank(E S).
    """
    basis = slice_op.kernel_basis()
    return basis, LinearMap(eq.matrix @ basis, eq.row_space, slice_op.kernel_space())


class ChartFrame:
    """Linear data of the solution-set chart at a point, all from one factored map, E S (`on_slice`).

    One frame per centre holds E (`eq`), D (`gauge`), D* (`slice_op`), S (`slice_basis`) and E S (`reduced`),
    each factored at most once.  `kernel` is S ker(E S), a basis of ker [E; D*] that a chart turns to lead with its
    plane; `coker` is coker(E S).  A chord step is S (E S)^+ (-r), taken from the factors of E S; `chord`, the
    dense S (E S)^+ (tangent x rows) read from those same factors, is formed only when first read.
    """

    def __init__(self, eq: LinearMap, gauge: LinearMap):
        self.eq, self.gauge = eq, gauge
        self.slice_op = gauge.adjoint()
        self.slice_basis, self.reduced = on_slice(eq, self.slice_op)
        self.kernel = self.slice_basis @ self.reduced.kernel_basis()
        self.coker = self.reduced.cokernel_basis()

    @functools.cached_property
    def chord(self):
        return self.slice_basis @ self.reduced.pinv_apply(np.eye(self.eq.shape[0]))

    def coker_coeffs(self, r):
        """Cokernel coefficients of equation rows r (or of each row vector of a stack)."""
        return (r * self.eq.row_space.weights) @ self.coker

    def off_coker(self, r):
        """Equation rows r (or each row vector of a stack) with their cokernel part removed."""
        return r - self.coker_coeffs(r) @ self.coker.T

    def solve(self, rows_at, base, tol, max_iter):
        """Chord Newton from base, inside base + ker D*, with rows_at = 0 off the cokernel.

        Runs `newton` on the tangent vector with the fixed chord step
        S (E S)^+ (-r), stopping on the norm of the rows projected off the
        cokernel.  Returns (vec, rows_at(vec), info); info holds the residual
        evaluations ("iters"), the convergence and divergence flags and the
        projected norm at vec.  A stack of bases (k, n) runs `newton` on the
        stack, rows_at then takes stacks, and each entry of info is an array
        over the points.
        """
        x, r, records, status = newton(
            rows_at, lambda x, r: (self.slice_basis @ self.reduced.pinv_apply(-r.T)).T, base, tol, max_iter,
            lambda r: self.eq.row_space.norm(self.off_coker(r)), self.eq.col_space.norm,
        )
        if np.ndim(base) == 1:
            records, status = [records], [status]
        info = {
            "iters": np.array([len(rec) for rec in records]),
            "converged": np.array([st == "converged" for st in status]),
            "diverged": np.array([st == "diverged" for st in status]),
            "proj_residual": np.array([rec[-1]["residual_norm"] for rec in records]),
        }
        if np.ndim(base) == 1:
            info = {key: val[0].item() for key, val in info.items()}
        return x, r, info


class KuranishiChart:
    """Local chart of the solution set over ker(elliptic operator).

    phi(xi) solves the equations projected off the cokernel, inside the
    gauge slice and orthogonal to the kernel; kappa(xi) is the cokernel
    component of the full residual at phi(xi).
    """

    def __init__(self, c: Configuration, s: Sources, tol=1e-11, max_iter=60):
        self.c, self.s, self.tol, self.max_iter = c, s, tol, max_iter
        self.frame = ChartFrame(linearize_fsw(c), lin_gauge(c))
        self.space = self.frame.eq.col_space

    @property
    def h1_dim(self):
        return self.frame.kernel.shape[1]

    @property
    def h2_dim(self):
        return self.frame.coker.shape[1]

    def h_dims(self):
        """`cohomology`'s (h0, h1, h2) = (dim gauge - rank D*, dim ker(E S), dim coker(E S)), with no SVD."""
        return self.frame.gauge.col_space.dim - self.frame.slice_op.rank()[0], self.h1_dim, self.h2_dim

    def solve(self, xi):
        """Return (phi_vec, kappa_coeffs, info) for chart coordinates xi."""
        base = self.frame.kernel @ np.asarray(xi, dtype=float)
        vec, r, info = self.frame.solve(
            lambda t: residual_rowvec(moved(self.c, t), self.s, self.frame.eq.row_space),
            base, self.tol, self.max_iter,
        )
        info["full_residual"] = self.frame.eq.row_space.norm(r)
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
    stabilizer Lie algebra is trivial (h0 = 0).  A sample is xi = K^T W g for a
    tangent-space Gaussian g (kernel basis K, weights W), radially rescaled:
    a change of kernel basis moves it only by rounding.  Per-sample records
    carry the kappa norm, Newton iterations and the convergence and divergence flags.
    """
    chart = KuranishiChart(c, s, tol=tol)
    h0, h1, h2 = chart.h_dims()
    kappa0, info0 = chart.kappa_norm(np.zeros(h1))
    rng = np.random.default_rng(seed)
    samples = []
    for k in range(n_samples):
        xi = chart.frame.kernel.T @ (chart.space.weights * rng.normal(size=chart.space.dim))
        nrm = np.linalg.norm(xi)
        if nrm > 0:
            xi *= radius * rng.uniform() ** (1.0 / max(h1, 1)) / nrm
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
    return KuranishiReport((h0, h1, h2), h2 == 0, h2 == 0 and h0 == 0, kappa0, samples)


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
