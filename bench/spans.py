"""Span tracing of gswlab from outside the package.

`Tracer.install()` replaces each traced function with a wrapper that
records one span per call: layer name, start, end, parent span and the
iteration id.  Module functions are replaced at their module attribute
and under every name another gswlab module imported them as; methods on
their classes; `numpy.linalg.*` on `numpy.linalg`.  `uninstall()` puts
every original object back.  Spans stay in memory until `save()`.

Some layers also record one computed number per call (``extra``) and a
flag: the bytes a quaternion product reads and writes, the flop count
of an SVD (Golub & Van Loan's operation counts) and whether it built the
full U, the right-hand sides of a least-squares call, and the Newton
iterations reported by a solver.  These come from array shapes and
returned diagnostics, not from hardware counters.
"""

import functools
import sys
from time import perf_counter

import numpy as np

import gswlab.deformation
import gswlab.frequency
import gswlab.gsw
import gswlab.lattice
import gswlab.moduli_geom
import gswlab.quaternion
import gswlab.targets


def _nbytes(x):
    return getattr(x, "nbytes", 8 * np.size(x))


def _mul_bytes(args, kwargs, out):
    return _nbytes(args[0]) + _nbytes(args[1]) + out.nbytes, 0


def _svd_cost(args, kwargs, out):
    a = args[0]
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    batch = int(np.prod(a.shape[:-2]))
    if not uv:
        flops = 4 * m * n * n - 4 * n**3 / 3
    elif full:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        flops = 14 * m * n * n + 8 * n**3
    return batch * flops, int(bool(full and uv))


def _lstsq_rhs(args, kwargs, out):
    b = args[1] if len(args) > 1 else kwargs["b"]
    return (b.shape[1] if np.ndim(b) == 2 else 1), 0


def _newton_iters(args, kwargs, out):
    return len(out[1]) - 1, 0


def _chart_iters(args, kwargs, out):
    return out[2]["iters"], 0


_Q, _L, _F = gswlab.quaternion, gswlab.lattice, gswlab.frequency
_G, _D, _M = gswlab.gsw, gswlab.deformation, gswlab.moduli_geom

#: (owner, attribute, layer, extra) for every traced callable
TARGETS = [
    (_Q, "mul", "quaternion.mul", _mul_bytes),
    (_Q, "exp_i", "quaternion.exp_i", None),
    (_L, "forward_cov_diff", "lattice.cov_diff", None),
    (_L, "backward_cov_diff", "lattice.cov_diff", None),
    (_L, "backward_cov_diff_raw", "lattice.cov_diff", None),
    (_L, "cov_diff_component", "lattice.cov_diff", None),
    (_L, "dirac", "lattice.dirac", None),
    (_L, "ball_integral", "lattice.ball_integral", None),
    (_L, "shell_integral", "lattice.shell_integral", None),
    (_L, "interpolate_quadratic", "lattice.interpolate_quadratic", None),
    (_L, "site_distances", "lattice.site_distances", None),
    (_L, "sphere_nodes", "lattice.sphere_nodes", None),
    (gswlab.targets, "moment_values", "targets.moment_values", None),
    (_F, "fueter_library", "frequency.fueter_library", None),
    (_F, "weitzenbock_residual", "frequency.weitzenbock_residual", None),
    (_F, "bochner_residual", "frequency.bochner_residual", None),
    (_F, "stress_div_residual", "frequency.stress_div_residual", None),
    (_F, "profile_fields", "frequency.profile_fields", None),
    (_F, "radial_profile", "frequency.radial_profile", None),
    (_F, "ode_checks", "frequency.ode_checks", None),
    (_F, "monotonicity_scan", "frequency.monotonicity_scan", None),
    (_F, "regularity_probe", "frequency.regularity_probe", None),
    (_F, "critical_radius", "frequency.critical_radius", None),
    (_G, "residual", "gsw.residual", None),
    (_G, "residual_norm", "gsw.residual_norm", None),
    (_G, "manufacture", "gsw.manufacture", None),
    (_G, "solve_newton", "gsw.solve_newton", _newton_iters),
    (_D, "cohomology", "deformation.cohomology", None),
    (_D, "linearize_fsw", "deformation.linearize_fsw", None),
    (_D, "lin_gauge", "deformation.lin_gauge", None),
    (_D, "elliptic_op", "deformation.elliptic_op", None),
    (_D.KuranishiChart, "__init__", "deformation.KuranishiChart", None),
    (_D.KuranishiChart, "solve", "deformation.KuranishiChart.solve", _chart_iters),
    (_M, "sample_solution_plane", "moduli_geom.sample_solution_plane", None),
    (_M, "gauss_sectional_vec", "moduli_geom.gauss_sectional_vec", None),
    (_M, "oneill_sectional_vec", "moduli_geom.oneill_sectional_vec", None),
    (_M, "slice_chart_metric", "moduli_geom.slice_chart_metric", None),
    (_M, "solution_chart_metric", "moduli_geom.solution_chart_metric", None),
    (_M, "fd_oracle_curvature", "moduli_geom.fd_oracle_curvature", None),
    (_M, "horizontal_projector", "moduli_geom.horizontal_projector", None),
    (_M.GreenSolver, "__init__", "moduli_geom.GreenSolver", None),
    (_M.LatticeSystem, "equation_rows", "moduli_geom.equation_rows", None),
    (_M.HopfFixtureSystem, "equation_rows", "moduli_geom.equation_rows", None),
    (np.linalg, "svd", "linalg.svd", _svd_cost),
    (np.linalg, "lstsq", "linalg.lstsq", _lstsq_rhs),
    (np.linalg, "qr", "linalg.qr", None),
    (np.linalg, "eigh", "linalg.eigh", None),
    (np.linalg, "inv", "linalg.inv", None),
    (np.linalg, "solve", "linalg.solve", None),
]


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name.startswith("gswlab") and m]


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        # one row per span: name id, start, end, parent row (-1: root),
        # iteration id, computed extra, flag
        self.spans = []
        self._stack = []
        self.iteration = -1
        self._patched = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, extra=None):
        """Return fn wrapped so that each call records a span `name`."""
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(row)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[row] = (nid, t0, t1, parent, self.iteration, 0, 0)
            if extra is not None:
                spans[row] = (nid, t0, t1, parent, self.iteration) + tuple(extra(args, kwargs, out))
            return out

        return traced

    def install(self):
        """Replace every target by its traced wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for owner, attr, name, extra in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self.wrap(original, name, extra)
            if isinstance(owner, type):
                homes = [(owner, attr)]
            else:
                homes = [
                    (m, key) for m in modules for key, value in list(m.__dict__.items())
                    if value is original and m is not owner
                ]
                homes.insert(0, (owner, attr))
            for home, key in homes:
                self._patched.append((home, key, original))
                setattr(home, key, wrapper)

    def uninstall(self):
        """Put every original object back where install() found it."""
        for home, attr, original in reversed(self._patched):
            setattr(home, attr, original)
        self._patched = []

    def table(self):
        """Spans as arrays: name, start, end, parent, iteration, extra, flag."""
        rows = self.spans
        cols = list(zip(*rows)) if rows else [()] * 7
        return {
            "name": np.asarray(cols[0], dtype=np.int32),
            "start": np.asarray(cols[1], dtype=float),
            "end": np.asarray(cols[2], dtype=float),
            "parent": np.asarray(cols[3], dtype=np.int64),
            "iteration": np.asarray(cols[4], dtype=np.int32),
            "extra": np.asarray(cols[5], dtype=float),
            "flag": np.asarray(cols[6], dtype=np.int64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.asarray(self.names), **self.table())

    def layer_stats(self):
        """Per-layer totals of each traced iteration.

        Returns {iteration: ({layer: {calls, self_s, total_s, extra,
        flag}}, seconds covered by root spans)}.
        """
        t = self.table()
        dur = t["end"] - t["start"]
        child = np.zeros_like(dur)
        has_parent = t["parent"] >= 0
        np.add.at(child, t["parent"][has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for it in np.unique(t["iteration"]):
            sel = t["iteration"] == it
            names = t["name"][sel]
            n = len(self.names)

            def total(w):
                return np.bincount(names, weights=w[sel], minlength=n)

            calls = np.bincount(names, minlength=n)
            sums = [total(own), total(dur), total(t["extra"]), total(t["flag"].astype(float))]
            stats = {
                name: {
                    "calls": int(calls[k]),
                    "self_s": float(sums[0][k]),
                    "total_s": float(sums[1][k]),
                    "extra": float(sums[2][k]),
                    "flag": int(sums[3][k]),
                }
                for k, name in enumerate(self.names)
            }
            out[int(it)] = (stats, float(np.sum(dur[sel & ~has_parent])))
        return out
