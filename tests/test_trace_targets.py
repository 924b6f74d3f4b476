"""The benchmark tracer's target list still names callables of the package.

`bench/spans.py` looks each target up as `owner.__dict__[attr]`, so a
renamed or deleted function makes `bench/run.py --trace 1` fail with a
KeyError, and its iteration counters read the solvers' return values;
`bench/test_bench.py` lies outside the default test paths.
"""

import importlib.util
import pathlib

import numpy as np

from gswlab import deformation as dfm, frequency as fq, gsw
from gswlab.gsw import Configuration
from gswlab.lattice import ConnectionField, LatticeGeom, SpinorField, Topology
from gswlab.targets import GaugeGroup

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_target_resolves():
    spans = load_spans()
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _, _ in spans.TARGETS
        if not callable(owner.__dict__.get(attr))
    ]
    assert not missing


def test_iteration_counters_read_the_solver_results():
    spans = load_spans()
    geom = LatticeGeom((2,) * 4, 0.5, Topology.TORUS)
    c = gsw.random_config(geom, GaugeGroup.U1, seed=3, amplitude=0.3)
    s = gsw.manufacture(c)
    tangent = dfm.layout(geom, c.group).tangent
    t = dfm.random_tangent(c, 4, 1e-3)
    start = dfm.moved(c, tangent.pack(t.b, t.v))
    solved = gsw.solve_newton(start, s, tol=1e-11)
    steps = solved[1][-1]["iter"]
    assert steps >= 1 and spans._newton_iters((start, s), {}, solved) == (steps, 0)

    # a chord solve of several iterations on the 2^4 Fueter box
    box = LatticeGeom((2,) * 4, 0.5, Topology.BOX)
    vals = fq.fueter_library(box, "z1").values + np.array([0.8, 0.1, 0.0, 0.0])
    c = Configuration(ConnectionField(box, GaugeGroup.U1), SpinorField(box, vals))
    chart = dfm.KuranishiChart(c, gsw.manufacture(c))
    charted = chart.solve(np.full(chart.h1_dim, 0.05 / np.sqrt(chart.h1_dim)))
    assert charted[2]["iters"] > 1 and spans._chart_iters((chart,), {}, charted) == (charted[2]["iters"], 0)


def test_svd_cost_counts_values_only_calls_as_not_full(monkeypatch):
    """`linalg.svd.full_calls` and `.flops` follow `compute_uv`, as `LinearMap` passes it."""
    spans = load_spans()
    a = np.zeros((7, 5))
    values_only = 4 * 7 * 5 * 5 - 4 * 5**3 / 3
    assert spans._svd_cost((a,), {"compute_uv": False}, None) == (values_only, 0)
    assert spans._svd_cost((a, True, False), {}, None) == (values_only, 0)
    assert spans._svd_cost((a,), {"full_matrices": True}, None) == (4 * 49 * 5 + 8 * 7 * 25 + 9 * 125, 1)
    assert spans._svd_cost((a,), {"full_matrices": False}, None) == (14 * 7 * 25 + 8 * 125, 0)

    costs = []
    real_svd = np.linalg.svd

    def costed_svd(*args, **kwargs):
        out = real_svd(*args, **kwargs)
        costs.append(spans._svd_cost(args, kwargs, out))
        return out

    monkeypatch.setattr(np.linalg, "svd", costed_svd)
    space = dfm.BlockSpace([("x", 5, 1.0)])
    lm = dfm.LinearMap(np.random.default_rng(0).normal(size=(5, 5)), space, space)
    lm.rank(), lm.operator_norm(), lm.pinv_apply(np.ones(5))
    assert costs == [(4 * 125 - 4 * 125 / 3, 0)]
    lm.kernel_basis()
    assert costs[1] == (4 * 125 + 8 * 125 + 9 * 125, 1)
    # a non-square pseudo-inverse reads the full factors, so its rank comes from them
    tall = dfm.LinearMap(np.random.default_rng(1).normal(size=(7, 5)), dfm.BlockSpace([("y", 7, 2.0)]), space)
    tall.pinv_apply(np.ones(7)), tall.rank(), tall.operator_norm()
    assert costs[2:] == [(4 * 49 * 5 + 8 * 7 * 25 + 9 * 125, 1)]
