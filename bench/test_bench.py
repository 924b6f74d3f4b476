"""Self-tests of the benchmark harness.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gswlab.deformation  # noqa: E402
import gswlab.gsw  # noqa: E402
import gswlab.targets  # noqa: E402
import worker  # noqa: E402
from run import LAYER_STATS  # noqa: E402
from spans import TARGETS, Tracer, _package_modules  # noqa: E402
from workloads import WORKLOADS, Workload, no_wrap  # noqa: E402

REF = worker._reference()


def assert_identical(a, b, where="result"):
    assert type(a) is type(b), where
    if isinstance(a, np.ndarray):
        assert a.shape == b.shape and a.dtype == b.dtype, where
        assert a.tobytes() == b.tobytes(), where
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for k in a:
            assert_identical(a[k], b[k], "%s[%r]" % (where, k))
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            assert_identical(x, y, "%s[%d]" % (where, k))
    elif isinstance(a, float):
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), where
    else:
        assert a == b, where


def _namespaces():
    """Identity snapshot of every namespace the tracer may patch."""
    owners = {id(o): o for o, *_ in TARGETS}
    owners.update({id(m): m for m in _package_modules()})
    return {(id(o), k): v for o in owners.values() for k, v in list(vars(o).items())}


@pytest.fixture(scope="module")
def seeded():
    """Inputs and untraced results of every workload for seeds 1 and 2."""
    out = {}
    for name, wl in WORKLOADS.items():
        for seed in (1, 2):
            inp = wl.setup(seed)
            out[name, seed] = (inp, wl.run(inp, no_wrap))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_iteration_is_bit_identical_and_restores_originals(name, seeded):
    wl = WORKLOADS[name]
    inp, plain = seeded[name, 1]
    before = _namespaces()
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.run(inp, tracer.wrap)
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert not moved
    assert_identical(plain, traced)
    assert len(tracer.spans) > 0 and all(row is not None for row in tracer.spans)


def test_install_wraps_every_imported_alias():
    residual, moment_values, svd = (
        gswlab.gsw.residual, gswlab.targets.moment_values, np.linalg.svd
    )
    tracer = Tracer()
    tracer.install()
    try:
        assert gswlab.deformation.residual is gswlab.gsw.residual
        assert gswlab.deformation.residual_norm is gswlab.gsw.residual_norm
        assert gswlab.gsw.moment_values is gswlab.targets.moment_values
        assert gswlab.gsw.residual.__wrapped__ is residual
        assert gswlab.gsw.moment_values.__wrapped__ is moment_values
        assert np.linalg.svd.__wrapped__ is svd
    finally:
        tracer.uninstall()
    assert gswlab.deformation.residual is residual and gswlab.gsw.residual is residual
    assert gswlab.gsw.moment_values is moment_values and np.linalg.svd is svd


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def leaf():
        return sum(range(20000))

    traced_leaf = tracer.wrap(leaf, "leaf")
    outer = tracer.wrap(lambda: traced_leaf() + traced_leaf(), "outer")
    tracer.iteration = 0
    outer()
    stats, covered = tracer.layer_stats()[0]
    assert stats["leaf"]["calls"] == 2 and stats["outer"]["calls"] == 1
    total = stats["outer"]["total_s"]
    assert covered == total
    assert stats["outer"]["self_s"] + stats["leaf"]["total_s"] == pytest.approx(total)
    assert stats["outer"]["self_s"] < total


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_seeds_give_different_inputs_and_both_pass(name, seeded):
    wl = WORKLOADS[name]
    (in1, res1), (in2, res2) = seeded[name, 1], seeded[name, 2]
    a1, a2 = worker.arrays(in1), worker.arrays(in2)
    assert [a.shape for a in a1] == [a.shape for a in a2]
    assert any(not np.array_equal(x, y) for x, y in zip(a1, a2))
    assert wl.check(res1, REF[name]) == []
    assert wl.check(res2, REF[name]) == []


def test_perturbed_field_fails_the_field_box_gate():
    wl = WORKLOADS["field_box"]
    inp = wl.setup(1)
    rng = np.random.default_rng(0)
    inp["z1"].u.values += 1e-3 * rng.normal(size=inp["z1"].u.values.shape)
    bad = wl.check(wl.run(inp, no_wrap), REF["field_box"])
    assert any("closed form" in msg or "ode check" in msg for msg in bad)


def test_wrong_expected_h1_fails_the_newton_gate(seeded):
    _, res = seeded["newton_torus", 1]
    ref = json.loads(json.dumps(REF["newton_torus"]))
    ref["cohomology"][1] += 1
    assert any("(h0, h1, h2, index)" in msg for msg in WORKLOADS["newton_torus"].check(res, ref))


def test_perturbed_oracle_fails_the_curvature_gate(seeded):
    _, res = seeded["curvature_box", 1]
    res = dict(res, oracle_K=res["oracle_K"] * (1 + 1e-2))
    assert any("lattice oracle" in msg for msg in WORKLOADS["curvature_box"].check(res, REF["curvature_box"]))


def test_raising_iteration_counts_as_failed(capsys):
    def run(inputs, wrap):
        raise ArithmeticError("no convergence under step halving")

    dt, bad = worker.iterate(Workload(None, run, None), None, {}, no_wrap)
    assert dt >= 0 and bad == ["ArithmeticError: no convergence under step halving"]


def test_benchmark_json_matches_the_layer_map():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    mapped = [m for group in spec["layers"] for m in group["metrics"]]
    assert [m["name"] for m in bench["per_layer"]] == mapped
    layers = {layer for _, _, layer, _ in TARGETS} | {"moduli_geom.metric_fn"}
    for name in mapped:
        layer, stat = name.rsplit(".", 1)
        assert layer == "trace" or (layer in layers and stat in LAYER_STATS), name


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "field_box", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
