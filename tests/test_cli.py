import dataclasses
import importlib.util
import inspect
import json
import os
import pathlib
import time

import numpy as np
import pytest

from gswlab import cli, deformation as dfm, frequency as fq, gsw, lattice as lat
from gswlab.lattice import ConnectionField, LatticeGeom, SpinorField
from gswlab.targets import GaugeGroup


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_malformed_config_exit2(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "bad.json",
        {
            "experiment": "target-check",
            "geometry": {"dims": [4, 4, 4, 4], "h": -1.0},
            "params": {},
        },
    )
    out = tmp_path / "out"
    os.environ["GSWLAB_OUT"] = str(out)
    try:
        assert cli.run("target-check", cfg) == 2
    finally:
        del os.environ["GSWLAB_OUT"]
    assert not out.exists()  # no outputs on validation failure


def test_unknown_key_rejected(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "bad2.json",
        {"experiment": "target-check", "params": {}, "bogus": 1},
    )
    assert cli.run("target-check", cfg) == 2



@pytest.mark.parametrize(
    "experiment", ["solve", "deform", "kuranishi", "curvature", "frequency", "sequence"])
def test_lattice_config_without_geometry_exit2(tmp_path, experiment):
    """Every lattice experiment needs a geometry: without one (or with an empty one)
    the run is exit 2 with no output."""
    out = tmp_path / "out"
    payload = {"experiment": experiment, "output_dir": str(out), "group": "u1"}
    assert cli.run(experiment, write_cfg(tmp_path, "nogeo.json", payload)) == 2
    payload["geometry"] = {}
    assert cli.run(experiment, write_cfg(tmp_path, "emptygeo.json", payload)) == 2
    assert not out.exists()


def test_lattice_free_experiments():
    """target-check and fixture curvature need no geometry; a curvature mode other
    than lattice or fixture is rejected, as it would run the lattice path unchecked."""
    for exempt in ({"experiment": "target-check"},
                   {"experiment": "curvature", "params": {"mode": "fixture"}}):
        assert cli.validate_config(exempt, exempt["experiment"]) is exempt
    payload = {"experiment": "curvature", "geometry": {"dims": [5, 5, 5, 5], "h": 0.4},
               "group": "u1", "params": {"mode": "Fixture"}}
    with pytest.raises(cli.ConfigError, match="mode"):
        cli.validate_config(payload, "curvature")


def test_dense_limit_rejected_before_output(tmp_path):
    """A 5^4 U(1) torus (5000 unknowns) exceeds the dense limit: exit 2, no outputs."""
    out = tmp_path / "big"
    payload = {
        "experiment": "deform",
        "output_dir": str(out),
        "geometry": {"dims": [5, 5, 5, 5], "h": 0.4, "topology": "torus"},
        "group": "u1",
    }
    assert cli.run("deform", write_cfg(tmp_path, "big.json", payload)) == 2
    assert not out.exists()
    payload["geometry"]["dims"] = [4, 4, 4, 4]  # 2048 x 2048: accepted
    assert cli.validate_config(payload, "deform") is payload


def test_torus_solve_past_the_dense_limit(tmp_path):
    """A 6^4 U(1) torus (10,368 tangent dofs, over the dense limit) is a valid solve config,
    and its matrix-free, Fourier-preconditioned Newton run converges in a few seconds."""
    out = tmp_path / "big_solve"
    payload = {
        "experiment": "solve",
        "seed": 3,
        "output_dir": str(out),
        "geometry": {"dims": [6, 6, 6, 6], "h": 0.25, "topology": "torus"},
        "group": "u1",
        "params": {"init": {"kind": "random", "amplitude": 0.3}, "perturb_amplitude": 0.05, "tol": 1e-11},
    }
    lay = dfm.layout(cli.build_geometry(payload), GaugeGroup.U1)
    assert lay.tangent.dim == 10368 > dfm.MAX_DENSE_DIM
    assert cli.validate_config(payload, "solve") is payload
    t0 = time.perf_counter()
    assert cli.run("solve", write_cfg(tmp_path, "big_solve.json", payload)) == 0
    wall = time.perf_counter() - t0
    extra = json.loads((out / "manifest.json").read_text())["extra"]
    assert extra["final_residual"] <= 1e-11
    assert extra["lsqr_iters"][0] == 0 and all(0 < k < 400 for k in extra["lsqr_iters"][1:])
    assert wall <= 5.0, f"6^4 torus solve took {wall:.1f} s"


def test_snapshot_lattice_checked_before_output(tmp_path):
    """With init.kind snapshot the dense limit applies to the snapshot's lattice."""
    big = LatticeGeom((5,) * 4, 0.4)
    snap = tmp_path / "big_snap.json"
    lat.snapshot_save(snap, SpinorField(big, np.zeros(big.dims + (4,))),
                      ConnectionField(big, GaugeGroup.U1))
    out = tmp_path / "out"
    payload = {
        "experiment": "deform",
        "output_dir": str(out),
        "geometry": {"dims": [2, 2, 2, 2], "h": 0.5, "topology": "torus"},
        "group": "u1",
        "params": {"init": {"kind": "snapshot", "path": str(snap)}},
    }
    assert cli.run("deform", write_cfg(tmp_path, "snap.json", payload)) == 2
    payload["params"]["init"]["path"] = str(tmp_path / "no_such_snapshot.json")
    assert cli.run("deform", write_cfg(tmp_path, "snap.json", payload)) == 2
    assert not out.exists()
    small = LatticeGeom((2,) * 4, 0.5)
    lat.snapshot_save(snap, SpinorField(small, np.zeros(small.dims + (4,))),
                      ConnectionField(small, GaugeGroup.U1))
    payload["params"]["init"]["path"] = str(snap)
    payload["geometry"]["dims"] = [5, 5, 5, 5]  # over the limit, but not the run's lattice
    assert cli.validate_config(payload, "deform") is payload


def test_target_check_runs(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        "tc.json",
        {
            "experiment": "target-check",
            "seed": 7,
            "output_dir": str(out),
            "params": {"samples": 25},
        },
    )
    assert cli.run("target-check", cfg) == 0
    report = json.loads((out / "target_check.json").read_text())
    assert report["passed"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 0
    assert manifest["experiment"] == "target-check"
    assert "target_check.json" in manifest["outputs"]
    assert len(manifest["config_sha256"]) == 64


def _solve_cfg(tmp_path, out, max_iter=20):
    return write_cfg(
        tmp_path,
        f"solve_{max_iter}.json",
        {
            "experiment": "solve",
            "seed": 3,
            "output_dir": str(out),
            "geometry": {"dims": [2, 2, 2, 2], "h": 0.4, "topology": "torus"},
            "group": "u1",
            "params": {
                "init": {"kind": "random", "amplitude": 0.3},
                "perturb_amplitude": 1e-3,
                "tol": 1e-11,
                "max_iter": max_iter,
            },
        },
    )


def test_solve_and_determinism(tmp_path):
    out = tmp_path / "s1"
    cfg = _solve_cfg(tmp_path, out)
    assert cli.run("solve", cfg) == 0
    first = (out / "solver_diagnostics.csv").read_bytes()
    snap1 = (out / "solution_snapshot.json").read_bytes()
    assert cli.run("solve", cfg) == 0
    assert (out / "solver_diagnostics.csv").read_bytes() == first
    assert (out / "solution_snapshot.json").read_bytes() == snap1


def test_solve_manifest_lists_the_lsqr_iterations(tmp_path):
    """One LSQR count per diagnostics row (0 at the start) in the manifest; the CSV columns stay."""
    out = tmp_path / "s_lsqr"
    assert cli.run("solve", _solve_cfg(tmp_path, out)) == 0
    iters = json.loads((out / "manifest.json").read_text())["extra"]["lsqr_iters"]
    lines = (out / "solver_diagnostics.csv").read_text().splitlines()
    assert lines[0] == "iter,residual_norm,step_norm"
    assert len(iters) == len(lines) - 1 >= 2
    assert iters[0] == 0 and all(isinstance(k, int) and k > 0 for k in iters[1:])


def test_solve_lsqr_past_its_cap_is_a_newton_error(tmp_path, monkeypatch):
    """An LSQR step past LSQR_MAX_ITER stops Newton as exit 3 with the iterates reached:
    the diagnostics CSV, final_residual and lsqr_iters."""
    monkeypatch.setattr(dfm, "LSQR_MAX_ITER", 1)
    out = tmp_path / "s_cap"
    assert cli.run("solve", _solve_cfg(tmp_path, out)) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"].startswith("NewtonError: no convergence (lsqr_max_iter) after 0 steps")
    assert "LSQR did not converge in 1 iterations" in manifest["traceback"]
    assert "solver_diagnostics.csv" in manifest["outputs"]
    lines = (out / "solver_diagnostics.csv").read_text().splitlines()
    assert lines[0] == "iter,residual_norm,step_norm" and len(lines) == 2
    extra = manifest["extra"]
    assert extra["lsqr_iters"] == [0]
    assert extra["final_residual"] == float(lines[1].split(",")[1]) > 0.0


def test_solve_rejects_a_stencil_before_output(tmp_path):
    """The dense experiments only use the forward stencil: naming one is exit 2."""
    out = tmp_path / "s_st"
    with open(_solve_cfg(tmp_path, out)) as fh:
        payload = json.load(fh)
    payload["params"]["stencil"] = "centered"
    assert cli.run("solve", write_cfg(tmp_path, "solve_st.json", payload)) == 2
    assert not out.exists()


def test_frequency_rejects_an_unknown_stencil_before_output(tmp_path):
    out = tmp_path / "f_st"
    payload = {
        "experiment": "frequency",
        "output_dir": str(out),
        "geometry": {"dims": [17, 17, 17, 17], "h": 0.0625, "topology": "box"},
        "params": {"field": "z1", "r_cells": [4, 6, 8], "stencil": "backward"},
    }
    assert cli.run("frequency", write_cfg(tmp_path, "freq_st.json", payload)) == 2
    assert not out.exists()
    payload["params"]["stencil"] = "forward"
    assert cli.validate_config(payload, "frequency") is payload


def test_failure_path_writes_manifest(tmp_path):
    out = tmp_path / "s2"
    cfg = write_cfg(
        tmp_path,
        "hard.json",
        {
            "experiment": "solve",
            "seed": 5,
            "output_dir": str(out),
            "geometry": {"dims": [2, 2, 2, 2], "h": 0.4, "topology": "torus"},
            "group": "u1",
            "params": {
                "init": {"kind": "random", "amplitude": 3.0},
                "perturb_amplitude": 2.0,
                "tol": 1e-14,
                "max_iter": 1,
            },
        },
    )
    assert cli.run("solve", cfg) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3
    assert manifest["error"].startswith("NewtonError: no convergence")
    frames = [line for line in manifest["traceback"].splitlines() if line.startswith('  File "')]
    assert frames[-1].endswith("in solve_newton")
    assert "solver_diagnostics.csv" in manifest["outputs"]

    # an exception escaping the runner: the manifest keeps its traceback
    out = tmp_path / "s3"
    cfg = write_cfg(
        tmp_path,
        "tip.json",
        {
            "experiment": "solve",
            "output_dir": str(out),
            "geometry": {"dims": [2, 2, 2, 2], "h": 0.4, "topology": "torus"},
            "target": "cone_h_mod_z2",
            "params": {"init": {"kind": "zero"}},
        },
    )
    assert cli.run("solve", cfg) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3
    assert manifest["error"].startswith("ConeSingularityError")
    tb = manifest["traceback"].splitlines()
    assert tb[0] == "Traceback (most recent call last):"
    frames = [line for line in tb if line.startswith('  File "')]
    # the innermost frame is the function that raised
    assert frames[-1].endswith("in canonical_rep")


def test_env_override(tmp_path):
    out_env = tmp_path / "env_out"
    cfg = write_cfg(
        tmp_path,
        "tc2.json",
        {
            "experiment": "target-check",
            "seed": 1,
            "output_dir": str(tmp_path / "ignored"),
            "params": {"samples": 5},
        },
    )
    os.environ["GSWLAB_OUT"] = str(out_env)
    try:
        assert cli.run("target-check", cfg) == 0
    finally:
        del os.environ["GSWLAB_OUT"]
    assert (out_env / "manifest.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_deform_cli(tmp_path):
    out = tmp_path / "d"
    cfg = write_cfg(
        tmp_path,
        "deform.json",
        {
            "experiment": "deform",
            "seed": 2,
            "output_dir": str(out),
            "geometry": {"dims": [2, 2, 2, 2], "h": 0.4, "topology": "torus"},
            "group": "u1",
            "params": {"init": {"kind": "pure_gauge_constant"}, "export_matrix": True},
        },
    )
    assert cli.run("deform", cfg) == 0
    rep = json.loads((out / "cohomology.json").read_text())
    assert (rep["h0"], rep["h1"], rep["h2"], rep["index"]) == (0, 0, 0, 0)
    assert rep["complex_norm"] <= 1e-9
    assert (out / "elliptic_op.txt").exists()


def test_frequency_cli(tmp_path):
    out = tmp_path / "f"
    cfg = write_cfg(
        tmp_path,
        "freq.json",
        {
            "experiment": "frequency",
            "seed": 0,
            "output_dir": str(out),
            "geometry": {"dims": [17, 17, 17, 17], "h": 0.0625, "topology": "box"},
            "params": {"field": "z1", "r_cells": [4, 6, 8]},
        },
    )
    assert cli.run("frequency", cfg) == 0
    lines = (out / "profile_000.csv").read_text().splitlines()
    assert lines[0] == "r,F,f,N,sigma,kappa,f_prime_check,eq14_check"
    n_col = [float(l.split(",")[3]) for l in lines[1:]]
    assert all(abs(x - 1.0) <= 0.05 for x in n_col)


def test_frequency_threads_change_no_output(tmp_path):
    """Two centres with the probe: one thread and two write the same bytes."""
    payload = {
        "experiment": "frequency",
        "seed": 0,
        "geometry": {"dims": [17, 17, 17, 17], "h": 0.0625, "topology": "box"},
        "params": {
            "field": "z1",
            "r_cells": [3, 5, 7],
            "centers": [[0.5, 0.5, 0.5, 0.5], [0.45, 0.55, 0.5, 0.52]],
            "probe": True,
        },
    }
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        payload["output_dir"] = str(out)
        cfg = write_cfg(tmp_path, f"freq_t{threads}.json", payload)
        assert cli.run("frequency", cfg, threads=threads) == 0
        names = json.loads((out / "manifest.json").read_text())["outputs"]
        outputs.append({name: (out / name).read_bytes() for name in names})
    assert sorted(outputs[0]) == [
        "frequency_summary.json", "profile_000.csv", "profile_001.csv", "regularity_probe.json"
    ]
    assert outputs[0] == outputs[1]


def _probe_cfg(tmp_path, name, **params):
    payload = {
        "experiment": "frequency",
        "seed": 0,
        "output_dir": str(tmp_path / name),
        "geometry": {"dims": [17, 17, 17, 17], "h": 0.0625, "topology": "box"},
        "params": {"field": "z1", "r_cells": [3, 5, 7], "probe": True, **params},
    }
    return tmp_path / name, write_cfg(tmp_path, name + ".json", payload)


def test_frequency_probe_reuses_profile_fields(tmp_path, monkeypatch):
    """A probe run computes the site fields once, and writes what a recomputing run writes."""
    calls = []
    profile_fields = fq.profile_fields

    def counted(*args, **kwargs):
        calls.append(1)
        return profile_fields(*args, **kwargs)

    monkeypatch.setattr(fq, "profile_fields", counted)
    out, cfg = _probe_cfg(tmp_path, "once")
    assert cli.run("frequency", cfg) == 0
    assert len(calls) == 1

    probe = fq.regularity_probe
    def recomputing(c, centers, eps0, stencil, fields):
        return probe(c, centers, eps0, stencil)

    monkeypatch.setattr(fq, "regularity_probe", recomputing)
    ref, cfg = _probe_cfg(tmp_path, "twice")
    assert cli.run("frequency", cfg) == 0
    assert len(calls) == 3
    names = json.loads((out / "manifest.json").read_text())["outputs"]
    assert "regularity_probe.json" in names
    assert all((out / n).read_bytes() == (ref / n).read_bytes() for n in names)


def test_frequency_radius_grid_checked_before_output(tmp_path):
    """Radii past delta0, or a ball leaving the box at a centre, are exit 2 with no output."""
    out, cfg = _probe_cfg(tmp_path, "past_delta0", r_cells=[4, 6, 10])
    assert cli.run("frequency", cfg) == 2
    assert not out.exists()
    centers = [[0.5, 0.5, 0.5, 0.5], [0.3, 0.5, 0.5, 0.5]]
    out, cfg = _probe_cfg(tmp_path, "leaves_box", centers=centers)
    assert cli.run("frequency", cfg) == 2
    assert not out.exists()
    out, cfg = _probe_cfg(tmp_path, "bad_centre", centers=[[0.5, 0.5]])
    assert cli.run("frequency", cfg) == 2
    assert not out.exists()


def test_frequency_probe_centre_near_face_checked_before_output(tmp_path, capsys):
    """A probe centre 3h from a face (delta0 < 4h, the probe's smallest ball) is exit 2
    with no output; without the probe the same grid runs."""
    centers = [[0.1875, 0.5, 0.5, 0.5]]
    out, cfg = _probe_cfg(tmp_path, "near_face", r_cells=[1, 3], centers=centers)
    assert cli.run("frequency", cfg) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "(0.1875, 0.5, 0.5, 0.5)" in err and "delta0 = 0.1875" in err and "4h = 0.25" in err
    out, cfg = _probe_cfg(tmp_path, "no_probe", r_cells=[1, 3], centers=centers, probe=False)
    assert cli.run("frequency", cfg) == 0
    assert (out / "profile_000.csv").exists()


@pytest.mark.parametrize("r_cells", [[4, 5, 6, 7, 8], [7, 3, 4], [0, 3, 5], [-3, 3, 5]])
def test_frequency_radius_spacing_and_sign_checked_before_output(tmp_path, r_cells):
    """A grid spaced under 2h (sorted or not) or a radius <= 0 is exit 2 with no output."""
    out, cfg = _probe_cfg(tmp_path, "bad_grid", r_cells=r_cells)
    assert cli.run("frequency", cfg) == 2
    assert not out.exists()


def test_sequence_cli_and_main(tmp_path):
    out = tmp_path / "q"
    cfg = write_cfg(
        tmp_path,
        "seq.json",
        {
            "experiment": "sequence",
            "seed": 0,
            "output_dir": str(out),
            "geometry": {"dims": [8, 8, 8, 8], "h": 0.125, "topology": "torus"},
            "params": {"n_terms": 4},
        },
    )
    assert cli.main(["sequence", "--config", cfg]) == 0
    flags = json.loads((out / "sequence_flags.json").read_text())
    assert not flags["empty_xprime"]


def test_kuranishi_cli(tmp_path):
    out = tmp_path / "k"
    cfg = write_cfg(
        tmp_path,
        "kur.json",
        {
            "experiment": "kuranishi",
            "seed": 1,
            "output_dir": str(out),
            "geometry": {"dims": [2, 2, 2, 2], "h": 0.5, "topology": "box"},
            "group": "u1",
            "params": {"init": {"kind": "fueter_z1"}, "n_samples": 3, "radius": 5e-3},
        },
    )
    assert cli.run("kuranishi", cfg) == 0
    rep = json.loads((out / "kuranishi.json").read_text())
    assert rep["regular"] and rep["smooth"]
    assert all(s["converged"] for s in rep["samples"])


def test_curvature_cli_fixture(tmp_path):
    out = tmp_path / "c"
    cfg = write_cfg(
        tmp_path,
        "curv.json",
        {
            "experiment": "curvature",
            "seed": 1,
            "output_dir": str(out),
            "params": {"mode": "fixture", "n_samples": 1, "oracle": True, "oracle_eps": 1e-3},
        },
    )
    assert cli.run("curvature", cfg) == 0
    lines = (out / "curvature_samples.csv").read_text().splitlines()
    assert lines[0] == ",".join(
        ("sample_id", "K_C", "bracket_norm_sq", "K_B", "gauss_terms", "K_M", "oracle_K", "rel_err")
    )
    vals = lines[1].split(",")
    assert abs(float(vals[5]) - 4.0) <= 1e-9  # K_M of the fixture level set
    assert float(vals[7]) <= 1e-6


@pytest.mark.parametrize("eps", [0, -1e-3, float("nan"), float("inf"), "1e-3"])
def test_curvature_rejects_a_bad_oracle_eps_before_output(tmp_path, eps):
    """oracle_eps 0 once wrote oracle_K = nan and exited 0, even with --strict: now exit 2, no outputs."""
    out = tmp_path / "c_eps"
    payload = {"experiment": "curvature", "output_dir": str(out),
               "params": {"mode": "fixture", "n_samples": 1, "oracle_eps": eps}}
    assert cli.run("curvature", write_cfg(tmp_path, "curv_eps.json", payload), strict=True) == 2
    assert not out.exists()


@pytest.mark.parametrize("kind", ["bogus", "custom"])
def test_sequence_rejects_an_unknown_kind_before_output(tmp_path, kind):
    """`custom` needs fields a config cannot give: only fueter_dilation and vanishing run."""
    out = tmp_path / "q_kind"
    payload = {"experiment": "sequence", "output_dir": str(out),
               "geometry": {"dims": [8, 8, 8, 8], "h": 0.125}, "params": {"n_terms": 4, "kind": kind}}
    assert cli.run("sequence", write_cfg(tmp_path, "seq_kind.json", payload)) == 2
    assert not out.exists()


def test_frequency_rejects_an_unknown_field_before_output(tmp_path):
    out = tmp_path / "f_field"
    payload = {
        "experiment": "frequency",
        "output_dir": str(out),
        "geometry": {"dims": [17, 17, 17, 17], "h": 0.0625, "topology": "box"},
        "params": {"field": "z4", "r_cells": [4, 6, 8]},
    }
    assert cli.run("frequency", write_cfg(tmp_path, "freq_field.json", payload)) == 2
    assert not out.exists()


def test_curvature_cli_reducible_configuration_exits_before_the_oracle(tmp_path):
    # u = 0 on a U(1) box: the gauge map loses the constants, so the horizontal
    # projector has no full column rank; the chart metric refuses at its centre
    out = tmp_path / "c0"
    cfg = write_cfg(
        tmp_path,
        "curv0.json",
        {
            "experiment": "curvature",
            "seed": 1,
            "output_dir": str(out),
            "geometry": {"dims": [2, 2, 2, 2], "h": 0.5, "topology": "box"},
            "group": "u1",
            "params": {"mode": "lattice", "init": {"kind": "zero"}, "n_samples": 1, "oracle": True},
        },
    )
    assert cli.run("curvature", cfg) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3
    assert manifest["error"].startswith("LinAlgError: rank loss")
    frames = [line for line in manifest["traceback"].splitlines() if line.startswith('  File "')]
    assert frames[-1].endswith("in range_projector")
    assert any(f.endswith("in solution_chart_metric") for f in frames)
    assert not any(f.endswith("in fd_oracle_curvature") for f in frames)


# ---------------------------------------------------------------------------
# the schema: one default and one check per key

_BASE = {
    "target-check": {},
    "solve": {"geometry": {"dims": [2, 2, 2, 2], "h": 0.4}, "group": "u1"},
    "deform": {"geometry": {"dims": [2, 2, 2, 2], "h": 0.4}, "group": "u1"},
    "kuranishi": {"geometry": {"dims": [2, 2, 2, 2], "h": 0.5, "topology": "box"}, "group": "u1",
                  "params": {"init": {"kind": "fueter_z1"}}},
    "curvature": {"params": {"mode": "fixture"}},
    "frequency": {"geometry": {"dims": [9, 9, 9, 9], "h": 0.125, "topology": "box"},
                  "params": {"r_cells": [2, 4]}},
    "sequence": {"geometry": {"dims": [8, 8, 8, 8], "h": 0.125}},
}


def _config(experiment, **params):
    """A small valid config of `experiment` with `params` laid over its base params."""
    payload = json.loads(json.dumps(_BASE[experiment]))
    payload["experiment"] = experiment
    payload["params"] = {**payload.get("params", {}), **params}
    return payload


@pytest.mark.parametrize("experiment, params", [
    ("kuranishi", {"n_samples": "abc"}),
    ("target-check", {"samples": "x"}),
    ("deform", {"init": {"kind": "random", "amplitude": "big"}}),
    ("sequence", {"n_terms": 0}),
    ("sequence", {"c1": 0}),
    ("sequence", {"tail_window": 0}),
    ("frequency", {"field": "sym_product", "multiset": [1, 4]}),
    ("kuranishi", {"n_samples": -1}),
    ("kuranishi", {"radius": -1}),
    ("solve", {"max_iter": 2.5}),
    ("solve", {"tol": "1e-10"}),
    ("deform", {"complex_check": "no"}),
    ("target-check", {"seed": -1}),
    ("deform", {"init": {"kind": "pure_gauge_constant", "gauge_seed": -1}}),
    ("solve", {"geometry": {"dims": [6, 6, 6, 6], "h": 0.25, "topology": "box"}, "group": "u1"}),
    ("deform", {"geometry": {"dims": [6, 6, 6, 6], "h": 0.25, "topology": "torus"}, "group": "u1"}),
    ("kuranishi", {"geometry": {"dims": [6, 6, 6, 6], "h": 0.25, "topology": "torus"}}),
    ("curvature", {"mode": "lattice", "geometry": {"dims": [5, 5, 5, 5], "h": 0.4, "topology": "box"},
                   "group": "u1"}),
])
def test_refused_values_exit2_before_output(tmp_path, experiment, params):
    """Each of these once passed validation and then exited 3 after making the output
    directory (a negative seed reached np.random.default_rng), or exited 0 (max_iter 2.5
    ran as 2, complex_check "no" as true); or it is a dense problem over the size limit,
    which only a torus `solve` may pass.  A top-level config key such as seed is laid
    over the config itself, the rest over its params."""
    out = tmp_path / "out"
    top = {key: value for key, value in params.items() if key in cli.SCHEMA[experiment]}
    params = {key: value for key, value in params.items() if key not in top}
    payload = {**_config(experiment, **params), **top, "output_dir": str(out)}
    assert cli.run(experiment, write_cfg(tmp_path, "bad.json", payload)) == 2
    assert not out.exists()


@pytest.mark.parametrize("experiment, path, good, bad", [
    ("target-check", "params.samples", [1, 100], [0, 1.0, True]),
    ("sequence", "params.n_terms", [1], [0, 2.5]),
    ("sequence", "params.tail_window", [1], [0]),
    ("kuranishi", "params.n_samples", [0, 3], [-1, 2.0]),
    ("solve", "params.max_iter", [0], [-1, 2.5, False]),
    ("solve", "params.tol", [1e-10, 1], [0, -1e-10, "1e-10", np.nan, np.inf, None]),
    ("target-check", "params.fd_step", [1e-4], [0]),
    ("curvature", "params.oracle_eps", [1e-3, 1], [0, -1e-3]),
    ("sequence", "params.growth", [2, 2.5], [0]),
    ("sequence", "params.c1", [4], [0, -4.0]),
    ("sequence", "params.lambda0", [None, 6, 6.0], [0, -1.0, np.nan]),
    ("kuranishi", "params.radius", [0, 5e-3], [-1, np.inf]),
    ("target-check", "params.fd_tol", [0], [-1e-6]),
    ("target-check", "params.alg_tol", [0, 1e-12], [-1.0]),
    ("solve", "params.perturb_amplitude", [-1e-3, 0, 2], [np.nan, -np.inf, None, True]),
    ("frequency", "params.probe_eps0", [3.0, -1], [np.inf]),
    ("frequency", "params.multiset", [[1], [3, 3, 1]], [[], [0, 1], [1, 4], [True], [1.0], 12]),
    ("frequency", "params.centers", [None, [[0.5, 0.5, 0.5, 0.5]]], [[], [[0.5, 0.5]], [0.5] * 4]),
    ("frequency", "params.r_cells", [[2, 4], [1.5, 3.5]], [[], ["2", "4"], [2, np.nan]]),
    ("sequence", "params.base_offset", [[1, 0, 0, 0]], [[1, 0, 0], [1, 0, 0, np.nan], None]),
    ("deform", "params.complex_check", [True, False], ["no", 0, None]),
    ("curvature", "params.oracle", [True, False], [1, "yes"]),
    ("frequency", "params.stencil", ["forward"], ["Forward", None]),
    ("deform", "params.init.kind", ["zero", "snapshot"], ["bogus", None]),
    ("solve", "params.init.gauge_seed", [None, 4, 0], [4.0, True, -1]),
    ("solve", "seed", [0, 7], [True, 1.5, "7", None, -1]),
    ("solve", "geometry.dims", [[2, 3, 2, 2]], [[1, 2, 2, 2], [2, 2, 2], [2.0, 2, 2, 2], [True] * 4]),
    ("solve", "geometry.h", [0.4, 1], [0, -0.4, np.nan, "0.4"]),
    ("solve", "geometry.topology", ["box"], ["Box", None]),
    ("solve", "group", ["trivial"], ["U1", None]),
    ("solve", "target", ["cone_h_mod_z2"], ["cone", None]),
    ("solve", "output_dir", ["out"], [3, None]),
    ("sequence", "geometry", [{"dims": [8] * 4, "h": 0.125}], [None, {}, {"h": 0.125}, []]),
    ("target-check", "geometry", [{"dims": [2] * 4, "h": 0.5}], [None, {}]),
    ("deform", "params", [{}], [None, []]),
    ("deform", "params.init", [{}], [None]),
])
def test_schema_accepts_exactly_its_range(tmp_path, experiment, path, good, bad):
    """Each check accepts finite JSON numbers in range (integers where they count, never
    bools), JSON booleans for flags, listed strings for names, and null only where the
    default is null; a value outside is a ConfigError naming the key."""
    *parents, key = path.split(".")

    def payload_with(value):
        payload = _config(experiment)
        node = payload
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = value
        if value == "snapshot":
            geom = LatticeGeom((2,) * 4, 0.4)
            node["path"] = str(tmp_path / "snap.json")
            lat.snapshot_save(node["path"], SpinorField(geom, np.zeros(geom.dims + (4,))),
                              ConnectionField(geom, GaugeGroup.U1))
        return payload

    for value in good:
        payload = payload_with(value)
        assert cli.validate_config(payload, experiment) is payload
    for value in bad:
        with pytest.raises(cli.ConfigError, match=key):
            cli.validate_config(payload_with(value), experiment)


def test_filled_config_holds_every_default():
    """The runners read the filled config: every schema key is there, defaults included,
    and validation leaves the caller's dict as it was."""
    payload = _config("solve", tol=1e-9)
    before = json.dumps(payload)
    full = cli._filled(payload, "solve")
    assert json.dumps(payload) == before
    assert set(full) == set(cli.SCHEMA["solve"]) and set(full["params"]) == set(cli.PARAMS["solve"])
    assert full["params"]["tol"] == 1e-9 and full["params"]["max_iter"] == 20
    assert full["params"]["init"] == {"kind": "random", "amplitude": 0.3, "offset": 1.0,
                                      "path": None, "gauge_seed": None}
    assert (full["seed"], full["group"], full["geometry"]["topology"]) == (0, "u1", "torus")
    assert "geometry" not in cli._filled({"experiment": "target-check"}, "target-check")


def test_library_defaults_agree_with_the_schema():
    """Where a library signature also defaults a schema key, the two defaults agree.

    Left out on purpose: curvature `oracle_eps` (3e-3) against `fd_oracle_curvature`'s
    `eps` (1e-3).  The oracle's 1e-3 is the step of the closed-form fixture; the CLI's
    default mode is lattice, whose chart metric is itself a Newton solve, and the
    oracle's Richardson combination scales that rounding by about 1/eps^2, so the lattice
    runs (the example config, acceptance criterion 5 and the curvature_box benchmark)
    take the larger 3e-3 step."""

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    def schema(experiment, key):
        return cli.PARAMS[experiment][key][0]

    for key in ("radius", "tol", "n_samples"):
        assert default(dfm.kuranishi, key) == schema("kuranishi", key)
    for key in ("tol", "max_iter"):
        assert default(gsw.solve_newton, key) == schema("solve", key)
    fields = {f.name: f.default for f in dataclasses.fields(fq.SequenceSpec)}
    for key, (value, _) in cli.PARAMS["sequence"].items():
        assert fields[key] == (tuple(value) if isinstance(value, list) else value), key
    assert default(fq.regularity_probe, "eps0") == schema("frequency", "probe_eps0")
    assert default(fq.monotonicity_scan, "c0") == schema("frequency", "monotonicity_c0")
    assert default(fq.fueter_library, "multiset") == tuple(schema("frequency", "multiset"))


def test_every_example_config_validates():
    """scripts/make_example_configs.py writes only configs the schema accepts."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "make_example_configs.py"
    spec = importlib.util.spec_from_file_location("make_example_configs", path)
    examples = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(examples)
    assert len(examples.CONFIGS) == 8
    for name, payload in examples.CONFIGS.items():
        assert cli.validate_config(payload, payload["experiment"]) is payload, name


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_rows(intro):
    """{key: (default, accepted values)} of the README table after the line starting `intro`."""
    text = README.read_text()
    lines = text[text.index("\n" + intro) + 1:].splitlines()
    start = lines.index("| key | default | accepted values |")
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        key, default, accepts = (cell.strip() for cell in line.strip("|").split("|"))
        rows[key.strip("`")] = (default, accepts)
    return rows


def _schema_rows(schema, prefix=""):
    """The same from the schema; an object with a default has one row, with no values."""
    rows = {}
    for key, (default, check) in schema.items():
        if isinstance(check, dict) and default is cli.OPTIONAL:
            rows.update(_schema_rows(check, prefix + key + "."))
        elif isinstance(check, dict):
            rows[prefix + key] = ("`{}`", None)
        elif key != "experiment":
            shown = "required" if default is cli.REQUIRED else f"`{json.dumps(default)}`"
            rows[prefix + key] = (shown, check.accepts)
    return rows


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_readme_tables_state_the_schema(experiment):
    tables = [(cli.SCHEMA[experiment], "Every config"), (cli.PARAMS[experiment], f"`{experiment}` params")]
    if "init" in cli.PARAMS[experiment]:
        tables.append((cli.INIT, "`init`, the starting configuration"))
    for schema, intro in tables:
        expected, stated = _schema_rows(schema), _readme_rows(intro)
        stated.pop("experiment", None)
        assert set(stated) == set(expected), intro
        for key, (default, accepts) in expected.items():
            assert stated[key][0] == default, key
            assert accepts is None or stated[key][1] == accepts, key
