"""scripts/parity.py compare on synthetic record directories."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "parity.py"


@pytest.fixture
def parity(monkeypatch):
    # the script pins BLAS threads in os.environ on import; monkeypatch restores them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("parity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_record(path, nums, sha256):
    path.mkdir()
    np.savez(path / "outputs.npz", **nums)
    (path / "digest.json").write_text(json.dumps({"strings": {"w/1/flag": "full"}, "sha256": sha256}))
    return str(path)


NUMS = {"w/1/f": np.array([1.0, 2.0, 4.0]), "w/1/N": np.array(np.nan), "w/1/sup": np.array(3.0)}
FILES = {"freq/profile_000.csv": "aa", "freq/summary.json": "bb"}


def summary(capsys):
    return capsys.readouterr().out.splitlines()[-1]


def test_compare_identical(parity, tmp_path, capsys):
    a = write_record(tmp_path / "a", NUMS, FILES)
    b = write_record(tmp_path / "b", NUMS, FILES)
    assert parity.compare(a, b, 0.0) == 0
    assert summary(capsys) == "summary: 3/3 keys identical, 0 moved (none moved), 0 files differ"


def test_compare_moved_within_and_over_the_bound(parity, tmp_path, capsys):
    a = write_record(tmp_path / "a", NUMS, FILES)
    moved = dict(NUMS, **{"w/1/f": np.array([1.0, 2.0, 4.0 * (1 + 2e-15)]), "w/1/sup": np.array(3.0 + 3e-15)})
    b = write_record(tmp_path / "b", moved, dict(FILES, **{"freq/profile_000.csv": "cc"}))
    assert parity.compare(a, b, 1e-12) == 0
    line = summary(capsys)
    rel = np.abs(moved["w/1/f"][2] - 4.0) / moved["w/1/f"][2]
    assert line == ("summary: 1/3 keys identical, 2 moved (worst rel %.3e at w/1/f), 1 files differ" % rel)
    assert parity.compare(a, b, 1e-16) == 1
    assert summary(capsys) == line


def test_compare_missing_key(parity, tmp_path, capsys):
    a = write_record(tmp_path / "a", NUMS, FILES)
    b = write_record(tmp_path / "b", {k: v for k, v in NUMS.items() if k != "w/1/sup"}, FILES)
    assert parity.compare(a, b, 1.0) == 1
    out = capsys.readouterr().out.splitlines()
    assert "w/1/sup: missing in %s" % b in out
    assert out[-1] == "summary: 2/3 keys identical, 0 moved (none moved), 0 files differ"
