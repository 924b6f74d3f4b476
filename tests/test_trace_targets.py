"""The benchmark tracer's target list still names callables of the package.

`bench/spans.py` looks each target up as `owner.__dict__[attr]`, so a
renamed or deleted function makes `bench/run.py --trace 1` fail with a
KeyError; `bench/test_bench.py` lies outside the default test paths.
"""

import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _, _ in spans.TARGETS
        if not callable(owner.__dict__.get(attr))
    ]
    assert not missing
