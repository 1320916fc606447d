"""Tests of the benchmark harness itself (not of homspec).

    python3 -m pytest benchmarks/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import homspec.signal  # noqa: E402
from homspec_bench import metrics as M  # noqa: E402
from homspec_bench.instrument import Span, self_times  # noqa: E402
from homspec_bench.runner import (end_to_end, layer_metrics, measure,  # noqa: E402
                                  run_workload)
from homspec_bench.workloads import (WORKLOADS, Context, Workload,  # noqa: E402
                                     tiny)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_valid_and_in_step_with_benchmark_json():
    spec = _benchmark_json()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(M.NAME_RE.match(n) for n in names)
    assert all(ch.isalnum() or ch in "_.-" for n in names for ch in n)
    for key, table in (("end_to_end", M.END_TO_END), ("per_layer", M.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == \
            [(m.name, m.unit, m.better) for m in table]
    assert [m["bound"] for m in spec["end_to_end"]] == [m.bound for m in M.END_TO_END]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert all(m.moves and m.on and m.barely_on for m in M.PER_LAYER)


def _ctx(tmp_path):
    return Context(out_dir=str(tmp_path), workers=2, reference={})


def test_failures_are_counted_and_never_abort(tmp_path, monkeypatch):
    outcomes = iter(["raise", "nan", "miss"])

    def fake_point(*args, **kwargs):
        kind = next(outcomes, "ok")
        if kind == "raise":
            raise ValueError("injected")
        return {"ok": 1.0, "nan": float("nan"), "miss": 2.0}[kind]

    def check(inputs, value, ctx):
        if not math.isfinite(value):
            return "non-finite"
        return None if value == 1.0 else "wrong value"

    # a compute entry point, so the probe sees where set-up ends
    monkeypatch.setattr(homspec.signal, "coincidence", fake_point)
    fake = Workload("fake", "", lambda rng, ctx: None,
                    lambda inputs, ctx: homspec.signal.coincidence(), check,
                    lambda _: 1)
    run = measure(fake, seed=0, seconds=0.05, trace=False, ctx=_ctx(tmp_path))
    assert run.attempted >= 4
    assert run.failed == 3
    assert end_to_end(run)["wall_s"] > 0


def test_injected_failing_point_counts_in_error_rate(tmp_path, monkeypatch):
    def broken(tau, T, s, *args, **kwargs):
        return float("nan")

    monkeypatch.setattr(homspec.signal, "coincidence", broken)
    detail = run_workload(tiny("scan-tau-T"), seed=0, seconds=0, trace=False,
                          out_dir=str(tmp_path), workers=2)
    result = detail["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert detail["error_rate"] == 1.0
    assert "finite" in detail["errors"][0]


def _span(sid, start, end, parent=None, thread=1, name="signal.coincidence",
          **attrs):
    layer = name.partition(".")[0]
    return Span(sid, name, layer, start, end, parent, thread, "w", 0, attrs)


def test_self_times_on_synthetic_tree():
    spans = [
        _span(0, 0.0, 10.0, name="signal.scan", workers=2),
        _span(1, 1.0, 4.0, parent=0, thread=2),
        _span(2, 3.0, 6.0, parent=0, thread=3),          # overlaps span 1
        _span(3, 2.0, 3.0, parent=1, thread=2, name="biphoton.time_value",
              points=10),
        _span(4, 9.0, 12.0, parent=0, thread=2),         # outlives its parent
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0,
                                   3: 1.0, 4: 3.0})
    m = layer_metrics(spans, default_workers=2)
    assert m["signal.point_s"] == pytest.approx(9.0)
    assert m["signal.scan_efficiency"] == pytest.approx(9.0 / 20.0)
    assert m["biphoton.self_s"] == pytest.approx(1.0)
    assert m["signal.self_s"] == pytest.approx(4.0 + 2.0 + 3.0 + 3.0)
    assert m["biphoton.time_value_points"] == 10
    assert m["trace.spans"] == 5


@pytest.mark.parametrize("name,trace", [
    ("golden-point", False), ("scan-tau-T", True), ("readme-cli", True),
    ("oracle-crosscheck", False)])
def test_tiny_smoke_run(name, trace, tmp_path):
    detail = run_workload(tiny(name), seed=1, seconds=0, trace=trace,
                          out_dir=str(tmp_path), workers=2)
    result = detail["result"]
    assert result["correct"], detail["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = M.PER_LAYER if trace else M.END_TO_END
    assert list(result["metrics"]) == [m.name for m in table]
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert os.path.exists(tmp_path / f"result-{name}-seed1-trace{int(trace)}.json")


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "golden-point",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
