"""Run one workload for a fixed time, check every operation, report metrics.

An operation that raises, returns a non-finite value or misses its check
counts as failed; the run goes on.  End-to-end metrics come from untraced
operations.  With ``--trace 1`` the run alternates untraced and traced
operations: the traced ones give the per-layer metrics, and the difference of
the two medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from . import metrics as M
from .instrument import Probe, SetupDone, Span, Tracer, now, self_times
from .workloads import WORKLOADS, Context, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

# Set-up only repetitions before the timed operations; with each operation's
# own set-up they give setup_s enough samples for a steady median.
SETUP_REPS = 10
LAYERS = ("biphoton", "model", "pathways", "signal", "oracle", "cli", "crosscheck")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class OpRecord:
    wall: float
    setup: Optional[float]       # None when the operation failed in set-up
    points: int
    error: Optional[str]
    traced: bool
    spans: List[Span] = field(default_factory=list)


@dataclass
class Run:
    records: List[OpRecord]
    setups: List[float]

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(r.error is not None for r in self.records)


def _commit() -> Optional[str]:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _source_hash() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "homspec")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def _blas() -> Dict[str, Any]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def environment(workers: int) -> Dict[str, Any]:
    return {
        "commit": _commit(),
        "source_sha256": _source_hash(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workers": workers,
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def _attempt(workload: Workload, inputs, ctx: Context, probe: Probe) -> OpRecord:
    probe.arm()
    t0 = now()
    try:
        out = workload.operation(inputs, ctx)
        wall = now() - t0
        error = workload.check(inputs, out, ctx)
    except Exception as exc:  # any failure counts against error_rate
        wall = now() - t0
        error = f"{type(exc).__name__}: {exc}"
    setup = None if probe.first is None else probe.first - t0
    return OpRecord(wall, setup, workload.points(inputs), error, False)


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            ctx: Context) -> Run:
    """Run `workload` for about `seconds`, starting no operation that would
    be expected to end more than half an operation past the deadline."""
    rng = np.random.default_rng(seed)
    probe = Probe()
    tracer = Tracer(workload.name)
    records: List[OpRecord] = []
    setups: List[float] = []
    deadline = now() + seconds
    with probe.installed():
        for _ in range(SETUP_REPS):
            inputs = workload.draw(rng, ctx)
            probe.arm(abort=True)
            t0 = now()
            try:
                workload.operation(inputs, ctx)
                error = "no compute call reached"
            except SetupDone:
                setups.append(probe.first - t0)
                continue
            except Exception as exc:
                error = f"set-up: {type(exc).__name__}: {exc}"
            records.append(OpRecord(now() - t0, None, 0, error, False))
        k = 0
        while True:
            inputs = workload.draw(rng, ctx)
            traced = trace and k % 2 == 1
            if traced:
                tracer.begin_op(k)
                with tracer.installed():
                    rec = _attempt(workload, inputs, ctx, probe)
                rec.traced = True
                rec.spans = [s for s in tracer.spans if s.op == k]
            else:
                rec = _attempt(workload, inputs, ctx, probe)
            records.append(rec)
            k += 1
            if k < (2 if trace else 1):
                continue
            typical = statistics.median(r.wall for r in records)
            if now() + 0.5 * typical > deadline:
                break
    setups += [r.setup for r in records if r.setup is not None and not r.traced]
    return Run(records, setups)


def _summary(values: List[float]) -> Dict[str, Any]:
    """Median and the highest order statistic with ten samples beyond it
    (the maximum when there are too few samples)."""
    values = sorted(values)
    n = len(values)
    if n == 0:
        return {"n": 0}
    out = {"n": n, "median": statistics.median(values)}
    if n > 10:
        out[f"p{100 * (n - 10) // n}"] = values[n - 11]
    else:
        out["max"] = values[-1]
    return out


def end_to_end(run: Run) -> Dict[str, float]:
    plain = [r for r in run.records if not r.traced and r.setup is not None]
    good = [r for r in plain if r.error is None] or plain
    if not good:
        raise RuntimeError("no operation reached its compute stage")
    return {
        "wall_s": statistics.median(r.wall for r in good),
        "setup_s": statistics.median(run.setups),
        "points_per_s": statistics.median(r.points / (r.wall - r.setup)
                                          for r in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(spans: List[Span], default_workers: int) -> Dict[str, float]:
    """Per-layer metrics of one traced operation."""
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    point_s = total("signal.coincidence")
    tv_points = attr("biphoton.time_value", "points")
    ev_points = attr("model.evaluate", "points")
    busy = capacity = 0.0
    for sc in named("signal.scan"):
        busy += sum(s.duration for s in spans
                    if s.parent == sc.id and s.name == "signal.coincidence")
        capacity += sc.duration * (sc.attrs.get("workers") or default_workers)
    m = {
        "biphoton.time_value_s": total("biphoton.time_value"),
        "biphoton.time_value_calls": len(named("biphoton.time_value")),
        "biphoton.time_value_points": tv_points,
        "biphoton.time_value_share": (total("biphoton.time_value") / point_s
                                      if point_s else 0.0),
        "biphoton.time_support_s": total("biphoton.time_support"),
        "biphoton.time_support_calls": len(named("biphoton.time_support")),
        "biphoton.time_support_share": (total("biphoton.time_support") / point_s
                                        if point_s else 0.0),
        "biphoton.default_grid_s": total("biphoton.default_grid"),
        "biphoton.build_jsa_s": total("biphoton.build_jsa"),
        "biphoton.to_time_domain_calls": len(named("biphoton.to_time_domain")),
        "model.build_s": total("model.LiouvilleOperatorSet") + total("model.build"),
        "model.evaluate_s": total("model.evaluate"),
        "model.evaluate_calls": len(named("model.evaluate")),
        "model.evaluate_points": ev_points,
        "pathways.term_table_s": total("pathways.term_table"),
        "pathways.term_table_calls": len(named("pathways.term_table")),
        "signal.point_s": point_s,
        "signal.row_self_s": sum(selfs[s.id] for s in named("signal.term_value")),
        "signal.useful_ratio": ev_points / tv_points if tv_points else 0.0,
        "signal.scan_s": total("signal.scan"),
        "signal.scan_efficiency": busy / capacity if capacity else 0.0,
        "signal.serialize_s": total("signal.serialize"),
        "oracle.evolve_s": total("oracle.evolve_perturbative"),
        "oracle.evolve_calls": len(named("oracle.evolve_perturbative")),
        "oracle.detect_s": total("oracle.fourth_order_coincidence"),
        "cli.load_config_s": total("cli.load_config"),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s.id] for s in spans if s.layer == layer)
    return m


def per_layer(run: Run, default_workers: int) -> Dict[str, float]:
    traced = [r for r in run.records if r.traced]
    per_op = [layer_metrics(r.spans, default_workers) for r in traced]
    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    untraced = [r.wall for r in run.records if not r.traced and r.setup is not None]
    out["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                               - statistics.median(untraced))
    return out


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: str, workers: int) -> Dict[str, Any]:
    """Measure one workload; write its result (and spans) under `out_dir`
    and return the result line."""
    os.makedirs(out_dir, exist_ok=True)
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    env = environment(workers)
    ctx = Context(out_dir=out_dir, workers=workers, reference=reference)
    run = measure(workload, seed, seconds, trace, ctx)
    if trace:
        values = per_layer(run, workers)
        names = [m.name for m in M.PER_LAYER]
    else:
        values = end_to_end(run)
        names = [m.name for m in M.END_TO_END]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": M.UNITS[n]} for n in names},
    }
    plain = [r for r in run.records if not r.traced and r.setup is not None]
    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "environment": env,
        "error_rate": run.failed / run.attempted,
        "errors": [r.error for r in run.records if r.error],
        "wall_s": _summary([r.wall for r in plain]),
        "setup_s": _summary(run.setups),
        "operations": [{"wall_s": r.wall, "setup_s": r.setup, "points": r.points,
                        "traced": r.traced, "error": r.error}
                       for r in run.records],
        "result": result,
    }
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    _write_json(os.path.join(out_dir, f"result-{tag}.json"), detail)
    if trace:
        spans = [dataclasses.asdict(s) for r in run.records for s in r.spans]
        _write_json(os.path.join(out_dir, f"spans-{tag}.json"), spans)
    return detail


def _print_report(detail: Dict[str, Any]) -> None:
    result = detail["result"]
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"{detail['seconds']} s  trace {detail['trace']}")
    for name, m in result["metrics"].items():
        extra = ""
        if name in ("wall_s", "setup_s"):
            extra = "  " + json.dumps(detail[name])
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}{extra}")
    print(f"  {'error_rate':32s} {detail['error_rate']:14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} failed)")
    for err in detail["errors"][:5]:
        print(f"  failure: {err}")
    print("environment " + json.dumps(detail["environment"]))


def _run_all(args) -> int:
    """Each workload in a fresh process, one at a time, then a table."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds + 170)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        rows.append((name, result))
    names = list(rows[0][1]["metrics"]) + ["error_rate"]
    units = {**M.UNITS, "error_rate": "ratio"}
    print(f"{'metric':32s} {'unit':6s}" + "".join(f" {n:>18s}" for n, _ in rows))
    for metric in names:
        cells = []
        for _, r in rows:
            v = (r["failed"] / r["attempted"] if metric == "error_rate"
                 else r["metrics"][metric]["value"])
            cells.append(f" {v:18.6g}")
        print(f"{metric:32s} {units[metric]:6s}" + "".join(cells))
    print(json.dumps({n: r for n, r in rows}))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/run.py",
        description="homspec benchmark: runs one workload (or --all) and "
                    "prints its metrics; the last line is the JSON result")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true",
                        help="every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return _run_all(args)
    workers = len(os.sched_getaffinity(0))
    detail = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), os.path.join(ROOT, ".bench_out"),
                          workers)
    _print_report(detail)
    print(json.dumps(detail["result"]))
    return 0
