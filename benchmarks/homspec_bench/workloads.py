"""The four workloads: inputs drawn from a seed, one timed operation, and
the check of its outputs against reference values stored in
``benchmarks/reference.json`` (see ``benchmarks/make_reference.py``).

Every operation pays its own set-up, as a user's run does.  The program
receives only the generated inputs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np
import yaml

# Package functions are called through their modules so that the traced run,
# which replaces module attributes, sees the calls made from here too.
from homspec import biphoton, cli, crosscheck, signal
from homspec.biphoton import CrystalSpec, PumpSpec
from homspec.model import ExcitonSystem, Level, LiouvilleOperatorSet
from homspec.pathways import HomSpec
from homspec.signal import QuadratureSpec, SignalGrid

# criterion-9 golden point; the criterion-9 tolerance applies to every check
GOLDEN = {"tau": 20.0, "T": 10.0, "s": 15.0, "cutoff": 240.0, "step": 0.1}
REL_TOL = 1e-6

# criterion-10 lattice; an operation scans one tau and one T value from each
# stratum of SCAN_STRATUM consecutive axis values, so every operation spreads
# over the whole lattice and costs about the same
SCAN_AXIS = np.linspace(0.0, 9.5, 20)
SCAN_S = 3.0
SCAN_STRATUM = 5

# README example; an operation runs README_STRATA tau points, one from each
# stratum of the reference tau lattice
README_TAU = np.linspace(0.0, 30.0, 61)
README_STRATA = 8

README_CONFIG: Dict[str, Any] = {
    "system": {
        "levels": [
            {"label": "g0", "manifold": "g", "energy_rad_per_fs": 0.0},
            {"label": "e0", "manifold": "e", "energy_rad_per_fs": 1.5},
            {"label": "f0", "manifold": "f", "energy_rad_per_fs": 2.9},
        ],
        "dipoles_ge": [[1.0]],
        "dipoles_ef": [[0.8]],
        "dephasing": {"default_per_fs": 0.05},
    },
    "pump": {"omega_p_rad_per_fs": 2.9, "sigma_p_rad_per_fs": 0.5},
    "crystal": {"omega_a_rad_per_fs": 1.5, "omega_b_rad_per_fs": 1.4,
                "T_a_fs": 10.0, "T_b_fs": -14.0},
    "preparation": {"theta_rad": 0.0, "delay_arm": "a"},
    "hom": {"bs_removed": False},
    "scan": {"tau_fs": {"start": 0.0, "stop": 30.0, "num": 16},
             "T_fs": [10.0], "s_fs": [15.0]},
    "grid": {"n": 256},
    "quadrature": {"step_fs": 0.2, "rule": "trapezoid"},
    "mode": "full",
    "output": "signal.dat",
}


@dataclass
class Context:
    """What an operation may use besides its inputs."""

    out_dir: str
    workers: int
    reference: Dict[str, Any]


@dataclass
class Workload:
    name: str
    why: str
    draw: Callable[[np.random.Generator, Context], Any]
    operation: Callable[[Any, Context], Any]
    check: Callable[[Any, Any, Context], Optional[str]]  # None when correct
    points: Callable[[Any], int]


def _close(value: float, ref: float, scale: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= REL_TOL * scale


def _mismatch(values, refs, label: str,
              scale: Optional[float] = None) -> Optional[str]:
    """None when every value is finite and within REL_TOL * `scale` of its
    reference; `scale` defaults to the largest reference magnitude."""
    values = np.asarray(values, dtype=float).ravel()
    refs = np.asarray(refs, dtype=float).ravel()
    if values.shape != refs.shape:
        return f"{label}: shape {values.shape}, expected {refs.shape}"
    if scale is None:
        scale = float(np.max(np.abs(refs)))
    for k, (v, r) in enumerate(zip(values, refs)):
        if not _close(float(v), float(r), scale):
            return f"{label}[{k}] = {v!r}, expected {r!r}"
    return None


def _strata_pick(rng: np.random.Generator, n: int, stratum: int) -> np.ndarray:
    """One index from each block of `stratum` consecutive indices."""
    starts = np.arange(0, n, stratum)
    return np.array([s + rng.integers(0, min(stratum, n - s)) for s in starts])


# --------------------------------------------------------------------------
# golden-point
# --------------------------------------------------------------------------

def golden_setup(step: float = GOLDEN["step"]):
    system = ExcitonSystem(
        levels=[Level("g0", "g", 0.0), Level("e0", "e", 1.5),
                Level("f0", "f", 2.9)],
        dipoles_ge=[[1.0]], dipoles_ef=[[0.8]], dephasing_default=0.05)
    ops = LiouvilleOperatorSet(system)
    pump = PumpSpec(omega_p=2.9, sigma_p=0.5)
    crystal = CrystalSpec(omega_a=1.5, omega_b=1.4, T_a=10.0, T_b=-14.0)
    grid = biphoton.default_grid(pump, crystal, n=256)
    amp = biphoton.build_jsa(pump, crystal, 0.0, grid, s=GOLDEN["s"])
    q = QuadratureSpec(cutoff=GOLDEN["cutoff"], step=step, rule="trapezoid",
                       t_ref=signal.reference_time(amp))
    q.validate(ops)
    return amp, ops, q


def golden_operation(step: float, ctx: Context) -> float:
    amp, ops, q = golden_setup(step)
    return signal.coincidence(GOLDEN["tau"], GOLDEN["T"], GOLDEN["s"], amp,
                              ops, q, hom=HomSpec(T=GOLDEN["T"]))


def golden_check(step: float, value: float, ctx: Context) -> Optional[str]:
    ref = ctx.reference["golden"][repr(step)]
    return _mismatch([value], [ref], "golden")


# --------------------------------------------------------------------------
# scan-tau-T
# --------------------------------------------------------------------------

def scan_setup():
    system = ExcitonSystem(
        levels=[Level("g0", "g", 0.0), Level("e0", "e", 0.8)],
        dipoles_ge=[[1.0]], dephasing_default=0.25)
    ops = LiouvilleOperatorSet(system)
    # Gaussian pair amplitude of criterion 10: n=128, padded to 1024^2
    w = np.linspace(0.4 - 1.6, 0.4 + 1.6, 128)
    wa, wb = w[:, None], w[None, :]
    vals = np.exp(-((wa + wb - 0.8) / 0.3) ** 2 - ((wa - wb) / 0.5) ** 2)
    amp = biphoton.from_frequency_values(w, w, vals, s=SCAN_S, delay_arm="a")
    q = QuadratureSpec(cutoff=48.0, step=0.4, rule="trapezoid",
                       t_ref=signal.reference_time(amp))
    q.validate(ops)
    return amp, ops, q


def scan_draw(rng: np.random.Generator, ctx: Context, stratum: int = SCAN_STRATUM):
    n = SCAN_AXIS.size
    return _strata_pick(rng, n, stratum), _strata_pick(rng, n, stratum)


def scan_operation(picks, ctx: Context):
    i, j = picks
    amp, ops, q = scan_setup()
    grid = signal.scan(SCAN_AXIS[i], SCAN_AXIS[j], [SCAN_S], "full", amp, ops,
                       q, workers=ctx.workers)
    return grid, grid.serialize()


def scan_check(picks, out, ctx: Context) -> Optional[str]:
    i, j = picks
    grid, text = out
    ref = np.asarray(ctx.reference["scan"]["values"])
    bad = _mismatch(grid.values[:, :, 0], ref[np.ix_(i, j)], "scan",
                    float(np.max(np.abs(ref))))
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    if bad is None and len(rows) != i.size * j.size:
        bad = "scan: serialized grid has the wrong number of rows"
    return bad


# --------------------------------------------------------------------------
# readme-cli
# --------------------------------------------------------------------------

def readme_draw(rng: np.random.Generator, ctx: Context,
                strata: int = README_STRATA):
    n = README_TAU.size
    stratum = -(-n // strata)
    idx = _strata_pick(rng, n, stratum)
    config = dict(README_CONFIG, scan=dict(README_CONFIG["scan"],
                                           tau_fs=[float(t) for t in README_TAU[idx]]))
    path = os.path.join(ctx.out_dir, "readme.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(config, fh, sort_keys=False)
    return idx, path


def readme_operation(inputs, ctx: Context):
    _, path = inputs
    out = os.path.join(ctx.out_dir, "readme.dat")
    for stale in (out, out + ".meta"):
        if os.path.exists(stale):
            os.remove(stale)
    rc = cli.main(["run", "--config", path, "--workers", str(ctx.workers),
                   "--out", out])
    return rc, out


def readme_check(inputs, out, ctx: Context) -> Optional[str]:
    idx, _ = inputs
    rc, path = out
    if rc != 0:
        return f"readme-cli: simulate run exited with {rc}"
    if not os.path.exists(path + ".meta"):
        return "readme-cli: no .meta sidecar"
    grid = SignalGrid.load(path)
    ref = np.asarray(ctx.reference["readme"]["values"])
    if not np.array_equal(grid.tau_values, README_TAU[idx]):
        return "readme-cli: tau axis of the output differs from the input"
    return _mismatch(grid.values[:, 0, 0], ref[idx], "readme",
                     float(np.max(np.abs(ref))))


# --------------------------------------------------------------------------
# oracle-crosscheck
# --------------------------------------------------------------------------

def oracle_operation(_inputs, ctx: Context):
    result = crosscheck.run_benchmark("three-level")
    kets = crosscheck.evolve_benchmark_kets(crosscheck.three_level_benchmark())
    return result, np.concatenate([k.order_norms() for k in kets])


def oracle_check(_inputs, out, ctx: Context) -> Optional[str]:
    result, norms = out
    ref = ctx.reference["oracle"]
    for key in ("pipeline", "brute_force"):
        bad = _mismatch(result[key], ref[key], f"oracle {key}")
        if bad:
            return bad
    # criterion 5 fails at the seed commit; its deviation is a known value
    bad = _mismatch([result["max_rel_dev"]], [ref["max_rel_dev"]],
                    "oracle max_rel_dev")
    return bad or _mismatch(norms, ref["order_norms"], "oracle order norms")


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "golden-point",
        "single-threaded baseline of the hot quadrature kernel: one "
        "criterion-9 point, 76% of it in BiphotonAmplitude.time_value",
        lambda rng, ctx: GOLDEN["step"], golden_operation, golden_check,
        lambda _: 1),
    Workload(
        "scan-tau-T",
        "many cheap criterion-10 points on nproc workers: per-point fixed cost "
        "(time_support, 68%) and dispatch decide; parallel efficiency shows",
        scan_draw, scan_operation, scan_check,
        lambda picks: picks[0].size * picks[1].size),
    Workload(
        "readme-cli",
        "the README config through cli.main: YAML, JSA set-up per run, grid "
        "and sidecar writing; the sinc support fills the lattice, no clipping",
        readme_draw, readme_operation, readme_check,
        lambda inputs: inputs[0].size),
    Workload(
        "oracle-crosscheck",
        "simulate oracle plus arm-restricted kets: the only oracle run, and "
        "a closed system where only support clipping bounds the quadrature",
        lambda rng, ctx: None, oracle_operation, oracle_check,
        lambda _: 5),
)}


def tiny(name: str) -> Workload:
    """A one-point variant of a workload, for the benchmark's smoke tests."""
    w = WORKLOADS[name]
    if name == "golden-point":
        return Workload(name, w.why, lambda rng, ctx: 0.2, w.operation,
                        w.check, w.points)
    if name == "scan-tau-T":
        return Workload(name, w.why,
                        lambda rng, ctx: scan_draw(rng, ctx, SCAN_AXIS.size),
                        w.operation, w.check, w.points)
    if name == "readme-cli":
        return Workload(name, w.why, lambda rng, ctx: readme_draw(rng, ctx, 1),
                        w.operation, w.check, w.points)
    return w
