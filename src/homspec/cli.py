"""Configuration ingestion, scan orchestration and result emission.

Runs are driven by a single YAML file with nested sections and explicit
units in the key names, each listed once, with its check and default, in
``FIELDS``. Subcommands:

    simulate run --config cfg.yaml [--workers N] [--mode ...] [--out path]
    simulate validate --config cfg.yaml
    simulate pathways dump
    simulate oracle [--benchmark three-level-converged|three-level]

``--workers`` is accepted for compatibility and ignored: scans run on the
calling thread.

The environment variable SIM_LOG (error|warn|info|debug) controls logging.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import re
import sys
import time
from dataclasses import dataclass, make_dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np
import yaml

from . import crosscheck
from .biphoton import (BiphotonAmplitude, CrystalSpec, FrequencyGrid, GridAxis,
                       PumpSpec, build_jsa, check_grid_size, default_grid)
from .model import ExcitonSystem, Level, LiouvilleOperatorSet
from .pathways import HomSpec, format_term_table
from .signal import (MODES, SCAN_BUDGET, check_lattice, check_splitter,
                     default_quadrature, resolve_quadrature, scan)

log = logging.getLogger("homspec")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

_REQUIRED = object()  # Field.default of a key that must be given

# libyaml's safe loader and dumper where PyYAML was built with it (the same
# documents, parsed and emitted in C), else the pure-Python ones
if yaml.__with_libyaml__:
    _SafeLoader, _Dumper = yaml.CSafeLoader, yaml.CSafeDumper
else:
    _SafeLoader, _Dumper = yaml.SafeLoader, yaml.SafeDumper


class _Loader(_SafeLoader):
    """The safe loader, also reading YAML 1.2's exponent floats that YAML
    1.1 leaves strings (``1e-6``, ``1E3``, ``1.0e5``: no dot, or an unsigned
    exponent); integers stay integers."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


class ConfigError(ValueError):
    """Validation failure carrying the offending field's path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _record(item: Any, path: str, required: Tuple[str, ...],
            optional: Tuple[str, ...] = ()) -> List[Any]:
    """Values of the required keys of a mapping that has no unknown keys."""
    if not isinstance(item, dict):
        raise ConfigError(path, f"expected a mapping, got {item!r}")
    for key in item:
        if key not in required + optional:
            raise ConfigError(f"{path}.{key}", "unknown key")
    missing = [key for key in required if key not in item]
    if missing:
        raise ConfigError(f"{path}.{missing[0]}", "required field is missing")
    return [item[key] for key in required]


def _real(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return float(value)


def _number(value: Any, path: str) -> float:
    if not math.isfinite(number := _real(value, path)):
        raise ConfigError(path, f"must be finite, got {number}")
    return number


def _rate(value: Any, path: str) -> float:
    rate = _number(value, path)
    if rate < 0:
        raise ConfigError(path, "rate must be >= 0")
    return rate


def _integer(low: int) -> Callable[[Any, str], int]:
    def parse(value: Any, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ConfigError(path, f"expected an integer >= {low}, got {value!r}")
        return value
    return parse


def _choice(*options: Any) -> Callable[[Any, str], Any]:
    def parse(value: Any, path: str) -> Any:
        if value not in options:
            raise ConfigError(path, f"must be one of {options}, got {value!r}")
        return value
    return parse


def _text(value: Any, path: str) -> str:
    return str(value)


def _complex_entry(value: Any, path: str) -> complex:
    if isinstance(value, list) and len(value) == 2:  # [re, im]
        return complex(_number(value[0], path), _number(value[1], path))
    return complex(_number(value, path))


def _matrix(value: Any, path: str) -> np.ndarray:
    if not isinstance(value, list) or any(
            not isinstance(row, list) or len(row) != len(value[0]) for row in value):
        raise ConfigError(path, "expected a matrix: a list of equal-length rows")
    return np.array([[_complex_entry(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)]
                     for i, row in enumerate(value)], dtype=complex)


def _records(value: Any, path: str, keys: Tuple[str, ...]) -> List[Tuple[str, list]]:
    """Path and key values of each item of a list of mappings with ``keys``."""
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list, got {value!r}")
    return [(f"{path}[{k}]", _record(item, f"{path}[{k}]", keys))
            for k, item in enumerate(value)]


def _levels(value: Any, path: str) -> List[Level]:
    return [Level(str(label), str(manifold), _number(energy, f"{at}.energy_rad_per_fs"))
            for at, (label, manifold, energy) in
            _records(value, path, ("label", "manifold", "energy_rad_per_fs"))]


def _pairs(value: Any, path: str) -> Dict[Tuple[str, str], float]:
    return {(str(i), str(j)): _rate(rate, f"{at}.rate_per_fs")
            for at, (i, j, rate) in _records(value, path, ("i", "j", "rate_per_fs"))}


def _axis(value: Any, path: str) -> np.ndarray:
    # check_lattice refuses a delay that is not finite, naming it
    if isinstance(value, list):
        axis = np.array([_real(v, path) for v in value])
    elif isinstance(value, dict):
        start, stop = _record(value, path, ("start", "stop"), ("num", "step"))
        start, stop = _number(start, f"{path}.start"), _number(stop, f"{path}.stop")
        if "num" in value:
            count = _integer(1)(value["num"], f"{path}.num")
        elif "step" in value:
            step = _number(value["step"], f"{path}.step")
            if step <= 0:
                raise ConfigError(f"{path}.step", "step must be positive")
            count = np.floor((stop - start) / step + 1e-9) + 1  # inf past overflow
        else:
            raise ConfigError(path, "axis range needs 'num' or 'step'")
        # counted before anything is allocated
        if count > SCAN_BUDGET:
            raise ConfigError(path, f"the axis holds {count:.4g} points, above "
                                    f"the scan lattice budget of {SCAN_BUDGET}")
        axis = (np.linspace(start, stop, count) if "num" in value
                else start + step * np.arange(int(max(count, 0))))
    else:
        axis = np.array([_real(value, path)])
    if axis.size == 0:
        raise ConfigError(path, "axis must be non-empty")
    if not np.all(np.diff(axis) > 0):
        raise ConfigError(path, "axis must be strictly increasing")
    return axis


def _matrix_echo(matrix: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]


@dataclass(frozen=True)
class Field:
    """One config value: ``parse(value, path)`` checks it or raises
    ``ConfigError(path, ...)``; a missing or null key takes ``default``, also
    parsed (``None`` stays unset); ``target`` is a ``RunConfig`` attribute or a
    ``spec.argument`` of ``SPECS``; ``echo`` gives its YAML (``None``: not echoed)."""

    path: str
    target: str
    parse: Callable[[Any, str], Any]
    default: Any = _REQUIRED
    echo: Optional[Callable[[Any], Any]] = lambda value: value


FIELDS: Tuple[Field, ...] = (
    Field("system.levels", "system.levels", _levels, echo=lambda levels: [
        {"label": lv.label, "manifold": lv.manifold,
         "energy_rad_per_fs": float(lv.energy)} for lv in levels]),
    Field("system.dipoles_ge", "system.dipoles_ge", _matrix, echo=_matrix_echo),
    Field("system.dipoles_ef", "system.dipoles_ef", _matrix, None, _matrix_echo),
    Field("system.dephasing.default_per_fs", "system.dephasing_default", _rate, 0.0),
    Field("system.dephasing.pairs", "system.dephasing_pairs", _pairs, [],
          lambda pairs: [{"i": a, "j": b, "rate_per_fs": float(r)}
                         for (a, b), r in sorted(pairs.items())]),
    Field("system.initial_level", "system.initial_label", _text, None),
    Field("pump.omega_p_rad_per_fs", "pump.omega_p", _number),
    Field("pump.sigma_p_rad_per_fs", "pump.sigma_p", _number),
    Field("crystal.omega_a_rad_per_fs", "crystal.omega_a", _number),
    Field("crystal.omega_b_rad_per_fs", "crystal.omega_b", _number),
    Field("crystal.T_a_fs", "crystal.T_a", _number),
    Field("crystal.T_b_fs", "crystal.T_b", _number),
    Field("preparation.theta_rad", "theta", _number, 0.0),
    Field("preparation.delay_arm", "delay_arm", _choice("a", "b"), "a"),
    Field("hom.t_coeff", "hom.t_coeff", _number, 1.0 / np.sqrt(2.0)),
    Field("hom.r_coeff", "hom.r_coeff", _number, 1.0 / np.sqrt(2.0)),
    Field("hom.bs_removed", "bs_removed", _choice(True, False), False, echo=None),
    Field("scan.tau_fs", "tau_axis", _axis, echo=np.ndarray.tolist),
    Field("scan.T_fs", "T_axis", _axis, echo=np.ndarray.tolist),
    Field("scan.s_fs", "s_axis", _axis, echo=np.ndarray.tolist),
    Field("grid.n", "grid_n", _integer(4), 256),
    Field("grid.half_span_rad_per_fs", "grid_half_span", _number, None),
    Field("quadrature.step_fs", "quad_step", _number, None),
    Field("quadrature.cutoff_fs", "quad_cutoff", _number, None),
    Field("quadrature.rule", "quad_rule", _choice("trapezoid", "simpson"), "trapezoid"),
    Field("quadrature.t_ref_fs", "t_ref", _number, None),
    Field("quadrature.t_ref_offset_fs", "t_ref_offset", _number, None),
    Field("mode", "mode", _choice(*MODES), "full"),
    Field("output", "output", _text, "signal.dat"),
    # accepted for compatibility; scans run on the calling thread
    Field("workers", "workers", _integer(1), 1),
)

# constructors that check across fields (level order, dipole shapes,
# t^2 + r^2 = 1); their ValueError becomes a ConfigError naming the section
SPECS: Dict[str, Callable[..., Any]] = {
    "system": ExcitonSystem, "pump": PumpSpec, "crystal": CrystalSpec, "hom": HomSpec}


# one attribute per SPECS section and per undotted FIELDS target;
# load_config folds hom.bs_removed into mode
RunConfig = make_dataclass(
    "RunConfig", list(SPECS) + [f.target for f in FIELDS
                                if "." not in f.target and f.target != "bs_removed"],
    namespace={"__module__": __name__, "__doc__":
               "Fully resolved run settings (defaults already applied); see FIELDS."})


def _check_keys(mapping: Dict[Any, Any], prefix: str = "") -> None:
    known = {f.path for f in FIELDS}
    for key, value in mapping.items():
        path = f"{prefix}{key}"
        if path in known:
            continue
        if not any(p.startswith(path + ".") for p in known):
            raise ConfigError(path, "unknown key")
        if not isinstance(value, dict):
            raise ConfigError(path, f"expected a mapping, got {value!r}")
        _check_keys(value, path + ".")


def _put(mapping: Dict[str, Any], path: str, value: Any) -> None:
    *sections, key = path.split(".")
    for section in sections:
        mapping = mapping.setdefault(section, {})
    mapping[key] = value


def _parse(data: Dict[str, Any], f: Field) -> Any:
    value = data
    for key in f.path.split("."):
        value = (value or {}).get(key)
    if value is None:
        if f.default is _REQUIRED:
            raise ConfigError(f.path, "required field is missing")
        value = f.default
    return None if value is None else f.parse(value, f.path)


def load_config(path: str, overrides: Optional[Mapping[str, Any]] = None) -> RunConfig:
    """Parse and eagerly validate a run configuration file; ``overrides``
    (YAML path -> value, ``None`` skipped) are written in before validation."""
    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError("config", f"not parseable YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a mapping")
    _check_keys(data)
    for key, value in (overrides or {}).items():
        if value is not None:
            _put(data, key, value)

    # the narrow-amplitude limit builds no joint spectral amplitude
    unused = ("pump", "crystal") if data.get("mode") == "short_Te" else ()
    values = {f.target: _parse(data, f) for f in FIELDS
              if f.target.partition(".")[0] not in unused}
    if values.pop("bs_removed") and values["mode"] == "full":  # echoed as the mode
        values["mode"] = "bs_removed"
    if values["t_ref"] is not None and values["t_ref_offset"] is not None:
        raise ConfigError("quadrature.t_ref_offset_fs", "shifts only the default "
                          "reference time; it cannot go with quadrature.t_ref_fs")
    for name, spec in SPECS.items():
        args = {key.partition(".")[2]: values.pop(key)
                for key in [k for k in values if k.startswith(name + ".")]}
        values[name] = None if name in unused else _named(name, spec, **args)
    _named("hom", check_splitter, values["mode"], values["hom"])
    _named("scan", check_lattice, *(values[k] for k in ("tau_axis", "T_axis", "s_axis", "mode")))
    _named("quadrature", resolve_quadrature, values["system"],
           values["quad_step"], values["quad_cutoff"], values["quad_rule"])
    if values["mode"] != "short_Te":  # the modes that build a joint amplitude
        _named("grid.n", check_grid_size, values["grid_n"], values["theta"])
    return RunConfig(**values)


def _named(path: str, check: Callable[..., Any], *args, **kwargs) -> Any:
    """check(*args, **kwargs), its ValueError or KeyError a ConfigError at `path`."""
    try:
        return check(*args, **kwargs)
    except (ValueError, KeyError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _echo(config: RunConfig) -> Dict[str, Any]:
    """The resolved configuration (defaults included) as a YAML document."""
    doc: Dict[str, Any] = {}
    for f in FIELDS:
        owner, _, name = f.target.rpartition(".")
        holder = getattr(config, owner) if owner else config
        if f.echo is not None and holder is not None:
            value = getattr(holder, name)
            _put(doc, f.path, None if value is None else f.echo(value))
    return doc


def serialize_config(config: RunConfig) -> str:
    """YAML echo of the resolved configuration (defaults included)."""
    return yaml.dump(_echo(config), Dumper=_Dumper, sort_keys=False)


def _build_amplitude(config: RunConfig) -> Optional[BiphotonAmplitude]:
    if config.mode == "short_Te":
        return None
    if config.grid_half_span is None:
        grid = default_grid(config.pump, config.crystal, n=config.grid_n,
                            theta=config.theta)
    else:
        half = config.grid_half_span
        center = 0.5 * (config.crystal.omega_a + config.crystal.omega_b)
        axis = GridAxis(center, 2 * half / config.grid_n, config.grid_n)
        grid = FrequencyGrid(axis, axis)
    s0 = float(config.s_axis[0])
    return build_jsa(config.pump, config.crystal, config.theta, grid, s=s0,
                     delay_arm=config.delay_arm)


def run(config: RunConfig) -> int:
    """Execute the configured scan; writes the grid file plus a sidecar."""
    started = time.time()
    ops = LiouvilleOperatorSet(config.system)
    amp = _build_amplitude(config)
    q = default_quadrature(ops, amp, step=config.quad_step,
                           cutoff=config.quad_cutoff, rule=config.quad_rule,
                           t_ref=config.t_ref, t_ref_offset=config.t_ref_offset or 0.0)
    log.info("scan: mode=%s grid=%dx%dx%d", config.mode,
             config.tau_axis.size, config.T_axis.size, config.s_axis.size)
    grid = scan(config.tau_axis, config.T_axis, config.s_axis, config.mode, amp,
                ops, q, hom=config.hom)
    grid.save(config.output)
    sidecar = {
        "config": _echo(config),
        "system_hash": grid.meta["system_hash"],
        "amplitude_hash": grid.meta.get("amplitude_hash"),
        "wall_time_s": time.time() - started,
    }
    with open(config.output + ".meta", "w") as fh:
        yaml.dump(sidecar, fh, Dumper=_Dumper, sort_keys=False)
    log.info("wrote %s (+.meta) in %.1f s", config.output, sidecar["wall_time_s"])
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(
        level=_LOG_LEVELS.get(os.environ.get("SIM_LOG", "warn").lower(),
                              logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="two-photon interferometric coincidence simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured scan")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--mode", choices=MODES)
    p_run.add_argument("--out", default=None)

    p_val = sub.add_parser("validate", help="check a config file and exit")
    p_val.add_argument("--config", required=True)

    p_path = sub.add_parser("pathways", help="pathway bookkeeping utilities")
    path_sub = p_path.add_subparsers(dest="pathways_command", required=True)
    path_sub.add_parser("dump", help="print the 20-row contribution ledger")

    p_oracle = sub.add_parser("oracle", help="run a brute-force cross-check")
    p_oracle.add_argument("--benchmark", default=crosscheck.DEFAULT_BENCHMARK,
                          choices=sorted(crosscheck.BENCHMARKS))

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            flags = {"workers": args.workers, "output": args.out, "mode": args.mode}
            if args.mode is not None:
                flags["hom.bs_removed"] = False  # the flag names the mode outright
            return run(load_config(args.config, flags))
        if args.command == "validate":
            load_config(args.config)
            print("config ok")
            return 0
        if args.command == "pathways":
            print(format_term_table())
            return 0
        if args.command == "oracle":
            result = crosscheck.run_benchmark(args.benchmark)
            print(f"benchmark: {args.benchmark} (s = {result['s']} fs)")
            print("  tau      T      pipeline(norm)  brute(norm)")
            for (tau, T), p, b in zip(result["points"],
                                      result["pipeline_normalized"],
                                      result["brute_force_normalized"]):
                print(f"  {tau:6.2f} {T:6.2f}  {p:14.6f} {b:12.6f}")
            print(f"max relative deviation: {result['max_rel_dev']:.3e}")
            return 0 if result["max_rel_dev"] < 1e-2 else 1
    except ConfigError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
