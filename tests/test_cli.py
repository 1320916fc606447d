import json
import logging
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import homspec.cli
import homspec.crosscheck
import homspec.signal
from homspec.cli import ConfigError, load_config, main, run, serialize_config
from homspec.signal import SignalGrid

# the pure-Python twin of the CLI loader: the same resolvers on PyYAML's
# pure-Python safe loader
PURE_LOADER = type("PureLoader", (yaml.SafeLoader,), {
    "yaml_implicit_resolvers": homspec.cli._Loader.yaml_implicit_resolvers})

BASE_CONFIG = {
    "system": {
        "levels": [
            {"label": "g0", "manifold": "g", "energy_rad_per_fs": 0.0},
            {"label": "e0", "manifold": "e", "energy_rad_per_fs": 0.8},
        ],
        "dipoles_ge": [[1.0]],
        "dephasing": {"default_per_fs": 0.25},
    },
    "pump": {"omega_p_rad_per_fs": 1.6, "sigma_p_rad_per_fs": 0.5},
    "crystal": {"omega_a_rad_per_fs": 0.85, "omega_b_rad_per_fs": 0.75,
                "T_a_fs": 10.0, "T_b_fs": -14.0},
    "scan": {"tau_fs": [0.0, 2.0], "T_fs": [1.0], "s_fs": [3.0]},
    "grid": {"n": 192, "half_span_rad_per_fs": 6.0},
    "quadrature": {"step_fs": 0.5},
    "mode": "full",
}


# the README's example config, with two tau points
README_CONFIG = {
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
    "scan": {"tau_fs": [0.0, 10.0], "T_fs": [10.0], "s_fs": [15.0]},
    "grid": {"n": 256},
    "quadrature": {"step_fs": 0.2, "rule": "trapezoid"},
    "mode": "full",
}


def write_config(tmp_path, overrides=None, drop=None, base=BASE_CONFIG):
    import copy

    data = copy.deepcopy(base)
    for path, value in (overrides or {}).items():
        node = data
        keys = path.split(".")
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    for path in drop or []:
        node = data
        keys = path.split(".")
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(data))
    return cfg


class TestLoadConfig:
    def test_minimal_config_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path))
        assert config.theta == 0.0
        assert config.delay_arm == "a"
        assert config.hom.t_coeff == pytest.approx(1 / np.sqrt(2))
        assert config.mode == "full"
        assert config.output == "signal.dat"
        assert np.array_equal(config.tau_axis, [0.0, 2.0])

    def test_negative_dephasing_names_field(self, tmp_path):
        cfg = write_config(tmp_path,
                           {"system.dephasing.default_per_fs": -0.1})
        with pytest.raises(ConfigError, match="dephasing"):
            load_config(cfg)

    def test_missing_pump_bandwidth_names_field(self, tmp_path):
        cfg = write_config(tmp_path, drop=["pump.sigma_p_rad_per_fs"])
        with pytest.raises(ConfigError, match=r"pump\.sigma_p_rad_per_fs"):
            load_config(cfg)

    def test_bad_axis_named(self, tmp_path):
        cfg = write_config(tmp_path, {"scan.tau_fs": [2.0, 1.0]})
        with pytest.raises(ConfigError, match=r"scan\.tau_fs"):
            load_config(cfg)

    def test_axis_range_forms(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scan.tau_fs": {"start": 0.0, "stop": 2.0, "num": 5},
            "scan.T_fs": {"start": 0.0, "stop": 1.0, "step": 0.5},
        })
        config = load_config(cfg)
        assert np.allclose(config.tau_axis, np.linspace(0, 2, 5))
        assert np.allclose(config.T_axis, [0.0, 0.5, 1.0])

    def test_round_trip(self, tmp_path):
        config = load_config(write_config(tmp_path))
        echoed = tmp_path / "echo.yaml"
        echoed.write_text(serialize_config(config))
        again = load_config(echoed)
        assert np.array_equal(config.tau_axis, again.tau_axis)
        assert config.system.dephasing_default == again.system.dephasing_default
        assert config.quad_step == again.quad_step
        assert [lv.label for lv in config.system.levels] == \
            [lv.label for lv in again.system.levels]

    @pytest.mark.parametrize("key", ["quadrature.stepfs", "pump.sigma_p", "moda"])
    def test_unknown_key_named(self, tmp_path, key):
        cfg = write_config(tmp_path, {key: 0.5})
        with pytest.raises(ConfigError, match=rf"^{key}: unknown key"):
            load_config(cfg)

    @pytest.mark.parametrize("key, value, path", [
        ("hom", {"t_coeff": 0.9}, "hom"),
        ("system.initial_level", "e0", "system"),
        ("system.initial_level", "x0", "system"),
    ])
    def test_spec_checks_named_by_section(self, tmp_path, key, value, path):
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, {key: value}))
        assert err.value.path == path

    @pytest.mark.parametrize("mode", ["short_Te", "bs_removed"])
    def test_mode_without_splitter_coefficients_refuses_them(self, tmp_path,
                                                             capsys, mode):
        cfg = write_config(tmp_path, {"mode": mode,
                                      "hom": {"t_coeff": 0.8, "r_coeff": 0.6},
                                      "output": str(tmp_path / "o.dat")})
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert err.value.path == "hom"
        assert main(["run", "--config", str(cfg)]) == 2
        assert "hom" in capsys.readouterr().err
        assert not (tmp_path / "o.dat").exists()

    def test_short_te_closed_system_runs_the_closed_form(self, tmp_path):
        # no dephasing section: every pair rate sits at the dephasing floor,
        # and the F5 windows (tau = s, 2T + tau = s) integrate exactly
        from homspec.model import LiouvilleOperatorSet
        from homspec.signal import coincidence_short_Te, default_quadrature

        out = tmp_path / "o.dat"
        cfg = write_config(tmp_path, {"output": str(out), "mode": "short_Te",
                                      "scan.tau_fs": [1.0, 3.0],
                                      "scan.T_fs": [1.0, 5.0],
                                      "scan.s_fs": [3.0]},
                           drop=["system.dephasing"])
        config = load_config(cfg)
        assert main(["run", "--config", str(cfg)]) == 0
        grid = SignalGrid.load(out)
        ops = LiouvilleOperatorSet(config.system)
        q = default_quadrature(ops, step=0.5)
        for i, tau in enumerate((1.0, 3.0)):
            for j, T in enumerate((1.0, 5.0)):
                assert grid.values[i, j, 0] == coincidence_short_Te(
                    tau, T, 3.0, ops, q)
        assert grid.values[0, 0, 0] != 0 and grid.values[1, 1, 0] != 0

    def test_offset_with_explicit_reference_time_named(self, tmp_path):
        cfg = write_config(tmp_path, {"quadrature.t_ref_fs": 5.0,
                                      "quadrature.t_ref_offset_fs": 2.0})
        with pytest.raises(ConfigError) as err:
            load_config(cfg)
        assert err.value.path == "quadrature.t_ref_offset_fs"

    def test_complex_dipole_entries(self, tmp_path):
        cfg = write_config(tmp_path, {"system.dipoles_ge": [[[0.6, 0.8]]]})
        config = load_config(cfg)
        assert config.system.dipoles_ge[0, 0] == pytest.approx(0.6 + 0.8j)


class TestRun:
    def test_run_writes_grid_and_sidecar(self, tmp_path):
        out = tmp_path / "out.dat"
        cfg = write_config(tmp_path, {"output": str(out)})
        assert run(load_config(cfg)) == 0
        grid = SignalGrid.load(out)
        assert grid.values.shape == (2, 1, 1)
        assert np.all(np.isfinite(grid.values))
        sidecar = yaml.safe_load((tmp_path / "out.dat.meta").read_text())
        assert "config" in sidecar and "wall_time_s" in sidecar
        assert sidecar["system_hash"] == grid.meta["system_hash"]
        assert sidecar["amplitude_hash"] == grid.meta["amplitude_hash"]
        # short_Te builds no amplitude: null in the sidecar, absent in the header
        assert run(load_config(cfg, {"mode": "short_Te"})) == 0
        sidecar = yaml.safe_load((tmp_path / "out.dat.meta").read_text())
        assert sidecar["amplitude_hash"] is None
        assert "amplitude_hash" not in SignalGrid.load(out).meta

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "out.dat"
        cfg = write_config(tmp_path, {"output": str(out)})
        run(load_config(cfg))
        first = out.read_bytes()
        run(load_config(cfg))
        assert out.read_bytes() == first

    def test_pure_python_yaml_writes_the_same_bytes(self, tmp_path,
                                                    monkeypatch):
        # libyaml, where present, loads and dumps; the pure-Python classes
        # must give the same grid and sidecar (apart from the wall time)
        out = tmp_path / "out.dat"
        cfg = tmp_path / "readme.yaml"
        cfg.write_text(yaml.safe_dump(dict(README_CONFIG, output=str(out))))

        def written():
            assert main(["run", "--config", str(cfg)]) == 0
            meta = (tmp_path / "out.dat.meta").read_text().splitlines()
            return out.read_bytes(), [line for line in meta
                                      if not line.startswith("wall_time_s:")]

        first = written()
        monkeypatch.setattr(homspec.cli, "_Loader", yaml.SafeLoader)
        monkeypatch.setattr(homspec.cli, "_Dumper", yaml.SafeDumper)
        assert written() == first

    def test_default_grid_sets_the_amplitude(self, tmp_path):
        from homspec.biphoton import build_jsa, default_grid

        out = tmp_path / "out.dat"
        cfg = tmp_path / "readme.yaml"
        cfg.write_text(yaml.safe_dump(dict(README_CONFIG, output=str(out))))
        assert main(["run", "--config", str(cfg)]) == 0
        config = load_config(cfg)
        amp = build_jsa(config.pump, config.crystal, 0.0,
                        default_grid(config.pump, config.crystal, n=256), s=15.0)
        sidecar = yaml.safe_load((tmp_path / "out.dat.meta").read_text())
        assert sidecar["amplitude_hash"] == amp.content_hash()
        assert SignalGrid.load(out).values.shape == (2, 1, 1)

    def test_single_point_matches_api(self, tmp_path):
        from homspec.biphoton import FrequencyGrid, GridAxis, build_jsa
        from homspec.model import LiouvilleOperatorSet
        from homspec.pathways import HomSpec
        from homspec.signal import coincidence, default_quadrature

        out = tmp_path / "out.dat"
        cfg = write_config(tmp_path, {"output": str(out),
                                      "scan.tau_fs": [1.0]})
        config = load_config(cfg)
        run(config)
        grid = SignalGrid.load(out)
        ops = LiouvilleOperatorSet(config.system)
        axis = GridAxis(0.8, 12.0 / 192, 192)
        amp = build_jsa(config.pump, config.crystal, 0.0,
                        FrequencyGrid(axis, axis), s=3.0)
        q = default_quadrature(ops, amp, step=0.5)
        expected = coincidence(1.0, 1.0, 3.0, amp, ops, q, hom=HomSpec(T=1.0))
        assert grid.values[0, 0, 0] == pytest.approx(expected, rel=1e-12)


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_reports_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, drop=["pump.sigma_p_rad_per_fs"])
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "pump.sigma_p_rad_per_fs" in capsys.readouterr().err

    @pytest.mark.parametrize("deviation, code", [(5e-3, 0), (2.35, 1)])
    def test_oracle_defaults_to_the_converged_benchmark(self, monkeypatch,
                                                        capsys, deviation, code):
        names = []

        def stub(name):
            names.append(name)
            return {"s": 1.0, "points": [(0.0, 1.0)], "pipeline_normalized": [1.0],
                    "brute_force_normalized": [1.0], "max_rel_dev": deviation}

        monkeypatch.setattr(homspec.crosscheck, "run_benchmark", stub)
        assert main(["oracle"]) == code
        assert names == ["three-level-converged"]
        assert "benchmark: three-level-converged" in capsys.readouterr().out

    def test_pathways_dump(self, capsys):
        assert main(["pathways", "dump"]) == 0
        out = capsys.readouterr().out
        assert len([ln for ln in out.splitlines() if ln.strip()]) >= 21

    def test_short_te_domain_guard(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "mode": "short_Te",
            "scan.s_fs": [0.0],
            "output": str(tmp_path / "o.dat"),
        })
        # refused when the config is loaded, so validate refuses it too
        for command in ("validate", "run"):
            assert main([command, "--config", str(cfg)]) == 2
            assert "scan: short_Te mode requires s > 0" in capsys.readouterr().err
        assert not (tmp_path / "o.dat").exists()

    def test_negative_delay_refused_at_load(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scan.tau_fs": [-5.0, 0.0],
                                      "output": str(tmp_path / "o.dat")})
        for command in ("validate", "run"):
            assert main([command, "--config", str(cfg)]) == 2
            assert "scan: the pathway ledger covers tau >= 0 and T >= 0" in (
                capsys.readouterr().err)
        assert not (tmp_path / "o.dat").exists()

    @pytest.mark.parametrize("key, value, name", [
        ("scan.tau_fs", [float("nan")], "tau=nan"),
        ("scan.T_fs", [float("inf")], "T=inf")])
    def test_delay_that_is_not_finite_refused_at_load(self, tmp_path, capsys,
                                                      key, value, name):
        cfg = write_config(tmp_path, {key: value,
                                      "output": str(tmp_path / "o.dat")})
        for command in ("validate", "run"):
            assert main([command, "--config", str(cfg)]) == 2
            assert f"scan: delays must be finite; got {name}" in (
                capsys.readouterr().err)
        assert not (tmp_path / "o.dat").exists()

    @pytest.mark.parametrize("key, value", [
        ("quadrature.cutoff_fs", float("nan")),
        ("quadrature.t_ref_fs", float("inf")),
        ("pump.sigma_p_rad_per_fs", float("nan"))])
    def test_setting_that_is_not_finite_refused_by_name(self, tmp_path, capsys,
                                                        key, value):
        cfg = write_config(tmp_path, {key: value,
                                      "output": str(tmp_path / "o.dat")})
        for command in ("validate", "run"):
            assert main([command, "--config", str(cfg)]) == 2
            assert f"{key}: must be finite, got {value}" in (
                capsys.readouterr().err)
        assert not (tmp_path / "o.dat").exists()

    def test_mode_full_on_short_te_config_names_pump(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mode": "short_Te",
                                      "output": str(tmp_path / "o.dat")},
                           drop=["pump", "crystal"])
        assert main(["run", "--config", str(cfg), "--mode", "full"]) == 2
        assert "pump" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_must_be_positive(self, tmp_path, capsys, workers):
        cfg = write_config(tmp_path, {"output": str(tmp_path / "o.dat")})
        assert main(["run", "--config", str(cfg), "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err

    def test_sidecar_records_default_workers(self, tmp_path):
        out = tmp_path / "o.dat"
        cfg = write_config(tmp_path, {"output": str(out), "scan.tau_fs": [1.0]})
        assert main(["run", "--config", str(cfg)]) == 0
        sidecar = yaml.safe_load((tmp_path / "o.dat.meta").read_text())
        assert sidecar["config"]["workers"] == 1
        assert "workers" not in sidecar

    def test_run_evaluates_on_the_calling_thread(self, tmp_path, monkeypatch):
        # the config's two tau points at one s go in one batch
        batches = []
        inner = homspec.signal.coincidence

        def recording(tau, T, *args, **kwargs):
            batches.append((threading.get_ident(), np.broadcast(tau, T).size))
            return inner(tau, T, *args, **kwargs)

        monkeypatch.setattr(homspec.signal, "coincidence", recording)
        cfg = write_config(tmp_path, {"output": str(tmp_path / "o.dat")})
        assert main(["run", "--config", str(cfg), "--workers", "2"]) == 0
        assert batches == [(threading.get_ident(), 2)]

    @pytest.mark.parametrize("file_mode", ["full", "bs_removed", "short_Te"])
    @pytest.mark.parametrize("bs_removed", [False, True])
    @pytest.mark.parametrize("flag", [None, "full", "bs_removed", "short_Te"])
    def test_mode_agrees_in_grid_and_sidecar(self, tmp_path, file_mode,
                                             bs_removed, flag):
        out = tmp_path / "o.dat"
        cfg = write_config(tmp_path, {"output": str(out), "mode": file_mode,
                                      "hom": {"bs_removed": bs_removed},
                                      "scan.tau_fs": [1.0]})
        argv = ["run", "--config", str(cfg)] + (["--mode", flag] if flag else [])
        assert main(argv) == 0
        expected = flag or ("bs_removed" if bs_removed and file_mode == "full"
                            else file_mode)
        echo = (tmp_path / "o.dat.meta").read_text()
        assert SignalGrid.load(out).mode == expected
        assert yaml.safe_load(echo)["config"]["mode"] == expected
        config = yaml.safe_load(echo)["config"]
        (tmp_path / "echo.yaml").write_text(yaml.safe_dump(config))
        again = serialize_config(load_config(tmp_path / "echo.yaml"))
        assert yaml.safe_load(again) == config

    def test_run_mode_override(self, tmp_path):
        out = tmp_path / "o.dat"
        cfg = write_config(tmp_path, {"output": str(out)})
        assert main(["run", "--config", str(cfg), "--mode", "bs_removed",
                     "--workers", "2"]) == 0
        assert SignalGrid.load(out).mode == "bs_removed"


# README-config mutations that a run rule refuses, and the start of the
# error that names it
REFUSED = {
    "step zero": ({"quadrature.step_fs": 0}, [],
                  "quadrature: cutoff and step must be positive"),
    "step coarse": ({"quadrature.step_fs": 5.0}, [],
                    "quadrature: step 5.0 fs too coarse"),
    "cutoff short": ({"quadrature.cutoff_fs": 1.0}, [],
                     "quadrature: cutoff 1.0 fs too small"),
    "short_Te s zero": ({"mode": "short_Te", "scan.s_fs": [0.0]}, [],
                        "scan: short_Te mode requires s > 0"),
    "short_Te unbalanced": ({"mode": "short_Te",
                             "hom": {"t_coeff": 0.8, "r_coeff": 0.6}}, [],
                            "hom: mode short_Te ignores t_coeff and r_coeff"),
}

# run both commands on a config in a process limited to 2 GB of address
# space, so that a planned multi-GB allocation fails fast
LIMITED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from homspec.cli import main
for command in ("validate", "run"):
    print("exit", command, main([command, "--config", sys.argv[1]]),
          file=sys.stderr, flush=True)
"""


def run_script(script, *args):
    """Run Python source in a new process that imports this package, with
    these arguments."""
    src = os.path.dirname(os.path.dirname(homspec.cli.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)


def run_limited(cfg):
    done = run_script(LIMITED, cfg)
    assert "Traceback" not in done.stderr, done.stderr
    return done.stderr


class TestRunRules:
    @pytest.mark.parametrize("overrides, drop, start", REFUSED.values(),
                             ids=list(REFUSED))
    def test_validate_refuses_what_run_refuses(self, tmp_path, capsys,
                                               overrides, drop, start):
        out = tmp_path / "o.dat"
        cfg = write_config(tmp_path, dict(overrides, output=str(out)), drop,
                           base=README_CONFIG)
        first = []
        for command in ("validate", "run"):
            assert main([command, "--config", str(cfg)]) == 2
            first.append(capsys.readouterr().err.splitlines()[0])
        assert first[0] == first[1]
        assert start in first[0]
        assert not out.exists()

    def test_short_te_closed_system_passes_both_commands(self, tmp_path):
        # the README config without dephasing: every pair rate at the floor;
        # tau = s and 2T + tau = s points take both F5 windows
        out = tmp_path / "o.dat"
        cfg = write_config(tmp_path, {"mode": "short_Te", "output": str(out),
                                      "scan.tau_fs": [5.0, 10.0, 15.0],
                                      "scan.T_fs": [5.0, 10.0],
                                      "scan.s_fs": [15.0]},
                           ["system.dephasing"], base=README_CONFIG)
        for command in ("validate", "run"):
            start = time.perf_counter()
            assert main([command, "--config", str(cfg)]) == 0
            assert time.perf_counter() - start < 1.0
        values = SignalGrid.load(out).values
        assert values.shape == (3, 2, 1) and np.all(np.isfinite(values))

    def test_grid_above_the_lattice_budget_refused_at_load(self, tmp_path):
        cfg = write_config(tmp_path, {"grid.n": 100000,
                                      "output": str(tmp_path / "o.dat")},
                           base=README_CONFIG)
        err = run_limited(cfg)
        assert "exit validate 2" in err and "exit run 2" in err
        assert "grid.n: a 100000-sample grid plans a 298 GiB lattice" in err
        assert not (tmp_path / "o.dat").exists()

    @pytest.mark.parametrize("axis, shown", [
        ({"start": 0.0, "stop": 1.0e12, "step": 1.0e-3}, "1e+15"),
        ({"start": 0.0, "stop": 1.0, "num": 10 ** 12}, "1e+12"),
        ({"start": -1.0e308, "stop": 1.0e308, "step": 1.0}, "inf"),
    ], ids=["step", "num", "overflow"])
    def test_axis_above_the_scan_budget_refused_before_allocation(
            self, tmp_path, axis, shown):
        cfg = write_config(tmp_path, {"scan.tau_fs": axis,
                                      "output": str(tmp_path / "o.dat")},
                           base=README_CONFIG)
        err = run_limited(cfg)
        assert "exit validate 2" in err and "exit run 2" in err
        assert (f"error: scan.tau_fs: the axis holds {shown} points, above "
                f"the scan lattice budget of 1048576") in err
        assert not (tmp_path / "o.dat").exists()

    def test_lattice_above_the_scan_budget_named(self, tmp_path):
        # each axis is inside the budget, their product is not
        cfg = write_config(tmp_path, {
            "scan.tau_fs": {"start": 0.0, "stop": 1.0, "num": 1024},
            "scan.T_fs": {"start": 0.0, "stop": 1.0, "num": 1025}},
            base=README_CONFIG)
        with pytest.raises(ConfigError, match=r"^scan: the lattice holds "
                                              r"1049600 \(tau, T, s\) points"):
            load_config(cfg)

    def test_step_above_the_node_budget_named_by_run(self, tmp_path):
        # the nodes depend on the amplitude's support: validate cannot count
        # them, run refuses them before allocating
        cfg = write_config(tmp_path, {"quadrature.step_fs": 1e-6,
                                      "output": str(tmp_path / "o.dat")},
                           base=README_CONFIG)
        err = run_limited(cfg)
        assert "exit run 1" in err
        assert "error: step 1e-06 fs takes 2687263538 quadrature nodes" in err
        assert not (tmp_path / "o.dat").exists()

    def test_run_logs_the_resolved_quadrature_once(self, tmp_path, caplog):
        out = tmp_path / "o.dat"
        cfg = write_config(tmp_path, {"output": str(out),
                                      "scan.tau_fs": [1.0]})
        caplog.set_level(logging.DEBUG, logger="homspec.quadrature")
        assert main(["run", "--config", str(cfg)]) == 0
        records = [r.getMessage() for r in caplog.records
                   if r.name == "homspec.quadrature"]
        t_ref = SignalGrid.load(out).meta["quadrature"].split("t_ref=")[1]
        assert records == [
            f"quadrature: cutoff 48 fs (12/eta_min, eta_min 0.25 /fs), "
            f"step 0.5 fs (given), rule trapezoid, t_ref {float(t_ref):.6g} fs"]


def readme_example():
    """The YAML block under "Example config:" in the README."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split("Example config:", 1)[1].split("```yaml\n", 1)[1] \
        .split("```", 1)[0]


def test_readme_example_config_loads(tmp_path):
    cfg = tmp_path / "readme.yaml"
    cfg.write_text(readme_example())
    config = load_config(cfg)
    assert config.mode == "full" and config.tau_axis.size == 16


class TestExponentNumbers:
    TEXT = "a: 1e-6\nb: 1E3\nc: -2e+1\nd: 1.5e3\nn: 256\nx: 1e\n"
    WANT = {"a": 1e-6, "b": 1000.0, "c": -20.0, "d": 1500.0, "n": 256,
            "x": "1e"}

    @pytest.mark.parametrize("pure", [False, True], ids=["default", "pure"])
    def test_loaded_as_floats_and_integers_stay_integers(self, pure):
        loaded = yaml.load(self.TEXT, Loader=PURE_LOADER if pure
                           else homspec.cli._Loader)
        assert loaded == self.WANT
        assert [type(loaded[k]) for k in "abcdn"] == [float] * 4 + [int]

    def test_shared_loaders_untouched(self):
        for loader in (yaml.SafeLoader, getattr(yaml, "CSafeLoader",
                                                yaml.SafeLoader)):
            assert yaml.load("a: 1e-6", Loader=loader) == {"a": "1e-6"}

    def test_config_value(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump(README_CONFIG).replace(
            "step_fs: 0.2", "step_fs: 2e-1"))
        config = load_config(cfg)
        assert config.quad_step == 0.2 and config.grid_n == 256


# every FIELDS value, and every key of the scan axes' range forms, set to
# each of these on the README's example config
EDGE_VALUES = [0, -1, float("nan"), float("inf"), float("-inf"), 1e308,
               10 ** 30, "x", [], {}]

# validate each config file in one process limited to 2 GB of address
# space; print each one's exit status and output as JSON
EDGE_SCRIPT = """
import contextlib, io, json, logging, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
logging.basicConfig(level=logging.CRITICAL)
from homspec.cli import main
results = []
for cfg in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(["validate", "--config", cfg])
        except Exception:
            code = None
            traceback.print_exc()
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_validate_names_every_edge_value(tmp_path):
    import copy

    base = yaml.safe_load(readme_example())
    cases = {}
    for f in homspec.cli.FIELDS:
        for value in EDGE_VALUES:
            cases[f"{f.path}={value!r}"] = {f.path: value}
    for axis in ("scan.tau_fs", "scan.T_fs", "scan.s_fs"):
        for form in ({"start": 0.0, "stop": 30.0, "num": 16},
                     {"start": 0.0, "stop": 30.0, "step": 2.0}):
            for key in form:
                for value in EDGE_VALUES:
                    cases[f"{axis}.{key}={value!r} in {form}"] = {
                        axis: dict(form, **{key: value})}
    files = []
    for n, changes in enumerate(cases.values()):
        data = copy.deepcopy(base)
        for path, value in changes.items():
            homspec.cli._put(data, path, value)
        files.append(tmp_path / f"case{n}.yaml")
        files[-1].write_text(yaml.safe_dump(data))
    done = run_script(EDGE_SCRIPT, *files)
    assert done.returncode == 0, done.stderr
    sections = {f.path.split(".")[0] for f in homspec.cli.FIELDS} | {"config"}
    bad = []
    for name, (code, out) in zip(cases, json.loads(done.stdout)):
        first = (out.splitlines() or [""])[0]
        named = (code == 2 and first.startswith("error: ") and
                 re.split(r"[.\[:]", first[len("error: "):])[0] in sections)
        if "Traceback" in out or not (code == 0 or named):
            bad.append(f"{name}: exit {code}: {out.strip()[-300:]}")
    assert not bad, "\n".join(bad)
