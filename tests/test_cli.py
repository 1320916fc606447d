import threading

import numpy as np
import pytest
import yaml

import homspec.crosscheck
import homspec.signal
from homspec.cli import ConfigError, load_config, main, run, serialize_config
from homspec.signal import SignalGrid

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


def write_config(tmp_path, overrides=None, drop=None):
    import copy

    data = copy.deepcopy(BASE_CONFIG)
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

    def test_short_te_closed_system_names_dephasing(self, tmp_path, capsys):
        # no dephasing section: every pair rate sits at the dephasing floor
        out = tmp_path / "o.dat"
        cfg = write_config(tmp_path, {"output": str(out)},
                           drop=["system.dephasing"])
        load_config(cfg)  # the full quadrature takes a closed system
        with pytest.raises(ConfigError) as err:
            load_config(cfg, {"mode": "short_Te"})
        assert err.value.path == "system.dephasing"
        assert main(["run", "--config", str(cfg), "--mode", "short_Te"]) == 2
        assert "system.dephasing" in capsys.readouterr().err
        assert not out.exists()

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
