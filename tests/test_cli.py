"""Config ingestion, recipe orchestration, artifact emission, CLI."""

import ast
import importlib.util
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from raqr import cli, config, defaults, mimo
from raqr.config import (
    ParseError,
    ValidationError,
    default_config_path,
    fingerprint,
    load_config,
)
from raqr import recipes
from raqr.optimize import optimal_power
from raqr.recipes import (
    RECIPE_SWEEPS,
    RecipeError,
    check_recipe,
    _csv_lines,
    list_recipes,
    place_users,
    run_recipe,
)

from conftest import component_sn_variance, run_fresh

ROOT = Path(__file__).resolve().parents[1]


# a linear two-point sensor sweep; format with its start and stop
SENSOR_SWEEP = ("sweep:\n  variable: n_sensors\n  start: {}\n  stop: {}\n"
                "  points: 2\n  scale: linear\n")


# PyYAML's pure-Python loader, and libyaml's where PyYAML was built with it
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture()
def default_cfg():
    return load_config(default_config_path())


# a short sweep of each variable, for configs without an RF LO drive
ZERO_LO_SWEEPS = {
    "lo_power_w": "  start: 1.0e-07\n  stop: 1.0e-04\n  points: 2\n  scale: log\n",
    "probe_power_w": "  start: 1.0e-04\n  stop: 1.0e-02\n  points: 2\n  scale: log\n",
    "coupling_power_w": "  start: 1.0e-03\n  stop: 1.0e-01\n  points: 2\n"
                        "  scale: log\n",
    "n_sensors": "  start: 16\n  stop: 32\n  points: 2\n  scale: log\n",
    "ratio_db": "  start: 10.0\n  stop: 30.0\n  points: 2\n  scale: linear\n",
    "detuning_khz": "  start: -100.0\n  stop: 100.0\n  points: 3\n  scale: linear\n",
}

# (recipe, sweep variable) for each variable a recipe's plan reads, and for
# siso-optima, whose plan reads no sweep, each variable a sweep may name
SWEEP_CASES = [(recipe, variable) for recipe, variables in RECIPE_SWEEPS.items()
               for variable in variables or ZERO_LO_SWEEPS]

# keys whose zero leaves no readout: the probe and RF dipoles, the probe
# linewidth and the probe power
ZERO_READOUT_KEYS = [("atomic", "rf_dipole_ea0"), ("atomic", "probe_dipole_ea0"),
                     ("atomic", "probe_linewidth_mhz"),
                     ("operating_point", "probe_power_w")]

# every float key of the config schema, and a value for one: an extreme of
# tools/config_fuzz.py or a log-uniform magnitude in between
FLOAT_KEYS = [(section, key) for section, schema in config._SECTIONS.items()
              for key, (kind, *_) in schema.items() if kind is float]
FLOAT_VALUES = st.one_of(st.sampled_from([0.0, 1e-300, 1e300]),
                         st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))


class TestParsing:
    def test_malformed_yaml_reports_position(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, "atomic:\n  x: [1,\n")
        for loader in LOADERS:
            monkeypatch.setattr(config, "_LOADER", loader)
            with pytest.raises(ParseError) as err:
                load_config(path)
            assert (err.value.line, err.value.column) == (3, 1), loader

    def test_load_config_parses_only_the_user_file(self, tmp_path, monkeypatch):
        # the packaged defaults are parsed once, at import, and a merge leaves
        # them as they were
        sources, parse = [], config._parse_yaml
        before = yaml.safe_dump(config._DEFAULTS)

        def spy(text, source):
            sources.append(source)
            return parse(text, source)

        monkeypatch.setattr(config, "_parse_yaml", spy)
        path = write_config(tmp_path, "seed: 3\natomic:\n  cell_length_mm: 2.0\n")
        cfg = load_config(path)
        assert (cfg.seed, cfg.system.l_cell) == (3, 2e-3)
        assert sources == [str(path)]
        assert yaml.safe_dump(config._DEFAULTS) == before

    def test_loader_is_libyaml_where_present(self):
        assert config._LOADER is LOADERS[-1]

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
    @pytest.mark.parametrize("path", sorted(config._CONFIG_DIR.glob("*.yaml")),
                             ids=lambda p: p.stem)
    def test_both_loaders_read_the_packaged_configs_alike(self, path):
        def typed(node):
            if isinstance(node, dict):
                return {k: typed(v) for k, v in node.items()}
            return type(node), node

        text = path.read_text(encoding="utf-8")
        docs = [yaml.load(text, Loader=loader) for loader in LOADERS]
        assert typed(docs[0]) == typed(docs[1])

    def test_top_level_must_be_mapping(self, tmp_path):
        path = write_config(tmp_path, "- 1\n- 2\n")
        with pytest.raises(ParseError):
            load_config(path)

    def test_unknown_section_key_named(self, tmp_path):
        path = write_config(tmp_path, "atomic:\n  banana: 1.0\n")
        with pytest.raises(ValidationError) as err:
            load_config(path)
        assert err.value.key == "atomic.banana"

    def test_unknown_top_key_named(self, tmp_path):
        path = write_config(tmp_path, "banana: 1\n")
        with pytest.raises(ValidationError, match="banana"):
            load_config(path)

    def test_wrong_type_rejected(self, tmp_path):
        path = write_config(tmp_path, "operating_point:\n  probe_power_w: soup\n")
        with pytest.raises(ValidationError, match="probe_power_w"):
            load_config(path)

    def test_bool_is_not_a_number(self, tmp_path):
        path = write_config(tmp_path, "operating_point:\n  lo_power_w: true\n")
        with pytest.raises(ValidationError, match="lo_power_w"):
            load_config(path)

    def test_signless_exponent_is_a_string(self, tmp_path):
        # YAML 1.1 resolves 2.0e17 as a string; the type check catches it
        path = write_config(tmp_path, "atomic:\n  density_per_m3: 2.0e17\n")
        with pytest.raises(ValidationError, match="density_per_m3"):
            load_config(path)


class TestValidation:
    def test_shipped_default_loads(self, default_cfg):
        assert default_cfg.f_carrier == 6.9458e9
        assert default_cfg.chain.bw == 1.5e5
        assert default_cfg.n_users == 10

    def test_missing_scheme(self, tmp_path):
        path = write_config(tmp_path, "operating_point:\n  scheme: null\n")
        with pytest.raises(ValidationError, match="scheme"):
            load_config(path)

    def test_unknown_scheme(self, tmp_path):
        path = write_config(tmp_path, "operating_point:\n  scheme: triple\n")
        with pytest.raises(ValidationError, match="scheme"):
            load_config(path)

    @staticmethod
    def assert_sweep_rejected(tmp_path, capsys, text, key):
        """A config with the sweep in ``text`` loads: only a recipe that reads
        the sweep judges it. rate-vs-parameter reads it, so its recipe check
        and ``raqr validate`` name ``key``."""
        path = write_config(tmp_path, "recipe: rate-vs-parameter\n" + text)
        cfg = load_config(path)
        with pytest.raises(ValidationError) as err:
            check_recipe(cfg)
        assert err.value.key == key
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        return cfg

    def test_log_sweep_negative_lower_bound(self, tmp_path, capsys):
        self.assert_sweep_rejected(
            tmp_path, capsys, "sweep:\n  start: -1.0e-06\n  scale: log\n",
            "sweep.start")

    def test_linear_sweep_may_go_negative(self, tmp_path):
        path = write_config(
            tmp_path,
            "sweep:\n  variable: detuning_khz\n  start: -5.0\n  stop: 5.0\n"
            "  scale: linear\n",
        )
        cfg = load_config(path)
        assert cfg.sweep.start == -5.0

    def test_negative_points(self, tmp_path, capsys):
        self.assert_sweep_rejected(tmp_path, capsys, "sweep:\n  points: -3\n",
                                   "sweep.points")

    @pytest.mark.parametrize("points", [config.MAX_SWEEP_POINTS + 1, 10**15])
    def test_too_many_points_fail_before_the_sweep_is_built(
            self, tmp_path, capsys, points):
        # 10**15 points would ask numpy for petabytes
        at_cap = write_config(
            tmp_path, f"sweep:\n  points: {config.MAX_SWEEP_POINTS}\n", "a.yaml")
        assert load_config(at_cap).sweep.values().size == config.MAX_SWEEP_POINTS
        cfg = self.assert_sweep_rejected(
            tmp_path, capsys, f"sweep:\n  points: {points}\n", "sweep.points")
        with pytest.raises(ValidationError, match="sweep.points"):
            cfg.sweep.values()

    @pytest.mark.parametrize("key, limit, huge", [
        ("n_sensors", config.MAX_SENSORS, 10**6),
        ("n_users", config.MAX_USERS, 10**6),
        ("realizations", config.MAX_REALIZATIONS, 10**15),
    ])
    def test_arrays_above_their_limit_fail_validation(
            self, tmp_path, capsys, key, limit, huge):
        # validated only: a run at the huge sizes would ask for tens of GB of
        # Monte-Carlo workspace, or build a chunk list of ~4e12 entries
        at_cap = write_config(tmp_path, f"array:\n  {key}: {limit}\n", "a.yaml")
        assert getattr(load_config(at_cap), key) == limit
        for value in (limit + 1, huge):
            path = write_config(
                tmp_path, f"recipe: rate-vs-parameter\narray:\n  {key}: {value}\n")
            with pytest.raises(ValidationError) as err:
                load_config(path)
            assert err.value.key == f"array.{key}"
            assert cli.main(["validate", "--config", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"error: array.{key}: ")

    @pytest.mark.parametrize("recipe", ["rate-vs-M", "power-scaling"])
    def test_sensor_sweep_ends_above_the_limit_fail_validation(
            self, tmp_path, capsys, recipe):
        cap = config.MAX_SENSORS
        ok = write_config(tmp_path, f"recipe: {recipe}\n"
                          + SENSOR_SWEEP.format(16, cap + 0.4), "a.yaml")
        check_recipe(load_config(ok))
        for start, stop, key in [(16, cap + 0.6, "sweep.stop"),
                                 (cap + 1, 16, "sweep.start"),
                                 (16, 1e6, "sweep.stop")]:
            path = write_config(tmp_path, f"recipe: {recipe}\n"
                                + SENSOR_SWEEP.format(start, stop))
            with pytest.raises(ValidationError) as err:
                check_recipe(load_config(path))
            assert err.value.key == key
            assert cli.main(["validate", "--config", str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {key}: ")

    def test_unknown_sweep_variable(self, tmp_path, capsys):
        self.assert_sweep_rejected(
            tmp_path, capsys, "sweep:\n  variable: phase_of_moon\n",
            "sweep.variable")

    def test_unknown_scale(self, tmp_path, capsys):
        self.assert_sweep_rejected(tmp_path, capsys, "sweep:\n  scale: cubic\n",
                                   "sweep.scale")

    def test_unknown_recipe(self, tmp_path):
        path = write_config(tmp_path, "recipe: make-coffee\n")
        cfg = load_config(path)  # loading does not judge the recipe
        with pytest.raises(ValidationError, match="recipe"):
            check_recipe(cfg)

    def test_negative_seed(self, tmp_path):
        path = write_config(tmp_path, "seed: -1\n")
        with pytest.raises(ValidationError, match="seed"):
            load_config(path)

    def test_seed_must_fit_a_philox_key_word(self, tmp_path):
        largest = write_config(tmp_path, "seed: 9223372036854775807\n", "a.yaml")
        assert load_config(largest).seed == 2**63 - 1
        for seed in (2**63, 2**64):
            path = write_config(tmp_path, f"seed: {seed}\n", "b.yaml")
            with pytest.raises(ValidationError, match="seed") as err:
                load_config(path)
            assert err.value.key == "seed"

    @pytest.mark.parametrize("section, key", [
        (name, key) for name, schema in config._SECTIONS.items()
        for key in schema if key != "local_beam_power_w"
    ], ids=lambda v: v)
    def test_null_key_is_a_missing_key(self, tmp_path, section, key):
        path = write_config(tmp_path, f"{section}:\n  {key}: null\n")
        with pytest.raises(ValidationError, match="required key missing") as err:
            load_config(path)
        assert err.value.key == f"{section}.{key}"

    def test_direct_scheme_may_leave_out_the_local_beam(self, tmp_path):
        path = write_config(
            tmp_path, "operating_point:\n  scheme: diod\n  local_beam_power_w: null\n"
        )
        assert load_config(path).op.pl == 0.0

    def test_region_radius_inside_center(self, tmp_path):
        path = write_config(
            tmp_path, "array:\n  region_radius_m: 2000.0\n"
        )
        with pytest.raises(ValidationError, match="region_radius_m"):
            load_config(path)

    def test_quantum_efficiency_bounds(self, tmp_path):
        path = write_config(tmp_path, "detection:\n  quantum_efficiency: 1.4\n")
        with pytest.raises(ValidationError, match="quantum_efficiency"):
            load_config(path)


class TestMergeAndFingerprint:
    def test_partial_override_keeps_defaults(self, tmp_path, default_cfg):
        path = write_config(tmp_path, "operating_point:\n  probe_power_w: 0.02\n")
        cfg = load_config(path)
        assert cfg.op.p0 == 0.02
        assert cfg.op.pc == default_cfg.op.pc
        assert cfg.system == default_cfg.system

    def test_round_trip_identity(self, tmp_path, default_cfg):
        text = yaml.safe_dump(default_cfg.raw, sort_keys=True, default_flow_style=False)
        path = write_config(tmp_path, text, "rt.yaml")
        again = load_config(path)
        assert again == default_cfg
        assert fingerprint(again) == fingerprint(default_cfg)

    def test_fingerprint_ignores_output_dir(self, tmp_path, default_cfg):
        path = write_config(tmp_path, "output_dir: elsewhere\n")
        assert fingerprint(load_config(path)) == fingerprint(default_cfg)

    def test_fingerprint_tracks_seed_and_physics(self, tmp_path, default_cfg):
        seeded = load_config(write_config(tmp_path, "seed: 5\n", "a.yaml"))
        tweaked = load_config(
            write_config(tmp_path, "atomic:\n  density_per_m3: 3.0e+17\n",
                         "b.yaml")
        )
        fps = {fingerprint(default_cfg), fingerprint(seeded),
               fingerprint(tweaked)}
        assert len(fps) == 3

    def test_fingerprint_ignores_key_order(self, tmp_path):
        a = write_config(tmp_path, "seed: 3\narray:\n  n_users: 4\n", "a.yaml")
        b = write_config(tmp_path, "array:\n  n_users: 4\nseed: 3\n", "b.yaml")
        assert fingerprint(load_config(a)) == fingerprint(load_config(b))

    def test_cli_overrides_enter_fingerprint(self, default_cfg):
        path = default_config_path()
        assert fingerprint(load_config(path, seed=9)) != fingerprint(default_cfg)


class TestDerivedQuantities:
    def test_atom_count_scales_with_density(self, tmp_path, default_cfg):
        path = write_config(tmp_path, "atomic:\n  density_per_m3: 4.0e+17\n")
        cfg = load_config(path)
        assert cfg.system.n_atoms == pytest.approx(
            2.0 * default_cfg.system.n_atoms, rel=1e-12
        )

    def test_responsivity_scales_with_efficiency(self, tmp_path, default_cfg):
        path = write_config(tmp_path, "detection:\n  quantum_efficiency: 0.4\n")
        cfg = load_config(path)
        assert cfg.chain.alpha == pytest.approx(
            0.5 * default_cfg.chain.alpha, rel=1e-12
        )

    def test_matches_shipped_factories(self, default_cfg):
        system = defaults.cesium_system()
        chain = defaults.default_chain()
        for name in ("mu12", "mu23", "mu34", "gamma2", "n0", "l_cell",
                     "lambda_p", "t2", "n_atoms"):
            assert getattr(default_cfg.system, name) == pytest.approx(
                getattr(system, name), rel=1e-12, abs=0.0
            )
        for name in ("g", "alpha", "z0", "bw", "temperature", "i_sat"):
            assert getattr(default_cfg.chain, name) == pytest.approx(
                getattr(chain, name), rel=1e-12, abs=0.0
            )

    def test_builds_equal_objects_through_the_factories(self, default_cfg):
        assert default_cfg.system == defaults.cesium_system()
        assert default_cfg.chain == defaults.default_chain()
        assert default_cfg.op == defaults.bcod_point()

    def test_scaled_units_land_on_the_nearest_double(self):
        raw = config._DEFAULTS
        si = config._validate_raw(raw)
        scaled = [(section, key, exp, fields[0] if fields else key)
                  for section, schema in config._SECTIONS.items()
                  for key, (_, exp, *fields) in schema.items() if exp is not None]
        assert len(scaled) == 10
        for section, key, exp, name in scaled:
            written = raw[section][key]
            assert si[section][name] == float(f"{written}e{exp}"), key

    @pytest.mark.parametrize(
        "module", ["raqr.defaults", "raqr.config", "raqr.recipes", "raqr.cli"]
    )
    def test_imports_first_in_a_fresh_interpreter(self, module):
        # defaults builds the shipped config at import; that edge may not
        # meet a half-initialised module
        proc = run_fresh(f"import {module}")
        assert proc.returncode == 0, proc.stderr

    def test_loading_a_config_leaves_the_recipe_layer_unloaded(self):
        # the config layer builds a config without judging it against its
        # recipe, so it never needs the recipe layer
        proc = run_fresh(
            "import sys\n"
            "from raqr.config import default_config_path, load_config\n"
            "load_config(default_config_path('rate-vs-M'))\n"
            "print('raqr.recipes' in sys.modules)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False"]

    @pytest.mark.parametrize(
        "module", ["raqr.atomic", "raqr.frontend", "raqr.optimize", "raqr.mimo",
                   "raqr.waveform"]
    )
    def test_physics_imports_no_config_layer(self, module):
        # the physics modules take their numbers as arguments; only the
        # config layer reads YAML
        proc = run_fresh(
            f"import sys, {module}\n"
            "print(sorted(m for m in ('raqr.config', 'raqr.defaults', 'yaml')"
            " if m in sys.modules))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"]

    def test_defaults_reexports_drive_for(self):
        from raqr import frontend

        assert defaults.drive_for is frontend.drive_for

    def test_import_leaves_scipy_unloaded(self):
        # scipy.signal alone costs about a second and 70 MiB; the package
        # designs and applies its demodulation filter with numpy only
        proc = run_fresh(
            "import math, sys\n"
            "import numpy as np\n"
            "import raqr.cli\n"
            "from raqr.waveform import baseband_estimate, demodulate_iq, settling_samples\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "settle = settling_samples(75e3, 2.4e6)\n"
            "est = baseband_estimate(np.ones(4800, complex), 75e3, 2.4e6)\n"
            "print(settle, est, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "t = np.arange(4800) / 2.4e6\n"
            "z = demodulate_iq(np.cos(2 * math.pi * 75e3 * t), 75e3, 2.4e6)\n"
            "print(len(z), any(m.startswith('scipy') for m in sys.modules))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "256 (1+0j) []", "4800 False"]

    def test_import_leaves_the_thread_pool_unloaded(self):
        # concurrent.futures and the logging it imports cost cold start a
        # few ms; only a Monte-Carlo run with more than one worker needs them
        proc = run_fresh(
            "import sys\n"
            "import raqr.recipes, raqr.cli\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False"]

    def test_no_package_module_imports_scipy(self):
        # scipy is a test-only dependency; a runtime import would bring
        # back its second of start-up and 70 MiB without any test failing
        found = []
        for path in sorted((ROOT / "src" / "raqr").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "scipy"]
        assert found == []

    def test_scipy_is_only_a_test_dependency(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

        def names(requirements):
            return [re.match(r"[\w.-]+", req).group().lower() for req in requirements]

        assert "scipy" not in names(project["dependencies"])
        assert "scipy" in names(project["optional-dependencies"]["test"])

    def test_sn_vs_ratio_reads_the_configured_beams(self, tmp_path):
        import dataclasses

        cfg = load_config(write_config(
            tmp_path,
            "recipe: sn-vs-ratio\n"
            "operating_point:\n  probe_fwhm_mm: 2.5\n  coupling_fwhm_mm: 3.0\n"
            "sweep:\n  variable: ratio_db\n  start: 20.0\n  stop: 20.0\n"
            "  points: 1\n  scale: linear\n",
        ))
        cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "out"))
        rows = run_recipe(cfg)["csv"].read_text().splitlines()[2:]
        closed = {row.split(",")[0]: float(row.split(",")[3]) for row in rows}
        for op in (defaults.diod_point(fwhm_p=2.5e-3, fwhm_c=3.0e-3),
                   defaults.bcod_point(fwhm_p=2.5e-3, fwhm_c=3.0e-3)):
            user = defaults.weak_user(20.0, op)
            expected = component_sn_variance(op, cfg.chain, cfg.system, user)
            assert closed[op.scheme.lower()] == pytest.approx(
                expected, rel=1e-11, abs=0.0)


class TestGeometry:
    def test_zero_radius_pins_users(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "array:\n  region_radius_m: 0.0\n"))
        beta = place_users(cfg)
        pinned = mimo.large_scale_fading(cfg.region_center_m, cfg.f_carrier)
        assert np.all(beta == pinned)

    def test_seeded_and_bounded(self, tmp_path, default_cfg):
        beta = place_users(default_cfg)
        assert np.array_equal(beta, place_users(default_cfg))
        other = load_config(write_config(tmp_path, "seed: 1\n"))
        assert not np.array_equal(beta, place_users(other))
        lo = mimo.large_scale_fading(
            default_cfg.region_center_m + default_cfg.region_radius_m,
            default_cfg.f_carrier,
        )
        hi = mimo.large_scale_fading(
            default_cfg.region_center_m - default_cfg.region_radius_m,
            default_cfg.f_carrier,
        )
        assert np.all((beta >= lo) & (beta <= hi))


SMALL_DETUNING = """
recipe: detuning-loss
sweep:
  variable: detuning_khz
  start: -1.0e+05
  stop: 1.0e+05
  points: 7
  scale: linear
"""


# (recipe, section, key, value) where the value zeroes a divisor of the run:
# N_atoms T2 mu34^2 in the noise budget, z0 alpha^2 in the noise weights and
# the coupling Rabi coefficient in the coupling power optimum
UNDERFLOWING_DIVISORS = [
    (recipe, "atomic", "dephasing_time_us", 1e-300)
    for recipe in ("power-scaling", "rate-vs-M", "rate-vs-parameter",
                   "siso-optima", "sn-vs-ratio")
] + [
    (recipe, "detection", "quantum_efficiency", 1e-300)
    for recipe in ("rate-vs-parameter", "siso-optima")
] + [("siso-optima", "atomic", "dressing_dipole_cm", value)
     for value in (0.0, 1e-300)]

# (section, key, value, the cause's opening) where the packaged
# waveform-overlay config's noiseless simulation fails, or its relative
# deviation is not finite: the 16 such configs of tools/config_fuzz.py
WAVEFORM_PLAN_FAILURES = [
    ("atomic", "probe_dipole_ea0", 1e300, "OverflowError: "),
    ("atomic", "dressing_dipole_cm", 1e300, "ValueError: omega_c "),
    ("atomic", "rf_dipole_ea0", 1e300, "OverflowError: "),
    ("atomic", "probe_linewidth_mhz", 1e300, "OverflowError: "),
    ("atomic", "density_per_m3", 1e300, "ValueError: the relative deviation "),
    ("atomic", "probe_wavelength_nm", 1e300, "Saturation: "),
    ("operating_point", "probe_power_w", 1e-300,
     "ValueError: the relative deviation "),
    ("operating_point", "probe_power_w", 1e300, "ValueError: omega_p "),
    ("operating_point", "coupling_power_w", 1e300, "ValueError: omega_c "),
    ("operating_point", "lo_power_w", 1e300, "ValueError: the relative deviation "),
    ("operating_point", "local_beam_power_w", 1e300, "Saturation: "),
    ("operating_point", "effective_area_cm2", 1e-300,
     "ValueError: the relative deviation "),
    ("detection", "gain", 1e300, "ValueError: the relative deviation "),
    ("detection", "quantum_efficiency", 1e-300,
     "ValueError: the relative deviation "),
    ("detection", "impedance_ohm", 1e300, "ValueError: the relative deviation "),
    ("detection", "saturation_current_ma", 1e-300, "Saturation: "),
]


class TestRunRecipe:
    def test_artifact_set(self, tmp_path):
        cfg = load_config(write_config(tmp_path, SMALL_DETUNING))
        import dataclasses

        cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "out"))
        paths = run_recipe(cfg)
        assert set(paths) == {"csv", "manifest", "summary"}
        for p in paths.values():
            assert p.exists()
        first = paths["csv"].read_text().splitlines()[0]
        assert first == f"# fingerprint={fingerprint(cfg)}"

    @pytest.mark.parametrize("sweep, n_solved", [
        (None, 49),  # the packaged sweep: 62 drives, 49 distinct |delta_rf|
        ("  start: -2.0e+05\n  stop: 2.0e+05\n  points: 1001\n", 501),
        ("  start: -5.0e+04\n  stop: 2.0e+05\n  points: 101\n", 81),
    ], ids=["packaged", "symmetric", "asymmetric"])
    def test_detuning_loss_solves_each_magnitude_once(
            self, tmp_path, monkeypatch, sweep, n_solved):
        """The response equals the one from the whole stack, the reference
        and every signed detuning solved as given, while only the distinct
        |delta_rf| go to the solver: the state at -delta_rf mirrors the one
        at +delta_rf."""
        path = default_config_path("detuning-loss")
        if sweep is not None:
            path = write_config(tmp_path, "recipe: detuning-loss\nsweep:\n"
                                "  variable: detuning_khz\n  scale: linear\n"
                                + sweep)
        cfg = load_config(path)
        delta_rf = np.append(0.0, 2.0 * math.pi * (cfg.sweep.values() * 1e3))
        drive = defaults.drive_for(cfg.op, cfg.system, delta_rf=delta_rf)
        mag = np.abs(recipes.steady_state_numeric(cfg.system, drive).rho21)

        solved = []
        solve = recipes.steady_state_numeric

        def spy(system, drive):
            solved.append(np.size(drive.delta_rf))
            return solve(system, drive)

        monkeypatch.setattr(recipes, "steady_state_numeric", spy)
        result = recipes.detuning_loss(cfg)(1)
        assert solved == [n_solved]
        assert np.array_equal([r[1] for r in result.rows], mag[1:] / mag[0])

    def test_reruns_are_byte_identical(self, tmp_path):
        import dataclasses

        cfg = load_config(write_config(tmp_path, SMALL_DETUNING))
        blobs = []
        for sub in ("a", "b"):
            run = dataclasses.replace(cfg, output_dir=str(tmp_path / sub))
            paths = run_recipe(run)
            blobs.append(b"".join(p.read_bytes() for _, p in sorted(paths.items())))
        assert blobs[0] == blobs[1]

    CSV_VALUES = (1.5, np.float64(2.0 / 3.0), 7, np.int64(-3), True, "diod",
                  math.inf, -math.inf, math.nan, -0.0, 1e-320)

    @staticmethod
    def _fmt(value):
        # reference: a float at 12 significant digits, anything else as str
        return format(value, ".12g") if isinstance(value, float) else str(value)

    def test_csv_lines_write_each_value_as_fmt(self):
        for value in self.CSV_VALUES:
            assert _csv_lines([(value,)]) == [self._fmt(value)], repr(value)
        # a column may change type from row to row
        rows = [self.CSV_VALUES, self.CSV_VALUES[::-1], self.CSV_VALUES]
        assert _csv_lines(rows) == [",".join(map(self._fmt, row)) for row in rows]

    def test_json_artifacts_are_strict(self, tmp_path, monkeypatch):
        """A NaN or infinity in the manifest or summary fails the run before
        any artifact is written, or a previous run's removed."""
        import dataclasses

        cfg = load_config(write_config(tmp_path, SMALL_DETUNING))
        out = tmp_path / "out"
        cfg = dataclasses.replace(cfg, output_dir=str(out))

        def fail_each():
            for bad in (math.nan, math.inf):
                result = recipes.RecipeResult(columns=["x"], rows=[(1.0,)],
                                              axes={}, summary={"value": bad})
                with pytest.raises(ValueError):
                    recipes.emit_plotdata(result, cfg)
                with monkeypatch.context() as m:
                    m.setitem(recipes.RECIPES, "detuning-loss",
                              lambda cfg: lambda threads: result)
                    with pytest.raises(RecipeError, match="JSON"):
                        run_recipe(cfg)

        fail_each()
        assert not out.exists()
        run_recipe(cfg)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(before) == 3
        fail_each()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("recipe", ["detuning-loss", "sn-vs-ratio",
                                        "waveform-overlay", "rate-vs-M",
                                        "power-scaling", "rate-vs-parameter"])
    def test_empty_sweep_manifest_without_csv(self, tmp_path, recipe):
        """A sweep of no points writes no CSV and removes the one a run
        with rows left in the same directory."""
        import dataclasses

        if recipe == "detuning-loss":
            raw = yaml.safe_load(SMALL_DETUNING)
        else:
            raw = yaml.safe_load(default_config_path(recipe).read_text())
        csv = tmp_path / "out" / f"{recipe}.csv"
        for points in (1, 0):
            raw.setdefault("sweep", {})["points"] = points
            path = write_config(tmp_path, yaml.safe_dump(raw), f"{points}.yaml")
            cfg = dataclasses.replace(load_config(path),
                                      output_dir=str(tmp_path / "out"))
            paths = run_recipe(cfg)
            assert csv.exists() == bool(points)
        assert "csv" not in paths
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["series"] == []
        assert manifest["csv"] is None

    # the one curve of each packaged recipe whose CSV has no series column
    ONE_CURVE = {"detuning-loss": "numeric", "power-scaling": "scaled-power bound",
                 "rate-vs-parameter": "atomic"}

    @pytest.mark.parametrize("recipe, sweep", [
        *((recipe, {}) for recipe in list_recipes()),
        # two equal ratios: both points' rows carry one label, one curve
        ("waveform-overlay", {"start": 20.0, "stop": 20.0, "points": 2}),
    ], ids=[*list_recipes(), "waveform-overlay-repeated-ratio"])
    def test_manifest_lists_the_curves_of_its_csv(self, tmp_path, recipe, sweep):
        """Each packaged config, and waveform-overlay at one ratio twice:
        the manifest lists one curve per label of the CSV's series column,
        in the order the rows first give it, each filtering on its label; a
        CSV without that column is one unfiltered curve."""
        import dataclasses

        raw = yaml.safe_load(default_config_path(recipe).read_text())
        raw.setdefault("array", {})["realizations"] = mimo.MIN_REALIZATIONS
        raw.setdefault("sweep", {}).update(sweep)
        cfg = load_config(write_config(tmp_path, yaml.safe_dump(raw)))
        paths = run_recipe(dataclasses.replace(cfg, output_dir=str(tmp_path / "out")))
        header, *rows = paths["csv"].read_text().splitlines()[1:]
        manifest = json.loads(paths["manifest"].read_text())
        if header.startswith("series,"):
            labels = list(dict.fromkeys(row.split(",")[0] for row in rows))
            expected = [{"label": label, "filter": {"series": label}}
                        for label in labels]
            assert recipe not in self.ONE_CURVE
        else:
            expected = [{"label": self.ONE_CURVE[recipe], "filter": {}}]
        assert manifest["series"] == expected
        assert manifest["figure"] == recipe and manifest["csv"] == f"{recipe}.csv"

    def test_two_detector_series(self, tmp_path):
        import dataclasses

        cfg = load_config(
            write_config(
                tmp_path,
                "recipe: sn-vs-ratio\n"
                "sweep:\n  variable: ratio_db\n  start: 15.0\n  stop: 25.0\n"
                "  points: 2\n  scale: linear\n",
            )
        )
        cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "out"))
        manifest = json.loads(run_recipe(cfg)["manifest"].read_text())
        assert [s["label"] for s in manifest["series"]] == ["diod", "bcod"]

    def test_crossover_annotation(self, tmp_path):
        import dataclasses

        cfg = load_config(
            write_config(
                tmp_path,
                "recipe: rate-vs-parameter\n"
                "array:\n  realizations: 200\n"
                "sweep:\n  points: 0\n",
            )
        )
        cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "out"))
        manifest = json.loads(run_recipe(cfg)["manifest"].read_text())
        kinds = [a["kind"] for a in manifest["annotations"]]
        assert kinds == ["crossover"]
        root = manifest["annotations"][0]["power_w"]
        assert 1e-7 < root < 1e-4

    def test_module_error_carries_recipe_context(self, tmp_path, monkeypatch):
        import dataclasses

        def refuse(*args, **kwargs):
            raise ValueError("waveform out of range")

        # the noisy simulation draws, so it is execution: the plan passes
        monkeypatch.setattr(recipes, "simulate_waveform", refuse)
        cfg = load_config(default_config_path("sn-vs-ratio"))
        check_recipe(cfg)
        cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "out"))
        with pytest.raises(RecipeError, match="sn-vs-ratio") as err:
            run_recipe(cfg)
        assert type(err.value.__cause__) is ValueError
        assert "waveform out of range" in str(err.value.__cause__)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("recipe, variable", SWEEP_CASES)
    def test_zero_lo_power_is_rejected_or_runs(self, tmp_path, capsys, recipe,
                                               variable):
        path = write_config(
            tmp_path,
            f"recipe: {recipe}\noperating_point:\n  lo_power_w: 0.0\n"
            f"array:\n  realizations: 100\nsweep:\n  variable: {variable}\n"
            + ZERO_LO_SWEEPS[variable],
        )
        rc = cli.main(["validate", "--config", str(path)])
        err = capsys.readouterr().err
        if rc == 2:
            assert err.startswith("error: operating_point.lo_power_w: "), err
            return
        assert rc == 0, err
        rc = cli.main(["run", recipe, "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 0, capsys.readouterr().err

    # a null key falls back to the absent default, no local beam
    @pytest.mark.parametrize("pl", ["0.0", "null"])
    @pytest.mark.parametrize("recipe, variable", SWEEP_CASES)
    def test_balanced_point_without_local_beam_is_rejected_or_runs(
            self, tmp_path, capsys, recipe, variable, pl):
        path = write_config(
            tmp_path,
            f"recipe: {recipe}\noperating_point:\n  scheme: bcod\n"
            f"  local_beam_power_w: {pl}\narray:\n  realizations: 100\n"
            f"sweep:\n  variable: {variable}\n" + ZERO_LO_SWEEPS[variable],
        )
        rc = cli.main(["validate", "--config", str(path)])
        err = capsys.readouterr().err
        if rc == 2:
            assert err.startswith(
                "error: operating_point.local_beam_power_w: "), err
            return
        assert rc == 0, err
        rc = cli.main(["run", recipe, "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 0, capsys.readouterr().err
        summary = (tmp_path / "out" / f"{recipe}_summary.json").read_text()
        assert "NaN" not in summary

    @pytest.mark.parametrize("recipe, variable", SWEEP_CASES)
    def test_zero_transmit_power_is_rejected_or_runs(self, tmp_path, capsys,
                                                     recipe, variable):
        path = write_config(
            tmp_path,
            f"recipe: {recipe}\narray:\n  transmit_power: 0.0\n"
            f"  realizations: 100\nsweep:\n  variable: {variable}\n"
            + ZERO_LO_SWEEPS[variable],
        )
        rc = cli.main(["validate", "--config", str(path)])
        err = capsys.readouterr().err
        if rc == 2:
            assert err.startswith("error: array.transmit_power: "), err
            return
        assert rc == 0, err
        rc = cli.main(["run", recipe, "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 0, capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ("operating_point", "lo_power_w"), ("array", "transmit_power")])
    def test_underflowing_asymptotic_rate_is_rejected(self, tmp_path, capsys,
                                                      section, key):
        # the asymptote power-scaling divides by underflows to 0 here
        path = write_config(
            tmp_path, f"recipe: power-scaling\n{section}:\n  {key}: 1.0e-300\n"
            + SENSOR_SWEEP.format(16, 32))
        for argv in (["validate"], ["run", "power-scaling",
                                    "--out", str(tmp_path / "out")]):
            assert cli.main(argv + ["--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: asymptotic_rate: "), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("recipe, section, key, value", UNDERFLOWING_DIVISORS)
    def test_underflowing_divisor_is_rejected(self, tmp_path, capsys, recipe,
                                              section, key, value):
        # the packaged config with a key whose value zeroes a divisor the
        # run divides by: validation names the key
        raw = yaml.safe_load(default_config_path(recipe).read_text())
        raw.setdefault(section, {})[key] = value
        path = write_config(tmp_path, yaml.safe_dump(raw))
        assert cli.main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}.{key}: "), err

    @pytest.mark.parametrize("section, key", ZERO_READOUT_KEYS,
                             ids=[key for _, key in ZERO_READOUT_KEYS])
    @pytest.mark.parametrize("recipe", sorted(RECIPE_SWEEPS))
    def test_zero_readout_key_is_rejected_or_runs(self, tmp_path, capsys,
                                                  recipe, section, key):
        # only sn-vs-ratio runs without the configured probe power: it
        # builds its own operating points
        raw = yaml.safe_load(default_config_path(recipe).read_text())
        raw.setdefault("array", {})["realizations"] = 100
        if recipe == "rate-vs-M":
            raw["sweep"].update(start=16, stop=32, points=2)
        raw.setdefault(section, {})[key] = 0.0
        path = write_config(tmp_path, yaml.safe_dump(raw))
        rc = cli.main(["validate", "--config", str(path)])
        err = capsys.readouterr().err
        if (recipe, key) != ("sn-vs-ratio", "probe_power_w"):
            assert rc == 2 and err.startswith(f"error: {section}.{key}: "), err
            return
        assert rc == 0, err
        rc = cli.main(["run", recipe, "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 0, capsys.readouterr().err
        summary = (tmp_path / "out" / f"{recipe}_summary.json").read_text()
        assert "NaN" not in summary

    def test_overflowing_detuning_is_a_named_error(self, tmp_path, capsys):
        # ±1e308 kHz is finite in the config, but the span between the ends
        # overflows, so validate and run both refuse the sweep
        path = write_config(
            tmp_path,
            "recipe: detuning-loss\nsweep:\n  variable: detuning_khz\n"
            "  start: -1.0e+308\n  stop: 1.0e+308\n  points: 3\n  scale: linear\n",
        )
        for argv in (["validate"], ["run", "detuning-loss",
                                    "--out", str(tmp_path / "out")]):
            assert cli.main(argv + ["--config", str(path)]) == 2
            assert capsys.readouterr().err == (
                "error: sweep.start: the sweep from -1e+308 to 1e+308 overflows\n")

    @pytest.mark.parametrize("recipe, variable, start, stop, key", [
        # finite in kHz and in Hz, not once converted to rad/s
        ("detuning-loss", "detuning_khz", "-1.0e+305", "1.0e+305", "sweep.start"),
        ("detuning-loss", "detuning_khz", "0.0", "1.0e+306", "sweep.stop"),
        ("sn-vs-ratio", "ratio_db", "-1.0e+308", "1.0e+308", "sweep.start"),
        # the user field, 10 ** (-ratio / 20) of the LO's, overflows or is zero
        ("sn-vs-ratio", "ratio_db", "-1.0e+300", "20.0", "sweep.start"),
        ("sn-vs-ratio", "ratio_db", "0.0", "7000.0", "sweep.stop"),
        ("waveform-overlay", "ratio_db", "-1.0e+300", "20.0", "sweep.start"),
        ("waveform-overlay", "ratio_db", "0.0", "7000.0", "sweep.stop"),
    ])
    def test_overflowing_sweep_names_its_end(self, tmp_path, capsys, recipe,
                                             variable, start, stop, key):
        path = write_config(
            tmp_path,
            f"recipe: {recipe}\nsweep:\n  variable: {variable}\n"
            f"  start: {start}\n  stop: {stop}\n  points: 3\n  scale: linear\n",
        )
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

    def test_opaque_grid_is_a_named_error(self, tmp_path):
        # a 1e-30 W probe leaves the cell opaque over the whole coupling grid;
        # siso-optima's plan compares each grid with its optimum, so the
        # recipe check refuses the config, naming the grid
        from raqr.optimize import OpaqueGrid

        path = write_config(tmp_path, "recipe: siso-optima\noperating_point:\n"
                                      "  probe_power_w: 1.0e-30\n")
        with pytest.raises(ValidationError) as err:
            check_recipe(load_config(path))
        assert err.value.key == "recipe"
        assert isinstance(err.value.__cause__, OpaqueGrid)
        assert "series coupling_power_w:dc_shot" in str(err.value)

    def test_siso_optima_does_not_judge_the_sweep_it_never_reads(
            self, tmp_path, capsys):
        # a log sweep with an end at 0 is no sweep at all, but siso-optima
        # sweeps its own power grids: it validates and writes the packaged rows
        ref = tmp_path / "ref"
        assert cli.main(["run", "siso-optima", "--out", str(ref)]) == 0
        for end in ("start", "stop"):
            raw = yaml.safe_load(default_config_path("siso-optima").read_text())
            raw.setdefault("sweep", {}).update({end: 0.0, "scale": "log"})
            path = write_config(tmp_path, yaml.safe_dump(raw), f"{end}.yaml")
            assert cli.main(["validate", "--config", str(path)]) == 0
            assert cli.main(["run", "siso-optima", "--config", str(path),
                             "--out", str(tmp_path / end)]) == 0
            # the first line is the config's fingerprint
            rows = [(d / "siso-optima.csv").read_text().splitlines()[1:]
                    for d in (tmp_path / end, ref)]
            assert rows[0] and rows[0] == rows[1]
        capsys.readouterr()

    def test_sweep_variable_mismatch(self, tmp_path):
        # the recipe check reads the sweep of the loaded config
        cfg = load_config(write_config(tmp_path, "recipe: waveform-overlay\n"))
        with pytest.raises(ValidationError, match="sweep.variable"):
            check_recipe(cfg)

    def test_run_recipe_checks_a_replaced_sweep(self, tmp_path):
        # a config changed after loading is checked again before it runs
        import dataclasses

        cfg = load_config(default_config_path("rate-vs-parameter"))
        cfg = dataclasses.replace(
            cfg, sweep=dataclasses.replace(cfg.sweep, variable="ratio_db"),
            output_dir=str(tmp_path / "out"))
        with pytest.raises(ValidationError, match="sweep.variable"):
            run_recipe(cfg)
        assert not (tmp_path / "out").exists()

    def test_every_recipe_declares_its_sweeps(self):
        # only siso-optima, which sweeps its own power grids, reads no sweep
        assert set(RECIPE_SWEEPS) == set(recipes.RECIPES)
        assert [recipe for recipe, variables in RECIPE_SWEEPS.items()
                if not variables] == ["siso-optima"]
        for variables in RECIPE_SWEEPS.values():
            assert set(variables) <= set(ZERO_LO_SWEEPS)

    def test_each_recipe_lists_only_the_sweeps_its_plan_reads(
            self, tmp_path, monkeypatch):
        """Each recipe's plan, on a sweep of each variable its
        ``RECIPE_SWEEPS`` entry lists, reads that sweep's values; a plan
        whose entry is empty builds with no sweep at all."""
        import dataclasses

        read, values = [], config.SweepSpec.values

        def spy(sweep):
            read.append(sweep.variable)
            return values(sweep)

        monkeypatch.setattr(config.SweepSpec, "values", spy)
        for recipe, variables in RECIPE_SWEEPS.items():
            plan = recipes.RECIPES[recipe]
            cfg = load_config(default_config_path(recipe))
            if not variables:
                plan(dataclasses.replace(cfg, sweep=None))
            for variable in variables:
                path = write_config(tmp_path, f"sweep:\n  variable: {variable}\n"
                                    + ZERO_LO_SWEEPS[variable], f"{variable}.yaml")
                read.clear()
                plan(dataclasses.replace(cfg, sweep=load_config(path).sweep))
                assert read and set(read) == {variable}, (recipe, variable)

    def test_no_recipe_selected(self, tmp_path):
        import dataclasses

        cfg = load_config(write_config(tmp_path, SMALL_DETUNING))
        cfg = dataclasses.replace(cfg, recipe=None)
        with pytest.raises(ValidationError, match="recipe"):
            run_recipe(cfg)


class TestCliEntry:
    def test_list_recipes(self, capsys):
        assert cli.main(["list-recipes"]) == 0
        out = capsys.readouterr().out.split()
        assert out == sorted(out)
        assert set(out) == set(list_recipes())
        assert len(out) == 7

    def test_validate_ok(self, capsys):
        rc = cli.main(["validate", "--config", str(default_config_path())])
        assert rc == 0
        assert "ok fingerprint=" in capsys.readouterr().out

    def test_validate_bad(self, tmp_path, capsys):
        path = write_config(tmp_path, "banana: 1\n")
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "banana" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("operating_point:\n  probe_power_w: -1.0\n", "operating_point.probe_power_w"),
        ("detection:\n  gain: 0.0\n", "detection.gain"),
        ("atomic:\n  dephasing_time_us: 0.0\n", "atomic.dephasing_time_us"),
        # zero probe width leaves no atoms in the probe column
        ("operating_point:\n  probe_fwhm_mm: 0.0\n", "operating_point.probe_fwhm_mm"),
        # an atom count past the float range: overflowing, then infinite
        ("operating_point:\n  probe_fwhm_mm: 1.0e+300\n", "operating_point.probe_fwhm_mm"),
        ("atomic:\n  density_per_m3: 1.0e+300\n  cell_length_mm: 1.0e+300\n",
         "operating_point.probe_fwhm_mm"),
        # the shipped local beam is still set for the direct scheme
        ("operating_point:\n  scheme: diod\n", "operating_point.local_beam_power_w"),
        # the dataclass checks compare with <, which NaN and inf slip past
        ("operating_point:\n  probe_power_w: .nan\n", "operating_point.probe_power_w"),
        ("operating_point:\n  probe_power_w: .inf\n", "operating_point.probe_power_w"),
        ("detection:\n  gain: -.inf\n", "detection.gain"),
        # the shipped sweep runs over lo_power_w, which sn-vs-ratio does not
        ("recipe: sn-vs-ratio\n", "sweep.variable"),
        # fewer draws than the Monte-Carlo engine accepts
        ("array:\n  realizations: 99\n", "array.realizations"),
        # zero forcing needs more sensors than the 10 shipped users
        ("recipe: rate-vs-M\n" + SENSOR_SWEEP.format(4, 16), "sweep.start"),
        # 0.3 rounds to no sensor at all
        ("recipe: rate-vs-M\n" + SENSOR_SWEEP.format(16.4, 0.3), "sweep.stop"),
        ("recipe: power-scaling\n" + SENSOR_SWEEP.format(16.4, 0.3), "sweep.stop"),
        # the thermal regime's objective is 0 everywhere at T = 0
        ("recipe: siso-optima\ndetection:\n  temperature_k: 0.0\n",
         "detection.temperature_k"),
        # the user field squares to 0 W at 3300 dB below the LO
        ("recipe: sn-vs-ratio\nsweep:\n  variable: ratio_db\n  start: 10.0\n"
         "  stop: 3300.0\n  points: 3\n  scale: linear\n", "sweep.stop"),
        # the width squares to 0 m^2 or overflows: no finite Rabi coefficient
        ("recipe: power-scaling\n" + SENSOR_SWEEP.format(64, 4096)
         + "operating_point:\n  coupling_fwhm_mm: 1.0e-300\n",
         "operating_point.coupling_fwhm_mm"),
        ("operating_point:\n  coupling_fwhm_mm: 1.0e+300\n",
         "operating_point.coupling_fwhm_mm"),
    ], ids=["probe-power", "gain", "dephasing-time", "probe-width",
            "atom-count-overflow", "atom-count-inf", "diod-local-beam",
            "nan", "inf", "minus-inf", "recipe-sweep", "realizations", "zf-sensors",
            "no-sensor", "power-scaling-no-sensor", "siso-optima-zero-kelvin",
            "zero-user-power", "coupling-width-underflow", "coupling-width-overflow"])
    def test_validate_out_of_range_physics(self, tmp_path, capsys, text, key):
        path = write_config(tmp_path, text)
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

    def test_schema_fields_are_model_fields(self):
        import dataclasses

        from raqr.atomic import AtomicSystem
        from raqr.frontend import DetectionChain, OperatingPoint

        names = {f.name for cls in (AtomicSystem, OperatingPoint, DetectionChain)
                 for f in dataclasses.fields(cls)}
        assert config._FIELD_KEYS and set(config._FIELD_KEYS) <= names

    @pytest.mark.parametrize("seed", [str(2**63), str(2**64)])
    def test_seed_flag_beyond_philox_key_rejected(self, tmp_path, capsys, seed):
        path = write_config(tmp_path, SMALL_DETUNING)
        rc = cli.main(["run", "detuning-loss", "--config", str(path),
                       "--out", str(tmp_path / "out"), "--seed", seed])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: seed: ")
        assert not (tmp_path / "out").exists()

    def test_run_recipe_rejecting_its_config(self, tmp_path, capsys):
        path = write_config(tmp_path, "sweep:\n  variable: ratio_db\n")
        rc = cli.main(["run", "rate-vs-M", "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: sweep.variable: ")
        assert not (tmp_path / "out").exists()

    def test_run_rejects_a_sensor_sweep_before_sampling(self, tmp_path, capsys):
        path = write_config(tmp_path, SENSOR_SWEEP.format(4, 16))
        rc = cli.main(["run", "rate-vs-M", "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: sweep.start: ")
        assert not (tmp_path / "out").exists()

    def test_run_with_a_nan_gain_table_fails(self, tmp_path, capsys):
        """An LO of 1e300 W makes the gain table NaN: the recipe's plan
        fails, so validate and run both exit 2 instead of writing a rate
        of 0."""
        raw = yaml.safe_load(default_config_path("rate-vs-M").read_text())
        raw.setdefault("operating_point", {})["lo_power_w"] = 1.0e300
        raw.setdefault("array", {})["realizations"] = mimo.MIN_REALIZATIONS
        path = write_config(tmp_path, yaml.safe_dump(raw))
        for argv in (["validate"], ["run", "rate-vs-M",
                                    "--out", str(tmp_path / "out")]):
            assert cli.main(argv + ["--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: recipe: rate-vs-M "), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("recipe, section, key, value, cause", [
        # the users' fading underflows to 0: the zero-forcing baseline's
        # closed form is rank deficient
        ("rate-vs-M", "operating_point", "carrier_freq_ghz", 1e300,
         "RankDeficient"),
        ("detuning-loss", "atomic", "probe_dipole_ea0", 1e300, "OverflowError"),
        ("siso-optima", "atomic", "probe_linewidth_mhz", 1e-300,
         "DivergentNoise"),
        # the gain table is NaN
        ("power-scaling", "atomic", "density_per_m3", 1e300, "ValueError"),
        ("rate-vs-parameter", "operating_point", "coupling_power_w", 1e300,
         "ValueError"),
        # no unique steady state: the steady-state solve is planned
        ("detuning-loss", "atomic", "dressing_dipole_cm", 0.0,
         "DegenerateNullSpace"),
        ("detuning-loss", "atomic", "dressing_dipole_cm", 1e-300,
         "DegenerateNullSpace"),
        ("detuning-loss", "operating_point", "coupling_power_w", 0.0,
         "DegenerateNullSpace"),
        # the cell is opaque over a whole grid: the comparison is planned
        ("siso-optima", "operating_point", "probe_power_w", 1e-30, "OpaqueGrid"),
    ], ids=["rate-vs-M", "detuning-loss", "siso-optima", "power-scaling",
            "rate-vs-parameter", "detuning-loss-no-dressing",
            "detuning-loss-tiny-dressing", "detuning-loss-no-coupling",
            "siso-optima-opaque-grid"])
    def test_config_the_plan_cannot_build_is_rejected(
            self, tmp_path, capsys, recipe, section, key, value, cause):
        """The packaged config with one key at an extreme: the recipe's
        plan fails, so validate and run both exit 2 naming ``recipe`` and
        the cause's type, and no artifact is written."""
        raw = yaml.safe_load(default_config_path(recipe).read_text())
        raw.setdefault(section, {})[key] = value
        raw.setdefault("array", {})["realizations"] = mimo.MIN_REALIZATIONS
        path = write_config(tmp_path, yaml.safe_dump(raw))
        for argv in (["validate"], ["run", recipe,
                                    "--out", str(tmp_path / "out")]):
            assert cli.main(argv + ["--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: recipe: {recipe} "), err
            assert f"cannot plan this config: {cause}: " in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("recipe, first, second", [
        # the probe Rabi rate rounds to 0: the on-resonance |rho21| is 0
        ("detuning-loss", ("atomic", "probe_dipole_ea0", 1.94e-202),
         ("operating_point", "lo_power_w", 1.34e124)),
        ("detuning-loss", ("operating_point", "effective_area_cm2", 1e300),
         ("atomic", "probe_linewidth_mhz", 3.46e-104)),
        # every scaled-power bound is NaN; its closed form overflows on the
        # way, so warnings are ignored as outside pytest
        pytest.param("power-scaling", ("baseline", "rf_noise_w", 3.30e-69),
                     ("array", "region_center_m", 3.48e-85),
                     marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    ], ids=["detuning-loss-no-probe", "detuning-loss-wide-aperture",
            "power-scaling-nan-bound"])
    def test_two_key_config_whose_summary_is_not_finite_is_rejected(
            self, tmp_path, capsys, recipe, first, second):
        """The packaged config with two keys set: the plan's summary would
        not be finite, which strict JSON cannot hold, so the plan fails and
        validate and run both exit 2 naming ``recipe`` and ValueError, with
        no artifact."""
        raw = yaml.safe_load(default_config_path(recipe).read_text())
        for section, key, value in (first, second):
            raw.setdefault(section, {})[key] = value
        raw.setdefault("array", {})["realizations"] = mimo.MIN_REALIZATIONS
        path = write_config(tmp_path, yaml.safe_dump(raw))
        for argv in (["validate"], ["run", recipe,
                                    "--out", str(tmp_path / "out")]):
            assert cli.main(argv + ["--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: recipe: {recipe} "), err
            assert "cannot plan this config: ValueError: " in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("end", ["start", "stop"])
    def test_far_detuned_sweep_end_runs(self, tmp_path, capsys, end):
        """The packaged detuning-loss config with a sweep end at 1e300 kHz:
        the drive there has a unique steady state, and its generator's
        squared entries overflow, not its norm, so validate and run both
        exit 0, without a warning, and every CSV value is finite."""
        raw = yaml.safe_load(default_config_path("detuning-loss").read_text())
        raw["sweep"][end] = 1e300
        path = write_config(tmp_path, yaml.safe_dump(raw))
        out = tmp_path / "out"
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert cli.main(["run", "detuning-loss", "--config", str(path),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        rows = np.loadtxt(out / "detuning-loss.csv", delimiter=",", skiprows=2)
        assert len(rows) == 61 and np.isfinite(rows).all()

    # as outside pytest: validation reports the plan's failure, whatever
    # warnings the non-finite intermediates raise on the way
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("section, key, value, cause", WAVEFORM_PLAN_FAILURES,
                             ids=[f"{key}-{value:g}" for _, key, value, _
                                  in WAVEFORM_PLAN_FAILURES])
    def test_waveform_overlay_plan_simulates_its_result(
            self, tmp_path, capsys, section, key, value, cause):
        """The noiseless waveforms are simulated in waveform-overlay's plan,
        so a config whose simulation fails, or whose relative deviation is
        not finite (strict JSON could not hold it), fails validate and run
        alike with exit 2 naming ``recipe``, and no artifact is written."""
        raw = yaml.safe_load(default_config_path("waveform-overlay").read_text())
        raw.setdefault(section, {})[key] = value
        path = write_config(tmp_path, yaml.safe_dump(raw))
        for argv in (["validate"], ["run", "waveform-overlay",
                                    "--out", str(tmp_path / "out")]):
            assert cli.main(argv + ["--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: recipe: waveform-overlay cannot plan "
                                  f"this config: {cause}"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("recipe", ["sn-vs-ratio", "waveform-overlay"])
    @pytest.mark.parametrize("key, value", [("carrier_freq_ghz", 1.0e300),
                                            ("beat_freq_khz", 1.0e-300)],
                             ids=["huge-carrier", "tiny-beat"])
    def test_extreme_carrier_or_beat_runs(self, tmp_path, capsys, recipe, key,
                                          value):
        """Only the user's beat against the RF LO reaches baseband: a beat
        far below the carrier, or a carrier that is inf in SI, validates
        and runs. Neither recipe reads the carrier, so at the huge carrier
        the CSV rows are the packaged config's."""
        raw = yaml.safe_load(default_config_path(recipe).read_text())
        raw.setdefault("operating_point", {})[key] = value
        path = write_config(tmp_path, yaml.safe_dump(raw))
        assert cli.main(["validate", "--config", str(path)]) == 0
        out, ref = tmp_path / "out", tmp_path / "ref"
        assert cli.main(["run", recipe, "--config", str(path),
                         "--out", str(out)]) == 0
        if key == "carrier_freq_ghz":
            assert cli.main(["run", recipe, "--out", str(ref)]) == 0
            # the first line is the config's fingerprint
            rows = [(d / f"{recipe}.csv").read_text().splitlines()[1:]
                    for d in (out, ref)]
            assert rows[0] and rows[0] == rows[1]
        capsys.readouterr()

    def test_run_unknown_recipe(self, capsys):
        assert cli.main(["run", "make-coffee"]) == 2
        assert "recipe" in capsys.readouterr().err

    def test_bad_thread_count(self, capsys):
        assert cli.main(["run", "detuning-loss", "--threads", "0"]) == 2

    def test_threads_come_from_the_flag_alone(self, tmp_path, monkeypatch,
                                             capsys):
        # the environment is not read: no flag means one worker
        calls = []

        def spy(cfg, threads):
            calls.append(threads)
            return run_recipe(cfg, threads=threads)

        monkeypatch.setattr(cli, "run_recipe", spy)
        monkeypatch.setenv("RAQR_THREADS", "not-a-number")
        path = write_config(tmp_path, SMALL_DETUNING)
        for flag in ([], ["--threads", "2"]):
            rc = cli.main(["run", "detuning-loss", "--config", str(path),
                           "--out", str(tmp_path / "out")] + flag)
            assert rc == 0, capsys.readouterr().err
        assert calls == [1, 2]

    def test_run_writes_and_reports(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_DETUNING)
        out = tmp_path / "artifacts"
        rc = cli.main(["run", "detuning-loss", "--config", str(path),
                       "--out", str(out), "--seed", "3"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert (out / "detuning-loss.csv").exists()
        assert "fingerprint=" in stdout
        assert str(out / "detuning-loss_summary.json") in stdout

    def test_rerun_writes_each_artifact_as_a_new_file(self, tmp_path, capsys):
        """A re-run into the same directory replaces each artifact with a
        new file: a hard link to the previous run's artifact keeps that
        run's bytes, and the path holds the new run's."""
        path = write_config(tmp_path, SMALL_DETUNING)
        out, kept = tmp_path / "out", tmp_path / "kept"

        def run(seed, where):
            assert cli.main(["run", "detuning-loss", "--config", str(path),
                             "--out", str(where), "--seed", seed]) == 0
            return {p.name: p.read_bytes() for p in where.iterdir()}

        first = run("3", out)
        assert len(first) == 3
        kept.mkdir()
        for name in first:
            os.link(out / name, kept / name)
        second = run("4", out)
        assert second == run("4", tmp_path / "fresh")
        for name, data in first.items():
            assert data != second[name]  # the seed and the fingerprint differ
            assert (kept / name).read_bytes() == data
        capsys.readouterr()

    def test_seed_flag_changes_fingerprint(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_DETUNING)
        fps = []
        for seed in ("1", "2"):
            cli.main(["run", "detuning-loss", "--config", str(path),
                      "--out", str(tmp_path / seed), "--seed", seed])
            fps.append(capsys.readouterr().out.splitlines()[0])
        assert fps[0] != fps[1]

    def test_check_recipe_runs_once_per_command(self, tmp_path, monkeypatch,
                                                capsys):
        calls, plans = [], []
        plan = recipes.RECIPES["detuning-loss"]

        def spy(cfg):
            calls.append(cfg.recipe)
            return check_recipe(cfg)

        def plan_spy(cfg):
            plans.append(cfg.recipe)
            return plan(cfg)

        monkeypatch.setattr(recipes, "check_recipe", spy)
        monkeypatch.setattr(cli, "check_recipe", spy)
        monkeypatch.setitem(recipes.RECIPES, "detuning-loss", plan_spy)
        path = write_config(tmp_path, SMALL_DETUNING)
        assert cli.main(["run", "detuning-loss", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 0
        assert calls == plans == ["detuning-loss"]  # the run builds one plan
        assert cli.main(["validate", "--config", str(path)]) == 0
        assert calls == plans == ["detuning-loss"] * 2
        # the shipped default names no recipe
        assert cli.main(["validate", "--config", str(default_config_path())]) == 0
        assert calls == plans == ["detuning-loss"] * 2
        capsys.readouterr()

    @pytest.mark.parametrize("section, key, value, named", [
        # sn_coeff is 0 or NaN: the variance fails at both ends of the sweep
        ("atomic", "probe_linewidth_mhz", 1e-300, "sn_coeff"),
        ("atomic", "density_per_m3", 1e300, "sn_coeff"),
        ("operating_point", "effective_area_cm2", 1e-300, "sn_coeff"),
        ("atomic", "dressing_dipole_cm", 1e300, "sn_coeff"),
        # a subnormal sn_coeff: the variance underflows at 30 dB only
        ("detection", "gain", 1e-300, "sweep.stop"),
    ])
    def test_sn_vs_ratio_names_sn_coeff_when_no_ratio_can_run(
            self, tmp_path, capsys, section, key, value, named):
        raw = yaml.safe_load(default_config_path("sn-vs-ratio").read_text())
        raw.setdefault(section, {})[key] = value
        path = write_config(tmp_path, yaml.safe_dump(raw))
        assert cli.main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}: "), err
        assert "the DIOD point's" in err and "sn_coeff" in err, err

    def test_sn_vs_ratio_plan_rejects_exactly_the_saturating_currents(
            self, tmp_path, monkeypatch):
        """The plan's trough current is the run's peak current bit for bit:
        at that i_sat the packaged config runs, and one ulp below it the
        plan refuses it, naming the saturation current, where the run
        would raise Saturation."""
        import dataclasses

        from raqr.waveform import Saturation

        cfg = dataclasses.replace(load_config(default_config_path("sn-vs-ratio")),
                                  output_dir=str(tmp_path))
        troughs, trough = [], recipes.trough_current

        def spy(*args):
            troughs.append(trough(*args))
            return troughs[-1]

        monkeypatch.setattr(recipes, "trough_current", spy)
        check_recipe(cfg)
        peak = max(float(t.max()) for t in troughs)

        def at(i_sat):
            return dataclasses.replace(
                cfg, chain=dataclasses.replace(cfg.chain, i_sat=i_sat))

        run_recipe(at(peak))
        below = at(np.nextafter(peak, 0.0))
        with pytest.raises(ValidationError) as err:
            check_recipe(below)
        assert err.value.key == "detection.saturation_current_ma"
        monkeypatch.setattr(recipes, "trough_current", lambda *args: np.zeros(1))
        with pytest.raises(RecipeError) as err:
            run_recipe(below)
        assert type(err.value.__cause__) is Saturation

    def test_packaged_recipe_configs_all_validate(self, capsys):
        from raqr.config import _CONFIG_DIR

        for path in sorted(_CONFIG_DIR.glob("*.yaml")):
            assert cli.main(["validate", "--config", str(path)]) == 0, path
        capsys.readouterr()

    def test_every_fuzz_config_is_rejected_by_name_or_runs(self, tmp_path):
        """tools/config_fuzz.py's 672 configs, each a packaged recipe config
        with one key at an extreme: each fails validation naming a key (exit
        2) or runs (exit 0). None validates and then fails its run."""
        spec = importlib.util.spec_from_file_location(
            "config_fuzz", ROOT / "tools" / "config_fuzz.py")
        fuzz = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fuzz)
        found = fuzz.outcomes(tmp_path)
        assert len(found) == 672
        failed = [line for line in found
                  if not re.fullmatch(r"ok|rejected \S+", line[-1])]
        assert failed == []

    @settings(max_examples=100, deadline=None)
    @given(recipe=st.sampled_from(sorted(RECIPE_SWEEPS)),
           keys=st.lists(st.sampled_from(FLOAT_KEYS), min_size=2, max_size=2,
                         unique=True),
           values=st.tuples(FLOAT_VALUES, FLOAT_VALUES))
    def test_validate_accepts_or_rejects_any_two_keys(
            self, tmp_path_factory, recipe, keys, values):
        """A packaged recipe config with two float keys set anywhere in
        the float range: validation, the recipe's plan included, exits 0 or
        2 and raises nothing. Validation only, so no run."""
        raw = yaml.safe_load(default_config_path(recipe).read_text())
        for (section, key), value in zip(keys, values):
            raw.setdefault(section, {})[key] = value
        path = tmp_path_factory.getbasetemp() / "two-keys.yaml"
        # a new file each example: rewriting one in place stalls on ext4
        path.unlink(missing_ok=True)
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert cli.main(["validate", "--config", str(path)]) in (0, 2)


class TestRecipeSummaries:
    """Cheap spot checks of the scientific content each figure carries."""

    def test_waveform_overlay_deviation(self, tmp_path):
        import dataclasses

        cfg = load_config(default_config_path("waveform-overlay"))
        cfg = dataclasses.replace(cfg, output_dir=str(tmp_path))
        summary = json.loads(run_recipe(cfg)["summary"].read_text())
        devs = summary["rms_deviation"]
        assert devs["ratio_20db"] <= 0.01
        assert devs["ratio_0db"] > devs["ratio_10db"] > devs["ratio_20db"]

    def test_detuning_loss_shape(self, tmp_path):
        import dataclasses

        cfg = load_config(default_config_path("detuning-loss"))
        cfg = dataclasses.replace(cfg, output_dir=str(tmp_path))
        paths = run_recipe(cfg)
        summary = json.loads(paths["summary"].read_text())
        assert summary["peak_detuning_hz"] == 0.0
        assert summary["peak_response"] == 1.0
        assert 1e7 < summary["half_width_hz"] < 2e8
        rows = np.loadtxt(paths["csv"], delimiter=",", skiprows=2)
        response = rows[:, 1]
        mid = len(response) // 2
        assert np.all(np.diff(response[:mid + 1]) > 0)
        assert np.all(np.diff(response[mid:]) < 0)

    def test_rate_vs_m_applies_the_per_user_alarm(self, tmp_path, monkeypatch):
        # the user mean clears the bound by 3 SE, but user 0 falls short:
        # the summary follows mimo.bound_violation_alarm, user by user
        import dataclasses

        def sampled(scenario, gains, budget, method, threads=None):
            rate = np.full(scenario.n_users, 3.0)
            rate[0] = 1.0
            bound = np.full(scenario.n_users, 2.0)
            return mimo.RateResult(
                sinr=2.0**rate - 1.0, rate=rate, bound=bound, n_samples=100,
                standard_error=np.full(scenario.n_users, 0.1), capped=False,
                terms={})

        monkeypatch.setattr(mimo, "monte_carlo_rate", sampled)
        cfg = load_config(write_config(
            tmp_path, "recipe: rate-vs-M\n" + SENSOR_SWEEP.format(16, 32)))
        cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "out"))
        summary = json.loads(run_recipe(cfg)["summary"].read_text())
        assert summary["mc_minus_bound_min"] > 0.0
        assert summary["bound_within_3se"] is False

    def test_sn_vs_ratio_schemes_draw_disjoint_seeds(self, tmp_path, monkeypatch):
        """Past 1000 ratios the BCOD seeds start after the DIOD ones, so no
        two of the 2,002 waveforms of a 1001-point sweep share a noise
        stream."""
        from types import SimpleNamespace

        seeds = []

        def simulated(*args, seed, **kwargs):
            seeds.append(seed)
            return SimpleNamespace(sn=np.zeros(2))

        monkeypatch.setattr(recipes, "simulate_waveform", simulated)
        cfg = load_config(write_config(
            tmp_path, "recipe: sn-vs-ratio\nsweep:\n  variable: ratio_db\n"
            "  start: 10.0\n  stop: 30.0\n  points: 1001\n  scale: linear\n"))
        recipes.sn_vs_ratio(cfg)(1)
        assert len(seeds) == 2002
        assert len(set(seeds)) == 2002

    def test_siso_optima_gaps(self, tmp_path):
        import dataclasses

        cfg = load_config(default_config_path("siso-optima"))
        cfg = dataclasses.replace(cfg, output_dir=str(tmp_path))
        summary = json.loads(run_recipe(cfg)["summary"].read_text())
        for label in ("lo_power_w:dc_shot", "lo_power_w:thermal"):
            entry = summary[label]
            assert not entry["clamped"]
            assert entry["gap_db"] <= 0.5
        assert summary["local_beam_w"] > 0

    def test_power_scaling_approaches_its_asymptote(self):
        cfg = load_config(default_config_path("power-scaling"))
        result = recipes.power_scaling(cfg)(1)
        bounds = [row[1] for row in result.rows]
        asym = result.summary["asymptotic_bpshz"]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        assert all(bound < asym for bound in bounds)
        assert result.summary["monotone"] is True
        last_m, last_bound, _ = result.rows[-1]
        assert result.summary["final_gap_rel"] == abs(last_bound - asym) / asym
        assert last_m == 4096
        assert result.summary["final_gap_rel"] == pytest.approx(0.00333, rel=1e-3)

    def test_siso_optima_closed_forms(self, tmp_path):
        import dataclasses

        cfg = load_config(default_config_path("siso-optima"))
        cfg = dataclasses.replace(cfg, output_dir=str(tmp_path))
        summary = json.loads(run_recipe(cfg)["summary"].read_text())
        for sweep, power in (("coupling_power_w", "pc"), ("lo_power_w", "p_lo")):
            for regime in ("dc_shot", "thermal"):
                star = optimal_power(cfg.op, cfg.system, power, regime)
                assert summary[f"{sweep}:{regime}"]["closed_form_w"] == star.power


class TestSweepValues:
    def test_log_grid(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path,
                "sweep:\n  start: 16\n  stop: 256\n  points: 5\n  scale: log\n"
                "  variable: n_sensors\n",
            )
        )
        assert np.allclose(cfg.sweep.values(), [16, 32, 64, 128, 256])

    def test_single_point(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path, "sweep:\n  points: 1\n  start: 2.0e-06\n")
        )
        assert cfg.sweep.values().tolist() == [2e-6]

    def test_empty(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "sweep:\n  points: 0\n"))
        assert cfg.sweep.values().size == 0
