"""Config ingestion, recipe orchestration, artifact emission, CLI."""

import json
import math

import numpy as np
import pytest

from raqr import cli, defaults, mimo
from raqr.config import (
    ParseError,
    ValidationError,
    default_config_path,
    fingerprint,
    load_config,
    serialize,
)
from raqr.recipes import RecipeError, list_recipes, place_users, run_recipe


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture()
def default_cfg():
    return load_config(default_config_path())


class TestParsing:
    def test_malformed_yaml_reports_position(self, tmp_path):
        path = write_config(tmp_path, "atomic:\n  x: [1,\n")
        with pytest.raises(ParseError) as err:
            load_config(path)
        assert isinstance(err.value.line, int)
        assert isinstance(err.value.column, int)

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

    def test_log_sweep_negative_lower_bound(self, tmp_path):
        path = write_config(
            tmp_path, "sweep:\n  start: -1.0e-06\n  scale: log\n"
        )
        with pytest.raises(ValidationError, match="sweep.start"):
            load_config(path)

    def test_linear_sweep_may_go_negative(self, tmp_path):
        path = write_config(
            tmp_path,
            "sweep:\n  variable: detuning_khz\n  start: -5.0\n  stop: 5.0\n"
            "  scale: linear\n",
        )
        cfg = load_config(path)
        assert cfg.sweep.start == -5.0

    def test_negative_points(self, tmp_path):
        path = write_config(tmp_path, "sweep:\n  points: -3\n")
        with pytest.raises(ValidationError, match="sweep.points"):
            load_config(path)

    def test_unknown_sweep_variable(self, tmp_path):
        path = write_config(tmp_path, "sweep:\n  variable: phase_of_moon\n")
        with pytest.raises(ValidationError, match="sweep.variable"):
            load_config(path)

    def test_unknown_scale(self, tmp_path):
        path = write_config(tmp_path, "sweep:\n  scale: cubic\n")
        with pytest.raises(ValidationError, match="sweep.scale"):
            load_config(path)

    def test_unknown_recipe(self, tmp_path):
        path = write_config(tmp_path, "recipe: make-coffee\n")
        with pytest.raises(ValidationError, match="recipe"):
            load_config(path)

    def test_negative_seed(self, tmp_path):
        path = write_config(tmp_path, "seed: -1\n")
        with pytest.raises(ValidationError, match="seed"):
            load_config(path)

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
        path = write_config(tmp_path, serialize(default_cfg), "rt.yaml")
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
                getattr(system, name), rel=1e-12
            )
        for name in ("g", "alpha", "z0", "bw", "temperature", "i_sat"):
            assert getattr(default_cfg.chain, name) == pytest.approx(
                getattr(chain, name), rel=1e-12
            )

    def test_builds_equal_objects_through_the_factories(self, default_cfg):
        # the config derives e*a0, the atom count and the responsivity with
        # the defaults helpers, so only the two values that pass through a
        # unit scale (nm -> m, us -> s) need handing over for exact equality
        lambda_p, t2 = default_cfg.system.lambda_p, default_cfg.system.t2
        assert default_cfg.system == defaults.cesium_system(
            lambda_p=lambda_p, t2=t2
        )
        assert default_cfg.chain == defaults.default_chain(
            alpha=defaults.responsivity(defaults.ETA1, lambda_p)
        )
        assert default_cfg.system.n_atoms == defaults.n_atoms(
            defaults.N0, default_cfg.op.fwhm_p, defaults.L_CELL
        )


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

    def test_reruns_are_byte_identical(self, tmp_path):
        import dataclasses

        cfg = load_config(write_config(tmp_path, SMALL_DETUNING))
        blobs = []
        for sub in ("a", "b"):
            run = dataclasses.replace(cfg, output_dir=str(tmp_path / sub))
            paths = run_recipe(run)
            blobs.append(b"".join(p.read_bytes() for _, p in sorted(paths.items())))
        assert blobs[0] == blobs[1]

    def test_empty_sweep_manifest_without_csv(self, tmp_path):
        import dataclasses

        text = SMALL_DETUNING.replace("points: 7", "points: 0")
        cfg = load_config(write_config(tmp_path, text))
        cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "out"))
        paths = run_recipe(cfg)
        assert "csv" not in paths
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["series"] == []
        assert manifest["csv"] is None

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

    def test_module_error_carries_recipe_context(self, tmp_path):
        import dataclasses

        cfg = load_config(
            write_config(
                tmp_path,
                "recipe: rate-vs-M\n"
                "array:\n  realizations: 200\n"
                "sweep:\n  variable: n_sensors\n  start: 4\n  stop: 8\n"
                "  points: 2\n  scale: log\n",
            )
        )
        cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "out"))
        with pytest.raises(RecipeError, match="rate-vs-M") as err:
            run_recipe(cfg)
        assert isinstance(err.value.__cause__, mimo.DimensionError)

    def test_sweep_variable_mismatch(self, tmp_path):
        import dataclasses

        cfg = load_config(write_config(tmp_path, "recipe: waveform-overlay\n"))
        cfg = dataclasses.replace(cfg, output_dir=str(tmp_path / "out"))
        with pytest.raises(ValidationError, match="sweep.variable"):
            run_recipe(cfg)

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

    def test_run_unknown_recipe(self, capsys):
        assert cli.main(["run", "make-coffee"]) == 2
        assert "recipe" in capsys.readouterr().err

    def test_bad_thread_count(self, capsys):
        assert cli.main(["run", "detuning-loss", "--threads", "0"]) == 2

    def test_env_thread_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RAQR_THREADS", "not-a-number")
        path = write_config(tmp_path, SMALL_DETUNING)
        rc = cli.main(["run", "detuning-loss", "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "RAQR_THREADS" in capsys.readouterr().err
        monkeypatch.setenv("RAQR_THREADS", "2")
        rc = cli.main(["run", "detuning-loss", "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 0

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

    def test_seed_flag_changes_fingerprint(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_DETUNING)
        fps = []
        for seed in ("1", "2"):
            cli.main(["run", "detuning-loss", "--config", str(path),
                      "--out", str(tmp_path / seed), "--seed", seed])
            fps.append(capsys.readouterr().out.splitlines()[0])
        assert fps[0] != fps[1]

    def test_packaged_recipe_configs_all_validate(self, capsys):
        from raqr.config import _CONFIG_DIR

        for path in sorted(_CONFIG_DIR.glob("*.yaml")):
            assert cli.main(["validate", "--config", str(path)]) == 0, path
        capsys.readouterr()


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
