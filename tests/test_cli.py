import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rawbench import (GrayImage, LinearRgbImage, cli, demosaic_bilinear, formats,
                      isp, visualize_raw)
from rawbench import augment as aug
from rawbench import corrupt as cor

from conftest import random_bayer, random_rgb


@pytest.fixture
def raw_path(tmp_path):
    path = tmp_path / "scene.pgm"
    formats.write_raw(random_bayer(16, 16, seed=12), path)
    return path


def _params_file(tmp_path, **overrides):
    path = tmp_path / "params.json"
    formats.write_isp_params(isp.IspParams.identity(), path)
    obj = json.loads(path.read_text())
    obj.update(overrides)
    path.write_text(json.dumps(obj))  # NaN / Infinity as JSON extensions
    return path


class TestDevelop:
    @pytest.mark.parametrize("field, value", [("r1", float("nan")),
                                              ("theta", float("inf")),
                                              ("g", float("nan")),
                                              ("rho", float("-inf"))])
    def test_non_finite_parameter_file_is_rejected(self, tmp_path, raw_path,
                                                   capsys, field, value):
        # a parameter value a params file cannot hold is a schema-value
        # error (exit 4), like r1 <= 0; it never develops or tracebacks
        params = _params_file(tmp_path, **{field: value})
        out = tmp_path / "out.ppm"
        code = cli.main(["develop", "--raw", str(raw_path), "--params",
                         str(params), "--out", str(out)])
        assert code == cli.EXIT_FORMAT
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_stages_only_requested_when_dumped(self, tmp_path, raw_path,
                                               monkeypatch):
        # a plain run takes the banded develop; --dump-stages the reference,
        # which returns the stages, with the same bytes
        requested = []
        for name in ("develop", "develop_linear"):
            def spy(*args, _name=name, _fn=getattr(isp, name), **kwargs):
                requested.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(isp, name, spy)
        plain, dumped = tmp_path / "plain.ppm", tmp_path / "dumped.ppm"
        stage_dir = tmp_path / "stages"
        assert cli.main(["develop", "--raw", str(raw_path),
                         "--out", str(plain)]) == cli.EXIT_OK
        assert requested == ["develop"]
        assert cli.main(["develop", "--raw", str(raw_path), "--out",
                         str(dumped), "--dump-stages", str(stage_dir)]) == cli.EXIT_OK
        assert requested == ["develop", "develop_linear"]
        assert plain.read_bytes() == dumped.read_bytes()
        assert (stage_dir / "final.ppm").read_bytes() == dumped.read_bytes()
        assert sorted(p.stem for p in stage_dir.iterdir()) == [
            "color_corrected", "demosaiced", "denoised", "final",
            "white_balanced"]

    def test_dump_stages_onto_a_file_writes_no_output(self, tmp_path, raw_path):
        stage_path, out = tmp_path / "stages", tmp_path / "out.ppm"
        stage_path.write_text("")
        assert cli.main(["develop", "--raw", str(raw_path), "--out", str(out),
                         "--dump-stages", str(stage_path)]) == cli.EXIT_FORMAT
        assert not out.exists()


@pytest.mark.parametrize("gamma", ["0", "nan", "inf"])
def test_display_gamma_not_finite_and_positive_exits_invalid(tmp_path, raw_path,
                                                             gamma):
    out = tmp_path / "out.ppm"
    assert cli.main(["develop", "--raw", str(raw_path), "--display8", "--gamma",
                     gamma, "--out", str(out)]) == cli.EXIT_INVALID
    assert not out.exists()


def test_invalid_kernel_size_exits_invalid(tmp_path, raw_path):
    code = cli.main(["develop", "--raw", str(raw_path), "--kernel-size", "4",
                     "--out", str(tmp_path / "out.ppm")])
    assert code == cli.EXIT_INVALID


def _write_json(path, obj):
    path.write_text(json.dumps(obj))  # NaN / Infinity as JSON extensions
    return path


def _usage_exit(argv):
    """The code cli.main exits with when argparse refuses argv."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    return exc.value.code


def _spec(tmp_path, kind="low_light", seed=3, params=None):
    return _write_json(tmp_path / "spec.json",
                       {"schema_version": 1, "kind": kind, "seed": seed,
                        "params": params or {}})


class TestCorruptSpec:
    @pytest.mark.parametrize("kind, params, code", [
        ("cmos_damage", {"dead_rows": True}, "E_SCHEMA_VALUE"),
        ("rain", {"count": 40.0}, "E_SCHEMA_VALUE"),
        ("cmos_damage", {"dead_rows": 9}, "E_RANGE"),
        ("low_light", {"l": "x"}, "E_SCHEMA_VALUE"),
        ("low_light", {"l": True}, "E_SCHEMA_VALUE"),
        ("low_light", {"l": 0.9}, "E_RANGE"),
        ("low_light", {"l": float("nan")}, "E_RANGE"),
        ("fog", {"a": "0.3"}, "E_SCHEMA_VALUE"),
        ("fog", {"a": [0.3]}, "E_SCHEMA_VALUE"),
        ("sensor_noise", {"bits": "12"}, "E_SCHEMA_VALUE"),
        ("sensor_noise", {"bits": 12.0}, "E_SCHEMA_VALUE"),
        ("sensor_noise", {"delta_r": float("inf")}, "E_SCHEMA_VALUE"),
        ("sensor_noise", {"delta_r": False}, "E_SCHEMA_VALUE"),
        ("sensor_matrix_a", {"matrix": "abc"}, "E_SCHEMA_VALUE"),
        ("sensor_matrix_a", {"matrix": [[1, 0], [0, 1]]}, "E_SCHEMA_VALUE"),
        ("sensor_matrix_a", {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, "1"]]},
         "E_SCHEMA_VALUE"),
        ("sensor_matrix_a", {"matrix": [[1, 0, 0], [0, float("nan"), 0],
                                        [0, 0, 1]]}, "E_SCHEMA_VALUE"),
        ("low_light", [0.1], "E_SCHEMA_VALUE"),
        ("sensor_noise", {"delta_r": 10**400}, "E_SCHEMA_VALUE"),
        ("low_light", {"bogus": 0.1}, "E_SCHEMA_FIELD"),
    ])
    def test_bad_override_is_rejected(self, tmp_path, raw_path, capsys,
                                      kind, params, code):
        out = tmp_path / "out.ppm"
        spec = _spec(tmp_path, kind, params=params)
        assert cli.main(["corrupt", "--input", str(raw_path), "--spec",
                         str(spec), "--out", str(out)]) == cli.EXIT_FORMAT
        assert code in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [True, 1.5, "7", None])
    def test_non_integer_seed_is_rejected(self, tmp_path, raw_path, capsys,
                                          seed):
        out = tmp_path / "out.ppm"
        assert cli.main(["corrupt", "--input", str(raw_path), "--spec",
                         str(_spec(tmp_path, seed=seed)), "--out",
                         str(out)]) == cli.EXIT_FORMAT
        assert "E_SCHEMA_VALUE" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64, 3 + 2**64, 10**400])
    def test_seed_outside_64_bits_is_rejected(self, tmp_path, raw_path, capsys,
                                              seed):
        # the generator keys on 64 bits: 3 + 2**64 would replay seed 3
        out = tmp_path / "out.ppm"
        assert cli.main(["corrupt", "--input", str(raw_path), "--spec",
                         str(_spec(tmp_path, seed=seed)), "--out",
                         str(out)]) == cli.EXIT_FORMAT
        assert "E_SCHEMA_VALUE" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_64_bit_seed_is_accepted(self, tmp_path, raw_path):
        out = tmp_path / "out.ppm"
        assert cli.main(["corrupt", "--input", str(raw_path), "--spec",
                         str(_spec(tmp_path, seed=2**64 - 1)), "--out",
                         str(out)]) == cli.EXIT_OK
        assert out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_command_line_seed_outside_64_bits_is_invalid(self, tmp_path,
                                                          raw_path, seed):
        # argparse refuses it (exit 2), as it does --jobs 0
        out = tmp_path / "out.ppm"
        assert _usage_exit(["corrupt", "--input", str(raw_path), "--kind",
                            "low_light", "--seed", seed, "--out",
                            str(out)]) == cli.EXIT_USAGE
        assert not out.exists()

    def test_largest_64_bit_command_line_seed_is_accepted(self, tmp_path,
                                                          raw_path):
        out = tmp_path / "out.ppm"
        assert cli.main(["corrupt", "--input", str(raw_path), "--kind", "fog",
                         "--seed", str(2**64 - 1), "--out",
                         str(out)]) == cli.EXIT_OK
        assert out.exists()

    @pytest.mark.parametrize("command", [
        ["corrupt", "--kind", "fog"], ["corrupt", "--sweep"], ["augment", "--n", "2"]],
        ids=["kind", "sweep", "augment"])
    def test_omitted_seed_is_seed_0(self, tmp_path, raw_path, command):
        # the output bytes depend on the command line alone
        outs = []
        for seed in ([], ["--seed", "0"]):
            out = tmp_path / f"out{len(outs)}"
            argv = command + ["--input", str(raw_path), "--out", str(out)] + seed
            assert cli.main(argv) == cli.EXIT_OK
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())}
                        if out.is_dir() else out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("kind, params", [
        ("sensor_matrix_a", {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1.5]]}),
        ("sensor_noise", {"bits": 10, "delta_r": 0}),
        ("cmos_damage", {"dead_rows": 2, "hot_value": 1}),
        ("fog", {"a": 0.45, "beta": 1}),
        ("sensor_noise", {"bits": 64}),
    ])
    def test_well_typed_override_is_applied(self, tmp_path, raw_path, kind,
                                            params):
        depth = tmp_path / "depth.pgm"
        formats.write_gray8(GrayImage(np.full((16, 16), 0.5)), depth)
        out = tmp_path / "out.ppm"
        assert cli.main(["corrupt", "--input", str(raw_path), "--spec",
                         str(_spec(tmp_path, kind, params=params)), "--depth",
                         str(depth), "--out", str(out)]) == cli.EXIT_OK
        assert out.exists()

    @pytest.mark.parametrize("bits", [0, 65, 2000])
    def test_bit_depth_outside_1_to_64_is_invalid(self, tmp_path, raw_path,
                                                  capsys, bits):
        # 2.0 ** (bits + 1) overflowed beyond 1023 bits (a traceback)
        out = tmp_path / "out.ppm"
        spec = _spec(tmp_path, "sensor_noise", params={"bits": bits})
        assert cli.main(["corrupt", "--input", str(raw_path), "--spec",
                         str(spec), "--out", str(out)]) == cli.EXIT_INVALID
        assert "bit depth" in capsys.readouterr().err
        assert not out.exists()


class TestBenchManifest:
    def _manifest(self, tmp_path, master_seed=5, **entry):
        entry = {"image_id": "scene", "kind": "low_light", "seed": 3,
                 "params": {}, **entry}
        return _write_json(tmp_path / "manifest.json",
                           {"schema_version": 1, "master_seed": master_seed,
                            "entries": [entry]})

    def _run(self, tmp_path, raw_path, manifest):
        return cli.main(["bench", "--manifest", str(manifest), "--raw",
                         str(raw_path), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("master_seed", [True, 2.0, "5", None])
    def test_non_integer_master_seed_is_rejected(self, tmp_path, raw_path,
                                                 capsys, master_seed):
        manifest = self._manifest(tmp_path, master_seed=master_seed)
        assert self._run(tmp_path, raw_path, manifest) == cli.EXIT_FORMAT
        assert "E_SCHEMA_VALUE" in capsys.readouterr().err

    @pytest.mark.parametrize("master_seed", [-1, 2**64, 10**400])
    def test_master_seed_outside_64_bits_is_rejected(self, tmp_path, raw_path,
                                                     capsys, master_seed):
        manifest = self._manifest(tmp_path, master_seed=master_seed)
        assert self._run(tmp_path, raw_path, manifest) == cli.EXIT_FORMAT
        assert "E_SCHEMA_VALUE" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, code", [
        ({"seed": True}, "E_SCHEMA_VALUE"),
        ({"seed": 3.0}, "E_SCHEMA_VALUE"),
        ({"image_id": ["scene"]}, "E_SCHEMA_VALUE"),
        ({"params": {"l": "0.2"}}, "E_SCHEMA_VALUE"),
        ({"params": {"l": 7.0}}, "E_RANGE"),
        ({"params": "none"}, "E_SCHEMA_VALUE"),
        ({"seed": -1}, "E_SCHEMA_VALUE"),
        ({"seed": 3 + 2**64}, "E_SCHEMA_VALUE"),
        ({"seed": 10**400}, "E_SCHEMA_VALUE"),
    ])
    def test_bad_entry_is_rejected(self, tmp_path, raw_path, capsys, entry,
                                   code):
        manifest = self._manifest(tmp_path, **entry)
        assert self._run(tmp_path, raw_path, manifest) == cli.EXIT_FORMAT
        assert code in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_entry_is_rejected(self, tmp_path, raw_path, capsys):
        # two entries with one (image_id, kind, seed) would write one file
        entry = {"image_id": "scene", "kind": "fog", "seed": 3}
        manifest = _write_json(tmp_path / "manifest.json", {
            "schema_version": 1, "master_seed": 5, "entries": [entry, entry]})
        assert self._run(tmp_path, raw_path, manifest) == cli.EXIT_FORMAT
        assert "E_SCHEMA_VALUE" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage(self, tmp_path, raw_path, capsys, jobs):
        assert _usage_exit(["bench", "--manifest", str(self._manifest(tmp_path)),
                            "--raw", str(raw_path), "--jobs", jobs,
                            "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
        assert "argument --jobs: must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--depth", "--flare"])
    def test_layer_no_entry_uses_is_ignored(self, tmp_path, raw_path, option):
        # low_light uses neither layer, so an 8^2 one runs on a 16^2 image
        layer = tmp_path / "layer.pgm"
        formats.write_gray8(GrayImage(np.full((8, 8), 0.5)), layer)
        assert cli.main(["bench", "--manifest", str(self._manifest(tmp_path)),
                         "--raw", str(raw_path), option, str(layer),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK

    def test_written_manifest_runs(self, tmp_path, raw_path):
        assert self._run(tmp_path, raw_path,
                         self._manifest(tmp_path)) == cli.EXIT_OK
        assert len((tmp_path / "out" / "hashes.txt").read_text().split()) == 1

    @pytest.mark.parametrize("image_id", ["", ".", "..", "../escaped",
                                          "a\\b", "a,b", "x\u0000y", "x\ny"])
    def test_bad_image_id_is_rejected(self, tmp_path, raw_path, capsys,
                                      image_id):
        # an id names <id>.pgm and <id>__<kind>__<seed>.ppm, and starts a
        # comma-separated line of hashes.txt: a NUL cannot be in a path, and
        # a newline would split its line in two
        manifest = self._manifest(tmp_path, image_id=image_id)
        assert self._run(tmp_path, raw_path, manifest) == cli.EXIT_FORMAT
        assert "E_SCHEMA_VALUE" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.glob("*__low_light__3.ppm"))

    def test_benchmark_image_id_runs(self, tmp_path, raw_path):
        manifest = self._manifest(tmp_path, image_id="syn_0")
        assert self._run(tmp_path, raw_path, manifest) == cli.EXIT_OK
        assert (tmp_path / "out" / "syn_0__low_light__3.ppm").exists()

    def test_master_seed_does_not_change_hashes(self, tmp_path, raw_path):
        # bench replays each entry from its own seed; master_seed only
        # records where corrupt --sweep derived the entry seeds from
        hashes = []
        for master_seed in (5, 6):
            run_dir = tmp_path / str(master_seed)
            run_dir.mkdir()
            manifest = self._manifest(run_dir, master_seed=master_seed,
                                      kind="sensor_noise")
            assert self._run(run_dir, raw_path, manifest) == cli.EXIT_OK
            hashes.append((run_dir / "out" / "hashes.txt").read_text())
        assert hashes[0] == hashes[1]

    def _run_input_dir(self, tmp_path, input_dir):
        return cli.main(["bench", "--manifest", str(self._manifest(tmp_path)),
                         "--input-dir", str(input_dir),
                         "--out", str(tmp_path / "out")])

    def test_input_dir_reads_each_image_id(self, tmp_path, raw_path):
        input_dir = tmp_path / "inputs"
        input_dir.mkdir()
        raw_path.rename(input_dir / "scene.pgm")
        raw_path.with_suffix(".json").rename(input_dir / "scene.json")
        assert self._run_input_dir(tmp_path, input_dir) == cli.EXIT_OK
        from_raw = tmp_path / "from_raw"
        from_raw.mkdir()
        assert self._run(from_raw, input_dir / "scene.pgm",
                         self._manifest(from_raw)) == cli.EXIT_OK
        assert ((tmp_path / "out" / "hashes.txt").read_text()
                == (from_raw / "out" / "hashes.txt").read_text())

    def test_input_dir_without_the_image_is_format(self, tmp_path, capsys):
        input_dir = tmp_path / "inputs"
        input_dir.mkdir()
        assert self._run_input_dir(tmp_path, input_dir) == cli.EXIT_FORMAT
        assert "scene.pgm" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestAugmentConfig:
    def _run(self, tmp_path, raw_path, config):
        return cli.main(["augment", "--input", str(raw_path),
                         "--augment-config", str(config), "--n", "8",
                         "--seed", "3", "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("fields", [
        {"kernel_sizes": "7"},
        {"kernel_sizes": 7},
        {"kernel_sizes": []},
        {"kernel_sizes": [7.5]},
        {"kernel_sizes": [7, True]},
        {"prob_original": "0.25"},
        {"prob_aniso": "0.5"},
        {"prob_aniso": 1.5},
        {"chroma_lo": "x"},
        {"chroma_lo": 1.2, "chroma_hi": 0.8},
        {"awgn_sigma_max": -1},
        {"iso_width_lo": -1},
        {"aniso_major_lo": 0},
        {"aniso_minor_frac_lo": -0.5},
        {"awgn_sigma_max": float("inf")},
        {"brightness_mix": 2.0},
        {"prob_chroma": 0.5},  # the branch probabilities sum to 1.25
        {"brightness_dark": {"mu": "x", "sigma": 0.1, "lo": 0.0, "hi": 1.0}},
        {"brightness_dark": {"mu": 10**400, "sigma": 0.1, "lo": 0.0, "hi": 1.0}},
    ])
    def test_bad_field_is_rejected(self, tmp_path, raw_path, capsys, fields):
        # every ill-typed or out-of-range field is a schema-value error
        # (exit 4) before any sample is drawn, never a traceback or a run
        config = _write_json(tmp_path / "augment.json",
                             {"schema_version": 1, **fields})
        assert self._run(tmp_path, raw_path, config) == cli.EXIT_FORMAT
        assert "E_SCHEMA_VALUE" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*.ppm"))

    def test_blur_before_noise_is_an_unknown_field(self, tmp_path, raw_path,
                                                   capsys):
        # quality always blurs before the noise; the order is no option
        config = _write_json(tmp_path / "augment.json",
                             {"schema_version": 1, "blur_before_noise": True})
        assert self._run(tmp_path, raw_path, config) == cli.EXIT_FORMAT
        assert "E_SCHEMA_FIELD" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_written_default_config_runs(self, tmp_path, raw_path):
        config = tmp_path / "augment.json"
        formats.write_augment_config(aug.AugmentConfig(), config)
        assert self._run(tmp_path, raw_path, config) == cli.EXIT_OK
        assert len(list((tmp_path / "out").glob("*.ppm"))) == 8

    def test_low_mass_component_exits_format_without_hanging(self, tmp_path,
                                                            raw_path):
        # N(100, 0.01) has no mass in [0, 1], so rejection sampling used to
        # loop forever; a child process lets a timeout catch a hang
        config = _write_json(tmp_path / "augment.json", {
            "schema_version": 1, "prob_original": 0.0, "prob_brightness": 1.0,
            "prob_chroma": 0.0, "prob_quality": 0.0, "brightness_mix": 1.0,
            "brightness_dark": {"mu": 100, "sigma": 0.01, "lo": 0, "hi": 1}})
        path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        run = subprocess.run(
            [sys.executable, "-m", "rawbench.cli", "augment", "--input",
             str(raw_path), "--augment-config", str(config), "--n", "1",
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
        assert run.returncode == cli.EXIT_FORMAT
        assert "E_SCHEMA_VALUE" in run.stderr and "mass" in run.stderr


# --- extreme values: a file's value ends in exit 0, 4 or 5, never a raise ---

@pytest.fixture
def rgb_path(tmp_path):
    path = tmp_path / "scene.ppm"
    formats.write_rgb(random_rgb(8, 8, seed=13), path)
    return path


def _fixed_overrides():
    """Every fixed parameter of every corruption kind at 0, -1 and +-1e300;
    for a matrix, each entry at +-1e300."""
    for kind, spec in cor.REGISTRY.items():
        for param in (p for p in spec.params if p.mode == "fixed"):
            if isinstance(param.rule, tuple):
                cases = itertools.product(np.ndindex(3, 3), (1e300, -1e300))
                for (i, j), value in cases:
                    matrix = [list(row) for row in param.rule]
                    matrix[i][j] = value
                    yield pytest.param(kind, {param.name: matrix},
                                       id=f"{kind}-{param.name}[{i}][{j}]={value}")
            else:
                for value in (0, -1, 1e300, -1e300):
                    yield pytest.param(kind, {param.name: value},
                                       id=f"{kind}-{param.name}={value}")


@pytest.mark.parametrize("kind, params", list(_fixed_overrides()))
def test_no_fixed_override_raises(tmp_path, rgb_path, kind, params):
    # sigma2_scale < 0 (math.sqrt) and delta_r^2 beyond a float
    # (OverflowError) were tracebacks
    spec = _spec(tmp_path, kind, params=params)
    code = cli.main(["corrupt", "--input", str(rgb_path), "--spec", str(spec),
                     "--out", str(tmp_path / "out.ppm")])
    assert code in (cli.EXIT_OK, cli.EXIT_FORMAT, cli.EXIT_INVALID)


def _augment_extremes():
    """Each real field of AugmentConfig, and of its truncated normals, at
    +-1e308."""
    for field in dataclasses.fields(aug.AugmentConfig):
        for value in (1e308, -1e308):
            if isinstance(field.default, float):
                yield pytest.param({field.name: value},
                                   id=f"{field.name}={value}")
            elif isinstance(field.default, aug.TruncatedNormal):
                for part in dataclasses.fields(aug.TruncatedNormal):
                    tn = {**dataclasses.asdict(field.default), part.name: value}
                    yield pytest.param({field.name: tn},
                                       id=f"{field.name}.{part.name}={value}")


@pytest.mark.parametrize("fields", list(_augment_extremes()))
def test_no_augment_field_raises(tmp_path, rgb_path, fields):
    # each branch alone, so that the sampler draws from every accepted value;
    # chroma_hi 1e308 overflowed the gains' dyadic rounding (OverflowError).
    # awgn_sigma_max 1e308 overflows the noise to a non-finite image, which
    # is refused with exit 5, so numpy's overflow warning is no error here.
    for branch in aug.BRANCHES:
        only = {f"prob_{name}": float(name == branch) for name in aug.BRANCHES}
        config = _write_json(tmp_path / "augment.json",
                             {"schema_version": 1, **only, **fields})
        with np.errstate(over="ignore"):
            code = cli.main(["augment", "--input", str(rgb_path), "--augment-config",
                             str(config), "--n", "2", "--out", str(tmp_path / branch)])
        assert code in (cli.EXIT_OK, cli.EXIT_FORMAT, cli.EXIT_INVALID), branch



@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_is_usage(tmp_path, raw_path, capsys, jobs):
    assert _usage_exit(["corrupt", "--input", str(raw_path), "--sweep",
                        "--jobs", jobs, "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    assert "argument --jobs: must be an integer >= 1" in capsys.readouterr().err


def test_sweep_of_an_input_stem_that_is_no_image_id_is_rejected(tmp_path, capsys):
    # the sweep's manifest takes the input's stem as its image_id; a comma
    # would give hashes.txt lines of five fields and a manifest that bench
    # rejects
    raw = tmp_path / "a,b.pgm"
    formats.write_raw(random_bayer(16, 16, seed=12), raw)
    out = tmp_path / "out"
    assert cli.main(["corrupt", "--input", str(raw), "--sweep",
                     "--out", str(out)]) == cli.EXIT_FORMAT
    assert "E_SCHEMA_VALUE" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", ["--depth", "--flare"])
def test_sweep_with_a_layer_of_another_size_writes_nothing(tmp_path, raw_path,
                                                           capsys, option):
    # the fog or flare entries use the layer: its size is checked against
    # the image before --out is created, not when those entries run
    layer = tmp_path / "layer.pgm"
    formats.write_gray8(GrayImage(np.full((8, 8), 0.5)), layer)
    out = tmp_path / "sw"
    assert cli.main(["corrupt", "--input", str(raw_path), "--sweep", option,
                     str(layer), "--out", str(out)]) == cli.EXIT_INVALID
    assert "dimensions do not match the image" in capsys.readouterr().err
    assert not out.exists()


def test_corrupt_without_spec_or_kind_is_usage(tmp_path, raw_path, capsys):
    assert _usage_exit(["corrupt", "--input", str(raw_path),
                        "--out", str(tmp_path / "out.ppm")]) == cli.EXIT_USAGE
    assert "one of the arguments --spec --kind --sweep is required" \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["corrupt", "--input", "{raw}"],
    ["corrupt", "--input", "{raw}", "--spec", "{spec}", "--kind", "fog"],
    ["corrupt", "--input", "{raw}", "--kind", "fog", "--sweep"],
    ["corrupt", "--input", "{raw}", "--spec", "{spec}", "--sweep"],
    ["corrupt", "--input", "{raw}", "--kind", "bogus"],
    ["corrupt", "--input", "{raw}", "--kind", "fog", "--jobs", "0"],
    ["corrupt", "--input", "{raw}", "--sweep", "--jobs", "0"],
    ["bench", "--manifest", "{manifest}", "--raw", "{raw}", "--jobs", "0"],
    ["augment", "--input", "{raw}", "--n", "0"],
    ["bench", "--manifest", "{manifest}"],
    ["bench", "--manifest", "{empty}"],
    ["bench", "--manifest", "{manifest}", "--raw", "{raw}", "--input-dir", "{dir}"],
    # options the mode would ignore; {missing} shows nothing is read first
    ["corrupt", "--input", "{missing}", "--spec", "{spec}", "--seed", "1"],
    ["corrupt", "--input", "{missing}", "--kind", "fog", "--jobs", "2"],
    ["corrupt", "--input", "{missing}", "--spec", "{spec}", "--jobs", "2"],
    ["develop", "--raw", "{missing}", "--gamma", "1.8"],
    ["develop", "--raw", "{missing}", "--gamma", "-1"],
    # a seed outside [0, 2^64), or no integer, is refused by argparse
    ["corrupt", "--input", "{missing}", "--kind", "fog", "--seed", "-1"],
    ["corrupt", "--input", "{missing}", "--sweep", "--seed", "1.5"],
    ["augment", "--input", "{missing}", "--n", "2", "--seed", "-1"],
    ["augment", "--input", "{missing}", "--n", "2", "--seed", str(2**64)],
], ids=["corrupt-no-source", "corrupt-spec-kind", "corrupt-kind-sweep",
        "corrupt-spec-sweep", "corrupt-bogus-kind", "corrupt-jobs-0",
        "sweep-jobs-0", "bench-jobs-0", "augment-n-0", "bench-no-input",
        "bench-no-input-empty-manifest", "bench-raw-and-input-dir",
        "corrupt-spec-seed", "corrupt-kind-jobs", "corrupt-spec-jobs",
        "develop-gamma-without-display8", "develop-negative-gamma-without-display8",
        "corrupt-seed-negative", "sweep-seed-not-integer", "augment-seed-negative",
        "augment-seed-2^64"])
def test_usage_error_exits_2_and_writes_nothing(tmp_path, raw_path, argv):
    entry = {"image_id": "scene", "kind": "low_light", "seed": 3}
    paths = {"raw": raw_path, "spec": _spec(tmp_path), "dir": tmp_path,
             "missing": tmp_path / "missing.pgm",
             "manifest": _write_json(tmp_path / "manifest.json", {
                 "schema_version": 1, "master_seed": 5, "entries": [entry]}),
             "empty": _write_json(tmp_path / "empty.json", {
                 "schema_version": 1, "master_seed": 5, "entries": []})}
    out = tmp_path / "out"
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(out)]
    assert _usage_exit(argv) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("kind", ["fog", "rain_fog"])
def test_single_corrupt_replays_its_sweep_entry(tmp_path, raw_path, kind):
    # without --depth, both fall back to the same procedural depth map
    sweep = tmp_path / "sweep"
    assert cli.main(["corrupt", "--input", str(raw_path), "--sweep", "--seed",
                     "7", "--out", str(sweep)]) == cli.EXIT_OK
    _, entries = formats.read_bench_manifest(sweep / "manifest.json")
    [(image_id, spec)] = [e for e in entries if e[1].kind == kind]
    single = tmp_path / "single.ppm"
    assert cli.main(["corrupt", "--input", str(raw_path), "--kind", kind,
                     "--seed", str(spec.seed), "--out", str(single)]) == cli.EXIT_OK
    entry_file = sweep / f"{image_id}__{kind}__{spec.seed}.ppm"
    assert single.read_bytes() == entry_file.read_bytes()


def test_reference_without_a_condition_is_undefined(tmp_path, capsys):
    records = _write_json(tmp_path / "records.json", [
        {"method": "ref", "condition": "normal", "score": 0.9},
        {"method": "m", "condition": "normal", "score": 0.8},
        {"method": "m", "condition": "fog", "score": 0.6}])
    out = tmp_path / "out"
    assert cli.main(["report", "--records", str(records), "--reference",
                     "ref", "--out", str(out)]) == cli.EXIT_METRIC
    assert "'fog'" in capsys.readouterr().err
    assert not out.exists()


def test_visualize_writes_the_green_average(tmp_path, raw_path):
    out = tmp_path / "vis.pgm"
    assert cli.main(["visualize", "--raw", str(raw_path),
                     "--out", str(out)]) == cli.EXIT_OK
    expected = tmp_path / "expected.pgm"
    formats.write_gray8(visualize_raw(formats.read_raw(raw_path)), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_csv_records_report_as_their_json(tmp_path):
    rows = [("ref", "normal", 0.9), ("ref", "fog", 0.7),
            ("m", "normal", 0.8), ("m", "fog", 0.6)]
    as_csv = tmp_path / "records.csv"
    as_csv.write_text("method,condition,score\n"
                      + "".join(f"{m},{c},{v}\n" for m, c, v in rows))
    as_json = _write_json(tmp_path / "records.json", [
        {"method": m, "condition": c, "score": v} for m, c, v in rows])
    reports = []
    for records in (as_csv, as_json):
        out = tmp_path / records.suffix[1:]
        assert cli.main(["report", "--records", str(records), "--reference",
                         "ref", "--out", str(out)]) == cli.EXIT_OK
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


# Every code each subcommand can return, from one command line each; only a
# success creates --out. Paths:
# {raw} a 16^2 RAW, {small_*} 8^2 files that do not match it, {missing} no
# file; {manifest} holds one fog entry, {records} a valid report and
# {tiny_blur} an augment config whose every sample draws a blur too narrow
# to build a kernel for.
EXIT_MATRIX = [
    ("develop", 0, ["--raw", "{raw}"]),
    ("develop", 2, ["--raw", "{raw}", "--gamma", "1.8"]),
    ("develop", 4, ["--raw", "{missing}"]),
    ("develop", 5, ["--raw", "{raw}", "--display8", "--gamma", "0"]),
    ("corrupt", 0, ["--input", "{raw}", "--kind", "fog", "--seed", "3"]),
    ("corrupt", 2, ["--input", "{raw}", "--kind", "fog", "--jobs", "2"]),
    ("corrupt", 4, ["--input", "{missing}", "--kind", "fog"]),
    ("corrupt", 5, ["--input", "{raw}", "--kind", "fog", "--depth", "{small_depth}"]),
    ("augment", 0, ["--input", "{raw}", "--n", "2"]),
    ("augment", 2, ["--input", "{raw}", "--n", "0"]),
    ("augment", 4, ["--input", "{missing}", "--n", "2"]),
    ("augment", 5, ["--input", "{raw}", "--n", "2", "--augment-config",
                    "{tiny_blur}"]),
    ("bench", 0, ["--manifest", "{manifest}", "--raw", "{raw}"]),
    ("bench", 2, ["--manifest", "{manifest}"]),
    ("bench", 4, ["--manifest", "{missing}", "--raw", "{raw}"]),
    ("bench", 5, ["--manifest", "{manifest}", "--raw", "{raw}", "--depth",
                  "{small_depth}"]),
    ("fit", 0, ["--raw", "{raw}", "--target", "{target}", "--fit-config", "{fit}"]),
    ("fit", 2, ["--raw", "{raw}", "--fit-config", "{fit}"]),
    ("fit", 4, ["--raw", "{raw}", "--target", "{missing}", "--fit-config", "{fit}"]),
    ("fit", 5, ["--raw", "{raw}", "--target", "{small_target}", "--fit-config",
                "{fit}"]),
    ("visualize", 0, ["--raw", "{raw}"]),
    ("visualize", 2, []),
    ("visualize", 4, ["--raw", "{missing}"]),
    ("report", 0, ["--records", "{records}", "--reference", "ref"]),
    ("report", 2, ["--records", "{records}"]),
    ("report", 4, ["--records", "{missing}", "--reference", "ref"]),
    ("report", 5, ["--records", "{conflicting}", "--reference", "ref"]),
    ("report", 6, ["--records", "{records}", "--reference", "nobody"]),
]


@pytest.mark.parametrize("command, code, args", EXIT_MATRIX,
                         ids=[f"{c}-{code}" for c, code, _ in EXIT_MATRIX])
def test_exit_code_matrix(tmp_path, raw_path, command, code, args):
    rows = [("ref", "normal", 0.9), ("ref", "fog", 0.7),
            ("m", "normal", 0.8), ("m", "fog", 0.6)]
    paths = {
        "raw": raw_path, "missing": tmp_path / "missing",
        "small_depth": tmp_path / "depth.pgm", "target": tmp_path / "target.ppm",
        "small_target": tmp_path / "small_target.ppm",
        "fit": _write_json(tmp_path / "fit.json", {"schema_version": 1, "budget": 3}),
        "tiny_blur": _write_json(tmp_path / "augment.json", {
            "schema_version": 1, "prob_original": 0, "prob_brightness": 0,
            "prob_chroma": 0, "prob_quality": 1, "prob_aniso": 0,
            "iso_width_lo": 1e-300, "iso_width_hi": 1e-300}),
        "manifest": _write_json(tmp_path / "manifest.json", {
            "schema_version": 1, "master_seed": 5,
            "entries": [{"image_id": "scene", "kind": "fog", "seed": 3}]}),
        "records": _write_json(tmp_path / "records.json", [
            {"method": m, "condition": c, "score": v} for m, c, v in rows]),
        "conflicting": _write_json(tmp_path / "conflicting.json", [
            {"method": m, "condition": c, "score": v}
            for m, c, v in rows + [("m", "fog", 0.5)]]),
    }
    formats.write_gray8(GrayImage(np.full((8, 8), 0.5)), paths["small_depth"])
    rgb = demosaic_bilinear(formats.read_raw(raw_path))
    formats.write_rgb(rgb, paths["target"])
    formats.write_rgb(LinearRgbImage(rgb.data[:8, :8]), paths["small_target"])
    out = tmp_path / "out"
    argv = [command] + [a.format(**paths) for a in args] + ["--out", str(out)]
    try:
        got = cli.main(argv)
    except SystemExit as exc:  # argparse's refusal
        got = exc.code
    assert got == code
    assert out.exists() == (code == cli.EXIT_OK)


def test_cli_import_does_not_load_scipy_fft():
    # raw._fft_filter uses numpy.fft: importing scipy.fft adds about 35 ms to
    # every command's start-up
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, rawbench.cli; print('scipy.fft' in sys.modules)"],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert run.stdout.strip() == "False"
