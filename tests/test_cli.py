import json

import numpy as np
import pytest

from rawbench import cli, formats, isp

from conftest import random_bayer


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
        requested = []
        develop = isp.develop

        def spy(*args, **kwargs):
            requested.append(kwargs.get("return_stages", False))
            return develop(*args, **kwargs)

        monkeypatch.setattr(isp, "develop", spy)
        plain, dumped = tmp_path / "plain.ppm", tmp_path / "dumped.ppm"
        stage_dir = tmp_path / "stages"
        assert cli.main(["develop", "--raw", str(raw_path),
                         "--out", str(plain)]) == cli.EXIT_OK
        assert cli.main(["develop", "--raw", str(raw_path), "--out",
                         str(dumped), "--dump-stages", str(stage_dir)]) == cli.EXIT_OK
        assert requested == [False, True]
        assert plain.read_bytes() == dumped.read_bytes()
        assert (stage_dir / "final.ppm").read_bytes() == dumped.read_bytes()
        assert sorted(p.stem for p in stage_dir.iterdir()) == [
            "color_corrected", "demosaiced", "denoised", "final",
            "white_balanced"]


def test_invalid_kernel_size_exits_invalid(tmp_path, raw_path):
    code = cli.main(["develop", "--raw", str(raw_path), "--kernel-size", "4",
                     "--out", str(tmp_path / "out.ppm")])
    assert code == cli.EXIT_INVALID
