"""`develop` runs in row bands on a thread pool; its output must not depend
on the band height or the number of workers. Every case is compared byte
for byte with the full-frame composition of the stage functions."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rawbench import (CfaPattern, IspParams, LinearRgbImage, NilutWeights,
                      apply_ccm, cli, demosaic_bilinear, develop,
                      develop_linear, formats, gain_denoise_sharpen, isp,
                      make_gaussian_kernel, nilut_forward, pool,
                      sog_white_balance)
from rawbench.errors import ParameterError

from conftest import random_bayer, random_lut, random_rgb


def full_frame(bayer, params, kernel_size):
    """(final, stages) of the stage functions applied to whole images."""
    kernel = make_gaussian_kernel(params.r1, params.r2, params.theta, kernel_size)
    demosaiced = demosaic_bilinear(bayer)
    denoised = gain_denoise_sharpen(demosaiced, params.g, kernel, params.sigma)
    balanced, _ = sog_white_balance(denoised, params.rho)
    corrected = apply_ccm(balanced, params.ccm)
    return nilut_forward(corrected, params.lut), {
        "demosaiced": demosaiced, "denoised": denoised,
        "white_balanced": balanced, "color_corrected": corrected}


def params_for(u, theta, lut):
    return IspParams(g=0.5 + 1.5 * u[0], r1=0.5 + 4.0 * u[1], r2=0.5 + 3.0 * u[2],
                     theta=theta, sigma=0.05 + 0.9 * u[3], rho=1.0 + 4.0 * u[4],
                     ccm=np.eye(3) + 0.2 * (u[5:14].reshape(3, 3) - 0.5),
                     lut=random_lut(int(1e6 * u[14])) if lut else NilutWeights.identity())


@settings(max_examples=60)
@given(half_h=st.integers(1, 24), half_w=st.integers(1, 24),
       cfa=st.sampled_from(list(CfaPattern)), kernel_size=st.sampled_from(range(1, 22, 2)),
       theta=st.sampled_from([0.0, 0.0, 0.7]), lut=st.booleans(),
       band_rows=st.sampled_from([2, 4, 6]), workers=st.sampled_from([1, 3]),
       seed=st.integers(0, 2**16))
def test_bands_and_workers_do_not_change_develop(half_h, half_w, cfa, kernel_size,
                                                 theta, lut, band_rows, workers, seed):
    bayer = random_bayer(2 * half_h, 2 * half_w, seed=seed, cfa=cfa)
    u = np.random.default_rng(seed).random(15)
    params = params_for(u, theta, lut)
    with pytest.MonkeyPatch.context() as mp:
        # small NILUT blocks, and so colour chunks, for the reference too
        mp.setattr(isp, "NILUT_BLOCK_ROWS", 8)
        final, stages = full_frame(bayer, params, kernel_size)
        mp.setattr(isp, "BAND_ROWS", band_rows)
        mp.setattr(pool, "WORKERS", workers)
        got = develop(bayer, params, kernel_size=kernel_size)
        linear = develop_linear(stages["demosaiced"], params, kernel_size=kernel_size)
        got_final, got_stages = develop_linear(stages["demosaiced"], params,
                                               kernel_size=kernel_size,
                                               return_stages=True)
    assert got.data.tobytes() == final.data.tobytes()
    assert got_final.data.tobytes() == final.data.tobytes()
    assert linear.data.tobytes() == final.data.tobytes()
    assert list(got_stages) == list(stages)[1:]  # all but "demosaiced"
    for name, img in got_stages.items():
        assert img.data.tobytes() == stages[name].data.tobytes(), name


def test_full_nilut_blocks_match_one_gemm_per_block(monkeypatch):
    # 2 full blocks of 4096 pixels and a partial one of 3 * 256: the stacked
    # 256-row GEMMs give the bits of the 4096-row GEMMs
    img = random_rgb(10, 896, seed=3, lo=-0.2, hi=1.3)
    lut = random_lut(17)
    got = nilut_forward(img, lut)
    monkeypatch.setattr(isp, "NILUT_GEMM_ROWS", 7)  # never divides a block
    assert got.data.tobytes() == nilut_forward(img, lut).data.tobytes()


@pytest.mark.parametrize("workers", [1, 3])
def test_non_finite_result_in_a_worker_raises_parameter_error(monkeypatch, workers):
    monkeypatch.setattr(isp, "BAND_ROWS", 4)
    monkeypatch.setattr(pool, "WORKERS", workers)
    params = IspParams(g=1e308, r1=1.0, r2=1.0, theta=0.0, sigma=0.5, rho=1.0,
                       ccm=2.0 * np.eye(3))
    bright = LinearRgbImage(4.0 * random_rgb(16, 12, seed=2).data)
    # the caller's errstate reaches the workers: no overflow warning escapes
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ParameterError, match="non-finite"):
            develop(random_bayer(16, 12, seed=1), params, kernel_size=3)  # colour pass
        with pytest.raises(ParameterError, match="non-finite"):
            # gain_denoise_sharpen, on the caller's thread: the reference
            # never reaches the pool (test_pool.py covers worker failures)
            develop_linear(bright, params, kernel_size=3)


def test_only_develop_without_stages_runs_on_the_pool(monkeypatch):
    # develop is the banded schedule; the reference, with or without its
    # stages, never reaches the pool
    calls = []
    parallel_map = isp.parallel_map

    def spy(fn, items, workers=None):
        calls.append(fn.__name__)
        return parallel_map(fn, items, workers)

    monkeypatch.setattr(isp, "parallel_map", spy)
    bayer, params = random_bayer(16, 12, seed=4), params_for(np.full(15, 0.5), 0.0, True)
    develop_linear(demosaic_bilinear(bayer), params, kernel_size=5)
    develop_linear(demosaic_bilinear(bayer), params, kernel_size=5, return_stages=True)
    assert calls == []
    develop(bayer, params, kernel_size=5)
    # one Shades-of-Gray power plane, filled once per channel
    assert calls == ["spatial", "power", "power", "power", "colour"]


def test_develop_holds_one_power_plane(monkeypatch):
    # 32 bands of 64 rows on 2 threads. The (H, W, 3) output is 3 planes of
    # the mosaic's size and the Shades-of-Gray power plane one more; the
    # bands' temporaries stay well under one plane. With three power planes
    # beside the output the peak was about 7 planes.
    monkeypatch.setattr(pool, "WORKERS", 2)
    bayer = random_bayer(2048, 128, seed=6)
    tracemalloc.start()
    try:
        develop(bayer, IspParams.identity())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * bayer.data.nbytes


def test_non_finite_result_exits_invalid(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(isp, "BAND_ROWS", 4)
    monkeypatch.setattr(pool, "WORKERS", 3)
    raw, params, out = tmp_path / "scene.pgm", tmp_path / "params.json", tmp_path / "out.ppm"
    formats.write_raw(random_bayer(16, 12, seed=1), raw)
    formats.write_isp_params(IspParams.identity(), params)
    obj = json.loads(params.read_text())
    obj.update(g=1e308, ccm=(2.0 * np.eye(3)).tolist())
    params.write_text(json.dumps(obj))
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["develop", "--raw", str(raw), "--params", str(params),
                         "--out", str(out)])
    assert code == cli.EXIT_INVALID
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()
