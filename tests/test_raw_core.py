import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.ndimage import convolve

from rawbench import (BayerImage, CfaPattern, LinearRgbImage,
                      demosaic_bilinear, make_gaussian_kernel, mosaic,
                      normalize_raw, spatial_filter, visualize_raw)
from rawbench.corrupt import defocus_psf, motion_blur_psf
from rawbench.errors import DimensionError, ParameterError
from rawbench import raw
from rawbench.raw import _KERNEL_G, _KERNEL_RB, separable_factors

from conftest import constant_bayer, random_bayer, random_rgb


class TestNormalizeRaw:
    def test_black_level_maps_to_zero(self):
        codes = np.full((2, 2), 64)
        bay = normalize_raw(codes, 64, 4095, 12, CfaPattern.RGGB)
        assert np.all(bay.data == 0.0)

    def test_white_level_maps_to_one(self):
        codes = np.full((2, 2), 4095)
        bay = normalize_raw(codes, 64, 4095, 12, CfaPattern.RGGB)
        assert np.all(bay.data == 1.0)

    def test_midrange_code(self):
        # hand arithmetic: (2079 - 64) / 4031
        codes = np.full((2, 2), 2079)
        bay = normalize_raw(codes, 64, 4095, 12, CfaPattern.RGGB)
        assert bay.data[0, 0] == pytest.approx((2079 - 64) / 4031, abs=1e-15)

    def test_below_black_clamps(self):
        codes = np.full((2, 2), 10)
        bay = normalize_raw(codes, 64, 4095, 12, CfaPattern.RGGB)
        assert np.all(bay.data == 0.0)

    def test_invalid_metadata(self):
        with pytest.raises(ParameterError):
            normalize_raw(np.zeros((2, 2), int), 4095, 64, 12, CfaPattern.RGGB)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            normalize_raw(np.zeros(4, int), 64, 4095, 12, CfaPattern.RGGB)

    @given(st.integers(64, 4095), st.integers(64, 4095))
    def test_monotone_in_code(self, c1, c2):
        lo, hi = sorted((c1, c2))
        bay_lo = normalize_raw(np.full((2, 2), lo), 64, 4095, 12, CfaPattern.RGGB)
        bay_hi = normalize_raw(np.full((2, 2), hi), 64, 4095, 12, CfaPattern.RGGB)
        assert bay_lo.data[0, 0] <= bay_hi.data[0, 0]


class TestMosaic:
    def test_constant_image(self):
        rgb = LinearRgbImage(np.full((4, 4, 3), 0.37))
        assert np.all(mosaic(rgb, CfaPattern.RGGB).data == 0.37)

    @pytest.mark.parametrize("cfa,expect", [
        (CfaPattern.RGGB, 0), (CfaPattern.BGGR, 2),
        (CfaPattern.GRBG, 1), (CfaPattern.GBRG, 1),
    ])
    def test_origin_pixel_channel(self, cfa, expect):
        data = np.zeros((2, 2, 3))
        data[..., 0], data[..., 1], data[..., 2] = 0.1, 0.2, 0.3
        bay = mosaic(LinearRgbImage(data), cfa)
        assert bay.data[0, 0] == [0.1, 0.2, 0.3][expect]

    def test_odd_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            mosaic(LinearRgbImage(np.zeros((3, 4, 3))), CfaPattern.RGGB)

    @given(st.floats(0.0, 1.0, allow_subnormal=False),
           st.sampled_from(list(CfaPattern)))
    def test_round_trip_constant(self, c, cfa):
        rgb = LinearRgbImage(np.full((6, 6, 3), c))
        back = demosaic_bilinear(mosaic(rgb, cfa))
        assert np.array_equal(back.data, rgb.data)


def _mirror(i, n):
    if i < 0:
        return -i
    if i >= n:
        return 2 * n - 2 - i
    return i


def _demosaic_reference(data, cfa):
    """Loop-based bilinear oracle: averages of same-color neighbors, with
    whole-sample mirror borders. Independent of the production path."""
    h, w = data.shape
    tile = cfa.tile()
    colors = np.empty((h, w), int)
    for y in range(h):
        for x in range(w):
            colors[y, x] = tile[y % 2, x % 2]
    out = np.zeros((h, w, 3))
    offsets_cross = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    offsets_diag = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    offsets_h = [(0, -1), (0, 1)]
    offsets_v = [(-1, 0), (1, 0)]
    for y in range(h):
        for x in range(w):
            for c in range(3):
                if colors[y, x] == c:
                    out[y, x, c] = data[y, x]
                    continue
                if c == 1:
                    offs = offsets_cross
                else:
                    same_h = any(colors[y, _mirror(x + dx, w)] == c
                                 for _, dx in offsets_h)
                    same_v = any(colors[_mirror(y + dy, h), x] == c
                                 for dy, _ in offsets_v)
                    if same_h:
                        offs = offsets_h
                    elif same_v:
                        offs = offsets_v
                    else:
                        offs = offsets_diag
                vals = [data[_mirror(y + dy, h), _mirror(x + dx, w)]
                        for dy, dx in offs]
                out[y, x, c] = sum(vals) / len(vals)
    return out


class TestDemosaic:
    def test_constant_mosaic(self):
        bay = constant_bayer(6, 6, 0.42)
        rgb = demosaic_bilinear(bay)
        assert np.all(rgb.data == 0.42)

    def test_measured_red_kept(self):
        # RGGB 2x2 tile [R=1, G=0, G=0, B=0]
        data = np.zeros((2, 2))
        data[0, 0] = 1.0
        bay = BayerImage(data=data, cfa=CfaPattern.RGGB, bit_depth=12,
                         black_level=0, white_level=4095)
        rgb = demosaic_bilinear(bay)
        assert rgb.data[0, 0, 0] == 1.0

    def test_measured_positions_bit_exact(self):
        bay = random_bayer(8, 8, seed=21)
        rgb = demosaic_bilinear(bay)
        masks = bay.cfa.channel_masks(8, 8)
        for c in range(3):
            assert np.array_equal(rgb.data[..., c][masks[c]],
                                  bay.data[masks[c]])

    def test_green_ramp_against_oracle(self):
        # horizontal ramp sampled onto the mosaic; 8x8 synthetic fixture
        ramp = np.tile(np.linspace(0.0, 0.7, 8), (8, 1))
        bay = BayerImage(data=ramp, cfa=CfaPattern.RGGB, bit_depth=12,
                         black_level=0, white_level=4095)
        rgb = demosaic_bilinear(bay)
        ref = _demosaic_reference(ramp, CfaPattern.RGGB)
        assert np.allclose(rgb.data, ref, atol=1e-12)
        # green plane reproduces the ramp away from borders
        assert np.allclose(rgb.data[2:-2, 2:-2, 1], ramp[2:-2, 2:-2], atol=1e-6)

    @pytest.mark.parametrize("cfa", list(CfaPattern))
    def test_matches_reference_all_patterns(self, cfa):
        bay = random_bayer(8, 10, seed=5, cfa=cfa)
        rgb = demosaic_bilinear(bay)
        ref = _demosaic_reference(bay.data, cfa)
        assert np.allclose(rgb.data, ref, atol=1e-12)

    @pytest.mark.parametrize("cfa", list(CfaPattern))
    @pytest.mark.parametrize("shape", [(2, 2), (6, 10)])
    def test_matches_reference_edge_shapes(self, shape, cfa):
        # a single tile, and an odd number of tiles across: every site is
        # a border site or one row/column in from it
        bay = random_bayer(*shape, seed=9, cfa=cfa)
        ref = _demosaic_reference(bay.data, cfa)
        assert np.allclose(demosaic_bilinear(bay).data, ref, atol=1e-12)


    @pytest.mark.parametrize("cfa", list(CfaPattern))
    @pytest.mark.parametrize("shape", [(2, 2), (2, 6), (6, 10), (12, 8)])
    def test_mirror_borders_keep_the_denominator_at_one(self, shape, cfa):
        # the normalization demosaic_bilinear leaves out is exactly 1.0
        # wherever a channel is interpolated, border sites included
        masks = cfa.channel_masks(*shape)
        for mask, kernel in zip(masks, (_KERNEL_RB, _KERNEL_G, _KERNEL_RB)):
            den = convolve(mask.astype(float), kernel, mode="mirror")
            assert np.all(den[~mask] == 1.0)


def _convolve_reference(data, taps):
    """Per-channel 2-D convolution, independent of the separable path."""
    if data.ndim == 2:
        return convolve(data, taps, mode="mirror")
    return np.stack([convolve(data[..., c], taps, mode="mirror")
                     for c in range(data.shape[2])], -1)


# rank 1 and large enough for the two-pass path
_SEPARABLE_TAPS = {
    "gaussian_13": make_gaussian_kernel(3.0, 2.0, 0.0, 13).taps,
    "gaussian_21": make_gaussian_kernel(1.2, 1.2, 0.0, 21).taps,
    "box_4x8": np.full((4, 8), 1.0 / 32.0),
}
# rank 1 but small: one 2-D pass
_SMALL_TAPS = {
    "kernel_rb": _KERNEL_RB,
    "box_4x2": np.full((4, 2), 1.0 / 8.0),
    "one_tap": np.ones((1, 1)),
}
_DENSE_TAPS = {
    "rotated_gaussian": make_gaussian_kernel(3.0, 1.0, 0.7, 11).taps,
    "motion_psf": motion_blur_psf(7.5, 0.6),
    "defocus_disk": defocus_psf(3.2),
    "kernel_g": _KERNEL_G,
}


class TestSpatialFilter:
    @pytest.mark.parametrize("name", sorted({**_SEPARABLE_TAPS, **_SMALL_TAPS,
                                             **_DENSE_TAPS}))
    @pytest.mark.parametrize("channels", [None, 3])
    def test_matches_2d_convolve(self, name, channels):
        taps = {**_SEPARABLE_TAPS, **_SMALL_TAPS, **_DENSE_TAPS}[name]
        data = random_rgb(19, 24, seed=11).data
        if channels is None:
            data = data[..., 1]
        got = spatial_filter(data, taps)
        assert got.shape == data.shape
        assert np.max(np.abs(got - _convolve_reference(data, taps))) <= 1e-12

    @pytest.mark.parametrize("name", sorted({**_SEPARABLE_TAPS, **_SMALL_TAPS}))
    def test_rank_one_taps_factor(self, name):
        taps = {**_SEPARABLE_TAPS, **_SMALL_TAPS}[name]
        column, row = separable_factors(taps)
        assert np.allclose(np.outer(column, row), taps, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(_SEPARABLE_TAPS))
    def test_large_rank_one_taps_skip_the_2d_pass(self, name, monkeypatch):
        def no_2d(*args, **kwargs):
            raise AssertionError("2-D convolve called")
        monkeypatch.setattr(raw, "convolve", no_2d)
        spatial_filter(random_rgb(9, 9, seed=3).data, _SEPARABLE_TAPS[name])

    @pytest.mark.parametrize("name", sorted(_SMALL_TAPS))
    def test_small_taps_are_bit_exact(self, name):
        data = random_rgb(11, 8, seed=4).data
        got = spatial_filter(data, _SMALL_TAPS[name])
        assert np.array_equal(got, _convolve_reference(data, _SMALL_TAPS[name]))

    @pytest.mark.parametrize("name", sorted(_DENSE_TAPS))
    def test_other_taps_fall_back_to_2d(self, name):
        assert separable_factors(_DENSE_TAPS[name]) is None

    def test_all_zero_taps_fall_back_to_2d(self):
        assert separable_factors(np.zeros((3, 3))) is None

    def test_one_tap_is_exact_copy(self):
        data = random_rgb(8, 6, seed=2).data
        assert np.array_equal(spatial_filter(data, np.ones((1, 1))), data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_taps_rejected(self, bad):
        taps = np.full((3, 3), 1.0 / 9.0)
        taps[0, 2] = bad
        with pytest.raises(ParameterError):
            spatial_filter(np.zeros((4, 4)), taps)

    def test_rejects_other_ranks(self):
        with pytest.raises(DimensionError):
            spatial_filter(np.zeros(5), np.ones((1, 1)))
        with pytest.raises(ParameterError):
            spatial_filter(np.zeros((4, 4)), np.ones(3))


class TestVisualizeRaw:
    def test_all_zero(self):
        assert np.all(visualize_raw(constant_bayer(4, 4, 0.0)).data == 0.0)

    def test_unit_green(self):
        assert np.all(visualize_raw(constant_bayer(4, 4, 1.0)).data == 1.0)

    def test_green_average_gamma(self):
        # G1=0.2, G2=0.4 -> (0.3)^(1/1.4), hand power evaluation
        data = np.zeros((2, 2))
        data[0, 1] = 0.2  # G1 for RGGB
        data[1, 0] = 0.4  # G2
        bay = BayerImage(data=data, cfa=CfaPattern.RGGB, bit_depth=12,
                         black_level=0, white_level=4095)
        expected = 0.3 ** (1.0 / 1.4)
        assert visualize_raw(bay).data[0, 0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.4232, abs=5e-5)

    def test_invariant_to_red_blue(self):
        bay = random_bayer(6, 6, seed=1)
        altered = bay.data.copy()
        masks = bay.cfa.channel_masks(6, 6)
        altered[masks[0]] = 0.9
        altered[masks[2]] = 0.1
        bay2 = BayerImage(data=altered, cfa=bay.cfa, bit_depth=12,
                          black_level=64, white_level=4095)
        assert np.array_equal(visualize_raw(bay).data, visualize_raw(bay2).data)

    def test_full_resolution_tiling(self):
        bay = random_bayer(6, 8, seed=2)
        vis = visualize_raw(bay)
        assert vis.data.shape == (6, 8)
        assert np.array_equal(vis.data[0::2, 0::2], vis.data[1::2, 1::2])


class TestTypes:
    def test_odd_mosaic_rejected(self):
        with pytest.raises(DimensionError):
            BayerImage(data=np.zeros((3, 4)), cfa=CfaPattern.RGGB, bit_depth=12,
                       black_level=0, white_level=4095)

    def test_bad_levels_rejected(self):
        with pytest.raises(ParameterError):
            BayerImage(data=np.zeros((2, 2)), cfa=CfaPattern.RGGB, bit_depth=12,
                       black_level=4095, white_level=64)

    def test_nan_rejected(self):
        data = np.zeros((2, 2, 3))
        data[0, 0, 0] = np.nan
        with pytest.raises(ParameterError):
            LinearRgbImage(data)
