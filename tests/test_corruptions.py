import hashlib
import math

import numpy as np
import pytest

from rawbench import CorruptionSpec, DepthMap, KINDS, LinearRgbImage, NoiseModel
from rawbench.corrupt import (apply_corruption, apply_sensor_matrix,
                              corrupt_bayer, corrupt_chromatic_aberration,
                              corrupt_cmos_damage, corrupt_defocus_blur,
                              corrupt_flare, corrupt_fog, corrupt_low_flare,
                              corrupt_moire, corrupt_motion_blur, corrupt_rain,
                              corrupt_rain_fog, corrupt_relight,
                              corrupt_sensor_noise, corrupt_snow, corrupt_vignetting,
                              defocus_psf, motion_blur_psf, procedural_depth,
                              procedural_flare, snow_mask)
from rawbench.errors import DimensionError, ParameterError
from rawbench.rng import RngStream

from conftest import random_bayer, random_rgb


def _const(h, w, value):
    return LinearRgbImage(np.full((h, w, 3), float(value)))


def _structured(h, w):
    """Fixture with gradients, a disk, and channel separation; every
    corruption leaves a distinct fingerprint on it."""
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    r = np.sqrt((xs - w / 3) ** 2 + (ys - h / 3) ** 2)
    disk = (r < min(h, w) / 5).astype(float)
    data = np.stack([
        0.15 + 0.6 * xs / (w - 1) + 0.2 * disk,
        0.25 + 0.5 * ys / (h - 1),
        0.45 + 0.3 * disk - 0.2 * xs / (w - 1),
    ], axis=-1)
    return LinearRgbImage(np.clip(data, 0.0, 1.0))


ZERO_NOISE = NoiseModel(0.0, 0.0)


class TestRelight:
    def test_identity_at_unit_light_zero_noise(self, rgb16):
        out = corrupt_relight(rgb16, 1.0, ZERO_NOISE, RngStream.from_seed(0))
        assert np.array_equal(out.data, rgb16.data)

    def test_dimming(self):
        out = corrupt_relight(_const(4, 4, 0.5), 0.1, ZERO_NOISE,
                              RngStream.from_seed(0))
        assert np.allclose(out.data, 0.05, atol=1e-15)

    def test_variance_matches_model(self):
        # var = delta_r^2 + delta_s * l * x = 1e-4 + 0.02*0.2*0.5 = 0.0021
        x = _const(256, 256, 0.5)
        out = corrupt_relight(x, 0.2, NoiseModel(0.01, 0.02),
                              RngStream.from_seed(7))
        residual = out.data - 0.2 * x.data
        n = residual.size
        assert n >= 65536
        assert abs(residual.var() - 0.0021) < 0.1 * 0.0021
        assert abs(residual.mean()) <= 3.0 * math.sqrt(0.0021) / math.sqrt(n)


class TestFlare:
    def test_no_flare_no_noise(self, rgb16):
        out = corrupt_flare(rgb16, np.zeros((16, 16)), 0.0,
                            RngStream.from_seed(1))
        assert np.array_equal(out.data, rgb16.data)

    def test_pure_flare(self):
        f = RngStream.from_seed(2).uniforms(64).reshape(8, 8)
        out = corrupt_flare(_const(8, 8, 0.0), f, 0.0, RngStream.from_seed(3))
        assert np.allclose(out.data, f[..., None], atol=1e-15)

    def test_chi_square_scale(self):
        # E[chi^2_1] = 1, so across many images mean sigma^2 ~ scale
        draws = [RngStream.from_seed(1000 + i).chisq1() for i in range(1000)]
        mean_sigma2 = 1e-4 * float(np.mean(draws))
        assert abs(mean_sigma2 - 1e-4) < 0.15e-4

    def test_dimension_mismatch(self, rgb16):
        with pytest.raises(DimensionError):
            corrupt_flare(rgb16, np.zeros((4, 4)), 0.0, RngStream.from_seed(0))

    def test_negative_variance_scale_is_invalid(self, rgb16):
        # math.sqrt of a negative variance raised a bare ValueError
        with pytest.raises(ParameterError, match="sigma2_scale"):
            corrupt_flare(rgb16, np.zeros((16, 16)), -1.0, RngStream.from_seed(0))


class TestLowFlare:
    def test_zero_flare_equals_relight_same_stream(self, rgb16):
        noise = NoiseModel(0.01, 0.02)
        a = corrupt_low_flare(rgb16, 0.2, np.zeros((16, 16)), noise,
                              RngStream.from_seed(5))
        b = corrupt_relight(rgb16, 0.2, noise, RngStream.from_seed(5))
        assert np.array_equal(a.data, b.data)

    def test_unit_light_zero_noise(self, rgb16):
        f = 0.25 * np.ones((16, 16))
        out = corrupt_low_flare(rgb16, 1.0, f, ZERO_NOISE, RngStream.from_seed(0))
        assert np.allclose(out.data, rgb16.data + 0.25, atol=1e-15)

    def test_hand_value(self):
        out = corrupt_low_flare(_const(4, 4, 0.5), 0.1,
                                np.full((4, 4), 0.3), ZERO_NOISE,
                                RngStream.from_seed(0))
        assert np.allclose(out.data, 0.35, atol=1e-15)


class TestFog:
    def test_beta_zero_identity(self, rgb16):
        depth = DepthMap(np.ones((16, 16)))
        out = corrupt_fog(rgb16, depth, 0.6, 0.0)
        assert np.allclose(out.data, rgb16.data, atol=1e-12)

    def test_full_extinction(self):
        depth = DepthMap(np.full((4, 4), 1e9))
        out = corrupt_fog(_const(4, 4, 0.2), depth, 0.6, 1.0)
        assert np.allclose(out.data, 0.6, atol=1e-12)

    def test_koschmieder_fixture(self):
        # A=0.6, beta=1, d=ln 2 -> t=0.5; y = 0.2*0.5 + 0.6*0.5 = 0.4
        depth = DepthMap(np.full((4, 4), math.log(2.0)))
        out = corrupt_fog(_const(4, 4, 0.2), depth, 0.6, 1.0)
        assert np.allclose(out.data, 0.4, atol=1e-12)

    def test_convex_combination_bound(self):
        rgb = random_rgb(12, 12, seed=3)
        depth = DepthMap(RngStream.from_seed(4).uniforms(144).reshape(12, 12))
        a = 0.6
        out = corrupt_fog(rgb, depth, a, 1.3)
        lo = np.minimum(rgb.data, a) - 1e-9
        hi = np.maximum(rgb.data, a) + 1e-9
        assert np.all(out.data >= lo) and np.all(out.data <= hi)

    def test_monotone_in_beta(self):
        rgb = random_rgb(8, 8, seed=5)
        depth = DepthMap(0.5 + RngStream.from_seed(6).uniforms(64).reshape(8, 8))
        a = 0.55
        gaps = []
        for beta in (0.2, 0.7, 1.5, 3.0):
            out = corrupt_fog(rgb, depth, a, beta)
            gaps.append(np.abs(out.data - a))
        for g1, g2 in zip(gaps, gaps[1:]):
            assert np.all(g2 <= g1 + 1e-12)

    def test_dimension_mismatch(self, rgb16):
        with pytest.raises(DimensionError):
            corrupt_fog(rgb16, DepthMap(np.ones((4, 4))), 0.5, 1.0)


class TestRain:
    def test_zero_count_identity(self, rgb16):
        out = corrupt_rain(rgb16, 0, 20.0, 1.2, 1.0, 0.4, RngStream.from_seed(0))
        assert np.array_equal(out.data, rgb16.data)

    def test_single_streak_bounds(self):
        x = _const(32, 32, 0.0)
        out = corrupt_rain(x, 1, 10.0, 1.3, 1.0, 0.37, RngStream.from_seed(9))
        added = out.data - x.data
        assert added.max() <= 0.37 + 1e-12
        assert added.sum() > 0

    def test_deterministic_replay(self, rgb16):
        a = corrupt_rain(rgb16, 50, 12.0, 1.4, 1.2, 0.3, RngStream.from_seed(11))
        b = corrupt_rain(rgb16, 50, 12.0, 1.4, 1.2, 0.3, RngStream.from_seed(11))
        assert np.array_equal(a.data, b.data)


class TestRainFog:
    def test_no_rain_equals_fog(self, rgb16):
        depth = DepthMap(np.full((16, 16), 0.5))
        a = corrupt_rain_fog(rgb16, 0, 10, 1.3, 1.0, 0.3, depth, 0.6, 1.0,
                             RngStream.from_seed(0))
        b = corrupt_fog(rgb16, depth, 0.6, 1.0)
        assert np.array_equal(a.data, b.data)

    def test_no_fog_equals_rain(self, rgb16):
        depth = DepthMap(np.full((16, 16), 0.5))
        a = corrupt_rain_fog(rgb16, 5, 10, 1.3, 1.0, 0.3, depth, 0.6, 0.0,
                             RngStream.from_seed(3))
        b = corrupt_rain(rgb16, 5, 10, 1.3, 1.0, 0.3, RngStream.from_seed(3))
        assert np.allclose(a.data, b.data, atol=1e-12)

    def test_hand_composition(self):
        # rain first, then attenuation: y = 0.5*(0.2 + s) + 0.3
        x = _const(16, 16, 0.2)
        depth = DepthMap(np.full((16, 16), math.log(2.0)))
        rng = RngStream.from_seed(21)
        rainy = corrupt_rain(x, 3, 8.0, 1.2, 1.0, 0.4, RngStream.from_seed(21))
        out = corrupt_rain_fog(x, 3, 8.0, 1.2, 1.0, 0.4, depth, 0.6, 1.0, rng)
        expected = 0.5 * rainy.data + 0.6 * 0.5
        assert np.allclose(out.data, expected, atol=1e-12)


class TestSnow:
    def test_zero_mask_identity(self, rgb16):
        out = corrupt_snow(rgb16, np.zeros((16, 16)), 0.9)
        assert np.allclose(out.data, rgb16.data, atol=1e-15)

    def test_full_mask(self, rgb16):
        out = corrupt_snow(rgb16, np.ones((16, 16)), 0.9)
        assert np.allclose(out.data, 0.9, atol=1e-15)

    def test_half_mask_hand_value(self):
        out = corrupt_snow(_const(4, 4, 0.2), np.full((4, 4), 0.5), 1.0)
        assert np.allclose(out.data, 0.6, atol=1e-15)

    def test_procedural_mask_range(self):
        z = snow_mask(32, 32, RngStream.from_seed(5))
        assert z.shape == (32, 32)
        assert z.min() >= 0.0 and z.max() <= 1.0 and z.max() > 0.0


class TestMotionBlur:
    def test_length_one_identity(self, rgb16):
        out = corrupt_motion_blur(rgb16, 1.0, 0.7)
        assert np.allclose(out.data, rgb16.data, atol=1e-12)

    def test_constant_unchanged(self):
        x = _const(12, 12, 0.42)
        out = corrupt_motion_blur(x, 9.0, 0.3)
        assert np.allclose(out.data, 0.42, atol=1e-12)

    def test_horizontal_psf_is_uniform_line(self):
        taps = motion_blur_psf(9.0, 0.0)
        c = taps.shape[0] // 2
        row = taps[c]
        nz = row[row > 0]
        assert len(nz) == 9
        assert np.allclose(nz, 1.0 / 9.0, atol=1e-12)
        assert np.allclose(np.delete(taps, c, axis=0), 0.0, atol=0)

    def test_step_edge_becomes_ramp(self):
        # 1-D oracle: uniform 9-tap kernel on a unit step gives a linear ramp
        w = 32
        data = np.zeros((8, w, 3))
        data[:, w // 2:, :] = 1.0
        out = corrupt_motion_blur(LinearRgbImage(data), 9.0, 0.0)
        step = np.zeros(w + 16)
        step[8 + w // 2:] = 1.0
        ref = np.convolve(step, np.full(9, 1.0 / 9.0), mode="same")[8:8 + w]
        assert np.allclose(out.data[4, :, 0], ref, atol=1e-12)
        interior = np.diff(out.data[0, w // 2 - 4:w // 2 + 4, 0])
        assert np.allclose(interior, 1.0 / 9.0, atol=1e-12)


class TestDefocusBlur:
    def test_radius_zero_identity(self, rgb16):
        out = corrupt_defocus_blur(rgb16, 0.0)
        assert np.allclose(out.data, rgb16.data, atol=1e-12)

    def test_constant_unchanged(self):
        out = corrupt_defocus_blur(_const(10, 10, 0.31), 3.0)
        assert np.allclose(out.data, 0.31, atol=1e-12)

    def test_impulse_gives_equal_disk(self):
        # oracle: count lattice points inside the disk
        radius = 3.0
        taps = defocus_psf(radius)
        count = sum(1 for y in range(-3, 4) for x in range(-3, 4)
                    if x * x + y * y <= radius * radius + 1e-12)
        nz = taps[taps > 0]
        assert len(nz) == count
        assert np.allclose(nz, 1.0 / count, atol=1e-15)
        data = np.zeros((15, 15, 3))
        data[7, 7, :] = 1.0
        out = corrupt_defocus_blur(LinearRgbImage(data), radius)
        got = out.data[..., 0]
        assert np.allclose(np.sort(got[got > 0]), np.sort(nz), atol=1e-12)

    def test_mean_preserved_interior(self):
        rgb = random_rgb(40, 40, seed=8)
        out = corrupt_defocus_blur(rgb, 3.0)
        inner = slice(8, -8)
        blurred_twice = corrupt_defocus_blur(out, 0.0)
        assert abs(out.data[inner, inner].mean()
                   - rgb.data[inner, inner].mean()) < 2e-2
        assert np.array_equal(out.data, blurred_twice.data)


class TestSensorNoise:
    @pytest.mark.parametrize("delta_r", [1e155, 1e200, 10**200])
    def test_read_noise_whose_square_overflows_is_invalid(self, delta_r):
        # delta_r**2 raised OverflowError in the noise draw
        with pytest.raises(ParameterError, match="delta_r"):
            NoiseModel(delta_r, 0.0)
        NoiseModel(1e154, 0.0)  # its square is still a float

    def test_quantization_bound(self):
        x = _const(64, 64, 0.5)
        out = corrupt_sensor_noise(x, ZERO_NOISE, 12, RngStream.from_seed(3))
        bound = 1.0 / 2 ** 13  # half an LSB at 12 bits = 1/8192
        assert np.abs(out.data - 0.5).max() <= bound

    def test_read_noise_std(self):
        x = _const(256, 256, 0.5)
        out = corrupt_sensor_noise(x, NoiseModel(0.01, 0.0), 12,
                                   RngStream.from_seed(4))
        residual = out.data - x.data
        assert residual.size >= 65536
        assert abs(residual.std() - 0.01) < 0.001

    def test_shot_noise_variance(self):
        x = _const(256, 256, 0.4)
        out = corrupt_sensor_noise(x, NoiseModel(0.01, 0.02), 12,
                                   RngStream.from_seed(5))
        var = (out.data - x.data).var()
        model = 0.01 ** 2 + 0.02 * 0.4
        assert abs(var - model) < 0.1 * model


class TestCmosDamage:
    def test_no_damage_identity(self, rgb16):
        out = corrupt_cmos_damage(rgb16, 0, 0.0, 1.0, RngStream.from_seed(0))
        assert np.array_equal(out.data, rgb16.data)

    def test_all_rows_dead(self, rgb16):
        out = corrupt_cmos_damage(rgb16, 16, 0.0, 1.0, RngStream.from_seed(1))
        assert np.all(out.data == 0.0)

    def test_hot_pixel_count_binomial(self):
        x = _const(256, 256, 0.2)
        out = corrupt_cmos_damage(x, 0, 0.01, 1.0, RngStream.from_seed(2))
        hot = int(np.sum(out.data[..., 0] == 1.0))
        expect = 256 * 256 * 0.01
        assert abs(hot - expect) <= 3.0 * math.sqrt(expect * 0.99)

    def test_too_many_rows(self, rgb16):
        with pytest.raises(ParameterError):
            corrupt_cmos_damage(rgb16, 17, 0.0, 1.0, RngStream.from_seed(0))


class TestMoire:
    def test_alpha_zero_identity(self, rgb16):
        out = corrupt_moire(rgb16, 0.2, 0.4, 0.0)
        assert np.allclose(out.data, rgb16.data, atol=1e-12)

    def test_blend_endpoints(self):
        # frequency 0.25, angle 0: col 1 has p=1 (unchanged), col 3 has p=0
        x = _const(4, 8, 0.8)
        out = corrupt_moire(x, 0.25, 0.0, 1.0)
        assert np.allclose(out.data[:, 1, :], 0.8, atol=1e-12)
        assert np.allclose(out.data[:, 3, :], 0.0, atol=1e-12)

    def test_mean_ratio_half_alpha(self):
        x = _const(64, 64, 0.5)
        for alpha in (0.3, 0.8):
            out = corrupt_moire(x, 0.23, 0.0, alpha)
            ratio = out.data.mean() / 0.5
            assert abs(ratio - (1 - alpha / 2)) < 0.01


class TestVignetting:
    def test_strength_zero_identity(self, rgb16):
        out = corrupt_vignetting(rgb16, 0.0, 0.4)
        assert np.allclose(out.data, rgb16.data, atol=1e-12)

    def test_center_pixel_unchanged(self):
        x = _const(9, 9, 0.6)
        out = corrupt_vignetting(x, 1.0, 0.3)
        assert out.data[4, 4, 0] == pytest.approx(0.6, abs=1e-12)

    def test_corner_at_two_sigma(self):
        # sigma = r_corner/2 puts the corner at r = 2*sigma: gain = exp(-2)
        h = w = 9
        x = _const(h, w, 1.0)
        sigma_frac = 0.5 * math.hypot(4, 4) / math.hypot(9, 9)
        out = corrupt_vignetting(x, 1.0, sigma_frac)
        assert out.data[0, 0, 0] == pytest.approx(math.exp(-2.0), abs=1e-12)
        assert math.exp(-2.0) == pytest.approx(0.1353, abs=5e-5)


class TestChromaticAberration:
    def test_zero_distortion_identity(self, rgb16):
        out = corrupt_chromatic_aberration(rgb16, 0.0, 0.0, 0.0)
        assert np.allclose(out.data, rgb16.data, atol=1e-6)

    def test_constant_unchanged(self):
        out = corrupt_chromatic_aberration(_const(12, 12, 0.47), 0.05, 0.02, -0.03)
        assert np.allclose(out.data, 0.47, atol=1e-9)

    def test_red_centroid_moves_outward(self):
        # white dot off-center: red centroid displaced radially, G/B unmoved
        h = w = 41
        data = np.zeros((h, w, 3))
        data[20, 30, :] = 1.0
        data[19:22, 29:32, :] = 1.0
        out = corrupt_chromatic_aberration(LinearRgbImage(data), 0.05, 0.0, 0.0)

        def centroid(plane):
            ys, xs = np.mgrid[0:h, 0:w]
            total = plane.sum()
            return float((ys * plane).sum() / total), float((xs * plane).sum() / total)

        cy0, cx0 = centroid(data[..., 0])
        cy_r, cx_r = centroid(out.data[..., 0])
        center = ((h - 1) / 2.0, (w - 1) / 2.0)
        r_before = math.hypot(cy0 - center[0], cx0 - center[1])
        r_after = math.hypot(cy_r - center[0], cx_r - center[1])
        assert r_after > r_before + 0.05
        assert np.allclose(out.data[..., 1], data[..., 1], atol=1e-9)
        assert np.allclose(out.data[..., 2], data[..., 2], atol=1e-9)


class TestSensorMatrix:
    def test_identity(self, rgb16):
        out = apply_sensor_matrix(rgb16, np.eye(3))
        assert np.array_equal(out.data, rgb16.data)

    def test_diagonal_scaling(self, rgb16):
        out = apply_sensor_matrix(rgb16, np.diag([1.1, 1.0, 0.9]))
        assert np.allclose(out.data[..., 0], 1.1 * rgb16.data[..., 0], atol=1e-15)
        assert np.allclose(out.data[..., 2], 0.9 * rgb16.data[..., 2], atol=1e-15)

    def test_composition_matches_product(self, rgb16):
        a = np.array([[0.9, 0.05, 0.05], [0.1, 0.8, 0.1], [0.0, 0.1, 0.9]])
        b = np.array([[1.1, 0.0, 0.0], [0.05, 0.9, 0.05], [0.0, 0.0, 1.05]])
        once = apply_sensor_matrix(rgb16, a @ b)
        twice = apply_sensor_matrix(apply_sensor_matrix(rgb16, a), b)
        assert np.allclose(once.data, twice.data, atol=1e-9)


class TestDispatcher:
    def test_low_light_deterministic(self):
        x = _structured(32, 32)
        spec = CorruptionSpec(kind="low_light", seed=99)
        a = apply_corruption(spec, x)
        b = apply_corruption(spec, x)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5, "7"])
    def test_seed_outside_the_rule_is_rejected(self, seed):
        # 2**64 would replay seed 0's output and True seed 1's
        with pytest.raises(ParameterError, match="2\\^64"):
            CorruptionSpec(kind="sensor_noise", seed=seed)

    def test_numpy_seed_gives_the_int_seed_output(self):
        x = _structured(16, 16)
        outs = [apply_corruption(CorruptionSpec(kind="sensor_noise", seed=s), x)
                for s in (np.int64(4), 4)]
        assert np.array_equal(outs[0].data, outs[1].data)

    @pytest.mark.parametrize("kind", ["fog", "rain_fog"])
    def test_depth_kind_without_depth_uses_procedural_fallback(self, kind):
        x = _structured(12, 8)
        spec = CorruptionSpec(kind=kind, seed=1)
        fallback = apply_corruption(spec, x, depth=procedural_depth(12, 8, seed=1))
        assert np.array_equal(apply_corruption(spec, x).data, fallback.data)

    def test_flare_uses_procedural_fallback(self):
        x = _structured(24, 24)
        out = apply_corruption(CorruptionSpec(kind="flare", seed=5), x)
        assert np.any(out.data != x.data)

    def test_param_override_pins_value(self):
        x = _structured(16, 16)
        spec = CorruptionSpec(kind="low_light", seed=3,
                              params={"l": 0.25, "delta_r": 0.0, "delta_s": 0.0})
        out = apply_corruption(spec, x)
        assert np.allclose(out.data, 0.25 * x.data, atol=1e-12)

    def test_unknown_param_rejected(self):
        x = _structured(8, 8)
        with pytest.raises(ParameterError):
            apply_corruption(CorruptionSpec(kind="low_light", seed=3,
                                            params={"bogus": 1}), x)

    def test_all_17_kinds_distinct(self):
        x = _structured(64, 64)
        depth = procedural_depth(64, 64, seed=123)
        hashes = set()
        for kind in KINDS:
            out = apply_corruption(CorruptionSpec(kind=kind, seed=2024), x,
                                   depth=depth)
            hashes.add(hashlib.sha256(out.data.tobytes()).hexdigest())
        assert len(hashes) == len(KINDS) == 17

    def test_seed_changes_output(self):
        x = _structured(24, 24)
        a = apply_corruption(CorruptionSpec(kind="low_light", seed=1), x)
        b = apply_corruption(CorruptionSpec(kind="low_light", seed=2), x)
        assert not np.array_equal(a.data, b.data)


class TestBayerWrapper:
    def test_sensor_noise_on_mosaic(self):
        bay = random_bayer(16, 16, seed=4)
        out = corrupt_bayer(CorruptionSpec(kind="sensor_noise", seed=7), bay)
        assert out.data.shape == bay.data.shape
        assert not np.array_equal(out.data, bay.data)
        again = corrupt_bayer(CorruptionSpec(kind="sensor_noise", seed=7), bay)
        assert np.array_equal(out.data, again.data)

    def test_cmos_damage_on_mosaic(self):
        bay = random_bayer(16, 16, seed=4)
        out = corrupt_bayer(CorruptionSpec(kind="cmos_damage", seed=8,
                                           params={"dead_rows": 2,
                                                   "hot_pixel_rate": 0.0}), bay)
        dead = np.where(np.all(out.data == 0.0, axis=1))[0]
        assert len(dead) >= 2

    def test_other_kinds_rejected(self):
        bay = random_bayer(8, 8, seed=1)
        with pytest.raises(ParameterError):
            corrupt_bayer(CorruptionSpec(kind="fog", seed=1), bay)

    @pytest.mark.parametrize("kind, params", [
        ("cmos_damage", {"dead_rows": 17}),
        ("cmos_damage", {"dead_rows": 99}),
        ("cmos_damage", {"hot_pixel_rate": -0.5}),
        ("cmos_damage", {"hot_pixel_rate": 1.5}),
        ("sensor_noise", {"bits": 0}),
        ("sensor_noise", {"bits": -3}),
    ])
    def test_mosaic_checks_match_the_rgb_path(self, kind, params):
        # the mosaic variant runs the same checked body as the RGB function
        bay = random_bayer(16, 16, seed=4)
        spec = CorruptionSpec(kind=kind, seed=8, params=params)
        with pytest.raises(ParameterError):
            corrupt_bayer(spec, bay)
        with pytest.raises(ParameterError):
            apply_corruption(spec, LinearRgbImage(np.zeros((16, 16, 3))))

    def test_mosaic_and_rgb_share_one_body(self):
        # an (H, W) mosaic gets what each channel of an (H, W, 3) image gets
        bay = random_bayer(16, 16, seed=4)
        rgb = LinearRgbImage(np.repeat(bay.data[..., None], 3, axis=-1))
        spec = CorruptionSpec(kind="cmos_damage", seed=8,
                              params={"dead_rows": 3, "hot_pixel_rate": 0.05})
        mosaic = corrupt_bayer(spec, bay).data
        channels = np.clip(apply_corruption(spec, rgb).data, 0.0, 1.0)
        for c in range(3):
            assert np.array_equal(mosaic, channels[..., c])


class TestProceduralSideInputs:
    def test_depth_deterministic_and_positive(self):
        a = procedural_depth(32, 32, seed=5)
        b = procedural_depth(32, 32, seed=5)
        assert np.array_equal(a.data, b.data)
        assert a.data.min() >= 0.0 and a.data.max() <= 1.0

    def test_flare_deterministic_nonnegative(self):
        a = procedural_flare(32, 32, seed=9)
        b = procedural_flare(32, 32, seed=9)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() > 0.1
