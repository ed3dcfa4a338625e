import numpy as np
import pytest

from rawbench import AugmentConfig, TruncatedNormal, augment, augment_pipeline
from rawbench.augment import (BRANCHES, PARAM_KEYS, augment_brightness,
                              augment_chromaticity, augment_quality,
                              sample_branch, sample_quality_params,
                              sample_truncated_normal)
from rawbench.errors import ParameterError
from rawbench.rng import RngStream

from conftest import random_rgb

CONFIG = AugmentConfig()
PIXEL = random_rgb(1, 1, seed=0)  # for drawing a branch's coefficients


def draw_coeffs(branch, rng) -> dict:
    """One sample of a branch's params dict."""
    return BRANCHES[branch][0](PIXEL, CONFIG, rng)[1]


class TestTruncatedNormal:
    def test_samples_within_bounds(self):
        tn = TruncatedNormal(0.2, 0.08, 0.01, 1.0)
        rng = RngStream.from_seed(1)
        vals = [sample_truncated_normal(tn, rng) for _ in range(5000)]
        assert min(vals) >= 0.01 and max(vals) <= 1.0

    def test_dark_component_mean(self):
        tn = TruncatedNormal(0.2, 0.08, 0.01, 1.0)
        rng = RngStream.from_seed(2)
        vals = np.array([sample_truncated_normal(tn, rng) for _ in range(100000)])
        # truncation bias is small 2.4 sigma from the lower bound
        assert 0.19 <= vals.mean() <= 0.22

    def test_bright_component_upper_bound(self):
        tn = TruncatedNormal(3.5, 1.0, 1.0, 5.0)
        rng = RngStream.from_seed(3)
        vals = [sample_truncated_normal(tn, rng) for _ in range(20000)]
        assert max(vals) <= 5.0 and min(vals) >= 1.0

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            TruncatedNormal(0.0, -1.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            TruncatedNormal(0.0, 1.0, 2.0, 1.0)

    @pytest.mark.parametrize("params", [(100, 0.01, 0, 1), (0.0, 1.0, 3.0, 3.2),
                                        (0.0, 1.0, -9.0, -5.0)])
    def test_low_mass_is_rejected(self, params):
        # rejection sampling would draw 1/mass normals per value on average
        with pytest.raises(ParameterError, match="mass"):
            TruncatedNormal(*params)

    def test_mass_just_above_the_floor_is_accepted(self):
        tn = TruncatedNormal(0.0, 1.0, 3.0, 4.0)  # mass 1.3e-3
        rng = RngStream.from_seed(4)
        vals = [sample_truncated_normal(tn, rng) for _ in range(5)]
        assert min(vals) >= 3.0 and max(vals) <= 4.0
        assert AugmentConfig() == CONFIG  # the default components still pass


class TestBrightness:
    def test_scaling(self):
        rgb = random_rgb(8, 8, seed=4)
        out, p = augment_brightness(rgb, CONFIG, RngStream.from_seed(5))
        assert np.array_equal(out.data, p["omega"] * rgb.data)

    def test_omega_always_in_paper_range(self):
        rng = RngStream.from_seed(6)
        for _ in range(20000):
            omega = draw_coeffs("brightness", rng)["omega"]
            assert 0.01 <= omega <= 5.0

    def test_mixture_split(self):
        rng = RngStream.from_seed(7)
        # the dark component lies in [0.01, 1], the bright one in [1, 5]
        omegas = [draw_coeffs("brightness", rng)["omega"] for _ in range(10000)]
        frac = sum(omega < 1.0 for omega in omegas) / len(omegas)
        assert abs(frac - 0.5) <= 0.02


class TestChromaticity:
    def test_sum_exactly_three(self):
        rng = RngStream.from_seed(8)
        for _ in range(50000):
            p = draw_coeffs("chroma", rng)
            w_r, w_g, w_b = p["omega_r"], p["omega_g"], p["omega_b"]
            assert w_r + w_g + w_b == 3.0
            assert 0.9 <= w_r <= 1.1 and 0.9 <= w_b <= 1.1
            assert 0.8 <= w_g <= 1.2

    def test_unit_coefficients_identity(self):
        rgb = random_rgb(4, 4, seed=9)
        out = rgb.data * np.array([1.0, 1.0, 1.0])
        assert np.array_equal(out, rgb.data)

    def test_channel_scaling(self):
        rgb = random_rgb(8, 8, seed=10)
        out, p = augment_chromaticity(rgb, CONFIG, RngStream.from_seed(11))
        w_r, w_g, w_b = p["omega_r"], p["omega_g"], p["omega_b"]
        assert np.array_equal(out.data[..., 0], w_r * rgb.data[..., 0])
        assert np.array_equal(out.data[..., 1], w_g * rgb.data[..., 1])
        assert np.array_equal(out.data[..., 2], w_b * rgb.data[..., 2])

    @pytest.mark.parametrize("bounds", [(0.9, 1e308), (-1e308, 1.1),
                                        (-1e308, 1e308)])
    def test_gains_beyond_the_float_range_are_invalid(self, bounds):
        # round() of an infinite or NaN gain raised OverflowError/ValueError
        config = AugmentConfig(chroma_lo=bounds[0], chroma_hi=bounds[1])
        with pytest.raises(ParameterError, match="non-finite"):
            for seed in range(20):
                augment_chromaticity(PIXEL, config, RngStream.from_seed(seed))

    def test_mean_luminance_bound(self):
        rgb = random_rgb(16, 16, seed=12, lo=0.1, hi=0.9)
        for seed in range(30):
            out, _ = augment_chromaticity(rgb, CONFIG, RngStream.from_seed(seed))
            ratio = out.data.mean() / rgb.data.mean()
            assert 0.8 <= ratio <= 1.2


class TestQuality:
    def test_param_ranges(self):
        rng = RngStream.from_seed(13)
        saw_iso = saw_aniso = False
        for _ in range(20000):
            p = sample_quality_params(CONFIG, rng)
            assert p["size"] in CONFIG.kernel_sizes
            assert p["size"] % 2 == 1 and 7 <= p["size"] <= 21
            assert 0.0 <= p["awgn_sigma"] <= 0.1
            if p["kind"] == "iso":
                saw_iso = True
                assert 0.1 <= p["r1"] <= 2.4 and p["r1"] == p["r2"]
            else:
                saw_aniso = True
                assert 0.5 <= p["r1"] <= 6.0
                assert p["r2"] <= p["r1"]
                assert 0.0 <= p["angle"] <= np.pi
        assert saw_iso and saw_aniso

    def test_normalized_kernel_constant_fixed_point(self):
        x = random_rgb(12, 12, seed=1, lo=0.5, hi=0.5)
        # pin a zero-noise draw by replaying until sigma is tiny
        for seed in range(200):
            rng = RngStream.from_seed(seed)
            p = sample_quality_params(CONFIG, rng)
            if p["awgn_sigma"] < 1e-3:
                out, _ = augment_quality(x, CONFIG, RngStream.from_seed(seed))
                assert np.allclose(out.data, 0.5, atol=1e-2)
                return
        pytest.fail("no small-noise draw found")

    def test_deterministic(self):
        rgb = random_rgb(10, 10, seed=14)
        a, pa = augment_quality(rgb, CONFIG, RngStream.from_seed(15))
        b, pb = augment_quality(rgb, CONFIG, RngStream.from_seed(15))
        assert pa == pb
        assert np.array_equal(a.data, b.data)

    def test_one_filter_per_sample(self, monkeypatch):
        calls = []
        original = augment.spatial_filter

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(augment, "spatial_filter", counted)
        rgb = random_rgb(16, 16, seed=2)
        for seed in range(5):
            augment_quality(rgb, CONFIG, RngStream.from_seed(seed))
        assert len(calls) == 5


class TestPipeline:
    def test_original_branch_bit_exact(self):
        rgb = random_rgb(8, 8, seed=16)
        for seed in range(100):
            rng = RngStream.from_seed(seed)
            out, branch, _ = augment_pipeline(rgb, CONFIG, rng)
            if branch == "original":
                assert out.data is rgb.data or np.array_equal(out.data, rgb.data)
                return
        pytest.fail("original branch never selected in 100 seeds")

    def test_branch_frequencies(self):
        rng = RngStream.from_seed(17)
        counts = {b: 0 for b in BRANCHES}
        n = 100000
        for _ in range(n):
            counts[sample_branch(CONFIG, rng)] += 1
        for b in BRANCHES:
            assert abs(counts[b] / n - 0.25) <= 0.01

    def test_replay_identical(self):
        rgb = random_rgb(8, 8, seed=18)
        seq_a, seq_b = [], []
        for i in range(20):
            out_a, br_a, _ = augment_pipeline(rgb, CONFIG,
                                              RngStream.from_seed(50, i))
            out_b, br_b, _ = augment_pipeline(rgb, CONFIG,
                                              RngStream.from_seed(50, i))
            seq_a.append(br_a)
            seq_b.append(br_b)
            assert np.array_equal(out_a.data, out_b.data)
        assert seq_a == seq_b

    def test_param_keys_cover_every_branch(self):
        rgb = random_rgb(8, 8, seed=19)
        keys = {branch: set() for branch in BRANCHES}
        for seed in range(40):
            _, branch, params = augment_pipeline(rgb, CONFIG, RngStream.from_seed(seed))
            keys[branch] |= set(params)
        assert all(keys[branch] for branch in list(BRANCHES)[1:])  # each one drawn
        assert set().union(*keys.values()) == set(PARAM_KEYS)

    def test_each_branch_returns_its_table_keys(self):
        for branch, (_, keys) in BRANCHES.items():
            assert tuple(draw_coeffs(branch, RngStream.from_seed(20))) == keys
        # the coefficients.csv columns
        assert PARAM_KEYS == ("omega", "omega_r", "omega_g", "omega_b", "kind",
                              "size", "angle", "r1", "r2", "awgn_sigma")

    def test_branches_follow_the_config_probabilities(self):
        rgb = random_rgb(8, 8, seed=21)
        for branch in BRANCHES:
            only = {f"prob_{name}": float(name == branch) for name in BRANCHES}
            _, taken, _ = augment_pipeline(rgb, AugmentConfig(**only),
                                           RngStream.from_seed(22))
            assert taken == branch

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            AugmentConfig(prob_original=0.5, prob_brightness=0.5,
                          prob_chroma=0.5, prob_quality=0.5)
