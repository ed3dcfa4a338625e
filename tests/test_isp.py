import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from rawbench import (CfaPattern, IspParams, Kernel2D, LinearRgbImage,
                      NilutWeights, QalWeights, apply_ccm, constrain_params,
                      demosaic_bilinear, develop, encode_display,
                      gain_denoise_sharpen, make_gaussian_kernel,
                      nilut_forward, qal_forward, sog_white_balance)
from rawbench.errors import ParameterError
from rawbench import isp
from rawbench.isp import RAW_PARAM_LEN, default_kernel_size
from rawbench.rng import RngStream

from conftest import constant_bayer, random_bayer, random_rgb


def _hand_tap(r1, r2, theta, x, y):
    b0 = math.cos(theta) ** 2 / (2 * r1**2) + math.sin(theta) ** 2 / (2 * r2**2)
    b1 = math.sin(2 * theta) / (4 * r1**2) * ((r1 / r2) ** 2 - 1)
    b2 = math.sin(theta) ** 2 / (2 * r1**2) + math.cos(theta) ** 2 / (2 * r2**2)
    return math.exp(-(b0 * x * x + 2 * b1 * x * y + b2 * y * y))


class TestGaussianKernel:
    def test_isotropic_symmetry(self):
        k = make_gaussian_kernel(1.7, 1.7, 0.0, 7)
        assert np.allclose(k.taps, k.taps.T, atol=0)

    def test_center_tap_is_max(self):
        k = make_gaussian_kernel(3, 2, 0.3, 9)
        assert k.taps[4, 4] == k.taps.max()

    def test_known_tap_value(self):
        # r1=3, r2=2, theta=0: pre-normalization tap at (1,0) = exp(-1/18)
        k = make_gaussian_kernel(3.0, 2.0, 0.0, 5)
        c = 2
        ratio = k.taps[c, c + 1] / k.taps[c, c]  # center tap pre-norm = exp(0)
        assert ratio == pytest.approx(math.exp(-1.0 / 18.0), abs=1e-15)
        assert ratio == pytest.approx(0.94596, abs=5e-6)

    def test_pre_normalization_matches_hand_formula(self):
        rng = RngStream.from_seed(77)
        for _ in range(20):
            u = rng.uniforms(3)
            r1 = 0.5 + 3.5 * u[0]
            r2 = 0.3 + 2.5 * u[1]
            theta = math.pi * u[2]
            k = make_gaussian_kernel(r1, r2, theta, 7).taps
            c = 3
            for y in (-2, 0, 1, 3):
                for x in (-3, -1, 0, 2):
                    got = k[c + y, c + x] / k[c, c]
                    assert got == pytest.approx(_hand_tap(r1, r2, theta, x, y),
                                                rel=1e-12)

    @given(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0, math.pi),
           st.sampled_from([1, 3, 5, 9, 21]))
    def test_taps_positive_and_normalized(self, r1, r2, theta, size):
        # strict positivity is only expressible while exp() stays normal;
        # bound the corner exponent below the float64 underflow threshold
        half = (size - 1) // 2
        assume(2 * half * half / min(r1, r2) ** 2 < 700)
        k = make_gaussian_kernel(r1, r2, theta, size)
        assert np.all(k.taps > 0)
        assert abs(k.taps.sum() - 1.0) <= 1e-9

    def test_180_degree_symmetry(self):
        for theta in (0.0, math.pi / 2):
            k = make_gaussian_kernel(2.5, 1.0, theta, 7).taps
            assert np.allclose(k, np.rot90(k, 2), atol=0)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            make_gaussian_kernel(0.0, 1.0, 0.0, 5)
        with pytest.raises(ParameterError):
            make_gaussian_kernel(1.0, 1.0, 0.0, 4)

    def test_default_size_rule(self):
        assert default_kernel_size(3.0, 2.0) == 13
        assert default_kernel_size(0.4, 0.4) == 3
        assert default_kernel_size(9.0, 1.0) == 21  # capped


class TestGainDenoiseSharpen:
    def test_sigma_to_one_is_pure_gain(self, rgb16):
        k = make_gaussian_kernel(2.0, 1.5, 0.0, 7)
        out = gain_denoise_sharpen(rgb16, 1.7, k, 1.0 - 1e-9)
        assert np.allclose(out.data, 1.7 * rgb16.data, atol=1e-6)

    def test_sigma_to_zero_is_pure_blur(self, rgb16):
        from scipy.ndimage import convolve
        k = make_gaussian_kernel(2.0, 1.5, 0.0, 7)
        out = gain_denoise_sharpen(rgb16, 1.7, k, 1e-12)
        blurred = np.stack([convolve(1.7 * rgb16.data[..., c], k.taps,
                                     mode="mirror") for c in range(3)], -1)
        assert np.allclose(out.data, blurred, atol=1e-6)

    def test_identity_kernel_any_sigma(self, rgb16):
        out = gain_denoise_sharpen(rgb16, 2.0, Kernel2D.identity(), 0.37)
        assert np.array_equal(out.data, 2.0 * rgb16.data)

    def test_linear_in_image(self, rgb16):
        k = make_gaussian_kernel(1.5, 1.0, 0.0, 5)
        f1 = gain_denoise_sharpen(rgb16, 1.2, k, 0.6)
        scaled = LinearRgbImage(0.35 * rgb16.data)
        f2 = gain_denoise_sharpen(scaled, 1.2, k, 0.6)
        assert np.allclose(f2.data, 0.35 * f1.data, rtol=1e-12, atol=1e-15)

    def test_sigma_bounds(self, rgb16):
        with pytest.raises(ParameterError):
            gain_denoise_sharpen(rgb16, 1.0, Kernel2D.identity(), 1.0)


class TestSogWhiteBalance:
    def test_gray_image_fixed_point(self):
        plane = RngStream.from_seed(4).uniforms(16).reshape(4, 4)
        img = LinearRgbImage(np.stack([plane, plane, plane], -1))
        for rho in (1.0, 2.0, 6.0):
            out, gains = sog_white_balance(img, rho)
            assert gains == (1.0, 1.0, 1.0)
            assert np.array_equal(out.data, img.data)

    def test_constant_channel_fixture(self):
        # rho=1, R=0.5, G=0.25, B=0.25 -> m=(1.5, 0.75, 0.75)
        img = LinearRgbImage(np.stack([np.full((4, 4), 0.5),
                                       np.full((4, 4), 0.25),
                                       np.full((4, 4), 0.25)], -1))
        out, gains = sog_white_balance(img, 1.0)
        assert gains == (1.5, 0.75, 0.75)
        assert np.all(out.data[..., 0] == 0.75)
        assert np.all(out.data[..., 1] == 0.1875)
        assert np.all(out.data[..., 2] == 0.1875)

    def test_large_rho_equal_maxima(self):
        # per-channel maxima equal -> gains -> 1 as rho grows
        rng = RngStream.from_seed(9)
        data = 0.6 * rng.uniforms(64 * 3).reshape(8, 8, 3)
        data[0, 0, :] = 0.9
        _, gains = sog_white_balance(LinearRgbImage(data), 64.0)
        # brute-force Minkowski means at rho=64
        ref = [float(np.mean(data[..., c] ** 64.0)) ** (1 / 64.0) for c in range(3)]
        glob = float(np.mean(data ** 64.0)) ** (1 / 64.0)
        for m, r in zip(gains, ref):
            assert m == pytest.approx(r / glob, rel=1e-9)
            assert abs(m - 1.0) < 1e-2

    def test_matches_bruteforce_recomputation(self):
        # Eq-form oracle: channel Minkowski mean over global Minkowski mean
        rng = RngStream.from_seed(31)
        data = rng.uniforms(4 * 4 * 3).reshape(4, 4, 3)
        img = LinearRgbImage(data)
        for rho in (1.0, 2.0, 3.5):
            _, gains = sog_white_balance(img, rho)
            ref_ch = [(sum(v ** rho for v in data[..., c].ravel()) / 16.0)
                      for c in range(3)]
            ref_glob = sum(ref_ch) / 3.0
            for m, p in zip(gains, ref_ch):
                assert m == pytest.approx((p / ref_glob) ** (1 / rho), abs=1e-9)

    def test_all_zero_degenerate(self):
        img = LinearRgbImage(np.zeros((4, 4, 3)))
        out, gains = sog_white_balance(img, 2.0)
        assert gains == (1.0, 1.0, 1.0)
        assert np.array_equal(out.data, img.data)

    def test_negative_values_clamped_in_gain_only(self):
        data = np.full((2, 2, 3), 0.5)
        data[0, 0, 0] = -0.25
        out, gains = sog_white_balance(LinearRgbImage(data), 1.0)
        # gains computed from the clamped copy, output scales raw values
        assert out.data[0, 0, 0] == -0.25 * gains[0]

    def test_reciprocal_mode(self):
        img = LinearRgbImage(np.stack([np.full((2, 2), 0.5),
                                       np.full((2, 2), 0.25),
                                       np.full((2, 2), 0.25)], -1))
        _, gains = sog_white_balance(img, 1.0, reciprocal=True)
        assert gains == (1 / 1.5, 1 / 0.75, 1 / 0.75)

    def test_rho_below_one_rejected(self, rgb16):
        with pytest.raises(ParameterError):
            sog_white_balance(rgb16, 0.5)


class TestApplyCcm:
    def test_identity_bit_exact(self, rgb16):
        out = apply_ccm(rgb16, np.eye(3))
        assert np.array_equal(out.data, rgb16.data)

    def test_doubling(self, rgb16):
        out = apply_ccm(rgb16, 2.0 * np.eye(3))
        assert np.array_equal(out.data, 2.0 * rgb16.data)

    def test_permutation_swaps_channels(self, rgb16):
        perm = np.array([[0.0, 0, 1], [0, 1, 0], [1, 0, 0]])
        out = apply_ccm(rgb16, perm)
        assert np.array_equal(out.data[..., 0], rgb16.data[..., 2])
        assert np.array_equal(out.data[..., 2], rgb16.data[..., 0])

    def test_composition(self, rgb16):
        rng = RngStream.from_seed(8)
        a = np.eye(3) + 0.2 * rng.uniforms(9).reshape(3, 3)
        b = np.eye(3) + 0.2 * rng.uniforms(9).reshape(3, 3)
        once = apply_ccm(rgb16, a @ b)
        twice = apply_ccm(apply_ccm(rgb16, a), b)
        assert np.allclose(once.data, twice.data, atol=1e-9)


def _random_nilut(seed, scale=0.4) -> NilutWeights:
    rng = RngStream.from_seed(seed)
    dims = (3, 32, 32, 32, 3)
    layers = []
    for i in range(4):
        w = scale * (rng.uniforms(dims[i] * dims[i + 1]) - 0.5).reshape(
            dims[i], dims[i + 1])
        b = scale * (rng.uniforms(dims[i + 1]) - 0.5)
        layers.append((w, b))
    return NilutWeights(layers=tuple(layers))


class TestNilut:
    def test_zero_final_layer_identity(self, rgb16):
        weights = _random_nilut(5)
        layers = weights.layers[:-1] + ((np.zeros((32, 3)), np.zeros(3)),)
        weights = NilutWeights(layers=layers)
        out = nilut_forward(rgb16, weights)
        assert np.array_equal(out.data, rgb16.data)

    def test_identity_weights(self, rgb16):
        out = nilut_forward(rgb16, NilutWeights.identity())
        assert np.array_equal(out.data, rgb16.data)

    def test_zero_input_odd_activation(self):
        weights = _random_nilut(6)
        # zero all biases: odd activation keeps zero through every layer
        layers = tuple((w, np.zeros_like(b)) for w, b in weights.layers)
        weights = NilutWeights(layers=layers)
        img = LinearRgbImage(np.zeros((2, 2, 3)))
        assert np.array_equal(nilut_forward(img, weights).data, img.data)

    def test_random_weights_against_layer_oracle(self):
        weights = _random_nilut(42)
        pixel = np.array([0.3, 0.6, 0.1])
        img = LinearRgbImage(pixel.reshape(1, 1, 3))
        got = nilut_forward(img, weights).data[0, 0]
        # independent per-layer matmul with scalar loops
        h = list(pixel)
        for li, (w, b) in enumerate(weights.layers):
            nxt = []
            for j in range(w.shape[1]):
                acc = b[j]
                for i in range(w.shape[0]):
                    acc += h[i] * w[i, j]
                nxt.append(math.tanh(acc) if li < 3 else acc)
            h = nxt
        expected = [pixel[i] + h[i] for i in range(3)]
        assert got == pytest.approx(expected, abs=1e-6)

    def test_dimension_validation(self):
        with pytest.raises(ParameterError):
            NilutWeights(layers=((np.zeros((3, 16)), np.zeros(16)),) * 4)

    def test_blocked_matches_one_shot(self):
        # 67*67 = 4489 pixels: one full block and a partial one
        assert (67 * 67) % isp.NILUT_BLOCK_ROWS != 0
        img = random_rgb(67, 67, seed=13)
        weights = _random_nilut(8, scale=1.5)
        got = nilut_forward(img, weights).data
        assert np.allclose(got, _nilut_one_shot(img, weights),
                           rtol=0, atol=1e-12)

    def test_many_small_blocks(self, rgb16, monkeypatch):
        weights = _random_nilut(9, scale=1.5)
        whole = nilut_forward(rgb16, weights).data
        monkeypatch.setattr(isp, "NILUT_BLOCK_ROWS", 7)
        assert np.allclose(nilut_forward(rgb16, weights).data, whole,
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bias", [(0.0, 0.0, 0.0), (0.03, -0.2, 0.11)])
    def test_zero_final_layer_shortcut_is_exact(self, bias):
        img = random_rgb(67, 67, seed=14)
        weights = _random_nilut(10, scale=1.5)
        layers = weights.layers[:-1] + ((np.zeros((32, 3)), np.array(bias)),)
        weights = NilutWeights(layers=layers)
        got = nilut_forward(img, weights).data
        assert np.array_equal(got, _nilut_one_shot(img, weights))


def _nilut_one_shot(img, weights):
    """The unblocked MLP over all pixels at once."""
    flat = img.data.reshape(-1, 3)
    h = flat
    for w, b in weights.layers[:-1]:
        h = np.tanh(h @ w + b)
    w_last, b_last = weights.layers[-1]
    return (flat + (h @ w_last + b_last)).reshape(img.data.shape)


def _tiny_qal():
    return QalWeights(
        queries=np.array([[1.0, 2.0], [-1.0, 0.5]]),
        key_w=np.eye(2), key_b=np.zeros(2),
        value_w=np.eye(2), value_b=np.array([0.1, -0.2]),
        ffn_w1=np.array([[0.5, -0.3], [0.2, 0.7]]),
        ffn_b1=np.array([0.01, -0.02]),
        ffn_w2=np.array([[1.5], [-0.4]]),
        ffn_b2=np.array([0.05]),
    )


class TestQalForward:
    def test_single_key_ignores_queries(self):
        w = _tiny_qal()
        feats = np.array([[0.4, -0.7]])
        out = qal_forward(feats, w)
        # softmax over one key is 1 -> both queries see v_1 = f + value_b
        v = feats[0] + np.array([0.1, -0.2])
        h = np.tanh(v @ w.ffn_w1 + w.ffn_b1)
        expected = float((h @ w.ffn_w2 + w.ffn_b2)[0])
        assert out == pytest.approx([expected, expected], abs=1e-12)

    def test_orthogonal_keys_uniform_average(self):
        w = _tiny_qal()
        # keys all zero -> scores zero -> uniform attention over values
        feats = np.array([[0.0, 0.0], [0.0, 0.0]])
        vals = np.array([0.1, -0.2])  # value_b only
        h = np.tanh(vals @ w.ffn_w1 + w.ffn_b1)
        expected = float((h @ w.ffn_w2 + w.ffn_b2)[0])
        out = qal_forward(feats, w)
        assert out == pytest.approx([expected, expected], abs=1e-12)

    def test_two_feature_hand_computation(self):
        w = _tiny_qal()
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = qal_forward(feats, w)
        # scalar re-derivation with plain math ops
        k = [(1.0, 0.0), (0.0, 1.0)]
        v = [(1.1, -0.2), (0.1, 0.8)]
        expected = []
        for q in [(1.0, 2.0), (-1.0, 0.5)]:
            s = [(q[0] * ki[0] + q[1] * ki[1]) / math.sqrt(2) for ki in k]
            mx = max(s)
            e = [math.exp(si - mx) for si in s]
            att = [ei / sum(e) for ei in e]
            ctx = [att[0] * v[0][j] + att[1] * v[1][j] for j in range(2)]
            h = [math.tanh(ctx[0] * w.ffn_w1[0, j] + ctx[1] * w.ffn_w1[1, j]
                           + w.ffn_b1[j]) for j in range(2)]
            expected.append(h[0] * w.ffn_w2[0, 0] + h[1] * w.ffn_w2[1, 0]
                            + w.ffn_b2[0])
        assert out == pytest.approx(expected, abs=1e-9)

    def test_permutation_invariance(self):
        w = _tiny_qal()
        rng = RngStream.from_seed(15)
        feats = rng.uniforms(10).reshape(5, 2)
        out1 = qal_forward(feats, w)
        out2 = qal_forward(feats[::-1], w)
        assert np.allclose(out1, out2, atol=1e-12)

    def test_empty_features_rejected(self):
        with pytest.raises(ParameterError):
            qal_forward(np.zeros((0, 2)), _tiny_qal())


_VALID_PARAMS = dict(g=1.3, r1=2.0, r2=1.5, theta=0.0, sigma=0.35, rho=2.5)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_kernel_taps(self, bad):
        taps = np.full((3, 3), 1.0 / 9.0)
        taps[1, 2] = bad
        with pytest.raises(ParameterError):
            Kernel2D(taps)

    @pytest.mark.parametrize("name", sorted(_VALID_PARAMS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_isp_params(self, name, bad):
        with pytest.raises(ParameterError):
            IspParams(**{**_VALID_PARAMS, name: bad}, ccm=np.eye(3))

    @pytest.mark.parametrize("layer", [0, 3])
    def test_nilut_weights(self, layer):
        layers = list(_random_nilut(4).layers)
        w, b = layers[layer]
        w = w.copy()
        w[0, 0] = math.nan
        layers[layer] = (w, b)
        with pytest.raises(ParameterError):
            NilutWeights(layers=tuple(layers))

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 0.0), (2.0, math.inf, 0.0),
                                      (2.0, 1.0, math.inf)])
    def test_gaussian_kernel(self, args):
        with pytest.raises(ParameterError):
            make_gaussian_kernel(*args, 5)


class TestConstrainParams:
    def test_zero_vector_normal(self):
        p = constrain_params(np.zeros(RAW_PARAM_LEN), mode="normal")
        assert (p.g, p.r1, p.r2, p.sigma, p.rho) == (1.0, 3.0, 2.0, 0.5, 1.0)
        assert p.theta == 0.0
        assert np.array_equal(p.ccm, np.eye(3))

    def test_zero_vector_low_light(self):
        p = constrain_params(np.zeros(RAW_PARAM_LEN), mode="low_light")
        assert p.g == 5.0
        assert (p.r1, p.r2, p.sigma, p.rho) == (3.0, 2.0, 0.5, 1.0)

    def test_rho_relu_floor(self):
        raw = np.zeros(RAW_PARAM_LEN)
        raw[5] = -7.0
        assert constrain_params(raw).rho == 1.0

    def test_theta_slot_ignored(self):
        raw = np.zeros(RAW_PARAM_LEN)
        raw[3] = 2.3
        assert constrain_params(raw).theta == 0.0

    def test_radius_floor(self):
        raw = np.zeros(RAW_PARAM_LEN)
        raw[1], raw[2] = -10.0, -10.0
        p = constrain_params(raw)
        assert p.r1 == 0.1 and p.r2 == 0.1

    def test_sigma_strictly_inside(self):
        raw = np.zeros(RAW_PARAM_LEN)
        raw[4] = 80.0
        assert 0.0 < constrain_params(raw).sigma < 1.0

    def test_wrong_length(self):
        with pytest.raises(ParameterError):
            constrain_params(np.zeros(14))


class TestDevelop:
    def test_identity_chain_on_constant(self):
        bay = constant_bayer(8, 8, 0.31)
        params = IspParams(g=1.0, r1=0.2, r2=0.2, theta=0.0, sigma=0.5,
                           rho=2.0, ccm=np.eye(3))
        out = develop(bay, params, kernel_size=1)
        assert np.array_equal(out.data, demosaic_bilinear(bay).data)

    def test_gain_two_on_constant(self):
        bay = constant_bayer(8, 8, 0.25)
        params = IspParams(g=2.0, r1=0.2, r2=0.2, theta=0.0, sigma=0.5,
                           rho=1.0, ccm=np.eye(3))
        out = develop(bay, params, kernel_size=1)
        assert np.allclose(out.data, 0.5, atol=1e-12)

    def test_deterministic(self, bayer16):
        params = IspParams(g=1.3, r1=2.0, r2=1.5, theta=0.0, sigma=0.35,
                           rho=2.5, ccm=np.eye(3) + 0.05)
        a = develop(bayer16, params, kernel_size=7)
        b = develop(bayer16, params, kernel_size=7)
        assert np.array_equal(a.data, b.data)

    def test_stage_outputs_consistent(self, bayer16):
        params = IspParams(g=1.3, r1=2.0, r2=1.5, theta=0.0, sigma=0.35,
                           rho=2.5, ccm=np.eye(3) + 0.05, lut=_random_nilut(3))
        final, stages = develop(bayer16, params, kernel_size=7,
                                return_stages=True)
        assert np.array_equal(stages["demosaiced"].data,
                              demosaic_bilinear(bayer16).data)
        redo = nilut_forward(stages["color_corrected"], params.lut)
        assert np.array_equal(final.data, redo.data)

    def test_gain_sensitivity_positive(self, bayer16):
        def mean_out(g):
            params = IspParams(g=g, r1=2.0, r2=1.5, theta=0.0, sigma=0.5,
                               rho=2.0, ccm=np.eye(3))
            return float(develop(bayer16, params, kernel_size=7).data.mean())

        h = 1e-3
        derivative = (mean_out(1.0 + h) - mean_out(1.0 - h)) / (2 * h)
        assert derivative > 0


class TestEncodeDisplay:
    def test_endpoints(self):
        img = LinearRgbImage(np.array([[[0.0, 1.0, 0.0]]]).astype(float))
        out = encode_display(img, gamma=2.2)
        assert out[0, 0, 0] == 0 and out[0, 0, 1] == 255

    def test_round_half_away(self):
        img = LinearRgbImage(np.full((1, 1, 3), 0.5))
        assert encode_display(img, gamma=1.0)[0, 0, 0] == 128

    def test_gamma_22(self):
        img = LinearRgbImage(np.full((1, 1, 3), 0.5))
        expected = math.floor(255 * 0.5 ** (1 / 2.2) + 0.5)
        assert encode_display(img, gamma=2.2)[0, 0, 0] == expected == 186

    def test_clamps_out_of_range(self):
        img = LinearRgbImage(np.array([[[-0.5, 1.5, 0.2]]]))
        out = encode_display(img, gamma=1.0)
        assert out[0, 0, 0] == 0 and out[0, 0, 1] == 255
