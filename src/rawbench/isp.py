"""Parametric ISP stages: gain + anisotropic Gaussian denoise with a sharpen
blend, Shades-of-Gray white balance with an adaptive Minkowski exponent,
color correction matrix, a residual implicit-MLP color LUT, and the
query-attention forward pass that predicts stage parameters.

Stage naming follows the processing order: the mosaic develops through
demosaic -> gain/denoise/sharpen -> white balance -> CCM -> LUT.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError
from .raw import BayerImage, LinearRgbImage, demosaic_bilinear, spatial_filter

NILUT_HIDDEN_WIDTH = 32
NILUT_LAYER_DIMS = (3, 32, 32, 32, 3)
# Pixels per NILUT block: keeps the 32-wide activations cache-resident
# instead of materializing several (H*W, 32) arrays.
NILUT_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class Kernel2D:
    """Normalized square convolution kernel with odd size."""

    taps: np.ndarray

    def __post_init__(self):
        t = self.taps
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ParameterError("kernel must be square")
        if t.shape[0] % 2 == 0:
            raise ParameterError("kernel size must be odd")
        if not np.all(np.isfinite(t)):
            raise ParameterError("kernel taps must be finite")
        if abs(float(t.sum()) - 1.0) > 1e-9:
            raise ParameterError("kernel taps must sum to 1")

    @property
    def size(self) -> int:
        return self.taps.shape[0]

    @classmethod
    def identity(cls) -> "Kernel2D":
        return cls(np.ones((1, 1)))


def make_gaussian_kernel(r1: float, r2: float, theta: float, size: int) -> Kernel2D:
    """Anisotropic Gaussian: taps ~ exp(-(b0 x^2 + 2 b1 x y + b2 y^2)),
    normalized to sum 1. r1 is the major-axis radius, r2 the minor-axis.
    """
    if not all(math.isfinite(v) for v in (r1, r2, theta)):
        raise ParameterError("kernel parameters must be finite")
    if r1 <= 0 or r2 <= 0:
        raise ParameterError("kernel radii must be positive")
    if size < 1 or size % 2 == 0:
        raise ParameterError("kernel size must be odd and >= 1")
    b0, b1, b2 = gaussian_coefficients(r1, r2, theta)
    half = (size - 1) // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    x, y = np.meshgrid(coords, coords)  # x: column offset, y: row offset
    taps = np.exp(-(b0 * x * x + 2.0 * b1 * x * y + b2 * y * y))
    return Kernel2D(taps / taps.sum())


def gaussian_coefficients(r1: float, r2: float, theta: float):
    """Quadratic-form coefficients of the rotated anisotropic Gaussian."""
    b0 = math.cos(theta) ** 2 / (2.0 * r1 * r1) + math.sin(theta) ** 2 / (2.0 * r2 * r2)
    b1 = math.sin(2.0 * theta) / (4.0 * r1 * r1) * ((r1 / r2) ** 2 - 1.0)
    b2 = math.sin(theta) ** 2 / (2.0 * r1 * r1) + math.cos(theta) ** 2 / (2.0 * r2 * r2)
    return b0, b1, b2


def default_kernel_size(r1: float, r2: float, cap: int = 21) -> int:
    """Support rule: 2*ceil(2*max(r1, r2)) + 1, capped."""
    return min(2 * math.ceil(2.0 * max(r1, r2)) + 1, cap)


@dataclass(frozen=True)
class NilutWeights:
    """Residual per-pixel MLP mapping RGB -> RGB, dims 3->32->32->32->3.

    With an all-zero final layer the map is the identity.
    """

    layers: tuple  # of (weight (in, out), bias (out,)) pairs
    activation: str = "tanh"
    residual: bool = True

    def __post_init__(self):
        dims = NILUT_LAYER_DIMS
        if len(self.layers) != len(dims) - 1:
            raise ParameterError(f"expected {len(dims) - 1} layers")
        for i, (w, b) in enumerate(self.layers):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise ParameterError(
                    f"layer {i} must map {dims[i]}->{dims[i + 1]}, got {w.shape}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ParameterError(f"layer {i} weights must be finite")
        if self.activation != "tanh":
            raise ParameterError("unsupported activation")
        if not self.residual:
            raise ParameterError("non-residual LUT is not supported")

    @classmethod
    def identity(cls) -> "NilutWeights":
        dims = NILUT_LAYER_DIMS
        layers = tuple(
            (np.zeros((dims[i], dims[i + 1])), np.zeros(dims[i + 1]))
            for i in range(len(dims) - 1)
        )
        return cls(layers=layers)

    def with_output_bias(self, bias3) -> "NilutWeights":
        """Copy with the final-layer bias replaced (low-dim LUT perturbation)."""
        w_last, _ = self.layers[-1]
        layers = self.layers[:-1] + ((w_last, np.asarray(bias3, dtype=np.float64)),)
        return NilutWeights(layers=layers, activation=self.activation)


@dataclass(frozen=True)
class QalWeights:
    """Learnable queries + projections + 2-layer FFN for parameter prediction.

    Produces one scalar per query slot from a set of feature vectors.
    """

    queries: np.ndarray  # (n_q, d_k)
    key_w: np.ndarray    # (d_feat, d_k)
    key_b: np.ndarray    # (d_k,)
    value_w: np.ndarray  # (d_feat, d_k)
    value_b: np.ndarray  # (d_k,)
    ffn_w1: np.ndarray   # (d_k, d_k)
    ffn_b1: np.ndarray   # (d_k,)
    ffn_w2: np.ndarray   # (d_k, 1)
    ffn_b2: np.ndarray   # (1,)

    def __post_init__(self):
        d_k = self.queries.shape[1]
        if self.key_w.shape[1] != d_k or self.value_w.shape[1] != d_k:
            raise ParameterError("projection output width must equal d_k")
        if self.key_w.shape != self.value_w.shape:
            raise ParameterError("key and value projections must share input dim")
        if self.ffn_w1.shape != (d_k, d_k) or self.ffn_w2.shape != (d_k, 1):
            raise ParameterError("FFN dims must be d_k -> d_k -> 1")

    @property
    def n_queries(self) -> int:
        return self.queries.shape[0]


@dataclass(frozen=True)
class IspParams:
    """Full parameter vector of the input-side pipeline."""

    g: float
    r1: float
    r2: float
    theta: float
    sigma: float
    rho: float
    ccm: np.ndarray
    lut: NilutWeights = field(default_factory=NilutWeights.identity)

    def __post_init__(self):
        scalars = (self.g, self.r1, self.r2, self.theta, self.sigma, self.rho)
        if not all(math.isfinite(v) for v in scalars):
            raise ParameterError("ISP parameters must be finite")
        if self.g < 0:
            raise ParameterError("gain must be >= 0")
        if self.r1 <= 0 or self.r2 <= 0:
            raise ParameterError("kernel radii must be positive")
        if not 0.0 < self.sigma < 1.0:
            raise ParameterError("sigma must lie strictly inside (0, 1)")
        if self.rho < 1.0:
            raise ParameterError("rho must be >= 1")
        if self.ccm.shape != (3, 3) or not np.all(np.isfinite(self.ccm)):
            raise ParameterError("ccm must be a finite 3x3 matrix")

    @classmethod
    def identity(cls) -> "IspParams":
        return constrain_params(np.zeros(RAW_PARAM_LEN), mode="normal")


def gain_denoise_sharpen(img: LinearRgbImage, g: float, kernel: Kernel2D,
                         sigma: float) -> LinearRgbImage:
    """blurred = (g*I) (*) k per channel; out = blurred + (g*I - blurred)*sigma."""
    if not 0.0 < sigma < 1.0:
        raise ParameterError("sigma must lie strictly inside (0, 1)")
    amplified = g * img.data
    blurred = spatial_filter(amplified, kernel.taps)
    out = amplified - blurred
    out *= sigma
    out += blurred
    return LinearRgbImage(out)


def sog_white_balance(img: LinearRgbImage, rho: float,
                      reciprocal: bool = False):
    """Shades-of-Gray gains: m_i = ||channel i||_rho / ||all channels||_rho,
    then scale each channel by m_i (the literal multiply-by-gain form).

    Channel power means are combined as 3*p_i / (p_r + p_g + p_b), which is
    the same ratio but keeps equal-channel images exact fixed points.
    Negative values are clamped to 0 inside the power only; the scaled output
    uses the unclamped image. Returns (image, (m_r, m_g, m_b)).
    """
    if rho < 1.0:
        raise ParameterError("rho must be >= 1")
    base = np.clip(img.data, 0.0, None)
    # fixed row-major summation order (np.mean pairwise over contiguous data)
    powers = [float(np.mean(base[..., c] ** rho)) for c in range(3)]
    total = (powers[0] + powers[1]) + powers[2]
    if total == 0.0:
        gains = (1.0, 1.0, 1.0)
    else:
        gains = tuple((3.0 * p / total) ** (1.0 / rho) for p in powers)
        if reciprocal:
            gains = tuple(1.0 / m for m in gains)
    out = img.data * np.array(gains)
    return LinearRgbImage(out), gains


def apply_ccm(img: LinearRgbImage, ccm: np.ndarray) -> LinearRgbImage:
    """Per-pixel row-vector times matrix: p -> p @ ccm."""
    ccm = np.asarray(ccm, dtype=np.float64)
    if ccm.shape != (3, 3) or not np.all(np.isfinite(ccm)):
        raise ParameterError("ccm must be a finite 3x3 matrix")
    h, w = img.height, img.width
    out = img.data.reshape(-1, 3) @ ccm
    return LinearRgbImage(out.reshape(h, w, 3))


def nilut_forward(img: LinearRgbImage, weights: NilutWeights) -> LinearRgbImage:
    """Residual per-pixel MLP: out = in + MLP(in).

    An all-zero final weight matrix makes the MLP the constant b_last
    (h @ 0 is a signed zero), so that case is one add. Otherwise the MLP
    runs over blocks of NILUT_BLOCK_ROWS pixels.
    """
    flat = img.data.reshape(-1, 3)
    w_last, b_last = weights.layers[-1]
    if not np.any(w_last):
        out = flat + b_last
    else:
        out = np.empty_like(flat)
        for start in range(0, flat.shape[0], NILUT_BLOCK_ROWS):
            block = flat[start:start + NILUT_BLOCK_ROWS]
            h = block
            for w, b in weights.layers[:-1]:
                h = h @ w
                h += b
                np.tanh(h, out=h)
            correction = h @ w_last
            correction += b_last
            np.add(block, correction, out=out[start:start + NILUT_BLOCK_ROWS])
    return LinearRgbImage(out.reshape(img.height, img.width, 3))


def qal_forward(features: np.ndarray, weights: QalWeights) -> np.ndarray:
    """Scaled dot-product attention of learnable queries over feature keys,
    then a per-query FFN producing one scalar per query slot.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ParameterError("need a non-empty (n, d_feat) feature set")
    if features.shape[1] != weights.key_w.shape[0]:
        raise DimensionError("feature dimension does not match projections")
    k = features @ weights.key_w + weights.key_b       # (n, d_k)
    v = features @ weights.value_w + weights.value_b   # (n, d_k)
    d_k = weights.queries.shape[1]
    scores = weights.queries @ k.T / math.sqrt(d_k)    # (n_q, n)
    scores -= scores.max(axis=1, keepdims=True)
    att = np.exp(scores)
    att /= att.sum(axis=1, keepdims=True)
    ctx = att @ v                                      # (n_q, d_k)
    hidden = np.tanh(ctx @ weights.ffn_w1 + weights.ffn_b1)
    out = hidden @ weights.ffn_w2 + weights.ffn_b2     # (n_q, 1)
    return out.ravel()


# Raw parameter vector layout (predictor output slots):
#   [0] gain bias          g = g_init + raw[0]
#   [1] major-axis bias    r1 = 3 + raw[1], floored at 0.1
#   [2] minor-axis bias    r2 = 2 + raw[2], floored at 0.1
#   [3] kernel angle slot  fixed to 0, value ignored
#   [4] sigma logit        sigma = logistic(raw[4])
#   [5] rho pre-activation rho = 1 + max(0, raw[5])
#   [6:15] ccm biases      ccm = I3 + reshape(raw[6:15], (3, 3))
RAW_PARAM_LEN = 15
THETA_SLOT = 3
GAIN_INIT = {"normal": 1.0, "low_light": 5.0}


def constrain_params(raw: np.ndarray, mode: str = "normal") -> IspParams:
    """Map an unconstrained predictor output vector onto valid ISP parameters."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape != (RAW_PARAM_LEN,):
        raise ParameterError(f"raw parameter vector must have length {RAW_PARAM_LEN}")
    if mode not in GAIN_INIT:
        raise ParameterError("mode must be 'normal' or 'low_light'")
    sigma = 1.0 / (1.0 + math.exp(-float(raw[4])))
    sigma = min(max(sigma, 1e-12), 1.0 - 1e-12)
    return IspParams(
        g=GAIN_INIT[mode] + float(raw[0]),
        r1=max(3.0 + float(raw[1]), 0.1),
        r2=max(2.0 + float(raw[2]), 0.1),
        theta=0.0,
        sigma=sigma,
        rho=1.0 + max(0.0, float(raw[5])),
        ccm=np.eye(3) + raw[6:15].reshape(3, 3),
    )


def develop_linear(rgb: LinearRgbImage, params: IspParams,
                   kernel_size: int | None = None, return_stages: bool = False):
    """Post-demosaic chain: gain/denoise/sharpen -> WB -> CCM -> LUT."""
    if kernel_size is None:
        kernel_size = default_kernel_size(params.r1, params.r2)
    kernel = make_gaussian_kernel(params.r1, params.r2, params.theta, kernel_size)
    i_denoised = gain_denoise_sharpen(rgb, params.g, kernel, params.sigma)
    i_balanced, _ = sog_white_balance(i_denoised, params.rho)
    i_corrected = apply_ccm(i_balanced, params.ccm)
    i_final = nilut_forward(i_corrected, params.lut)
    if return_stages:
        return i_final, {
            "denoised": i_denoised,
            "white_balanced": i_balanced,
            "color_corrected": i_corrected,
        }
    return i_final


def develop(bayer: BayerImage, params: IspParams, kernel_size: int | None = None,
            return_stages: bool = False):
    """Run the full chain from mosaic to the final linear image.

    Returns the final image, or (final, stages) where stages maps
    'demosaiced'/'denoised'/'white_balanced'/'color_corrected' to the
    intermediate images.
    """
    i_demosaic = demosaic_bilinear(bayer)
    if return_stages:
        i_final, stages = develop_linear(i_demosaic, params, kernel_size,
                                         return_stages=True)
        stages = {"demosaiced": i_demosaic, **stages}
        return i_final, stages
    return develop_linear(i_demosaic, params, kernel_size)


def encode_display(img: LinearRgbImage, gamma: float = 2.2) -> np.ndarray:
    """Clamp, apply encoding gamma, quantize to uint8 (half away from zero)."""
    if gamma <= 0:
        raise ParameterError("gamma must be positive")
    v = np.clip(img.data, 0.0, 1.0) ** (1.0 / gamma)
    return np.floor(v * 255.0 + 0.5).astype(np.uint8)
