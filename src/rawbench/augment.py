"""Training-time augmentation sampler for linear demosaiced Raw-RGB:
brightness (mixture of truncated Gaussians), chromaticity (per-channel gains
constrained to sum to 3), quality degradation (iso/aniso Gaussian blur plus
AWGN), selected with probability 0.25 each alongside the untouched original.

Chromaticity gains are quantized to a dyadic grid (2^-26) so the sum-to-3
constraint holds exactly in floating point, not just approximately.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .raw import LinearRgbImage, spatial_filter
from .isp import make_gaussian_kernel
from .rng import RngStream

_GRID = float(1 << 26)


@dataclass(frozen=True)
class TruncatedNormal:
    """Gaussian restricted to [lo, hi] by rejection."""

    mu: float
    sigma: float
    lo: float
    hi: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ParameterError("sigma must be positive")
        if self.lo >= self.hi:
            raise ParameterError("lo must be below hi")


@dataclass(frozen=True)
class AugmentConfig:
    prob_original: float = 0.25
    prob_brightness: float = 0.25
    prob_chroma: float = 0.25
    prob_quality: float = 0.25
    brightness_dark: TruncatedNormal = TruncatedNormal(0.2, 0.08, 0.01, 1.0)
    brightness_bright: TruncatedNormal = TruncatedNormal(3.5, 1.0, 1.0, 5.0)
    brightness_mix: float = 0.5  # probability of the dark component
    chroma_lo: float = 0.9
    chroma_hi: float = 1.1
    kernel_sizes: tuple = (7, 9, 11, 13, 15, 17, 19, 21)
    iso_width_lo: float = 0.1
    iso_width_hi: float = 2.4
    aniso_angle_lo: float = 0.0
    aniso_angle_hi: float = math.pi
    aniso_major_lo: float = 0.5
    aniso_major_hi: float = 6.0
    aniso_minor_frac_lo: float = 0.25  # minor axis as a fraction of the major
    aniso_minor_frac_hi: float = 1.0
    prob_aniso: float = 0.5
    awgn_sigma_max: float = 0.1
    blur_before_noise: bool = True

    def __post_init__(self):
        probs = (self.prob_original + self.prob_brightness
                 + self.prob_chroma + self.prob_quality)
        if abs(probs - 1.0) > 1e-9:
            raise ParameterError("branch probabilities must sum to 1")
        if any(s % 2 == 0 or s < 1 for s in self.kernel_sizes):
            raise ParameterError("kernel sizes must be odd and >= 1")


BRANCHES = ("original", "brightness", "chroma", "quality")


def sample_truncated_normal(tn: TruncatedNormal, rng: RngStream) -> float:
    """Rejection sampling; exact truncation, bounded expected iterations."""
    while True:
        v = tn.mu + tn.sigma * rng.normal()
        if tn.lo <= v <= tn.hi:
            return v


def sample_brightness_coeff(config: AugmentConfig, rng: RngStream):
    """Draw (omega, component) from the two-component truncated mixture."""
    dark = rng.uniform() < config.brightness_mix
    tn = config.brightness_dark if dark else config.brightness_bright
    return sample_truncated_normal(tn, rng), ("dark" if dark else "bright")


def augment_brightness(x: LinearRgbImage, config: AugmentConfig, rng: RngStream):
    omega, _ = sample_brightness_coeff(config, rng)
    return LinearRgbImage(omega * x.data), omega


def sample_chroma_coeffs(config: AugmentConfig, rng: RngStream):
    """(w_r, w_g, w_b) with w_r + w_g + w_b == 3 exactly (dyadic grid)."""
    w_r = round(rng.uniform(config.chroma_lo, config.chroma_hi) * _GRID) / _GRID
    w_b = round(rng.uniform(config.chroma_lo, config.chroma_hi) * _GRID) / _GRID
    w_g = 3.0 - w_r - w_b
    return w_r, w_g, w_b


def augment_chromaticity(x: LinearRgbImage, config: AugmentConfig, rng: RngStream):
    coeffs = sample_chroma_coeffs(config, rng)
    return LinearRgbImage(x.data * np.array(coeffs)), coeffs


def sample_quality_params(config: AugmentConfig, rng: RngStream) -> dict:
    """Blur kernel family/shape plus the AWGN sigma, in fixed draw order."""
    size = config.kernel_sizes[int(rng.integers(1, len(config.kernel_sizes))[0])]
    aniso = rng.uniform() < config.prob_aniso
    if aniso:
        angle = rng.uniform(config.aniso_angle_lo, config.aniso_angle_hi)
        major = rng.uniform(config.aniso_major_lo, config.aniso_major_hi)
        minor = major * rng.uniform(config.aniso_minor_frac_lo,
                                    config.aniso_minor_frac_hi)
        params = {"kind": "aniso", "size": size, "angle": angle,
                  "r1": major, "r2": minor}
    else:
        width = rng.uniform(config.iso_width_lo, config.iso_width_hi)
        params = {"kind": "iso", "size": size, "angle": 0.0,
                  "r1": width, "r2": width}
    params["awgn_sigma"] = rng.uniform(0.0, config.awgn_sigma_max)
    return params


def augment_quality(x: LinearRgbImage, config: AugmentConfig, rng: RngStream):
    p = sample_quality_params(config, rng)
    kernel = make_gaussian_kernel(p["r1"], p["r2"], p["angle"], p["size"])
    blurred = spatial_filter(x.data, kernel.taps)
    noise = p["awgn_sigma"] * rng.normals(x.data.size).reshape(x.data.shape)
    if config.blur_before_noise:
        out = blurred + noise
    else:
        out = spatial_filter(x.data + noise, kernel.taps)
    return LinearRgbImage(out), p


def sample_branch(config: AugmentConfig, rng: RngStream) -> str:
    u = rng.uniform()
    edges = np.cumsum([config.prob_original, config.prob_brightness,
                       config.prob_chroma, config.prob_quality])
    for branch, edge in zip(BRANCHES, edges):
        if u < edge:
            return branch
    return BRANCHES[-1]


def augment_pipeline(x: LinearRgbImage, config: AugmentConfig, rng: RngStream):
    """Apply exactly one branch; returns (image, branch, sampled params)."""
    branch = sample_branch(config, rng)
    if branch == "original":
        return x, branch, {}
    if branch == "brightness":
        out, omega = augment_brightness(x, config, rng)
        return out, branch, {"omega": omega}
    if branch == "chroma":
        out, coeffs = augment_chromaticity(x, config, rng)
        return out, branch, {"omega_r": coeffs[0], "omega_g": coeffs[1],
                             "omega_b": coeffs[2]}
    out, params = augment_quality(x, config, rng)
    return out, branch, params
