"""Training-time augmentation sampler for linear demosaiced Raw-RGB.

BRANCHES is the one table of its four branches: the untouched original,
brightness (a mixture of truncated Gaussians), chromaticity (per-channel
gains that sum to 3) and quality degradation (iso/aniso Gaussian blur, then
AWGN). Each is a function (x, config, rng) -> (image, params) beside the
keys of its params. A sample takes branch <name> with probability
AugmentConfig.prob_<name>; PARAM_KEYS, the columns of the CLI's
coefficients.csv, is read from the table. Quality always blurs before it
adds noise, as optics blur the light before the sensor adds its noise.

Chromaticity gains are quantized to a dyadic grid (2^-26) so the sum-to-3
constraint holds exactly in floating point, not just approximately.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, is_finite_real, is_int
from .raw import LinearRgbImage, spatial_filter
from .isp import make_gaussian_kernel
from .rng import RngStream

_GRID = float(1 << 26)
MIN_MASS = 1e-3  # of a TruncatedNormal's Gaussian inside its [lo, hi]


@dataclass(frozen=True)
class TruncatedNormal:
    """Gaussian restricted to [lo, hi] by rejection. The Gaussian must put
    a mass of at least MIN_MASS inside [lo, hi], so that rejection draws
    about 1/MIN_MASS normals at most, on average."""

    mu: float
    sigma: float
    lo: float
    hi: float

    def __post_init__(self):
        if not all(is_finite_real(v)
                   for v in (self.mu, self.sigma, self.lo, self.hi)):
            raise ParameterError("mu, sigma, lo and hi must be finite numbers")
        if self.sigma <= 0:
            raise ParameterError("sigma must be positive")
        if self.lo >= self.hi:
            raise ParameterError("lo must be below hi")
        mu, sigma, lo, hi = map(float, (self.mu, self.sigma, self.lo, self.hi))
        lo_z, hi_z = ((v - mu) / sigma / math.sqrt(2.0) for v in (lo, hi))
        mass = 0.5 * (math.erf(hi_z) - math.erf(lo_z))
        if mass < MIN_MASS:
            raise ParameterError(f"N({mu}, {sigma}) has a mass of {mass:.3g} "
                                 f"inside [{lo}, {hi}], below {MIN_MASS}")


_PROBABILITIES = ("prob_original", "prob_brightness", "prob_chroma",
                  "prob_quality", "brightness_mix", "prob_aniso")
_INTERVALS = (("chroma_lo", "chroma_hi"), ("iso_width_lo", "iso_width_hi"),
              ("aniso_angle_lo", "aniso_angle_hi"),
              ("aniso_major_lo", "aniso_major_hi"),
              ("aniso_minor_frac_lo", "aniso_minor_frac_hi"))
_REALS = _PROBABILITIES + sum(_INTERVALS, ()) + ("awgn_sigma_max",)


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

    def __post_init__(self):
        if not all(isinstance(tn, TruncatedNormal)
                   for tn in (self.brightness_dark, self.brightness_bright)):
            raise ParameterError("brightness components must be truncated normals")
        for name in _REALS:
            value = getattr(self, name)
            if not is_finite_real(value):
                raise ParameterError(f"{name} must be a finite number")
            if name in _PROBABILITIES and not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1]")
        for lo, hi in _INTERVALS:
            if getattr(self, lo) > getattr(self, hi):
                raise ParameterError(f"{lo} must not exceed {hi}")
        if self.awgn_sigma_max < 0:
            raise ParameterError("awgn_sigma_max must be >= 0")
        for name in ("iso_width_lo", "aniso_major_lo", "aniso_minor_frac_lo"):
            if getattr(self, name) <= 0:  # sampled blur radii must be positive
                raise ParameterError(f"{name} must be positive")
        sizes = self.kernel_sizes
        if not (isinstance(sizes, tuple) and sizes
                and all(is_int(s) and s >= 1 and s % 2 for s in sizes)):
            raise ParameterError("kernel sizes must be odd integers >= 1")
        if abs(sum(getattr(self, f"prob_{b}") for b in BRANCHES) - 1.0) > 1e-9:
            raise ParameterError("branch probabilities must sum to 1")


def sample_truncated_normal(tn: TruncatedNormal, rng: RngStream) -> float:
    """Rejection sampling; exact truncation, bounded expected iterations."""
    while True:
        v = tn.mu + tn.sigma * rng.normal()
        if tn.lo <= v <= tn.hi:
            return v


def augment_brightness(x: LinearRgbImage, config: AugmentConfig, rng: RngStream):
    """omega from the truncated mixture: dark with probability brightness_mix."""
    dark = rng.uniform() < config.brightness_mix
    tn = config.brightness_dark if dark else config.brightness_bright
    omega = sample_truncated_normal(tn, rng)
    return LinearRgbImage(omega * x.data), {"omega": omega}


def augment_chromaticity(x: LinearRgbImage, config: AugmentConfig, rng: RngStream):
    """Gains (w_r, w_g, w_b) with w_r + w_g + w_b == 3 exactly; a bound near
    the float limit gives a non-finite gain, which the image refuses."""
    w_r, w_b = (float(np.rint(rng.uniform(config.chroma_lo, config.chroma_hi)
                              * _GRID)) / _GRID for _ in range(2))
    w_g = 3.0 - w_r - w_b
    return (LinearRgbImage(x.data * np.array([w_r, w_g, w_b])),
            {"omega_r": w_r, "omega_g": w_g, "omega_b": w_b})


def sample_quality_params(config: AugmentConfig, rng: RngStream) -> dict:
    """Blur kernel family/shape plus the AWGN sigma, in fixed draw order."""
    size = config.kernel_sizes[int(rng.integers(1, len(config.kernel_sizes))[0])]
    if rng.uniform() < config.prob_aniso:
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
    """Blur, then AWGN drawn after it, once the filter's temporaries are freed."""
    p = sample_quality_params(config, rng)
    kernel = make_gaussian_kernel(p["r1"], p["r2"], p["angle"], p["size"])
    blurred = spatial_filter(x.data, kernel.taps)
    noise = p["awgn_sigma"] * rng.normals(x.data.size).reshape(x.data.shape)
    return LinearRgbImage(blurred + noise), p


# name -> (function, the keys of the params it returns), in draw order
BRANCHES = {
    "original": (lambda x, config, rng: (x, {}), ()),
    "brightness": (augment_brightness, ("omega",)),
    "chroma": (augment_chromaticity, ("omega_r", "omega_g", "omega_b")),
    "quality": (augment_quality, ("kind", "size", "angle", "r1", "r2",
                                  "awgn_sigma")),
}
PARAM_KEYS = sum((keys for _, keys in BRANCHES.values()), ())


def sample_branch(config: AugmentConfig, rng: RngStream) -> str:
    u = rng.uniform()
    edges = np.cumsum([getattr(config, f"prob_{name}") for name in BRANCHES])
    for branch, edge in zip(BRANCHES, edges):
        if u < edge:
            return branch
    return branch  # the last one: the edges summed to just below 1


def augment_pipeline(x: LinearRgbImage, config: AugmentConfig, rng: RngStream):
    """Apply exactly one branch; returns (image, branch, sampled params)."""
    branch = sample_branch(config, rng)
    out, params = BRANCHES[branch][0](x, config, rng)
    return out, branch, params
