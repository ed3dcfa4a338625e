"""RAW-domain corruption synthesizers: 17 conditions over linear demosaiced
Raw-RGB, plus procedural fallbacks for side inputs (depth, flare) and a
seeded dispatcher.

Each kind is one entry of REGISTRY: its parameters in draw order, the
function that runs it, whether it needs a depth map or uses a flare layer,
and, for the two sensor kinds, its variant on the Bayer mosaic. KINDS,
sampling, dispatch, `corrupt_bayer` and spec-file validation (formats) all
read that table, so adding a kind is one registry entry plus one function.
Dispatch gives a kind that needs a depth map or uses a flare layer, given
none, a procedural one seeded by the spec's seed; so a sweep entry replays
from its kind and seed alone.

Noise models add zero-mean Gaussians with the stated signal-dependent
variance (shot + read). Noise draws happen even at zero amplitude so
composed corruptions replay identical streams.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.ndimage import map_coordinates

from .errors import (DimensionError, ParameterError, is_finite_real, is_int,
                     is_real)
from .isp import apply_ccm
from .raw import BayerImage, LinearRgbImage, spatial_filter
from .rng import RngStream, check_seed

# Radial spikes in the procedural flare layer.
FLARE_SPIKES = 6


@dataclass(frozen=True)
class NoiseModel:
    """Read-noise std and shot-noise coefficient, linear units."""

    delta_r: float = 0.0
    delta_s: float = 0.0

    def __post_init__(self):
        if self.delta_r < 0 or self.delta_s < 0:
            raise ParameterError("noise coefficients must be >= 0")
        if math.isinf(float(self.delta_r) * self.delta_r):
            raise ParameterError("delta_r^2 overflows a float")


@dataclass(frozen=True)
class DepthMap:
    """Relative scene depth per pixel, d >= 0."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 2:
            raise DimensionError("depth data must be 2-D")
        if self.data.min() < 0:
            raise ParameterError("depth must be >= 0")


@dataclass(frozen=True)
class CorruptionSpec:
    """One corruption condition: kind + fixed parameter overrides + seed."""

    kind: str
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown corruption kind: {self.kind!r}")
        check_seed(self.seed)


def _check_same_shape(a: np.ndarray, b: np.ndarray, what: str):
    if a.shape[:2] != b.shape[:2]:
        raise DimensionError(f"{what} dimensions do not match the image")


def _signal_noise(signal: np.ndarray, noise: NoiseModel, rng: RngStream) -> np.ndarray:
    """Zero-mean Gaussian with variance delta_r^2 + delta_s * signal."""
    z = rng.normals(signal.size).reshape(signal.shape)
    var = noise.delta_r**2 + noise.delta_s * np.clip(signal, 0.0, None)
    return np.sqrt(var) * z


def corrupt_relight(x: LinearRgbImage, l: float, noise: NoiseModel,
                    rng: RngStream) -> LinearRgbImage:
    """Scale by a light factor and add shot/read noise (low-light l<1,
    overexposure l>1). No clamping."""
    if l <= 0:
        raise ParameterError("light factor must be positive")
    signal = l * x.data
    return LinearRgbImage(signal + _signal_noise(signal, noise, rng))


def _flare_layer(x: LinearRgbImage, flare: np.ndarray) -> np.ndarray:
    """The (H, W) or (H, W, 3) flare layer checked against x, as (H, W, C)."""
    flare = np.asarray(flare, dtype=np.float64)
    _check_same_shape(x.data, flare, "flare layer")
    return flare[..., None] if flare.ndim == 2 else flare


def corrupt_flare(x: LinearRgbImage, flare: np.ndarray, sigma2_scale: float,
                  rng: RngStream) -> LinearRgbImage:
    """Additive flare layer plus Gaussian noise whose variance is one
    chi-square(1) draw scaled by sigma2_scale."""
    flare = _flare_layer(x, flare)
    if sigma2_scale < 0:
        raise ParameterError("sigma2_scale must be >= 0")
    sigma2 = sigma2_scale * rng.chisq1()
    n = math.sqrt(sigma2) * rng.normals(x.data.size).reshape(x.data.shape)
    return LinearRgbImage(x.data + flare + n)


def corrupt_low_flare(x: LinearRgbImage, l: float, flare: np.ndarray,
                      noise: NoiseModel, rng: RngStream) -> LinearRgbImage:
    """Low-light relight composed with an additive flare layer."""
    flare = _flare_layer(x, flare)
    signal = l * x.data
    n = _signal_noise(signal, noise, rng)
    return LinearRgbImage(signal + flare + n)


def corrupt_fog(x: LinearRgbImage, depth: DepthMap, a: float,
                beta: float) -> LinearRgbImage:
    """Koschmieder scattering: y = x*t + A*(1-t), t = exp(-beta*d)."""
    _check_same_shape(x.data, depth.data, "depth map")
    if not 0.0 <= a <= 1.0:
        raise ParameterError("atmospheric light must lie in [0, 1]")
    if beta < 0:
        raise ParameterError("beta must be >= 0")
    t = np.exp(-beta * depth.data)[..., None]
    return LinearRgbImage(x.data * t + a * (1.0 - t))


def _line_coverage(h: int, w: int, cx: float, cy: float, length: float,
                   angle: float, width: float) -> np.ndarray:
    """Anti-aliased coverage of a line segment centered at (cx, cy).

    Longitudinal coverage is the overlap of the unit pixel footprint with the
    segment extent; transverse coverage falls off linearly over one pixel.
    """
    dx, dy = math.cos(angle), math.sin(angle)
    half = length / 2.0
    pad = int(math.ceil(half + width + 2.0))
    x0 = max(int(math.floor(cx)) - pad, 0)
    x1 = min(int(math.ceil(cx)) + pad, w - 1)
    y0 = max(int(math.floor(cy)) - pad, 0)
    y1 = min(int(math.ceil(cy)) + pad, h - 1)
    mask = np.zeros((h, w))
    if x0 > x1 or y0 > y1:
        return mask
    ys, xs = np.mgrid[y0:y1 + 1, x0:x1 + 1]
    rx = xs - cx
    ry = ys - cy
    t = rx * dx + ry * dy                  # longitudinal coordinate
    d = np.abs(-rx * dy + ry * dx)          # perpendicular distance
    longitudinal = np.clip(np.minimum(half, t + 0.5) - np.maximum(-half, t - 0.5),
                           0.0, 1.0)
    transverse = np.clip(width / 2.0 + 0.5 - d, 0.0, 1.0)
    mask[y0:y1 + 1, x0:x1 + 1] = longitudinal * transverse
    return mask


def rain_layer(h: int, w: int, count: int, length: float, angle: float,
               width: float, intensity: float, rng: RngStream) -> np.ndarray:
    """Sum of anti-aliased streaks at angles jittered by up to 0.05 rad,
    positions uniform."""
    if count < 0 or intensity < 0:
        raise ParameterError("count and intensity must be >= 0")
    layer = np.zeros((h, w))
    for _ in range(count):
        u = rng.uniforms(3)
        cx = u[0] * w
        cy = u[1] * h
        a = angle + (u[2] * 2.0 - 1.0) * 0.05
        layer += intensity * _line_coverage(h, w, cx, cy, length, a, width)
    return layer


def corrupt_rain(x: LinearRgbImage, count: int, length: float, angle: float,
                 width: float, intensity: float, rng: RngStream) -> LinearRgbImage:
    """Additive rain streaks: y = x + sum of streak layers."""
    layer = rain_layer(x.height, x.width, count, length, angle, width,
                       intensity, rng)
    return LinearRgbImage(x.data + layer[..., None])


def corrupt_rain_fog(x: LinearRgbImage, count: int, length: float, angle: float,
                     width: float, intensity: float, depth: DepthMap, a: float,
                     beta: float, rng: RngStream) -> LinearRgbImage:
    """Rain added first, then fog attenuation over the rainy image."""
    rainy = corrupt_rain(x, count, length, angle, width, intensity, rng)
    return corrupt_fog(rainy, depth, a, beta)


def snow_mask(h: int, w: int, rng: RngStream, cell: int = 12,
              coverage: float = 0.4, flake_count: int = 60) -> np.ndarray:
    """Blotchy value-noise mask in [0, 1] plus small disc flakes of radius
    0.75 to 2.25."""
    gh, gw = h // cell + 2, w // cell + 2
    grid = rng.uniforms(gh * gw).reshape(gh, gw)
    ys = np.arange(h) / cell
    xs = np.arange(w) / cell
    iy = ys.astype(np.int64)
    ix = xs.astype(np.int64)
    fy = (ys - iy)[:, None]
    fx = (xs - ix)[None, :]
    g00 = grid[iy][:, ix]
    g01 = grid[iy][:, ix + 1]
    g10 = grid[iy + 1][:, ix]
    g11 = grid[iy + 1][:, ix + 1]
    noise = (g00 * (1 - fy) * (1 - fx) + g01 * (1 - fy) * fx
             + g10 * fy * (1 - fx) + g11 * fy * fx)
    threshold = 1.0 - coverage
    z = np.clip((noise - threshold) / max(coverage, 1e-9), 0.0, 1.0)
    for _ in range(flake_count):
        u = rng.uniforms(3)
        cx, cy = u[0] * w, u[1] * h
        r = 1.5 * (0.5 + u[2])
        y0, y1 = max(int(cy - r - 1), 0), min(int(cy + r + 2), h)
        x0, x1 = max(int(cx - r - 1), 0), min(int(cx + r + 2), w)
        if y0 >= y1 or x0 >= x1:
            continue
        yy, xx = np.mgrid[y0:y1, x0:x1]
        d = np.sqrt((xx - cx) ** 2 + (yy - cy) ** 2)
        flake = np.clip(r + 0.5 - d, 0.0, 1.0)
        z[y0:y1, x0:x1] = np.maximum(z[y0:y1, x0:x1], flake)
    return z


def corrupt_snow(x: LinearRgbImage, mask: np.ndarray, flake_value: float) -> LinearRgbImage:
    """Compositing: y = x*(1-z) + z*S with snow mask z and flake value S."""
    mask = np.asarray(mask, dtype=np.float64)
    _check_same_shape(x.data, mask, "snow mask")
    if mask.min() < 0 or mask.max() > 1:
        raise ParameterError("snow mask must lie in [0, 1]")
    if flake_value < 0:
        raise ParameterError("flake value must be >= 0")
    z = mask[..., None]
    return LinearRgbImage(x.data * (1.0 - z) + z * flake_value)


def motion_blur_psf(length: float, angle: float) -> np.ndarray:
    """Normalized anti-aliased line PSF through the kernel center.

    length <= 1 degenerates to the exact delta (identity)."""
    if length < 1:
        raise ParameterError("motion length must be >= 1")
    if length == 1:
        return np.ones((1, 1))
    size = 2 * int(math.ceil(length / 2.0)) + 1
    c = size // 2
    taps = _line_coverage(size, size, c, c, length, angle, 1.0)
    return taps / taps.sum()


def defocus_psf(radius: float) -> np.ndarray:
    """Normalized disk PSF; radius 0 degenerates to the identity."""
    if radius < 0:
        raise ParameterError("radius must be >= 0")
    half = int(math.ceil(radius))
    coords = np.arange(-half, half + 1, dtype=np.float64)
    x, y = np.meshgrid(coords, coords)
    taps = (x * x + y * y <= radius * radius + 1e-12).astype(np.float64)
    return taps / taps.sum()


def corrupt_motion_blur(x: LinearRgbImage, length: float, angle: float) -> LinearRgbImage:
    return LinearRgbImage(spatial_filter(x.data, motion_blur_psf(length, angle)))


def corrupt_defocus_blur(x: LinearRgbImage, radius: float) -> LinearRgbImage:
    return LinearRgbImage(spatial_filter(x.data, defocus_psf(radius)))


def _sensor_noise(data: np.ndarray, noise: NoiseModel, bits: int,
                  rng: RngStream) -> np.ndarray:
    """Sensor noise on an (H, W) mosaic or an (H, W, 3) image."""
    if not 1 <= bits <= 64:
        raise ParameterError("bit depth must lie in [1, 64]")
    out = data + _signal_noise(data, noise, rng)
    half_lsb = 1.0 / 2.0 ** (bits + 1)
    q = (rng.uniforms(data.size).reshape(data.shape) * 2.0 - 1.0) * half_lsb
    return out + q


def corrupt_sensor_noise(x: LinearRgbImage, noise: NoiseModel, bits: int,
                         rng: RngStream) -> LinearRgbImage:
    """Shot/read noise plus ADC quantization noise, uniform over half an LSB
    each way: U(-1/2^(bits+1), +1/2^(bits+1))."""
    return LinearRgbImage(_sensor_noise(x.data, noise, bits, rng))


def _cmos_damage(data: np.ndarray, dead_rows: int, hot_pixel_rate: float,
                 hot_value: float, rng: RngStream) -> np.ndarray:
    """CMOS damage on an (H, W) mosaic or an (H, W, 3) image."""
    h, w = data.shape[:2]
    if not 0.0 <= hot_pixel_rate <= 1.0:
        raise ParameterError("hot pixel rate must lie in [0, 1]")
    if dead_rows < 0 or dead_rows > h:
        raise ParameterError("dead row count must lie in [0, height]")
    out = data.copy()
    out[rng.choice_distinct(dead_rows, h)] = 0.0
    out[rng.uniforms(h * w).reshape(h, w) < hot_pixel_rate] = hot_value
    return out


def corrupt_cmos_damage(x: LinearRgbImage, dead_rows: int, hot_pixel_rate: float,
                        hot_value: float, rng: RngStream) -> LinearRgbImage:
    """Dead (zeroed) rows plus a Bernoulli mask of hot pixels."""
    return LinearRgbImage(_cmos_damage(x.data, dead_rows, hot_pixel_rate,
                                       hot_value, rng))


def corrupt_moire(x: LinearRgbImage, frequency: float, angle: float,
                  alpha: float) -> LinearRgbImage:
    """Multiplicative sinusoidal stripe pattern blended at opacity alpha."""
    if frequency <= 0:
        raise ParameterError("frequency must be positive")
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError("alpha must lie in [0, 1]")
    ys, xs = np.mgrid[0:x.height, 0:x.width].astype(np.float64)
    phase = 2.0 * np.pi * frequency * (xs * math.cos(angle) + ys * math.sin(angle))
    pattern = 0.5 * (1.0 + np.sin(phase))
    striped = x.data * pattern[..., None]
    return LinearRgbImage((1.0 - alpha) * x.data + alpha * striped)


def corrupt_vignetting(x: LinearRgbImage, strength: float,
                       sigma_frac: float) -> LinearRgbImage:
    """Radial Gaussian falloff: gain = 1 - s*(1 - exp(-r^2 / (2 sigma^2)))."""
    if not 0.0 <= strength <= 1.0:
        raise ParameterError("strength must lie in [0, 1]")
    if sigma_frac <= 0:
        raise ParameterError("sigma fraction must be positive")
    h, w = x.height, x.width
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    diag = math.hypot(h, w)
    sigma = sigma_frac * diag
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    r2 = (xs - cx) ** 2 + (ys - cy) ** 2
    gain = 1.0 - strength * (1.0 - np.exp(-r2 / (2.0 * sigma * sigma)))
    return LinearRgbImage(x.data * gain[..., None])


def corrupt_chromatic_aberration(x: LinearRgbImage, k1_r: float, k1_g: float,
                                 k1_b: float) -> LinearRgbImage:
    """Per-channel first-order radial distortion, bilinear resampling.

    A source point at normalized radius r lands at r*(1 + k1*r^2); rendering
    inverts that map per destination pixel (Newton), so positive k1 pushes
    content outward. Out-of-frame samples clamp to the edge.
    """
    for k1 in (k1_r, k1_g, k1_b):
        if abs(k1) >= 1:
            raise ParameterError("|k1| must be < 1")
    h, w = x.height, x.width
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    scale = math.hypot(cx, cy) or 1.0  # unit = half-diagonal
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    nx = (xs - cx) / scale
    ny = (ys - cy) / scale
    r_dst = np.sqrt(nx * nx + ny * ny)
    planes = []
    for c, k1 in enumerate((k1_r, k1_g, k1_b)):
        if k1 == 0.0:
            planes.append(x.data[..., c])
            continue
        r_src = r_dst.copy()
        for _ in range(5):  # Newton on r*(1 + k1*r^2) = r_dst
            f = r_src * (1.0 + k1 * r_src * r_src) - r_dst
            df = 1.0 + 3.0 * k1 * r_src * r_src
            r_src = r_src - f / df
        ratio = np.divide(r_src, r_dst, out=np.ones_like(r_dst), where=r_dst > 0)
        sx = cx + nx * ratio * scale
        sy = cy + ny * ratio * scale
        planes.append(map_coordinates(x.data[..., c], [sy, sx], order=1,
                                      mode="nearest"))
    return LinearRgbImage(np.stack(planes, axis=-1))


def apply_sensor_matrix(x: LinearRgbImage, m: np.ndarray) -> LinearRgbImage:
    """Cross-sensor color stand-in: the ISP's colour correction p -> p @ M
    (`isp.apply_ccm`), clamped to >= 0."""
    out = apply_ccm(x, m).data
    return LinearRgbImage(np.clip(out, 0.0, None, out=out))


def procedural_depth(h: int, w: int, seed: int) -> DepthMap:
    """Fallback relative depth: vertical gradient plus seeded smooth bumps."""
    rng = RngStream.from_seed(seed, stream_index=101)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    depth = 0.2 + 0.8 * ys / max(h - 1, 1)
    for _ in range(3):
        u = rng.uniforms(4)
        cx, cy = u[0] * w, u[1] * h
        s = (0.15 + 0.25 * u[2]) * max(h, w)
        amp = 0.3 + 0.4 * u[3]
        depth += amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * s * s))
    return DepthMap(depth / depth.max())


def procedural_flare(h: int, w: int, seed: int, peak: float = 0.8) -> np.ndarray:
    """Fallback flare layer: Gaussian glow plus FLARE_SPIKES radial spikes,
    seeded."""
    rng = RngStream.from_seed(seed, stream_index=102)
    u = rng.uniforms(3)
    cx, cy = u[0] * w, u[1] * h
    glow_sigma = (0.08 + 0.12 * u[2]) * max(h, w)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    rx, ry = xs - cx, ys - cy
    r2 = rx * rx + ry * ry
    layer = peak * np.exp(-r2 / (2 * glow_sigma * glow_sigma))
    base_angle = rng.uniform(0, np.pi)
    theta = np.arctan2(ry, rx)
    r = np.sqrt(r2)
    for i in range(FLARE_SPIKES):
        a = base_angle + i * np.pi / FLARE_SPIKES
        angular = np.cos(theta - a) ** 2
        layer += 0.3 * peak * (angular ** 24) * np.exp(-r / (0.5 * max(h, w)))
    return layer


def _like(value, default) -> bool:
    """True if an override has the type and shape of a fixed default: an int
    for an int, a finite real for a float, and element-wise for a matrix."""
    if isinstance(default, tuple):
        return (isinstance(value, list) and len(value) == len(default)
                and all(_like(v, d) for v, d in zip(value, default)))
    if isinstance(default, int):
        return is_int(value)
    return is_finite_real(value)


@dataclass(frozen=True)
class Param:
    """One parameter of a kind, drawn from `rule` by `mode`: "uniform" on
    (lo, hi), "int" on (lo, hi) inclusive, "choice" among a tuple of values,
    or "fixed" at the value `rule` itself."""

    name: str
    mode: str
    rule: object

    def sample(self, rng: RngStream):
        if self.mode == "uniform":
            return rng.uniform(*self.rule)
        if self.mode == "int":
            lo, hi = self.rule
            return lo + int(rng.integers(1, hi - lo + 1)[0])
        if self.mode == "choice":
            return self.rule[int(rng.integers(1, len(self.rule))[0])]
        return self.rule

    def problem(self, value) -> tuple[str, str] | None:
        """Why `value` may not override this parameter in a spec file, as
        ("type" or "range", reason), or None if it may."""
        if self.mode == "fixed":
            if _like(value, self.rule):
                return None
            return "type", (f"{self.name} must have the type and shape of "
                            f"its default {self.rule!r}, got {value!r}")
        if not (is_int(value) if self.mode == "int" else is_real(value)):
            what = "an integer" if self.mode == "int" else "a number"
            return "type", f"{self.name} must be {what}, got {value!r}"
        lo, hi = ((min(self.rule), max(self.rule)) if self.mode == "choice"
                  else self.rule)
        if not lo <= value <= hi:
            return "range", f"{self.name}={value} outside [{lo}, {hi}]"
        return None


@dataclass(frozen=True)
class Kind:
    """One corruption kind. `run(x, p, rng, depth, flare)` applies it with
    the sampled parameters p and the stream rng that drew them; `mosaic(data,
    p, rng)`, where set, applies it to a Bayer mosaic's data."""

    params: tuple
    run: Callable
    needs_depth: bool = False
    uses_flare: bool = False
    mosaic: Callable | None = None


def _noise(p: dict) -> NoiseModel:
    return NoiseModel(p["delta_r"], p["delta_s"])


def _relight(x, p, rng, depth, flare):
    return corrupt_relight(x, p["l"], _noise(p), rng)


def _sensor_matrix(x, p, rng, depth, flare):
    return apply_sensor_matrix(x, p["matrix"])


_NOISE = (Param("delta_r", "fixed", 0.01), Param("delta_s", "fixed", 0.02))
_DIM = Param("l", "uniform", (0.05, 0.4))
_PEAK = Param("peak", "uniform", (0.5, 1.0))
_ANGLE = Param("angle", "uniform", (0.0, math.pi))
_RAIN = (
    Param("count", "int", (30, 60)),
    Param("length", "uniform", (15.0, 35.0)),
    Param("angle", "uniform", (math.pi / 2 - 0.35, math.pi / 2 + 0.35)),
    Param("width", "uniform", (1.0, 2.0)),
    Param("intensity", "uniform", (0.2, 0.5)),
)
_FOG = (Param("a", "choice", (0.3, 0.6, 0.9)),
        Param("beta", "choice", (0.5, 1.0, 2.0)))

# Parameters are drawn in the listed order, so pinning one never shifts the
# others. Where a kind's parameter names are its function's argument names,
# its run passes them as keywords. Runs look the corrupt_* functions up by
# name at call time, so a wrapper rebound on this module (a tracer, a test
# double) is what runs.
REGISTRY: dict[str, Kind] = {
    "low_light": Kind((_DIM,) + _NOISE, _relight),
    "overexposure": Kind((Param("l", "uniform", (3.5, 5.0)),) + _NOISE, _relight),
    "flare": Kind(
        (Param("sigma2_scale", "fixed", 1e-4), _PEAK),
        lambda x, p, rng, depth, flare: corrupt_flare(x, flare, p["sigma2_scale"], rng),
        uses_flare=True),
    "low_flare": Kind(
        (_DIM,) + _NOISE + (_PEAK,),
        lambda x, p, rng, depth, flare: corrupt_low_flare(x, p["l"], flare,
                                                          _noise(p), rng),
        uses_flare=True),
    "fog": Kind(_FOG, lambda x, p, rng, depth, flare: corrupt_fog(x, depth, **p),
                needs_depth=True),
    "rain": Kind(_RAIN, lambda x, p, rng, *_: corrupt_rain(x, rng=rng, **p)),
    "rain_fog": Kind(
        _RAIN + _FOG,
        lambda x, p, rng, depth, flare: corrupt_rain_fog(x, depth=depth, rng=rng, **p),
        needs_depth=True),
    "snow": Kind(
        (Param("coverage", "uniform", (0.25, 0.55)),
         Param("flake_value", "uniform", (0.7, 1.0)),
         Param("cell", "int", (8, 16)),
         Param("flake_count", "int", (40, 90))),
        lambda x, p, rng, *_: corrupt_snow(
            x, snow_mask(x.height, x.width, rng, cell=p["cell"],
                         coverage=p["coverage"], flake_count=p["flake_count"]),
            p["flake_value"])),
    "motion_blur": Kind((Param("length", "uniform", (7.0, 21.0)), _ANGLE),
                        lambda x, p, *_: corrupt_motion_blur(x, **p)),
    "defocus_blur": Kind((Param("radius", "uniform", (2.0, 6.0)),),
                         lambda x, p, *_: corrupt_defocus_blur(x, **p)),
    "sensor_noise": Kind(
        _NOISE + (Param("bits", "fixed", 12),),
        lambda x, p, rng, *_: corrupt_sensor_noise(x, _noise(p), p["bits"], rng),
        mosaic=lambda data, p, rng: _sensor_noise(data, _noise(p), p["bits"], rng)),
    "cmos_damage": Kind(
        (Param("dead_rows", "int", (1, 4)),
         Param("hot_pixel_rate", "uniform", (0.001, 0.01)),
         Param("hot_value", "fixed", 1.0)),
        lambda x, p, rng, *_: corrupt_cmos_damage(x, rng=rng, **p),
        mosaic=lambda data, p, rng: _cmos_damage(data, rng=rng, **p)),
    "moire": Kind((Param("frequency", "uniform", (0.05, 0.25)), _ANGLE,
                   Param("alpha", "uniform", (0.2, 0.6))),
                  lambda x, p, *_: corrupt_moire(x, **p)),
    "vignetting": Kind((Param("strength", "uniform", (0.4, 0.9)),
                        Param("sigma_frac", "uniform", (0.3, 0.6))),
                       lambda x, p, *_: corrupt_vignetting(x, **p)),
    "chromatic_aberration": Kind(
        (Param("k1_r", "uniform", (0.01, 0.05)), Param("k1_g", "fixed", 0.0),
         Param("k1_b", "uniform", (-0.05, -0.01))),
        lambda x, p, *_: corrupt_chromatic_aberration(x, **p)),
    "sensor_matrix_a": Kind(
        (Param("matrix", "fixed", ((1.08, 0.03, -0.02),
                                   (0.02, 0.97, 0.04),
                                   (-0.01, 0.05, 0.92))),),
        _sensor_matrix),
    "sensor_matrix_b": Kind(
        (Param("matrix", "fixed", ((0.91, -0.02, 0.05),
                                   (0.04, 1.05, -0.03),
                                   (0.03, 0.02, 1.10))),),
        _sensor_matrix),
}

KINDS = tuple(REGISTRY)


def sample_params(spec: CorruptionSpec, rng: RngStream) -> dict:
    """Draw every parameter of the kind in table order, then apply overrides."""
    out = {param.name: param.sample(rng) for param in REGISTRY[spec.kind].params}
    unknown = set(spec.params) - set(out)
    if unknown:
        raise ParameterError(
            f"unknown parameters for kind {spec.kind!r}: {sorted(unknown)}"
        )
    out.update(spec.params)
    return out


def apply_corruption(spec: CorruptionSpec, x: LinearRgbImage,
                     depth: DepthMap | None = None,
                     flare: np.ndarray | None = None) -> LinearRgbImage:
    """Dispatch one corruption with parameters drawn from spec.seed.

    A kind that needs a depth map or uses a flare layer, given none, falls
    back to `procedural_depth` or `procedural_flare` seeded by spec.seed.
    """
    kind = REGISTRY[spec.kind]
    rng = RngStream.from_seed(spec.seed)
    p = sample_params(spec, rng)
    if kind.needs_depth and depth is None:
        depth = procedural_depth(x.height, x.width, spec.seed)
    if kind.uses_flare and flare is None:
        flare = procedural_flare(x.height, x.width, spec.seed, peak=p["peak"])
    return kind.run(x, p, rng, depth, flare)


def check_side_layers(spec: CorruptionSpec, x: LinearRgbImage,
                      depth: DepthMap | None, flare: np.ndarray | None) -> None:
    """DimensionError unless each given layer that spec's kind uses fits x."""
    kind = REGISTRY[spec.kind]
    if kind.needs_depth and depth is not None:
        _check_same_shape(x.data, depth.data, "depth map")
    if kind.uses_flare and flare is not None:
        _check_same_shape(x.data, np.asarray(flare), "flare layer")


def corrupt_bayer(spec: CorruptionSpec, bayer: BayerImage) -> BayerImage:
    """Pre-demosaic wrapper for the kinds with a mosaic variant."""
    mosaic = REGISTRY[spec.kind].mosaic
    if mosaic is None:
        names = " and ".join(k for k, kind in REGISTRY.items() if kind.mosaic)
        raise ParameterError(f"only {names} run on the mosaic")
    rng = RngStream.from_seed(spec.seed)
    p = sample_params(spec, rng)
    return replace(bayer, data=np.clip(mosaic(bayer.data, p, rng), 0.0, 1.0))
