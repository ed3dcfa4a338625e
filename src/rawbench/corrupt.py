"""RAW-domain corruption synthesizers: 17 conditions over linear demosaiced
Raw-RGB, plus procedural fallbacks for side inputs (depth, flare) and a
seeded dispatcher.

Noise models add zero-mean Gaussians with the stated signal-dependent
variance (shot + read); the printed literal form that doubles the signal
mean is available behind `literal_mean` for comparison. Noise draws happen
even at zero amplitude so composed corruptions replay identical streams.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import map_coordinates

from .errors import DimensionError, MissingDependencyError, ParameterError
from .raw import BayerImage, LinearRgbImage, spatial_filter
from .rng import RngStream


@dataclass(frozen=True)
class NoiseModel:
    """Read-noise std and shot-noise coefficient, linear units."""

    delta_r: float = 0.0
    delta_s: float = 0.0

    def __post_init__(self):
        if self.delta_r < 0 or self.delta_s < 0:
            raise ParameterError("noise coefficients must be >= 0")


@dataclass(frozen=True)
class DepthMap:
    """Relative scene depth per pixel, d >= 0."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 2:
            raise DimensionError("depth data must be 2-D")
        if self.data.min() < 0:
            raise ParameterError("depth must be >= 0")


KINDS = (
    "low_light", "overexposure", "flare", "low_flare",
    "fog", "rain", "rain_fog", "snow",
    "motion_blur", "defocus_blur",
    "sensor_noise", "cmos_damage", "moire", "vignetting",
    "chromatic_aberration", "sensor_matrix_a", "sensor_matrix_b",
)


@dataclass(frozen=True)
class CorruptionSpec:
    """One corruption condition: kind + fixed parameter overrides + seed."""

    kind: str
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown corruption kind: {self.kind!r}")


def _check_same_shape(a: np.ndarray, b: np.ndarray, what: str):
    if a.shape[:2] != b.shape[:2]:
        raise DimensionError(f"{what} dimensions do not match the image")


def _signal_noise(signal: np.ndarray, noise: NoiseModel, rng: RngStream) -> np.ndarray:
    """Zero-mean Gaussian with variance delta_r^2 + delta_s * signal."""
    z = rng.normals(signal.size).reshape(signal.shape)
    var = noise.delta_r**2 + noise.delta_s * np.clip(signal, 0.0, None)
    return np.sqrt(var) * z


def corrupt_relight(x: LinearRgbImage, l: float, noise: NoiseModel,
                    rng: RngStream, literal_mean: bool = False) -> LinearRgbImage:
    """Scale by a light factor and add shot/read noise (low-light l<1,
    overexposure l>1). No clamping."""
    if l <= 0:
        raise ParameterError("light factor must be positive")
    signal = l * x.data
    n = _signal_noise(signal, noise, rng)
    if literal_mean:
        n = n + signal
    return LinearRgbImage(signal + n)


def corrupt_flare(x: LinearRgbImage, flare: np.ndarray, sigma2_scale: float,
                  rng: RngStream) -> LinearRgbImage:
    """Additive flare layer plus Gaussian noise whose variance is one
    chi-square(1) draw scaled by sigma2_scale."""
    flare = np.asarray(flare, dtype=np.float64)
    _check_same_shape(x.data, flare, "flare layer")
    if flare.ndim == 2:
        flare = flare[..., None]
    sigma2 = sigma2_scale * rng.chisq1()
    n = math.sqrt(sigma2) * rng.normals(x.data.size).reshape(x.data.shape)
    return LinearRgbImage(x.data + flare + n)


def corrupt_low_flare(x: LinearRgbImage, l: float, flare: np.ndarray,
                      noise: NoiseModel, rng: RngStream) -> LinearRgbImage:
    """Low-light relight composed with an additive flare layer."""
    flare = np.asarray(flare, dtype=np.float64)
    _check_same_shape(x.data, flare, "flare layer")
    if flare.ndim == 2:
        flare = flare[..., None]
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
               width: float, intensity: float, rng: RngStream,
               angle_jitter: float = 0.05) -> np.ndarray:
    """Sum of anti-aliased streaks at jittered angles, positions uniform."""
    if count < 0 or intensity < 0:
        raise ParameterError("count and intensity must be >= 0")
    layer = np.zeros((h, w))
    for _ in range(count):
        u = rng.uniforms(3)
        cx = u[0] * w
        cy = u[1] * h
        a = angle + (u[2] * 2.0 - 1.0) * angle_jitter
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
              coverage: float = 0.4, flake_count: int = 60,
              flake_radius: float = 1.5) -> np.ndarray:
    """Blotchy value-noise mask in [0, 1] plus small disc flakes."""
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
        r = flake_radius * (0.5 + u[2])
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


def corrupt_sensor_noise(x: LinearRgbImage, noise: NoiseModel, bits: int,
                         rng: RngStream, quantize: bool = True,
                         literal_mean: bool = False) -> LinearRgbImage:
    """Shot/read noise plus ADC quantization noise, uniform over half an LSB
    each way: U(-1/2^(bits+1), +1/2^(bits+1))."""
    if bits < 1:
        raise ParameterError("bit depth must be >= 1")
    n = _signal_noise(x.data, noise, rng)
    if literal_mean:
        n = n + x.data
    out = x.data + n
    if quantize:
        half_lsb = 1.0 / 2.0 ** (bits + 1)
        q = (rng.uniforms(x.data.size).reshape(x.data.shape) * 2.0 - 1.0) * half_lsb
        out = out + q
    return LinearRgbImage(out)


def corrupt_cmos_damage(x: LinearRgbImage, dead_rows: int, hot_pixel_rate: float,
                        hot_value: float, rng: RngStream) -> LinearRgbImage:
    """Dead (zeroed) rows plus a Bernoulli mask of hot pixels."""
    if not 0.0 <= hot_pixel_rate <= 1.0:
        raise ParameterError("hot pixel rate must lie in [0, 1]")
    if dead_rows < 0 or dead_rows > x.height:
        raise ParameterError("dead row count must lie in [0, height]")
    out = x.data.copy()
    rows = rng.choice_distinct(dead_rows, x.height)
    out[rows, :, :] = 0.0
    hot = rng.uniforms(x.height * x.width).reshape(x.height, x.width) < hot_pixel_rate
    out[hot, :] = hot_value
    return LinearRgbImage(out)


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
    """Cross-sensor color stand-in: p -> p @ M, clamped to >= 0."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        raise ParameterError("sensor matrix must be a finite 3x3 matrix")
    out = x.data.reshape(-1, 3) @ m
    return LinearRgbImage(np.clip(out, 0.0, None).reshape(x.height, x.width, 3))


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


def procedural_flare(h: int, w: int, seed: int, peak: float = 0.8,
                     spikes: int = 6) -> np.ndarray:
    """Fallback flare layer: Gaussian glow plus radial spikes, seeded."""
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
    for i in range(spikes):
        a = base_angle + i * np.pi / spikes
        angular = np.cos(theta - a) ** 2
        layer += 0.3 * peak * (angular ** 24) * np.exp(-r / (0.5 * max(h, w)))
    return layer


# Dispatcher defaults. Entries are either ("uniform", lo, hi), ("int", lo, hi)
# (inclusive), ("choice", values), or ("fixed", value); sampling order is the
# listed order so pinning one parameter never shifts the others.
DEFAULT_RANGES: dict[str, list[tuple]] = {
    "low_light": [
        ("l", "uniform", 0.05, 0.4),
        ("delta_r", "fixed", 0.01),
        ("delta_s", "fixed", 0.02),
    ],
    "overexposure": [
        ("l", "uniform", 3.5, 5.0),
        ("delta_r", "fixed", 0.01),
        ("delta_s", "fixed", 0.02),
    ],
    "flare": [
        ("sigma2_scale", "fixed", 1e-4),
        ("peak", "uniform", 0.5, 1.0),
    ],
    "low_flare": [
        ("l", "uniform", 0.05, 0.4),
        ("delta_r", "fixed", 0.01),
        ("delta_s", "fixed", 0.02),
        ("peak", "uniform", 0.5, 1.0),
    ],
    "fog": [
        ("a", "choice", (0.3, 0.6, 0.9)),
        ("beta", "choice", (0.5, 1.0, 2.0)),
    ],
    "rain": [
        ("count", "int", 30, 60),
        ("length", "uniform", 15.0, 35.0),
        ("angle", "uniform", math.pi / 2 - 0.35, math.pi / 2 + 0.35),
        ("width", "uniform", 1.0, 2.0),
        ("intensity", "uniform", 0.2, 0.5),
    ],
    "rain_fog": [
        ("count", "int", 30, 60),
        ("length", "uniform", 15.0, 35.0),
        ("angle", "uniform", math.pi / 2 - 0.35, math.pi / 2 + 0.35),
        ("width", "uniform", 1.0, 2.0),
        ("intensity", "uniform", 0.2, 0.5),
        ("a", "choice", (0.3, 0.6, 0.9)),
        ("beta", "choice", (0.5, 1.0, 2.0)),
    ],
    "snow": [
        ("coverage", "uniform", 0.25, 0.55),
        ("flake_value", "uniform", 0.7, 1.0),
        ("cell", "int", 8, 16),
        ("flake_count", "int", 40, 90),
    ],
    "motion_blur": [
        ("length", "uniform", 7.0, 21.0),
        ("angle", "uniform", 0.0, math.pi),
    ],
    "defocus_blur": [
        ("radius", "uniform", 2.0, 6.0),
    ],
    "sensor_noise": [
        ("delta_r", "fixed", 0.01),
        ("delta_s", "fixed", 0.02),
        ("bits", "fixed", 12),
    ],
    "cmos_damage": [
        ("dead_rows", "int", 1, 4),
        ("hot_pixel_rate", "uniform", 0.001, 0.01),
        ("hot_value", "fixed", 1.0),
    ],
    "moire": [
        ("frequency", "uniform", 0.05, 0.25),
        ("angle", "uniform", 0.0, math.pi),
        ("alpha", "uniform", 0.2, 0.6),
    ],
    "vignetting": [
        ("strength", "uniform", 0.4, 0.9),
        ("sigma_frac", "uniform", 0.3, 0.6),
    ],
    "chromatic_aberration": [
        ("k1_r", "uniform", 0.01, 0.05),
        ("k1_g", "fixed", 0.0),
        ("k1_b", "uniform", -0.05, -0.01),
    ],
    "sensor_matrix_a": [
        ("matrix", "fixed", ((1.08, 0.03, -0.02),
                             (0.02, 0.97, 0.04),
                             (-0.01, 0.05, 0.92))),
    ],
    "sensor_matrix_b": [
        ("matrix", "fixed", ((0.91, -0.02, 0.05),
                             (0.04, 1.05, -0.03),
                             (0.03, 0.02, 1.10))),
    ],
}


def sample_params(spec: CorruptionSpec, rng: RngStream) -> dict:
    """Draw every samplable parameter in fixed order, then apply overrides."""
    out = {}
    for entry in DEFAULT_RANGES[spec.kind]:
        name, mode = entry[0], entry[1]
        if mode == "uniform":
            out[name] = rng.uniform(entry[2], entry[3])
        elif mode == "int":
            out[name] = int(entry[2]) + int(rng.integers(1, entry[3] - entry[2] + 1)[0])
        elif mode == "choice":
            values = entry[2]
            out[name] = values[int(rng.integers(1, len(values))[0])]
        else:
            out[name] = entry[2]
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

    Fog and rain&fog require a depth map; flare kinds fall back to a
    procedural flare layer when no asset is supplied.
    """
    rng = RngStream.from_seed(spec.seed)
    p = sample_params(spec, rng)
    kind = spec.kind
    if kind in ("low_light", "overexposure"):
        noise = NoiseModel(p["delta_r"], p["delta_s"])
        return corrupt_relight(x, p["l"], noise, rng)
    if kind == "flare":
        layer = flare if flare is not None else procedural_flare(
            x.height, x.width, spec.seed, peak=p["peak"])
        return corrupt_flare(x, layer, p["sigma2_scale"], rng)
    if kind == "low_flare":
        layer = flare if flare is not None else procedural_flare(
            x.height, x.width, spec.seed, peak=p["peak"])
        noise = NoiseModel(p["delta_r"], p["delta_s"])
        return corrupt_low_flare(x, p["l"], layer, noise, rng)
    if kind == "fog":
        if depth is None:
            raise MissingDependencyError("depth")
        return corrupt_fog(x, depth, p["a"], p["beta"])
    if kind == "rain":
        return corrupt_rain(x, p["count"], p["length"], p["angle"], p["width"],
                            p["intensity"], rng)
    if kind == "rain_fog":
        if depth is None:
            raise MissingDependencyError("depth")
        return corrupt_rain_fog(x, p["count"], p["length"], p["angle"],
                                p["width"], p["intensity"], depth, p["a"],
                                p["beta"], rng)
    if kind == "snow":
        mask = snow_mask(x.height, x.width, rng, cell=p["cell"],
                         coverage=p["coverage"], flake_count=p["flake_count"])
        return corrupt_snow(x, mask, p["flake_value"])
    if kind == "motion_blur":
        return corrupt_motion_blur(x, p["length"], p["angle"])
    if kind == "defocus_blur":
        return corrupt_defocus_blur(x, p["radius"])
    if kind == "sensor_noise":
        noise = NoiseModel(p["delta_r"], p["delta_s"])
        return corrupt_sensor_noise(x, noise, p["bits"], rng)
    if kind == "cmos_damage":
        return corrupt_cmos_damage(x, p["dead_rows"], p["hot_pixel_rate"],
                                   p["hot_value"], rng)
    if kind == "moire":
        return corrupt_moire(x, p["frequency"], p["angle"], p["alpha"])
    if kind == "vignetting":
        return corrupt_vignetting(x, p["strength"], p["sigma_frac"])
    if kind == "chromatic_aberration":
        return corrupt_chromatic_aberration(x, p["k1_r"], p["k1_g"], p["k1_b"])
    # sensor_matrix_a / sensor_matrix_b
    return apply_sensor_matrix(x, np.array(p["matrix"], dtype=np.float64))


def corrupt_bayer(spec: CorruptionSpec, bayer: BayerImage) -> BayerImage:
    """Pre-demosaic wrapper: sensor_noise and cmos_damage on the mosaic."""
    if spec.kind not in ("sensor_noise", "cmos_damage"):
        raise ParameterError("only sensor_noise and cmos_damage run on the mosaic")
    rng = RngStream.from_seed(spec.seed)
    p = sample_params(spec, rng)
    data = bayer.data
    if spec.kind == "sensor_noise":
        noise = NoiseModel(p["delta_r"], p["delta_s"])
        z = rng.normals(data.size).reshape(data.shape)
        var = noise.delta_r**2 + noise.delta_s * np.clip(data, 0.0, None)
        out = data + np.sqrt(var) * z
        half_lsb = 1.0 / 2.0 ** (p["bits"] + 1)
        out = out + (rng.uniforms(data.size).reshape(data.shape) * 2 - 1) * half_lsb
    else:
        out = data.copy()
        rows = rng.choice_distinct(p["dead_rows"], bayer.height)
        out[rows, :] = 0.0
        hot = rng.uniforms(data.size).reshape(data.shape) < p["hot_pixel_rate"]
        out[hot] = p["hot_value"]
    return BayerImage(data=np.clip(out, 0.0, 1.0), cfa=bayer.cfa,
                      bit_depth=bayer.bit_depth, black_level=bayer.black_level,
                      white_level=bayer.white_level)
