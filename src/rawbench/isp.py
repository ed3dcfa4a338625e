"""Parametric ISP stages: gain + anisotropic Gaussian denoise with a sharpen
blend, Shades-of-Gray white balance with an adaptive Minkowski exponent,
color correction matrix and a residual implicit-MLP color LUT. The fit's
search vector and its map onto IspParams live in `fit`.

Stage naming follows the processing order: the mosaic develops through
demosaic -> gain/denoise/sharpen -> white balance -> CCM -> LUT.

`develop_linear` is the reference: the post-demosaic stage functions
composed on the whole frame, on the caller's thread. `develop` is the one
banded schedule: two passes over one preallocated (H, W, 3) buffer on the
package's thread pool, bit for bit demosaic_bilinear then `develop_linear`:

- Halo. A band of BAND_ROWS rows reads `band_halo(k)` = k // 2 + 1 rows
  beyond its own on each side, rounded up to even: the k-tap blur reaches
  k // 2 demosaiced rows, each of which reads one mosaic row more, and an
  even offset keeps the band on the frame's CFA phase. Only the band's own
  rows are kept, so the mirrored border of a band slice is never used.
  A kernel on the FFT path runs as one band, because the rounding of an
  FFT depends on the length transformed.
- Shades-of-Gray. After the spatial pass, one channel at a time: bands of
  BAND_ROWS rows fill one reused (H, W) plane with the channel's powers,
  and one np.mean of that contiguous plane gives the channel's mean, as on
  the full frame (`_sog_means`). So one plane is alive, not three.
- Block alignment. The colour pass (gains, CCM, LUT) runs over chunks of
  COLOUR_BLOCKS whole NILUT blocks, so every block holds the pixels it
  holds on the full frame. Block boundaries change bits: with 255-pixel
  blocks, 39 to 65 of 8192 pixels came out different (five random LUTs).
- OpenBLAS. A GEMM of at most ONE_THREAD_MACS = 262,144 multiply-adds
  (M x N x K) runs on the calling thread; a larger one wakes OpenBLAS's
  own threads, which then compete with the package's workers (and, in a
  process that has imported scipy, with a second OpenBLAS). Two row blocks
  derive from it. Inside a NILUT block the 32-wide layers run as a stack
  of NILUT_GEMM_ROWS = 256-row GEMMs (256 x 32 x 32), which gives the bits
  of one 4096-row GEMM. `matmul_rows` runs an N x 3 @ 3 x 3 product, as
  `apply_ccm` and the fit's l1 loss do, in GEMMs of CCM_BLOCK_ROWS =
  29,127 rows (x 9), with the bits of one product. Left above the
  cut-off are the fit's l2 moments (W'W and W'T, summed over every
  pixel), whose sums a split would reorder, and a frame's last NILUT
  block when its length is above NILUT_GEMM_ROWS but not a multiple of
  it, which runs unstacked.
  A full LUT on 1024^2 pixels (2-vCPU VM, OpenBLAS 0.3.31, median of 7):
  682 ms from one thread, with OpenBLAS threading each 4096-row GEMM;
  930 ms from two threads with the same GEMMs; 403 ms from two threads
  with the stack.
- Threads. Both passes go through `pool.parallel_map` on `pool.WORKERS`
  threads, the CPUs this process may run on; there is no option for it.
  Each band or chunk runs in a copy of the caller's context, so
  `np.errstate` holds in the workers too.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError, is_finite_real
from .pool import parallel_map
from .raw import (BayerImage, LinearRgbImage, demosaic_bilinear, filter_path,
                  spatial_filter)

NILUT_LAYER_DIMS = (3, 32, 32, 32, 3)
# Pixels per NILUT block: keeps the 32-wide activations cache-resident
# instead of materializing several (H*W, 32) arrays.
NILUT_BLOCK_ROWS = 4096
# OpenBLAS runs a GEMM of at most this many multiply-adds on the calling
# thread (module docstring).
ONE_THREAD_MACS = 262_144
# Rows per GEMM inside a NILUT block: 256 x 32 x 32 multiply-adds.
NILUT_GEMM_ROWS = ONE_THREAD_MACS // (32 * 32)
# Rows per GEMM of an N x 3 @ 3 x 3 product (`matmul_rows`).
CCM_BLOCK_ROWS = ONE_THREAD_MACS // 9
# Rows per band of develop's spatial pass; even, so that every band starts
# on the frame's CFA row pair.
BAND_ROWS = 64
# NILUT blocks per chunk of develop's colour pass.
COLOUR_BLOCKS = 4


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
    try:  # radii or angles near the float limits divide by zero or overflow
        b0, b1, b2 = gaussian_coefficients(r1, r2, theta)
        if not all(math.isfinite(b) for b in (b0, b1, b2)):
            raise OverflowError
    except (ZeroDivisionError, OverflowError, ValueError):  # ValueError: sin(inf)
        raise ParameterError("kernel parameters out of the representable range")
    half = (size - 1) // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    x, y = np.meshgrid(coords, coords)  # x: column offset, y: row offset
    # a quadratic form that overflows gives a zero tap, or a NaN one that
    # Kernel2D rejects
    with np.errstate(over="ignore", invalid="ignore"):
        taps = np.exp(-(b0 * x * x + 2.0 * b1 * x * y + b2 * y * y))
        return Kernel2D(taps / taps.sum())


def gaussian_coefficients(r1: float, r2: float, theta: float):
    """Quadratic-form coefficients of the rotated anisotropic Gaussian."""
    b0 = math.cos(theta) ** 2 / (2.0 * r1 * r1) + math.sin(theta) ** 2 / (2.0 * r2 * r2)
    b1 = math.sin(2.0 * theta) / (4.0 * r1 * r1) * ((r1 / r2) ** 2 - 1.0)
    b2 = math.sin(theta) ** 2 / (2.0 * r1 * r1) + math.cos(theta) ** 2 / (2.0 * r2 * r2)
    return b0, b1, b2


def default_kernel_size(r1: float, r2: float) -> int:
    """Support rule: 2*ceil(2*max(r1, r2)) + 1, capped at 21."""
    reach = 2.0 * max(r1, r2)
    if not math.isfinite(reach):
        raise ParameterError("kernel radius out of the representable range")
    return min(2 * math.ceil(reach) + 1, 21)


@dataclass(frozen=True)
class NilutWeights:
    """Residual per-pixel tanh MLP mapping RGB -> RGB, dims 3->32->32->32->3.

    With an all-zero final layer the map is the identity.
    """

    layers: tuple  # of (weight (in, out), bias (out,)) pairs

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
        return NilutWeights(layers=layers)


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
        if not all(is_finite_real(v) for v in scalars):
            raise ParameterError("ISP parameters must be finite numbers")
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
        return cls(g=1.0, r1=3.0, r2=2.0, theta=0.0, sigma=0.5, rho=1.0,
                   ccm=np.eye(3))


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


def _sog_means(data: np.ndarray, rho: float, map_bands=map) -> list:
    """The mean of np.clip(data, 0, None)[..., c] ** rho for each channel c
    of an (H, W, 3) array, from one reused (H, W) float64 plane.

    Per channel, map_bands (`map` on the caller's thread, or
    `pool.parallel_map`) fills the plane in bands of BAND_ROWS rows, and one
    np.mean sums the contiguous plane in numpy's fixed pairwise order. Each
    band clips its (h, W, 3) rows, and `**` reads the strided channel view
    of that clipped band, as it does on the whole image; a contiguous copy
    of the channel may round differently."""
    height = data.shape[0]
    plane = np.empty(data.shape[:2])
    means = []
    for c in range(3):
        def power(start):
            rows = slice(start, start + BAND_ROWS)
            plane[rows] = np.clip(data[rows], 0.0, None)[..., c] ** rho

        list(map_bands(power, range(0, height, BAND_ROWS)))
        means.append(float(np.mean(plane)))
    return means


def _sog_gains(means: list, rho: float) -> tuple:
    """Shades-of-Gray gains m_i = ||channel i||_rho / ||all channels||_rho
    from the three channel means of `_sog_means`. They are combined as
    3*p_i / (p_r + p_g + p_b), which is the same ratio but keeps
    equal-channel images exact fixed points."""
    total = (means[0] + means[1]) + means[2]
    if total == 0.0:
        return (1.0, 1.0, 1.0)
    return tuple((3.0 * p / total) ** (1.0 / rho) for p in means)


def sog_white_balance(img: LinearRgbImage, rho: float):
    """Shades-of-Gray gains (`_sog_means`, `_sog_gains`, on the caller's
    thread), then scale each channel by its gain (the literal
    multiply-by-gain form). Negative values are clamped to 0 inside the
    power only; the scaled output uses the unclamped image. Returns (image,
    (m_r, m_g, m_b)).
    """
    if rho < 1.0:
        raise ParameterError("rho must be >= 1")
    gains = _sog_gains(_sog_means(img.data, rho), rho)
    return LinearRgbImage(img.data * np.array(gains)), gains


def apply_ccm(img: LinearRgbImage, ccm: np.ndarray) -> LinearRgbImage:
    """Per-pixel row-vector times matrix: p -> p @ ccm."""
    ccm = np.asarray(ccm, dtype=np.float64)
    if ccm.shape != (3, 3) or not np.all(np.isfinite(ccm)):
        raise ParameterError("ccm must be a finite 3x3 matrix")
    out = matmul_rows(img.data.reshape(-1, 3), ccm)
    return LinearRgbImage(out.reshape(img.data.shape))


def matmul_rows(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix for an (N, 3) array and a 3x3 matrix, as GEMMs of
    CCM_BLOCK_ROWS rows, each on the calling thread (module docstring).
    Each output row is its own input row's three dot products, so the
    blocks give the bits of one product."""
    out = np.empty(rows.shape)
    for start in range(0, len(rows), CCM_BLOCK_ROWS):
        block = slice(start, start + CCM_BLOCK_ROWS)
        np.matmul(rows[block], matrix, out=out[block])
    return out


def nilut_forward(img: LinearRgbImage, weights: NilutWeights) -> LinearRgbImage:
    """Residual per-pixel MLP: out = in + MLP(in).

    An all-zero final weight matrix makes the MLP the constant b_last
    (h @ 0 is a signed zero), so that case is one add. Otherwise the MLP
    runs over blocks of NILUT_BLOCK_ROWS pixels, and a block whose length
    is a multiple of NILUT_GEMM_ROWS runs as a stack of GEMMs of that many
    rows (the same bits as one GEMM over the block; see NILUT_GEMM_ROWS).
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
            if len(block) % NILUT_GEMM_ROWS == 0:
                h = block.reshape(-1, NILUT_GEMM_ROWS, 3)
            for w, b in weights.layers[:-1]:
                h = h @ w
                h += b
                np.tanh(h, out=h)
            correction = h @ w_last
            correction += b_last
            np.add(block, correction.reshape(-1, 3),
                   out=out[start:start + NILUT_BLOCK_ROWS])
    return LinearRgbImage(out.reshape(img.height, img.width, 3))


def _kernel(params: IspParams, kernel_size: int | None) -> Kernel2D:
    """The blur kernel of params, kernel_size taps wide or, when None, as
    wide as `default_kernel_size` says."""
    if kernel_size is None:
        kernel_size = default_kernel_size(params.r1, params.r2)
    return make_gaussian_kernel(params.r1, params.r2, params.theta, kernel_size)


def develop_linear(rgb: LinearRgbImage, params: IspParams,
                   kernel_size: int | None = None, return_stages: bool = False):
    """The reference post-demosaic chain, on the whole frame and the
    caller's thread: gain_denoise_sharpen -> sog_white_balance -> apply_ccm
    -> nilut_forward. Returns the final image, or (final, stages) with
    stages 'denoised'/'white_balanced'/'color_corrected'."""
    kernel = _kernel(params, kernel_size)
    denoised = gain_denoise_sharpen(rgb, params.g, kernel, params.sigma)
    balanced, _ = sog_white_balance(denoised, params.rho)
    corrected = apply_ccm(balanced, params.ccm)
    final = nilut_forward(corrected, params.lut)
    if not return_stages:
        return final
    return final, {"denoised": denoised, "white_balanced": balanced,
                   "color_corrected": corrected}


def develop(bayer: BayerImage, params: IspParams,
            kernel_size: int | None = None) -> LinearRgbImage:
    """Run the full chain from mosaic to the final linear image.

    The output is bit for bit demosaic_bilinear followed by the reference
    `develop_linear` (which also returns the stages), but runs on
    `pool.WORKERS` threads (see the module docstring):

    1. spatial pass: each band of BAND_ROWS rows is demosaiced and denoised
       from its rows plus `band_halo` rows on each side; its own rows go
       into the output buffer;
    2. the Shades-of-Gray gains, from one channel power plane at a time,
       filled in bands (`_sog_means`, `_sog_gains`);
    3. colour pass, in place: gains, CCM and LUT over chunks of
       COLOUR_BLOCKS whole NILUT blocks.

    A non-finite value in any band or chunk raises ParameterError.
    """
    kernel = _kernel(params, kernel_size)
    height = bayer.height
    out = np.empty(bayer.data.shape + (3,))
    flat = out.reshape(-1, 3)
    halo = band_halo(kernel.size)
    rows = height if filter_path(kernel.taps) == "fft" else BAND_ROWS

    def spatial(start):
        stop = min(start + rows, height)
        lo, hi = max(start - halo, 0), min(stop + halo, height)
        demosaiced = demosaic_bilinear(replace(bayer, data=bayer.data[lo:hi]))
        denoised = gain_denoise_sharpen(demosaiced, params.g, kernel, params.sigma)
        out[start:stop] = denoised.data[start - lo:stop - lo]

    chunk = COLOUR_BLOCKS * NILUT_BLOCK_ROWS

    def colour(start):
        pixels = slice(start, start + chunk)
        balanced = LinearRgbImage((flat[pixels] * gains)[None])
        corrected = apply_ccm(balanced, params.ccm)
        flat[pixels] = nilut_forward(corrected, params.lut).data[0]

    parallel_map(spatial, range(0, height, rows))
    gains = np.array(_sog_gains(_sog_means(out, params.rho, parallel_map),
                                params.rho))
    parallel_map(colour, range(0, len(flat), chunk))
    return LinearRgbImage(out)


def band_halo(kernel_size: int) -> int:
    """Rows a band reads beyond its own on each side: the blur reaches
    kernel_size // 2 rows of the demosaiced image, whose rows each read one
    mosaic row more, rounded up to even so that every band starts on the
    same CFA row pair as the frame."""
    halo = kernel_size // 2 + 1
    return halo + halo % 2


def encode_display(img: LinearRgbImage, gamma: float = 2.2) -> np.ndarray:
    """Clamp, apply encoding gamma, quantize to uint8 (half away from zero),
    in one float temporary."""
    if not (is_finite_real(gamma) and gamma > 0):
        raise ParameterError(f"gamma must be finite and positive, not {gamma}")
    v = np.clip(img.data, 0.0, 1.0)
    v **= 1.0 / gamma  # `**` in place, with its fast paths for 2 and 0.5
    v *= 255.0
    v += 0.5
    return np.floor(v, out=v).astype(np.uint8)
