"""Bayer mosaic fundamentals: image types, CFA handling, mosaic/demosaic,
black/white-level normalization, and the green-average visualization.

All images hold float64 data and are treated as immutable; every operation
returns a fresh array. Convolution-like operations use whole-sample mirror
borders throughout the package.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.ndimage import convolve, convolve1d

from .errors import DimensionError, ParameterError

BORDER_MODE = "mirror"

_R, _G, _B = 0, 1, 2


class CfaPattern(Enum):
    RGGB = "RGGB"
    BGGR = "BGGR"
    GRBG = "GRBG"
    GBRG = "GBRG"

    def tile(self) -> np.ndarray:
        """2x2 array of channel indices (0=R, 1=G, 2=B) by (row%2, col%2)."""
        letters = {"R": _R, "G": _G, "B": _B}
        v = [letters[c] for c in self.value]
        return np.array([[v[0], v[1]], [v[2], v[3]]], dtype=np.int64)

    def channel_masks(self, height: int, width: int) -> list[np.ndarray]:
        """Boolean (H, W) masks [red, green, blue] of measured positions."""
        grid = np.tile(self.tile(), ((height + 1) // 2, (width + 1) // 2))
        grid = grid[:height, :width]
        return [grid == c for c in (_R, _G, _B)]


@dataclass(frozen=True)
class BayerImage:
    """Single-channel linear mosaic, normalized to [0, 1].

    The original integer code domain survives only as metadata
    (bit_depth, black_level, white_level).
    """

    data: np.ndarray
    cfa: CfaPattern
    bit_depth: int
    black_level: int
    white_level: int

    def __post_init__(self):
        d = self.data
        if d.ndim != 2:
            raise DimensionError("mosaic data must be 2-D")
        h, w = d.shape
        if h % 2 or w % 2:
            raise DimensionError("mosaic dimensions must be even (full CFA tiles)")
        if not np.all(np.isfinite(d)):
            raise ParameterError("mosaic contains non-finite values")
        if d.min() < 0.0 or d.max() > 1.0:
            raise ParameterError("mosaic values must lie in [0, 1]")
        if self.bit_depth < 8:
            raise ParameterError("bit_depth must be >= 8")
        if not 0 <= self.black_level < self.white_level <= 2**self.bit_depth - 1:
            raise ParameterError(
                "require 0 <= black_level < white_level <= 2^bit_depth - 1"
            )

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LinearRgbImage:
    """3-channel linear radiometric image; finite but deliberately unclamped."""

    data: np.ndarray  # (H, W, 3)

    def __post_init__(self):
        if self.data.ndim != 3 or self.data.shape[2] != 3:
            raise DimensionError("rgb data must have shape (H, W, 3)")
        if not np.all(np.isfinite(self.data)):
            raise ParameterError("rgb image contains non-finite values")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class GrayImage:
    """Single plane in [0, 1] (display/visualization target)."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 2:
            raise DimensionError("gray data must be 2-D")
        if self.data.min() < 0.0 or self.data.max() > 1.0:
            raise ParameterError("gray values must lie in [0, 1]")


def normalize_raw(codes, black_level: int, white_level: int, bit_depth: int,
                  cfa: CfaPattern) -> BayerImage:
    """Map integer sensor codes to [0, 1]: (v - black) / (white - black), clamped."""
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise DimensionError("codes must be a 2-D array")
    if black_level >= white_level:
        raise ParameterError("black_level must be below white_level")
    if codes.min() < 0 or codes.max() > 2**bit_depth - 1:
        raise ParameterError("codes outside [0, 2^bit_depth - 1]")
    data = (codes.astype(np.float64) - black_level) / float(white_level - black_level)
    np.clip(data, 0.0, 1.0, out=data)
    return BayerImage(data=data, cfa=cfa, bit_depth=bit_depth,
                      black_level=black_level, white_level=white_level)


def mosaic(rgb: LinearRgbImage, cfa: CfaPattern, bit_depth: int = 16,
           black_level: int = 0, white_level: int = 65535) -> BayerImage:
    """Sample one channel per pixel according to the CFA (demosaic inverse)."""
    h, w = rgb.height, rgb.width
    if h % 2 or w % 2:
        raise DimensionError("mosaic requires even dimensions")
    if rgb.data.min() < 0.0 or rgb.data.max() > 1.0:
        raise ParameterError("mosaic input must lie in [0, 1]")
    masks = cfa.channel_masks(h, w)
    data = np.zeros((h, w))
    for c in range(3):
        data[masks[c]] = rgb.data[..., c][masks[c]]
    return BayerImage(data=data, cfa=cfa, bit_depth=bit_depth,
                      black_level=black_level, white_level=white_level)


# Rank-1 test tolerance: taps rebuilt from their peak row and column must
# match every tap to this fraction of the largest tap.
SEPARABLE_RTOL = 1e-12
# Two 1-D passes beat one 2-D pass only from this many taps on (2-D vs
# separable at 1024^2 x 3, 2 cores: 3x3 0.05 s vs 0.10 s, 5x5 0.09 s vs
# 0.11 s, 7x7 0.16 s vs 0.11 s).
SEPARABLE_MIN_TAPS = 26
# scipy.ndimage's 2-D convolution leaves out every tap with |w| at or below
# machine epsilon, so only taps above it cost direct-path work.
EFFECTIVE_TAP = np.finfo(np.float64).eps
# Taps that are not rank 1 go through the FFT from this many effective taps
# on. Direct vs FFT in ms on (N, N, 3) data, 2 cores; the crossover lies
# between 49 and 64 effective taps at every size:
#   taps (kernel)          128^2     256^2      512^2       1024^2
#   49 (7x7 dense)       2.7/3.0   5.6/8.6   36.7/30.9   154/167
#   49 (r=4 disk)        1.5/2.1   9.8/10.6  41.7/43.5   115/134
#   64 (8x8 dense)       3.6/2.6  11.3/7.4   55.3/43.4   200/146
#   81 (9x9 dense)       2.6/1.8  14.0/10.1  66.3/36.6   190/150
#   441 (21x21 rotated) 20.6/1.4  72.8/11.8   348/40.6  1448/172
FFT_MIN_TAPS = 64


def separable_factors(taps: np.ndarray):
    """(column, row) with taps == outer(column, row), or None if not rank 1.

    The factors come from the row and column through the largest tap, so
    the test costs one outer product and no decomposition.
    """
    peak = np.unravel_index(np.argmax(np.abs(taps)), taps.shape)
    scale = taps[peak]
    if scale == 0.0:
        return None
    column = taps[:, peak[1]]
    row = taps[peak[0], :] / scale
    if np.max(np.abs(np.outer(column, row) - taps)) > SEPARABLE_RTOL * abs(scale):
        return None
    return column, row


def _fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a length the FFT transforms quickly."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            f = f35
            while f < n:
                f *= 2
            best = min(best, f)
            f35 *= 3
        f5 *= 5
    return best


def _fft_filter(data: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """`convolve(data, taps, mode="mirror")` per channel, through the FFT.

    The input is mirror-padded ("reflect" in np.pad is ndimage's "mirror")
    by kh - 1 - kh // 2 rows before and kh // 2 after, which puts the
    kernel's origin where `convolve` puts it for odd and even sizes alike.
    The transform needs only the padded length: the wrap-around of the
    circular convolution lands in the first kh - 1 rows, which are cropped.
    Channels move to the front so that each plane is transformed over
    contiguous rows (about 20% faster at 512^2 x 3 than strided rows).
    numpy.fft, not scipy.fft: `import rawbench` already loads it, while
    importing scipy.fft adds about 35 ms to start-up for transforms only
    about 8% faster at this size.
    """
    (kh, kw), (h, w) = taps.shape, data.shape[:2]
    planes = data if data.ndim == 2 else np.moveaxis(data, 2, 0)
    pad = [(0, 0)] * (planes.ndim - 2) + [(kh - 1 - kh // 2, kh // 2),
                                          (kw - 1 - kw // 2, kw // 2)]
    padded = np.pad(planes, pad, mode="reflect")
    shape = (_fast_len(padded.shape[-2]), _fast_len(padded.shape[-1]))
    spectrum = np.fft.rfft2(padded, shape)
    spectrum *= np.fft.rfft2(taps, shape)
    out = np.fft.irfft2(spectrum, shape)[..., kh - 1:kh - 1 + h, kw - 1:kw - 1 + w]
    return np.ascontiguousarray(out if data.ndim == 2 else np.moveaxis(out, 0, 2))


def spatial_filter(data: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Convolve an (H, W) or (H, W, C) array with 2-D taps over its two
    spatial axes, every channel alike, with whole-sample mirror borders.

    One of three paths runs, chosen from the taps alone:

    - separable: rank-1 taps (an axis-aligned Gaussian, a box) with at
      least SEPARABLE_MIN_TAPS taps run as two 1-D passes, one per axis,
      O(kh + kw) work per sample instead of O(kh * kw);
    - FFT: other taps with at least FFT_MIN_TAPS effective taps, such as
      a rotated Gaussian or a large defocus disk, cost O(log(H * W)) per
      sample whatever the kernel size;
    - direct: everything else takes one 2-D convolution: motion-blur lines
      and small disks (few effective taps), and small kernels such as the
      demosaic kernels or a 1x1 tap, where one pass is cheaper than two.

    Effective taps are those with |w| > EFFECTIVE_TAP: the direct
    convolution skips every other tap, so its cost follows their count and
    not the kernel's size; a 21x21 motion-blur line has about 40.
    The paths agree to rounding (about 1e-15 on unit-range data).
    """
    taps = np.asarray(taps, dtype=np.float64)
    if taps.ndim != 2 or not np.all(np.isfinite(taps)):
        raise ParameterError("filter taps must be a finite 2-D array")
    if data.ndim not in (2, 3):
        raise DimensionError("filter input must be (H, W) or (H, W, C)")
    path = filter_path(taps)
    if path == "separable":
        column, row = separable_factors(taps)
        out = convolve1d(data, column, axis=0, mode=BORDER_MODE)
        return convolve1d(out, row, axis=1, mode=BORDER_MODE)
    if path == "fft":
        return _fft_filter(data, taps)
    kernel = taps if data.ndim == 2 else taps[..., None]
    return convolve(data, kernel, mode=BORDER_MODE)


def filter_path(taps: np.ndarray) -> str:
    """The path `spatial_filter` takes for these taps: "separable", "fft"
    or "direct". The separable and direct paths compute every output sample
    from its own neighbourhood alone; the FFT path's rounding depends on the
    whole transformed array."""
    if taps.size >= SEPARABLE_MIN_TAPS and separable_factors(taps) is not None:
        return "separable"
    if np.count_nonzero(np.abs(taps) > EFFECTIVE_TAP) >= FFT_MIN_TAPS:
        return "fft"
    return "direct"


# Interpolation kernels: green sits on a quincunx (cross neighbors), red/blue
# on a rectangular half-grid (side + diagonal neighbors).
_KERNEL_G = np.array([[0.0, 0.25, 0.0],
                      [0.25, 1.0, 0.25],
                      [0.0, 0.25, 0.0]])
_KERNEL_RB = np.array([[0.25, 0.5, 0.25],
                       [0.5, 1.0, 0.5],
                       [0.25, 0.5, 0.25]])


def demosaic_bilinear(bayer: BayerImage) -> LinearRgbImage:
    """Bilinear CFA interpolation; measured samples are kept bit-exactly."""
    data = bayer.data
    masks = bayer.cfa.channel_masks(bayer.height, bayer.width)
    planes = []
    for c, kernel in ((_R, _KERNEL_RB), (_G, _KERNEL_G), (_B, _KERNEL_RB)):
        # No normalizing denominator: the kernel convolved with the mask is
        # exactly 1.0 at every interpolated site. Same-colour neighbour
        # weights sum to 1, and whole-sample mirror borders reflect about a
        # sample (index -1 -> 1), keeping the CFA parity across the edge.
        interp = spatial_filter(data * masks[c], kernel)
        planes.append(np.where(masks[c], data, interp))
    return LinearRgbImage(np.stack(planes, axis=-1))


def visualize_raw(bayer: BayerImage) -> GrayImage:
    """Per-tile green average with encoding gamma 1/1.4, tile-replicated."""
    tile = bayer.cfa.tile()
    gpos = np.argwhere(tile == _G)  # two green sites per 2x2 tile
    (r0, c0), (r1, c1) = gpos
    g_avg = 0.5 * (bayer.data[r0::2, c0::2] + bayer.data[r1::2, c1::2])
    vis = np.clip(g_avg, 0.0, 1.0) ** (1.0 / 1.4)
    full = np.repeat(np.repeat(vis, 2, axis=0), 2, axis=1)
    return GrayImage(np.clip(full, 0.0, 1.0))
