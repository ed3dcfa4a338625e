"""Derivative-free fitting of pipeline parameters against a target image.

The module owns the search space: a FIT_DIMS-slot unconstrained vector
whose slots, bounds and map onto valid IspParams (`vector_to_params`) sit
together below, so only valid parameter sets are ever developed. LUT
weights stay at identity unless the config enables the 3-dim output-bias
perturbation. The fitted params leave out config.kernel_size: develop them
with it, not `isp.default_kernel_size`.

One LossEvaluator, built once per fit, scores every search vector. It
computes the same loss as develop_linear followed by image_loss, but
factors the developed image as

    out = W(r1, r2, sigma, rho) @ (g * CCM) + b_lut

where D1 = gain_denoise_sharpen(base, 1, kernel(r1, r2), sigma) is the
spatial part at unit gain and W = sog_white_balance(D1, rho). Each step is
exact in real arithmetic, so the l1 loss differs from develop_linear's by
rounding alone (a few 1e-16 relative):

- the blur and the sharpen blend are linear, so the gain-g output is g*D1;
- Shades-of-Gray gains are ratios of power means, which scaling the image
  by g >= 0 leaves unchanged, so g moves from the image into the matrix;
- vector_to_params always yields a LUT whose last weight matrix is zero,
  so nilut_forward adds its last bias b_lut (checked on every evaluation).

The evaluator owns the incumbent (the best vector so far, with its D1 and
W) and the trace of (vector, loss) pairs. `score` computes a vector's loss
from the incumbent's cached parts and changes nothing, so candidates may be
scored in any order or on any thread; calling the evaluator scores, records
and commits a better vector with its parts as the incumbent. The optimizers
are step rules: they draw each candidate around evaluator.best_vector and
count evaluations by the trace's length, so every candidate steps from the
vector whose parts are cached. A candidate that changes only g, the CCM or
the LUT bias reuses W; one that changes only rho reuses D1 and redoes the
white balance. For the l2 loss W is kept only as its 3x3 moments (W'W, W'1,
W'T), so a cached evaluation costs O(1) in the image size. Expanding the
square costs absolute accuracy: the l2 loss carries an error of a few ulps
of the target's mean square (about 2e-15 on unit range images), up to
about 1e-12 relative at the losses a fit meets.

The l1 loss's W @ (g * CCM) runs through `isp.matmul_rows`, in GEMMs small
enough for OpenBLAS to keep on the calling thread, with the bits of one
product. The l2 moments stay single products over every pixel: their inner
dimension is the pixel count, so above 29,127 pixels OpenBLAS threads
them, but splitting that sum into blocks would change its rounding.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ParameterError, is_finite_real, is_int
from .isp import (IspParams, NilutWeights, gain_denoise_sharpen,
                  make_gaussian_kernel, matmul_rows, sog_white_balance)
from .raw import BayerImage, LinearRgbImage, demosaic_bilinear
from .rng import RngStream, check_seed

# The search vector: each slot's default bounds and the map vector_to_params
# applies to it. The kernel angle theta is always 0.
FIT_DIMS = 14
LUT_DIMS = 3
DEFAULT_BOUNDS = (
    (-0.9, 7.0),    # [0] gain bias: g = 1 + v[0]
    (-2.5, 4.0),    # [1] major-axis bias: r1 = 3 + v[1], floored at 0.1
    (-1.5, 4.0),    # [2] minor-axis bias: r2 = 2 + v[2], floored at 0.1
    (-6.0, 6.0),    # [3] sigma logit: sigma = logistic(v[3])
    (0.0, 7.0),     # [4] rho pre-activation: rho = 1 + max(0, v[4])
) + ((-1.0, 1.0),) * 9  # [5:14] ccm biases: ccm = I3 + reshape(v[5:14], (3, 3))
# [14:17], with fit_lut only: the LUT's output bias
DEFAULT_LUT_BOUNDS = ((-0.5, 0.5),) * LUT_DIMS


@dataclass(frozen=True)
class FitConfig:
    loss: str = "l1"                 # l1 | l2
    optimizer: str = "coordinate"    # coordinate | evolution
    budget: int = 2000
    bounds: tuple | None = None      # per-dim (lo, hi); default when None
    population: int = 10
    init_step: float = 0.25          # fraction of each bound range
    seed: int = 0
    kernel_size: int = 13            # fixed so the search space is smooth
    fit_lut: bool = False

    def __post_init__(self):
        if self.loss not in ("l1", "l2"):
            raise ParameterError("loss must be 'l1' or 'l2'")
        if self.optimizer not in ("coordinate", "evolution"):
            raise ParameterError("optimizer must be 'coordinate' or 'evolution'")
        for name in ("budget", "population", "kernel_size"):
            if not is_int(getattr(self, name)):
                raise ParameterError(f"{name} must be an integer")
        check_seed(self.seed)
        if not isinstance(self.fit_lut, bool):
            raise ParameterError("fit_lut must be true or false")
        if not (is_finite_real(self.init_step) and 0.0 < self.init_step <= 1.0):
            raise ParameterError("init_step must be a finite number in (0, 1]")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ParameterError("kernel_size must be odd and >= 1")
        if self.budget < 1:
            raise ParameterError("budget must be >= 1")
        if self.population < 2:
            raise ParameterError("population must be >= 2")
        self.resolved_bounds()

    def resolved_bounds(self) -> np.ndarray:
        dims = FIT_DIMS + (LUT_DIMS if self.fit_lut else 0)
        if self.bounds is None:
            bounds = DEFAULT_BOUNDS
            if self.fit_lut:
                bounds = bounds + DEFAULT_LUT_BOUNDS
        else:
            bounds = self.bounds
        try:
            arr = np.asarray(bounds, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            arr = None
        if arr is None or arr.shape != (dims, 2):
            raise ParameterError(f"bounds must be {dims} (lo, hi) pairs")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("bounds must be finite")
        if np.any(arr[:, 0] >= arr[:, 1]):
            raise ParameterError("infeasible bounds: lo must be below hi")
        return arr


def image_loss(a: LinearRgbImage, b: LinearRgbImage, kind: str = "l1") -> float:
    if a.data.shape != b.data.shape:
        raise DimensionError("images differ in shape")
    diff = a.data - b.data
    if kind == "l1":
        return float(np.mean(np.abs(diff)))
    if kind == "l2":
        return float(np.mean(diff * diff))
    raise ParameterError("loss must be 'l1' or 'l2'")


def vector_to_params(vector, fit_lut: bool = False) -> IspParams:
    """Map a search vector onto valid parameters, slot by slot as the
    DEFAULT_BOUNDS table says. It must have FIT_DIMS slots, or FIT_DIMS +
    LUT_DIMS with fit_lut."""
    v = np.asarray(vector, dtype=np.float64)
    dims = FIT_DIMS + (LUT_DIMS if fit_lut else 0)
    if v.shape != (dims,):
        raise ParameterError(f"parameter vector must have length {dims}")
    # exp overflows below a logit of about -709; sigma is at its floor there
    sigma = 1.0 / (1.0 + math.exp(min(-float(v[3]), 700.0)))
    sigma = min(max(sigma, 1e-12), 1.0 - 1e-12)
    lut = NilutWeights.identity()
    if fit_lut:
        lut = lut.with_output_bias(v[FIT_DIMS:])
    return IspParams(g=1.0 + float(v[0]), r1=max(3.0 + float(v[1]), 0.1),
                     r2=max(2.0 + float(v[2]), 0.1), theta=0.0, sigma=sigma,
                     rho=1.0 + max(0.0, float(v[4])),
                     ccm=np.eye(3) + v[5:14].reshape(3, 3), lut=lut)


class _Incumbent(NamedTuple):
    spatial_key: tuple      # (r1, r2, theta, sigma)
    denoised: LinearRgbImage  # D1: the spatial part at unit gain
    color_key: tuple        # spatial_key + (rho,)
    basis: object           # LossEvaluator._color_basis of W


class LossEvaluator:
    """image_loss(develop_linear(base, vector_to_params(v)), target) for
    search vectors v, reusing the spatial part of the best vector so far
    (see the module docstring). `best` and `best_vector` track the lowest
    loss seen; a later tie does not replace it. `trace` lists every
    evaluation as a (vector, loss) pair, in order, so its length is the
    number made."""

    def __init__(self, base: LinearRgbImage, target: LinearRgbImage,
                 config: FitConfig):
        if (base.height, base.width) != (target.height, target.width):
            raise DimensionError("target dimensions do not match the demosaiced raw")
        self._config = config
        self.best = np.inf
        self.best_vector = None
        self.trace = []
        self._base = base
        self._target = target.data.reshape(-1, 3)
        if config.loss == "l2":
            self._target_sum = self._target.sum(axis=0)
            self._target_sq = float(np.sum(self._target * self._target))
        self._incumbent = None  # the best vector's cached parts

    def score(self, vector) -> tuple:
        """(loss, parts) of a search vector, where parts are the cached
        D1 and W it would leave as the incumbent. Reads the incumbent's
        parts and changes nothing."""
        params = vector_to_params(vector, self._config.fit_lut)
        w_last, b_last = params.lut.layers[-1]
        assert not np.any(w_last), "a fit LUT must have a zero last layer"
        spatial_key = (params.r1, params.r2, params.theta, params.sigma)
        color_key = spatial_key + (params.rho,)
        held = self._incumbent
        if held is not None and held.color_key == color_key:
            d1, basis = held.denoised, held.basis
        else:
            if held is not None and held.spatial_key == spatial_key:
                d1 = held.denoised
            else:
                kernel = make_gaussian_kernel(params.r1, params.r2, params.theta,
                                              self._config.kernel_size)
                d1 = gain_denoise_sharpen(self._base, 1.0, kernel, params.sigma)
            balanced, _ = sog_white_balance(d1, params.rho)
            basis = self._color_basis(balanced.data.reshape(-1, 3))
        loss = self._loss(basis, params.g * params.ccm, b_last)
        if not math.isfinite(loss):
            raise ParameterError("rgb image contains non-finite values")
        return loss, _Incumbent(spatial_key, d1, color_key, basis)

    def __call__(self, vector) -> float:
        """Score the vector, append it to the trace and, if its loss is
        below the best, commit it and its parts as the incumbent."""
        vector = np.array(vector, dtype=np.float64)
        loss, parts = self.score(vector)
        self.trace.append((vector, loss))
        if loss < self.best:
            self.best, self.best_vector, self._incumbent = loss, vector, parts
        return loss

    def _color_basis(self, balanced: np.ndarray):
        """What the loss needs of the white-balanced pixels W: W itself for
        l1, its moments (W'W, W'1, W'T) for l2."""
        if self._config.loss == "l1":
            return balanced
        return (balanced.T @ balanced, balanced.sum(axis=0),
                balanced.T @ self._target)

    def _loss(self, basis, matrix: np.ndarray, bias: np.ndarray) -> float:
        if self._config.loss == "l1":
            out = matmul_rows(basis, matrix)
            out += bias
            out -= self._target
            np.abs(out, out=out)
            return float(np.mean(out))
        # sum_p |w_p M + b - t_p|^2 expanded over the moments; the terms
        # cancel to within a few ulps of the target's mean square, so a
        # near-zero loss can round below 0
        gram, col_sum, cross = basis
        total = (np.sum(matrix * (gram @ matrix))
                 + 2.0 * float(col_sum @ matrix @ bias)
                 - 2.0 * np.sum(matrix * cross)
                 - 2.0 * float(bias @ self._target_sum)
                 + self._target.shape[0] * float(bias @ bias)
                 + self._target_sq)
        return max(float(total), 0.0) / self._target.size


def _coordinate_search(evaluator, bounds, budget, init_step):
    """Cyclic coordinate descent from evaluator.best_vector with per-axis
    adaptive steps (x2 on success, x0.5 on failure). Deterministic; no
    randomness consumed."""
    trace = evaluator.trace
    spans = bounds[:, 1] - bounds[:, 0]
    steps = init_step * spans
    while len(trace) < budget and np.any(steps > 1e-12 * spans):
        for d in range(len(spans)):
            x, best = evaluator.best_vector, evaluator.best
            for direction in (+1.0, -1.0):
                if len(trace) >= budget:
                    break
                cand = x.copy()
                cand[d] = np.clip(cand[d] + direction * steps[d],
                                  bounds[d, 0], bounds[d, 1])
                if cand[d] == x[d]:
                    continue
                if evaluator(cand) < best:
                    steps[d] = min(steps[d] * 2.0, spans[d])
                    break
            else:
                steps[d] *= 0.5


def _evolution_strategy(evaluator, bounds, budget, init_step, population, rng):
    """Elitist (1+lambda) strategy around evaluator.best_vector with a global
    multiplicative step size: x1.5 when a generation lowers the best loss,
    x0.7 otherwise."""
    trace = evaluator.trace
    spans = bounds[:, 1] - bounds[:, 0]
    scale = init_step
    while len(trace) < budget and scale > 1e-14:
        x, best = evaluator.best_vector, evaluator.best
        lam = min(population, budget - len(trace))
        z = rng.normals(lam * len(x)).reshape(lam, len(x))
        for cand in np.clip(x + scale * spans * z, bounds[:, 0], bounds[:, 1]):
            evaluator(cand)
        scale = min(scale * 1.5, 1.0) if evaluator.best < best else scale * 0.7


def fit_isp_params(bayer: BayerImage, target: LinearRgbImage,
                   config: FitConfig):
    """Minimize image_loss(develop(bayer, params), target) over the
    constrained parameter box, starting from the origin clipped into it.
    Returns the best IspParams and the trace, a list of (vector, loss)
    pairs in evaluation order."""
    evaluator = LossEvaluator(demosaic_bilinear(bayer), target, config)
    bounds = config.resolved_bounds()
    evaluator(np.clip(np.zeros(len(bounds)), bounds[:, 0], bounds[:, 1]))
    if config.optimizer == "coordinate":
        _coordinate_search(evaluator, bounds, config.budget, config.init_step)
    else:
        rng = RngStream.from_seed(config.seed)
        _evolution_strategy(evaluator, bounds, config.budget,
                            config.init_step, config.population, rng)
    return vector_to_params(evaluator.best_vector, config.fit_lut), evaluator.trace
