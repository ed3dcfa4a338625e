"""Derivative-free fitting of pipeline parameters against a target image.

The search space is the unconstrained predictor vector (kernel-side gain,
radius biases, sharpen logit; matrix-side rho pre-activation and 9 CCM
biases) with the fixed kernel-angle slot excluded: 14 dimensions, mapped
through constrain_params before every evaluation so only valid parameter
sets are ever developed. LUT weights stay at identity unless the config
enables the 3-dim output-bias perturbation.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError
from .isp import (IspParams, RAW_PARAM_LEN, THETA_SLOT, constrain_params,
                  develop_linear)
from .raw import BayerImage, LinearRgbImage, demosaic_bilinear
from .rng import RngStream

FIT_DIMS = RAW_PARAM_LEN - 1  # theta slot excluded
LUT_DIMS = 3

DEFAULT_BOUNDS = (
    (-0.9, 7.0),    # gain bias
    (-2.5, 4.0),    # major-axis bias
    (-1.5, 4.0),    # minor-axis bias
    (-6.0, 6.0),    # sigma logit
    (0.0, 7.0),     # rho pre-activation
) + ((-1.0, 1.0),) * 9  # ccm biases
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
        if self.budget < 1:
            raise ParameterError("budget must be >= 1")
        if self.population < 2:
            raise ParameterError("population must be >= 2")

    def resolved_bounds(self) -> np.ndarray:
        dims = FIT_DIMS + (LUT_DIMS if self.fit_lut else 0)
        if self.bounds is None:
            bounds = DEFAULT_BOUNDS
            if self.fit_lut:
                bounds = bounds + DEFAULT_LUT_BOUNDS
        else:
            bounds = tuple(tuple(b) for b in self.bounds)
        arr = np.asarray(bounds, dtype=np.float64)
        if arr.shape != (dims, 2):
            raise ParameterError(f"bounds must be {dims} (lo, hi) pairs")
        if np.any(arr[:, 0] >= arr[:, 1]):
            raise ParameterError("infeasible bounds: lo must be below hi")
        return arr


@dataclass
class FitTrace:
    """Every evaluation in order: (index, search vector, loss)."""

    entries: list = field(default_factory=list)

    def record(self, vector: np.ndarray, loss: float) -> int:
        idx = len(self.entries)
        self.entries.append((idx, vector.copy(), loss))
        return idx

    def best_so_far(self) -> list:
        out, best = [], np.inf
        for _, _, loss in self.entries:
            best = min(best, loss)
            out.append(best)
        return out


def image_loss(a: LinearRgbImage, b: LinearRgbImage, kind: str = "l1") -> float:
    if a.data.shape != b.data.shape:
        raise DimensionError("images differ in shape")
    diff = a.data - b.data
    if kind == "l1":
        return float(np.mean(np.abs(diff)))
    if kind == "l2":
        return float(np.mean(diff * diff))
    raise ParameterError("loss must be 'l1' or 'l2'")


def vector_to_params(vector: np.ndarray, fit_lut: bool = False) -> IspParams:
    """Insert the fixed angle slot and constrain into valid parameters."""
    vector = np.asarray(vector, dtype=np.float64)
    base = vector[:FIT_DIMS]
    raw = np.insert(base, THETA_SLOT, 0.0)
    assert raw.shape == (RAW_PARAM_LEN,)
    params = constrain_params(raw, mode="normal")
    if fit_lut:
        lut = params.lut.with_output_bias(vector[FIT_DIMS:FIT_DIMS + LUT_DIMS])
        params = IspParams(g=params.g, r1=params.r1, r2=params.r2,
                           theta=params.theta, sigma=params.sigma,
                           rho=params.rho, ccm=params.ccm, lut=lut)
    return params


def _coordinate_search(evaluate, x0, bounds, budget, init_step):
    """Cyclic coordinate descent with per-axis adaptive steps (x2 on success,
    x0.5 on failure). Deterministic; no randomness consumed."""
    dims = len(x0)
    x = x0.copy()
    best = evaluate(x)
    spans = bounds[:, 1] - bounds[:, 0]
    steps = init_step * spans
    used = 1
    while used < budget and np.any(steps > 1e-12 * spans):
        improved_any = False
        for d in range(dims):
            if used >= budget:
                break
            for direction in (+1.0, -1.0):
                if used >= budget:
                    break
                cand = x.copy()
                cand[d] = np.clip(cand[d] + direction * steps[d],
                                  bounds[d, 0], bounds[d, 1])
                if cand[d] == x[d]:
                    continue
                loss = evaluate(cand)
                used += 1
                if loss < best:
                    best, x = loss, cand
                    steps[d] = min(steps[d] * 2.0, spans[d])
                    improved_any = True
                    break
            else:
                steps[d] *= 0.5
        if not improved_any:
            # entire sweep failed; steps already halved axis by axis
            continue
    return x, best, used


def _evolution_strategy(evaluate, x0, bounds, budget, init_step, population, rng):
    """Elitist (1+lambda) strategy with a global multiplicative step size."""
    x = x0.copy()
    best = evaluate(x)
    spans = bounds[:, 1] - bounds[:, 0]
    scale = init_step
    used = 1
    while used < budget and scale > 1e-14:
        lam = min(population, budget - used)
        z = rng.normals(lam * len(x)).reshape(lam, len(x))
        cands = np.clip(x + scale * spans * z, bounds[:, 0], bounds[:, 1])
        losses = []
        for i in range(lam):
            losses.append(evaluate(cands[i]))
        used += lam
        i_best = int(np.argmin(losses))  # first minimum wins ties
        if losses[i_best] < best:
            best = losses[i_best]
            x = cands[i_best]
            scale = min(scale * 1.5, 1.0)
        else:
            scale *= 0.7
    return x, best, used


def fit_isp_params(bayer: BayerImage, target: LinearRgbImage,
                   config: FitConfig):
    """Minimize image_loss(develop(bayer, params), target) over the
    constrained parameter box. Returns (best IspParams, FitTrace)."""
    base = demosaic_bilinear(bayer)
    if (base.height, base.width) != (target.height, target.width):
        raise DimensionError("target dimensions do not match the demosaiced raw")
    bounds = config.resolved_bounds()
    trace = FitTrace()
    best_vec = {"v": None, "loss": np.inf}

    def evaluate(vector):
        params = vector_to_params(vector, config.fit_lut)
        out = develop_linear(base, params, kernel_size=config.kernel_size)
        loss = image_loss(out, target, config.loss)
        trace.record(vector, loss)
        if loss < best_vec["loss"]:
            best_vec["loss"] = loss
            best_vec["v"] = np.asarray(vector, dtype=np.float64).copy()
        return loss

    x0 = np.clip(np.zeros(bounds.shape[0]), bounds[:, 0], bounds[:, 1])
    if config.optimizer == "coordinate":
        _coordinate_search(evaluate, x0, bounds, config.budget, config.init_step)
    else:
        rng = RngStream.from_seed(config.seed)
        _evolution_strategy(evaluate, x0, bounds, config.budget,
                            config.init_step, config.population, rng)
    return vector_to_params(best_vec["v"], config.fit_lut), trace


def finite_difference_sensitivity(bayer: BayerImage, target: LinearRgbImage,
                                  vector: np.ndarray, index: int, step: float,
                                  config: FitConfig | None = None) -> float:
    """Central difference of the fit loss along one search dimension."""
    if step <= 0:
        raise ParameterError("step must be positive")
    config = config or FitConfig()
    bounds = config.resolved_bounds()
    vector = np.asarray(vector, dtype=np.float64)
    lo, hi = bounds[index]
    if vector[index] - step < lo or vector[index] + step > hi:
        raise ParameterError("central difference leaves the feasible box")
    base = demosaic_bilinear(bayer)

    def loss_at(v):
        params = vector_to_params(v, config.fit_lut)
        out = develop_linear(base, params, kernel_size=config.kernel_size)
        return image_loss(out, target, config.loss)

    plus, minus = vector.copy(), vector.copy()
    plus[index] += step
    minus[index] -= step
    return (loss_at(plus) - loss_at(minus)) / (2.0 * step)
