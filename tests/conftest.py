import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rawbench import BayerImage, CfaPattern, LinearRgbImage, NilutWeights
from rawbench.isp import NILUT_LAYER_DIMS
from rawbench.rng import RngStream

settings.register_profile(
    "default", deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def random_rgb(h, w, seed=0, lo=0.0, hi=1.0) -> LinearRgbImage:
    rng = RngStream.from_seed(seed)
    data = lo + (hi - lo) * rng.uniforms(h * w * 3).reshape(h, w, 3)
    return LinearRgbImage(data)


def random_bayer(h, w, seed=0, cfa=CfaPattern.RGGB) -> BayerImage:
    rng = RngStream.from_seed(seed)
    data = rng.uniforms(h * w).reshape(h, w)
    return BayerImage(data=data, cfa=cfa, bit_depth=12, black_level=64,
                      white_level=4095)


def random_lut(seed) -> NilutWeights:
    """A NILUT with Gaussian weights: scale 1/sqrt(fan-in), 0.1 on the last
    layer, biases 0.05."""
    rng = RngStream.from_seed(seed)
    dims = NILUT_LAYER_DIMS
    layers = []
    for i in range(len(dims) - 1):
        scale = 0.1 if i == len(dims) - 2 else 1.0 / dims[i] ** 0.5
        w = scale * rng.normals(dims[i] * dims[i + 1]).reshape(dims[i], dims[i + 1])
        layers.append((w, 0.05 * rng.normals(dims[i + 1])))
    return NilutWeights(layers=tuple(layers))


def constant_bayer(h, w, value, cfa=CfaPattern.RGGB) -> BayerImage:
    return BayerImage(data=np.full((h, w), value), cfa=cfa, bit_depth=12,
                      black_level=64, white_level=4095)


@pytest.fixture
def rgb16():
    return random_rgb(16, 16, seed=7)


@pytest.fixture
def bayer16():
    return random_bayer(16, 16, seed=3)
