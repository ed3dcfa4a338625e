"""rawbench: parametric camera-ISP simulation, RAW-domain corruption
synthesis, augmentation sampling, robustness metrics, and derivative-free
parameter fitting."""

from .raw import (BayerImage, CfaPattern, GrayImage, LinearRgbImage,
                  demosaic_bilinear, mosaic, normalize_raw, spatial_filter,
                  visualize_raw)
from .isp import (IspParams, Kernel2D, NilutWeights, QalWeights, apply_ccm,
                  constrain_params, develop, develop_linear, encode_display,
                  gain_denoise_sharpen, make_gaussian_kernel, nilut_forward,
                  qal_forward, sog_white_balance)
from .corrupt import (CorruptionSpec, DepthMap, KINDS, NoiseModel,
                      apply_corruption)
from .augment import AugmentConfig, TruncatedNormal, augment_pipeline
from .metrics import (EvalRecord, RobustnessReport, build_report,
                      corruption_degradation, relative_cd, truncated_mean)
from .fit import FitConfig, FitTrace, fit_isp_params, image_loss
from .rng import RngStream

__version__ = "0.1.0"
