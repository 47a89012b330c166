"""Differentiable rational transfer functions for block-oriented system identification."""

from .tf_core import (
    FilterDivergenceError,
    TransferFunction,
    convolve_truncated,
    filter_forward,
    flip,
    frequency_response,
    impulse_response,
)
from .tape import Node, Parameter, Tape
from .blocks import (
    BlockModel,
    MimoTransferFunction,
    Mlp,
    ModelFile,
    Normalization,
    ParallelMlp,
    PolyStatic,
    build_pwh,
    build_wh,
)
from .pem import (
    PemModel,
    estimated_noise_filter,
    one_step_predictor,
    pem_loss,
    prediction_error,
)
from .quantized import (
    Quantizer,
    log_phi_cdf_diff,
    phi_cdf,
    quantize,
    quantized_loglik,
    quantized_loglik_node,
)
from .optim import Adam, TrainConfig, TrainingDivergedError, train
from .metrics import autocorrelation, fit_index, rmse

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "BlockModel",
    "FilterDivergenceError",
    "MimoTransferFunction",
    "Mlp",
    "ModelFile",
    "Node",
    "Normalization",
    "ParallelMlp",
    "Parameter",
    "PemModel",
    "PolyStatic",
    "Quantizer",
    "Tape",
    "TrainConfig",
    "TrainingDivergedError",
    "TransferFunction",
    "autocorrelation",
    "build_pwh",
    "build_wh",
    "convolve_truncated",
    "estimated_noise_filter",
    "filter_forward",
    "fit_index",
    "flip",
    "frequency_response",
    "impulse_response",
    "log_phi_cdf_diff",
    "one_step_predictor",
    "pem_loss",
    "phi_cdf",
    "prediction_error",
    "quantize",
    "quantized_loglik",
    "quantized_loglik_node",
    "rmse",
    "train",
]
