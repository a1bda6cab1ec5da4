"""Flux-pulse distortion calibration and predistortion for tunable couplers."""

__version__ = "0.1.0"

from .errors import (
    ChannelApproximationWarning,
    DegenerateFitError,
    DegenerateFitWarning,
    FitFailedError,
    FluxcalError,
    IllConditionedChannelError,
    IncompatibleSamplingError,
    IntegrationError,
    InvalidArgumentError,
    SweepRangeError,
)
from .models import (
    CombinedResponse,
    ExpTerm,
    LongTimeModel,
    ShortTimeModel,
    eval_step_response,
    step_response_grid,
)
from .predistort import apply_channel, full_pipeline, reversed_convolution_o2
from .signal import (
    Waveform,
    convolve,
    heaviside_step,
    identity_kernel,
    read_waveform_csv,
    step_to_impulse,
    write_waveform_csv,
)

__all__ = [
    "__version__",
    "ChannelApproximationWarning",
    "CombinedResponse",
    "DegenerateFitError",
    "DegenerateFitWarning",
    "ExpTerm",
    "FitFailedError",
    "FluxcalError",
    "IllConditionedChannelError",
    "IncompatibleSamplingError",
    "IntegrationError",
    "InvalidArgumentError",
    "LongTimeModel",
    "ShortTimeModel",
    "SweepRangeError",
    "Waveform",
    "apply_channel",
    "convolve",
    "eval_step_response",
    "full_pipeline",
    "heaviside_step",
    "identity_kernel",
    "read_waveform_csv",
    "reversed_convolution_o2",
    "step_response_grid",
    "step_to_impulse",
    "write_waveform_csv",
]
