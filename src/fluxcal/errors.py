"""Exception types shared across the package."""


class FluxcalError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(FluxcalError, ValueError):
    """A value violates a documented precondition."""


class IncompatibleSamplingError(FluxcalError, ValueError):
    """Two sampled objects do not share the same time base."""


class FitFailedError(FluxcalError, RuntimeError):
    """An optimizer did not converge or its residual exceeds the threshold."""


class DegenerateFitError(FitFailedError):
    """The data cannot distinguish the requested model parameters."""


class IllConditionedChannelError(FluxcalError, ValueError):
    """A channel's causal inverse is unstable."""


class SweepRangeError(FluxcalError, ValueError):
    """A sweep grid does not bracket the feature it is meant to locate."""


class IntegrationError(FluxcalError, RuntimeError):
    """Time evolution failed a numerical sanity check (norm drift, coverage)."""


class DegenerateFitWarning(UserWarning):
    """A fit succeeded formally but some parameters are not identifiable."""


class ChannelApproximationWarning(UserWarning):
    """A correction routine was applied outside its small-distortion regime."""
