"""Channel inversion: build waveforms that arrive undistorted.

Two complementary techniques:

* ``reversed_convolution_o2`` expands the inverse transfer function as a
  truncated geometric series in R = 1 - H and keeps terms through R^2.
  It is cheap, stays in the time domain, and its residual shrinks with
  the cube of the distortion amplitude, which is ample for the small
  (few percent) settling tails seen on coupler flux lines.
* ``spectral_predistort`` divides by the transfer function in the
  frequency domain with Tikhonov-style regularization.  It is exact up
  to the regularization floor and is used for the faster multi-exponential
  distortion where the series expansion would need many terms.

``full_pipeline`` chains both: series correction of the slow settling
first, then spectral inversion of the short-time response.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ChannelApproximationWarning, IllConditionedChannelError, InvalidArgumentError
from .models import CombinedResponse, LongTimeModel, ShortTimeModel, step_response_grid
from .signal import ImpulseResponse, Waveform, convolve, require_same_grid, step_to_impulse

# Above this kernel deviation the truncated series is outside its regime.
SERIES_REGIME_LIMIT = 0.5


def reversed_convolution_o2(target: Waveform, response: ImpulseResponse) -> Waveform:
    """Second-order series inverse of a channel applied to ``target``.

    With R = 1 - H the exact inverse is X = Y * (1 + R + R^2 + ...); this
    routine keeps the first three terms, each computed by one pass of
    y -> y - y * h.  The reconstruction error after re-applying the
    channel is O(R^3) in the distortion amplitude.
    """
    require_same_grid(target, response)
    deviation = response.deviation_from_identity()
    if deviation >= SERIES_REGIME_LIMIT:
        warnings.warn(
            f"kernel deviates from identity by {deviation:.3g} (L1); the "
            "second-order series correction is unreliable this far from 1",
            ChannelApproximationWarning,
            stacklevel=2,
        )
    first = Waveform(target.dt_ns, target.samples - convolve(target, response).samples)
    second = Waveform(target.dt_ns, first.samples - convolve(first, response).samples)
    return Waveform(
        dt_ns=target.dt_ns,
        samples=target.samples + first.samples + second.samples,
    )


def _next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m *= 2
    return m


def spectral_predistort(
    target: Waveform,
    response: ImpulseResponse,
    regularization: float = 1e-6,
) -> Waveform:
    """Frequency-domain inverse of a channel applied to ``target``.

    The FFT grid is a power of two at least twice the target length.  The
    target sits in its middle: leading zeros supply the causal silence
    before the pulse (so the turn-on edge is visible to the division) and
    a trailing edge-hold extension gives the channel room to settle before
    the grid wraps around.  The division uses

        X = Y * conj(H) / (|H|^2 + eps^2),  eps = regularization * max|H|

    so spectral regions where the channel vanishes are floored instead of
    amplified.  Channels with nulls deeper than the floor are rejected.
    """
    require_same_grid(target, response)
    if not (0 < regularization < 1):
        raise InvalidArgumentError("regularization must be in (0, 1)")
    n = len(target)
    nfft = _next_pow2(2 * n)
    front = (nfft - n) // 2
    padded = np.zeros(nfft)
    padded[front : front + n] = target.samples
    padded[front + n :] = target.samples[-1]
    kernel = np.zeros(nfft)
    k = min(len(response), nfft)
    kernel[:k] = response.kernel[:k]
    transfer = np.fft.rfft(kernel) * target.dt_ns
    eps = regularization * np.max(np.abs(transfer))
    if np.min(np.abs(transfer)) < eps:
        raise IllConditionedChannelError(
            "channel transfer function has nulls below the regularization "
            f"floor {eps:.3g}; its inverse is not meaningful"
        )
    spectrum = np.fft.rfft(padded)
    inverted = spectrum * np.conj(transfer) / (np.abs(transfer) ** 2 + eps**2)
    out = np.fft.irfft(inverted, n=nfft)[front : front + n]
    return Waveform(dt_ns=target.dt_ns, samples=out)


def _channel_kernel(
    short: ShortTimeModel | None, long: LongTimeModel | None, like: Waveform
) -> ImpulseResponse:
    """Kernel of the unit-step channel made of ``short`` and ``long``, on
    the grid and over the duration of ``like``."""
    unit = CombinedResponse(short=short, long=long)
    return step_to_impulse(step_response_grid(unit, like.duration_ns, like.dt_ns))


def full_pipeline(
    target: Waveform,
    resp: CombinedResponse,
    regularization: float = 1e-6,
) -> Waveform:
    """Predistort ``target`` against a combined channel model.

    The long-time settling (if present) is corrected first with the
    second-order series, then the short-time response (if present) is
    inverted spectrally; serial correction of the two parts matches the
    additive combined model to second order in the distortion amplitudes.
    A model with neither component returns the target unchanged.
    """
    out = target
    if resp.long is not None:
        out = reversed_convolution_o2(out, _channel_kernel(None, resp.long, target))
    if resp.short is not None:
        out = spectral_predistort(out, _channel_kernel(resp.short, None, target), regularization)
    return out


def apply_channel(waveform: Waveform, resp: CombinedResponse) -> Waveform:
    """Simulate transmission through the channel described by ``resp``.

    The waveform is convolved with the kernel of the combined normalized
    step response; v_step plays no role here because the channel is linear.
    """
    return convolve(waveform, _channel_kernel(resp.short, resp.long, waveform))
