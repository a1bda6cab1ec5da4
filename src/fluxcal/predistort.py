"""Channel inversion: build waveforms that arrive undistorted.

``full_pipeline`` convolves the target with the exact causal inverse of the
sampled channel, which is rational in z because the step response is a sum
of exponentials, so ``apply_channel`` of its output returns the target to
round-off.  ``reversed_convolution_o2`` is the approximate inverse it
replaces, the series 1 + R + R^2 in R = 1 - H, whose residual shrinks with
the cube of the distortion amplitude.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ChannelApproximationWarning, IllConditionedChannelError
from .models import CombinedResponse, step_response_grid
from .signal import Waveform, convolve, require_same_grid, step_to_impulse

# Above this kernel deviation the truncated series is outside its regime.
SERIES_REGIME_LIMIT = 0.5


def reversed_convolution_o2(target: Waveform, kernel: Waveform) -> Waveform:
    """Second-order series inverse of a channel applied to ``target``.

    With R = 1 - H the exact inverse is X = Y * (1 + R + R^2 + ...); this
    routine keeps the first three terms, each computed by one pass of
    y -> y - y * h.  The reconstruction error after re-applying the
    channel is O(R^3) in the distortion amplitude.
    """
    require_same_grid(target, kernel)
    # L1 distance from the identity kernel; zero for a distortion-free channel.
    deviation = float(np.sum(np.abs(kernel.samples[1:])) + abs(kernel.samples[0] - 1.0))
    if deviation >= SERIES_REGIME_LIMIT:
        warnings.warn(
            f"kernel deviates from identity by {deviation:.3g} (L1); the "
            "second-order series correction is unreliable this far from 1",
            ChannelApproximationWarning,
            stacklevel=2,
        )
    first = Waveform(target.dt_ns, target.samples - convolve(target, kernel).samples)
    second = Waveform(target.dt_ns, first.samples - convolve(first, kernel).samples)
    return Waveform(
        dt_ns=target.dt_ns,
        samples=target.samples + first.samples + second.samples,
    )


def _inverse_kernel(resp: CombinedResponse, like: Waveform) -> Waveform:
    """Kernel of the exact causal inverse of ``resp`` on the grid of ``like``.

    The step response is c + sum_k q_k exp(-t / tau_k): q = p for a short
    term, q = B - A at tau = 1000 tau_us for a long part, c = A (else 1).
    With b_k = 1 - exp(-dt / tau_k) and x = z - 1 the sampled channel is
    H(x) = s0 - sum_k q_k b_k / (x + b_k), s0 = c + sum_k q_k.  Its zeros x_j
    are the eigenvalues of -diag(b) + (q b / s0) 1^T, and partial fractions
    of 1/H give g[0] = 1 / s0, g[n] = Re sum_j R_j (1 + x_j)^(n - 1) with
    R_j = 1 / H'(x_j) = prod_k (x_j + b_k) / (s0 prod_{i != j} (x_j - x_i)),
    a form that stays accurate when a tiny q puts a zero next to its pole.
    Equal b are merged and terms with q b = 0 dropped, so that each
    eigenvalue is a zero.  Raises IllConditionedChannelError when s0 = 0
    or some |1 + x_j| >= 1, that is, when the inverse is unstable.
    """
    terms = [(t.amplitude, t.tau_ns) for t in (resp.short.terms if resp.short else ())]
    if resp.long is not None:
        terms.append((resp.long.initial - resp.long.settled, 1000.0 * resp.long.tau_us))
    q, taus = np.array(terms).T
    b, where = np.unique(-np.expm1(-like.dt_ns / taus), return_inverse=True)
    q = np.bincount(where, weights=q)
    s0 = resp.settled_level + q.sum()
    keep = q * b != 0
    q, b = q[keep], b[keep]
    if s0 == 0:
        raise IllConditionedChannelError("channel has zero gain at t = 0; it has no inverse")
    zeros = np.linalg.eigvals(np.outer(q * b / s0, np.ones(b.size)) - np.diag(b))
    if np.any(np.abs(1.0 + zeros) >= 1.0):
        raise IllConditionedChannelError(
            "channel has a zero on or outside the unit circle; its causal inverse is unstable"
        )
    g = np.zeros(len(like))
    g[0] = 1.0 / s0
    for j, x in enumerate(zeros):
        residue = np.prod(x + b) / (s0 * np.prod(x - np.delete(zeros, j)))
        g[1:] += (residue * (1.0 + x) ** np.arange(g.size - 1)).real
    return Waveform(dt_ns=like.dt_ns, samples=g)


def full_pipeline(target: Waveform, resp: CombinedResponse) -> Waveform:
    """Predistort ``target`` against a combined channel model: convolve it
    with the channel's exact causal inverse (``_inverse_kernel``), so that
    ``apply_channel`` returns the target to round-off.  A model with neither
    component returns the target unchanged; a channel whose inverse is
    unstable raises IllConditionedChannelError."""
    if resp.short is None and resp.long is None:
        return target
    return convolve(target, _inverse_kernel(resp, target))


def apply_channel(waveform: Waveform, resp: CombinedResponse) -> Waveform:
    """Simulate transmission through the channel described by ``resp``.

    The waveform is convolved with the kernel of the combined normalized
    step response; v_step plays no role here because the channel is linear.
    """
    unit = CombinedResponse(short=resp.short, long=resp.long)
    step = step_response_grid(unit, waveform.duration_ns, waveform.dt_ns)
    return convolve(waveform, step_to_impulse(step))
