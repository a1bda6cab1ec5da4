"""Uniformly sampled waveforms and causal LTI channel kernels.

Discrete convention used throughout the package: a channel is represented
by a kernel ``h`` carrying an implicit 1/dt normalization, and

    out[n] = sum_k input[n - k] * h[k] * dt

so the identity channel is ``h[0] = 1/dt`` and the dc gain of a channel is
``sum(h) * dt``.  With this convention the kernel obtained from a sampled
step response reproduces that step exactly when applied to a unit step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft

from .errors import IncompatibleSamplingError, InvalidArgumentError
from .serialize import read_csv_table, write_csv_table

# Uniform-grid tolerance for CSV readers, in ns.
_GRID_TOL_NS = 1e-9


def _as_readonly(values, name: str) -> np.ndarray:
    """Read-only float64 copy of ``values``, which must be a non-empty,
    finite 1-D array."""
    arr = np.asarray(values, dtype=float).copy()
    arr.setflags(write=False)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidArgumentError(f"{name} must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class Waveform:
    """A real waveform sampled on the uniform grid t_n = n * dt_ns.

    Attributes:
        dt_ns: sample spacing in nanoseconds, strictly positive.
        samples: float64 amplitudes, at least one sample, all finite.
    """

    dt_ns: float
    samples: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.dt_ns) or self.dt_ns <= 0:
            raise InvalidArgumentError(f"dt_ns must be finite and > 0, got {self.dt_ns}")
        object.__setattr__(self, "samples", _as_readonly(self.samples, "samples"))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_ns(self) -> float:
        return self.samples.size * self.dt_ns

    @property
    def times_ns(self) -> np.ndarray:
        return np.arange(self.samples.size) * self.dt_ns


@dataclass(frozen=True)
class ImpulseResponse:
    """A causal channel kernel over the same grid as the waveforms it acts on.

    The kernel carries the 1/dt normalization described in the module
    docstring; ``dc_gain`` is the settled response to a unit step.
    """

    dt_ns: float
    kernel: np.ndarray
    dc_gain: float = field(init=False)

    def __post_init__(self):
        if not np.isfinite(self.dt_ns) or self.dt_ns <= 0:
            raise InvalidArgumentError(f"dt_ns must be finite and > 0, got {self.dt_ns}")
        object.__setattr__(self, "kernel", _as_readonly(self.kernel, "kernel"))
        object.__setattr__(self, "dc_gain", float(np.sum(self.kernel) * self.dt_ns))

    def __len__(self) -> int:
        return self.kernel.size

    def deviation_from_identity(self) -> float:
        """L1 distance (including the dt weight) between this kernel and the
        identity kernel delta[0] = 1/dt.  Zero for a distortion-free channel."""
        delta = np.zeros_like(self.kernel)
        delta[0] = 1.0 / self.dt_ns
        return float(np.sum(np.abs(self.kernel - delta)) * self.dt_ns)


def identity_kernel(dt_ns: float, n: int = 1) -> ImpulseResponse:
    """The distortion-free channel: a single impulsive weight 1/dt."""
    if n < 1:
        raise InvalidArgumentError("kernel length must be >= 1")
    kernel = np.zeros(n)
    kernel[0] = 1.0 / dt_ns
    return ImpulseResponse(dt_ns=dt_ns, kernel=kernel)


def require_same_grid(a, b):
    if abs(a.dt_ns - b.dt_ns) > _GRID_TOL_NS:
        raise IncompatibleSamplingError(
            f"time bases differ: dt={a.dt_ns} ns vs dt={b.dt_ns} ns"
        )


def heaviside_step(amplitude: float, duration_ns: float, dt_ns: float) -> Waveform:
    """A step of the given amplitude starting at t = 0.

    The grid holds round(duration / dt) samples, all equal to ``amplitude``.
    """
    if not np.isfinite(amplitude):
        raise InvalidArgumentError("amplitude must be finite")
    if duration_ns <= 0 or dt_ns <= 0:
        raise InvalidArgumentError("duration_ns and dt_ns must be > 0")
    n = int(round(duration_ns / dt_ns))
    if n < 1:
        raise InvalidArgumentError("duration shorter than one sample")
    return Waveform(dt_ns=dt_ns, samples=np.full(n, float(amplitude)))


def convolve(waveform: Waveform, response: ImpulseResponse) -> Waveform:
    """Causal convolution of a waveform with a channel kernel.

    Returns a waveform of the same length as the input; the input is taken
    to be zero before t = 0.
    """
    require_same_grid(waveform, response)
    n = len(waveform)
    # Only kernel[:n] reaches the first n outputs.  One real FFT at a fast
    # length of at least the full linear-convolution length, so nothing
    # wraps around; values agree with the direct sum to round-off relative
    # to max|kernel| * sum|samples|.
    kernel = response.kernel[:n]
    size = _fft.next_fast_len(n + kernel.size - 1, real=True)
    spectrum = _fft.rfft(waveform.samples, size) * _fft.rfft(kernel, size)
    return Waveform(dt_ns=waveform.dt_ns, samples=_fft.irfft(spectrum, size)[:n] * waveform.dt_ns)


def step_to_impulse(step: Waveform) -> ImpulseResponse:
    """Kernel of the channel whose unit-step response is ``step``.

    The kernel is the discrete derivative of the step plus an impulsive
    term step[0]/dt at n = 0, so that convolve(unit_step, kernel)
    reproduces ``step`` exactly (telescoping sum).
    """
    s = step.samples
    kernel = np.empty_like(s)
    kernel[0] = s[0] / step.dt_ns
    kernel[1:] = np.diff(s) / step.dt_ns
    return ImpulseResponse(dt_ns=step.dt_ns, kernel=kernel)


def negate_compensation(waveform: Waveform, v_step: float) -> Waveform:
    """Convert measured compensation amplitudes into a distortion curve.

    The compensation offsets cancel the distortion, so the underlying
    distortion is -V(t)/V_step.  With v_step = 1 the operation is its own
    inverse.
    """
    if v_step == 0 or not np.isfinite(v_step):
        raise InvalidArgumentError("v_step must be finite and nonzero")
    return Waveform(dt_ns=waveform.dt_ns, samples=-waveform.samples / v_step)


def write_waveform_csv(path, waveform: Waveform) -> None:
    """Write ``t_ns,amplitude`` rows with 17 significant digits."""
    write_csv_table(path, ("t_ns", "amplitude"), (waveform.times_ns, waveform.samples))


def read_waveform_csv(path) -> Waveform:
    """Read a ``t_ns,amplitude`` file, validating grid uniformity."""
    t, a = read_csv_table(path, ("t_ns", "amplitude"))
    if len(t) < 2:
        raise InvalidArgumentError(f"{path}: need at least two samples to infer dt")
    t = np.array(t)
    dt = t[1] - t[0]
    if dt <= 0:
        raise InvalidArgumentError(f"{path}: time column must increase")
    if np.max(np.abs(np.diff(t) - dt)) > _GRID_TOL_NS:
        raise IncompatibleSamplingError(f"{path}: time grid is not uniform within 1e-9 ns")
    return Waveform(dt_ns=float(dt), samples=a)
