"""Uniformly sampled waveforms and causal LTI channel kernels.

A channel kernel is itself a ``Waveform``: plain taps on the grid of the
waveforms it acts on, so that

    out[n] = sum_k input[n - k] * h[k]

the identity channel is ``h[0] = 1`` and the dc gain of a channel is
``sum(h)``.  The kernel obtained from a sampled step response is the
step's first difference, which reproduces that step exactly when applied
to a unit step.

``convolve`` runs one real FFT of numpy's pocketfft at the length scipy's
``next_fast_len(n, real=True)`` would pick, the smallest 5-smooth length
that holds the linear convolution; that length decides the rounding, so
the result is bit for bit scipy.fft's at numpy 2 or newer.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

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


def identity_kernel(dt_ns: float, n: int = 1) -> Waveform:
    """The distortion-free channel: a single unit tap."""
    if n < 1:
        raise InvalidArgumentError("kernel length must be >= 1")
    kernel = np.zeros(n)
    kernel[0] = 1.0
    return Waveform(dt_ns=dt_ns, samples=kernel)


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


@functools.cache
def _smooth_lengths() -> tuple[int, ...]:
    """Every 2^a 3^b 5^c up to 2^53, ascending (7716 numbers)."""
    limit, lengths = 2**53, []
    p5 = 1
    while p5 <= limit:
        p35 = p5
        while p35 <= limit:
            m = p35
            while m <= limit:
                lengths.append(m)
                m *= 2
            p35 *= 3
        p5 *= 5
    return tuple(sorted(lengths))


def _fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n, for 1 <= n <= 2^53: the real-FFT
    length of pocketfft's ``good_size_real`` and ``scipy.fft.next_fast_len(n,
    real=True)``."""
    lengths = _smooth_lengths()
    return lengths[bisect.bisect_left(lengths, n)]


def convolve(waveform: Waveform, kernel: Waveform) -> Waveform:
    """Causal convolution of a waveform with a channel kernel.

    Returns a waveform of the same length as the input; the input is taken
    to be zero before t = 0.  Working memory: two spectra at the FFT length
    (the kernel's is multiplied into the waveform's in place), then the
    inverse transform and the result.
    """
    require_same_grid(waveform, kernel)
    n = len(waveform)
    # Only the first n taps reach the first n outputs.  One real FFT at a
    # fast length of at least the full linear-convolution length, so nothing
    # wraps around; values agree with the direct sum to round-off relative
    # to max|kernel| * sum|samples|.
    taps = kernel.samples[:n]
    size = _fast_len(n + taps.size - 1)
    # the waveform's spectrum stays on the left: complex products are not
    # bitwise commutative where the product is fused (FMA)
    spectrum = np.fft.rfft(waveform.samples, size)
    spectrum *= np.fft.rfft(taps, size)
    samples = np.fft.irfft(spectrum, size)
    del spectrum  # not held while the waveform copies its samples
    return Waveform(dt_ns=waveform.dt_ns, samples=samples[:n])


def step_to_impulse(step: Waveform) -> Waveform:
    """Kernel of the channel whose unit-step response is ``step``: its first
    difference with step[0] as the first tap, so that
    convolve(unit_step, kernel) reproduces ``step`` exactly (telescoping
    sum)."""
    taps = step.samples.copy()
    taps[1:] -= step.samples[:-1]
    return Waveform(dt_ns=step.dt_ns, samples=taps)


def write_waveform_csv(path, waveform: Waveform) -> None:
    """Write ``t_ns,amplitude`` rows with 17 significant digits."""
    write_csv_table(path, ("t_ns", "amplitude"), (waveform.times_ns, waveform.samples))


def read_waveform_csv(path) -> Waveform:
    """Read a ``t_ns,amplitude`` file.  A time column that does not
    increase on a uniform grid, or does not start at 0 ns (a waveform's
    samples lie at t_n = n dt), raises ValueError naming the file."""
    header = ("t_ns", "amplitude")
    t, a = read_csv_table(path, header)
    if len(t) < 2:
        raise ValueError(f"{path}: need at least two samples to infer dt")
    dt = t[1] - t[0]
    if dt <= 0:
        raise ValueError(f"{path}: time column must increase")
    if np.max(np.abs(np.diff(t) - dt)) > _GRID_TOL_NS:
        raise ValueError(f"{path}: time grid is not uniform within 1e-9 ns")
    if abs(t[0]) > _GRID_TOL_NS:
        raise ValueError(f"{path}: time column must start at 0 ns, got {t[0]}")
    return Waveform(dt_ns=float(dt), samples=a)
