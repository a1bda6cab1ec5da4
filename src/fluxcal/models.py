"""Parametric step-response models for flux-pulse distortion.

Two components describe a distorted channel:

* a short-time part, a sum of decaying exponentials
  ``sum_i p_i * exp(-t / tau_i)`` with tau_i in ns, which rides on top of
  the ideal step;
* a long-time part ``(B - A) * exp(-t / tau) + A`` with tau in us, which
  replaces the ideal step baseline (A is the settled level, B the level
  just after the edge).

The combined normalized step response is their sum, with the long-time
part defaulting to the constant 1 when absent:

    s(t) = s_long(t) + s_short(t)

and the physical response is ``v_step * s(t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .serialize import _check_object, _finite_float, _usage_error
from .signal import Waveform

MAX_SHORT_TERMS = 6

# Plausibility band for the long-time levels; values outside it indicate a
# mis-scaled dataset rather than a physical channel.
LONG_LEVEL_BAND = (0.5, 1.5)


@dataclass(frozen=True)
class ExpTerm:
    """One short-time exponential: amplitude * exp(-t / tau_ns)."""

    amplitude: float
    tau_ns: float

    def __post_init__(self):
        if not (abs(self.amplitude) < 1.0):
            raise InvalidArgumentError(
                f"term amplitude must satisfy |p| < 1, got {self.amplitude}"
            )
        if not (self.tau_ns > 0 and math.isfinite(self.tau_ns)):
            raise InvalidArgumentError(f"tau_ns must be finite and > 0, got {self.tau_ns}")


@dataclass(frozen=True)
class ShortTimeModel:
    """Sum of 1 to 6 decaying exponentials, time constants in ns, sorted
    ascending."""

    terms: tuple[ExpTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not 1 <= len(self.terms) <= MAX_SHORT_TERMS:
            raise InvalidArgumentError(
                f"need 1..{MAX_SHORT_TERMS} terms, got {len(self.terms)}"
            )
        taus = [t.tau_ns for t in self.terms]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise InvalidArgumentError(f"time constants must be strictly ascending: {taus}")

    @classmethod
    def from_arrays(cls, amplitudes, taus_ns) -> "ShortTimeModel":
        pairs = sorted(zip(taus_ns, amplitudes))
        return cls(tuple(ExpTerm(float(p), float(tau)) for tau, p in pairs))

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([t.amplitude for t in self.terms])

    @property
    def taus_ns(self) -> np.ndarray:
        return np.array([t.tau_ns for t in self.terms])


@dataclass(frozen=True)
class LongTimeModel:
    """Single-exponential settling of the step baseline.

    ``initial`` is the normalized level reached immediately after the step
    edge, ``settled`` the asymptote, ``tau_us`` the settling constant in
    microseconds.
    """

    settled: float
    initial: float
    tau_us: float

    def __post_init__(self):
        lo, hi = LONG_LEVEL_BAND
        for name, v in (("settled", self.settled), ("initial", self.initial)):
            if not (lo < v < hi):
                raise InvalidArgumentError(
                    f"{name} level {v} outside the plausibility band {LONG_LEVEL_BAND}"
                )
        if not (self.tau_us > 0 and math.isfinite(self.tau_us)):
            raise InvalidArgumentError(f"tau_us must be finite and > 0, got {self.tau_us}")


@dataclass(frozen=True)
class CombinedResponse:
    """A channel's full normalized step response plus the step amplitude
    used during calibration.  Either component may be absent."""

    short: ShortTimeModel | None
    long: LongTimeModel | None
    v_step: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.v_step) and self.v_step != 0):
            raise InvalidArgumentError(f"v_step must be finite and nonzero, got {self.v_step}")

    @property
    def settled_level(self) -> float:
        """Normalized response to a held unit input, after all transients."""
        return self.long.settled if self.long is not None else 1.0


def eval_short(model: ShortTimeModel, t_ns) -> np.ndarray:
    """Evaluate the short-time distortion sum at times in ns (t >= 0)."""
    t = np.asarray(t_ns, dtype=float)
    out = np.zeros_like(t)
    scratch = np.empty_like(t)  # each term, amplitude * exp(-t / tau)
    for term in model.terms:
        np.negative(t, out=scratch)
        np.divide(scratch, term.tau_ns, out=scratch)
        np.exp(scratch, out=scratch)
        np.multiply(term.amplitude, scratch, out=scratch)
        out += scratch
    return out


def eval_long(model: LongTimeModel, t_us) -> np.ndarray:
    """Evaluate the long-time settling curve at times in us (t >= 0)."""
    t = np.asarray(t_us, dtype=float)
    return (model.initial - model.settled) * np.exp(-t / model.tau_us) + model.settled


def eval_step_response(resp: CombinedResponse, t_ns) -> np.ndarray:
    """Normalized combined step response s(t) on arbitrary times in ns."""
    t = np.asarray(t_ns, dtype=float)
    if resp.long is not None:
        s = eval_long(resp.long, t / 1000.0)
    else:
        s = np.ones_like(t)
    if resp.short is not None:
        s += eval_short(resp.short, t)
    return s


def step_response_grid(resp: CombinedResponse, duration_ns: float, dt_ns: float) -> Waveform:
    """Sample v_step * s(t) on the uniform grid t_n = n * dt."""
    if duration_ns <= 0 or dt_ns <= 0:
        raise InvalidArgumentError("duration_ns and dt_ns must be > 0")
    n = int(round(duration_ns / dt_ns))
    if n < 1:
        raise InvalidArgumentError("duration shorter than one sample")
    t = np.arange(n) * dt_ns
    return Waveform(dt_ns=dt_ns, samples=resp.v_step * eval_step_response(resp, t))


def model_to_dict(resp: CombinedResponse) -> dict:
    """JSON-ready dict; absent components are omitted."""
    out: dict = {}
    if resp.short is not None:
        out["short"] = [
            {"p": term.amplitude, "tau_ns": term.tau_ns} for term in resp.short.terms
        ]
    if resp.long is not None:
        out["long"] = {
            "A": resp.long.settled,
            "B": resp.long.initial,
            "tau_us": resp.long.tau_us,
        }
    out["v_step"] = resp.v_step
    return out


def model_from_dict(data: dict, name: str = "model") -> CombinedResponse:
    """The model held by a dict in the layout of ``model_to_dict``, which
    may also carry a ``meta`` entry (as ``fluxcal fit`` writes).  An
    object with a key outside that layout, a field that is no finite
    number, or a value that breaks the model's own checks raises
    ValueError naming it, as ``name.long.tau_us`` or ``name.short[0]``."""
    _check_object(data, ("short", "long", "v_step", "meta"), name)
    short = None
    if "short" in data:
        if not isinstance(data["short"], list):
            raise ValueError(f"{name}.short: expected a list of terms")
        terms = []
        for k, term in enumerate(data["short"]):
            where = f"{name}.short[{k}]"
            _check_object(term, ("p", "tau_ns"), where)
            p, tau = (_finite_float(term[key], f"{where}.{key}") for key in ("p", "tau_ns"))
            terms.append(_usage_error(where, ExpTerm, p, tau))
        terms.sort(key=lambda term: term.tau_ns)
        short = _usage_error(f"{name}.short", ShortTimeModel, terms)
    long_part = None
    if "long" in data:
        entry = _check_object(data["long"], ("A", "B", "tau_us"), f"{name}.long")
        settled, initial, tau_us = (
            _finite_float(entry[key], f"{name}.long.{key}") for key in ("A", "B", "tau_us")
        )
        long_part = _usage_error(f"{name}.long", LongTimeModel, settled, initial, tau_us)
    v_step = _finite_float(data.get("v_step", 1.0), f"{name}.v_step")
    return _usage_error(name, CombinedResponse, short, long_part, v_step)
