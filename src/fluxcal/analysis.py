"""Benchmarking statistics: decay fits and gate-fidelity estimates.

Sequence fidelity versus depth is modeled as F(n) = A p^n + B, where the
constants absorb state preparation and measurement error.  Reference and
interleaved depolarization parameters combine into a gate fidelity

    F_gate = 1 - (1 - p_gate / p_ref) * (D - 1) / D

with D the Hilbert space dimension (4 for a two-qubit gate).  The decay
fit is linear in A and B, so it searches the decay constant alone by the
variable projection of ``fitting``, with no scipy optimizer; the standard
error of p follows ``scipy.optimize.curve_fit``'s covariance rule on the
analytic Jacobian.  Standard errors propagate to first order through the
exact partial derivatives.
For cross-entropy benchmarking the reference is built from simultaneous
single-qubit decays, combined as p = (p1 + p2 + 3 p1 p2) / 5 before the
same fidelity formula applies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, InvalidArgumentError
from .fitting import _fit_exp_offset
from .serialize import read_csv_table, write_csv_table

SCHEMES = ("rb", "xeb")

# Longest sequence a decay file may hold, far beyond any measured one.
MAX_SEQUENCE_LENGTH = 10**9


@dataclass(frozen=True)
class DecayFit:
    """Exponential decay of sequence fidelity with depth."""

    amplitude: float
    p: float
    offset: float
    sigma_p: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise InvalidArgumentError(f"decay rate p must be in (0, 1], got {self.p}")
        if self.sigma_p < 0 or not math.isfinite(self.sigma_p):
            raise InvalidArgumentError("sigma_p must be finite and >= 0")


@dataclass(frozen=True)
class FidelityEstimate:
    """A gate fidelity with its standard error and provenance."""

    fidelity: float
    sigma: float
    scheme: str
    dimension: int

    def __post_init__(self):
        if not 0.0 <= self.fidelity <= 1.0:
            raise InvalidArgumentError(
                f"fidelity must be in [0, 1], got {self.fidelity}"
            )
        if self.sigma < 0 or not math.isfinite(self.sigma):
            raise InvalidArgumentError("sigma must be finite and >= 0")
        if self.scheme not in SCHEMES:
            raise InvalidArgumentError(f"scheme must be one of {SCHEMES}")
        if self.dimension < 2:
            raise InvalidArgumentError("dimension must be >= 2")


# The decay rate as a time constant in sequence lengths, p = exp(-1 / tau):
# p = 1e-9 is tau = 1 / ln 1e9.
_DECAY_TAU_LO = 1.0 / math.log(1e9)


def _valid_lengths(n: np.ndarray) -> np.ndarray:
    """Where float sequence lengths ``n`` are integers from 0 to
    MAX_SEQUENCE_LENGTH: the rule of ``fit_decay`` and ``write_decay_csv``
    (nan and inf fail it)."""
    return (n >= 0) & (n <= MAX_SEQUENCE_LENGTH) & (n == np.round(n))


def fit_decay(lengths, fidelities) -> DecayFit:
    """Fit F(n) = A p^n + B to sequence fidelities.

    Requires integer sequence lengths from 0 to MAX_SEQUENCE_LENGTH, at
    least five of them distinct, and fidelities in [0, 1].  With
    p = exp(-1 / tau) the model is a exp(-n / tau) + b, linear
    in A and B, so the fit runs the variable-projection search over log tau
    with a constant column (``fitting._fit_exp_offset``) from the endpoint
    guess of p, its time constant clipped to the search range; no scipy
    optimizer is called.  The decay rate is bounded to
    (0, 1]; the amplitude and offset are unconstrained, with a warning if
    they land outside [0, 1].  ``sigma_p`` is the one-standard-error of p by
    ``curve_fit``'s rule: the SVD pseudo-inverse of J^T J for the analytic
    Jacobian J = [p^n, A n p^(n-1), 1], singular values at or below
    eps max(m, 3) times the largest dropped, scaled by the residual sum of
    squares over m - 3, for m points.
    """
    n = np.asarray(lengths, dtype=float)
    f = np.asarray(fidelities, dtype=float)
    if n.ndim != 1 or f.shape != n.shape:
        raise InvalidArgumentError("lengths and fidelities must be matching 1-D arrays")
    if not (np.all(np.isfinite(n)) and np.all(np.isfinite(f))):
        raise InvalidArgumentError("lengths and fidelities must be finite")
    if not _valid_lengths(n).all():
        raise InvalidArgumentError(
            f"sequence lengths must be integers from 0 to {MAX_SEQUENCE_LENGTH}"
        )
    if np.unique(n).size < 5:
        raise InvalidArgumentError("need at least 5 distinct sequence lengths")
    if np.any(f < 0) or np.any(f > 1):
        raise InvalidArgumentError("fidelities must lie in [0, 1]")
    if np.ptp(f) < 1e-12:
        raise DegenerateFitError("constant fidelities: decay rate is unidentifiable")

    # In order of length (then fidelity), so the start and the fit do not
    # depend on the order of the rows.
    order = np.lexsort((f, n))
    n, f = n[order], f[order]
    offset0 = float(f[-1])
    amp0 = float(f[0] - offset0)
    if amp0 == 0.0:
        amp0 = float(np.ptp(f))
    # p = 1 is tau = inf.  Above max(n) / sqrt(eps) the decay is a straight
    # line over the measured lengths to within the projection's round-off,
    # and 1 - p is no longer resolved, so the search stops there.
    tau_hi = float(n[-1]) / math.sqrt(np.finfo(float).eps)
    # crude rate guess from the endpoint decay, on the lengths' own scale:
    # p0 is kept inside (0, 1) and its time constant inside the search range
    span = float(n[-1] - n[0]) if n[-1] > n[0] else 1.0
    mid = float(np.interp(0.5 * (n[0] + n[-1]), n, f))
    ratio = abs((mid - offset0) / amp0) if amp0 != 0.0 else 0.5
    p0 = min(max(ratio ** (2.0 / span), np.finfo(float).tiny), math.nextafter(1.0, 0.0))
    tau0 = min(max(-1.0 / math.log(p0), _DECAY_TAU_LO), tau_hi)
    amplitude, offset, tau = _fit_exp_offset(n, f, tau0, _DECAY_TAU_LO, tau_hi)
    p = math.exp(-1.0 / tau)

    m = n.size
    p_n = np.power(p, n)
    jac = np.column_stack([p_n, n * np.power(p, n - 1.0) * amplitude, np.ones(m)])
    resid = amplitude * p_n + offset - f
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    keep = sv > np.finfo(float).eps * max(m, 3) * sv[0]
    var_p = float(np.sum((vt[keep, 1] / sv[keep]) ** 2)) * float(resid @ resid) / (m - 3)
    sigma_p = math.sqrt(var_p)
    if not math.isfinite(sigma_p):
        raise DegenerateFitError("decay rate uncertainty is unbounded")
    if not (0.0 <= amplitude <= 1.0 and 0.0 <= offset <= 1.0):
        warnings.warn(
            f"decay amplitude {amplitude:.4g} / offset {offset:.4g} outside [0, 1]; "
            "check preparation and measurement levels",
            RuntimeWarning,
            stacklevel=2,
        )
    return DecayFit(amplitude=amplitude, p=p, offset=offset, sigma_p=sigma_p)


def _interleaved_fidelity(
    gate: DecayFit, reference: DecayFit, dimension: int, scheme: str
) -> FidelityEstimate:
    if dimension < 2:
        raise InvalidArgumentError("dimension must be >= 2")
    if reference.p <= 0.0:
        raise InvalidArgumentError("reference decay rate must be positive")
    frac = (dimension - 1) / dimension
    ratio = gate.p / reference.p
    fidelity = 1.0 - (1.0 - ratio) * frac
    sigma = frac * ratio * math.hypot(gate.sigma_p / gate.p, reference.sigma_p / reference.p)
    return FidelityEstimate(fidelity=fidelity, sigma=sigma, scheme=scheme, dimension=dimension)


def rb_fidelity(gate: DecayFit, reference: DecayFit, dimension: int = 4) -> FidelityEstimate:
    """Interleaved randomized-benchmarking gate fidelity with its error."""
    return _interleaved_fidelity(gate, reference, dimension, "rb")


def xeb_parallel_combine(fit_q1: DecayFit, fit_q2: DecayFit) -> DecayFit:
    """Combine simultaneous single-qubit decay rates into the two-qubit
    reference rate (p1 + p2 + 3 p1 p2) / 5, with propagated uncertainty."""
    p1, p2 = fit_q1.p, fit_q2.p
    p_sq = (p1 + p2 + 3.0 * p1 * p2) / 5.0
    dp1 = (1.0 + 3.0 * p2) / 5.0
    dp2 = (1.0 + 3.0 * p1) / 5.0
    sigma = math.hypot(dp1 * fit_q1.sigma_p, dp2 * fit_q2.sigma_p)
    return DecayFit(amplitude=1.0, p=p_sq, offset=0.0, sigma_p=sigma)


def xeb_fidelity(gate: DecayFit, reference: DecayFit, dimension: int = 4) -> FidelityEstimate:
    """Cross-entropy-benchmarking gate fidelity against the combined
    simultaneous-reference decay rate."""
    return _interleaved_fidelity(gate, reference, dimension, "xeb")


def write_decay_csv(path, lengths, fidelities) -> None:
    """Write sequence ``lengths`` and ``fidelities`` under the header
    ``n,fidelity``.  A length of any dtype that breaks ``fit_decay``'s rule,
    integers from 0 to MAX_SEQUENCE_LENGTH, raises InvalidArgumentError
    before any file is opened.  The lengths go through the float writer,
    which prints a whole number below 1e17 as its integer digits; -0.0 is
    written as 0."""
    n = np.asarray(lengths, dtype=float)
    valid = _valid_lengths(n)
    if not valid.all():
        raise InvalidArgumentError(
            f"lengths must be finite whole numbers, got {n[~valid][0]} "
            f"(sequence lengths run from 0 to {MAX_SEQUENCE_LENGTH})"
        )
    write_csv_table(path, ("n", "fidelity"), (n + 0.0, fidelities))


def read_decay_csv(path) -> tuple[np.ndarray, np.ndarray]:
    header = ("n", "fidelity")
    n, f = read_csv_table(path, header)
    if not n.size:
        raise ValueError(f"{path}: no data rows")
    return n, f
