"""Schrodinger-picture simulation of the qubit-coupler calibration probe.

The model is a driven two-body exchange Hamiltonian restricted to the
single-excitation manifold plus the ground state, basis
{|00>, |10>, |01>} (qubit excitation first):

    H = -(w_q/2) sz_q - (w_c/2) sz_c + g (s+_q s-_c + s-_q s+_c)
        - (Omega(t)/2) (e^{i w_d t} |00><10| + h.c.)

All frequencies are in GHz (ordinary frequency, not angular), times in ns;
phases are 2*pi*f*t.  Propagation happens in the frame rotating at the
drive frequency, where the Hamiltonian is real symmetric and slowly
varying, with an exact matrix exponential per sample step.

The calibration protocol mirrors the hardware sequence: pick the working
point on the lower dressed branch, calibrate the pi-pulse amplitude there,
then sweep delay and compensation offset to locate, per delay, the offset
that restores the working-point flux.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import warnings

import numpy as np
from scipy.optimize import brentq

from .errors import (
    IntegrationError,
    InvalidArgumentError,
    SweepRangeError,
)
from .fitting import REGIMES, CalibrationRun
from .models import CombinedResponse, eval_step_response
from .predistort import apply_channel
from .signal import Waveform

# Gaussian drive envelopes are truncated at this many sigma on each side.
ENVELOPE_TRUNC_SIGMAS = 2.0

NORM_DRIFT_LIMIT = 1e-8


@dataclass(frozen=True)
class CouplerMap:
    """Tunable-transmon frequency versus flux, with a linear zpa-to-flux
    conversion.

    frequency(zpa) = (f_max + ec) * (d^2 + (1 - d^2) cos^2(pi x))^(1/4) - ec
    where x = zpa_to_flux * zpa + flux_offset is the flux in flux quanta,
    d the junction asymmetry and ec the curvature offset.  The map must be
    strictly monotonic over ``zpa_range``.
    """

    f_max_ghz: float
    curvature_ghz: float
    asymmetry: float
    zpa_to_flux: float
    flux_offset: float = 0.0
    zpa_range: tuple[float, float] = (0.0, 0.5)

    def __post_init__(self):
        if self.f_max_ghz <= 0:
            raise InvalidArgumentError("f_max_ghz must be > 0")
        if not 0 <= self.asymmetry < 1:
            raise InvalidArgumentError("asymmetry must be in [0, 1)")
        if self.zpa_to_flux == 0:
            raise InvalidArgumentError("zpa_to_flux must be nonzero")
        if self.curvature_ghz < 0:
            raise InvalidArgumentError("curvature_ghz must be >= 0")
        lo, hi = self.zpa_range
        if not lo < hi:
            raise InvalidArgumentError("zpa_range must be an increasing pair")
        probe = self.frequency(np.linspace(lo, hi, 257))
        diffs = np.diff(probe)
        if not (np.all(diffs < 0) or np.all(diffs > 0)):
            raise InvalidArgumentError(
                "coupler map is not strictly monotonic over zpa_range"
            )

    def frequency(self, zpa):
        x = np.pi * (self.zpa_to_flux * np.asarray(zpa, dtype=float) + self.flux_offset)
        d2 = self.asymmetry**2
        factor = (d2 + (1.0 - d2) * np.cos(x) ** 2) ** 0.25
        return (self.f_max_ghz + self.curvature_ghz) * factor - self.curvature_ghz


@dataclass(frozen=True)
class SystemParams:
    """Static qubit-coupler pair parameters.

    ``qubit_zpa_slope_ghz`` is the qubit's direct Z response (GHz per zpa
    unit on its own line); together with ``coeff_zxtalk`` it sets how much
    the coupler zpa leaks into the qubit frequency.
    """

    omega_q_ghz: float
    g_qc_ghz: float
    coupler: CouplerMap
    coeff_zxtalk: float = 0.0
    qubit_zpa_slope_ghz: float = 0.0

    def __post_init__(self):
        if self.omega_q_ghz <= 0:
            raise InvalidArgumentError("omega_q_ghz must be > 0")
        if not 0 < self.g_qc_ghz < 1:
            raise InvalidArgumentError("g_qc_ghz must be in (0, 1) GHz")
        if abs(self.coeff_zxtalk) > 0.1:
            raise InvalidArgumentError("coeff_zxtalk outside the sanity range [-0.1, 0.1]")

    def qubit_freq_ghz(self, coupler_zpa):
        """Qubit frequency including Z crosstalk from the coupler line."""
        z = np.asarray(coupler_zpa, dtype=float)
        return self.omega_q_ghz + self.qubit_zpa_slope_ghz * self.coeff_zxtalk * z

    def coupler_freq_ghz(self, coupler_zpa):
        return self.coupler.frequency(coupler_zpa)


@dataclass(frozen=True)
class DressedPair:
    """Single-excitation eigenpair at one bias point.

    Weights are the (|10>, |01>) amplitudes of each dressed state.
    """

    omega_minus_ghz: float
    omega_plus_ghz: float
    weight_minus: tuple[float, float]
    weight_plus: tuple[float, float]

    def __post_init__(self):
        if self.omega_plus_ghz < self.omega_minus_ghz:
            raise InvalidArgumentError("dressed energies out of order")
        for w in (self.weight_minus, self.weight_plus):
            if abs(w[0] ** 2 + w[1] ** 2 - 1.0) > 1e-12:
                raise InvalidArgumentError("dressed-state weights must be normalized")

    @property
    def splitting_ghz(self) -> float:
        return self.omega_plus_ghz - self.omega_minus_ghz


def dressed_from_frequencies(omega_q_ghz: float, omega_c_ghz: float, g_ghz: float) -> DressedPair:
    """Diagonalize the single-excitation block for given bare frequencies.

    The dressed energies are (w_q + w_c)/2 -/+ sqrt((w_q - w_c)^2 + 4 g^2)/2;
    the minimum splitting, reached at resonance, is exactly 2 g.
    """
    if g_ghz <= 0:
        raise InvalidArgumentError("g_ghz must be > 0")
    delta = omega_c_ghz - omega_q_ghz
    split = math.hypot(delta, 2.0 * g_ghz)
    mean = 0.5 * (omega_q_ghz + omega_c_ghz)
    ratio_minus = -(delta + split) / (2.0 * g_ghz)
    norm_minus = math.hypot(ratio_minus, 1.0)
    ratio_plus = -(delta - split) / (2.0 * g_ghz)
    norm_plus = math.hypot(ratio_plus, 1.0)
    return DressedPair(
        omega_minus_ghz=mean - 0.5 * split,
        omega_plus_ghz=mean + 0.5 * split,
        weight_minus=(ratio_minus / norm_minus, 1.0 / norm_minus),
        weight_plus=(ratio_plus / norm_plus, 1.0 / norm_plus),
    )


def dressed_energies(params: SystemParams, coupler_zpa: float) -> DressedPair:
    """Dressed pair at a coupler bias, crosstalk shift included."""
    return dressed_from_frequencies(
        float(params.qubit_freq_ghz(coupler_zpa)),
        float(params.coupler_freq_ghz(coupler_zpa)),
        params.g_qc_ghz,
    )


def spectroscopy_branches(params: SystemParams, coupler_zpa) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper dressed branch frequencies over a zpa scan."""
    z = np.asarray(coupler_zpa, dtype=float)
    wq = params.qubit_freq_ghz(z)
    wc = params.coupler_freq_ghz(z)
    split = np.hypot(wc - wq, 2.0 * params.g_qc_ghz)
    mean = 0.5 * (wq + wc)
    return mean - 0.5 * split, mean + 0.5 * split


def effective_rabi(params: SystemParams, coupler_zpa: float, rabi_mhz: float) -> tuple[float, float]:
    """Drive rates of the two dressed transitions for a bare qubit drive.

    A drive of peak rate Omega on the bare qubit addresses the dressed
    transitions |00> -> |phi-/+> with rates Omega * <10|phi-/+>; at
    resonance both magnitudes equal Omega / sqrt(2), far off resonance the
    drive addresses only the qubit-like branch.  Returned in MHz, signed.
    """
    pair = dressed_energies(params, coupler_zpa)
    return (-rabi_mhz * pair.weight_minus[0], -rabi_mhz * pair.weight_plus[0])


@dataclass(frozen=True)
class RwaCheck:
    """Outcome of the rotating-wave validity check."""

    passed: bool
    ratio: float
    margin_factor: float


def check_rwa(pair: DressedPair, omega_plus_rabi_mhz: float, margin_factor: float = 0.1) -> RwaCheck:
    """Check Omega+/2 << dressed splitting.

    The spectator transition |00> -> |phi+> is driven at Omega+; treating
    it as negligible is valid while Omega+/2 stays below ``margin_factor``
    times the splitting.  Returns the ratio so callers can report margins.
    """
    half_rabi_ghz = 0.5 * abs(omega_plus_rabi_mhz) * 1e-3
    split = pair.splitting_ghz
    if half_rabi_ghz == 0.0:
        return RwaCheck(passed=True, ratio=0.0, margin_factor=margin_factor)
    if split <= 0.0:
        return RwaCheck(passed=False, ratio=math.inf, margin_factor=margin_factor)
    ratio = half_rabi_ghz / split
    return RwaCheck(passed=ratio <= margin_factor, ratio=ratio, margin_factor=margin_factor)


@dataclass(frozen=True)
class DriveParams:
    """One Gaussian qubit excitation pulse.

    ``t_pi_ns`` is the nominal pi duration; the envelope has
    sigma = sigma_fraction * t_pi_ns and is truncated at +-2 sigma around
    ``t_center_ns``.
    """

    omega_d_ghz: float
    rabi_mhz: float
    t_pi_ns: float
    t_center_ns: float
    sigma_fraction: float = 0.25

    def __post_init__(self):
        if not 30.0 <= self.t_pi_ns <= 200.0:
            raise InvalidArgumentError(
                f"t_pi_ns must lie in [30, 200] ns, got {self.t_pi_ns}"
            )
        if self.rabi_mhz < 0:
            raise InvalidArgumentError("rabi_mhz must be >= 0")
        if self.sigma_fraction <= 0:
            raise InvalidArgumentError("sigma_fraction must be > 0")
        if self.omega_d_ghz <= 0:
            raise InvalidArgumentError("omega_d_ghz must be > 0")

    @property
    def sigma_ns(self) -> float:
        return self.sigma_fraction * self.t_pi_ns

    @property
    def window_ns(self) -> tuple[float, float]:
        half = ENVELOPE_TRUNC_SIGMAS * self.sigma_ns
        return (self.t_center_ns - half, self.t_center_ns + half)

    def step_midpoints(self, dt_ns: float) -> np.ndarray:
        """Midpoints of the integration steps of length ``dt_ns`` that cover
        the window, starting at its lower edge."""
        lo, hi = self.window_ns
        steps = max(int(math.ceil((hi - lo) / dt_ns)), 1)
        return lo + (np.arange(steps) + 0.5) * dt_ns

    def envelope(self, t_ns) -> np.ndarray:
        t = np.asarray(t_ns, dtype=float)
        lo, hi = self.window_ns
        env = np.exp(-((t - self.t_center_ns) ** 2) / (2.0 * self.sigma_ns**2))
        return np.where((t >= lo) & (t <= hi), env, 0.0)


@dataclass(frozen=True)
class DriveSchedule:
    """Delay-dependent pulse length rule for a calibration sweep.

    Short-time sweeps shorten the probe pulse at early delays for temporal
    resolution and relax it at later ones; long-time sweeps use a fixed
    pulse.  The pulse amplitude always follows the pi-area rule, so
    amplitude * t_pi stays constant across the sweep.
    """

    regime: str = "short"
    t_pi_min_ns: float = 30.0
    t_pi_max_ns: float = 200.0
    ramp_end_ns: float = 2000.0
    sigma_fraction: float = 0.25

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise InvalidArgumentError(f"regime must be one of {REGIMES}")
        if not 30.0 <= self.t_pi_min_ns <= self.t_pi_max_ns <= 200.0:
            raise InvalidArgumentError("need 30 <= t_pi_min <= t_pi_max <= 200 ns")
        if self.ramp_end_ns <= 0:
            raise InvalidArgumentError("ramp_end_ns must be > 0")

    def t_pi_ns(self, delay_ns: float) -> float:
        if self.t_pi_min_ns == self.t_pi_max_ns:
            return self.t_pi_max_ns
        frac = min(max(delay_ns / self.ramp_end_ns, 0.0), 1.0)
        return self.t_pi_min_ns + (self.t_pi_max_ns - self.t_pi_min_ns) * frac


def long_time_schedule(t_pi_ns: float = 200.0) -> DriveSchedule:
    return DriveSchedule(
        regime="long", t_pi_min_ns=t_pi_ns, t_pi_max_ns=t_pi_ns, ramp_end_ns=1.0
    )


def _propagate(params: SystemParams, drive: DriveParams, zpa_mid: np.ndarray, t_mid: np.ndarray, dt_ns: float) -> np.ndarray:
    """Propagate |00> through the drive window for a batch of zpa traces.

    zpa_mid has shape (batch, steps): coupler zpa at each step midpoint.
    Returns the final qubit excited population per batch element.
    """
    batch, steps = zpa_mid.shape
    wq = params.qubit_freq_ghz(zpa_mid) - drive.omega_d_ghz
    wc = params.coupler_freq_ghz(zpa_mid) - drive.omega_d_ghz
    coupling = -0.5e-3 * drive.rabi_mhz * drive.envelope(t_mid)
    g = params.g_qc_ghz

    psi = np.zeros((batch, 3), dtype=complex)
    psi[:, 0] = 1.0
    h = np.zeros((batch, 3, 3))
    h[:, 1, 2] = g
    h[:, 2, 1] = g
    for k in range(steps):
        h[:, 0, 1] = coupling[k]
        h[:, 1, 0] = coupling[k]
        h[:, 1, 1] = wq[:, k]
        h[:, 2, 2] = wc[:, k]
        evals, evecs = np.linalg.eigh(h)
        phases = np.exp(-2j * np.pi * evals * dt_ns)
        coeffs = np.einsum("bij,bi->bj", evecs, psi)
        psi = np.einsum("bij,bj->bi", evecs, phases * coeffs)
    norms = np.abs(np.einsum("bi,bi->b", psi.conj(), psi))
    if np.max(np.abs(norms - 1.0)) > NORM_DRIFT_LIMIT:
        raise IntegrationError(
            f"state norm drifted by {np.max(np.abs(norms - 1.0)):.3g}"
        )
    return np.abs(psi[:, 1]) ** 2


def evolve_excitation(
    params: SystemParams, drive: DriveParams, coupler_zpa_trace: Waveform
) -> float:
    """Final qubit |1> population after one excitation pulse.

    The trace gives the coupler zpa on a uniform grid starting at t = 0 and
    must cover the pulse window; its sample spacing sets the integration
    step (keep it at or below 0.1 ns).  The state starts in |00> and is
    propagated only across the window, outside which the drive vanishes
    and |00> is stationary.
    """
    lo, hi = drive.window_ns
    dt = coupler_zpa_trace.dt_ns
    if lo < -1e-9 or hi > coupler_zpa_trace.duration_ns + 1e-9:
        raise InvalidArgumentError(
            f"trace [0, {coupler_zpa_trace.duration_ns}] ns does not cover the "
            f"drive window [{lo}, {hi}] ns"
        )
    t_mid = drive.step_midpoints(dt)
    zpa_mid = np.interp(t_mid, coupler_zpa_trace.times_ns, coupler_zpa_trace.samples)
    return float(_propagate(params, drive, zpa_mid[None, :], t_mid, dt)[0])


def find_working_point(params: SystemParams, repulsion_ghz: float = 0.050) -> float:
    """Coupler zpa where the lower dressed branch sits ``repulsion_ghz``
    below the bare qubit, approached from the high-frequency side."""
    g = params.g_qc_ghz
    if not 0 < repulsion_ghz < g:
        raise SweepRangeError(
            f"repulsion must be in (0, g) = (0, {g}) GHz, got {repulsion_ghz}"
        )
    delta_target = (g**2 - repulsion_ghz**2) / repulsion_ghz

    def gap(z):
        return float(params.coupler_freq_ghz(z) - params.qubit_freq_ghz(z)) - delta_target

    lo, hi = params.coupler.zpa_range
    grid = np.linspace(lo, hi, 512)
    vals = np.array([gap(z) for z in grid])
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if vals[0] <= 0 or sign_change.size == 0:
        raise SweepRangeError("zpa_range does not bracket the requested working point")
    i = int(sign_change[0])
    return float(brentq(gap, grid[i], grid[i + 1], xtol=1e-12))


def pi_pulse_rabi_mhz(params: SystemParams, coupler_zpa: float, t_pi_ns: float, sigma_fraction: float = 0.25) -> float:
    """Peak drive rate giving a pi rotation on the lower dressed transition.

    Uses the truncated-Gaussian envelope area and the |10> weight of the
    lower dressed state at the bias point.  The returned amplitude scales
    as 1/t_pi, so amplitude * t_pi is a sweep invariant.
    """
    pair = dressed_energies(params, coupler_zpa)
    weight = abs(pair.weight_minus[0])
    if weight == 0:
        raise InvalidArgumentError("lower dressed state has no qubit component here")
    sigma = sigma_fraction * t_pi_ns
    # area of exp(-t^2 / 2 sigma^2) truncated at +-2 sigma
    area_ns = sigma * math.sqrt(2.0 * math.pi) * math.erf(ENVELOPE_TRUNC_SIGMAS / math.sqrt(2.0))
    return 1e3 / (2.0 * weight * area_ns)


@dataclass(frozen=True)
class SimulationReport:
    """Diagnostics from one simulated calibration sweep."""

    reference_zpa: float
    omega_drive_ghz: float
    rwa: RwaCheck
    t_pi_ns: tuple[float, ...]
    p1_grid: np.ndarray  # (n_delays, n_offsets)


def _quadratic_peak(x: np.ndarray, y: np.ndarray, k: int) -> float:
    """Vertex of the parabola through points k-1, k, k+1."""
    a, b, c = np.polyfit(x[k - 1 : k + 2], y[k - 1 : k + 2], 2)
    if a == 0:
        return float(x[k])
    return float(-b / (2.0 * a))


def simulate_calibration(
    params: SystemParams,
    schedule: DriveSchedule,
    channel: CombinedResponse,
    delays_ns,
    offsets,
    input_waveform: Waveform | None = None,
    dt_integration_ns: float = 0.1,
    threads: int = 1,
    full_output: bool = False,
):
    """Run the delay-times-offset calibration sweep against a channel model.

    For each delay the coupler sees the channel's response to a step of
    amplitude ``channel.v_step`` (or to ``input_waveform`` if given), plus
    a constant candidate offset representing compensation applied long in
    advance.  A pi pulse centered on the delay probes whether the flux has
    returned to the working-point value; the offset maximizing the excited
    population, refined by three-point quadratic interpolation, is recorded
    as the measured compensation.

    Returns a CalibrationRun; with ``full_output=True`` also a
    SimulationReport carrying the drive settings and the raw P1 grid.
    """
    delays = np.asarray(delays_ns, dtype=float)
    offs = np.asarray(offsets, dtype=float)
    if delays.ndim != 1 or delays.size == 0 or np.any(np.diff(delays) <= 0):
        raise InvalidArgumentError("delays must be a non-empty increasing 1-D array")
    if offs.ndim != 1 or offs.size < 3 or np.any(np.diff(offs) <= 0):
        raise InvalidArgumentError("offsets must be an increasing 1-D array with >= 3 points")
    if dt_integration_ns <= 0 or dt_integration_ns > 0.1 + 1e-12:
        raise InvalidArgumentError("dt_integration_ns must be in (0, 0.1] ns")

    v_step = channel.v_step
    z_ref = v_step
    pair_ref = dressed_energies(params, z_ref)
    omega_d = pair_ref.omega_minus_ghz

    # Worst-case RWA margin occurs at the largest amplitude (shortest pulse).
    rabi_max = pi_pulse_rabi_mhz(params, z_ref, schedule.t_pi_min_ns, schedule.sigma_fraction)
    rabi_plus = effective_rabi(params, z_ref, rabi_max)[1]
    rwa = check_rwa(pair_ref, rabi_plus)
    if not rwa.passed:
        warnings.warn(
            f"RWA margin exceeded at the working point (ratio {rwa.ratio:.3g})",
            stacklevel=2,
        )

    base_trace = None
    if input_waveform is not None:
        base_trace = apply_channel(input_waveform, channel)

    def base_zpa(t_ns: np.ndarray) -> np.ndarray:
        if base_trace is None:
            return v_step * eval_step_response(channel, t_ns)
        if t_ns[-1] > base_trace.duration_ns + 1e-9:
            raise InvalidArgumentError(
                "input waveform does not cover the last drive window"
            )
        return np.interp(t_ns, base_trace.times_ns, base_trace.samples)

    t_pis = []
    for t_delay in delays:
        t_pi = schedule.t_pi_ns(float(t_delay))
        t_pis.append(t_pi)
        if t_delay < ENVELOPE_TRUNC_SIGMAS * schedule.sigma_fraction * t_pi:
            raise SweepRangeError(
                f"delay {t_delay} ns cannot hold a {t_pi} ns probe pulse after the edge"
            )

    def run_delay(i: int) -> tuple[float, np.ndarray]:
        t_delay = float(delays[i])
        t_pi = t_pis[i]
        rabi = pi_pulse_rabi_mhz(params, z_ref, t_pi, schedule.sigma_fraction)
        drive = DriveParams(
            omega_d_ghz=omega_d,
            rabi_mhz=rabi,
            t_pi_ns=t_pi,
            t_center_ns=t_delay,
            sigma_fraction=schedule.sigma_fraction,
        )
        t_mid = drive.step_midpoints(dt_integration_ns)
        base = base_zpa(t_mid)
        traces = base[None, :] + offs[:, None]
        p1 = _propagate(params, drive, traces, t_mid, dt_integration_ns)
        k = int(np.argmax(p1))
        if k == 0 or k == offs.size - 1:
            raise SweepRangeError(
                f"P1 maximum sits at the offset-sweep edge for delay {t_delay} ns; "
                "widen the offset grid"
            )
        return _quadratic_peak(offs, p1, k), p1

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_delay, range(delays.size)))
    else:
        results = [run_delay(i) for i in range(delays.size)]

    v_oft = np.array([r[0] for r in results])
    p1_grid = np.vstack([r[1] for r in results])
    run = CalibrationRun(
        delays_ns=delays, compensation=v_oft, v_step=v_step, regime=schedule.regime
    )
    if not full_output:
        return run
    report = SimulationReport(
        reference_zpa=z_ref,
        omega_drive_ghz=omega_d,
        rwa=rwa,
        t_pi_ns=tuple(t_pis),
        p1_grid=p1_grid,
    )
    return run, report
