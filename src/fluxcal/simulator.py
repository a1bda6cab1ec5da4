"""Schrodinger-picture simulation of the qubit-coupler calibration probe.

The model is a driven two-body exchange Hamiltonian restricted to the
single-excitation manifold plus the ground state, basis
{|00>, |10>, |01>} (qubit excitation first):

    H = -(w_q/2) sz_q - (w_c/2) sz_c + g (s+_q s-_c + s-_q s+_c)
        - (Omega(t)/2) (e^{i w_d t} |00><10| + h.c.)

All frequencies are in GHz (ordinary frequency, not angular), times in ns;
phases are 2*pi*f*t.  Propagation happens in the frame rotating at the
drive frequency, where the Hamiltonian is real symmetric and slowly
varying.  The drive window is cut into equal steps of at most
``MAX_STEP_NS``, and each step is the fourth-order commutator-free Magnus
method CF4: two exact exponentials of real-symmetric combinations of the
Hamiltonian at the step's two Gauss-Legendre nodes.  The exponentials are
evaluated in closed form (no eigensolver call) for all offsets and
sub-steps of a block at once, and each block is multiplied into one matrix
before it acts on the state.  A block's Hamiltonian entries are built from
its own nodes just before that, so a sweep's memory is set by the rows
propagated at once times the block length, not by the window or the step.
The step is sized by what the calibration loop reads, the measured
compensation: at the default 2 ns step it is within 1e-5 of v_step of a
converged run.

The probe addresses the dressed states of the strongly coupled qubit and
coupler.  ``dressed_states`` diagonalizes their single-excitation block in
closed form, for any array of coupler biases at once; it gives the drive
frequency, the pi-pulse amplitude and the rotating-wave check.

The calibration protocol mirrors the hardware sequence: pick the working
point on the lower dressed branch, calibrate the pi-pulse amplitude there,
then sweep delay and compensation offset to locate, per delay, the offset
that restores the working-point flux.  The working point is bracketed on a
grid and refined by ``_brentq``, a port of scipy's Brent solver that
returns scipy.optimize.brentq's root bit for bit, so the module needs numpy
only.  The delays run in order in the calling process.

A sweep reads only each delay's P1 peak: its argmax and the two offsets
beside it.  So it propagates only the offsets that the peak needs, and
every offset only when ``full_output`` asks for the full P1 grid as a
reference.  The first delay starts from every ``_SEARCH_STRIDE``-th offset
and the last one; every later delay starts from the offsets within
``_CLIMB_REACH`` of the previous delay's peak, usually a few offsets from
its own.  While the argmax so far has an unpropagated neighbour, the
search climbs: it propagates the missing offsets within the reach of that
argmax.  It stops on a computed local maximum.  If that maximum is below
``P1_PEAK_FLOOR``, the climb has found a side lobe, so the missing coarse
offsets are propagated and the climb goes on from the new argmax.  Each
propagated row is the full grid's to the bit, and the argmax is the full
grid's: the side lobes are about 1e-3, so a local maximum above the floor
lies on the main lobe, and the main lobe has a single peak.  Where the
climb ends on a side lobe, the coarse offsets find the main lobe while the
offset step times the lower branch's slope times t_pi stays below about
0.5: the lobe is about 2.2 / t_pi wide in detuning, and the default
roundtrip grids are at 0.19-0.44.  A coarser grid, or a second peak above
the floor (a grid wide enough to reach another transition), can end on
another peak than the full grid's.  A grid that misses the main lobe fails
on both paths: a peak below ``P1_PEAK_FLOOR`` is a side lobe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import warnings

import numpy as np

from .errors import (
    FitFailedError,
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

# The spectator transition is negligible while Omega+/2 stays below this
# fraction of the dressed splitting.
RWA_MARGIN = 0.1

# A delay's P1 peak below this is a side lobe (about 1e-3), not the main lobe
# (0.7-1.0): the offset grid misses the resonance.
P1_PEAK_FLOOR = 0.5

# Largest integration step, and the default one, sized by the compensation
# the loop reads: CF4 is fourth order, and at 2 ns the compensation of every
# default roundtrip stage is within 1.7e-6 of v_step of a 0.05 ns run on
# both presets (P1 itself is off by up to 2.5e-5 for a 30 ns probe).
MAX_STEP_NS = 2.0

# CF4 weights of the early and the late Gauss node in each exponential.
_BETA_PLUS = 0.5 + math.sqrt(3.0) / 3.0
_BETA_MINUS = 0.5 - math.sqrt(3.0) / 3.0

# Sub-steps (two per CF4 step) per block in _propagate.  A block bounds a
# call's arrays: its Hamiltonian entries, rows x _BLOCK_STEPS values each,
# are built from its own nodes, and its 3 x 3 x rows x _BLOCK_STEPS complex
# unitaries (184 kB for the 5 rows of a typical climb batch) from those.  It
# must stay even, so that no CF4 node pair straddles two blocks.  At the
# default step the longest window, a 200 ns probe, has 200 sub-steps, so it
# takes one block.  Measured on the default roundtrips of both presets at
# the 2 ns step, with the climb's batches of 5 rows, then 1-2 (process
# time, median of 7 interleaved runs, 2-vCPU VM): 256 took 0.199 s, 128
# took 0.220-0.226 s, 64 took 0.253-0.265 s and 32 took 0.316-0.347 s; 256
# and 128 write the same artifacts.
_BLOCK_STEPS = 256

# Stride of the peak search's coarse offsets, and the reach of its climb's
# windows around a peak (see simulate_calibration).  On the default planar
# roundtrip a reach of 2 propagates 393 rows in 78 calls and took 0.122 s;
# 1 propagates 271 rows in 102 calls (0.137 s) and 3 propagates 527 in 74
# (0.132 s) (process time, median of 9 interleaved runs, 2-vCPU VM).
_SEARCH_STRIDE = 4
_CLIMB_REACH = 2


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
        if np.shape(self.zpa_range) != (2,):
            raise InvalidArgumentError(
                f"zpa_range must be two values (lo, hi), got {self.zpa_range!r}"
            )
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


def dressed_states(params: SystemParams, coupler_zpa):
    """Dressed single-excitation states at the coupler biases ``coupler_zpa``.

    At each bias the block [[w_q, g], [g, w_c]] of the bare qubit and
    coupler frequencies, crosstalk shift included, is diagonalized in
    closed form.  Returns (lower, upper, q_minus, q_plus), arrays of the
    shape of ``coupler_zpa``: the dressed frequencies in GHz,

        (w_q + w_c)/2 -/+ sqrt((w_c - w_q)^2 + 4 g^2)/2,

    and the |10> (qubit) amplitude of each state, signed so that its |01>
    amplitude is positive.  The splitting is at least 2 g and exactly 2 g
    at resonance, where both amplitudes have magnitude 1/sqrt(2);
    q_minus^2 + q_plus^2 = 1.  A drive of rate Omega on the bare qubit
    addresses the dressed transitions |00> -> |phi-/+> at Omega q_-/+.
    """
    z = np.asarray(coupler_zpa, dtype=float)
    wq = params.qubit_freq_ghz(z)
    wc = params.coupler_freq_ghz(z)
    two_g = 2.0 * params.g_qc_ghz
    delta = wc - wq
    split = np.hypot(delta, two_g)
    mean = 0.5 * (wq + wc)
    # Each state is (ratio, 1) / hypot(ratio, 1) in the (|10>, |01>) basis.
    ratio_minus = -(delta + split) / two_g
    ratio_plus = -(delta - split) / two_g
    return (
        mean - 0.5 * split,
        mean + 0.5 * split,
        ratio_minus / np.hypot(ratio_minus, 1.0),
        ratio_plus / np.hypot(ratio_plus, 1.0),
    )


@dataclass(frozen=True)
class RwaCheck:
    """Outcome of the rotating-wave validity check."""

    passed: bool
    ratio: float
    margin_factor: float


def check_rwa(split_ghz: float, omega_plus_rabi_mhz: float) -> RwaCheck:
    """Check Omega+/2 << the dressed splitting ``split_ghz``.

    The spectator transition |00> -> |phi+> is driven at Omega+; treating
    it as negligible is valid while Omega+/2 stays below RWA_MARGIN times
    the splitting.  Returns the ratio so callers can report margins.
    """
    ratio = 0.5 * abs(omega_plus_rabi_mhz) * 1e-3 / split_ghz
    return RwaCheck(passed=ratio <= RWA_MARGIN, ratio=ratio, margin_factor=RWA_MARGIN)


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

    def step_nodes(self, max_step_ns: float) -> tuple[np.ndarray, float]:
        """Gauss-Legendre nodes of the integration grid, and its step h.

        The window is cut into n = ceil(width / max_step_ns) equal steps of
        h = width / n, so no step crosses the envelope cut.  Step j starting
        at t0 has the nodes t0 + (1/2 -/+ sqrt(3)/6) h; the 2 n nodes are
        returned in time order.
        """
        lo, hi = self.window_ns
        steps = max(int(math.ceil((hi - lo) / max_step_ns)), 1)
        h = (hi - lo) / steps
        fractions = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)
        return (lo + h * (np.arange(steps)[:, None] + fractions)).ravel(), h

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


def _step_unitaries(a, b, c, g: float, theta: float) -> np.ndarray:
    """exp(-i theta H) for H = [[0, c, 0], [c, a, g], [0, g, b]], elementwise.

    ``a``, ``b`` and ``c`` broadcast together and ``g`` > 0 is a scalar;
    the result has shape (3, 3) + the broadcast shape.  The eigenvalues
    l1 <= l2 <= l3 of H come from the trigonometric (Cardano) formula, and
    U is the quadratic in H that interpolates f(x) = exp(-i theta x) at
    them, in Newton form with M = H - l1 I:

        U = f[l1] I + f[l1, l2] M + f[l1, l2, l3] M (M - (l2 - l1) I)

    The first divided differences are exp(-i theta mean) * (-i theta) *
    sinc(theta gap / 2), exact for coinciding eigenvalues, so no
    eigenvector is formed and degenerate spectra (c = 0 on resonance) need
    no special case.  The last division is by l3 - l1 >= 2 g > 0.
    """
    q = (a + b) / 3.0
    d0, d1, d2 = -q, a - q, b - q
    c2 = c * c
    g2 = g * g
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (c2 + g2)) / 6.0)
    cos3phi = (d0 * (d1 * d2 - g2) - c2 * d2) / (2.0 * p * p * p)
    phi = np.arccos(np.clip(cos3phi, -1.0, 1.0)) / 3.0
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    sqrt3 = math.sqrt(3.0)
    # l1 = q + 2p cos(phi + 2pi/3).  The gaps come from phi directly, not
    # as differences of two computed eigenvalues.
    l1 = q - p * (cos_phi + sqrt3 * sin_phi)
    gap12 = 2.0 * sqrt3 * p * sin_phi
    gap23 = p * (3.0 * cos_phi - sqrt3 * sin_phi)
    half12 = 0.5 * theta * gap12
    half23 = 0.5 * theta * gap23
    sin12, sin23 = np.sin(half12), np.sin(half23)
    rot12 = np.cos(half12) - 1j * sin12
    rot23 = np.cos(half23) - 1j * sin23
    sinc12 = np.divide(sin12, half12, out=np.ones_like(half12), where=half12 != 0)
    sinc23 = np.divide(sin23, half23, out=np.ones_like(half23), where=half23 != 0)
    f1 = np.exp(-1j * theta * l1)
    mid12 = -1j * theta * f1 * rot12  # -i theta exp(-i theta (l1 + l2) / 2)
    # Named, not a temporary: numpy would compute mid12 * (a temporary of
    # 256 KiB or more) in place as temporary * mid12, and complex products
    # under FMA are not bitwise commutative, so the bits would follow the
    # batch size.
    second = rot12 * rot23 * sinc23 - sinc12
    f123 = mid12 * second / (gap12 + gap23)
    # U = f1 I + coef_m M + f123 M^2
    coef_m = mid12 * sinc12 - f123 * gap12
    m0, m1, m2 = -l1, a - l1, b - l1
    u = np.empty((3, 3) + np.broadcast(a, b, c).shape, dtype=complex)
    u[0, 0] = f1 + coef_m * m0 + f123 * (m0 * m0 + c2)
    u[1, 1] = f1 + coef_m * m1 + f123 * (m1 * m1 + c2 + g2)
    u[2, 2] = f1 + coef_m * m2 + f123 * (m2 * m2 + g2)
    u[0, 1] = u[1, 0] = (coef_m + f123 * (m0 + m1)) * c
    u[0, 2] = u[2, 0] = f123 * (c * g)
    u[1, 2] = u[2, 1] = (coef_m + f123 * (m1 + m2)) * g
    return u


def _ordered_product(u: np.ndarray) -> np.ndarray:
    """u[..., n-1] @ ... @ u[..., 0] for (3, 3, batch, n) stacks of 3x3
    matrices, multiplied pairwise in log2(n) rounds."""
    while u.shape[-1] > 1:
        n = u.shape[-1]
        early, late = u[..., 0 : n - 1 : 2], u[..., 1:n:2]
        prod = late[:, 0, None] * early[0]
        prod += late[:, 1, None] * early[1]
        prod += late[:, 2, None] * early[2]
        if n % 2:
            prod = np.concatenate([prod, u[..., n - 1 :]], axis=-1)
        u = prod
    return u[..., 0]


def _cf4_exponents(x: np.ndarray) -> np.ndarray:
    """Node pairs (x1, x2) along the last axis -> the two CF4 sub-step
    values (b+ x1 + b- x2, b- x1 + b+ x2), in the order they act."""
    x1, x2 = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = _BETA_PLUS * x1 + _BETA_MINUS * x2
    out[..., 1::2] = _BETA_MINUS * x1 + _BETA_PLUS * x2
    return out


def _propagate(
    params: SystemParams, drive: DriveParams, trace: np.ndarray, offsets: np.ndarray,
    t_nodes: np.ndarray, h: float,
) -> np.ndarray:
    """Final qubit |1> population after the drive window, starting from
    |00>, for each row of a batch of zpa traces.

    ``t_nodes`` and ``h`` come from ``drive.step_nodes``; ``trace`` is the
    coupler zpa at each node, and row r sees ``trace + offsets[r]``.

    Each step applies CF4, the two-exponential commutator-free Magnus
    method (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006)), with the
    Hamiltonians H1, H2 at the step's early and late node:

        U = exp(-i pi h (b- H1 + b+ H2)) exp(-i pi h (b+ H1 + b- H2)),

    b+- = 1/2 +- sqrt(3)/3, H in GHz.  The right-hand factor acts first;
    in the other order the method is only second order.  Both exponents
    are real-symmetric, H = [[0, c, 0], [c, a, g], [0, g, b]] with the same
    g (b+ + b- = 1), so each is one sub-step exp(-i theta H), theta = pi h.

    Sub-steps are taken ``_BLOCK_STEPS`` at a time, and a block of
    sub-steps is the same span of nodes.  For each block the entries a, b
    and c are built from the block's nodes, the unitaries of every row
    from those at once (``_step_unitaries``), and the unitaries are
    multiplied into one matrix that acts on the state.  So a call holds
    rows x ``_BLOCK_STEPS`` values per array, whatever the window and the
    step.  A state whose norm drifts
    past ``NORM_DRIFT_LIMIT``, or is not finite, raises IntegrationError.
    """
    psi = np.zeros((3, offsets.size), dtype=complex)
    psi[0] = 1.0
    for start in range(0, t_nodes.size, _BLOCK_STEPS):
        block = slice(start, start + _BLOCK_STEPS)
        zpa = trace[None, block] + offsets[:, None]
        wq = params.qubit_freq_ghz(zpa) - drive.omega_d_ghz
        wc = params.coupler_freq_ghz(zpa) - drive.omega_d_ghz
        coupling = -0.5e-3 * drive.rabi_mhz * drive.envelope(t_nodes[block])
        u = _step_unitaries(
            _cf4_exponents(wq), _cf4_exponents(wc), _cf4_exponents(coupling),
            params.g_qc_ghz, np.pi * h,
        )
        psi = np.sum(_ordered_product(u) * psi[None, :, :], axis=1)
    drift = np.max(np.abs(np.sum(np.abs(psi) ** 2, axis=0) - 1.0))
    if not drift <= NORM_DRIFT_LIMIT:
        raise IntegrationError(f"state norm drifted by {drift:.3g}")
    return np.abs(psi[1]) ** 2


def evolve_excitation(
    params: SystemParams, drive: DriveParams, coupler_zpa_trace: Waveform
) -> float:
    """Final qubit |1> population after one excitation pulse.

    The trace gives the coupler zpa on a uniform grid starting at t = 0 and
    must cover the pulse window; it is interpolated linearly at the
    integration nodes.  The largest step is the trace's sample spacing or
    ``MAX_STEP_NS``, whichever is smaller.  The state starts in |00> and is
    propagated only across the window, outside which the drive vanishes
    and |00> is stationary.  It is the sweep's propagation, ``_propagate``,
    on one row with a zero offset, so it too holds ``_BLOCK_STEPS`` nodes'
    Hamiltonian entries at a time.
    """
    lo, hi = drive.window_ns
    if lo < -1e-9 or hi > coupler_zpa_trace.duration_ns + 1e-9:
        raise InvalidArgumentError(
            f"trace [0, {coupler_zpa_trace.duration_ns}] ns does not cover the "
            f"drive window [{lo}, {hi}] ns"
        )
    t_nodes, h = drive.step_nodes(min(coupler_zpa_trace.dt_ns, MAX_STEP_NS))
    zpa = np.interp(t_nodes, coupler_zpa_trace.times_ns, coupler_zpa_trace.samples)
    return float(_propagate(params, drive, zpa, np.zeros(1), t_nodes, h)[0])


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
        return params.coupler_freq_ghz(z) - params.qubit_freq_ghz(z) - delta_target

    # One array call over the grid gives the bracket by its sign pattern
    # alone; Brent's method refines it on scalar calls.
    lo, hi = params.coupler.zpa_range
    grid = np.linspace(lo, hi, 512)
    vals = gap(grid)
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if vals[0] <= 0 or sign_change.size == 0:
        raise SweepRangeError("zpa_range does not bracket the requested working point")
    i = int(sign_change[0])
    return _brentq(lambda z: float(gap(z)), float(grid[i]), float(grid[i + 1]), xtol=1e-12)


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """A root of ``f`` in [xa, xb], where f(xa) and f(xb) differ in sign, by
    Brent's method, to within xtol + 4 eps |root|.

    A line-by-line port of ``brentq.c`` from scipy (BSD-3-Clause; copyright
    (c) 2001-2002 Enthought, Inc., 2003 SciPy Developers), with its
    defaults rtol = 4 eps and 100 iterations: it takes the same steps in the
    same floating-point operations, so it returns
    ``scipy.optimize.brentq(f, xa, xb, xtol=xtol)`` bit for bit.  No
    convergence in 100 iterations raises FitFailedError.
    """
    rtol, maxiter = 4 * float(np.finfo(float).eps), 100
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise InvalidArgumentError("f(xa) and f(xb) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise FitFailedError(f"Brent's method did not converge in {maxiter} iterations")


def pi_pulse_rabi_mhz(params: SystemParams, coupler_zpa: float, t_pi_ns: float, sigma_fraction: float = 0.25) -> float:
    """Peak drive rate giving a pi rotation on the lower dressed transition.

    Uses the truncated-Gaussian envelope area and the |10> amplitude of the
    lower dressed state at the bias point.  The returned amplitude scales
    as 1/t_pi, so amplitude * t_pi is a sweep invariant.
    """
    return _pi_rabi_mhz(dressed_states(params, coupler_zpa)[2], t_pi_ns, sigma_fraction)


def _pi_rabi_mhz(q_minus, t_pi_ns: float, sigma_fraction: float) -> float:
    """``pi_pulse_rabi_mhz`` from the lower dressed state's |10> amplitude
    ``q_minus`` (``dressed_states(...)[2]``), which a sweep computes once."""
    weight = abs(float(q_minus))
    if weight == 0:
        raise InvalidArgumentError("lower dressed state has no qubit component here")
    sigma = sigma_fraction * t_pi_ns
    # area of exp(-t^2 / 2 sigma^2) truncated at +-2 sigma
    area_ns = sigma * math.sqrt(2.0 * math.pi) * math.erf(ENVELOPE_TRUNC_SIGMAS / math.sqrt(2.0))
    return 1e3 / (2.0 * weight * area_ns)


@dataclass(frozen=True)
class SimulationReport:
    """Diagnostics from one simulated calibration sweep."""

    omega_drive_ghz: float
    rwa: RwaCheck
    t_pi_ns: tuple[float, ...]
    # (n_delays, n_offsets); -inf where the peak search propagated no row
    p1_grid: np.ndarray
    # Work counters, not written to report.json: the calls to _propagate,
    # and their rows times sub-steps, summed.
    propagate_calls: int
    substeps: int


def _quadratic_peak(x: np.ndarray, y: np.ndarray, k: int) -> float:
    """Vertex of the parabola through points k-1, k, k+1, in closed form;
    x[k] if the three points are collinear."""
    dl, dr = x[k] - x[k - 1], x[k] - x[k + 1]
    fl, fr = y[k] - y[k - 1], y[k] - y[k + 1]
    # dl dr (x[k+1] - x[k-1]) times the leading coefficient of the parabola
    den = dl * fr - dr * fl
    if den == 0:
        return float(x[k])
    return float(x[k] - 0.5 * (dl * dl * fr - dr * dr * fl) / den)


def _sweep_grid(values, kind: str) -> np.ndarray:
    """A sweep's delays (``kind`` "delays") or offsets ("offsets") as a
    float array, checked: an increasing 1-D array of >= 2 delays or >= 3
    offsets."""
    grid = np.asarray(values, dtype=float)
    least = 2 if kind == "delays" else 3
    if grid.ndim != 1 or grid.size < least or np.any(np.diff(grid) <= 0):
        raise InvalidArgumentError(f"{kind} must be an increasing 1-D array with >= {least} points")
    return grid


def simulate_calibration(
    params: SystemParams,
    schedule: DriveSchedule,
    channel: CombinedResponse,
    delays_ns,
    offsets,
    input_waveform: Waveform | None = None,
    dt_integration_ns: float = MAX_STEP_NS,
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

    ``dt_integration_ns`` is the largest integration step, in
    (0, ``MAX_STEP_NS``]; each window is cut into equal CF4 steps no
    longer than it (see ``_propagate``).  The delays run in order, and
    the first one that fails raises its error.

    Each delay propagates only the offsets its peak search needs (see the
    module docstring): the first delay starts from every
    ``_SEARCH_STRIDE``-th offset and the last one, every later delay from
    the offsets within ``_CLIMB_REACH`` of the previous delay's peak.
    While the argmax lacks a propagated neighbour, the missing offsets
    within the reach of it follow.  A local maximum below
    ``P1_PEAK_FLOOR`` is a side lobe: the missing coarse offsets follow,
    and the climb goes on.  Offsets never propagated count as -inf for the
    argmax, which ends on the full grid's (a local maximum above the floor
    is on the single-peaked main lobe), and the checks and the vertex then
    run as on the full grid.  A delay whose largest P1 is below
    ``P1_PEAK_FLOOR`` (the grid holds no main lobe, only side lobes) or
    sits on the grid's edge raises SweepRangeError naming the delay.

    With ``full_output=True`` every offset is propagated, in one call per
    delay: the reference grid that the peak search must match.

    Returns (CalibrationRun, SimulationReport).  The report carries the
    drive settings and the P1 grid: P1 where an offset was propagated and
    -inf elsewhere, so ``np.isfinite(report.p1_grid).sum()`` counts the
    propagated rows.  It also counts the calls to ``_propagate`` and their
    sub-steps, rows times the window's sub-steps summed over the calls.
    """
    delays, offs = _sweep_grid(delays_ns, "delays"), _sweep_grid(offsets, "offsets")
    if not 0.0 < dt_integration_ns <= MAX_STEP_NS:
        raise InvalidArgumentError(f"dt_integration_ns must be in (0, {MAX_STEP_NS}] ns")

    v_step = channel.v_step
    lower, upper, q_minus, q_plus = dressed_states(params, v_step)
    omega_d = float(lower)

    # Worst-case RWA margin occurs at the largest amplitude (shortest pulse).
    rabi_max = _pi_rabi_mhz(q_minus, schedule.t_pi_min_ns, schedule.sigma_fraction)
    rwa = check_rwa(float(upper - lower), rabi_max * float(q_plus))
    if not rwa.passed:
        warnings.warn(
            f"RWA margin exceeded at the working point (ratio {rwa.ratio:.3g})",
            stacklevel=2,
        )

    base_trace = None
    if input_waveform is not None:
        base_trace = apply_channel(input_waveform, channel)
        base_times = base_trace.times_ns

    def base_zpa(t_ns: np.ndarray) -> np.ndarray:
        if base_trace is None:
            return v_step * eval_step_response(channel, t_ns)
        if t_ns[-1] > base_trace.duration_ns + 1e-9:
            raise InvalidArgumentError(
                "input waveform does not cover the last drive window"
            )
        return np.interp(t_ns, base_times, base_trace.samples)

    rows = np.arange(offs.size)
    coarse = (rows % _SEARCH_STRIDE == 0) | (rows == offs.size - 1)
    t_pis, v_oft, p1_rows = [], [], []
    k = None
    calls = substeps = 0
    for t_delay in delays:
        t_pi = schedule.t_pi_ns(float(t_delay))
        t_pis.append(t_pi)
        if t_delay < ENVELOPE_TRUNC_SIGMAS * schedule.sigma_fraction * t_pi:
            raise SweepRangeError(
                f"delay {t_delay} ns cannot hold a {t_pi} ns probe pulse after the edge"
            )
        drive = DriveParams(
            omega_d_ghz=omega_d,
            rabi_mhz=_pi_rabi_mhz(q_minus, t_pi, schedule.sigma_fraction),
            t_pi_ns=t_pi,
            t_center_ns=float(t_delay),
            sigma_fraction=schedule.sigma_fraction,
        )
        t_nodes, h = drive.step_nodes(dt_integration_ns)
        zpa = base_zpa(t_nodes)
        # Every row for the full grid; the coarse rows for the first delay;
        # the rows around the previous delay's peak k for the others.  Rows
        # not propagated count as -inf.  While the argmax has an unpropagated
        # neighbour, the missing rows within _CLIMB_REACH of it follow; a
        # local maximum below the floor brings in the missing coarse rows.
        if full_output:
            todo = np.ones(offs.size, dtype=bool)
        else:
            todo = coarse if k is None else np.abs(rows - k) <= _CLIMB_REACH
        p1 = np.full(offs.size, -np.inf)
        while todo.any():
            p1[todo] = _propagate(params, drive, zpa, offs[todo], t_nodes, h)
            calls += 1
            substeps += int(todo.sum()) * t_nodes.size
            k = int(np.argmax(p1))
            todo = np.isneginf(p1)
            if todo[max(k - 1, 0) : k + 2].any():
                todo &= np.abs(rows - k) <= _CLIMB_REACH
            elif p1[k] < P1_PEAK_FLOOR:
                todo &= coarse
            else:
                break
        # before the edge check: off the main lobe the two paths may end on
        # different side lobes, one of them on an edge
        if p1[k] < P1_PEAK_FLOOR:
            raise SweepRangeError(
                f"P1 peak below {P1_PEAK_FLOOR} for delay {drive.t_center_ns} ns: the offset grid "
                "misses the main lobe; widen or move it"
            )
        if k == 0 or k == offs.size - 1:
            raise SweepRangeError(
                f"P1 maximum sits at the offset-sweep edge for delay {drive.t_center_ns} ns; "
                "widen the offset grid"
            )
        v_oft.append(_quadratic_peak(offs, p1, k))
        p1_rows.append(p1)

    run = CalibrationRun(
        delays_ns=delays, compensation=np.array(v_oft), v_step=v_step, regime=schedule.regime
    )
    report = SimulationReport(
        omega_drive_ghz=omega_d, rwa=rwa, t_pi_ns=tuple(t_pis), p1_grid=np.vstack(p1_rows),
        propagate_calls=calls, substeps=substeps,
    )
    return run, report
