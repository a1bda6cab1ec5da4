import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq

from fluxcal import pipeline, presets, simulator
from fluxcal.errors import FluxcalError, IntegrationError, InvalidArgumentError, SweepRangeError
from fluxcal.models import CombinedResponse, LongTimeModel, ShortTimeModel, eval_step_response
from fluxcal.predistort import full_pipeline
from fluxcal.signal import Waveform, heaviside_step
from fluxcal.simulator import (
    MAX_STEP_NS,
    NORM_DRIFT_LIMIT,
    CouplerMap,
    DriveParams,
    DriveSchedule,
    SystemParams,
    check_rwa,
    dressed_states,
    evolve_excitation,
    find_working_point,
    long_time_schedule,
    pi_pulse_rabi_mhz,
    simulate_calibration,
    _BLOCK_STEPS,
    _cf4_exponents,
    _evolve,
    _propagate,
    _quadratic_peak,
    _step_unitaries,
)


def small_system():
    return SystemParams(
        omega_q_ghz=4.578,
        g_qc_ghz=0.0789,
        coupler=CouplerMap(
            f_max_ghz=6.3031,
            curvature_ghz=0.299,
            asymmetry=0.0,
            zpa_to_flux=1.0,
            zpa_range=(0.0, 0.45),
        ),
        coeff_zxtalk=0.0375,
        qubit_zpa_slope_ghz=4.0,
    )


def test_coupler_map_top_of_band():
    cm = CouplerMap(f_max_ghz=6.0, curvature_ghz=0.3, asymmetry=0.0, zpa_to_flux=1.0,
                    zpa_range=(0.0, 0.4))
    assert cm.frequency(0.0) == pytest.approx(6.0, abs=1e-12)
    assert cm.frequency(0.3) < cm.frequency(0.1)


def test_coupler_map_rejects_non_monotonic_range():
    with pytest.raises(InvalidArgumentError):
        CouplerMap(f_max_ghz=6.0, curvature_ghz=0.3, asymmetry=0.0, zpa_to_flux=1.0,
                   zpa_range=(-0.2, 0.2))


@pytest.mark.parametrize("zpa_range", [(0.0, 0.2, 0.45), (0.45,), 0.45])
def test_coupler_map_needs_two_zpa_bounds(zpa_range):
    with pytest.raises(InvalidArgumentError, match="zpa_range must be two values"):
        CouplerMap(f_max_ghz=6.0, curvature_ghz=0.3, asymmetry=0.0, zpa_to_flux=1.0,
                   zpa_range=zpa_range)


def test_system_params_validation():
    cm = CouplerMap(f_max_ghz=6.0, curvature_ghz=0.3, asymmetry=0.0, zpa_to_flux=1.0,
                    zpa_range=(0.0, 0.4))
    with pytest.raises(InvalidArgumentError):
        SystemParams(omega_q_ghz=4.5, g_qc_ghz=0.0, coupler=cm)
    with pytest.raises(InvalidArgumentError):
        SystemParams(omega_q_ghz=4.5, g_qc_ghz=0.08, coupler=cm, coeff_zxtalk=0.2)


def bare_pair(omega_q, omega_c, g):
    """A system whose bare qubit and coupler sit at omega_q and omega_c at
    zpa 0 (a symmetric coupler with no curvature is at f_max there)."""
    coupler = CouplerMap(f_max_ghz=omega_c, curvature_ghz=0.0, asymmetry=0.0, zpa_to_flux=1.0,
                         zpa_range=(0.0, 0.45))
    return SystemParams(omega_q_ghz=omega_q, g_qc_ghz=g, coupler=coupler)


@st.composite
def systems(draw):
    """Qubit-coupler pairs: a 4-6 GHz qubit with Z crosstalk, g of 10-200 MHz,
    and a transmon coupler of 4-7 GHz top frequency over zpa [0, 0.45]."""
    coupler = CouplerMap(
        f_max_ghz=draw(st.floats(4.0, 7.0)),
        curvature_ghz=draw(st.floats(0.0, 0.4)),
        asymmetry=draw(st.floats(0.0, 0.9)),
        zpa_to_flux=1.0,
        zpa_range=(0.0, 0.45),
    )
    return SystemParams(
        omega_q_ghz=draw(st.floats(4.0, 6.0)),
        g_qc_ghz=draw(st.floats(0.01, 0.2)),
        coupler=coupler,
        coeff_zxtalk=draw(st.floats(-0.1, 0.1)),
        qubit_zpa_slope_ghz=draw(st.floats(-5.0, 5.0)),
    )


zpa_scans = st.lists(st.floats(0.0, 0.45), min_size=1, max_size=20).map(np.array)


@pytest.mark.parametrize("seed", range(6))
def test_dressed_pair_matches_eigensolver(seed):
    rng = np.random.default_rng(seed)
    omega_q = rng.uniform(4.0, 6.0)
    omega_c = rng.uniform(4.0, 6.0)
    g = rng.uniform(0.01, 0.2)
    lower, upper, q_minus, q_plus = dressed_states(bare_pair(omega_q, omega_c, g), 0.0)
    evals, evecs = np.linalg.eigh(np.array([[omega_q, g], [g, omega_c]]))
    np.testing.assert_allclose([lower, upper], evals, rtol=0, atol=1e-12)
    # Each state's |01> amplitude is positive, which fixes the eigenvector sign.
    np.testing.assert_allclose([q_minus, q_plus], evecs[0] * np.sign(evecs[1]), rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(systems(), zpa_scans)
def test_dressed_states_match_eigensolver(params, z):
    lower, upper, q_minus, q_plus = dressed_states(params, z)
    h = np.empty(z.shape + (2, 2))
    h[:, 0, 0], h[:, 1, 1] = params.qubit_freq_ghz(z), params.coupler_freq_ghz(z)
    h[:, 0, 1] = h[:, 1, 0] = params.g_qc_ghz
    evals, evecs = np.linalg.eigh(h)
    np.testing.assert_allclose(np.stack([lower, upper], axis=-1), evals, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.abs(np.stack([q_minus, q_plus], axis=-1)), np.abs(evecs[:, 0, :]),
                               rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(systems(), st.floats(0.0, 0.45))
def test_resonant_splitting_is_exactly_twice_g(params, z):
    # Put the qubit on the coupler at z: the splitting is then 2 g, and the
    # two states share the qubit equally.
    params = replace(params, omega_q_ghz=float(params.coupler_freq_ghz(z)), coeff_zxtalk=0.0)
    lower, upper, q_minus, q_plus = dressed_states(params, z)
    assert abs((upper - lower) - 2.0 * params.g_qc_ghz) <= 1e-12
    np.testing.assert_allclose(np.abs([q_minus, q_plus]), 1 / np.sqrt(2), rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(systems(), zpa_scans)
def test_dressed_weights_orthonormal(params, z):
    # The qubit row of the orthogonal eigenvector matrix has unit norm.
    _, _, q_minus, q_plus = dressed_states(params, z)
    np.testing.assert_allclose(q_minus**2 + q_plus**2, 1.0, rtol=0, atol=1e-14)


@settings(max_examples=200, deadline=None)
@given(systems(), zpa_scans)
def test_dressed_states_array_matches_per_point(params, z):
    # Not bit for bit: numpy's vectorized loops may round the last bit
    # differently from a one-element call.
    for got, points in zip(dressed_states(params, z), zip(*(dressed_states(params, zi) for zi in z))):
        assert got.shape == z.shape
        np.testing.assert_allclose(got, points, rtol=0, atol=1e-12)


def test_far_detuned_lower_state_is_qubit_like():
    lower, _, q_minus, _ = dressed_states(bare_pair(4.5, 6.3, 0.08), 0.0)
    assert abs(q_minus) > 0.999
    assert lower == pytest.approx(4.5, abs=0.005)


def test_qubit_amplitudes_split_a_drive_evenly_at_resonance():
    params = small_system()
    # find the resonance point: coupler frequency equals the qubit's
    z_res = find_working_point(params, repulsion_ghz=params.g_qc_ghz * 0.999999)
    _, _, q_minus, q_plus = dressed_states(params, z_res)
    # a 10 MHz bare qubit drive addresses both dressed transitions equally
    assert abs(10.0 * q_minus) == pytest.approx(10.0 / np.sqrt(2), rel=1e-3)
    assert abs(10.0 * q_plus) == pytest.approx(10.0 / np.sqrt(2), rel=1e-3)


def test_check_rwa_boundaries():
    lower, upper, _, _ = dressed_states(bare_pair(4.6, 4.9, 0.08), 0.0)
    split_mhz = (upper - lower) * 1e3
    under = check_rwa(upper - lower, omega_plus_rabi_mhz=0.198 * split_mhz)
    assert under.passed and under.ratio == pytest.approx(0.099, rel=1e-12)
    assert under.margin_factor == 0.1
    over = check_rwa(upper - lower, omega_plus_rabi_mhz=0.21 * split_mhz)
    assert not over.passed
    silent = check_rwa(upper - lower, omega_plus_rabi_mhz=0.0)
    assert silent.passed and silent.ratio == 0.0


def test_drive_params_validation_and_envelope():
    with pytest.raises(InvalidArgumentError):
        DriveParams(omega_d_ghz=4.5, rabi_mhz=10.0, t_pi_ns=20.0, t_center_ns=100.0)
    drive = DriveParams(omega_d_ghz=4.5, rabi_mhz=10.0, t_pi_ns=40.0, t_center_ns=100.0)
    assert drive.sigma_ns == 10.0
    assert drive.window_ns == (80.0, 120.0)
    t = np.array([100.0, 79.9, 120.1, 90.0])
    env = drive.envelope(t)
    assert env[0] == 1.0
    assert env[1] == 0.0 and env[2] == 0.0
    assert 0.0 < env[3] < 1.0


def test_drive_schedule_ramp():
    sched = DriveSchedule(regime="short", t_pi_min_ns=30.0, t_pi_max_ns=200.0, ramp_end_ns=2000.0)
    assert sched.t_pi_ns(0.0) == 30.0
    assert sched.t_pi_ns(1000.0) == pytest.approx(115.0)
    assert sched.t_pi_ns(5000.0) == 200.0
    fixed = long_time_schedule(120.0)
    assert fixed.regime == "long"
    assert fixed.t_pi_ns(0.0) == 120.0 == fixed.t_pi_ns(30000.0)


@pytest.mark.parametrize("make_params", [presets.planar_system, presets.flipchip_system])
def test_find_working_point_hits_requested_repulsion(make_params):
    params = make_params()
    z = find_working_point(params, repulsion_ghz=0.050)
    lower = dressed_states(params, z)[0]
    repulsion = params.qubit_freq_ghz(z) - lower
    assert repulsion == pytest.approx(0.050, abs=1e-9)


def scalar_scan_working_point(params, repulsion_ghz):
    # The bracket from one scalar gap evaluation per grid point, refined by
    # brentq on the same scalar gap.
    g = params.g_qc_ghz
    delta_target = (g**2 - repulsion_ghz**2) / repulsion_ghz

    def gap(z):
        return float(params.coupler_freq_ghz(z) - params.qubit_freq_ghz(z)) - delta_target

    grid = np.linspace(*params.coupler.zpa_range, 512)
    vals = np.array([gap(z) for z in grid])
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if vals[0] <= 0 or sign_change.size == 0:
        return None  # not bracketed
    i = int(sign_change[0])
    return float(brentq(gap, grid[i], grid[i + 1], xtol=1e-12))


@pytest.mark.parametrize("make_params", [presets.planar_system, presets.flipchip_system, small_system])
@pytest.mark.parametrize("repulsion_ghz", [0.02, 0.03, 0.05])
def test_find_working_point_matches_the_scalar_scan(make_params, repulsion_ghz):
    params = make_params()
    assert find_working_point(params, repulsion_ghz) == scalar_scan_working_point(params, repulsion_ghz)


@pytest.mark.parametrize("make_params", [presets.planar_system, presets.flipchip_system])
def test_find_working_point_is_brentq_over_the_repulsion_range(make_params):
    # The Brent port against scipy's brentq at 97 working points, from 1 MHz
    # to g - 1 MHz of repulsion; below about 4 MHz the working point lies
    # outside zpa_range, and both refuse it.
    params = make_params()
    for repulsion_ghz in np.linspace(1e-3, params.g_qc_ghz - 1e-3, 97):
        expected = scalar_scan_working_point(params, repulsion_ghz)
        if expected is None:
            with pytest.raises(SweepRangeError):
                find_working_point(params, repulsion_ghz)
            continue
        assert np.float64(find_working_point(params, repulsion_ghz)).tobytes() == np.float64(expected).tobytes()


_MONOTONE = {
    "cubic": lambda x, r, k: k * (x - r) ** 3 + (x - r),
    "exp": lambda x, r, k: math.expm1(k * (x - r)),
    "atan": lambda x, r, k: math.atan(k * (x - r)) + 1e-3 * (x - r),
    "sqrt": lambda x, r, k: math.copysign(math.sqrt(abs(x - r)), x - r) * k,
    "step": lambda x, r, k: math.tanh(k * k * (x - r)),
}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_MONOTONE)),
    st.floats(-10.0, 10.0),
    st.floats(0.1, 20.0),
    st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
    st.floats(1e-6, 10.0),
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]),
)
def test_brentq_port_is_scipy_brentq_bit_for_bit(name, root, k, below, above, sign, xtol):
    # Increasing or decreasing, on a bracket around the root or starting at
    # it: the same root, bit for bit.
    def f(x):
        return sign * _MONOTONE[name](x, root, k)

    a, b = root - below, root + above
    expected = brentq(f, a, b, xtol=xtol)
    assert np.float64(simulator._brentq(f, a, b, xtol=xtol)).tobytes() == np.float64(expected).tobytes()


def test_brentq_port_refuses_a_bracket_without_a_sign_change():
    with pytest.raises(InvalidArgumentError, match="different signs"):
        simulator._brentq(math.exp, 0.0, 1.0, xtol=1e-12)


def test_find_working_point_range_errors():
    params = small_system()
    with pytest.raises(SweepRangeError):
        find_working_point(params, repulsion_ghz=params.g_qc_ghz * 1.5)
    with pytest.raises(SweepRangeError):
        find_working_point(params, repulsion_ghz=0.0)


def test_pi_pulse_amplitude_times_length_is_invariant():
    params = small_system()
    z = find_working_point(params, 0.050)
    products = [pi_pulse_rabi_mhz(params, z, t_pi) * t_pi for t_pi in (30.0, 60.0, 120.0)]
    np.testing.assert_allclose(products, products[0], rtol=1e-12)


def test_pi_pulse_transfers_lower_branch_population():
    params = small_system()
    z = find_working_point(params, 0.050)
    lower, _, q_minus, _ = dressed_states(params, z)
    drive = DriveParams(
        omega_d_ghz=float(lower),
        rabi_mhz=pi_pulse_rabi_mhz(params, z, 40.0),
        t_pi_ns=40.0,
        t_center_ns=50.0,
    )
    trace = Waveform(0.1, np.full(1000, z))
    p1 = evolve_excitation(params, drive, trace)
    assert 0.0 <= p1 <= 1.0
    # a pi pulse into the lower dressed state leaves the qubit with its
    # |10> amplitude squared
    assert p1 == pytest.approx(q_minus**2, abs=0.01)


def test_pi_area_rule_makes_p1_length_independent():
    params = small_system()
    z = find_working_point(params, 0.050)
    lower = float(dressed_states(params, z)[0])
    p1s = []
    for t_pi in (30.0, 60.0):
        drive = DriveParams(
            omega_d_ghz=lower,
            rabi_mhz=pi_pulse_rabi_mhz(params, z, t_pi),
            t_pi_ns=t_pi,
            t_center_ns=60.0,
        )
        trace = Waveform(0.1, np.full(1300, z))
        p1s.append(evolve_excitation(params, drive, trace))
    # residual drift comes from spectator-branch leakage, order (rabi/split)^2
    assert abs(p1s[0] - p1s[1]) < 0.01


def test_evolve_requires_trace_covering_window():
    params = small_system()
    drive = DriveParams(omega_d_ghz=4.5, rabi_mhz=10.0, t_pi_ns=40.0, t_center_ns=200.0)
    trace = Waveform(0.1, np.full(100, 0.3))  # 10 ns, window ends at 240 ns
    with pytest.raises(InvalidArgumentError):
        evolve_excitation(params, drive, trace)


def test_simulate_ideal_channel_recovers_zero_offsets():
    params = presets.flipchip_system()
    z = find_working_point(params, 0.050)
    channel = CombinedResponse(short=None, long=None, v_step=z)
    offsets = np.linspace(-0.01, 0.01, 11) * z
    run, _ = simulate_calibration(
        params, DriveSchedule(regime="short"), channel,
        delays_ns=[50.0, 120.0, 300.0], offsets=offsets,
    )
    grid_step = offsets[1] - offsets[0]
    assert np.max(np.abs(run.compensation)) < grid_step


def test_simulate_raises_under_the_callers_error_state(monkeypatch):
    # Under numpy's default state the overflow would only warn, and the
    # sweep would then fail on the offset-grid edge instead.
    def overflowing(params, drive, traces, t_nodes, h):
        return np.full(traces.shape[0], np.finfo(float).max) * 2.0

    monkeypatch.setattr(simulator, "_propagate", overflowing)
    params = presets.flipchip_system()
    z = find_working_point(params, 0.050)
    channel = CombinedResponse(short=None, long=None, v_step=z)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        simulate_calibration(
            params, DriveSchedule(regime="short"), channel,
            delays_ns=[50.0, 120.0, 300.0], offsets=np.linspace(-0.01, 0.01, 11) * z,
        )


@pytest.mark.parametrize("full_output", [False, True])
def test_simulate_edge_peak_names_the_first_delay(full_output):
    params = presets.flipchip_system()
    z = find_working_point(params, 0.050)
    channel = CombinedResponse(short=None, long=None, v_step=z)
    # Every delay peaks on the edge; the earliest one must be reported, by
    # the peak-only search as by the full grid.
    with pytest.raises(SweepRangeError, match="for delay 100.0 ns"):
        simulate_calibration(
            params, DriveSchedule(regime="short"), channel,
            delays_ns=[100.0, 110.0, 120.0], offsets=np.linspace(0.01, 0.05, 9) * z,
            full_output=full_output,
        )


@pytest.mark.parametrize("full_output", [False, True])
def test_simulate_side_lobe_peak_names_the_delay(monkeypatch, full_output):
    params = presets.flipchip_system()
    z = find_working_point(params, 0.050)
    channel = CombinedResponse(short=None, long=None, v_step=z)
    args = (params, DriveSchedule(regime="short"), channel, [100.0, 110.0])
    offsets = np.linspace(0.024, 0.058, 15) * z
    with monkeypatch.context() as m:
        m.setattr(simulator, "P1_PEAK_FLOOR", 0.0)
        _, report = simulate_calibration(*args, offsets, full_output=True)
    # The main lobe (P1 0.7-1.0) sits near offset 0; this grid holds only
    # the first side lobe, whose maximum lies inside it.
    assert report.p1_grid.max() < 1e-3
    assert all(0 < k < offsets.size - 1 for k in np.argmax(report.p1_grid, axis=1))
    with pytest.raises(SweepRangeError, match=r"P1 peak below 0\.5 for delay 100\.0 ns"):
        simulate_calibration(*args, offsets, full_output=full_output)


def _sweep_outcome(*args, **kwargs):
    """The compensation bytes and the report of a sweep, or the class and
    message of the error it raises."""
    try:
        run, report = simulate_calibration(*args, **kwargs)
    except FluxcalError as exc:
        return type(exc), str(exc)
    return run.compensation.tobytes(), report


@st.composite
def calibration_sweeps(draw):
    """Arguments of a sweep on a preset device at its working point: a
    channel of 0-3 short terms with or without a long part, a short or long
    schedule with 2-6 delays, 3-80 offsets around the expected compensation,
    an integration step of 0.5-2 ns, and no input waveform, a step, or a
    step predistorted by the channel."""
    params = draw(st.sampled_from([presets.planar_system, presets.flipchip_system]))()
    z = find_working_point(params, 0.050)
    taus = sorted(set(draw(st.lists(st.floats(5.0, 2000.0), max_size=3))))
    short = None
    if taus:
        short = ShortTimeModel.from_arrays([draw(st.floats(-0.02, 0.02)) for _ in taus], taus)
    long_part = draw(st.none() | st.builds(
        LongTimeModel, settled=st.floats(0.99, 1.02), initial=st.floats(0.98, 1.01),
        tau_us=st.floats(5.0, 30.0),
    ))
    channel = CombinedResponse(short, long_part, v_step=z)
    ratios = draw(st.lists(st.floats(1.05, 4.0), min_size=1, max_size=5))
    if draw(st.booleans()):
        t_pi_min = draw(st.floats(30.0, 200.0))
        schedule = DriveSchedule(
            regime="short", t_pi_min_ns=t_pi_min, t_pi_max_ns=draw(st.floats(t_pi_min, 200.0)),
            ramp_end_ns=draw(st.floats(100.0, 3000.0)),
        )
        first = draw(st.floats(0.5 * schedule.t_pi_max_ns, 600.0))
    else:
        schedule = long_time_schedule(draw(st.floats(30.0, 200.0)))
        first = draw(st.floats(4000.0, 20000.0))
    delays = first * np.cumprod([1.0, *ratios])
    # The last delay stays within 64 times the first, as with 2-4 delays, so
    # that a step input stays a few million samples: a longer run of ratios
    # is compressed on the log scale, each ratio still above 1.
    if delays[-1] > 64.0 * first:
        delays = first * (delays / first) ** (np.log(64.0) / np.log(delays[-1] / first))
    kwargs = {"dt_integration_ns": draw(st.sampled_from([0.5, 1.0, MAX_STEP_NS]))}
    waveform = draw(st.sampled_from(["none", "step", "predistorted"]))
    expected = z * (1.0 - eval_step_response(channel, delays))
    if waveform != "none":
        step = heaviside_step(z, float(delays[-1]) + 200.0, draw(st.sampled_from([0.5, 1.0, 2.0])))
        kwargs["input_waveform"] = step if waveform == "step" else full_pipeline(step, channel)
        if waveform == "predistorted":
            expected = np.zeros_like(delays)
    # The grid spans the expected compensation of every delay, widened on
    # each side by 0.2-1.5 half-widths of the first probe's main lobe
    # (about 1.1 / t_pi in detuning); a narrow margin can leave the peak
    # past an edge.  Its step, in detuning times the longest probe, is at
    # most 0.45 (0.19-0.44 on the default roundtrip's grids), so the
    # search's coarse offsets cannot step over the lobe.
    slope = abs(np.diff(dressed_states(params, z + np.array([-1e-6, 1e-6]))[0])[0]) / 2e-6
    half_lobe = 1.1 / (slope * schedule.t_pi_ns(float(delays[0])))
    lo = expected.min() - half_lobe * draw(st.floats(0.2, 1.5))
    hi = expected.max() + half_lobe * draw(st.floats(0.2, 1.5))
    fewest = max(int(np.ceil((hi - lo) * slope * schedule.t_pi_max_ns / 0.45)) + 1, 3)
    assume(fewest <= 80)
    offsets = np.linspace(lo, hi, draw(st.integers(fewest, 80)))
    return (params, schedule, channel, delays, offsets), kwargs


@settings(max_examples=25, deadline=None)
@given(calibration_sweeps())
def test_peak_only_sweep_matches_the_full_grid(sweep):
    # The search propagates only some offsets, but the rows it propagates
    # are the full grid's to the bit, and it stops only where the argmax
    # has both neighbours, so on a single-peaked row it reads the same
    # three points.  An error (an edge peak) must be the same one.
    args, kwargs = sweep
    peak = _sweep_outcome(*args, **kwargs)
    full = _sweep_outcome(*args, full_output=True, **kwargs)
    if isinstance(full[1], str):
        assert peak == full
        return
    assert peak[0] == full[0]
    # The peak-only report holds the propagated rows, the full grid's to the
    # bit, and -inf for the others; each row's argmax and its two
    # neighbours were propagated, and the argmax is the full grid's.
    grid, full_grid = peak[1].p1_grid, full[1].p1_grid
    assert grid.shape == full_grid.shape
    seen = np.isfinite(grid)
    assert grid[seen].tobytes() == full_grid[seen].tobytes()
    assert np.all(np.isneginf(grid[~seen]))
    k, rows = np.argmax(grid, axis=1), np.arange(grid.shape[0])
    assert seen[rows, k].all() and seen[rows, k - 1].all() and seen[rows, k + 1].all()
    assert k.tolist() == np.argmax(full_grid, axis=1).tolist()
    assert (peak[1].omega_drive_ghz, peak[1].rwa, peak[1].t_pi_ns) == (
        full[1].omega_drive_ghz, full[1].rwa, full[1].t_pi_ns
    )


def _roundtrip_sweeps(monkeypatch, preset):
    """The default roundtrip of a preset, with each sweep's args."""
    sweeps = []
    real = pipeline.simulate_calibration

    def recorded(*args, **kwargs):
        sweeps.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "simulate_calibration", recorded)
    system, channel = (getattr(presets, f"{preset}_{part}")() for part in ("system", "channel"))
    return pipeline.roundtrip(system, channel), sweeps


@pytest.mark.parametrize("preset", ["planar", "flipchip"])
def test_roundtrip_stages_match_the_full_grid(monkeypatch, preset):
    result, sweeps = _roundtrip_sweeps(monkeypatch, preset)
    runs = [result.long_run, result.short_run, result.validation_run]
    runs = [run for run in runs if run is not None]
    assert len(runs) == len(sweeps) == (3 if preset == "planar" else 2)
    for run, (args, kwargs) in zip(runs, sweeps):
        full, report = simulate_calibration(*args, full_output=True, **kwargs)
        assert run.compensation.tobytes() == full.compensation.tobytes()
        assert report.p1_grid.shape == (run.delays_ns.size, args[4].size)


def _propagated_rows(monkeypatch):
    """Patch _propagate to record each call's delay and the zpa of its rows
    at the first node; returns the record."""
    calls = []
    real = simulator._propagate

    def counted(params, drive, zpa_nodes, t_nodes, h):
        calls.append((drive.t_center_ns, zpa_nodes[:, 0]))
        return real(params, drive, zpa_nodes, t_nodes, h)

    monkeypatch.setattr(simulator, "_propagate", counted)
    return calls


@pytest.mark.parametrize("preset", ["planar", "flipchip"])
def test_peak_only_sweep_propagates_under_15_percent_of_the_grid(monkeypatch, preset):
    # Work counter: on the default roundtrip (41 offsets per delay) the climb
    # propagates 393 of planar's 2,911 rows in 78 calls, and 252 of
    # flip-chip's 1,886 in 49.
    calls = _propagated_rows(monkeypatch)
    _, sweeps = _roundtrip_sweeps(monkeypatch, preset)
    n_delays = sum(args[3].size for args, _ in sweeps)
    assert n_delays == {"planar": 71, "flipchip": 46}[preset]
    full_rows = sum(args[3].size * args[4].size for args, _ in sweeps)
    assert sum(rows.size for _, rows in calls) <= 0.15 * full_rows
    assert len(calls) <= 1.2 * n_delays


def test_peak_only_sweep_falls_back_to_the_coarse_rows_after_a_jump(monkeypatch):
    # A 0.05, 100 ns term moves the peak from offset 9 at 100 ns to offset
    # 30 of 41 at 2000 ns.  The climb from 9 ends on a side lobe (P1 3e-3),
    # so the coarse rows, the grid's first and last among them, are
    # propagated before the climb finds the main lobe.
    params = presets.flipchip_system()
    z = find_working_point(params, 0.050)
    channel = CombinedResponse(ShortTimeModel.from_arrays([0.05], [100.0]), None, v_step=z)
    schedule = DriveSchedule(regime="short", t_pi_min_ns=100.0, t_pi_max_ns=100.0)
    offsets = np.linspace(-0.0111384, 0.0033635, 41)
    args = (params, schedule, channel, [100.0, 2000.0], offsets)
    full, report = simulate_calibration(*args, full_output=True)
    first, last = np.argmax(report.p1_grid, axis=1)
    assert last - first > offsets.size // 2
    calls = _propagated_rows(monkeypatch)
    run, _ = simulate_calibration(*args)
    assert run.compensation.tobytes() == full.compensation.tobytes()
    late = np.concatenate([rows for t_delay, rows in calls if t_delay == 2000.0])
    assert np.ptp(late) == pytest.approx(offsets[-1] - offsets[0], rel=1e-12)


def test_peak_search_climbs_from_the_previous_peak(monkeypatch):
    # A P1 profile per delay on 41 offsets, in place of the propagation.
    # 100 ns: the coarse maximum, 8, is a flank of the peak at 10.
    # 200 ns: the peak moved from 10 to 16, so the climb extends.
    # 300 ns: the climb from 16 ends on a side lobe (P1 1e-3), and the
    # coarse rows find the main lobe, whose coarse maximum 28 climbs to 30.
    # 400 ns: entered from the right, a plateau 24-28 of equal values; the
    # climb walks it to its first index, as np.argmax does.
    profiles = {t_delay: np.full(41, 0.01) for t_delay in (100.0, 200.0, 400.0)}
    profiles[300.0] = np.full(41, 5e-4)
    profiles[100.0][8:13] = [0.2, 0.5, 1.0, 0.5, 0.2]
    profiles[200.0][12:19] = [0.05, 0.1, 0.2, 0.5, 1.0, 0.5, 0.2]
    profiles[300.0][16] = 1e-3
    profiles[300.0][28:33] = [0.3, 0.7, 0.95, 0.7, 0.3]
    profiles[400.0][22:31] = [0.2, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 0.6, 0.3]
    params = presets.flipchip_system()
    z = find_working_point(params, 0.050)
    offsets = np.linspace(-0.01, 0.01, 41) * z
    calls = []

    def profile(params, drive, zpa_nodes, t_nodes, h):
        rows = np.abs(zpa_nodes[:, :1] - z - offsets).argmin(axis=1)
        calls.append(rows.tolist())
        return profiles[drive.t_center_ns][rows]

    monkeypatch.setattr(simulator, "_propagate", profile)
    args = (params, DriveSchedule(regime="short"), CombinedResponse(None, None, v_step=z),
            [100.0, 200.0, 300.0, 400.0], offsets)
    run, _ = simulate_calibration(*args)
    coarse = list(range(0, 41, 4))
    assert calls == [
        coarse, [6, 7, 9, 10], [11],
        [8, 9, 10, 11, 12], [13, 14], [15, 16], [17, 18],
        [14, 15, 16, 17, 18], [0, 4, 8, 12, 20, 24, 28, 32, 36, 40], [26, 27, 29, 30], [31],
        [28, 29, 30, 31, 32], [26, 27], [24, 25], [22, 23],
    ]
    full, report = simulate_calibration(*args, full_output=True)
    assert run.compensation.tobytes() == full.compensation.tobytes()
    assert np.argmax(report.p1_grid, axis=1).tolist() == [10, 16, 30, 24]


def test_simulate_rejects_delay_inside_pulse_window():
    params = presets.flipchip_system()
    z = find_working_point(params, 0.050)
    channel = CombinedResponse(short=None, long=None, v_step=z)
    with pytest.raises(SweepRangeError):
        simulate_calibration(
            params, DriveSchedule(regime="short"), channel,
            delays_ns=[5.0, 10.0], offsets=np.linspace(-0.01, 0.01, 11) * z,
        )


@pytest.mark.parametrize("delays", [[], [100.0], [110.0, 100.0], [[100.0, 110.0]]])
def test_simulate_rejects_delay_grid_before_simulating(monkeypatch, delays):
    def no_propagation(*args, **kwargs):
        raise AssertionError("the sweep ran before the delay grid was checked")

    monkeypatch.setattr(simulator, "_propagate", no_propagation)
    params = presets.flipchip_system()
    z = find_working_point(params, 0.050)
    channel = CombinedResponse(short=None, long=None, v_step=z)
    message = "delays must be an increasing 1-D array with >= 2 points"
    with pytest.raises(InvalidArgumentError, match=message):
        simulate_calibration(
            params, DriveSchedule(regime="short"), channel,
            delays_ns=delays, offsets=np.linspace(-0.01, 0.01, 11) * z,
        )


def test_simulate_rejects_offset_grid_missing_the_peak():
    params = presets.flipchip_system()
    z = find_working_point(params, 0.050)
    channel = CombinedResponse(short=None, long=None, v_step=z)
    # true compensation is ~0; an all-positive grid puts the peak on the edge
    with pytest.raises(SweepRangeError):
        simulate_calibration(
            params, DriveSchedule(regime="short"), channel,
            delays_ns=[100.0, 110.0], offsets=np.linspace(0.01, 0.05, 9) * z,
        )


def test_simulate_validates_integration_step():
    params = presets.flipchip_system()
    z = find_working_point(params, 0.050)
    channel = CombinedResponse(short=None, long=None, v_step=z)
    kwargs = dict(delays_ns=[100.0, 110.0], offsets=np.linspace(-0.01, 0.01, 11) * z)
    for dt in (0.0, -0.1, MAX_STEP_NS + 0.01, np.nan):
        with pytest.raises(InvalidArgumentError):
            simulate_calibration(
                params, DriveSchedule(regime="short"), channel, dt_integration_ns=dt, **kwargs
            )
    run, _ = simulate_calibration(
        params, DriveSchedule(regime="short"), channel, dt_integration_ns=MAX_STEP_NS, **kwargs
    )
    assert run.compensation.size == 2


def _entries(params, drive, zpa, t):
    """Diagonal and drive entries of the rotating-frame Hamiltonian at
    times t, for zpa traces of shape (batch, t.size)."""
    wq = params.qubit_freq_ghz(zpa) - drive.omega_d_ghz
    wc = params.coupler_freq_ghz(zpa) - drive.omega_d_ghz
    return wq, wc, -0.5e-3 * drive.rabi_mhz * drive.envelope(t)


def _evolve_eigh(a, b, c, g, theta):
    """Reference for _evolve: one LAPACK eigendecomposition per sub-step
    exp(-i theta H_k), applied to the state step by step."""
    batch, steps = a.shape
    psi = np.zeros((batch, 3), dtype=complex)
    psi[:, 0] = 1.0
    h = np.zeros((batch, 3, 3))
    h[:, 1, 2] = g
    h[:, 2, 1] = g
    for k in range(steps):
        h[:, 0, 1] = c[k]
        h[:, 1, 0] = c[k]
        h[:, 1, 1] = a[:, k]
        h[:, 2, 2] = b[:, k]
        evals, evecs = np.linalg.eigh(h)
        phases = np.exp(-1j * theta * evals)
        coeffs = np.einsum("bij,bi->bj", evecs, psi)
        psi = np.einsum("bij,bj->bi", evecs, phases * coeffs)
    norms = np.abs(np.einsum("bi,bi->b", psi.conj(), psi))
    assert np.max(np.abs(norms - 1.0)) <= NORM_DRIFT_LIMIT
    return np.abs(psi[:, 1]) ** 2


def _midpoint_eigh(params, drive, zpa, max_step):
    """Reference scheme: the exact exponential of the midpoint Hamiltonian,
    exp(-2 pi i h H(t0 + h/2)), on a window-fitted grid of equal steps."""
    lo, hi = drive.window_ns
    steps = int(np.ceil((hi - lo) / max_step))
    h = (hi - lo) / steps
    t = lo + (np.arange(steps) + 0.5) * h
    return _evolve_eigh(*_entries(params, drive, zpa(t), t), params.g_qc_ghz, 2.0 * np.pi * h)


def _cf4(params, drive, zpa, max_step):
    t, h = drive.step_nodes(max_step)
    return _propagate(params, drive, zpa(t), t, h)


def _probe(make_params, t_pi, rabi_mhz=None, sigma_fraction=0.25):
    """Pi-pulse probe at the working point, and zpa(t) for 41 traces whose
    offsets span the resonance peak (the 30 ns peak is about 5x wider than
    the 200 ns one); the middle trace sits on resonance until a settling
    transient moves the resonance through the window."""
    params = make_params()
    z = find_working_point(params, 0.050)
    if rabi_mhz is None:
        rabi_mhz = pi_pulse_rabi_mhz(params, z, t_pi, sigma_fraction)
    drive = DriveParams(
        omega_d_ghz=float(dressed_states(params, z)[0]),
        rabi_mhz=rabi_mhz,
        t_pi_ns=t_pi,
        t_center_ns=t_pi,
        sigma_fraction=sigma_fraction,
    )
    half_width = 0.02 * 30.0 / t_pi
    levels = z * (1.0 + np.linspace(-half_width, half_width, 41))

    def zpa(t):
        return levels[:, None] - 0.01 * z * np.exp(-np.asarray(t) / 40.0)[None, :]

    return params, drive, zpa


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t_pi", [30.0, 200.0])
@pytest.mark.parametrize("make_params", [presets.planar_system, presets.flipchip_system])
def test_propagate_matches_eigh_across_resonance_peak(make_params, t_pi):
    # CF4 at 0.5 ns against an independent scheme and kernel: the per-step
    # eigh midpoint loop at 0.01 ns, whose own error is up to 8e-8 here
    # (second order: 8e-6 at 0.1 ns).
    params, drive, zpa = _probe(make_params, t_pi)
    p1 = _cf4(params, drive, zpa, 0.5)
    ref = _midpoint_eigh(params, drive, zpa, 0.01)
    np.testing.assert_allclose(p1, ref, rtol=0.0, atol=2e-7)
    assert 0 < np.argmax(p1) < 40 and p1.max() > 0.5


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make_params", [presets.planar_system, presets.flipchip_system])
def test_cf4_error_falls_sixteenfold_per_halving(make_params):
    # Fourth order: 16x per halving of h.  A second-order method, such as
    # CF4 with its two factors swapped, gives 4x.
    params, drive, zpa = _probe(make_params, 30.0)
    ref = _cf4(params, drive, zpa, 0.01)
    errs = [np.max(np.abs(_cf4(params, drive, zpa, h) - ref)) for h in (0.5, 0.25, 0.125)]
    assert errs[0] < 1e-7
    assert errs[0] / errs[1] >= 12.0 and errs[1] / errs[2] >= 12.0


@pytest.mark.parametrize("t_pi", [30.0, 47.33, 200.0])
@pytest.mark.parametrize("preset", ["planar", "flipchip"])
def test_half_ns_step_p1_within_1e7_of_converged(preset, t_pi):
    # The calibration sweep at 0.5 ns against the same sweep at 0.01 ns,
    # which agrees with 0.02 ns to 1e-12.  A 47.33 ns window is
    # not a whole number of 0.1 ns steps: a grid that is not fitted to the
    # window steps over the envelope cut there and is off by 3.5e-4 (planar)
    # to 4.9e-4 (flip-chip).
    params = getattr(presets, f"{preset}_system")()
    z = find_working_point(params, 0.050)
    channel = getattr(presets, f"{preset}_channel")(v_step=z)
    schedule = DriveSchedule(regime="short", t_pi_min_ns=t_pi, t_pi_max_ns=t_pi)
    delays = np.array([1000.0, 1010.0])
    center = z * (1.0 - eval_step_response(channel, delays).mean())
    offsets = center + z * np.linspace(-0.6, 0.6, 9) / t_pi
    grids = [
        simulate_calibration(params, schedule, channel, delays, offsets, full_output=True, **dt)[1].p1_grid
        for dt in ({"dt_integration_ns": 0.5}, {"dt_integration_ns": 0.01})
    ]
    assert 0 < np.argmax(grids[1][0]) < 8
    np.testing.assert_allclose(grids[0], grids[1], rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("t_pi", [30.0, 47.33, 200.0])
@pytest.mark.parametrize("preset", ["planar", "flipchip"])
def test_default_step_compensation_within_1e5_of_reference(preset, t_pi):
    # The loop reads only the compensation, so that is what the default step
    # must get right: on the short stage's offset grid, against the same
    # sweep at 0.05 ns.  The first delay puts the probe right after the edge.
    params = getattr(presets, f"{preset}_system")()
    z = find_working_point(params, 0.050)
    channel = getattr(presets, f"{preset}_channel")(v_step=z)
    schedule = DriveSchedule(regime="short", t_pi_min_ns=t_pi, t_pi_max_ns=t_pi)
    delays = 0.5 * t_pi + np.array([0.0, 60.0, 1000.0])
    offsets = np.linspace(-0.012, 0.052, 41) * z
    runs = [
        simulate_calibration(params, schedule, channel, delays, offsets, **dt)[0]
        for dt in ({}, {"dt_integration_ns": 0.05})
    ]
    np.testing.assert_allclose(
        runs[0].compensation, runs[1].compensation, rtol=0.0, atol=1e-5 * z
    )


_WINDOW = st.tuples(
    st.floats(30.0, 200.0), st.floats(1e-4, 1.0), st.floats(-1e4, 1e4), st.floats(1e-3, MAX_STEP_NS)
)


@settings(max_examples=200, deadline=None)
@given(_WINDOW)
def test_step_nodes_fit_the_window(window):
    t_pi, sigma_fraction, t_center, max_step = window
    drive = DriveParams(omega_d_ghz=4.5, rabi_mhz=10.0, t_pi_ns=t_pi, t_center_ns=t_center,
                        sigma_fraction=sigma_fraction)
    lo, hi = drive.window_ns
    nodes, h = drive.step_nodes(max_step)
    steps = nodes.size // 2
    assert nodes.size == 2 * steps and steps == max(int(np.ceil((hi - lo) / max_step)), 1)
    assert h <= max_step * (1.0 + 1e-12)
    assert steps * h == pytest.approx(hi - lo, rel=1e-12)
    # every node lies inside the window, where the envelope is not cut
    assert np.all((nodes > lo) & (nodes < hi))
    assert np.all(drive.envelope(nodes) > 0.0)
    # two Gauss-Legendre nodes per step, (1/2 -/+ sqrt(3)/6) h from its start
    starts = lo + h * np.arange(steps)
    scale = max(abs(lo), abs(hi), 1.0) * 1e-12
    np.testing.assert_allclose(nodes[0::2], starts + (0.5 - np.sqrt(3) / 6) * h, rtol=0, atol=scale)
    np.testing.assert_allclose(nodes[1::2], starts + (0.5 + np.sqrt(3) / 6) * h, rtol=0, atol=scale)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_propagate_matches_eigh_without_drive():
    params, drive, zpa = _probe(presets.planar_system, 30.0, rabi_mhz=0.0)
    assert np.all(_cf4(params, drive, zpa, MAX_STEP_NS) == 0.0)
    assert np.all(_midpoint_eigh(params, drive, zpa, 0.1) == 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_propagate_matches_eigh_on_one_step_window():
    params, drive, zpa = _probe(presets.planar_system, 30.0, sigma_fraction=5e-4)
    t, h = drive.step_nodes(MAX_STEP_NS)
    assert t.size == 2
    wq, wc, coupling = (_cf4_exponents(x) for x in _entries(params, drive, zpa(t), t))
    np.testing.assert_allclose(
        _propagate(params, drive, zpa(t), t, h),
        _evolve_eigh(wq, wc, coupling, params.g_qc_ghz, np.pi * h),
        rtol=0.0, atol=1e-12,
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
# Partial, whole and split blocks, of 128 sub-steps and of _BLOCK_STEPS.
@pytest.mark.parametrize("steps", sorted(
    {127, 128, 129, 300, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 2 * _BLOCK_STEPS + 44}
))
def test_propagate_matches_eigh_on_partial_blocks(steps):
    # sub-steps of a 40 ns pi pulse at h = 0.1 ns (800 in all)
    params, drive, zpa = _probe(presets.flipchip_system, 40.0)
    t, h = drive.step_nodes(0.1)
    wq, wc, coupling = (_cf4_exponents(x) for x in _entries(params, drive, zpa(t), t))
    args = (wq[:, :steps], wc[:, :steps], coupling[:steps], params.g_qc_ghz, np.pi * h)
    np.testing.assert_allclose(_evolve(*args), _evolve_eigh(*args), rtol=0.0, atol=1e-12)


def test_propagate_rows_do_not_depend_on_the_batch():
    # 164 traces of 800 sub-steps make blocks of 256 KiB and more, where
    # numpy computes a product with a temporary operand in place; each
    # trace must still get the bits it gets in a batch of its own, as the
    # peak-only sweep's rows must be the full grid's.
    params, drive, zpa = _probe(presets.flipchip_system, 40.0)
    t, h = drive.step_nodes(0.1)
    traces = np.tile(zpa(t), (4, 1))
    whole = _propagate(params, drive, traces, t, h)
    alone = np.concatenate([_propagate(params, drive, row[None], t, h) for row in traces])
    assert whole.tobytes() == alone.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_propagate_rejects_non_finite_state():
    params, drive, zpa = _probe(presets.planar_system, 30.0)
    t, h = drive.step_nodes(0.5)  # index 40 below lies inside the 0.5 ns grid
    traces = zpa(t)
    traces[3, 40] = np.nan
    with pytest.raises(IntegrationError):
        _propagate(params, drive, traces, t, h)


_ENTRY = st.floats(-0.5, 0.5)


@st.composite
def _tridiagonal(draw):
    """(a, b, c, g) of H = [[0, c, 0], [c, a, g], [0, g, b]] in GHz, with
    forced degenerate draws."""
    g = draw(st.sampled_from([presets.planar_system().g_qc_ghz, presets.flipchip_system().g_qc_ghz]))
    a, b, c = draw(_ENTRY), draw(_ENTRY), draw(_ENTRY)
    case = draw(st.sampled_from(["free", "c=0", "a=b", "a=b=0", "tiny c", "double eigenvalue"]))
    if case == "c=0":
        c = 0.0
    elif case == "a=b":
        b = a
    elif case == "a=b=0":
        a = b = 0.0
    elif case == "tiny c":
        c = 1e-9
    elif case == "double eigenvalue":
        # c = 0 and a b = g^2: the eigenvalue 0 of |00> is also one of the
        # |10>, |01> block's (a resonant probe with rabi_mhz = 0)
        a = draw(st.floats(2.0 * g * g, 0.5)) * draw(st.sampled_from([-1.0, 1.0]))
        b = g * g / a
        c = draw(st.sampled_from([0.0, 1e-9]))
    return a, b, c, g


@settings(max_examples=400, deadline=None)
@given(_tridiagonal(), st.floats(1e-3, MAX_STEP_NS))
def test_step_unitaries_match_expm(entries, h):
    # CF4 sub-steps use theta = pi h, up to pi * MAX_STEP_NS
    a, b, c, g = entries
    u = _step_unitaries(np.array(a), np.array(b), np.array(c), g, np.pi * h)
    hamiltonian = np.array([[0.0, c, 0.0], [c, a, g], [0.0, g, b]])
    np.testing.assert_allclose(u, expm(-1j * np.pi * h * hamiltonian), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(3), rtol=0.0, atol=1e-13)


@settings(max_examples=400, deadline=None)
@given(
    st.floats(-4.0, 1.0), st.floats(0.25, 1.0), st.floats(0.25, 1.0), st.floats(-3.0, 3.0),
    st.floats(0.0, 1.0), st.floats(0.05, 1.0), st.floats(0.1, 1.0),
)
def test_quadratic_peak_is_the_vertex_of_the_three_point_parabola(
    log_h, gap_left, gap_right, start, where, curvature, height
):
    # Non-uniform triples around a peak, as the sweep's argmax gives them:
    # a concave parabola through three offsets, the middle one highest.
    h = 10.0**log_h
    x = start * h + np.array([0.0, gap_left * h, (gap_left + gap_right) * h])
    vertex = x[0] + where * (x[2] - x[0])
    y = height * (1.0 - curvature * ((x - vertex) / h) ** 2)
    assume(np.argmax(y) == 1)
    got = _quadratic_peak(x, y, 1)
    scale = abs(got) + x[2] - x[0]
    a, b, _ = np.polyfit(x, y, 2)
    assert abs(got + b / (2.0 * a)) <= 1e-12 * scale
    # Exact rational arithmetic on the same floats.
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    dl, dr, fl, fr = xs[1] - xs[0], xs[1] - xs[2], ys[1] - ys[0], ys[1] - ys[2]
    exact = xs[1] - (dl * dl * fr - dr * dr * fl) / (2 * (dl * fr - dr * fl))
    assert abs(got - float(exact)) <= 1e-15 * scale


def test_quadratic_peak_of_collinear_points_is_the_middle_point():
    x = np.array([0.1, 0.25, 0.3])
    assert _quadratic_peak(x, np.full(3, 0.7), 1) == 0.25
    assert _quadratic_peak(x, 2.0 * x, 1) == 0.25
