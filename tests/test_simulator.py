from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq

from fluxcal import presets, simulator
from fluxcal.errors import IntegrationError, InvalidArgumentError, SweepRangeError
from fluxcal.models import CombinedResponse, eval_step_response
from fluxcal.signal import Waveform
from fluxcal.simulator import (
    MAX_STEP_NS,
    NORM_DRIFT_LIMIT,
    CouplerMap,
    DriveParams,
    DriveSchedule,
    SystemParams,
    check_rwa,
    dressed_energies,
    dressed_from_frequencies,
    effective_rabi,
    evolve_excitation,
    find_working_point,
    long_time_schedule,
    pi_pulse_rabi_mhz,
    simulate_calibration,
    spectroscopy_branches,
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


def test_system_params_validation():
    cm = CouplerMap(f_max_ghz=6.0, curvature_ghz=0.3, asymmetry=0.0, zpa_to_flux=1.0,
                    zpa_range=(0.0, 0.4))
    with pytest.raises(InvalidArgumentError):
        SystemParams(omega_q_ghz=4.5, g_qc_ghz=0.0, coupler=cm)
    with pytest.raises(InvalidArgumentError):
        SystemParams(omega_q_ghz=4.5, g_qc_ghz=0.08, coupler=cm, coeff_zxtalk=0.2)


@pytest.mark.parametrize("seed", range(6))
def test_dressed_pair_matches_eigensolver(seed):
    rng = np.random.default_rng(seed)
    omega_q = rng.uniform(4.0, 6.0)
    omega_c = rng.uniform(4.0, 6.0)
    g = rng.uniform(0.01, 0.2)
    pair = dressed_from_frequencies(omega_q, omega_c, g)
    h = np.array([[omega_q, g], [g, omega_c]])
    evals, evecs = np.linalg.eigh(h)
    assert pair.omega_minus_ghz == pytest.approx(evals[0], abs=1e-12)
    assert pair.omega_plus_ghz == pytest.approx(evals[1], abs=1e-12)
    for got, ref in ((pair.weight_minus, evecs[:, 0]), (pair.weight_plus, evecs[:, 1])):
        got = np.asarray(got)
        if np.sign(got[np.argmax(np.abs(got))]) != np.sign(ref[np.argmax(np.abs(ref))]):
            ref = -ref
        np.testing.assert_allclose(got, ref, atol=1e-12)


def test_resonant_splitting_is_exactly_twice_g():
    pair = dressed_from_frequencies(5.0, 5.0, 0.0789)
    assert pair.splitting_ghz == pytest.approx(2 * 0.0789, abs=1e-12)
    np.testing.assert_allclose(np.abs(pair.weight_minus), [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_dressed_weights_orthonormal():
    pair = dressed_from_frequencies(4.6, 4.9, 0.08)
    wm = np.asarray(pair.weight_minus)
    wp = np.asarray(pair.weight_plus)
    assert np.dot(wm, wm) == pytest.approx(1.0, abs=1e-12)
    assert np.dot(wp, wp) == pytest.approx(1.0, abs=1e-12)
    assert np.dot(wm, wp) == pytest.approx(0.0, abs=1e-12)


def test_far_detuned_lower_state_is_qubit_like():
    pair = dressed_from_frequencies(4.5, 6.3, 0.08)
    assert abs(pair.weight_minus[0]) > 0.999
    assert pair.omega_minus_ghz == pytest.approx(4.5, abs=0.005)


def test_spectroscopy_branches_track_dressed_energies():
    params = small_system()
    z = np.linspace(0.05, 0.4, 9)
    lower, upper = spectroscopy_branches(params, z)
    for i, zi in enumerate(z):
        pair = dressed_energies(params, float(zi))
        assert lower[i] == pytest.approx(pair.omega_minus_ghz, abs=1e-12)
        assert upper[i] == pytest.approx(pair.omega_plus_ghz, abs=1e-12)


def test_effective_rabi_at_resonance_splits_evenly():
    params = small_system()
    # find the resonance point: coupler frequency equals the qubit's
    z_res = find_working_point(params, repulsion_ghz=params.g_qc_ghz * 0.999999)
    minus, plus = effective_rabi(params, z_res, 10.0)
    assert abs(minus) == pytest.approx(10.0 / np.sqrt(2), rel=1e-3)
    assert abs(plus) == pytest.approx(10.0 / np.sqrt(2), rel=1e-3)


def test_check_rwa_boundaries():
    pair = dressed_from_frequencies(4.6, 4.9, 0.08)
    split_mhz = pair.splitting_ghz * 1e3
    under = check_rwa(pair, omega_plus_rabi_mhz=0.198 * split_mhz)
    assert under.passed and under.ratio == pytest.approx(0.099, rel=1e-12)
    assert under.margin_factor == 0.1
    over = check_rwa(pair, omega_plus_rabi_mhz=0.21 * split_mhz)
    assert not over.passed
    silent = check_rwa(pair, omega_plus_rabi_mhz=0.0)
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
    pair = dressed_energies(params, z)
    repulsion = params.qubit_freq_ghz(z) - pair.omega_minus_ghz
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
    i = int(np.nonzero(np.diff(np.sign(vals)) != 0)[0][0])
    return float(brentq(gap, grid[i], grid[i + 1], xtol=1e-12))


@pytest.mark.parametrize("make_params", [presets.planar_system, presets.flipchip_system, small_system])
@pytest.mark.parametrize("repulsion_ghz", [0.02, 0.03, 0.05])
def test_find_working_point_matches_the_scalar_scan(make_params, repulsion_ghz):
    params = make_params()
    assert find_working_point(params, repulsion_ghz) == scalar_scan_working_point(params, repulsion_ghz)


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
    pair = dressed_energies(params, z)
    drive = DriveParams(
        omega_d_ghz=pair.omega_minus_ghz,
        rabi_mhz=pi_pulse_rabi_mhz(params, z, 40.0),
        t_pi_ns=40.0,
        t_center_ns=50.0,
    )
    trace = Waveform(0.1, np.full(1000, z))
    p1 = evolve_excitation(params, drive, trace)
    assert 0.0 <= p1 <= 1.0
    # a pi pulse into the lower dressed state leaves the qubit with its
    # |10> weight squared
    assert p1 == pytest.approx(pair.weight_minus[0] ** 2, abs=0.01)


def test_pi_area_rule_makes_p1_length_independent():
    params = small_system()
    z = find_working_point(params, 0.050)
    pair = dressed_energies(params, z)
    p1s = []
    for t_pi in (30.0, 60.0):
        drive = DriveParams(
            omega_d_ghz=pair.omega_minus_ghz,
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
    run = simulate_calibration(
        params, DriveSchedule(regime="short"), channel,
        delays_ns=[50.0, 120.0, 300.0], offsets=offsets,
    )
    grid_step = offsets[1] - offsets[0]
    assert np.max(np.abs(run.compensation)) < grid_step


def test_simulate_workers_raise_under_the_callers_error_state(monkeypatch):
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


def test_simulate_edge_peak_raises_the_same_error_for_any_worker_count():
    params = presets.flipchip_system()
    z = find_working_point(params, 0.050)
    channel = CombinedResponse(short=None, long=None, v_step=z)
    # Every delay peaks on the edge; the earliest one must be reported.
    with pytest.raises(SweepRangeError, match="for delay 100.0 ns"):
        simulate_calibration(
            params, DriveSchedule(regime="short"), channel,
            delays_ns=[100.0, 110.0, 120.0], offsets=np.linspace(0.01, 0.05, 9) * z,
        )


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
    run = simulate_calibration(
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
        omega_d_ghz=dressed_energies(params, z).omega_minus_ghz,
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
        simulate_calibration(params, schedule, channel, delays, offsets, **dt)
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
@pytest.mark.parametrize("steps", [_BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 2 * _BLOCK_STEPS + 44])
def test_propagate_matches_eigh_on_partial_blocks(steps):
    # sub-steps of a 40 ns pi pulse at h = 0.1 ns (800 in all)
    params, drive, zpa = _probe(presets.flipchip_system, 40.0)
    t, h = drive.step_nodes(0.1)
    wq, wc, coupling = (_cf4_exponents(x) for x in _entries(params, drive, zpa(t), t))
    args = (wq[:, :steps], wc[:, :steps], coupling[:steps], params.g_qc_ghz, np.pi * h)
    np.testing.assert_allclose(_evolve(*args), _evolve_eigh(*args), rtol=0.0, atol=1e-12)


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
