import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fluxcal import presets
from fluxcal.errors import IntegrationError, InvalidArgumentError, SweepRangeError
from fluxcal.models import CombinedResponse
from fluxcal.signal import Waveform
from fluxcal.simulator import (
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
    _propagate,
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
    under = check_rwa(pair, omega_plus_rabi_mhz=0.198 * split_mhz, margin_factor=0.1)
    assert under.passed and under.ratio == pytest.approx(0.099, rel=1e-12)
    over = check_rwa(pair, omega_plus_rabi_mhz=0.21 * split_mhz, margin_factor=0.1)
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


def test_simulate_thread_count_does_not_change_results():
    params = presets.flipchip_system()
    z = find_working_point(params, 0.050)
    channel = presets.flipchip_channel(v_step=z)
    offsets = np.linspace(-0.01, 0.05, 15) * z
    kwargs = dict(delays_ns=[40.0, 90.0, 200.0], offsets=offsets)
    serial = simulate_calibration(params, DriveSchedule(regime="short"), channel, **kwargs)
    threaded = simulate_calibration(
        params, DriveSchedule(regime="short"), channel, threads=3, **kwargs
    )
    np.testing.assert_array_equal(serial.compensation, threaded.compensation)


def test_simulate_rejects_delay_inside_pulse_window():
    params = presets.flipchip_system()
    z = find_working_point(params, 0.050)
    channel = CombinedResponse(short=None, long=None, v_step=z)
    with pytest.raises(SweepRangeError):
        simulate_calibration(
            params, DriveSchedule(regime="short"), channel,
            delays_ns=[5.0], offsets=np.linspace(-0.01, 0.01, 11) * z,
        )


def test_simulate_rejects_offset_grid_missing_the_peak():
    params = presets.flipchip_system()
    z = find_working_point(params, 0.050)
    channel = CombinedResponse(short=None, long=None, v_step=z)
    # true compensation is ~0; an all-positive grid puts the peak on the edge
    with pytest.raises(SweepRangeError):
        simulate_calibration(
            params, DriveSchedule(regime="short"), channel,
            delays_ns=[100.0], offsets=np.linspace(0.01, 0.05, 9) * z,
        )


def test_simulate_validates_integration_step():
    params = presets.flipchip_system()
    z = find_working_point(params, 0.050)
    channel = CombinedResponse(short=None, long=None, v_step=z)
    with pytest.raises(InvalidArgumentError):
        simulate_calibration(
            params, DriveSchedule(regime="short"), channel,
            delays_ns=[100.0], offsets=np.linspace(-0.01, 0.01, 11) * z,
            dt_integration_ns=0.5,
        )


def _propagate_eigh(params, drive, zpa_mid, t_mid, dt_ns):
    """Reference: one LAPACK eigendecomposition per midpoint step, applied
    to the state step by step."""
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


def _probe(make_params, t_pi, dt=0.1, rabi_mhz=None, sigma_fraction=0.25):
    """Pi-pulse probe at the working point, and 41 zpa traces whose
    offsets span the resonance peak (the 30 ns peak is about 5x wider than
    the 200 ns one); the middle trace sits exactly on resonance."""
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
    t_mid = drive.step_midpoints(dt)
    half_width = 0.02 * 30.0 / t_pi
    zpa = z * np.outer(1.0 + np.linspace(-half_width, half_width, 41), np.ones_like(t_mid))
    return params, drive, zpa, t_mid


def _assert_matches_eigh(params, drive, zpa, t_mid, dt):
    got = _propagate(params, drive, zpa, t_mid, dt)
    ref = _propagate_eigh(params, drive, zpa, t_mid, dt)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)
    return got


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t_pi", [30.0, 200.0])
@pytest.mark.parametrize("make_params", [presets.planar_system, presets.flipchip_system])
def test_propagate_matches_eigh_across_resonance_peak(make_params, t_pi):
    params, drive, zpa, t_mid = _probe(make_params, t_pi)
    # a settling transient moves the resonance through the window
    zpa = zpa - 0.01 * zpa[20] * np.exp(-t_mid / 40.0)
    p1 = _assert_matches_eigh(params, drive, zpa, t_mid, 0.1)
    assert 0 < np.argmax(p1) < 40 and p1.max() > 0.5


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_propagate_matches_eigh_past_envelope_edge():
    # 30 / 0.09 = 333.3 rounds up to 334 steps: the last midpoint lies
    # beyond the window, where the drive vanishes (c = 0) and, on
    # resonance, |00> and the lower dressed state are degenerate.
    params, drive, zpa, t_mid = _probe(presets.flipchip_system, 30.0, dt=0.09)
    assert t_mid[-1] > drive.window_ns[1] and drive.envelope(t_mid[-1]) == 0.0
    _assert_matches_eigh(params, drive, zpa, t_mid, 0.09)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_propagate_matches_eigh_without_drive():
    params, drive, zpa, t_mid = _probe(presets.planar_system, 30.0, rabi_mhz=0.0)
    p1 = _assert_matches_eigh(params, drive, zpa, t_mid, 0.1)
    assert np.all(p1 == 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_propagate_matches_eigh_on_one_step_window():
    params, drive, zpa, t_mid = _probe(presets.planar_system, 30.0, sigma_fraction=5e-4)
    assert t_mid.size == 1
    _assert_matches_eigh(params, drive, zpa, t_mid, 0.1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("steps", [_BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 2 * _BLOCK_STEPS + 44])
def test_propagate_matches_eigh_on_partial_blocks(steps):
    params, drive, zpa, t_mid = _probe(presets.flipchip_system, 40.0)
    _assert_matches_eigh(params, drive, zpa[:, :steps], t_mid[:steps], 0.1)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_propagate_rejects_non_finite_state():
    params, drive, zpa, t_mid = _probe(presets.planar_system, 30.0)
    zpa[3, 100] = np.nan
    with pytest.raises(IntegrationError):
        _propagate(params, drive, zpa, t_mid, 0.1)


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
        # |10>, |01> block's (a resonant drive at the window edge)
        a = draw(st.floats(2.0 * g * g, 0.5)) * draw(st.sampled_from([-1.0, 1.0]))
        b = g * g / a
        c = draw(st.sampled_from([0.0, 1e-9]))
    return a, b, c, g


@settings(max_examples=400, deadline=None)
@given(_tridiagonal(), st.floats(1e-3, 0.1))
def test_step_unitaries_match_expm(entries, dt):
    a, b, c, g = entries
    u = _step_unitaries(np.array(a), np.array(b), np.array(c), g, 2.0 * np.pi * dt)
    h = np.array([[0.0, c, 0.0], [c, a, g], [0.0, g, b]])
    np.testing.assert_allclose(u, expm(-2j * np.pi * dt * h), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(3), rtol=0.0, atol=1e-13)
