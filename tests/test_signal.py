import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxcal.errors import IncompatibleSamplingError, InvalidArgumentError
from fluxcal.signal import (
    ImpulseResponse,
    Waveform,
    convolve,
    heaviside_step,
    identity_kernel,
    negate_compensation,
    read_waveform_csv,
    require_same_grid,
    step_to_impulse,
    write_waveform_csv,
)


def test_waveform_validation():
    with pytest.raises(InvalidArgumentError):
        Waveform(dt_ns=0.0, samples=np.ones(4))
    with pytest.raises(InvalidArgumentError):
        Waveform(dt_ns=1.0, samples=np.array([]))
    with pytest.raises(InvalidArgumentError):
        Waveform(dt_ns=1.0, samples=np.array([1.0, np.nan]))
    with pytest.raises(InvalidArgumentError):
        Waveform(dt_ns=1.0, samples=np.ones((2, 2)))


def test_waveform_samples_read_only():
    wf = Waveform(dt_ns=1.0, samples=np.ones(4))
    with pytest.raises(ValueError):
        wf.samples[0] = 2.0


def test_waveform_times_and_duration():
    wf = Waveform(dt_ns=0.5, samples=np.zeros(5))
    assert np.array_equal(wf.times_ns, [0.0, 0.5, 1.0, 1.5, 2.0])
    # duration counts the full extent of every sample, not the last time tag
    assert wf.duration_ns == 2.5
    assert len(wf) == 5


@pytest.mark.parametrize("dt", [0.1, 0.5, 1.0, 2.0])
def test_identity_kernel_preserves_any_input(dt):
    rng = np.random.default_rng(7)
    wf = Waveform(dt_ns=dt, samples=rng.normal(size=64))
    out = convolve(wf, identity_kernel(dt, 8))
    np.testing.assert_allclose(out.samples, wf.samples, rtol=0.0, atol=1e-15)


def test_identity_kernel_unit_dc_gain():
    resp = identity_kernel(0.5, 16)
    assert resp.dc_gain == 1.0
    assert resp.deviation_from_identity() == 0.0
    assert resp.kernel[0] == 2.0  # 1/dt


def test_dc_gain_is_kernel_sum_times_dt():
    rng = np.random.default_rng(11)
    kernel = rng.normal(size=32)
    resp = ImpulseResponse(dt_ns=0.25, kernel=kernel)
    assert resp.dc_gain == pytest.approx(kernel.sum() * 0.25, rel=1e-15)


def test_heaviside_step_shape_and_values():
    wf = heaviside_step(0.3, duration_ns=10.0, dt_ns=0.5)
    assert len(wf) == 20
    assert np.all(wf.samples == 0.3)
    with pytest.raises(InvalidArgumentError):
        heaviside_step(0.3, duration_ns=0.0, dt_ns=0.5)


def test_convolve_matches_direct_sum():
    # Oracle: out[n] = sum_k x[n-k] h[k] dt evaluated with explicit loops.
    rng = np.random.default_rng(3)
    dt = 0.5
    x = rng.normal(size=17)
    h = rng.normal(size=9)
    direct = np.zeros(17)
    for n in range(17):
        for k in range(min(n + 1, 9)):
            direct[n] += x[n - k] * h[k] * dt
    out = convolve(Waveform(dt, x), ImpulseResponse(dt, h))
    np.testing.assert_allclose(out.samples, direct, rtol=0.0, atol=1e-12)


# Zero or at least 1e-9 in magnitude, so the error scale below cannot underflow.
_SAMPLE = st.floats(-1e3, 1e3).map(lambda x: x if abs(x) >= 1e-9 else 0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_SAMPLE, min_size=1, max_size=300),
    st.lists(_SAMPLE, min_size=1, max_size=300),
    st.sampled_from([0.1, 0.5, 1.0]),
)
def test_convolve_matches_numpy_convolve(samples, kernel, dt):
    out = convolve(Waveform(dt, samples), ImpulseResponse(dt, kernel))
    direct = np.convolve(samples, kernel)[: len(samples)] * dt
    scale = np.max(np.abs(kernel)) * np.sum(np.abs(samples)) * dt
    np.testing.assert_allclose(out.samples, direct, rtol=0.0, atol=1e-12 * scale)


def test_convolve_is_linear():
    rng = np.random.default_rng(5)
    dt = 1.0
    h = ImpulseResponse(dt, rng.normal(size=12))
    a = rng.normal(size=40)
    b = rng.normal(size=40)
    out_sum = convolve(Waveform(dt, 2.0 * a + b), h)
    out_parts = 2.0 * convolve(Waveform(dt, a), h).samples + convolve(Waveform(dt, b), h).samples
    np.testing.assert_allclose(out_sum.samples, out_parts, rtol=0.0, atol=1e-12)


def test_convolve_rejects_grid_mismatch():
    wf = Waveform(1.0, np.ones(8))
    with pytest.raises(IncompatibleSamplingError):
        convolve(wf, identity_kernel(0.5, 4))


def test_require_same_grid_tolerates_tiny_mismatch():
    require_same_grid(Waveform(1.0, np.ones(2)), Waveform(1.0 + 1e-12, np.ones(2)))


def test_step_to_impulse_identity_for_flat_step():
    step = heaviside_step(1.0, 32.0, 1.0)
    resp = step_to_impulse(step)
    assert resp.kernel[0] == 1.0
    assert np.all(resp.kernel[1:] == 0.0)


def test_step_to_impulse_reconstructs_step_exactly():
    # Convolving a unit step with the extracted kernel telescopes back to
    # the original step samples.
    rng = np.random.default_rng(19)
    settle = 1.0 + 0.05 * np.exp(-np.arange(200) / 23.0) + 0.002 * rng.normal(size=200)
    step = Waveform(0.5, settle)
    resp = step_to_impulse(step)
    rebuilt = convolve(heaviside_step(1.0, 100.0, 0.5), resp)
    np.testing.assert_allclose(rebuilt.samples, settle, rtol=0.0, atol=1e-13)


def test_negate_compensation_scales_and_flips():
    wf = Waveform(1.0, np.array([0.02, -0.01, 0.0]))
    out = negate_compensation(wf, v_step=0.5)
    np.testing.assert_allclose(out.samples, [-0.04, 0.02, 0.0], atol=1e-15)
    with pytest.raises(InvalidArgumentError):
        negate_compensation(wf, v_step=0.0)


def test_waveform_csv_roundtrip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(23)
    wf = Waveform(0.5, rng.normal(size=37))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_waveform_csv(first, wf)
    back = read_waveform_csv(first)
    assert back.dt_ns == wf.dt_ns
    np.testing.assert_array_equal(back.samples, wf.samples)
    write_waveform_csv(second, back)
    assert first.read_bytes() == second.read_bytes()


def test_waveform_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,volts\n0,1\n1,1\n")
    with pytest.raises(InvalidArgumentError):
        read_waveform_csv(path)


def test_waveform_csv_rejects_nonuniform_grid(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_ns,amplitude\n0,1\n1,1\n3,1\n")
    with pytest.raises(IncompatibleSamplingError):
        read_waveform_csv(path)
