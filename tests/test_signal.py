import re

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxcal import signal
from fluxcal.errors import FluxcalError, IncompatibleSamplingError, InvalidArgumentError
from fluxcal.signal import (
    Waveform,
    convolve,
    heaviside_step,
    identity_kernel,
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


def test_identity_kernel_is_one_unit_tap():
    kernel = identity_kernel(0.5, 16)
    assert kernel.dt_ns == 0.5 and len(kernel) == 16
    assert kernel.samples.sum() == 1.0
    assert kernel.samples[0] == 1.0  # a plain tap, whatever dt


def test_heaviside_step_shape_and_values():
    wf = heaviside_step(0.3, duration_ns=10.0, dt_ns=0.5)
    assert len(wf) == 20
    assert np.all(wf.samples == 0.3)
    with pytest.raises(InvalidArgumentError):
        heaviside_step(0.3, duration_ns=0.0, dt_ns=0.5)


def test_convolve_matches_direct_sum():
    # Oracle: out[n] = sum_k x[n-k] h[k] evaluated with explicit loops.
    rng = np.random.default_rng(3)
    dt = 0.5
    x = rng.normal(size=17)
    h = rng.normal(size=9)
    direct = np.zeros(17)
    for n in range(17):
        for k in range(min(n + 1, 9)):
            direct[n] += x[n - k] * h[k]
    out = convolve(Waveform(dt, x), Waveform(dt, h))
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
    out = convolve(Waveform(dt, samples), Waveform(dt, kernel))
    direct = np.convolve(samples, kernel)[: len(samples)]
    scale = np.max(np.abs(kernel)) * np.sum(np.abs(samples))
    np.testing.assert_allclose(out.samples, direct, rtol=0.0, atol=1e-12 * scale)


def test_fast_len_is_scipy_next_fast_len():
    # The FFT length decides the rounding of convolve, so it must be scipy's
    # for every length: here every n up to 2^20, and some up to 2^53.
    ns = list(range(1, 2**20 + 1)) + [2**53 - 1, 2**53, 3**33, 3**33 + 1]
    assert [signal._fast_len(n) for n in ns] == [scipy.fft.next_fast_len(n, real=True) for n in ns]


def _scipy_fft_convolve(samples: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The scipy.fft convolution that ``convolve`` replaced, operation for
    operation."""
    n = samples.size
    taps = kernel[:n]
    size = scipy.fft.next_fast_len(n + taps.size - 1, real=True)
    spectrum = scipy.fft.rfft(samples, size) * scipy.fft.rfft(taps, size)
    return scipy.fft.irfft(spectrum, size)[:n]


_SMOOTH = [m for m in range(2, 9000) if m == scipy.fft.next_fast_len(m, real=True)]


@st.composite
def _fft_cases(draw):
    """(n, kernel length, seed): the FFT length n + min(n, taps) - 1 lands
    within one of a 5-smooth number, or anywhere, and the kernel may be
    longer than the waveform."""
    if draw(st.booleans()):
        size = draw(st.sampled_from(_SMOOTH)) + draw(st.integers(-1, 1))
        n = draw(st.integers((size + 1) // 2, size))
        taps = size + 1 - n
    else:
        n = draw(st.integers(1, 20000))
        taps = draw(st.integers(1, n))
    extra = draw(st.sampled_from([0, 0, 1, n]))
    return n, taps + (extra if taps == n else 0), draw(st.integers(0, 2**32 - 1))


@pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.0.0",
    reason="numpy < 2 ships the older C pocketfft, whose rounding is not scipy.fft's",
)
@settings(max_examples=300, deadline=None)
@given(_fft_cases())
@example((1, 1, 0)).via("one sample")
@example((4096, 4096, 1)).via("size 8191, next 8192")
@example((4097, 4097, 2)).via("size 8193, next 8640")
@example((80000, 80000, 3)).via("an 80k-sample target")
def test_convolve_is_bitwise_the_scipy_fft_convolution(case):
    n, taps, seed = case
    rng = np.random.default_rng(seed)
    samples, kernel = rng.normal(size=n), rng.normal(size=taps) * rng.uniform(0.0, 2.0, taps)
    out = convolve(Waveform(0.5, samples), Waveform(0.5, kernel))
    assert out.samples.tobytes() == _scipy_fft_convolve(samples, kernel).tobytes()


def test_convolve_is_linear():
    rng = np.random.default_rng(5)
    dt = 1.0
    h = Waveform(dt, rng.normal(size=12))
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
    kernel = step_to_impulse(step)
    assert kernel.samples[0] == 1.0
    assert np.all(kernel.samples[1:] == 0.0)


def test_step_to_impulse_reconstructs_step_exactly():
    # Convolving a unit step with the extracted kernel telescopes back to
    # the original step samples.
    rng = np.random.default_rng(19)
    settle = 1.0 + 0.05 * np.exp(-np.arange(200) / 23.0) + 0.002 * rng.normal(size=200)
    step = Waveform(0.5, settle)
    resp = step_to_impulse(step)
    rebuilt = convolve(heaviside_step(1.0, 100.0, 0.5), resp)
    np.testing.assert_allclose(rebuilt.samples, settle, rtol=0.0, atol=1e-13)


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
    with pytest.raises(ValueError, match="expected header 't_ns,amplitude'"):
        read_waveform_csv(path)


def test_waveform_csv_rejects_nonuniform_grid(tmp_path):
    # A time column out of order is a malformed file (ValueError naming it),
    # whether it falls, steps unevenly or starts after 0 ns.
    path = tmp_path / "bad.csv"
    for times, message in (
        ("0,1,3", "not uniform"), ("1,0,-1", "must increase"), ("100,101,102,103", "must start at 0 ns"),
    ):
        path.write_text("t_ns,amplitude\n" + "".join(f"{t},1\n" for t in times.split(",")))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: time .*{message}") as info:
            read_waveform_csv(path)
        assert not isinstance(info.value, FluxcalError)
