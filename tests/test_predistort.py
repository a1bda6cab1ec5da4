import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxcal.errors import ChannelApproximationWarning, IllConditionedChannelError
from fluxcal.models import CombinedResponse, LongTimeModel, ShortTimeModel, step_response_grid
from fluxcal.predistort import apply_channel, full_pipeline, reversed_convolution_o2
from fluxcal.signal import Waveform, convolve, heaviside_step, identity_kernel, step_to_impulse

FLIPCHIP = CombinedResponse(
    short=ShortTimeModel.from_arrays([-0.019, -0.021], [47.83, 528.10]),
    long=None,
    v_step=1.0,
)
PLANAR = CombinedResponse(
    short=ShortTimeModel.from_arrays([-0.024, -0.011, -0.006], [17.61, 132.07, 1305.15]),
    long=LongTimeModel(settled=1.0127, initial=0.9935, tau_us=18.684),
    v_step=1.0,
)


def single_exp_kernel(amplitude, tau_ns, duration_ns, dt_ns):
    resp = CombinedResponse(
        short=ShortTimeModel.from_arrays([amplitude], [tau_ns]), long=None, v_step=1.0
    )
    t = (np.arange(round(duration_ns / dt_ns)) + 0.0) * dt_ns
    step = Waveform(dt_ns, 1.0 + amplitude * np.exp(-t / tau_ns))
    return step_to_impulse(step), resp


def test_reversed_convolution_identity_kernel_is_noop():
    rng = np.random.default_rng(2)
    wf = Waveform(1.0, rng.normal(size=128))
    out = reversed_convolution_o2(wf, identity_kernel(1.0, 16))
    np.testing.assert_allclose(out.samples, wf.samples, rtol=0.0, atol=1e-14)


def test_reversed_convolution_residual_is_cubic():
    # For a single-exponential distortion of amplitude p the worst-case
    # residual after the second-order correction is exactly p^3 at t=0.
    p = 0.02
    kernel, _ = single_exp_kernel(-p, 60.0, 1500.0, 1.0)
    target = heaviside_step(1.0, 1000.0, 1.0)
    corrected = reversed_convolution_o2(target, kernel)
    residual = convolve(corrected, kernel).samples - target.samples
    sup = float(np.max(np.abs(residual)))
    assert sup <= p**3 * (1.0 + 1e-9)
    assert sup >= p**3 * 0.5


def test_reversed_convolution_residual_log_slope_is_three():
    amplitudes = np.geomspace(0.005, 0.05, 7)
    target = heaviside_step(1.0, 1000.0, 1.0)
    sups = []
    for p in amplitudes:
        kernel, _ = single_exp_kernel(-p, 60.0, 1500.0, 1.0)
        corrected = reversed_convolution_o2(target, kernel)
        residual = convolve(corrected, kernel).samples - target.samples
        sups.append(np.max(np.abs(residual)))
    slope = np.polyfit(np.log(amplitudes), np.log(sups), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.3)


def test_reversed_convolution_warns_outside_perturbative_regime():
    kernel, _ = single_exp_kernel(-0.7, 60.0, 500.0, 1.0)
    target = heaviside_step(1.0, 400.0, 1.0)
    with pytest.warns(ChannelApproximationWarning):
        reversed_convolution_o2(target, kernel)


@pytest.mark.parametrize("resp, grid_ns", [(FLIPCHIP, 5000.0), (PLANAR, 40000.0)])
def test_full_pipeline_flattens_channel_output(resp, grid_ns):
    target = heaviside_step(1.0, grid_ns, 1.0)
    pre = full_pipeline(target, resp)
    out = apply_channel(pre, resp)
    dev = np.abs(out.samples - target.samples)
    assert np.max(dev) < 1e-10


def test_full_pipeline_without_model_is_identity():
    resp = CombinedResponse(short=None, long=None, v_step=1.0)
    target = heaviside_step(0.4, 500.0, 1.0)
    out = full_pipeline(target, resp)
    np.testing.assert_array_equal(out.samples, target.samples)


def test_full_pipeline_long_only_removes_slow_settling():
    resp = CombinedResponse(short=None, long=PLANAR.long, v_step=1.0)
    target = heaviside_step(1.0, 40000.0, 1.0)
    pre = full_pipeline(target, resp)
    out = apply_channel(pre, resp)
    dev = np.abs(out.samples - target.samples)
    assert np.max(dev) < 1e-10


def test_full_pipeline_rejects_channel_with_zero_initial_gain():
    # s(0) = 1 - 0.5 - 0.5 = 0: nothing passes at t = 0, so no inverse exists.
    resp = CombinedResponse(short=ShortTimeModel.from_arrays([-0.5, -0.5], [1.0, 2.0]), long=None)
    with pytest.raises(IllConditionedChannelError, match="zero gain"):
        full_pipeline(heaviside_step(1.0, 100.0, 1.0), resp)


def test_full_pipeline_rejects_unstable_inverse():
    # Sub-sample time constants: at dt = 2 ns the sampled channel has a zero
    # near z = -1.08, so its causal inverse grows as (-1.08)^n.  The same
    # model at dt = 1 ns is invertible.
    resp = CombinedResponse(
        short=ShortTimeModel.from_arrays([-0.3, -0.2, -0.1], [0.31, 1.30, 399.0]), long=None
    )
    with pytest.raises(IllConditionedChannelError, match="unstable"):
        full_pipeline(heaviside_step(1.0, 2000.0, 2.0), resp)
    target = heaviside_step(1.0, 2000.0, 1.0)
    out = apply_channel(full_pipeline(target, resp), resp)
    np.testing.assert_allclose(out.samples, target.samples, rtol=0.0, atol=1e-12)


def test_apply_channel_ideal_is_identity():
    rng = np.random.default_rng(9)
    wf = Waveform(1.0, rng.normal(size=200))
    resp = CombinedResponse(short=None, long=None, v_step=2.0)
    out = apply_channel(wf, resp)
    np.testing.assert_allclose(out.samples, wf.samples, rtol=0.0, atol=1e-14)


def test_apply_channel_step_matches_model_curve():
    # Driving the channel with a step reproduces the model step response.
    wf = heaviside_step(1.0, 3000.0, 1.0)
    out = apply_channel(wf, FLIPCHIP)
    from fluxcal.models import eval_step_response

    np.testing.assert_allclose(
        out.samples, eval_step_response(FLIPCHIP, wf.times_ns), rtol=0.0, atol=1e-9
    )


def test_predistorted_step_overshoots_then_settles():
    # Compensating an undershooting channel requires an initial overshoot.
    target = heaviside_step(1.0, 5000.0, 1.0)
    pre = full_pipeline(target, FLIPCHIP)
    assert pre.samples[0] > 1.0
    assert pre.samples[-1] == pytest.approx(1.0, abs=0.01)


short_models = st.lists(
    st.tuples(st.floats(-0.1, 0.1), st.floats(1.0, 500.0)),
    min_size=1,
    max_size=3,
    unique_by=lambda term: term[1],
).map(lambda terms: ShortTimeModel.from_arrays(*zip(*terms)))
long_models = st.builds(
    LongTimeModel,
    settled=st.floats(0.9, 1.1),
    initial=st.floats(0.9, 1.1),
    tau_us=st.floats(0.1, 50.0),
)


@settings(deadline=None, max_examples=50)
@given(
    short=st.none() | short_models,
    long=st.none() | long_models,
    v_step=st.floats(0.1, 2.0),
    dt_ns=st.sampled_from([0.5, 1.0]),
    n=st.integers(1, 3000),
)
def test_apply_channel_to_unit_step_reproduces_step_response(short, long, v_step, dt_ns, n):
    resp = CombinedResponse(short=short, long=long, v_step=v_step)
    out = apply_channel(heaviside_step(1.0, n * dt_ns, dt_ns), resp)
    unit = CombinedResponse(short=short, long=long)
    expected = step_response_grid(unit, n * dt_ns, dt_ns)
    np.testing.assert_allclose(out.samples, expected.samples, rtol=0.0, atol=1e-10)


@settings(deadline=None, max_examples=60)
@given(
    short=st.lists(
        st.tuples(st.floats(-0.1, 0.1), st.floats(0.3, 5000.0)),
        min_size=1,
        max_size=3,
        unique_by=lambda term: term[1],
    ).map(lambda terms: ShortTimeModel.from_arrays(*zip(*terms))),
    long=st.none() | long_models,
    dt_ns=st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0, 2.0]),
    n=st.integers(1, 20000),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # a zero amplitude, and a short time constant equal to the long one
    short=ShortTimeModel.from_arrays([0.0, -0.05], [3.0, 2000.0]),
    long=LongTimeModel(settled=1.02, initial=0.99, tau_us=2.0),
    dt_ns=0.5,
    n=20000,
    seed=1,
)
@example(  # the planar terms on a 0.1 ns grid, where dt is no power of two
    short=PLANAR.short, long=PLANAR.long, dt_ns=0.1, n=20000, seed=2,
)
def test_full_pipeline_then_channel_returns_target(short, long, dt_ns, n, seed):
    # |p| <= 0.1 and levels within 10% of 1 keep every zero of the sampled
    # channel inside the unit circle, so the exact inverse always exists.
    resp = CombinedResponse(short=short, long=long, v_step=0.3)
    x = Waveform(dt_ns, np.random.default_rng(seed).normal(size=n))
    out = apply_channel(full_pipeline(x, resp), resp)
    np.testing.assert_allclose(out.samples, x.samples, rtol=0.0, atol=1e-12 * np.max(np.abs(x.samples)))
