import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxcal import presets
from fluxcal.cli import main
from fluxcal.errors import ChannelApproximationWarning, IllConditionedChannelError
from fluxcal.models import (
    CombinedResponse,
    LongTimeModel,
    ShortTimeModel,
    model_to_dict,
    step_response_grid,
)
from fluxcal.predistort import (
    _KERNEL_BLOCK,
    _inverse_kernel,
    apply_channel,
    full_pipeline,
    reversed_convolution_o2,
)
from fluxcal.serialize import write_json
from fluxcal.signal import (
    Waveform,
    convolve,
    heaviside_step,
    identity_kernel,
    step_to_impulse,
    write_waveform_csv,
)

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


def whole_array_inverse_kernel(resp, like):
    # _inverse_kernel with every power of each zero evaluated at once
    terms = [(t.amplitude, t.tau_ns) for t in (resp.short.terms if resp.short else ())]
    if resp.long is not None:
        terms.append((resp.long.initial - resp.long.settled, 1000.0 * resp.long.tau_us))
    q, taus = np.array(terms).T
    b, where = np.unique(-np.expm1(-like.dt_ns / taus), return_inverse=True)
    q = np.bincount(where, weights=q)
    s0 = resp.settled_level + q.sum()
    keep = q * b != 0
    q, b = q[keep], b[keep]
    zeros = np.linalg.eigvals(np.outer(q * b / s0, np.ones(b.size)) - np.diag(b))
    g = np.zeros(len(like))
    g[0] = 1.0 / s0
    for j, x in enumerate(zeros):
        residue = np.prod(x + b) / (s0 * np.prod(x - np.delete(zeros, j)))
        g[1:] += (residue * (1.0 + x) ** np.arange(g.size - 1)).real
    return g


# kernel lengths at and next to the block edges (g[1 + k] holds power k),
# short ones, and any length up to three blocks
kernel_lengths = st.one_of(
    st.integers(1, 3),
    st.tuples(st.integers(1, 3), st.integers(-2, 2)).map(lambda m_d: m_d[0] * _KERNEL_BLOCK + 1 + m_d[1]),
    st.integers(1, 3 * _KERNEL_BLOCK + 5),
)


@settings(deadline=None, max_examples=60)
@given(
    short=st.lists(
        st.tuples(st.floats(-0.075, 0.075), st.floats(0.3, 5000.0)),
        min_size=1,
        max_size=4,
        unique_by=lambda term: term[1],
    ).map(lambda terms: ShortTimeModel.from_arrays(*zip(*terms))),
    long=st.none() | long_models,
    dt_ns=st.sampled_from([0.5, 1.0]),
    n=kernel_lengths,
)
def test_blocked_inverse_kernel_is_the_whole_arrays_to_the_bit(short, long, dt_ns, n):
    # Each g[n] takes the same additions in the same order, block or not.
    # Amplitudes summing to at most 0.3 in |p| and levels within 10% of 1
    # keep the inverse stable, as in the round-trip property above.
    resp = CombinedResponse(short=short, long=long, v_step=0.3)
    like = Waveform(dt_ns, np.zeros(n))
    expected = whole_array_inverse_kernel(resp, like)
    assert _inverse_kernel(resp, like).samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("target", ["square", "full_precision"])
def test_predistort_of_a_40_us_target_peaks_below_7_mb(tmp_path, capsys, target):
    # 80,000 rows at 0.5 ns.  The reader holds the text and its bytes but no
    # line list, the writer one block of rows, the kernel one block of
    # powers, and the FFT two spectra; with a Python string per line the
    # peak was 8.3 MB for the square and 11.1 MB at full precision.
    t = np.arange(80_000) * 0.5
    samples = {
        "square": np.where((t >= 2000.0) & (t < 38000.0), 0.25, 0.0),
        "full_precision": 0.3 * np.random.default_rng(5).random(t.size),
    }[target]
    write_waveform_csv(tmp_path / "target.csv", Waveform(0.5, samples))
    write_json(tmp_path / "model.json", model_to_dict(presets.planar_channel(v_step=0.3)))
    argv = ["predistort", str(tmp_path / "target.csv"), "--model", str(tmp_path / "model.json"),
            "-o", str(tmp_path / "shaped.csv")]
    assert main(argv) == 0  # first use builds the codec's and the FFT's cached tables
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7e6, f"traced peak {peak / 1e6:.2f} MB"
