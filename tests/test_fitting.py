from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from fluxcal import fitting, pipeline, presets
from fluxcal.errors import (
    DegenerateFitWarning,
    FitFailedError,
    InvalidArgumentError,
)
from fluxcal.fitting import (
    AnticrossingData,
    CalibrationRun,
    CrosstalkModel,
    fit_anticrossing,
    fit_long_time,
    fit_short_time,
    read_calibration_csv,
    synthesize_calibration_run,
    write_calibration_csv,
)
from fluxcal.models import LONG_LEVEL_BAND, CombinedResponse, LongTimeModel, ShortTimeModel

FLIPCHIP_AMPLITUDES = [-0.019, -0.021]
FLIPCHIP_TAUS = [47.83, 528.10]
PLANAR_AMPLITUDES = [-0.024, -0.011, -0.006]
PLANAR_TAUS = [17.61, 132.07, 1305.15]
PLANAR_LONG = (1.0127, 0.9935, 18.684)


def short_channel(amplitudes, taus, v_step=1.0):
    return CombinedResponse(
        short=ShortTimeModel.from_arrays(amplitudes, taus), long=None, v_step=v_step
    )


def test_calibration_run_validation():
    with pytest.raises(InvalidArgumentError):
        CalibrationRun(
            delays_ns=np.array([10.0, 5.0]),
            compensation=np.zeros(2),
            v_step=1.0,
            regime="short",
        )
    with pytest.raises(InvalidArgumentError):
        CalibrationRun(
            delays_ns=np.array([10.0]),
            compensation=np.zeros(1),
            v_step=1.0,
            regime="short",
        )
    with pytest.raises(InvalidArgumentError):
        CalibrationRun(
            delays_ns=np.array([10.0, 20.0]),
            compensation=np.zeros(2),
            v_step=1.0,
            regime="fast",
        )
    with pytest.raises(InvalidArgumentError):
        CalibrationRun(
            delays_ns=np.array([10.0, 20.0]),
            compensation=np.zeros(2),
            v_step=0.0,
            regime="short",
        )


@pytest.mark.parametrize(
    "amplitudes, taus",
    [(FLIPCHIP_AMPLITUDES, FLIPCHIP_TAUS), (PLANAR_AMPLITUDES, PLANAR_TAUS)],
)
def test_short_fit_recovers_noiseless_tables(amplitudes, taus):
    resp = short_channel(amplitudes, taus, v_step=0.3)
    run = synthesize_calibration_run(resp, np.geomspace(2.0, 4 * taus[-1], 60), "short")
    model = fit_short_time(run, n_terms=len(amplitudes))
    np.testing.assert_allclose(model.amplitudes, amplitudes, rtol=1e-6)
    np.testing.assert_allclose(model.taus_ns, taus, rtol=1e-6)


def test_short_fit_zero_data_gives_zero_model():
    run = CalibrationRun(
        delays_ns=np.geomspace(2.0, 2000.0, 20),
        compensation=np.zeros(20),
        v_step=1.0,
        regime="short",
    )
    model = fit_short_time(run, n_terms=2)
    assert np.all(model.amplitudes == 0.0)


def test_short_fit_rejects_wrong_regime():
    run = synthesize_calibration_run(
        short_channel(FLIPCHIP_AMPLITUDES, FLIPCHIP_TAUS),
        np.geomspace(2.0, 2000.0, 30),
        "long",
    )
    with pytest.raises(InvalidArgumentError):
        fit_short_time(run, n_terms=2)


def test_short_fit_term_count_and_point_budget():
    run = synthesize_calibration_run(
        short_channel(FLIPCHIP_AMPLITUDES, FLIPCHIP_TAUS),
        np.geomspace(2.0, 2000.0, 30),
        "short",
    )
    with pytest.raises(InvalidArgumentError):
        fit_short_time(run, n_terms=0)
    with pytest.raises(InvalidArgumentError):
        fit_short_time(run, n_terms=7)
    tiny = CalibrationRun(
        delays_ns=np.array([1.0, 2.0, 3.0, 4.0]),
        compensation=np.array([0.1, 0.05, 0.02, 0.01]),
        v_step=1.0,
        regime="short",
    )
    with pytest.raises(InvalidArgumentError):
        fit_short_time(tiny, n_terms=2)


def test_short_fit_flags_unfittable_data():
    rng = np.random.default_rng(0)
    run = CalibrationRun(
        delays_ns=np.geomspace(2.0, 2000.0, 40),
        compensation=0.05 * rng.normal(size=40),
        v_step=1.0,
        regime="short",
    )
    with pytest.raises(FitFailedError):
        fit_short_time(run, n_terms=2, rms_threshold=0.001)


def test_short_fit_diagnostics_describe_the_returned_model():
    resp = short_channel(PLANAR_AMPLITUDES, PLANAR_TAUS)
    run = synthesize_calibration_run(resp, np.geomspace(2.0, 5000.0, 60), "short")
    model, diag = fit_short_time(run, n_terms=3, full_output=True)
    y = -run.compensation / run.v_step
    rms = fitting._rms(run.delays_ns, y, model.amplitudes, model.taus_ns)
    assert diag.residual_rms == pytest.approx(rms, rel=1e-12)
    # Every 3-subset of the 6 log-spaced start constants.
    assert diag.n_starts == comb(6, 3) and diag.n_dropped_starts == 0


def test_short_fit_is_deterministic():
    resp = short_channel(PLANAR_AMPLITUDES, PLANAR_TAUS)
    run = synthesize_calibration_run(resp, np.geomspace(2.0, 5000.0, 60), "short")
    a = fit_short_time(run, n_terms=3)
    b = fit_short_time(run, n_terms=3)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    np.testing.assert_array_equal(a.taus_ns, b.taus_ns)


def test_long_fit_recovers_noiseless_parameters():
    settled, initial, tau_us = PLANAR_LONG
    resp = CombinedResponse(
        short=None,
        long=LongTimeModel(settled=settled, initial=initial, tau_us=tau_us),
        v_step=0.25,
    )
    run = synthesize_calibration_run(resp, np.linspace(100.0, 40000.0, 80), "long")
    with pytest.warns(DegenerateFitWarning):
        # 40 us of data against an 18.7 us constant is legitimate but thin
        model = fit_long_time(run)
    assert model.settled == pytest.approx(settled, rel=1e-6)
    assert model.initial == pytest.approx(initial, rel=1e-6)
    assert model.tau_us == pytest.approx(tau_us, rel=1e-6)


def test_long_fit_constant_data_degenerates():
    run = CalibrationRun(
        delays_ns=np.linspace(1000.0, 30000.0, 20),
        compensation=np.full(20, 0.01),
        v_step=1.0,
        regime="long",
    )
    with pytest.warns(DegenerateFitWarning):
        model, diag = fit_long_time(run, full_output=True)
    assert model.settled == model.initial
    assert diag.degenerate


def test_long_fit_rejects_wrong_regime():
    run = synthesize_calibration_run(
        short_channel(FLIPCHIP_AMPLITUDES, FLIPCHIP_TAUS),
        np.geomspace(2.0, 2000.0, 30),
        "short",
    )
    with pytest.raises(InvalidArgumentError):
        fit_long_time(run)


def test_short_fit_fails_when_every_start_is_dropped():
    # One term of amplitude 0.8: every search ends outside the amplitude
    # bound, so every start is dropped and the fit fails in one message.
    t = np.geomspace(2.0, 400.0, 40)
    run = CalibrationRun(
        delays_ns=t, compensation=-0.3 * 0.8 * np.exp(-t / 50.0), v_step=0.3, regime="short"
    )
    with pytest.raises(FitFailedError, match=r"amplitude bound \[-0.5, 0.5\]; lower n_terms"):
        fit_short_time(run, n_terms=1, rms_threshold=1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_short_fit_near_the_double_range_fails_as_a_fit():
    # The search's normal equations overflow; each start stops where it is
    # with amplitudes near 1e200, and the fit fails on the amplitude bound,
    # not inside a linear solver.
    t = np.geomspace(2.0, 2000.0, 30)
    run = CalibrationRun(
        delays_ns=t, compensation=1e200 * np.exp(-t / 50.0), v_step=0.3, regime="short"
    )
    with pytest.raises(FitFailedError, match="amplitude bound"):
        fit_short_time(run, n_terms=2)


def joint_multistart_oracle(run, n_terms, seed=0, n_random_starts=8):
    """The joint multi-start search that fit_short_time ran before the
    variable projection, kept verbatim: every start is a bounded TRF over
    all 2n parameters with a finite-difference Jacobian.  Returns the best
    residual RMS and its amplitudes and time constants, ascending."""
    t = run.delays_ns
    y = -run.compensation / run.v_step
    span = run.span_ns
    tau_lo = max(float(np.min(np.diff(t))), 1e-9 * span)
    tau_hi = 10.0 * span

    def residuals(theta):
        p, taus = theta[:n_terms], theta[n_terms:]
        return fitting._exp_design_matrix(t, taus) @ p - y

    rng = np.random.default_rng(seed)
    starts = [np.geomspace(max(tau_lo * 2, span * 1e-3), span, n_terms)]
    starts.append(np.geomspace(max(tau_lo * 2, span * 3e-3), span / 3.0, n_terms))
    for _ in range(n_random_starts):
        lo, hi = np.log(tau_lo * 2), np.log(span)
        starts.append(np.exp(np.sort(rng.uniform(lo, hi, n_terms))))

    best = None
    for taus0 in starts:
        design = fitting._exp_design_matrix(t, taus0)
        p0, *_ = np.linalg.lstsq(design, y, rcond=None)
        p0 = np.clip(p0, -0.499, 0.499)
        theta0 = np.concatenate([p0, taus0])
        lower = np.concatenate([np.full(n_terms, -0.5), np.full(n_terms, tau_lo)])
        upper = np.concatenate([np.full(n_terms, 0.5), np.full(n_terms, tau_hi)])
        try:
            sol = least_squares(residuals, theta0, bounds=(lower, upper), method="trf")
        except ValueError:
            continue
        cost = float(np.sqrt(np.mean(sol.fun**2)))
        if best is None or cost < best[0]:
            best = (cost, sol.x)

    rms, theta = best
    p, taus = theta[:n_terms], theta[n_terms:]
    order = np.argsort(taus)
    return rms, p[order], taus[order]


NOISY_MODELS = [([-0.02], [50.0]), (FLIPCHIP_AMPLITUDES, FLIPCHIP_TAUS),
                (PLANAR_AMPLITUDES, PLANAR_TAUS)]
# 3-term data on which most searches end on one merged pair of time
# constants with large opposite amplitudes, over 40 delays of 2-2000 ns.
MERGING_MODEL = ([0.027, -0.011, 0.032], [46.0, 183.0, 777.0])

ORACLE_CASES = [
    pytest.param(*model, np.geomspace(2.0, 4 * model[1][-1], 60), 1e-4, noise_seed, False,
                 id=f"n{len(model[1])}-{noise_seed}")
    for noise_seed in (0, 1, 2) for model in NOISY_MODELS
] + [
    pytest.param(*MERGING_MODEL, np.geomspace(2.0, 2000.0, 40), sigma, noise_seed, True,
                 id=f"merging-{sigma:g}-{noise_seed}")
    for sigma, noise_seeds in ((0.0, [0]), (1e-5, [0, 1, 2]), (1e-4, [0, 1, 2]))
    for noise_seed in noise_seeds
]


@pytest.mark.parametrize("amplitudes, taus, delays, sigma, noise_seed, merging", ORACLE_CASES)
def test_short_fit_matches_joint_oracle_on_noisy_runs(
    amplitudes, taus, delays, sigma, noise_seed, merging
):
    resp = short_channel(amplitudes, taus, v_step=0.3)
    run = synthesize_calibration_run(
        resp, delays, "short", noise_sigma=sigma, rng=np.random.default_rng(noise_seed),
    )
    oracle_rms, _, oracle_taus = joint_multistart_oracle(run, len(taus), seed=noise_seed)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        model, diag = fit_short_time(run, n_terms=len(taus), full_output=True)
    assert diag.residual_rms <= oracle_rms * (1 + 1e-9)
    np.testing.assert_allclose(model.taus_ns, oracle_taus, rtol=1e-3)
    # Every n-subset of the 6 log-spaced start constants.
    assert diag.n_starts == comb(6, len(taus))
    assert (diag.n_dropped_starts > 0) == merging


def test_kaufman_jacobian_against_central_differences():
    t = np.geomspace(2.0, 5000.0, 60)
    resp = short_channel(PLANAR_AMPLITUDES, PLANAR_TAUS)
    y = -synthesize_calibration_run(resp, t, "short").compensation
    # The generating constants first, then two points off the optimum.
    u = np.log([PLANAR_TAUS, [10.0, 90.0, 2000.0], [30.0, 200.0, 800.0]])
    resid, jac, amplitudes = fitting._projection(t, y, u)
    h = 1e-5
    fd = np.stack([
        (fitting._projection(t, y, u + h * e)[0] - fitting._projection(t, y, u - h * e)[0]) / (2 * h)
        for e in np.eye(3)
    ], axis=2)

    # At the generating constants the residual vanishes, and with it the
    # term Kaufman's Jacobian omits.
    assert np.max(np.abs(resid[0])) < 1e-12
    scale = np.max(np.abs(jac[0]))
    np.testing.assert_allclose(jac[0], fd[0], rtol=0, atol=1e-8 * scale)

    # Elsewhere the exact Jacobian adds -pinv(E)[k] (dE_k/du_k . r) to
    # column k (Golub & Pereyra); both parts are checked.
    for k in (1, 2):
        taus = np.exp(u[k])
        design = fitting._exp_design_matrix(t, taus)
        omitted = -np.linalg.pinv(design).T * ((design * (t[:, None] / taus)).T @ resid[k])
        scale = np.max(np.abs(fd[k]))
        np.testing.assert_allclose(jac[k] + omitted, fd[k], rtol=0, atol=1e-7 * scale)
        assert np.max(np.abs(omitted)) > 1e-3 * scale
        np.testing.assert_allclose(amplitudes[k], np.linalg.lstsq(design, y, rcond=None)[0],
                                   rtol=1e-9)


def test_projection_drops_a_collapsed_column():
    # A 3000 ns term outside the design keeps the residual off zero, so a
    # projection onto a spurious round-off direction would shrink it.
    # Every row holds the 300 ns constant twice, in a different place.
    t = np.geomspace(2.0, 2000.0, 40)
    y = 0.02 * np.exp(-t / 30.0) - 0.01 * np.exp(-t / 300.0) + 0.005 * np.exp(-t / 3000.0)
    u_pair = np.log([[30.0, 300.0, 300.0], [300.0, 30.0, 300.0], [300.0, 300.0, 30.0]])
    resid, jac, p = fitting._projection(t, y, u_pair)
    resid_one, _, p_one = fitting._projection(t, y, np.log([[30.0, 300.0]]))
    assert np.all(np.isfinite(jac))
    for k, row in enumerate(u_pair):
        np.testing.assert_allclose(resid[k], resid_one[0], rtol=0, atol=1e-15)
        single = row == np.log(30.0)
        np.testing.assert_allclose([p[k][single].sum(), p[k][~single].sum()], p_one[0], rtol=1e-9)


def test_short_fit_keeps_amplitude_bounds_with_too_many_terms(monkeypatch):
    # Four terms on two-term data: searches end on merging time constants
    # with large opposite amplitudes, which must not reach the model.
    monkeypatch.setattr(fitting, "TAU_COLLAPSE_REL", 0.0)
    resp = short_channel(FLIPCHIP_AMPLITUDES, FLIPCHIP_TAUS)
    for seed in range(3):
        run = synthesize_calibration_run(
            resp, np.geomspace(2.0, 2000.0, 40), "short",
            noise_sigma=1e-4, rng=np.random.default_rng(seed),
        )
        model, diag = fit_short_time(run, n_terms=4, full_output=True)
        assert np.max(np.abs(model.amplitudes)) <= 0.5
        y = -run.compensation / run.v_step
        rms = fitting._rms(run.delays_ns, y, model.amplitudes, model.taus_ns)
        assert diag.residual_rms == pytest.approx(rms, rel=1e-12)


def test_short_fit_counts_dropped_starts(monkeypatch):
    # Four terms on two-term data drop the merging searches; two terms on
    # the same data drop none.  Either way no start is refitted: the fit
    # runs one search of every start and one continuation of the best.
    monkeypatch.setattr(fitting, "TAU_COLLAPSE_REL", 0.0)
    calls = []
    search = fitting._search

    def counting(model, x0, *args, **kwargs):
        calls.append(len(x0))
        return search(model, x0, *args, **kwargs)

    monkeypatch.setattr(fitting, "_search", counting)
    resp = short_channel(FLIPCHIP_AMPLITUDES, FLIPCHIP_TAUS)
    run = synthesize_calibration_run(
        resp, np.geomspace(2.0, 2000.0, 40), "short",
        noise_sigma=1e-4, rng=np.random.default_rng(0),
    )
    _, diag = fit_short_time(run, n_terms=2, full_output=True)
    assert diag.n_dropped_starts == 0 and calls == [comb(6, 2), 1]
    _, diag = fit_short_time(run, n_terms=4, full_output=True)
    assert diag.n_dropped_starts > 0 and calls == [comb(6, 2), 1, comb(6, 4), 1]


@pytest.mark.parametrize("n_terms", range(1, 7))
@pytest.mark.parametrize("spacing", [np.linspace, np.geomspace], ids=["linear", "log"])
def test_short_fit_starts_lie_in_the_bounds_on_minimum_runs(monkeypatch, n_terms, spacing):
    # On 2 n + 1 points the smallest spacing tau_lo nears span / (2 n), so
    # 2 tau_lo can pass span / 2: the grid must still hold distinct time
    # constants inside [tau_lo, 10 x span].
    starts = []
    search = fitting._search

    def recording(model, x0, *args, **kwargs):
        starts.append(np.exp(x0))
        return search(model, x0, *args, **kwargs)

    monkeypatch.setattr(fitting, "_search", recording)
    t = spacing(2.0, 200.0, 2 * n_terms + 1)
    run = CalibrationRun(t, -0.3 * 0.02 * np.exp(-t / 20.0), 0.3, "short")
    try:
        fit_short_time(run, n_terms=n_terms)
    except FitFailedError:
        pass  # only the starts are checked
    taus = starts[0]
    tau_lo = np.min(np.diff(t))
    assert taus.shape == (comb(max(6, n_terms + 2), n_terms), n_terms)
    assert np.all(np.diff(taus, axis=1) > 0.0)
    assert np.all(taus >= tau_lo) and np.all(taus <= 10.0 * (t[-1] - t[0]))


@st.composite
def short_models(draw):
    """1-3 terms, each time constant 3-10x the one before, amplitudes of
    either sign between 0.005 and 0.05."""
    n = draw(st.integers(1, 3))
    taus = [draw(st.floats(5.0, 50.0))]
    for _ in range(n - 1):
        taus.append(taus[-1] * draw(st.floats(3.0, 10.0)))
    amplitudes = [draw(st.floats(0.005, 0.05)) * draw(st.sampled_from([-1, 1])) for _ in taus]
    return amplitudes, taus


def noiseless_run(amplitudes, taus):
    resp = short_channel(amplitudes, taus, v_step=0.3)
    return synthesize_calibration_run(resp, np.geomspace(2.0, 4 * taus[-1], 60), "short")


@settings(deadline=None, max_examples=40)
@given(short_models())
# 16 of this draw's 20 searches end outside the amplitude bound and are
# dropped; a kept one recovers the model.
@example(([0.04921109, -0.01895044, 0.03836234], [37.51935078, 293.15514125, 894.21495377]))
# 15 of this draw's 20 searches end outside the amplitude bound; the kept
# ones must reach the model, not stop short.
@example(([-0.033203125, 0.005, -0.0078125], [43.0, 430.0, 1290.0]))
def test_short_fit_recovers_random_noiseless_models(model):
    amplitudes, taus = model
    fitted = fit_short_time(noiseless_run(amplitudes, taus), n_terms=len(taus))
    np.testing.assert_allclose(fitted.amplitudes, amplitudes, rtol=1e-6)
    np.testing.assert_allclose(fitted.taus_ns, taus, rtol=1e-6)


@pytest.mark.parametrize("amplitudes, taus", [
    # With the ten seeded starts the fit used before its start grid, all ten
    # searches ended on one merged pair at 2.686 ns with amplitudes of
    # +-145 to +-243, so every start was dropped.
    ([-0.0390625, 0.005], [5.0, 15.0]),
    # 3-term draws that fresh --hypothesis-seed runs of
    # test_short_fit_recovers_random_noiseless_models found.  From the
    # seeded starts, on the first and third the best start's search left
    # the bound; on the second and fourth every start ended outside it.
    ([-0.03125, 0.012416974526543636, -0.013671875], [49.0, 147.0, 441.0]),
    ([-0.03125, 0.012416974526543636, -0.015625], [18.0, 54.0, 162.0]),
    ([-0.03125, -0.03125, 0.005000000000000001], [6.0, 42.0, 126.0]),
    ([-0.03125, -0.03125, 0.005000000000000001], [12.0, 84.0, 252.0]),
    # The kept starts ended on a pair merged at 22.02 ns: DegenerateFitError.
    ([-0.046875, 0.032464509415173495, 0.005000000000000001],
     [24.8125, 239.595703125, 718.787109375]),
    # A 2-term draw of a fresh run: every start ended outside the bound.
    ([-0.03125, 0.005859375], [9.0, 27.0]),
    # Three more 3-term draws of short_models().  On the first the best
    # start's search left the bound; on the second the kept starts ended on
    # a pair merged at 25.95 ns (DegenerateFitError); on the third every
    # start ended outside the bound.
    ([-0.048828125, 0.015625, -0.046875], [30.5, 91.5, 274.5]),
    ([-0.046875, 0.015625, -0.046875], [30.0, 90.0, 270.0]),
    ([-0.03125, 0.015625, -0.03125], [22.0, 66.0, 198.0]),
])
def test_short_fit_recovers_a_merged_pair_draw(amplitudes, taus):
    # Draws of short_models() on which most searches end on a merged pair.
    # The bounded joint oracle recovers each model, and so must the fit.
    run = noiseless_run(amplitudes, taus)
    _, oracle_p, oracle_taus = joint_multistart_oracle(run, len(taus))
    np.testing.assert_allclose(oracle_p, amplitudes, rtol=1e-6)
    np.testing.assert_allclose(oracle_taus, taus, rtol=1e-6)
    fitted = fit_short_time(run, n_terms=len(taus))
    np.testing.assert_allclose(fitted.amplitudes, amplitudes, rtol=1e-6)
    np.testing.assert_allclose(fitted.taus_ns, taus, rtol=1e-6)


def test_short_fit_holds_a_time_constant_on_its_bound():
    # On the flip-chip preset's short run (the default roundtrip's) at n = 4
    # the slowest time constant ends on its upper bound, 10x the delay span.
    # The search holds it there and moves the others, so it reaches the
    # joint oracle's RMS; a search that only clips its steps stalls above.
    run = pipeline.roundtrip(presets.flipchip_system(), presets.flipchip_channel()).short_run
    model, diag = fit_short_time(run, n_terms=4, full_output=True)
    assert model.taus_ns[-1] == pytest.approx(10.0 * run.span_ns, rel=1e-12)
    oracle_rms, _, _ = joint_multistart_oracle(run, 4, seed=7)
    assert diag.residual_rms <= oracle_rms * (1 + 1e-9)


@settings(deadline=None, max_examples=40)
@given(
    short_models(), st.integers(1, 4), st.integers(2, 6), st.integers(13, 61),
    st.integers(0, 2**31 - 1),
)
def test_search_starts_do_not_couple(model, n_terms, n_starts, n_points, seed):
    # Each start of a stack ends exactly where it ends when searched alone,
    # and no start ends above its initial cost.  Starts are drawn over the
    # whole box, some on its edges, so some hold equal constants; an odd
    # point count puts the rows of the stack at odd memory offsets.
    amplitudes, taus = model
    rng = np.random.default_rng(seed)
    t = np.geomspace(2.0, 4 * taus[-1], n_points)
    y = np.exp(-t[:, None] / np.asarray(taus)) @ amplitudes + 1e-4 * rng.normal(size=t.size)
    lo, hi = np.log(np.min(np.diff(t))), np.log(10 * (t[-1] - t[0]))
    u0 = np.sort(np.clip(rng.uniform(lo - 1.0, hi + 1.0, (n_starts, n_terms)), lo, hi), axis=1)

    def projection(u):
        return fitting._projection(t, y, u)[:2]

    u = fitting._search(projection, u0, lo, hi)
    for k in range(n_starts):
        np.testing.assert_array_equal(u[k], fitting._search(projection, u0[k : k + 1], lo, hi)[0])
    assert np.all((u >= lo) & (u <= hi))
    cost0 = np.sum(fitting._projection(t, y, u0)[0] ** 2, axis=1)
    assert np.all(np.sum(fitting._projection(t, y, u)[0] ** 2, axis=1) <= cost0)


@settings(deadline=None, max_examples=400)
@given(short_models(), st.floats(-1.0, 1.0), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_offset_projection_jacobian_against_central_differences(model, offset, n_rows, seed):
    # Row 0 holds the generating constants, where the residual vanishes and
    # Kaufman's Jacobian is the exact one; the other rows are moved off them,
    # where the exact Jacobian adds -pinv(D)[k] (dE_k/du_k . r) to column k
    # of the exponentials.  The constant comes back last.
    amplitudes, taus = model
    t = np.geomspace(2.0, 4 * taus[-1], 40)
    y = np.exp(-t[:, None] / np.asarray(taus)) @ amplitudes + offset
    rng = np.random.default_rng(seed)
    moves = rng.uniform(-0.3, 0.3, (n_rows - 1, len(taus)))
    u = np.log(taus) + np.vstack([np.zeros(len(taus)), moves])
    resid, jac, p = fitting._projection(t, y, u, offset=True)
    h = 1e-5
    fd = np.stack([
        (fitting._projection(t, y, u + h * e, offset=True)[0]
         - fitting._projection(t, y, u - h * e, offset=True)[0]) / (2 * h)
        for e in np.eye(len(taus))
    ], axis=2)
    assert jac.shape == fd.shape and p.shape == (n_rows, len(taus) + 1)
    np.testing.assert_allclose(p[0], [*amplitudes, offset], rtol=0, atol=1e-9)
    for k in range(n_rows):
        tk = np.exp(u[k])
        exps = fitting._exp_design_matrix(t, tk)
        design = np.column_stack([exps, np.ones_like(t)])
        omitted = -np.linalg.pinv(design).T[:, :-1] * ((exps * (t[:, None] / tk)).T @ resid[k])
        # Central differences of a residual of y carry round-off of about
        # m eps max|y| / h, which the offset can make larger than the slopes.
        scale = np.max(np.abs(fd[k])) + np.max(np.abs(omitted))
        atol = 1e-7 * scale + 1e-9 * np.max(np.abs(y))
        np.testing.assert_allclose(jac[k] + omitted, fd[k], rtol=0, atol=atol)
        np.testing.assert_allclose(p[k], np.linalg.lstsq(design, y, rcond=None)[0],
                                   rtol=1e-9, atol=1e-12)
    assert np.max(np.abs(resid[0])) < 1e-12


@settings(deadline=None, max_examples=30)
@given(
    st.floats(1.52, 1.7) | st.floats(0.3, 0.48), st.floats(0.7, 1.3), st.floats(3.0, 15.0),
    st.booleans(), st.integers(0, 2**31 - 1),
)
def test_long_fit_fails_outside_the_level_band(
    outside, inside, tau_us, outside_is_settled, noise_seed
):
    # One true level lies outside LONG_LEVEL_BAND, so the projected levels
    # leave it: the fit fails naming both levels and the band.
    settled, initial = (outside, inside) if outside_is_settled else (inside, outside)
    t_ns = np.linspace(500.0, 60000.0, 40)
    rng = np.random.default_rng(noise_seed)
    y = (initial - settled) * np.exp(-t_ns / 1000.0 / tau_us) + settled
    y += rng.normal(0, 1e-4, t_ns.size)
    run = CalibrationRun(delays_ns=t_ns, compensation=0.3 * (1.0 - y), v_step=0.3, regime="long")
    t_us, y_run = t_ns / 1000.0, 1.0 - run.compensation / run.v_step
    span_us = run.span_ns / 1000.0
    step, b, _ = fitting._fit_exp_offset(
        t_us, y_run, span_us / 3.0, np.min(np.diff(t_us)), 10.0 * span_us
    )
    lo, hi = LONG_LEVEL_BAND
    assert not (lo < b < hi and lo < step + b < hi)
    with pytest.raises(FitFailedError, match="plausibility band") as info:
        fit_long_time(run, rms_threshold=1.0)
    message = str(info.value)
    assert f"settled {b:.6g} and initial {step + b:.6g}" in message
    assert str(LONG_LEVEL_BAND) in message


def test_long_fit_inside_the_band_needs_no_bounded_fit():
    resp = CombinedResponse(short=None, long=LongTimeModel(*PLANAR_LONG), v_step=0.25)
    run = synthesize_calibration_run(resp, np.linspace(4000.0, 70000.0, 40), "long")
    model, diag = fit_long_time(run, full_output=True)
    assert diag.n_dropped_starts == 0
    np.testing.assert_allclose([model.settled, model.initial, model.tau_us], PLANAR_LONG, rtol=1e-9)


def make_anticrossing(g_ghz, k_eff, b_eff, k_c, b_c, n=15):
    z = np.linspace(0.2, 0.4, n)
    f_q = k_eff * z + b_eff
    f_c = k_c * z + b_c
    mean = 0.5 * (f_q + f_c)
    split = np.hypot(f_c - f_q, 2.0 * g_ghz)
    return AnticrossingData(
        zpa=np.concatenate([z, z]),
        freq_ghz=np.concatenate([mean - split / 2.0, mean + split / 2.0]),
        branch=tuple(["lower"] * n + ["upper"] * n),
    )


def test_anticrossing_fit_recovers_lines_and_coupling():
    data = make_anticrossing(0.0789, k_eff=0.15, b_eff=4.578, k_c=-5.0, b_c=6.123)
    fit = fit_anticrossing(data, k_q=4.0)
    assert fit.g_qc_mhz == pytest.approx(78.9, abs=1e-9)
    assert fit.coupler_slope_ghz == pytest.approx(-5.0, rel=1e-9)
    assert fit.coupler_intercept_ghz == pytest.approx(6.123, rel=1e-9)
    assert fit.crosstalk.coeff_zxtalk == pytest.approx(0.0375, rel=1e-9)
    assert fit.crosstalk.k_eff == pytest.approx(0.15, rel=1e-9)


def test_anticrossing_fit_rising_coupler_geometry():
    data = make_anticrossing(0.05, k_eff=0.1, b_eff=4.5, k_c=6.0, b_c=2.85)
    fit = fit_anticrossing(data, k_q=4.0)
    assert fit.g_qc_mhz == pytest.approx(50.0, abs=1e-6)
    assert fit.coupler_slope_ghz == pytest.approx(6.0, rel=1e-6)


def test_anticrossing_zero_coupling_fails():
    # branches collapse onto the bare crossing lines: no constant product
    data = make_anticrossing(0.0, k_eff=0.15, b_eff=4.578, k_c=-5.0, b_c=6.123)
    with pytest.raises(FitFailedError):
        fit_anticrossing(data, k_q=4.0)


def test_anticrossing_requires_nonzero_qubit_slope():
    data = make_anticrossing(0.0789, k_eff=0.15, b_eff=4.578, k_c=-5.0, b_c=6.123)
    with pytest.raises(InvalidArgumentError):
        fit_anticrossing(data, k_q=0.0)


def test_anticrossing_data_needs_both_branches():
    z = np.linspace(0.2, 0.4, 16)
    with pytest.raises(InvalidArgumentError):
        AnticrossingData(zpa=z, freq_ghz=4.5 + z, branch=tuple(["lower"] * 16))


def test_crosstalk_model_sanity_band():
    with pytest.raises(InvalidArgumentError):
        CrosstalkModel(k_q=4.0, k_eff=0.6, b_eff=4.5, coeff_zxtalk=0.15)


def test_synthesize_noise_is_seed_deterministic():
    resp = short_channel(FLIPCHIP_AMPLITUDES, FLIPCHIP_TAUS, v_step=0.3)
    t = np.geomspace(2.0, 2000.0, 25)
    a = synthesize_calibration_run(resp, t, "short", noise_sigma=0.01, rng=np.random.default_rng(5))
    b = synthesize_calibration_run(resp, t, "short", noise_sigma=0.01, rng=np.random.default_rng(5))
    np.testing.assert_array_equal(a.compensation, b.compensation)
    clean = synthesize_calibration_run(resp, t, "short")
    assert np.max(np.abs(a.compensation - clean.compensation)) > 0.0


def test_calibration_csv_roundtrip(tmp_path):
    resp = short_channel(FLIPCHIP_AMPLITUDES, FLIPCHIP_TAUS, v_step=0.3)
    run = synthesize_calibration_run(resp, np.geomspace(2.0, 2000.0, 25), "short")
    path = tmp_path / "run.csv"
    write_calibration_csv(path, run)
    back = read_calibration_csv(path, v_step=0.3, regime="short")
    np.testing.assert_array_equal(back.delays_ns, run.delays_ns)
    np.testing.assert_array_equal(back.compensation, run.compensation)


def test_calibration_csv_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("t_ns,v_oft\n")
    with pytest.raises(ValueError, match="need at least two rows"):
        read_calibration_csv(empty, v_step=1.0, regime="short")
    bad = tmp_path / "bad.csv"
    bad.write_text("delay,comp\n1,0\n2,0\n")
    with pytest.raises(ValueError, match="expected header 't_ns,v_oft'"):
        read_calibration_csv(bad, v_step=1.0, regime="short")


# k_eff up to 0.36 keeps the crosstalk k_eff / k_q (k_q = 4) at 0.09 or less,
# clear of the CrosstalkModel sanity bound 0.1 that round-off could cross.
@settings(deadline=None, max_examples=30)
@given(
    st.floats(0.03, 0.1), st.floats(0.0, 0.36), st.floats(4.4, 5.0), st.floats(4.0, 6.0),
    st.floats(0.27, 0.33), st.booleans(), st.integers(0, 2**31 - 1),
)
def test_anticrossing_jacobian_against_central_differences(
    g_ghz, k_eff, b_eff, k_c, z_cross, rising, seed
):
    # The stacked model the search runs on, at both branch-geometry starts
    # and at points moved off them, against central differences of its
    # residuals.
    k_c = k_c if rising else -k_c
    data = make_anticrossing(g_ghz, k_eff, b_eff, k_c, (k_eff - k_c) * z_cross + b_eff)
    starts = np.array(fitting._branch_line_inits(data))
    rng = np.random.default_rng(seed)
    theta = np.vstack([starts, starts + rng.normal(0.0, 0.05, starts.shape)])
    _, jac = fitting._branch_products(data.zpa, data.freq_ghz, theta)
    h = 1e-6
    fd = np.stack([
        (fitting._branch_products(data.zpa, data.freq_ghz, theta + h * e)[0]
         - fitting._branch_products(data.zpa, data.freq_ghz, theta - h * e)[0]) / (2 * h)
        for e in np.eye(4)
    ], axis=2)
    assert jac.shape == fd.shape == (4, data.zpa.size, 4)
    for k in range(len(theta)):
        np.testing.assert_allclose(jac[k], fd[k], rtol=0, atol=1e-6 * np.max(np.abs(fd[k])))
