import csv
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxcal import analysis, fitting
from fluxcal.analysis import (
    MAX_SEQUENCE_LENGTH,
    DecayFit,
    FidelityEstimate,
    fit_decay,
    rb_fidelity,
    read_decay_csv,
    write_decay_csv,
    xeb_fidelity,
    xeb_parallel_combine,
)
from fluxcal.errors import DegenerateFitError, InvalidArgumentError


def test_decay_fit_invariants():
    with pytest.raises(InvalidArgumentError):
        DecayFit(amplitude=0.75, p=0.0, offset=0.25, sigma_p=0.0)
    with pytest.raises(InvalidArgumentError):
        DecayFit(amplitude=0.75, p=1.2, offset=0.25, sigma_p=0.0)
    with pytest.raises(InvalidArgumentError):
        DecayFit(amplitude=0.75, p=0.9, offset=0.25, sigma_p=-1.0)


def test_fidelity_estimate_invariants():
    with pytest.raises(InvalidArgumentError):
        FidelityEstimate(fidelity=1.2, sigma=0.0, scheme="rb", dimension=4)
    with pytest.raises(InvalidArgumentError):
        FidelityEstimate(fidelity=0.9, sigma=0.0, scheme="irb", dimension=4)
    with pytest.raises(InvalidArgumentError):
        FidelityEstimate(fidelity=0.9, sigma=0.0, scheme="rb", dimension=1)


def test_fit_decay_noiseless_recovery():
    n = np.arange(0, 300, 15)
    fit = fit_decay(n, 0.75 * 0.99**n + 0.25)
    assert fit.p == pytest.approx(0.99, abs=1e-6)
    assert fit.amplitude == pytest.approx(0.75, abs=1e-6)
    assert fit.offset == pytest.approx(0.25, abs=1e-6)


@pytest.mark.parametrize("scale", [1e2, 1e4, 1e6, 1e7, 1e8])
def test_fit_decay_recovers_decays_on_long_length_scales(scale):
    # Lengths up to four decay constants of p = exp(-1 / scale): the start
    # comes from the lengths' own scale, so the design is not all zero
    # past n = 0 and p is not stuck at a clipped start.
    n = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0]) * scale / 4.0
    p = np.exp(-1.0 / scale)
    fit = fit_decay(n, 0.7 * p**n + 0.25)
    assert (1.0 - fit.p) == pytest.approx(1.0 - p, rel=1e-6)
    assert fit.amplitude == pytest.approx(0.7, abs=1e-9)
    assert fit.offset == pytest.approx(0.25, abs=1e-9)


@settings(deadline=None, max_examples=60)
@given(st.floats(0.9, 0.999), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(8, 20))
def test_fit_decay_recovers_random_noiseless_decays(p, start, end, n_lengths):
    # Levels F(0) = A + B and B anywhere in [0, 1], at least 0.05 apart;
    # lengths from 0 to about three decay constants.
    amplitude, offset = start - end, end
    if abs(amplitude) < 0.05:
        amplitude = 0.05 if offset <= 0.5 else -0.05
    n = np.unique(np.round(np.geomspace(1.0, 3.0 / (1.0 - p), n_lengths)))
    n = np.concatenate([[0.0], n])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = fit_decay(n, amplitude * p**n + offset)
    np.testing.assert_allclose([fit.amplitude, fit.p, fit.offset], [amplitude, p, offset],
                               rtol=0, atol=1e-6)


@pytest.mark.filterwarnings("ignore:decay amplitude:RuntimeWarning")
@settings(deadline=None, max_examples=40)
@given(
    st.floats(0.4, 0.75), st.floats(0.95, 0.995), st.floats(0.2, 0.5),
    st.integers(0, 2**31 - 1), st.permutations(range(15)),
)
def test_fit_decay_does_not_depend_on_row_order(amplitude, p, offset, noise_seed, order):
    # One length is measured twice, with different fidelities.  The fit
    # orders the rows by length, then fidelity, so the results are equal.
    n = np.array([1, 2, 4, 8, 12, 16, 16, 24, 32, 48, 64, 96, 128, 192, 256], dtype=float)
    rng = np.random.default_rng(noise_seed)
    f = np.clip(amplitude * p**n + offset + rng.normal(0.0, 0.003, n.size), 0.0, 1.0)
    assert fit_decay(n[list(order)], f[list(order)]) == fit_decay(n, f)


# Three sets of lengths; the last measures 16 twice.
LENGTH_SETS = (
    (1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256),
    tuple(range(0, 400, 20)),
    (1, 2, 4, 8, 12, 16, 16, 24, 32, 48, 64, 96, 128, 192, 256),
)


@pytest.mark.filterwarnings("ignore:decay amplitude:RuntimeWarning")
@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(0, len(LENGTH_SETS) - 1), st.floats(0.95, 0.995),
                  st.floats(0.4, 0.75), st.floats(0.2, 0.5)),
        min_size=1, max_size=4,
    ),
    st.integers(0, 2**31 - 1),
)
def test_fit_decays_is_fit_decay_on_each_curve(curves, seed):
    # The curves that share their sorted lengths are fitted in one stacked
    # search, each on its own steps, so each result is the one of its curve
    # fitted alone, bit for bit.  The rows of each curve come in their own
    # order, so curves of one set of lengths still share it once sorted.
    rng = np.random.default_rng(seed)
    data = []
    for which, p, amplitude, offset in curves:
        n = rng.permutation(np.array(LENGTH_SETS[which], dtype=float))
        f = np.clip(amplitude * p**n + offset + rng.normal(0.0, 0.003, n.size), 0.0, 1.0)
        data.append((n, f))
    fits = analysis.fit_decays(data)
    assert [repr(fit) for fit in fits] == [repr(fit_decay(n, f)) for n, f in data]


def test_fit_decays_checks_every_curve_before_fitting(monkeypatch):
    # The first curve in order that fails is the one raised, with its
    # index; a rule is checked on every curve before any is fitted.
    n = np.arange(0, 300, 15, dtype=float)
    good = (n, 0.75 * 0.99**n + 0.25)
    constant = (n, np.full(n.size, 0.5))
    above_one = (n, 0.75 * 0.99**n + 0.5)
    searches = []
    monkeypatch.setattr(fitting, "_search", lambda *args, **kwargs: searches.append(args))
    with pytest.raises(DegenerateFitError, match="constant fidelities") as info:
        analysis.fit_decays([good, constant, above_one])
    assert info.value.curve == 1
    with pytest.raises(InvalidArgumentError, match="must lie in") as info:
        analysis.fit_decays([good, above_one, constant])
    assert info.value.curve == 1 and not searches


def test_fit_decay_sigma_follows_the_covariance_rule():
    # sigma_p is sqrt of the (p, p) entry of SSR / (m - 3) (J^T J)^-1 for
    # the analytic Jacobian [p^n, A n p^(n-1), 1] at the fitted values.
    n = np.arange(0, 400, 20, dtype=float)
    rng = np.random.default_rng(3)
    f = np.clip(0.72 * 0.991**n + 0.26 + rng.normal(0.0, 0.01, n.size), 0.0, 1.0)
    fit = fit_decay(n, f)
    jac = np.column_stack([fit.p**n, fit.amplitude * n * fit.p ** (n - 1), np.ones_like(n)])
    resid = fit.amplitude * fit.p**n + fit.offset - f
    cov = np.linalg.inv(jac.T @ jac) * (resid @ resid) / (n.size - 3)
    assert fit.sigma_p == pytest.approx(np.sqrt(cov[1, 1]), rel=1e-9)


def test_fit_decay_calls_no_optimizer():
    # The decay fit runs the fits' own search; neither module holds a scipy
    # optimizer (the CLI import-set test checks that none is loaded).
    assert not hasattr(analysis, "curve_fit") and not hasattr(fitting, "least_squares")
    n = np.arange(0, 300, 15)
    assert fit_decay(n, 0.75 * 0.99**n + 0.25).p == pytest.approx(0.99, abs=1e-9)


def test_fit_decay_input_validation():
    n = np.arange(0, 300, 15)
    f = 0.75 * 0.99**n + 0.25
    with pytest.raises(InvalidArgumentError):
        fit_decay(n[:4], f[:4])  # fewer than 5 distinct lengths
    with pytest.raises(InvalidArgumentError):
        fit_decay(n, f + 0.5)  # fidelities above 1
    with pytest.raises(InvalidArgumentError):
        fit_decay(n, np.full(n.size, np.nan))
    with pytest.raises(DegenerateFitError):
        fit_decay(n, np.full(n.size, 0.5))


def test_fit_decay_warns_on_levels_outside_unit_interval():
    # Both entry points warn at their caller's line.
    n = np.arange(0, 29, 2)
    f = 1.05 * 0.9**n - 0.05
    assert np.all((0.0 <= f) & (f <= 1.0))
    with pytest.warns(RuntimeWarning) as record:
        fit = fit_decay(n, f)
    assert fit.amplitude == pytest.approx(1.05, abs=1e-6)
    assert fit.offset == pytest.approx(-0.05, abs=1e-6)
    with pytest.warns(RuntimeWarning) as stacked:
        assert analysis.fit_decays([(n, f)]) == [fit]
    assert [w.filename for w in (*record, *stacked)] == [__file__] * 2


def test_fit_decay_sigma_calibration_monte_carlo():
    # With Gaussian noise of sigma 0.01 the fitted p should land within
    # 3 sigma_p of the truth in at least 95% of seeds.
    n = np.arange(0, 400, 20)
    truth = 0.72 * 0.991**n + 0.26
    hits = 0
    n_seeds = 60
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        noisy = np.clip(truth + rng.normal(0.0, 0.01, n.size), 0.0, 1.0)
        fit = fit_decay(n, noisy)
        if abs(fit.p - 0.991) <= 3.0 * fit.sigma_p:
            hits += 1
    assert hits >= int(0.95 * n_seeds)


def test_rb_fidelity_hand_evaluation():
    gate = DecayFit(0.75, 0.99, 0.25, 0.001)
    ref = DecayFit(0.75, 0.995, 0.25, 0.0005)
    est = rb_fidelity(gate, ref, dimension=4)
    assert est.fidelity == pytest.approx(0.9962311557788944, abs=1e-15)
    assert est.scheme == "rb" and est.dimension == 4


def test_rb_identity_gate_gives_unit_fidelity():
    ref = DecayFit(0.75, 0.995, 0.25, 0.0005)
    est = rb_fidelity(ref, ref)
    assert est.fidelity == 1.0
    assert est.sigma == pytest.approx(
        0.75 * np.hypot(0.0005 / 0.995, 0.0005 / 0.995), rel=1e-12
    )


def finite_difference_sigma(func, p_values, sigmas, h=1e-7):
    grads = []
    for i in range(len(p_values)):
        hi = list(p_values)
        lo = list(p_values)
        hi[i] += h
        lo[i] -= h
        grads.append((func(*hi) - func(*lo)) / (2 * h))
    return float(np.hypot(*[g * s for g, s in zip(grads, sigmas)]))


@pytest.mark.parametrize("dimension", [2, 4, 16])
def test_rb_sigma_matches_finite_differences(dimension):
    gate = DecayFit(0.75, 0.987, 0.25, 0.0012)
    ref = DecayFit(0.75, 0.9953, 0.25, 0.0007)

    def value(pg, pr):
        return 1.0 - (1.0 - pg / pr) * (dimension - 1) / dimension

    expected = finite_difference_sigma(value, (gate.p, ref.p), (gate.sigma_p, ref.sigma_p))
    est = rb_fidelity(gate, ref, dimension=dimension)
    assert est.sigma == pytest.approx(expected, abs=1e-8)


def test_xeb_combine_reductions():
    perfect = DecayFit(1.0, 1.0, 0.0, 0.0)
    assert xeb_parallel_combine(perfect, perfect).p == 1.0
    partial = DecayFit(1.0, 0.9, 0.0, 0.0)
    assert xeb_parallel_combine(perfect, partial).p == pytest.approx((1 + 4 * 0.9) / 5, abs=1e-15)


def test_xeb_combine_sigma_matches_finite_differences():
    q1 = DecayFit(0.45, 0.9981, 0.52, 2.1e-4)
    q2 = DecayFit(0.44, 0.9972, 0.52, 1.7e-4)

    def value(p1, p2):
        return (p1 + p2 + 3 * p1 * p2) / 5

    expected = finite_difference_sigma(value, (q1.p, q2.p), (q1.sigma_p, q2.sigma_p))
    combined = xeb_parallel_combine(q1, q2)
    assert combined.p == pytest.approx(value(q1.p, q2.p), abs=1e-15)
    assert combined.sigma_p == pytest.approx(expected, abs=1e-8)


def test_xeb_fidelity_reproduces_headline_value():
    reference = DecayFit(1.0, 0.9960036, 0.0, 0.0)
    gate = DecayFit(1.0, reference.p * (1.0 - 0.0039 / 0.75), 0.0, 0.0)
    est = xeb_fidelity(gate, reference, dimension=4)
    assert est.fidelity == pytest.approx(0.9961, abs=1e-12)


def test_fidelity_monotonicity():
    ref = DecayFit(0.75, 0.995, 0.25, 0.0)
    gates = [DecayFit(0.75, p, 0.25, 0.0) for p in (0.97, 0.98, 0.99)]
    values = [rb_fidelity(g, ref).fidelity for g in gates]
    assert values[0] < values[1] < values[2]
    refs = [DecayFit(0.75, p, 0.25, 0.0) for p in (0.993, 0.995, 0.997)]
    values = [rb_fidelity(DecayFit(0.75, 0.99, 0.25, 0.0), r).fidelity for r in refs]
    assert values[0] > values[1] > values[2]


def test_dimension_factor_wiring():
    gate = DecayFit(0.75, 0.99, 0.25, 0.0)
    ref = DecayFit(0.75, 0.995, 0.25, 0.0)
    err4 = 1.0 - rb_fidelity(gate, ref, dimension=4).fidelity
    err2 = 1.0 - rb_fidelity(gate, ref, dimension=2).fidelity
    assert err2 / err4 == pytest.approx(0.5 / 0.75, rel=1e-12)
    big = rb_fidelity(gate, ref, dimension=10**6)
    assert big.fidelity == pytest.approx(gate.p / ref.p, abs=1e-5)


def test_decay_csv_roundtrip(tmp_path):
    n = np.arange(0, 100, 5)
    f = 0.7 * 0.98**n + 0.28
    path = tmp_path / "decay.csv"
    write_decay_csv(path, n, f)
    n_back, f_back = read_decay_csv(path)
    np.testing.assert_array_equal(n_back, n)
    np.testing.assert_array_equal(f_back, f)


@pytest.mark.parametrize(
    "lengths, shown",
    [([1, 2.7, 4], "2.7"), ([1, float("nan"), 4], "nan"), ([1, 2, float("-inf")], "-inf"),
     ([1, 2, 1e300], "1e+300")],
)
def test_write_decay_csv_rejects_lengths_that_are_not_whole(tmp_path, lengths, shown):
    # Neither cut to an integer (2.7 -> 2) nor cast to garbage (nan, inf,
    # 1e300): no file is written.  Whole floats are written as integers.
    path = tmp_path / "decay.csv"
    message = f"lengths must be finite whole numbers, got {shown}"
    with pytest.raises(InvalidArgumentError, match=message.replace("+", r"\+")):
        write_decay_csv(path, lengths, [0.9, 0.8, 0.7])
    assert not path.exists()
    write_decay_csv(path, [1.0, 2.0, -0.0], [0.9, 0.8, 0.7])
    assert path.read_bytes() == (
        b"n,fidelity\r\n1,0.90000000000000002\r\n2,0.80000000000000004\r\n0,0.69999999999999996\r\n"
    )


def test_write_decay_csv_refuses_lengths_and_fidelities_of_unequal_counts(tmp_path):
    # Not cut to the shorter column: no file is written.
    path = tmp_path / "decay.csv"
    with pytest.raises(InvalidArgumentError, match=r"columns must have equal lengths, got \[6, 2\]"):
        write_decay_csv(path, [1, 2, 3, 4, 5, 6], [0.9, 0.8])
    assert not path.exists()


lengths_in_range = st.lists(st.integers(0, MAX_SEQUENCE_LENGTH), min_size=1, max_size=20)


@settings(deadline=None)
@given(lengths_in_range, st.sampled_from(["int64", "float", "minus_zero"]), st.data())
def test_write_decay_csv_writes_lengths_as_csv_writer_writes_integers(lengths, kind, data):
    # Whole lengths, as int64 or as floats with or without -0.0, take the
    # float kernel: the bytes are csv.writer's of str(int(n)), -0.0 is
    # written as 0, and the reader returns the exact values.
    if kind == "minus_zero":
        lengths = [0, *lengths]
    size = len(lengths)
    fidelities = data.draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    n = np.array(lengths, dtype=np.int64 if kind == "int64" else float)
    if kind == "minus_zero":
        n[n == 0] = -0.0
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "theirs.csv"
        write_decay_csv(ours, n, fidelities)
        with open(theirs, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "fidelity"])
            writer.writerows((str(int(k)), f"{f:.17g}") for k, f in zip(n.tolist(), fidelities))
        assert ours.read_bytes() == theirs.read_bytes()
        n_back, f_back = read_decay_csv(ours)
    assert [repr(k) for k in n_back.tolist()] == [repr(float(k)) for k in lengths]
    assert f_back.tolist() == fidelities


def bad_lengths(dtype):
    """Values of ``dtype`` outside fit_decay's rule, integers from 0 to
    MAX_SEQUENCE_LENGTH: negative or too long, and for a float dtype also
    fractional, nan or inf."""
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        above = st.integers(MAX_SEQUENCE_LENGTH + 1, int(info.max))
        return st.integers(int(info.min), -1) | above if info.min < 0 else above
    return st.floats(width=np.finfo(dtype).bits).filter(
        lambda x: not (0 <= x <= MAX_SEQUENCE_LENGTH and x == int(x))
    )


@settings(deadline=None)
@given(
    lengths_in_range,
    st.sampled_from([np.int64, np.int32, np.uint64, np.float64, np.float32]),
    st.data(),
)
def test_write_decay_csv_rejects_lengths_outside_the_fit_rule(lengths, dtype, data):
    # Every dtype, integer arrays included, is checked before any file is
    # written.
    bad = data.draw(bad_lengths(dtype))
    position = data.draw(st.integers(0, len(lengths)))
    n = np.array([*lengths[:position], bad, *lengths[position:]], dtype=dtype)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "decay.csv"
        with pytest.raises(InvalidArgumentError, match="lengths must be finite whole numbers"):
            write_decay_csv(path, n, np.full(n.size, 0.5))
        assert not path.exists()


def test_decay_csv_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("depth,F\n1,0.9\n")
    with pytest.raises(ValueError, match="expected header 'n,fidelity'"):
        read_decay_csv(path)
