"""Parameter extraction from calibration measurements.

Covers the three fits the calibration workflow needs:

* multi-exponential fits of short-time compensation sweeps, a
  variable-projection search over log time constants from a fixed grid of
  starts (no random draws, so a fit depends on its data alone) that run as
  one batched Levenberg-Marquardt iteration;
* single-exponential fits of long-time (microsecond) settling sweeps, the
  same search from one start with a constant column in the design;
* anti-crossing fits that extract the qubit-coupler coupling strength and
  the Z-line crosstalk coefficient from branch-resolved spectroscopy, the
  same search over two branch lines from two starts.

One search, ``_search``, fits them all: a stacked Levenberg-Marquardt
iteration over any model that returns the residuals and Jacobians of a
stack of points, which holds a coordinate on a bound whose descent points
out of the box.  No other optimizer is called.

Compensation data convention: a run stores the offset V(t) that maximizes
the excited-state population at each delay.  The underlying distortion is
-V(t)/v_step, and the measured normalized step response is 1 - V(t)/v_step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    DegenerateFitError,
    DegenerateFitWarning,
    FitFailedError,
    InvalidArgumentError,
)
from .models import LONG_LEVEL_BAND, MAX_SHORT_TERMS, LongTimeModel, ShortTimeModel
from .serialize import _usage_error, read_csv_table, write_csv_table
from .signal import _as_readonly

REGIMES = ("short", "long")

# Two time constants closer than this (relative) cannot be distinguished.
TAU_COLLAPSE_REL = 0.05

MIN_POINTS_PER_BRANCH = 8

# Largest standard deviation of the anti-crossing branch product, relative
# to its mean, for which the two branches count as separated.
BRANCH_PRODUCT_SPREAD = 0.5


@dataclass(frozen=True)
class CalibrationRun:
    """Compensation-versus-delay data from one calibration sweep."""

    delays_ns: np.ndarray
    compensation: np.ndarray
    v_step: float
    regime: str

    def __post_init__(self):
        d = _as_readonly(self.delays_ns, "delays_ns")
        c = _as_readonly(self.compensation, "compensation")
        object.__setattr__(self, "delays_ns", d)
        object.__setattr__(self, "compensation", c)
        if d.size < 2 or c.shape != d.shape:
            raise InvalidArgumentError("need matching 1-D delay and compensation arrays, >= 2 points")
        if d[0] < 0 or np.any(np.diff(d) <= 0):
            raise InvalidArgumentError("delays must be >= 0 and strictly increasing")
        if self.v_step == 0 or not np.isfinite(self.v_step):
            raise InvalidArgumentError("v_step must be finite and nonzero")
        if self.regime not in REGIMES:
            raise InvalidArgumentError(f"regime must be one of {REGIMES}, got {self.regime!r}")

    @property
    def span_ns(self) -> float:
        return float(self.delays_ns[-1] - self.delays_ns[0])


@dataclass(frozen=True)
class AnticrossingData:
    """Branch-resolved spectroscopy near a qubit-coupler anti-crossing.

    ``branch`` holds "lower" or "upper" per point; both branches need at
    least eight points for the product fit to be stable.
    """

    zpa: np.ndarray
    freq_ghz: np.ndarray
    branch: tuple[str, ...]

    def __post_init__(self):
        z = _as_readonly(self.zpa, "zpa")
        f = _as_readonly(self.freq_ghz, "freq_ghz")
        object.__setattr__(self, "zpa", z)
        object.__setattr__(self, "freq_ghz", f)
        object.__setattr__(self, "branch", tuple(self.branch))
        if f.shape != z.shape or len(self.branch) != z.size:
            raise InvalidArgumentError("zpa, freq_ghz and branch must have matching lengths")
        for name in self.branch:
            if name not in ("lower", "upper"):
                raise InvalidArgumentError(f"branch labels must be 'lower'/'upper', got {name!r}")
        for name in ("lower", "upper"):
            count = sum(1 for b in self.branch if b == name)
            if count < MIN_POINTS_PER_BRANCH:
                raise InvalidArgumentError(
                    f"{name} branch has {count} points, need >= {MIN_POINTS_PER_BRANCH}"
                )

    def branch_mask(self, name: str) -> np.ndarray:
        return np.array([b == name for b in self.branch])


@dataclass(frozen=True)
class CrosstalkModel:
    """Linear Z-crosstalk description: the qubit frequency responds to the
    coupler zpa as k_eff * zpa + b_eff, where k_eff = k_q * coeff_zxtalk."""

    k_q: float
    k_eff: float
    b_eff: float
    coeff_zxtalk: float

    def __post_init__(self):
        if not abs(self.coeff_zxtalk) <= 0.1:
            raise InvalidArgumentError(
                f"crosstalk coefficient {self.coeff_zxtalk} outside the sanity range [-0.1, 0.1]"
            )


@dataclass(frozen=True)
class AnticrossingFit:
    """Result of the constant-product anti-crossing fit."""

    g_qc_mhz: float
    coupler_slope_ghz: float
    coupler_intercept_ghz: float
    crosstalk: CrosstalkModel
    residual_std: float  # GHz^2, std of the branch product at the optimum


@dataclass(frozen=True)
class FitDiagnostics:
    """Bookkeeping from an iterative fit."""

    residual_rms: float
    n_starts: int
    degenerate: bool = False
    messages: tuple[str, ...] = field(default_factory=tuple)
    # Short-time fit only: starts dropped because their search ended with
    # amplitudes outside [-0.5, 0.5].
    n_dropped_starts: int = 0


def _exp_design_matrix(t: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Columns exp(-t / tau_k); a stack of time-constant sets (..., n)
    gives a stack of designs (..., m, n)."""
    return np.exp(-t[:, None] / taus[..., None, :])


def _rms(t, y, p, taus) -> float:
    return float(np.sqrt(np.mean((_exp_design_matrix(t, taus) @ p - y) ** 2)))


def _projection(t: np.ndarray, y: np.ndarray, u: np.ndarray, offset: bool = False):
    """Variable projection of ``y`` onto the exponential design at each row
    of a stack ``u`` (S, n) of log time constants, as (residual (S, m),
    Jacobian (S, m, n), amplitudes (S, n), or (S, n + 1) with ``offset``).

    The residual is y minus its least-squares projection Q Q^T y onto the
    columns exp(-t / tau_k), plus a column of ones with ``offset``, where Q
    holds the left singular vectors of the design above the rank tolerance:
    a collapsed pair of time constants projects onto one direction, not
    onto a round-off one.  The amplitudes are the minimum-norm
    least-squares solution, the constant last.  The Jacobian is Kaufman's
    -(I - Q Q^T) (dE/du . p) over the exponential columns, which omits the
    term proportional to the residual.  Each row is computed on its own,
    from one stacked SVD.
    """
    taus = np.exp(u)
    exps = _exp_design_matrix(t, taus)
    design = np.concatenate([exps, np.ones_like(exps[..., :1])], axis=-1) if offset else exps
    left, sv, right = np.linalg.svd(design, full_matrices=False)
    keep = sv > sv[:, :1] * t.size * np.finfo(float).eps
    q = left * keep[:, None, :]
    qt = np.swapaxes(q, 1, 2)
    qty = qt @ y[:, None]
    inv_sv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)
    p = (np.swapaxes(right, 1, 2) @ (qty * inv_sv[..., None]))[..., 0]
    resid = y - (q @ qty)[..., 0]
    dp = exps * (t[:, None] * (p[:, : u.shape[1]] / taus)[:, None, :])
    return resid, q @ (qt @ dp) - dp, p


# The batched Levenberg-Marquardt search: Marquardt's damping factor, its
# range and its change per step, the iteration cap, MINPACK's customary
# ftol and xtol as the stopping tolerance, and the tolerance at which the
# short fit continues its best start.
_LAMBDA_START = 1e-3
_LAMBDA_MIN = 1e-12
_LAMBDA_MAX = 1e16
_LAMBDA_STEP = 10.0
_SEARCH_MAX_ITER = 200
_SEARCH_TOL = 1e-8
_FINAL_TOL = 1e-12


def _search(model, x0, lo: float = -np.inf, hi: float = np.inf, tol: float = _SEARCH_TOL):
    """Levenberg-Marquardt search of ``model`` from every row of ``x0``
    (S, n) at once, within [lo, hi]; returns the end points (S, n).
    ``model`` maps a stack of points (S, n) to their residuals (S, m) and
    Jacobians (S, m, n).

    Each start takes damped Gauss-Newton steps (J^T J + lambda diag(J^T J))
    d = -J^T r (Levenberg 1944, Marquardt 1963), clipped into the bounds,
    and accepts a step only if it lowers its cost, so no start ends above
    its initial cost.  A coordinate on a bound whose descent direction
    -J^T r points out of the box is held for the step, as in TRF: its row
    and column of the system are those of the identity and its right-hand
    side is 0, so the other coordinates take the step of the problem
    without it, not a step that the clip bends.  lambda falls tenfold
    after an accepted step and rises tenfold after a rejected one; the
    system is solved in the Jacobi-scaled form, whose unit diagonal plus
    lambda >= 1e-12 keeps it nonsingular.  A start stops when an accepted
    step lowers its cost by at most ``tol`` of it, when a step moves it by
    at most tol (tol + |x|), or when lambda passes 1e16, where the step no
    longer depends on J^T J.  A start whose system is not finite (data near
    the end of the double range) takes a zero step, so it stops where it
    is.  Every row follows its own steps: the stack only shares the calls,
    and stopped rows leave it.
    """
    u = np.array(x0, dtype=float)
    live = np.arange(len(u))
    x = u.copy()
    r, jac = model(x)
    cost = 0.5 * np.sum(r * r, axis=1)
    lam = np.full(len(x), _LAMBDA_START)
    eye = np.eye(u.shape[1])
    for _ in range(_SEARCH_MAX_ITER):
        jt = np.swapaxes(jac, 1, 2)
        jtj = jt @ jac
        d = np.sqrt(np.diagonal(jtj, axis1=1, axis2=2))
        d = np.where(d > 0.0, d, 1.0)
        scaled = jtj / d[:, :, None] / d[:, None, :] + lam[:, None, None] * eye
        rhs = -(jt @ r[..., None]) / d[..., None]
        held = ((x <= lo) & (rhs[..., 0] < 0.0)) | ((x >= hi) & (rhs[..., 0] > 0.0))
        scaled = np.where(held[:, :, None] | held[:, None, :], eye, scaled)
        rhs[held] = 0.0
        stuck = ~(np.isfinite(scaled).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=(1, 2)))
        scaled[stuck], rhs[stuck] = eye, 0.0
        z = np.linalg.solve(scaled, rhs)
        trial = np.clip(x + z[..., 0] / d, lo, hi)
        r_new, jac_new = model(trial)
        cost_new = 0.5 * np.sum(r_new * r_new, axis=1)
        better = cost_new < cost
        moved = np.linalg.norm(trial - x, axis=1)
        done = moved <= tol * (tol + np.linalg.norm(x, axis=1))
        done |= better & (cost - cost_new <= tol * cost)
        x[better], r[better], jac[better] = trial[better], r_new[better], jac_new[better]
        cost[better] = cost_new[better]
        lam = np.where(better, np.maximum(lam / _LAMBDA_STEP, _LAMBDA_MIN), lam * _LAMBDA_STEP)
        done |= lam > _LAMBDA_MAX
        u[live] = x
        go = ~done
        live, x, r, jac, cost, lam = live[go], x[go], r[go], jac[go], cost[go], lam[go]
        if not live.size:
            break
    return u


def _fit_exp_offset(t, y, tau0: float, tau_lo: float, tau_hi: float):
    """Least squares of a exp(-t / tau) + b: the variable-projection search
    over log tau in [tau_lo, tau_hi] from ``tau0``; returns (a, b, tau)."""
    u = _search(
        lambda u: _projection(t, y, u, offset=True)[:2],
        np.log([[tau0]]), np.log(tau_lo), np.log(tau_hi),
    )
    _, _, p = _projection(t, y, u, offset=True)
    return float(p[0, 0]), float(p[0, 1]), float(np.exp(u[0, 0]))


def fit_short_time(
    run: CalibrationRun,
    n_terms: int,
    rms_threshold: float = 0.05,
    full_output: bool = False,
):
    """Fit a sum of ``n_terms`` decaying exponentials to a short-time run.

    The target curve is -compensation / v_step.  It is linear in the
    amplitudes, so each start searches the time constants only: bounded
    least squares over u = log(tau) of the variable-projection residual,
    which solves the amplitudes linearly at every step (Golub & Pereyra
    1973), with Kaufman's Jacobian (1975).  The starts are every
    n_terms-subset of a fixed grid of log-spaced time constants from
    2 tau_lo to span / 2.  Multi-exponential fits are ill-conditioned
    (Istratov & Vyvenko 1999): searches from nearby starts can all end on
    one merged pair of time constants with large opposite amplitudes.  A
    grid over the whole run reaches the other minima and draws no random
    numbers, so the fit depends on its data alone.  All starts run
    together in one Levenberg-Marquardt search, each on its own steps,
    with time constants in [tau_lo, tau_hi].  A start whose search ends with an amplitude
    outside [-0.5, 0.5] is dropped; the search of the best of the rest
    continues at a tolerance of 1e-12, and the fit fails if its amplitudes
    then leave [-0.5, 0.5].  Time constants are reported ascending.

    ``n_starts`` in the diagnostics counts the starts and
    ``n_dropped_starts`` the dropped ones.

    Raises FitFailedError if every start is dropped, the best one's
    continued search leaves the amplitude bound, or the relative residual
    RMS exceeds ``rms_threshold``, and DegenerateFitError if two fitted time
    constants collapse within 5% of each other.
    """
    if run.regime != "short":
        raise InvalidArgumentError(f"expected a short-regime run, got {run.regime!r}")
    if not 1 <= n_terms <= MAX_SHORT_TERMS:
        raise InvalidArgumentError(f"n_terms must be 1..{MAX_SHORT_TERMS}, got {n_terms}")
    t = run.delays_ns
    y = -run.compensation / run.v_step
    if t.size < 2 * n_terms + 1:
        raise InvalidArgumentError(
            f"{t.size} points cannot constrain {n_terms} exponentials"
        )
    span = run.span_ns
    tau_lo = max(float(np.min(np.diff(t))), 1e-9 * span)
    tau_hi = 10.0 * span

    scale = float(np.max(np.abs(y)))
    if scale == 0.0:
        # Nothing to fit: zero amplitudes on distinct placeholder constants.
        taus = np.geomspace(10 * tau_lo, span, n_terms)
        model = ShortTimeModel.from_arrays(np.zeros(n_terms), taus)
        diag = FitDiagnostics(0.0, 1)
        return (model, diag) if full_output else model

    # Every n_terms-subset of max(6, n_terms + 2) log-spaced constants from
    # 2 tau_lo to span / 2 (6, 15, 20, 15, 21 and 28 starts at n = 1-6), or
    # to 4 tau_lo on runs so short that tau_lo nears span / (2 n_terms).
    size = max(6, n_terms + 2)
    grid = np.log(np.geomspace(2.0 * tau_lo, max(span / 2.0, 4.0 * tau_lo), size))
    starts = grid[np.array(list(combinations(range(size), n_terms)))]

    def projection(u):
        return _projection(t, y, u)[:2]

    u_lo, u_hi = np.log(tau_lo), np.log(tau_hi)
    u_end = _search(projection, starts, u_lo, u_hi)
    _, _, p_end = _projection(t, y, u_end)
    best = None
    n_dropped = 0
    for p, u in zip(p_end, u_end):
        if np.max(np.abs(p)) > 0.5:
            # The projection leaves the amplitudes unbounded: two merging
            # time constants with large opposite amplitudes mimic a
            # t exp(-t/tau) term.  Drop this start.
            n_dropped += 1
            continue
        cost = _rms(t, y, p, np.clip(np.exp(u), tau_lo, tau_hi))
        if best is None or cost < best[0]:
            best = (cost, u)
    if best is None:
        raise FitFailedError(
            f"every start ends outside the amplitude bound [-0.5, 0.5]; "
            f"lower n_terms (now {n_terms}) or check v_step"
        )

    u = _search(projection, best[1][None], u_lo, u_hi, tol=_FINAL_TOL)
    _, _, p = _projection(t, y, u)
    p, taus = p[0], np.clip(np.exp(u[0]), tau_lo, tau_hi)
    if np.max(np.abs(p)) > 0.5:
        raise FitFailedError(
            f"the best start's search leaves the amplitude bound [-0.5, 0.5]; "
            f"lower n_terms (now {n_terms}) or check v_step"
        )
    rms = _rms(t, y, p, taus)
    order = np.argsort(taus)
    p, taus = p[order], taus[order]
    for a, b in zip(taus, taus[1:]):
        if (b - a) / b < TAU_COLLAPSE_REL:
            raise DegenerateFitError(
                f"time constants {a:.4g} and {b:.4g} ns collapse within "
                f"{TAU_COLLAPSE_REL:.0%}; reduce n_terms"
            )
    if rms > rms_threshold * scale:
        raise FitFailedError(
            f"residual RMS {rms:.3g} exceeds {rms_threshold} x max|target| = "
            f"{rms_threshold * scale:.3g}"
        )
    model = ShortTimeModel.from_arrays(p, taus)
    diag = FitDiagnostics(rms, len(starts), n_dropped_starts=n_dropped)
    return (model, diag) if full_output else model


def fit_long_time(
    run: CalibrationRun,
    rms_threshold: float = 0.05,
    full_output: bool = False,
):
    """Fit the single-exponential settling model to a long-time run.

    The target curve is the measured normalized step response
    1 - compensation / v_step, with delays converted to microseconds.  It
    is a exp(-t / tau) + b, linear in a and b, so the variable-projection
    search adjusts log tau alone, within [tau_lo, 10 x span] from a third
    of the span, and reads settled = b and initial = a + b.  If either
    level leaves LONG_LEVEL_BAND, the data are mis-scaled or hold no
    settling of this form, and the fit fails.  Constant data yields a
    degenerate fit (settled = initial) and a DegenerateFitWarning, since
    the time constant is then meaningless.
    """
    if run.regime != "long":
        raise InvalidArgumentError(f"expected a long-regime run, got {run.regime!r}")
    t_us = run.delays_ns / 1000.0
    y = 1.0 - run.compensation / run.v_step
    span_us = float(t_us[-1] - t_us[0])
    lo, hi = LONG_LEVEL_BAND
    if np.ptp(y) < 1e-12 * max(1.0, float(np.max(np.abs(y)))):
        level = float(np.clip(np.mean(y), lo + 1e-9, hi - 1e-9))
        warnings.warn(
            "constant settling data: time constant is unidentifiable",
            DegenerateFitWarning,
            stacklevel=2,
        )
        model = LongTimeModel(settled=level, initial=level, tau_us=span_us / 3.0)
        diag = FitDiagnostics(0.0, 1, degenerate=True)
        return (model, diag) if full_output else model

    tau_lo = max(float(np.min(np.diff(t_us))), 1e-9 * span_us)
    tau_hi = 10.0 * span_us
    tau0 = float(np.clip(span_us / 3.0, tau_lo * 1.01, tau_hi * 0.99))
    step, settled, tau = _fit_exp_offset(t_us, y, tau0, tau_lo, tau_hi)
    initial = step + settled
    if not (lo < settled < hi and lo < initial < hi):
        raise FitFailedError(
            f"fitted levels settled {settled:.6g} and initial {initial:.6g} leave the "
            f"plausibility band {LONG_LEVEL_BAND}; check v_step and the run's scale"
        )
    rms = float(np.sqrt(np.mean(((initial - settled) * np.exp(-t_us / tau) + settled - y) ** 2)))
    scale = max(float(np.max(np.abs(y))), 1e-30)
    if rms > rms_threshold * scale:
        raise FitFailedError(
            f"residual RMS {rms:.3g} exceeds {rms_threshold} x max|target|"
        )
    messages = []
    if span_us < 3.0 * tau:
        messages.append(
            f"delay span {span_us:.3g} us is below 3 x fitted tau {tau:.3g} us; "
            "the settling constant is weakly constrained"
        )
        warnings.warn(messages[-1], DegenerateFitWarning, stacklevel=2)
    model = LongTimeModel(settled=settled, initial=initial, tau_us=tau)
    diag = FitDiagnostics(rms, 1, messages=tuple(messages))
    return (model, diag) if full_output else model


def _branch_line_inits(data: AnticrossingData):
    """Initial (qubit line, coupler line) guesses for the two possible
    branch geometries (coupler frequency falling or rising with zpa)."""
    z, f = data.zpa, data.freq_ghz
    lower = data.branch_mask("lower")
    upper = ~lower
    zmid = float(np.median(z))
    inits = []
    for falling in (True, False):
        if falling:
            qubit_sel = (lower & (z <= zmid)) | (upper & (z > zmid))
        else:
            qubit_sel = (lower & (z > zmid)) | (upper & (z <= zmid))
        coupler_sel = ~qubit_sel
        guesses = []
        for sel in (qubit_sel, coupler_sel):
            if np.count_nonzero(sel) >= 2 and np.ptp(z[sel]) > 0:
                guesses.append(np.polyfit(z[sel], f[sel], 1))
            else:
                guesses.append(np.array([0.0, float(np.median(f))]))
        inits.append(np.array([guesses[0][0], guesses[0][1], guesses[1][0], guesses[1][1]]))
    return inits


def _branch_products(z, f, theta):
    """Mean-removed branch products (f - f_q(z)) (f - f_c(z)) for each row
    (k_q_eff, b_q_eff, k_c, b_c) of a stack ``theta`` (S, 4) of line pairs,
    as (residuals (S, m), Jacobian (S, m, 4)) in closed form."""
    gap_q = f - (theta[:, :1] * z + theta[:, 1:2])
    gap_c = f - (theta[:, 2:3] * z + theta[:, 3:])
    prod = gap_q * gap_c
    d_prod = -np.stack([z * gap_c, gap_c, z * gap_q, gap_q], axis=-1)
    return prod - prod.mean(axis=1, keepdims=True), d_prod - d_prod.mean(axis=1, keepdims=True)


def fit_anticrossing(data: AnticrossingData, k_q: float) -> AnticrossingFit:
    """Extract coupling strength and crosstalk from anti-crossing branches.

    Both branch frequencies satisfy (f - f_q(zpa)) * (f - f_c(zpa)) = g^2
    when f_q and f_c are the correct uncoupled lines, so the fit adjusts
    two lines to make that product constant across all points (minimum
    standard deviation) and reads g^2 off the product mean.  The two
    branch-geometry starts run as one stacked Levenberg-Marquardt search
    with the closed-form Jacobian of the mean-removed product.

    ``k_q`` is the qubit's direct Z response slope (GHz per zpa unit),
    needed to convert the fitted effective slope into a crosstalk
    coefficient.
    """
    if k_q == 0 or not np.isfinite(k_q):
        raise InvalidArgumentError("k_q must be finite and nonzero")
    z, f = data.zpa, data.freq_ghz

    ends = _search(lambda theta: _branch_products(z, f, theta), np.array(_branch_line_inits(data)))
    costs = np.sqrt(np.mean(_branch_products(z, f, ends)[0] ** 2, axis=1))
    best = int(np.argmin(costs))
    theta = ends[best]
    # The product form is symmetric in the two lines; the qubit line is the
    # flat one (it moves only through crosstalk), so order by slope.
    if abs(theta[0]) > abs(theta[2]):
        theta = np.array([theta[2], theta[3], theta[0], theta[1]])
    prod = (f - (theta[0] * z + theta[1])) * (f - (theta[2] * z + theta[3]))
    mean_prod = float(np.mean(prod))
    std_prod = float(np.std(prod))
    if mean_prod <= 0:
        raise DegenerateFitError(
            "branch product is not positive: branches touch or cross (g = 0?)"
        )
    if std_prod > BRANCH_PRODUCT_SPREAD * mean_prod:
        raise FitFailedError(
            f"branch product spread {std_prod:.3g} exceeds "
            f"{BRANCH_PRODUCT_SPREAD} x mean {mean_prod:.3g}; branches not separable"
        )
    g_ghz = float(np.sqrt(mean_prod))
    kq_eff, bq_eff, kc, bc = (float(v) for v in theta)
    crosstalk = CrosstalkModel(
        k_q=float(k_q),
        k_eff=kq_eff,
        b_eff=bq_eff,
        coeff_zxtalk=kq_eff / float(k_q),
    )
    return AnticrossingFit(
        g_qc_mhz=g_ghz * 1e3,
        coupler_slope_ghz=kc,
        coupler_intercept_ghz=bc,
        crosstalk=crosstalk,
        residual_std=std_prod,
    )


def synthesize_calibration_run(
    resp,
    delays_ns,
    regime: str,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> CalibrationRun:
    """Generate the compensation curve a calibration sweep would measure
    for a known channel: V(t) = v_step * (1 - s(t)), plus optional Gaussian
    noise of standard deviation ``noise_sigma`` (in units of v_step)."""
    from .models import eval_step_response

    t = np.asarray(delays_ns, dtype=float)
    comp = resp.v_step * (1.0 - eval_step_response(resp, t))
    if noise_sigma:
        if rng is None:
            rng = np.random.default_rng(0)
        comp = comp + abs(resp.v_step) * rng.normal(0.0, noise_sigma, t.shape)
    return CalibrationRun(delays_ns=t, compensation=comp, v_step=resp.v_step, regime=regime)


def write_calibration_csv(path, run: CalibrationRun) -> None:
    write_csv_table(path, ("t_ns", "v_oft"), (run.delays_ns, run.compensation))


def read_calibration_csv(path, v_step: float, regime: str) -> CalibrationRun:
    header = ("t_ns", "v_oft")
    delays, compensation = read_csv_table(path, header)
    if len(delays) < 2:
        raise ValueError(f"{path}: need at least two rows")
    # the delay rule, or v_step and regime
    return _usage_error(path, CalibrationRun, delays, compensation, v_step, regime)
