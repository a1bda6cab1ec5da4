"""The closed calibration loop: measure, fit, predistort, measure again.

``roundtrip`` calibrates a known channel on a simulated device, touching no
file.  A long stage (only for a channel with a long-time part) fits the slow
settling with a fixed 200 ns probe; the short stage fits the fast transients
through a probe predistorted by that fit; a step predistorted by the combined
fit is swept again, and its worst compensation is the residual.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError
from .fitting import CalibrationRun, fit_long_time, fit_short_time
from .models import MAX_SHORT_TERMS, CombinedResponse
from .predistort import full_pipeline
from .signal import Waveform, heaviside_step
from .simulator import (MAX_STEP_NS, DriveSchedule, SystemParams, _sweep_grid,
                        find_working_point, long_time_schedule, simulate_calibration)


@dataclass(frozen=True)
class RoundtripResult:
    """Each stage's run and fit; the long stage's are None without a long
    part.  ``max_residual`` is a fraction of ``working_point``."""

    working_point: float
    long_run: CalibrationRun | None
    long_model: CombinedResponse | None
    short_run: CalibrationRun
    fitted: CombinedResponse
    predistorted: Waveform
    validation_run: CalibrationRun
    max_residual: float
    passed: bool


def _grids(override, delays_ns: np.ndarray, offsets_rel: np.ndarray, v_step: float):
    """A stage's checked delays and absolute offsets; ``override`` (a mapping
    with ``delays_ns`` and/or ``offsets_rel``) replaces either default."""
    override = override or {}
    offsets = np.asarray(override.get("offsets_rel", offsets_rel), dtype=float) * v_step
    delays = _sweep_grid(override.get("delays_ns", delays_ns), "delays")
    return delays, _sweep_grid(offsets, "offsets")


def roundtrip(
    params: SystemParams, channel: CombinedResponse, *, repulsion_ghz: float = 0.050,
    n_exp: int = 3, threshold: float = 0.01, drive: DriveSchedule = DriveSchedule(),
    dt_integration_ns: float = MAX_STEP_NS, long_stage=None, short_stage=None, validate=None,
) -> RoundtripResult:
    """Calibrate ``channel`` on the device ``params`` at the working point
    where the dressed levels sit ``repulsion_ghz`` apart (it replaces the
    channel's ``v_step``); the run passes when the residual is below
    ``threshold``.

    ``drive`` is the short stage's probe schedule, of the short regime.  A
    stage override (``long_stage``, ``short_stage``, ``validate``) maps
    ``delays_ns`` and/or ``offsets_rel`` (fractions of the working point)
    to arrays; a non-empty ``long_stage`` needs a channel with a long-time
    part.  The default long span, 4-70 us, exceeds 3 settling constants of
    the planar preset, as ``fit_long_time`` requires.  No stage draws random
    numbers, so the same arguments give the same result.
    """
    if not 1 <= n_exp <= MAX_SHORT_TERMS:
        raise InvalidArgumentError(f"n_exp must be 1..{MAX_SHORT_TERMS}, got {n_exp}")
    if drive.regime != "short":
        raise InvalidArgumentError(f"drive must be a short-regime schedule, got {drive.regime!r}")
    has_long = channel.long is not None
    if long_stage and not has_long:
        raise InvalidArgumentError(
            "long_stage: the channel has no long-time part, so no long stage runs"
        )
    z_work = find_working_point(params, repulsion_ghz)
    channel = replace(channel, v_step=z_work)
    long_grids = _grids(
        long_stage, np.linspace(4000.0, 70000.0, 25), np.linspace(-0.022, 0.022, 41), z_work
    )
    short_delays, short_offsets = _grids(
        short_stage, np.geomspace(20.0, 5000.0, 30), np.linspace(-0.012, 0.052, 41), z_work
    )
    val_span = 38000.0 if has_long else 5000.0
    val_delays, val_offsets = _grids(
        validate, np.geomspace(30.0, val_span, 16), np.linspace(-0.02, 0.02, 41), z_work
    )
    sweep = dict(dt_integration_ns=dt_integration_ns)

    long_run = long_model = None
    if has_long:
        long_run, _ = simulate_calibration(
            params, long_time_schedule(), channel, *long_grids, **sweep
        )
        long_model = CombinedResponse(short=None, long=fit_long_time(long_run)[0], v_step=z_work)
    probe = heaviside_step(z_work, float(short_delays[-1]) + 1000.0, 1.0)
    if long_model is not None:
        probe = full_pipeline(probe, long_model)
    short_run, _ = simulate_calibration(
        params, drive, channel, short_delays, short_offsets, input_waveform=probe, **sweep
    )
    short_model, _ = fit_short_time(short_run, n_terms=n_exp)
    fitted = CombinedResponse(short_model, long_model.long if long_model else None, z_work)

    target = heaviside_step(z_work, float(val_delays[-1]) + 2000.0, 1.0)
    predistorted = full_pipeline(target, fitted)
    validation_run, _ = simulate_calibration(
        params, DriveSchedule(regime="short"), channel, val_delays, val_offsets,
        input_waveform=predistorted, **sweep,
    )
    max_residual = float(np.max(np.abs(validation_run.compensation)) / abs(z_work))
    return RoundtripResult(
        z_work, long_run, long_model, short_run, fitted, predistorted, validation_run,
        max_residual, passed=max_residual < threshold,
    )
