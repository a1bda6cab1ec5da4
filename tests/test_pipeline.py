import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fluxcal import pipeline, presets
from fluxcal.cli import main
from fluxcal.errors import InvalidArgumentError
from fluxcal.models import model_to_dict
from fluxcal.pipeline import roundtrip
from fluxcal.serialize import dumps_json, write_json
from fluxcal.simulator import DriveSchedule

# Acceptance criterion 7's flip-chip grids.
SHORT_DELAYS = np.geomspace(20.0, 4600.0, 24)
VALIDATE_DELAYS = np.geomspace(30.0, 4600.0, 10)


def test_roundtrip_in_process_matches_the_cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = roundtrip(
        presets.flipchip_system(),
        presets.flipchip_channel(),
        n_exp=2,
        short_stage={"delays_ns": SHORT_DELAYS},
        validate={"delays_ns": VALIDATE_DELAYS},
    )
    assert list(tmp_path.iterdir()) == []  # the loop touches no file
    assert result.passed and result.max_residual < 0.01
    assert result.long_run is None and result.long_model is None
    assert result.fitted.v_step == result.working_point
    assert result.validation_run.delays_ns.size == VALIDATE_DELAYS.size

    scenario = tmp_path / "scenario.json"
    write_json(scenario, {
        "system": "flipchip",
        "channel": model_to_dict(presets.flipchip_channel()),
        "n_exp": 2,
        "short_stage": {"delays_ns": {"start": 20.0, "stop": 4600.0, "count": 24, "spacing": "log"}},
        "validate": {"delays_ns": {"start": 30.0, "stop": 4600.0, "count": 10, "spacing": "log"}},
    })
    assert main(["roundtrip", str(scenario), "-o", str(tmp_path / "rt")]) == 0
    assert dumps_json(model_to_dict(result.fitted)) == (tmp_path / "rt" / "model.json").read_text()


@pytest.mark.parametrize("kwargs, message", [
    ({"validate": {"delays_ns": [30.0]}}, "delays must be an increasing 1-D array with >= 2 points"),
    ({"short_stage": {"offsets_rel": [0.01, 0.0, 0.02]}}, "offsets must be an increasing"),
    ({"n_exp": 7}, "n_exp must be 1..6, got 7"),
    ({"drive": DriveSchedule(regime="long")}, "drive must be a short-regime schedule, got 'long'"),
    ({"channel": presets.flipchip_channel(), "long_stage": {"delays_ns": [4000.0, 8000.0]}},
     "long_stage: the channel has no long-time part"),
    ({"validate": {"delays_ns": [30.0]}},
     r"^validate\.delays_ns: delays must be an increasing 1-D array with >= 2 points$"),
    ({"short_stage": {"delay_ns": [20.0, 40.0, 80.0]}}, r"^short_stage: unknown keys \['delay_ns'\]$"),
])
def test_roundtrip_checks_its_arguments_before_any_sweep(monkeypatch, kwargs, message):
    def no_sweep(*_, **__):
        raise AssertionError("simulate_calibration was called")

    monkeypatch.setattr(pipeline, "simulate_calibration", no_sweep)
    with pytest.raises(InvalidArgumentError, match=message):
        roundtrip(**{"params": presets.planar_system(), "channel": presets.planar_channel(),
                     **kwargs})


def test_roundtrip_at_a_negative_working_point():
    # The planar device with its coupler's flux shifted by half a quantum
    # and its zpa range mirrored: the working point is below 0, so
    # offsets_rel times the working point runs downward before it is reversed.
    planar = presets.planar_system()
    coupler = replace(planar.coupler, flux_offset=0.5, zpa_range=(-0.45, -0.05))
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        result = roundtrip(
            replace(planar, coupler=coupler),
            presets.flipchip_channel(),
            n_exp=2,
            short_stage={"delays_ns": SHORT_DELAYS},
            validate={"delays_ns": VALIDATE_DELAYS},
        )
    assert result.working_point == pytest.approx(-0.1877, abs=1e-4)
    assert result.passed and result.max_residual < 0.01


def test_importing_fluxcal_leaves_the_pipeline_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, fluxcal; print('fluxcal.pipeline' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout == "False\n"
