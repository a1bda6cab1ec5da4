import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fluxcal
from fluxcal import analysis, cli, fitting, pipeline, presets, simulator
from fluxcal.analysis import write_decay_csv
from fluxcal.cli import build_parser, main
from fluxcal.errors import DegenerateFitError, SweepRangeError
from fluxcal.fitting import CalibrationRun, synthesize_calibration_run, write_calibration_csv
from fluxcal.models import CombinedResponse, model_to_dict
from fluxcal.serialize import dumps_json, write_csv_table, write_json
from fluxcal.signal import heaviside_step, read_waveform_csv, write_waveform_csv
from fluxcal.simulator import MAX_STEP_NS, DriveSchedule, simulate_calibration


@pytest.fixture()
def flipchip_run_csv(tmp_path):
    chan = presets.flipchip_channel(v_step=0.3)
    run = synthesize_calibration_run(chan, np.geomspace(2.0, 4000.0, 60), "short")
    path = tmp_path / "flipchip_short.csv"
    write_calibration_csv(path, run)
    return path


def test_fit_short_recovers_preset_terms(tmp_path, flipchip_run_csv):
    out = tmp_path / "model.json"
    code = main([
        "fit", str(flipchip_run_csv), "--regime", "short", "--n-exp", "2",
        "--v-step", "0.3", "-o", str(out),
    ])
    assert code == 0
    model = json.loads(out.read_text())
    expected = presets.FLIPCHIP_SHORT_TIME
    for term, (p_ref, tau_ref) in zip(model["short"], zip(expected.amplitudes, expected.taus_ns)):
        assert term["p"] == pytest.approx(p_ref, rel=0.01)
        assert term["tau_ns"] == pytest.approx(tau_ref, rel=0.01)
    assert model["meta"]["provenance"]["version"]
    assert model["meta"]["residual_rms"] < 1e-9
    # Every pair of the 6 log-spaced start constants.
    assert model["meta"]["n_starts"] == 15 and model["meta"]["n_dropped_starts"] == 0


def test_fit_long_recovers_preset_settling(tmp_path):
    full = presets.planar_channel(v_step=0.25)
    long_only = CombinedResponse(short=None, long=full.long, v_step=0.25)
    run = synthesize_calibration_run(long_only, np.linspace(100.0, 80000.0, 80), "long")
    run_path = tmp_path / "long.csv"
    write_calibration_csv(run_path, run)
    out = tmp_path / "model.json"
    code = main([
        "fit", str(run_path), "--regime", "long", "--v-step", "0.25", "-o", str(out),
    ])
    assert code == 0
    entry = json.loads(out.read_text())["long"]
    assert entry["A"] == pytest.approx(full.long.settled, rel=0.01)
    assert entry["B"] == pytest.approx(full.long.initial, rel=0.01)
    assert entry["tau_us"] == pytest.approx(full.long.tau_us, rel=0.01)


def test_fit_empty_csv_is_usage_error(tmp_path, capsys):
    for name, text in (
        ("empty.csv", "t_ns,v_oft\n"), ("header.csv", "delay,comp\n1,0\n2,0\n"),
        ("unordered.csv", "t_ns,v_oft\n20,0\n10,0\n30,0\n"),
        ("repeated.csv", "t_ns,v_oft\n10,0\n10,0\n"),
    ):
        path = tmp_path / name
        path.write_text(text)
        code = main([
            "fit", str(path), "--regime", "short", "--v-step", "1.0",
            "-o", str(tmp_path / "x.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"fluxcal fit: {path}: ") and err.count("\n") == 1


def test_fit_overflow_is_one_line_numerical_failure(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text("t_ns,v_oft\n" + "".join(
        f"{10 * k},{1e308 if k % 2 else 1e300}\n" for k in range(1, 9)
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "fit", str(path), "--regime", "short", "--n-exp", "2", "--v-step", "0.3",
            "-o", str(tmp_path / "x.json"),
        ])
    assert code == 2
    assert capsys.readouterr().err == "fluxcal fit: floating-point overflow encountered in divide\n"


def test_fit_with_every_start_outside_the_amplitude_bound_fails_in_one_line(tmp_path, capsys):
    # One term of amplitude 0.8: every start's search ends outside the
    # amplitude bound and is dropped, so the fit fails (exit 2), no model.
    t = np.geomspace(2.0, 400.0, 40)
    path = tmp_path / "run.csv"
    write_calibration_csv(path, CalibrationRun(t, -0.3 * 0.8 * np.exp(-t / 50.0), 0.3, "short"))
    out = tmp_path / "model.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "fit", str(path), "--regime", "short", "--n-exp", "1", "--v-step", "0.3",
            "-o", str(out),
        ])
    assert code == 2
    assert capsys.readouterr().err == (
        "fluxcal fit: every start ends outside the amplitude bound [-0.5, 0.5]; "
        "lower n_terms (now 1) or check v_step\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command, header", [
    ("predistort", "t_ns,amplitude"), ("fit", "t_ns,v_oft"), ("analyze", "n,fidelity"),
])
def test_non_finite_field_is_one_line_usage_error(tmp_path, capsys, command, header):
    data = tmp_path / "data.csv"
    data.write_text(f"{header}\n0,0.3\n1,inf\n2,0.3\n")
    model = tmp_path / "identity.json"
    write_json(model, {"v_step": 0.3})
    out = str(tmp_path / "out")
    argv = {
        "predistort": ["predistort", str(data), "--model", str(model), "-o", out + ".csv"],
        "fit": ["fit", str(data), "--regime", "short", "--v-step", "0.3", "-o", out + ".json"],
        "analyze": ["analyze", "--scheme", "rb", "--gate", str(data), "--reference", str(data),
                    "-o", out + ".json"],
    }[command]
    assert main(argv) == 1
    column = header.split(",")[1]
    err = capsys.readouterr().err
    assert err == f"fluxcal {command}: {data}, line 3: {column} must be finite, got inf\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--n-exp", "0", "--n-exp: expected an integer from 1 to 6, got 0"),
    ("--n-exp", "7", "--n-exp: expected an integer from 1 to 6, got 7"),
    ("--rms-threshold", "0", "--rms-threshold: expected a finite number > 0, got 0.0"),
    ("--rms-threshold", "-1", "--rms-threshold: expected a finite number > 0, got -1.0"),
    ("--rms-threshold", "nan", "--rms-threshold: expected a finite number > 0, got nan"),
    ("--rms-threshold", "inf", "--rms-threshold: expected a finite number > 0, got inf"),
])
def test_fit_option_out_of_range_is_one_line_usage_error(
    tmp_path, capsys, flipchip_run_csv, flag, value, message
):
    out = tmp_path / "model.json"
    code = main([
        "fit", str(flipchip_run_csv), "--regime", "short", "--v-step", "0.3",
        flag, value, "-o", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"fluxcal fit: {message}\n"
    assert not out.exists()


def test_predistort_identity_model_is_byte_identical(tmp_path):
    target = tmp_path / "step.csv"
    write_waveform_csv(target, heaviside_step(0.3, 2000.0, 1.0))
    model = tmp_path / "identity.json"
    write_json(model, {"v_step": 0.3})
    out = tmp_path / "out.csv"
    assert main(["predistort", str(target), "--model", str(model), "-o", str(out)]) == 0
    assert out.read_bytes() == target.read_bytes()


def test_predistort_forward_check_under_one_percent(tmp_path):
    target = tmp_path / "step.csv"
    write_waveform_csv(target, heaviside_step(1.0, 40000.0, 1.0))
    model = tmp_path / "planar.json"
    write_json(model, model_to_dict(presets.planar_channel(v_step=1.0)))
    out = tmp_path / "out.csv"
    assert main(["predistort", str(target), "--model", str(model), "-o", str(out)]) == 0
    sidecar = json.loads((tmp_path / "out.json").read_text())
    assert sidecar["forward_check"]["max_residual_fraction_after_2dt"] < 0.01
    assert sidecar["model"]["long"]["tau_us"] == presets.planar_channel(1.0).long.tau_us
    assert len(read_waveform_csv(out)) == 40000


def test_predistort_unstable_inverse_is_one_line_numerical_failure(tmp_path, capsys):
    # At dt = 2 ns this channel has a sampled zero outside the unit circle.
    target = tmp_path / "step.csv"
    write_waveform_csv(target, heaviside_step(0.3, 200.0, 2.0))
    model = tmp_path / "unstable.json"
    write_json(model, {"short": [{"p": -0.3, "tau_ns": 0.31}, {"p": -0.2, "tau_ns": 1.30},
                                 {"p": -0.1, "tau_ns": 399.0}], "v_step": 0.3})
    out = tmp_path / "out.csv"
    assert main(["predistort", str(target), "--model", str(model), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fluxcal predistort: ") and "unstable" in err and err.count("\n") == 1
    assert not out.exists()


def test_predistort_takes_a_fit_output_as_model(tmp_path, flipchip_run_csv):
    model = tmp_path / "model.json"
    assert main([
        "fit", str(flipchip_run_csv), "--regime", "short", "--n-exp", "2",
        "--v-step", "0.3", "-o", str(model),
    ]) == 0
    target = tmp_path / "step.csv"
    write_waveform_csv(target, heaviside_step(0.3, 2000.0, 1.0))
    out = tmp_path / "out.csv"
    assert main(["predistort", str(target), "--model", str(model), "-o", str(out)]) == 0
    assert json.loads((tmp_path / "out.json").read_text())["model"]["short"][0]["tau_ns"] > 40.0


@pytest.mark.parametrize("model, message", [
    ({"short": [{"p": -0.02, "tau_ns": 50.0}], "lnog": {"A": 1.01, "B": 0.99, "tau_us": 9.0},
      "v_step": 0.3}, "model: unknown keys ['lnog']"),
    ({"long": {"A": 1.01, "B": 0.99, "tau_us": "9 us"}, "v_step": 0.3},
     "model.long.tau_us: expected a finite number, got '9 us'"),
    ({"short": {"p": -0.02, "tau_ns": 50.0}, "v_step": 0.3}, "model.short: expected a list of terms"),
    # values that break the model's own checks are usage errors too
    ({"short": [{"p": 1.5, "tau_ns": 50.0}], "v_step": 0.3},
     "model.short[0]: term amplitude must satisfy |p| < 1, got 1.5"),
    ({"short": [{"p": -0.02, "tau_ns": 50.0}, {"p": -0.01, "tau_ns": -10}], "v_step": 0.3},
     "model.short[1]: tau_ns must be finite and > 0, got -10.0"),
    ({"long": {"A": 2.0, "B": 0.99, "tau_us": 9.0}, "v_step": 0.3},
     "model.long: settled level 2.0 outside the plausibility band (0.5, 1.5)"),
    ({"long": {"A": 1.01, "B": True, "tau_us": 9.0}, "v_step": 0.3},
     "model.long.B: expected a finite number, got True"),
])
def test_predistort_malformed_model_is_one_line_usage_error(tmp_path, capsys, model, message):
    target = tmp_path / "step.csv"
    write_waveform_csv(target, heaviside_step(0.3, 100.0, 1.0))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "out.csv"
    assert main(["predistort", str(target), "--model", str(path), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"fluxcal predistort: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("output, model_name, role", [
    ("shaped.json", "model.json", "output"),
    ("m.csv", "m.json", "model"),
])
def test_predistort_sidecar_that_would_overwrite_a_file_is_usage_error(
    tmp_path, capsys, output, model_name, role
):
    # The sidecar is the output path with a .json suffix: it must not land
    # on the shaped waveform or on an input, and nothing is written.
    target = tmp_path / "step.csv"
    write_waveform_csv(target, heaviside_step(0.3, 100.0, 1.0))
    model = tmp_path / model_name
    write_json(model, {"v_step": 0.3})
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    out = tmp_path / output
    assert main(["predistort", str(target), "--model", str(model), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fluxcal predistort: the sidecar ") and err.count("\n") == 1
    assert f"would overwrite the {role} file" in err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_predistort_sidecar_parses_for_a_target_name_with_a_tab(tmp_path):
    target = tmp_path / "step\tone.csv"
    write_waveform_csv(target, heaviside_step(0.3, 100.0, 1.0))
    model = tmp_path / "identity.json"
    write_json(model, {"v_step": 0.3})
    out = tmp_path / "out.csv"
    assert main(["predistort", str(target), "--model", str(model), "-o", str(out)]) == 0
    sidecar = json.loads((tmp_path / "out.json").read_text())
    assert sidecar["provenance"]["inputs"]["target"]["path"] == str(target)


def test_predistort_has_no_regularization_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["predistort", "t.csv", "--model", "m.json", "--regularization", "1e-6", "-o", "o.csv"])
    assert info.value.code == 1
    assert "--regularization" in capsys.readouterr().err


def test_predistort_missing_model_is_usage_error(tmp_path, capsys):
    target = tmp_path / "step.csv"
    write_waveform_csv(target, heaviside_step(0.3, 100.0, 1.0))
    code = main([
        "predistort", str(target), "--model", str(tmp_path / "nope.json"),
        "-o", str(tmp_path / "out.csv"),
    ])
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize("bad_row", ["1", "1,abc"], ids=["short_row", "non_numeric"])
def test_predistort_malformed_row_is_one_line_usage_error(tmp_path, capsys, bad_row):
    target = tmp_path / "step.csv"
    target.write_text(f"t_ns,amplitude\n0,0.3\n{bad_row}\n2,0.3\n")
    model = tmp_path / "identity.json"
    write_json(model, {"v_step": 0.3})
    code = main(["predistort", str(target), "--model", str(model), "-o", str(tmp_path / "o.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"{target}, line 3" in err


@pytest.mark.parametrize(
    "times", ["1,0,-1", "0,1,3", "100,101,102,103"], ids=["decreasing", "nonuniform", "late_start"]
)
def test_predistort_out_of_order_time_column_is_one_line_usage_error(tmp_path, capsys, times):
    target = tmp_path / "step.csv"
    target.write_text("t_ns,amplitude\n" + "".join(f"{t},0.3\n" for t in times.split(",")))
    model = tmp_path / "identity.json"
    write_json(model, {"v_step": 0.3})
    out = tmp_path / "o.csv"
    assert main(["predistort", str(target), "--model", str(model), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fluxcal predistort: {target}: time ") and err.count("\n") == 1
    assert not out.exists()


# Rows a hand-written or truncated CSV file could carry.
_JUNK_ROWS = st.sampled_from(
    ["", " ", "1", "1,", ",1", "1,2,3", "x,1", "1,x", "nan,1", "1,inf", "1e999,1", "1_0,1", "\u0661,1",
     '"1",1', '"1,1', "# note", "\x00"]
)


@st.composite
def fuzzed_targets(draw):
    """A ``t_ns,amplitude`` waveform file: a short uniform grid, then a few
    edits that a hand-written or truncated file could carry."""
    n = draw(st.integers(0, 12))
    dt = draw(st.sampled_from(["1", "0.5", "0", "-1", "1e-300", "1e300"]))
    amplitude = st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format)
    lines = ["t_ns,amplitude"] + [
        f"{k * float(dt):.17g},{draw(amplitude)}" for k in range(n)
    ]
    oddities = _JUNK_ROWS | st.sampled_from(["t_ns,amplitude", "t_ns;amplitude"])
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines)))
        if draw(st.booleans()):
            lines.insert(k, draw(oddities))
        elif k < len(lines):
            lines[k] = draw(oddities)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(deadline=None, max_examples=150)
@given(fuzzed_targets(), st.sampled_from(["identity", "planar"]))
def test_predistort_fuzzed_target_exits_cleanly(text, model_name):
    model = {"v_step": 0.3}
    if model_name == "planar":
        model = model_to_dict(presets.planar_channel(v_step=0.3))
    _exits_cleanly("predistort", [
        "predistort", "{dir}/target.csv", "--model", "{dir}/model.json", "-o", "{dir}/out.csv",
    ], {"target.csv": text, "model.json": dumps_json(model)})


def test_simulate_scenario_ideal_channel(tmp_path):
    scenario = tmp_path / "scenario.json"
    write_json(scenario, {
        "system": "flipchip",
        "channel": {"v_step": 0.42},
        "drive": {"regime": "short"},
        "delays_ns": [60.0, 150.0, 400.0],
        "offsets_rel": {"start": -0.01, "stop": 0.01, "count": 11},
    })
    outdir = tmp_path / "sim"
    assert main(["simulate", str(scenario), "-o", str(outdir)]) == 0
    rows = np.loadtxt(outdir / "run.csv", delimiter=",", skiprows=1)
    grid_step = 0.002 * 0.42
    assert np.max(np.abs(rows[:, 1])) < grid_step
    report = json.loads((outdir / "report.json").read_text())
    assert report["grid"]["n_delays"] == 3 and report["grid"]["n_offsets"] == 11
    digest = hashlib.sha256(scenario.read_bytes()).hexdigest()
    assert report["provenance"]["inputs"]["scenario"]["sha256"] == digest


def test_simulate_reads_only_the_peaks_and_writes_the_full_grids_run(tmp_path, monkeypatch):
    # README's scenario on fewer delays: the command propagates only the
    # offsets that each delay's peak search needs, and its run.csv is the
    # full grid's to the byte.
    channel = presets.flipchip_channel(v_step=0.42)
    delays = [20.0, 60.0, 200.0, 700.0, 2000.0]
    offsets_rel = np.linspace(-0.01, 0.05, 41).tolist()
    scenario = tmp_path / "scenario.json"
    write_json(scenario, {
        "system": "flipchip", "channel": model_to_dict(channel), "drive": {"regime": "short"},
        "delays_ns": delays, "offsets_rel": offsets_rel,
    })
    rows = []
    real = simulator._propagate

    def counted(params, drive, trace, offsets, t_nodes, h):
        rows.append(offsets.size)
        return real(params, drive, trace, offsets, t_nodes, h)

    monkeypatch.setattr(simulator, "_propagate", counted)
    outdir = tmp_path / "sim"
    assert main(["simulate", str(scenario), "-o", str(outdir)]) == 0
    assert sum(rows) < len(delays) * len(offsets_rel)
    full, _ = simulate_calibration(
        presets.flipchip_system(), DriveSchedule(regime="short"), channel,
        delays, np.array(offsets_rel) * channel.v_step, full_output=True,
    )
    write_calibration_csv(tmp_path / "full_run.csv", full)
    assert (outdir / "run.csv").read_bytes() == (tmp_path / "full_run.csv").read_bytes()


def test_simulate_rejects_malformed_scenario(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text("{not json")
    code = main(["simulate", str(scenario), "-o", str(tmp_path / "sim")])
    assert code == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_simulate_names_missing_scenario_key(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    write_json(scenario, {"system": "flipchip", "channel": {"v_step": 0.42}})
    code = main(["simulate", str(scenario), "-o", str(tmp_path / "sim")])
    assert code == 1
    assert "missing required key 'delays_ns'" in capsys.readouterr().err


# The flip-chip preset written out as an explicit system object.
EXPLICIT_FLIPCHIP = {
    "omega_q_ghz": 4.9030, "g_qc_ghz": 0.0834, "coeff_zxtalk": 0.0016, "qubit_zpa_slope_ghz": 4.0,
    "coupler": {"f_max_ghz": 8.3157, "curvature_ghz": 0.300, "asymmetry": 0.3,
                "zpa_to_flux": 1.0, "zpa_range": [0.0, 0.48]},
}


@pytest.mark.parametrize("command, extra, message", [
    ("simulate", {"regularization": 1e-6}, "scenario: unknown keys ['regularization']"),
    ("roundtrip", {"regularization": 1e-6, "n_exps": 2},
     "scenario: unknown keys ['n_exps', 'regularization']"),
    ("roundtrip", {"delays_ns": [60.0, 150.0]}, "scenario: unknown keys ['delays_ns']"),
    ("simulate", {"dt_integration_ns": MAX_STEP_NS + 0.01},
     f"dt_integration_ns must be in (0, {MAX_STEP_NS}] ns, got {MAX_STEP_NS + 0.01}"),
    ("roundtrip", {"dt_integration_ns": 0.0},
     f"dt_integration_ns must be in (0, {MAX_STEP_NS}] ns, got 0.0"),
    ("roundtrip", {"short_stage": {"delay_ns": [20.0, 40.0, 80.0]}},
     "short_stage: unknown keys ['delay_ns']"),
    ("roundtrip", {"validate": {"delays_ns": [30.0, 60.0], "offset_rel": [-0.02, 0.0, 0.02]}},
     "validate: unknown keys ['offset_rel']"),
    ("roundtrip", {"fit_long": False}, "scenario: unknown keys ['fit_long']"),
    ("simulate", {"offsets": [-0.004, 0.0, 0.004]}, "scenario: unknown keys ['offsets']"),
    ("roundtrip", {"offsets": [-0.004, 0.0, 0.004]}, "scenario: unknown keys ['offsets']"),
    ("roundtrip", {"long_stage": {"offsets": [-0.01, 0.0, 0.01]}},
     "long_stage: unknown keys ['offsets']"),
    ("roundtrip", {"short_stage": {"offsets": [-0.004, 0.0, 0.02]}},
     "short_stage: unknown keys ['offsets']"),
    ("roundtrip", {"validate": {"offsets": [-0.008, 0.0, 0.008]}},
     "validate: unknown keys ['offsets']"),
    ("simulate", {"channel": {"v_step": 0.42, "shrot": [{"p": -0.02, "tau_ns": 50.0}]}},
     "channel: unknown keys ['shrot']"),
    ("roundtrip", {"channel": {"v_step": 0.42, "short": [{"p": -0.02, "tau": 50.0}]}},
     "channel.short[0]: unknown keys ['tau']"),
    ("roundtrip", {"channel": {"long": {"A": 1.01, "B": 0.99, "tau_ms": 0.02}}},
     "channel.long: unknown keys ['tau_ms']"),
    ("simulate", {"system": {**EXPLICIT_FLIPCHIP, "coef_zxtalk": 0.0016}},
     "system: unknown keys ['coef_zxtalk']"),
    ("roundtrip", {"system": {**EXPLICIT_FLIPCHIP,
                              "coupler": {**EXPLICIT_FLIPCHIP["coupler"], "asymetry": 0.3}}},
     "system.coupler: unknown keys ['asymetry']"),
    ("simulate", {"channel": {"v_step": None}}, "channel.v_step: expected a finite number, got None"),
    ("roundtrip", {"repulsion_mhz": [50.0]}, "repulsion_mhz: expected a finite number, got [50]"),
    ("roundtrip", {"short_stage": {"delays_ns": {"start": 20.0, "stop": 4600.0, "cout": 24}}},
     "short_stage.delays_ns: unknown keys ['cout']"),
    ("roundtrip", {"short_stage": {"delays_ns": [20.0, None, 80.0]}},
     "short_stage.delays_ns: expected a finite number, got None"),
    ("simulate", {"offsets_rel": {"start": -0.01, "stop": 0.01, "count": 1e12}},
     "offsets_rel.count: expected an integer from 1 to 1000, got 1000000000000"),
    ("roundtrip", {"short_stage": {"delays_ns": {"start": 20.0, "stop": 4600.0, "count": 12.9}}},
     "short_stage.delays_ns.count: expected an integer from 1 to 1000, got 12.9"),
    ("roundtrip", {"validate": {"offsets_rel": {"start": -0.02, "stop": 0.02, "count": 0}}},
     "validate.offsets_rel.count: expected an integer from 1 to 1000, got 0"),
    ("simulate", {"delays_ns": [20.0 + k for k in range(1001)]},
     "delays_ns: at most 1000 values, got 1001"),
    ("roundtrip", {"n_exp": 2.9}, "n_exp: expected an integer from 1 to 6, got 2.9"),
    ("roundtrip", {"n_exp": 7}, "n_exp: expected an integer from 1 to 6, got 7"),
    ("simulate", {"system": {**EXPLICIT_FLIPCHIP, "g_qc_ghz": 2}},
     "system: g_qc_ghz must be in (0, 1) GHz"),
    ("simulate", {"drive": {"t_pi_min_ns": 10}}, "drive: need 30 <= t_pi_min <= t_pi_max <= 200 ns"),
    ("roundtrip", {"drive": {"t_pi_min_ns": 10}}, "drive: need 30 <= t_pi_min <= t_pi_max <= 200 ns"),
    # A JSON boolean is not a number.
    ("roundtrip", {"threshold": True}, "threshold: expected a finite number, got True"),
    ("simulate", {"system": {**EXPLICIT_FLIPCHIP,
                             "coupler": {**EXPLICIT_FLIPCHIP["coupler"], "zpa_range": [0.0, 0.2, 0.45]}}},
     "system.coupler: zpa_range must be two values (lo, hi), got (0.0, 0.2, 0.45)"),
    # zpa_range is a pair of bounds, not a grid.
    ("roundtrip", {"system": {**EXPLICIT_FLIPCHIP, "coupler": {
        **EXPLICIT_FLIPCHIP["coupler"], "zpa_range": {"start": 0.0, "stop": 0.48, "count": 2}}}},
     "system.coupler.zpa_range: expected a list of two numbers, "
     "got {'start': 0, 'stop': 0.48, 'count': 2}"),
    # A log grid cannot cross or touch 0.
    ("simulate", {"delays_ns": {"start": -100, "stop": 500, "count": 5, "spacing": "log"}},
     "delays_ns: a log grid needs a nonzero start and stop of one sign, got start -100.0 and stop 500.0"),
    ("simulate", {"delays_ns": {"start": 0, "stop": 500, "count": 5, "spacing": "log"}},
     "delays_ns: a log grid needs a nonzero start and stop of one sign, got start 0.0 and stop 500.0"),
])
def test_scenario_usage_error_is_one_line_exit_1(tmp_path, capsys, command, extra, message):
    scenario = {"system": "flipchip", "channel": {"v_step": 0.42}}
    if command == "simulate":
        scenario.update(delays_ns=[60.0, 150.0], offsets_rel={"start": -0.01, "stop": 0.01, "count": 11})
    path = tmp_path / "scenario.json"
    write_json(path, {**scenario, **extra})
    outdir = tmp_path / "out"
    assert main([command, str(path), "-o", str(outdir)]) == 1
    assert capsys.readouterr().err == f"fluxcal {command}: {message}\n"
    assert not outdir.exists()


def _no_sweep(*args, **kwargs):
    raise AssertionError("simulate_calibration was called")


@pytest.mark.parametrize("drive, message", [
    ({"t_pi_mn_ns": 30.0}, "drive: unknown keys ['t_pi_mn_ns']"),
    # The short stage needs a short-regime drive, so a roundtrip's takes no regime.
    ({"regime": "long"}, "drive: unknown keys ['regime']"),
])
def test_roundtrip_bad_drive_fails_before_any_sweep(tmp_path, capsys, monkeypatch, drive, message):
    # The planar channel has a long-time part, so its long stage would run
    # before the short stage reads the drive.
    monkeypatch.setattr(pipeline, "simulate_calibration", _no_sweep)
    path = tmp_path / "scenario.json"
    write_json(path, {
        "system": "planar", "channel": model_to_dict(presets.planar_channel()), "drive": drive,
    })
    outdir = tmp_path / "rt"
    assert main(["roundtrip", str(path), "-o", str(outdir)]) == 1
    assert capsys.readouterr().err == f"fluxcal roundtrip: {message}\n"
    assert not outdir.exists()


@pytest.mark.parametrize("command, extra, message", [
    ("simulate", {"delays_ns": [300.0, 200.0]},
     "delays_ns: delays must be an increasing 1-D array with >= 2 points"),
    ("simulate", {"offsets_rel": [-0.01, 0.01]},
     "offsets_rel: offsets must be an increasing 1-D array with >= 3 points"),
    ("roundtrip", {"short_stage": {"delays_ns": [300.0, 200.0]}},
     "short_stage.delays_ns: delays must be an increasing 1-D array with >= 2 points"),
    ("roundtrip", {"long_stage": {"delays_ns": [4000.0]}},
     "long_stage.delays_ns: delays must be an increasing 1-D array with >= 2 points"),
    ("roundtrip", {"validate": {"offsets_rel": [0.02, 0.0, -0.02]}},
     "validate.offsets_rel: offsets must be an increasing 1-D array with >= 3 points"),
])
def test_sweep_grid_out_of_order_is_usage_error_before_any_sweep(
    tmp_path, capsys, monkeypatch, command, extra, message
):
    monkeypatch.setattr(cli, "simulate_calibration", _no_sweep)
    monkeypatch.setattr(pipeline, "simulate_calibration", _no_sweep)
    scenario = {"system": "planar", "channel": model_to_dict(presets.planar_channel())}
    if command == "simulate":
        scenario.update(delays_ns=[60.0, 150.0], offsets_rel=[-0.01, 0.0, 0.01])
    path = tmp_path / "scenario.json"
    write_json(path, {**scenario, **extra})
    outdir = tmp_path / "out"
    assert main([command, str(path), "-o", str(outdir)]) == 1
    assert capsys.readouterr().err == f"fluxcal {command}: {message}\n"
    assert not outdir.exists()


def test_simulate_negative_v_step_is_usage_error_before_any_sweep(tmp_path, capsys, monkeypatch):
    # README's scenario with the step reversed: the absolute offsets
    # offsets_rel * v_step would run downward.
    monkeypatch.setattr(cli, "simulate_calibration", _no_sweep)
    path = tmp_path / "scenario.json"
    write_json(path, {
        "system": "flipchip",
        "channel": {"v_step": -0.42, "short": [{"p": -0.019, "tau_ns": 47.83},
                                               {"p": -0.021, "tau_ns": 528.10}]},
        "drive": {"regime": "short"},
        "delays_ns": {"start": 20.0, "stop": 4600.0, "count": 20, "spacing": "log"},
        "offsets_rel": {"start": -0.01, "stop": 0.05, "count": 41},
    })
    outdir = tmp_path / "out"
    assert main(["simulate", str(path), "-o", str(outdir)]) == 1
    assert capsys.readouterr().err == (
        "fluxcal simulate: channel.v_step: the sweep needs v_step > 0 "
        "(offsets_rel are fractions of it), got -0.42\n"
    )
    assert not outdir.exists()


def test_roundtrip_long_stage_without_long_part_fails_before_any_sweep(tmp_path, capsys, monkeypatch):
    # The flip-chip channel has no long-time part, so the override would be dropped.
    monkeypatch.setattr(pipeline, "simulate_calibration", _no_sweep)
    path = tmp_path / "scenario.json"
    write_json(path, {
        "system": "flipchip", "channel": model_to_dict(presets.flipchip_channel()),
        "long_stage": {"delays_ns": [4000.0, 8000.0, 16000.0]},
    })
    outdir = tmp_path / "rt"
    assert main(["roundtrip", str(path), "-o", str(outdir)]) == 2
    assert capsys.readouterr().err == (
        "fluxcal roundtrip: long_stage: the channel has no long-time part, so no long stage runs\n"
    )
    assert not outdir.exists()


def test_roundtrip_failing_stage_leaves_no_output(tmp_path, capsys, monkeypatch):
    calls = []

    def edge_on_second_sweep(*args, **kwargs):
        calls.append(args[3])
        if len(calls) == 2:
            raise SweepRangeError("P1 maximum sits at the offset-sweep edge")
        return real_sweep(*args, **kwargs)

    real_sweep = pipeline.simulate_calibration
    monkeypatch.setattr(pipeline, "simulate_calibration", edge_on_second_sweep)
    path = tmp_path / "scenario.json"
    write_json(path, {
        "system": "planar", "channel": model_to_dict(presets.planar_channel()),
        "long_stage": {"delays_ns": {"start": 4000.0, "stop": 70000.0, "count": 6}},
    })
    outdir = tmp_path / "rt"
    assert main(["roundtrip", str(path), "-o", str(outdir)]) == 2
    assert capsys.readouterr().err == "fluxcal roundtrip: P1 maximum sits at the offset-sweep edge\n"
    assert len(calls) == 2 and not outdir.exists()


def test_roundtrip_planar_defaults_raise_no_warning(tmp_path):
    # The default long stage (4-70 us) spans more than 3 x the planar
    # preset's 18.7 us settling constant, so fit_long_time does not warn.
    scenario = tmp_path / "scenario.json"
    write_json(scenario, {"system": "planar", "channel": model_to_dict(presets.planar_channel())})
    outdir = tmp_path / "rt"
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        assert main(["roundtrip", str(scenario), "-o", str(outdir)]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["passed"] and report["provenance"]["settings"]["dt_integration_ns"] == MAX_STEP_NS


@pytest.mark.parametrize("command", ["fit", "roundtrip"])
def test_hidden_seed_flag_changes_no_byte(tmp_path, capsys, flipchip_run_csv, command):
    # fit and roundtrip still parse --seed and ignore it, as they do no
    # random draw; the flag is left out of --help.
    scenario = tmp_path / "scenario.json"
    write_json(scenario, {
        "system": "flipchip", "channel": model_to_dict(presets.flipchip_channel()), "n_exp": 2,
        "short_stage": {"delays_ns": {"start": 20.0, "stop": 4600.0, "count": 24, "spacing": "log"}},
        "validate": {"delays_ns": {"start": 30.0, "stop": 4600.0, "count": 10, "spacing": "log"}},
    })
    argv = {
        "fit": ["fit", str(flipchip_run_csv), "--regime", "short", "--n-exp", "2",
                "--v-step", "0.3", "-o"],
        "roundtrip": ["roundtrip", str(scenario), "-o"],
    }[command]
    plain, seeded = tmp_path / "plain", tmp_path / "seeded"
    assert main([*argv, str(plain)]) == 0
    assert main([*argv, str(seeded), "--seed", "3"]) == 0

    def contents(path):
        if path.is_dir():
            return {f.name: f.read_bytes() for f in path.iterdir()}
        return path.read_bytes()

    assert contents(seeded) == contents(plain)
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "--seed" not in capsys.readouterr().out


def test_analyze_rb_report(tmp_path):
    n = np.arange(0, 400, 20)
    write_decay_csv(tmp_path / "gate.csv", n, 0.75 * 0.99**n + 0.25)
    write_decay_csv(tmp_path / "ref.csv", n, 0.75 * 0.995**n + 0.25)
    out = tmp_path / "rb.json"
    assert main([
        "analyze", "--scheme", "rb", "--gate", str(tmp_path / "gate.csv"),
        "--reference", str(tmp_path / "ref.csv"), "-o", str(out),
    ]) == 0
    report = json.loads(out.read_text())
    pg, pr = report["gate"]["p"], report["reference"]["p"]
    expected = 1.0 - (1.0 - pg / pr) * 0.75
    assert report["fidelity"] == pytest.approx(expected, abs=1e-12)
    assert report["dimension"] == 4


def test_analyze_xeb_combines_two_references(tmp_path):
    n = np.arange(0, 400, 20)
    write_decay_csv(tmp_path / "gate.csv", n, 0.70 * 0.992**n + 0.27)
    write_decay_csv(tmp_path / "q1.csv", n, 0.45 * 0.998**n + 0.52)
    write_decay_csv(tmp_path / "q2.csv", n, 0.44 * 0.997**n + 0.52)
    out = tmp_path / "xeb.json"
    assert main([
        "analyze", "--scheme", "xeb", "--gate", str(tmp_path / "gate.csv"),
        "--reference", str(tmp_path / "q1.csv"), str(tmp_path / "q2.csv"),
        "-o", str(out),
    ]) == 0
    report = json.loads(out.read_text())
    p1 = report["reference_components"][0]["p"]
    p2 = report["reference_components"][1]["p"]
    assert report["reference"]["p"] == pytest.approx((p1 + p2 + 3 * p1 * p2) / 5, abs=1e-12)
    assert report["scheme"] == "xeb"


def test_analyze_rb_rejects_two_references(tmp_path, capsys):
    n = np.arange(0, 400, 20)
    for name in ("gate.csv", "a.csv", "b.csv"):
        write_decay_csv(tmp_path / name, n, 0.75 * 0.99**n + 0.25)
    code = main([
        "analyze", "--scheme", "rb", "--gate", str(tmp_path / "gate.csv"),
        "--reference", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
        "-o", str(tmp_path / "out.json"),
    ])
    assert code == 1
    assert "exactly one" in capsys.readouterr().err


LENGTH_RULE = "{path}: sequence lengths must be integers from 0 to 1000000000"


@pytest.mark.parametrize("n, fidelity, code, message", [
    ([-1, 20, 40, 60, 80], [0.9, 0.8, 0.7, 0.65, 0.6], 1, LENGTH_RULE),
    ([0, 2.5, 40, 60, 80], [0.9, 0.8, 0.7, 0.65, 0.6], 1, LENGTH_RULE),
    ([0, 20, 40, 60, 1e300], [0.9, 0.8, 0.7, 0.65, 0.6], 1, LENGTH_RULE),
    ([0, 20, 40, 60, 80], [0.9, 0.8, 1.2, 0.65, 0.6], 1, "{path}: fidelities must lie in [0, 1]"),
    ([0, 20, 40, 40, 80], [0.9, 0.8, 0.7, 0.7, 0.6], 1,
     "{path}: need at least 5 distinct sequence lengths"),
    # well-formed, but the decay rate cannot be fitted: a numerical failure
    ([0, 20, 40, 60, 80], [0.7] * 5, 2, "{path}: constant fidelities: decay rate is unidentifiable"),
], ids=["negative-n", "fractional-n", "huge-n", "fidelity-above-1", "four-lengths", "constant"])
def test_analyze_decay_rule_names_the_file(tmp_path, capsys, n, fidelity, code, message):
    good, bad = tmp_path / "gate.csv", tmp_path / "ref.csv"
    write_decay_csv(good, np.arange(0, 400, 20), 0.75 * 0.99 ** np.arange(0, 400, 20) + 0.25)
    # written as floats: write_decay_csv rejects lengths that are not whole
    write_csv_table(bad, ("n", "fidelity"), (np.asarray(n, float), np.asarray(fidelity, float)))
    out = tmp_path / "out.json"
    argv = ["analyze", "--scheme", "rb", "--gate", str(good), "--reference", str(bad), "-o", str(out)]
    assert main(argv) == code
    assert capsys.readouterr().err == f"fluxcal analyze: {message.format(path=bad)}\n"
    assert not out.exists()


def _write_decays(tmp_path, names, n=np.arange(0, 400, 20)):
    """Noisy decay files of the given names on the lengths ``n``, the gate's
    decaying faster than the references'; returns their paths."""
    rng = np.random.default_rng(5)
    paths = []
    for name in names:
        p = 0.97 if name.startswith("gate") else 0.995
        f = 0.7 * p**n + 0.25 + rng.normal(0.0, 0.003, n.size)
        write_decay_csv(tmp_path / name, n, np.clip(f, 0.0, 1.0))
        paths.append(tmp_path / name)
    return paths


def _analyze(scheme, gate, references, out):
    return main(["analyze", "--scheme", scheme, "--gate", str(gate),
                 "--reference", *map(str, references), "-o", str(out)])


def test_analyze_constant_gate_names_the_file(tmp_path, capsys):
    # A numerical failure of the gate's decay names the gate, exit 2.
    (ref,) = _write_decays(tmp_path, ["ref.csv"])
    gate = tmp_path / "gate.csv"
    write_decay_csv(gate, [0, 20, 40, 60, 80], [0.7] * 5)
    out = tmp_path / "out.json"
    assert _analyze("rb", gate, [ref], out) == 2
    assert capsys.readouterr().err == (
        f"fluxcal analyze: {gate}: constant fidelities: decay rate is unidentifiable\n"
    )
    assert not out.exists()


def test_analyze_unbounded_sigma_names_the_file(tmp_path, capsys, monkeypatch):
    # After the stacked fit, the failure of one curve names its file: here
    # the first of three xeb files whose sigma_p is unbounded.
    gate, q1, q2 = _write_decays(tmp_path, ["gate.csv", "q1.csv", "q2.csv"])
    decay_fit = analysis._decay_fit

    def unbounded_after_the_gate(n, f, *constants):
        if len(calls) == 1:
            raise DegenerateFitError("decay rate uncertainty is unbounded")
        calls.append(n)
        return decay_fit(n, f, *constants)

    calls = []
    monkeypatch.setattr(analysis, "_decay_fit", unbounded_after_the_gate)
    out = tmp_path / "out.json"
    assert _analyze("xeb", gate, [q1, q2], out) == 2
    assert capsys.readouterr().err == (
        f"fluxcal analyze: {q1}: decay rate uncertainty is unbounded\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("scheme, lengths, searches", [
    ("rb", [np.arange(0, 400, 20)] * 2, 1),
    ("xeb", [np.arange(0, 400, 20)] * 3, 1),
    ("xeb", [np.arange(0, 400, 20), np.arange(0, 300, 15), np.arange(0, 400, 20)], 2),
], ids=["rb", "xeb-one-length-set", "xeb-two-length-sets"])
def test_analyze_fits_each_length_set_in_one_search(tmp_path, monkeypatch, scheme, lengths, searches):
    # The decay files of one call that share their lengths are fitted in
    # one stacked search: one search per set of lengths.
    names = ["gate.csv", "ref_1.csv", "ref_2.csv"][: len(lengths)]
    paths = [_write_decays(tmp_path, [name], n)[0] for name, n in zip(names, lengths)]
    search = fitting._search
    calls = []

    def counting(model, x0, *args, **kwargs):
        calls.append(len(x0))
        return search(model, x0, *args, **kwargs)

    monkeypatch.setattr(fitting, "_search", counting)
    assert _analyze(scheme, paths[0], paths[1:], tmp_path / "out.json") == 0
    assert len(calls) == searches and sum(calls) == len(paths)


@pytest.mark.parametrize("broken", [["gate.csv", "ref.csv"], ["q2.csv"]],
                         ids=["gate-and-reference", "second-reference"])
def test_analyze_names_the_first_file_that_breaks_a_rule(tmp_path, capsys, broken):
    # Every file is read, then checked in command-line order before the
    # stacked fit, so the first broken file is named: the gate when the
    # gate and the rb reference both break a rule, the second xeb
    # reference when only it does.
    names = ["gate.csv", "ref.csv"] if "ref.csv" in broken else ["gate.csv", "q1.csv", "q2.csv"]
    paths = _write_decays(tmp_path, names)
    for name in broken:
        write_csv_table(tmp_path / name, ("n", "fidelity"),
                        (np.array([0.0, 20, 40, 60, 80]), np.array([0.9, 0.8, 1.2, 0.65, 0.6])))
    out = tmp_path / "out.json"
    assert _analyze("rb" if len(names) == 2 else "xeb", paths[0], paths[1:], out) == 1
    assert capsys.readouterr().err == (
        f"fluxcal analyze: {tmp_path / broken[0]}: fidelities must lie in [0, 1]\n"
    )
    assert not out.exists()


def test_analyze_reads_every_file_before_checking_any(tmp_path, capsys):
    # A reference that cannot be read is named before a gate whose
    # fidelities are constant: every file is read before the first check.
    gate, missing = tmp_path / "gate.csv", tmp_path / "missing.csv"
    write_decay_csv(gate, [0, 20, 40, 60, 80], [0.7] * 5)
    out = tmp_path / "out.json"
    assert _analyze("rb", gate, [missing], out) == 1
    err = capsys.readouterr().err
    assert err.startswith("fluxcal analyze: ") and str(missing) in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("dimension", ["1", "0", "-3"])
def test_analyze_dimension_below_2_is_one_line_usage_error(tmp_path, capsys, dimension):
    # Checked before any file is read: the decay files do not exist.
    out = tmp_path / "out.json"
    code = main([
        "analyze", "--scheme", "rb", "--gate", str(tmp_path / "missing_gate.csv"),
        "--reference", str(tmp_path / "missing_ref.csv"), "-D", dimension, "-o", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"fluxcal analyze: --dimension: expected an integer >= 2, got {dimension}\n"
    )
    assert not out.exists()


def test_reused_parser_gives_the_output_of_a_fresh_process(tmp_path, monkeypatch):
    # One process runs a success, a usage error, --version and the success
    # again on the one parser it builds; each run must give the exit code,
    # output and file of the same command in a fresh process.
    n = np.arange(0, 400, 20)
    write_decay_csv(tmp_path / "gate.csv", n, 0.75 * 0.99**n + 0.25)
    write_decay_csv(tmp_path / "ref.csv", n, 0.75 * 0.995**n + 0.25)
    report = tmp_path / "rb.json"
    success = ["analyze", "--scheme", "rb", "--gate", str(tmp_path / "gate.csv"),
               "--reference", str(tmp_path / "ref.csv"), "-o", str(report)]
    usage_error = ["analyze", "--scheme", "rb", "-o", str(tmp_path / "x.json")]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    env = {**os.environ, "PYTHONPATH": str(Path(fluxcal.__file__).parents[1])}
    build_parser()
    misses = build_parser.cache_info().misses
    for argv, expected in ((success, 0), (usage_error, 1), (["--version"], 0), (success, 0)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        written = report.read_bytes() if argv is success else None
        fresh = subprocess.run([sys.executable, "-m", "fluxcal.cli", *argv], env=env,
                               capture_output=True, text=True, cwd=tmp_path)
        assert code == expected
        assert (code, out.getvalue(), err.getvalue()) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        )
        if argv is success:
            assert report.read_bytes() == written
    assert build_parser.cache_info().misses == misses


# Runs one command through ``fluxcal.cli.main`` (none: only the import;
# ``anticrossing``: the library's anti-crossing fit of two drawn branches;
# ``working_point``: the library's working-point search on the flip-chip
# preset) and prints its exit code and the scipy modules it loaded.
_IMPORT_PROBE = """
import sys
import numpy as np
import fluxcal.cli
from fluxcal import fitting, presets, simulator
if sys.argv[1:2] == ["anticrossing"]:
    z = np.linspace(0.2, 0.4, 15)
    f_q, f_c = 0.15 * z + 4.578, -5.0 * z + 6.123
    split = np.hypot(f_c - f_q, 2 * 0.0789)
    data = fitting.AnticrossingData(
        zpa=np.concatenate([z, z]),
        freq_ghz=np.concatenate([(f_q + f_c - split) / 2, (f_q + f_c + split) / 2]),
        branch=("lower",) * 15 + ("upper",) * 15,
    )
    code = int(not fitting.fit_anticrossing(data, k_q=4.0).g_qc_mhz > 0)
elif sys.argv[1:2] == ["working_point"]:
    code = int(not simulator.find_working_point(presets.flipchip_system()) > 0)
else:
    code = fluxcal.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


@pytest.mark.parametrize(
    "command",
    ["import", "predistort", "analyze", "fit_long", "fit_short", "anticrossing", "working_point",
     "simulate", "roundtrip"],
)
def test_no_command_loads_scipy(tmp_path, flipchip_run_csv, command):
    # fluxcal's runtime needs numpy only: no entry point imports any scipy
    # module, the working-point search and the predistortion FFT included.
    model = tmp_path / "model.json"
    write_json(model, model_to_dict(presets.flipchip_channel(v_step=0.3)))
    target = tmp_path / "target.csv"
    write_waveform_csv(target, heaviside_step(0.3, 1000.0, 1.0))
    n = np.arange(0, 400, 20)
    write_decay_csv(tmp_path / "gate.csv", n, 0.75 * 0.99**n + 0.25)
    write_decay_csv(tmp_path / "ref.csv", n, 0.75 * 0.995**n + 0.25)
    long_only = CombinedResponse(short=None, long=presets.planar_channel(v_step=0.25).long, v_step=0.25)
    long_run = tmp_path / "long.csv"
    write_calibration_csv(
        long_run, synthesize_calibration_run(long_only, np.linspace(100.0, 80000.0, 40), "long")
    )
    write_json(tmp_path / "sim.json", {
        "system": "flipchip",
        "channel": {"v_step": 0.42},
        "drive": {"regime": "short"},
        "delays_ns": [60.0, 150.0, 400.0],
        "offsets_rel": {"start": -0.01, "stop": 0.01, "count": 11},
    })
    write_json(tmp_path / "rt.json", {"system": "flipchip", "channel": model_to_dict(presets.flipchip_channel())})
    argv = {
        "import": [],
        "predistort": ["predistort", target, "--model", model, "-o", tmp_path / "shaped.csv"],
        "analyze": ["analyze", "--scheme", "rb", "--gate", tmp_path / "gate.csv",
                    "--reference", tmp_path / "ref.csv", "-o", tmp_path / "rb.json"],
        "fit_long": ["fit", long_run, "--regime", "long", "--v-step", "0.25",
                     "-o", tmp_path / "long_model.json"],
        "fit_short": ["fit", flipchip_run_csv, "--regime", "short", "--n-exp", "2",
                      "--v-step", "0.3", "-o", tmp_path / "short_model.json"],
        "anticrossing": ["anticrossing"],
        "working_point": ["working_point"],
        "simulate": ["simulate", tmp_path / "sim.json", "-o", tmp_path / "sim"],
        "roundtrip": ["roundtrip", tmp_path / "rt.json", "-o", tmp_path / "rt"],
    }[command]
    env = {**os.environ, "PYTHONPATH": str(Path(fluxcal.__file__).parents[1])}
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *map(str, argv)], env=env,
                           capture_output=True, text=True, cwd=tmp_path)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.splitlines()[-1].split() == ["0"]


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 1
    assert "error" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "fluxcal" in capsys.readouterr().out


def _run_quietly(argv):
    """``main(argv)`` with its stdout dropped: the exit code, stderr and
    the messages of the warnings that reached the caller."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


_JUNK = (None, "x", [], {}, [1.0], float("nan"), float("inf"), -1.0, 0.0, 1e308, "0.3")


@st.composite
def tiny_simulate_scenarios(draw):
    """A ``simulate`` scenario of at most 3 delays and 7 offsets, with up to
    two fields replaced by junk or an unknown key added."""
    delays = draw(st.lists(st.floats(20.0, 5000.0), min_size=2, max_size=3, unique=True))
    scenario = {
        "system": draw(st.sampled_from(["planar", "flipchip", EXPLICIT_FLIPCHIP])),
        "channel": {
            "v_step": draw(st.sampled_from([0.42, 0.3, 0.1, 2.0])),
            "short": [{"p": draw(st.floats(-0.05, 0.05)), "tau_ns": draw(st.floats(5.0, 2000.0))}],
        },
        "drive": {"regime": draw(st.sampled_from(["short", "long"]))},
        "delays_ns": sorted(delays),
        "offsets_rel": {"start": draw(st.floats(-0.05, -0.005)), "stop": draw(st.floats(0.01, 0.08)),
                        "count": draw(st.integers(3, 7))},
    }
    if draw(st.booleans()):
        scenario["dt_integration_ns"] = draw(st.sampled_from([0.25, 0.5, MAX_STEP_NS, MAX_STEP_NS + 0.01, 0.0]))
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.sampled_from(["", "channel", "drive", "offsets_rel"]))
        target = scenario[where] if where else scenario
        if isinstance(target, dict):  # not replaced by junk already
            key = draw(st.sampled_from(sorted(target) + ["offsets", "fit_long", "shrot"]))
            target[key] = draw(st.sampled_from(_JUNK))
    return scenario


@settings(deadline=None, max_examples=100)
@given(tiny_simulate_scenarios())
def test_simulate_fuzzed_scenario_exits_cleanly(scenario):
    _exits_cleanly("simulate", ["simulate", "{dir}/scenario.json", "-o", "{dir}/out"],
                   {"scenario.json": json.dumps(scenario)})


# A roundtrip scenario that sets every key it accepts, and the keys whose
# absence is itself malformed (the others have defaults).
_ROUNDTRIP_BASE = {
    "system": {**EXPLICIT_FLIPCHIP, "coupler": {**EXPLICIT_FLIPCHIP["coupler"], "flux_offset": 0.0}},
    "channel": {"short": [{"p": -0.02, "tau_ns": 50.0}],
                "long": {"A": 1.01, "B": 0.99, "tau_us": 9.0}, "v_step": 1.0},
    "drive": {"t_pi_min_ns": 30.0, "t_pi_max_ns": 200.0, "ramp_end_ns": 2000.0,
              "sigma_fraction": 0.25},
    "repulsion_mhz": 50.0, "n_exp": 2, "threshold": 0.01, "dt_integration_ns": 0.5,
    "long_stage": {"delays_ns": {"start": 4000.0, "stop": 70000.0, "count": 5},
                   "offsets_rel": [-0.02, 0.0, 0.02]},
    "short_stage": {"delays_ns": [20.0, 100.0, 500.0],
                    "offsets_rel": {"start": -0.01, "stop": 0.05, "count": 7, "spacing": "linear"}},
    "validate": {"delays_ns": {"start": 30.0, "stop": 5000.0, "count": 4, "spacing": "log"},
                 "offsets_rel": [-0.02, 0.0, 0.02]},
}
_REQUIRED_KEYS = {
    "channel", "omega_q_ghz", "g_qc_ghz", "coupler", "f_max_ghz", "curvature_ghz",
    "p", "tau_ns", "A", "B", "tau_us", "start", "stop", "count",
}
_NUMBER_JUNK = st.sampled_from([None, "x", [], {}, [1.0], float("nan"), float("inf"), -float("inf")])
_OBJECT_JUNK = st.sampled_from([None, 1.0, "x", [], [{}]])
_GRID_JUNK = st.sampled_from([
    None, 1.0, "x", [1.0, None], [[1.0, 2.0]], [1.0, "y"], {"start": 1.0, "stop": 2.0},
    {"start": 1.0, "stop": 2.0, "count": 3, "spacing": "cubic"},
    {"start": "x", "stop": 2.0, "count": 3}, {"start": 1.0, "stop": 2.0, "count": None},
])
_UNKNOWN_KEYS = st.sampled_from(
    ["offsets", "fit_long", "regime", "shrot", "lnog", "t_pi_mn_ns", "asymetry", ""]
)


def _roundtrip_fields(obj, path=()):
    """(path, kind) of every field below ``obj``, objects included."""
    for key, value in obj.items():
        here = path + (key,)
        if key in ("delays_ns", "offsets_rel", "zpa_range"):
            yield here, "grid"
        elif key == "short":
            yield here, "terms"
            for k, term in enumerate(value):
                yield from _roundtrip_fields(term, here + (k,))
                yield here + (k,), "object"
        elif isinstance(value, dict):
            yield from _roundtrip_fields(value, here)
            yield here, "object"
        else:
            yield here, "number"


_MALFORMED = {
    "number": _NUMBER_JUNK,
    "grid": _GRID_JUNK,
    "object": _OBJECT_JUNK,
    "terms": st.sampled_from([None, 1.0, {"p": -0.02, "tau_ns": 50.0}, [None], ["x"]]),
}


@st.composite
def malformed_roundtrip_scenarios(draw):
    """The full roundtrip scenario above with one to three fields spoiled:
    junk of the wrong kind, an unknown key, or a required key removed."""
    scenario = json.loads(json.dumps(_ROUNDTRIP_BASE))
    fields = list(_roundtrip_fields(scenario))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(_MALFORMED)))
        path = draw(st.sampled_from([path for path, k in fields if k == kind]))
        parent = scenario
        try:
            for key in path[:-1]:
                parent = parent[key]
            value = parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier spoil removed or replaced the field
        how = draw(st.sampled_from(["junk", "unknown key", "remove"]))
        if how == "unknown key" and isinstance(value, dict):
            value[draw(_UNKNOWN_KEYS)] = 1.0
        elif how == "remove" and path[-1] in _REQUIRED_KEYS:
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_MALFORMED[kind])
    assume(scenario != _ROUNDTRIP_BASE)
    return scenario


@settings(deadline=None, max_examples=100)
@given(malformed_roundtrip_scenarios())
def test_roundtrip_malformed_scenario_fails_before_any_sweep(scenario):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(pipeline, "simulate_calibration", _no_sweep):
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        outdir = Path(tmp) / "out"
        code, err, caught = _run_quietly(["roundtrip", str(path), "-o", str(outdir)])
        assert not outdir.exists()
    assert (code, caught) == (1, [])
    assert err.count("\n") == 1 and err.startswith("fluxcal roundtrip: ")


# Numbers at the edges of the double range, signed zeros and sub-normals.
_EXTREMES = st.sampled_from(
    [0.0, -0.0, 5e-324, -1e-300, 1e-12, -1.0, 2.0, 1e300, -1e308, 1.7976931348623157e308]
)


@st.composite
def fuzzed_tables(draw, header, keys, values):
    """A two-column CSV file under ``header``: up to 12 rows of increasing
    ``keys`` and their ``values``, then possibly one key repeated or the
    rows put out of order, up to two fields set to extreme numbers, and up
    to two junk rows inserted or swapped in."""
    rows = [[key, draw(values)] for key in sorted(draw(st.lists(keys, max_size=12, unique=True)))]
    if len(rows) > 1:
        k = draw(st.integers(1, len(rows) - 1))
        how = draw(st.sampled_from(["keep", "repeat", "swap", "reverse"]))
        if how == "repeat":
            rows[k][0] = rows[k - 1][0]
        elif how == "swap":
            rows[k - 1], rows[k] = rows[k], rows[k - 1]
        elif how == "reverse":
            rows.reverse()
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        draw(st.sampled_from(rows))[draw(st.integers(0, 1))] = draw(_EXTREMES)
    lines = [f"{key!r},{value!r}" for key, value in rows]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines)))
        if draw(st.booleans()):
            lines.insert(k, draw(_JUNK_ROWS | st.just(header)))
        elif k < len(lines):
            lines[k] = draw(_JUNK_ROWS)
    return "".join(f"{line}\n" for line in [header, *lines])


def _exits_cleanly(command, argv, files):
    """Write ``files`` (name -> text, line ends kept) to a fresh directory,
    run ``argv`` there (``{dir}`` names it) and check the outcome: exit 0, 1
    or 2, and a failure ends in one line with no warning reaching the
    caller.  An uncaught exception ends the test, as a traceback ends the
    tool; a warning would reach the user's stderr as two more lines."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(Path(tmp) / name, "w", newline="") as fh:
                fh.write(text)
        code, err, caught = _run_quietly([arg.format(dir=tmp) for arg in argv])
    assert code in (0, 1, 2)
    if code:
        assert caught == []
        assert err.count("\n") == 1 and err.startswith(f"fluxcal {command}: ")




@settings(deadline=None, max_examples=100)
@given(
    fuzzed_tables("t_ns,v_oft", st.floats(0.0, 1e5), st.floats(-0.05, 0.05)),
    st.sampled_from(["short", "long"]),
    st.integers(1, 3),
)
def test_fit_fuzzed_run_exits_cleanly(text, regime, n_exp):
    _exits_cleanly("fit", [
        "fit", "{dir}/run.csv", "--regime", regime, "--n-exp", str(n_exp), "--v-step", "0.3",
        "-o", "{dir}/model.json",
    ], {"run.csv": text})




@settings(deadline=None, max_examples=100)
@given(
    st.lists(fuzzed_tables("n,fidelity", st.integers(0, 500), st.floats(0.0, 1.0)),
             min_size=2, max_size=3),
    st.booleans(),
)
def test_analyze_fuzzed_decays_exit_cleanly(texts, rb):
    # rb takes one reference file, xeb one or two.
    files = {f"decay{k}.csv": text for k, text in enumerate(texts)}
    references = [f"{{dir}}/{name}" for name in list(files)[1:]]
    _exits_cleanly("analyze", [
        "analyze", "--scheme", "rb" if rb and len(references) == 1 else "xeb",
        "--gate", "{dir}/decay0.csv", "--reference", *references,
        "-o", "{dir}/report.json",
    ], files)
