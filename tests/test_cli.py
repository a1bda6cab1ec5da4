import contextlib
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxcal import presets
from fluxcal.analysis import write_decay_csv
from fluxcal.cli import main
from fluxcal.fitting import synthesize_calibration_run, write_calibration_csv
from fluxcal.models import CombinedResponse, model_to_dict
from fluxcal.serialize import write_json
from fluxcal.signal import heaviside_step, read_waveform_csv, write_waveform_csv


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
    for name, text in (("empty.csv", "t_ns,v_oft\n"), ("header.csv", "delay,comp\n1,0\n2,0\n")):
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


def test_fit_seed_env_override(tmp_path, flipchip_run_csv, monkeypatch):
    monkeypatch.setenv("FLUXCAL_SEED", "77")
    out = tmp_path / "model.json"
    assert main([
        "fit", str(flipchip_run_csv), "--regime", "short", "--n-exp", "2",
        "--v-step", "0.3", "--seed", "3", "-o", str(out),
    ]) == 0
    meta = json.loads(out.read_text())["meta"]
    assert meta["provenance"]["settings"]["seed"] == 77


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
    oddities = st.sampled_from(
        ["", " ", "1", "1,", ",1", "1,2,3", "x,1", "1,x", "nan,1", "1,inf", "1_0,1", "\u0661,1",
         '"1",1', '"1,1', "# note", "\x00", "t_ns,amplitude", "t_ns;amplitude"]
    )
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
    with tempfile.TemporaryDirectory() as tmp:
        target, model_path = Path(tmp) / "target.csv", Path(tmp) / "model.json"
        with open(target, "w", newline="") as fh:
            fh.write(text)
        write_json(model_path, model)
        err = io.StringIO()
        # An uncaught exception ends the test here, as a traceback ends the
        # tool; a warning would reach the user's stderr as two more lines.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([
                "predistort", str(target), "--model", str(model_path), "-o", str(Path(tmp) / "out.csv"),
            ])
    assert code in (0, 1, 2)
    if code:
        assert [str(w.message) for w in caught] == []
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("fluxcal predistort: ")


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


@pytest.mark.parametrize("command, extra, message", [
    ("simulate", {"regularization": 1e-6}, "scenario: unknown keys ['regularization']"),
    ("roundtrip", {"regularization": 1e-6, "n_exps": 2},
     "scenario: unknown keys ['n_exps', 'regularization']"),
    ("roundtrip", {"delays_ns": [60.0, 150.0]}, "scenario: unknown keys ['delays_ns']"),
    ("simulate", {"dt_integration_ns": 0.51}, "dt_integration_ns must be in (0, 0.5] ns, got 0.51"),
    ("roundtrip", {"dt_integration_ns": 0.0}, "dt_integration_ns must be in (0, 0.5] ns, got 0.0"),
    ("roundtrip", {"short_stage": {"delay_ns": [20.0, 40.0, 80.0]}},
     "short_stage: unknown keys ['delay_ns']"),
    ("roundtrip", {"validate": {"delays_ns": [30.0, 60.0], "offset_rel": [-0.02, 0.0, 0.02]}},
     "validate: unknown keys ['offset_rel']"),
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


@pytest.mark.parametrize("command", ["simulate", "roundtrip"])
def test_threads_below_one_is_one_line_usage_error(tmp_path, capsys, command):
    scenario = {"system": "flipchip", "channel": {"v_step": 0.42}}
    if command == "simulate":
        scenario.update(delays_ns=[60.0, 150.0], offsets_rel={"start": -0.01, "stop": 0.01, "count": 11})
    path = tmp_path / "scenario.json"
    write_json(path, scenario)
    outdir = tmp_path / "out"
    for threads in (0, -1):
        assert main([command, str(path), "-o", str(outdir), "--threads", str(threads)]) == 1
        assert capsys.readouterr().err == f"fluxcal {command}: --threads must be >= 1, got {threads}\n"
    assert not outdir.exists()


def test_simulate_worker_failure_is_one_line_numerical_failure(tmp_path, capsys):
    # The true compensation is about 0, so an all-positive offset grid puts
    # every delay's peak on its edge; the earliest delay is reported.
    path = tmp_path / "scenario.json"
    write_json(path, {
        "system": "flipchip", "channel": {"v_step": 0.42},
        "delays_ns": [100.0, 110.0, 120.0],
        "offsets_rel": {"start": 0.01, "stop": 0.05, "count": 9},
    })
    assert main(["simulate", str(path), "-o", str(tmp_path / "sim"), "--threads", "2"]) == 2
    assert capsys.readouterr().err == (
        "fluxcal simulate: P1 maximum sits at the offset-sweep edge for delay 100.0 ns; "
        "widen the offset grid\n"
    )


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
    assert report["passed"] and report["provenance"]["settings"]["dt_integration_ns"] == 0.5


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
