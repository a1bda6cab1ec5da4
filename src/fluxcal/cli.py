"""Command-line front end binding the modules into reproducible runs.

Subcommands: fit, predistort, simulate, analyze, roundtrip.  All inputs
and outputs are files; every JSON report embeds the tool version, SHA-256
digests of the inputs, and the settings used, and all floats are written
with 17 significant digits so identical inputs and seed reproduce
byte-identical artifacts.

Exit codes: 0 success, 1 usage or I/O error (an input not in its documented
form, including a nan or inf CSV field), 2 numerical failure (a well-formed
input on which the computation fails, including floating-point overflow).
The ``FLUXCAL_SEED`` environment variable overrides any ``--seed`` flag.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    fit_decay,
    rb_fidelity,
    read_decay_csv,
    xeb_fidelity,
    xeb_parallel_combine,
)
from .errors import FluxcalError
from .fitting import (
    fit_long_time,
    fit_short_time,
    read_calibration_csv,
    write_calibration_csv,
)
from .models import CombinedResponse, model_from_dict, model_to_dict
from .predistort import apply_channel, full_pipeline
from .serialize import load_json, write_json
from .signal import heaviside_step, read_waveform_csv, write_waveform_csv
from .simulator import (
    MAX_STEP_NS,
    CouplerMap,
    DriveSchedule,
    SystemParams,
    find_working_point,
    long_time_schedule,
    simulate_calibration,
)
from . import presets

USAGE_EXIT = 1
NUMERICAL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1, not argparse's default 2 (2 means numerical here).
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _provenance(inputs: dict, settings: dict) -> dict:
    return {
        "tool": "fluxcal",
        "version": __version__,
        "inputs": {
            name: {"path": str(path), "sha256": _sha256(path)}
            for name, path in inputs.items()
        },
        "settings": settings,
    }


def _resolve_seed(flag_value: int) -> int:
    raw = os.environ.get("FLUXCAL_SEED")
    if raw is None:
        return flag_value
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"FLUXCAL_SEED must be an integer, got {raw!r}") from None


def _parse_grid(spec, name: str) -> np.ndarray:
    if isinstance(spec, (list, tuple)):
        return np.asarray(spec, dtype=float)
    if isinstance(spec, dict):
        try:
            start, stop, count = float(spec["start"]), float(spec["stop"]), int(spec["count"])
        except KeyError as exc:
            raise ValueError(f"{name}: grid object needs start/stop/count ({exc})") from None
        spacing = spec.get("spacing", "linear")
        if spacing == "linear":
            return np.linspace(start, stop, count)
        if spacing == "log":
            return np.geomspace(start, stop, count)
        raise ValueError(f"{name}: unknown spacing {spacing!r}")
    raise ValueError(f"{name}: expected a list or a start/stop/count object")


def _system_from_spec(spec) -> SystemParams:
    if spec == "planar":
        return presets.planar_system()
    if spec == "flipchip":
        return presets.flipchip_system()
    if isinstance(spec, dict):
        cm = spec["coupler"]
        coupler = CouplerMap(
            f_max_ghz=float(cm["f_max_ghz"]),
            curvature_ghz=float(cm["curvature_ghz"]),
            asymmetry=float(cm.get("asymmetry", 0.0)),
            zpa_to_flux=float(cm.get("zpa_to_flux", 1.0)),
            flux_offset=float(cm.get("flux_offset", 0.0)),
            zpa_range=tuple(float(v) for v in cm.get("zpa_range", (0.0, 0.5))),
        )
        return SystemParams(
            omega_q_ghz=float(spec["omega_q_ghz"]),
            g_qc_ghz=float(spec["g_qc_ghz"]),
            coupler=coupler,
            coeff_zxtalk=float(spec.get("coeff_zxtalk", 0.0)),
            qubit_zpa_slope_ghz=float(spec.get("qubit_zpa_slope_ghz", 0.0)),
        )
    raise ValueError(f"system must be 'planar', 'flipchip', or an object, got {spec!r}")


_SCHEDULE_KEYS = ("t_pi_min_ns", "t_pi_max_ns", "ramp_end_ns", "sigma_fraction")
_SIMULATE_KEYS = (
    "system", "channel", "drive", "delays_ns", "offsets", "offsets_rel",
    "dt_integration_ns", "input_waveform_csv",
)
_ROUNDTRIP_KEYS = (
    "system", "channel", "drive", "repulsion_mhz", "n_exp", "threshold",
    "dt_integration_ns", "fit_long", "long_stage", "short_stage", "validate",
)


def _reject_unknown_keys(spec: dict, accepted, name: str) -> None:
    unknown = set(spec) - set(accepted)
    if unknown:
        raise ValueError(f"{name}: unknown keys {sorted(unknown)}")


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"--threads must be >= 1, got {threads}")


def _integration_step(scenario: dict) -> float:
    dt = float(scenario.get("dt_integration_ns", MAX_STEP_NS))
    if not 0.0 < dt <= MAX_STEP_NS:
        raise ValueError(f"dt_integration_ns must be in (0, {MAX_STEP_NS}] ns, got {dt}")
    return dt


def _schedule_from_spec(spec: dict) -> DriveSchedule:
    regime = spec.get("regime", "short")
    _reject_unknown_keys(spec, ("regime", *_SCHEDULE_KEYS), "drive")
    kwargs = {k: float(spec[k]) for k in _SCHEDULE_KEYS if k in spec}
    return DriveSchedule(regime=regime, **kwargs)


def _offsets_from_scenario(scenario: dict, v_step: float, name: str = "offsets") -> np.ndarray:
    has_abs = name in scenario
    has_rel = f"{name}_rel" in scenario
    if has_abs == has_rel:
        raise ValueError(f"scenario needs exactly one of '{name}' or '{name}_rel'")
    if has_abs:
        return _parse_grid(scenario[name], name)
    return _parse_grid(scenario[f"{name}_rel"], f"{name}_rel") * v_step


def cmd_fit(args) -> int:
    run = read_calibration_csv(args.input, v_step=args.v_step, regime=args.regime)
    seed = _resolve_seed(args.seed)
    if args.regime == "short":
        model, diag = fit_short_time(
            run,
            n_terms=args.n_exp,
            rms_threshold=args.rms_threshold,
            seed=seed,
            full_output=True,
        )
        resp = CombinedResponse(short=model, long=None, v_step=args.v_step)
    else:
        model, diag = fit_long_time(
            run, rms_threshold=args.rms_threshold, full_output=True
        )
        resp = CombinedResponse(short=None, long=model, v_step=args.v_step)
    payload = model_to_dict(resp)
    payload["meta"] = {
        "regime": args.regime,
        "residual_rms": diag.residual_rms,
        "n_starts": diag.n_starts,
        "degenerate": diag.degenerate,
        "messages": list(diag.messages),
        "provenance": _provenance(
            {"run": args.input},
            {
                "regime": args.regime,
                "n_exp": args.n_exp,
                "v_step": args.v_step,
                "rms_threshold": args.rms_threshold,
                "seed": seed,
            },
        ),
    }
    write_json(args.output, payload)
    print(f"wrote {args.output} (residual rms {diag.residual_rms:.3g})")
    return 0


def cmd_predistort(args) -> int:
    target = read_waveform_csv(args.input)
    resp = model_from_dict(load_json(args.model))
    out = full_pipeline(target, resp)
    write_waveform_csv(args.output, out)

    # Forward check: run the result through the model channel and compare.
    check = apply_channel(out, resp)
    dev = np.abs(check.samples - target.samples) / abs(resp.v_step)
    settle = 2
    max_residual = float(np.max(dev[settle:])) if dev.size > settle else float(np.max(dev))
    sidecar = {
        "model": model_to_dict(resp),
        "forward_check": {
            "max_residual_fraction_after_2dt": max_residual,
            "dt_ns": target.dt_ns,
            "n_samples": len(target),
        },
        "provenance": _provenance({"target": args.input, "model": args.model}, {}),
    }
    write_json(Path(args.output).with_suffix(".json"), sidecar)
    print(f"wrote {args.output} (forward-check residual {max_residual:.3g} of v_step)")
    return 0


def _channel_from_scenario(scenario: dict, v_step: float | None = None) -> CombinedResponse:
    chan = scenario.get("channel")
    if not isinstance(chan, dict):
        raise ValueError("scenario needs a 'channel' model object")
    resp = model_from_dict(chan)
    if v_step is None:
        return resp
    return CombinedResponse(short=resp.short, long=resp.long, v_step=v_step)


def cmd_simulate(args) -> int:
    _check_threads(args.threads)
    scenario = load_json(args.scenario)
    _reject_unknown_keys(scenario, _SIMULATE_KEYS, "scenario")
    params = _system_from_spec(scenario.get("system", "planar"))
    channel = _channel_from_scenario(scenario)
    schedule = _schedule_from_spec(scenario.get("drive", {}))
    delays = _parse_grid(scenario["delays_ns"], "delays_ns")
    offsets = _offsets_from_scenario(scenario, channel.v_step)
    dt_int = _integration_step(scenario)

    input_waveform = None
    inputs = {"scenario": args.scenario}
    if "input_waveform_csv" in scenario:
        wf_path = Path(args.scenario).parent / scenario["input_waveform_csv"]
        input_waveform = read_waveform_csv(wf_path)
        inputs["input_waveform"] = wf_path

    run, report = simulate_calibration(
        params,
        schedule,
        channel,
        delays,
        offsets,
        input_waveform=input_waveform,
        dt_integration_ns=dt_int,
        threads=args.threads,
        full_output=True,
    )

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_calibration_csv(outdir / "run.csv", run)
    payload = {
        "regime": run.regime,
        "v_step": run.v_step,
        "reference_zpa": report.reference_zpa,
        "drive_frequency_ghz": report.omega_drive_ghz,
        "rwa": {
            "passed": report.rwa.passed,
            "ratio": report.rwa.ratio,
            "margin_factor": report.rwa.margin_factor,
        },
        "t_pi_ns": list(report.t_pi_ns),
        "grid": {
            "n_delays": int(delays.size),
            "n_offsets": int(offsets.size),
            "delay_span_ns": [float(delays[0]), float(delays[-1])],
            "offset_span": [float(offsets[0]), float(offsets[-1])],
            "dt_integration_ns": dt_int,
        },
        "provenance": _provenance(inputs, {"threads": args.threads}),
    }
    write_json(outdir / "report.json", payload)
    print(f"wrote {outdir}/run.csv and {outdir}/report.json")
    return 0


def cmd_analyze(args) -> int:
    if args.scheme == "rb" and len(args.reference) != 1:
        raise ValueError("rb takes exactly one reference decay file")
    if args.scheme == "xeb" and len(args.reference) not in (1, 2):
        raise ValueError("xeb takes one combined or two single-qubit reference files")

    n_gate, f_gate = read_decay_csv(args.gate)
    gate_fit = fit_decay(n_gate, f_gate)
    component_fits = []
    for path in args.reference:
        n_ref, f_ref = read_decay_csv(path)
        component_fits.append(fit_decay(n_ref, f_ref))
    if len(component_fits) == 2:
        ref_fit = xeb_parallel_combine(component_fits[0], component_fits[1])
    else:
        ref_fit = component_fits[0]

    if args.scheme == "rb":
        estimate = rb_fidelity(gate_fit, ref_fit, dimension=args.dimension)
    else:
        estimate = xeb_fidelity(gate_fit, ref_fit, dimension=args.dimension)

    def fit_block(fit):
        return {
            "amplitude": fit.amplitude,
            "p": fit.p,
            "offset": fit.offset,
            "sigma_p": fit.sigma_p,
        }

    inputs = {"gate": args.gate}
    for i, path in enumerate(args.reference):
        inputs[f"reference_{i}"] = path
    payload = {
        "scheme": estimate.scheme,
        "dimension": estimate.dimension,
        "gate": fit_block(gate_fit),
        "reference": fit_block(ref_fit),
        "fidelity": estimate.fidelity,
        "sigma": estimate.sigma,
        "provenance": _provenance(inputs, {"scheme": args.scheme, "dimension": args.dimension}),
    }
    if len(component_fits) == 2:
        payload["reference_components"] = [fit_block(f) for f in component_fits]
    write_json(args.output, payload)
    print(f"{estimate.scheme} fidelity {estimate.fidelity:.6f} +- {estimate.sigma:.2g}")
    return 0


def _stage_grids(scenario: dict, stage: str, defaults: dict, v_step: float):
    spec = scenario.get(stage, {})
    if not isinstance(spec, dict):
        raise ValueError(f"{stage}: expected an object")
    _reject_unknown_keys(spec, ("delays_ns", "offsets", "offsets_rel"), stage)
    delays = _parse_grid(spec.get("delays_ns", defaults["delays_ns"]), f"{stage}.delays_ns")
    if "offsets" in spec or "offsets_rel" in spec:
        offsets = _offsets_from_scenario(spec, v_step)
    else:
        offsets = np.asarray(defaults["offsets_rel"], dtype=float) * v_step
    return delays, offsets


def cmd_roundtrip(args) -> int:
    _check_threads(args.threads)
    scenario = load_json(args.scenario)
    _reject_unknown_keys(scenario, _ROUNDTRIP_KEYS, "scenario")
    params = _system_from_spec(scenario.get("system", "planar"))
    repulsion_ghz = float(scenario.get("repulsion_mhz", 50.0)) / 1000.0
    z_work = find_working_point(params, repulsion_ghz)
    channel = _channel_from_scenario(scenario, v_step=z_work)
    n_exp = int(scenario.get("n_exp", 3))
    threshold = float(scenario.get("threshold", 0.01))
    dt_int = _integration_step(scenario)
    seed = _resolve_seed(args.seed)
    fit_long = bool(scenario.get("fit_long", channel.long is not None))

    # Every stage's grid is read before the first sweep, so a bad stage
    # object fails at once.  The long stage's span must exceed 3 tau for
    # fit_long_time; 70 us covers the planar preset's 18.7 us.
    long_grids = _stage_grids(
        scenario,
        "long_stage",
        {
            "delays_ns": {"start": 4000.0, "stop": 70000.0, "count": 25},
            "offsets_rel": np.linspace(-0.022, 0.022, 41),
        },
        z_work,
    )
    short_delays, short_offsets = _stage_grids(
        scenario,
        "short_stage",
        {
            "delays_ns": {"start": 20.0, "stop": 5000.0, "count": 30, "spacing": "log"},
            "offsets_rel": np.linspace(-0.012, 0.052, 41),
        },
        z_work,
    )
    delays_val, offsets_val = _stage_grids(
        scenario,
        "validate",
        {
            "delays_ns": {
                "start": 30.0,
                "stop": 38000.0 if fit_long else 5000.0,
                "count": 16,
                "spacing": "log",
            },
            "offsets_rel": np.linspace(-0.02, 0.02, 41),
        },
        z_work,
    )

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    # Stage 1: delays past the fast transients isolate the slow settling.
    long_model = None
    if fit_long:
        run_long = simulate_calibration(
            params,
            long_time_schedule(),
            channel,
            *long_grids,
            dt_integration_ns=dt_int,
            threads=args.threads,
        )
        write_calibration_csv(outdir / "long_run.csv", run_long)
        long_model = fit_long_time(run_long)
        write_json(
            outdir / "long_model.json",
            model_to_dict(CombinedResponse(short=None, long=long_model, v_step=z_work)),
        )

    # Stage 2: probe the fast transients through the slow-settling
    # correction so the short fit sees only what remains.
    step_span_ns = float(short_delays[-1]) + 1000.0
    probe = heaviside_step(z_work, step_span_ns, 1.0)
    if long_model is not None:
        lt_only = CombinedResponse(short=None, long=long_model, v_step=z_work)
        probe = full_pipeline(probe, lt_only)
    run_short = simulate_calibration(
        params,
        _schedule_from_spec(scenario.get("drive", {"regime": "short"})),
        channel,
        short_delays,
        short_offsets,
        input_waveform=probe,
        dt_integration_ns=dt_int,
        threads=args.threads,
    )
    write_calibration_csv(outdir / "short_run.csv", run_short)
    short_model = fit_short_time(run_short, n_terms=n_exp, seed=seed)
    fitted = CombinedResponse(short=short_model, long=long_model, v_step=z_work)
    write_json(outdir / "model.json", model_to_dict(fitted))

    # Stage 3: predistort with the fitted model and check the channel
    # output is flat at the working point everywhere in the sweep.
    target = heaviside_step(z_work, float(delays_val[-1]) + 2000.0, 1.0)
    predistorted = full_pipeline(target, fitted)
    write_waveform_csv(outdir / "predistorted.csv", predistorted)
    run_val = simulate_calibration(
        params,
        DriveSchedule(regime="short"),
        channel,
        delays_val,
        offsets_val,
        input_waveform=predistorted,
        dt_integration_ns=dt_int,
        threads=args.threads,
    )
    write_calibration_csv(outdir / "validation_run.csv", run_val)

    max_residual = float(np.max(np.abs(run_val.compensation)) / abs(z_work))
    passed = max_residual < threshold
    payload = {
        "reference_zpa": z_work,
        "repulsion_mhz": repulsion_ghz * 1000.0,
        "fitted_model": model_to_dict(fitted),
        "max_residual_fraction": max_residual,
        "threshold": threshold,
        "passed": passed,
        "stages": {
            "long": {"enabled": fit_long},
            "short": {"n_exp": n_exp},
            "validate": {"n_delays": int(delays_val.size)},
        },
        "provenance": _provenance(
            {"scenario": args.scenario},
            {
                "threads": args.threads,
                "seed": seed,
                "dt_integration_ns": dt_int,
            },
        ),
    }
    write_json(outdir / "report.json", payload)
    status = "PASS" if passed else "FAIL"
    print(f"{status}: max residual {max_residual:.3g} of v_step (threshold {threshold})")
    return 0 if passed else NUMERICAL_EXIT


_THREADS_HELP = (
    "delay workers (processes, forked per sweep; capped at the delay count and "
    "the usable CPUs). Results are byte-identical for any count; each sweep pays "
    "a start-up cost, so use 1 on a single CPU. Default 1"
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fluxcal",
        description="Flux-pulse distortion calibration and predistortion toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"fluxcal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a distortion model to a calibration run CSV")
    p_fit.add_argument("input", help="calibration run CSV (t_ns,v_oft)")
    p_fit.add_argument("--regime", choices=("short", "long"), required=True)
    p_fit.add_argument("--v-step", type=float, required=True, dest="v_step",
                       help="probing step amplitude the run was taken with")
    p_fit.add_argument("--n-exp", type=int, default=3, dest="n_exp",
                       help="number of exponential terms (short regime only)")
    p_fit.add_argument("--rms-threshold", type=float, default=0.05, dest="rms_threshold")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--output", "-o", required=True, help="model JSON path")
    p_fit.set_defaults(func=cmd_fit)

    p_pre = sub.add_parser("predistort", help="predistort a target waveform with a model")
    p_pre.add_argument("input", help="target waveform CSV (t_ns,amplitude)")
    p_pre.add_argument("--model", required=True, help="model JSON from 'fit'")
    p_pre.add_argument("--output", "-o", required=True, help="output waveform CSV")
    p_pre.set_defaults(func=cmd_predistort)

    p_sim = sub.add_parser("simulate", help="run a simulated calibration sweep")
    p_sim.add_argument("scenario", help="scenario JSON")
    p_sim.add_argument("--output-dir", "-o", required=True, dest="output_dir")
    p_sim.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p_sim.set_defaults(func=cmd_simulate)

    p_ana = sub.add_parser("analyze", help="compute gate fidelity from decay CSVs")
    p_ana.add_argument("--scheme", choices=("rb", "xeb"), required=True)
    p_ana.add_argument("--gate", required=True, help="interleaved decay CSV (n,fidelity)")
    p_ana.add_argument("--reference", nargs="+", required=True,
                       help="reference decay CSV(s); two files are combined (xeb)")
    p_ana.add_argument("--dimension", "-D", type=int, default=4)
    p_ana.add_argument("--output", "-o", required=True, help="report JSON path")
    p_ana.set_defaults(func=cmd_analyze)

    p_rt = sub.add_parser(
        "roundtrip",
        help="simulate, fit, predistort, and revalidate a channel end to end",
    )
    p_rt.add_argument("scenario", help="scenario JSON with system and true channel")
    p_rt.add_argument("--output-dir", "-o", required=True, dest="output_dir")
    p_rt.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p_rt.add_argument("--seed", type=int, default=0)
    p_rt.set_defaults(func=cmd_roundtrip)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Arithmetic that leaves the double range (inputs scaled near 1e308,
        # or a 1e-300 ns sample spacing) fails in one line, not with a numpy
        # warning followed by a later, less specific error.
        # simulate_calibration hands this state to its --threads workers.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except FluxcalError as exc:
        print(f"fluxcal {args.command}: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except FloatingPointError as exc:
        print(f"fluxcal {args.command}: floating-point {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except (OSError, ValueError) as exc:
        print(f"fluxcal {args.command}: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except KeyError as exc:
        print(f"fluxcal {args.command}: missing required key {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
