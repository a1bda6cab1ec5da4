"""Command-line front end binding the modules into reproducible runs.

Subcommands: fit, predistort, simulate, analyze, roundtrip.  All inputs
and outputs are files; every JSON report embeds the tool version, SHA-256
digests of the inputs, and the settings used, and all floats are written
with 17 significant digits so identical inputs reproduce byte-identical
artifacts.  The commands only read and check their inputs,
call the library, and write the results: ``roundtrip`` runs
``fluxcal.pipeline.roundtrip`` and writes its artifacts only once the loop
has finished, passed or not.

Exit codes: 0 success, 1 usage or I/O error (an input not in its documented
form: a nan or inf CSV field, a CSV time column out of order or a waveform's
not starting at 0 ns, a scenario or model object with an unknown key, a
JSON field that is not a finite number where one is expected, a grid count
or ``n_exp`` (``--n-exp``) that is not an integer in range, a delay or
offset grid that is not increasing or has too few points, a log grid whose
start and stop are 0 or of two signs, a ``simulate`` channel whose
``v_step`` is negative, a
``zpa_range`` that is not a list of two numbers, an ``--rms-threshold``
that is not a finite number above 0, a ``--dimension`` below 2, a decay
file that breaks the decay fit's rules, a model, system or drive value
that breaks its object's own checks, a ``predistort`` output whose .json
sidecar would overwrite the output or an input), 2
numerical failure (a well-formed input on which the computation fails,
including floating-point overflow).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import warnings
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
    REGIMES,
    fit_long_time,
    fit_short_time,
    read_calibration_csv,
    write_calibration_csv,
)
from .models import MAX_SHORT_TERMS, CombinedResponse, model_from_dict, model_to_dict
from .pipeline import roundtrip
from .predistort import apply_channel, full_pipeline
from .serialize import _check_object, _finite_float, _usage_error, load_json, write_json
from .signal import read_waveform_csv, write_waveform_csv
from .simulator import (
    MAX_STEP_NS,
    CouplerMap,
    DriveSchedule,
    SystemParams,
    _sweep_grid,
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


def _number(spec: dict, key: str, default=None, where: str = "") -> float:
    """``spec[key]`` as a finite float, ``default`` when the key is absent
    and a default is given; ``where`` prefixes the field's name."""
    value = spec[key] if default is None else spec.get(key, default)
    return _finite_float(value, where + key)


def _integer(spec: dict, key: str, top: int, default=None, where: str = "") -> int:
    """``spec[key]`` as an int from 1 to ``top``; a non-integral number is
    rejected, not truncated."""
    value = _number(spec, key, default, where)
    if value != int(value) or not 1 <= value <= top:
        raise ValueError(
            f"{where}{key}: expected an integer from 1 to {top}, got {spec.get(key, default)!r}"
        )
    return int(value)


# Points in one grid: 25 times the largest default grid, and small enough
# that a sweep's arrays stay in the tens of MB.
MAX_GRID_POINTS = 1000


def _parse_grid(spec, name: str) -> np.ndarray:
    if isinstance(spec, (list, tuple)):
        if len(spec) > MAX_GRID_POINTS:
            raise ValueError(f"{name}: at most {MAX_GRID_POINTS} values, got {len(spec)}")
        return np.array([_finite_float(value, name) for value in spec], dtype=float)
    if isinstance(spec, dict):
        _check_object(spec, ("start", "stop", "count", "spacing"), name)
        try:
            start, stop = (_number(spec, key, where=f"{name}.") for key in ("start", "stop"))
            count = _integer(spec, "count", MAX_GRID_POINTS, where=f"{name}.")
        except KeyError as exc:
            raise ValueError(f"{name}: grid object needs start/stop/count ({exc})") from None
        spacing = spec.get("spacing", "linear")
        if spacing == "linear":
            return np.linspace(start, stop, count)
        if spacing == "log":
            if min(start, stop) <= 0 <= max(start, stop):
                raise ValueError(
                    f"{name}: a log grid needs a nonzero start and stop of one sign, "
                    f"got start {start} and stop {stop}"
                )
            return np.geomspace(start, stop, count)
        raise ValueError(f"{name}: unknown spacing {spacing!r}")
    raise ValueError(f"{name}: expected a list or a start/stop/count object")


_SYSTEM_KEYS = ("omega_q_ghz", "g_qc_ghz", "coupler", "coeff_zxtalk", "qubit_zpa_slope_ghz")
_COUPLER_KEYS = (
    "f_max_ghz", "curvature_ghz", "asymmetry", "zpa_to_flux", "flux_offset", "zpa_range",
)


def _system_from_spec(spec) -> SystemParams:
    if spec == "planar":
        return presets.planar_system()
    if spec == "flipchip":
        return presets.flipchip_system()
    if isinstance(spec, dict):
        _check_object(spec, _SYSTEM_KEYS, "system")
        cm = _check_object(spec["coupler"], _COUPLER_KEYS, "system.coupler")
        where = "system.coupler."
        zpa_range = cm.get("zpa_range", [0.0, 0.5])
        if not isinstance(zpa_range, list):
            raise ValueError(f"{where}zpa_range: expected a list of two numbers, got {zpa_range!r}")
        coupler = _usage_error(
            "system.coupler",
            CouplerMap,
            f_max_ghz=_number(cm, "f_max_ghz", where=where),
            curvature_ghz=_number(cm, "curvature_ghz", where=where),
            asymmetry=_number(cm, "asymmetry", 0.0, where),
            zpa_to_flux=_number(cm, "zpa_to_flux", 1.0, where),
            flux_offset=_number(cm, "flux_offset", 0.0, where),
            zpa_range=tuple(_finite_float(value, f"{where}zpa_range") for value in zpa_range),
        )
        return _usage_error(
            "system",
            SystemParams,
            omega_q_ghz=_number(spec, "omega_q_ghz", where="system."),
            g_qc_ghz=_number(spec, "g_qc_ghz", where="system."),
            coupler=coupler,
            coeff_zxtalk=_number(spec, "coeff_zxtalk", 0.0, "system."),
            qubit_zpa_slope_ghz=_number(spec, "qubit_zpa_slope_ghz", 0.0, "system."),
        )
    raise ValueError(f"system must be 'planar', 'flipchip', or an object, got {spec!r}")


_SCHEDULE_KEYS = ("t_pi_min_ns", "t_pi_max_ns", "ramp_end_ns", "sigma_fraction")
_SIMULATE_KEYS = (
    "system", "channel", "drive", "delays_ns", "offsets_rel", "dt_integration_ns",
    "input_waveform_csv",
)
_ROUNDTRIP_KEYS = (
    "system", "channel", "drive", "repulsion_mhz", "n_exp", "threshold",
    "dt_integration_ns", "long_stage", "short_stage", "validate",
)


# The sweep grid that each scenario grid key holds.
_GRID_KINDS = {"delays_ns": "delays", "offsets_rel": "offsets"}


def _sweep_grid_spec(spec: dict, key: str, where: str = "") -> np.ndarray:
    """``spec[key]``, a ``delays_ns`` or ``offsets_rel`` grid, parsed and
    checked by the sweep's own rule before any sweep runs; ``where``
    prefixes the field's name."""
    name = where + key
    return _usage_error(name, _sweep_grid, _parse_grid(spec[key], name), _GRID_KINDS[key])


def _integration_step(scenario: dict) -> float:
    dt = _number(scenario, "dt_integration_ns", MAX_STEP_NS)
    if not 0.0 < dt <= MAX_STEP_NS:
        raise ValueError(f"dt_integration_ns must be in (0, {MAX_STEP_NS}] ns, got {dt}")
    return dt


def _schedule_from_spec(spec, keys=("regime", *_SCHEDULE_KEYS)) -> DriveSchedule:
    """The ``drive`` object as a schedule; ``keys`` are the keys it takes
    (a roundtrip's takes no ``regime``: its short stage needs "short")."""
    _check_object(spec, keys, "drive")
    regime = spec.get("regime", "short")
    if regime not in REGIMES:
        raise ValueError(f"drive: regime must be one of {REGIMES}, got {regime!r}")
    kwargs = {k: _number(spec, k, where="drive.") for k in _SCHEDULE_KEYS if k in spec}
    return _usage_error("drive", DriveSchedule, regime=regime, **kwargs)


def cmd_fit(args) -> int:
    if not 1 <= args.n_exp <= MAX_SHORT_TERMS:
        raise ValueError(
            f"--n-exp: expected an integer from 1 to {MAX_SHORT_TERMS}, got {args.n_exp}"
        )
    if not 0.0 < args.rms_threshold < np.inf:
        raise ValueError(f"--rms-threshold: expected a finite number > 0, got {args.rms_threshold}")
    run = read_calibration_csv(args.input, v_step=args.v_step, regime=args.regime)
    if args.regime == "short":
        model, diag = fit_short_time(run, n_terms=args.n_exp, rms_threshold=args.rms_threshold)
        resp = CombinedResponse(short=model, long=None, v_step=args.v_step)
    else:
        model, diag = fit_long_time(run, rms_threshold=args.rms_threshold)
        resp = CombinedResponse(short=None, long=model, v_step=args.v_step)
    payload = model_to_dict(resp)
    payload["meta"] = {
        "regime": args.regime,
        "residual_rms": diag.residual_rms,
        "n_starts": diag.n_starts,
        "n_dropped_starts": diag.n_dropped_starts,
        "degenerate": diag.degenerate,
        "messages": list(diag.messages),
        "provenance": _provenance(
            {"run": args.input},
            {
                "regime": args.regime,
                "n_exp": args.n_exp,
                "v_step": args.v_step,
                "rms_threshold": args.rms_threshold,
            },
        ),
    }
    write_json(args.output, payload)
    print(f"wrote {args.output} (residual rms {diag.residual_rms:.3g})")
    return 0


def cmd_predistort(args) -> int:
    sidecar_path = Path(args.output).with_suffix(".json")
    for role, path in (("output", args.output), ("target", args.input), ("model", args.model)):
        if sidecar_path.resolve() == Path(path).resolve():
            raise ValueError(
                f"the sidecar {sidecar_path} would overwrite the {role} file; "
                "give --output a name whose .json twin is free"
            )
    target = read_waveform_csv(args.input)
    resp = model_from_dict(load_json(args.model), "model")
    out = full_pipeline(target, resp)
    write_waveform_csv(args.output, out)

    # Forward check: run the result through the model channel and compare.
    check = apply_channel(out, resp)
    dev = check.samples - target.samples
    np.abs(dev, out=dev)
    dev /= abs(resp.v_step)
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
    write_json(sidecar_path, sidecar)
    print(f"wrote {args.output} (forward-check residual {max_residual:.3g} of v_step)")
    return 0


def cmd_simulate(args) -> int:
    scenario = _check_object(load_json(args.scenario), _SIMULATE_KEYS, "scenario")
    params = _system_from_spec(scenario.get("system", "planar"))
    channel = model_from_dict(scenario["channel"], "channel")
    if channel.v_step < 0:
        raise ValueError(
            f"channel.v_step: the sweep needs v_step > 0 (offsets_rel are fractions of it), "
            f"got {channel.v_step}"
        )
    schedule = _schedule_from_spec(scenario.get("drive", {}))
    delays = _sweep_grid_spec(scenario, "delays_ns")
    offsets = _sweep_grid_spec(scenario, "offsets_rel") * channel.v_step
    dt_int = _integration_step(scenario)

    input_waveform = None
    inputs = {"scenario": args.scenario}
    if "input_waveform_csv" in scenario:
        if not isinstance(scenario["input_waveform_csv"], str):
            raise ValueError("input_waveform_csv: expected a file name")
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
    )

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_calibration_csv(outdir / "run.csv", run)
    payload = {
        "regime": run.regime,
        "v_step": run.v_step,
        "reference_zpa": run.v_step,
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
        "provenance": _provenance(inputs, {}),
    }
    write_json(outdir / "report.json", payload)
    print(f"wrote {outdir}/run.csv and {outdir}/report.json")
    return 0


def _fit_decay_file(path):
    """The decay fit of one CSV; a file that breaks the fit's input rules
    is a usage error naming the file."""
    return _usage_error(path, fit_decay, *read_decay_csv(path))


def cmd_analyze(args) -> int:
    if args.dimension < 2:
        raise ValueError(f"--dimension: expected an integer >= 2, got {args.dimension}")
    if args.scheme == "rb" and len(args.reference) != 1:
        raise ValueError("rb takes exactly one reference decay file")
    if args.scheme == "xeb" and len(args.reference) not in (1, 2):
        raise ValueError("xeb takes one combined or two single-qubit reference files")

    gate_fit = _fit_decay_file(args.gate)
    component_fits = [_fit_decay_file(path) for path in args.reference]
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


def _stage_grids(scenario: dict, stage: str) -> dict:
    spec = _check_object(scenario.get(stage, {}), tuple(_GRID_KINDS), stage)
    return {key: _sweep_grid_spec(spec, key, f"{stage}.") for key in spec}


def cmd_roundtrip(args) -> int:
    # Every scenario value is read and checked before the loop starts, and
    # the artifacts are written only after it has finished.
    scenario = _check_object(load_json(args.scenario), _ROUNDTRIP_KEYS, "scenario")
    params = _system_from_spec(scenario.get("system", "planar"))
    channel = model_from_dict(scenario["channel"], "channel")
    repulsion_ghz = _number(scenario, "repulsion_mhz", 50.0) / 1000.0
    n_exp = _integer(scenario, "n_exp", MAX_SHORT_TERMS, default=3)
    threshold = _number(scenario, "threshold", 0.01)
    drive = _schedule_from_spec(scenario.get("drive", {}), _SCHEDULE_KEYS)
    dt_int = _integration_step(scenario)
    stages = {key: _stage_grids(scenario, key) for key in ("long_stage", "short_stage", "validate")}

    result = roundtrip(
        params, channel, repulsion_ghz=repulsion_ghz, n_exp=n_exp, threshold=threshold,
        drive=drive, dt_integration_ns=dt_int, **stages,
    )

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    if result.long_run is not None:
        write_calibration_csv(outdir / "long_run.csv", result.long_run)
        write_json(outdir / "long_model.json", model_to_dict(result.long_model))
    write_calibration_csv(outdir / "short_run.csv", result.short_run)
    write_json(outdir / "model.json", model_to_dict(result.fitted))
    write_waveform_csv(outdir / "predistorted.csv", result.predistorted)
    write_calibration_csv(outdir / "validation_run.csv", result.validation_run)
    payload = {
        "reference_zpa": result.working_point,
        "repulsion_mhz": repulsion_ghz * 1000.0,
        "fitted_model": model_to_dict(result.fitted),
        "max_residual_fraction": result.max_residual,
        "threshold": threshold,
        "passed": result.passed,
        "stages": {
            "long": {"enabled": result.long_run is not None},
            "short": {"n_exp": n_exp},
            "validate": {"n_delays": int(result.validation_run.delays_ns.size)},
        },
        "provenance": _provenance({"scenario": args.scenario}, {"dt_integration_ns": dt_int}),
    }
    write_json(outdir / "report.json", payload)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}: max residual {result.max_residual:.3g} of v_step (threshold {threshold})")
    return 0 if result.passed else NUMERICAL_EXIT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was, so every call of ``main`` shares it."""
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
    # Parsed and ignored: the fit draws no random numbers, and perfbench still passes it.
    p_fit.add_argument("--seed", type=int, help=argparse.SUPPRESS)
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
    # Parsed and ignored: the sweep runs in this process, and perfbench still passes it.
    p_rt.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    # Parsed and ignored: the loop draws no random numbers, and perfbench still passes it.
    p_rt.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    p_rt.set_defaults(func=cmd_roundtrip)
    return parser


def _run(args) -> tuple[int, str | None]:
    """The command's exit code, and its one-line error for a failure."""
    try:
        # Arithmetic that leaves the double range (inputs scaled near 1e308,
        # or a 1e-300 ns sample spacing) fails in one line, not with a numpy
        # warning followed by a later, less specific error.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args), None
    except FluxcalError as exc:
        return NUMERICAL_EXIT, str(exc)
    except FloatingPointError as exc:
        return NUMERICAL_EXIT, f"floating-point {exc}"
    except (OSError, ValueError) as exc:
        return USAGE_EXIT, str(exc)
    except KeyError as exc:
        return USAGE_EXIT, f"missing required key {exc}"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A failure ends in one line, so the warnings raised on the way are held
    # and named in that line; after a success they are shown as usual.
    with warnings.catch_warnings(record=True) as caught:
        code, error = _run(args)
    if error is None:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        return code
    notes = "".join(f" [{w.category.__name__}: {w.message}]" for w in caught)
    print(f"fluxcal {args.command}: {error}{notes}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
