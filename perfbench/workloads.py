"""The four workloads: inputs, warm-up, one timed item, its checks, and the
accuracy metrics from each workload's fixed item pool.

An item drives fluxcal through ``fluxcal.cli.main`` in-process, or through a
public library function where no command exists.  ``run_item`` is the timed
part; ``check_item`` verifies the outputs afterwards, untimed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil

import numpy as np

import fluxcal.cli
from fluxcal import fitting, presets
from fluxcal.models import model_from_dict, model_to_dict
from fluxcal.predistort import apply_channel, full_pipeline
from fluxcal.signal import heaviside_step
from fluxcal.simulator import DriveSchedule, find_working_point, simulate_calibration

import gen

# Output checks.  The fit tolerances sit well above the noise-driven misfit
# of identifiable models; a fidelity must land within this many of its own
# reported standard errors of the generating value; the forward-check bound
# is the 1% default validation threshold of ``fluxcal roundtrip``.
SHORT_MODEL_TOL = 2e-3
LONG_MODEL_TOL = 2e-3
G_TOL_MHZ = 1.0
XTALK_TOL = 2e-3
FIDELITY_SIGMAS = 8.0
PREDISTORT_RESIDUAL_BOUND = 0.01

P1_REFERENCE_DT_NS = 0.0125


class Workload:
    """Shared plumbing: CLI calls with optional spans, directories."""

    name = ""
    pass_size = 1  # items per pass over the generated set
    max_threads = 1  # fluxcal --threads, capped at the available CPUs

    def __init__(self, workdir, seed: int, cpus: int, tracer=None):
        self.dir = workdir
        self.seed = seed
        self.threads = min(self.max_threads, cpus)
        self.tracer = tracer

    def cli(self, *argv) -> int:
        argv = [str(a) for a in argv]
        sink = io.StringIO()
        traced = self.tracer is not None and self.tracer.active
        span = self.tracer.span(f"cli.{argv[0]}") if traced else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(sink):
            try:
                return fluxcal.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                return exc.code if isinstance(exc.code, int) else 1

    def subdir(self, *parts):
        path = self.dir.joinpath(*parts)
        path.mkdir(parents=True, exist_ok=True)
        return path

    def generate(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_item(self, i: int):
        raise NotImplementedError

    def check_item(self, i: int, state) -> str | None:
        raise NotImplementedError

    def accuracy(self) -> tuple[dict, int, list[str]]:
        """(accuracy metrics, pool items attempted, pool failures)."""
        raise NotImplementedError


# -- shared item bodies ---------------------------------------------------------

def run_fit_set(wl: Workload, item: dict, paths: dict, out) -> dict:
    short, long = item["short"]["model"], item["long"]["model"]
    v_step = short["v_step"]
    codes = [
        wl.cli("fit", paths["short"], "--regime", "short", "--n-exp", item["n_exp"],
               "--v-step", v_step, "--seed", item["fit_seed"], "-o", out / "short_model.json"),
        wl.cli("fit", paths["long"], "--regime", "long", "--v-step", long["v_step"],
               "-o", out / "long_model.json"),
    ]
    ac = item["anticrossing"]
    data = fitting.AnticrossingData(zpa=ac["zpa"], freq_ghz=ac["freq_ghz"], branch=ac["branch"])
    # through the module, where the tracer binds its wrapper
    anticrossing = fitting.fit_anticrossing(data, k_q=ac["k_q"])
    codes.append(wl.cli("analyze", "--scheme", "rb", "--gate", paths["rb_gate"],
                        "--reference", paths["rb_ref"], "-o", out / "rb.json"))
    codes.append(wl.cli("analyze", "--scheme", "xeb", "--gate", paths["xeb_gate"],
                        "--reference", paths["xeb_ref1"], paths["xeb_ref2"],
                        "-o", out / "xeb.json"))
    return {"codes": codes, "anticrossing": anticrossing, "out": out}


def fit_set_errors(item: dict, state: dict) -> tuple[list[str], dict]:
    """Failures of one fit set, and its fitted model errors."""
    if any(state["codes"]):
        return [f"exit codes {state['codes']}"], {}
    out = state["out"]
    problems = []
    errs = {}
    for stage, tol in (("short", SHORT_MODEL_TOL), ("long", LONG_MODEL_TOL)):
        fitted = json.loads((out / f"{stage}_model.json").read_text())
        delays = item[stage]["delays"]
        errs[stage] = gen.model_err(fitted, item[stage]["model"], delays[0], delays[-1])
        if not errs[stage] <= tol:
            problems.append(f"{stage} model error {errs[stage]:.3g} > {tol}")
    ac, fit = item["anticrossing"], state["anticrossing"]
    if not abs(fit.g_qc_mhz - ac["g_mhz"]) <= G_TOL_MHZ:
        problems.append(f"g {fit.g_qc_mhz:.4g} MHz vs {ac['g_mhz']:.4g}")
    if not abs(fit.crosstalk.coeff_zxtalk - ac["coeff_zxtalk"]) <= XTALK_TOL:
        problems.append(f"crosstalk {fit.crosstalk.coeff_zxtalk:.4g} vs {ac['coeff_zxtalk']:.4g}")
    for scheme in ("rb", "xeb"):
        report = json.loads((out / f"{scheme}.json").read_text())
        miss = abs(report["fidelity"] - item[scheme]["fidelity"])
        if not (report["sigma"] > 0 and miss <= FIDELITY_SIGMAS * report["sigma"]):
            problems.append(
                f"{scheme} fidelity {report['fidelity']:.6f} +- {report['sigma']:.2g} "
                f"vs {item[scheme]['fidelity']:.6f}"
            )
    return problems, errs


def predistort_residual(sidecar_path, n_samples: int, dt_ns: float) -> tuple[str | None, float]:
    sidecar = json.loads(sidecar_path.read_text())
    check = sidecar["forward_check"]
    residual = check["max_residual_fraction_after_2dt"]
    if check["n_samples"] != n_samples or check["dt_ns"] != dt_ns:
        return f"sidecar grid {check['n_samples']} x {check['dt_ns']} ns", residual
    if not residual <= PREDISTORT_RESIDUAL_BOUND:
        return f"forward-check residual {residual:.3g} > {PREDISTORT_RESIDUAL_BOUND}", residual
    return None, residual


def write_preset_models(directory) -> dict:
    paths = {}
    for name, channel in (("planar", presets.planar_channel), ("flipchip", presets.flipchip_channel)):
        paths[name] = directory / f"{name}_model.json"
        gen.write_json(paths[name], model_to_dict(channel(v_step=1.0)))
    return paths


def warm_fit(wl: Workload) -> None:
    item = gen.fit_set(gen.rng_for(0, "warmup"), 2, 12)
    paths = gen.write_fit_set(item, wl.subdir("warmup", "fit"))
    state = run_fit_set(wl, item, paths, wl.subdir("warmup", "fit_out"))
    if any(state["codes"]):
        raise RuntimeError(f"warm-up fit set failed: exit codes {state['codes']}")


def warm_predistort(wl: Workload) -> None:
    models = write_preset_models(wl.subdir("warmup"))
    for name, path in models.items():
        item = {"dt_ns": 1.0, "samples": gen.target_waveform(None, "step", 1000.0, 1.0)}
        target = wl.dir / "warmup" / f"target_{name}.csv"
        gen.write_target(item, target)
        out = wl.dir / "warmup" / f"shaped_{name}.csv"
        if wl.cli("predistort", target, "--model", path, "-o", out):
            raise RuntimeError("warm-up predistort failed")


# -- roundtrips -----------------------------------------------------------------

class Roundtrip(Workload):
    """One ``fluxcal roundtrip`` per item; every item repeats the same
    scenario and seed, so every item's artifacts must be byte-identical to
    the first item's."""

    system = ""
    scenario: dict = {}
    span_ns = (0.0, 0.0)  # delay span of the fitted stages
    channel = None  # preset channel for a given v_step
    params = None  # preset system

    def generate(self) -> None:
        self.scenario_path = self.subdir("inputs") / "scenario.json"
        gen.write_json(self.scenario_path, self.scenario)
        self.fluxcal_seed = self.seed % 2**31
        self.first = None

    def warm_up(self) -> None:
        # A two-delay sweep with short probes near the working point, then
        # the fit and predistort paths on small inputs.
        params = self.params()
        z_work = find_working_point(params)
        scenario = {
            "system": self.system,
            "channel": model_to_dict(self.channel(z_work)),
            "drive": {"regime": "short", "t_pi_min_ns": 30.0, "t_pi_max_ns": 30.0},
            "delays_ns": [300.0, 310.0],
            "offsets_rel": {"start": -0.012, "stop": 0.052, "count": 41},
        }
        path = self.subdir("warmup") / "simulate.json"
        gen.write_json(path, scenario)
        if self.cli("simulate", path, "-o", self.subdir("warmup", "sim")):
            raise RuntimeError("warm-up simulate failed")
        warm_fit(self)
        warm_predistort(self)

    def run_item(self, i: int):
        out = self.dir / "items" / str(i)
        code = self.cli("roundtrip", self.scenario_path, "-o", out,
                        "--seed", self.fluxcal_seed, "--threads", self.threads)
        return code, out

    def check_item(self, i: int, state) -> str | None:
        code, out = state
        if code != 0:
            return f"exit code {code}"
        report = json.loads((out / "report.json").read_text())
        if report.get("passed") is not True:
            return "report.json: passed is not true"
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        if self.first is None:
            self.first = (out, digests)
            return None
        shutil.rmtree(out)
        if digests != self.first[1]:
            return "artifacts differ from the first item's"
        return None

    def p1_err(self) -> float:
        """Largest |P1(dt=0.1) - P1(dt=0.0125)| at t_pi = 30 and 200 ns, on
        offsets centered on the expected compensation and spanning each
        probe's resonance peak (the 30 ns probe's is about 5x wider)."""
        params = self.params()
        z_work = find_working_point(params)
        channel = self.channel(z_work)
        true = model_to_dict(channel)
        worst = 0.0
        for t_pi, half_width in ((30.0, 0.02), (200.0, 0.004)):
            schedule = DriveSchedule(regime="short", t_pi_min_ns=t_pi, t_pi_max_ns=t_pi)
            delays = np.array([1000.0, 1010.0])
            center = z_work * (1.0 - gen.step_response(true, delays).mean())
            offsets = center + z_work * np.linspace(-half_width, half_width, 9)
            grids = [
                simulate_calibration(params, schedule, channel, delays, offsets,
                                     dt_integration_ns=dt, full_output=True)[1].p1_grid
                for dt in (0.1, P1_REFERENCE_DT_NS)
            ]
            worst = max(worst, float(np.max(np.abs(grids[0] - grids[1]))))
        return worst

    def accuracy(self):
        out = self.first[0] if self.first else None
        if out is None:
            return {}, 0, ["no item passed its checks"]
        report = json.loads((out / "report.json").read_text())
        fitted = json.loads((out / "model.json").read_text())
        metrics = {
            "residual_frac": report["max_residual_fraction"],
            "model_err": gen.model_err(fitted, self.scenario["channel"], *self.span_ns),
            "p1_err": self.p1_err(),
        }
        return metrics, 0, []


class RoundtripFlipchip(Roundtrip):
    name = "roundtrip_flipchip"
    system = "flipchip"
    span_ns = (20.0, 4600.0)
    channel = staticmethod(presets.flipchip_channel)
    params = staticmethod(presets.flipchip_system)
    scenario = {  # acceptance criterion 7
        "system": "flipchip",
        "channel": model_to_dict(presets.flipchip_channel(v_step=1.0)),
        "repulsion_mhz": 50.0,
        "n_exp": 2,
        "threshold": 0.01,
        "short_stage": {"delays_ns": {"start": 20.0, "stop": 4600.0, "count": 24, "spacing": "log"}},
        "validate": {"delays_ns": {"start": 30.0, "stop": 4600.0, "count": 10, "spacing": "log"}},
    }


class RoundtripPlanar(Roundtrip):
    name = "roundtrip_planar"
    system = "planar"
    max_threads = 2
    channel = staticmethod(presets.planar_channel)
    params = staticmethod(presets.planar_system)
    span_ns = (20.0, 40000.0)  # default stages: short 20-5000 ns, long 4-40 us
    scenario = {"system": "planar", "channel": model_to_dict(presets.planar_channel(v_step=1.0))}


# -- batches ------------------------------------------------------------------

class FitBatch(Workload):
    """One coupler's fit set per item: short and long fits, the
    anti-crossing fit, RB and XEB analysis."""

    name = "fit_batch"

    def generate(self) -> None:
        self.items = gen.fit_sets(self.seed)
        self.pass_size = len(self.items)
        self.paths = [
            gen.write_fit_set(item, self.subdir("inputs", str(k)))
            for k, item in enumerate(self.items)
        ]

    def warm_up(self) -> None:
        warm_fit(self)

    def run_item(self, i: int):
        k = i % len(self.items)
        return run_fit_set(self, self.items[k], self.paths[k], self.subdir("out", str(k)))

    def check_item(self, i: int, state) -> str | None:
        problems, _ = fit_set_errors(self.items[i % len(self.items)], state)
        return "; ".join(problems) or None

    def accuracy(self):
        """Worst model error and worst residual after predistorting a 40 us
        step with the fitted model through the generating channel."""
        pool = gen.fit_sets(gen.POOL_SEED, delay_strata=1)
        failures, model_errs, residuals = [], [], []
        for k, item in enumerate(pool):
            paths = gen.write_fit_set(item, self.subdir("pool", str(k)))
            try:
                state = run_fit_set(self, item, paths, self.subdir("pool_out", str(k)))
                problems, errs = fit_set_errors(item, state)
            except Exception as exc:  # noqa: BLE001 - a failed pool item is reported
                problems, errs = [f"{type(exc).__name__}: {exc}"], {}
            if problems:
                failures.append(f"pool {k}: " + "; ".join(problems))
                continue
            model_errs.extend(errs.values())
            out = state["out"]
            short = json.loads((out / "short_model.json").read_text())
            long = json.loads((out / "long_model.json").read_text())
            fitted = model_from_dict({**short, **long})
            true = model_from_dict({**item["short"]["model"], **item["long"]["model"]})
            step = heaviside_step(true.v_step, 40000.0, 1.0)
            check = apply_channel(full_pipeline(step, fitted), true)
            dev = np.abs(check.samples - step.samples)[2:] / abs(true.v_step)
            residuals.append(float(np.max(dev)))
        metrics = {}
        if not failures:
            metrics = {"residual_frac": max(residuals), "model_err": max(model_errs)}
        return metrics, len(pool), failures


class PredistortBatch(Workload):
    """One ``fluxcal predistort`` per item, with its forward-check sidecar."""

    name = "predistort_batch"

    def generate(self) -> None:
        self.models = write_preset_models(self.subdir("inputs"))
        self.items = gen.predistort_targets(self.seed)
        self.pass_size = len(self.items)
        self.targets = []
        for k, item in enumerate(self.items):
            self.targets.append(self.dir / "inputs" / f"target_{k}.csv")
            gen.write_target(item, self.targets[-1])
        self.subdir("out")

    def warm_up(self) -> None:
        warm_predistort(self)

    def _predistort(self, target, item: dict, out):
        return self.cli("predistort", target, "--model", self.models[item["model"]], "-o", out)

    def run_item(self, i: int):
        k = i % len(self.items)
        out = self.dir / "out" / f"shaped_{k}.csv"
        return self._predistort(self.targets[k], self.items[k], out), out

    def check_item(self, i: int, state) -> str | None:
        code, out = state
        if code != 0:
            return f"exit code {code}"
        item = self.items[i % len(self.items)]
        return predistort_residual(out.with_suffix(".json"), item["samples"].size, item["dt_ns"])[0]

    def accuracy(self):
        pool = gen.pool_targets()
        failures, residuals = [], []
        directory = self.subdir("pool")
        for k, item in enumerate(pool):
            target = directory / f"target_{k}.csv"
            out = directory / f"shaped_{k}.csv"
            gen.write_target(item, target)
            if self._predistort(target, item, out):
                failures.append(f"pool {k}: predistort failed")
                continue
            problem, residual = predistort_residual(
                out.with_suffix(".json"), item["samples"].size, item["dt_ns"]
            )
            if problem:
                failures.append(f"pool {k}: {problem}")
            residuals.append(residual)
        metrics = {"residual_frac": max(residuals)} if residuals and not failures else {}
        return metrics, len(pool), failures


WORKLOADS = {
    wl.name: wl for wl in (RoundtripFlipchip, RoundtripPlanar, FitBatch, PredistortBatch)
}
