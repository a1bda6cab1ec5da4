"""Seeded input generators for the calibration-loop benchmark.

Everything here depends only on numpy and the seed: fluxcal sees the
generated files, never these functions, and the truth the benchmark checks
against is computed here from the generating parameters.  Batch item sets
are stratified (every combination of the properties that set an item's cost
appears in every set, the seed moves values inside each stratum) so that the
work per pass barely changes from seed to seed.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Seed of the fixed item pools the accuracy metrics come from; independent
# of the workload seed so those metrics repeat across runs and seeds.
POOL_SEED = 20241015

RB_LENGTHS = (1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)
DECAY_NOISE = 0.003
COMP_NOISE = 1e-4  # compensation noise, in units of v_step
ANTICROSSING_NOISE_GHZ = 1e-4


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream) pair."""
    return np.random.default_rng([seed, *stream.encode()])


# -- step-response models, in fluxcal's model JSON layout ---------------------

def step_response(model: dict, t_ns) -> np.ndarray:
    """Normalized step response s(t) of a model dict (short + long parts)."""
    t = np.asarray(t_ns, dtype=float)
    if "long" in model:
        lt = model["long"]
        s = (lt["B"] - lt["A"]) * np.exp(-t / (1000.0 * lt["tau_us"])) + lt["A"]
    else:
        s = np.ones_like(t)
    for term in model.get("short", []):
        s = s + term["p"] * np.exp(-t / term["tau_ns"])
    return s


def model_err(fitted: dict, true: dict, start_ns: float, stop_ns: float) -> float:
    """Largest |s_fit(t) - s_true(t)| over a delay span."""
    t = np.geomspace(start_ns, stop_ns, 4001)
    return float(np.max(np.abs(step_response(fitted, t) - step_response(true, t))))


# -- file writers --------------------------------------------------------------

def write_csv(path, header: str, *columns, fmt: str = ".17g") -> None:
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(v if isinstance(v, str) else format(v, fmt) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


# -- fit_batch ----------------------------------------------------------------

def short_model(rng, n_exp: int, v_step: float, ratio: tuple, amp: tuple) -> dict:
    """Identifiable short-time model: time constants ``ratio`` apart,
    amplitudes of magnitude ``amp``."""
    taus = [math.exp(rng.uniform(math.log(15.0), math.log(40.0)))]
    for _ in range(n_exp - 1):
        taus.append(taus[-1] * rng.uniform(*ratio))
    amps = -rng.uniform(*amp, n_exp)
    return {
        "short": [{"p": float(p), "tau_ns": float(t)} for p, t in zip(amps, taus)],
        "v_step": v_step,
    }


def long_model(rng, v_step: float) -> dict:
    settled = rng.uniform(0.995, 1.02)
    return {
        "long": {
            "A": float(settled),
            "B": float(settled - rng.uniform(0.005, 0.03)),
            "tau_us": float(rng.uniform(4.0, 11.0)),
        },
        "v_step": v_step,
    }


def decay(rng, lengths, amplitude: float, p: float, offset: float) -> np.ndarray:
    n = np.asarray(lengths, dtype=float)
    f = amplitude * p**n + offset + rng.normal(0.0, DECAY_NOISE, n.shape)
    # The levels keep >= 8 sigma from both ends; the clip is a guard only.
    return np.clip(f, 0.0, 1.0)


def fit_set(rng, n_exp: int, n_delays: int, ratio=(4.0, 10.0), amp=(0.006, 0.03)) -> dict:
    """One coupler's inputs: short and long sweeps, anti-crossing branches
    and RB/XEB decays, with the values each fit should recover."""
    v_step = float(rng.uniform(0.2, 0.45))
    short = short_model(rng, n_exp, v_step, ratio, amp)
    delays = np.geomspace(20.0, 5000.0, n_delays)
    short_comp = v_step * (1.0 - step_response(short, delays))
    short_comp += v_step * rng.normal(0.0, COMP_NOISE, delays.shape)

    long = long_model(rng, v_step)
    long_delays = np.linspace(4000.0, 40000.0, int(rng.integers(20, 41)))
    long_comp = v_step * (1.0 - step_response(long, long_delays))
    long_comp += v_step * rng.normal(0.0, COMP_NOISE, long_delays.shape)

    g = float(rng.uniform(0.05, 0.09))
    k_q = 4.0
    coeff = float(rng.uniform(0.002, 0.04))
    k_eff, b_eff = k_q * coeff, float(rng.uniform(4.4, 5.0))
    k_c = -float(rng.uniform(4.0, 6.0))
    z_cross = float(rng.uniform(0.27, 0.33))
    b_c = (k_eff - k_c) * z_cross + b_eff
    z = np.linspace(0.2, 0.4, int(rng.integers(12, 21)))
    f_q, f_c = k_eff * z + b_eff, k_c * z + b_c
    mean, split = 0.5 * (f_q + f_c), np.hypot(f_c - f_q, 2.0 * g)
    freqs = np.concatenate([mean - split / 2.0, mean + split / 2.0])
    freqs += rng.normal(0.0, ANTICROSSING_NOISE_GHZ, freqs.shape)

    # Two-qubit decays level off at 1/4, single-qubit ones at 1/2.
    p_ref = float(rng.uniform(0.97, 0.99))
    p_gate_rb = p_ref * (1.0 - float(rng.uniform(0.002, 0.02)))
    p1, p2 = (float(v) for v in rng.uniform(0.975, 0.99, 2))
    p_xeb_ref = (p1 + p2 + 3.0 * p1 * p2) / 5.0
    p_gate_xeb = p_xeb_ref * (1.0 - float(rng.uniform(0.002, 0.02)))

    def two_q(p):
        return decay(rng, RB_LENGTHS, rng.uniform(0.6, 0.72), p, 0.25)

    def one_q(p):
        return decay(rng, RB_LENGTHS, rng.uniform(0.42, 0.47), p, 0.5)

    def gate_fidelity(p_gate, p_reference, dim=4):
        return 1.0 - (1.0 - p_gate / p_reference) * (dim - 1) / dim

    return {
        "n_exp": n_exp,
        "fit_seed": int(rng.integers(0, 2**31)),
        "short": {"model": short, "delays": delays, "comp": short_comp},
        "long": {"model": long, "delays": long_delays, "comp": long_comp},
        "anticrossing": {
            "zpa": np.concatenate([z, z]),
            "freq_ghz": freqs,
            "branch": ("lower",) * z.size + ("upper",) * z.size,
            "k_q": k_q,
            "g_mhz": g * 1e3,
            "coeff_zxtalk": coeff,
        },
        "rb": {
            "gate": two_q(p_gate_rb),
            "reference": [two_q(p_ref)],
            "fidelity": gate_fidelity(p_gate_rb, p_ref),
        },
        "xeb": {
            "gate": two_q(p_gate_xeb),
            "reference": [one_q(p1), one_q(p2)],
            "fidelity": gate_fidelity(p_gate_xeb, p_xeb_ref),
        },
    }


def fit_sets(seed: int, delay_strata: int = 4) -> list[dict]:
    """Fit sets over every combination of n_exp (2, 3), ``delay_strata``
    delay-count bands across 20-60, time-constant ratio (4-6, 6-10) and
    amplitude (0.006-0.015, 0.015-0.03) bands, in seeded order.  Fit cost
    depends on all four, so each seed gets the same mix."""
    rng = rng_for(seed, "fit_batch")
    edges = np.linspace(20, 61, delay_strata + 1).astype(int)
    sets = [
        fit_set(rng, n_exp, int(rng.integers(lo, hi)), ratio, amp)
        for n_exp in (2, 3)
        for lo, hi in zip(edges, edges[1:])
        for ratio in ((4.0, 6.0), (6.0, 10.0))
        for amp in ((0.006, 0.015), (0.015, 0.03))
    ]
    order = rng.permutation(len(sets))
    return [sets[i] for i in order]


def write_fit_set(item: dict, directory) -> dict:
    """Write one fit set's CSVs; returns the paths by role."""
    paths = {
        "short": directory / "short_run.csv",
        "long": directory / "long_run.csv",
        "rb_gate": directory / "rb_gate.csv",
        "rb_ref": directory / "rb_ref.csv",
        "xeb_gate": directory / "xeb_gate.csv",
        "xeb_ref1": directory / "xeb_ref1.csv",
        "xeb_ref2": directory / "xeb_ref2.csv",
    }
    for stage in ("short", "long"):
        write_csv(paths[stage], "t_ns,v_oft", item[stage]["delays"], item[stage]["comp"])
    lengths = [str(n) for n in RB_LENGTHS]
    write_csv(paths["rb_gate"], "n,fidelity", lengths, item["rb"]["gate"])
    write_csv(paths["rb_ref"], "n,fidelity", lengths, item["rb"]["reference"][0])
    write_csv(paths["xeb_gate"], "n,fidelity", lengths, item["xeb"]["gate"])
    for i, ref in enumerate(item["xeb"]["reference"], 1):
        write_csv(paths[f"xeb_ref{i}"], "n,fidelity", lengths, ref)
    return paths


# -- predistort_batch ----------------------------------------------------------

SHAPES = ("step", "square", "gauss")
DTS_NS = (0.5, 1.0)
PRESET_MODELS = ("planar", "flipchip")
MIN_US, MAX_US = 1.0, 40.0


def target_waveform(rng, shape: str, duration_ns: float, dt_ns: float) -> np.ndarray:
    """Unit-amplitude target; the preset models are written with v_step 1."""
    n = int(round(duration_ns / dt_ns))
    t = np.arange(n) * dt_ns
    if shape == "step":
        return np.ones(n)
    fall = duration_ns * rng.uniform(0.4, 0.8)
    if shape == "square":
        return np.where(t < fall, 1.0, 0.0)
    edge = rng.uniform(2.0, 10.0)
    rise = 5.0 * edge
    up = np.where(t < rise, np.exp(-0.5 * ((t - rise) / edge) ** 2), 1.0)
    down = np.where(t > fall, np.exp(-0.5 * ((t - fall) / edge) ** 2), 1.0)
    return up * down


def predistort_targets(seed: int, slots: int = 7) -> list[dict]:
    """Targets at ``slots`` log-spaced lengths from 1 to 40 us, each length
    once per (dt, model) pair, shapes rotating, in seeded order.  The slots
    sit at different distances from the powers of two that set FFT sizes;
    the seed moves each length by at most 2%, which keeps every slot on its
    side of a power of two, so the work per pass hardly depends on the seed."""
    rng = rng_for(seed, "predistort_batch")
    items = []
    for k, length in enumerate(np.geomspace(MIN_US * 1000.0, MAX_US * 1000.0, slots)):
        for j, (dt, model) in enumerate((d, m) for d in DTS_NS for m in PRESET_MODELS):
            items.append({
                "shape": SHAPES[(k + j) % len(SHAPES)],
                "dt_ns": dt,
                "model": model,
                "duration_ns": float(length * np.exp(rng.uniform(-0.02, 0.02))),
            })
    order = rng.permutation(len(items))
    items = [items[i] for i in order]
    for item in items:
        item["samples"] = target_waveform(rng, item["shape"], item["duration_ns"], item["dt_ns"])
    return items


def pool_targets() -> list[dict]:
    """Fixed accuracy pool: each shape and model at the largest production
    size, 40 us at 0.5 ns, and the shortest step, 1 us at 1 ns, where the
    flip-chip channel's 528 ns tail has not settled."""
    rng = rng_for(POOL_SEED, "predistort_pool")
    cases = [(shape, MAX_US, 0.5) for shape in SHAPES] + [("step", MIN_US, 1.0)]
    return [
        {
            "shape": shape,
            "dt_ns": dt,
            "model": model,
            "duration_ns": length_us * 1000.0,
            "samples": target_waveform(rng, shape, length_us * 1000.0, dt),
        }
        for model in PRESET_MODELS
        for shape, length_us, dt in cases
    ]


def write_target(item: dict, path) -> None:
    n = item["samples"].size
    write_csv(path, "t_ns,amplitude", np.arange(n) * item["dt_ns"], item["samples"])
