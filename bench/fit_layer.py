"""Fit-layer bench: the four fits of a calibration set, timed and counted.

    python bench/fit_layer.py --output BENCH.json [--src SRC] [--quick]

Builds fit sets seeded with ``SEED`` from known channels
(``synthesize_calibration_run`` for the short and long sweeps,
``write_decay_csv`` and ``read_decay_csv`` for the RB and XEB decays,
branch lines for the anti-crossing) and fits each set as ``fluxcal fit``
and ``fluxcal analyze`` do, from the fluxcal source in ``--src``
(default: this checkout's ``src``).

Written to ``--output``, one JSON object:

* ``layers``: process time per call, in ms, of ``fit_short_time``,
  ``fit_long_time``, ``fit_anticrossing`` and the decay fits of each
  ``analyze`` group (``decays_rb``: gate and reference; ``decays_xeb``:
  gate and two single-qubit references), as the median and quartiles of
  the interleaved repeats (each repeat times every layer once over all
  sets, in turn).
* ``counters``: per set and per layer, the calls of ``fitting._search``,
  the calls of the models it searches and the rows those calls evaluate,
  counted by wrapping each model in this script.
* ``accuracy``: the sha256 of every fitted value, in repr, over all sets;
  equal digests mean bit-identical fits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SEED = 1
RB_LENGTHS = (1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256)


def fit_sets(seed: int, count: int, tmp: Path):
    """``count`` seeded fit sets: short (2-3 terms) and long runs, an
    anti-crossing, and five decays read back from their CSVs."""
    from fluxcal.analysis import read_decay_csv, write_decay_csv
    from fluxcal.fitting import AnticrossingData, synthesize_calibration_run
    from fluxcal.models import CombinedResponse, LongTimeModel, ShortTimeModel

    rng = np.random.default_rng(seed)
    sets = []
    for k in range(count):
        n_exp = 2 + k % 2
        v_step = float(rng.uniform(0.2, 0.45))
        # identifiable terms: 15-40 ns, then each 4-10x the one before
        taus = rng.uniform(15.0, 40.0) * np.cumprod([1.0, *rng.uniform(4.0, 10.0, n_exp - 1)])
        amps = -rng.uniform(0.006, 0.03, n_exp)
        short = CombinedResponse(ShortTimeModel.from_arrays(amps, taus), None, v_step)
        delays = np.geomspace(20.0, 5000.0, int(rng.integers(20, 61)))
        long = LongTimeModel(settled=float(rng.uniform(0.98, 1.0)),
                             initial=float(rng.uniform(1.0, 1.02)),
                             tau_us=float(rng.uniform(3.0, 10.0)))
        long_delays = np.linspace(4000.0, 40000.0, int(rng.integers(20, 41)))
        z = np.linspace(0.2, 0.4, int(rng.integers(12, 21)))
        f_q, f_c = 0.08 * z + 4.7, -5.0 * z + 6.3
        split = np.hypot(f_c - f_q, 2.0 * rng.uniform(0.05, 0.09))
        freqs = np.concatenate([(f_q + f_c - split) / 2.0, (f_q + f_c + split) / 2.0])
        # rb gate and reference, xeb gate (two-qubit, settling at 1/4) and
        # its two single-qubit references (settling at 1/2)
        n = np.array(RB_LENGTHS, dtype=float)
        levels = [(0.66, 0.975, 0.25), (0.66, 0.98, 0.25), (0.66, 0.972, 0.25),
                  (0.45, 0.985, 0.5), (0.45, 0.982, 0.5)]
        decays = []
        for j, (amp, p, offset) in enumerate(levels):
            f = np.clip(amp * p**n + offset + rng.normal(0.0, 0.003, n.size), 0.0, 1.0)
            write_decay_csv(tmp / f"decay_{k}_{j}.csv", n, f)
            decays.append(read_decay_csv(tmp / f"decay_{k}_{j}.csv"))
        sets.append({
            "n_exp": n_exp,
            "short": synthesize_calibration_run(short, delays, "short", 1e-4, rng),
            "long": synthesize_calibration_run(CombinedResponse(None, long, v_step), long_delays,
                                               "long", 1e-4, rng),
            "anticrossing": AnticrossingData(
                np.concatenate([z, z]), freqs + rng.normal(0.0, 1e-4, 2 * z.size),
                ("lower",) * z.size + ("upper",) * z.size,
            ),
            "rb": decays[:2],
            "xeb": decays[2:],
        })
    return sets


def layers():
    """Each layer as a function of one set, returning its fitted values."""
    from fluxcal import analysis, fitting

    return {
        "fit_short_time": lambda s: fitting.fit_short_time(s["short"], s["n_exp"]),
        "fit_long_time": lambda s: fitting.fit_long_time(s["long"]),
        "fit_anticrossing": lambda s: fitting.fit_anticrossing(s["anticrossing"], k_q=4.0),
        "decays_rb": lambda s: analysis.fit_decays(s["rb"]),
        "decays_xeb": lambda s: analysis.fit_decays(s["xeb"]),
    }


def count(sets, fits):
    """Search calls, model calls and model rows per set, for each layer."""
    from fluxcal import fitting

    search = fitting._search
    tally = {}

    def counting(model, x0, *args, **kwargs):
        tally["searches"] += 1

        def counted(points, *rest):
            tally["model_evals"] += 1
            tally["model_rows"] += len(points)
            return model(points, *rest)

        return search(counted, x0, *args, **kwargs)

    counters = {}
    fitting._search = counting
    try:
        for name, fit in fits.items():
            tally.update(searches=0, model_evals=0, model_rows=0)
            for s in sets:
                fit(s)
            counters[name] = {key: value / len(sets) for key, value in tally.items()}
    finally:
        fitting._search = search
    return counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", "-o", required=True, help="JSON file to write")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="fluxcal source directory to import")
    parser.add_argument("--quick", action="store_true", help="4 sets, 3 repeats (a smoke run)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import fluxcal

    n_sets, repeats = (4, 3) if args.quick else (32, 15)
    with tempfile.TemporaryDirectory() as tmp:
        sets = fit_sets(SEED, n_sets, Path(tmp))
    fits = layers()

    digest = hashlib.sha256()
    for s in sets:
        for fit in fits.values():
            digest.update(repr(fit(s)).encode())  # also the warm-up of every layer
    times = {name: [] for name in fits}
    for _ in range(repeats):
        for name, fit in fits.items():
            start = time.process_time()
            for s in sets:
                fit(s)
            times[name].append((time.process_time() - start) / len(sets) * 1e3)
    counters = count(sets, fits)

    def spread(values):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"median": median, "q1": q1, "q3": q3}

    record = {
        "bench": "fit_layer",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "config": {"seed": SEED, "sets": n_sets, "repeats": repeats,
                   "fluxcal": fluxcal.__version__},
        "layers": {name: {"ms_per_call": spread(values)} for name, values in times.items()},
        "counters": counters,
        "searches_per_set": sum(c["searches"] for c in counters.values()),
        "accuracy": {"sha256": digest.hexdigest()},
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({name: round(v["ms_per_call"]["median"], 3) for name, v in record["layers"].items()}),
          "searches/set", record["searches_per_set"], "sha256", record["accuracy"]["sha256"][:16])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
