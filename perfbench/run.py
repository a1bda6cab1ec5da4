"""Calibration-loop benchmark for fluxcal.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fluxcal is imported from ``src/``.
Each workload is a closed loop: one caller starts the next item only after
the previous one finished.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it carry the run environment and the details
behind the metrics; the same record and, with ``--trace 1``, the spans are
written under ``.perfbench_run/``.

Timings exclude the output checks, which run between items.  Set-up is
measured three times (import of fluxcal in a fresh interpreter or this one,
input generation, warm-up) and reported as the median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, layer_totals

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"
SETUP_REPEATS = 3
MIN_TAIL_BEYOND = 10

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import fluxcal.cli\n"
    "print(time.perf_counter() - t)\n"
)


def tail_percentile(samples) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it: the (n-10)-th smallest of n samples.  Below 20
    samples that would fall under the median, which is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n - MIN_TAIL_BEYOND < math.ceil(n / 2):
        return 50.0, statistics.median(ordered)
    rank = n - MIN_TAIL_BEYOND
    return 100.0 * rank / n, ordered[rank - 1]


def load_metric_specs() -> dict:
    """Metric names and units by kind, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {kind: {m["name"]: m for m in bench[kind]} for kind in ("end_to_end", "per_layer")}


def environment(threads: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the build report format varies by numpy version
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "fluxcal_threads": threads,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def import_probe() -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Only the roundtrip delay pool may run in parallel.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "fluxcal" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from a checkout with src/fluxcal and BENCHMARK.json", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import fluxcal.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    if not Path(fluxcal.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported fluxcal from {fluxcal.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    cpus = len(os.sched_getaffinity(0))
    tracer = Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](workdir, args.seed, cpus, tracer)
    try:
        return measure(args, wl, import_s, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, import_s: float, tag: str) -> int:
    tracer = wl.tracer
    specs = load_metric_specs()
    env = environment(wl.threads)
    print(json.dumps({"environment": env}))

    setups = []
    for k in range(SETUP_REPEATS):
        imp = import_s if k == 0 else import_probe()
        t = time.perf_counter()
        wl.generate()
        t_gen = time.perf_counter()
        wl.warm_up()
        t_warm = time.perf_counter()
        setups.append({"import_s": imp, "generate_s": t_gen - t, "warm_up_s": t_warm - t_gen})
    setup_s = statistics.median(sum(s.values()) for s in setups)

    # Closed loop over whole passes of the item set, so every run sees the
    # same mix whatever the seed's item order.  With --trace 1 passes
    # alternate traced and untraced, starting traced, and the ratio of
    # their item times is the tracing overhead.
    times = {False: [], True: []}
    failures = []
    i = 0
    passes = 2 if tracer else 1
    deadline = time.perf_counter() + args.seconds
    while i < passes * wl.pass_size or i % wl.pass_size or time.perf_counter() < deadline:
        traced = tracer is not None and (i // wl.pass_size) % 2 == 0
        if traced:
            tracer.item = i
            tracer.install()
        t = time.perf_counter()
        try:
            state = wl.run_item(i)
            problem = None
        except Exception:  # noqa: BLE001 - a failing item is counted, the loop goes on
            state, problem = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t
        if traced:
            tracer.uninstall()
        times[traced].append(elapsed)
        if problem is None:
            try:
                problem = wl.check_item(i, state)
            except Exception:  # noqa: BLE001 - unreadable output fails the item
                problem = traceback.format_exc(limit=3)
        if problem:
            failures.append(f"item {i}: {problem}")
        i += 1

    try:
        accuracy, pool_items, pool_failures = wl.accuracy()
    except Exception:  # noqa: BLE001 - a failed accuracy check is reported
        accuracy, pool_items, pool_failures = {}, 0, [traceback.format_exc(limit=3)]
    failures.extend(pool_failures)
    attempted = i + pool_items

    for failure in failures:
        print(f"perfbench {wl.name}: {failure}", file=sys.stderr)

    plain = times[False]
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller",
        "setup_samples": setups,
        "failed_frac": len(failures) / attempted,
        "accuracy": accuracy,
    }
    if args.trace:
        traced_times = times[True]
        records = tracer.records()
        metrics = per_layer(specs, layer_totals(records), len(traced_times), accuracy)
        if plain:
            overhead = statistics.median(traced_times) / statistics.median(plain) - 1.0
            metrics["trace.overhead_frac"] = overhead
            detail["trace_overhead"] = {
                "frac": overhead,
                "traced_items": len(traced_times),
                "untraced_items": len(plain),
                "traced_p50_ms": 1e3 * statistics.median(traced_times),
                "untraced_p50_ms": 1e3 * statistics.median(plain),
            }
        tracer.write(OUT / f"{tag}.spans.jsonl")
    else:
        pct, tail = tail_percentile(plain)
        metrics = {
            "setup_s": setup_s,
            # items over the time spent in them; checks between items excluded
            "items_per_s": len(plain) / sum(plain),
            "item_p50_ms": 1e3 * statistics.median(plain),
            "item_tail_ms": 1e3 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if "residual_frac" in accuracy:
            metrics["residual_frac"] = accuracy["residual_frac"]
        detail["item_times"] = {
            "samples": len(plain), "passes": len(plain) // wl.pass_size, "tail_percentile": pct,
        }

    wanted = specs["per_layer" if args.trace else "end_to_end"]
    correct = not failures and all(
        name in metrics and math.isfinite(metrics[name]) for name in wanted
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": spec["unit"]}
            for name, spec in wanted.items()
        },
    }
    detail["result"] = result
    with open(OUT / f"{tag}.json", "w") as fh:
        item_s = {"untraced": times[False], "traced": times[True]}
        json.dump({"environment": env, **detail, "item_s": item_s}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def per_layer(specs: dict, totals: dict, items: int, accuracy: dict) -> dict:
    """Per-layer metrics per traced item, from the span totals; accuracy
    metrics of a layer come from the workload's fixed pool."""
    metrics = {}
    for name in specs["per_layer"]:
        func, _, stat = name.rpartition(".")
        if stat in accuracy:
            metrics[name] = accuracy[stat]
        elif stat == "us_per_window_sample":
            entry = totals.get(func, {})
            samples = entry.get("window_samples", 0)
            metrics[name] = 1e6 * entry["self_s"] / samples if samples else 0.0
        elif stat != "overhead_frac":
            metrics[name] = totals.get(func, {}).get(stat, 0) / items
    return metrics


if __name__ == "__main__":
    sys.exit(main())
