"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import gen
from run import tail_percentile
from spans import layer_totals, self_times

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def flatten(value):
    """Nested generator output as a list of plain comparable leaves."""
    if isinstance(value, dict):
        return [(k, flatten(v)) for k, v in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [flatten(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


@pytest.mark.parametrize("make", [gen.fit_sets, gen.predistort_targets])
def test_generator_is_deterministic_per_seed(make):
    assert flatten(make(7)) == flatten(make(7))
    assert flatten(make(7)) != flatten(make(8))


def test_generated_files_are_identical_per_seed(tmp_path):
    contents = []
    for run in ("a", "b"):
        directory = tmp_path / run
        directory.mkdir()
        gen.write_fit_set(gen.fit_sets(3)[0], directory)
        gen.write_target(gen.predistort_targets(3)[0], directory / "target.csv")
        contents.append({p.name: p.read_bytes() for p in directory.iterdir()})
    assert contents[0] == contents[1]


def test_accuracy_pools_ignore_the_workload_seed():
    assert flatten(gen.pool_targets()) == flatten(gen.pool_targets())
    assert flatten(gen.fit_sets(gen.POOL_SEED, delay_strata=1)) == flatten(
        gen.fit_sets(gen.POOL_SEED, delay_strata=1)
    )


def test_decays_stay_inside_unit_interval():
    for item in gen.fit_sets(11):
        for scheme in ("rb", "xeb"):
            curves = [item[scheme]["gate"], *item[scheme]["reference"]]
            for curve in curves:
                assert np.all(curve > 8 * gen.DECAY_NOISE)
                assert np.all(curve < 1 - 8 * gen.DECAY_NOISE)


def test_batch_sets_are_stratified():
    targets = gen.predistort_targets(5)
    combos = {(t["dt_ns"], t["model"]) for t in targets}
    assert len(targets) == 7 * len(combos) == 28
    sets = gen.fit_sets(5)
    assert sorted(s["n_exp"] for s in sets) == [2] * 16 + [3] * 16


@pytest.mark.parametrize("n", [1, 5, 10, 19])
def test_tail_falls_back_to_median_below_twenty_samples(n):
    samples = list(range(n, 0, -1))
    assert tail_percentile(samples) == (50.0, float(np.median(samples)))


@pytest.mark.parametrize("n, pct", [(20, 50.0), (21, 100 * 11 / 21), (100, 90.0), (1000, 99.0)])
def test_tail_has_ten_samples_beyond_it(n, pct):
    samples = [float(v) for v in np.random.default_rng(n).permutation(n)]
    got_pct, value = tail_percentile(samples)
    assert got_pct == pytest.approx(pct)
    assert sum(s > value for s in samples) == 10
    assert value == sorted(samples)[n - 11]


def span(i, name, start, end, parent=None, counts=None):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
            "item": 0, "counts": counts or {}}


def test_self_time_subtracts_the_union_of_children():
    records = [
        span(0, "cli.fit", 0.0, 10.0),
        span(1, "fitting.fit_short_time", 1.0, 3.0, parent=0),
        span(2, "signal.convolve", 2.0, 5.0, parent=0, counts={"samples": 4}),  # overlaps 1
        span(3, "models.eval_step_response", 1.5, 2.0, parent=1),
        span(4, "signal.convolve", 6.0, 7.0, parent=0, counts={"samples": 6}),
        span(5, "signal.convolve", 20.0, 21.0),  # a root on another thread
    ]
    assert self_times(records) == pytest.approx([10.0 - 5.0, 1.5, 3.0, 0.5, 1.0, 1.0])
    totals = layer_totals(records)
    assert totals["signal.convolve"] == {"calls": 3, "self_s": pytest.approx(5.0), "samples": 10}
    assert totals["cli.fit"]["self_s"] == pytest.approx(5.0)


def test_benchmark_names_and_units_are_well_formed():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in BENCH[kind]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
        for m in BENCH["end_to_end"]
    )


def test_interaction_map_covers_every_layer_metric():
    interactions = json.loads((HERE / "interactions.json").read_text())
    workloads = {w["name"] for w in BENCH["workloads"]}
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    mapped = [name for entry in interactions.values() for name in entry["metrics"]]
    assert mapped == [m["name"] for m in BENCH["per_layer"]]
    for layer, entry in interactions.items():
        assert all(name.startswith(layer + ".") for name in entry["metrics"])
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) | set(entry["not_on"]) == workloads
        assert not set(entry["on"]) & set(entry["not_on"])
