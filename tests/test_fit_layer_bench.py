import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench" / "fit_layer.py"
LAYERS = ("fit_short_time", "fit_long_time", "fit_anticrossing", "decays_rb", "decays_xeb")


def test_fit_layer_bench_quick_run_writes_its_schema(tmp_path):
    # The quick run of the fit-layer bench writes one JSON object with a
    # timing per layer, the search counters and the digest of the fits.
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, "-W", "error", str(BENCH), "--quick", "-o", str(out)],
                   check=True, capture_output=True)
    record = json.loads(out.read_text())
    assert record["bench"] == "fit_layer"
    assert record["config"]["decay_fit"] == "fit_decays" and record["config"]["sets"] == 4
    assert set(record["layers"]) == set(LAYERS) == set(record["counters"])
    for timing in record["layers"].values():
        q = timing["ms_per_call"]
        assert 0.0 < q["q1"] <= q["median"] <= q["q3"]
    # One search per fit, the short fit's continuation included, and one
    # stacked search per analyze group: six per set.
    searches = {name: c["searches"] for name, c in record["counters"].items()}
    assert searches == {"fit_short_time": 2, "fit_long_time": 1, "fit_anticrossing": 1,
                        "decays_rb": 1, "decays_xeb": 1}
    assert record["searches_per_set"] == 6
    # The xeb search's first model call evaluates its three curves at once.
    xeb = record["counters"]["decays_xeb"]
    assert xeb["model_rows"] >= xeb["model_evals"] + 2
    assert len(record["accuracy"]["sha256"]) == 64
