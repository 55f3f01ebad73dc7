"""BENCHMARK.json names exactly the workloads and metrics the launcher prints.

Run with ``python3 -m pytest perfbench``.
"""

import json
from pathlib import Path

import common
import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_workloads_match_the_launcher():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_metrics_match_the_tables():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == common.PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_layer_metrics_fill_every_name_and_reject_unknown_ones():
    filled = common.layer_metrics({"topk.rows": 3})
    assert list(filled) == list(common.PER_LAYER) and filled["topk.rows"] == 3.0
    try:
        common.layer_metrics({"not.a_metric": 1})
    except KeyError:
        return
    raise AssertionError("unknown per-layer metric accepted")


def test_sliced_rate_is_the_median_slice():
    # Work done in a burst over a few slices: the median slice saw none.
    burst = [0.05] * 10 + [0.15] * 20 + [0.95] * 20
    assert common.sliced_rate(burst, 0.0, 1.0) == 0.0
    steady = [i / 100 + 0.001 for i in range(100)]
    assert abs(common.sliced_rate(steady, 0.0, 1.0) - 100.0) < 1e-9
