"""BENCHMARK.json names the workloads the benchmark builds."""

import json

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.SETUP_CONFIG) == list(workloads.BUILDERS)


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
