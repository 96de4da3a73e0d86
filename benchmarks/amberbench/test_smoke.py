"""Smoke test of AmberBench itself (collected by ``make bench``, not by
the tier-1 suite): tiny sizes, so it checks the plumbing and the output
schema, not the numbers."""

import json
import re
import time
from pathlib import Path

from benchmarks.amberbench import catalog, cli

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_smoke_run_reports_every_metric():
    started = time.monotonic()
    document = cli.run_set(seed=1, size="smoke", seconds=0.0)
    assert time.monotonic() - started < 15.0

    assert document["schema"] == "amberbench/1"
    for key in ("git_rev", "python", "nproc", "loadavg_at_start",
                "host.calibration_ops_per_s"):
        assert key in document["environment"]
    assert list(document["workloads"]) == catalog.WORKLOAD_NAMES
    assert cli.all_correct(document)
    for workload, entry in document["workloads"].items():
        for key, names in (("end_to_end", catalog.END_TO_END_NAMES),
                           ("per_layer", catalog.PER_LAYER_NAMES)):
            result = entry[key]
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics", "info"}
            assert result["attempted"] >= 1 and result["failed"] == 0
            assert list(result["metrics"]) == names, (workload, key)
            for name, cell in result["metrics"].items():
                assert NAME.fullmatch(name)
                assert cell["unit"] == catalog.UNITS[name]
                assert isinstance(cell["value"], (int, float))
        for cell in entry["end_to_end"]["metrics"].values():
            assert cell["value"] > 0
    assert "sim_sor" in cli.render(document)

    fanout = document["workloads"]["live_fanout"]["per_layer"]["metrics"]
    mobility = document["workloads"]["live_mobility"]["per_layer"]["metrics"]
    assert fanout["runtime.kernel.forwards_per_op"]["value"] == 0
    assert mobility["runtime.kernel.forwards_per_op"]["value"] == 1
    trace = json.loads((ROOT / "benchmarks/amberbench/out"
                        / "trace_live_mobility.json").read_text())
    assert trace["fields"] == ["id", "name", "start_ns", "end_ns",
                               "parent", "op"]
    assert "runtime.kernel.move" in trace["self_time_by_name"]


def test_manifest_is_the_catalogue_and_within_limits():
    manifest = catalog.manifest()
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == manifest
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer")
             for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert all(len(entry["why"]) <= 200 for entry in manifest["workloads"])
    assert any(entry == {"name": "setup_s", "unit": "s", "better": "lower",
                         "bound": catalog.BOUNDS["setup_s"]}
               for entry in manifest["end_to_end"])
    assert all(0 < entry["bound"] <= 0.25
               for entry in manifest["end_to_end"])
    assert catalog.EXACT <= set(catalog.PER_LAYER_NAMES)


def test_flipped_oracle_is_caught():
    assert cli.main(["selftest"]) == 0
