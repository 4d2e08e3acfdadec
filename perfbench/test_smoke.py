"""Smoke tests for the benchmark itself: python -m pytest perfbench

Each workload runs at a tiny size for a fraction of a second, untraced
and traced, and must report no failed operation.  Feeding the
correctness gate a wrong expected output must raise the error rate.
"""

from __future__ import annotations

import json

import pytest

import run
import workloads

END_TO_END = {"setup_s", "peak_rss_mb", "primary_per_s", "secondary_per_s"}


@pytest.mark.parametrize("name", list(workloads.LEG_NAMES))
def test_tiny_run_is_correct(name):
    record = run.run_workload(name, seed=3, seconds=0.2, trace=False, tiny=True)
    assert record["failed"] == 0, record["errors"]
    assert record["attempted"] >= 1
    assert set(record["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert record["named"]["error_rate"][0] == 0


@pytest.mark.parametrize("name", list(workloads.LEG_NAMES))
def test_tiny_traced_run_reports_every_layer(name):
    record = run.run_workload(name, seed=3, seconds=0.2, trace=True, tiny=True)
    assert record["failed"] == 0, record["errors"]
    wanted = {m["name"] for m in run.benchmark_spec()["per_layer"]}
    assert set(record["metrics"]) == wanted
    assert 0 < record["metrics"]["trace.span_coverage"]["value"] <= 1


def test_metric_lists_match_benchmark_json():
    spec = run.benchmark_spec()
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.LEG_NAMES)


def _corrupt_first_cli_answer(spec):
    call = next(c for r in spec["rounds"] for c in r if c["kind"] == "cli")
    call["expect"] += "wrong\n"


def _corrupt_first_query_answer(spec):
    call = spec["rounds"][0][0]
    call["expect"] = not call["expect"] if call["kind"] == "member" else "wrong"


@pytest.mark.parametrize("name, tamper", [
    ("witness-sweep", _corrupt_first_cli_answer),
    ("block-scan", _corrupt_first_cli_answer),
    ("stanley-explore", _corrupt_first_cli_answer),
    ("query-mix", _corrupt_first_query_answer),
])
@pytest.mark.parametrize("trace", [False, True])
def test_wrong_expected_output_raises_error_rate(name, tamper, trace):
    record = run.run_workload(name, seed=3, seconds=0.2, trace=trace, tiny=True, tamper=tamper)
    assert record["failed"] >= 1
    assert record["errors"]
    if not trace:
        assert record["named"]["error_rate"][0] > 0


def test_workload_properties_repeat_for_a_seed():
    run.use_checkout_paths()
    import brute

    for name in workloads.LEG_NAMES:
        first = workloads.build(name, 7, brute)["properties"]
        assert workloads.build(name, 7, brute)["properties"] == first


def test_compare_refuses_records_from_different_backends(tmp_path):
    import compare

    def record(backend):
        meta = {"workload": "query-mix", "backend": backend, "trace": 0}
        return {"meta": meta, "metrics": {"primary_per_s": {"value": 1.0, "unit": "1/s"}}}

    paths = []
    for i, backend in enumerate(("python", "c", "python")):
        paths.append(tmp_path / f"r{i}.json")
        paths[-1].write_text(json.dumps(record(backend)))
    assert compare.main([str(paths[0]), str(paths[1])]) == 2
    assert compare.main([str(paths[0]), str(paths[2])]) == 0
