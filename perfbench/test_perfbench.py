"""Fast checks of the ORAM benchmark at tiny sizes.

Run with ``python -m pytest perfbench -q``.
"""

import json
from pathlib import Path

import pytest

pytest.importorskip("numpy")

import oram_bench  # noqa: E402

DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _run(tmp_path, workload, trace, seed=3, **kwargs):
    return oram_bench.measure(workload, seed, 0.0, trace, workdir=tmp_path, tiny=True, **kwargs)


@pytest.mark.parametrize("workload", oram_bench.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_a_unit(tmp_path, workload, trace):
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    result = oram_bench.report(_run(tmp_path, workload, trace), declared)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in result["metrics"].values():
        assert metric["unit"]
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_declared_workloads_match_the_registry():
    assert [w["name"] for w in DECLARED["workloads"]] == list(oram_bench.WORKLOADS)
    per_layer = {metric["name"] for metric in DECLARED["per_layer"]}
    assert set(oram_bench.COUNT_METRICS) <= per_layer


@pytest.mark.parametrize("workload", oram_bench.WORKLOADS)
def test_simulated_counts_repeat_exactly_for_a_seed(tmp_path, workload):
    first = _run(tmp_path / "a", workload, True).values
    second = _run(tmp_path / "b", workload, True).values
    assert {name: first[name] for name in oram_bench.COUNT_METRICS} == {
        name: second[name] for name in oram_bench.COUNT_METRICS
    }


def test_tampered_bucket_is_counted_as_failed(tmp_path):
    def tamper(state):
        storage = state.oram.orams[0].storage
        root = bytearray(storage.inner.raw_bucket(0))
        root[0] ^= 0xFF
        storage.tamper_with_bucket(0, bytes(root))

    run = _run(tmp_path, "secure_trace", True, after_setup=tamper)
    result = oram_bench.report(run, DECLARED["per_layer"])
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["failed_frac"]["value"] > 0
