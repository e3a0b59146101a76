"""Fast self-tests of the benchmark suite (collected by the tier-1 run)."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
for path in (str(REPO_ROOT / "src"), str(SUITE_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import metrics  # noqa: E402
import spans  # noqa: E402
import tracegen  # noqa: E402
from workloads import REF_SECONDS, WORKLOADS  # noqa: E402


def _benchmark_json():
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def test_same_seed_same_trace_other_seed_other_trace():
    for workload in WORKLOADS.values():
        name = workload.trace_name or workload.name
        make = lambda seed: tracegen.generate(workload.trace, 12, seed, name)  # noqa: E731
        assert tracegen.trace_sha256(make(7)) == tracegen.trace_sha256(make(7))
        assert tracegen.trace_sha256(make(7)) != tracegen.trace_sha256(make(8))
    cluster, bursty = WORKLOADS["cluster_bursty_2proc"], WORKLOADS["bursty_short_decode"]
    assert tracegen.generate(cluster.trace, 26, 3, cluster.trace_name) == tracegen.generate(
        bursty.trace, 26, 3, bursty.name
    )


def test_trace_volume_is_seed_independent():
    workload = WORKLOADS["shared_prefix_prefill"]
    volumes = set()
    for seed in range(4):
        trace = tracegen.generate(workload.trace, 24, seed, workload.name)
        assert [r.due_s for r in trace] == sorted(r.due_s for r in trace)
        volumes.add(
            (sum(len(r.prompt_ids) for r in trace), sum(r.max_new_tokens for r in trace))
        )
    assert len(volumes) == 1


def test_tail_percentile_needs_ten_samples_beyond():
    assert metrics.tail_percentile(8) == 50
    assert metrics.tail_percentile(20) == 50
    assert metrics.tail_percentile(39) == 50
    assert metrics.tail_percentile(40) == 75
    assert metrics.tail_percentile(100) == 90
    assert metrics.tail_percentile(200) == 95
    assert metrics.tail_percentile(999) == 95
    assert metrics.tail_percentile(1000) == 99


def test_span_self_time_on_a_hand_built_tree():
    # root [0, 10] > a [1, 4] > c [2, 3];  root > b [5, 9];  other root [10, 12]
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["root", 10.0, 12.0, -1, 0],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 2.0]
    recorder = spans.Recorder()
    recorder.spans = tree
    names = spans.summarize(recorder)["names"]
    assert names["root"]["calls"] == 2 and names["root"]["self_s"] == 5.0
    assert sum(entry["self_s"] for entry in names.values()) == 12.0


def test_wrappers_install_and_uninstall_cleanly():
    targets = spans.targets()
    before = [vars(owner)[attr] for owner, attr, _name in targets]
    handle = spans.install()
    try:
        assert all(
            vars(owner)[attr] is not original
            for (owner, attr, _name), original in zip(targets, before)
        )
    finally:
        spans.uninstall(handle)
    assert all(
        vars(owner)[attr] is original
        for (owner, attr, _name), original in zip(targets, before)
    )
    wrapped_names = {name for _owner, _attr, name in targets}
    for layer, names in metrics.LAYER_SPANS.items():
        if layer != "benchmark":
            assert set(names) <= wrapped_names, layer


def test_benchmark_json_matches_the_suite():
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/suite"] and doc["run_seconds"] == REF_SECONDS
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        (d.name, d.unit, d.better) for d in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (d.name, d.unit, d.better) for d in metrics.PER_LAYER
    ]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] + [
        w["name"] for w in doc["workloads"]
    ]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}", name) for name in names)
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.\-]{1,16}", metric["unit"]), metric
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_smoke_run_emits_exactly_the_declared_metrics():
    done = subprocess.run(
        [sys.executable, str(SUITE_DIR / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    doc = _benchmark_json()
    expected = {
        0: {m["name"]: m["unit"] for m in doc["end_to_end"]},
        1: {m["name"]: m["unit"] for m in doc["per_layer"]},
    }
    seen = set()
    for line in done.stdout.splitlines():
        if not line.startswith("RESULT "):
            continue
        row = json.loads(line[len("RESULT "):])
        result = row["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == expected[row["trace"]], row["workload"]
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
        seen.add((row["workload"], row["trace"]))
    assert seen == {(w["name"], t) for w in doc["workloads"] for t in (0, 1)}
