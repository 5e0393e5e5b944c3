"""The harness runs end to end at smoke size and keeps its own contract."""

from __future__ import annotations

import hashlib
import json
import pathlib
import subprocess
import sys

from bench import compare, metrics

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tracked_digests() -> dict:
    paths = [ROOT / "BENCHMARK.json"]
    paths += sorted((ROOT / "benchmarks").glob("BENCH_*.json"))
    paths += sorted((ROOT / "bench" / "expected").glob("*.json"))
    return {p: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def test_benchmark_json_mirrors_the_tables():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == metrics.benchmark_json()
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(metrics.NAME_RE.match(name) for name in names)
    assert 2 <= len(declared["workloads"]) <= 8
    assert len(declared["end_to_end"]) <= 16
    assert len(declared["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(m["bound"] for m in declared["end_to_end"])}
    ]


def test_smoke_run_prints_every_metric_and_writes_nothing_tracked(tmp_path):
    before = _tracked_digests()
    out = tmp_path / "results.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--all", "--smoke",
         "--out", str(out), "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert _tracked_digests() == before

    document = json.loads(out.read_text())
    (run,) = document["runs"]
    assert set(run) == set(metrics.WORKLOADS)
    for workload, entry in run.items():
        assert entry["failed"] == 0 and entry["attempted"] > 0, workload
        assert set(entry["end_to_end"]) == {m.name for m in metrics.END_TO_END}
        assert set(entry["per_layer"]) == {m.name for m in metrics.PER_LAYER}
        assert all(value > 0 for value in entry["end_to_end"].values()), workload
        for metric in metrics.END_TO_END + metrics.PER_LAYER:
            assert f"{workload:20s} {metric.name:38s}" in done.stdout
            assert metric.unit
    assert run["service_mixed"]["per_layer"]["amortize.class_drift"] == 0
    assert run["service_mixed"]["per_layer"]["amortize.photons_traced_share"] < 0.5
    assert run["cornell_serial"]["per_layer"]["flatoctree.traverse_s"] == 0
    assert (tmp_path / "trace-lab_pool2.json").exists()

    # A file compared with itself: nothing regressed, no count changed.
    verdicts = {row[-1] for row in compare.rows(document, document)}
    assert verdicts <= {"unchanged"}
    assert compare.main(out, out) == 0
