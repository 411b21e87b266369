"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the repository root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from synth import owner_key, rebased  # noqa: E402
from tracing import OP, Tracer, layer_metrics  # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    spans = tmp_path_factory.mktemp("spans") / "spans.jsonl"
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke", "--spans", str(spans)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), spans


def test_smoke_checks_pass(smoke):
    result, _ = smoke
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    for name, workload in result["workloads"].items():
        assert workload["report"]["error_rate"] == 0, name


def test_every_named_metric_is_emitted_with_its_unit(smoke):
    result, _ = smoke
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["workloads"]) == sorted(w["name"] for w in declared["workloads"])
    for workload in result["workloads"].values():
        for section in ("end_to_end", "per_layer"):
            got = workload[section]
            assert sorted(got) == sorted(m["name"] for m in declared[section])
            for metric in declared[section]:
                assert got[metric["name"]]["unit"] == metric["unit"]
                assert isinstance(got[metric["name"]]["value"], (int, float))
        assert workload["end_to_end"]["cmd_wall_vs_ref"]["value"] > 0
        assert workload["report"]["ops_per_s"] > 0
        assert workload["report"]["ref_p50_s"] > 0


def test_traced_shares_match_the_code_paths(smoke):
    result, _ = smoke
    flat, sync = result["workloads"]["flat-edit"], result["workloads"]["history-sync"]
    assert flat["trace_report"]["by_command"]["gen"]["git_calls"] == 0
    assert flat["trace_report"]["by_command"]["gen --version"]["git_calls"] > 0
    assert flat["trace_report"]["by_command"]["validate"]["ops"] > 0
    assert sync["per_layer"]["gitadapter.sync_on_commit.self_s"]["value"] > 0
    assert 0 < flat["per_layer"]["gitadapter.snapshot_useful_ratio"]["value"] < 1
    assert sync["per_layer"]["gitadapter.snapshot_useful_ratio"]["value"] == 1


def test_spans_are_written_as_json_lines(smoke):
    _, spans = smoke
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    assert rows and all({"id", "name", "start", "end", "parent", "op"} <= set(row) for row in rows)
    assert all(row["start"] <= row["end"] for row in rows)
    assert any(row["name"] == "cli.main" for row in rows)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flat-edit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_and_outermost_groups():
    tracer = Tracer()
    # op 0: cli.main [0, 10] > fileformat.parse [1, 4] > paths.from_rendered [2, 3]
    tracer.spans = [
        (OP, 0.0, 10.0, -1, 0),
        ("cli.main", 0.0, 10.0, 0, 0),
        ("fileformat.parse", 1.0, 4.0, 1, 0),
        ("paths.from_rendered", 2.0, 3.0, 2, 0),
        ("paths.canonicalize", 5.0, 6.0, 1, 0),
    ]
    tracer.notes = {0: "gen x"}
    tracer._op = 0
    metrics = layer_metrics(tracer)
    assert metrics["cli.main.self_s"] == pytest.approx(6.0)
    assert metrics["fileformat.parse.s"] == pytest.approx(3.0)
    assert metrics["paths.s"] == pytest.approx(2.0)
    assert metrics["paths.from_rendered.calls"] == 1


def test_expected_owner_is_the_deepest_covering_key():
    keys = {"/": {}, "/a/": {}, "/a/b/c.txt": {}}
    assert owner_key(keys, "/a/b/c.txt") == "/a/b/c.txt"
    assert owner_key(keys, "/a/b/d.txt") == "/a/"
    assert owner_key(keys, "/a/") == "/a/"
    assert owner_key(keys, "/ab/x") == "/"
    assert rebased({"/a/x": 1, "/ab/y": 2}, "/a/", "/z/") == {"/z/x": 1, "/ab/y": 2}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    from run import tail

    assert tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert tail([float(i) for i in range(1000)]) == (99.0, 989.0)
    assert tail([float(i) for i in range(20)]) is None
