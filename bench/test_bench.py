"""Self-checks of the benchmark: determinism, resource limits and failure paths.

    python3 -m pytest bench/test_bench.py -q     (about three minutes)
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import jobs as wl
import run

sys.path.insert(0, str(run.SRC))

SEEDS = (1, 2, 1009)


def _runner(workload, seed, tmp_path):
    return run.Runner(workload, seed, tmp_path, time.monotonic() + run.RUN_BUDGET_S)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_jobs_and_inputs(workload, tmp_path):
    for seed in SEEDS:
        assert wl.JOB_LISTS[workload](seed) == wl.JOB_LISTS[workload](seed)
    runner = _runner(workload, 7, tmp_path)
    assert runner.setup_once(tmp_path / "a") == []
    assert runner.setup_once(tmp_path / "b") == []
    a, b = sorted((tmp_path / "a").iterdir()), sorted((tmp_path / "b").iterdir())
    assert [p.name for p in a] == [p.name for p in b]
    assert all(p.read_bytes() == q.read_bytes() for p, q in zip(a, b))
    times, problems, jobs = runner.setup()
    assert problems == [] and len(times) >= run.SETUP_REPEATS
    assert jobs == wl.JOB_LISTS[workload](7)


def test_seed_changes_inputs():
    assert wl.dp_sweep_jobs(1) != wl.dp_sweep_jobs(2)
    rngs = [wl._rng("evac-solve-serre", s) for s in (1, 2)]
    graphs = [wl.serre_graph(r, 50, "ab", 0.6) for r in rngs]
    assert graphs[0] != graphs[1]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_jobs_stay_within_cpu_count(workload):
    """Every job is one process; none asks for a worker pool above the CPU count."""
    for seed in SEEDS:
        argvs = [job.argv for job in wl.JOB_LISTS[workload](seed)]
        argvs += wl.evac_setup_commands(seed)
        for argv in argvs:
            if "--threads" in argv:
                assert int(argv[argv.index("--threads") + 1]) <= os.cpu_count()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    """Two traced runs give identical count metrics and every per-layer
    metric that BENCHMARK.json lists."""
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    counts = []
    for _ in range(2):
        result, lines = run.run_workload(workload, 1, seconds=0, traced=True)
        assert result["correct"], lines
        assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
        counts.append({name: result["metrics"][name]["value"] for name in
                       run.COUNT_METRICS + ("cayley.save_mib", "cayley.load_mib")})
    assert counts[0] == counts[1]


def test_end_to_end_metrics_match_spec():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    result, lines = run.run_workload("dp-sweep", 1, seconds=0, traced=False)
    assert result["correct"], lines
    assert result["attempted"] == 1 and result["failed"] == 0
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_wrong_output_counts_as_failed(tmp_path, monkeypatch):
    runner = _runner("dp-sweep", 1, tmp_path)
    jobs = wl.dp_sweep_jobs(1)
    passes = [runner.run_pass(jobs, "plain")]
    assert run.check(runner, jobs, passes)[:2] == (1, 0)
    monkeypatch.setattr(run, "_golden", lambda: {"dp-sweep": {"1": {"sweep.csv": "0" * 64}}})
    attempted, failed, problems = run.check(runner, jobs, passes)
    assert (attempted, failed) == (1, 1) and "golden" in problems[0]
    csv_path = tmp_path / "pass" / "sweep.csv"
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][rows[0].index("nu_x0")] = "1"
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    monkeypatch.setattr(run, "_golden", lambda: {})
    attempted, failed, problems = run.check(runner, jobs, passes)
    assert failed == 1 and "nu_x0 != nu_x0^-1" in problems[0]
    # a job that exits 0 without writing its output fails too
    csv_path.unlink()
    passes = [run.Pass("plain", passes[0].runs, [{}])]
    attempted, failed, problems = run.check(runner, jobs, passes)
    assert (attempted, failed) == (1, 1) and "missing output" in problems[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "dp-sweep",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
